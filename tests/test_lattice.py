import sys
from types import SimpleNamespace

import numpy as np
import pytest

from garlands import cli, lattice, matrix_group
from garlands.etale import AlgebraSpec
from garlands.finite_field import construct_field
from garlands.lattice import (
    CONFIRMED,
    EXPECTED_COUNTEREXAMPLE,
    IntervalLattice,
    LatticeError,
    NonExhaustiveError,
    enumerate_interval,
    garlands,
    interval_restriction_check,
    normality_graph,
    verify_lower_garland,
)
from garlands.matrix_group import (
    GL,
    SL,
    AmbientGroup,
    Subgroup,
    ambient_group,
    intersect_with_ambient,
    normalizer_brute,
    torus_subgroup,
)
from garlands.config import Caps
from garlands.runner import CaseSpec, build_algebra, run_case, stable_json

import oracles
from oracles import aut_group_size, formula_leaders_by_units, matrix_det, matrix_from_key, normality_edges_by_pairs, with_generators

F2 = construct_field(2, 1)
F3 = construct_field(3, 1)
F9 = construct_field(3, 2)


def test_interval_bottom_is_ambient():
    gl22 = ambient_group(GL, 2, F2)
    whole = Subgroup(gl22, range(6))
    lat = enumerate_interval(whole, gl22)
    assert len(lat) == 1


def test_interval_singer_gl22():
    gl22 = ambient_group(GL, 2, F2)
    t = torus_subgroup(AlgebraSpec(F2, [2]), gl22)
    lat = enumerate_interval(t, gl22)
    assert lat.member_orders() == [3, 6]  # index 2 leaves no room


def test_interval_d23_member_orders():
    gl23 = ambient_group(GL, 2, F3)
    d = torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23)
    lat = enumerate_interval(d, gl23)
    # diagonal (4), monomial (8), two preimages of point stabilisers (12),
    # a Sylow 2-subgroup (16), the whole group
    assert lat.member_orders() == [4, 8, 12, 12, 16, 48]


def test_interval_members_are_subgroups_and_unique():
    gl23 = ambient_group(GL, 2, F3)
    d = torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23)
    lat = enumerate_interval(d, gl23)
    ids = [m.id for m in lat.members]
    assert len(set(ids)) == len(ids)
    for m in lat.members:
        assert d.is_subset_of(m)
        assert gl23.order % m.order == 0


def test_interval_lattice_rejects_repeated_member():
    gl23 = ambient_group(GL, 2, F3)
    d = torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23)
    lat = enumerate_interval(d, gl23)
    twin = Subgroup(gl23, lat.members[1].indices.copy())
    members = tuple(sorted(lat.members + (twin,), key=lambda s: (s.order, s.id)))
    with pytest.raises(LatticeError, match="collision"):
        IntervalLattice(bottom=d, top=lat.top, ambient=gl23, members=members)


def test_interval_within_top():
    gl23 = ambient_group(GL, 2, F3)
    t = torus_subgroup(AlgebraSpec(F3, [2]), gl23)
    n = normalizer_brute(gl23, t)
    lat = enumerate_interval(t, gl23, within=n)
    assert lat.member_orders() == [8, 16]
    # an exhaustive lattice holds its top, inside the ambient or not
    for top in (n, t):
        lat = enumerate_interval(t, gl23, within=top)
        assert normality_graph(lat).top_id == lat.top.id == lat.members[-1].id


def test_normality_graph_examples():
    gl22 = ambient_group(GL, 2, F2)
    t = torus_subgroup(AlgebraSpec(F2, [2]), gl22)
    lat = enumerate_interval(t, gl22)
    g = normality_graph(lat)
    assert len(g.edges) == 1  # T normal in GL(2,2), index 2

    # torus -- its normalizer is always an edge
    gl23 = ambient_group(GL, 2, F3)
    t9 = torus_subgroup(AlgebraSpec(F3, [2]), gl23)
    n9 = normalizer_brute(gl23, t9)
    lat = enumerate_interval(t9, gl23)
    g = normality_graph(lat)
    assert (t9.id, n9.id) in g.edges


def test_normality_graph_no_edges_between_incomparable():
    # the two order-12 members over D(2,3) are incomparable: no edge between them
    gl23 = ambient_group(GL, 2, F3)
    d = torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23)
    lat = enumerate_interval(d, gl23)
    twelves = [m for m in lat.members if m.order == 12]
    assert len(twelves) == 2
    g = normality_graph(lat)
    pair = tuple(sorted([twelves[0].id, twelves[1].id]))
    assert pair not in g.edges


def test_normality_graph_is_pure():
    # a fresh graph on every call, and nothing written onto the lattice:
    # only _torus_lattice keeps one, in lat.graph
    gl23 = ambient_group(GL, 2, F3)
    lat = enumerate_interval(torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23), gl23)
    first = normality_graph(lat)
    second = normality_graph(lat)
    assert first == second and first is not second and first.edges
    assert lat.graph is None


def test_f2_pair_builds_one_normality_graph(monkeypatch):
    # GL(3,2) = SL(3,2): the pair shares one kept [T, G], and its graph is
    # built once, beside the lattice, and read by both reports
    calls = []
    graph = lattice.normality_graph
    monkeypatch.setattr(lattice, "normality_graph", lambda lat: calls.append(lat) or graph(lat))
    lattice._reset_lattices()
    for ambient in ("gl", "sl"):
        assert run_case(CaseSpec(2, 1, (1, 1, 1), ambient))["status"] == "ok"
    (lat,) = lattice._LATTICES.values()
    assert len(calls) == 1 and calls[0] is lat and lat.graph == graph(lat)


def test_garlands_partition_and_flags():
    gl23 = ambient_group(GL, 2, F3)
    d = torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23)
    lat = enumerate_interval(d, gl23)
    g = normality_graph(lat)
    gs = garlands(g)
    seen = [mid for garland in gs for mid in garland.member_ids]
    assert sorted(seen) == sorted(g.vertices)  # a partition
    assert sum(1 for x in gs if x.is_lower) == 1
    assert sum(1 for x in gs if x.is_upper) == 1


def test_single_member_lattice_single_garland():
    gl22 = ambient_group(GL, 2, F2)
    whole = Subgroup(gl22, range(6))
    g = normality_graph(enumerate_interval(whole, gl22))
    gs = garlands(g)
    assert len(gs) == 1 and gs[0].is_lower and gs[0].is_upper


def test_lower_garland_d23_strictly_contains_interval():
    gl23 = ambient_group(GL, 2, F3)
    d = torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23)
    lat = enumerate_interval(d, gl23)
    g = normality_graph(lat)
    lower = next(x for x in garlands(g) if x.is_lower)
    lower_orders = sorted(lat.by_id[i].order for i in lower.member_ids)
    assert lower_orders == [4, 8, 16]


def test_verify_f9_gl23_confirmed():
    doc = verify_lower_garland(AlgebraSpec(F3, [2]), ambient_group(GL, 2, F3)).doc
    assert doc["garland"]["equal"]
    assert doc["normalizers"]["formula_equals_brute"]
    assert doc["idempotence"]["holds"]
    assert doc["overall"] == CONFIRMED
    assert doc["garland"]["interval"] == doc["garland"]["lower"]


def test_verify_f3f3_gl23_expected_counterexample():
    doc = verify_lower_garland(AlgebraSpec(F3, [1, 1]), ambient_group(GL, 2, F3)).doc
    assert not doc["garland"]["equal"]
    assert [w["order"] for w in doc["garland"]["extra_members"]] == [16]
    assert doc["overall"] == EXPECTED_COUNTEREXAMPLE
    assert len(doc["garland"]["interval"]) == 2


def test_verify_f3f3_sl23_formula_mismatch():
    doc = verify_lower_garland(AlgebraSpec(F3, [1, 1]), ambient_group(SL, 2, F3)).doc
    assert not doc["hypotheses"]["norm_one_span"]
    assert not doc["normalizers"]["formula_equals_brute"]
    assert doc["normalizers"]["formula_order"] == 4
    assert doc["normalizers"]["brute_order"] == 24
    assert doc["overall"] == EXPECTED_COUNTEREXAMPLE


def test_formula_closure_failure_is_reported(monkeypatch):
    # with a shear standing in for the nontrivial automorphism of F_9 / F_3,
    # the predicted set {t(a) P} is not closed: the report records the
    # failure and the formula verdict instead of raising
    shapes = ([[1, 0], [0, 1]], [[1, 1], [0, 1]])
    stand_ins = [SimpleNamespace(matrix=lambda rows=rows: np.array(rows, dtype=np.int16)) for rows in shapes]
    monkeypatch.setattr(matrix_group, "aut_group", lambda spec: stand_ins)
    spec = AlgebraSpec(F3, [2])
    for kind, set_size, closure_size in [(GL, 16, 48), (SL, 8, 24)]:
        rep = verify_lower_garland(spec, ambient_group(kind, 2, F3))
        failure = rep.doc["normalizers"]["formula_closure_failure"]
        assert failure["ambient"] == {"kind": kind, "n": 2, "q": 3}
        assert (failure["set_size"], failure["closure_size"]) == (set_size, closure_size)
        assert rep.doc["normalizers"]["formula_order"] == 0
        assert not rep.doc["normalizers"]["formula_equals_brute"]
        assert rep.doc["verdicts"]["normalizer_formula"] == "unexpected_mismatch"
        assert rep.to_dict()["normalizers"]["formula_closure_failure"] == failure
    # over F_2 (SL = GL) the SL case reads the GL case's lattice and its T,
    # and its payload still names SL; X = {shear} lacks 1
    shear = SimpleNamespace(matrix=lambda: np.array([[1, 1], [0, 1]], dtype=np.int16))
    monkeypatch.setattr(matrix_group, "aut_group", lambda spec: [shear])
    lattice._reset_lattices()
    for kind in (GL, SL):
        doc = verify_lower_garland(AlgebraSpec(F2, [1, 1]), ambient_group(kind, 2, F2)).doc
        failure = doc["normalizers"]["formula_closure_failure"]
        assert failure["ambient"] == {"kind": kind, "n": 2, "q": 2}, kind
        assert (failure["set_size"], failure["closure_size"]) == (1, 2), kind


@pytest.mark.parametrize("kind", [GL, SL])
def test_normalizer_formula_closes_only_a_failing_set(monkeypatch, kind):
    # X holds 1 and T's generators plus the x_sigma, so one product pass
    # X * s over those generators decides whether X is closed: a closed X
    # takes no closure, and a failing one exactly one, on its generators,
    # for the payload's closure size
    calls = []
    closure = matrix_group._closure
    monkeypatch.setattr(matrix_group, "_closure", lambda amb, gens: calls.append(list(gens)) or closure(amb, gens))
    for spec in (AlgebraSpec(F3, [2]), AlgebraSpec(F3, [1, 1]), AlgebraSpec(F2, [2, 1])):
        amb = ambient_group(kind, spec.n, spec.base)
        torus = torus_subgroup(spec, amb)
        n = matrix_group.normalizer_formula(spec, torus)
        leaders = [x for x in formula_leaders_by_units(spec, amb) if x != amb.identity_index]
        assert n.generators == torus.generators + leaders, spec
        assert calls == [], spec
    shear = SimpleNamespace(matrix=lambda: np.array([[1, 1], [0, 1]], dtype=np.int16))
    monkeypatch.setattr(matrix_group, "aut_group", lambda spec: [shear])
    spec, amb = AlgebraSpec(F3, [2]), ambient_group(kind, 2, F3)
    torus = torus_subgroup(spec, amb)
    with pytest.raises(matrix_group.HypothesisFailure) as failure:
        matrix_group.normalizer_formula(spec, torus)
    assert len(calls) == 1 and calls[0][:-1] == torus.generators  # T's generators, then the shear's x_sigma
    assert failure.value.payload["closure_size"] == closure(amb, calls[0]).size


@pytest.mark.parametrize("p", [5, 7])
def test_sl_x_sigma_takes_the_inverse_determinant(monkeypatch, p):
    # det(t(a) P) = N(a) det(P), so in SL x_sigma is t(a) P for the first
    # unit a with N(a) = det(P)^-1.  An automorphism's P_sigma has det +-1,
    # its own inverse, so stand-ins of det 2 and 3 tell that rule from
    # N(a) = det(P); the per-unit oracle reads the same stand-ins, and the
    # diagonal stand-ins keep X = T closed over the split algebra
    field = construct_field(p, 1)
    shapes = ([[1, 0], [0, 1]], [[2, 0], [0, 1]], [[3, 0], [0, 1]])
    stand_ins = [SimpleNamespace(matrix=lambda rows=rows: np.array(rows, dtype=np.int16)) for rows in shapes]
    monkeypatch.setattr(matrix_group, "aut_group", lambda spec: stand_ins)
    monkeypatch.setattr(oracles, "aut_group", lambda spec: stand_ins)
    spec, amb = AlgebraSpec(field, [1, 1]), ambient_group(SL, 2, field)
    torus = torus_subgroup(spec, amb)
    leaders = [x for x in formula_leaders_by_units(spec, amb) if x != amb.identity_index]
    assert len(leaders) == 2
    assert matrix_group.normalizer_formula(spec, torus).generators == torus.generators + leaders


def test_interval_always_inside_lower_garland():
    for base, degs, kind in [(F3, [2], GL), (F3, [1, 1], GL), (F3, [2], SL), (F2, [2, 1], GL)]:
        spec = AlgebraSpec(base, degs)
        garland = verify_lower_garland(spec, ambient_group(kind, spec.n, base)).doc["garland"]
        assert set(garland["interval"]) <= set(garland["lower"])


def test_restriction_check_examples():
    def check(spec, gl, sl):
        return interval_restriction_check(spec, gl, verify_lower_garland(spec, sl))

    gl23 = ambient_group(GL, 2, F3)
    sl23 = ambient_group(SL, 2, F3)
    r = check(AlgebraSpec(F3, [2]), gl23, sl23)
    assert r["equal"] and r["intersection_identity_holds"]

    gl22 = ambient_group(GL, 2, F2)
    sl22 = ambient_group(SL, 2, F2)
    r = check(AlgebraSpec(F2, [2]), gl22, sl22)
    assert r["equal"]  # SL(2,2) = GL(2,2), degenerate equality

    r = check(AlgebraSpec(F3, [1, 1]), gl23, sl23)
    assert not r["intersection_identity_holds"]  # recorded, not asserted
    assert r["verdict"] == EXPECTED_COUNTEREXAMPLE


def test_lattice_conjugation_invariance():
    rng = np.random.default_rng(11)
    gl23 = ambient_group(GL, 2, F3)
    d = torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23)
    lat = enumerate_interval(d, gl23)
    graph = normality_graph(lat)
    for _ in range(3):
        g = int(rng.integers(gl23.order))
        ginv = int(gl23.inv_indices()[g])
        conj = Subgroup(
            gl23, gl23.rmul(gl23.lmul(g, d.indices), ginv), gl23.rmul(gl23.lmul(g, np.array(d.generators)), ginv)
        )
        lat2 = enumerate_interval(conj, gl23)
        assert lat2.member_orders() == lat.member_orders()
        graph2 = normality_graph(lat2)
        # the conjugation bijection maps members to members and edges to edges
        mapping = {}
        for m in lat.members:
            image = Subgroup(gl23, gl23.rmul(gl23.lmul(g, m.indices), ginv))
            mapping[m.id] = image.id
            assert image.id in lat2.by_id
        mapped_edges = {tuple(sorted((mapping[a], mapping[b]))) for a, b in graph.edges}
        plain_edges = {tuple(sorted(e)) for e in graph2.edges}
        assert mapped_edges == plain_edges


def test_non_exhaustive_lattice_refused():
    gl23 = ambient_group(GL, 2, F3)
    d = torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23)
    lat = enumerate_interval(d, gl23, max_members=2)
    assert not lat.exhaustive
    with pytest.raises(NonExhaustiveError):
        normality_graph(lat)


def test_trivial_torus_gl32_expands_one_member_per_orbit(monkeypatch):
    # GL(3,2) = PSL(2,7) has 179 subgroups in 15 conjugacy classes, and the
    # normalizer of the trivial torus is the whole group; the class of the
    # whole group gets no table, since top has no extension
    built = []

    class CountingTable(lattice.CosetTable):
        def __init__(self, h, top, below=None):
            built.append(h)
            super().__init__(h, top, below)

    monkeypatch.setattr(lattice, "CosetTable", CountingTable)
    gl32 = ambient_group(GL, 3, F2)
    t = torus_subgroup(AlgebraSpec(F2, [1, 1, 1]), gl32)
    assert t.order == 1
    lat = enumerate_interval(t, gl32)
    assert len(lat) == 179 and lat.exhaustive
    assert len(built) == 14
    assert all(h.order < gl32.order for h in built)


def test_enumeration_multiplies_matrices_only_for_factor_tables(monkeypatch):
    # every matrix product of GL(3,3) 2,1's [T, G] enumeration is a factor
    # table, the q^n row vectors by a few factors: no batch of elements
    spec = AlgebraSpec(F3, [2, 1])
    amb = ambient_group(GL, 3, F3)
    t = torus_subgroup(spec, amb)
    batches = []
    mat_mul = matrix_group._mat_mul

    def recording(field, a, b):
        batches.append((a, b.shape))
        return mat_mul(field, a, b)

    monkeypatch.setattr(matrix_group, "_mat_mul", recording)
    lat = enumerate_interval(t, amb)
    monkeypatch.undo()
    assert lat.exhaustive and len(lat) > 1 and batches
    for a, shape in batches:
        assert a is amb._rowvecs and a.shape == (27, 1, 3)
        assert len(shape) == 4 and shape[1:] == (1, 3, 3)
    # a table holds the factors of one call site, at most one per right
    # coset of T (154 factors in all here), never one per element
    assert max(shape[0] for _, shape in batches) <= amb.order // t.order
    assert sum(shape[0] for _, shape in batches) < amb.order // 50


@pytest.mark.parametrize("p,degrees", [(2, [1, 1, 1]), (3, [2, 1])])
def test_one_whole_top_product_per_generator(monkeypatch, p, degrees):
    # the coset tables share top's right permutations, one per distinct generator
    spec = AlgebraSpec(construct_field(p, 1), degrees)
    amb = ambient_group(GL, spec.n, spec.base)
    t = torus_subgroup(spec, amb)
    whole_top = []
    rmul = AmbientGroup.rmul

    def counting_rmul(self, x, g):
        if len(x) == amb.order:
            whole_top.append(g)
        return rmul(self, x, g)

    monkeypatch.setattr(AmbientGroup, "rmul", counting_rmul)
    lat = enumerate_interval(t, amb)
    monkeypatch.undo()
    assert lat.exhaustive and whole_top
    assert all(np.ndim(g) == 0 for g in whole_top)
    assert len(set(map(int, whole_top))) == len(whole_top)


@pytest.mark.parametrize("n,base,degrees", [(3, F2, [1, 1, 1]), (3, F3, [2, 1]), (2, F9, [1, 1])])
def test_expanded_members_keep_the_generators_they_were_closed_from(monkeypatch, n, base, degrees):
    # a member K = <H, g> is generated by H's generators and g.  T's own
    # table takes the left permutations of T's generators by doubling, which
    # for the abelian T leaves the finishing pass nothing to change; a
    # later table over positions ([K:T] > |T|) builds left permutations only
    # for the elements adjoined since T, and one over T's right cosets
    # builds no permutation of the whole top: no right permutation, no
    # orbit minima over positions, no product pass longer than |top|
    amb = ambient_group(GL, n, base)
    t = torus_subgroup(AlgebraSpec(base, degrees), amb)
    builders = {}  # member key -> the H whose table first closed it
    extend = lattice.extend_subgroups

    def recording_extend(table, gs):
        out = extend(table, gs)
        for k in out:
            builders.setdefault(k.indices.tobytes(), table.h)
        return out

    calls = []  # ("minima", labels, perms), ("cycles", perms), ("right", s), ("products", count)
    orbit_minima, cycle_minima = matrix_group._orbit_minima, matrix_group._cycle_minima
    right_perm, products = matrix_group.CosetTable.right_perm, matrix_group.RightProducts.__call__

    def recording_orbit_minima(labels, perms):
        calls.append(("minima", labels.copy(), list(perms)))
        return orbit_minima(labels, perms)

    def recording_cycle_minima(perms, size):
        calls.append(("cycles", list(perms)))
        return cycle_minima(perms, size)

    def recording_right_perm(self, s):
        calls.append(("right", s))
        return right_perm(self, s)

    def recording_products(self, idxs, which=0):
        calls.append(("products", len(idxs)))
        return products(self, idxs, which)

    monkeypatch.setattr(matrix_group, "_orbit_minima", recording_orbit_minima)
    monkeypatch.setattr(matrix_group, "_cycle_minima", recording_cycle_minima)
    monkeypatch.setattr(matrix_group.CosetTable, "right_perm", recording_right_perm)
    monkeypatch.setattr(matrix_group.RightProducts, "__call__", recording_products)
    tables = []  # (H, top, the calls its table made)

    class RecordingTable(lattice.CosetTable):
        def __init__(self, h, top, below=None):
            start = len(calls)
            super().__init__(h, top, below)
            tables.append((h, top, calls[start:]))

    monkeypatch.setattr(lattice, "extend_subgroups", recording_extend)
    monkeypatch.setattr(lattice, "CosetTable", RecordingTable)
    lat = enumerate_interval(t, amb)
    monkeypatch.undo()
    assert lat.exhaustive and len(tables) > 1
    top = tables[0][1]
    root = lattice.CosetTable(t, top)
    inverse = top.positions()[amb.inv_indices()[top.indices]]

    def left(gens):
        return [inverse[root.right_perm(s)[inverse]] for s in gens]

    h, _, made = tables[0]
    assert h is t
    doubled = [c[1] for c in made if c[0] == "cycles"]
    assert len(doubled) == 1 and all(map(np.array_equal, doubled[0], left(t.generators)))
    finished = next(c[1] for c in made if c[0] == "minima")  # the finishing pass's start
    assert np.array_equal(finished, root.leaders[root.coset])
    for h, _, made in tables[1:]:
        builder = builders[h.indices.tobytes()]
        gens = h.generators
        assert gens[:-1] == builder.generators and not builder.contains(gens[-1]), h.order
        assert np.array_equal(matrix_group._closure(amb, gens), h.indices), h.order
        adjoined = gens[len(t.generators) :]
        assert gens[: len(t.generators)] == t.generators
        assert not t.contains(adjoined).any() and 2 ** len(adjoined) <= h.order // t.order
        assert not [c for c in made if c[0] == "cycles"], h.order
        over_positions = [c[2] for c in made if c[0] == "minima" and c[1].size == top.order]
        if h.order // t.order > t.order:  # over positions, from T's labels
            assert len(over_positions) == 1 and len(over_positions[0]) == len(adjoined), h.order
            assert all(map(np.array_equal, over_positions[0], left(adjoined))), h.order
        else:  # over T's right cosets
            assert not over_positions and not [c for c in made if c[0] == "right"], h.order
            assert max(c[1] for c in made if c[0] == "products") <= top.order, h.order


@pytest.mark.parametrize(
    "p,degrees,routes",
    [
        (3, [2, 1], {"cosets", "positions"}),
        (2, [2, 1], {"cosets", "positions"}),
        (2, [1, 1, 1], {"positions"}),  # T is trivial, so [H:T] = |H| > |T| for every H past T
    ],
)
def test_member_tables_take_the_route_the_size_rule_names(monkeypatch, p, degrees, routes):
    # T's own table is over positions; every later table, seeded with T's,
    # is over T's right cosets exactly when [H:T] <= |T|
    amb = ambient_group(GL, 3, construct_field(p, 1))
    t = torus_subgroup(AlgebraSpec(amb.field, degrees), amb)
    taken = []  # (H, seeded, route)
    over_cosets, over_positions = lattice.CosetTable._label_over_cosets, lattice.CosetTable._label_over_positions

    def by_cosets(table, below):
        taken.append((table.h, below is not None, "cosets"))
        return over_cosets(table, below)

    def by_positions(table, below):
        taken.append((table.h, below is not None, "positions"))
        return over_positions(table, below)

    monkeypatch.setattr(lattice.CosetTable, "_label_over_cosets", by_cosets)
    monkeypatch.setattr(lattice.CosetTable, "_label_over_positions", by_positions)
    enumerate_interval(t, amb)
    monkeypatch.undo()
    assert taken[0] == (t, False, "positions") and all(seeded for _, seeded, _ in taken[1:])
    for h, _, route in taken[1:]:
        assert route == ("cosets" if h.order // t.order <= t.order else "positions"), h.order
    assert {route for _, _, route in taken[1:]} == routes


@pytest.mark.parametrize("acting_order", [168, 24])
def test_conjugacy_orbits_match_conjugation_by_every_element(acting_order):
    # the one-batch orbit of each member of GL(3,2) 1,1,1's [T, G] under
    # N(T) = G, and under a smaller acting group whose orbits split, against
    # conjugating K by every element of the acting group; T is trivial, so
    # its right-coset leaders in the acting group are all of that group
    gl32 = ambient_group(GL, 3, F2)
    t = torus_subgroup(AlgebraSpec(F2, [1, 1, 1]), gl32)
    lat = enumerate_interval(t, gl32)
    acting = next(n for n in lat.normalizers if n.order == acting_order)
    leaders = acting.indices[lattice.CosetTable(t, acting).leaders]
    assert np.array_equal(leaders, acting.indices)
    for k in lat.members:
        orbit = lattice._conjugacy_orbit(k, leaders)
        by_all = {row.tobytes() for row in np.sort(gl32.conjugates(acting.indices, k.indices), axis=1)}
        assert {m.indices.tobytes() for m, _ in orbit} == by_all
        for m, a in orbit:
            assert acting.contains(a)
            assert np.array_equal(np.sort(gl32.conjugates([a], k.indices)[0]), m.indices)


@pytest.mark.parametrize("p,degrees", [(2, [1, 1, 1]), (3, [1, 1]), (2, [2, 1]), (3, [2, 1])])
def test_orbits_come_from_one_leader_per_right_coset_of_t_in_its_normalizer(monkeypatch, p, degrees):
    # the enumeration conjugates every orbit by the same leaders: they lie in
    # N_top(T), T a runs over each right coset of T in N_top(T) once, and
    # each orbit is K's conjugates by every element of N_top(T)
    spec = AlgebraSpec(construct_field(p, 1), degrees)
    amb = ambient_group(GL, spec.n, spec.base)
    t = torus_subgroup(spec, amb)
    calls = []
    orbit = lattice._conjugacy_orbit

    def recording_orbit(k, leaders):
        calls.append((k, leaders, orbit(k, leaders)))
        return calls[-1][2]

    monkeypatch.setattr(lattice, "_conjugacy_orbit", recording_orbit)
    for within in (None, normalizer_brute(amb, t)):
        calls.clear()
        lat = enumerate_interval(t, amb, within=within)
        n = _cut(normalizer_brute(amb, t), lat.top)
        leaders = calls[0][1]
        assert all(c[1] is leaders for c in calls)
        cosets = amb.lmul(np.repeat(t.indices, leaders.size), np.tile(leaders, t.order))
        assert leaders.size == n.order // t.order and np.array_equal(np.sort(cosets), n.indices)
        for k, _, got in calls:
            by_all = {row.tobytes() for row in np.sort(amb.conjugates(n.indices, k.indices), axis=1)}
            assert {m.indices.tobytes() for m, _ in got} == by_all, k.order


def test_conjugacy_orbit_skips_the_leaders_inside_k(monkeypatch):
    # conjugating by an element of K fixes K, so only the leaders outside K
    # conjugate it; the top holds every leader and is conjugated by none
    gl32 = ambient_group(GL, 3, F2)
    t = torus_subgroup(AlgebraSpec(F2, [1, 1, 1]), gl32)
    lat = enumerate_interval(t, gl32)
    leaders = np.arange(gl32.order, dtype=np.int32)  # T is trivial: every element leads its own coset
    pairs = []  # conjugation's products: one per element conjugated
    conjugate_by = AmbientGroup.conjugate_by
    monkeypatch.setattr(
        AmbientGroup, "conjugate_by", lambda self, gs, w, idxs: pairs.append(len(idxs)) or conjugate_by(self, gs, w, idxs)
    )
    for k in lat.members:
        pairs.clear()
        lattice._conjugacy_orbit(k, leaders)
        assert sum(pairs) == (gl32.order - k.order) * k.order, k.order
    top = lat.members[-1]
    pairs.clear()
    assert lattice._conjugacy_orbit(top, leaders) == [(top, gl32.identity_index)]
    assert pairs == []


def test_max_members_stops_after_the_orbit_that_crosses_it():
    gl32 = ambient_group(GL, 3, F2)
    t = torus_subgroup(AlgebraSpec(F2, [1, 1, 1]), gl32)
    lat = enumerate_interval(t, gl32, max_members=1)
    assert not lat.exhaustive
    # the first new member brings its whole conjugacy class (no class of
    # proper nontrivial subgroups of GL(3,2) is a single subgroup)
    assert 2 < len(lat) < 179
    with pytest.raises(NonExhaustiveError):
        normality_graph(lat)


@pytest.mark.parametrize("p,degrees", [(2, [1, 1, 1]), (3, [1, 1]), (2, [2, 1])])
def test_normality_graph_matches_pairwise_subset_tests(monkeypatch, p, degrees):
    spec = AlgebraSpec(construct_field(p, 1), degrees)
    amb = ambient_group(GL, spec.n, spec.base)
    t = torus_subgroup(spec, amb)
    for within in (None, normalizer_brute(amb, t)):
        lat = enumerate_interval(t, amb, within=within)
        edges, comparable = normality_edges_by_pairs(lat.members)
        calls = []
        for cls, name in ((AmbientGroup, "lmul"), (AmbientGroup, "rmul"), (matrix_group.RightProducts, "__call__")):
            product = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda *args, _f=product, _n=name: calls.append(_n) or _f(*args))
        graph = normality_graph(lat)
        monkeypatch.undo()
        assert set(graph.edges) == edges
        assert comparable  # the lattices have proper inclusions to test
        # normality is read off the members' normalizers: no group products
        assert calls == []


def _cut(n, top):
    return Subgroup(n.ambient, n.indices[top.contains(n.indices)])


@pytest.mark.parametrize("p,degrees", [(2, [1, 1, 1]), (3, [2, 1])])
def test_member_normalizers_match_brute(p, degrees):
    # GL(3,2) 1,1,1 has 179 members in 15 orbits, so most normalizers are
    # conjugated from a representative's table rather than read off one
    spec = AlgebraSpec(construct_field(p, 1), degrees)
    amb = ambient_group(GL, spec.n, spec.base)
    t = torus_subgroup(spec, amb)
    for within in (None, normalizer_brute(amb, t)):
        lat = enumerate_interval(t, amb, within=within)
        assert len(lat.normalizers) == len(lat.members)
        for m, nm in zip(lat.members, lat.normalizers):
            assert nm.same_elements(_cut(normalizer_brute(amb, with_generators(m)), lat.top)), m.order
    assert enumerate_interval(t, amb, max_members=1).normalizers == ()


def test_verify_scans_the_ambient_once(monkeypatch, capsys):
    # T's coset table over G is the one whole-ambient pass: N(T), N(N(T)),
    # N_GL(T) and C(T) come from coset tables, and no case calls a
    # conjugation scan, the tests' reference route
    calls = []
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "garlands"]:
        if hasattr(mod, "normalizer_brute"):
            wrapped = lambda *args, _f=mod.normalizer_brute: calls.append("normalizer_brute") or _f(*args)
            monkeypatch.setattr(mod, "normalizer_brute", wrapped)
    for name in ("conj_by_all", "commute_mask"):
        wrapped = lambda *args, _f=getattr(AmbientGroup, name), _n=name: calls.append(_n) or _f(*args)
        monkeypatch.setattr(AmbientGroup, name, wrapped)
    for p, degrees in [(2, (1, 1, 1)), (3, (2,)), (3, (1, 1))]:
        spec = AlgebraSpec(construct_field(p, 1), degrees)
        gl = ambient_group(GL, spec.n, spec.base)
        sl_report = verify_lower_garland(spec, ambient_group(SL, spec.n, spec.base))
        verify_lower_garland(spec, gl)
        interval_restriction_check(spec, gl, sl_report)
        for ambient in ("gl", "sl"):
            assert run_case(CaseSpec(p, 1, degrees, ambient))["status"] == "ok"
            flags = ["--p", str(p), "--degrees", ",".join(map(str, degrees)), "--ambient", ambient]
            assert cli.main(["torus", *flags]) == 0
    capsys.readouterr()
    assert calls == []


# the GL/SL pairs of the benchmark's lattice and large-q case lists, with the
# caps they run under, and an F_2 pair whose N(T) is not all of G
PIPELINE_PAIRS = [
    ((2, 1, (1, 1, 1)), Caps()),
    ((3, 1, (2, 1)), Caps()),
    ((13, 1, (2,)), Caps(group_order=30_000)),
    ((13, 1, (1, 1)), Caps(group_order=30_000)),
    ((2, 1, (2, 1)), Caps()),
]


@pytest.mark.parametrize("algebra,caps", PIPELINE_PAIRS)
def test_reports_do_not_depend_on_the_stage_memo(algebra, caps):
    # a pair run in either order reads the lattice memo; each report must
    # equal the one a process that runs only that case prints
    gl, sl = CaseSpec(*algebra, "gl"), CaseSpec(*algebra, "sl")
    cold = {}
    for case in (gl, sl):
        lattice._reset_lattices()
        cold[case] = stable_json(run_case(case, caps))
    for order in ((gl, sl), (sl, gl)):
        lattice._reset_lattices()
        for case in order:
            assert stable_json(run_case(case, caps)) == cold[case], (order, case)


@pytest.mark.parametrize("algebra,caps", PIPELINE_PAIRS)
def test_only_the_torus_and_the_formula_set_pick_generators(monkeypatch, algebra, caps):
    # the torus and the formula set take their generators from the algebra,
    # members closed as <H, g> keep theirs and N(T) acts through T's
    # right-coset leaders, so no case searches for generators; a closed
    # formula set is checked by one product pass, so across a pair no case
    # takes a closure, and the formula set's generators are T's and the
    # x_sigma.  Each algebra-side stage runs once per case: one span check
    # for both ranks, and, where the case builds its own T (an SL case over
    # F_2 reads the GL case's lattice), one torus_generators call and one
    # regular_rep_mats batch of T's generators and units; the formula set
    # comes from T, with one batch of |Aut(S)| units for the x_sigma and, in
    # SL, the determinants of the |Aut(S)| P_sigma only
    assert not hasattr(matrix_group, "_pick_generators")
    calls, formula_gens, stages = [], [], []
    closure, formula = matrix_group._closure, lattice.normalizer_formula
    monkeypatch.setattr(matrix_group, "_closure", lambda amb, gens: calls.append((amb, list(gens))) or closure(amb, gens))

    def recording_formula(spec, torus):
        x = formula(spec, torus)
        formula_gens.append((torus.ambient.kind, x.generators))
        return x

    def staged(name, fn, size=lambda *args: None):
        return lambda *args: stages[-1].append((name, size(*args))) or fn(*args)

    monkeypatch.setattr(lattice, "normalizer_formula", recording_formula)
    monkeypatch.setattr(lattice, "additive_span_check", staged("span", lattice.additive_span_check))
    monkeypatch.setattr(matrix_group, "torus_generators", staged("generators", matrix_group.torus_generators))
    monkeypatch.setattr(matrix_group, "_det", staged("det", matrix_group._det, lambda field, mats: len(mats)))
    rep = AlgebraSpec.regular_rep_mats
    monkeypatch.setattr(AlgebraSpec, "regular_rep_mats", staged("rep", rep, lambda spec, comps: len(comps)))
    lattice._reset_lattices()
    cases = [CaseSpec(*algebra, ambient) for ambient in ("gl", "sl")]
    for case in cases:
        stages.append([])
        assert run_case(case, caps)["status"] == "ok"
    monkeypatch.undo()
    expected, expected_stages = [], []
    for case in cases:
        base, spec = build_algebra(case, caps)
        amb = ambient_group(case.kind, case.n, base, caps)
        torus = torus_subgroup(spec, amb)
        leaders = [x for x in formula_leaders_by_units(spec, amb) if x != amb.identity_index]
        expected.append((amb.kind, torus.generators + leaders))
        auts = aut_group_size(spec)
        own_torus = case.kind == GL or base.q > 2
        expected_stages.append(
            [("span", None)]
            + [("generators", None), ("rep", len(torus.generators) + torus.order)] * own_torus
            + [("det", auts)] * (case.kind == SL)
            + [("rep", auts)]
        )
    assert calls == []
    assert formula_gens == expected
    assert stages == expected_stages


class _Counts:
    """Counts the tori, intervals, whole-ambient coset tables and normality graphs the lattice module makes."""

    def __init__(self, monkeypatch):
        self.reset()
        enumerate_, torus, graph = lattice.enumerate_interval, lattice.torus_subgroup, lattice.NormalityGraph
        counts = self

        def counting_enumerate(*args, **kwargs):
            counts.intervals += 1
            return enumerate_(*args, **kwargs)

        def counting_torus(*args):
            counts.tori += 1
            return torus(*args)

        def counting_graph(**fields):
            counts.graphs += 1
            return graph(**fields)

        class CountingTable(lattice.CosetTable):
            def __init__(self, h, top, below=None):
                counts.whole_tables += top.order == h.ambient.order
                super().__init__(h, top, below)

        monkeypatch.setattr(lattice, "enumerate_interval", counting_enumerate)
        monkeypatch.setattr(lattice, "torus_subgroup", counting_torus)
        monkeypatch.setattr(lattice, "CosetTable", CountingTable)
        monkeypatch.setattr(lattice, "NormalityGraph", counting_graph)

    def reset(self):
        self.intervals = self.tori = self.whole_tables = self.graphs = 0


@pytest.mark.parametrize("p,degrees", [(5, [1]), (3, [2, 1])])
def test_restriction_after_the_gl_case_reuses_its_stage(monkeypatch, p, degrees):
    spec = AlgebraSpec(construct_field(p, 1), degrees)
    gl, sl = ambient_group(GL, spec.n, spec.base), ambient_group(SL, spec.n, spec.base)
    verify_lower_garland(spec, gl)
    sl_report = verify_lower_garland(spec, sl)
    counts = _Counts(monkeypatch)
    after_gl = interval_restriction_check(spec, gl, sl_report)
    assert (counts.whole_tables, counts.intervals, counts.tori) == (0, 0, 0)
    # cold, the same check builds T's table over GL (and, when N_GL(T) = GL,
    # the enumeration's tables), enumerates the interval inside N_GL(T), and
    # keeps nothing
    lattice._reset_lattices()
    assert interval_restriction_check(spec, gl, sl_report) == after_gl
    assert counts.whole_tables >= 1 and (counts.intervals, counts.tori) == (1, 1)
    assert lattice._LATTICES == {}


@pytest.mark.parametrize("first", ["gl", "sl"])
def test_f2_pair_shares_one_stage(monkeypatch, first):
    # SL(n,2) = GL(n,2): the pair makes one torus, enumerates one [T, G] and
    # builds its normality graph once, whichever case runs first, whether or
    # not N(T) = G, and its reports are the cold per-case ones
    order = [first, {"gl": "sl", "sl": "gl"}[first]]
    counts = _Counts(monkeypatch)
    for degrees in [(1, 1, 1), (3,), (2, 1)]:
        cases = {ambient: CaseSpec(2, 1, degrees, ambient) for ambient in order}
        cold = {}
        for ambient, case in cases.items():
            lattice._reset_lattices()
            cold[ambient] = stable_json(run_case(case))
        lattice._reset_lattices()
        counts.reset()
        for ambient in order:
            assert stable_json(run_case(cases[ambient])) == cold[ambient], (degrees, ambient)
        pair = (counts.intervals, counts.tori, counts.whole_tables, counts.graphs)
        assert len(lattice._LATTICES) == 1 and next(iter(lattice._LATTICES.values())).graph is not None
        # the pair builds the whole-ambient tables of the first case alone
        # (those of one [T, G] enumeration) and nothing for the restriction
        lattice._reset_lattices()
        counts.reset()
        run_case(cases[first])
        assert pair == (1, 1, counts.whole_tables, 1), degrees
    # independent of the memo and of intersect_with_ambient: GL's [T, G]
    # enumerated over the GL object and cut to determinant one by matrix
    # keys is the SL report's interval
    monkeypatch.undo()
    spec = AlgebraSpec(construct_field(2, 1), [1, 1, 1])
    gl, sl = ambient_group(GL, 3, spec.base), ambient_group(SL, 3, spec.base)
    sl_report = verify_lower_garland(spec, sl)
    lattice._reset_lattices()
    gl_lat = enumerate_interval(torus_subgroup(spec, gl), gl)
    assert gl_lat.ambient is gl and len(gl_lat) == 179
    keys = gl.keys_of_indices(np.arange(gl.order, dtype=np.int32))
    det_one = {int(k) for k in keys if matrix_det(matrix_from_key(spec.base, 3, int(k))) == 1}
    cut = {frozenset(map(int, gl.keys_of_indices(h.indices))) & det_one for h in gl_lat.members}
    assert cut == {frozenset(map(int, sl.keys_of_indices(h.indices))) for h in sl_report.interval_members}


@pytest.mark.parametrize("n,degrees", [(2, [2]), (2, [1, 1]), (3, [1, 1, 1]), (3, [2, 1])])
def test_f2_reports_name_their_own_ambient(monkeypatch, n, degrees):
    # SL(n,2) = GL(n,2) share one [T, G], enumerated in whichever ambient
    # object ran first; each report's T, N(T) and interval members are in
    # its own case's ambient, keep their generators and ids, and the
    # restriction check still reads the shared lattice
    spec = AlgebraSpec(F2, degrees)
    gl, sl = ambient_group(GL, n, F2), ambient_group(SL, n, F2)
    for order in ((gl, sl), (sl, gl)):
        lattice._reset_lattices()
        reports = {amb.kind: verify_lower_garland(spec, amb) for amb in order}
        (lat,) = lattice._LATTICES.values()
        assert lat.ambient is order[0]
        for amb in (gl, sl):
            report = reports[amb.kind]
            held = [report.torus, report.normalizer, *report.interval_members]
            assert all(h.ambient is amb for h in held), (amb, order[0])
            assert report.torus.generators == lat.bottom.generators
            assert report.normalizer.same_elements(lat.normalizers[0])
            assert sorted(h.id for h in report.interval_members) == report.doc["garland"]["interval"]
        counts = _Counts(monkeypatch)
        assert interval_restriction_check(spec, gl, reports[SL])["equal"]
        assert (counts.intervals, counts.tori, counts.whole_tables) == (0, 0, 0)
        monkeypatch.undo()


def test_ambients_are_equal_exactly_when_their_element_sets_are():
    for n in (1, 2, 3):
        gl, sl = ambient_group(GL, n, F2), ambient_group(SL, n, F2)
        assert gl is not sl and gl == sl and hash(gl) == hash(sl)
        assert np.array_equal(gl.mats(), sl.mats())
        # cutting a subgroup down to an equal ambient keeps it as it is
        whole = Subgroup(gl, np.arange(gl.order))
        assert intersect_with_ambient(whole, sl) is whole
    for base in (F3, construct_field(2, 2)):
        for n in (1, 2):
            gl, sl = ambient_group(GL, n, base), ambient_group(SL, n, base)
            assert gl != sl
            cut = intersect_with_ambient(Subgroup(gl, np.arange(gl.order)), sl)
            assert cut.ambient is sl and cut.order == sl.order
    # over F_3 the pair keeps a lattice per ambient
    for ambient in ("gl", "sl"):
        run_case(CaseSpec(3, 1, (2, 1), ambient))
    assert [amb.kind for amb, _ in lattice._LATTICES] == [GL, SL]
    # the SL side is checked on the report's case, whose subgroups are in the SL ambient even over F_2
    for base in (F2, F3):
        spec = AlgebraSpec(base, [2])
        gl = ambient_group(GL, 2, base)
        gl_report = verify_lower_garland(spec, gl)
        with pytest.raises(LatticeError):
            interval_restriction_check(spec, gl, gl_report)
        sl_report = verify_lower_garland(spec, ambient_group(SL, 2, base))
        with pytest.raises(LatticeError):
            interval_restriction_check(spec, ambient_group(GL, 3, base), sl_report)
        assert interval_restriction_check(spec, gl, sl_report)["equal"]


def test_stage_memo_keeps_no_ambient_sized_memo():
    # no subgroup the lattice memo holds keeps an array or a dict other than
    # its indices: no positions or right permutations, whose arrays are as
    # long as the ambient
    for algebra, caps in PIPELINE_PAIRS[:2]:
        for ambient in ("sl", "gl"):
            run_case(CaseSpec(*algebra, ambient), caps)
    # GL(3,2) = SL(3,2), so that pair shares one lattice
    assert len(lattice._LATTICES) == 3
    held = [h for lat in lattice._LATTICES.values() for h in (lat.top, *lat.members, *lat.normalizers)]
    kept = [getattr(h, slot) for h in held for slot in type(h).__slots__ if slot != "indices"]
    assert not [v for v in kept if isinstance(v, (np.ndarray, dict))]
    # each kept lattice keeps its normality graph, which holds member ids only
    graphs = [lat.graph for lat in lattice._LATTICES.values()]
    assert sorted(len(g.vertices) for g in graphs) == sorted(len(lat) for lat in lattice._LATTICES.values())
    assert 179 in [len(g.vertices) for g in graphs]
    assert all(isinstance(x, str) for g in graphs for x in (*g.vertices, *sum(g.edges, ()), g.bottom_id, g.top_id))


def test_verdict_classification(monkeypatch):
    from garlands import runner
    from garlands.lattice import UNEXPECTED_MISMATCH, _verdict, overall_verdict

    assert _verdict(True, must=True) == CONFIRMED
    assert _verdict(True, must=False) == CONFIRMED
    assert _verdict(False, must=False) == EXPECTED_COUNTEREXAMPLE
    assert _verdict(False, must=True) == UNEXPECTED_MISMATCH

    # the overall verdict is the gravest: unexpected > expected > confirmed, whatever the order
    verdicts = (CONFIRMED, EXPECTED_COUNTEREXAMPLE, UNEXPECTED_MISMATCH)
    for a in verdicts:
        for b in verdicts:
            assert overall_verdict([a, b]) == max(a, b, key=verdicts.index)
    assert overall_verdict([]) == CONFIRMED
    assert overall_verdict([CONFIRMED, None]) == CONFIRMED  # a skipped restriction has no verdict

    # run_case merges the restriction's verdict by the same rule: SL(2,2) with degrees 2
    # confirms every check of its own, so a counterexample in the restriction alone decides
    case = CaseSpec(2, 1, (2,), "sl")
    assert run_case(case)["overall"] == CONFIRMED
    for verdict in (EXPECTED_COUNTEREXAMPLE, UNEXPECTED_MISMATCH):
        monkeypatch.setattr(runner, "interval_restriction_check", lambda *args, _v=verdict: {"verdict": _v})
        doc = run_case(case)
        assert doc["verdicts"] == dict.fromkeys(doc["verdicts"], CONFIRMED)
        assert doc["restriction"]["verdict"] == verdict and doc["overall"] == verdict


def test_report_to_dict_is_stable():
    rep = verify_lower_garland(AlgebraSpec(F3, [2]), ambient_group(GL, 2, F3))
    d1 = rep.to_dict()
    d2 = verify_lower_garland(AlgebraSpec(F3, [2]), ambient_group(GL, 2, F3)).to_dict()
    assert d1 == d2
    assert "timings" not in str(sorted(d1))


def test_run_case_adds_its_keys_to_a_copy_of_the_report(monkeypatch):
    # run_case adds schema, status, torus and restriction and merges the
    # overall verdict on what to_dict returns; the report's own document
    # keeps none of that
    from garlands import runner

    reports = []
    verify = runner.verify_lower_garland
    monkeypatch.setattr(runner, "verify_lower_garland", lambda *args: reports.append(verify(*args)) or reports[-1])
    for ambient in ("gl", "sl"):
        doc = run_case(CaseSpec(3, 1, (1, 1), ambient))
        added = {"schema", "status", "torus"} | ({"restriction"} if ambient == "sl" else set())
        assert set(doc) - set(reports[-1].doc) == added and not added & set(reports[-1].doc)
        assert reports[-1].doc == verify(AlgebraSpec(F3, [1, 1]), reports[-1].torus.ambient).doc
