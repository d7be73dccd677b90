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
from garlands.runner import CaseSpec, run_case, stable_json

from oracles import matrix_det, matrix_from_key, normality_edges_by_pairs

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
    rep = verify_lower_garland(AlgebraSpec(F3, [2]), ambient_group(GL, 2, F3))
    assert rep.equal
    assert rep.formula_equals_brute
    assert rep.idempotent_normalizer
    assert rep.overall == CONFIRMED
    assert rep.interval == rep.lower_garland


def test_verify_f3f3_gl23_expected_counterexample():
    rep = verify_lower_garland(AlgebraSpec(F3, [1, 1]), ambient_group(GL, 2, F3))
    assert not rep.equal
    assert [w["order"] for w in rep.extra_members] == [16]
    assert rep.overall == EXPECTED_COUNTEREXAMPLE
    assert len(rep.interval) == 2


def test_verify_f3f3_sl23_formula_mismatch():
    rep = verify_lower_garland(AlgebraSpec(F3, [1, 1]), ambient_group(SL, 2, F3))
    assert not rep.hypotheses["norm_one_span"]
    assert not rep.formula_equals_brute
    assert rep.normalizer_formula_order == 4
    assert rep.normalizer_brute_order == 24
    assert rep.overall == EXPECTED_COUNTEREXAMPLE


def test_formula_closure_failure_is_reported(monkeypatch):
    # with a shear standing in for the nontrivial automorphism of F_9 / F_3,
    # the predicted set {t(a) P} is not closed: the report records the
    # failure and the formula verdict instead of raising
    shapes = ([[1, 0], [0, 1]], [[1, 1], [0, 1]])
    stand_ins = [SimpleNamespace(matrix=lambda rows=rows: SimpleNamespace(rows=rows)) for rows in shapes]
    monkeypatch.setattr(matrix_group, "aut_group", lambda spec: stand_ins)
    spec = AlgebraSpec(F3, [2])
    for kind, set_size, closure_size in [(GL, 16, 48), (SL, 8, 24)]:
        rep = verify_lower_garland(spec, ambient_group(kind, 2, F3))
        failure = rep.formula_closure_failure
        assert failure["ambient"] == {"kind": kind, "n": 2, "q": 3}
        assert (failure["set_size"], failure["closure_size"]) == (set_size, closure_size)
        assert rep.normalizer_formula_order == 0
        assert not rep.formula_equals_brute
        assert rep.verdicts["normalizer_formula"] == "unexpected_mismatch"
        assert rep.to_dict()["normalizers"]["formula_closure_failure"] == failure


@pytest.mark.parametrize("kind", [GL, SL])
def test_normalizer_formula_closes_the_formula_set_once(monkeypatch, kind):
    # the generator pick's last closure decides whether the formula set is
    # closed: one closure per picked generator and none after
    calls = []
    closure = matrix_group._closure
    monkeypatch.setattr(matrix_group, "_closure", lambda amb, gens: calls.append(list(gens)) or closure(amb, gens))
    for spec in (AlgebraSpec(F3, [2]), AlgebraSpec(F3, [1, 1]), AlgebraSpec(F2, [2, 1])):
        calls.clear()
        n = matrix_group.normalizer_formula(spec, ambient_group(kind, spec.n, spec.base))
        gens = n.generators
        assert gens and calls == [gens[:i] for i in range(1, len(gens) + 1)], spec


def test_interval_always_inside_lower_garland():
    for base, degs, kind in [(F3, [2], GL), (F3, [1, 1], GL), (F3, [2], SL), (F2, [2, 1], GL)]:
        spec = AlgebraSpec(base, degs)
        rep = verify_lower_garland(spec, ambient_group(kind, spec.n, base))
        assert set(rep.interval) <= set(rep.lower_garland)


def test_restriction_check_examples():
    def check(spec, gl, sl):
        return interval_restriction_check(spec, gl, verify_lower_garland(spec, sl))

    gl23 = ambient_group(GL, 2, F3)
    sl23 = ambient_group(SL, 2, F3)
    r = check(AlgebraSpec(F3, [2]), gl23, sl23)
    assert r.equal and r.intersection_identity_holds

    gl22 = ambient_group(GL, 2, F2)
    sl22 = ambient_group(SL, 2, F2)
    r = check(AlgebraSpec(F2, [2]), gl22, sl22)
    assert r.equal  # SL(2,2) = GL(2,2), degenerate equality

    r = check(AlgebraSpec(F3, [1, 1]), gl23, sl23)
    assert not r.intersection_identity_holds  # recorded, not asserted
    assert r.verdict == EXPECTED_COUNTEREXAMPLE


def test_lattice_conjugation_invariance():
    rng = np.random.default_rng(11)
    gl23 = ambient_group(GL, 2, F3)
    d = torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23)
    lat = enumerate_interval(d, gl23)
    graph = normality_graph(lat)
    for _ in range(3):
        g = int(rng.integers(gl23.order))
        ginv = int(gl23.inv_indices()[g])
        conj = Subgroup(gl23, gl23.rmul(gl23.lmul(g, d.indices), ginv))
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
    # a member K = <H, g> is generated by H's generators and g, so its table
    # builds left permutations only for the elements adjoined since T
    amb = ambient_group(GL, n, base)
    t = torus_subgroup(AlgebraSpec(base, degrees), amb)
    builders = {}  # member key -> the H whose table first closed it
    extend = lattice.extend_subgroups

    def recording_extend(table, gs):
        out = extend(table, gs)
        for k in out:
            builders.setdefault(k.indices.tobytes(), table.h)
        return out

    perm_sets = []  # every _orbit_minima call's permutations; a table's first call takes its left ones
    orbit_minima = matrix_group._orbit_minima

    def recording_minima(labels, perms):
        perm_sets.append(list(perms))
        return orbit_minima(labels, perms)

    monkeypatch.setattr(matrix_group, "_orbit_minima", recording_minima)
    tables = []  # (H, top, its left permutations)

    class RecordingTable(lattice.CosetTable):
        def __init__(self, h, top, below=None):
            start = len(perm_sets)
            super().__init__(h, top, below)
            tables.append((h, top, perm_sets[start]))

    monkeypatch.setattr(lattice, "extend_subgroups", recording_extend)
    monkeypatch.setattr(lattice, "CosetTable", RecordingTable)
    lat = enumerate_interval(t, amb)
    monkeypatch.undo()
    assert lat.exhaustive and len(tables) > 1
    assert tables[0][0] is t
    for h, top, left in tables[1:]:
        builder = builders[h.indices.tobytes()]
        gens = h.generators
        assert gens[:-1] == builder.generators and not builder.contains(gens[-1]), h.order
        assert np.array_equal(matrix_group._closure(amb, gens), h.indices), h.order
        adjoined = gens[len(t.generators) :]
        assert gens[: len(t.generators)] == t.generators
        assert not t.contains(adjoined).any() and 2 ** len(adjoined) <= h.order // t.order
        inverse = top.positions()[amb.inv_indices()[top.indices]]
        assert len(left) == len(adjoined), h.order
        for s, perm in zip(adjoined, left):
            assert np.array_equal(perm, inverse[top.right_perm(s)[inverse]])


@pytest.mark.parametrize("acting_order", [168, 24])
def test_conjugacy_orbits_match_conjugation_by_every_element(acting_order):
    # the level-batched orbit of each member of GL(3,2) 1,1,1's [T, G] under
    # N(T) = G, and under a smaller acting group whose orbits split, against
    # conjugating K by every element of the acting group
    gl32 = ambient_group(GL, 3, F2)
    t = torus_subgroup(AlgebraSpec(F2, [1, 1, 1]), gl32)
    lat = enumerate_interval(t, gl32)
    acting = next(n for n in lat.normalizers if n.order == acting_order)
    for k in lat.members:
        orbit = lattice._conjugacy_orbit(k, acting)
        by_all = {row.tobytes() for row in np.sort(gl32.conjugates(acting.indices, k.indices), axis=1)}
        assert {m.indices.tobytes() for m, _ in orbit} == by_all
        for m, a in orbit:
            assert acting.contains(a)
            assert np.array_equal(np.sort(gl32.conjugates([a], k.indices)[0]), m.indices)


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
        for name in ("lmul", "rmul"):
            product = getattr(AmbientGroup, name)
            monkeypatch.setattr(AmbientGroup, name, lambda *args, _f=product, _n=name: calls.append(_n) or _f(*args))
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
            assert nm.same_elements(_cut(normalizer_brute(amb, m), lat.top)), m.order
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
    assert interval_restriction_check(spec, gl, sl_report).to_dict() == after_gl.to_dict()
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
    # the SL side is checked on the report's case, since over F_2 its torus may live in the GL object
    for base in (F2, F3):
        spec = AlgebraSpec(base, [2])
        gl = ambient_group(GL, 2, base)
        gl_report = verify_lower_garland(spec, gl)
        with pytest.raises(LatticeError):
            interval_restriction_check(spec, gl, gl_report)
        sl_report = verify_lower_garland(spec, ambient_group(SL, 2, base))
        with pytest.raises(LatticeError):
            interval_restriction_check(spec, ambient_group(GL, 3, base), sl_report)
        assert interval_restriction_check(spec, gl, sl_report).equal


def test_stage_memo_keeps_no_ambient_sized_memo():
    # no subgroup the lattice memo holds keeps positions or right
    # permutations, whose arrays are as long as the ambient
    for algebra, caps in PIPELINE_PAIRS[:2]:
        for ambient in ("sl", "gl"):
            run_case(CaseSpec(*algebra, ambient), caps)
    # GL(3,2) = SL(3,2), so that pair shares one lattice
    assert len(lattice._LATTICES) == 3
    held = [h for lat in lattice._LATTICES.values() for h in (lat.top, *lat.members, *lat.normalizers)]
    assert all(h._positions is None and h._right == {} for h in held)
    # each kept lattice keeps its normality graph, which holds member ids only
    graphs = [lat.graph for lat in lattice._LATTICES.values()]
    assert sorted(len(g.vertices) for g in graphs) == sorted(len(lat) for lat in lattice._LATTICES.values())
    assert 179 in [len(g.vertices) for g in graphs]
    assert all(isinstance(x, str) for g in graphs for x in (*g.vertices, *sum(g.edges, ()), g.bottom_id, g.top_id))


def test_verdict_classification():
    from garlands.lattice import UNEXPECTED_MISMATCH, _verdict

    assert _verdict(True, must=True) == CONFIRMED
    assert _verdict(True, must=False) == CONFIRMED
    assert _verdict(False, must=False) == EXPECTED_COUNTEREXAMPLE
    assert _verdict(False, must=True) == UNEXPECTED_MISMATCH


def test_report_to_dict_is_stable():
    rep = verify_lower_garland(AlgebraSpec(F3, [2]), ambient_group(GL, 2, F3))
    d1 = rep.to_dict()
    d2 = verify_lower_garland(AlgebraSpec(F3, [2]), ambient_group(GL, 2, F3)).to_dict()
    assert d1 == d2
    assert "timings" not in str(sorted(d1))
