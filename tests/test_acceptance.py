"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

All checks are exact.  The verification sweep covers every algebra over
F_q, q in {2, 3, 4, 5}, with matrix size n in {2, 3} and ambient order
within the 20000 cap, in both GL and SL ambients.  Expected values are
frozen from independent oracles: brute-force scans inside the package's own
reports are cross-checked here against hand-derived group orders, an
exhaustive Pell search, and an external Diophantine solver.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from garlands.config import Caps
from garlands.etale import (
    AlgebraSpec,
    count_power_in_base,
    primitive_norm_one_search,
)
from garlands.finite_field import construct_extension, construct_field, extension_of
from garlands.lattice import enumerate_interval, formula_expected, garland_expected, garlands, normality_graph
from garlands import lattice, matrix_group
from garlands.matrix_group import (
    GL,
    SL,
    CosetTable,
    Subgroup,
    ambient_group,
    intersect_with_ambient,
    normalizer_brute,
    normalizer_formula,
    torus_subgroup,
)
from garlands.pell import is_squarefree, negative_pell, sl2q_normalizer_report
from garlands.runner import run_case, stable_json, sweep_cases

from oracles import (
    aut_group_size,
    centralizer_brute,
    count_power_in_base_by_shifts,
    exhaustive_negative_pell,
    formula_by_units,
    formula_leaders_by_units,
    garlands_by_union_find,
    generate,
    interval_by_elements,
    matrix_at,
    matrix_from_coeff_rows,
    normality_edges_by_pairs,
    span_check_by_elimination,
    subgroup_count_of_aut,
    subgroup_id,
    torus_by_units,
    with_generators,
)

# one stable_json line per run_sweep(500) report; a change that alters a
# report regenerates it in the same change and bumps SCHEMA_VERSION
GOLDEN_SWEEP_500 = Path(__file__).resolve().parent / "golden" / "sweep_500.jsonl"


# the five swept cases where the lower garland is strictly larger than the
# interval up to the normalizer; all lie outside the guaranteed regime
# (q < 13 or characteristic 2/3) and the split algebras over F_3 are the
# predicted counterexample family
GARLAND_FAILURES = {
    (3, 2, (2,), "sl"),
    (3, 2, (1, 1), "gl"),
    (3, 3, (1, 1, 1), "gl"),
    (3, 3, (1, 1, 1), "sl"),
    (5, 2, (1, 1), "sl"),
}

# normalizer-of-normalizer growth, with the exact orders observed
IDEMPOTENCE_FAILURES = {
    (3, 2, (2,), "sl"): (8, 24),
    (3, 2, (1, 1), "gl"): (8, 16),
    (5, 2, (1, 1), "sl"): (8, 24),
}


@pytest.fixture(scope="session")
def sweep():
    """Reports for the full acceptance sweep, keyed by (q, n, degrees, ambient)."""
    reports = {}
    for case in sweep_cases(5**3):  # q^n <= 125 covers q in {2..5}, n in {2, 3}
        if case.q > 5 or case.n > 3:
            continue
        reports[case.sort_key()] = run_case(case)
    return reports


def _ok(reports):
    return {k: d for k, d in reports.items() if d.get("status") == "ok"}


def test_c01_normalizer_formula_vs_brute_oracle(sweep):
    ok = _ok(sweep)
    assert len(ok) >= 24
    checked = 0
    for key, doc in ok.items():
        hyp = doc["hypotheses"]
        nrm = doc["normalizers"]
        spans = hyp["units_span"] and (key[3] == "gl" or hyp["norm_one_span"])
        if spans:
            assert nrm["formula_equals_brute"], key
            checked += 1
        if not spans:
            # the exclusions are substantive: the description really fails there
            if key in {(2, 2, (1, 1), "gl"), (2, 2, (1, 1), "sl")}:
                assert not hyp["units_span"]
                assert nrm["formula_order"] == 2 and nrm["brute_order"] == 6
    assert checked >= 18

    # spot values, straight from the brute oracle
    f3 = construct_field(3, 1)
    gl23 = ambient_group(GL, 2, f3)
    singer = torus_subgroup(AlgebraSpec(f3, [2]), gl23)
    assert normalizer_brute(gl23, singer).order == 16
    diag = torus_subgroup(AlgebraSpec(f3, [1, 1]), gl23)
    assert normalizer_brute(gl23, diag).order == 8
    print(f"\n[criterion 1] PASS: formula == brute on {checked} hypothesis-satisfying cases; "
          "spot values |N(Singer_8)| = 16, |N(D(2,3))| = 8")


def test_c02_predicted_failure_f3f3_sl23(sweep):
    doc = sweep[(3, 2, (1, 1), "sl")]
    assert doc["hypotheses"]["norm_one_span"] is False
    spec = AlgebraSpec(construct_field(3, 1), [1, 1])
    span = span_check_by_elimination(spec)[1]
    assert span.spans is False and span.rank == 1
    nrm = doc["normalizers"]
    assert nrm["formula_order"] == 4
    assert nrm["brute_order"] == 24
    assert nrm["formula_equals_brute"] is False
    print("\n[criterion 2] PASS: F3+F3 in SL(2,3): norm-one span fails and formula (4) != brute (24)")


def test_c03_lower_garland_interval_conformance(sweep):
    ok = _ok(sweep)
    failures = set()
    for key, doc in ok.items():
        hyp = doc["hypotheses"]
        equal = doc["garland"]["equal"]
        spans = hyp["units_span"] and (key[3] == "gl" or hyp["norm_one_span"])
        guaranteed = spans and hyp["large_field_regime"]
        if guaranteed:
            assert equal, key
        if not equal:
            failures.add(key)
            # every counterexample fails a recorded hypothesis
            assert not guaranteed, key
    # the failure set is exactly the frozen one; everything else conforms
    assert failures == GARLAND_FAILURES
    for key in failures:
        assert not ok[key]["hypotheses"]["large_field_regime"], key
    # pinned positive cases (independently derived group orders)
    assert ok[(3, 2, (2,), "gl")]["garland"]["equal"] is True
    assert ok[(5, 2, (2,), "sl")]["garland"]["equal"] is True
    assert ok[(3, 3, (3,), "gl")]["garland"]["equal"] is True
    assert ok[(3, 3, (3,), "sl")]["garland"]["equal"] is True
    assert ok[(3, 3, (2, 1), "gl")]["garland"]["equal"] is True
    assert ok[(3, 3, (2, 1), "sl")]["garland"]["equal"] is True
    conforming = len(ok) - len(failures)
    print(f"\n[criterion 3] PASS: lower garland == interval on {conforming}/{len(ok)} cases; "
          f"all {len(failures)} strict containments lie outside the guaranteed regime "
          "(q < 13 or characteristic 2, 3)")


def test_c04_predicted_garland_counterexample_f3f3_gl23(sweep):
    doc = sweep[(3, 2, (1, 1), "gl")]
    g = doc["garland"]
    assert len(g["interval"]) == 2  # D(2,3) and its normalizer only
    assert g["equal"] is False
    assert set(g["interval"]) < set(g["lower"])
    assert [w["order"] for w in g["extra_members"]] == [16]
    assert doc["normalizers"]["brute_order"] == 8
    assert doc["overall"] == "expected_counterexample"
    print("\n[criterion 4] PASS: F3+F3 in GL(2,3): interval = {D, N(D)} (2 members), "
          "lower garland adds one member of order 16")


def test_c05_normalizer_idempotence(sweep):
    ok = _ok(sweep)
    growth = {}
    for key, doc in ok.items():
        idem = doc["idempotence"]
        hyp = doc["hypotheses"]
        spans = hyp["units_span"] and (key[3] == "gl" or hyp["norm_one_span"])
        if spans and hyp["large_field_regime"]:
            assert idem["holds"], key
        if not idem["holds"]:
            growth[key] = (doc["normalizers"]["brute_order"], idem["normalizer_of_normalizer_order"])
    # idempotence holds everywhere except the three small-field cases below,
    # where the normalizer genuinely grows (orders hand-verified: the torus
    # normalizer is a 2-group properly normalized inside a larger subgroup)
    assert growth == IDEMPOTENCE_FAILURES
    stable = len(ok) - len(growth)
    print(f"\n[criterion 5] PASS: N(N(T')) == N(T') on {stable}/{len(ok)} cases; "
          f"the {len(growth)} small-field exceptions grow exactly as derived: "
          + ", ".join(f"{k}: {a}->{b}" for k, (a, b) in sorted(growth.items())))


def test_c06_sl_restriction(sweep):
    ok = _ok(sweep)
    checked = 0
    for key, doc in ok.items():
        if key[3] != "sl":
            continue
        r = doc.get("restriction")
        assert r is not None and "equal" in r, key
        if key != (3, 2, (1, 1), "sl"):
            # the intersection identity is claimed for every S except F3+F3
            assert r["intersection_identity_holds"], key
        if r["intersection_identity_holds"]:
            assert r["equal"], key
            checked += 1
        else:
            assert key == (3, 2, (1, 1), "sl")  # recorded, not asserted
    assert checked >= 12
    print(f"\n[criterion 6] PASS: cutting Lat(T, N_GL T) to SL gives Lat(T', N_SL T') "
          f"on {checked} cases; the single identity failure is F3+F3 (recorded)")


@pytest.fixture(scope="session")
def tori(sweep):
    """(ambient, T, N(T)) of every ok sweep case."""
    out = {}
    for key, doc in _ok(sweep).items():
        case = doc["case"]
        base = construct_field(case["p"], case["base_degree"])
        spec = AlgebraSpec(base, case["degrees"])
        amb = ambient_group(GL if key[3] == "gl" else SL, spec.n, base)
        torus = torus_subgroup(spec, amb)
        out[key] = (amb, torus, normalizer_brute(amb, torus))
    return out


@pytest.fixture(scope="session")
def direct_intervals(tori):
    """Lat(T, N(T)) of every ok sweep case, enumerated inside N(T) directly."""
    return {key: enumerate_interval(torus, amb, within=n) for key, (amb, torus, n) in tori.items()}


# (kind, p, base degree) of every large-q shape whose GL(2, q) or SL(2, q)
# fits a 30,000 cap: odd q has det P_sigma = -1 (a factor swap, or the
# Frobenius of a quadratic factor), and q = 9, 16 have Frobenius blocks over
# an extension base
LARGE_Q_AMBIENTS = [(GL, 3, 2), (GL, 11, 1), (GL, 13, 1)] + [(SL, p, m) for p, m in ((3, 2), (11, 1), (13, 1), (2, 4), (19, 1))]


def test_torus_and_formula_match_per_unit_oracle(sweep, tori):
    # the index-array route against one FieldMatrix product, determinant and
    # lookup per unit: T, the formula set built from T, and its generators,
    # T's and one x_sigma per sigma other than 1, the first t(a) P_sigma in
    # the ambient in unit order
    cases = []
    for key, (amb, torus, _) in tori.items():
        case = sweep[key]["case"]
        cases.append((AlgebraSpec(construct_field(case["p"], case["base_degree"]), case["degrees"]), amb, torus))
    large = Caps(group_order=30_000)
    for kind, p, m in LARGE_Q_AMBIENTS:
        base = construct_field(p, m)
        amb = ambient_group(kind, 2, base, large)
        for degrees in ((2,), (1, 1)):
            spec = AlgebraSpec(base, degrees)
            cases.append((spec, amb, torus_subgroup(spec, amb)))
    for spec, amb, torus in cases:
        assert np.array_equal(torus.indices, torus_by_units(spec, amb)), (amb, spec)
        formula = normalizer_formula(spec, torus)
        assert np.array_equal(formula.indices, formula_by_units(spec, amb)), (amb, spec)
        leaders = [x for x in formula_leaders_by_units(spec, amb) if x != amb.identity_index]
        assert formula.generators == torus.generators + leaders, (amb, spec)
    assert len(cases) >= 24 + 16


def test_constructed_generators_close_to_the_torus_and_formula_set(tori):
    # T's generators come from the algebra (a primitive element per factor,
    # and norm-one combinations of them in SL) and X's add one t(a) P_sigma
    # per sigma; each list closes, through the oracle's closure, to exactly
    # the per-unit torus and formula set, with no identity among them, and
    # over F_2 (SL = GL) the two torus lists agree
    f13, large = construct_field(13, 1), Caps(group_order=30_000)  # GL(2,13) has order 26208
    cases = [(amb, AlgebraSpec(amb.field, key[2])) for key, (amb, _, _) in tori.items()]
    for degrees in ((2,), (1, 1)):
        for kind in (GL, SL):
            cases.append((ambient_group(kind, 2, f13, large), AlgebraSpec(f13, degrees)))
    lists = {}
    for amb, spec in cases:
        torus = torus_subgroup(spec, amb)
        formula = normalizer_formula(spec, torus)
        for sub, want in ((torus, torus_by_units(spec, amb)), (formula, formula_by_units(spec, amb))):
            assert amb.identity_index not in sub.generators, (amb, spec)
            closed = generate(amb, [matrix_at(amb, g) for g in sub.generators])
            assert np.array_equal(closed.indices, want), (amb, spec)
        lists[amb.kind, spec] = amb.keys_of_indices(torus.generators).tolist()
    f2 = [spec for kind, spec in lists if kind == GL and spec.base.q == 2]
    assert f2 and all(lists[GL, spec] == lists[SL, spec] for spec in f2)
    assert len(cases) >= 28


def test_coset_table_label_routes_agree(tori, direct_intervals):
    # every member H of [T, G] and of [T, N(T)] gets the same table seeded
    # with T's, whose labels come by hooking H's generators outside T onto
    # T's cosets, as unseeded, whose labels come by doubling; the 24 ok
    # acceptance tori and GL/SL(2,13) with degrees 2 and 1,1
    f13, large = construct_field(13, 1), Caps(group_order=30_000)
    lattices = []
    for key, (amb, torus, _) in tori.items():
        lattices += [enumerate_interval(torus, amb), direct_intervals[key]]
    for degrees in ((2,), (1, 1)):
        for kind in (GL, SL):
            amb = ambient_group(kind, 2, f13, large)
            torus = torus_subgroup(AlgebraSpec(f13, degrees), amb)
            whole = enumerate_interval(torus, amb)
            lattices += [whole, enumerate_interval(torus, amb, within=whole.members[whole.normalizer_at[0]])]
    assert len(lattices) >= 2 * 28
    compared = 0
    for lat in lattices:
        top = lat.top
        below = CosetTable(lat.bottom, top)
        for m in lat.members:
            h = with_generators(m)
            seeded, unseeded = CosetTable(h, top, below), CosetTable(h, top)
            labels = (seeded.leaders[seeded.coset], unseeded.leaders[unseeded.coset])  # least position of each right coset
            assert np.array_equal(*labels), ("labels", m.order)
            for field in ("coset", "leaders", "double"):
                assert np.array_equal(getattr(seeded, field), getattr(unseeded, field)), (field, m.order)
            assert np.array_equal(seeded.double_coset_reps(), unseeded.double_coset_reps()), m.order
            assert np.array_equal(seeded.normalizer(), unseeded.normalizer()), m.order
            compared += 1
    assert compared > 100


def test_printed_torus_generators_regenerate_the_torus():
    # every generator list in the stored reports, read back from its
    # coefficient rows, closes to a group of the printed torus order
    checked = 0
    for path in (GOLDEN_SWEEP_500, GOLDEN_SWEEP_500.with_name("torus.jsonl")):
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            if "torus" not in doc:
                continue
            case = doc["case"]
            base = construct_field(case["p"], case["base_degree"])
            amb = ambient_group(case["ambient"].upper(), sum(case["degrees"]), base)
            gens = [matrix_from_coeff_rows(base, rows) for rows in doc["torus"]["generators"]]
            assert generate(amb, gens).order == doc["torus"]["order"], case
            checked += 1
    assert checked == 54


def test_sl_interval_matches_direct_enumeration(sweep, direct_intervals):
    # an SL report cuts Lat(T', N_SL T') out of the full Lat(T', SL), and the
    # restriction check reuses it; enumerating the interval inside N_SL(T')
    # directly is the independent route
    checked = 0
    for key, doc in _ok(sweep).items():
        if key[3] != "sl":
            continue
        direct = direct_intervals[key]
        assert sorted(m.id for m in direct.members) == doc["garland"]["interval"], key
        assert doc["restriction"]["sl_interval_size"] == len(direct), key
        checked += 1
    assert checked >= 12


def test_interval_ids_match_matrix_key_digest(sweep, direct_intervals):
    # a report id is a digest of the member's matrix keys; recompute it from
    # matrix_key() of every element, independently of ambient indices
    checked = 0
    for key, doc in _ok(sweep).items():
        direct = direct_intervals[key]
        for m in direct.members:
            assert m.id == subgroup_id(m), (key, m.order)
        assert sorted(subgroup_id(m) for m in direct.members) == doc["garland"]["interval"], key
        checked += 1
    assert checked >= 24


def test_intervals_match_element_level_oracle(sweep, tori, direct_intervals):
    # enumerate_interval closes over cosets of H and expands one member per
    # N(T)-conjugacy class; the oracle walks every element for double cosets,
    # closes over elements seeded with H and expands every member
    for key, (amb, torus, normalizer) in tori.items():
        whole = Subgroup(amb, np.arange(amb.order, dtype=np.int32))
        full = enumerate_interval(torus, amb)
        assert {m.indices.tobytes() for m in full.members} == interval_by_elements(torus, whole), key
        assert len(full) == sweep[key]["lattice"]["member_count"], key
        oracle = interval_by_elements(torus, normalizer)
        direct = {m.indices.tobytes() for m in direct_intervals[key].members}
        assert direct == oracle, key
        # the report's interval, read off the normality graph, against the oracle's ids
        ids = sorted(subgroup_id(Subgroup(amb, np.frombuffer(b, dtype=np.int32))) for b in oracle)
        assert sweep[key]["garland"]["interval"] == ids, key
    assert len(tori) >= 24
    # trivial tori: every subgroup of GL(2,2) = S_3, and of GL(3,2) = PSL(2,7)
    assert sweep[(2, 2, (1, 1), "gl")]["lattice"]["member_count"] == 6
    assert sweep[(2, 3, (1, 1, 1), "gl")]["lattice"]["member_count"] == 179


def test_each_level_call_matches_one_call_per_table(monkeypatch, tori):
    # enumerate_interval closes one breadth-first level of representatives
    # per extend_level call; for each table of every such call, the batched
    # closures are the one-job call's on that table: the same closures, in
    # the same order, each with the same g.  Each closure stops past half of
    # its own table's right cosets, so the call makes exactly as many
    # products as its one-job calls together
    level, calls, made = lattice.extend_level, [], []
    product = matrix_group.RightProducts.__call__
    monkeypatch.setattr(
        matrix_group.RightProducts, "__call__", lambda self, idxs, *w: made.append(len(idxs)) or product(self, idxs, *w)
    )

    def checked_level(jobs):
        made.clear()
        out = level(jobs)
        batched = sum(made)
        made.clear()
        calls.append(len(jobs))
        assert len(out) == len(jobs)
        for (table, gs), closed in zip(jobs, out):
            alone = matrix_group.extend_level([(table, gs)])[0]
            assert [(elements.tobytes(), g) for elements, g in closed] == [(e.tobytes(), g) for e, g in alone]
        assert sum(made) == batched
        return out

    monkeypatch.setattr(lattice, "extend_level", checked_level)
    for key, (amb, torus, normalizer) in tori.items():
        for within in (None, normalizer):
            enumerate_interval(torus, amb, within=within)
    assert len(tori) >= 24 and max(calls) > 2  # several tables share a call


def test_orbits_match_conjugation_by_every_element_of_the_acting_group(monkeypatch, tori):
    # every orbit the enumeration takes, on [T, G] and [T, N(T)] of each ok
    # acceptance torus ([1, GL(3,2)] among them), against conjugating K by
    # every element of A = N_top(T) = N(T): the same members, and each
    # witness a gives its member as a K a^-1.  The orbit conjugates K by one
    # element per left coset of K & A in A outside K, read off K's table:
    # (|A| - |A & K|) / |A & K| conjugations.  Conjugating by every leader
    # of T's cosets, or by one per left coset of B = <T, K's generators in
    # A> (closed by the oracle), gives the same orbits, so only the count
    # tells them apart.  A & K is larger than B for 18 orbits here, all on
    # [T, G] of GL and SL(3,3) 1,1,1 (|A & K| = 16 and 8, |B| = |T|)
    orbit, conjugate, seen, made = lattice._conjugacy_orbit, lattice._Action.conjugate, [], []
    monkeypatch.setattr(
        lattice._Action, "conjugate", lambda self, at, idxs: made.append(np.unique(at).size) or conjugate(self, at, idxs)
    )

    def recording(table, action):
        made.clear()
        got = orbit(table, action)
        seen.append((table.h, got, sum(made)))
        return got

    monkeypatch.setattr(lattice, "_conjugacy_orbit", recording)
    fewer = wider = 0  # orbits with A & K larger than T, and than B; bottom and top take no orbit call
    for key, (amb, torus, normalizer) in tori.items():
        acting = normalizer.indices
        for within in (None, normalizer):
            seen.clear()
            enumerate_interval(torus, amb, within=within)
            for k, got, conjugated in seen:
                by_all = {row.tobytes() for row in np.sort(amb.conjugates(acting, k.indices), axis=1)}
                assert {m.indices.tobytes() for m, _ in got} == by_all, (key, k.order)
                for m, a in got:
                    assert np.array_equal(np.sort(amb.conjugates([a], k.indices)[0]), m.indices), (key, k.order)
                meet = int(k.contains(acting).sum())
                assert conjugated == (acting.size - meet) // meet, (key, k.order)
                in_a = [g for g in k.generators if acting[np.searchsorted(acting, g) % acting.size] == g]
                b = generate(amb, [matrix_at(amb, g) for g in [*torus.generators, *in_a]])
                fewer += meet > torus.order and acting.size > meet
                wider += meet > b.order and acting.size > meet
    assert len(tori) >= 24 and fewer > 0 and wider > 0


def test_normality_graph_matches_the_id_oracle(tori):
    # the graph held in member positions, on [T, G] and [T, N(T)] of each ok
    # acceptance torus, against normality edges by a subset test per pair of
    # members and a union-find over their ids: the edges, the garlands
    # (components, lower and upper), each component's label (its least
    # position), the lower garland and the interval [T, N(T)]
    for key, (amb, torus, normalizer) in tori.items():
        for within in (None, normalizer):
            lat = enumerate_interval(torus, amb, within=within)
            graph = normality_graph(lat)
            ids = [m.id for m in lat.members]
            edges = sorted(normality_edges_by_pairs(lat.members)[0])
            assert graph.edges == tuple(edges), key
            want = garlands_by_union_find(ids, edges, lat.bottom.id, lat.top.id)
            assert [(g.member_ids, g.is_lower, g.is_upper) for g in garlands(graph)] == want, key
            labels = graph.component.tolist()
            by_label = {}
            for i, label in enumerate(labels):
                by_label.setdefault(label, []).append(i)
            assert all(label == min(at) for label, at in by_label.items()), key
            assert sorted(tuple(sorted(ids[i] for i in at)) for at in by_label.values()) == sorted(g[0] for g in want)
            lower = next(g[0] for g in want if g[1])
            assert tuple(sorted(ids[i] for i in by_label[0])) == lower, key
            interval = {lat.bottom.id} | {b for a, b in edges if a == lat.bottom.id}
            assert [ids[i] for i in graph.interval.tolist()] == [i for i in ids if i in interval], key
    assert len(tori) >= 24


@pytest.mark.parametrize("budget", [168, 4096])
def test_extend_level_in_runs_under_a_small_budget(monkeypatch, tori, budget):
    # a block budget that cuts extend_level's closures into runs of a few
    # closures (one at a time on [1, GL(3,2)]'s first call at 168) and their
    # masks into blocks of a few rows: each call gives the closures of one
    # run under the default budget, in the same order with the same g, and
    # the enumeration the same members, normalizer positions and generators
    want = {}
    for key, (amb, torus, normalizer) in tori.items():
        for within in (None, normalizer):
            want[key, within is None] = enumerate_interval(torus, amb, within=within)
    level, split, default = lattice.extend_level, [], matrix_group._BLOCK_ENTRIES

    def recording_level(jobs):
        stride = max(table.dwidth.size for table, _ in jobs)
        split.append(sum(len(gs) for _, gs in jobs) > max(1, budget // stride))
        got = level(jobs)
        monkeypatch.setattr(matrix_group, "_BLOCK_ENTRIES", default)
        one_run = level(jobs)
        monkeypatch.setattr(matrix_group, "_BLOCK_ENTRIES", budget)
        assert [[(e.tobytes(), g) for e, g in job] for job in got] == [[(e.tobytes(), g) for e, g in job] for job in one_run]
        return got

    monkeypatch.setattr(lattice, "extend_level", recording_level)
    monkeypatch.setattr(matrix_group, "_BLOCK_ENTRIES", budget)
    for key, (amb, torus, normalizer) in tori.items():
        for within in (None, normalizer):
            got, old = enumerate_interval(torus, amb, within=within), want[key, within is None]
            assert [m.indices.tobytes() for m in got.members] == [m.indices.tobytes() for m in old.members], key
            assert np.array_equal(got.normalizer_at, old.normalizer_at), key
            assert [m._gens for m in got.members] == [m._gens for m in old.members], key
    assert any(split)


def test_idempotence_matches_second_brute_scan(sweep, tori):
    # the report reads N(N(T)) off the [T, G] lattice; a second whole-ambient
    # scan is the oracle
    for key, (amb, torus, normalizer) in tori.items():
        second = normalizer_brute(amb, with_generators(normalizer))
        idem = sweep[key]["idempotence"]
        assert idem["normalizer_of_normalizer_order"] == second.order, key
        assert idem["holds"] == second.same_elements(normalizer), key
    assert len(tori) >= 24


def test_rerouted_verdicts_match_conjugation_scans(sweep, tori):
    # a report's N(T), N_GL(T) and C(T) come from coset tables, directly or
    # through the SL lattice; the whole-ambient conjugation scans are the
    # oracle for every verdict they feed
    restricted = 0
    for key, (amb, torus, normalizer) in tori.items():
        doc = sweep[key]
        case = doc["case"]
        spec = AlgebraSpec(construct_field(case["p"], case["base_degree"]), case["degrees"])
        assert doc["normalizers"]["brute_order"] == normalizer.order, key
        formula_eq = normalizer_formula(spec, torus).same_elements(normalizer)
        assert doc["normalizers"]["formula_equals_brute"] == formula_eq, key
        assert doc["torus"]["maximal_abelian"] == centralizer_brute(amb, torus).same_elements(torus), key
        if key[3] == "sl" and "skipped" not in doc["restriction"]:
            gl = ambient_group(GL, spec.n, spec.base)
            n_gl = normalizer_brute(gl, torus_subgroup(spec, gl))
            identity = intersect_with_ambient(n_gl, amb).same_elements(normalizer)
            assert doc["restriction"]["intersection_identity_holds"] == identity, key
            restricted += 1
    assert len(tori) >= 24 and restricted >= 12


def test_c07_maximal_abelian(sweep):
    ok = _ok(sweep)
    checked_gl = checked_sl = 0
    for key, doc in ok.items():
        hyp = doc["hypotheses"]
        torus = doc["torus"]
        if key[3] == "gl":
            if hyp["units_span"]:
                assert torus["maximal_abelian"], key
                checked_gl += 1
        else:
            # the SL statement additionally needs the intersection premise:
            # F3+F3 has a central determinant-one torus, not maximal abelian
            if hyp["units_span"] and hyp["norm_one_absorbs_units"]:
                assert torus["maximal_abelian"], key
                checked_sl += 1
    assert ok[(3, 2, (1, 1), "sl")]["torus"]["maximal_abelian"] is False
    # and the unit-span exclusion is substantive: the trivial torus of F2+F2 is not
    assert ok[(2, 2, (1, 1), "gl")]["torus"]["maximal_abelian"] is False
    assert checked_gl >= 10 and checked_sl >= 10
    print(f"\n[criterion 7] PASS: torus maximal abelian (centralizer inside N(T)) on all "
          f"{checked_gl} unit-spanning GL cases and {checked_sl} SL cases with the "
          "intersection premise")


def _proper_extension_pairs(max_top: int):
    """(base (p, a), top (p, b)) with a | b, a < b, p^b <= max_top."""
    from garlands.finite_field import is_prime

    out = []
    p = 2
    while p * p <= max_top:
        if is_prime(p):
            b = 2
            while p**b <= max_top:
                for a in range(1, b):
                    if b % a == 0:
                        out.append((p, a, b))
                b += 1
        p += 1
    return out


def test_c08_power_in_base_bound():
    violations = 0
    swept = 0
    compared = 0
    for p, a, b in _proper_extension_pairs(2401):
        base = construct_field(p, a)
        top = construct_field(p, b)
        ext = extension_of(base, top)
        exponents = [N for N in (2, 3, 4, 5) if N % p != 0 and base.q > N]
        if not exponents:
            continue
        for idx in range(top.q):
            if ext.contains(idx):
                continue
            for N in exponents:
                count = count_power_in_base(base, top, idx, N)
                if swept % 97 == 0:  # a sample against the scalar loop over k
                    assert count == count_power_in_base_by_shifts(base, top, idx, N), (p, a, b, idx, N)
                    compared += 1
                if count > N:
                    violations += 1
                swept += 1
    assert violations == 0
    assert swept > 50_000
    assert compared > swept // 100
    print(f"\n[criterion 8] PASS: shifted-power count <= N on {swept} (x, N) pairs, zero violations")


def test_c09_norm_one_primitive_exists():
    count = 0
    for p, a, b in _proper_extension_pairs(2401):
        base = construct_field(p, a)
        top = construct_extension(base, b // a)
        ext = extension_of(base, top)
        w = primitive_norm_one_search(base, top)
        assert w is not None, (p, a, b)
        assert ext.rel_norm(w) == base.one_index
        assert ext.orbit_size(w) == ext.degree  # w generates K over k
        count += 1
    assert count >= 40
    print(f"\n[criterion 9] PASS: a norm-one primitive element exists in all {count} proper "
          "extensions with order <= 2401")


def test_c10_pell_conformance():
    # spot values against a pure exhaustive search (independent of the
    # continued-fraction implementation)
    for d, expected in [(2, (1, 1)), (5, (2, 1)), (13, (18, 5))]:
        sol = negative_pell(d)
        assert (sol.x, sol.y) == expected
        assert exhaustive_negative_pell(d, 10_000) == expected
    for d in (3, 7):
        assert negative_pell(d) is None
        assert exhaustive_negative_pell(d, 10_000) is None

    # full range d <= 1000 against an independent solver; exhausting y up to
    # the fundamental bound directly is infeasible for the largest solutions
    # (y ~ 1e5..1e15), so the solver supplies that bound's conclusion
    from sympy.solvers.diophantine.diophantine import diop_DN

    agree = 0
    for d in range(2, 1001):
        if not is_squarefree(d):
            continue
        sol = negative_pell(d)
        oracle = diop_DN(d, -1)
        if sol is None:
            assert oracle == [], d
        else:
            assert len(oracle) == 1 and (sol.x, sol.y) == tuple(oracle[0]), d
            assert sol.x * sol.x - d * sol.y * sol.y == -1
        agree += 1

    # the printed divisibility criterion disagrees at d = 34
    r = sl2q_normalizer_report(34).to_dict()
    assert r["criterion_predicts_solvable"] and not r["solvable"] and not r["criterion_agrees"]
    print(f"\n[criterion 10] PASS: continued-fraction verdicts agree with the independent "
          f"solver on {agree} squarefree d <= 1000; d = 34 criterion disagreement flagged")


def test_sweep_500_contract():
    # the corpus run the CLI exposes: every algebra with q^n <= 500, both
    # ambients, no unexpected mismatches anywhere
    from garlands.runner import run_sweep

    reports, summary = run_sweep(500)
    assert summary["cases"] >= 10
    assert summary["ok"] >= 40
    assert summary["unexpected_mismatches"] == 0
    skipped = [r for r in reports if r.get("status") == "skipped_cap"]
    assert skipped, "cap-guarded cases are reported, not dropped"
    # q = 13 SL fits the cap while GL does not: restriction is skipped cleanly
    sl13 = next(r for r in reports if r.get("status") == "ok" and r["case"]["q"] == 13)
    assert "skipped" in sl13["restriction"]
    # byte-identical to the stored reports, case by case
    golden = GOLDEN_SWEEP_500.read_text().splitlines()
    assert len(reports) == len(golden), f"{len(reports)} reports, golden file has {len(golden)}"
    for case, report, want in zip(sweep_cases(500), reports, golden):
        assert stable_json(report) == want, f"report differs from {GOLDEN_SWEEP_500.name} for {case.serialize()}"
    # the record holds only what a verdict reads, and the verdicts follow
    # from it alone: a failing check is unexpected exactly when the rule
    # says it must hold
    ok = [r for r in reports if r["status"] == "ok"]
    for doc in ok:
        hyp, kind = doc["hypotheses"], doc["case"]["ambient"].upper()
        assert set(hyp) == {"units_span", "norm_one_span", "norm_one_absorbs_units", "large_field_regime"}
        assert set(doc["idempotence"]) == {"holds", "normalizer_of_normalizer_order"}
        checks = {
            "normalizer_formula": (doc["normalizers"]["formula_equals_brute"], formula_expected(hyp, kind)),
            "lower_garland": (doc["garland"]["equal"], garland_expected(hyp, kind)),
            "idempotence": (doc["idempotence"]["holds"], garland_expected(hyp, kind)),
        }
        for name, (holds, must) in checks.items():
            want = "confirmed" if holds else "unexpected_mismatch" if must else "expected_counterexample"
            assert doc["verdicts"][name] == want, (doc["case"], name)
        # the restriction judges the identity against its premise, and the equality against the identity
        r = doc.get("restriction", {})
        if "verdict" in r:
            identity = r["intersection_identity_holds"]
            assert identity == hyp["norm_one_absorbs_units"], doc["case"]
            want = "confirmed" if r["equal"] else "unexpected_mismatch" if identity else "expected_counterexample"
            assert r["verdict"] == want, doc["case"]
    assert len(ok) == 52
    print(f"\n[sweep contract] PASS: {summary['cases']} cases "
          f"({summary['ok']} verified, {summary['skipped_cap']} over cap), "
          f"{summary['confirmed']} confirmed, "
          f"{summary['expected_counterexamples']} expected counterexamples, 0 unexpected")


def test_interval_is_sub_w_where_the_formula_holds():
    # where N(T) is the formula set, N(T)/T is W = Aut_k(S) = prod_d C_d wr S_(m_d),
    # so by the correspondence theorem [T, N(T)] has |Sub(W)| members and
    # |N(T)| = |T| |W|; W's subgroups are counted from the degrees alone
    from garlands.runner import run_sweep

    known = {(1, 1, 1): 6, (2, 2): 10, (1, 1, 1, 1): 30, (4,): 3}  # S_3, D_4, S_4, C_4
    assert {degrees: subgroup_count_of_aut(degrees) for degrees in known} == known
    reports, _ = run_sweep(500)
    checked = 0
    for doc in reports:
        if doc["status"] != "ok" or not doc["normalizers"]["formula_equals_brute"]:
            continue
        case = doc["case"]
        key = (case["q"], tuple(case["degrees"]), case["ambient"])
        spec = AlgebraSpec(construct_field(case["p"], case["base_degree"]), case["degrees"])
        assert len(doc["garland"]["interval"]) == subgroup_count_of_aut(tuple(case["degrees"])), key
        assert doc["normalizers"]["brute_order"] == doc["torus_order"] * aut_group_size(spec), key
        checked += 1
    assert checked == 47
    print(f"\n[W = Aut(S)] PASS: |[T, N(T)]| = |Sub(W)| and |N(T)| = |T| |W| on {checked} sweep-500 cases")
