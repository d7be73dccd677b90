import tracemalloc

import numpy as np
import pytest

from garlands import matrix_group
from garlands.config import Caps
from garlands.etale import AlgebraSpec
from garlands.finite_field import construct_field
from garlands.lattice import enumerate_interval
from garlands.matrix_group import (
    GL,
    SL,
    AmbientGroup,
    CosetTable,
    GroupCapError,
    GroupError,
    NonMemberError,
    NotAbelianError,
    RightProducts,
    Subgroup,
    _cycle_minima,
    _det,
    _inv_mats,
    _orbit_minima,
    ambient_group,
    extend_level,
    extend_subgroup,
    gl_order,
    intersect_with_ambient,
    is_maximal_abelian,
    is_normal_in,
    normalizer_brute,
    normalizer_formula,
    sl_order,
    torus_subgroup,
)

from oracles import (
    FieldMatrix,
    ambient_by_candidates,
    aut_group_size,
    centralizer_brute,
    double_coset_reps_by_elements,
    element_closure,
    formula_by_units,
    generate,
    hypotheses_by_elimination,
    index_of,
    laplace_det,
    matrix_at,
    matrix_det,
    matrix_from_coeff_rows,
    matrix_inverse,
    matrix_product,
    products_by_matrices,
    subgroup_id,
    subgroup_matrices,
    subgroup_serialize,
    torus_by_units,
    with_generators,
)

F2 = construct_field(2, 1)
F3 = construct_field(3, 1)
F4 = construct_field(2, 2)
F5 = construct_field(5, 1)
F9 = construct_field(3, 2)
F13 = construct_field(13, 1)
F16 = construct_field(2, 4)
WIDE = Caps(group_order=70_000)  # admits GL(2,13), GL(2,16) and GL(4,2)


def test_ambient_orders():
    assert ambient_group(GL, 2, F2).order == 6
    assert ambient_group(GL, 2, F3).order == 48
    assert ambient_group(SL, 2, F3).order == 24
    assert ambient_group(GL, 3, F2).order == 168
    assert gl_order(3, 3) == 11232
    assert sl_order(3, 3) == 5616


def test_ambient_cap():
    with pytest.raises(GroupCapError):
        AmbientGroup(GL, 4, F3)  # order ~ 2.4e10
    small = Caps(group_order=40)
    with pytest.raises(GroupCapError):
        AmbientGroup(GL, 2, F3, small)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (13, 1), (2, 2), (3, 2), (2, 4)])
def test_vectorized_det_inverse_match_field_matrix(p, m):
    # matrix_det / matrix_inverse (Laplace and Gauss-Jordan, one FieldMatrix
    # at a time) are the slow oracle for the memoized minors and the adjugate
    f = construct_field(p, m)
    rng = np.random.default_rng(p * 10 + m)
    for n in (1, 2, 3, 4):
        A = rng.integers(0, f.q, size=(40, n, n)).astype(np.int16)
        dets = _det(f, A)
        assert dets.tolist() == [matrix_det(FieldMatrix(f, a.tolist())) for a in A]
        assert np.array_equal(dets, laplace_det(f, A))
        invertible = A[dets != 0]
        assert len(invertible) > 0
        invs = _inv_mats(f, invertible)
        assert [FieldMatrix(f, x.tolist()) for x in invs] == [matrix_inverse(FieldMatrix(f, a.tolist())) for a in invertible]


@pytest.mark.parametrize(
    "n,base",
    [(2, F2), (3, F2), (2, F3), (3, F3), (2, F4), (3, F4), (2, F5), (3, F5), (1, F2), (1, F9), (2, F16), (4, F2)],
)
def test_row_by_row_enumeration_matches_every_candidate(n, base):
    # the cofactor build against the candidate-and-Laplace route, key for key
    # and row code for row code; F_2..F_5 with n <= 3 are the acceptance
    # sweep's fields, and GL/SL(3,4) and (3,5) need a raised cap
    for kind in (GL, SL):
        amb = AmbientGroup(kind, n, base, Caps(group_order=2_000_000))
        keys, rows = ambient_by_candidates(kind, n, base)
        amb._ensure()
        assert amb._keys.dtype == np.int64 and np.array_equal(amb._keys, keys), (kind, n, base.q)
        assert np.array_equal(amb._rows, rows), (kind, n, base.q)
        looked_up = amb.keys_of_mats(amb.mats())  # one int64 dot with the place values, against the candidates' keys
        assert looked_up.dtype == np.int64 and np.array_equal(looked_up, keys), (kind, n, base.q)


@pytest.mark.parametrize("base", [F2, F3, F4, F9, F13, F16])
def test_inverse_table_is_an_involution_that_inverts(base):
    # over every ambient inside WIDE: inv[inv[x]] = x, and the paired
    # products x * inv[x], by matrix multiplication, are all the identity
    seen = 0
    for n in (1, 2, 3, 4):
        for kind, order in ((GL, gl_order(n, base.q)), (SL, sl_order(n, base.q))):
            if order > WIDE.group_order:
                continue
            amb = ambient_group(kind, n, base, WIDE)
            every = np.arange(amb.order, dtype=np.int32)
            inv = amb.inv_indices()
            assert np.array_equal(inv[inv], every), (kind, n)
            assert (amb.rmul(every, inv) == amb.identity_index).all(), (kind, n)
            seen += 1
    assert seen >= 4


def test_enumeration_memory_follows_the_group_and_the_key_table():
    # SL(2,31) keeps 29,760 of 923,521 candidate matrices; what the build
    # holds at its peak is the group's arrays plus the dense key table
    # (4 bytes a candidate, 3.7 MB here), not a candidate array
    amb = AmbientGroup(SL, 2, construct_field(31, 1), WIDE)
    tracemalloc.start()
    try:
        amb._ensure()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert amb.order == 29_760
    assert peak <= 10 * 2**20, peak


def test_ambient_enumeration_is_consistent():
    for amb in (ambient_group(GL, 2, F4), ambient_group(SL, 2, F5)):
        mats = amb.mats()
        assert mats.shape[0] == amb.order
        # identity behaves
        e = amb.identity_index
        idxs = np.arange(amb.order, dtype=np.int32)
        assert (amb.rmul(idxs, e) == idxs).all()
        # inverses invert
        inv = amb.inv_indices()
        for i in (0, 1, amb.order - 1):
            assert int(amb.rmul(np.array([i], dtype=np.int32), int(inv[i]))[0]) == e


@pytest.mark.parametrize(
    "n,base", [(2, F2), (3, F2), (2, F4), (2, F9), (3, F3), (2, F13), (2, F16), (1, F9), (4, F2)]
)
def test_paired_products_match_field_matrix_products(n, base):
    amb = ambient_group(GL, n, base, WIDE)
    rng = np.random.default_rng(base.q * 10 + n)
    xs = rng.integers(amb.order, size=40).astype(np.int32)
    gs = rng.integers(amb.order, size=40).astype(np.int32)

    def mat(i):
        return matrix_at(amb, i)

    assert amb.rmul(xs, gs).tolist() == [index_of(amb, matrix_product(mat(x), mat(g))) for x, g in zip(xs, gs)]
    assert amb.lmul(gs, xs).tolist() == [index_of(amb, matrix_product(mat(g), mat(x))) for x, g in zip(xs, gs)]
    g = int(gs[0])  # one index multiplies every entry
    assert amb.rmul(xs, g).tolist() == [index_of(amb, matrix_product(mat(x), mat(g))) for x in xs]
    assert amb.lmul(g, xs).tolist() == [index_of(amb, matrix_product(mat(g), mat(x))) for x in xs]
    conj = amb.conjugates(gs[:3], xs)
    assert conj.shape == (3, xs.size)
    for row, s in zip(conj, gs[:3]):
        conj = [matrix_product(matrix_product(mat(s), mat(x)), matrix_inverse(mat(s))) for x in xs]
        assert row.tolist() == [index_of(amb, c) for c in conj]
    # one index gets a table of one factor, an index array a table of its
    # distinct values: over the whole ambient they agree
    every = np.arange(amb.order, dtype=np.int32)
    for g in gs[:3].tolist():
        assert np.array_equal(amb.rmul(every, g), amb.rmul(every, np.full(amb.order, g, dtype=np.int32)))


ORACLE_AMBIENTS = [
    (kind, n, base)
    for base in (F2, F3, F4, F9, F13)
    for n in (2, 3)
    for kind, order in ((GL, gl_order(n, base.q)), (SL, sl_order(n, base.q)))
    if order <= WIDE.group_order
]


@pytest.mark.parametrize("kind,n,base", ORACLE_AMBIENTS)
def test_products_match_the_matrix_oracle(kind, n, base):
    # RightProducts, and rmul, lmul and conjugation through it, against
    # per-element matrix products: tables with a repeated factor and the
    # identity, single-factor calls, and inverses by Gauss-Jordan
    amb = ambient_group(kind, n, base, WIDE)
    rng = np.random.default_rng(base.q * 10 + n)
    e = amb.identity_index
    xs = np.append(rng.integers(amb.order, size=60), e).astype(np.int32)
    a, b, c = rng.integers(amb.order, size=3).tolist()
    factors = np.array([a, e, b, a, c], dtype=np.int32)
    which = rng.integers(factors.size, size=xs.size).astype(np.int32)
    gs = factors[which]
    expect = products_by_matrices(amb, xs, gs)
    assert np.array_equal(RightProducts(amb, factors)(xs, which), expect)
    assert np.array_equal(amb.rmul(xs, gs), expect)
    assert np.array_equal(amb.lmul(gs, xs), products_by_matrices(amb, gs, xs))
    for g in (e, a):
        right = products_by_matrices(amb, xs, g)
        assert np.array_equal(RightProducts(amb, [g])(xs), right)
        assert np.array_equal(RightProducts(amb, factors)(xs, int(np.flatnonzero(factors == g)[-1])), right)
        assert np.array_equal(amb.rmul(xs, g), right)
        assert np.array_equal(amb.lmul(g, xs), products_by_matrices(amb, g, xs))
    inverses = np.array([index_of(amb, matrix_inverse(matrix_at(amb, int(g)))) for g in factors], dtype=np.int32)
    expect = products_by_matrices(amb, products_by_matrices(amb, gs, xs), inverses[which])
    assert np.array_equal(amb.conjugate_by(factors, which, xs), expect)
    conj = amb.conjugates(factors, xs)
    assert conj.shape == (factors.size, xs.size)
    for row, g, g_inv in zip(conj, factors, inverses):
        assert np.array_equal(row, products_by_matrices(amb, products_by_matrices(amb, g, xs), g_inv))


@pytest.mark.parametrize("n,base", [(1, F9), (2, F3), (2, F4), (3, F2), (3, F3), (4, F2)])
def test_row_codes_are_the_key_digits(n, base):
    # row i's code is base-q^n digit n-1-i of the key, and the row vectors run in code order
    for kind in (GL, SL):
        amb = ambient_group(kind, n, base, WIDE)
        keys = amb.keys_of_indices(np.arange(amb.order))
        qn = base.q**n
        assert amb._rows.shape == (n, amb.order) and amb._rows.dtype == np.int32
        for i in range(n):
            assert np.array_equal(amb._rows[i], keys // qn ** (n - 1 - i) % qn), (kind, i)
        assert np.array_equal(amb._rowvecs.reshape(qn, n) @ amb._keypow[-n:], np.arange(qn))


def test_generate_examples():
    gl23 = ambient_group(GL, 2, F3)
    assert generate(gl23, []).order == 1
    assert generate(gl23, [FieldMatrix(F3, [[2, 0], [0, 2]])]).order == 2
    gl22 = ambient_group(GL, 2, F2)
    assert generate(gl22, [FieldMatrix(F2, [[0, 1], [1, 1]])]).order == 3


def test_generate_rejects_non_members():
    gl23 = ambient_group(GL, 2, F3)
    with pytest.raises(NonMemberError):
        generate(gl23, [FieldMatrix(F3, [[1, 0], [0, 0]])])  # singular
    sl23 = ambient_group(SL, 2, F3)
    with pytest.raises(NonMemberError):
        generate(sl23, [FieldMatrix(F3, [[2, 0], [0, 1]])])  # det = 2


def test_generate_cap():
    gl23 = ambient_group(GL, 2, F3)
    with pytest.raises(GroupCapError) as err:
        generate(gl23, [matrix_at(gl23, i) for i in range(4)], max_size=10)
    assert err.value.order is not None and err.value.order > 10


def test_torus_orders():
    gl22 = ambient_group(GL, 2, F2)
    assert torus_subgroup(AlgebraSpec(F2, [2]), gl22).order == 3
    sl23 = ambient_group(SL, 2, F3)
    assert torus_subgroup(AlgebraSpec(F3, [2]), sl23).order == 4
    gl23 = ambient_group(GL, 2, F3)
    d23 = torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23)
    assert d23.order == 4
    assert all(m.rows[0][1] == 0 and m.rows[1][0] == 0 for m in subgroup_matrices(d23))


@pytest.mark.parametrize("kind", [GL, SL])
@pytest.mark.parametrize("degrees", [(2,), (1, 1)])
def test_torus_and_formula_match_per_unit_oracle_q13(kind, degrees):
    # the guaranteed regime, one step past the sweep's default cap
    f13 = construct_field(13, 1)
    spec = AlgebraSpec(f13, degrees)
    amb = ambient_group(kind, 2, f13, Caps(group_order=30_000))
    torus = torus_subgroup(spec, amb)
    assert np.array_equal(torus.indices, torus_by_units(spec, amb))
    assert np.array_equal(normalizer_formula(spec, torus).indices, formula_by_units(spec, amb))


def test_indices_of_mats_on_fresh_ambient():
    amb = AmbientGroup(GL, 2, F3)  # not enumerated yet
    ident = np.array([[[1, 0], [0, 1]]], dtype=np.int16)
    assert amb.indices_of_mats(ident).tolist() == [amb.identity_index]


@pytest.mark.parametrize("kind,n,base", [(GL, 3, F2), (SL, 2, F4), (GL, 2, F9), (GL, 1, F5)])
def test_ambient_is_built_in_one_step(monkeypatch, kind, n, base):
    # mats() builds the inverse table with the ambient: after it, no
    # inverse, lmul or conjugation takes another inverse; the identity's
    # index is that of the one-on-the-diagonal matrix
    amb = AmbientGroup(kind, n, base)
    amb.mats()
    calls = []
    inv_mats = matrix_group._inv_mats
    monkeypatch.setattr(matrix_group, "_inv_mats", lambda *args: calls.append(len(args[1])) or inv_mats(*args))
    every = np.arange(amb.order, dtype=np.int32)
    inv = amb.inv_indices()
    assert (amb.rmul(every, inv) == amb.identity_index).all()
    amb.lmul(int(inv[-1]), every)
    amb.conjugates(every[:3], every)
    assert calls == []
    identity = np.full(n, base.one_index, dtype=np.int16) * np.eye(n, dtype=np.int16)
    assert np.array_equal(amb.mats()[amb.identity_index], identity)


def test_torus_sl_equals_gl_torus_cut_to_sl():
    for base, degs in [(F3, [2]), (F3, [1, 1]), (F5, [1, 1]), (F4, [2])]:
        spec = AlgebraSpec(base, degs)
        gl = ambient_group(GL, spec.n, base)
        sl = ambient_group(SL, spec.n, base)
        t_gl = torus_subgroup(spec, gl)
        t_sl = torus_subgroup(spec, sl)
        assert intersect_with_ambient(t_gl, sl).same_elements(t_sl)


def test_is_normal_examples():
    gl22 = ambient_group(GL, 2, F2)
    whole = with_generators(Subgroup(gl22, range(6)))
    assert is_normal_in(whole, whole)
    triv = generate(gl22, [])
    assert is_normal_in(triv, whole)
    singer = torus_subgroup(AlgebraSpec(F2, [2]), gl22)
    assert is_normal_in(singer, whole)  # index 2


def test_is_normal_requires_inclusion():
    gl23 = ambient_group(GL, 2, F3)
    a = generate(gl23, [FieldMatrix(F3, [[2, 0], [0, 2]])])
    b = generate(gl23, [FieldMatrix(F3, [[0, 2], [1, 0]])])
    from garlands.matrix_group import GroupError

    with pytest.raises(GroupError):
        is_normal_in(b, a)


def test_normalizer_brute_spot_values():
    gl23 = ambient_group(GL, 2, F3)
    whole = with_generators(Subgroup(gl23, range(gl23.order)))
    assert normalizer_brute(gl23, whole).order == 48
    d23 = torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23)
    assert normalizer_brute(gl23, d23).order == 8  # monomial group
    singer = torus_subgroup(AlgebraSpec(F3, [2]), gl23)
    assert normalizer_brute(gl23, singer).order == 16  # 8 * |Aut(F9/F3)|


def test_normalizer_contains_subgroup():
    gl23 = ambient_group(GL, 2, F3)
    for degs in ([2], [1, 1]):
        t = torus_subgroup(AlgebraSpec(F3, degs), gl23)
        n = normalizer_brute(gl23, t)
        assert t.is_subset_of(n)


def test_normalizer_formula_examples():
    def formula(spec, amb):
        return normalizer_formula(spec, torus_subgroup(spec, amb))

    gl23 = ambient_group(GL, 2, F3)
    assert formula(AlgebraSpec(F3, [2]), gl23).order == 16
    assert formula(AlgebraSpec(F3, [1, 1]), gl23).order == 8
    gl22 = ambient_group(GL, 2, F2)
    assert formula(AlgebraSpec(F2, [2]), gl22).order == 6  # the whole group


def test_normalizer_formula_subset_of_brute_always():
    cases = [(F2, [2]), (F2, [1, 1]), (F3, [2]), (F3, [1, 1]), (F4, [2]), (F4, [1, 1]), (F5, [2]), (F5, [1, 1])]
    for base, degs in cases:
        spec = AlgebraSpec(base, degs)
        for kind in (GL, SL):
            amb = ambient_group(kind, spec.n, base)
            torus = torus_subgroup(spec, amb)
            formula = normalizer_formula(spec, torus)
            brute = normalizer_brute(amb, torus)
            assert formula.is_subset_of(brute), (base.q, degs, kind)


def test_normalizer_formula_size_in_gl_is_product():
    from garlands.etale import torus_units

    for base, degs in [(F3, [2]), (F3, [1, 1]), (F5, [1, 1]), (F2, [2, 1])]:
        spec = AlgebraSpec(base, degs)
        gl = ambient_group(GL, spec.n, base)
        formula = normalizer_formula(spec, torus_subgroup(spec, gl))
        assert formula.order == len(torus_units(spec)) * aut_group_size(spec)


def test_predicted_formula_failure_f3f3_sl():
    sl23 = ambient_group(SL, 2, F3)
    spec = AlgebraSpec(F3, [1, 1])
    torus = torus_subgroup(spec, sl23)
    formula = normalizer_formula(spec, torus)
    brute = normalizer_brute(sl23, torus)
    assert formula.order == 4
    assert brute.order == 24
    assert not formula.same_elements(brute)


def test_gl_sl_normalizer_intersection_follows_span():
    # whenever the norm-one units span absorbs all units, N_SL(T') = N_GL(T) cut to SL;
    # the premise comes from the elimination, not from the closed form it checks

    for base, degs in [(F2, [2]), (F3, [2]), (F3, [1, 1]), (F4, [1, 1]), (F5, [1, 1]), (F5, [2])]:
        spec = AlgebraSpec(base, degs)
        gl = ambient_group(GL, spec.n, base)
        sl = ambient_group(SL, spec.n, base)
        n_gl = normalizer_brute(gl, torus_subgroup(spec, gl))
        n_sl = normalizer_brute(sl, torus_subgroup(spec, sl))
        cut = intersect_with_ambient(n_gl, sl)
        if hypotheses_by_elimination(spec)["norm_one_absorbs_units"]:
            assert cut.same_elements(n_sl), (base.q, degs)
        assert n_sl.order >= cut.order  # the cut never exceeds the SL normalizer


def test_is_maximal_abelian_examples():
    # C(h) is computed inside N(h); the whole ambient as the container agrees
    gl23 = ambient_group(GL, 2, F3)
    whole = Subgroup(gl23, range(gl23.order))
    center = generate(gl23, [FieldMatrix(F3, [[2, 0], [0, 2]])])
    for h, expected in [
        (torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23), True),
        (torus_subgroup(AlgebraSpec(F3, [2]), gl23), True),
        (center, False),
    ]:
        assert is_maximal_abelian(h, normalizer_brute(gl23, h)) is expected, h.order
        assert is_maximal_abelian(h, whole) is expected, h.order


def test_is_maximal_abelian_rejects_nonabelian():
    gl23 = ambient_group(GL, 2, F3)
    whole = with_generators(Subgroup(gl23, range(gl23.order)))
    with pytest.raises(NotAbelianError):
        is_maximal_abelian(whole, whole)
    center = generate(gl23, [FieldMatrix(F3, [[2, 0], [0, 2]])])
    with pytest.raises(GroupError):  # the container must hold h
        is_maximal_abelian(torus_subgroup(AlgebraSpec(F3, [2]), gl23), center)


def test_centralizer_of_torus_is_torus_when_units_span():
    for base, degs in [(F3, [2]), (F3, [1, 1]), (F5, [2]), (F4, [2])]:
        spec = AlgebraSpec(base, degs)
        gl = ambient_group(GL, spec.n, base)
        t = torus_subgroup(spec, gl)
        assert centralizer_brute(gl, t).same_elements(t)


def test_conjugation_invariance_of_normalizer():
    rng = np.random.default_rng(7)
    gl23 = ambient_group(GL, 2, F3)
    spec = AlgebraSpec(F3, [2])
    t = torus_subgroup(spec, gl23)
    n_t = normalizer_brute(gl23, t)
    for _ in range(5):
        g = int(rng.integers(gl23.order))
        ginv = int(gl23.inv_indices()[g])
        conj_idx = gl23.rmul(gl23.lmul(g, t.indices), ginv)
        conj_t = Subgroup(gl23, conj_idx, gl23.rmul(gl23.lmul(g, np.array(t.generators)), ginv))
        n_conj = normalizer_brute(gl23, conj_t)
        expected = Subgroup(gl23, gl23.rmul(gl23.lmul(g, n_t.indices), ginv))
        assert n_conj.same_elements(expected)


def test_subgroup_identity_and_hash():
    gl23 = ambient_group(GL, 2, F3)
    a = torus_subgroup(AlgebraSpec(F3, [2]), gl23)
    b = torus_subgroup(AlgebraSpec(F3, [2]), gl23)
    assert a.id == b.id and a == b
    c = torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23)
    assert a.id != c.id and a != c


@pytest.mark.parametrize("n,base", [(2, F2), (2, F3), (2, F4), (2, F9), (3, F2), (3, F3)])
def test_ambient_order_is_key_order(n, base):
    # Subgroup.id digests keys_of_indices(indices) unsorted; that is the
    # sorted key set only because ambient order is key order
    for kind in (GL, SL):
        amb = ambient_group(kind, n, base)
        keys = amb.keys_of_indices(np.arange(amb.order))
        assert (np.diff(keys) > 0).all(), (kind, n, base.q)


def test_same_elements_rejects_other_ambient():
    spec = AlgebraSpec(F3, [2])
    t_gl = torus_subgroup(spec, ambient_group(GL, 2, F3))
    t_sl = torus_subgroup(spec, ambient_group(SL, 2, F3))
    with pytest.raises(GroupError):
        t_gl.same_elements(t_sl)
    with pytest.raises(GroupError):
        t_sl.same_elements(t_gl)
    assert t_gl != t_sl


def test_is_subset_of_rejects_other_ambient():
    # {I, diag(1, 2)} has determinant 2, so it is not inside SL(2,3); read
    # against SL's mask by GL's indices it would look as if it were
    gl23, sl23 = ambient_group(GL, 2, F3), ambient_group(SL, 2, F3)
    flip = Subgroup(gl23, [gl23.identity_index, index_of(gl23, FieldMatrix(F3, [[1, 0], [0, 2]]))])
    whole_sl = Subgroup(sl23, np.arange(sl23.order))
    with pytest.raises(GroupError, match="different ambient"):
        flip.is_subset_of(whole_sl)
    with pytest.raises(GroupError, match="different ambient"):
        whole_sl.is_subset_of(flip)
    assert flip.is_subset_of(Subgroup(gl23, np.arange(gl23.order)))


def test_subgroup_canonicalizes_indices():
    gl23 = ambient_group(GL, 2, F3)
    t = torus_subgroup(AlgebraSpec(F3, [2]), gl23)
    shuffled = np.concatenate([t.indices[::-1], t.indices[:3]]).astype(np.int64)
    s = Subgroup(gl23, shuffled)
    assert s.indices.dtype == np.int32
    assert s.indices.tolist() == sorted(set(t.indices.tolist()))
    given = t.indices.copy()
    kept = Subgroup(gl23, given)
    assert kept.indices.tolist() == t.indices.tolist()
    given[0] = given[-1]  # the subgroup does not share the caller's array
    assert kept.indices.tolist() == t.indices.tolist()
    for bad in (np.arange(5), [4, 3, 2, 1, 0, 0]):  # order 5 does not divide 48
        with pytest.raises(GroupError, match="does not divide"):
            Subgroup(gl23, bad)
    with pytest.raises(GroupError):
        Subgroup(gl23, [])


@pytest.mark.parametrize("n,base,degrees", [(2, F3, [1, 1]), (3, F2, [2, 1]), (2, F4, [2])])
def test_coset_table_matches_brute_products(n, base, degrees):
    amb = ambient_group(GL, n, base)
    torus = torus_subgroup(AlgebraSpec(base, degrees), amb)
    normalizer = normalizer_brute(amb, torus)
    for within in (None, normalizer):
        lat = enumerate_interval(torus, amb, within=within)
        top = lat.top
        position = {int(x): i for i, x in enumerate(top.indices)}
        for h in map(with_generators, lat.members):  # a member conjugated from its orbit's representative has none
            table = CosetTable(h, top)
            for i, x in enumerate(top.indices.tolist()):
                # H x and x H by per-element matrix products; H x H is the
                # union of the right cosets H y, y in x H, and its least
                # position leads the least coset number of x's double coset
                label = table.leaders[table.coset]  # the least position of each right coset
                assert label[i] == min(position[int(y)] for y in products_by_matrices(amb, h.indices, x))
                assert table.leaders[table.coset[i]] == label[i]
                least = min(label[position[int(y)]] for y in products_by_matrices(amb, x, h.indices))
                assert table.leaders[table.double[table.coset[i]]] == least
            reps = table.double_coset_reps()
            assert reps.tolist() == double_coset_reps_by_elements(amb, h, top.indices)
            brute = normalizer_brute(amb, h)
            assert np.array_equal(table.normalizer(), brute.indices[top.contains(brute.indices)])
            # the batched closures are the distinct element-level closures, first occurrence first
            closures = dict.fromkeys(element_closure(amb, h, g).tobytes() for g in reps)
            assert [elements.tobytes() for elements, _ in extend_level([(table, reps)])[0]] == list(closures)


@pytest.mark.parametrize("n,base,degrees", [(3, F3, [2, 1]), (2, F9, [1, 1])])
def test_seeded_coset_tables_match_unseeded(n, base, degrees):
    # a table seeded with the bottom's table starts from its right-coset
    # labels and adds left permutations only for generators outside bottom
    amb = ambient_group(GL, n, base)
    torus = torus_subgroup(AlgebraSpec(base, degrees), amb)
    whole = Subgroup(amb, np.arange(amb.order))
    normalizer = Subgroup(amb, CosetTable(torus, whole).normalizer())
    for within in (None, normalizer):
        lat = enumerate_interval(torus, amb, within=within)
        top = lat.top
        below = CosetTable(torus, top)
        for h in map(with_generators, lat.members):  # a member conjugated from its orbit's representative has none
            plain, seeded = CosetTable(h, top), CosetTable(h, top, below=below)
            assert np.array_equal(seeded.leaders[seeded.coset], plain.leaders[plain.coset]), h.order
            assert np.array_equal(seeded.coset, plain.coset), h.order
            assert np.array_equal(seeded.double, plain.double), h.order
            assert np.array_equal(seeded.double_coset_reps(), plain.double_coset_reps())
            assert np.array_equal(seeded.normalizer(), plain.normalizer())
        bigger = next(h for h in lat.members if h.order > torus.order)
        with pytest.raises(GroupError, match="subgroup of H"):
            CosetTable(torus, top, below=CosetTable(bigger, top))
    with pytest.raises(GroupError, match="same top"):
        CosetTable(with_generators(normalizer), normalizer, below=CosetTable(torus, whole))


def _orbit_minima_by_search(perms, size: int) -> list[int]:
    """Least point of each orbit of <perms> on range(size): a search from each point in ascending order."""
    label = [-1] * size
    for x in range(size):
        if label[x] < 0:
            label[x], stack = x, [x]
            while stack:
                y = stack.pop()
                for p in perms:
                    z = int(p[y])
                    if label[z] < 0:
                        label[z] = x
                        stack.append(z)
    return label


def test_cycle_minima_match_orbit_minima_and_search():
    # doubling along each permutation, then the finishing pass, against the
    # hooking rounds alone and against a plain search: commuting sets (powers
    # of one permutation), non-commuting random sets, single long cycles
    rng = np.random.default_rng(2026)
    checked = 0
    for size in (1, 2, 7, 64, 255, 1000):
        for _ in range(12):
            base = rng.permutation(size).astype(np.int32)
            kind = rng.integers(3)
            if kind == 0:  # powers of one permutation commute
                perms = [base, base.take(base).take(base)]
            elif kind == 1:  # independent random permutations almost never commute
                perms = [base, *(rng.permutation(size).astype(np.int32) for _ in range(rng.integers(3)))]
            else:  # one cycle through every point
                cycle = np.empty(size, dtype=np.int32)
                cycle[base] = np.roll(base, -1)
                perms = [cycle]
            got = _cycle_minima(perms, size)
            assert got.tolist() == _orbit_minima_by_search(perms, size), (size, kind)
            assert np.array_equal(got, _orbit_minima(np.arange(size, dtype=np.int32), perms))
            checked += 1
    assert checked == 72
    assert _cycle_minima([], 3).tolist() == [0, 1, 2]


def test_right_perm_matches_fresh_products():
    amb = ambient_group(GL, 3, F2)
    torus = torus_subgroup(AlgebraSpec(F2, [2, 1]), amb)
    for top in (Subgroup(amb, np.arange(amb.order)), normalizer_brute(amb, torus)):
        positions = np.full(amb.order, -1, dtype=np.int32)
        positions[top.indices] = np.arange(top.order)
        assert np.array_equal(top.positions(), positions)
        table = CosetTable(torus, top)
        assert np.array_equal(table.positions, positions)
        for s in top.indices.tolist():
            perm = table.right_perm(s)
            assert np.array_equal(perm, positions[amb.rmul(top.indices, s)])
            assert table.right_perm(s) is perm  # memoized with the root table


def test_seeded_tables_share_the_root_tables_memos():
    # a subgroup holds no memo; the root table (seeded by none) holds top's
    # positions and right permutations, and every table seeded from it
    # shares both, so a permutation one of them builds serves them all
    assert Subgroup.__slots__ == ("ambient", "indices", "_id", "_gens")
    amb = ambient_group(GL, 3, F2)
    torus = torus_subgroup(AlgebraSpec(F2, [2, 1]), amb)
    top = Subgroup(amb, np.arange(amb.order))
    root = CosetTable(torus, top)
    seeded = [CosetTable(with_generators(m), top, below=root) for m in enumerate_interval(torus, amb).members[1:-1]]
    assert len(seeded) > 2
    for table in seeded:
        assert table.positions is root.positions and table._right is root._right
        for s in table.h.generators:
            assert table.right_perm(s) is root.right_perm(s)
    other = CosetTable(torus, top)
    assert other.positions is not root.positions and other._right is not root._right


def test_extend_level_stops_at_half_the_cosets(monkeypatch):
    # T's table for GL(3,3) 2,1 over G: most closures reach all of G, and
    # they stop once they hold more than half the cosets, so the products
    # by g fall short of one per coset of each closure
    amb = ambient_group(GL, 3, F3)
    t = torus_subgroup(AlgebraSpec(F3, [2, 1]), amb)
    table = CosetTable(t, Subgroup(amb, np.arange(amb.order)))
    reps = table.double_coset_reps()
    closures = [element_closure(amb, t, g) for g in reps]
    assert any(c.size == amb.order for c in closures)
    products = []  # the products by g go through one RightProducts table
    call = RightProducts.__call__
    monkeypatch.setattr(RightProducts, "__call__", lambda self, x, w=0: products.append(len(x)) or call(self, x, w))
    got = extend_level([(table, reps)])[0]
    monkeypatch.undo()
    assert [elements.tobytes() for elements, _ in got] == list(dict.fromkeys(c.tobytes() for c in closures))
    assert products and sum(products) < sum(c.size // t.order for c in closures)


def _extension_tables(name):
    """The coset tables of one named case of test_extend_level_match_element_closures."""
    base, degrees, caps = {
        "gl33-21": (F3, [2, 1], Caps()),  # T over G, where most closures are all of G
        "gl2-13": (F13, [2], WIDE),
        "members": (F3, [2, 1], Caps()),
        "trivial-h": (F2, [1, 1, 1], Caps()),  # H = 1: every double coset is one right coset
    }[name]
    amb = ambient_group(GL, sum(degrees), base, caps)
    t = torus_subgroup(AlgebraSpec(base, degrees), amb)
    whole = Subgroup(amb, np.arange(amb.order))
    below = CosetTable(t, whole)
    if name != "members":
        return [below]
    # tables of members T < H < G seeded with T's, three over T's right
    # cosets ([H:T] <= |T|) and three over positions
    members = [with_generators(m) for m in enumerate_interval(t, amb).members if t.order < m.order < amb.order]
    rng = np.random.default_rng(26)
    tables = []
    for route in ([m for m in members if m.order <= t.order**2], [m for m in members if m.order > t.order**2]):
        tables += [CosetTable(route[i], whole, below) for i in rng.choice(len(route), 3, replace=False)]
    return tables


@pytest.mark.parametrize("name", ["gl33-21", "gl2-13", "members", "trivial-h"])
def test_extend_level_match_element_closures(name):
    # closing <H, g> over double cosets reaches the element-level closures:
    # the same subgroups, in first-occurrence order, each generated by H's
    # generators and the first g that reached it; the adjoined elements are
    # the double-coset representatives, then a seeded sample of top with
    # the identity and repeats
    rng = np.random.default_rng(2602)
    right, wide, whole_top = {}, 0, 0
    for table in _extension_tables(name):
        h, top = table.h, table.top
        amb = h.ambient
        # the double coset numbering: runs of by_double, ascending inside each run, widths by count
        assert np.array_equal(table.dnum.take(table.by_double), np.repeat(np.arange(table.dwidth.size), table.dwidth))
        assert np.array_equal(table.leaders.take(table.by_double.take(np.cumsum(table.dwidth) - table.dwidth)),
                              table.leaders.take(np.flatnonzero(table.double == np.arange(table.double.size))))
        assert all((np.diff(run) > 0).all() for run in np.split(table.by_double, np.cumsum(table.dwidth)[:-1]))
        assert table.dnum.dtype == table.dwidth.dtype == table.by_double.dtype == np.int32
        wide += int((table.dwidth > 1).sum())
        gs = np.concatenate(
            [table.double_coset_reps(), [amb.identity_index], rng.choice(top.indices, 12), table.double_coset_reps()[:3]]
        ).astype(np.int32)
        closures = {}
        for g in gs.tolist():
            closures.setdefault(element_closure(amb, h, g, right).tobytes(), g)
        got = extend_level([(table, gs)])[0]
        assert [elements.tobytes() for elements, _ in got] == list(closures)
        assert [g for _, g in got] == list(closures.values())  # each closure is <H's generators, g>
        assert [elements.size for elements, _ in got] == [len(c) // 4 for c in closures]
        # a closure that is all of top is top's own index array, not a copy
        assert all(elements is top.indices for elements, _ in got if elements.size == top.order)
        whole_top += sum(elements.size == top.order for elements, _ in got)
    if name == "trivial-h":
        assert wide == 0
    else:
        assert wide > 0 and whole_top > 0  # some double coset holds several right cosets, and the half rule fires


def test_extend_level_keys_closures_on_double_cosets(monkeypatch):
    # the closures move by double cosets: they read none of the table's
    # maps of right cosets, and they are told apart by the double cosets
    # they claim, one bit row per closure, not by their right cosets
    tables = _extension_tables("gl33-21") + _extension_tables("members")

    def closures(table):
        return [(elements.tobytes(), g) for elements, g in extend_level([(table, table.double_coset_reps())])[0]]

    want = [closures(table) for table in tables]
    shapes = []
    packbits = np.packbits
    monkeypatch.setattr(np, "packbits", lambda a, axis=None: shapes.append(a.shape) or packbits(a, axis=axis))
    for table, closed in zip(tables, want):
        table.coset_right = None
        assert closures(table) == closed
        assert shapes.pop() == (table.double_coset_reps().size, table.dwidth.size)
    assert shapes == []


@pytest.mark.parametrize("n,base,degrees", [(3, F2, [1, 1, 1]), (3, F3, [2, 1])])
def test_generators_match_greedy_from_scratch(n, base, degrees):
    # a subgroup given as an element set carries no generators, and no
    # search finds some; every member the enumeration closed as <H, g>
    # keeps the generators it was closed from, and they close to it
    amb = ambient_group(GL, n, base)
    lat = enumerate_interval(torus_subgroup(AlgebraSpec(base, degrees), amb), amb)
    kept = 0
    for m in lat.members:
        with pytest.raises(GroupError, match="no generators"):
            Subgroup(amb, m.indices).generators
        try:
            gens = m.generators
        except GroupError:  # conjugated from its orbit's representative
            continue
        assert generate(amb, [matrix_at(amb, g) for g in gens]).same_elements(m), m.order
        kept += 1
    assert kept > 1


def test_coset_table_rejects_outside_elements():
    gl23 = ambient_group(GL, 2, F3)
    t = torus_subgroup(AlgebraSpec(F3, [1, 1]), gl23)
    n = normalizer_brute(gl23, t)
    whole = Subgroup(gl23, np.arange(gl23.order))
    with pytest.raises(GroupError):
        CosetTable(whole, n)
    outside = int(np.flatnonzero(~n.contains(np.arange(gl23.order)))[0])
    with pytest.raises(GroupError):
        extend_subgroup(CosetTable(t, n), outside)
    assert extend_subgroup(CosetTable(t, whole), outside).order == generate(
        gl23, [matrix_at(gl23, int(x)) for x in [*t.generators, outside]]
    ).order


def test_subgroup_serialization_shape():
    gl23 = ambient_group(GL, 2, F3)
    t = torus_subgroup(AlgebraSpec(F3, [2]), gl23)
    doc = subgroup_serialize(t)
    assert doc["order"] == 8
    assert doc["ambient"]["kind"] == GL
    assert doc["ambient"]["field"] == {"p": 3, "m": 1, "defining_poly": [0, 1]}
    regenerated = generate(gl23, [matrix_from_coeff_rows(F3, rows) for rows in doc["generators"]])
    assert regenerated.same_elements(t)


def test_digest_ids_take_one_key_gather(monkeypatch):
    # an enumeration's ids come from one key gather over all its members:
    # each is the digest of its own keys, as the oracle recomputes them from
    # the matrices, and a subgroup that has its id keeps it with no gather
    amb = ambient_group(GL, 3, F2)
    members = enumerate_interval(torus_subgroup(AlgebraSpec(F2, [1, 1, 1]), amb), amb).members
    fresh = [Subgroup(amb, m.indices) for m in members]
    gathers = []
    keys = AmbientGroup.keys_of_indices
    monkeypatch.setattr(AmbientGroup, "keys_of_indices", lambda self, idxs: gathers.append(len(idxs)) or keys(self, idxs))
    Subgroup.digest_ids(fresh)
    assert gathers == [sum(m.order for m in members)]
    Subgroup.digest_ids(fresh)
    assert len(gathers) == 1
    monkeypatch.undo()
    assert [s.id for s in fresh] == [m.id for m in members] == [subgroup_id(m) for m in members]
