from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garlands.etale import (
    AlgebraCapError,
    AlgebraError,
    AlgebraSpec,
    additive_span_check,
    aut_group,
    count_power_in_base,
    primitive_norm_one_search,
    span_absorbs_units,
    torus_units,
)
from garlands.finite_field import FieldCapError, construct_extension, construct_field, extension_of

from oracles import (
    FieldMatrix,
    add_comps,
    add_idx,
    algebra_comps,
    algebra_specs,
    aut_group_size,
    brute_additive_span,
    brute_ring_automorphisms,
    count_power_in_base_by_shifts,
    extension_from_coords,
    hypotheses_by_elimination,
    inv_comps,
    matrix_det,
    matrix_key,
    matrix_product,
    mul_comps,
    mul_idx,
    neg_comps,
    norm_comps,
    regular_rep_by_basis,
    span_check_by_elimination,
    span_pivots,
)


def apply(sigma, a):
    """sigma(a) for component indices a: factor i goes to slot sigma.perm[i] through its relative Frobenius power sigma.frob[i]."""
    out = [0] * len(sigma.perm)
    for i, (target, e) in enumerate(zip(sigma.perm, sigma.frob)):
        out[target] = sigma.spec.extensions[i].rel_frobenius(a[i], e)
    return tuple(out)


F2 = construct_field(2, 1)
F3 = construct_field(3, 1)
F4 = construct_field(2, 2)
F5 = construct_field(5, 1)

SMALL_SHAPES = [
    (F2, (2,)), (F2, (1, 1)), (F2, (3,)), (F2, (2, 1)), (F2, (1, 1, 1)),
    (F2, (4,)), (F2, (2, 2)), (F3, (2,)), (F3, (1, 1)), (F3, (3,)),
    (F3, (2, 1)), (F3, (1, 1, 1)), (F5, (2,)), (F5, (1, 1)), (F4, (2,)), (F4, (1, 1)),
]


def test_spec_validation():
    with pytest.raises(AlgebraError):
        AlgebraSpec(F3, [])
    with pytest.raises(AlgebraError):
        AlgebraSpec(F3, [0, 1])
    with pytest.raises(AlgebraCapError):
        AlgebraSpec(F3, [20])  # 3^20 exceeds the algebra order cap


def test_regular_rep_f9_shape():
    # basis {1, i} with i^2 = -1: right multiplication by a + b*i
    spec = AlgebraSpec(F3, [2])
    ext = spec.extensions[0]
    for a in range(3):
        for b in range(3):
            assert spec.regular_rep_mats([extension_from_coords(ext, (a, b))])[0].tolist() == [[a, (-b) % 3], [b, a]]


def test_regular_rep_split_is_diagonal():
    spec = AlgebraSpec(F3, [1, 1])
    for a in range(1, 3):
        for b in range(1, 3):
            assert spec.regular_rep_mats([a, b])[0].tolist() == [[a, 0], [0, b]]


@pytest.mark.parametrize("p", [3, 7])
def test_regular_rep_quadratic_shape(p):
    # fields whose defining polynomial is x^2 - d: t(x + y*sqrt(d)) = [[x, y*d], [y, x]]
    base = construct_field(p, 1)
    top = construct_field(p, 2)
    assert top.defining_poly[1] == 0, "test premise: pure quadratic defining polynomial"
    d = (-top.defining_poly[0]) % p
    spec = AlgebraSpec(base, [2])
    ext = spec.extensions[0]
    for x in range(p):
        for y in range(p):
            assert spec.regular_rep_mats([extension_from_coords(ext, (x, y))])[0].tolist() == [[x, (y * d) % p], [y, x]]


def test_torus_units_counts():
    assert len(torus_units(AlgebraSpec(F2, [2]))) == 3
    assert len(torus_units(AlgebraSpec(F3, [1, 1]))) == 4
    assert len(torus_units(AlgebraSpec(F3, [2]))) == 8


def test_algebra_norm_examples():
    spec = AlgebraSpec(F3, [1, 1, 1])
    assert norm_comps(spec, spec.one_comps()) == F3.one_index
    spec9 = AlgebraSpec(F3, [2])
    ext = spec9.extensions[0]
    for a in range(3):
        for b in range(3):
            assert norm_comps(spec9, (extension_from_coords(ext, (a, b)),)) == (a * a + b * b) % 3


@pytest.mark.parametrize("base,degrees", SMALL_SHAPES)
def test_det_of_regular_rep_equals_norm(base, degrees):
    spec = AlgebraSpec(base, degrees)
    if spec.order > 81:
        pytest.skip("exhaustive oracle bounded at order 81")
    elements = algebra_comps(spec)
    for el, m in zip(elements, spec.regular_rep_mats(elements)):
        assert matrix_det(FieldMatrix(base, m.tolist())) == norm_comps(spec, el)


@pytest.mark.parametrize("base,degrees", SMALL_SHAPES)
def test_regular_rep_multiplicative_and_injective(base, degrees):
    spec = AlgebraSpec(base, degrees)
    if spec.order > 81:
        pytest.skip("exhaustive oracle bounded at order 81")
    units = [tuple(u) for u in torus_units(spec).tolist()]
    rep = {u: FieldMatrix(base, m.tolist()) for u, m in zip(units, spec.regular_rep_mats(units))}
    assert len({matrix_key(m) for m in rep.values()}) == len(units)
    for a in units[:6]:
        for b in units:
            assert rep[mul_comps(spec, a, b)] == matrix_product(rep[a], rep[b])


@pytest.mark.parametrize("base,degrees", SMALL_SHAPES)
def test_regular_rep_mats_match_per_element_routes(base, degrees):
    # the batched table route against the algebra's own products
    spec = AlgebraSpec(base, degrees)
    elements = algebra_comps(spec)
    for a, m in zip(elements, spec.regular_rep_mats(elements)):
        assert FieldMatrix(base, m.tolist()) == regular_rep_by_basis(spec, a)
    assert torus_units(spec).tolist() == [list(u) for u in algebra_comps(spec, units=True)]


def test_regular_rep_refuses_oversized_table():
    spec = AlgebraSpec(F2, [20])  # 2^20 blocks of 20 x 20 entries
    with pytest.raises(FieldCapError):
        spec.regular_rep_mats([spec.one_comps()])


def test_aut_group_examples():
    assert len(aut_group(AlgebraSpec(F3, [2]))) == 2
    assert len(aut_group(AlgebraSpec(F3, [1, 1]))) == 2
    assert len(aut_group(AlgebraSpec(F2, [2, 1]))) == 2


@pytest.mark.parametrize("base,degrees", SMALL_SHAPES)
def test_aut_group_against_brute_force(base, degrees):
    spec = AlgebraSpec(base, degrees)
    if spec.order > 81:
        pytest.skip("brute oracle bounded at order 81")
    fast = aut_group(spec)
    assert len(fast) == aut_group_size(spec)
    brute = brute_ring_automorphisms(spec)
    fast_maps = {tuple(sorted((a, apply(s, a)) for a in algebra_comps(spec))) for s in fast}
    brute_maps = {tuple(sorted(t.items())) for t in brute}
    assert fast_maps == brute_maps


@pytest.mark.parametrize("base,degrees", SMALL_SHAPES)
def test_aut_commutes_with_norm(base, degrees):
    spec = AlgebraSpec(base, degrees)
    if spec.order > 81:
        pytest.skip("bounded at order 81")
    for sigma in aut_group(spec):
        for a in algebra_comps(spec):
            assert norm_comps(spec, apply(sigma, a)) == norm_comps(spec, a)


def test_additive_span_examples():
    res = span_check_by_elimination(AlgebraSpec(F3, [1, 1]))[1]
    assert not res.spans and res.rank == 1  # span is the diagonal
    assert span_check_by_elimination(AlgebraSpec(F3, [2]))[1].spans
    res = span_check_by_elimination(AlgebraSpec(F2, [1, 1]))[0]
    assert not res.spans and res.rank == 1  # only unit is (1, 1)


def test_additive_span_witness_spans():
    spec = AlgebraSpec(F5, [1, 1])
    res = span_check_by_elimination(spec)[1]
    assert res.spans
    regen = brute_additive_span(spec, res.witness.tolist())
    assert len(regen) == spec.order


@pytest.mark.parametrize("base,degrees", SMALL_SHAPES)
def test_additive_span_matches_brute_closure(base, degrees):
    spec = AlgebraSpec(base, degrees)
    if spec.order > 81:
        pytest.skip("bounded at order 81")
    units = algebra_comps(spec, units=True)
    norm_one = [u for u in units if norm_comps(spec, u) == base.one_index]
    for fast, selected in zip(span_check_by_elimination(spec), (units, norm_one)):
        brute = brute_additive_span(spec, selected)
        assert fast.spans == (len(brute) == spec.order)
        assert len(brute) == base.q**fast.rank
        witness = [tuple(w) for w in fast.witness.tolist()]
        assert len(witness) == fast.rank and set(witness) <= set(selected)
        assert brute_additive_span(spec, witness) == brute
    assert span_absorbs_units(spec) == all(u in brute for u in units)  # brute: the norm-one span


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])
def test_prefix_pivots_are_the_prefix_rank(p, m):
    # span_check_by_elimination reads both ranks off one elimination, norm-one
    # rows first: for every m, the pivots among the first m rows must be those of
    # the first m rows eliminated alone, and number their rank, here the
    # log_q of the size of their span, grown by brute closure.  Seeded rows;
    # about a third are combinations of two earlier rows, so ranks stall
    field = construct_field(p, m)
    rng = np.random.default_rng(10 * p + m)
    add, mul = partial(add_idx, field), partial(mul_idx, field)
    stalls = 0  # rows inside the span of the rows above, while that span is not everything
    for cols in (2, 3, 4, 3):
        rows = []
        for _ in range(10):
            if len(rows) >= 2 and rng.random() < 0.35:
                a, b = rng.choice(len(rows), 2, replace=False)
                c, d = (int(x) for x in rng.integers(field.q, size=2))
                rows.append(tuple(add(mul(c, x), mul(d, y)) for x, y in zip(rows[a], rows[b])))
            else:
                rows.append(tuple(int(x) for x in rng.integers(field.q, size=cols)))
        pivots = span_pivots(field, np.array(rows, dtype=np.int32))
        span = {(0,) * cols}
        for k, row in enumerate(rows, 1):
            if len(span) < field.q**cols:
                stalls += row in span
                span = {tuple(add(v, mul(c, r)) for v, r in zip(vec, row)) for vec in span for c in range(field.q)}
            prefix = pivots[pivots < k]
            assert np.array_equal(prefix, span_pivots(field, np.array(rows[:k], dtype=np.int32))), (cols, k)
            assert field.q**prefix.size == len(span), (cols, k)
    assert stalls


def test_span_absorbs_units():
    assert span_absorbs_units(AlgebraSpec(F2, [1, 1]))  # S* is one element
    assert not span_absorbs_units(AlgebraSpec(F3, [1, 1]))
    assert span_absorbs_units(AlgebraSpec(F3, [2]))


def test_closed_form_spans_match_the_elimination():
    # the closed forms of additive_span_check and span_absorbs_units against
    # the elimination over every unit, key by key, on every algebra over F_q,
    # q <= 64, with |S| <= 4096; tests/span_census.py runs the same
    # comparison up to n = 7 at the default caps
    specs = algebra_specs(64, 12, 4096)
    assert len(specs) == 459
    for spec in specs:
        closed = dict(zip(("units_span", "norm_one_span"), additive_span_check(spec)))
        closed["norm_one_absorbs_units"] = span_absorbs_units(spec)
        assert closed == hypotheses_by_elimination(spec), spec


def test_primitive_norm_one_examples():
    f4 = construct_extension(F2, 2)
    w = primitive_norm_one_search(F2, f4)
    assert w is not None and f4.coeffs_of(w) == (0, 1)  # the generator of F4
    f9 = construct_extension(F3, 2)
    i = primitive_norm_one_search(F3, f9)
    assert i is not None and f9.coeffs_of(i) == (0, 1)
    f25 = construct_extension(F5, 2)
    w = primitive_norm_one_search(F5, f25)
    assert w is not None
    ext = extension_of(F5, f25)
    kernel = sum(1 for idx in range(1, f25.q) if ext.rel_norm(idx) == F5.one_index)
    assert kernel == 6


def test_count_power_in_base_examples():
    f25 = construct_field(5, 2)
    ext = extension_of(F5, f25)
    x = next(i for i in range(f25.q) if not ext.contains(i))
    assert count_power_in_base(F5, f25, x, 2) == 1  # exactly one shift kills the trace
    assert count_power_in_base(F5, f25, x, 1) == 0

    f49 = construct_field(7, 2)
    f7 = construct_field(7, 1)
    ext49 = extension_of(f7, f49)
    for idx in range(f49.q):
        if ext49.contains(idx):
            continue
        for exponent in (2, 3):
            assert count_power_in_base(f7, f49, idx, exponent) <= exponent


def test_count_power_in_base_preconditions():
    f25 = construct_field(5, 2)
    ext = extension_of(F5, f25)
    inside = int(ext.embed[2])
    with pytest.raises(AlgebraError, match="outside"):
        count_power_in_base(F5, f25, inside, 2)
    x = 1
    with pytest.raises(AlgebraError, match="characteristic"):
        count_power_in_base(F5, f25, x, 5)
    with pytest.raises(AlgebraError, match="too small"):
        count_power_in_base(F5, f25, x, 6)
    with pytest.raises(AlgebraError, match=">= 1"):
        count_power_in_base(F5, f25, x, 0)
    # the count reads logarithms, which every field has, also one past 2^16 elements
    f2 = construct_field(2, 1)
    big = construct_field(2, 17)
    assert count_power_in_base(f2, big, 2, 1) == count_power_in_base_by_shifts(f2, big, 2, 1)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2), st.integers(0, 2))
def test_algebra_ring_axioms_random(i1, i2, a, b):
    spec = AlgebraSpec(F3, [2, 1])
    add, mul, neg = partial(add_comps, spec), partial(mul_comps, spec), partial(neg_comps, spec)
    x, y = (i1, a), (i2, b)
    assert mul(add(x, y), add(x, neg(y))) == add(mul(x, x), neg(mul(y, y)))
    assert mul(x, y) == mul(y, x)
    if all(x):
        assert mul(x, inv_comps(spec, x)) == spec.one_comps()
