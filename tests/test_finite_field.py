from random import Random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from garlands.finite_field import (
    FieldCapError,
    FieldMismatchError,
    FieldTable,
    NotPrimeError,
    _prime_factors,
    check_power_cap,
    construct_extension,
    construct_field,
    extension_of,
    minimal_irreducible,
)

from oracles import (
    FieldMatrix,
    add_idx,
    extension_from_coords,
    frob_idx,
    inv_idx,
    least_root_embedding,
    matrix_det,
    matrix_from_key,
    matrix_inverse,
    matrix_key,
    matrix_product,
    mul_idx,
    neg_idx,
    rel_norm_by_products,
    relative_generator_by_orbits,
    tables_by_polynomials,
)


def test_prime_factors_match_sieve_to_20000():
    n_max = 20_000
    factors = [[] for _ in range(n_max + 1)]
    for f in range(2, n_max + 1):
        if not factors[f]:  # no smaller prime divides f
            for m in range(f, n_max + 1, f):
                factors[m].append(f)
    for n in range(n_max + 1):
        assert _prime_factors(n) == factors[n], n


def test_prime_factors_of_prime_powers_and_products():
    assert _prime_factors(25) == [5]
    assert _prime_factors(49) == [7]
    assert _prime_factors(121) == [11]
    assert _prime_factors(997**2) == [997]
    assert _prime_factors(2**20) == [2]
    assert _prime_factors(3**12) == [3]
    assert _prime_factors(2 * 3 * 5 * 7 * 11 * 13) == [2, 3, 5, 7, 11, 13]
    assert _prime_factors(9_999_991) == [9_999_991]


def test_prime_factors_across_the_table_bound():
    # trial division runs over the primes below 2^12, then over the 6k +- 1 wheel
    below = sympy.prevprime(1 << 12)  # the largest table prime, 4093
    p1 = sympy.nextprime(1 << 12)  # the first prime the wheel reaches, 4099
    p2 = sympy.nextprime(p1)
    p3 = sympy.nextprime(p2)
    assert _prime_factors(0) == [] and _prime_factors(1) == []
    assert _prime_factors(1 << 20) == [2]
    assert _prime_factors(below) == [below]
    assert _prime_factors(below**2) == [below]
    assert _prime_factors(p1**2) == [p1]
    assert _prime_factors(p1**3) == [p1]
    assert _prime_factors(below * p1) == [below, p1]
    assert _prime_factors(p1 * p2) == [p1, p2]
    assert _prime_factors(p1 * p2 * p3) == [p1, p2, p3]
    assert _prime_factors(2 * p1**2 * p3) == [2, p1, p3]
    assert _prime_factors(4097) == [17, 241]  # the wheel's first number is composite


def test_prime_factors_match_sympy_on_a_seeded_sample():
    rng = Random(20_261_018)
    for _ in range(200):
        n = rng.randrange(2, 1 << 34)
        assert _prime_factors(n) == sorted(sympy.factorint(n)), n


def test_construct_field_examples():
    assert construct_field(2, 2).defining_poly == (1, 1, 1)  # x^2 + x + 1
    assert construct_field(3, 1).defining_poly == (0, 1)  # x
    assert construct_field(3, 2).defining_poly == (1, 0, 1)  # x^2 + 1


def test_construct_field_errors():
    with pytest.raises(NotPrimeError):
        construct_field(4, 1)
    with pytest.raises(NotPrimeError):
        construct_field(1, 1)
    with pytest.raises(FieldCapError):
        construct_field(2, 21)  # 2^21 over the default cap


def test_construct_field_at_cap_boundary():
    f = construct_field(2, 20)  # exactly the default cap
    assert f.q == 1 << 20
    a, b = 12345, 999_983
    assert mul_idx(f, a, mul_idx(f, b, b)) == mul_idx(f, mul_idx(f, a, b), b)
    assert mul_idx(f, a, inv_idx(f, a)) == f.one_index


def test_power_cap_refuses_exactly_the_powers_past_it():
    # the exponent test only settles powers already past the cap, which it
    # names as base^exp; every other power is compared, and named, in full
    for cap in (1, 7, 8, 16, 1000, 1 << 20):
        for base in range(2, 40):
            for exp in range(1, 40):
                try:
                    check_power_cap("field", base, exp, cap)
                except FieldCapError as exc:
                    assert base**exp > cap, (cap, base, exp)
                    by_exponent = exp > 1 and exp * (base.bit_length() - 1) > cap.bit_length()
                    named = f"{base}^{exp}" if by_exponent else str(base**exp)
                    assert str(exc) == f"field order {named} exceeds cap {cap}"
                else:
                    assert base**exp <= cap, (cap, base, exp)
    with pytest.raises(FieldCapError, match=r"^field order 2\^1000000 exceeds cap 1048576$"):
        construct_field(2, 1_000_000)
    with pytest.raises(FieldCapError, match=r"^field order 1048577 exceeds cap 1048576$"):
        construct_field(1_048_577, 1)  # an exponent of 1 names p itself


def test_determinism_fresh_constructions():
    a = FieldTable(3, 3)
    b = FieldTable(3, 3)
    assert a is not b
    assert a == b
    assert a.defining_poly == b.defining_poly
    for x in range(a.q):
        for y in (1, 5, 11):
            assert mul_idx(a, x, y) == mul_idx(b, x, y)
            assert add_idx(a, x, y) == add_idx(b, x, y)
    assert np.array_equal(a.logs(range(1, a.q)), b.logs(range(1, b.q)))
    assert construct_field(3, 3) is construct_field(3, 3)


def test_minimal_irreducible_is_minimal():
    # every lexicographically earlier monic polynomial of the same degree factors
    from garlands.finite_field import _is_irreducible

    for p, m in [(2, 3), (3, 2), (5, 2), (2, 4)]:
        poly = minimal_irreducible(p, m)
        coeffs = poly[:-1]
        import itertools

        for combo in itertools.product(range(p), repeat=m):
            if combo >= coeffs:
                break
            assert not _is_irreducible(list(combo) + [1], p)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2)])
def test_field_axioms_exhaustive_small(p, m):
    f = construct_field(p, m)
    one = f.one_index
    for a in range(f.q):
        assert add_idx(f, a, 0) == a
        assert mul_idx(f, a, one) == a
        assert add_idx(f, a, neg_idx(f, a)) == 0
        if a:
            assert mul_idx(f, a, inv_idx(f, a)) == one
            assert f.pow_idx(a, f.q - 1) == one


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 728), st.integers(0, 728), st.integers(0, 728))
def test_field_axioms_random_f729(a, b, c):
    f = construct_field(3, 6)
    assert mul_idx(f, mul_idx(f, a, b), c) == mul_idx(f, a, mul_idx(f, b, c))
    assert add_idx(f, add_idx(f, a, b), c) == add_idx(f, a, add_idx(f, b, c))
    lhs = mul_idx(f, a, add_idx(f, b, c))
    rhs = add_idx(f, mul_idx(f, a, b), mul_idx(f, a, c))
    assert lhs == rhs


def test_frobenius_examples():
    f2 = construct_field(2, 1)
    assert frob_idx(f2, 1, 1) == 1
    f4 = construct_field(2, 2)
    g = f4.generator_index()
    assert frob_idx(f4, g, 1) == mul_idx(f4, g, g)
    f9 = construct_field(3, 2)
    for x in range(f9.q):
        assert frob_idx(f9, x, 2) == x


def test_frobenius_order_m():
    for p, m in [(2, 4), (3, 3), (5, 2)]:
        f = construct_field(p, m)
        for x in range(f.q):
            y = x
            for _ in range(m):
                y = frob_idx(f, y, 1)
            assert y == x


def test_norm_examples():
    f2 = construct_field(2, 1)
    f4 = construct_field(2, 2)
    ext = extension_of(f2, f4)
    for x in range(1, f4.q):
        assert ext.rel_norm(x) == f2.one_index

    # F9 over F3 with i^2 = -1: N(a + b*i) = a^2 + b^2
    f3 = construct_field(3, 1)
    f9 = construct_field(3, 2)
    ext = extension_of(f3, f9)
    for a in range(3):
        for b in range(3):
            assert ext.rel_norm(f9.index_of((a, b))) == (a * a + b * b) % 3

    # norm F25 -> F5 hits every unit value
    f5 = construct_field(5, 1)
    f25 = construct_field(5, 2)
    ext = extension_of(f5, f25)
    image = {ext.rel_norm(x) for x in range(1, f25.q)}
    assert image == {1, 2, 3, 4}


def test_norm_multiplicative_exhaustive_up_to_81():
    pairs = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 6), (3, 1, 2), (3, 1, 3), (3, 1, 4),
             (5, 1, 2), (7, 1, 2), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)]
    for p, m0, n in pairs:
        base = construct_field(p, m0)
        top = construct_extension(base, n)
        if top.q > 81:
            continue
        ext = extension_of(base, top)
        for a in range(top.q):
            for b in range(top.q):
                na = ext.rel_norm(a)
                nb = ext.rel_norm(b)
                nab = ext.rel_norm(mul_idx(top, a, b))
                assert nab == mul_idx(base, na, nb)


def test_norm_field_mismatch():
    f9 = construct_field(3, 2)
    f2 = construct_field(2, 1)
    with pytest.raises(FieldMismatchError):
        extension_of(f2, f9)
    f27 = construct_field(3, 3)
    with pytest.raises(FieldMismatchError):
        extension_of(f9, f27)  # 2 does not divide 3


def test_primitive_element_examples():
    # x generates K over k exactly when its relative Frobenius orbit has the full degree
    f2 = construct_field(2, 1)
    f4 = construct_field(2, 2)
    ext = extension_of(f2, f4)
    assert ext.orbit_size(f4.one_index) < ext.degree
    f3 = construct_field(3, 1)
    f9 = construct_field(3, 2)
    ext = extension_of(f3, f9)
    assert ext.orbit_size(f9.index_of((0, 1))) == ext.degree
    f5 = construct_field(5, 1)
    f25 = construct_field(5, 2)
    ext = extension_of(f5, f25)
    count = sum(1 for x in range(f25.q) if ext.orbit_size(x) == ext.degree)
    assert count == 20  # 25 - 5 elements of the proper subfield


def test_extension_embedding_is_homomorphism():
    for p, m0, n in [(2, 2, 2), (3, 1, 3), (2, 1, 4), (7, 1, 2), (2, 2, 3)]:
        base = construct_field(p, m0)
        top = construct_extension(base, n)
        ext = extension_of(base, top)
        for a in range(base.q):
            for b in range(base.q):
                ea, eb = int(ext.embed[a]), int(ext.embed[b])
                assert int(ext.embed[add_idx(base, a, b)]) == add_idx(top, ea, eb)
                assert int(ext.embed[mul_idx(base, a, b)]) == mul_idx(top, ea, eb)
        assert int(ext.embed[base.one_index]) == top.one_index


# every base q <= 16 with q^d <= 4096, d >= 2, and F_4 in F_(2^18), a top past 2^16 elements
EMBEDDINGS = [
    (p, m, d)
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]
    for d in range(2, 13)
    if p ** (m * d) <= 4096
] + [(2, 2, 9)]


@pytest.mark.parametrize("p,m,d", EMBEDDINGS)
def test_embedding_generator_and_norm_match_polynomial_routes(p, m, d):
    # the embedding sends x to the least root of the base's defining polynomial,
    # the relative generator is the least element with d conjugates, and the
    # norm is the product of the conjugates: all by coefficient polynomials
    base = construct_field(p, m)
    top = construct_extension(base, d)
    ext = extension_of(base, top)
    assert ext.embed.tolist() == least_root_embedding(base, top)
    assert ext.gen_index == relative_generator_by_orbits(ext)
    sample = [0, top.one_index, ext.gen_index, *np.random.default_rng(top.q).integers(1, top.q, size=16).tolist()]
    assert [ext.rel_norm(x) for x in sample] == [rel_norm_by_products(ext, x) for x in sample]


def test_extension_coords_roundtrip():
    base = construct_field(2, 2)
    top = construct_extension(base, 2)
    ext = extension_of(base, top)
    for z in range(top.q):
        assert extension_from_coords(ext, ext.coords(z)) == z


def test_element_total_order_matches_lex():
    f = construct_field(3, 2)
    seq = [f.coeffs_of(i) for i in range(f.q)]
    assert seq == sorted(seq)


def test_field_matrix_roundtrips_and_inverse():
    f = construct_field(3, 1)
    m = FieldMatrix(f, [[1, 2], [1, 1]])
    assert matrix_from_key(f, 2, matrix_key(m)) == m
    assert matrix_product(m, matrix_inverse(m)) == FieldMatrix.identity(f, 2)
    f4 = construct_field(2, 2)
    m = FieldMatrix(f4, [[2, 1], [3, 2]])
    if matrix_det(m) != 0:
        assert matrix_product(m, matrix_inverse(m)) == FieldMatrix.identity(f4, 2)


def _order_by_products(f, a):
    """Multiplicative order of a by repeated table-free polynomial products."""
    k, x = 1, a
    while x != f.one_index:
        x, k = f._poly_product(x, a), k + 1
    return k


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (19, 2), (2, 9)])
def test_dense_tables_match_scalar_ops(p, m):
    # the numpy tables come from coefficient digits and exp/log; the whole
    # sum and product tables are checked against the vectorized polynomial
    # oracle, and sampled rows of them against the one-element ops, so the
    # two oracles check each other; products also by the field's own
    # polynomial reduction
    f = construct_field(p, m)
    q, every = f.q, range(f.q)
    add, mul, neg, inv = f.np_add(), f.np_mul(), f.np_neg(), f.np_inv()
    assert add.dtype == mul.dtype == neg.dtype == inv.dtype == np.int16
    sums, products = tables_by_polynomials(f)
    assert np.array_equal(add, sums) and np.array_equal(mul, products)
    assert neg.tolist() == [neg_idx(f, a) for a in every]
    assert inv.tolist() == [0] + [inv_idx(f, a) for a in range(1, q)]
    rows = np.random.default_rng(q).integers(q, size=8)
    for a in rows.tolist():
        assert add[a].tolist() == [add_idx(f, a, b) for b in every]
        assert mul[a].tolist() == [mul_idx(f, a, b) for b in every]
        assert mul[a].tolist() == [f._poly_product(a, b) for b in every]
    g = f.generator_index()
    assert _order_by_products(f, g) == q - 1
    assert all(_order_by_products(f, c) < q - 1 for c in range(1, g))


def test_dense_tables_refuse_large_fields():
    f = construct_field(2, 10)
    for table in (f.np_add, f.np_mul, f.np_neg, f.np_inv):
        with pytest.raises(FieldCapError):
            table()
