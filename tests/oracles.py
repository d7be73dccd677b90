"""Independent brute-force oracles and test-only routes used by the test suite.

Everything here deliberately avoids the structural shortcuts of the package:
ring automorphisms are found by constrained search over unital k-linear
bijections, additive spans by set closure and by one elimination over
every unit (against the closed forms of the hypothesis record's span
keys), and Pell solutions by exhaustive
y-search, by the convergent that ends the first full period of sqrt(d)'s
continued fraction, and by the product of the p and q convergents at the
period's middle divided by |p^2 - d*q^2|, so the fast implementations are
checked against a second route.
Subgroup ids are recomputed from the element matrices' keys, interval
lattices by the element-level breadth-first route (a per-element double-coset
loop, then a closure over elements seeded with H), generators of a subgroup
given as an element set by a greedy pick that recloses from the identity
after every pick, normality edges by a subset test per pair of members,
garlands by a union-find over those edges keyed on member ids,
the GL-to-SL restriction block from each torus's normalizer by its coset
table over the whole ambient and the interval enumerated inside it,
centralizers by a commuting scan of the whole ambient per generator,
regular representations from the algebra's own multiplication and
coordinates, the torus and the formula normalizer (and each x_sigma, its
first t(u) * P_sigma) from those, one unit at a time through FieldMatrix
products, determinants and lookups, ambient groups from every candidate
matrix and its vectorized Laplace determinant (minors cut out by
np.delete), and the exact rational 2x2 algebra at the end checks the
SL(2,Q) witness matrices by direct conjugation.

Past building its tables, the package multiplies, inverts and takes powers
in a field only through its exp/log and dense tables.  The one element at
a time field and algebra arithmetic lives here, on coefficient
polynomials: schoolbook products reduced mod the defining polynomial,
square-and-multiply powers, sums and norms per component, the base's
embedding by the least root of its defining polynomial found by evaluating
at every element in index order, and the relative generator by orbits
under x -> x^q.

Every field's whole sum and product tables are also recomputed here in one
vectorized pass of the same polynomial arithmetic (tables_by_polynomials),
so the one-element route needs to check only sampled rows of them.

The package does matrix arithmetic only vectorized over ambient indices,
and has no matrix type: its matrices are (n, n) index arrays.  FieldMatrix,
the one-matrix container, and the one-matrix-at-a-time routes live here:
an ambient's index of a matrix and matrix at an index, matrix keys,
products (cell by cell, and per element pair over index arrays),
determinants (Laplace expansion) and inverses (Gauss-Jordan), subgroups
generated from matrices, subgroup matrices and serialization, relative
minimal polynomials and scalar multiples in an algebra.  The closed form for |Aut_k(S)| lives here too: the package reads
the automorphisms off aut_group and never needs their count.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt
from typing import Sequence

import numpy as np

from garlands.etale import AlgebraSpec, aut_group, torus_units, unit_norm_logs
from garlands.finite_field import FieldError, FieldMismatchError, FieldTable, construct_field, extension_of
from garlands.lattice import enumerate_interval
from garlands.matrix_group import (
    SL,
    CosetTable,
    GroupCapError,
    NonMemberError,
    Subgroup,
    _closure,
    intersect_with_ambient,
    is_normal_in,
    torus_subgroup,
)


# -- field arithmetic on coefficient polynomials ------------------------------
# One element at a time, from the defining polynomial and the index encoding
# only: none of these read the exp/log or dense tables that they check.


def _coeffs(f, a: int) -> list[int]:
    """Coefficients of the element with index a, constant term first (the most significant digit)."""
    out = [0] * f.m
    for i in range(f.m - 1, -1, -1):
        a, out[i] = divmod(a, f.p)
    return out


def _index(f, coeffs) -> int:
    idx = 0
    for c in coeffs:
        idx = idx * f.p + c % f.p
    return idx


def add_idx(f, a: int, b: int) -> int:
    return _index(f, [x + y for x, y in zip(_coeffs(f, a), _coeffs(f, b))])


def neg_idx(f, a: int) -> int:
    return _index(f, [-x for x in _coeffs(f, a)])


def scalar_index(f, c: int) -> int:
    """Index of the prime-field constant c."""
    return _index(f, [c] + [0] * (f.m - 1))


def mul_idx(f, a: int, b: int) -> int:
    """a * b by the schoolbook product of coefficient polynomials, reduced mod the defining polynomial."""
    p, m, poly = f.p, f.m, f.defining_poly
    x, y = _coeffs(f, a), _coeffs(f, b)
    out = [0] * (2 * m - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                out[i + j] += xi * yj
    for k in range(2 * m - 2, m - 1, -1):  # x^k = -x^(k-m) * (poly - x^m)
        c = out[k] % p
        if c:
            for i in range(m):
                out[k - m + i] -= c * poly[i]
    return _index(f, out[:m])


def tables_by_polynomials(f) -> tuple[np.ndarray, np.ndarray]:
    """(q, q) tables of every a + b and a * b: mul_idx's arithmetic, vectorized over all pairs.

    Each index is decoded into its base-p digits (constant term first, the
    most significant), sums add digits mod p, and products are the
    schoolbook convolution of the digit vectors reduced mod the defining
    polynomial from the top degree down.  Only p, m and defining_poly are
    read, none of the field's tables.
    """
    p, m, q, poly = f.p, f.m, f.q, f.defining_poly
    place = p ** np.arange(m - 1, -1, -1, dtype=np.int32)
    digits = np.arange(q, dtype=np.int32)[:, None] // place % p
    a, b = digits[:, None, :], digits[None, :, :]
    sums = (a + b) % p @ place
    conv = np.zeros((q, q, 2 * m - 1), dtype=np.int32)
    for i in range(m):
        conv[..., i : i + m] += a[..., i, None] * b
    for k in range(2 * m - 2, m - 1, -1):  # x^k = -x^(k-m) * (poly - x^m)
        conv[..., k - m : k] -= conv[..., k, None] % p * np.array(poly[:m], dtype=np.int32)
    return sums, conv[..., :m] % p @ place


def pow_idx(f, a: int, e: int) -> int:
    """a^e for e >= 0, by square-and-multiply over mul_idx."""
    out = f.one_index
    while e:
        if e & 1:
            out = mul_idx(f, out, a)
        a, e = mul_idx(f, a, a), e >> 1
    return out


def inv_idx(f, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of zero in finite field")
    return pow_idx(f, a, f.q - 2)


def frob_idx(f, a: int, i: int = 1) -> int:
    """a^(p^i), the i-th Frobenius iterate."""
    return pow_idx(f, a, f.p ** (i % f.m))


def poly_value(f, coeffs, z: int) -> int:
    """sum c_i z^i for prime-field constants c_i (constant first), by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = add_idx(f, mul_idx(f, acc, z), scalar_index(f, c))
    return acc


def least_root_embedding(base, top) -> list[int]:
    """Top index of each base element: x goes to the least root r of base's defining polynomial in top,
    found by evaluating it at every element in index order, and sum c_i x^i to sum c_i r^i."""
    r = next(z for z in range(top.q) if poly_value(top, base.defining_poly, z) == 0)
    return [poly_value(top, base.coeffs_of(a), r) for a in range(base.q)]


def rel_norm_by_products(ext, x: int) -> int:
    """Norm to the base, as a base index: the product of the relative Frobenius conjugates x^(q^j), j < d."""
    top, acc = ext.top, ext.top.one_index
    for _ in range(ext.degree):
        acc, x = mul_idx(top, acc, x), pow_idx(top, x, ext.base.q)
    return ext.lift(acc)


def relative_generator_by_orbits(ext) -> int:
    """The least top element whose orbit under x -> x^q has d members, d the degree."""
    top, q = ext.top, ext.base.q
    for x in range(1, top.q):
        orbit, y = 1, pow_idx(top, x, q)
        while y != x:
            orbit, y = orbit + 1, pow_idx(top, y, q)
        if orbit == ext.degree:
            return x
    raise AssertionError("no primitive element")


def extension_from_coords(ext, coords) -> int:
    """The top element sum a_j y^j for base coordinates a_j, y the relative generator."""
    top, acc, yj = ext.top, 0, ext.top.one_index
    for a in coords:
        acc = add_idx(top, acc, mul_idx(top, int(ext.embed[a]), yj))
        yj = mul_idx(top, yj, ext.gen_index)
    return acc


# -- algebra arithmetic on component tuples -------------------------------------


def zero_comps(spec: AlgebraSpec) -> tuple[int, ...]:
    return (0,) * len(spec.degrees)


def mul_comps(spec: AlgebraSpec, a, b) -> tuple[int, ...]:
    return tuple(mul_idx(e.top, x, y) for e, x, y in zip(spec.extensions, a, b))


def add_comps(spec: AlgebraSpec, a, b) -> tuple[int, ...]:
    return tuple(add_idx(e.top, x, y) for e, x, y in zip(spec.extensions, a, b))


def neg_comps(spec: AlgebraSpec, a) -> tuple[int, ...]:
    return tuple(neg_idx(e.top, x) for e, x in zip(spec.extensions, a))


def inv_comps(spec: AlgebraSpec, a) -> tuple[int, ...]:
    if any(x == 0 for x in a):
        raise ZeroDivisionError("not a unit")
    return tuple(inv_idx(e.top, x) for e, x in zip(spec.extensions, a))


def norm_comps(spec: AlgebraSpec, a) -> int:
    """Product of the factor norms, a base-field index."""
    acc = spec.base.one_index
    for e, x in zip(spec.extensions, a):
        acc = mul_idx(spec.base, acc, rel_norm_by_products(e, x))
    return acc


def coords_comps(spec: AlgebraSpec, a) -> tuple[int, ...]:
    """Coordinates in the fixed k-basis (length n, base indices)."""
    return tuple(c for e, x in zip(spec.extensions, a) for c in e.coords(x))


def algebra_from_coords(spec: AlgebraSpec, coords) -> tuple[int, ...]:
    comps, pos = [], 0
    for e, d in zip(spec.extensions, spec.degrees):
        comps.append(extension_from_coords(e, coords[pos : pos + d]))
        pos += d
    return tuple(comps)


# -- one matrix at a time --------------------------------------------------------


class FieldMatrix:
    """Immutable n x n matrix over a FieldTable; rows hold canonical element indices."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: FieldTable, rows: Sequence[Sequence[int]]):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise FieldError("matrix must be square")
        self.field = field
        self.n = n
        self.rows = tuple(tuple(int(v) for v in r) for r in rows)

    @classmethod
    def identity(cls, field: FieldTable, n: int) -> "FieldMatrix":
        one = field.one_index
        return cls(field, [[one if i == j else 0 for j in range(n)] for i in range(n)])

    def coeff_rows(self) -> list[list[tuple[int, ...]]]:
        return [[self.field.coeffs_of(v) for v in r] for r in self.rows]

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldMatrix) and self.field == other.field and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        return f"FieldMatrix(q={self.field.q}, {self.rows})"


def index_of(amb, m: FieldMatrix) -> int:
    """The ambient index of one member matrix; NonMemberError for any other."""
    if m.field != amb.field or m.n != amb.n:
        raise NonMemberError(f"matrix over the wrong field/size for {amb!r}")
    return int(amb.indices_of_mats(np.array([m.rows]))[0])


def matrix_at(amb, i: int) -> FieldMatrix:
    return FieldMatrix(amb.field, amb.mats()[i].tolist())


def matrix_key(m: FieldMatrix) -> int:
    """The row-major entries read as one base-q integer, the ambient's lookup key."""
    k = 0
    for r in m.rows:
        for v in r:
            k = k * m.field.q + v
    return k


def matrix_from_key(field, n: int, key: int) -> FieldMatrix:
    entries = []
    for _ in range(n * n):
        key, v = divmod(key, field.q)
        entries.append(v)
    entries.reverse()
    return FieldMatrix(field, [entries[i * n : (i + 1) * n] for i in range(n)])


def matrix_from_coeff_rows(field, rows) -> FieldMatrix:
    return FieldMatrix(field, [[field.index_of(c) for c in r] for r in rows])


def matrix_product(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    if a.field != b.field or a.n != b.n:
        raise FieldMismatchError("matrix shape/field mismatch")
    f = a.field
    out = []
    for row in a.rows:
        out.append([])
        for col in zip(*b.rows):
            acc = 0
            for x, y in zip(row, col):
                acc = add_idx(f, acc, mul_idx(f, x, y))
            out[-1].append(acc)
    return FieldMatrix(f, out)


def matrix_det(m: FieldMatrix) -> int:
    """Determinant by Laplace expansion along the first row."""
    f, rows = m.field, m.rows
    if m.n == 1:
        return rows[0][0]
    acc = 0
    for j, c in enumerate(rows[0]):
        if c:
            term = mul_idx(f, c, matrix_det(FieldMatrix(f, [r[:j] + r[j + 1 :] for r in rows[1:]])))
            acc = add_idx(f, acc, term if j % 2 == 0 else neg_idx(f, term))
    return acc


def matrix_inverse(m: FieldMatrix) -> FieldMatrix:
    """Inverse by Gauss-Jordan elimination."""
    f, n = m.field, m.n
    aug = [list(r) + [f.one_index if i == j else 0 for j in range(n)] for i, r in enumerate(m.rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise FieldError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = inv_idx(f, aug[col][col])
        aug[col] = [mul_idx(f, inv, v) for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [add_idx(f, v, neg_idx(f, mul_idx(f, c, w))) for v, w in zip(aug[r], aug[col])]
    return FieldMatrix(f, [row[n:] for row in aug])


def laplace_det(field, A: np.ndarray) -> np.ndarray:
    """Determinants of (..., n, n) index arrays, by Laplace expansion along the first row with np.delete minors."""
    n = A.shape[-1]
    if n == 1:
        return A[..., 0, 0]
    MUL = field.np_mul()
    ADD = field.np_add()
    NEG = field.np_neg()
    acc = None
    for j in range(n):
        term = MUL[A[..., 0, j], laplace_det(field, np.delete(A[..., 1:, :], j, axis=-1))]
        if j % 2 == 1:
            term = NEG[term]
        acc = term if acc is None else ADD[acc, term]
    return acc


def products_by_matrices(amb, a, b) -> np.ndarray:
    """Ambient indices of a * b for index arrays a and b paired elementwise; either may be one index.

    The per-element matrix route: each pair's matrices are multiplied entry
    by entry through the field's add and mul tables, and each product's key
    (its row-major entries as one base-q integer) is found among the
    ambient's sorted keys.  It shares only the element list with the
    package's row-code products.
    """
    field, n = amb.field, amb.n
    mats = amb.mats().astype(np.int64)
    A, B = np.broadcast_arrays(mats[np.atleast_1d(a)], mats[np.atleast_1d(b)])
    mul, add = field.np_mul(), field.np_add()
    C = np.zeros(A.shape, dtype=np.int64)  # index 0 is the field's zero
    for i in range(n):
        for j in range(n):
            for k in range(n):
                C[:, i, j] = add[C[:, i, j], mul[A[:, i, k], B[:, k, j]]]
    keys = C.reshape(-1, n * n) @ field.q ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
    every = amb.keys_of_indices(np.arange(amb.order))
    found = np.searchsorted(every, keys)
    assert (found < amb.order).all() and (every[np.minimum(found, amb.order - 1)] == keys).all(), "product outside"
    return found.astype(np.int32)


def ambient_by_candidates(kind: str, n: int, field) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys and (n, order) row codes of GL(n, q) or SL(n, q): every one of the q^(n^2)
    candidate matrices, kept by its Laplace determinant."""
    q = field.q
    keys = np.arange(q ** (n * n), dtype=np.int64)
    mats = (keys[:, None] // q ** np.arange(n * n - 1, -1, -1) % q).astype(np.int16).reshape(-1, n, n)
    dets = laplace_det(field, mats)
    keys = keys[dets != 0 if kind != SL else dets == field.one_index]
    rows = np.array([keys // q ** (n * (n - 1 - i)) % q**n for i in range(n)], dtype=np.int32)
    return keys, rows


def generate(ambient, gens, max_size: int | None = None) -> Subgroup:
    """Smallest subgroup of the ambient containing the given matrices."""
    idxs = [index_of(ambient, m) for m in gens]
    cl = _closure(ambient, idxs)
    if max_size is not None and cl.size > max_size:
        raise GroupCapError(f"closure reached {cl.size} elements, cap {max_size}", order=int(cl.size))
    return Subgroup(ambient, cl, idxs)


def subgroup_matrices(sub) -> list[FieldMatrix]:
    return [matrix_at(sub.ambient, int(i)) for i in sub.indices]


def subgroup_serialize(sub, with_elements: bool = False) -> dict:
    amb = sub.ambient
    doc = {
        "ambient": {"kind": amb.kind, "n": amb.n, "field": amb.field.serialize()},
        "order": sub.order,
        "generators": [matrix_at(amb, g).coeff_rows() for g in sub.generators],
    }
    if with_elements:
        doc["elements"] = [m.coeff_rows() for m in subgroup_matrices(sub)]
    return doc


def rel_min_poly(ext, top_idx: int) -> tuple[int, ...]:
    """Minimal polynomial over the base (base-field indices, constant first, monic).

    It is the product of X - c over the orbit of the element under c -> c^q.
    """
    top = ext.top
    poly = [top.one_index]  # top-field coefficients
    c = top_idx
    while True:
        neg = neg_idx(top, c)
        nxt = [0] * (len(poly) + 1)
        for i, a in enumerate(poly):
            nxt[i] = add_idx(top, nxt[i], mul_idx(top, a, neg))
            nxt[i + 1] = add_idx(top, nxt[i + 1], a)
        poly = nxt
        c = pow_idx(top, c, ext.base.q)
        if c == top_idx:
            return tuple(ext.lift(a) for a in poly)


def scalar_mul_comps(spec: AlgebraSpec, c: int, a) -> tuple[int, ...]:
    """Multiply by a base-field element (base index c)."""
    return tuple(mul_idx(e.top, int(e.embed[c]), x) for e, x in zip(spec.extensions, a))


def algebra_comps(spec: AlgebraSpec, units: bool = False) -> list[tuple[int, ...]]:
    """Every element of S (with units, every unit) as a component tuple, in canonical component order."""
    return list(itertools.product(*(range(int(units), e.top.q) for e in spec.extensions)))


def aut_group_size(spec: AlgebraSpec) -> int:
    """Closed form for |Aut_k(S)| = prod_d d^(m_d) * m_d!, m_d the number of factors of degree d."""
    counts: dict[int, int] = {}
    for d in spec.degrees:
        counts[d] = counts.get(d, 0) + 1
    out = 1
    for d, c in counts.items():
        out *= factorial(c) * d**c
    return out


def _perm_closure(gens, n: int) -> frozenset:
    """The permutations of range(n) generated by gens (tuples of images), by breadth-first composition."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = tuple(g[i] for i in s)
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    return frozenset(group)


def subgroup_count_of_aut(degrees) -> int:
    """|Sub(W)| for W = prod_d C_d wr S_(m_d), m_d the number of factors of degree d: Aut_k(S) for S with these degrees.

    W acts on n = sum(degrees) points, a block of d points per factor of
    degree d: each factor's cyclic shift of its block (its Frobenius) and the
    swap of the blocks of every two factors of equal degree generate it.
    Its subgroups are closed from the trivial group outward, each as
    <H, g> for a subgroup H found before and an element g outside it.
    """
    starts = list(itertools.accumulate(degrees, initial=0))
    n = starts[-1]
    gens = [tuple(s + (i - s + 1) % d if s <= i < s + d else i for i in range(n)) for s, d in zip(starts, degrees)]
    for a, b in itertools.combinations(range(len(degrees)), 2):
        if degrees[a] == degrees[b]:
            shift = starts[b] - starts[a]
            gens.append(tuple(
                i + shift if starts[a] <= i < starts[a + 1] else i - shift if starts[b] <= i < starts[b + 1] else i
                for i in range(n)
            ))
    whole = _perm_closure(gens, n)
    trivial = _perm_closure([], n)
    subgroups = {trivial: []}  # subgroup -> the generators it was closed from
    frontier = [trivial]
    while frontier:
        nxt = []
        for h in frontier:
            for g in whole - h:
                k = _perm_closure(subgroups[h] + [g], n)
                if k not in subgroups:
                    subgroups[k] = subgroups[h] + [g]
                    nxt.append(k)
        frontier = nxt
    return len(subgroups)


def count_power_in_base_by_shifts(base, top, x: int, exponent: int) -> int:
    """Number of alpha in k with (x + alpha)^N in k, one scalar sum, power and membership test per alpha."""
    ext = extension_of(base, top)
    count = 0
    for alpha in range(base.q):
        z = add_idx(top, x, int(ext.embed[alpha]))
        if ext.contains(pow_idx(top, z, exponent)):
            count += 1
    return count


def brute_additive_span(spec: AlgebraSpec, vectors) -> frozenset:
    """The k-linear span of the given component rows, as a set of comps tuples."""
    span = {zero_comps(spec)}
    frontier = [zero_comps(spec)]
    while frontier:
        nxt = []
        for v in frontier:
            for w in vectors:
                for c in range(spec.base.q):
                    cand = add_comps(spec, v, scalar_mul_comps(spec, c, w))
                    if cand not in span:
                        span.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return frozenset(span)


def algebra_specs(max_q: int, max_n: int, max_order: int) -> list[AlgebraSpec]:
    """One AlgebraSpec per algebra over F_q, q a prime power <= max_q, with n <= max_n and q^n <= max_order.

    Each algebra is listed once, by its degrees largest first.
    """

    def partitions(n, top):
        if n == 0:
            yield ()
        for d in range(min(n, top), 0, -1):
            for rest in partitions(n - d, d):
                yield (d, *rest)

    specs = []
    for p in (p for p in range(2, max_q + 1) if all(p % r for r in range(2, isqrt(p) + 1))):
        for m in itertools.takewhile(lambda m: p**m <= max_q, itertools.count(1)):
            base = construct_field(p, m)
            for n in itertools.takewhile(lambda n: n <= max_n and base.q**n <= max_order, itertools.count(1)):
                specs += [AlgebraSpec(base, degrees) for degrees in partitions(n, n)]
    return specs


@dataclass(frozen=True)
class SpanCheckResult:
    spans: bool
    rank: int
    witness: np.ndarray  # (rank, t) component rows of selected units spanning what they all span


def span_pivots(base, rows: np.ndarray) -> np.ndarray:
    """Pivot rows of a column-pivot elimination of (N, c) base-field index rows, which it overwrites.

    A column's pivot is the first row not yet zero there, and it is
    subtracted from every row that is not.  So a row's updates read only
    pivots above it: eliminating a prefix of the rows never reads a later
    row, and the pivots among the first m rows are those of the first m
    rows eliminated alone, rank(first m rows) many.
    """
    add, mul, neg, inv = base.np_add(), base.np_mul(), base.np_neg(), base.np_inv()
    pivots = []
    for col in range(rows.shape[1]):
        live = np.flatnonzero(rows[:, col])
        if live.size:
            pivots.append(live[0])
            scaled = mul[inv[rows[live[0], col]], rows[live[0]]]  # the pivot row with a one in col
            rows[live] = add[rows[live], neg[mul[rows[live, col, None], scaled]]]
    return np.array(pivots, dtype=np.intp)


def span_check_by_elimination(spec: AlgebraSpec) -> tuple[SpanCheckResult, SpanCheckResult]:
    """k-linear spans of the units of S and of its norm-one units: is each all of S?

    Returns (units, norm_one), both from one elimination (span_pivots).  The
    units are the rows of torus_units, the norm-one ones (unit_norm_logs 0)
    moved first, each part in unit order.  A unit's coordinates in the
    fixed k-basis are column 0 of its factors' multiplication blocks.  The
    pivots among the first m rows, m the count of norm-one units, give
    their rank, and all pivots the rank of all units.  A witness holds the
    pivot rows' units, in the order found; every selected unit lies in
    their span.  Lists every unit and builds every factor's table, so
    Extension.mult_blocks' cap refuses some algebras AlgebraSpec accepts.
    """
    units = torus_units(spec)
    norm_one = unit_norm_logs(spec, units) == 0
    units = np.concatenate([units[norm_one], units[~norm_one]])
    rows = np.concatenate([e.mult_blocks()[units[:, i], :, 0] for i, e in enumerate(spec.extensions)], axis=1)
    pivots = span_pivots(spec.base, rows)
    return tuple(
        SpanCheckResult(p.size == spec.n, p.size, units[p]) for p in (pivots, pivots[pivots < norm_one.sum()])
    )


def hypotheses_by_elimination(spec: AlgebraSpec) -> dict:
    """The three span keys of the hypothesis record, from the elimination.

    The norm-one span lies inside the units' span, so it holds every unit
    (norm_one_absorbs_units) exactly when the two ranks agree.
    """
    units, norm_one = span_check_by_elimination(spec)
    return {
        "units_span": units.spans,
        "norm_one_span": norm_one.spans,
        "norm_one_absorbs_units": norm_one.rank == units.rank,
    }


def brute_ring_automorphisms(spec: AlgebraSpec) -> list[dict]:
    """All unital multiplicative k-linear bijections of S, by constrained search.

    A candidate is determined by the images of the basis vectors; the search
    assigns the factor identities first (images must be idempotents summing
    to 1, pairwise orthogonal), then for each factor of degree >= 2 the image
    of its power-basis generator (a root of the generator's minimal
    polynomial lying in the image idempotent's block), and finally checks
    multiplicativity on all basis pairs and bijectivity.
    """
    base = spec.base
    zero, one = zero_comps(spec), spec.one_comps()
    elements = algebra_comps(spec)
    idempotents = [e for e in elements if mul_comps(spec, e, e) == e and e != zero]
    t = len(spec.degrees)

    results = []

    def basis_elements(assign_idem, assign_gen):
        """Images of the fixed basis under the candidate map, or None."""
        images = []
        for f, d in enumerate(spec.degrees):
            block = assign_idem[f]
            if d == 1:
                images.append(block)
            else:
                y_img = assign_gen[f]
                power = block
                for e in range(d):
                    images.append(power)
                    power = mul_comps(spec, power, y_img)
        return images

    def k_linear_map(images):
        """comps -> comps map by k-linear extension, or None if not bijective."""
        table = {}
        for coeffs in itertools.product(range(base.q), repeat=spec.n):
            src = algebra_from_coords(spec, coeffs)
            acc = zero
            for c, img in zip(coeffs, images):
                if c:
                    acc = add_comps(spec, acc, scalar_mul_comps(spec, c, img))
            table[src] = acc
        if len(set(table.values())) != spec.order:
            return None
        return table

    def try_candidate(assign_idem, assign_gen):
        images = basis_elements(assign_idem, assign_gen)
        table = k_linear_map(images)
        if table is None:
            return
        if table[one] != one:
            return
        # multiplicativity on all basis pairs suffices by bilinearity
        one_idx = base.one_index
        basis = [
            algebra_from_coords(spec, tuple(one_idx if i == j else 0 for i in range(spec.n)))
            for j in range(spec.n)
        ]
        for a in basis:
            for b in basis:
                prod = mul_comps(spec, a, b)
                img_prod = table[prod]
                lhs = mul_comps(spec, table[a], table[b])
                if lhs != img_prod:
                    return
        results.append(table)

    def assign_generators(assign_idem, f, assign_gen):
        if f == t:
            try_candidate(assign_idem, assign_gen)
            return
        d = spec.degrees[f]
        if d == 1:
            assign_generators(assign_idem, f + 1, assign_gen + [None])
            return
        ext = spec.extensions[f]
        minpoly = rel_min_poly(ext, ext.gen_index)  # base-field indices, monic
        block = assign_idem[f]
        for z in elements:
            if mul_comps(spec, z, block) != z:
                continue
            acc = zero
            for coeff in reversed(minpoly):
                acc = add_comps(spec, mul_comps(spec, acc, z), scalar_mul_comps(spec, coeff, block))
            if acc == zero:
                assign_generators(assign_idem, f + 1, assign_gen + [z])

    for combo in itertools.permutations(idempotents, t):
        # images of the factor identities: orthogonal idempotents summing to 1
        total = zero
        ok = True
        for i, e in enumerate(combo):
            total = add_comps(spec, total, e)
            for j in range(i):
                if mul_comps(spec, combo[j], e) != zero:
                    ok = False
        if not ok or total != one:
            continue
        assign_generators(list(combo), 0, [])

    # deduplicate (different assignments can induce the same map)
    seen = set()
    unique = []
    for tab in results:
        key = tuple(sorted(tab.items()))
        if key not in seen:
            seen.add(key)
            unique.append(tab)
    return unique


def subgroup_id(sub) -> str:
    """Report id from the matrices: 8-byte blake2b over the sorted keys as native int64."""
    keys = sorted(matrix_key(m) for m in subgroup_matrices(sub))
    return hashlib.blake2b(struct.pack(f"={len(keys)}q", *keys), digest_size=8).hexdigest()


def double_coset_reps_by_elements(amb, h, domain) -> list[int]:
    """One representative per H-double-coset in the domain, H's own excluded.

    domain is a group containing H, in any order; each double coset is
    represented by its first element there.  Each position x starts labelled
    with itself and takes the least label found at s * x, for every
    generator s of H, until no label falls: one lmul of the whole domain per
    generator.  Then label(x) <= label(s * x) for every s, so labels agree
    along each cycle of x -> s * x and hence on H x, and each is the first
    position of its right coset.  The double labels do the same from the
    right labels over x * s, one rmul per generator, and end as the first
    position of H x H.
    """
    domain = np.asarray(domain)
    pos = np.full(amb.order, -1, dtype=np.int64)
    pos[domain] = np.arange(domain.size)

    def least_over(labels, perms):
        while True:
            before = labels
            for perm in perms:
                labels = np.minimum(labels, labels[perm])
            if np.array_equal(labels, before):
                return labels

    right = least_over(np.arange(domain.size), [pos[amb.lmul(s, domain)] for s in h.generators])
    double = least_over(right, [pos[amb.rmul(domain, s)] for s in h.generators])
    own = double[pos[amb.identity_index]]
    firsts = np.flatnonzero(double == np.arange(domain.size))
    return domain[firsts[firsts != own]].tolist()


def element_closure(amb, h, g: int, right: dict | None = None) -> np.ndarray:
    """Sorted indices of <H, g>, by an orbit closure over elements seeded with H and g.

    Each generator s acts through x -> x * s on the whole ambient, one rmul
    per generator; right caches these permutations by s across calls.
    """
    right = {} if right is None else right
    perms = []
    for s in dict.fromkeys([*h.generators, int(g)]):
        if s not in right:
            right[s] = amb.rmul(np.arange(amb.order, dtype=np.int32), s)
        perms.append(right[s])
    seen = np.zeros(amb.order, dtype=bool)
    seen[h.indices] = True
    seen[[amb.identity_index, int(g)]] = True
    frontier = np.flatnonzero(seen)
    fresh = np.zeros(amb.order, dtype=bool)  # one buffer for every level
    while frontier.size:
        for perm in perms:
            fresh[perm[frontier]] = True
        # reached and not seen before; this clears the last level too, which is seen now
        np.greater(fresh, seen, out=fresh)
        np.logical_or(seen, fresh, out=seen)
        frontier = np.flatnonzero(fresh)
    return np.flatnonzero(seen).astype(np.int32)


def interval_by_elements(bottom, top) -> set[bytes]:
    """Index bytes of every subgroup between bottom and top, breadth first over elements."""
    amb = bottom.ambient
    members = {bottom.indices.tobytes(): bottom}
    queue = [bottom]
    right: dict = {}
    while queue:
        h = queue.pop(0)
        for g in double_coset_reps_by_elements(amb, h, top.indices):
            k = Subgroup(amb, element_closure(amb, h, g, right), [*h.generators, g])
            if k.indices.tobytes() not in members:
                members[k.indices.tobytes()] = k
                queue.append(k)
    return set(members)


def greedy_generators_from_scratch(sub) -> list[int]:
    """Greedy generators of a subgroup: each element not yet covered is picked, and the picks are closed from the identity."""
    amb = sub.ambient
    chosen: list[int] = []
    covered = np.zeros(amb.order, dtype=bool)
    covered[amb.identity_index] = True
    for x in sub.indices:
        if covered[x]:
            continue
        chosen.append(int(x))
        cl = _closure(amb, chosen)
        covered[:] = False
        covered[cl] = True
        if cl.size == sub.order:
            break
    return chosen


def with_generators(sub) -> Subgroup:
    """The subgroup again, carrying greedy generators: an element set, such as a brute normalizer, carries none."""
    return Subgroup(sub.ambient, sub.indices, greedy_generators_from_scratch(sub))


def normality_edges_by_pairs(members) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """(smaller id, larger id) of every pair a < b with a normal in b, and of every pair a < b."""
    edges = set()
    comparable = set()
    generated = {b.id: with_generators(b) for b in members}
    for a in members:
        for b in members:
            if a.order < b.order and a.is_subset_of(b):
                comparable.add((a.id, b.id))
                if is_normal_in(a, generated[b.id]):
                    edges.add((a.id, b.id))
    return edges, comparable


class UnionFind:
    """Disjoint sets of member ids, by parent links with path compression."""

    def __init__(self, items: Sequence[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def garlands_by_union_find(vertices, edges, bottom_id: str, top_id: str) -> list[tuple[tuple[str, ...], bool, bool]]:
    """(sorted member ids, is lower, is upper) of each component of the id graph, lower first, then upper, then by ids."""
    uf = UnionFind(vertices)
    for a, b in edges:
        uf.union(a, b)
    comps: dict[str, list[str]] = {}
    for v in vertices:
        comps.setdefault(uf.find(v), []).append(v)
    out = [(tuple(sorted(vs)), bottom_id in vs, top_id in vs) for vs in comps.values()]
    return sorted(out, key=lambda g: (not g[1], not g[2], g[0]))


def restriction_by_normalizers(spec: AlgebraSpec, gl, sl) -> dict:
    """The report's "restriction" block by the route that reads no [T, G] lattice.

    In each ambient, the torus's coset table over the whole ambient gives
    its normalizer N, and Lat(torus, N) is enumerated inside N.  The GL
    interval cut down to SL is then compared with the SL one.  The verdict
    is the graver of the identity's against its premise, that the span of
    the norm-one units holds every unit (norm_one_absorbs_units, from the
    elimination), and the equality's against the identity.
    """

    def interval(amb):
        torus = torus_subgroup(spec, amb)
        n = Subgroup(amb, CosetTable(torus, Subgroup(amb, np.arange(amb.order, dtype=np.int32))).normalizer())
        return n, enumerate_interval(torus, amb, within=n).members

    (n_gl, gl_interval), (n_sl, sl_interval) = interval(gl), interval(sl)
    premise = hypotheses_by_elimination(spec)["norm_one_absorbs_units"]
    identity = intersect_with_ambient(n_gl, sl).same_elements(n_sl)
    equal = {intersect_with_ambient(h, sl).indices.tobytes() for h in gl_interval} == {
        h.indices.tobytes() for h in sl_interval
    }
    return {
        "case": {**spec.serialize(), "n": spec.n, "q": spec.base.q},
        "intersection_identity_holds": identity,
        "equal": equal,
        "gl_interval_size": len(gl_interval),
        "sl_interval_size": len(sl_interval),
        "verdict": _gravest([(identity, premise), (equal, identity)]),
    }


def _gravest(checks) -> str:
    """The gravest verdict of (holds, must hold) pairs: an unexpected mismatch, an expected counterexample, or confirmed."""
    failed = [must for holds, must in checks if not holds]
    return "unexpected_mismatch" if any(failed) else "expected_counterexample" if failed else "confirmed"


def centralizer_brute(ambient, h) -> Subgroup:
    """{g : g x = x g for every x in h}, by scanning every ambient element."""
    ok = np.ones(ambient.order, dtype=bool)
    for x in h.generators:
        ok &= ambient.commute_mask(x)
    return Subgroup(ambient, np.nonzero(ok)[0])


def regular_rep_by_basis(spec: AlgebraSpec, a) -> FieldMatrix:
    """Matrix of right multiplication by the element with components a: column j holds the coordinates of e_j * a."""
    one = spec.base.one_index
    basis = [algebra_from_coords(spec, [one if i == j else 0 for i in range(spec.n)]) for j in range(spec.n)]
    cols = [coords_comps(spec, mul_comps(spec, e, a)) for e in basis]
    return FieldMatrix(spec.base, [list(row) for row in zip(*cols)])


def torus_by_units(spec: AlgebraSpec, ambient) -> np.ndarray:
    """Sorted ambient indices of t(u) for every unit u (norm-one units in SL), one matrix at a time."""
    one = spec.base.one_index
    idxs = [
        index_of(ambient, regular_rep_by_basis(spec, u))
        for u in algebra_comps(spec, units=True)
        if ambient.kind != SL or norm_comps(spec, u) == one
    ]
    return np.array(sorted(idxs), dtype=np.int32)


def formula_by_units(spec: AlgebraSpec, ambient) -> np.ndarray:
    """Sorted ambient indices of t(u) * P_sigma (determinant one in SL), one FieldMatrix product at a time."""
    one = spec.base.one_index
    perms = [FieldMatrix(spec.base, s.matrix().tolist()) for s in aut_group(spec)]
    idxs = set()
    for u in algebra_comps(spec, units=True):
        t = regular_rep_by_basis(spec, u)
        for pm in perms:
            prod = matrix_product(t, pm)
            if ambient.kind != SL or matrix_det(prod) == one:
                idxs.add(index_of(ambient, prod))
    return np.array(sorted(idxs), dtype=np.int32)


def formula_leaders_by_units(spec: AlgebraSpec, ambient) -> list[int]:
    """x_sigma for each automorphism sigma, in aut_group order: the first t(u) * P_sigma in the ambient, in unit order."""
    one = spec.base.one_index
    out = []
    for s in aut_group(spec):
        pm = FieldMatrix(spec.base, s.matrix().tolist())
        prods = (matrix_product(regular_rep_by_basis(spec, u), pm) for u in algebra_comps(spec, units=True))
        out.append(next(index_of(ambient, x) for x in prods if ambient.kind != SL or matrix_det(x) == one))
    return out


def exhaustive_negative_pell(d: int, y_max: int) -> tuple[int, int] | None:
    """Smallest-y solution of x^2 - d*y^2 = -1 with y <= y_max, by direct search."""
    for y in range(1, y_max + 1):
        x2 = d * y * y - 1
        x = isqrt(x2)
        if x * x == x2:
            return x, y
    return None


def continued_fraction_by_full_period(d: int) -> tuple[int, tuple[int, ...]]:
    """(a0, period) of sqrt(d), non-square d > 1, by the (P, Q) recurrence run until Q returns to 1."""
    a0 = isqrt(d)
    period = []
    p, q, a = 0, 1, a0
    while True:
        p = a * q - p
        q = (d - p * p) // q
        a = (a0 + p) // q
        period.append(a)
        if q == 1:
            return a0, tuple(period)


def convergents_by_terms(terms) -> tuple[int, int, int, int]:
    """p(k-1), q(k-1), pk, qk of [terms[0]; terms[1], ..., terms[k]], with p(-1)/q(-1) = 1/0, by the forward recurrence."""
    p_prev, q_prev, p, q = 1, 0, terms[0], 1
    for a in terms[1:]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p_prev, q_prev, p, q


def negative_pell_by_full_period(d: int) -> tuple[int, int] | None:
    """x^2 - d*y^2 = -1 from the convergent just before the end of an odd first period, else None."""
    a0, period = continued_fraction_by_full_period(d)
    if len(period) % 2 == 0:
        return None
    return convergents_by_terms([a0, *period[:-1]])[2:]


def negative_pell_by_midpoint_convergents(d: int) -> tuple[int, int] | None:
    """x^2 - d*y^2 = -1 from both convergent sequences at the middle of an odd period 2k + 1, else None.

    With pi/qi the convergents of [a0; a1 .. ak], x0 + y0*sqrt(d) =
    (p(k-1) + q(k-1)*sqrt(d)) * (pk + qk*sqrt(d)) / |p(k-1)^2 - d*q(k-1)^2|.
    """
    a0, period = continued_fraction_by_full_period(d)
    if len(period) % 2 == 0:
        return None
    p0, q0, p1, q1 = convergents_by_terms([a0, *period[: len(period) // 2]])
    mid = abs(p0 * p0 - d * q0 * q0)
    x, y = p0 * p1 + d * q0 * q1, p0 * q1 + p1 * q0
    if x % mid or y % mid:
        raise ValueError(f"midpoint convergents of sqrt({d}) give no integer solution")
    return x // mid, y // mid


def torus_point(d: int, t: Fraction) -> tuple[Fraction, Fraction]:
    """A rational point (x, y) with x^2 - d*y^2 = 1, from the line parameter t."""
    denom = 1 - d * t * t
    if denom == 0:
        raise ValueError("parameter hits the degenerate denominator")
    return (1 + d * t * t) / denom, 2 * t / denom


def _mat2(a, b, c, e):
    return ((a, b), (c, e))


def mat_mul2(A, B):
    return _mat2(
        A[0][0] * B[0][0] + A[0][1] * B[1][0],
        A[0][0] * B[0][1] + A[0][1] * B[1][1],
        A[1][0] * B[0][0] + A[1][1] * B[1][0],
        A[1][0] * B[0][1] + A[1][1] * B[1][1],
    )


def mat_inv2(A):
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    if det == 0:
        raise ValueError("singular matrix")
    return _mat2(A[1][1] / det, -A[0][1] / det, -A[1][0] / det, A[0][0] / det)


def in_torus_shape(d: int, M) -> bool:
    """Whether M = [[x, y*d], [y, x]] for some rationals with x^2 - d*y^2 = 1."""
    x, yd = M[0]
    y, x2 = M[1]
    return x == x2 and yd == y * d and x * x - d * y * y == 1
