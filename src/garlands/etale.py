"""Direct sums of finite fields S = K_1 + ... + K_t over a base field k.

An element of S is a row of component indices, entry i an element index of
K_i's shared FieldTable; cases work on arrays of such rows.  The fixed
k-basis of S is the concatenation of the power bases 1, y, ..., y^(n_i - 1)
of the factors (y the canonical relative generator of each factor over k).
With that basis the regular embedding of S into n x n matrices over k is
block diagonal, idempotents of rank-1 factors are standard basis vectors,
and a quadratic factor presented by y^2 = d produces the classical
[[x, y*d], [y, x]] block.  Each factor holds one table of those blocks,
indexed by element (Extension.mult_blocks), and regular_rep_mats maps a
batch of component-index rows to block-diagonal index matrices with one
gather per factor.  Whether a unit has norm one is decided here only, by
its norm's logarithm (unit_norm_logs), read from the factors' exp/log
tables, which every field has: the SL cut of the torus and the formula
set's x_sigma both read it.  Whether the units, or the norm-one units,
span S over k is read off q and the degrees alone (additive_span_check),
so the hypothesis record lists no unit and builds no table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .finite_field import (
    Extension,
    FieldTable,
    check_power_cap,
    construct_extension,
    extension_of,
)


class AlgebraError(Exception):
    pass


class AlgebraCapError(AlgebraError):
    pass


class AlgebraSpec:
    """An etale algebra over a finite field, given by factor degrees."""

    __slots__ = ("base", "degrees", "n", "caps", "_extensions")

    def __init__(self, base: FieldTable, degrees: Sequence[int], caps: Caps = DEFAULT_CAPS):
        degrees = tuple(int(d) for d in degrees)
        if not degrees:
            raise AlgebraError("at least one factor required")
        if any(d < 1 for d in degrees):
            raise AlgebraError(f"factor degrees must be >= 1, got {degrees}")
        check_power_cap("algebra", base.q, sum(degrees), caps.algebra_order, AlgebraCapError)
        for d in degrees:
            check_power_cap("field", base.q, d, caps.field_order)
        self.base = base
        self.degrees = degrees
        self.n = sum(degrees)
        self.caps = caps
        self._extensions = None

    @property
    def extensions(self) -> tuple[Extension, ...]:
        """Each factor over the base, built on first use: the caps are checked before, in __init__."""
        if self._extensions is None:
            base, caps = self.base, self.caps
            self._extensions = tuple(extension_of(base, construct_extension(base, d, caps)) for d in self.degrees)
        return self._extensions

    # -- identity --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraSpec)
            and self.base == other.base
            and self.degrees == other.degrees
        )

    def __hash__(self) -> int:
        return hash((self.base, self.degrees))

    def __repr__(self) -> str:
        return f"AlgebraSpec(q={self.base.q}, degrees={self.degrees})"

    @property
    def order(self) -> int:
        return self.base.q**self.n

    def serialize(self) -> dict:
        return {"p": self.base.p, "base_degree": self.base.m, "degrees": list(self.degrees)}

    # -- elements as component rows ---------------------------------------------
    # an element of S is a row of factor indices, one per K_i; cases work on
    # arrays of unit rows, and the tests' one-element reference arithmetic
    # on such rows lives in tests/oracles.py, on coefficient polynomials

    def one_comps(self) -> tuple[int, ...]:
        return tuple(e.top.one_index for e in self.extensions)

    def regular_rep_mats(self, comps: np.ndarray) -> np.ndarray:
        """(N, n, n) block-diagonal base-field index matrices of right multiplication by (N, t) comps."""
        comps = np.asarray(comps).reshape(-1, len(self.degrees))
        out = np.zeros((comps.shape[0], self.n, self.n), dtype=np.int32)
        pos = 0
        for i, (e, d) in enumerate(zip(self.extensions, self.degrees)):
            out[:, pos : pos + d, pos : pos + d] = e.mult_blocks()[comps[:, i]]
            pos += d
        return out


@dataclass(frozen=True)
class RingAutomorphism:
    """A ring automorphism of S fixing the base field pointwise.

    perm[i] is the target slot of source factor i (degrees must match) and
    frob[i] the relative Frobenius power applied on the way.
    """

    spec: AlgebraSpec
    perm: tuple[int, ...]
    frob: tuple[int, ...]

    def matrix(self) -> np.ndarray:
        """(n, n) int16 index array of this k-linear map in the fixed basis (columns = images)."""
        spec = self.spec
        n = spec.n
        rows = np.zeros((n, n), dtype=np.int16)
        offsets = [0]
        for d in spec.degrees:
            offsets.append(offsets[-1] + d)
        for i, (target, e) in enumerate(zip(self.perm, self.frob)):
            ext = spec.extensions[i]
            ext._ensure_coords()
            for power in range(spec.degrees[i]):
                img = ext.rel_frobenius(ext._ypow[power], e)
                col = offsets[i] + power
                for row, c in enumerate(spec.extensions[target].coords(img)):
                    rows[offsets[target] + row, col] = c
        return rows


# ---------------------------------------------------------------------------
# operations


def torus_units(spec: AlgebraSpec) -> np.ndarray:
    """All invertible elements of S as (N, t) component indices, in canonical component order."""
    return np.indices([e.top.q - 1 for e in spec.extensions]).reshape(len(spec.degrees), -1).T + 1


def _norm_logs(spec: AlgebraSpec) -> list[int]:
    """l_i, the log in k of N(g_i) for g_i the primitive element of factor K_i."""
    return spec.base.logs([e.rel_norm(e.top.generator_index()) for e in spec.extensions]).tolist()


def unit_norm_logs(spec: AlgebraSpec, units: np.ndarray) -> np.ndarray:
    """log N(a) in k, mod q - 1, for each (N, t) unit row a: the one norm-one rule (log 0) of every case.

    A unit with K_i-logarithms a_i is prod g_i^a_i, so its norm has log
    sum l_i a_i, the l_i of _norm_logs.  det t(a) is N(a), so this also
    decides which t(a) lie in SL and which t(a) * P_sigma do.
    """
    logs = sum(l * e.top.logs(units[:, i]) for i, (l, e) in enumerate(zip(_norm_logs(spec), spec.extensions)))
    return logs % (spec.base.q - 1)


def torus_generators(spec: AlgebraSpec, norm_one: bool = False) -> np.ndarray:
    """Generators of S*, or with norm_one of its norm-one part, as (N, t) component rows; none is the identity.

    S* is the product of the cyclic K_i*, generated by the g_i: K_i's
    primitive element in slot i, 1 elsewhere.  With l_i the log in k of
    N(g_i), prod g_i^e_i has norm one iff sum l_i e_i = 0 mod q - 1; l_1 is
    prime to q - 1 (the norm K_1* -> k* is onto), so with u_j = l_j / l_1
    the norm-one part is generated by g_1^(q-1) and the g_j g_1^(-u_j).
    """
    exts = spec.extensions
    one = np.array(spec.one_comps())
    prim = [e.top.generator_index() for e in exts]
    rows = np.where(np.eye(len(exts), dtype=bool), prim, one)
    if norm_one:
        q, top = spec.base.q, exts[0].top
        logs = _norm_logs(spec)
        over = pow(logs[0], -1, q - 1)
        rows[0, 0] = top.pow_idx(prim[0], q - 1)
        rows[1:, 0] = [top.pow_idx(prim[0], -(log * over % (q - 1))) for log in logs[1:]]
    return rows[(rows != one).any(axis=1)]


def aut_group(spec: AlgebraSpec) -> list[RingAutomorphism]:
    """All ring automorphisms of S fixing k pointwise, built structurally.

    Degree-preserving factor permutations combined with a relative Frobenius
    power on each factor; the count is the product over degrees d of
    c_d! * d^c_d where c_d counts factors of degree d.
    """
    by_degree: dict[int, list[int]] = {}
    for i, d in enumerate(spec.degrees):
        by_degree.setdefault(d, []).append(i)
    class_perms = []
    classes = sorted(by_degree)
    for d in classes:
        slots = by_degree[d]
        class_perms.append([dict(zip(slots, img)) for img in itertools.permutations(slots)])
    autos = []
    for combo in itertools.product(*class_perms):
        perm = [0] * len(spec.degrees)
        for mapping in combo:
            for src, dst in mapping.items():
                perm[src] = dst
        for frob in itertools.product(*(range(d) for d in spec.degrees)):
            autos.append(RingAutomorphism(spec, tuple(perm), tuple(frob)))
    autos.sort(key=lambda s: (s.perm, s.frob))
    return autos


def additive_span_check(spec: AlgebraSpec) -> tuple[bool, bool]:
    """Do the units of S, and its norm-one units, span S over k?  (units_span, norm_one_span).

    With f2 = (q = 2 and at least two factors of degree 1) and f3 = (q = 3
    and degrees (1, 1)): units_span = not f2, norm_one_span = not (f2 or f3).

    Span of a subgroup.  The k-span A of a subgroup U of S* holds 1 and is
    closed under products, so it is a subalgebra.  If A maps onto every
    factor, it is the set of x with x_j = tau(x_i) for some pairs of factors
    identified through isomorphisms tau: K_i -> K_j, and A = S exactly when
    no two factors are identified.

    U = S*.  Each projection is K_i*, which spans K_i.  If x_j = tau(x_i) on
    all units, set x_i = 1: then K_j* = 1, so K_j = F_2.  This gives f2.

    U = T' = ker N.  For t >= 2 factors, each projection of T' is all of
    K_i*, since the norm of another factor is onto k*.  For t = 1, the
    norm-one group of F_(q^d) has (q^d - 1)/(q - 1) elements, more than
    q^e - 1 for any proper subfield F_(q^e), so it spans the field.
    Identifying two factors forces K_j = F_2 when t >= 3, since a third
    factor corrects the norm of any (x_i, x_j).  When t = 2, x_1 fixes its
    partner only if the norm-one group of K_2 is trivial, so d = 1; then
    T' = {(x, x^-1)}, and x^-1 = x on all of k* means q <= 3.  This adds
    f3.  As span(T') lies inside span(S*), T' spans S exactly when S* does
    and span(T') holds every unit (span_absorbs_units).
    """
    units_span = not (spec.base.q == 2 and spec.degrees.count(1) >= 2)
    return units_span, units_span and span_absorbs_units(spec)


def span_absorbs_units(spec: AlgebraSpec) -> bool:
    """Whether every unit of S is a k-combination of norm-one units: all but F_3 + F_3.

    span(T') lies inside span(S*).  When q = 2 the norm is trivial and
    T' = S*; otherwise S* spans S (additive_span_check), so this holds
    exactly when T' spans S, which fails only under f3.
    """
    return not (spec.base.q == 3 and spec.degrees == (1, 1))


def primitive_norm_one_search(base: FieldTable, ext_field: FieldTable) -> int | None:
    """Index of the first element of K (canonical order) of norm 1 that generates K over base."""
    ext = extension_of(base, ext_field)
    if ext.degree < 2:
        raise AlgebraError("K must be a proper extension of the base")
    for idx in range(1, ext_field.q):
        if ext.rel_norm(idx) == base.one_index and ext.orbit_size(idx) == ext.degree:
            return idx
    return None


def count_power_in_base(base: FieldTable, top: FieldTable, x: int, exponent: int) -> int:
    """Number of alpha in k with (x + alpha)^N in k, for x an element index of K = top.

    One pass over the shifts x + alpha, none zero since x lies outside k.
    k* is the subgroup of K* of order |k| - 1, so w^N lies in k exactly when
    N log(w) is a multiple of (|K| - 1) / (|k| - 1); the logs come from K's
    exp/log table.
    Preconditions reported distinctly: x outside the base, gcd(N, p) = 1,
    |k| > N, N >= 1.
    """
    ext = extension_of(base, top)
    if exponent < 1:
        raise AlgebraError(f"exponent must be >= 1, got {exponent}")
    if ext.contains(x):
        raise AlgebraError("x must lie outside the base field")
    if exponent % base.p == 0:
        raise AlgebraError(f"exponent {exponent} is divisible by the characteristic {base.p}")
    if base.q <= exponent:
        raise AlgebraError(f"base field of order {base.q} too small for exponent {exponent}")
    step = (top.q - 1) // (base.q - 1)
    logs = top.logs(top.add_each(x, ext.embed))
    return int(np.count_nonzero(logs * (exponent % step) % step == 0))
