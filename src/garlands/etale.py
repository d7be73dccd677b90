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
tables, which every field has: the span check, the SL cut of the torus and
the formula set's x_sigma all read it.  The span check reads each unit's
coordinates from column 0 of the same tables and finds both ranks, all
units' and the norm-one units', in one elimination over the base field's
dense tables.
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


@dataclass(frozen=True)
class SpanCheckResult:
    spans: bool
    rank: int
    witness: np.ndarray  # (rank, t) component rows of selected units spanning what they all span


def _pivots(base: FieldTable, rows: np.ndarray) -> np.ndarray:
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


def additive_span_check(spec: AlgebraSpec) -> tuple[SpanCheckResult, SpanCheckResult]:
    """k-linear spans of the units of S and of its norm-one units: is each all of S?

    Returns (units, norm_one), both from one elimination (_pivots).  The
    units are the rows of torus_units, the norm-one ones (unit_norm_logs 0)
    moved first, each part in unit order.  A unit's coordinates in the
    fixed k-basis are column 0 of its factors' multiplication blocks.  The
    pivots among the first m rows, m the count of norm-one units, give
    their rank, and all pivots the rank of all units.  A witness holds the
    pivot rows' units, in the order found; every selected unit lies in
    their span.
    """
    units = torus_units(spec)
    norm_one = unit_norm_logs(spec, units) == 0
    units = np.concatenate([units[norm_one], units[~norm_one]])
    rows = np.concatenate([e.mult_blocks()[units[:, i], :, 0] for i, e in enumerate(spec.extensions)], axis=1)
    pivots = _pivots(spec.base, rows)
    return tuple(
        SpanCheckResult(p.size == spec.n, p.size, units[p]) for p in (pivots, pivots[pivots < norm_one.sum()])
    )


def span_absorbs_units(spec: AlgebraSpec) -> bool:
    """Whether the span of the norm-one units contains every unit of S (it lies inside theirs): the ranks agree."""
    units, norm_one = additive_span_check(spec)
    return norm_one.rank == units.rank


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
