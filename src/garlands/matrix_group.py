"""Finite matrix groups over F_q: closure, coset tables, normalizers, tori.

Ambient groups GL(n,q) / SL(n,q) are enumerated once (within the configured
cap) and all heavy scans run vectorized over element indices: a matrix is an
(n, n) array of field element indices, products go through dense add/mul
tables of the coefficient field, and membership tests use a base-q key
lookup table.  The enumeration goes row by row, already in key order: each
prefix of n-1 rows, in code order, is kept when its cofactor vector c (its
n maximal minors) is nonzero, and its last rows are the x with c . x != 0
(GL) or c . x = 1 (SL), since the determinant is linear in the last row;
no other matrix is listed, and no non-member's determinant is taken.  One
memo of minors per batch (_Minors) gives those cofactors, the determinants
of the SL cut, and the inverse table as adjugate over determinant, built
with the ambient.  The sorted keys are stored, so a subgroup's keys are a
gather.  Matrices are (n, n) index arrays throughout: the identity's index
is the lookup of the diagonal's key, and no other matrix type exists here.

Every product of ambient elements on the case path is a right product
through a factor table (RightProducts).  Row i of x * f is (row i of x) * f, and the
ambient keeps each element's row codes (the base-q^n digits of its key),
so one small product of the q^n row vectors by a call site's few factors
gives code(v * f) for every row vector v and factor f, and key(x * f) is a
sum of looked-up codes.  A call site (a closure, an extend_level call,
a conjugation batch) builds its table once; each breadth-first level is
then gathers only, one call however many generators or closures it
advances.  rmul is the same path with a table of one factor (or of a
paired array's distinct values); lmul and conjugation go through the
inverse table, as g * x = (x^-1 * g^-1)^-1, so g * x * g^-1 is two right
products by g^-1 that share one table.
Closures run breadth first over ambient indices, dropping repeats with a
slot array instead of a sort; a CosetTable numbers the right cosets of a
subgroup H inside a larger one (top) by their least positions in top, and
its double cosets over those numbers, so extend_level can close <H, g>
for the H of many tables and many g together over double cosets of H
instead of over elements.  A table's cosets come over positions, as orbit
minima under left permutations (doubling along each, for the bottom of
an interval, and hooked onto the bottom's cosets for a member above it).
The root table (the one seeded by no other) holds top's positions and
the right permutations those left permutations are read from, and every
table seeded from it shares both, so the tables of one
enumeration make one product of top per distinct generator, and the
memo goes with them; <H, g> keeps H's generators plus g.  A subgroup
holds no memo.

The torus T = t(S*) is one batch of regular-representation matrices
(AlgebraSpec.regular_rep_mats) and one lookup.  det t(a) is the norm of a,
so an SL ambient keeps the units of norm one, as etale decides it
(unit_norm_logs), and takes no determinant.  The formula normalizer
{t(a) * P_sigma} is built from the case's T: the union of the cosets
T x_sigma, one x_sigma per automorphism, by right products.  Only the
stacked P_sigma have their determinants taken, to pick the SL x_sigma.
No subgroup searches for generators: these two take theirs from the
algebra.

A subgroup is its ambient plus its sorted ambient indices, and membership
is a sorted search in them.  Two subgroups are equal exactly when they share
the ambient and the index array, and comparing subgroups of different
ambients is an error (cut one down with intersect_with_ambient first).
Ambients are equal when their element sets are (SL = GL over F_2), and
ambient order is matrix-key order, so equal ambients agree on indices and
the report id, a digest of the matrix keys, is the same in GL and in SL.
The matrix key (row-major entries as one base-q integer, below
q^(n*n) <= 80M, so int32 holds it) is encoded only in AmbientGroup: by the
enumeration and by keys_of_mats.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .etale import AlgebraSpec, aut_group, torus_generators, torus_units, unit_norm_logs
from .finite_field import FieldTable

GL = "GL"
SL = "SL"


class GroupError(Exception):
    pass


class GroupCapError(GroupError):
    """Carries the offending order in .order."""

    def __init__(self, msg: str, order: int | None = None):
        super().__init__(msg)
        self.order = order


class NonMemberError(GroupError):
    pass


class NotAbelianError(GroupError):
    pass


class HypothesisFailure(GroupError):
    """A structural prediction failed to close; carries a report payload."""

    def __init__(self, msg: str, payload: dict):
        super().__init__(msg)
        self.payload = payload


def gl_order(n: int, q: int) -> int:
    out = 1
    qn = q**n
    for i in range(n):
        out *= qn - q**i
    return out


def sl_order(n: int, q: int) -> int:
    return gl_order(n, q) // (q - 1)


def _mat_mul(field: FieldTable, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Index-level matrix product; A, B are (..., n, n) int arrays."""
    if field.m == 1:
        p = field.p
        return ((A.astype(np.int32) @ B.astype(np.int32)) % p).astype(np.int16)
    MUL = field.np_mul()
    ADD = field.np_add()
    n = A.shape[-1]
    Bt = np.swapaxes(B, -1, -2)
    term = MUL[A[..., :, None, :], Bt[..., None, :, :]]
    out = term[..., 0]
    for k in range(1, n):
        out = ADD[out, term[..., k]]
    return out


class _Minors:
    """minors(rows, cols): the determinant of A's square submatrix on two bitmasks, memoized.

    A is a batch of (..., k, n) index matrices.  A minor expands along its
    last row r: the sum over its columns c of +-A[r, c] * minor(rows - r,
    cols - c), negated when an odd number of its columns follow c.  Each
    (rows, cols) is computed once, as an int16 array over the batch, by
    lookups in the field's flattened mul/add tables.  The memo goes with the
    object, which holds no reference to itself, so it is freed on return.
    """

    def __init__(self, field: FieldTable, A: np.ndarray):
        self.q, self.n = field.q, A.shape[-1]
        mul, self.neg = field.np_mul().ravel(), field.np_neg()
        self.signed = (mul, self.neg.take(mul))  # a * b and -(a * b) at a * q + b
        self.add = field.np_add().ravel()
        self.entries = np.ascontiguousarray(np.moveaxis(A, (-2, -1), (0, 1)))  # entries[r, c]: one contiguous batch
        self.scaled = self.entries.astype(np.int32) * self.q
        self.memo = {0: np.full(A.shape[:-2], field.one_index, dtype=np.int16)}  # the empty minor

    def __call__(self, rows: int, cols: int) -> np.ndarray:
        key = rows << self.n | cols
        if key in self.memo:
            return self.memo[key]
        r = rows.bit_length() - 1
        if rows == 1 << r:
            return self.entries[r, cols.bit_length() - 1]
        acc = None
        for after, c in enumerate(c for c in reversed(range(self.n)) if cols >> c & 1):
            term = self.signed[after % 2].take(self.scaled[r, c] + self(rows ^ 1 << r, cols ^ 1 << c))
            acc = term if acc is None else self.add.take(acc.astype(np.int32) * self.q + term)
        self.memo[key] = acc
        return acc

    def cofactor(self, i: int, j: int) -> np.ndarray:
        """(-1)^(i+j) times the minor without row i and column j; row i of A is not read, so it may be absent."""
        full = (1 << self.n) - 1
        minor = self(full ^ 1 << i, full ^ 1 << j)
        return self.neg.take(minor) if (i + j) % 2 else minor


def _det(field: FieldTable, A: np.ndarray) -> np.ndarray:
    """Determinants of (..., n, n) index matrices."""
    full = (1 << A.shape[-1]) - 1
    return _Minors(field, A)(full, full)


def _inv_mats(field: FieldTable, A: np.ndarray) -> np.ndarray:
    """Inverses of (..., n, n) invertible index matrices: adjugate over determinant, from one memo of minors."""
    n = A.shape[-1]
    minors, full = _Minors(field, A), (1 << n) - 1
    det_inv = field.np_inv().take(minors(full, full)).astype(np.int32) * field.q
    mul = field.np_mul().ravel()
    out = np.empty_like(A)
    for i in range(n):
        for j in range(n):
            out[..., i, j] = mul.take(det_inv + minors.cofactor(j, i))  # adj[i][j] is the (j, i) cofactor
    return out


def _last_rows(field: FieldTable, kind: str, leading: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (P, n-1, n) leading rows that are independent, and the codes of their last rows x, ascending.

    det = c . x for the leading rows' last-row cofactors c, and c is nonzero
    exactly when the rows are independent.  With t the last nonzero place
    of c, x's places after t are free, and its places before t (its head)
    fix c_t x_t: GL bars the one x_t with c . x = 0 and SL takes the one
    with c . x = 1.  So in code order of head, x_t and tail the codes ascend.
    """
    q, n = field.q, leading.shape[-1]
    minors = _Minors(field, leading)
    cof = np.stack([minors.cofactor(n - 1, t) for t in range(n)], axis=-1)
    del minors  # the memo goes before the output is allocated
    live = np.flatnonzero(cof.any(axis=1)).astype(np.int32)
    cof = cof[live]
    mul, add, neg, inv = field.np_mul().ravel(), field.np_add().ravel(), field.np_neg(), field.np_inv()
    per = q ** (n - 1) if kind == SL else q**n - q ** (n - 1)
    out = np.empty((live.size, per), dtype=np.int32)
    pivot = n - 1 - np.argmax(cof[:, ::-1] != 0, axis=1)
    for t in range(n):
        at = np.flatnonzero(pivot == t)
        heads = np.arange(q**t, dtype=np.int32)
        dot = np.zeros((at.size, heads.size), dtype=np.int16)  # c . x over the head's places
        for s in range(t):
            term = mul.take(cof[at, s, None].astype(np.int32) * q + heads // q ** (t - 1 - s) % q)
            dot = add.take(dot.astype(np.int32) * q + term)
        rhs = neg.take(dot)  # GL: c_t x_t != -dot
        if kind == SL:  # SL: c_t x_t = 1 - dot
            rhs = add.take(rhs.astype(np.int32) + field.one_index * q)
        xt = mul.take(inv.take(cof[at, t]).astype(np.int32)[:, None] * q + rhs)[..., None]
        if kind == GL:  # every other value, in order
            xt = np.arange(q - 1, dtype=np.int16) + (np.arange(q - 1) >= xt)
        codes = (heads * q ** (n - t))[:, None] + xt.astype(np.int32) * q ** (n - 1 - t)
        out[at] = (codes[..., None] + np.arange(q ** (n - 1 - t), dtype=np.int32)).reshape(at.size, per)
    return live, out


class AmbientGroup:
    """GL(n, q) or SL(n, q) with vectorized element-level machinery."""

    def __init__(self, kind: str, n: int, field: FieldTable, caps: Caps = DEFAULT_CAPS):
        if kind not in (GL, SL):
            raise GroupError(f"kind must be GL or SL, got {kind!r}")
        if n < 1:
            raise GroupError(f"matrix size must be >= 1, got {n}")
        self.kind = kind
        self.n = n
        self.field = field
        self.caps = caps  # so a GL case can reach the SL ambient run_case builds under the same caps
        self.order = gl_order(n, field.q) if kind == GL else sl_order(n, field.q)
        if self.order > caps.group_order:
            raise GroupCapError(
                f"{kind}({n},{field.q}) has order {self.order}, cap is {caps.group_order}",
                order=self.order,
            )
        candidates = field.q ** (n * n)  # the dense key table holds 4 bytes for every candidate matrix
        if candidates > 80_000_000:
            raise GroupCapError(f"cannot enumerate {self!r}: {candidates} candidate matrices")
        self._keys: np.ndarray | None = None  # set last by _ensure, which builds everything below
        self._mats: np.ndarray | None = None
        self._lut: np.ndarray | None = None
        self._keypow: np.ndarray | None = None
        self._rows: np.ndarray | None = None
        self._rowvecs: np.ndarray | None = None
        self._inv: np.ndarray | None = None
        self._identity: int | None = None

    def __repr__(self) -> str:
        return f"{self.kind}({self.n},{self.field.q})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AmbientGroup)
            and self.n == other.n
            and self.field == other.field
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((self.n, self.field, self.order))  # SL is inside GL, so equal orders mean the same set

    # -- enumeration ------------------------------------------------------------

    def _ensure(self) -> None:
        """Enumerate the ambient, with its key lookup, row codes and inverse table, in one step."""
        if self._keys is not None:
            return
        q, n = self.field.q, self.n
        qn = q**n
        # the row vector of each code, and every choice of the leading n-1 rows in code order
        vecs = (np.arange(qn)[:, None] // q ** np.arange(n - 1, -1, -1) % q).astype(np.int16)
        prefix = np.arange(qn ** (n - 1), dtype=np.int32)
        leading = np.empty((n - 1, prefix.size), dtype=np.int32)
        for i in range(n - 1):
            leading[i] = prefix // qn ** (n - 2 - i) % qn
        live, last = _last_rows(self.field, self.kind, vecs[leading.T])
        if last.size != self.order:
            raise GroupError(f"enumeration mismatch for {self!r}: {last.size} != {self.order}")
        # row codes: the base-q^n digits of each key, most significant (row 0) first
        rows = np.empty((n, self.order), dtype=np.int32)
        for i in range(n - 1):
            rows[i] = np.repeat(leading[i, live], last.shape[1])
        rows[n - 1] = last.reshape(-1)
        keys = (live.astype(np.int64)[:, None] * qn + last).reshape(-1)  # ascending, as prefixes and rows ascend
        del last  # before the matrices and the key table are allocated
        mats = np.empty((self.order, n, n), dtype=np.int16)
        for i in range(n):
            mats[:, i] = vecs.take(rows[i], axis=0)
        lut = np.full(q ** (n * n), -1, dtype=np.int32)
        lut[keys] = np.arange(self.order, dtype=np.int32)
        keypow = np.array([q ** (n * n - 1 - i) for i in range(n * n)], dtype=np.int64)
        step = 1 << 16  # bounds the minors and the key products of a whole large ambient
        chunks = (mats[s : s + step] for s in range(0, self.order, step))
        inv = [lut.take(_inv_mats(self.field, m).reshape(-1, n * n) @ keypow) for m in chunks]
        self._rows, self._mats, self._lut, self._keypow, self._rowvecs = rows, mats, lut, keypow, vecs[:, None, :]
        self._inv = np.concatenate(inv)
        self._identity = int(lut[keypow[:: n + 1].sum() * self.field.one_index])  # the diagonal's places
        self._keys = keys

    @property
    def identity_index(self) -> int:
        self._ensure()
        return self._identity

    def mats(self) -> np.ndarray:
        self._ensure()
        return self._mats

    def inv_indices(self) -> np.ndarray:
        self._ensure()
        return self._inv

    # -- lookups ----------------------------------------------------------------

    def keys_of_mats(self, mats: np.ndarray) -> np.ndarray:
        """Keys of (..., n, n) index matrices: the row-major entries, one int64 dot with their place values."""
        self._ensure()
        return mats.reshape(-1, self.n * self.n) @ self._keypow

    def indices_of_mats(self, mats: np.ndarray) -> np.ndarray:
        """Ambient indices of (N, n, n) member matrices."""
        return self._indices_of_keys(self.keys_of_mats(mats))  # enumerates the ambient before _lut is read

    def indices_of_ambient(self, inner: "AmbientGroup") -> np.ndarray:
        """This ambient's index of each element of inner, an ambient inside it (SL in GL): one key lookup.

        Both ambients are in key order, so the result ascends, and it maps
        a sorted index array of inner to a sorted index array here.
        """
        inner._ensure()
        self._ensure()
        return self._indices_of_keys(inner._keys)

    def _indices_of_keys(self, keys: np.ndarray) -> np.ndarray:
        idx = self._lut.take(keys)
        if (idx < 0).any():
            raise NonMemberError("matrix outside the ambient group")
        return idx

    def keys_of_indices(self, idxs: np.ndarray) -> np.ndarray:
        self._ensure()
        return np.take(self._keys, idxs)

    # -- batched group operations -------------------------------------------------

    def rmul(self, idxs: np.ndarray, g: int | np.ndarray) -> np.ndarray:
        """Indices of x * g for each x in idxs; an index array g pairs elementwise with idxs.

        One RightProducts table of g's distinct values.  A call site that
        multiplies by the same few factors on every breadth-first level
        builds its table once and calls it instead: a table rebuilt on
        every level can cost more than the products it serves (large-q).
        """
        if np.ndim(g):
            factors, which = np.unique(g, return_inverse=True)  # only tests pair factors with rmul
            return RightProducts(self, factors)(idxs, which)
        return RightProducts(self, [g])(idxs)

    def lmul(self, g: int | np.ndarray, idxs: np.ndarray) -> np.ndarray:
        """Indices of g * x for each x in idxs, as (x^-1 * g^-1)^-1; an index array g pairs elementwise with idxs."""
        inv = self.inv_indices()
        return inv.take(self.rmul(inv.take(idxs), inv[g]))

    def conjugate_by(self, gs: np.ndarray, which: np.ndarray, idxs: np.ndarray) -> np.ndarray:
        """Indices of g * x * g^-1 with g = gs[which[i]] for each x = idxs[i].

        g * x * g^-1 = (x^-1 * g^-1)^-1 * g^-1: two right products by g^-1
        that share one table of the inverses of gs.
        """
        inv = self.inv_indices()
        by = RightProducts(self, inv.take(gs))
        return by(inv.take(by(inv.take(idxs), which)), which)

    def conjugates(self, gens: Sequence[int], idxs: np.ndarray) -> np.ndarray:
        """(len(gens), len(idxs)) indices of g * x * g^-1, from one conjugate_by call."""
        gens = np.asarray(gens, dtype=np.int32)
        idxs = np.asarray(idxs, dtype=np.int32)
        which = np.repeat(np.arange(gens.size, dtype=np.int32), idxs.size)
        return self.conjugate_by(gens, which, np.tile(idxs, gens.size)).reshape(gens.size, idxs.size)

    def conj_by_all(self, x: int) -> np.ndarray:
        """Indices of g * x * g^-1 for every ambient g, in ambient order."""
        self._ensure()
        inv = self.inv_indices()
        left = _mat_mul(self.field, self._mats, self._mats[x])
        conj = _mat_mul(self.field, left, self._mats[inv])
        return self.indices_of_mats(conj)

    def commute_mask(self, x: int) -> np.ndarray:
        """Boolean mask over ambient g of g*x == x*g, that is g * x * g^-1 == x."""
        return self.conj_by_all(x) == x


class RightProducts:
    """Right multiplication by a few factors f_0, f_1, ..., as gathers.

    Row i of x * f is (row i of x) * f.  So one small product of the q^n
    row vectors v by every factor gives code(v * f_j) for all v and j, and
    key(x * f_j) is the sum over rows i of place_i * code(row_i(x) * f_j):
    n gathers at x's row codes, offset by j * q^n, then one key lookup.
    """

    __slots__ = ("amb", "span", "weighted")

    def __init__(self, amb: AmbientGroup, factors: Sequence[int] | np.ndarray):
        amb._ensure()
        n = amb.n
        place = amb._keypow.reshape(n, n)  # place[i, n-1] weighs row i's code, place[-1] a row's digits
        vf = _mat_mul(amb.field, amb._rowvecs, amb._mats[np.asarray(factors, dtype=np.int32)][:, None])
        codes = (vf.reshape(-1, n) @ place[-1]).astype(np.int32)  # code(v * f_j) at j * q^n + code(v)
        self.amb = amb
        self.span = amb._rowvecs.shape[0]
        self.weighted = [codes * np.int32(place[i, n - 1]) for i in range(n)]  # keys stay below q^(n*n) <= 80M

    def __call__(self, idxs: np.ndarray, which: int | np.ndarray = 0) -> np.ndarray:
        """Indices of x * f_which for each x in idxs; an index array which pairs elementwise with idxs."""
        offset = np.multiply(which, self.span, dtype=np.int32)
        keys = None
        for rows, weighted in zip(self.amb._rows, self.weighted):
            # ndarray.take: numpy's [] gathers cast int32 indices first, at about twice the cost
            at = rows.take(idxs)
            if offset.ndim or offset:
                at += offset
            part = weighted.take(at)
            if keys is None:
                keys = part
            else:
                keys += part
        return self.amb._indices_of_keys(keys)


@lru_cache(maxsize=None)
def _shared_ambient(kind: str, n: int, field: FieldTable, caps: Caps) -> AmbientGroup:
    return AmbientGroup(kind, n, field, caps)


def ambient_group(kind: str, n: int, field: FieldTable, caps: Caps = DEFAULT_CAPS) -> AmbientGroup:
    """Shared, lazily-enumerated ambient group instance."""
    return _shared_ambient(kind, n, field, caps)


class Subgroup:
    """A subgroup of an ambient group, stored as sorted ambient indices."""

    __slots__ = ("ambient", "indices", "_id", "_gens")

    def __init__(
        self, ambient: AmbientGroup, indices: Sequence[int] | np.ndarray, generators: Sequence[int] | None = None
    ):
        idx = np.array(indices, dtype=np.int32)
        if not (idx[1:] > idx[:-1]).all():
            idx = np.sort(idx)  # not np.unique, whose first call imports numpy.ma (about 15 ms)
            idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))]
        self._hold(ambient, idx, generators)

    @classmethod
    def of_sorted(
        cls, ambient: AmbientGroup, indices: np.ndarray, generators: Sequence[int] | None = None
    ) -> "Subgroup":
        """A subgroup of an int32 index array, strictly increasing by construction, held with no copy and no scan.

        For a mask's selection from sorted indices, or the sorted rows of a
        bijective image; the tests check that every member of an
        enumeration is strictly increasing int32.  The array is
        shared, not copied, so nothing writes to it afterwards.
        """
        out = cls.__new__(cls)
        out._hold(ambient, indices, generators)
        return out

    def _hold(self, ambient: AmbientGroup, idx: np.ndarray, generators: Sequence[int] | None) -> None:
        if idx.size == 0:
            raise GroupError("a subgroup contains at least the identity")
        if ambient.order % idx.size != 0:
            raise GroupError(f"order {idx.size} does not divide ambient order {ambient.order}")
        self.ambient = ambient
        self.indices = idx
        self._id = None
        self._gens = None if generators is None else [int(g) for g in generators]

    @property
    def order(self) -> int:
        return int(self.indices.size)

    def contains(self, idxs: np.ndarray) -> np.ndarray:
        """Whether each ambient index in idxs lies in this subgroup, by sorted search."""
        return np.take(self.indices, np.searchsorted(self.indices, idxs), mode="clip") == idxs

    def positions(self) -> np.ndarray:
        """Ambient index -> its position in the sorted indices, -1 outside; built anew on every call."""
        pos = np.full(self.ambient.order, -1, dtype=np.int32)
        pos[self.indices] = np.arange(self.order, dtype=np.int32)
        return pos

    def with_ambient(self, ambient: AmbientGroup) -> "Subgroup":
        """This element set under an equal ambient object (SL(n,2) for GL(n,2)), with its generators and id."""
        if ambient is self.ambient:
            return self
        if ambient != self.ambient:
            raise GroupError("subgroups of different ambient groups")
        out = Subgroup(ambient, self.indices, self._gens)
        out._id = self._id
        return out

    def key_tuple(self) -> bytes:
        """Matrix keys as int64 bytes, ascending because ambient order is key order."""
        return self.ambient.keys_of_indices(self.indices).tobytes()

    @property
    def id(self) -> str:
        """Digest of the matrix keys; the same matrix set has the same id in GL and SL."""
        if self._id is None:
            self._id = _digest(self.key_tuple())
        return self._id

    @staticmethod
    def digest_ids(subgroups: Sequence["Subgroup"]) -> None:
        """Give each subgroup that lacks one its id, from one key gather over all of them; they share an ambient."""
        todo = [s for s in subgroups if s._id is None]
        if not todo:
            return
        keys = todo[0].ambient.keys_of_indices(np.concatenate([s.indices for s in todo]))
        for s, end in zip(todo, accumulate(s.order for s in todo)):
            s._id = _digest(keys[end - s.order : end])  # a contiguous slice hashes as its bytes, uncopied

    def same_elements(self, other: "Subgroup") -> bool:
        _require_same_ambient(self, other)
        return np.array_equal(self.indices, other.indices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.ambient == other.ambient
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, ambient={self.ambient!r})"

    def is_subset_of(self, other: "Subgroup") -> bool:
        _require_same_ambient(self, other)
        return bool(other.contains(self.indices).all())

    @property
    def generators(self) -> list[int]:
        """As built by torus_subgroup, normalizer_formula or from extend_level's closures; an element set has none."""
        if self._gens is None:
            raise GroupError(f"{self!r} was built from its elements and carries no generators")
        return self._gens


# entries in one block of work (16 MB of 4-byte entries): extend_level's
# claim array of one run and its block of closure masks (1-byte entries),
# and, in the lattice, the positions of the coset tables one extend_level
# call joins and a column block of the normality graph's membership product
_BLOCK_ENTRIES = 1 << 22


def _digest(keys: bytes | np.ndarray) -> str:
    return hashlib.blake2b(keys, digest_size=8).hexdigest()


def _claim_fresh(cand: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The distinct entries of cand whose slot is still -1, now claimed (slot >= 0 marks seen).

    Each claimed slot holds the position of its last occurrence in cand, so
    keeping the entries that own their slot drops repeats without a sort.
    """
    cand = cand[slot[cand] < 0]
    order = np.arange(cand.size, dtype=np.int32)
    slot[cand] = order
    return cand[slot[cand] == order]


def _closure(amb: AmbientGroup, gen_idxs: Sequence[int]) -> np.ndarray:
    """Sorted indices of the subgroup generated by gens (breadth-first orbit of the identity)."""
    amb._ensure()
    gens = np.array(list(dict.fromkeys(int(g) for g in gen_idxs)), dtype=np.int32)
    slot = np.full(amb.order, -1, dtype=np.int32)
    frontier = _claim_fresh(np.array([amb.identity_index, *gens], dtype=np.int32), slot)
    by = RightProducts(amb, gens)
    while frontier.size and gens.size:
        # x * g for every g and every frontier x, g-major, in one call
        which = np.repeat(np.arange(gens.size, dtype=np.int32), frontier.size)
        frontier = _claim_fresh(by(np.tile(frontier, gens.size), which), slot)
    return np.flatnonzero(slot >= 0).astype(np.int32)


def _orbit_minima(labels: np.ndarray, perms: Sequence[np.ndarray]) -> np.ndarray:
    """Least position of each class of the equivalence joining x to labels[x] and to p[x].

    labels must satisfy labels[x] <= x and labels[labels] == labels
    (np.arange qualifies); p runs over perms.  Labels constant along every
    p (labels[p] == labels) are constant on classes, and as each is its own
    label and no larger than x, each is its class's least position: that
    ends the loop.  Otherwise a round hooks the label of p[x] onto the label
    of x when that is smaller (np.minimum.at), then pointer-jumps until
    every label is its own label.  Labels only fall and stay inside their
    class, so the rounds end.
    """
    while not all(np.array_equal(labels.take(p), labels) for p in perms):
        labels = labels.copy()
        # ndarray.take here and in the coset tables: [] on int32 indices costs about twice as much
        for p in perms:
            np.minimum.at(labels, labels.take(p), labels)
        labels = _jump(labels)
    return labels


def _jump(labels: np.ndarray) -> np.ndarray:
    """Pointer-jump labels[x] <= x until every label is its own label."""
    while True:
        jumped = labels.take(labels)
        if np.array_equal(jumped, labels):
            return labels
        labels = jumped


def _cycle_minima(perms: Sequence[np.ndarray], size: int) -> np.ndarray:
    """_orbit_minima(np.arange(size), perms), with each p's cycles first taken whole by window-minimum doubling.

    Along p, labels = min(labels, labels[p]) and then p = p[p]: after k
    rounds labels[x] is the least position among x, p(x), ...,
    p^(2^k - 1)(x).  Once a round lowers nothing, labels are constant on
    every cycle of p^(2^k), whose windows of 2^k steps cover the cycle of p,
    so each label is its p-cycle's least: a p of order d takes at most
    ceil(log2 d) + 1 rounds of gathers.  Every label stays inside its orbit,
    so joining x to labels[x] and to p[x] joins exactly the orbits, and
    after a pointer jump _orbit_minima finishes exactly for any perms.  When
    they commute (an abelian group acting from the left), the cycles of one
    p taken over the cycle minima of the others already are the orbit
    minima, and the finishing pass only checks that.  The start is
    np.arange: from other labels, lowering labels[x] would drop the link
    from x to its old label.
    """
    labels = np.arange(size, dtype=np.int32)
    for p in perms:
        while True:
            ahead = labels.take(p)
            if not (ahead < labels).any():
                break
            np.minimum(labels, ahead, out=labels)
            p = p.take(p)
    return _orbit_minima(_jump(labels), perms)


class CosetTable:
    """Right and double cosets of a subgroup H inside a subgroup top containing it.

    Right cosets are indexed by position 0..|top|-1 in top's sorted ambient
    indices, so position order is ambient order.  `leaders` are the least
    positions of the right cosets, one per coset, ascending, and `coset[x]`
    is the number of x's right coset H x, the rank of its leader, so
    leaders[coset[x]] is the least position of H x.  `positions` maps an
    ambient index to its position in top (-1 outside).

    Double cosets are computed over those numbers, not over positions: H x H
    is a union of right cosets, and right multiplication by H's i-th
    generator s_i maps right cosets to right cosets, coset c to
    `coset_right[i][c]`, the coset of leaders[c] * s_i.  `double[c]` is the
    least coset number of the double coset holding coset c, its orbit
    minimum under those maps, and as coset numbers ascend with their
    leaders, leaders[double[c]] is the least position of that double coset.
    The double cosets are numbered in the order of those least cosets:
    `dnum[c]` is the number of coset c's double coset, `dwidth[d]` the count
    of right cosets in double coset d, and `by_double` the coset numbers
    grouped by double coset, one ascending run per number, each run starting
    at the sum of the widths before it.  extend_level closes <H, g> over
    double coset numbers, and the double cosets give the g worth adjoining.
    H x H = H x exactly when x normalizes H, so the double cosets that are
    single right cosets make up N_top(H).

    H x is the orbit of x under left multiplication by the generators'
    inverses, x -> (x^-1 * s_i)^-1, which is the permutation right_perm(s_i)
    (x -> x * s_i) conjugated by inversion, and each position's least coset
    position is an orbit minimum under those left permutations, taken by
    doubling (_cycle_minima).  coset_right reads the right permutations at
    the leaders.  below, if given, is the table of a subgroup T of H over
    the same top.  Each right coset of H is a union of right cosets of T,
    and H is generated by T and H's generators outside T, so a seeded table
    hooks only those generators' left permutations onto T's least coset
    positions, leaders[coset] of below (_orbit_minima).

    The root table, seeded by none, builds top's positions and a memo of
    right permutations, one per distinct s; every table seeded from it
    shares both, so the tables of one enumeration make one product of the
    whole top per distinct generator.  The memo holds (distinct s) *
    |top| * 4 bytes and goes with the tables.
    """

    __slots__ = (
        "h", "top", "positions", "_right", "leaders", "coset", "coset_right", "double", "dnum", "dwidth", "by_double"
    )

    def __init__(self, h: Subgroup, top: Subgroup, below: "CosetTable | None" = None):
        if not h.is_subset_of(top):
            raise GroupError("a coset table needs H inside the top")
        self.h = h
        self.top = top
        if below is not None:
            if below.top is not top and below.top != top:
                raise GroupError("a seed table needs the same top")
            if not below.h.is_subset_of(h):
                raise GroupError("a seed table needs a subgroup of H")
            self.positions, self._right = below.positions, below._right
        else:
            self.positions, self._right = top.positions(), {}
        right = [self.right_perm(s) for s in h.generators]
        fresh = right
        if below is not None:
            inside = below.h.contains(np.array(h.generators, dtype=np.int32))
            fresh = [r for r, s_inside in zip(right, inside) if not s_inside]
        left = []
        if fresh:
            inverse = self.positions.take(h.ambient.inv_indices().take(top.indices))
            left = [inverse.take(r.take(inverse)) for r in fresh]
        if below is None:
            labels = _cycle_minima(left, top.order)
        else:
            labels = _orbit_minima(below.leaders.take(below.coset), left)
        leads = labels == np.arange(top.order)
        self.leaders = np.flatnonzero(leads)
        self.coset = (np.cumsum(leads, dtype=np.int32) - 1).take(labels)
        self.coset_right = [self.coset.take(r.take(self.leaders)) for r in right]
        ncos = self.leaders.size
        self.double = _orbit_minima(np.arange(ncos, dtype=np.int32), self.coset_right)
        own = self.double == np.arange(ncos)
        self.dnum = (np.cumsum(own, dtype=np.int32) - 1).take(self.double)
        self.dwidth = np.bincount(self.dnum).astype(np.int32)
        self.by_double = np.argsort(self.dnum, kind="stable").astype(np.int32)

    def right_perm(self, s: int) -> np.ndarray:
        """The permutation x -> x * s of top's positions, for s in top; memoized per s with the root table."""
        s = int(s)
        perm = self._right.get(s)
        if perm is None:
            perm = self._right[s] = self.positions.take(self.top.ambient.rmul(self.top.indices, s))
        return perm

    def double_coset_reps(self) -> np.ndarray:
        """Least element of every double coset H x H in top other than H, ascending."""
        own = self.coset[self.positions[self.h.ambient.identity_index]]  # H, a double coset of one coset
        reps = np.flatnonzero(self.double == np.arange(self.double.size))
        return self.top.indices[self.leaders[reps[reps != own]]]

    def normalizer(self) -> np.ndarray:
        """N_top(H) as sorted ambient indices: the positions whose double coset holds one right coset."""
        return self.top.indices[(self.dwidth.take(self.dnum) == 1).take(self.coset)]


def extend_level(jobs: Sequence[tuple[CosetTable, Sequence[int]]]) -> list[list[tuple[np.ndarray, int]]]:
    """Each (table, gs) job's distinct <H, g>, in first-occurrence order, in breadth-first runs; the tables share one top.

    For a job's H and each of its g, <H, g> is a union of double cosets
    H x H.  H x H is the orbit of the right coset H x under right
    multiplication by H's generators, so the right cosets of K = <H, g> are
    those reached from H by two moves: complete a right coset to its double
    coset, and multiply it by g.  The closures of all jobs run together,
    breadth first over (closure, double coset) pairs: each level takes
    every right coset of each newly claimed double coset (a run of its
    table's by_double), multiplies its least element by its closure's g,
    once, through one RightProducts table of every g built before the first
    level, and claims the double coset of each image.  Each image's double
    coset is read off its own table's map of positions to double cosets;
    the maps lie side by side, |top| entries per table, so a caller bounds
    how many tables it passes at once.  Each closure holds one claim slot
    per double coset of the widest table (the stride), and one claim over
    every (closure, double coset of its table) drops repeats.  The closures
    run in consecutive runs of at most _BLOCK_ENTRIES // stride, one claim
    array per run, so the claims never exceed _BLOCK_ENTRIES entries; on
    small tops a call is one run.  The jobs' right and double cosets are
    numbered on from one job to the next where the tables' arrays are read
    together; one job's arrays are read as they are, with no concatenation.

    Closures of one job that claim the same double cosets reach the same
    cosets and are one closure, generated by H's generators and the first g
    that reached it.  Each job's closures come back in first-occurrence
    order as (their sorted ambient indices, that g), and no Subgroup is
    built: a caller that holds the closure already drops it, and builds a
    Subgroup only for a new one.  A job's new closures in a run take their
    masks over top's positions from one gather, in blocks of at most
    _BLOCK_ENTRIES entries, and each selects its elements of top by its
    mask.  When top is the whole ambient, an element's position is its
    index, and the images need no lookup.

    [K:H] divides [top:H], so a closure whose claimed double cosets hold
    more than half of top's right cosets is already all of top: it takes
    every double coset of its table and leaves the frontier without another
    level.  Such a closure comes back as its table's top's own index array,
    with no gather and no copy.
    """
    tables = [table for table, _ in jobs]
    first = tables[0]
    if any(t.top is not first.top and t.top != first.top for t in tables[1:]):
        raise GroupError("the tables of one call need one top")
    amb, positions = first.h.ambient, first.positions
    gss = [np.asarray(gs, dtype=np.int32) for _, gs in jobs]
    gs = _joined(gss)
    if (positions.take(gs) < 0).any():
        raise GroupError("the adjoined element lies outside the table's top")
    # per job: its closures, right cosets and double cosets, and the first numbers of its cosets
    counts = [g.size for g in gss]
    ncos, ndouble = [t.leaders.size for t in tables], [t.dwidth.size for t in tables]
    cbase, dbase = [0, *accumulate(ncos)][:-1], [0, *accumulate(ndouble)][:-1]
    top = first.top.indices
    # job * |top| + position -> its double coset number in its table
    double_at = _joined([t.dnum.take(t.coset) for t in tables])
    width = _joined([t.dwidth for t in tables])
    by_double = _joined([t.by_double for t in tables], cbase)
    lead = top.take(_joined([t.leaders for t in tables]))  # coset number -> its least element
    start = np.cumsum(width, dtype=np.int32) - width  # double coset number -> the start of its run in by_double
    # per closure: where its table's run of double_at starts, the number of its table's first double coset,
    # and half, past which its cosets are all of top's; and stride slots, one per double coset of the widest
    # table, its double coset d at closure * stride + d, numbered within its run
    per_job = [[j * top.size for j in range(len(jobs))], dbase, ncos]
    at_job, on, half = np.repeat(np.array(per_job, dtype=np.int32), counts, axis=1)
    stride = max(ndouble)
    run = max(1, _BLOCK_ENTRIES // stride)
    step = max(1, _BLOCK_ENTRIES // top.size)  # closures per block of masks
    by = RightProducts(amb, gs)
    identity = positions[amb.identity_index]  # H, a double coset of one right coset
    whole_ambient = top.size == amb.order  # then an element's position is its index
    ends = list(accumulate(counts))
    firsts: list[dict[bytes, int]] = [{} for _ in jobs]  # per job: claimed double cosets -> first closure
    out: list[list[tuple[np.ndarray, int]]] = [[] for _ in jobs]
    for lo in range(0, gs.size, run):
        hi = min(lo + run, gs.size)
        size, run_job, run_on, run_half = hi - lo, at_job[lo:hi], on[lo:hi], half[lo:hi]
        slot = np.full(size * stride, -1, dtype=np.int32)
        claimed = np.zeros(size)  # right cosets each closure has reached, a weighted bincount: float, exact here
        closure = np.arange(size, dtype=np.int32)  # numbered within the run
        ds = double_at.take(run_job + identity)
        slot[closure * stride + ds] = 0
        while closure.size:
            ds = ds + run_on.take(closure)  # numbered on across the tables
            w = width.take(ds)
            claimed += np.bincount(closure, weights=w, minlength=size)
            live = ~(2 * claimed > run_half).take(closure)
            if not live.all():
                closure, ds, w = closure[live], ds[live], w[live]
                if not closure.size:
                    break
            # every right coset of each new double coset, beside its closure: ragged runs of by_double
            cuts = np.cumsum(w, dtype=np.int32)
            runs = np.arange(cuts[-1], dtype=np.int32) + np.repeat(start.take(ds) - cuts + w, w)
            closure = np.repeat(closure, w)
            at = by(lead.take(by_double.take(runs)), closure + lo if lo else closure)
            if not whole_ambient:
                at = positions.take(at)
            at += run_job.take(closure)
            closure, ds = np.divmod(_claim_fresh(closure * stride + double_at.take(at), slot), stride)
        reached = (slot >= 0).reshape(size, stride)
        everything = 2 * claimed > run_half  # closures that stopped at all of top, their slots unclaimed
        reached[everything] = True
        for j, (t, g, end) in enumerate(zip(tables, gss, ends)):
            begin, stop = max(lo, end - g.size), min(hi, end)
            if begin >= stop:
                continue
            rows = reached[begin - lo : stop - lo, : t.dwidth.size]
            new = []  # the run's closures of job j that no earlier closure of the job reached
            for i, bits in enumerate(np.packbits(rows, axis=1), begin):
                if firsts[j].setdefault(bits.tobytes(), i) == i:
                    new.append(i - begin)
            local = double_at[j * top.size : (j + 1) * top.size]  # position -> its double coset number in t
            full, ks, top_of = everything[begin - lo : stop - lo].tolist(), g[begin - end + g.size :].tolist(), t.top.indices
            for s in range(0, len(new), step):  # one gather of the masks over top's positions per block
                block = new[s : s + step]
                masks = rows.take(block, axis=0).take(local, axis=1)
                out[j] += [(top_of if full[i] else top_of[mask], ks[i]) for i, mask in zip(block, masks)]
    return out


def _joined(parts: list[np.ndarray], offsets: np.ndarray | None = None) -> np.ndarray:
    """parts concatenated, each plus its offset; a single part comes back as it is (its offset is 0)."""
    if len(parts) == 1:
        return parts[0]
    if offsets is not None:
        parts = [p + o for p, o in zip(parts, offsets)]
    return np.concatenate(parts)


def extend_subgroup(table: CosetTable, extra_index: int) -> Subgroup:
    """<H, g> for the table's H and one element g of its top (extend_level with one job and one g)."""
    [[(elements, g)]] = extend_level([(table, [extra_index])])
    return Subgroup(table.h.ambient, elements, [*table.h.generators, g])


def _check_algebra(spec: AlgebraSpec, ambient: AmbientGroup) -> None:
    if spec.n != ambient.n:
        raise GroupError(f"algebra rank {spec.n} does not match ambient size {ambient.n}")
    if spec.base != ambient.field:
        raise GroupError("algebra base field does not match the ambient field")


def torus_subgroup(spec: AlgebraSpec, ambient: AmbientGroup) -> Subgroup:
    """Image t(S*) of the units of S (GL), or of its norm-one units (SL), generated as etale.torus_generators says.

    det t(a) is the norm of a, so the SL cut keeps the units that
    etale.unit_norm_logs puts at log 0.  One regular_rep_mats batch holds
    the generators' rows and then the kept units', and one lookup gives
    both their indices.
    """
    _check_algebra(spec, ambient)
    norm_one = ambient.kind == SL
    units = torus_units(spec)
    if norm_one:
        units = units[unit_norm_logs(spec, units) == 0]
    gens = torus_generators(spec, norm_one)
    idxs = ambient.indices_of_mats(spec.regular_rep_mats(np.concatenate([gens, units])))
    return Subgroup(ambient, idxs[len(gens) :], idxs[: len(gens)])


def _require_same_ambient(h: Subgroup, k: Subgroup) -> None:
    if h.ambient is not k.ambient and h.ambient != k.ambient:
        raise GroupError("subgroups of different ambient groups")


def is_normal_in(h: Subgroup, k: Subgroup) -> bool:
    """Whether h is normal in k; requires h <= k."""
    if not h.is_subset_of(k):
        raise GroupError("normality requires inclusion")
    return bool(h.contains(h.ambient.conjugates(k.generators, h.indices)).all())


def normalizer_brute(ambient: AmbientGroup, h: Subgroup) -> Subgroup:
    """{g : g h g^-1 = h}, by scanning every ambient element: the tests' reference route, which no case calls."""
    if h.ambient != ambient:
        raise GroupError("subgroup lives in a different ambient group")
    ok = np.ones(ambient.order, dtype=bool)
    for x in h.generators:
        ok &= h.contains(ambient.conj_by_all(x))
    return Subgroup(ambient, np.nonzero(ok)[0])


def is_maximal_abelian(h: Subgroup, normalizer: Subgroup) -> bool:
    """True when nothing outside h commutes with all of h, sought in normalizer, which must hold C(h) (N(h) does)."""
    gens = np.asarray(h.generators, dtype=np.int32)
    if not (h.ambient.conjugates(gens, gens) == gens).all():
        raise NotAbelianError("subgroup is not abelian")
    if not h.is_subset_of(normalizer):
        raise GroupError("h is not inside the given normalizer")
    conj = h.ambient.conjugates(h.generators, normalizer.indices)
    return int((conj == normalizer.indices).all(axis=0).sum()) == h.order


def normalizer_formula(spec: AlgebraSpec, torus: Subgroup, normalizer: Subgroup | None = None) -> Subgroup:
    """The predicted normalizer X = {t(a) * P_sigma} inside the ambient of the case's torus T.

    a runs over the units of S and sigma over the ring automorphisms of S
    over k; for an SL ambient only determinant-one products are kept.  As
    det(t(a) * P_sigma) = N(a) * det(P_sigma), X is the union of the
    cosets T x_sigma, with x_sigma the first product in the ambient for
    sigma, in torus_units order: in GL a is the first unit, and in SL the
    first unit with N(a) = det(P_sigma)^-1 by etale.unit_norm_logs (one
    exists, as the norm is onto k*).  So X is |T| * |Aut| right products by
    the x_sigma, and it lies inside <T's generators, the x_sigma other than
    1>, which lie in X with 1.  X is closed exactly when X * s lies in X
    for every generator s: then X * <gens> lies in X, which holds 1.  That
    is one RightProducts call over |X| * |gens| products; only if it fails
    is the closure taken, for the structured payload HypothesisFailure
    carries instead of crashing.  normalizer, if given, is N(T) built by
    another route (a coset table): a group, so an X with its elements is
    closed, and X takes no product pass.
    """
    ambient, field = torus.ambient, torus.ambient.field
    _check_algebra(spec, ambient)
    perms = np.array([s.matrix() for s in aut_group(spec)], dtype=np.int16)
    units = torus_units(spec)
    first = np.zeros(len(perms), dtype=np.intp)  # GL: the first unit
    if ambient.kind == SL:
        want = -field.logs(_det(field, perms)) % (field.q - 1)  # log det(P_sigma)^-1
        first = (unit_norm_logs(spec, units)[:, None] == want).argmax(axis=0)
    xs = ambient.indices_of_mats(_mat_mul(field, spec.regular_rep_mats(units[first]), perms))
    gens = [*torus.generators, *xs[xs != ambient.identity_index]]
    which = np.repeat(np.arange(xs.size, dtype=np.int32), torus.order)
    members = RightProducts(ambient, xs)(np.tile(torus.indices, xs.size), which)
    sub = Subgroup(ambient, members, gens)
    if normalizer is not None and sub.same_elements(normalizer):
        return sub
    which = np.repeat(np.arange(len(gens), dtype=np.int32), sub.order)
    if not sub.contains(RightProducts(ambient, gens)(np.tile(sub.indices, len(gens)), which)).all():
        raise HypothesisFailure(
            "predicted normalizer set is not closed under multiplication",
            payload={
                "case": spec.serialize(),
                "ambient": {"kind": ambient.kind, "n": ambient.n, "q": ambient.field.q},
                "set_size": sub.order,
                "closure_size": int(_closure(ambient, gens).size),
            },
        )
    return sub


def intersect_with_ambient(h: Subgroup, target: AmbientGroup) -> Subgroup:
    """h intersected with another ambient over the same field (e.g. SL inside GL); h itself when the ambients are equal."""
    if target.field != h.ambient.field or target.n != h.ambient.n:
        raise GroupError("ambients are not comparable")
    if target == h.ambient:
        return h
    target._ensure()
    keys = h.ambient.keys_of_indices(h.indices)
    got = target._lut[keys]
    return Subgroup(target, got[got >= 0])
