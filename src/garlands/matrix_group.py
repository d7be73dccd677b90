"""Finite matrix groups over F_q: closure, coset tables, normalizers, tori.

Ambient groups GL(n,q) / SL(n,q) are enumerated once (within the configured
cap) and all heavy scans run vectorized over element indices: a matrix is an
(n, n) array of field element indices, products go through dense add/mul
tables of the coefficient field, and membership tests use a base-q key
lookup table.  rmul and lmul multiply by one index or by an index array
paired elementwise with their input, so a breadth-first pass makes one
product call per level however many generators or closures it advances.
rmul by one index g needs no matrix product per element: the ambient keeps
each element's row codes (the base-q^n digits of its key), so one product
of the q^n row vectors by g gives every row of every x * g, and its key is
a sum of looked-up codes.  Paired factors, and lmul, multiply matrices.
Closures run breadth first over ambient indices, dropping repeats with a
slot array instead of a sort; a CosetTable lays out the right and double
cosets of a subgroup H inside a larger one as permutations and
orbit-minimum labels over positions, so extend_subgroups can close <H, g>
for many g together over right cosets of H instead of over elements.  The
right permutations are memoized on the larger subgroup, so the tables of
one enumeration share them, and a table can start from the right-coset
labels of a subgroup of H over the same top (the interval's bottom).  <H, g>
keeps H's generators plus g; only an element set picks generators greedily.

The torus t(S*) and the formula normalizer {t(a) * P_sigma} share one path:
a batch of regular-representation matrices (AlgebraSpec.regular_rep_mats),
one product against the stacked P_sigma and one lookup.  An SL ambient
keeps the determinant-one matrices; det t(a) is the norm of a.

A subgroup is its ambient plus its sorted ambient indices, and membership
is a sorted search in them.  Two subgroups are equal exactly when they share
the ambient and the index array, and comparing subgroups of different
ambients is an error (cut one down with intersect_with_ambient first).
Ambients are equal when their element sets are (SL = GL over F_2), and
ambient order is matrix-key order, so equal ambients agree on indices and
the report id, a digest of the matrix keys, is the same in GL and in SL.
The matrix key (row-major entries as one base-q integer) is encoded only
here, in AmbientGroup.keys_of_mats.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .etale import AlgebraSpec, aut_group, torus_units
from .finite_field import FieldMatrix, FieldTable

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


def _det_idx(field: FieldTable, A: np.ndarray) -> np.ndarray:
    """Vectorized determinant of (..., n, n) index arrays, by Laplace expansion along the first row."""
    n = A.shape[-1]
    if n == 1:
        return A[..., 0, 0]
    MUL = field.np_mul()
    ADD = field.np_add()
    NEG = field.np_neg()
    acc = None
    for j in range(n):
        term = MUL[A[..., 0, j], _det_idx(field, np.delete(A[..., 1:, :], j, axis=-1))]
        if j % 2 == 1:
            term = NEG[term]
        acc = term if acc is None else ADD[acc, term]
    return acc


def _inv_mats(field: FieldTable, A: np.ndarray) -> np.ndarray:
    """Vectorized inverses of (..., n, n) invertible index matrices: adjugate over determinant."""
    n = A.shape[-1]
    MUL = field.np_mul()
    NEG = field.np_neg()
    det_inv = field.np_inv()[_det_idx(field, A)]
    if n == 1:
        return det_inv[..., None, None].astype(np.int16)
    adj = np.empty_like(A)
    for i in range(n):
        for j in range(n):
            # adj[i][j] is the (j, i) cofactor
            cofactor = _det_idx(field, np.delete(np.delete(A, j, axis=-2), i, axis=-1))
            adj[..., i, j] = NEG[cofactor] if (i + j) % 2 == 1 else cofactor
    return MUL[det_inv[..., None, None], adj]


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
        self.caps = caps
        self.order = gl_order(n, field.q) if kind == GL else sl_order(n, field.q)
        if self.order > caps.group_order:
            raise GroupCapError(
                f"{kind}({n},{field.q}) has order {self.order}, cap is {caps.group_order}",
                order=self.order,
            )
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
        if self._mats is not None:
            return
        q, n = self.field.q, self.n
        total = q ** (n * n)
        if total > 80_000_000:
            raise GroupCapError(f"cannot enumerate {self!r}: {total} candidate matrices")
        flat = np.arange(total, dtype=np.int64)
        entries = np.empty((total, n * n), dtype=np.int16)
        rem = flat.copy()
        for pos in range(n * n - 1, -1, -1):
            entries[:, pos] = rem % q
            rem //= q
        mats = entries.reshape(total, n, n)
        dets = _det_idx(self.field, mats)
        keep = dets != 0 if self.kind == GL else dets == self.field.one_index
        sel = np.nonzero(keep)[0]
        if sel.size != self.order:
            raise GroupError(f"enumeration mismatch for {self!r}: {sel.size} != {self.order}")
        self._mats = np.ascontiguousarray(mats[sel])
        lut = np.full(total, -1, dtype=np.int32)
        lut[sel] = np.arange(sel.size, dtype=np.int32)
        self._lut = lut
        self._keypow = np.array([q ** (n * n - 1 - i) for i in range(n * n)], dtype=np.int64)
        # row codes: the base-q^n digits of each key, most significant (row 0) first
        self._rows = np.array([sel // q ** (n * (n - 1 - i)) % q**n for i in range(n)], dtype=np.int32)
        # the first q^n candidates are zero but for their last row, which runs through every row vector in code order
        self._rowvecs = np.ascontiguousarray(mats[: q**n, n - 1 :])
        self._inv = None
        self._identity = self.index_of(FieldMatrix.identity(self.field, n))

    @property
    def identity_index(self) -> int:
        self._ensure()
        return self._identity

    def mats(self) -> np.ndarray:
        self._ensure()
        return self._mats

    def inv_indices(self) -> np.ndarray:
        self._ensure()
        if self._inv is None:
            invm = _inv_mats(self.field, self._mats)
            self._inv = self.indices_of_mats(invm)
        return self._inv

    # -- lookups ----------------------------------------------------------------

    def keys_of_mats(self, mats: np.ndarray) -> np.ndarray:
        self._ensure()
        n = self.n
        return mats.reshape(-1, n * n).astype(np.int64) @ self._keypow

    def indices_of_mats(self, mats: np.ndarray) -> np.ndarray:
        """Ambient indices of (N, n, n) member matrices."""
        return self._indices_of_keys(self.keys_of_mats(mats))  # enumerates the ambient before _lut is read

    def _indices_of_keys(self, keys: np.ndarray) -> np.ndarray:
        idx = np.take(self._lut, keys)
        if (idx < 0).any():
            raise NonMemberError("matrix outside the ambient group")
        return idx

    def index_of(self, mat: FieldMatrix) -> int:
        if mat.field != self.field or mat.n != self.n:
            raise NonMemberError(f"matrix over the wrong field/size for {self!r}")
        return int(self.indices_of_mats(np.array([mat.rows]))[0])

    def matrix_at(self, idx: int) -> FieldMatrix:
        self._ensure()
        return FieldMatrix(self.field, self._mats[idx].tolist())

    def keys_of_indices(self, idxs: np.ndarray) -> np.ndarray:
        self._ensure()
        return self.keys_of_mats(self._mats[idxs])

    # -- batched group operations -------------------------------------------------

    def rmul(self, idxs: np.ndarray, g: int | np.ndarray) -> np.ndarray:
        """Indices of x * g for each x in idxs; an index array g pairs elementwise with idxs.

        Row i of x * g is (row i of x) * g, so one index g goes by lookup:
        one small product gives code(v * g) for all q^n row vectors v, and
        key(x * g) sums those codes at x's row codes, weighted by place.  A
        paired g multiplies the matrices, since a table per distinct factor
        would cost more than the products.
        """
        self._ensure()
        if np.ndim(g):
            return self.indices_of_mats(_mat_mul(self.field, self._mats[idxs], self._mats[g]))
        n = self.n
        place = self._keypow.reshape(n, n)  # place[i, n-1] weighs row i's code, place[-1] a row's digits
        vg = _mat_mul(self.field, self._rowvecs, self._mats[g]).reshape(-1, n)
        codes = vg @ place[-1]  # code(v * g) for every row vector v
        # np.take: numpy's [] gathers cast int32 indices first, at about twice the cost
        keys = np.take(codes * place[0, n - 1], np.take(self._rows[0], idxs))
        for i in range(1, n):
            keys += np.take(codes * place[i, n - 1], np.take(self._rows[i], idxs))
        return self._indices_of_keys(keys)

    def lmul(self, g: int | np.ndarray, idxs: np.ndarray) -> np.ndarray:
        """Indices of g * x for each x in idxs; an index array g pairs elementwise with idxs."""
        self._ensure()
        prods = _mat_mul(self.field, self._mats[g], self._mats[idxs])
        return self.indices_of_mats(prods)

    def conjugate_pairs(self, gs: np.ndarray, idxs: np.ndarray) -> np.ndarray:
        """Indices of g * x * g^-1 for g paired elementwise with x: one paired lmul and one paired rmul."""
        return self.rmul(self.lmul(gs, idxs), self.inv_indices()[gs])

    def conjugates(self, gens: Sequence[int], idxs: np.ndarray) -> np.ndarray:
        """(len(gens), len(idxs)) indices of g * x * g^-1, from one conjugate_pairs call."""
        gens = np.asarray(gens, dtype=np.int32)
        idxs = np.asarray(idxs, dtype=np.int32)
        conj = self.conjugate_pairs(np.repeat(gens, idxs.size), np.tile(idxs, gens.size))
        return conj.reshape(gens.size, idxs.size)

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


@lru_cache(maxsize=None)
def _shared_ambient(kind: str, n: int, field: FieldTable, caps: Caps) -> AmbientGroup:
    return AmbientGroup(kind, n, field, caps)


def ambient_group(kind: str, n: int, field: FieldTable, caps: Caps = DEFAULT_CAPS) -> AmbientGroup:
    """Shared, lazily-enumerated ambient group instance."""
    return _shared_ambient(kind, n, field, caps)


class Subgroup:
    """A subgroup of an ambient group, stored as sorted ambient indices."""

    __slots__ = ("ambient", "indices", "_positions", "_right", "_id", "_gens")

    def __init__(self, ambient: AmbientGroup, indices: Sequence[int] | np.ndarray):
        self.ambient = ambient
        idx = np.array(indices, dtype=np.int32)
        if not (idx[1:] > idx[:-1]).all():
            idx = np.sort(idx)  # not np.unique, whose first call imports numpy.ma (about 15 ms)
            idx = idx[np.r_[True, idx[1:] != idx[:-1]]]
        if idx.size == 0:
            raise GroupError("a subgroup contains at least the identity")
        self.indices = idx
        self._positions = None
        self._right = {}
        self._id = None
        self._gens = None
        if ambient.order % idx.size != 0:
            raise GroupError(f"order {idx.size} does not divide ambient order {ambient.order}")

    @property
    def order(self) -> int:
        return int(self.indices.size)

    def contains(self, idxs: np.ndarray) -> np.ndarray:
        """Whether each ambient index in idxs lies in this subgroup, by sorted search."""
        return _sorted_contains(self.indices, idxs)

    def positions(self) -> np.ndarray:
        """Ambient index -> its position in the sorted indices, -1 outside."""
        if self._positions is None:
            pos = np.full(self.ambient.order, -1, dtype=np.int32)
            pos[self.indices] = np.arange(self.order, dtype=np.int32)
            self._positions = pos
        return self._positions

    def right_perm(self, s: int) -> np.ndarray:
        """The permutation x -> x * s of positions, for s in this subgroup; memoized per s.

        Coset tables inside this subgroup share it, so an enumeration makes
        one product of the whole subgroup per distinct generator; the memo
        holds (distinct s) * order * 4 bytes and lives as long as the subgroup.
        """
        s = int(s)
        perm = self._right.get(s)
        if perm is None:
            perm = self._right[s] = self.positions().take(self.ambient.rmul(self.indices, s))
        return perm

    def drop_memos(self) -> None:
        """Forget the positions and right permutations, memos as long as the ambient that rebuild on demand."""
        self._positions = None
        self._right = {}

    def key_tuple(self) -> bytes:
        """Matrix keys as int64 bytes, ascending because ambient order is key order."""
        return self.ambient.keys_of_indices(self.indices).tobytes()

    @property
    def id(self) -> str:
        """Digest of the matrix keys; the same matrix set has the same id in GL and SL."""
        if self._id is None:
            self._id = hashlib.blake2b(self.key_tuple(), digest_size=8).hexdigest()
        return self._id

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
        """Generating indices, deterministic.

        A subgroup closed from generators (extend_subgroups) keeps them.
        Otherwise they are picked greedily (_pick_generators).  Each pick at
        least doubles the closure, so all the reclosures together cost at
        most about twice the last one.
        """
        if self._gens is None:
            self._gens = _pick_generators(self.ambient, self.indices)[0]
        return self._gens

    def generator_matrices(self) -> list[FieldMatrix]:
        return [self.ambient.matrix_at(g) for g in self.generators]


def _sorted_contains(sorted_idxs: np.ndarray, idxs: np.ndarray) -> np.ndarray:
    """Whether each of idxs occurs in the ascending array sorted_idxs."""
    return np.take(sorted_idxs, np.searchsorted(sorted_idxs, idxs), mode="clip") == idxs


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
    while frontier.size and gens.size:
        # x * g for every g and every frontier x, g-major, in one paired rmul
        frontier = _claim_fresh(amb.rmul(np.tile(frontier, gens.size), np.repeat(gens, frontier.size)), slot)
    return np.flatnonzero(slot >= 0).astype(np.int32)


def _pick_generators(amb: AmbientGroup, indices: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Greedy generators of the sorted element set indices, and the closure they generate.

    Take the least element outside the closure of those taken so far and
    reclose from the identity, until the closure has the set's size.  For a
    subgroup the closure is the subgroup; for a set that is not one, it
    differs from the set.
    """
    chosen, closed = [], np.array([amb.identity_index], dtype=np.int32)
    while closed.size != indices.size:
        outside = indices[~_sorted_contains(closed, indices)]
        if not outside.size:  # a set that is no subgroup, closed past its own size
            break
        chosen.append(int(outside[0]))
        closed = _closure(amb, chosen)
    return chosen, closed


def _orbit_minima(labels: np.ndarray, perms: Sequence[np.ndarray]) -> np.ndarray:
    """Least position of each class of the equivalence joining x to labels[x] and to p[x].

    labels must satisfy labels[x] <= x and labels[labels] == labels
    (np.arange qualifies); p runs over perms.  Each round hooks the label of
    p[x] onto the label of x when that is smaller (np.minimum.at), then
    pointer-jumps until every label is its own label.  Labels only fall and
    stay inside their class.  A round that changes nothing leaves
    labels[p[x]] <= labels[x] for every x, so labels are constant along each
    cycle of p and hence on classes, and each is its class's least position.
    """
    labels = labels.copy()
    while True:
        before = labels.copy()
        # ndarray.take here and in the coset tables: [] on int32 indices costs about twice as much
        for p in perms:
            np.minimum.at(labels, labels.take(p), labels)
        while True:
            jumped = labels.take(labels)
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, before):
            return labels


class CosetTable:
    """Right and double cosets of a subgroup H inside a subgroup top containing it.

    Everything is indexed by position 0..|top|-1 in top's sorted ambient
    indices, so position order is ambient order.  `right[i]` is the
    permutation x -> x * s_i for H's i-th generator s_i, top.right_perm(s_i),
    which every table inside the same top shares; `labels[x]` is the
    least position of the right coset H x (the orbit of x under left
    multiplication by the generators' inverses, x -> (x^-1 * s_i)^-1, which
    is right[i] conjugated by inversion); `double_labels[x]` is the least
    position of the double coset H x H, the orbit of x's right coset under
    the right permutations.  extend_subgroups closes <H, g> over the
    right-coset labels, and the double labels give the g worth adjoining.
    H x H = H x exactly when x normalizes H, so the double cosets that are
    single right cosets make up N_top(H).

    below, if given, is the table of a subgroup B of H over the same top.
    Each right coset of H is a union of right cosets of B, and H is
    generated by B and H's generators outside B, so the labels start from
    below.labels and only those generators add left permutations.
    """

    __slots__ = ("h", "top", "right", "labels", "double_labels")

    def __init__(self, h: Subgroup, top: Subgroup, below: "CosetTable | None" = None):
        if not h.is_subset_of(top):
            raise GroupError("a coset table needs H inside the top")
        self.h = h
        self.top = top
        self.right = [top.right_perm(s) for s in h.generators]
        if below is None:
            labels, fresh = np.arange(top.order, dtype=np.int32), self.right
        else:
            if below.top is not top and below.top != top:
                raise GroupError("a seed table needs the same top")
            if not below.h.is_subset_of(h):
                raise GroupError("a seed table needs a subgroup of H")
            inside = below.h.contains(np.array(h.generators, dtype=np.int32))
            labels = below.labels
            fresh = [r for r, s_inside in zip(self.right, inside) if not s_inside]
        left = []
        if fresh:
            inverse = top.positions().take(h.ambient.inv_indices().take(top.indices))
            left = [inverse.take(r.take(inverse)) for r in fresh]
        self.labels = _orbit_minima(labels, left)
        self.double_labels = _orbit_minima(self.labels, self.right)

    def double_coset_reps(self) -> np.ndarray:
        """Least element of every double coset H x H in top other than H, ascending."""
        own = self.double_labels[self.top.positions()[self.h.ambient.identity_index]]
        reps = np.flatnonzero(self.double_labels == np.arange(self.top.order))
        return self.top.indices[reps[reps != own]]

    def normalizer(self) -> Subgroup:
        """N_top(H): the positions whose double coset holds one right coset."""
        leaders = np.flatnonzero(self.labels == np.arange(self.top.order))
        width = np.bincount(self.double_labels[leaders], minlength=self.top.order)
        return Subgroup(self.h.ambient, self.top.indices[width[self.double_labels] == 1])


def extend_subgroups(table: CosetTable, extra_indices: Sequence[int]) -> list[Subgroup]:
    """The distinct <H, g> for the table's H and every g in extra_indices, in first-occurrence order.

    <H, g> is a union of right cosets of H, and right multiplication by H's
    generators and by g permutes right cosets, so a breadth-first pass over
    right cosets from H itself reaches exactly its cosets.  All closures run
    together: the frontier holds (closure, coset) pairs, and each level is
    one paired product of every frontier coset's least element by its
    closure's g, plus gathers through the right permutations; one claim over
    closure * cosets + coset drops repeats.  Closures with the same coset set
    become one Subgroup, generated by H's generators and the first g that
    reached it.

    [K:H] divides [top:H], so a closure that has claimed more than half of
    top's right cosets is already all of top: it takes every coset and
    leaves the frontier without another level.
    """
    gs = np.asarray(extra_indices, dtype=np.int32)
    positions = table.top.positions()
    if (positions[gs] < 0).any():
        raise GroupError("the adjoined element lies outside the table's top")
    amb = table.h.ambient
    labels, top = table.labels, table.top.indices
    is_least = labels == np.arange(top.size)
    least = np.flatnonzero(is_least)  # coset number -> its least position
    coset = (np.cumsum(is_least, dtype=np.int32) - 1)[labels]  # position -> coset number
    ncos = least.size
    slot = np.full(gs.size * ncos, -1, dtype=np.int32)
    claimed = np.zeros(gs.size, dtype=np.int64)  # cosets each closure has reached
    start = coset[positions[amb.identity_index]]
    frontier = _claim_fresh(np.arange(gs.size, dtype=np.int32) * ncos + start, slot)
    while frontier.size:
        closure, xs = np.divmod(frontier, ncos)
        claimed += np.bincount(closure, minlength=gs.size)
        whole = 2 * claimed > ncos
        if whole[closure].any():
            slot.reshape(gs.size, ncos)[whole] = 0
            live = ~whole[closure]
            closure, xs = closure[live], xs[live]
            if not closure.size:
                break
        xs = least.take(xs)
        images = [coset.take(r.take(xs)) for r in table.right]
        images.append(coset[positions[amb.rmul(top[xs], gs[closure])]])
        frontier = _claim_fresh(np.tile(closure * ncos, len(images)) + np.concatenate(images), slot)
    cosets = (slot >= 0).reshape(gs.size, ncos)
    first = {}
    for i, row in enumerate(np.packbits(cosets, axis=1)):
        first.setdefault(row.tobytes(), i)
    out = []
    for i in first.values():
        k = Subgroup(amb, top[cosets[i][coset]])
        k._gens = [*table.h.generators, int(gs[i])]
        out.append(k)
    return out


def extend_subgroup(table: CosetTable, extra_index: int) -> Subgroup:
    """<H, g> for the table's H and one element g of its top (extend_subgroups with one g)."""
    return extend_subgroups(table, [extra_index])[0]


def _check_algebra(spec: AlgebraSpec, ambient: AmbientGroup) -> None:
    if spec.n != ambient.n:
        raise GroupError(f"algebra rank {spec.n} does not match ambient size {ambient.n}")
    if spec.base != ambient.field:
        raise GroupError("algebra base field does not match the ambient field")


def _member_indices(ambient: AmbientGroup, mats: np.ndarray) -> np.ndarray:
    """Ambient indices of invertible (N, n, n) matrices; an SL ambient keeps the determinant-one ones."""
    if ambient.kind == SL:
        mats = mats[_det_idx(ambient.field, mats) == ambient.field.one_index]
    return ambient.indices_of_mats(mats)


def torus_subgroup(spec: AlgebraSpec, ambient: AmbientGroup) -> Subgroup:
    """Image t(S*) of the units of S (GL), or its determinant-one part (SL): det t(a) is the norm of a."""
    _check_algebra(spec, ambient)
    return Subgroup(ambient, _member_indices(ambient, spec.regular_rep_mats(torus_units(spec))))


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


def is_abelian(h: Subgroup) -> bool:
    """Whether every generator of h conjugates every generator to itself."""
    gens = np.asarray(h.generators, dtype=np.int32)
    return bool((h.ambient.conjugates(gens, gens) == gens).all())


def is_maximal_abelian(h: Subgroup, normalizer: Subgroup) -> bool:
    """True when nothing outside h commutes with all of h, sought in normalizer, which must hold C(h) (N(h) does)."""
    if not is_abelian(h):
        raise NotAbelianError("subgroup is not abelian")
    if not h.is_subset_of(normalizer):
        raise GroupError("h is not inside the given normalizer")
    conj = h.ambient.conjugates(h.generators, normalizer.indices)
    return int((conj == normalizer.indices).all(axis=0).sum()) == h.order


def normalizer_formula(spec: AlgebraSpec, ambient: AmbientGroup) -> Subgroup:
    """The predicted normalizer: matrices t(a) * P_sigma inside the ambient.

    a runs over the units of S and sigma over the ring automorphisms of S
    over k; for an SL ambient only determinant-one products are kept.  The
    resulting set is verified to be closed; a closure failure raises
    HypothesisFailure with a structured payload instead of crashing.
    """
    _check_algebra(spec, ambient)
    tori = spec.regular_rep_mats(torus_units(spec))
    perms = np.array([s.matrix().rows for s in aut_group(spec)], dtype=np.int16)
    prods = _mat_mul(ambient.field, tori[:, None], perms[None]).reshape(-1, spec.n, spec.n)
    sub = Subgroup(ambient, _member_indices(ambient, prods))
    sub._gens, closed = _pick_generators(ambient, sub.indices)  # the pick's last closure decides
    if closed.size != sub.order or not sub.contains(closed).all():
        raise HypothesisFailure(
            "predicted normalizer set is not closed under multiplication",
            payload={
                "case": spec.serialize(),
                "ambient": {"kind": ambient.kind, "n": ambient.n, "q": ambient.field.q},
                "set_size": sub.order,
                "closure_size": int(closed.size),
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
