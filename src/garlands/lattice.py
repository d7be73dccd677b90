"""Interval lattices of subgroups, normality graphs, and garlands.

The interval Lat(bottom, top) is enumerated breadth first, one level of
members at a time: level 0 is bottom, and level i + 1 holds the new
members found by adjoining, to each member H of level i (one per orbit,
below), one representative per H-double-coset of top other than H
itself, until a level finds nothing new.  Double-coset representatives
suffice because <H, h1*g*h2> = <H, g>.  Completeness follows by induction
along any maximal chain: each covering step K over H equals <H, g> for
every g in K \\ H.

Each expanded member other than top gets one coset table inside top
(CosetTable in matrix_group): the right cosets, numbered by their least
positions (leaders) in top's sorted ambient indices, and the maps of
right cosets that right multiplication by H's generators induces.  The
double cosets are orbit minima over those numbers, not over positions, so
that pass is sized by [top:H].  Bottom's table takes those least positions
as orbit minima under left multiplication by its generators, by doubling
along each generator's permutation.  Every member contains bottom, so its
right cosets are unions of bottom's, and each later table is seeded with
bottom's.  A member H with [H:bottom] <= |bottom| labels bottom's right
cosets directly, by one product of their leaders with a right transversal
of bottom in H, at most |top| products and no permutation of the whole
top.  A larger member starts from bottom's least coset positions, and only
the elements adjoined since bottom add left permutations; its right
permutations are memoized per generator with bottom's table, which every
later table shares (CosetTable.right_perm), and go with the enumeration's
tables.  A member closed as <H, g> keeps H's generators plus g, so members
share generators, and an enumeration makes one product of the whole top
per distinct generator that a position table reads.  Top itself gets no
table: its only double coset is itself, so it has no extension, and
N_top(top) = top.  The representatives are the leaders of the cosets
that are their own double label, so each is the least element of its
double coset, in ascending order.

<H, g> is closed over double cosets instead of elements: K = <H, g>
contains H, so it is a union of double cosets H x H, and H x H is the
orbit of the right coset H x under right multiplication by H's
generators.  So the right cosets of K are those reached from H by two
moves, completing a right coset to its double coset and multiplying it
by g.  A closure costs at most [K:H] products by g and no gather through
the maps of cosets.  The closures of a whole level run together, in one
extend_level call per chunk of its tables: the products by every g of
every table go through one factor table built for the call, each step
multiplies every right coset of each newly claimed (closure, double
coset) pair by that closure's g, and reads the image's double coset from
the closure's own table, so a step is one call with no matrix product,
and a table's closures claiming the same double cosets are one closure.
A chunk is consecutive tables whose positions number at most
_BLOCK_ENTRIES together (one table at a time for a larger top): that
bounds the call's joined map of positions to double cosets, and each
table holds its own map of positions to right cosets of the same length
beside it.  Only one chunk's tables are alive at once; on small tops a
level is one chunk and one call ([1, GL(3,2)]'s 14 tables take 3
calls).  [K:H] divides [top:H], so a closure whose double cosets hold
more than half of top's right cosets is all of top and stops there, and
comes back as top's own index array.  A closure comes back as its
elements, and only one that is a new member becomes a Subgroup, held
without a copy (as are the conjugates below, sorted by construction).
Closures are accepted level by level, then table by table, then in
first-occurrence order, the order in which one table at a time would
find them, so the members, their generators and every report are the
same.

Bottom is expanded first, and its table's normalizer A = N_top(bottom)
acts on the interval by conjugation; only one member per A-orbit is
expanded: a closure that yields a new member K adds K's whole orbit to the
members but puts only K on the next level, so the members are always a
union of orbits.
The orbit comes from bottom's right-coset leaders in A (CosetTable.leaders
that lie in A), one element a per right coset bottom a, and needs no
generators of A.  Every n in A is t a for a leader a and some t in bottom,
and bottom lies in every member H, so n^-1 H n = a^-1 t^-1 H t a = a^-1 H a;
as a H a^-1 contains a bottom a^-1 = bottom, also n H n^-1 = a H a^-1.  So
conjugating K by every leader reaches its whole orbit.  A leader inside K
fixes K and is skipped, and the rest conjugate K's elements in one batch,
through one factor table of their inverses; one stable sort of the
conjugates' sorted rows drops repeats and keeps, for each conjugate, the
first leader that reaches it.  The enumeration is still complete.  Take a covering
step H_{i+1} = <H_i, g> along a chain from bottom, with H_i = n R n^-1 for
an expanded representative R and n in A.  Then n^-1 H_{i+1} n =
<R, n^-1 g n>, and n^-1 g n lies in top, so that subgroup is the closure of
R with the representative of n^-1 g n's R-double-coset.  It was found when
R was expanded, its orbit was added with it, and that orbit contains
H_{i+1}.

Every member's normalizer in top is a member (N_top(H) holds H, which
holds bottom), kept as its position: a representative R has N_top(R) from
its own table (top, which has none, is its own), a member a R a^-1 has
a N_top(R) a^-1, and all those conjugates are taken in one batch and one
sort and found by their keys.  Edges of the normality graph join every
comparable pair with the smaller subgroup normal in the larger (no Hasse
restriction); garlands are the connected components.  a is normal in b
exactly when a <= b, |a| < |b| and b <= N_top(a), so the members'
inclusions and the normalizer positions decide every pair, with no group
products; the inclusions come from one product of 0/1 membership rows of
the members below top (top holds every member), over the elements some
row holds, in column blocks under a fixed entry budget.

One case pipeline: every case's [T, G] is computed once per process, and
kept (keyed by (ambient, algebra), so over F_2, where SL = GL, the two
cases share it).  T, N(T), N(N(T)) and the normality graph are all read
off that lattice, which keeps element lists only; the graph is built when
a report first reads it.  The interval [T, N(T)] is T and its neighbours
in the graph: for H >= T, T is normal in H exactly when H <= N(T).  The
case document (verify_lower_garland) is built from that lattice alone,
torus block included, and so is each side of the GL-to-SL restriction
block (interval_restriction_check): [T, GL] for the GL side and [T', SL]
for the SL side, so no case hands its subgroups to another.

Over a larger field only the SL case's [T', SL], T' = T & SL, is
enumerated, and [T, GL] is read off it.  H -> H & SL maps [T, GL] one to
one onto the T-invariant members of [T', SL], with inverse K -> TK, and
N_GL(TK) = T M for M the s in N_SL(K) with s t s^-1 in TK for every t in
T.  Proof: det T = N(S*) = k*, so T SL = GL, and T & SL = T'.
(1) T normalizes H & SL, and H = T (H & SL), as h = t (t^-1 h) for the t
in T with det t = det h.  (2) For T-invariant K, TK is a group, and
TK & SL = T'K = K, since t k has determinant one only for t in T'.
(3) t s with t in T and s in SL normalizes TK iff s does; such an s
normalizes TK & SL = K, and s TK s^-1 = (s T s^-1) K, so s normalizes TK
iff each s t s^-1 lies in TK.  So a pair's lattice work is done once, in
whichever case runs first, and the SL restriction check builds no table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .etale import AlgebraSpec, additive_span_check, span_absorbs_units
from .matrix_group import (
    GL,
    SL,
    AmbientGroup,
    CosetTable,
    HypothesisFailure,
    RightProducts,
    Subgroup,
    ambient_group,
    extend_level,
    intersect_with_ambient,
    is_maximal_abelian,
    normalizer_formula,
    torus_subgroup,
)


class LatticeError(Exception):
    pass


class NonExhaustiveError(LatticeError):
    pass


@dataclass(eq=False)  # compared by identity: normalizer_at, an array, has no truth value
class IntervalLattice:
    """The members of [bottom, top]; N_top(members[i]) holds bottom, so it is a member: members[normalizer_at[i]]."""

    bottom: Subgroup
    top: Subgroup
    ambient: AmbientGroup
    members: tuple[Subgroup, ...]  # sorted by (order, id)
    exhaustive: bool = True
    normalizer_at: np.ndarray | None = None  # position in members of N_top of each member; None unless exhaustive

    def __post_init__(self):
        self.position = {m.id: i for i, m in enumerate(self.members)}  # member id -> its place in members
        self.graph: NormalityGraph | None = None  # set by _graph when a report first reads a kept lattice's
        if len(self.position) != len(self.members):  # reports key members on ids
            raise LatticeError("subgroup id collision; widen the digest")

    def member_orders(self) -> list[int]:
        return [m.order for m in self.members]

    def __len__(self) -> int:
        return len(self.members)


def _conjugacy_orbit(k: Subgroup, leaders: np.ndarray) -> list[tuple[Subgroup, int]]:
    """Each conjugate a K a^-1 of K under A with one such a, from one conjugation batch.

    leaders holds one ambient index per right coset of bottom in A, which
    reaches every conjugate (see the module docstring).  K comes first,
    with the identity; leaders inside K fix K and are skipped.  The other
    conjugates' sorted rows go under K's and are told apart by one stable
    sort of the rows as byte strings, so each conjugate keeps the first
    leader that reaches it.  The distinct rows are copied out together, and
    each new conjugate holds its row of that copy.
    """
    amb = k.ambient
    moving = leaders[~k.contains(leaders)]
    if not moving.size:
        return [(k, amb.identity_index)]
    rows = np.vstack([k.indices, np.sort(amb.conjugates(moving, k.indices), axis=1)])
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys.take(order)
    first = np.sort(order[np.concatenate(([True], ranked[1:] != ranked[:-1]))])[1:]  # K's row is 0, the first
    conjugates = zip(rows[first], moving.take(first - 1).tolist())
    return [(k, amb.identity_index)] + [(Subgroup.of_sorted(amb, row), a) for row, a in conjugates]


def _normalizer_positions(amb: AmbientGroup, keys: list[bytes], members: dict, rep_normalizers: dict) -> np.ndarray:
    """For each key, in members as (member, R's key, a), the position in keys of N_top(a R a^-1) = a N_top(R) a^-1.

    One conjugate_by call and one sort; an identity a leaves N_top(R) as it
    is.  The conjugates are sorted together, each offset by its run's
    number times the ambient order, so every run comes out ascending.
    """
    out = [rep_normalizers[members[key][1]] for key in keys]
    moved = [i for i, key in enumerate(keys) if members[key][2] != amb.identity_index]
    if moved:
        sizes = [out[i].size for i in moved]
        which = np.repeat(np.arange(len(moved), dtype=np.int32), sizes)
        gs = np.array([members[keys[i]][2] for i in moved], dtype=np.int32)
        flat = amb.conjugate_by(gs, which, np.concatenate([out[i] for i in moved]))
        offset = which.astype(np.int64) * amb.order
        flat = (np.sort(flat + offset) - offset).astype(np.int32)
        for i, part in zip(moved, _pieces(flat, sizes)):
            out[i] = part
    at = {key: i for i, key in enumerate(keys)}
    return np.array([at[n.tobytes()] for n in out], dtype=np.int32)


def _pieces(flat: np.ndarray, sizes: Sequence[int]) -> list[np.ndarray]:
    """flat cut into consecutive runs of the given sizes, as slices."""
    ends = np.cumsum(sizes).tolist()
    return [flat[end - size : end] for end, size in zip(ends, sizes)]


# 4-byte entries in one block of work (16 MB): the positions of the coset
# tables whose maps one extend_level call joins, and the float32 entries of
# a column block of normality_graph's membership product
_BLOCK_ENTRIES = 1 << 22


def enumerate_interval(
    bottom: Subgroup,
    ambient: AmbientGroup,
    within: Subgroup | None = None,
    max_members: int | None = None,
) -> IntervalLattice:
    """All subgroups H with bottom <= H <= top (top = within or the ambient), each with N_top(H)'s position.

    Breadth first, one level of orbit representatives at a time: their
    coset tables are built in chunks of consecutive tables, each within
    _BLOCK_ENTRIES positions (one table at a time for a larger top), and
    each chunk's extensions are closed by one extend_level call.
    Bottom's table is built first; it seeds every later table's right
    cosets, and its normalizer in top acts on the interval by conjugation
    through its right-coset leaders, so only one member per orbit is
    expanded.  Closures are accepted level by level, then table by table,
    then in first-occurrence order.
    """
    if bottom.ambient != ambient:
        raise LatticeError("bottom subgroup lives in a different ambient group")
    if within is None:
        top = Subgroup(ambient, np.arange(ambient.order, dtype=np.int32))
    else:
        top = within
        if not bottom.is_subset_of(top):
            raise LatticeError("bottom is not contained in the given top subgroup")
    start = bottom.indices.tobytes()
    # member key -> (member, its representative R's key, a with member = a R a^-1)
    members = {start: (bottom, start, ambient.identity_index)}
    rep_normalizers: dict[bytes, np.ndarray] = {}  # representative key -> N_top(R)'s sorted indices
    chunk = max(1, _BLOCK_ENTRIES // top.order)
    level = [bottom]
    exhaustive = True
    below = None  # bottom's table, once built
    while level and exhaustive:
        expand = []
        for h in level:
            if h.order == top.order:  # top is its own only double coset: no extension, and N_top(top) = top
                rep_normalizers[h.indices.tobytes()] = top.indices
            else:
                expand.append(h)
        found = []  # the next level
        for first in range(0, len(expand), chunk):
            tables = []  # the previous chunk's tables go before this one's are built
            for h in expand[first : first + chunk]:
                tables.append(CosetTable(h, top, below))
                rep_normalizers[h.indices.tobytes()] = tables[-1].normalizer()
                if below is None:  # bottom's table, the first
                    below = tables[0]
                    # one per right coset of bottom in A: the right cosets that are their own double cosets
                    leaders = top.indices[below.leaders[below.dwidth.take(below.dnum) == 1]]
            closed = extend_level([(table, table.double_coset_reps()) for table in tables])
            for h, (elements, g) in ((t.h, c) for t, cs in zip(tables, closed) for c in cs):
                rep = elements.tobytes()
                if rep not in members:
                    k = Subgroup.of_sorted(ambient, elements, [*h.generators, g])
                    for m, a in _conjugacy_orbit(k, leaders):
                        members[rep if m is k else m.indices.tobytes()] = (m, rep, a)
                    found.append(k)
                    if max_members is not None and len(members) > max_members:
                        exhaustive = False
                        break
            if not exhaustive:
                break
        level = found
    keys = sorted(members, key=lambda key: (members[key][0].order, members[key][0].id))
    return IntervalLattice(
        bottom=bottom,
        top=top,
        ambient=ambient,
        members=tuple(members[key][0] for key in keys),
        exhaustive=exhaustive,
        normalizer_at=_normalizer_positions(ambient, keys, members, rep_normalizers) if exhaustive else None,
    )


@dataclass
class NormalityGraph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]  # (smaller id, larger id), sorted
    bottom_id: str
    top_id: str


def normality_graph(lat: IntervalLattice) -> NormalityGraph:
    """Edge for every comparable pair whose smaller member is normal in the larger.

    a is normal in b exactly when a < b <= N_top(a), and N_top(a) is the
    member at normalizer_at[a]: with sub[a, b] for a <= b, a is normal in
    b exactly when sub[a, b], |a| < |b| and sub[b, normalizer_at[a]], with
    no group products.  Below top, sub[a, b] is |a & b| = |a|, from one
    product of 0/1 membership rows of the members below top; top holds
    every member, and only top holds top.  The product's columns are the
    ambient elements that some row holds, taken in blocks of at most
    _BLOCK_ENTRIES entries, so no block grows with |top|.  The counts are
    float32 sums of 0/1 and exact below 2^24; every row's set is a proper
    subgroup of top, so that holds for |top| < 2^25, and a larger top
    counts in float64.
    """
    if not lat.exhaustive:
        raise NonExhaustiveError("normality graph requires an exhaustive lattice")
    ms, top = lat.members, lat.top
    below = len(ms) - 1  # the last member is top, the one of its order
    size = np.array([m.order for m in ms], dtype=np.int64)
    row, flat = _runs([m.indices for m in ms[:below]])
    held = np.zeros(lat.ambient.order, dtype=bool)
    held[flat] = True
    col = (np.cumsum(held, dtype=np.int32) - 1).take(flat)  # the elements some row holds, numbered in order
    ncols = int(held.sum())
    width = max(1, min(ncols, _BLOCK_ENTRIES // max(1, below)))
    block = col // width
    counts = np.zeros((below, below), dtype=np.float32 if top.order < 1 << 25 else np.float64)
    for b in range(-(-ncols // width)):
        at = block == b
        dense = np.zeros((below, width), dtype=counts.dtype)
        dense[row[at], col[at] - b * width] = 1
        counts += dense @ dense.T
    sub = np.pad(counts == size[:below, None], (0, 1))  # sub[a, b]: a <= b, and top holds every member
    sub[:, below] = True
    normal = sub & (size[:, None] < size) & sub[:, lat.normalizer_at].T
    edges = [(ms[a].id, ms[b].id) for a, b in zip(*np.nonzero(normal))]
    return NormalityGraph(
        vertices=tuple(m.id for m in ms),
        edges=tuple(sorted(edges)),
        bottom_id=lat.bottom.id,
        top_id=top.id,
    )


class _UnionFind:
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


@dataclass
class Garland:
    member_ids: tuple[str, ...]
    is_lower: bool
    is_upper: bool


def garlands(graph: NormalityGraph) -> list[Garland]:
    """Connected components of the normality graph, lower/upper flagged."""
    uf = _UnionFind(graph.vertices)
    for a, b in graph.edges:
        uf.union(a, b)
    comps: dict[str, list[str]] = {}
    for v in graph.vertices:
        comps.setdefault(uf.find(v), []).append(v)
    out = []
    for vs in comps.values():
        vs.sort()
        out.append(
            Garland(
                member_ids=tuple(vs),
                is_lower=graph.bottom_id in vs,
                is_upper=graph.top_id in vs,
            )
        )
    out.sort(key=lambda g: (not g.is_lower, not g.is_upper, g.member_ids))
    return out


# ---------------------------------------------------------------------------
# verification


def record_hypotheses(spec: AlgebraSpec) -> dict:
    """The hypothesis record of every verification report: the verdict rule's inputs and the restriction identity's premise.

    units_span / norm_one_span are the additive-generation conditions for the
    torus and its determinant-one part; norm_one_absorbs_units is the weaker
    premise (every unit is a combination of norm-one units) that drives the
    GL-vs-SL normalizer intersection identity.  All three are closed forms
    in q and the degrees (additive_span_check, span_absorbs_units, whose
    docstrings hold the argument), so the record builds no table.
    large_field_regime marks the range (q >= 13, characteristic not 2 or 3)
    in which the interval description of the lower garland is guaranteed;
    outside it the description can fail and failures are reported as
    expected.
    """
    units_span, norm_one_span = additive_span_check(spec)
    return {
        "units_span": units_span,
        "norm_one_span": norm_one_span,
        "norm_one_absorbs_units": span_absorbs_units(spec),
        "large_field_regime": spec.base.q >= 13 and spec.base.p not in (2, 3),
    }


def formula_expected(hyp: dict, ambient_kind: str) -> bool:
    """Whether the semidirect-product normalizer description is guaranteed."""
    if ambient_kind == GL:
        return hyp["units_span"]
    return hyp["units_span"] and hyp["norm_one_span"]


def garland_expected(hyp: dict, ambient_kind: str) -> bool:
    """Whether lower garland = interval is guaranteed for this case."""
    return formula_expected(hyp, ambient_kind) and hyp["large_field_regime"]


CONFIRMED = "confirmed"
EXPECTED_COUNTEREXAMPLE = "expected_counterexample"
UNEXPECTED_MISMATCH = "unexpected_mismatch"


def _verdict(ok: bool, must: bool) -> str:
    if ok:
        return CONFIRMED
    return UNEXPECTED_MISMATCH if must else EXPECTED_COUNTEREXAMPLE


def overall_verdict(verdicts) -> str:
    """The gravest of the verdicts: unexpected mismatch, then expected counterexample, then confirmed."""
    for grave in (UNEXPECTED_MISMATCH, EXPECTED_COUNTEREXAMPLE):
        if grave in verdicts:
            return grave
    return CONFIRMED


# (ambient, algebra) -> its [T, G] lattice, for the life of the process, as
# the ambient_group cache keeps the ambients
_LATTICES: dict[tuple[AmbientGroup, AlgebraSpec], IntervalLattice] = {}


def _torus_lattice(spec: AlgebraSpec, ambient: AmbientGroup) -> IntervalLattice:
    """[T, G] for spec's torus T in ambient: built once per process, kept.

    An SL ambient enumerates it, and so does GL over F_2, where SL = GL and
    the pair shares one lattice.  GL over a larger field reads it off the
    SL case's [T', SL] (_read_off_sl), enumerating that first when the memo
    lacks it, so a pair's lattice work is done once, in whichever case runs
    first.  The lattice keeps subgroups' element lists only: no subgroup
    holds a memo, and the coset tables' positions and right permutations
    went with the enumeration.  Its normality graph is built when a report
    first reads it (_graph), so a GL case alone builds none for [T', SL].
    """
    key = (ambient, spec)
    lat = _LATTICES.get(key)
    if lat is None:
        if ambient.kind == GL and ambient.field.q > 2:
            lat = _read_off_sl(spec, ambient)
        else:
            lat = enumerate_interval(torus_subgroup(spec, ambient), ambient)
        _LATTICES[key] = lat
    return lat


def _read_off_sl(spec: AlgebraSpec, gl: AmbientGroup) -> IntervalLattice:
    """[T, GL] read off [T', SL] for q > 2: TK for each T-invariant member K, and N_GL(TK) (module docstring).

    The SL lattice comes from the memo, or is enumerated under the SL
    ambient that run_case builds with gl's caps, and one key lookup maps SL
    indices to GL's.  r, T's first generator, is t(g_1) for the primitive
    element g_1 of the first factor, whose norm generates k*
    (etale.torus_generators).  So T = <T', r>, and r^0, ..., r^(q-2) are a
    transversal of T' in T, one per determinant.  T' lies in every K and
    normalizes it, so K is T-invariant exactly when r K r^-1 lies in K: one
    conjugation batch by r over the members other than T' and SL, which
    are.  Likewise s in N_SL(K) normalizes TK exactly when s r s^-1 lies in
    TK, that is [s, r] in K, as det(s r s^-1) = det r: one batch of
    commutators over the s in N_SL(K) \\ K, for the K with N_SL(K) > K,
    gives M = N_GL(TK) & SL; elsewhere M = K.  M is a kept member, so
    N_GL(TK) = T M is the member read off M, and TK is the right product of
    K by the powers of r.  The bottom is torus_subgroup's T with its generators.
    """
    sl = ambient_group(SL, gl.n, gl.field, gl.caps)
    sub = _torus_lattice(spec, sl)
    torus = torus_subgroup(spec, gl)
    r, last = torus.generators[0], len(sub) - 1
    embed = gl.indices_of_ambient(sl)
    ks = [embed.take(k.indices) for k in sub.members]
    inner = ks[1:last]  # T' and SL are T-invariant
    owner, flat = _runs(inner)
    moved = np.bincount(owner[~_member_of(gl, inner, owner, gl.conjugates([r], flat)[0])], minlength=len(inner))
    kept = sorted({0, last, *(np.flatnonzero(moved == 0) + 1).tolist()})
    grow = [i for i in kept if sub.normalizer_at[i] != i]
    m_at = {i: i for i in kept}  # kept member K -> M's position in sub
    if grow:
        ns = [sub.members[sub.normalizer_at[i]].indices for i in grow]
        outside = [embed.take(n[~sub.members[i].contains(n)]) for i, n in zip(grow, ns)]  # N_SL(K) minus K
        owner, s = _runs(outside)
        conj = gl.conjugate_by(s, np.arange(s.size, dtype=np.int32), np.full(s.size, r, dtype=np.int32))
        inside = _member_of(gl, [ks[i] for i in grow], owner, gl.rmul(conj, gl.inv_indices()[r]))
        at = {ks[i].tobytes(): i for i in kept}
        for i, x, hit in zip(grow, outside, _pieces(inside, [x.size for x in outside])):
            m_at[i] = at[np.sort(np.concatenate([ks[i], x[hit]])).tobytes()]
    middle = [i for i in kept if 0 < i < last]
    parts = _times_powers(gl, r, gl.field.q - 1, [ks[i] for i in middle])
    top = Subgroup(gl, np.arange(gl.order, dtype=np.int32))
    # the torus overrides top when they are one member: T' = SL, so n = 1 and T = GL
    members = {last: top, 0: torus, **{i: Subgroup(gl, x) for i, x in zip(middle, parts)}}
    kept.sort(key=lambda i: (members[i].order, members[i].id))
    position = {i: j for j, i in enumerate(kept)}
    return IntervalLattice(
        bottom=torus,
        top=top,
        ambient=gl,
        members=tuple(members[i] for i in kept),
        normalizer_at=np.array([position[m_at[i]] for i in kept], dtype=np.int32),
    )


def _runs(sets: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The number of the set each entry comes from, and the sets' entries, concatenated."""
    owner = np.repeat(np.arange(len(sets)), [x.size for x in sets])
    return owner, np.concatenate(sets) if sets else np.zeros(0, dtype=np.int32)


def _member_of(amb: AmbientGroup, sets: list[np.ndarray], owner: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether values[j] lies in sets[owner[j]], for sorted index arrays: one sorted search over their offset runs."""
    at, flat = _runs(sets)
    keyed = flat + at * amb.order
    probe = values + owner * amb.order
    return keyed.take(np.searchsorted(keyed, probe), mode="clip") == probe


def _times_powers(amb: AmbientGroup, r: int, count: int, sets: list[np.ndarray]) -> list[np.ndarray]:
    """S r^0 | S r^1 | ... | S r^(count-1), sorted, for each index array S whose right cosets by those powers are distinct.

    count - 1 calls of one RightProducts table, and one sort of all the
    products, each offset by its set's number times the ambient order.
    """
    if not sets:
        return []
    owner, flat = _runs(sets)
    by = RightProducts(amb, [r])
    parts = [flat]
    for _ in range(count - 1):
        parts.append(by(parts[-1]))
    keyed = np.sort(np.concatenate(parts) + np.tile(owner * amb.order, count))
    return _pieces((keyed % amb.order).astype(np.int32), [count * x.size for x in sets])


def _graph(lat: IntervalLattice) -> NormalityGraph:
    """lat's normality graph, built on first read and kept in lat.graph."""
    if lat.graph is None:
        lat.graph = normality_graph(lat)
    return lat.graph


def _interval(lat: IntervalLattice) -> tuple[Subgroup, ...]:
    """The members of Lat(T, N(T)) in lat = [T, G], in lattice order: T and its neighbours in lat's graph.

    For H >= T, T is normal in H exactly when H <= N(T), so the interval
    is T with every H that has an edge (T, H); the graph holds the edges
    into top when N(T) = G.
    """
    t = lat.bottom.id
    above = {b for a, b in _graph(lat).edges if a == t}
    return tuple(m for m in lat.members if m.id == t or m.id in above)


def _reset_lattices() -> None:
    """Empty the lattice memo, so a test that counts computations starts cold."""
    _LATTICES.clear()


def torus_block(torus: Subgroup, normalizer: Subgroup) -> dict:
    """The report's "torus" entry: order, maximal-abelian check (inside N(T)) and generator matrices."""
    amb = torus.ambient
    gens = amb.mats()[torus.generators].tolist()
    return {
        "order": torus.order,
        "maximal_abelian": is_maximal_abelian(torus, normalizer),
        "generators": [[[amb.field.coeffs_of(v) for v in row] for row in m] for m in gens],
    }


def verify_lower_garland(spec: AlgebraSpec, ambient: AmbientGroup) -> dict:
    """The case document of one algebra/ambient case, "torus" block included, built anew on every call.

    Reads everything off the case's [T, G] lattice (_torus_lattice): T is
    its bottom, N(T) and N(N(T)) are the members at the normalizer
    positions of T and N(T) (element-level, over all of G, and independent
    of the formula), and the normality graph is the lattice's own.  Checks
    (a) the formula normalizer, built from that T, vs N(T), (b) lower
    garland vs the interval up to N(T), (c) idempotence of N(T), N(T) at
    its own normalizer position.  Every check records a verdict against
    what the hypothesis record predicts, so failures outside the guaranteed
    regime are reported.  run_case adds the schema, the status and, for
    SL, the restriction block.
    """
    hyp = record_hypotheses(spec)
    lat = _torus_lattice(spec, ambient)
    # over F_2 (SL = GL) the lattice may be the other case's, so T, and the
    # formula set and failure payload built from it, are put in the case's own ambient
    torus = lat.bottom.with_ambient(ambient)
    normalizer = lat.members[lat.normalizer_at[0]]  # T is the one smallest member
    closure_failure = None
    try:
        formula = normalizer_formula(spec, torus)
        formula_order = formula.order
        formula_eq = formula.same_elements(normalizer)
    except HypothesisFailure as exc:
        closure_failure = exc.payload
        formula_order = 0
        formula_eq = False

    at = lat.normalizer_at
    second = lat.members[at[at[0]]]  # N(N(T)): N(T) is a member of [T, G]
    idempotent = bool(at[at[0]] == at[0])
    gls = garlands(_graph(lat))
    lower = next(g for g in gls if g.is_lower)
    upper = next(g for g in gls if g.is_upper)
    interval_ids = sorted(m.id for m in _interval(lat))
    equal = sorted(lower.member_ids) == interval_ids
    in_interval = set(interval_ids)
    extra = [{"id": i, "order": lat.members[lat.position[i]].order} for i in lower.member_ids if i not in in_interval]
    extra.sort(key=lambda d: (d["order"], d["id"]))

    verdicts = {
        "normalizer_formula": _verdict(formula_eq, formula_expected(hyp, ambient.kind)),
        "lower_garland": _verdict(equal, garland_expected(hyp, ambient.kind)),
        "idempotence": _verdict(idempotent, garland_expected(hyp, ambient.kind)),
    }
    return {
        "case": {
            **spec.serialize(),
            "ambient": ambient.kind.lower(),
            "n": spec.n,
            "q": spec.base.q,
            "ambient_order": ambient.order,
        },
        "hypotheses": hyp,
        "torus_order": torus.order,
        "torus": torus_block(torus, normalizer),
        "normalizers": {
            "brute_order": normalizer.order,
            "formula_order": formula_order,
            "formula_equals_brute": formula_eq,
            "formula_closure_failure": closure_failure,
        },
        "lattice": {"member_count": len(lat), "orders": lat.member_orders(), "exhaustive": lat.exhaustive},
        "garland": {
            "lower": sorted(lower.member_ids),
            "interval": interval_ids,
            "equal": equal,
            "extra_members": extra,
            "garland_count": len(gls),
            "upper_size": len(upper.member_ids),
        },
        "idempotence": {
            "holds": idempotent,
            "normalizer_of_normalizer_order": second.order,
        },
        "verdicts": verdicts,
        "overall": overall_verdict(verdicts.values()),
    }


def interval_restriction_check(spec: AlgebraSpec, gl: AmbientGroup, sl: AmbientGroup) -> dict:
    """Does cutting Lat(T, N_GL T) down to SL give exactly Lat(T', N_SL T')?  The report's "restriction" block.

    Both sides are read off the lattice memo (_torus_lattice): N_GL(T) and
    the GL interval off [T, GL], N_SL(T') and the SL interval off [T', SL].
    On the case path the SL case's own verification has put [T', SL] in
    the memo, and [T, GL] is there too or is read off it (over F_2 the pair
    shares one lattice), so the check builds no coset table and enumerates
    nothing.  Whenever the normalizer intersection identity holds the
    answer is yes, and the identity holds whenever every unit is a
    combination of norm-one units (norm_one_absorbs_units in the hypothesis
    record).  The verdict is the graver of the identity's against that
    premise and the equality's against the identity, so a hypothesis
    failure explains a mismatch and nothing else does.
    """
    if gl.kind != GL or sl.kind != SL or gl.field != sl.field or gl.n != sl.n:
        raise LatticeError("expected GL and SL ambients of one degree over one field")
    gl_lat, sl_lat = _torus_lattice(spec, gl), _torus_lattice(spec, sl)
    gl_interval, sl_interval = _interval(gl_lat), _interval(sl_lat)
    n_gl, n_sl = (lat.members[lat.normalizer_at[0]] for lat in (gl_lat, sl_lat))
    identity_holds = intersect_with_ambient(n_gl, sl).same_elements(n_sl)
    equal = {intersect_with_ambient(h, sl).indices.tobytes() for h in gl_interval} == {
        h.indices.tobytes() for h in sl_interval
    }
    premise = record_hypotheses(spec)["norm_one_absorbs_units"]
    return {
        "case": {**spec.serialize(), "n": spec.n, "q": spec.base.q},
        "intersection_identity_holds": identity_holds,  # N_SL(T') == N_GL(T) cut down to SL
        "equal": equal,
        "gl_interval_size": len(gl_interval),
        "sl_interval_size": len(sl_interval),
        "verdict": overall_verdict([_verdict(identity_holds, must=premise), _verdict(equal, must=identity_holds)]),
    }
