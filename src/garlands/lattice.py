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
beside it.  Inside a call the closures run in consecutive runs whose
claim arrays hold at most _BLOCK_ENTRIES slots, and a run's closures take
their elements from masks gathered in blocks of the same size
(extend_level).  Only one chunk's tables are alive at once; on small tops a
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
The orbit is taken by left cosets.  Bottom's right-coset leaders in A
(CosetTable.leaders that lie in A) give one element a per right coset
bottom a, which is the left coset a bottom, as A normalizes bottom.  Let
B = <bottom, K's generators that lie in A>; B <= K, so for b in B,
(a b) K (a b)^-1 = a K a^-1: conjugation is constant on each left coset
aB, and conjugating K by one element per left coset of B in A reaches its
whole orbit.  A left coset inside K fixes K and is skipped.  A is labelled
by left cosets of B as orbit minima under the right permutations of K's
generators in A outside bottom, hooked onto the labels of bottom's left
cosets (_orbit_minima), through the root table's memo of right
permutations when A is top; with no such generator B = bottom, and the
leaders are the left cosets.  The least element of each coset outside K
then conjugates K's elements in one batch.  That element is a leader, the
least of its coset of bottom, so every conjugation goes through one
product table of the leaders' inverses ([A:bottom] factors, not |A|),
built at the first orbit that conjugates.  One stable sort of the
conjugates' sorted rows drops repeats and keeps, for each conjugate, the
first element that reaches it.  On [1, GL(3,2)], where
A = G and B = K, that is [G:K] - 1 conjugations of K, where one per
leader outside K took |G| - |K|.

The enumeration is still complete.  Take a covering step
H_{i+1} = <H_i, g> along a chain from bottom, with H_i = n R n^-1 for an
expanded representative R and n in A.  Then n^-1 H_{i+1} n =
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
row holds, in column blocks under a fixed entry budget.  The graph is
held in member positions: its edges as two position arrays, its garlands
as each member's least position in its component, found by min-label
hooking and pointer jumping (_components), and the interval's positions.
Ids are made once per lattice, from one key gather over all members
(Subgroup.digest_ids), and a report reads them only for the members it
names.

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
    _BLOCK_ENTRIES,
    GL,
    SL,
    AmbientGroup,
    CosetTable,
    HypothesisFailure,
    RightProducts,
    Subgroup,
    _jump,
    _orbit_minima,
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


class _Action:
    """A = N_top(bottom) acting on [bottom, top] by conjugation, read off bottom's coset table (module docstring).

    A's elements are numbered by their positions in A (its sorted indices).
    Its right cosets of bottom are its left cosets, bottom a = a bottom as
    A normalizes bottom, and leaders holds their least elements.  The
    least element of a left coset of any B between bottom and A is a
    leader, so every conjugation is by a leader, named by its number in
    leaders.  A's elements, the labels of bottom's cosets by least
    position (base), and the product table of the leaders' inverses, which
    every conjugation goes through, are built at their first use.
    """

    def __init__(self, below: CosetTable):
        top = below.top
        self.below = below
        self.inside = below.dwidth.take(below.dnum) == 1  # bottom's right cosets in A: their own double cosets
        self.leaders = top.indices[below.leaders[self.inside]]
        self.order = self.leaders.size * below.h.order  # |A|
        self.whole = self.order == top.order  # A is top: A's positions are top's, and the root table's memo serves
        self._own = int(below.coset[below.positions[top.ambient.identity_index]])  # bottom's own right coset
        self._elements: np.ndarray | None = None
        self._base: np.ndarray | None = None
        self._inverses: RightProducts | None = None

    def representatives(self, k: Subgroup) -> np.ndarray:
        """The leader number of the least element of every left coset of B = <bottom, K's generators in A> outside K.

        Conjugation by a is constant on aB, as B <= K; aB lies in K or
        misses it.  With no generator of K in A outside bottom, B = bottom
        and the leaders lead its left cosets.  Otherwise A's left cosets of
        B are the classes joining a to a s for those generators s, hooked
        onto base by their right permutations of A (_orbit_minima).
        """
        if k.order % self.order == 0 and k.contains(self.leaders).all():  # K holds A
            return np.zeros(0, dtype=np.intp)
        fresh = [s for s in k.generators if self._fresh(s)]
        if not fresh:
            return np.flatnonzero(~k.contains(self.leaders))
        elements = self.elements()
        if self.whole:
            perms = [self.below.right_perm(x) for x in fresh]
        else:
            which = np.repeat(np.arange(len(fresh), dtype=np.int32), elements.size)
            prods = RightProducts(k.ambient, fresh)(np.tile(elements, len(fresh)), which)
            perms = list(np.searchsorted(elements, prods).astype(np.int32).reshape(len(fresh), -1))
        labels = _orbit_minima(self.base(), perms)
        firsts = np.searchsorted(elements, self.leaders)  # the leaders' positions in A
        reps = np.searchsorted(firsts, np.flatnonzero(labels == np.arange(labels.size)))
        return reps[~k.contains(self.leaders.take(reps))]

    def _fresh(self, s: int) -> bool:
        """Whether s lies in A outside bottom: in top, in a right coset of bottom inside A, and not in bottom's own."""
        at = self.below.positions[s]
        coset = self.below.coset[at] if at >= 0 else self._own
        return coset != self._own and bool(self.inside[coset])

    def elements(self) -> np.ndarray:
        """A's sorted ambient indices: top's, or the positions whose right coset of bottom lies in A."""
        if self._elements is None:
            below = self.below
            self._elements = below.top.indices if self.whole else below.top.indices[self.inside.take(below.coset)]
        return self._elements

    def base(self) -> np.ndarray:
        """Each position in A -> the least position in A of its coset of bottom."""
        if self._base is None:
            below = self.below
            least = below.leaders.take(below.coset)  # top position -> the least position of its right coset
            if self.whole:
                self._base = least
            else:
                spots = below.positions.take(self.elements())  # A's positions in top
                self._base = np.searchsorted(spots, least.take(spots)).astype(np.int32)
        return self._base

    def conjugate(self, at: np.ndarray, idxs: np.ndarray) -> np.ndarray:
        """a x a^-1 for a = leaders[at[i]] and x = idxs[i]: two right products by a^-1 through one table of their inverses."""
        amb = self.below.top.ambient
        inv = amb.inv_indices()
        if self._inverses is None:
            self._inverses = RightProducts(amb, inv.take(self.leaders))
        by = self._inverses
        return by(inv.take(by(inv.take(idxs), at)), at)


def _conjugacy_orbit(k: Subgroup, action: _Action) -> list[tuple[Subgroup, int]]:
    """Each conjugate a K a^-1 of K under A with one such a, from one conjugation batch.

    One a per left coset of B in A outside K reaches every conjugate
    (_Action.representatives); a K with no such coset, which holds A, is
    its whole orbit.  K comes first, with the identity.  The other
    conjugates' sorted rows go under K's and are told apart by one stable
    sort of the rows as byte strings, so each conjugate keeps the first a
    that reaches it.  The distinct rows are copied out together, and each
    new conjugate holds its row of that copy.
    """
    amb = k.ambient
    moving = action.representatives(k)
    if not moving.size:
        return [(k, amb.identity_index)]
    at = np.repeat(moving.astype(np.int32), k.order)
    conj = action.conjugate(at, np.tile(k.indices, moving.size)).reshape(moving.size, k.order)
    rows = np.vstack([k.indices, np.sort(conj, axis=1)])
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys.take(order)
    first = np.sort(order[np.concatenate(([True], ranked[1:] != ranked[:-1]))])[1:]  # K's row is 0, the first
    conjugates = zip(rows[first], action.leaders.take(moving.take(first - 1)).tolist())
    return [(k, amb.identity_index)] + [(Subgroup.of_sorted(amb, row), a) for row, a in conjugates]


def _normalizer_positions(keys: list[bytes], members: dict, rep_normalizers: dict, action: _Action | None) -> np.ndarray:
    """For each key, in members as (member, R's key, a), the position in keys of N_top(a R a^-1) = a N_top(R) a^-1.

    One conjugation batch through the action's table and one sort; an
    identity a leaves N_top(R) as it is.  The conjugates are sorted
    together, each offset by its run's number times the ambient order, so
    every run comes out ascending.
    """
    out = [rep_normalizers[members[key][1]] for key in keys]
    moved = [i for i, key in enumerate(keys) if members[key][1] != key]  # the members that are not representatives
    if moved:
        sizes = [out[i].size for i in moved]
        amb = action.below.top.ambient
        a = np.searchsorted(action.leaders, [members[keys[i]][2] for i in moved]).astype(np.int32)
        flat = action.conjugate(np.repeat(a, sizes), np.concatenate([out[i] for i in moved]))
        offset = np.repeat(np.arange(len(moved), dtype=np.int64) * amb.order, sizes)
        flat = (np.sort(flat + offset) - offset).astype(np.int32)
        for i, part in zip(moved, _pieces(flat, sizes)):
            out[i] = part
    at = {key: i for i, key in enumerate(keys)}
    return np.array([at[n.tobytes()] for n in out], dtype=np.int32)


def _pieces(flat: np.ndarray, sizes: Sequence[int]) -> list[np.ndarray]:
    """flat cut into consecutive runs of the given sizes, as slices."""
    ends = np.cumsum(sizes).tolist()
    return [flat[end - size : end] for end, size in zip(ends, sizes)]




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
    below = action = None  # bottom's table and A's action, once built
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
                    action = _Action(below)
            closed = extend_level([(table, table.double_coset_reps()) for table in tables])
            for h, (elements, g) in ((t.h, c) for t, cs in zip(tables, closed) for c in cs):
                rep = elements.tobytes()
                if rep not in members:
                    k = Subgroup.of_sorted(ambient, elements, [*h.generators, g])
                    for m, a in _conjugacy_orbit(k, action):
                        members[rep if m is k else m.indices.tobytes()] = (m, rep, a)
                    found.append(k)
                    if max_members is not None and len(members) > max_members:
                        exhaustive = False
                        break
            if not exhaustive:
                break
        level = found
    Subgroup.digest_ids([m for m, _, _ in members.values()])
    keys = sorted(members, key=lambda key: (members[key][0].order, members[key][0].id))
    return IntervalLattice(
        bottom=bottom,
        top=top,
        ambient=ambient,
        members=tuple(members[key][0] for key in keys),
        exhaustive=exhaustive,
        normalizer_at=_normalizer_positions(keys, members, rep_normalizers, action) if exhaustive else None,
    )


@dataclass(eq=False)  # compared by __eq__ below: the edges are arrays
class NormalityGraph:
    """The normality graph of an exhaustive lattice, held in member positions.

    smaller[e] < larger[e] are the positions of edge e's members, the
    smaller normal in the larger, in ascending (smaller, larger) order.
    component[i] is the least position in member i's garland (bottom's is
    0), and interval holds T = bottom and its neighbours, ascending: the
    positions of [T, N(T)] when bottom is a torus T (_interval).  vertices
    and edges, as (smaller id, larger id) sorted, are id views built on
    each read, for callers that key on ids.
    """

    members: tuple[Subgroup, ...]
    smaller: np.ndarray
    larger: np.ndarray

    def __post_init__(self):
        self.component = _components(len(self.members), self.smaller, self.larger)
        self.interval = np.concatenate(([0], self.larger[self.smaller == 0])).astype(np.int32)

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(m.id for m in self.members)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        ms = self.members
        return tuple(sorted((ms[a].id, ms[b].id) for a, b in zip(self.smaller.tolist(), self.larger.tolist())))

    @property
    def bottom_id(self) -> str:
        return self.members[0].id

    @property
    def top_id(self) -> str:
        return self.members[-1].id

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalityGraph)
            and self.vertices == other.vertices
            and np.array_equal(self.smaller, other.smaller)
            and np.array_equal(self.larger, other.larger)
        )


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
    counts in float64.  The edges stay member positions.
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
    smaller, larger = np.nonzero(normal)
    return NormalityGraph(members=ms, smaller=smaller.astype(np.int32), larger=larger.astype(np.int32))


def _components(count: int, smaller: np.ndarray, larger: np.ndarray) -> np.ndarray:
    """The least position in each position's connected component, joined by the edges (smaller[e], larger[e]).

    The _orbit_minima scheme over edges: each round hooks the label of
    either end onto the other's when that is smaller (np.minimum.at), then
    pointer-jumps until every label is its own label.  Labels only fall and
    stay inside their component, and once every edge joins equal labels
    each is its component's least position.
    """
    labels = np.arange(count, dtype=np.int32)
    while True:
        ends = labels.take(smaller), labels.take(larger)
        if np.array_equal(*ends):
            return labels
        for a, b in (ends, ends[::-1]):
            np.minimum.at(labels, a, b)
        labels = _jump(labels)


@dataclass
class Garland:
    member_ids: tuple[str, ...]
    is_lower: bool
    is_upper: bool


def garlands(graph: NormalityGraph) -> list[Garland]:
    """Connected components of the normality graph, lower/upper flagged, from its component labels."""
    ids = graph.vertices
    comps: dict[int, list[str]] = {}
    for i, root in enumerate(graph.component.tolist()):
        comps.setdefault(root, []).append(ids[i])
    lower, upper = 0, int(graph.component[-1])
    out = [Garland(member_ids=tuple(sorted(vs)), is_lower=root == lower, is_upper=root == upper) for root, vs in comps.items()]
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
    Subgroup.digest_ids(list(members.values()))
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
    into top when N(T) = G, and keeps the interval's positions.
    """
    return tuple(lat.members[i] for i in _graph(lat).interval.tolist())


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
        formula = normalizer_formula(spec, torus, normalizer)
        formula_order = formula.order
        formula_eq = formula.same_elements(normalizer)
    except HypothesisFailure as exc:
        closure_failure = exc.payload
        formula_order = 0
        formula_eq = False

    at = lat.normalizer_at
    second = lat.members[at[at[0]]]  # N(N(T)): N(T) is a member of [T, G]
    idempotent = bool(at[at[0]] == at[0])
    # the garlands are the graph's components, bottom's (the lower) at label 0 and top's (the upper) at its own
    graph = _graph(lat)
    component, interval = graph.component, graph.interval
    lower = np.flatnonzero(component == 0)
    equal = np.array_equal(lower, interval)
    ms = lat.members
    in_interval = np.zeros(len(ms), dtype=bool)
    in_interval[interval] = True
    # the members are in (order, id) order, so lower's positions outside the interval are too
    extra = [{"id": ms[i].id, "order": ms[i].order} for i in lower[~in_interval.take(lower)].tolist()]

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
            "lower": sorted(ms[i].id for i in lower.tolist()),
            "interval": sorted(ms[i].id for i in interval.tolist()),
            "equal": equal,
            "extra_members": extra,
            "garland_count": int(np.count_nonzero(component == np.arange(len(ms)))),
            "upper_size": int(np.count_nonzero(component == component[-1])),
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
