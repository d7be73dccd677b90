"""Interval lattices of subgroups, normality graphs, and garlands.

The interval Lat(bottom, top) is enumerated breadth first: for each known
member H, one representative per H-double-coset of top other than H itself
is adjoined and the generated subgroup recorded, until a fixpoint.
Double-coset representatives suffice because <H, h1*g*h2> = <H, g>.
Completeness follows by induction along any maximal chain: each covering
step K over H equals <H, g> for every g in K \\ H.

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
per distinct generator that a position table reads.
Top itself gets no
table: its only double coset is itself, so it has no extension, and
N_top(top) = top.  The representatives are the leaders of the cosets
that are their own double label, so each is the least element of its
double coset, in ascending order.  <H, g> is then closed over double
cosets instead of elements: K = <H, g> contains H, so it is a union of
double cosets H x H, and H x H is the orbit of the right coset H x under
right multiplication by H's generators.  So the right cosets of K are
those reached from H by two moves, completing a right coset to its double
coset and multiplying it by g.  A closure costs at most [K:H] products by
g and no gather through the maps of cosets, and only the member being
expanded holds a table.  All of a member's closures run together
(extend_subgroups): the products by every g go through one factor table
built for the call, and each breadth-first level multiplies every right
coset of each newly claimed (closure, double coset) pair by that
closure's g, so a level is one call with no matrix product, and closures
claiming the same double cosets become one subgroup.  [K:H] divides
[top:H], so a closure whose double cosets hold more than half of top's
right cosets is all of top and stops there.

Bottom is expanded first, and its table's normalizer A = N_top(bottom)
acts on the interval by conjugation; only one member per A-orbit is
expanded: a closure that yields a new member K adds K's whole orbit to the
members but queues only K, so the members are always a union of orbits.
The orbit comes from bottom's right-coset leaders in A (CosetTable.leaders
that lie in A), one element a per right coset bottom a, and needs no
generators of A.  Every n in A is t a for a leader a and some t in bottom,
and bottom lies in every member H, so n^-1 H n = a^-1 t^-1 H t a = a^-1 H a;
as a H a^-1 contains a bottom a^-1 = bottom, also n H n^-1 = a H a^-1.  So
conjugating K by every leader reaches its whole orbit.  A leader inside K
fixes K and is skipped, and the rest conjugate K's elements in one batch,
through one factor table of their inverses.  The enumeration is still complete.  Take a covering
step H_{i+1} = <H_i, g> along a chain from bottom, with H_i = n R n^-1 for
an expanded representative R and n in A.  Then n^-1 H_{i+1} n =
<R, n^-1 g n>, and n^-1 g n lies in top, so that subgroup is the closure of
R with the representative of n^-1 g n's R-double-coset.  It was found when
R was expanded, its orbit was added with it, and that orbit contains
H_{i+1}.

Every member's normalizer in top comes from the same tables: a
representative R has N_top(R) from its own table (top, which has none, is
its own), and a member a R a^-1 found by conjugating has a N_top(R) a^-1.
Edges of the normality graph join every comparable pair with the smaller
subgroup normal in the larger (no Hasse restriction); garlands are the
connected components.  a is normal in b exactly when a < b <= N_top(a), so
each member needs two subset tests against the rows of a members x top
membership matrix and no group products.

One case pipeline: every case's [T, G] is enumerated once per process,
and kept (keyed by (ambient, algebra), so over F_2, where SL = GL, the two
cases share it).  T, N(T), N(N(T)), the normality graph and the interval
[T, N(T)] are all read off that lattice, which keeps element lists only.
An SL restriction that runs before its GL case enumerates only
Lat(T, N_GL T) and keeps nothing: enumerating and keeping the whole
[T, GL] there raised SL(3,3) with degrees 2,1, run first, from 30 to 47 ms
(medians of 15 alternating fresh-process runs on a 2-core host).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .etale import AlgebraSpec, additive_span_check
from .matrix_group import (
    GL,
    AmbientGroup,
    CosetTable,
    HypothesisFailure,
    Subgroup,
    extend_subgroups,
    intersect_with_ambient,
    normalizer_formula,
    torus_subgroup,
)


class LatticeError(Exception):
    pass


class NonExhaustiveError(LatticeError):
    pass


@dataclass
class IntervalLattice:
    bottom: Subgroup
    top: Subgroup
    ambient: AmbientGroup
    members: tuple[Subgroup, ...]  # sorted by (order, id)
    exhaustive: bool = True
    normalizers: tuple[Subgroup, ...] = ()  # N_top of each member, aligned with members; () unless exhaustive

    def __post_init__(self):
        self.by_id = {m.id: m for m in self.members}
        self.graph: NormalityGraph | None = None  # set by _torus_lattice for the lattices it keeps
        if len(self.by_id) != len(self.members):  # reports key members on ids
            raise LatticeError("subgroup id collision; widen the digest")

    def member_orders(self) -> list[int]:
        return [m.order for m in self.members]

    def __len__(self) -> int:
        return len(self.members)


def _conjugacy_orbit(k: Subgroup, leaders: np.ndarray) -> list[tuple[Subgroup, int]]:
    """Each conjugate a K a^-1 of K under A with one such a, from one conjugation batch.

    leaders holds one ambient index per right coset of bottom in A, which
    reaches every conjugate (see the module docstring).  K comes first,
    with the identity; leaders inside K fix K and are skipped, and each
    other conjugate records the first leader that reaches it.
    """
    amb = k.ambient
    orbit = {k.indices.tobytes(): (k, amb.identity_index)}
    moving = leaders[~k.contains(leaders)]
    if moving.size:
        for a, row in zip(moving.tolist(), np.sort(amb.conjugates(moving, k.indices), axis=1)):
            key = row.tobytes()
            if key not in orbit:
                orbit[key] = (Subgroup(amb, row), a)
    return list(orbit.values())


def _conjugate_normalizers(amb: AmbientGroup, pairs: list[tuple[Subgroup, int]]) -> tuple[Subgroup, ...]:
    """a N a^-1 for each (N, a), in one conjugate_by call; an identity a leaves N as it is."""
    out = [n for n, _ in pairs]
    moved = [i for i, (_, a) in enumerate(pairs) if a != amb.identity_index]
    if moved:
        sizes = [out[i].order for i in moved]
        which = np.repeat(np.arange(len(moved), dtype=np.int32), sizes)
        gs = np.array([pairs[i][1] for i in moved], dtype=np.int32)
        flat = amb.conjugate_by(gs, which, np.concatenate([out[i].indices for i in moved]))
        for i, part in zip(moved, np.split(flat, np.cumsum(sizes)[:-1])):
            out[i] = Subgroup(amb, part)
    return tuple(out)


def enumerate_interval(
    bottom: Subgroup,
    ambient: AmbientGroup,
    within: Subgroup | None = None,
    max_members: int | None = None,
) -> IntervalLattice:
    """All subgroups H with bottom <= H <= top (top = within or the ambient), each with N_top(H).

    Bottom's table is built first; it seeds every later table's right
    cosets, and its normalizer in top acts on the interval by conjugation
    through its right-coset leaders, so only one member per orbit is
    expanded.
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
    rep_normalizers: dict[bytes, Subgroup] = {}  # representative key -> N_top(R)
    queue = deque([bottom])
    exhaustive = True
    below = None  # bottom's table, once built
    while queue and exhaustive:
        h = queue.popleft()
        if h.order == top.order:  # top is its own only double coset: no extension, and N_top(top) = top
            rep_normalizers[h.indices.tobytes()] = top
            continue
        table = CosetTable(h, top, below)
        rep_normalizers[h.indices.tobytes()] = table.normalizer()
        if below is None:  # bottom's table, the first
            below = table
            leaders = top.indices[table.leaders]
            leaders = leaders[rep_normalizers[start].contains(leaders)]  # one per right coset of bottom in A
        for k in extend_subgroups(table, table.double_coset_reps()):
            rep = k.indices.tobytes()
            if rep not in members:
                for m, a in _conjugacy_orbit(k, leaders):
                    members[m.indices.tobytes()] = (m, rep, a)
                queue.append(k)
                if max_members is not None and len(members) > max_members:
                    exhaustive = False
                    break
    ordered = sorted(members.values(), key=lambda e: (e[0].order, e[0].id))
    return IntervalLattice(
        bottom=bottom,
        top=top,
        ambient=ambient,
        members=tuple(m for m, _, _ in ordered),
        exhaustive=exhaustive,
        normalizers=(
            _conjugate_normalizers(ambient, [(rep_normalizers[r], a) for _, r, a in ordered]) if exhaustive else ()
        ),
    )


@dataclass
class NormalityGraph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]  # (smaller id, larger id), sorted
    bottom_id: str
    top_id: str


def normality_graph(lat: IntervalLattice) -> NormalityGraph:
    """Edge for every comparable pair whose smaller member is normal in the larger."""
    if not lat.exhaustive:
        raise NonExhaustiveError("normality graph requires an exhaustive lattice")
    ms = lat.members
    # contains[i, x]: member i holds top position x; a row's columns at a
    # subgroup's positions are all set exactly when that member contains it
    positions = lat.top.positions()
    contains = np.zeros((len(ms), lat.top.order), dtype=bool)
    for i, m in enumerate(ms):
        contains[i, positions[m.indices]] = True
    orders = np.array([m.order for m in ms])
    edges = []
    for a, na in zip(ms, lat.normalizers):
        # a is normal in b exactly when a < b <= N_top(a)
        bs = np.flatnonzero((orders > a.order) & (na.order % orders == 0))
        rows = contains.take(bs, 0)  # one row gather, then column gathers: np.ix_ costs about half as much again
        above = rows.take(positions.take(a.indices), 1).all(axis=1)
        inside = rows.take(positions.take(na.indices), 1).sum(axis=1) == orders[bs]
        edges.extend((a.id, ms[j].id) for j in bs[above & inside])
    return NormalityGraph(
        vertices=tuple(m.id for m in ms),
        edges=tuple(sorted(edges)),
        bottom_id=lat.bottom.id,
        top_id=lat.top.id,
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


def _is_f3_plus_f3(spec: AlgebraSpec) -> bool:
    return spec.base.q == 3 and spec.degrees == (1, 1)


def _split_family_over_f3(spec: AlgebraSpec) -> bool:
    """S = F_3 + ... + F_3 over F_3, the known small-field garland failures."""
    return spec.base.q == 3 and spec.n >= 2 and all(d == 1 for d in spec.degrees)


def record_hypotheses(spec: AlgebraSpec, ambient_kind: str) -> dict:
    """The hypothesis record attached to every verification report.

    units_span / norm_one_span are the additive-generation conditions for the
    torus and its determinant-one part; norm_one_absorbs_units is the weaker
    premise (every unit is a combination of norm-one units) that drives the
    GL-vs-SL normalizer intersection identity; the norm-one span lies inside
    the units' span, so it holds exactly when the two ranks agree.  All
    three come from one additive_span_check, one elimination for both ranks.
    large_field_regime marks the range (q >= 13, characteristic not 2 or 3)
    in which the interval description of the lower garland is guaranteed;
    outside it the description can fail and failures are reported as
    expected.
    """
    units, norm_one = additive_span_check(spec)
    q = spec.base.q
    f2_factors = sum(1 for d in spec.degrees if d == 1) if q == 2 else 0
    rec = {
        "units_span": units.spans,
        "norm_one_span": norm_one.spans,
        "norm_one_absorbs_units": norm_one.rank == units.rank,
        "not_f3_plus_f3": not _is_f3_plus_f3(spec),
        "at_most_two_f2_factors": f2_factors <= 2,
        "sum_of_fields": True,
        "large_field_regime": q >= 13 and spec.base.p not in (2, 3),
        "split_family_over_f3": _split_family_over_f3(spec),
        "ambient_span": units.spans if ambient_kind == GL else (units.spans and norm_one.spans),
    }
    return rec


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


@dataclass
class VerificationReport:
    doc: dict  # the case's report document; the subgroups below are deliberately not in it
    torus: Subgroup
    normalizer: Subgroup  # N(torus), from the torus's coset table over the whole ambient
    interval_members: tuple[Subgroup, ...]  # Lat(torus, normalizer), lattice order

    def to_dict(self) -> dict:
        """A fresh top level of the document, so a caller may add keys to it."""
        return dict(self.doc)


# (ambient, algebra) -> its [T, G] lattice, for the life of the process, as
# the ambient_group cache keeps the ambients
_LATTICES: dict[tuple[AmbientGroup, AlgebraSpec], IntervalLattice] = {}


def _torus_lattice(spec: AlgebraSpec, ambient: AmbientGroup) -> IntervalLattice:
    """[T, G] for spec's torus T in ambient, and its normality graph in lat.graph: built once per process, kept.

    The lattice keeps subgroups' element lists and the graph member ids
    only: no subgroup holds a memo, and the coset tables' positions and
    right permutations went with the enumeration.
    """
    key = (ambient, spec)
    if key not in _LATTICES:
        lat = enumerate_interval(torus_subgroup(spec, ambient), ambient)
        lat.graph = normality_graph(lat)
        _LATTICES[key] = lat
    return _LATTICES[key]


def _interval(lat: IntervalLattice) -> tuple[Subgroup, ...]:
    """The members of Lat(T, N(T)) in lat = [T, G], in lattice order; T is the one smallest member, so N(T) is normalizers[0].

    One membership test of every member's indices against N(T); a member
    is inside when all of its run is.
    """
    inside = lat.normalizers[0].contains(np.concatenate([m.indices for m in lat.members]))
    starts = np.cumsum([0] + [m.order for m in lat.members[:-1]])
    return tuple(m for m, kept in zip(lat.members, np.logical_and.reduceat(inside, starts)) if kept)


def _reset_lattices() -> None:
    """Empty the lattice memo, so a test that counts computations starts cold."""
    _LATTICES.clear()


def verify_lower_garland(spec: AlgebraSpec, ambient: AmbientGroup) -> VerificationReport:
    """Full verification for one algebra/ambient case.

    Reads everything off the case's [T, G] lattice (_torus_lattice): T is
    its bottom, N(T) and N(N(T)) are its normalizers of the members T and
    N(T) (element-level, over all of G, and independent of the formula),
    and the normality graph is the lattice's own.  Checks (a) the formula
    normalizer, built from that T, vs N(T), (b) lower garland vs the
    interval up to N(T), (c) idempotence of N(T).  Every check records a
    verdict against what the hypothesis record predicts, so failures
    outside the guaranteed regime are reported.  The case's report
    document is built here, beside T, N(T) and the interval's members.
    """
    hyp = record_hypotheses(spec, ambient.kind)
    lat = _torus_lattice(spec, ambient)
    # over F_2 (SL = GL) the lattice may be the other case's, so the report's
    # subgroups, and T in the failure payload, are put in the case's own ambient
    torus = lat.bottom.with_ambient(ambient)
    normalizer = lat.normalizers[0].with_ambient(ambient)  # T is the one smallest member
    closure_failure = None
    try:
        formula = normalizer_formula(spec, torus)
        formula_order = formula.order
        formula_eq = formula.same_elements(normalizer)
    except HypothesisFailure as exc:
        closure_failure = exc.payload
        formula_order = 0
        formula_eq = False

    second = lat.normalizers[lat.members.index(normalizer)]  # N(N(T)): N(T) is a member of [T, G]
    idempotent = second.same_elements(normalizer)
    gls = garlands(lat.graph)
    lower = next(g for g in gls if g.is_lower)
    upper = next(g for g in gls if g.is_upper)
    interval_members = tuple(m.with_ambient(ambient) for m in _interval(lat))
    interval_ids = sorted(m.id for m in interval_members)
    equal = sorted(lower.member_ids) == interval_ids
    in_interval = set(interval_ids)
    extra = [{"id": mid, "order": lat.by_id[mid].order} for mid in lower.member_ids if mid not in in_interval]
    extra.sort(key=lambda d: (d["order"], d["id"]))

    verdicts = {
        "normalizer_formula": _verdict(formula_eq, formula_expected(hyp, ambient.kind)),
        "lower_garland": _verdict(equal, garland_expected(hyp, ambient.kind)),
        "idempotence": _verdict(idempotent, garland_expected(hyp, ambient.kind)),
    }
    doc = {
        "case": {
            **spec.serialize(),
            "ambient": ambient.kind.lower(),
            "n": spec.n,
            "q": spec.base.q,
            "ambient_order": ambient.order,
        },
        "hypotheses": hyp,
        "torus_order": torus.order,
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
            "normalizer_order": normalizer.order,
            "normalizer_of_normalizer_order": second.order,
        },
        "verdicts": verdicts,
        "overall": overall_verdict(verdicts.values()),
    }
    return VerificationReport(doc, torus, normalizer, interval_members)


def interval_restriction_check(spec: AlgebraSpec, gl: AmbientGroup, sl_report: VerificationReport) -> dict:
    """Does cutting Lat(T, N_GL T) down to SL give exactly Lat(T', N_SL T')?  The report's "restriction" block.

    The SL side (T', N_SL T' and its interval) comes from the SL case's own
    verification report.  The GL side (N_GL(T) and the members of
    Lat(T, N_GL T)) is read off the GL case's [T, G] lattice whenever the
    lattice memo holds it, which over F_2 (SL = GL) it always does.  Else
    N_GL(T) comes from T's table over GL and the interval is enumerated
    inside it, and nothing is kept (see the module docstring for why).
    Whenever the normalizer intersection identity holds the answer is yes;
    the identity itself is recorded so hypothesis failures explain
    mismatches.
    """
    sl = sl_report.torus.ambient  # over F_2 equal to gl, so the memo key (gl, spec) finds the lattice the pair shares
    if gl.kind != GL or sl_report.doc["case"]["ambient"] != "sl" or gl.field != sl.field or gl.n != sl.n:
        raise LatticeError("expected matching GL and SL ambients")
    lat = _LATTICES.get((gl, spec))
    if lat is not None:
        n_gl, interval = lat.normalizers[0], _interval(lat)
    else:
        torus = torus_subgroup(spec, gl)
        n_gl = CosetTable(torus, Subgroup(gl, np.arange(gl.order, dtype=np.int32))).normalizer()
        interval = enumerate_interval(torus, gl, within=n_gl).members
    identity_holds = intersect_with_ambient(n_gl, sl).same_elements(sl_report.normalizer)

    lhs = {intersect_with_ambient(h, sl).indices.tobytes() for h in interval}
    rhs = {h.indices.tobytes() for h in sl_report.interval_members}
    equal = lhs == rhs
    return {
        "case": {**spec.serialize(), "n": spec.n, "q": spec.base.q},
        "intersection_identity_holds": identity_holds,  # N_SL(T') == N_GL(T) cut down to SL
        "equal": equal,
        "gl_interval_size": len(interval),
        "sl_interval_size": len(sl_report.interval_members),
        "verdict": _verdict(equal, must=identity_holds),
    }
