"""Interval lattices of subgroups, normality graphs, and garlands.

The interval Lat(bottom, top) is enumerated breadth first: for each known
member H, one representative per H-double-coset of top other than H itself
is adjoined and the generated subgroup recorded, until a fixpoint.
Double-coset representatives suffice because <H, h1*g*h2> = <H, g>.
Completeness follows by induction along any maximal chain: each covering
step K over H equals <H, g> for every g in K \\ H.

Each expanded member other than top gets one coset table inside top
(CosetTable in matrix_group), over positions in top's sorted ambient
indices: the right-multiplication permutations of H's generators,
right-coset labels (orbit minima under left multiplication by the
generators) and double-coset labels (those labels' orbit minima under the
right permutations).  The permutations belong to top (Subgroup.right_perm,
memoized per generator).  A member closed as <H, g> keeps H's generators
plus g, so members share generators, and an enumeration makes one product
of the whole top per distinct generator.  Every member contains bottom, so
its right cosets are unions of bottom's: each later table starts from
bottom's right-coset labels, and only the elements adjoined since bottom
add left permutations.  Top itself gets no table: its only double coset is
itself, so it has no extension, and N_top(top) = top.  The representatives are the positions
that are their own double label, so each is the least element of its double
coset, in ascending order.  <H, g> is then closed over right cosets instead
of elements: K = <H, g> contains H, so it is a union of right cosets H x,
and right multiplication by H's generators and by g permutes right cosets,
so the cosets reachable from H under those right multiplications are
exactly the cosets of K.  A closure costs at most [K:H] products by g plus
gathers through the permutations, and only the member being expanded holds
a table.  All of a member's closures run together (extend_subgroups): each
breadth-first level is one paired product of every live (closure, coset)
pair's least element by that closure's g, so a member costs one product
call per level, not one per level per closure, and closures reaching the
same cosets become one subgroup.  [K:H] divides [top:H], so a closure
holding more than half of top's right cosets is all of top and stops there.

Bottom is expanded first, and its table's normalizer A = N_top(bottom)
acts on the interval by conjugation; only one member per A-orbit is
expanded: a closure that yields a new member K adds K's whole orbit to the
members but queues only K, so the members are always a union of orbits.
The orbit is found breadth first over A's generators, and every conjugate
has K's order, so each level (all its subgroups by all their generators
outside them) is one paired lmul, one paired rmul and one rmul for the
conjugators.  This is still complete.  Take a covering
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
[T, GL] there raised the largest per-case time of the lattice benchmark
workload from 49 to 72 ms (medians of 20 runs on a 2-core host).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .etale import AlgebraSpec, additive_span_check, select_all_units, select_norm_one
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
        self.graph: NormalityGraph | None = None  # normality_graph's memo
        if len(self.by_id) != len(self.members):  # reports key members on ids
            raise LatticeError("subgroup id collision; widen the digest")

    def member_orders(self) -> list[int]:
        return [m.order for m in self.members]

    def __len__(self) -> int:
        return len(self.members)


def _conjugacy_orbit(k: Subgroup, acting: Subgroup) -> list[tuple[Subgroup, int]]:
    """Each conjugate a K a^-1 of K under the acting group with one such a, breadth first over its generators.

    Every conjugate has K's order, so a whole level is one batch: its
    (subgroup, generator) pairs, generators inside the subgroup skipped,
    take one paired lmul, one paired rmul and one conjugator rmul.
    """
    amb = k.ambient
    gens = np.array(acting.generators, dtype=np.int32)
    orbit = {k.indices.tobytes(): (k, amb.identity_index)}
    level = list(orbit.values())
    while level:
        # conjugating by an element of H fixes H
        inside = [h.contains(gens) for h, _ in level]
        member, gen = np.nonzero(~np.array(inside))  # member-major, the order a one-subgroup-at-a-time queue takes
        if not member.size:
            break
        g = gens[gen]
        # g (a K a^-1) g^-1 = (g a) K (g a)^-1
        conjugators = amb.rmul(g, np.array([a for _, a in level], dtype=np.int32)[member])
        rows = np.concatenate([level[i][0].indices for i in member.tolist()])
        conj = np.sort(amb.conjugate_pairs(np.repeat(g, k.order), rows).reshape(member.size, k.order), axis=1)
        level = []
        for c, row in zip(conjugators.tolist(), conj):
            key = row.tobytes()
            if key not in orbit:
                orbit[key] = (Subgroup(amb, row), c)
                level.append(orbit[key])
    return list(orbit.values())


def _conjugate_normalizers(amb: AmbientGroup, pairs: list[tuple[Subgroup, int]]) -> tuple[Subgroup, ...]:
    """a N a^-1 for each (N, a), in one paired lmul and rmul; an identity a leaves N as it is."""
    out = [n for n, _ in pairs]
    moved = [i for i, (_, a) in enumerate(pairs) if a != amb.identity_index]
    if moved:
        sizes = [out[i].order for i in moved]
        left = np.repeat(np.array([pairs[i][1] for i in moved], dtype=np.int32), sizes)
        flat = amb.conjugate_pairs(left, np.concatenate([out[i].indices for i in moved]))
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
    cosets, and its normalizer in top acts on the interval by conjugation,
    so only one member per orbit is expanded.
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
        if below is None:
            below = table
        rep_normalizers[h.indices.tobytes()] = table.normalizer()
        acting = rep_normalizers[start]  # bottom's table is the first
        for k in extend_subgroups(table, table.double_coset_reps()):
            rep = k.indices.tobytes()
            if rep not in members:
                for m, a in _conjugacy_orbit(k, acting):
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
    """Edge for every comparable pair whose smaller member is normal in the larger; built once per lattice."""
    if lat.graph is not None:
        return lat.graph
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
        above = contains[np.ix_(bs, positions[a.indices])].all(axis=1)
        inside = contains[np.ix_(bs, positions[na.indices])].sum(axis=1) == orders[bs]
        edges.extend((a.id, ms[j].id) for j in bs[above & inside])
    lat.graph = NormalityGraph(
        vertices=tuple(m.id for m in ms),
        edges=tuple(sorted(edges)),
        bottom_id=lat.bottom.id,
        top_id=lat.top.id,
    )
    return lat.graph


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
    the units' span, so it holds exactly when the two ranks agree.
    large_field_regime marks the range (q >= 13, characteristic not 2 or 3)
    in which the interval description of the lower garland is guaranteed;
    outside it the description can fail and failures are reported as
    expected.
    """
    units = additive_span_check(spec, select_all_units)
    norm_one = additive_span_check(spec, select_norm_one)
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


@dataclass
class VerificationReport:
    case: dict
    hypotheses: dict
    torus_order: int
    normalizer_brute_order: int
    normalizer_formula_order: int
    formula_equals_brute: bool
    lattice_member_count: int
    lattice_orders: list[int]
    lower_garland: list[str]
    interval: list[str]
    equal: bool
    extra_members: list[dict]  # lower garland members outside the interval
    garland_count: int
    upper_garland_size: int
    idempotent_normalizer: bool
    normalizer_of_normalizer_order: int
    verdicts: dict
    overall: str
    torus: Subgroup
    normalizer: Subgroup  # N(torus), from the torus's coset table over the whole ambient
    interval_members: tuple[Subgroup, ...]  # Lat(torus, normalizer), lattice order
    exhaustive: bool = True
    formula_closure_failure: dict | None = None

    def to_dict(self) -> dict:
        """Stable document; the subgroups themselves are deliberately excluded."""
        return {
            "case": self.case,
            "hypotheses": self.hypotheses,
            "torus_order": self.torus_order,
            "normalizers": {
                "brute_order": self.normalizer_brute_order,
                "formula_order": self.normalizer_formula_order,
                "formula_equals_brute": self.formula_equals_brute,
                "formula_closure_failure": self.formula_closure_failure,
            },
            "lattice": {
                "member_count": self.lattice_member_count,
                "orders": self.lattice_orders,
                "exhaustive": self.exhaustive,
            },
            "garland": {
                "lower": self.lower_garland,
                "interval": self.interval,
                "equal": self.equal,
                "extra_members": self.extra_members,
                "garland_count": self.garland_count,
                "upper_size": self.upper_garland_size,
            },
            "idempotence": {
                "holds": self.idempotent_normalizer,
                "normalizer_order": self.normalizer_brute_order,
                "normalizer_of_normalizer_order": self.normalizer_of_normalizer_order,
            },
            "verdicts": self.verdicts,
            "overall": self.overall,
        }


# (ambient, algebra) -> its [T, G] lattice, for the life of the process, as
# the ambient_group cache keeps the ambients
_LATTICES: dict[tuple[AmbientGroup, AlgebraSpec], IntervalLattice] = {}


def _torus_lattice(spec: AlgebraSpec, ambient: AmbientGroup) -> IntervalLattice:
    """[T, G] for spec's torus T in ambient, with its normality graph: enumerated once per process, and kept.

    Its top's memos (positions and right permutations, arrays as long as
    the ambient) are dropped once the graph is built.
    """
    key = (ambient, spec)
    if key not in _LATTICES:
        lat = enumerate_interval(torus_subgroup(spec, ambient), ambient)
        normality_graph(lat)
        lat.top.drop_memos()
        _LATTICES[key] = lat
    return _LATTICES[key]


def _interval(lat: IntervalLattice) -> tuple[Subgroup, ...]:
    """The members of Lat(T, N(T)) in lat = [T, G], in lattice order; T is the one smallest member, so N(T) is normalizers[0]."""
    return tuple(m for m in lat.members if m.is_subset_of(lat.normalizers[0]))


def _reset_lattices() -> None:
    """Empty the lattice memo, so a test that counts computations starts cold."""
    _LATTICES.clear()


def verify_lower_garland(spec: AlgebraSpec, ambient: AmbientGroup) -> VerificationReport:
    """Full verification for one algebra/ambient case.

    Reads everything off the case's [T, G] lattice (_torus_lattice): T is
    its bottom, N(T) and N(N(T)) are its normalizers of the members T and
    N(T) (element-level, over all of G, and independent of the formula),
    and the normality graph is the lattice's own.  Checks (a) the formula
    normalizer vs N(T), (b) lower garland vs the interval up to N(T),
    (c) idempotence of N(T).  Every check records a verdict against what
    the hypothesis record predicts, so failures outside the guaranteed
    regime are reported.
    """
    hyp = record_hypotheses(spec, ambient.kind)
    lat = _torus_lattice(spec, ambient)
    torus, normalizer = lat.bottom, lat.normalizers[0]  # T is the one smallest member
    closure_failure = None
    try:
        formula = normalizer_formula(spec, ambient)
        formula_order = formula.order
        formula_eq = formula.same_elements(normalizer)
    except HypothesisFailure as exc:
        closure_failure = exc.payload
        formula_order = 0
        formula_eq = False

    second = lat.normalizers[lat.members.index(normalizer)]  # N(N(T)): N(T) is a member of [T, G]
    idempotent = second.same_elements(normalizer)
    gls = garlands(normality_graph(lat))
    lower = next(g for g in gls if g.is_lower)
    upper = next(g for g in gls if g.is_upper)
    interval_members = _interval(lat)
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
    if UNEXPECTED_MISMATCH in verdicts.values():
        overall = UNEXPECTED_MISMATCH
    elif EXPECTED_COUNTEREXAMPLE in verdicts.values():
        overall = EXPECTED_COUNTEREXAMPLE
    else:
        overall = CONFIRMED

    case = dict(spec.serialize())
    case["ambient"] = ambient.kind.lower()
    case["n"] = spec.n
    case["q"] = spec.base.q
    case["ambient_order"] = ambient.order
    return VerificationReport(
        case=case,
        hypotheses=hyp,
        torus_order=torus.order,
        normalizer_brute_order=normalizer.order,
        normalizer_formula_order=formula_order,
        formula_equals_brute=formula_eq,
        lattice_member_count=len(lat),
        lattice_orders=lat.member_orders(),
        lower_garland=sorted(lower.member_ids),
        interval=interval_ids,
        equal=equal,
        extra_members=extra,
        garland_count=len(gls),
        upper_garland_size=len(upper.member_ids),
        idempotent_normalizer=idempotent,
        normalizer_of_normalizer_order=second.order,
        verdicts=verdicts,
        overall=overall,
        torus=torus,
        normalizer=normalizer,
        interval_members=interval_members,
        exhaustive=lat.exhaustive,
        formula_closure_failure=closure_failure,
    )


@dataclass
class RestrictionReport:
    case: dict
    intersection_identity_holds: bool  # N_SL(T') == N_GL(T) cut down to SL
    equal: bool
    gl_interval_size: int
    sl_interval_size: int
    verdict: str

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "intersection_identity_holds": self.intersection_identity_holds,
            "equal": self.equal,
            "gl_interval_size": self.gl_interval_size,
            "sl_interval_size": self.sl_interval_size,
            "verdict": self.verdict,
        }


def interval_restriction_check(spec: AlgebraSpec, gl: AmbientGroup, sl_report: VerificationReport) -> RestrictionReport:
    """Does cutting Lat(T, N_GL T) down to SL give exactly Lat(T', N_SL T')?

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
    sl = sl_report.torus.ambient  # over F_2 possibly the GL object, whose lattice the SL case shares
    if gl.kind != GL or sl_report.case["ambient"] != "sl" or gl.field != sl.field or gl.n != sl.n:
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
    verdict = _verdict(equal, must=identity_holds)
    case = dict(spec.serialize())
    case["n"] = spec.n
    case["q"] = spec.base.q
    return RestrictionReport(
        case=case,
        intersection_identity_holds=identity_holds,
        equal=equal,
        gl_interval_size=len(interval),
        sl_interval_size=len(sl_report.interval_members),
        verdict=verdict,
    )
