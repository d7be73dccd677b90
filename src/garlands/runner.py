"""Case construction, the torus and case documents, and the verification sweep (its cases in order, in one process)."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

from .cache import DiskCache, case_key
# stable_json is imported here for callers that take it from the runner, as perfbench does
from .config import DEFAULT_CAPS, SCHEMA_VERSION, Caps, stable_json
from .etale import AlgebraCapError, AlgebraSpec
from .finite_field import FieldCapError, FieldTable, construct_field, is_prime
from .lattice import (
    CONFIRMED,
    EXPECTED_COUNTEREXAMPLE,
    UNEXPECTED_MISMATCH,
    interval_restriction_check,
    overall_verdict,
    torus_block,
    verify_lower_garland,
)
from .matrix_group import (
    GL,
    SL,
    CosetTable,
    GroupCapError,
    Subgroup,
    ambient_group,
    torus_subgroup,
)


class CaseError(Exception):
    pass


@dataclass(frozen=True)
class CaseSpec:
    """One algebra/ambient case, as parsed from flags or the sweep."""

    p: int
    base_degree: int
    degrees: tuple[int, ...]
    ambient: str  # "gl" | "sl"

    def __post_init__(self):
        if self.base_degree < 1:
            raise CaseError(f"--base-degree must be >= 1, got {self.base_degree}")
        if not self.degrees or any(d < 1 for d in self.degrees):
            raise CaseError(f"--degrees must be positive integers, got {self.degrees}")
        if self.ambient not in ("gl", "sl"):
            raise CaseError(f"--ambient must be gl or sl, got {self.ambient!r}")

    @property
    def q(self) -> int:
        return self.p**self.base_degree

    @property
    def n(self) -> int:
        return sum(self.degrees)

    @property
    def kind(self) -> str:
        return GL if self.ambient == "gl" else SL

    def sort_key(self) -> tuple:
        return (self.q, self.n, self.degrees, self.ambient)

    def serialize(self) -> dict:
        return {
            "p": self.p,
            "base_degree": self.base_degree,
            "degrees": list(self.degrees),
            "ambient": self.ambient,
        }


def build_algebra(case: CaseSpec, caps: Caps = DEFAULT_CAPS) -> tuple[FieldTable, AlgebraSpec]:
    base = construct_field(case.p, case.base_degree, caps)
    return base, AlgebraSpec(base, case.degrees, caps)


def torus_report(case: CaseSpec, caps: Caps = DEFAULT_CAPS) -> dict:
    """The torus document of one case: orders, and the torus block with N(T) from T's coset table over G."""
    base, spec = build_algebra(case, caps)
    amb = ambient_group(case.kind, case.n, base, caps)
    torus = torus_subgroup(spec, amb)
    normalizer = Subgroup.of_sorted(amb, CosetTable(torus, Subgroup(amb, range(amb.order))).normalizer())
    return {
        "schema": SCHEMA_VERSION,
        "case": case.serialize(),
        "field": base.serialize(),
        "algebra_order": spec.order,
        "ambient_order": amb.order,
        "torus": torus_block(torus, normalizer),
    }


def run_case(case: CaseSpec, caps: Caps = DEFAULT_CAPS, cache: DiskCache | None = None) -> dict:
    """Full report document for one case: the case document, stamped, with an SL case's restriction block."""
    key = case_key(case.serialize(), caps)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    try:
        base, spec = build_algebra(case, caps)
        amb = ambient_group(case.kind, case.n, base, caps)
    except (GroupCapError, FieldCapError, AlgebraCapError) as exc:
        doc = {"schema": SCHEMA_VERSION, "case": case.serialize(), "status": "skipped_cap", "reason": str(exc)}
    else:
        doc = verify_lower_garland(spec, amb)
        doc["schema"] = SCHEMA_VERSION
        doc["status"] = "ok"
        # GL-vs-SL restriction data rides along with the SL case when GL fits the cap
        if case.kind == SL:
            try:
                restriction = interval_restriction_check(spec, ambient_group(GL, case.n, base, caps), amb)
            except GroupCapError as exc:
                restriction = {"skipped": str(exc)}
            doc["restriction"] = restriction
            doc["overall"] = overall_verdict([doc["overall"], restriction.get("verdict")])
    if cache is not None:
        cache.put(key, doc)
    return doc


def _partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n in non-increasing order, largest part first."""
    if n == 0:
        yield ()
        return
    top = n if largest is None else min(largest, n)
    for first in range(top, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def prime_power_bases(max_q: int) -> list[tuple[int, int]]:
    """(p, m) with p^m <= max_q, ordered by q."""
    out = []
    p = 2
    while p <= max_q:
        if is_prime(p):
            m = 1
            while p**m <= max_q:
                out.append((p, m))
                m += 1
        p += 1
    out.sort(key=lambda pm: pm[0] ** pm[1])
    return out


def sweep_cases(max_order: int) -> list[CaseSpec]:
    """Every algebra with 2 <= n and q^n <= max_order, in both ambients.

    Cases whose ambient exceeds the group cap are still listed; run_case
    reports them as skipped.  Only q with q^2 <= max_order carries a case.
    """
    cases = []
    for p, m in prime_power_bases(isqrt(max(max_order, 0))):
        q = p**m
        n = 2
        while q**n <= max_order:
            for degs in _partitions(n):
                for ambient in ("gl", "sl"):
                    cases.append(CaseSpec(p, m, degs, ambient))
            n += 1
    cases.sort(key=lambda c: c.sort_key())
    return cases


def run_sweep(max_order: int, caps: Caps = DEFAULT_CAPS, cache_dir: str | None = None) -> tuple[list[dict], dict]:
    """All case reports (ordered by case key) plus a summary, run in this process."""
    cache = DiskCache(cache_dir) if cache_dir else None
    reports = [run_case(case, caps, cache) for case in sweep_cases(max_order)]
    summary = {
        "cases": len(reports),
        "ok": sum(1 for r in reports if r.get("status") == "ok"),
        "skipped_cap": sum(1 for r in reports if r.get("status") == "skipped_cap"),
        "confirmed": sum(1 for r in reports if r.get("overall") == CONFIRMED),
        "expected_counterexamples": sum(1 for r in reports if r.get("overall") == EXPECTED_COUNTEREXAMPLE),
        "unexpected_mismatches": sum(1 for r in reports if r.get("overall") == UNEXPECTED_MISMATCH),
    }
    return reports, summary
