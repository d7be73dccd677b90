"""Case construction, the verification sweep, and stable report documents."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator

from .cache import DiskCache, case_key
from .config import DEFAULT_CAPS, SCHEMA_VERSION, Caps
from .etale import AlgebraCapError, AlgebraSpec
from .finite_field import FieldCapError, FieldTable, construct_field, is_prime
from .lattice import (
    CONFIRMED,
    EXPECTED_COUNTEREXAMPLE,
    UNEXPECTED_MISMATCH,
    interval_restriction_check,
    verify_lower_garland,
)
from .matrix_group import GL, SL, GroupCapError, Subgroup, ambient_group, is_maximal_abelian


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
        if not is_prime(self.p):
            raise CaseError(f"--p must be prime, got {self.p}")
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


def torus_block(torus: Subgroup, normalizer: Subgroup) -> dict:
    """The report's "torus" entry: order, maximal-abelian check (inside N(T)) and generator matrices."""
    return {
        "order": torus.order,
        "maximal_abelian": is_maximal_abelian(torus, normalizer),
        "generators": [m.coeff_rows() for m in torus.generator_matrices()],
    }


def run_case(case: CaseSpec, caps: Caps = DEFAULT_CAPS, cache: DiskCache | None = None) -> dict:
    """Full report document for one case (verify + restriction + maximal-abelian)."""
    key = case_key(case.serialize(), caps)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    try:
        base, spec = build_algebra(case, caps)
        amb = ambient_group(case.kind, case.n, base, caps)
    except (GroupCapError, FieldCapError, AlgebraCapError) as exc:
        case_doc = case.serialize()
        case_doc["q"] = case.q
        case_doc["n"] = case.n
        doc = {
            "schema": SCHEMA_VERSION,
            "case": case_doc,
            "status": "skipped_cap",
            "reason": str(exc),
        }
        if cache is not None:
            cache.put(key, doc)
        return doc

    report = verify_lower_garland(spec, amb)
    doc = report.to_dict()
    doc["schema"] = SCHEMA_VERSION
    doc["status"] = "ok"
    doc["torus"] = torus_block(report.torus, report.normalizer)

    # GL-vs-SL restriction data rides along with the SL case when GL fits the cap
    if case.kind == SL:
        try:
            gl = ambient_group(GL, case.n, base, caps)
            restriction = interval_restriction_check(spec, gl, report).to_dict()
        except GroupCapError as exc:
            restriction = {"skipped": str(exc)}
        doc["restriction"] = restriction
        rv = restriction.get("verdict")
        if rv == UNEXPECTED_MISMATCH:
            doc["overall"] = UNEXPECTED_MISMATCH
        elif rv == EXPECTED_COUNTEREXAMPLE and doc["overall"] == CONFIRMED:
            doc["overall"] = EXPECTED_COUNTEREXAMPLE

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
    reports them as skipped.
    """
    cases = []
    for p, m in prime_power_bases(max_order):
        q = p**m
        if q * q > max_order:
            continue
        n = 2
        while q**n <= max_order:
            for degs in _partitions(n):
                for ambient in ("gl", "sl"):
                    cases.append(CaseSpec(p, m, degs, ambient))
            n += 1
    cases.sort(key=lambda c: c.sort_key())
    return cases


def _run_task(args: tuple) -> list[dict]:
    cases, caps, cache_dir = args
    cache = DiskCache(cache_dir) if cache_dir else None
    return [run_case(c, caps, cache) for c in cases]


def run_sweep(
    max_order: int,
    caps: Caps = DEFAULT_CAPS,
    cache_dir: str | None = None,
    threads: int = 1,
) -> tuple[list[dict], dict]:
    """All case reports (ordered by case key) plus a summary.

    threads > 1 runs the cases in that many worker processes, but no more
    than there are tasks (an algebra's GL and SL cases are one task); each
    worker is a fresh (spawned) interpreter, so the reports are the same as
    with one thread.
    """
    if threads < 1:
        raise CaseError(f"threads must be at least 1, got {threads}")
    cases = sweep_cases(max_order)
    # an algebra's cases (GL, then SL) are adjacent and make one task, so a
    # worker runs the SL restriction after the GL case whose [T, G] it reads
    tasks = [(list(t), caps, cache_dir) for _, t in groupby(cases, key=lambda c: (c.p, c.base_degree, c.degrees))]
    workers = min(threads, len(tasks))
    if workers > 1:
        import multiprocessing

        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            done = list(pool.imap(_run_task, tasks))
    else:
        done = list(map(_run_task, tasks))
    reports = [doc for docs in done for doc in docs]
    summary = {
        "cases": len(reports),
        "ok": sum(1 for r in reports if r.get("status") == "ok"),
        "skipped_cap": sum(1 for r in reports if r.get("status") == "skipped_cap"),
        "confirmed": sum(1 for r in reports if r.get("overall") == CONFIRMED),
        "expected_counterexamples": sum(1 for r in reports if r.get("overall") == EXPECTED_COUNTEREXAMPLE),
        "unexpected_mismatches": sum(1 for r in reports if r.get("overall") == UNEXPECTED_MISMATCH),
    }
    return reports, summary


def stable_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
