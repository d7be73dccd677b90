"""Workload definitions and correctness gates for the garlands benchmark.

A workload is a list of operations built from a seed.  Group workloads are
fixed case lists (the seed only shuffles their order); the Pell workload is
a seeded sample of squarefree d.  Every operation's output is checked here,
outside the timed region.
"""

from __future__ import annotations

import random
from math import isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

PELL_D_CAP = 1_000_000  # the package's default Caps.pell_d

# Caps are spelled out in full so that a change to the package defaults
# cannot change what a workload computes.
_CAPS = {
    "lattice": dict(field_order=1 << 20, group_order=20_000, algebra_order=1 << 20, pell_d=PELL_D_CAP),
    "large-q": dict(field_order=1 << 20, group_order=30_000, algebra_order=1 << 20, pell_d=PELL_D_CAP),
    "smoke": dict(field_order=1 << 20, group_order=20_000, algebra_order=1 << 20, pell_d=PELL_D_CAP),
}

# (p, base_degree, degrees, ambient)
_CASES = {
    "lattice": [
        (2, 1, (1, 1, 1), "gl"),
        (2, 1, (1, 1, 1), "sl"),
        (3, 1, (2, 1), "gl"),
        (3, 1, (2, 1), "sl"),
    ],
    "large-q": [
        (3, 2, (1, 1), "gl"),
        (2, 4, (2,), "sl"),
        (11, 1, (2,), "gl"),
        (13, 1, (2,), "gl"),
        (13, 1, (1, 1), "gl"),
        (13, 1, (2,), "sl"),
        (13, 1, (1, 1), "sl"),
        (19, 1, (1, 1), "sl"),
    ],
    "smoke": [
        (2, 1, (2,), "gl"),
        (3, 1, (1, 1), "sl"),
    ],
}

WORKLOADS = ("lattice", "large-q", "pell")  # the benchmark's workloads
# "smoke" and "smoke-pell" are tiny inputs for the self-test only
GROUP_WORKLOADS = ("lattice", "large-q", "smoke")
PELL_SAMPLES = {"pell": 10_000, "smoke-pell": 50}  # d values per repetition
PELL_SYMPY_SAMPLES = {"pell": 200, "smoke-pell": 10}  # of those, cross-checked against sympy


def case_label(case: tuple) -> str:
    p, m, degrees, ambient = case
    return f"{ambient.upper()}(q={p}^{m}) {','.join(map(str, degrees))}"


def group_cases(workload: str, seed: int) -> list[tuple]:
    """The workload's cases in a seed-shuffled order."""
    cases = list(_CASES[workload])
    random.Random(seed).shuffle(cases)
    return cases


def caps_for(workload: str):
    from garlands import Caps

    return Caps(**_CAPS[workload])


def pell_sample(seed: int, count: int) -> list[int]:
    """Distinct squarefree d in [2, PELL_D_CAP), drawn from the seed."""
    square_factor = bytearray(PELL_D_CAP)
    for k in range(2, isqrt(PELL_D_CAP - 1) + 1):
        square_factor[k * k :: k * k] = b"\x01" * len(range(k * k, PELL_D_CAP, k * k))
    rng = random.Random(seed)
    out: dict[int, None] = {}
    while len(out) < count:
        d = rng.randrange(2, PELL_D_CAP)
        if not square_factor[d]:
            out[d] = None
    return list(out)


# -- group case outcomes -------------------------------------------------------


def outcome(doc: dict) -> dict:
    """The mathematical outcome of a case report, free of layout details."""
    if doc.get("status") != "ok":
        return {"status": doc.get("status")}
    out = {
        "status": "ok",
        "overall": doc["overall"],
        "verdicts": doc["verdicts"],
        "torus_order": doc["torus_order"],
        "normalizer_brute_order": doc["normalizers"]["brute_order"],
        "normalizer_formula_order": doc["normalizers"]["formula_order"],
        "normalizer_of_normalizer_order": doc["idempotence"]["normalizer_of_normalizer_order"],
        "lattice_member_count": doc["lattice"]["member_count"],
        "lower_garland_equals_interval": doc["garland"]["equal"],
    }
    if "restriction" in doc:
        r = doc["restriction"]
        out["restriction"] = "skipped" if "skipped" in r else r["verdict"]
    return out


def case_failures(workload: str, case: tuple, doc: dict, expected: dict) -> list[str]:
    """Why a case report is wrong; empty when it matches the stored outcome."""
    label = case_label(case)
    want = expected.get(workload, {}).get(label)
    got = outcome(doc)
    problems = []
    if want is None:
        problems.append(f"{label}: no stored outcome")
    elif got != want:
        problems.append(f"{label}: outcome {got} != expected {want}")
    if doc.get("overall") == "unexpected_mismatch":
        problems.append(f"{label}: unexpected_mismatch")
    return problems


# -- Pell rows -------------------------------------------------------------------


def pell_failures(d: int, row: dict) -> list[str]:
    """Substitution and shape checks for one sl2q_normalizer_report row."""
    problems = []
    if row.get("d") != d:
        problems.append(f"d={d}: row is for d={row.get('d')}")
    if isqrt(d) ** 2 == d:
        problems.append(f"d={d}: sampled a square")
    solvable = row.get("solvable")
    period = row.get("period_length")
    if solvable:
        x0, y0 = row.get("x0"), row.get("y0")
        if not (isinstance(x0, int) and isinstance(y0, int) and y0 > 0 and x0 * x0 - d * y0 * y0 == -1):
            problems.append(f"d={d}: ({x0}, {y0}) does not solve x^2 - d y^2 = -1")
        elif row.get("coset_matrix") != [[x0, -y0 * d], [y0, -x0]]:
            problems.append(f"d={d}: coset matrix {row.get('coset_matrix')} has the wrong shape")
        if row.get("variant") != "TwoCosets" or not (isinstance(period, int) and period % 2 == 1):
            problems.append(f"d={d}: solvable row with variant {row.get('variant')} and period {period}")
    elif row.get("variant") != "TorusOnly" or not (isinstance(period, int) and period % 2 == 0) or "x0" in row:
        problems.append(f"d={d}: unsolvable row with variant {row.get('variant')} and period {period}")
    if row.get("criterion_agrees") != (row.get("criterion_predicts_solvable") == solvable):
        problems.append(f"d={d}: criterion_agrees is inconsistent")
    return problems


def pell_sympy_failures(rows: dict[int, dict], seed: int, count: int) -> list[str]:
    """Cross-check a seeded subsample against sympy's independent diop_DN."""
    from sympy.solvers.diophantine.diophantine import diop_DN

    ds = sorted(rows)
    picked = random.Random(seed ^ 0x5EED).sample(ds, min(count, len(ds)))
    problems = []
    for d in picked:
        sols = diop_DN(d, -1)
        row = rows[d]
        if not sols:
            if row.get("solvable"):
                problems.append(f"d={d}: sympy finds no solution, report says solvable")
        elif not row.get("solvable"):
            problems.append(f"d={d}: sympy solves it with {sols[0]}, report says unsolvable")
        elif (row.get("x0"), row.get("y0")) != tuple(int(v) for v in sols[0]):
            problems.append(f"d={d}: fundamental solution {row.get('x0'), row.get('y0')} != sympy {sols[0]}")
    return problems
