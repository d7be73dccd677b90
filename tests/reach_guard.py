"""Reach guards: the cases past the default cap that the enumeration must keep reaching.

Run from the repository root:  PYTHONPATH=src python tests/reach_guard.py [CASE ...]

Each case runs twice, each time in a fresh process: once for its wall time
and ru_maxrss, and once under tracemalloc for its traced allocation peak,
which does not move with allocation order as the resident peak does.  The
timed run also samples the host's speed with the benchmark's SpeedSampler
(perfbench/calibrate.py).  It prints its raw wall time, less the time the
sampler took, and next to it that time scaled by the sampled speed: a host
whose per-core speed switches moves the raw seconds more than the scaled
ones.  The checks read the raw seconds.
Prints one line per case and exits 1 if a case fails its check:

  gl-sl-3-5-111  GL(3,5) then SL(3,5) with degrees 1,1,1, both reports ok
  gl-sl-3-5-21   GL(3,5) then SL(3,5) with degrees 2,1, both reports ok
  gl-sl-2-31-2   GL(2,31) then SL(2,31) with degree 2, both reports ok
  a8             [1, GL(4,2)], the subgroups of A_8: 48,337 members, in at
                 most 10 s and under 1 GB

The pairs run under Caps(group_order=1_500_000), and their times and
peaks are for comparison between two checkouts on one host.
"""

import json
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from garlands.config import Caps
from garlands.etale import AlgebraSpec
from garlands.finite_field import construct_field
from garlands.lattice import enumerate_interval
from garlands.matrix_group import GL, ambient_group, torus_subgroup
from garlands.runner import CaseSpec, run_case

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import calibrate  # noqa: E402  (perfbench is a directory of scripts, not a package)

CAPS = Caps(group_order=1_500_000)
PAIRS = {"gl-sl-3-5-111": (5, (1, 1, 1)), "gl-sl-3-5-21": (5, (2, 1)), "gl-sl-2-31-2": (31, (2,))}
CASES = [*PAIRS, "a8"]
A8_MEMBERS, A8_SECONDS, A8_MB = 48_337, 10.0, 1024.0


def run(name: str) -> dict:
    """Run one case in this process; its outcome, for the check."""
    if name == "a8":
        f2 = construct_field(2, 1)
        amb = ambient_group(GL, 4, f2, CAPS)
        return {"members": len(enumerate_interval(torus_subgroup(AlgebraSpec(f2, [1, 1, 1, 1]), amb), amb))}
    p, degrees = PAIRS[name]
    docs = [run_case(CaseSpec(p, 1, degrees, ambient), CAPS) for ambient in ("gl", "sl")]
    return {"status": [doc["status"] for doc in docs], "overall": [doc.get("overall") for doc in docs]}


def child(name: str, trace: bool) -> None:
    if trace:
        tracemalloc.start()  # no speed sampling here: its reference work would add to the traced peak
    else:
        sampler = calibrate.SpeedSampler()
        sampler.start()
    start = time.perf_counter()
    out = run(name)
    end = time.perf_counter()
    if trace:
        out["wall_s"] = end - start
        out["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    else:
        time.sleep(calibrate.INTERVAL_S * (calibrate.MIN_SAMPLES + 1))  # samples for a run shorter than a few
        sampler.stop()
        out["wall_s"] = end - start - sampler.spent(start, end)
        out["scaled_s"] = out["wall_s"] * sampler.speed(start, end)
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kilobytes on Linux
    print(json.dumps(out))


def fresh(name: str, trace: bool) -> dict:
    args = [sys.executable, __file__, "--child", name, *(["--trace"] if trace else [])]
    done = subprocess.run(args, capture_output=True, text=True)
    if done.returncode:
        return {"error": done.stderr.strip().splitlines()[-1] if done.stderr.strip() else f"exit {done.returncode}"}
    return json.loads(done.stdout)


def failure(name: str, plain: dict, traced: dict) -> str | None:
    for out in (plain, traced):
        if "error" in out:
            return out["error"]
    if name == "a8":
        if plain["members"] != A8_MEMBERS:
            return f"{plain['members']} members, not {A8_MEMBERS}"
        if plain["wall_s"] > A8_SECONDS or plain["maxrss_mb"] > A8_MB:
            return f"over {A8_SECONDS:.0f} s or {A8_MB:.0f} MB"
    elif plain["status"] != ["ok", "ok"]:
        return f"status {plain['status']}"
    return None


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown case {unknown[0]}; the cases are {', '.join(CASES)}")
        return 2
    failed = 0
    for name in names or CASES:
        plain, traced = fresh(name, False), fresh(name, True)
        problem = failure(name, plain, traced)
        if problem:
            failed += 1
            print(f"{name}: FAILED: {problem}")
            continue
        outcome = plain.get("members", plain.get("overall"))
        print(
            f"{name}: {plain['wall_s']:.2f} s ({plain['scaled_s']:.2f} s speed-scaled), ru_maxrss {plain['maxrss_mb']:.1f} MB, "
            f"traced peak {traced['traced_peak_mb']:.2f} MB; {outcome}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], "--trace" in sys.argv[3:])
    else:
        sys.exit(main(sys.argv[1:]))
