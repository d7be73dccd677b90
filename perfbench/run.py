"""Garlands benchmark: end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

Every repetition is a fresh single-threaded interpreter (`worker.py`) using
the package from `src/` of the checkout.  With `--trace 0` repetitions run
until `--seconds` is spent and the end-to-end metrics are medians over them;
with `--trace 1` one untraced and one traced repetition give the per-layer
metrics and the tracing overhead.  Every metric is printed with its unit,
and the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms.p50", "ms"),
    ("op_ms.p99", "ms"),
]
PER_LAYER = LAYER_METRICS + [("trace.overhead", "ratio"), ("fail_ratio", "ratio")]

MIN_REPS = 3  # full repetitions per untraced run, however short --seconds is
MIN_SETUPS = 5  # set-ups per untraced run; extra ones stop after set-up
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


class Checkout:
    """The source tree under test and the benchmark's output directory in it."""

    def __init__(self, root: Path):
        self.root = root
        if not (root / "src" / "garlands" / "__init__.py").is_file():
            raise BenchError(f"no garlands source under {root / 'src'}; run from the root of a checkout")
        self.out = root / ".bench_out"
        self.out.mkdir(exist_ok=True)
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.started = time.monotonic()
        self._reps = 0

    def spawn(self, workload: str, seed: int, *extra: str, trace_file: Path | None = None) -> dict:
        """One worker repetition; returns its result with setup_s filled in."""
        self._reps += 1
        cache_dir = self.out / f"cache-{os.getpid()}-{self._reps}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
        cmd += ["--cache-dir", str(cache_dir), *extra]
        if trace_file is not None:
            cmd += ["--trace-file", str(trace_file)]
        budget = RUN_LIMIT_S - (time.monotonic() - self.started)
        if budget <= 1:
            raise BenchError("out of time before the run finished")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=budget
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        try:
            res = json.loads(lines[-1])
        except ValueError as exc:
            raise BenchError(f"worker printed no result: {lines[-1][:200]}") from exc
        res["raw_setup_s"] = res["t_ready"] - t_spawn - res["input_s"] - res["setup_sampler_s"]
        res["setup_s"] = res["raw_setup_s"] * res["setup_speed"]
        res["elapsed_s"] = time.monotonic() - t_spawn
        return res


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_untraced(co: Checkout, workload: str, seed: int, seconds: float, expected: str | None = None):
    extra = ("--expected", expected) if expected else ()
    deadline = time.monotonic() + seconds
    reps = []
    while True:
        reps.append(co.spawn(workload, seed, *extra))
        typical = statistics.median(r["elapsed_s"] for r in reps)
        if len(reps) >= MIN_REPS and time.monotonic() + typical > deadline:
            break
    setup_reps = list(reps)
    while len(setup_reps) < MIN_SETUPS:
        setup_reps.append(co.spawn(workload, seed, "--setup-only"))
    setups = [r["setup_s"] for r in setup_reps]
    # each operation's median over repetitions, so the percentiles do not
    # depend on how many repetitions fit in the run
    ops = [statistics.median(times) for times in zip(*(r["op_ms"] for r in reps))]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) / 1024.0,
        "op_ms.p50": _quantile(ops, 50),
        "op_ms.p99": _quantile(ops, 99),
    }
    notes = {
        "repetitions": len(reps),
        "setups": len(setups),
        "op_samples": len(ops),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in setup_reps),
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in reps),
        "speed": statistics.median(r["speed"] for r in reps),
    }
    return reps, metrics, END_TO_END, notes


def measure_traced(co: Checkout, workload: str, seed: int, expected: str | None = None):
    extra = ("--expected", expected) if expected else ()
    trace_file = co.out / f"trace-{workload}-seed{seed}.jsonl"
    plain = co.spawn(workload, seed, *extra)
    traced = co.spawn(workload, seed, *extra, trace_file=trace_file)
    reps = [plain, traced]
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"] - 1.0
    metrics["fail_ratio"] = sum(r["failed"] for r in reps) / sum(r["attempted"] for r in reps)
    notes = {"spans": traced["spans"], "trace_file": str(trace_file.relative_to(co.root))}
    return reps, {name: metrics[name] for name, _ in PER_LAYER}, PER_LAYER, notes


def environment(root: Path) -> dict:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        out = []
    # only the checkout's own repository counts, not one that encloses it
    sha = out[1] if len(out) == 2 and Path(out[0]).resolve() == root.resolve() else ""
    import numpy

    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(co: Checkout, workload: str, seed: int, seconds: float, trace: bool, expected: str | None = None) -> dict:
    """Measure one workload; print every metric with its unit, return the result object."""
    if trace:
        reps, metrics, table, notes = measure_traced(co, workload, seed, expected)
    else:
        reps, metrics, table, notes = measure_untraced(co, workload, seed, seconds, expected)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    env = environment(co.root)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print("  " + "  ".join(f"{k} {v}" for k, v in notes.items()))
    for name, unit in table:
        print(f"  {name:<44} {metrics[name]:>16.6g} {unit}")
    for msg in [m for r in reps for m in r["problems"]][:20]:
        print(f"  FAILED {msg}")
    if trace:
        summary = {"workload": workload, "seed": seed, "environment": env, "notes": notes, "metrics": metrics}
        (co.out / f"trace-{workload}-seed{seed}.summary.json").write_text(json.dumps(summary, indent=1))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }


def self_test(co: Checkout) -> None:
    """Smoke runs on tiny inputs: every metric is emitted, and the gates can fail."""
    spec = json.loads((co.root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared_e2e != END_TO_END or declared_layer != PER_LAYER:
        raise BenchError("BENCHMARK.json metrics differ from the ones this benchmark emits")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(wl.WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for workload in ("smoke", "smoke-pell"):
        for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
            res = run(co, workload, seed=1, seconds=0.1, trace=trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != dict(table):
                raise BenchError(f"{workload} trace={trace}: metrics {got} != {dict(table)}")
            if not res["correct"] or res["failed"] or (trace and res["metrics"]["fail_ratio"]["value"] != 0):
                raise BenchError(f"{workload} trace={trace}: a correct program was reported failing")

    # a wrong stored outcome must show up as failed operations
    wrong = json.loads(wl.EXPECTED_PATH.read_text(encoding="utf-8"))
    first = next(iter(wrong["smoke"].values()))
    first["lattice_member_count"] += 1
    wrong_path = co.out / "expected-wrong.json"
    wrong_path.write_text(json.dumps(wrong))
    res = run(co, "smoke", seed=1, seconds=0.1, trace=True, expected=str(wrong_path))
    if res["correct"] or not res["metrics"]["fail_ratio"]["value"] > 0:
        raise BenchError("a wrong expected outcome did not raise fail_ratio")

    # the Pell gates reject a wrong solution and disagree with a wrong solvability claim
    row = {"d": 13, "variant": "TwoCosets", "period_length": 5, "solvable": True, "x0": 18, "y0": 4,
           "coset_matrix": [[18, -52], [4, -18]], "criterion_predicts_solvable": True, "criterion_agrees": True}
    if not wl.pell_failures(13, row):
        raise BenchError("the Pell substitution check accepted a non-solution")
    unsolvable = {"d": 13, "solvable": False}
    if not wl.pell_sympy_failures({13: unsolvable}, seed=1, count=1):
        raise BenchError("the sympy cross-check accepted a wrong solvability claim")
    print("self-test passed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="fast smoke run of every metric and gate")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        co = Checkout(Path.cwd())
        if args.self_test:
            self_test(co)
            return 0
        result = run(co, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
