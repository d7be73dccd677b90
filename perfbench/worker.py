"""One repetition of a workload, in a fresh interpreter.

Set-up imports garlands, builds every field and enumerates every ambient the
workload touches; the timed pass then runs each operation through the public
API with a fresh disk cache.  Calibration chunks (see calibrate.py) run
between blocks of operations, outside the timed operations.  Outputs are
checked after the pass, including a second pass that serves every case from
the warm cache.  The last line of stdout is one JSON object; `run.py` starts
this script and reads it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads as wl

BLOCK_S = 0.25  # operations are scaled by the speed sampled over blocks this long


def _setup_group(workload: str, cases: list[tuple]) -> tuple[object, list]:
    """Fields and enumerated ambients for every case (GL too for SL cases)."""
    from garlands import GL, SL, ambient_group, construct_extension, construct_field
    from garlands.matrix_group import GroupCapError

    caps = wl.caps_for(workload)
    ambients = {}
    for p, m, degrees, ambient in cases:
        base = construct_field(p, m, caps)
        for d in set(degrees) - {1}:
            construct_extension(base, d, caps)
        kinds = (GL,) if ambient == "gl" else (SL, GL)
        for kind in kinds:
            try:
                amb = ambient_group(kind, sum(degrees), base, caps)
            except GroupCapError:
                continue  # the case reports the skip itself
            amb.mats()
            ambients[repr(amb)] = amb
    return caps, list(ambients.values())


def _ambient_bytes(amb) -> int:
    # the element array plus, while the package keeps one, its key lookup table
    lut = getattr(amb, "_lut", None)
    return int(amb.mats().nbytes + (lut.nbytes if lut is not None else 0))


def timed_pass(items, run_one, tracer, sampler) -> tuple[list[float], list[float]]:
    """Run and time each operation; returns raw seconds and speed scales.

    Raw seconds exclude the sampler's own time.  Operations are grouped in
    blocks of at least BLOCK_S, and each operation is scaled by the mean
    speed sampled during its block.
    """
    spans, block_of, blocks = [], [], []
    block_start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.case = item if isinstance(item, int) else wl.case_label(item)
        t0 = time.perf_counter()
        run_one(item)
        t1 = time.perf_counter()
        spans.append((t0, t1))
        block_of.append(len(blocks))
        if t1 - block_start >= BLOCK_S:
            blocks.append((block_start, t1))
            block_start = t1
    if block_of and block_of[-1] == len(blocks):
        blocks.append((block_start, time.perf_counter()))
    sampler.stop()
    raw = [t1 - t0 - sampler.spent(t0, t1) for t0, t1 in spans]
    speeds = [sampler.speed(b0, b1) for b0, b1 in blocks]
    return raw, [speeds[b] for b in block_of]


def _group_checks(workload, cases, caps, cache, docs, errors, expected_path) -> dict[str, list[str]]:
    """Stored outcome per case, then the same documents again from the warm cache."""
    from garlands.runner import CaseSpec, run_case, stable_json

    expected = json.loads(Path(expected_path).read_text(encoding="utf-8"))
    problems: dict[str, list[str]] = {}
    for case in cases:
        label = wl.case_label(case)
        if case in errors:
            problems[label] = [f"{label}: raised {errors[case]}"]
            continue
        doc = docs[case]
        found = wl.case_failures(workload, case, doc, expected)
        try:
            served = run_case(CaseSpec(*case), caps, cache)
            if stable_json(served) != stable_json(doc):
                found.append(f"{label}: cached document differs from the computed one")
        except Exception:
            found.append(f"{label}: cache re-serve raised {traceback.format_exc(limit=3)}")
        if found:
            problems[label] = found
    return problems


def _pell_checks(rows, errors, seed, sympy_count) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {str(d): [f"d={d}: raised {e}"] for d, e in errors.items()}
    for d, row in rows.items():
        found = wl.pell_failures(d, row)
        if found:
            problems[str(d)] = found
    for msg in wl.pell_sympy_failures(rows, seed, sympy_count):
        d = msg.split(":", 1)[0][2:]
        problems.setdefault(d, []).append(msg)
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-file", help="trace this repetition and write its spans here")
    ap.add_argument("--cache-dir", required=True, help="fresh disk cache directory for the timed pass")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--expected", default=str(wl.EXPECTED_PATH), help="stored case outcomes")
    ap.add_argument("--outcomes", action="store_true", help="print each case's outcome instead of checking it")
    args = ap.parse_args(argv)
    group = args.workload in wl.GROUP_WORKLOADS

    # inputs come from the seed alone; making them is not set-up of the program
    t0 = time.monotonic()
    sampler = calibrate.SpeedSampler()
    sampler.start()
    items = wl.group_cases(args.workload, args.seed) if group else wl.pell_sample(args.seed, wl.PELL_SAMPLES[args.workload])
    input_s = time.monotonic() - t0
    t_setup = time.perf_counter()

    import garlands

    src = Path.cwd() / "src"
    if src not in Path(garlands.__file__).resolve().parents:
        print(f"garlands was imported from {garlands.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ambients = []
    if group:
        caps, ambients = _setup_group(args.workload, items)
    t_ready = time.monotonic()
    t_setup_end = time.perf_counter()

    def setup_result() -> dict:
        # the speed of set-up may borrow the first samples after it
        return {
            "input_s": input_s,
            "t_ready": t_ready,
            "setup_sampler_s": sampler.spent(t_setup, t_setup_end),
            "setup_speed": sampler.speed(t_setup, t_setup_end),
        }

    if args.setup_only:
        time.sleep(calibrate.INTERVAL_S * (calibrate.MIN_SAMPLES + 1))
        sampler.stop()
        print(json.dumps(setup_result()))
        return 0

    results, errors = {}, {}
    if group:
        from garlands.cache import DiskCache
        from garlands.runner import CaseSpec, run_case

        cache = DiskCache(args.cache_dir)

        def run_one(case):
            try:
                results[case] = run_case(CaseSpec(*case), caps, cache)
            except Exception:
                errors[case] = traceback.format_exc(limit=3)
    else:
        from garlands.pell import sl2q_normalizer_report

        def run_one(d):
            try:
                results[d] = sl2q_normalizer_report(d).to_dict()
            except Exception:
                errors[d] = traceback.format_exc(limit=3)

    raw, scales = timed_pass(items, run_one, tracer, sampler)
    result = setup_result()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if group and args.outcomes:
        print(json.dumps({wl.case_label(c): wl.outcome(results[c]) for c in items}, indent=1, sort_keys=True))
        return 0
    if group:
        problems = _group_checks(args.workload, items, caps, cache, results, errors, args.expected)
    else:
        problems = _pell_checks(results, errors, args.seed, wl.PELL_SYMPY_SAMPLES[args.workload])

    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(cases=len(items) if group else 0, pell_ds=0 if group else len(items))
        layers["matrix_group.ambient_elements"] = sum(a.order for a in ambients)
        layers["matrix_group.ambient_bytes"] = sum(_ambient_bytes(a) for a in ambients)
        layers["cache.bytes_written"] = (
            sum(f.stat().st_size for f in Path(args.cache_dir).glob("*.json")) if group else 0
        )
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed, "raw_wall_s": sum(raw)})

    result.update(
        raw_wall_s=sum(raw),
        wall_s=sum(r * s for r, s in zip(raw, scales)),
        op_ms=[r * s * 1000.0 for r, s in zip(raw, scales)],
        speed=sum(scales) / len(scales),
        peak_rss_kb=peak_rss_kb,
        attempted=len(items),
        failed=len(problems),
        problems=[msg for msgs in problems.values() for msg in msgs][:20],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
