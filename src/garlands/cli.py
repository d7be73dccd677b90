"""Command-line front end.

Subcommands: torus (construct and describe the torus), verify (full
lower-garland verification with verdicts), sweep (corpus run over all
algebras up to a size bound, in order, in this process), pell (single d,
or a table with --d-max).

Exit codes: 0 when every check is confirmed or matches a predicted failure
(and after --help), 2 on an unexpected mismatch, 3 when an enumeration cap
or the Pell cap on |--d| / |--d-max| is exceeded, 1 on invalid arguments,
argument-parsing errors included.  Reports on stdout are byte-identical
across repeated invocations; timings and cache statistics go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .cache import DiskCache
from .config import DEFAULT_CAPS, stable_json
from .etale import AlgebraCapError, AlgebraError
from .finite_field import FieldCapError, FieldError
from .matrix_group import GroupCapError, GroupError
from .pell import PellError, pell_sweep, sl2q_normalizer_report
from .runner import UNEXPECTED_MISMATCH, CaseError, CaseSpec, run_case, run_sweep, torus_report

CACHE_ENV = "GARLANDS_CACHE_DIR"


def _cache_dir(args) -> str | None:
    return args.cache_dir or os.environ.get(CACHE_ENV)


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CaseError(f"--degrees expects comma-separated integers, got {text!r}") from None


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(stable_json(doc))
    else:
        _print_tree(doc)


def _print_tree(doc: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for k in sorted(doc):
        v = doc[k]
        if isinstance(v, dict):
            print(f"{pad}{k}:")
            _print_tree(v, indent + 1)
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            print(f"{pad}{k}:")
            for item in v:
                _print_tree(item, indent + 1)
        else:
            print(f"{pad}{k}: {v}")


def _case_from_args(args) -> CaseSpec:
    return CaseSpec(args.p, args.base_degree, _parse_degrees(args.degrees), args.ambient)


def cmd_torus(args) -> int:
    _emit(torus_report(_case_from_args(args), DEFAULT_CAPS), args.json)
    return 0


def cmd_verify(args) -> int:
    case = _case_from_args(args)
    cache = DiskCache(_cache_dir(args)) if _cache_dir(args) else None
    t0 = time.perf_counter()
    doc = run_case(case, DEFAULT_CAPS, cache)
    elapsed = time.perf_counter() - t0
    _emit(doc, args.json)
    print(f"verify {case.serialize()} took {elapsed:.2f}s", file=sys.stderr)
    if cache is not None:
        print(f"cache hits={cache.hits} misses={cache.misses}", file=sys.stderr)
    if doc.get("status") == "skipped_cap":
        print(f"cap exceeded: {doc['reason']}", file=sys.stderr)
        return 3
    return 2 if doc.get("overall") == UNEXPECTED_MISMATCH else 0


def _pell_over_cap(d: int | None) -> bool:
    """Report on stderr, before any work, a d whose absolute value is above the Pell cap."""
    if d is None or abs(d) <= DEFAULT_CAPS.pell_d:
        return False
    print(f"cap exceeded: |d| = {abs(d)} is above the Pell cap {DEFAULT_CAPS.pell_d}", file=sys.stderr)
    return True


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    reports, summary = run_sweep(args.max_order, DEFAULT_CAPS, _cache_dir(args))
    for doc in reports:
        if args.json:
            print(stable_json(doc))
        else:
            case = doc["case"]
            if doc.get("status") == "skipped_cap":
                print(f"{case}  skipped: {doc['reason']}")
            else:
                g = doc["garland"]
                nrm = doc["normalizers"]
                print(
                    f"q={case['q']:>2} n={case['n']} degrees={case['degrees']} {case['ambient']}: "
                    f"|T|={doc['torus_order']:>4} formula==brute: {str(nrm['formula_equals_brute']):5} "
                    f"garland==interval: {str(g['equal']):5} -> {doc['overall']}"
                )
    if args.json:
        print(stable_json({"summary": summary}))
    else:
        print(
            f"summary: {summary['cases']} cases, {summary['confirmed']} confirmed, "
            f"{summary['expected_counterexamples']} expected counterexamples, "
            f"{summary['unexpected_mismatches']} unexpected, {summary['skipped_cap']} over cap"
        )
    print(f"sweep took {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 2 if summary["unexpected_mismatches"] else 0


def cmd_pell(args) -> int:
    if _pell_over_cap(args.d) or _pell_over_cap(args.d_max):
        return 3
    if args.d is not None:
        _emit(sl2q_normalizer_report(args.d).to_dict(), args.json)
        return 0
    # one line per d in [1, d_max]: a JSON row, or the aligned text table
    for row in pell_sweep(args.d_max):
        if args.json:
            print(stable_json(row))
        elif "skipped" in row:
            print(f"d={row['d']:>6}  skipped ({row['skipped']})")
        else:
            sol = f"x0={row['x0']} y0={row['y0']}" if row["solvable"] else "-"
            flag = "" if row["criterion_agrees"] else "  CRITERION-DISAGREES"
            print(
                f"d={row['d']:>6}  period={row['period_length']:>3}  "
                f"solvable={str(row['solvable']):5}  {sol}{flag}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garlands",
        description="Exact torus/subgroup-lattice verification in GL(n,q) and SL(n,q), "
        "and the negative-Pell normalizer of the rational quadratic torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_case_flags(sp):
        sp.add_argument("--p", type=int, required=True, help="prime characteristic")
        sp.add_argument("--base-degree", type=int, default=1, help="degree of the base field over F_p")
        sp.add_argument("--degrees", type=str, required=True, help="comma-separated factor degrees, e.g. 2,1")
        sp.add_argument("--ambient", choices=["gl", "sl"], default="gl")

    def add_common(sp, cached=False):
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        if cached:
            sp.add_argument("--cache-dir", type=str, default=None, help=f"report cache directory (or ${CACHE_ENV})")

    sp = sub.add_parser("torus", help="construct the torus and report its order/generators")
    add_case_flags(sp)
    add_common(sp)
    sp.set_defaults(func=cmd_torus)

    sp = sub.add_parser("verify", help="full lower-garland verification for one case")
    add_case_flags(sp)
    add_common(sp, cached=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="verify all algebras with q^n up to a bound")
    sp.add_argument("--max-order", type=int, default=100, help="bound on the algebra order q^n")
    add_common(sp, cached=True)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("pell", help="negative-Pell normalizer shape for d")
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--d", type=int, default=None, help="one d")
    which.add_argument("--d-max", type=int, default=None, help="a table of every d up to this bound")
    add_common(sp)
    sp.set_defaults(func=cmd_pell)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Python >= 3.10.7 refuses to read or print an int of more than 4300
    # digits, and a cap message names an over-cap --p in full
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad arguments and 0 after --help
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (GroupCapError, FieldCapError, AlgebraCapError) as exc:  # before their base classes
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (CaseError, PellError, FieldError, GroupError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
