"""The span keys' closed forms against the elimination over every unit, on every algebra
with n <= 7 and q <= 64 that the default caps admit.

Run from the repository root:  PYTHONPATH=src python tests/span_census.py
Prints each disagreement, each algebra whose unit tables the elimination may
not build (skipped), and a count line; exits 1 if any algebra disagrees.
"""

import sys
import time

from garlands.config import DEFAULT_CAPS
from garlands.finite_field import FieldCapError
from garlands.lattice import record_hypotheses

from oracles import algebra_specs, hypotheses_by_elimination


def main() -> int:
    start, agree, disagree, skipped = time.perf_counter(), 0, 0, 0
    for spec in algebra_specs(64, 7, DEFAULT_CAPS.algebra_order):
        closed = record_hypotheses(spec)
        try:
            oracle = hypotheses_by_elimination(spec)
        except FieldCapError as err:
            skipped += 1
            print(f"skipped by the oracle: {spec}: {err}")
            continue
        if all(closed[key] == value for key, value in oracle.items()):
            agree += 1
        else:
            disagree += 1
            print(f"disagree: {spec}: closed form {closed}, elimination {oracle}")
    print(f"{agree} agree, {disagree} disagree, {skipped} skipped in {time.perf_counter() - start:.1f} s")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
