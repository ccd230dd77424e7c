"""Run every bundled property suite and print a one-line verdict per law.

Usage:
    python3 scripts/run_suites.py [--seed 42] [--scale 200] [--suite all]

Exit status is 0 when every law passes, 1 otherwise.  Note that the
similarity suite contains two laws that fail by design on ray structures
(the half-coefficient pointwise continuity bound and its triangle-style
relative); see README.md.
"""

from __future__ import annotations

import argparse
import sys
import time

from starprob import run_property_suite
from starprob.suites import SUITE_IDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=int, default=200)
    parser.add_argument("--suite", choices=SUITE_IDS, default="all")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    report = run_property_suite(args.suite, seed=args.seed, scale=args.scale)
    wall = time.perf_counter() - t0

    width = max(len(c.law) for c in report.checks)
    for c in report.checks:
        line = f"{c.law:<{width}}  {c.status:<7} trials={c.trials:<6} failures={c.failures}"
        if c.max_residual:
            line += f" max_residual={c.max_residual:.3g}"
        print(line)
        for w in c.witnesses:
            print(f"{'':<{width}}  witness: {w}")
    print(f"\noverall: {report.overall}  ({wall:.2f}s, seed={args.seed}, scale={args.scale})")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
