"""Show that a valid d=2 table measure can sit far from every mixture.

Builds the six-event field generated by two lines 30 degrees apart, puts a
lookup table on it that satisfies normalization and orthogonal additivity
but assigns line2 the value 0.3 (a pure state at distance would be forced
to cos^2 of some angle consistent with line1 getting exactly 1), and then
grid-searches w * p_theta + (1 - w) * p_phi for the closest two-point
mixture.  The gap stays bounded away from zero, so the table is a genuine
example of a measure outside the mixture family -- the d=2 loophole that
disappears in higher dimensions, where every measure is a mixture.

Usage:
    python3 scripts/mixture_grid.py [--angles 121] [--weights 41]
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

# run from a checkout without installing: import this checkout's src/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from starprob import SPStructure, generate_sigma_star, table_measure, validate_measure
from starprob.lattice import from_span, full, ortho_complement, similarity_to_subspace
from starprob.structures import as_point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--angles", type=int, default=121)
    parser.add_argument("--weights", type=int, default=41)
    args = parser.parse_args(argv)

    st = SPStructure.ray(2)
    fld = generate_sigma_star(st, [[[1.0, 0.0]], [[math.sqrt(3) / 2, 0.5]]])
    line1 = from_span(st, [[1.0, 0.0]])
    line2 = from_span(st, [[math.sqrt(3) / 2, 0.5]])

    values = [0.0] * len(fld.events)
    values[fld.index_of(full(st))] = 1.0
    values[fld.index_of(line1)] = 1.0
    values[fld.index_of(line2)] = 0.3
    values[fld.index_of(ortho_complement(line2))] = 0.7
    table = table_measure(fld, values)

    report = validate_measure(table, fld)
    print("table on the two-line field:")
    for event, v in zip(fld.events, values):
        print(f"  {v:.1f}  on {event.to_literal()}")
    print("\naxiom checks:")
    for c in report.checks:
        line = f"  {c.law}: {c.status}"
        if c.witness:
            line += f"  {c.witness}"
        print(line)

    thetas = np.linspace(0.0, math.pi, args.angles)
    weights = np.linspace(0.0, 1.0, args.weights)
    targets = np.array(values)
    profiles = np.array([
        [similarity_to_subspace(as_point(st, [math.cos(t), math.sin(t)]), e)
         for e in fld.events]
        for t in thetas
    ])

    best = (math.inf, None)
    for i, px in enumerate(profiles):
        for j, py in enumerate(profiles):
            mixed = weights[:, None] * px[None, :] + (1 - weights)[:, None] * py[None, :]
            gaps = np.max(np.abs(mixed - targets[None, :]), axis=1)
            k = int(np.argmin(gaps))
            if gaps[k] < best[0]:
                best = (float(gaps[k]), (float(thetas[i]), float(thetas[j]), float(weights[k])))

    gap, (th, ph, w) = best
    print(f"\nclosest two-point mixture over a {args.angles}x{args.angles}x{args.weights} grid:")
    print(f"  {w:.3f} * p[{math.degrees(th):.1f} deg] + {1 - w:.3f} * p[{math.degrees(ph):.1f} deg]")
    print(f"  worst-event gap {gap:.4f}  (> 0.05 means: not a mixture, not even close)")
    return 0 if gap > 0.05 else 1


if __name__ == "__main__":
    sys.exit(main())
