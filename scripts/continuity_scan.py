"""Map out where the half-coefficient continuity bound fails on ray pairs.

For two lines x, y at angle g the extremal vantage gap has a closed form:

    sup_z [ s(z,x) - s(z,y) ]  =  sin(g)          (z at angle g/2 - pi/4)

while the bound under test allows only (1/2)sin(g) + sin(g)^2.  The two
curves cross at sin(g) = 1/2 (30 degrees): below that separation the bound
is violated, with the worst excess 1/16 at sin(g) = 1/4.  This script
verifies the closed form against a dense vantage grid, prints the
violation region, and estimates the violation rate over random triples.

Usage:
    python3 scripts/continuity_scan.py [--angles 181] [--grid 2000]
                                       [--triples 100000] [--seed 0] [--dim 2]
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

# run from a checkout without installing: import this checkout's src/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from starprob import SPStructure, check_point_continuity
from starprob.structures import as_point, similarity


def extremal_gap_on_grid(g: float, grid: int) -> float:
    """Numerical sup_z [s(z,x) - s(z,y)] for lines at angle g."""
    zs = np.linspace(0.0, math.pi, grid, endpoint=False)
    return float(np.max(np.cos(zs) ** 2 - np.cos(zs - g) ** 2))


def scan_angles(n_angles: int, grid: int) -> None:
    print(f"{'angle(deg)':>10} {'sin(g)':>9} {'grid sup':>10} {'bound rhs':>10} {'excess':>9}")
    worst = (0.0, 0.0)
    for g in np.linspace(0.0, math.pi / 2, n_angles)[1:]:
        sup_gap = extremal_gap_on_grid(float(g), grid)
        closed = math.sin(g)
        assert abs(sup_gap - closed) < 1e-4, (g, sup_gap, closed)
        allowed = 0.5 * closed + closed ** 2
        excess = closed - allowed
        if excess > worst[1]:
            worst = (float(g), excess)
        if excess > 0 and int(round(math.degrees(g) * 2)) % 5 == 0:
            print(f"{math.degrees(g):>10.2f} {closed:>9.4f} {sup_gap:>10.6f} "
                  f"{allowed:>10.6f} {excess:>9.6f}")
    print(f"\nviolation region: 0 < sin(g) < 1/2  (separations under 30 degrees)")
    print(f"worst excess on this scan: {worst[1]:.6f} at {math.degrees(worst[0]):.2f} deg "
          f"(closed form: 1/16 = {1/16} at sin(g) = 1/4)")


def random_triple_rate(dim: int, triples: int, seed: int) -> None:
    st = SPStructure.ray(dim)
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for _ in range(triples):
        x, y, z = (as_point(st, rng.standard_normal(dim)) for _ in range(3))
        residual = check_point_continuity(st, x, y, z)
        if residual < -1e-9:
            violations += 1
            worst = max(worst, -residual)
    print(f"\nrandom triples (d={dim}, n={triples}, seed={seed}): "
          f"{violations} violations ({100.0 * violations / triples:.2f}%), "
          f"worst excess {worst:.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--angles", type=int, default=181)
    parser.add_argument("--grid", type=int, default=2000)
    parser.add_argument("--triples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dim", type=int, default=2)
    args = parser.parse_args(argv)

    scan_angles(args.angles, args.grid)
    random_triple_rate(args.dim, args.triples, args.seed)

    # the pinned counterexample, end to end
    st = SPStructure.ray(2)
    g = math.asin(0.25)
    x = as_point(st, [1.0, 0.0])
    y = as_point(st, [math.cos(g), math.sin(g)])
    z = as_point(st, [math.cos(g / 2 - math.pi / 4), math.sin(g / 2 - math.pi / 4)])
    print(f"\npinned counterexample: s(x,y)={similarity(st, x, y):.4f} "
          f"s(z,x)={similarity(st, z, x):.4f} s(z,y)={similarity(st, z, y):.4f} "
          f"residual={check_point_continuity(st, x, y, z):+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
