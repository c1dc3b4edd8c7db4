#!/usr/bin/env python3
"""Re-measure the stage times quoted in ROADMAP.md's Baseline.

    python3 perfbench/crosscheck.py

Prints the median wall time of three runs each of: `curvature_point` for
Schwarzschild at (t, r, th, ph) = (0, 3, 1, 0.5) from metric jets of
order 4, with and without nabla R and nabla^2 R (their difference is the
`nabla^s R` stage); and 20-sample `homogeneity` runs with seed 7 on the
pp-wave at max order 2 and on Schwarzschild at max orders 2 and 3, over
the boxes of `scripts/symmetry_survey.py`.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from metricinv import curvature_point, homogeneity, parse_metric  # noqa: E402

SCHWARZSCHILD_BOX = [(0.0, 1.0), (3.0, 6.0), (0.6, 2.4), (0.0, 3.0)]
PPWAVE_BOX = [(-0.5, 0.5), (-1.0, 1.0), (0.5, 1.5), (0.2, 1.2)]
REPEATS = 3


def median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    schw = parse_metric((ROOT / "metrics" / "schwarzschild.metric").read_text())
    pp = parse_metric((ROOT / "metrics" / "ppwave.metric").read_text())
    point = (0.0, 3.0, 1.0, 0.5)
    curvature_point(schw, point, 4)  # builds the jet index tables
    cases = [
        ("curvature_point order 4, nabla^2 R", lambda: curvature_point(schw, point, 4)),
        ("curvature_point order 4, no nabla", lambda: curvature_point(schw, point, 4, s_max=0)),
        ("homogeneity ppwave 20 samples order 2",
         lambda: homogeneity(pp, PPWAVE_BOX, n_samples=20, max_order=2, seed=7)),
        ("homogeneity schwarzschild 20 samples order 2",
         lambda: homogeneity(schw, SCHWARZSCHILD_BOX, n_samples=20, max_order=2, seed=7)),
        ("homogeneity schwarzschild 20 samples order 3",
         lambda: homogeneity(schw, SCHWARZSCHILD_BOX, n_samples=20, max_order=3, seed=7)),
    ]
    for label, fn in cases:
        print(f"{label:48s} {median_time(fn):8.3f} s")


if __name__ == "__main__":
    main()
