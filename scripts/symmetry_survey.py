#!/usr/bin/env python3
"""Survey the bundled example metrics: invariant rank and inferred symmetry.

Runs the homogeneity estimator over each metric in metrics/ with a fixed
seed and prints one row per metric: consensus rank, orbit dimension, and
the regularity caveat where the rank-based inference is unsound.

Usage:
  python scripts/symmetry_survey.py
  python scripts/symmetry_survey.py --samples 40 --seed 11 --max-order 3
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from metricinv.cli import _parse_box
from metricinv.metriclang import parse_metric
from metricinv.symmetry import homogeneity

# sampling boxes that stay inside each chart's domain of definition
BOXES = {
    "sphere2": "x=0.5:2.5, y=0:3",
    "sphere3": "x=0.6:2.4, y=0.6:2.4, z=0:3",
    "hyperbolic2": "x=-1:1, y=0.5:2.5",
    "revolution": "x=0:3, y=0:3",
    "flat2": "x=-1:1, y=-1:1",
    "flat3": "x=-1:1, y=-1:1, z=-1:1",
    "schwarzschild": "t=0:1, r=3:6, th=0.6:2.4, ph=0:3",
    "ppwave": "u=-0.5:0.5, v=-1:1, x=0.5:1.5, y=0.2:1.2",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--metrics-dir",
        default=Path(__file__).resolve().parents[1] / "metrics",
        type=Path,
    )
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-order", type=int, default=2)
    args = parser.parse_args(argv)

    print(f"{'metric':<16} {'n':>2} {'rank':>4} {'orbit dim':>9}  notes")
    print("-" * 64)
    for path in sorted(args.metrics_dir.glob("*.metric")):
        name = path.stem
        if name not in BOXES:
            print(f"{name:<16} (no sampling box configured; skipped)")
            continue
        spec = parse_metric(path.read_text())
        box = _parse_box(BOXES[name], spec)
        report = homogeneity(
            spec, box,
            n_samples=args.samples, seed=args.seed, max_order=args.max_order,
        )
        notes = []
        if report.regularity_warning:
            notes.append("vanishing-invariant stratum; rank bound unreliable")
        if not report.is_riemannian:
            notes.append("pseudo-Riemannian")
        if report.skipped:
            notes.append(f"{len(report.skipped)} samples skipped")
        print(
            f"{name:<16} {report.n:>2} {report.rank:>4} {report.homogeneity:>9}"
            f"  {'; '.join(notes)}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
