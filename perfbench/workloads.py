"""The benchmark's workloads: inputs from a seed, one timed call, a check.

Every workload draws the inputs of operation `i` from
`numpy.random.default_rng([seed, i + 1])` (the untimed warm-up op is
i = -1), so a seed fixes the whole input sequence however many operations
a run gets through. `run` is the only
timed part. It calls metricinv through module attributes
(`symmetry.homogeneity`, `cli.main`, ...) so that the traced run's
wrappers on those attributes see the calls. `check` runs untimed and
returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from metricinv import cli, counting, invariants, metriclang, symmetry

WARM_UP_OP = -1


def _rng(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, op + 1])


# -- survey4d -------------------------------------------------------------------

# Per coordinate: range of the box's lower corner, then range of its width.
# Every box stays inside the chart (r > 2, 0 < th < pi for Schwarzschild).
SURVEY_METRICS = (
    ("schwarzschild", {
        "t": (-5.0, 5.0, 0.5, 2.0),
        "r": (2.5, 8.0, 0.5, 4.0),
        "th": (0.4, 1.8, 0.2, 0.9),
        "ph": (0.0, 5.0, 0.5, 1.0),
    }),
    ("ppwave", {
        "u": (-1.0, 0.5, 0.2, 0.5),
        "v": (-5.0, 5.0, 0.5, 2.0),
        "x": (-2.0, 1.5, 0.2, 1.0),
        "y": (-2.0, 1.5, 0.2, 1.0),
    }),
)


@dataclass(frozen=True)
class SurveyInput:
    metric: str
    spec: metriclang.MetricSpec
    box: tuple[tuple[float, float], ...]
    seed: int


class Survey4d:
    """One single-sample `homogeneity` call at max_order 3 per op.

    Ops alternate between Schwarzschild and the vacuum pp-wave. Both
    have a singular Tresse frame, so each op computes nabla R and then
    drops it.
    """

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.specs = {
            name: metriclang.parse_metric((root / "metrics" / f"{name}.metric").read_text())
            for name, _ in SURVEY_METRICS
        }

    def inputs(self, op: int) -> SurveyInput:
        rng = _rng(self.seed, op)
        name, chart = SURVEY_METRICS[op % 2]
        spec = self.specs[name]
        box = []
        for coord in spec.coords:
            lo_min, lo_max, w_min, w_max = chart[coord]
            lo = float(rng.uniform(lo_min, lo_max))
            box.append((lo, lo + float(rng.uniform(w_min, w_max))))
        return SurveyInput(name, spec, tuple(box), int(rng.integers(2**31)))

    def run(self, inp: SurveyInput):
        return symmetry.homogeneity(inp.spec, inp.box, n_samples=1, max_order=3, seed=inp.seed)

    def check(self, inp: SurveyInput, report) -> str | None:
        if report.skipped:
            return f"{inp.metric}: sample point skipped: {report.skipped[0][1]}"
        if inp.metric == "schwarzschild":
            if report.homogeneity != 3 or report.regularity_warning:
                return (f"schwarzschild: orbit dimension {report.homogeneity}, "
                        f"regularity warning {report.regularity_warning}")
        elif not report.regularity_warning or report.claims_killing_fields:
            return (f"ppwave: regularity warning {report.regularity_warning}, "
                    f"claims Killing fields {report.claims_killing_fields}")
        return None


# -- tower3d --------------------------------------------------------------------

TOWER_ORDER = 4
TOWER_COORDS = ("x", "y", "z")
# Share of ops whose I1..I3 are also checked under an affine change of chart.
PULLBACK_SHARE = 1 / 8
PULLBACK_RTOL = 1e-9
# The Jacobian of I1..I3 is singular on a surface of each metric, and a
# uniform point lands within the program's rank tolerance of it about once
# in 600 ops. Such a point is redrawn unless the Jacobian's singular values
# clear the program's tolerance by this factor, so that every op has the
# regular frame the workload is defined by.
FRAME_MARGIN = 100
MAX_POINT_DRAWS = 50


def tower_count(n: int, max_order: int, s_range: int = 1) -> int:
    """Invariants `invariant_vector` emits for n >= 3 with a regular frame.

    n Ricci power traces, then per order k >= 3 one invariant for each
    choice of k - 2 derivative-slot frame vectors and four curvature
    slots drawn from n(s_range + 1) vectors A^s e_j.
    """
    return n + sum(n ** (k - 2) * (n * (s_range + 1)) ** 4 for k in range(3, max_order + 1))


def tower_metric_text(rng: np.random.Generator) -> str:
    """A generic, non-Einstein, positive-definite 3-metric.

    Diagonal entries are 2 + sum_v a_v sin(b_v x_v) with a_v <= 0.3 and
    off-diagonal ones two sines of amplitude <= 0.1, so the matrix is
    diagonally dominant (>= 1.1 against <= 0.4) everywhere.
    """
    lines = ["dim = 3", f"coords = [{', '.join(TOWER_COORDS)}]"]
    for i in range(3):
        for j in range(i, 3):
            if i == j:
                terms = ["2"] + [
                    f"{rng.uniform(0.1, 0.3):.6f} * sin({rng.uniform(0.5, 1.5):.6f} * {c})"
                    for c in TOWER_COORDS
                ]
            else:
                coords = rng.choice(TOWER_COORDS, size=2, replace=False)
                terms = [
                    f"({rng.uniform(-0.1, 0.1):.6f}) * sin({rng.uniform(0.5, 1.5):.6f} * {c})"
                    for c in coords
                ]
            lines.append(f"g[{i + 1},{j + 1}] = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def regular_point(spec: metriclang.MetricSpec, rng: np.random.Generator) -> tuple[float, ...]:
    """A uniform point of [-2, 2]^3 whose Tresse frame is well conditioned."""
    for _ in range(MAX_POINT_DRAWS):
        point = tuple(float(v) for v in rng.uniform(-2.0, 2.0, 3))
        jac = invariants.invariant_vector(spec, point, max_order=2, with_gradients=True).jacobian()
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[-1] > FRAME_MARGIN * invariants.DEFAULT_FRAME_RTOL * sv[0]:
            return point
    raise RuntimeError(f"no regular point in {MAX_POINT_DRAWS} draws")


@dataclass(frozen=True)
class TowerInput:
    text: str
    point: tuple[float, ...]
    affine: tuple[np.ndarray, np.ndarray] | None  # x = A y + b, or no pullback check


class Tower3d:
    """`parse_metric` plus `invariant_vector(max_order=4, with_gradients=True)`.

    Points are drawn where the frame is regular (see `regular_point`), so
    every op emits `tower_count(3, 4)` = 15555 invariants from nabla R and
    nabla^2 R.
    """

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.expected = tower_count(3, TOWER_ORDER)

    def inputs(self, op: int) -> TowerInput:
        rng = _rng(self.seed, op)
        text = tower_metric_text(rng)
        point = regular_point(metriclang.parse_metric(text), rng)
        affine = None
        if op == 0 or rng.random() < PULLBACK_SHARE:
            affine = (np.eye(3) + 0.3 * rng.standard_normal((3, 3)), rng.uniform(-1.0, 1.0, 3))
        return TowerInput(text, point, affine)

    def run(self, inp: TowerInput):
        spec = metriclang.parse_metric(inp.text)
        return spec, invariants.invariant_vector(
            spec, inp.point, max_order=TOWER_ORDER, with_gradients=True
        )

    def check(self, inp: TowerInput, out) -> str | None:
        spec, iv = out
        if iv.warnings:
            return f"unexpected warning: {iv.warnings[0]}"
        if len(iv) != self.expected:
            return f"{len(iv)} invariants, expected {self.expected}"
        if not (np.all(np.isfinite(iv.values_array())) and np.all(np.isfinite(iv.jacobian()))):
            return "non-finite invariant value or gradient"
        if inp.affine is not None:
            return self._check_pullback(inp, spec, iv)
        return None

    def _check_pullback(self, inp: TowerInput, spec, iv) -> str | None:
        """I1..I3 at p must equal those of the pulled-back metric at A^-1 (p - b)."""
        a, b = inp.affine
        phi = [
            metriclang.parse_expression(
                " + ".join(f"({float(a[k, j])!r}) * {c}" for j, c in enumerate(spec.coords))
                + f" + ({float(b[k])!r})",
                spec.coords,
            )
            for k in range(3)
        ]
        pulled = metriclang.pullback_metric(spec, phi)
        q = np.linalg.solve(a, np.asarray(inp.point) - b)
        other = invariants.invariant_vector(pulled, tuple(float(v) for v in q), max_order=2)
        mine = dict(zip(iv.labels, iv.values_array()))
        theirs = dict(zip(other.labels, other.values_array()))
        # I_i = Tr(A^i) with real eigenvalues, so |I_i| <= (3 I2)^(i/2); use
        # that as the scale where the trace itself cancels towards zero.
        i2 = abs(mine["I2"])
        for i in (1, 2, 3):
            x, y = mine[f"I{i}"], theirs[f"I{i}"]
            scale = max(abs(x), abs(y), (3 * i2) ** (i / 2))
            if not abs(x - y) <= PULLBACK_RTOL * scale:
                return f"I{i} changed under an affine chart change: {x!r} vs {y!r}"
        return None


# -- counts ---------------------------------------------------------------------

COUNT_DIMS = (2, 32)
COUNT_LENGTHS = (4, 24)
# A `count` op takes 1-2 ms whatever n is, a `poincare` op 2-10 ms growing
# with n. With three poincare ops to one count the median latency falls
# inside the poincare range, not in the gap between the two commands,
# where it would jump with small changes of either.
POINCARE_SHARE = 0.75


@dataclass(frozen=True)
class CountInput:
    command: str
    n: int
    k_max: int

    @property
    def argv(self) -> list[str]:
        length = "--expand" if self.command == "poincare" else "--max-k"
        return [self.command, "--dim", str(self.n), length, str(self.k_max), "--format", "json"]


class Counts:
    """One in-process `cli.main` call of `poincare` or `count`, stdout captured."""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self._series: dict[int, tuple[list[int], list[int]] | None] = {}

    def inputs(self, op: int) -> CountInput:
        rng = _rng(self.seed, op)
        command = "poincare" if rng.random() < POINCARE_SHARE else "count"
        n = int(rng.integers(COUNT_DIMS[0], COUNT_DIMS[1] + 1))
        return CountInput(command, n, int(rng.integers(COUNT_LENGTHS[0], COUNT_LENGTHS[1] + 1)))

    def run(self, inp: CountInput):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(inp.argv)
        return code, out.getvalue()

    def _reference(self, n: int) -> tuple[list[int], list[int]] | None:
        """delta_k and s_k for k up to the longest expansion, or None when
        the series of `poincare(n)` or of its cumulative form disagree."""
        if n not in self._series:
            ks = range(COUNT_LENGTHS[1] + 1)
            delta = [counting.delta_count(n, k) for k in ks]
            s = [counting.s_count(n, k) for k in ks]
            agree = (
                counting.series_expand(counting.poincare(n), ks[-1]) == delta
                and counting.series_expand(counting.cumulative_generating_function(n), ks[-1]) == s
            )
            self._series[n] = (delta, s) if agree else None
        return self._series[n]

    def check(self, inp: CountInput, out) -> str | None:
        code, text = out
        if code != 0:
            return f"{' '.join(inp.argv)} exited {code}"
        try:
            results = json.loads(text)["results"]
        except (ValueError, KeyError) as exc:
            return f"{' '.join(inp.argv)}: output is not a JSON report ({exc})"
        reference = self._reference(inp.n)
        if reference is None:
            return f"series of poincare({inp.n}) disagree with delta_count/s_count"
        delta, s = reference
        keys = ("series_delta", "series_s") if inp.command == "poincare" else ("delta", "s")
        want = (delta[: inp.k_max + 1], s[: inp.k_max + 1])
        for key, expected in zip(keys, want):
            if results.get(key) != expected:
                return f"{' '.join(inp.argv)}: {key} differs from the exact counts"
        return None


WORKLOADS = {"survey4d": Survey4d, "tower3d": Tower3d, "counts": Counts}

