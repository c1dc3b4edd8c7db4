"""The jet orders the invariant pipeline runs at, and why fewer orders are exact.

`invariant_sample` runs the curvature pipeline at the gate order, where the
order-2 block and the Tresse frame's rank test are complete, and again at
the full order only on a regular frame. That second pass may only add
orders: truncating the full-order pipeline to the gate order must give the
gate-order pipeline bit for bit.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from metricinv import invariants
from metricinv.curvature import curvature_point
from metricinv.invariants import (
    higher_invariants,
    invariant_vector,
    required_jet_order,
    ricci_traces,
    surface_invariant_pair,
    tresse_frame,
    weyl_traces,
)
from metricinv.jets import _context
from metricinv.metriclang import parse_metric
from metricinv.symmetry import homogeneity

from conftest import METRICS_DIR

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

# One point inside each bundled metric's chart.
POINTS = {
    "flat2": (0.3, -0.2),
    "flat3": (0.3, -0.2, 0.5),
    "hyperbolic2": (0.3, 1.2),
    "ppwave": (0.1, 0.5, 0.7, 0.3),
    "revolution": (0.9, 0.3),
    "schwarzschild": (0.0, 3.0, 1.0, 0.5),
    "sphere2": (1.1, 0.4),
    "sphere3": (1.1, 0.8, 0.3),
}
SCHWARZSCHILD_BOX = [(0.0, 1.0), (3.0, 6.0), (0.6, 2.4), (0.0, 3.0)]
# Generic metrics whose Tresse frames are regular at the given points.
SURFACE = """
dim = 2
coords = [x, y]
g[1,1] = 2 + 0.3*sin(0.7*x) + 0.2*sin(1.3*y)
g[1,2] = 0.1*sin(0.9*x)
g[2,2] = 2 + 0.25*sin(1.1*y) + 0.15*sin(0.6*x)
"""
LORENTZIAN = """
dim = 4
coords = [t, x, y, z]
signature = [-1, +1, +1, +1]
g[1,1] = -(2 + 0.3*sin(0.7*x) + 0.2*sin(1.3*t))
g[2,2] = 2 + 0.25*sin(1.1*y) + 0.15*sin(0.6*z)
g[3,3] = 2 + 0.2*sin(0.8*z) + 0.1*sin(1.2*t)
g[4,4] = 2 + 0.3*sin(0.5*t) + 0.2*sin(0.9*x)
g[2,3] = 0.1*sin(0.9*t)
"""
TENSORS = ("g", "g_inv", "gamma", "riemann_lower", "ricci", "scalar", "ricci_op", "weyl")


@pytest.fixture(scope="module")
def tower():
    """The spec and point of tower3d's op 0 on seed 11: a regular frame."""
    inp = workloads.Tower3d(11, ROOT).inputs(0)
    return parse_metric(inp.text), inp.point


class _Calls(list):
    """Jet orders of the `curvature_point` calls; `frames` holds the base
    order of each `tresse_frame` call."""

    def __init__(self):
        super().__init__()
        self.frames = []


@pytest.fixture
def orders(monkeypatch):
    """The `curvature_point` and `tresse_frame` calls `invariant_sample` makes."""
    seen = _Calls()
    original, original_frame = invariants.curvature_point, invariants.tresse_frame

    def recording(spec, point, order, s_max=None):
        seen.append(order)
        return original(spec, point, order, s_max=s_max)

    def recording_frame(base, order, rel_tol):
        seen.frames.append(order)
        return original_frame(base, order, rel_tol=rel_tol)

    monkeypatch.setattr(invariants, "curvature_point", recording)
    monkeypatch.setattr(invariants, "tresse_frame", recording_frame)
    return seen


def test_singular_frame_runs_only_the_gate_order(orders):
    spec = parse_metric((METRICS_DIR / "schwarzschild.metric").read_text())
    report = homogeneity(spec, SCHWARZSCHILD_BOX, n_samples=1, max_order=3, seed=7)
    assert report.homogeneity == 3
    assert orders == [3]
    assert orders.frames == [1]


def test_regular_frame_adds_the_full_order(orders, tower):
    iv = invariant_vector(*tower, max_order=4, with_gradients=True)
    assert not iv.warnings
    assert orders == [3, 5]
    assert orders.frames == [1, 3]


def test_full_order_at_the_gate_is_one_pass(orders, tower):
    iv = invariant_vector(*tower, max_order=3)
    assert not iv.warnings
    assert orders == [3]
    assert orders.frames == [1]


def _bits(coeffs):
    """Float bits as integers, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(coeffs).view(np.int64)


def _assert_prefix(low, high, name):
    assert np.array_equal(_bits(low), _bits(high[..., : low.shape[-1]])), name


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("name", [*sorted(POINTS), "tower3d"])
def test_pipeline_truncation_is_exact(name, order, tower):
    if name == "tower3d":
        spec, point = tower
    else:
        spec = parse_metric((METRICS_DIR / f"{name}.metric").read_text())
        point = POINTS[name]
    low = curvature_point(spec, point, order)
    high = curvature_point(spec, point, order + 1)
    for field in TENSORS:
        if getattr(low, field) is not None:
            _assert_prefix(getattr(low, field).coeffs, getattr(high, field).coeffs, field)
    assert len(low.nabla_r) == len(high.nabla_r) - 1
    for s, t in enumerate(low.nabla_r):
        _assert_prefix(t.coeffs, high.nabla_r[s].coeffs, f"nabla^{s} R")


def _one_pass(spec, point, max_order, with_gradients):
    """Every value `invariant_vector` emits, from one pipeline at the full order."""
    n = spec.dim
    out_order = 1 if with_gradients else 0
    curv = curvature_point(spec, point, required_jet_order(n, max_order, with_gradients))
    if n == 2:
        base, base_order = surface_invariant_pair(curv), curv.scalar.order - 1
    else:
        base, base_order = ricci_traces(curv.ricci_op), curv.ricci_op.order
    blocks = [base[:, : _context(n, out_order).size]]
    if n >= 4:
        blocks.append(weyl_traces(curv, out_order)[1])
    frame = tresse_frame(base, base_order)
    for k in range(3, max_order + 1):
        blocks.append(higher_invariants(curv, frame, k, with_gradients)[1])
    return np.concatenate(blocks)


@pytest.mark.parametrize("case", ["surface", "tower3d", "lorentzian"])
def test_two_passes_give_the_one_pass_values(case, tower):
    spec, point, max_order = {
        "surface": (parse_metric(SURFACE), (0.3, 0.4), 3),
        "tower3d": (*tower, 4),
        "lorentzian": (parse_metric(LORENTZIAN), (0.1, 0.2, 0.3, 0.4), 3),
    }[case]
    iv = invariant_vector(spec, point, max_order=max_order, with_gradients=True)
    assert not iv.warnings
    reference = _one_pass(spec, point, max_order, with_gradients=True)
    assert np.array_equal(_bits(iv.values), _bits(reference))
