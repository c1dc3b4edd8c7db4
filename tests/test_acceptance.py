"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion including wall time.
"""

import time

import numpy as np
import pytest

from metricinv.counting import (
    cumulative_generating_function,
    delta_count,
    poincare,
    pole_order_at_one,
    s_count,
    series_expand,
)
from metricinv.curvature import covariant_derivative, curvature_point
from metricinv.invariants import invariant_vector
from metricinv.metriclang import eval_expr, parse_expression, parse_metric, pullback_metric
from metricinv.symmetry import homogeneity

from conftest import (
    PPWAVE,
    random_curved_metric_text,
    random_polynomial_metric_text,
)
from test_invariants import DIFFEO_SEEDS, DIFFEOS, KRETSCHMANN_PER_WEYL_TRACE


def _report(number, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"\n[criterion {number}] PASS ({elapsed:.2f}s < {budget}s): {detail}")


def test_criterion_1_counting_cross_consistency():
    start = time.perf_counter()
    for n in range(2, 7):
        for k in range(0, 13):
            assert s_count(n, k) - s_count(n, k - 1) == delta_count(n, k), (n, k)
    _report(1, time.perf_counter() - start, 1.0,
            "s_k - s_{k-1} = delta_k exactly for n=2..6, k=0..12")


def test_criterion_2_poincare_reproduction():
    start = time.perf_counter()
    for n in range(2, 7):
        p = poincare(n)
        assert p.denominator[0] != 0  # 1/z parts cancelled
        assert series_expand(p, 12) == [delta_count(n, k) for k in range(13)]
        q = cumulative_generating_function(n)
        assert series_expand(q, 12) == [s_count(n, k) for k in range(13)]
    _report(2, time.perf_counter() - start, 1.0,
            "series of P match delta_k, P/(1-z) matches s_k, no pole at z=0")


def test_criterion_3_pole_order():
    start = time.perf_counter()
    for n in range(2, 7):
        assert pole_order_at_one(poincare(n)) == n
    _report(3, time.perf_counter() - start, 1.0,
            "pole order of P at z=1 equals n for n=2..6")


def test_criterion_4_curvature_oracles():
    start = time.perf_counter()
    sphere_charts = {
        2: "dim=2; coords=[x,y]; g[1,1]=1; g[2,2]=sin(x)^2",
        3: "dim=3; coords=[x,y,z]; g[1,1]=1; g[2,2]=sin(x)^2; g[3,3]=sin(x)^2*sin(y)^2",
        4: (
            "dim=4; coords=[x,y,z,w]; g[1,1]=1; g[2,2]=sin(x)^2;"
            "g[3,3]=sin(x)^2*sin(y)^2; g[4,4]=sin(x)^2*sin(y)^2*sin(z)^2"
        ),
    }
    point4 = (1.1, 0.7, 0.9, 0.5)
    for n, text in sphere_charts.items():
        cp = curvature_point(parse_metric(text), point4[:n], 2)
        assert abs(float(cp.scalar.values()) - n * (n - 1)) <= 1e-9 * n * (n - 1)
    for n in (2, 3, 4):
        coords = ["x", "y", "z", "w"][:n]
        lines = [f"dim={n}", f"coords=[{','.join(coords)}]"]
        lines += [f"g[{i},{i}] = 1/{coords[-1]}^2" for i in range(1, n + 1)]
        cp = curvature_point(parse_metric("; ".join(lines)), (0.3, 0.8, 1.4, 0.9)[:n], 2)
        assert abs(float(cp.scalar.values()) + n * (n - 1)) <= 1e-9 * n * (n - 1)

    schwarzschild = parse_metric(
        "dim=4; coords=[t,r,th,ph]; signature=[-1,+1,+1,+1];"
        "g[1,1]=-(1 - 2/r); g[2,2]=1/(1 - 2/r); g[3,3]=r^2; g[4,4]=r^2*sin(th)^2"
    )
    from metricinv.invariants import weyl_traces

    for r0 in (3.0, 4.5):
        cp = curvature_point(schwarzschild, (0.0, r0, 1.0, 0.5), 2)
        assert cp.ricci.max_abs() <= 1e-9
        labels, values = weyl_traces(cp, 0)
        tr_w2 = dict(zip(labels, values[:, 0]))["J(0,2,0)"]
        kretschmann = KRETSCHMANN_PER_WEYL_TRACE * tr_w2
        target = 48.0 / r0**6  # M = 1
        assert abs(kretschmann - target) <= 1e-7 * target
    _report(4, time.perf_counter() - start, 10.0,
            "sphere/hyperbolic scalars n(n-1), Schwarzschild Ricci-flat, "
            "Weyl quadratic trace reproduces 48 M^2/r^6 with frozen factor 4")


def test_criterion_5_syzygy_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    for trial in range(25):
        spec = parse_metric(random_polynomial_metric_text(3, rng, scale=0.3))
        point = tuple(rng.uniform(-0.4, 0.4, 3))
        cp = curvature_point(spec, point, 3, s_max=1)
        r = cp.riemann_lower.values()
        assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) <= 1e-10
        assert np.max(np.abs(r + r.transpose(1, 0, 2, 3))) <= 1e-10
        assert np.max(np.abs(r - r.transpose(2, 3, 0, 1))) <= 1e-10
        bianchi1 = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
        assert np.max(np.abs(bianchi1)) <= 1e-10
        nr = cp.nabla_r[1].values()
        bianchi2 = nr + nr.transpose(1, 2, 0, 3, 4) + nr.transpose(2, 0, 1, 3, 4)
        assert np.max(np.abs(bianchi2)) <= 1e-8
        nabla_g = covariant_derivative(cp.g, cp.gamma)
        assert nabla_g.max_abs() <= 1e-10
        w = cp.weyl.values()
        assert np.max(np.abs(w)) <= 1e-10  # n=3: Weyl vanishes identically
        ginv = cp.g_inv.values()
        assert np.max(np.abs(np.einsum("ik,ijkl->jl", ginv, w))) <= 1e-10
    _report(5, time.perf_counter() - start, 30.0,
            "25 random n=3 metrics: Riemann symmetries, Bianchi 1+2, "
            "metric compatibility, Weyl = 0")


def test_criterion_6_diffeomorphism_invariance():
    start = time.perf_counter()
    coords = ["x", "y", "z"]
    q = (0.25, -0.15, 0.4)
    for seed in DIFFEO_SEEDS:
        spec = parse_metric(random_curved_metric_text(3, np.random.default_rng(seed)))
        for phi_text in DIFFEOS:
            phi = [parse_expression(t, coords) for t in phi_text]
            pulled = pullback_metric(spec, phi)
            p = tuple(eval_expr(f, q, 0).value for f in phi)
            iv_orig = invariant_vector(spec, p, max_order=3)
            iv_pull = invariant_vector(pulled, q, max_order=3)
            assert iv_orig.labels == iv_pull.labels
            va, vb = iv_orig.values_array(), iv_pull.values_array()
            err = np.max(np.abs(va - vb) / np.maximum(1.0, np.abs(va)))
            assert err <= 1e-7, f"seed {seed}: {err:.3e}"
    _report(6, time.perf_counter() - start, 30.0,
            "invariant vectors agree at matched points under 3 polynomial "
            "coordinate changes, 5 random metrics, within 1e-7")


def test_criterion_7_symmetry_detection():
    start = time.perf_counter()
    cases = []
    sphere = parse_metric("dim=2; coords=[x,y]; g[1,1]=1; g[2,2]=sin(x)^2")
    cases.append(("unit 2-sphere", sphere, [(0.5, 2.5), (0.0, 3.0)], 2))
    hyper = parse_metric("dim=2; coords=[x,y]; g[1,1]=1/y^2; g[2,2]=1/y^2")
    cases.append(("hyperbolic plane", hyper, [(-1.0, 1.0), (0.5, 2.5)], 2))
    revolution = parse_metric("dim=2; coords=[x,y]; g[1,1]=1; g[2,2]=(2+sin(x))^2")
    cases.append(("surface of revolution", revolution, [(0.0, 3.0), (0.0, 3.0)], 1))
    generic = parse_metric(random_curved_metric_text(3, np.random.default_rng(103)))
    cases.append(("generic perturbed metric", generic, [(-0.5, 0.5)] * 3, 0))
    flat3 = parse_metric("dim=3; coords=[x,y,z]; g[1,1]=1; g[2,2]=1; g[3,3]=1")
    cases.append(("flat space", flat3, [(-1.0, 1.0)] * 3, 3))
    for name, spec, box, expected in cases:
        report = homogeneity(spec, box, n_samples=20, seed=7)
        assert report.homogeneity == expected, (
            f"{name}: homogeneity {report.homogeneity}, expected {expected}"
        )
    _report(7, time.perf_counter() - start, 30.0,
            "homogeneity 2/2/1/0/n for sphere, hyperbolic, revolution, "
            "generic, flat (20 samples, seed 7, default tolerances)")


def test_criterion_8_regularity_caveat_fixture():
    start = time.perf_counter()
    ppwave = parse_metric(PPWAVE)
    box = [(-0.5, 0.5), (-1.0, 1.0), (0.5, 1.5), (0.2, 1.2)]
    report = homogeneity(ppwave, box, n_samples=20, seed=7)
    assert report.invariant_max <= 1e-10
    assert report.riemann_max > 0.1
    assert report.regularity_warning
    rng = np.random.default_rng(99)
    for _ in range(3):
        point = (rng.uniform(-0.5, 0.5), rng.uniform(-1, 1),
                 rng.uniform(0.5, 1.5), rng.uniform(0.2, 1.2))
        iv = invariant_vector(ppwave, point, max_order=2)
        assert np.max(np.abs(iv.values_array())) <= 1e-10
    _report(8, time.perf_counter() - start, 10.0,
            "pp-wave: all I/J invariants vanish, |Riemann| > 0.1, "
            "RankReport carries the regularity warning")
