"""Levi-Civita pipeline against hand-derived and symbolic oracles."""

import itertools
import math

import numpy as np
import pytest

from metricinv import curvature
from metricinv.curvature import (
    TensorComponents,
    christoffel,
    covariant_derivative,
    curvature_point,
    metric_at,
    ricci,
    ricci_operator,
    riemann,
    weyl,
)
from metricinv.errors import (
    DomainError,
    InsufficientOrderError,
    SingularMetricError,
    UnsupportedDimensionError,
)
from metricinv.jets import _context, contract
from metricinv.metriclang import eval_expr, parse_expression, parse_metric
from metricinv.metriclang import pullback_metric

from conftest import (
    METRICS_DIR,
    SCHWARZSCHILD,
    SPHERE2,
    component,
    flat_metric_text,
    jet_identity,
    partial,
    random_polynomial_metric_text,
)
import sympy_oracle

S2_POINT = (1.1, 0.4)


def _tensor_from_exprs(texts, coords, point, order):
    coeffs = np.array([
        [eval_expr(parse_expression(text, coords), point, order).c for text in row]
        for row in texts
    ])
    return TensorComponents(("d", "d"), len(texts), order, coeffs)


def test_metric_at_euclidean(flat3):
    g, ginv = metric_at(flat3, (0.0, 0.0, 0.0), 2)
    assert np.array_equal(g.values(), np.eye(3))
    assert np.array_equal(ginv.values(), np.eye(3))


def test_metric_at_sphere_inverse_jets(sphere2):
    # hand expansion of csc^2 x: value, derivative -2csc^2 cot,
    # second derivative 4 csc^2 cot^2 + 2 csc^4
    x0 = S2_POINT[0]
    _, ginv = metric_at(sphere2, S2_POINT, 2)
    csc2 = 1 / math.sin(x0) ** 2
    cot = math.cos(x0) / math.sin(x0)
    jet = component(ginv, (1, 1))
    assert jet.value == pytest.approx(csc2, rel=1e-13)
    assert partial(jet, (1, 0)) == pytest.approx(-2 * csc2 * cot, rel=1e-12)
    assert partial(jet, (2, 0)) == pytest.approx(
        4 * csc2 * cot**2 + 2 * csc2**2, rel=1e-11
    )
    assert ginv.values()[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_metric_at_degenerate_point():
    spec = parse_metric("dim=2; coords=[x,y]; g[1,1]=x; g[2,2]=1")
    with pytest.raises(SingularMetricError):
        metric_at(spec, (0.0, 0.0), 2)


# A regular point of each file in metrics/, and where the chart has them,
# points where the metric degenerates (sin x = 0, sin th = 0).
SCALING_POINTS = {
    "flat2": [(0.3, -0.2)],
    "flat3": [(0.3, -0.2, 0.5)],
    "hyperbolic2": [(0.3, 1.2)],
    "ppwave": [(0.1, 0.5, 0.7, 0.3), (0.1, 0.5, 0.7, 0.7)],
    "revolution": [(0.9, 0.3)],
    "schwarzschild": [(0.0, 3.0, 1.0, 0.5), (0.0, 300.0, 1.0, 0.5), (0.0, 3.0, 0.0, 0.5)],
    "sphere2": [(1.1, 0.4), (0.0, 0.4)],
    "sphere3": [(1.1, 0.8, 0.3), (0.0, 0.8, 0.3), (1.1, 0.0, 0.3)],
}


def _metric_at_outcome(spec, point):
    try:
        metric_at(spec, point, 1)
    except SingularMetricError:
        return "singular"
    return "regular"


def test_metric_at_accepts_badly_scaled_charts():
    for size in ("1e12", "1e200"):
        wide = parse_metric(f"dim=2; coords=[x,y]; g[1,1]=1; g[2,2]={size}")
        assert _metric_at_outcome(wide, (0.0, 0.0)) == "regular", size
    schwarzschild = parse_metric((METRICS_DIR / "schwarzschild.metric").read_text())
    assert _metric_at_outcome(schwarzschild, (0.0, 300.0, 1.0, 0.5)) == "regular"


def test_metric_at_verdict_survives_rescaling_a_coordinate():
    """x_i -> lam * x_i multiplies row and column i of g by lam; whether g is
    degenerate must not depend on it."""
    assert sorted(path.stem for path in METRICS_DIR.glob("*.metric")) == sorted(SCALING_POINTS)
    verdicts = set()
    for name, points in SCALING_POINTS.items():
        spec = parse_metric((METRICS_DIR / f"{name}.metric").read_text())
        for point in points:
            verdict = _metric_at_outcome(spec, point)
            verdicts.add(verdict)
            for i, lam in itertools.product(range(spec.dim), (1e-3, 1e3)):
                phi = [
                    parse_expression(f"{lam!r}*{c}" if j == i else c, spec.coords)
                    for j, c in enumerate(spec.coords)
                ]
                moved = tuple(x / lam if j == i else x for j, x in enumerate(point))
                scaled = _metric_at_outcome(pullback_metric(spec, phi), moved)
                assert scaled == verdict, f"{name} at {point}, x{i} * {lam:g}"
    assert verdicts == {"regular", "singular"}


def test_metric_inverse_is_jet_level(sphere2):
    g, ginv = metric_at(sphere2, S2_POINT, 3)
    for i in range(2):
        for j in range(2):
            acc = None
            for k in range(2):
                term = component(g, (i, k)) * component(ginv, (k, j))
                acc = term if acc is None else acc + term
            target = 1.0 if i == j else 0.0
            assert abs(acc.value - target) < 1e-13
            assert np.max(np.abs(acc.c[1:])) < 1e-12


def _jet_matrix(rng, n, order):
    """A seeded well-conditioned (n, n, S) jet matrix: 1 + noise on the diagonal."""
    mat = 0.1 * rng.standard_normal((n, n, _context(n, order).size))
    mat[..., 0] += np.eye(n)
    return mat


@pytest.mark.parametrize("n", range(1, 6))
def test_jet_matrix_inverse_is_the_jet_inverse(n):
    rng = np.random.default_rng(n)
    for order in range(6):
        ctx = _context(n, order)
        mat = _jet_matrix(rng, n, order)
        product = contract(mat, curvature._jet_matrix_inverse(mat, ctx), ctx)
        np.testing.assert_allclose(product, jet_identity(n, ctx), rtol=0, atol=1e-14)


def test_jet_matrix_inverse_rejects_a_singular_constant_term():
    ctx = _context(2, 2)
    with pytest.raises(SingularMetricError):
        curvature._jet_matrix_inverse(np.ones((2, 2, ctx.size)), ctx)


@pytest.mark.parametrize("n", range(1, 6))
def test_jet_matrix_inverse_truncates_exactly(n):
    rng = np.random.default_rng(10 + n)
    for order in range(1, 6):
        low = _context(n, order - 1)
        mat = _jet_matrix(rng, n, order)
        high = curvature._jet_matrix_inverse(mat, _context(n, order))
        part = curvature._jet_matrix_inverse(mat[..., : low.size], low)
        assert np.array_equal(high[..., : low.size].view(np.int64), part.view(np.int64))


def test_christoffel_sphere(sphere2):
    x0 = S2_POINT[0]
    g, ginv = metric_at(sphere2, S2_POINT, 2)
    gam = christoffel(g, ginv).values()
    assert gam[0, 1, 1] == pytest.approx(-math.sin(x0) * math.cos(x0), rel=1e-13)
    assert gam[1, 0, 1] == pytest.approx(math.cos(x0) / math.sin(x0), rel=1e-13)
    assert gam[1, 1, 0] == gam[1, 0, 1]
    assert abs(gam[0, 0, 0]) < 1e-14


def test_christoffel_hyperbolic(hyperbolic2):
    y0 = 1.7
    g, ginv = metric_at(hyperbolic2, (0.3, y0), 2)
    gam = christoffel(g, ginv).values()
    assert gam[0, 0, 1] == pytest.approx(-1 / y0, rel=1e-13)
    assert gam[1, 0, 0] == pytest.approx(1 / y0, rel=1e-13)
    assert gam[1, 1, 1] == pytest.approx(-1 / y0, rel=1e-13)


def test_christoffel_flat_zero(flat3):
    g, ginv = metric_at(flat3, (0.5, -0.2, 0.9), 2)
    assert christoffel(g, ginv).max_abs() == 0.0


def test_scalar_curvature_is_a_rank0_tensor(sphere2):
    # the unit sphere has scal = n(n - 1) = 2; max_abs reads a rank-0 tensor too
    cp = curvature_point(sphere2, S2_POINT, 3)
    assert cp.scalar.variance == () and cp.scalar.coeffs.shape == (cp.scalar.ctx.size,)
    assert cp.scalar.max_abs() == pytest.approx(2.0, rel=1e-12)
    assert TensorComponents((), 2, 1, np.array([-3.5, 1.0, 2.0])).max_abs() == 3.5


def test_christoffel_insufficient_order(sphere2):
    g, ginv = metric_at(sphere2, S2_POINT, 0)
    with pytest.raises(InsufficientOrderError):
        christoffel(g, ginv)


def test_riemann_flat_zero(flat3):
    cp = curvature_point(flat3, (0.1, 0.2, 0.3), 3)
    assert cp.riemann_lower.max_abs() < 1e-15
    assert cp.ricci.max_abs() < 1e-15
    assert abs(float(cp.scalar.values())) < 1e-15


def test_riemann_sphere(sphere2):
    cp = curvature_point(sphere2, S2_POINT, 2)
    expect = math.sin(S2_POINT[0]) ** 2
    r = cp.riemann_lower.values()
    assert r[0, 1, 0, 1] == pytest.approx(expect, rel=1e-12)
    assert r[0, 1, 1, 0] == pytest.approx(-expect, rel=1e-12)


def test_riemann_hyperbolic(hyperbolic2):
    y0 = 1.3
    cp = curvature_point(hyperbolic2, (0.2, y0), 2)
    assert cp.riemann_lower.values()[0, 1, 0, 1] == pytest.approx(-1 / y0**4, rel=1e-12)


def test_scalar_curvatures_constant_spaces():
    # unit spheres: n(n-1); hyperbolic upper half spaces: -n(n-1)
    sphere_charts = {
        2: SPHERE2,
        3: "dim=3; coords=[x,y,z]; g[1,1]=1; g[2,2]=sin(x)^2; g[3,3]=sin(x)^2*sin(y)^2",
        4: (
            "dim=4; coords=[x,y,z,w]; g[1,1]=1; g[2,2]=sin(x)^2;"
            "g[3,3]=sin(x)^2*sin(y)^2; g[4,4]=sin(x)^2*sin(y)^2*sin(z)^2"
        ),
    }
    for n, text in sphere_charts.items():
        cp = curvature_point(parse_metric(text), (1.1, 0.7, 0.9, 0.5)[:n], 2)
        assert float(cp.scalar.values()) == pytest.approx(n * (n - 1), rel=1e-9)
    for n in (2, 3, 4):
        coords = ["x", "y", "z", "w"][:n]
        lines = [f"dim={n}", f"coords=[{','.join(coords)}]"]
        lines += [f"g[{i},{i}] = 1/{coords[-1]}^2" for i in range(1, n + 1)]
        cp = curvature_point(parse_metric("; ".join(lines)), (0.3, 0.8, 1.4, 0.9)[:n], 2)
        assert float(cp.scalar.values()) == pytest.approx(-n * (n - 1), rel=1e-9)


def test_ricci_schwarzschild_flat(schwarzschild):
    cp = curvature_point(schwarzschild, (0.0, 3.0, 1.0, 0.5), 2)
    assert cp.ricci.max_abs() < 1e-9
    assert abs(float(cp.scalar.values())) < 1e-9
    assert cp.riemann_lower.max_abs() > 0.01


def test_ricci_operator_3sphere(sphere3):
    cp = curvature_point(sphere3, (1.1, 0.8, 0.3), 2)
    assert np.allclose(cp.ricci_op.values(), 2 * np.eye(3), atol=1e-11)


def test_ricci_operator_product_metric():
    spec = parse_metric("dim=3; coords=[x,y,z]; g[1,1]=1; g[2,2]=sin(x)^2; g[3,3]=1")
    cp = curvature_point(spec, (1.0, 0.5, 0.2), 2)
    assert np.allclose(cp.ricci_op.values(), np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_weyl_vanishes_in_three_dimensions():
    rng = np.random.default_rng(5)
    for _ in range(3):
        spec = parse_metric(random_polynomial_metric_text(3, rng))
        cp = curvature_point(spec, tuple(rng.uniform(-0.4, 0.4, 3)), 2)
        assert cp.weyl.max_abs() < 1e-10


def test_weyl_equals_riemann_for_ricci_flat(schwarzschild):
    cp = curvature_point(schwarzschild, (0.0, 3.0, 1.0, 0.5), 2)
    assert np.max(np.abs(cp.weyl.values() - cp.riemann_lower.values())) < 1e-12


def test_weyl_conformally_flat():
    lines = ["dim=4", "coords=[x,y,z,w]"]
    lines += [f"g[{i},{i}] = exp(2*x^2)" for i in range(1, 5)]
    spec = parse_metric("; ".join(lines))
    cp = curvature_point(spec, (0.3, 0.1, -0.2, 0.4), 2)
    assert cp.weyl.max_abs() < 1e-9
    assert cp.riemann_lower.max_abs() > 0.1


def test_weyl_trace_free(schwarzschild):
    rng = np.random.default_rng(47)
    random4 = parse_metric(random_polynomial_metric_text(4, rng, scale=0.3))
    for spec, point in [
        (schwarzschild, (0.0, 3.5, 1.2, 0.8)),
        (random4, (0.2, -0.1, 0.3, 0.1)),
    ]:
        cp = curvature_point(spec, point, 2)
        ginv = cp.g_inv.values()
        w = cp.weyl.values()
        trace = np.einsum("ik,ijkl->jl", ginv, w)
        assert np.max(np.abs(trace)) < 1e-10
        assert np.max(np.abs(np.einsum("jl,ijkl->ik", ginv, w))) < 1e-10


def test_weyl_unsupported_for_surfaces(sphere2):
    g, ginv = metric_at(sphere2, S2_POINT, 2)
    gam = christoffel(g, ginv)
    r_lower, r_mixed = riemann(gam, g)
    ric, scal = ricci(r_mixed, ginv)
    with pytest.raises(UnsupportedDimensionError):
        weyl(g, ric, scal, r_lower)


def test_covariant_derivative_of_metric_vanishes():
    rng = np.random.default_rng(11)
    for _ in range(4):
        spec = parse_metric(random_polynomial_metric_text(3, rng))
        point = tuple(rng.uniform(-0.4, 0.4, 3))
        g, ginv = metric_at(spec, point, 3)
        gam = christoffel(g, ginv)
        nabla_g = covariant_derivative(g, gam)
        assert nabla_g.max_abs() < 1e-10


def test_covariant_derivative_flat_is_partial(flat3):
    point = (0.4, -0.3, 0.8)
    g, ginv = metric_at(flat3, point, 3)
    gam = christoffel(g, ginv)
    coords = ("x", "y", "z")
    texts = [
        ["x*y", "sin(x)", "z^2"],
        ["sin(x)", "exp(y)", "1"],
        ["z^2", "1", "x + y*z"],
    ]
    t = _tensor_from_exprs(texts, coords, point, 3)
    nabla_t = covariant_derivative(t, gam).values()
    for m in range(3):
        for i in range(3):
            for j in range(3):
                assert nabla_t[m, i, j] == pytest.approx(
                    partial(component(t, (i, j)), tuple(1 if q == m else 0 for q in range(3))),
                    rel=1e-12, abs=1e-12,
                )


def test_covariant_derivative_mixed_variance(sphere3):
    # nabla of the identity endomorphism vanishes: checks the up-slot sign
    point = (1.2, 0.9, 0.4)
    g, ginv = metric_at(sphere3, point, 3)
    gam = christoffel(g, ginv)
    n = 3
    order = gam.order
    ident = TensorComponents(("u", "d"), n, order + 1, jet_identity(n, _context(n, order + 1)))
    nabla_id = covariant_derivative(ident, gam)
    assert nabla_id.max_abs() < 1e-13


def test_nabla_r_vanishes_on_symmetric_spaces(sphere2, hyperbolic2):
    for spec, point in [(sphere2, S2_POINT), (hyperbolic2, (0.4, 1.2))]:
        cp = curvature_point(spec, point, 3, s_max=1)
        assert cp.nabla_r[1].max_abs() < 1e-9


def _riemann_residuals(cp):
    r = cp.riemann_lower.values()
    anti_kl = np.max(np.abs(r + r.transpose(0, 1, 3, 2)))
    anti_ij = np.max(np.abs(r + r.transpose(1, 0, 2, 3)))
    pair = np.max(np.abs(r - r.transpose(2, 3, 0, 1)))
    bianchi1 = np.max(
        np.abs(r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2))
    )
    return anti_kl, anti_ij, pair, bianchi1


def test_riemann_symmetries_random_metrics():
    rng = np.random.default_rng(23)
    for _ in range(5):
        spec = parse_metric(random_polynomial_metric_text(3, rng))
        cp = curvature_point(spec, tuple(rng.uniform(-0.4, 0.4, 3)), 2)
        for residual in _riemann_residuals(cp):
            assert residual < 1e-10
        ric = cp.ricci.values()
        assert np.max(np.abs(ric - ric.T)) < 1e-10


def test_second_bianchi_random_metrics():
    rng = np.random.default_rng(29)
    for _ in range(4):
        spec = parse_metric(random_polynomial_metric_text(3, rng))
        cp = curvature_point(spec, tuple(rng.uniform(-0.4, 0.4, 3)), 3, s_max=1)
        nr = cp.nabla_r[1].values()
        cyc = nr + nr.transpose(1, 2, 0, 3, 4) + nr.transpose(2, 0, 1, 3, 4)
        assert np.max(np.abs(cyc)) < 1e-8


def test_order_bookkeeping():
    spec = parse_metric(SPHERE2)
    with pytest.raises(InsufficientOrderError):
        curvature_point(spec, S2_POINT, 1)
    with pytest.raises(InsufficientOrderError):
        curvature_point(spec, S2_POINT, 3, s_max=2)
    cp = curvature_point(spec, S2_POINT, 4, s_max=2)
    assert len(cp.nabla_r) == 3
    assert cp.nabla_r[2].order == 0
    with pytest.raises(InsufficientOrderError):
        covariant_derivative(cp.nabla_r[2], cp.gamma)


def test_nabla_r_is_bitwise_the_covariant_derivative_chain():
    rng = np.random.default_rng(43)
    spec = parse_metric(random_polynomial_metric_text(3, rng))
    cp = curvature_point(spec, tuple(rng.uniform(-0.4, 0.4, 3)), 4)
    chain = [cp.riemann_lower]
    for _ in range(2):
        chain.append(covariant_derivative(chain[-1], cp.gamma))
    assert len(cp.nabla_r) == len(chain)
    for got, want in zip(cp.nabla_r, chain):
        assert (got.variance, got.order) == (want.variance, want.order)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


def test_nabla_r_rejects_non_finite_coefficients(monkeypatch, sphere2):
    cp = curvature_point(sphere2, S2_POINT, 3)
    original = curvature.covariant_derivative

    def overflowing(t, gamma):
        out = original(t, gamma)
        return TensorComponents(out.variance, out.n, out.order, np.full_like(out.coeffs, np.inf))

    monkeypatch.setattr(curvature, "covariant_derivative", overflowing)
    with pytest.raises(DomainError, match="nabla"):
        cp.nabla_r


def test_riemann_against_symbolic_oracle():
    rng = np.random.default_rng(37)
    for _ in range(3):
        text = random_polynomial_metric_text(3, rng, scale=0.25)
        point = tuple(rng.uniform(-0.3, 0.3, 3))
        cp = curvature_point(parse_metric(text), point, 2)
        coords, g = sympy_oracle.read_metric(text)
        expect = sympy_oracle.riemann_numeric(coords, g, point)
        assert np.max(np.abs(cp.riemann_lower.values() - expect)) < 1e-10


def test_schwarzschild_against_symbolic_oracle():
    point = (0.0, 3.2, 1.1, 0.7)
    cp = curvature_point(parse_metric(SCHWARZSCHILD), point, 2)
    coords, g = sympy_oracle.read_metric(SCHWARZSCHILD)
    ric_num, scal_num = sympy_oracle.ricci_numeric(coords, g, point)
    assert np.max(np.abs(ric_num)) < 1e-10  # oracle agrees: vacuum solution
    assert abs(scal_num) < 1e-10
    assert np.max(np.abs(cp.ricci.values() - ric_num)) < 1e-9
    expect = sympy_oracle.riemann_numeric(coords, g, point)
    assert np.max(np.abs(cp.riemann_lower.values() - expect)) < 1e-10
