"""Rank-based symmetry estimation: Jacobians, consensus rank, verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from metricinv.errors import AllPointsSingularError
from metricinv.invariants import invariant_vector
from metricinv.metriclang import parse_expression, parse_metric, pullback_metric
from metricinv.symmetry import (
    homogeneity,
    homogeneous_test,
    numerical_rank,
)

from conftest import METRICS_DIR, random_curved_metric_text

BOX2 = [(0.5, 2.5), (0.0, 3.0)]
BOX2_UPPER = [(-1.0, 1.0), (0.5, 2.5)]
BOX3 = [(-0.5, 0.5)] * 3


def test_numerical_rank_basics():
    assert numerical_rank([5.0, 3e-12]) == 1
    assert numerical_rank([1.0, 1.0]) == 2
    assert numerical_rank([0.0, 0.0]) == 0
    assert numerical_rank([]) == 0
    assert numerical_rank([1e-11]) == 0  # below the absolute floor


@given(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=6),
    st.floats(min_value=1e-12, max_value=1e-2),
)
@settings(max_examples=60)
def test_numerical_rank_properties(values, rel_tol):
    sv = sorted(values, reverse=True)
    rank = numerical_rank(sv, rel_tol=rel_tol)
    assert 0 <= rank <= len(sv)
    # scaling invariance above the absolute floor
    if sv[0] > 1.0:
        assert numerical_rank([2 * s for s in sv], rel_tol=rel_tol) == rank
    # monotone in the tolerance
    assert rank <= numerical_rank(sv, rel_tol=rel_tol / 10)


def test_invariant_jacobian_zero_on_sphere(sphere2):
    jac = invariant_vector(sphere2, (1.2, 0.7), max_order=2, with_gradients=True).jacobian()
    assert np.max(np.abs(jac)) < 1e-10


def test_invariant_jacobian_zero_on_flat(flat3):
    jac = invariant_vector(flat3, (0.3, -0.2, 0.5), max_order=2, with_gradients=True).jacobian()
    assert np.max(np.abs(jac)) < 1e-12


def test_invariant_jacobian_revolution_depends_on_x_only(revolution):
    jac = invariant_vector(revolution, (0.8, 0.4), max_order=2, with_gradients=True).jacobian()
    assert np.max(np.abs(jac[:, 1])) < 1e-10  # y column vanishes
    assert np.max(np.abs(jac[:, 0])) > 1e-3


def test_homogeneity_sphere(sphere2):
    report = homogeneity(sphere2, BOX2, seed=7)
    assert report.rank == 0
    assert report.homogeneity == 2
    assert not report.regularity_warning
    assert report.claims_killing_fields
    assert len(report.points) == 20


def test_homogeneity_hyperbolic(hyperbolic2):
    report = homogeneity(hyperbolic2, BOX2_UPPER, seed=7)
    assert report.homogeneity == 2


def test_homogeneity_revolution(revolution):
    report = homogeneity(revolution, [(0.0, 3.0), (0.0, 3.0)], seed=7)
    assert report.rank == 1
    assert report.homogeneity == 1


def test_homogeneity_flat_is_n(flat3):
    report = homogeneity(flat3, BOX3, seed=7)
    assert report.homogeneity == 3
    assert not report.regularity_warning  # curvature vanishes too


def test_homogeneity_generic_metric_is_zero():
    spec = parse_metric(random_curved_metric_text(3, np.random.default_rng(103)))
    report = homogeneity(spec, BOX3, seed=7)
    assert report.rank == 3
    assert report.homogeneity == 0


def test_homogeneity_deterministic(sphere2):
    a = homogeneity(sphere2, BOX2, seed=42)
    b = homogeneity(sphere2, BOX2, seed=42)
    assert a == b
    c = homogeneity(sphere2, BOX2, seed=43)
    assert c.points != a.points


def test_homogeneity_skips_singular_points():
    # chart valid for x > 0 only; samples with x < 0 raise DomainError and
    # are recorded as skips without lowering the consensus
    spec = parse_metric("dim=2; coords=[x,y]; g[1,1]=1 + log(x)^2; g[2,2]=1")
    report = homogeneity(spec, [(-1.0, 1.0), (0.0, 1.0)], seed=11, n_samples=30)
    assert report.skipped
    assert report.points
    assert len(report.points) + len(report.skipped) == 30
    assert all(p[0] < 0 for p, _ in report.skipped)
    assert any("skipped" in w for w in report.warnings)


def test_homogeneity_all_points_singular():
    spec = parse_metric("dim=2; coords=[x,y]; g[1,1]=0; g[2,2]=1")
    with pytest.raises(AllPointsSingularError) as info:
        homogeneity(spec, [(0.0, 1.0), (0.0, 1.0)], seed=3)
    # the skipped points are printed as plain floats
    assert "at point (0." in str(info.value) and "np.float64" not in str(info.value)


def test_homogeneity_ppwave_regularity_warning(ppwave):
    box = [(-0.5, 0.5), (-1.0, 1.0), (0.5, 1.5), (0.2, 1.2)]
    report = homogeneity(ppwave, box, seed=7)
    assert report.rank == 0
    assert report.invariant_max < 1e-10
    assert report.riemann_max > 0.1
    assert report.regularity_warning
    assert not report.claims_killing_fields
    assert not report.is_riemannian
    assert any("not separated" in w for w in report.warnings)


def test_rank_monotone_in_order():
    for seed in (103, 107):
        spec = parse_metric(random_curved_metric_text(3, np.random.default_rng(seed)))
        r2 = homogeneity(spec, BOX3, seed=5, max_order=2)
        r3 = homogeneity(spec, BOX3, seed=5, max_order=3)
        assert r2.rank <= r3.rank


def test_rank_monotone_on_symmetric_metric(revolution):
    r2 = homogeneity(revolution, [(0.0, 3.0), (0.0, 3.0)], seed=5, max_order=2)
    r3 = homogeneity(revolution, [(0.0, 3.0), (0.0, 3.0)], seed=5, max_order=3)
    assert r2.rank <= r3.rank
    assert r3.homogeneity == 1  # extra invariants cannot break the symmetry


def test_homogeneity_diffeo_stable():
    coords = ["x", "y", "z"]
    spec = parse_metric(random_curved_metric_text(3, np.random.default_rng(106)))
    base = homogeneity(spec, BOX3, seed=9)
    for phi_text in (
        ["x + 0.1*y^2", "y + 0.05*x*z", "z"],
        ["1.2*x + 0.3*y", "y - 0.1*z", "0.9*z + 0.2*x"],
        ["x + 0.05*x^2", "y + 0.1*x*z", "z - 0.04*y^2"],
    ):
        phi = [parse_expression(t, coords) for t in phi_text]
        pulled = pullback_metric(spec, phi)
        report = homogeneity(pulled, [(-0.3, 0.3)] * 3, seed=9)
        assert report.rank == base.rank


def test_declared_symmetry_bounds_rank():
    # components independent of k coordinates: rank m <= n - k
    one_sym = parse_metric(
        "dim=3; coords=[x,y,z];"
        "g[1,1]=exp(0.7*x + 0.2*z^2); g[2,2]=1 + 0.5*x^2 + 0.3*x*z;"
        "g[3,3]=exp(0.4*z - 0.6*x); g[1,3]=0.1*x*z"
    )
    report = homogeneity(one_sym, BOX3, seed=13, max_order=3)
    assert report.rank <= 2
    two_sym = parse_metric(
        "dim=3; coords=[x,y,z];"
        "g[1,1]=exp(0.9*x); g[2,2]=1 + 0.5*x^2; g[3,3]=1/(1 + 0.3*x^2)"
    )
    report = homogeneity(two_sym, BOX3, seed=13, max_order=3)
    assert report.rank <= 1


def test_homogeneous_test_verdicts(sphere2, hyperbolic2, revolution):
    assert homogeneous_test(sphere2, BOX2, seed=3)
    assert homogeneous_test(hyperbolic2, BOX2_UPPER, seed=3)
    assert not homogeneous_test(revolution, [(0.0, 3.0), (0.0, 3.0)], seed=3)


# the sampling boxes of scripts/symmetry_survey.py, inside each chart
SURVEY_BOXES = {
    "flat2": [(-1.0, 1.0)] * 2,
    "flat3": [(-1.0, 1.0)] * 3,
    "hyperbolic2": BOX2_UPPER,
    "ppwave": [(-0.5, 0.5), (-1.0, 1.0), (0.5, 1.5), (0.2, 1.2)],
    "revolution": [(0.0, 3.0), (0.0, 3.0)],
    "schwarzschild": [(0.0, 1.0), (3.0, 6.0), (0.6, 2.4), (0.0, 3.0)],
    "sphere2": BOX2,
    "sphere3": [(0.6, 2.4), (0.6, 2.4), (0.0, 3.0)],
}


def test_homogeneous_test_is_consensus_rank_0():
    # the revolution metric times 1e8 has rank 1, as unscaled, but invariant
    # gradients of only about 1e-8
    cases = [
        (parse_metric((METRICS_DIR / f"{name}.metric").read_text()), box)
        for name, box in SURVEY_BOXES.items()
    ]
    cases.append((
        parse_metric("dim=2; coords=[x,y]; g[1,1]=1e8; g[2,2]=1e8*(2 + sin(x))^2"),
        SURVEY_BOXES["revolution"],
    ))
    for seed in (1, 3, 7):
        for spec, box in cases:
            report = homogeneity(spec, box, n_samples=20, max_order=3, seed=seed)
            assert bool(homogeneous_test(spec, box, seed=seed)) == (report.rank == 0)
    assert homogeneity(*cases[-1], max_order=3, seed=3).rank == 1


def test_homogeneous_test_flags_pseudo_riemannian(ppwave):
    box = [(-0.5, 0.5), (-1.0, 1.0), (0.5, 1.5), (0.2, 1.2)]
    verdict = homogeneous_test(ppwave, box, seed=3, order_bound=2)
    assert verdict.necessary_condition_only
    riem = homogeneous_test(
        parse_metric("dim=2; coords=[x,y]; g[1,1]=1; g[2,2]=sin(x)^2"),
        BOX2, seed=3,
    )
    assert not riem.necessary_condition_only


def test_homogeneity_rel_tol_governs_the_tresse_frame():
    spec = parse_metric(random_curved_metric_text(3, np.random.default_rng(7)))
    box = [(0.2, 0.4), (-0.3, -0.1), (0.3, 0.5)]

    def frame_warnings(**tol):
        report = homogeneity(spec, box, n_samples=2, max_order=3, seed=1, **tol)
        return [w for w in report.warnings if "SingularFrame" in w]

    assert frame_warnings() == []
    assert frame_warnings(rel_tol=0.9)


def test_box_validation(sphere2):
    with pytest.raises(ValueError):
        homogeneity(sphere2, [(0.5, 2.5)], seed=1)
    with pytest.raises(ValueError):
        homogeneity(sphere2, [(2.5, 0.5), (0.0, 1.0)], seed=1)
