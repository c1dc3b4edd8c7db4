"""Trace invariants, Weyl operators, Tresse frame, higher-order contractions."""

import dataclasses
import itertools
import math
import types

import numpy as np
import pytest

from metricinv import curvature, invariants
from metricinv.counting import delta_count, s_count, weyl_trace_count
from metricinv.curvature import TensorComponents, curvature_point
from metricinv.errors import (
    DomainError,
    InsufficientOrderError,
    SingularFrameError,
    UnsupportedDimensionError,
)
from metricinv.invariants import (
    TresseFrame,
    exterior_square,
    higher_invariants,
    invariant_sample,
    invariant_vector,
    required_jet_order,
    ricci_traces,
    surface_invariant_pair,
    tresse_frame,
    weyl_bivector_operator,
    weyl_traces,
)
from metricinv.jets import _context, contract
from metricinv.metriclang import eval_expr, parse_expression, parse_metric, pullback_metric
from metricinv.symmetry import numerical_rank

from conftest import (
    SCHWARZSCHILD,
    jet_identity,
    random_curved_metric_text,
    random_polynomial_metric_text,
)
import sympy_oracle

# Bivector-operator convention: Kretschmann = 4 * Tr(W_op^2) for Ricci-flat
# metrics. Fixed once against the symbolic oracle (see the Schwarzschild
# test below) and frozen here.
KRETSCHMANN_PER_WEYL_TRACE = 4.0


def test_ricci_traces_unit_3_sphere(sphere3):
    cp = curvature_point(sphere3, (1.1, 0.8, 0.3), 2)
    traces = ricci_traces(cp.ricci_op)
    assert traces[:, 0] == pytest.approx([6.0, 12.0, 24.0], rel=1e-11)


def test_ricci_traces_flat(flat3):
    cp = curvature_point(flat3, (0.2, 0.1, -0.4), 2)
    assert np.max(np.abs(ricci_traces(cp.ricci_op)[:, 0])) < 1e-14


def test_ricci_traces_ppwave_nilpotent():
    # non-vacuum pp-wave: H not harmonic, so Ric != 0, yet A is nilpotent
    # (A = g^{-1} Ric maps everything onto the null direction) so all
    # power traces still vanish despite nonzero curvature
    spec = parse_metric(
        "dim=4; coords=[u,v,x,y]; signature=[-1,+1,+1,+1];"
        "g[1,1] = (x^2 + y^2)*exp(u); g[1,2]=1; g[2,2]=0; g[3,3]=1; g[4,4]=1"
    )
    cp = curvature_point(spec, (0.1, 0.5, 0.7, 0.3), 2)
    assert cp.ricci.max_abs() > 0.1
    a = cp.ricci_op.values()
    assert np.max(np.abs(a @ a)) < 1e-13
    assert np.max(np.abs(ricci_traces(cp.ricci_op)[:, 0])) < 1e-13
    assert cp.riemann_lower.max_abs() > 0.1


def test_weyl_traces_empty_for_n3(sphere3):
    cp = curvature_point(sphere3, (1.1, 0.8, 0.3), 2)
    labels, values = weyl_traces(cp, 0)
    assert labels == [] and values.shape == (0, 1)


def test_weyl_traces_unsupported_for_n2(sphere2):
    cp = curvature_point(sphere2, (1.1, 0.4), 2)
    with pytest.raises(UnsupportedDimensionError):
        weyl_traces(cp, 0)


def test_weyl_traces_ricci_flat_survivors(schwarzschild):
    cp = curvature_point(schwarzschild, (0.0, 3.0, 1.0, 0.5), 2)
    labels, values = weyl_traces(cp, 0)
    by_label = dict(zip(labels, values[:, 0]))
    # A = 0: every trace with a+c > 0 dies, the pure Weyl powers survive
    for label, value in by_label.items():
        a, b, c = eval(label[1:])
        if a + c > 0:
            assert abs(value) < 1e-12, label
    assert abs(by_label["J(0,2,0)"]) > 1e-4


def test_weyl_trace_matches_kretschmann(schwarzschild):
    point = (0.0, 3.0, 1.0, 0.5)
    cp = curvature_point(schwarzschild, point, 2)
    labels, values = weyl_traces(cp, 0)
    tr_w2 = dict(zip(labels, values[:, 0]))["J(0,2,0)"]
    # Schwarzschild at M=1: Kretschmann = 48 M^2 / r^6
    assert KRETSCHMANN_PER_WEYL_TRACE * tr_w2 == pytest.approx(48 / 3.0**6, rel=1e-12)
    # independent symbolic-oracle route for the same scalar
    coords, g = sympy_oracle.read_metric(SCHWARZSCHILD)
    k_oracle = sympy_oracle.kretschmann(coords, g, point)
    assert KRETSCHMANN_PER_WEYL_TRACE * tr_w2 == pytest.approx(k_oracle, rel=1e-10)


def weyl_operator_trace(a_op, w_lower, g_inv, a, b, c):
    """Tr of Lambda^2(A)^a composed with W^b composed with Lambda^2(A)^c.

    The oracle for `weyl_traces`: an explicit triple matrix product, where
    the batch path relies on the cyclic trace identity.
    """
    n = a_op.n
    order = min(a_op.order, w_lower.order, g_inv.order)
    ctx = _context(n, order)
    w_op = weyl_bivector_operator(w_lower.truncate(order), g_inv.truncate(order))
    lam = exterior_square(a_op.truncate(order).coeffs, ctx)

    def mat_pow(mat, e):
        out = jet_identity(mat.shape[0], ctx)
        for _ in range(e):
            out = contract(out, mat, ctx)
        return out

    total = contract(contract(mat_pow(lam, a), mat_pow(w_op, b), ctx), mat_pow(lam, c), ctx)
    diag = np.arange(total.shape[0])
    return total[diag, diag].sum(axis=0)


def full_raise_bivector_operator(w_lower, g_inv):
    """The reference for `weyl_bivector_operator`: raise both slots of all
    n^4 components W_ijab, then keep the pair rows and columns."""
    order = min(w_lower.order, g_inv.order)
    w = w_lower.truncate(order)
    ginv = g_inv.truncate(order).coeffs
    half = contract(ginv, w.coeffs.transpose(1, 0, 2, 3, 4), w.ctx)
    up2 = contract(ginv, half.transpose(1, 0, 2, 3, 4), w.ctx)
    first, second = np.triu_indices(w.n, k=1)
    return up2[first, second][:, first, second]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_weyl_bivector_operator_is_the_full_raise_bitwise(n):
    rng = np.random.default_rng(100 + n)
    for order in range(3):
        size = _context(n, order).size
        w_lower = TensorComponents(("d",) * 4, n, order, rng.normal(size=(n,) * 4 + (size,)))
        g_inv = TensorComponents(("u", "u"), n, order, rng.normal(size=(n, n, size)))
        w_op = weyl_bivector_operator(w_lower, g_inv)
        assert w_op.shape == (n * (n - 1) // 2,) * 2 + (size,)
        assert np.array_equal(w_op, full_raise_bivector_operator(w_lower, g_inv))


def test_weyl_traces_block_matches_labels_past_the_pair_count():
    # for n >= 13 the (a+c, b) classes run out before the cut at
    # weyl_trace_count(n); every row of the block must still be a labelled,
    # written trace. Order-0 random tensors stand in for a 13-D metric.
    n = 13
    rng = np.random.default_rng(13)
    n_biv = n * (n - 1) // 2
    g_inv = TensorComponents(("u", "u"), n, 0, np.eye(n)[..., None])
    a_op = TensorComponents(("u", "d"), n, 0, rng.normal(size=(n, n, 1)) / n)
    w_lower = TensorComponents(("d",) * 4, n, 0, rng.normal(size=(n,) * 4 + (1,)) / n_biv)
    cp = types.SimpleNamespace(n=n, weyl=w_lower, g_inv=g_inv, ricci_op=a_op)
    labels, values = weyl_traces(cp, 0)
    assert (2 * n + 1) * n_biv < weyl_trace_count(n)
    assert len(labels) == len(values) == (2 * n + 1) * n_biv - 1  # all but Tr(W)
    assert len(set(labels)) == len(labels)
    a, b, c = (int(e) for e in labels[-1][len("J("):-1].split(","))
    explicit = weyl_operator_trace(a_op, w_lower, g_inv, a, b, c)[0]
    assert values[-1, 0] == pytest.approx(explicit, rel=1e-8)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_weyl_trace_cyclic_identity(n):
    # dedup correctness: Tr(L^a W^b L^c) only depends on (a+c, b)
    rng = np.random.default_rng(61)
    spec = parse_metric(random_polynomial_metric_text(n, rng, scale=0.35))
    cp = curvature_point(spec, (0.2, -0.1, 0.3, 0.15, -0.25, 0.05)[:n], 2)
    args = (cp.ricci_op.truncate(0), cp.weyl.truncate(0), cp.g_inv.truncate(0))
    t121 = weyl_operator_trace(*args, 1, 2, 1)[0]
    t211 = weyl_operator_trace(*args, 2, 2, 0)[0]
    t112 = weyl_operator_trace(*args, 0, 2, 2)[0]
    assert abs(t121) > 1e-10  # non-degenerate check
    assert t121 == pytest.approx(t211, rel=1e-10)
    assert t121 == pytest.approx(t112, rel=1e-10)
    # every emitted class representative agrees with the explicit product
    labels, values = weyl_traces(cp, 0)
    assert len(labels) == weyl_trace_count(n)
    assert "J(0,1,0)" not in labels  # Tr(W) = 0: W is trace-free
    for label, value in zip(labels, values):
        a, b, c = (int(e) for e in label[len("J("):-1].split(","))
        explicit = weyl_operator_trace(*args, a, b, c)[0]
        assert value[0] == pytest.approx(explicit, rel=1e-10), label


def test_tresse_frame_singular_on_sphere(sphere2):
    cp = curvature_point(sphere2, (1.1, 0.4), 5)
    with pytest.raises(SingularFrameError) as info:
        tresse_frame(surface_invariant_pair(cp), cp.scalar.order - 1)
    assert info.value.rank == 0


def test_tresse_frame_rank_one_on_revolution(revolution):
    # invariants depend on x only: Jacobian rank 1
    cp = curvature_point(revolution, (0.7, 0.2), 5)
    with pytest.raises(SingularFrameError) as info:
        tresse_frame(surface_invariant_pair(cp), cp.scalar.order - 1)
    assert info.value.rank == 1


def test_tresse_frame_invertible_generic():
    rng = np.random.default_rng(7)
    spec = parse_metric(random_curved_metric_text(3, rng))
    cp = curvature_point(spec, (0.3, -0.2, 0.4), 3)
    base = ricci_traces(cp.ricci_op)
    frame = tresse_frame(base, cp.ricci_op.order)
    jac = base[:, 1:4]  # jac[i, m] = d_m I_i
    assert np.max(np.abs(jac @ frame.frame.values() - np.eye(3))) < 1e-8
    assert frame.condition_number < 1e6


def test_every_block_is_a_float_array_of_jet_rows(sphere2, sphere3, schwarzschild):
    def check(block, rows, n, order):
        assert isinstance(block, np.ndarray) and block.dtype == np.float64
        assert block.shape == (rows, _context(n, order).size)

    cp = curvature_point(sphere2, (1.1, 0.4), 4)
    check(surface_invariant_pair(cp), 2, 2, cp.scalar.order - 1)
    for spec, point in ((sphere3, (1.1, 0.8, 0.3)), (schwarzschild, (0.0, 3.0, 1.0, 0.5))):
        cp = curvature_point(spec, point, 3)
        n = spec.dim
        check(ricci_traces(cp.ricci_op), n, n, cp.ricci_op.order)
        check(weyl_traces(cp, 1)[1], weyl_trace_count(n), n, 1)
    cp = curvature_point(sphere3, (1.1, 0.8, 0.3), 4)
    for with_gradients in (False, True):
        _, block = higher_invariants(cp, _unit_frame(3, 1), 3, with_gradients)
        check(block, 3 * 6**4, 3, int(with_gradients))


def _unit_frame(n, order):
    """Coordinate frame stand-in for metrics whose Tresse frame is singular."""
    eye = jet_identity(n, _context(n, order))
    return TresseFrame(frame=TensorComponents(("u", "d"), n, order, eye), condition_number=1.0)


def test_higher_invariants_vanish_constant_curvature(sphere3):
    # symmetric space: nabla R = 0, so every order-3 contraction dies no
    # matter which frame it is taken against (the metric's own Tresse
    # frame is singular here, so contract with the coordinate frame)
    cp3 = curvature_point(sphere3, (1.1, 0.8, 0.3), 3)
    labels, values = higher_invariants(cp3, _unit_frame(3, 2), 3)
    assert len(labels) == 3 * (2 * 3) ** 4
    assert np.max(np.abs(values[:, 0])) < 1e-9


def test_higher_invariants_vanish_flat(flat3):
    cp = curvature_point(flat3, (0.0, 0.0, 0.0), 3)
    _, values = higher_invariants(cp, _unit_frame(3, 2), 3)
    assert np.max(np.abs(values[:, 0])) < 1e-14


def test_higher_invariants_match_explicit_contraction():
    """H{k}[i..|s..|j..] is nabla^{k-2} R with frame vector i on each
    derivative slot and A^s applied to frame vector j on each curvature slot."""
    spec = parse_metric(random_curved_metric_text(3, np.random.default_rng(111)))
    cp = curvature_point(spec, (0.3, -0.1, 0.2), 4)
    frame = tresse_frame(ricci_traces(cp.ricci_op), cp.ricci_op.order)
    f = frame.frame.values()  # f[m, i]: m-th component of frame vector i
    a = cp.ricci_op.values()
    for k in (3, 4):
        labels, values = higher_invariants(cp, frame, k)
        assert len(labels) == 3 ** (k - 2) * 6**4
        t = cp.nabla_r[k - 2].values()
        expected = []
        for label in labels:
            iword, sword, jword = label[len("H3["):-1].split("|")
            vectors = [f[:, int(i) - 1] for i in iword] + [
                np.linalg.matrix_power(a, int(s)) @ f[:, int(j) - 1]
                for s, j in zip(sword, jword)
            ]
            x = t
            for v in vectors:
                x = np.tensordot(v, x, axes=(0, 0))
            expected.append(float(x))
        expected = np.array(expected)
        got = values[:, 0]
        assert np.max(np.abs(expected)) > 1e-3  # a non-degenerate check
        assert np.max(np.abs(got - expected)) < 1e-10 * np.max(np.abs(expected))


@pytest.fixture(scope="module")
def regular_frame_point():
    """A generic 3-metric at jet order 5 with its Tresse frame: enough for
    H3 and H4 with gradients."""
    spec = parse_metric(random_curved_metric_text(3, np.random.default_rng(111)))
    cp = curvature_point(spec, (0.3, -0.1, 0.2), 5)
    return cp, tresse_frame(ricci_traces(cp.ricci_op), cp.ricci_op.order)


@pytest.mark.parametrize("max_order, with_gradients", [(3, False), (3, True), (4, True)])
def test_invariant_vector_values_are_views_of_block_rows(max_order, with_gradients):
    spec = parse_metric(random_curved_metric_text(3, np.random.default_rng(111)))
    point = (0.3, -0.1, 0.2)
    iv = invariant_vector(spec, point, max_order, with_gradients)
    assert not iv.warnings
    ctx = _context(3, int(with_gradients))
    # the base invariants, then one block per order k = 3..max_order
    sizes = [3] + [3 ** (k - 2) * 6**4 for k in range(3, max_order + 1)]
    assert len(iv) == sum(sizes)
    assert isinstance(iv.values, np.ndarray) and iv.values.dtype == np.float64
    assert iv.values.shape == (sum(sizes), ctx.size)
    assert not iv.values.flags.writeable
    order = required_jet_order(3, max_order, with_gradients)
    cp = curvature_point(spec, point, order, s_max=max_order - 2)
    base = ricci_traces(cp.ricci_op)
    frame = tresse_frame(base, cp.ricci_op.order)
    blocks = [base[:, : ctx.size]] + [
        higher_invariants(cp, frame, k, with_gradients)[1] for k in range(3, max_order + 1)
    ]
    start = 0
    for size, block in zip(sizes, blocks):
        rows = iv.values[start : start + size]
        assert rows.tobytes() == block.tobytes()
        start += size


def _explicit_higher_labels(n, k):
    labels = []
    for iword in itertools.product(range(1, n + 1), repeat=k - 2):
        slots = itertools.product((0, 1), range(1, n + 1))
        for word in itertools.product(list(slots), repeat=4):
            i_text = "".join(str(i) for i in iword)
            s_text = "".join(str(s) for s, _ in word)
            j_text = "".join(str(j) for _, j in word)
            labels.append(f"H{k}[{i_text}|{s_text}|{j_text}]")
    return labels


def test_higher_invariant_labels_are_built_per_label_and_copied(regular_frame_point):
    cp, frame = regular_frame_point
    for k in (3, 4):
        expected = _explicit_higher_labels(3, k)
        labels, values = higher_invariants(cp, frame, k)
        assert labels == expected and len(values) == len(expected)
        labels[0] = "changed"
        labels.append("extra")
        again, _ = higher_invariants(cp, frame, k)
        assert again == expected


def test_invariant_vector_values_are_read_only():
    spec = parse_metric(random_curved_metric_text(3, np.random.default_rng(111)))
    iv = invariant_vector(spec, (0.3, -0.1, 0.2), max_order=3, with_gradients=True)
    before = iv.values.copy()
    with pytest.raises(ValueError):
        iv.values[3 + 5, 0] = 0.0
    with pytest.raises(ValueError):
        iv.values[3 + 17] *= 2.0
    assert iv.values.tobytes() == before.tobytes()


def test_invariant_vector_hands_out_copies():
    spec = parse_metric(random_curved_metric_text(3, np.random.default_rng(111)))
    iv = invariant_vector(spec, (0.3, -0.1, 0.2), max_order=3, with_gradients=True)
    before = iv.values.copy()
    values, jac = iv.values_array(), iv.jacobian()
    assert values.tobytes() == before[:, 0].tobytes()
    assert jac.tobytes() == before[:, 1:].tobytes()
    values[:] = 0.0
    jac[:] = 0.0
    assert iv.values.tobytes() == before.tobytes()
    assert iv.values_array().tobytes() == before[:, 0].tobytes()


def test_invariant_vector_without_gradients_has_no_jacobian():
    spec = parse_metric(random_curved_metric_text(3, np.random.default_rng(111)))
    iv = invariant_vector(spec, (0.3, -0.1, 0.2), max_order=3)
    assert iv.values.shape == (len(iv), 1)
    with pytest.raises(InsufficientOrderError):
        iv.jacobian()


def test_higher_invariants_reject_a_non_finite_block(regular_frame_point):
    cp, frame = regular_frame_point
    f = frame.frame
    big = TensorComponents(f.variance, f.n, f.order, f.coeffs * 1e200)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError, match="H3"):
        higher_invariants(cp, dataclasses.replace(frame, frame=big), 3)


def test_invariant_sample_rejects_non_finite_base_invariants(monkeypatch, sphere3):
    original = invariants.ricci_traces

    def overflowing(a_op):
        return np.full_like(original(a_op), np.inf)

    monkeypatch.setattr(invariants, "ricci_traces", overflowing)
    with pytest.raises(DomainError, match="base invariants"):
        invariant_sample(sphere3, (1.1, 0.8, 0.3), max_order=3, with_gradients=True)


def test_singular_frame_never_builds_nabla_r(monkeypatch, flat3):
    calls = []
    original = curvature.covariant_derivative

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(curvature, "covariant_derivative", counted)
    iv = invariant_vector(flat3, (0.5, -0.5, 0.25), max_order=3)
    assert iv.warnings and not calls
    # a regular frame does read nabla R, so the counter is live
    spec = parse_metric(random_curved_metric_text(3, np.random.default_rng(7)))
    iv = invariant_vector(spec, (0.3, -0.2, 0.4), max_order=3)
    assert not iv.warnings and len(calls) == 1


def _jet_coefficient_metric(theta, monos, n=3):
    """Metric text whose components are the identity plus given coefficients."""
    coords = ["x", "y", "z"][:n]
    lines = [f"dim = {n}", f"coords = [{', '.join(coords)}]"]
    idx = 0
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            terms = " + ".join(
                f"{float(theta[idx + m])!r}*{mono}" for m, mono in enumerate(monos)
            )
            idx += len(monos)
            head = "1 + " if i == j else "0 + "
            lines.append(f"g[{i},{j}] = {head}{terms}")
    return "\n".join(lines)


def test_higher_invariants_jet_space_rank():
    """The order-3 block contains at least delta_3 = 15 functionally
    independent invariants, read as the rank of the finite-difference
    Jacobian with respect to the metric's 3-jet coefficients."""
    assert delta_count(3, 3) == 15
    coords = ["x", "y", "z"]
    monos = coords + [f"{a}*{b}" for i, a in enumerate(coords) for b in coords[i:]]
    monos += [
        f"{a}*{b}*{c}"
        for i, a in enumerate(coords)
        for j, b in enumerate(coords[i:], start=i)
        for c in coords[j:]
    ]
    n_theta = 6 * len(monos)
    rng = np.random.default_rng(17)
    theta0 = rng.uniform(-0.6, 0.6, n_theta)
    point = (0.0, 0.0, 0.0)

    def emit(theta):
        spec = parse_metric(_jet_coefficient_metric(theta, monos))
        iv = invariant_vector(spec, point, max_order=3)
        return iv.values_array()

    directions = rng.choice(n_theta, size=44, replace=False)
    h = 1e-5
    cols = []
    for r in directions:
        tp, tm = theta0.copy(), theta0.copy()
        tp[r] += h
        tm[r] -= h
        cols.append((emit(tp) - emit(tm)) / (2 * h))
    jac = np.array(cols).T  # invariants x directions
    sv = np.linalg.svd(jac, compute_uv=False)
    # at order <= 3 only s_3 = 18 independent invariants exist; the FD
    # spectrum shows the corresponding sharp gap
    rank = int(np.sum(sv > 1e-6 * sv[0]))
    assert rank >= 18
    assert s_count(3, 3) == 18


def test_invariant_vector_n3_k2_is_exactly_the_traces():
    rng = np.random.default_rng(19)
    spec = parse_metric(random_curved_metric_text(3, rng))
    iv = invariant_vector(spec, (0.2, 0.1, -0.3), max_order=2)
    assert iv.labels == ("I1", "I2", "I3")


def test_invariant_vector_n4_k2_has_s2_labels(flat4):
    iv = invariant_vector(flat4, (0.1, 0.2, 0.3, 0.4), max_order=2)
    assert len(iv) == s_count(4, 2) == 14
    assert np.max(np.abs(iv.values_array())) == 0.0


def test_invariant_vector_flat_all_zero(flat3):
    iv = invariant_vector(flat3, (0.5, -0.5, 0.25), max_order=3)
    assert np.max(np.abs(iv.values_array())) < 1e-14
    assert iv.warnings  # frame is singular on flat space


def test_invariant_vector_labels_unique():
    rng = np.random.default_rng(53)
    spec = parse_metric(random_curved_metric_text(3, rng))
    iv = invariant_vector(spec, (0.2, -0.3, 0.1), max_order=3)
    assert len(set(iv.labels)) == len(iv.labels)
    assert len(iv.labels) == len(iv.values)


@pytest.mark.parametrize("max_order", [3, 4])
def test_invariant_vector_gradient_plumbing(max_order):
    # fixture chosen with O(1)-O(10) values so the FD oracle is clean
    spec = parse_metric(random_curved_metric_text(3, np.random.default_rng(111)))
    point = (0.3, -0.1, 0.2)
    iv = invariant_vector(spec, point, max_order=max_order, with_gradients=True)
    jac = iv.jacobian()
    assert jac.shape == (len(iv), 3)
    assert np.max(np.abs(iv.values_array())) < 100
    # cross-check the x-column by central differences
    h = 1e-6
    up = invariant_vector(spec, (point[0] + h, point[1], point[2]), max_order=max_order)
    dn = invariant_vector(spec, (point[0] - h, point[1], point[2]), max_order=max_order)
    fd = (up.values_array() - dn.values_array()) / (2 * h)
    scale = np.maximum(1.0, np.abs(fd))
    assert np.max(np.abs(jac[:, 0] - fd) / scale) < 1e-6


DIFFEO_SEEDS = (103, 106, 107, 111, 112)
DIFFEOS = (
    ["x + 0.1*y^2", "y + 0.05*x*z", "z"],
    ["1.2*x + 0.3*y", "y - 0.1*z", "0.9*z + 0.2*x"],
    ["x + 0.05*x^2", "y + 0.1*x*z", "z - 0.04*y^2"],
)


def test_diffeomorphism_invariance():
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
            assert err < 1e-7, f"seed {seed}: {err:.3e}"


def test_killing_field_annihilates_invariants():
    # no y-dependence anywhere: d/dy of every invariant must vanish
    spec = parse_metric(
        "dim=3; coords=[x,y,z];"
        "g[1,1]=exp(0.7*x + 0.2*z^2); g[2,2]=1 + 0.5*x^2 + 0.3*x*z;"
        "g[3,3]=exp(0.4*z - 0.6*x); g[1,3]=0.1*x*z"
    )
    rng = np.random.default_rng(31)
    for _ in range(3):
        point = tuple(rng.uniform(-0.4, 0.4, 3))
        iv = invariant_vector(spec, point, max_order=3, with_gradients=True)
        jac = iv.jacobian()
        scale = max(1.0, float(np.max(np.abs(jac))))
        assert np.max(np.abs(jac[:, 1])) / scale < 1e-9


def test_functional_rank_saturates_at_n():
    # restricted to the manifold, at most n invariants stay independent
    rng = np.random.default_rng(41)
    spec = parse_metric(random_curved_metric_text(3, rng))
    for k in (2, 3):
        assert s_count(3, k) >= 3
        iv = invariant_vector(spec, (0.3, -0.2, 0.4), max_order=k, with_gradients=True)
        sv = np.linalg.svd(iv.jacobian(), compute_uv=False)
        assert numerical_rank(sv) == min(3, s_count(3, k)) == 3


def test_surface_pair_on_revolution(revolution):
    # Gauss curvature sin x/(2+sin x); scal = 2K; oracle check
    x0, y0 = 0.9, 0.3
    cp = curvature_point(revolution, (x0, y0), 3)
    pair = surface_invariant_pair(cp)
    expect_k = math.sin(x0) / (2 + math.sin(x0))
    assert pair[0, 0] == pytest.approx(2 * expect_k, rel=1e-11)
    coords, g = sympy_oracle.read_metric(
        "dim=2; coords=[x,y]; g[1,1]=1; g[2,2]=(2 + sin(x))^2"
    )
    assert sympy_oracle.gauss_curvature(coords, g, (x0, y0)) == pytest.approx(
        expect_k, rel=1e-10
    )
