"""Scalar differential invariants of a metric at a point.

Order 2: power traces of the Ricci operator A (n of them), and for n >= 4
the traces of Lambda^2(A)^a W^b Lambda^2(A)^c, W the Weyl map on Lambda^2
TM, raised on the bivector pairs only. Order k >= 3: the (k-2)-fold
covariant derivative of the curvature fully contracted against the frame
dual to the differentials of the power traces, each curvature slot taking
a frame vector or A applied to one.

For n = 2 the power traces degenerate (A is scalar), so the standard
substitute pair {scalar curvature, squared gradient of the scalar
curvature} is used instead; it feeds the same frame machinery.

Each block of invariants is one `(rows, S)` float array, a row of jet
coefficients per invariant. Tensors, the bivector operators and the frame
are dense jet-coefficient arrays too, and every product among them goes
through `jets.cauchy_product`. `invariant_sample` stacks the blocks into
one read-only array at jet order 0 or 1: order 1 carries the invariants'
gradients so the symmetry module can assemble Jacobians.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .curvature import (
    DEFAULT_FRAME_RTOL,
    CurvaturePoint,
    TensorComponents,
    _jet_matrix_inverse,
    _require_finite,
    curvature_point,
    numerical_rank,
)
from .errors import (
    InsufficientOrderError,
    ShapeMismatchError,
    SingularFrameError,
    UnsupportedDimensionError,
)
from .jets import _context, _JetContext, cauchy_product, contract, partials
from .metriclang import MetricSpec


# -- order-2 invariants ----------------------------------------------------------


def ricci_traces(a_op: TensorComponents) -> np.ndarray:
    """Power traces of the Ricci operator, Tr(A^i) for i = 1..n, as (n, S) rows."""
    diag = np.arange(a_op.n)
    power = a_op.coeffs
    traces = [power[diag, diag].sum(axis=0)]
    for _ in range(a_op.n - 1):
        power = contract(power, a_op.coeffs, a_op.ctx)
        traces.append(power[diag, diag].sum(axis=0))
    return np.array(traces)


def surface_invariant_pair(curv: CurvaturePoint) -> np.ndarray:
    """The n = 2 substitute pair: scalar curvature and |grad scal|^2_g.

    A is scal/2 times the identity in two dimensions, so the power traces
    are mutually dependent; this pair restores two generically independent
    functions at the cost of one extra derivative order. Both rows are at
    one order below the scalar curvature's.
    """
    scal = curv.scalar
    if scal.order < 1:
        raise InsufficientOrderError("surface pair needs the scalar at order >= 1")
    ginv = curv.g_inv.truncate(scal.order - 1)
    ctx = ginv.ctx
    d_scal = partials(scal.coeffs, scal.ctx)
    norm = cauchy_product(
        cauchy_product(ginv.coeffs, d_scal[:, None], ctx), d_scal[None, :], ctx
    ).sum(axis=(0, 1))
    return np.stack([scal.truncate(ginv.order).coeffs, norm])


def weyl_bivector_operator(
    w_lower: TensorComponents, g_inv: TensorComponents
) -> np.ndarray:
    """The Weyl map on Lambda^2 TM as a C(n,2) x C(n,2) jet matrix.

    Row/column labels are index pairs (i < j); the entry at (cd, ab) is
    g^{ci} g^{dj} W_{ij ab}. Only the pair columns ab are raised, so each
    contraction runs over n^2 C(n,2) entries, not n^4. Returned as
    coefficients of shape (m, m, S).
    """
    order = min(w_lower.order, g_inv.order)
    w = w_lower.truncate(order)
    ginv = g_inv.truncate(order).coeffs
    first, second = np.triu_indices(w.n, k=1)  # the pairs (i < j)
    cols = w.coeffs[:, :, first, second]  # W_ij(ab) at [i, j, ab]
    half = contract(ginv, cols.transpose(1, 0, 2, 3), w.ctx)  # g^{dj} W_ij(ab) at [d, i, ab]
    up2 = contract(ginv, half.transpose(1, 0, 2, 3), w.ctx)  # W^{cd}_(ab)
    return up2[first, second]


def exterior_square(a_mat: np.ndarray, ctx: _JetContext) -> np.ndarray:
    """Lambda^2 of an endomorphism: (u ^ v) -> (Au) ^ (Av) on pair basis.

    `a_mat` holds (n, n, S) jet coefficients; the result is (m, m, S).
    """
    first, second = np.triu_indices(a_mat.shape[0], k=1)

    def block(rows, cols):
        return a_mat[np.ix_(rows, cols)]

    return cauchy_product(block(first, first), block(second, second), ctx) - cauchy_product(
        block(first, second), block(second, first), ctx
    )


def weyl_traces(curv: CurvaturePoint, order: int) -> tuple[list[str], np.ndarray]:
    """Traces Tr(W^{a,b,c}) of the bivector operators, as rows of order <= `order`.

    Powers of A act on Lambda^2 TM through the exterior square, under
    which Lambda^2(A)^a Lambda^2(A)^c = Lambda^2(A)^{a+c}; the cyclic
    trace identity then makes the trace depend on (a+c, b) only, so one
    canonical representative with a <= c is emitted per class, ordered by
    (a+c, b), with a, c <= n. Tr(W) is left out, since W is trace-free.
    The list is cut at the number of independent order-2 invariants beyond
    the power traces, (n+2)(n+1)n(n-3)/12; powers are formed only as far
    as the cut reaches. A class with a + c = 0 is the diagonal sum of W^b,
    as `ricci_traces` reads Tr(A^i), so no identity matrix is formed or
    multiplied.
    """
    n = curv.n
    if n < 3:
        raise UnsupportedDimensionError("Weyl trace invariants need n >= 3")
    from .counting import weyl_trace_count

    w_order = min(order, curv.weyl.order, curv.g_inv.order)
    ctx = _context(n, w_order)
    n_biv = n * (n - 1) // 2
    # (s, b) = (a + c, b) in emission order; within one s, b runs 1..n_biv,
    # so each pair needs at most one more power of either operator. For
    # n >= 13 there are fewer pairs than the cut, and the block is shorter.
    pairs = [(s, b) for s in range(2 * n + 1) for b in range(1, n_biv + 1)]
    pairs = pairs[1 : 1 + weyl_trace_count(n)]  # (0, 1) is Tr(W) = 0
    values = np.empty((len(pairs), ctx.size))
    if not pairs:  # n = 3
        return [], values
    w_op = weyl_bivector_operator(curv.weyl.truncate(w_order), curv.g_inv.truncate(w_order))
    lam = exterior_square(curv.ricci_op.truncate(w_order).coeffs, ctx)
    w_powers, lam_powers = [w_op], [lam]  # W^b at b - 1, Lambda^2(A)^s at s - 1
    diag = np.arange(n_biv)
    labels: list[str] = []
    for i, (s, b) in enumerate(pairs):
        if b > len(w_powers):
            w_powers.append(contract(w_powers[-1], w_op, ctx))
        if s > len(lam_powers):
            lam_powers.append(contract(lam_powers[-1], lam, ctx))
        a = max(0, s - n)
        labels.append(f"J({a},{b},{s - a})")
        if s == 0:
            values[i] = w_powers[b - 1][diag, diag].sum(axis=0)
        else:
            pairing = cauchy_product(w_powers[b - 1], lam_powers[s - 1].transpose(1, 0, 2), ctx)
            values[i] = pairing.sum(axis=(0, 1))
    return labels, values


# -- the Tresse frame ------------------------------------------------------------


@dataclass(frozen=True)
class TresseFrame:
    """Frame of derivations dual to the differentials of the base invariants.

    `frame[m, i]` holds the m-th coordinate component of the i-th dual
    vector: the columns of the inverse of the Jacobian d_m I_i at the
    point, as jet tensor components so gradients propagate.
    """

    frame: TensorComponents
    condition_number: float


def tresse_frame(
    base: np.ndarray, order: int, rel_tol: float = DEFAULT_FRAME_RTOL
) -> TresseFrame:
    """Invert the Jacobian of n base invariants; raises SingularFrameError.

    `base` holds the order-`order` jets of one invariant per row, in n
    variables; the numerical rank of their degree-1 coefficients decides
    the frame. A singular frame is the expected outcome on locally
    homogeneous metrics (constant invariants), so callers should treat the
    exception as a structured result, not a failure.
    """
    n = len(base)
    if base.shape != (n, _context(n, order).size):
        raise ShapeMismatchError(f"need {n} base invariants of order {order}, got {base.shape}")
    if order < 1:
        raise InsufficientOrderError("Tresse frame needs invariant jets of order >= 1")
    sv = np.linalg.svd(base[:, 1 : 1 + n], compute_uv=False)
    rank = numerical_rank(sv, rel_tol)
    if rank < n:
        raise SingularFrameError(rank)
    jac_jets = partials(base, _context(n, order)).transpose(1, 0, 2)  # [i, m]
    frame = _jet_matrix_inverse(jac_jets, _context(n, order - 1))
    return TresseFrame(
        frame=TensorComponents(("u", "d"), n, order - 1, frame),
        condition_number=float(sv[0] / sv[-1]),
    )


# -- higher-order invariants -------------------------------------------------------


def higher_invariants(
    curv: CurvaturePoint,
    frame: TresseFrame,
    k: int,
    with_gradients: bool = False,
) -> tuple[list[str], np.ndarray]:
    """Order-k invariants from nabla^{k-2} R contracted against the frame.

    Each derivative slot is paired with a frame vector, each of the four
    curvature slots with A^s applied to a frame vector for s = 0, 1.
    Labels read H{k}[derivative word | s word | frame word] with 1-based
    frame indices. Every input is truncated to the output order (0, or 1
    with gradients) before the contractions.

    The values are the rows of the one contracted block; a non-finite
    entry in it raises DomainError. The labels depend on (n, k) only and
    are built once per key; the list returned is a fresh copy.
    """
    if k < 3:
        raise ValueError("higher invariants start at order 3")
    n = curv.n
    if curv.s_max < k - 2:
        raise InsufficientOrderError(
            f"nabla^{k - 2} R not available; increase the metric jet order"
        )
    t = curv.nabla_r[k - 2]
    out_order = 1 if with_gradients else 0
    if t.order < out_order:
        raise InsufficientOrderError(
            f"nabla^{k - 2} R has jet order {t.order}, need {out_order}"
        )
    ctx = _context(n, out_order)
    f = frame.frame.truncate(out_order).coeffs
    a = curv.ricci_op.truncate(out_order).coeffs

    # families: columns w = s*n + j hold A^s applied to frame vector j
    w = np.concatenate([f, contract(a, f, ctx)], axis=1)

    # contract the leading slot each time; the family axis goes last
    val = t.truncate(out_order).coeffs
    for vectors in [f] * (k - 2) + [w] * 4:
        val = contract(np.moveaxis(val, 0, -2), vectors, ctx)
    block = val.reshape(-1, ctx.size)
    _require_finite(curv.point, **{f"H{k}": block})
    return list(_higher_labels(n, k)), block


@lru_cache(maxsize=None)
def _higher_labels(n: int, k: int) -> tuple[str, ...]:
    """Labels of `higher_invariants` in the row-major order of its index axes."""
    digits = [str(i + 1) for i in range(n)]
    iwords = ["".join(word) for word in itertools.product(digits, repeat=k - 2)]
    slots = [(s, j) for s in "01" for j in digits]  # in column order
    swords = [
        "".join(s for s, _ in word) + "|" + "".join(j for _, j in word)
        for word in itertools.product(slots, repeat=4)
    ]
    return tuple(f"H{k}[{iword}|{sword}]" for iword in iwords for sword in swords)


# -- the assembled invariant vector -------------------------------------------------


@dataclass(frozen=True)
class InvariantVector:
    """Labeled scalar invariants of one metric at one point.

    `values` holds a row of jet coefficients per invariant: (N, 1 + n)
    with gradients, (N, 1) without. `warnings` records degradations (a
    singular Tresse frame on homogeneous metrics) that replace higher blocks.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    max_order: int
    warnings: tuple[str, ...] = field(default=())

    def __len__(self) -> int:
        return len(self.labels)

    def values_array(self) -> np.ndarray:
        return self.values[:, 0].copy()

    def jacobian(self) -> np.ndarray:
        """Gradients row per invariant; requires with_gradients=True."""
        if self.values.shape[1] == 1:
            raise InsufficientOrderError("the Jacobian needs invariants with gradients")
        return self.values[:, 1:].copy()


def required_jet_order(n: int, max_order: int, with_gradients: bool) -> int:
    """Metric jet order needed to emit invariants up to `max_order`."""
    out = 1 if with_gradients else 0
    if n == 2:
        k = 2 + out + 1 + (1 if max_order >= 3 else 0)
        return max(k, max_order + out)
    return max_order + out


def _base_invariants(curv: CurvaturePoint) -> tuple[np.ndarray, int]:
    """The block of the n invariants the Tresse frame is built on, and its order."""
    if curv.n == 2:
        return surface_invariant_pair(curv), curv.scalar.order - 1
    return ricci_traces(curv.ricci_op), curv.ricci_op.order


def invariant_sample(
    spec: MetricSpec,
    point: Sequence[float],
    max_order: int = 2,
    with_gradients: bool = False,
    frame_rel_tol: float = DEFAULT_FRAME_RTOL,
) -> tuple[InvariantVector, CurvaturePoint]:
    """Invariant vector plus the curvature data it was computed from.

    The order-2 block and the frame decision read the base invariants at
    jet order 1 only, which the gate order `required_jet_order(n, 2,
    True)` provides. Where the full order is above it, `tresse_frame` on
    the gate-order base decides the frame, and only a frame it returns
    adds a full-order pass, with the frame rebuilt from the new base. On a
    singular frame no output reads the higher orders, and the curvature
    data returned is that of the gate order.

    Each block of invariants stays one coefficient array until the end,
    where the blocks are stacked into the vector's read-only `values`.
    """
    n = spec.dim
    if max_order < 2:
        raise ValueError("invariants start at order 2")
    out_order = 1 if with_gradients else 0
    order = required_jet_order(n, max_order, with_gradients)
    gate = required_jet_order(n, 2, with_gradients=True)
    two_pass = order > gate
    if two_pass:
        curv = curvature_point(spec, point, gate, s_max=0)
    else:
        curv = curvature_point(spec, point, order, s_max=max(0, max_order - 2))

    labels: list[str] = ["I1", "I2'"] if n == 2 else [f"I{i + 1}" for i in range(n)]
    blocks: list[np.ndarray] = []
    warnings: list[str] = []

    # overflow and NaN are not warned about where they arise: each block is
    # checked for non-finite entries, and raises DomainError, once it is built
    with np.errstate(over="ignore", invalid="ignore"):
        base, base_order = _base_invariants(curv)
        blocks.append(base[:, : _context(n, out_order).size])
        _require_finite(point, **{"base invariants": blocks[0]})

        if n >= 4:
            j_labels, j_block = weyl_traces(curv, out_order)
            _require_finite(point, **{"Weyl traces": j_block})
            labels.extend(j_labels)
            blocks.append(j_block)

        if max_order >= 3:
            try:
                frame = tresse_frame(base, base_order, rel_tol=frame_rel_tol)
                if two_pass:
                    curv = curvature_point(spec, point, order, s_max=max_order - 2)
                    base, base_order = _base_invariants(curv)
                    frame = tresse_frame(base, base_order, rel_tol=frame_rel_tol)
            except SingularFrameError as exc:
                warnings.append(
                    f"SingularFrame: base invariant Jacobian has rank {exc.rank}; "
                    f"higher-order blocks omitted"
                )
            else:
                for k in range(3, max_order + 1):
                    h_labels, h_block = higher_invariants(
                        curv, frame, k, with_gradients=with_gradients
                    )
                    labels.extend(h_labels)
                    blocks.append(h_block)

    values = np.concatenate(blocks)
    values.flags.writeable = False
    return InvariantVector(tuple(labels), values, max_order, tuple(warnings)), curv


def invariant_vector(
    spec: MetricSpec,
    point: Sequence[float],
    max_order: int = 2,
    with_gradients: bool = False,
) -> InvariantVector:
    """Concatenated invariant blocks up to `max_order` at one point."""
    iv, _ = invariant_sample(spec, point, max_order, with_gradients)
    return iv
