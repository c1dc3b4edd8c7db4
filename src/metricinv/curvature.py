"""Levi-Civita pipeline on jets: Christoffel, Riemann, Ricci, Weyl, nabla^s R.

Conventions (fixed so the unit sphere has positive scalar curvature):

    Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    R^i_jkl    = d_k Gamma^i_lj - d_l Gamma^i_kj
                 + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj
    Ric_jl     = R^i_jil,   scal = g^{jl} Ric_jl,   A^i_j = g^{ik} Ric_kj
    W_ijkl     = R_ijkl - (g_ik Ric_jl - g_il Ric_jk + g_jl Ric_ik
                 - g_jk Ric_il) / (n-2)
                 + scal (g_ik g_jl - g_il g_jk) / ((n-1)(n-2))

Each tensor is a `TensorComponents`: one float array whose last axis holds
the jet coefficients of every component. The scalar curvature is the
rank-0 case, a single row of coefficients. All products of components go
through the batched Cauchy product `jets.cauchy_product`, and contractions
through `jets.contract`, one index at a time.

Every derivative consumed drops the available jet order by one; each
operation below states its consumption and rejects inputs that are too
shallow. `curvature_point` builds everything up to the Weyl tensor at
once, and nabla^s R on the first read of `CurvaturePoint.nabla_r`.
Signature plays no role: the inverse metric is the jet-level matrix
inverse, built degree by degree from that of its constant term, and no
positivity is assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    InsufficientOrderError,
    OrderExceededError,
    ShapeMismatchError,
    SingularMetricError,
    UnsupportedDimensionError,
)
from .jets import _context, _JetContext, cauchy_product, contract, partials
from .metriclang import MetricSpec, eval_expr

# The one table of tolerances; every rank verdict is read from `numerical_rank`.
SINGULAR_RTOL = 1e-10  # metric_at: the scaled g is singular at or below this times sigma_1
DEFAULT_FRAME_RTOL = 1e-8  # the rank cut of the Tresse frame and the invariant Jacobian
DEFAULT_FRAME_FLOOR = 1e-10  # rank 0 when sigma_1 is below this absolute floor
VANISHING_TOL = 1e-8  # homogeneity: invariants vanish below it, the curvature not above it


def numerical_rank(
    singular_values: Sequence[float], rel_tol: float = DEFAULT_FRAME_RTOL
) -> int:
    """Count singular values above rel_tol * sigma_1 (0 if sigma_1 is below the floor)."""
    sv = np.asarray(singular_values, dtype=float)
    if sv.size == 0 or sv[0] < DEFAULT_FRAME_FLOOR:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


@dataclass(frozen=True)
class TensorComponents:
    """Jets of every component of a tensor, stored as one float array.

    `variance` holds one of 'u' (contravariant) / 'd' (covariant) per
    slot. `coeffs` has shape (n,) * rank + (S,): the last axis holds the S
    Taylor coefficients of each component's order-`order` jet in the n
    coordinates, in the layout of `jets.Jet`.
    """

    variance: tuple[str, ...]
    n: int
    order: int
    coeffs: np.ndarray

    def __post_init__(self):
        shape = (self.n,) * self.rank + (self.ctx.size,)
        if self.coeffs.shape != shape:
            raise ShapeMismatchError(
                f"coefficient shape {self.coeffs.shape} does not match "
                f"rank {self.rank}, n {self.n}, order {self.order}"
            )

    @property
    def rank(self) -> int:
        return len(self.variance)

    @property
    def ctx(self) -> _JetContext:
        return _context(self.n, self.order)

    def values(self) -> np.ndarray:
        """Constant terms as a plain float array."""
        return self.coeffs[..., 0].copy()

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values())))

    def truncate(self, order: int) -> "TensorComponents":
        """Restrict every component to a lower order (graded prefix)."""
        if order == self.order:
            return self
        if order > self.order:
            raise OrderExceededError(
                f"cannot extend order {self.order} jets to order {order}"
            )
        size = _context(self.n, order).size
        return TensorComponents(self.variance, self.n, order, self.coeffs[..., :size])


def _jet_matrix_inverse(mat: np.ndarray, ctx: _JetContext) -> np.ndarray:
    """Inverse of an (n, n, S) jet matrix M, one degree at a time.

    X_0 = M_0^-1 and X_d = -X_0 [(M - M_0) X]_d, which is [M X]_d taken
    while X's degree-d block is still zero. X_0 is applied with
    ascending-q adds, as in `contract`, so every block is bitwise the
    same at every order.
    """
    try:
        x0 = np.linalg.inv(mat[..., 0])
    except np.linalg.LinAlgError:
        raise SingularMetricError("jet matrix is singular at the base point") from None
    inv = np.zeros_like(mat)
    inv[..., 0] = x0
    for d in range(1, ctx.order + 1):
        low, sub = _context(ctx.n_vars, d - 1).size, _context(ctx.n_vars, d)
        bracket = contract(mat[..., : sub.size], inv[..., : sub.size], sub)[..., low:]
        block = x0[:, 0, None, None] * bracket[0]
        for q in range(1, len(x0)):
            block = block + x0[:, q, None, None] * bracket[q]
        inv[..., low : sub.size] = -block
    return inv


def metric_at(
    spec: MetricSpec, point: Sequence[float], order: int
) -> tuple[TensorComponents, TensorComponents]:
    """K-jets of g_ij and of its matrix inverse at a point."""
    n = spec.dim
    if len(point) != n:
        raise ShapeMismatchError(f"point has {len(point)} entries, metric dim {n}")
    coeffs = np.empty((n, n, _context(n, order).size))
    for i in range(n):
        for j in range(i, n):
            coeffs[i, j] = coeffs[j, i] = eval_expr(spec.components[i][j], point, order).c
    g = TensorComponents(("d", "d"), n, order, coeffs)

    const = g.values()
    at = tuple(map(float, point))
    if not np.all(np.isfinite(const)):
        raise DomainError(f"metric component not finite at point {at}")
    # D^{-1/2} g D^{-1/2} with D = |diag g| does not change when a coordinate
    # is rescaled; a null coordinate (g_ii = 0) gives no scale and a tiny D can
    # overflow it, so either way fall back to g over its largest entry
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_sqrt = 1.0 / np.sqrt(np.abs(np.diag(const)))
        scaled = const * inv_sqrt[:, None] * inv_sqrt[None, :]
    if not np.all(np.isfinite(scaled)):
        scaled = const / (np.max(np.abs(const)) or 1.0)
    sv = np.linalg.svd(scaled, compute_uv=False)
    if numerical_rank(sv, SINGULAR_RTOL) < n:
        raise SingularMetricError(
            f"smallest singular value {sv[-1]:.3e} of the scaled metric is not "
            f"above {SINGULAR_RTOL:g} times the largest, {sv[0]:.3e}, at point {at}"
        )
    inv = _jet_matrix_inverse(g.coeffs, g.ctx)
    return g, TensorComponents(("u", "u"), n, order, inv)


def christoffel(g: TensorComponents, g_inv: TensorComponents) -> TensorComponents:
    """Gamma^k_ij; consumes one derivative order."""
    if g.order < 1:
        raise InsufficientOrderError("Christoffel symbols need metric jets of order >= 1")
    target = g.order - 1
    ginv_t = g_inv.truncate(target)
    dg = partials(g.coeffs, g.ctx)  # dg[l, i, j] = d_l g_ij
    lowered = dg.transpose(1, 0, 2, 3) + dg.transpose(1, 2, 0, 3) - dg  # [l, i, j]
    gamma = contract(ginv_t.coeffs, lowered, ginv_t.ctx) * 0.5
    return TensorComponents(("u", "d", "d"), g.n, target, gamma)


def riemann(
    gamma: TensorComponents, g: TensorComponents
) -> tuple[TensorComponents, TensorComponents]:
    """All-lower R_ijkl and mixed R^i_jkl; consumes one order from Gamma."""
    if gamma.order < 1:
        raise InsufficientOrderError("Riemann tensor needs Gamma jets of order >= 1")
    n = gamma.n
    target = gamma.order - 1
    gamma_t = gamma.truncate(target)
    ctx = gamma_t.ctx
    dgamma = partials(gamma.coeffs, gamma.ctx)  # dgamma[m, i, j, k] = d_m Gamma^i_jk
    # mixed[i, j, k, l] starts at d_k Gamma^i_lj - d_l Gamma^i_kj; the
    # quadratic terms are added one m at a time
    mixed = dgamma.transpose(1, 3, 0, 2, 4) - dgamma.transpose(1, 3, 2, 0, 4)
    gam = gamma_t.coeffs
    for m in range(n):
        quad = cauchy_product(gam[:, :, m, None, None], gam[None, None, m], ctx)  # [i, k, l, j]
        quad = quad.transpose(0, 3, 1, 2, 4)  # Gamma^i_km Gamma^m_lj at [i, j, k, l]
        mixed = mixed + (quad - quad.transpose(0, 1, 3, 2, 4))
    lower = contract(g.truncate(target).coeffs, mixed, ctx)
    return (
        TensorComponents(("d", "d", "d", "d"), n, target, lower),
        TensorComponents(("u", "d", "d", "d"), n, target, mixed),
    )


def ricci(
    r_mixed: TensorComponents, g_inv: TensorComponents
) -> tuple[TensorComponents, TensorComponents]:
    """Ric_jl = R^i_jil and the rank-0 scalar curvature g^{jl} Ric_jl."""
    n = r_mixed.n
    target = r_mixed.order
    diag = np.arange(n)
    ric = r_mixed.coeffs[diag, :, diag].sum(axis=0)
    below = np.tril_indices(n, -1)
    ric[below] = ric.swapaxes(0, 1)[below]  # exactly symmetric
    ginv_t = g_inv.truncate(target)
    scal = cauchy_product(ginv_t.coeffs, ric, ginv_t.ctx).sum(axis=(0, 1))
    return TensorComponents(("d", "d"), n, target, ric), TensorComponents((), n, target, scal)


def ricci_operator(g_inv: TensorComponents, ric: TensorComponents) -> TensorComponents:
    """The endomorphism A^i_j = g^{ik} Ric_kj of the tangent bundle."""
    ginv_t = g_inv.truncate(ric.order)
    a_op = contract(ginv_t.coeffs, ric.coeffs, ric.ctx)
    return TensorComponents(("u", "d"), ric.n, ric.order, a_op)


def weyl(
    g: TensorComponents,
    ric: TensorComponents,
    scal: TensorComponents,
    r_lower: TensorComponents,
) -> TensorComponents:
    """Totally trace-free part of the curvature; undefined for n = 2."""
    n = g.n
    if n < 3:
        raise UnsupportedDimensionError("the Weyl tensor is undefined for n = 2")
    target = r_lower.order
    ctx = r_lower.ctx
    g_t = g.truncate(target).coeffs
    ric_t = ric.truncate(target).coeffs
    scal_t = scal.truncate(target).coeffs

    def kulkarni(a, b):
        """[i, j, k, l] -> a_ik b_jl, the outer product with slots interleaved."""
        return cauchy_product(a[:, None, :, None], b[None, :, None, :], ctx)

    def swap_kl(t):
        return t.transpose(0, 1, 3, 2, 4)

    def swap_ij(t):
        return t.transpose(1, 0, 2, 3, 4)

    gr = kulkarni(g_t, ric_t)
    ricci_part = gr - swap_kl(gr) + swap_ij(swap_kl(gr)) - swap_ij(gr)
    gg = kulkarni(g_t, g_t)
    scal_part = gg - swap_kl(gg)
    c1 = 1.0 / (n - 2)
    c2 = 1.0 / ((n - 1) * (n - 2))
    out = r_lower.coeffs - c1 * ricci_part + c2 * cauchy_product(scal_t, scal_part, ctx)
    return TensorComponents(("d", "d", "d", "d"), n, target, out)


def covariant_derivative(
    t: TensorComponents, gamma: TensorComponents
) -> TensorComponents:
    """Adds one covariant slot in front; consumes one order from T.

    (nabla T)_{m, I} = d_m T_I - sum over down slots of Gamma^q_{m i_p} T
    with i_p replaced by q, + sum over up slots of Gamma^{i_p}_{m q} T
    with i_p replaced by q.
    """
    if t.order < 1:
        raise InsufficientOrderError("covariant derivative needs jets of order >= 1")
    target = t.order - 1
    if gamma.order < target:
        raise InsufficientOrderError(
            f"Gamma jets of order {gamma.order} cannot support output order {target}"
        )
    gamma_t = gamma.truncate(target)
    t_t = t.truncate(target)
    ctx = t_t.ctx
    out = partials(t.coeffs, t.ctx)
    for p, slot_var in enumerate(t.variance):
        # conn[q, m, i]: the connection coefficient that carries slot value q to i
        conn = gamma_t.coeffs if slot_var == "d" else gamma_t.coeffs.transpose(2, 1, 0, 3)
        conn = conn.reshape(conn.shape[:3] + (1,) * (t.rank - 1) + conn.shape[-1:])
        moved = np.moveaxis(t_t.coeffs, p, 0)  # [q, other slots]
        for q in range(t.n):
            term = cauchy_product(conn[q], moved[q], ctx)  # [m, i, other slots]
            term = np.moveaxis(term, 1, p + 1)
            out = out - term if slot_var == "d" else out + term
    return TensorComponents(("d",) + t.variance, t.n, target, out)


@dataclass(frozen=True)
class CurvaturePoint:
    """Every curvature quantity of one metric at one base point.

    All tensors are evaluated at the same point; the jet order of each
    entry reflects how many derivatives its construction consumed. `weyl`
    is None for n = 2, where the tensor is undefined. `nabla_r` is built
    on first read, so callers that never read it never pay for it.
    """

    point: tuple[float, ...]
    n: int
    order: int
    g: TensorComponents
    g_inv: TensorComponents
    gamma: TensorComponents
    riemann_lower: TensorComponents
    ricci: TensorComponents
    scalar: TensorComponents
    ricci_op: TensorComponents
    weyl: TensorComponents | None
    s_max: int

    @cached_property
    def nabla_r(self) -> tuple[TensorComponents, ...]:
        """nabla^s R_lower for s = 0..s_max."""
        nabla = [self.riemann_lower]
        for s in range(1, self.s_max + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                nabla.append(covariant_derivative(nabla[-1], self.gamma))
            _require_finite(self.point, **{f"nabla^{s} R": nabla[-1].coeffs})
        return tuple(nabla)


def _require_finite(point: Sequence[float], **tensors: np.ndarray) -> None:
    """Raise DomainError naming the first tensor with a non-finite jet coefficient."""
    for name, coeffs in tensors.items():
        if not np.all(np.isfinite(coeffs)):
            raise DomainError(
                f"{name} has a non-finite jet coefficient at point "
                f"{tuple(map(float, point))}: "
                f"the computation left the floating-point range"
            )


def curvature_point(
    spec: MetricSpec,
    point: Sequence[float],
    order: int,
    s_max: int | None = None,
) -> CurvaturePoint:
    """Run the full pipeline from metric jets of the given order.

    nabla^s R is computable iff s <= order - 2; `s_max` defaults to that
    bound and larger requests are rejected. The derivatives themselves
    are computed when `nabla_r` is first read. A non-finite jet coefficient
    in any tensor, here or in nabla^s R, raises DomainError.
    """
    if order < 2:
        raise InsufficientOrderError("curvature needs metric jets of order >= 2")
    limit = order - 2
    if s_max is None:
        s_max = limit
    elif s_max > limit:
        raise InsufficientOrderError(
            f"nabla^{s_max} R needs metric jets of order >= {s_max + 2}, got {order}"
        )
    # overflow and NaN are not warned about where they arise: _require_finite
    # turns them into a DomainError once the tensors are built
    with np.errstate(over="ignore", invalid="ignore"):
        g, g_inv = metric_at(spec, point, order)
        gamma = christoffel(g, g_inv)
        r_lower, r_mixed = riemann(gamma, g)
        ric, scal = ricci(r_mixed, g_inv)
        a_op = ricci_operator(g_inv, ric)
        w = weyl(g, ric, scal, r_lower) if spec.dim >= 3 else None
    _require_finite(
        point,
        g=g.coeffs,
        g_inv=g_inv.coeffs,
        Gamma=gamma.coeffs,
        Riemann=r_mixed.coeffs,
        R_lower=r_lower.coeffs,
        Ricci=ric.coeffs,
        scalar=scal.coeffs,
        A=a_op.coeffs,
        Weyl=np.zeros(0) if w is None else w.coeffs,
    )
    return CurvaturePoint(
        point=tuple(float(x) for x in point),
        n=spec.dim,
        order=order,
        g=g,
        g_inv=g_inv,
        gamma=gamma,
        riemann_lower=r_lower,
        ricci=ric,
        scalar=scal,
        ricci_op=a_op,
        weyl=w,
        s_max=s_max,
    )
