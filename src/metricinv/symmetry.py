"""Symmetry estimation from the functional rank of restricted invariants.

A Killing field annihilates every scalar invariant of the metric, so the
rank m of the invariant Jacobian at generic points bounds the geometry:
the isometry pseudogroup has regular orbits of dimension n - m. The rank
is read off singular values by `numerical_rank`, and the consensus over
a sample of points is the maximum (rank only drops on thin sets);
`homogeneous_test` reads constant invariants as consensus rank 0. The
verdict is downgraded to a necessary condition whenever the input is
pseudo-Riemannian and all invariants vanish while the curvature does not
(the stratum where invariants separate nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AllPointsSingularError,
    DomainError,
    SingularMetricError,
)
from .curvature import DEFAULT_FRAME_RTOL, VANISHING_TOL, numerical_rank
from .invariants import invariant_sample
from .metriclang import MetricSpec


@dataclass(frozen=True)
class RankReport:
    """Outcome of sampling the invariant Jacobian over a box.

    `rank` is the consensus functional rank m (maximum over sample
    points); `homogeneity` the inferred dimension n - m of the symmetry
    orbits. `regularity_warning` is set when every invariant vanishes
    while the curvature does not; on that stratum rank-based inference is
    unsound for pseudo-Riemannian metrics, so `claims_killing_fields`
    drops to False unless the signature is Riemannian.
    """

    n: int
    max_order: int
    seed: int
    points: tuple[tuple[float, ...], ...]
    singular_values: tuple[tuple[float, ...], ...]
    ranks: tuple[int, ...]
    skipped: tuple[tuple[tuple[float, ...], str], ...]
    rank: int
    homogeneity: int
    invariant_max: float
    riemann_max: float
    gradient_max: float
    regularity_warning: bool
    is_riemannian: bool
    claims_killing_fields: bool
    warnings: tuple[str, ...]


def _sample_points(
    box: Sequence[tuple[float, float]], n_samples: int, seed: int
) -> list[tuple[float, ...]]:
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    if np.any(hi <= lo):
        raise ValueError("sampling box must have positive extent in every axis")
    with np.errstate(over="ignore"):
        width = hi - lo
    if not np.all(np.isfinite(width)):
        raise ValueError("sampling box is too wide: an axis's width overflows")
    return [tuple(lo + rng.random(len(box)) * width) for _ in range(n_samples)]


def homogeneity(
    spec: MetricSpec,
    box: Sequence[tuple[float, float]],
    n_samples: int = 20,
    max_order: int = 2,
    seed: int = 0,
    rel_tol: float = DEFAULT_FRAME_RTOL,
) -> RankReport:
    """Estimate the symmetry-orbit dimension of a metric over a box.

    Draws `n_samples` points deterministically from `seed`, computes the
    invariant Jacobian at each (skipping chart singularities), and infers
    homogeneity n - m from the consensus rank m. `rel_tol` decides both
    that rank and the rank of each point's Tresse frame. Raises ValueError
    unless n_samples >= 1 and 0 < rel_tol < 1 (NaN fails).
    """
    n = spec.dim
    if len(box) != n:
        raise ValueError(f"box has {len(box)} axes for dimension {n}")
    if n_samples < 1:
        raise ValueError(f"need at least one sample point, got {n_samples}")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie strictly between 0 and 1, got {rel_tol!r}")
    used: list[tuple[float, ...]] = []
    all_sv: list[tuple[float, ...]] = []
    ranks: list[int] = []
    skipped: list[tuple[tuple[float, ...], str]] = []
    warnings: list[str] = []
    inv_max = 0.0
    riem_max = 0.0
    grad_max = 0.0

    for point in _sample_points(box, n_samples, seed):
        try:
            iv, curv = invariant_sample(
                spec, point, max_order=max_order, with_gradients=True,
                frame_rel_tol=rel_tol,
            )
        except (DomainError, SingularMetricError) as exc:
            skipped.append((point, f"{type(exc).__name__}: {exc}"))
            continue
        jac = iv.jacobian()
        sv = np.linalg.svd(jac, compute_uv=False)
        used.append(point)
        all_sv.append(tuple(float(s) for s in sv))
        ranks.append(numerical_rank(sv, rel_tol))
        inv_max = max(inv_max, float(np.max(np.abs(iv.values_array()))))
        riem_max = max(riem_max, curv.riemann_lower.max_abs())
        grad_max = max(grad_max, float(np.max(np.linalg.norm(jac, axis=1))))
        for w in iv.warnings:
            if w not in warnings:
                warnings.append(w)

    if not used:
        raise AllPointsSingularError(
            f"all {n_samples} sample points hit singularities: "
            + "; ".join(reason for _, reason in skipped[:3])
        )

    m = max(ranks)
    regularity = inv_max < VANISHING_TOL and riem_max > VANISHING_TOL
    if regularity:
        warnings.append(
            "regularity: all computed invariants vanish but the curvature does "
            "not; this metric is not separated by curvature invariants and the "
            "rank-based homogeneity bound is unreliable (vanishing-invariant "
            "stratum)"
        )
    if skipped:
        warnings.append(f"{len(skipped)} of {n_samples} sample points skipped")
    return RankReport(
        n=n,
        max_order=max_order,
        seed=seed,
        points=tuple(used),
        singular_values=tuple(all_sv),
        ranks=tuple(ranks),
        skipped=tuple(skipped),
        rank=m,
        homogeneity=n - m,
        invariant_max=inv_max,
        riemann_max=riem_max,
        gradient_max=grad_max,
        regularity_warning=regularity,
        is_riemannian=spec.is_riemannian,
        claims_killing_fields=spec.is_riemannian or not regularity,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class HomogeneityVerdict:
    """Boolean verdict with the context needed to interpret it."""

    homogeneous: bool
    necessary_condition_only: bool
    order_bound: int
    max_gradient: float

    def __bool__(self) -> bool:
        return self.homogeneous


def homogeneous_test(
    spec: MetricSpec,
    box: Sequence[tuple[float, float]],
    order_bound: int = 3,
    n_samples: int = 20,
    seed: int = 0,
) -> HomogeneityVerdict:
    """Are all invariants constant over the box, i.e. is their consensus rank 0?

    The theoretical bound needs invariants up to derivative order C(n,2),
    i.e. invariant order C(n,2) + 2: 3 for n = 2, more above. The default
    `order_bound` of 3 caps it there for cost. For Riemannian signature
    constancy is equivalent to local homogeneity; for pseudo-Riemannian
    input the verdict is only a necessary condition and is flagged as such.
    """
    report = homogeneity(
        spec, box, n_samples=n_samples, max_order=order_bound, seed=seed
    )
    return HomogeneityVerdict(
        homogeneous=report.rank == 0,
        necessary_condition_only=not spec.is_riemannian,
        order_bound=order_bound,
        max_gradient=report.gradient_max,
    )
