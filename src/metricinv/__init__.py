"""Scalar differential invariants of (pseudo-)Riemannian metrics.

The package evaluates a metric given in a small definition language on
truncated Taylor jets, runs the Levi-Civita pipeline (Christoffel symbols,
Riemann/Ricci/Weyl curvature, iterated covariant derivatives), assembles
the scalar trace invariants, and estimates the symmetry-orbit dimension of
a concrete metric from the functional rank of those invariants. A separate
exact-arithmetic module produces the invariant counts and their generating
functions.
"""

from .counting import (
    RationalFunction,
    delta_count,
    poincare,
    pole_order_at_one,
    s_count,
    series_expand,
)
from .curvature import CurvaturePoint, TensorComponents, curvature_point
from .invariants import InvariantVector, TresseFrame, invariant_vector
from .jets import Jet, apply_fn, seed
from .metriclang import MetricSpec, eval_expr, parse_metric
from .symmetry import RankReport, homogeneity, homogeneous_test, numerical_rank

__version__ = "0.1.0"

__all__ = [
    "CurvaturePoint",
    "InvariantVector",
    "Jet",
    "MetricSpec",
    "RankReport",
    "RationalFunction",
    "TensorComponents",
    "TresseFrame",
    "apply_fn",
    "curvature_point",
    "delta_count",
    "eval_expr",
    "homogeneity",
    "homogeneous_test",
    "invariant_vector",
    "numerical_rank",
    "parse_metric",
    "poincare",
    "pole_order_at_one",
    "s_count",
    "seed",
    "series_expand",
]
