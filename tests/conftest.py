"""Shared fixtures: canonical metrics and seeded random metric families."""

import math
from pathlib import Path

import numpy as np
import pytest

from metricinv.jets import Jet, _context
from metricinv.metriclang import parse_metric

def partial(jet, alpha) -> float:
    """The raw derivative d^alpha f = alpha! * c_alpha of a jet."""
    alpha = tuple(alpha)
    fact = math.prod(math.factorial(a) for a in alpha)
    return float(jet.c[jet.ctx.index[alpha]] * fact)


def component(t, idx) -> Jet:
    """The jet of one component of a `TensorComponents`."""
    return Jet(t.n, t.order, t.coeffs[idx])


def truncate(jet, order) -> Jet:
    """The jet restricted to a lower order: the graded prefix of its coefficients."""
    return Jet(jet.n_vars, order, jet.c[: _context(jet.n_vars, order).size])


def jet_identity(m, ctx) -> np.ndarray:
    """The m x m identity matrix as constant jets, shape (m, m, S)."""
    eye = np.zeros((m, m, ctx.size))
    eye[np.arange(m), np.arange(m), 0] = 1.0
    return eye


def same_jet(a, b) -> bool:
    """Bitwise equality of two jets in the same variables at the same order."""
    return a.ctx is b.ctx and np.array_equal(a.c, b.c)


METRICS_DIR = Path(__file__).resolve().parents[1] / "metrics"

SPHERE2 = """
dim = 2
coords = [x, y]
g[1,1] = 1
g[2,2] = sin(x)^2
"""

HYPERBOLIC2 = """
dim = 2
coords = [x, y]
g[1,1] = 1/y^2
g[2,2] = 1/y^2
"""

REVOLUTION = """
dim = 2
coords = [x, y]
g[1,1] = 1
g[2,2] = (2 + sin(x))^2
"""

SPHERE3 = """
dim = 3
coords = [x, y, z]
g[1,1] = 1
g[2,2] = sin(x)^2
g[3,3] = sin(x)^2 * sin(y)^2
"""

SCHWARZSCHILD = """
dim = 4
coords = [t, r, th, ph]
signature = [-1, +1, +1, +1]
g[1,1] = -(1 - 2/r)
g[2,2] = 1/(1 - 2/r)
g[3,3] = r^2
g[4,4] = r^2 * sin(th)^2
"""

PPWAVE = """
dim = 4
coords = [u, v, x, y]
signature = [-1, +1, +1, +1]
g[1,1] = (x^2 - y^2) * exp(u)
g[1,2] = 1
g[2,2] = 0
g[3,3] = 1
g[4,4] = 1
"""

_COORD_NAMES = ["x", "y", "z", "w", "v", "u"]


def flat_metric_text(n: int) -> str:
    coords = _COORD_NAMES[:n]
    lines = [f"dim = {n}", f"coords = [{', '.join(coords)}]"]
    lines += [f"g[{i},{i}] = 1" for i in range(1, n + 1)]
    return "\n".join(lines)


def random_polynomial_metric_text(n: int, rng, scale: float = 0.3) -> str:
    """Identity plus a random polynomial perturbation, degree <= 2 coefficients."""
    coords = _COORD_NAMES[:n]
    monos = coords + [
        f"{a}*{b}" for ai, a in enumerate(coords) for b in coords[ai:]
    ]
    lines = [f"dim = {n}", f"coords = [{', '.join(coords)}]"]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            terms = " + ".join(f"{rng.uniform(-scale, scale)!r}*{m}" for m in monos)
            head = "1 + " if i == j else "0 + "
            lines.append(f"g[{i},{j}] = {head}{terms}")
    return "\n".join(lines)


def random_curved_metric_text(n: int, rng) -> str:
    """Strongly curved family: exponential diagonal, small polynomial off-diagonal.

    Gives O(1) curvature and invariant gradients, which keeps the Tresse
    frame well conditioned (the higher-order contractions lose absolute
    accuracy like the fifth power of the frame magnitude).
    """
    coords = _COORD_NAMES[:n]
    monos = coords + [
        f"{a}*{b}" for ai, a in enumerate(coords) for b in coords[ai:]
    ]
    lines = [f"dim = {n}", f"coords = [{', '.join(coords)}]"]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i == j:
                terms = " + ".join(f"{rng.uniform(-0.9, 0.9)!r}*{m}" for m in monos)
                lines.append(f"g[{i},{j}] = exp({terms})")
            else:
                terms = " + ".join(f"{rng.uniform(-0.15, 0.15)!r}*{m}" for m in monos)
                lines.append(f"g[{i},{j}] = {terms}")
    return "\n".join(lines)


@pytest.fixture(scope="session")
def sphere2():
    return parse_metric(SPHERE2)


@pytest.fixture(scope="session")
def hyperbolic2():
    return parse_metric(HYPERBOLIC2)


@pytest.fixture(scope="session")
def revolution():
    return parse_metric(REVOLUTION)


@pytest.fixture(scope="session")
def sphere3():
    return parse_metric(SPHERE3)


@pytest.fixture(scope="session")
def schwarzschild():
    return parse_metric(SCHWARZSCHILD)


@pytest.fixture(scope="session")
def ppwave():
    return parse_metric(PPWAVE)


@pytest.fixture(scope="session")
def flat3():
    return parse_metric(flat_metric_text(3))


@pytest.fixture(scope="session")
def flat4():
    return parse_metric(flat_metric_text(4))
