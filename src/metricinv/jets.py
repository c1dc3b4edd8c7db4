"""Truncated multivariate Taylor ("jet") arithmetic at a point.

A Jet stores the Taylor coefficients c_alpha = (d^alpha f) / alpha! of a
scalar function at a fixed base point, for all multi-indices |alpha| <= K.
Storing coefficients rather than raw derivatives keeps multiplication a
plain truncated convolution; the raw derivative d^alpha f is alpha! c_alpha.

Coefficient storage is dense over the full simplex of multi-indices,
enumerated in graded lexicographic order so that the degree <= d block is a
shared prefix of every higher-order enumeration. All coefficient sums are
accumulated in a fixed order, which makes truncation commute with every
operation exactly (not just up to rounding): evaluating at order K+1 and
restricting to order K reproduces the order-K evaluation bit for bit.

Jets are immutable values and all operations are pure. The curvature
pipeline stores whole tensors as float arrays of coefficients with leading
index axes; `cauchy_product` multiplies such arrays entry by entry and is
the one product of the package (`Jet.__mul__` is its rank-0 case).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    InsufficientOrderError,
    ShapeMismatchError,
)


def _compositions(total: int, parts: int):
    """All multi-indices with given total degree, first slot descending."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


class _JetContext:
    """Shared index tables for the ring of order-K jets in n variables.

    The product table lists triples (i, j, k) with alpha_i + alpha_j =
    alpha_k, sorted by (k, i, j); `np.bincount` then accumulates each
    target coefficient in that fixed order.
    """

    __slots__ = (
        "n_vars", "order", "multi_indices", "index", "size",
        "prod_i", "prod_j", "prod_k", "diff_src", "diff_fact",
    )

    def __init__(self, n_vars: int, order: int):
        self.n_vars = n_vars
        self.order = order
        mi = []
        for degree in range(order + 1):
            mi.extend(_compositions(degree, n_vars))
        self.multi_indices = tuple(mi)
        self.index = {alpha: pos for pos, alpha in enumerate(mi)}
        self.size = len(mi)

        triples = []
        for i, a in enumerate(mi):
            da = sum(a)
            for j, b in enumerate(mi):
                if da + sum(b) > order:
                    continue
                k = self.index[tuple(x + y for x, y in zip(a, b))]
                triples.append((k, i, j))
        triples.sort()
        self.prod_k = np.array([t[0] for t in triples], dtype=np.intp)
        self.prod_i = np.array([t[1] for t in triples], dtype=np.intp)
        self.prod_j = np.array([t[2] for t in triples], dtype=np.intp)

        # Maps into the order-(K-1) context for partial differentiation.
        self.diff_src = []
        self.diff_fact = []
        if order >= 1:
            lower = [alpha for alpha in mi if sum(alpha) <= order - 1]
            for v in range(n_vars):
                src = np.empty(len(lower), dtype=np.intp)
                fact = np.empty(len(lower))
                for p, beta in enumerate(lower):
                    up = list(beta)
                    up[v] += 1
                    src[p] = self.index[tuple(up)]
                    fact[p] = beta[v] + 1
                self.diff_src.append(src)
                self.diff_fact.append(fact)


@lru_cache(maxsize=None)
def _context(n_vars: int, order: int) -> _JetContext:
    if n_vars < 1:
        raise ShapeMismatchError("jets need at least one variable")
    if order < 0:
        raise ShapeMismatchError("jet order must be non-negative")
    return _JetContext(n_vars, order)


# -- coefficient arrays: last axis the ctx.size coefficients, leading axes indices


def cauchy_product(a: np.ndarray, b: np.ndarray, ctx: _JetContext) -> np.ndarray:
    """Truncated Cauchy product of coefficient arrays, broadcast over index axes.

    Every target coefficient is accumulated over the product table in its
    fixed (k, i, j) order, so each entry is bitwise the product of the two
    entries' jets, whatever the batch shape.
    """
    prods = a.take(ctx.prod_i, axis=-1) * b.take(ctx.prod_j, axis=-1)
    batch = prods.shape[:-1]
    bins = ctx.prod_k
    n_bins = prods.size // bins.size * ctx.size
    if batch:
        bins = (np.arange(0, n_bins, ctx.size)[:, None] + bins).ravel()
    c = np.bincount(bins, weights=prods.ravel(), minlength=n_bins)
    return c.reshape(batch + (ctx.size,))


def contract(a: np.ndarray, b: np.ndarray, ctx: _JetContext) -> np.ndarray:
    """Sum over q of a[..., q] * b[q, ...], one index at a time.

    The result carries a's remaining index axes followed by b's. Terms are
    added in ascending q, and only one q's products exist at a time.
    """
    a = a.reshape(a.shape[:-1] + (1,) * (b.ndim - 2) + a.shape[-1:])
    a = np.moveaxis(a, a.ndim - b.ndim, 0)
    total = cauchy_product(a[0], b[0], ctx)
    for q in range(1, len(b)):
        total = total + cauchy_product(a[q], b[q], ctx)
    return total


def partials(c: np.ndarray, ctx: _JetContext) -> np.ndarray:
    """First partial derivatives on a new leading axis; the order drops by one."""
    if ctx.order < 1:
        raise InsufficientOrderError("derivative needs a jet of order >= 1")
    return np.stack([
        c.take(src, axis=-1) * fact for src, fact in zip(ctx.diff_src, ctx.diff_fact)
    ])


class Jet:
    """Truncated Taylor expansion of a scalar quantity at a point."""

    __slots__ = ("ctx", "c")

    def __init__(self, n_vars: int, order: int, coeffs):
        ctx = _context(n_vars, order)
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (ctx.size,):
            raise ShapeMismatchError(
                f"expected {ctx.size} coefficients for n_vars={n_vars}, "
                f"order={order}, got shape {c.shape}"
            )
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: float, n_vars: int, order: int) -> "Jet":
        ctx = _context(n_vars, order)
        c = np.zeros(ctx.size)
        c[0] = value
        return Jet(n_vars, order, c)

    # -- basic queries -----------------------------------------------------

    @property
    def n_vars(self) -> int:
        return self.ctx.n_vars

    @property
    def order(self) -> int:
        return self.ctx.order

    @property
    def value(self) -> float:
        """Constant term, i.e. the function value at the base point."""
        return float(self.c[0])

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "Jet"):
        if self.ctx is not other.ctx:
            raise ShapeMismatchError(
                f"cannot combine jets with (n_vars, order) = "
                f"({self.n_vars}, {self.order}) and "
                f"({other.n_vars}, {other.order})"
            )

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self.n_vars, self.order, self.c + other.c)
        return NotImplemented

    def __neg__(self):
        return Jet(self.n_vars, self.order, -self.c)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self.n_vars, self.order, self.c - other.c)
        if isinstance(other, Real):
            c = self.c.copy()
            c[0] -= other
            return Jet(self.n_vars, self.order, c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self.n_vars, self.order, cauchy_product(self.c, other.c, self.ctx))
        if isinstance(other, Real):
            return Jet(self.n_vars, self.order, self.c * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * apply_fn("recip", other)
        return NotImplemented

    def __repr__(self):
        terms = []
        for alpha, coeff in zip(self.ctx.multi_indices, self.c):
            if coeff != 0.0:
                terms.append(f"{alpha}:{coeff:.6g}")
        body = ", ".join(terms) if terms else "0"
        return f"Jet(n={self.n_vars}, K={self.order}; {body})"


def seed(point: Sequence[float], var_index: int, order: int) -> Jet:
    """Jet of the coordinate function x^var_index at `point`."""
    n = len(point)
    if not 0 <= var_index < n:
        raise IndexError(f"var_index {var_index} out of range for {n} coordinates")
    j = Jet.constant(float(point[var_index]), n, order)
    if order >= 1:
        c = j.c.copy()
        c[1 + var_index] = 1.0
        return Jet(n, order, c)
    return j


def _int_pow(a: Jet, e: int) -> Jet:
    if e < 0:
        return _int_pow(apply_fn("recip", a), -e)
    result = Jet.constant(1.0, a.n_vars, a.order)
    base = a
    while e:
        if e & 1:
            result = result * base
        base_needed = e > 1
        if base_needed:
            base = base * base
        e >>= 1
    return result


def _compose(outer: Sequence[float], a: Jet) -> Jet:
    """Sum outer[j] * h^j for the nilpotent part h = a - a.value.

    Power-sum accumulation in ascending j; each h^j has exact zeros below
    degree j, so restriction to a lower order commutes with composition
    exactly.
    """
    h = a - a.value
    acc = np.zeros(a.ctx.size)
    acc[0] = outer[0]
    power = None
    for j in range(1, a.order + 1):
        power = h if power is None else power * h
        acc = acc + outer[j] * power.c
    return Jet(a.n_vars, a.order, acc)


# Derivative cycles: f^(j)(c0) is entry j mod len of the tuple at c0.
_DERIVATIVE_CYCLES: dict[str, Callable[[float], tuple[float, ...]]] = {
    "sin": lambda x: (math.sin(x), math.cos(x), -math.sin(x), -math.cos(x)),
    "cos": lambda x: (math.cos(x), -math.sin(x), -math.cos(x), math.sin(x)),
    "exp": lambda x: (math.exp(x),),
    "sinh": lambda x: (math.sinh(x), math.cosh(x)),
    "cosh": lambda x: (math.cosh(x), math.sinh(x)),
}


def _unit(a: Jet) -> Jet:
    """a / c0, whose constant term is exactly 1."""
    return Jet(a.n_vars, a.order, a.c / a.value)


def _series(tag: str, c0: float, order: int) -> list[float]:
    """Taylor coefficients f^(j)(c0) / j! of an elementary function, j <= order.

    log and recip are expanded in u = a / c0 - 1 instead, as log c0 +
    log(1 + u) and (1 + u)^-1 / c0, so that no power of c0 is formed.
    """
    try:
        if tag == "log":
            if c0 <= 0.0:
                raise DomainError(f"log of jet with non-positive constant term {c0}")
            return [math.log(c0)] + [(-1.0) ** (j - 1) / j for j in range(1, order + 1)]
        if tag == "recip":
            if c0 == 0.0:
                raise DomainError("reciprocal of jet with zero constant term")
            p = 1.0 / c0
            return [p if j % 2 == 0 else -p for j in range(order + 1)]
        cycle = _DERIVATIVE_CYCLES[tag](c0)
    except OverflowError:
        raise DomainError(f"{tag} overflows at constant term {c0!r}") from None
    fact = 1.0
    out = []
    for j in range(order + 1):
        if j:
            fact *= j
        out.append(cycle[j % len(cycle)] / fact)
    return out


def jet_pow(a: Jet, exponent: Fraction) -> Jet:
    """a**exponent for a rational exponent.

    Integer exponents go through repeated multiplication (valid for any
    constant term when >= 0); fractional ones through the binomial series
    of (a / c0)^r, times c0^r, which needs a positive constant term.
    """
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        return _int_pow(a, int(exponent))
    c0 = a.value
    if c0 <= 0.0:
        raise DomainError(
            f"fractional power {exponent} of jet with non-positive "
            f"constant term {c0}"
        )
    r = float(exponent)
    try:
        outer = [math.pow(c0, r)]
    except OverflowError:
        raise DomainError(f"power {exponent} overflows at constant term {c0!r}") from None
    for j in range(1, a.order + 1):
        outer.append(outer[-1] * (r - (j - 1)) / j)
    return _compose(outer, _unit(a))


def apply_fn(tag: str, a: Jet) -> Jet:
    """Apply an elementary function to a jet by series composition."""
    if tag == "tan":
        cos_a = _compose(_series("cos", a.value, a.order), a)
        if cos_a.value == 0.0:
            raise DomainError("tan of jet at a pole (cos of constant term is 0)")
        return _compose(_series("sin", a.value, a.order), a) * apply_fn("recip", cos_a)
    if tag == "tanh":
        cosh_a = _compose(_series("cosh", a.value, a.order), a)
        return _compose(_series("sinh", a.value, a.order), a) * apply_fn("recip", cosh_a)
    if tag == "sqrt":
        return jet_pow(a, Fraction(1, 2))
    if tag in ("log", "recip"):
        return _compose(_series(tag, a.value, a.order), _unit(a))
    if tag not in _DERIVATIVE_CYCLES:
        raise ValueError(f"unknown function tag '{tag}'")
    return _compose(_series(tag, a.value, a.order), a)
