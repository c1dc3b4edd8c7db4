"""Exact counts of scalar metric invariants and their generating functions.

Everything here is integer/rational arithmetic; no floating point. s_count
gives the number of independent invariants of order <= k, delta_count the
number of pure order k, and poincare(n) the rational generating function
of the delta sequence. Both generating functions are stated in closed form,
N_n(z) / (1 - z)^n for the delta counts and N_n(z) / (1 - z)^(n+1) for the
cumulative counts. Neither pair can cancel, because N_n(1) != 0 and
z = 1 is the only root of (1 - z)^e, so each is constructed reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import PoleAtZeroError

# -- integer polynomial helpers (dense, ascending powers of z) ----------------


def _trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _is_zero(a) -> bool:
    return all(x == 0 for x in a)


@dataclass(frozen=True)
class RationalFunction:
    """numerator(z) / denominator(z) with integer coefficients.

    Stored as constructed; nothing is cancelled. `poincare` and
    `cumulative_generating_function` construct theirs reduced, with a
    denominator of positive leading coefficient. A pole at z = 0 shows as
    a denominator with zero constant term.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]


def series_expand(f: RationalFunction, k_max: int) -> list[int]:
    """Exact Taylor coefficients c_0..c_k_max of f around z = 0."""
    if k_max < 0:
        raise ValueError(f"series length k_max must be >= 0, got {k_max}")
    num, den = f.numerator, f.denominator
    if den[0] == 0:
        raise PoleAtZeroError("denominator vanishes at z = 0")
    d0 = Fraction(den[0])
    coeffs: list[Fraction] = []
    for k in range(k_max + 1):
        acc = Fraction(num[k] if k < len(num) else 0)
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * coeffs[k - i]
        coeffs.append(acc / d0)
    return [int(c) if c.denominator == 1 else c for c in coeffs]


def _multiplicity_at_one(p) -> int:
    """Multiplicity of the root z = 1, by repeated synthetic division."""
    p = list(p)
    mult = 0
    while not _is_zero(p) and sum(p) == 0:
        # divide by (z - 1): q_i from Horner, remainder = p(1) = 0
        q = [0] * (len(p) - 1)
        carry = 0
        for i in range(len(p) - 1, 0, -1):
            carry += p[i]
            q[i - 1] = carry
        p = _trim(q)
        mult += 1
    return mult


def pole_order_at_one(f: RationalFunction) -> int:
    """Order of the pole of f at z = 1 (0 when there is none)."""
    return max(
        0,
        _multiplicity_at_one(f.denominator) - _multiplicity_at_one(f.numerator),
    )


# -- the counts ----------------------------------------------------------------


def _check_dim(n: int):
    if n < 2:
        raise ValueError(f"invariant counts need dimension n >= 2, got {n}")


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    assert r == 0, f"count formula produced non-integer {num}/{den}"
    return q


def s_count(n: int, k: int) -> int:
    """Number of independent scalar invariants of order <= k."""
    _check_dim(n)
    if k < 2:
        return 0
    if n == 2:
        return (k + 1) * (k - 2) // 2 + (1 if k == 2 else 0)
    return n + _exact_div(
        (n * n * (k - 1) - n * (k + 1)) * comb(n + k, k), 2 * (k + 1)
    )


def delta_count(n: int, k: int) -> int:
    """Number of scalar invariants of pure order k."""
    _check_dim(n)
    if k < 2:
        return 0
    if n == 2:
        return k - 1 - (1 if k == 3 else 0)
    if k == 2:
        return n + _exact_div((n + 2) * (n + 1) * n * (n - 3), 12)
    return _exact_div(n * (k - 1) * comb(n + k - 1, k + 1), 2)


def weyl_trace_count(n: int) -> int:
    """Number of independent order-2 invariants beyond the n power traces."""
    _check_dim(n)
    return _exact_div((n + 2) * (n + 1) * n * (n - 3), 12)


def _one_minus_z_power(e: int) -> list[int]:
    """(1 - z)^e, ascending powers."""
    return [(-1) ** i * comb(e, i) for i in range(e + 1)]


def _numerator(n: int) -> list[int]:
    """N_n(z), the numerator of poincare(n) over (1 - z)^n.

    For n >= 3 it is [(n + C(n,2) z (1 - z^2)) (1 - z)^n - n + C(n+1,2) z] / z,
    the sum n/z + C(n,2)(1 - z^2) - (n - C(n+1,2) z) / (z (1 - z)^n) of the
    order counts over the common denominator; the bracket's constant term
    n - n vanishes, which is asserted before dividing by z. N_2 is
    z^2 (1 - z + 2z^2 - z^3).
    """
    if n == 2:
        return [0, 0, 1, -1, 2, -1]
    c2 = comb(n, 2)
    bracket = _pmul([n, c2, 0, -c2], _one_minus_z_power(n))
    bracket[0] -= n
    bracket[1] += comb(n + 1, 2)
    assert bracket[0] == 0, "the order-count numerator has a pole at z = 0"
    return bracket[1:]


def _over_one_minus_z_power(num: list[int], e: int) -> RationalFunction:
    """num(z) / (1 - z)^e, both sides times (-1)^e so that the denominator's
    leading coefficient is positive.

    The only root of (1 - z)^e is z = 1 and its content is 1, so the pair
    is reduced exactly when num(1) = sum(num) is not 0; that is asserted.
    """
    assert sum(num) != 0, "numerator vanishes at z = 1"
    sign = (-1) ** e
    return RationalFunction(
        tuple(sign * x for x in num),
        tuple(sign * x for x in _one_minus_z_power(e)),
    )


def poincare(n: int) -> RationalFunction:
    """Generating function of delta_count(n, .): N_n(z) / (1 - z)^n.

    N_n(1) = C(n,2) (N_2(1) = 1) is not 0, so the pair is reduced and the
    pole at z = 1 has order n.
    """
    _check_dim(n)
    return _over_one_minus_z_power(_numerator(n), n)


def cumulative_generating_function(n: int) -> RationalFunction:
    """Generating function of s_count(n, .): N_n(z) / (1 - z)^(n+1)."""
    _check_dim(n)
    return _over_one_minus_z_power(_numerator(n), n + 1)
