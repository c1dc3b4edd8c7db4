"""The host's momentary speed, read off a fixed reference computation.

The benchmark runs on a shared host whose other load slows every
CPU-bound program on it, by up to about 1.8x, for stretches from a second
to several minutes. A run of 30 s can fall wholly in a slow or a fast
stretch, so raw latencies differ by more between runs than any change of
metricinv that is worth measuring.

The benchmark therefore times `reference()` between operations. It does
the same kinds of work as metricinv (small Python objects with float
arithmetic, tuple-keyed dicts, small numpy products), and it never
changes, so its time tracks how fast the host is running at that moment.
An operation's scaled latency is its wall time times
`REFERENCE_MS / t_ref`, with `t_ref` the mean time of the reference runs
just before and just after it: the latency it would have had on this
host when the reference takes `REFERENCE_MS`, about its time without
other load on the 2-vCPU virtual machine where the baseline was measured.
A change that makes metricinv faster or slower moves the scaled latency by
the same factor as the wall time. Set-up times, measured in child
processes at points spread over a run, are scaled by the run's mean
factor (see `run.py`).
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_MS = 2.7


class _Dual:
    """A dual number, as a stand-in for metricinv's small `Jet` objects."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b

    def __mul__(self, other: _Dual) -> _Dual:
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    def __add__(self, other: _Dual) -> _Dual:
        return _Dual(self.a + other.a, self.b + other.b)


def reference() -> float:
    """A fixed computation of about `REFERENCE_MS` ms on an idle host."""
    table: dict[tuple[int, int], float] = {}
    x, y = _Dual(1.0, 0.0), _Dual(0.999, 0.001)
    for i in range(2500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + i * 1.0001
        x = x * y + y
    m = np.arange(16.0).reshape(4, 4)
    for _ in range(100):
        m = np.einsum("ij,jk->ik", m, m) * 1e-3 + 1.0
    return x.b + sum(table.values()) + float(m[0, 0])


def probe_ms() -> float:
    """Wall milliseconds of one `reference()` run."""
    start = time.perf_counter()
    reference()
    return 1e3 * (time.perf_counter() - start)
