"""Spans at metricinv's module boundaries, recorded from outside the program.

A boundary is a function attribute on the module that *calls* it: for
example `invariants.curvature_point` is the name `invariant_sample` looks
up, so replacing that attribute puts a span around every call the
pipeline makes. Nothing under `src/` is changed; `Tracer.uninstall`
restores every attribute it replaced.

Each span is recorded as `[name, start, end, parent, op, error, note]`:
start and end are `time.perf_counter()` seconds, `parent` the index of
the enclosing span (-1 for none), `op` the benchmark's operation id,
`error` the exception type name if the call raised, and `note` a small
value read off the result (see `NOTES`). A span's self time is its
duration minus the durations of its direct children; calls run on one
thread and nest, so children never overlap.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from metricinv import cli, curvature, invariants, jets, metriclang, symmetry

# (calling module, attribute, span name). Several attributes may share a
# span name; their self times add up under that name.
BOUNDARIES = (
    (symmetry, "homogeneity", "symmetry.self"),
    (symmetry, "invariant_sample", "invariants.self"),
    (invariants, "invariant_sample", "invariants.self"),
    (invariants, "curvature_point", "curvature.self"),
    (invariants, "ricci_traces", "invariants.ricci_traces"),
    (invariants, "surface_invariant_pair", "invariants.ricci_traces"),
    (invariants, "weyl_traces", "invariants.weyl_traces"),
    (invariants, "tresse_frame", "invariants.frame"),
    (invariants, "higher_invariants", "invariants.higher"),
    (curvature, "metric_at", "curvature.metric_at"),
    # Only the outermost eval_expr: its recursion goes through
    # metriclang's own global, which stays unwrapped.
    (curvature, "eval_expr", "metriclang.eval"),
    (curvature, "christoffel", "curvature.christoffel"),
    (curvature, "riemann", "curvature.riemann"),
    (curvature, "ricci", "curvature.ricci"),
    (curvature, "ricci_operator", "curvature.ricci"),
    (curvature, "weyl", "curvature.weyl"),
    (curvature, "covariant_derivative", "curvature.nabla"),
    (metriclang, "parse_metric", "metriclang.parse"),
    (cli, "main", "cli.self"),
    (cli, "emit", "cli.emit"),
    (cli, "poincare", "counting.poincare"),
    (cli, "cumulative_generating_function", "counting.poincare"),
    (cli, "pole_order_at_one", "counting.poincare"),
    (cli, "series_expand", "counting.series"),
    (cli, "s_count", "counting.counts"),
    (cli, "delta_count", "counting.counts"),
)

# Values kept from a span's result: invariants emitted by one
# invariant_sample call, and (skipped, sampled) points of one homogeneity.
NOTES = {
    "invariants.self": lambda result: len(result[0]),
    "symmetry.self": lambda r: (len(r.skipped), len(r.skipped) + len(r.points)),
}

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in BOUNDARIES))


class Tracer:
    """Records spans and `Jet` call counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_counts: dict[int, list[int]] = {}
        self._stack = [-1]
        self._op = -1
        self._jet_counts = [0, 0]  # Jet.__mul__ calls, Jet.__init__ calls
        self._saved: list[tuple[object, str, object]] = []

    # -- installing the wrappers ------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, clock(), 0.0, stack[-1], self._op, None, None]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if note is not None:
                record[6] = note(result)
            return result

        return traced

    def _jet_counters(self, jet_cls):
        counts = self._jet_counts
        mul, init = jet_cls.__mul__, jet_cls.__init__

        def counted_mul(a, b):
            counts[0] += 1
            return mul(a, b)

        def counted_init(self_, *args, **kwargs):
            counts[1] += 1
            init(self_, *args, **kwargs)

        return {"__mul__": counted_mul, "__rmul__": counted_mul, "__init__": counted_init}

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, op: int) -> None:
        """Wrap every boundary and start attributing spans to `op`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._op = op
        self._jet_counts[:] = [0, 0]
        for module, attr, name in BOUNDARIES:
            self._replace(module, attr, self._span(name, getattr(module, attr)))
        for attr, fn in self._jet_counters(jets.Jet).items():
            self._replace(jets.Jet, attr, fn)

    def uninstall(self) -> None:
        """Restore every replaced attribute and store the op's Jet counts."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.op_counts[self._op] = list(self._jet_counts)
        self._op = -1

    # -- reading the spans ------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, the summed self seconds of each span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, error, note in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, parent, op, error, note) in enumerate(self.spans):
            out[op][name] += end - start - child[idx]
        return out

    def layer_metrics(self, op_walls: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics over the traced ops whose wall times are given.

        Times and counts are means per op: the workloads mix kinds of op
        (two metrics, two CLI commands) whose layers differ, where a
        median would land on one kind, and means add up to the mean op.
        """
        ops = sorted(op_walls)
        selfs = self.self_times()
        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}_ms"] = statistics.fmean(
                1e3 * selfs.get(op, {}).get(name, 0.0) for op in ops
            )

        def spans(name, error=None):
            return [s for s in self.spans
                    if s[0] == name and s[4] in op_walls and (error is None or s[5] == error)]

        def ratio(num, den):
            return num / den if den else 0.0

        metrics["jets.mul_count"] = statistics.fmean(self.op_counts[op][0] for op in ops)
        metrics["jets.jet_count"] = statistics.fmean(self.op_counts[op][1] for op in ops)
        # Each covariant_derivative call builds one nabla^s R (s >= 1); each
        # higher_invariants call consumes one.
        metrics["curvature.nabla_used_ratio"] = ratio(
            len(spans("invariants.higher")), len(spans("curvature.nabla"))
        )
        metrics["invariants.frame_singular_ratio"] = ratio(
            len(spans("invariants.frame", "SingularFrameError")), len(spans("invariants.frame"))
        )
        metrics["invariants.emitted_count"] = (
            sum(s[6] or 0 for s in spans("invariants.self")) / len(ops)
        )
        sampled = [s[6] for s in spans("symmetry.self") if s[6]]
        metrics["symmetry.skipped_ratio"] = ratio(
            sum(skipped for skipped, _ in sampled), sum(total for _, total in sampled)
        )
        # Time inside a traced op that no span covers: benchmark glue and
        # the tracer's own bookkeeping between spans.
        metrics["trace.unattributed_ratio"] = statistics.median(
            (op_walls[op] - sum(selfs.get(op, {}).values())) / op_walls[op] for op in ops
        )
        return metrics

    def to_json(self) -> dict:
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "op", "error", "note"],
            "spans": self.spans,
            "jet_counts": {
                str(op): {"jets.mul": c[0], "jets.init": c[1]}
                for op, c in sorted(self.op_counts.items())
            },
        }
