"""Command-line surface: curvature, invariants, homogeneity, count, poincare.

Every command builds one Report; JSON is the single machine format and the
text renderer prints the same numbers. Exit codes: 0 success, 2 input
error, 3 mathematical domain error, 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import __version__
from .counting import (
    cumulative_generating_function,
    delta_count,
    poincare,
    pole_order_at_one,
    s_count,
    series_expand,
)
from .curvature import DEFAULT_FRAME_RTOL, curvature_point
from .errors import (
    AllPointsSingularError,
    DomainError,
    InsufficientOrderError,
    MetricInvError,
    MetricLangError,
    SingularMetricError,
    UnsupportedDimensionError,
)
from .invariants import invariant_vector
from .metriclang import MetricSpec, parse_metric
from .symmetry import homogeneity

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

_DOMAIN_ERRORS = (
    DomainError,
    SingularMetricError,
    AllPointsSingularError,
    InsufficientOrderError,
    UnsupportedDimensionError,
)


@dataclass
class Report:
    command: str
    parameters: dict[str, Any]
    results: dict[str, Any] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    metric_digest: str | None = None
    wall_time_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "tool": "metricinv",
            "version": __version__,
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "warnings": self.warnings,
            "wall_time_s": self.wall_time_s,
        }
        if self.metric_digest is not None:
            doc["metric_digest"] = self.metric_digest
        return doc


def _load_metric(path: str) -> tuple[MetricSpec, str]:
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    return parse_metric(raw.decode("utf-8")), digest


def _parse_coordinates(
    text: str, spec: MetricSpec, flag: str, width: int
) -> list[tuple[float, ...]]:
    """Finite `name=v` (width 1) or `name=lo:hi` (width 2) items, one per coordinate."""
    found: dict[str, tuple[float, ...]] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep:
            raise MetricLangError(f"bad {flag} component {item!r}; expected name=value")
        if name not in spec.coords:
            raise MetricLangError(f"unknown coordinate {name!r} in {flag}")
        if name in found:
            raise MetricLangError(f"coordinate {name!r} given twice in {flag}")
        parts = value.split(":")
        if len(parts) != width:
            form = "lo:hi" if width == 2 else "one number"
            raise MetricLangError(f"bad value {value!r} for {name!r} in {flag}; expected {form}")
        numbers = tuple(float(p) for p in parts)
        if not all(math.isfinite(x) for x in numbers):
            raise MetricLangError(f"non-finite value {value!r} for {name!r} in {flag}")
        found[name] = numbers
    missing = [c for c in spec.coords if c not in found]
    if missing:
        raise MetricLangError(f"{flag} missing coordinates: {', '.join(missing)}")
    return [found[c] for c in spec.coords]


def _parse_point(text: str, spec: MetricSpec) -> tuple[float, ...]:
    return tuple(x for (x,) in _parse_coordinates(text, spec, "--point", 1))


def _parse_box(text: str, spec: MetricSpec) -> list[tuple[float, float]]:
    return _parse_coordinates(text, spec, "--box", 2)


def _tensor_lists(values: np.ndarray):
    return np.asarray(values, dtype=float).tolist()


# -- subcommand implementations --------------------------------------------------


def cmd_curvature(args) -> Report:
    spec, digest = _load_metric(args.metric)
    point = _parse_point(args.point, spec)
    if args.order < 2:
        raise ValueError(f"--order must be >= 2, got {args.order}")
    report = Report(
        command="curvature",
        parameters={
            "metric": args.metric,
            "point": {c: p for c, p in zip(spec.coords, point)},
            "order": args.order,
        },
        metric_digest=digest,
    )
    curv = curvature_point(spec, point, args.order)
    report.results = {
        "dim": spec.dim,
        "coords": list(spec.coords),
        "signature": list(spec.signature),
        "g": _tensor_lists(curv.g.values()),
        "g_inv": _tensor_lists(curv.g_inv.values()),
        "christoffel": _tensor_lists(curv.gamma.values()),
        "riemann_lower": _tensor_lists(curv.riemann_lower.values()),
        "ricci": _tensor_lists(curv.ricci.values()),
        "scalar_curvature": _tensor_lists(curv.scalar.values()),
        "ricci_operator": _tensor_lists(curv.ricci_op.values()),
        "weyl": _tensor_lists(curv.weyl.values()) if curv.weyl is not None else None,
    }
    if spec.dim == 2:
        report.warnings.append("Weyl tensor undefined for dim 2; field omitted")
    return report


def cmd_invariants(args) -> Report:
    spec, digest = _load_metric(args.metric)
    point = _parse_point(args.point, spec)
    report = Report(
        command="invariants",
        parameters={
            "metric": args.metric,
            "point": {c: p for c, p in zip(spec.coords, point)},
            "max_order": args.max_order,
        },
        metric_digest=digest,
    )
    iv = invariant_vector(spec, point, max_order=args.max_order)
    report.results = {
        "dim": spec.dim,
        "max_order": iv.max_order,
        "count": len(iv),
        "labels": list(iv.labels),
        "values": iv.values_array().tolist(),
    }
    report.warnings.extend(iv.warnings)
    return report


def cmd_homogeneity(args) -> Report:
    spec, digest = _load_metric(args.metric)
    box = _parse_box(args.box, spec)
    report = Report(
        command="homogeneity",
        parameters={
            "metric": args.metric,
            "box": {c: list(b) for c, b in zip(spec.coords, box)},
            "samples": args.samples,
            "seed": args.seed,
            "max_order": args.max_order,
            "rel_tol": args.rel_tol,
        },
        metric_digest=digest,
    )
    rr = homogeneity(
        spec,
        box,
        n_samples=args.samples,
        max_order=args.max_order,
        seed=args.seed,
        rel_tol=args.rel_tol,
    )
    report.results = {
        "dim": rr.n,
        "max_order": rr.max_order,
        "seed": rr.seed,
        "consensus_rank": rr.rank,
        "homogeneity": rr.homogeneity,
        "invariant_max": rr.invariant_max,
        "riemann_max": rr.riemann_max,
        "gradient_max": rr.gradient_max,
        "regularity_warning": rr.regularity_warning,
        "is_riemannian": rr.is_riemannian,
        "claims_killing_fields": rr.claims_killing_fields,
        "samples": [
            {
                "point": list(p),
                "singular_values": list(sv),
                "rank": rk,
            }
            for p, sv, rk in zip(rr.points, rr.singular_values, rr.ranks)
        ],
        "skipped": [
            {"point": list(p), "reason": reason} for p, reason in rr.skipped
        ],
    }
    report.warnings.extend(rr.warnings)
    return report


def cmd_count(args) -> Report:
    report = Report(
        command="count",
        parameters={"dim": args.dim, "max_k": args.max_k},
    )
    if args.max_k < 0:
        raise ValueError(f"--max-k must be >= 0, got {args.max_k}")
    ks = list(range(args.max_k + 1))
    report.results = {
        "dim": args.dim,
        "k": ks,
        "s": [s_count(args.dim, k) for k in ks],
        "delta": [delta_count(args.dim, k) for k in ks],
    }
    return report


def cmd_poincare(args) -> Report:
    report = Report(
        command="poincare",
        parameters={"dim": args.dim, "expand": args.expand},
    )
    p = poincare(args.dim)
    q = cumulative_generating_function(args.dim)
    report.results = {
        "dim": args.dim,
        "numerator": list(p.numerator),
        "denominator": list(p.denominator),
        "series_delta": series_expand(p, args.expand),
        "series_s": series_expand(q, args.expand),
        "pole_order_at_one": pole_order_at_one(p),
    }
    return report


# -- rendering --------------------------------------------------------------------


def _render_value(value: Any, indent: str = "") -> str:
    if isinstance(value, dict):
        lines = []
        for key, sub in value.items():
            rendered = _render_value(sub, indent + "  ")
            if "\n" in rendered or isinstance(sub, (dict, list)) and sub:
                lines.append(f"{indent}{key}:")
                lines.append(rendered)
            else:
                lines.append(f"{indent}{key}: {rendered.strip()}")
        return "\n".join(lines)
    if isinstance(value, list):
        flat = json.dumps(value)
        if len(flat) <= 100:
            return f"{indent}{flat}"
        return "\n".join(f"{indent}- {_render_value(v).strip()}" for v in value)
    return f"{indent}{value!r}" if isinstance(value, str) else f"{indent}{value}"


def render_text(report: Report) -> str:
    lines = [f"metricinv {report.command}"]
    if report.metric_digest:
        lines.append(f"metric sha256: {report.metric_digest}")
    lines.append("parameters:")
    lines.append(_render_value(report.parameters, "  "))
    lines.append("results:")
    lines.append(_render_value(report.results, "  "))
    if report.warnings:
        lines.append("warnings:")
        for w in report.warnings:
            lines.append(f"  ! {w}")
    lines.append(f"wall time: {report.wall_time_s:.3f} s")
    return "\n".join(lines)


def emit(report: Report, fmt: str, stream=None) -> None:
    """Write the report; raise DomainError, writing nothing, if it holds NaN or infinity."""
    stream = stream if stream is not None else sys.stdout
    try:
        doc = json.dumps(report.to_dict(), indent=2, allow_nan=False)
    except ValueError:
        raise DomainError(f"the {report.command} report holds a non-finite number") from None
    if fmt == "auto":
        fmt = "text" if stream.isatty() else "json"
    stream.write(doc if fmt == "json" else render_text(report))
    stream.write("\n")


# -- argument parsing ---------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="metricinv",
        description="Scalar curvature invariants and symmetry estimation "
        "for (pseudo-)Riemannian metrics.",
    )
    common = _ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=["auto", "json", "text"], default="auto",
        help="output format (default: text on a terminal, json when piped)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("curvature", help="curvature tensors at a point", parents=[common])
    p.add_argument("--metric", required=True, help="metric definition file")
    p.add_argument("--point", required=True, help='evaluation point, e.g. "x=1,y=0.5"')
    p.add_argument("--order", type=int, default=2, help="metric jet order (default 2)")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("invariants", parents=[common], help="scalar invariants at a point")
    p.add_argument("--metric", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--max-order", type=int, default=2, dest="max_order")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("homogeneity", parents=[common], help="symmetry-orbit dimension over a box")
    p.add_argument("--metric", required=True)
    p.add_argument("--box", required=True, help='sampling box, e.g. "x=0.5:2.5,y=-1:1"')
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-order", type=int, default=2, dest="max_order")
    p.add_argument("--rel-tol", type=float, default=DEFAULT_FRAME_RTOL, dest="rel_tol")
    p.set_defaults(func=cmd_homogeneity)

    p = sub.add_parser("count", parents=[common], help="invariant counts s_k and delta_k")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-k", type=int, default=8, dest="max_k")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("poincare", parents=[common], help="generating function of the counts")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--expand", type=int, default=12)
    p.set_defaults(func=cmd_poincare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_INPUT

    start = time.perf_counter()
    try:
        report = args.func(args)
    except _DOMAIN_ERRORS as exc:
        return _domain_exit(exc)
    except (MetricLangError, OSError, ValueError) as exc:
        return _input_exit(exc)
    except RecursionError:
        return _input_exit("a metric expression is nested too deeply")
    except MemoryError:
        return _input_exit("the requested jet order needs more memory than is available")
    except AssertionError as exc:
        print(f"metricinv: internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report.wall_time_s = time.perf_counter() - start
    try:
        emit(report, args.format)
    except DomainError as exc:  # a non-finite number, found before anything is written
        return _domain_exit(exc)
    except BrokenPipeError:  # the reader has gone: what is left, and the flush at exit, go nowhere
        sys.stdout = open(os.devnull, "w")
    return EXIT_OK


def _input_exit(reason: object) -> int:
    print(f"metricinv: input error: {reason}", file=sys.stderr)
    return EXIT_INPUT


def _domain_exit(exc: Exception) -> int:
    print(f"metricinv: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
