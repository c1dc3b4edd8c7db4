"""Printer for metric expressions, the oracle of the parser's round-trip tests.

`format_expr` renders an expression tree so that `parse_expression`
rebuilds a structurally equal tree, and `format_metric` renders a whole
`MetricSpec` as a metric file that `parse_metric` reads back to an equal
spec.
"""

from typing import Sequence

from metricinv.metriclang import (
    ZERO,
    BinOp,
    Call,
    Const,
    Coord,
    Expr,
    MetricSpec,
    Neg,
    Power,
)

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def format_expr(expr: Expr, coords: Sequence[str]) -> str:
    """Render an expression; reparsing yields a structurally equal tree."""

    def walk(node: Expr, parent_prec: int, right_side: bool) -> str:
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, Coord):
            return coords[node.index]
        if isinstance(node, Call):
            return f"{node.fn}({walk(node.arg, 0, False)})"
        if isinstance(node, Neg):
            inner = walk(node.arg, 3, False)
            text = f"-{inner}"
            return f"({text})" if parent_prec >= 3 else text
        if isinstance(node, Power):
            base = walk(node.base, 4, False)
            if isinstance(node.base, Power):
                base = f"({base})"  # a^b^c folds into one exponent; keep nesting
            exp = node.exponent
            if exp.denominator == 1:
                suffix = str(exp.numerator)
            else:
                suffix = f"({exp.numerator}/{exp.denominator})"
            return f"{base}^{suffix}"
        if isinstance(node, BinOp):
            prec = _PRECEDENCE[node.op]
            left = walk(node.left, prec - 1, False)
            right = walk(node.right, prec, True)
            text = f"{left} {node.op} {right}"
            return f"({text})" if prec <= parent_prec else text
        raise TypeError(f"not an expression node: {node!r}")

    return walk(expr, 0, False)


def format_metric(spec: MetricSpec) -> str:
    """Render a MetricSpec as a metric file; parse_metric round-trips it."""
    lines = [
        f"dim = {spec.dim}",
        f"coords = [{', '.join(spec.coords)}]",
        f"signature = [{', '.join('+1' if s == 1 else '-1' for s in spec.signature)}]",
    ]
    for i in range(spec.dim):
        for j in range(i, spec.dim):
            expr = spec.components[i][j]
            if i != j and expr == ZERO:
                continue
            lines.append(f"g[{i + 1},{j + 1}] = {format_expr(expr, spec.coords)}")
    return "\n".join(lines) + "\n"
