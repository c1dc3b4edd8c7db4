"""Metric definition files and component expressions.

File format (line-oriented, `#` starts a comment, `;` also separates
statements):

    dim = 2
    coords = [x, y]
    signature = [+1, +1]        # optional, defaults to all +1
    g[1,1] = 1
    g[2,2] = sin(x)^2

Component indices are 1-based with i <= j; unspecified off-diagonal
entries default to zero, unspecified diagonal entries are an error.
Expressions support floating literals, `pi`, `e`, the declared
coordinates, `+ - * / ^`, parentheses, and calls of
sin cos tan exp log sqrt sinh cosh tanh. `^` binds tighter than unary
minus, is right-associative, and its exponent must be a rational literal
(optionally a parenthesized fraction such as `^(1/2)`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import e as _EULER, pi as _PI
from typing import Sequence, Union

from . import jets
from .errors import (
    DimensionMismatchError,
    MetricSyntaxError,
    MissingDiagonalError,
    UnknownIdentifierError,
)
from .jets import Jet

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh")
_CONSTANTS = {"pi": _PI, "e": _EULER}


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: Fraction


Expr = Union[Const, Coord, Call, BinOp, Neg, Power]

ZERO = Const(0.0)


@dataclass(frozen=True)
class MetricSpec:
    """A parsed metric: one coordinate chart worth of g_ij expressions."""

    dim: int
    coords: tuple[str, ...]
    signature: tuple[int, ...]
    components: tuple[tuple[Expr, ...], ...]  # full symmetric dim x dim

    @property
    def is_riemannian(self) -> bool:
        return all(s == 1 for s in self.signature)


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()\[\],=]))"
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = pos + (len(text[pos:]) - len(stripped)) + 1
            raise MetricSyntaxError(f"unexpected character {stripped[0]!r}", line, col)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), line, m.start(kind) + 1))
        pos = m.end()
    tokens.append(_Token("end", "", line, len(text) + 1))
    return tokens


# -- expression parser ---------------------------------------------------------

class _ExprParser:
    """Recursive-descent parser over one statement's token list."""

    def __init__(self, tokens: list[_Token], coords: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.coords = coords

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise MetricSyntaxError(
                f"expected '{op}', found {tok.text!r}" if tok.text else f"expected '{op}'",
                tok.line, tok.column,
            )
        return self.next()

    def at_op(self, op: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == op

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.at_op("+") or self.at_op("-"):
            op = self.next().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.at_op("*") or self.at_op("/"):
            op = self.next().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        if self.at_op("-"):
            self.next()
            return Neg(self.parse_unary())
        if self.at_op("+"):
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if not self.at_op("^"):
            return base
        self.next()
        exponents = [self.parse_exponent()]
        while self.at_op("^"):
            self.next()
            exponents.append(self.parse_exponent())
        # right-associative tower folded into one rational exponent
        total = exponents[-1]
        for exp in reversed(exponents[:-1]):
            if total.denominator != 1:
                raise MetricSyntaxError(
                    "exponent tower must reduce to a rational literal",
                    self.peek().line, self.peek().column,
                )
            total = exp ** int(total)
        return Power(base, total)

    def parse_exponent(self) -> Fraction:
        sign = 1
        if self.at_op("-"):
            self.next()
            sign = -1
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return sign * Fraction(tok.text)
        if self.at_op("("):
            self.next()
            inner_sign = 1
            if self.at_op("-"):
                self.next()
                inner_sign = -1
            num_tok = self.peek()
            if num_tok.kind != "num":
                raise MetricSyntaxError(
                    "exponent must be a rational literal", num_tok.line, num_tok.column
                )
            self.next()
            value = Fraction(num_tok.text)
            if self.at_op("/"):
                self.next()
                den_tok = self.peek()
                if den_tok.kind != "num":
                    raise MetricSyntaxError(
                        "exponent denominator must be a numeric literal",
                        den_tok.line, den_tok.column,
                    )
                self.next()
                value = value / Fraction(den_tok.text)
            self.expect_op(")")
            return sign * inner_sign * value
        raise MetricSyntaxError(
            "exponent must be a rational literal", tok.line, tok.column
        )

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if self.at_op("("):
                if name not in FUNCTIONS:
                    raise UnknownIdentifierError(name, tok.line, tok.column)
                self.next()
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(name, arg)
            if name in self.coords:
                return Coord(self.coords[name])
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name])
            raise UnknownIdentifierError(name, tok.line, tok.column)
        if self.at_op("("):
            self.next()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise MetricSyntaxError(
            f"unexpected token {tok.text!r}" if tok.text else "unexpected end of expression",
            tok.line, tok.column,
        )


def parse_expression(text: str, coords: Sequence[str], line: int = 0) -> Expr:
    """Parse a single component expression against a coordinate list."""
    coord_map = {name: i for i, name in enumerate(coords)}
    parser = _ExprParser(_tokenize(text, line), coord_map)
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise MetricSyntaxError(
            f"unexpected trailing input {tail.text!r}", tail.line, tail.column
        )
    return node


# -- metric file parser --------------------------------------------------------

_DIM_RE = re.compile(r"^\s*dim\s*=\s*(\S+)\s*$")
_COORDS_RE = re.compile(r"^\s*coords\s*=\s*\[(.*)\]\s*$")
_SIG_RE = re.compile(r"^\s*signature\s*=\s*\[(.*)\]\s*$")
_COMP_RE = re.compile(r"^\s*g\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*=\s*(.*?)\s*$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")

_RESERVED = set(FUNCTIONS) | set(_CONSTANTS)


def _statements(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for chunk in line.split(";"):
            if chunk.strip():
                yield lineno, chunk


def parse_metric(text: str) -> MetricSpec:
    """Parse a metric definition file into a fully resolved MetricSpec."""
    dim: int | None = None
    coords: tuple[str, ...] | None = None
    signature: tuple[int, ...] | None = None
    given: dict[tuple[int, int], Expr] = {}

    for lineno, stmt in _statements(text):
        m = _DIM_RE.match(stmt)
        if m:
            if dim is not None:
                raise MetricSyntaxError("duplicate 'dim' declaration", lineno, 1)
            try:
                dim = int(m.group(1))
            except ValueError:
                raise MetricSyntaxError(f"bad dimension {m.group(1)!r}", lineno, 1)
            if dim < 2:
                raise DimensionMismatchError(f"dim must be >= 2, got {dim}")
            continue
        m = _COORDS_RE.match(stmt)
        if m:
            if coords is not None:
                raise MetricSyntaxError("duplicate 'coords' declaration", lineno, 1)
            names = [c.strip() for c in m.group(1).split(",") if c.strip()]
            for name in names:
                if not _IDENT_RE.match(name):
                    raise MetricSyntaxError(f"bad coordinate name {name!r}", lineno, 1)
                if name in _RESERVED:
                    raise MetricSyntaxError(
                        f"coordinate name {name!r} is reserved", lineno, 1
                    )
            if len(set(names)) != len(names):
                raise MetricSyntaxError("coordinate names must be distinct", lineno, 1)
            coords = tuple(names)
            continue
        m = _SIG_RE.match(stmt)
        if m:
            if signature is not None:
                raise MetricSyntaxError("duplicate 'signature' declaration", lineno, 1)
            values = []
            for item in m.group(1).split(","):
                item = item.strip()
                if item in ("+1", "1"):
                    values.append(1)
                elif item == "-1":
                    values.append(-1)
                else:
                    raise MetricSyntaxError(
                        f"signature entries must be +1 or -1, got {item!r}", lineno, 1
                    )
            signature = tuple(values)
            continue
        m = _COMP_RE.match(stmt)
        if m:
            if dim is None or coords is None:
                raise MetricSyntaxError(
                    "dim and coords must be declared before components", lineno, 1
                )
            i, j = int(m.group(1)), int(m.group(2))
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise DimensionMismatchError(
                    f"component g[{i},{j}] out of range for dim {dim} (line {lineno})"
                )
            if i > j:
                raise MetricSyntaxError(
                    f"components are stored symmetrically; write g[{j},{i}]", lineno, 1
                )
            if (i, j) in given:
                raise MetricSyntaxError(f"duplicate component g[{i},{j}]", lineno, 1)
            given[(i, j)] = parse_expression(m.group(3), coords, lineno)
            continue
        raise MetricSyntaxError(f"unrecognized statement {stmt.strip()!r}", lineno, 1)

    if dim is None:
        raise MetricSyntaxError("missing 'dim' declaration")
    if coords is None:
        raise MetricSyntaxError("missing 'coords' declaration")
    if len(coords) != dim:
        raise DimensionMismatchError(
            f"dim = {dim} but {len(coords)} coordinates declared"
        )
    if signature is None:
        signature = (1,) * dim
    elif len(signature) != dim:
        raise DimensionMismatchError(
            f"signature has {len(signature)} entries for dim {dim}"
        )

    missing = [i for i in range(1, dim + 1) if (i, i) not in given]
    if missing:
        entries = ", ".join(f"g[{i},{i}]" for i in missing)
        raise MissingDiagonalError(f"diagonal components not specified: {entries}")

    rows = []
    for i in range(1, dim + 1):
        row = []
        for j in range(1, dim + 1):
            key = (min(i, j), max(i, j))
            row.append(given.get(key, ZERO))
        rows.append(tuple(row))
    return MetricSpec(dim, coords, signature, tuple(rows))


# -- evaluation ------------------------------------------------------------------

def eval_expr(expr: Expr, point: Sequence[float], order: int) -> Jet:
    """Evaluate an expression to its order-K jet at `point`."""
    n = len(point)
    if isinstance(expr, Const):
        return Jet.constant(expr.value, n, order)
    if isinstance(expr, Coord):
        return jets.seed(point, expr.index, order)
    if isinstance(expr, Neg):
        return -eval_expr(expr.arg, point, order)
    if isinstance(expr, Call):
        return jets.apply_fn(expr.fn, eval_expr(expr.arg, point, order))
    if isinstance(expr, Power):
        return jets.jet_pow(eval_expr(expr.base, point, order), expr.exponent)
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, point, order)
        right = eval_expr(expr.right, point, order)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right
    raise TypeError(f"not an expression node: {expr!r}")


# -- coordinate-change helpers ---------------------------------------------------

def substitute(expr: Expr, replacements: Sequence[Expr]) -> Expr:
    """Replace each coordinate reference by the given expression."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Coord):
        return replacements[expr.index]
    if isinstance(expr, Neg):
        return Neg(substitute(expr.arg, replacements))
    if isinstance(expr, Call):
        return Call(expr.fn, substitute(expr.arg, replacements))
    if isinstance(expr, Power):
        return Power(substitute(expr.base, replacements), expr.exponent)
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            substitute(expr.left, replacements),
            substitute(expr.right, replacements),
        )
    raise TypeError(f"not an expression node: {expr!r}")


def poly_diff(expr: Expr, var: int) -> Expr:
    """Derivative of a polynomial expression tree (used for pullbacks).

    Only nodes a polynomial coordinate change can contain are accepted:
    constants, coordinates, + - *, negation, and non-negative integer
    powers.
    """
    if isinstance(expr, Const):
        return ZERO
    if isinstance(expr, Coord):
        return Const(1.0) if expr.index == var else ZERO
    if isinstance(expr, Neg):
        return Neg(poly_diff(expr.arg, var))
    if isinstance(expr, Power):
        exp = expr.exponent
        if exp.denominator != 1 or exp < 0:
            raise ValueError("poly_diff handles non-negative integer powers only")
        k = int(exp)
        if k == 0:
            return ZERO
        return BinOp(
            "*",
            BinOp("*", Const(float(k)), Power(expr.base, Fraction(k - 1))),
            poly_diff(expr.base, var),
        )
    if isinstance(expr, BinOp):
        if expr.op == "+":
            return BinOp("+", poly_diff(expr.left, var), poly_diff(expr.right, var))
        if expr.op == "-":
            return BinOp("-", poly_diff(expr.left, var), poly_diff(expr.right, var))
        if expr.op == "*":
            return BinOp(
                "+",
                BinOp("*", poly_diff(expr.left, var), expr.right),
                BinOp("*", expr.left, poly_diff(expr.right, var)),
            )
    raise ValueError("poly_diff expects a polynomial expression")


def pullback_metric(spec: MetricSpec, phi: Sequence[Expr]) -> MetricSpec:
    """Pull a metric back along a polynomial coordinate change.

    `phi[k]` expresses old coordinate k in terms of the new ones (same
    names, same count). The result has components
    (phi*g)_ij = sum_kl g_kl(phi) * d_i phi^k * d_j phi^l.
    """
    n = spec.dim
    if len(phi) != n:
        raise DimensionMismatchError("coordinate change must map all coordinates")
    dphi = [[poly_diff(phi[k], i) for i in range(n)] for k in range(n)]
    upper: dict[tuple[int, int], Expr] = {}
    for i in range(n):
        for j in range(i, n):
            acc: Expr | None = None
            for k in range(n):
                for l in range(n):
                    g_kl = spec.components[k][l]
                    if g_kl == ZERO:
                        continue
                    term = BinOp(
                        "*",
                        BinOp("*", substitute(g_kl, phi), dphi[k][i]),
                        dphi[l][j],
                    )
                    acc = term if acc is None else BinOp("+", acc, term)
            upper[(i, j)] = acc if acc is not None else ZERO
    rows = tuple(
        tuple(upper[(min(i, j), max(i, j))] for j in range(n)) for i in range(n)
    )
    return MetricSpec(n, spec.coords, spec.signature, rows)
