"""Small arithmetic expression language for CLI-supplied right-hand sides.

Grammar (EBNF, whitespace insignificant)::

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;          (* right associative *)
    atom    = NUMBER | VARIABLE | FUNC "(" expr { "," expr } ")" | "(" expr ")" ;
    NUMBER  = decimal literal with optional fraction and exponent ;

Variables are limited to ``t``, ``u``, ``alpha``, ``lambda``; functions to
``exp``, ``ln``, ``sin``, ``cos``, ``pow``, ``gamma`` and ``ml`` (the
two-parameter Mittag-Leffler function, ``ml(alpha, beta, z)``).  Unary minus
binds looser than ``^``, so ``-2^2 == -4``.  There is no implicit
multiplication: ``2t`` is a syntax error.

Parse failures raise :class:`ExprSyntaxError` carrying the byte offset and
what was expected; unknown names raise :class:`UnknownNameError`.  ASTs are
immutable and evaluation is pure.  :func:`compile` turns an AST into nested
closures once, for expressions called many times such as a right-hand
side; :func:`evaluate` compiles and calls, so there is one evaluator.

``compile(node, names, array=True)`` evaluates over numpy arrays instead,
for an expression wanted at many points at once such as an exact solution
on a whole grid: ``exp``, ``ln``, ``sin``, ``cos`` and ``^`` are numpy's,
and ``ml`` takes its array path.  Array evaluation follows numpy's rules,
so where the scalar function raises (division by zero, overflow, a domain
error, a complex value) it may instead give inf or nan, or raise on an
argument that must be a scalar (``gamma``).  A caller that needs the scalar
function's errors evaluates point by point whenever the array pass raises
or gives a value that is not finite, as ``SolutionTrace.exact_values``
does.

:func:`affine_split` writes an expression that is affine in one variable,
``p + q*u``, as the two trees ``p`` and ``q``; it is how an expression
right-hand side declares :attr:`tfode.solver.Problem.affine`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .specfun import gamma as _gamma
from .specfun import mittag_leffler as _ml

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "UnknownNameError",
    "EvalError",
    "parse",
    "compile",
    "evaluate",
    "affine_split",
]

VARIABLES = ("t", "u", "alpha", "lambda")

FUNCTIONS = {
    "exp": (1, math.exp),
    "ln": (1, math.log),
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "pow": (2, lambda x, y: x**y),
    "gamma": (1, _gamma),
    "ml": (3, lambda al, be, z: _ml(al, be, z)),
}

#: The functions of array evaluation; ``pow``, ``gamma`` and ``ml`` as above.
ARRAY_FUNCTIONS = {
    **FUNCTIONS,
    "exp": (1, np.exp),
    "ln": (1, np.log),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
}


class ExprError(ValueError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownNameError(ExprSyntaxError):
    pass


class EvalError(ExprError):
    """Raised when an AST cannot be evaluated with the given bindings."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.lastgroup is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    @property
    def cur(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.cur
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, offset = self.cur
        if kind != "end":
            raise ExprSyntaxError(f"expected operator or end of input, got {text!r}", offset)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.cur[0] == "op" and self.cur[1] in "+-":
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.cur[0] == "op" and self.cur[1] in "*/":
            op = self.advance()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.cur[0] == "op" and self.cur[1] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.cur[0] == "op" and self.cur[1] == "^":
            self.advance()
            return BinOp("^", base, self.unary())  # right associative
        return base

    def atom(self) -> Expr:
        kind, text, offset = self.cur
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "name":
            self.advance()
            if self.cur[0] == "op" and self.cur[1] == "(":
                return self.call(text, offset)
            if text not in VARIABLES:
                raise UnknownNameError(
                    f"unknown variable {text!r}; expected one of {', '.join(VARIABLES)}",
                    offset,
                )
            return Var(text)
        if kind == "op" and text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        what = "end of input" if kind == "end" else repr(text)
        raise ExprSyntaxError(f"expected a number, name or '(', got {what}", offset)

    def call(self, name: str, offset: int) -> Expr:
        if name not in FUNCTIONS:
            raise UnknownNameError(
                f"unknown function {name!r}; expected one of {', '.join(sorted(FUNCTIONS))}",
                offset,
            )
        arity = FUNCTIONS[name][0]
        self.expect_op("(")
        args = [self.expr()]
        while self.cur[0] == "op" and self.cur[1] == ",":
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name} takes {arity} argument(s), got {len(args)}", offset
            )
        return Call(name, tuple(args))


def parse(src: str) -> Expr:
    """Parse ``src`` into an immutable AST.

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input
    and :class:`UnknownNameError` for undeclared variables or functions.
    """
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(src).parse()


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


def _constant(node: Expr) -> float | None:
    """The value of a number, or of a negated number; None for anything else."""
    if isinstance(node, Neg):
        value = _constant(node.operand)
        return None if value is None else -value
    return node.value if isinstance(node, Num) else None


def _closure(
    node: Expr, index: Mapping[str, int], functions: Mapping[str, tuple], convert: Callable
) -> Callable[[tuple], float]:
    """A function of the value tuple computing ``node`` with ``evaluate``'s
    operations in its order: operands left to right, variables and function
    results through ``convert``.  Constant operands are captured as values."""
    value = _constant(node)
    if value is not None:
        return lambda v: value
    if isinstance(node, Var):
        i = index.get(node.name)
        if i is None:
            message = f"variable {node.name!r} is not bound"

            def unbound(v):
                raise EvalError(message)

            return unbound
        return lambda v: convert(v[i])
    if isinstance(node, Neg):
        operand = _closure(node.operand, index, functions, convert)
        return lambda v: -operand(v)
    if isinstance(node, BinOp):
        op = _BINARY[node.op]
        x, y = _constant(node.left), _constant(node.right)
        left = _closure(node.left, index, functions, convert)
        right = _closure(node.right, index, functions, convert)
        if x is not None:
            return lambda v: op(x, right(v))
        if y is not None:
            return lambda v: op(left(v), y)
        return lambda v: op(left(v), right(v))
    fn = functions[node.func][1]
    args = [_closure(arg, index, functions, convert) for arg in node.args]
    if len(args) == 1:
        (arg,) = args
        return lambda v: convert(fn(arg(v)))
    return lambda v: convert(fn(*[arg(v) for arg in args]))


def compile(node: Expr, names: Sequence[str], *, array: bool = False) -> Callable[..., float]:
    """Turn an AST into a function of the variables ``names``, in that order.

    The tree is walked once, into nested closures, so a call costs one
    Python call per operation.  ``compile(node, names)(*values)`` gives the
    bit-identical result of ``evaluate(node, dict(zip(names, values)))`` and
    raises the same exceptions; a variable missing from ``names`` raises
    :class:`EvalError` when the function is called, not here.  With
    ``array``, the values may be numpy arrays and so may the result; see
    the module docstring for how array evaluation differs.
    """
    functions, convert = (ARRAY_FUNCTIONS, _same) if array else (FUNCTIONS, float)
    body = _closure(node, {name: i for i, name in enumerate(names)}, functions, convert)

    def run(*values: float) -> float:
        return body(values)

    return run


def _same(value):
    return value


def evaluate(node: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate an AST in IEEE double precision under the given bindings."""
    names = tuple(bindings)
    return compile(node, names)(*[bindings[name] for name in names])


_ZERO = Num(0.0)
_ONE = Num(1.0)


def _split(node: Expr, name: str) -> tuple[Expr | None, Expr | None] | None:
    """(p, q) with node == p + q*name, None standing for a zero part; None
    when the tree is not affine in ``name`` by the rules of affine_split.
    A subtree free of ``name`` is its own p."""
    if isinstance(node, Var) and node.name == name:
        return None, _ONE
    if isinstance(node, Neg):
        parts = _split(node.operand, name)
        return parts and tuple(None if x is None else Neg(x) for x in parts)
    if isinstance(node, Call):
        args = [_split(arg, name) for arg in node.args]
        return (node, None) if all(x is not None and x[1] is None for x in args) else None
    if not isinstance(node, BinOp):
        return node, None
    left, right = _split(node.left, name), _split(node.right, name)
    if left is None or right is None:
        return None
    if left[1] is None and right[1] is None:
        return node, None
    if node.op in "+-":
        return tuple(_combine(node.op, x, y) for x, y in zip(left, right))
    # a product or quotient of a term in name and a factor free of it
    if node.op == "*" and left[1] is None:
        return tuple(_times(node.left, x) for x in right)
    if node.op == "*" and right[1] is None:
        return tuple(_times(node.right, x) for x in left)
    if node.op == "/" and right[1] is None:
        return tuple(None if x is None else BinOp("/", x, node.right) for x in left)
    return None


def _combine(op: str, x: Expr | None, y: Expr | None) -> Expr | None:
    if y is None:
        return x
    if x is None:
        return y if op == "+" else Neg(y)
    return BinOp(op, x, y)


def _times(factor: Expr, x: Expr | None) -> Expr | None:
    if x is None:
        return None
    return factor if x is _ONE else BinOp("*", factor, x)


def affine_split(node: Expr, name: str = "u") -> tuple[Expr, Expr] | None:
    """Trees ``(p, q)`` free of ``name`` with ``node == p + q*name``, or None.

    The split follows the tree: sums and differences of affine terms, an
    affine term times or divided by a factor free of ``name``, and its
    negation are affine.  A product or quotient of two terms in ``name``,
    a power of a term in it (``u^1`` included) and a function of it are
    not.  p and q reorder the expression's operations, so ``p + q*u`` may
    differ from it in the last bits.
    """
    parts = _split(node, name)
    if parts is None:
        return None
    p, q = parts
    return (_ZERO if p is None else p), (_ZERO if q is None else q)
