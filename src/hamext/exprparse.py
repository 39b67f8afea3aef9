"""Parser for inline coefficient expressions.

Python's own parser reads the text, with ``^`` taken as ``**``, so the
precedence is Python's: ``-q^2`` is ``-(q^2)`` wherever it stands, and
``+ - * /`` group left to right.  One walk over the tree then accepts
exactly the canonical fragment: decimal numbers (exact: ``0.5`` is 1/2), the
known parameter names, declared linear variables, sin/cos/tan of a declared
circular variable and sinh/cosh/tanh of a hyperbolic one, and ``+ - * /``
with integer-literal powers.  Every other character or form is refused with
a pointed ``ExpressionError``, so the exact zero test is never silently
weakened; so is input nested deeper than Python's parser (200 parentheses)
or the walk's recursion (one level per operator) allows.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from fractions import Fraction

from .coeffs import CanonicalCoeff, VarSystem
from .params import PARAM_INDEX


class ExpressionError(ValueError):
    """Input is outside the supported coefficient grammar."""


_BAD_CHAR = re.compile(r"[^0-9A-Za-z_.+\-*/^()\s]")
_NUMBER = re.compile(r"\d+(\.\d+)?")

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY = {ast.USub: operator.neg, ast.UAdd: lambda x: x}

_FUNCTIONS = {
    "sin": ("S", 1), "cos": ("C", 1), "tan": ("T", 1),
    "sinh": ("S", -1), "cosh": ("C", -1), "tanh": ("T", -1),
}


def _quote(text: str) -> str:
    """``repr(text)``, or for text over 60 characters its first 60 and its
    length, so that an error message stays one short line."""
    if len(text) <= 60:
        return repr(text)
    return f"{text[:60] + '…'!r} ({len(text):,} characters)"


def _walk(node: ast.expr, src: str, sys: VarSystem) -> CanonicalCoeff:
    def text(n: ast.expr) -> str:
        return src[n.col_offset:n.end_col_offset]

    kind = type(node)
    if kind is ast.BinOp and type(node.op) in _BINARY:
        left = _walk(node.left, src, sys)
        return _BINARY[type(node.op)](left, _walk(node.right, src, sys))
    if kind is ast.BinOp and type(node.op) is ast.Pow:
        base, exp, sign = _walk(node.left, src, sys), node.right, 1
        if type(exp) is ast.UnaryOp and type(exp.op) is ast.USub:
            exp, sign = exp.operand, -1
        if type(exp) is not ast.Constant or not text(exp).isdigit():
            raise ExpressionError(
                f"exponents must be integers, found {_quote(text(node.right))}")
        return base ** (sign * exp.value)
    if kind is ast.UnaryOp and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_walk(node.operand, src, sys))
    if kind is ast.Constant and _NUMBER.fullmatch(text(node)):
        return sys.scalar(Fraction(text(node)))
    if kind is ast.Name and node.id in PARAM_INDEX:
        return sys.param(node.id)
    if kind is ast.Name and node.id in sys:
        if not sys.var(node.id).is_linear:
            raise ExpressionError(f"{node.id!r} is an angular variable; only "
                                  f"sin({node.id})-style generators are in the fragment")
        return sys.coord(node.id)
    if kind is ast.Name:
        raise ExpressionError(
            f"unknown name {_quote(node.id)}; not a parameter, variable, or function")
    if kind is ast.Call and type(node.func) is ast.Name and node.func.id in _FUNCTIONS:
        fname, args = node.func.id, node.args
        if node.keywords or len(args) != 1 or type(args[0]) is not ast.Name \
                or args[0].id not in sys:
            raise ExpressionError(
                f"{fname} takes a bare declared variable, found {_quote(text(node))}")
        which, tag = _FUNCTIONS[fname]
        name = args[0].id
        v = sys.var(name)
        if v.is_linear or v.rate != 1 or v.tag != tag:
            raise ExpressionError(
                f"{fname}({name}) needs {name!r} declared "
                f"{'circular' if tag > 0 else 'hyperbolic'} with unit rate")
        return getattr(sys, which)(name)
    raise ExpressionError(f"{_quote(text(node))} is outside the expression fragment")


def parse_coeff(text: str, sys: VarSystem) -> CanonicalCoeff:
    """Parse an inline expression into the exact coefficient ring."""
    bad = _BAD_CHAR.search(text)
    if bad:
        raise ExpressionError(f"unexpected character {bad.group()!r} at "
                              f"position {bad.start()} in {_quote(text)}")
    src = " ".join(text.split()).replace("^", "**")
    too_deep = ExpressionError(f"{_quote(text)} is nested too deeply or too long to parse")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "1if": a SyntaxError, not a warning
            tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"invalid syntax in {_quote(text)}: {exc.msg}") from None
    except (RecursionError, MemoryError):  # the parser's own stack limits
        raise too_deep from None
    try:
        return _walk(tree.body, src, sys)
    except RecursionError:
        raise too_deep from None
