"""Inline expressions against sympy's parser as the oracle.

Strings come from a small grammar: numbers, ``u`` (linear), ``sin(q)`` and
``cos(q)`` (``q`` circular), parameters, ``+ - * /``, ``^`` and ``**`` with
small integer exponents, and unary signs in any position.  Operands are
joined without added parentheses, so precedence is left to the two parsers.
``parse_coeff``'s value, evaluated in floats by ``CanonicalCoeff.evaluate``,
must agree with sympy's to a relative 1e-9 at random points.  A point near a
pole or a zero of the value, where a float evaluation loses its relative
accuracy, is skipped and counted, as is an expression that divides by an
identically zero value; where sympy's value is exactly 0, the parsed one
must be 0.0.
"""

import random

import pytest
from hypothesis import event, example, given, strategies as st

from hamext import SingularEvaluation, Var, VarSystem, ZeroCoefficientDivision
from hamext.exprparse import parse_coeff

sympy = pytest.importorskip("sympy")
sympy_parser = pytest.importorskip("sympy.parsing.sympy_parser")

SYSTEM = VarSystem([Var.circular("q"), Var.linear("u")])
PARAMS = ("c1", "c2", "omega")
ATOMS = ("1", "2", "3", "0.5", "1.25", "10", "u", "sin(q)", "cos(q)") + PARAMS
TRANSFORMS = sympy_parser.standard_transformations + (sympy_parser.convert_xor,)
REL_TOL = 1e-9
#: a point whose value moves by more than this many times a relative shift
#: of one input is near a pole or a zero of the value
MAX_CONDITION = 1e5


def expressions():
    atom = st.sampled_from(ATOMS)

    def extend(children):
        base = st.one_of(atom, children.map(lambda e: f"({e})"))
        return st.one_of(
            st.tuples(children, st.sampled_from(" + - * / ".split()), children)
            .map(" ".join),
            st.tuples(st.sampled_from("-+"), children).map("".join),
            st.tuples(base, st.sampled_from(["^", "**"]), st.integers(-3, 3))
            .map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
            children.map(lambda e: f"({e})"),
        )

    return st.recursive(atom, extend, max_leaves=8)


def _condition(expr, subs, value):
    """Largest relative change of the value per relative change of one input."""
    shift = sympy.Rational(1, 10 ** 12)
    worst = 0
    for sym, x in subs.items():
        moved = expr.evalf(40, subs={**subs, sym: x * (1 + shift)})
        worst = max(worst, abs((moved - value) / (value * shift)))
    return worst


@given(text=expressions(), rng=st.randoms(use_true_random=False))
@example(text="2*-u^2", rng=random.Random(0))
@example(text="1 - -u^2", rng=random.Random(0))
@example(text="1/-cos(q)^2", rng=random.Random(0))
def test_parse_agrees_with_sympy(text, rng):
    try:
        coeff = parse_coeff(text, SYSTEM)
    except ZeroCoefficientDivision:
        event("divides by an identically zero value")
        return
    expr = sympy_parser.parse_expr(text, transformations=TRANSFORMS)
    skipped = 0
    for _ in range(3):
        point = {"q": rng.uniform(0.3, 1.2), "u": rng.uniform(0.3, 2.0)}
        params = {p: rng.uniform(0.5, 2.0) for p in PARAMS}
        subs = {sympy.Symbol(k): sympy.Float(v, 40)
                for k, v in {**point, **params}.items()}
        want = expr.evalf(40, subs=subs)
        try:
            got = coeff.evaluate(point, params)
        except SingularEvaluation:
            skipped += 1
            continue
        if want == 0:
            assert got == 0, (text, point, params, got)
        elif _condition(expr, subs, want) > MAX_CONDITION:
            skipped += 1
        else:
            assert abs(got - want) <= REL_TOL * abs(want), (text, point, params, got, want)
    event(f"points skipped near a pole or a zero: {skipped} of 3")
