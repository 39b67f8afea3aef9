"""The exact ring against sympy's polynomials and rational functions over QQ.

``ParamPoly`` arithmetic, exact division and zero verdicts are compared with
``sympy.Poly`` in the parameter alphabet; ``Poly`` products and derivatives,
and ``CanonicalCoeff`` zero verdicts and derivatives, on systems of linear
variables, where a coefficient is an ordinary rational function of the
coordinates and the parameters.
"""

import operator
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from hamext import ParamPoly, Q, Var, VarSystem
from hamext.coeffs import Poly
from hamext.params import PARAMS

from conftest import coeff_strategy, parampoly_strategy

sympy = pytest.importorskip("sympy")

PSYMS = [sympy.Symbol(name) for name in PARAMS]
LINEAR = VarSystem([Var.linear("q"), Var.linear("u")])
XSYMS = [sympy.Symbol(v.name) for v in LINEAR.vars]


def _monomial(syms, exps):
    return reduce(operator.mul, (s ** e for s, e in zip(syms, exps)), sympy.Integer(1))


def pp_expr(pp):
    out = sympy.Integer(0)
    for m, c in pp.terms.items():
        exps = [0] * len(PARAMS)
        for i, e in m:
            exps[i] = e
        out += sympy.Rational(c.numerator, c.denominator) * _monomial(PSYMS, exps)
    return out


def pp_sym(pp):
    return sympy.Poly(pp_expr(pp), *PSYMS, domain="QQ")


def poly_expr(poly):
    return sum((pp_expr(pp) * _monomial(XSYMS, m) for m, pp in poly.terms.items()),
               sympy.Integer(0))


def poly_sym(poly):
    return sympy.Poly(poly_expr(poly), *XSYMS, *PSYMS, domain="QQ")


def coeff_expr(c):
    den = _monomial(XSYMS, c.den_mono)
    for f, k in c.den_factors:
        den *= poly_expr(f) ** k
    return poly_expr(c.num) / den


def is_zero_rational(expr):
    return sympy.cancel(sympy.together(expr)) == 0


params = parampoly_strategy()
scales = st.sampled_from([Q(1), Q(-1), Q(2), Q(-3, 4), Q(5, 7), 0, 3])


@given(params, params, scales)
def test_parampoly_arithmetic(a, b, q):
    A, B = pp_sym(a), pp_sym(b)
    assert pp_sym(a + b) == A + B
    assert pp_sym(a - b) == A - B
    assert pp_sym(a * b) == A * B
    assert pp_sym(-a) == -A
    assert pp_sym(a.scale(q)) == A * sympy.Rational(Q(q).numerator, Q(q).denominator)
    for k in range(4):
        assert pp_sym(a ** k) == A ** k


@given(params, params)
def test_parampoly_zero_verdicts(a, b):
    A, B = pp_sym(a), pp_sym(b)
    assert (a - b).is_zero == (A - B).is_zero
    assert (a == b) == (A == B)
    assert ((a + b) * (a - b) - (a * a - b * b)).is_zero
    assert (a * b - b * a).is_zero


@given(params, params)
def test_parampoly_divexact(a, b):
    if b.is_zero:
        return
    A, B = pp_sym(a), pp_sym(b)
    assert (a * b).divexact(b) == a
    quot, rem = sympy.div(A, B)
    got = a.divexact(b)
    if rem.is_zero:
        assert got is not None and pp_sym(got) == quot
    else:
        assert got is None


def linear_polys():
    return coeff_strategy(LINEAR).map(lambda c: c.num) | st.just(Poly.one(LINEAR))


@given(linear_polys(), linear_polys())
def test_poly_mul_and_derivative(a, b):
    A, B = poly_sym(a), poly_sym(b)
    assert poly_sym(a.mul(b)) == A * B
    assert poly_sym(a.add(b)) == A + B
    assert poly_sym(a.sub(b)) == A - B
    for name, x in zip(("q", "u"), XSYMS):
        assert poly_sym(a.derivative(name)) == A.diff(x)


@given(coeff_strategy(LINEAR), coeff_strategy(LINEAR))
def test_coeff_zero_verdicts_and_derivative(a, b):
    E, F = coeff_expr(a), coeff_expr(b)
    assert (a - b).is_zero == is_zero_rational(E - F)
    assert (a + b - b - a).is_zero
    if not b.is_zero:
        assert (a * b / b - a).is_zero
        assert (a / b).is_zero == is_zero_rational(E / F)
    for name, x in zip(("q", "u"), XSYMS):
        assert is_zero_rational(coeff_expr(a.differentiate(name)) - sympy.diff(E, x))
