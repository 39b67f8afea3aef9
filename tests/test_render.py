"""The build text: what ``render`` prints at each level of the ring.

Two checks.  (1) Over tags 1 and -1 at rate 1, and linear variables, the
grammar ``exprparse`` reads, the text of a coefficient reads back as the
value, and the text of a momentum polynomial evaluates, with Python's
precedence, to the compiled value.  (2) For every tag and rate, the text is
byte-equal to that of reference renderers below, which format each term
from the ``Fraction`` values of ``sorted_items()`` and compare whole
``ParamPoly`` values, as ``render`` did before it formatted from the
integer numerators.  They carry both parenthesis fixes: a denominator of
several parts, and a momentum coefficient that is a sum whose text opens
with "(", are wrapped.
"""

import ast
import functools
import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import coeff_strategy, parampoly_strategy, ppoly_strategy
from hamext import ParamPoly, PhaseSpace, Q, Var, VarSystem
from hamext.exprparse import parse_coeff
from hamext.params import PARAMS
from hamext.verify import MOMENTUM_RANGE, POSITION_RANGE

from test_flat import RATES, TAGS

# -- the reference ------------------------------------------------------------


def _join(parts):
    return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}"
                              for p in parts[1:])


def ref_param_str(pp):
    if pp.is_zero:
        return "0"
    parts = []
    for m, c in pp.sorted_items():
        ms = "*".join(PARAMS[i] if e == 1 else f"{PARAMS[i]}^{e}" for i, e in m)
        if not ms:
            parts.append(str(c))
        elif c == 1:
            parts.append(ms)
        elif c == -1:
            parts.append(f"-{ms}")
        else:
            parts.append(f"{c}*{ms}")
    return _join(parts)


def ref_poly_render(poly):
    if poly.is_zero:
        return "0"
    names = [g for v in poly.sys.vars for g in v.gen_names()]
    parts = []
    for m, pp in poly.sorted_items():
        gstr = "*".join(names[s] if e == 1 else f"{names[s]}^{e}"
                        for s, e in enumerate(m) if e)
        ps = ref_param_str(pp)
        if not gstr:
            parts.append(f"({ps})" if (" " in ps and not ps.startswith("(")) else ps)
        elif pp.is_one:
            parts.append(gstr)
        elif pp == ParamPoly.scalar(-1):
            parts.append(f"-{gstr}")
        elif len(pp.nums) == 1:
            parts.append(f"{ps}*{gstr}")
        else:
            parts.append(f"({ps})*{gstr}")
    return _join(parts)


def ref_coeff_render(c):
    if c.is_zero:
        return "0"
    num = ref_poly_render(c.num)
    if not any(c.den_mono) and not c.den_factors:
        return num
    dparts = []
    if any(c.den_mono):
        dparts.append(ref_poly_render(type(c.num).from_mono(c.sys, c.den_mono)))
    for f, k in c.den_factors:
        fs = f"({ref_poly_render(f)})"
        dparts.append(fs if k == 1 else f"{fs}^{k}")
    den = "*".join(dparts)
    if len(c.num.terms) > 1:
        num = f"({num})"
    # fixed: a denominator of several parts is always wrapped
    if len(dparts) > 1 or (("*" in den or " " in den)
                           and not (den.startswith("(") and den.endswith(")"))):
        den = f"({den})"
    return f"{num}/{den}"


def ref_ppoly_render(P):
    if P.is_zero:
        return "0"
    names = P.space.momentum_names
    parts = []
    for pe, c in P.sorted_items():
        mom = "*".join(names[i] if e == 1 else f"{names[i]}^{e}"
                       for i, e in enumerate(pe) if e)
        cs = ref_coeff_render(c)
        bare_sum = len(c.num.terms) > 1 and not any(c.den_mono) and not c.den_factors
        if not mom:
            parts.append(cs)
        elif cs == "1":
            parts.append(mom)
        elif cs == "-1":
            parts.append(f"-{mom}")
        # fixed: a numerator sum is wrapped even when its text opens with "("
        elif bare_sum or not (cs.startswith("(") or " " not in cs):
            parts.append(f"({cs})*{mom}")
        else:
            parts.append(f"{cs}*{mom}")
    return _join(parts)


# -- systems ------------------------------------------------------------------

# the grammar of ``exprparse``: tags +-1 at rate 1, and linear variables
READABLE = [VarSystem([Var.circular("q"), Var.linear("u")]),
            VarSystem([Var.hyperbolic("q"), Var.linear("u")])]
# the tags and rates of the flat zero test's random pairs
ALL = [VarSystem([Var.tagged("q", t, r), Var.linear("u")]) for t in TAGS for r in RATES]


@functools.lru_cache(maxsize=None)
def _coeffs(sysv):
    return coeff_strategy(sysv)


@functools.lru_cache(maxsize=None)
def _ppolys(sysv):
    return ppoly_strategy(PhaseSpace(sysv, ext="u"))


# -- the text reads back as the value ----------------------------------------


@pytest.mark.parametrize("sysv", READABLE, ids=["circular", "hyperbolic"])
@given(data=st.data())
def test_coeff_text_reads_back(sysv, data):
    c = data.draw(_coeffs(sysv))
    # by exact difference: a Pythagorean factor may be stored otherwise
    assert (parse_coeff(c.render(), sysv) - c).is_zero


def test_denominator_of_two_factors_is_wrapped():
    sysv = READABLE[0]
    u, S = sysv.coord("u"), sysv.S("q")
    c = 1 / (u + 1) + 1 / (u + S)
    assert c.render() == "(sin(q) + 2*u + 1)/((u + 1)*(sin(q) + u))"
    assert (parse_coeff(c.render(), sysv) - c).is_zero


def test_momentum_coefficient_sum_is_wrapped():
    sysv = READABLE[0]
    space = PhaseSpace(sysv, ext="u")
    u, S = sysv.coord("u"), sysv.S("q")
    P = space.lift((sysv.param("c1") + sysv.param("c2")) * S * u + u) * space.p("q")
    assert P.render() == "((c1 + c2)*sin(q)*u + u)*p_q"
    assert _evaluate(P.render(), {"q": 0.7, "u": 0.4, "p_q": 0.9}) == pytest.approx(
        P.evaluate({"q": 0.7, "u": 0.4, "p_q": 0.9, "p_u": 0.0}, PARAMS_AT), rel=1e-12)


PARAMS_AT = {"c1": 1.3, "c2": -0.7, "omega": 2 / 3, "L0": 0.45}
_FUNCTIONS = {f: getattr(math, f) for f in ("sin", "cos", "sinh", "cosh")}


def _evaluate(text, coords):
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    code = compile(tree, "<render>", "eval")
    return eval(code, {"__builtins__": {}}, {**_FUNCTIONS, **PARAMS_AT, **coords})


@pytest.mark.parametrize("sysv", READABLE, ids=["circular", "hyperbolic"])
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_ppoly_text_evaluates_to_the_compiled_value(sysv, data, seed):
    P = data.draw(_ppolys(sysv))
    fn = P.compile(PARAMS_AT)
    rng = random.Random(seed)
    names = P.space.coordinate_names
    for _ in range(3):
        point = {n: rng.uniform(*(POSITION_RANGE if n in sysv else MOMENTUM_RANGE))
                 for n in names}
        want = fn(*[point[n] for n in names])
        assert math.isclose(_evaluate(P.render(), point), want, rel_tol=1e-9, abs_tol=1e-12)


# -- the text equals the reference's for every tag and rate -------------------


@given(pp=parampoly_strategy())
def test_param_text_matches_reference(pp):
    assert str(pp) == ref_param_str(pp)
    assert str(pp.scale(Q(-7, 12))) == ref_param_str(pp.scale(Q(-7, 12)))


@given(data=st.data())
def test_coeff_text_matches_reference(data):
    c = data.draw(_coeffs(data.draw(st.sampled_from(ALL))))
    assert c.render() == ref_coeff_render(c)
    assert c.num.render() == ref_poly_render(c.num)


@given(data=st.data())
def test_ppoly_text_matches_reference(data):
    P = data.draw(_ppolys(data.draw(st.sampled_from(ALL))))
    assert P.render() == ref_ppoly_render(P)

