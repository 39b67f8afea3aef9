import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hamext import ParamPoly, Q, Var, VarSystem, ZeroCoefficientDivision
from hamext._record import replace
from hamext.coeffs import CanonicalCoeff, Poly, SingularEvaluation

from conftest import coeff_strategy


@pytest.fixture(scope="module")
def sysv():
    return VarSystem([Var.circular("q"), Var.linear("u")])


def test_pythagorean_reduction(sysv):
    S, C = sysv.S("q"), sysv.C("q")
    assert (S * S + C * C - 1).is_zero
    sq = C * C
    assert sq.render() == "-sin(q)^2 + 1"
    assert (S * S).render() == "sin(q)^2"


def test_hyperbolic_relation():
    h = VarSystem([Var.hyperbolic("v")])
    S, C = h.S("v"), h.C("v")
    assert (C * C - S * S - 1).is_zero


def test_identity_addition_unchanged(sysv):
    S, C = sysv.S("q"), sysv.C("q")
    V = (sysv.param("c1") + sysv.param("c2") * C) / (S * S)
    assert (V + sysv.zero()) == V
    assert (V + 0) == V


def test_is_zero_cases(sysv):
    S, C, u = sysv.S("q"), sysv.C("q"), sysv.coord("u")
    assert (S * S + C * C - 1).is_zero
    c1 = sysv.param("c1")
    assert (c1 / u - c1 / u).is_zero
    # distinct generators never cancel
    assert not (S - sysv.coord("u")).is_zero
    q_only = VarSystem([Var.circular("q"), Var.linear("w")])
    assert not (q_only.S("q") - q_only.coord("w")).is_zero


def test_derivative_basics(sysv):
    S, C, u = sysv.S("q"), sysv.C("q"), sysv.coord("u")
    assert (S.differentiate("q") - C).is_zero
    inv = sysv.one() / u
    assert (inv.differentiate("u") + inv * inv).is_zero


def test_derivative_quotient_case_against_finite_differences(sysv):
    # oracle: central differences at 50 random regular points
    S, C = sysv.S("q"), sysv.C("q")
    c1, c2 = sysv.param("c1"), sysv.param("c2")
    V = (c1 + c2 * C) / (S * S)
    dV = V.differentiate("q")
    hand = (-c2 * S * S - C * (c1 + c2 * C) * 2) / (S ** 3)
    assert (dV - hand).is_zero
    rng = random.Random(42)
    params = {"c1": 1.3, "c2": 0.4}
    h = 1e-6
    for _ in range(50):
        q = rng.uniform(0.3, 1.2)
        u = rng.uniform(0.3, 1.2)
        num = (V.evaluate({"q": q + h, "u": u}, params)
               - V.evaluate({"q": q - h, "u": u}, params)) / (2 * h)
        sym = dV.evaluate({"q": q, "u": u}, params)
        assert abs(sym - num) / (1 + abs(sym)) < 1e-8


def test_evaluate_examples(sysv):
    S, C, u = sysv.S("q"), sysv.C("q"), sysv.coord("u")
    assert S.evaluate({"q": math.pi / 2, "u": 1.0}, {}) == pytest.approx(1.0)
    inv2 = sysv.one() / (u * u)
    assert inv2.evaluate({"q": 0.5, "u": 2.0}, {}) == pytest.approx(0.25)
    V = (sysv.param("c1") + sysv.param("c2") * C) / (S * S)
    val = V.evaluate({"q": math.pi / 2, "u": 1.0}, {"c1": 1.5, "c2": 0.5})
    assert val == pytest.approx(1.5)


def test_evaluate_singular_guard(sysv):
    u = sysv.coord("u")
    inv = sysv.one() / u
    with pytest.raises(SingularEvaluation):
        inv.evaluate({"q": 0.5, "u": 1e-15}, {})


def test_division_errors(sysv):
    with pytest.raises(ZeroCoefficientDivision):
        sysv.one() / sysv.zero()
    with pytest.raises(ZeroCoefficientDivision):
        sysv.one() / (sysv.S("q") * 0)


def test_negative_powers(sysv):
    u = sysv.coord("u")
    assert ((u ** -2) * u * u - 1).is_zero


def test_parameter_denominator(sysv):
    a1 = sysv.param("a1")
    x = sysv.one() / a1
    assert ((x * a1) - 1).is_zero
    assert not x.is_zero


def test_compact_cancels_structural_units(sysv):
    S = sysv.S("q")
    g2 = (sysv.C("q") / S) ** 2
    prod = g2 * (sysv.one() / g2)
    assert (prod - 1).is_zero
    assert prod.compact() == sysv.one()


def test_arithmetic_cancels_dividing_factors(sysv):
    u, S = sysv.coord("u"), sysv.S("q")
    a = sysv.one() / (u + 1)
    left = (sysv.one() + a) - a
    assert left == sysv.one() + (a - a)
    assert left.render() == "1"
    assert (u + 1) * a == sysv.one()
    b = sysv.param("c1") / (u + S) ** 2
    assert b * (u + S) * (u + S) == sysv.param("c1")
    assert (b * (u + S)).den_factors == b.den_factors


def test_constant_part(sysv):
    S = sysv.S("q")
    g2 = (sysv.C("q") / S) ** 2
    omega = sysv.param("omega")
    psi = (omega / g2) * g2
    assert psi.constant_part() == ParamPoly.var("omega")
    assert (S * S).constant_part() is None


def test_undecided_division_raises(sysv, monkeypatch):
    """A division cut off by the step limit is an error, not "does not divide"."""
    from hamext import coeffs

    u = sysv.coord("u")
    f = u + 1
    num = f * f * f
    assert coeffs.poly_divexact(num.num, f.num) == (f * f).num
    assert (num / (f * f)).constant_part() is None
    monkeypatch.setattr(coeffs, "DIVEXACT_MAX_STEPS", 1)
    with pytest.raises(ArithmeticError):
        coeffs.poly_divexact(num.num, f.num)
    with pytest.raises(ArithmeticError):
        (num / (f * f)).constant_part()


def test_rate_and_tag_generators():
    # S' = rate*C and C' = -tag*rate*S for a tagged pair with rate 3/2
    sy = VarSystem([Var.tagged("v", tag=Q(1), rate=Q(3, 2))])
    S, C = sy.S("v"), sy.C("v")
    assert (S.differentiate("v") - C * Q(3, 2)).is_zero
    assert (C.differentiate("v") + S * Q(3, 2)).is_zero
    # rational tag keeps everything exact: tag 2 means C^2 = 1 - 2 S^2
    sy2 = VarSystem([Var.tagged("v", tag=Q(2))])
    S2, C2 = sy2.S("v"), sy2.C("v")
    assert (C2 * C2 + S2 * S2 * 2 - 1).is_zero
    val = S2.evaluate({"v": 0.7}, {})
    assert val == pytest.approx(math.sin(math.sqrt(2) * 0.7) / math.sqrt(2))


def test_variable_kinds_are_read_from_each_var():
    vs = [Var.tagged("a", tag=1, rate=Q(3, 2)), Var.linear("x"),
          Var.tagged("b", tag=-1, rate=2), Var.tagged("c", tag=3, rate=Q(-1, 3)),
          Var.tagged("d", tag=-2, rate=Q(5, 4))]
    sy = VarSystem(vs)
    kinds, tagged = [], []
    for v in vs:
        off = sy.offset(v.name)
        tag_rate = -v.tag * v.rate
        kinds.append((off, v.is_linear, (v.rate.numerator, v.rate.denominator),
                      (tag_rate.numerator, tag_rate.denominator)))
        if v.tag:
            tagged.append((off, -v.tag))
    assert sy._kinds == kinds
    assert sy._tagged == tagged
    # C' = -tag*rate*S and S' = rate*C on each tagged pair
    for v in vs[2:]:
        S, C = sy.S(v.name), sy.C(v.name)
        assert C.differentiate(v.name) == S * (-v.tag * v.rate)
        assert S.differentiate(v.name) == C * v.rate
        assert (C * C + S * S * v.tag - 1).is_zero


def _content_by_slots(p):
    """The componentwise minimum exponent, one slot at a time."""
    return tuple(min(m[i] for m in p.terms) for i in range(p.sys.width))


def _ref_normalize(sys, num, den_mono, factors):
    """``_normalize``'s numerator and monomial, the content cancelled as
    ``min(content of the numerator, den_mono)``, then shifted out of both.

    Each factor must have no monomial content.  Then a normalisation with
    a unit monomial cancels no content.  A C^2 of ``den_mono`` goes into it
    as the Pythagorean factor C^2 = 1 - tag*S^2, which scales the numerator
    monic but never divides out of it.
    """
    assert all(not any(_content_by_slots(f)) for f, _ in factors)
    den = list(den_mono)
    pyth = []
    for v in sys.vars:
        if v.tag:
            off = sys.offset(v.name)
            k, den[off] = divmod(den[off], 2)
            pyth.append(((sys.C(v.name) ** 2).num, k))
    num = CanonicalCoeff._normalize(sys, num, sys.unit_mono, tuple(factors) + tuple(pyth)).num
    cont = tuple(min(c, d) for c, d in zip(_content_by_slots(num), den))
    return num.shift_down(cont), tuple(d - c for d, c in zip(den, cont))


def _check_normalize(sys, num, den_mono, factors=()):
    got = CanonicalCoeff._normalize(sys, num, den_mono, factors)
    assert (got.num, got.den_mono) == _ref_normalize(sys, num, den_mono, factors)


def test_normalize_content_hand_picked(sysv):
    S, C, u = sysv.S("q"), sysv.C("q"), sysv.coord("u")
    # single-term numerators, numerators holding the unit monomial, and
    # numerators with a content of their own; the layout is (cos q, sin q, u)
    for a in (S * u * u, C * S * u ** 3, 1 + u * S, u * 2 + S * u, C * u + S * S * u * u):
        for den_mono in ((0, 0, 0), (0, 0, 1), (1, 0, 2), (0, 2, 0), (3, 1, 0), (2, 0, 5)):
            _check_normalize(sysv, a.num, den_mono)
            _check_normalize(sysv, a.num, den_mono, (((u + 1).num, 2),))
    # a single-term numerator cancels down to its coefficient
    got = CanonicalCoeff._normalize(sysv, (S * u * u).num, (0, 1, 3), ())
    assert (got.num, got.den_mono) == (Poly.one(sysv), (0, 0, 1))


@given(st.data())
def test_normalize_content_matches_reference(sysv, data):
    a = data.draw(coeff_strategy(sysv))
    if a.is_zero:
        return
    extra = data.draw(st.tuples(*[st.integers(0, 3)] * sysv.width))
    den_mono = tuple(map(sum, zip(a.den_mono, extra)))
    _check_normalize(sysv, a.num, den_mono, a.den_factors)


@given(st.data())
def test_content_matches_slot_loop(sysv, data):
    a = data.draw(coeff_strategy(sysv))
    for p in [a.num] + [f for f, _ in a.den_factors]:
        if not p.is_zero:
            assert p.content() == _content_by_slots(p)


def test_content_of_zero_polynomial_is_refused(sysv):
    with pytest.raises(ValueError, match="zero polynomial"):
        Poly(sysv, {}).content()


def test_tagged_variable_refuses_rate_zero():
    # sin(0*q) is identically 0, so the ring must never hold it as a generator
    for make in (lambda: Var.circular("q", rate=0), lambda: Var.hyperbolic("q", rate=0),
                 lambda: Var.tagged("q", tag=Q(2), rate=0),
                 lambda: replace(Var.circular("q"), rate=Q(0))):
        with pytest.raises(ValueError, match="'q'"):
            make()
    assert Var.tagged("q", tag=0, rate=0) == Var.linear("q")


@given(st.data())
def test_canonical_form_is_construction_order_independent(sysv, data):
    terms = data.draw(st.lists(coeff_strategy(sysv), min_size=2, max_size=4))
    perm = data.draw(st.permutations(terms))

    def sum_left(seq):
        acc = seq[0]
        for t in seq[1:]:
            acc = acc + t
        return acc

    def sum_right(seq):
        acc = seq[-1]
        for t in reversed(seq[:-1]):
            acc = t + acc
        return acc

    a = sum_left(terms)
    b = sum_right(perm)
    assert a == b
    assert a.render() == b.render()

    prod_l = terms[0]
    for t in terms[1:]:
        prod_l = prod_l * t
    prod_r = perm[-1]
    for t in reversed(perm[:-1]):
        prod_r = t * prod_r
    assert prod_l == prod_r


@given(st.data())
def test_commutativity_at_representation_level(sysv, data):
    a = data.draw(coeff_strategy(sysv))
    b = data.draw(coeff_strategy(sysv))
    assert (a * b - b * a).is_zero
    assert ((a + b) - (b + a)).is_zero
    assert (a * b) == (b * a)


@given(st.data())
def test_product_rule(sysv, data):
    a = data.draw(coeff_strategy(sysv))
    b = data.draw(coeff_strategy(sysv))
    for v in ("q", "u"):
        lhs = (a * b).differentiate(v)
        rhs = a.differentiate(v) * b + a * b.differentiate(v)
        assert (lhs - rhs).is_zero


@given(st.data())
def test_derivative_matches_finite_differences(sysv, data):
    a = data.draw(coeff_strategy(sysv))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    params = {"c1": 0.7, "c2": -0.3, "omega": 0.9, "L0": 1.1}
    h = 1e-5
    for v in ("q", "u"):
        d = a.differentiate(v)
        for _ in range(3):
            pt = {"q": rng.uniform(0.4, 1.1), "u": rng.uniform(0.4, 1.1)}
            try:
                sym = d.evaluate(pt, params)
                plus = dict(pt, **{v: pt[v] + h})
                minus = dict(pt, **{v: pt[v] - h})
                fd = (a.evaluate(plus, params) - a.evaluate(minus, params)) / (2 * h)
            except SingularEvaluation:
                continue
            assert abs(sym - fd) / (1 + abs(sym)) < 1e-6


# Prints the nested insertion order of a sum over two multi-term
# denominators; numeric evaluation sums in that order.
_ORDER_PROBE = """
from hamext import Var, VarSystem
sysv = VarSystem([Var.circular("q"), Var.linear("u")])
S, C, u = sysv.S("q"), sysv.C("q"), sysv.coord("u")
x = 1 + (1 / (u + 1)) * (1 / (u + S + C))
def items(p):
    return [(m, list(pp.terms.items())) for m, pp in p.terms.items()]
print(repr((items(x.num), x.den_mono, [(items(f), k) for f, k in x.den_factors])))
"""


def test_sum_order_independent_of_hash_seed():
    # the factors a sum raises each numerator by must not be taken in set
    # order, which follows the hash seed through the variable names
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", _ORDER_PROBE], env=env,
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_render_deterministic_ordering(sysv):
    S, C, u = sysv.S("q"), sysv.C("q"), sysv.coord("u")
    x = u * S + C * 2 + sysv.param("c1")
    assert x.render() == "sin(q)*u + 2*cos(q) + c1"
