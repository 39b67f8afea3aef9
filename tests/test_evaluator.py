"""The compiled numeric evaluator against the interpretive chain it replaced.

The reference functions below are the per-point evaluation loops of
``ParamPoly``, ``Poly``, ``CanonicalCoeff`` and ``PPoly`` as they were
before evaluation was compiled, with their generator-value helper and mpf
converter.  The compiled functions must give bitwise the same value, of
the same type, at double precision and at 50 digits, and must raise
``SingularEvaluation`` at exactly the same points and guards: the pinned
50-digit ``verify`` reports depend on every rounding step.
"""

import functools
import math
import random
import re

import mpmath
import pytest
from hypothesis import given, strategies as st

from hamext import ParamPoly, PhaseSpace, Q, Var, VarSystem, cage_model, ttw_model
from hamext.cli import _initial_point, build_model, make_config, numeric_params
from hamext.coeffs import Poly, SingularEvaluation
from hamext.dynamics import (TrajectoryConfig, compile_ppoly, hamiltons_equations,
                             integrate_adaptive, invariant_values)
from hamext.numeric import compile_numeric
from hamext.params import PARAMS
from hamext.verify import _gradient

from conftest import coeff_strategy, ppoly_strategy

# -- reference chain ----------------------------------------------------------


def ref_mp_conv(x):
    if isinstance(x, (int, float)):
        return mpmath.mpf(x)
    if hasattr(x, "numerator") and hasattr(x, "denominator") and not isinstance(x, mpmath.mpf):
        return mpmath.mpf(int(x.numerator)) / mpmath.mpf(int(x.denominator))
    return mpmath.mpf(x)


def ref_param_evaluate(pp, values, conv):
    total = conv(0)
    for m, c in pp.terms.items():
        term = conv(c.numerator) / conv(c.denominator)
        for i, e in m:
            term = term * conv(values[PARAMS[i]]) ** e
        total = total + term
    return total


def _fn(name, x):
    if isinstance(x, float):
        return getattr(math, name)(x)
    return getattr(mpmath, name)(x)


def ref_generator_values(sys, point, conv):
    out = {}
    for v in sys.vars:
        x = conv(point[v.name])
        if v.is_linear:
            out[v.name] = (x,)
            continue
        rate = conv(v.rate.numerator) / conv(v.rate.denominator)
        tag = conv(v.tag.numerator) / conv(v.tag.denominator)
        arg = rate * x
        if v.tag > 0:
            root = tag ** conv("0.5") if not isinstance(tag, float) else math.sqrt(tag)
            s, c = _fn("sin", root * arg), _fn("cos", root * arg)
            out[v.name] = (c, s / root)
        else:
            root = (-tag) ** conv("0.5") if not isinstance(tag, float) else math.sqrt(-tag)
            out[v.name] = (_fn("cosh", root * arg), _fn("sinh", root * arg) / root)
    return out


def ref_poly_evaluate(p, genvals, params, conv):
    total = conv(0)
    for m, c in p.terms.items():
        term = ref_param_evaluate(c, params, conv)
        for v, off in zip(p.sys.vars, p.sys._offset):
            for k in range(v.slots):
                e = m[off + k]
                if e:
                    term = term * genvals[v.name][k] ** e
        total = total + term
    return total


def ref_coeff_evaluate(c, point, params, conv=float, guard=1e-12, prec=None):
    if prec is not None:
        with mpmath.workdps(prec):
            return ref_coeff_evaluate(c, point, params, ref_mp_conv,
                                      float(10.0 ** (10 - prec)))
    genvals = ref_generator_values(c.sys, point, conv)
    den = ref_poly_evaluate(Poly.from_mono(c.sys, c.den_mono), genvals, params, conv)
    for f, k in c.den_factors:
        den = den * ref_poly_evaluate(f, genvals, params, conv) ** k
    if abs(den) < guard:
        raise SingularEvaluation(f"denominator magnitude {den} below guard {guard}")
    return conv(0) + ref_poly_evaluate(c.num, genvals, params, conv) / den


def _ref_ppoly_with(F, coords, params, conv, guard):
    total = conv(0)
    names = F.space.position_names
    for pe, c in F.terms.items():
        val = ref_coeff_evaluate(c, coords, params, conv, guard)
        for i, e in enumerate(pe):
            if e:
                val = val * conv(coords[f"p_{names[i]}"]) ** e
        total = total + val
    return total


def ref_ppoly_evaluate(F, coords, params, prec=None, guard=None):
    if prec is None:
        return _ref_ppoly_with(F, coords, params, float, 1e-12 if guard is None else guard)
    with mpmath.workdps(prec):
        g = mpmath.mpf(10) ** (-prec + 10) if guard is None else guard
        return _ref_ppoly_with(F, coords, params, ref_mp_conv, g)


def compile_one(F, params, prec=None, guard=None):
    """``PhaseSpace.compile`` of ``F`` alone: a function of the coordinates
    that returns its value, with the compiled ``source``."""
    fn = F.space.compile([F], params, prec, guard)

    def call(*coords):
        return fn(*coords)[0]

    call.source = fn.source
    return call


# -- comparison ------------------------------------------------------------------


def outcome(thunk):
    """Bitwise identity of a value and its type, or the singular verdict."""
    try:
        v = thunk()
    except SingularEvaluation:
        return "singular"
    except ZeroDivisionError:
        return "zero division"
    except ValueError:  # math.sin(inf) in floats
        return "domain error"
    except OverflowError:  # a float ** out of range
        return "overflow"
    if isinstance(v, mpmath.mpf):
        return (mpmath.mpf, v._mpf_)
    return (type(v), v.hex())


PARAM_VALUES = {"c1": 1.3, "c2": -0.7, "omega": Q(2, 3), "L0": 0.45}

SYSTEMS = {
    "circular": VarSystem([Var.circular("q"), Var.linear("u")]),
    "hyperbolic-rate-2": VarSystem([Var.hyperbolic("q", 2), Var.linear("u")]),
    # an irrational root and a rate that is not a power of two make
    # root*(rate*x) and (root*rate)*x round differently
    "tag-3-rate-2/5": VarSystem([Var.tagged("q", 3, Q(2, 5)), Var.linear("u")]),
    "tag--2-rate-3/7": VarSystem([Var.tagged("q", -2, Q(3, 7)), Var.linear("u")]),
}
SPACES = {k: PhaseSpace(s, ext="u") for k, s in SYSTEMS.items()}

_coord = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
points = st.fixed_dictionaries({"q": _coord, "u": _coord, "p_q": _coord, "p_u": _coord})
# guards below every denominator, at the size of some, and above the unit one
guards = st.sampled_from([None, 1e-3, 0.3, 2.0])
precisions = st.sampled_from([None, 50])


# one strategy per space, built once: a test draws from it with ``data.draw``
@functools.lru_cache(maxsize=None)
def _ppoly(name):
    return ppoly_strategy(SPACES[name])


@functools.lru_cache(maxsize=None)
def _ppoly_case(name):
    return st.tuples(_ppoly(name), points, guards, precisions)


@pytest.mark.parametrize("name", sorted(SPACES))
@given(data=st.data())
def test_ppoly_matches_reference(name, data):
    F, pt, guard, prec = data.draw(_ppoly_case(name))
    want = outcome(lambda: ref_ppoly_evaluate(F, pt, PARAM_VALUES, prec, guard))
    fn = compile_one(F, PARAM_VALUES, prec, guard)
    values = [pt[n] for n in F.space.coordinate_names]
    assert outcome(lambda: fn(*values)) == want
    assert outcome(lambda: F.evaluate(pt, PARAM_VALUES, prec, guard)) == want


@functools.lru_cache(maxsize=None)
def _coeff(name):
    return coeff_strategy(SYSTEMS[name])


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@given(data=st.data())
def test_coeff_matches_reference(name, data):
    c, pt, guard = data.draw(st.tuples(_coeff(name), points,
                                       st.sampled_from([1e-12, 1e-3, 0.3, 2.0])))
    want = outcome(lambda: ref_coeff_evaluate(c, pt, PARAM_VALUES, guard=guard))
    assert outcome(lambda: c.evaluate(pt, PARAM_VALUES, guard=guard)) == want
    want = outcome(lambda: ref_coeff_evaluate(c, pt, PARAM_VALUES, prec=50))
    assert outcome(lambda: c.evaluate(pt, PARAM_VALUES, prec=50)) == want


def test_param_constants_start_from_reduced_terms():
    """Above 2**53 a numerator rounds when converted, so each constant must
    start from its term's own reduced numerator and denominator, as with
    ``Fraction`` coefficients, not from the shared common denominator."""
    c1 = ((PARAMS.index("c1"), 1),)
    pp = ParamPoly({(): Q(1, 3), c1: Q(10**17 + 10, 7)})
    assert pp.den == 21
    for conv in (float, ref_mp_conv):
        assert pp.evaluate(PARAM_VALUES, conv) == ref_param_evaluate(pp, PARAM_VALUES, conv)


@given(ppoly_strategy(SPACES["circular"]), points)
def test_unguarded_flow_function_matches_reference(F, pt):
    """``compile_ppoly`` is the float evaluation with no guard at all."""
    want = outcome(lambda: ref_ppoly_evaluate(F, pt, PARAM_VALUES, guard=0.0))
    fn = compile_ppoly(F, PARAM_VALUES)
    assert outcome(lambda: fn([pt[n] for n in F.space.coordinate_names])) == want


def test_singular_points_agree():
    sys = SYSTEMS["circular"]
    space = SPACES["circular"]
    u, S = sys.coord("u"), sys.S("q")
    F = space.lift(sys.one() / (u + S) ** 2) * space.p("q") + space.lift(S / u)
    for pt, guard in [({"q": 0.4, "u": -math.sin(0.4), "p_q": 1.0, "p_u": 0.0}, None),
                      ({"q": 0.4, "u": 1e-13, "p_q": 1.0, "p_u": 0.0}, None),
                      ({"q": 0.4, "u": 0.01, "p_q": 1.0, "p_u": 0.0}, 0.05),
                      ({"q": 0.4, "u": 0.5, "p_q": 1.0, "p_u": 0.0}, 0.05)]:
        for prec in (None, 50):
            want = outcome(lambda: ref_ppoly_evaluate(F, pt, PARAM_VALUES, prec, guard))
            got = outcome(lambda: F.evaluate(pt, PARAM_VALUES, prec, guard))
            assert got == want
    with pytest.raises(SingularEvaluation):
        F.evaluate({"q": 0.4, "u": 1e-13, "p_q": 1.0, "p_u": 0.0}, PARAM_VALUES)


def test_singular_messages_agree():
    """A rejected point raises with the reference chain's message; at 50
    digits the denominator is printed at 50 digits, not at 15."""
    sys = SYSTEMS["circular"]
    space = SPACES["circular"]
    u, S = sys.coord("u"), sys.S("q")
    F = space.lift(sys.one() / (u + S) ** 2) * space.p("q") + space.lift(S / u)
    for pt, guard in [({"q": 0.4, "u": 1e-45, "p_q": 1.0, "p_u": 0.0}, None),
                      ({"q": 0.4, "u": -math.sin(0.4), "p_q": 1.0, "p_u": 0.0}, 1e-3),
                      ({"q": 0.4, "u": 0.01, "p_q": 1.0, "p_u": 0.0}, 0.05)]:
        for prec in (None, 50):
            with pytest.raises(SingularEvaluation) as want:
                ref_ppoly_evaluate(F, pt, PARAM_VALUES, prec, guard)
            with pytest.raises(SingularEvaluation) as got:
                F.evaluate(pt, PARAM_VALUES, prec, guard)
            assert str(got.value) == str(want.value)
    assert str(got.value) == ("denominator magnitude "
                              "0.010000000000000000208166817117216851329430937767029 "
                              "below guard 0.05")


@pytest.mark.parametrize("name", sorted(SPACES))
@given(data=st.data())
def test_values_do_not_depend_on_the_callers_precision(name, data):
    """At 50 digits, compiling and calling inside ``workdps(15)`` or
    ``workdps(80)`` gives bitwise the reference values and verdicts."""
    F, pt, guard, _ = data.draw(_ppoly_case(name))
    want = outcome(lambda: ref_ppoly_evaluate(F, pt, PARAM_VALUES, 50, guard))
    values = [pt[n] for n in F.space.coordinate_names]
    fn = compile_one(F, PARAM_VALUES, 50, guard)
    for dps in (15, 80):
        with mpmath.workdps(dps):
            assert outcome(lambda: fn(*values)) == want
            assert outcome(lambda: compile_one(F, PARAM_VALUES, 50, guard)(*values)) == want


SPECIAL_POINTS = [{"q": math.nan, "u": 0.5}, {"q": 0.4, "u": math.nan},
                  {"q": math.inf, "u": 0.5}, {"q": 0.4, "u": -math.inf},
                  {"q": 1, "u": -2}, {"q": 0, "u": 3},
                  {"q": Q(2, 5), "u": Q(-7, 3)}, {"q": Q(1, 3), "u": 1}]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@given(data=st.data())
def test_special_coordinates_match_reference(name, data):
    """NaN and infinite coordinates, and int and ``Fraction`` point values,
    give the reference chain's 50-digit value or verdict."""
    c, pt = data.draw(st.tuples(_coeff(name), st.sampled_from(SPECIAL_POINTS)))
    want = outcome(lambda: ref_coeff_evaluate(c, pt, PARAM_VALUES, prec=50))
    assert outcome(lambda: c.evaluate(pt, PARAM_VALUES, prec=50)) == want


def verdict(thunk):
    """``outcome``, with the message of a singular verdict, which prints the
    denominator: a -0.0 there prints differently from 0.0."""
    got = outcome(thunk)
    if got != "singular":
        return got
    with pytest.raises(SingularEvaluation) as exc:
        thunk()
    return got, str(exc.value)


def ref_coeff_with(c, point, params, prec, guard):
    """``ref_coeff_evaluate`` with the guard and its default as in ``ref_ppoly_evaluate``."""
    if prec is None:
        return ref_coeff_evaluate(c, point, params, float, 1e-12 if guard is None else guard)
    with mpmath.workdps(prec):
        g = mpmath.mpf(10) ** (-prec + 10) if guard is None else guard
        return ref_coeff_evaluate(c, point, params, ref_mp_conv, g)


_special = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
special_floats = st.fixed_dictionaries({n: _special | _coord for n in ("q", "u", "p_q", "p_u")})


@pytest.mark.parametrize("name", sorted(SPACES))
@given(data=st.data())
def test_special_float_coordinates_match_reference(name, data):
    """In floats, NaN, infinite and signed-zero coordinates give bitwise the
    reference chain's values, the sign of a zero included, and its verdicts
    and messages, for a polynomial and for a coefficient alone: the float
    source leaves out the ``0.0 +`` of a numerator, but not of a guarded
    denominator, whose message prints a -0.0, or of a value, where it turns
    -0.0 into 0.0."""
    F, c, pt, guard = data.draw(st.tuples(_ppoly(name), _coeff(name), special_floats,
                                          st.sampled_from([None, 0.0, 1e-3, 0.3, 2.0])))
    want = verdict(lambda: ref_ppoly_evaluate(F, pt, PARAM_VALUES, None, guard))
    values = [pt[n] for n in F.space.coordinate_names]
    assert verdict(lambda: compile_one(F, PARAM_VALUES, None, guard)(*values)) == want
    want = verdict(lambda: ref_coeff_with(c, pt, PARAM_VALUES, None, guard))
    assert verdict(lambda: c.evaluate(pt, PARAM_VALUES, None, guard)) == want


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@given(data=st.data())
def test_coeff_is_its_constant_polynomial(name, data):
    """A coefficient's value, or its verdict and message, is bitwise that of
    its lifted constant polynomial, in floats and at 50 digits.  A zero
    coefficient lifts to the polynomial with no term, which evaluates no
    generator and no denominator, so it is left out."""
    c, pt, guard, prec = data.draw(st.tuples(_coeff(name).filter(lambda c: not c.is_zero),
                                             special_floats, guards | st.just(0.0), precisions))
    space = SPACES[name]
    fn = space.compile([space.lift(c)], PARAM_VALUES, prec, guard)
    want = verdict(lambda: fn(*[pt[n] for n in space.coordinate_names])[0])
    assert verdict(lambda: c.evaluate(pt, PARAM_VALUES, prec, guard)) == want


def test_coeff_zero_value_is_positive():
    """``sin(q)/(u - 2)`` at q = 0, u = 1 is the quotient -0.0 added to 0.0:
    0.0 in floats, as a polynomial's value is, and the mpf zero at 50 digits."""
    sys = SYSTEMS["circular"]
    c = sys.S("q") / (sys.coord("u") - 2)
    pt = {"q": 0.0, "u": 1.0}
    assert math.copysign(1.0, math.sin(0.0) / (1.0 - 2)) == -1.0
    assert outcome(lambda: c.evaluate(pt, {})) == (float, "0x0.0p+0")
    assert outcome(lambda: c.evaluate(pt, {}, 50)) == (mpmath.mpf, mpmath.libmp.fzero)
    for prec in (None, 50):
        assert outcome(lambda: c.evaluate(pt, {}, prec)) == outcome(
            lambda: ref_coeff_with(c, pt, {}, prec, None))


def test_generators_only_where_a_coefficient_is_evaluated():
    """At an infinite angle ``math.sin`` raises.  The reference chain takes
    the generators of every variable for each coefficient it evaluates, and
    none for a polynomial without terms, so a compiled function computes them
    only if it evaluates some coefficient, and raises where the reference
    raises, even for a generator no term reads."""
    space = SPACES["circular"]
    pt = {"q": math.inf, "u": 0.5, "p_q": 0.25, "p_u": -1.0}
    values = [pt[n] for n in space.coordinate_names]
    for F in (space.zero(), space.p("q"), space.lift(space.system.coord("u"))):
        for prec in (None, 50):
            want = verdict(lambda: ref_ppoly_evaluate(F, pt, PARAM_VALUES, prec))
            assert verdict(lambda: compile_one(F, PARAM_VALUES, prec)(*values)) == want
    zero = compile_one(space.zero(), PARAM_VALUES)
    assert verdict(lambda: zero(*values)) == (float, "0x0.0p+0")
    assert verdict(lambda: compile_one(space.p("q"), PARAM_VALUES)(*values)) == "domain error"


def test_zero_guard_compiles_no_check():
    """``abs(d) < 0`` never holds, not even for a NaN ``d``, so a guard of 0
    compiles no check: no line of the float source and no op of the 50-digit
    tape.  A positive guard keeps one per denominator and still raises."""
    sys = SYSTEMS["circular"]
    space = SPACES["circular"]
    u, S = sys.coord("u"), sys.S("q")
    F = space.lift(sys.one() / (u + S) ** 2) * space.p("q") + space.lift(S / u)
    near = {"q": 0.4, "u": 0.01, "p_q": 1.0, "p_u": 0.0}
    values = [near[n] for n in space.coordinate_names]
    checks = {None: "if abs(d) < G: raise below(d)", 50: "guard("}
    counts = {}
    for prec, check in checks.items():
        assert check not in space.compile([F], PARAM_VALUES, prec, 0.0).source
        counts[prec] = space.compile([F], PARAM_VALUES, prec, 0.05).source.count(check)
        with pytest.raises(SingularEvaluation):
            compile_one(F, PARAM_VALUES, prec, 0.05)(*values)
        want = outcome(lambda: ref_ppoly_evaluate(F, near, PARAM_VALUES, prec, 0.0))
        assert outcome(lambda: compile_one(F, PARAM_VALUES, prec, 0.0)(*values)) == want
    assert counts[None] == counts[50] == 2
    nan = dict(near, u=math.nan)
    got = compile_one(F, PARAM_VALUES, None, 0.0)(*[nan[n] for n in space.coordinate_names])
    assert math.isnan(got)


def test_constant_fractions_match_reference():
    """A fraction with no generator in its numerator or denominator is
    computed once, when it compiles, by the same operations; a denominator
    that is zero or below the guard, or overflows a float, still makes each
    call raise.  Guards below, at and above the denominators' magnitudes,
    at both precisions, for polynomial terms and for coefficients alone."""
    sys, space = SYSTEMS["circular"], SPACES["circular"]
    c1, c2 = sys.param("c1"), sys.param("c2")
    u, S = sys.coord("u"), sys.S("q")
    ratio, third = c1 / (c1 + c2), sys.scalar(Q(1, 3))  # denominators c1 + c2 and 1
    square = c2 / (c1 + c2) / (c1 + c2)  # the factor c1 + c2 to the power 2
    F = (space.lift(ratio) * space.p("q") + space.lift(third)
         + space.lift(S / u) * space.p("u") ** 2)
    pt = {"q": 0.4, "u": 0.7, "p_q": -1.1, "p_u": 0.3}
    values = [pt[n] for n in space.coordinate_names]
    zero = dict(PARAM_VALUES, c1=0.7, c2=-0.7)  # c1 + c2 is exactly 0
    huge = dict(PARAM_VALUES, c1=1e200)  # (c1 + c2) ** 2 overflows a float
    seen = set()
    for params in (PARAM_VALUES, zero, huge):
        for prec in (None, 50):
            for guard in (None, 0.0, 0.3, 1.0, 2.0):
                # compiling never raises: only the call does
                fn = compile_one(F, params, prec, guard)
                want = verdict(lambda: ref_ppoly_evaluate(F, pt, params, prec, guard))
                assert verdict(lambda: fn(*values)) == want
                seen.add(want if isinstance(want, str) else want[0])
                for c in (ratio, third, square):
                    fn = compile_numeric(sys, [[((), c)]], params, prec, guard, 0)
                    want = verdict(lambda: ref_coeff_with(c, pt, params, prec, guard))
                    assert verdict(lambda: fn(pt["q"], pt["u"])[0]) == want
                    seen.add(want if isinstance(want, str) else want[0])
    assert {"singular", "zero division", "overflow", float, mpmath.mpf} <= seen
    # c1 + c2 = 0.6 and 1 pass the guard 0.3, so only u is checked; both are
    # below the guard 2, and a zero denominator stays in the function
    for prec, check in ((None, "if abs(d) < G: raise below(d)"), (50, "guard(")):
        assert compile_one(F, PARAM_VALUES, prec, 0.3).source.count(check) == 1
        assert compile_one(F, PARAM_VALUES, prec, 2.0).source.count(check) == 3
        assert compile_one(F, zero, prec, 0.3).source.count(check) == 2
    assert "/ d" not in space.compile([F - space.lift(S / u) * space.p("u") ** 2],
                                      PARAM_VALUES, None, 0.3).source
    # a denominator without generators under a numerator with them (c1 + c2,
    # and 1) is checked when it compiles: the guard 0 compiles no check, 0.3
    # passes both, 2 fails both, and then each call raises
    scaled = S / (c1 + c2)
    G = space.lift(scaled) * space.p("q") + space.lift(S * u)
    for params in (PARAM_VALUES, zero):
        for prec in (None, 50):
            for guard in (0.0, 0.3, 2.0):
                fn = compile_one(G, params, prec, guard)
                coeff = compile_numeric(sys, [[((), scaled)]], params, prec, guard, 0)
                want = verdict(lambda: ref_ppoly_evaluate(G, pt, params, prec, guard))
                alone = verdict(lambda: ref_coeff_with(scaled, pt, params, prec, guard))
                for _ in range(2):
                    assert verdict(lambda: fn(*values)) == want
                    assert verdict(lambda: coeff(pt["q"], pt["u"])[0]) == alone
    for prec, check, div in ((None, "if abs(d) < G: raise below(d)", " / "),
                             (50, "guard(", "mpf_div(")):
        counts = [compile_one(G, PARAM_VALUES, prec, guard).source.count(check)
                  for guard in (0.0, 0.3, 2.0)]
        assert counts == [0, 0, 2]
        # the constant c1 + c2 is divided by; the constant 1 is not
        assert compile_one(G, PARAM_VALUES, prec, 0.3).source.count(div) == 1


# -- the gradients verify evaluates --------------------------------------------------

INLINE_V = "(c1 + c2*cos(q))/sin(q)^2"


def _inline(kappa):
    return build_model(make_config(
        ["build", "--model", "inline", "--c", "1", "--kappa", str(kappa),
         "--A", "1", "--omega", "sym", "--V", INLINE_V, "--eta", "sin(q)",
         "--m", "2", "--n", "1"]))


MODELS = {
    "ttw-3-2": (lambda: ttw_model(3, 2),
                {"alpha1": Q(5, 4), "alpha2": Q(7, 4), "omega": Q(2, 3)}),
    "cage-4-3": (lambda: cage_model(4, 3),
                 {"L0": Q(3, 4), "b": Q(1, 2), "omega": Q(2, 3), "A": 1}),
    "inline-k+1-2-1": (lambda: _inline(1), {"c1": 1.5, "c2": 0.25, "omega": 0.5}),
    "inline-k-1-2-1": (lambda: _inline(-1), {"c1": 1.5, "c2": 0.25, "omega": 0.5}),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_gradients_match_reference(name):
    make, params = MODELS[name]
    model = make()
    rng = random.Random(7)
    pts = []
    for _ in range(3):
        pt = {n: rng.uniform(0.3, 1.2) for n in model.space.position_names}
        pt.update({n: rng.uniform(-1.0, 1.0) for n in model.space.momentum_names})
        pts.append(pt)
    for F in (model.Hbar, model.Kbar.poly):
        names = F.space.position_names
        for G in [F.d_position(n) for n in names] + [F.d_momentum(n) for n in names]:
            for prec in (None, 50):
                fn = compile_one(G, params, prec)
                for pt in pts:
                    want = outcome(lambda: ref_ppoly_evaluate(G, pt, params, prec))
                    values = [pt[n] for n in G.space.coordinate_names]
                    assert outcome(lambda: fn(*values)) == want


# -- one function for many polynomials -------------------------------------------


@functools.lru_cache(maxsize=None)
def _joint_case(name):
    return st.tuples(st.lists(_ppoly(name), min_size=1, max_size=4),
                     st.lists(points, min_size=2, max_size=2), guards, precisions)


@pytest.mark.parametrize("name", sorted(SPACES))
@given(data=st.data())
def test_joint_function_matches_each_alone(name, data):
    """One function of several polynomials gives, at each of several
    points, bitwise the values of compiling each polynomial alone and of
    the reference chain, or the first of their singular verdicts."""
    Fs, pts, guard, prec = data.draw(_joint_case(name))
    joint = SPACES[name].compile(Fs, PARAM_VALUES, prec, guard)
    alone = [compile_one(F, PARAM_VALUES, prec, guard) for F in Fs]
    for pt in pts:
        values = [pt[n] for n in SPACES[name].coordinate_names]
        want = [outcome(lambda: fn(*values)) for fn in alone]
        assert want == [outcome(lambda: ref_ppoly_evaluate(F, pt, PARAM_VALUES, prec, guard))
                        for F in Fs]
        failed = [w for w in want if isinstance(w, str)]
        try:
            got = [outcome(lambda: v) for v in joint(*values)]
        except SingularEvaluation:
            got = "singular"
        except ZeroDivisionError:
            got = "zero division"
        assert got == (failed[0] if failed else want)


def test_joint_source_binds_each_power_once():
    """Each distinct power of a generator or momentum is one line of the
    float source and one op of the 50-digit tape, bound before the first
    line that reads it; the generators are computed once."""
    space = SPACES["tag-3-rate-2/5"]
    sys = space.system
    u, S, C = sys.coord("u"), sys.S("q"), sys.C("q")
    p, pu = space.p("q"), space.p("u")
    Fs = [space.lift(S ** 3 * u ** 2 / (u + C) ** 2) * p ** 2 + space.lift(C ** 2 * S ** 3),
          space.lift(S ** 2 + u ** 3) * p ** 2 * pu ** 3 + space.lift(S ** 3 / u ** 2) * pu]
    # per precision: a power as the source writes it, its binding line, and sin
    forms = {None: (r"\b([cgsp]\d+) \*\* (\d+)", "    {0}_{1} = {0} ** {1}", "sin("),
             50: (r"\bmpf_pow_int\(([cgsp]\d+), (\d+)\)", "{0}_{1} = mpf_pow_int({0}, {1})",
                  "mpf_sin(")}
    for prec, (power, binding, sin) in forms.items():
        src = space.compile(Fs, PARAM_VALUES, prec).source
        lines = src.splitlines()
        powers = re.findall(power, src)
        assert len(powers) == len(set(powers)) >= 6
        for base, e in powers:
            local = f"{base}_{e}"
            bound = lines.index(binding.format(base, e))
            first = min(i for i, ln in enumerate(lines) if re.search(rf"\b{local}\b", ln))
            assert bound == first
        cos = sin.replace("sin", "cos")
        assert src.count(cos) == src.count(sin) == 1


# -- the functions of a flow, and the work per call ------------------------------------


def _catalog(command, model):
    cfg = make_config([command, "--model", model, "--m", "3", "--n", "2"])
    built = build_model(cfg)
    return built, numeric_params(cfg, built)


def _field_and_invariants(model):
    built, params = _catalog("simulate", model)
    H, names = built.Hbar, built.space.position_names
    field = [H.d_momentum(n) for n in names] + [-H.d_position(n) for n in names]
    return built, params, field, {"H_modified": H, "K_modified": built.Kbar.poly,
                                  "L_base": built.L}


@pytest.mark.parametrize("model", ["ttw", "cage"])
def test_flow_functions_match_reference_at_trajectory_rows(model):
    """The right-hand side and the three monitored invariants of ``simulate``
    give bitwise the reference chain's values at every row of a short flow."""
    built, params, field, invariants = _field_and_invariants(model)
    cfg = TrajectoryConfig(initial=_initial_point(None, built), t_final=2.0, stride=200)
    traj = integrate_adaptive(cfg, hamiltons_equations(built.Hbar, params))
    assert traj.success and len(traj.y) == 200
    rhs = hamiltons_equations(built.Hbar, params)
    monitored = invariant_values(traj, invariants, params)
    for row, (t, y) in enumerate(zip(traj.t, traj.y)):
        pt = dict(zip(built.space.coordinate_names, y))
        assert [outcome(lambda: v) for v in rhs(t, y)] == [
            outcome(lambda: ref_ppoly_evaluate(G, pt, params, guard=0.0)) for G in field]
        assert [outcome(lambda: monitored[n][row]) for n in invariants] == [
            outcome(lambda: ref_ppoly_evaluate(F, pt, params, guard=0.0))
            for F in invariants.values()]


def _float_ops(source):
    """Operators a float function runs per call: each + - * / ** of its assignments."""
    return sum(len(re.findall(r" (?:[-+*/]|\*\*) ", ln.split(" = ", 1)[1]))
               for ln in source.splitlines()[1:] if " = " in ln)


@pytest.mark.parametrize("model, rhs_ops, invariant_ops", [("ttw", 28, 600), ("cage", 15, 589)])
def test_flow_functions_per_call_op_counts(model, rhs_ops, invariant_ops):
    """Pinned work per call of the unguarded right-hand side and invariants.
    Before constant folding and dropping the no-ops they ran 48 and 698
    (ttw), 28 and 697 (cage): each sum of a term's numerator and
    denominator started from 0.0, each constant 1.0 was multiplied, and a
    fraction without generators was divided out at every call.  A
    denominator without generators under a numerator with them was still
    divided by at every call until it was decided when compiling (601 and
    591 ops for the invariants)."""
    built, params, field, invariants = _field_and_invariants(model)
    space = built.space
    assert _float_ops(space.compile(field, params, guard=0.0).source) == rhs_ops
    assert _float_ops(space.compile(list(invariants.values()), params,
                                    guard=0.0).source) == invariant_ops


def test_gradient_tape_op_count():
    """Pinned length of the 50-digit tape of the partials of ttw(3,2)'s H
    and K that ``verify`` compiles (2,109 before these rules): constant
    fractions are folded, an op repeated on the same registers is numbered
    to the first, a register is guarded once, and a division by a constant
    denominator of exactly 1 is left out (1,957 before that)."""
    built, params = _catalog("verify", "ttw")
    grads = [G for F in (built.Hbar, built.Kbar.poly) for G in _gradient(F)]
    listing = built.space.compile(grads, params, 50).source.splitlines()
    assert listing[0].endswith("= to_mpf(coordinates)") and listing[-1].startswith("return")
    assert len(listing) - 2 == 1954
