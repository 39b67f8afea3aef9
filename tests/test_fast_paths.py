"""The exact-ring fast paths against the plain kernels they replace.

The reference functions below are the straightforward versions of
``ParamPoly.__add__``/``__mul__``/``scale``, ``Poly.mul``,
``CanonicalCoeff.differentiate`` and ``PPoly.poisson``.  The fast paths must
give the same values *and* the same dict insertion order at every nesting
level, because numeric evaluation sums terms in that order.  They must also
leave their operands untouched.
"""

from hypothesis import given, strategies as st

from hamext import ParamPoly, PhaseSpace, Q, Var, VarSystem, apply_XL
from hamext.coeffs import Poly, _reduce_raw
from hamext.params import QZERO, _pmono_mul, as_q

from conftest import coeff_strategy, parampoly_strategy, ppoly_strategy

# -- reference kernels -------------------------------------------------------


def ref_pp_add(a, o):
    out = dict(a.terms)
    for m, c in o.terms.items():
        s = out.get(m, QZERO) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return ParamPoly(out)


def ref_pp_mul(a, o):
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in o.terms.items():
            m = _pmono_mul(m1, m2)
            s = out.get(m, QZERO) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return ParamPoly(out)


def ref_pp_scale(a, q):
    q = as_q(q)
    if q == 0:
        return ParamPoly.zero()
    return ParamPoly({m: c * q for m, c in a.terms.items()})


def _ref_accumulate(acc, mono, pp):
    cur = acc.get(mono)
    s = pp if cur is None else ref_pp_add(cur, pp)
    if s.is_zero:
        acc.pop(mono, None)
    else:
        acc[mono] = s


def ref_poly_mul(a, b):
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            c = ref_pp_mul(c1, c2)
            raw = tuple(x + y for x, y in zip(m1, m2))
            for mono, q in _reduce_raw(a.sys, raw):
                _ref_accumulate(acc, mono, ref_pp_scale(c, q))
    return Poly(a.sys, acc)


def ref_differentiate(coeff, name):
    sys = coeff.sys
    if coeff.is_zero:
        return coeff
    dnum = coeff.num.derivative(name)
    if not any(coeff.den_mono) and not coeff.den_factors:
        return coeff._normalize(sys, dnum, sys.unit_mono, ())
    mono_poly = Poly.from_mono(sys, coeff.den_mono)
    dmono = mono_poly.derivative(name)
    prod1 = Poly.one(sys)
    for f, _ in coeff.den_factors:
        prod1 = ref_poly_mul(prod1, f)
    top = ref_poly_mul(ref_poly_mul(dnum, mono_poly), prod1)
    dden = ref_poly_mul(dmono, prod1)
    for i, (f, k) in enumerate(coeff.den_factors):
        piece = f.derivative(name).scale(ParamPoly.scalar(k))
        for j, (g, _) in enumerate(coeff.den_factors):
            if j != i:
                piece = ref_poly_mul(piece, g)
        dden = dden.add(ref_poly_mul(mono_poly, piece))
    top = top.sub(ref_poly_mul(coeff.num, dden))
    new_fac = tuple((f, k + 1) for f, k in coeff.den_factors)
    return coeff._normalize(sys, top, tuple(2 * e for e in coeff.den_mono), new_fac)


def ref_poisson(f, o):
    out = f.space.zero()
    for v in f.space.system.vars:
        name = v.name
        dq_self = f.d_position(name)
        dp_self = f.d_momentum(name)
        if not dq_self.is_zero:
            dp_other = o.d_momentum(name)
            if not dp_other.is_zero:
                out = out + dq_self * dp_other
        if not dp_self.is_zero:
            dq_other = o.d_position(name)
            if not dq_other.is_zero:
                out = out - dp_self * dq_other
    return out


# -- nested insertion order --------------------------------------------------


def pp_items(pp):
    return list(pp.terms.items())


def poly_items(poly):
    return [(m, pp_items(pp)) for m, pp in poly.terms.items()]


def coeff_items(c):
    return (poly_items(c.num), c.den_mono,
            [(poly_items(f), k) for f, k in c.den_factors])


def ppoly_items(f):
    return [(pe, coeff_items(c)) for pe, c in f.terms.items()]


# Circular q with tag 1, and q with tag 2 and rate 3, so that Pythagorean
# reductions carry factors other than +-1; u is linear in both.
SYSTEMS = [VarSystem([Var.circular("q"), Var.linear("u")]),
           VarSystem([Var.tagged("q", Q(2), Q(3)), Var.linear("u")]),
           VarSystem([Var.hyperbolic("q"), Var.linear("u")])]
SPACES = [PhaseSpace(s, ext="u") for s in SYSTEMS]

params = parampoly_strategy()
params_or_unit = st.one_of(st.just(ParamPoly.one()), params)
scales = st.sampled_from([Q(1), 1, Q(-1), Q(2), Q(-3, 4), Q(5, 7), 0])


def polys(sys):
    coeffs = coeff_strategy(sys)
    from_num = coeffs.map(lambda c: c.num)
    from_den = coeffs.filter(lambda c: bool(c.den_factors)).map(
        lambda c: c.den_factors[0][0])
    return st.one_of(st.just(Poly.one(sys)), from_num, from_den)


@given(params_or_unit, params_or_unit)
def test_parampoly_mul_and_add(a, b):
    before = (pp_items(a), pp_items(b))
    for x, y in ((a, b), (b, a), (a + b, a - b), (a - b, b - a)):
        assert pp_items(x * y) == pp_items(ref_pp_mul(x, y))
        assert pp_items(x + y) == pp_items(ref_pp_add(x, y))
        assert pp_items(x - y) == pp_items(ref_pp_add(x, -y))
    assert (pp_items(a), pp_items(b)) == before


@given(params_or_unit, scales)
def test_parampoly_scale(a, q):
    before = pp_items(a)
    assert pp_items(a.scale(q)) == pp_items(ref_pp_scale(a, q))
    assert pp_items(a) == before


def test_parampoly_unit_operand_is_returned():
    a = ParamPoly.var("c1") * Q(3, 2) + ParamPoly.var("omega")
    one = ParamPoly.one()
    assert a * one is a and one * a is a and a.scale(1) is a
    assert pp_items(a * 1) == pp_items(ref_pp_mul(a, one))


@given(st.data())
def test_poly_mul(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    a, b = data.draw(polys(sys)), data.draw(polys(sys))
    before = (poly_items(a), poly_items(b))
    # (a + b)(a - b) and (a + b)(b - a) cancel cross terms at both levels
    for x, y in ((a, b), (b, a), (a.add(b), a.sub(b)), (a.add(b), b.sub(a)),
                 (a, a)):
        assert poly_items(x.mul(y)) == poly_items(ref_poly_mul(x, y))
    assert (poly_items(a), poly_items(b)) == before


def test_poly_mul_pythagorean_cancellation():
    for sys in SYSTEMS:
        S, C = sys.S("q").num, sys.C("q").num
        one = Poly.one(sys)
        cases = [(C, C), (C.add(S), C.sub(S)), (C.mul(S), C.mul(C)),
                 (one.add(S), one.sub(S)), (C.add(one), C.add(one))]
        for x, y in cases:
            assert poly_items(x.mul(y)) == poly_items(ref_poly_mul(x, y))


@given(st.data())
def test_differentiate(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    c = data.draw(coeff_strategy(sys))
    before = coeff_items(c)
    for name in ("q", "u"):
        assert coeff_items(c.differentiate(name)) == coeff_items(ref_differentiate(c, name))
    assert coeff_items(c) == before


@given(st.data())
def test_poisson(data):
    space = data.draw(st.sampled_from(SPACES))
    f = data.draw(ppoly_strategy(space))
    g = data.draw(ppoly_strategy(space))
    before = (ppoly_items(f), ppoly_items(g))
    assert ppoly_items(f.poisson(g)) == ppoly_items(ref_poisson(f, g))
    assert ppoly_items(g.poisson(f)) == ppoly_items(ref_poisson(g, f))
    assert (ppoly_items(f), ppoly_items(g)) == before


@given(st.data())
def test_poisson_with_base_hamiltonian(data):
    # X_L(f) = {f, L} with L free of u and p_u: the case the skips target
    space = data.draw(st.sampled_from(SPACES))
    sys = space.system
    S, C = sys.S("q"), sys.C("q")
    V = data.draw(st.sampled_from([S, C * sys.param("c1"),
                                   sys.param("c1") / (S * S),
                                   (sys.param("c1") + sys.param("c2") * C) / (S * S)]))
    p = space.p("q")
    L = p * p * Q(1, 2) + space.lift(V)
    f = data.draw(ppoly_strategy(space))
    assert ppoly_items(apply_XL(L, f)) == ppoly_items(ref_poisson(f, L))
    assert ppoly_items(L.poisson(f)) == ppoly_items(ref_poisson(L, f))
