"""The exact-ring fast paths against the plain kernels they replace.

The reference functions below are the straightforward versions of
``ParamPoly.__add__``/``__mul__``/``scale``, ``Poly.mul``,
``CanonicalCoeff.differentiate``, ``PPoly.poisson`` and
``ParamPoly.substitute`` (a running sum over the terms), computed on the
``Fraction`` view ``ParamPoly.terms``; subtraction is checked against the
plain ``self + (-o)`` at every level, and powers against a square-and-multiply
loop over each level's own product.  The fast paths must give the same
values *and* the same dict insertion order at every nesting level, because
numeric evaluation sums terms in that order.  They must also leave their
operands untouched, and every ParamPoly they return must be in canonical
form: integer numerators, none zero, over a positive denominator that
shares no factor with all of them.
"""

from math import gcd

from hypothesis import assume, given, strategies as st

from hamext import ParamPoly, PhaseSpace, Q, Var, VarSystem, apply_XL
from hamext.coeffs import CanonicalCoeff, Poly, _is_pythagorean, _reduce_raw
from hamext.params import PARAMS, QONE, QZERO, _pmono_mul, as_q
from hamext.phase import PPoly

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
            for mono, n, d in _reduce_raw(a.sys, raw):
                _ref_accumulate(acc, mono, ref_pp_scale(c, Q(n, d)))
    return Poly(a.sys, acc)


def ref_reduce_raw(sys, raw):
    """Rewrite one C^2 -> 1 - tag*S^2 at a time until every C-exponent is
    at most one, then sum the coefficients of equal monomials."""
    out = {}
    todo = [(raw, QONE)]
    while todo:
        mono, coef = todo.pop()
        for v in sys.vars:
            off = sys.offset(v.name)
            if not v.is_linear and mono[off] >= 2:
                lowered = list(mono)
                lowered[off] -= 2
                todo.append((tuple(lowered), coef))
                lowered[off + 1] += 2
                todo.append((tuple(lowered), -v.tag * coef))
                break
        else:
            out[mono] = out.get(mono, QZERO) + coef
    return {m: c for m, c in out.items() if c}


def ref_power(x, n, one, mul):
    acc = one
    base = x
    while n:
        if n & 1:
            acc = mul(acc, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return acc


def ref_pp_substitute(a, mapping):
    """The running sum ``out = out + piece`` over the terms."""
    out = ParamPoly.zero()
    for m, c in a.terms.items():
        piece = ParamPoly.scalar(c)
        for i, e in m:
            name = PARAMS[i]
            factor = ParamPoly.var(name) if name not in mapping else mapping[name]
            piece = piece * (factor if isinstance(factor, ParamPoly)
                             else ParamPoly.scalar(factor)) ** e
        out = out + piece
    return out


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
    top = top.add(ref_poly_mul(coeff.num, dden).neg())
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
                out = out + (-(dp_self * dq_other))
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


# -- canonical form ------------------------------------------------------------


def assert_canonical(pp):
    assert type(pp.den) is int and pp.den > 0
    assert all(type(c) is int and c != 0 for c in pp.nums.values())
    assert gcd(pp.den, *pp.nums.values()) == 1
    assert list(pp.terms) == list(pp.nums)
    assert all(q == Q(c, pp.den) for q, c in zip(pp.terms.values(), pp.nums.values()))


def assert_canonical_poly(poly):
    for pp in poly.terms.values():
        assert_canonical(pp)


def assert_canonical_coeff(c):
    assert_canonical_poly(c.num)
    for f, _ in c.den_factors:
        assert_canonical_poly(f)


def assert_canonical_ppoly(f):
    for c in f.terms.values():
        assert_canonical_coeff(c)


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
        for got, want in ((x * y, ref_pp_mul(x, y)), (x + y, ref_pp_add(x, y)),
                          (x - y, ref_pp_add(x, -y)), (-x, ref_pp_scale(x, -1))):
            assert pp_items(got) == pp_items(want)
            assert_canonical(got)
    for k in (1, Q(-3, 4)):
        assert pp_items(k - a) == pp_items(ref_pp_add(ParamPoly.scalar(k), -a))
    assert (pp_items(a), pp_items(b)) == before


@given(params_or_unit, scales)
def test_parampoly_scale(a, q):
    before = pp_items(a)
    assert pp_items(a.scale(q)) == pp_items(ref_pp_scale(a, q))
    assert_canonical(a.scale(q))
    assert pp_items(a) == before


@given(st.dictionaries(st.sampled_from([(), ((0, 1),), ((1, 2),), ((0, 1), (3, 1))]),
                       st.fractions(max_denominator=12) | st.integers(-5, 5)))
def test_parampoly_from_rationals(terms):
    pp = ParamPoly(terms)
    assert_canonical(pp)
    assert pp_items(pp) == [(m, Q(c)) for m, c in terms.items() if c]


def test_parampoly_unit_operand():
    # a unit factor takes the general product, which keeps the value and
    # the term order; a unit scale returns the operand itself
    a = ParamPoly.var("c1") * Q(3, 2) + ParamPoly.var("omega")
    one = ParamPoly.one()
    for got in (a * one, one * a, a * 1):
        assert pp_items(got) == pp_items(a) == pp_items(ref_pp_mul(a, one))
        assert_canonical(got)
    assert a.scale(1) is a


@given(st.data())
def test_poly_mul(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    a, b = data.draw(polys(sys)), data.draw(polys(sys))
    before = (poly_items(a), poly_items(b))
    # (a + b)(a - b) and (a + b)(b - a) cancel cross terms at both levels
    for x, y in ((a, b), (b, a), (a.add(b), a.sub(b)), (a.add(b), b.sub(a)),
                 (a, a)):
        assert poly_items(x.mul(y)) == poly_items(ref_poly_mul(x, y))
        assert poly_items(x.sub(y)) == poly_items(x.add(y.neg()))
        assert_canonical_poly(x.mul(y))
        assert_canonical_poly(x.sub(y))
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
        assert_canonical_coeff(c.differentiate(name))
    assert coeff_items(c) == before


@given(st.data())
def test_coeff_sub(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    a, b = data.draw(coeff_strategy(sys)), data.draw(coeff_strategy(sys))
    before = (coeff_items(a), coeff_items(b))
    for x, y in ((a, b), (b, a), (a, a), (a, sys.zero()), (sys.zero(), a)):
        assert coeff_items(x - y) == coeff_items(x + (-y))
        assert_canonical_coeff(x - y)
    assert coeff_items(2 - a) == coeff_items(sys.lift(2) + (-a))
    assert (coeff_items(a), coeff_items(b)) == before


@given(st.data())
def test_poisson(data):
    space = data.draw(st.sampled_from(SPACES))
    f = data.draw(ppoly_strategy(space))
    g = data.draw(ppoly_strategy(space))
    before = (ppoly_items(f), ppoly_items(g))
    assert ppoly_items(f.poisson(g)) == ppoly_items(ref_poisson(f, g))
    assert ppoly_items(g.poisson(f)) == ppoly_items(ref_poisson(g, f))
    assert_canonical_ppoly(f.poisson(g))
    for x, y in ((f, g), (g, f), (f, f)):
        assert ppoly_items(x - y) == ppoly_items(x + (-y))
    assert ppoly_items(1 - f) == ppoly_items(space.lift(1) + (-f))
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


@given(params_or_unit, params)
def test_parampoly_divexact(a, b):
    assume(not b.is_zero)
    assert (a * b).divexact(b) == a
    for x in (a * b, a, a + b):
        q = x.divexact(b)
        if q is not None:
            assert q * b == x
            assert_canonical(q)


@given(st.data())
def test_powers(data):
    space = data.draw(st.sampled_from(SPACES))
    sys = space.system
    a = data.draw(params_or_unit)
    p = data.draw(polys(sys))
    c = data.draw(coeff_strategy(sys))
    f = data.draw(ppoly_strategy(space))
    for n in range(4):
        assert pp_items(a ** n) == pp_items(ref_power(a, n, ParamPoly.one(), ParamPoly.__mul__))
        assert poly_items(p.pow(n)) == poly_items(ref_power(p, n, Poly.one(sys), Poly.mul))
        assert coeff_items(c ** n) == coeff_items(
            ref_power(c, n, sys.one(), CanonicalCoeff.__mul__))
    for n in range(3):
        assert ppoly_items(f ** n) == ppoly_items(ref_power(f, n, space.one(), PPoly.__mul__))


@given(params, st.dictionaries(st.sampled_from(["c1", "c2", "omega", "L0"]),
                               st.one_of(scales, params), max_size=3))
def test_parampoly_substitute(a, mapping):
    got = a.substitute(mapping)
    assert pp_items(got) == pp_items(ref_pp_substitute(a, mapping))
    assert_canonical(got)


@given(st.data())
def test_reduce_raw(data):
    # two tagged variables as well, so that the rewrites of one variable
    # meet terms already rewritten in the other
    sys = data.draw(st.sampled_from(SYSTEMS + [VarSystem(
        [Var.circular("q"), Var.tagged("r", Q(-1, 2), 2), Var.linear("u")])]))
    raw = tuple(data.draw(st.lists(st.integers(0, 7), min_size=sys.width,
                                   max_size=sys.width)))
    got = _reduce_raw(sys, raw)
    assert {m: Q(n, d) for m, n, d in got} == ref_reduce_raw(sys, raw)
    # each basis monomial occurs once, with a nonzero int coefficient n/d
    # in lowest terms
    assert len({m for m, _, _ in got}) == len(got)
    assert all(type(n) is int and n and type(d) is int and d > 0 and gcd(n, d) == 1
               for _, n, d in got)


# -- shape-aware products --------------------------------------------------------
#
# A rational-constant factor of ``CanonicalCoeff.__mul__`` scales the other
# operand instead of running ``Poly.mul`` and ``_normalize``.  A one-term
# factor of ``PPoly.__mul__`` takes the general double loop, which must keep
# the other operand's order.  The references below are the general
# products, built on the plain kernels above.


def ref_coeff_mul(a, b):
    """The general product: the numerators' product over the merged
    denominator, normalized."""
    if a.is_zero or b.is_zero:
        return a.sys.zero()
    fac = dict(a.den_factors)
    for f, k in b.den_factors:
        fac[f] = fac.get(f, 0) + k
    return a._normalize(a.sys, ref_poly_mul(a.num, b.num),
                        tuple(x + y for x, y in zip(a.den_mono, b.den_mono)),
                        tuple(fac.items()))


def ref_ppoly_mul(f, g):
    """The double loop over both operands, summed by the plain rule."""
    acc = {}
    for pe1, c1 in f.terms.items():
        for pe2, c2 in g.terms.items():
            pe = tuple(x + y for x, y in zip(pe1, pe2))
            cur = acc.get(pe)
            s = ref_coeff_mul(c1, c2) if cur is None else cur + ref_coeff_mul(c1, c2)
            if s.is_zero:
                acc.pop(pe, None)
            else:
                acc[pe] = s
    return PPoly(f.space, acc)


def divided_atoms(sys):
    """Quotients with multi-term denominator factors, one of them Pythagorean
    (a C^2 of the denominator), which the strategy of conftest never forms."""
    S, C, u = sys.S("q"), sys.C("q"), sys.coord("u")
    c1, c2 = sys.param("c1"), sys.param("c2")
    return [sys.one() / (S + 2),
            (u * S + c1) / ((u + 1) * (S + 2) ** 2),
            (c1 + c2 * C) / (S * S),
            (C * Q(-3, 4) + u) / C / (C * (u + S)),
            (c1 * u - c2 * S * C) / ((S + 2) * (u * u + c1))]


RATIONALS = [1, 2, -3, 0, Q(1), Q(-1), Q(-3, 4), Q(5, 7), ParamPoly.scalar(Q(-2, 9))]


def coeffs_with_divisions(sys):
    return st.one_of(coeff_strategy(sys), st.sampled_from(divided_atoms(sys)))


@given(st.data())
def test_rational_constant_factor(data):
    sys = data.draw(st.sampled_from(SYSTEMS))
    c = data.draw(coeffs_with_divisions(sys))
    k = data.draw(st.sampled_from(RATIONALS))
    lifted = sys.lift(k)
    before = coeff_items(c)
    want = ref_coeff_mul(c, lifted)
    for got in (c * k, k * c, c * lifted, lifted * c):
        assert got == want
        assert coeff_items(got) == coeff_items(want)
        assert_canonical_coeff(got)
    assert coeff_items(ref_coeff_mul(lifted, c)) == coeff_items(want)
    assert coeff_items(c) == before


@given(st.data())
def test_general_coefficient_product(data):
    # the general product, with the operand order kept, for two
    # non-constant coefficients; their product with an explicit quotient too
    sys = data.draw(st.sampled_from(SYSTEMS))
    a = data.draw(coeffs_with_divisions(sys))
    b = data.draw(st.sampled_from(divided_atoms(sys)))
    before = (coeff_items(a), coeff_items(b))
    for x, y in ((a, b), (b, a)):
        assert coeff_items(x * y) == coeff_items(ref_coeff_mul(x, y))
    assert (coeff_items(a), coeff_items(b)) == before


def test_near_constants_take_the_general_product():
    # one numerator term at the unit monomial is not enough: a monomial
    # or multi-term denominator, or a parameter, makes a coefficient
    # non-constant
    for sys in SYSTEMS:
        u, S = sys.coord("u"), sys.S("q")
        near = [sys.scalar(2) / u, sys.one() / (S + 2), sys.param("c1"),
                sys.param("c1") * Q(-1, 2) + 1, S]
        for a in near:
            for b in near + divided_atoms(sys):
                for x, y in ((a, b), (b, a)):
                    assert coeff_items(x * y) == coeff_items(ref_coeff_mul(x, y))


def test_unit_factor_is_returned():
    for sys in SYSTEMS:
        atoms = divided_atoms(sys)
        assert any(len(c.den_factors) > 1 for c in atoms)
        assert any(_is_pythagorean(sys, f) for c in atoms for f, _ in c.den_factors)
        for c in atoms:
            assert c * 1 is c and 1 * c is c
            assert c * sys.one() is c and sys.one() * c is c
            assert c * Q(1) is c and c * ParamPoly.one() is c


def single_terms(space):
    """One-term momentum polynomials: constants, a bare momentum, and
    non-constant coefficients at nonzero exponents."""
    sys = space.system
    coeffs = coeffs_with_divisions(sys)
    return st.one_of(
        st.sampled_from(RATIONALS).filter(lambda k: k != 0).map(space.lift),
        st.just(space.p("u")),
        st.tuples(coeffs.filter(lambda c: not c.is_zero), st.integers(0, 2),
                  st.integers(0, 2)).map(
            lambda t: PPoly(space, {(t[1], t[2]): t[0]})),
    )


@given(st.data())
def test_single_term_factor(data):
    space = data.draw(st.sampled_from(SPACES))
    sys = space.system
    f = data.draw(st.one_of(
        ppoly_strategy(space),
        st.lists(st.sampled_from(divided_atoms(sys)), min_size=2, max_size=3).map(
            lambda cs: sum((space.lift(c) * space.p("q") ** i for i, c in enumerate(cs)),
                           space.zero()))))
    t = data.draw(single_terms(space))
    before = (ppoly_items(f), ppoly_items(t))
    for x, y in ((f, t), (t, f), (t, t)):
        got = x * y
        want = ref_ppoly_mul(x, y)
        assert got == want
        assert ppoly_items(got) == ppoly_items(want)
        assert_canonical_ppoly(got)
    assert (ppoly_items(f), ppoly_items(t)) == before
