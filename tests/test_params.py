import pytest
from hypothesis import given, strategies as st

from hamext.params import PARAMS, ParamPoly, Q, as_q


def test_scalar_roundtrip():
    assert as_q("3/2") == Q(3, 2)
    assert as_q(7) == Q(7)
    with pytest.raises(TypeError):
        as_q(0.5)


def test_basic_algebra():
    a = ParamPoly.var("c1")
    b = ParamPoly.var("c2")
    expr = (a + b) ** 2 - (a * a + a * b * 2 + b * b)
    assert expr.is_zero
    assert (a - a).is_zero
    assert (a * 0).is_zero


def test_equality_is_between_param_polys():
    """A scalar ``ParamPoly`` is not equal to its int or ``Fraction``, whose
    hashes differ from its own; equal ``ParamPoly``s hash equal."""
    for x in (1, Q(1), Q(-3, 4)):
        assert ParamPoly.scalar(x) != x
        assert len({ParamPoly.scalar(x), x}) == 2
    assert {ParamPoly.scalar(1): 0}.get(1) is None
    for a, b in ((ParamPoly.scalar(1), ParamPoly.one()),
                 (ParamPoly({(): Q(2, 4)}), ParamPoly.scalar(Q(1, 2))),
                 (ParamPoly.var("c1") * 2, ParamPoly.var("c1") + ParamPoly.var("c1"))):
        assert a == b and hash(a) == hash(b)


def test_unknown_parameter_rejected():
    with pytest.raises(KeyError):
        ParamPoly.var("zeta")


def test_substitute_and_evaluate():
    p = ParamPoly.var("omega") * 3 + ParamPoly.var("c1") ** 2
    q = p.substitute({"omega": Q(1, 3)})
    assert q == ParamPoly.var("c1") ** 2 + 1
    assert p.evaluate({"omega": 2.0, "c1": 3.0}) == pytest.approx(15.0)
    with pytest.raises(KeyError):
        p.evaluate({"omega": 2.0})


def test_divexact():
    a = ParamPoly.var("A")
    num = (a * a) * ParamPoly.var("omega")
    assert num.divexact(a * a) == ParamPoly.var("omega")
    assert num.divexact(ParamPoly.var("b")) is None


def test_str():
    s = str(ParamPoly.var("c1") - ParamPoly.var("c2").scale(Q(1, 2)))
    assert s == "c1 - 1/2*c2"


_small = st.sampled_from([ParamPoly.var(n) for n in ("c1", "c2", "omega")]
                         + [ParamPoly.scalar(v) for v in (0, 1, -2, Q(1, 2))])


@given(_small, _small, _small)
def test_ring_axioms(a, b, c):
    assert (a + b) == (b + a)
    assert (a * b) == (b * a)
    assert ((a + b) + c) == (a + (b + c))
    assert ((a * b) * c) == (a * (b * c))
    assert (a * (b + c)) == (a * b + a * c)


def test_alphabet_is_fixed():
    assert set(PARAMS) == {
        "A", "L0", "a1", "a2", "alpha1", "alpha2",
        "b", "c1", "c2", "f0", "h0", "omega",
    }
