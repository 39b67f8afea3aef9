import pytest

from hamext import Q, Var, VarSystem
from hamext.exprparse import ExpressionError, parse_coeff


@pytest.fixture(scope="module")
def sysv():
    return VarSystem([Var.circular("q"), Var.linear("u")])


def test_parse_matches_hand_built(sysv):
    got = parse_coeff("(c1 + c2*cos(q))/sin(q)^2", sysv)
    S, C = sysv.S("q"), sysv.C("q")
    want = (sysv.param("c1") + sysv.param("c2") * C) / (S * S)
    assert (got - want).is_zero


def test_parse_numbers_exact(sysv):
    assert (parse_coeff("0.5", sysv) - sysv.scalar(Q(1, 2))).is_zero
    assert (parse_coeff("3*u^-2", sysv) - sysv.scalar(3) / sysv.coord("u") ** 2).is_zero
    assert (parse_coeff("u**2", sysv) - sysv.coord("u") ** 2).is_zero


def test_parse_operators_and_sign(sysv):
    got = parse_coeff("-u + 2*u - u", sysv)
    assert got.is_zero
    got = parse_coeff("(1 - cos(q))*(1 + cos(q)) - sin(q)^2", sysv)
    assert got.is_zero


def test_parse_tan(sysv):
    got = parse_coeff("tan(q)", sysv)
    assert (got - sysv.S("q") / sysv.C("q")).is_zero


def test_parse_rejects_unknown_names(sysv):
    with pytest.raises(ExpressionError, match="unknown name"):
        parse_coeff("zeta + 1", sysv)


def test_parse_rejects_angular_coordinate(sysv):
    with pytest.raises(ExpressionError, match="angular"):
        parse_coeff("q + 1", sysv)


def test_parse_rejects_function_of_expression(sysv):
    with pytest.raises(ExpressionError, match="bare declared variable"):
        parse_coeff("sin(2*q)", sysv)


def test_parse_rejects_wrong_kind(sysv):
    with pytest.raises(ExpressionError, match="hyperbolic"):
        parse_coeff("sinh(q)", sysv)
    with pytest.raises(ExpressionError, match="circular"):
        parse_coeff("sin(u)", sysv)


def test_parse_rejects_fractional_power(sysv):
    with pytest.raises(ExpressionError, match="integers"):
        parse_coeff("u^1.5", sysv)


def test_parse_rejects_garbage(sysv):
    with pytest.raises(ExpressionError, match="unexpected character"):
        parse_coeff("u @ 2", sysv)
    with pytest.raises(ExpressionError, match="invalid syntax"):
        parse_coeff("u 2", sysv)
    with pytest.raises(ExpressionError, match="invalid syntax"):
        parse_coeff("u +", sysv)
    with pytest.raises(ExpressionError, match="invalid syntax"):
        parse_coeff("007", sysv)
    with pytest.raises(ExpressionError, match="outside the expression fragment"):
        parse_coeff("1e5 + u//2", sysv)


def test_parse_redundant_parentheses(sysv):
    assert parse_coeff("u^(2) + sin((q))", sysv) == sysv.coord("u") ** 2 + sysv.S("q")


def test_parse_division_guard(sysv):
    from hamext import ZeroCoefficientDivision
    with pytest.raises(ZeroCoefficientDivision):
        parse_coeff("1/(sin(q)^2 + cos(q)^2 - 1)", sysv)


@pytest.fixture(scope="module")
def linear_q():
    return VarSystem([Var.linear("q")])


SIGNED_POWERS = [
    ("2*-q^2", lambda q, one: -2 * q ** 2),
    ("1 - -q^2", lambda q, one: one + q ** 2),
    ("1/-q^2", lambda q, one: -one / q ** 2),
    ("-q^2", lambda q, one: -(q ** 2)),
    ("--q", lambda q, one: q),
    ("q^-2", lambda q, one: one / q ** 2),
    ("(-q)^2", lambda q, one: q ** 2),
]


@pytest.mark.parametrize("text, build", SIGNED_POWERS, ids=[t for t, _ in SIGNED_POWERS])
def test_unary_minus_binds_looser_than_power(linear_q, text, build):
    """A minus before a power negates the power wherever it stands, as in
    Python: after an operator too, not only at the start."""
    want = build(linear_q.coord("q"), linear_q.one())
    assert parse_coeff(text, linear_q) == want
