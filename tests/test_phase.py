import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from hamext import (ParamPoly, PhasePoint, PhaseSpace, PhaseSpaceMismatch,
                    Q, Var, VarSystem, apply_U, apply_W, apply_XL, confinement,
                    poisson_bracket)

from conftest import ppoly_strategy


@pytest.fixture(scope="module")
def space():
    return PhaseSpace(VarSystem([Var.circular("q"), Var.linear("u")]), ext="u")


def test_bracket_basics(space):
    sysv = space.system
    u, pu = space.lift(sysv.coord("u")), space.p("u")
    assert (poisson_bracket(u, pu) - 1).is_zero
    assert (poisson_bracket(pu * pu, u) + pu * 2).is_zero


def test_bracket_linear_potential(space):
    # flow derivative of F(p) under L = p^2/2 + c1*q is -c1 dF/dp
    sysv = space.system
    c1 = sysv.param("c1")
    pu = space.p("u")
    L = pu * pu * Q(1, 2) + space.lift(c1 * sysv.coord("u"))
    F = pu ** 3
    expected = -space.lift(c1) * pu ** 2 * 3
    assert (apply_XL(L, F) - expected).is_zero
    assert (poisson_bracket(F, L) - expected).is_zero


def test_mismatched_spaces_error(space):
    other = PhaseSpace(VarSystem([Var.linear("x")]))
    with pytest.raises(PhaseSpaceMismatch):
        poisson_bracket(space.p("q"), other.p("x"))


def test_xl_sign_convention(space):
    # X_L(eta p) = eta' p^2 - eta V' pins the bracket orientation
    sysv = space.system
    S, C = sysv.S("q"), sysv.C("q")
    V = (sysv.param("c1") + sysv.param("c2") * C) / (S * S)
    p = space.p("q")
    L = p * p * Q(1, 2) + space.lift(V)
    eta = S
    F = space.lift(eta) * p
    got = apply_XL(L, F)
    want = space.lift(eta.differentiate("q")) * p * p \
        - space.lift(eta * V.differentiate("q"))
    assert (got - want).is_zero


def test_xl_free_particle_and_oscillator(space):
    p = space.p("q")
    L0 = space.system.param("L0")
    qc = None
    free = p * p * Q(1, 2)
    assert apply_XL(free, p).is_zero
    sy = PhaseSpace(VarSystem([Var.linear("x")]))
    px = sy.p("x")
    xq = sy.system.coord("x")
    osc = px * px * Q(1, 2) + sy.lift(sy.system.param("L0") * xq * xq)
    got = apply_XL(osc, px)
    want = -sy.lift(sy.system.param("L0") * xq) * 2
    assert (got - want).is_zero


@given(st.data())
def test_antisymmetry_and_leibniz(space, data):
    F = data.draw(ppoly_strategy(space))
    G = data.draw(ppoly_strategy(space))
    H = data.draw(ppoly_strategy(space))
    assert (poisson_bracket(F, G) + poisson_bracket(G, F)).is_zero
    lhs = poisson_bracket(F, G * H)
    rhs = poisson_bracket(F, G) * H + G * poisson_bracket(F, H)
    assert (lhs - rhs).is_zero


@given(st.data())
def test_jacobi_identity(space, data):
    F = data.draw(ppoly_strategy(space))
    G = data.draw(ppoly_strategy(space))
    H = data.draw(ppoly_strategy(space))
    total = (poisson_bracket(poisson_bracket(F, G), H)
             + poisson_bracket(poisson_bracket(G, H), F)
             + poisson_bracket(poisson_bracket(H, F), G))
    assert total.is_zero


@given(st.data())
def test_degree_law(space, data):
    F = data.draw(ppoly_strategy(space))
    G = data.draw(ppoly_strategy(space))
    br = poisson_bracket(F, G)
    if br.is_zero or F.is_zero or G.is_zero:
        return
    assert br.momentum_degree() <= F.momentum_degree() + G.momentum_degree() - 1


def _ttw_L_G(space):
    sysv = space.system
    S, C = sysv.S("q"), sysv.C("q")
    V = (sysv.param("c1") + sysv.param("c2") * C) / (S * S)
    p = space.p("q")
    L = p * p * Q(1, 2) + space.lift(V)
    return L, space.lift(S) * p


def test_apply_U_closed_form_r1(space):
    sysv = space.system
    L, G = _ttw_L_G(space)
    gamma = sysv.one() / sysv.coord("u")
    prof = SimpleNamespace(m=3, n=2, gamma=gamma, space=space, omega=ParamPoly.zero())
    got = apply_U(prof, L, G)
    want = space.p("u") * G + space.lift(gamma) * apply_XL(L, G) * Q(3, 4)
    assert (got - want).is_zero


def test_apply_U_degenerate_gamma(space):
    L, G = _ttw_L_G(space)
    prof = SimpleNamespace(m=2, n=1, gamma=space.system.zero(), space=space,
                           omega=ParamPoly.zero())
    assert (apply_U(prof, L, G) - space.p("u") * G).is_zero
    const = space.one()
    prof2 = SimpleNamespace(m=2, n=1, gamma=space.system.one() / space.system.coord("u"),
                            space=space, omega=ParamPoly.zero())
    assert (apply_U(prof2, L, const) - space.p("u")).is_zero


def test_apply_U_rejects_extension_dependent_L(space):
    L, G = _ttw_L_G(space)
    bad = L + space.p("u") * space.p("u")
    prof = SimpleNamespace(m=1, n=1, gamma=space.system.one(), space=space,
                           omega=ParamPoly.zero())
    with pytest.raises(ValueError):
        apply_U(prof, bad, G)


def test_apply_U_requires_extension_pair():
    flat = PhaseSpace(VarSystem([Var.circular("q"), Var.linear("u")]))
    L, G = _ttw_L_G(flat)
    prof = SimpleNamespace(m=1, n=1, gamma=flat.system.one(), space=flat,
                           omega=ParamPoly.zero())
    with pytest.raises(ValueError):
        apply_U(prof, L, G)


def test_apply_W_rejects_zero_gamma(space):
    from hamext import ZeroCoefficientDivision
    L, G = _ttw_L_G(space)
    prof = SimpleNamespace(m=2, n=1, gamma=space.system.zero(), space=space,
                           omega=ParamPoly.var("omega"))
    with pytest.raises(ZeroCoefficientDivision):
        apply_W(prof, L, G)


def test_apply_W_reductions(space):
    sysv = space.system
    L, G = _ttw_L_G(space)
    gamma = sysv.one() / sysv.coord("u")
    plain = SimpleNamespace(m=2, n=1, gamma=gamma, space=space, omega=ParamPoly.zero())
    assert (apply_W(plain, L, G)
            - apply_U(plain, L, apply_U(plain, L, G))).is_zero
    assert apply_W(plain, L, space.zero()).is_zero


def test_confinement(space):
    sysv = space.system
    u = sysv.coord("u")
    prof = SimpleNamespace(gamma=sysv.one() / u, space=space, omega=ParamPoly.var("omega"))
    assert (confinement(prof) - sysv.param("omega") * u * u).is_zero
    assert confinement(SimpleNamespace(gamma=sysv.zero(), space=space, omega=0)).is_zero


def test_apply_W_substitution_formula(space):
    # with X_L^2 G = n^2 Lam G the square collapses onto {G, X_L G}
    sysv = space.system
    L, G = _ttw_L_G(space)
    gamma = sysv.one() / sysv.coord("u")
    m, n = 2, 1
    prof = SimpleNamespace(m=m, n=n, gamma=gamma, space=space,
                           omega=ParamPoly.var("omega"))
    lam = L * (-2)  # c = 1, L0 = 0
    pu = space.p("u")
    g = space.lift(gamma)
    omega = space.lift(ParamPoly.var("omega"))
    ginv2 = space.lift((sysv.one() / gamma) ** 2)
    want = (pu * pu + g * g * lam * Q(m * m, n * n) + ginv2 * omega * 2) * G \
        + g * pu * apply_XL(L, G) * Q(2 * m, n * n)
    got = apply_W(prof, L, G)
    assert (got - want).is_zero


@given(st.data())
def test_U_commutes_with_extension_multipliers(space, data):
    # [U^2, 2w/gamma^2] vanishes identically on this algebra; assert rather
    # than assume, since the binomial expansion relies on it
    sysv = space.system
    L, _ = _ttw_L_G(space)
    gamma = sysv.one() / sysv.coord("u")
    prof = SimpleNamespace(m=2, n=1, gamma=gamma, space=space,
                           omega=ParamPoly.var("omega"))
    F = data.draw(ppoly_strategy(space))
    mult = space.lift((sysv.one() / gamma) ** 2 * ParamPoly.var("omega")) * 2

    def U2(X):
        return apply_U(prof, L, apply_U(prof, L, X))

    comm = U2(mult * F) - mult * U2(F)
    assert comm.is_zero


def test_evaluate_ppoly_examples(space):
    sysv = space.system
    L, G = _ttw_L_G(space)
    val = L.evaluate({"q": math.pi / 2, "u": 1.0, "p_q": 1.0, "p_u": 0.0},
                     {"c1": 1.5, "c2": 0.5})
    assert val == pytest.approx(2.0)
    assert space.zero().evaluate({"q": 1, "u": 1, "p_q": 1, "p_u": 1}, {}) == 0.0


def test_evaluate_modified_H_against_independent_evaluator(space):
    # independent oracle: a direct float transcription of the displayed form
    sysv = space.system
    S, C, u = sysv.S("q"), sysv.C("q"), sysv.coord("u")
    c1, c2, w = sysv.param("c1"), sysv.param("c2"), sysv.param("omega")
    pq, pu = space.p("q"), space.p("u")
    V = (c1 + c2 * C) / (S * S)
    Hbar = pu * pu * Q(1, 2) \
        + space.lift(sysv.one() / (u * u)) * (pq * pq * Q(1, 2) + space.lift(V)) * 4 \
        + space.lift(w * u * u)

    def oracle(q, uu, ppq, ppu, c1v, c2v, wv):
        V = (c1v + c2v * math.cos(q)) / math.sin(q) ** 2
        return (0.5 * ppu ** 2
                + (4.0 / uu ** 2) * (0.5 * ppq ** 2 + V)
                + wv * uu ** 2)

    rng = random.Random(7)
    params = {"c1": 1.2, "c2": -0.4, "omega": 0.8}
    for _ in range(20):
        pt = {"q": rng.uniform(0.3, 1.2), "u": rng.uniform(0.3, 1.2),
              "p_q": rng.uniform(-1, 1), "p_u": rng.uniform(-1, 1)}
        got = Hbar.evaluate(pt, params)
        want = oracle(pt["q"], pt["u"], pt["p_q"], pt["p_u"], 1.2, -0.4, 0.8)
        assert got == pytest.approx(want, rel=1e-12)


def test_phase_point_validation(space):
    with pytest.raises(ValueError):
        PhasePoint.make(space, {"q": 1.0})
    with pytest.raises(ValueError):
        PhasePoint.make(space, {"q": 1, "u": 1, "p_q": 0, "p_u": 0, "zz": 3})
    pt = PhasePoint.make(space, {"q": 1, "u": 2, "p_q": 3, "p_u": 4})
    assert pt.to_dict()["p_u"] == 4.0


def test_phase_space_refuses_repeated_coordinate_names():
    # the position p_q would share its name with the momentum of q
    with pytest.raises(ValueError, match="p_q"):
        PhaseSpace(VarSystem([Var("q"), Var("p_q")]))
    assert PhaseSpace(VarSystem([Var("p"), Var("q")])).coordinate_names == \
        ("p", "q", "p_p", "p_q")


def test_momentum_degree_and_render(space):
    pq, pu = space.p("q"), space.p("u")
    F = pq * pq * pu + pu
    assert F.momentum_degree() == 3
    assert space.zero().momentum_degree() == -1
    assert F.render() == "p_q^2*p_u + p_u"
