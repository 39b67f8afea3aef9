import math
import random

import pytest

from hamext import (CATALOG, ParamPoly, PhaseSpaceMismatch, Q, Var, build_K,
                    cage_model, coincidence_pair, golden_K21, harmonic_model,
                    make_extension_space, poisson_bracket, polar_cartesian_map,
                    ttw_model)


def test_ttw_parameter_map():
    mdl = ttw_model(1, 1, 1, 2, 0)
    assert mdl.params["c1"] == ParamPoly.scalar(Q(3, 2))
    assert mdl.params["c2"] == ParamPoly.scalar(Q(1, 2))


def test_ttw_degrees():
    # the recursion term G_n is of momentum degree 2n - 1 for a linear seed,
    # so the modified integral at lambda = m/n has degree 2(m + n) - 1
    assert ttw_model(1, 1).Kbar.poly.momentum_degree() == 3
    for m, n in [(1, 1), (2, 1), (1, 2), (3, 2)]:
        mdl = ttw_model(m, n)
        assert mdl.profile.m == 2 * m
        assert mdl.Kbar.poly.momentum_degree() == 2 * (m + n) - 1, (m, n)


def test_coprimality_required():
    with pytest.raises(ValueError):
        ttw_model(2, 4)
    with pytest.raises(ValueError):
        cage_model(6, 3)


def test_ttw_plain_commutes():
    mdl = ttw_model(1, 1, omega=0)
    K = build_K(mdl.profile, mdl.seed)
    assert poisson_bracket(mdl.H, K).is_zero


def test_cage_display_m1n1():
    mdl = cage_model(1, 1)
    space = mdl.space
    sysv = space.system
    q, u = sysv.coord("q"), sysv.coord("u")
    L0, b, w = sysv.param("L0"), sysv.param("b"), sysv.param("omega")
    pq, pu = space.p("q"), space.p("u")
    want = (pu * pu * Q(1, 2) + pq * pq * Q(1, 2)
            + space.lift(L0 * (q * q * Q(1, 4) + u * u))
            + space.lift(b / (q * q)) + space.lift(w / (u * u)))
    assert (mdl.Hbar - want).is_zero


def test_cage_odd_dispatch():
    mdl = cage_model(1, 1)
    assert mdl.Kbar.branch == "odd-doubled"
    assert (mdl.Kbar.effective_m, mdl.Kbar.effective_n) == (2, 2)
    even = cage_model(2, 1)
    assert even.Kbar.branch == "even"


def test_cage_frequency_ratio_coefficients():
    # with b = omega = 0 the confining terms carry L0 (m/n)^2 * (m^2/(4n^2) q-part, u-part)
    m, n = 3, 2
    mdl = cage_model(m, n, b=0, omega=0)
    space = mdl.space
    sysv = space.system
    q, u = sysv.coord("q"), sysv.coord("u")
    L0 = sysv.param("L0")
    ratio = Q(m * m, n * n)
    want = (space.p("u") ** 2 * Q(1, 2) + space.p("q") ** 2 * ratio * Q(1, 2)
            + space.lift(L0 * q * q) * ratio * Q(1, 4)
            + space.lift(L0 * u * u) * ratio)
    assert (mdl.Hbar - want).is_zero


def test_golden_value_at_reference_point():
    # hand substitution: sin q = 1, cos q = 0, u = p_q = p_u = 1, constants 0
    g = golden_K21(make_extension_space([Var.circular("q")], c=1, kappa=0))
    val = g.evaluate({"q": math.pi / 2, "u": 1.0, "p_q": 1.0, "p_u": 1.0},
                     {"alpha1": 0.0, "alpha2": 0.0, "omega": 0.0})
    assert val == pytest.approx(-3.0, abs=1e-12)


def test_golden_omega_term_isolation():
    g = golden_K21(make_extension_space([Var.circular("q")], c=1, kappa=0))
    pt = {"q": 0.8, "u": 0.9, "p_q": 1.0, "p_u": 0.0}
    base = {"alpha1": 0.7, "alpha2": 0.4}
    with_w = g.evaluate(pt, dict(base, omega=1.0))
    without = g.evaluate(pt, dict(base, omega=0.0))
    assert with_w - without == pytest.approx(2 * 0.9 ** 2 * math.sin(0.8), rel=1e-12)


def test_golden_equals_generated_exactly(ttw11):
    assert (ttw11.Kbar.poly - golden_K21(ttw11.space)).is_zero
    # a system compares by identity: the form on a space built apart does
    # not mix with the model's, and a space of another model is refused
    apart = make_extension_space([Var.circular("q")], c=1, kappa=0)
    with pytest.raises(PhaseSpaceMismatch):
        ttw11.Kbar.poly - golden_K21(apart)
    with pytest.raises(ValueError, match="ttw"):
        golden_K21(cage_model(1, 1).space)


def test_catalog_entries():
    assert set(CATALOG) == {"ttw", "cage", "harmonic"}
    for entry in CATALOG.values():
        assert "builder" in entry and "params" in entry


def test_harmonic_model_flow_target():
    mdl = harmonic_model(1, 1, L0=Q(1, 2), omega=0)
    space = mdl.space
    sysv = space.system
    q, u = sysv.coord("q"), sysv.coord("u")
    want = (space.p("q") ** 2 * Q(1, 2) + space.p("u") ** 2 * Q(1, 2)
            + space.lift(q * q) * Q(1, 2) + space.lift(u * u) * Q(1, 2))
    assert (mdl.Hbar - want).is_zero


def test_polar_cartesian_map_values():
    pt = polar_cartesian_map(
        {"r": 1.0, "theta": math.pi / 4, "p_r": 0.0, "p_theta": 0.0},
        "polar_to_cartesian")
    assert pt["x"] == pytest.approx(math.sqrt(2) / 2)
    assert pt["y"] == pytest.approx(math.sqrt(2) / 2)

    rng = random.Random(11)
    for _ in range(10):
        polar = {"r": rng.uniform(0.5, 2), "theta": rng.uniform(0.1, 1.4),
                 "p_r": rng.uniform(-1, 1), "p_theta": rng.uniform(-1, 1)}
        cart = polar_cartesian_map(polar, "polar_to_cartesian")
        # canonical one-form invariance fixes p_r = (x p_x + y p_y)/r
        pr = (cart["x"] * cart["p_x"] + cart["y"] * cart["p_y"]) / polar["r"]
        assert pr == pytest.approx(polar["p_r"], rel=1e-12, abs=1e-12)
        back = polar_cartesian_map(cart, "cartesian_to_polar")
        for k in polar:
            assert back[k] == pytest.approx(polar[k], rel=1e-10, abs=1e-10)

    with pytest.raises(ValueError):
        polar_cartesian_map({"r": 0.0, "theta": 0.1, "p_r": 0, "p_theta": 0},
                            "polar_to_cartesian")
    with pytest.raises(ValueError):
        polar_cartesian_map({}, "sideways")


def test_coincidence_of_rational_parameter_one():
    ttw, cage, to_cage = coincidence_pair("3/2", "5/2", "1/3")
    params = {"alpha1": 1.5, "alpha2": 2.5, "omega": 1.0 / 3.0}
    rng = random.Random(5)
    for _ in range(25):
        pt = {"q": rng.uniform(0.35, 1.2), "u": rng.uniform(0.35, 1.2),
              "p_q": rng.uniform(-1, 1), "p_u": rng.uniform(-1, 1)}
        a = ttw.Hbar.evaluate(pt, params)
        b = cage.Hbar.evaluate(to_cage(pt), params)
        assert abs(a - b) / (1 + abs(a)) < 1e-12
