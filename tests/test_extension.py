import math

import pytest

from hamext import (ParamPoly, PhaseSpace, Q, Var, VarSystem, apply_U,
                    apply_XL, build_extended_H, build_K, build_modified_K,
                    cage_model, check_e2_system, check_compatibility_conditions,
                    check_seed, closed_form_PD, confinement, expand_modified_K,
                    harmonic_model, make_extension_space, make_profile,
                    poisson_bracket, recursion_Gn, solve_linear_seed,
                    modified_coupling_functions, ttw_model, SeedSolution,
                    SeedConditionError)


# -- profiles -----------------------------------------------------------------

def test_profile_c1_kappa0():
    space = make_extension_space([Var.circular("q")], c=1, kappa=0)
    prof = make_profile(space, 2, 1, c=1, L0=0, kappa=0)
    sysv = space.system
    u = sysv.coord("u")
    assert (prof.gamma - sysv.one() / u).is_zero
    assert (prof.alpha - sysv.one() / (u * u)).is_zero
    assert prof.beta.is_zero


def test_profile_c0():
    space = make_extension_space([Var.linear("q")], c=0, kappa=0)
    A = ParamPoly.var("A")
    L0 = ParamPoly.var("L0")
    prof = make_profile(space, 1, 1, c=0, L0=L0, kappa=0, A=A)
    sysv = space.system
    u = sysv.coord("u")
    assert (prof.gamma + sysv.lift(A) * u).is_zero
    assert (prof.alpha - sysv.lift(A)).is_zero
    assert (prof.beta - sysv.lift(L0 * A * A) * u * u).is_zero


@pytest.mark.parametrize("kappa", [1, -1])
def test_profile_c1_tagged(kappa):
    space = make_extension_space([Var.circular("q")], c=1, kappa=kappa)
    prof = make_profile(space, 2, 1, c=1, L0=0, kappa=kappa)
    sysv = space.system
    S, C = sysv.S("u"), sysv.C("u")
    assert (prof.gamma - C / S).is_zero
    assert (prof.alpha - sysv.one() / (S * S)).is_zero


def test_profile_c2_rate():
    # c = 2 with kappa = 1: gamma = 1/T_1(2u), exact through the rate
    space = make_extension_space([Var.circular("q")], c=2, kappa=1)
    prof = make_profile(space, 1, 1, c=2, L0=0, kappa=1)
    got = prof.gamma.evaluate({"q": 0.2, "u": 0.4}, {})
    assert got == pytest.approx(1.0 / math.tan(2 * 0.4))


def test_profile_rejections():
    space = make_extension_space([Var.linear("q")], c=0, kappa=0)
    with pytest.raises(ValueError):
        make_profile(space, 1, 1, c=0, L0=0, kappa=0)  # c = L0 = 0
    with pytest.raises(ValueError):
        make_profile(space, 1, 1, c=1, L0=1, kappa=0)  # L0 must drop for c != 0
    with pytest.raises(ValueError):
        make_profile(space, 0, 1, c=0, L0=1, kappa=0)
    space2 = make_extension_space([Var.circular("q")], c=1, kappa=1)
    with pytest.raises(ValueError):
        make_profile(space2, 1, 1, c=1, L0=0, kappa=0)  # wrong u kind


# -- seeds --------------------------------------------------------------------

def _ttw_base(space):
    sysv = space.system
    S, C = sysv.S("q"), sysv.C("q")
    V = (sysv.param("c1") + sysv.param("c2") * C) / (S * S)
    p = space.p("q")
    return p * p * Q(1, 2) + space.lift(V), space.lift(S) * p


def test_check_seed_examples():
    space = make_extension_space([Var.circular("q")], c=1, kappa=0)
    L, G = _ttw_base(space)
    resid, ok = check_seed(L, G, 1, 0)
    assert ok and resid.is_zero

    lin = make_extension_space([Var.linear("q")], c=0, kappa=0)
    p = lin.p("q")
    qc = lin.system.coord("q")
    L0 = ParamPoly.var("L0")
    Losc = p * p * Q(1, 2) + lin.lift(L0) * lin.lift(qc) * lin.lift(qc)
    _, ok = check_seed(Losc, p, 0, L0)
    assert ok

    Lcubic = p * p * Q(1, 2) + lin.lift(qc) ** 3
    for c, L0v in [(1, 0), (0, 1)]:
        resid, ok = check_seed(Lcubic, lin.lift(qc) * p, c, L0v)
        assert not ok and not resid.is_zero

    with pytest.raises(SeedConditionError):
        SeedSolution.certify(Lcubic, lin.lift(qc) * p, 0, 1)


def test_recursion_requires_positive_index():
    mdl_space = make_extension_space([Var.circular("q")], c=1, kappa=0)
    L, G = _ttw_base(mdl_space)
    seed = SeedSolution.certify(L, G, 1, 0)
    with pytest.raises(ValueError):
        recursion_Gn(seed, 0)


def test_recursion_base_and_harmonic_G2():
    lin = make_extension_space([Var.linear("q")], c=0, kappa=0)
    p = lin.p("q")
    qc = lin.lift(lin.system.coord("q"))
    L0 = ParamPoly.var("L0")
    L = p * p * Q(1, 2) + lin.lift(L0) * qc * qc
    seed = SeedSolution.certify(L, p, 0, L0)
    assert recursion_Gn(seed, 1) == p
    G2 = recursion_Gn(seed, 2)
    want = -qc * p * lin.lift(L0) * 4
    assert (G2 - want).is_zero


@pytest.mark.parametrize("model_fn", [ttw_model, cage_model, harmonic_model])
def test_recursion_law_n_le_5(model_fn):
    mdl = model_fn(1, 1)
    seed = mdl.seed
    for n in range(1, 6):
        Gn = recursion_Gn(seed, n)
        resid = apply_XL(seed.L, apply_XL(seed.L, Gn)) \
            + (seed.L.scale(seed.c) + seed.space.lift(seed.L0)) * Gn * (2 * n * n)
        assert resid.is_zero, (mdl.name, n)


# -- builders ------------------------------------------------------------------

def test_build_extended_H_forms():
    space = make_extension_space([Var.circular("q")], c=1, kappa=0)
    L, G = _ttw_base(space)
    prof = make_profile(space, 2, 1, c=1, L0=0, kappa=0)
    H = build_extended_H(prof, L)
    sysv = space.system
    pu = space.p("u")
    want = pu * pu * Q(1, 2) + space.lift(sysv.one() / sysv.coord("u") ** 2) * L * 4
    assert (H - want).is_zero

    lin = make_extension_space([Var.linear("q")], c=0, kappa=0)
    p = lin.p("q")
    L0 = ParamPoly.var("L0")
    qc = lin.lift(lin.system.coord("q"))
    Losc = p * p * Q(1, 2) + lin.lift(L0) * qc * qc
    prof0 = make_profile(lin, 3, 2, c=0, L0=L0, kappa=0, A=1)
    H0 = build_extended_H(prof0, Losc)
    uu = lin.lift(lin.system.coord("u"))
    want0 = lin.p("u") ** 2 * Q(1, 2) + Losc * Q(9, 4) + lin.lift(L0) * uu * uu * Q(9, 4)
    assert (H0 - want0).is_zero

    prof1 = make_profile(lin, 5, 5, c=0, L0=L0, kappa=0, A=1)
    H1 = build_extended_H(prof1, Losc)
    want1 = lin.p("u") ** 2 * Q(1, 2) + Losc + lin.lift(L0) * uu * uu
    assert (H1 - want1).is_zero  # m = n gives unit factor


def test_build_K_single_U_and_omega_free():
    space = make_extension_space([Var.circular("q")], c=1, kappa=0)
    L, G = _ttw_base(space)
    seed = SeedSolution.certify(L, G, 1, 0)
    prof = make_profile(space, 1, 1, c=1, L0=0, kappa=0,
                        omega=ParamPoly.var("omega"))
    K = build_K(prof, seed)
    gamma = space.lift(prof.gamma)
    want = space.p("u") * G + gamma * apply_XL(L, G)
    assert (K - want).is_zero
    # omega never enters the plain integral
    assert (K.substitute({"omega": 0}) - K).is_zero


def test_closed_form_basics():
    space = make_extension_space([Var.circular("q")], c=1, kappa=0)
    L, G = _ttw_base(space)
    prof = make_profile(space, 4, 2, c=1, L0=0, kappa=0)
    P0, D0 = closed_form_PD(prof, L, 0)
    assert (P0 - 1).is_zero and D0.is_zero
    P1, D1 = closed_form_PD(prof, L, 1)
    assert (P1 - space.p("u")).is_zero
    assert (D1 - space.lift(prof.gamma) * Q(4, 4)).is_zero
    P2, D2 = closed_form_PD(prof, L, 2)
    g = space.lift(prof.gamma)
    lam = L * (-2)
    assert (P2 - (space.p("u") ** 2 + g * g * lam * 4)).is_zero
    assert (D2 - g * space.p("u") * 2 * Q(4, 4)).is_zero
    with pytest.raises(ValueError):
        closed_form_PD(prof, L, 5)


def test_closed_form_equals_iterated_U():
    space = make_extension_space([Var.circular("q")], c=1, kappa=0)
    L, G = _ttw_base(space)
    seed = SeedSolution.certify(L, G, 1, 0)
    prof = make_profile(space, 3, 2, c=1, L0=0, kappa=0)
    Gn = recursion_Gn(seed, 2)
    xlg = apply_XL(L, Gn)
    F = Gn
    for r in range(0, 4):
        P, D = closed_form_PD(prof, L, r)
        assert (F - (P * Gn + D * xlg)).is_zero, r
        F = apply_U(prof, L, F)


def test_build_modified_H_variants():
    ttw = ttw_model(1, 1)
    sysv = ttw.space.system
    u = sysv.coord("u")
    diff = ttw.Hbar - ttw.H - ttw.space.lift(sysv.param("omega") * u * u)
    assert diff.is_zero

    cage = cage_model(1, 1, A=ParamPoly.var("A"))
    syc = cage.space.system
    uu = syc.coord("u")
    w = syc.param("omega")
    A = syc.param("A")
    want_tail = cage.space.lift(w / (syc.lift(A * A) * uu * uu))
    assert (cage.Hbar - cage.H - want_tail).is_zero

    space = make_extension_space([Var.circular("q")], c=1, kappa=0)
    L, G = _ttw_base(space)
    prof = make_profile(space, 2, 1, c=1, L0=0, kappa=0, omega=0)
    assert confinement(prof).is_zero


def test_build_modified_K_dispatch():
    # omega = 0 drops back to the plain integral
    space = make_extension_space([Var.circular("q")], c=1, kappa=0)
    L, G = _ttw_base(space)
    seed = SeedSolution.certify(L, G, 1, 0)
    prof = make_profile(space, 2, 1, c=1, L0=0, kappa=0, omega=0)
    mk = build_modified_K(prof, seed)
    assert mk.branch == "even" and (mk.effective_m, mk.effective_n) == (2, 1)
    assert (mk.poly - build_K(prof, seed)).is_zero

    # odd m = 1 goes through (2, 2) acting on G_2
    prof1 = make_profile(space, 1, 1, c=1, L0=0, kappa=0,
                         omega=ParamPoly.var("omega"))
    mk1 = build_modified_K(prof1, seed)
    assert mk1.branch == "odd-doubled"
    assert (mk1.effective_m, mk1.effective_n) == (2, 2)
    from hamext._record import replace
    doubled = replace(prof1, m=2, n=2)
    from hamext.phase import apply_W
    want = apply_W(doubled, L, recursion_Gn(seed, 2))
    assert (mk1.poly - want).is_zero


def test_expand_modified_K_matches():
    space = make_extension_space([Var.circular("q")], c=1, kappa=0)
    L, G = _ttw_base(space)
    seed = SeedSolution.certify(L, G, 1, 0)
    # s = 1 binomial: U^2 G + 2w/g^2 G
    prof = make_profile(space, 2, 1, c=1, L0=0, kappa=0,
                        omega=ParamPoly.var("omega"))
    e = expand_modified_K(prof, seed)
    u2 = apply_U(prof, L, apply_U(prof, L, G))
    sysv = space.system
    coupling = space.lift((sysv.one() / prof.gamma) ** 2 * ParamPoly.var("omega")) * 2
    assert (e - u2 - coupling * G).is_zero
    assert (e - build_modified_K(prof, seed).poly).is_zero
    # omega = 0 collapses to the single U-power term
    prof0 = make_profile(space, 4, 1, c=1, L0=0, kappa=0, omega=0)
    assert (expand_modified_K(prof0, seed) - build_K(prof0, seed)).is_zero


def test_plain_commutation_grid():
    # {H, K} = 0 across the full m, n <= 4 grid for both seed families
    space = make_extension_space([Var.circular("q")], c=1, kappa=0)
    L, G = _ttw_base(space)
    seed = SeedSolution.certify(L, G, 1, 0)
    cage = cage_model(1, 1)
    cases = [(space, L, seed, Q(1), 0),
             (cage.space, cage.L, cage.seed, Q(0), ParamPoly.var("L0"))]
    for spc, Lx, sd, c, L0 in cases:
        for m in range(1, 5):
            for n in range(1, 5):
                prof = make_profile(spc, m, n, c=c, L0=L0, kappa=0)
                H = build_extended_H(prof, Lx)
                K = build_K(prof, sd)
                assert poisson_bracket(H, K).is_zero, (c, m, n)


def test_modified_commutation_tagged_extension():
    # kappa = +-1 extension variables exercise non-monomial denominators
    for kappa in (1, -1):
        space = make_extension_space([Var.circular("q")], c=1, kappa=kappa)
        L, G = _ttw_base(space)
        seed = SeedSolution.certify(L, G, 1, 0)
        prof = make_profile(space, 2, 1, c=1, L0=0, kappa=kappa,
                            omega=ParamPoly.var("omega"))
        H = build_extended_H(prof, L) + space.lift(confinement(prof))
        K = build_modified_K(prof, seed).poly
        assert poisson_bracket(H, K).is_zero, kappa


# -- compatibility conditions ----------------------------------------------------

def test_compatibility_conditions_pass_and_flag_omega():
    for mdl in (ttw_model(1, 1), cage_model(2, 1), cage_model(4, 3)):
        f, h = modified_coupling_functions(mdl.profile)
        rep = check_compatibility_conditions(mdl.profile, f, h, mdl.seed)
        assert rep.all_ok, (mdl.name, rep.failures)
        assert rep.f0 == ParamPoly.var("omega")
        assert rep.h0 == ParamPoly.zero()
        assert rep.f0_is_omega and rep.combo_ok and rep.xl_g_nonzero


def test_compatibility_perturbations_detected():
    mdl = cage_model(2, 1)
    prof, seed = mdl.profile, mdl.seed
    sysv = mdl.space.system
    u = sysv.coord("u")
    f, h = modified_coupling_functions(prof)

    rep = check_compatibility_conditions(prof, f + u, h, seed)
    assert "f condition" in rep.failures and not rep.all_ok

    rep = check_compatibility_conditions(prof, f, h + u, seed)
    assert "h condition" in rep.failures

    rep = check_compatibility_conditions(prof, f, h, seed, gamma=prof.gamma + u * u * u)
    assert "gamma ODE" in rep.failures

    rep = check_compatibility_conditions(prof, f, h, seed, alpha=prof.alpha + u)
    assert "alpha = -gamma'" in rep.failures

    bad_G = mdl.space.lift(u) * mdl.space.p("q")
    rep = check_compatibility_conditions(prof, f, h, seed, G_n=bad_G)
    assert "scaled seed identity" in rep.failures


def test_compatibility_f0_zero_when_omega_absent():
    # with omega = 0 and h0 = 0 the operator square reduces to plain U^2
    mdl = cage_model(2, 1, omega=0)
    f, h = modified_coupling_functions(mdl.profile)
    rep = check_compatibility_conditions(mdl.profile, f, h, mdl.seed)
    assert rep.all_ok
    assert rep.f0 == ParamPoly.zero()
    ratio = Q(4, 1)
    want_f = mdl.space.system.lift(ParamPoly.var("L0")) * mdl.profile.gamma ** 2 * ratio
    assert (f - want_f).is_zero


# -- linear seed families ----------------------------------------------------------

def test_solve_linear_rows():
    c1s, c2s, L0s = (ParamPoly.var(n) for n in ("c1", "c2", "L0"))
    row1 = solve_linear_seed(1, 1, 0, c1s, c2s, L0s)
    assert row1.case == "c!=0" and row1.certified
    sysv = row1.space.system
    S, C = sysv.S("q"), sysv.C("q")
    want = (sysv.lift(c1s) + sysv.lift(c2s) * C) / (S * S) - sysv.lift(L0s)
    assert (row1.V - want).is_zero
    assert (row1.eta - S).is_zero

    row2 = solve_linear_seed(0, 1, 0, c1s, c2s, L0s)
    assert row2.case == "c=0, a1!=0" and row2.certified
    sysv = row2.space.system
    qc = sysv.coord("q")
    want = sysv.lift(L0s) * qc * qc * Q(1, 4) + sysv.lift(c1s) / (qc * qc) \
        + sysv.lift(c2s)
    assert (row2.V - want).is_zero

    row3 = solve_linear_seed(0, 0, 1, c1s, c2s, L0s)
    assert row3.case == "c=0, a1=0" and row3.certified
    sysv = row3.space.system
    qc = sysv.coord("q")
    want = sysv.lift(L0s) * qc * qc + sysv.lift(c1s) * qc + sysv.lift(c2s)
    assert (row3.V - want).is_zero


def test_solve_linear_symbolic_general_row1_and_row2():
    syms = {n: ParamPoly.var(n) for n in ("a1", "a2", "c1", "c2", "L0")}
    row1 = solve_linear_seed(1, syms["a1"], syms["a2"], syms["c1"], syms["c2"],
                             syms["L0"])
    assert row1.certified
    row1h = solve_linear_seed(-2, syms["a1"], syms["a2"], syms["c1"], syms["c2"],
                              syms["L0"])
    assert row1h.certified  # hyperbolic tag, still exact
    row2 = solve_linear_seed(0, syms["a1"], syms["a2"], syms["c1"], syms["c2"],
                             syms["L0"])
    assert row2.certified  # symbolic a1 in the denominator


def test_solve_linear_inconsistent():
    with pytest.raises(ValueError):
        solve_linear_seed(1, 0, 0, 1, 1, 0)


def test_seed_from_row_certifies():
    row = solve_linear_seed(1, 1, 0, ParamPoly.var("c1"), ParamPoly.var("c2"), 0)
    SeedSolution.certify(row.L, row.G, 1, 0)


# -- the degree-r residual system -----------------------------------------------

def test_e2_r1_rows_pass():
    c1s, c2s, L0s = (ParamPoly.var(n) for n in ("c1", "c2", "L0"))
    row1 = solve_linear_seed(1, 1, 0, c1s, c2s, ParamPoly.zero())
    sysv = row1.space.system
    res, ok = check_e2_system(row1.V, [sysv.zero(), row1.eta], 1, 0)
    assert ok and len(res) == 4

    row2 = solve_linear_seed(0, 1, 0, c1s, ParamPoly.zero(), L0s)
    sysv = row2.space.system
    res, ok = check_e2_system(row2.V, [sysv.zero(), row2.eta], 0, L0s)
    assert ok


def test_e2_rejects_generic_r2():
    sysv = VarSystem([Var.linear("q")])
    qc = sysv.coord("q")
    V = sysv.lift(ParamPoly.var("c1")) * qc ** 3
    etas = [sysv.zero(), sysv.zero(), sysv.one()]
    res, ok = check_e2_system(V, etas, 0, ParamPoly.var("L0"))
    assert not ok
    dV = V.differentiate("q")
    assert (res[0] - dV * dV * 2).is_zero  # bottom block fails as (V')^2 * 2


def test_e2_residuals_match_seed_residual_coefficients():
    sysv = VarSystem([Var.linear("q")])
    space = PhaseSpace(sysv)
    qc = sysv.coord("q")
    V = sysv.lift(ParamPoly.var("c1")) * qc ** 3 + qc
    etas = [qc, sysv.zero(), sysv.one()]
    res, _ = check_e2_system(V, etas, 1, ParamPoly.var("L0"))
    p = space.p("q")
    G = space.lift(etas[0]) + space.lift(etas[2]) * p * p
    L = p * p * Q(1, 2) + space.lift(V)
    full, _ = check_seed(L, G, 1, ParamPoly.var("L0"))
    for i, r in enumerate(res):
        coeff = full.coefficient((i,))
        assert (r - coeff).is_zero, i
