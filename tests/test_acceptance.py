"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
All tolerances are fixed here, not tuned at runtime.
"""

import random
import time

from hamext import (ParamPoly, PhasePoint, Q, Var, VarSystem, apply_U,
                    apply_XL, build_extended_H, build_K,
                    cage_model, check_e2_system, check_compatibility_conditions,
                    closed_form_PD, coincidence_pair, expand_modified_K,
                    golden_K21, harmonic_model, make_extension_space,
                    make_profile, poisson_bracket, recursion_Gn,
                    solve_linear_seed, modified_coupling_functions, ttw_model,
                    SeedSolution)
from hamext.cli import main as cli_main
from hamext.dynamics import (TrajectoryConfig, hamiltons_equations,
                             integrate_adaptive, invariant_values,
                             monitor_invariants)
from hamext.verify import (RANK_THRESHOLD, VerifySettings, golden_compare,
                           independence_rank, sample_points)


def _report(num, desc, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def _ttw_symbolic_seed():
    space = make_extension_space([Var.circular("q")], c=1, kappa=0)
    sysv = space.system
    S, C = sysv.S("q"), sysv.C("q")
    V = (sysv.param("c1") + sysv.param("c2") * C) / (S * S)
    p = space.p("q")
    L = p * p * Q(1, 2) + space.lift(V)
    G = space.lift(S) * p
    return space, L, SeedSolution.certify(L, G, 1, 0)


def test_criterion_01_plain_commutation():
    space, L, seed = _ttw_symbolic_seed()
    ok = True
    for m, n in [(1, 1), (2, 1), (1, 2), (3, 1), (3, 2)]:
        t0 = time.monotonic()
        prof = make_profile(space, 2 * m, n, c=1, L0=0, kappa=0, omega=0)
        H = build_extended_H(prof, L)
        K = build_K(prof, seed)
        zero = poisson_bracket(H, K).is_zero
        elapsed = time.monotonic() - t0
        ok = ok and zero and elapsed < 60.0
    _report(1, "plain {H, K} = 0 for lambda in {1, 2, 1/2, 3, 3/2}, "
               "symbolic c1, c2, each under 60 s", ok)


def test_criterion_02_modified_even_branch():
    ok = True
    for mdl in (ttw_model(1, 1), ttw_model(2, 1), ttw_model(3, 2),
                cage_model(2, 1), cage_model(4, 3)):
        t0 = time.monotonic()
        zero = poisson_bracket(mdl.Hbar, mdl.Kbar.poly).is_zero
        elapsed = time.monotonic() - t0
        ok = ok and zero and mdl.Kbar.branch == "even" and elapsed < 120.0
    _report(2, "modified {Hbar, Kbar} = 0, even branch, ttw lambda in "
               "{1, 2, 3/2} and cage (2,1), (4,3), symbolic omega", ok)


def test_criterion_03_modified_odd_branch():
    ok = True
    for m, n in [(1, 1), (3, 2)]:
        mdl = cage_model(m, n)
        good_dispatch = (mdl.Kbar.branch == "odd-doubled"
                         and mdl.Kbar.effective_m == 2 * m
                         and mdl.Kbar.effective_n == 2 * n)
        zero = poisson_bracket(mdl.Hbar, mdl.Kbar.poly).is_zero
        ok = ok and good_dispatch and zero
    _report(3, "modified commutation for cage (1,1) and (3,2) via the "
               "(2m, 2n) doubled dispatch", ok)


def test_criterion_04_recursion_law():
    ok = True
    for mdl in (ttw_model(1, 1), cage_model(1, 1), harmonic_model(1, 1)):
        seed = mdl.seed
        for n in range(1, 6):
            Gn = recursion_Gn(seed, n)
            resid = apply_XL(seed.L, apply_XL(seed.L, Gn)) \
                + (seed.L.scale(seed.c) + seed.space.lift(seed.L0)) * Gn * (2 * n * n)
            ok = ok and resid.is_zero
    _report(4, "X_L^2(G_n) + 2 n^2 (c L + L0) G_n = 0 for all catalog seeds, "
               "n <= 5", ok)


def test_criterion_05_closed_form():
    ok = True
    seeds = []
    space, L, seed = _ttw_symbolic_seed()
    seeds.append((space, L, seed, Q(1), 0))
    cage = cage_model(1, 1)
    seeds.append((cage.space, cage.L, cage.seed, Q(0), ParamPoly.var("L0")))
    for space, L, seed, c, L0 in seeds:
        for n in range(1, 4):
            Gn = recursion_Gn(seed, n)
            xlg = apply_XL(L, Gn)
            for m in range(1, 7):
                kwargs = dict(c=c, L0=L0, kappa=0)
                prof = make_profile(space, m, n, **kwargs)
                F = Gn
                for r in range(0, m + 1):
                    P, D = closed_form_PD(prof, L, r)
                    ok = ok and (F - (P * Gn + D * xlg)).is_zero
                    if r < m:
                        F = apply_U(prof, L, F)
    _report(5, "U^r(G_n) = P*G_n + D*X_L(G_n) exactly for r <= m <= 6, "
               "n <= 3, both seed families", ok)


def test_criterion_06_binomial_expansion():
    ok = True
    for s in (1, 2, 3):
        ttw = ttw_model(s, 1)        # profile (2s, 1), even branch
        diff = expand_modified_K(ttw.profile, ttw.seed) - ttw.Kbar.poly
        ok = ok and diff.is_zero
        cage = cage_model(2 * s, 1) if s != 2 else cage_model(4, 3)
        diff = expand_modified_K(cage.profile, cage.seed) - cage.Kbar.poly
        ok = ok and diff.is_zero
    odd = cage_model(3, 2)           # dispatched expansion must agree too
    ok = ok and (expand_modified_K(odd.profile, odd.seed) - odd.Kbar.poly).is_zero
    _report(6, "binomial expansion equals the constructed modified integral "
               "for s <= 3", ok)


def test_criterion_07_golden_comparison():
    mdl = ttw_model(1, 1)
    golden = golden_K21()
    params = {"alpha1": 1.25, "alpha2": 1.75, "omega": 2.0 / 3.0}
    settings = VerifySettings(samples=120, rng_seed=424242)
    rng = random.Random(settings.rng_seed)
    pts = sample_points(mdl.space, 120, rng)
    const, dev, sym_ok, used, _ = golden_compare(mdl.Kbar.poly, golden, pts,
                                                 params, settings.precision)
    ok = (used >= 100 and sym_ok is True and dev < 1e-12
          and abs(const - 1.0) < 1e-30)
    _report(7, f"generated degree-3 integral matches the transcribed form, "
               f"pinned constant 1 (got {const:.3g}), deviation {dev:.2e} "
               f"< 1e-12 over {used} points", ok)


def test_criterion_08_compatibility_conditions():
    mdl = cage_model(2, 1)
    f, h = modified_coupling_functions(mdl.profile)
    rep = check_compatibility_conditions(mdl.profile, f, h, mdl.seed)
    ok = rep.all_ok and rep.f0 == ParamPoly.var("omega") and rep.f0_is_omega

    sysv = mdl.space.system
    u = sysv.coord("u")
    perturbed = [
        check_compatibility_conditions(mdl.profile, f + u, h, mdl.seed),
        check_compatibility_conditions(mdl.profile, f, h + u, mdl.seed),
        check_compatibility_conditions(mdl.profile, f, h, mdl.seed,
                                       gamma=mdl.profile.gamma + u ** 3),
        check_compatibility_conditions(mdl.profile, f, h, mdl.seed,
                                       alpha=mdl.profile.alpha + u),
        check_compatibility_conditions(mdl.profile, f, h, mdl.seed,
                                       G_n=mdl.space.lift(u) * mdl.space.p("q")),
    ]
    ok = ok and all(not rep.all_ok for rep in perturbed)
    _report(8, "compatibility conditions pass with recovered f0 = omega; "
               "every single-condition perturbation is detected", ok)


def test_criterion_09_linear_seed_families():
    syms = {n: ParamPoly.var(n) for n in ("c1", "c2", "L0")}
    rows = [
        solve_linear_seed(1, 1, 0, syms["c1"], syms["c2"], syms["L0"]),
        solve_linear_seed(0, 1, 0, syms["c1"], syms["c2"], syms["L0"]),
        solve_linear_seed(0, 0, 1, syms["c1"], syms["c2"], syms["L0"]),
    ]
    ok = all(r.certified for r in rows)

    # r = 1 residual systems confirm the first two rows
    r1 = solve_linear_seed(1, 1, 0, syms["c1"], syms["c2"], ParamPoly.zero())
    res, all_zero = check_e2_system(r1.V, [r1.space.system.zero(), r1.eta], 1, 0)
    ok = ok and all_zero
    r2 = solve_linear_seed(0, 1, 0, syms["c1"], ParamPoly.zero(), syms["L0"])
    res, all_zero = check_e2_system(r2.V, [r2.space.system.zero(), r2.eta], 0,
                                    syms["L0"])
    ok = ok and all_zero

    # generic degree-2 counterexample must be rejected
    sysv = VarSystem([Var.linear("q")])
    qc = sysv.coord("q")
    V = sysv.lift(syms["c1"]) * qc ** 3
    res, verdict = check_e2_system(V, [sysv.zero(), sysv.zero(), sysv.one()],
                                   0, syms["L0"])
    ok = ok and not verdict and not res[0].is_zero
    _report(9, "all three linear seed rows certify with zero residuals; the "
               "degree-1 systems confirm and the generic degree-2 case is "
               "rejected", ok)


def test_criterion_10_independence_rank():
    settings = VerifySettings(samples=100, rng_seed=5150)
    ok = RANK_THRESHOLD == 1e-8
    for mdl, params in (
        (ttw_model(1, 1), {"alpha1": 1.25, "alpha2": 1.75, "omega": 2 / 3}),
        (cage_model(2, 1), {"L0": 0.75, "b": 0.5, "omega": 2 / 3, "A": 1.0}),
    ):
        rng = random.Random(settings.rng_seed)
        pts = sample_points(mdl.space, 100, rng)
        hist, used, _ = independence_rank([mdl.Hbar, mdl.Kbar.poly, mdl.L],
                                          pts, params)
        ok = ok and used >= 95 and hist.get(3, 0) >= 0.95 * used
    _report(10, "rank(Hbar, Kbar, L) = 3 at >= 95% of 100 samples for ttw "
                "lambda = 1 and cage (2, 1), threshold 1e-8", ok)


def test_criterion_11_coordinate_coincidence():
    ttw, cage, to_cage = coincidence_pair("5/4", "7/4", "2/3")
    params = {"alpha1": 1.25, "alpha2": 1.75, "omega": 2.0 / 3.0}
    rng = random.Random(31337)
    worst = 0.0
    for _ in range(100):
        pt = {"q": rng.uniform(0.3, 1.2), "u": rng.uniform(0.3, 1.2),
              "p_q": rng.uniform(-1, 1), "p_u": rng.uniform(-1, 1)}
        a = ttw.Hbar.evaluate(pt, params)
        b = cage.Hbar.evaluate(to_cage(pt), params)
        worst = max(worst, abs(a - b) / (1 + abs(a)))
    _report(11, f"polar and Cartesian realizations of the parameter-1 system "
                f"agree at 100 mapped points, max rel err {worst:.2e} < 1e-12",
            worst < 1e-12)


def test_criterion_12_conservation_along_flow():
    t0 = time.monotonic()
    params = {"alpha1": 1.25, "alpha2": 1.75, "omega": 2.0 / 3.0}
    mdl = ttw_model(2, 1)
    pt = PhasePoint.make(mdl.space, {"q": 0.8, "u": 0.9, "p_q": 0.3,
                                     "p_u": -0.2})
    cfg = TrajectoryConfig(initial=pt, t_final=100.0, tol=1e-12, stride=400)
    traj = integrate_adaptive(cfg, hamiltons_equations(mdl.Hbar, params))
    invs = {"H": mdl.Hbar, "K": mdl.Kbar.poly, "L": mdl.L,
            "p_u": mdl.space.p("u")}
    drift = monitor_invariants(traj, invariant_values(traj, invs, params))
    elapsed = time.monotonic() - t0
    ok = (traj.success
          and drift.drift("H") < 1e-8
          and drift.drift("K") < 1e-8
          and drift.drift("L") < 1e-8
          and drift.drift("p_u") > 1e-2
          and elapsed < 60.0)
    _report(12, f"drift of H, K, L over t in [0, 100] at tol 1e-12 is "
                f"{max(drift.drift(k) for k in 'HKL'):.2e} < 1e-8; negative "
                f"control p_u drifts {drift.drift('p_u'):.2f}; "
                f"{elapsed:.1f} s < 60 s", ok)


def test_criterion_13_deterministic_reports(tmp_path):
    args = ["verify", "--model", "ttw", "--m", "1", "--n", "1",
            "--samples", "50", "--seed", "8675309"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc1 = cli_main(args + ["--out", str(a)])
    rc2 = cli_main(args + ["--out", str(b)])
    ok = rc1 == 0 and rc2 == 0 and a.read_bytes() == b.read_bytes()
    _report(13, "repeated verify runs with a fixed seed produce byte-identical "
                "reports", ok)
