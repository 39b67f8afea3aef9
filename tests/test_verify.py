import random

import pytest

from hamext import (ParamPoly, PhasePoint, PhaseSpace, Q, Var, VarSystem,
                    cage_model, golden_K21, ttw_model)
from hamext.verify import (ClaimResult, VerifySettings, fd_crosscheck,
                           golden_compare, independence_rank,
                           load_golden_constant, numeric_commute_check,
                           run_model_verification, sample_points,
                           symbolic_commute_check)


@pytest.fixture(scope="module")
def settings():
    return VerifySettings(samples=50, precision=50, rng_seed=99)


@pytest.fixture(scope="module")
def ttw(ttw11):
    return ttw11


def _points(model, settings, n=None):
    rng = random.Random(settings.rng_seed)
    return sample_points(model.space, n or settings.samples, rng)


def test_symbolic_commute_pairs(ttw):
    ok, resid = symbolic_commute_check(ttw.Hbar, ttw.Kbar.poly)
    assert ok and resid.is_zero
    cage = cage_model(3, 2)
    ok, _ = symbolic_commute_check(cage.Hbar, cage.Kbar.poly)
    assert ok


def test_omega_deleted_defect_is_proportional_to_omega(ttw):
    sysv = ttw.space.system
    u = sysv.coord("u")
    H_no_omega = ttw.Hbar - ttw.space.lift(sysv.param("omega") * u * u)
    ok, resid = symbolic_commute_check(H_no_omega, ttw.Kbar.poly)
    assert not ok
    # the residual carries the frequency coupling: it dies at omega -> 0
    assert resid.substitute({"omega": 0}).is_zero


def test_numeric_commute_tiny_for_exact_pairs(ttw, settings, ttw_params):
    pts = _points(ttw, settings)
    worst, used, rejected = numeric_commute_check(
        ttw.Hbar, ttw.Kbar.poly, pts, ttw_params, settings.precision)
    assert used >= 30
    assert worst < 1e-40


def test_numeric_commute_scales_linearly_with_defect(ttw, settings, ttw_params):
    pts = _points(ttw, settings, 25)
    residuals = []
    for eps in (Q(1, 1000), Q(2, 1000)):
        K_bad = ttw.Kbar.poly.substitute(
            {"omega": ParamPoly.var("omega") * (1 + eps)})
        worst, _, _ = numeric_commute_check(ttw.Hbar, K_bad, pts, ttw_params,
                                            settings.precision)
        residuals.append(worst)
    ratio = residuals[1] / residuals[0]
    assert residuals[0] > 1e-12
    assert 1.6 < ratio < 2.4


def test_numeric_commute_high_degree_pair(settings, ttw_params):
    # degree-9 integral: regression-pins the high-precision evaluator
    mdl = ttw_model(3, 2)
    pts = _points(mdl, settings, 10)
    worst, used, _ = numeric_commute_check(mdl.Hbar, mdl.Kbar.poly, pts,
                                           ttw_params, settings.precision)
    assert used == 10 and worst < 1e-40


def test_independence_examples(ttw, settings, ttw_params):
    pts = _points(ttw, settings)
    hist, used, _ = independence_rank([ttw.Hbar, ttw.Kbar.poly, ttw.L], pts,
                                      ttw_params)
    assert used >= 30
    assert hist.get(3, 0) / used >= 0.95

    hist2, used2, _ = independence_rank([ttw.Hbar, ttw.Hbar * ttw.Hbar], pts,
                                        ttw_params)
    assert set(hist2) == {1} and used2 == used

    hist3, _, _ = independence_rank([ttw.L], pts, ttw_params)
    assert set(hist3) == {1}


def test_rank_invariance_under_reorder_and_scale(ttw, settings, ttw_params):
    pts = _points(ttw, settings, 30)
    funcs = [ttw.Hbar, ttw.Kbar.poly, ttw.L]
    hist_a, _, _ = independence_rank(funcs, pts, ttw_params)
    scaled = [ttw.L * 7, ttw.Hbar * Q(-1, 3), ttw.Kbar.poly]
    hist_b, _, _ = independence_rank(scaled, pts, ttw_params)
    assert hist_a == hist_b


def test_golden_compare_trivial_and_real(ttw, settings, ttw_params):
    pts = _points(ttw, settings, 40)
    K = ttw.Kbar.poly
    const, dev, sym, used, _ = golden_compare(K, K, pts, ttw_params)
    assert const == pytest.approx(1.0, abs=1e-30) and dev < 1e-30 and sym

    const, dev, sym, _, _ = golden_compare(K, K * 2, pts, ttw_params)
    assert const == pytest.approx(0.5, abs=1e-30) and dev < 1e-30 and sym

    golden = golden_K21()
    const, dev, sym, used, _ = golden_compare(K, golden, pts, ttw_params)
    assert sym is True
    assert const == pytest.approx(load_golden_constant("ttw_1_1"), abs=1e-30)
    assert dev < 1e-12 and used >= 30


def test_fd_crosscheck(ttw, settings, ttw_params):
    space = ttw.space
    simple = space.lift(space.system.coord("u") ** 2) * space.p("u")
    pts = _points(ttw, settings, 10)
    worst, used, _ = fd_crosscheck(simple, pts, ttw_params)
    assert worst < 1e-9

    big = ttw_model(2, 1)
    pts = _points(big, settings, 10)
    worst, used, rejected = fd_crosscheck(big.Hbar, pts, ttw_params)
    assert used >= 5 and worst < 1e-6


def test_fd_crosscheck_rejects_near_singular(ttw, ttw_params):
    space = ttw.space
    bad = PhasePoint.make(space, {"q": 1e-13, "u": 0.9, "p_q": 0.1, "p_u": 0.2})
    worst, used, rejected = fd_crosscheck(ttw.Hbar, [bad], ttw_params)
    assert rejected == 1 and used == 0


def test_fd_crosscheck_rejected_point_leaves_no_residual():
    # the q partial is checked before a shifted u evaluation hits the pole
    # at u = 1/2, so the point must not leave its q residual behind
    space = PhaseSpace(VarSystem([Var.linear("q"), Var.linear("u")]), ext="u")
    sysv = space.system
    q, u = sysv.coord("q"), sysv.coord("u")
    F = space.lift(q ** 3) * space.p("q") + space.lift(1 / (u - Q(1, 2)))
    pt = PhasePoint.make(space, {"q": 0.9, "u": 0.5 - 2e-4, "p_q": 0.3, "p_u": 0.2})
    assert fd_crosscheck(F, [pt], {}) == (0.0, 0, 1)


def test_reports_reproducible(ttw, ttw_params):
    settings = VerifySettings(samples=40, precision=50, rng_seed=7)
    r1 = run_model_verification(ttw, ttw_params, settings)
    r2 = run_model_verification(ttw, ttw_params, settings)
    assert r1.to_document() == r2.to_document()
    assert r1.all_ok
    other = run_model_verification(
        ttw, ttw_params, VerifySettings(samples=40, precision=50, rng_seed=8))
    assert other.to_document() != r1.to_document()


def test_claim_sample_floor_enforced():
    with pytest.raises(ValueError):
        ClaimResult(claim="x", ok=True, samples_used=3).validate()
    ClaimResult(claim="x", ok=True, symbolic=True).validate()
    # a recorded sampling failure is a legitimate (failing) entry
    ClaimResult(claim="x", ok=False, samples_used=0,
                details={"error": "failed to sample"}).validate()


def test_all_samples_rejected_reported_not_crashed(ttw, ttw_params):
    # every point sits on the sin q = 0 singular locus
    bad = [PhasePoint.make(ttw.space, {"q": 0.0, "u": 0.9, "p_q": 0.1,
                                       "p_u": 0.2})] * 5
    worst, used, rejected = numeric_commute_check(ttw.Hbar, ttw.Kbar.poly,
                                                  bad, ttw_params)
    assert used == 0 and rejected == 5 and worst == 0.0
