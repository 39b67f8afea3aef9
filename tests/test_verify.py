import math
import random

import numpy as np
import pytest

from hamext import (ParamPoly, PhasePoint, PhaseSpace, Q, Var, VarSystem,
                    cage_model, golden_K21, ttw_model, verify)
from hamext.cli import EXIT_CLAIM, main
from hamext.verify import (GOLDEN_CONSTANT, RANK_THRESHOLD, ClaimResult,
                           VerificationReport, VerifySettings, fd_crosscheck,
                           golden_compare, independence_rank, numeric_commute_check,
                           run_model_verification, sample_points, singular_values,
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

    # more functions than coordinates: five functions of H, K and L
    H, K, L = ttw.Hbar, ttw.Kbar.poly, ttw.L
    hist5, used5, _ = independence_rank([H, K, L, H * L, H * H], pts, ttw_params)
    assert hist5 == {3: used5} and used5 == used


def test_rank_invariance_under_reorder_and_scale(ttw, settings, ttw_params):
    pts = _points(ttw, settings, 30)
    funcs = [ttw.Hbar, ttw.Kbar.poly, ttw.L]
    hist_a, _, _ = independence_rank(funcs, pts, ttw_params)
    scaled = [ttw.L * 7, ttw.Hbar * Q(-1, 3), ttw.Kbar.poly]
    hist_b, _, _ = independence_rank(scaled, pts, ttw_params)
    assert hist_a == hist_b
    # squared, these gradient entries overflow a float; their norms do not
    huge = [ttw.Hbar, ttw.Kbar.poly * Q(10**200), ttw.L]
    hist_c, _, _ = independence_rank(huge, pts, ttw_params)
    assert hist_a == hist_c


def _unit_rows(rng, k, n, kind):
    """``k`` unit rows of length ``n``: random, nearly dependent (the last
    row the first plus noise of 1e-14 to 1e-2) or rank-deficient (the last
    row a combination of the others)."""
    rows = [[rng.gauss(0, 1) for _ in range(n)] for _ in range(k)]
    if kind == "near" and k > 1:
        delta = 10 ** rng.uniform(-14, -2)
        rows[-1] = [x + delta * rng.gauss(0, 1) for x in rows[0]]
    elif kind == "deficient" and k > 1:
        weights = [rng.gauss(0, 1) for _ in range(k - 1)]
        rows[-1] = [sum(w * r[c] for w, r in zip(weights, rows)) for c in range(n)]
    return [[x / math.hypot(*r) for x in r] for r in rows]


@pytest.mark.parametrize("kind", ["random", "near", "deficient"])
@pytest.mark.parametrize("k, n", [(1, 2), (2, 4), (3, 4), (3, 6), (4, 2), (5, 4), (5, 6)])
def test_singular_values_match_numpy_svd(kind, k, n):
    """Oracle: numpy.linalg.svd.  The singular values agree to round-off and
    the ranks at RANK_THRESHOLD are equal, also with more rows than columns."""
    rng = random.Random(f"{kind}-{k}-{n}")
    for _ in range(50):
        rows = _unit_rows(rng, k, n, kind)
        ours = sorted(singular_values(rows), reverse=True)
        theirs = np.linalg.svd(np.array(rows), compute_uv=False)
        assert len(ours) == len(theirs) == min(k, n)
        assert max(abs(a - b) for a, b in zip(ours, theirs)) < 1e-13
        assert (sum(s > RANK_THRESHOLD * ours[0] for s in ours)
                == int(np.sum(theirs > RANK_THRESHOLD * theirs[0])))


def test_singular_values_give_up_past_the_sweep_cap(monkeypatch):
    """Two rows that are not orthogonal need a rotation, then a sweep that
    finds none.  Stopped after the first sweep, the loop raises instead of
    returning unconverged values."""
    rows = [[1.0, 0.0], [1.0, 1.0]]
    golden = sorted(math.sqrt((3 + r * math.sqrt(5)) / 2) for r in (-1, 1))
    assert sorted(singular_values(rows)) == pytest.approx(golden, rel=1e-15)
    monkeypatch.setattr(verify, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(ArithmeticError, match="after 1 sweeps"):
        singular_values(rows)


def test_non_finite_gradient_row_rejected(ttw, settings, ttw_params):
    """A gradient entry that overflows to inf rejects its sample, counted
    in ``rejected`` and not ranked; the other samples rank as usual."""
    u = ttw.space.system.coord("u")
    steep = ttw.space.lift(1 / u**20) * Q(10**300)
    pts = _points(ttw, settings)
    grad = ttw.space.compile([steep.d_position("u")], ttw_params)
    overflowing = sum(not math.isfinite(grad(*pt.values)[0]) for pt in pts)
    assert 0 < overflowing < len(pts)
    hist, used, rejected = independence_rank([ttw.Hbar, steep, ttw.L], pts, ttw_params)
    assert rejected == overflowing and used == len(pts) - overflowing
    assert sum(hist.values()) == used


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
    assert const == pytest.approx(GOLDEN_CONSTANT, abs=1e-30)
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


def test_report_add_holds_the_sample_floor():
    """A claim with no symbolic verdict and fewer than MIN_SAMPLES accepted
    samples is recorded as a failure to sample, with its counts; one with a
    symbolic verdict, or with enough samples, is recorded as given."""
    report = VerificationReport(model={}, rng_seed=0, precision=50)
    report.add(ClaimResult(claim="short", ok=True, max_residual=1e-50, samples_used=3,
                           samples_rejected=4, details={"tol": "1e-40"}))
    assert report.claims == [ClaimResult(
        claim="short", ok=False, samples_used=3, samples_rejected=4,
        details={"error": "failed to sample the regular region"})]
    given = [ClaimResult(claim="exact", ok=True, symbolic=True),
             ClaimResult(claim="exact_unsampled", ok=True, symbolic=True, samples_rejected=5),
             ClaimResult(claim="sampled", ok=True, max_residual=0.0, samples_used=30)]
    for claim in given:
        report.add(claim)
    assert report.claims[1:] == given
    assert not report.all_ok


def test_unsampleable_region_fails_the_sampled_claims(ttw, ttw_params, monkeypatch, capsys):
    """With every sample on the sin q = 0 singular locus, each sampled claim
    is a recorded failure to sample and verify exits with a failed claim."""
    import hamext.verify

    def on_the_locus(space, count, rng):
        return [PhasePoint.make(space, {"q": 0.0, "u": 0.9, "p_q": 0.1, "p_u": 0.2})] * count

    monkeypatch.setattr(hamext.verify, "sample_points", on_the_locus)
    report = run_model_verification(ttw, ttw_params, VerifySettings(samples=30))
    claims = {c.claim: c.to_dict() for c in report.claims}
    for name in ("commutation_numeric", "independence_rank", "fd_crosscheck"):
        assert claims[name] == {"claim": name, "ok": False, "samples_used": 0,
                                "samples_rejected": 30, "details": {
                                    "error": "failed to sample the regular region"}}
    assert claims["commutation_symbolic"]["ok"] and not report.all_ok
    assert main(["verify", "--model", "ttw", "--samples", "30"]) == EXIT_CLAIM
    assert '"failed to sample the regular region"' in capsys.readouterr().out


def test_all_samples_rejected_reported_not_crashed(ttw, ttw_params):
    # every point sits on the sin q = 0 singular locus
    bad = [PhasePoint.make(ttw.space, {"q": 0.0, "u": 0.9, "p_q": 0.1,
                                       "p_u": 0.2})] * 5
    worst, used, rejected = numeric_commute_check(ttw.Hbar, ttw.Kbar.poly,
                                                  bad, ttw_params)
    assert used == 0 and rejected == 5 and worst == 0.0
