"""Claim verification: symbolic commutation, sampled residuals, independence.

Symbolic checks are exact zero tests: the commutation claim on the flat
kernel of ``flat.py``, the others in the canonical ring.  Numeric checks
evaluate symbolic partial derivatives at sampled phase points, by default
with 50 significant digits, and normalize residuals by 1 + |grad H||grad K|
so tolerances transfer across parameter scales.  Samples landing too close
to a coefficient singularity are rejected and counted; a claim with no
symbolic verdict and fewer than MIN_SAMPLES accepted ones fails.

``run_model_verification`` runs the claims in one loop that times each on
the console.  Reports are deterministic: the same settings and RNG seed
reproduce the same document byte for byte (timings stay out of it).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ._record import field, record
from .numeric import SingularEvaluation  # the compiler loads with this module
from .models import ModelSpec, golden_K21
from .phase import PhasePoint, PhaseSpace, PPoly, apply_XL, poisson_bracket
from .extension import recursion_Gn


#: The regular box that samples are drawn from, the singular-value ratio
#: below which a gradient direction counts as dependent, the step of the
#: five-point differences, the accepted samples a claim without a symbolic
#: verdict needs, the least precision whose guard 10^(10 - precision) is at
#: most the float path's 1e-12, and the pinned ratio of the generated K_bar
#: of ttw(1,1) to its golden form.
POSITION_RANGE = (0.3, 1.2)
MOMENTUM_RANGE = (-1.0, 1.0)
RANK_THRESHOLD = 1e-8
FD_STEP = 1e-4
MIN_SAMPLES = 30
MIN_PRECISION = 22
GOLDEN_CONSTANT = 1.0


@record(frozen=True)
class VerifySettings:
    """Sampling and tolerance knobs shared by the numeric checks."""

    samples: int = 100
    precision: int = 50
    rng_seed: int = 20240901
    tol: Optional[float] = None           # default derived from precision

    @property
    def residual_tol(self) -> float:
        return self.tol if self.tol is not None else 10.0 ** (10 - self.precision)


def sample_points(space: PhaseSpace, count: int, rng: random.Random) -> List[PhasePoint]:
    """Uniform draws from the regular box, positions then momenta."""
    lo, hi = POSITION_RANGE
    mlo, mhi = MOMENTUM_RANGE
    pts = []
    for _ in range(count):
        coords = {}
        for name in space.position_names:
            coords[name] = rng.uniform(lo, hi)
        for name in space.momentum_names:
            coords[name] = rng.uniform(mlo, mhi)
        pts.append(PhasePoint.make(space, coords))
    return pts


@record
class ClaimResult:
    claim: str
    ok: bool
    symbolic: Optional[bool] = None
    max_residual: Optional[float] = None
    samples_used: int = 0
    samples_rejected: int = 0
    details: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"claim": self.claim, "ok": self.ok}
        if self.symbolic is not None:
            out["symbolic"] = self.symbolic
        if self.max_residual is not None:
            out["max_residual"] = f"{self.max_residual:.6e}"
        if self.samples_used or self.samples_rejected:
            out["samples_used"] = self.samples_used
            out["samples_rejected"] = self.samples_rejected
        if self.details:
            out["details"] = {k: str(v) for k, v in sorted(self.details.items())}
        return out


@record
class VerificationReport:
    model: Dict[str, object]
    rng_seed: int
    precision: int
    claims: List[ClaimResult] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.claims)

    def add(self, claim: ClaimResult):
        """Record ``claim``.  One with no symbolic verdict and fewer than
        MIN_SAMPLES accepted samples is recorded as a failure to sample."""
        if claim.symbolic is None and claim.samples_used < MIN_SAMPLES:
            claim = ClaimResult(claim=claim.claim, ok=False, samples_used=claim.samples_used,
                                samples_rejected=claim.samples_rejected,
                                details={"error": "failed to sample the regular region"})
        self.claims.append(claim)

    def to_document(self) -> str:
        doc = {
            "model": self.model,
            "rng_seed": self.rng_seed,
            "precision": self.precision,
            "all_ok": self.all_ok,
            "claims": [c.to_dict() for c in self.claims],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# individual checks


def symbolic_commute_check(H: PPoly, K: PPoly) -> Tuple[bool, PPoly]:
    """Exact bracket test, ``(verdict, residual)``.

    The verdict comes from the flat kernel's ``bracket_is_zero``.  Only a
    nonzero verdict builds the ring's bracket, as the residual to report;
    a zero verdict returns the zero residual.
    """
    # imported here, so that ``import hamext.verify`` (which cli.make_config
    # does to read the verify command's defaults) does not load the flat kernel
    from .flat import bracket_is_zero

    if bracket_is_zero(H, K):
        return True, H.space.zero()
    resid = poisson_bracket(H, K)
    if resid.is_zero:
        raise ArithmeticError("the flat zero test and the ring's bracket disagree")
    return False, resid


def _sample(points: Sequence[PhasePoint], row: Callable) -> Tuple[List[list], int]:
    """``row`` at each point, as ``(rows, rejected)``.

    ``row`` maps the coordinates of a point to its list of values.  A point
    where it raises SingularEvaluation is rejected whole: it gives no row
    and counts once in ``rejected``.
    """
    rows = []
    rejected = 0
    for pt in points:
        try:
            rows.append(row(*pt.values))
        except SingularEvaluation:
            rejected += 1
    return rows, rejected


def _gradient(F: PPoly) -> List[PPoly]:
    """The partials of F in coordinate order, positions then momenta."""
    names = F.space.position_names
    return [F.d_position(n) for n in names] + [F.d_momentum(n) for n in names]


def numeric_commute_check(H: PPoly, K: PPoly, points: Sequence[PhasePoint],
                          params: Mapping[str, object],
                          precision: int) -> Tuple[float, int, int]:
    """Max of |{H,K}| / (1 + |grad H||grad K|) over accepted samples.

    The bracket is recombined numerically from symbolic partials, so a
    symbolically-zero pair exercises genuine floating cancellation.
    """
    # mpmath only on the 50-digit path, so that build and simulate start without it
    import mpmath

    dim = H.space.dim
    grads = H.space.compile(_gradient(H) + _gradient(K), params, precision)
    worst = mpmath.mpf(0)
    with mpmath.workdps(precision):
        rows, rejected = _sample(points, grads)
        for row in rows:
            h, k = row[:2 * dim], row[2 * dim:]
            hq, hp, kq, kp = h[:dim], h[dim:], k[:dim], k[dim:]
            bracket = mpmath.mpf(0)
            for a, b, c, d in zip(hq, kp, hp, kq):
                bracket += a * b - c * d
            ngh = mpmath.sqrt(sum(x * x for x in hq + hp))
            ngk = mpmath.sqrt(sum(x * x for x in kq + kp))
            rel = abs(bracket) / (1 + ngh * ngk)
            if rel > worst:
                worst = rel
    return float(worst), len(rows), rejected


#: Sweeps after which ``singular_values`` stops with ArithmeticError.
JACOBI_MAX_SWEEPS = 60


def singular_values(rows: Sequence[Sequence[float]]) -> List[float]:
    """Singular values of the matrix with these rows (one or more), in no order.

    One-sided Jacobi (Hestenes, J. SIAM 6 (1958)): rotate pairs of rows
    until |a·b| <= sqrt(n)·eps·|a||b| for each pair, n the row length, or
    until a rotation rounds to no change; the row norms are then the
    singular values.  The tolerance, LAPACK's in ``dgesvj``, is the
    rounding of a computed cosine: at eps alone some pairs flip by an ulp
    for ever.  Never forming J·Jᵀ, which squares the condition number,
    keeps small singular values to high relative accuracy (Demmel &
    Veselić, SIAM J. Matrix Anal. Appl. 13 (1992)).  More rows than columns
    cannot all become orthogonal, so such a matrix is taken transposed.
    Still rotating after JACOBI_MAX_SWEEPS sweeps raises ArithmeticError:
    giving up is not a rank.
    """
    if len(rows) > len(rows[0]):
        rows = zip(*rows)
    rows = [list(r) for r in rows]
    tol = math.sqrt(len(rows[0])) * sys.float_info.epsilon
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for i, j in itertools.combinations(range(len(rows)), 2):
            a, b = rows[i], rows[j]
            na, nb = math.hypot(*a), math.hypot(*b)
            if not na or not nb:
                continue
            # a·b/(na*nb) from the unit rows: a·b itself can underflow; a
            # plain loop, as sum() of floats is compensated from Python 3.12 on
            cos = 0.0
            for x, y in zip(a, b):
                cos += (x / na) * (y / nb)
            if abs(cos) <= tol:
                continue
            # the rotation by angle theta with tan(theta) = t zeroes a·b
            zeta = (nb / na - na / nb) / (2 * cos)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1 / math.hypot(1.0, t)
            s = c * t
            new = ([c * x - s * y for x, y in zip(a, b)],
                   [s * x + c * y for x, y in zip(a, b)])
            # a rotation that rounds to no change can do no more (subnormal rows)
            if new != (a, b):
                rows[i], rows[j] = new
                rotated = True
        if not rotated:
            return [math.hypot(*r) for r in rows]
    raise ArithmeticError(f"Jacobi SVD unconverged after {JACOBI_MAX_SWEEPS} sweeps")


def independence_rank(functions: Sequence[PPoly], points: Sequence[PhasePoint],
                      params: Mapping[str, object]) -> Tuple[Dict[int, int], int, int]:
    """Histogram of numeric Jacobian ranks over the sampled points.

    Each gradient row is divided by its ``math.hypot`` norm, which neither
    overflows nor underflows where the sum of squares would, so that the
    relative threshold compares directions, not scales: this makes the
    rank histogram invariant under rescaling any function.  Singular
    values (``singular_values``) below RANK_THRESHOLD times the largest one
    count as zero, which makes the generic-rank statement operational.  A
    sample with a row of no finite norm (an infinite or NaN entry, or a
    norm past the float range) is rejected, like one at a singularity, and
    is not ranked.
    """
    if not functions:
        raise ValueError("independence needs at least one function")
    width = 2 * functions[0].space.dim
    grads = functions[0].space.compile([G for F in functions for G in _gradient(F)],
                                       params)
    rows, rejected = _sample(points, grads)
    hist: Dict[int, int] = {}
    for row in rows:
        J = [row[k:k + width] for k in range(0, len(row), width)]
        norms = [math.hypot(*r) for r in J]
        if not all(map(math.isfinite, norms)):
            rejected += 1
            continue
        sv = singular_values([[x / n for x in r] if n else r for r, n in zip(J, norms)])
        top = max(sv)
        rank = sum(s > RANK_THRESHOLD * top for s in sv) if top > 0 else 0
        hist[rank] = hist.get(rank, 0) + 1
    return hist, sum(hist.values()), rejected


def golden_compare(generated: PPoly, golden: PPoly, points: Sequence[PhasePoint],
                   params: Mapping[str, object], precision: int
                   ) -> Tuple[float, float, Optional[bool], int, int]:
    """Proportionality constant and deviation against a pinned expression.

    Returns (constant, max relative deviation, symbolic verdict, used,
    rejected).  The symbolic route cross-multiplies one matched monomial
    pair and runs the exact zero test, certifying global proportionality.
    """
    import mpmath

    if golden.is_zero:
        raise ValueError("golden expression is identically zero")
    symbolic_ok: Optional[bool] = None
    common = set(generated.terms) & set(golden.terms)
    if common:
        pexp = max(common, key=lambda pe: (sum(pe), pe))
        f0 = generated.terms[pexp]
        g0 = golden.terms[pexp]
        symbolic_ok = (generated * generated.space.lift(g0)
                       - golden * golden.space.lift(f0)).is_zero

    both = generated.space.compile([generated, golden], params, precision)
    num = mpmath.mpf(0)
    den = mpmath.mpf(0)
    with mpmath.workdps(precision):
        pairs, rejected = _sample(points, both)
        for gv, ov in pairs:
            num += gv * ov
            den += ov * ov
        const = num / den if den != 0 else mpmath.mpf(0)
        dev = mpmath.mpf(0)
        for gv, ov in pairs:
            rel = abs(gv - const * ov) / (1 + abs(gv))
            if rel > dev:
                dev = rel
    return float(const), float(dev), symbolic_ok, len(pairs), rejected


def fd_crosscheck(F: PPoly, points: Sequence[PhasePoint],
                  params: Mapping[str, object]) -> Tuple[float, int, int]:
    """Symbolic partials against five-point central differences.

    Runs in double precision; the expected error floor is about h^4 plus
    rounding amplification, comfortably under 1e-6 at h = FD_STEP.
    """
    fn = F.compile(params)
    grads = F.space.compile(_gradient(F), params)

    def row(*x) -> List[tuple]:
        # per coordinate: the symbolic partial, then F at x[c] - 2h, -h, +h, +2h
        return [(sym, *(fn(*x[:c], x[c] + k * FD_STEP, *x[c + 1:]) for k in (-2, -1, 1, 2)))
                for c, sym in enumerate(grads(*x))]

    rows, rejected = _sample(points, row)
    worst = 0.0
    for r in rows:
        for sym, m2, m1, p1, p2 in r:
            fd = (m2 - 8 * m1 + 8 * p1 - p2) / (12 * FD_STEP)
            rel = abs(sym - fd) / (1 + abs(sym))
            worst = max(worst, rel)
    return worst, len(rows), rejected


# ---------------------------------------------------------------------------
# model-level driver


def run_model_verification(model: ModelSpec, params: Mapping[str, object],
                           settings: VerifySettings,
                           K_override: Optional[PPoly] = None,
                           console=None) -> VerificationReport:
    """Run the full claim battery for one catalog model.

    ``K_override`` supports defect-injection runs; ``params`` must supply a
    numeric value for every free parameter of the model.  The claims run,
    and draw their sample points, in report order.
    """
    rng = random.Random(settings.rng_seed)
    report = VerificationReport(model=model.describe(), rng_seed=settings.rng_seed,
                                precision=settings.precision)
    K = K_override if K_override is not None else model.Kbar.poly
    tol = settings.residual_tol

    def points() -> List[PhasePoint]:
        return sample_points(model.space, settings.samples, rng)

    def commutation_symbolic() -> ClaimResult:
        ok, resid = symbolic_commute_check(model.Hbar, K)
        return ClaimResult(claim="commutation_symbolic", ok=ok, symbolic=ok,
                           details={} if ok else {"residual_terms": len(resid.terms)})

    def commutation_numeric() -> ClaimResult:
        worst, used, rej = numeric_commute_check(model.Hbar, K, points(), params,
                                                 settings.precision)
        return ClaimResult(claim="commutation_numeric", ok=worst < tol,
                           max_residual=worst, samples_used=used, samples_rejected=rej,
                           details={"tol": f"{tol:.1e}"})

    def rank() -> ClaimResult:
        hist, used, rej = independence_rank([model.Hbar, K, model.L], points(), params)
        share = hist.get(3, 0) / used if used else 0.0
        return ClaimResult(claim="independence_rank", ok=share >= 0.95,
                           samples_used=used, samples_rejected=rej,
                           details={"rank_histogram": json.dumps(hist, sort_keys=True),
                                    "full_rank_share": f"{share:.3f}"})

    def seed_derivative_nonzero() -> ClaimResult:
        nontrivial = not apply_XL(model.seed.L,
                                  recursion_Gn(model.seed, model.Kbar.effective_n)).is_zero
        return ClaimResult(claim="seed_derivative_nonzero", ok=nontrivial,
                           symbolic=nontrivial)

    def fd() -> ClaimResult:
        worst, used, rej = fd_crosscheck(model.Hbar, points(), params)
        return ClaimResult(claim="fd_crosscheck", ok=worst < 1e-6, max_residual=worst,
                           samples_used=used, samples_rejected=rej)

    def golden() -> ClaimResult:
        form = golden_K21(model.space, model.params["alpha1"], model.params["alpha2"],
                          model.params["omega"])
        const, dev, sym_ok, used, rej = golden_compare(K, form, points(), params,
                                                       settings.precision)
        const_ok = abs(const - GOLDEN_CONSTANT) < 1e-9
        return ClaimResult(
            claim="golden_compare",
            ok=bool(dev < 1e-12 and const_ok and sym_ok in (None, True)),
            symbolic=sym_ok, max_residual=dev, samples_used=used, samples_rejected=rej,
            details={"constant": f"{const:.12g}",
                     "pinned_constant": f"{GOLDEN_CONSTANT:.12g}"})

    claims = [commutation_symbolic, commutation_numeric, rank, seed_derivative_nonzero, fd]
    if model.name == "ttw" and (model.m, model.n) == (1, 1):
        claims.append(golden)
    for run in claims:
        t0 = time.monotonic()
        result = run()
        report.add(result)
        if console is not None:
            console.write(f"  {result.claim}: {time.monotonic() - t0:.2f}s\n")
    return report
