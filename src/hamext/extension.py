"""Constructive machinery for extensions of Hamiltonian systems.

Covers the profile functions (alpha, beta, gamma) in both columns and all
three exact tags (the tagged functions are ``VarSystem.S/C/T``), the
degree-raising recursion, the plain and frequency-modified first-integral
builders with their closed forms, the compatibility-condition checker, the
linear seed families, and the residual system for polynomial seeds of
general degree.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ._record import record, replace
from .coeffs import CanonicalCoeff, Var, VarSystem
from .params import ParamPoly, Q, as_parampoly, as_q
from .phase import PhaseSpace, PPoly, apply_U, apply_W, apply_XL, confinement

EXACT_TAGS = (1, 0, -1)


class SeedConditionError(ValueError):
    """The pair (L, G) does not satisfy the structural identity."""

    def __init__(self, residual: PPoly):
        self.residual = residual
        super().__init__(
            "seed identity X_L^2(G) + 2(c*L + L0)*G is not zero; residual: "
            + residual.render()
        )


# ---------------------------------------------------------------------------
# profiles


@record(frozen=True)
class ExtensionProfile:
    """Integer pair (m, n) plus the profile functions on the extension variable.

    The derived functions satisfy alpha = -gamma', beta = L0*gamma^2 and
    gamma'' + 2*c*gamma'*gamma = 0; construction verifies all three.
    """

    space: PhaseSpace
    m: int
    n: int
    c: Q
    L0: ParamPoly
    kappa: int
    A: ParamPoly
    omega: ParamPoly
    alpha: CanonicalCoeff
    beta: CanonicalCoeff
    gamma: CanonicalCoeff

    @property
    def column(self) -> str:
        return "c=0" if self.c == 0 else "c!=0"

    def describe(self) -> Dict[str, object]:
        return {
            "m": self.m,
            "n": self.n,
            "c": str(self.c),
            "L0": str(self.L0),
            "kappa": self.kappa,
            "column": self.column,
            "gamma": self.gamma.render(),
            "alpha": self.alpha.render(),
            "beta": self.beta.render(),
        }


def extension_variable(c, kappa, name: str = "u") -> Var:
    """The extension variable kind implied by (c, kappa)."""
    c = as_q(c)
    if c == 0:
        return Var.linear(name)
    if kappa not in EXACT_TAGS:
        raise ValueError("exact mode supports kappa in {1, 0, -1} only")
    if kappa == 0:
        return Var.linear(name)
    return Var.tagged(name, kappa, rate=c)


def make_extension_space(base: Sequence[Var], c, kappa, u_name: str = "u") -> PhaseSpace:
    """Phase space of the base variables plus the extension pair."""
    return PhaseSpace(VarSystem(list(base) + [extension_variable(c, kappa, u_name)]),
                      ext=u_name)


def make_profile(space: PhaseSpace, m: int, n: int, *, c, L0=0, kappa=0,
                 A=1, omega=0) -> ExtensionProfile:
    """Build and certify the profile functions for an (m, n)-extension.

    For c != 0 the constant L0 is forced to zero (a nonzero value can be
    absorbed, so passing one is rejected as a likely mistake).
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive integers")
    c = as_q(c)
    L0 = as_parampoly(L0)
    A = as_parampoly(A)
    omega = as_parampoly(omega)
    if c == 0 and L0.is_zero:
        raise ValueError("c and L0 must not both vanish")
    if c != 0 and not L0.is_zero:
        raise ValueError("for c != 0 take L0 = 0; it can be absorbed into V")
    if space.ext is None:
        raise ValueError("phase space needs a designated extension variable")
    u = space.ext
    want = extension_variable(c, kappa, u)
    if space.system.var(u) != want:
        raise ValueError(
            f"extension variable {u!r} must have kind {want.kind} "
            f"(tag {want.tag}, rate {want.rate}) for c={c}, kappa={kappa}"
        )
    sysv = space.system
    if c == 0:
        if A.is_zero:
            raise ValueError("A must not vanish when c = 0")
        gamma = sysv.lift(-A) * sysv.coord(u)
        alpha = sysv.lift(A)
        beta = sysv.lift(L0 * A * A) * sysv.coord(u) ** 2
    elif kappa == 0:
        cu = sysv.coord(u) * sysv.scalar(c)
        gamma = sysv.one() / cu
        alpha = sysv.scalar(c) / (cu * cu)
        beta = sysv.zero()
    else:
        S, C = sysv.S(u), sysv.C(u)  # S_kappa(c*u), C_kappa(c*u)
        gamma = C / S
        alpha = sysv.scalar(c) / (S * S)
        beta = sysv.zero()

    dgamma = gamma.differentiate(u)
    if not (alpha + dgamma).is_zero:
        raise AssertionError("profile invariant alpha = -gamma' failed")
    if not (beta - sysv.lift(L0) * gamma * gamma).is_zero:
        raise AssertionError("profile invariant beta = L0*gamma^2 failed")
    ode = dgamma.differentiate(u) + sysv.scalar(2 * c) * dgamma * gamma
    if not ode.is_zero:
        raise AssertionError("profile invariant gamma'' + 2c*gamma'*gamma = 0 failed")

    return ExtensionProfile(space, int(m), int(n), c, L0, int(kappa), A, omega,
                            alpha, beta, gamma)


# ---------------------------------------------------------------------------
# seeds and the recursion


def check_seed(L: PPoly, G: PPoly, c, L0) -> Tuple[PPoly, bool]:
    """Residual X_L^2(G) + 2(c*L + L0)*G and its exact zero verdict."""
    c = as_q(c)
    L0 = as_parampoly(L0)
    resid = apply_XL(L, apply_XL(L, G)) + (L.scale(c) + L.space.lift(L0)) * G * 2
    return resid, resid.is_zero


@record(frozen=True)
class SeedSolution:
    """Certified pair (L, G) solving the structural identity."""

    space: PhaseSpace
    L: PPoly
    G: PPoly
    c: Q
    L0: ParamPoly

    @classmethod
    def certify(cls, L: PPoly, G: PPoly, c, L0) -> "SeedSolution":
        resid, ok = check_seed(L, G, c, L0)
        if not ok:
            raise SeedConditionError(resid)
        return cls(L.space, L, G, as_q(c), as_parampoly(L0))


def recursion_Gn(seed: SeedSolution, n: int) -> PPoly:
    """n-th term of the degree-raising recursion; G_1 is the seed itself."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    G = seed.G
    if n == 1:
        return G
    xlg = apply_XL(seed.L, G)
    Gk = G
    for k in range(1, n):
        Gk = xlg * Gk + G * apply_XL(seed.L, Gk).scale(Q(1, k))
    return Gk


# ---------------------------------------------------------------------------
# Hamiltonian and first-integral builders


def build_extended_H(profile: ExtensionProfile, L: PPoly) -> PPoly:
    """p_u^2/2 + (m/n)^2 * (alpha*L + beta)."""
    space = profile.space
    if L.depends_on_pair(space.ext):
        raise ValueError("base Hamiltonian must not involve the extension pair")
    p_u = space.p(space.ext)
    factor = Q(profile.m * profile.m, profile.n * profile.n)
    return (p_u * p_u * Q(1, 2)
            + (space.lift(profile.alpha) * L + space.lift(profile.beta)) * factor)


def build_K(profile: ExtensionProfile, seed: SeedSolution) -> PPoly:
    """First integral of the plain extension: m applications of U on G_n."""
    F = recursion_Gn(seed, profile.n)
    for _ in range(profile.m):
        F = apply_U(profile, seed.L, F)
    return F


def closed_form_PD(profile: ExtensionProfile, L: PPoly, r: int) -> Tuple[PPoly, PPoly]:
    """Coefficients (P, D) with U^r(G_n) = P*G_n + D*X_L(G_n).

    Lam = -2(c*L + L0) is substituted eagerly, so both outputs are ordinary
    momentum polynomials.
    """
    if r > profile.m:
        raise ValueError(f"closed form needs r <= m, got r={r}, m={profile.m}")
    if r < 0:
        raise ValueError("r must be non-negative")
    space = profile.space
    m, n = profile.m, profile.n
    p_u = space.p(space.ext)
    g = space.lift(profile.gamma)
    lam = (L.scale(profile.c) + space.lift(profile.L0)) * (-2)
    P = space.zero()
    for k in range(r // 2 + 1):
        term = (g * Q(m, n)) ** (2 * k) * p_u ** (r - 2 * k) * lam ** k
        P = P + term * math.comb(r, 2 * k)
    D = space.zero()
    for k in range((r - 1) // 2 + 1):
        term = (g * Q(m, n)) ** (2 * k + 1) * p_u ** (r - 2 * k - 1) * lam ** k
        D = D + term * math.comb(r, 2 * k + 1)
    return P, D.scale(Q(1, n))


@record(frozen=True)
class ModifiedK:
    """Result of the modified first-integral construction.

    ``effective_m``/``effective_n`` record the even extension actually
    built: odd m dispatches through the doubled pair (2m, 2n).
    """

    poly: PPoly
    effective_m: int
    effective_n: int
    branch: str  # "even" or "odd-doubled"


def _even_dispatch(profile: ExtensionProfile) -> Tuple[ExtensionProfile, int, str]:
    if profile.m % 2 == 0:
        return profile, profile.n, "even"
    doubled = replace(profile, m=2 * profile.m, n=2 * profile.n)
    return doubled, 2 * profile.n, "odd-doubled"


def build_modified_K(profile: ExtensionProfile, seed: SeedSolution) -> ModifiedK:
    """(U^2 + 2*omega/gamma^2)^s applied to the recursion term.

    Even m = 2s uses (m, n) directly; odd m goes through the identical
    Hamiltonian at (2m, 2n) where the power is m and the recursion depth 2n.
    """
    eff, depth, branch = _even_dispatch(profile)
    s = eff.m // 2
    F = recursion_Gn(seed, depth)
    for _ in range(s):
        F = apply_W(eff, seed.L, F)
    return ModifiedK(F, eff.m, eff.n, branch)


def expand_modified_K(profile: ExtensionProfile, seed: SeedSolution) -> PPoly:
    """Binomial expansion sum_j C(s,j) (2w/g^2)^j U^(2(s-j)) G_n.

    Must agree exactly with build_modified_K; the operator U^2 commutes
    with multiplication by functions of the extension variable alone, which
    a property test asserts rather than assumes.
    """
    eff, depth, _ = _even_dispatch(profile)
    s = eff.m // 2
    space = eff.space
    coupling = space.lift(confinement(eff)) * 2
    Gn = recursion_Gn(seed, depth)
    powers = [Gn]
    for _ in range(2 * s):
        powers.append(apply_U(eff, seed.L, powers[-1]))
    out = space.zero()
    for j in range(s + 1):
        out = out + coupling ** j * powers[2 * (s - j)] * math.comb(s, j)
    return out


# ---------------------------------------------------------------------------
# compatibility conditions


@record(frozen=True)
class CompatibilityReport:
    """Outcome of the five compatibility conditions for W-powers to commute."""

    seed_scaled_ok: bool        # X_L^2(G_n) = -2 n^2 (c L + L0) G_n
    gamma_ode_ok: bool          # gamma'' + 2 c gamma' gamma = 0
    alpha_ok: bool              # alpha = -gamma'
    f_ok: bool                  # f = (m/n)^2 L0 gamma^2 + f0/gamma^2 + h0/2
    h_ok: bool                  # h = -2 (m/n)^2 L0 gamma^2 - h0
    f0: Optional[ParamPoly]
    h0: Optional[ParamPoly]
    combo_ok: bool              # 2f + h = 2 f0 / gamma^2
    f0_is_omega: bool
    xl_g_nonzero: bool          # injectivity premise X_L(G_n) != 0, recorded
    failures: Tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return not self.failures


def check_compatibility_conditions(profile: ExtensionProfile, f, h, seed: SeedSolution, *,
                                   gamma: Optional[CanonicalCoeff] = None,
                                   alpha: Optional[CanonicalCoeff] = None,
                                   G_n: Optional[PPoly] = None) -> CompatibilityReport:
    """Check the compatibility conditions against given f(u), h(u).

    The constants are recovered by matching the gamma^2 and gamma^-2 basis
    coefficients; any leftover residual fails the corresponding condition.
    ``gamma``, ``alpha`` and ``G_n`` replace the profile's functions and the
    recursion term, so a deliberately wrong one can be checked.
    """
    space = profile.space
    sysv = space.system
    u = space.ext
    gamma = profile.gamma if gamma is None else gamma
    alpha = profile.alpha if alpha is None else alpha
    f = sysv.lift(f) if not isinstance(f, CanonicalCoeff) else f
    h = sysv.lift(h) if not isinstance(h, CanonicalCoeff) else h
    failures: List[str] = []

    n = profile.n
    Gn = recursion_Gn(seed, n) if G_n is None else G_n
    _, seed_ok = check_seed(seed.L, Gn, profile.c * (n * n), profile.L0.scale(n * n))
    if not seed_ok:
        failures.append("scaled seed identity")

    dgamma = gamma.differentiate(u)
    ode = dgamma.differentiate(u) + dgamma * gamma * sysv.scalar(2 * profile.c)
    gamma_ok = ode.is_zero
    if not gamma_ok:
        failures.append("gamma ODE")

    alpha_ok = (alpha + dgamma).is_zero
    if not alpha_ok:
        failures.append("alpha = -gamma'")

    ratio = Q(profile.m * profile.m, profile.n * profile.n)
    lead = sysv.lift(profile.L0) * gamma * gamma * ratio

    # h = -2*(m/n)^2 L0 gamma^2 - h0 for a constant h0
    h0 = (-(h + lead * 2)).constant_part()
    h_ok = h0 is not None
    if not h_ok:
        failures.append("h condition")

    f0 = None
    f_ok = False
    if h_ok:
        # f - (m/n)^2 L0 gamma^2 - h0/2 must be f0 / gamma^2
        reduced = f - lead - sysv.lift(h0) * Q(1, 2)
        f0 = (reduced * gamma * gamma).constant_part()
        if f0 is not None:
            gamma_inv2 = sysv.one() / (gamma * gamma)
            f_ok = (reduced - sysv.lift(f0) * gamma_inv2).is_zero
    if not f_ok:
        failures.append("f condition")

    combo_ok = False
    f0_is_omega = False
    if f_ok and h_ok:
        combo = f * 2 + h - sysv.lift(f0 * 2) * gamma_inv2
        combo_ok = combo.is_zero
        f0_is_omega = f0 == as_parampoly(profile.omega)
    if f_ok and h_ok and not combo_ok:
        failures.append("2f + h combination")

    xl_g_nonzero = not apply_XL(seed.L, Gn).is_zero
    return CompatibilityReport(
        seed_scaled_ok=seed_ok, gamma_ode_ok=gamma_ok, alpha_ok=alpha_ok,
        f_ok=f_ok, h_ok=h_ok, f0=f0, h0=h0, combo_ok=combo_ok,
        f0_is_omega=f0_is_omega, xl_g_nonzero=xl_g_nonzero,
        failures=tuple(failures),
    )


def modified_coupling_functions(profile: ExtensionProfile) -> Tuple[CanonicalCoeff, CanonicalCoeff]:
    """The (f, h) pair realized by the modified extension itself.

    f = (m/n)^2 beta + omega/gamma^2 and h = 2*omega/gamma^2 - 2f, so the
    recovered constants are f0 = omega and h0 = 0.
    """
    ratio = Q(profile.m * profile.m, profile.n * profile.n)
    w = confinement(profile)
    f = profile.beta * ratio + w
    h = w * 2 - f * 2
    return f, h


# ---------------------------------------------------------------------------
# linear seeds (degree one in the momentum)


@record(frozen=True)
class LinearSeedFamily:
    """One row of the linear-seed classification: eta, V, and certificates."""

    case: str
    c: Q
    space: PhaseSpace
    eta: CanonicalCoeff
    V: CanonicalCoeff
    L: PPoly
    G: PPoly
    constants: Dict[str, object]
    residual_eta: CanonicalCoeff     # eta'' + c*eta
    residual_V: CanonicalCoeff       # 3 V' eta' + eta V'' - 2 eta (c V + L0)

    @property
    def certified(self) -> bool:
        return self.residual_eta.is_zero and self.residual_V.is_zero


def solve_linear_seed(c, a1, a2, c1, c2, L0, *, var: str = "q") -> LinearSeedFamily:
    """Classify and build (eta, V) for a seed linear in the momentum.

    Three cases: c != 0; c = 0 with a1 != 0; c = 0 with a1 = 0.  Constants
    may be exact numbers or parameter symbols (a1 symbolic is treated as
    nonzero).  Additive constants in V are kept explicit.
    """
    c = as_q(c)
    a1 = as_parampoly(a1)
    a2 = as_parampoly(a2)
    c1 = as_parampoly(c1)
    c2 = as_parampoly(c2)
    L0 = as_parampoly(L0)

    if a1.is_zero and a2.is_zero:
        raise ValueError("inconsistent case: a1 = a2 = 0 gives the trivial seed")

    if c != 0:
        case = "c!=0"
        q = Var.tagged(var, c)
        space = PhaseSpace(VarSystem([q]))
        sysv = space.system
        eta = sysv.lift(a1) * sysv.S(var) + sysv.lift(a2) * sysv.C(var)
        V = (sysv.lift(c1) + sysv.lift(c2) * eta.differentiate(var)) / (eta * eta) \
            - sysv.lift(L0) / sysv.scalar(c)
    elif not a1.is_zero:
        case = "c=0, a1!=0"
        space = PhaseSpace(VarSystem([Var.linear(var)]))
        sysv = space.system
        qc = sysv.coord(var)
        eta = sysv.lift(a1) * qc + sysv.lift(a2)
        # the quadratic coefficient is L0/(4 a1^2): with F' = eta the
        # antiderivative route gives (L0/2) F/eta' = L0 eta^2 / (4 a1^2),
        # and only that power makes the residual vanish for general a1
        V = sysv.lift(L0) / (sysv.lift(a1 * a1) * 4) * eta * eta \
            + sysv.lift(c1) / (eta * eta) + sysv.lift(c2)
    else:
        case = "c=0, a1=0"
        space = PhaseSpace(VarSystem([Var.linear(var)]))
        sysv = space.system
        qc = sysv.coord(var)
        eta = sysv.lift(a2)
        V = sysv.lift(L0) * qc * qc + sysv.lift(c1) * qc + sysv.lift(c2)

    deta = eta.differentiate(var)
    r_eta = deta.differentiate(var) + eta * sysv.scalar(c)
    dV = V.differentiate(var)
    r_V = dV * deta * 3 + eta * dV.differentiate(var) \
        - eta * (V * sysv.scalar(c) + sysv.lift(L0)) * 2

    p = space.p(var)
    L = p * p * Q(1, 2) + space.lift(V)
    G = space.lift(eta) * p
    return LinearSeedFamily(
        case=case, c=c, space=space, eta=eta, V=V, L=L, G=G,
        constants={"a1": a1, "a2": a2, "c1": c1, "c2": c2, "L0": L0},
        residual_eta=r_eta, residual_V=r_V,
    )


def check_e2_system(V: CanonicalCoeff, etas: Sequence[CanonicalCoeff], c, L0,
                    var: str = "q") -> Tuple[List[CanonicalCoeff], bool]:
    """Residuals of the degree-r polynomial-seed system, index by index.

    ``etas[i]`` is the coefficient of p^i; entries outside [0, r] count as
    zero.  Residual i equals the p^i coefficient of the full structural
    residual for G = sum eta_i p^i, which a test cross-checks.
    """
    if not etas:
        raise ValueError("need at least one eta coefficient")
    sysv = etas[0].sys
    c = as_q(c)
    L0 = as_parampoly(L0)
    r = len(etas) - 1
    zero = sysv.zero()

    def eta(i: int) -> CanonicalCoeff:
        return etas[i] if 0 <= i <= r else zero

    dV = V.differentiate(var)
    ddV = dV.differentiate(var)
    residuals: List[CanonicalCoeff] = []
    for i in range(r + 3):
        e_lo = eta(i - 2)
        e_i = eta(i)
        e_hi = eta(i + 2)
        term = e_lo.differentiate(var).differentiate(var) + e_lo * sysv.scalar(c)
        term = term - dV * e_i.differentiate(var) * (2 * i + 1)
        term = term + (V * sysv.scalar(2 * c) + sysv.lift(L0) * 2 - ddV * i) * e_i
        term = term + dV * dV * e_hi * ((i + 1) * (i + 2))
        residuals.append(term)
    return residuals, all(t.is_zero for t in residuals)
