"""Built-in model instantiations.

Catalog entries:

    ttw      -- the Tremblay-Turbiner-Winternitz system on the Euclidean
                plane with rational angular parameter lambda = m/n, realized
                as the (2m, n)-extension of a one-dimensional base with a
                sine seed.
    cage     -- the two-dimensional anisotropic caged oscillator, realized
                as the (m, n)-extension (c = 0 column) of a radial oscillator
                with inverse-square barrier and linear seed q*p.
    harmonic -- the constant-seed oscillator family, mostly useful as a
                clean target for flow and drift checks.

Every entry declares its base potential V, seed coefficient eta and
constants, and ``extend_model`` builds the rest: it certifies the seed and
forms the modified Hamiltonian and first integral.  Inline models from the
command line go through the same assembler.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Mapping, Optional, Tuple

from ._record import record
from .coeffs import CanonicalCoeff, Var
from .extension import (ExtensionProfile, ModifiedK, SeedSolution,
                        build_extended_H, build_modified_K,
                        make_extension_space, make_profile)
from .params import ParamPoly, Q, as_parampoly
from .phase import PhaseSpace, PPoly, confinement


@record(frozen=True)
class ModelSpec:
    """A fully-built catalog model: base system, profile, and integrals."""

    name: str
    m: int
    n: int
    params: Dict[str, ParamPoly]
    space: PhaseSpace
    profile: ExtensionProfile
    seed: SeedSolution
    L: PPoly
    H: PPoly          # plain extension (omega dropped)
    Hbar: PPoly       # modified extension
    Kbar: ModifiedK
    metadata: Dict[str, object]

    @property
    def lam(self) -> Q:
        return Q(self.m, self.n)

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "m": self.m,
            "n": self.n,
            "lambda": str(self.lam),
            "profile": self.profile.describe(),
            "branch": self.Kbar.branch,
            "effective": [self.Kbar.effective_m, self.Kbar.effective_n],
            "H_degree": self.Hbar.momentum_degree(),
            "K_degree": self.Kbar.poly.momentum_degree(),
            "K_terms": len(self.Kbar.poly.terms),
            "metadata": {k: str(v) for k, v in self.metadata.items()},
        }


def _require_coprime(m: int, n: int):
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if math.gcd(m, n) != 1:
        raise ValueError(f"(m, n) = ({m}, {n}) must be coprime")


def extend_model(name: str, space: PhaseSpace, V: CanonicalCoeff, eta: CanonicalCoeff, *,
                 m: int, n: int, c, L0=0, kappa: int = 0, A=1, omega,
                 params: Dict[str, ParamPoly], metadata: Dict[str, object],
                 profile_mn: Optional[Tuple[int, int]] = None) -> ModelSpec:
    """The modified extension of the base pair L = p^2/2 + V, G = eta*p.

    ``space`` is the base variable plus the extension pair, and V and eta
    are coefficients on it.  The seed is certified, then

        H_bar = p_u^2/2 + (m/n)^2 (alpha*L + beta) + omega/gamma^2
        K_bar = (U^2 + 2*omega/gamma^2)^s G_n

    are built on the profile at ``profile_mn``, which defaults to (m, n);
    the model itself records (m, n).
    """
    p = space.p(space.position_names[0])
    L = p * p * Q(1, 2) + space.lift(V)
    G = space.lift(eta) * p
    seed = SeedSolution.certify(L, G, c, L0)
    pm, pn = profile_mn or (m, n)
    profile = make_profile(space, pm, pn, c=c, L0=L0, kappa=kappa, A=A, omega=omega)
    H = build_extended_H(profile, L)
    return ModelSpec(
        name=name, m=m, n=n, params=params, space=space, profile=profile,
        seed=seed, L=L, H=H, Hbar=H + space.lift(confinement(profile)),
        Kbar=build_modified_K(profile, seed), metadata=metadata,
    )


def ttw_model(m: int, n: int, alpha1=None, alpha2=None, omega=None) -> ModelSpec:
    """TTW system at lambda = m/n; profile (2m, n) with c = 1, kappa = 0.

    The base potential constants are c1 = (alpha1 + alpha2)/(2 lambda^2) and
    c2 = (alpha2 - alpha1)/(2 lambda^2); the confinement enters as
    omega * u^2.  Parameters default to their symbols.
    """
    _require_coprime(m, n)
    alpha1 = as_parampoly(alpha1 if alpha1 is not None else ParamPoly.var("alpha1"))
    alpha2 = as_parampoly(alpha2 if alpha2 is not None else ParamPoly.var("alpha2"))
    omega = as_parampoly(omega if omega is not None else ParamPoly.var("omega"))
    scale = Q(n * n, 2 * m * m)  # 1/(2 lambda^2)
    c1 = (alpha1 + alpha2).scale(scale)
    c2 = (alpha2 - alpha1).scale(scale)

    space = make_extension_space([Var.circular("q")], c=1, kappa=0)
    sysv = space.system
    S, C = sysv.S("q"), sysv.C("q")
    V = (sysv.lift(c1) + sysv.lift(c2) * C) / (S * S)
    return extend_model(
        "ttw", space, V, S, m=m, n=n, c=1, omega=omega, profile_mn=(2 * m, n),
        params={"alpha1": alpha1, "alpha2": alpha2, "omega": omega,
                "c1": c1, "c2": c2},
        metadata={"angle_map": f"q = 2*({m}/{n})*theta, u = r",
                  "c1": c1, "c2": c2},
    )


def cage_model(m: int, n: int, L0=None, b=None, omega=None, A=1) -> ModelSpec:
    """Caged anisotropic oscillator as the (m, n)-extension with c = 0.

    Base L = p^2/2 + (L0/4) q^2 + b/q^2 with seed G = q*p.  The displayed
    Cartesian form uses the rescaling x = (n/m) q, recorded as metadata.
    """
    _require_coprime(m, n)
    L0 = as_parampoly(L0 if L0 is not None else ParamPoly.var("L0"))
    b = as_parampoly(b if b is not None else ParamPoly.var("b"))
    omega = as_parampoly(omega if omega is not None else ParamPoly.var("omega"))
    A = as_parampoly(A)

    space = make_extension_space([Var.linear("q")], c=0, kappa=0)
    sysv = space.system
    qc = sysv.coord("q")
    V = sysv.lift(L0) * qc * qc * Q(1, 4) + sysv.lift(b) / (qc * qc)
    return extend_model(
        "cage", space, V, qc, m=m, n=n, c=0, L0=L0, A=A, omega=omega,
        params={"L0": L0, "b": b, "omega": omega, "A": A},
        metadata={"rescale_map": f"x = ({n}/{m})*q, p_x = ({m}/{n})*p_q"},
    )


def harmonic_model(m: int = 1, n: int = 1, L0=None, c1=0, omega=0, A=1) -> ModelSpec:
    """Oscillator with constant seed G = p; the simplest c = 0 family."""
    _require_coprime(m, n)
    L0 = as_parampoly(L0 if L0 is not None else ParamPoly.var("L0"))
    c1 = as_parampoly(c1)
    omega = as_parampoly(omega)
    A = as_parampoly(A)

    space = make_extension_space([Var.linear("q")], c=0, kappa=0)
    sysv = space.system
    qc = sysv.coord("q")
    V = sysv.lift(L0) * qc * qc + sysv.lift(c1) * qc
    return extend_model(
        "harmonic", space, V, sysv.one(), m=m, n=n, c=0, L0=L0, A=A, omega=omega,
        params={"L0": L0, "c1": c1, "omega": omega, "A": A}, metadata={},
    )


#: Catalog of model builders with their parameter schemas.
CATALOG: Dict[str, Dict[str, object]] = {
    "ttw": {
        "builder": ttw_model,
        "params": {"alpha1": "5/4", "alpha2": "7/4", "omega": "2/3"},
        "doc": "TTW system at lambda = m/n; (2m, n)-extension, c = 1, kappa = 0",
    },
    "cage": {
        "builder": cage_model,
        "params": {"L0": "3/4", "b": "1/2", "omega": "2/3", "A": "1"},
        "doc": "caged anisotropic oscillator; (m, n)-extension, c = 0",
    },
    "harmonic": {
        "builder": harmonic_model,
        "params": {"L0": "1/2", "c1": "0", "omega": "0", "A": "1"},
        "doc": "oscillator with constant seed; c = 0 column",
    },
}


def catalog_params(name: str) -> Dict[str, float]:
    """The catalog entry's default parameter values as floats."""
    return {k: float(Fraction(v)) for k, v in CATALOG[name]["params"].items()}


# ---------------------------------------------------------------------------
# the printed degree-three first integral at lambda = 1


def golden_K21(space: PhaseSpace, alpha1=None, alpha2=None, omega=None) -> PPoly:
    """Literal transcription of the known closed form of the first integral
    of the modified (2, 1)-extension of the TTW base at lambda = 1:

        p_q p_u^2 sin q + (4/u) p_u p_q^2 cos q - (4/u^2) p_q^3 sin q
        + (4/u) p_u [c2 (cos^2 q + 1) + 2 c1 cos q] / sin^2 q
        + (2/u^2) p_q [omega u^4 sin^2 q - 4 (c1 + c2 cos q)] / sin q

    with c1 = (alpha1 + alpha2)/2 and c2 = (alpha2 - alpha1)/2, built on
    ``space``, the ttw(1, 1) space of the model that it is compared with.
    """
    if space.system.vars != (Var.circular("q"), Var.linear("u")) or space.ext != "u":
        raise ValueError("golden_K21 needs the ttw(1, 1) space: circular q, linear ext u")
    alpha1 = as_parampoly(alpha1 if alpha1 is not None else ParamPoly.var("alpha1"))
    alpha2 = as_parampoly(alpha2 if alpha2 is not None else ParamPoly.var("alpha2"))
    omega = as_parampoly(omega if omega is not None else ParamPoly.var("omega"))
    c1 = (alpha1 + alpha2).scale(Q(1, 2))
    c2 = (alpha2 - alpha1).scale(Q(1, 2))

    sysv = space.system
    S, C, u = sysv.S("q"), sysv.C("q"), sysv.coord("u")
    pq, pu = space.p("q"), space.p("u")
    c1c, c2c, wc = sysv.lift(c1), sysv.lift(c2), sysv.lift(omega)
    four_u = sysv.scalar(4) / u
    k = pq * pu * pu * space.lift(S)
    k = k + pu * pq * pq * space.lift(four_u * C)
    k = k - pq * pq * pq * space.lift(sysv.scalar(4) / (u * u) * S)
    k = k + pu * space.lift(four_u * (c2c * (C * C + 1) + c1c * C * 2) / (S * S))
    k = k + pq * space.lift(
        sysv.scalar(2) / (u * u) * (wc * u ** 4 * S * S - (c1c + c2c * C) * 4) / S
    )
    return k


# ---------------------------------------------------------------------------
# coordinate maps


def polar_cartesian_map(point: Mapping[str, float], direction: str) -> Dict[str, float]:
    """Canonical point transformation between polar and Cartesian charts.

    ``direction`` is "polar_to_cartesian" (expects r, theta, p_r, p_theta)
    or "cartesian_to_polar" (expects x, y, p_x, p_y).  The momenta map by
    invariance of the canonical one-form.
    """
    if direction == "polar_to_cartesian":
        r, th = float(point["r"]), float(point["theta"])
        pr, pth = float(point["p_r"]), float(point["p_theta"])
        if r <= 0:
            raise ValueError("polar chart needs r > 0")
        c, s = math.cos(th), math.sin(th)
        return {
            "x": r * c, "y": r * s,
            "p_x": pr * c - pth * s / r,
            "p_y": pr * s + pth * c / r,
        }
    if direction == "cartesian_to_polar":
        x, y = float(point["x"]), float(point["y"])
        px, py = float(point["p_x"]), float(point["p_y"])
        r = math.hypot(x, y)
        if r == 0:
            raise ValueError("polar chart is singular at the origin")
        th = math.atan2(y, x)
        return {
            "r": r, "theta": th,
            "p_r": (x * px + y * py) / r,
            "p_theta": x * py - y * px,
        }
    raise ValueError(f"unknown direction {direction!r}")


def coincidence_pair(alpha1, alpha2, omega) -> Tuple[ModelSpec, ModelSpec, Callable]:
    """The two realizations of the rational-parameter-1 system.

    The TTW model at lambda = 1 in its polar chart and the cage model at
    (m, n) = (2, 1) in its Cartesian chart describe the same Hamiltonian
    once the parameters are matched as L0 = omega/4, b = alpha1,
    omega_cage = alpha2.  The returned callable maps a TTW phase point
    (q, u, p_q, p_u) to the matching cage point.
    """
    alpha1 = as_parampoly(alpha1)
    alpha2 = as_parampoly(alpha2)
    omega = as_parampoly(omega)
    ttw = ttw_model(1, 1, alpha1, alpha2, omega)
    cage = cage_model(2, 1, L0=omega.scale(Q(1, 4)), b=alpha1, omega=alpha2)

    def to_cage(point: Mapping[str, float]) -> Dict[str, float]:
        # model chart -> physical polar chart: theta = q/2, r = u
        polar = {
            "r": float(point["u"]), "theta": float(point["q"]) / 2.0,
            "p_r": float(point["p_u"]), "p_theta": 2.0 * float(point["p_q"]),
        }
        cart = polar_cartesian_map(polar, "polar_to_cartesian")
        # cage chart: u = y and q = (m/n) x = 2x with p_q = p_x / 2
        return {
            "q": 2.0 * cart["x"], "u": cart["y"],
            "p_q": cart["p_x"] / 2.0, "p_u": cart["p_y"],
        }

    return ttw, cage, to_cage
