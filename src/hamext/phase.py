"""Momentum polynomials, canonical Poisson brackets, and the lift operators.

A PPoly is a polynomial in the momenta with CanonicalCoeff coefficients.
The bracket convention is fixed once and enforced by tests:

    {F, G} = sum_i dF/dq_i * dG/dp_i - dF/dp_i * dG/dq_i
    X_L(F) = {F, L}

With this choice X_L(eta*p) = eta'*p^2 - eta*V' for L = p^2/2 + V(q),
which pins every sign downstream.

All values are immutable and safe for concurrent use.
"""

from __future__ import annotations

from operator import add
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ._record import record
from .coeffs import CanonicalCoeff, VarSystem, ZeroCoefficientDivision
from .params import ParamPoly, Q, QONE, accumulate, as_parampoly, join_signed, power

PExp = Tuple[int, ...]


class PhaseSpaceMismatch(ValueError):
    """Operands live on different phase spaces."""


@record(frozen=True)
class PhaseSpace:
    """Positions with generator kinds, matching momenta, optional extension pair."""

    system: VarSystem
    ext: Optional[str] = None

    def __post_init__(self):
        if self.ext is not None and self.ext not in self.system:
            raise ValueError(f"extension variable {self.ext!r} not in system")
        if len(set(self.coordinate_names)) != 2 * self.dim:
            raise ValueError(f"coordinate names repeat: {self.coordinate_names}")

    @property
    def dim(self) -> int:
        return len(self.system.vars)

    @property
    def position_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.system.vars)

    @property
    def momentum_names(self) -> Tuple[str, ...]:
        return tuple(f"p_{v.name}" for v in self.system.vars)

    @property
    def coordinate_names(self) -> Tuple[str, ...]:
        return self.position_names + self.momentum_names

    def momentum_index(self, position: str) -> int:
        return self.system.index(position)

    def zero(self) -> "PPoly":
        return PPoly(self, {})

    def lift(self, coeff) -> "PPoly":
        c = coeff if isinstance(coeff, CanonicalCoeff) else self.system.lift(coeff)
        if c.sys != self.system:
            raise PhaseSpaceMismatch("coefficient system does not match phase space")
        if c.is_zero:
            return self.zero()
        return PPoly(self, {(0,) * self.dim: c})

    def one(self) -> "PPoly":
        return self.lift(1)

    def p(self, position: str, exp: int = 1) -> "PPoly":
        i = self.momentum_index(position)
        pexp = [0] * self.dim
        pexp[i] = exp
        return PPoly(self, {tuple(pexp): self.system.one()})

    def compile(self, functions: Sequence["PPoly"], params: Mapping[str, object],
                prec: Optional[int] = None, guard=None) -> Callable:
        """Compile ``functions`` once into one function of the coordinates,
        positions then momenta, that returns the list of their values; see
        ``compile_numeric``, which computes in floats or at ``prec`` digits
        and sets the default guard."""
        from .numeric import compile_numeric  # build never loads the compiler

        if any(F.space != self for F in functions):
            raise PhaseSpaceMismatch("compiled functions live on another phase space")
        return compile_numeric(self.system, [tuple(F.terms.items()) for F in functions],
                               params, prec, guard, momenta=self.dim)


@record(frozen=True)
class PhasePoint:
    """Numeric values for every position and momentum coordinate."""

    space: PhaseSpace
    values: Tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != 2 * self.space.dim:
            raise ValueError("phase point dimension does not match space")

    @classmethod
    def make(cls, space: PhaseSpace, coords: Mapping[str, float]) -> "PhasePoint":
        names = space.coordinate_names
        missing = [n for n in names if n not in coords]
        if missing:
            raise ValueError(f"missing coordinates: {missing}")
        extra = set(coords) - set(names)
        if extra:
            raise ValueError(f"unknown coordinates: {sorted(extra)}")
        return cls(space, tuple(float(coords[n]) for n in names))

    def to_dict(self) -> Dict[str, float]:
        return dict(zip(self.space.coordinate_names, self.values))

    def value(self, name: str) -> float:
        return self.to_dict()[name]


def _pexp_key(pe: PExp):
    return (sum(pe), pe)


class PPoly:
    """Polynomial in the momenta over CanonicalCoeff coefficients."""

    __slots__ = ("space", "terms", "_hash")

    def __init__(self, space: PhaseSpace, terms: Mapping[PExp, CanonicalCoeff]):
        self.space = space
        self.terms: Dict[PExp, CanonicalCoeff] = dict(terms)
        self._hash = None

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def momentum_degree(self) -> int:
        """Total momentum degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(pe) for pe in self.terms)

    def coefficient(self, pexp: PExp) -> CanonicalCoeff:
        return self.terms.get(tuple(pexp), self.space.system.zero())

    def depends_on_pair(self, position: str) -> bool:
        """True if the polynomial involves the position or its momentum."""
        i = self.space.momentum_index(position)
        if any(pe[i] for pe in self.terms):
            return True
        return any(c.depends_on(position) for c in self.terms.values())

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> Optional["PPoly"]:
        if isinstance(other, PPoly):
            if other.space != self.space:
                raise PhaseSpaceMismatch("operands on different phase spaces")
            return other
        if isinstance(other, (int, ParamPoly, CanonicalCoeff, type(QONE))):
            return self.space.lift(other)
        return None

    def _plus(self, o: "PPoly", sign: int) -> "PPoly":
        """self + sign*o for sign = +-1, in one pass over o's terms."""
        acc = dict(self.terms)
        for pe, c in o.terms.items():
            accumulate(acc, pe, c, sign)
        return PPoly(self.space, acc)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return PPoly(self.space, {pe: -c for pe, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(self, -1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.terms, o.terms
        acc: Dict[PExp, CanonicalCoeff] = {}
        for pe1, c1 in a.items():
            for pe2, c2 in b.items():
                pe = tuple(map(add, pe1, pe2))
                accumulate(acc, pe, c1 * c2)
        return PPoly(self.space, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("PPoly powers must be non-negative integers")
        return power(self, n, self.space.one())

    def scale(self, x) -> "PPoly":
        return self * self.space.lift(x)

    # -- calculus -------------------------------------------------------------

    def d_position(self, name: str) -> "PPoly":
        acc: Dict[PExp, CanonicalCoeff] = {}
        for pe, c in self.terms.items():
            d = c.differentiate(name)
            if not d.is_zero:
                acc[pe] = d
        return PPoly(self.space, acc)

    def d_momentum(self, position: str) -> "PPoly":
        i = self.space.momentum_index(position)
        acc: Dict[PExp, CanonicalCoeff] = {}
        for pe, c in self.terms.items():
            e = pe[i]
            if e == 0:
                continue
            pe2 = list(pe)
            pe2[i] = e - 1
            accumulate(acc, tuple(pe2), c * e)
        return PPoly(self.space, acc)

    def poisson(self, other: "PPoly") -> "PPoly":
        o = self._coerce(other)
        if o is None:
            raise TypeError("poisson bracket needs a PPoly")
        out = self.space.zero()
        for i, v in enumerate(self.space.system.vars):
            name = v.name
            # a derivative is taken only when its product can be nonzero:
            # d/dp_i vanishes exactly when no term has a p_i exponent, and
            # d/dq_i vanishes when no coefficient depends on q_i; without
            # these guards the bench's exact job_s rises by about 12%
            if any(pe[i] for pe in o.terms):
                dq_self = self.d_position(name)
                if not dq_self.is_zero:
                    out = out + dq_self * o.d_momentum(name)
            if any(pe[i] for pe in self.terms) and any(
                    c.depends_on(name) for c in o.terms.values()):
                dq_other = o.d_position(name)
                if not dq_other.is_zero:
                    out = out - self.d_momentum(name) * dq_other
        return out

    # -- evaluation -------------------------------------------------------------

    def compile(self, params: Mapping[str, object], prec: Optional[int] = None,
                guard=None) -> Callable:
        """Compile once to a function of the coordinates, positions then momenta.

        The one-function case of ``PhaseSpace.compile``.
        """
        fn = self.space.compile([self], params, prec, guard)

        def call(*coords):
            return fn(*coords)[0]

        call.source = fn.source  # type: ignore[attr-defined]
        return call

    def evaluate(self, point, params: Mapping[str, object], prec: Optional[int] = None,
                 guard=None):
        """Value at a phase point; high precision when ``prec`` digits given.

        Compiles the polynomial for this one call; to evaluate at many
        points, ``compile`` once instead.
        """
        coords = point.to_dict() if isinstance(point, PhasePoint) else point
        return self.compile(params, prec, guard)(*[coords[n] for n in self.space.coordinate_names])

    # -- structure ------------------------------------------------------------------

    def substitute(self, mapping: Mapping[str, object]) -> "PPoly":
        acc: Dict[PExp, CanonicalCoeff] = {}
        for pe, c in self.terms.items():
            s = c.substitute(mapping)
            if not s.is_zero:
                acc[pe] = s
        return PPoly(self.space, acc)

    def sorted_items(self):
        return tuple(sorted(self.terms.items(), key=lambda kv: _pexp_key(kv[0]), reverse=True))

    def __eq__(self, other):
        return (isinstance(other, PPoly) and self.space == other.space
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.space, tuple(sorted((pe, c) for pe, c in self.terms.items()))))
        return self._hash

    def render(self) -> str:
        if not self.terms:
            return "0"
        names = self.space.momentum_names
        parts = []
        for pe, c in self.sorted_items():
            mom = "*".join(
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(pe) if e
            )
            cs = c.render()
            if not mom:
                parts.append(cs)
            elif cs == "1":
                parts.append(mom)
            elif cs == "-1":
                parts.append(f"-{mom}")
            else:
                # a sum is wrapped, also one whose first term opens with "("
                if (" " in cs and not cs.startswith("(")) or (
                        len(c.num.terms) > 1 and not c.den_factors and not any(c.den_mono)):
                    cs = f"({cs})"
                parts.append(f"{cs}*{mom}")
        return join_signed(parts)

    __str__ = render

    def __repr__(self):
        return f"PPoly({self.render()})"


def param_monomials(*polys: PPoly) -> set:
    """The parameter monomials of every numerator and denominator factor of ``polys``."""
    return {pmono for F in polys for c in F.terms.values()
            for poly in (c.num, *(f for f, _ in c.den_factors))
            for pp in poly.terms.values() for pmono in pp.nums}


# ---------------------------------------------------------------------------
# operators


def poisson_bracket(f: PPoly, g: PPoly) -> PPoly:
    """Canonical bracket {f, g}."""
    return f.poisson(g)


def apply_XL(L: PPoly, f: PPoly) -> PPoly:
    """Hamiltonian derivative of f along L, X_L(f) = {f, L}."""
    return f.poisson(L)


def _check_base_hamiltonian(space: PhaseSpace, L: PPoly):
    if space.ext is None:
        raise ValueError("phase space has no designated extension pair")
    if L.depends_on_pair(space.ext):
        raise ValueError("base Hamiltonian must not involve the extension pair")


def apply_U(profile, L: PPoly, f: PPoly) -> PPoly:
    """One application of the lift operator p_u + (m/n^2) * gamma * X_L.

    ``profile`` only needs attributes m, n, gamma, space; the extension
    module's ExtensionProfile satisfies this.
    """
    space: PhaseSpace = profile.space
    _check_base_hamiltonian(space, L)
    p_u = space.p(space.ext)
    coef = space.lift(profile.gamma) * Q(profile.m, profile.n * profile.n)
    return p_u * f + coef * apply_XL(L, f)


def confinement(profile) -> CanonicalCoeff:
    """The confinement coefficient omega/gamma^2, or zero when omega = 0.

    ``profile`` only needs attributes omega, gamma and space.
    """
    sysv: VarSystem = profile.space.system
    omega = as_parampoly(profile.omega)
    if omega.is_zero:
        return sysv.zero()
    return (sysv.one() / profile.gamma) ** 2 * omega


def apply_W(profile, L: PPoly, f: PPoly) -> PPoly:
    """U^2 plus the frequency coupling 2*omega/gamma^2."""
    if profile.gamma.is_zero:
        raise ZeroCoefficientDivision("gamma is identically zero; gamma^-2 undefined")
    u2 = apply_U(profile, L, apply_U(profile, L, f))
    w = confinement(profile)
    if w.is_zero:
        return u2
    return u2 + profile.space.lift(w) * f * 2
