"""Exact coefficient functions of the position variables.

The coefficient domain is deliberately small: fractions N/D where N and D
are polynomials in per-variable generators, with parameter-polynomial
coefficients.  A position variable is either

* linear  -- the generator is the coordinate itself, or
* tagged trigonometric -- a generator pair (S, C) obeying C^2 = 1 - tag*S^2
  with derivatives S' = rate*C and C' = -tag*rate*S.

tag > 0 gives circular pairs (sin, cos for tag = rate = 1), tag < 0
hyperbolic ones.  Reducing every C-power to at most one via the Pythagorean
relation makes the stored form a free-module basis representation, so the
zero test is an exact dictionary emptiness check and never a heuristic.

Fractions are combined over common denominators without polynomial GCDs;
denominators are kept factored as monomial * product of normalized
multi-term factors.  Every result cancels the monomial content and each
factor that exactly divides its numerator, so the stored form does not
depend on the order of sums and products, with two exceptions: Pythagorean
factors (a C^2 of the denominator) are cancelled only by
``CanonicalCoeff.compact``, and no factor is split into powers of a
smaller one, so ``(1/(u + 1))**2`` keeps u + 1 twice where ``1/(u + 1)**2``
keeps u^2 + 2*u + 1 once (the two are not ``==``).

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ._record import record
from .params import (PUNIT, ParamPoly, Q, QONE, QZERO, _add_into, _pmono_text, _product,
                     accumulate, as_parampoly, as_q, from_numerators, join_signed, power,
                     term_text)

Mono = Tuple[int, ...]


class ZeroCoefficientDivision(ZeroDivisionError):
    """Raised on division by an identically-zero coefficient."""


class SingularEvaluation(ArithmeticError):
    """Raised when a denominator is below the evaluation guard threshold.

    Samplers treat this as a rejection signal, not a failure.
    """


@record(frozen=True)
class Var:
    """A position variable together with its generator kind.

    ``tag`` is zero for linear variables.  For tagged variables the
    generators represent S_tag(rate*v) and C_tag(rate*v).
    """

    name: str
    tag: Q = QZERO
    rate: Q = QONE

    def __post_init__(self):
        if not self.name.isidentifier():
            raise ValueError(f"variable name {self.name!r} must be an identifier")
        if self.tag == 0 and self.rate != 1:
            raise ValueError("linear variables take no rate")
        if self.tag != 0 and self.rate == 0:
            raise ValueError(f"tagged variable {self.name!r} needs a nonzero rate")

    @property
    def is_linear(self) -> bool:
        return self.tag == 0

    @property
    def kind(self) -> str:
        if self.tag == 0:
            return "linear"
        return "circular" if self.tag > 0 else "hyperbolic"

    @property
    def slots(self) -> int:
        # layout per variable: linear -> (exp,), tagged -> (C-exp, S-exp)
        return 1 if self.is_linear else 2

    @classmethod
    def linear(cls, name: str) -> "Var":
        return cls(name)

    @classmethod
    def circular(cls, name: str, rate=1) -> "Var":
        return cls(name, QONE, as_q(rate))

    @classmethod
    def hyperbolic(cls, name: str, rate=1) -> "Var":
        return cls(name, -QONE, as_q(rate))

    @classmethod
    def tagged(cls, name: str, tag, rate=1) -> "Var":
        tag = as_q(tag)
        if tag == 0:
            return cls(name)
        return cls(name, tag, as_q(rate))

    def gen_names(self) -> Tuple[str, ...]:
        if self.is_linear:
            return (self.name,)
        arg = self.name if self.rate == 1 else f"{self.rate}*{self.name}"
        if self.tag == 1:
            return (f"cos({arg})", f"sin({arg})")
        if self.tag == -1:
            return (f"cosh({arg})", f"sinh({arg})")
        return (f"C_{self.tag}({arg})", f"S_{self.tag}({arg})")


class VarSystem:
    """Ordered collection of position variables; fixes the monomial layout.
    Compared and hashed by identity: a model's pieces share its one system."""

    __slots__ = ("vars", "_index", "_offset", "_kinds", "_tagged", "width")

    def __init__(self, variables: Sequence[Var]):
        self.vars: Tuple[Var, ...] = tuple(variables)
        names = [v.name for v in self.vars]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        self._index = {v.name: i for i, v in enumerate(self.vars)}
        self._offset = []
        # per variable: (slot, linear, rate, -tag*rate), each rate an int pair
        self._kinds = []
        # per tagged variable: (C slot, -tag)
        self._tagged = []
        off = 0
        for v in self.vars:
            self._offset.append(off)
            linear = v.is_linear
            rate, tag_rate = v.rate, -v.tag * v.rate
            self._kinds.append((off, linear, (rate.numerator, rate.denominator),
                                (tag_rate.numerator, tag_rate.denominator)))
            if not linear:
                self._tagged.append((off, -v.tag))
            off += v.slots
        self.width = off

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def offset(self, name: str) -> int:
        return self._offset[self.index(name)]

    def var(self, name: str) -> Var:
        return self.vars[self.index(name)]

    @property
    def unit_mono(self) -> Mono:
        return (0,) * self.width

    # -- element constructors -------------------------------------------

    def zero(self) -> "CanonicalCoeff":
        return CanonicalCoeff(self, Poly(self, {}), self.unit_mono, ())

    def lift(self, x) -> "CanonicalCoeff":
        """Lift scalars, parameters, or ParamPoly into the ring."""
        if isinstance(x, CanonicalCoeff):
            if x.sys != self:
                raise ValueError("coefficient belongs to a different system")
            return x
        pp = as_parampoly(x)
        if pp.is_zero:
            return self.zero()
        return CanonicalCoeff(self, Poly(self, {self.unit_mono: pp}), self.unit_mono, ())

    def one(self) -> "CanonicalCoeff":
        return self.lift(1)

    def scalar(self, x) -> "CanonicalCoeff":
        return self.lift(as_q(x))

    def param(self, name: str) -> "CanonicalCoeff":
        return self.lift(ParamPoly.var(name))

    def _gen(self, name: str, slot: int) -> "CanonicalCoeff":
        mono = list(self.unit_mono)
        mono[self.offset(name) + slot] = 1
        return CanonicalCoeff(
            self, Poly(self, {tuple(mono): ParamPoly.one()}), self.unit_mono, ()
        )

    def coord(self, name: str) -> "CanonicalCoeff":
        """The coordinate itself; only linear variables live in the ring."""
        if not self.var(name).is_linear:
            raise ValueError(
                f"{name!r} is a tagged variable; only S({name}) and C({name}) "
                "belong to the coefficient ring"
            )
        return self._gen(name, 0)

    def S(self, name: str) -> "CanonicalCoeff":
        v = self.var(name)
        if v.is_linear:
            return self._gen(name, 0)  # S_0 of a linear variable is the variable
        return self._gen(name, 1)

    def C(self, name: str) -> "CanonicalCoeff":
        v = self.var(name)
        if v.is_linear:
            return self.one()  # C_0 is identically 1
        return self._gen(name, 0)

    def T(self, name: str) -> "CanonicalCoeff":
        return self.S(name) / self.C(name)


# ---------------------------------------------------------------------------
# monomial helpers


@lru_cache(maxsize=1 << 15)
def _reduce_raw(sys: VarSystem, raw: Mono) -> Tuple[Tuple[Mono, int, int], ...]:
    """Rewrite C-powers >= 2 via C^2 = 1 - tag*S^2; returns basis terms.

    Each term is ``(mono, n, d)``, the coefficient ``n/d`` in lowest terms
    with ``d > 0``.  The terms are distinct and nonzero, so they need no
    sum: the terms of one rewrite differ in their S-power, and those of
    different parents in the slots of a variable already rewritten.
    """
    pending: List[Tuple[List[int], Q]] = [(list(raw), QONE)]
    for c_off, neg_tag in sys._tagged:
        s_off = c_off + 1
        nxt: List[Tuple[List[int], Q]] = []
        for mono, coef in pending:
            bexp = mono[c_off]
            if bexp <= 1:
                nxt.append((mono, coef))
                continue
            k, rem = divmod(bexp, 2)
            for j in range(k + 1):
                m2 = list(mono)
                m2[c_off] = rem
                m2[s_off] += 2 * j
                nxt.append((m2, coef * math.comb(k, j) * neg_tag ** j))
        pending = nxt
    return tuple((tuple(mono), coef.numerator, coef.denominator) for mono, coef in pending)


def _mono_key(m: Mono):
    return (sum(m), m)


@lru_cache(maxsize=4096)
def _mono_text(sys: VarSystem, m: Mono) -> Tuple[tuple, str]:
    """The sort key and the text of a generator monomial, for rendering."""
    names = [g for v in sys.vars for g in v.gen_names()]
    return _mono_key(m), "*".join(names[s] if e == 1 else f"{names[s]}^{e}"
                                  for s, e in enumerate(m) if e)


def _mono_add(a: Mono, b: Mono) -> Mono:
    return tuple(map(operator.add, a, b))


def _mono_sub(a: Mono, b: Mono) -> Mono:
    return tuple(map(operator.sub, a, b))


def _mono_max(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


class Poly:
    """Polynomial in the position generators with ParamPoly coefficients."""

    __slots__ = ("sys", "terms", "_hash")

    def __init__(self, sys: VarSystem, terms: Mapping[Mono, ParamPoly]):
        self.sys = sys
        self.terms: Dict[Mono, ParamPoly] = dict(terms)
        self._hash = None

    @classmethod
    def one(cls, sys: VarSystem) -> "Poly":
        return cls(sys, {sys.unit_mono: ParamPoly.one()})

    @classmethod
    def from_mono(cls, sys: VarSystem, mono: Mono) -> "Poly":
        return cls(sys, {mono: ParamPoly.one()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other for sign = +-1, in one pass over other's terms."""
        acc = dict(self.terms)
        for m, pp in other.terms.items():
            accumulate(acc, m, pp, sign)
        return Poly(self.sys, acc)

    def add(self, other: "Poly") -> "Poly":
        return self._plus(other, 1)

    def neg(self) -> "Poly":
        return Poly(self.sys, {m: -pp for m, pp in self.terms.items()})

    def sub(self, other: "Poly") -> "Poly":
        return self._plus(other, -1)

    def scale(self, pp: ParamPoly) -> "Poly":
        if pp.is_zero:
            return Poly(self.sys, {})
        # products of nonzero coefficients are nonzero, at distinct monomials
        return Poly(self.sys, {m: c * pp for m, c in self.terms.items()})

    def _scaled(self, n: int, d: int) -> "Poly":
        """self * n/d for coprime ints n != 0 and d > 0."""
        return Poly(self.sys, {m: pp._scaled(n, d) for m, pp in self.terms.items()})

    def mul(self, other: "Poly") -> "Poly":
        # Sums go into [int numerators, den] pairs by the rule of
        # accumulate and ParamPoly._plus at both levels.  A new denominator
        # rescales a pair to the lcm, and a nonzero factor never changes
        # which sums vanish.  A constant coefficient factor scales the other
        # coefficient's numerators in their order, as the general product
        # would; without these inline constant rows the bench's exact job_s
        # rises by about 6%.
        sys = self.sys
        add = operator.add
        rows = [(m2, c2.nums, c2.den, c2.nums.get(PUNIT) if len(c2.nums) == 1 else None)
                for m2, c2 in other.terms.items()]
        acc: Dict[Mono, list] = {}
        for m1, c1 in self.terms.items():
            anums, aden = c1.nums, c1.den
            aconst = anums.get(PUNIT) if len(anums) == 1 else None
            for m2, bnums, bden, bconst in rows:
                if bconst is not None:
                    pnums, pk = anums, bconst
                elif aconst is not None:
                    pnums, pk = bnums, aconst
                else:
                    pnums, pk = _product(anums, bnums), 1
                pden = aden * bden
                for mono, qn, qd in _reduce_raw(sys, tuple(map(add, m1, m2))):
                    k, d = pk * qn, qd * pden
                    cur = acc.get(mono)
                    if cur is None:
                        acc[mono] = [dict(pnums) if k == 1 else
                                     {pm: c * k for pm, c in pnums.items()}, d]
                        continue
                    nums, den = cur
                    if d != den:
                        g = math.gcd(den, d)
                        up = d // g
                        if up != 1:
                            for pm, c in nums.items():
                                nums[pm] = c * up
                            cur[1] = den * up
                        k *= den // g
                    _add_into(nums, pnums, k)
                    if not nums:
                        del acc[mono]
        return Poly(sys, {mono: from_numerators(nums, den) for mono, (nums, den) in acc.items()})

    def mul_mono(self, mono: Mono) -> "Poly":
        # without this unit-monomial return the bench's exact job_s rises
        # by about 8%
        if mono == self.sys.unit_mono:
            return self
        acc: Dict[Mono, ParamPoly] = {}
        for m, c in self.terms.items():
            for m2, qn, qd in _reduce_raw(self.sys, _mono_add(m, mono)):
                accumulate(acc, m2, c._scaled(qn, qd))
        return Poly(self.sys, acc)

    def pow(self, n: int) -> "Poly":
        return power(self, n, Poly.one(self.sys), Poly.mul)

    def derivative(self, name: str) -> "Poly":
        sys = self.sys
        # rate and -tag*rate as int pairs; each factor is reduced before it
        # scales a coefficient
        off, linear, (rn, rd), (tn, td) = sys._kinds[sys.index(name)]
        acc: Dict[Mono, ParamPoly] = {}
        if linear:
            for m, c in self.terms.items():
                e = m[off]
                if e:
                    m2 = list(m)
                    m2[off] = e - 1
                    accumulate(acc, tuple(m2), c.scale(e))
            return Poly(sys, acc)
        for m, c in self.terms.items():
            cexp, sexp = m[off], m[off + 1]
            # d(C^b S^a) = rate * (a C^(b+1) S^(a-1) - tag*b C^(b-1) S^(a+1))
            if sexp:
                raw = list(m)
                raw[off] = cexp + 1
                raw[off + 1] = sexp - 1
                for m2, qn, qd in _reduce_raw(sys, tuple(raw)):
                    n, d = qn * rn * sexp, qd * rd
                    g = math.gcd(n, d)
                    accumulate(acc, m2, c._scaled(n // g, d // g))
            if cexp:
                raw = list(m)
                raw[off] = cexp - 1
                raw[off + 1] = sexp + 1
                n = tn * cexp
                g = math.gcd(n, td)
                accumulate(acc, tuple(raw), c._scaled(n // g, td // g))
        return Poly(sys, acc)

    def content(self) -> Mono:
        """Componentwise minimum exponent vector over all terms."""
        if not self.terms:
            raise ValueError("the zero polynomial has no monomial content")
        return tuple(map(min, zip(*self.terms)))

    def shift_down(self, mono: Mono) -> "Poly":
        if not any(mono):
            return self
        return Poly(self.sys, {_mono_sub(m, mono): c for m, c in self.terms.items()})

    def leading(self) -> Tuple[Mono, ParamPoly]:
        m = max(self.terms, key=_mono_key)
        return m, self.terms[m]

    def sorted_items(self):
        return tuple(sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0]), reverse=True))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.sys == other.sys and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.sys, tuple(sorted(self.terms.items()))))
        return self._hash

    def sort_key(self):
        return tuple((m, pp.sorted_items()) for m, pp in self.sorted_items())

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        # terms by descending _mono_key; the ParamPoly of each from its ints
        for (_, gstr), pp in sorted(((_mono_text(self.sys, m), pp)
                                     for m, pp in self.terms.items()), reverse=True):
            nums = pp.nums
            if len(nums) > 1:
                parts.append(f"({pp})*{gstr}" if gstr else f"({pp})")
            elif PUNIT in nums:
                parts.append(term_text(nums[PUNIT], pp.den, gstr))
            else:
                (pm, c), = nums.items()
                ps = term_text(c, pp.den, _pmono_text(pm)[1])
                parts.append(f"{ps}*{gstr}" if gstr else ps)
        return join_signed(parts)


#: Division steps after which ``poly_divexact`` stops with ArithmeticError.
DIVEXACT_MAX_STEPS = 10000


def poly_divexact(num: Poly, div: Poly) -> Optional[Poly]:
    """Exact division in the reduced-basis ring; None when not divisible.

    Termination relies on the monomial layout ranking C-slots before
    S-slots, which makes the Pythagorean rewrite strictly decreasing.  A
    division still running after ``DIVEXACT_MAX_STEPS`` steps raises
    ArithmeticError: giving up is not the verdict "does not divide".
    """
    if div.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    sys = num.sys
    lm, lc = div.leading()
    rem = Poly(sys, num.terms)
    quot: Dict[Mono, ParamPoly] = {}
    steps = 0
    while not rem.is_zero:
        steps += 1
        if steps > DIVEXACT_MAX_STEPS:
            raise ArithmeticError(
                f"exact division undecided after {DIVEXACT_MAX_STEPS} steps")
        m, c = rem.leading()
        qm = _mono_sub(m, lm)
        if any(e < 0 for e in qm):
            return None
        qc = c.divexact(lc)
        if qc is None:
            return None
        quot[qm] = qc
        rem = rem.sub(div.mul_mono(qm).scale(qc))
    return Poly(sys, quot)


# ---------------------------------------------------------------------------


def _factor_sort_key(item):
    poly, mult = item
    return (poly.sort_key(), mult)


def _is_pythagorean(sys: VarSystem, f: Poly) -> bool:
    """Whether f is the normalized factor S^2 - 1/tag, a denominator C^2."""
    if len(f.terms) != 2:
        return False
    unit = sys.unit_mono
    c0 = f.terms.get(unit)
    if c0 is None:
        return False
    for off, neg_tag in sys._tagged:
        smono = list(unit)
        smono[off + 1] = 2
        c2 = f.terms.get(tuple(smono))
        if c2 is not None:
            return c2.is_one and c0 == ParamPoly.scalar(1 / neg_tag)
    return False


def _divide_out(num: Poly, f: Poly, k: int) -> Tuple[Poly, int]:
    """Divide num by f while it divides, at most k times; (num, k left)."""
    sys = num.sys
    const = f.terms.get(sys.unit_mono) if len(f.terms) == 1 else None
    while k > 0:
        if const is not None:
            divided: Dict[Mono, ParamPoly] = {}
            for m, pp in num.terms.items():
                q = pp.divexact(const)
                if q is None:
                    divided = None
                    break
                divided[m] = q
            quot = Poly(sys, divided) if divided is not None else None
        else:
            quot = poly_divexact(num, f)
        if quot is None:
            break
        num = quot
        k -= 1
    return num, k


def _raised(num: Poly, mono: Mono, factors: Iterable[Tuple[Poly, int]]) -> Poly:
    """``num * mono * f**k * ...`` in the order given, skipping ``k == 0``."""
    num = num.mul_mono(mono)
    for f, k in factors:
        if k:
            num = num.mul(f.pow(k))
    return num


class CanonicalCoeff:
    """Canonically-normalized fraction of generator polynomials.

    The denominator is stored as a monomial together with a multiset of
    normalized multi-term factors.  Zero testing reduces to emptiness of
    the numerator, which is exact in this restricted ring.  Every result
    cancels the denominator factors that divide its numerator, except the
    Pythagorean ones (see ``_normalize``), so a value reached by sums or
    products in a different order is stored, compared and rendered alike.
    A power taken before or after a division is not: no factor is split
    into powers of a smaller one, so ``(1/(u + 1))**2`` and
    ``1/(u + 1)**2`` store u + 1 twice and u^2 + 2*u + 1 once.
    """

    __slots__ = ("sys", "num", "den_mono", "den_factors", "_hash")

    def __init__(self, sys: VarSystem, num: Poly, den_mono: Mono,
                 den_factors: Tuple[Tuple[Poly, int], ...]):
        self.sys = sys
        self.num = num
        self.den_mono = den_mono
        self.den_factors = den_factors
        self._hash = None

    # -- normalization ----------------------------------------------------

    @staticmethod
    def _normalize(sys: VarSystem, num: Poly, den_mono: Mono,
                   factors: Iterable[Tuple[Poly, int]]) -> "CanonicalCoeff":
        if num.is_zero:
            return CanonicalCoeff(sys, Poly(sys, {}), sys.unit_mono, ())

        den = list(den_mono)
        fac_acc: Dict[Poly, int] = {}
        inv_scale = None  # product of (1/lead)**mult over the rescaled factors

        def push_factor(f: Poly, mult: int):
            nonlocal inv_scale, den
            if mult <= 0:
                return
            cont = f.content()
            if any(cont):
                f = f.shift_down(cont)
                for i, e in enumerate(cont):
                    den[i] += e * mult
            _, lead_pp = f.leading()
            _, lead_q = lead_pp.leading()
            if lead_q != 1:
                q = QONE / lead_q
                f = f._scaled(q.numerator, q.denominator)
                inv_scale = q ** mult if inv_scale is None else inv_scale * q ** mult
            if len(f.terms) == 1 and f.terms.get(sys.unit_mono, None) is not None:
                if f.terms[sys.unit_mono].is_one:
                    return  # pure unit after normalization
            fac_acc[f] = fac_acc.get(f, 0) + mult

        for f, mult in factors:
            if f.is_zero:
                raise ZeroCoefficientDivision("denominator factor is identically zero")
            push_factor(f, mult)

        # C-powers above one in the denominator monomial become Pythagorean
        # factors so the stored monomial stays within the reduced basis.
        for off, neg_tag in sys._tagged:
            b = den[off]
            if b >= 2:
                k, rem = divmod(b, 2)
                den[off] = rem
                smono = list(sys.unit_mono)
                smono[off + 1] = 2
                pyth = Poly(sys, {sys.unit_mono: ParamPoly.one(),
                                  tuple(smono): ParamPoly.scalar(neg_tag)})
                push_factor(pyth, k)

        if inv_scale is not None and inv_scale != 1:
            num = num._scaled(inv_scale.numerator, inv_scale.denominator)

        # Cancel the factors that divide the numerator.  A Pythagorean
        # factor (a C^2 of the denominator) stays until compact(): the
        # rendered output of models built over tagged variables keeps it.
        for f, k in list(fac_acc.items()):
            if _is_pythagorean(sys, f):
                continue
            num, k = _divide_out(num, f, k)
            if k:
                fac_acc[f] = k
            else:
                del fac_acc[f]

        # the monomial content shared by the numerator and den_mono, in one
        # pass; it is zero wherever den_mono is
        den_mono = tuple(den)
        if any(den_mono):
            cont = tuple(map(min, den_mono, *num.terms))
            if any(cont):
                num = num.shift_down(cont)
                den_mono = _mono_sub(den_mono, cont)

        fac = tuple(sorted(fac_acc.items(), key=_factor_sort_key))
        return CanonicalCoeff(sys, num, den_mono, fac)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def constant_part(self) -> Optional[ParamPoly]:
        """The ParamPoly value if this coefficient is a constant, else None."""
        c = self.compact() if self.den_factors else self
        if any(c.den_mono) or c.den_factors:
            return None
        if c.num.is_zero:
            return ParamPoly.zero()
        if set(c.num.terms) == {self.sys.unit_mono}:
            return c.num.terms[self.sys.unit_mono]
        return None

    def depends_on(self, name: str) -> bool:
        off = self.sys.offset(name)
        slots = range(off, off + self.sys.var(name).slots)
        if any(any(m[s] for s in slots) for m in self.num.terms):
            return True
        if any(self.den_mono[s] for s in slots):
            return True
        return any(any(m[s] for s in slots) for f, _ in self.den_factors for m in f.terms)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> Optional["CanonicalCoeff"]:
        if isinstance(other, CanonicalCoeff):
            if other.sys != self.sys:
                raise ValueError("coefficients from different variable systems")
            return other
        if isinstance(other, (int, ParamPoly, type(QONE))):
            return self.sys.lift(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def _plus(self, o: "CanonicalCoeff", sign: int) -> "CanonicalCoeff":
        """self + sign*o for sign = +-1, without building -o."""
        if self.is_zero:
            return o if sign == 1 else -o
        if o.is_zero:
            return self
        lcm_mono = _mono_max(self.den_mono, o.den_mono)
        # self's (sorted) factors first, then o's new ones: the order in
        # which numerators are raised must not follow the hash seed
        lcm_fac = dict(self.den_factors)
        for f, k in o.den_factors:
            if k > lcm_fac.get(f, 0):
                lcm_fac[f] = k

        def raise_num(c: "CanonicalCoeff") -> Poly:
            have = dict(c.den_factors)
            return _raised(c.num, _mono_sub(lcm_mono, c.den_mono),
                           [(f, k - have.get(f, 0)) for f, k in lcm_fac.items()])

        num = raise_num(self)._plus(raise_num(o), sign)
        return self._normalize(self.sys, num, lcm_mono, tuple(lcm_fac.items()))

    def __neg__(self):
        return CanonicalCoeff(self.sys, self.num.neg(), self.den_mono, self.den_factors)

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

    def _rational(self) -> Optional[Tuple[int, int]]:
        """``(n, d)`` if this is the nonzero rational constant n/d, else None."""
        terms = self.num.terms
        if len(terms) != 1 or self.den_factors or any(self.den_mono):
            return None
        (mono, pp), = terms.items()
        nums = pp.nums
        if any(mono) or len(nums) != 1 or PUNIT not in nums:
            return None
        return nums[PUNIT], pp.den

    def _scaled(self, n: int, d: int) -> "CanonicalCoeff":
        """self * n/d for coprime ints n != 0 and d > 0.

        A unit changes neither the numerator's content nor which factor
        divides it, so the result is already normalized.
        """
        if n == d:
            return self
        return CanonicalCoeff(self.sys, self.num._scaled(n, d), self.den_mono,
                              self.den_factors)

    def __mul__(self, other):
        # an int skips lifting into the ring; without this branch the bench's
        # exact build makes about 1.5% more calls, and build_s rises as much
        if type(other) is int:
            return self._scaled(other, 1) if other and not self.is_zero else self.sys.zero()
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return self.sys.zero()
        # a rational-constant factor scales the other operand; without this
        # shortcut the bench's exact job_s rises by about 10%
        k = o._rational()
        if k is not None:
            return self._scaled(*k)
        k = self._rational()
        if k is not None:
            return o._scaled(*k)
        fac: Dict[Poly, int] = dict(self.den_factors)
        for f, k in o.den_factors:
            fac[f] = fac.get(f, 0) + k
        return self._normalize(
            self.sys,
            self.num.mul(o.num),
            _mono_add(self.den_mono, o.den_mono),
            tuple(fac.items()),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroCoefficientDivision("division by an identically-zero coefficient")
        num = _raised(self.num, o.den_mono, o.den_factors)
        fac: Dict[Poly, int] = dict(self.den_factors)
        fac[o.num] = fac.get(o.num, 0) + 1
        return self._normalize(self.sys, num, self.den_mono, tuple(fac.items()))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("powers must be integers")
        if n < 0:
            return (self.sys.one() / self) ** (-n)
        return power(self, n, self.sys.one())

    # -- calculus --------------------------------------------------------------

    def differentiate(self, name: str) -> "CanonicalCoeff":
        """Exact partial derivative with respect to a position variable."""
        sys = self.sys
        if self.is_zero:
            return self
        dnum = self.num.derivative(name)
        mono_poly = Poly.from_mono(sys, self.den_mono)
        dmono = mono_poly.derivative(name)
        # After cancelling the common prod_i f_i^(k_i - 1):
        #   (N / (M prod f^k))' =
        #   [N' M prod f - N (M' prod f + M sum_i k_i f_i' prod_{j != i} f_j)]
        #     / (M^2 prod f^(k+1))
        # products with the one-term M are monomial shifts, and the empty
        # prod f is 1; both keep the term order of the full products
        top = dnum.mul_mono(self.den_mono)
        dden = dmono
        if self.den_factors:
            prod1 = self.den_factors[0][0]
            for f, _ in self.den_factors[1:]:
                prod1 = prod1.mul(f)
            top = top.mul(prod1)
            dden = dmono.mul(prod1)
        for i, (f, k) in enumerate(self.den_factors):
            piece = f.derivative(name).scale(ParamPoly.scalar(k))
            for j, (g, _) in enumerate(self.den_factors):
                if j != i:
                    piece = piece.mul(g)
            dden = dden.add(piece.mul_mono(self.den_mono))
        top = top.sub(self.num.mul(dden))
        new_fac = tuple((f, k + 1) for f, k in self.den_factors)
        return self._normalize(sys, top, _mono_add(self.den_mono, self.den_mono), new_fac)

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, point: Mapping[str, object], params: Mapping[str, object],
                 prec: Optional[int] = None, guard: Optional[float] = None):
        """Numeric value at a point; raises SingularEvaluation near poles.

        Pass ``prec`` (significant decimal digits) for high-precision
        evaluation through mpmath; the default is double precision.  Each
        call compiles the coefficient as a polynomial with no momenta
        (``compile_numeric``, which also sets the default guard) and
        evaluates it once.
        """
        from .numeric import compile_numeric  # build never loads the compiler

        fn = compile_numeric(self.sys, [[((), self)]], params, prec, guard, momenta=0)
        return fn(*[point[v.name] for v in self.sys.vars])[0]

    # -- structure ----------------------------------------------------------------

    def substitute(self, mapping: Mapping[str, object]) -> "CanonicalCoeff":
        def sub(p: Poly) -> Poly:
            terms = ((m, pp.substitute(mapping)) for m, pp in p.terms.items())
            return Poly(self.sys, {m: pp for m, pp in terms if not pp.is_zero})

        num = sub(self.num)
        fac = []
        for f, k in self.den_factors:
            g = sub(f)
            if g.is_zero:
                raise ZeroCoefficientDivision("substitution zeroed a denominator factor")
            fac.append((g, k))
        return self._normalize(self.sys, num, self.den_mono, tuple(fac))

    def compact(self) -> "CanonicalCoeff":
        """Cancel denominator factors that exactly divide the numerator.

        Arithmetic already cancels every factor but the Pythagorean ones;
        this also cancels those.
        """
        num = self.num
        remaining: List[Tuple[Poly, int]] = []
        for f, k in self.den_factors:
            num, k = _divide_out(num, f, k)
            if k:
                remaining.append((f, k))
        return self._normalize(self.sys, num, self.den_mono, tuple(remaining))

    def __eq__(self, other):
        if not isinstance(other, CanonicalCoeff):
            return NotImplemented
        return (self.sys == other.sys and self.num == other.num
                and self.den_mono == other.den_mono and self.den_factors == other.den_factors)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.sys, self.num, self.den_mono, self.den_factors))
        return self._hash

    def render(self) -> str:
        if self.is_zero:
            return "0"
        num = self.num.render()
        dparts = [_mono_text(self.sys, self.den_mono)[1]] if any(self.den_mono) else []
        dparts += [f"({f.render()})" + (f"^{k}" if k > 1 else "") for f, k in self.den_factors]
        if not dparts:
            return num
        if len(self.num.terms) > 1:
            num = f"({num})"
        den = "*".join(dparts)
        # a product of parts is wrapped; one part keeps parentheses it has
        if len(dparts) > 1 or (("*" in den or " " in den)
                               and not (den.startswith("(") and den.endswith(")"))):
            den = f"({den})"
        return f"{num}/{den}"

    __str__ = render

    def __repr__(self):
        return f"CanonicalCoeff({self.render()})"
