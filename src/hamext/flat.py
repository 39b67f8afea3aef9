"""Exact zero test of a Poisson bracket on flat packed-exponent polynomials.

``bracket_is_zero(H, K)`` decides ``{H, K} = 0`` without forming the
bracket in the nested ring.  Each ``PPoly`` becomes one dict from a packed
int key to an exact value.  A key holds one biased ``FIELD_BITS``-bit field
per occurring parameter, generator slot and momentum, so a product of
monomials is a sum of keys and a derivative is a field shift.  S and
linear exponents may be negative (Laurent); a C exponent stays 0 or 1, by
``C^2 -> 1 - tag*S^2`` after every product.

The monomials ``S^a C^b u^c`` with ``b`` in {0, 1} and ``a``, ``c`` in Z
(times momenta and parameters) are a basis of an integral domain: the ring
of the conic ``C^2 + tag*S^2 = 1``, which is irreducible for ``tag != 0``,
with S and the linear variables inverted.  A value is zero exactly when
its dict is empty.

Denominator parts outside that domain (C powers and multi-term factors)
are cleared.  For each of H and K, ``F = F^/D_F`` up to a nonzero rational
factor, which cannot change whether a bracket vanishes, and then

    D_H^2 D_K^2 {H, K} = N = sum_i g_qi(H) g_pi(K) - g_pi(H) g_qi(K),
    g_qi(F) = D_F dF^/dq_i - F^ dD_F/dq_i,   g_pi(F) = D_F dF^/dp_i,

which expands to ``D_H D_K {H^, K^} - D_K H^ sum_i dD_H/dq_i dK^/dp_i +
D_H K^ sum_i dD_K/dq_i dH^/dp_i``.  ``N = 0`` exactly when ``{H, K} = 0``.
Only the verdict leaves this module, so no term order can show.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Dict, List, Optional, Tuple

from .phase import PhaseSpaceMismatch, PPoly, param_monomials

#: Bits per packed exponent field.  A field stores ``exponent + 2**(FIELD_BITS - 1)``.
FIELD_BITS = 16
_HALF = 1 << (FIELD_BITS - 1)
_MASK = (1 << FIELD_BITS) - 1


def _fit(reach: int) -> int:
    """``reach`` if an exponent that large fits a field, else ArithmeticError."""
    if reach >= _HALF:
        raise ArithmeticError(
            f"an exponent of {reach} would carry out of a {FIELD_BITS}-bit field")
    return reach


class _Flat:
    """``{packed key: value}``; ``reach`` bounds |exponent| in every field."""

    __slots__ = ("terms", "reach")

    def __init__(self, terms: Dict[int, object], reach: int):
        self.terms = terms
        self.reach = _fit(reach)


def bracket_is_zero(H: PPoly, K: PPoly) -> bool:
    """Whether the canonical bracket ``{H, K}`` is identically zero.

    The verdict equals ``H.poisson(K).is_zero``.  Raises PhaseSpaceMismatch
    for operands on different phase spaces, and ArithmeticError where an
    exponent would not fit its packed field.
    """
    if not isinstance(H, PPoly) or not isinstance(K, PPoly):
        raise TypeError("bracket_is_zero needs two PPoly operands")
    if H.space != K.space:
        raise PhaseSpaceMismatch("operands on different phase spaces")
    kernel = _Kernel(H, K)
    h, k = kernel.clear(H), kernel.clear(K)
    acc = _Flat({}, 0)
    # each partial is made just before its one product, so that at most one
    # partial of the larger operand is held at a time
    for i in range(H.space.dim):
        kernel.mul_into(acc, kernel.g_q(h, i), kernel.g_p(k, i), 1)
        kernel.mul_into(acc, kernel.g_p(h, i), kernel.g_q(k, i), -1)
    return not any(acc.terms.values())


def _exact(q: Fraction):
    return q.numerator if q.denominator == 1 else q


class _Kernel:
    """The field layout of one bracket, and the flat operations on it."""

    def __init__(self, H: PPoly, K: PPoly):
        space = H.space
        sysv = space.system
        pmonos = param_monomials(H, K)
        occurring = sorted({i for pm in pmonos for i, _ in pm})
        # fields from the low end: parameters, generator slots, momenta
        shift = {p: FIELD_BITS * j for j, p in enumerate(occurring)}
        first_gen = len(occurring)
        first_mom = first_gen + sysv.width
        self.gen_shift = [FIELD_BITS * (first_gen + s) for s in range(sysv.width)]
        self.mom_shift = [FIELD_BITS * (first_mom + i) for i in range(space.dim)]
        self.bias = sum(_HALF << (FIELD_BITS * f) for f in range(first_mom + space.dim))
        self.pkey = {pm: sum(e << shift[i] for i, e in pm) for pm in pmonos}
        self.preach = max((e for pm in pmonos for _, e in pm), default=0)
        # per variable: (field shift,) if linear, (C shift, S shift, rate, tag) if tagged
        self.vars = []
        # per tagged variable: (C slot, C shift, S shift, tag)
        self.tagged = []
        for v, off in zip(sysv.vars, sysv._offset):
            if v.is_linear:
                self.vars.append((self.gen_shift[off],))
            else:
                cs, ss = self.gen_shift[off], self.gen_shift[off + 1]
                self.vars.append((cs, ss, _exact(v.rate), _exact(v.tag)))
                self.tagged.append((off, cs, ss, _exact(v.tag)))
        self.cpos = [pos for pos, _, _, _ in self.tagged]
        self.cmask = sum(1 << cs for _, cs, _, _ in self.tagged)

    # -- flattening ---------------------------------------------------------

    def _gen_key(self, mono: tuple) -> int:
        return sum(e << s for e, s in zip(mono, self.gen_shift))

    def _flatten_into(self, terms: Dict[int, int], poly, base: int, lift: int):
        """Store ``lift * poly`` times the monomial packed in ``base``;
        ``lift`` is a multiple of every denominator of ``poly``."""
        for m, pp in poly.terms.items():
            self._check_reduced(m)
            g = base + self._gen_key(m)
            s = lift // pp.den
            for pm, n in pp.nums.items():
                terms[g + self.pkey[pm]] = n * s

    def _flat_poly(self, poly) -> Tuple[_Flat, int]:
        """A generator ``Poly`` times the lcm ``l`` of its denominators, and ``l``."""
        ell = lcm(*(pp.den for pp in poly.terms.values()))
        terms: Dict[int, int] = {}
        self._flatten_into(terms, poly, self.bias, ell)
        reach = max(self.preach, max(max(m, default=0) for m in poly.terms))
        return _Flat(terms, reach), ell

    def _check_reduced(self, mono: tuple):
        if any(mono[pos] > 1 for pos in self.cpos):
            raise ValueError("a numerator monomial is outside the reduced basis (C^2)")

    def clear(self, F: PPoly) -> Tuple[_Flat, Optional[_Flat]]:
        """``(F^, D)`` with ``F^ = D*F`` up to a nonzero rational factor.

        ``D`` is the C powers and multi-term factors of F's denominators,
        each factor scaled to integer coefficients; None when it is 1.  The
        S and linear parts of a denominator monomial become negative
        exponents, and the integer denominators one common multiple.
        """
        cpos = self.cpos
        cmax = [0] * len(cpos)
        fmax: Dict[object, int] = {}
        dens = []
        for c in F.terms.values():
            for j, pos in enumerate(cpos):
                cmax[j] = max(cmax[j], c.den_mono[pos])
            for f, k in c.den_factors:
                fmax[f] = max(fmax.get(f, 0), k)
            dens.extend(pp.den for pp in c.num.terms.values())
        scale = lcm(*dens)
        factors = {f: self._flat_poly(f) for f in fmax}
        cgen = [_Flat({self.bias + (1 << cs): 1}, 1) for _, cs, _, _ in self.tagged]

        def cofactor(cexp, fexp) -> Optional[_Flat]:
            # C^(cmax - cexp) * prod f^(fmax - k), or None for 1
            parts = [g for g, top, e in zip(cgen, cmax, cexp) for _ in range(top - e)]
            parts += [factors[f][0] for f, top in fmax.items()
                      for _ in range(top - fexp.get(f, 0))]
            return reduce(self.mul, parts) if parts else None

        D = cofactor([0] * len(cpos), {})
        out = _Flat({}, 0)
        terms = out.terms
        reach = self.preach
        for pe, c in F.terms.items():
            den = c.den_mono
            lau = list(den)
            for pos in cpos:
                lau[pos] = 0
            base = (self.bias + sum(e << s for e, s in zip(pe, self.mom_shift))
                    - self._gen_key(tuple(lau)))
            # each factor f of the denominator is l_f * f-tilde
            lift = scale
            for f, k in c.den_factors:
                lift *= factors[f][1] ** k
            reach = max(reach, max(pe), max(den),
                        max(max(m, default=0) for m in c.num.terms))
            cof = cofactor([den[pos] for pos in cpos], dict(c.den_factors))
            target = terms if cof is None else {}
            self._flatten_into(target, c.num, base, lift)
            if cof is not None:
                self.mul_into(out, _Flat(target, reach), cof, 1)
        out.reach = _fit(max(out.reach, reach))
        return out, D

    # -- calculus -----------------------------------------------------------

    def g_q(self, cleared: Tuple[_Flat, Optional[_Flat]], i: int) -> _Flat:
        """``D^2 dF/dq_i = D dF^/dq_i - F^ dD/dq_i`` for ``(F^, D) = clear(F)``."""
        Fh, D = cleared
        dq = self.d_position(Fh, i)
        if D is None:
            return dq
        out = self.mul(D, dq)
        self.mul_into(out, Fh, self.d_position(D, i), -1)
        return out

    def g_p(self, cleared: Tuple[_Flat, Optional[_Flat]], i: int) -> _Flat:
        """``D^2 dF/dp_i = D dF^/dp_i`` for ``(F^, D) = clear(F)``."""
        Fh, D = cleared
        dp = self.d_momentum(Fh, i)
        return dp if D is None else self.mul(D, dp)

    def d_momentum(self, F: _Flat, i: int) -> _Flat:
        return self._d_shift(F, self.mom_shift[i])

    def _d_shift(self, F: _Flat, s: int) -> _Flat:
        # e * x^(e-1): distinct keys stay distinct, and e != 0 keeps a value
        unit = 1 << s
        terms = {}
        for k, v in F.terms.items():
            e = ((k >> s) & _MASK) - _HALF
            if e:
                terms[k - unit] = e * v
        return _Flat(terms, F.reach + 1)

    def d_position(self, F: _Flat, i: int) -> _Flat:
        var = self.vars[i]
        if len(var) == 1:
            return self._d_shift(F, var[0])
        cs, ss, rate, tag = var
        cu, su = 1 << cs, 1 << ss
        terms: Dict[int, object] = {}
        get = terms.get
        for k, v in F.terms.items():
            a = ((k >> ss) & _MASK) - _HALF
            if (k >> cs) & 1:
                # (S^a C)' = rate*(a S^(a-1) C^2 - tag S^(a+1))
                #          = rate*a S^(a-1) - rate*tag*(a+1) S^(a+1)
                k0 = k - cu
                if a:
                    kk = k0 - su
                    terms[kk] = get(kk, 0) + rate * a * v
                if a != -1:
                    kk = k0 + su
                    terms[kk] = get(kk, 0) - rate * tag * (a + 1) * v
            elif a:
                # (S^a)' = rate*a S^(a-1) C
                kk = k - su + cu
                terms[kk] = get(kk, 0) + rate * a * v
        return _Flat({k: v for k, v in terms.items() if v}, F.reach + 1)

    # -- products -----------------------------------------------------------

    def _rewrites(self, both: int) -> List[Tuple[int, object]]:
        """Key offsets and factors that take C^2 to 1 - tag*S^2 for every
        tagged variable whose C bit is set in ``both``."""
        out = [(0, 1)]
        for _, cs, ss, tag in self.tagged:
            if both >> cs & 1:
                c2, s2 = 2 << cs, 2 << ss
                out = [(off + d, k * f) for off, k in out
                       for d, f in ((-c2, 1), (s2 - c2, -tag))]
        return out

    def mul(self, a: _Flat, b: _Flat) -> _Flat:
        out = _Flat({}, 0)
        self.mul_into(out, a, b, 1)
        return out

    def mul_into(self, acc: _Flat, a: _Flat, b: _Flat, sign: int):
        """``acc += sign * a * b``, reduced."""
        if not a.terms or not b.terms:
            return
        # a pair's exponents add, and a C^2 rewrite raises S by 2
        reach = _fit(a.reach + b.reach + 2)
        acc.reach = max(acc.reach, reach)
        if len(a.terms) > len(b.terms):
            a, b = b, a
        cm = self.cmask
        if cm:
            # b's terms by their C bits, so each class pair takes one rewrite
            classes: Dict[int, list] = {}
            for k, v in b.terms.items():
                c = k & cm
                part = classes.get(c)
                if part is None:
                    classes[c] = part = []
                part.append((k, v))
            groups = list(classes.items())
        else:
            groups = [(0, b.terms.items())]
        terms = acc.terms
        get = terms.get
        bias = self.bias
        for ka, va in a.terms.items():
            ca = ka & cm
            ka -= bias
            if sign != 1:
                va = -va
            for cb, items in groups:
                for off, f in self._rewrites(ca & cb):
                    k0 = ka + off
                    v0 = va * f
                    for kb, vb in items:
                        k = k0 + kb
                        terms[k] = get(k, 0) + v0 * vb


__all__ = ["FIELD_BITS", "bracket_is_zero"]
