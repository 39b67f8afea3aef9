"""The numeric compiler: momentum polynomials with exact coefficients as
one function in floats or mpf.  Only the commands that evaluate (verify,
simulate) load it."""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from .coeffs import CanonicalCoeff, Poly, SingularEvaluation, VarSystem
from .params import PARAMS


def to_mpf(x):
    """``x`` as an mpf; a rational becomes numerator / denominator."""
    import mpmath  # the 50-digit path only: build and simulate never load it

    if hasattr(x, "numerator") and not isinstance(x, (int, mpmath.mpf)):
        return mpmath.mpf(int(x.numerator)) / mpmath.mpf(int(x.denominator))
    return mpmath.mpf(x)


def compile_numeric(sys: VarSystem, polys, params: Mapping[str, object],
                    prec: Optional[int], guard, momenta: int) -> Callable:
    """Compile momentum polynomials once into one Python function.

    Each of ``polys`` is a sequence of (momentum exponents, coefficient)
    pairs, whose value is the sum of ``coeff * p**e``; a coefficient alone
    is the polynomial ``[((), coeff)]`` with no momenta.  The function of the
    positions of ``sys`` followed by ``momenta`` momenta returns the list
    of their values, or raises if one of them does.  With ``prec=None`` it
    computes in floats; with ``prec`` digits it computes in mpf at that
    precision, and so do the constants here.

    One walk over the polynomials decides every operation for both
    precisions, so a value does not depend on how often, where, or beside
    which polynomials it was compiled:

    * each parameter polynomial is one constant, computed as
      ``ParamPoly.evaluate`` does, in the arithmetic of the precision;
    * a linear variable's generator is ``x``; a tagged one's pair is the
      backend's ``tagged``: ``C = cos(w)`` and ``S = sin(w)/root`` (cosh and
      sinh for a negative tag), ``root = sqrt(|tag|)`` and ``w = x*rate*root``
      (a product of two numbers rounds the same either way), once per call
      if the call evaluates a coefficient at all: as in the plain loop,
      ``math.sin(inf)`` raises even for an unread generator;
    * a term is ``constant * g**e * ...``, multiplied left to right, each
      distinct power of a generator or momentum computed once per call, just
      before its first use; a sum starts from 0 in dict insertion order;
    * a denominator is ``(0 + 1*mono) * f**k * ...``; if its magnitude is
      below ``guard`` the function raises SingularEvaluation, otherwise a
      term is ``num / den * p**e * ...``.  A guard of None is 1e-12, or
      the mpf 10^(10 - prec) with ``prec``; a guard of 0 compiles no check;
    * an op on numbers known when it compiles is done then, unless it
      raises, so that each call raises.  So a fraction without generators
      is one constant, and a denominator without them is checked once and,
      if it passes, divided by as one constant;
    * ``1 * x``, ``x * 1`` and ``x / 1`` are ``x``, for every float (-0.0,
      infinities and NaN included) and every mpf rounded to the precision.

    A backend only spells each op: Python source in floats, and with
    ``prec`` a tape of ``(function, dst, a, b)`` entries (the ``libmp``
    routine the mpf operator would call, and indices into a list of raw mpf
    tuples) that one loop runs per call under ``workdps(prec)``, without the
    costly mpf wrappers.  ``source`` is the float source or the tape's
    listing.  Two rules are the backends' own:

    * the tape leaves out the leading ``0 +`` of a sum, as it rounds an mpf
      to itself.  In floats it turns -0.0 into 0.0, so only a numerator
      (its zero of either sign goes into a sum from 0.0) and a denominator
      without a guard (``x / d`` raises for both zeros) leave it out: a
      guard's message prints the denominator;
    * the tape numbers values: an op that repeats an earlier op on the same
      registers reuses its register, so each register is guarded once.
    """
    return _walk(_Source(guard) if prec is None else _Tape(prec, guard), sys, polys,
                 params, momenta)


def _walk(B, sys: VarSystem, polys, params: Mapping[str, object], momenta: int) -> Callable:
    arith, one, ratio = B.arith, B.one, B.arith["ratio"]
    guarded = B.guard > 0  # abs(d) < G never holds for G <= 0, not even for a NaN d
    known: Dict[object, object] = {B.ZERO: B.zero}  # handle -> its number, if known now

    def const(value):
        h = B.const(value)
        known[h] = value
        return h

    def apply(kind: str, a, b, name: Optional[str] = None):
        # kind is "mul", "div" or "pow" (b an int exponent > 1); name, a local to bind
        ka, kb = known.get(a), b if kind == "pow" else known.get(b)
        if ka is not None and kb is not None:
            try:
                return const(arith[kind](ka, kb))
            except ArithmeticError:  # a zero division or a float overflow
                pass
        if kb == one or kind == "mul" and ka == one:
            return a if kb == one else b
        return B.op(kind, a, b, name)

    powers: Dict[tuple, object] = {}

    def power(a, e: int):
        if e == 1:
            return a
        if (a, e) not in powers:
            powers[a, e] = apply("pow", a, e)
        return powers[a, e]

    @lru_cache(maxsize=None)
    def param_power(i: int, e: int):
        if PARAMS[i] not in params:
            raise KeyError(f"no value supplied for parameter {PARAMS[i]!r}")
        return arith["pow"](arith["param"](params[PARAMS[i]]), e)

    @lru_cache(maxsize=None)
    def constant_value(den: int, nums: tuple):
        # each term from its reduced numerator and denominator, times each
        # parameter power; the terms summed from 0
        acc = B.zero
        for m, n in nums:
            g = math.gcd(n, den)
            term = ratio(n // g, den // g)
            for i, e in m:
                term = arith["mul"](term, param_power(i, e))
            acc = arith["add"](acc, term)
        return acc

    def times(value, bases: list, exps: Sequence[int]):
        # value * base**e * ..., left to right
        for base, e in zip(bases, exps):
            if e:
                value = apply("mul", value, power(base, e))
        return value

    def add(a, b):
        h = B.add(a, b)
        if a in known and b in known:
            known[h] = arith["add"](known[a], known[b])
        return h

    def total(p: Poly, lead: bool):
        # the sum from 0, or (lead=False, which only floats spell differently;
        # see compile_numeric) from its first term
        acc = B.ZERO if lead or not p.terms else None
        for m, pp in p.terms.items():
            term = times(const(constant_value(pp.den, tuple(pp.nums.items()))), gens, m)
            acc = term if acc is None else add(acc, term)
        h = B.group(acc)
        if acc in known:
            known[h] = known[acc]
        return h

    evaluates = any(len(F) for F in polys)  # a polynomial with a coefficient
    gens: list = []  # the generator in each monomial slot
    for i, v in enumerate(sys.vars):
        if v.is_linear:
            gens.append(B.coordinate(i, f"g{i}"))
        elif evaluates:
            gens += B.tagged(i, v, const, apply)
        else:
            B.coordinate(i, f"a{i}")
    moms = [B.coordinate(len(sys.vars) + i, f"p{i}") for i in range(momenta)]

    def fraction(c: CanonicalCoeff):
        d = total(Poly.from_mono(sys, c.den_mono), guarded)
        for f, k in c.den_factors:
            d = apply("mul", d, power(total(f, guarded), k))
        if guarded and (d not in known or arith["below"](known[d])):
            d = B.check(d)
        return apply("div", total(c.num, False), d)

    outs = []
    for j, F in enumerate(polys):
        acc = B.local(f"v{j}", B.ZERO)
        for pe, c in F:
            acc = B.local(f"v{j}", add(acc, times(fraction(c), moms, pe)))
        outs.append(acc)
    return B.finish(outs, len(sys.vars) + momenta)


class _Source:
    """``compile_numeric``'s ops spelled as Python source over floats."""

    ZERO = "Z"

    def __init__(self, guard):
        self.guard = guard = 1e-12 if guard is None else guard

        def below(d) -> SingularEvaluation:
            # the message is built here, on failure only, to keep the source small
            return SingularEvaluation(f"denominator magnitude {d} below guard {guard}")

        self.ns: Dict[str, object] = dict(sin=math.sin, cos=math.cos, sinh=math.sinh,
                                          cosh=math.cosh, cv=float, Z=0.0, G=guard, below=below)
        self.arith = dict(ratio=lambda n, d: float(n) / float(d), param=float, sqrt=math.sqrt,
                          add=operator.add, mul=operator.mul, div=operator.truediv,
                          pow=operator.pow, below=lambda d: abs(d) < guard)
        self.zero, self.one = 0.0, 1.0
        self.ids = itertools.count()
        self.lines: List[str] = []

    def const(self, value) -> str:
        name = f"k{next(self.ids)}"
        self.ns[name] = value
        return name

    def local(self, name: str, src: str) -> str:
        self.lines.append(f"{name} = {src}")
        return name

    def coordinate(self, i: int, name: Optional[str] = None) -> str:
        return self.local(name, f"cv(a{i})") if name else f"cv(a{i})"

    def op(self, kind: str, a: str, b=None, name: Optional[str] = None) -> str:
        if kind == "pow":
            src = f"{a} ** {b}"
            if a.isidentifier():  # a local, bound by a line before the first that reads it
                name = f"{a}_{b}"
        elif kind == "mul":  # from the left, by a name, a power or a sum in parentheses
            src = f"{a} * {b}"
        elif kind == "div":
            src = f"{a} / {b}" if b.isidentifier() else f"{a} / ({b})"
        else:
            src = f"{kind}({a})"
        return self.local(name, src) if name else src

    def tagged(self, i: int, v, const, apply) -> tuple:
        ratio = self.arith["ratio"]
        rate = const(ratio(v.rate.numerator, v.rate.denominator))
        root = const(self.arith["sqrt"](ratio(abs(v.tag.numerator), v.tag.denominator)))
        w = self.local("w", apply("mul", apply("mul", self.coordinate(i), rate), root))
        c, s = ("cos", "sin") if v.tag > 0 else ("cosh", "sinh")
        return (self.op(c, w, name=f"c{i}"),
                apply("div", self.op(s, w, name=f"s{i}"), root, f"s{i}"))

    def add(self, a: str, b: str) -> str:
        return f"{a} + {b}"

    def group(self, src: str) -> str:
        return f"({src})"

    def check(self, d: str) -> str:
        self.local("d", d)
        self.lines.append("if abs(d) < G: raise below(d)")
        return "d"

    def finish(self, outs: List[str], arity: int) -> Callable:
        self.lines.append("return [" + ", ".join(outs) + "]")
        args = ", ".join(f"a{i}" for i in range(arity))
        src = f"def evaluate({args}):\n" + "".join(f"    {ln}\n" for ln in self.lines)
        exec(compile(src, "<compiled coefficients>", "exec"), self.ns)
        fn = self.ns["evaluate"]
        fn.source = src  # type: ignore[attr-defined]
        return fn


class _Tape:
    """``compile_numeric``'s ops spelled as ``mpmath.libmp`` calls on raw mpf
    tuples at ``prec`` digits."""

    def __init__(self, prec: int, guard):
        import mpmath
        from mpmath import libmp

        with mpmath.workdps(prec):
            self.guard = mpmath.mpf(10) ** (-prec + 10) if guard is None else guard
            limit = mpmath.mpf(self.guard)._mpf_
        self.mpmath, self.prec = mpmath, prec
        self.bits, self.rnd = bits, rnd = libmp.dps_to_prec(prec), libmp.round_nearest

        def raw(fn):  # a binary libmp routine at the tape's precision and rounding
            return lambda a, b: fn(a, b, bits, rnd)

        def ratio(n: int, d: int):
            return libmp.mpf_div(libmp.from_int(n, bits, rnd), libmp.from_int(d, bits, rnd),
                                 bits, rnd)

        def param(x):
            with mpmath.workdps(prec):
                return to_mpf(x)._mpf_

        self.arith = dict(ratio=ratio, param=param, sqrt=lambda x: libmp.mpf_sqrt(x, bits, rnd),
                          add=raw(libmp.mpf_add), mul=raw(libmp.mpf_mul),
                          div=raw(libmp.mpf_div), pow=raw(libmp.mpf_pow_int),
                          below=lambda d: libmp.mpf_lt(libmp.mpf_abs(d, bits, rnd), limit))
        self.zero, self.one = libmp.fzero, libmp.fone
        self.regs: List[object] = []  # initial register values: the constants, else None
        self.names: List[str] = []
        self.coords: List[int] = []  # the register of each argument
        self.ops: List[tuple] = []  # (libmp function name, dst, a, b)
        self.interned: Dict[object, int] = {}
        self.numbered: Dict[tuple, int] = {}
        self.ZERO = self.const(self.zero)
        self.const(self.one)
        self.G = self.reg("G", limit)

    def reg(self, name: str, value=None) -> int:
        self.regs.append(value)
        self.names.append(name)
        return len(self.regs) - 1

    def const(self, value) -> int:
        # a raw mpf, or an int exponent (listed as itself)
        if value not in self.interned:
            name = str(value) if type(value) is int else f"k{len(self.interned)}"
            self.interned[value] = self.reg(name, value)
        return self.interned[value]

    def op(self, kind: str, a: int, b=None, name: Optional[str] = None) -> int:
        # An op already on the tape gives that op's register (value numbering),
        # so a register is also guarded once: a second guard would pass as well.
        if kind == "pow":
            kind, b, name = "pow_int", self.const(b), f"{self.names[a]}_{b}"
        fn = "guard" if kind == "guard" else f"mpf_{kind}"  # the libmp export the listing shows
        if (fn, a, b) not in self.numbered:
            self.numbered[fn, a, b] = self.reg(name or f"t{len(self.ops)}")
            self.ops.append((fn, self.numbered[fn, a, b], a, b))
        return self.numbered[fn, a, b]

    def local(self, name: str, r: int) -> int:
        return r  # registers are locals already

    tagged = _Source.tagged  # the same ops in the same order

    def coordinate(self, i: int, name: Optional[str] = None) -> int:
        self.coords.append(self.reg(name or f"a{i}"))
        return self.coords[-1]

    def add(self, a: int, b: int) -> int:
        return b if a == self.ZERO else self.op("add", a, b)

    def group(self, r: int) -> int:
        return r

    def check(self, d: int) -> int:
        self.op("guard", d, self.G)
        return d

    def finish(self, outs: List[int], arity: int) -> Callable:
        mpmath, names, below, guard = self.mpmath, self.names, self.arith["below"], self.guard

        def guarded(d, g, bits, rnd):
            # abs(d) < G; the message is formatted under the call's workdps(prec)
            if below(d):
                raise SingularEvaluation(
                    f"denominator magnitude {mpmath.mp.make_mpf(d)} below guard {guard}")
            return d

        listing = [", ".join(names[i] for i in self.coords) + " = to_mpf(coordinates)"]
        tape, libmp = [], vars(mpmath.libmp)
        for fn, dst, a, b in self.ops:
            args = names[a] if b is None else f"{names[a]}, {names[b]}"
            listing.append(f"guard({args})" if fn == "guard" else f"{names[dst]} = {fn}({args})")
            tape.append((guarded, a, a, b) if fn == "guard" else (libmp[fn], dst, a, b))
        listing.append("return [" + ", ".join(names[i] for i in outs) + "]")
        regs, coords, prec, bits, rnd = self.regs, self.coords, self.prec, self.bits, self.rnd
        workdps, make_mpf = mpmath.workdps, mpmath.mp.make_mpf

        def evaluate(*xs):
            if len(xs) != arity:
                raise TypeError(f"evaluate() takes {arity} coordinates, got {len(xs)}")
            r = regs.copy()
            with workdps(prec):
                for i, x in zip(coords, xs):
                    r[i] = to_mpf(x)._mpf_
                for f, dst, a, b in tape:
                    r[dst] = f(r[a], bits, rnd) if b is None else f(r[a], r[b], bits, rnd)
            return [make_mpf(r[i]) for i in outs]

        evaluate.source = "\n".join(listing) + "\n"  # type: ignore[attr-defined]
        return evaluate
