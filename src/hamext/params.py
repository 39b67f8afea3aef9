"""Exact rational scalars and polynomials in the free model parameters.

Every coefficient in the package is, at bottom, a polynomial in a fixed
alphabet of free parameters with arbitrary-precision rational coefficients.
Parameters stay symbolic through all constructions; numbers enter only when
a caller evaluates or substitutes explicitly.
"""

from __future__ import annotations

import operator
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

#: Parameter alphabet of the coefficient ring, in canonical order.
PARAMS: Tuple[str, ...] = (
    "A", "L0", "a1", "a2", "alpha1", "alpha2",
    "b", "c1", "c2", "f0", "h0", "omega",
)
PARAM_INDEX: Dict[str, int] = {name: i for i, name in enumerate(PARAMS)}

QONE = Q(1)
QZERO = Q(0)

ScalarLike = Union[int, str, "Q"]

# A parameter monomial is a tuple of (parameter index, exponent) pairs,
# sorted by index, exponents strictly positive.  () is the unit monomial.
PMono = Tuple[Tuple[int, int], ...]
PUNIT: PMono = ()


def as_q(x) -> Q:
    """Coerce ints, strings like '3/2', and rationals to an exact Q."""
    if isinstance(x, float):
        raise TypeError("floating-point scalars are not allowed in the exact layer")
    return Q(x)


@lru_cache(maxsize=1 << 15)
def _pmono_mul(a: PMono, b: PMono) -> PMono:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for i, e in b:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def power(x, n: int, one, mul: Callable = operator.mul):
    """``x**n`` for an int ``n >= 0`` by square-and-multiply from ``one``.

    Each step forms ``mul(acc, x)`` before squaring ``x``, and no square
    is formed after the last bit, so every level of the ring takes the
    same products in the same order.
    """
    acc = one
    while n:
        if n & 1:
            acc = mul(acc, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return acc


def join_signed(parts: List[str]) -> str:
    """Join rendered terms with " + ", writing a leading "-" as " - "."""
    return parts[0] + "".join([f" - {p[1:]}" if p[0] == "-" else f" + {p}"
                               for p in parts[1:]])


def accumulate(acc: dict, key, value, sign: int = 1):
    """``acc[key] += sign*value`` for a ring element with ``_plus`` (a
    ParamPoly or CanonicalCoeff): a new term goes last, a zero sum is
    popped.  ``_add_into`` is the same rule for int numerators."""
    cur = acc.get(key)
    if cur is None:
        s = value if sign == 1 else -value
    else:
        s = cur._plus(value, sign)
    if s.is_zero:
        acc.pop(key, None)
    else:
        acc[key] = s


def _pmono_key(m: PMono):
    # graded-lex key over the full alphabet
    deg = sum(e for _, e in m)
    full = [0] * len(PARAMS)
    for i, e in m:
        full[i] = e
    return (deg, tuple(full))


@lru_cache(maxsize=4096)
def _pmono_text(m: PMono) -> Tuple[tuple, str]:
    """The sort key and the text of a parameter monomial, for rendering."""
    return _pmono_key(m), "*".join(PARAMS[i] if e == 1 else f"{PARAMS[i]}^{e}" for i, e in m)


def term_text(c: int, den: int, ms: str) -> str:
    """The text of ``c/den`` times the monomial whose text is ``ms``."""
    if den != 1:
        g = gcd(c, den)
        c, den = c // g, den // g
    cs = str(c) if den == 1 else f"{c}/{den}"
    if not ms:
        return cs
    return ms if cs == "1" else f"-{ms}" if cs == "-1" else f"{cs}*{ms}"


class ParamPoly:
    """Multivariate polynomial in the free parameters over exact rationals.

    Stored as integer numerators over one common denominator: ``nums`` maps
    each monomial to a nonzero int and ``den`` is a positive int with
    ``gcd(den, *nums.values()) == 1``, so structural equality is semantic
    equality and ``is_zero`` is a dictionary emptiness test.  ``terms`` is
    the rational view, one reduced ``Fraction`` per monomial in the same
    order.  Immutable; all operations return new instances, and a kernel
    that needs no new value may return an operand itself.
    """

    __slots__ = ("nums", "den", "_hash")

    def __init__(self, terms: Mapping[PMono, object]):
        qs = [(m, c if type(c) is Q else as_q(c)) for m, c in terms.items()]
        den = 1
        for _, q in qs:
            d = q.denominator
            if den % d:
                den = den // gcd(den, d) * d
        # over the lcm of reduced denominators the numerators share no
        # factor with it
        self.nums: Dict[PMono, int] = {
            m: q.numerator * (den // q.denominator) for m, q in qs if q}
        self.den: int = den
        self._hash = None

    @property
    def terms(self) -> Dict[PMono, Q]:
        """The reduced rational coefficient of each monomial, in order."""
        den = self.den
        if den == 1:
            return {m: Q(c) for m, c in self.nums.items()}
        return {m: Q(c, den) for m, c in self.nums.items()}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamPoly":
        return _make({}, 1)

    @classmethod
    def one(cls) -> "ParamPoly":
        return _make({PUNIT: 1}, 1)

    @classmethod
    def scalar(cls, x) -> "ParamPoly":
        q = as_q(x)
        return _make({PUNIT: q.numerator}, q.denominator) if q else _make({}, 1)

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "ParamPoly":
        if name not in PARAM_INDEX:
            raise KeyError(f"unknown parameter {name!r}; alphabet is {PARAMS}")
        if exp < 0:
            raise ValueError("parameter exponents must be non-negative")
        if exp == 0:
            return cls.one()
        return _make({((PARAM_INDEX[name], exp),): 1}, 1)

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_one(self) -> bool:
        return self.den == 1 and self.nums == {PUNIT: 1}

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _coerce(other) -> Optional["ParamPoly"]:
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, Q)):
            return ParamPoly.scalar(other)
        return None

    def _plus(self, o: "ParamPoly", sign: int) -> "ParamPoly":
        """self + sign*o for sign = +-1, in one pass over o's terms."""
        da, db = self.den, o.den
        if da == db:
            den, fa, fb = da, 1, sign
        else:
            g = gcd(da, db)
            den, fa, fb = da // g * db, db // g, sign * (da // g)
        out = dict(self.nums) if fa == 1 else {m: c * fa for m, c in self.nums.items()}
        _add_into(out, o.nums, fb)
        return from_numerators(out, den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make({m: -c for m, c in self.nums.items()}, self.den)

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
        return from_numerators(_product(self.nums, o.nums), self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("ParamPoly powers must be non-negative integers")
        return power(self, n, ParamPoly.one())

    def scale(self, q) -> "ParamPoly":
        # nearly every scale is by an int; without this branch the bench's
        # exact build_s rises by about 1-2%
        if type(q) is int:
            return self._scaled(q, 1)
        if type(q) is not Q:
            q = as_q(q)
        return self._scaled(q.numerator, q.denominator)

    def _scaled(self, n: int, d: int) -> "ParamPoly":
        """self * n/d for coprime ints n and d > 0."""
        if n == d:
            return self
        if not n:
            return _make({}, 1)
        # gcd(den, nums) == 1 and gcd(n, d) == 1, so with d == 1 the only
        # common factor of the result is gcd(n, den)
        g = gcd(n, self.den)
        if g != 1:
            n //= g
        nums = {m: c * n for m, c in self.nums.items()}
        den = self.den // g * d
        return _make(nums, den) if d == 1 else from_numerators(nums, den)

    # -- structure ------------------------------------------------------

    def leading(self) -> Tuple[PMono, Q]:
        """Graded-lex leading monomial and its coefficient."""
        m = max(self.nums, key=_pmono_key)
        return m, Q(self.nums[m], self.den)

    def divexact(self, other: "ParamPoly") -> Optional["ParamPoly"]:
        """Exact quotient self/other, or None if other does not divide."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero parameter polynomial")
        if other.is_one:
            return self
        rem = self
        quot: Dict[PMono, Q] = {}
        lm, lc = other.leading()
        lexps = dict(lm)
        while rem.nums:
            m, c = rem.leading()
            mexps = dict(m)
            for i, e in lexps.items():
                d = mexps.get(i, 0) - e
                if d < 0:
                    return None
                mexps[i] = d
            qm = tuple(sorted((i, e) for i, e in mexps.items() if e))
            qc = c / lc
            quot[qm] = qc
            rem = rem._plus(ParamPoly({qm: qc}) * other, -1)
        return ParamPoly(quot)

    def substitute(self, mapping: Mapping[str, object]) -> "ParamPoly":
        """Replace parameters by ParamPoly or rational values."""
        repl = {}
        for name, val in mapping.items():
            if name not in PARAM_INDEX:
                raise KeyError(f"unknown parameter {name!r}")
            repl[PARAM_INDEX[name]] = val if isinstance(val, ParamPoly) else ParamPoly.scalar(val)
        pieces = []
        for m, c in self.nums.items():
            # a term's numerator times the parameters that stay, then the rest
            piece = _make({tuple((i, e) for i, e in m if i not in repl): c}, 1)
            for i, e in m:
                if i in repl:
                    piece = piece * repl[i] ** e
            pieces.append(piece)
        # their sum in one pass over the common denominator
        den = lcm(*(piece.den for piece in pieces))
        out: Dict[PMono, int] = {}
        for piece in pieces:
            _add_into(out, piece.nums, den // piece.den)
        return from_numerators(out, den * self.den)

    def evaluate(self, values: Mapping[str, object], conv=float):
        """Numeric value with parameters taken from ``values``.

        Each term starts from its reduced numerator and denominator,
        ``conv(n) / conv(d)``.
        """
        total = conv(0)
        den = self.den
        for m, c in self.nums.items():
            g = gcd(c, den)
            term = conv(c // g) / conv(den // g)
            for i, e in m:
                name = PARAMS[i]
                if name not in values:
                    raise KeyError(f"no value supplied for parameter {name!r}")
                term = term * conv(values[name]) ** e
            total = total + term
        return total

    # -- canonical identity ----------------------------------------------

    def sorted_items(self) -> tuple:
        return tuple(sorted(self.terms.items(), key=lambda kv: _pmono_key(kv[0]), reverse=True))

    def __eq__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.den, frozenset(self.nums.items())))
        return self._hash

    def __str__(self):
        if not self.nums:
            return "0"
        # terms by descending _pmono_key
        items = sorted(((_pmono_text(m), c) for m, c in self.nums.items()), reverse=True)
        return join_signed([term_text(c, self.den, ms) for (_, ms), c in items])

    __repr__ = __str__


def _add_into(out: Dict[PMono, int], nums: Dict[PMono, int], scale: int):
    """``out += scale * nums`` in place, term by term: a new monomial goes
    last and a zero sum is popped."""
    for m, c in nums.items():
        if scale != 1:
            c = c * scale
        s = out.get(m)
        if s is None:
            out[m] = c
            continue
        s = s + c
        if s:
            out[m] = s
        else:
            del out[m]


def _product(a: Dict[PMono, int], b: Dict[PMono, int]) -> Dict[PMono, int]:
    # a fixed m1 maps b's monomials to distinct ones, so a row of a is one
    # sum in b's term order, and a row added to an empty sum is that sum
    out: Dict[PMono, int] = {}
    for m1, c1 in a.items():
        row = {_pmono_mul(m1, m2): c1 * c2 for m2, c2 in b.items()}
        if out:
            _add_into(out, row, 1)
        else:
            out = row
    return out


_new = object.__new__


def _make(nums: Dict[PMono, int], den: int) -> ParamPoly:
    # trusted: den > 0, no zero numerator, gcd(den, *nums.values()) == 1
    p = _new(ParamPoly)
    p.nums = nums
    p.den = den
    p._hash = None
    return p


def from_numerators(nums: Dict[PMono, int], den: int) -> ParamPoly:
    """The ParamPoly ``nums / den``, taking ownership of ``nums``.

    ``nums`` holds nonzero ints and ``den`` is positive; their common
    factor is divided out.
    """
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {m: c // g for m, c in nums.items()}
    return _make(nums, den)


def as_parampoly(x) -> ParamPoly:
    """Lift ints, rationals, parameter names, or ParamPoly to ParamPoly."""
    if isinstance(x, ParamPoly):
        return x
    if isinstance(x, str) and x in PARAM_INDEX:
        return ParamPoly.var(x)
    return ParamPoly.scalar(x)
