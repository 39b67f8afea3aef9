"""Exact rational scalars and polynomials in the free model parameters.

Every coefficient in the package is, at bottom, a polynomial in a fixed
alphabet of free parameters with arbitrary-precision rational coefficients.
Parameters stay symbolic through all constructions; numbers enter only when
a caller evaluates or substitutes explicitly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping, Optional, Tuple, Union

try:  # gmpy2 rationals are a drop-in speedup for the large bracket runs
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

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


@lru_cache(maxsize=None)
def _pmono_mul(a: PMono, b: PMono) -> PMono:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for i, e in b:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def _pmono_key(m: PMono):
    # graded-lex key over the full alphabet
    deg = sum(e for _, e in m)
    full = [0] * len(PARAMS)
    for i, e in m:
        full[i] = e
    return (deg, tuple(full))


def _pmono_str(m: PMono) -> str:
    parts = []
    for i, e in m:
        parts.append(PARAMS[i] if e == 1 else f"{PARAMS[i]}^{e}")
    return "*".join(parts)


class ParamPoly:
    """Multivariate polynomial in the free parameters over exact rationals.

    Immutable; all operations return new instances.  The stored dictionary
    never holds zero coefficients, so structural equality is semantic
    equality and ``is_zero`` is a dictionary emptiness test.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[PMono, Q]):
        self.terms: Dict[PMono, Q] = dict(terms)
        self._hash = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls({})

    @classmethod
    def one(cls) -> "ParamPoly":
        return cls({PUNIT: QONE})

    @classmethod
    def scalar(cls, x) -> "ParamPoly":
        q = as_q(x)
        return cls({PUNIT: q} if q != 0 else {})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "ParamPoly":
        if name not in PARAM_INDEX:
            raise KeyError(f"unknown parameter {name!r}; alphabet is {PARAMS}")
        if exp < 0:
            raise ValueError("parameter exponents must be non-negative")
        if exp == 0:
            return cls.one()
        return cls({((PARAM_INDEX[name], exp),): QONE})

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == {PUNIT: QONE}

    def as_scalar(self) -> Optional[Q]:
        """The rational value if this polynomial is constant, else None."""
        if not self.terms:
            return QZERO
        if len(self.terms) == 1 and PUNIT in self.terms:
            return self.terms[PUNIT]
        return None

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e for _, e in m) for m in self.terms)

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _coerce(other) -> Optional["ParamPoly"]:
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, type(QONE))):
            return ParamPoly.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
                continue
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
        return ParamPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.terms, o.terms
        # a constant factor keeps the other operand's term order, and a
        # unit factor returns it unchanged
        if len(b) == 1 and PUNIT in b:
            return self.scale(b[PUNIT])
        if len(a) == 1 and PUNIT in a:
            return o.scale(a[PUNIT])
        out: Dict[PMono, Q] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = _pmono_mul(m1, m2)
                s = out.get(m)
                if s is None:
                    out[m] = c1 * c2
                    continue
                s = s + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return ParamPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("ParamPoly powers must be non-negative integers")
        acc = ParamPoly.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def scale(self, q) -> "ParamPoly":
        if type(q) is not Q:
            q = as_q(q)
        if q == 1:
            return self
        if q == 0:
            return ParamPoly.zero()
        return ParamPoly({m: c * q for m, c in self.terms.items()})

    # -- structure ------------------------------------------------------

    def leading(self) -> Tuple[PMono, Q]:
        """Graded-lex leading monomial and its coefficient."""
        m = max(self.terms, key=_pmono_key)
        return m, self.terms[m]

    def divexact(self, other: "ParamPoly") -> Optional["ParamPoly"]:
        """Exact quotient self/other, or None if other does not divide."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero parameter polynomial")
        if other.is_one:
            return self
        rem = dict(self.terms)
        quot: Dict[PMono, Q] = {}
        lm, lc = other.leading()
        lexps = dict(lm)
        while rem:
            m = max(rem, key=_pmono_key)
            mexps = dict(m)
            qexps = []
            for i, e in lexps.items():
                d = mexps.get(i, 0) - e
                if d < 0:
                    return None
                mexps[i] = d
            for i, e in mexps.items():
                if e:
                    qexps.append((i, e))
            qm = tuple(sorted(qexps))
            qc = rem[m] / lc
            quot[qm] = qc
            piece = ParamPoly({qm: qc}) * other
            for mm, cc in piece.terms.items():
                s = rem.get(mm, QZERO) - cc
                if s:
                    rem[mm] = s
                else:
                    rem.pop(mm, None)
        return ParamPoly(quot)

    def substitute(self, mapping: Mapping[str, object]) -> "ParamPoly":
        """Replace parameters by ParamPoly or rational values."""
        repl = {}
        for name, val in mapping.items():
            if name not in PARAM_INDEX:
                raise KeyError(f"unknown parameter {name!r}")
            repl[PARAM_INDEX[name]] = val if isinstance(val, ParamPoly) else ParamPoly.scalar(val)
        out = ParamPoly.zero()
        for m, c in self.terms.items():
            piece = ParamPoly.scalar(c)
            for i, e in m:
                factor = repl.get(i)
                if factor is None:
                    factor = ParamPoly({((i, 1),): QONE})
                piece = piece * factor ** e
            out = out + piece
        return out

    def evaluate(self, values: Mapping[str, object], conv=float):
        """Numeric value with parameters taken from ``values``."""
        total = conv(0)
        for m, c in self.terms.items():
            term = conv(c.numerator) / conv(c.denominator)
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
        if isinstance(other, (int, type(QONE))):
            other = ParamPoly.scalar(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.sorted_items())
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_items():
            ms = _pmono_str(m)
            if not ms:
                parts.append(str(c))
            elif c == 1:
                parts.append(ms)
            elif c == -1:
                parts.append(f"-{ms}")
            else:
                parts.append(f"{c}*{ms}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


def as_parampoly(x) -> ParamPoly:
    """Lift ints, rationals, parameter names, or ParamPoly to ParamPoly."""
    if isinstance(x, ParamPoly):
        return x
    if isinstance(x, str) and x in PARAM_INDEX:
        return ParamPoly.var(x)
    return ParamPoly.scalar(x)
