"""The printed build text commutes, checked without hamext arithmetic.

``hamext build`` prints ``H_plain``, ``H_modified`` (H_bar) and
``K_modified`` (K_bar) as text.  This module reads that text with Python's
own ``ast`` (``^`` as ``**``) and evaluates it over the field F_p,
p = 2^61 - 1, with forward-mode dual numbers; nothing of hamext but its
command line runs.  A generator pair of a tagged coordinate x, printed
``cos``/``sin`` for tag 1, ``cosh``/``sinh`` for tag -1 and ``C_tag``/
``S_tag`` otherwise, of ``x`` or ``rate*x``, is the point of the conic
C^2 + tag*S^2 = 1 drawn from a random t, ``S = 2t/(1 + tag*t^2)`` and
``C = (1 - tag*t^2)/(1 + tag*t^2)``, whose derivatives in x are
``S' = rate*C`` and ``C' = -tag*rate*S``.  Parameters and the other
coordinates and momenta are random residues.  The bracket {H, K} is the
derivative of K along minus the Hamiltonian vector field of H, so one dual
evaluation of K gives it.

At every point {H_bar, K_bar} must be 0, while three controls must not be:
{H_plain, K_bar}, {H_bar - omega*u^2, K_bar}, and {H_bar, K_bar} with
omega replaced by 1001/1000*omega in K_bar alone.

The checker also runs as a script on saved ``build`` outputs, for models
too large for the test suite::

    python -m hamext build --model ttw --m 9 --n 5 > ttw-9-5.json
    python tests/test_build_certificate.py ttw-9-5.json
"""

import ast
import json
import random
import re
import sys
from fractions import Fraction

import pytest

P = 2 ** 61 - 1
POINTS = 8
#: At how many of the points each bracket is nonzero, for a correct build.
EXPECTED = {"H_bar": 0, "H_plain": POINTS, "omega_u2": POINTS, "omega_shift": POINTS}
#: The functions printed of a tagged coordinate of tag 1 or -1, each with the tag.
TAGS = {"sin": 1, "cos": 1, "sinh": -1, "cosh": -1}
#: The other tags print as ``C_3(q)`` or ``S_-2(q)``, which is not Python.
_TAGGED = re.compile(r"\b([CS])_(-?\d+(?:/\d+)?)\(")


def _inverse(a: int) -> int:
    if a % P == 0:
        raise ZeroDivisionError("a denominator vanishes at this point of F_p")
    return pow(a, P - 2, P)


def residue(x) -> int:
    """An int or a ``Fraction`` mod P; a float has no residue."""
    if type(x) is int or isinstance(x, Fraction):
        return x.numerator * _inverse(x.denominator) % P
    raise TypeError(f"no residue for {x!r}: give an int or a Fraction")


class Dual:
    """``v + d*eps`` with ``eps^2 = 0``, both parts residues mod P."""

    __slots__ = ("v", "d")

    def __init__(self, v: int, d: int = 0):
        self.v = v % P
        self.d = d % P

    def __add__(self, o):
        return Dual(self.v + o.v, self.d + o.d)

    def __sub__(self, o):
        return Dual(self.v - o.v, self.d - o.d)

    def __neg__(self):
        return Dual(-self.v, -self.d)

    def __mul__(self, o):
        return Dual(self.v * o.v, self.v * o.d + self.d * o.v)

    def __truediv__(self, o):
        inv = _inverse(o.v)
        return Dual(self.v * inv, (self.d * o.v - self.v * o.d) * inv * inv)

    def __pow__(self, e: int):
        # square-and-multiply in C: v^(e-1), then v^e and e*v^(e-1)*d
        head = pow(self.v, e - 1, P)
        return Dual(head * self.v, e * head * self.d)


def _sum(*terms: Dual) -> Dual:
    return Dual(sum(t.v for t in terms), sum(t.d for t in terms))


def conic(tag, rate, x: Dual) -> tuple:
    """The generators ``(C, S)`` of a coordinate of this tag and rate, at
    the point of the conic C^2 + tag*S^2 = 1 that ``x.v`` parametrizes, with
    their derivatives along ``x.d`` in the coordinate."""
    tag, rate, t = residue(tag), residue(rate), x.v
    inv = _inverse(1 + tag * t * t)
    S, C = 2 * t * inv, (1 - tag * t * t) * inv
    return Dual(C, -tag * rate * S * x.d), Dual(S, rate * C * x.d)


#: The source position of every node the conversion makes.
_AT = {"lineno": 1, "col_offset": 0}


def _name(id_: str) -> ast.Name:
    return ast.Name(id_, ast.Load(), **_AT)


def _rational(node) -> Fraction:
    """A printed rate: an int, a quotient of two, or one negated."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_rational(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return _rational(node.left) / _rational(node.right)
    assert isinstance(node, ast.Constant) and type(node.value) is int, ast.dump(node)
    return Fraction(node.value)


def _spelled(rational: str) -> str:
    """A printed tag or rate as part of a name: ``-2`` is ``m2``, ``1/2`` is ``1_2``."""
    return rational.replace("-", "m").replace("/", "_")


def _generator(function: str) -> tuple:
    """``("C" or "S", tag)`` of a printed function, as ``_Text`` renames it."""
    if function in TAGS:
        return "S" if function.startswith("sin") else "C", Fraction(TAGS[function])
    kind, num, *den = function.split("_")
    return kind, Fraction(int(num.replace("m", "-")), int(den[0]) if den else 1)


class _Text:
    """One printed text, compiled once: its names, and a code object that
    evaluates it over a namespace of Duals.

    Each integer becomes a name bound to its Dual and each division by one
    a product by its inverse, so no Python int or float arithmetic runs.
    Each power of a name becomes a name too, bound once a namespace.  A
    sum of many terms becomes one ``_sum`` call, flat, so the compiler's
    depth stays that of the parentheses.  A generator becomes a name,
    which ``calls`` maps to its kind, tag, rate and coordinate; ``C_-2(``
    is read as ``C_m2(`` and ``C_1/2(`` as ``C_1_2(``, and the name
    carries the rate after an ``r`` the same way: ``C_-2(3/7*q)`` is
    ``C_m2_r3_7_q`` and ``cos(q)`` is ``cos_r1_q``.
    """

    def __init__(self, text: str):
        self.ints, self.names, self.calls, self.powers = set(), set(), {}, set()
        text = _TAGGED.sub(lambda m: f"{m[1]}_{_spelled(m[2])}(", text)
        body = ast.parse(text.replace("^", "**"), mode="eval").body
        self.code = compile(ast.Expression(self._convert(body)), "<build text>", "eval")

    def _int(self, node) -> ast.Name:
        assert isinstance(node, ast.Constant) and type(node.value) is int, ast.dump(node)
        self.ints.add(node.value)
        return _name(f"_{node.value}")

    def _convert(self, node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            terms = []
            while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                right = self._convert(node.right)
                terms.append(ast.UnaryOp(ast.USub(), right, **_AT)
                             if isinstance(node.op, ast.Sub) else right)
                node = node.left
            terms.append(self._convert(node))
            return ast.Call(_name("_sum"), terms[::-1], [], **_AT)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, e = self._convert(node.left), node.right.value
            assert type(e) is int and e > 1, ast.dump(node)
            if not isinstance(base, ast.Name):  # a power of a sum
                return ast.BinOp(base, ast.Pow(), node.right, **_AT)
            self.powers.add((base.id, e))
            return _name(f"{base.id}__{e}")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) \
                and isinstance(node.right, ast.Constant):
            inverse = _name("_inv" + self._int(node.right).id)
            return ast.BinOp(self._convert(node.left), ast.Mult(), inverse, **_AT)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
            return ast.BinOp(self._convert(node.left), node.op, self._convert(node.right),
                             **_AT)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ast.UnaryOp(ast.USub(), self._convert(node.operand), **_AT)
        if isinstance(node, ast.Call):
            (arg,) = node.args
            kind, tag = _generator(node.func.id)
            rate = Fraction(1)
            if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mult):
                rate, arg = _rational(arg.left), arg.right
            assert isinstance(arg, ast.Name), ast.dump(node)
            local = f"{node.func.id}_r{_spelled(str(rate))}_{arg.id}"
            self.calls[local] = (kind, tag, rate, arg.id)
            return _name(local)
        if isinstance(node, ast.Name):
            self.names.add(node.id)
            return node
        return self._int(node)

    def __call__(self, namespace) -> Dual:
        return eval(self.code, {"__builtins__": {}, "_sum": _sum}, namespace)


class Texts:
    """Printed texts read together: the names, generators, integers and
    powers of all of them, bound at a point.

    ``conic`` gives a tagged coordinate one point of one conic, so texts
    that read a coordinate at two tags or rates are refused.
    """

    def __init__(self, *texts: _Text):
        self.names = set().union(*(t.names for t in texts))
        self.calls = {k: v for t in texts for k, v in t.calls.items()}
        read = {}
        for _, tag, rate, x in self.calls.values():
            seen = read.setdefault(x, (tag, rate))
            if seen != (tag, rate):
                raise ValueError(f"{x} is read at two (tag, rate) pairs: "
                                 f"({seen[0]}, {seen[1]}) and ({tag}, {rate})")
        ints = set().union(*(t.ints for t in texts))
        self.constants = {f"_{n}": Dual(n) for n in ints}
        self.constants.update((f"_inv_{n}", Dual(_inverse(n))) for n in ints if n)
        self.powers = sorted(set().union(*(t.powers for t in texts)))

    def namespace(self, point: dict, tangent: dict) -> dict:
        """Each name at ``point``, moving along ``tangent``: a tagged
        coordinate's value is its conic parameter t, its tangent is in x.
        A tagged x that appears bare (only ``u`` in the control
        ``H_bar - omega*u^2`` does) is t too: x is transcendental over its
        generators, so any value of it is a point."""
        ns = dict(self.constants)
        ns.update((name, Dual(point[name], tangent.get(name, 0))) for name in self.names)
        for local, (kind, tag, rate, x) in self.calls.items():
            C, S = conic(tag, rate, Dual(point[x], tangent.get(x, 0)))
            ns[local] = C if kind == "C" else S
        ns.update((f"{name}__{e}", ns[name] ** e) for name, e in self.powers)
        return ns


class Certificate(Texts):
    """The texts of one ``build`` output, and the brackets at a point."""

    def __init__(self, doc: dict):
        self.H_bar, self.H, self.K = (_Text(doc[k]) for k in
                                      ("H_modified", "H_plain", "K_modified"))
        self.H_u2 = _Text(f"({doc['H_modified']}) - omega*u^2")
        super().__init__(self.H_bar, self.H, self.K, self.H_u2)
        tagged = {x for _, _, _, x in self.calls.values()}
        # every coordinate has its momentum in the kinetic term of H_bar
        self.coords = sorted(n[2:] for n in self.H_bar.names if n.startswith("p_"))
        assert tagged <= set(self.coords), (tagged, self.coords)
        printed = self.H_bar.names | self.H.names | self.K.names
        assert not printed & tagged, "a tagged coordinate also appears bare"
        self.momenta = ["p_" + x for x in self.coords]
        self.params = sorted(self.names - set(self.coords) - set(self.momenta))
        assert "omega" in self.params and "u" in self.coords

    def point(self, rng: random.Random) -> dict:
        """Random values: t for a tagged coordinate, else the value itself."""
        return {name: rng.randrange(1, P)
                for name in self.coords + self.momenta + self.params}

    def direction(self, H: _Text, point: dict) -> dict:
        """``(-dH/dp_x, dH/dx)`` at the point, minus the Hamiltonian vector
        field of H: the derivative of K along it is {H, K}."""
        grad = {v: H(self.namespace(point, {v: 1})).d for v in self.coords + self.momenta}
        field = {}
        for x, p in zip(self.coords, self.momenta):
            field[x], field[p] = -grad[p], grad[x]
        return field

    def brackets(self, point: dict) -> dict:
        """{H_bar, K_bar} and the three controls, as residues."""
        scaled = dict(point, omega=point["omega"] * 1001 * _inverse(1000))
        bar = self.direction(self.H_bar, point)
        return {
            "H_bar": self.K(self.namespace(point, bar)).d,
            "H_plain": self.K(self.namespace(point, self.direction(self.H, point))).d,
            "omega_u2": self.K(self.namespace(point, self.direction(self.H_u2, point))).d,
            "omega_shift": self.K(self.namespace(scaled, bar)).d,
        }


def nonzero_brackets(doc: dict) -> dict:
    """For each of the three brackets, at how many of the points it is nonzero."""
    cert = Certificate(doc)
    rng = random.Random(20240901)
    counts = dict.fromkeys(EXPECTED, 0)
    for _ in range(POINTS):
        for name, value in cert.brackets(cert.point(rng)).items():
            counts[name] += value != 0
    return counts


INLINE = ["--model", "inline", "--c", "1", "--A", "1", "--omega", "sym",
          "--V", "(c1 + c2*cos(q))/sin(q)^2", "--eta", "sin(q)", "--m", "4", "--n", "3"]
BUILDS = {
    # the benchmark's four exact builds
    "ttw-5-3": ["--model", "ttw", "--m", "5", "--n", "3", "--omega", "sym"],
    "cage-5-4": ["--model", "cage", "--m", "5", "--n", "4", "--omega", "sym", "--A", "1"],
    "inline-k+1-4-3": INLINE + ["--kappa", "1"],
    "inline-k-1-4-3": INLINE + ["--kappa", "-1"],
    # and smaller catalog models
    "ttw-1-1": ["--model", "ttw", "--m", "1", "--n", "1"],
    "ttw-3-2": ["--model", "ttw", "--m", "3", "--n", "2"],
    "cage-3-2": ["--model", "cage", "--m", "3", "--n", "2"],
    "cage-4-3": ["--model", "cage", "--m", "4", "--n", "3"],
}


@pytest.mark.parametrize("name", list(BUILDS))
def test_printed_build_commutes(name, capsys):
    from hamext.cli import EXIT_OK, main

    assert main(["build", *BUILDS[name]]) == EXIT_OK
    assert nonzero_brackets(json.loads(capsys.readouterr().out)) == EXPECTED


def test_dual_numbers_differentiate():
    """d/dx of (x^3 + 2)/(x - 1) at x = 5 is (3*25*4 - 127)/16 = 173/16."""
    text = _Text("(x^3 + 2)/(x - 1)")
    assert text.powers == {("x", 3)}
    x = Dual(5, 1)
    value = text({"_1": Dual(1), "_2": Dual(2), "x": x, "x__3": x ** 3})
    assert (value.v, value.d) == (127 * _inverse(4) % P, 173 * _inverse(16) % P)


def test_generators_of_every_tag_and_rate_are_read():
    """``C_-2(3/7*q)`` is ``C`` of tag -2 at rate 3/7, and so on."""
    text = _Text("C_-2(3/7*q)^2 + S_3(q) - cos(3/2*x)*sinh(2*y) + C_1/2(-5*z)")
    assert text.calls == {"C_m2_r3_7_q": ("C", -2, Fraction(3, 7), "q"),
                          "S_3_r1_q": ("S", 3, 1, "q"),
                          "cos_r3_2_x": ("C", 1, Fraction(3, 2), "x"),
                          "sinh_r2_y": ("S", -1, 2, "y"),
                          "C_1_2_rm5_z": ("C", Fraction(1, 2), -5, "z")}
    assert text.powers == {("C_m2_r3_7_q", 2)} and not text.names


def test_a_coordinate_read_at_two_rates_is_refused():
    """``conic`` gives q one point, so ``cos(q)`` and ``cos(2*q)`` would
    read the same residue; the two rates get two names, and ``Texts``
    refuses them, within one text or across two."""
    assert set(_Text("cos(q) + cos(2*q)").calls) == {"cos_r1_q", "cos_r2_q"}
    pairs = r"q is read at two \(tag, rate\) pairs: \(1, 1\) and \(1, 2\)"
    with pytest.raises(ValueError, match=pairs):
        Texts(_Text("cos(q)"), _Text("cos(2*q)"))
    with pytest.raises(ValueError, match="q is read at two"):
        Texts(_Text("sin(q) + cosh(q)"))
    Texts(_Text("cos(2*q)"), _Text("sin(2*q)*u"))  # one rate a coordinate


def check_files(paths) -> int:
    failed = False
    for path in paths:
        with open(path) as fh:
            counts = nonzero_brackets(json.load(fh))
        ok = counts == EXPECTED
        failed |= not ok
        print(f"{path}: nonzero brackets of {POINTS} points: {counts}"
              f" {'ok' if ok else 'FAILED'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check_files(sys.argv[1:]))
