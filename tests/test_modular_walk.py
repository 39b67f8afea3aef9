"""The numeric walk over F_p: exact checks of the compiled partials.

``compile_numeric``'s walk decides every op and leaves its spelling to a
backend.  ``Modular`` below spells it over the field F_p, p = 2^61 - 1,
with the forward-mode dual numbers of ``tests/test_build_certificate.py``:

* a tagged coordinate is the parameter t of a point of the conic
  C^2 + tag*S^2 = 1, ``C = (1 - tag*t^2)/(1 + tag*t^2)`` and
  ``S = 2t/(1 + tag*t^2)``, with ``C' = -tag*rate*S`` and ``S' = rate*C``;
* parameters are residues of ints or ``Fraction``s, never of floats;
* a denominator that is 0 mod p raises ZeroDivisionError, which rejects
  the point; the walk compiles no guard.

A nonzero value is 0 at a random point with probability at most deg/p
(Schwartz, JACM 27 (1980); Zippel, EUROSAM 1979), so each check below is
exact up to that chance.  Three checks:

* **partials**: the ring's partials (``PPoly.d_position``,
  ``PPoly.d_momentum``), compiled, equal the dual derivatives of the
  compiled function, on the bench's models and on random polynomials over
  tags 1, -1, 3 and -2 at rates 1, 2, 2/5 and 3/7;
* **bracket**: on the bench's models {H_bar, K_bar}, formed from those
  partials, is 0 at every point, while {H_plain, K_bar} and {H_bar, K_bar}
  with omega scaled by 1001/1000 in K_bar alone are not 0 at any;
* **text**: the printed ``render`` text of random polynomials, read by
  the certificate's reader, equals the walk's value at the same point.
"""

import functools
import random

import pytest
from hypothesis import given, strategies as st

from conftest import ppoly_strategy
from hamext import Q
from hamext.cli import build_model, make_config
from hamext.numeric import _Source, _walk
from hamext.params import PARAMS
from hamext.verify import _gradient

from test_build_certificate import BUILDS, P, Dual, Texts, _Text, _inverse, conic, residue
from test_evaluator import SPACES


def _dual(x) -> Dual:
    return x if isinstance(x, Dual) else Dual(residue(x))


class Modular(_Source):
    """``compile_numeric``'s ops as Python source over ``Dual``s mod P.

    Known numbers (constants, parameters, folded ops) are residues; each
    constant is bound to its ``Dual`` with derivative 0.  The source is the
    float backend's, so its ops, names and folding are the same.
    """

    def __init__(self):
        super().__init__(0)  # no guard: a zero denominator raises itself
        self.ns = dict(cv=_dual, Z=Dual(0))
        self.arith = dict(ratio=lambda n, d: n * _inverse(d) % P, param=residue,
                          add=lambda a, b: (a + b) % P, mul=lambda a, b: a * b % P,
                          div=lambda a, b: a * _inverse(b) % P,
                          pow=lambda a, e: pow(a, e, P))
        self.zero, self.one = 0, 1

    def const(self, value) -> str:
        return super().const(Dual(value))

    def tagged(self, i: int, v, const, apply) -> tuple:
        self.ns[f"conic{i}"] = functools.partial(conic, v.tag, v.rate)
        w = self.local("w", f"conic{i}(cv(a{i}))")
        return self.local(f"c{i}", f"{w}[0]"), self.local(f"s{i}", f"{w}[1]")


def compile_modular(space, functions, params):
    """``PhaseSpace.compile`` over F_p: one function of the coordinates,
    positions then momenta, each a residue or a ``Dual``."""
    return _walk(Modular(), space.system, [tuple(F.terms.items()) for F in functions],
                 params, space.dim)


def partials_match(fn, coords, width: int) -> list:
    """Evaluate ``fn`` (its first ``width`` outputs functions F, the rest
    their gradients in coordinate order) along each coordinate direction,
    assert that each dual derivative equals the compiled partial, and
    return the values.  ZeroDivisionError rejects the point."""
    n = len(coords)
    for j in range(n):
        out = fn(*[Dual(x, int(k == j)) for k, x in enumerate(coords)])
        for f in range(width):
            grad = out[width + f * n + j]
            assert out[f].d == grad.v, (f, j)
    return [d.v for d in out]


def _random_params(rng) -> dict:
    return {name: rng.randrange(P) for name in PARAMS}


# -- the bench's models ---------------------------------------------------------------

#: The bench's eight builds: its numeric models, and its exact ones.
MODELS = {
    "ttw-1-1": BUILDS["ttw-1-1"] + ["--omega", "sym"],
    "ttw-3-2": BUILDS["ttw-3-2"] + ["--omega", "sym"],
    "cage-4-3": BUILDS["cage-4-3"] + ["--omega", "sym", "--A", "1"],
    "cage-3-2": BUILDS["cage-3-2"] + ["--omega", "sym", "--A", "1"],
    **{name: BUILDS[name] for name in ("ttw-5-3", "cage-5-4", "inline-k+1-4-3",
                                        "inline-k-1-4-3")},
}
POINTS = 10


def _bracket(h, k, dim: int) -> int:
    """{H, K} from the gradients (positions, then momenta) of H and K."""
    return sum(h[i] * k[dim + i] - h[dim + i] * k[i] for i in range(dim)) % P


@pytest.mark.parametrize("name", list(MODELS))
def test_bench_model_partials_and_brackets(name):
    """At 10 points: the compiled partials of H_bar, K_bar and H_plain are
    the dual derivatives, {H_bar, K_bar} is 0, and both controls are not."""
    model = build_model(make_config(["build", *MODELS[name]]))
    space, dim = model.space, model.space.dim
    functions = [model.Hbar, model.Kbar.poly, model.H]
    rng = random.Random(f"modular-{name}")
    params = _random_params(rng)
    scaled = dict(params, omega=params["omega"] * 1001 * _inverse(1000) % P)
    fn = compile_modular(space, functions + [G for F in functions for G in _gradient(F)],
                         params)
    shifted = compile_modular(space, _gradient(model.Kbar.poly), scaled)
    counts = {"H_bar": 0, "H_plain": 0, "omega_shift": 0}
    accepted = rejected = 0
    while accepted < POINTS:
        coords = [rng.randrange(P) for _ in range(2 * dim)]
        try:
            values = partials_match(fn, coords, len(functions))
            k_shift = [d.v for d in shifted(*coords)]
        except ZeroDivisionError:
            rejected += 1
            assert rejected < POINTS, "a denominator vanishes at most points"
            continue
        accepted += 1
        width = len(functions)
        h, k, h_plain = (values[width + f * 2 * dim:width + (f + 1) * 2 * dim]
                         for f in range(width))
        counts["H_bar"] += _bracket(h, k, dim) != 0
        counts["H_plain"] += _bracket(h_plain, k, dim) != 0
        counts["omega_shift"] += _bracket(h, k_shift, dim) != 0
    assert counts == {"H_bar": 0, "H_plain": POINTS, "omega_shift": POINTS}


# -- random polynomials over every tag and rate ---------------------------------------


@functools.lru_cache(maxsize=None)
def _ppolys(name):
    return ppoly_strategy(SPACES[name])


@pytest.mark.parametrize("name", sorted(SPACES))
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_random_partials_match(name, data, seed):
    """The compiled partials of a random polynomial F, and of F times a
    fixed factor in both generators (many an F has no q in it), are their
    dual derivatives at a random point, with omega the rational 2/3."""
    F, space, rng = data.draw(_ppolys(name)), SPACES[name], random.Random(seed)
    sys = space.system
    Fs = [F, F * space.lift(sys.C("q") + sys.S("q") * sys.coord("u"))]
    fn = compile_modular(space, Fs + [G for H in Fs for G in _gradient(H)],
                         dict(_random_params(rng), omega=Q(2, 3)))
    try:
        partials_match(fn, [rng.randrange(P) for _ in range(2 * space.dim)], len(Fs))
    except ZeroDivisionError:
        pass  # a rejected point: nothing to compare


def _outcome(thunk):
    try:
        value = thunk()
    except ZeroDivisionError:
        return "rejected"
    return value.v, value.d


@pytest.mark.parametrize("name", sorted(SPACES))
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_printed_text_is_the_walks_value(name, data, seed):
    """``render``'s text of a random polynomial, ``cos(q)``, ``cosh(2*q)``,
    ``C_3(2/5*q)`` or ``C_-2(3/7*q)`` included, read without hamext, has
    the walk's value and derivative at the same point and tangent."""
    F, space, rng = data.draw(_ppolys(name)), SPACES[name], random.Random(seed)
    names = list(space.coordinate_names)
    point = {n: rng.randrange(P) for n in names + list(PARAMS)}
    tangent = {n: rng.randrange(P) for n in names}
    text = _Text(F.render())
    want = _outcome(lambda: text(Texts(text).namespace(point, tangent)))
    fn = compile_modular(space, [F], {p: point[p] for p in PARAMS})
    assert _outcome(lambda: fn(*[Dual(point[n], tangent[n]) for n in names])[0]) == want


def test_parameters_are_residues_never_floats():
    space = SPACES["circular"]
    F = space.lift(space.system.param("omega") * space.system.S("q"))
    assert compile_modular(space, [F], {"omega": Q(2, 3)})(0, 5, 1, 1)[0].v == 0
    with pytest.raises(TypeError, match="no residue"):
        compile_modular(space, [F], {"omega": 2 / 3})
