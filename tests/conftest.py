import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from hamext import ParamPoly, PhaseSpace, Q, Var, VarSystem, ttw_model

settings.register_profile(
    "hamext",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("hamext")


@pytest.fixture(scope="session")
def qu_system():
    return VarSystem([Var.circular("q"), Var.linear("u")])


@pytest.fixture(scope="session")
def qu_space(qu_system):
    return PhaseSpace(qu_system, ext="u")


@pytest.fixture(scope="session")
def ttw11():
    return ttw_model(1, 1)


@pytest.fixture(scope="session")
def ttw_params():
    return {"alpha1": 1.25, "alpha2": 1.75, "omega": 2.0 / 3.0}


@pytest.fixture()
def rng():
    return random.Random(1234)


# -- hypothesis strategies ----------------------------------------------------

_SCALARS = [Q(1), Q(2), Q(-1), Q(1, 2), Q(-3, 4)]
_PNAMES = ["c1", "c2", "omega", "L0"]


def parampoly_strategy():
    atom = st.sampled_from([ParamPoly.scalar(s) for s in _SCALARS]
                           + [ParamPoly.var(p) for p in _PNAMES])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
        )

    return st.recursive(atom, extend, max_leaves=6)


def coeff_atoms(sys):
    atoms = [sys.scalar(s) for s in _SCALARS]
    atoms += [sys.param(p) for p in _PNAMES]
    atoms += [sys.S("q"), sys.C("q"), sys.coord("u")]
    atoms += [sys.one() / sys.coord("u"), sys.S("q") / sys.coord("u")]
    # multi-term denominators exercise the factored-denominator paths
    atoms += [sys.one() / (sys.coord("u") + 1),
              sys.param("c1") / (sys.coord("u") + sys.S("q")) ** 2]
    return atoms


def coeff_strategy(sys, max_depth=3):
    atom = st.sampled_from(coeff_atoms(sys))

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
            children.map(lambda a: -a),
        )

    return st.recursive(atom, extend, max_leaves=6)


def ppoly_strategy(space):
    sys = space.system
    coeffs = coeff_strategy(sys)
    base = st.one_of(
        coeffs.map(space.lift),
        st.just(space.p("q")),
        st.just(space.p("u")),
        st.tuples(coeffs, st.integers(0, 2), st.integers(0, 2)).map(
            lambda t: space.lift(t[0]) * space.p("q") ** t[1] * space.p("u") ** t[2]
        ),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
        )

    return st.recursive(base, extend, max_leaves=4)
