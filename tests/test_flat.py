"""The flat zero test against the ring's bracket, its oracle.

``bracket_is_zero(H, K)`` must read exactly ``H.poisson(K).is_zero``: on
the catalog and inline models (zero), on defects that must be caught
(nonzero), on random pairs over tagged variables of several tags, a
rational rate and multi-term denominators, and on pairs that commute by
construction.  The failure path of ``verify`` is pinned byte for byte.
"""

import hashlib

import pytest
from hypothesis import given, strategies as st

from hamext import (ParamPoly, PhaseSpace, PhaseSpaceMismatch, Q, Var, VarSystem,
                    cage_model, harmonic_model, ttw_model)
from hamext.cli import EXIT_CLAIM, build_model, main, make_config
from hamext.flat import bracket_is_zero
from hamext.verify import symbolic_commute_check

INLINE_V = "(c1 + c2*cos(q))/sin(q)^2"


def _inline(kappa):
    return build_model(make_config(
        ["build", "--model", "inline", "--c", "1", "--kappa", str(kappa), "--A", "1",
         "--omega", "sym", "--V", INLINE_V, "--eta", "sin(q)", "--m", "4", "--n", "3"]))


MODELS = {
    "ttw-1-1": lambda: ttw_model(1, 1),
    "ttw-3-2": lambda: ttw_model(3, 2),
    "ttw-5-3": lambda: ttw_model(5, 3),
    "cage-3-2": lambda: cage_model(3, 2),
    "cage-4-3": lambda: cage_model(4, 3),
    "cage-5-4": lambda: cage_model(5, 4),
    "harmonic-4-3": lambda: harmonic_model(4, 3),
    "inline-k+1-4-3": lambda: _inline(1),
    "inline-k-1-4-3": lambda: _inline(-1),
}


@pytest.fixture(scope="module")
def built():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = MODELS[name]()
        return cache[name]
    return get


def _agree(H, K) -> bool:
    verdict = bracket_is_zero(H, K)
    assert verdict == H.poisson(K).is_zero
    return verdict


def _scaled(K, name, factor=Q(1001, 1000)):
    return K.substitute({name: ParamPoly.var(name).scale(factor)})


@pytest.mark.parametrize("name", sorted(MODELS))
def test_models_commute(built, name):
    model = built(name)
    assert _agree(model.Hbar, model.Kbar.poly)
    assert _agree(model.Kbar.poly, model.Hbar)


@pytest.mark.parametrize("name", ["ttw-1-1", "ttw-3-2", "ttw-5-3", "cage-3-2",
                                  "cage-4-3", "cage-5-4"])
def test_omega_shift_defect_is_nonzero(built, name):
    model = built(name)
    assert not _agree(model.Hbar, _scaled(model.Kbar.poly, "omega"))


@pytest.mark.parametrize("name", ["inline-k+1-4-3", "inline-k-1-4-3"])
@pytest.mark.parametrize("param", ["c1", "omega"])
def test_inline_shift_defects_are_nonzero(built, name, param):
    model = built(name)
    assert not _agree(model.Hbar, _scaled(model.Kbar.poly, param))


def test_omega_deleted_hamiltonian_is_nonzero(built):
    model = built("ttw-1-1")
    sysv = model.space.system
    u = sysv.coord("u")
    H_no_omega = model.Hbar - model.space.lift(sysv.param("omega") * u * u)
    assert not _agree(H_no_omega, model.Kbar.poly)


# -- random pairs ---------------------------------------------------------------

TAGS = [Q(1), Q(-1), Q(3), Q(-2)]
RATES = [Q(1), Q(3, 2)]
_SCALARS = [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)]
_PNAMES = ["c1", "omega"]


def _coeff_atoms(sysv):
    S, C, u = sysv.S("q"), sysv.C("q"), sysv.coord("u")
    one = sysv.one()
    atoms = [sysv.scalar(s) for s in _SCALARS] + [sysv.param(p) for p in _PNAMES]
    atoms += [S, C, u, one / u, S / u, C / u]
    # a C in a denominator monomial, and (u + S)-type multi-term factors
    atoms += [one / C, S / (C * u), one / (u + S), sysv.param("c1") / (u + S) ** 2,
              C / (u + C + 1)]
    return atoms


def _ppolys(space, leaves=4):
    sysv = space.system
    coeffs = st.recursive(
        st.sampled_from(_coeff_atoms(sysv)),
        lambda ch: st.one_of(
            st.tuples(ch, ch).map(lambda ab: ab[0] + ab[1]),
            st.tuples(ch, ch).map(lambda ab: ab[0] * ab[1])),
        max_leaves=3)
    term = st.tuples(coeffs, st.integers(0, 2), st.integers(0, 2)).map(
        lambda t: space.lift(t[0]) * space.p("q") ** t[1] * space.p("u") ** t[2])
    return st.lists(term, min_size=1, max_size=leaves).map(
        lambda ts: sum(ts[1:], ts[0]))


@st.composite
def spaces(draw):
    q = Var.tagged("q", draw(st.sampled_from(TAGS)), draw(st.sampled_from(RATES)))
    return PhaseSpace(VarSystem([q, Var.linear("u")]), ext="u")


@st.composite
def pairs(draw):
    space = draw(spaces())
    return draw(_ppolys(space)), draw(_ppolys(space))


@given(pairs())
def test_random_pairs_match_the_ring(pair):
    F, G = pair
    _agree(F, G)


@given(st.data())
def test_functions_of_one_another_commute(data):
    space = data.draw(spaces())
    F = data.draw(_ppolys(space, leaves=2))
    assert _agree(F, F * F)
    assert _agree(F, F * F * F * 2 - F)


def test_two_tagged_variables():
    sysv = VarSystem([Var.tagged("q", 3), Var.tagged("u", -2, Q(1, 2))])
    space = PhaseSpace(sysv, ext="u")
    Sq, Cq, Su, Cu = sysv.S("q"), sysv.C("q"), sysv.S("u"), sysv.C("u")
    F = (space.p("q") * space.p("u") * space.lift(Cq * Cu / Sq)
         + space.lift(sysv.one() / (Su + Cq)))
    assert _agree(F, F * F * 2 - F)
    assert not _agree(F, space.p("u") * space.lift(Cu))


# -- packed fields ----------------------------------------------------------------


def _power_pair(space, e):
    u = space.system.coord("u")
    return space.lift(u ** e) * space.p("u"), space.lift(u ** e) * space.p("q")


def test_large_exponents_decide_exactly(qu_space):
    # far beyond 8-bit fields, within 16-bit ones
    sysv = qu_space.system
    F = qu_space.lift(sysv.coord("u") ** 300) * qu_space.p("u") + qu_space.lift(sysv.S("q"))
    assert _agree(F, F * F)
    assert not _agree(*_power_pair(qu_space, 5000))
    assert _agree(*(2 * [_power_pair(qu_space, 5000)[0]]))


@pytest.mark.parametrize("e", [20000, 40000])
def test_field_that_would_carry_raises(qu_space, e):
    with pytest.raises(ArithmeticError, match="carry"):
        bracket_is_zero(*_power_pair(qu_space, e))


def test_different_spaces_raise(qu_space):
    other = PhaseSpace(VarSystem([Var.circular("q"), Var.linear("u")]), ext="q")
    with pytest.raises(PhaseSpaceMismatch):
        bracket_is_zero(qu_space.p("q"), other.p("q"))
    with pytest.raises(PhaseSpaceMismatch):
        qu_space.p("q").poisson(other.p("q"))


# -- the failure path of verify, byte for byte ---------------------------------------

# sha256 of `hamext verify --model ttw --m M --n N --inject-defect omega-shift`,
# recorded while the ring's bracket was the zero test
DEFECT_REPORTS = {
    (1, 1): "74fcf359749c61a744d6fdd6c4940d6ff8a216baf2452622d88cbce1ab649007",
    (3, 2): "12bdff7ba5b8af0b955770517fb2bd14f964adf6295c3ce29c3d2d44cabf59d0",
}
OMEGA_DELETED_RESIDUAL = (
    3, "153ee428de588c32059416df4298fb5c422590d247b2af63d9c878baa2e13ffd")


@pytest.mark.parametrize("m,n", sorted(DEFECT_REPORTS))
def test_defect_report_pin(m, n, capsys):
    argv = ["verify", "--model", "ttw", "--m", str(m), "--n", str(n),
            "--inject-defect", "omega-shift"]
    assert main(argv) == EXIT_CLAIM
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == DEFECT_REPORTS[(m, n)]


def test_omega_deleted_residual_pin(built):
    model = built("ttw-1-1")
    sysv = model.space.system
    u = sysv.coord("u")
    H_no_omega = model.Hbar - model.space.lift(sysv.param("omega") * u * u)
    ok, resid = symbolic_commute_check(H_no_omega, model.Kbar.poly)
    assert not ok
    assert (len(resid.terms), hashlib.sha256(resid.render().encode()).hexdigest()) \
        == OMEGA_DELETED_RESIDUAL
