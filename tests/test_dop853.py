"""The in-package DOP853 against scipy's ``solve_ivp(method="DOP853")``.

The two run the same algorithm with the same tableau, so they take the
same steps: equal ``nfev``, the same output times and rows, the same
success flag and message.  Only the round-off of the stage sums differs
(scipy sums through a BLAS kernel, ``_dop853`` left to right), so states
agree to a small multiple of the tolerance, not bitwise.
"""

import random
import warnings

import numpy as np
import pytest

from hamext import PhasePoint, PhaseSpace, Q, Var, VarSystem
from hamext import _dop853
from hamext.cli import _initial_point, build_model, make_config, numeric_params
from hamext.dynamics import TrajectoryConfig, hamiltons_equations, integrate_adaptive

scipy_ivp = pytest.importorskip("scipy.integrate._ivp")
coefficients = scipy_ivp.dop853_coefficients


def _scipy(cfg, field):
    t_eval = np.linspace(0.0, cfg.t_final, cfg.stride)
    return scipy_ivp.solve_ivp(field, (0.0, cfg.t_final), np.array(cfg.initial.values),
                               method="DOP853", rtol=cfg.tol, atol=cfg.tol, t_eval=t_eval)


def test_tableau_is_scipys_bit_for_bit():
    assert (_dop853.N_STAGES, _dop853.N_STAGES_EXTENDED, _dop853.INTERPOLATOR_POWER) == \
        (coefficients.N_STAGES, coefficients.N_STAGES_EXTENDED, coefficients.INTERPOLATOR_POWER)
    size = _dop853.N_STAGES_EXTENDED
    A = np.zeros((size, size))
    for s, row in enumerate(_dop853.A):
        A[s, :s] = row
    for ours, theirs in [(A, coefficients.A), (np.array(_dop853.C), coefficients.C),
                         (np.array(_dop853.B), coefficients.B),
                         (np.array(_dop853.E3), coefficients.E3),
                         (np.array(_dop853.E5), coefficients.E5),
                         (np.array(_dop853.D), coefficients.D)]:
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


FLOW_PARAMS = {
    "ttw": ["--param", "alpha1=5/4", "--param", "alpha2=7/4", "--param", "omega=2/3"],
    "cage": ["--A", "1", "--param", "L0=3/4", "--param", "b=1/2", "--param", "omega=2/3"],
}


@pytest.mark.parametrize("name", sorted(FLOW_PARAMS))
def test_flows_take_scipys_steps(name):
    """ttw(3,2) and cage(3,2) at the benchmark's tolerance and stride, from
    the CLI's default point and three jittered ones.  The last step ends on
    ``t_final``: no evaluation lies beyond it."""
    cfg = make_config(["simulate", "--model", name, "--m", "3", "--n", "2",
                       "--omega", "sym", *FLOW_PARAMS[name]])
    model = build_model(cfg)
    field = hamiltons_equations(model.Hbar, numeric_params(cfg, model))
    base = _initial_point(None, model)
    rng = random.Random(f"dop853-{name}")
    starts = [base] + [PhasePoint(model.space, tuple(v + rng.uniform(-0.01, 0.01)
                                                     for v in base.values))
                       for _ in range(3)]
    for start in starts:
        flow = TrajectoryConfig(initial=start, t_final=8.0, tol=1e-12, stride=5000)
        times = []
        ours = integrate_adaptive(flow, lambda t, y: times.append(t) or field(t, y))
        theirs = _scipy(flow, field)
        assert max(times) == pytest.approx(flow.t_final, rel=1e-14)
        assert ours.success and theirs.success
        assert ours.message == theirs.message
        assert ours.nfev == theirs.nfev
        assert np.array(ours.t).tobytes() == theirs.t.tobytes()
        assert np.array(ours.y).shape == theirs.y.T.shape
        assert np.max(np.abs(np.array(ours.y) - theirs.y.T)) <= 1e-10


@pytest.fixture(scope="module")
def line_space():
    return PhaseSpace(VarSystem([Var.linear("x")]))


@pytest.mark.parametrize("tol", [1e-10, 1e-15])
def test_singular_approach_matches_scipy(line_space, tol):
    """The collapse of ``test_singular_approach_is_graceful``: the same
    failure, message, ``nfev`` and rows, and below 100 eps the same rtol
    warning."""
    xc = line_space.system.coord("x")
    H = line_space.p("x") * line_space.p("x") * Q(1, 2) \
        - line_space.lift(line_space.system.one() / (xc * xc))
    pt = PhasePoint.make(line_space, {"x": 0.8, "p_x": -0.8})
    flow = TrajectoryConfig(initial=pt, t_final=10.0, tol=tol)
    field = hamiltons_equations(H, {})
    caught = []
    for run in (integrate_adaptive, _scipy):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            caught.append((run(flow, field), [(w.category, str(w.message)) for w in seen]))
    (ours, our_warnings), (theirs, their_warnings) = caught
    assert not ours.success and not theirs.success
    assert ours.message == theirs.message
    assert ours.nfev == theirs.nfev
    assert np.array(ours.t).tobytes() == theirs.t.tobytes()
    assert our_warnings == their_warnings
    assert len(our_warnings) == (tol < 100 * _dop853.EPS)



def test_rms_sums_left_to_right():
    # a compensated sum (Python 3.12's sum() of floats) would keep the
    # hundred 1e-16 squares that a left-to-right sum drops against 1.0
    assert _dop853._rms([1.0] + [1e-8] * 100) == 1.0 / 101 ** 0.5
