import math
import random

import numpy as np
import pytest

from hamext import PhasePoint, PhaseSpace, Q, Var, VarSystem, ttw_model
from hamext.dynamics import (Trajectory, TrajectoryConfig, compile_ppoly,
                             hamiltons_equations, integrate_adaptive,
                             invariant_values, monitor_invariants,
                             validate_initial_point, write_trajectory)


@pytest.fixture(scope="module")
def line_space():
    return PhaseSpace(VarSystem([Var.linear("x")]))


def _free_H(space):
    return space.p("x") * space.p("x") * Q(1, 2)


def _harmonic_H(space):
    x = space.lift(space.system.coord("x"))
    return space.p("x") * space.p("x") * Q(1, 2) + x * x * Q(1, 2)


def test_field_free_particle(line_space):
    field = hamiltons_equations(_free_H(line_space), {})
    out = field(0.0, [0.3, 0.8])
    assert out == pytest.approx([0.8, 0.0])


def test_field_oscillator(line_space):
    space = line_space
    x = space.lift(space.system.coord("x"))
    L0 = 0.7
    H = space.p("x") * space.p("x") * Q(1, 2) \
        + space.lift(space.system.param("L0")) * x * x
    field = hamiltons_equations(H, {"L0": L0})
    out = field(0.0, [0.5, -0.2])
    assert out == pytest.approx([-0.2, -2 * L0 * 0.5])


def test_field_matches_fd_gradient(ttw11, ttw_params):
    H = ttw11.Hbar
    field = hamiltons_equations(H, ttw_params)
    fn = compile_ppoly(H, ttw_params)
    y = [0.7, 0.9, 0.3, -0.4]
    got = field(0.0, y)
    h = 1e-6
    for i, sign in [(2, 1), (3, 1), (0, -1), (1, -1)]:
        yp = list(y); yp[i] += h
        ym = list(y); ym[i] -= h
        fd = (fn(yp) - fn(ym)) / (2 * h)
        slot = i - 2 if i >= 2 else i + 2
        assert got[slot] == pytest.approx(sign * fd, rel=1e-6, abs=1e-8)


def test_field_and_invariants_match_each_function(ttw11, ttw_params):
    """The joint vector field and invariant rows give bitwise the values of
    compiling each component alone."""
    H, K = ttw11.Hbar, ttw11.Kbar.poly
    names = H.space.position_names
    comps = [H.d_momentum(n) for n in names] + [-H.d_position(n) for n in names]
    alone = [compile_ppoly(F, ttw_params) for F in comps]
    field = hamiltons_equations(H, ttw_params)
    pt = PhasePoint.make(H.space, {"q": 0.7, "u": 0.9, "p_q": 0.3, "p_u": -0.4})
    cfg = TrajectoryConfig(initial=pt, t_final=0.5, stride=4)
    traj = integrate_adaptive(cfg, field)
    for y in traj.y:
        assert [v.hex() for v in field(0.0, y)] == [fn(y).hex() for fn in alone]
    values = invariant_values(traj, {"H": H, "K": K}, ttw_params)
    for name, F in (("H", H), ("K", K)):
        fn = compile_ppoly(F, ttw_params)
        assert [v.hex() for v in values[name]] == [fn(y).hex() for y in traj.y]


def test_empty_trajectory_gives_nan_entries(line_space):
    H = _free_H(line_space)
    traj = Trajectory(space=line_space, t=[], y=[], success=False, message="no step", nfev=0)
    values = invariant_values(traj, {"H": H}, {})
    assert values["H"] == []
    report = monitor_invariants(traj, values)
    assert math.isnan(report.entries["H"]["initial"])
    assert math.isnan(report.drift("H"))
    assert report.samples == 0


def test_free_particle_trajectory(line_space):
    pt = PhasePoint.make(line_space, {"x": 0.0, "p_x": 1.0})
    cfg = TrajectoryConfig(initial=pt, t_final=10.0, tol=1e-12)
    traj = integrate_adaptive(cfg, hamiltons_equations(_free_H(line_space), {}))
    assert traj.success
    assert traj.y[-1][0] == pytest.approx(10.0, abs=1e-10)


def test_harmonic_period_closure(line_space):
    pt = PhasePoint.make(line_space, {"x": 1.0, "p_x": 0.0})
    cfg = TrajectoryConfig(initial=pt, t_final=2 * math.pi, tol=1e-10)
    traj = integrate_adaptive(cfg, hamiltons_equations(_harmonic_H(line_space), {}))
    assert traj.success
    assert np.allclose(traj.y[-1], [1.0, 0.0], atol=1e-8)


def test_reversibility(line_space):
    tol = 1e-10
    pt = PhasePoint.make(line_space, {"x": 1.0, "p_x": 0.0})
    field = hamiltons_equations(_harmonic_H(line_space), {})
    cfg = TrajectoryConfig(initial=pt, t_final=3.0, tol=tol)
    fwd = integrate_adaptive(cfg, field)

    def reversed_field(t, y):
        out = field(t, y)
        return [-v for v in out]

    end = PhasePoint.make(line_space, {"x": fwd.y[-1][0], "p_x": fwd.y[-1][1]})
    back = integrate_adaptive(
        TrajectoryConfig(initial=end, t_final=3.0, tol=tol),
        reversed_field)
    assert back.success
    assert np.max(np.abs(back.y[-1] - np.array([1.0, 0.0]))) < 10 * tol


def test_drift_and_negative_control(ttw_params):
    mdl = ttw_model(2, 1)
    pt = PhasePoint.make(mdl.space, {"q": 0.8, "u": 0.9, "p_q": 0.3, "p_u": -0.2})
    cfg = TrajectoryConfig(initial=pt, t_final=20.0, tol=1e-12)
    traj = integrate_adaptive(cfg, hamiltons_equations(mdl.Hbar, ttw_params))
    assert traj.success
    invs = {"H": mdl.Hbar, "K": mdl.Kbar.poly, "L": mdl.L,
            "p_u": mdl.space.p("u")}
    drift = monitor_invariants(traj, invariant_values(traj, invs, ttw_params))
    assert drift.drift("H") < 1e-9
    assert drift.drift("K") < 1e-8
    assert drift.drift("L") < 1e-9
    assert drift.drift("p_u") > 1e-2  # not conserved


def test_tolerance_halving_monotonicity(ttw_params):
    mdl = ttw_model(1, 1)
    pt = PhasePoint.make(mdl.space, {"q": 0.8, "u": 0.9, "p_q": 0.3, "p_u": -0.2})
    drifts = []
    for tol in (1e-8, 5e-9):
        cfg = TrajectoryConfig(initial=pt, t_final=20.0, tol=tol)
        traj = integrate_adaptive(cfg, hamiltons_equations(mdl.Hbar, ttw_params))
        values = invariant_values(traj, {"H": mdl.Hbar}, ttw_params)
        drifts.append(monitor_invariants(traj, values).drift("H"))
    assert drifts[1] <= 2 * drifts[0]


def test_singular_approach_is_graceful(line_space):
    # attractive inverse-square pull: collapse in finite time, partial result
    space = line_space
    xc = space.system.coord("x")
    H = space.p("x") * space.p("x") * Q(1, 2) - space.lift(space.system.one() / (xc * xc))
    pt = PhasePoint.make(space, {"x": 0.8, "p_x": -0.8})
    cfg = TrajectoryConfig(initial=pt, t_final=10.0, tol=1e-10)
    traj = integrate_adaptive(cfg, hamiltons_equations(H, {}))
    assert not traj.success
    assert traj.message
    assert len(traj.t) >= 1 and traj.t[-1] < 10.0


def test_no_step_gives_an_empty_trajectory(line_space):
    """A field that is never finite fails the first step: the trajectory
    is empty, with the solver's message."""
    pt = PhasePoint.make(line_space, {"x": 0.8, "p_x": -0.8})
    traj = integrate_adaptive(TrajectoryConfig(initial=pt, t_final=1.0),
                              lambda t, y: [math.inf] * 2)
    assert not traj.success
    assert traj.message == "Required step size is less than spacing between numbers."
    assert traj.t == [] and traj.y == []


def test_validate_initial_point(ttw11, ttw_params):
    good = PhasePoint.make(ttw11.space, {"q": 0.7, "u": 0.9, "p_q": 0.1, "p_u": 0.1})
    validate_initial_point(good, [ttw11.Hbar, ttw11.Kbar.poly], ttw_params)
    bad = PhasePoint.make(ttw11.space, {"q": 0.0, "u": 0.9, "p_q": 0.1, "p_u": 0.1})
    with pytest.raises(ValueError):
        validate_initial_point(bad, [ttw11.Hbar], ttw_params)


def test_write_trajectory_format(tmp_path, line_space):
    pt = PhasePoint.make(line_space, {"x": 0.25, "p_x": 1.0})
    cfg = TrajectoryConfig(initial=pt, t_final=1.0, tol=1e-8, stride=5)
    H = _free_H(line_space)
    traj = integrate_adaptive(cfg, hamiltons_equations(H, {}))
    vals = invariant_values(traj, {"H": H}, {})
    path = tmp_path / "traj.tsv"
    write_trajectory(str(path), traj, vals)
    lines = path.read_text().splitlines()
    assert lines[0] == "t\tx\tp_x\tH"
    assert len(lines) == 6
    first = lines[1].split("\t")
    assert first[1] == f"{0.25:.16e}"


def test_config_validation(line_space):
    pt = PhasePoint.make(line_space, {"x": 0.0, "p_x": 1.0})
    with pytest.raises(ValueError):
        TrajectoryConfig(initial=pt, t_final=-1.0)
    with pytest.raises(ValueError):
        TrajectoryConfig(initial=pt, t_final=1.0, tol=0.0)
    with pytest.raises(ValueError):
        TrajectoryConfig(initial=pt, t_final=1.0, stride=1)
    # NaN and inf pass a "<= 0" test, and the solver never ends on them
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="t_final must be positive and finite"):
            TrajectoryConfig(initial=pt, t_final=bad)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            TrajectoryConfig(initial=pt, t_final=1.0, tol=bad)


# -- solver rows as Python floats --------------------------------------------

def _old_write_trajectory(path, traj, invariants=None):
    """Oracle: the row-by-row writer that formatted numpy scalars."""
    names = list(traj.space.coordinate_names)
    inv_names = sorted(invariants) if invariants else []
    with open(path, "w") as fh:
        fh.write("\t".join(["t"] + names + inv_names) + "\n")
        for i, t in enumerate(traj.t):
            row = [f"{t:.16e}"] + [f"{v:.16e}" for v in traj.y[i]]
            row += [f"{invariants[k][i]:.16e}" for k in inv_names]
            fh.write("\t".join(row) + "\n")


#: values whose text is easy to get wrong: signed zero, non-finite, subnormal,
#: the extremes of the double range and values with 17 significant digits
AWKWARD = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308,
           1.7976931348623157e308, -1e300, 1e-17, 1 / 3, -123456789.12345679]


def test_write_trajectory_matches_the_row_by_row_writer(tmp_path, line_space):
    rng = np.random.default_rng(11)
    n = len(AWKWARD)
    t = np.array(AWKWARD)
    y = np.column_stack([np.array(AWKWARD[::-1]), rng.standard_normal(n) * 1e5])
    invariants = {"K": rng.permutation(np.array(AWKWARD)), "H": rng.standard_normal(n)}
    cases = [
        (Trajectory(space=line_space, t=t, y=y, success=True, message="", nfev=0),
         invariants),
        (Trajectory(space=line_space, t=t[:3], y=y[:3], success=True, message="",
                    nfev=0), None),
        (Trajectory(space=line_space, t=np.array([]), y=np.empty((0, 2)),
                    success=False, message="no step", nfev=0),
         {"H": np.array([])}),
    ]
    for traj, invs in cases:
        want, got = tmp_path / "want.tsv", tmp_path / "got.tsv"
        _old_write_trajectory(str(want), traj, invs)
        write_trajectory(str(got), traj, invs)
        assert got.read_bytes() == want.read_bytes()


def test_field_takes_arrays_and_lists_bitwise(ttw11, ttw_params):
    """The field reads ndarray rows as Python floats: bitwise the values of
    calling the compiled function on the numpy scalars, and of a list."""
    H = ttw11.Hbar
    names = H.space.position_names
    comps = [H.d_momentum(n) for n in names] + [-H.d_position(n) for n in names]
    fn = H.space.compile(comps, ttw_params, guard=0.0)
    field = hamiltons_equations(H, ttw_params)
    rng = np.random.default_rng(5)
    for y in rng.uniform(0.2, 1.3, size=(40, 4)):
        got = field(0.0, y)
        assert all(type(v) is float for v in got)
        want = [v.hex() for v in fn(*y)]
        assert [v.hex() for v in got] == want
        assert [v.hex() for v in field(0.0, y.tolist())] == want


def test_invariant_values_match_the_per_row_loop(ttw11, ttw_params):
    H, K = ttw11.Hbar, ttw11.Kbar.poly
    pt = PhasePoint.make(H.space, {"q": 0.7, "u": 0.9, "p_q": 0.3, "p_u": -0.4})
    cfg = TrajectoryConfig(initial=pt, t_final=3.0, stride=50)
    traj = integrate_adaptive(cfg, hamiltons_equations(H, ttw_params))
    invs = {"K": K, "H": H}
    # oracle: the loop over ndarray rows, one column gathered at a time
    fn = H.space.compile(list(invs.values()), ttw_params, guard=0.0)
    rows = [fn(*row) for row in np.array(traj.y)]
    want = {name: [row[i].hex() for row in rows] for i, name in enumerate(invs)}
    got = invariant_values(traj, invs, ttw_params)
    assert list(got) == list(want)
    for name in want:
        assert all(type(v) is float for v in got[name])
        assert [v.hex() for v in got[name]] == want[name]


@pytest.mark.parametrize("stride", [2, 3, 7, 200, 4999, 5000])
def test_output_times_are_linspace_bit_for_bit(line_space, stride):
    """The output times of a completed flow are ``np.linspace(0, t_final,
    stride)``, also where the step underflows to 0 (a subnormal t_final)."""
    pt = PhasePoint.make(line_space, {"x": 0.5, "p_x": 0.0})
    rng = random.Random(f"linspace-{stride}")
    finals = [5e-324, 1e-323, 1e-320, 2.2250738585072014e-308, 1e-300, 1 / 3, 1.0,
              2 * math.pi, 8.0, 40.0, 100.0, 1e300, 1.7976931348623157e308]
    finals += [rng.random() * 10.0 ** rng.uniform(-320, 300) for _ in range(10)]
    for t_final in finals:
        cfg = TrajectoryConfig(initial=pt, t_final=t_final, stride=stride)
        traj = integrate_adaptive(cfg, lambda t, y: [0.0, 0.0])
        with np.errstate(over="ignore"):  # numpy scales its last entry too, then sets it
            want = np.linspace(0.0, t_final, stride).tolist()
        assert traj.success
        assert [t.hex() for t in traj.t] == [t.hex() for t in want], t_final


def test_drift_matches_numpys_max_and_keeps_nan(line_space):
    """``max_drift`` is bitwise ``np.max(np.abs(vals - vals[0]))`` over the
    column, scaled as documented: a NaN in any row, not only in row 0,
    gives a NaN drift, as ``np.max`` does."""
    rng = random.Random(17)
    base = [rng.uniform(-3.0, 3.0) for _ in range(9)]
    columns = {"plain": base, "tiny": [v * 1e-12 for v in base],
               "nan_first": [math.nan] + base[1:], "nan_middle": base[:4] + [math.nan] + base[5:],
               "nan_last": base[:-1] + [math.nan], "inf_middle": base[:4] + [math.inf] + base[5:],
               "inf_first": [-math.inf] + base[1:], "awkward": AWKWARD}
    traj = Trajectory(space=line_space, t=[], y=[], success=True, message="", nfev=0)
    report = monitor_invariants(traj, columns)
    with np.errstate(invalid="ignore"):
        for name, vals in columns.items():
            dev = np.max(np.abs(np.array(vals) - vals[0]))
            want = dev / abs(vals[0]) if abs(vals[0]) >= 1e-10 else dev
            assert report.drift(name).hex() == float(want).hex(), name
            assert report.entries[name]["initial"].hex() == vals[0].hex()
    for name in ("nan_first", "nan_middle", "nan_last"):
        assert math.isnan(report.drift(name))
