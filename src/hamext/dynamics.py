"""Numerical flow of generated Hamiltonians with conservation monitoring.

Hamilton's equations are compiled once from the exact symbolic partials by
``PhaseSpace.compile``, the compiler of the 50-digit checks of ``verify``,
here in double precision: all ``2*dim`` components form one function, so
a right-hand-side call computes the generators and their powers once, and
so do the monitored invariants at each output row.  The flow is integrated
with an adaptive high-order one-step method, Dormand–Prince 8(5,3)
(``_dop853``, which takes the steps of scipy's DOP853 without scipy).
Conservation claims are checked as drift bounds along trajectories; a
splitting or structure-preserving scheme is deliberately not used because
the position-dependent kinetic coupling has no closed-form sub-flows.

From solver to files a flow is Python floats: the solver's output rows
are lists, the invariant monitor reads them and takes a Python max, and
the trajectory writer formats them as they are, one ``%.16e`` format per
row (17 significant digits).  This module does not import numpy.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from . import _dop853
from ._record import record
from .numeric import SingularEvaluation  # the compiler loads with this module
from .phase import PhasePoint, PhaseSpace, PPoly


# ---------------------------------------------------------------------------
# compilation of exact expressions to float callables


def compile_ppoly(F: PPoly, params: Mapping[str, object]) -> Callable[[Sequence[float]], float]:
    """Compile a momentum polynomial to a fast float function of (q..., p...).

    Denominators are not guarded: at a pole the function raises
    ZeroDivisionError.
    """
    fn = F.space.compile([F], params, guard=0.0)

    def call(y: Sequence[float]) -> float:
        return fn(*y)[0]

    call.source = fn.source  # type: ignore[attr-defined]
    return call


def hamiltons_equations(H: PPoly, params: Mapping[str, object]) -> Callable:
    """Compiled vector field (dq/dt, dp/dt) = (dH/dp, -dH/dq).

    Singular evaluations surface as non-finite components so the adaptive
    integrator can shrink the step and ultimately report failure instead of
    crashing.
    """
    space = H.space
    names = space.position_names
    comps = [H.d_momentum(n) for n in names] + [-H.d_position(n) for n in names]
    fn = space.compile(comps, params, guard=0.0)
    dim = len(comps)

    def field(t: float, y: Sequence[float]) -> List[float]:
        try:
            return fn(*y)
        except (ZeroDivisionError, OverflowError, ValueError):
            return [math.inf] * dim

    return field


# ---------------------------------------------------------------------------
# integration and monitoring


@record(frozen=True)
class TrajectoryConfig:
    """Initial data and error control (``tol`` is relative and absolute)."""

    initial: PhasePoint
    t_final: float
    tol: float = 1e-10
    stride: int = 200                     # number of output samples

    def __post_init__(self):
        # NaN and inf pass a "<= 0" test, and the solver then never ends
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.stride < 2:
            raise ValueError("stride must be at least 2")


@record
class Trajectory:
    space: PhaseSpace
    t: List[float]
    y: List[List[float]]   # one row of 2*dim coordinates per time
    success: bool
    message: str
    nfev: int


def integrate_adaptive(cfg: TrajectoryConfig, fieldfn: Callable) -> Trajectory:
    """Adaptive integration with dense output on the stride grid: DOP853
    (``_dop853.solve``) with ``tol`` as relative and absolute tolerance.

    On singular approach the step control shrinks until the solver aborts;
    the partial trajectory and the solver message are returned rather than
    raised.
    """
    # np.linspace(0, t_final, stride) bit for bit, also where the step
    # underflows to 0 (a subnormal t_final)
    div = cfg.stride - 1
    step = cfg.t_final / div
    t_eval = [i * step if step else i / div * cfg.t_final for i in range(div)]
    t, y, success, message, nfev = _dop853.solve(
        fieldfn, cfg.t_final, cfg.initial.values, cfg.tol, cfg.tol, t_eval + [cfg.t_final])
    return Trajectory(space=cfg.initial.space, t=t, y=y, success=success,
                      message=message, nfev=nfev)


@record
class DriftReport:
    """Per-invariant conservation statistics along a trajectory.

    ``samples`` is the number of output rows; ``nfev`` counts the solver's
    right-hand-side evaluations.
    """

    entries: Dict[str, Dict[str, float]]
    samples: int
    nfev: int
    success: bool
    message: str

    def drift(self, name: str) -> float:
        return self.entries[name]["max_drift"]

    def to_dict(self) -> Dict[str, object]:
        return {
            "success": self.success,
            "message": self.message,
            "samples": self.samples,
            "nfev": self.nfev,
            "invariants": {
                k: {kk: f"{vv:.6e}" for kk, vv in sorted(v.items())}
                for k, v in sorted(self.entries.items())
            },
        }


def invariant_values(traj: Trajectory, invariants: Mapping[str, PPoly],
                     params: Mapping[str, object]) -> Dict[str, List[float]]:
    """The invariants compiled once, as one function evaluated at every
    output row; unguarded, like ``compile_ppoly``."""
    fn = traj.space.compile(list(invariants.values()), params, guard=0.0)
    rows = [fn(*row) for row in traj.y]
    columns = zip(*rows) if rows else [()] * len(invariants)
    return {name: list(col) for name, col in zip(invariants, columns)}


def monitor_invariants(traj: Trajectory, values: Mapping[str, Sequence[float]]) -> DriftReport:
    """Relative drift against the t = 0 value for each monitored function.

    ``values`` holds each function's values along the trajectory, as
    ``invariant_values`` returns them.  Initial values with magnitude below
    1e-10 switch that entry to absolute drift.  An empty trajectory gives
    ``nan`` entries, and a ``nan`` anywhere in a column a ``nan`` drift.
    """
    entries: Dict[str, Dict[str, float]] = {}
    for name, vals in values.items():
        v0 = vals[0] if len(vals) else math.nan
        devs = [abs(v - v0) for v in vals]
        dev = math.nan if any(map(math.isnan, devs)) else max(devs, default=math.nan)
        scale = abs(v0)
        entries[name] = {"initial": v0,
                         "max_drift": dev / scale if scale >= 1e-10 else dev}
    return DriftReport(entries=entries, samples=len(traj.t), nfev=traj.nfev,
                       success=traj.success, message=traj.message)


def write_trajectory(path: str, traj: Trajectory,
                     invariants: Optional[Mapping[str, Sequence[float]]] = None):
    """Delimited text: header row, then t, coordinates, invariant columns.

    Each row is one ``%.16e`` format."""
    names = list(traj.space.coordinate_names)
    inv_names = sorted(invariants) if invariants else []
    row = "\t".join(["%.16e"] * (1 + len(names) + len(inv_names))) + "\n"
    with open(path, "w") as fh:
        fh.write("\t".join(["t"] + names + inv_names) + "\n")
        fh.writelines(row % values for values in
                      zip(traj.t, *zip(*traj.y), *(invariants[k] for k in inv_names)))


def validate_initial_point(point: PhasePoint, functions: Sequence[PPoly],
                           params: Mapping[str, object]):
    """Reject initial data within 1e-9 of a coefficient singularity, or at
    which a monitored function has no finite float value (it overflows)."""
    fn = point.space.compile(functions, params, guard=1e-9)
    try:
        fn(*point.values)
    except SingularEvaluation as exc:
        raise ValueError(
            f"initial point is singular for a monitored function: {exc}"
        ) from exc
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise ValueError(
            f"initial point gives no value of a monitored function: {exc}"
        ) from exc
