"""Numerical flow of generated Hamiltonians with conservation monitoring.

Hamilton's equations are compiled once from the exact symbolic partials by
``PhaseSpace.compile``, the compiler of the 50-digit checks of ``verify``,
here in double precision: all ``2*dim`` components form one function, so
a right-hand-side call computes the generators and their powers once, and
so do the monitored invariants at each output row.  The flow is integrated
with an adaptive high-order one-step method (DOP853 via scipy).
Conservation claims are checked as drift bounds along trajectories; a
splitting or structure-preserving scheme is deliberately not used because
the position-dependent kinetic coupling has no closed-form sub-flows.

Solver rows cross into Python as Python floats (``ndarray.tolist``): the
right-hand side, the invariant monitor and the trajectory writer read no
numpy scalars.  The compiled functions take ``float()`` of each
coordinate first, so the values are bitwise those of ndarray rows.
Trajectories are written as delimited text with 17 significant digits,
one ``%.16e`` format per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .coeffs import SingularEvaluation
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
        # the solver passes an ndarray; the compiled function converts each
        # coordinate with float(), and Python floats convert faster than
        # numpy scalars, to bitwise the same values
        if isinstance(y, np.ndarray):
            y = y.tolist()
        try:
            return fn(*y)
        except (ZeroDivisionError, OverflowError, ValueError):
            return [math.inf] * dim

    return field


# ---------------------------------------------------------------------------
# integration and monitoring


@dataclass(frozen=True)
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


@dataclass
class Trajectory:
    space: PhaseSpace
    t: np.ndarray
    y: np.ndarray          # shape (len(t), 2*dim)
    success: bool
    message: str
    nfev: int


def integrate_adaptive(cfg: TrajectoryConfig, fieldfn: Callable) -> Trajectory:
    """Adaptive integration with dense output on the stride grid.

    On singular approach the step control shrinks until the solver aborts;
    the partial trajectory and the solver message are returned rather than
    raised.
    """
    space = cfg.initial.space
    y0 = np.array(cfg.initial.values, dtype=float)
    t_eval = np.linspace(0.0, cfg.t_final, cfg.stride)
    sol = solve_ivp(fieldfn, (0.0, cfg.t_final), y0, method="DOP853",
                    rtol=cfg.tol, atol=cfg.tol, t_eval=t_eval)
    return Trajectory(space=space, t=sol.t, y=sol.y.T, success=bool(sol.success),
                      message=str(sol.message), nfev=int(sol.nfev))


@dataclass
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
                     params: Mapping[str, object]) -> Dict[str, np.ndarray]:
    """The invariants compiled once, as one function evaluated at every
    output row; unguarded, like ``compile_ppoly``."""
    fn = traj.space.compile(list(invariants.values()), params, guard=0.0)
    rows = [fn(*row) for row in traj.y.tolist()]
    columns = zip(*rows) if rows else [()] * len(invariants)
    return {name: np.array(col, dtype=float) for name, col in zip(invariants, columns)}


def monitor_invariants(traj: Trajectory, values: Mapping[str, np.ndarray]) -> DriftReport:
    """Relative drift against the t = 0 value for each monitored function.

    ``values`` holds each function's values along the trajectory, as
    ``invariant_values`` returns them.  Initial values with magnitude below
    1e-10 switch that entry to absolute drift; an empty trajectory gives
    ``nan`` entries.
    """
    entries: Dict[str, Dict[str, float]] = {}
    for name, vals in values.items():
        v0 = vals[0] if len(vals) else math.nan
        dev = np.max(np.abs(vals - v0)) if len(vals) else math.nan
        scale = abs(v0)
        relative = scale >= 1e-10
        entries[name] = {
            "initial": float(v0),
            "max_drift": float(dev / scale) if relative else float(dev),
        }
    return DriftReport(entries=entries, samples=len(traj.t), nfev=traj.nfev,
                       success=traj.success, message=traj.message)


def write_trajectory(path: str, traj: Trajectory,
                     invariants: Optional[Mapping[str, np.ndarray]] = None):
    """Delimited text: header row, then t, coordinates, invariant columns.

    Each row is one ``%.16e`` format over Python floats."""
    names = list(traj.space.coordinate_names)
    inv_names = sorted(invariants) if invariants else []
    columns = [traj.t.tolist(), *traj.y.T.tolist(),
               *(invariants[k].tolist() for k in inv_names)]
    row = "\t".join(["%.16e"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write("\t".join(["t"] + names + inv_names) + "\n")
        fh.writelines(row % values for values in zip(*columns))


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
