#!/usr/bin/env python3
"""Conservation drift of the modified integrals as a function of solver
tolerance, for one trajectory of the rational-parameter-2 system.

Writes a TSV (tolerance, drift of H, K, L, wall time) to stdout or --out.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hamext import PhasePoint, ttw_model  # noqa: E402
from hamext.dynamics import (TrajectoryConfig, hamiltons_equations,  # noqa: E402
                             integrate_adaptive, invariant_values,
                             monitor_invariants)
from hamext.models import catalog_params  # noqa: E402

PARAMS = catalog_params("ttw")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-final", type=float, default=100.0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    mdl = ttw_model(2, 1)
    field = hamiltons_equations(mdl.Hbar, PARAMS)
    invs = {"H": mdl.Hbar, "K": mdl.Kbar.poly, "L": mdl.L}
    point = PhasePoint.make(mdl.space, {"q": 0.8, "u": 0.9,
                                        "p_q": 0.3, "p_u": -0.2})
    rows = ["tol\tdrift_H\tdrift_K\tdrift_L\tseconds"]
    for exp in range(6, 13):
        tol = 10.0 ** -exp
        cfg = TrajectoryConfig(initial=point, t_final=args.t_final, tol=tol)
        t0 = time.monotonic()
        traj = integrate_adaptive(cfg, field)
        drift = monitor_invariants(traj, invariant_values(traj, invs, PARAMS))
        rows.append("\t".join(
            [f"{tol:.0e}"]
            + [f"{drift.drift(k):.3e}" for k in ("H", "K", "L")]
            + [f"{time.monotonic() - t0:.2f}"]))
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
