#!/usr/bin/env python3
"""Sweep the claim battery across catalog models and print a summary table.

Usage:
    python scripts/verify_catalog.py [--samples N] [--seed S]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hamext.models import CATALOG, catalog_params  # noqa: E402
from hamext.verify import VerifySettings, run_model_verification  # noqa: E402

GRIDS = {
    "ttw": [(1, 1), (2, 1), (1, 2), (3, 2)],
    "cage": [(1, 1), (2, 1), (3, 2), (4, 3)],
    "harmonic": [(1, 1)],
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=60)
    ap.add_argument("--seed", type=int, default=20240901)
    args = ap.parse_args()
    settings = VerifySettings(samples=args.samples, rng_seed=args.seed)

    print(f"{'model':<10} {'(m,n)':<8} {'branch':<12} {'K deg':<6} "
          f"{'claims':<8} {'time':<8} verdict")
    failures = 0
    for name, grid in GRIDS.items():
        params = catalog_params(name)
        for m, n in grid:
            t0 = time.monotonic()
            mdl = CATALOG[name]["builder"](m, n)
            report = run_model_verification(mdl, params, settings)
            dt = time.monotonic() - t0
            n_ok = sum(c.ok for c in report.claims)
            verdict = "ok" if report.all_ok else "FAILED"
            failures += 0 if report.all_ok else 1
            print(f"{name:<10} {f'({m},{n})':<8} {mdl.Kbar.branch:<12} "
                  f"{mdl.Kbar.poly.momentum_degree():<6} "
                  f"{f'{n_ok}/{len(report.claims)}':<8} {dt:<8.2f} {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
