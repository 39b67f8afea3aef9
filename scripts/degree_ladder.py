#!/usr/bin/env python3
"""Build and exact-bracket cost over a ladder of growing K_bar degree.

Each rung builds one catalog model in a fresh process, then decides
{H_bar, K_bar} = 0 twice: with the flat kernel (``flat.bracket_is_zero``,
the production zero test) and with the ring's ``PPoly.poisson``.  One TSV
row per rung gives the times, the sizes of K_bar, the largest numerator
and denominator bit lengths of its rational coefficients, and the peak
RSS (``ru_maxrss``) read after the build, after the flat test and after
the ring bracket.  ``gc_s`` is the part of ``build_s`` that CPython's
cyclic collector took (read with ``gc.callbacks``): the library builds
with the collector on, while ``hamext`` commands run with it paused.  A
closing comment per model fits the exponent of each time against the
K_bar degree.  The exit status is 1 if the two verdicts differ on any
rung (or a rung fails), else 0.

Usage:
    python scripts/degree_ladder.py [--rungs N]
"""

import argparse
import gc
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

LADDER = {
    "ttw": [(3, 2), (5, 3), (7, 4), (9, 5), (11, 7), (13, 8)],
    "cage": [(4, 3), (5, 4), (7, 5), (9, 7), (11, 9)],
}

COLUMNS = ["model", "m", "n", "K_degree", "K_terms", "gen_terms", "param_terms",
           "num_bits", "den_bits", "build_s", "gc_s", "bracket_s", "ring_bracket_s",
           "rss_build_mb", "rss_flat_mb", "rss_ring_mb", "flat", "ring"]
TIMES = ["build_s", "bracket_s", "ring_bracket_s"]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def collector_seconds(run):
    """run() and the seconds the cyclic collector took during it."""
    spent, started = 0.0, 0.0

    def clock(phase, info):
        nonlocal spent, started
        if phase == "start":
            started = time.perf_counter()
        else:
            spent += time.perf_counter() - started

    gc.callbacks.append(clock)
    try:
        result = run()
    finally:
        gc.callbacks.remove(clock)
    return result, spent


def measure(model: str, m: int, n: int) -> dict:
    """One rung, in this process."""
    from hamext.flat import bracket_is_zero
    from hamext.models import CATALOG

    t0 = time.perf_counter()
    spec, gc_s = collector_seconds(lambda: CATALOG[model]["builder"](m, n))
    t1 = time.perf_counter()
    rss_build = _rss_mb()
    H, K = spec.Hbar, spec.Kbar.poly
    flat = bracket_is_zero(H, K)
    t2 = time.perf_counter()
    rss_flat = _rss_mb()
    ring = H.poisson(K).is_zero
    t3 = time.perf_counter()
    pps = [pp for c in K.terms.values() for pp in c.num.terms.values()]
    return {
        "model": model, "m": m, "n": n,
        "K_degree": K.momentum_degree(), "K_terms": len(K.terms),
        "gen_terms": sum(len(c.num.terms) for c in K.terms.values()),
        "param_terms": sum(len(pp.nums) for pp in pps),
        "num_bits": max(abs(v).bit_length() for pp in pps for v in pp.nums.values()),
        "den_bits": max(pp.den.bit_length() for pp in pps),
        "build_s": t1 - t0, "gc_s": gc_s, "bracket_s": t2 - t1, "ring_bracket_s": t3 - t2,
        "rss_build_mb": rss_build, "rss_flat_mb": rss_flat, "rss_ring_mb": _rss_mb(),
        "flat": flat, "ring": ring,
    }


def _cell(value) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def fit_exponent(rows, key: str) -> float:
    """Least-squares slope of log(time) against log(K degree)."""
    xs = [math.log(r["K_degree"]) for r in rows]
    ys = [math.log(r[key]) for r in rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rungs", type=int, default=None,
                    help="run only the first N rungs of each model")
    ap.add_argument("--rung", nargs=3, metavar=("MODEL", "M", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.rung:
        model, m, n = args.rung
        print(json.dumps(measure(model, int(m), int(n))))
        return 0

    print("\t".join(COLUMNS), flush=True)
    failed = False
    for model, ladder in LADDER.items():
        rows = []
        for m, n in ladder[:args.rungs]:
            proc = subprocess.run([sys.executable, __file__, "--rung", model, str(m), str(n)],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"# {model}({m},{n}) failed:\n{proc.stderr}", file=sys.stderr)
                failed = True
                continue
            row = json.loads(proc.stdout)
            rows.append(row)
            print("\t".join(_cell(row[c]) for c in COLUMNS), flush=True)
            if row["flat"] != row["ring"]:
                print(f"# {model}({m},{n}): the flat and ring verdicts differ",
                      file=sys.stderr)
                failed = True
        if len(rows) >= 2:
            fits = ", ".join(f"{key} ~ degree^{fit_exponent(rows, key):.2f}" for key in TIMES)
            print(f"# {model}: {fits}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
