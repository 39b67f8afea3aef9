"""Workload job lists, and the inputs each one derives from a seed.

A job is one ``hamext`` command line plus an optional step the worker runs
after ``cli.main`` returns (the exact bracket on the built model).  Every
job states every input it uses, so a later change to a CLI default cannot
silently change a workload.

The job groups follow the four job lists of the benchmark's design
(exact catalog builds, exact inline builds, the verify battery, long
flows), scaled so that one pass over a workload takes about ten seconds
on a 2-core machine: a run repeats the list and reports medians, which is
what keeps the figures steady on a shared host.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: The CLI's default ``--seed``.  At this workload seed, verify reports must
#: match their pins byte for byte and flow jobs use the CLI's default
#: initial point.
DEFAULT_SEED = 20240901

#: Numeric parameter values, the catalog defaults, stated on every job.
CATALOG_PARAMS: Dict[str, Dict[str, str]] = {
    "ttw": {"alpha1": "5/4", "alpha2": "7/4", "omega": "2/3"},
    "cage": {"L0": "3/4", "b": "1/2", "omega": "2/3", "A": "1"},
}

INLINE_V = "(c1 + c2*cos(q))/sin(q)^2"
INLINE_ETA = "sin(q)"

VERIFY_SAMPLES = 40
VERIFY_PRECISION = 50
FLOW_T_FINAL = 40.0
FLOW_TOL = 1e-12
FLOW_STRIDE = 5000
FLOW_X0_JITTER = 0.01


@dataclass(frozen=True)
class Job:
    name: str          # stable key into the pins, independent of the seed
    kind: str          # "build", "verify" or "simulate"
    argv: Tuple[str, ...]
    bracket: bool = False   # run the exact {H_bar, K_bar} test after build


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: Tuple[Job, ...]


def hash_seed(seed: int) -> str:
    """PYTHONHASHSEED for the workers of a run, derived from the workload seed."""
    digest = hashlib.sha256(f"hamext-bench-{seed}".encode()).digest()
    return str(int.from_bytes(digest[:4], "big"))


def _catalog_args(model: str, m: int, n: int) -> List[str]:
    args = ["--model", model, "--m", str(m), "--n", str(n), "--omega", "sym"]
    if model == "cage":
        args += ["--A", "1"]
    return args


def _params(model: str) -> List[str]:
    out = []
    for name, value in CATALOG_PARAMS[model].items():
        out += ["--param", f"{name}={value}"]
    return out


def _exact_catalog() -> List[Job]:
    grid = [("ttw", 5, 3), ("cage", 5, 4)]
    return [Job(f"catalog:{model}-{m}-{n}", "build",
                ("build", *_catalog_args(model, m, n)), bracket=True)
            for model, m, n in grid]


def _exact_inline() -> List[Job]:
    jobs = []
    for kappa in (1, -1):
        m, n = 4, 3
        argv = ("build", "--model", "inline", "--c", "1", "--kappa", str(kappa),
                "--A", "1", "--omega", "sym", "--V", INLINE_V, "--eta", INLINE_ETA,
                "--m", str(m), "--n", str(n))
        jobs.append(Job(f"inline:k{kappa:+d}-{m}-{n}", "build", argv, bracket=True))
    return jobs


def _verify_battery(seed: int) -> List[Job]:
    grid = [("ttw", 1, 1), ("ttw", 3, 2), ("cage", 4, 3)]
    return [Job(f"verify:{model}-{m}-{n}", "verify",
                ("verify", *_catalog_args(model, m, n), *_params(model),
                 "--samples", str(VERIFY_SAMPLES), "--precision", str(VERIFY_PRECISION),
                 "--seed", str(seed)))
            for model, m, n in grid]


def _initial_point(seed: int, model: str, m: int, n: int) -> List[str]:
    """No --x0 at the default seed (the CLI's own point); else a small jitter of it."""
    if seed == DEFAULT_SEED:
        return []
    rng = random.Random(f"{seed}-{model}-{m}-{n}")
    base = {"q": 0.6, "u": 0.8, "p_q": 0.4, "p_u": -0.3}
    coords = ",".join(
        f"{k}={v + rng.uniform(-FLOW_X0_JITTER, FLOW_X0_JITTER):.6f}"
        for k, v in base.items()
    )
    return ["--x0", coords]


def _flow_long(seed: int) -> List[Job]:
    grid = [("ttw", 3, 2), ("cage", 3, 2)]
    jobs = []
    for model, m, n in grid:
        out = f"{model}-{m}-{n}"
        argv = ("simulate", *_catalog_args(model, m, n), *_params(model),
                "--t-final", repr(FLOW_T_FINAL), "--tol", repr(FLOW_TOL),
                "--stride", str(FLOW_STRIDE), "--out", out,
                *_initial_point(seed, model, m, n))
        jobs.append(Job(f"flow:{out}", "simulate", argv))
    return jobs


# Two measured workloads, each made of two of the job groups above.  Each
# run repeats its passes for tens of seconds and takes medians over
# several fresh processes per job: on a shared 2-core host one process
# can run 20% slower than the next, so fewer, longer workloads are what
# keep run-to-run spreads inside the bounds.
WHY = {
    "exact": "build plus exact {H_bar, K_bar} test: ring arithmetic at high degree, "
             "catalog models (monomial denominators) and a parsed inline potential "
             "(multi-term denominators)",
    "numeric": "verify battery at 50 digits and DOP853 flows at tol 1e-12 with "
               "5000-row monitoring: numeric evaluation, compiled right-hand side, "
               "solver; builds are tiny",
}


def workload(name: str, seed: int) -> Workload:
    if name == "exact":
        jobs = _exact_catalog() + _exact_inline()
    elif name == "numeric":
        jobs = _verify_battery(seed) + _flow_long(seed)
    else:
        raise KeyError(name)
    return Workload(name, WHY[name], tuple(jobs))


NAMES = tuple(WHY)


def defect_job() -> Job:
    """The gate's self-check: a tampered K_bar that verify must reject."""
    return Job("verify:ttw-1-1-omega-shift", "verify",
               ("verify", *_catalog_args("ttw", 1, 1), *_params("ttw"),
                "--samples", str(VERIFY_SAMPLES), "--precision", str(VERIFY_PRECISION),
                "--seed", str(DEFAULT_SEED), "--inject-defect", "omega-shift"))
