"""Run one hamext job in this fresh process and print its measurements.

Usage (from the benchmark, not by hand): ``python3 worker.py SPEC_JSON``.
SPEC_JSON holds the CLI argv, the source directory, the monotonic time at
which the parent started this process, whether to trace layers, the
optional exact bracket to run after the build, and the file to write the
result to.

The job enters through ``hamext.cli.main``.  Stages are timed by wrapping
the public functions the CLI reaches through module globals.  The CLI's
own stdout and stderr are captured; the result file receives one JSON
object with the stage times, the exact counts and the output digests the
gate checks.  (The parent does not read a pipe while the worker runs: it
is busy measuring the host's speed, see ``hostspeed.py``.)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _kbar_sizes(K) -> dict:
    """Exact sizes of a momentum polynomial at each nesting level."""
    gen_terms = param_terms = multi = 0
    for coeff in K.terms.values():
        gen_terms += len(coeff.num.terms)
        param_terms += sum(len(pp.terms) for pp in coeff.num.terms.values())
        if coeff.den_factors:
            multi += 1
    return {"degree": K.momentum_degree(), "terms": len(K.terms),
            "gen_terms": gen_terms, "param_terms": param_terms,
            "multi_term_den": multi}


STAGES = {
    # stage metric: the module attributes whose calls it sums
    "build_s": ["cli.build_model"],
    "bracket_s": ["verify.symbolic_commute_check"],
    "verify_s": ["cli.run_model_verification"],
    "verify_numeric_s": ["verify.numeric_commute_check"],
    "verify_rank_s": ["verify.independence_rank"],
    "integrate_s": ["dynamics.integrate_adaptive"],
    "monitor_s": ["dynamics.monitor_invariants", "dynamics.invariant_values",
                  "dynamics.write_trajectory"],
}

LAYER_METHODS = [
    ("params.mul", "params", "ParamPoly", "__mul__"),
    ("params.evaluate", "params", "ParamPoly", "evaluate"),
    ("coeffs.mul", "coeffs", "CanonicalCoeff", "__mul__"),
    ("coeffs.add", "coeffs", "CanonicalCoeff", "__add__"),
    ("coeffs.differentiate", "coeffs", "CanonicalCoeff", "differentiate"),
    ("coeffs.evaluate", "coeffs", "CanonicalCoeff", "evaluate"),
    ("phase.mul", "phase", "PPoly", "__mul__"),
    ("phase.poisson", "phase", "PPoly", "poisson"),
    ("phase.evaluate", "phase", "PPoly", "evaluate"),
    ("phase.render", "phase", "PPoly", "render"),
]

LAYER_FUNCTIONS = [
    ("phase.apply_W", "phase", "apply_W"),
    ("extension.recursion_Gn", "extension", "recursion_Gn"),
    ("extension.build_modified_K", "extension", "build_modified_K"),
    ("exprparse.parse", "exprparse", "parse_coeff"),
    ("dynamics.compile", "dynamics", "compile_ppoly"),
]


def run(spec: dict) -> dict:
    t_spawn = spec["t_spawn"]
    sys.path.insert(0, spec["src"])
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import hamext.cli as cli
    t_ready = _now()

    import mpmath
    import numpy
    import scipy
    from hamext import coeffs, dynamics, exprparse, extension, params, phase, verify
    from tracing import Tracer, patch_function, patch_method

    mods = {"cli": cli, "verify": verify, "dynamics": dynamics, "params": params,
            "coeffs": coeffs, "phase": phase, "extension": extension,
            "exprparse": exprparse}
    tracer = Tracer(spec["job"])
    captured = {}

    def capture(key):
        def wrapper(fn):
            traced = tracer.wrap(key, fn, keep_span=True)

            def keep(*args, **kwargs):
                out = traced(*args, **kwargs)
                captured[key] = out
                return out
            return keep
        return wrapper

    for paths in STAGES.values():
        for path in paths:
            mod, attr = path.split(".")
            if path in ("cli.build_model", "dynamics.integrate_adaptive"):
                patch_function(tracer, path, mods[mod], attr, wrapper=capture(path))
            else:
                patch_function(tracer, path, mods[mod], attr, keep_span=True)

    if spec["trace"]:
        for name, mod, cls, attr in LAYER_METHODS:
            patch_method(tracer, name, getattr(mods[mod], cls), attr)
        for name, mod, attr in LAYER_FUNCTIONS:
            patch_function(tracer, name, mods[mod], attr)
        make_field = dynamics.hamiltons_equations

        def timed_field(H, values):
            return tracer.wrap("dynamics.rhs", make_field(H, values))
        dynamics.hamiltons_equations = timed_field
    caches_before = {"pmono": params._pmono_mul.cache_info(),
                     "reduce": coeffs._reduce_raw.cache_info()}

    out, err = io.StringIO(), io.StringIO()
    result = {"job": spec["job"], "rc": None, "error": None}
    cwd = os.getcwd()
    t_main = _now()
    try:
        os.chdir(spec["workdir"])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result["rc"] = cli.main(spec["argv"])
            model = captured.get("cli.build_model")
            if spec["bracket"] and model is not None:
                ok, _ = verify.symbolic_commute_check(model.Hbar, model.Kbar.poly)
                result["bracket_ok"] = bool(ok)
    except Exception:  # the job's failure is a measurement, not a crash
        result["error"] = traceback.format_exc(limit=8)
    finally:
        os.chdir(cwd)
    t_end = _now()

    model = captured.get("cli.build_model")
    stages = {metric: sum(tracer.inclusive(p) for p in paths)
              for metric, paths in STAGES.items()}
    stages["job_s"] = t_end - t_main
    result.update({
        "setup_s": t_ready - t_spawn,
        "stages": stages,
        "stdout": out.getvalue(),
        "stdout_sha": _sha(out.getvalue()),
        "stderr_tail": err.getvalue()[-2000:],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "rational": f"{params.Q.__module__}.{params.Q.__name__}",
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "counts": {},
    })
    if model is not None:
        result["counts"]["K"] = _kbar_sizes(model.Kbar.poly)
    traj = captured.get("dynamics.integrate_adaptive")
    if traj is not None:
        result["counts"]["nfev"] = traj.nfev
    if spec["trace"]:
        result["layers"] = {
            name: {"calls": tracer.calls(name), "s": tracer.inclusive(name),
                   "self_s": tracer.self_time(name)}
            for name in tracer.stats
        }
        after = {"pmono": params._pmono_mul.cache_info(),
                 "reduce": coeffs._reduce_raw.cache_info()}
        result["caches"] = {
            key: {"hits": after[key].hits - caches_before[key].hits,
                  "misses": after[key].misses - caches_before[key].misses}
            for key in after
        }
        result["spans"] = [s for s in tracer.spans if s is not None]
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = run(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
