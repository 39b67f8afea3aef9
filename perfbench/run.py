"""Benchmark of the hamext pipeline: build, exact bracket, verify, simulate.

Measured run (the benchmark contract)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``exact`` and ``numeric`` (see ``workloads.py``).  A run repeats
passes over the workload's job list until the next job would end after
``--seconds`` (the last pass may stop part way); every job runs in its own
fresh worker process, one at a time (a closed loop with one client), so
the package's process-wide caches never carry over between jobs.  Each
time metric is the per-job median over the run's passes, summed over the
job list; ``setup_s`` is the median over every process start in the run.
Workers and this process share one core; while a worker runs, this process
measures the core's speed, and every time is reported at one reference
speed (see ``hostspeed.py``); the raw wall times are printed as ``*_wall_s``.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate; the last line holds the
per-layer metrics and ``trace.overhead_share``, and the full trace (stage
spans and every layer figure) is written to ``.perfbench-out/``.

Other modes::

    python3 perfbench/run.py --all [--seed N] [--seconds S]   every workload
    python3 perfbench/run.py --smoke         smallest job of each job group, once
    python3 perfbench/run.py --self-check    the gate must reject an injected
                                             defect; outputs must not depend
                                             on PYTHONHASHSEED
    python3 perfbench/run.py --pin           re-record pins.json (seed commit only)
    python3 perfbench/run.py --workload W ... --out R.json   also save the result
    python3 perfbench/run.py --compare A.json B.json   diff two saved results

A measured run exits 0 once it has printed its result line, whose
``correct`` says whether every output passed the gate; the other modes
exit 1 when a check fails.  Exit status 2 means the benchmark cannot run
(for example, no ``src/hamext`` beside it).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench-out")
WORKDIR = os.path.join(OUTDIR, "work")
PINS = os.path.join(HERE, "pins.json")
JOB_TIMEOUT_S = 60  # the largest job takes a few seconds; a run must end within 180 s

sys.path.insert(0, HERE)
import gate  # noqa: E402
import hostspeed  # noqa: E402
from workloads import DEFAULT_SEED, NAMES, Job, defect_job, hash_seed, workload  # noqa: E402

# Stage metrics are printed when the workload exercises the stage.  They are
# not all exercised by every workload, so they are not in the result line.
STAGE_METRICS = ["build_s", "bracket_s", "verify_s", "verify_numeric_s",
                 "verify_rank_s", "integrate_s", "monitor_s"]

LAYER_TIMES = {
    # per-layer time metric: (traced name, "self_s" or "s")
    "params.mul.self_s": ("params.mul", "self_s"),
    "params.evaluate.self_s": ("params.evaluate", "self_s"),
    "coeffs.mul.self_s": ("coeffs.mul", "self_s"),
    "coeffs.add.self_s": ("coeffs.add", "self_s"),
    "coeffs.differentiate.self_s": ("coeffs.differentiate", "self_s"),
    "coeffs.evaluate.self_s": ("coeffs.evaluate", "self_s"),
    "phase.mul.self_s": ("phase.mul", "self_s"),
    "phase.apply_W.self_s": ("phase.apply_W", "self_s"),
    "phase.poisson.self_s": ("phase.poisson", "self_s"),
    "phase.evaluate.self_s": ("phase.evaluate", "self_s"),
    "phase.render.s": ("phase.render", "s"),
    "extension.recursion_Gn.self_s": ("extension.recursion_Gn", "self_s"),
    "extension.build_modified_K.s": ("extension.build_modified_K", "s"),
    "dynamics.compile.s": ("dynamics.compile", "s"),
    "dynamics.rhs.self_s": ("dynamics.rhs", "self_s"),
    "exprparse.parse.s": ("exprparse.parse", "s"),
}
LAYER_CALLS = ["params.mul", "params.evaluate", "coeffs.mul", "coeffs.add",
               "coeffs.differentiate", "coeffs.evaluate", "phase.mul",
               "phase.apply_W", "phase.poisson", "phase.evaluate", "dynamics.compile"]


# ---------------------------------------------------------------------------
# running jobs


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_job(job: Job, seed: int, trace: bool, pyhash: Optional[str] = None) -> Dict:
    """One job in a fresh worker process, with the speed of the core it runs
    on measured until it exits."""
    result_path = os.path.join(WORKDIR, "result.json")
    stale = [result_path]
    if job.kind == "simulate":
        stale.append(gate.trajectory_path(job, WORKDIR))
    for path in stale:
        if os.path.exists(path):
            os.remove(path)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = pyhash if pyhash is not None else hash_seed(seed)
    env.pop("PYTHONPATH", None)
    with open(os.path.join(WORKDIR, "worker.err"), "w+") as err:
        t_spawn = _now()
        spec = {"argv": list(job.argv), "src": SRC, "t_spawn": t_spawn, "trace": trace,
                "bracket": job.bracket, "job": job.name, "workdir": WORKDIR,
                "result": result_path}
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                                 json.dumps(spec)], env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            slowdown = hostspeed.slowdown_while(proc, t_spawn + JOB_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.poll() is None:
            proc.kill()
            proc.wait()
            return {"job": job.name, "error": f"timed out after {JOB_TIMEOUT_S} s"}
        wall = _now() - t_spawn
        err.seek(0)
        stderr = err.read()
    try:
        with open(result_path) as fh:
            res = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {"job": job.name,
                "error": f"worker exit {proc.returncode}: {stderr.strip()[-400:]}"}
    res["wall_s"] = wall
    res["host_factor"] = 1.0 / slowdown
    return res


def load_pins() -> Dict:
    if not os.path.exists(PINS):
        return {}
    with open(PINS) as fh:
        return json.load(fh)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """Passes over one workload's job list within a time budget."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.wl = workload(name, seed)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.pins = load_pins()
        self.passes: List[List[Dict]] = []      # untraced
        self.traced: List[List[Dict]] = []
        self.failures: List[str] = []
        self.attempted = 0

    def _pass(self, traced: bool, deadline: Optional[float] = None) -> float:
        """One pass over the job list; with a deadline, stop before a job
        that would likely end after it (the last pass may be partial)."""
        t0 = _now()
        results: List[Dict] = []
        (self.traced if traced else self.passes).append(results)
        for j, job in enumerate(self.wl.jobs):
            if deadline is not None:
                estimate = _median([r["wall_s"] for r in _column(self.passes, j)
                                    if "wall_s" in r])
                if _now() + estimate > deadline:
                    break
            res = run_job(job, self.seed, traced)
            self.attempted += 1
            bad = gate.problems(job, res, self.pins.get(job.name), self.seed, WORKDIR)
            res["failed"] = bool(bad)
            for reason in bad:
                self.failures.append(f"{job.name}: {reason}")
            results.append(res)
        return _now() - t0

    def execute(self):
        start = _now()
        if not self.trace:
            self._pass(False)
            while len(self.passes[-1]) == len(self.wl.jobs):
                self._pass(False, deadline=start + self.seconds)
            if not self.passes[-1]:
                self.passes.pop()
        else:
            # Whole passes, untraced and traced in turn, at least one of each.
            times: Dict[bool, List[float]] = {False: [], True: []}
            mode = False
            while True:
                times[mode].append(self._pass(mode))
                mode = not mode
                if not times[True]:
                    continue
                if _now() - start + _median(times[mode]) > self.seconds:
                    break
        self._check_repeats()

    def _check_repeats(self):
        """Exact counts must repeat exactly between passes at a fixed seed."""
        runs = self.passes + self.traced
        for j, job in enumerate(self.wl.jobs):
            col = [r for r in _column(runs, j) if not r.get("error")]
            if any(r.get("counts") != col[0].get("counts") for r in col[1:]):
                self.failures.append(f"{job.name}: exact counts differ between passes")
                for r in col:
                    r["failed"] = True
            if any(_samples(r) != _samples(col[0]) for r in col[1:]):
                self.failures.append(f"{job.name}: samples used/rejected differ between passes")
                for r in col:
                    r["failed"] = True

    @property
    def failed(self) -> int:
        return sum(res["failed"] for results in self.passes + self.traced
                   for res in results)

    def env(self) -> Dict:
        envs = [res["env"] for results in self.passes + self.traced
                for res in results if "env" in res]
        if any(e != envs[0] for e in envs[1:]):
            self.failures.append("workers reported different environments")
        return envs[0] if envs else {}


def _samples(res: Dict):
    try:
        report = json.loads(res.get("stdout", ""))
    except json.JSONDecodeError:
        return None
    if not isinstance(report, dict) or "claims" not in report:
        return None
    return (sum(c.get("samples_used", 0) for c in report["claims"]),
            sum(c.get("samples_rejected", 0) for c in report["claims"]))


def _column(passes: List[List[Dict]], j: int) -> List[Dict]:
    """Results of job ``j`` in every pass that reached it."""
    return [p[j] for p in passes if j < len(p)]


def _per_job_sum(passes: List[List[Dict]], get, corrected: bool = True) -> float:
    """Median over passes for each job, summed over the job list.  ``get``
    returns seconds; they are taken at the reference host speed unless
    ``corrected`` is false."""
    if not passes:
        return 0.0
    return sum(_median([get(r) * (r["host_factor"] if corrected else 1.0)
                        for r in _column(passes, j) if not r.get("error")])
               for j in range(len(passes[0])))


def end_to_end(passes: List[List[Dict]]) -> Dict[str, float]:
    ok = [res for results in passes for res in results if not res.get("error")]
    out = {
        "setup_s": _median([res["setup_s"] * res["host_factor"] for res in ok]),
        "batch_s": _per_job_sum(passes, lambda r: r["wall_s"]),
        "job_s": _per_job_sum(passes, lambda r: r["stages"]["job_s"]),
        "peak_rss_mb": max((res["peak_rss_mb"] for res in ok), default=0.0),
        "setup_wall_s": _median([res["setup_s"] for res in ok]),
        "batch_wall_s": _per_job_sum(passes, lambda r: r["wall_s"], corrected=False),
        "job_wall_s": _per_job_sum(passes, lambda r: r["stages"]["job_s"],
                                   corrected=False),
        "host_speed_ratio": _median([res["host_factor"] for res in ok]),
    }
    for name in STAGE_METRICS:
        out[name] = _per_job_sum(passes, lambda r, n=name: r["stages"][n])
    return out


def per_layer(run: Run) -> Dict[str, float]:
    traced = run.traced
    out: Dict[str, float] = {}
    for metric, (name, field) in LAYER_TIMES.items():
        out[metric] = _per_job_sum(
            traced, lambda r: r["layers"].get(name, {}).get(field, 0.0))
    first = [r for r in traced[0] if not r.get("error")]
    for name in LAYER_CALLS:
        out[name + ".calls"] = sum(r["layers"].get(name, {}).get("calls", 0) for r in first)
    for key, metric in (("pmono", "params.pmono_cache.hit_ratio"),
                        ("reduce", "coeffs.reduce_cache.hit_ratio")):
        hits = sum(r["caches"][key]["hits"] for r in first)
        total = hits + sum(r["caches"][key]["misses"] for r in first)
        out[metric] = hits / total if total else 0.0
    sizes = [r["counts"]["K"] for r in first if "K" in r["counts"]]
    out["phase.K.degree"] = max((s["degree"] for s in sizes), default=0)
    for key in ("terms", "gen_terms", "param_terms"):
        out[f"phase.K.{key}"] = sum(s[key] for s in sizes)
    multi = sum(s["multi_term_den"] for s in sizes)
    out["coeffs.multi_term_den.share"] = multi / out["phase.K.terms"] if sizes else 0.0
    samples = [s for s in (_samples(r) for r in first) if s is not None]
    used = sum(s[0] for s in samples)
    rejected = sum(s[1] for s in samples)
    out["verify.samples.used"] = used
    out["verify.samples.rejected"] = rejected
    out["verify.samples.accept_ratio"] = used / (used + rejected) if used + rejected else 0.0
    out["dynamics.rhs.calls"] = sum(r["counts"].get("nfev", 0) for r in first)
    integrate = _per_job_sum(traced, lambda r: r["stages"]["integrate_s"])
    out["dynamics.solver.self_s"] = integrate - out["dynamics.rhs.self_s"]
    out["dynamics.monitor.s"] = _per_job_sum(
        traced, lambda r: sum(r["layers"].get(n, {}).get("s", 0.0) for n in
                              ("dynamics.monitor_invariants", "dynamics.invariant_values")))
    out["dynamics.write.s"] = _per_job_sum(
        traced, lambda r: r["layers"].get("dynamics.write_trajectory", {}).get("s", 0.0))
    plain = _per_job_sum(run.passes, lambda r: r["wall_s"])
    with_trace = _per_job_sum(traced, lambda r: r["wall_s"])
    out["trace.overhead_share"] = with_trace / plain - 1.0
    return out


# ---------------------------------------------------------------------------
# reporting


def _declared(kind: str) -> Dict[str, str]:
    """Name and unit of each metric BENCHMARK.json declares in ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio") or name.endswith("share"):
        return "ratio"
    return "count"


def report_run(run: Run, load_start, load_end) -> Dict:
    """Print the human-readable table; return the result document."""
    env = dict(run.env())
    env.update({"nproc": os.cpu_count(), "loadavg_start": list(load_start),
                "loadavg_end": list(load_end), "hash_seed": hash_seed(run.seed)})
    n_pass = len(run.passes)
    print(f"workload {run.wl.name}: {run.wl.why}")
    print(f"  seed {run.seed}, {n_pass} untraced + {len(run.traced)} traced passes "
          f"of {len(run.wl.jobs)} jobs ({run.attempted} jobs run), one fresh worker "
          f"process per job")
    e2e = end_to_end(run.passes)
    declared = _declared("end_to_end")
    for name, value in e2e.items():
        if name in declared or value > 0:
            print(f"  {name:<34} {value:12.4f} {_unit_of(name)}")
    for j, job in enumerate(run.wl.jobs):
        one = [[r] for r in _column(run.passes, j)]
        print(f"    {job.name:<26} batch {_per_job_sum(one, lambda r: r['wall_s']):8.3f} s"
              f"  job {_per_job_sum(one, lambda r: r['stages']['job_s']):8.3f} s"
              f"  build {_per_job_sum(one, lambda r: r['stages']['build_s']):8.3f} s")
    fail_share = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'fail_share':<34} {fail_share:12.4f} ratio ({run.failed}/{run.attempted})")
    layers = per_layer(run) if run.traced else {}
    declared = _declared("per_layer")
    for name, value in layers.items():
        if value or name in declared:
            print(f"  {name:<34} {value:12.6g} {_unit_of(name)}")
    print("  env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for reason in sorted(set(run.failures))[:20]:
        print(f"  FAIL {reason}")
    return {"workload": run.wl.name, "seed": run.seed, "env": env,
            "passes": n_pass, "traced_passes": len(run.traced),
            "attempted": run.attempted, "failed": run.failed,
            "end_to_end": e2e, "per_layer": layers,
            "failures": sorted(set(run.failures))}


def contract_line(run: Run, doc: Dict, trace: bool) -> Dict:
    wanted = _declared("per_layer" if trace else "end_to_end")
    source = doc["per_layer"] if trace else doc["end_to_end"]
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in wanted.items()}
    correct = run.failed == 0 and not run.failures
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def measured_run(name: str, seed: int, seconds: float, trace: bool,
                 out: Optional[str]) -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    load_start = os.getloadavg()
    run = Run(name, seed, seconds, trace)
    run.execute()
    doc = report_run(run, load_start, os.getloadavg())
    if trace:
        path = os.path.join(OUTDIR, f"trace-{name}-{seed}.json")
        # One entry per traced job; a span's parent indexes that job's spans.
        jobs = [{k: res.get(k) for k in ("job", "spans", "layers", "caches", "counts")}
                for results in run.traced for res in results]
        with open(path, "w") as fh:
            json.dump({"result": doc, "jobs": jobs}, fh)
        print(f"  trace written to {os.path.relpath(path, ROOT)}")
    if out:
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    print(json.dumps(contract_line(run, doc, trace)))
    return 0


# ---------------------------------------------------------------------------
# other modes

# The smallest job of each job group.
SMOKE = ("catalog:cage-5-4", "inline:k-1-4-3", "verify:ttw-1-1", "flow:cage-3-2")


def _find(name: str) -> Job:
    return next(j for wl in NAMES for j in workload(wl, DEFAULT_SEED).jobs
                if j.name == name)


def smoke() -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    pins = load_pins()
    bad = 0
    for name in SMOKE:
        job = _find(name)
        res = run_job(job, DEFAULT_SEED, trace=False)
        reasons = gate.problems(job, res, pins.get(job.name), DEFAULT_SEED, WORKDIR)
        bad += bool(reasons)
        print(f"{job.name:<26} {res.get('wall_s', 0.0):7.2f} s  "
              f"{'FAIL ' + '; '.join(reasons) if reasons else 'ok'}")
    print(json.dumps({"smoke": "ok" if not bad else "failed", "failed": bad}))
    return 1 if bad else 0


def self_check() -> int:
    """The gate must count an injected defect as failed; hash seeds must not matter."""
    os.makedirs(WORKDIR, exist_ok=True)
    pins = load_pins()
    ok = True
    job = defect_job()
    res = run_job(job, DEFAULT_SEED, trace=False)
    reasons = gate.problems(job, res, pins["verify:ttw-1-1"], DEFAULT_SEED, WORKDIR)
    caught = any("claim" in r for r in reasons) and res.get("rc") == 3
    ok &= caught
    print(f"defect {job.name}: counted as {'failed' if reasons else 'passed'} "
          f"({'; '.join(reasons[:3])}) -> {'ok' if caught else 'NOT CAUGHT'}")
    for name in ("inline:k-1-4-3", "verify:ttw-1-1"):
        job = _find(name)
        shas = {}
        for pyhash in ("0", hash_seed(1), hash_seed(2)):
            res = run_job(job, DEFAULT_SEED, trace=False, pyhash=pyhash)
            reasons = gate.problems(job, res, pins[name], DEFAULT_SEED, WORKDIR)
            shas[pyhash] = res.get("stdout_sha")
            ok &= not reasons
            print(f"hash seed {pyhash:>10} {name}: "
                  f"{'ok' if not reasons else '; '.join(reasons)}")
        same = len(set(shas.values())) == 1
        ok &= same
        print(f"  outputs identical across hash seeds: {same}")
    print(json.dumps({"self_check": "ok" if ok else "failed"}))
    return 0 if ok else 1


def pin() -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    pins: Dict[str, Dict] = {}
    for name in NAMES:
        for job in workload(name, DEFAULT_SEED).jobs:
            res = run_job(job, DEFAULT_SEED, trace=False)
            reasons = gate.structural(job, res, WORKDIR)
            if reasons:
                print(f"cannot pin {job.name}: {reasons}", file=sys.stderr)
                return 1
            pins[job.name] = gate.pin_entry(job, res)
            print(f"pinned {job.name}")
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def compare(path_a: str, path_b: str) -> int:
    """Per-metric ratio B/A of two saved results; refuses mismatched backends."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    for key in ("rational", "mpmath_backend"):
        if a["env"].get(key) != b["env"].get(key):
            print(f"refusing to compare: {key} differs "
                  f"({a['env'].get(key)} vs {b['env'].get(key)})", file=sys.stderr)
            return 2
    if a["workload"] != b["workload"]:
        print("refusing to compare different workloads", file=sys.stderr)
        return 2
    for section in ("end_to_end", "per_layer"):
        for name, va in a.get(section, {}).items():
            vb = b.get(section, {}).get(name)
            if vb is None:
                continue
            ratio = f"{vb / va:8.3f}x" if va else "      --"
            print(f"{name:<34} {va:14.6g} {vb:14.6g} {ratio}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the result document here")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--pin", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    # Workers inherit the affinity: they and the speed probe share one core.
    os.sched_setaffinity(0, hostspeed.one_core())
    if not os.path.isfile(os.path.join(SRC, "hamext", "cli.py")):
        print(f"no hamext sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.self_check:
        return self_check()
    if args.pin:
        return pin()
    if args.all:
        for name in NAMES:
            measured_run(name, args.seed, args.seconds, bool(args.trace), None)
        return 0
    if not args.workload:
        ap.error("give --workload, or one of --all/--smoke/--self-check/--pin/--compare")
    return measured_run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
