"""Output gate: every job's output is checked against pins taken at the seed commit.

* build jobs: the JSON on stdout matches its sha256 byte for byte, and the
  exact bracket ``{H_bar, K_bar}`` that follows is zero;
* verify jobs: exit 0 and every claim ``ok`` with an exact verdict of true;
  the report's ``model`` block matches its pin; at the default seed the
  whole report matches byte for byte;
* simulate jobs: exit 0, ``success``, and the drift of every monitored
  invariant under the bound pinned for it; the trajectory file has one row
  per output sample;
* every job: the exact sizes of ``K_bar`` match their pin; at the default
  seed, so does the solver's count of right-hand-side calls.

``problems`` returns a list of reasons; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List

from workloads import DEFAULT_SEED, FLOW_STRIDE, Job

#: Drift bounds are this multiple of the drift recorded when pinning.
DRIFT_MARGIN = 100.0


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def model_digest(report: Dict) -> str:
    return sha(json.dumps(report["model"], sort_keys=True))


def _load_json(text: str, what: str, out: List[str]):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        out.append(f"{what} is not JSON: {exc}")
        return None


def trajectory_path(job: Job, workdir: str) -> str:
    return os.path.join(workdir, job.argv[job.argv.index("--out") + 1] + ".traj.tsv")


def _tsv_rows(path: str) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def structural(job: Job, res: Dict, workdir: str) -> List[str]:
    """Checks that need no pin: exit code, verdicts, success flags."""
    out: List[str] = []
    if res.get("error"):
        out.append("exception: " + res["error"].strip().splitlines()[-1])
        return out
    if res.get("rc") != 0:
        last = (res.get("stderr_tail", "").strip().splitlines() or [""])[-1]
        out.append(f"exit code {res.get('rc')}: {last[:200]}")
    if job.kind == "build" and job.bracket and res.get("bracket_ok") is not True:
        out.append(f"exact bracket verdict {res.get('bracket_ok')!r}, expected True")
    if job.kind == "verify":
        report = _load_json(res.get("stdout", ""), "verify report", out)
        if report is not None:
            for claim in report.get("claims", []):
                if not claim.get("ok"):
                    out.append(f"claim {claim.get('claim')} not ok")
                if "symbolic" in claim and claim["symbolic"] is not True:
                    out.append(f"claim {claim.get('claim')} exact verdict "
                               f"{claim['symbolic']!r}")
            if not report.get("claims"):
                out.append("verify report has no claims")
    if job.kind == "simulate":
        drift = _load_json(res.get("stdout", ""), "drift report", out)
        if drift is not None and drift.get("success") is not True:
            out.append(f"integration failed: {drift.get('message')}")
        tsv = trajectory_path(job, workdir)
        rows = _tsv_rows(tsv) if os.path.exists(tsv) else -1
        if rows != FLOW_STRIDE:
            out.append(f"trajectory file has {rows} rows, expected {FLOW_STRIDE}")
    return out


def pin_entry(job: Job, res: Dict) -> Dict:
    """What ``problems`` compares against, taken from a passing default-seed run."""
    entry: Dict = {"K": res["counts"]["K"]}
    if job.kind == "build":
        entry["stdout_sha"] = res["stdout_sha"]
    elif job.kind == "verify":
        entry["report_sha"] = res["stdout_sha"]
        entry["model_sha"] = model_digest(json.loads(res["stdout"]))
    elif job.kind == "simulate":
        entry["nfev"] = res["counts"]["nfev"]
        drift = json.loads(res["stdout"])
        entry["drift_bound"] = {
            name: DRIFT_MARGIN * float(inv["max_drift"])
            for name, inv in sorted(drift["invariants"].items())
        }
    return entry


def problems(job: Job, res: Dict, pin: Dict, seed: int, workdir: str) -> List[str]:
    out = structural(job, res, workdir)
    if res.get("error"):
        return out
    if pin is None:
        return out + [f"no pin for job {job.name}"]
    if res.get("counts", {}).get("K") != pin["K"]:
        out.append(f"K_bar sizes {res.get('counts', {}).get('K')} differ from pin {pin['K']}")
    if job.kind == "build" and res.get("stdout_sha") != pin["stdout_sha"]:
        out.append("build output differs from its pinned sha256")
    if job.kind == "verify":
        try:
            report = json.loads(res.get("stdout", ""))
        except json.JSONDecodeError:
            return out
        if model_digest(report) != pin["model_sha"]:
            out.append("verify report model block differs from its pin")
        if seed == DEFAULT_SEED and res.get("stdout_sha") != pin["report_sha"]:
            out.append("verify report differs from its pinned sha256")
    if job.kind == "simulate":
        nfev = res.get("counts", {}).get("nfev")
        if seed == DEFAULT_SEED and nfev != pin["nfev"]:
            out.append(f"right-hand-side calls {nfev} differ from pin {pin['nfev']}")
        try:
            drift = json.loads(res.get("stdout", ""))
        except json.JSONDecodeError:
            return out
        for name, bound in pin["drift_bound"].items():
            inv = drift.get("invariants", {}).get(name)
            if inv is None:
                out.append(f"invariant {name} not monitored")
            elif not float(inv["max_drift"]) <= bound:
                out.append(f"drift of {name} {inv['max_drift']} over bound {bound:.3e}")
    return out
