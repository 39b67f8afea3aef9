import json
import os
import subprocess
import sys
from pathlib import Path

from hamext.cli import (EXIT_CLAIM, EXIT_CONFIG, EXIT_INTEGRATION, EXIT_OK,
                        EXIT_SEED, main)


def run(argv):
    return main(argv)


def test_catalog_lists_models(capsys):
    assert run(["catalog"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"ttw", "cage", "harmonic"}


def test_build_ttw(capsys):
    assert run(["build", "--model", "ttw", "--m", "1", "--n", "1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"]["K_degree"] == 3
    assert "p_u^2" in doc["H_modified"]
    assert doc["model"]["branch"] == "even"


def test_build_inline_ok(capsys):
    rc = run(["build", "--model", "inline", "--c", "1", "--kappa", "0",
              "--V", "(c1 + c2*cos(q))/sin(q)^2", "--eta", "sin(q)",
              "--m", "2", "--n", "1"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"]["name"] == "inline"


def test_inline_seed_refused(capsys):
    rc = run(["build", "--model", "inline", "--c", "0", "--L0", "1",
              "--V", "q^3", "--eta", "q"])
    assert rc == EXIT_SEED


def test_config_errors():
    assert run(["build", "--model", "nosuch"]) == EXIT_CONFIG
    assert run(["build", "--m", "0"]) == EXIT_CONFIG
    assert run(["verify", "--param", "zeta=1"]) == EXIT_CONFIG
    assert run(["build", "--model", "inline", "--V", "sin(2*q)", "--eta",
                "sin(q)"]) == EXIT_CONFIG
    assert run(["nope"]) == EXIT_CONFIG


def test_inline_verify_needs_every_parameter(capsys):
    args = ["verify", "--model", "inline", "--c", "1", "--kappa", "0",
            "--V", "(c1 + c2*cos(q))/sin(q)^2", "--eta", "sin(q)",
            "--m", "2", "--n", "1", "--samples", "40"]
    assert run(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "c1, c2, omega" in err
    assert run(args + ["--param", "c1=1", "--param", "omega=1/2"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "parameter(s) c2;" in err
    assert run(args + ["--param", "c1=5/4", "--param", "c2=1/4",
                       "--param", "omega=2/3"]) == EXIT_OK


def test_config_file_roundtrip(tmp_path, capsys):
    cfgfile = tmp_path / "job.json"
    cfgfile.write_text(json.dumps({"model": "ttw", "m": 2, "n": 1}))
    assert run(["build", "--config", str(cfgfile)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"]["m"] == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": "ttw", "wheels": 4}))
    assert run(["build", "--config", str(bad)]) == EXIT_CONFIG


def test_verify_ok_and_defect(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = run(["verify", "--model", "ttw", "--samples", "40",
              "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    assert report["all_ok"] is True
    claims = {c["claim"] for c in report["claims"]}
    assert {"commutation_symbolic", "commutation_numeric", "independence_rank",
            "fd_crosscheck", "golden_compare"} <= claims

    rc = run(["verify", "--model", "ttw", "--samples", "40",
              "--inject-defect", "omega-shift", "--out", str(out)])
    assert rc == EXIT_CLAIM
    report = json.loads(out.read_text())
    assert report["all_ok"] is False


def test_verify_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--model", "cage", "--m", "2", "--n", "1",
            "--samples", "40", "--seed", "31415"]
    assert run(args + ["--out", str(a)]) == EXIT_OK
    assert run(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_simulate_ok(tmp_path, capsys):
    out = tmp_path / "run"
    rc = run(["simulate", "--model", "harmonic", "--param", "L0=1/2",
              "--t-final", "6.283185307179586", "--tol", "1e-10",
              "--x0", "q=1.0,u=0.5,p_q=0.0,p_u=0.0", "--out", str(out)])
    assert rc == EXIT_OK
    drift = json.loads((tmp_path / "run.drift.json").read_text())
    assert drift["success"] is True
    assert float(drift["invariants"]["H_modified"]["max_drift"]) < 1e-8
    header = (tmp_path / "run.traj.tsv").read_text().splitlines()[0]
    assert header == "t\tq\tu\tp_q\tp_u\tH_modified\tK_modified\tL_base"


def test_simulate_singular_initial_refused(capsys):
    rc = run(["simulate", "--model", "ttw",
              "--x0", "q=0.0,u=0.8,p_q=0.4,p_u=0.1"])
    assert rc == EXIT_CONFIG


def test_simulate_integration_abort(capsys):
    rc = run(["simulate", "--model", "cage", "--param", "b=-2",
              "--param", "L0=0", "--param", "omega=0",
              "--x0", "q=0.5,u=0.8,p_q=-1.0,p_u=0.1",
              "--t-final", "20", "--tol", "1e-10"])
    assert rc == EXIT_INTEGRATION


def test_solve_linear_rows(capsys):
    assert run(["solve-linear", "--c", "1", "--a1", "1", "--a2", "0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["eta"] == "sin(q)"
    assert doc["certified"] is True

    assert run(["solve-linear", "--c", "0", "--a1", "0", "--a2", "1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["V"] == "L0*q^2 + c1*q + c2"

    assert run(["solve-linear", "--c", "1", "--a1", "0", "--a2", "0"]) == EXIT_CONFIG


def _cli_stdout(args, hash_seed):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "hamext", *args], env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr.decode()
    return proc.stdout


def test_output_independent_of_hash_seed():
    for args in (["build", "--model", "ttw", "--m", "2", "--n", "1"],
                 ["verify", "--model", "ttw", "--m", "1", "--n", "1", "--samples", "30"]):
        assert _cli_stdout(args, 0) == _cli_stdout(args, 2718281828)
