import json
import os
import subprocess
import sys
from pathlib import Path

from hamext.cli import (EXIT_CLAIM, EXIT_CONFIG, EXIT_INTEGRATION, EXIT_OK,
                        EXIT_SEED, main, make_config)
from hamext.models import CATALOG
from hamext.verify import MIN_SAMPLES


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


def test_every_catalog_model_builds(capsys):
    """``--model NAME`` reaches each catalog builder; ``--A`` reaches only the
    entries whose parameter schema lists A."""
    out = {}
    for name in CATALOG:
        args = ["build", "--model", name, "--m", "2", "--n", "1"]
        for extra in ([], ["--A", "2"]):
            assert run(args + extra) == EXIT_OK
            out[name, bool(extra)] = capsys.readouterr().out
        assert json.loads(out[name, False])["model"]["name"] == name
    assert out["cage", True] != out["cage", False]
    assert out["ttw", True] == out["ttw", False]


def test_catalog_models_refuse_inline_flags(tmp_path, capsys):
    """--V, --eta, --L0, --c and --kappa are read only by --model inline, so
    a catalog model refuses them, by flag or from a --config file."""
    flags = {"V": "q^2", "eta": "q", "L0": "2", "c": "1", "kappa": "1"}
    for command in ("build", "verify", "simulate"):
        for name in CATALOG:
            for key, value in flags.items():
                args = [command, "--model", name, "--m", "2", "--n", "1"]
                assert run(args + [f"--{key}", value]) == EXIT_CONFIG
                assert f"--{key}:" in capsys.readouterr().err
    cfgfile = tmp_path / "job.json"
    cfgfile.write_text(json.dumps({"model": "cage", "kappa": 0}))
    assert run(["build", "--config", str(cfgfile)]) == EXIT_CONFIG
    assert "--kappa:" in capsys.readouterr().err
    # the default model is a catalog model too
    assert run(["build", "--L0", "2", "--V", "q^2"]) == EXIT_CONFIG
    assert "--V, --L0:" in capsys.readouterr().err


def test_verify_only_flags_refused_by_build_and_simulate(tmp_path, capsys):
    """--samples, --precision, --seed and --inject-defect are read only by
    verify, so build and simulate refuse them, by flag or from a --config
    file, instead of dropping them."""
    flags = {"samples": "40", "precision": "30", "seed": "7",
             "inject-defect": "omega-shift"}
    values = {"samples": 40, "precision": 30, "seed": 7, "inject_defect": "omega-shift"}
    cfgfile = tmp_path / "job.json"
    for command in ("build", "simulate"):
        args = [command, "--model", "harmonic", "--param", "L0=1/2"]
        for flag, value in flags.items():
            assert run(args + [f"--{flag}", value]) == EXIT_CONFIG
            assert f"--{flag}" in capsys.readouterr().err
        for key, value in values.items():
            cfgfile.write_text(json.dumps({key: value}))
            assert run(args + ["--config", str(cfgfile)]) == EXIT_CONFIG
            flag = key.replace("_", "-")
            assert f"--{flag}: only verify reads these" in capsys.readouterr().err
        cfgfile.write_text(json.dumps(values))
        assert run(args + ["--config", str(cfgfile)]) == EXIT_CONFIG
        assert ("--samples, --precision, --seed, --inject-defect: only verify"
                in capsys.readouterr().err)
    # verify itself still takes all four, as flags and from a file
    assert make_config(["verify", "--seed", "7", "--inject-defect", "omega-shift"]).seed == 7
    cfgfile.write_text(json.dumps(values))
    assert make_config(["verify", "--config", str(cfgfile)]).precision == 30


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


def test_config_values_need_the_flag_type(tmp_path, capsys):
    """A --config value has the type its flag parses to, or is null where
    the default is None; anything else is refused by name, not a crash."""
    cfgfile = tmp_path / "job.json"
    for doc in ({"m": "3"}, {"samples": "40"}, {"precision": True},
                {"tol": "1e-3"}, {"L0": None}, {"param": {"omega": 0.5}},
                {"param": "omega=1/2"}):
        cfgfile.write_text(json.dumps(doc))
        assert run(["build", "--config", str(cfgfile)]) == EXIT_CONFIG
        (field,) = doc
        assert f"config field {field!r}" in capsys.readouterr().err
    for doc in ({"m": 2}, {"omega": None}, {"t_final": 5},
                {"param": ["omega=1/2"]}, {"param": {"omega": "1/2"}}):
        cfgfile.write_text(json.dumps(doc))
        assert run(["build", "--config", str(cfgfile)]) == EXIT_OK
    # a mapping goes through the same name check as the flag
    cfgfile.write_text(json.dumps({"param": {"zeta": "1"}}))
    assert run(["build", "--config", str(cfgfile)]) == EXIT_CONFIG
    assert "unknown parameter 'zeta'" in capsys.readouterr().err


def test_samples_and_precision_must_be_positive(tmp_path, capsys):
    cfgfile = tmp_path / "job.json"
    for field in ("samples", "precision"):
        assert run(["verify", f"--{field}", "0"]) == EXIT_CONFIG
        assert f"--{field} must be a positive integer" in capsys.readouterr().err
        cfgfile.write_text(json.dumps({field: -1}))
        assert run(["verify", "--config", str(cfgfile)]) == EXIT_CONFIG
        assert f"--{field} must be a positive integer" in capsys.readouterr().err


def test_verify_samples_below_the_minimum_refused(capsys):
    # a sampled claim needs MIN_SAMPLES accepted samples, so fewer can only fail
    args = ["verify", "--model", "harmonic", "--param", "L0=1/2"]
    assert run(args + ["--samples", str(MIN_SAMPLES - 1)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"--samples {MIN_SAMPLES - 1}:" in err and f"at least {MIN_SAMPLES}" in err
    assert make_config(["verify", "--samples", str(MIN_SAMPLES)]).samples == MIN_SAMPLES


def test_tol_must_be_positive_and_finite(tmp_path, capsys):
    cfgfile = tmp_path / "job.json"
    for command in ("verify", "simulate"):
        for value in ("-1", "0", "nan", "inf"):
            assert run([command, "--model", "harmonic", "--param", "L0=1/2",
                        "--tol", value]) == EXIT_CONFIG
            assert "--tol must be positive and finite" in capsys.readouterr().err
        cfgfile.write_text(json.dumps({"tol": -1e-9}))
        assert run([command, "--config", str(cfgfile)]) == EXIT_CONFIG
        assert "--tol must be positive and finite" in capsys.readouterr().err


def test_inline_L0_refused_when_c_is_nonzero(capsys):
    """For c != 0 the profile takes L0 = 0, so a nonzero --L0 is refused
    rather than dropped; --L0 0 and the default still build."""
    args = ["build", "--model", "inline", "--c", "1", "--kappa", "0",
            "--V", "(c1 + c2*cos(q))/sin(q)^2", "--eta", "sin(q)"]
    for value in ("5", "sym"):
        assert run(args + ["--L0", value]) == EXIT_CONFIG
        assert f"--L0 {value}:" in capsys.readouterr().err
    assert run(args + ["--L0", "0"]) == EXIT_OK
    assert capsys.readouterr().out
    assert run(args) == EXIT_OK


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


def test_simulate_reports_solver_work(capsys, monkeypatch):
    from hamext import dynamics
    solved = []
    integrate = dynamics.integrate_adaptive

    def spy(cfg, field):
        solved.append(integrate(cfg, field))
        return solved[-1]

    monkeypatch.setattr(dynamics, "integrate_adaptive", spy)
    rc = run(["simulate", "--model", "harmonic", "--param", "L0=1/2",
              "--t-final", "3", "--tol", "1e-10", "--stride", "7",
              "--x0", "q=1.0,u=0.5,p_q=0.0,p_u=0.0"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(solved) == 1
    assert doc["nfev"] == solved[0].nfev > doc["samples"] == 7
    assert "steps" not in doc


def test_simulate_singular_initial_refused(capsys):
    rc = run(["simulate", "--model", "ttw",
              "--x0", "q=0.0,u=0.8,p_q=0.4,p_u=0.1"])
    assert rc == EXIT_CONFIG


def test_simulate_refuses_a_bad_x0_by_name(capsys):
    """A non-finite coordinate is refused before the solver sees it, and an
    initial point whose invariants overflow is a configuration error, not a
    traceback."""
    args = ["simulate", "--model", "harmonic", "--param", "L0=1/2", "--t-final", "5"]
    for value in ("nan", "inf", "-inf"):
        rc = run(args + ["--x0", f"q={value},u=0.8,p_q=0.4,p_u=-0.3"])
        assert rc == EXIT_CONFIG
        assert f"--x0 q={value}: coordinates must be finite" in capsys.readouterr().err
    rc = run(args + ["--x0", "q=1e308,u=0.8,p_q=0.4,p_u=-0.3"])
    assert rc == EXIT_CONFIG
    assert "initial point gives no value" in capsys.readouterr().err


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


# -- --out files ----------------------------------------------------------------

BUILD11 = ["build", "--model", "ttw", "--m", "1", "--n", "1"]
SIM_SHORT = ["simulate", "--model", "harmonic", "--param", "L0=1/2", "--t-final", "3",
             "--stride", "40", "--x0", "q=1.0,u=0.5,p_q=0.0,p_u=0.0"]


def test_unusable_out_refused_before_the_work(tmp_path, capsys, monkeypatch):
    """A missing parent directory, or a directory where an output file goes,
    is a configuration error that names the path; simulate refuses it before
    integrating, and build before building."""
    from hamext import cli, dynamics
    calls = []

    def never(*args):
        calls.append(args)
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli, "build_model", never)
    monkeypatch.setattr(dynamics, "integrate_adaptive", never)
    missing = tmp_path / "missing" / "x"
    (tmp_path / "run.drift.json").mkdir()
    cases = [
        (BUILD11 + ["--out", str(missing)], str(missing.parent)),
        (BUILD11 + ["--out", str(tmp_path)], str(tmp_path)),
        (SIM_SHORT + ["--out", str(missing)], str(missing.parent)),
        (SIM_SHORT + ["--out", str(tmp_path / "run")], str(tmp_path / "run.drift.json")),
    ]
    for argv, named in cases:
        assert run(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --out ") and named in err
    assert calls == []
