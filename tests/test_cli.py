import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hamext import Var, VarSystem
from hamext.cli import (EXIT_CLAIM, EXIT_CONFIG, EXIT_INTEGRATION, EXIT_OK,
                        EXIT_OUTPUT, EXIT_SEED, main, make_config)
from hamext.exprparse import parse_coeff
from hamext.models import CATALOG, catalog_params
from hamext.verify import MIN_PRECISION, MIN_SAMPLES


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


def test_every_catalog_model_builds(tmp_path, capsys):
    """``--model NAME`` reaches each catalog builder; ``--A`` reaches the
    entries whose parameter schema lists A, and the others refuse it by name,
    as a flag or from a --config file, instead of dropping it."""
    out = {}
    for name in CATALOG:
        args = ["build", "--model", name, "--m", "2", "--n", "1"]
        assert run(args) == EXIT_OK
        out[name] = capsys.readouterr().out
        assert json.loads(out[name])["model"]["name"] == name
        if name != "ttw":
            assert run(args + ["--A", "2"]) == EXIT_OK
            assert capsys.readouterr().out != out[name]
    assert "A" not in CATALOG["ttw"]["params"]
    assert run(["build", "--model", "ttw", "--A", "2"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --A: the catalog model 'ttw'")
    cfgfile = tmp_path / "job.json"
    cfgfile.write_text(json.dumps({"model": "ttw", "A": "2"}))
    for command in ("build", "verify", "simulate"):
        assert run([command, "--config", str(cfgfile)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --A: ")


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
    for args in (["build", "--model", "harmonic"],
                 ["simulate", "--model", "harmonic", "--param", "L0=1/2"]):
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
    # build evaluates nothing, so it refuses --param too
    assert run(["build", "--model", "harmonic", "--param", "L0=1/2"]) == EXIT_CONFIG
    assert "--param" in capsys.readouterr().err
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
    the default is None; anything else is refused by name, not a crash.
    verify's --samples, --precision and --seed default to VerifySettings's
    values, none of them None, so null is refused for each."""
    cfgfile = tmp_path / "job.json"
    # verify reads every one of these fields
    for doc in ({"m": "3"}, {"samples": "40"}, {"precision": True}, {"samples": None},
                {"precision": None}, {"seed": None},
                {"tol": "1e-3"}, {"L0": None}, {"param": {"omega": 0.5}},
                {"param": "omega=1/2"}):
        cfgfile.write_text(json.dumps(doc))
        assert run(["verify", "--config", str(cfgfile)]) == EXIT_CONFIG
        (field,) = doc
        assert f"config field {field!r}" in capsys.readouterr().err
    for doc in ({"m": 2}, {"omega": None}):
        cfgfile.write_text(json.dumps(doc))
        assert run(["build", "--config", str(cfgfile)]) == EXIT_OK
    # an integer is a valid float; either form of --param is read by the
    # commands that evaluate, and build refuses both fields by name
    cfgfile.write_text(json.dumps({"t_final": 5}))
    assert make_config(["simulate", "--config", str(cfgfile)]).t_final == 5
    assert run(["build", "--config", str(cfgfile)]) == EXIT_CONFIG
    assert "--t-final: only simulate reads these" in capsys.readouterr().err
    for param in (["omega=1/2"], {"omega": "1/2"}):
        cfgfile.write_text(json.dumps({"param": param}))
        for command in ("verify", "simulate"):
            assert make_config([command, "--config", str(cfgfile)]).param == {"omega": 0.5}
        assert run(["build", "--config", str(cfgfile)]) == EXIT_CONFIG
        assert "--param: only verify and simulate read these" in capsys.readouterr().err
    # a mapping goes through the same name check as the flag
    cfgfile.write_text(json.dumps({"param": {"zeta": "1"}}))
    assert run(["verify", "--config", str(cfgfile)]) == EXIT_CONFIG
    assert "unknown parameter 'zeta'" in capsys.readouterr().err
    # a file that holds no mapping of fields is refused, not a traceback
    for doc in (5, ["m"]):
        cfgfile.write_text(json.dumps(doc))
        assert run(["build", "--config", str(cfgfile)]) == EXIT_CONFIG
        assert "not an object of option values" in capsys.readouterr().err


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


def test_verify_precision_below_the_minimum_refused(tmp_path, capsys):
    """Below 22 digits the singularity guard 10^(10 - precision) is above the
    float path's 1e-12 and rejects regular samples (at 10 digits every one),
    so --precision 21 is refused, as a flag or in --config, and at 22 a
    correct model passes."""
    assert MIN_PRECISION == 22
    cfgfile = tmp_path / "job.json"
    args = ["verify", "--model", "ttw", "--samples", "30"]
    assert run(args + ["--precision", "21"]) == EXIT_CONFIG
    assert "--precision 21: a sampled claim needs at least 22 digits" in capsys.readouterr().err
    cfgfile.write_text(json.dumps({"precision": 21}))
    assert run(args + ["--config", str(cfgfile)]) == EXIT_CONFIG
    assert "--precision 21:" in capsys.readouterr().err
    cfgfile.write_text(json.dumps({"precision": 22}))
    assert make_config(args + ["--config", str(cfgfile)]).precision == 22
    assert run(args + ["--precision", "22"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["precision"] == 22 and doc["all_ok"] is True


def test_verify_calls_the_stage_functions_through_cli_attributes(monkeypatch, capsys):
    """The benchmark times a verify job by replacing cli.build_model and
    cli.run_model_verification, so cmd_verify calls each through its module
    attribute, not a copy bound elsewhere."""
    from hamext import cli

    calls = []
    for name in ("build_model", "run_model_verification"):
        def spy(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    assert cli.main(["verify", "--model", "ttw", "--m", "1", "--n", "1",
                     "--samples", "30"]) == EXIT_OK
    assert calls == ["build_model", "run_model_verification"]
    assert json.loads(capsys.readouterr().out)["all_ok"] is True


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


def test_config_values_need_the_flag_choices(tmp_path, capsys, monkeypatch):
    """A --config value outside its flag's choices is refused by field name
    before the model is built, as the flag is by argparse."""
    from hamext import cli

    def never(*args):
        raise AssertionError("the model was built before the choices were checked")

    monkeypatch.setattr(cli, "build_model", never)
    cfgfile = tmp_path / "job.json"
    for command, doc, field, flag in (
            ("verify", {"inject_defect": "nope"}, "inject_defect", ["--inject-defect", "nope"]),
            ("build", {"model": "inline", "kappa": 5}, "kappa", ["--kappa", "5"])):
        cfgfile.write_text(json.dumps(doc))
        assert run([command, "--config", str(cfgfile)]) == EXIT_CONFIG
        assert f"config field {field!r}: {doc[field]!r} is not one of" in capsys.readouterr().err
        assert run([command, "--model", "inline", *flag]) == EXIT_CONFIG
        assert "invalid choice" in capsys.readouterr().err


def test_flag_prefixes_refused(capsys):
    """Each flag is spelled in full: argparse would otherwise read --mod as
    --model and --pre as --precision."""
    for argv in (["build", "--mod", "ttw", "--m", "1"], ["verify", "--pre", "30"]):
        assert run(argv) == EXIT_CONFIG
        assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err


def test_simulate_span_and_stride_refused_before_the_model_is_built(tmp_path, capsys,
                                                                   monkeypatch):
    """A --t-final that is not finite and positive, or a --stride below 2, is a
    configuration error naming the flag, as a flag or in a --config file,
    before the model is built."""
    from hamext import cli

    def never(*args):
        raise AssertionError("the model was built before --t-final and --stride were checked")

    monkeypatch.setattr(cli, "build_model", never)
    cfgfile = tmp_path / "job.json"
    for name, value, message in (("t_final", -1.0, "--t-final must be positive and finite"),
                                 ("t_final", 0.0, "--t-final must be positive and finite"),
                                 ("t_final", float("nan"), "--t-final must be positive"),
                                 ("t_final", float("inf"), "--t-final must be positive"),
                                 ("stride", 1, "--stride must be at least 2, got 1")):
        flag = "--" + name.replace("_", "-")
        assert run(["simulate", "--model", "ttw", "--m", "5", "--n", "3",
                    flag, str(value)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        cfgfile.write_text(json.dumps({name: value}))
        assert run(["simulate", "--config", str(cfgfile)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err


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


def test_cli_defaults_are_the_library_defaults(capsys, monkeypatch):
    """verify's --samples, --precision, --seed and --tol, and simulate's --tol
    and --stride, default to the values of VerifySettings and
    TrajectoryConfig, which state each default once."""
    from dataclasses import fields

    from hamext import dynamics
    from hamext.verify import VerifySettings

    cfg, lib = make_config(["verify"]), VerifySettings()
    assert (cfg.samples, cfg.precision, cfg.seed, cfg.tol) == \
        (lib.samples, lib.precision, lib.rng_seed, lib.tol)
    configs = []
    integrate = dynamics.integrate_adaptive

    def spy(traj_cfg, field):
        configs.append(traj_cfg)
        return integrate(traj_cfg, field)

    monkeypatch.setattr(dynamics, "integrate_adaptive", spy)
    assert run(["simulate", "--model", "harmonic", "--param", "L0=1/2",
                "--t-final", "0.5"]) == EXIT_OK
    defaults = {f.name: f.default for f in fields(dynamics.TrajectoryConfig)}
    (traj_cfg,) = configs
    assert (traj_cfg.tol, traj_cfg.stride) == (defaults["tol"], defaults["stride"])
    assert json.loads(capsys.readouterr().out)["samples"] == defaults["stride"]


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


def test_simulate_refuses_a_repeated_x0_coordinate(capsys):
    """A coordinate given twice is refused by name, whichever value comes
    last and even if both values agree."""
    args = ["simulate", "--model", "harmonic", "--param", "L0=1/2", "--t-final", "1"]
    for x0, name in (("q=0.6,u=0.8,p_q=0.4,p_u=-0.3,q=0.9", "q"),
                     ("q=0.6,u=0.8,p_q=0.4,p_u=-0.3, p_u=-0.3", "p_u")):
        assert run(args + ["--x0", x0]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--x0 gives the coordinate {name!r} twice" in captured.err


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


def test_param_value_refused_before_the_model_is_built(tmp_path, capsys, monkeypatch):
    """A --param value that is not a rational number is a configuration error
    naming the parameter, as a flag or in a --config file, and no model is
    built; ``omega=1/0`` used to end in a ZeroDivisionError traceback."""
    from hamext import cli

    def never(*args):
        raise AssertionError("the model was built before --param was checked")

    monkeypatch.setattr(cli, "build_model", never)
    for value in ("1/0", "abc", "nan"):
        assert run(["verify", "--model", "ttw", "--param", f"omega={value}"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --param omega: expected a rational number, "
                              f"got {value!r}")
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"param": {"alpha1": "3/0"}}))
    assert run(["simulate", "--config", str(cfgfile)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --param alpha1: ")


def test_param_value_too_large_for_a_float_refused(tmp_path, capsys, monkeypatch):
    """A --param value with no finite float (``omega=1e400``) is a configuration
    error naming the parameter, as a flag or in a --config file, before the
    model is built; it used to end in an OverflowError traceback."""
    from hamext import cli

    def never(*args):
        raise AssertionError("the model was built before --param was checked")

    monkeypatch.setattr(cli, "build_model", never)
    for command in ("verify", "simulate"):
        for value in ("1e400", "-1e400"):
            assert run([command, "--model", "ttw", "--param", f"omega={value}"]) == EXIT_CONFIG
            assert capsys.readouterr().err == (f"config error: --param omega: {value!r} "
                                               "is too large for a float\n")
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"param": {"alpha1": "3e400"}}))
        assert run([command, "--config", str(cfgfile)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --param alpha1: ")
    # a value that only rounds to a float is still taken
    assert make_config(["verify", "--param", "omega=1e300"]).param == {"omega": 1e300}


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_param_power_overflow_is_refused_before_any_claim(command, capsys):
    """``omega=1e120`` is a float, but ttw(3,2) holds ``omega^3``, which is
    not: the value is refused up front, naming the parameter and the power,
    before any claim runs or prints its timing."""
    argv = [command, "--model", "ttw", "--m", "3", "--n", "2", "--param", "omega=1e120"]
    assert run(argv + (["--samples", "30"] if command == "verify" else [])) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --param omega=1e+120: omega^3 overflows a float\n"


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_param_power_overflow_is_a_config_error(command, capsys, monkeypatch):
    """An overflow that the up-front check cannot foresee, a power raised
    in a derivative, still ends as a configuration error when the functions
    compile, one line after verify's claim timings, and not as an
    OverflowError traceback.  Here the check is bypassed to force one."""
    from hamext import cli

    monkeypatch.setattr(cli, "numeric_params",
                        lambda cfg, model: dict(catalog_params("ttw"), omega=1e200))
    argv = [command, "--model", "ttw", "--m", "3", "--n", "2"]
    assert run(argv + (["--samples", "30"] if command == "verify" else [])) == EXIT_CONFIG
    captured = capsys.readouterr()
    *timings, last = captured.err.splitlines()
    assert captured.out == "" and last.startswith(
        "config error: a parameter value overflows a float in the compiled functions: ")
    assert all(re.fullmatch(r"  \w+: \d+\.\d\ds", line) for line in timings)


# -- which command reads which flag ---------------------------------------------

#: The long flags each command accepts, written out by hand: the table in
#: hamext.cli must agree with this list, not the other way round.
MODEL_FLAGS = {"--model", "--m", "--n", "--omega", "--kappa", "--c", "--L0", "--A",
               "--V", "--eta", "--out", "--config"}
ACCEPTED = {
    "build": MODEL_FLAGS,
    "verify": MODEL_FLAGS | {"--param", "--tol", "--samples", "--precision", "--seed",
                             "--inject-defect"},
    "simulate": MODEL_FLAGS | {"--param", "--tol", "--t-final", "--stride", "--x0"},
    "catalog": set(),
    "solve-linear": {"--c", "--a1", "--a2", "--c1", "--c2", "--L0", "--out"},
}


@pytest.mark.parametrize("command", sorted(ACCEPTED))
def test_help_lists_exactly_the_accepted_flags(command):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "hamext", command, "--help"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert set(re.findall(r"--[A-Za-z][\w-]*", proc.stdout)) - {"--help"} == ACCEPTED[command]


@pytest.mark.parametrize("command", sorted(ACCEPTED))
def test_every_other_flag_refused(command, tmp_path, capsys):
    """A flag that only other commands read is refused by name, never dropped;
    so is its --config field, for the commands that read a --config file."""
    cfgfile = tmp_path / "job.json"
    for flag in sorted(set().union(*ACCEPTED.values()) - ACCEPTED[command]):
        assert run([command, flag, "1"]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        if "--config" in ACCEPTED[command]:
            cfgfile.write_text(json.dumps({flag[2:].replace("-", "_"): "1"}))
            assert run([command, "--config", str(cfgfile)]) == EXIT_CONFIG
            assert f"{flag}: only " in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_is_an_output_error(tmp_path, capsys):
    """A write of an --out file that fails (here: no space left on the
    device) prints one line naming the file and exits with EXIT_OUTPUT."""
    assert run(BUILD11 + ["--out", "/dev/full"]) == EXIT_OUTPUT
    assert capsys.readouterr().err == ("output error: cannot write /dev/full: "
                                       "[Errno 28] No space left on device\n")
    for suffix in (".traj.tsv", ".drift.json"):
        out = tmp_path / suffix.strip(".")
        Path(str(out) + suffix).symlink_to("/dev/full")
        assert run(SIM_SHORT + ["--out", str(out)]) == EXIT_OUTPUT
        assert capsys.readouterr().err == (f"output error: cannot write {out}{suffix}: "
                                           "[Errno 28] No space left on device\n")
    # the whole process: one line, and no second report of the failed flush
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-X", "dev", "-m", "hamext", *BUILD11,
                           "--out", "/dev/full"], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == EXIT_OUTPUT
    assert proc.stderr == ("output error: cannot write /dev/full: "
                           "[Errno 28] No space left on device\n")


def test_inline_deep_nesting_is_a_config_error(capsys):
    """Python's parser refuses over 200 nested parentheses; the refusal is a
    configuration error, not a traceback."""
    deep = "(" * 300 + "q" + ")" * 300
    rc = run(["build", "--model", "inline", "--c", "0", "--L0", "1",
              "--eta", "q", "--V", deep])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_refused_long_expression_is_quoted_short(capsys):
    """A refused input is quoted by its first 60 characters and its length,
    not echoed whole: 5,000 terms give one short line."""
    long_sum = "+".join(["q"] * 5000)
    rc = run(["build", "--model", "inline", "--c", "0", "--L0", "1",
              "--eta", "q", "--V", long_sum])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 300
    assert f"{long_sum[:60] + '…'!r} (9,999 characters)" in err


def test_inline_division_by_zero_is_a_config_error(capsys):
    rc = run(["build", "--model", "inline", "--c", "0", "--L0", "1",
              "--eta", "q", "--V", "q^2 + 1/(q - q)"])
    assert rc == EXIT_CONFIG
    assert "identically-zero" in capsys.readouterr().err


def test_inline_long_sum_parses():
    sysv = VarSystem([Var.linear("q")])
    assert parse_coeff(" + ".join(["q"] * 500), sysv) == 500 * sysv.coord("q")
