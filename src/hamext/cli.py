"""Batch front door: build a model, verify its claims, simulate, export.

Commands
--------
    build        construct H-bar and K-bar, print canonical text + metadata
    verify       run the claim battery, write a deterministic report
    simulate     integrate the modified flow and monitor invariant drift
    catalog      list built-in models with their parameter schemas
    solve-linear classify a linear seed family and certify its residuals

OPTIONS declares each command's options once, with types and defaults:
each is a flag and, for build, verify and simulate, a --config key.  Every
other option is refused by name, as are the inline model's options and a
schema-less --A on a catalog model.  Each command loads only what it
uses: build the exact ring alone, the inline model the parser too;
simulate adds the numeric compiler and the integrator, verify the
compiler, the flat zero test and mpmath for its 50-digit checks.  No
command loads numpy or scipy.  A parameter value whose float powers
overflow as the functions compile is a configuration error.

An --out that cannot be written is refused before any work is done.

Exit codes: 0 success, 1 configuration error, 2 seed-condition failure,
3 failed claim, 4 integration abort, 5 output error (a failed write).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence

from .coeffs import Var, ZeroCoefficientDivision
from .extension import SeedConditionError, make_extension_space, solve_linear_seed
from .models import CATALOG, ModelSpec, catalog_params, extend_model
from .params import PARAMS, ParamPoly, Q
from .phase import PhasePoint, PPoly, param_monomials

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SEED = 2
EXIT_CLAIM = 3
EXIT_INTEGRATION = 4
EXIT_OUTPUT = 5


class ConfigError(ValueError):
    pass


class OutputError(Exception):
    """An --out file could not be written."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which collides with the
    # seed-condition code; route everything through ConfigError instead.
    def error(self, message):
        raise ConfigError(message)


# Each command's options: name -> (type, default[, argparse keywords]).  The
# flag is --name with "_" spelled "-".  A --config value is null only where
# the default is None ("not given").  ``param`` collects NAME=VALUE entries,
# which a --config file may also give as a mapping.  Each default lives in
# one place: verify's --samples, --precision and --seed name the field of
# VerifySettings that make_config reads it from, and simulate's --tol and
# --stride are None here so that TrajectoryConfig fills them in (cli
# imports verify for the verify command only, and dynamics for simulate).
_MODEL = {
    "model": (str, "ttw", {"help": "catalog name (ttw, cage, harmonic) or 'inline'"}),
    "m": (int, 1),
    "n": (int, 1),
    "omega": (str, None, {"help": "rational value or 'sym' for the symbol"}),
    "kappa": (int, 0, {"choices": (-1, 0, 1)}),
    "c": (str, "1"),
    "L0": (str, "0"),
    "A": (str, "1"),
    "V": (str, None, {"help": "inline base potential"}),
    "eta": (str, None, {"help": "inline seed coefficient of p"}),
    "out": (str, None),
}
_NUMERIC = {
    "param": (list, (), {"metavar": "NAME=VALUE", "help": "numeric parameter value"}),
    "tol": (float, None),
}
OPTIONS: Dict[str, Dict[str, tuple]] = {
    "build": _MODEL,
    "verify": {**_MODEL, **_NUMERIC, "samples": (int, "samples"),
               "precision": (int, "precision"), "seed": (int, "rng_seed"),
               "inject_defect": (str, None, {"choices": ("omega-shift",), "help":
                                             "test-only tampering of the first integral"})},
    "simulate": {**_MODEL, **_NUMERIC, "t_final": (float, 100.0), "stride": (int, None),
                 "x0": (str, None, {"help": "comma list like q=0.6,u=0.9,p_q=0.4,p_u=-0.3"})},
    "catalog": {},
    "solve-linear": {"c": (str, "1"), "a1": (str, "1"), "a2": (str, "0"), "c1": (str, "sym"),
                     "c2": (str, "sym"), "L0": (str, "sym"), "out": (str, None)},
}

#: Options that only the inline model reads; catalog models refuse them.
INLINE_ONLY = ("V", "eta", "L0", "c", "kappa")


def _json_type_ok(type_, default, value) -> bool:
    """Whether a --config value has its flag's type, or is null where the default is."""
    if value is None:
        return default is None
    if type_ is list:
        # --param: NAME=VALUE strings, or a mapping of names to strings
        if isinstance(value, dict):
            value = [*value, *value.values()]
        return isinstance(value, list) and all(type(v) is str for v in value)
    # a JSON integer is a valid float, but a boolean is not an integer
    return type(value) in ((int, float) if type_ is float else (type_,))


def _rat(text: str, what: str = "") -> Q:
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what}expected a rational number, got {text!r}: {exc}")


def _sym_or_rat(text: Optional[str], default_param: str) -> ParamPoly:
    """Value for a model constant: rational text, or its parameter symbol."""
    if text is None or text == "sym":
        return ParamPoly.var(default_param)
    return ParamPoly.scalar(_rat(text))


def _parse_params(items) -> Dict[str, float]:
    """--param entries (or a --config mapping) as evaluation values, each a finite float."""
    if isinstance(items, dict):
        items = [f"{k}={v}" for k, v in items.items()]
    out: Dict[str, float] = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--param expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        if name not in PARAMS:
            raise ConfigError(f"unknown parameter {name!r}; alphabet is {PARAMS}")
        try:
            out[name] = float(_rat(value, f"--param {name}: "))
        except OverflowError:
            raise ConfigError(f"--param {name}: {value!r} is too large for a float") from None
    return out


def build_arg_parser() -> _Parser:
    ap = _Parser(prog="hamext", description=__doc__, allow_abbrev=False,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        # every flag defaults to None, "not given", so that a --config value
        # is not shadowed; make_config fills in the defaults of OPTIONS
        for name, (type_, _, *kw) in options.items():
            how = {"action": "append"} if type_ is list else {"type": type_}
            p.add_argument("--" + name.replace("_", "-"), **how, **(kw[0] if kw else {}))
        if "model" in options:
            p.add_argument("--config", help="JSON file with the same keys as the flags")
    return ap


def _flags(names: Sequence[str]) -> str:
    return ", ".join("--" + k.replace("_", "-") for k in names)


def _read_config(path: str, command: str) -> dict:
    """The options of a --config file, each read by ``command`` and of its flag's type."""
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    if not isinstance(loaded, dict):
        raise ConfigError(f"config {path!r} holds a JSON {type(loaded).__name__}, "
                          "not an object of option values")
    unknown = [k for k in loaded if not any(k in o for o in OPTIONS.values())]
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    readers: Dict[tuple, List[str]] = {}
    for k in loaded:
        if k not in OPTIONS[command]:
            readers.setdefault(tuple(c for c in OPTIONS if k in OPTIONS[c]), []).append(k)
    if readers:
        raise ConfigError("; ".join(
            f"{_flags(names)}: only {' and '.join(cmds)} read{'s' * (len(cmds) == 1)} these"
            for cmds, names in readers.items()))
    for k, v in loaded.items():
        type_, default, *kw = OPTIONS[command][k]
        if not _json_type_ok(type_, default, v):
            raise ConfigError(f"config field {k!r} has the wrong type: {v!r}")
        choices = kw[0].get("choices") if kw else None
        if choices and v is not None and v not in choices:
            raise ConfigError(f"config field {k!r}: {v!r} is not one of {list(choices)}")
    return loaded


def make_config(argv: Sequence[str]) -> argparse.Namespace:
    """The command and exactly its OPTIONS: a flag's value, else the
    --config file's, else the default."""
    ns = build_arg_parser().parse_args(argv)
    command, options = ns.command, OPTIONS[ns.command]
    data = {k: v for k, v in vars(ns).items() if v is not None and k in options}
    if getattr(ns, "config", None):
        data = {**_read_config(ns.config, command), **data}
    model = data.get("model", _MODEL["model"][1])
    if "model" in options and model in CATALOG:
        given = [k for k in INLINE_ONLY if k in data]
        if given:
            raise ConfigError(f"{_flags(given)}: only --model inline reads these; the "
                              f"catalog model {model!r} takes --m, --n, --omega and its "
                              "parameters")
        schema = CATALOG[model]["params"]
        if "A" in data and "A" not in schema:
            raise ConfigError(f"--A: the catalog model {model!r} has no parameter A; "
                              f"its parameters are {', '.join(schema)}")
    cfg = argparse.Namespace(command=command, **{
        k: data[k] if k in data else default for k, (_, default, *_) in options.items()})
    if "param" in options:
        cfg.param = _parse_params(cfg.param)
    if "m" in options and (cfg.m < 1 or cfg.n < 1):
        raise ConfigError("m and n must be positive integers")
    if command == "verify":
        from .verify import MIN_PRECISION, MIN_SAMPLES, VerifySettings

        vars(cfg).update({k: getattr(VerifySettings, options[k][1])
                          for k in ("samples", "precision", "seed") if k not in data})
        for name, least, unit in (("samples", MIN_SAMPLES, "accepted samples"),
                                  ("precision", MIN_PRECISION, "digits")):
            value = getattr(cfg, name)
            if value < 1:
                raise ConfigError(f"--{name} must be a positive integer, got {value}")
            if value < least:
                raise ConfigError(f"--{name} {value}: a sampled claim needs at least "
                                  f"{least} {unit}")
    for name in ("tol", "t_final"):
        value = vars(cfg).get(name)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{_flags([name])} must be positive and finite, got {value}")
    if command == "simulate" and cfg.stride is not None and cfg.stride < 2:
        raise ConfigError(f"--stride must be at least 2, got {cfg.stride}")
    if vars(cfg).get("out"):
        _check_out(cfg)
    return cfg


def _check_out(cfg: argparse.Namespace):
    """Refuse an --out that cannot be written, before the work is done."""
    parent = os.path.dirname(cfg.out) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"--out {cfg.out}: no directory {parent!r} to write into")
    targets = ([cfg.out + ".traj.tsv", cfg.out + ".drift.json"]
               if cfg.command == "simulate" else [cfg.out])
    for path in targets:
        if os.path.isdir(path):
            raise ConfigError(f"--out {cfg.out}: {path!r} is a directory")


# ---------------------------------------------------------------------------
# model construction


def _inline_model(cfg: argparse.Namespace) -> ModelSpec:
    from .exprparse import ExpressionError, parse_coeff  # loaded by inline models only

    if cfg.V is None or cfg.eta is None:
        raise ConfigError("inline models need both --V and --eta")
    c = _rat(cfg.c)
    L0 = _sym_or_rat(cfg.L0, "L0")
    if c != 0 and not L0.is_zero:
        raise ConfigError(f"--L0 {cfg.L0}: the inline model with --c != 0 takes "
                          "L0 = 0 (absorb the constant into --V)")
    A = _sym_or_rat(cfg.A, "A")
    omega = _sym_or_rat(cfg.omega, "omega")
    base = Var.tagged("q", c) if c != 0 else Var.linear("q")
    space = make_extension_space([base], c=c, kappa=cfg.kappa)
    sysv = space.system
    try:
        V = parse_coeff(cfg.V, sysv)
        eta = parse_coeff(cfg.eta, sysv)
    except (ExpressionError, ZeroCoefficientDivision) as exc:
        raise ConfigError(str(exc))
    # a seed that fails its identity raises SeedConditionError
    return extend_model("inline", space, V, eta, m=cfg.m, n=cfg.n, c=c, L0=L0,
                        kappa=cfg.kappa, A=A, omega=omega,
                        params={"omega": omega, "L0": L0, "A": A},
                        metadata={"V": cfg.V, "eta": cfg.eta})


def build_model(cfg: argparse.Namespace) -> ModelSpec:
    """The inline model, or the catalog entry's builder; --A goes only to
    entries whose parameter schema lists A (make_config refuses it for the
    others)."""
    if cfg.model == "inline":
        return _inline_model(cfg)
    entry = CATALOG.get(cfg.model)
    if entry is None:
        raise ConfigError(f"unknown model {cfg.model!r}; see the catalog command")
    kwargs = {"omega": _sym_or_rat(cfg.omega, "omega")}
    if "A" in entry["params"]:
        kwargs["A"] = _sym_or_rat(cfg.A, "A")
    return entry["builder"](cfg.m, cfg.n, **kwargs)


def _occurring_params(*polys: PPoly) -> Dict[str, int]:
    """Each parameter that occurs anywhere in the given polynomials, with
    its largest exponent there, in alphabet order."""
    top: Dict[int, int] = {}
    for pm in param_monomials(*polys):
        for i, e in pm:
            top[i] = max(top.get(i, 0), e)
    return {PARAMS[i]: top[i] for i in sorted(top)}


def numeric_params(cfg: argparse.Namespace, model: ModelSpec) -> Dict[str, float]:
    """Evaluation values: catalog defaults overridden by --param entries.

    Every parameter that occurs in H_bar, K_bar or L needs a value; a
    missing one is a configuration error, never a silent zero.  So is a
    value whose float power to the parameter's largest exponent overflows.
    """
    out = catalog_params(model.name) if model.name in CATALOG else {}
    out.update(cfg.param)
    occurring = _occurring_params(model.Hbar, model.Kbar.poly, model.L)
    missing = [name for name in occurring if name not in out]
    if missing:
        raise ConfigError(f"no value for parameter(s) {', '.join(missing)}; "
                          "give each as --param NAME=VALUE")
    for name, e in occurring.items():
        try:
            out[name] ** e
        except OverflowError:
            raise ConfigError(f"--param {name}={out[name]!r}: {name}^{e} overflows "
                              "a float") from None
    return out


@contextlib.contextmanager
def _writing(path: str):
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from None


def _emit(text: str, out: Optional[str]):
    if out:
        with _writing(out), open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tampered_K(model: ModelSpec, defect: Optional[str]) -> Optional[PPoly]:
    if defect is None:
        return None
    # "omega-shift", the one choice of --inject-defect
    shift = ParamPoly.var("omega").scale(Q(1001, 1000))
    return model.Kbar.poly.substitute({"omega": shift})


# ---------------------------------------------------------------------------
# commands


def cmd_build(cfg: argparse.Namespace) -> int:
    model = build_model(cfg)
    doc = {
        "model": model.describe(),
        "H_plain": model.H.render(),
        "H_modified": model.Hbar.render(),
        "K_modified": model.Kbar.poly.render(),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg.out)
    return EXIT_OK


def run_model_verification(*args, **kwargs):
    """``verify.run_model_verification``; verify loads with its command."""
    from . import verify

    return verify.run_model_verification(*args, **kwargs)


def cmd_verify(cfg: argparse.Namespace) -> int:
    from .verify import VerifySettings

    model = build_model(cfg)
    params = numeric_params(cfg, model)
    settings = VerifySettings(samples=cfg.samples, precision=cfg.precision,
                              rng_seed=cfg.seed, tol=cfg.tol)
    report = run_model_verification(model, params, settings, console=sys.stderr,
                                    K_override=_tampered_K(model, cfg.inject_defect))
    _emit(report.to_document(), cfg.out)
    return EXIT_OK if report.all_ok else EXIT_CLAIM


def _initial_point(x0: Optional[str], model: ModelSpec) -> PhasePoint:
    """The --x0 point, or without one the default start of simulate."""
    names = model.space.coordinate_names
    if x0:
        coords: Dict[str, float] = {}
        for item in x0.split(","):
            if "=" not in item:
                raise ConfigError(f"--x0 entries look like q=0.6, got {item!r}")
            k, _, v = item.partition("=")
            k = k.strip()
            if k not in names:
                raise ConfigError(f"unknown coordinate {k!r}; expected {names}")
            if k in coords:
                raise ConfigError(f"--x0 gives the coordinate {k!r} twice")
            try:
                coords[k] = float(v)
            except ValueError:
                raise ConfigError(f"bad coordinate value {v!r}")
            if not math.isfinite(coords[k]):
                raise ConfigError(f"--x0 {k}={v.strip()}: coordinates must be finite")
        missing = [k for k in names if k not in coords]
        if missing:
            raise ConfigError(f"--x0 missing coordinates {missing}")
        return PhasePoint.make(model.space, coords)
    coords = {name: 0.6 + 0.2 * i for i, name in enumerate(model.space.position_names)}
    coords.update((name, 0.4 if i % 2 == 0 else -0.3)
                  for i, name in enumerate(model.space.momentum_names))
    return PhasePoint.make(model.space, coords)


def cmd_simulate(cfg: argparse.Namespace) -> int:
    # the only command that integrates: build and verify start without it
    from . import dynamics

    model = build_model(cfg)
    params = numeric_params(cfg, model)
    point = _initial_point(cfg.x0, model)
    invariants = {"H_modified": model.Hbar, "K_modified": model.Kbar.poly,
                  "L_base": model.L}
    try:
        dynamics.validate_initial_point(point, list(invariants.values()), params)
    except ValueError as exc:
        raise ConfigError(str(exc))
    # --tol and --stride default to TrajectoryConfig's own values
    given = {k: vars(cfg)[k] for k in ("tol", "stride") if vars(cfg)[k] is not None}
    traj_cfg = dynamics.TrajectoryConfig(initial=point, t_final=cfg.t_final, **given)
    field = dynamics.hamiltons_equations(model.Hbar, params)
    traj = dynamics.integrate_adaptive(traj_cfg, field)
    values = dynamics.invariant_values(traj, invariants, params)
    drift = dynamics.monitor_invariants(traj, values)
    doc = json.dumps(drift.to_dict(), indent=2, sort_keys=True) + "\n"
    if cfg.out:
        with _writing(cfg.out + ".traj.tsv"):
            dynamics.write_trajectory(cfg.out + ".traj.tsv", traj, values)
        _emit(doc, cfg.out + ".drift.json")
    sys.stdout.write(doc)
    if not traj.success:
        sys.stderr.write(f"integration aborted: {drift.message}\n")
        return EXIT_INTEGRATION
    return EXIT_OK


def cmd_catalog(cfg: argparse.Namespace) -> int:
    doc = {
        name: {"params": entry["params"], "doc": entry["doc"]}
        for name, entry in sorted(CATALOG.items())
    }
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_solve_linear(cfg: argparse.Namespace) -> int:
    family = solve_linear_seed(
        _rat(cfg.c),
        _sym_or_rat(cfg.a1, "a1"), _sym_or_rat(cfg.a2, "a2"),
        _sym_or_rat(cfg.c1, "c1"), _sym_or_rat(cfg.c2, "c2"),
        _sym_or_rat(cfg.L0, "L0"),
    )
    doc = {
        "case": family.case,
        "eta": family.eta.render(),
        "V": family.V.render(),
        "G": family.G.render(),
        "residual_eta": family.residual_eta.render(),
        "residual_V": family.residual_V.render(),
        "certified": family.certified,
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg.out)
    return EXIT_OK if family.certified else EXIT_CLAIM


COMMANDS = {"build": cmd_build, "verify": cmd_verify, "simulate": cmd_simulate,
            "catalog": cmd_catalog, "solve-linear": cmd_solve_linear}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = make_config(list(argv) if argv is not None else sys.argv[1:])
        return COMMANDS[cfg.command](cfg)
    except SeedConditionError as exc:
        sys.stderr.write(f"seed condition failed:\n{exc}\n")
        return EXIT_SEED
    except OutputError as exc:
        sys.stderr.write(f"output error: {exc}\n")
        return EXIT_OUTPUT
    except OverflowError as exc:
        # a float power of a parameter, taken when verify or simulate
        # compiles the functions; a flow that overflows aborts instead
        sys.stderr.write(f"config error: a parameter value overflows a float "
                         f"in the compiled functions: {exc}\n")
        return EXIT_CONFIG
    except ValueError as exc:  # ConfigError among them
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


def entry():  # console script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
