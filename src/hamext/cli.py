"""Batch front door: build a model, verify its claims, simulate, export.

Commands
--------
    build        construct H-bar and K-bar, print canonical text + metadata
    verify       run the claim battery, write a deterministic report
    simulate     integrate the modified flow and monitor invariant drift
    catalog      list built-in models with their parameter schemas
    solve-linear classify a linear seed family and certify its residuals

--samples, --precision, --seed and --inject-defect are verify's alone;
build and simulate refuse them, as flags or in a --config file.  Each
command loads only the numeric stack it uses: build neither numpy nor
scipy, verify numpy (for its rank check), simulate numpy and scipy (for
the integrator).

An --out that cannot be written is refused before any work is done.

Exit codes: 0 success, 1 configuration error, 2 seed-condition failure,
3 failed claim, 4 integration abort.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, get_args, get_type_hints

from .coeffs import Var
from .exprparse import ExpressionError, parse_coeff
from .extension import SeedConditionError, make_extension_space, solve_linear_seed
from .models import CATALOG, ModelSpec, catalog_params, extend_model
from .params import PARAMS, ParamPoly, Q
from .phase import PhasePoint, PPoly
from .verify import MIN_SAMPLES, VerifySettings, run_model_verification

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SEED = 2
EXIT_CLAIM = 3
EXIT_INTEGRATION = 4


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which collides with the
    # seed-condition code; route everything through ConfigError instead.
    def error(self, message):
        raise ConfigError(message)


@dataclass
class JobConfig:
    """Validated invocation; one job per process."""

    command: str
    model: str = "ttw"
    m: int = 1
    n: int = 1
    omega: Optional[str] = None
    kappa: int = 0
    c: str = "1"
    L0: str = "0"
    A: str = "1"
    V: Optional[str] = None
    eta: Optional[str] = None
    param: Dict[str, str] = field(default_factory=dict)
    samples: int = 100
    tol: Optional[float] = None
    precision: int = 50
    seed: int = 20240901
    out: Optional[str] = None
    inject_defect: Optional[str] = None
    # solve-linear inputs
    a1: str = "1"
    a2: str = "0"
    c1: Optional[str] = None
    c2: Optional[str] = None
    # simulation
    t_final: float = 100.0
    stride: int = 200
    x0: Optional[str] = None

    KNOWN = None  # filled below


JobConfig.KNOWN = set(JobConfig.__dataclass_fields__)

#: Fields that only the inline model reads; catalog models refuse them.
INLINE_ONLY = ("V", "eta", "L0", "c", "kappa")
#: Fields that only verify reads; build and simulate refuse them.
VERIFY_ONLY = ("samples", "precision", "seed", "inject_defect")


def _json_type_ok(hint, value) -> bool:
    """Whether a --config value has the type its flag parses to, or is null
    where the default is None."""
    args = get_args(hint)
    if value is None:
        return type(None) in args
    if hint == Dict[str, str]:
        # --param: NAME=VALUE strings, or a mapping of names to strings
        if isinstance(value, dict):
            value = [*value, *value.values()]
        return isinstance(value, list) and all(type(v) is str for v in value)
    if args:  # Optional[X]
        hint = args[0]
    # a JSON integer is a valid float, but a boolean is not an integer
    return type(value) in ((int, float) if hint is float else (hint,))


def _rat(text: str) -> Q:
    try:
        return Q(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"expected a rational number, got {text!r}: {exc}")


def _sym_or_rat(text: Optional[str], default_param: str) -> ParamPoly:
    """Value for a model constant: rational text, or its parameter symbol."""
    if text is None or text == "sym":
        return ParamPoly.var(default_param)
    return ParamPoly.scalar(_rat(text))


def _parse_params(items: Sequence[str]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigError(f"--param expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        if name not in PARAMS:
            raise ConfigError(f"unknown parameter {name!r}; alphabet is {PARAMS}")
        out[name] = value
    return out


def build_arg_parser() -> _Parser:
    ap = _Parser(prog="hamext", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        # defaults live on JobConfig; None here means "not given", so JSON
        # config values are not shadowed by parser defaults
        p.add_argument("--model", default=None,
                       help="catalog name (ttw, cage, harmonic) or 'inline'")
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--omega", default=None,
                       help="rational value or 'sym' for the symbol")
        p.add_argument("--kappa", type=int, default=None, choices=(-1, 0, 1))
        p.add_argument("--c", default=None)
        p.add_argument("--L0", default=None)
        p.add_argument("--A", default=None)
        p.add_argument("--V", default=None, help="inline base potential")
        p.add_argument("--eta", default=None, help="inline seed coefficient of p")
        p.add_argument("--param", action="append", default=[],
                       metavar="NAME=VALUE", help="numeric parameter value")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None,
                       help="JSON file with the same keys as the flags")

    common(sub.add_parser("build"))
    ver = sub.add_parser("verify")
    common(ver)
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--precision", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--inject-defect", dest="inject_defect", default=None,
                     choices=("omega-shift",),
                     help="test-only tampering of the first integral")
    sim = sub.add_parser("simulate")
    common(sim)
    sim.add_argument("--t-final", dest="t_final", type=float, default=None)
    sim.add_argument("--stride", type=int, default=None)
    sim.add_argument("--x0", default=None,
                     help="comma list like q=0.6,u=0.9,p_q=0.4,p_u=-0.3")
    sub.add_parser("catalog")
    sol = sub.add_parser("solve-linear")
    sol.add_argument("--c", default="1")
    sol.add_argument("--a1", default="1")
    sol.add_argument("--a2", default="0")
    sol.add_argument("--c1", default="sym")
    sol.add_argument("--c2", default="sym")
    sol.add_argument("--L0", default="sym")
    sol.add_argument("--out", default=None)
    return ap


def _flags(fields: Sequence[str]) -> str:
    return ", ".join("--" + k.replace("_", "-") for k in fields)


def make_config(argv: Sequence[str]) -> JobConfig:
    ap = build_arg_parser()
    ns = ap.parse_args(argv)
    data = {k: v for k, v in vars(ns).items() if v is not None}
    if not data.get("param"):
        data.pop("param", None)
    cfg_path = data.pop("config", None)
    if cfg_path:
        try:
            with open(cfg_path) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {cfg_path!r}: {exc}")
        unknown = set(loaded) - JobConfig.KNOWN
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        hints = get_type_hints(JobConfig)
        for k, v in loaded.items():
            if not _json_type_ok(hints[k], v):
                raise ConfigError(f"config field {k!r} has the wrong type: {v!r}")
            data.setdefault(k, v)
    if isinstance(data.get("param"), dict):
        data["param"] = [f"{k}={v}" for k, v in data["param"].items()]
    if "param" in data:
        data["param"] = _parse_params(data["param"])
    data = {k: v for k, v in data.items() if k in JobConfig.KNOWN}
    model = data.get("model", JobConfig.model)
    given = [k for k in INLINE_ONLY if k in data]
    if data["command"] in ("build", "verify", "simulate") and model in CATALOG and given:
        raise ConfigError(f"{_flags(given)}: only --model inline reads these; the catalog "
                          f"model {model!r} takes --m, --n, --omega and its parameters")
    # the parsers of build and simulate lack these flags, so only a
    # --config file can bring them here
    given = [k for k in VERIFY_ONLY if k in data]
    if data["command"] in ("build", "simulate") and given:
        raise ConfigError(f"{_flags(given)}: only verify reads these")
    cfg = JobConfig(**data)
    if cfg.m < 1 or cfg.n < 1:
        raise ConfigError("m and n must be positive integers")
    for name in ("samples", "precision"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"--{name} must be a positive integer, "
                              f"got {getattr(cfg, name)}")
    if cfg.command == "verify" and cfg.samples < MIN_SAMPLES:
        raise ConfigError(f"--samples {cfg.samples}: a sampled claim needs at least "
                          f"{MIN_SAMPLES} accepted samples")
    if cfg.tol is not None and not (math.isfinite(cfg.tol) and cfg.tol > 0):
        raise ConfigError(f"--tol must be positive and finite, got {cfg.tol}")
    if cfg.out:
        _check_out(cfg)
    return cfg


def _check_out(cfg: JobConfig):
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


def _inline_model(cfg: JobConfig) -> ModelSpec:
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
    except ExpressionError as exc:
        raise ConfigError(str(exc))
    # a seed that fails its identity raises SeedConditionError
    return extend_model("inline", space, V, eta, m=cfg.m, n=cfg.n, c=c, L0=L0,
                        kappa=cfg.kappa, A=A, omega=omega,
                        params={"omega": omega, "L0": L0, "A": A},
                        metadata={"V": cfg.V, "eta": cfg.eta})


def build_model(cfg: JobConfig) -> ModelSpec:
    """The inline model, or the catalog entry's builder; --A goes only to
    entries whose parameter schema lists A."""
    if cfg.model == "inline":
        return _inline_model(cfg)
    entry = CATALOG.get(cfg.model)
    if entry is None:
        raise ConfigError(f"unknown model {cfg.model!r}; see the catalog command")
    kwargs = {"omega": _sym_or_rat(cfg.omega, "omega")}
    if "A" in entry["params"]:
        kwargs["A"] = _sym_or_rat(cfg.A, "A")
    return entry["builder"](cfg.m, cfg.n, **kwargs)


def _occurring_params(*polys: PPoly) -> List[str]:
    """Names of the parameters that occur anywhere in the given polynomials."""
    found = set()
    for F in polys:
        for c in F.terms.values():
            for poly in (c.num, *(f for f, _ in c.den_factors)):
                for pp in poly.terms.values():
                    for pmono in pp.nums:
                        found.update(i for i, _ in pmono)
    return [PARAMS[i] for i in sorted(found)]


def numeric_params(cfg: JobConfig, model: ModelSpec) -> Dict[str, float]:
    """Evaluation values: catalog defaults overridden by --param entries.

    Every parameter that occurs in H_bar, K_bar or L needs a value; a
    missing one is a configuration error, never a silent zero.
    """
    out = catalog_params(model.name) if model.name in CATALOG else {}
    for name, value in cfg.param.items():
        out[name] = float(Fraction(value))
    missing = [name for name in _occurring_params(model.Hbar, model.Kbar.poly, model.L)
               if name not in out]
    if missing:
        raise ConfigError(f"no value for parameter(s) {', '.join(missing)}; "
                          "give each as --param NAME=VALUE")
    return out


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tampered_K(model: ModelSpec, defect: Optional[str]) -> Optional[PPoly]:
    if defect is None:
        return None
    if defect == "omega-shift":
        shift = ParamPoly.var("omega").scale(Q(1001, 1000))
        return model.Kbar.poly.substitute({"omega": shift})
    raise ConfigError(f"unknown defect {defect!r}")


# ---------------------------------------------------------------------------
# commands


def cmd_build(cfg: JobConfig) -> int:
    model = build_model(cfg)
    doc = {
        "model": model.describe(),
        "H_plain": model.H.render(),
        "H_modified": model.Hbar.render(),
        "K_modified": model.Kbar.poly.render(),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg.out)
    return EXIT_OK


def cmd_verify(cfg: JobConfig) -> int:
    model = build_model(cfg)
    params = numeric_params(cfg, model)
    settings = VerifySettings(samples=cfg.samples, precision=cfg.precision,
                              rng_seed=cfg.seed, tol=cfg.tol)
    report = run_model_verification(
        model, params, settings,
        K_override=_tampered_K(model, cfg.inject_defect),
        console=sys.stderr,
    )
    _emit(report.to_document(), cfg.out)
    return EXIT_OK if report.all_ok else EXIT_CLAIM


def _initial_point(cfg: JobConfig, model: ModelSpec) -> PhasePoint:
    names = model.space.coordinate_names
    if cfg.x0:
        coords: Dict[str, float] = {}
        for item in cfg.x0.split(","):
            if "=" not in item:
                raise ConfigError(f"--x0 entries look like q=0.6, got {item!r}")
            k, _, v = item.partition("=")
            k = k.strip()
            if k not in names:
                raise ConfigError(f"unknown coordinate {k!r}; expected {names}")
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
    coords = {}
    for i, name in enumerate(model.space.position_names):
        coords[name] = 0.6 + 0.2 * i
    for i, name in enumerate(model.space.momentum_names):
        coords[name] = 0.4 if i % 2 == 0 else -0.3
    return PhasePoint.make(model.space, coords)


def cmd_simulate(cfg: JobConfig) -> int:
    # the only command that needs scipy: build and verify start without it
    from . import dynamics

    model = build_model(cfg)
    params = numeric_params(cfg, model)
    point = _initial_point(cfg, model)
    invariants = {"H_modified": model.Hbar, "K_modified": model.Kbar.poly,
                  "L_base": model.L}
    try:
        dynamics.validate_initial_point(point, list(invariants.values()), params)
    except ValueError as exc:
        raise ConfigError(str(exc))
    tol = cfg.tol if cfg.tol is not None else 1e-10
    traj_cfg = dynamics.TrajectoryConfig(initial=point, t_final=cfg.t_final,
                                         rtol=tol, atol=tol, stride=cfg.stride,
                                         params=params)
    field = dynamics.hamiltons_equations(model.Hbar, params)
    traj = dynamics.integrate_adaptive(traj_cfg, field)
    values = dynamics.invariant_values(traj, invariants, params)
    drift = dynamics.monitor_invariants(traj, values)
    doc = json.dumps(drift.to_dict(), indent=2, sort_keys=True) + "\n"
    if cfg.out:
        dynamics.write_trajectory(cfg.out + ".traj.tsv", traj, values)
        with open(cfg.out + ".drift.json", "w") as fh:
            fh.write(doc)
    sys.stdout.write(doc)
    if not traj.success:
        sys.stderr.write(f"integration aborted: {drift.message}\n")
        return EXIT_INTEGRATION
    return EXIT_OK


def cmd_catalog() -> int:
    doc = {
        name: {"params": entry["params"], "doc": entry["doc"]}
        for name, entry in sorted(CATALOG.items())
    }
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_solve_linear(cfg: JobConfig) -> int:
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = make_config(list(argv) if argv is not None else sys.argv[1:])
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    try:
        if cfg.command == "build":
            return cmd_build(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        if cfg.command == "simulate":
            return cmd_simulate(cfg)
        if cfg.command == "catalog":
            return cmd_catalog()
        if cfg.command == "solve-linear":
            return cmd_solve_linear(cfg)
        raise ConfigError(f"unknown command {cfg.command!r}")
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except SeedConditionError as exc:
        sys.stderr.write(f"seed condition failed:\n{exc}\n")
        return EXIT_SEED
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


def entry():  # console script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
