"""The package's records (``hamext._record``) behave as the ``dataclasses``
they replace: the same hash, ``==``, repr, frozenness and validation.  A
twin built by ``dataclasses.make_dataclass`` over the same fields is the
oracle for hash, ``==`` and repr, so no hash-seeded order can move."""

import dataclasses
import math

import pytest

from hamext import (CompatibilityReport, ExtensionProfile, LinearSeedFamily, ModelSpec,
                    ModifiedK, PhasePoint, PhaseSpace, SeedSolution, Var, VarSystem,
                    check_compatibility_conditions, modified_coupling_functions,
                    solve_linear_seed, ttw_model)
from hamext import coeffs, dynamics, extension, models, phase, verify
from hamext._record import record, replace
from hamext.dynamics import DriftReport, Trajectory, TrajectoryConfig
from hamext.verify import ClaimResult, VerificationReport, VerifySettings

FROZEN = {Var, PhaseSpace, PhasePoint, ExtensionProfile, SeedSolution, ModifiedK,
          CompatibilityReport, LinearSeedFamily, ModelSpec, VerifySettings, TrajectoryConfig}
MUTABLE = {ClaimResult, VerificationReport, Trajectory, DriftReport}


@pytest.fixture(scope="module")
def records():
    mdl = ttw_model(1, 1)
    f, h = modified_coupling_functions(mdl.profile)
    point = PhasePoint.make(mdl.space, dict.fromkeys(mdl.space.coordinate_names, 0.5))
    report = VerificationReport({"name": "ttw"}, 7, 50)
    report.add(ClaimResult("claim", True, symbolic=True))
    out = [mdl.space.system.vars[0], mdl.space, point, mdl.profile, mdl.seed, mdl.Kbar,
           check_compatibility_conditions(mdl.profile, f, h, mdl.seed),
           solve_linear_seed(1, 1, 0, 1, 1, 0), mdl, VerifySettings(tol=1e-20),
           TrajectoryConfig(point, 2.5), ClaimResult("x", False, details={"k": 1}), report,
           Trajectory(mdl.space, [0.0], [list(point.values)], True, "done", 9),
           DriftReport({"H": {"max_drift": 1e-12}}, 1, 9, True, "done")]
    assert {type(x) for x in out} == FROZEN | MUTABLE and len(out) == 15
    return out


def _fields(x):
    return {name: getattr(x, name) for name in type(x).__record_fields__}


def _twin(x):
    cls = type(x)
    twin = dataclasses.make_dataclass(cls.__name__, cls.__record_fields__,
                                      frozen=cls in FROZEN)
    return twin(**_fields(x))


def test_the_records_are_these_fifteen():
    found = {obj for mod in (coeffs, phase, extension, models, verify, dynamics)
             for obj in vars(mod).values() if hasattr(obj, "__record_fields__")}
    assert found == FROZEN | MUTABLE


def test_fields_are_the_annotations():
    for cls in FROZEN | MUTABLE:
        assert cls.__record_fields__ == tuple(cls.__annotations__)


def test_hash_is_the_field_tuple(records):
    for x in records:
        if type(x) in MUTABLE:
            assert type(x).__hash__ is None
            with pytest.raises(TypeError):
                hash(x)
            continue
        values = tuple(_fields(x).values())
        if any(isinstance(v, dict) for v in values):  # ModelSpec, LinearSeedFamily
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(values) == hash(_twin(x))


def test_equality_and_repr(records):
    for x in records:
        copy = replace(x)
        assert copy == x and not copy != x and copy is not x
        assert repr(x) == repr(_twin(x))
        assert x != _twin(x) and x != tuple(_fields(x).values())
        other = record(type(type(x).__name__, (), {"__annotations__": type(x).__annotations__}))
        assert x != other(**_fields(x))
        assert all(x != y for y in records if y is not x)


def test_frozen_records_refuse_set_and_delete(records):
    for x in records:
        name = type(x).__record_fields__[0]
        if type(x) in FROZEN:
            for change in (lambda: setattr(x, name, None), lambda: delattr(x, name),
                           lambda: setattr(x, "extra", 1)):
                with pytest.raises(AttributeError):
                    change()
        else:
            setattr(x, name, getattr(x, name))


def test_defaults_and_factories():
    assert (VerifySettings.samples, VerifySettings.precision, VerifySettings.tol) == \
        (100, 50, None)
    assert (TrajectoryConfig.tol, TrajectoryConfig.stride) == (1e-10, 200)
    assert "details" not in vars(ClaimResult) and "claims" not in vars(VerificationReport)
    a, b = ClaimResult("a", True), ClaimResult("a", True)
    assert a.details == {} and a.details is not b.details and a == b
    r, s = VerificationReport({}, 0, 50), VerificationReport({}, 0, 50)
    assert r.claims == [] and r.claims is not s.claims


def test_constructor_arguments():
    assert Var("q") == Var(name="q") == Var("q", tag=0) == Var("q", 0, 1)
    for bad in (lambda: Var(), lambda: Var("q", 0, 1, 2), lambda: Var("q", name="u"),
                lambda: Var("q", kind="linear"), lambda: replace(Var("q"), kind=1)):
        with pytest.raises(TypeError):
            bad()


def test_post_init_errors_also_through_replace(records):
    space, point, cfg = records[1], records[2], records[10]
    cases = [(Var("q"), {"name": "1q"}), (Var("q"), {"rate": 2}),
             (space, {"ext": "zz"}), (point, {"values": (0.0,)}),
             (cfg, {"t_final": math.nan}), (cfg, {"t_final": -1.0}),
             (cfg, {"tol": math.inf}), (cfg, {"stride": 1})]
    for x, change in cases:
        with pytest.raises(ValueError):
            replace(x, **change)
        with pytest.raises(ValueError):
            type(x)(**{**_fields(x), **change})
    with pytest.raises(ValueError):
        PhaseSpace(VarSystem([Var("q")]), "u")
