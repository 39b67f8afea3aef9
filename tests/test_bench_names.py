"""The benchmark's tracer binds hamext names by string.

``perfbench/worker.py`` patches the stage functions on every run, and the
layer functions, methods and caches on traced runs (``--trace 1``) only.
A layer name that is renamed or deleted breaks only traced runs, which
neither this suite nor ``--smoke`` starts, so this checks every name the
worker's tables and cache probes resolve.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _module(name):
    # the worker's ``mods`` maps each short name to ``hamext.<name>``
    return importlib.import_module(f"hamext.{name}")


def test_stage_functions_resolve(worker):
    paths = [p for group in worker.STAGES.values() for p in group]
    assert paths
    missing = [p for p in paths
               if not callable(getattr(_module(p.split(".")[0]), p.split(".")[1], None))]
    assert missing == []


def test_layer_functions_resolve(worker):
    assert worker.LAYER_FUNCTIONS
    missing = [f"{mod}.{attr}" for _, mod, attr in worker.LAYER_FUNCTIONS
               if not callable(getattr(_module(mod), attr, None))]
    assert missing == []


def test_layer_methods_resolve(worker):
    # patch_method reads the class __dict__, so an inherited method is missing
    assert worker.LAYER_METHODS
    missing = [f"{mod}.{cls}.{attr}" for _, mod, cls, attr in worker.LAYER_METHODS
               if not callable(vars(getattr(_module(mod), cls)).get(attr))]
    assert missing == []


def test_names_read_outside_the_tables_resolve():
    # a traced run wraps the field factory and reads both caches' counters
    assert callable(_module("dynamics").hamiltons_equations)
    for mod, fn in (("params", "_pmono_mul"), ("coeffs", "_reduce_raw")):
        info = getattr(_module(mod), fn).cache_info()
        assert info.hits >= 0 and info.misses >= 0, (mod, fn)
