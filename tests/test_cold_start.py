"""Each command loads only what it uses.

``build`` of a catalog model needs the exact ring alone: neither numpy nor
scipy nor mpmath, nor the numeric compiler, ``verify``, the parser, the
flat zero test or the integrator; an inline model adds the parser.
``verify`` needs mpmath (its 50-digit checks) but neither numpy nor scipy:
its rank check is a pure-Python Jacobi SVD.  ``simulate`` needs none of
the three: the integrator is ``hamext._dop853``, and its rows stay Python
floats up to the files.  Every case runs in a fresh interpreter, because
this test process imported all three long ago.  A blocked module is set
to ``None`` in ``sys.modules``, so importing it raises ImportError.  An
import that nothing reads is refused everywhere, and the third-party
modules the package imports are exactly its declared runtime
dependencies.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

BUILD = ["build", "--model", "ttw", "--m", "1", "--n", "1", "--omega", "sym"]
VERIFY = ["verify", "--model", "ttw", "--m", "1", "--n", "1", "--samples", "30"]
INLINE = ["build", "--model", "inline", "--c", "1", "--kappa", "1", "--omega", "sym",
          "--V", "(c1 + c2*cos(q))/sin(q)^2", "--eta", "sin(q)", "--m", "2", "--n", "1"]
SIMULATE = ["simulate", "--model", "harmonic", "--param", "L0=1/2",
            "--t-final", "1", "--stride", "5"]

MAIN = """\
import sys
for name in sys.argv[1].split(","):
    if name:
        sys.modules[name] = None
from hamext.cli import main
raise SystemExit(main(sys.argv[2:]))
"""


def _python(*args) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _hamext(argv, blocked=()) -> bytes:
    """stdout of ``hamext ARGV`` in a fresh interpreter without ``blocked``."""
    return _python("-c", MAIN, ",".join(blocked), *argv)


def test_cli_import_loads_neither_numpy_nor_scipy():
    out = _python("-c", "import sys, hamext.cli\n"
                        "print(sorted(m for m in sys.modules\n"
                        "             if m.split('.')[0] in ('numpy', 'scipy')))")
    assert out.decode().strip() == "[]"


def test_cli_import_loads_no_mpmath():
    out = _python("-c", "import sys, hamext.cli\n"
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))")
    assert out.decode().strip() == "[]"


#: The package modules that a catalog build does not load.
NOT_FOR_BUILD = ("hamext.verify", "hamext.numeric", "hamext.exprparse", "hamext.flat",
                 "hamext.dynamics", "hamext._dop853")


def test_cli_import_loads_no_numeric_code():
    out = _python("-c", "import sys, hamext.cli\n"
                        f"print(sorted(m for m in {NOT_FOR_BUILD!r} if m in sys.modules))")
    assert out.decode().strip() == "[]"


def test_build_runs_without_numpy_and_scipy(tmp_path):
    """The same stdout and --out file with numpy, scipy, mpmath and every
    package module a catalog build does not use blocked."""
    outs = [tmp_path / "blocked.json", tmp_path / "free.json"]
    assert _hamext(BUILD + ["--out", str(outs[0])],
                   blocked=("numpy", "scipy", "mpmath", *NOT_FOR_BUILD)) == \
        _hamext(BUILD + ["--out", str(outs[1])])
    blocked, free = (out.read_bytes() for out in outs)
    assert blocked == free and blocked


def test_inline_build_runs_without_numeric_code():
    """An inline build loads the parser, and still neither the compiler nor
    verify, the flat zero test or the integrator."""
    blocked = ("hamext.verify", "hamext.numeric", "hamext.flat", "hamext.dynamics")
    doc = json.loads(_hamext(INLINE, blocked=blocked))
    assert doc["model"]["name"] == "inline" and doc["K_modified"]


def test_verify_runs_without_numpy_and_scipy(tmp_path):
    """The same report, on stdout and in an --out file, with numpy and scipy
    blocked."""
    out = tmp_path / "blocked.json"
    free = _hamext(VERIFY)
    assert _hamext(VERIFY, blocked=("numpy", "scipy")) == free
    assert _hamext(VERIFY + ["--out", str(out)], blocked=("numpy", "scipy")) == b""
    assert out.read_bytes() == free and json.loads(free)["all_ok"] is True


def test_simulate_runs_without_numpy_and_scipy(tmp_path):
    """The same stdout, trajectory and drift files with numpy, scipy and
    mpmath blocked."""
    outs = [str(tmp_path / "blocked"), str(tmp_path / "free")]
    assert _hamext(SIMULATE + ["--out", outs[0]], blocked=("numpy", "scipy", "mpmath")) == \
        _hamext(SIMULATE + ["--out", outs[1]])
    for suffix in (".traj.tsv", ".drift.json"):
        blocked, free = (Path(out + suffix).read_bytes() for out in outs)
        assert blocked == free and blocked


def test_simulate_loads_the_integrator_when_run():
    doc = json.loads(_hamext(SIMULATE))
    assert doc["success"] is True and doc["samples"] == 5


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        imported.update((name, node.lineno) for name in names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    """Every imported name is read.  The package's __init__.py imports names
    to re-export them, so it is skipped."""
    paths = [path for folder in ("src/hamext", "tests", "scripts")
             for path in sorted((ROOT / folder).rglob("*.py")) if path.name != "__init__.py"]
    assert paths and [u for path in paths for u in _unused_imports(path)] == []


def _third_party_imports(folder: Path):
    """The top-level modules imported anywhere under ``folder``, at any
    depth (function-level imports included), outside the standard library
    and the package itself."""
    names = set()
    for path in folder.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != "hamext"}


def test_runtime_dependencies_are_the_imports():
    """``[project].dependencies`` names exactly the third-party modules that
    ``src/hamext`` imports: none is missing, and none is stale.  Each
    distribution here shares its name with its module."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    assert _third_party_imports(ROOT / "src" / "hamext") == declared
