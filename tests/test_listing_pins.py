"""Pinned listings and values of every function the benchmark's ``numeric``
jobs compile.

Each ``verify`` and ``simulate`` command of that workload runs here with
its benchmark arguments, and every call of ``compile_numeric`` is
recorded in order: the 50-digit gradients and the float rank gradients,
``fd_crosscheck``'s function and partials, ttw(1,1)'s golden pair, and
``simulate``'s initial-point check, right-hand side and invariants.  A
compile is pinned as the sha256 of its ``source`` (the float source or
the tape's listing) followed by its outputs at three fixed points: float
``repr``s, or mpf values printed at 50 digits.  A listing names its
constants without their values, so the outputs pin those too.

The pins were recorded before the walk asked its backend for the tagged
generators, and hold unchanged after: the backends spell the same ops, in
the same order, with the same names.  To print the current digests::

    PYTHONPATH=src python tests/test_listing_pins.py
"""

import hashlib

import mpmath
import pytest

import hamext.numeric
from hamext.cli import EXIT_OK, main
from hamext.coeffs import SingularEvaluation

TTW = ["--param", "alpha1=5/4", "--param", "alpha2=7/4", "--param", "omega=2/3"]
CAGE = ["--A", "1", "--param", "L0=3/4", "--param", "b=1/2", "--param", "omega=2/3",
        "--param", "A=1"]
VERIFY = ["--samples", "40", "--precision", "50", "--seed", "20240901"]
FLOW = ["--t-final", "40.0", "--tol", "1e-12", "--stride", "5000"]
#: The benchmark's numeric jobs, each without its output path.
JOBS = {
    "verify:ttw-1-1": ["verify", "--model", "ttw", "--m", "1", "--n", "1", "--omega", "sym",
                       *TTW, *VERIFY],
    "verify:ttw-3-2": ["verify", "--model", "ttw", "--m", "3", "--n", "2", "--omega", "sym",
                       *TTW, *VERIFY],
    "verify:cage-4-3": ["verify", "--model", "cage", "--m", "4", "--n", "3", "--omega", "sym",
                        *CAGE, *VERIFY],
    "flow:ttw-3-2": ["simulate", "--model", "ttw", "--m", "3", "--n", "2", "--omega", "sym",
                     *TTW, *FLOW],
    "flow:cage-3-2": ["simulate", "--model", "cage", "--m", "3", "--n", "2", "--omega", "sym",
                      *CAGE, *FLOW],
}
#: Coordinates, positions then momenta, cut to each function's arity.
POINTS = [(0.6, 0.8, 0.4, -0.3), (1.1, 0.35, -0.7, 0.9), (0.25, 1.3, 0.15, -1.2)]

PINS = {
    "verify:ttw-1-1": [
        "73b877adb3293eb15fddac291f113cb0459bbca4be97c6d15cba8a9fc9a3792c",
        "0a03cfffa6aa7963cf31ac09abaa27aa46663ce5d98217657a82a12b17026fce",
        "f5cc1ae62459f2e819909d78492aeb3b9bf90c414d07b5c837c24b2027aa1131",
        "5886eae2dde705cf2abc9fec87f76c2e7d079ad30150a1626d0b1c1a2c5928a7",
        "577c0db14adf18e7f9c0f651822cfdc71c450ad68b054160af351e0a8c9ff661",
    ],
    "verify:ttw-3-2": [
        "db47d7b4c7831fdaaf0c432720efc20f930d35e8cecc73c8f7e0b766bb0ada01",
        "0350fbe9f3ca84a4a126ded885b9ad2297837a7892549dfc4341ed628c8ec6f4",
        "e5af34f4818764c3714fec67109856da8bd38875e4bafd60b9238cd3f845087c",
        "93195823644fbe77d705abde66d23a0e3e5c16f3795843900ccefb969f340e07",
    ],
    "verify:cage-4-3": [
        "201eebf8d3cac1a0c485149ea19fdc1aca08af386309e664640b57ea4d61d740",
        "c1fe1e0c354ca52e6a9f8270445157f2b8c6812b5557630d62da95f04b34b6ec",
        "55a75d4ab2f24ca914b6269c057634f85283c0503a2685c7c344bf980acf3708",
        "5aeb6c8851e208ebf95b639fe89f7406f4837fc02c8f7a98585475abed007bf5",
    ],
    "flow:ttw-3-2": [
        "da97e3306ca15128f51dee331d666eefbd65d6d12982d3a7e8c86714aa6b6bbd",
        "64655e16ba96f684e1c770e104b771851ce5c30c6b6a03fba691a1ce61a5868d",
        "63cf60655cba300f9f4744940f5943ed2ff580f17aad6b42415013c600d74305",
    ],
    "flow:cage-3-2": [
        "b5640eeacd89e37bc04ffbe4d59a9eb358f632c6262f1419fab09f23fd9f8a4e",
        "5edd70c31d566c3b2738406fdf00196a06e1a825ed84e4545c38dd4600127c2f",
        "9289b1181eefaa58fb71ef45f20ef03ee026ea34851d8243e3c054f9583522e4",
    ],
}


def _text(value) -> str:
    if isinstance(value, mpmath.mpf):
        return mpmath.nstr(value, 50)
    return repr(value)


def _digest(fn, arity: int) -> str:
    lines = [fn.source]
    for point in POINTS:
        try:
            lines.append(" ".join(map(_text, fn(*point[:arity]))))
        except (SingularEvaluation, ArithmeticError, ValueError) as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def compiled(name: str, tmp_dir: str) -> list:
    """The digests of the job's compiles, in the order it makes them."""
    original = hamext.numeric.compile_numeric
    made = []

    def recording(sys_, targets, params, prec, guard=None, momenta=0):
        fn = original(sys_, targets, params, prec, guard, momenta)
        made.append((fn, len(sys_.vars) + momenta))
        return fn

    argv = JOBS[name]
    if argv[0] == "simulate":
        argv = argv + ["--out", f"{tmp_dir}/{name.split(':')[1]}"]
    hamext.numeric.compile_numeric = recording
    try:
        assert main(argv) == EXIT_OK
    finally:
        hamext.numeric.compile_numeric = original
    return [_digest(fn, arity) for fn, arity in made]


@pytest.mark.parametrize("name", list(JOBS))
def test_compiled_functions_are_pinned(name, tmp_path, capsys):
    assert compiled(name, str(tmp_path)) == PINS[name]
    capsys.readouterr()


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as out:
        for job in JOBS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                digests = compiled(job, out)
            print(f'    "{job}": [')
            for d in digests:
                print(f'        "{d}",')
            print("    ],")
