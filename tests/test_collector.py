"""Commands run with the cyclic collector paused, and that is safe.

``hamext.cli.main`` disables ``gc`` for the command and restores the state
it found.  That changes no output and no memory only because the package
makes no reference cycles that grow with the work: reference counting
alone frees everything, at the moment it did with the collector on.  So a
build, run with the collector paused, leaves nothing for ``gc.collect()``
to find, and what ``verify`` and ``simulate`` leave does not grow with the
number of samples or output rows.

The first two checks need only the standard library, so they also run
where pytest is not installed::

    PYTHONPATH=src:tests python -c "import test_collector as t; \\
        t.test_main_restores_the_collector_state(); t.test_builds_make_no_cycles()"
"""

import contextlib
import gc
import io
from unittest import mock

from hamext import cli


@contextlib.contextmanager
def collector(enabled):
    """The collector switched on or off for the block, then as it was."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


def quiet(run, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(*args)


class Escaped(Exception):
    pass


def test_main_restores_the_collector_state():
    outcomes = [
        (["build", "--model", "ttw", "--m", "1", "--n", "1"], cli.EXIT_OK),
        (["build", "--model", "nosuch"], cli.EXIT_CONFIG),
        (["build", "--model", "inline", "--c", "0", "--L0", "1", "--V", "q^3", "--eta", "q"],
         cli.EXIT_SEED),
    ]
    seen = []

    def escape(cfg):
        seen.append(gc.isenabled())
        raise Escaped

    for enabled in (True, False):
        for argv, rc in outcomes:
            with collector(enabled):
                assert quiet(cli.main, argv) == rc
                assert gc.isenabled() is enabled, argv
        with collector(enabled), mock.patch.dict(cli.COMMANDS, catalog=escape):
            try:
                quiet(cli.main, ["catalog"])
            except Escaped:
                pass
            else:
                raise AssertionError("main did not let the exception escape")
            assert gc.isenabled() is enabled
    # the command itself ran with the collector paused
    assert seen == [False, False]


def cyclic_garbage(command, argv):
    """What gc.collect() finds after one command, run with the collector
    paused.  The options are parsed first: argparse's parser is cyclic."""
    cfg = cli.make_config(argv)
    with collector(False):
        gc.collect()
        quiet(command, cfg)
        return gc.collect()


INLINE = ["--model", "inline", "--c", "1", "--A", "1", "--omega", "sym",
          "--V", "(c1 + c2*cos(q))/sin(q)^2", "--eta", "sin(q)", "--m", "4", "--n", "3"]
BUILDS = {
    "ttw-3-2": ["--model", "ttw", "--m", "3", "--n", "2"],
    "cage-4-3": ["--model", "cage", "--m", "4", "--n", "3"],
    "harmonic-3-2": ["--model", "harmonic", "--m", "3", "--n", "2"],
    "inline-k+1-4-3": INLINE + ["--kappa", "1"],
    "inline-k-1-4-3": INLINE + ["--kappa", "-1"],
}


def build_texts(cfg):
    """What cmd_build computes, but for its json.dumps: with indent, the
    pure-Python encoder leaves 33 cyclic objects a call, whatever the size."""
    model = cli.build_model(cfg)
    return model.describe(), model.H.render(), model.Hbar.render(), model.Kbar.poly.render()


def test_builds_make_no_cycles():
    # once first, so that a lazily imported module (the inline parser)
    # is loaded before the count
    quiet(cli.main, ["build"] + BUILDS["inline-k+1-4-3"])
    found = {job: cyclic_garbage(build_texts, ["build"] + argv)
             for job, argv in BUILDS.items()}
    assert found == dict.fromkeys(BUILDS, 0)


def test_verify_garbage_does_not_grow_with_the_samples():
    argv = ["verify", "--model", "ttw", "--m", "1", "--n", "1", "--samples"]
    quiet(cli.main, argv + ["30"])
    found = [cyclic_garbage(cli.cmd_verify, argv + [samples]) for samples in ("30", "60")]
    assert found[1] <= found[0], found


def test_simulate_garbage_does_not_grow_with_the_rows():
    argv = ["simulate", "--model", "ttw", "--m", "1", "--n", "1", "--t-final", "5",
            "--stride"]
    quiet(cli.main, argv + ["200"])
    found = [cyclic_garbage(cli.cmd_simulate, argv + [stride]) for stride in ("200", "2000")]
    assert found[1] <= found[0], found
