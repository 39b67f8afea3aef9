"""The printed H_bar is the paper's system, checked without hamext arithmetic.

Every claim of ``verify`` and of ``tests/test_build_certificate.py`` checks
that H_bar and K_bar commute; none checks that H_bar is the system the
model names.  This module reads the printed ``H_modified`` of a ``build``
output with the certificate's reader and compares it over F_p, at random
points (a tagged coordinate is its conic parameter, as there), with a
literal transcription of the model's Hamiltonian:

* ttw(m, n), with k = m/n and C = cos q, in the chart q = 2k*theta,
  u = r, p_theta = 2k*p_q, is the TTW system (Tremblay, Turbiner &
  Winternitz, J. Phys. A 42 (2009) 242001)::

      1/2*[p_u^2 + (4k^2*p_q^2 + 4*alpha1/(1 + C) + 4*alpha2/(1 - C))/u^2] + omega*u^2

* cage(m, n) at A = 1, with lambda = m/n, in the chart x = q/lambda,
  y = u, p_x = lambda*p_q, is the caged anisotropic oscillator::

      1/2*(lambda^2*p_q^2 + p_u^2) + L0*lambda^2*(q^2/4 + u^2)
          + lambda^2*b/q^2 + omega/u^2

The printed names and generators must be exactly the transcription's, so
that a stray parameter or a generator at another rate cannot pass.  As a
control, the transcription with omega doubled must differ at every point.

The check also runs as a script on saved ``build`` outputs::

    python -m hamext build --model ttw --m 9 --n 5 > ttw-9-5.json
    python tests/test_literal_hamiltonian.py ttw-9-5.json
"""

import json
import random
import sys
from fractions import Fraction

import pytest

from test_build_certificate import P, POINTS, Texts, _Text, _inverse, residue


def ttw(x: dict, k: int) -> int:
    """The TTW Hamiltonian at the residues ``x``, ``k`` the residue of m/n."""
    C = x["cos_q"]
    angular = (4 * k * k * x["p_q"] ** 2 + 4 * x["alpha1"] * _inverse(1 + C)
               + 4 * x["alpha2"] * _inverse(1 - C))
    return (_inverse(2) * (x["p_u"] ** 2 + angular * _inverse(x["u"] ** 2))
            + x["omega"] * x["u"] ** 2) % P


def cage(x: dict, lam: int) -> int:
    """The caged oscillator at A = 1, ``lam`` the residue of m/n."""
    lam2, q, u = lam * lam, x["q"], x["u"]
    return (_inverse(2) * (lam2 * x["p_q"] ** 2 + x["p_u"] ** 2)
            + x["L0"] * lam2 * (q * q * _inverse(4) + u * u)
            + lam2 * x["b"] * _inverse(q * q) + x["omega"] * _inverse(u * u)) % P


#: Per model: the transcription, the printed names and the printed
#: generators (each as the reader names it, with its kind, tag, rate and
#: coordinate) that it reads.
MODELS = {
    "ttw": (ttw, {"p_q", "p_u", "u", "alpha1", "alpha2", "omega"},
            {"cos_q": ("C", 1, 1, "q"), "sin_q": ("S", 1, 1, "q")}),
    "cage": (cage, {"p_q", "p_u", "q", "u", "L0", "b", "omega"}, {}),
}


def mismatches(doc: dict) -> dict:
    """At how many of the points the printed H_bar differs from the
    transcription, and from the control with omega doubled."""
    model = doc["model"]
    literal, names, calls = MODELS[model["name"]]
    text = _Text(doc["H_modified"])
    assert text.names == names, sorted(text.names ^ names)
    assert text.calls == calls, text.calls
    texts = Texts(text)
    ratio = residue(Fraction(model["m"], model["n"]))
    rng = random.Random(20240901)
    counts = {"literal": 0, "omega_doubled": 0}
    for _ in range(POINTS):
        point = {name: rng.randrange(1, P) for name in sorted(names | {"q"})}
        ns = texts.namespace(point, {})
        printed = text(ns).v
        x = {name: ns[name].v for name in names | set(calls)}
        counts["literal"] += printed != literal(x, ratio)
        counts["omega_doubled"] += printed != literal(dict(x, omega=2 * x["omega"]), ratio)
    return counts


EXPECTED = {"literal": 0, "omega_doubled": POINTS}

#: The benchmark's six catalog builds, with its arguments.
CATALOG = [("ttw", 1, 1), ("ttw", 3, 2), ("ttw", 5, 3),
           ("cage", 3, 2), ("cage", 4, 3), ("cage", 5, 4)]


@pytest.mark.parametrize("model, m, n", CATALOG)
def test_printed_H_bar_is_the_literal_hamiltonian(model, m, n, capsys):
    from hamext.cli import EXIT_OK, main

    argv = ["build", "--model", model, "--m", str(m), "--n", str(n), "--omega", "sym"]
    assert main(argv + (["--A", "1"] if model == "cage" else [])) == EXIT_OK
    assert mismatches(json.loads(capsys.readouterr().out)) == EXPECTED


def check_files(paths) -> int:
    failed = False
    for path in paths:
        with open(path) as fh:
            counts = mismatches(json.load(fh))
        ok = counts == EXPECTED
        failed |= not ok
        print(f"{path}: H_bar differs from the literal Hamiltonian at {POINTS} points: {counts}"
              f" {'ok' if ok else 'FAILED'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check_files(sys.argv[1:]))
