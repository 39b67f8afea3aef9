"""Closed orbits: a check of superintegrability that never reads K_bar.

A system with three independent integrals on a 4-dimensional phase space
has closed bounded orbits (Nekhoroshev 1972), and the TTW orbits close
with a period that does not depend on the energy (Tremblay, Turbiner and
Winternitz, J. Phys. A 43 (2010) 015202).  These tests integrate only the
built ``H_bar``, from the CLI's default initial point with the catalog
parameters, and measure how far the flow is from that point at multiples
of the period.  Every other flow check goes back to the exact ring through
``K_bar``; this one depends on the ring only through ``H_bar``.

The periods: ``T = pi/sqrt(2*omega)``, with ``omega`` the coefficient of
``u^2`` in ``H_bar``, for TTW; ``T_c = pi/sqrt(8*L0)`` for the caged
oscillator cage(2, 1).
"""

import math

import numpy as np
import pytest

from hamext import Q, cage_model, ttw_model
from hamext.cli import _initial_point
from hamext.dynamics import TrajectoryConfig, hamiltons_equations, integrate_adaptive
from hamext.models import catalog_params

TOL = 1e-12
CLOSED = 1e-9   # measured return errors are 2e-12 to 3e-11
OPEN = 0.1      # measured distances at the wrong times are 0.17 to 2.2


def _returns(model, H, params, period, multiples):
    """Largest coordinate distance from the point where ``hamext simulate``
    starts without --x0, at each multiple ``k * period``, in one integration."""
    point = _initial_point(None, model)
    last = max(multiples)
    cfg = TrajectoryConfig(initial=point, t_final=last * period, tol=TOL, stride=last + 1)
    traj = integrate_adaptive(cfg, hamiltons_equations(H, params))
    assert traj.success, traj.message
    y0 = np.array(point.values)
    return {k: float(np.max(np.abs(traj.y[k] - y0))) for k in multiples}


@pytest.fixture(scope="module")
def ttw_setup():
    params = catalog_params("ttw")
    return params, math.pi / math.sqrt(2 * params["omega"])


def test_ttw_11_closes_after_one_period(ttw_setup):
    params, T = ttw_setup
    model = ttw_model(1, 1)
    err = _returns(model, model.Hbar, params, T, [1])
    assert err[1] < CLOSED


def test_ttw_32_closes_after_two_periods_only(ttw_setup):
    params, T = ttw_setup
    model = ttw_model(3, 2)
    err = _returns(model, model.Hbar, params, T, [1, 2, 3])
    assert err[2] < CLOSED
    assert err[1] > OPEN and err[3] > OPEN


def test_cage_21_closes_after_its_period_not_half_of_it():
    params = catalog_params("cage")
    Tc = math.pi / math.sqrt(8 * params["L0"])
    model = cage_model(2, 1)
    err = _returns(model, model.Hbar, params, Tc / 2, [1, 2])
    assert err[2] < CLOSED
    assert err[1] > OPEN


@pytest.mark.parametrize("m, n, k", [(1, 1, 1), (3, 2, 2)])
def test_a_perturbed_hamiltonian_does_not_close(ttw_setup, m, n, k):
    """Negative control: H_bar + u/100 has lost the third integral, and its
    orbit misses the point where the unperturbed orbit closes."""
    params, T = ttw_setup
    model = ttw_model(m, n)
    u = model.space.lift(model.space.system.coord("u"))
    err = _returns(model, model.Hbar + u * Q(1, 100), params, T, [k])
    assert err[k] > OPEN
