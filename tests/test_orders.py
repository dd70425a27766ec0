"""Observed orders of accuracy against the closed forms.

A residual below its tolerance can hide a method that lost an order: a
wrong RK4 weight or a first-order anchor quadrature still passes the
verify suites.  Each check here refines one parameter, reads the error
against an exact solution at every level, and asserts that the observed
order ``log2(e_h / e_{h/2})`` at the two finest levels lies within
``ORDER_SLACK`` of the method's nominal order (Roache, "Code verification
by the method of manufactured solutions", J. Fluids Eng. 124(1), 2002).
The OA flow and the OA cell averages are the exact solutions, so no
manufactured source is needed; for ds from a generic start, the conserved
cross-ratios are.
"""
import math

import numpy as np

from kuralim import (
    DensityTrajectory,
    FourierDensity,
    KuramotoSin,
    OAPoint,
    OddTrig,
    ParticleState,
    ThetaGrid,
    ds_simulate,
    mfl_simulate_spectral,
    oa_cell_averages,
    oa_flow,
)
from kuralim.bridge import anchor_flux_series
from kuralim.verify import verify_bridge, verify_manifold_invariance

# Fixed with the checks; never loosened.
ORDER_SLACK = 0.15


def _assert_order(errors, nominal):
    """Errors at levels that halve the step: the last two observed orders
    lie within ORDER_SLACK of ``nominal``."""
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(abs(order - nominal) <= ORDER_SLACK for order in orders[-2:]), (errors, orders)


def test_cl_on_the_family_is_fourth_order_in_dt():
    # 128 labels flowed to T = 2, against the family's closed-form flow
    errors = [
        verify_manifold_invariance(n_labels=128, t_end=2.0, dt=dt, output_every=0.2).max_residual
        for dt in (0.2, 0.1, 0.05, 0.025)
    ]
    _assert_order(errors, 4)


def test_anchor_flux_is_second_order_in_cells():
    # the flux through angle 0 of exact cell averages, against 2^15 cells,
    # on the order-parameter path and on the generic phi path
    def flux(p, kernel, n):
        density = oa_cell_averages(p, ThetaGrid(n))
        traj = DensityTrajectory(np.zeros(1), density.values[None, :], density.grid)
        return anchor_flux_series(traj, kernel)[0]

    for kernel in (KuramotoSin(), OddTrig((1.0, 0.3, 0.1))):
        for alpha in (0.4, 2.0):
            p = OAPoint(alpha, 0.3)
            exact = flux(p, kernel, 2**15)
            _assert_order([abs(flux(p, kernel, n) - exact) for n in (32, 64, 128, 256)], 2)


def test_grid_transport_is_first_order_in_cells_and_dt():
    # cells = labels = n and dt = 5 / n: the upwind transport dominates
    errors = [
        verify_bridge(n_cells=n, n_labels=n, dt=5.0 / n).max_residual for n in (64, 128, 256, 512)
    ]
    _assert_order(errors, 1)


def test_spectral_first_mode_is_fourth_order_in_dt():
    # c_1 = beta exp(i alpha) along the flow; 32 modes leave a tail of 0.3^33
    p = OAPoint(0.5, 0.3)
    errors = []
    for dt in (0.2, 0.1, 0.05, 0.025):
        run = mfl_simulate_spectral(FourierDensity.from_oa(p, 32), dt, 2.0, output_every=0.2)
        exact = [oa_flow(p, float(t)).beta * np.exp(1j * p.alpha) for t in run.times]
        errors.append(float(np.max(np.abs(run.states[:, 0] - exact))))
    _assert_order(errors, 4)


def _cross_ratio_drift(kernel, dt):
    """The largest relative change, over the rows of a ds run from 64 unsorted
    angles, of the cross-ratios of consecutive quadruples of ``exp(i x)``."""
    start = ParticleState(np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, 64))
    z = np.exp(1j * ds_simulate(start, kernel, dt, 4.0, output_every=0.5).states)
    a, b, c, d = (z[:, k:k + 61] for k in range(4))
    ratios = (a - c) * (b - d) / ((a - d) * (b - c))
    return float(np.max(np.abs(ratios / ratios[0] - 1.0)))


def test_ds_keeps_the_cross_ratios_to_fourth_order_in_dt():
    # Sine coupling moves every exp(i x_j) by one Mobius map, so each
    # cross-ratio is conserved from any start, on the family or off it
    # (Watanabe & Strogatz, Physica D 74, 197, 1994).  OddTrig's higher
    # harmonics break that structure, so the check cannot pass vacuously.
    _assert_order([_cross_ratio_drift(KuramotoSin(1.7), dt) for dt in (0.04, 0.02, 0.01, 0.005)], 4)
    assert _cross_ratio_drift(OddTrig((1.0, 0.3, 0.1)), 0.04) > 0.1
