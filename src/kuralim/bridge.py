"""Quantile transform between density descriptions and label fields.

The label field of a circle density is its quantile evaluated at the
label.  The CDF needs an anchor (we integrate from angle 0), and mass
transported across the anchor relabels the quantile.  Tracking the
anchor flux

    J(t) = v_t(0) f_t(0),    S(t) = integral_0^t J(s) ds

restores the correspondence: the label field of the density trajectory is
``x_t(xi) = Q_t(frac(xi + S(t)))``, which solves the label dynamics when
the density solves the transport equation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import LabelGrid, QuantileFn, cdf_from_density, frozen, wrap_angle, wrap_label
from .errors import DomainError, DriftQuadrature
from .meanfield import DensityTrajectory
from .particles import InteractionKernel

# Largest second-difference-based trapezoid error estimate tolerated when
# accumulating the anchor drift; denser recording shrinks it quadratically.
DRIFT_QUAD_TOL = 1e-6


def anchor_flux_series(traj: DensityTrajectory, kernel: InteractionKernel) -> np.ndarray:
    """Mass flux through angle 0 at each recorded time of a density run.

    The density value at the anchor interface is the average of the two
    adjacent cells, second-order accurate there.
    """
    grid = traj.grid
    field = kernel.velocity_field(np.zeros(1), grid.centers)
    flux = np.empty(len(traj))
    with np.errstate(over="ignore", invalid="ignore"):  # values past the float range: an inf or NaN flux
        for k, f in enumerate(traj.values):
            flux[k] = field(f * grid.spacing)[0] * 0.5 * (f[0] + f[-1])
    return flux


def accumulate_drift(times: np.ndarray, flux: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of the anchor flux.

    Raises :class:`DriftQuadrature` when the flux samples are too sparse
    for the trapezoid rule: the per-interval error estimate
    ``|second difference| / 12`` must stay below :data:`DRIFT_QUAD_TOL`.
    """
    times, flux = np.asarray(times, dtype=float), np.asarray(flux, dtype=float)
    if times.ndim != 1 or times.shape != flux.shape:
        raise DomainError("times and flux must be 1-d arrays of equal length")
    if len(times) == 1:
        return np.zeros(1)
    if len(times) < 3:
        raise DriftQuadrature(
            "drift accumulation needs at least three recorded slices; "
            "record the density run with a smaller output interval"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # samples past the float range: inf or NaN
        est = float(np.max(np.abs(np.diff(flux, 2)))) / 12.0
        drift = np.concatenate(([0.0], np.cumsum(np.diff(times) * (flux[1:] + flux[:-1]) / 2.0)))
    if est > DRIFT_QUAD_TOL:
        raise DriftQuadrature(
            f"drift quadrature error estimate {est:.3g} exceeds "
            f"{DRIFT_QUAD_TOL:g}; record the density run with a smaller "
            "output interval"
        )
    return drift


@dataclass(frozen=True)
class BridgeResult:
    """Label fields recovered from a density trajectory, plus the drift."""

    times: np.ndarray
    fields: np.ndarray
    drift: np.ndarray
    label_grid: LabelGrid

    def __post_init__(self):
        for name in ("times", "fields", "drift"):
            frozen(self, name, getattr(self, name))


def mfl_to_cl_circle(
    traj: DensityTrajectory,
    kernel: InteractionKernel,
    label_grid: LabelGrid,
    drift_scale: float = 1.0,
) -> BridgeResult:
    """Transform a circle density trajectory into label fields.

    Each recorded density is inverted through its CDF and read at the
    drift-shifted labels.  The drift comes from the solver's stored
    anchor-crossing mass when the trajectory carries it (exact for the
    discrete run, so the labels stay aligned with the finite-volume CDF);
    trajectories without it fall back to trapezoid quadrature of the
    anchor flux.  ``drift_scale`` rescales the drift and exists for
    sensitivity controls; physical transforms use 1.0.
    """
    if not np.isfinite(drift_scale):
        raise DomainError(f"drift_scale must be finite, got {drift_scale!r}")
    if traj.drift is not None:
        drift = drift_scale * traj.drift
    else:
        flux = anchor_flux_series(traj, kernel)
        drift = drift_scale * accumulate_drift(traj.times, flux)

    fields = np.empty((len(traj), label_grid.n_labels))
    for k in range(len(traj)):
        quantile = QuantileFn(cdf_from_density(traj.density(k)))
        w = wrap_label(label_grid.midpoints + drift[k])
        fields[k] = wrap_angle(quantile(w))
    return BridgeResult(traj.times, fields, drift, label_grid)

