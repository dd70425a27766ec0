"""Quantile transform between density descriptions and label fields.

On the line the bridge is plain quantile coupling: the label field of a
measure is its quantile evaluated at the label.  On the circle the CDF
needs an anchor (we integrate from angle 0), and mass transported across
the anchor relabels the quantile.  Tracking the anchor flux

    J(t) = v_t(0) f_t(0),    S(t) = integral_0^t J(s) ds

restores the correspondence: the label field of the density trajectory is
``x_t(xi) = Q_t(frac(xi + S(t)))``, which solves the label dynamics when
the density solves the transport equation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import (
    CircularDensity,
    EmpiricalMeasure,
    LabelGrid,
    cdf_from_density,
    empirical_quantile,
    quantile_from_cdf,
    wrap_angle,
    wrap_label,
)
from .continuum import LabelField
from .errors import DomainError, DriftQuadrature
from .meanfield import DensityTrajectory
from .particles import InteractionKernel

# Largest second-difference-based trapezoid error estimate tolerated when
# accumulating the anchor drift; denser recording shrinks it quadratically.
DRIFT_QUAD_TOL = 1e-6


def cl_to_measure(field: LabelField) -> EmpiricalMeasure:
    """Uniformly weighted empirical measure of a label field."""
    n = field.n_labels
    return EmpiricalMeasure(field.values, np.full(n, 1.0 / n), field.space)


def measure_to_field(measure: EmpiricalMeasure, label_grid: LabelGrid) -> LabelField:
    """Quantile coupling: the label field whose law is the given measure.

    This is the line-case bridge; it also serves circle measures with the
    CDF anchored at angle 0.
    """
    values = empirical_quantile(measure, label_grid.midpoints)
    return LabelField(label_grid, values, measure.space)


def anchor_flux_series(traj: DensityTrajectory, kernel: InteractionKernel) -> np.ndarray:
    """Mass flux through angle 0 at each recorded time of a density run.

    The density value at the anchor interface is the average of the two
    adjacent cells, second-order accurate there.
    """
    grid = traj.grid
    centers = grid.nodes + 0.5 * grid.spacing
    flux = np.empty(len(traj))
    for k, f in enumerate(traj.values):
        v0 = kernel.circle_velocity(0.0, centers, f * grid.spacing)
        flux[k] = v0 * 0.5 * (f[0] + f[-1])
    return flux


def accumulate_drift(times: np.ndarray, flux: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of the anchor flux.

    Raises :class:`DriftQuadrature` when the flux samples are too sparse
    for the trapezoid rule: the per-interval error estimate
    ``|second difference| / 12`` must stay below :data:`DRIFT_QUAD_TOL`.
    """
    if len(times) != len(flux):
        raise DomainError("times and flux must have equal length")
    if len(times) == 1:
        return np.zeros(1)
    if len(times) < 3:
        raise DriftQuadrature(
            "drift accumulation needs at least three recorded slices; "
            "record the density run with a smaller output interval"
        )
    est = float(np.max(np.abs(np.diff(flux, 2)))) / 12.0
    if est > DRIFT_QUAD_TOL:
        raise DriftQuadrature(
            f"drift quadrature error estimate {est:.3g} exceeds "
            f"{DRIFT_QUAD_TOL:g}; record the density run with a smaller "
            "output interval"
        )
    steps = np.diff(times) * (flux[1:] + flux[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(steps)))


@dataclass(frozen=True)
class BridgeResult:
    """Label fields recovered from a density trajectory, plus the drift."""

    times: np.ndarray
    fields: np.ndarray
    drift: np.ndarray
    label_grid: LabelGrid

    def __len__(self) -> int:
        return len(self.times)

    def field(self, index: int) -> LabelField:
        return LabelField(self.label_grid, self.fields[index])


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
        quantile = quantile_from_cdf(cdf_from_density(traj.density(k)))
        w = wrap_label(label_grid.midpoints + drift[k])
        fields[k] = wrap_angle(quantile(w))
    return BridgeResult(traj.times.copy(), fields, drift, label_grid)


def pushforward_check(
    density: CircularDensity, field_values: np.ndarray, max_harmonic: int = 8
) -> float:
    """Largest harmonic mismatch between a density and a label field.

    Density moments are midpoint rectangle sums, so they are spectrally
    accurate when the stored values are smooth midpoint samples and second
    order when they are cell averages.  The field side is the empirical
    moment of the values.  Small output means the field's law is the
    density.
    """
    if max_harmonic < 1:
        raise DomainError("max_harmonic must be at least 1")
    x = np.asarray(field_values, dtype=float)
    grid = density.grid
    centers = grid.nodes + 0.5 * grid.spacing
    worst = 0.0
    for k in range(1, max_harmonic + 1):
        density_side = np.sum(density.values * np.exp(-1j * k * centers)) * grid.spacing
        empirical = np.mean(np.exp(-1j * k * x))
        worst = max(worst, abs(empirical - density_side))
    return worst
