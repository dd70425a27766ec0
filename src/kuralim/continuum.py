"""Continuum limit: label-indexed fields on [0, 1] and their dynamics.

A configuration is a measurable field ``x : [0, 1] -> S^1`` evolving by

    d/dt x(xi) = integral_0^1 phi(x(xi), x(zeta)) d zeta,

discretized on midpoint labels so the integral becomes the same exact
mean used by the finite system.  Running the continuum solver on ``n``
labels therefore reproduces, byte for byte, the finite system whose
particles sit at those label values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rk4 import Trajectory
from .circle import TWO_PI, LabelGrid, frozen, is_winding, wrap_angle, wrap_label
from .errors import DomainError
from .oa import OAPoint, oa_quantile, oa_shift
from .particles import InteractionKernel, ParticleState, ds_simulate


@dataclass(frozen=True)
class LabelField:
    """Circle-valued field sampled at the midpoints of a label grid, stored
    as canonical representatives in ``[0, 2*pi)``."""

    grid: LabelGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_labels,):
            raise DomainError(
                f"values shape {vals.shape} does not match {self.grid.n_labels} labels"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("initial state contains non-finite components")
        frozen(self, "values", wrap_angle(vals))


def cl_rhs(field: LabelField, kernel: InteractionKernel) -> np.ndarray:
    """Velocity of the field: the label-mean of the interaction."""
    return kernel.mean_interaction(field.values)


def cl_simulate(
    field: LabelField,
    kernel: InteractionKernel,
    dt: float,
    t_end: float,
    output_every: float | None = None,
) -> Trajectory:
    """Fixed-step RK4 trajectory of the continuum-limit field.

    Runs through :func:`ds_simulate` on the label values, which are
    already canonical, so a continuum run and a finite run from matching
    initial values give bitwise identical trajectories.
    """
    return ds_simulate(ParticleState(field.values), kernel, dt, t_end, output_every)


def twisted_field(grid: LabelGrid, m: int, q: float = 0.0) -> LabelField:
    """Stationary winding profile ``x(xi) = 2*pi*m*xi + q`` on the grid."""
    if not is_winding(m):
        raise DomainError(f"need an integer winding m in the float range, got {m!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        x = TWO_PI * m * grid.midpoints + q
    if not np.all(np.isfinite(x)):
        raise DomainError(f"winding m = {m:.6g} with q = {q:.6g} puts angles past the float range")
    return LabelField(grid, x)


def manifold_field(grid: LabelGrid, point: OAPoint, q: float = 0.0) -> LabelField:
    """Continuum configuration carried by the closed-form density family.

    The field transports each label through the family's quantile after a
    label rotation that centers the profile; ``q`` rotates the labels, so
    fields of different ``q`` are rearrangements with the same law and the
    ``q`` dependence vanishes from every density-level statement.  At
    ``beta = 0`` this degenerates to the winding-one profile
    ``twisted_field(grid, 1, q)``.  A non-finite ``q`` is refused.
    """
    if not np.isfinite(q):
        raise DomainError(f"q must be finite, got {q!r}")
    w = wrap_label(grid.midpoints + oa_shift(point) + q / TWO_PI)
    return LabelField(grid, oa_quantile(point, w))
