"""Circle geometry, grids, densities, CDFs and quantiles.

Angles are plain floats in radians; the canonical representative lies in
the half-open ``[0, 2*pi)`` and is produced by :func:`wrap_angle`.  Labels
(quantile arguments) live in ``[0, 1]``; :func:`wrap_label` maps them to
``[0, 1)``.  Two uniform grids appear everywhere:

* :class:`ThetaGrid` holds angle nodes ``theta_j = 2*pi*j / n_cells``.  A
  periodic trapezoid rule on these nodes has uniform weights
  ``2*pi/n_cells`` and is spectrally accurate for smooth densities.
* :class:`LabelGrid` holds label midpoints ``xi_j = (j + 1/2) / n_labels``.
  The midpoint rule over these points is likewise spectrally accurate
  for smooth 1-periodic integrands and exact (to rounding) for
  trigonometric polynomials in the label.

The CDF convention is the circular cumulative distribution anchored at
angle zero: ``F(theta) = mass of [0, theta]``, so ``F(0) = 0`` and
``F(2*pi) = 1``.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    EmptyMeasure,
    NonNormalized,
    NotStrictlyMonotone,
)

TWO_PI = 2.0 * np.pi

#: Mass tolerance accepted before renormalization.
MASS_TOL = 1e-8
#: Smallest per-cell CDF increment a quantile accepts; a flatter cell is refused.
FLAT_TOL = 1e-10


def wrap_angle(theta):
    """Canonical circle representative in ``[0, 2*pi)``; never ``2*pi``.

    An array comes back as a new float array.  Its entries in the open
    interval ``(0, 2*pi)`` come back as they are, which is what ``np.mod``
    returns for them; the others go through ``np.mod`` twice, since one
    rounds a tiny negative angle up to ``2*pi``.  ``-0.0`` becomes ``+0.0``,
    and ``+-inf`` becomes NaN, as in the other wraps and the distances.
    """
    if np.ndim(theta) == 0:
        with np.errstate(invalid="ignore"):  # np.mod warns at +-inf
            return np.mod(np.mod(theta, TWO_PI), TWO_PI)
    out = np.array(theta, dtype=float)
    outside = ~((out > 0.0) & (out < TWO_PI))
    if outside.any():  # the common case of none costs no np.errstate
        with np.errstate(invalid="ignore"):
            out[outside] = np.mod(np.mod(out[outside], TWO_PI), TWO_PI)
    return out


def wrap_pm_pi(theta):
    """Representative in ``[-pi, pi)``; never ``pi``."""
    return wrap_angle(np.asarray(theta, dtype=float) + np.pi) - np.pi


def wrap_label(xi):
    """Canonical label representative in ``[0, 1)``: ``np.mod`` twice, as :func:`wrap_angle`."""
    with np.errstate(invalid="ignore"):
        return np.mod(np.mod(xi, 1.0), 1.0)


def circle_distance(a, b):
    """Geodesic distance on the circle of circumference ``2*pi``."""
    with np.errstate(invalid="ignore"):
        d = np.mod(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), TWO_PI)
    return np.minimum(d, TWO_PI - d)


def label_distance(a, b):
    """Geodesic distance on the label circle of circumference one."""
    with np.errstate(invalid="ignore"):
        d = np.mod(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), 1.0)
    return np.minimum(d, 1.0 - d)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def is_size(n, least: int) -> bool:
    """Whether ``n`` is an integer of at least ``least``; numpy integers
    count, floats and bools do not."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= least


def is_winding(m) -> bool:
    """Whether ``m`` is an integer, as :func:`is_size` counts them, that converts to a float."""
    return is_size(m, -sys.float_info.max) and m <= sys.float_info.max


def clip_labels(xi) -> np.ndarray:
    """Quantile labels ``xi`` as floats clipped to ``[0, 1]``; farther than 1e-12 out is refused."""
    x = np.asarray(xi, dtype=float)
    if np.any((x < -1e-12) | (x > 1.0 + 1e-12)):
        raise DomainError("quantile argument outside [0, 1]")
    return np.clip(x, 0.0, 1.0)


def frozen(obj, name: str, value, dtype=float) -> np.ndarray:
    """Store a private read-only copy of ``value`` as field ``name`` of the
    frozen dataclass ``obj`` and return it.

    ``np.array`` always copies, so the caller's array stays writeable and
    a later write to it does not reach ``obj``; ``dtype=None`` keeps the
    inferred type.  Every array a value type holds is stored this way.
    """
    a = _readonly(np.array(value, dtype=dtype))
    object.__setattr__(obj, name, a)
    return a


@dataclass(frozen=True)
class ThetaGrid:
    """Uniform periodic angle grid with ``n_cells`` nodes on ``[0, 2*pi)``."""

    n_cells: int

    def __post_init__(self):
        if not is_size(self.n_cells, 2):
            raise DomainError(f"ThetaGrid needs an integer >= 2 cells, got {self.n_cells!r}")

    @cached_property
    def nodes(self) -> np.ndarray:
        return _readonly(np.arange(self.n_cells) * (TWO_PI / self.n_cells))

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n_cells


@dataclass(frozen=True)
class LabelGrid:
    """Uniform label grid with midpoints ``(j + 1/2) / n_labels``."""

    n_labels: int

    def __post_init__(self):
        if not is_size(self.n_labels, 1):
            raise DomainError(f"LabelGrid needs an integer >= 1 labels, got {self.n_labels!r}")

    @cached_property
    def midpoints(self) -> np.ndarray:
        return _readonly((np.arange(self.n_labels) + 0.5) / self.n_labels)


@dataclass(frozen=True)
class CircularDensity:
    """Probability density on a :class:`ThetaGrid`, stored as cell averages.

    ``values[j]`` is the average of the density over the cell
    ``[theta_j, theta_{j+1})``, so the total mass ``spacing * sum(values)``
    must be within ``MASS_TOL`` of one and the CDF built from these values
    is exact at the nodes.  For smooth densities the cell average agrees
    with the midpoint value to second order, so midpoint sampling is an
    acceptable way to construct one.  Tiny negative values (above
    ``-1e-12``, e.g. finite-volume rounding) are tolerated but not
    repaired here.
    """

    grid: ThetaGrid
    values: np.ndarray

    def __post_init__(self):
        vals = frozen(self, "values", self.values)
        if vals.shape != (self.grid.n_cells,):
            raise DomainError(
                f"density shape {vals.shape} does not match grid ({self.grid.n_cells},)"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("density values must be finite")
        if np.any(vals < -1e-12):
            raise DomainError("density has negative values beyond tolerance")
        with np.errstate(over="ignore"):  # a mass past the float range is refused below
            m = self.mass()
        if abs(m - 1.0) > MASS_TOL:
            raise NonNormalized(f"density mass {m!r} differs from 1 by more than {MASS_TOL}")

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.spacing)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted atoms, either on the circle or on the real line."""

    positions: np.ndarray
    weights: np.ndarray
    space: str = "circle"

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        w = frozen(self, "weights", self.weights)
        if pos.size == 0:
            raise EmptyMeasure("empirical measure needs at least one atom")
        if pos.shape != w.shape or pos.ndim != 1:
            raise DomainError("positions and weights must be matching 1-d arrays")
        if self.space not in ("circle", "line"):
            raise DomainError(f"unknown space {self.space!r}")
        if not np.all(np.isfinite(pos)):
            raise DomainError("atom positions must be finite")
        # the comparisons are negated, so that a NaN weight is refused too
        if not np.all(w >= 0):
            raise DomainError("weights must be nonnegative")
        total = float(w.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise NonNormalized(f"weights sum to {total!r}, not 1 within 1e-12")
        frozen(self, "positions", wrap_angle(pos) if self.space == "circle" else pos)


@dataclass(frozen=True)
class CdfFn:
    """Circular CDF as a piecewise-linear grid function.

    ``values`` holds ``n_cells + 1`` samples at the nodes extended by the
    endpoint ``2*pi``, with ``values[0] == 0`` and ``values[-1] == 1``.
    """

    grid: ThetaGrid
    values: np.ndarray

    def __post_init__(self):
        vals = frozen(self, "values", self.values)
        if vals.shape != (self.grid.n_cells + 1,):
            raise DomainError("CDF needs n_cells + 1 values (nodes plus endpoint)")
        # the comparisons are negated, so that a NaN value is refused too
        if not (abs(vals[0]) <= 1e-12 and abs(vals[-1] - 1.0) <= 1e-12):
            raise DomainError("CDF must run from 0 at angle 0 to 1 at angle 2*pi")
        if not np.all(np.diff(vals) >= 0):
            raise DomainError("CDF values must be nondecreasing")

    @cached_property
    def nodes(self) -> np.ndarray:
        ext = np.append(self.grid.nodes, TWO_PI)
        return _readonly(ext)

    def __call__(self, theta):
        th = np.clip(np.asarray(theta, dtype=float), 0.0, TWO_PI)
        return np.interp(th, self.nodes, self.values)


def cdf_from_density(f: CircularDensity) -> CdfFn:
    """Cumulative CDF of a grid density, renormalized to end at one.

    Cell values are read as averages over ``[theta_j, theta_{j+1})``, so
    the increment of cell ``j`` is exactly ``values[j] * spacing`` and the
    CDF is exact at every node whenever the values are true cell averages
    (see :func:`kuralim.oa.oa_cell_averages`).  Increments are clamped at
    zero so rounding-level negativity in the input cannot break
    monotonicity.  Raises :class:`NonNormalized` if the raw mass is
    farther than ``MASS_TOL`` from one.
    """
    incr = np.maximum(f.values * f.grid.spacing, 0.0)
    cum = np.concatenate(([0.0], np.cumsum(incr)))
    total = cum[-1]
    if abs(total - 1.0) > MASS_TOL:
        raise NonNormalized(f"density mass {total!r} differs from 1 by more than {MASS_TOL}")
    return CdfFn(f.grid, cum / total)


@dataclass(frozen=True)
class QuantileFn:
    """Inverse ``xi -> theta`` with ``F(theta) = xi`` of a grid CDF.

    Evaluation is a binary search over the grid values followed by linear
    interpolation inside the located cell.  Construction refuses a CDF
    with a flat cell (increment below ``FLAT_TOL``), so every cell has a
    positive slope to divide by.
    """

    cdf: CdfFn

    def __post_init__(self):
        if np.any(np.diff(self.cdf.values) < FLAT_TOL):
            raise NotStrictlyMonotone(f"CDF has a cell increment below {FLAT_TOL}")

    def __call__(self, xi):
        x = clip_labels(xi)
        F = self.cdf.values
        nodes = self.cdf.nodes
        hi = np.clip(np.searchsorted(F, x, side="left"), 1, len(F) - 1)
        lo = hi - 1
        t = (x - F[lo]) / (F[hi] - F[lo])
        out = nodes[lo] + np.clip(t, 0.0, 1.0) * (nodes[hi] - nodes[lo])
        return out if out.ndim else float(out)


def empirical_quantile(m: EmpiricalMeasure, xi):
    """Quantile ``inf{x : F(x) >= xi}`` of an atomic measure.

    Exact at breakpoints: the atom boundary ``xi == F(atom)`` selects the
    atom itself, matching the left-continuous step convention.  Circle
    atoms are ordered by their canonical representative.
    """
    x = clip_labels(xi)
    order = np.argsort(m.positions, kind="stable")
    pos = m.positions[order]
    cum = np.cumsum(m.weights[order])
    cum = cum / cum[-1]
    idx = np.minimum(np.searchsorted(cum, x, side="left"), len(pos) - 1)
    out = np.where(np.isnan(x), np.nan, pos[idx])
    return out if out.ndim else float(out)

