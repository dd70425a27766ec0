"""Mean-field transport of a phase density, in two discretizations.

The density ``f(theta, t)`` on the circle obeys the continuity equation
``f_t + (v f)_theta = 0`` with the self-consistent velocity
``v(theta) = integral phi(theta, y) f(y) dy``.

Spectral route (sine coupling only): expanding
``f = (1/2pi) sum_n c_n exp(i n theta)`` with ``c_n = integral
exp(-i n theta) f dtheta`` (so ``c_0 = 1``, ``c_{-n} = conj(c_n)``)
closes the hierarchy

    dc_n/dt = (n/2) (c_1 c_{n-1} - conj(c_1) c_{n+1}),

truncated at ``n_modes`` by setting ``c_{N+1} = 0``.  On the invariant
family of wrapped-Cauchy densities (where ``c_n = (beta e^{i alpha})^n``)
the dropped coefficient has magnitude ``beta^{N+1}``.

Grid route (any kernel): first-order finite volumes on cells
``[theta_j, theta_{j+1})`` with local Lax-Friedrichs interface fluxes and
forward Euler stepping, which for this scalar flux reduces to upwinding.
The update is conservative, so total mass is preserved to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _rk4
from ._rk4 import Trajectory, integrate_fixed, record_stride
from .circle import CircularDensity, ThetaGrid, _readonly, frozen, is_size, wrap_angle
from .errors import CflViolation, DomainError, TailBlowup
from .oa import OAPoint
from .particles import InteractionKernel

# Hard stability margin for the explicit grid solver: the advective CFL
# number |v| dt / dtheta must stay at or below this on every step.
CFL_LIMIT = 0.5

# Spectral runs abort once the last retained mode grows past this: the
# truncation is then feeding back into resolved modes at O(1).
TAIL_LIMIT = 0.5


@dataclass(frozen=True)
class FourierDensity:
    """Truncated Fourier description of a circle density.

    ``modes[k]`` holds ``c_{k+1}``; the zeroth coefficient is fixed at 1
    by normalization and negative modes are conjugates.
    """

    modes: np.ndarray

    def __post_init__(self):
        m = frozen(self, "modes", self.modes, dtype=complex)
        if m.ndim != 1 or m.size == 0:
            raise DomainError("modes must be a nonempty 1-d complex array")

    @classmethod
    def from_oa(cls, point: OAPoint, n_modes: int) -> "FourierDensity":
        """Wrapped-Cauchy coefficients ``c_n = (beta exp(i alpha))^n``."""
        if not is_size(n_modes, 1):
            raise DomainError(f"need an integer of at least one mode, got {n_modes!r}")
        a = point.beta * np.exp(1j * point.alpha)
        return cls(a ** np.arange(1, n_modes + 1))


def moments(state, n) -> np.ndarray:
    """Circular moments ``c_k = integral exp(-i k theta) f``, ``k = 1 .. n``: a
    :class:`FourierDensity`'s modes, a :class:`CircularDensity`'s cell sums over
    ``sinc(k h / 2)`` (undoing the cell averaging), or means over 1-d angle arrays."""
    fourier, grid = isinstance(state, FourierDensity), isinstance(state, CircularDensity)
    most = len(state.modes) if fourier else state.grid.n_cells // 2 if grid else np.inf
    if not (is_size(n, 1) and n <= most):
        raise DomainError(f"need an integer count of moments in [1, {most}], got {n!r}")
    k = np.arange(1, n + 1)
    if fourier:
        return state.modes[:n]
    if grid:
        g = state.grid
        sums = np.exp(-1j * np.outer(k, g.nodes + 0.5 * g.spacing)) @ state.values
        return sums * g.spacing / np.sinc(k / g.n_cells)
    x = np.asarray(state, dtype=float)
    if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
        raise DomainError("moments need a nonempty 1-d array of finite angles")
    return np.exp(-1j * np.outer(k, wrap_angle(x))).mean(axis=1)


def oa_defect(c) -> float:
    """``max_k |c_k - c_1^k|``, how far moments ``c_1 .. c_n`` lie from the Ott-Antonsen family."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise DomainError("oa_defect needs a nonempty 1-d array of moments")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite c or c_1^k: inf or NaN
        return np.max(np.abs(c - c[0] ** np.arange(1, c.size + 1)))


@lru_cache(maxsize=16)
def _half_orders(n_modes: int) -> np.ndarray:
    """``n / 2`` for ``n = 1 .. n_modes``, read-only: every caller shares it."""
    return _readonly(0.5 * np.arange(1, n_modes + 1))


def spectral_rhs(modes: np.ndarray) -> np.ndarray:
    """Mode velocities of the sine-coupled hierarchy truncated by ``c_{N+1} = 0``."""
    c1 = modes[0]
    lower = np.empty_like(modes, dtype=complex)
    lower[0] = 1.0
    lower[1:] = modes[:-1]
    upper = np.empty_like(modes, dtype=complex)
    upper[:-1] = modes[1:]
    upper[-1] = 0.0
    return _half_orders(len(modes)) * (c1 * lower - np.conj(c1) * upper)


def mfl_simulate_spectral(
    initial: FourierDensity,
    dt: float,
    t_end: float,
    output_every: float | None = None,
) -> Trajectory:
    """Fixed-step RK4 evolution of the truncated mode hierarchy.

    States along the trajectory are complex mode vectors.  Raises
    :class:`TailBlowup` as soon as the last retained mode exceeds
    ``TAIL_LIMIT``, which signals that the truncation is no longer
    meaningful.
    """
    def checked_step(rhs, y, h, t):
        c = _rk4.rk4_step(rhs, y, h)
        # a non-finite state is left to integrate_fixed's NonFinite
        if abs(c[-1]) > TAIL_LIMIT and np.all(np.isfinite(c)):
            raise TailBlowup(
                f"last mode reached |c_N| = {abs(c[-1]):.3g} at t = {t:.6g}; "
                "increase n_modes or shorten the run"
            )
        return c

    return integrate_fixed(
        spectral_rhs,
        initial.modes,
        dt,
        t_end,
        record_every=record_stride(dt, output_every),
        step=checked_step,
    )


@dataclass(frozen=True)
class DensityTrajectory:
    """Recorded grid-density slices of a transport run.

    ``drift``, when present, is the solver's own running total of mass
    transported across the interface at ``theta = 0`` up to each recorded
    time.  It is exact bookkeeping of the conservative update, not a
    quadrature, and it is what the circle quantile transform needs to keep
    labels aligned with the solver.  Trajectories assembled from bare
    snapshots carry ``drift=None`` and fall back to time quadrature.
    """

    times: np.ndarray
    values: np.ndarray
    grid: ThetaGrid
    drift: np.ndarray | None = None

    def __post_init__(self):
        t = frozen(self, "times", self.times)
        v = frozen(self, "values", self.values)
        if v.shape != (len(t), self.grid.n_cells):
            raise DomainError("values must have shape (n_times, n_cells)")
        if self.drift is not None and frozen(self, "drift", self.drift).shape != t.shape:
            raise DomainError("drift must have one value per recorded time")

    def __len__(self) -> int:
        return len(self.times)

    def density(self, index: int) -> CircularDensity:
        return CircularDensity(self.grid, self.values[index])


def mfl_simulate_grid(
    initial: CircularDensity,
    kernel: InteractionKernel,
    dt: float,
    t_end: float,
    output_every: float | None = None,
) -> DensityTrajectory:
    """Conservative upwind evolution of a grid density.

    Cell values are averages over ``[theta_j, theta_j + dtheta)``; the
    self-consistent velocity is integrated by the midpoint rule over cell
    centers and evaluated at cell interfaces (the grid nodes) by
    ``kernel.velocity_field``.  For kernels without an O(n) velocity form
    (``TabulatedGradient``, ``OddTrig``) that keeps the n x n matrix of
    ``phi`` at interfaces against centers for the whole run: n^2 doubles,
    2 MB at 512 cells, up to :data:`~kuralim.particles.CACHE_VALUES`
    (32 MB, 2048 cells).  Finer grids evaluate ``phi`` again in row blocks
    on every step, with the same bytes.  The forward Euler steps run through
    :func:`integrate_fixed`.  Every step checks the CFL number against
    :data:`CFL_LIMIT` and raises :class:`CflViolation` when the step size
    is too large for the current velocity field.  The
    mass crossing the ``theta = 0`` interface is accumulated exactly as the
    run proceeds and stored per recorded time (see
    :class:`DensityTrajectory`).
    """
    grid = initial.grid
    dtheta = grid.spacing
    centers = grid.nodes + 0.5 * dtheta
    interfaces = grid.nodes

    # Kernel values past the float range fail the first step, as an
    # overflow inside a step does, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        field = kernel.velocity_field(interfaces, centers)

    # The state is the cell values followed by the mass that has crossed
    # the theta = 0 interface so far.
    def velocity(y):
        return field(y[:-1] * dtheta)

    def upwind_step(velocity, y, h, t):
        f = y[:-1]
        v = velocity(y)
        vmax = float(np.max(np.abs(v)))
        if vmax * h > CFL_LIMIT * dtheta:
            raise CflViolation(
                f"CFL number {vmax * h / dtheta:.6g} exceeds {CFL_LIMIT} at "
                f"t = {t:.6g}; need dt <= {CFL_LIMIT * dtheta / vmax:.6g}"
            )

        # Interface j sits between cells j-1 and j (periodic).  Local
        # Lax-Friedrichs with speed |v| == upwinding for flux v*f.
        left = np.roll(f, 1)
        flux = 0.5 * v * (left + f) - 0.5 * np.abs(v) * (f - left)
        return np.append(f - (h / dtheta) * (np.roll(flux, -1) - flux), y[-1] + h * flux[0])

    traj = integrate_fixed(
        velocity,
        np.append(initial.values, 0.0),
        dt,
        t_end,
        record_every=record_stride(dt, output_every),
        step=upwind_step,
    )
    return DensityTrajectory(traj.times, traj.states[:, :-1], grid, traj.states[:, -1])


def linearized_operator(n_cells: int, harmonic: int = 1) -> np.ndarray:
    """Interaction matrix of the dynamics linearized at the flat state.

    Perturbing every phase by ``u_j`` around equidistributed positions
    and expanding the sine coupling of the given harmonic to first order
    gives ``du/dt = (L - mean-zero diagonal) u`` whose coupling matrix is
    ``L[i, j] = cos(harmonic * (theta_i - theta_j)) / n``.  ``L`` is the
    rank-two projector ``(c c^T + s s^T) / n`` onto the harmonic's cosine
    and sine profiles, each with eigenvalue 1/2.
    """
    if not is_size(n_cells, 3):
        raise DomainError(f"need an integer of at least three cells, got {n_cells!r}")
    if not is_size(harmonic, 1) or 2 * harmonic >= n_cells:
        raise DomainError(f"harmonic must be an integer in [1, n_cells / 2), got {harmonic!r}")
    theta = ThetaGrid(n_cells).nodes
    return np.cos(harmonic * np.subtract.outer(theta, theta)) / n_cells


def linearized_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric operator, descending."""
    return np.linalg.eigvalsh(matrix)[::-1]
