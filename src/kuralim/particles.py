"""Finite ensembles of interacting phase oscillators.

The system is ``dx_i/dt = (1/N) * sum_j phi(x_i, x_j)`` with the
self term ``j == i`` included (it vanishes for odd kernels).  Interaction
kernels follow the Kuramoto sign convention ``phi(x, y) = K sin(y - x)``,
i.e. positive coupling is attractive, and the gradient-shape hypothesis
``phi(x, y) = Phi'(x - y)`` for tabulated kernels.

Interaction means are correctly rounded sums (:mod:`kuralim._reduce`,
``math.fsum``'s bits by error-free extraction), which makes trajectories
bitwise equivariant under particle relabeling and lets symmetric states
cancel to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rk4
from ._reduce import exact_mean_complex, exact_row_sums
from ._rk4 import Trajectory, integrate_fixed, record_stride
from .circle import TWO_PI, frozen, is_size, wrap_angle
from .errors import DomainError, KernelDomain


@dataclass(frozen=True)
class ParticleState:
    """Positions of ``N`` oscillators, stored as canonical circle
    representatives in ``[0, 2*pi)``."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 1 or pos.size == 0:
            raise DomainError("positions must be a nonempty 1-d array")
        frozen(self, "positions", wrap_angle(pos))


# Values of phi evaluated at once by the generic mean interaction.
BLOCK_VALUES = 1 << 16

# Largest theta x nodes matrix of phi values that the generic velocity_field
# keeps for the life of the callable it returns (2^22 doubles, 32 MB).
# Larger node sets evaluate phi node by node on every call instead, which
# gives the same bytes.
CACHE_VALUES = 1 << 22


def _check_finite(name: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{name} must be finite")


def _sine_mean(positions: np.ndarray, m: int) -> np.ndarray:
    """``(1/N) sum_j sin(m (x_j - x_i)) = Im(R conj(z_i))`` with ``R`` the exact
    mean of ``z_j = exp(i m x_j)``; one pass, permutation-invariant."""
    z = np.exp(1j * m * positions)
    r = exact_mean_complex(z)
    # R * conj(z) stays complex and is written over z.  numpy's complex
    # multiply may fuse a multiply and an add, so the real form
    # r.imag * z.real - r.real * z.imag differs in last bits; and it
    # multiplies a one-element array in place (conj(z, out=z) first)
    # without that fused step, so conj(z) gets its own array.
    return np.multiply(r, np.conj(z), out=z).imag


class InteractionKernel:
    """Pairwise interaction ``phi(x, y)`` plus the reductions built on it.

    Subclasses override :meth:`phi`, which broadcasts over array
    arguments.  The generic reductions here are O(N^2): the mean
    interaction is exact, and the transport velocity is one dot product
    per node.  ``KuramotoSin`` replaces both with O(N) order-parameter
    forms and ``OddTrig`` replaces the mean interaction only (identical
    real-arithmetic identities, so they agree to rounding).
    """

    def phi(self, x, y):
        raise NotImplementedError

    def mean_interaction(self, positions: np.ndarray) -> np.ndarray:
        """Componentwise ``(1/N) sum_j phi(x_i, x_j)``, self term included."""
        n = len(positions)
        out = np.empty_like(positions)
        step = max(1, BLOCK_VALUES // n)
        for start in range(0, n, step):
            x = positions[start:start + step, None]
            out[start:start + step] = exact_row_sums(self.phi(x, positions)) / n
        return out

    def circle_velocity(self, theta: np.ndarray, nodes: np.ndarray, masses: np.ndarray):
        """Transport velocity ``sum_k phi(t, y_k) m_k`` at each angle ``t`` of ``theta``."""
        return np.array([np.dot(self.phi(t, nodes), masses) for t in theta])

    def velocity_field(self, theta: np.ndarray, nodes: np.ndarray):
        """``masses -> circle_velocity(theta, nodes, masses)`` for fixed nodes.

        ``phi`` at the 1-d ``theta`` against ``nodes`` does not depend on
        the masses, so the returned callable evaluates it once, as a stack
        of ``(1, n)`` rows, and multiplies it by the ``(n, 1)`` masses in one
        ``np.matmul``.  numpy takes each row with the dot kernel of ``np.dot``,
        so the bytes are those of :meth:`circle_velocity` (``rows @ masses``
        goes to gemv and changes last bits).  Above :data:`CACHE_VALUES`
        matrix entries it calls :meth:`circle_velocity` instead.
        """
        if np.size(theta) * np.size(nodes) > CACHE_VALUES:
            return lambda masses: self.circle_velocity(theta, nodes, masses)
        rows = self.phi(np.asarray(theta, dtype=float)[:, None], nodes[None, :])
        stack = rows[:, None, :]

        def field(masses):
            m = np.asarray(masses, dtype=float)
            if rows.shape[1] == 1:  # np.dot multiplies one-element vectors: -0.0 stays
                return m.item() * rows[:, 0]
            # np.dot copies masses of stride <= 0 before its dot kernel
            return np.matmul(stack, (m if m.strides[0] > 0 else m.copy())[:, None])[:, 0, 0]

        return field


@dataclass(frozen=True)
class KuramotoSin(InteractionKernel):
    """Classic sine coupling ``phi(x, y) = coupling * sin(y - x)``."""

    coupling: float = 1.0

    def __post_init__(self):
        _check_finite("coupling", self.coupling)

    def phi(self, x, y):
        return self.coupling * np.sin(np.asarray(y, dtype=float) - x)

    def mean_interaction(self, positions: np.ndarray) -> np.ndarray:
        return self.coupling * _sine_mean(positions, 1)

    def circle_velocity(self, theta, nodes, masses):
        z = complex(np.dot(masses, np.cos(nodes)), np.dot(masses, np.sin(nodes)))
        return self.coupling * (z * np.exp(-1j * theta)).imag

    def velocity_field(self, theta, nodes):
        # O(N) per call from the order parameter; no matrix to keep.
        return lambda masses: self.circle_velocity(theta, nodes, masses)


@dataclass(frozen=True)
class OddTrig(InteractionKernel):
    """Odd trigonometric polynomial ``phi(x, y) = sum_m K_m sin(m (y - x))``.

    ``coefficients[m-1]`` is the coupling of harmonic ``m``.
    """

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if len(self.coefficients) == 0:
            raise DomainError("OddTrig needs at least one harmonic coefficient")
        _check_finite("coefficients", self.coefficients)

    def phi(self, x, y):
        d = np.asarray(y, dtype=float) - x
        out = np.zeros_like(d)
        for m, km in enumerate(self.coefficients, start=1):
            out += km * np.sin(m * d)
        return out

    def mean_interaction(self, positions: np.ndarray) -> np.ndarray:
        out = np.zeros_like(positions)
        for m, km in enumerate(self.coefficients, start=1):
            if km != 0.0:
                out += km * _sine_mean(positions, m)
        return out


@dataclass(frozen=True)
class TabulatedGradient(InteractionKernel):
    """Kernel of gradient shape ``phi(x, y) = Phi'(x - y)`` with ``Phi'``
    given by linear interpolation of samples.

    ``offsets`` must be strictly increasing.  With ``periodic=True`` the
    offset is wrapped into the base window; otherwise the table must cover
    every offset, and querying outside the window raises
    :class:`KernelDomain`.
    """

    offsets: np.ndarray
    values: np.ndarray
    periodic: bool = False

    def __post_init__(self):
        u = frozen(self, "offsets", self.offsets)
        v = frozen(self, "values", self.values)
        if u.ndim != 1 or u.shape != v.shape or len(u) < 2:
            raise DomainError("offsets/values must be matching 1-d arrays, length >= 2")
        _check_finite("offsets/values", np.concatenate([u, v]))
        if np.any(np.diff(u) <= 0):
            raise DomainError("offsets must be strictly increasing")

    def phi(self, x, y):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        u0, u1 = self.offsets[0], self.offsets[-1]
        if self.periodic:
            d = u0 + np.mod(d - u0, u1 - u0)
        elif np.any((d < u0) | (d > u1)):
            raise KernelDomain(
                f"offset outside tabulated window [{u0:.6g}, {u1:.6g}]"
            )
        return np.interp(d, self.offsets, self.values)


def _simulate_positions(
    y0: np.ndarray,
    kernel: InteractionKernel,
    dt: float,
    t_end: float,
    output_every: float | None,
) -> Trajectory:
    # One integration path for the finite system and the continuum-limit
    # solver, so identical inputs give identical bytes: RK4 on the real
    # lift, then the canonical representatives.
    return integrate_fixed(
        kernel.mean_interaction,
        y0,
        dt,
        t_end,
        record_every=record_stride(dt, output_every),
        step=lambda rhs, y, h, t: wrap_angle(_rk4.rk4_step(rhs, y, h)),
    )


def ds_simulate(
    state: ParticleState,
    kernel: InteractionKernel,
    dt: float,
    t_end: float,
    output_every: float | None = None,
) -> Trajectory:
    """Fixed-step RK4 trajectory of the finite system.

    Circle states integrate on the real lift within each step and wrap at
    step boundaries.  ``output_every`` selects the recording interval
    (``None`` records every step); the initial and final states are always
    recorded.
    """
    return _simulate_positions(state.positions, kernel, dt, t_end, output_every)


def discrete_twisted_state(n: int, m: int, q: float = 0.0) -> ParticleState:
    """Finite counterpart of a twisted field: ``x_j = 2*pi*j*m/n + q``."""
    if not is_size(n, 1):
        raise DomainError(f"need an integer of at least one particle, got {n!r}")
    return ParticleState(wrap_angle(TWO_PI * np.arange(n) * m / n + q))

