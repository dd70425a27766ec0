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
from .circle import TWO_PI, frozen, is_size, is_winding, wrap_angle
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
        if not np.all(np.isfinite(pos)):
            raise DomainError("initial state contains non-finite components")
        frozen(self, "positions", wrap_angle(pos))


# Values of phi evaluated at once by the generic reductions: one row block.
BLOCK_VALUES = 1 << 14

# Largest theta x nodes matrix of phi values that the generic velocity_field
# keeps for the life of the callable it returns (2^22 doubles, 32 MB).
# Larger node sets evaluate phi again, block by block, on every call, which
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
    arguments.  The generic reductions here are O(N^2) and take ``phi`` in
    row blocks of at most :data:`BLOCK_VALUES` values: the mean
    interaction sums each row exactly, and the transport velocity takes a
    dot product per row.  ``KuramotoSin`` replaces both with O(N)
    order-parameter forms and ``OddTrig`` replaces the mean interaction
    only (identical real-arithmetic identities, so they agree to rounding).
    """

    def phi(self, x, y):
        raise NotImplementedError

    def _phi_blocks(self, theta: np.ndarray, nodes: np.ndarray):
        """``phi`` at ``theta`` against ``nodes``, as consecutive blocks of rows."""
        step = max(1, BLOCK_VALUES // len(nodes))
        for start in range(0, len(theta), step):
            yield self.phi(theta[start:start + step, None], nodes)

    def mean_interaction(self, positions: np.ndarray) -> np.ndarray:
        """Componentwise ``(1/N) sum_j phi(x_i, x_j)``, self term included."""
        sums = [exact_row_sums(rows) for rows in self._phi_blocks(positions, positions)]
        return np.concatenate(sums) / len(positions)

    def velocity_field(self, theta: np.ndarray, nodes: np.ndarray):
        """``masses -> sum_k phi(t, y_k) m_k`` at each angle ``t`` of the 1-d ``theta``.

        Each block of ``phi`` rows meets the masses as a ``(rows, 1, k) @
        (k, 1)`` ``np.matmul``, which takes each row with the dot kernel of
        ``np.dot`` (``rows @ masses`` goes to gemv and changes last bits).
        ``phi`` does not depend on the masses: up to :data:`CACHE_VALUES`
        entries the callable keeps its blocks as one matrix, and above that
        it evaluates them on every call.
        """
        theta = np.asarray(theta, dtype=float)
        cached = theta.size * len(nodes) <= CACHE_VALUES
        if cached:
            matrix = np.concatenate(list(self._phi_blocks(theta, nodes)))

        def field(masses):
            m = np.asarray(masses, dtype=float)
            m = (m if m.strides[0] > 0 else m.copy())[:, None]  # np.dot copies masses of stride <= 0
            blocks = (matrix,) if cached else self._phi_blocks(theta, nodes)
            if len(nodes) == 1:  # np.dot multiplies one-element vectors: -0.0 stays
                return np.concatenate([m.item() * rows[:, 0] for rows in blocks])
            return np.concatenate([np.matmul(rows[:, None, :], m)[:, 0, 0] for rows in blocks])

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

    def velocity_field(self, theta, nodes):
        # O(N) per call from the order parameter; no matrix to keep.
        cos, sin, turn = np.cos(nodes), np.sin(nodes), np.exp(-1j * theta)

        def field(masses):
            return self.coupling * (complex(np.dot(masses, cos), np.dot(masses, sin)) * turn).imag

        return field


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
            out += km * _sine_mean(positions, m)
        return out


@dataclass(frozen=True)
class TabulatedGradient(InteractionKernel):
    """Kernel of gradient shape ``phi(x, y) = Phi'(x - y)`` with ``Phi'``
    given by linear interpolation of samples.

    ``offsets`` and ``values`` are 1-d, of one length of at least 2, and
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
            raise DomainError("tabulated kernel needs as many offsets as values, at least 2")
        _check_finite("offsets/values", np.concatenate([u, v]))
        if np.any(u[1:] <= u[:-1]):  # np.diff would overflow on a window past the float range
            raise DomainError("offsets must be strictly increasing")
        if float(u[-1]) - float(u[0]) == np.inf:
            raise DomainError("offsets must span a window width in the float range")

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
    recorded.  The continuum-limit solver runs through this function, so
    matching initial values give bitwise identical trajectories.
    """
    return integrate_fixed(
        kernel.mean_interaction,
        state.positions,
        dt,
        t_end,
        record_every=record_stride(dt, output_every),
        step=lambda rhs, y, h, t: wrap_angle(_rk4.rk4_step(rhs, y, h)),
    )


def discrete_twisted_state(n: int, m: int, q: float = 0.0) -> ParticleState:
    """Finite counterpart of a twisted field: ``x_j = 2*pi*j*m/n + q``."""
    if not (is_size(n, 1) and is_winding(m)):
        raise DomainError(f"need integers n >= 1 and m in the float range, got n={n!r}, m={m!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        x = TWO_PI * np.arange(n) * m / n + q
    if not np.all(np.isfinite(x)):
        raise DomainError(f"winding m = {m:.6g} with q = {q:.6g} puts angles past the float range")
    return ParticleState(x)

