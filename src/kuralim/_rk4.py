"""Fixed-step classical Runge-Kutta integration shared by every solver.

One code path serves particle systems, label fields, spectral mode
vectors and grid densities; the finite-N and continuum-limit solvers owe
their bitwise agreement to this sharing.  Circle-valued states integrate
on the real lift and their ``step`` wraps them only at step boundaries,
so the RK4 stages never see a branch-cut discontinuity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import frozen, is_size
from .errors import DomainError, NonFinite

#: Most steps a schedule may hold; at about 40 us per RK4 step that is
#: over 11 hours of stepping.
MAX_STEPS = 10**9


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of a fixed-step run; row ``i`` is at ``times[i]``."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        frozen(self, "times", self.times)
        frozen(self, "states", self.states, dtype=None)

    def __len__(self) -> int:
        return len(self.times)


def rk4_step(rhs, y, dt: float):
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_schedule(dt: float, t_end: float) -> tuple[int, float]:
    """Number of full steps plus an optional remainder step covering t_end.

    Returns ``(n_full, remainder)`` with ``remainder == 0.0`` whenever
    ``t_end`` is an integer multiple of ``dt`` up to rounding: a remainder
    of at most ``1e-9 * dt`` or four ulps of ``t_end`` is dropped, so the
    tolerance scales with the step and not with the final time.  Raises
    :class:`DomainError` for a schedule of more than :data:`MAX_STEPS`
    steps.
    """
    if not 0.0 < dt < np.inf:
        raise DomainError(f"dt must be positive and finite, got {dt}")
    if not 0.0 <= t_end < np.inf:
        raise DomainError(f"final time must be finite and nonnegative, got {t_end}")
    if not t_end / dt <= MAX_STEPS:
        raise DomainError(f"final time {t_end} / dt {dt} is more than {MAX_STEPS} steps")
    n_full = int(np.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    if remainder <= max(1e-9 * dt, 4 * np.spacing(t_end)):
        remainder = 0.0
    return n_full, remainder


def integrate_fixed(
    rhs,
    y0: np.ndarray,
    dt: float,
    t_end: float,
    *,
    record_every: int = 1,
    step=None,
) -> Trajectory:
    """Integrate ``y' = rhs(y)`` from 0 to ``t_end`` with fixed step ``dt``.

    ``step(rhs, y, h, t)`` advances ``y`` by ``h`` to time ``t`` and may
    raise to abort; the default is :func:`rk4_step`.  ds and cl wrap the
    RK4 result to the circle, the spectral solver checks its last mode and
    the grid solver takes an upwind finite-volume step.  Records every
    ``record_every``-th step; the first and last states are always
    included.  Raises :class:`DomainError` when ``dt`` exceeds a positive
    ``t_end``, and :class:`NonFinite` naming the first bad step if the
    state leaves the finite range or the step raises ``OverflowError``.
    """
    if not is_size(record_every, 1):
        raise DomainError("record_every must be a positive integer")
    if t_end > 0.0 and dt > t_end:
        raise DomainError(f"dt = {dt} exceeds final time {t_end}")
    y = np.array(y0)
    if not np.all(np.isfinite(y)):
        raise NonFinite("initial state contains non-finite components")
    n_full, remainder = step_schedule(dt, t_end)
    n_total = n_full + (1 if remainder else 0)

    times = [0.0]
    states = [y.copy()]
    # A state that overflows or turns NaN is caught below as NonFinite, so
    # numpy's warnings on the way there would only repeat the error.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_total + 1):
            h = dt if k <= n_full else remainder
            t = k * dt if k <= n_full else t_end
            try:
                y = rk4_step(rhs, y, h) if step is None else step(rhs, y, h, t)
            except OverflowError:  # math.fsum of an interaction sum: no finite state
                y = np.nan
            if not np.all(np.isfinite(y)):
                raise NonFinite(f"non-finite state at step {k} (t = {t:.6g})")
            if k % record_every == 0 or k == n_total:
                times.append(t)
                states.append(y.copy())
    return Trajectory(times, states)


def record_stride(dt: float, output_every: float | None) -> int:
    """Translate an output interval into a step stride.

    ``output_every / dt`` is rounded to the nearest whole number of steps
    (ties to even, at least 1): 0.015 with ``dt = 0.01`` records every 0.02.
    A stride past :data:`MAX_STEPS` is cut to ``MAX_STEPS + 1``, which like
    any longer one records only the first and last states.
    """
    if output_every is None:
        return 1
    if not output_every > 0:
        raise DomainError(f"output_every must be positive, got {output_every}")
    if not dt > 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    return max(1, int(round(min(output_every / dt, MAX_STEPS + 1))))
