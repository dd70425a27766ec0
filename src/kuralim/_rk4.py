"""Fixed-step classical Runge-Kutta integration shared by every solver.

One code path serves particle systems, label fields, and spectral mode
vectors; the finite-N and continuum-limit solvers owe their bitwise
agreement to this sharing.  Circle-valued states integrate on the real
lift within a step and are wrapped only at step boundaries, so the RK4
stages never see a branch-cut discontinuity.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NonFinite


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of a fixed-step run; row ``i`` is at ``times[i]``."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states))
        self.times.flags.writeable = False
        self.states.flags.writeable = False

    def __len__(self) -> int:
        return len(self.times)

    @cached_property
    def final(self) -> np.ndarray:
        return self.states[-1]


def rk4_step(rhs, y, dt: float):
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_schedule(dt: float, t_end: float) -> tuple[int, float]:
    """Number of full steps plus an optional remainder step covering t_end.

    Returns ``(n_full, remainder)`` with ``remainder == 0.0`` whenever
    ``t_end`` is an integer multiple of ``dt`` up to rounding.
    """
    if not dt > 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    if not 0.0 <= t_end < np.inf:
        raise DomainError(f"final time must be finite and nonnegative, got {t_end}")
    if t_end == 0.0:
        return 0, 0.0
    n_full = int(np.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    if remainder <= 1e-9 * max(1.0, abs(t_end)):
        remainder = 0.0
    return n_full, remainder


def integrate_fixed(
    rhs,
    y0: np.ndarray,
    dt: float,
    t_end: float,
    *,
    record_every: int = 1,
    wrap=None,
    post_step=None,
    step=None,
) -> Trajectory:
    """Integrate ``y' = rhs(y)`` from 0 to ``t_end`` with fixed step ``dt``.

    ``step(rhs, y, h, t)`` advances ``y`` by ``h`` to time ``t``; the
    default is :func:`rk4_step`, and the grid solver passes its upwind
    finite-volume step.  Records every ``record_every``-th step; the first
    and last states are always included.  ``wrap`` (if given) maps the
    state to its canonical representative after each full step.
    ``post_step(y, step, t)`` may raise to abort (used for spectral tail
    monitoring).  Raises :class:`DomainError` when ``dt`` exceeds a
    positive ``t_end``, and :class:`NonFinite` naming the first bad step
    if the state leaves the finite range.
    """
    if record_every < 1:
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
    for k in range(1, n_total + 1):
        h = dt if k <= n_full else remainder
        t = k * dt if k <= n_full else t_end
        y = rk4_step(rhs, y, h) if step is None else step(rhs, y, h, t)
        if wrap is not None:
            y = wrap(y)
        if not np.all(np.isfinite(y)):
            raise NonFinite(f"non-finite state at step {k} (t = {t:.6g})")
        if post_step is not None:
            post_step(y, k, t)
        if k % record_every == 0 or k == n_total:
            times.append(t)
            states.append(y.copy())
    return Trajectory(np.array(times), np.array(states))


def record_stride(dt: float, output_every: float | None) -> int:
    """Translate an output interval into a step stride.

    ``output_every / dt`` is rounded to the nearest whole number of steps
    (ties to even, at least 1): 0.015 with ``dt = 0.01`` records every 0.02.
    """
    if output_every is None:
        return 1
    if output_every <= 0:
        raise DomainError(f"output_every must be positive, got {output_every}")
    if not dt > 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    return max(1, int(round(output_every / dt)))
