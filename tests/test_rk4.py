"""``integrate_fixed`` against a frozen copy of its earlier form.

``integrate_fixed`` once took ``wrap`` and ``post_step`` hooks besides
``step``; ds and cl passed ``wrap=wrap_angle`` and the spectral solver
passed its tail check as ``post_step``.  Those solvers now pass their own
``step``.  The frozen step loop and hooks below are the bitwise reference.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kuralim import (
    DomainError,
    FourierDensity,
    KuramotoSin,
    LabelField,
    LabelGrid,
    NonFinite,
    OAPoint,
    OddTrig,
    ParticleState,
    TabulatedGradient,
    TailBlowup,
    cl_simulate,
    ds_simulate,
    mfl_simulate_spectral,
    spectral_rhs,
    wrap_angle,
)
from kuralim._rk4 import Trajectory, integrate_fixed, record_stride, rk4_step, step_schedule
from kuralim.meanfield import TAIL_LIMIT

TWO_PI = 2.0 * np.pi


def _frozen_integrate_fixed(
    rhs, y0, dt, t_end, *, record_every=1, wrap=None, post_step=None, step=None
):
    """``integrate_fixed`` as it stood with its ``wrap`` and ``post_step`` hooks."""
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
    with np.errstate(over="ignore", invalid="ignore"):
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


def _frozen_positions(y0, kernel, dt, t_end, output_every):
    return _frozen_integrate_fixed(
        kernel.mean_interaction,
        y0,
        dt,
        t_end,
        record_every=record_stride(dt, output_every),
        wrap=wrap_angle,
    )


def _frozen_spectral(initial, dt, t_end, output_every=None):
    def check_tail(c, step, t):
        if abs(c[-1]) > TAIL_LIMIT:
            raise TailBlowup(
                f"last mode reached |c_N| = {abs(c[-1]):.3g} at t = {t:.6g}; "
                "increase n_modes or shorten the run"
            )

    return _frozen_integrate_fixed(
        spectral_rhs,
        initial.modes,
        dt,
        t_end,
        record_every=record_stride(dt, output_every),
        post_step=check_tail,
    )


def _outcome(run, *args):
    """The run's bytes, or the class and message of what it raised."""
    try:
        traj = run(*args)
    except (TailBlowup, NonFinite) as exc:
        return type(exc), str(exc)
    return traj.times.tobytes(), traj.states.tobytes()


_OFFSETS = np.linspace(-np.pi, np.pi, 33)
KERNELS = [
    KuramotoSin(),
    KuramotoSin(-2.5),
    OddTrig((1.0, 0.0, -0.4)),
    TabulatedGradient(_OFFSETS, -np.sin(_OFFSETS) + 0.3 * np.cos(2 * _OFFSETS), periodic=True),
]

# A step, a final time of 0 or between 1 and 12 steps (a remainder step
# when not whole), and an output interval (None records every step).
dts = st.sampled_from([0.01, 0.05, 0.2])
step_counts = st.one_of(st.just(0.0), st.floats(1.0, 12.0))
output_intervals = st.one_of(st.none(), st.floats(0.005, 1.0))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    kernel=st.sampled_from(KERNELS),
    positions=st.lists(st.floats(-1.0, TWO_PI + 1.0), min_size=1, max_size=12),
    dt=dts,
    n_steps=step_counts,
    output_every=output_intervals,
)
def test_ds_and_cl_match_the_frozen_step_loop(kernel, positions, dt, n_steps, output_every):
    t_end = dt * n_steps
    state = ParticleState(np.array(positions))
    field = LabelField(LabelGrid(len(positions)), np.array(positions))
    assert state.positions.tobytes() == field.values.tobytes()
    frozen = _outcome(_frozen_positions, state.positions, kernel, dt, t_end, output_every)
    assert _outcome(ds_simulate, state, kernel, dt, t_end, output_every) == frozen
    assert _outcome(cl_simulate, field, kernel, dt, t_end, output_every) == frozen


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    alpha=st.floats(-np.pi, np.pi),
    beta=st.floats(0.0, 0.8),
    n_modes=st.integers(1, 10),
    kick=st.floats(-0.3, 0.3),
    dt=dts,
    n_steps=step_counts,
    output_every=output_intervals,
)
def test_spectral_matches_the_frozen_step_loop(
    alpha, beta, n_modes, kick, dt, n_steps, output_every
):
    # some runs start off the family, and the larger ones trip the tail check
    modes = FourierDensity.from_oa(OAPoint(alpha, beta), n_modes).modes + kick
    initial = FourierDensity(modes)
    t_end = dt * n_steps
    frozen = _outcome(_frozen_spectral, initial, dt, t_end, output_every)
    assert _outcome(mfl_simulate_spectral, initial, dt, t_end, output_every) == frozen


@pytest.mark.parametrize(
    "t_end, output_every, n_rows",
    [(0.253, None, 27), (0.47, 0.04, 13)],
    ids=["remainder", "stride-4"],
)
def test_spectral_remainder_and_stride_match_the_frozen_step_loop(t_end, output_every, n_rows):
    initial = FourierDensity.from_oa(OAPoint(0.5, 0.3), 8)
    run = mfl_simulate_spectral(initial, 0.01, t_end, output_every)
    frozen = _frozen_spectral(initial, 0.01, t_end, output_every)
    assert run.times.tobytes() == frozen.times.tobytes()
    assert run.states.tobytes() == frozen.states.tobytes()
    assert len(run) == n_rows


@pytest.mark.parametrize(
    "modes, t_end, error",
    [
        (FourierDensity.from_oa(OAPoint(0.0, 0.4), 4).modes, 6.0, TailBlowup),
        # overflows to NaN: integrate_fixed's NonFinite
        ([1e200, 0.1], 0.1, NonFinite),
        # the last mode overflows to inf: still NonFinite, not the tail's error
        ([1.7e308], 0.1, NonFinite),
    ],
    ids=["tail", "overflow", "overflow-last-mode"],
)
def test_spectral_errors_match_the_frozen_step_loop(modes, t_end, error):
    initial = FourierDensity(np.array(modes, dtype=complex))
    with pytest.raises(error) as frozen:
        _frozen_spectral(initial, 1e-2, t_end)
    with pytest.raises(error) as run:
        mfl_simulate_spectral(initial, 1e-2, t_end)
    assert str(run.value) == str(frozen.value)


@pytest.mark.parametrize("record_every", [1.5, 2.0, True, 0])
def test_integrate_fixed_refuses_a_non_integer_stride(record_every):
    with pytest.raises(DomainError, match="record_every"):
        integrate_fixed(np.negative, np.ones(2), 0.1, 1.0, record_every=record_every)


def test_integrate_fixed_reads_an_overflow_error_of_a_step_as_non_finite():
    def step(rhs, y, h, t):
        if t > 0.15:
            raise OverflowError("intermediate overflow in fsum")
        return y + h

    with pytest.raises(NonFinite, match=r"^non-finite state at step 2 \(t = 0.2\)$"):
        integrate_fixed(np.negative, np.ones(2), 0.1, 1.0, step=step)


# math.fsum raises OverflowError where a correctly rounded sum overflows:
# 3 particles are summed by math.fsum itself, 600 by the extraction path,
# which hands rows too close to overflow to math.fsum.
OVERFLOWING_SUMS = {
    "fsum": (3, TabulatedGradient(np.array([-np.pi, np.pi]), np.array([1e308, 1e308]), periodic=True)),
    "extraction": (600, TabulatedGradient(np.array([-7.0, 7.0]), np.array([1e308, 1e308]))),
}


@pytest.mark.parametrize("n, kernel", OVERFLOWING_SUMS.values(), ids=OVERFLOWING_SUMS.keys())
def test_ds_simulate_reads_an_overflowing_interaction_sum_as_non_finite(n, kernel):
    state = ParticleState(np.linspace(0.0, 6.0, n))
    with pytest.raises(NonFinite, match=r"^non-finite state at step 1 \(t = 0.01\)$"):
        ds_simulate(state, kernel, 0.01, 0.01)
