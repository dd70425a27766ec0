"""The fixed-step driver ``integrate_fixed`` and the solvers that run on it.

The spectral solver records the schedule's rows and stops with the errors
it names, an overflow inside a step is ``NonFinite``, and the step schedule
refuses what it cannot run.  Each solver's bytes are compared with the
parent commit's by the ``library/`` entries of ``checks/equivalence.py``,
and ds against cl by ``tests/test_continuum.py``.
"""
import numpy as np
import pytest

from kuralim import (
    DomainError,
    FourierDensity,
    KuramotoSin,
    LabelField,
    LabelGrid,
    NonFinite,
    OAPoint,
    ParticleState,
    TabulatedGradient,
    TailBlowup,
    ThetaGrid,
    cl_simulate,
    ds_simulate,
    mfl_simulate_grid,
    mfl_simulate_spectral,
    oa_cell_averages,
)
from kuralim._rk4 import integrate_fixed, record_stride, step_schedule
from kuralim.verify import verify_bridge, verify_manifold_invariance, verify_oa_closure


@pytest.mark.parametrize(
    "t_end, output_every, n_rows",
    [(0.253, None, 27), (0.47, 0.04, 13)],
    ids=["remainder", "stride-4"],
)
def test_spectral_remainder_and_stride_match_the_frozen_step_loop(t_end, output_every, n_rows):
    run = mfl_simulate_spectral(FourierDensity.from_oa(OAPoint(0.5, 0.3), 8), 0.01, t_end, output_every)
    assert len(run) == n_rows


@pytest.mark.parametrize(
    "modes, t_end, error, message",
    [
        (FourierDensity.from_oa(OAPoint(0.0, 0.4), 4).modes, 6.0, TailBlowup,
         "last mode reached |c_N| = 0.5 at t = 1.95; increase n_modes or shorten the run"),
        # overflows to NaN: integrate_fixed's NonFinite
        ([1e200, 0.1], 0.1, NonFinite, "non-finite state at step 1 (t = 0.01)"),
        # the last mode overflows to inf: still NonFinite, not the tail's error
        ([1.7e308], 0.1, NonFinite, "non-finite state at step 1 (t = 0.01)"),
    ],
    ids=["tail", "overflow", "overflow-last-mode"],
)
def test_spectral_errors_match_the_frozen_step_loop(modes, t_end, error, message):
    with pytest.raises(error) as run:
        mfl_simulate_spectral(FourierDensity(np.array(modes, dtype=complex)), 1e-2, t_end)
    assert str(run.value) == message


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


@pytest.mark.parametrize(
    "dt, output_every", [(0.0, 0.1), (-1.0, 0.1), (np.inf, np.inf), (np.nan, 0.1)]
)
def test_record_stride_states_the_step_schedule_rule(dt, output_every):
    with pytest.raises(DomainError, match=r"^dt must be positive and finite, got"):
        record_stride(dt, output_every)


INF_STEP_RUNS = {
    "ds": lambda: ds_simulate(ParticleState(np.zeros(3)), KuramotoSin(), np.inf, 1.0, np.inf),
    "cl": lambda: cl_simulate(
        LabelField(LabelGrid(4), np.zeros(4)), KuramotoSin(), np.inf, 1.0, np.inf
    ),
    "mfl-spectral": lambda: mfl_simulate_spectral(
        FourierDensity(np.array([0.1, 0.01])), np.inf, 1.0, np.inf
    ),
    "mfl-grid": lambda: mfl_simulate_grid(
        oa_cell_averages(OAPoint(0.4, 0.3), ThetaGrid(8)), KuramotoSin(), np.inf, 1.0, np.inf
    ),
    "verify-bridge": lambda: verify_bridge(dt=np.inf, n_cells=8, n_labels=8),
    "verify-closure": lambda: verify_oa_closure(dt=np.inf, output_every=np.inf, n_modes=8),
    "verify-invariance": lambda: verify_manifold_invariance(
        dt=np.inf, output_every=np.inf, n_labels=8
    ),
}


@pytest.mark.parametrize("run", INF_STEP_RUNS.values(), ids=INF_STEP_RUNS.keys())
def test_infinite_step_and_output_interval_are_refused(run):
    # record_stride's own dt > 0 let these reach int(round(nan)), a ValueError
    with pytest.raises(DomainError, match=r"^dt must be positive and finite, got inf$"):
        run()


def test_numpy_float_arguments_past_the_float_range_give_no_warning():
    # numpy scalars warned where the quotient overflowed; Python floats give inf
    assert record_stride(np.float64(1e-3), np.float64(1e308)) == record_stride(1e-3, 1e308)
    with pytest.raises(DomainError, match="steps"):
        step_schedule(np.float64(1e-3), np.float64(1e308))
    dt, t_end, output_every = np.float64(0.01), np.float64(0.02), np.float64(1e308)
    traj = ds_simulate(ParticleState(np.zeros(2)), KuramotoSin(), dt, t_end, output_every)
    assert list(traj.times) == [0.0, 0.02]
