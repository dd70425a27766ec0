"""Finite-system dynamics: kernels, the mean interaction, and RK4 runs."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kuralim import particles
from kuralim._rk4 import MAX_STEPS, record_stride, step_schedule
from kuralim import (
    DomainError,
    InteractionKernel,
    KernelDomain,
    KuramotoSin,
    OddTrig,
    ParticleState,
    TabulatedGradient,
    discrete_twisted_state,
    ds_simulate,
    wrap_angle,
)

TWO_PI = 2.0 * np.pi


class _SlowSin(InteractionKernel):
    """Sine kernel left on the generic O(N^2) reduction path."""

    def phi(self, x, y):
        return np.sin(np.asarray(y, dtype=float) - x)


def test_state_wraps_circle_positions_only():
    s = ParticleState(np.array([-1.0, 7.0]))
    assert np.all((s.positions >= 0.0) & (s.positions < TWO_PI))


def test_two_particle_rhs_hand_value():
    # positions (0, d): each particle averages over both, self term zero,
    # so the speeds are +-sin(d)/2
    s = ParticleState(np.array([0.0, np.pi / 2]))
    assert np.allclose(KuramotoSin().mean_interaction(s.positions), [0.5, -0.5], atol=1e-15)
    assert np.allclose(
        KuramotoSin(coupling=2.0).mean_interaction(s.positions), [1.0, -1.0], atol=1e-15
    )


def test_fast_path_matches_generic_reduction():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, TWO_PI, 40)
    fast = KuramotoSin().mean_interaction(x)
    slow = _SlowSin().mean_interaction(x)
    assert np.max(np.abs(fast - slow)) < 1e-14

    multi = OddTrig((0.5, 0.0, -0.2))

    class _SlowMulti(InteractionKernel):
        phi = multi.phi

    assert np.max(np.abs(multi.mean_interaction(x) - _SlowMulti().mean_interaction(x))) < 1e-14


def test_two_particle_gap_closed_form():
    # the gap g = x_1 - x_0 obeys g' = -sin(g), so
    # tan(g(t)/2) = tan(g(0)/2) * exp(-t)
    g0 = 1.0
    traj = ds_simulate(ParticleState(np.array([0.0, g0])), KuramotoSin(), 1e-3, 2.0)
    for t, pos in zip(traj.times, traj.states):
        expected = 2.0 * np.arctan(np.tan(g0 / 2.0) * np.exp(-t))
        gap = wrap_angle(pos[1] - pos[0])
        assert abs(gap - expected) < 1e-10


def test_rk4_is_fourth_order_on_the_gap():
    g0 = 2.0
    exact = 2.0 * np.arctan(np.tan(g0 / 2.0) * np.exp(-1.0))
    errs = []
    for dt in (0.1, 0.05):
        final = ds_simulate(ParticleState(np.array([0.0, g0])), KuramotoSin(), dt, 1.0).states[-1]
        errs.append(abs(wrap_angle(final[1] - final[0]) - exact))
    assert errs[1] < errs[0] / 12.0  # ~16x for a fourth-order method


def test_mean_position_conserved_on_line():
    # an odd kernel's pairwise terms cancel, so the velocities sum to zero
    # and the mean of the positions' real lift is conserved
    rng = np.random.default_rng(3)
    for kernel in (KuramotoSin(), OddTrig((1.0, 0.3, 0.1))):
        for _ in range(20):
            x = rng.uniform(0.0, TWO_PI, 25)
            assert abs(math.fsum(kernel.mean_interaction(x))) < 1e-12


def test_permutation_equivariance_is_bitwise():
    rng = np.random.default_rng(11)
    x = rng.uniform(0, TWO_PI, 33)
    perm = rng.permutation(33)
    a = ds_simulate(ParticleState(x), KuramotoSin(), 0.01, 0.5).states[-1]
    b = ds_simulate(ParticleState(x[perm]), KuramotoSin(), 0.01, 0.5).states[-1]
    # the mean reduction is order-independent, so relabeling commutes
    # with the dynamics exactly, not just to rounding
    assert np.array_equal(a[perm], b)


def test_rotation_equivariance():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, TWO_PI, 16)
    shift = 1.234
    a = ds_simulate(ParticleState(wrap_angle(x + shift)), KuramotoSin(), 0.01, 0.5).states[-1]
    b = ds_simulate(ParticleState(x), KuramotoSin(), 0.01, 0.5).states[-1]
    assert np.max(np.abs(wrap_angle(a - shift) - b)) < 1e-10


def test_simulate_rejects_bad_horizon():
    s = ParticleState(np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        ds_simulate(s, KuramotoSin(), 0.5, 0.1)
    with pytest.raises(DomainError):
        ds_simulate(s, KuramotoSin(), -0.1, 1.0)


@pytest.mark.parametrize("dt, t_end", [(1e-300, 1e300), (1e-300, 1.0), (5e-324, 1.0), (1e-9, 2.0)])
def test_step_schedule_refuses_more_than_max_steps(dt, t_end):
    # checked on the pair alone: none of these schedules is ever run
    with pytest.raises(DomainError, match="steps"):
        step_schedule(dt, t_end)


@pytest.mark.parametrize("dt", [np.inf, np.nan])
def test_step_schedule_refuses_bad_dt(dt):
    with pytest.raises(DomainError, match="dt must be positive and finite"):
        step_schedule(dt, 1.0)


def test_step_schedule_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr("kuralim._rk4.MAX_STEPS", 8)
    assert step_schedule(0.125, 1.0) == (8, 0.0)
    with pytest.raises(DomainError):
        step_schedule(0.125, 1.01)


STEP_SIZES = st.floats(1e-100, 1e100)


@settings(max_examples=300, deadline=None)
@given(STEP_SIZES, st.integers(1, MAX_STEPS - 1))
def test_step_schedule_adds_no_sliver_step_to_exact_multiples(dt, n):
    # checked on the pair alone: the schedule is never run
    n_full, remainder = step_schedule(dt, n * dt)
    assert n_full in (n - 1, n)
    assert remainder == 0.0 or remainder >= 1e-6 * dt


@settings(max_examples=300, deadline=None)
@given(STEP_SIZES, st.integers(0, 10**7 - 1), st.floats(1e-6, 0.98))
def test_step_schedule_keeps_genuine_remainders(dt, n, r):
    # the remainder tolerance scales with dt, so a short final time keeps
    # its last partial step whatever its absolute size
    n_full, remainder = step_schedule(dt, n * dt + r * dt)
    assert n_full == n
    assert abs(remainder - r * dt) < 1e-8 * dt


def test_record_stride_past_max_steps_keeps_first_and_last():
    assert record_stride(1e-310, 0.1) == MAX_STEPS + 1  # 0.1 / 1e-310 is inf
    assert record_stride(0.01, 1e300) == MAX_STEPS + 1
    with pytest.raises(DomainError):
        record_stride(0.01, np.nan)
    s = ParticleState(np.array([0.0, 1.0]))
    traj = ds_simulate(s, KuramotoSin(), 1e-310, 4e-310, output_every=0.1)
    assert len(traj.times) == 2


def test_output_every_controls_recording():
    s = ParticleState(np.array([0.0, 1.0]))
    traj = ds_simulate(s, KuramotoSin(), 0.01, 1.0, output_every=0.25)
    assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    dense = ds_simulate(s, KuramotoSin(), 0.01, 1.0)
    assert len(dense.times) == 101
    assert np.array_equal(dense.states[-1], traj.states[-1])


def test_odd_trig_validation_and_phi():
    with pytest.raises(DomainError):
        OddTrig(())
    k = OddTrig((0.0, 1.0))  # pure second harmonic
    assert np.isclose(k.phi(0.0, np.pi / 4), np.sin(np.pi / 2))
    assert np.isclose(k.phi(1.0, 1.0), 0.0)


def test_tabulated_gradient_matches_smooth_kernel():
    offsets = np.linspace(-np.pi, np.pi, 4001)
    tab = TabulatedGradient(offsets, -np.sin(offsets), periodic=True)
    rng = np.random.default_rng(2)
    x = rng.uniform(0, TWO_PI, 20)
    exact = KuramotoSin().mean_interaction(x)
    approx = tab.mean_interaction(x)
    assert np.max(np.abs(exact - approx)) < 1e-6  # linear interp error


def test_tabulated_gradient_window():
    tab = TabulatedGradient(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, -1.0]))
    assert np.isclose(tab.phi(0.25, 0.75), 0.5)  # table is -d at d = x - y = -0.5
    with pytest.raises(KernelDomain):
        tab.phi(0.0, 2.0)
    with pytest.raises(DomainError):
        TabulatedGradient(np.array([1.0, 0.0]), np.array([0.0, 0.0]))


def _frozen_mean_interaction(kernel, positions):
    """The generic mean interaction as it was: one fsum and one phi per row."""
    out = np.empty_like(positions)
    for i in range(len(positions)):
        values = kernel.phi(positions[i], positions)
        out[i] = math.fsum(values) / len(values)
    return out


@pytest.mark.parametrize("n", [1, 3, 64, 300, 700])
@pytest.mark.parametrize("periodic", [True, False])
def test_generic_mean_interaction_matches_row_loop_bitwise(n, periodic):
    # 300 and 700 values a row span the exact reduction's cutoff and
    # split into several row blocks.
    rng = np.random.default_rng(n)
    if periodic:
        offsets = np.linspace(-np.pi, np.pi, 65)
        tab = TabulatedGradient(offsets, -np.sin(offsets), periodic=True)
        x = rng.uniform(0.0, TWO_PI, n)
    else:
        offsets = np.linspace(-7.0, 7.0, 29)
        tab = TabulatedGradient(offsets, np.tanh(offsets) * rng.uniform(0.5, 1.5, 29))
        x = rng.normal(0.0, 1.0, n)
    got = tab.mean_interaction(x)
    assert np.array_equal(got.view(np.int64), _frozen_mean_interaction(tab, x).view(np.int64))


def _frozen_fast_mean_interaction(kernel, positions):
    """``KuramotoSin`` and ``OddTrig`` mean interactions as they were, with
    a new array for each ``r * conj(z)``."""
    if isinstance(kernel, KuramotoSin):
        z = np.exp(1j * positions)
        r = particles.exact_mean_complex(z)
        return kernel.coupling * (r * np.conj(z)).imag
    out = np.zeros_like(positions)
    for m, km in enumerate(kernel.coefficients, start=1):
        if km == 0.0:
            continue
        z = np.exp(1j * m * positions)
        r = particles.exact_mean_complex(z)
        out += km * (r * np.conj(z)).imag
    return out


@settings(max_examples=200, deadline=None)
@given(
    kernel=st.sampled_from(
        [KuramotoSin(1.7), KuramotoSin(-0.3), OddTrig((1.0, 0.0, 0.1)), OddTrig((0.0, -2.5))]
    ),
    n=st.sampled_from([1, 2, 64, 255, 256, 257, 1024]),
    shift=st.sampled_from([0.0, -TWO_PI, -40.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_mean_interactions_match_frozen_bodies_bitwise(kernel, n, shift, seed):
    # RK4 stages evaluate the right-hand side off the circle, at negative
    # positions too; 256 and 257 positions straddle the exact mean's cutoff.
    x = np.random.default_rng(seed).uniform(-1.0, TWO_PI + 1.0, n) + shift
    before = x.tobytes()
    got = kernel.mean_interaction(x)
    assert got.tobytes() == _frozen_fast_mean_interaction(kernel, x).tobytes()
    assert x.tobytes() == before


def test_generic_mean_interaction_raises_outside_window():
    tab = TabulatedGradient(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, -1.0]))
    x = np.zeros(600)
    x[450] = 1.5  # pairs with particle 450 lie outside [-1, 1]
    with pytest.raises(KernelDomain):
        tab.mean_interaction(x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernels_reject_non_finite_parameters(bad):
    with pytest.raises(DomainError):
        KuramotoSin(bad)
    with pytest.raises(DomainError):
        OddTrig((1.0, bad))
    with pytest.raises(DomainError):
        TabulatedGradient(np.array([-7.0, 0.0, 7.0]), np.array([bad, 0.0, -1.0]))
    with pytest.raises(DomainError):
        TabulatedGradient(np.array([-7.0, 0.0, bad]), np.array([1.0, 0.0, -1.0]))


@pytest.mark.parametrize("n", [4.5, 4.0, True])
def test_discrete_twisted_state_refuses_a_non_integer_count(n):
    with pytest.raises(DomainError, match="integer"):
        discrete_twisted_state(n, 1)


def test_discrete_twisted_state_accepts_a_numpy_integer_count():
    assert discrete_twisted_state(np.int64(5), 2).positions.tobytes() == (
        discrete_twisted_state(5, 2).positions.tobytes()
    )


def test_discrete_twisted_state_layout():
    s = discrete_twisted_state(4, 1)
    assert np.allclose(s.positions, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    shifted = discrete_twisted_state(4, 1, q=0.5)
    assert np.allclose(shifted.positions, wrap_angle(s.positions + 0.5))
    assert np.array_equal(discrete_twisted_state(8, 0).positions, np.zeros(8))


def test_twisted_states_are_equilibria():
    for m in (0, 1, 2):
        s = discrete_twisted_state(64, m)
        assert np.max(np.abs(KuramotoSin().mean_interaction(s.positions))) < 1e-15


_TABLE = np.linspace(-np.pi, np.pi, 65)


@pytest.mark.parametrize(
    "kernel",
    [TabulatedGradient(_TABLE, -np.sin(_TABLE), periodic=True), OddTrig((1.0, 0.3, 0.1)), KuramotoSin()],
    ids=["tabulated", "odd-trig", "sin"],
)
@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("cached", [True, False], ids=["cached", "per-node"])
def test_velocity_field_matches_circle_velocity_bitwise(monkeypatch, kernel, n, cached):
    # Both sides of the cache limit: the matrix has n * n entries.
    monkeypatch.setattr(particles, "CACHE_VALUES", n * n if cached else n * n - 1)
    calls = []
    phi = type(kernel).phi

    def counting_phi(self, x, y):
        calls.append(np.shape(x))
        return phi(self, x, y)

    monkeypatch.setattr(type(kernel), "phi", counting_phi)
    interfaces = np.arange(n) * (TWO_PI / n)
    centers = interfaces + 0.5 * (TWO_PI / n)
    generic = not isinstance(kernel, KuramotoSin)
    field = kernel.velocity_field(interfaces, centers)
    # one matrix on the cached side; KuramotoSin builds none
    assert calls == ([(n, 1)] if generic and cached else [])
    rng = np.random.default_rng(n)
    for _ in range(5):
        masses = rng.random(n) / n
        expected = kernel.circle_velocity(interfaces, centers, masses)
        calls.clear()
        assert np.array_equal(field(masses), expected)
        # the matrix is reused; the fallback evaluates phi once per node
        assert len(calls) == (n if generic and not cached else 0)


def _frozen_velocity_field(kernel, theta, nodes):
    """``velocity_field``'s cached branch as it stood before it batched the
    rows: one ``np.dot`` per row, frozen as the bitwise reference."""
    rows = kernel.phi(np.asarray(theta, dtype=float)[:, None], nodes[None, :])
    return lambda masses: np.array([np.dot(r, masses) for r in rows])


def _mass_variants(n):
    """Masses of n cells: fresh, with ±0.0, as strided and reversed views,
    and over scales from 1e-300 to 1e300."""
    rng = np.random.default_rng(n)
    base = rng.choice([-1.0, 1.0], 2 * n) * rng.random(2 * n) / n
    scaled = base * 10.0 ** rng.integers(-300, 301, 2 * n)
    scaled[::5] = 0.0
    scaled[1::7] = -0.0
    return {
        "fresh": base[:n].copy(),
        "signed-zeros": np.where(rng.random(n) < 0.5, 0.0, -0.0),
        "scales": scaled[:n],
        "strided": scaled[::2],
        "reversed": scaled[::-2],
        "list": list(scaled[n:]),
    }


@pytest.mark.parametrize(
    "kernel",
    [TabulatedGradient(_TABLE, -np.sin(_TABLE), periodic=True), OddTrig((1.0, 0.3, 0.1))],
    ids=["tabulated", "odd-trig"],
)
@pytest.mark.parametrize("n", [1, 64, 512, 513])
@pytest.mark.parametrize("anchor", [False, True], ids=["grid", "anchor"])
def test_velocity_field_matches_frozen_dot_loop_bytes(kernel, n, anchor):
    # The grid solver asks for n interfaces against n centers; the bridge's
    # anchor flux asks for the single point 0 against n centers.
    interfaces = np.arange(n) * (TWO_PI / n)
    centers = interfaces + 0.5 * (TWO_PI / n)
    theta = np.zeros(1) if anchor else interfaces
    field = kernel.velocity_field(theta, centers)
    frozen = _frozen_velocity_field(kernel, theta, centers)
    for name, masses in _mass_variants(n).items():
        assert field(masses).tobytes() == frozen(masses).tobytes(), name
