"""Finite-system dynamics: kernels, the mean interaction, and RK4 runs."""
import math
import warnings

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


@pytest.mark.parametrize("t_end", [0.0, -0.0])
@pytest.mark.parametrize("dt", [5e-324, 1e-300, 1.0, 1e300])
def test_step_schedule_of_a_zero_final_time_is_empty(dt, t_end):
    n_full, remainder = step_schedule(dt, t_end)
    assert (n_full, remainder) == (0, 0.0) and math.copysign(1.0, remainder) == 1.0


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


_TABLE = np.linspace(-np.pi, np.pi, 65)


@pytest.mark.parametrize(
    "kernel",
    [TabulatedGradient(_TABLE, -np.sin(_TABLE), periodic=True), OddTrig((1.0, 0.3, 0.1))],
    ids=["tabulated", "odd-trig"],
)
@pytest.mark.parametrize("n", [1, 127, 128, 129, 513, 1024])
def test_generic_mean_interaction_bytes_do_not_depend_on_the_block_size(monkeypatch, kernel, n):
    # 2^14 and 2^16 values a block, and one row a block (BLOCK_VALUES = 1)
    x = np.random.default_rng(n).uniform(-1.0, TWO_PI + 1.0, n)
    expected = _frozen_mean_interaction(kernel, x).tobytes()
    for block in (1 << 14, 1 << 16, 1):
        monkeypatch.setattr(particles, "BLOCK_VALUES", block)
        assert InteractionKernel.mean_interaction(kernel, x).tobytes() == expected, block


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
    # The result is written over its own array, never over the positions.
    x = np.random.default_rng(seed).uniform(-1.0, TWO_PI + 1.0, n) + shift
    before = x.tobytes()
    got = kernel.mean_interaction(x)
    assert got.dtype == float and got.shape == (n,) and x.tobytes() == before


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


@pytest.mark.parametrize("periodic", [False, True])
def test_tabulated_window_past_the_float_range(periodic):
    # np.diff of the offsets overflowed with a RuntimeWarning, and np.interp
    # divided by the infinite gap: phi read 0 where about 0.5 is right
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="window width in the float range"):
            TabulatedGradient(np.array([-1e308, 1e308]), np.array([0.0, 1.0]), periodic=periodic)


@pytest.mark.parametrize("n", [4.5, 4.0, True])
def test_discrete_twisted_state_refuses_a_non_integer_count(n):
    with pytest.raises(DomainError, match="integer"):
        discrete_twisted_state(n, 1)


def test_discrete_twisted_state_accepts_a_numpy_integer_count():
    assert discrete_twisted_state(np.int64(5), 2).positions.tobytes() == (
        discrete_twisted_state(5, 2).positions.tobytes()
    )


# Windings the CLI refuses: 1.5 gives [0, 2.356, 4.712, 0.785], not a
# twisted state; True was read as 1; 10**400 overflowed the float product.
WRONG_WINDINGS = {"half": 1.5, "integral-float": 1.0, "bool": True, "huge": 10**400, "-huge": -(10**400)}


@pytest.mark.parametrize("m", WRONG_WINDINGS.values(), ids=WRONG_WINDINGS.keys())
def test_discrete_twisted_state_refuses_a_non_integer_winding(m):
    with pytest.raises(DomainError, match="float range"):
        discrete_twisted_state(4, m)


@pytest.mark.parametrize("m", [0, -3, np.int64(2), 10**300], ids=["zero", "negative", "numpy", "10**300"])
def test_discrete_twisted_state_accepts_integer_windings(m):
    positions = discrete_twisted_state(4, m).positions
    assert positions.tobytes() == wrap_angle(TWO_PI * np.arange(4) * float(m) / 4).tobytes()


@pytest.mark.parametrize("m", [10**308, -(10**308)], ids=["1e308", "-1e308"])
def test_discrete_twisted_state_refuses_windings_whose_angles_overflow(m):
    # m is in the float range, 2*pi*j*m/n is not: numpy warned on the way
    # to a state of NaN positions
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="puts angles past the float range"):
            discrete_twisted_state(4, m)


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


def _frozen_circle_velocity(kernel, theta, nodes, masses):
    """The transport velocity as ``circle_velocity`` gave it before
    ``velocity_field`` was the only velocity method: the order parameter for
    ``KuramotoSin``, otherwise one ``phi`` and one ``np.dot`` per angle."""
    if isinstance(kernel, KuramotoSin):
        z = complex(np.dot(masses, np.cos(nodes)), np.dot(masses, np.sin(nodes)))
        return kernel.coupling * (z * np.exp(-1j * theta)).imag
    return np.array([np.dot(kernel.phi(t, nodes), masses) for t in theta])


def _count_phi_calls(monkeypatch, kernel) -> list:
    """The shape of ``x`` at each later call of ``kernel.phi``."""
    calls, phi = [], type(kernel).phi
    monkeypatch.setattr(type(kernel), "phi", lambda self, x, y: calls.append(np.shape(x)) or phi(self, x, y))
    return calls


def _check_velocity_field(monkeypatch, kernel, theta, centers, masses, caches=(True, False)):
    """``kernel.velocity_field(theta, centers)`` against the frozen dot loop,
    byte for byte, at each of ``masses``, on the ``caches`` sides of the
    cache limit (the matrix has ``theta.size * centers.size`` entries)."""
    expected = {name: _frozen_circle_velocity(kernel, theta, centers, m) for name, m in masses.items()}
    calls = _count_phi_calls(monkeypatch, kernel)
    rows = max(1, particles.BLOCK_VALUES // centers.size)
    generic = not isinstance(kernel, KuramotoSin)
    blocks = [(min(rows, theta.size - start), 1) for start in range(0, theta.size, rows)] if generic else []
    for cached in caches:
        monkeypatch.setattr(particles, "CACHE_VALUES", theta.size * centers.size - (not cached))
        calls.clear()
        field = kernel.velocity_field(theta, centers)
        # the blocks once, kept as one matrix, on the cached side; KuramotoSin builds none
        assert calls == (blocks if cached else [])
        for name, m in masses.items():
            calls.clear()
            assert field(m).tobytes() == expected[name].tobytes(), (cached, name)
            # the matrix is reused; above the limit the blocks come again
            assert calls == ([] if cached else blocks)


VELOCITY_KERNELS = pytest.mark.parametrize(
    "kernel",
    [TabulatedGradient(_TABLE, -np.sin(_TABLE), periodic=True), OddTrig((1.0, 0.3, 0.1)), KuramotoSin()],
    ids=["tabulated", "odd-trig", "sin"],
)


@VELOCITY_KERNELS
@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("cached", [True, False], ids=["cached", "per-node"])
def test_velocity_field_matches_circle_velocity_bitwise(monkeypatch, kernel, n, cached):
    # The grid solver's n interfaces against n centers, at random masses.
    rng = np.random.default_rng(n)
    interfaces = np.arange(n) * (TWO_PI / n)
    masses = {k: rng.random(n) / n for k in range(5)}
    _check_velocity_field(monkeypatch, kernel, interfaces, interfaces + 0.5 * (TWO_PI / n), masses, (cached,))


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


@VELOCITY_KERNELS
@pytest.mark.parametrize("n", [1, 64, 512, 513])
@pytest.mark.parametrize("anchor", [False, True], ids=["grid", "anchor"])
def test_velocity_field_matches_frozen_dot_loop_bytes(monkeypatch, kernel, n, anchor):
    # The grid solver asks for n interfaces against n centers; the bridge's
    # anchor flux asks for the single point 0 against n centers.
    interfaces = np.arange(n) * (TWO_PI / n)
    theta = np.zeros(1) if anchor else interfaces
    _check_velocity_field(monkeypatch, kernel, theta, interfaces + 0.5 * (TWO_PI / n), _mass_variants(n))


FAST_KERNELS = [KuramotoSin(1.0), KuramotoSin(1.7), KuramotoSin(-0.3), OddTrig((1.0, -0.5)),
                OddTrig((0.3, 0.0, 2.0))]


@pytest.mark.parametrize("kernel", FAST_KERNELS, ids=repr)
def test_fast_kernel_forms_match_the_generic_reductions_of_their_own_phi(kernel):
    # KuramotoSin and OddTrig replace the generic reductions with
    # order-parameter forms; both must still compute the kernel's own phi.
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 16, 255, 256, 257, 512, 513):
        x = rng.uniform(0.0, TWO_PI, n)
        generic = InteractionKernel.mean_interaction(kernel, x)
        assert np.max(np.abs(kernel.mean_interaction(x) - generic)) < 1e-14, n
        interfaces = np.arange(n) * (TWO_PI / n)
        masses = rng.random(n) / n
        generic = InteractionKernel.velocity_field(kernel, interfaces, x)(masses)
        assert np.max(np.abs(kernel.velocity_field(interfaces, x)(masses) - generic)) < 1e-14, n
