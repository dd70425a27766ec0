"""Finite-system dynamics: kernels, the mean interaction, and RK4 runs."""
import math

import numpy as np
import pytest

from kuralim import particles
from kuralim import (
    DomainError,
    InteractionKernel,
    KernelDomain,
    KuramotoSin,
    OddTrig,
    ParticleState,
    TabulatedGradient,
    discrete_twisted_state,
    ds_rhs,
    ds_simulate,
    to_empirical,
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
    line = ParticleState(np.array([-1.0, 7.0]), space="line")
    assert np.array_equal(line.positions, [-1.0, 7.0])
    assert s.n == 2
    with pytest.raises(DomainError):
        ParticleState(np.array([0.0, 1.0]), frequencies=np.array([1.0]))


def test_two_particle_rhs_hand_value():
    # positions (0, d): each particle averages over both, self term zero,
    # so the speeds are +-sin(d)/2
    s = ParticleState(np.array([0.0, np.pi / 2]))
    assert np.allclose(ds_rhs(s, KuramotoSin()), [0.5, -0.5], atol=1e-15)
    assert np.allclose(ds_rhs(s, KuramotoSin(coupling=2.0)), [1.0, -1.0], atol=1e-15)


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
        final = ds_simulate(ParticleState(np.array([0.0, g0])), KuramotoSin(), dt, 1.0).final
        errs.append(abs(wrap_angle(final[1] - final[0]) - exact))
    assert errs[1] < errs[0] / 12.0  # ~16x for a fourth-order method


def test_mean_position_conserved_on_line():
    rng = np.random.default_rng(3)
    s = ParticleState(rng.normal(0.0, 1.0, 25), space="line")
    traj = ds_simulate(s, KuramotoSin(), 0.01, 1.0)
    means = [np.mean(p) for p in traj.states]
    assert max(abs(m - means[0]) for m in means) < 1e-12


def test_permutation_equivariance_is_bitwise():
    rng = np.random.default_rng(11)
    x = rng.uniform(0, TWO_PI, 33)
    perm = rng.permutation(33)
    a = ds_simulate(ParticleState(x), KuramotoSin(), 0.01, 0.5).final
    b = ds_simulate(ParticleState(x[perm]), KuramotoSin(), 0.01, 0.5).final
    # the mean reduction is order-independent, so relabeling commutes
    # with the dynamics exactly, not just to rounding
    assert np.array_equal(a[perm], b)


def test_rotation_equivariance():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, TWO_PI, 16)
    shift = 1.234
    a = ds_simulate(ParticleState(wrap_angle(x + shift)), KuramotoSin(), 0.01, 0.5).final
    b = ds_simulate(ParticleState(x), KuramotoSin(), 0.01, 0.5).final
    assert np.max(np.abs(wrap_angle(a - shift) - b)) < 1e-10


def test_frequencies_advance_positions():
    freqs = np.array([0.5, -0.25])
    s = ParticleState(np.array([0.0, 1.0]), frequencies=freqs)
    final = ds_simulate(s, OddTrig((0.0,)), 0.01, 2.0).final
    assert np.allclose(final, wrap_angle(np.array([0.0, 1.0]) + 2.0 * freqs), atol=1e-12)


def test_simulate_rejects_bad_horizon():
    s = ParticleState(np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        ds_simulate(s, KuramotoSin(), 0.5, 0.1)
    with pytest.raises(DomainError):
        ds_simulate(s, KuramotoSin(), -0.1, 1.0)


def test_output_every_controls_recording():
    s = ParticleState(np.array([0.0, 1.0]))
    traj = ds_simulate(s, KuramotoSin(), 0.01, 1.0, output_every=0.25)
    assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    dense = ds_simulate(s, KuramotoSin(), 0.01, 1.0)
    assert len(dense.times) == 101
    assert np.array_equal(dense.final, traj.final)


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


def test_discrete_twisted_state_layout():
    s = discrete_twisted_state(4, 1)
    assert np.allclose(s.positions, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    shifted = discrete_twisted_state(4, 1, q=0.5)
    assert np.allclose(shifted.positions, wrap_angle(s.positions + 0.5))
    assert np.array_equal(discrete_twisted_state(8, 0).positions, np.zeros(8))


def test_twisted_states_are_equilibria():
    for m in (0, 1, 2):
        s = discrete_twisted_state(64, m)
        assert np.max(np.abs(ds_rhs(s, KuramotoSin()))) < 1e-15


def test_to_empirical_uniform_weights():
    m = to_empirical(discrete_twisted_state(5, 1))
    assert np.allclose(m.weights, 0.2)
    assert m.space == "circle"


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
