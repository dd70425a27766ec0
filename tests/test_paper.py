"""The paper's result: the unstable manifold of the continuum limit's flat
state is tangent to the Ott-Antonsen family at ``beta = 0``, the family is
invariant under the label dynamics and the spectral mean-field dynamics at
every drawn point, not only at the verify suites' fixed ones, and, in the
defining form of an unstable manifold, orbits on the family reach the flat
state backward in time while orbits off it do not."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kuralim import (
    FourierDensity,
    KuramotoSin,
    LabelField,
    LabelGrid,
    OAPoint,
    ThetaGrid,
    circle_distance,
    cl_simulate,
    integrate_fixed,
    linearized_operator,
    linearized_spectrum,
    manifold_field,
    mfl_simulate_spectral,
    moments,
    oa_cell_averages,
    oa_defect,
    oa_flow,
    spectral_rhs,
    wrap_pm_pi,
)

TWO_PI = 2.0 * np.pi


@pytest.mark.parametrize("h", [1e-3, 1e-4])
def test_flat_state_eigenvalue_is_the_oa_growth_rate(h):
    # d beta / dt = beta (1 - beta^2) / 2, so the rate as beta -> 0 is 1/2 + O(h)
    top = linearized_spectrum(linearized_operator(64))[:3]
    assert abs(top[0] - 0.5) < 1e-12 and abs(top[1] - 0.5) < 1e-12 and top[2] < 1e-12
    beta0 = 1e-8
    for alpha in (0.3, -2.0, 1.2):
        rate = (oa_flow(OAPoint(alpha, beta0), h).beta / beta0 - 1.0) / h
        assert abs(rate - top[0]) <= h, (alpha, rate)


@pytest.mark.parametrize("eps", [1e-3, 1e-5])
@pytest.mark.parametrize("alpha, q", [(0.3, 0.0), (-2.0, 1.0), (1.2, -2.5)])
def test_manifold_tangent_lies_in_the_unstable_plane(alpha, q, eps):
    # The unstable plane of the flat state is spanned by cos 2 pi xi and
    # sin 2 pi xi; the family's tangent at beta = 0 must lie in it up to O(eps).
    grid = LabelGrid(256)
    flat = manifold_field(grid, OAPoint(alpha, 0.0), q).values
    moved = manifold_field(grid, OAPoint(alpha, eps), q).values
    tangent = wrap_pm_pi(moved - flat) / eps
    xi = grid.midpoints
    plane = np.column_stack([np.cos(TWO_PI * xi), np.sin(TWO_PI * xi)])
    coeffs = np.linalg.lstsq(plane, tangent, rcond=None)[0]
    outside = tangent - plane @ coeffs
    assert abs(np.sqrt(np.mean(tangent**2)) - np.sqrt(2.0)) < 1e-2
    assert np.sqrt(np.mean(outside**2)) <= eps


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(
    alpha=st.floats(-np.pi, np.pi, exclude_max=True),
    beta0=st.floats(0.02, 0.6),
    q=st.floats(-3.0, 3.0),
)
def test_label_dynamics_keep_the_family_at_drawn_points(alpha, beta0, q):
    # 128 labels leave a label-quadrature error near 1e-8, well under the bound
    grid = LabelGrid(128)
    p0 = OAPoint(alpha, beta0)
    traj = cl_simulate(manifold_field(grid, p0, q), KuramotoSin(), 0.01, 2.0, output_every=0.5)
    assert len(traj) == 5
    for t, state in zip(traj.times, traj.states):
        reference = manifold_field(grid, oa_flow(p0, float(t)), q).values
        assert np.max(circle_distance(state, reference)) <= 1e-6, t


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(radius=st.floats(0.01, 0.3), phase=st.floats(-np.pi, np.pi))
def test_spectral_dynamics_keep_geometric_modes_at_drawn_points(radius, phase):
    a0 = radius * np.exp(1j * phase)
    traj = mfl_simulate_spectral(FourierDensity(a0 ** np.arange(1, 33)), 0.01, 2.0)
    for modes in traj.states:
        if abs(modes[0]) > 0.9:
            break
        assert oa_defect(modes[:8]) < 1e-9


@pytest.mark.parametrize("beta", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_family_states_have_no_oa_defect(beta):
    # c_k = c_1^k on the family, in the grid and label descriptions alike
    p = OAPoint(0.7, beta)
    assert oa_defect(moments(oa_cell_averages(p, ThetaGrid(512)), 8)) <= 1e-14
    assert oa_defect(moments(manifold_field(LabelGrid(1024), p, 0.4).values, 8)) <= 1e-14


# Backward in time.  The label velocity is linear in the coupling, so
# KuramotoSin(-1) runs the label dynamics backward, and -spectral_rhs the
# mode hierarchy.  On the family, |c_1| follows oa_flow(p, -t) down to the
# flat state and the higher moments vanish with it.  Off the family, c_2
# settles at a nonzero value: the higher harmonics are neutral at the flat
# state, so only the family's orbits converge to it.


def test_label_orbits_reach_the_flat_state_backward_only_on_the_family():
    grid, p = LabelGrid(256), OAPoint(0.3, 0.9)
    on = manifold_field(grid, p, 0.4)
    off = LabelField(grid, on.values + 0.05 * np.sin(2.0 * TWO_PI * grid.midpoints))
    back = [cl_simulate(f, KuramotoSin(-1.0), 0.05, 20.0, output_every=1.0) for f in (on, off)]
    for t, row in zip(back[0].times, back[0].states):
        assert abs(abs(moments(row, 1)[0]) - oa_flow(p, -float(t)).beta) <= 2e-8, t
    assert abs(moments(back[0].states[-1], 2)[1]) <= 5e-8
    assert min(abs(moments(row, 2)[1]) for row in back[1].states[10:]) >= 0.3


def test_mode_orbits_reach_the_flat_state_backward_only_on_the_family():
    p = OAPoint(0.3, 0.6)
    on = FourierDensity.from_oa(p, 64).modes
    off = on.copy()
    off[1] += 0.05
    back = [integrate_fixed(lambda y: -spectral_rhs(y), m, 0.01, 20.0, record_every=100) for m in (on, off)]
    for t, modes in zip(back[0].times, back[0].states):
        assert abs(abs(modes[0]) - oa_flow(p, -float(t)).beta) <= 5e-12, t
    assert abs(back[0].states[-1][1]) <= 5e-9
    assert min(abs(modes[1]) for modes in back[1].states[10:]) >= 2e-3
