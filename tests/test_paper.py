"""The paper's result: the unstable manifold of the continuum limit's flat
state is tangent to the Ott-Antonsen family at ``beta = 0``, and the family
is invariant under the label dynamics and the spectral mean-field dynamics
at every drawn point, not only at the verify suites' fixed ones."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kuralim import (
    FourierDensity,
    KuramotoSin,
    LabelGrid,
    OAPoint,
    circle_distance,
    cl_simulate,
    linearized_operator,
    linearized_spectrum,
    manifold_field,
    mfl_simulate_spectral,
    oa_flow,
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
    powers = np.arange(1, 9)
    for modes in traj.states:
        c1 = modes[0]
        if abs(c1) > 0.9:
            break
        assert np.max(np.abs(modes[:8] - c1**powers)) < 1e-9
