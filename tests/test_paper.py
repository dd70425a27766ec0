"""The paper's result: the unstable manifold of the continuum limit's flat
state is tangent to the Ott-Antonsen family at ``beta = 0``."""
import numpy as np
import pytest

from kuralim import (
    LabelGrid,
    OAPoint,
    linearized_operator,
    linearized_spectrum,
    manifold_field,
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
