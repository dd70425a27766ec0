"""Wrapped-Cauchy family: density, CDF, quantile, partials, flow, moments.

Oracles here are deliberately independent of the closed forms under test:
adaptive quadrature for integrals, central differences for derivatives,
and a generic RK4 run for the radial flow.
"""
import decimal
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from kuralim import (
    DomainError,
    OAPoint,
    ThetaGrid,
    oa_cdf,
    oa_cell_averages,
    oa_density,
    oa_flow,
    oa_partials,
    oa_quantile,
    oa_shift,
    poisson_circular_moment,
    wrap_pm_pi,
)
from kuralim._rk4 import integrate_fixed
from kuralim.oa import BETA_CAP, POLE_TOL

TWO_PI = 2.0 * np.pi


def test_point_wraps_alpha_and_caps_beta():
    p = OAPoint(7.0, 0.3)
    assert -np.pi <= p.alpha < np.pi
    assert np.isclose(p.alpha, wrap_pm_pi(7.0))
    assert OAPoint(0.0, 1.0).beta < 1.0  # clamped just below the circle
    with pytest.raises(DomainError):
        OAPoint(0.0, -0.1)
    with pytest.raises(DomainError):
        OAPoint(0.0, 1.1)
    with pytest.raises(DomainError):
        OAPoint(np.nan, 0.5)


@pytest.mark.parametrize(
    "alpha, expected",
    [(0.3, 0.3), (-0.7, -0.7), (-np.pi, -np.pi), (np.pi, -np.pi), (4.0, float(wrap_pm_pi(4.0)))],
)
def test_point_keeps_in_range_alpha_and_wraps_the_rest(alpha, expected):
    # wrapping 0.3 through mod(alpha + pi, 2 pi) - pi would give 0.2999999999999998
    a = OAPoint(alpha, 0.1).alpha
    assert a == expected and -np.pi <= a < np.pi


def test_point_wraps_the_ulp_below_minus_pi_to_minus_pi():
    # np.mod(alpha + pi, 2 pi) rounds -4.4e-16 up to 2 pi, so alpha once read as pi
    assert OAPoint(-3.1415926535897936, 0.3).alpha == -np.pi


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.2, 0.5), (-2.0, 0.9)])
def test_density_normalized(alpha, beta):
    p = OAPoint(alpha, beta)
    total, err = quad(lambda u: oa_density(p, u), 0.0, TWO_PI, limit=200)
    assert abs(total - 1.0) < 1e-10
    assert np.all(oa_density(p, np.linspace(0, TWO_PI, 100)) > 0.0)


def test_cdf_matches_integrated_density():
    p = OAPoint(-0.8, 0.6)
    for theta in [0.3, 1.7, np.pi, 5.0, TWO_PI]:
        num, _ = quad(lambda u: oa_density(p, u), 0.0, theta, limit=200)
        assert abs(oa_cdf(p, theta) - num) < 1e-10


def test_cdf_endpoints_and_domain():
    p = OAPoint(0.5, 0.4)
    assert oa_cdf(p, 0.0) == 0.0
    assert oa_cdf(p, TWO_PI) == 1.0
    with pytest.raises(DomainError):
        oa_cdf(p, -0.5)
    with pytest.raises(DomainError):
        oa_cdf(p, 7.0)


@pytest.mark.parametrize("alpha", [0.0, 0.3, -3.0])
@pytest.mark.parametrize(
    "beta", [0.99, 1.0 - 1e-6, 0.9999999999, 1.0], ids=["0.99", "1-1e-6", "1-1e-10", "one"]
)
def test_cdf_reads_two_pi_as_the_end_of_the_circle(alpha, beta):
    # the float 2 pi lies 2.45e-16 short of 2 pi, where the density is up to
    # 3.2e8: F there was 0.99999992203656118 at alpha 0, beta 1
    p = OAPoint(alpha, beta)
    assert oa_cdf(p, TWO_PI) == 1.0
    assert oa_cdf(p, np.array([0.0, TWO_PI, TWO_PI + 1e-10])).tolist() == [0.0, 1.0, 1.0]


@pytest.mark.parametrize("beta", [1.0 - 2e-9, 0.9999999999, 1.0], ids=["1-2e-9", "1-1e-10", "one"])
def test_cell_averages_of_a_near_synchronized_point_have_unit_mass(beta):
    # the cell masses once summed to 0.99999992 and CircularDensity refused them
    f = oa_cell_averages(OAPoint(0.0, beta), ThetaGrid(64))
    assert abs(np.sum(f.values) * f.grid.spacing - 1.0) < 1e-12


def test_cdf_derivative_is_density():
    p = OAPoint(1.0, 0.7)
    h = 1e-6
    theta = np.linspace(0.5, 5.5, 11)
    fd = (oa_cdf(p, theta + h) - oa_cdf(p, theta - h)) / (2 * h)
    assert np.max(np.abs(fd - oa_density(p, theta))) < 1e-8


def test_shift_range_and_anchor():
    for alpha, beta in [(0.0, 0.5), (2.5, 0.9), (-1.0, 0.3)]:
        c = oa_shift(OAPoint(alpha, beta))
        assert -0.5 < c < 0.5
    # the quantile is anchored: label 0 maps to angle 0, label 1 to 2*pi
    p = OAPoint(1.3, 0.8)
    assert abs(oa_quantile(p, 0.0)) < 1e-12
    assert abs(oa_quantile(p, 1.0) - TWO_PI) < 1e-12


def test_quantile_round_trip_dense():
    p = OAPoint(0.9, 0.6)
    xi = np.linspace(0.0, 1.0, 257)
    theta = oa_quantile(p, xi)
    assert np.all((theta >= 0.0) & (theta <= TWO_PI))
    assert np.all(np.diff(theta) > 0.0)
    assert np.max(np.abs(oa_cdf(p, theta) - xi)) < 1e-12


def test_quantile_inverts_cdf():
    p = OAPoint(-2.2, 0.45)
    theta = np.linspace(0.0, TWO_PI, 101)
    assert np.max(np.abs(oa_quantile(p, oa_cdf(p, theta)) - theta)) < 1e-10


def test_quantile_beta_zero_is_uniform():
    p = OAPoint(1.7, 0.0)
    xi = np.linspace(0, 1, 17)
    assert np.allclose(oa_quantile(p, xi), TWO_PI * xi, atol=1e-15)


def test_quantile_near_tangent_pole():
    # the closed form switches branch where cos(pi*xi + A) vanishes;
    # values straddling the switch must still invert the CDF
    p = OAPoint(0.8, 0.7)
    r = (1 - p.beta) / (1 + p.beta)
    a = np.arctan(np.tan(p.alpha / 2.0) / r)
    xi_star = (np.pi / 2.0 - a) / np.pi % 1.0
    probes = xi_star + np.array([-1e-7, -1e-13, 0.0, 1e-13, 1e-7])
    probes = probes[(probes >= 0.0) & (probes <= 1.0)]
    theta = oa_quantile(p, probes)
    assert np.max(np.abs(oa_cdf(p, theta) - probes)) < 1e-10
    assert np.all(np.diff(theta) >= 0.0)

    # probes exactly on the pole take the pole-free branch, up to extreme
    # concentration
    for beta in (0.1, 0.5, 0.9, 0.99, 0.999, 0.9999):
        for alpha in (-3.0, -1.2, 0.0, 0.8, 2.5):
            p = OAPoint(alpha, beta)
            r = (1 - p.beta) / (1 + p.beta)
            a = np.arctan(np.tan(p.alpha / 2.0) / r)
            xi_star = (np.pi / 2.0 - a) / np.pi % 1.0
            on_pole = np.array([np.nextafter(xi_star, 0.0), xi_star, np.nextafter(xi_star, 1.0)])
            assert np.all(np.abs(np.cos(np.pi * on_pole + a)) < POLE_TOL)
            probes = np.concatenate(([xi_star - 1e-7, xi_star - 1e-13], on_pole,
                                     [xi_star + 1e-13, xi_star + 1e-7]))
            probes = probes[(probes >= 0.0) & (probes <= 1.0)]
            theta = oa_quantile(p, probes)
            assert np.max(np.abs(oa_cdf(p, theta) - probes)) < 1e-14, (alpha, beta)
            assert np.all(np.diff(theta) >= 0.0), (alpha, beta)


def test_quantile_domain_error():
    with pytest.raises(DomainError):
        oa_quantile(OAPoint(0.0, 0.5), 1.2)


def test_partials_against_central_differences():
    h = 1e-6
    for alpha, beta, theta in [(0.4, 0.3, 1.0), (-1.5, 0.7, 4.2), (2.0, 0.1, 0.2)]:
        dfa, dfb, dft, dca, dcb = oa_partials(OAPoint(alpha, beta), theta)
        fd_a = (oa_cdf(OAPoint(alpha + h, beta), theta) - oa_cdf(OAPoint(alpha - h, beta), theta)) / (2 * h)
        fd_b = (oa_cdf(OAPoint(alpha, beta + h), theta) - oa_cdf(OAPoint(alpha, beta - h), theta)) / (2 * h)
        fd_t = (oa_cdf(OAPoint(alpha, beta), theta + h) - oa_cdf(OAPoint(alpha, beta), theta - h)) / (2 * h)
        fd_ca = (oa_shift(OAPoint(alpha + h, beta)) - oa_shift(OAPoint(alpha - h, beta))) / (2 * h)
        fd_cb = (oa_shift(OAPoint(alpha, beta + h)) - oa_shift(OAPoint(alpha, beta - h))) / (2 * h)
        for closed, fd in [(dfa, fd_a), (dfb, fd_b), (dft, fd_t), (dca, fd_ca), (dcb, fd_cb)]:
            assert abs(closed - fd) < 1e-6 * max(abs(fd), 1e-3)
    assert dft == oa_density(OAPoint(2.0, 0.1), 0.2)


def test_flow_matches_rk4():
    p0 = OAPoint(1.1, 0.25)
    rhs = lambda y: y * (1.0 - y**2) / 2.0
    traj = integrate_fixed(rhs, np.array([p0.beta]), 1e-3, 2.0)
    p2 = oa_flow(p0, 2.0)
    assert p2.alpha == p0.alpha
    assert abs(p2.beta - traj.states[-1][0]) < 1e-12


def test_flow_group_property_and_inverse():
    p = OAPoint(-0.4, 0.35)
    there = oa_flow(oa_flow(p, 1.3), 0.9)
    direct = oa_flow(p, 2.2)
    assert abs(there.beta - direct.beta) < 1e-12
    back = oa_flow(direct, -2.2)
    assert abs(back.beta - p.beta) < 1e-12


def test_flow_long_time_saturates_without_overflow():
    p = oa_flow(OAPoint(0.0, 0.1), 1000.0)
    assert np.isfinite(p.beta) and p.beta <= 1.0
    q = oa_flow(OAPoint(0.0, 0.1), -1000.0)
    assert np.isfinite(q.beta) and q.beta >= 0.0
    assert oa_flow(OAPoint(0.2, 0.0), 5.0).beta == 0.0  # uniform is a fixed point
    with pytest.raises(DomainError):
        oa_flow(p, np.inf)


FLOW_BETAS = (1e-320, 1e-200, 1e-12, 0.1, 0.5, 1.0 - 1e-6, BETA_CAP)
FLOW_TIMES = (-1000.0, -50.0, -1.0, 0.0, 1.0, 50.0, 1000.0)


@pytest.mark.parametrize("t", FLOW_TIMES)
@pytest.mark.parametrize("b0", FLOW_BETAS)
def test_flow_matches_a_50_digit_reference(b0, t):
    # beta0 / sqrt(beta0^2 + (1 - beta0^2) exp(-t)) in 50-digit decimals,
    # rounded once and clamped as OAPoint clamps
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        b = Decimal(b0)
        exact = b / (b * b + (1 - b * b) * Decimal(-t).exp()).sqrt()
    want = min(float(exact), BETA_CAP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = oa_flow(OAPoint(0.3, b0), t).beta
    assert abs(got - want) <= 4 * np.spacing(want)


def test_poisson_moment_against_quadrature():
    for alpha, beta in [(0.3, 0.5), (-2.0, 0.9), (1.0, 0.0)]:
        u = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        kernel = np.exp(1j * u) / (1.0 - 2.0 * beta * np.cos(alpha + u) + beta**2)
        numeric = np.mean(kernel) * TWO_PI
        assert abs(poisson_circular_moment(OAPoint(alpha, beta)) - numeric) < 1e-12


@pytest.mark.parametrize(
    "beta", [1.0 - 10.0**-k for k in range(2, 10)] + [BETA_CAP],
    ids=[f"1-1e-{k}" for k in range(2, 10)] + ["BETA_CAP"],
)
def test_poisson_moment_is_accurate_up_to_beta_cap(beta):
    # 1 - b * b cancelled near b = 1: 5.5e-10 relative at 1 - 1e-8
    b = Fraction(beta)
    exact = 2 * Fraction(np.pi) * b / (1 - b * b)
    got = poisson_circular_moment(OAPoint(0.0, beta))
    assert got.imag == 0.0
    assert abs(Fraction(got.real) - exact) <= Fraction(1, 10**15) * exact


def test_cell_averages_have_exact_mass():
    p = OAPoint(0.6, 0.85)
    f = oa_cell_averages(p, ThetaGrid(64))
    assert abs(np.sum(f.values) * f.grid.spacing - 1.0) < 1e-12
    # averages track midpoint samples to second order in the spacing
    mild = OAPoint(0.6, 0.5)
    errs = []
    for n in (64, 128):
        g = oa_cell_averages(mild, ThetaGrid(n))
        mids = g.grid.nodes + g.grid.spacing / 2.0
        errs.append(np.max(np.abs(g.values - oa_density(mild, mids))))
    assert errs[1] < 0.3 * errs[0]


@pytest.mark.parametrize(
    "beta", [1.0 - 10.0**-k for k in range(2, 10)] + [BETA_CAP, 1.0],
    ids=[f"1-1e-{k}" for k in range(2, 10)] + ["BETA_CAP", "one"],
)
def test_density_at_the_peak_is_accurate_up_to_beta_cap(beta):
    # f(-alpha) = (1 + b) / (2 pi (1 - b)); the old form cancelled there
    # (10 % off at 1 - 1e-8, a division by zero at BETA_CAP)
    p = OAPoint(0.0, beta)
    b = Fraction(p.beta)
    exact = (1 + b) / (2 * Fraction(np.pi) * (1 - b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        peak = oa_density(p, 0.0)
        partials = oa_partials(p, np.array([0.0, np.pi, TWO_PI]))
    assert abs(Fraction(peak) - exact) <= Fraction(1, 10**12) * exact
    assert all(np.all(np.isfinite(x)) for x in partials)
    assert partials[2][0] == peak
