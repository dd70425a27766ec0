"""Closed forms for the Poisson-kernel (Ott-Antonsen) density family.

The family is parameterized by a phase ``alpha`` in ``[-pi, pi)`` and a
concentration ``beta`` in ``[0, 1)``:

    density      f(theta) = (1 - b^2) / (2*pi * (1 - 2 b cos(theta + a) + b^2))
    CDF          F(theta) = theta/(2*pi) + (T(theta + a) - T(a)) / pi,
                 where T(psi) = arctan(b sin(psi) / (1 - b cos(psi)))
    quantile     branch-tracked arctan expression, see :func:`oa_quantile`
    shift        C = -T(a) / pi, the label offset that anchors the
                 quantile family so the value at label 0 is angle 0

``beta == 0`` is the uniform density; ``beta -> 1`` concentrates at the
angle ``-alpha`` (equivalently ``2*pi - alpha``).  Under the attractive
sine interaction the family is invariant with

    d(beta)/dt = beta (1 - beta^2) / 2,     d(alpha)/dt = 0,

solved in closed form by :func:`oa_flow`.  All functions are vectorized
over their angle/label argument.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, ThetaGrid, CircularDensity, clip_labels, wrap_pm_pi
from .errors import DomainError

#: Concentrations at least this close to 1 are clamped at construction.
BETA_CAP = 1.0 - 1e-9
#: Distance from a tangent pole (``|cos u|``) below which the quantile
#: switches from the floor-term closed form to its pole-free rewriting.
POLE_TOL = 1e-12


@dataclass(frozen=True)
class OAPoint:
    """A member of the density family: phase ``alpha``, concentration ``beta``.

    ``alpha`` is kept as given inside ``[-pi, pi)`` and wrapped into it
    otherwise; ``beta`` must lie in ``[0, 1]`` and is clamped to at most
    ``BETA_CAP``.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        b = float(self.beta)
        if not 0.0 <= b <= 1.0:
            raise DomainError(f"beta must be in [0, 1], got {self.beta!r}")
        if not np.isfinite(float(self.alpha)):
            raise DomainError(f"alpha must be finite, got {self.alpha!r}")
        a = float(self.alpha)
        if not -np.pi <= a < np.pi:
            # only out-of-range values: the wrap moves in-range ones by an ulp
            a = float(wrap_pm_pi(a))
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", min(b, BETA_CAP))


def _poisson_denominator(p: OAPoint, psi):
    # 1 - 2b cos(psi) + b^2, written so that it does not cancel at the peak
    b = p.beta
    with np.errstate(invalid="ignore"):  # an infinite angle gives NaN, as a NaN angle does
        s = np.sin(0.5 * psi)
    return (1.0 - b) ** 2 + 4.0 * b * s ** 2


def oa_density(p: OAPoint, theta):
    """Family density at angle ``theta``; strictly positive for beta < 1."""
    th = np.asarray(theta, dtype=float)
    b = p.beta
    out = (1.0 - b) * (1.0 + b) / (TWO_PI * _poisson_denominator(p, th + p.alpha))
    return out if out.ndim else float(out)


def oa_cell_averages(p: OAPoint, grid: ThetaGrid) -> CircularDensity:
    """Exact cell averages of the family density over ``[theta_j, theta_{j+1})``.

    Computed from CDF increments, so the cumulative mass up to every grid
    node is exact.  This is the right initial datum for the finite-volume
    transport solver: its reconstructed CDF then starts with no sampling
    bias at the nodes.
    """
    masses = np.diff(oa_cdf(p, grid.edges))
    return CircularDensity(grid, masses / grid.spacing)


def _arctan_term(p: OAPoint, psi):
    # T(psi): denominator 1 - b cos(psi) >= 1 - b > 0, so no pole.
    return np.arctan(p.beta * np.sin(psi) / (1.0 - p.beta * np.cos(psi)))


def oa_cdf(p: OAPoint, theta):
    """Circular CDF anchored at angle zero; F(0) = 0 and F(2*pi) = 1.

    As in :class:`~kuralim.circle.CdfFn`, ``theta >= TWO_PI`` reads as 2*pi:
    the float lies 2.45e-16 short of it, and near ``BETA_CAP`` that is 1e-7 of mass.
    """
    th = np.asarray(theta, dtype=float)
    if np.any((th < -1e-9) | (th > TWO_PI + 1e-9)):
        raise DomainError("oa_cdf argument outside [0, 2*pi]")
    out = th / TWO_PI + (_arctan_term(p, th + p.alpha) - _arctan_term(p, p.alpha)) / np.pi
    out = np.where(th >= TWO_PI, 1.0, out)
    return out if out.ndim else float(out)


def oa_shift(p: OAPoint) -> float:
    """Anchor shift of the quantile family.

    ``oa_shift`` is the label offset C with ``C = -T(alpha)/pi`` in the
    notation of :func:`oa_cdf`; composing the quantile with
    ``xi + C`` keeps label 0 glued to angle 0 across the family.  Always
    lies in ``(-1/2, 1/2)``.
    """
    return float(-_arctan_term(p, p.alpha) / np.pi)


def oa_quantile(p: OAPoint, xi):
    """Inverse CDF on ``[0, 1]``, continuous and increasing onto ``[0, 2*pi]``.

    Closed form: with ``r = (1 - b)/(1 + b)`` and
    ``A = arctan(tan(a/2)/r)``, the expression

        2 * [arctan(r * tan(pi*xi + A)) + pi * floor((pi*xi + A + pi/2)/pi)] - a

    is the branch-tracked evaluation of the textbook two-branch formula:
    the floor term adds the ``2*pi*k`` correction that undoes the arctan
    jumps, so no case split at the branch label is needed.  Where
    ``|cos u| < POLE_TOL`` (``u = pi*xi + A``, a tangent pole) the same
    branch is evaluated in the pole-free form

        2 * [u + arctan((r - 1) sin(u) cos(u) / (cos(u)^2 + r sin(u)^2))] - a,

    whose denominator is at least ``min(1, r) > 0``.  Off the poles the
    floor-term form is kept: the two differ in the last bit, and stored
    outputs are compared byte for byte.
    """
    x = clip_labels(xi)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if p.beta == 0.0:
        out = TWO_PI * x
        return float(out[0]) if scalar else out

    b = p.beta
    r = (1.0 - b) / (1.0 + b)
    big_a = np.arctan(np.tan(0.5 * p.alpha) / r)
    u = np.pi * x + big_a
    k = np.floor((u + 0.5 * np.pi) / np.pi)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = 2.0 * (np.arctan(r * np.tan(u)) + np.pi * k) - p.alpha

    pole = np.abs(np.cos(u)) < POLE_TOL
    if np.any(pole):
        up = u[pole]
        c, s = np.cos(up), np.sin(up)
        swing = np.arctan((r - 1.0) * s * c / (c * c + r * s * s))
        theta[pole] = 2.0 * (up + swing) - p.alpha
    theta = np.clip(theta, 0.0, TWO_PI)
    return float(theta[0]) if scalar else theta


def oa_partials(p: OAPoint, theta):
    """Partial derivatives of the CDF and the anchor shift.

    Returns ``(dF_dalpha, dF_dbeta, dF_dtheta, dC_dalpha, dC_dbeta)``
    evaluated at ``theta`` (the shift partials do not depend on theta).
    ``dF_dtheta`` equals the density.
    """
    th = np.asarray(theta, dtype=float)
    b = p.beta
    psi = th + p.alpha
    d_psi = _poisson_denominator(p, psi)
    d_a = _poisson_denominator(p, p.alpha)

    with np.errstate(invalid="ignore"):  # an infinite angle gives NaN, as a NaN angle does
        cos_psi, sin_psi = np.cos(psi), np.sin(psi)

    t_prime_psi = (b * cos_psi - b * b) / d_psi
    t_prime_alpha = (b * np.cos(p.alpha) - b * b) / d_a
    df_dalpha = (t_prime_psi - t_prime_alpha) / np.pi
    df_dbeta = (sin_psi / d_psi - np.sin(p.alpha) / d_a) / np.pi
    df_dtheta = oa_density(p, th)
    dc_dalpha = -t_prime_alpha / np.pi
    dc_dbeta = -np.sin(p.alpha) / (np.pi * d_a)
    return df_dalpha, df_dbeta, df_dtheta, float(dc_dalpha), float(dc_dbeta)


def oa_flow(p: OAPoint, t: float) -> OAPoint:
    """Closed-form flow of the reduced dynamics after time ``t``.

    ``beta(t) = beta0 / hypot(beta0, sqrt(1 - beta0^2) exp(-t/2))`` for either
    sign of t (an infinite factor gives 0); alpha is constant.  ``beta(t)``
    stays inside ``[0, 1)`` for all finite t (construction clamping absorbs
    the rounding at the synchronized end).
    """
    if not np.isfinite(t):
        raise DomainError(f"flow time must be finite, got {t!r}")
    b0 = p.beta
    if b0 == 0.0:  # past t = 1490 the factor underflows, and 0 / 0 would follow
        return OAPoint(p.alpha, 0.0)
    with np.errstate(over="ignore"):
        bt = b0 / np.hypot(b0, np.sqrt((1.0 - b0) * (1.0 + b0)) * np.exp(-0.5 * t))
    return OAPoint(p.alpha, float(bt))


def poisson_circular_moment(p: OAPoint) -> complex:
    """Exact value of ``int_0^{2pi} e^{iu} / (1 - 2 b cos(a + u) + b^2) du``.

    Equals ``2*pi*b*e^{-i a} / (1 - b^2)``: the first circular moment of
    the unnormalized Poisson kernel.
    """
    b = p.beta
    return TWO_PI * b * np.exp(-1j * p.alpha) / ((1.0 - b) * (1.0 + b))

