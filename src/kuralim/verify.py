"""End-to-end verification experiments with machine-checkable reports.

Each ``verify_*`` function runs one numerical experiment at
acceptance-grade defaults, reduces it to a single worst-case residual,
and returns a :class:`VerificationReport` whose ``passed`` flag is
exactly ``max_residual <= tolerance``.  Every function also accepts one
deliberately perturbed configuration (a scaled right-hand side, a wrong
harmonic, an off-family start, ...) that must drive the report to
``passed = False``; these negative controls keep the residuals honest.

Each suite is registered once, with its negative control, by
``_suite``: the decorator fills :data:`SUITES` and
:data:`NEGATIVE_CONTROLS`, records the call's arguments as the report
params and times the call, so a suite body only returns its worst
residual and its extras.

Reports are deterministic: fixed grids, fixed summation order, no
randomness.  Only the measured runtime varies between runs.
"""
from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

from ._reduce import exact_mean_complex
from .bridge import mfl_to_cl_circle
from .circle import (
    TWO_PI,
    LabelGrid,
    QuantileFn,
    ThetaGrid,
    cdf_from_density,
    circle_distance,
    is_size,
    label_distance,
    wrap_angle,
    wrap_label,
)
from .continuum import LabelField, cl_simulate, manifold_field
from .errors import DomainError
from .meanfield import (
    FourierDensity,
    linearized_operator,
    mfl_simulate_grid,
    mfl_simulate_spectral,
    oa_defect,
)
from .oa import OAPoint, oa_cdf, oa_cell_averages, oa_flow, oa_quantile, oa_shift
from .particles import KuramotoSin

# Parameter grids shared by the closed-form identity checks.
ALPHA_GRID = tuple(float(a) for a in range(-3, 4))
BETA_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification experiment."""

    test: str
    params: dict
    max_residual: float
    tolerance: float
    passed: bool
    runtime_s: float
    extras: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.passed != (self.max_residual <= self.tolerance):
            raise DomainError("passed flag must equal max_residual <= tolerance")

    def to_json_dict(self) -> dict:
        return {
            "test": self.test,
            "params": self.params,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "runtime_s": self.runtime_s,
        }


# Suite registry: acceptance-grade default runs and the perturbed
# configurations that must fail, in registration order.
SUITES = {}
NEGATIVE_CONTROLS = {}


def _python(value):
    """``value`` with numpy scalars, also inside a tuple, as Python numbers."""
    if isinstance(value, tuple):
        return tuple(_python(v) for v in value)
    return value.item() if isinstance(value, np.generic) else value


def _param(value):
    """JSON form of one suite argument."""
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    return list(value) if isinstance(value, tuple) else value


def _suite(name, test, negative_control):
    """Register a suite body under ``name`` with its negative control.

    The body returns ``(worst, extras)``.  The registered function binds
    the call's arguments, defaults included, turns numpy scalars among them
    into Python numbers, records every one except ``tolerance`` as the
    report params, calls the body with them and times the whole call.
    """

    def register(body):
        signature = inspect.signature(body)

        @functools.wraps(body)
        def run(*args, **kwargs):
            started = time.perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            bound.arguments = {k: _python(v) for k, v in bound.arguments.items()}
            params = {k: _param(v) for k, v in bound.arguments.items()}
            tolerance = params.pop("tolerance")
            worst, extras = body(*bound.args, **bound.kwargs)
            return VerificationReport(
                test=test,
                params=params,
                max_residual=float(worst),
                tolerance=float(tolerance),
                passed=bool(worst <= tolerance),
                runtime_s=time.perf_counter() - started,
                extras=extras,
            )

        SUITES[name] = run
        NEGATIVE_CONTROLS[name] = negative_control
        return run

    return register


@_suite("interaction", "mean-interaction", {"rhs_scale": 1.01})
def verify_mean_interaction(
    alphas=ALPHA_GRID,
    betas=BETA_GRID,
    n_labels: int = 1024,
    n_eval: int = 257,
    rhs_scale: float = 1.0,
    tolerance: float = 1e-8,
) -> VerificationReport:
    """Label-mean of the sine interaction against its closed form.

    For every family member the midpoint label quadrature of
    ``sin(x(z) - theta)`` over the quantile configuration ``x`` must
    equal ``-beta sin(alpha + theta)`` at evaluation angles
    ``theta = x(xi)``.  ``rhs_scale`` scales the closed-form side;
    values other than 1.0 are the sensitivity control.
    """
    if len(alphas) == 0 or len(betas) == 0 or not is_size(n_eval, 1):
        raise DomainError("need an alpha, a beta and an integer n_eval >= 1 evaluation points")
    mids = LabelGrid(n_labels).midpoints
    xis = np.linspace(0.0, 1.0, n_eval)
    worst = 0.0
    for alpha in alphas:
        for beta in betas:
            p = OAPoint(alpha, beta)
            config = oa_quantile(p, mids)
            moment = exact_mean_complex(np.exp(1j * config))
            theta = oa_quantile(p, xis)
            quadrature = (moment * np.exp(-1j * theta)).imag
            with np.errstate(invalid="ignore"):  # inf * sin 0 is NaN, which fails the report
                closed = -rhs_scale * p.beta * np.sin(p.alpha + theta)
            worst = np.maximum(worst, np.max(np.abs(quadrature - closed)))
    return worst, {}


@_suite("invariance", "manifold-invariance", {"flow_scale": 1.1})
def verify_manifold_invariance(
    alpha: float = 0.3,
    beta0: float = 0.1,
    q: float = 0.0,
    t_end: float = 4.0,
    n_labels: int = 1024,
    dt: float = 1e-3,
    output_every: float = 0.1,
    flow_scale: float = 1.0,
    tolerance: float = 1e-5,
) -> VerificationReport:
    """Simulated label dynamics against the closed-form family flow.

    Integrates the label dynamics from a family configuration and
    compares, at every output time, against the configuration of the
    flowed parameters.  ``flow_scale`` rescales the flow time of the
    reference; values other than 1.0 are the sensitivity control.
    """
    grid = LabelGrid(n_labels)
    p0 = OAPoint(alpha, beta0)
    traj = cl_simulate(manifold_field(grid, p0, q), KuramotoSin(), dt, t_end, output_every)
    worst = 0.0
    for t, state in zip(traj.times, traj.states):
        reference = manifold_field(grid, oa_flow(p0, flow_scale * float(t)), q)
        worst = np.maximum(worst, np.max(circle_distance(state, reference.values)))
    return worst, {}


@_suite("spectrum", "spectrum", {"harmonic": 2})
def verify_spectrum(
    n_cells: int = 64, harmonic: int = 1, tolerance: float = 1e-8
) -> VerificationReport:
    """Spectrum of the flat-state linearization: two 1/2s, rest zero.

    The residual combines the eigenvalue gaps with the alignment defect
    of the leading two-dimensional eigenspace against the fundamental
    cosine/sine profiles, so building the operator from a higher
    harmonic (the sensitivity control) fails even though its eigenvalues
    coincide.
    """
    operator = linearized_operator(n_cells, harmonic)
    values, vectors = np.linalg.eigh(operator)
    eig_residual = max(
        float(np.max(np.abs(values[-2:] - 0.5))),
        float(np.max(np.abs(values[:-2]))),
    )

    theta = ThetaGrid(n_cells).nodes
    basis = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    basis /= np.linalg.norm(basis, axis=0)
    leading = vectors[:, -2:]
    # Largest principal-angle sine between claimed and computed subspaces.
    residue = basis - leading @ (leading.T @ basis)
    subspace_defect = float(np.linalg.norm(residue, ord=2))

    worst = max(eig_residual, subspace_defect)
    return worst, {
        "leading_pair": [float(values[-2]), float(values[-1])],
        "eigenvalue_residual": eig_residual,
        "subspace_defect": subspace_defect,
    }


@_suite("closure", "oa-closure", {"off_manifold": 0.05})
def verify_oa_closure(
    a0: complex = 0.1 * np.exp(0.2j),
    t_end: float = 4.0,
    n_modes: int = 64,
    dt: float = 1e-3,
    output_every: float = 0.1,
    max_check: int = 8,
    off_manifold: float = 0.0,
    tolerance: float = 1e-6,
) -> VerificationReport:
    """Geometric mode structure along a spectral run from family data.

    A run started at ``c_n = a0^n`` must keep ``c_n = c_1^n`` for the low
    modes while synchrony stays moderate, and ``|c_1|`` must track the
    closed-form flow of ``|a0|``.  ``off_manifold`` replaces ``c_2`` to
    start off the family; nonzero values are the sensitivity control.
    """
    if not abs(a0) <= 0.3:  # a NaN a0 is refused too
        raise DomainError("closure check expects |a0| <= 0.3")
    if not (is_size(max_check, 1) and is_size(n_modes, max_check)):
        raise DomainError(
            f"max_check must be an integer in [1, n_modes = {n_modes!r}], got {max_check!r}"
        )
    if off_manifold and n_modes < 2:
        raise DomainError(f"an off-manifold start needs n_modes >= 2, got {n_modes!r}")
    modes0 = np.asarray(a0, dtype=complex) ** np.arange(1, n_modes + 1)
    if off_manifold:
        modes0[1] = off_manifold
    traj = mfl_simulate_spectral(FourierDensity(modes0), dt, t_end, output_every)

    closure_defect = 0.0
    flow_deviation = 0.0
    for t, modes in zip(traj.times, traj.states):
        c1 = modes[0]
        if abs(c1) > 0.9:
            break
        closure_defect = np.maximum(closure_defect, oa_defect(modes[:max_check]))
        beta_t = oa_flow(OAPoint(0.0, abs(a0)), float(t)).beta
        flow_deviation = np.maximum(flow_deviation, abs(abs(c1) - beta_t))

    worst = np.maximum(closure_defect, flow_deviation)
    return worst, {"closure_defect": closure_defect, "flow_deviation": flow_deviation}


@_suite("bridge", "bridge", {"drift_scale": 0.0})
def verify_bridge(
    alpha: float = 0.4,
    beta0: float = 0.2,
    t_end: float = 2.0,
    n_cells: int = 512,
    n_labels: int = 512,
    dt: float = 0.01,
    drift_scale: float = 1.0,
    tolerance: float = 5e-3,
) -> VerificationReport:
    """Transformed density trajectory against direct label dynamics.

    Runs the grid transport solver from family cell averages, transforms
    every recorded density into a label field, and compares sup-norm
    against the label dynamics started from the identical initial field.
    The first-order transport solver dominates the budget.
    ``drift_scale`` rescales the anchor drift inside the transform;
    values other than 1.0 are the sensitivity control.
    """
    kernel = KuramotoSin()
    p0 = OAPoint(alpha, beta0)
    initial = oa_cell_averages(p0, ThetaGrid(n_cells))
    density_traj = mfl_simulate_grid(initial, kernel, dt, t_end, output_every=dt)

    label_grid = LabelGrid(n_labels)
    transformed = mfl_to_cl_circle(density_traj, kernel, label_grid, drift_scale)

    quantile0 = QuantileFn(cdf_from_density(initial))
    field0 = LabelField(label_grid, quantile0(label_grid.midpoints))
    label_traj = cl_simulate(field0, kernel, dt, t_end, output_every=dt)

    worst = 0.0
    for k in range(len(label_traj.times)):
        gap = np.max(circle_distance(transformed.fields[k], label_traj.states[k]))
        worst = np.maximum(worst, gap)
    return worst, {}


@_suite("sync-limit", "sync-limit", {"beta_probes": (0.9,)})
def verify_sync_limit(
    alpha: float = 1.0,
    q_pair=(0.0, 2.0),
    beta_probes=(0.99, 0.999, 0.9999),
    n_labels: int = 1024,
    exclusion: float = 0.05,
    tolerance: float = 0.1,
) -> VerificationReport:
    """Family configurations collapse onto a constant as beta -> 1.

    Away from the branch label, the configuration at high beta must sit
    within ``tolerance`` of the constant angle ``2 pi - alpha``; the
    distance must decrease along ``beta_probes``, and the exactly
    extracted limit must not depend on ``q``.  Monotonicity or
    q-dependence failures add unit penalties to the residual.  A single
    low probe (e.g. ``(0.9,)``) is the sensitivity control.
    """
    if not beta_probes:
        raise DomainError("need at least one beta probe")
    if len(q_pair) < 2:
        raise DomainError("need at least two q values to compare the limits")
    probes = tuple(sorted(float(b) for b in beta_probes))
    headline_beta = 0.999 if 0.999 in probes else probes[-1]
    p_head = OAPoint(alpha, headline_beta)  # checks alpha before the wrap below uses it
    grid = LabelGrid(n_labels)
    q0 = float(q_pair[0])
    target = wrap_angle(TWO_PI - alpha)

    sups = []
    for beta in probes:
        p = OAPoint(alpha, beta)
        config = manifold_field(grid, p, q0)
        # Branch label: where the quantile sweeps the far side of the
        # circle, located at the CDF of the antipode of the peak.
        branch_w = oa_cdf(p, wrap_angle(np.pi - p.alpha))
        branch_xi = wrap_label(branch_w - oa_shift(p) - q0 / TWO_PI)
        keep = label_distance(grid.midpoints, branch_xi) >= exclusion
        if not keep.any():
            raise DomainError("the exclusion window keeps no label")
        sups.append(float(np.max(circle_distance(config.values[keep], target))))

    residual = sups[probes.index(headline_beta)]
    monotone = all(b > a for a, b in zip(sups[1:], sups[:-1]))
    if not monotone:
        residual += 1.0

    # Exact limit through the field formula: the label mapped to the
    # branch antipode evaluates to 2 pi - alpha for every beta and q.
    # A non-finite later q gives a NaN limit, which fails below.
    branch_w = oa_cdf(p_head, wrap_angle(np.pi - p_head.alpha))
    limits = []
    for q in q_pair:
        xi_q = wrap_label(branch_w + 0.5 - oa_shift(p_head) - float(q) / TWO_PI)
        w = wrap_label(xi_q + oa_shift(p_head) + float(q) / TWO_PI)
        limits.append(wrap_angle(float(oa_quantile(p_head, w))))
    q_deviation = float(np.max(circle_distance(np.array(limits[:-1]), np.array(limits[1:]))))
    if not q_deviation <= 1e-10:  # a NaN deviation fails too
        residual += 1.0

    return residual, {
        "sups": {f"{b:g}": s for b, s in zip(probes, sups)},
        "q_deviation": q_deviation,
        "limits": limits,
    }


def run_suite(name: str, negative_control: bool = False) -> VerificationReport:
    """Run one registered suite, optionally its perturbed configuration."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    kwargs = NEGATIVE_CONTROLS[name] if negative_control else {}
    return SUITES[name](**kwargs)
