"""kuralim: limiting descriptions of interacting phase oscillators.

Three views of the same Kuramoto-type dynamics and the transforms
between them:

- finite ensembles of coupled oscillators (:mod:`kuralim.particles`),
- label-indexed continuum fields on [0, 1] (:mod:`kuralim.continuum`),
- mean-field densities on the circle, spectral and finite-volume
  (:mod:`kuralim.meanfield`),

plus the closed-form invariant family of wrapped-Cauchy densities and
its reduced flow (:mod:`kuralim.oa`), the quantile bridge between
densities and fields (:mod:`kuralim.bridge`), and self-certifying
verification suites (:mod:`kuralim.verify`).
"""

__version__ = "0.1.0"

from ._rk4 import Trajectory, integrate_fixed, rk4_step
from .bridge import (
    BridgeResult,
    accumulate_drift,
    anchor_flux_series,
    cl_to_measure,
    measure_to_field,
    mfl_to_cl_circle,
    pushforward_check,
)
from .circle import (
    TWO_PI,
    CdfFn,
    CircularDensity,
    EmpiricalMeasure,
    LabelGrid,
    QuantileFn,
    ThetaGrid,
    cdf_from_density,
    circle_distance,
    empirical_quantile,
    label_distance,
    quantile_from_cdf,
    w1_circle,
    w1_line,
    wrap_angle,
    wrap_label,
    wrap_pm_pi,
)
from .continuum import LabelField, cl_rhs, cl_simulate, manifold_field, twisted_field
from .errors import (
    CflViolation,
    DomainError,
    DriftQuadrature,
    EmptyMeasure,
    KernelDomain,
    KuralimError,
    NonFinite,
    NonNormalized,
    NotStrictlyMonotone,
    ParseError,
    TailBlowup,
    ValidationError,
)
from .meanfield import (
    DensityTrajectory,
    FourierDensity,
    linearized_operator,
    linearized_spectrum,
    mfl_simulate_grid,
    mfl_simulate_spectral,
    order_parameter,
    spectral_rhs,
)
from .oa import (
    OAPoint,
    oa_cdf,
    oa_cell_averages,
    oa_density,
    oa_flow,
    oa_mean_sine,
    oa_partials,
    oa_quantile,
    oa_shift,
    oa_vector_field,
    poisson_circular_moment,
)
from .particles import (
    InteractionKernel,
    KuramotoSin,
    OddTrig,
    ParticleState,
    TabulatedGradient,
    discrete_twisted_state,
    ds_rhs,
    ds_simulate,
    to_empirical,
)
from .verify import (
    NEGATIVE_CONTROLS,
    SUITES,
    VerificationReport,
    run_suite,
    verify_bridge,
    verify_manifold_invariance,
    verify_mean_interaction,
    verify_oa_closure,
    verify_spectrum,
    verify_sync_limit,
)
