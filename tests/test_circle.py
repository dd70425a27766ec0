"""Circle geometry, grids, and CDF/quantile inversion."""
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kuralim import (
    BridgeResult,
    CdfFn,
    CircularDensity,
    DomainError,
    EmpiricalMeasure,
    DensityTrajectory,
    EmptyMeasure,
    FourierDensity,
    LabelField,
    LabelGrid,
    NonNormalized,
    NotStrictlyMonotone,
    OAPoint,
    ParticleState,
    QuantileFn,
    TabulatedGradient,
    ThetaGrid,
    cdf_from_density,
    circle_distance,
    empirical_quantile,
    label_distance,
    oa_cdf,
    oa_cell_averages,
    wrap_angle,
    wrap_label,
    wrap_pm_pi,
)
from kuralim._rk4 import Trajectory
from kuralim.circle import FLAT_TOL

TWO_PI = 2.0 * np.pi


def test_wrap_angle_range_and_period():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(TWO_PI) == 0.0
    assert np.isclose(wrap_angle(-0.1), TWO_PI - 0.1)
    x = np.array([-7.0, 0.0, 3.0, 9.0])
    w = wrap_angle(x)
    assert np.all((w >= 0.0) & (w < TWO_PI))
    assert np.allclose(np.sin(w), np.sin(x))


# Angles where np.mod rewrites its argument, and their neighbours.
SPECIAL_ANGLES = (
    0.0, -0.0, TWO_PI, np.nextafter(TWO_PI, 0.0), np.nextafter(TWO_PI, 7.0), -1e-17, 1e-17,
    5e-324, -5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf,
)


def _mod_reading_the_period_as_zero(x, period):
    """np.mod(x, period), with a result equal to period read as 0."""
    r = np.mod(x, period)
    if np.ndim(r) == 0:
        return type(r)(0.0) if r == period else r
    r[r == period] = 0.0
    return r


# name: (wrap, reference, period, start of the range, the multiples' offset)
WRAPS = {
    "wrap_angle": (wrap_angle, lambda x: _mod_reading_the_period_as_zero(x, TWO_PI), TWO_PI, 0.0, 0.0),
    "wrap_pm_pi": (
        wrap_pm_pi,
        lambda x: _mod_reading_the_period_as_zero(np.asarray(x, dtype=float) + np.pi, TWO_PI) - np.pi,
        TWO_PI, -np.pi, -np.pi,
    ),
    "wrap_label": (wrap_label, lambda x: _mod_reading_the_period_as_zero(x, 1.0), 1.0, 0.0, 0.0),
}


def _near_multiple(k, ulps, period, offset):
    """The float ``ulps`` steps above (below, if negative) ``k * period + offset``."""
    x = k * period + offset
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.copysign(np.inf, ulps)))
    return x


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(SPECIAL_ANGLES),
            st.floats(-20.0, 20.0),
            st.floats(),
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        ),
        max_size=40,
    )
)
@example([(0, -1)])  # an ulp below zero, or below -pi: np.mod rounds up to the period
def test_wrap_angle_matches_np_mod_bitwise(draws):
    # Each wrap gives np.mod's bits, except that a result equal to the
    # period end reads as the start; a tuple (k, ulps) is a value ulps
    # steps from k periods past the range's boundary.
    for name, (wrap, reference, period, start, offset) in WRAPS.items():
        values = [_near_multiple(*d, period, offset) if isinstance(d, tuple) else d for d in draws]
        x = np.array(values, dtype=float)
        before = x.tobytes()
        with np.errstate(invalid="ignore"):  # the reference warns at +-inf; the wraps must not
            want = reference(x)
        assert np.all(np.isnan(want) | ((want >= start) & (want < start + period))), name
        for arg in (x, values):
            got = wrap(arg)
            assert got.dtype == float and not np.shares_memory(got, x), name
            assert got.tobytes() == want.tobytes(), name
        for v in values:
            for arg in (v, np.float64(v), np.array(v)):
                got = wrap(arg)
                with np.errstate(invalid="ignore"):
                    want = reference(arg)
                assert type(got) is type(want) and np.float64(got).tobytes() == want.tobytes(), name
        assert x.tobytes() == before, name


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
@example([-1e-17, 1e300, -0.0, TWO_PI, 1.0])
def test_wraps_give_np_mod_twice_at_finite_inputs(values):
    # the in-range shortcut of wrap_angle and the shift of wrap_pm_pi keep
    # the bits of np.mod applied twice
    x = np.array(values, dtype=float)
    wraps = ((wrap_angle, 0.0, TWO_PI), (wrap_pm_pi, np.pi, TWO_PI), (wrap_label, 0.0, 1.0))
    for wrap, shift, period in wraps:
        want = np.mod(np.mod(x + shift, period), period) - shift
        assert wrap(x).tobytes() == want.tobytes(), wrap.__name__


def test_wrap_pm_pi_range():
    w = wrap_pm_pi(np.array([-4.0, 0.0, 3.5, 6.0]))
    assert np.all((w >= -np.pi) & (w < np.pi))
    assert np.isclose(wrap_pm_pi(3.5), 3.5 - TWO_PI)


def test_wrap_label():
    assert wrap_label(1.0) == 0.0
    assert np.isclose(wrap_label(-0.25), 0.75)


def test_circle_distance_antipodal_is_pi():
    assert np.isclose(circle_distance(0.0, np.pi), np.pi)
    assert np.isclose(circle_distance(0.1, TWO_PI - 0.1), 0.2)
    d = circle_distance(np.linspace(0, 6, 50), 2.0)
    assert np.all(d <= np.pi + 1e-15)


def test_label_distance_bound():
    assert np.isclose(label_distance(0.1, 0.9), 0.2)
    assert label_distance(0.0, 0.5) == 0.5


@pytest.mark.parametrize("a, b", [(np.inf, 0.0), (0.0, -np.inf), (np.inf, np.inf), (np.nan, 1.0)])
@pytest.mark.parametrize("distance", [circle_distance, label_distance])
def test_distances_are_nan_at_non_finite_arguments(distance, a, b):
    # pytest turns a RuntimeWarning into a failure
    assert np.isnan(distance(a, b)) and np.isnan(distance(np.array([a, 0.5]), b)[0])


def test_theta_grid():
    g = ThetaGrid(8)
    assert np.allclose(g.nodes, np.arange(8) * TWO_PI / 8)
    assert np.isclose(g.spacing, TWO_PI / 8)
    with pytest.raises(DomainError):
        ThetaGrid(1)


def test_label_grid_midpoints():
    g = LabelGrid(4)
    assert np.allclose(g.midpoints, [0.125, 0.375, 0.625, 0.875])
    with pytest.raises(DomainError):
        LabelGrid(0)


@pytest.mark.parametrize("grid", [ThetaGrid, LabelGrid])
@pytest.mark.parametrize(
    "size", [4.5, 4.0, True, np.float64(4.0)], ids=["4.5", "float-4", "bool", "numpy-float-4"]
)
def test_grids_refuse_non_integer_sizes(grid, size):
    with pytest.raises(DomainError, match="integer"):
        grid(size)


@pytest.mark.parametrize("size", [np.int32(4), np.int64(4), np.uint8(4)])
def test_grids_accept_numpy_integer_sizes(size):
    assert ThetaGrid(size).nodes.tobytes() == ThetaGrid(4).nodes.tobytes()
    assert LabelGrid(size).midpoints.tobytes() == LabelGrid(4).midpoints.tobytes()


def _caller_arrays(name):
    """(value type, constructor arguments) built from fresh writeable arrays."""
    g = ThetaGrid(4)
    flat = np.full(4, 1.0 / TWO_PI)
    return {
        "Trajectory": (Trajectory, dict(times=np.array([0.0, 0.1]), states=np.ones((2, 3)))),
        "DensityTrajectory": (
            DensityTrajectory,
            dict(times=np.array([0.0, 0.1]), values=np.tile(flat, (2, 1)), grid=g,
                 drift=np.array([0.0, 0.01])),
        ),
        "FourierDensity": (FourierDensity, dict(modes=np.array([0.1 + 0.2j, 0.01j]))),
        "ParticleState": (ParticleState, dict(positions=np.array([0.5, 1.5, 2.5]))),
        "TabulatedGradient": (
            TabulatedGradient, dict(offsets=np.array([-1.0, 0.0, 1.0]), values=np.array([1.0, 0.0, -1.0]))
        ),
        "LabelField": (LabelField, dict(grid=LabelGrid(3), values=np.array([0.5, 1.5, 2.5]))),
        "CircularDensity": (CircularDensity, dict(grid=g, values=flat)),
        "EmpiricalMeasure": (
            EmpiricalMeasure, dict(positions=np.array([0.5, 1.5]), weights=np.array([0.25, 0.75]))
        ),
        "CdfFn": (CdfFn, dict(grid=g, values=np.array([0.0, 0.25, 0.5, 0.75, 1.0]))),
        "BridgeResult": (
            BridgeResult,
            dict(times=np.array([0.0, 0.1]), fields=np.ones((2, 3)), drift=np.array([0.0, 0.01]),
                 label_grid=LabelGrid(3)),
        ),
    }[name]


@pytest.mark.parametrize(
    "name",
    [
        "Trajectory", "DensityTrajectory", "FourierDensity", "ParticleState",
        "TabulatedGradient", "LabelField", "CircularDensity", "EmpiricalMeasure", "CdfFn",
        "BridgeResult",
    ],
)
def test_value_types_keep_private_readonly_copies(name):
    cls, kwargs = _caller_arrays(name)
    obj = cls(**kwargs)
    given = {k: v for k, v in kwargs.items() if isinstance(v, np.ndarray)}
    stored = {k: getattr(obj, k).copy() for k in given}
    for key, array in given.items():
        assert array.flags.writeable, f"{name} froze the caller's {key}"
        array += 0.125
        assert getattr(obj, key).tobytes() == stored[key].tobytes(), f"{name}.{key} follows the caller"
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, f"{name}.{field.name} is writeable"


FLAT_ROWS = np.full((2, 2), 1.0 / TWO_PI)  # two rows of the uniform 2-cell density
MALFORMED = {
    "measure-empty": (lambda: EmpiricalMeasure(np.array([]), np.array([])), EmptyMeasure),
    "measure-shapes": (lambda: EmpiricalMeasure(np.array([0.5, 1.5]), np.array([1.0])), DomainError),
    "measure-2d": (lambda: EmpiricalMeasure(np.full((1, 2), 0.5), np.full((1, 2), 0.5)), DomainError),
    "measure-inf": (lambda: EmpiricalMeasure(np.array([np.inf, 1.0]), np.full(2, 0.5)), DomainError),
    "measure-nan-line": (lambda: EmpiricalMeasure(np.array([np.nan, 1.0]), np.full(2, 0.5), "line"), DomainError),
    "cdf-length": (lambda: CdfFn(ThetaGrid(4), np.array([0.0, 0.5, 1.0])), DomainError),
    "particles-empty": (lambda: ParticleState(np.array([])), DomainError),
    "particles-2d": (lambda: ParticleState(np.zeros((2, 2))), DomainError),
    "particles-nan": (lambda: ParticleState(np.array([np.nan, 0.0])), DomainError),
    "particles-inf": (lambda: ParticleState(np.array([0.0, -np.inf])), DomainError),
    "field-nan": (lambda: LabelField(LabelGrid(2), np.array([np.nan, 0.0])), DomainError),
    "field-inf": (lambda: LabelField(LabelGrid(2), np.array([0.0, np.inf])), DomainError),
    "table-shapes": (lambda: TabulatedGradient(np.array([-1.0, 0.0, 1.0]), np.array([1.0, -1.0])), DomainError),
    "table-short": (lambda: TabulatedGradient(np.array([0.0]), np.array([1.0])), DomainError),
    "modes-nan": (lambda: FourierDensity(np.array([0.1, np.nan])), DomainError),
    "modes-inf": (lambda: FourierDensity(np.array([complex(0.1, np.inf)])), DomainError),
    "trajectory-times-nan": (lambda: DensityTrajectory(np.array([0.0, np.nan]), FLAT_ROWS, ThetaGrid(2)), DomainError),
    "trajectory-times-inf": (lambda: DensityTrajectory(np.array([0.0, np.inf]), FLAT_ROWS, ThetaGrid(2)), DomainError),
    "trajectory-values-inf": (
        lambda: DensityTrajectory(np.array([0.0, 0.1]), np.array([[np.inf, 0.0], FLAT_ROWS[1]]), ThetaGrid(2)),
        DomainError,
    ),
    "trajectory-drift-nan": (
        lambda: DensityTrajectory(np.array([0.0, 0.1]), FLAT_ROWS, ThetaGrid(2), np.array([0.0, np.nan])),
        DomainError,
    ),
}


@pytest.mark.parametrize("build, error", MALFORMED.values(), ids=MALFORMED.keys())
def test_value_types_refuse_malformed_arrays(build, error):
    with pytest.raises(error):
        build()


def test_theta_grid_edges_and_centers():
    g = ThetaGrid(8)
    assert g.edges.tobytes() == np.append(g.nodes, TWO_PI).tobytes()
    assert g.centers.tobytes() == (g.nodes + 0.5 * g.spacing).tobytes()
    assert g.edges is g.edges and g.centers is g.centers
    assert not (g.edges.flags.writeable or g.centers.flags.writeable)


def test_circular_density_validation():
    g = ThetaGrid(16)
    CircularDensity(g, np.full(16, 1.0 / TWO_PI))  # uniform is fine
    with pytest.raises(NonNormalized):
        CircularDensity(g, np.full(16, 1.0))
    with pytest.raises(DomainError):
        CircularDensity(g, -np.full(16, 1.0 / TWO_PI))
    with pytest.raises(DomainError):
        CircularDensity(g, np.full(8, 1.0 / TWO_PI))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_circular_density_rejects_non_finite_values(bad):
    # abs(nan - 1) > MASS_TOL is False, so the mass check alone lets NaN through
    values = np.full(16, 1.0 / TWO_PI)
    values[3] = bad
    with pytest.raises(DomainError, match="finite"):
        CircularDensity(ThetaGrid(16), values)


def test_cdf_uniform_is_linear_and_node_exact():
    g = ThetaGrid(32)
    F = cdf_from_density(CircularDensity(g, np.full(32, 1.0 / TWO_PI)))
    # cell-mass increments make the CDF exact at every node
    assert np.allclose(F.values, np.arange(33) / 32, atol=1e-15)
    assert np.isclose(F(np.pi), 0.5)
    assert F(0.0) == 0.0 and F(TWO_PI) == 1.0


def test_cdf_node_exact_for_exact_cell_averages():
    # cell averages built from CDF increments must reproduce that CDF
    # at the nodes up to cumsum rounding
    p = OAPoint(0.7, 0.4)
    g = ThetaGrid(256)
    F = cdf_from_density(oa_cell_averages(p, g))
    exact = oa_cdf(p, F.grid.edges)
    assert np.max(np.abs(F.values - exact)) < 1e-13


def test_cdf_rejects_unnormalized():
    g = ThetaGrid(8)
    f = CircularDensity.__new__(CircularDensity)  # bypass to hit cdf check
    object.__setattr__(f, "grid", g)
    object.__setattr__(f, "values", np.full(8, 0.9 / TWO_PI))
    with pytest.raises(NonNormalized):
        cdf_from_density(f)


def test_quantile_inverts_cdf_at_nodes_exactly():
    p = OAPoint(-1.1, 0.55)
    g = ThetaGrid(128)
    F = cdf_from_density(oa_cell_averages(p, g))
    Q = QuantileFn(F)
    # piecewise-linear inverse hits the nodes bit for bit
    assert np.array_equal(Q(F.values), F.grid.edges)


def test_quantile_round_trip_interior():
    p = OAPoint(0.4, 0.2)
    g = ThetaGrid(512)
    F = cdf_from_density(oa_cell_averages(p, g))
    Q = QuantileFn(F)
    xi = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(F(Q(xi)) - xi)) < 1e-14


def test_quantile_rejects_outside_unit_interval():
    g = ThetaGrid(8)
    Q = QuantileFn(cdf_from_density(CircularDensity(g, np.full(8, 1.0 / TWO_PI))))
    with pytest.raises(DomainError):
        Q(1.5)


def test_strict_quantile_refuses_flat_cell():
    g = ThetaGrid(4)
    vals = np.array([2.0, 0.0, 1.0, 1.0])
    vals = vals / (vals.sum() * g.spacing)
    F = cdf_from_density(CircularDensity(g, vals))
    with pytest.raises(NotStrictlyMonotone):
        QuantileFn(F)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(1e-8, 1.0), min_size=2, max_size=64),
    st.sampled_from([1.0, 1.0 - 2**-53, 1.0 - 2**-52, 1.0 + 2**-52, 1.0 - 1e-12]),
    st.lists(st.floats(0.0, 1.0), max_size=16),
)
def test_quantile_matches_frozen_guarded_body_bitwise(weights, last, xis):
    cum = np.cumsum(weights)
    values = np.concatenate(([0.0], cum / cum[-1]))
    values[-1] = last  # CdfFn accepts an end value within 1e-12 of one
    assume(np.all(np.diff(values) >= FLAT_TOL))
    F = CdfFn(ThetaGrid(len(weights)), values)
    Q = QuantileFn(F)
    xi = np.concatenate(([0.0, 1.0, -1e-13, 1.0 + 1e-13], F.values, xis))
    # a scalar label gives a float, with the bits of the array call
    for x, want in zip(xi, Q(xi)):
        got = Q(x)
        assert type(got) is float and np.float64(got).tobytes() == want.tobytes()


@given(
    st.floats(-3.0, 3.0),
    st.floats(0.0, 0.9),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
)
def test_grid_quantile_monotone(alpha, beta, xis):
    g = ThetaGrid(64)
    Q = QuantileFn(cdf_from_density(oa_cell_averages(OAPoint(alpha, beta), g)))
    xs = np.sort(np.asarray(xis))
    qs = Q(xs)
    assert np.all(np.diff(qs) >= -1e-12)


def test_empirical_measure_validation():
    with pytest.raises(EmptyMeasure):
        EmpiricalMeasure(np.array([]), np.array([]))
    with pytest.raises(NonNormalized):
        EmpiricalMeasure(np.array([0.0]), np.array([0.5]))
    with pytest.raises(DomainError):
        EmpiricalMeasure(np.array([0.0, 1.0]), np.array([1.5, -0.5]))
    m = EmpiricalMeasure(np.array([-0.1]), np.array([1.0]))
    assert np.isclose(m.positions[0], TWO_PI - 0.1)  # circle wrap


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.nan, np.nan]], ids=["one", "all"])
def test_empirical_measure_refuses_nan_weights(weights):
    # NaN passed both the sign and the sum check, and the quantile then read an atom
    with pytest.raises(DomainError, match="weights must be nonnegative"):
        EmpiricalMeasure(np.array([0.1, 0.2]), np.array(weights))


def test_empirical_quantile_two_atom_step():
    # breakpoint convention: xi == F(atom) still selects the atom
    m = EmpiricalMeasure(np.array([-1.0, 1.0]), np.array([1.0 / 3.0, 2.0 / 3.0]), "line")
    assert empirical_quantile(m, 0.1) == -1.0
    assert empirical_quantile(m, 1.0 / 3.0) == -1.0
    assert empirical_quantile(m, 0.5) == 1.0
    assert empirical_quantile(m, 1.0) == 1.0


def test_empirical_quantile_sorts_atoms():
    m = EmpiricalMeasure(np.array([3.0, 1.0, 2.0]), np.full(3, 1.0 / 3.0), "line")
    out = empirical_quantile(m, np.array([0.2, 0.5, 0.9]))
    assert np.array_equal(out, [1.0, 2.0, 3.0])


def test_empirical_quantile_maps_a_nan_label_to_nan():
    # as QuantileFn and oa_quantile do; it returned the last atom
    m = EmpiricalMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    assert np.isnan(empirical_quantile(m, np.nan))
    out = empirical_quantile(m, np.array([0.25, np.nan, 1.0]))
    assert out[0] == 1.0 and np.isnan(out[1]) and out[2] == 2.0
    cdf = cdf_from_density(CircularDensity(ThetaGrid(4), np.full(4, 1.0 / (2.0 * np.pi))))
    assert np.isnan(QuantileFn(cdf)(np.nan))


def test_cdf_fn_validation():
    g = ThetaGrid(4)
    with pytest.raises(DomainError):
        CdfFn(g, np.array([0.0, 0.5, 0.4, 0.8, 1.0]))  # decreasing
    with pytest.raises(DomainError):
        CdfFn(g, np.array([0.1, 0.5, 0.6, 0.8, 1.0]))  # wrong endpoint


@pytest.mark.parametrize("values", [[0.0, np.nan, 1.0], [0.0, 0.5, np.nan], [np.nan] * 3],
                         ids=["inner", "last", "all"])
def test_cdf_fn_refuses_nan_values(values):
    # NaN passed the endpoint and the order checks, and QuantileFn accepted the CDF
    with pytest.raises(DomainError):
        CdfFn(ThetaGrid(2), np.array(values))


@pytest.mark.parametrize("values", [[0.0, 1e308], [1e308, 1e308]], ids=["product", "sum"])
def test_density_of_a_mass_past_the_float_range_is_not_normalized(values):
    # the mass overflowed with a RuntimeWarning before the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonNormalized, match="density mass inf"):
            CircularDensity(ThetaGrid(2), np.array(values))
