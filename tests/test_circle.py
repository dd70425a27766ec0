"""Circle geometry, grids, CDF/quantile inversion, and Wasserstein-1."""
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import linprog
from scipy.stats import wasserstein_distance

from kuralim import (
    CdfFn,
    CircularDensity,
    DomainError,
    EmpiricalMeasure,
    EmptyMeasure,
    LabelGrid,
    NonNormalized,
    NotStrictlyMonotone,
    OAPoint,
    ThetaGrid,
    cdf_from_density,
    circle_distance,
    empirical_quantile,
    label_distance,
    oa_cdf,
    oa_cell_averages,
    quantile_from_cdf,
    w1_circle,
    w1_line,
    wrap_angle,
    wrap_label,
    wrap_pm_pi,
)

TWO_PI = 2.0 * np.pi


def test_wrap_angle_range_and_period():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(TWO_PI) == 0.0
    assert np.isclose(wrap_angle(-0.1), TWO_PI - 0.1)
    x = np.array([-7.0, 0.0, 3.0, 9.0])
    w = wrap_angle(x)
    assert np.all((w >= 0.0) & (w < TWO_PI))
    assert np.allclose(np.sin(w), np.sin(x))


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
    exact = oa_cdf(p, F.nodes)
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
    Q = quantile_from_cdf(F)
    # piecewise-linear inverse hits the nodes bit for bit
    assert np.array_equal(Q(F.values), F.nodes)


def test_quantile_round_trip_interior():
    p = OAPoint(0.4, 0.2)
    g = ThetaGrid(512)
    F = cdf_from_density(oa_cell_averages(p, g))
    Q = quantile_from_cdf(F)
    xi = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(F(Q(xi)) - xi)) < 1e-14


def test_quantile_rejects_outside_unit_interval():
    g = ThetaGrid(8)
    Q = quantile_from_cdf(cdf_from_density(CircularDensity(g, np.full(8, 1.0 / TWO_PI))))
    with pytest.raises(DomainError):
        Q(1.5)


def test_strict_quantile_refuses_flat_cell():
    g = ThetaGrid(4)
    vals = np.array([2.0, 0.0, 1.0, 1.0])
    vals = vals / (vals.sum() * g.spacing)
    F = cdf_from_density(CircularDensity(g, vals))
    with pytest.raises(NotStrictlyMonotone):
        quantile_from_cdf(F)
    Q = quantile_from_cdf(F, strict=False)
    # pseudo-inverse jumps across the empty cell
    flat_start = g.nodes[1]
    assert np.isclose(Q(F(flat_start)), flat_start)


@given(
    st.floats(-3.0, 3.0),
    st.floats(0.0, 0.9),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
)
def test_grid_quantile_monotone(alpha, beta, xis):
    g = ThetaGrid(64)
    Q = quantile_from_cdf(cdf_from_density(oa_cell_averages(OAPoint(alpha, beta), g)))
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


def test_w1_line_hand_values():
    a = EmpiricalMeasure(np.array([0.0]), np.array([1.0]), "line")
    b = EmpiricalMeasure(np.array([1.0]), np.array([1.0]), "line")
    assert np.isclose(w1_line(a, b), 1.0)
    # shifting a measure moves it by exactly the shift
    pts = np.array([0.0, 0.3, 2.0])
    w = np.array([0.2, 0.5, 0.3])
    mu = EmpiricalMeasure(pts, w, "line")
    nu = EmpiricalMeasure(pts + 0.7, w, "line")
    assert np.isclose(w1_line(mu, nu), 0.7)
    with pytest.raises(DomainError):
        w1_line(mu, EmpiricalMeasure(np.array([0.0]), np.array([1.0])))


def _line_measure(atoms):
    pos = np.array([x for x, _ in atoms], dtype=float)
    w = np.array([w for _, w in atoms])
    return EmpiricalMeasure(pos, w / w.sum(), "line")


# small integers give tied atoms, within and across the two measures
LINE_ATOMS = st.lists(
    st.tuples(st.integers(-3, 3) | st.floats(-1e3, 1e3), st.floats(0.01, 1.0)),
    min_size=1,
    max_size=20,
)


@given(LINE_ATOMS, LINE_ATOMS)
def test_w1_line_matches_scipy_bitwise(a, b):
    mu, nu = _line_measure(a), _line_measure(b)
    expected = wasserstein_distance(mu.positions, nu.positions, mu.weights, nu.weights)
    assert w1_line(mu, nu) == float(expected)


def test_w1_circle_hand_values():
    one = lambda x: EmpiricalMeasure(np.array([x]), np.array([1.0]))
    assert np.isclose(w1_circle(one(0.0), one(np.pi)), np.pi)
    # going the short way around: 0.2, not 2*pi - 0.2
    assert np.isclose(w1_circle(one(0.1), one(TWO_PI - 0.1)), 0.2)
    quarter = EmpiricalMeasure(np.arange(4) * np.pi / 2, np.full(4, 0.25))
    rotated = EmpiricalMeasure(np.arange(4) * np.pi / 2 + 0.1, np.full(4, 0.25))
    assert np.isclose(w1_circle(quarter, rotated), 0.1)
    assert w1_circle(quarter, quarter) == 0.0


def _w1_circle_lp(mu, nu):
    """Independent oracle: optimal transport as a linear program."""
    cost = circle_distance(mu.positions[:, None], nu.positions[None, :])
    m, n = cost.shape
    a_eq = []
    for i in range(m):
        row = np.zeros(m * n)
        row[i * n : (i + 1) * n] = 1.0
        a_eq.append(row)
    for j in range(n - 1):  # last column constraint is redundant
        row = np.zeros(m * n)
        row[j::n] = 1.0
        a_eq.append(row)
    b_eq = np.concatenate([mu.weights, nu.weights[:-1]])
    res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=b_eq, bounds=(0, None))
    assert res.success
    return res.fun


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_w1_circle_matches_linear_program(seed):
    rng = np.random.default_rng(seed)
    mu = EmpiricalMeasure(rng.uniform(0, TWO_PI, 4), _rand_weights(rng, 4))
    nu = EmpiricalMeasure(rng.uniform(0, TWO_PI, 5), _rand_weights(rng, 5))
    assert np.isclose(w1_circle(mu, nu), _w1_circle_lp(mu, nu), atol=1e-10)


def _rand_weights(rng, n):
    w = rng.uniform(0.1, 1.0, n)
    return w / w.sum()


@given(st.integers(0, 10_000))
def test_w1_circle_symmetry_and_identity(seed):
    rng = np.random.default_rng(seed)
    mu = EmpiricalMeasure(rng.uniform(0, TWO_PI, 3), _rand_weights(rng, 3))
    nu = EmpiricalMeasure(rng.uniform(0, TWO_PI, 3), _rand_weights(rng, 3))
    d = w1_circle(mu, nu)
    assert d >= 0.0
    assert np.isclose(d, w1_circle(nu, mu), atol=1e-12)
    assert d <= np.pi + 1e-12


def test_cdf_fn_validation():
    g = ThetaGrid(4)
    with pytest.raises(DomainError):
        CdfFn(g, np.array([0.0, 0.5, 0.4, 0.8, 1.0]))  # decreasing
    with pytest.raises(DomainError):
        CdfFn(g, np.array([0.1, 0.5, 0.6, 0.8, 1.0]))  # wrong endpoint
