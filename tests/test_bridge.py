"""Quantile bridge between density trajectories and label fields."""
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import cumulative_trapezoid

from kuralim import (
    CircularDensity,
    DensityTrajectory,
    DomainError,
    DriftQuadrature,
    EmpiricalMeasure,
    KuramotoSin,
    LabelGrid,
    OAPoint,
    ThetaGrid,
    cdf_from_density,
    circle_distance,
    cl_simulate,
    cl_to_measure,
    measure_to_field,
    mfl_simulate_grid,
    mfl_to_cl_circle,
    oa_cell_averages,
    oa_density,
    oa_flow,
    oa_quantile,
    oa_shift,
    pushforward_check,
    quantile_from_cdf,
    twisted_field,
    w1_circle,
)
from kuralim.bridge import accumulate_drift

TWO_PI = 2.0 * np.pi


def test_cl_to_measure_uniform_weights():
    f = twisted_field(LabelGrid(5), 1)
    m = cl_to_measure(f)
    assert np.allclose(m.weights, 0.2)
    assert np.array_equal(m.positions, f.values)


def test_measure_to_field_line_quantiles():
    atoms = np.linspace(-2.0, 2.0, 9)
    m = EmpiricalMeasure(atoms, np.full(9, 1.0 / 9.0), "line")
    f = measure_to_field(m, LabelGrid(9))
    assert f.space == "line"
    assert np.array_equal(f.values, atoms)  # midpoint labels pick each atom once
    # translating the measure translates the field exactly
    shifted = measure_to_field(EmpiricalMeasure(atoms + 0.3, np.full(9, 1.0 / 9.0), "line"), LabelGrid(9))
    assert np.array_equal(shifted.values, atoms + 0.3)


def test_single_slice_transform_is_plain_quantile():
    p = OAPoint(0.4, 0.2)
    grid = ThetaGrid(256)
    density = oa_cell_averages(p, grid)
    traj = DensityTrajectory(np.array([0.0]), density.values[None, :], grid)
    out = mfl_to_cl_circle(traj, KuramotoSin(), LabelGrid(128))
    assert out.drift[0] == 0.0
    q = quantile_from_cdf(cdf_from_density(density))
    assert np.max(np.abs(out.fields[0] - q(LabelGrid(128).midpoints))) < 1e-14


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
def test_transform_rejects_non_finite_drift_scale(scale):
    grid = ThetaGrid(16)
    density = oa_cell_averages(OAPoint(0.4, 0.2), grid)
    traj = DensityTrajectory(np.array([0.0]), density.values[None, :], grid)
    with pytest.raises(DomainError, match="drift_scale"):
        mfl_to_cl_circle(traj, KuramotoSin(), LabelGrid(8), drift_scale=scale)


def test_uniform_run_transforms_to_identity_field():
    grid = ThetaGrid(128)
    uniform = CircularDensity(grid, np.full(128, 1.0 / TWO_PI))
    traj = mfl_simulate_grid(uniform, KuramotoSin(), 0.01, 1.0, output_every=0.25)
    out = mfl_to_cl_circle(traj, KuramotoSin(), LabelGrid(64))
    target = TWO_PI * LabelGrid(64).midpoints
    assert np.max(np.abs(out.fields - target[None, :])) < 1e-10
    assert np.max(np.abs(out.drift)) < 1e-10


def test_solver_drift_tracks_anchor_shift():
    # the accumulated anchor crossing approximates the closed-form change
    # of the family's anchor offset to first order in dt
    p0 = OAPoint(0.4, 0.2)
    t_end = 2.0
    traj = mfl_simulate_grid(oa_cell_averages(p0, ThetaGrid(512)), KuramotoSin(), 0.01, t_end, output_every=0.5)
    exact = oa_shift(oa_flow(p0, t_end)) - oa_shift(p0)
    assert abs(traj.drift[-1] - exact) < 2e-3
    finer = mfl_simulate_grid(oa_cell_averages(p0, ThetaGrid(1024)), KuramotoSin(), 0.005, t_end)
    assert abs(finer.drift[-1] - exact) < abs(traj.drift[-1] - exact)


def test_fallback_quadrature_needs_dense_recording():
    grid = ThetaGrid(128)
    density = oa_cell_averages(OAPoint(0.4, 0.2), grid)
    run = mfl_simulate_grid(density, KuramotoSin(), 0.005, 0.5, output_every=0.1)
    snapshots = DensityTrajectory(run.times, run.values, run.grid)  # drift dropped
    with pytest.raises(DriftQuadrature):
        mfl_to_cl_circle(snapshots, KuramotoSin(), LabelGrid(64))
    two = DensityTrajectory(run.times[:2], run.values[:2], run.grid)
    with pytest.raises(DriftQuadrature):
        mfl_to_cl_circle(two, KuramotoSin(), LabelGrid(64))


@given(
    st.lists(
        # (time step, flux); fluxes this small always pass the error estimate
        st.tuples(st.floats(1e-4, 1.0), st.floats(-1e-6, 1e-6)),
        min_size=3,
        max_size=60,
    )
)
def test_accumulate_drift_matches_scipy_bitwise(samples):
    times = np.cumsum([dt for dt, _ in samples])
    flux = np.array([f for _, f in samples])
    expected = cumulative_trapezoid(flux, times, initial=0.0)
    assert accumulate_drift(times, flux).tobytes() == expected.tobytes()


def test_fallback_quadrature_agrees_with_stored_drift():
    grid = ThetaGrid(128)
    density = oa_cell_averages(OAPoint(0.4, 0.2), grid)
    run = mfl_simulate_grid(density, KuramotoSin(), 0.005, 0.5)  # every step recorded
    snapshots = DensityTrajectory(run.times, run.values, run.grid)
    a = mfl_to_cl_circle(run, KuramotoSin(), LabelGrid(64))
    b = mfl_to_cl_circle(snapshots, KuramotoSin(), LabelGrid(64))
    assert np.max(np.abs(a.drift - b.drift)) < 1e-3
    assert np.max(circle_distance(a.fields, b.fields)) < 2e-2


def test_transform_round_trip_w1():
    # MFL -> CL -> measure reproduces the density to O(1/n_labels)
    p0 = OAPoint(0.3, 0.25)
    run = mfl_simulate_grid(oa_cell_averages(p0, ThetaGrid(256)), KuramotoSin(), 0.01, 1.0, output_every=0.5)
    dists = {}
    for n_labels in (128, 256):
        out = mfl_to_cl_circle(run, KuramotoSin(), LabelGrid(n_labels))
        worst = 0.0
        for k in range(len(run.times)):
            q = quantile_from_cdf(cdf_from_density(CircularDensity(run.grid, run.values[k])))
            reference = EmpiricalMeasure(
                q(LabelGrid(n_labels).midpoints), np.full(n_labels, 1.0 / n_labels)
            )
            worst = max(worst, w1_circle(cl_to_measure(out.field(k)), reference))
        dists[n_labels] = worst
    assert dists[128] < 0.1
    assert dists[256] < 0.75 * dists[128]


def test_transform_tracks_direct_label_dynamics():
    # short, coarse version of the main correspondence: evolve the density,
    # transform, and compare with label dynamics started from the same
    # quantile field
    p0 = OAPoint(0.4, 0.2)
    t_end = 1.0
    n = 256
    run = mfl_simulate_grid(oa_cell_averages(p0, ThetaGrid(n)), KuramotoSin(), 0.01, t_end, output_every=0.25)
    out = mfl_to_cl_circle(run, KuramotoSin(), LabelGrid(n))
    start = out.field(0)
    direct = cl_simulate(start, KuramotoSin(), 0.01, t_end, output_every=0.25)
    sup = max(
        np.max(circle_distance(out.fields[k], np.asarray(direct.states[k])))
        for k in range(len(out.times))
    )
    assert sup < 1e-2  # first-order transport at n = 256


def test_drift_scale_knob():
    grid = ThetaGrid(128)
    run = mfl_simulate_grid(oa_cell_averages(OAPoint(0.4, 0.3), grid), KuramotoSin(), 0.01, 1.0, output_every=0.5)
    frozen = mfl_to_cl_circle(run, KuramotoSin(), LabelGrid(64), drift_scale=0.0)
    assert np.all(frozen.drift == 0.0)
    labels = LabelGrid(64).midpoints
    q = quantile_from_cdf(cdf_from_density(CircularDensity(grid, run.values[-1])))
    assert np.max(np.abs(frozen.fields[-1] - q(labels))) < 1e-14


def test_pushforward_check_accuracy_classes():
    p = OAPoint(0.7, 0.4)
    g = ThetaGrid(1024)
    labels = LabelGrid(1024).midpoints
    field = oa_quantile(p, labels)
    centers = g.nodes + 0.5 * g.spacing
    smooth = CircularDensity(g, oa_density(p, centers))
    assert pushforward_check(smooth, field) < 1e-10  # spectral for smooth samples
    assert pushforward_check(oa_cell_averages(p, g), field) < 1e-5  # second order
    uniform = CircularDensity(g, np.full(1024, 1.0 / TWO_PI))
    assert pushforward_check(uniform, TWO_PI * labels) < 1e-12
    mismatched = twisted_field(LabelGrid(1024), 1).values
    assert pushforward_check(smooth, mismatched) > 0.01
    with pytest.raises(DomainError):
        pushforward_check(smooth, field, max_harmonic=0)
