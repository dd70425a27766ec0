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
    KuramotoSin,
    LabelField,
    LabelGrid,
    OAPoint,
    OddTrig,
    QuantileFn,
    TabulatedGradient,
    ThetaGrid,
    cdf_from_density,
    circle_distance,
    cl_simulate,
    mfl_simulate_grid,
    mfl_to_cl_circle,
    oa_cell_averages,
    oa_flow,
    oa_shift,
    wrap_label,
)
from kuralim.bridge import accumulate_drift, anchor_flux_series
from test_particles import _count_phi_calls

TWO_PI = 2.0 * np.pi


def test_single_slice_transform_is_plain_quantile():
    p = OAPoint(0.4, 0.2)
    grid = ThetaGrid(256)
    density = oa_cell_averages(p, grid)
    traj = DensityTrajectory(np.array([0.0]), density.values[None, :], grid)
    out = mfl_to_cl_circle(traj, KuramotoSin(), LabelGrid(128))
    assert out.drift[0] == 0.0
    q = QuantileFn(cdf_from_density(density))
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


def test_accumulate_drift_reads_lists_as_arrays():
    # a list flux of three or more values was concatenated, not added
    times, flux = [0.0, 0.1, 0.2, 0.3], [0.0, 1e-9, 2e-9, 2.5e-9]
    assert accumulate_drift(times, flux).tobytes() == accumulate_drift(np.array(times), np.array(flux)).tobytes()


def test_accumulate_drift_refuses_unequal_lengths():
    with pytest.raises(DomainError, match="equal length"):
        accumulate_drift(np.array([0.0, 0.1, 0.2]), np.zeros(2))


def test_fallback_quadrature_agrees_with_stored_drift():
    grid = ThetaGrid(128)
    density = oa_cell_averages(OAPoint(0.4, 0.2), grid)
    run = mfl_simulate_grid(density, KuramotoSin(), 0.005, 0.5)  # every step recorded
    snapshots = DensityTrajectory(run.times, run.values, run.grid)
    a = mfl_to_cl_circle(run, KuramotoSin(), LabelGrid(64))
    b = mfl_to_cl_circle(snapshots, KuramotoSin(), LabelGrid(64))
    assert np.max(np.abs(a.drift - b.drift)) < 1e-3
    assert np.max(circle_distance(a.fields, b.fields)) < 2e-2


_TABLE = np.linspace(-np.pi, np.pi, 65)


@pytest.mark.parametrize(
    "kernel",
    [
        KuramotoSin(),
        KuramotoSin(1.7),
        OddTrig((1.0, 0.3, 0.1)),
        TabulatedGradient(_TABLE, -np.sin(_TABLE), periodic=True),
    ],
    ids=["sin", "sin-1.7", "odd-trig", "tabulated"],
)
@pytest.mark.parametrize("n", [64, 512])
def test_anchor_flux_builds_one_phi_row(monkeypatch, kernel, n):
    run = mfl_simulate_grid(oa_cell_averages(OAPoint(0.4, 0.3), ThetaGrid(n)), kernel, 0.002, 0.02)
    calls = _count_phi_calls(monkeypatch, kernel)
    anchor_flux_series(run, kernel)
    # one row of phi for the whole trajectory; KuramotoSin needs none
    assert calls == ([] if isinstance(kernel, KuramotoSin) else [(1, 1)])


def test_transform_round_trip_w1():
    # MFL -> CL reproduces the density to O(1/n_labels).  The field is the
    # density's quantile read at the drift-shifted labels; read it instead
    # at the labels shifted by the nearest whole number of labels, which
    # samples the density's quantile at the plain label grid, relabeled.
    # Pairing the two is a coupling of their uniform empirical measures, so
    # its mean cost bounds the Wasserstein-1 distance between them.
    p0 = OAPoint(0.3, 0.25)
    run = mfl_simulate_grid(oa_cell_averages(p0, ThetaGrid(256)), KuramotoSin(), 0.01, 1.0, output_every=0.5)
    dists = {}
    for n_labels in (128, 256):
        labels = LabelGrid(n_labels).midpoints
        out = mfl_to_cl_circle(run, KuramotoSin(), LabelGrid(n_labels))
        worst = 0.0
        for k in range(len(run.times)):
            q = QuantileFn(cdf_from_density(run.density(k)))
            whole = np.round(out.drift[k] * n_labels) / n_labels
            reference = q(wrap_label(labels + whole))
            worst = max(worst, np.mean(circle_distance(out.fields[k], reference)))
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
    start = LabelField(LabelGrid(n), out.fields[0])
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
    q = QuantileFn(cdf_from_density(CircularDensity(grid, run.values[-1])))
    assert np.max(np.abs(frozen.fields[-1] - q(labels))) < 1e-14

