"""Mode-hierarchy and grid descriptions of the mean-field density."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kuralim import particles
from kuralim import (
    CflViolation,
    CircularDensity,
    DensityTrajectory,
    DomainError,
    FourierDensity,
    KuramotoSin,
    OAPoint,
    OddTrig,
    ParticleState,
    TabulatedGradient,
    TailBlowup,
    ThetaGrid,
    ds_simulate,
    linearized_operator,
    linearized_spectrum,
    mfl_simulate_grid,
    mfl_simulate_spectral,
    oa_cell_averages,
    oa_flow,
    order_parameter,
    spectral_rhs,
)

TWO_PI = 2.0 * np.pi


def test_fourier_density_validation():
    FourierDensity(np.array([0.1 + 0.0j]))
    with pytest.raises(DomainError):
        FourierDensity(np.array([], dtype=complex))
    with pytest.raises(DomainError):
        FourierDensity.from_oa(OAPoint(0.0, 0.5), 0)


def test_from_oa_modes_are_geometric():
    p = OAPoint(0.8, 0.3)
    d = FourierDensity.from_oa(p, 6)
    a = p.beta * np.exp(1j * p.alpha)
    assert np.allclose(d.modes, a ** np.arange(1, 7), atol=1e-15)


def test_order_parameter_dispatch():
    p = OAPoint(1.2, 0.35)
    spec = FourierDensity.from_oa(p, 8)
    assert order_parameter(spec) == spec.modes[0]
    grid_val = order_parameter(oa_cell_averages(p, ThetaGrid(512)))
    assert abs(grid_val - p.beta * np.exp(1j * p.alpha)) < 1e-4
    finer = order_parameter(oa_cell_averages(p, ThetaGrid(1024)))
    coarse_err = abs(grid_val - p.beta * np.exp(1j * p.alpha))
    fine_err = abs(finer - p.beta * np.exp(1j * p.alpha))
    assert fine_err < 0.3 * coarse_err  # second-order in the spacing
    with pytest.raises(DomainError):
        order_parameter(np.zeros(8))


def test_spectral_rhs_single_mode_seed():
    eps = 1e-3
    modes = np.zeros(4, dtype=complex)
    modes[0] = eps
    dot = spectral_rhs(modes)
    assert dot[0] == eps / 2.0  # growth rate 1/2 at the uniform state
    assert dot[1] == eps**2
    assert dot[2] == 0.0 and dot[3] == 0.0


def test_spectral_rhs_on_geometric_modes():
    a = 0.3 * np.exp(0.2j)
    n = np.arange(1, 17)
    modes = a**n
    dot = spectral_rhs(modes)
    expected = 0.5 * n * a**n * (1.0 - abs(a) ** 2)
    # truncation only touches the last retained mode
    assert np.max(np.abs(dot[:-1] - expected[:-1])) < 1e-15
    assert abs(dot[0] - 0.5 * a * (1.0 - abs(a) ** 2)) < 1e-16
    # with the geometric tail c_{N+1} = c_N c_1 appended, every mode is exact
    closed = spectral_rhs(np.append(modes, modes[-1] * modes[0]))[:-1]
    assert np.max(np.abs(closed - expected)) < 1e-15


def _frozen_spectral_rhs(modes):
    """``spectral_rhs`` as it was, with the shifted modes concatenated."""
    c1 = modes[0]
    lower = np.concatenate(([1.0 + 0.0j], modes[:-1]))
    upper = np.concatenate((modes[1:], [0.0j]))
    n = np.arange(1, len(modes) + 1)
    return 0.5 * n * (c1 * lower - np.conj(c1) * upper)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 100),
    kind=st.sampled_from(["random", "geometric", "zeros"]),
    scale=st.sampled_from([1.0, 0.5, 1e-3, 1e-300, 1e150]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_rhs_matches_frozen_body_bitwise(n, kind, scale, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        modes = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
    elif kind == "geometric":
        modes = (rng.uniform(0.0, 0.99) * np.exp(1j * rng.uniform(-4.0, 4.0))) ** np.arange(1, n + 1)
    else:
        modes = np.zeros(n, dtype=complex)
    modes.flags.writeable = False  # as FourierDensity holds them
    got = spectral_rhs(modes)
    assert got.dtype == complex and got.flags.writeable
    assert got.tobytes() == _frozen_spectral_rhs(modes).tobytes()


def test_uniform_state_is_stationary():
    start = FourierDensity(np.zeros(8, dtype=complex))
    traj = mfl_simulate_spectral(start, 1e-2, 1.0)
    assert np.max(np.abs(traj.states[-1])) == 0.0


def test_spectral_run_matches_family_flow():
    p0 = OAPoint(0.5, 0.2)
    traj = mfl_simulate_spectral(FourierDensity.from_oa(p0, 32), 1e-3, 1.0, output_every=0.5)
    for t, modes in zip(traj.times, traj.states):
        beta_t = oa_flow(p0, t).beta
        assert abs(abs(modes[0]) - beta_t) < 1e-9


def test_tail_blowup_detected():
    start = FourierDensity.from_oa(OAPoint(0.0, 0.4), 4)
    with pytest.raises(TailBlowup):
        mfl_simulate_spectral(start, 1e-2, 6.0)


def test_spectral_rejects_bad_horizon():
    with pytest.raises(DomainError):
        mfl_simulate_spectral(FourierDensity(np.zeros(4, dtype=complex)), 1.0, 0.5)


def test_grid_uniform_is_stationary():
    grid = ThetaGrid(128)
    uniform = CircularDensity(grid, np.full(128, 1.0 / TWO_PI))
    traj = mfl_simulate_grid(uniform, KuramotoSin(), 0.01, 1.0)
    assert np.max(np.abs(traj.values[-1] - uniform.values)) < 1e-12


def test_grid_run_conserves_mass_and_positivity():
    grid = ThetaGrid(256)
    traj = mfl_simulate_grid(oa_cell_averages(OAPoint(0.4, 0.2), grid), KuramotoSin(), 0.01, 2.0, output_every=0.5)
    for slc in traj.values:
        assert abs(np.sum(slc) * grid.spacing - 1.0) < 1e-10
        assert np.min(slc) > -1e-12  # upwind flux keeps cells nonnegative


def test_grid_drift_bookkeeping():
    grid = ThetaGrid(256)
    traj = mfl_simulate_grid(oa_cell_averages(OAPoint(0.4, 0.2), grid), KuramotoSin(), 0.01, 1.0, output_every=0.25)
    assert traj.drift is not None
    assert traj.drift[0] == 0.0
    # transport at the cut points against the phase for this family member,
    # so accumulated crossing mass decreases
    assert np.all(np.diff(traj.drift) < 0.0)


def test_cfl_violation_raised():
    grid = ThetaGrid(512)
    dense = oa_cell_averages(OAPoint(0.0, 0.5), grid)
    with pytest.raises(CflViolation):
        mfl_simulate_grid(dense, KuramotoSin(), 0.1, 1.0)


def test_density_trajectory_validation():
    grid = ThetaGrid(8)
    times = np.array([0.0, 1.0])
    values = np.zeros((2, 8))
    DensityTrajectory(times, values, grid)
    with pytest.raises(DomainError):
        DensityTrajectory(times, values, grid, drift=np.zeros(3))
    with pytest.raises(DomainError):
        DensityTrajectory(times, np.zeros((2, 4)), grid)


def test_spectral_and_grid_runs_agree():
    # two independent discretizations of the same evolution
    p0 = OAPoint(0.0, 0.2)
    t_end = 2.0
    spec = mfl_simulate_spectral(FourierDensity.from_oa(p0, 64), 1e-3, t_end, output_every=1.0)
    grid = mfl_simulate_grid(
        oa_cell_averages(p0, ThetaGrid(512)), KuramotoSin(), 0.01, t_end, output_every=1.0
    )
    errs = []
    for k, t in enumerate(spec.times):
        r_spec = abs(spec.states[k][0])
        r_grid = abs(order_parameter(CircularDensity(grid.grid, grid.values[k])))
        errs.append(abs(r_spec - r_grid))
    assert max(errs) < 2e-3
    finer = mfl_simulate_grid(
        oa_cell_averages(p0, ThetaGrid(1024)), KuramotoSin(), 0.005, t_end, output_every=1.0
    )
    errs2 = []
    for k in range(len(spec.times)):
        r_spec = abs(spec.states[k][0])
        r_grid = abs(order_parameter(CircularDensity(finer.grid, finer.values[k])))
        errs2.append(abs(r_spec - r_grid))
    assert max(errs2) < 0.75 * max(errs)


def test_linearized_operator_actions():
    n = 64
    mat = linearized_operator(n)
    theta = ThetaGrid(n).nodes
    sin_out = mat @ np.sin(theta)
    assert np.max(np.abs(sin_out - 0.5 * np.sin(theta))) < 1e-13
    assert np.max(np.abs(mat @ np.cos(2 * theta))) < 1e-13
    assert np.max(np.abs(mat @ np.ones(n))) < 1e-13
    assert np.allclose(mat, mat.T)
    assert abs(np.trace(mat) - 1.0) < 1e-14


@pytest.mark.parametrize(
    "n_cells, harmonic", [(8.0, 1), (8.5, 1), (True, 1), (8, 1.5), (8, 1.0), (8, True)]
)
def test_linearized_operator_refuses_non_integer_sizes(n_cells, harmonic):
    with pytest.raises(DomainError, match="integer"):
        linearized_operator(n_cells, harmonic)


@pytest.mark.parametrize("n_modes", [3.5, 3.0, True])
def test_from_oa_refuses_a_non_integer_mode_count(n_modes):
    with pytest.raises(DomainError, match="integer"):
        FourierDensity.from_oa(OAPoint(0.0, 0.5), n_modes)


def test_from_oa_and_operator_accept_numpy_integers():
    p = OAPoint(0.3, 0.5)
    assert FourierDensity.from_oa(p, np.int64(4)).modes.tobytes() == FourierDensity.from_oa(p, 4).modes.tobytes()
    assert linearized_operator(np.int64(8), np.int32(2)).tobytes() == linearized_operator(8, 2).tobytes()


def test_linearized_spectrum_half_pair():
    for n in (32, 64):
        ev = linearized_spectrum(linearized_operator(n))
        assert abs(ev[0] - 0.5) < 1e-12 and abs(ev[1] - 0.5) < 1e-12
        assert np.max(np.abs(ev[2:])) < 1e-12
    # the nonzero pair does not move with the mesh
    a = linearized_spectrum(linearized_operator(64))[:2]
    b = linearized_spectrum(linearized_operator(128))[:2]
    assert np.max(np.abs(a - b)) < 1e-10


def test_linearized_operator_validation():
    with pytest.raises(DomainError):
        linearized_operator(2)
    with pytest.raises(DomainError):
        linearized_operator(16, harmonic=8)
    # a higher harmonic shifts which mode pair carries the 1/2 eigenvalue
    ev = linearized_spectrum(linearized_operator(32, harmonic=3))
    assert abs(ev[0] - 0.5) < 1e-12 and abs(ev[1] - 0.5) < 1e-12


def _frozen_grid_loop(initial, kernel, dt, t_end, output_every=None):
    """The grid solver's own step loop as it stood before the solver moved
    onto integrate_fixed (record_stride and CFL_LIMIT inlined), frozen as
    the bitwise reference: returns (times, values, drift)."""
    grid = initial.grid
    dtheta = grid.spacing
    centers = grid.nodes + 0.5 * dtheta
    interfaces = grid.nodes

    f = initial.values.copy()
    stride = 1 if output_every is None else max(1, int(round(output_every / dt)))

    n_full = int(np.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    if remainder < 1e-9 * max(1.0, abs(t_end)):
        remainder = 0.0
    n_total = n_full + (1 if remainder else 0)

    times = [0.0]
    slices = [f.copy()]
    crossed = 0.0
    drifts = [0.0]
    for step in range(1, n_total + 1):
        h = dt if step <= n_full else remainder
        t = step * dt if step <= n_full else t_end

        v = kernel.circle_velocity(interfaces, centers, f * dtheta)
        vmax = float(np.max(np.abs(v)))
        if vmax * h > 0.5 * dtheta:
            raise CflViolation(
                f"CFL number {vmax * h / dtheta:.3f} exceeds 0.5 at "
                f"t = {t:.6g}; need dt <= {0.5 * dtheta / vmax:.6g}"
            )

        # Interface j sits between cells j-1 and j (periodic).  Local
        # Lax-Friedrichs with speed |v| == upwinding for flux v*f.
        left = np.roll(f, 1)
        flux = 0.5 * v * (left + f) - 0.5 * np.abs(v) * (f - left)
        f = f - (h / dtheta) * (np.roll(flux, -1) - flux)
        crossed += h * flux[0]

        if not np.all(np.isfinite(f)):
            raise CflViolation(f"non-finite density at step {step} (t = {t:.6g})")
        if step % stride == 0 or step == n_total:
            times.append(t)
            slices.append(f.copy())
            drifts.append(crossed)
    return np.array(times), np.array(slices), np.array(drifts)


_OFFSETS = np.linspace(-np.pi, np.pi, 65)


@pytest.mark.parametrize(
    "kernel",
    [KuramotoSin(), OddTrig((1.0, 0.3, 0.1)), TabulatedGradient(_OFFSETS, -np.sin(_OFFSETS), periodic=True)],
    ids=["sin", "odd-trig", "tabulated"],
)
@pytest.mark.parametrize(
    "t_end, output_every, n_rows",
    [(0.253, None, 27), (0.2, None, 21), (0.47, 0.04, 13)],
    ids=["remainder", "exact-multiple", "stride-4"],
)
def test_grid_solver_matches_frozen_loop_bitwise(kernel, t_end, output_every, n_rows):
    initial = oa_cell_averages(OAPoint(0.4, 0.3), ThetaGrid(64))
    run = mfl_simulate_grid(initial, kernel, 0.01, t_end, output_every=output_every)
    times, values, drift = _frozen_grid_loop(initial, kernel, 0.01, t_end, output_every)
    assert run.times.tobytes() == times.tobytes()
    assert run.values.tobytes() == values.tobytes()
    assert run.drift.tobytes() == drift.tobytes()
    assert len(run) == n_rows


@pytest.mark.parametrize(
    "kernel",
    [OddTrig((1.0, 0.3, 0.1)), TabulatedGradient(_OFFSETS, -np.sin(_OFFSETS), periodic=True)],
    ids=["odd-trig", "tabulated"],
)
def test_grid_solver_same_bytes_past_the_velocity_cache_limit(monkeypatch, kernel):
    initial = oa_cell_averages(OAPoint(0.4, 0.3), ThetaGrid(64))
    cached = mfl_simulate_grid(initial, kernel, 0.01, 0.47, output_every=0.04)
    monkeypatch.setattr(particles, "CACHE_VALUES", 64 * 64 - 1)
    per_node = mfl_simulate_grid(initial, kernel, 0.01, 0.47, output_every=0.04)
    assert per_node.values.tobytes() == cached.values.tobytes()
    assert per_node.drift.tobytes() == cached.drift.tobytes()


def test_grid_rejects_zero_dt():
    initial = oa_cell_averages(OAPoint(0.4, 0.3), ThetaGrid(16))
    for output_every in (None, 0.1):
        with pytest.raises(DomainError, match="dt must be positive"):
            mfl_simulate_grid(initial, KuramotoSin(), 0.0, 1.0, output_every=output_every)


@pytest.mark.parametrize("solver", ["ds", "mfl-spectral", "mfl-grid"])
def test_dt_beyond_final_time_rejected(solver):
    p = OAPoint(0.4, 0.3)
    run = {
        "ds": lambda dt, t: ds_simulate(ParticleState(np.linspace(0.0, 1.0, 8)), KuramotoSin(), dt, t),
        "mfl-spectral": lambda dt, t: mfl_simulate_spectral(FourierDensity.from_oa(p, 8), dt, t),
        "mfl-grid": lambda dt, t: mfl_simulate_grid(oa_cell_averages(p, ThetaGrid(16)), KuramotoSin(), dt, t),
    }[solver]
    with pytest.raises(DomainError, match="exceeds final time"):
        run(0.2, 0.1)
    assert len(run(0.2, 0.0)) == 1
