"""Verification-suite mechanics: reports, controls, determinism.

Full-tolerance suite runs live in the acceptance tests; here the suites
run at reduced sizes to exercise reporting and the failure directions.
"""
import inspect
import json
import types
import warnings

import numpy as np
import pytest

import kuralim.verify
from kuralim import (
    NEGATIVE_CONTROLS,
    SUITES,
    DomainError,
    OAPoint,
    VerificationReport,
    oa_flow,
    run_suite,
    verify_bridge,
    verify_manifold_invariance,
    verify_mean_interaction,
    verify_oa_closure,
    verify_spectrum,
    verify_sync_limit,
)
from kuralim.cli import run_cli

# Cheap arguments for every registered suite.
SMALL = {
    "interaction": dict(alphas=(0.5,), betas=(0.3,), n_labels=64, n_eval=9),
    "invariance": dict(t_end=0.2, n_labels=64),
    "spectrum": dict(n_cells=16),
    "closure": dict(t_end=0.2, n_modes=8),
    "bridge": dict(t_end=0.05, n_cells=64, n_labels=64),
    "sync-limit": dict(n_labels=64),
}


def test_report_invariant_enforced():
    VerificationReport("demo", {}, 0.5, 1.0, True, 0.0)
    with pytest.raises(DomainError):
        VerificationReport("demo", {}, 0.5, 1.0, False, 0.0)
    with pytest.raises(DomainError):
        VerificationReport("demo", {}, 2.0, 1.0, True, 0.0)


def test_report_json_schema():
    r = verify_spectrum()
    d = r.to_json_dict()
    assert list(d) == ["test", "params", "max_residual", "tolerance", "pass", "runtime_s"]
    assert d["test"] == "spectrum"
    assert d["pass"] is True
    assert d["params"]["n_cells"] == 64


def test_interaction_small_grid():
    r = verify_mean_interaction(alphas=(0.5,), betas=(0.0, 0.3), n_labels=128, n_eval=33)
    assert r.passed and r.max_residual < 1e-8
    bad = verify_mean_interaction(alphas=(0.5,), betas=(0.3,), n_labels=128, n_eval=33, rhs_scale=1.01)
    assert not bad.passed


def test_interaction_beta_zero_slice_is_exact():
    r = verify_mean_interaction(alphas=(1.0, -2.0), betas=(0.0,), n_labels=256, n_eval=65)
    assert r.max_residual < 1e-14


def test_residuals_are_deterministic():
    a = verify_spectrum()
    b = verify_spectrum()
    assert a.max_residual == b.max_residual  # bitwise, not approximate
    c = verify_mean_interaction(alphas=(0.5,), betas=(0.3,), n_labels=128, n_eval=33)
    d = verify_mean_interaction(alphas=(0.5,), betas=(0.3,), n_labels=128, n_eval=33)
    assert c.max_residual == d.max_residual


def test_spectrum_sensitivity_control():
    # the control has the same eigenvalues, so the residual must come
    # from eigenvector alignment, not the spectrum
    good = verify_spectrum()
    assert good.passed
    assert "leading_pair" in good.extras
    bad = verify_spectrum(harmonic=2)
    assert not bad.passed
    assert abs(bad.extras["eigenvalue_residual"]) < 1e-12


def test_closure_detects_off_manifold_start():
    r = verify_oa_closure(t_end=1.0, n_modes=16)
    assert r.passed
    bad = verify_oa_closure(t_end=1.0, n_modes=16, off_manifold=0.05)
    assert not bad.passed
    with pytest.raises(DomainError):
        verify_oa_closure(a0=0.5 + 0.0j)


def test_bridge_reduced_size():
    r = verify_bridge(t_end=1.0, n_cells=256, n_labels=256)
    assert r.passed
    frozen = verify_bridge(t_end=1.0, n_cells=256, n_labels=256, drift_scale=0.0)
    assert not frozen.passed
    assert frozen.max_residual > 0.1  # the anchor drift carries the label shift


def test_sync_limit_probes():
    r = verify_sync_limit(n_labels=256)
    assert r.passed
    assert r.extras["q_deviation"] <= 1e-10
    assert set(r.extras["sups"]) == {"0.99", "0.999", "0.9999"}
    weak = verify_sync_limit(beta_probes=(0.9,), n_labels=256)
    assert not weak.passed


def test_sync_limit_penalizes_probes_that_do_not_approach_the_limit():
    # equal probes give equal distances: not decreasing, so one unit is added
    r = verify_sync_limit(beta_probes=(0.99, 0.99), n_labels=256)
    assert r.max_residual == 1.0 + r.extras["sups"]["0.99"]
    assert r.passed is False


def test_closure_stops_checking_past_a_synchrony_of_point_nine():
    # |c_1| passes 0.9 near t = 6.04; the records after it do not count
    assert oa_flow(OAPoint(0.0, 0.1), 6.2).beta > 0.9
    short = verify_oa_closure(t_end=6.2, dt=1e-2)
    long = verify_oa_closure(t_end=7.0, dt=1e-2)
    assert long.passed and long.max_residual == short.max_residual
    assert long.extras == short.extras


def test_run_suite_dispatch():
    assert set(NEGATIVE_CONTROLS) == set(SUITES)
    r = run_suite("spectrum")
    assert r.passed
    bad = run_suite("spectrum", negative_control=True)
    assert not bad.passed
    with pytest.raises(DomainError):
        run_suite("no-such-suite")


@pytest.mark.parametrize("betas, rhs_scale", [((0.3,), float("nan")), ((0.0,), float("inf"))])
def test_interaction_nan_residual_fails(betas, rhs_scale):
    # inf * beta 0 is NaN too
    r = verify_mean_interaction(alphas=(0.5,), betas=betas, n_labels=64, n_eval=9, rhs_scale=rhs_scale)
    assert np.isnan(r.max_residual)
    assert r.passed is False


def test_sync_limit_nan_q_deviation_fails():
    r = verify_sync_limit(n_labels=64, q_pair=(0.0, float("nan")))
    assert np.isnan(r.extras["q_deviation"])
    assert r.passed is False


@pytest.mark.parametrize("rhs_scale", [float("inf"), -float("inf")])
def test_interaction_infinite_scale_fails_without_a_warning(rhs_scale):
    # sin(alpha + theta) is 0 at alpha = 0, theta = 0, and inf * 0 warned
    r = verify_mean_interaction(
        alphas=(0.0,), betas=(0.3,), n_labels=64, n_eval=9, rhs_scale=rhs_scale
    )
    assert np.isnan(r.max_residual)
    assert r.passed is False


@pytest.mark.parametrize("q", [float("inf"), -float("inf")])
def test_sync_limit_infinite_q_fails_without_a_warning(q):
    # wrap_label of an infinite q warned before it gave the NaN limit
    r = verify_sync_limit(n_labels=64, q_pair=(0.0, q))
    assert np.isnan(r.extras["q_deviation"])
    assert r.passed is False


@pytest.mark.parametrize("q", [float("inf"), float("nan")])
def test_sync_limit_refuses_a_non_finite_first_q(q):
    with pytest.raises(DomainError, match="q must be finite"):
        verify_sync_limit(n_labels=64, q_pair=(q, 0.0))


@pytest.mark.parametrize("alpha", [float("inf"), -float("inf"), float("nan")])
def test_sync_limit_refuses_a_non_finite_alpha(alpha):
    # OAPoint refuses it before wrap_angle(2 pi - alpha) sees it, which warned
    with pytest.raises(DomainError, match="alpha must be finite"):
        verify_sync_limit(alpha=alpha, n_labels=64)


@pytest.mark.parametrize("a0", [complex(float("nan"), 0.0), complex(float("nan"), 1e308)])
def test_closure_refuses_a_nan_a0(a0):
    # |a0| > 0.3 is False for a NaN, so a0 ** n ran and could overflow
    with pytest.raises(DomainError, match=r"\|a0\| <= 0.3"):
        verify_oa_closure(a0=a0, t_end=0.1, n_modes=2, max_check=1)


def test_closure_refuses_an_off_manifold_start_with_one_mode():
    # there is no c_2 to replace; it was an IndexError
    with pytest.raises(DomainError, match="n_modes >= 2"):
        verify_oa_closure(t_end=0.1, n_modes=1, max_check=1, off_manifold=0.05)


def _nan_on_last_call(fn, n_calls, nan_result):
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        result = fn(*args, **kwargs)
        return nan_result(result) if len(calls) == n_calls else result

    return patched


def _nan_modes(traj):
    states = np.array(traj.states)
    states[-1, 1] = np.nan
    return types.SimpleNamespace(times=traj.times, states=states)


# case -> (verify-module attribute, calls it gets at SMALL size, its NaN result)
LATE_NAN = {
    "invariance": ("circle_distance", 3, lambda r: np.full_like(r, np.nan)),
    "bridge": ("circle_distance", 6, lambda r: np.full_like(r, np.nan)),
    "closure-defect": ("mfl_simulate_spectral", 1, _nan_modes),
    "closure-flow": ("oa_flow", 3, lambda p: types.SimpleNamespace(beta=np.nan)),
}


@pytest.mark.parametrize("case", sorted(LATE_NAN))
def test_running_maximum_keeps_a_late_nan(case, monkeypatch):
    # the NaN arrives after finite residuals, in the run's last record
    attribute, n_calls, nan_result = LATE_NAN[case]
    original = getattr(kuralim.verify, attribute)
    monkeypatch.setattr(
        kuralim.verify, attribute, _nan_on_last_call(original, n_calls, nan_result)
    )
    name = case.split("-")[0]
    r = SUITES[name](**SMALL[name])
    assert np.isnan(r.max_residual)
    assert r.passed is False


@pytest.mark.parametrize("alphas, betas", [((), ()), ((0.5,), ()), ((), (0.3,))])
def test_interaction_refuses_empty_grids(alphas, betas):
    with pytest.raises(DomainError):
        verify_mean_interaction(alphas=alphas, betas=betas, n_labels=64, n_eval=9)


@pytest.mark.parametrize("exclusion", [float("nan"), 0.6])
def test_sync_limit_refuses_an_exclusion_keeping_no_label(exclusion):
    with pytest.raises(DomainError):
        verify_sync_limit(n_labels=64, exclusion=exclusion)


def test_interaction_refuses_no_evaluation_points():
    with pytest.raises(DomainError, match="evaluation point"):
        verify_mean_interaction(n_labels=64, n_eval=0)


def test_closure_refuses_no_checked_modes():
    with pytest.raises(DomainError, match="max_check"):
        verify_oa_closure(t_end=0.2, n_modes=8, max_check=0)


@pytest.mark.parametrize("max_check", [1.5, 2.0, True])
def test_closure_refuses_a_non_integer_max_check(max_check):
    with pytest.raises(DomainError, match="max_check"):
        verify_oa_closure(t_end=0.1, n_modes=8, max_check=max_check)


def test_closure_refuses_a_non_integer_mode_count():
    with pytest.raises(DomainError, match="max_check"):
        verify_oa_closure(t_end=0.1, n_modes=8.5, max_check=4)


@pytest.mark.parametrize("n_eval", [2.5, 3.0, True])
def test_interaction_refuses_a_non_integer_n_eval(n_eval):
    with pytest.raises(DomainError, match="evaluation point"):
        verify_mean_interaction(alphas=(0.5,), betas=(0.3,), n_labels=64, n_eval=n_eval)


@pytest.mark.parametrize("n_cells", [16.5, 16.0])
def test_spectrum_refuses_a_non_integer_n_cells(n_cells):
    with pytest.raises(DomainError, match="integer"):
        verify_spectrum(n_cells=n_cells)


def test_closure_refuses_more_checked_modes_than_modes():
    with pytest.raises(DomainError, match="max_check"):
        verify_oa_closure(t_end=0.2, n_modes=8, max_check=20)


def test_sync_limit_refuses_no_beta_probes():
    with pytest.raises(DomainError, match="beta probe"):
        verify_sync_limit(n_labels=64, beta_probes=())


def test_sync_limit_refuses_an_empty_q_pair():
    with pytest.raises(DomainError, match="two q values"):
        verify_sync_limit(n_labels=64, q_pair=())


def test_sync_limit_refuses_a_single_q():
    # one q leaves no limits to compare, so the q-independence check would be skipped
    with pytest.raises(DomainError, match="two q values"):
        verify_sync_limit(n_labels=64, q_pair=(0.0,))


@pytest.mark.parametrize("name", sorted(SUITES))
def test_report_params_are_the_suite_arguments(name):
    report = SUITES[name](**SMALL[name])
    expected = [p for p in inspect.signature(SUITES[name]).parameters if p != "tolerance"]
    assert list(report.params) == expected
    for key, value in SMALL[name].items():
        assert report.params[key] == (list(value) if isinstance(value, tuple) else value)


def test_library_call_records_arguments_as_passed():
    r = verify_sync_limit(n_labels=64, q_pair=(0, 2), beta_probes=(0.999, 0.99))
    assert r.params["q_pair"] == [0, 2]
    assert r.params["beta_probes"] == [0.999, 0.99]


def test_numpy_scalar_arguments_reach_the_suite_as_python_numbers():
    # np.float64(-inf) * 0.0 warned in the reference loop before oa_flow refused the NaN time
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            verify_manifold_invariance(
                flow_scale=np.float64(-np.inf), t_end=0.01, dt=0.01, n_labels=8
            )


def test_numpy_scalar_arguments_are_recorded_as_json_numbers():
    # np.int64 n_cells was recorded as is, and json.dumps refused it
    r = verify_spectrum(n_cells=np.int64(16))
    assert json.loads(json.dumps(r.to_json_dict()))["params"]["n_cells"] == 16
    r = verify_sync_limit(n_labels=np.int64(64), q_pair=(np.float64(0.0), np.float64(2.0)))
    assert json.loads(json.dumps(r.params)) == r.params
    assert type(r.params["n_labels"]) is int and r.params["q_pair"] == [0.0, 2.0]


VERIFY_ALL = [
    {
        "test": "mean-interaction",
        "params": {
            "alphas": [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
            "betas": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
            "n_labels": 1024,
            "n_eval": 257,
            "rhs_scale": 1.0,
        },
        "tolerance": 1e-08,
        "pass": True,
    },
    {
        "test": "manifold-invariance",
        "params": {
            "alpha": 0.3,
            "beta0": 0.1,
            "q": 0.0,
            "t_end": 4.0,
            "n_labels": 1024,
            "dt": 0.001,
            "output_every": 0.1,
            "flow_scale": 1.0,
        },
        "tolerance": 1e-05,
        "pass": True,
    },
    {
        "test": "spectrum",
        "params": {"n_cells": 64, "harmonic": 1},
        "tolerance": 1e-08,
        "pass": True,
    },
    {
        "test": "oa-closure",
        "params": {
            "a0": [0.09800665778412417, 0.019866933079506124],
            "t_end": 4.0,
            "n_modes": 64,
            "dt": 0.001,
            "output_every": 0.1,
            "max_check": 8,
            "off_manifold": 0.0,
        },
        "tolerance": 1e-06,
        "pass": True,
    },
    {
        "test": "bridge",
        "params": {
            "alpha": 0.4,
            "beta0": 0.2,
            "t_end": 2.0,
            "n_cells": 512,
            "n_labels": 512,
            "dt": 0.01,
            "drift_scale": 1.0,
        },
        "tolerance": 0.005,
        "pass": True,
    },
    {
        "test": "sync-limit",
        "params": {
            "alpha": 1.0,
            "q_pair": [0.0, 2.0],
            "beta_probes": [0.99, 0.999, 0.9999],
            "n_labels": 1024,
            "exclusion": 0.05,
        },
        "tolerance": 0.1,
        "pass": True,
    },
]


def test_verify_all_writes_the_registered_reports(tmp_path, capsys):
    # perfbench reads t_end, dt and the size keys from these params
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "all", "--output", str(out)]) == 0
    capsys.readouterr()
    reports = json.loads(out.read_text())
    for report in reports:
        assert report.pop("runtime_s") >= 0.0
        assert report.pop("max_residual") <= report["tolerance"]
    assert reports == VERIFY_ALL
    assert [list(r) for r in reports] == [["test", "params", "tolerance", "pass"]] * 6
    assert [list(r["params"]) for r in reports] == [list(r["params"]) for r in VERIFY_ALL]
