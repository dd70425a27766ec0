"""Configuration parsing and end-to-end command runs."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kuralim
from kuralim import (
    TWO_PI,
    KuramotoSin,
    LabelGrid,
    OAPoint,
    OddTrig,
    ParseError,
    TabulatedGradient,
    ValidationError,
    cl_simulate,
    ds_simulate,
    mfl_simulate_grid,
    mfl_simulate_spectral,
    mfl_to_cl_circle,
    oa_cdf,
    oa_density,
    oa_flow,
    oa_quantile,
)
from kuralim.cli import (
    _build_initial,
    _oa_flow_times,
    _read_density_csv,
    _write_csv,
    parse_config,
    run_cli,
)

NUMBER = re.compile(r"-?\d\.\d{16}e[+-]\d{2,3}$")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal_document_fills_defaults():
    cfg = parse_config("mode: cl\nkernel: kuramoto\nn_labels: 256\nT: 1\n")
    assert cfg.dt == 1e-3
    assert cfg.output_every == 0.1
    assert cfg.size == 256 and cfg.t_end == 1.0
    assert isinstance(cfg.kernel, KuramotoSin)
    assert cfg.initial == {"type": "twisted", "m": 1}  # identity field default
    grid_cfg = parse_config("mode: mfl-grid\nkernel: kuramoto\nn_cells: 64\nT: 1\n")
    assert grid_cfg.initial == {"type": "uniform"}


def test_parse_rejects_unknown_and_bad_values_together():
    doc = "mode: cl\nkernel: kuramoto\nn_labels: -3\nT: 1\ndt: -0.5\nbogus_key: 1\n"
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    msg = str(err.value)
    # every violation is listed at once
    assert "unknown keys ['bogus_key']" in msg
    assert "n_labels must be a positive integer" in msg
    assert "dt must be a positive number" in msg


def test_parse_rejects_negative_dt():
    with pytest.raises(ValidationError):
        parse_config("mode: cl\nkernel: kuramoto\nn_labels: 8\nT: 1\ndt: -1e-3\n")


def test_parse_reads_exponent_floats():
    # YAML 1.1 loads 1e-3 (no dot) as a string
    cfg = parse_config("mode: cl\nn_labels: 8\ndt: 1e-3\nT: 2E0\noutput_every: 5e-2\n")
    assert (cfg.dt, cfg.t_end, cfg.output_every) == (1e-3, 2.0, 0.05)
    for bad in ("dt: 1e-3x", "dt: .inf", "dt: 1e400", "output_every: e3"):
        with pytest.raises(ValidationError):
            parse_config(f"mode: cl\nn_labels: 8\nT: 1\n{bad}\n")
    for bad in ("T: .nan", "T: -1e-3", "T: 1e400"):
        with pytest.raises(ValidationError):
            parse_config(f"mode: cl\nn_labels: 8\n{bad}\n")


def test_readme_simulate_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"### simulate\n.*?```yaml\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    Path("run.yaml").write_text(example)
    assert run_cli(["simulate", "--config", "run.yaml"]) == 0
    rows = np.loadtxt("run.csv", delimiter=",", skiprows=1)
    assert rows.shape == (11, 257)


def test_parse_rejects_oa_beta_outside_unit_disc():
    doc = (
        "mode: cl\nkernel: kuramoto\nn_labels: 8\nT: 1\n"
        "initial: {type: oa, alpha: 0.3, beta: 1.2}\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "beta in [0, 1)" in str(err.value)


def test_parse_mode_and_size_key_coupling():
    with pytest.raises(ValidationError):
        parse_config("mode: nope\nkernel: kuramoto\nn_labels: 8\nT: 1\n")
    with pytest.raises(ValidationError) as err:
        parse_config("mode: cl\nkernel: kuramoto\nN: 8\nT: 1\n")
    assert "do not apply" in str(err.value)


def test_parse_seed_rules():
    base = "mode: ds\nkernel: kuramoto\nN: 8\nT: 0.1\ninitial: {type: uniform}\n"
    with pytest.raises(ValidationError) as err:
        parse_config(base)
    assert "seed" in str(err.value)
    cfg = parse_config(base + "seed: 42\n")
    assert cfg.seed == 42
    with pytest.raises(ValidationError):
        parse_config("mode: cl\nkernel: kuramoto\nn_labels: 8\nT: 1\nseed: 1\n")


def test_parse_kernel_specs():
    cfg = parse_config(
        "mode: cl\nkernel: {type: odd-trig, coefficients: [1.0, 0.5]}\nn_labels: 8\nT: 1\n"
    )
    assert isinstance(cfg.kernel, OddTrig)
    assert cfg.kernel.coefficients == (1.0, 0.5)
    tab = parse_config(
        "mode: cl\n"
        "kernel: {type: tabulated, offsets: [-3.2, 0.0, 3.2], values: [0.1, 0.0, -0.1], periodic: true}\n"
        "n_labels: 8\nT: 1\n"
    )
    assert isinstance(tab.kernel, TabulatedGradient)
    with pytest.raises(ValidationError):
        parse_config("mode: mfl-spectral\nkernel: {type: kuramoto, coupling: 2.0}\nn_modes: 8\nT: 1\n")


def test_parse_malformed_yaml():
    with pytest.raises(ParseError):
        parse_config("mode: [unclosed\n")
    with pytest.raises(ParseError):
        parse_config("")
    with pytest.raises(ParseError):
        parse_config("- just\n- a\n- list\n")


def test_ds_and_cl_outputs_are_byte_identical(tmp_path):
    common = "kernel: kuramoto\ndt: 0.01\nT: 0.5\noutput_every: 0.1\ninitial: {type: oa, alpha: 0.3, beta: 0.2}\n"
    ds_cfg = _write(tmp_path, "ds.yaml", f"mode: ds\nN: 32\n{common}output: {tmp_path}/ds.csv\n")
    cl_cfg = _write(tmp_path, "cl.yaml", f"mode: cl\nn_labels: 32\n{common}output: {tmp_path}/cl.csv\n")
    assert run_cli(["simulate", "--config", ds_cfg]) == 0
    assert run_cli(["simulate", "--config", cl_cfg]) == 0
    assert (tmp_path / "ds.csv").read_bytes() == (tmp_path / "cl.csv").read_bytes()


def test_rerun_reproduces_bytes(tmp_path):
    cfg = _write(
        tmp_path,
        "run.yaml",
        "mode: ds\nN: 16\nkernel: kuramoto\ndt: 0.01\nT: 0.3\noutput_every: 0.1\n"
        f"initial: {{type: uniform}}\nseed: 7\noutput: {tmp_path}/a.csv\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    meta = json.loads((tmp_path / "a.meta.json").read_text())
    assert meta == {"seed": 7}
    assert run_cli(["simulate", "--config", cfg, "--output", str(tmp_path / "b.csv")]) == 0
    assert first == (tmp_path / "b.csv").read_bytes()


def test_csv_format_contract(tmp_path):
    cfg = _write(
        tmp_path,
        "run.yaml",
        "mode: cl\nn_labels: 4\nkernel: kuramoto\ndt: 0.05\nT: 0.1\noutput_every: 0.05\n"
        f"initial: {{type: twisted, m: 1}}\noutput: {tmp_path}/t.csv\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    text = (tmp_path / "t.csv").read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "t,x_0,x_1,x_2,x_3"
    assert len(lines) == 4  # header + t = 0, 0.05, 0.1
    for line in lines[1:]:
        for cell in line.split(","):
            assert NUMBER.match(cell), cell


def test_spectral_and_grid_headers(tmp_path):
    spec_cfg = _write(
        tmp_path,
        "s.yaml",
        "mode: mfl-spectral\nn_modes: 3\nkernel: kuramoto\ndt: 0.05\nT: 0.1\noutput_every: 0.05\n"
        f"initial: {{type: oa, alpha: 0.0, beta: 0.1}}\noutput: {tmp_path}/s.csv\n",
    )
    assert run_cli(["simulate", "--config", spec_cfg]) == 0
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == "t,re_c_1,im_c_1,re_c_2,im_c_2,re_c_3,im_c_3"
    grid_cfg = _write(
        tmp_path,
        "g.yaml",
        "mode: mfl-grid\nn_cells: 4\nkernel: kuramoto\ndt: 0.01\nT: 0.05\noutput_every: 0.01\n"
        f"output: {tmp_path}/g.csv\n",
    )
    assert run_cli(["simulate", "--config", grid_cfg]) == 0
    assert (tmp_path / "g.csv").read_text().splitlines()[0] == "t,f_0,f_1,f_2,f_3"


def test_transform_writes_field_and_drift_sidecar(tmp_path):
    cfg = _write(
        tmp_path,
        "g.yaml",
        "mode: mfl-grid\nn_cells: 64\nkernel: kuramoto\ndt: 0.02\nT: 0.2\noutput_every: 0.02\n"
        f"initial: {{type: oa, alpha: 0.4, beta: 0.2}}\noutput: {tmp_path}/g.csv\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    assert run_cli(["transform", "--config", cfg, "--n-labels", "16"]) == 0
    text = (tmp_path / "g.transform.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "t,xi,x"
    assert len(lines) == 1 + 11 * 16  # 11 recorded times, 16 labels each
    sidecar = json.loads((tmp_path / "g.transform.drift.json").read_text())
    assert sidecar["drift"][0] == 0.0
    assert len(sidecar["times"]) == 11


def _grid_run(tmp_path):
    """An 8-cell density run recorded every step, fine enough to transform."""
    cfg = _write(
        tmp_path,
        "g.yaml",
        "mode: mfl-grid\nn_cells: 8\nkernel: kuramoto\ndt: 0.01\nT: 0.05\noutput_every: 0.01\n"
        f"initial: {{type: oa, alpha: 0.4, beta: 0.2}}\noutput: {tmp_path}/g.csv\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    return cfg


@pytest.mark.parametrize(
    "args, message",
    [
        (["--drift-scale", "nan"], "--drift-scale must be a finite number"),
        (["--drift-scale", "inf"], "--drift-scale must be a finite number"),
        (["--n-labels", "0"], "--n-labels must be at least 1"),
        (["--n-labels", "-2"], "--n-labels must be at least 1"),
    ],
    ids=["drift-nan", "drift-inf", "labels-zero", "labels-negative"],
)
def test_transform_rejects_bad_arguments(tmp_path, capsys, args, message):
    cfg = _grid_run(tmp_path)
    assert run_cli(["transform", "--config", cfg, *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "g.transform.csv").exists()
    assert not (tmp_path / "g.transform.drift.json").exists()


def test_transform_rejects_non_finite_density(tmp_path, capsys):
    cfg = _grid_run(tmp_path)
    path = tmp_path / "g.csv"
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[3] = "nan"
    lines[2] = ",".join(cells)
    path.write_text("".join(lines))
    assert run_cli(["transform", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: density values must be finite\n"
    assert not (tmp_path / "g.transform.csv").exists()


def test_transform_refuses_coarse_recording(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "g.yaml",
        "mode: mfl-grid\nn_cells: 64\nkernel: kuramoto\ndt: 0.002\nT: 0.4\noutput_every: 0.1\n"
        f"initial: {{type: oa, alpha: 0.4, beta: 0.2}}\noutput: {tmp_path}/g.csv\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    # the stored CSV has no drift column, and snapshots every 0.1 are too
    # coarse for the fallback quadrature
    assert run_cli(["transform", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_transform_requires_grid_mode(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml", "mode: cl\nkernel: kuramoto\nn_labels: 8\nT: 0.1\n")
    assert run_cli(["transform", "--config", cfg]) == 2
    assert "mfl-grid" in capsys.readouterr().err


def test_oa_flow_matches_closed_form(tmp_path):
    out = tmp_path / "flow.csv"
    assert run_cli([
        "oa", "flow", "--alpha", "0.3", "--beta", "0.1", "--t", "2", "--output", str(out)
    ]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (21, 3)
    assert rows[0, 2] == 0.1
    p = OAPoint(0.3, 0.1)
    for t, _, beta in rows:
        assert abs(beta - oa_flow(p, t).beta) < 1e-15


@pytest.mark.parametrize(
    "t_end, times",
    [("0.25", [0.0, 0.1, 0.2, 0.25]), ("0.3", [0.0, 0.1, 0.2, 0.3]), ("0", [0.0])],
    ids=["remainder", "exact-multiple", "zero"],
)
def test_oa_flow_recording_times(tmp_path, t_end, times):
    out = tmp_path / "flow.csv"
    assert run_cli([
        "oa", "flow", "--alpha", "0.3", "--beta", "0.1", "--t", t_end,
        "--output-every", "0.1", "--output", str(out),
    ]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) == len(times)
    # 3 * 0.1 rounds to 0.30000000000000004: the last row is that step, not a
    # duplicate at t = 0.3
    assert np.allclose(rows[:, 0], times, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("t_end", ["inf", "nan"])
def test_oa_flow_rejects_non_finite_time(tmp_path, capsys, t_end):
    out = tmp_path / "flow.csv"
    assert run_cli(["oa", "flow", "--alpha", "0.3", "--beta", "0.1", "--t", t_end, "--output", str(out)]) == 2
    assert "error: final time must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "every, t_end", [(1e-300, 1.0), (1e-300, 1e300), (1e-7, 1.0), (1.0, 1e300), (5e-324, 1.0)]
)
def test_oa_flow_refuses_schedules_over_the_row_limit(every, t_end):
    # checked on the pair alone: none of these schedules is ever built
    with pytest.raises(ValidationError, match="more than 10000000 rows"):
        _oa_flow_times(every, t_end)


def test_oa_flow_row_limit_bounds_the_written_rows(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("kuralim.cli.MAX_OA_ROWS", 10)
    assert len(_oa_flow_times(1.0, 8.0)) == 9
    assert len(_oa_flow_times(1.0, 7.5)) == 9
    with pytest.raises(ValidationError):
        _oa_flow_times(1.0, 8.5)
    out = tmp_path / "flow.csv"
    args = ["oa", "flow", "--alpha", "0.3", "--beta", "0.5", "--t", "1", "--output", str(out)]
    assert run_cli(args + ["--output-every", "0.125"]) == 0
    assert len(out.read_text().splitlines()) == 10  # header + 9 rows
    out.unlink()
    assert run_cli(args + ["--output-every", "0.1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_grid_output_every_rounds_to_whole_steps(tmp_path):
    cfg = _write(
        tmp_path,
        "g.yaml",
        "mode: mfl-grid\nn_cells: 4\nkernel: kuramoto\ndt: 0.01\nT: 0.02\noutput_every: 0.015\n"
        f"output: {tmp_path}/g.csv\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    rows = np.loadtxt(tmp_path / "g.csv", delimiter=",", skiprows=1)
    assert rows[:, 0].tolist() == [0.0, 0.02]


def test_oa_eval_table(tmp_path):
    out = tmp_path / "eval.csv"
    assert run_cli([
        "oa", "eval", "--alpha", "0.5", "--beta", "0.4", "--n", "16", "--output", str(out)
    ]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (17, 5)
    theta, density, cdf, xi, quantile = rows.T
    assert theta[0] == 0.0 and abs(theta[-1] - 2 * np.pi) < 1e-15
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    assert np.all(np.diff(cdf) > 0.0)
    assert np.all(density > 0.0)
    assert abs(quantile[-1] - 2 * np.pi) < 1e-12


def test_verify_subcommand_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "spectrum", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["test"] == "spectrum"
    assert report["pass"] is True
    assert list(report) == ["test", "params", "max_residual", "tolerance", "pass", "runtime_s"]
    capsys.readouterr()
    assert run_cli(["verify", "spectrum", "--negative-control"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["pass"] is False
    assert "FAIL" in captured.err


def test_missing_config_exits_two(tmp_path, capsys):
    assert run_cli(["simulate", "--config", str(tmp_path / "missing.yaml")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_arguments_exit_two(capsys):
    assert run_cli(["simulate"]) == 2  # --config is required
    assert run_cli(["verify", "no-such-suite"]) == 2
    capsys.readouterr()


def test_version_prints_package_version(capsys):
    assert run_cli(["version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kuralim ")


def test_file_initial_round_trip(tmp_path):
    positions = np.array([0.1, 2.0, 4.0, 5.5])
    init = tmp_path / "init.csv"
    np.savetxt(init, positions, fmt="%.17e")
    cfg = _write(
        tmp_path,
        "run.yaml",
        "mode: ds\nN: 4\nkernel: kuramoto\ndt: 0.05\nT: 0.0\noutput_every: 0.05\n"
        f"initial: {{type: file, path: '{init}'}}\noutput: {tmp_path}/out.csv\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    rows = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.allclose(rows[0, 1:], positions, atol=1e-15)


@pytest.mark.parametrize(
    "mode, size_key, line",
    [("ds", "N", "0.5"), ("cl", "n_labels", "0.5"), ("mfl-grid", "n_cells", "0.5"),
     ("mfl-spectral", "n_modes", "0.1,0.0")],
)
def test_file_initial_length_must_match_size(tmp_path, capsys, mode, size_key, line):
    init = _write(tmp_path, "init.csv", f"{line}\n" * 3)
    cfg = _write(
        tmp_path,
        "run.yaml",
        f"mode: {mode}\n{size_key}: 5\nT: 0.0\n"
        f"initial: {{type: file, path: '{init}'}}\noutput: {tmp_path}/out.csv\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert "error: initial file" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_malformed_numbers_exit_two(tmp_path, capsys):
    init = _write(tmp_path, "init.csv", "0.1\nabc\n0.3\n")
    cfg = _write(
        tmp_path,
        "run.yaml",
        f"mode: ds\nN: 3\nT: 0.0\ninitial: {{type: file, path: '{init}'}}\n"
        f"output: {tmp_path}/out.csv\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert "error: cannot read numbers" in capsys.readouterr().err
    # the same for a stored density trajectory handed to transform
    traj = _write(tmp_path, "traj.csv", "t,f_0,f_1\n0.0,0.1,oops\n")
    grid = _write(tmp_path, "g.yaml", "mode: mfl-grid\nn_cells: 2\nT: 0.0\n")
    assert run_cli(["transform", "--config", grid, "--input", traj]) == 2
    assert "error: cannot read numbers" in capsys.readouterr().err


NON_FINITE_KERNELS = [
    "{type: tabulated, offsets: [-7.0, 0.0, 7.0], values: [.inf, 0.0, -.inf], periodic: false}",
    "{type: tabulated, offsets: [-7.0, .nan, 7.0], values: [1.0, 0.0, -1.0], periodic: false}",
    "{type: kuramoto, coupling: .nan}",
    "{type: kuramoto, coupling: 1e400}",
    "{type: odd-trig, coefficients: [1.0, .inf]}",
]


@pytest.mark.parametrize("kernel", NON_FINITE_KERNELS)
def test_non_finite_kernel_parameters_exit_two(tmp_path, capsys, kernel):
    cfg = _write(
        tmp_path,
        "run.yaml",
        f"mode: ds\nN: 4\ndt: 0.01\nT: 0.01\ninitial: {{type: twisted, m: 1}}\n"
        f"kernel: {kernel}\noutput: {tmp_path}/out.csv\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "kernel" in err and "finite" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "initial",
    ["{type: oa, alpha: .nan, beta: 0.2}", "{type: oa, alpha: 0.1, beta: .nan}",
     "{type: oa, alpha: 0.1, beta: 0.2, q: .inf}", "{type: twisted, m: 1, q: -.inf}"],
)
def test_non_finite_initial_parameters_exit_two(tmp_path, capsys, initial):
    cfg = _write(tmp_path, "run.yaml", f"mode: cl\nn_labels: 8\nT: 0.0\ninitial: {initial}\n")
    assert run_cli(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "initial" in err


def test_kernel_and_initial_parameters_read_exponent_floats():
    cfg = parse_config(
        "mode: cl\nn_labels: 8\nT: 1\nkernel: {type: kuramoto, coupling: 1e-3}\n"
        "initial: {type: oa, alpha: 1e-1, beta: 2E-1, q: 5e-1}\n"
    )
    assert cfg.kernel == KuramotoSin(1e-3)
    assert (cfg.initial["alpha"], cfg.initial["beta"], cfg.initial["q"]) == (0.1, 0.2, 0.5)
    trig = parse_config(
        "mode: ds\nN: 8\nT: 1\nkernel: {type: odd-trig, coefficients: [1, 1e-1]}\n"
        "initial: {type: twisted, m: 1, q: 1e-2}\n"
    )
    assert trig.kernel.coefficients == (1.0, 0.1)
    assert trig.initial["q"] == 0.01
    tab = parse_config(
        "mode: mfl-grid\nn_cells: 8\nT: 1\n"
        "kernel: {type: tabulated, offsets: [-3.2e0, 0, 3.2e0], values: [1e-1, 0, -1e-1]}\n"
    )
    assert tab.kernel.offsets.tolist() == [-3.2, 0.0, 3.2]
    assert tab.kernel.values.tolist() == [0.1, 0.0, -0.1]


def test_import_loads_no_scipy():
    src = str(Path(kuralim.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, kuralim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# ------------------------------------------------------------ CSV bytes
#
# Every CSV writer hands one float table to ``_write_csv``.  The reference
# below is the writer it replaced, fed with that writer's rows, so each
# output keeps its bytes.


def _frozen_fmt(x: float) -> str:
    return f"{x:.16e}"


def _frozen_write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_frozen_fmt(x) for x in row) + "\n")


SIM_CONFIGS = {
    "ds": "mode: ds\nN: 5\nkernel: {type: odd-trig, coefficients: [1.0, 0.3]}\n"
    "initial: {type: uniform}\nseed: 3\n",
    "cl": "mode: cl\nn_labels: 6\ninitial: {type: oa, alpha: 0.3, beta: 0.2, q: 1.0}\n",
    "mfl-spectral": "mode: mfl-spectral\nn_modes: 4\ninitial: {type: oa, alpha: -0.7, beta: 0.3}\n",
    "mfl-grid": "mode: mfl-grid\nn_cells: 8\nkernel: {type: kuramoto, coupling: 0.5}\n"
    "initial: {type: oa, alpha: 0.4, beta: 0.2}\n",
}


def _per_float_rows(config):
    """The header and row generator of the per-float simulate writer."""
    initial = _build_initial(config)
    schedule = (config.dt, config.t_end, config.output_every)
    n = config.size
    if config.mode in ("ds", "cl"):
        simulate = ds_simulate if config.mode == "ds" else cl_simulate
        traj = simulate(initial, config.kernel, *schedule)
        header = ["t"] + [f"x_{j}" for j in range(n)]
        return header, ([t, *state] for t, state in zip(traj.times, traj.states))
    if config.mode == "mfl-grid":
        traj = mfl_simulate_grid(initial, config.kernel, *schedule)
        header = ["t"] + [f"f_{j}" for j in range(n)]
        return header, ([t, *values] for t, values in zip(traj.times, traj.values))
    traj = mfl_simulate_spectral(initial, *schedule)
    header = ["t"] + [f"{part}_c_{k}" for k in range(1, n + 1) for part in ("re", "im")]

    def rows_spectral():
        for t, modes in zip(traj.times, traj.states):
            row = [float(t)]
            for c in modes:
                row += [c.real, c.imag]
            yield row

    return header, rows_spectral()


@pytest.mark.parametrize("mode", list(SIM_CONFIGS))
def test_simulate_csv_bytes_match_per_float_writer(tmp_path, mode):
    text = SIM_CONFIGS[mode] + "dt: 0.01\nT: 0.05\noutput_every: 0.02\n"
    cfg = _write(tmp_path, "run.yaml", text)
    assert run_cli(["simulate", "--config", cfg, "--output", str(tmp_path / "new.csv")]) == 0
    _frozen_write_csv(tmp_path / "old.csv", *_per_float_rows(parse_config(text)))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_transform_csv_bytes_match_per_float_writer(tmp_path):
    cfg = _grid_run(tmp_path)
    args = ["--n-labels", "5", "--drift-scale", "0.5", "--output", str(tmp_path / "new.csv")]
    assert run_cli(["transform", "--config", cfg, *args]) == 0
    traj = _read_density_csv(str(tmp_path / "g.csv"), 8)
    result = mfl_to_cl_circle(traj, KuramotoSin(), LabelGrid(5), drift_scale=0.5)
    mids = result.label_grid.midpoints
    rows = (
        [t, mids[j], result.fields[k, j]]
        for k, t in enumerate(result.times)
        for j in range(5)
    )
    _frozen_write_csv(tmp_path / "old.csv", ["t", "xi", "x"], rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_oa_csv_bytes_match_per_float_writer(tmp_path):
    eval_args = ["--alpha", "0.5", "--beta", "0.4", "--n", "7", "--output", str(tmp_path / "eval.csv")]
    assert run_cli(["oa", "eval", *eval_args]) == 0
    p = OAPoint(0.5, 0.4)
    theta = np.arange(8) * (TWO_PI / 7)
    theta[-1] = TWO_PI
    xi = np.arange(8) / 7
    rows = zip(theta, oa_density(p, theta), oa_cdf(p, theta), xi, oa_quantile(p, xi))
    _frozen_write_csv(tmp_path / "eval-old.csv", ["theta", "density", "cdf", "xi", "quantile"], rows)
    assert (tmp_path / "eval.csv").read_bytes() == (tmp_path / "eval-old.csv").read_bytes()

    flow_args = ["--alpha", "0.3", "--beta", "0.1", "--t", "0.25", "--output", str(tmp_path / "flow.csv")]
    assert run_cli(["oa", "flow", *flow_args]) == 0
    p = OAPoint(0.3, 0.1)
    times = [k * 0.1 for k in range(3)] + [0.25]
    rows = ([t, p.alpha, oa_flow(p, t).beta] for t in times)
    _frozen_write_csv(tmp_path / "flow-old.csv", ["t", "alpha", "beta"], rows)
    assert (tmp_path / "flow.csv").read_bytes() == (tmp_path / "flow-old.csv").read_bytes()


def test_write_csv_special_values_match_per_float_writer(tmp_path):
    tiny = 5e-324
    table = np.array([
        [0.0, -0.0, tiny, -tiny],
        [2.2250738585072014e-308, -1e-310, 1e300, -1e300],
        [1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf],
        [np.nan, 1.0 / 3.0, -np.pi, 1e-5],
    ])
    _write_csv(str(tmp_path / "new.csv"), ["a", "b", "c", "d"], table)
    _frozen_write_csv(tmp_path / "old.csv", ["a", "b", "c", "d"], table)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.splitlines()[1] == (
        b"0.0000000000000000e+00,-0.0000000000000000e+00,"
        b"4.9406564584124654e-324,-4.9406564584124654e-324"
    )
