"""Configuration parsing and end-to-end command runs."""
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import kuralim
from kuralim import cli
from kuralim import (
    TWO_PI,
    KuramotoSin,
    LabelGrid,
    OAPoint,
    OddTrig,
    ParseError,
    TabulatedGradient,
    ThetaGrid,
    ValidationError,
    manifold_field,
    mfl_to_cl_circle,
    oa_cdf,
    oa_cell_averages,
    oa_density,
    oa_flow,
    oa_quantile,
)
from kuralim.cli import (
    CSV_CHUNK_VALUES,
    MAX_SIZE,
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


def _single_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


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


def test_readme_quick_tour_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (tour,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(tour, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("OAPoint(")


def test_parse_rejects_oa_beta_outside_unit_disc():
    doc = (
        "mode: cl\nkernel: kuramoto\nn_labels: 8\nT: 1\n"
        "initial: {type: oa, alpha: 0.3, beta: 1.2}\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "beta in [0, 1]" in str(err.value)


def test_parse_accepts_oa_beta_one_as_the_flag_does():
    # the config once took [0, 1) while --beta took [0, 1]; OAPoint clamps both
    cfg = parse_config("mode: cl\nn_labels: 8\nT: 1\ninitial: {type: oa, alpha: 0.0, beta: 1}\n")
    assert cfg.initial["beta"] == 1.0
    assert _build_initial(cfg).positions.tobytes() == (
        manifold_field(LabelGrid(8), OAPoint(0.0, 1.0)).values.tobytes()
    )


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
    cfg = _grid_run(tmp_path, "n_cells: 64\nkernel: kuramoto\ndt: 0.02\nT: 0.2\noutput_every: 0.02\n")
    assert run_cli(["transform", "--config", cfg, "--n-labels", "16"]) == 0
    text = (tmp_path / "g.transform.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "t,xi,x"
    assert len(lines) == 1 + 11 * 16  # 11 recorded times, 16 labels each
    sidecar = json.loads((tmp_path / "g.transform.drift.json").read_text())
    assert sidecar["drift"][0] == 0.0
    assert len(sidecar["times"]) == 11


def _grid_run(tmp_path, head="n_cells: 8\nkernel: kuramoto\ndt: 0.01\nT: 0.05\noutput_every: 0.01\n"):
    """The config path of a finished density run of ``head`` from an OA
    initial; by default 8 cells recorded every step, fine enough to transform."""
    text = f"mode: mfl-grid\n{head}initial: {{type: oa, alpha: 0.4, beta: 0.2}}\noutput: {tmp_path}/g.csv\n"
    cfg = _write(tmp_path, "g.yaml", text)
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
    cfg = _grid_run(tmp_path, "n_cells: 64\nkernel: kuramoto\ndt: 0.002\nT: 0.4\noutput_every: 0.1\n")
    # the stored CSV has no drift column, and snapshots every 0.1 are too
    # coarse for the fallback quadrature
    assert run_cli(["transform", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "every, t_end", [(1e-300, 1.0), (1e-300, 1e300), (1e-7, 1.0), (1.0, 1e300), (5e-324, 1.0)]
)
def test_oa_flow_refuses_schedules_over_the_row_limit(every, t_end):
    # checked on the pair alone: none of these schedules is ever built
    with pytest.raises(ValidationError, match="more than 10000000 rows"):
        _oa_flow_times(every, t_end)


@pytest.mark.parametrize("mode, size_key", [("ds", "N"), ("cl", "n_labels")])
def test_twisted_winding_past_float_range_exits_two(tmp_path, capsys, mode, size_key):
    def run(m):
        cfg = _write(
            tmp_path,
            "run.yaml",
            f"mode: {mode}\n{size_key}: 4\ndt: 0.01\nT: 0.02\n"
            f"initial: {{type: twisted, m: {m}}}\noutput: {tmp_path}/out.csv\n",
        )
        return run_cli(["simulate", "--config", cfg])

    assert run(10**300) == 0
    (tmp_path / "out.csv").unlink()
    for m in (10**400, -(10**400)):
        assert run(m) == 2
        assert "integer winding m" in _single_error_line(capsys)
        assert not (tmp_path / "out.csv").exists()


def test_oa_flow_from_a_subnormal_beta_stays_finite(tmp_path, capsys):
    # the old form divided 1e-320 by sqrt(beta^2 + exp(-1000)), both terms underflowed to 0
    out = tmp_path / "tiny.csv"
    assert run_cli([
        "oa", "flow", "--alpha", "0", "--beta", "1e-320", "--t", "1000", "--output-every", "100",
        "--output", str(out),
    ]) == 0
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()
    assert len(rows) == 12
    assert rows[-1] == "1.0000000000000000e+03,0.0000000000000000e+00,1.4035765919170885e-103"


def test_oa_flow_row_limit_bounds_the_written_rows(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("kuralim.cli.MAX_SIZE", 10)
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


@pytest.mark.parametrize(
    "mode, size_key, extra",
    [("ds", "N", "seed: 1\n"), ("cl", "n_labels", ""), ("mfl-spectral", "n_modes", ""),
     ("mfl-grid", "n_cells", "")],
    ids=["ds", "cl", "mfl-spectral", "mfl-grid"],
)
def test_size_keys_refuse_sizes_over_the_limit(tmp_path, capsys, monkeypatch, mode, size_key, extra):
    def text(size):
        return (
            f"mode: {mode}\n{size_key}: {size}\ndt: 0.01\nT: 0.02\n{extra}"
            f"output: {tmp_path}/out.csv\n"
        )

    # refused while parsing, before any array is built
    parse_config(text(MAX_SIZE))
    with pytest.raises(ValidationError, match=f"{size_key} must be at most 10000000"):
        parse_config(text(MAX_SIZE + 1))
    monkeypatch.setattr("kuralim.cli.MAX_SIZE", 4)
    assert run_cli(["simulate", "--config", _write(tmp_path, "run.yaml", text(4))]) == 0
    (tmp_path / "out.csv").unlink()
    assert run_cli(["simulate", "--config", _write(tmp_path, "run.yaml", text(5))]) == 2
    assert _single_error_line(capsys) == f"error: {size_key} must be at most 4"
    assert not (tmp_path / "out.csv").exists()


def test_transform_refuses_label_counts_over_the_limit(tmp_path, capsys, monkeypatch):
    cfg = _grid_run(tmp_path)
    monkeypatch.setattr("kuralim.cli.MAX_SIZE", 16)
    out = tmp_path / "fields.csv"
    args = ["transform", "--config", cfg, "--output", str(out), "--n-labels"]
    assert run_cli(args + ["16"]) == 0
    assert len(out.read_text().splitlines()) == 1 + 16 * 6  # header + 16 labels x 6 times
    out.unlink()
    assert run_cli(args + ["17"]) == 2
    assert _single_error_line(capsys) == "error: --n-labels must be at most 16"
    assert not out.exists()


def test_simulate_with_short_final_time_ends_at_t(tmp_path):
    # a remainder of 1e-10 is a third of dt: a real step, not rounding
    cfg = _write(
        tmp_path,
        "run.yaml",
        "mode: ds\nN: 2\ndt: 3.0e-10\nT: 1.0e-9\noutput_every: 3.0e-10\n"
        f"initial: {{type: twisted, m: 1}}\noutput: {tmp_path}/out.csv\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    times = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1)[:, 0]
    assert len(times) == 5 and times[-1] == 1e-9


def test_oa_flow_with_short_final_time_ends_at_t(tmp_path):
    out = tmp_path / "flow.csv"
    args = ["oa", "flow", "--alpha", "0.3", "--beta", "0.5", "--t", "1e-9", "--output-every", "3e-10"]
    assert run_cli(args + ["--output", str(out)]) == 0
    times = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
    assert len(times) == 5 and times[-1] == 1e-9


def test_oa_eval_refuses_tables_over_the_row_limit(tmp_path, capsys, monkeypatch):
    out = tmp_path / "eval.csv"
    args = ["oa", "eval", "--alpha", "0.3", "--beta", "0.5", "--output", str(out)]
    # refused before any grid is built
    assert run_cli(args + ["--n", str(MAX_SIZE)]) == 2
    assert "more than 10000000 rows" in _single_error_line(capsys)
    assert not out.exists()
    monkeypatch.setattr("kuralim.cli.MAX_SIZE", 10)
    assert run_cli(args + ["--n", "9"]) == 0
    assert len(out.read_text().splitlines()) == 11  # header + 10 rows
    out.unlink()
    assert run_cli(args + ["--n", "10"]) == 2
    _single_error_line(capsys)
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


@pytest.mark.parametrize("beta", ["1", "0.9999999999999999"])
def test_oa_eval_near_beta_one_writes_finite_cells(tmp_path, capsys, beta):
    # the density's old form divided by zero at the peak and wrote inf
    out = tmp_path / "eval.csv"
    assert run_cli(["oa", "eval", "--alpha", "0", "--beta", beta, "--n", "4", "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (5, 5) and np.all(np.isfinite(rows))


def test_oa_eval_last_cdf_cell_reads_one(tmp_path, capsys):
    # F at the float 2 pi, 2.45e-16 short of 2 pi, was written as 9.9999992203656118e-01
    out = tmp_path / "eval.csv"
    assert run_cli(["oa", "eval", "--alpha", "0", "--beta", "1", "--n", "4", "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[-1].split(",")[2] == "1.0000000000000000e+00"


@pytest.mark.parametrize("beta", ["1", "0.9999999999"])
@pytest.mark.parametrize("mode, size_key", [("ds", "N"), ("cl", "n_labels"), ("mfl-grid", "n_cells")])
def test_oa_initial_up_to_beta_one_runs(tmp_path, capsys, mode, size_key, beta):
    # beta 1 was refused as outside [0, 1); mfl-grid refused 0.9999999999 with a
    # cell mass of 0.9999999220365611
    cfg = _write(
        tmp_path,
        "run.yaml",
        f"mode: {mode}\n{size_key}: 64\nT: 0.01\ndt: 0.001\n"
        f"initial: {{type: oa, alpha: 0.0, beta: {beta}}}\noutput: {tmp_path}/out.csv\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    cells = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1)
    assert cells.shape == (2, 65) and np.all(np.isfinite(cells))


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


def test_json_files_are_indented_with_a_final_newline(tmp_path, capsys):
    # .meta.json, .drift.json and verify reports share one writer
    seeded = _write(tmp_path, "ds.yaml", f"mode: ds\nN: 4\nT: 0.0\nseed: 7\noutput: {tmp_path}/ds.csv\n")
    assert run_cli(["simulate", "--config", seeded]) == 0
    assert (tmp_path / "ds.meta.json").read_text() == '{\n  "seed": 7\n}\n'
    cfg = _grid_run(tmp_path)
    assert run_cli(["transform", "--config", cfg]) == 0
    drift = (tmp_path / "g.transform.drift.json").read_text()
    assert drift == json.dumps(json.loads(drift), indent=2) + "\n"

    def report(output):
        capsys.readouterr()
        assert run_cli(["verify", "spectrum"] + output) == 0
        text = capsys.readouterr().out or (tmp_path / "r.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        return {k: v for k, v in json.loads(text).items() if k != "runtime_s"}

    assert report([]) == report(["--output", ""]) == report(["--output", str(tmp_path / "r.json")])


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: kuralim")


def test_version_prints_package_version(capsys):
    assert run_cli(["version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kuralim ")


FILE_INITIALS = {
    "ds": ("N", [[0.1], [2.0], [4.0], [5.5]]),
    "cl": ("n_labels", [[0.1], [2.0], [4.0], [5.5]]),
    "mfl-grid": ("n_cells", [[0.1], [0.2], [0.15], [2 / np.pi - 0.45]]),
    # one mode per line, its real and imaginary parts
    "mfl-spectral": ("n_modes", [[0.1, 0.05], [-0.02, 0.01], [0.003, -0.001]]),
}


def test_file_initial_round_trip(tmp_path):
    # the T: 0 row is the file's numbers, each formatted as it was written
    for mode, (size_key, rows) in FILE_INITIALS.items():
        lines = [",".join("%.16e" % v for v in row) for row in rows]
        init = _write(tmp_path, f"{mode}.init.csv", "".join(line + "\n" for line in lines))
        cfg = _write(
            tmp_path,
            "run.yaml",
            f"mode: {mode}\n{size_key}: {len(rows)}\nkernel: kuramoto\ndt: 0.05\nT: 0.0\n"
            f"output_every: 0.05\ninitial: {{type: file, path: '{init}'}}\noutput: {tmp_path}/{mode}.csv\n",
        )
        assert run_cli(["simulate", "--config", cfg]) == 0
        out = (tmp_path / f"{mode}.csv").read_text().splitlines()
        assert out[1:] == ["%.16e," % 0.0 + ",".join(lines)], mode


@pytest.mark.parametrize("mode, size_key", [("ds", "N"), ("cl", "n_labels")])
def test_file_initial_angle_just_below_zero_reads_as_zero(tmp_path, mode, size_key):
    # np.mod rounds -1e-17 up to exactly 2 pi, which the CSV once held
    init = _write(tmp_path, "init.csv", "-1e-17\n1.0\n")
    cfg = _write(
        tmp_path,
        "run.yaml",
        f"mode: {mode}\n{size_key}: 2\nT: 0.01\ndt: 0.01\n"
        f"initial: {{type: file, path: '{init}'}}\noutput: {tmp_path}/out.csv\n",
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    rows = (tmp_path / "out.csv").read_text().splitlines()
    assert rows[1] == "0.0000000000000000e+00,0.0000000000000000e+00,1.0000000000000000e+00"
    assert all(0.0 <= v < TWO_PI for row in rows[1:] for v in map(float, row.split(",")[1:]))


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


def _src_env():
    """The environment of a child Python that imports this checkout's kuralim."""
    src = str(Path(kuralim.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("module", ["kuralim", "kuralim.cli"])
def test_import_leaves_the_collector_as_the_caller_set_it(module, enabled):
    # Importing pauses the collector; only the console entry point freezes.
    code = (
        f"import gc\ngc.{'enable' if enabled else 'disable'}()\nimport {module}\n"
        "print(gc.isenabled(), gc.get_freeze_count())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == [str(enabled), "0"]


def test_console_entry_point_freezes_and_collects_again():
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))\n"
        "sys.argv = ['kuralim', 'version']\n"
        "runpy.run_module('kuralim', run_name='__main__')"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True)
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.splitlines() == [f"kuralim {kuralim.__version__}", "True True"]


def _console(*args):
    """``python -m kuralim`` with ``args`` in a child process."""
    return subprocess.run(
        [sys.executable, "-m", "kuralim", *args], env=_src_env(), capture_output=True, text=True
    )


def test_console_path_writes_the_bytes_of_run_cli(tmp_path):
    text = (
        "mode: mfl-grid\nn_cells: 16\ndt: 0.01\nT: 0.05\noutput_every: 0.01\n"
        "kernel: {type: tabulated, offsets: [-3.141592653589793, 0.0, 3.141592653589793], "
        "values: [0.0, 1.0, 0.0]}\ninitial: {type: oa, alpha: 0.4, beta: 0.3}\n"
    )
    cfg = _write(tmp_path, "grid.yaml", text)
    for side in ("lib", "console"):
        (tmp_path / side).mkdir()
        grid, fields = str(tmp_path / side / "grid.csv"), str(tmp_path / side / "fields.csv")
        simulate = ["simulate", "--config", cfg, "--output", grid]
        transform = ["transform", "--config", cfg, "--input", grid, "--n-labels", "7", "--output", fields]
        for args in (simulate, transform):
            if side == "lib":
                assert run_cli(args) == 0
            else:
                out = _console(*args)
                assert (out.returncode, out.stdout, out.stderr) == (0, "", "")
    for name in ("grid.csv", "fields.csv", "fields.drift.json"):
        assert (tmp_path / "console" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

    bad = _console("simulate", "--config", _write(tmp_path, "bad.yaml", "mode: cl\nn_labels: 4\nT: 1\nbogus: 1\n"))
    assert bad.returncode == 2
    assert bad.stderr == "error: unknown keys ['bogus']\n"
    control = _console("verify", "spectrum", "--negative-control")
    assert control.returncode == 1
    assert json.loads(control.stdout)["pass"] is False
    assert control.stderr.startswith("spectrum: FAIL")


def test_import_loads_no_scipy():
    code = "import sys, kuralim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# ------------------------------------------------------------ refusals
#
# One catalogue of the CLI's refusals.  Each row writes its files into an
# empty directory and runs one command there.  The command must exit 2
# with one "error:" line on stderr, warn nothing and leave no file besides
# the row's own.  A string is that line exactly; a pattern is searched for
# in it.

NON_FINITE_KERNELS = {
    "tabulated-values-inf": "{type: tabulated, offsets: [-7.0, 0.0, 7.0], values: [.inf, 0.0, -.inf], "
    "periodic: false}",
    "tabulated-offsets-nan": "{type: tabulated, offsets: [-7.0, .nan, 7.0], values: [1.0, 0.0, -1.0], "
    "periodic: false}",
    "coupling-nan": "{type: kuramoto, coupling: .nan}",
    "coupling-1e400": "{type: kuramoto, coupling: 1e400}",
    "coefficients-inf": "{type: odd-trig, coefficients: [1.0, .inf]}",
}
NON_FINITE_INITIALS = {
    "oa-alpha-nan": "{type: oa, alpha: .nan, beta: 0.2}",
    "oa-beta-nan": "{type: oa, alpha: 0.1, beta: .nan}",
    "oa-q-inf": "{type: oa, alpha: 0.1, beta: 0.2, q: .inf}",
    "twisted-q-inf": "{type: twisted, m: 1, q: -.inf}",
}
FILE_INITIAL = "initial: {type: file, path: init.csv}\n"
GRID_2 = "mode: mfl-grid\nn_cells: 2\nT: 0.0\n"
ANY = re.compile("^error: ")


def _simulate(config, expect, init=None):
    """A simulate row: ``config`` as run.yaml, and ``init`` as init.csv."""
    files = {"run.yaml": config} if init is None else {"run.yaml": config, "init.csv": init}
    return files, ["simulate", "--config", "run.yaml"], expect


def _transform(config, expect, *flags, traj=None):
    """A transform row: ``config`` as g.yaml, and ``traj`` as traj.csv, its --input."""
    files = {"g.yaml": config}
    if traj is not None:
        files["traj.csv"] = traj
        flags = ("--input", "traj.csv", *flags)
    return files, ["transform", "--config", "g.yaml", *flags], expect


def _oa(*args, expect):
    return {}, ["oa", *args, "--output", "out.csv"], expect


def _overflow(head, dt):
    # The state overflows in the first step; numpy's overflow and
    # invalid-value warnings on the way are not printed.
    config = head + f"dt: {dt}\nT: 0.3\noutput_every: {dt}\n"
    return _simulate(config, f"error: non-finite state at step 1 (t = {dt})")


REFUSALS = {
    # usage errors
    "no-command": ({}, [], ANY),
    "unknown-command": ({}, ["bogus"], ANY),
    "unknown-suite": ({}, ["verify", "bogus"], ANY),
    "no-such-suite": ({}, ["verify", "no-such-suite"], ANY),
    "config-flag-missing": ({}, ["simulate"], ANY),
    "config-file-missing": ({}, ["simulate", "--config", "missing.yaml"], ANY),
    "bad-int": _transform("mode: mfl-grid\nn_cells: 4\nT: 0.0\n", ANY, "--n-labels", "abc"),
    "missing-alpha": _oa("eval", "--beta", "0.5", expect=ANY),
    # oa arguments
    "flow-t-inf": _oa("flow", "--alpha", "0.3", "--beta", "0.1", "--t", "inf",
                      expect="error: --t must be finite and nonnegative"),
    "flow-t-nan": _oa("flow", "--alpha", "0.3", "--beta", "0.1", "--t", "nan",
                      expect="error: --t must be finite and nonnegative"),
    "flow-t-negative": _oa("flow", "--alpha", "0.3", "--beta", "0.5", "--t", "-1",
                           expect="error: --t must be finite and nonnegative"),
    "flow-every-zero": _oa("flow", "--alpha", "0.3", "--beta", "0.5", "--t", "1", "--output-every", "0",
                           expect="error: --output-every must be positive"),
    # step_schedule once refused both as "dt", which oa flow does not have
    "flow-every-inf": _oa("flow", "--alpha", "0.3", "--beta", "0.5", "--t", "1", "--output-every", "inf",
                          expect="error: --output-every must be finite"),
    "flow-every-nan": _oa("flow", "--alpha", "0.3", "--beta", "0.5", "--t", "1", "--output-every", "nan",
                          expect="error: --output-every must be finite"),
    "eval-n-zero": _oa("eval", "--alpha", "0.3", "--beta", "0.5", "--n", "0",
                       expect="error: --n must be at least 1"),
    # --beta had a 1e-12 slack above one that an oa initial in a config never had
    "eval-beta-above-one": _oa("eval", "--alpha", "0", "--beta", "1.0000000000001", "--n", "4",
                               expect="error: beta must be in [0, 1], got 1.0000000000001"),
    "flow-beta-above-one": _oa("flow", "--alpha", "0", "--beta", "1.0000000000001", "--t", "1",
                               expect="error: beta must be in [0, 1], got 1.0000000000001"),
    # transform inputs
    "transform-without-input": _transform(
        "mode: mfl-grid\nn_cells: 8\nT: 0.05\n",
        "error: no input trajectory: pass --input or set output in the config"),
    "transform-of-cl": _transform("mode: cl\nkernel: kuramoto\nn_labels: 8\nT: 0.1\n", re.compile("mfl-grid")),
    "transform-malformed-numbers": _transform(
        GRID_2, re.compile("^error: cannot read numbers"), traj="t,f_0,f_1\n0.0,0.1,oops\n"),
    "transform-without-rows": _transform(
        GRID_2, re.compile(r"^error: cannot read numbers from 'traj\.csv'"), traj="t,f_0,f_1\n"),
    "transform-non-utf8-header": _transform(
        GRID_2, "error: input 'traj.csv' is not a density trajectory with 2 cells",
        traj=b"t,f_0\xff,f_1\n0.0,0.5,0.5\n"),
    # an infinite cell warned in the anchor flux before the density's refusal
    "transform-infinite-cell": _transform(GRID_2, "error: density values must be finite",
                                          traj="t,f_0,f_1\n0,{u},{u}\n1,inf,{u}\n2,{u},{u}\n".format(u=1 / (2 * np.pi))),
    # a non-finite time gave nan cells and a NaN/Infinity drift sidecar with exit 0
    **{
        f"transform-{name}-time": _transform(
            GRID_2, "error: recorded times must be finite",
            traj="t,f_0,f_1\n0,{u},{u}\n{t},{u},{u}\n0.2,{u},{u}\n".format(t=name, u=1 / (2 * np.pi)))
        for name in ("nan", "inf")
    },
    # configs
    "non-utf8-config": _simulate(b"\xff\xfe\x00mode: ds\n", re.compile(r"^error: cannot decode config 'run\.yaml'")),
    # PyYAML raises ValueError, not a YAMLError, for these
    "long-int": _simulate("mode: cl\nn_labels: 4\nT: 1\nwhen: 1" + "0" * 5000 + "\n",
                          re.compile("^error: malformed config: ")),
    "bad-date": _simulate("mode: cl\nn_labels: 4\nT: 1\nwhen: 2001-13-45\n",
                          re.compile("^error: malformed config: ")),
    # ThetaGrid refused one cell only after parse_config had listed the dt problem alone
    "grid-one-cell": _simulate("mode: mfl-grid\nn_cells: 1\ndt: -1\nT: 1\n",
                               "error: dt must be a positive number; n_cells must be an integer of at least 2"),
    **{
        f"kernel-{name}": _simulate(
            f"mode: ds\nN: 4\ndt: 0.01\nT: 0.01\ninitial: {{type: twisted, m: 1}}\nkernel: {kernel}\n",
            re.compile("kernel.*finite"))
        for name, kernel in NON_FINITE_KERNELS.items()
    },
    **{
        f"initial-{name}": _simulate(f"mode: cl\nn_labels: 8\nT: 0.0\ninitial: {initial}\n", re.compile("initial"))
        for name, initial in NON_FINITE_INITIALS.items()
    },
    # initial files
    **{
        f"file-length-{mode}": _simulate(f"mode: {mode}\n{key}: 5\nT: 0.0\n{FILE_INITIAL}",
                                         re.compile("^error: initial file"), init=f"{line}\n" * 3)
        for mode, key, line in [("ds", "N", "0.5"), ("cl", "n_labels", "0.5"), ("mfl-grid", "n_cells", "0.5"),
                                ("mfl-spectral", "n_modes", "0.1,0.0")]
    },
    **{
        f"file-non-finite-{mode}": _simulate(f"mode: {mode}\n{key}: 2\nT: 0.01\ndt: 0.01\n{FILE_INITIAL}",
                                             f"error: {message}", init=f"{line}\n" * 2)
        for mode, key, line, message in [
            ("ds", "N", "nan", "initial state contains non-finite components"),
            ("cl", "n_labels", "inf", "initial state contains non-finite components"),
            ("mfl-grid", "n_cells", "nan", "density values must be finite"),
            ("mfl-spectral", "n_modes", "nan,0.0", "initial state contains non-finite components"),
        ]
    },
    "file-malformed-numbers": _simulate(f"mode: ds\nN: 3\nT: 0.0\n{FILE_INITIAL}",
                                        re.compile("^error: cannot read numbers"), init="0.1\nabc\n0.3\n"),
    # numpy only warns about a file without numbers; that warning once reached stderr
    "file-empty": _simulate(
        f"mode: cl\nn_labels: 4\nT: 0.0\n{FILE_INITIAL}",
        "error: cannot read numbers from 'init.csv': loadtxt: input contained no data: \"init.csv\"", init=""),
    # runs that stop
    "schedule-overflow": _simulate("mode: ds\nN: 4\ndt: 1e-300\nT: 1e300\ninitial: {type: twisted, m: 1}\n",
                                   re.compile("steps")),
    "schedule-too-long": _simulate("mode: ds\nN: 4\ndt: 1e-300\nT: 1\ninitial: {type: twisted, m: 1}\n",
                                   re.compile("steps")),
    "overflow-ds": _overflow("mode: ds\nN: 2\nkernel: {type: kuramoto, coupling: 1.0e308}\n"
                             "initial: {type: uniform}\nseed: 3\n", "0.3"),
    "overflow-cl": _overflow("mode: cl\nn_labels: 8\nkernel: {type: odd-trig, coefficients: [1.0e308, 1.0e308]}\n"
                             "initial: {type: oa, alpha: 0.3, beta: 0.9}\n", "0.1"),
    # interaction sums that overflow math.fsum: ds sums its 3 particles
    # with math.fsum itself, cl its 600 labels on the extraction path,
    # which hands rows that close to overflow to math.fsum
    "overflow-fsum": _overflow("mode: ds\nN: 3\nkernel: {type: tabulated, offsets: [-3.141592653589793, "
                               "3.141592653589793], values: [1.0e308, 1.0e308], periodic: true}\n"
                               "initial: {type: uniform}\nseed: 0\n", "0.01"),
    "overflow-extraction": _overflow("mode: cl\nn_labels: 600\nkernel: {type: tabulated, offsets: [-7.0, 7.0], "
                                     "values: [1.0e308, 1.0e308], periodic: false}\n", "0.01"),
    # m is in the float range, its angles are not: numpy's warnings came first
    **{
        f"winding-angles-{mode}": _simulate(f"mode: {mode}\n{key}: 4\nT: 0.01\ninitial: {{type: twisted, m: {10**308}}}\n",
                                            "error: winding m = 1e+308 with q = 0 puts angles past the float range")
        for mode, key in [("ds", "N"), ("cl", "n_labels")]
    },
    **{
        f"spectral-beta-{beta}": _simulate(
            f"mode: mfl-spectral\nn_modes: 64\nT: 0.01\ndt: 0.001\ninitial: {{type: oa, alpha: 0.0, beta: {beta}}}\n",
            re.compile(r"^error: last mode reached \|c_N\|"))
        for beta in ("1", "0.9999999999")
    },
    "cfl-number": _simulate(
        "mode: mfl-grid\nn_cells: 8\nT: 0.1\ndt: 0.1\nkernel: {type: odd-trig, coefficients: [1.0e308]}\n"
        "initial: {type: oa, alpha: 0.3, beta: 0.5}\n",
        re.compile(r"^error: CFL number \d\.\d{5}e\+306 exceeds 0\.5 at t = 0\.1; need dt <= \S+$")),
}


@pytest.mark.parametrize("files, argv, expect", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_is_one_error_line(tmp_path, monkeypatch, capsys, files, argv, expect):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        path = Path(name)
        path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(argv) == 2
    assert [str(w.message) for w in caught] == []
    line = _single_error_line(capsys)
    assert line == expect if isinstance(expect, str) else expect.search(line), line
    assert sorted(os.listdir()) == sorted(files)


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


def test_ds_and_cl_runs_of_one_file_initial_write_the_same_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("init.csv").write_text("-1e-17\n1.0\n2.5\n")
    for mode, size_key in (("ds", "N"), ("cl", "n_labels")):
        Path(f"{mode}.yaml").write_text(
            f"mode: {mode}\n{size_key}: 3\nT: 0.05\ndt: 0.01\n"
            "kernel: {type: tabulated, offsets: [-3.2, -1.0, 0.0, 1.0, 3.2], values: [0.0, 0.8, 0.0, -0.8, 0.0]}\n"
            "initial: {type: file, path: init.csv}\n"
        )
        assert run_cli(["simulate", "--config", f"{mode}.yaml", "--output", f"{mode}.csv"]) == 0
    assert Path("ds.csv").read_bytes() == Path("cl.csv").read_bytes()


def _assert_transform_bytes(tmp_path, cfg, n_labels):
    """``transform`` of the 8-cell run of ``cfg`` writes the per-float rows."""
    args = ["--n-labels", str(n_labels), "--drift-scale", "0.5", "--output", str(tmp_path / "new.csv")]
    assert run_cli(["transform", "--config", cfg, *args]) == 0
    traj = _read_density_csv(str(tmp_path / "g.csv"), 8)
    result = mfl_to_cl_circle(traj, KuramotoSin(), LabelGrid(n_labels), drift_scale=0.5)
    mids = result.label_grid.midpoints
    rows = (
        [t, mids[j], result.fields[k, j]]
        for k, t in enumerate(result.times)
        for j in range(n_labels)
    )
    _frozen_write_csv(tmp_path / "old.csv", ["t", "xi", "x"], rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    return result


def test_transform_csv_bytes_match_per_float_writer(tmp_path):
    _assert_transform_bytes(tmp_path, _grid_run(tmp_path), 5)


@pytest.mark.parametrize(
    "n_labels, chunk", [(1, None), (1, 6), (5, 3), (5, 6), (5, 12), (5, 15), (5, 21)]
)
def test_transform_csv_bytes_match_per_float_writer_at_the_edges(tmp_path, monkeypatch, n_labels, chunk):
    # A chunk holds CSV_CHUNK_VALUES // 3 rows: 1, 2, 4 or 7 rows split
    # frames of 5 labels across chunks, 5 rows end each chunk on a frame.
    if chunk is not None:
        monkeypatch.setattr("kuralim.cli.CSV_CHUNK_VALUES", chunk)
    result = _assert_transform_bytes(tmp_path, _grid_run(tmp_path), n_labels)
    assert result.fields.shape == (6, n_labels)


@pytest.mark.parametrize("n_labels", [1, 5])
def test_transform_of_a_single_row_density_csv_matches_per_float_writer(tmp_path, n_labels):
    cfg = _grid_run(tmp_path, "n_cells: 8\nkernel: kuramoto\nT: 0.0\n")
    assert len((tmp_path / "g.csv").read_text().splitlines()) == 2
    result = _assert_transform_bytes(tmp_path, cfg, n_labels)
    assert result.fields.shape == (1, n_labels)


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


def _special_table(rows, width, seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 301, (rows, width))
    flat = table.ravel()
    for k, x in enumerate([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.7976931348623157e308]):
        flat[k::97] = x
    return table


@pytest.mark.parametrize("width", [1, 3, 513, 4097])
@pytest.mark.parametrize("offset", [-1, 0, 1, None], ids=["below", "at", "above", "empty"])
def test_write_csv_matches_per_float_writer_around_the_chunk_budget(tmp_path, width, offset):
    # One chunk holds CSV_CHUNK_VALUES // width rows; the tables end one
    # row short of, on and one row past a chunk boundary, or hold no rows.
    rows = 0 if offset is None else CSV_CHUNK_VALUES // width + offset
    table = _special_table(rows, width, width)
    header = [f"c_{j}" for j in range(width)]
    _write_csv(str(tmp_path / "new.csv"), header, table)
    _frozen_write_csv(tmp_path / "old.csv", header, table)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_rows_wider_than_the_chunk_budget(tmp_path, monkeypatch):
    monkeypatch.setattr("kuralim.cli.CSV_CHUNK_VALUES", 2)  # one row per chunk
    table = _special_table(5, 3, 0)
    _write_csv(str(tmp_path / "new.csv"), ["a", "b", "c"], table)
    _frozen_write_csv(tmp_path / "old.csv", ["a", "b", "c"], table)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# ------------------------------------------------------------ YAML loaders
#
# parse_config reads documents with libyaml's CSafeLoader when PyYAML has
# it, and with the pure-Python SafeLoader otherwise.  Both must give the
# same documents for every config the program is documented to read.

EDGE_SCALARS = (
    "a: 1e-3\nb: .inf\nc: -.inf\nd: .NaN\ne: 0x10\nf: 010\ng: 1_000\nh: 1:2\n"
    "i: 1.0e+3\nj: 1.5e3\nk: ~\nl: yes\nm: 0b101\nn: 0o10\no: 08\np: -0.0\n"
    "q: .5\nr: 5.\ns: '1e-3'\nt: [1, 2.5, -0.0, 1e300]\nu: 2001-12-14\n"
)


def _benchmark_shaped_configs():
    """Configs shaped like the benchmark's: shortest round-trip floats, a
    65-entry tabulated kernel, exponent strings."""
    offsets = np.linspace(-np.pi, np.pi, 65)
    values = -np.sin(offsets) * 0.8 + 1e-17
    return [
        "mode: mfl-grid\nn_cells: 512\nkernel:\n  type: tabulated\n"
        f"  offsets: [{', '.join(repr(float(u)) for u in offsets)}]\n"
        f"  values: [{', '.join(repr(float(v)) for v in values)}]\n"
        "  periodic: true\ndt: 0.005\nT: 0.3\noutput_every: 0.005\n"
        "initial:\n  type: oa\n  alpha: -2.9427546039434133\n  beta: 0.2003848123449305\n"
        "output: density.csv\n",
        "mode: cl\nn_labels: 4096\nkernel: {type: kuramoto, coupling: 1.25}\n"
        "dt: 2.5e-3\nT: 1.0\noutput_every: 1e-1\n"
        "initial:\n  type: oa\n  alpha: 0.123\n  beta: 0.25\n  q: 6.0e-1\n",
        "mode: ds\nN: 64\nkernel: {type: odd-trig, coefficients: [1.0, -0.25, 1e-3]}\n"
        "dt: 0.01\nT: 2\ninitial: {type: uniform}\nseed: 12345678901234567890123\n",
    ]


def _readme_configs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(r"```yaml\n(.*?)```", readme, re.S)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_yaml_loaders_give_equal_documents():
    corpus = [*_readme_configs(), *_benchmark_shaped_configs(), *SIM_CONFIGS.values(),
              *NON_FINITE_KERNELS.values(), EDGE_SCALARS]
    assert len(corpus) > 10
    for text in corpus:
        # repr tells 1 from 1.0 and -0.0 from 0.0, and nan equals itself
        docs = [repr(yaml.load(text, Loader=loader)) for loader in (yaml.SafeLoader, yaml.CSafeLoader)]
        assert docs[0] == docs[1], text
    edge = yaml.load(EDGE_SCALARS, Loader=yaml.CSafeLoader)
    assert (edge["a"], edge["e"], edge["f"], edge["g"], edge["h"]) == ("1e-3", 16, 8, 1000, 62)
    assert edge["b"] == np.inf


@pytest.fixture(params=["default", "pure-python"])
def loaded(request, monkeypatch):
    """Every document that parse_config loads with the loader it should
    use: CSafeLoader when PyYAML has it, SafeLoader when it is taken away."""
    if request.param == "pure-python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    name = "CSafeLoader" if hasattr(yaml, "CSafeLoader") else "SafeLoader"
    base = getattr(yaml, name)
    loaded = []

    class Recording(base):
        def __init__(self, stream):
            loaded.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(yaml, name, Recording)
    return loaded


def test_parse_config_loads_with_libyaml_or_falls_back(loaded):
    text = SIM_CONFIGS["mfl-grid"] + "T: 1\n"
    cfg = parse_config(text)
    assert loaded == [text]
    assert cfg.kernel == KuramotoSin(0.5) and cfg.size == 8 and cfg.t_end == 1.0
    assert cfg.initial == {"type": "oa", "alpha": 0.4, "beta": 0.2}


@pytest.mark.parametrize(
    "text, line",
    [("mode: [unclosed\n", 2), ("mode: ds\n N: 4\n", 2), ("mode: ds\nN: @x\n", 2),
     ("mode: ds\nN: 4\nT: 'open\n", 4), ("mode: ds\nN: *missing\n", 2),
     ("mode: ds\n\x00N: 4\n", None)],
)
def test_malformed_config_exits_two_with_its_line(tmp_path, capsys, loaded, text, line):
    # a NUL byte has a position but no line
    prefix = "malformed config: " if line is None else f"malformed config (line {line}): "
    with pytest.raises(ParseError, match="^" + re.escape(prefix)):
        parse_config(text)
    assert run_cli(["simulate", "--config", _write(tmp_path, "run.yaml", text)]) == 2
    assert _single_error_line(capsys).startswith(f"error: {prefix}")
    assert loaded == [text, text]


# ------------------------------------------------------------ known defects


@pytest.mark.parametrize("seed", [-1, -(10**23)])
def test_negative_seed_exits_two(tmp_path, capsys, seed):
    text = f"mode: ds\nN: 4\nseed: {seed}\nT: 0.1\ndt: 0.01\noutput: {tmp_path}/out.csv\n"
    with pytest.raises(ValidationError, match="nonnegative integer seed"):
        parse_config(text)
    assert run_cli(["simulate", "--config", _write(tmp_path, "run.yaml", text)]) == 2
    assert _single_error_line(capsys) == "error: uniform initial data requires a nonnegative integer seed"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("seed", [0, 10**23])
def test_nonnegative_seeds_run(tmp_path, seed):
    text = f"mode: ds\nN: 4\nseed: {seed}\nT: 0.02\ndt: 0.01\noutput: {tmp_path}/out.csv\n"
    assert run_cli(["simulate", "--config", _write(tmp_path, "run.yaml", text)]) == 0
    assert json.loads((tmp_path / "out.meta.json").read_text()) == {"seed": seed}


def _nested(kind, n):
    """A ds config whose ``N`` nests ``n`` collections of ``kind`` deep."""
    if kind == "flow-list":
        return "mode: ds\nN: " + "[" * n + "]" * n + "\n"
    if kind == "flow-map":
        return "mode: ds\nN: " + "{a: " * n + "1" + "}" * n + "\n"
    return "mode: ds\nN:\n" + "- " * n + "1\n"


NESTINGS = ["flow-list", "flow-map", "block-list"]


@pytest.mark.parametrize("kind", NESTINGS)
def test_deeply_nested_config_exits_two_not_a_crash(tmp_path, kind):
    # A subprocess: libyaml's parser recursed once per level and crashed.
    cfg = _write(tmp_path, "deep.yaml", _nested(kind, 10**5))
    out = _console("simulate", "--config", cfg, "--output", str(tmp_path / "out.csv"))
    assert out.returncode == 2
    line = 2 if kind.startswith("flow") else 3
    assert out.stderr == f"error: malformed config (line {line}): collections nested deeper than 100\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("kind", NESTINGS)
def test_deeply_nested_config_exits_two_with_pure_python_yaml(tmp_path, capsys, monkeypatch, kind):
    # PyYAML's own parser raised RecursionError at this depth.
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    text = _nested(kind, 3000)
    with pytest.raises(ParseError, match="nested deeper than 100$"):
        parse_config(text)
    assert run_cli(["simulate", "--config", _write(tmp_path, "deep.yaml", text)]) == 2
    assert _single_error_line(capsys).endswith("collections nested deeper than 100")


@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_up_to_the_limit_is_parsed(loaded, kind):
    # The top mapping is one level, so N may nest MAX_DEPTH - 1 deep.
    text = _nested(kind, cli.MAX_DEPTH - 1)
    with pytest.raises(ValidationError, match="N must be a positive integer"):
        parse_config(text)
    assert loaded == [text, text]  # the depth check, then the load
    with pytest.raises(ParseError, match="nested deeper"):
        parse_config(_nested(kind, cli.MAX_DEPTH))


def test_wide_shallow_config_is_parsed(loaded):
    # Hundreds of marks, so the depth check parses the text; it nests 3 deep.
    offsets = "".join(f"    - {-3.0 + k / 100}\n" for k in range(600))
    text = (
        "mode: mfl-grid\nn_cells: 8\nT: 0.1\nkernel:\n  type: tabulated\n  offsets:\n"
        f"{offsets}  values: [{', '.join(['0.5'] * 600)}]\n"
    )
    cfg = parse_config(text)
    assert len(cfg.kernel.offsets) == 600
    assert loaded == [text, text]


def _depth(doc) -> int:
    if isinstance(doc, list):
        return 1 + max(map(_depth, doc), default=0)
    if isinstance(doc, dict):
        return 1 + max(map(_depth, doc.values()), default=0)
    return 0


_DOCS = st.recursive(
    st.none() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(doc=_DOCS, flow=st.sampled_from([None, True, False]), limit=st.integers(0, 6))
def test_depth_check_refuses_exactly_the_documents_past_the_limit(doc, flow, limit):
    # The marks bound the depth, so a text with few marks is not parsed for it.
    text = yaml.safe_dump(doc, default_flow_style=flow)
    assert len(cli.COLLECTION_MARK.findall(text)) >= _depth(doc)
    loaders = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])
    for loader in loaders:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("kuralim.cli.MAX_DEPTH", limit)
            if _depth(doc) > limit:
                with pytest.raises(yaml.YAMLError, match=f"nested deeper than {limit}"):
                    cli._check_depth(text, loader)
            else:
                cli._check_depth(text, loader)


@pytest.mark.parametrize("mode, size_key", [("mfl-grid", "n_cells"), ("mfl-spectral", "n_modes")])
def test_oa_q_is_refused_in_density_modes(tmp_path, capsys, mode, size_key):
    text = f"mode: {mode}\n{size_key}: 8\nT: 0\ninitial: {{type: oa, alpha: 0.3, beta: 0.2, q: 0.5}}\n"
    with pytest.raises(ValidationError):
        parse_config(text)
    assert run_cli(["simulate", "--config", _write(tmp_path, "run.yaml", text)]) == 2
    assert re.search(r"\bq\b", _single_error_line(capsys))


def test_tabulated_mismatch_is_listed_with_the_other_problems():
    text = (
        "mode: mfl-grid\nn_cells: 8\nT: 1\ndt: -1\n"
        "kernel: {type: tabulated, offsets: [-3.0, 0.0, 3.0], values: [1.0, -1.0]}\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert "as many offsets as values" in str(err.value)
    assert "dt must be a positive number" in str(err.value)


def test_kernel_class_refusal_is_listed_with_the_other_problems():
    # the kernel's DomainError escaped parse_config and dropped the dt problem
    text = (
        "mode: ds\nN: 3\nT: 1\ndt: -1\n"
        "kernel: {type: tabulated, offsets: [1.0, 0.0], values: [0.0, 1.0]}\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert "offsets must be strictly increasing" in str(err.value)
    assert "dt must be a positive number" in str(err.value)


def test_grid_of_one_cell_is_listed_with_the_other_problems(tmp_path):
    # ThetaGrid refused one cell only after parse_config had listed the dt problem alone
    with pytest.raises(ValidationError) as err:
        parse_config("mode: mfl-grid\nn_cells: 1\nT: 1\ndt: -1\n")
    assert str(err.value) == "dt must be a positive number; n_cells must be an integer of at least 2"
    spectral = _write(tmp_path, "s.yaml", f"mode: mfl-spectral\nn_modes: 1\nT: 0.02\noutput: {tmp_path}/s.csv\n")
    assert run_cli(["simulate", "--config", spectral]) == 0
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == "t,re_c_1,im_c_1"


def test_keys_of_any_type_are_refused_as_unknown():
    for text in ("1: 2\nfoo: 3\n", "kernel: {type: kuramoto, 1: 2, foo: 3}\n"):
        with pytest.raises(ValidationError, match=r"unknown (kernel )?keys \[1, 'foo'\]"):
            parse_config("mode: cl\nn_labels: 4\nT: 1\n" + text)


def test_readme_documents_the_config_tables():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"### simulate\n(.*?)\n### ", readme, re.S).group(1)
    (example,) = re.findall(r"```yaml\n(.*?)```", section, re.S)
    text = re.sub(r"```.*?```", "", section, flags=re.S)
    # the keys of the example, its comments included
    listed = set(re.findall(r"([A-Za-z_]\w*):", example))
    named = set(re.findall(r"`([^`]+)`", text)) | set(re.findall(r"[\w-]+", example))
    kernel_keys = {key for keys in cli.KERNELS.values() for key in keys}
    initial_keys = {key for keys in cli.INITIALS.values() for key in keys}
    table_keys = {*cli.RUN_KEYS, *cli.PART_KEYS, *kernel_keys, *initial_keys, "type"}
    assert table_keys <= named, table_keys - named
    assert {*cli.KERNELS, *cli.INITIALS, *cli.MODES} <= named
    assert listed <= table_keys, listed - table_keys
    listed_types = set(re.findall(r"type: ([\w-]+)", example))
    assert listed_types <= {*cli.KERNELS, *cli.INITIALS}, listed_types


# The simulate contract over the edges of the number line.  Every number of
# a config is drawn from EDGE_VALUES; windings also near the float range,
# concentrations also just below 1.  Sizes are at most 16 and runs at most
# 20 steps.  A run exits 0 with a CSV of finite cells under its mode's
# header, or exits 2 with one "error:" line; it never raises.
EDGE_VALUES = [0.0, 1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300, 1e308, -1e308]
EDGE_WINDINGS = [0, 1, -1, 10**300, 2**1023, 10**308, -(10**308), 10**400]
EDGE_BETAS = [0.0, 0.5, 0.99, 1 - 1e-6, 1 - 1e-9, 0.9999999999999999, 1.0]


def _edge_keys(width):
    """Key -> strategy for every key of the kernel and initial tables;
    coefficients have ``width`` entries, offsets (strictly increasing) and
    values ``width + 1``."""
    value = st.sampled_from(EDGE_VALUES)
    offsets = st.sampled_from(EDGE_VALUES + [-7.0, -np.pi, np.pi, 7.0])
    return {
        "coupling": value,
        "coefficients": st.lists(value, min_size=width, max_size=width),
        "offsets": st.lists(offsets, min_size=width + 1, max_size=width + 1, unique=True).map(sorted),
        "values": st.lists(value, min_size=width + 1, max_size=width + 1),
        "periodic": st.booleans(),
        "m": st.sampled_from(EDGE_WINDINGS),
        "q": value,
        "alpha": value,
        "beta": st.sampled_from(EDGE_BETAS),
        "path": st.just("init.csv"),
    }


def _edge_part(draw, tables, keys):
    """A kernel or initial mapping of a type drawn from ``tables``, or None."""
    kind = draw(st.sampled_from([None, *tables]))
    if kind is None:
        return None
    part = {"type": kind}
    for key, (_, default, _) in tables[kind].items():
        if default is not cli.OPTIONAL or draw(st.booleans()):
            part[key] = draw(keys[key])
    return part


@st.composite
def _edge_runs(draw):
    """A simulate config as a dict, and the rows of its initial file."""
    mode = draw(st.sampled_from(list(cli.MODES)))
    size = draw(st.integers(1, 16))
    dt = draw(st.sampled_from([1e-300, 1e-3, 0.1, 1.0, 1e300]))
    steps = draw(st.integers(0, 19)) + draw(st.sampled_from([0.0, 0.5, 1.0]))
    doc = {"mode": mode, cli.MODES[mode][0]: size, "dt": dt, "T": dt * steps}
    every = draw(st.sampled_from([None, dt, 2 * dt, 1e-300, 1e300]))
    if every is not None:
        doc["output_every"] = every
    keys = _edge_keys(draw(st.integers(1, 3)))
    for name, tables in (("kernel", cli.KERNELS), ("initial", cli.INITIALS)):
        part = _edge_part(draw, tables, keys)
        if part is not None:
            doc[name] = part
    if mode == "ds" and doc.get("initial", {"type": "uniform"})["type"] == "uniform":
        doc["seed"] = 0
    columns = 2 if mode == "mfl-spectral" else 1
    cell = st.sampled_from(EDGE_VALUES + [1.0 / TWO_PI])
    rows = draw(st.lists(st.lists(cell, min_size=columns, max_size=columns), min_size=size, max_size=size))
    return doc, rows


def _mode_header(mode, size):
    if mode == "mfl-spectral":
        return ["t"] + [f"{p}_c_{n}" for n in range(1, size + 1) for p in ("re", "im")]
    return ["t"] + [f"{'f' if mode == 'mfl-grid' else 'x'}_{j}" for j in range(size)]


def _tabulated(offsets, values, periodic):
    return {"type": "tabulated", "offsets": offsets, "values": values, "periodic": periodic}


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(run=_edge_runs())
@example(run=({"mode": "ds", "N": 3, "dt": 0.01, "T": 0.01, "seed": 0, "initial": {"type": "uniform"},
               "kernel": _tabulated([-np.pi, np.pi], [1e308, 1e308], True)}, None))
@example(run=({"mode": "cl", "n_labels": 600, "dt": 0.01, "T": 0.01,
               "kernel": _tabulated([-7.0, 7.0], [1e308, 1e308], False)}, None))
@example(run=({"mode": "ds", "N": 4, "T": 0.01, "initial": {"type": "twisted", "m": 10**308}}, None))
@example(run=({"mode": "cl", "n_labels": 4, "T": 0.01, "initial": {"type": "twisted", "m": 10**308}}, None))
# found by this test: a window, a mass and a kernel matrix past the float range
@example(run=({"mode": "ds", "N": 1, "dt": 1e-300, "T": 0.0, "seed": 0,
               "kernel": _tabulated([-1e308, 1e308], [0.0, 0.0], False)}, None))
@example(run=({"mode": "mfl-grid", "n_cells": 2, "dt": 1e-300, "T": 0.0,
               "initial": {"type": "file", "path": "init.csv"}}, [[0.0], [1e308]]))
@example(run=({"mode": "mfl-grid", "n_cells": 4, "dt": 0.01, "T": 0.01,
               "kernel": {"type": "odd-trig", "coefficients": [1e308, 1e308, 1e308]}}, None))
def test_simulate_gives_a_csv_or_one_error_line(run):
    doc, rows = run
    mode = doc["mode"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        doc = {**doc, "output": str(out)}
        if doc.get("initial", {}).get("type") == "file":
            doc["initial"] = {**doc["initial"], "path": str(Path(tmp) / "init.csv")}
            Path(doc["initial"]["path"]).write_text("".join(",".join(map(repr, r)) + "\n" for r in rows))
        cfg = Path(tmp) / "run.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(["simulate", "--config", str(cfg)])
        if code == 0:
            assert err.getvalue() == ""
            header, *lines = out.read_text().splitlines()
            size = doc[cli.MODES[mode][0]]
            assert header.split(",") == _mode_header(mode, size)
            cells = np.array([line.split(",") for line in lines], dtype=float)
            assert cells.shape == (len(lines), 1 + size * (2 if mode == "mfl-spectral" else 1))
            assert np.all(np.isfinite(cells)), doc
        else:
            assert code == 2, doc
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (doc, lines)
            assert not out.exists()


# The transform and oa contract over hand-written argument lists.  Each
# number is drawn valid, or from the edge and malformed values of
# FLAG_NUMBERS, or at the limits around FUZZ_ROWS, which stands in for
# MAX_SIZE.  A density input is drawn well-formed or broken in one of
# BROKEN_INPUTS' ways.  A run exits 0 with a CSV of finite cells under its
# command's header (and, for transform, a strict-JSON sidecar), or exits 2
# with one "error:" line; it never warns, raises or exits 1.
FUZZ_ROWS = 12
FLAG_NUMBERS = [
    "-0", "-1", "1.0000001", "1e-320", "1e300", "-1e300", "1e400", "nan", "-nan",
    "inf", "-inf", "1e-1", "-2E0", ".5e1", "x", "", "1e-3x", "0x10", "1.5",
]
LIMITS = [str(FUZZ_ROWS + k) for k in (-2, -1, 0, 1)]
BROKEN_INPUTS = ["missing", "empty", "binary", "header-only", "wide-header", "ragged", "text",
                 "nan", "negative", "unnormalized", "times", "nan-time", "inf-time"]
OA_HEADERS = {"eval": ["theta", "density", "cdf", "xi", "quantile"], "flow": ["t", "alpha", "beta"]}


def _flag(draw, name, valid, edge):
    """``[name, value]`` or ``[name=value]``, the value drawn from ``valid``
    or, if ``edge``, from FLAG_NUMBERS."""
    value = draw(st.sampled_from(FLAG_NUMBERS if edge else valid))
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


def _optional(draw, name, valid, edge):
    return _flag(draw, name, valid, edge) if draw(st.integers(0, 4)) else []


def _density_rows(draw, n_cells, kind):
    """The text of a density trajectory input of ``n_cells`` cells."""
    rows = draw(st.integers(1, 4))
    p = OAPoint(draw(st.sampled_from([0.0, 0.4, -3.0])), draw(st.sampled_from([0.0, 0.3, 0.9])))
    f = oa_cell_averages(p, ThetaGrid(n_cells)).values if n_cells > 1 else np.array([1 / TWO_PI])
    header = ["t"] + [f"f_{j}" for j in range(n_cells + (kind == "wide-header"))]
    cells = [[repr(0.1 * k), *map(repr, f.tolist())] for k in range(rows)]
    broken = {"text": "oops", "nan": "nan", "negative": "-1.0", "unnormalized": "1e3"}
    if kind in broken:
        cells[-1][-1] = broken[kind]
    if kind == "times":  # the last time before the first
        cells[-1][0] = "-1.0"
    if kind in ("nan-time", "inf-time"):
        cells[-1][0] = kind[:3]
    if kind == "ragged":
        cells[-1].pop()
    if kind == "header-only":
        cells = []
    return "".join(",".join(line) + "\n" for line in [header, *cells])


@st.composite
def _transform_and_oa_runs(draw):
    """An argument list with ``{tmp}`` for its directory, and the files it reads."""
    command = draw(st.sampled_from(["transform", "eval", "flow"]))
    edge = draw(st.integers(0, 4))  # the one flag, if any, drawn from FLAG_NUMBERS
    files = {}
    if command != "transform":
        argv = ["oa", command, *_flag(draw, "--alpha", ["0", "0.3", "-2.5", "7"], edge == 0)]
        argv += _flag(draw, "--beta", ["0", "0.3", "0.9", "0.9999999999", "1"], edge == 1)
        if command == "eval":
            argv += _optional(draw, "--n", ["1", "4", *LIMITS], edge == 2)
        else:
            argv += _flag(draw, "--t", ["0", "1", "2.5", "1e-9", *LIMITS, str(FUZZ_ROWS - 1.5)], edge == 2)
            argv += _optional(draw, "--output-every", ["1", "0.25", "0.3"], edge == 3)
        if not draw(st.integers(0, 9)):  # a required flag missing
            del argv[2:4]
        return argv + ["--output", "{tmp}/out.csv"], files
    n_cells = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(["mfl-grid"] * 5 + ["cl"]))
    files["run.yaml"] = f"mode: {mode}\n{cli.MODES[mode][0]}: {n_cells}\nT: 0\n"
    kind = draw(st.sampled_from(["good"] * len(BROKEN_INPUTS) + BROKEN_INPUTS))
    if kind == "binary":
        files["in.csv"] = b"\x00\xff\xfe,\x80\n"
    elif kind == "empty":
        files["in.csv"] = ""
    elif kind != "missing":
        files["in.csv"] = _density_rows(draw, n_cells, kind)
    argv = ["transform", "--config", "{tmp}/run.yaml", "--input", "{tmp}/in.csv"]
    argv += _optional(draw, "--n-labels", ["1", "3", *LIMITS], edge == 0)
    argv += _optional(draw, "--drift-scale", ["1", "0", "-0.5", "1e308"], edge == 1)
    return argv + ["--output", "{tmp}/out.csv"], files


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def _bad_time_run(t):
    """A transform of four uniform 2-cell rows whose second time is ``t``."""
    rows = "".join(f"{time},{1 / TWO_PI!r},{1 / TWO_PI!r}\n" for time in ("0", t, "0.2", "0.3"))
    argv = ["transform", "--config", "{tmp}/run.yaml", "--input", "{tmp}/in.csv", "--output", "{tmp}/out.csv"]
    return argv, {"run.yaml": "mode: mfl-grid\nn_cells: 2\nT: 0\n", "in.csv": "t,f_0,f_1\n" + rows}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(run=_transform_and_oa_runs())
# the drawn broken times reach only two-row inputs, which the drift
# quadrature refuses first; four rows wrote nan cells with exit 0
@example(run=_bad_time_run("nan"))
@example(run=_bad_time_run("inf"))
def test_transform_and_oa_give_a_csv_or_one_error_line(run):
    template, files = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            path = Path(tmp) / name
            path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
        argv = [arg.replace("{tmp}", tmp) for arg in template]
        out = Path(tmp) / "out.csv"
        err = io.StringIO()
        with mock.patch.object(cli, "MAX_SIZE", FUZZ_ROWS), warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stderr(err):
                code = run_cli(argv)
        if code != 0:
            assert code == 2, argv
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
            assert not out.exists(), argv
            return
        assert err.getvalue() == "", argv
        header, *lines = out.read_text().splitlines()
        expected = ["t", "xi", "x"] if argv[0] == "transform" else OA_HEADERS[argv[1]]
        assert header.split(",") == expected, argv
        cells = np.array([line.split(",") for line in lines], dtype=float)
        assert cells.shape == (len(lines), len(expected)) and 1 <= len(lines), argv
        assert np.all(np.isfinite(cells)), argv
        if argv[0] == "oa":
            assert len(lines) <= FUZZ_ROWS, argv
            return
        drift = _strict_json((Path(tmp) / "out.drift.json").read_text())
        assert list(drift) == ["times", "drift"] and len(drift["times"]) == len(drift["drift"])
        assert len(lines) % len(drift["times"]) == 0 and len(lines) // len(drift["times"]) <= FUZZ_ROWS
