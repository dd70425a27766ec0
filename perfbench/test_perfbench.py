"""Tests of the benchmark itself, at the smallest workload sizes.

Run from the repository root with ``python3 -m pytest perfbench``; a plain
``pytest`` run collects only ``tests`` and skips them.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest
import yaml

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=170
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=list(wl.WORKLOADS))
def runs(request):
    common = ["--workload", request.param, "--seed", "3", "--seconds", "1", "--tiny"]
    return (
        request.param,
        result_of(bench(*common, "--trace", "0")),
        result_of(bench(*common, "--trace", "1")),
    )


def _assert_metrics(result, spec):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}


def test_every_metric_appears_with_its_unit(runs):
    _, untraced, traced = runs
    _assert_metrics(untraced, SPEC["end_to_end"])
    _assert_metrics(traced, SPEC["per_layer"])
    assert all(untraced["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_self_times_sum_to_traced_wall(runs):
    import run

    _, _, traced = runs
    m = {name: v["value"] for name, v in traced["metrics"].items()}
    total = sum(m[name] for name in run.SELF_TIME_METRICS)
    wall = m["trace.wall_s"]
    assert total <= wall + 1e-9
    # What is left is the loop between the traced commands.
    assert wall - total <= abs(m["trace.overhead_frac"]) * wall + 5e-3


def test_every_trace_target_resolves(runs):
    _, _, traced = runs
    assert traced["metrics"]["trace.missing_targets"]["value"] == 0


def test_reductions_only_where_predicted(runs):
    name, _, traced = runs
    calls = traced["metrics"]["reduce.calls"]["value"]
    if name == "density-pipeline":
        assert calls == 0
    else:
        assert calls > 0


def test_yaml_floats_read_back_as_floats():
    for x in (1e-3, 1e-300, 2.5e17, -3.0e-7, 0.1, 6.283185307179586):
        assert yaml.safe_load(f"v: {wl.yaml_float(x)}")["v"] == x


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in wl.WORKLOADS:
        assert wl.make_plan(name, 5).configs == wl.make_plan(name, 5).configs
    assert wl.make_plan("ensembles-verify", 5).configs != wl.make_plan("ensembles-verify", 6).configs


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "density-pipeline", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
