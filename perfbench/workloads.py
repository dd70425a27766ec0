"""The benchmark's two workloads: seeded inputs, commands and output checks.

Each workload is a fixed sequence of ``kuralim`` CLI commands.  Its inputs
are YAML configs generated from the workload seed; the program sees only
those files.  Sizes are fixed, the seed varies only values that do not
change the amount of work (angles, concentrations, particle draws).

Why each workload exists:

- ``ensembles-verify``: two simulations on both sides of the
  reduction-size crossover, then the six certification suites.  The large
  run is cl mode, sine kernel, 4096 labels: every RHS evaluation reduces
  2 x 4096 values exactly, so the exact reduction (``_reduce``) dominates.
  The small run is ds mode, odd-trig kernel, 64 particles, many short
  steps: the small-N side, and the run dominated by per-step overhead (the
  RK4 step loop, numpy on short arrays).  ``verify all`` reaches the OA
  quantile, the spectral hierarchy, the in-memory exact-drift bridge and
  the verify module.
- ``density-pipeline``: mfl-grid with a tabulated kernel, recorded every
  step, then ``transform`` of the CSV.  Exercises the generic O(n^2) grid
  velocity, the finite-volume update, the quadrature drift path of the
  bridge, CSV write and read, and two process start-ups.  It does no exact
  reduction at all.

There are only two, so that each run can be long: on the shared 2-core
machine the benchmark was defined on, shorter runs of more workloads
spread by more than the benchmark's bounds.

Floats are written with a decimal point before any exponent (``1.0e-3``):
PyYAML reads a bare ``1e-3`` as a string, a known defect of the config
parser that is left for its own fix.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Seed whose outputs are compared byte for byte with ``digests.json``.
DEFAULT_SEED = 0

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def yaml_float(x: float) -> str:
    """A float literal that YAML 1.1 reads back as the same float."""
    text = repr(float(x))
    mantissa, sep, exponent = text.partition("e")
    if sep and "." not in mantissa:
        text = f"{mantissa}.0e{exponent}"
    return text


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments after ``kuralim``, the files it reads and
    writes (names inside the run directory) and the check of its outputs."""

    args: tuple
    inputs: tuple
    outputs: tuple
    check: object  # callable(run_dir) -> list of problems


@dataclass(frozen=True)
class Plan:
    """The generated inputs and command sequence of one workload run."""

    workload: str
    configs: dict  # file name -> text
    commands: tuple
    updates: int  # state-value updates per iteration (size x steps)
    update_unit: str
    # Whether to add the updates the verify suites report in their params.
    updates_from_report: bool = False


# ---------------------------------------------------------------- checks


def _read_csv(path: str):
    import numpy as np

    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _check_table(path, header, n_rows, angle_cols=None, problems=None):
    """Header, row count, finite values and angle range of one CSV."""
    import numpy as np

    problems = [] if problems is None else problems
    name = os.path.basename(path)
    if not os.path.isfile(path):
        problems.append(f"{name}: missing")
        return problems, None
    got_header, data = _read_csv(path)
    if got_header != header:
        problems.append(f"{name}: unexpected header ({len(got_header)} columns)")
        return problems, None
    if data.shape != (n_rows, len(header)):
        problems.append(f"{name}: shape {data.shape}, expected {(n_rows, len(header))}")
        return problems, None
    if not np.all(np.isfinite(data)):
        problems.append(f"{name}: non-finite values")
    if angle_cols is not None:
        angles = data[:, angle_cols]
        if np.any((angles < 0.0) | (angles >= TWO_PI)):
            problems.append(f"{name}: angle outside [0, 2*pi)")
    return problems, data


def _check_times(name, times, t_end, problems):
    import numpy as np

    if times[0] != 0.0 or abs(times[-1] - t_end) > 1e-9 or np.any(np.diff(times) <= 0):
        problems.append(f"{name}: time column is not increasing from 0 to {t_end}")


def _label_check(csv, size, n_rows, t_end, meta_seed=None):
    def check(run_dir):
        path = os.path.join(run_dir, csv)
        header = ["t"] + [f"x_{j}" for j in range(size)]
        problems, data = _check_table(path, header, n_rows, angle_cols=slice(1, None))
        if data is not None:
            _check_times(csv, data[:, 0], t_end, problems)
        if meta_seed is not None:
            meta = os.path.join(run_dir, os.path.splitext(csv)[0] + ".meta.json")
            try:
                with open(meta) as fh:
                    got = json.load(fh)
            except (OSError, ValueError) as exc:
                problems.append(f"meta sidecar unreadable: {exc}")
            else:
                if got != {"seed": meta_seed}:
                    problems.append(f"meta sidecar {got!r} != {{'seed': {meta_seed}}}")
        return problems

    return check


def _density_check(csv, n_cells, n_rows, t_end):
    def check(run_dir):
        import numpy as np

        path = os.path.join(run_dir, csv)
        header = ["t"] + [f"f_{j}" for j in range(n_cells)]
        problems, data = _check_table(path, header, n_rows)
        if data is not None:
            _check_times(csv, data[:, 0], t_end, problems)
            mass = data[:, 1:].sum(axis=1) * (TWO_PI / n_cells)
            if np.max(np.abs(mass - 1.0)) > 1e-9:
                problems.append(f"{csv}: mass not conserved ({np.max(np.abs(mass - 1.0)):.3g})")
        return problems

    return check


def _transform_check(csv, n_labels, n_times, t_end):
    def check(run_dir):
        import numpy as np

        path = os.path.join(run_dir, csv)
        problems, data = _check_table(
            path, ["t", "xi", "x"], n_labels * n_times, angle_cols=[2]
        )
        if data is not None:
            xi = data[:n_labels, 1]
            if np.any((xi <= 0.0) | (xi >= 1.0)) or np.any(np.diff(xi) <= 0):
                problems.append(f"{csv}: labels are not increasing inside (0, 1)")
        drift_path = os.path.join(run_dir, os.path.splitext(csv)[0] + ".drift.json")
        try:
            with open(drift_path) as fh:
                drift = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"drift sidecar unreadable: {exc}")
            return problems
        times = np.asarray(drift.get("times", []), dtype=float)
        values = np.asarray(drift.get("drift", []), dtype=float)
        if times.shape != (n_times,) or values.shape != (n_times,):
            problems.append("drift sidecar: wrong length")
        elif not (np.all(np.isfinite(values)) and values[0] == 0.0):
            problems.append("drift sidecar: drift must start at 0 and stay finite")
        else:
            _check_times("drift sidecar", times, t_end, problems)
        return problems

    return check


def verify_report(run_dir, name="verify.json"):
    with open(os.path.join(run_dir, name)) as fh:
        return json.load(fh)


def _verify_check(json_name):
    def check(run_dir):
        try:
            report = verify_report(run_dir, json_name)
        except (OSError, ValueError) as exc:
            return [f"{json_name}: unreadable ({exc})"]
        if not isinstance(report, list) or len(report) != 6:
            return [f"{json_name}: expected six suite reports"]
        return [
            f"suite {r.get('test')!r} did not pass"
            for r in report
            if r.get("pass") is not True
        ]

    return check


def report_updates(report) -> int:
    """State-value updates the integrating suites report through their params."""
    total = 0
    for r in report:
        p = r["params"]
        if "t_end" not in p or "dt" not in p:
            continue
        steps = round(p["t_end"] / p["dt"])
        size = sum(p.get(k, 0) for k in ("n_labels", "n_modes", "n_cells"))
        total += size * steps
    return total


# -------------------------------------------------------------- workloads


def _ensemble_large(seed, tiny):
    rng = random.Random(f"ensemble-large/{seed}")
    n, t_end, every = (256, 0.05, 0.0025) if tiny else (4096, 0.3, 0.025)
    dt = 1e-3
    config = "\n".join(
        [
            "mode: cl",
            "kernel: kuramoto",
            f"n_labels: {n}",
            f"dt: {yaml_float(dt)}",
            f"T: {yaml_float(t_end)}",
            f"output_every: {yaml_float(every)}",
            "initial:",
            "  type: oa",
            f"  alpha: {yaml_float(rng.uniform(-math.pi, math.pi))}",
            f"  beta: {yaml_float(rng.uniform(0.1, 0.3))}",
            f"  q: {yaml_float(rng.uniform(0.0, TWO_PI))}",
            "",
        ]
    )
    steps = round(t_end / dt)
    rows = steps // round(every / dt) + 1
    cmd = Command(
        ("simulate", "--config", "large.yaml", "--output", "large.csv"),
        ("large.yaml",),
        ("large.csv",),
        _label_check("large.csv", n, rows, t_end),
    )
    return Plan("ensemble-large", {"large.yaml": config}, (cmd,), n * steps, "label-steps")


def _ensemble_small(seed, tiny):
    n, t_end, every = 64, (0.2 if tiny else 4.0), (0.01 if tiny else 0.2)
    dt = 1e-3
    config = "\n".join(
        [
            "mode: ds",
            "kernel:",
            "  type: odd-trig",
            "  coefficients: [1.0, 0.3, 0.1]",
            f"N: {n}",
            f"dt: {yaml_float(dt)}",
            f"T: {yaml_float(t_end)}",
            f"output_every: {yaml_float(every)}",
            "initial: {type: uniform}",
            f"seed: {seed}",
            "",
        ]
    )
    steps = round(t_end / dt)
    rows = steps // round(every / dt) + 1
    cmd = Command(
        ("simulate", "--config", "small.yaml", "--output", "small.csv"),
        ("small.yaml",),
        ("small.csv", "small.meta.json"),
        _label_check("small.csv", n, rows, t_end, meta_seed=seed),
    )
    return Plan("ensemble-small", {"small.yaml": config}, (cmd,), n * steps, "particle-steps")


def _density_pipeline(seed, tiny):
    rng = random.Random(f"density-pipeline/{seed}")
    n, t_end = (64, 0.2) if tiny else (512, 0.6)
    dt = 0.01
    # 65 samples of -sin on [-pi, pi]: phi(x, y) = -sin(x - y), the sine
    # kernel, evaluated through the generic tabulated path.
    offsets = [-math.pi + TWO_PI * k / 64 for k in range(65)]
    values = [-math.sin(u) for u in offsets]
    config = "\n".join(
        [
            "mode: mfl-grid",
            "kernel:",
            "  type: tabulated",
            "  periodic: true",
            "  offsets: [" + ", ".join(yaml_float(u) for u in offsets) + "]",
            "  values: [" + ", ".join(yaml_float(v) for v in values) + "]",
            f"n_cells: {n}",
            f"dt: {yaml_float(dt)}",
            f"T: {yaml_float(t_end)}",
            f"output_every: {yaml_float(dt)}",
            "initial:",
            "  type: oa",
            f"  alpha: {yaml_float(rng.uniform(-math.pi, math.pi))}",
            f"  beta: {yaml_float(rng.uniform(0.15, 0.25))}",
            "",
        ]
    )
    steps = round(t_end / dt)
    simulate = Command(
        ("simulate", "--config", "density.yaml", "--output", "density.csv"),
        ("density.yaml",),
        ("density.csv",),
        _density_check("density.csv", n, steps + 1, t_end),
    )
    transform = Command(
        (
            "transform", "--config", "density.yaml", "--input", "density.csv",
            "--output", "labels.csv",
        ),
        ("density.yaml", "density.csv"),
        ("labels.csv", "labels.drift.json"),
        _transform_check("labels.csv", n, steps + 1, t_end),
    )
    return Plan(
        "density-pipeline", {"density.yaml": config}, (simulate, transform), n * steps,
        "cell-steps",
    )


def _verify_all():
    return Command(
        ("verify", "all", "--output", "verify.json"),
        (),
        ("verify.json",),
        _verify_check("verify.json"),
    )


def _ensembles_verify(seed, tiny):
    large, small = _ensemble_large(seed, tiny), _ensemble_small(seed, tiny)
    return Plan(
        "ensembles-verify", {**large.configs, **small.configs},
        large.commands + small.commands + (_verify_all(),),
        large.updates + small.updates, "label-, particle- and value-steps",
        updates_from_report=True,
    )


WORKLOADS = {
    "ensembles-verify": _ensembles_verify,
    "density-pipeline": _density_pipeline,
}


def make_plan(name: str, seed: int, tiny: bool = False) -> Plan:
    return WORKLOADS[name](seed, tiny)


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def byte_stable(name: str) -> bool:
    """Whether an output file is byte-identical across reruns.

    The verify report carries measured runtimes, so it never is.
    """
    return name != "verify.json"
