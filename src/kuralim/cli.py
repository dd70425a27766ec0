"""Command-line interface: simulate, transform, oa, verify, version.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.  All CSV cells use 17-significant-digit scientific notation with
newline-terminated rows, so reruns with identical configuration are
byte-identical.  The only randomness (uniform initial particle data) is
drawn from a single seeded generator whose seed is recorded in a JSON
sidecar next to the output.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from . import __version__
from ._rk4 import step_schedule
from .circle import TWO_PI, CircularDensity, LabelGrid, ThetaGrid
from .continuum import LabelField, cl_simulate, manifold_field, twisted_field
from .errors import KuralimError, ParseError, ValidationError
from .meanfield import (
    DensityTrajectory,
    FourierDensity,
    mfl_simulate_grid,
    mfl_simulate_spectral,
)
from .oa import OAPoint, oa_cdf, oa_cell_averages, oa_density, oa_flow, oa_quantile
from .particles import (
    InteractionKernel,
    KuramotoSin,
    OddTrig,
    ParticleState,
    TabulatedGradient,
    discrete_twisted_state,
    ds_simulate,
)
from .bridge import mfl_to_cl_circle
from .verify import SUITES, run_suite

MODES = ("ds", "cl", "mfl-spectral", "mfl-grid")
SIZE_KEY = {"ds": "N", "cl": "n_labels", "mfl-spectral": "n_modes", "mfl-grid": "n_cells"}
TOP_KEYS = {"mode", "kernel", "dt", "T", "output_every", "initial", "output", "seed"} | set(
    SIZE_KEY.values()
)
INITIAL_TYPES = {
    "ds": ("uniform", "twisted", "oa", "file"),
    "cl": ("twisted", "oa", "file"),
    "mfl-spectral": ("uniform", "oa", "file"),
    "mfl-grid": ("uniform", "oa", "file"),
}

#: Most rows ``oa flow`` writes.  A longer schedule is refused before any
#: recording time is built.
MAX_OA_ROWS = 10**7


@dataclass(frozen=True)
class RunConfig:
    """Validated simulation configuration."""

    mode: str
    kernel: InteractionKernel
    size: int
    dt: float
    t_end: float
    output_every: float
    initial: dict
    output: str | None
    seed: int | None


# PyYAML follows YAML 1.1, where a float needs a dot, so ``1e-3`` loads
# as a string; scalars of this exponent form are accepted as numbers.
EXPONENT_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite_number(x):
    """``x`` as a finite float, reading exponent-form strings; else None."""
    if isinstance(x, str) and EXPONENT_FLOAT.fullmatch(x):
        x = float(x)
    if _is_number(x) and abs(x) <= sys.float_info.max:
        return float(x)
    return None


def _finite_numbers(xs):
    """A list of finite numbers read by :func:`_finite_number`; else None."""
    if not isinstance(xs, list):
        return None
    out = [_finite_number(x) for x in xs]
    return None if None in out else out


def _build_kernel(spec, problems) -> InteractionKernel:
    if spec is None:
        spec = "kuramoto"
    if isinstance(spec, str):
        spec = {"type": spec}
    if not isinstance(spec, dict):
        problems.append("kernel must be a name or a mapping")
        return KuramotoSin()
    kind = spec.get("type")
    if kind == "kuramoto":
        extra = set(spec) - {"type", "coupling"}
        if extra:
            problems.append(f"unknown kernel keys {sorted(extra)}")
        coupling = _finite_number(spec.get("coupling", 1.0))
        if coupling is None:
            problems.append("kernel coupling must be a finite number")
            coupling = 1.0
        return KuramotoSin(coupling)
    if kind == "odd-trig":
        extra = set(spec) - {"type", "coefficients"}
        if extra:
            problems.append(f"unknown kernel keys {sorted(extra)}")
        coeffs = _finite_numbers(spec.get("coefficients"))
        if not coeffs:
            problems.append("odd-trig kernel needs a nonempty list of finite coefficients")
            return KuramotoSin()
        return OddTrig(tuple(coeffs))
    if kind == "tabulated":
        extra = set(spec) - {"type", "offsets", "values", "periodic"}
        if extra:
            problems.append(f"unknown kernel keys {sorted(extra)}")
        offsets = _finite_numbers(spec.get("offsets"))
        values = _finite_numbers(spec.get("values"))
        if offsets is None or values is None or len(offsets) != len(values) or len(offsets) < 2:
            problems.append("tabulated kernel needs matching lists of finite offsets/values")
            return KuramotoSin()
        periodic = spec.get("periodic", True)
        if not isinstance(periodic, bool):
            problems.append("tabulated kernel periodic flag must be boolean")
            periodic = True
        return TabulatedGradient(np.array(offsets), np.array(values), periodic)
    problems.append(f"unknown kernel type {kind!r}")
    return KuramotoSin()


def _check_initial(spec, mode, problems) -> dict:
    if not isinstance(spec, dict) or "type" not in spec:
        problems.append("initial must be a mapping with a type key")
        return {"type": "invalid"}
    kind = spec["type"]
    allowed = INITIAL_TYPES.get(mode, ())
    if kind not in allowed:
        problems.append(
            f"initial type {kind!r} not supported for mode {mode!r} "
            f"(allowed: {', '.join(allowed)})"
        )
        return dict(spec)
    keys = {
        "uniform": {"type"},
        "twisted": {"type", "m", "q"},
        "oa": {"type", "alpha", "beta", "q"},
        "file": {"type", "path"},
    }[kind]
    extra = set(spec) - keys
    if extra:
        problems.append(f"unknown initial keys {sorted(extra)}")
    spec = dict(spec)
    if kind == "twisted":
        m = spec.get("m")
        if not isinstance(m, int) or isinstance(m, bool):
            problems.append("twisted initial needs integer winding m")
    if kind == "oa":
        alpha = spec["alpha"] = _finite_number(spec.get("alpha"))
        beta = spec["beta"] = _finite_number(spec.get("beta"))
        if alpha is None:
            problems.append("oa initial needs a finite alpha")
        if beta is None or not 0.0 <= beta < 1.0:
            problems.append("oa initial needs beta in [0, 1)")
        if mode.startswith("mfl") and "q" in spec:
            problems.append("oa initial q does not apply to density modes")
    if kind in ("twisted", "oa") and "q" in spec:
        spec["q"] = _finite_number(spec["q"])
        if spec["q"] is None:
            problems.append(f"{kind} initial q must be a finite number")
    if kind == "file" and not isinstance(spec.get("path"), str):
        problems.append("file initial needs a path string")
    return spec


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration.

    Raises :class:`ParseError` for malformed documents and
    :class:`ValidationError` listing every violation at once.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise ParseError(f"malformed config{where}: {exc}") from exc
    if doc is None:
        raise ParseError("empty config document")
    if not isinstance(doc, dict):
        raise ParseError("config must be a key-value mapping")

    problems: list[str] = []
    unknown = set(doc) - TOP_KEYS
    if unknown:
        problems.append(f"unknown keys {sorted(unknown)}")

    mode = doc.get("mode")
    if mode not in MODES:
        problems.append(f"mode must be one of {', '.join(MODES)}")
        raise ValidationError("; ".join(problems))

    size_key = SIZE_KEY[mode]
    wrong_sizes = [k for k in SIZE_KEY.values() if k != size_key and k in doc]
    if wrong_sizes:
        problems.append(f"size keys {wrong_sizes} do not apply to mode {mode!r}")
    size = doc.get(size_key)
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        problems.append(f"{size_key} must be a positive integer")
        size = 1

    dt = _finite_number(doc.get("dt", 1e-3))
    if dt is None or dt <= 0:
        problems.append("dt must be a positive number")
        dt = 1e-3
    t_end = _finite_number(doc.get("T"))
    if t_end is None or t_end < 0:
        problems.append("T must be a nonnegative number")
        t_end = 0.0
    output_every = _finite_number(doc.get("output_every", 0.1))
    if output_every is None or output_every <= 0:
        problems.append("output_every must be a positive number")
        output_every = 0.1

    kernel = _build_kernel(doc.get("kernel"), problems)
    if mode == "mfl-spectral" and not (
        isinstance(kernel, KuramotoSin) and kernel.coupling == 1.0
    ):
        problems.append("mfl-spectral supports only the unit-coupling sine kernel")

    if "initial" not in doc:
        # default to the mode's uniform state; for label dynamics that is
        # the identity field, i.e. the single twist
        initial = {"type": "twisted", "m": 1} if mode == "cl" else {"type": "uniform"}
    else:
        initial = _check_initial(doc["initial"], mode, problems)

    seed = doc.get("seed")
    needs_seed = mode == "ds" and initial.get("type") == "uniform"
    if needs_seed:
        if not isinstance(seed, int) or isinstance(seed, bool):
            problems.append("uniform initial data requires an integer seed")
    elif seed is not None:
        problems.append("seed only applies to ds runs with uniform initial data")

    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        problems.append("output must be a path string")

    if problems:
        raise ValidationError("; ".join(problems))
    return RunConfig(
        mode=mode,
        kernel=kernel,
        size=size,
        dt=dt,
        t_end=t_end,
        output_every=output_every,
        initial=initial,
        output=output,
        seed=seed,
    )


def _write_csv(path: str, header: list[str], table: np.ndarray) -> None:
    """Write a 2-D float table under ``header``, one ``%.16e`` cell per value."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, table, fmt="%.16e", delimiter=",", header=",".join(header), comments="")


def _loadtxt(path: str, **kwargs) -> np.ndarray:
    try:
        return np.loadtxt(path, dtype=float, delimiter=",", **kwargs)
    except (ValueError, OSError) as exc:
        raise ValidationError(f"cannot read numbers from {path!r}: {exc}") from exc


def _load_initial(path: str, size: int, columns: int) -> np.ndarray:
    """Initial data from a file of ``size`` lines of ``columns`` numbers."""
    data = _loadtxt(path, ndmin=2)
    if data.shape != (size, columns):
        rows, cols = data.shape
        raise ValidationError(
            f"initial file {path!r} must hold {size} lines of {columns} comma-separated "
            f"number(s), found {rows} lines of {cols}"
        )
    return data


def _build_initial(config: RunConfig):
    spec = config.initial
    kind = spec["type"]
    if config.mode == "ds":
        if kind == "uniform":
            rng = np.random.default_rng(config.seed)
            return ParticleState(rng.uniform(0.0, TWO_PI, config.size))
        if kind == "twisted":
            return discrete_twisted_state(config.size, spec["m"], float(spec.get("q", 0.0)))
        if kind == "oa":
            p = OAPoint(float(spec["alpha"]), float(spec["beta"]))
            values = manifold_field(LabelGrid(config.size), p, float(spec.get("q", 0.0)))
            return ParticleState(values.values)
        return ParticleState(_load_initial(spec["path"], config.size, 1)[:, 0])
    if config.mode == "cl":
        grid = LabelGrid(config.size)
        if kind == "twisted":
            return twisted_field(grid, spec["m"], float(spec.get("q", 0.0)))
        if kind == "oa":
            p = OAPoint(float(spec["alpha"]), float(spec["beta"]))
            return manifold_field(grid, p, float(spec.get("q", 0.0)))
        return LabelField(grid, _load_initial(spec["path"], config.size, 1)[:, 0])
    if config.mode == "mfl-spectral":
        if kind == "uniform":
            return FourierDensity(np.zeros(config.size, dtype=complex))
        if kind == "oa":
            p = OAPoint(float(spec["alpha"]), float(spec["beta"]))
            return FourierDensity.from_oa(p, config.size)
        data = _load_initial(spec["path"], config.size, 2)
        return FourierDensity(data[:, 0] + 1j * data[:, 1])
    grid = ThetaGrid(config.size)
    if kind == "uniform":
        return CircularDensity(grid, np.full(config.size, 1.0 / TWO_PI))
    if kind == "oa":
        p = OAPoint(float(spec["alpha"]), float(spec["beta"]))
        return oa_cell_averages(p, grid)
    return CircularDensity(grid, _load_initial(spec["path"], config.size, 1)[:, 0])


def _resolve_output(config: RunConfig, args, fallback: str) -> str:
    if getattr(args, "output", None):
        return args.output
    if config.output:
        return config.output
    return fallback


def _write_meta(output: str, config: RunConfig) -> None:
    if config.seed is None:
        return
    meta_path = os.path.splitext(output)[0] + ".meta.json"
    with open(meta_path, "w", newline="") as fh:
        json.dump({"seed": config.seed}, fh, indent=2)
        fh.write("\n")


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        config = parse_config(fh.read())
    initial = _build_initial(config)
    output = _resolve_output(config, args, fallback="run.csv")

    if config.mode in ("ds", "cl"):
        simulate = ds_simulate if config.mode == "ds" else cl_simulate
        traj = simulate(initial, config.kernel, config.dt, config.t_end, config.output_every)
        header = ["t"] + [f"x_{j}" for j in range(config.size)]
        table = np.column_stack((traj.times, traj.states))
    elif config.mode == "mfl-grid":
        traj = mfl_simulate_grid(
            initial, config.kernel, config.dt, config.t_end, config.output_every
        )
        header = ["t"] + [f"f_{j}" for j in range(config.size)]
        table = np.column_stack((traj.times, traj.values))
    else:
        traj = mfl_simulate_spectral(initial, config.dt, config.t_end, config.output_every)
        header = ["t"]
        for n in range(1, config.size + 1):
            header += [f"re_c_{n}", f"im_c_{n}"]
        # a complex row viewed as floats is re_c_1, im_c_1, re_c_2, ...
        table = np.column_stack((traj.times, traj.states.view(float)))

    _write_csv(output, header, table)
    _write_meta(output, config)
    return 0


def _read_density_csv(path: str, n_cells: int) -> DensityTrajectory:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    expected = ["t"] + [f"f_{j}" for j in range(n_cells)]
    if header != expected:
        raise ValidationError(
            f"input {path!r} is not a density trajectory with {n_cells} cells"
        )
    data = _loadtxt(path, skiprows=1, ndmin=2)
    return DensityTrajectory(data[:, 0], data[:, 1:], ThetaGrid(n_cells))


def _cmd_transform(args) -> int:
    with open(args.config) as fh:
        config = parse_config(fh.read())
    if config.mode != "mfl-grid":
        raise ValidationError("transform requires a config with mode mfl-grid")
    input_path = args.input or config.output
    if not input_path:
        raise ValidationError("no input trajectory: pass --input or set output in the config")
    n_labels = config.size if args.n_labels is None else args.n_labels
    if n_labels < 1:
        raise ValidationError("--n-labels must be at least 1")
    if not np.isfinite(args.drift_scale):
        raise ValidationError("--drift-scale must be a finite number")
    traj = _read_density_csv(input_path, config.size)
    result = mfl_to_cl_circle(
        traj, config.kernel, LabelGrid(n_labels), drift_scale=args.drift_scale
    )

    output = args.output or os.path.splitext(input_path)[0] + ".transform.csv"
    table = np.column_stack((
        np.repeat(result.times, n_labels),
        np.tile(result.label_grid.midpoints, len(result.times)),
        result.fields.ravel(),
    ))
    _write_csv(output, ["t", "xi", "x"], table)

    drift_path = os.path.splitext(output)[0] + ".drift.json"
    with open(drift_path, "w", newline="") as fh:
        json.dump(
            {"times": [float(t) for t in result.times], "drift": [float(s) for s in result.drift]},
            fh,
            indent=2,
        )
        fh.write("\n")
    return 0


def _oa_flow_times(every: float, t_end: float) -> np.ndarray:
    """Recording times of ``oa flow``: the multiples of ``every`` up to
    ``t_end``, then ``t_end`` itself if it is not one of them.

    Raises :class:`ValidationError` when that would be more than
    :data:`MAX_OA_ROWS` rows.
    """
    if t_end < 0:
        raise ValidationError("--t must be nonnegative")
    if every <= 0:
        raise ValidationError("--output-every must be positive")
    # At most t_end / every + 2 rows.  Checked before step_schedule, whose
    # step count overflows once the ratio is infinite; a non-finite t_end
    # is left to step_schedule's own check.
    if t_end < np.inf and t_end / every > MAX_OA_ROWS - 2:
        raise ValidationError(
            f"--t / --output-every would record more than {MAX_OA_ROWS} rows"
        )
    n_full, remainder = step_schedule(every, t_end)
    times = np.arange(n_full + 1) * every
    return np.append(times, t_end) if remainder else times


def _cmd_oa(args) -> int:
    p = OAPoint(args.alpha, args.beta)
    if args.oa_command == "eval":
        n = args.n
        if n < 1:
            raise ValidationError("--n must be at least 1")
        theta = np.arange(n + 1) * (TWO_PI / n)
        theta[-1] = TWO_PI
        xi = np.arange(n + 1) / n
        density = oa_density(p, theta)
        cdf = oa_cdf(p, theta)
        quantile = oa_quantile(p, xi)
        table = np.column_stack((theta, density, cdf, xi, quantile))
        _write_csv(args.output, ["theta", "density", "cdf", "xi", "quantile"], table)
        return 0

    times = _oa_flow_times(args.output_every, args.t)
    betas = [oa_flow(p, t).beta for t in times]
    table = np.column_stack((times, np.full(len(times), p.alpha), betas))
    _write_csv(args.output, ["t", "alpha", "beta"], table)
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        report = run_suite(name, negative_control=args.negative_control)
        reports.append(report)
        status = "pass" if report.passed else "FAIL"
        print(
            f"{report.test}: {status} (max_residual {report.max_residual:.3e}, "
            f"tolerance {report.tolerance:.3e})",
            file=sys.stderr,
        )

    payload = [r.to_json_dict() for r in reports]
    text = json.dumps(payload[0] if args.suite != "all" else payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_version(args) -> int:
    print(f"kuralim {__version__}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kuralim",
        description="Limiting descriptions of interacting phase oscillators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured simulation to CSV")
    sim.add_argument("--config", required=True, help="YAML run configuration")
    sim.add_argument("--output", help="override the config output path")
    sim.set_defaults(func=_cmd_simulate)

    tr = sub.add_parser("transform", help="quantile-transform a stored density run")
    tr.add_argument("--config", required=True, help="YAML config of the density run")
    tr.add_argument("--input", help="density trajectory CSV (default: config output)")
    tr.add_argument("--n-labels", type=int, dest="n_labels", help="labels in the output field")
    tr.add_argument("--drift-scale", type=float, dest="drift_scale", default=1.0)
    tr.add_argument("--output", help="output CSV path")
    tr.set_defaults(func=_cmd_transform)

    oa = sub.add_parser("oa", help="evaluate closed forms of the invariant family")
    oa_sub = oa.add_subparsers(dest="oa_command", required=True)
    for name in ("eval", "flow"):
        cmd = oa_sub.add_parser(name)
        cmd.add_argument("--alpha", type=float, required=True)
        cmd.add_argument("--beta", type=float, required=True)
        if name == "eval":
            cmd.add_argument("--n", type=int, default=256, help="grid resolution")
        else:
            cmd.add_argument("--t", type=float, required=True, help="final time")
            cmd.add_argument(
                "--output-every", type=float, dest="output_every", default=0.1
            )
        cmd.add_argument("--output", required=True, help="output CSV path")
        cmd.set_defaults(func=_cmd_oa)

    ver = sub.add_parser("verify", help="run verification suites to JSON")
    ver.add_argument("suite", choices=list(SUITES) + ["all"])
    ver.add_argument(
        "--negative-control",
        action="store_true",
        help="run the deliberately perturbed configuration (expected to fail)",
    )
    ver.add_argument("--output", help="JSON report path (default: stdout)")
    ver.set_defaults(func=_cmd_verify)

    vn = sub.add_parser("version", help="print the package version")
    vn.set_defaults(func=_cmd_version)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KuralimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(run_cli())
