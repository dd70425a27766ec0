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
import gc
import itertools
import json
import os
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import yaml

from . import __version__
from ._rk4 import step_schedule
from .circle import TWO_PI, CircularDensity, LabelGrid, ThetaGrid, is_size, is_winding
from .continuum import manifold_field, twisted_field
from .errors import DomainError, KuralimError, ParseError, ValidationError
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

#: Mode -> (size key, least size, initial types, default initial).  A grid
#: needs two cells.  By default a run starts from the mode's uniform state;
#: cl from the identity field, one twist.
MODES = {
    "ds": ("N", 1, ("uniform", "twisted", "oa", "file"), {"type": "uniform"}),
    "cl": ("n_labels", 1, ("twisted", "oa", "file"), {"type": "twisted", "m": 1}),
    "mfl-spectral": ("n_modes", 1, ("uniform", "oa", "file"), {"type": "uniform"}),
    "mfl-grid": ("n_cells", 2, ("uniform", "oa", "file"), {"type": "uniform"}),
}

#: Longest array built from one CLI number: a run's or a transform's size
#: (``N``, ``n_labels``, ``n_cells``, ``n_modes``, ``--n-labels``) and the
#: rows ``oa eval`` and ``oa flow`` write.  A longer one is refused before it is built.
MAX_SIZE = 10**7

#: Deepest nesting of collections a config may have; a valid one nests three
#: deep.  The parsers build a document by recursion, one level per nesting:
#: libyaml's crashes the process far past this, PyYAML's own raises RecursionError.
MAX_DEPTH = 100

# Every collection in a YAML document starts at one of these marks, each at
# its own: a flow bracket, a mapping's ':' or '?', or a block sequence's '-'.
COLLECTION_MARK = re.compile(r"[\[{:?]|-(?=\s|\Z)")

#: Most cells :func:`_write_csv` writes with one ``%`` operation (about
#: 400 kB of text), counted by header columns; a row wider than this is
#: formatted alone.
CSV_CHUNK_VALUES = 1 << 14


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


def _finite(x):
    """``x`` as a finite float, reading exponent-form strings."""
    if isinstance(x, str) and EXPONENT_FLOAT.fullmatch(x):
        x = float(x)
    if isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max:
        return float(x)
    return None


def _positive(x):
    x = _finite(x)
    return x if x is not None and x > 0 else None


def _nonnegative(x):
    x = _finite(x)
    return x if x is not None and x >= 0 else None


def _concentration(x):
    x = _finite(x)
    return x if x is not None and 0.0 <= x <= 1.0 else None


def _finite_list(xs):
    out = [_finite(x) for x in xs] if isinstance(xs, list) else []
    return out if out and None not in out else None


def _winding(m):
    return m if is_winding(m) else None


def _flag(x):
    return x if isinstance(x, bool) else None


def _path(x):
    return x if isinstance(x, str) else None


# Key tables: key -> (reader, default, problem).  A reader returns the value
# it reads, or None to report the problem.  A default of None marks a
# required key; an OPTIONAL key that is absent stays out of the values.
OPTIONAL = object()

#: The run's scalars.  parse_config reads the PART_KEYS itself.
RUN_KEYS = {
    "dt": (_positive, 1e-3, "dt must be a positive number"),
    "T": (_nonnegative, None, "T must be a nonnegative number"),
    "output_every": (_positive, 0.1, "output_every must be a positive number"),
}
PART_KEYS = ("mode", *[k for k, *_ in MODES.values()], "kernel", "initial", "output", "seed")

#: Kernel type -> its keys besides ``type``, which are its class's fields.
KERNELS = {
    "kuramoto": {"coupling": (_finite, 1.0, "kernel coupling must be a finite number")},
    "odd-trig": {"coefficients": (_finite_list, None, "kernel needs finite coefficients")},
    "tabulated": {
        "offsets": (_finite_list, None, "tabulated kernel needs a list of finite offsets"),
        "values": (_finite_list, None, "tabulated kernel needs a list of finite values"),
        "periodic": (_flag, True, "tabulated kernel periodic flag must be boolean"),
    },
}
KERNEL_CLASSES = {"kuramoto": KuramotoSin, "odd-trig": OddTrig, "tabulated": TabulatedGradient}

#: Initial type -> its keys besides ``type``.  ``q`` rotates the labels.
Q_ENTRY = (_finite, OPTIONAL, "initial q must be a finite number")
INITIALS = {
    "uniform": {},
    "twisted": {"m": (_winding, None, "twisted initial needs integer winding m"), "q": Q_ENTRY},
    "oa": {
        "alpha": (_finite, None, "oa initial needs a finite alpha"),
        "beta": (_concentration, None, "oa initial needs beta in [0, 1]"),
        "q": Q_ENTRY,
    },
    "file": {"path": (_path, None, "file initial needs a path string")},
}


def _read(spec: dict, keys: dict, problems: list, what: str) -> dict:
    """The values of ``spec`` read by the table ``keys``, defaults filled in.
    An unknown ``what``, a missing key or a refused value adds a problem."""
    extra = spec.keys() - keys.keys()
    if extra:
        # YAML keys need not be strings
        problems.append(f"unknown {what} {sorted(extra, key=str)}")
    values = {}
    for key, (reader, default, problem) in keys.items():
        value = reader(spec[key]) if key in spec else default
        if value is None:
            problems.append(problem)
        elif value is not OPTIONAL:
            values[key] = value
    return values


def _read_typed(spec, tables: dict, problems: list, what: str):
    """The type of the mapping ``spec`` and its values read by that type's table."""
    # a tuple, as the type may be an unhashable value
    if not isinstance(spec, dict) or spec.get("type") not in tuple(tables):
        problems.append(f"{what} must be a mapping with type one of {', '.join(tables)}")
        return None, {}
    rest = {k: v for k, v in spec.items() if k != "type"}
    return spec["type"], _read(rest, tables[spec["type"]], problems, f"{what} keys")


def _check_depth(text: str, loader) -> None:
    """Refuse a document nested deeper than :data:`MAX_DEPTH`.  Only a text
    with more marks than that is parsed for it, and only up to that depth."""
    if len(COLLECTION_MARK.findall(text)) <= MAX_DEPTH:
        return
    depth = 0
    for event in yaml.parse(text, Loader=loader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_DEPTH:
                raise yaml.MarkedYAMLError(
                    problem=f"collections nested deeper than {MAX_DEPTH}",
                    problem_mark=event.start_mark,
                )
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration.

    Raises :class:`ParseError` for malformed documents and
    :class:`ValidationError` listing every violation at once.
    """
    # libyaml's parser when PyYAML has it; both give the same documents
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        _check_depth(text, loader)
        doc = yaml.load(text, Loader=loader)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a bad date, a too-long int
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        # the first line only: PyYAML's text goes on to quote the source
        problem = (getattr(exc, "problem", None) or str(exc)).splitlines()[0]
        raise ParseError(f"malformed config{where}: {problem}") from exc
    if doc is None:
        raise ParseError("empty config document")
    if not isinstance(doc, dict):
        raise ParseError("config must be a key-value mapping")

    problems: list[str] = []
    run = _read({k: v for k, v in doc.items() if k not in PART_KEYS}, RUN_KEYS, problems, "keys")
    mode = doc.get("mode")
    # a tuple, as the mode may be an unhashable value
    if mode not in tuple(MODES):
        problems.append(f"mode must be one of {', '.join(MODES)}")
        raise ValidationError("; ".join(problems))

    size_key, least, initial_types, default_initial = MODES[mode]
    wrong_sizes = [k for k, *_ in MODES.values() if k != size_key and k in doc]
    if wrong_sizes:
        problems.append(f"size keys {wrong_sizes} do not apply to mode {mode!r}")
    size = doc.get(size_key)
    if not is_size(size, least):
        rule = "a positive integer" if least == 1 else f"an integer of at least {least}"
        problems.append(f"{size_key} must be {rule}")
    elif size > MAX_SIZE:
        problems.append(f"{size_key} must be at most {MAX_SIZE}")

    spec = doc.get("kernel")
    if spec is None or isinstance(spec, str):
        spec = {"type": "kuramoto" if spec is None else spec}
    kind, values = _read_typed(spec, KERNELS, problems, "kernel")
    kernel = KuramotoSin()
    if kind is not None and len(values) == len(KERNELS[kind]):
        try:
            kernel = KERNEL_CLASSES[kind](**values)
        except DomainError as exc:  # a rule of the kernel's class, such as increasing offsets
            problems.append(str(exc))
    if mode == "mfl-spectral" and kernel != KuramotoSin(1.0):
        problems.append("mfl-spectral supports only the unit-coupling sine kernel")

    tables = {name: INITIALS[name] for name in initial_types}
    kind, values = _read_typed(doc.get("initial", default_initial), tables, problems, "initial")
    initial = {"type": kind, **values}
    if mode.startswith("mfl") and "q" in values:
        problems.append("initial q rotates labels or particles; a density has neither")

    seed = doc.get("seed")
    if mode == "ds" and initial["type"] == "uniform":
        if not is_size(seed, 0):
            problems.append("uniform initial data requires a nonnegative integer seed")
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
        dt=run["dt"],
        t_end=run["T"],
        output_every=run["output_every"],
        initial=initial,
        output=output,
        seed=seed,
    )


def _write_csv(path: str, header: list[str], table: np.ndarray, prefixes=None) -> None:
    """Write a 2-D float table under ``header``, one ``%.16e`` cell per value,
    formatting each chunk of :data:`CSV_CHUNK_VALUES` cells (or one row) with one ``%``.
    ``prefixes``, if given, is an iterator of one text per row, written before its cells:
    the leading columns, whose repeated values the caller formats once."""
    cells = ",".join(["%.16e"] * table.shape[1]) + "\n"
    rows = max(1, CSV_CHUNK_VALUES // len(header))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), rows):
            chunk = table[start:start + rows]
            if prefixes is None:
                line = cells * len(chunk)
            else:
                line = cells.join(itertools.islice(prefixes, len(chunk))) + cells
            fh.write(line % tuple(chunk.ravel().tolist()))


def _loadtxt(path: str, **kwargs) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # numpy only warns about an input without numbers; refuse it
            warnings.simplefilter("error", UserWarning)
            return np.loadtxt(path, dtype=float, delimiter=",", **kwargs)
    except (ValueError, OSError, UserWarning) as exc:
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
    spec, n, mode = config.initial, config.size, config.mode
    kind, q = spec["type"], spec.get("q", 0.0)
    p = OAPoint(spec["alpha"], spec["beta"]) if kind == "oa" else None
    if kind == "file":
        data = _load_initial(spec["path"], n, 2 if mode == "mfl-spectral" else 1)
    if mode in ("ds", "cl"):  # a cl run is the ds run of its label values
        if kind == "uniform":
            x = np.random.default_rng(config.seed).uniform(0.0, TWO_PI, n)
        elif kind == "twisted" and mode == "ds":  # angles at j / n, not at the label midpoints
            x = discrete_twisted_state(n, spec["m"], q).positions
        elif kind == "twisted":
            x = twisted_field(LabelGrid(n), spec["m"], q).values
        elif kind == "oa":
            x = manifold_field(LabelGrid(n), p, q).values
        else:
            x = data[:, 0]
        return ParticleState(x)
    if mode == "mfl-spectral":
        if kind == "uniform":
            return FourierDensity(np.zeros(n, dtype=complex))
        if kind == "oa":
            return FourierDensity.from_oa(p, n)
        return FourierDensity(data[:, 0] + 1j * data[:, 1])
    grid = ThetaGrid(n)
    if kind == "uniform":
        return CircularDensity(grid, np.full(n, 1.0 / TWO_PI))
    if kind == "oa":
        return oa_cell_averages(p, grid)
    return CircularDensity(grid, data[:, 0])


def _write_json(path: str | None, value) -> None:
    """``value`` as indented JSON with a final newline, to ``path``, or to
    stdout when ``path`` is empty."""
    text = json.dumps(value, indent=2) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _read_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode config {path!r}: {exc}") from exc


def _header(mode: str, n: int) -> list[str]:
    """The CSV header of a ``mode`` run of size ``n``."""
    if mode == "mfl-spectral":
        return ["t"] + [f"{p}_c_{k}" for k in range(1, n + 1) for p in ("re", "im")]
    return ["t"] + [f"{'f' if mode == 'mfl-grid' else 'x'}_{j}" for j in range(n)]


def _cmd_simulate(args) -> int:
    config = _read_config(args.config)
    initial = _build_initial(config)
    output = args.output or config.output or "run.csv"
    schedule = (config.dt, config.t_end, config.output_every)
    if config.mode == "mfl-grid":
        traj = mfl_simulate_grid(initial, config.kernel, *schedule)
        states = traj.values
    elif config.mode == "mfl-spectral":
        traj = mfl_simulate_spectral(initial, *schedule)
        states = traj.states.view(float)  # a complex row as floats: re_c_1, im_c_1, re_c_2, ...
    else:
        traj = ds_simulate(initial, config.kernel, *schedule)
        states = traj.states
    _write_csv(output, _header(config.mode, config.size), np.column_stack((traj.times, states)))
    if config.seed is not None:
        _write_json(os.path.splitext(output)[0] + ".meta.json", {"seed": config.seed})
    return 0


def _read_density_csv(path: str, n_cells: int) -> DensityTrajectory:
    # a header that does not decode is not the expected one either
    with open(path, errors="replace") as fh:
        header = fh.readline().strip().split(",")
    if header != _header("mfl-grid", n_cells):
        raise ValidationError(
            f"input {path!r} is not a density trajectory with {n_cells} cells"
        )
    data = _loadtxt(path, skiprows=1, ndmin=2)
    return DensityTrajectory(data[:, 0], data[:, 1:], ThetaGrid(n_cells))


def _cmd_transform(args) -> int:
    config = _read_config(args.config)
    if config.mode != "mfl-grid":
        raise ValidationError("transform requires a config with mode mfl-grid")
    input_path = args.input or config.output
    if not input_path:
        raise ValidationError("no input trajectory: pass --input or set output in the config")
    n_labels = config.size if args.n_labels is None else args.n_labels
    if n_labels < 1:
        raise ValidationError("--n-labels must be at least 1")
    if n_labels > MAX_SIZE:
        raise ValidationError(f"--n-labels must be at most {MAX_SIZE}")
    if not np.isfinite(args.drift_scale):
        raise ValidationError("--drift-scale must be a finite number")
    traj = _read_density_csv(input_path, config.size)
    result = mfl_to_cl_circle(
        traj, config.kernel, LabelGrid(n_labels), drift_scale=args.drift_scale
    )

    output = args.output or os.path.splitext(input_path)[0] + ".transform.csv"
    # each time and label is formatted once; a row is "t,xi," and its field value
    times = ["%.16e," % t for t in result.times.tolist()]
    labels = ["%.16e," % xi for xi in result.label_grid.midpoints.tolist()]
    prefixes = (t + xi for t in times for xi in labels)
    _write_csv(output, ["t", "xi", "x"], result.fields.reshape(-1, 1), prefixes)

    drift = {"times": result.times.tolist(), "drift": result.drift.tolist()}
    _write_json(os.path.splitext(output)[0] + ".drift.json", drift)
    return 0


def _oa_flow_times(every: float, t_end: float) -> np.ndarray:
    """Recording times of ``oa flow``: the multiples of ``every`` up to
    ``t_end``, then ``t_end`` itself if it is not one of them.

    Raises :class:`ValidationError` when that would be more than
    :data:`MAX_SIZE` rows.
    """
    if not 0 <= t_end < np.inf:
        raise ValidationError("--t must be finite and nonnegative")
    if every <= 0:
        raise ValidationError("--output-every must be positive")
    if not every < np.inf:
        raise ValidationError("--output-every must be finite")
    # At most t_end / every + 2 rows, a tighter limit than step_schedule's
    # own MAX_STEPS.
    if t_end / every > MAX_SIZE - 2:
        raise ValidationError(f"--t / --output-every would record more than {MAX_SIZE} rows")
    n_full, remainder = step_schedule(every, t_end)
    times = np.arange(n_full + 1) * every
    return np.append(times, t_end) if remainder else times


def _cmd_oa(args) -> int:
    p = OAPoint(args.alpha, args.beta)
    if args.oa_command == "eval":
        n = args.n
        if n < 1:
            raise ValidationError("--n must be at least 1")
        if n + 1 > MAX_SIZE:
            raise ValidationError(f"--n would record more than {MAX_SIZE} rows")
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
    _write_json(args.output, payload[0] if args.suite != "all" else payload)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_version(args) -> int:
    print(f"kuralim {__version__}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as :class:`ParseError`, not argparse's usage and exit."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (KuralimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    """The ``kuralim`` command.  What is loaded by now lives until exit;
    frozen, neither a collection in the run nor the exit scans it again."""
    gc.freeze()
    gc.enable()
    raise SystemExit(run_cli())
