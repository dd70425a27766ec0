"""kuralim benchmark: two CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload ensembles-verify --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics.  Every command is a fresh
``python -m kuralim`` child process, one at a time, with single-threaded
BLAS, against the checkout's ``src`` tree:

- ``setup_s``: median wall time of ``kuralim version`` (interpreter start
  plus the import of ``kuralim.cli`` and its dependencies);
- ``wall_s``: median wall time of the workload's full command sequence
  (each round of the ``--seconds`` runs the sequence once, between two
  ``kuralim version`` calls);
- ``work_per_s``: state-value updates (labels, particles or cells times
  integration steps) of one sequence divided by ``wall_s``.  For
  ``verify all`` the updates are those of the integrating suites, read
  from the parameters in the program's own report;
- ``peak_rss_mb``: the largest resident set of the workload's children,
  from the rusage that ``os.wait4`` returns.

``--trace 1`` loads the checkout's kuralim into this process, runs the same
command sequence through ``kuralim.cli.run_cli`` alternately untraced and
traced (see ``spans.py``), and reports the mean per sequence of per-layer
self times and counts, the import time per package from ``python -X
importtime``, the verify suites' own runtimes and residual ratio, the source
line count per module, the tracing overhead, and the number of trace
targets that no longer resolve (their layers then read 0).  The spans of
the last traced sequence are written to ``.perfbench/spans-<workload>.tsv``.

Every output is checked: for ``DEFAULT_SEED`` byte for byte against
``digests.json``; for other seeds by header, row count, finite values and
angle range; every rerun inside a run must reproduce the first run's
bytes; ``verify all`` must exit 0 with every suite passing.  A command
fails when it exits non-zero or its output fails its check.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with its
quartiles and sample count, and the machine it ran on.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import workloads as wl

# Leaves room under the three-minute limit for checks and the clean-up.
DEADLINE_S = 165.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "work_per_s": "updates/s", "peak_rss_mb": "MB"}

# The package's modules when the benchmark was defined; a module deleted
# later reports 0 lines, and ``lines.total`` counts every module present.
MODULES = (
    "__init__", "__main__", "_reduce", "_rk4", "bridge", "circle", "cli", "continuum",
    "errors", "meanfield", "oa", "particles", "verify",
)
LINE_METRICS = tuple(f"lines.{m}" for m in MODULES) + ("lines.total",)

VERIFY_TESTS = (
    "mean-interaction", "manifold-invariance", "spectrum", "oa-closure", "bridge", "sync-limit",
)

PER_LAYER_UNITS = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.yaml_s": "s",
    "import.kuralim_s": "s",
    "reduce.calls": "count",
    "reduce.values": "count",
    "reduce.values_per_call": "count",
    "reduce.self_s": "s",
    "rk4.steps": "count",
    "rk4.rhs_evals": "count",
    "rk4.self_s": "s",
    "rk4.us_per_step": "us",
    "particles.mean_interaction.calls": "count",
    "particles.mean_interaction.self_s": "s",
    "particles.circle_velocity.calls": "count",
    "particles.circle_velocity.self_s": "s",
    "particles.phi.calls": "count",
    "meanfield.grid.steps": "count",
    "meanfield.grid.self_s": "s",
    "meanfield.spectral_rhs.calls": "count",
    "meanfield.spectral_rhs.self_s": "s",
    "cli.parse_s": "s",
    "cli.initial_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "cli.bytes_in": "B",
    "bridge.mfl_to_cl_circle.self_s": "s",
    "bridge.anchor_flux_series.self_s": "s",
    "circle.cdf_from_density.self_s": "s",
    "circle.quantile.calls": "count",
    "circle.quantile.self_s": "s",
    "oa.oa_quantile.points": "count",
    "oa.oa_quantile.self_s": "s",
    "oa.brentq.calls": "count",
    "verify.self_s": "s",
    "verify.residual_ratio": "ratio",
    **{f"verify.{name}.runtime_s": "s" for name in VERIFY_TESTS},
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.missing_targets": "count",
    **{name: "lines" for name in LINE_METRICS},
}
UNITS = {**END_TO_END, **PER_LAYER_UNITS}

# Layer self times that partition the traced wall time (see spans.py).
SELF_TIME_METRICS = (
    "reduce.self_s", "rk4.self_s", "particles.mean_interaction.self_s",
    "particles.circle_velocity.self_s", "meanfield.grid.self_s",
    "meanfield.spectral_rhs.self_s", "cli.parse_s", "cli.initial_s", "cli.self_s",
    "bridge.mfl_to_cl_circle.self_s", "bridge.anchor_flux_series.self_s",
    "circle.cdf_from_density.self_s", "circle.quantile.self_s", "oa.oa_quantile.self_s",
    "verify.self_s",
)


def line_counts(root) -> dict:
    """Source line count of every module of the package, and their total."""
    counts = {}
    for path in glob.glob(os.path.join(root, "src", "kuralim", "*.py")):
        with open(path, "rb") as fh:
            counts[os.path.basename(path)[:-3]] = fh.read().count(b"\n")
    out = {f"lines.{m}": counts.get(m, 0) for m in MODULES}
    out["lines.total"] = sum(counts.values())
    return out


def machine() -> dict:
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
    }
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            info[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            info[dist] = None
    return info


def summary(values, centre=statistics.median):
    """(centre, first quartile, third quartile, count) of a sample."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return centre(values), q1, q3, len(values)


class Tally:
    """Attempted and failed operations, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems = []
        self.failed = 0

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


class Children:
    """Runs child processes one at a time and reaps each with ``os.wait4``."""

    def __init__(self, root, deadline):
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def run(self, argv, cwd):
        """(wall seconds, peak RSS in MB, exit code, stdout, stderr)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return 0.0, 0.0, None, "", "benchmark deadline reached"
        out_path = os.path.join(cwd, ".child.out")
        err_path = os.path.join(cwd, ".child.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr


class Workspace:
    """The run directory of one workload run and the checks of its outputs."""

    def __init__(self, root, plan, seed, tiny):
        self.plan = plan
        self.dir = os.path.join(root, ".perfbench", f"{plan.workload}-seed{seed}-{os.getpid()}")
        # Spans of the last traced sequence; kept after the run.
        self.spans_path = os.path.join(root, ".perfbench", f"spans-{plan.workload}.tsv")
        os.makedirs(self.dir, exist_ok=True)
        for name, text in plan.configs.items():
            with open(os.path.join(self.dir, name), "w") as fh:
                fh.write(text)
        self.expected = {}
        if seed == wl.DEFAULT_SEED and not tiny:
            self.expected = dict(wl.load_digests()[plan.workload])
        self.checked = set()

    def clear_outputs(self):
        for cmd in self.plan.commands:
            for name in cmd.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(self.dir, name))

    def check(self, cmd) -> list:
        """Problems with the outputs of one command that has just run.

        The first run of a command gets the full check; later runs must
        reproduce the bytes of the first.  Files with a recorded digest must
        match it.
        """
        problems = []
        if cmd.args not in self.checked or not all(map(wl.byte_stable, cmd.outputs)):
            try:
                problems += cmd.check(self.dir)
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable output ({exc})")
            self.checked.add(cmd.args)
        for name in cmd.outputs:
            path = os.path.join(self.dir, name)
            if not wl.byte_stable(name):
                continue
            if not os.path.isfile(path):
                problems.append(f"{name}: missing")
                continue
            digest = wl.sha256_file(path)
            want = self.expected.setdefault(name, digest)
            if digest != want:
                problems.append(f"{name}: bytes differ from the recorded digest")
        return problems

    def bytes_io(self) -> tuple:
        """Bytes the command sequence reads from and writes to its files."""
        def total(names):
            return sum(os.path.getsize(os.path.join(self.dir, n)) for n in names)

        cmds = self.plan.commands
        return (
            total(n for c in cmds for n in c.inputs),
            total(n for c in cmds for n in c.outputs),
        )

    def updates(self) -> int:
        if self.plan.updates_from_report:
            return self.plan.updates + wl.report_updates(wl.verify_report(self.dir))
        return self.plan.updates

    def remove(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.dir))


def measure_end_to_end(ws, children, seconds, tally):
    """Run the command sequence between two cold ``kuralim version`` calls,
    round after round for ``seconds``, so that both samples spread over the
    whole run and set-up gets twice as many samples as the sequence."""
    python = sys.executable
    setup, walls, peak_rss = [], [], 0.0
    start = time.perf_counter()
    last = 0.0

    def version():
        wall, _, code, stdout, stderr = children.run([python, "-m", "kuralim", "version"], ws.dir)
        ok = code == 0 and stdout.startswith("kuralim ")
        tally.record("kuralim version", [] if ok else [f"exit {code}: {stderr.strip()[-300:]}"])
        return wall, ok

    while not walls or time.perf_counter() - start + last <= seconds:
        t_iter = time.perf_counter()
        before, ok = version()
        ws.clear_outputs()
        results = [children.run([python, "-m", "kuralim", *cmd.args], ws.dir)
                   for cmd in ws.plan.commands]
        for cmd, (_, rss, code, _, stderr) in zip(ws.plan.commands, results):
            peak_rss = max(peak_rss, rss)
            problems = [f"exit {code}: {stderr.strip()[-300:]}"] if code != 0 else ws.check(cmd)
            tally.record(" ".join(cmd.args[:2]), problems)
            ok = ok and not problems
        after, after_ok = version()
        if not (ok and after_ok) or time.monotonic() > children.deadline:
            break
        setup += [before, after]
        walls.append(sum(r[0] for r in results))
        last = time.perf_counter() - t_iter
    if not walls or not setup:
        return {}
    wall_s = summary(walls)
    updates = ws.updates()
    return {
        "setup_s": summary(setup),
        "wall_s": wall_s,
        "work_per_s": tuple(updates / w for w in (wall_s[0], wall_s[2], wall_s[1])) + (wall_s[3],),
        "peak_rss_mb": (peak_rss, peak_rss, peak_rss, len(walls)),
    }


def _load_kuralim(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import kuralim.cli

    if not os.path.abspath(kuralim.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported kuralim from {kuralim.cli.__file__}, not from {src}")
    return kuralim.cli


def _run_in_process(ws, cli, tally, tracer=None):
    """Run the command sequence through ``run_cli``; returns the wall time."""
    log = os.path.join(ws.dir, ".inprocess.err")
    ws.clear_outputs()
    codes = []
    cwd = os.getcwd()
    os.chdir(ws.dir)
    try:
        with open(log, "w") as err, contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            for cmd in ws.plan.commands:
                args = list(cmd.args)
                try:
                    code = cli.run_cli(args) if tracer is None else tracer.root(cli.run_cli, args)
                except Exception as exc:  # a crash fails the command, as it would a child
                    code = f"{type(exc).__name__}: {exc}"
                codes.append(code)
            wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    for cmd, code in zip(ws.plan.commands, codes):
        problems = [f"exit {code}"] if code != 0 else ws.check(cmd)
        where = " (traced)" if tracer else " (in-process)"
        tally.record(" ".join(cmd.args[:2]) + where, problems)
    return wall


def _layer_metrics(tracer, wall, untraced_wall) -> dict:
    st, sc, counts, items = (
        tracer.self_times(), tracer.span_counts(), tracer.counts, tracer.items
    )
    steps = sc["rk4.step"]
    rk4_self = st["rk4"] + st["rk4.step"]
    return {
        "reduce.calls": sc["reduce"],
        "reduce.values": items["reduce"],
        "reduce.values_per_call": items["reduce"] / sc["reduce"] if sc["reduce"] else 0.0,
        "reduce.self_s": st["reduce"],
        "rk4.steps": steps,
        "rk4.rhs_evals": counts["rk4.rhs_evals"],
        "rk4.self_s": rk4_self,
        "rk4.us_per_step": 1e6 * rk4_self / steps if steps else 0.0,
        "particles.mean_interaction.calls": sc["particles.mean_interaction"],
        "particles.mean_interaction.self_s": st["particles.mean_interaction"],
        "particles.circle_velocity.calls": sc["particles.circle_velocity"],
        "particles.circle_velocity.self_s": st["particles.circle_velocity"],
        "particles.phi.calls": counts["particles.phi"],
        "meanfield.grid.steps": tracer.child_counts("meanfield.grid", "particles.circle_velocity"),
        "meanfield.grid.self_s": st["meanfield.grid"],
        "meanfield.spectral_rhs.calls": sc["meanfield.spectral_rhs"],
        "meanfield.spectral_rhs.self_s": st["meanfield.spectral_rhs"],
        "cli.parse_s": st["cli.parse"],
        "cli.initial_s": st["cli.initial"],
        "cli.self_s": st["cli"],
        "bridge.mfl_to_cl_circle.self_s": st["bridge.mfl_to_cl_circle"],
        "bridge.anchor_flux_series.self_s": st["bridge.anchor_flux_series"],
        "circle.cdf_from_density.self_s": st["circle.cdf_from_density"],
        "circle.quantile.calls": sc["circle.quantile"],
        "circle.quantile.self_s": st["circle.quantile"],
        "oa.oa_quantile.points": items["oa.oa_quantile"],
        "oa.oa_quantile.self_s": st["oa.oa_quantile"],
        "oa.brentq.calls": counts["oa.brentq"],
        "verify.self_s": st["verify"],
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / untraced_wall - 1.0,
        # A target that no longer resolves reads 0 in its layer and its time
        # lands in the caller's self time; this says that it happened.
        "trace.missing_targets": len(tracer.missing),
    }


def _verify_metrics(ws) -> dict:
    out = {f"verify.{name}.runtime_s": 0.0 for name in VERIFY_TESTS}
    out["verify.residual_ratio"] = 0.0
    if not ws.plan.updates_from_report:
        return out
    report = wl.verify_report(ws.dir)
    for r in report:
        out[f"verify.{r['test']}.runtime_s"] = r["runtime_s"]
    out["verify.residual_ratio"] = max(r["max_residual"] / r["tolerance"] for r in report)
    return out


def measure_layers(ws, children, seconds, tally, root):
    from spans import Tracer, import_times

    _, _, code, _, stderr = children.run(
        [sys.executable, "-X", "importtime", "-c", "import kuralim.cli"], ws.dir
    )
    tally.record("import kuralim.cli", [] if code == 0 else [f"exit {code}: {stderr[-300:]}"])
    if code != 0:
        return {}
    imports = import_times(stderr)
    cli = _load_kuralim(root)

    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start + samples[-1]["_pair_s"] <= seconds:
        t0 = time.perf_counter()
        untraced = _run_in_process(ws, cli, tally)
        if tally.failed:
            break
        sample = _verify_metrics(ws)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _run_in_process(ws, cli, tally, tracer)
        finally:
            tracer.uninstall()
        if tally.failed:
            break
        sample.update(_layer_metrics(tracer, traced, untraced))
        sample["_pair_s"] = time.perf_counter() - t0
        samples.append(sample)
        if time.monotonic() > children.deadline:
            break
    if tally.failed or not samples:
        return {}
    tracer.write(ws.spans_path)
    for target in tracer.missing:
        print(f"{ws.plan.workload:17s} MISSING trace target {target}: its layer reads 0")

    # Means, not medians: self times then add up to the traced wall time.
    metrics = {
        name: summary([s[name] for s in samples], statistics.fmean)
        for name in samples[0]
        if not name.startswith("_")
    }
    bytes_in, bytes_out = ws.bytes_io()
    single = {
        "import.total_s": imports["<total>"],
        "import.scipy_s": imports["scipy"],
        "import.numpy_s": imports["numpy"],
        "import.yaml_s": imports["yaml"],
        "import.kuralim_s": imports["kuralim"],
        "cli.bytes_in": bytes_in,
        "cli.bytes_out": bytes_out,
        **line_counts(root),
    }
    metrics.update({name: (v, v, v, 1) for name, v in single.items()})
    return metrics


def run_one(root, workload, seed, seconds, trace, tiny, deadline):
    plan = wl.make_plan(workload, seed, tiny)
    children = Children(root, deadline)
    tally = Tally()
    ws = Workspace(root, plan, seed, tiny)
    try:
        if trace:
            metrics = measure_layers(ws, children, seconds, tally, root)
        else:
            metrics = measure_end_to_end(ws, children, seconds, tally)
    finally:
        ws.remove()
    return plan, metrics, tally


def _report_lines(workload, plan, metrics):
    for name, (median, q1, q3, n) in metrics.items():
        unit = UNITS[name]
        extra = f"  ({plan.update_unit}/s)" if name == "work_per_s" else ""
        yield (
            f"{workload:17s} {name:34s} {median:14.6g} {unit:9s}"
            f" q1 {q1:.6g}  q3 {q3:.6g}  n {n}{extra}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smallest sizes, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kuralim", "cli.py")):
        print(f"error: no kuralim source tree at {root}/src; run from the repository root",
              file=sys.stderr)
        return 2

    # Children inherit this; set before numpy loads in this process too.
    os.environ.update(CHILD_ENV)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    print("machine " + json.dumps(machine()), flush=True)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    complete = True
    for name in names:
        for trace in modes:
            deadline = time.monotonic() + DEADLINE_S
            plan, metrics, tally = run_one(root, name, args.seed, args.seconds, trace, args.tiny,
                                           deadline)
            for line in _report_lines(name, plan, metrics):
                print(line)
            fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
            print(f"{name:17s} {'fail_frac':34s} {fail_frac:14.6g} {'ratio':9s}"
                  f" failed {tally.failed} of {tally.attempted}")
            for problem in tally.problems:
                print(f"{name:17s} FAILED {problem}")
            sys.stdout.flush()
            result["attempted"] += tally.attempted
            result["failed"] += tally.failed
            expected = set(PER_LAYER_UNITS if trace else END_TO_END)
            if set(metrics) != expected:
                complete = False
                print(f"{name:17s} FAILED metrics missing: {sorted(expected - set(metrics))}")
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, (median, *_rest) in metrics.items():
                result["metrics"][prefix + metric] = {"value": median, "unit": UNITS[metric]}
    result["correct"] = complete and result["failed"] == 0
    result["attempted"] = max(result["attempted"], 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
