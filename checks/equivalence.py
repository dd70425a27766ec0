"""Parent-versus-change equivalence of the CLI's bytes on a fixed catalogue.

    python checks/equivalence.py --parent HEAD~1 [--expect ID ...]

``--parent`` names the revision whose ``src/`` is extracted with ``git
archive``; the change is the working tree's ``src/``.  One child process per
tree imports that tree's ``kuralim.cli`` and runs every catalogue entry
through ``run_cli``, each in its own empty directory with the entry's input
files written first.  This process then compares exit codes, stdout, stderr
and every file left in the directory, byte for byte, after dropping
``runtime_s`` from verify JSON, and prints one line per difference.  It
also checks the CLI's contract on every command of the change: the exit
code is 0, 1 or 2, an exit 2 writes exactly one ``error: `` line to
stderr, and no command warns or raises; it prints one line per violation.

Exit status: 0 when every difference is named by an ``--expect`` id and
no command breaks the contract; 1 on any other difference, on an
``--expect`` id that shows none, so that a stale id cannot hide a later
change, or on any contract violation, which ``--expect`` never excuses; 2
when a tree cannot be run.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings
from pathlib import Path
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
wl = sys.modules["workloads"] = importlib.util.module_from_spec(_spec)  # the benchmark's plans
_spec.loader.exec_module(wl)

GROUPS = ("simulate", "file-initial", "t-zero", "transform", "oa", "verify", "bad-config", "workload",
          "one-change")
MODES = {"ds": "N", "cl": "n_labels", "mfl-spectral": "n_modes", "mfl-grid": "n_cells"}
KERNELS = {
    "kuramoto": {"type": "kuramoto"},
    "odd-trig": {"type": "odd-trig", "coefficients": [1.0, -0.4, 0.2]},
    "tabulated": {"type": "tabulated", "offsets": [-3.2, -1.0, 0.0, 1.0, 3.2], "values": [0.0, 0.8, 0.0, -0.8, 0.0]},
}
INITIALS = {
    "uniform": {"type": "uniform"},
    "twisted": {"type": "twisted", "m": 2, "q": 0.3},
    "oa": {"type": "oa", "alpha": 0.4, "beta": 0.3, "q": -0.7},
    "file": {"type": "file", "path": "init.csv"},
}
SUITES = ("interaction", "invariance", "spectrum", "closure", "bridge", "sync-limit")
WORKLOAD_SEEDS = (1, 2, 3, 7)  # seed 0 is pinned by perfbench/digests.json

# The one-change configs: each base, with T 0, changed at one key to one value.
MAX_SIZE = 10**7  # kuralim.cli.MAX_SIZE
DELETE = object()
BASES = {
    "ds-uniform": {"mode": "ds", "N": 4, "T": 0, "initial": {"type": "uniform"}, "seed": 3},
    "ds-odd-trig": {"mode": "ds", "N": 4, "dt": 0.01, "T": 0, "output_every": 0.1, "output": "run.csv",
                    "kernel": {"type": "odd-trig", "coefficients": [1.0, 0.5]},
                    "initial": {"type": "twisted", "m": 2, "q": 0.5}},
    "ds-tabulated": {"mode": "ds", "N": 4, "T": 0, "kernel": {"type": "tabulated", "offsets": [-1.0, 1.0],
                                                             "values": [1.0, -1.0], "periodic": False},
                     "initial": {"type": "oa", "alpha": 0.3, "beta": 0.2, "q": 0.1}},
    "cl-twisted": {"mode": "cl", "n_labels": 8, "T": 0, "kernel": {"type": "kuramoto", "coupling": 1.5},
                   "initial": {"type": "twisted", "m": 1}},
    "cl-oa": {"mode": "cl", "n_labels": 8, "T": 0, "kernel": "kuramoto",
              "initial": {"type": "oa", "alpha": 0.3, "beta": 0.2}},
    "cl-file": {"mode": "cl", "n_labels": 8, "T": 0, "initial": {"type": "file", "path": "init.csv"}},
    "spectral-oa": {"mode": "mfl-spectral", "n_modes": 8, "T": 0, "initial": {"type": "oa", "alpha": -0.3, "beta": 0.5}},
    "spectral-uniform": {"mode": "mfl-spectral", "n_modes": 8, "T": 0, "kernel": {"type": "kuramoto", "coupling": 1.0},
                         "initial": {"type": "uniform"}},
    "grid-tabulated": {"mode": "mfl-grid", "n_cells": 8, "T": 0, "initial": {"type": "oa", "alpha": 0.3, "beta": 0.2},
                       "kernel": {"type": "tabulated", "offsets": [-3.0, 0.0, 3.0], "values": [1.0, 0.0, -1.0]}},
    "grid-file": {"mode": "mfl-grid", "n_cells": 8, "T": 0, "kernel": None, "initial": {"type": "file", "path": "f.csv"}},
}
TOP_KEYS = ("N", "T", "dt", "initial", "kernel", "mode", "n_cells", "n_labels", "n_modes", "output",
            "output_every", "seed", "bogus")
PART_KEYS = {  # a kernel's and an initial's keys, by type; every type also has "type" and "bogus"
    "kernel": {"kuramoto": ("coupling",), "odd-trig": ("coefficients",), "tabulated": ("offsets", "values", "periodic")},
    "initial": {"uniform": (), "twisted": ("m", "q"), "oa": ("alpha", "beta", "q"), "file": ("path",)},
}
VALUES = [
    DELETE, None, "x", "", [], {}, [1.0], [0.0, -1.0], [-1.0, 0.0, 1.0], [1.0, "x"],
    {"type": "kuramoto"}, True, False, 0, 1, -1, 2, 0.5, -0.0, 1.0, -2.5, 2**1023, 10**400,
    math.inf, -math.inf, math.nan, "1e-1", "-2E0", "1e400", ".5e1", "1e-3x",
    MAX_SIZE - 1, MAX_SIZE, MAX_SIZE + 1, 0.9999999999999999, "kuramoto", "odd-trig",
    "tabulated", "uniform", "twisted", "oa", "file", *MODES,
]
# Left out at these keys: a size of 10**7 - 1 or 10**7 is accepted and builds
# 10**7 values (tier-1 pins that limit), and T = 10**7 with dt 0.01 is 10**9 steps.
LONG_KEYS = (*MODES.values(), "T")
LONG_VALUES = (MAX_SIZE - 1, MAX_SIZE)

RUNTIME = re.compile(rb'"runtime_s": [^,\n]*')
ERROR_LINE = re.compile(r"error: [^\n]*\n")


class Entry(NamedTuple):
    id: str
    files: dict  # name -> text or bytes, written before the first command
    commands: tuple  # argv tuples, run in order


class Result(NamedTuple):
    runs: list  # (exit code, stdout, stderr) of each command
    files: dict  # name -> bytes of every file left in the entry's directory


def _yaml(value) -> str:
    """``value`` in YAML 1.1 flow style, as PyYAML loads it back."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_yaml(k)}: {_yaml(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_yaml, value)) + "]"
    if isinstance(value, float) and not math.isfinite(value):
        return ".nan" if math.isnan(value) else "-.inf" if value < 0 else ".inf"
    if isinstance(value, float):
        return wl.yaml_float(value)
    return json.dumps(value)  # a string, an int, a bool or None


def _config(doc: dict) -> str:
    return "".join(f"{key}: {_yaml(value)}\n" for key, value in doc.items())


def _init_text(mode: str, n: int) -> str:
    """An initial file of ``n`` lines for ``mode``: angles from just below 0,
    decaying modes (re, im), or a density of unit mass."""
    if mode == "mfl-spectral":
        rows = [f"{0.2 ** (k + 1)!r},{-0.1 * 0.2 ** (k + 1)!r}" for k in range(n)]
    elif mode == "mfl-grid":
        rows = [repr((1 + 0.5 * math.cos(2 * math.pi * j / n)) / (2 * math.pi)) for j in range(n)]
    else:
        rows = [repr(-1e-17 if j == 0 else 0.9 * j) for j in range(n)]
    return "".join(row + "\n" for row in rows)


def _simulate(id, doc, files=(), *flags):
    return Entry(id, {"run.yaml": _config(doc), **dict(files)}, (("simulate", "--config", "run.yaml", *flags),))


def _runs():
    """The entries of each of :data:`GROUPS` in turn, duplicates included."""
    schedule = {"dt": 0.01, "T": 0.05, "output_every": 0.02}
    for (mode, key), kernel, (kind, initial), size in itertools.product(
            MODES.items(), KERNELS, INITIALS.items(), (1, 4, 7)):
        if mode.startswith("mfl"):  # a density has no labels to rotate
            initial = {k: v for k, v in initial.items() if k != "q"}
        seed = {"seed": 5} if (mode, kind) == ("ds", "uniform") else {}
        doc = {"mode": mode, key: size, "kernel": KERNELS[kernel], "initial": initial, **schedule, **seed}
        yield _simulate(f"simulate/{mode}/{kernel}/{kind}/{size}", doc, {"init.csv": _init_text(mode, size)},
                        "--output", "out.csv")
    for mode in ("ds", "cl"):
        doc = {"mode": mode, MODES[mode]: 3, "T": 0.05, "dt": 0.01, "kernel": KERNELS["tabulated"],
               "initial": INITIALS["file"]}
        yield _simulate(f"file-initial/{mode}", doc, {"init.csv": "-1e-17\n1.0\n2.5\n"})
    for mode, key in MODES.items():
        initial = {"type": "oa", "alpha": 0.4, "beta": 0.3}
        yield _simulate(f"t-zero/{mode}", {"mode": mode, key: 4, "T": 0, "initial": initial})

    for kernel, n_labels, scale, t_end in itertools.product(KERNELS, ("8", "1", "5", "16"), ("1.0", "0.5", "0"),
                                                            (0.05, 0)):
        doc = {"mode": "mfl-grid", "n_cells": 8, "kernel": KERNELS[kernel], "dt": 0.01, "T": t_end,
               "output_every": 0.01, "initial": {"type": "oa", "alpha": 0.4, "beta": 0.2}, "output": "g.csv"}
        transform = ("transform", "--config", "run.yaml", "--n-labels", n_labels, "--drift-scale", scale)
        entry = _simulate(f"transform/{kernel}/{n_labels}/{scale}/{t_end}", doc)
        yield entry._replace(commands=(*entry.commands, transform))

    for alpha, beta, n in itertools.product(("0.5", "-2.0"), ("0.4", "0.9", "0.99", "1"), ("4", "256")):
        yield Entry(f"oa/eval/{alpha}/{beta}/{n}", {}, (
            ("oa", "eval", "--alpha", alpha, "--beta", beta, "--n", n, "--output", "eval.csv"),))
    for flags in (("0.3", "0.1", "1"), ("0", "1e-320", "1000", "--output-every", "100"), ("0.3", "0.9", "0.25"),
                  ("0", "1", "1"), ("0", "0", "1"), ("0.3", "0.5", "nan"), ("0", "0.3", "1", "--output-every", "nan")):
        alpha, beta, t_end, *rest = flags
        yield Entry(f"oa/flow/{'/'.join(flags)}", {}, (
            ("oa", "flow", "--alpha", alpha, "--beta", beta, "--t", t_end, *rest, "--output", "flow.csv"),))

    yield Entry("verify/all", {}, (("verify", "all", "--output", "verify.json"),))
    yield Entry("verify/spectrum", {}, (("verify", "spectrum"),))
    yield Entry("verify/bogus", {}, (("verify", "bogus"),))
    for suite in SUITES:
        yield Entry(f"verify/{suite}/negative-control", {}, (
            ("verify", suite, "--negative-control", "--output", "control.json"),))

    for name, text in {
        "unknown-key": "mode: cl\nn_labels: 4\nT: 1\nbogus: 1\n",
        "one-cell": "mode: mfl-grid\nn_cells: 1\nT: 0.01\n",
        "winding": f"mode: ds\nN: 4\nT: 0.01\ninitial: {{type: twisted, m: {10**308}}}\n",
        "overflow": "mode: ds\nN: 3\ndt: 0.01\nT: 0.01\nkernel: {type: tabulated, offsets: [-3.141592653589793, "
                    "3.141592653589793], values: [1.0e308, 1.0e308], periodic: true}\ninitial: {type: uniform}\nseed: 0\n",
        "malformed": "mode: [ds\n",
        "empty": "",
        "not-a-mapping": "- mode\n- ds\n",
        "deep": "[" * 101 + "]" * 101 + "\n",
        "bad-mode": "mode: bogus\n",
        "not-utf8": b"\xff\xfe\x00mode: ds\n",
    }.items():
        yield Entry(f"bad-config/{name}", {"run.yaml": text}, (("simulate", "--config", "run.yaml"),))

    yield from _workload_runs()

    for name, base in BASES.items():
        init = base["initial"]
        files = {init["path"]: _init_text(base["mode"], 8)} if init["type"] == "file" else {}
        paths = [(key,) for key in TOP_KEYS]
        for part, tables in PART_KEYS.items():
            kind = base[part]["type"] if isinstance(base.get(part), dict) else None
            paths += [(part, key) for key in (*tables.get(kind, ()), "type", "bogus")]
        for path, value in itertools.product(paths, VALUES):
            if len(path) == 1 and path[0] in LONG_KEYS and value in LONG_VALUES:
                continue
            doc = dict(base)
            part = doc
            if len(path) == 2:  # a copy of the kernel or initial mapping, or a new one
                part = doc[path[0]] = dict(doc[path[0]]) if isinstance(doc.get(path[0]), dict) else {}
            if value is DELETE:
                part.pop(path[-1], None)
            else:
                part[path[-1]] = value
            yield _simulate(f"one-change/{name}/{'.'.join(path)}={_label(value)}", doc, files)


def _label(value) -> str:
    if value is DELETE:
        return "deleted"
    text = repr(value).replace(" ", "")
    return text if len(text) <= 20 else f"{text[0]}.{text[1:4]}e{len(text) - 1}"  # 2**1023, 10**400


def _workload_runs():
    """Each workload's commands at each seed, as one entry; a command that
    reads only configs and is the same at every seed is an entry of its own."""
    for name in wl.WORKLOADS:
        plans = [wl.make_plan(name, seed) for seed in WORKLOAD_SEEDS]
        runs = [[(cmd.args, {f: plan.configs.get(f) for f in cmd.inputs}) for cmd in plan.commands] for plan in plans]
        shared = [run for run in runs[0] if None not in run[1].values() and all(run in other for other in runs)]
        for seed, plan, plan_runs in zip(WORKLOAD_SEEDS, plans, runs):
            commands = tuple(args for args, files in plan_runs if (args, files) not in shared)
            yield Entry(f"workload/{name}/{seed}", plan.configs, commands)
        for args, files in shared:
            yield Entry(f"workload/{name}/{'/'.join(args[:2])}", files, (args,))


def catalogue() -> list:
    """Every entry once: a later entry with the same files and commands as an earlier one is left out."""
    seen, entries = set(), []
    for entry in _runs():
        key = repr((sorted(entry.files.items()), entry.commands))
        if key not in seen:
            seen.add(key)
            entries.append(entry)
    return entries


def _run_command(cli, args):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.run_cli(list(args))
        except Exception as exc:  # a crash is an outcome to compare, as its traceback would be
            code = f"{type(exc).__name__}: {exc}"
    # without the warning's source path, which differs between the trees
    err.writelines(f"warning: {w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), err.getvalue()


def run_tree(src: str, catalogue_path: str, results_path: str) -> None:
    """Run every entry of the pickled catalogue on the ``kuralim.cli`` in
    ``src``; pickle the :class:`Result` of each, by id."""
    sys.path.insert(0, src)
    import kuralim.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported kuralim from {cli.__file__}, not from {src}")
    work, results = os.path.dirname(results_path), {}
    for entry in pickle.loads(Path(catalogue_path).read_bytes()):
        run_dir = tempfile.mkdtemp(dir=work)
        for name, content in entry.files.items():
            Path(run_dir, name).write_bytes(content.encode() if isinstance(content, str) else content)
        os.chdir(run_dir)
        try:
            runs = [_run_command(cli, args) for args in entry.commands]
            results[entry.id] = Result(runs, {name: Path(name).read_bytes() for name in os.listdir()})
        finally:
            os.chdir(work)
        shutil.rmtree(run_dir)
    Path(results_path).write_bytes(pickle.dumps(results))


def _first_difference(x: bytes, y: bytes) -> str:
    at = next((i for i, (a, b) in enumerate(zip(x, y)) if a != b), min(len(x), len(y)))
    line, column = x.count(b"\n", 0, at) + 1, at - x.rfind(b"\n", 0, at)
    return f"line {line}, column {column}: {x[at:at + 40]!r} (parent) != {y[at:at + 40]!r} (change)"


def compare(ids, parent: dict, change: dict) -> list:
    """``(id, what)`` for each difference between two result sets: an exit
    code, a stream or a file.  ``runtime_s`` is dropped from verify JSON."""
    differences = []
    for id in ids:
        old, new = parent[id], change[id]
        items = []
        for k, ((code, *streams), (new_code, *new_streams)) in enumerate(zip(old.runs, new.runs), 1):
            if code != new_code:
                differences.append((id, f"command {k}: exit code {code!r} (parent) != {new_code!r} (change)"))
            items += [(f"command {k}: {name}", a.encode(errors="backslashreplace"), b.encode(errors="backslashreplace"))
                      for name, a, b in zip(("stdout", "stderr"), streams, new_streams)]
        for name in sorted(old.files.keys() | new.files.keys()):
            if name not in old.files or name not in new.files:
                differences.append((id, f"file {name}: only in {'parent' if name in old.files else 'change'}"))
            else:
                items.append((f"file {name}", old.files[name], new.files[name]))
        for what, a, b in items:
            if RUNTIME.sub(b'"runtime_s": -', a) != RUNTIME.sub(b'"runtime_s": -', b):
                differences.append((id, f"{what}: {_first_difference(a, b)}"))
    return differences


def contract(ids, results: dict) -> list:
    """``(id, what)`` for each way a command of ``results`` breaks the CLI's
    contract: it raises, exits with a code other than 0, 1 or 2, exits 2
    without exactly one ``error: `` line on stderr, or prints a
    ``warning:`` line."""
    violations = []
    for id in ids:
        for k, (code, _, err) in enumerate(results[id].runs, 1):
            if isinstance(code, str):
                violations.append((id, f"command {k}: raised {code}"))
            elif code not in (0, 1, 2):
                violations.append((id, f"command {k}: exit code {code!r}"))
            elif code == 2 and not ERROR_LINE.fullmatch(err):
                violations.append((id, f"command {k}: exit code 2 without one 'error: ' line: {err[:80]!r}"))
            violations += [(id, f"command {k}: {line}") for line in err.splitlines() if line.startswith("warning:")]
    return violations


def verdict(differences: list, violations: list, expect) -> tuple:
    """The report lines and the exit status for ``differences`` and contract
    ``violations``, given the ids expected to differ."""
    expect, different = set(expect), {id for id, _ in differences}
    lines = [f"{id}: {what}{' (expected)' if id in expect else ''}" for id, what in differences]
    lines += [f"{id}: contract: {what}" for id, what in violations]
    lines += [f"--expect {id}: no difference; remove the id" for id in sorted(expect - different)]
    return lines, int(bool(expect ^ different or violations))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision whose src/ is the parent")
    parser.add_argument("--expect", action="append", default=[], metavar="ID",
                        help="an entry id whose outputs are meant to change; repeatable")
    args = parser.parse_args(argv)
    start, entries = time.perf_counter(), catalogue()
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        try:
            archive = subprocess.run(["git", "archive", "--format=tar", args.parent, "src"], cwd=ROOT,
                                     capture_output=True, check=True).stdout
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive {args.parent}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(os.path.join(tmp, "parent"), **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        Path(tmp, "catalogue.pickle").write_bytes(pickle.dumps(entries))
        children = {}
        for side, src in (("parent", os.path.join(tmp, "parent", "src")), ("change", os.path.join(ROOT, "src"))):
            os.makedirs(os.path.join(tmp, side + "-runs"))
            results = os.path.join(tmp, side + "-runs", "results.pickle")
            command = [sys.executable, __file__, "--run-tree", src, os.path.join(tmp, "catalogue.pickle"), results]
            children[side] = (subprocess.Popen(command), results)
        if [child.wait() for child, _ in children.values()] != [0, 0]:
            print("error: a tree could not run the catalogue", file=sys.stderr)
            return 2
        results = {side: pickle.loads(Path(path).read_bytes()) for side, (_, path) in children.items()}
    ids = [entry.id for entry in entries]
    differences = compare(ids, results["parent"], results["change"])
    violations = contract(ids, results["change"])
    lines, status = verdict(differences, violations, args.expect)
    for line in lines:
        print(line)
    print(f"{len(entries)} entries, {len(differences)} differences, {len(violations)} contract violations, "
          f"{time.perf_counter() - start:.1f} s")
    return status


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run-tree"]:
        run_tree(*sys.argv[2:])
    else:
        sys.exit(main())
