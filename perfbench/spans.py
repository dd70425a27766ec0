"""Spans around the calls into each kuralim layer, recorded from outside.

The tracer replaces functions at the module attribute where their caller
looks them up (modules use ``from ... import``, so one function can have
several such attributes) and methods on the classes that define them.  It
records one span per call, ``(layer, start, end, parent)``, keeps them in
memory and turns them into per-layer self times at the end: a span's self
time is its duration minus the time its direct children cover.

Some targets are only counted, not timed, because a span per call would
cost more than the call (per-node kernel evaluations, root-finder calls,
right-hand-side evaluations); their time stays in the caller's self time.
"""
from __future__ import annotations

import importlib
import re
import time
from array import array
from collections import Counter, defaultdict

import numpy as np


def _points(args, kwargs):
    return np.size(args[1] if len(args) > 1 else kwargs["xi"])


# (layer, module, attribute path, items) -- items(args, kwargs) is the work
# count a call adds to ``<layer>.items``; None counts nothing.
TIMED = [
    ("reduce", "kuralim.particles", "exact_mean_complex", lambda a, k: 2 * len(a[0])),
    ("reduce", "kuralim.verify", "exact_mean_complex", lambda a, k: 2 * len(a[0])),
    ("rk4", "kuralim.particles", "integrate_fixed", None),
    ("rk4", "kuralim.meanfield", "integrate_fixed", None),
    ("rk4.step", "kuralim._rk4", "rk4_step", None),
    ("particles.mean_interaction", "kuralim.particles", "KuramotoSin.mean_interaction", None),
    ("particles.mean_interaction", "kuralim.particles", "OddTrig.mean_interaction", None),
    ("particles.circle_velocity", "kuralim.particles", "InteractionKernel.circle_velocity", None),
    ("particles.circle_velocity", "kuralim.particles", "KuramotoSin.circle_velocity", None),
    ("meanfield.grid", "kuralim.cli", "mfl_simulate_grid", None),
    ("meanfield.grid", "kuralim.verify", "mfl_simulate_grid", None),
    ("meanfield.spectral_rhs", "kuralim.meanfield", "spectral_rhs", None),
    ("cli.parse", "kuralim.cli", "parse_config", None),
    ("cli.initial", "kuralim.cli", "_build_initial", None),
    ("bridge.mfl_to_cl_circle", "kuralim.cli", "mfl_to_cl_circle", None),
    ("bridge.mfl_to_cl_circle", "kuralim.verify", "mfl_to_cl_circle", None),
    ("bridge.anchor_flux_series", "kuralim.bridge", "anchor_flux_series", None),
    ("circle.cdf_from_density", "kuralim.bridge", "cdf_from_density", None),
    ("circle.cdf_from_density", "kuralim.verify", "cdf_from_density", None),
    ("circle.quantile", "kuralim.circle", "QuantileFn.__call__", None),
    ("oa.oa_quantile", "kuralim.continuum", "oa_quantile", _points),
    ("oa.oa_quantile", "kuralim.verify", "oa_quantile", _points),
    ("verify", "kuralim.cli", "run_suite", None),
]

COUNTED = [
    ("particles.phi", "kuralim.particles", "KuramotoSin.phi"),
    ("particles.phi", "kuralim.particles", "OddTrig.phi"),
    ("particles.phi", "kuralim.particles", "TabulatedGradient.phi"),
    ("oa.brentq", "kuralim.oa", "brentq"),
]

# The root span of every traced CLI call.
ROOT = "cli"


def _resolve(module_name, path):
    """(owner, attribute name, current value) or None when the target is gone."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        if name not in vars(owner):
            return None
        return owner, name, vars(owner)[name]
    if not hasattr(owner, name):
        return None
    return owner, name, getattr(owner, name)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        # One entry per span in each column.  Columns of plain numbers keep
        # the garbage collector from walking one object per span.
        self.layer = []
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self.items = defaultdict(int)
        self.missing = []
        self._stack = []
        self._saved = []

    def _timed(self, layer, fn, items):
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        stack, item_counts = self._stack, self.items
        clock = time.perf_counter
        count_rhs = layer == "rk4"  # integrate_fixed(rhs, ...)

        def wrapper(*args, **kwargs):
            if items is not None:
                item_counts[layer] += items(args, kwargs)
            if count_rhs:
                args = (self._counting(args[0]),) + args[1:]
            index = len(layers)
            layers.append(layer)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, fn, name="rk4.rhs_evals"):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for layer, module, path, items in TIMED:
            self._patch(
                module, path, lambda fn, layer=layer, items=items: self._timed(layer, fn, items)
            )
        for name, module, path in COUNTED:
            self._patch(module, path, lambda fn, name=name: self._counting(fn, name))

    def _patch(self, module, path, make):
        target = _resolve(module, path)
        if target is None:
            self.missing.append(f"{module}.{path}")
            return
        owner, name, original = target
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def root(self, fn, *args):
        """Run ``fn(*args)`` as a root span of layer :data:`ROOT`."""
        return self._timed(ROOT, fn, None)(*args)

    def self_times(self) -> dict:
        """Layer -> summed self time; children never overlap (one thread)."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        self_time = list(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                self_time[parent] -= durations[index]
        out = defaultdict(float)
        for layer, t in zip(self.layer, self_time):
            out[layer] += t
        return out

    def write(self, path):
        """Write the spans as tab-separated ``layer start end parent`` rows;
        ``parent`` is the row number of the enclosing span, -1 for a root."""
        with open(path, "w") as fh:
            fh.write("layer\tstart\tend\tparent\n")
            for row in zip(self.layer, self.start, self.end, self.parent):
                fh.write("%s\t%.9f\t%.9f\t%d\n" % row)

    def span_counts(self) -> dict:
        return Counter(self.layer)

    def child_counts(self, parent_layer, child_layer) -> int:
        layers = self.layer
        return sum(
            1 for layer, parent in zip(layers, self.parent)
            if layer == child_layer and parent >= 0 and layers[parent] == parent_layer
        )


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def import_times(stderr_text: str) -> dict:
    """Self import time per top-level package from ``python -X importtime``.

    Self times partition the import, so ``scipy`` collects every
    ``scipy.*`` module and nothing that scipy merely imports.
    """
    out = defaultdict(float)
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        seconds = int(m.group(1)) * 1e-6
        out[m.group(3).split(".")[0]] += seconds
        out["<total>"] += seconds
    return out
