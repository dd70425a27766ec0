"""The benchmark's trace targets (perfbench/spans.py) against the library.

The tracer patches each target by module and attribute name, and counts a
target it cannot find as missing, so a rename in ``src/`` would otherwise
show only when the benchmark runs.  This resolves every target without
running a workload.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets the library no longer defines.  The benchmark's own upkeep removes
# them; until then they are the only ones allowed to be missing.
STALE = {
    "kuralim.oa.brentq",
    "kuralim.particles.InteractionKernel.circle_velocity",
    "kuralim.particles.KuramotoSin.circle_velocity",
}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_but_the_stale_ones_resolves():
    spans = _spans()
    targets = [(module, path) for _, module, path, *_ in spans.TIMED + spans.COUNTED]
    missing = {f"{module}.{path}" for module, path in targets if spans._resolve(module, path) is None}
    assert missing == STALE
