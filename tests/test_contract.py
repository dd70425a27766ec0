"""The library contract, drawn: every verify suite, the four solvers, the
two family fields, ``moments`` and ``oa_defect`` answer any argument with
their result or a :class:`KuralimError`, never a foreign exception or a
numpy warning.

Suite arguments are drawn by the type of their defaults, so a new suite
argument is drawn without an edit here.  ``t_end`` and ``dt`` are drawn
together so that no run takes more than 20 steps.  Every float is also
drawn as ``np.float64`` and every int as ``np.int64``.
"""
import inspect
import json
import math
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from kuralim import (
    SUITES,
    DensityTrajectory,
    FourierDensity,
    KuralimError,
    KuramotoSin,
    LabelField,
    LabelGrid,
    OAPoint,
    ParticleState,
    ThetaGrid,
    Trajectory,
    VerificationReport,
    cl_simulate,
    ds_simulate,
    manifold_field,
    mfl_simulate_grid,
    mfl_simulate_spectral,
    moments,
    oa_cell_averages,
    oa_defect,
    twisted_field,
)

inf, nan = math.inf, math.nan
FLOATS = (0.0, -0.5, 0.5, 1e-3, nan, inf, -inf, 1e308)


def _also_numpy(values, numpy_type):
    """``values``, each drawn as it is or as the numpy scalar ``numpy_type`` of it."""
    return st.one_of(values, values.map(numpy_type))


floats = _also_numpy(st.sampled_from(FLOATS), np.float64)
ints = _also_numpy(st.integers(0, 8), np.int64)


def _runs_at_most_20_steps(schedule):
    t_end, dt = map(float, schedule)  # numpy floats would warn on the overflowing quotient
    if not (0.0 < dt < inf and 0.0 <= t_end < inf):
        return True  # refused before a step is taken
    return not 20 < t_end / dt <= 1e9  # past 1e9 steps is refused too


# A few step sizes and final times besides FLOATS, so that runs of 2 to 20
# steps, with and without a remainder step, are drawn as well.
schedules = st.tuples(
    _also_numpy(st.sampled_from(FLOATS + (0.2, 0.35)), np.float64),
    _also_numpy(st.sampled_from(FLOATS + (0.01, 0.1)), np.float64),
).filter(_runs_at_most_20_steps)


def _drawn_like(default):
    if isinstance(default, complex):
        return st.builds(complex, floats, floats)
    if isinstance(default, tuple):
        return st.sampled_from((0, 1, 3)).flatmap(lambda n: st.tuples(*[floats] * n))
    return floats


def _suite_arguments(suite):
    # Sizes are always drawn, so they stay small.  Any other argument may
    # keep its default, so that a draw often gets past the refusals to the run.
    parameters = inspect.signature(suite).parameters
    defaults = {n: p.default for n, p in parameters.items() if n not in ("t_end", "dt")}
    sizes = {n: ints for n, d in defaults.items() if isinstance(d, int)}
    others = {n: _drawn_like(d) for n, d in defaults.items() if n not in sizes}
    arguments = st.fixed_dictionaries(sizes, optional=others)
    if "dt" not in parameters:
        return arguments
    return st.tuples(arguments, schedules).map(
        lambda a: {**a[0], "t_end": a[1][0], "dt": a[1][1]}
    )


def _solver(simulate, initial, *kernel):
    return lambda t_end, dt, output_every: simulate(initial, *kernel, dt, t_end, output_every)


GRID = LabelGrid(8)
FAMILY = OAPoint(0.4, 0.3)
# name -> (callable, the type of its result)
SOLVERS = {
    "ds": (
        _solver(ds_simulate, ParticleState(np.linspace(0.0, 3.0, 5)), KuramotoSin()),
        Trajectory,
    ),
    "cl": (_solver(cl_simulate, manifold_field(GRID, FAMILY), KuramotoSin()), Trajectory),
    "mfl-spectral": (
        _solver(mfl_simulate_spectral, FourierDensity.from_oa(FAMILY, 8)),
        Trajectory,
    ),
    "mfl-grid": (
        _solver(mfl_simulate_grid, oa_cell_averages(FAMILY, ThetaGrid(16)), KuramotoSin()),
        DensityTrajectory,
    ),
}
ENTRY_POINTS = {
    **{f"verify {name}": (suite, VerificationReport) for name, suite in SUITES.items()},
    **SOLVERS,
    "manifold_field": (lambda q: manifold_field(GRID, FAMILY, q), LabelField),
    "twisted_field": (lambda m, q: twisted_field(GRID, m, q), LabelField),
    "moments": (moments, np.ndarray),
    "oa_defect": (oa_defect, float),
}
# What moments are taken of: the two densities, or an array of angles as
# particle positions, label values and trajectory rows hold them.
moment_states = st.one_of(
    st.sampled_from((FourierDensity.from_oa(FAMILY, 8), oa_cell_averages(FAMILY, ThetaGrid(16)))),
    st.lists(floats, max_size=4).map(lambda x: np.array(x, dtype=float)),
)
moment_vectors = st.lists(st.builds(complex, floats, floats), max_size=4).map(
    lambda c: np.array(c, dtype=complex)
)

calls = st.one_of(
    *[
        _suite_arguments(suite).map(lambda kwargs, name=name: (f"verify {name}", kwargs))
        for name, suite in SUITES.items()
    ],
    *[
        st.tuples(schedules, st.one_of(st.none(), floats)).map(
            lambda r, name=name: (name, {"t_end": r[0][0], "dt": r[0][1], "output_every": r[1]})
        )
        for name in SOLVERS
    ],
    st.fixed_dictionaries({"q": floats}).map(lambda kw: ("manifold_field", kw)),
    st.fixed_dictionaries({"m": ints, "q": floats}).map(
        lambda kw: ("twisted_field", kw)
    ),
    st.fixed_dictionaries(
        {"state": moment_states, "n": st.sampled_from((0, 1, 3, 1.5, True, np.int64(3)))}
    ).map(lambda kw: ("moments", kw)),
    st.fixed_dictionaries({"c": moment_vectors}).map(lambda kw: ("oa_defect", kw)),
)


@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(call=calls)
# dt = output_every = inf reached int(round(nan)) in record_stride
@example(call=("ds", {"t_end": 1.0, "dt": inf, "output_every": inf}))
@example(call=("cl", {"t_end": 1.0, "dt": inf, "output_every": inf}))
@example(call=("mfl-spectral", {"t_end": 1.0, "dt": inf, "output_every": inf}))
@example(call=("mfl-grid", {"t_end": 1.0, "dt": inf, "output_every": inf}))
@example(call=("verify bridge", {"t_end": 1.0, "dt": inf, "n_cells": 8, "n_labels": 8}))
@example(call=("verify closure", {"dt": inf, "output_every": inf, "n_modes": 8}))
@example(call=("verify invariance", {"dt": inf, "output_every": inf, "n_labels": 8}))
# a non-finite q warned in wrap_label (inf) or gave NaN values (nan)
@example(call=("manifold_field", {"q": inf}))
@example(call=("manifold_field", {"q": -inf}))
@example(call=("manifold_field", {"q": nan}))
# alpha reached wrap_angle before OAPoint refused it
@example(call=("verify sync-limit", {"alpha": inf, "n_labels": 8}))
@example(call=("verify sync-limit", {"alpha": -inf, "n_labels": 8}))
# NaN reports that warned on the way
@example(call=("verify interaction", {"alphas": (0.0,), "betas": (0.3,), "n_labels": 8,
                                      "n_eval": 3, "rhs_scale": inf}))
@example(call=("verify sync-limit", {"q_pair": (0.0, inf), "n_labels": 8}))
# NaN residuals that passed, and arguments that left nothing to check
@example(call=("verify interaction", {"alphas": (0.5,), "betas": (0.3,), "n_labels": 8,
                                      "n_eval": 3, "rhs_scale": nan}))
@example(call=("verify interaction", {"alphas": (0.5,), "betas": (0.0,), "n_labels": 8,
                                      "n_eval": 3, "rhs_scale": inf}))
@example(call=("verify interaction", {"alphas": (), "betas": (0.3,), "n_labels": 8}))
@example(call=("verify interaction", {"alphas": (0.5,), "betas": (), "n_labels": 8}))
@example(call=("verify interaction", {"n_labels": 8, "n_eval": 0}))
@example(call=("verify interaction", {"alphas": (0.5,), "betas": (0.3,), "n_labels": 8,
                                      "n_eval": 2.5}))
@example(call=("verify sync-limit", {"q_pair": (0.0, nan), "n_labels": 8}))
@example(call=("verify sync-limit", {"q_pair": (), "n_labels": 8}))
@example(call=("verify sync-limit", {"q_pair": (0.0,), "n_labels": 8}))
@example(call=("verify sync-limit", {"beta_probes": (), "n_labels": 8}))
@example(call=("verify sync-limit", {"exclusion": nan, "n_labels": 8}))
@example(call=("verify sync-limit", {"exclusion": 0.6, "n_labels": 8}))
@example(call=("verify closure", {"t_end": 0.1, "dt": 0.01, "n_modes": 8, "max_check": 0}))
@example(call=("verify closure", {"t_end": 0.1, "dt": 0.01, "n_modes": 8, "max_check": 20}))
@example(call=("verify closure", {"t_end": 0.1, "dt": 0.01, "n_modes": 8, "max_check": 1.5}))
@example(call=("verify closure", {"t_end": 0.1, "dt": 0.01, "n_modes": 8.5, "max_check": 4}))
@example(call=("verify spectrum", {"n_cells": 16.5}))
# numpy scalars: a warning in the reference loop, and params json.dumps refused
@example(call=("verify invariance", {"flow_scale": np.float64(-inf), "t_end": 0.01, "dt": 0.01,
                                     "n_labels": 8}))
@example(call=("verify spectrum", {"n_cells": np.int64(16)}))
# an empty moment vector raised IndexError; an infinite angle would warn in exp
@example(call=("oa_defect", {"c": np.array([], dtype=complex)}))
@example(call=("moments", {"state": np.array([0.5, inf]), "n": 3}))
def test_library_entry_points_return_a_result_or_a_kuralim_error(call):
    name, kwargs = call
    function, result_type = ENTRY_POINTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = function(**kwargs)
        except KuralimError:
            return
    assert isinstance(result, result_type), (name, kwargs, result)
    if isinstance(result, VerificationReport):
        json.dumps(result.to_json_dict())
        if math.isnan(result.max_residual):
            assert result.passed is False
