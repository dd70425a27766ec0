"""The library contract, drawn: every verify suite, the four solvers, the
two family fields, ``moments``, ``oa_defect``, the ``oa_*`` closed forms,
the bridge and the value-type constructors answer any argument with their
result or a :class:`KuralimError`, never a foreign exception or a numpy
warning.  A value type that accepts its arguments holds finite arrays only.

Suite arguments are drawn by the type of their defaults, so a new suite
argument is drawn without an edit here.  ``t_end`` and ``dt`` are drawn
together so that no run takes more than 20 steps.  Every float is also
drawn as ``np.float64`` and every int as ``np.int64``; angles and samples
are drawn as floats, lists and arrays.
"""
import dataclasses
import inspect
import json
import math
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from kuralim import (
    SUITES,
    BridgeResult,
    CdfFn,
    CircularDensity,
    DensityTrajectory,
    EmpiricalMeasure,
    FourierDensity,
    KuralimError,
    KuramotoSin,
    LabelField,
    LabelGrid,
    OAPoint,
    OddTrig,
    ParticleState,
    TabulatedGradient,
    ThetaGrid,
    Trajectory,
    VerificationReport,
    cl_simulate,
    ds_simulate,
    manifold_field,
    mfl_simulate_grid,
    mfl_simulate_spectral,
    mfl_to_cl_circle,
    moments,
    oa_cdf,
    oa_cell_averages,
    oa_defect,
    oa_density,
    oa_flow,
    oa_partials,
    oa_quantile,
    oa_shift,
    poisson_circular_moment,
    twisted_field,
)
from kuralim.bridge import accumulate_drift, anchor_flux_series

inf, nan = math.inf, math.nan
FLOATS = (0.0, -0.5, 0.5, 1e-3, nan, inf, -inf, 1e308)


def _also_numpy(values, numpy_type):
    """``values``, each drawn as it is or as the numpy scalar ``numpy_type`` of it."""
    return st.one_of(values, values.map(numpy_type))


floats = _also_numpy(st.sampled_from(FLOATS), np.float64)
ints = _also_numpy(st.integers(0, 8), np.int64)
float_lists = st.lists(floats, max_size=4)


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
angles = st.one_of(floats, float_lists, float_lists.map(np.array))
# name -> (a closed form of the family point drawn as alpha and beta, its result type, its other arguments)
OA_FORMS = {
    "oa_density": (oa_density, (float, np.ndarray), {"theta": angles}),
    "oa_cdf": (oa_cdf, (float, np.ndarray), {"theta": angles}),
    "oa_quantile": (oa_quantile, (float, np.ndarray), {"xi": angles}),
    "oa_partials": (oa_partials, tuple, {"theta": angles}),
    "oa_cell_averages": (lambda p, n: oa_cell_averages(p, ThetaGrid(n)), CircularDensity, {"n": ints}),
    "oa_flow": (oa_flow, OAPoint, {"t": floats}),
    "oa_shift": (oa_shift, float, {}),
    "poisson_circular_moment": (poisson_circular_moment, complex, {}),
}
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
    **{name: (lambda alpha, beta, f=f, **kw: f(OAPoint(alpha, beta), **kw), result)
       for name, (f, result, _) in OA_FORMS.items()},
    "anchor_flux_series": (lambda run: anchor_flux_series(DensityTrajectory(*run), KuramotoSin()), np.ndarray),
    "accumulate_drift": (accumulate_drift, np.ndarray),
    "mfl_to_cl_circle": (
        lambda run, n, scale: mfl_to_cl_circle(DensityTrajectory(*run), KuramotoSin(), LabelGrid(n), scale),
        BridgeResult,
    ),
}
# What moments are taken of: the two densities, or an array of angles as
# particle positions, label values and trajectory rows hold them.
moment_states = st.one_of(
    st.sampled_from((FourierDensity.from_oa(FAMILY, 8), oa_cell_averages(FAMILY, ThetaGrid(16)))),
    st.lists(floats, max_size=4).map(lambda x: np.array(x, dtype=float)),
)
# The arguments of a DensityTrajectory: a family run's, with its drift or
# without it, or drawn rows of four cells every 0.1.
RUN = mfl_simulate_grid(oa_cell_averages(FAMILY, ThetaGrid(16)), KuramotoSin(), 0.01, 0.05)
density_runs = st.one_of(
    st.sampled_from([(RUN.times, RUN.values, RUN.grid, drift) for drift in (RUN.drift, None)]),
    st.lists(st.lists(floats, min_size=4, max_size=4), min_size=1, max_size=3).map(
        lambda rows: (0.1 * np.arange(len(rows)), np.array(rows, dtype=float), ThetaGrid(4))
    ),
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
    *[
        st.fixed_dictionaries({"alpha": floats, "beta": floats, **rest}).map(lambda kw, name=name: (name, kw))
        for name, (_, _, rest) in OA_FORMS.items()
    ],
    st.fixed_dictionaries({"run": density_runs}).map(lambda kw: ("anchor_flux_series", kw)),
    st.fixed_dictionaries({"times": angles, "flux": angles}).map(lambda kw: ("accumulate_drift", kw)),
    st.fixed_dictionaries({"run": density_runs, "n": ints, "scale": floats}).map(lambda kw: ("mfl_to_cl_circle", kw)),
)


@settings(derandomize=True, max_examples=1400, deadline=None, database=None)
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
# lists of three or more samples were concatenated, not added
@example(call=("accumulate_drift", {"times": [0.0, 0.1, 0.2], "flux": [0.0, 1e-9, 2e-9]}))
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


# The value types' constructors.  Arrays come as value types are handed
# them: a scalar, a list, or a 1-d or 2-d array of drawn floats, or an
# accepted instance's array with one entry drawn, so that draws get past
# the refusals often.
array_entries = _also_numpy(st.sampled_from(FLOATS), np.float64)
arrays = st.one_of(
    array_entries,
    st.lists(array_entries, max_size=4),
    st.lists(array_entries, max_size=4).map(np.array),
    st.lists(st.lists(array_entries, min_size=2, max_size=2), max_size=3).map(np.array),
)


def _near(valid):
    """``valid``, a copy of it with one entry drawn, or any drawn array."""
    def poke(at, x):
        a = np.array(valid)
        a.flat[at % a.size] = x
        return a

    return st.one_of(st.just(valid), st.builds(poke, st.integers(0, 63), floats), arrays)


UNIFORM = np.full(4, 1.0 / (2.0 * math.pi))
counts = st.one_of(ints, floats, st.just(True))
# name -> (constructor, its arguments)
VALUE_TYPES = {
    "ThetaGrid": (ThetaGrid, {"n_cells": counts}),
    "LabelGrid": (LabelGrid, {"n_labels": counts}),
    "CircularDensity": (CircularDensity, {"grid": st.just(ThetaGrid(4)), "values": _near(UNIFORM)}),
    "FourierDensity": (FourierDensity, {"modes": st.one_of(
        _near(FourierDensity.from_oa(FAMILY, 4).modes), st.lists(st.builds(complex, floats, floats), max_size=4))}),
    "FourierDensity.from_oa": (FourierDensity.from_oa, {
        "point": st.sampled_from((FAMILY, OAPoint(0.0, 1.0), OAPoint(-3.0, 0.0))), "n_modes": counts}),
    "DensityTrajectory": (DensityTrajectory, {
        "times": _near(RUN.times), "values": _near(RUN.values), "grid": st.sampled_from((RUN.grid, ThetaGrid(2))),
        "drift": st.one_of(st.none(), _near(RUN.drift))}),
    "TabulatedGradient": (TabulatedGradient, {
        "offsets": _near(np.array([-1.0, 0.0, 1.0])), "values": _near(np.array([1.0, 0.0, -1.0])),
        "periodic": st.booleans()}),
    "OddTrig": (OddTrig, {"coefficients": st.one_of(float_lists.map(tuple), arrays)}),
    "KuramotoSin": (KuramotoSin, {"coupling": floats}),
    "ParticleState": (ParticleState, {"positions": _near(np.array([0.5, 1.5, 2.5]))}),
    "LabelField": (LabelField, {"grid": st.sampled_from((LabelGrid(2), LabelGrid(1))),
                                "values": _near(np.array([0.5, 1.5]))}),
    "EmpiricalMeasure": (EmpiricalMeasure, {
        "positions": _near(np.array([0.5, 1.5])), "weights": _near(np.array([0.25, 0.75])),
        "space": st.sampled_from(("circle", "line", "torus"))}),
    "CdfFn": (CdfFn, {"grid": st.just(ThetaGrid(4)), "values": _near(np.linspace(0.0, 1.0, 5))}),
}
constructions = st.one_of(*[
    st.fixed_dictionaries(arguments).map(lambda kw, name=name: (name, kw))
    for name, (_, arguments) in VALUE_TYPES.items()
])


@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(call=constructions)
# len() of 0-d times and iterating a scalar coefficient raised TypeError
@example(call=("DensityTrajectory", {"times": 0.0, "values": 0.0, "grid": ThetaGrid(2), "drift": None}))
@example(call=("OddTrig", {"coefficients": 0.0}))
# a weight sum and a CDF increment past the float range warned
@example(call=("EmpiricalMeasure", {"positions": [0.5, 1.5], "weights": [1e308, 1e308], "space": "circle"}))
@example(call=("CdfFn", {"grid": ThetaGrid(4), "values": [0.0, 1e308, -1e308, 1e308, 1.0]}))
def test_value_types_hold_finite_arrays_or_raise_a_kuralim_error(call):
    name, kwargs = call
    construct, _ = VALUE_TYPES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = construct(**kwargs)
        except KuralimError:
            return
    assert dataclasses.is_dataclass(value), (name, kwargs, value)
    for field in dataclasses.fields(value):
        held = getattr(value, field.name)
        if isinstance(held, np.ndarray):
            assert np.all(np.isfinite(held)), (name, kwargs, field.name)
