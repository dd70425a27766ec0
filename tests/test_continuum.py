"""Label-indexed continuum dynamics and the invariant-family fields."""
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from kuralim import (
    DomainError,
    KuramotoSin,
    LabelField,
    LabelGrid,
    OAPoint,
    OddTrig,
    ParticleState,
    TabulatedGradient,
    cl_rhs,
    cl_simulate,
    ds_simulate,
    manifold_field,
    oa_flow,
    oa_quantile,
    oa_shift,
    twisted_field,
    wrap_angle,
    wrap_label,
)
from kuralim._reduce import exact_mean_complex
from kuralim.cli import run_cli

TWO_PI = 2.0 * np.pi


def test_label_field_validation():
    g = LabelGrid(8)
    LabelField(g, np.zeros(8))
    with pytest.raises(DomainError):
        LabelField(g, np.zeros(7))


def test_twisted_field_values():
    g = LabelGrid(4)
    f = twisted_field(g, 1)
    assert np.allclose(f.values, TWO_PI * g.midpoints)
    assert np.allclose(twisted_field(g, 0, q=1.0).values, 1.0)
    two = twisted_field(g, 2)
    assert np.allclose(two.values, wrap_angle(2 * TWO_PI * g.midpoints))


# 0.5 gives a field that is not periodic in the label; True was read as 1;
# 10**400 overflowed the float product.
@pytest.mark.parametrize("m", [0.5, 1.0, True, 10**400, -(10**400)],
                         ids=["half", "integral-float", "bool", "huge", "-huge"])
def test_twisted_field_refuses_a_non_integer_winding(m):
    with pytest.raises(DomainError, match="float range"):
        twisted_field(LabelGrid(4), m)


@pytest.mark.parametrize("m", [0, -3, np.int64(2), 10**300], ids=["zero", "negative", "numpy", "10**300"])
def test_twisted_field_accepts_integer_windings(m):
    g = LabelGrid(4)
    assert twisted_field(g, m).values.tobytes() == wrap_angle(TWO_PI * float(m) * g.midpoints).tobytes()


@pytest.mark.parametrize("m", [10**308, -(10**308)], ids=["1e308", "-1e308"])
def test_twisted_field_refuses_windings_whose_angles_overflow(m):
    # numpy warned on the way to a field of NaN values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="puts angles past the float range"):
            twisted_field(LabelGrid(4), m)


@pytest.mark.parametrize("m,q", [(0, 0.0), (1, 0.0), (2, 1.0), (3, 0.5)])
def test_twisted_fields_are_equilibria(m, q):
    f = twisted_field(LabelGrid(256), m, q)
    assert np.max(np.abs(cl_rhs(f, KuramotoSin()))) < 1e-14


def test_cl_rhs_is_label_mean_of_pair_interaction():
    g = LabelGrid(32)
    rng = np.random.default_rng(4)
    f = LabelField(g, rng.uniform(0, TWO_PI, 32))
    rhs = cl_rhs(f, KuramotoSin())
    for i in [0, 13, 31]:
        direct = np.mean(np.sin(f.values - f.values[i]))
        assert abs(rhs[i] - direct) < 1e-14


def test_cl_and_ds_agree_bitwise():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, TWO_PI, 64)
    a = cl_simulate(LabelField(LabelGrid(64), x), KuramotoSin(), 0.01, 1.0)
    b = ds_simulate(ParticleState(x.copy()), KuramotoSin(), 0.01, 1.0)
    # the two descriptions use the same reduction, so equal data must
    # produce equal floats
    assert np.array_equal(a.states[-1], b.states[-1])
    assert np.array_equal(np.asarray(a.states), np.asarray(b.states))


@st.composite
def _kernels(draw):
    """A kernel of each type, and its config mapping."""
    kind = draw(st.sampled_from(["kuramoto", "odd-trig", "tabulated"]))
    weight = st.floats(-2.0, 2.0)
    if kind == "kuramoto":
        coupling = draw(weight)
        return KuramotoSin(coupling), {"type": kind, "coupling": coupling}
    if kind == "odd-trig":
        coefficients = draw(st.lists(weight, min_size=1, max_size=3))
        return OddTrig(tuple(coefficients)), {"type": kind, "coefficients": coefficients}
    values = draw(st.lists(weight, min_size=2, max_size=9))
    offsets = np.linspace(-np.pi, np.pi, len(values))
    spec = {"type": kind, "offsets": offsets.tolist(), "values": values, "periodic": True}
    return TabulatedGradient(offsets, np.array(values), periodic=True), spec


@st.composite
def _drawn_runs(draw):
    n = draw(st.integers(1, 64))
    x = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    kernel, spec = draw(_kernels())
    steps = draw(st.integers(1, 5))
    every = draw(st.sampled_from([None, 0.02]))
    return x, kernel, spec, steps, every, np.array(draw(st.permutations(range(n))))


def _cli_csv(tmp, mode, size_key, x, spec, steps, every):
    """The bytes of a ``mode`` run's CSV from the angles ``x`` in a file initial."""
    init = Path(tmp) / "init.csv"
    init.write_text("".join(f"{v!r}\n" for v in x.tolist()))
    doc = {"mode": mode, size_key: len(x), "kernel": spec, "dt": 0.01, "T": 0.01 * steps,
           "initial": {"type": "file", "path": str(init)}, "output": f"{tmp}/{mode}.csv"}
    if every is not None:
        doc["output_every"] = every
    cfg = Path(tmp) / f"{mode}.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert run_cli(["simulate", "--config", str(cfg)]) == 0
    return Path(doc["output"]).read_bytes()


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(run=_drawn_runs())
def test_drawn_runs_agree_bitwise_and_commute_with_relabeling(run):
    # the continuum solver on n labels is the finite system at those positions,
    # and the exact mean makes relabeling commute with the dynamics
    x, kernel, spec, steps, every, perm = run
    t_end = 0.01 * steps
    ds = ds_simulate(ParticleState(x), kernel, 0.01, t_end, every)
    cl = cl_simulate(LabelField(LabelGrid(len(x)), x), kernel, 0.01, t_end, every)
    assert cl.times.tobytes() == ds.times.tobytes()
    assert cl.states.tobytes() == ds.states.tobytes()
    relabeled = ds_simulate(ParticleState(x[perm]), kernel, 0.01, t_end, every)
    assert relabeled.states.tobytes() == ds.states[:, perm].tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        ds_csv = _cli_csv(tmp, "ds", "N", x, spec, steps, every)
        assert ds_csv == _cli_csv(tmp, "cl", "n_labels", x, spec, steps, every)


def test_manifold_field_beta_zero_is_single_twist():
    g = LabelGrid(128)
    for q in (0.0, 1.7):
        f = manifold_field(g, OAPoint(0.9, 0.0), q=q)
        t = twisted_field(g, 1, q)
        assert np.max(np.abs(f.values - t.values)) < 1e-12


def test_manifold_field_law_matches_family_moment():
    # the field pushes uniform labels to the family density, so its
    # empirical first moment reproduces the circular moment beta*exp(-i*alpha)
    p = OAPoint(-0.7, 0.45)
    f = manifold_field(LabelGrid(256), p)
    z = exact_mean_complex(np.exp(1j * f.values))
    assert abs(z - p.beta * np.exp(-1j * p.alpha)) < 1e-12


def test_manifold_field_q_rotates_labels():
    g = LabelGrid(64)
    p = OAPoint(0.3, 0.2)
    base = manifold_field(g, p)
    q = 0.7
    shifted = manifold_field(g, p, q=q)
    expected = wrap_angle(oa_quantile(p, wrap_label(g.midpoints + oa_shift(p) + q / TWO_PI)))
    assert np.max(np.abs(shifted.values - expected)) < 1e-14
    # same law either way: sorted values interleave within one label step
    assert np.max(np.abs(np.sort(base.values) - np.sort(shifted.values))) < TWO_PI / 64 * 10


@pytest.mark.parametrize("q", [np.inf, -np.inf, np.nan])
def test_manifold_field_refuses_a_non_finite_q(q):
    # inf warned in wrap_label and nan gave a field of NaN values
    with pytest.raises(DomainError, match="q must be finite"):
        manifold_field(LabelGrid(8), OAPoint(0.3, 0.2), q)


def test_manifold_family_is_invariant_short_run():
    # evolving the field for a short time lands on the field of the
    # flowed family member
    p0 = OAPoint(0.3, 0.1)
    g = LabelGrid(256)
    t_end = 0.5
    traj = cl_simulate(manifold_field(g, p0), KuramotoSin(), 1e-3, t_end)
    target = manifold_field(g, oa_flow(p0, t_end)).values
    assert np.max(np.abs(wrap_angle(traj.states[-1]) - target)) < 1e-6


def test_simulate_rejects_bad_horizon():
    f = twisted_field(LabelGrid(8), 1)
    with pytest.raises(DomainError):
        cl_simulate(f, KuramotoSin(), 1.0, 0.5)
