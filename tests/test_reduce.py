"""The exact reduction equals math.fsum bit for bit, on both sides of its cutoff."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kuralim._reduce import CUTOFF, exact_mean_complex, exact_row_sums

# Row lengths around the cutoff, for one row and for the two rows of a
# complex mean, plus sizes well above it.
ROW_SIZES = (1, 2, CUTOFF - 1, CUTOFF, CUTOFF + 1, 1024, 4096)
COMPLEX_SIZES = (1, 2, CUTOFF // 2 - 1, CUTOFF // 2, CUTOFF // 2 + 1, 1024, 4096)


def _values(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "zeros":
        return rng.choice([0.0, -0.0], n)
    if kind == "subnormal":
        return rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308], n)
    if kind == "wide":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
    if kind == "cancel":
        v = rng.standard_normal((n + 1) // 2) * 10.0 ** rng.integers(-20, 21, (n + 1) // 2)
        x = np.concatenate([v, -v])[:n]
        return rng.permutation(x)
    if kind == "twisted":
        m = int(rng.integers(1, 4))
        return np.cos(2.0 * np.pi * m * np.arange(n) / n + rng.choice([0.0, rng.uniform(0, 1)]))
    if kind == "binade":
        return rng.uniform(-1.0, 1.0, n) * 2.0 ** int(rng.integers(-1074, 1000))
    if kind == "lopsided":
        # 1.0 and -1.0 next to many same-sign values just below the bits
        # the first or second extraction pass keeps: their remainders add
        # up, and nothing large hides an error in their sum.
        m = (n + 1).bit_length()
        below = int(rng.integers(0, 4)) + int(rng.choice([0, 53 - m]))
        x = rng.uniform(0.5, 1.0, n) * 2.0 ** (m - 52 - below)
        x[:2] = [1.0, -1.0][:n]
        return x
    if kind == "tiny-tail":
        x = np.cos(rng.uniform(0.0, 7.0, n))
        x[rng.integers(0, n, 3)] = rng.choice([1e-17, -1e-40, 1e-300], 3)
        return x
    raise AssertionError(kind)


KINDS = ("zeros", "subnormal", "wide", "cancel", "twisted", "binade", "lopsided", "tiny-tail")


def _fsum(row):
    """math.fsum's result, or the type of the exception it raises."""
    try:
        return math.fsum(row)
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _same(a, b) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _row_sum(row):
    """exact_row_sums' result for one row, or the type of the exception it raises."""
    try:
        return exact_row_sums(row[None, :])[0]
    except (ValueError, OverflowError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.sampled_from(ROW_SIZES),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_sum_equals_fsum(kind, n, seed):
    x = _values(kind, n, np.random.default_rng(seed))
    assert _same(_row_sum(x), math.fsum(x))


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
    n=st.sampled_from(ROW_SIZES),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_batches_equal_fsum_row_by_row(kinds, n, seed):
    rng = np.random.default_rng(seed)
    rows = np.array([_values(kind, n, rng) for kind in kinds])
    got = exact_row_sums(rows).tolist()
    assert all(_same(g, math.fsum(r)) for g, r in zip(got, rows))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.sampled_from(COMPLEX_SIZES),
    seed=st.integers(0, 2**32 - 1),
)
def test_complex_mean_equals_fsum(kind, n, seed):
    rng = np.random.default_rng(seed)
    z = _values(kind, n, rng) + 1j * _values(kind, n, rng)
    got = exact_mean_complex(z)
    assert _same(got.real, math.fsum(z.real) / n)
    assert _same(got.imag, math.fsum(z.imag) / n)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_any_finite_floats_in_a_long_row(values):
    # Repeat hypothesis' floats (huge, subnormal, +-0) past the cutoff.
    x = np.resize(np.array(values), 1024)
    assert _same(_row_sum(x), _fsum(x))


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    st.integers(1, CUTOFF),
)
def test_any_finite_floats_in_a_short_row(values, n):
    # Rows of at most CUTOFF values take the extraction too; an overflowing
    # sum raises as math.fsum does.
    x = np.resize(np.array(values), n)
    assert _same(_row_sum(x), _fsum(x))


def test_twisted_state_cosines_cancel_like_fsum():
    for n in (1024, 4096):
        z = np.exp(1j * 2.0 * np.pi * np.arange(n) / n)
        got = exact_mean_complex(z)
        assert _same(got.real, math.fsum(z.real) / n)
        assert _same(got.imag, math.fsum(z.imag) / n)


@pytest.mark.parametrize("n", [2, 3, CUTOFF + 1, 4096])
def test_non_finite_input_behaves_like_fsum(n):
    def padded(head):
        return np.concatenate([head, np.zeros(n - len(head))])[None, :]

    with pytest.raises(ValueError):
        exact_row_sums(padded([np.inf, -np.inf]))
    if n >= 3:
        with pytest.raises(OverflowError):
            exact_row_sums(padded([1e308, 1e308, -1e308]))
        # A NaN peak after a finite one, which Python's min and max pass
        # over: the row still goes to math.fsum, which raises for inf - inf.
        with pytest.raises(ValueError):
            exact_row_sums(np.vstack([np.ones((1, n)), padded([np.nan, np.inf, -np.inf])]))
    assert math.isnan(exact_row_sums(padded([1.0, np.nan]))[0])
    assert exact_row_sums(padded([np.inf, 1.0]))[0] == np.inf


def test_batch_keeps_exact_rows_next_to_special_ones():
    rng = np.random.default_rng(4)
    good = np.cos(rng.uniform(0.0, 7.0, (3, 1024)))
    special = np.zeros((3, 1024))
    special[0, :2] = [np.inf, 1.0]
    special[1, :2] = [np.nan, 1.0]
    special[2] = -0.0
    rows = np.vstack([good[:1], special, good[1:]])
    got = exact_row_sums(rows).tolist()
    assert all(_same(g, math.fsum(r)) for g, r in zip(got, rows))


def _fsum_rows(rows):
    """``math.fsum`` of each row in turn, as ``exact_row_sums`` promises: the
    first row that fsum refuses raises."""
    return [math.fsum(row) for row in rows.tolist()]


def _fsum_mean(values):
    """``math.fsum`` of the real parts and of the imaginary parts, over ``len``."""
    n = len(values)
    return complex(math.fsum(values.real.tolist()) / n, math.fsum(values.imag.tolist()) / n)


def _outcome(f, *args):
    """``f(*args)`` as bytes, or the type of the exception it raises."""
    try:
        return np.asarray(f(*args), dtype=complex).tobytes()
    except (ValueError, OverflowError) as exc:
        return type(exc)


# One entry of a row, at index special_at, is replaced by this value.
SPECIALS = (None, np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308)


@settings(max_examples=300, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
    n=st.one_of(st.integers(1, 600), st.sampled_from([CUTOFF // 2, CUTOFF // 2 + 1])),
    scale=st.sampled_from([1.0, 1e-300, 5e-324, 1e300, 2.0**1000]),
    special=st.sampled_from(SPECIALS),
    special_at=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
def test_reductions_match_fsum_row_by_row_bitwise(kinds, n, scale, special, special_at, seed):
    # n runs past CUTOFF / 2 = 256 and 257 values, where a complex mean
    # leaves math.fsum, and past CUTOFF for the rows alone.
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        rows = np.array([_values(kind, n, rng) * scale for kind in kinds])
    if special is not None:
        rows.flat[special_at % rows.size] = special
    z = np.empty(n, dtype=complex)
    z.real, z.imag = rows[0], rows[-1]
    rows_before, z_before = rows.tobytes(), z.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        assert _outcome(exact_row_sums, rows) == _outcome(_fsum_rows, rows)
        assert _outcome(exact_mean_complex, z) == _outcome(_fsum_mean, z)
    assert rows.tobytes() == rows_before and z.tobytes() == z_before
