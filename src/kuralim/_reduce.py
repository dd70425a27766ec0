"""Exactly rounded reductions.

Interaction sums are the correctly rounded sum of their operands, the
value ``math.fsum`` returns.  That buys two properties the dynamics
modules rely on: permuting particles permutes trajectories bitwise (the
sum of a multiset does not depend on operand order), and symmetric
configurations cancel to the last ulp.  The correctly rounded sum is
unique, so any exact method gives ``math.fsum``'s bits.

:func:`exact_row_sums` sums every array by the error-free vector
extraction of AccSum (Rump, Ogita & Oishi,
"Accurate floating-point summation, Part I", SIAM J. Sci. Comput. 31(1),
2008).  For rows of ``n`` values take ``2**m >= n + 2`` and the power of
two ``sigma = 2**(e + m)`` with ``|p| < 2**e`` for every value ``p`` of
the array.  Then, elementwise,

    q = (sigma + p) - sigma;  p = p - q

is exact: ``q`` is ``p`` rounded to a multiple of ``ulp(sigma) / 2``, and
the new ``p`` is the rounding error of ``sigma + p``, which is a float.
Every ``|q| <= sigma / 2**m``, so every partial sum of ``n`` of them is a
multiple of ``ulp(sigma) / 2`` below ``sigma`` in magnitude, hence a
float: ``tau = q.sum(axis=1)`` is exact in any summation order.  The
remainder has ``|p| <= ulp(sigma) / 2``, so a second pass with
``sigma * 2**(m - 53)`` extracts the next ``53 - m`` bits.  A row's exact
sum is then ``tau_1 + tau_2`` plus the entries of ``p`` still nonzero
(from values more than about ``2**(54 - 2*m)`` times smaller than the
array's largest).  With none left, its correctly rounded value is one
IEEE addition; otherwise it is ``math.fsum`` of those few terms.  One
``sigma`` serves all rows: a scalar operand costs numpy half as much as
a column, and a row of smaller values only leaves more for
``math.fsum``.

Rows that hold a non-finite value, rows too close to overflow for
``sigma`` to exist, and rows of zeros (whose sign of zero is
``math.fsum``'s to choose) are summed by ``math.fsum`` itself, which also
raises where it raises.  :data:`CUTOFF` is :func:`exact_mean_complex`'s
threshold only: a mean of at most ``CUTOFF / 2`` values is ``math.fsum``
of the real parts and of the imaginary parts, since there the fixed cost
of the numpy passes (about 30 us) exceeds ``math.fsum``'s (about 0.1 us a
value).  Small rows take the extraction too: about 11 us for one row of
8 values against 1 us by ``math.fsum``, 17 against 16 us for 22 x 22.
Only the generic mean interaction at ``N <= 22`` sums so few values.
"""
from __future__ import annotations

import math

import numpy as np

# Values (real and imaginary parts) up to which a complex mean is summed by
# math.fsum: it and the extraction meet at 500-600 values on a 2-core Xeon
# with numpy 2.4.
CUTOFF = 512


def exact_row_sums(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every row of a 2-d float array of at least one column, bit for bit."""
    rows = np.asarray(rows, dtype=float)
    m = (rows.shape[1] + 1).bit_length()
    limit = 2.0 ** (1023 - m)
    peak = np.abs(rows).max(axis=1)
    peaks = peak.tolist()
    direct = ()
    # all() and not min() and max(): those can pass over a NaN peak.
    if all(0.0 < v < limit for v in peaks):
        p = rows.copy()
    else:
        fast = (peak > 0.0) & (peak < limit)
        direct = np.flatnonzero(~fast)
        p = np.where(fast[:, None], rows, 0.0)
        peaks = peak[fast].tolist()
    sigma = math.ldexp(1.0, math.frexp(max(peaks, default=0.0))[1] + m)
    # Both passes work in place on p, the private copy, and q.
    q = np.empty_like(p)
    taus = []
    for _ in range(2):
        np.add(p, sigma, out=q)
        q -= sigma
        p -= q
        taus.append(q.sum(axis=1))
        sigma *= 2.0 ** (m - 53)
    out = taus[0] + taus[1]
    if p.any():
        left = p != 0.0
        for r in np.flatnonzero(left.any(axis=1)):
            out[r] = math.fsum([taus[0][r], taus[1][r]] + p[r][left[r]].tolist())
    for r in direct:
        out[r] = math.fsum(rows[r].tolist())
    return out


def exact_mean_complex(values: np.ndarray) -> complex:
    """Correctly rounded sums of the real and imaginary parts, over ``len``."""
    n = len(values)
    if 2 * n <= CUTOFF:
        return complex(math.fsum(values.real.tolist()) / n, math.fsum(values.imag.tolist()) / n)
    re, im = exact_row_sums(np.array([values.real, values.imag])).tolist()
    return complex(re / n, im / n)
