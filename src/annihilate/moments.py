"""Power-sum moments and the moment metric.

The moment vector M(x) = (M_1, ..., M_n) with M_k = (1/k) sum_i x_i^k
induces the metric d_M(x, y) = ||M(x) - M(y)||_2 on unordered n-tuples:
by Newton's identities the moments determine the elementary symmetric
values, hence the monic polynomial prod (z - x_i), hence the multiset.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "LengthMismatch",
    "NonFiniteMoments",
    "moments",
    "d_M",
]


class LengthMismatch(ValueError):
    """Moment vectors of different lengths cannot be compared."""


class NonFiniteMoments(ArithmeticError):
    """d_M of configurations whose moments, or their distance, pass float64."""


def _fsum(row: list[float]) -> float:
    """math.fsum, or the plain sum (+-inf or nan) for a moment past float64."""
    try:
        return math.fsum(row)
    except (OverflowError, ValueError):  # a finite sum past float64, or inf - inf
        return sum(row)


def moments(positions) -> np.ndarray:
    """Moment vectors: entry k (1-based) of a row is (1/k) sum_i x_i^k.

    positions holds one configuration per row, shape (n,) or (samples, n)
    (or more leading axes); the result has the same shape.  Low orders are
    accumulated with exact float summation; from order 8 on the powers span
    many magnitudes, so accumulation switches to extended precision, over
    the sorted row, before rounding back.  Each row comes out exactly as it
    would alone, and in any order of its positions.
    """
    x = np.asarray(positions, dtype=float)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError("positions must be non-empty rows of an (n,) or (samples, n) array")
    n = x.shape[-1]
    rows = np.sort(x.reshape(-1, n), axis=1)
    out = np.empty(rows.shape)
    xl = rows.astype(np.longdouble)
    pw = np.ones_like(xl)
    with np.errstate(over="ignore"):  # a moment past float64 is inf, for the caller to judge
        for k in range(1, n + 1):
            pw = pw * xl
            if k < 8:
                out[:, k - 1] = [_fsum(r) / k for r in pw.astype(float).tolist()]
            else:
                out[:, k - 1] = pw.sum(axis=1, dtype=np.longdouble) / k
    return out.reshape(x.shape)


def d_M(x, y):
    """Euclidean norm of the moment-vector difference, one per row.

    x and y are configurations of n positions, shape (n,), which give a
    float, or stacks of rows that broadcast against each other, which give
    an array over the broadcast leading axes: d_M(xs[:, None], xs[None])
    is every pair of rows of xs.  Zero exactly when x and y agree as
    multisets; symmetric; satisfies the triangle inequality (it is an l2
    norm of a difference).  A distance past float64 raises NonFiniteMoments.
    """
    mx, my = moments(x), moments(y)
    if mx.shape[-1] != my.shape[-1]:
        raise LengthMismatch(f"length {mx.shape[-1]} vs {my.shape[-1]}")
    # a dot product per row, as np.linalg.norm takes it, so rows equal 1-d calls
    with np.errstate(over="ignore", invalid="ignore"):
        d = mx - my
        dist = np.sqrt(np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0])
    if not np.isfinite(dist).all():
        raise NonFiniteMoments("moment distance past float64: positions too far from 0")
    return float(dist) if d.ndim == 1 else dist
