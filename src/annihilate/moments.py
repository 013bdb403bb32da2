"""Power-sum moments, the moment metric, and Newton-identity conversions.

The moment vector M(x) = (M_1, ..., M_n) with M_k = (1/k) sum_i x_i^k
induces the metric d_M(x, y) = ||M(x) - M(y)||_2 on unordered n-tuples:
by Newton's identities the moments determine the elementary symmetric
values, hence the monic polynomial prod (z - x_i), hence the multiset.
`round_trip` takes positions through that inverse in float64 and judges
the roots by their exact error against the input: one rule decides
whether float64 moments carry a configuration.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "LengthMismatch",
    "NonFiniteMoments",
    "ReconstructionError",
    "MAX_POSITIONS",
    "ROUND_TRIP_TOL",
    "moments",
    "d_M",
    "moments_to_elementary",
    "round_trip",
]


class LengthMismatch(ValueError):
    """Moment vectors of different lengths cannot be compared."""


class NonFiniteMoments(ArithmeticError):
    """d_M of configurations whose moments, or their distance, pass float64."""


class ReconstructionError(ArithmeticError):
    """Float64 moments do not give the positions back to ROUND_TRIP_TOL."""


# error allowed in reconstructed positions, relative to max(1, max |x|)
ROUND_TRIP_TOL = 1e-8
# most positions a round trip takes, a bound on time: rooting is an n x n
# eigenproblem and the Newton recursion an O(n^2) Python loop, so the cost
# grows about as n^3 (1.9 s at 1,024 positions, 6.6 s at 2,000 and 45 s at
# 4,000, on two shared cores)
MAX_POSITIONS = 1024


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


def moments_to_elementary(M) -> np.ndarray:
    """Elementary symmetric values e_0..e_n from the moment vector.

    Evaluates the Newton recursion m e_m = sum_{k=1}^m (-1)^(k-1) e_{m-k} k M_k
    exactly as stated, with e_0 = 1.
    """
    M = np.asarray(M, dtype=float)
    n = M.size
    e = np.zeros(n + 1)
    e[0] = 1.0
    for m in range(1, n + 1):
        acc = 0.0
        for k in range(1, m + 1):
            acc += (-1.0) ** (k - 1) * e[m - k] * k * M[k - 1]
        e[m] = acc / m
    return e


def round_trip(positions) -> tuple[np.ndarray, np.ndarray]:
    """The moment vector M of positions, and the sorted positions rooted from it.

    The monic polynomial prod (z - x_i) = sum_k (-1)^k e_k z^(n-k), with e
    from M by Newton's identities, is rooted via companion-matrix
    eigenvalues.  Raises ReconstructionError when M or e is not finite,
    when the imaginary parts exceed 1e-6 times the coefficient scale,
    which signals a non-realizable or ill-conditioned moment vector, and
    when a root differs from the sorted input by more than
    ROUND_TRIP_TOL * max(1, max |x|): float64 moments do not carry such
    positions.
    """
    x = np.sort(np.asarray(positions, dtype=float))
    M = moments(x)
    if not np.isfinite(M).all():
        raise ReconstructionError("moment vector is not finite")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        e = moments_to_elementary(M)
    if not np.isfinite(e).all():
        raise ReconstructionError("elementary symmetric values are not finite")
    coeffs = e * (-1.0) ** np.arange(e.size)
    roots = np.roots(coeffs)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    if np.max(np.abs(roots.imag)) > 1e-6 * scale:
        raise ReconstructionError(
            f"imaginary residue {np.max(np.abs(roots.imag)):.3e} exceeds tolerance"
        )
    rec = np.sort(roots.real)
    err = float(np.max(np.abs(rec - x)))
    tol = ROUND_TRIP_TOL * max(1.0, float(np.max(np.abs(x))))
    if not err <= tol:
        raise ReconstructionError(f"reconstruction error {err:.3e} exceeds {tol:.3e}")
    return M, rec
