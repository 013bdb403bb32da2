"""Power-sum moments, the moment metric, and Newton-identity conversions.

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
    "ReconstructionError",
    "ROUND_TRIP_TOL",
    "moments",
    "d_M",
    "moments_to_elementary",
    "reconstruct_positions",
]


class LengthMismatch(ValueError):
    """Moment vectors of different lengths cannot be compared."""


class ReconstructionError(ArithmeticError):
    """The moment vector does not give real positions to ROUND_TRIP_TOL in float64.

    positions holds the real roots when only the error estimate refused
    them, and is None when the roots are complex or M is not finite.
    """

    def __init__(self, message: str, positions: np.ndarray | None = None):
        super().__init__(message)
        self.positions = positions


# error allowed in reconstructed positions, relative to max(1, max |x|)
ROUND_TRIP_TOL = 1e-8


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
    norm of a difference).
    """
    mx, my = moments(x), moments(y)
    if mx.shape[-1] != my.shape[-1]:
        raise LengthMismatch(f"length {mx.shape[-1]} vs {my.shape[-1]}")
    d = mx - my
    # a dot product per row, as np.linalg.norm takes it, so rows equal 1-d calls
    dist = np.sqrt(np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0])
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


def _error_estimate(x: np.ndarray, M: np.ndarray) -> float:
    """Estimated max error of positions x reconstructed from the float64 moments M.

    Two parts, mapped to positions through J^-1, with J_ki = x_i^(k-1)
    the Jacobian dM_k/dx_i at x.  The rooting's own error is the Newton
    correction J^-1 (M - M(x)), doubled to cover its second-order terms.
    The rounding of M, which no algorithm recovers, is up to eps m_k in
    entry k, m_k = (1/k) sum_i |x_i|^k, so it moves x by up to
    eps |J^-1| m.  This is a first-order estimate, not a bound; it stayed
    at or above the true error on every accepted input of a sweep over
    n = 1..40 at scales 1e-3..1e3.  A singular J gives inf, unless M is
    exactly zero: its roots are exact.
    """
    n = x.size
    if not M.any():
        return 0.0
    k = np.arange(1, n + 1)
    m = (np.abs(x) ** k[:, None]).sum(axis=1) / k
    try:
        jinv = np.linalg.inv(np.vander(x, n, increasing=True).T)
    except np.linalg.LinAlgError:
        return math.inf
    rooting = np.abs(jinv @ (M - moments(x)))
    return float(np.max(2.0 * rooting + np.finfo(float).eps * (np.abs(jinv) @ m)))


def reconstruct_positions(M) -> np.ndarray:
    """Recover the sorted multiset of positions from its moment vector.

    The monic polynomial prod (z - x_i) = sum_k (-1)^k e_k z^(n-k) is
    rooted via companion-matrix eigenvalues.  Raises ReconstructionError
    when M is not finite, when the imaginary parts exceed 1e-6 times the
    coefficient scale, which signals a non-realizable or ill-conditioned
    moment vector, and when the error estimate (_error_estimate) exceeds
    ROUND_TRIP_TOL * max(1, max |x|): float64 moments do not carry such
    positions.  The error then holds the roots, for a caller that knows
    the true positions.
    """
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise ReconstructionError("moment vector is not finite")
    e = moments_to_elementary(M)
    n = e.size - 1
    coeffs = np.array([(-1.0) ** k * e[k] for k in range(n + 1)])
    roots = np.roots(coeffs)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    if np.max(np.abs(roots.imag)) > 1e-6 * scale:
        raise ReconstructionError(
            f"imaginary residue {np.max(np.abs(roots.imag)):.3e} exceeds tolerance"
        )
    x = np.sort(roots.real)
    err = _error_estimate(x, M)
    tol = ROUND_TRIP_TOL * max(1.0, float(np.max(np.abs(x))))
    if not err <= tol:
        raise ReconstructionError(f"error estimate {err:.3e} exceeds {tol:.3e}", x)
    return x
