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
    "ComplexRoots",
    "moments",
    "d_M",
    "moments_to_elementary",
    "reconstruct_positions",
]


class LengthMismatch(ValueError):
    """Moment vectors of different lengths cannot be compared."""


class ComplexRoots(ArithmeticError):
    """Reconstruction produced roots with non-negligible imaginary part."""


def moments(positions) -> np.ndarray:
    """Moment vector of length n: entry k (1-based) is (1/k) sum_i x_i^k.

    Low orders are accumulated with exact float summation; from order 8 on
    the powers span many magnitudes, so accumulation switches to extended
    precision before rounding back.
    """
    x = np.asarray(positions, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("positions must be a non-empty 1-d array")
    n = x.size
    out = np.empty(n)
    xl = x.astype(np.longdouble)
    pw = np.ones_like(xl)
    for k in range(1, n + 1):
        pw = pw * xl
        if k < 8:
            out[k - 1] = math.fsum(pw.astype(float)) / k
        else:
            out[k - 1] = float(pw.sum(dtype=np.longdouble) / k)
    return out


def d_M(x, y) -> float:
    """Euclidean norm of the moment-vector difference.

    Zero exactly when x and y agree as multisets; symmetric; satisfies the
    triangle inequality (it is an l2 norm of a difference).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise LengthMismatch(f"length {x.size} vs {y.size}")
    return float(np.linalg.norm(moments(x) - moments(y)))


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


def reconstruct_positions(M) -> np.ndarray:
    """Recover the sorted multiset of positions from its moment vector.

    The monic polynomial prod (z - x_i) = sum_k (-1)^k e_k z^(n-k) is
    rooted via companion-matrix eigenvalues.  Raises ComplexRoots when the
    imaginary parts exceed 1e-6 times the coefficient scale, which
    signals a non-realizable or ill-conditioned moment vector.
    """
    e = moments_to_elementary(M)
    n = e.size - 1
    coeffs = np.array([(-1.0) ** k * e[k] for k in range(n + 1)])
    roots = np.roots(coeffs)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    if np.max(np.abs(roots.imag)) > 1e-6 * scale:
        raise ComplexRoots(
            f"imaginary residue {np.max(np.abs(roots.imag)):.3e} exceeds tolerance"
        )
    return np.sort(roots.real)
