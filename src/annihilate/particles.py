"""Core state of the signed-charge particle system on the line.

Positions ``x_1..x_n`` carry charges ``b_i`` in ``{-1, 0, +1}``.  Charged
particles move with velocity ``coupling * sum_j b_i b_j / (x_i - x_j)``;
neutral particles (``b_i = 0``) exert no force, feel none, and stay frozen.
They are kept in the arrays so that annihilation never changes ``n``.

Admissible states keep the charged particles strictly ordered by index:
i > j with b_i b_j != 0 implies x_i > x_j.  ``ParticleState`` refuses any
other state, so index order is position order for charged particles
everywhere downstream, and no two charged particles coincide.

``velocity_field`` is the one force kernel.  It forms the pair matrix
b_j (x_i - x_j) by one k = 2 BLAS product per block of rows, exact for
b_j = +-1, and takes its reciprocal in place, so every velocity has the
bits of the plain b_j / (x_i - x_j) sum.  The blocks share one buffer of at
most ``ROW_BLOCK_BYTES``, so the kernel's scratch does not grow as m^2.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

__all__ = [
    "ParticleState",
    "EventRecord",
    "InvalidState",
    "ForceWorkspace",
    "ROW_BLOCK_BYTES",
    "velocity_field",
    "energy",
    "m2_rate",
    "net_charge",
    "same_sign_gap",
]


# scratch of one block of the force kernel's pair matrix (ForceWorkspace)
ROW_BLOCK_BYTES = 2**20


class InvalidState(ValueError):
    """Raised when constructing or evolving a malformed state."""


@dataclass(frozen=True)
class ParticleState:
    """Immutable snapshot ``(x, b)`` with interaction coupling and clock.

    ``coupling`` is the prefactor gamma of the pairwise sum.  The classic
    system uses gamma = 1/n (the default); the convergence harness uses
    gamma = eps, the level spacing of the associated step function.

    Construction raises InvalidState unless the charged positions are
    strictly increasing in index; neutral particles may sit anywhere.
    """

    positions: np.ndarray
    charges: np.ndarray
    coupling: float | None = None  # None -> 1/n
    time: float = 0.0

    def __post_init__(self):
        x = np.array(self.positions, dtype=float)
        b = np.asarray(self.charges)
        if x.ndim != 1 or b.shape != x.shape:
            raise InvalidState("positions and charges must be 1-d arrays of equal length")
        if x.size < 2:
            raise InvalidState("need n >= 2 particles")
        if not np.isfinite(x).all():
            raise InvalidState("positions must be finite")
        if not ((b == -1) | (b == 0) | (b == 1)).all():
            raise InvalidState("charges must lie in {-1, 0, +1}")
        b = b.astype(np.int64)  # a copy, like x
        idx = np.flatnonzero(b)
        xc = x[idx]
        bad = np.flatnonzero(xc[1:] <= xc[:-1])
        if bad.size:
            i, j = idx[bad[0]], idx[bad[0] + 1]
            raise InvalidState(
                f"charged particles out of order: x[{j}]={float(x[j])} <= x[{i}]={float(x[i])}"
            )
        gamma = 1.0 / x.size if self.coupling is None else float(self.coupling)
        if not (gamma > 0 and np.isfinite(gamma)):
            raise InvalidState("coupling must be positive")
        x.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "charges", b)
        object.__setattr__(self, "coupling", gamma)
        object.__setattr__(self, "time", float(self.time))

    @property
    def n(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class EventRecord:
    """One annihilation event: cluster of charged particles meeting at (tau, y).

    Pre-collision charges alternate in sign along the cluster and sum to
    -1, 0 or +1; the post-collision charges are all zero except possibly
    one survivor carrying the net charge.  The signed jumps sum to zero.
    """

    tau: float
    y: float
    cluster: tuple[int, ...]
    pre_charges: tuple[int, ...]
    post_charges: tuple[int, ...]

    def __post_init__(self):
        if sum(self.post_charges) != sum(self.pre_charges):
            raise InvalidState("event does not conserve net charge")
        if sum(1 for c in self.post_charges if c != 0) > 1:
            raise InvalidState("more than one surviving charge in a cluster")


class ForceWorkspace:
    """What velocity_field needs for one fixed set of m charges b = +-1, built once.

    Each block of the pair matrix is one k = 2 product P.T @ V, with P rows
    [x; -1] and V rows [b; b x].  Entry (i, j) is x_i b_j - b_j x_j.  For
    |b_j| = 1 both products are exact, so the sum rounds once, to
    b_j fl(x_i - x_j), and its reciprocal is b_j / fl(x_i - x_j) bit for
    bit.  The charge rows are filled here and the position rows per call.

    The blocks hold rows = max(1, min(m, ROW_BLOCK_BYTES // 8m)) rows each
    and share one buffer, so the scratch stays within 1 MiB for any m up
    to 131,072, plus rows of length m: gb = coupling * b and the row sums.
    blocks holds, per block, its slice of P.T, its rows of the buffer,
    their diagonal and its slice of the row sums, all views built here.
    One workspace serves one caller at a time: every call overwrites the
    buffer.  A charge other than +-1 raises InvalidState.
    """

    def __init__(self, b: np.ndarray, coupling: float):
        m = b.size
        if np.count_nonzero(np.abs(b) == 1) != m:
            raise InvalidState("velocity_field needs charges +-1")
        self.gb = coupling * b
        self.P = np.empty((2, m))
        self.V = np.empty((2, m))
        self.x, minus_one = self.P
        self.b, self.bx = self.V
        minus_one.fill(-1.0)
        self.b[...] = b
        self.sums = np.empty(m)
        rows = max(1, min(m, ROW_BLOCK_BYTES // (8 * max(m, 1))))
        self.buf = np.empty((rows, m))
        self.blocks = []
        for i in range(0, m, rows):
            r = min(rows, m - i)
            block = self.buf[:r]
            diag = block.reshape(-1)[i : i + (r - 1) * (m + 1) + 1 : m + 1]
            self.blocks.append((self.P.T[i : i + r], block, diag, self.sums[i : i + r]))


def velocity_field(
    x: np.ndarray, b: np.ndarray, coupling: float, *, work: ForceWorkspace | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Velocities of the m charged particles at x, charges b, all at once.

    x strictly increases and every b is +-1, as in ParticleState and
    StepFunction: a neutral particle neither exerts nor feels a force, so
    the caller leaves it out.  Without work, an unordered x raises
    InvalidState and the call builds its own ForceWorkspace(b, coupling);
    with one, the charges are the workspace's, and x may be its position
    row work.x itself, which saves the copy into it.  The result is written
    into out, which is returned, if it is given.

    Row i sums b_j / (x_i - x_j) and is then multiplied by b_i, which is
    exact for b_i = +-1.  Per block of rows the kernel makes one BLAS
    product (b_j (x_i - x_j), exact: see ForceWorkspace), sets the diagonal
    to inf, takes one contiguous reciprocal and numpy's pairwise row sums,
    each row in the order of the broadcast kernel b / (x[:, None] - x) that
    the tests keep as its oracle.  The two differ only in the sign of the
    zero self-term, 1 / inf against b_i / inf, which no row sum sees: a row
    of two or more holds a nonzero term, and numpy sums a lone -0.0 to +0.0
    (the tests check m = 1 with either charge).  So every velocity, sign
    bits included, is that kernel's.

    The pair matrix is exactly antisymmetric in IEEE arithmetic, so the
    total momentum error comes only from the row sums.  Their error is a
    small multiple of eps times the row's absolute sum: at most 1.5 eps
    measured at 64, 128 and 316 charges with a near-collision pair (the
    tests assert 4 eps).
    """
    if work is None:
        if not (x[1:] > x[:-1]).all():
            raise InvalidState("velocity_field needs strictly increasing positions")
        work = ForceWorkspace(b, coupling)
    if x is not work.x:
        work.x[...] = x
    np.multiply(work.b, x, out=work.bx)
    for pt, block, diag, sums in work.blocks:
        np.dot(pt, work.V, out=block)
        diag.fill(np.inf)  # 1 / inf = 0: no self-interaction
        np.reciprocal(block, out=block)
        np.add.reduce(block, axis=1, out=sums)
    return np.multiply(work.sums, work.gb, out=out)


def energy(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Interaction energy (1 / 2n^2) sum_{i != j} b_i b_j * (-log|x_i - x_j|).

    x holds one configuration per row, shape (n,) or (samples, n), all
    with the charges b; the result has one entry per row.  Monitoring
    diagnostic only: with coupling 1/n the flow descends this energy
    between collisions.
    """
    act = np.flatnonzero(b)
    i, j = (act[k] for k in np.triu_indices(act.size, k=1))
    # np.take keeps each row contiguous, so a row sums exactly as a 1-d array would
    gaps = np.abs(np.take(x, i, axis=-1) - np.take(x, j, axis=-1))
    terms = (b[i] * b[j]).astype(float) * -np.log(gaps)
    return 2.0 * terms.sum(axis=-1) / (2.0 * b.size**2)


def m2_rate(charges, coupling: float) -> float:
    """dM2/dt = (coupling/2) ((sum b)^2 - sum b^2) of M2 = sum x_i^2 / 2 while the charges b hold."""
    b = np.asarray(charges, dtype=float)
    return 0.5 * coupling * float(b.sum() ** 2 - b @ b)


def net_charge(state: ParticleState) -> int:
    return int(state.charges.sum())


def same_sign_gap(x: np.ndarray, b: np.ndarray, sign: int) -> np.ndarray:
    """Least gap between neighboring charged particles of the given sign.

    x holds one configuration per row, shape (n,) or (samples, n), all
    with the charges b; the result has one entry per row, inf when no such
    neighboring pair exists.
    """
    idx = np.flatnonzero(b)
    bc = b[idx]
    keep = (bc[:-1] == sign) & (bc[1:] == sign)
    if not keep.any():
        return np.full(x.shape[:-1], np.inf)
    return np.diff(x[..., idx], axis=-1)[..., keep].min(axis=-1)
