"""Core state of the signed-charge particle system on the line.

Positions ``x_1..x_n`` carry charges ``b_i`` in ``{-1, 0, +1}``.  Charged
particles move with velocity ``coupling * sum_j b_i b_j / (x_i - x_j)``;
neutral particles (``b_i = 0``) exert no force, feel none, and stay frozen.
They are kept in the arrays so that annihilation never changes ``n``.

Admissible states keep the charged particles strictly ordered by index:
i > j with b_i b_j != 0 implies x_i > x_j.  ``ParticleState`` refuses any
other state, so index order is position order for charged particles
everywhere downstream, and no two charged particles coincide.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

__all__ = [
    "ParticleState",
    "EventRecord",
    "InvalidState",
    "NonFiniteForce",
    "ForceWorkspace",
    "velocity_field",
    "energy",
    "m2_rate",
    "net_charge",
    "same_sign_gap",
]


class InvalidState(ValueError):
    """Raised when constructing or evolving a malformed state."""


class NonFiniteForce(ArithmeticError):
    """A charged pair sits at coincident positions; the force diverges."""


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
        x = np.asarray(self.positions, dtype=float)
        b = np.asarray(self.charges)
        if x.ndim != 1 or b.shape != x.shape:
            raise InvalidState("positions and charges must be 1-d arrays of equal length")
        if x.size < 2:
            raise InvalidState("need n >= 2 particles")
        if not np.isfinite(x).all():
            raise InvalidState("positions must be finite")
        if not ((b == -1) | (b == 0) | (b == 1)).all():
            raise InvalidState("charges must lie in {-1, 0, +1}")
        b = b.astype(np.int64)
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
        x = x.copy()  # astype has copied b
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
    """What velocity_field needs for one fixed set of m charges b, built once.

    gb is coupling * b, buf an m x m scratch for the pair matrix and diag a
    strided view of its diagonal.  One workspace serves one caller at a
    time: every call overwrites buf.
    """

    def __init__(self, b: np.ndarray, coupling: float):
        self.gb = coupling * b
        m = b.size
        self.buf = np.empty((m, m))
        self.diag = self.buf.reshape(-1)[:: m + 1]


def _pair_sums(x: np.ndarray, b: np.ndarray, work: ForceWorkspace) -> np.ndarray:
    """coupling * b_i * sum_j b_j / (x_i - x_j) over the m charges of work, no pair coincident."""
    d = work.buf
    np.subtract.outer(x, x, out=d)
    work.diag.fill(np.inf)  # b_j / inf = 0: no self-interaction
    np.divide(b, d, out=d)
    return work.gb * np.add.reduce(d, axis=1)


def velocity_field(
    x: np.ndarray, b: np.ndarray, coupling: float, *, work: ForceWorkspace | None = None,
) -> np.ndarray:
    """All particle velocities at once (vectorized over the pair matrix).

    Row i sums b_j / (x_i - x_j) and is then multiplied by b_i, which is
    exact for b_i = +-1.  The pair matrix is exactly antisymmetric in IEEE
    arithmetic, so the total momentum error comes only from the row sums,
    done by numpy's pairwise summation.  Their error is a small multiple of
    eps times the row's absolute sum: at most 1.5 eps measured at 64, 128
    and 316 charges with a near-collision pair (the tests assert 4 eps).

    Without work, x and b hold every particle: the charged ones are picked
    out, coincident charged positions raise NonFiniteForce, and the result
    is scattered back.  With work = ForceWorkspace(b, coupling), x and b
    are the charged particles only, every b nonzero and x strictly
    increasing, as the caller has checked.  Both run the same row sums.
    """
    if work is not None:
        return _pair_sums(x, b, work)
    act = np.flatnonzero(b)
    xc, bc = x[act], b[act].astype(float)
    if np.unique(xc).size < xc.size:
        raise NonFiniteForce("coincident charged particles")
    v = np.zeros(x.size)
    v[act] = _pair_sums(xc, bc, ForceWorkspace(bc, coupling))
    return v


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
