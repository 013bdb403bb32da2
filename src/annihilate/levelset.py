"""Step-function view of the particle system and its nonlocal operator.

A charged configuration maps to the piecewise-constant function
u(x) = base + eps * sum_i s_i H(x - x_i) with H(0) = 1, one signed jump of
height eps per charged particle.  Its velocity field is encoded by the
staircase-averaged principal-value integral

    M[u](x_i) = pv int E_eps^*[u(x_i + z) - u(x_i)] dz / z^2,

which evaluates in closed form to -eps * sum_{j != i} s_j / (x_i - x_j):
particle i moves with dx_i/dt = -s_i M[u](x_i).  The integrand is
piecewise constant in z, so the integral is also computed exactly piece
by piece; the two routes check each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import particles

__all__ = [
    "StepFunction",
    "JumpTooClose",
    "from_particles",
    "staircase",
    "nonlocal_operator_closed_form",
    "nonlocal_operator_quadrature",
    "far_field",
    "hje_residual",
    "ResidualReport",
]


class JumpTooClose(ValueError):
    """The requested split radius reaches past the nearest other jump."""


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function with uniform jump height eps.

    locations are strictly increasing; signs are +-1 per jump.  The value
    convention H(0) = 1 means the jump at x_i is already included at x_i.
    """

    locations: np.ndarray
    signs: np.ndarray
    eps: float
    base: float = 0.0

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        sg = np.asarray(self.signs, dtype=np.int64)
        if loc.shape != sg.shape or loc.ndim != 1:
            raise ValueError("locations and signs must be matching 1-d arrays")
        if loc.size and np.any(np.diff(loc) <= 0):
            raise ValueError("jump locations must be strictly increasing")
        if loc.size and not np.isin(sg, (-1, 1)).all():
            raise ValueError("jump signs must be +-1")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        loc = loc.copy()
        sg = sg.copy()
        loc.flags.writeable = False
        sg.flags.writeable = False
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "signs", sg)
        # prefix[k] = signed count of the first k jumps
        prefix = np.concatenate([[0], np.cumsum(sg)])
        prefix.flags.writeable = False
        object.__setattr__(self, "_prefix", prefix)

    @property
    def n_jumps(self) -> int:
        return self.locations.size

    def __call__(self, x) -> np.ndarray:
        """u(x) with the H(0) = 1 convention (right-continuous value)."""
        k = np.searchsorted(self.locations, np.asarray(x, dtype=float), side="right")
        return self.base + self.eps * self._prefix[k]

    def upper(self, x) -> np.ndarray:
        """Upper semicontinuous envelope: max of left and right values."""
        x = np.asarray(x, dtype=float)
        right = np.searchsorted(self.locations, x, side="right")
        left = np.searchsorted(self.locations, x, side="left")
        vals = np.maximum(self._prefix[right], self._prefix[left])
        return self.base + self.eps * vals

    def lower(self, x) -> np.ndarray:
        """Lower semicontinuous envelope: min of left and right values."""
        x = np.asarray(x, dtype=float)
        right = np.searchsorted(self.locations, x, side="right")
        left = np.searchsorted(self.locations, x, side="left")
        vals = np.minimum(self._prefix[right], self._prefix[left])
        return self.base + self.eps * vals

    def total_variation(self) -> float:
        return self.eps * self.n_jumps

    def sup_norm(self) -> float:
        vals = self.base + self.eps * self._prefix
        return float(np.max(np.abs(vals)))

    def plateau_values(self) -> np.ndarray:
        """Values on the n_jumps + 1 constancy intervals, left to right."""
        return self.base + self.eps * self._prefix


def from_particles(state: particles.ParticleState, eps: float | None = None, base: float = 0.0) -> StepFunction:
    """Step function of a particle state: one eps-jump per charged particle.

    eps defaults to the state's coupling (level spacing equals coupling in
    both the classic 1/n system and the rescaled one).  Jump r is the r-th
    charged particle by index, which is also its place by position.
    """
    mask = state.charges != 0
    return StepFunction(
        locations=state.positions[mask],
        signs=state.charges[mask],
        eps=state.coupling if eps is None else eps,
        base=base,
    )


def staircase(alpha: float, eps: float, variant: str = "upper") -> float:
    """Staircase quantization of the identity at spacing eps.

    upper: eps * (floor(alpha/eps) + 1/2)   (equal to its usc envelope)
    lower: eps * ceil(alpha/eps) - eps/2    (the lsc envelope)
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if variant == "upper":
        return eps * (math.floor(alpha / eps) + 0.5)
    if variant == "lower":
        return eps * math.ceil(alpha / eps) - eps / 2.0
    raise ValueError("variant must be 'upper' or 'lower'")


def nonlocal_operator_closed_form(u: StepFunction) -> np.ndarray:
    """Closed form of the pv integral at every jump: -eps * sum_{j != i} s_j / (x_i - x_j).

    This is -s_i times the velocity of a particle at x_i with coupling eps,
    so it is computed by the particle velocity field.
    """
    return -u.signs * particles.velocity_field(u.locations, u.signs, u.eps)


def far_field(u: StepFunction, at_jump: int, rho: float) -> float:
    """Exact integral of E_eps^*[u(x+z) - u^*(x)] / z^2 over |z| > rho.

    The integrand is piecewise constant with breakpoints at the other jump
    locations, so each piece contributes value * (1/z_k - 1/z_{k+1}).
    rho may be any positive radius not equal to a breakpoint distance.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    x = u.locations[at_jump]
    z = u.locations - x
    sg = u.signs

    # The integrand is eps/2 times an odd integer level: s_i just right of
    # 0, gaining 2 s_j across each jump to the right; -s_i just left of 0,
    # losing 2 s_j across each jump to the left.  Each side is walked
    # outward from 0 in its own direction d.
    total = 0.0
    for d in (1, -1):
        side = d * z > 0
        dist = (d * z[side])[::d]  # ascending distances
        steps = (2 * d * sg[side])[::d]  # change of the doubled level across each jump
        k = int(np.searchsorted(dist, rho, side="right"))  # jumps inside rho
        lvl = d * int(sg[at_jump]) + int(steps[:k].sum())
        prev = rho
        for j in range(k, dist.size):
            total += 0.5 * u.eps * lvl * (1.0 / prev - 1.0 / dist[j])
            lvl += int(steps[j])
            prev = dist[j]
        total += 0.5 * u.eps * lvl * (1.0 / prev)
    return total


def nonlocal_operator_quadrature(u: StepFunction, x: float, rho: float | None = None) -> float:
    """Exact piecewise evaluation of the full pv integral at a jump point.

    Inside |z| < rho the integrand is the odd constant +-eps/2, so the
    symmetric principal value vanishes and only the far field remains.
    rho must stay below the nearest-jump distance for that cancellation;
    it defaults to half of it.
    """
    dist = np.abs(u.locations - x)
    i = int(np.argmin(dist))
    if dist[i] > 1e-12 * max(1.0, float(np.max(np.abs(u.locations)))):
        raise ValueError(f"x={x!r} is not a jump location")
    others = np.abs(u.locations - u.locations[i])
    others = others[others > 0]
    nearest = float(others.min()) if others.size else math.inf
    if rho is None:
        rho = nearest / 2.0 if math.isfinite(nearest) else 1.0
    if rho >= nearest:
        raise JumpTooClose(f"rho={rho} reaches the nearest jump at distance {nearest}")
    return far_field(u, i, rho)


@dataclass
class ResidualReport:
    """Max deviation between crossing velocities and the operator identity."""

    max_residual: float
    entries: list[tuple[float, int, float]]  # (time, particle, residual)


def _nonuniform_derivative(t0, t1, t2, f0, f1, f2):
    # Second-order three-point derivative at t1 for non-uniform spacing.
    h0 = t1 - t0
    h1 = t2 - t1
    return (h0 * h0 * f2 - h1 * h1 * f0 + (h1 * h1 - h0 * h0) * f1) / (
        h0 * h1 * (h0 + h1)
    )


def hje_residual(traj, sample_times: Iterable[float]) -> ResidualReport:
    """Check crossing dynamics against the nonlocal operator identity.

    At each requested time away from events, the velocity of every charged
    jump (three-point differences of stored snapshots) is compared with
    -s_i * M[u](x_i) from the closed form.  Event times are excluded; the
    value of the vanishing extremum at an annihilation instant is
    convention-dependent.
    """
    times = np.asarray(traj.times)
    taus = [ev.tau for ev in traj.events]
    entries: list[tuple[float, int, float]] = []
    for t in sample_times:
        k = int(np.argmin(np.abs(times - t)))
        if k == 0 or k >= times.size - 1:
            continue
        lo, hi = k - 1, k + 1
        span = 1e-10 * max(1.0, abs(times[k]))
        while lo > 0 and times[k] - times[lo] < span:
            lo -= 1
        while hi < times.size - 1 and times[hi] - times[k] < span:
            hi += 1
        t0, t1, t2 = times[lo], times[k], times[hi]
        if t2 - t1 < span or t1 - t0 < span:
            continue
        if any(t0 <= tau <= t2 for tau in taus):
            continue
        s0, s1, s2 = traj.states[lo], traj.states[k], traj.states[hi]
        charged = np.flatnonzero(s1.charges != 0)
        if charged.size == 0:
            entries.append((float(t1), -1, 0.0))
            continue
        ops = nonlocal_operator_closed_form(from_particles(s1))
        for i, op in zip(charged, ops):
            vel = _nonuniform_derivative(
                t0, t1, t2, s0.positions[i], s1.positions[i], s2.positions[i]
            )
            res = abs(vel + s1.charges[i] * op)
            entries.append((float(t1), int(i), float(res)))
    max_res = max((e[2] for e in entries), default=0.0)
    return ResidualReport(max_residual=max_res, entries=entries)
