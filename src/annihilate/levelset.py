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

from dataclasses import dataclass

import numpy as np

from . import particles

__all__ = [
    "StepFunction",
    "from_particles",
    "nonlocal_operator_closed_form",
    "nonlocal_operator_quadrature",
    "far_field",
]


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
        loc = np.array(self.locations, dtype=float)
        sg = np.asarray(self.signs)
        if loc.shape != sg.shape or loc.ndim != 1:
            raise ValueError("locations and signs must be matching 1-d arrays")
        if loc.size and np.any(np.diff(loc) <= 0):
            raise ValueError("jump locations must be strictly increasing")
        if loc.size and not np.isin(sg, (-1, 1)).all():
            raise ValueError("jump signs must be +-1")
        sg = sg.astype(np.int64)  # a copy, like loc
        if not self.eps > 0:
            raise ValueError("eps must be positive")
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

    def _sides(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Signed jump counts left of x and up to x: the plateaus on either side of x."""
        x = np.asarray(x, dtype=float)
        return tuple(self._prefix[np.searchsorted(self.locations, x, side)]
                     for side in ("left", "right"))

    def upper(self, x) -> np.ndarray:
        """Upper semicontinuous envelope: max of left and right values."""
        return self.base + self.eps * np.maximum(*self._sides(x))

    def lower(self, x) -> np.ndarray:
        """Lower semicontinuous envelope: min of left and right values."""
        return self.base + self.eps * np.minimum(*self._sides(x))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.plateau_values())))

    def plateau_values(self) -> np.ndarray:
        """Values on the n_jumps + 1 constancy intervals, left to right."""
        return self.base + self.eps * self._prefix


def from_particles(state: particles.ParticleState, base: float = 0.0) -> StepFunction:
    """Step function of a particle state: one eps-jump per charged particle.

    eps is the state's coupling (level spacing equals coupling in both the
    classic 1/n system and the rescaled one).  Jump r is the r-th charged
    particle by index, which is also its place by position.
    """
    mask = state.charges != 0
    return StepFunction(state.positions[mask], state.charges[mask], state.coupling, base=base)


def nonlocal_operator_closed_form(u: StepFunction) -> np.ndarray:
    """Closed form of the pv integral at every jump: -eps * sum_{j != i} s_j / (x_i - x_j).

    This is -s_i times the velocity of a particle at x_i with coupling eps,
    so it is computed by the particle velocity field on the jumps themselves.
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


def nonlocal_operator_quadrature(u: StepFunction, x: float) -> float:
    """Exact piecewise evaluation of the full pv integral at a jump point.

    Inside |z| < rho, rho half the distance to the nearest other jump (1
    for a lone jump), the integrand is the odd constant +-eps/2, so the
    symmetric principal value vanishes and only the far field remains.
    """
    dist = np.abs(u.locations - x)
    i = int(np.argmin(dist))
    if dist[i] > 1e-12 * max(1.0, float(np.max(np.abs(u.locations)))):
        raise ValueError(f"x={x!r} is not a jump location")
    others = np.abs(u.locations - u.locations[i])
    others = others[others > 0]
    rho = float(others.min()) / 2.0 if others.size else 1.0
    return far_field(u, i, rho)
