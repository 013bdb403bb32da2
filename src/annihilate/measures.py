"""Signed empirical measures and the convergence diagnostics of the limit.

kappa = (1/n) sum_i b_i delta_{x_i} is the measure view of a charged
configuration; its CDF is exactly the level-set step function.  Narrow
convergence is probed against a fixed dictionary of bounded Lipschitz
test functions, and the asymptotic-equicontinuity (AEC) defect
s_n = sup over intervals of (|kappa((x, y])| - omega(|x - y|))^+
separates uniform CDF convergence from narrow convergence alone;
kappa_n = delta_{1/n} - delta_0 is the canonical family where the two
notions split.  Both work on arrays: omega and the dictionary's test
functions take an ndarray and act elementwise, and the AEC scan sweeps
one row per atom in O(n) memory, never an n x n table.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .levelset import StepFunction
from .particles import ParticleState

__all__ = [
    "SignedAtomicMeasure",
    "from_state",
    "cdf",
    "aec_modulus",
    "narrow_distance_proxy",
    "default_dictionary",
]

AEC_THRESHOLD = 0.05


@dataclass(frozen=True)
class SignedAtomicMeasure:
    """Finitely many atoms (location, weight): finite, locations strictly increasing."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if loc.shape != w.shape or loc.ndim != 1:
            raise ValueError("locations and weights must be matching 1-d arrays")
        order = np.argsort(loc, kind="stable")
        loc, w = loc[order], w[order]  # the reorder copies
        if not (np.isfinite(loc).all() and np.isfinite(w).all()) or np.any(np.diff(loc) <= 0):
            raise ValueError("atom locations and weights must be finite, the locations distinct")
        loc.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return self.locations.size

    def total_mass(self) -> float:
        """kappa(R): the conserved net charge divided by n for states."""
        return float(np.sum(self.weights))

    def integrate(self, phi: Callable[[np.ndarray], np.ndarray]) -> float:
        """int phi dmu; phi takes the locations array and acts elementwise."""
        return float(self.weights @ phi(self.locations))


def from_state(state: ParticleState) -> SignedAtomicMeasure:
    """Empirical measure sum_i gamma b_i delta_{x_i} over charged particles.

    The atom weight is the state's coupling: 1/n for the classic system,
    the level spacing eps for the rescaled one.
    """
    mask = state.charges != 0
    return SignedAtomicMeasure(
        locations=state.positions[mask],
        weights=state.charges[mask] * state.coupling,
    )


def cdf(mu: SignedAtomicMeasure) -> StepFunction:
    """CDF u(x) = mu((-inf, x]) as a step function with H(0) = 1.

    Requires uniform atom magnitudes (the empirical-measure case); the
    jump height is that magnitude.
    """
    if mu.n_atoms == 0:
        return StepFunction(locations=np.array([]), signs=np.array([], dtype=int), eps=1.0)
    mags = np.abs(mu.weights)
    eps = float(mags[0])
    if not np.allclose(mags, eps, rtol=0, atol=1e-15 * min(1.0, eps)):
        raise ValueError("cdf step function needs uniform atom magnitudes")
    return StepFunction(
        locations=mu.locations,
        signs=np.sign(mu.weights).astype(int),
        eps=eps,
    )


def aec_modulus(
    mus: Sequence[SignedAtomicMeasure],
    omega: Callable[[np.ndarray], np.ndarray],
) -> tuple[list[float], bool]:
    """AEC defects s_n for a measure family against a candidate modulus.

    s_n maximizes (|kappa_n((x, y])| - omega(y - x))^+ over interval
    endpoints just below/at atom locations; only contiguous atom runs can
    realize the max.  omega acts elementwise on an ndarray of lengths; one
    row per left atom keeps memory O(n), and the defects equal a scalar
    loop's exactly.  The family passes when the defects decay: the final
    defect is below AEC_THRESHOLD and no defect exceeds 1.2 times the one
    before it.
    """
    s_list: list[float] = []
    for mu in mus:
        best = 0.0
        loc = mu.locations
        csum = np.concatenate([[0.0], np.cumsum(mu.weights)])
        for i in range(mu.n_atoms):
            row = np.abs(csum[i + 1 :] - csum[i]) - omega(loc[i:] - loc[i])
            # fmax skips NaN entries: a NaN interval never sets the defect
            top = np.fmax.reduce(row)
            if top > best:
                best = float(top)
        s_list.append(best)
    ok = True
    if s_list:
        ok = s_list[-1] <= AEC_THRESHOLD
        for a, b in zip(s_list[:-1], s_list[1:]):
            if b > 1.2 * a + 1e-15:
                ok = False
    return s_list, bool(ok)


def default_dictionary(window: tuple[float, float]) -> list[Callable]:
    """Bounded Lipschitz test functions: tanh sigmoids and triangular bumps.

    Centers sit on dyadic grids inside the window, widths shrink
    dyadically from the window size down to size / 2^5.  Each acts
    elementwise on an ndarray.
    """
    lo, hi = window
    size = max(hi - lo, 1e-9)
    funcs: list[Callable] = []
    for level in range(6):
        w = size / 2**level
        for c in np.linspace(lo, hi, 2**level + 1):
            funcs.append(lambda x, c=c, w=w: np.tanh((x - c) / w))
            funcs.append(lambda x, c=c, w=w: np.maximum(0.0, 1.0 - np.abs(x - c) / w))
    return funcs


def narrow_distance_proxy(
    mu: SignedAtomicMeasure,
    nu: SignedAtomicMeasure,
    dictionary: Iterable[Callable] | None = None,
) -> float:
    """Max test-integral discrepancy over a fixed bounded-Lipschitz family.

    A diagnostic proxy for narrow convergence, not a metric claim: it is
    zero iff the measures agree on the dictionary.
    """
    if dictionary is None:
        pts = np.concatenate([mu.locations, nu.locations, [0.0]])
        lo, hi = float(pts.min()) - 1.0, float(pts.max()) + 1.0
        dictionary = default_dictionary((lo, hi))
    return max(abs(mu.integrate(phi) - nu.integrate(phi)) for phi in dictionary)
