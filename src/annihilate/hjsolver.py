"""Monotone finite-difference solver for u_t = I[u] |u_x| on the line.

I is the order-1 nonlocal operator pv int (u(x+z) - u(x)) dz/z^2, split at
radius rho into a bounded near field (second differences against the
centered gradient) and a far field summed exactly cell by cell with
closed-form 1/z^2 weights, plus analytic constant-tail terms.  Forward
Euler with Godunov upwinding of |u_x| makes the update nondecreasing in
every stencil input under the computed CFL bound, so the comparison
principle holds nodewise, exactly.

On the grid the operator is one discrete convolution with symmetric
weights G.  Below FFT_NODES nodes it runs as a direct `np.convolve` of
the tail-padded values, at most about twice the FFT's cost there, whose
exact shift structure keeps translated and mirrored data exactly
translated and mirrored; the FFT's rounding does not.  From FFT_NODES on,
the sum splits into a Toeplitz product of the grid values alone, done
as a circulant product with a kernel spectrum cached per grid
(Golub-Van Loan, Matrix Computations, section 4.7), plus each tail times
the cached total weight of the padding beyond its end.  A step then
costs one numpy.fft rfft/irfft pair, of the smallest power-of-two length
at least 2n - 2, into buffers its kernel holds (the rfft zero-pads the n
values itself, and the irfft's buffer is then the scratch of the tail
terms), and a fixed few passes over the n nodes.  An initial datum acts
elementwise on an array of points; `GridFunction.from_callable` calls it
once on all nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SchemeConfig",
    "GridFunction",
    "CFLViolation",
    "StepBudgetExceeded",
    "levy_operator_all",
    "step_hj",
    "solve_hj",
]

# grids of at least this many nodes apply the operator by FFT
FFT_NODES = 600
# fraction of the computed stability bound each step takes
CFL = 0.8
# steps one solve_hj call may take before it gives up
MAX_STEPS = 500_000


class CFLViolation(ValueError):
    """Requested time step exceeds the monotonicity bound."""


class StepBudgetExceeded(RuntimeError):
    """solve_hj took MAX_STEPS steps without reaching t_end."""


@dataclass(frozen=True)
class SchemeConfig:
    """Grid and stepping parameters.

    h divides 2L into whole cells, fewer than one float64 array holds.  rho
    is the near/far split radius, snapped to r = rho/h whole cells, 2 to 2L/h.
    """

    L: float = 4.0
    h: float = 1.0 / 128.0
    rho: float = 1.0 / 16.0
    t_end: float = 0.25

    def __post_init__(self):
        if not (0 < self.L < math.inf and self.h > 0 and 0 < self.t_end < math.inf):
            raise ValueError("L and t_end must be positive and finite, h positive")
        if not 2 * self.L / self.h < np.iinfo(np.intp).max // 8:
            raise ValueError(f"h = {self.h!r} gives more grid nodes than one float64 array holds")
        cells = round(2 * self.L / self.h)
        if abs(cells * self.h - 2 * self.L) > 1e-9 * self.h:
            raise ValueError(f"h must divide 2L = {2 * self.L!r} into whole cells, got {self.h!r}")
        r = round(self.rho / self.h) if math.isfinite(self.rho / self.h) else 0
        if not 2 <= r <= cells or abs(r * self.h - self.rho) > 1e-9 * self.h:
            raise ValueError("rho must be an integer multiple of h, from 2h to 2L")


@dataclass
class GridFunction:
    """Samples of u on the uniform grid [-L, L] with constant tails."""

    xs: np.ndarray
    values: np.ndarray
    tails: tuple[float, float]
    time: float = 0.0

    @classmethod
    def from_callable(cls, u0: Callable, config: SchemeConfig) -> "GridFunction":
        n = int(round(2 * config.L / config.h))
        xs = np.linspace(-config.L, config.L, n + 1)
        vals = np.asarray(u0(xs), dtype=float)
        return cls(xs=xs, values=vals, tails=(vals[0], vals[-1]))

    @property
    def h(self) -> float:
        return float(self.xs[1] - self.xs[0])

    def interp(self, x) -> np.ndarray:
        return np.interp(x, self.xs, self.values, left=self.tails[0], right=self.tails[1])

    def copy_with(self, values: np.ndarray, time: float) -> "GridFunction":
        return GridFunction(xs=self.xs, values=values, tails=self.tails, time=time)


def _weights(half: int, h: float, r: int) -> np.ndarray:
    """G over lags -(half+1)..half+1, each weight's terms summed in the quadrature's order: the
    near-field trapezoid, then each far cell's exact weight int dz/z^2 halved over its ends."""
    grad_w = 1.0 / (2.0 * h)
    k = np.arange(1, half + 1)
    near = np.where(k[:r] == r, 0.5, 1.0) / (k[:r] * k[:r] * h)
    far = 0.5 * (1.0 / (h * k[r - 1 :] * (k[r - 1 :] + 1)))  # k = r..half
    side = np.concatenate([[grad_w], np.zeros(half)])  # lags 1..half+1
    side[:r] += near
    side[r:] += far
    side[r - 1 : half] += far
    terms = np.concatenate([[grad_w, grad_w], np.repeat(near, 2), np.repeat(far, 4)])
    return np.concatenate([side[::-1], [-np.add.accumulate(terms, out=terms)[-1]], side])


class _Kernel:
    """Symmetric discrete weights of the rho-split operator on one grid.

    I_i = sum_m G_m U_{i+m} + (uL + uR)/(N h) with G_0 = -(sum of the rest)
    so that constants map to zero exactly.  All off-center weights are
    nonnegative; W = -G_0 is the total derivative weight used by the CFL
    bound.

    With n >= FFT_NODES nodes the sum over the padded array U splits as
    sum_j G_{j-i} u_j + uL left_i + uR right_i.  The first term is a
    Toeplitz product over lags -(n-1)..n-1; it runs as a circulant product
    whose length `size` is the smallest power of two >= 2n - 2, with its
    kernel spectrum cached.  (At size = 2n - 2, as on dyadic grids, lags
    n-1 and -(n-1) share one slot of that circulant; G is symmetric, so
    both read the same weight.)
    left_i = sum_{m < -i} G_m and right_i = sum_{m > n-1-i} G_m are the
    weights of the padding beyond each end, each accumulated by a cumsum
    from its far end: G_0 is in neither, and no difference of partial sums
    cancels against it.  An application is an rfft/irfft pair through two
    held buffers (one caller at a time), then a few passes over the nodes:
    the rfft reads the n values and zero-pads them to `size` internally,
    and the irfft's buffer `_work`, once its first n entries are added to
    the result, holds uR right and then u / (0.5 tail_cut) in turn.
    """

    def __init__(self, n: int, h: float, r: int):
        self.half = half = n  # explicit cells reach one full domain width
        self.G = G = _weights(half, h, r)
        mid = half + 1
        self.tail_cut = mid * h  # analytic tails beyond the explicit cells
        self.W = float(-G[mid] + 2.0 / self.tail_cut)
        if n >= FFT_NODES:
            self.size = 1 << (2 * n - 3).bit_length()
            # lag m at index m mod size
            self._work = np.zeros(self.size)
            self._work[:n] = G[mid : mid + n]
            self._work[self.size - n + 1 :] = G[mid - n + 1 : mid]
            self.spectrum = np.fft.rfft(self._work)
            self._spec = np.empty_like(self.spectrum)
            self.left = np.cumsum(G)[n:0:-1]
            self.right = np.cumsum(G[::-1])[1 : n + 1]

    def apply(self, u: GridFunction) -> np.ndarray:
        n = u.values.size
        if n < FFT_NODES:
            pad = self.half + 1
            padded = np.concatenate([np.full(pad, u.tails[0]), u.values, np.full(pad, u.tails[1])])
            out = np.convolve(padded, self.G[::-1], mode="valid")
            return out + (u.tails[0] + u.tails[1]) / self.tail_cut - 2.0 * u.values / self.tail_cut
        np.fft.rfft(u.values, self.size, out=self._spec)
        self._spec *= self.spectrum
        np.fft.irfft(self._spec, self.size, out=self._work)
        scratch = self._work[:n]
        # IEEE addition commutes, so tl left + Toeplitz part is the Toeplitz part + tl left
        out = np.multiply(u.tails[0], self.left)
        out += scratch
        out += np.multiply(u.tails[1], self.right, out=scratch)
        out += (u.tails[0] + u.tails[1]) / self.tail_cut
        return np.subtract(out, np.divide(u.values, 0.5 * self.tail_cut, out=scratch), out=out)


_kernels: dict[tuple[int, float, int], _Kernel] = {}


def _kernel_for(u: GridFunction, rho: float) -> _Kernel:
    """The cached kernel of u's grid, split at r = rho/h cells, at least one."""
    h = u.h
    key = (u.values.size, h, int(round(rho / h)))
    if key[2] < 1:
        raise ValueError(f"rho = {rho!r} is below half the grid step {h!r}")
    if key not in _kernels:
        _kernels[key] = _Kernel(u.values.size, h, key[2])
    return _kernels[key]


def levy_operator_all(u: GridFunction, rho: float, kernel: _Kernel | None = None) -> np.ndarray:
    """Operator at every node: near-field trapezoid quadrature plus cellwise-exact far field.

    `kernel` is `_kernel_for(u, rho)` when the caller already holds it.
    """
    if kernel is None:
        kernel = _kernel_for(u, rho)
    return kernel.apply(u)


def _godunov_gradient(u: GridFunction, v: np.ndarray) -> np.ndarray:
    """Upwind |u_x| for motion in the normal direction with speed v.

    For v >= 0 (level values rise) the monotone choice is
    max(-D^- u, D^+ u, 0); for v < 0 the roles of the one-sided
    differences swap.  Either way the update is nondecreasing in the
    neighboring values.
    """
    d = np.empty(u.values.size + 1)  # D^- u at node i is d[i], D^+ u is d[i + 1]
    d[0], d[-1] = u.values[0] - u.tails[0], u.tails[1] - u.values[-1]
    np.subtract(u.values[1:], u.values[:-1], out=d[1:-1])
    d /= u.h
    nd = -d
    grad = np.maximum(d[:-1], nd[1:])  # falling
    rising = np.maximum(nd[:-1], d[1:], out=nd[:-1])
    np.copyto(grad, rising, where=v >= 0.0)  # a NaN v stays falling
    return np.maximum(grad, 0.0, out=grad)


def step_hj(u: GridFunction, config: SchemeConfig, dt: float | None = None) -> GridFunction:
    """One forward-Euler step of u_t = I[u] |u_x| with Godunov upwinding.

    dt defaults to CFL times the monotonicity bound, cut short to end at
    config.t_end; passing a larger value raises CFLViolation.  A step of
    dt = config.t_end - u.time ends at exactly config.t_end.  Once
    u.time has reached config.t_end, the default is the full stable step,
    so repeated calls keep marching past t_end.  Tails never change.
    """
    kern = _kernel_for(u, config.rho)
    v = levy_operator_all(u, config.rho, kern)
    grad = _godunov_gradient(u, v)
    denom = kern.W * float(grad.max()) + float(max(v.max(), -v.min())) / u.h
    dt_max = math.inf if denom == 0.0 else CFL / denom
    if dt is None:
        dt = min(dt_max, config.t_end - u.time)
        if dt <= 0:
            dt = dt_max
    elif dt > dt_max * (1 + 1e-12):
        raise CFLViolation(f"dt={dt} exceeds stability bound {dt_max:.3e}")
    v *= dt  # u + (dt v) grad, in v's storage
    v *= grad
    v += u.values
    return u.copy_with(v, config.t_end if dt == config.t_end - u.time else u.time + dt)


def solve_hj(
    u0: Callable,
    config: SchemeConfig,
    snapshot_times: Sequence[float] | None = None,
) -> list[GridFunction]:
    """March u0, sampled on the grid, to t_end; the snapshots always include t=0 and t_end.

    Snapshot times are hit exactly: each step_hj runs with t_end set to
    the next snapshot time, which clips the stable step there.  Raises
    StepBudgetExceeded once MAX_STEPS steps in all have not reached
    t_end.  A crude self-convergence probe is available by re-running
    with h halved.
    """
    u = GridFunction.from_callable(u0, config)
    extra = [] if snapshot_times is None else [float(t) for t in snapshot_times]
    wanted = sorted(set([0.0, config.t_end] + extra))
    wanted = [t for t in wanted if t <= config.t_end]
    out = [u]  # the frame at t=0, the first of wanted
    steps = 0
    for target in wanted[1:]:
        leg = replace(config, t_end=target)
        while u.time < target:
            if steps == MAX_STEPS:
                raise StepBudgetExceeded(
                    f"{MAX_STEPS} steps reached t={u.time:.6e} of t_end={config.t_end:.6e}"
                )
            u = step_hj(u, leg)
            steps += 1
        out.append(u)
    return out
