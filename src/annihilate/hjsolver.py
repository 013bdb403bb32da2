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
as a circulant product with kernel eigenvalues cached per grid
(Golub-Van Loan, Matrix Computations, section 4.7), plus each tail times
the cached total weight of the padding beyond its end.  A step then
costs one transform pair of the smallest power-of-two length at least
2n - 2, into buffers its kernel holds, and a fixed few passes over the n
nodes.  Up to length 4,096 (2,049 nodes) the pair is a 1-D numpy.fft
rfft/irfft; from BLOCKED_SIZE = 8,192 (4,097 nodes) on, where one such
transform outgrows the L1 cache, it is the four-step FFT (Bailey 1990;
Van Loan, Computational Frameworks for the FFT, 1992): batches of short
rfft and fft transforms over FFT_ROWS rows.  An initial datum acts
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
# circulant lengths from BLOCKED_SIZE on run the four-step FFT on FFT_ROWS
# rows.  Toeplitz product on one core of a 2-core Xeon, 1-D pair -> four-step:
# 115 -> 95 us at 4,097 nodes (length 8,192) and 229 -> 179 us at 8,193,
# but 56 vs 60 us at 2,049 (length 4,096), so shorter circulants keep the
# 1-D pair.  256 and 1,024 rows time within 8% of 512 at both lengths.
BLOCKED_SIZE = 8192
FFT_ROWS = 512
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
    whose length `size` is the smallest power of two >= 2n - 2, with the
    circulant's eigenvalues `spectrum` cached.  (At size = 2n - 2, as on
    dyadic grids, lags n-1 and -(n-1) share one slot of that circulant; G
    is symmetric, so both read the same weight.)
    left_i = sum_{m < -i} G_m and right_i = sum_{m > n-1-i} G_m are the
    weights of the padding beyond each end, each accumulated by a cumsum
    from its far end: G_0 is in neither, and no difference of partial sums
    cancels against it.

    An application runs the transforms through held buffers (one caller at
    a time).  Below BLOCKED_SIZE, `spectrum` is the rfft of the
    circulant's first column, and an rfft that zero-pads the n values to
    `size` itself, times `spectrum`, goes through an irfft.  From
    BLOCKED_SIZE on, value j = j1 C + j2 of the zero-padded `_padded` sits
    in row j1 of R = FFT_ROWS rows of C = size / R, and frequency
    k = k1 + R k2 is entry (k1, k2) of the (R/2 + 1, C) arrays `spectrum`
    and `_spec`: an rfft along axis 0, `twiddle` exp(-2 pi i j2 k1 / size),
    an fft along axis 1 and `spectrum`, then ifft along axis 1, `untwiddle`
    (the conjugate) and irfft along axis 0.  No frequency is needed in
    natural order, so nothing is transposed.  Either way the inverse
    writes `_work`, which, once its first n entries are added to the
    result, holds uR right and then u / (0.5 tail_cut) in turn.
    """

    def __init__(self, n: int, h: float, r: int):
        self.half = half = n  # explicit cells reach one full domain width
        self.G = G = _weights(half, h, r)
        mid = half + 1
        self.tail_cut = mid * h  # analytic tails beyond the explicit cells
        self.W = float(-G[mid] + 2.0 / self.tail_cut)
        if n >= FFT_NODES:
            self.size = size = 1 << (2 * n - 3).bit_length()
            # lag m at index m mod size
            self._work = np.zeros(size)
            self._work[:n] = G[mid : mid + n]
            self._work[size - n + 1 :] = G[mid - n + 1 : mid]
            if size < BLOCKED_SIZE:
                self.spectrum = np.fft.rfft(self._work)
            else:
                k1 = np.arange(FFT_ROWS // 2 + 1)[:, None]
                j2 = np.arange(size // FFT_ROWS)
                self.spectrum = np.fft.fft(self._work)[k1 + FFT_ROWS * j2]
                self.twiddle = np.exp(-2j * np.pi * (k1 * j2) / size)
                self.untwiddle = np.conj(self.twiddle)
                self._padded = np.zeros(size)
            self._spec = np.empty_like(self.spectrum)
            self.left = np.cumsum(G)[n:0:-1]
            self.right = np.cumsum(G[::-1])[1 : n + 1]

    def _toeplitz(self, values: np.ndarray) -> np.ndarray:
        """sum_j G_{j-i} u_j for the n nodes i, a view of `_work`."""
        n = values.size
        if self.size < BLOCKED_SIZE:
            np.fft.rfft(values, self.size, out=self._spec)
            self._spec *= self.spectrum
            return np.fft.irfft(self._spec, self.size, out=self._work)[:n]
        self._padded[:n] = values  # entries from n on stay zero
        spec = np.fft.rfft(self._padded.reshape(FFT_ROWS, -1), axis=0, out=self._spec)
        spec *= self.twiddle
        np.fft.fft(spec, axis=1, out=spec)
        spec *= self.spectrum
        np.fft.ifft(spec, axis=1, out=spec)
        spec *= self.untwiddle
        np.fft.irfft(spec, FFT_ROWS, axis=0, out=self._work.reshape(FFT_ROWS, -1))
        return self._work[:n]

    def apply(self, u: GridFunction) -> np.ndarray:
        n = u.values.size
        if n < FFT_NODES:
            pad = self.half + 1
            padded = np.concatenate([np.full(pad, u.tails[0]), u.values, np.full(pad, u.tails[1])])
            out = np.convolve(padded, self.G[::-1], mode="valid")
            return out + (u.tails[0] + u.tails[1]) / self.tail_cut - 2.0 * u.values / self.tail_cut
        scratch = self._toeplitz(u.values)
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
    """March u0, sampled on the grid, to the snapshot times, (0, t_end) by default.

    One frame per time, in time order: a time given twice gives its frame
    twice, and no time is added.  Each time is hit exactly: step_hj runs
    with t_end set to the next one, which clips the stable step there.  A
    time outside [0, t_end], NaN included, raises ValueError.  Raises
    StepBudgetExceeded once MAX_STEPS steps in all have not reached the
    last time.
    """
    times = (0.0, config.t_end) if snapshot_times is None else [float(t) for t in snapshot_times]
    for t in times:
        if not 0.0 <= t <= config.t_end:
            raise ValueError(f"snapshot time {t!r} is outside [0, t_end = {config.t_end!r}]")
    u = GridFunction.from_callable(u0, config)
    out, steps = [], 0
    for target in sorted(times):
        if u.time < target:  # SchemeConfig refuses t_end = 0
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
