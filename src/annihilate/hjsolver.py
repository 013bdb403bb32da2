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
the tail-padded values, whose exact shift structure keeps translated
and mirrored data exactly translated and mirrored.  From FFT_NODES on,
the sum splits into a Toeplitz product of the grid values alone, done
as a circulant product with a kernel spectrum cached per grid
(Golub-Van Loan, Matrix Computations, section 4.7), plus each tail times
the cached total weight of the padding beyond its end.  A step then
costs one numpy.fft rfft/irfft pair, of the smallest power-of-two length
at least 2n - 2, and two axpys.  An initial datum acts elementwise on an
array of points; `GridFunction.from_callable` calls it once on all nodes.
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

    h divides 2L into whole cells.  rho is the near/far split radius and
    is snapped to an integer number of cells r = rho/h, from 2 to 2L/h.
    """

    L: float = 4.0
    h: float = 1.0 / 128.0
    rho: float = 1.0 / 16.0
    t_end: float = 0.25

    def __post_init__(self):
        if not (0 < self.L < math.inf and self.h > 0 and 0 < self.t_end < math.inf):
            raise ValueError("L and t_end must be positive and finite, h positive")
        cells = round(2 * self.L / self.h)
        if abs(cells * self.h - 2 * self.L) > 1e-9 * self.h:
            raise ValueError(f"h must divide 2L = {2 * self.L!r} into whole cells, got {self.h!r}")
        r = int(round(self.rho / self.h))
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


def _padded(u: GridFunction, pad: int) -> np.ndarray:
    return np.concatenate(
        [np.full(pad, u.tails[0]), u.values, np.full(pad, u.tails[1])]
    )


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
    cancels against it.  Below FFT_NODES the direct convolution stays: it
    costs at most about twice the FFT there, and its exact shift structure
    steps translated and mirrored data exactly translated and mirrored,
    which the FFT's rounding does not.
    """

    def __init__(self, n_nodes: int, h: float, r: int):
        half = n_nodes  # explicit cells reach one full domain width
        G = np.zeros(2 * half + 3)
        mid = half + 1

        def add(m, w):
            G[mid + m] += w
            G[mid] -= w

        # near field: trapezoid over |z| <= r h of the bounded integrand;
        # the centered-gradient contributions cancel by symmetry and are
        # dropped identically.
        add(+1, 1.0 / (2.0 * h))
        add(-1, 1.0 / (2.0 * h))
        for k in range(1, r + 1):
            w = (0.5 if k == r else 1.0) / (k * k * h)
            add(+k, w)
            add(-k, w)
        # far field: exact cell weights int_{kh}^{(k+1)h} dz/z^2 = c_k,
        # cell value approximated by the endpoint average.
        for k in range(r, half + 1):
            c = 1.0 / (h * k * (k + 1))
            for s in (+1, -1):
                add(s * k, 0.5 * c)
                add(s * (k + 1), 0.5 * c)
        self.G = G
        self.half = half
        # analytic tails beyond the explicit cells
        self.tail_cut = (half + 1) * h
        self.W = float(-G[mid] + 2.0 / self.tail_cut)
        if n_nodes >= FFT_NODES:
            n = n_nodes
            self.size = 1 << (2 * n - 3).bit_length()
            # lag m at index m mod size
            wrapped = np.zeros(self.size)
            wrapped[:n] = G[mid : mid + n]
            wrapped[self.size - n + 1 :] = G[mid - n + 1 : mid]
            self.spectrum = np.fft.rfft(wrapped)
            self.left = np.cumsum(G)[n:0:-1]
            self.right = np.cumsum(G[::-1])[1 : n + 1]

    def apply(self, u: GridFunction) -> np.ndarray:
        n = u.values.size
        if n >= FFT_NODES:
            out = np.fft.irfft(np.fft.rfft(u.values, self.size) * self.spectrum, self.size)[:n]
            out += u.tails[0] * self.left
            out += u.tails[1] * self.right
        else:
            out = np.convolve(_padded(u, self.half + 1), self.G[::-1], mode="valid")
        tail = (u.tails[0] + u.tails[1]) / self.tail_cut
        return out + tail - 2.0 * u.values / self.tail_cut


_kernels: dict[tuple[int, float, int], _Kernel] = {}


def _kernel_for(u: GridFunction, rho: float) -> _Kernel:
    """The cached kernel of u's grid, split at r = rho/h cells."""
    h = u.h
    key = (u.values.size, round(h, 14), int(round(rho / h)))
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
    d = np.diff(_padded(u, 1)) / u.h
    dm, dp = d[:-1], d[1:]
    rising = np.maximum(np.maximum(-dm, dp), 0.0)
    falling = np.maximum(np.maximum(dm, -dp), 0.0)
    return np.where(v >= 0.0, rising, falling)


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
    denom = kern.W * float(np.max(grad, initial=0.0)) + float(np.max(np.abs(v), initial=0.0)) / u.h
    dt_max = math.inf if denom == 0.0 else CFL / denom
    if dt is None:
        dt = min(dt_max, config.t_end - u.time)
        if dt <= 0:
            dt = dt_max
    elif dt > dt_max * (1 + 1e-12):
        raise CFLViolation(f"dt={dt} exceeds stability bound {dt_max:.3e}")
    new_vals = u.values + dt * v * grad
    return u.copy_with(new_vals, config.t_end if dt == config.t_end - u.time else u.time + dt)


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
