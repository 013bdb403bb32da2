"""Scalar reference implementations that the tests compare the package against.

Each evaluates one formula at one particle or grid node with an explicit
loop, independent of the vectorized code in `annihilate`:
`force` is one entry of `velocities`, and `levy_operator`
(near-field quadrature plus far field) is one node of
`hjsolver.levy_operator_all`.  `levy_operator_direct` is that operator at
every node by one direct convolution with the solver's own weights, the
oracle of its FFT branch, and `kernel_loop` builds those weights term by
term in a scalar loop, and the blocked layout's eigenvalues and twiddles
one entry at a time, the oracle of `hjsolver._Kernel`'s array build.
`step_hj_plain` is `hjsolver.step_hj` with a fresh array for every
intermediate, the oracle of the step's in-place passes (same bits).
`aec_defect_loop` is one defect of
`measures.aec_modulus` by a scalar double loop over intervals, and
`narrow_proxy_loop` is `measures.narrow_distance_proxy` by scalar sums
over atoms with a scalar default dictionary.  `sample_particles_loop` is
`harness.sample_particles` with one u0 call per scan point and one scalar
bisection per crossing.  The `*_loop` checks at the end are the property
suite's per-run checks walking a trajectory one `ParticleState` at a
time.  `velocity_field_broadcast` is `particles.velocity_field` by
numpy broadcasts over one m x m array, the oracle of its row blocks.
`step_core_fresh` is `integrator._step_core` with a fresh array
for every stage point, error scale and stage matrix, and
`detect_clusters_every_link` is `integrator.detect_clusters` without its
early exit, building the outer gaps and the closing mask on every call:
the oracles of the step's held buffers and of the exit, each of which
must give the same bits.  The other helpers serve only the tests: a
single integrator step with no history, per-state velocities (`particles.velocity_field` on the
charged particles, zero for the neutral ones), the staircase quantization, the
total variation and Lipschitz constant of a step or grid function, the
sup norm of a grid function, the e_n of a ladder's good rows, the
barrier bound on the limit equation, the tightness monitor of a measure,
and the readers of the trajectory CSV and event JSONL formats.  The
`*_csv_text` functions are the oracles of the `io` CSV writers: each
renders a file value by value, a float as `format(float(x), ".17g")` and
an integer as `str`.  Two exact particle solutions serve as oracles:
`pair_bump`, the height-eps bump whose single +- pair is known in closed
form, and `collision_profile`, the self-similar shape in which an
isolated alternating cluster collapses onto one point.  The exact limit solution
of the semicircle datum is not here: it is `CATALOG["semicircle"].exact`.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from annihilate import hjsolver, moments
from annihilate.harness import SCAN_POINTS, ConvergenceResult, InitialDatum
from annihilate.hjsolver import GridFunction, SchemeConfig
from annihilate.integrator import (
    _DP_A, _DP_E, _GUS_EXP, _PI_ALPHA, _PI_BETA, CLUSTER_GAP, COLLISION_SAFETY, ORDERING_SAFETY,
    IntegratorConfig, StepSizeUnderflow, StepStats, Trajectory, _Segment,
    _step_core,
)
from annihilate.io import provenance_line
from annihilate.levelset import StepFunction
from annihilate.measures import SignedAtomicMeasure
from annihilate.particles import EventRecord, InvalidState, ParticleState, velocity_field


def force(state: ParticleState, i: int) -> float:
    """Velocity of particle i: gamma * sum_{j != i, b_j != 0} b_i b_j / (x_i - x_j).

    Exactly zero for a neutral particle.  The sum is accumulated in
    compensated (Kahan) arithmetic: near collision it contains one huge
    term plus O(1) terms and the cancellation matters.
    """
    x, b = state.positions, state.charges
    bi = int(b[i])
    if bi == 0:
        return 0.0
    s = 0.0
    c = 0.0
    for j in range(state.n):
        if j == i or b[j] == 0:
            continue
        dx = x[i] - x[j]
        if dx == 0.0:
            raise ZeroDivisionError(f"charged particles {i} and {j} coincide at x={x[i]!r}")
        term = bi * b[j] / dx
        t = s + (term - c)
        c = (t - s) - (term - c)
        s = t
    return state.coupling * s


def _padded(u: GridFunction, pad: int) -> np.ndarray:
    return np.concatenate([np.full(pad, u.tails[0]), u.values, np.full(pad, u.tails[1])])


def near_field_quadrature(u: GridFunction, i: int, rho: float) -> float:
    """Trapezoid quadrature of int_{|z|<rho} (u(x+z) - u(x) - u'(x) z) dz/z^2.

    The integrand is bounded around z = 0; its value there is taken from
    the second difference.  u' is the centered difference, whose
    contributions cancel pairwise in the symmetric sum.
    """
    h = u.h
    r = int(round(rho / h))
    pad = r + 1
    U = _padded(u, pad)
    j = i + pad
    total = 0.5 * (U[j + 1] - 2.0 * U[j] + U[j - 1]) / h  # k = 0, weight h
    for k in range(1, r + 1):
        w = 0.5 if k == r else 1.0
        total += w * (U[j + k] - U[j]) / (k * k * h)
        total += w * (U[j - k] - U[j]) / (k * k * h)
    return float(total)


def far_field_grid(u: GridFunction, i: int, rho: float) -> float:
    """Cellwise-exact integral of (u(x+z) - u(x)) dz/z^2 over |z| > rho.

    Grid cells carry their endpoint-average value against the closed-form
    weight 1/(k(k+1)h); beyond the sampled range the constant tails give
    (tail - u_i)/z_cut analytically.
    """
    h = u.h
    r = int(round(rho / h))
    n = u.values.size
    half = n
    pad = half + 1
    U = _padded(u, pad)
    j = i + pad
    ui = U[j]
    total = 0.0
    for k in range(r, half + 1):
        c = 1.0 / (h * k * (k + 1))
        total += c * (0.5 * (U[j + k] + U[j + k + 1]) - ui)
        total += c * (0.5 * (U[j - k] + U[j - k - 1]) - ui)
    cut = (half + 1) * h
    total += (u.tails[1] - ui) / cut
    total += (u.tails[0] - ui) / cut
    return float(total)


def levy_operator(u: GridFunction, i: int, rho: float) -> float:
    """Operator value at node i: near-field quadrature plus exact far field."""
    return near_field_quadrature(u, i, rho) + far_field_grid(u, i, rho)


def levy_operator_direct(u: GridFunction, G: np.ndarray, tail_cut: float) -> np.ndarray:
    """Operator at every node by direct sum: the tail-padded values convolved with G.

    G holds the weights of lags -(n+1)..n+1 on an n-node grid, laid out as
    `hjsolver._Kernel.G`; beyond them each constant tail adds
    (tail - u_i)/tail_cut.
    """
    out = np.convolve(_padded(u, (G.size - 1) // 2), G[::-1], mode="valid")
    return out + (u.tails[0] - u.values) / tail_cut + (u.tails[1] - u.values) / tail_cut


def kernel_loop(n_nodes: int, h: float, r: int) -> dict:
    """`hjsolver._Kernel`'s G, W, spectrum, left and right, G built one term at a time.

    Each quadrature term adds its weight w at lag m and subtracts it from
    lag 0, in the order: the centered gradient, the near field, then each
    far cell's near and far end, + side before - side.  From
    `BLOCKED_SIZE` on, spectrum[k1, k2] is entry k1 + R k2 of the full
    fft of the circulant's first column, R = `FFT_ROWS`, and the twiddle
    and its conjugate are exp(-2 pi i j2 k1 / size), each by `cmath`.
    """
    half = n_nodes
    G = np.zeros(2 * half + 3)
    mid = half + 1

    def add(m, w):
        G[mid + m] += w
        G[mid] -= w

    add(+1, 1.0 / (2.0 * h))
    add(-1, 1.0 / (2.0 * h))
    for k in range(1, r + 1):
        w = (0.5 if k == r else 1.0) / (k * k * h)
        add(+k, w)
        add(-k, w)
    for k in range(r, half + 1):
        c = 1.0 / (h * k * (k + 1))
        for s in (+1, -1):
            add(s * k, 0.5 * c)
            add(s * (k + 1), 0.5 * c)
    tail_cut = (half + 1) * h
    n = n_nodes
    size = 1 << (2 * n - 3).bit_length()
    wrapped = np.zeros(size)
    wrapped[:n] = G[mid : mid + n]
    wrapped[size - n + 1 :] = G[mid - n + 1 : mid]
    out = {
        "G": G,
        "W": float(-G[mid] + 2.0 / tail_cut),
        "spectrum": np.fft.rfft(wrapped),
        "left": np.cumsum(G)[n:0:-1],
        "right": np.cumsum(G[::-1])[1 : n + 1],
    }
    if size >= hjsolver.BLOCKED_SIZE:
        rows, cols = hjsolver.FFT_ROWS, size // hjsolver.FFT_ROWS
        full = np.fft.fft(wrapped)
        shape = (rows // 2 + 1, cols)
        spectrum, twiddle = np.empty(shape, complex), np.empty(shape, complex)
        for k1 in range(shape[0]):
            for j in range(cols):
                spectrum[k1, j] = full[k1 + rows * j]
                twiddle[k1, j] = cmath.exp(complex(0.0, -2.0 * math.pi * (j * k1) / size))
        out.update(spectrum=spectrum, twiddle=twiddle, untwiddle=twiddle.conj())
    return out


def step_hj_plain(u: GridFunction, config: SchemeConfig, dt: float | None = None) -> GridFunction:
    """`hjsolver.step_hj` with every intermediate a fresh array, the oracle of its in-place passes.

    The operator copies the values into a zero-filled array of the FFT
    length, takes the Toeplitz part by the 1-D rfft/irfft pair or, from
    `BLOCKED_SIZE` on, by the four-step FFT over `FFT_ROWS` rows, and
    adds uL left, uR right, (uL + uR) / tail_cut and -(u / (0.5
    tail_cut)) to it in that order, each a temporary; below `FFT_NODES`
    it convolves the tail-padded values.  The upwind gradient picks
    rising where v >= 0 and falling elsewhere (NaN included) by
    `np.where`, then clamps at 0.  The kernel's weights, eigenvalues,
    twiddles and tail weights are the solver's own, and the dt rule is
    step_hj's, so the two must agree bit for bit.
    """
    kern = hjsolver._kernel_for(u, config.rho)
    n = u.values.size
    tl, tr = u.tails
    if n < hjsolver.FFT_NODES:
        v = np.convolve(_padded(u, kern.half + 1), kern.G[::-1], mode="valid")
        v = v + (tl + tr) / kern.tail_cut - 2.0 * u.values / kern.tail_cut
    else:
        padded = np.zeros(kern.size)
        padded[:n] = u.values
        if kern.size < hjsolver.BLOCKED_SIZE:
            toeplitz = np.fft.irfft(np.fft.rfft(padded) * kern.spectrum, kern.size)[:n]
        else:
            rows = hjsolver.FFT_ROWS
            spec = np.fft.rfft(padded.reshape(rows, -1), axis=0) * kern.twiddle
            spec = np.fft.fft(spec, axis=1) * kern.spectrum
            spec = np.fft.ifft(spec, axis=1) * np.conj(kern.twiddle)
            toeplitz = np.fft.irfft(spec, rows, axis=0).reshape(-1)[:n]
        v = toeplitz + tl * kern.left
        v = v + tr * kern.right
        v = v + (tl + tr) / kern.tail_cut
        v = v - u.values / (0.5 * kern.tail_cut)
    d = np.concatenate([[u.values[0] - tl], np.diff(u.values), [tr - u.values[-1]]]) / u.h
    falling = np.maximum(d[:-1], -d[1:])
    rising = np.maximum(-d[:-1], d[1:])
    grad = np.maximum(np.where(v >= 0.0, rising, falling), 0.0)
    denom = kern.W * float(grad.max()) + float(max(v.max(), -v.min())) / u.h
    dt_max = math.inf if denom == 0.0 else hjsolver.CFL / denom
    if dt is None:
        dt = min(dt_max, config.t_end - u.time)
        if dt <= 0:
            dt = dt_max
    elif dt > dt_max * (1 + 1e-12):
        raise hjsolver.CFLViolation(f"dt={dt} exceeds stability bound {dt_max:.3e}")
    values = u.values + dt * v * grad
    return replace(u, values=values,
                   time=config.t_end if dt == config.t_end - u.time else u.time + dt)


def _bisect(f: Callable, lo: float, hi: float, flo: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sample_particles_loop(
    u0: Callable, n: int, a: float, window: tuple[float, float] = (-4.0, 4.0),
    scan_points: int = SCAN_POINTS,
) -> tuple[np.ndarray, np.ndarray] | None:
    """(positions, charges) of the level crossings of u0 at heights (1/n)(Z + a), point by point.

    The scan grid, the levels and the sign-change test are the package's;
    each crossing is then bisected alone with scalar u0 calls.  None when
    no level is crossed.
    """
    eps = 1.0 / n
    xs = np.linspace(window[0], window[1], scan_points)
    vals = np.array([u0(x) for x in xs])
    k_lo = math.ceil(float(vals.min()) / eps - a)
    k_hi = math.floor(float(vals.max()) / eps - a)
    crossings = []
    for k in range(k_lo, k_hi + 1):
        level = eps * (k + a)
        f = vals - level
        for i in np.flatnonzero(f[:-1] * f[1:] < 0.0):
            c = _bisect(lambda x: u0(x) - level, xs[i], xs[i + 1], f[i])
            crossings.append((c, 1 if f[i] < 0 else -1))
    if not crossings:
        return None
    crossings.sort()
    return np.array([c for c, _ in crossings]), np.array([b for _, b in crossings])


def step(
    state: ParticleState, dt_max: float, config: IntegratorConfig
) -> tuple[ParticleState, float]:
    """Single accepted integrator step with no history: the hint starts unconstrained."""
    seg = _Segment(state.charges, state.coupling)
    xc = state.positions[seg.charged]
    k0 = velocity_field(xc, seg.bf, state.coupling, work=seg.work)
    xc, dt, _ = _step_core(xc, state.time, dt_max, seg, config, k0, StepStats())
    x = state.positions.copy()
    x[seg.charged] = xc
    return ParticleState(positions=x, charges=state.charges, coupling=state.coupling,
                         time=state.time + dt), dt


def step_core_fresh(
    x: np.ndarray,
    t: float,
    dt_max: float,
    seg: _Segment,
    config: IntegratorConfig,
    k0: np.ndarray,
    stats: StepStats,
) -> tuple[np.ndarray, float, np.ndarray]:
    """`integrator._step_core` as it was before the segment held the step's buffers.

    Every attempt allocates its stage matrix, and every stage point, error
    scale and error vector is a fresh array; the floating-point operations
    and their order are the package's.  Returns fresh arrays: the new x,
    the dt taken and the accepted step's stage matrix.
    """
    gamma = seg.gamma
    if x.size < 2:
        return x, dt_max, np.zeros((7, x.size))

    gaps = x[1:] - x[:-1]
    d = float(gaps.min())
    cap = math.inf
    if seg.opposite.any():
        g = float(gaps[seg.opposite].min())
        cap = COLLISION_SAFETY * g * g / (4.0 * gamma)
        if d * d * 1e300 > 4.0 * gamma * x.size:
            fastest = float(((k0[:-1] - k0[1:]) / gaps)[seg.opposite].max(initial=0.0))
            if fastest > 0.0:
                cap = min(cap, ORDERING_SAFETY / fastest)
    internal_cap = min(cap, seg.hint)
    dt = min(dt_max, internal_cap)
    stats.cap_bound += cap <= seg.hint and cap < dt_max
    target_bound = dt_max <= internal_cap
    rejected = False
    k = np.empty((7, x.size))
    k[0] = k0
    # the floor is relative to the state's own time scale: |t|, or the time
    # d^2 / (4 gamma) in which the closest charged pair (gap d) moves by ~d;
    # a step cut short only by a nearby target is not held to it
    tiny = 1e-16 * max(abs(t), d * d / (4.0 * gamma))
    while True:
        if not dt > tiny and not target_bound:
            raise StepSizeUnderflow(f"dt={dt:.3e} at t={t:.6e}; pathological state")
        for s in range(1, 7):
            xs = x + dt * (_DP_A[s] @ k[:s])
            if not (xs[1:] > xs[:-1]).all():
                break
            k[s] = velocity_field(xs, seg.bf, gamma, work=seg.work)
            stats.force_evals += 1
        else:
            # xs is now the 5th-order solution x5 and k[6] = f(x5)
            scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(x), np.abs(xs))
            r = dt * (_DP_E @ k) / scale
            err = math.sqrt(r @ r / seg.n)  # RMS of the scaled error estimate
            if err <= 1.0:
                if not target_bound:
                    # a step clipped by the requested horizon says nothing
                    # about error capacity and leaves the controller as it is
                    err = max(err, 1e-10)
                    fac = 0.9 * err**-_PI_ALPHA * seg.err_prev**_PI_BETA
                    if seg.dt_prev is not None:
                        fac = min(fac, 0.9 * (dt / seg.dt_prev)
                                  * (seg.err_prev / (err * err)) ** _GUS_EXP)
                    fac = min(1.0 if rejected else 5.0, max(0.5, fac))
                    seg.hint = dt * fac
                    seg.err_prev = max(err, 1e-4)
                    seg.dt_prev = dt
                return xs, dt, k
            stats.rejected_error += 1
            dt *= min(1.0, max(0.2, 0.9 * err**-0.2))
            target_bound = False
            rejected = True
            continue
        stats.rejected_order += 1
        dt *= 0.5
        target_bound = False
        rejected = True


def detect_clusters_every_link(
    x: np.ndarray, b: np.ndarray, v: np.ndarray, t: float, gamma: float, isolation: float,
) -> list[list[int]]:
    """`integrator.detect_clusters` without its early exit: every link is looked at."""
    if not b.all():
        raise InvalidState("detect_clusters takes the charged particles only")
    g = x[1:] - x[:-1]
    closing = (b[:-1] != b[1:]) & (v[1:] - v[:-1] < 0.0)
    if not closing.any():
        return []
    outer = np.full_like(g, np.inf)
    outer[1:] = g[:-1]
    np.minimum(outer[:-1], g[1:], out=outer[:-1])
    isolated = closing & (g < isolation * outer)
    if isolated.any():
        return [[k, k + 1] for k in np.flatnonzero(isolated).tolist()]
    linked = closing & (g < CLUSTER_GAP * max(float(x[-1] - x[0]), math.sqrt(gamma * abs(t))))
    clusters: list[list[int]] = []
    for k in np.flatnonzero(linked).tolist():
        if clusters and clusters[-1][-1] == k:
            clusters[-1].append(k + 1)
        else:
            clusters.append([k, k + 1])
    return clusters


def pair_bump(eps: float) -> InitialDatum:
    """Height-eps Lorentzian bump: the closed-form two-particle family.

    Sampling at any offset a in (0, 1) yields one +- pair at +-sqrt(1/a-1)
    whose trajectories are +-sqrt(x0^2 - eps t); the exact solution is
    u(t, x) = u0(sqrt(x^2 + eps t)).
    """
    return InitialDatum(u0=lambda x: eps / (x * x + 1.0),
                        exact=lambda t, x: eps / (x * x + eps * t + 1.0))


def profile_equation(b, xi: np.ndarray) -> np.ndarray:
    """xi_i / 2 + sum_{j != i} b_i b_j / (xi_i - xi_j) for every i; zero at a collision profile."""
    b = np.asarray(b, dtype=float)
    d = xi[:, None] - xi[None, :] + np.eye(xi.size)  # 1 on the diagonal, where bb is 0
    bb = np.outer(b, b) - np.diag(b * b)
    return xi / 2.0 + np.sum(bb / d, axis=1)


def collision_profile(b) -> np.ndarray:
    """Self-similar collapse profile xi of an isolated cluster with charges b.

    x_i(t) = y + xi_i sqrt(gamma (tau - t)) solves the particle system at
    coupling gamma, colliding at (tau, y), iff `profile_equation` is zero;
    summing it over i gives sum xi = 0.  Newton's method from equispaced
    points scaled to the second moment sum xi^2 = m - q^2 (m charges of
    net charge q), stopped when a step moves no coordinate by more than
    1e-15 of the largest.
    """
    b = np.asarray(b, dtype=float)
    m, q = b.size, float(b.sum())
    xi = np.linspace(-1.0, 1.0, m)
    xi *= math.sqrt((m - q * q) / float(np.sum(xi * xi)))
    bb = np.outer(b, b) - np.diag(b * b)
    for _ in range(100):
        d = xi[:, None] - xi[None, :] + np.eye(m)
        jac = bb / (d * d)
        jac[np.diag_indices(m)] = 0.5 - jac.sum(axis=1)
        step = np.linalg.solve(jac, profile_equation(b, xi))
        xi = xi - step
        if np.max(np.abs(step)) <= 1e-15 * np.max(np.abs(xi)):
            break
    return xi


def velocity_field_broadcast(x: np.ndarray, b: np.ndarray, coupling: float) -> np.ndarray:
    """`particles.velocity_field` as numpy broadcasts: b / (x[:, None] - x) over one m x m array.

    The oracle of the row-block kernel, which must give the same bits: the
    same row sums of b_j / (x_i - x_j), with b_i / inf on the diagonal,
    times coupling * b_i.
    """
    m = x.size
    d = np.empty((m, m))
    np.subtract(x[:, None], x, out=d)
    d.reshape(-1)[:: m + 1] = np.inf  # b_i / inf: no self-interaction
    np.divide(b, d, out=d)
    out = np.add.reduce(d, axis=1)
    out *= coupling * b
    return out


def velocities(state: ParticleState) -> np.ndarray:
    c = np.flatnonzero(state.charges)
    v = np.zeros(state.n)
    v[c] = velocity_field(state.positions[c], state.charges[c], state.coupling)
    return v


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


def total_variation(u: StepFunction) -> float:
    return u.eps * u.n_jumps


def measure_total_variation(mu: SignedAtomicMeasure) -> float:
    return float(np.sum(np.abs(mu.weights)))


def grid_sup_norm(u: GridFunction) -> float:
    """Sup of |u| over the grid values and both tails."""
    return max(float(np.max(np.abs(u.values))), abs(u.tails[0]), abs(u.tails[1]))


def ladder_errors(result: ConvergenceResult) -> list[float]:
    """e_n of every ladder row that ran without an error."""
    return [r.e_n for r in result.rows if r.error is None]


def grid_lipschitz(u: GridFunction) -> float:
    """Max one-sided difference quotient of a grid function, tails included."""
    padded = np.concatenate([[u.tails[0]], u.values, [u.tails[1]]])
    return float(np.max(np.abs(np.diff(padded)))) / u.h


def read_trajectory_csv(path):
    """Returns (times, positions, charges) arrays; bit-exact round trip."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("t,"):
            continue
        rows.append(line.split(","))
    n = (len(rows[0]) - 1) // 2
    times = np.array([float(r[0]) for r in rows])
    xs = np.array([[float(v) for v in r[1 : 1 + n]] for r in rows])
    bs = np.array([[int(v) for v in r[1 + n :]] for r in rows])
    return times, xs, bs


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _csv_text(cfg_hash: str, header: list[str], rows: Iterable[list[str]]) -> str:
    lines = [provenance_line(cfg_hash), ",".join(header)] + [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def trajectory_csv_text(times, positions, charges, cfg_hash: str) -> str:
    n = positions.shape[1]
    header = ["t"] + [f"x_{i + 1}" for i in range(n)] + [f"b_{i + 1}" for i in range(n)]
    rows = ([_fmt(t)] + [_fmt(v) for v in x] + [str(c) for c in b]
            for t, x, b in zip(times.tolist(), positions.tolist(), charges.tolist()))
    return _csv_text(cfg_hash, header, rows)


def xy_csv_text(xs, ys, cfg_hash: str, names=("x", "u")) -> str:
    return _csv_text(cfg_hash, list(names), ([_fmt(x), _fmt(y)] for x, y in zip(xs, ys)))


def convergence_csv_text(result: ConvergenceResult, cfg_hash: str) -> str:
    header = ["n", "e_n", "events", "runtime_s", "monotone", "error"]
    rows = ([str(r.n), _fmt(r.e_n), str(r.events), _fmt(r.runtime_s),
             str(int(result.monotone)), r.error or ""] for r in result.rows)
    return _csv_text(cfg_hash, header, rows)


def read_events_jsonl(path) -> list[dict]:
    out = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        out.append(json.loads(line))
    return out


# Constant in the barrier speed, from bounding the staircase-averaged
# integral of a parabola alpha z + K z^2 / 2; elementary estimates give < 3.
BARRIER_C = 3.0


def barrier_check(
    v0: Callable,
    lip: float,
    semiconcavity: float,
    frames: Iterable[GridFunction],
    v0_sup: float | None = None,
) -> tuple[bool, float]:
    """Verify that a run started below v0 stays below the rising barrier.

    The barrier speed is sigma = 2 (K L + C (K + L^2) + 4 ||v0||_inf L + 1)
    with C = BARRIER_C and a safety factor 2.  Returns (ok, margin) where
    margin is the minimum of v0(x) + sigma t - u(t, x) over all frames.
    """
    frames = list(frames)
    if v0_sup is None:
        xs = frames[0].xs if frames else np.linspace(-10, 10, 1001)
        v0_sup = float(np.max(np.abs(v0(xs))))
    sigma = 2.0 * (
        semiconcavity * lip
        + BARRIER_C * (semiconcavity + lip * lip)
        + 4.0 * v0_sup * lip
        + 1.0
    )
    margin = math.inf
    for fr in frames:
        bar = v0(fr.xs) + sigma * fr.time
        margin = min(margin, float(np.min(bar - fr.values)))
    return margin >= -1e-12, margin


def mass_outside(mu: SignedAtomicMeasure, R: float) -> float:
    """Total variation carried by atoms with |x| > R (tightness monitor)."""
    mask = np.abs(mu.locations) > R
    return float(np.sum(np.abs(mu.weights[mask])))


def aec_defect_loop(mu: SignedAtomicMeasure, omega: Callable) -> float:
    """sup over atom runs i..j of (|mu(run)| - omega(x_j - x_i))^+, one pair at a time."""
    csum = np.concatenate([[0.0], np.cumsum(mu.weights)])
    loc = mu.locations
    best = 0.0
    for i in range(mu.n_atoms):
        for j in range(i, mu.n_atoms):
            val = abs(csum[j + 1] - csum[i]) - omega(loc[j] - loc[i])
            if val > best:
                best = float(val)
    return best


def _scalar_dictionary(lo: float, hi: float) -> list[Callable]:
    """The default dictionary's tanh sigmoids and triangular bumps, one point per call."""
    size = max(hi - lo, 1e-9)
    funcs: list[Callable] = []
    for level in range(6):
        w = size / 2**level
        for c in np.linspace(lo, hi, 2**level + 1):
            funcs.append(lambda x, c=c, w=w: math.tanh((x - c) / w))
            funcs.append(lambda x, c=c, w=w: max(0.0, 1.0 - abs(x - c) / w))
    return funcs


def narrow_proxy_loop(
    mu: SignedAtomicMeasure, nu: SignedAtomicMeasure, dictionary: Iterable[Callable] | None = None
) -> float:
    """max over the dictionary of |int phi dmu - int phi dnu|, each integral a scalar sum."""
    if dictionary is None:
        pts = [*mu.locations, *nu.locations, 0.0]
        dictionary = _scalar_dictionary(min(pts) - 1.0, max(pts) + 1.0)

    def integral(m: SignedAtomicMeasure, phi: Callable) -> float:
        return sum(w * phi(x) for x, w in zip(m.locations, m.weights))

    return max(abs(integral(mu, phi) - integral(nu, phi)) for phi in dictionary)


# ---------------------------------------------------------------------------
# the property suite's per-run checks, one ParticleState at a time


def _states(traj: Trajectory) -> list[ParticleState]:
    return [traj.state(k) for k in range(len(traj.times))]


def _same_sign_gap(state: ParticleState, sign: int) -> float:
    idx = np.flatnonzero(state.charges)
    b = state.charges[idx]
    gaps = np.diff(state.positions[idx])[(b[:-1] == sign) & (b[1:] == sign)]
    return float(gaps.min()) if gaps.size else np.inf


def _energy(state: ParticleState) -> float:
    x, b = state.positions, state.charges
    act = np.flatnonzero(b != 0)
    if act.size < 2:
        return 0.0
    xa = x[act]
    ba = b[act].astype(float)
    diff = np.abs(xa[:, None] - xa[None, :])
    iu = np.triu_indices(act.size, k=1)
    total = 2.0 * float(np.sum((ba[:, None] * ba[None, :])[iu] * -np.log(diff[iu])))
    return total / (2.0 * state.n**2)


def check_m1_loop(traj):
    states = _states(traj)
    m1_0 = float(states[0].positions.sum())
    floor = max(max(st.n * float(np.spacing(np.max(np.abs(st.positions)))) for st in states),
                0.5 * math.fsum(float(np.sum(np.spacing(np.abs(st.positions)))) for st in states))
    tol = max(1e-9 * (1.0 + abs(m1_0)), floor)
    worst = max(abs(float(st.positions.sum()) - m1_0) for st in states)
    yield worst <= tol, tol - worst, f"max drift {worst:.3e}"


def check_net_charge_loop(traj):
    states = _states(traj)
    q0 = int(states[0].charges.sum())
    dev = max(abs(int(st.charges.sum()) - q0) for st in states)
    yield dev == 0, float(-dev), f"max integer deviation {dev}"


def _run_starts(states: list[ParticleState]) -> list[int]:
    """Row 0 and every row whose charges differ from the row before: where each run starts."""
    return [k for k, st in enumerate(states)
            if k == 0 or st.charges.tolist() != states[k - 1].charges.tolist()]


def check_m2_loop(traj):
    rel_tol = 1e-6
    states, times = _states(traj), traj.times.tolist()
    m2 = lambda st: 0.5 * float(np.sum(st.positions**2))
    starts = _run_starts(states)
    for k0, end in zip(starts, starts[1:] + [len(states)]):
        k1 = end - 1
        dt = times[k1] - times[k0]
        if dt <= 0.05:
            continue
        st = states[k0]
        bsum = float(st.charges.sum())
        bsq = float(np.sum(st.charges.astype(float) ** 2))
        pred = 0.5 * st.coupling * (bsum * bsum - bsq)
        slope = (m2(states[k1]) - m2(st)) / dt
        if pred == 0.0:
            floor = 100.0 * traj.config.rel_tol * (1.0 + abs(m2(st))) / dt
            dev = abs(slope)
            yield dev <= floor, floor - dev, f"zero-rate segment dev {dev:.2e}"
        else:
            rel = abs(slope - pred) / abs(pred)
            yield rel <= rel_tol, rel_tol - rel, f"rel dev {rel:.2e}"
        # the row between k0 and k1, at least 0.05 after k0, nearest its bound
        worst = None
        for k in range(k0 + 1, k1):
            span = times[k] - times[k0]
            if span > 0.05:
                dev = abs(m2(states[k]) - m2(st) - pred * span)
                floor = 100.0 * traj.config.rel_tol * (1.0 + max(abs(m2(st)), abs(m2(states[k]))))
                if worst is None or floor - dev < worst[0] - worst[1]:
                    worst = (floor, dev, times[k])
        if worst is not None:
            floor, dev, t = worst
            yield dev <= floor, floor - dev, f"row at t={t:.3f} dev {dev:.2e}"


def check_equal_gap_loop(traj):
    states, times = _states(traj), traj.times.tolist()
    n = states[0].n
    rate = 8.0 / (n * n - 1.0)
    for sign in (+1, -1):
        d0 = _same_sign_gap(states[0], sign)
        if not math.isfinite(d0):
            continue
        for t, st in zip(times, states):
            d = _same_sign_gap(st, sign)
            if not math.isfinite(d):
                continue
            bound = d0 * d0 + rate * (t - times[0]) - 1e-9
            yield d * d >= bound, d * d - bound, f"sign {sign} at t={t:.3f}"


def check_opposite_gap_loop(traj):
    states, times = _states(traj), traj.times.tolist()
    st0 = states[0]
    beta = 8.0 * (math.log(st0.n) + 1.0) / st0.n
    c0_all = min(_same_sign_gap(st0, 1), _same_sign_gap(st0, -1))
    idx = np.flatnonzero(st0.charges)
    for i, j in zip(idx[:-1].tolist(), idx[1:].tolist()):
        c0 = min(c0_all, st0.positions[j] - st0.positions[i])
        for t, st in zip(times, states):
            if st.charges[i] == 0 or st.charges[j] == 0:
                break
            radicand = c0 * c0 - beta * (t - times[0])
            if radicand <= 0:
                break
            gap = st.positions[j] - st.positions[i]
            bound = math.sqrt(radicand) - 1e-9
            yield gap >= bound, gap - bound, f"pair ({i},{j}) t={t:.3f}"


def fit_collision_exponent_loop(traj: Trajectory, event: EventRecord) -> float | None:
    ds, dts = [], []
    rows = [st for t, st in zip(traj.times.tolist(), _states(traj)) if t < event.tau]
    for t, st in zip(traj.times.tolist(), rows):
        # only the last inter-event segment: the charges of the last row before tau
        if st.charges.tolist() != rows[-1].charges.tolist():
            continue
        xs = st.positions[list(event.cluster)]
        d = float(xs.max() - xs.min())
        gap = event.tau - t
        if d > 0 and gap > 0:
            ds.append(d)
            dts.append(gap)
    if len(ds) < 5:
        return None
    dts, ds = np.asarray(dts), np.asarray(ds)
    lo = dts.min()
    mask = dts <= 100.0 * lo
    if mask.sum() < 5:
        mask = dts <= 1000.0 * lo
    if mask.sum() < 5:
        return None
    return float(np.polyfit(np.log(dts[mask]), np.log(ds[mask]), 1)[0])


def check_slopes_loop(traj):
    for ev in traj.events:
        slope = fit_collision_exponent_loop(traj, ev)
        if slope is None:
            continue
        margin = 0.02 - abs(slope - 0.5)
        yield margin >= 0, margin, f"slope {slope:.4f} at tau={ev.tau:.4f}"


def check_dm_lipschitz_loop(traj):
    states, times = _states(traj), traj.times.tolist()
    grid = traj.config.sample_times
    idx = [k for k, t in enumerate(times) if t in grid]
    if len(idx) < 3:
        return
    xs = [states[k].positions for k in idx]
    ts = [times[k] for k in idx]
    c_adj = 0.0
    for k in range(len(idx) - 1):
        dt = ts[k + 1] - ts[k]
        if dt > 1e-12:
            c_adj = max(c_adj, moments.d_M(xs[k], xs[k + 1]) / dt)
    allowed = 1.01 * c_adj + 1e-9
    worst = 0.0
    for a in range(0, len(idx), 3):
        for b in range(a + 1, len(idx)):
            dt = ts[b] - ts[a]
            if dt > 1e-12:
                worst = max(worst, moments.d_M(xs[a], xs[b]) / dt)
    yield worst <= allowed, allowed - worst, f"fit C={c_adj:.3e}, worst {worst:.3e}"


def check_energy_loop(traj):
    states = _states(traj)
    starts = set(_run_starts(states))
    prev_e = None
    for k, (t, st) in enumerate(zip(traj.times.tolist(), states)):
        e = _energy(st)
        if k not in starts:
            tol = 1e-9 * (1.0 + abs(prev_e))
            yield e <= prev_e + tol, prev_e + tol - e, f"t={t:.3f}"
        prev_e = e
