"""Discrete-to-continuum experiments and the randomized invariant battery.

Particles are sampled from continuous initial data as level crossings at
heights eps (Z + a), evolved with coupling gamma = eps = 1/n, turned back
into step functions, and compared in sup norm against the grid solution
of the limit equation.  The property suite drives randomized ensembles
through every quantitative invariant the theory provides.
"""
from __future__ import annotations

import json
import math
import time as _time
from dataclasses import dataclass, field, asdict
from typing import Callable, Iterable, Sequence

import numpy as np

from . import hjsolver, levelset, measures, moments
from .integrator import EvolveError, IntegratorConfig, Trajectory, evolve
from .particles import (
    EventRecord,
    ParticleState,
    energy,
    neighbor_pairs,
    net_charge,
    same_sign_gap,
    velocities,
)

__all__ = [
    "InitialDatum",
    "CATALOG",
    "pair_bump",
    "odd_lattice",
    "DegenerateCrossing",
    "sample_particles",
    "quantized_level_below",
    "ExperimentSpec",
    "ConvergenceRow",
    "ConvergenceResult",
    "run_convergence",
    "PropertyReport",
    "run_property_suite",
    "fit_collision_exponent",
    "stability_sweep",
]


class DegenerateCrossing(ValueError):
    """The datum is flat at a sampling level over an interval."""


@dataclass(frozen=True)
class InitialDatum:
    """Catalog entry: bounded uniformly continuous, constant outside window."""

    name: str
    u0: Callable[[float], float]
    window: tuple[float, float]
    lipschitz: float  # upper bound on max |u0'|
    description: str = ""


def _smoothstep(x: float) -> float:
    if x <= -1.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    t = (x + 1.0) / 2.0
    return t * t * (3.0 - 2.0 * t)


def _mollifier(x: float) -> float:
    # C-infinity bump supported on (-1, 1), value 1 at 0
    if abs(x) >= 1.0:
        return 0.0
    return math.exp(1.0 - 1.0 / (1.0 - x * x))


def _double_bump(x: float) -> float:
    return 0.62 * (_mollifier((x + 1.05) / 0.85) + _mollifier((x - 1.05) / 0.85))


CATALOG: dict[str, InitialDatum] = {
    "sigmoid": InitialDatum(
        name="sigmoid",
        u0=_smoothstep,
        window=(-1.0, 1.0),
        lipschitz=0.75,
        description="monotone ramp 0 -> 1; all charges +1, no annihilation ever",
    ),
    "double_bump": InitialDatum(
        name="double_bump",
        u0=_double_bump,
        window=(-1.9, 1.9),
        lipschitz=2.0,
        description="two separated bumps; inner opposite pairs annihilate",
    ),
    "constant": InitialDatum(
        name="constant",
        u0=lambda x: 0.25,
        window=(-1.0, 1.0),
        lipschitz=0.0,
        description="no level crossings, no particles; the error is zero",
    ),
}


def pair_bump(eps: float) -> InitialDatum:
    """Height-eps Lorentzian bump: the closed-form two-particle family.

    Sampling at any offset a in (0, 1) yields one +- pair at +-sqrt(1/a-1)
    whose trajectories are +-sqrt(x0^2 - eps t).
    """
    return InitialDatum(
        name="pair_bump",
        u0=lambda x: eps / (x * x + 1.0),
        window=(-8.0, 8.0),
        lipschitz=eps,
        description="eps/(x^2+1); exact solution u(t,x) = u0(sqrt(x^2 + eps t))",
    )


def odd_lattice(n: int) -> ParticleState:
    """Uniform all-positive lattice x_i = i, the sharpness case of the gap bound."""
    if n % 2 == 0:
        raise ValueError("odd_lattice wants odd n")
    return ParticleState(
        positions=np.arange(1.0, n + 1.0), charges=np.ones(n, dtype=int)
    )


def quantized_level_below(value: float, eps: float, a: float) -> float:
    """Largest level eps*(k + a) strictly below value."""
    k = math.floor(value / eps - a)
    level = eps * (k + a)
    if level >= value:
        level -= eps
    return level


def _bisect(f, lo: float, hi: float, flo: float) -> float:
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


def sample_particles(
    u0: Callable[[float], float],
    n: int,
    a: float,
    window: tuple[float, float] = (-4.0, 4.0),
    scan_points: int = 2**15,
) -> ParticleState | None:
    """Particles as level crossings of u0 at heights (1/n)(Z + a).

    The charge is the sign of the slope at the crossing.  Coupling is set
    to eps = 1/n, the rescaled system of the level-set correspondence.
    Returns None when no level is crossed (constant data).  Raises
    DegenerateCrossing if u0 sits exactly on a level over an interval.
    """
    if not (0.0 <= a < 1.0):
        raise ValueError("offset a must lie in [0, 1)")
    eps = 1.0 / n
    xs = np.linspace(window[0], window[1], scan_points)
    vals = np.array([u0(x) for x in xs])
    umin, umax = float(vals.min()), float(vals.max())
    k_lo = math.ceil(umin / eps - a)
    k_hi = math.floor(umax / eps - a)

    crossings: list[tuple[float, int]] = []
    for k in range(k_lo, k_hi + 1):
        level = eps * (k + a)
        f = vals - level
        flat = np.abs(f) < 1e-12
        if np.any(flat[:-1] & flat[1:]):
            raise DegenerateCrossing(f"u0 is flat at level {level}")
        sign_change = np.flatnonzero(f[:-1] * f[1:] < 0.0)
        for i in sign_change:
            c = _bisect(lambda x: u0(x) - level, xs[i], xs[i + 1], f[i])
            charge = 1 if f[i] < 0 else -1  # rising crossing carries +1
            crossings.append((c, charge))
    if not crossings:
        return None
    crossings.sort()
    pos = np.array([c for c, _ in crossings])
    chg = np.array([b for _, b in crossings], dtype=int)
    if pos.size > 1 and np.any(np.diff(pos) <= 0):
        raise DegenerateCrossing("coincident crossings; raise scan_points or move a")
    return ParticleState(positions=pos, charges=chg, coupling=eps)


# ---------------------------------------------------------------------------
# convergence experiment


@dataclass(frozen=True)
class ExperimentSpec:
    """One discrete-to-continuum experiment."""

    datum: str = "sigmoid"
    ns: tuple[int, ...] = (8, 16, 32, 64, 128)
    offset: float = 0.5
    t_end: float = 0.25
    n_snapshots: int = 6
    ref_L: float = hjsolver.SchemeConfig.L
    ref_h: float = 1.0 / 256.0
    ref_rho: float = hjsolver.SchemeConfig.rho
    ref_cfl: float = hjsolver.SchemeConfig.cfl
    abs_tol: float = IntegratorConfig.abs_tol
    rel_tol: float = IntegratorConfig.rel_tol
    scan_points: int = 2**15
    seed: int = 0
    boundary_margin_cells: int = 2

    def __post_init__(self):
        if self.datum != "pair_bump" and self.datum not in CATALOG:
            raise ValueError(
                f"unknown datum {self.datum!r}; choose from {sorted(CATALOG)} or 'pair_bump'"
            )
        if not all(n >= 1 for n in self.ns):
            raise ValueError("ns must be positive")
        if not 0.0 <= self.offset < 1.0:
            raise ValueError(f"offset must lie in [0, 1), got {self.offset!r}")
        # both configs check their own fields
        self.scheme_config()
        self.integrator_config()

    def scheme_config(self) -> hjsolver.SchemeConfig:
        return hjsolver.SchemeConfig(
            L=self.ref_L, h=self.ref_h, rho=self.ref_rho, cfl=self.ref_cfl, t_end=self.t_end
        )

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(
            t_end=self.t_end, abs_tol=self.abs_tol, rel_tol=self.rel_tol,
            sample_times=tuple(self.snapshot_times()), store_steps=False,
        )

    def snapshot_times(self) -> np.ndarray:
        inner = np.geomspace(self.t_end / 30.0, self.t_end, self.n_snapshots)
        return np.concatenate([[0.0], inner])


@dataclass
class ConvergenceRow:
    n: int
    e_n: float
    events: int
    runtime_s: float
    error: str | None = None


@dataclass
class ConvergenceResult:
    spec: ExperimentSpec
    rows: list[ConvergenceRow]
    monotone: bool
    ref_frames: list = field(default_factory=list)  # (time, GridFunction) plot data

    def errors(self) -> list[float]:
        return [r.e_n for r in self.rows if r.error is None]


def _comparison_points(spec: ExperimentSpec, ref: hjsolver.GridFunction, u_n: levelset.StepFunction) -> np.ndarray:
    lo = -spec.ref_L + spec.boundary_margin_cells * spec.ref_h
    hi = spec.ref_L - spec.boundary_margin_cells * spec.ref_h
    pts = [ref.xs, ref.xs[:-1] + 0.5 * spec.ref_h]
    if u_n.n_jumps:
        off = 1e-9 * max(1.0, float(np.max(np.abs(u_n.locations))))
        pts.append(u_n.locations - off)
        pts.append(u_n.locations + off)
    allpts = np.concatenate(pts)
    return allpts[(allpts >= lo) & (allpts <= hi)]


def _ladder_row(spec: ExperimentSpec, n: int, u0: Callable[[float], float],
                window: tuple[float, float], u_left: float,
                reference: Callable[[float, levelset.StepFunction], tuple]) -> ConvergenceRow:
    """Sample u0 at level spacing 1/n in window, evolve, and measure e_n.

    u_left is the datum's value left of all crossings; the step functions
    start at the sampling level just below it.  reference(t, u_n) returns
    the comparison points and the reference values there at snapshot time
    t, given the particle step function u_n at t.
    """
    t0 = _time.perf_counter()
    try:
        eps = 1.0 / n
        state = sample_particles(u0, n, spec.offset, window=window,
                                 scan_points=spec.scan_points)
        times = spec.snapshot_times()
        if state is None:
            # no crossings: the constant datum is represented exactly
            flat = levelset.StepFunction(np.empty(0), np.empty(0, dtype=int), eps, base=u_left)
            steps, events = [flat] * times.size, 0
        else:
            traj = evolve(state, spec.integrator_config())
            base = quantized_level_below(u_left, eps, spec.offset)
            steps = [levelset.from_particles(traj.state_at(t, tol=1e-6), eps=eps, base=base)
                     for t in times]
            events = len(traj.events)
        e_n = 0.0
        for t, u_n in zip(times, steps):
            pts, ref = reference(t, u_n)
            e_n = max(e_n, float(np.max(np.abs(u_n(pts) - ref))))
        return ConvergenceRow(n=n, e_n=e_n, events=events,
                              runtime_s=_time.perf_counter() - t0)
    except (EvolveError, DegenerateCrossing, ValueError) as exc:
        return ConvergenceRow(n=n, e_n=float("nan"), events=0,
                              runtime_s=_time.perf_counter() - t0, error=str(exc))


def run_convergence(spec: ExperimentSpec) -> ConvergenceResult:
    """Run the n-ladder against the reference solution.

    Rows come out sorted by n; a failing row carries its error message and
    the others continue.  e_n is the max over snapshot times of the sup
    distance between the particle step function and the reference: the
    linearly interpolated grid solution for catalog data (excluding two
    reference cells at the boundary), or, for the pair_bump family, the
    closed form u(t, x) = u0(sqrt(x^2 + eps t)) on a 2001-point grid.
    """
    snap_times = spec.snapshot_times()
    if spec.datum == "pair_bump":
        frames = []
        grid = np.linspace(-spec.ref_L, spec.ref_L, 2001)
        rows = []
        for n in sorted(spec.ns):
            datum = pair_bump(1.0 / n)
            exact = lambda t, u_n, eps=1.0 / n: (grid, eps / (grid * grid + eps * t + 1.0))
            rows.append(_ladder_row(spec, n, datum.u0, datum.window, 0.0, exact))
    else:
        datum = CATALOG[spec.datum]
        ordered = sorted(set([0.0, spec.t_end] + [float(t) for t in snap_times]))
        ref_frames = hjsolver.solve_hj(datum.u0, spec.scheme_config(), snap_times)
        frame_of = dict(zip(ordered, ref_frames))
        frames = [frame_of[float(t)] for t in snap_times]

        def interpolated(t, u_n):
            fr = frame_of[float(t)]
            pts = _comparison_points(spec, fr, u_n)
            return pts, fr.interp(pts)

        window = (-spec.ref_L, spec.ref_L)
        rows = [_ladder_row(spec, n, datum.u0, window, datum.u0(window[0]), interpolated)
                for n in sorted(spec.ns)]
    good = [r.e_n for r in rows if r.error is None]
    monotone = all(b <= 1.1 * a for a, b in zip(good[:-1], good[1:]))
    return ConvergenceResult(
        spec=spec,
        rows=rows,
        monotone=monotone,
        ref_frames=[(float(t), fr) for t, fr in zip(snap_times, frames)],
    )


# ---------------------------------------------------------------------------
# randomized invariant battery


@dataclass
class CheckResult:
    passed: bool
    margin: float
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.margin = float(self.margin)


@dataclass
class PropertyReport:
    seed: int
    runs: int
    runs_with_events: int
    events_total: int
    checks: dict[str, CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json(self) -> str:
        def clean(d):
            m = d["margin"]
            d["margin"] = m if math.isfinite(m) else None
            return d

        payload = {
            "seed": self.seed,
            "runs": self.runs,
            "runs_with_events": self.runs_with_events,
            "events_total": self.events_total,
            "all_passed": self.all_passed,
            "checks": {k: clean(asdict(v)) for k, v in self.checks.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _random_state(rng: np.random.Generator, n: int) -> ParticleState:
    # strictly ordered positions with gaps bounded away from zero
    while True:
        gaps = rng.uniform(0.3, 1.0, size=n) * (2.0 / n)
        pos = np.cumsum(gaps)
        pos -= pos.mean()
        chg = rng.integers(0, 2, size=n) * 2 - 1
        prods = chg[:-1] * chg[1:]
        if (chg == 1).any() and (chg == -1).any() and (prods < 0).any():
            return ParticleState(positions=pos, charges=chg.astype(int))


def fit_collision_exponent(traj: Trajectory, event: EventRecord) -> float | None:
    """Log-log slope of the cluster diameter against time-to-collision.

    Uses stored pre-collision snapshots whose time-to-collision lies in
    the last two available decades; returns None when fewer than five
    points exist (no fit).
    """
    ds = []
    dts = []
    for t, st in zip(traj.times, traj.states):
        if t >= event.tau:
            break
        if any(st.charges[i] == 0 for i in event.cluster):
            continue
        xs = st.positions[list(event.cluster)]
        d = float(xs.max() - xs.min())
        gap = event.tau - t
        if d > 0 and gap > 0:
            ds.append(d)
            dts.append(gap)
    if len(ds) < 5:
        return None
    dts = np.asarray(dts)
    ds = np.asarray(ds)
    lo = dts.min()
    mask = dts <= 100.0 * lo
    if mask.sum() < 5:
        mask = dts <= 1000.0 * lo
    if mask.sum() < 5:
        return None
    slope = np.polyfit(np.log(dts[mask]), np.log(ds[mask]), 1)[0]
    return float(slope)


def stability_sweep(
    base_state: ParticleState,
    deltas: Sequence[float],
    t_end: float,
    rng: np.random.Generator,
    n_times: int = 21,
) -> list[float]:
    """sup_t d_M between the base run and runs from perturbed initial data."""
    times = tuple(np.linspace(0.0, t_end, n_times))
    cfg = IntegratorConfig(t_end=t_end, sample_times=times, store_steps=False)
    ref = evolve(base_state, cfg)
    direction = rng.standard_normal(base_state.n)
    direction /= float(np.max(np.abs(direction)))
    sups = []
    for delta in deltas:
        pert = ParticleState(
            positions=base_state.positions + delta * direction,
            charges=base_state.charges,
            coupling=base_state.coupling,
        )
        run = evolve(pert, cfg)
        sup = max(
            moments.d_M(ref.state_at(t, tol=1e-6).positions, run.state_at(t, tol=1e-6).positions)
            for t in times
        )
        sups.append(sup)
    return sups


def _worst(cases: Iterable[tuple[bool, float, str]],
           current: CheckResult | None = None) -> CheckResult | None:
    """Fold (passed, margin, detail) cases into current: least margin, failures first."""
    for passed, margin, detail in cases:
        if current is None or margin < current.margin or (not passed and current.passed):
            current = CheckResult(passed=passed, margin=margin, detail=detail)
    return current


def run_property_suite(
    seed: int = 0,
    sizes: Sequence[int] = (4, 6, 8, 12, 16, 24, 32),
    runs: int = 100,
    t_end: float = 1.0,
) -> PropertyReport:
    """Randomized battery of every quantitative invariant.

    Draws `runs` initial states (positions with gaps ~ 1/n in [-1, 1],
    i.i.d. signs with both present), evolves each to t_end at coupling
    1/n, and aggregates worst-case margins per named check.  Margins are
    positive iff the check passed with room.  Raises ValueError before
    drawing anything when sizes is empty or holds a size below 2, which
    cannot carry both signs, or when runs is negative.
    """
    if not sizes or min(sizes) < 2 or runs < 0:
        raise ValueError(f"need sizes >= 2 and runs >= 0, got sizes={list(sizes)}, runs={runs}")
    rng = np.random.default_rng(seed)
    found: dict[str, CheckResult | None] = dict.fromkeys([*_PER_RUN, *_ONE_SHOT])
    events: list[int] = []

    def fold(checks, arg) -> None:
        for name, check in checks:
            found[name] = _worst(check(arg), found[name])

    sample_grid = tuple(np.linspace(0.0, t_end, 21))
    for run_idx in range(runs + 1):
        if run_idx == runs:
            # all-neutral edge case: every check holds vacuously
            state = ParticleState(
                positions=np.linspace(-1.0, 1.0, 4), charges=np.zeros(4, dtype=int)
            )
        else:
            n = int(rng.choice(list(sizes)))
            state = _random_state(rng, n)
        traj = evolve(state, IntegratorConfig(t_end=t_end, sample_times=sample_grid))
        events.append(len(traj.events))
        # the residual check evolves the run again; the first runs suffice
        fold([(name, check) for name, check in _PER_RUN.items()
              if run_idx < _RESIDUAL_RUNS or check is not _check_ode_residual], traj)
    fold(_ONE_SHOT.items(), np.random.default_rng(seed + 1))

    return PropertyReport(
        seed=seed,
        runs=runs,
        runs_with_events=sum(1 for k in events if k),
        events_total=sum(events),
        checks={
            k: (v if v is not None else CheckResult(passed=True, margin=math.inf, detail="vacuous"))
            for k, v in found.items()
        },
    )


def _check_m1(traj):
    m1_0 = float(traj.states[0].positions.sum())
    tol = 1e-9 * (1.0 + abs(m1_0))
    worst = max(abs(float(st.positions.sum()) - m1_0) for st in traj.states)
    yield worst <= tol, tol - worst, f"max drift {worst:.3e}"


def _check_net_charge(traj):
    q0 = net_charge(traj.states[0])
    dev = max(abs(net_charge(st) - q0) for st in traj.states)
    yield dev == 0, float(-dev), f"max integer deviation {dev}"


def _m2(state: ParticleState) -> float:
    return 0.5 * float(np.sum(state.positions**2))


def _check_m2(traj):
    """Between events M2 moves at the constant rate gamma/2 ((sum b)^2 - sum b^2)."""
    rel_tol = 1e-6
    t_first = traj.times[0]
    for a, b in traj.segments():
        inside = [
            k
            for k in range(len(traj.times))
            if a + 1e-13 < traj.times[k] < b - 1e-13 or (a == t_first and traj.times[k] == a)
        ]
        if len(inside) < 2:
            continue
        k0, k1 = inside[0], inside[-1]
        dt = traj.times[k1] - traj.times[k0]
        # difference quotients over short spans amplify the integrator's
        # position error past the 1e-6 relative target; skip them
        if dt <= 0.05:
            continue
        st = traj.states[k0]
        bsum = float(st.charges.sum())
        bsq = float(np.sum(st.charges.astype(float) ** 2))
        pred = 0.5 * st.coupling * (bsum * bsum - bsq)
        slope = (_m2(traj.states[k1]) - _m2(traj.states[k0])) / dt
        if pred == 0.0:
            # exactly conserved segment: allow the integrator's propagated
            # position error (~rel_tol * scale) spread over the segment
            floor = 100.0 * traj.config.rel_tol * (1.0 + abs(_m2(st))) / dt
            dev = abs(slope)
            yield dev <= floor, floor - dev, f"zero-rate segment dev {dev:.2e}"
        else:
            rel = abs(slope - pred) / abs(pred)
            yield rel <= rel_tol, rel_tol - rel, f"rel dev {rel:.2e}"


def _check_equal_gap(traj):
    st0 = traj.states[0]
    n = st0.n
    rate = 8.0 / (n * n - 1.0)
    for sign in (+1, -1):
        d0 = same_sign_gap(st0, sign)
        if not math.isfinite(d0):
            continue
        for t, st in zip(traj.times, traj.states):
            d = same_sign_gap(st, sign)
            if not math.isfinite(d):
                continue
            bound = d0 * d0 + rate * (t - traj.times[0]) - 1e-9
            yield d * d >= bound, d * d - bound, f"sign {sign} at t={t:.3f}"


def _check_opposite_gap(traj):
    st0 = traj.states[0]
    n = st0.n
    beta = 8.0 * (math.log(n) + 1.0) / n
    c0_all = min(same_sign_gap(st0, 1), same_sign_gap(st0, -1))
    for (i, j) in neighbor_pairs(st0):
        c0 = min(c0_all, st0.positions[j] - st0.positions[i])
        for t, st in zip(traj.times, traj.states):
            if st.charges[i] == 0 or st.charges[j] == 0:
                break
            radicand = c0 * c0 - beta * (t - traj.times[0])
            if radicand <= 0:
                break
            gap = st.positions[j] - st.positions[i]
            bound = math.sqrt(radicand) - 1e-9
            yield gap >= bound, gap - bound, f"pair ({i},{j}) t={t:.3f}"


def _check_slopes(traj):
    for ev in traj.events:
        slope = fit_collision_exponent(traj, ev)
        if slope is None:
            continue
        margin = 0.02 - abs(slope - 0.5)
        yield margin >= 0, margin, f"slope {slope:.4f} at tau={ev.tau:.4f}"


def _check_dm_lipschitz(traj):
    sample_grid = traj.config.sample_times
    idx = [k for k, t in enumerate(traj.times) if any(abs(t - s) < 1e-12 for s in sample_grid)]
    if len(idx) < 3:
        return
    xs = [traj.states[k].positions for k in idx]
    ts = [traj.times[k] for k in idx]
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


def _check_energy(traj):
    taus = [ev.tau for ev in traj.events]
    prev_t, prev_e = None, None
    for t, st in zip(traj.times, traj.states):
        if any(abs(t - tau) < 1e-13 for tau in taus):
            prev_t, prev_e = None, None
            continue
        e = energy(st)
        if prev_e is not None and not any(prev_t < tau < t for tau in taus):
            tol = 1e-9 * (1.0 + abs(prev_e))
            yield e <= prev_e + tol, prev_e + tol - e, f"t={t:.3f}"
        prev_t, prev_e = t, e


def _check_events(traj):
    b0 = traj.states[0].charges
    bound = min(int((b0 == 1).sum()), int((b0 == -1).sum()))
    yield len(traj.events) <= bound, float(bound - len(traj.events)), "event count bound"
    for ev in traj.events:
        alt = all(a * b == -1 for a, b in zip(ev.pre_charges[:-1], ev.pre_charges[1:]))
        net = abs(sum(ev.pre_charges))
        survivors = sum(1 for c in ev.post_charges if c != 0)
        jumps = sum(ev.post_charges) - sum(ev.pre_charges)
        good = alt and net <= 1 and survivors <= 1 and jumps == 0
        yield good, 1.0 if good else -1.0, f"event at tau={ev.tau:.4f}"


def _ode_residuals(traj: Trajectory, anchors: Iterable[float], trunc_limit: float = math.inf):
    """(t, i, |x_i'(t) - v_i(t)|) at the stored sample nearest each anchor.

    x_i' differences the stored samples on either side at their own,
    possibly non-uniform, spacings h0 and h1, to second order:
    x' ~ (h1 D- + h0 D+) / (h0 + h1), with D- and D+ the backward and
    forward quotients.  v is the force field at the middle sample.  An
    anchor at either end of the trajectory, or whose stencil holds an
    event, is skipped.

    The stencil also misreads the approach to a collision.  A cluster of k
    charges with net charge q meeting at (tau, y) follows the collision law
    x_i - y ~ xi_i sqrt(gamma s), s = tau - t, whose profile satisfies
    sum_i xi_i^2 = k - q^2 (the M2 rate law on the cluster).  The
    difference then carries the truncation error h^2 / 6 * max |x_i'''|
    <= sqrt((k - q^2) gamma) h^2 / (16 s^(5/2)), h = max(h0, h1) and s
    taken at the stencil's right end, which has nothing to do with the
    integrator; a cluster's particles are skipped while that bound exceeds
    trunc_limit.
    """
    times = np.asarray(traj.times)
    for t in anchors:
        k = int(np.argmin(np.abs(times - t)))
        if k == 0 or k >= times.size - 1:
            continue
        # samples stored twice (events, snapped targets) give no spacing
        span = 1e-10 * max(1.0, abs(times[k]))
        lo, hi = k - 1, k + 1
        while lo > 0 and times[k] - times[lo] < span:
            lo -= 1
        while hi < times.size - 1 and times[hi] - times[k] < span:
            hi += 1
        h0, h1 = times[k] - times[lo], times[hi] - times[k]
        if min(h0, h1) < span or any(times[lo] <= ev.tau <= times[hi] for ev in traj.events):
            continue
        s0, s1, s2 = traj.states[lo], traj.states[k], traj.states[hi]
        h = max(h0, h1)
        colliding = set()
        for ev in traj.events:
            s = ev.tau - times[hi]
            if s <= 0:
                continue
            m, q = len(ev.cluster), sum(ev.pre_charges)
            if math.sqrt((m - q * q) * s1.coupling) * h**2 / (16.0 * s**2.5) > trunc_limit:
                colliding.update(ev.cluster)
        back = (s1.positions - s0.positions) / h0
        fwd = (s2.positions - s1.positions) / h1
        res = np.abs((h1 * back + h0 * fwd) / (h0 + h1) - velocities(s1))
        for i in range(res.size):
            if i not in colliding:
                yield float(times[k]), i, float(res[i])


def _check_ode_residual(traj):
    """Difference velocities of the run, evolved again around three anchors, vs the force field.

    Threshold 10 * (abs_tol + rel_tol * scale) / delta reflects how
    position error propagates into a difference quotient at spacing delta;
    the approach to a collision is skipped while its truncation bound
    exceeds a tenth of the threshold.
    """
    state, t_end = traj.states[0], traj.config.t_end
    delta = 1e-4 * t_end
    anchors = [0.3 * t_end, 0.6 * t_end, 0.9 * t_end]
    times = sorted({t + k * delta for t in anchors for k in (-1, 0, 1)})
    cfg = IntegratorConfig(t_end=t_end, sample_times=tuple(times), store_steps=False)
    scale = max(1.0, float(np.max(np.abs(state.positions))))
    thr = 10.0 * (cfg.abs_tol + cfg.rel_tol * scale) / delta + 1e-8
    for t, i, res in _ode_residuals(evolve(state, cfg), anchors, 0.1 * thr):
        yield res <= thr, thr - res, f"t={t:.3f} i={i}"


def _check_operator_identity(rng):
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 9))
        st = _random_state(rng, n)
        u = levelset.from_particles(st)
        closed = levelset.nonlocal_operator_closed_form(u)
        for jump in range(u.n_jumps):
            quad = levelset.nonlocal_operator_quadrature(u, float(u.locations[jump]))
            worst = max(worst, n * abs(quad - closed[jump]))
    yield worst <= 1e-10, 1e-10 - worst, f"max abs dev {worst:.2e}"


def _check_envelopes(rng):
    worst = -math.inf
    ok = True
    for _ in range(20):
        st = _random_state(rng, int(rng.integers(2, 9)))
        u = levelset.from_particles(st)
        xs = np.concatenate([u.locations, rng.uniform(-2, 2, 40)])
        lo, mid, hi = u.lower(xs), u(xs), u.upper(xs)
        ok &= bool(np.all(lo <= mid + 1e-15) and np.all(mid <= hi + 1e-15))
        gaps = u.upper(u.locations) - u.lower(u.locations)
        ok &= bool(
            np.all((np.abs(gaps) < 1e-15) | (np.abs(gaps - u.eps) < 1e-15))
        )
        worst = max(worst, float(np.max(gaps)))
    yield ok, 1.0 if ok else -1.0, f"max envelope gap {worst:.3e}"


def _check_hj_comparison(rng):
    cfg = hjsolver.SchemeConfig(L=2.0, h=1 / 32, rho=4 / 32, cfl=0.8, t_end=0.05)
    xs = np.linspace(-2.0, 2.0, 129)
    worst = math.inf
    for _ in range(3):
        c1, c2 = rng.uniform(-0.5, 0.5, 2)
        u = hjsolver.GridFunction(xs=xs, values=np.tanh(xs - c1) * 0.3, tails=(-0.3, 0.3))
        bumpvals = 0.2 * np.exp(-((xs - c2) ** 2))
        w = hjsolver.GridFunction(xs=xs, values=u.values + bumpvals, tails=u.tails)
        for _ in range(15):
            dt = min(
                hjsolver.step_hj(u, cfg).time - u.time,
                hjsolver.step_hj(w, cfg).time - w.time,
            )
            u = hjsolver.step_hj(u, cfg, dt=dt)
            w = hjsolver.step_hj(w, cfg, dt=dt)
            worst = min(worst, float(np.min(w.values - u.values)))
    yield worst >= -1e-12, worst + 1e-12, f"min ordering gap {worst:.2e}"


def _check_measures(rng):
    ok = True
    for _ in range(10):
        st = _random_state(rng, int(rng.integers(2, 12)))
        mu = measures.from_state(st)
        u_m = measures.cdf(mu)
        u_p = levelset.from_particles(st, eps=1.0 / st.n)
        xs = np.concatenate([u_p.locations, rng.uniform(-2, 2, 50)])
        ok &= bool(np.array_equal(u_m(xs), u_p(xs)))
        ok &= abs(mu.total_mass() - net_charge(st) / st.n) < 1e-15
    yield ok, 1.0 if ok else -1.0, "cdf vs step function, net mass"


def _check_odd_lattice(_rng):
    # deterministic: draws nothing from the rng the one-shot checks share
    n = 9
    st = odd_lattice(n)
    dt = 1e-3
    cfg = IntegratorConfig(t_end=dt, sample_times=(dt,), abs_tol=1e-14, rel_tol=1e-12)
    traj = evolve(st, cfg)
    d0 = same_sign_gap(st, 1)
    d1 = same_sign_gap(traj.state_at(dt, tol=1e-9), 1)
    rate = (d1 * d1 - d0 * d0) / dt
    target = 8.0 / (n * n - 1.0)
    rel = abs(rate - target) / target
    yield rel <= 1e-3, 1e-3 - rel, f"initial gap-square rate {rate:.6f} vs {target:.6f}"


def _triple_collision_fixture() -> ParticleState:
    pos = np.array([-2.2, -1.8, -0.2, 0.2, 1.8, 2.2])
    chg = np.array([1, -1, 1, -1, 1, -1])
    return ParticleState(positions=pos, charges=chg)


def _check_stability(rng):
    sups = stability_sweep(_triple_collision_fixture(), (1e-2, 1e-3, 1e-4), 1.0, rng)
    ok = all(b < a for a, b in zip(sups[:-1], sups[1:]))
    margin = min((a - b) for a, b in zip(sups[:-1], sups[1:])) if len(sups) > 1 else math.inf
    yield ok, margin, f"sup d_M ladder {['%.3e' % s for s in sups]}"


# Each check yields (passed, margin, detail) cases and the suite keeps the
# worst per name.  Per-run checks take each run's trajectory; one-shot
# checks share one rng, drawn from in this order.
_PER_RUN = {
    "m1_conservation": _check_m1,
    "net_charge": _check_net_charge,
    "m2_drift": _check_m2,
    "equal_sign_gap_bound": _check_equal_gap,
    "opposite_gap_bound": _check_opposite_gap,
    "collision_slope": _check_slopes,
    "dm_lipschitz": _check_dm_lipschitz,
    "ode_residual": _check_ode_residual,
    "energy_decay": _check_energy,
    "event_structure": _check_events,
}
_ONE_SHOT = {
    "operator_identity": _check_operator_identity,
    "envelope_sandwich": _check_envelopes,
    "hj_comparison": _check_hj_comparison,
    "measures_cdf_consistency": _check_measures,
    "odd_lattice_rate": _check_odd_lattice,
    "stability_monotone": _check_stability,
}
_RESIDUAL_RUNS = 5  # the first runs, which _check_ode_residual evolves a second time
