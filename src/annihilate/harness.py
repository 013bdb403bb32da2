"""Discrete-to-continuum experiments and the randomized invariant battery.

Particles are sampled from continuous initial data, which act elementwise
on arrays, as level crossings at heights eps (Z + a), all bisected at
once.  They are evolved with coupling gamma = eps = 1/n, turned back into
step functions, and compared in sup norm against the limit equation's
exact solution where the datum has one, its grid solution otherwise.
The property suite drives randomized ensembles through
every quantitative invariant the theory provides.  Its per-run checks are
array expressions over a trajectory's times, positions and charges: M1
and the net charge are row sums, and the checks that need a fixed charged
set (gap bounds, energy) work on the row ranges where the charges stay
equal, one `particles` call per range.
"""
from __future__ import annotations

import json
import math
import sys
import time as _time
from dataclasses import dataclass, field, asdict, replace
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import hjsolver, levelset, measures, moments, particles
from .integrator import EvolveError, IntegratorConfig, Trajectory, evolve
from .particles import EventRecord, ParticleState, energy, net_charge, same_sign_gap

__all__ = [
    "InitialDatum",
    "CATALOG",
    "catalog_datum",
    "check_sizes",
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


# points of the grid on which sample_particles looks for level crossings
SCAN_POINTS = 2**15
MAX_SCAN_POINTS = 2**20  # an 8 MiB scan grid; a build counts the crossings on it
MAX_SUITE_SIZE = 256  # largest state the property suite draws; its d_M passes float64 at |x| ~ 4
# largest particle count a size or a ladder rung may give, a bound on time:
# one force call costs about n^2 and a rung takes about 0.75 n calls, so
# n = 16,384 is already hours (the kernel's scratch stays within 1 MiB at any m)
MAX_PARTICLES = 2**14

LADDER_TOLERANCES = (1e-10, 1e-7)
"""(abs_tol, rel_tol) at which `converge` evolves every rung.

A rung is integrated only as accurately as e_n can see: e_n is about
0.02 or more on the benchmark rungs, and these tolerances keep the ODE
error at least 1e4 below it, with equal events and e_n moved far inside
the 1e-4 to which the benchmark pins the ladder's rows, for fewer force
evaluations than the `IntegratorConfig` defaults.  `simulate`, `verify`
and `evolve` keep those defaults.
"""

LADDER_PAIR_ISOLATION = 1e-2
"""The pair isolation at which `converge` commits an approaching +- pair.

Its dipole error delta^3 D / 6 (`integrator` module docstring) is 1.7e-7
D, matched to LADDER_TOLERANCES' rel_tol as `integrator.PAIR_ISOLATION`
is to the default.  `simulate`, `verify` and `evolve` keep the latter.
"""


class DegenerateCrossing(ValueError):
    """The datum is flat at a sampling level over an interval."""


@dataclass(frozen=True)
class InitialDatum:
    """Catalog entry: bounded uniformly continuous initial data.

    u0 acts elementwise: it takes an array of points and returns the
    values there, an array of the same shape.  exact(t, x), where known,
    is the solution of the limit equation at time t, elementwise in x,
    and exact(0, x) is u0(x).
    """

    u0: Callable[[np.ndarray], np.ndarray]
    exact: Callable[[float, np.ndarray], np.ndarray] | None = None


def _smoothstep(x: np.ndarray) -> np.ndarray:
    t = np.clip((x + 1.0) / 2.0, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _mollifier(x: np.ndarray) -> np.ndarray:
    # C-infinity bump supported on (-1, 1), value 1 at 0
    inside = np.abs(x) < 1.0
    r = np.where(inside, x, 0.0)
    return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - r * r)), 0.0)


def _double_bump(x: np.ndarray) -> np.ndarray:
    return 0.62 * (_mollifier((x + 1.05) / 0.85) + _mollifier((x - 1.05) / 0.85))


def _semicircle(t: float, x: np.ndarray) -> np.ndarray:
    """Exact solution u(t, x) = Phi(x / R(t)) of u_t = I[u] |u_x|, R(t)^2 = 1 + 4t.

    Phi(s) = 1/2 + (s sqrt(1 - s^2) + arcsin s) / pi, clipped to |s| <= 1,
    is the CDF of the semicircle density of radius 1, whose Hilbert
    transform is linear inside its support; the profile keeps its shape
    and spreads self-similarly (Biler, Karch and Monneau, Comm. Math.
    Phys. 294, 2010).
    """
    s = np.clip(np.asarray(x, dtype=float) / math.sqrt(1.0 + 4.0 * t), -1.0, 1.0)
    return 0.5 + (s * np.sqrt(1.0 - s * s) + np.arcsin(s)) / math.pi


CATALOG: dict[str, InitialDatum] = {
    # monotone ramp 0 -> 1; all charges +1, no annihilation ever
    "sigmoid": InitialDatum(u0=_smoothstep),
    # two separated bumps; inner opposite pairs annihilate
    "double_bump": InitialDatum(u0=_double_bump),
    # no level crossings, no particles; the error is zero
    "constant": InitialDatum(u0=lambda x: np.full(np.shape(x), 0.25)),
    # monotone ramp 0 -> 1 that spreads self-similarly; the exact solution is known
    "semicircle": InitialDatum(u0=lambda x: _semicircle(0.0, x), exact=_semicircle),
}


def catalog_datum(name: str) -> InitialDatum:
    """The catalog entry called name; ValueError naming the choices for any other name."""
    if name not in CATALOG:
        raise ValueError(f"unknown datum {name!r}; choose from {sorted(CATALOG)}")
    return CATALOG[name]


def check_sizes(ns: Sequence[int]) -> None:
    """ValueError unless ns is a non-empty list of sizes in 1..MAX_PARTICLES."""
    if not ns or not all(1 <= n <= MAX_PARTICLES for n in ns):
        raise ValueError(f"ns must be a non-empty list of sizes in 1..{MAX_PARTICLES}, got {list(ns)}")


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


def _crossings(xs: np.ndarray, vals: np.ndarray, n: int, a: float) -> tuple[np.ndarray, ...]:
    """(lo, hi, vals at lo - level, level) of every crossing of the scan at heights (1/n)(Z + a).

    The scan is the values vals of u0 on the grid xs.  Interval i runs
    from xs[i] to xs[i + 1], where u0 goes from vals[i] to vals[i + 1].
    Its candidate levels are the levels k_lo..k_hi between min(vals) and
    max(vals) that lie within 2e-12 (1 + max |vals|) of its values: every
    level within the flatness tolerance 1e-12, with room for the rounding
    of k = v n - a.  A candidate is a crossing iff (vals[i] - level)
    (vals[i + 1] - level) < 0, so a value equal to a level is not one.
    The cost is O(len(vals) + crossings).  Raises DegenerateCrossing,
    naming the lowest such level, if two neighbouring values both lie
    within 1e-12 of a level.
    """
    eps = 1.0 / n
    k_lo = math.ceil(float(vals.min()) / eps - a)
    k_hi = math.floor(float(vals.max()) / eps - a)
    pad = 2e-12 * (1.0 + float(np.abs(vals).max()))
    v0, v1 = vals[:-1], vals[1:]
    first = np.maximum(np.ceil((np.minimum(v0, v1) - pad) / eps - a), k_lo)
    last = np.minimum(np.floor((np.maximum(v0, v1) + pad) / eps - a), k_hi)
    counts = np.maximum(last - first + 1.0, 0.0).astype(np.intp)
    some = np.flatnonzero(counts)
    counts = counts[some]
    idx = np.repeat(some, counts)
    k = np.repeat(first[some] - (np.cumsum(counts) - counts), counts) + np.arange(idx.size)
    level = eps * (k + a)
    f0, f1 = vals[idx] - level, vals[idx + 1] - level
    flat = (np.abs(f0) < 1e-12) & (np.abs(f1) < 1e-12)
    if flat.any():
        raise DegenerateCrossing(f"u0 is flat at level {float(level[flat].min())}")
    cross = f0 * f1 < 0.0
    idx = idx[cross]
    return xs[idx], xs[idx + 1], f0[cross], level[cross]


def sample_particles(
    u0: Callable[[np.ndarray], np.ndarray],
    n: int,
    a: float,
    window: tuple[float, float] = (-4.0, 4.0),
    scan_points: int = SCAN_POINTS,
    *,
    brackets: tuple[np.ndarray, ...] | None = None,
) -> ParticleState | None:
    """Particles as level crossings of u0 at heights (1/n)(Z + a).

    u0 is called on whole arrays: once on the scan grid, then once per
    halving on the midpoints of every bracket of every level.  A bracket
    stops when its midpoint equals an end, after at most 200 halvings.
    The charge is the sign of the slope at the crossing.  Coupling is set
    to eps = 1/n, the rescaled system of the level-set correspondence.
    Returns None when no level is crossed (constant data).  Raises
    DegenerateCrossing if u0 sits exactly on a level over an interval.
    brackets, if given, is the scan's result for these arguments, as
    ExperimentSpec's build keeps it per rung, and u0 is not called on the
    scan grid.
    """
    if not (0.0 <= a < 1.0):
        raise ValueError("offset a must lie in [0, 1)")
    if brackets is None:
        xs = np.linspace(window[0], window[1], scan_points)
        brackets = _crossings(xs, u0(xs), n, a)
    lo, hi, flo, level = brackets
    if not lo.size:
        return None
    chg = np.where(flo < 0, 1, -1)  # rising crossing carries +1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        live = (mid != lo) & (mid != hi)
        if not live.any():
            break
        fm = u0(mid) - level
        up = live & ((fm > 0) == (flo > 0))
        lo, flo = np.where(up, mid, lo), np.where(up, fm, flo)
        hi = np.where(live & ~up, mid, hi)
    pos = 0.5 * (lo + hi)
    order = np.argsort(pos)
    pos, chg = pos[order], chg[order]
    if np.any(np.diff(pos) <= 0):
        raise DegenerateCrossing("coincident crossings; raise scan_points or move a")
    return ParticleState(positions=pos, charges=chg, coupling=1.0 / n)


# ---------------------------------------------------------------------------
# convergence experiment


@dataclass(frozen=True)
class ExperimentSpec:
    """One discrete-to-continuum experiment.

    The reference grid spans the `SchemeConfig` default [-L, L] with its
    default near-field radius rho, and the particles run at
    LADDER_TOLERANCES.  A rung may sample at most MAX_PARTICLES particles:
    the build brackets each rung's crossings on the scan grid, one u0 call
    for all of them, refuses a larger count, and keeps the brackets for the
    rung's sampling.  seed changes no result: the ladder draws no random
    numbers.
    """

    datum: str = "sigmoid"
    ns: tuple[int, ...] = (8, 16, 32, 64, 128)
    offset: float = 0.5
    t_end: float = 0.25
    ref_h: float = 1.0 / 256.0
    scan_points: int = SCAN_POINTS
    seed: int = 0
    _brackets: dict[int, tuple[np.ndarray, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        catalog_datum(self.datum)
        check_sizes(self.ns)
        if not 2 <= self.scan_points <= MAX_SCAN_POINTS:
            raise ValueError(f"scan_points must lie in 2..{MAX_SCAN_POINTS}, got {self.scan_points}")
        if not 0.0 <= self.offset < 1.0:
            raise ValueError(f"offset must lie in [0, 1), got {self.offset!r}")
        # both configs check their own fields; the grid's refusal names the keys that set it
        try:
            L = self.scheme_config().L
        except ValueError as exc:
            raise ValueError(f"grid of ref_h={self.ref_h!r}, t_end={self.t_end!r}: {exc}") from exc
        if not self.t_end / 30.0 > 0.0:
            raise ValueError(f"t_end={self.t_end!r} puts the first snapshot time t_end / 30 at 0")
        self.integrator_config()
        xs = np.linspace(-L, L, self.scan_points)
        vals = CATALOG[self.datum].u0(xs)
        object.__setattr__(self, "_brackets", {})
        for n in self.ns:
            try:
                self._brackets[n] = _crossings(xs, vals, n, self.offset)
            except DegenerateCrossing:
                continue  # sampling refuses it again, and the rung fails as a row
            count = self._brackets[n][0].size
            if count > MAX_PARTICLES:
                raise ValueError(f"ns: n={n} samples {count} particles from {self.datum}, "
                                 f"more than {MAX_PARTICLES}")

    def scheme_config(self) -> hjsolver.SchemeConfig:
        return hjsolver.SchemeConfig(h=self.ref_h, t_end=self.t_end)

    def integrator_config(self) -> IntegratorConfig:
        abs_tol, rel_tol = LADDER_TOLERANCES
        return IntegratorConfig(t_end=self.t_end, abs_tol=abs_tol, rel_tol=rel_tol,
                                sample_times=tuple(self.snapshot_times()), store_steps=False,
                                pair_isolation=LADDER_PAIR_ISOLATION)

    def snapshot_times(self) -> np.ndarray:
        """0 and six times spaced geometrically from t_end / 30 to t_end, sorted and distinct."""
        return np.concatenate([[0.0], np.geomspace(self.t_end / 30.0, self.t_end, 6)])


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
    ref_frames: list[hjsolver.GridFunction] = field(default_factory=list)  # one per snapshot


def _comparison_points(spec: ExperimentSpec, ref: hjsolver.GridFunction,
                       u_n: levelset.StepFunction) -> np.ndarray:
    # two reference cells at either end of the grid are left out
    lo = ref.xs[0] + 2 * spec.ref_h
    hi = ref.xs[-1] - 2 * spec.ref_h
    pts = [ref.xs, ref.xs[:-1] + 0.5 * spec.ref_h]
    if u_n.n_jumps:
        off = 1e-9 * max(1.0, float(np.max(np.abs(u_n.locations))))
        pts.append(u_n.locations - off)
        pts.append(u_n.locations + off)
    allpts = np.concatenate(pts)
    return allpts[(allpts >= lo) & (allpts <= hi)]


def _ladder_row(spec: ExperimentSpec, n: int, u0: Callable[[np.ndarray], np.ndarray],
                frames: list[hjsolver.GridFunction], values: list[Callable]) -> ConvergenceRow:
    """Sample u0 at level spacing 1/n on [-L, L], evolve, and measure e_n.

    At snapshot k of spec.snapshot_times() the reference is frames[k] on
    the grid and values[k] at any points.  The step functions start at
    the sampling level just below frames[0]'s left tail, the datum's
    value left of all crossings.  The row fails with the message of a
    typed refusal of sampling or evolve, the only ones a built spec meets
    (DegenerateCrossing, InvalidState, EvolveError); anything else raises.
    """
    t0 = _time.perf_counter()
    try:
        eps = 1.0 / n
        L = spec.scheme_config().L
        state = sample_particles(u0, n, spec.offset, window=(-L, L),
                                 scan_points=spec.scan_points, brackets=spec._brackets.get(n))
        times, u_left = spec.snapshot_times(), frames[0].tails[0]
        if state is None:
            # no crossings: the constant datum is represented exactly
            flat = levelset.StepFunction(np.empty(0), np.empty(0, dtype=int), eps, base=u_left)
            steps, events = [flat] * times.size, 0
        else:
            traj = evolve(state, spec.integrator_config())
            base = quantized_level_below(u_left, eps, spec.offset)
            steps = [levelset.from_particles(traj.state_at(t), base=base) for t in times]
            events = len(traj.events)
        e_n = 0.0
        for k, u_n in enumerate(steps):
            pts = _comparison_points(spec, frames[k], u_n)
            e_n = max(e_n, float(np.max(np.abs(u_n(pts) - values[k](pts)))))
        return ConvergenceRow(n=n, e_n=e_n, events=events,
                              runtime_s=_time.perf_counter() - t0)
    except (EvolveError, DegenerateCrossing, particles.InvalidState) as exc:
        return ConvergenceRow(n=n, e_n=float("nan"), events=0,
                              runtime_s=_time.perf_counter() - t0, error=str(exc))


def run_convergence(spec: ExperimentSpec) -> ConvergenceResult:
    """Run the n-ladder against the reference solution.

    Rows come out sorted by n; a failing row carries its error message and
    the others continue.  e_n is the max over snapshot times of the sup
    distance between the particle step function and the reference (the
    linearly interpolated grid solution, or the exact solution where the
    datum has one) over the grid nodes, the cell midpoints and both sides
    of every jump, leaving out two reference cells at either end.
    """
    datum, times, scheme = CATALOG[spec.datum], spec.snapshot_times(), spec.scheme_config()
    if datum.exact is None:
        # one frame per snapshot time
        frames = hjsolver.solve_hj(datum.u0, scheme, times)
        values = [fr.interp for fr in frames]
    else:
        values = [partial(datum.exact, t) for t in times]
        frames = [replace(hjsolver.GridFunction.from_callable(v, scheme), time=float(t))
                  for v, t in zip(values, times)]
    rows = [_ladder_row(spec, n, datum.u0, frames, values) for n in sorted(spec.ns)]
    good = [r.e_n for r in rows if r.error is None]
    monotone = all(b <= 1.1 * a for a, b in zip(good[:-1], good[1:]))
    return ConvergenceResult(
        spec=spec,
        rows=rows,
        monotone=monotone,
        ref_frames=frames,
    )


# ---------------------------------------------------------------------------
# randomized invariant battery


@dataclass
class CheckResult:
    """A check's worst case.  A per-run check also names the run it came from.

    run is the run's index in the suite's draws (runs for the all-neutral
    edge case), and positions and charges are that run's initial state, the
    input of a `simulate` config that replays it; a one-shot check leaves
    all three None.
    """

    passed: bool
    margin: float
    detail: str = ""
    run: int | None = None
    positions: np.ndarray | None = None
    charges: np.ndarray | None = None

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
            for key in ("positions", "charges"):
                if d[key] is not None:
                    d[key] = d[key].tolist()
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

    Uses the stored pre-collision snapshots of the event's last
    inter-event segment (the run of equal charges holding the last row
    before tau: earlier rows follow another ODE) whose time-to-collision
    lies in the last two available decades; returns None when fewer than
    five points exist (no fit).
    """
    k = int(np.searchsorted(traj.times, event.tau))  # the first row at or after tau
    start = next((lo for lo, hi in _charge_runs(traj) if lo < k <= hi), k)
    xs = traj.positions[start:k, list(event.cluster)]
    ds = xs.max(axis=1) - xs.min(axis=1)
    dts = event.tau - traj.times[start:k]
    keep = (ds > 0) & (dts > 0)
    ds, dts = ds[keep], dts[keep]
    if len(ds) < 5:
        return None
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
) -> list[float]:
    """sup_t d_M over 21 equispaced times in [0, t_end] between the base run and perturbed runs."""
    times = tuple(np.linspace(0.0, t_end, 21))
    cfg = IntegratorConfig(t_end=t_end, sample_times=times, store_steps=False)

    def rows(traj: Trajectory) -> np.ndarray:
        return np.array([traj.state_at(t).positions for t in times])

    ref = rows(evolve(base_state, cfg))
    direction = rng.standard_normal(base_state.n)
    direction /= float(np.max(np.abs(direction)))
    sups = []
    for delta in deltas:
        pert = ParticleState(
            positions=base_state.positions + delta * direction,
            charges=base_state.charges,
            coupling=base_state.coupling,
        )
        sups.append(float(moments.d_M(ref, rows(evolve(pert, cfg))).max()))
    return sups


def _worst(cases: Iterable[tuple[bool, float, str]], current: CheckResult,
           run: int | None = None, state: ParticleState | None = None) -> CheckResult:
    """Fold (passed, margin, detail) cases into current: least margin, failures first.

    A case that wins names run and state's initial positions and charges.
    """
    for passed, margin, detail in cases:
        if margin < current.margin or (not passed and current.passed):
            current = CheckResult(passed=passed, margin=margin, detail=detail, run=run,
                                  positions=None if state is None else state.positions,
                                  charges=None if state is None else state.charges)
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
    cannot carry both signs, or above MAX_SUITE_SIZE, when runs is
    negative, or when t_end is below the smallest normal float, where the
    ode_residual window 1e-4 t_end rounds to zero.  A t_end so far that
    the moments pass float64 ends in moments.NonFiniteMoments.
    """
    if not sizes or not 2 <= min(sizes) <= max(sizes) <= MAX_SUITE_SIZE or runs < 0:
        raise ValueError(f"need sizes in 2..{MAX_SUITE_SIZE}, runs >= 0, got {list(sizes)}, {runs}")
    if not t_end >= sys.float_info.min:
        raise ValueError(f"t_end must be at least {sys.float_info.min!r}, got {t_end!r}")
    rng = np.random.default_rng(seed)
    found = {name: CheckResult(passed=True, margin=math.inf, detail="vacuous")
             for name in [*_PER_RUN, *_ONE_SHOT]}
    events: list[int] = []

    def fold(checks, arg, run=None, state=None) -> None:
        for name, check in checks:
            found[name] = _worst(check(arg), found[name], run, state)

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
        fold(_PER_RUN.items(), traj, run_idx, state)
    fold(_ONE_SHOT.items(), np.random.default_rng(seed + 1))

    return PropertyReport(
        seed=seed,
        runs=runs,
        runs_with_events=sum(1 for k in events if k),
        events_total=sum(events),
        checks=found,
    )


def _charge_runs(traj: Trajectory) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) of equal charges, in order: the inter-event segments.

    evolve stores a row at every event time, holding the charges after it.
    """
    b = traj.charges
    cuts = np.flatnonzero((b[1:] != b[:-1]).any(axis=1)) + 1
    edges = [0, *cuts.tolist(), len(b)]
    return list(zip(edges[:-1], edges[1:]))


def _check_m1(traj):
    """M1 = sum x_i stays at M1(0) to 1e-9 (1 + |M1(0)|), or to its float64 floor if larger.

    The ODE conserves M1, so only roundings move it: each step rounds every
    coordinate by at most half an ulp, which adds up over the stored steps
    to 0.5 sum_rows sum_i ulp(x_i), and each row's shift and sum round by
    about n ulp(max |x|).  The floor, the larger of the two, is at most
    3.7e-13 on the shipped suites and about 2e-5 where |x| reaches 5e9.
    """
    x = traj.positions
    m1 = x.sum(axis=1)
    floor = float(max(x.shape[1] * np.spacing(np.abs(x).max()), 0.5 * np.spacing(np.abs(x)).sum()))
    tol = max(1e-9 * (1.0 + abs(float(m1[0]))), floor)
    worst = float(np.abs(m1 - m1[0]).max())
    yield worst <= tol, tol - worst, f"max drift {worst:.3e}"


def _check_net_charge(traj):
    q = traj.charges.sum(axis=1)
    dev = int(np.abs(q - q[0]).max())
    yield dev == 0, float(-dev), f"max integer deviation {dev}"


def _m2(x: np.ndarray) -> np.ndarray:
    """M2 = |x|^2 / 2 of each row of positions."""
    return 0.5 * np.sum(x**2, axis=-1)


def _check_m2(traj):
    """On each run of equal charges M2 moves at the rate gamma/2 ((sum b)^2 - sum b^2).

    The slope from the run's first row to its last is held to 1e-6
    relative, and each row between them, more than 0.05 after the first, to
    the line through the first row at that rate within the propagated
    position error 100 rel_tol (1 + |M2|) that a zero-rate run's slope is
    held to, |M2| the larger of the two rows'.  The rows a step places
    inside itself, at sample times and neutral collisions, are among them.
    """
    rel_tol = 1e-6
    for k0, end in _charge_runs(traj):
        k1 = end - 1
        dt = traj.times[k1] - traj.times[k0]
        # difference quotients over short spans amplify the integrator's
        # position error past the 1e-6 relative target; skip them
        if dt <= 0.05:
            continue
        m2 = _m2(traj.positions[k0:end])
        m0 = m2[0]
        pred = particles.m2_rate(traj.charges[k0], traj.coupling)
        slope = (m2[-1] - m0) / dt
        if pred == 0.0:
            # exactly conserved segment: allow the integrator's propagated
            # position error (~rel_tol * scale) spread over the segment
            floor = 100.0 * traj.config.rel_tol * (1.0 + abs(m0)) / dt
            dev = abs(slope)
            yield dev <= floor, floor - dev, f"zero-rate segment dev {dev:.2e}"
        else:
            rel = abs(slope - pred) / abs(pred)
            yield rel <= rel_tol, rel_tol - rel, f"rel dev {rel:.2e}"
        # each row between, more than 0.05 after k0, within that error of the line
        times = traj.times[k0 + 1:k1]
        later = times - traj.times[k0] > 0.05
        if later.any():
            times, m2 = times[later], m2[1:-1][later]
            devs = np.abs(m2 - m0 - pred * (times - traj.times[k0]))
            floors = 100.0 * traj.config.rel_tol * (1.0 + np.maximum(abs(m0), np.abs(m2)))
            j = int(np.argmin(floors - devs))
            dev, floor = float(devs[j]), float(floors[j])
            yield dev <= floor, floor - dev, f"row at t={times[j]:.3f} dev {dev:.2e}"


def _check_equal_gap(traj):
    times, x, b = traj.times, traj.positions, traj.charges
    rate = 8.0 / (b.shape[1] ** 2 - 1.0)
    for sign in (+1, -1):
        d0 = float(same_sign_gap(x[0], b[0], sign))
        if not math.isfinite(d0):
            continue
        for lo, hi in _charge_runs(traj):
            d = same_sign_gap(x[lo:hi], b[lo], sign)
            if not np.isfinite(d).any():
                continue
            bound = d0 * d0 + rate * (times[lo:hi] - times[0]) - 1e-9
            for t, dd, bd in zip(times[lo:hi].tolist(), (d * d).tolist(), bound.tolist()):
                yield dd >= bd, dd - bd, f"sign {sign} at t={t:.3f}"


def _check_opposite_gap(traj):
    times, x, b = traj.times, traj.positions, traj.charges
    n = b.shape[1]
    beta = 8.0 * (math.log(n) + 1.0) / n
    c0_all = min(float(same_sign_gap(x[0], b[0], 1)), float(same_sign_gap(x[0], b[0], -1)))
    idx = np.flatnonzero(b[0])
    for i, j in zip(idx[:-1].tolist(), idx[1:].tolist()):
        c0 = min(c0_all, x[0, j] - x[0, i])
        # elapsed time clipped at 2 c0^2 / beta, past where the bound runs out: no overflow
        radicand = c0 * c0 - beta * np.minimum(times - times[0], 2.0 * c0 * c0 / beta)
        # the pair is followed until one of them is neutral or the bound runs out
        stop = (b[:, i] == 0) | (b[:, j] == 0) | (radicand <= 0)
        end = int(np.argmax(stop)) if stop.any() else len(times)
        gap = x[:end, j] - x[:end, i]
        bound = np.sqrt(radicand[:end]) - 1e-9
        for t, g, bd in zip(times[:end].tolist(), gap.tolist(), bound.tolist()):
            yield g >= bd, g - bd, f"pair ({i},{j}) t={t:.3f}"


def _check_slopes(traj):
    for ev in traj.events:
        slope = fit_collision_exponent(traj, ev)
        if slope is None:
            continue
        margin = 0.02 - abs(slope - 0.5)
        yield margin >= 0, margin, f"slope {slope:.4f} at tau={ev.tau:.4f}"


def _check_dm_lipschitz(traj):
    grid = np.asarray(traj.config.sample_times)
    idx = np.flatnonzero(np.isin(traj.times, grid))  # the samples land exactly on their times
    if len(idx) < 3:
        return
    xs, ts = traj.positions[idx], traj.times[idx]
    # d_M / dt over every pair of samples a < b; times never decrease, so
    # dt > 1e-12 also drops a >= b
    dt = ts[None, :] - ts[:, None]
    rate = np.divide(moments.d_M(xs[:, None], xs[None]), dt, out=np.zeros(dt.shape),
                     where=dt > 1e-12)
    c_adj = float(np.diagonal(rate, 1).max(initial=0.0))
    allowed = 1.01 * c_adj + 1e-9
    worst = float(rate[::3].max(initial=0.0))
    yield worst <= allowed, allowed - worst, f"fit C={c_adj:.3e}, worst {worst:.3e}"


def _check_energy(traj):
    """Within a run of equal charges no row's energy exceeds the row before's, to 1e-9 relative."""
    for lo, hi in _charge_runs(traj):
        e = energy(traj.positions[lo:hi], traj.charges[lo])
        lim = e[:-1] + 1e-9 * (1.0 + np.abs(e[:-1]))
        for t, ek, lk in zip(traj.times[lo + 1:hi].tolist(), e[1:].tolist(), lim.tolist()):
            yield ek <= lk, lk - ek, f"t={t:.3f}"


def _check_events(traj):
    b0 = traj.charges[0]
    bound = min(int((b0 == 1).sum()), int((b0 == -1).sum()))
    yield len(traj.events) <= bound, float(bound - len(traj.events)), "event count bound"
    for ev in traj.events:
        alt = all(a * b == -1 for a, b in zip(ev.pre_charges[:-1], ev.pre_charges[1:]))
        net = abs(sum(ev.pre_charges))
        survivors = sum(1 for c in ev.post_charges if c != 0)
        jumps = sum(ev.post_charges) - sum(ev.pre_charges)
        good = alt and net <= 1 and survivors <= 1 and jumps == 0
        yield good, 1.0 if good else -1.0, f"event at tau={ev.tau:.4f}"


def _check_ode_residual(traj):
    """Difference velocities in short windows of the run vs the force field.

    For each anchor 0.3, 0.6 and 0.9 t_end, a window of length 2 delta
    (delta = 1e-4 t_end) is evolved from the run's last stored row at or
    before the anchor, with the run's tolerances, unless it would hold one
    of the run's collisions.  Its three rows, spaced h0 and h1, give
    x' ~ (h1 D- + h0 D+) / (h0 + h1), D- and D+ the backward and forward
    quotients, at the middle row; a window that finds a collision of its
    own is skipped.  The threshold 10 (abs_tol + rel_tol scale) / delta is
    the position tolerance propagated into a quotient at spacing delta.

    Near a collision the difference also carries truncation error.  A
    cluster of k charges with net charge q meeting at (tau, y) follows
    x_i - y ~ xi_i sqrt(gamma s), s = tau - t, with sum_i xi_i^2 = k - q^2
    (its M2 rate is -(k - q^2) gamma / 2), so the error is at most
    sqrt((k - q^2) gamma) h^2 / (16 s^(5/2)), h = max(h0, h1) and s taken
    at the window's end.  The members of the run's later collisions are
    skipped while that bound exceeds a tenth of the threshold.
    """
    cfg, t_end = traj.config, traj.config.t_end
    delta = 1e-4 * t_end
    scale = max(1.0, float(np.max(np.abs(traj.positions[0]))))
    thr = 10.0 * (cfg.abs_tol + cfg.rel_tol * scale) / delta + 1e-8
    for anchor in (0.3 * t_end, 0.6 * t_end, 0.9 * t_end):
        k = int(np.searchsorted(traj.times, anchor, side="right")) - 1
        t0 = float(traj.times[k])
        t1 = t0 + 2.0 * delta
        if any(t0 < ev.tau <= t1 for ev in traj.events):
            continue
        window = evolve(traj.state(k), replace(cfg, t_end=t1, sample_times=(t0 + delta,),
                                               store_steps=False))
        if window.events:
            continue
        (ta, tm, tb), (x0, x1, x2) = window.times, window.positions
        h0, h1 = tm - ta, tb - tm
        colliding = {i for ev in traj.events if ev.tau > tb for i in ev.cluster
                     if math.sqrt(-2.0 * particles.m2_rate(ev.pre_charges, traj.coupling))
                     * max(h0, h1)**2 / (16.0 * (ev.tau - tb)**2.5) > 0.1 * thr}
        diff = (h1 * ((x1 - x0) / h0) + h0 * ((x2 - x1) / h1)) / (h0 + h1)
        c = np.flatnonzero(window.charges[1])
        v = np.zeros(x1.size)  # neutral particles, and a lone charge, stay put
        if c.size >= 2:
            v[c] = particles.velocity_field(x1[c], window.charges[1][c], traj.coupling)
        for i, r in enumerate(np.abs(diff - v).tolist()):
            if i not in colliding:
                yield r <= thr, thr - r, f"t={tm:.3f} i={i}"


def _check_operator_identity(rng):
    for _ in range(60):
        n = int(rng.integers(2, 9))
        st = _random_state(rng, n)
        u = levelset.from_particles(st)
        closed = levelset.nonlocal_operator_closed_form(u)
        for jump in range(u.n_jumps):
            quad = levelset.nonlocal_operator_quadrature(u, float(u.locations[jump]))
            dev = n * abs(quad - closed[jump])
            yield dev <= 1e-10, 1e-10 - dev, f"max abs dev {dev:.2e}"


def _check_envelopes(rng):
    for _ in range(20):
        st = _random_state(rng, int(rng.integers(2, 9)))
        u = levelset.from_particles(st)
        xs = np.concatenate([u.locations, rng.uniform(-2, 2, 40)])
        lo, mid, hi = u.lower(xs), u(xs), u.upper(xs)
        gaps = u.upper(u.locations) - u.lower(u.locations)
        ok = bool(np.all(lo <= mid + 1e-15) and np.all(mid <= hi + 1e-15)
                  and np.all((np.abs(gaps) < 1e-15) | (np.abs(gaps - u.eps) < 1e-15)))
        yield ok, 1.0 if ok else -1.0, f"max envelope gap {float(np.max(gaps)):.3e}"


def _check_hj_comparison(rng):
    """Monotonicity of one HJ step, the property behind the comparison principle.

    Each of three data, a tanh profile plus a bump at random centers, takes
    one step of a fixed dt, 0.99 of its own stable step.  Then each node i
    with i mod 3 = case, one third of the grid, is raised in turn by
    delta = 1e-6 and the step is taken again at the same dt: no node of
    the step may fall.  Raising a node moves the data's stable step by at
    most about 3 delta / (h max|u_x|) relative, far under the 1% held back.
    A step upwinded the wrong way, or past its CFL bound, lowers some node
    by about 1e-7.
    """
    cfg = hjsolver.SchemeConfig(L=2.0, h=1 / 32, rho=4 / 32, t_end=0.05)
    xs = np.linspace(-2.0, 2.0, 129)
    delta = 1e-6
    for case in range(3):
        c1, c2 = rng.uniform(-0.5, 0.5, 2)
        vals = np.tanh(xs - c1) * 0.3 + 0.2 * np.exp(-((xs - c2) ** 2))
        u = hjsolver.GridFunction(xs=xs, values=vals, tails=(-0.3, 0.3))
        dt = 0.99 * (hjsolver.step_hj(u, cfg).time - u.time)
        base = hjsolver.step_hj(u, cfg, dt=dt).values
        for i in range(case, xs.size, 3):
            raised = vals.copy()
            raised[i] += delta
            step = hjsolver.step_hj(u.copy_with(raised, u.time), cfg, dt=dt)
            least = float(np.min(step.values - base))
            yield least >= -1e-12, least + 1e-12, f"least change under a raised node {least:.2e}"


def _check_measures(rng):
    for _ in range(10):
        st = _random_state(rng, int(rng.integers(2, 12)))
        mu = measures.from_state(st)
        u_m = measures.cdf(mu)
        u_p = levelset.from_particles(st)
        xs = np.concatenate([u_p.locations, rng.uniform(-2, 2, 50)])
        ok = bool(np.array_equal(u_m(xs), u_p(xs))
                  and abs(mu.total_mass() - net_charge(st) / st.n) < 1e-15)
        yield ok, 1.0 if ok else -1.0, "cdf vs step function, net mass"


def _check_odd_lattice(_rng):
    # deterministic: draws nothing from the rng the one-shot checks share
    n = 9
    st = odd_lattice(n)
    dt = 1e-3
    cfg = IntegratorConfig(t_end=dt, sample_times=(dt,), abs_tol=1e-14, rel_tol=1e-12)
    traj = evolve(st, cfg)
    d0 = float(same_sign_gap(st.positions, st.charges, 1))
    d1 = float(same_sign_gap(traj.state_at(dt).positions, st.charges, 1))
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
    for a, b in zip(sups[:-1], sups[1:]):
        yield b < a, a - b, f"sup d_M ladder {['%.3e' % s for s in sups]}"


# Each check yields one (passed, margin, detail) case per thing it checks,
# and _worst alone keeps the worst per name: no check folds its own cases.
# Per-run checks take each run's trajectory; one-shot checks share one
# rng, drawn from in this order.
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
