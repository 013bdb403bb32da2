"""Time evolution of the particle system: smooth flow plus annihilation.

Between collisions the positions follow the singular ODE and are advanced
with an embedded Dormand-Prince 5(4) pair (Hairer, Norsett and Wanner,
Solving Ordinary Differential Equations I, section II.4).  The last stage
of an accepted step is evaluated at the new solution, so it is reused as
the first stage of the next step (first same as last, FSAL): an attempt
costs at most six force evaluations, and the field is recomputed from
scratch only when the charges of the integrated field change.  The step
size follows a PI controller (Gustafsson 1991, ACM TOMS 17), dt_new = dt *
0.9 err^(-0.7/5) err_prev^(0.4/5), capped by Gustafsson's predictive
factor (Gustafsson 1994, ACM TOMS 20; Hairer and Wanner, Solving Ordinary
Differential Equations II, section IV.8, as radau5's facgus), dt_new <=
dt * 0.9 (dt / dt_prev) (err_prev / err^2)^(1/5).  While a collision
approaches, the step the error allows shrinks from step to step; the PI
factor alone then proposes about 0.93 of the last step and almost every
step is rejected once, while the predictive factor extrapolates the
trend.  The controller does not grow the step right after a rejection,
leaves its memory alone on steps clipped by a stop, and restarts, with
the PI factor alone for the first step, on every new integrated field.
The step size is capped by sigma * g^2 / (4 gamma), where g is the smallest
opposite-sign neighbor gap: an isolated attracting pair obeys d(t)^2 = d0^2
- 4 gamma t exactly, so no pair can cross zero within that horizon.

Collisions are resolved in closed form by resolve_annihilation.  A
cluster of alternating charges is committed: its collision (tau, y) is
fixed from the positions at the commit time t_c, exactly for an isolated
cluster.  The members leave the integrated field and stay frozen in the
positions; every other particle is integrated up to tau, where the event
takes place, and rows stored before tau shrink the members uniformly
about y, x_i(t) = y + (x_i(t_c) - y) sqrt((tau - t) / (tau - t_c)).  That
keeps the first moment and the second-moment law exact for every shape,
and for a pair it is the two-body law d(t)^2 = 4 gamma (tau - t).  A
committed (tau, y) depends on neither the horizon nor the sample times,
and a state stored before tau evolves on through the same (tau, y).
Leaving a committed cluster of net charge q out of the field over [t_c,
tau] moves a charge at distance >= D from it by at most gamma |q| (tau -
t_c) / D (a pair's dipole by the bound below).

One detector, detect_clusters, decides what is committed, from the
current state alone.  Only opposite-sign charged neighbors whose gap
closes are linked, and two criteria apply in turn:

* Pairs, on isolation.  An approaching +- pair of neighbors with gap d is
  committed once d < delta D, D the distance from the pair to the nearest
  other integrated charge and delta the run's pair isolation
  (IntegratorConfig.pair_isolation, by default PAIR_ISOLATION): tau = t +
  d^2 / (4 gamma).  To first order in d / D, with F the field sum_k b_k /
  (x - x_k) of the other charges at y: the outside field moves the pair's
  d^2 at the rate 4 gamma d |F| against its own 4 gamma, so the remaining
  time tau - t is off by about (2/3) d |F| relative, or F d^3 / (6 gamma)
  absolute; the mean drifts by about |F'| d^3 / 12, (d / D)^2 relative to
  d; and leaving out the pair's dipole field moves a charge at distance
  r >= D by at most d^3 / (6 r^2) over [t, tau], below delta^3 D / 6.  So
  delta goes with rel_tol: PAIR_ISOLATION = 1e-3 gives 1.7e-10 D against
  the default rel_tol of 1e-9, and `converge`, at rel_tol 1e-7, commits
  at harness.LADDER_PAIR_ISOLATION = 1e-2, which gives 1.7e-7 D.
* Any cluster, on length.  When no pair is isolated, closing links below
  the clustering gap CLUSTER_GAP * L, L the larger of the charged span and
  sqrt(gamma |t|), are joined into runs, each committed whole: a pair that
  gets this close before it is isolated, or three or more charges.  L is
  a length of the state, so a run restarted from a stored row commits what
  the run would have.  Collapse profiles of three or more charges are
  unstable, so for them the closed form is exact only on the profile.

The charges change only at events and commits, so between them evolve()
carries the positions, the charges and the clock as plain arrays and a
float, and works out once per segment, from b less the committed
clusters, the charged particles, their charges and the force workspace.
_step_core, velocity_field and detect_clusters see only those m of the n
particles; neutral particles and committed members do not move, so each
accepted step writes the charged positions into one working row in place.
A row is copied once, when it is stored.
A ParticleState is built only after an event, which validates every
post-event state.  The Trajectory stores times (K,), positions (K, n)
and charges (K, n), with a row at every event time holding the charges
after it: the inter-event segments are the runs of equal charges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .particles import (
    EventRecord, ForceWorkspace, InvalidState, ParticleState, m2_rate, velocity_field,
)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "StepStats",
    "StepSizeUnderflow",
    "NetChargeTooLarge",
    "EvolveError",
    "detect_clusters",
    "resolve_annihilation",
    "evolve",
]


# sigma of the collision cap sigma * g^2 / (4 gamma) on the step size
COLLISION_SAFETY = 0.5
# clustering gap as a fraction of the state's length scale, the larger of
# the charged span and sqrt(gamma |t|) (bounds in detect_clusters)
CLUSTER_GAP = 1e-7
# an approaching +- pair is committed once its gap is below this fraction of
# the distance to the nearest other charge (error bounds in the docstring)
PAIR_ISOLATION = 1e-3
# accepted steps after which evolve() gives up with StepSizeUnderflow
MAX_STEPS = 500_000


class StepSizeUnderflow(ArithmeticError):
    """dt fell below 1e-16 of the state's time scale, or MAX_STEPS steps were taken."""


class NetChargeTooLarge(ValueError):
    """resolve_annihilation refuses a cluster, passed in directly, whose |net charge| > 1."""


class EvolveError(RuntimeError):
    """Wraps an integration failure and carries the trajectory so far."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class IntegratorConfig:
    """Horizon, tolerances and sampling of evolve().

    A step's error scale is abs_tol + rel_tol |x - c0|, c0 the midpoint of
    the initial charged span if that span lies within a factor 2 of it (else
    0), so evolve() commutes with translation to rounding away from 0.
    abs_tol is absolute: x -> lambda x, t -> lambda^2 t holds only while
    abs_tol << rel_tol times the span (9e-5 relative at span 1e-6).
    pair_isolation is the fraction of the distance to the nearest other
    charge below which an approaching +- pair is committed
    (detect_clusters); None reads the module's PAIR_ISOLATION at each
    detection.
    """

    t_end: float = 1.0
    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    sample_times: tuple[float, ...] | None = None
    store_steps: bool = True
    pair_isolation: float | None = None

    def __post_init__(self):
        for name in ("t_end", "abs_tol", "rel_tol", "pair_isolation"):
            value = getattr(self, name)
            if value is None and name == "pair_isolation":
                continue  # the module's PAIR_ISOLATION
            if not value > 0:
                raise ValueError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.sample_times is not None:
            ts = tuple(sorted(float(t) for t in self.sample_times))
            object.__setattr__(self, "sample_times", ts)


@dataclass
class StepStats:
    """Work done by one evolve() call.

    accepted counts every accepted step (an all-neutral state advances in
    one step with no force evaluation); rejected_error and rejected_order
    count attempts discarded for the error estimate and for a broken
    charged ordering; force_evals counts velocity_field evaluations.
    cap_bound counts accepted steps whose first trial dt was set by the
    collision cap, and target_clipped those that end on a stop (a sample
    time, t_end or a committed cluster's collision time); dt_min and dt_max
    bound the accepted step sizes; events counts the annihilation events.
    """

    accepted: int = 0
    rejected_error: int = 0
    rejected_order: int = 0
    force_evals: int = 0
    cap_bound: int = 0
    target_clipped: int = 0
    dt_min: float = math.inf
    dt_max: float = 0.0
    events: int = 0


@dataclass
class Trajectory:
    """Time-ordered samples, stored as arrays, plus the annihilation event log.

    Row k of positions (K, n) and charges (K, n) is the configuration at
    times[k]; every row shares one coupling.  A ParticleState is built only
    when asked for, by state(k), state_at(t) or final.
    """

    times: np.ndarray
    positions: np.ndarray
    charges: np.ndarray
    coupling: float
    events: list[EventRecord]
    config: IntegratorConfig
    stats: StepStats = field(default_factory=StepStats)

    def state(self, k: int) -> ParticleState:
        return ParticleState(positions=self.positions[k], charges=self.charges[k],
                             coupling=self.coupling, time=self.times[k])

    @property
    def final(self) -> ParticleState:
        return self.state(-1)

    def state_at(self, t: float) -> ParticleState:
        """The first stored state at exactly t: every sample time and t_end is stored exactly."""
        hits = np.flatnonzero(self.times == t)
        if not hits.size:
            raise KeyError(f"no stored sample at t={t}")
        return self.state(int(hits[0]))


# Dormand-Prince 5(4) tableau.  The last stage point is the 5th-order
# solution (A[6] equals the 5th-order weights), so k[6] = f(x5) is the
# first stage of the next step (FSAL).
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
# weights of the error estimate x5 - x4
_DP_E = np.append(_DP_A[6], 0.0) - _DP_B4

# Step control: the PI factor (Gustafsson 1991) 0.9 err^-ALPHA err_prev^BETA,
# capped by the predictive factor (Gustafsson 1994; Hairer and Wanner, Solving
# ODEs II, section IV.8, radau5's facgus) 0.9 (dt / dt_prev) (err_prev /
# err^2)^(1/5)
_PI_ALPHA = 0.7 / 5
_PI_BETA = 0.4 / 5
_GUS_EXP = 1 / 5


class _Segment:
    """The fixed charges, step-size memory and step buffers of one inter-event segment of evolve().

    Built from the integrated field's charges b over all n particles:
    charged lists the m particles that carry one, bc their int charges and
    bf their float copy, and work is the force kernel's workspace for them.
    The segment also holds the stage matrix k (7, m) with its prefix views
    ks[s] = k[:s], two position buffers that _step_core writes in turn,
    and m-long scratch rows; a step allocates none of them.  An array that
    _step_core returns is one of these buffers and valid only as long as
    its docstring says.
    """

    def __init__(self, b: np.ndarray, gamma: float):
        self.n, self.gamma = b.size, gamma
        self.charged = np.flatnonzero(b)
        self.bc = b[self.charged]
        self.bf = self.bc.astype(float)
        self.work = ForceWorkspace(self.bf, gamma)
        self.opposite = self.bc[:-1] != self.bc[1:]  # adjacent charged pairs of opposite sign
        self.any_opposite = bool(self.opposite.any())
        self.hint = math.inf  # first dt to try
        # error norm and size of the last controller-updated step; the error
        # is floored at 1e-4 and starts at the floor, and the first step of a
        # segment, with no dt_prev, is sized by the PI factor alone
        self.err_prev = 1e-4
        self.dt_prev: float | None = None
        m = self.bc.size
        self.k = np.empty((7, m))
        self.ks = [self.k[:s] for s in range(7)]
        self.pos = (np.empty(m), np.empty(m))
        self.inc, self.scale = np.empty(m), np.empty(m)  # stage increment, error scale
        self.gaps = np.empty(max(m - 1, 0))
        self.ordered = np.empty(max(m - 1, 0), dtype=bool)


def _step_core(
    x: np.ndarray,
    t: float,
    dt_max: float,
    seg: _Segment,
    config: IntegratorConfig,
    k0: np.ndarray,
    stats: StepStats,
) -> tuple[np.ndarray, float, np.ndarray]:
    """One accepted RK step of the charged positions x from t; returns (new x, dt taken, f(new x)).

    x holds seg's m charged particles in order and k0 is f(x).  dt starts
    from min(dt_max, collision cap, seg.hint) and shrinks until the local
    error estimate passes the tolerances and every stage keeps x strictly
    increasing; seg's step-size memory is updated for the next step.  The
    error norm is the RMS over all seg.n particles, whose other entries are
    exactly 0.  Fewer than two charges advance by dt_max exactly.

    The new x and f(new x) are seg's buffers, not copies: the next call
    reads f(new x) as its k0 and then overwrites it, and the second call
    after this one overwrites the new x, so a caller that keeps either
    copies it.  x may be the previous call's new x, never a buffer this
    call writes.
    """
    gamma = seg.gamma
    if x.size < 2:
        return x, dt_max, k0

    gaps = np.subtract(x[1:], x[:-1], out=seg.gaps)
    cap = math.inf
    if seg.any_opposite:
        g = float(np.minimum.reduce(gaps[seg.opposite]))
        cap = COLLISION_SAFETY * g * g / (4.0 * gamma)
    internal_cap = min(cap, seg.hint)
    dt = min(dt_max, internal_cap)
    stats.cap_bound += cap <= seg.hint and cap < dt_max
    target_bound = dt_max <= internal_cap
    rejected = False
    k, ks, inc, scale, ordered = seg.k, seg.ks, seg.inc, seg.scale, seg.ordered
    k[0] = k0
    xs = seg.pos[1] if x is seg.pos[0] else seg.pos[0]
    # the floor is relative to the state's own time scale: |t|, or the time
    # d^2 / (4 gamma) in which the closest charged pair (gap d) moves by ~d;
    # a step cut short only by a nearby target is not held to it
    d = float(np.minimum.reduce(gaps))
    tiny = 1e-16 * max(abs(t), d * d / (4.0 * gamma))
    while True:
        if not dt > tiny and not target_bound:
            raise StepSizeUnderflow(f"dt={dt:.3e} at t={t:.6e}; pathological state")
        for s in range(1, 7):
            # xs = x + dt * (A[s] @ k[:s]), in that order
            np.matmul(_DP_A[s], ks[s], out=inc)
            np.multiply(dt, inc, out=inc)
            np.add(x, inc, out=xs)
            np.greater(xs[1:], xs[:-1], out=ordered)
            if np.count_nonzero(ordered) != ordered.size:
                break
            velocity_field(xs, seg.bf, gamma, work=seg.work, out=k[s])
            stats.force_evals += 1
        else:
            # xs is now the 5th-order solution x5 and k[6] = f(x5); the
            # scaled error is dt (E @ k) / (abs_tol + rel_tol max(|x|, |x5|))
            np.maximum(np.abs(x, out=scale), np.abs(xs, out=inc), out=scale)
            np.multiply(config.rel_tol, scale, out=scale)
            np.add(config.abs_tol, scale, out=scale)
            np.matmul(_DP_E, k, out=inc)
            np.multiply(dt, inc, out=inc)
            np.divide(inc, scale, out=inc)
            err = math.sqrt(inc @ inc / seg.n)  # RMS of the scaled error estimate
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
                return xs, dt, k[6]
            stats.rejected_error += 1
            dt *= min(1.0, max(0.2, 0.9 * err**-0.2))
            target_bound = False
            rejected = True
            continue
        stats.rejected_order += 1
        dt *= 0.5
        target_bound = False
        rejected = True


def detect_clusters(
    x: np.ndarray, b: np.ndarray, v: np.ndarray, t: float, gamma: float,
    isolation: float | None = None,
) -> list[list[int]]:
    """The groups of charged particles ripe for annihilation, from the state alone.

    x, b and v are the positions, charges and velocities of the charged
    particles only, in order, and the groups are lists of indices into
    them; a zero charge raises InvalidState.  A closing link joins two
    adjacent neighbors of opposite sign whose gap g shrinks under v.
    If any closing link has g < isolation times the nearer of its outer
    gaps (an end pair has only one), exactly those pairs are returned.
    Otherwise closing links with g < CLUSTER_GAP * L are joined into
    maximal runs, L = max(span of the charged x, sqrt(gamma |t|)).
    isolation None means PAIR_ISOLATION; the module docstring says why
    `converge` passes a larger one.

    Bounds, stated before measuring: a link below CLUSTER_GAP sqrt(gamma
    |t|) closes within g^2 / (4 gamma) < 2.5e-15 |t|, so the collision cap
    of the last step before the commit is still about 12 times the step
    floor 1e-16 |t|, and a lone collapse is committed before the floor
    stops it.  A committed run of m charges is off by at most its own
    diameter, below (m - 1) CLUSTER_GAP L.  The rule reads only (x, b, v,
    t, gamma), so a run restarted from its own state detects what it
    would have, and it is invariant under translation, reflection, charge
    flip and the scaling x -> lambda x, t -> lambda^2 t.

    With three or more charges every link has an outer gap, and none
    exceeds the largest gap, so when the smallest opposite-sign gap is at
    least isolation times the largest gap and at least CLUSTER_GAP * L,
    nothing can be returned and the links are not looked at.  A lone
    pair has no outer gap and is isolated whenever it closes.
    """
    if np.count_nonzero(b) != b.size:
        raise InvalidState("detect_clusters takes the charged particles only")
    if b.size < 2:
        return []
    if isolation is None:
        isolation = PAIR_ISOLATION
    g = x[1:] - x[:-1]
    opposite = b[:-1] != b[1:]
    cut = CLUSTER_GAP * max(float(x[-1] - x[0]), math.sqrt(gamma * abs(t)))
    if b.size >= 3:
        g_opp = g[opposite]
        if not g_opp.size:
            return []
        least = np.minimum.reduce(g_opp)
        if least >= isolation * np.maximum.reduce(g) and least >= cut:
            return []
    closing = opposite & (v[1:] - v[:-1] < 0.0)
    if not closing.any():
        return []
    outer = np.full_like(g, np.inf)
    outer[1:] = g[:-1]
    np.minimum(outer[:-1], g[1:], out=outer[:-1])
    isolated = closing & (g < isolation * outer)
    if isolated.any():
        return [[k, k + 1] for k in np.flatnonzero(isolated).tolist()]
    linked = closing & (g < cut)
    clusters: list[list[int]] = []
    for k in np.flatnonzero(linked).tolist():
        if clusters and clusters[-1][-1] == k:
            clusters[-1].append(k + 1)
        else:
            clusters.append([k, k + 1])
    return clusters


def resolve_annihilation(
    x: np.ndarray, b: np.ndarray, t: float, gamma: float, clusters: Sequence[Sequence[int]],
) -> list[EventRecord]:
    """The annihilation events of clusters, in tau order.

    x and b are the positions and charges at the detection time t; every
    cluster is resolved from that one snapshot.  A cluster of m charges
    with net charge q meets at the mean y of its positions, which conserves
    the first moment exactly when all members move to y.  Its collision
    time extrapolates the cluster's second-moment law (m2_rate) to zero:
    tau = t + sum (x_i - y)^2 / (gamma (m - q^2)).  If q is +-1 the member
    of charge q nearest y survives (smallest index on ties); everyone else
    is neutralized.
    """
    events = []
    for cluster in clusters:
        cluster = sorted(int(i) for i in cluster)
        pre = tuple(int(b[i]) for i in cluster)
        if any(p == 0 for p in pre):
            raise InvalidState("cluster contains a neutral particle")
        net = sum(pre)
        if abs(net) > 1:
            raise NetChargeTooLarge(f"cluster net charge {net}")
        xc = x[cluster]
        y = float(np.mean(xc))
        with np.errstate(over="ignore"):  # gaps from 1.3e154 on square to inf: tau = inf
            tau = t + 0.5 * float(np.sum((xc - y) ** 2)) / -m2_rate(pre, gamma)
        post = [0] * len(cluster)
        if net != 0:
            matching = [k for k, i in enumerate(cluster) if b[i] == net]
            post[min(matching, key=lambda k: (abs(xc[k] - y), k))] = net
        events.append(EventRecord(tau=tau, y=y, cluster=tuple(cluster),
                                  pre_charges=pre, post_charges=tuple(post)))
    events.sort(key=lambda ev: ev.tau)
    return events


def evolve(initial: ParticleState, config: IntegratorConfig) -> Trajectory:
    """Run the full dynamics to t_end, recording steps and events.

    Deterministic given (initial, config).  Between events the positions,
    the charges and the clock are plain values; a ParticleState is built
    after each event, so every post-event state is validated.  Samples are
    stored at every accepted step (if store_steps), and exactly at the
    configured sample times, at t_end and at every event time, where the
    row holds the state after the event.  Each iteration commits what
    detect_clusters finds until it finds nothing, then takes one step,
    which ends at the next stop: a sample time, t_end or the next committed
    collision.  A committed cluster collides at its own tau whatever the
    stops.  Integration failures propagate as EvolveError with the
    trajectory so far attached.
    """
    x, b, t, gamma = initial.positions, initial.charges, initial.time, initial.coupling
    # integrate the charged x - c0, c0 the midpoint of their span [lo, hi], if
    # hi <= 2 lo (or lo >= 2 hi, hi < 0) makes every x - c0 exact (Sterbenz);
    # else |x| <= 2 (hi - lo) already.  Neutral particles never move.
    moving = b != 0
    lo, hi = (float(x[moving][0]), float(x[moving][-1])) if moving.any() else (0.0, 0.0)
    c0 = 0.5 * lo + 0.5 * hi if 0 < lo and hi <= 2 * lo or hi < 0 and lo >= 2 * hi else 0.0
    shift = np.where(moving, c0, 0.0)
    # the committed clusters' events and commit times, in tau order
    pending: list[tuple[EventRecord, float]] = []
    times, xs, bs, events = [t], [x], [b], []
    x = x - shift  # the working row, a fresh array that steps and events write in place
    stats = StepStats()

    def record(force_keep: bool = False):
        if config.store_steps or force_keep:
            row = x.copy()
            # a committed cluster's members are frozen in x at their commit
            # positions; the row shrinks them uniformly about y if tau is finite
            for ev, t_c in pending:
                if ev.tau < math.inf:
                    cl = list(ev.cluster)
                    row[cl] = ev.y + (x[cl] - ev.y) * math.sqrt((ev.tau - t) / (ev.tau - t_c))
            times.append(t)
            xs.append(row)
            bs.append(b)

    def begin_segment():
        """Build the segment of the integrated field, b less the committed clusters, and f at x."""
        nonlocal seg, xc, vc
        flow = b.copy()
        flow[[i for ev, _ in pending for i in ev.cluster]] = 0
        seg = _Segment(flow, gamma)
        xc = x[seg.charged]
        stats.force_evals += 1
        vc = velocity_field(xc, seg.bf, gamma, work=seg.work)

    def trajectory() -> Trajectory:
        positions = np.array(xs)
        positions[1:] += shift  # row 0 is the input itself
        return Trajectory(times=np.array(times), positions=positions, charges=np.array(bs),
                          coupling=gamma, events=[replace(ev, y=ev.y + c0) for ev in events],
                          config=config, stats=stats)

    def commit(clusters: list[list[int]]):
        """Fix the collisions of clusters and take them out of the integrated field."""
        nonlocal pending
        committed = resolve_annihilation(x, b, t, gamma, clusters)
        pending = sorted(pending + [(ev, t) for ev in committed], key=lambda p: p[0].tau)
        begin_segment()

    def collide() -> bool:
        """Apply the committed collisions due by t; False when there are none."""
        nonlocal b, pending
        if not (pending and pending[0][0].tau <= t):
            return False
        due = [ev for ev, _ in pending if ev.tau <= t]  # a prefix: pending is in tau order
        pending = pending[len(due):]
        b = b.copy()  # stored rows share b
        for ev in due:
            cl = list(ev.cluster)
            x[cl] = ev.y
            b[cl] = ev.post_charges
        ParticleState(positions=x, charges=b, coupling=gamma, time=t)
        events.extend(due)
        stats.events += len(due)
        if any(any(ev.post_charges) for ev in due):
            # a survivor rejoins the integrated field
            begin_segment()
        return True

    targets = [config.t_end]
    if config.sample_times:
        targets = sorted(set(s for s in config.sample_times if s <= config.t_end) | {config.t_end})
    targets = [s for s in targets if s > t]

    # between events only the segment's charged positions xc move, with
    # velocities vc = f(xc); the segment stays valid until the integrated
    # charges change
    seg, xc, vc = None, None, None
    begin_segment()
    try:
        for target in targets:
            while t < target:
                if stats.accepted >= MAX_STEPS:
                    raise StepSizeUnderflow(f"exceeded {MAX_STEPS} steps at t={t:.6e}")
                # the isolation goes positionally: wrappers that count detections see *args only
                while clusters := detect_clusters(xc, seg.bc, vc, t, gamma, config.pair_isolation):
                    commit([seg.charged[cl].tolist() for cl in clusters])
                stop = min(target, pending[0][0].tau) if pending else target
                xc, dt, vc = _step_core(xc, t, stop - t, seg, config, vc, stats)
                x[seg.charged] = xc
                t += dt
                stats.accepted += 1
                stats.dt_min, stats.dt_max = min(stats.dt_min, dt), max(stats.dt_max, dt)
                # snap onto the stop when only fp residue remains
                if abs(t - stop) <= 4e-15 * max(1.0, abs(stop)):
                    t = stop
                stats.target_clipped += t == stop
                collided = collide()
                record(force_keep=collided or t >= target)
    except StepSizeUnderflow as exc:
        raise EvolveError(str(exc), trajectory()) from exc
    return trajectory()
