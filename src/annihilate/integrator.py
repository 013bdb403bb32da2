"""Time evolution of the particle system: smooth flow plus annihilation.

Between collisions the positions follow the singular ODE and are advanced
with an embedded Dormand-Prince 5(4) pair (Hairer, Norsett and Wanner,
Solving Ordinary Differential Equations I, section II.4).  The last stage
of an accepted step is evaluated at the new solution, so it is reused as
the first stage of the next step (first same as last, FSAL): an attempt
costs at most six force evaluations, and the field is recomputed from
scratch only after an annihilation event.  The step size follows a PI
controller (Gustafsson 1991, ACM TOMS 17), dt_new = dt * 0.9 err^(-0.7/5)
err_prev^(0.4/5), which does not grow the step right after a rejection
and restarts after every event.  The step size is additionally capped by
sigma * g^2 / (4 gamma), where g is the smallest opposite-sign neighbor
gap: an isolated attracting pair obeys d(t)^2 = d0^2 - 4 gamma t exactly,
so no pair can cross zero within that horizon.  When a group of charged
particles falls below the clustering gap while mutually approaching, it
is resolved into an annihilation event instead of being integrated into
the singularity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .particles import (
    EventRecord,
    InvalidState,
    ParticleState,
    min_opposite_gap,
    velocity_field,
)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "StepStats",
    "StepSizeUnderflow",
    "NonAlternatingCluster",
    "NetChargeTooLarge",
    "EvolveError",
    "detect_clusters",
    "resolve_annihilation",
    "evolve",
]


class StepSizeUnderflow(ArithmeticError):
    """dt fell below 1e-16 of the state's time scale without triggering clustering."""


class NonAlternatingCluster(ValueError):
    """A detected cluster has non-alternating signs: cluster_gap too large."""


class NetChargeTooLarge(ValueError):
    """|sum of cluster charges| > 1; impossible when alternation holds."""


class EvolveError(RuntimeError):
    """Wraps an integration failure and carries the trajectory so far."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and thresholds for evolve().

    cluster_gap defaults to 1e-7 times the initial charged spread; it must
    stay well below the smallest initial charged gap.  safety is the
    sigma in the collision-safe step cap.
    """

    t_end: float = 1.0
    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    cluster_gap: float | None = None
    max_step: float = math.inf
    safety: float = 0.5
    sample_times: tuple[float, ...] | None = None
    store_steps: bool = True
    max_steps: int = 500_000

    def __post_init__(self):
        for name in ("t_end", "abs_tol", "rel_tol", "max_step", "safety"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if self.cluster_gap is not None and not self.cluster_gap > 0:
            raise ValueError("cluster_gap must be positive")
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
    """

    accepted: int = 0
    rejected_error: int = 0
    rejected_order: int = 0
    force_evals: int = 0


@dataclass
class Trajectory:
    """Time-ordered snapshots plus the annihilation event log."""

    times: list[float]
    states: list[ParticleState]
    events: list[EventRecord]
    config: IntegratorConfig
    stats: StepStats = field(default_factory=StepStats)

    @property
    def final(self) -> ParticleState:
        return self.states[-1]

    def state_at(self, t: float, tol: float = 1e-9) -> ParticleState:
        """Stored state nearest to t (t must be within tol of a sample)."""
        k = int(np.argmin(np.abs(np.asarray(self.times) - t)))
        if abs(self.times[k] - t) > tol * max(1.0, abs(t)):
            raise KeyError(f"no stored sample near t={t}")
        return self.states[k]

    def segments(self) -> list[tuple[float, float]]:
        """Inter-event intervals covering [t0, t_end]."""
        cuts = [self.times[0]] + [ev.tau for ev in self.events] + [self.times[-1]]
        return [(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]


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

# PI step control (Gustafsson 1991): next dt = dt * 0.9 err^-ALPHA err_prev^BETA
_PI_ALPHA = 0.7 / 5
_PI_BETA = 0.4 / 5


@dataclass
class _Controller:
    """Step-size memory of one inter-event segment of evolve()."""

    hint: float = math.inf  # first dt to try
    # error norm of the last accepted step, floored at 1e-4; starts at the floor
    err_prev: float = 1e-4


def _collision_cap(state: ParticleState, safety: float) -> float:
    g = min_opposite_gap(state)
    if not math.isfinite(g):
        return math.inf
    return safety * g * g / (4.0 * state.coupling)


def _step_core(
    state: ParticleState,
    dt_max: float,
    config: IntegratorConfig,
    ctl: _Controller,
    k0: np.ndarray,
    stats: StepStats,
) -> tuple[ParticleState, float, np.ndarray]:
    """One accepted embedded RK step; returns (new state, dt taken, f(new state)).

    k0 is f(state).  dt starts from min(dt_max, max_step, collision cap,
    ctl.hint) and shrinks until the local error estimate passes the
    tolerances and every stage keeps the charged particles strictly ordered;
    ctl is updated for the next step.  States with fewer than two charges
    advance by dt_max exactly.
    """
    x, b = state.positions, state.charges
    gamma = state.coupling
    charged = np.flatnonzero(b)

    if charged.size < 2:
        return replace(state, time=state.time + dt_max), dt_max, k0

    internal_cap = min(config.max_step, _collision_cap(state, config.safety), ctl.hint)
    dt = min(dt_max, internal_cap)
    target_bound = dt_max <= internal_cap
    rejected = False
    k = np.empty((7, x.size))
    k[0] = k0
    # the floor is relative to the state's own time scale: |t|, or the time
    # d^2 / (4 gamma) in which the closest charged pair (gap d) moves by ~d
    xc = x[charged]
    d = float((xc[1:] - xc[:-1]).min())
    tiny = 1e-16 * max(abs(state.time), d * d / (4.0 * gamma))
    while True:
        if dt < tiny:
            raise StepSizeUnderflow(
                f"dt={dt:.3e} at t={state.time:.6e}; pathological state"
            )
        for s in range(1, 7):
            xs = x + dt * (_DP_A[s] @ k[:s])
            xc = xs[charged]
            if not (xc[1:] > xc[:-1]).all():
                break
            k[s] = velocity_field(xs, b, gamma)
            stats.force_evals += 1
        else:
            # xs is now the 5th-order solution x5 and k[6] = f(x5)
            scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(x), np.abs(xs))
            r = dt * (_DP_E @ k) / scale
            err = math.sqrt(r @ r / r.size)  # RMS of the scaled error estimate
            if err <= 1.0:
                new = ParticleState(
                    positions=xs, charges=b, coupling=gamma, time=state.time + dt
                )
                if not target_bound:
                    # a step clipped by the requested horizon says nothing
                    # about error capacity and leaves the controller as it is
                    fac = 0.9 * max(err, 1e-10) ** -_PI_ALPHA * ctl.err_prev**_PI_BETA
                    fac = min(1.0 if rejected else 5.0, max(0.5, fac))
                    ctl.hint = dt * fac
                    ctl.err_prev = max(err, 1e-4)
                return new, dt, k[6]
            stats.rejected_error += 1
            dt *= min(1.0, max(0.2, 0.9 * err**-0.2))
            target_bound = False
            rejected = True
            continue
        stats.rejected_order += 1
        dt *= 0.5
        target_bound = False
        rejected = True


def _cluster_gap(state: ParticleState, config: IntegratorConfig) -> float:
    # default is 1e-7 times the INITIAL spread; evolve() freezes it into
    # the config so the threshold does not shrink with a collapsing pair
    if config.cluster_gap is not None:
        return config.cluster_gap
    return 1e-7 * max(state.spread(), np.finfo(float).tiny)


def detect_clusters(
    state: ParticleState, config: IntegratorConfig, v: np.ndarray | None = None
) -> list[list[int]]:
    """Maximal groups of charged particles ripe for annihilation.

    Adjacent charged particles are linked when their gap is below the
    clustering threshold AND it is shrinking under the current velocities
    v (computed from state when not given); groups are the transitive
    closures, singletons dropped.  Every returned cluster must alternate
    in sign: equal-sign neighbors repel, so a non-alternating cluster
    means cluster_gap was set too large.
    """
    gap = _cluster_gap(state, config)
    charged = np.flatnonzero(state.charges)
    if charged.size < 2:
        return []
    x = state.positions
    if v is None:
        v = velocity_field(x, state.charges, state.coupling)
    linked = (np.diff(x[charged]) < gap) & (np.diff(v[charged]) < 0.0)
    if not linked.any():
        return []
    clusters: list[list[int]] = []
    current = [int(charged[0])]
    for c, link in zip(charged[1:], linked):
        if link:
            current.append(int(c))
        else:
            if len(current) > 1:
                clusters.append(current)
            current = [int(c)]
    if len(current) > 1:
        clusters.append(current)
    for cl in clusters:
        signs = state.charges[cl]
        if np.any(signs[1:] * signs[:-1] != -1):
            raise NonAlternatingCluster(
                f"cluster {cl} has signs {signs.tolist()}; reduce cluster_gap"
            )
    return clusters


def resolve_annihilation(
    state: ParticleState, cluster: Sequence[int], config: IntegratorConfig
) -> tuple[ParticleState, EventRecord]:
    """Replace a collapsing cluster by its post-collision configuration.

    The collision point y is the charge-count-weighted mean of the cluster
    (each charged member counts once), which conserves the first moment
    exactly when all members are moved to y.  The residual time to
    collision is extrapolated from the cluster second-moment law
    dM/dt ~ -B with B = (gamma/2) (sum b_i^2 - (sum b_i)^2).  If the net
    charge is +-1 the member of matching charge nearest y survives
    (smallest index on ties); everyone else is neutralized.
    """
    cluster = sorted(int(i) for i in cluster)
    b = state.charges
    pre = tuple(int(b[i]) for i in cluster)
    if any(p == 0 for p in pre):
        raise InvalidState("cluster contains a neutral particle")
    net = sum(pre)
    if abs(net) > 1:
        raise NetChargeTooLarge(f"cluster net charge {net}")

    xs = state.positions[cluster]
    y = float(np.mean(xs))
    m = len(cluster)
    B = 0.5 * state.coupling * (m - net * net)
    M_c = 0.5 * float(np.sum((xs - y) ** 2))
    tau = state.time + M_c / B

    new_b = b.copy()
    new_x = state.positions.copy()
    for i in cluster:
        new_b[i] = 0
        new_x[i] = y
    if net != 0:
        matching = [i for i in cluster if b[i] == net]
        survivor = min(matching, key=lambda i: (abs(state.positions[i] - y), i))
        new_b[survivor] = net
    post = tuple(int(new_b[i]) for i in cluster)

    event = EventRecord(tau=tau, y=y, cluster=tuple(cluster), pre_charges=pre, post_charges=post)
    new_state = ParticleState(
        positions=new_x, charges=new_b, coupling=state.coupling, time=tau
    )
    return new_state, event


def evolve(initial: ParticleState, config: IntegratorConfig) -> Trajectory:
    """Run the full dynamics to t_end, recording steps and events.

    Deterministic given (initial, config).  Snapshots are stored at every
    accepted step (if store_steps) and exactly at the configured sample
    times; a sample falling inside the tiny extrapolated window of an
    event is recorded at the event time instead.  Integration failures
    propagate as EvolveError with the trajectory so far attached.
    """
    if config.cluster_gap is None:
        config = replace(config, cluster_gap=_cluster_gap(initial, config))

    traj = Trajectory(times=[initial.time], states=[initial], events=[], config=config)
    stats = traj.stats
    state = initial

    def record(st: ParticleState, force_keep: bool = False):
        if config.store_steps or force_keep:
            traj.times.append(st.time)
            traj.states.append(st)

    def forces(st: ParticleState) -> np.ndarray:
        stats.force_evals += 1
        return velocity_field(st.positions, st.charges, st.coupling)

    targets = [config.t_end]
    if config.sample_times:
        targets = sorted(set(t for t in config.sample_times if t <= config.t_end) | {config.t_end})
    targets = [t for t in targets if t > state.time]

    # f(state) and the step-size memory stay valid until the next annihilation
    v = forces(state)
    ctl = _Controller()
    try:
        for target in targets:
            while state.time < target:
                if stats.accepted > config.max_steps:
                    raise StepSizeUnderflow(
                        f"exceeded {config.max_steps} steps at t={state.time:.6e}"
                    )
                clusters = detect_clusters(state, config, v)
                if clusters:
                    for cl in clusters:
                        state, event = resolve_annihilation(state, cl, config)
                        traj.events.append(event)
                        record(state, force_keep=True)
                    v = forces(state)
                    ctl = _Controller()  # post-collision field, start afresh
                    continue
                state, _dt, v = _step_core(state, target - state.time, config, ctl, v, stats)
                stats.accepted += 1
                # snap onto the target when only fp residue remains
                if abs(state.time - target) <= 4e-15 * max(1.0, abs(target)):
                    state = replace(state, time=target)
                record(state, force_keep=(state.time >= target))
    except (StepSizeUnderflow, NonAlternatingCluster, NetChargeTooLarge) as exc:
        raise EvolveError(str(exc), traj) from exc
    return traj
