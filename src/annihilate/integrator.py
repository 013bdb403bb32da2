"""Time evolution of the particle system: smooth flow plus annihilation.

Between collisions the positions follow the singular ODE and are advanced
with an embedded Dormand-Prince 5(4) pair.  The step size is additionally
capped by sigma * g^2 / (4 gamma), where g is the smallest opposite-sign
neighbor gap: an isolated attracting pair obeys d(t)^2 = d0^2 - 4 gamma t
exactly, so no pair can cross zero within that horizon.  When a group of
charged particles falls below the clustering gap while mutually
approaching, it is resolved into an annihilation event instead of being
integrated into the singularity.
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
    charged_order,
    min_opposite_gap,
    validate_state,
    velocity_field,
)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "StepSizeUnderflow",
    "NonAlternatingCluster",
    "NetChargeTooLarge",
    "EvolveError",
    "step",
    "detect_clusters",
    "resolve_annihilation",
    "evolve",
]


class StepSizeUnderflow(ArithmeticError):
    """dt collapsed below machine scale without triggering clustering."""


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
        if self.cluster_gap is not None and not self.cluster_gap > 0:
            raise ValueError("cluster_gap must be positive")
        if self.sample_times is not None:
            ts = tuple(sorted(float(t) for t in self.sample_times))
            object.__setattr__(self, "sample_times", ts)


@dataclass
class Trajectory:
    """Time-ordered snapshots plus the annihilation event log."""

    times: list[float]
    states: list[ParticleState]
    events: list[EventRecord]
    config: IntegratorConfig

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


# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _collision_cap(state: ParticleState, safety: float) -> float:
    g = min_opposite_gap(state)
    if not math.isfinite(g):
        return math.inf
    return safety * g * g / (4.0 * state.coupling)


def _charged_ordered(x: np.ndarray, order: np.ndarray) -> bool:
    xs = x[order]
    return bool(np.all(np.diff(xs) > 0.0))


def _step_core(
    state: ParticleState, dt_max: float, config: IntegratorConfig, hint: float
) -> tuple[ParticleState, float, float]:
    """One accepted embedded RK step; returns (new state, dt taken, next hint).

    dt starts from min(dt_max, max_step, collision cap, hint) and shrinks
    until the local error estimate passes the tolerances and the charged
    ordering is preserved.  All-neutral states advance by dt_max exactly.
    """
    x, b = state.positions, state.charges
    gamma = state.coupling
    order = charged_order(state)

    if order.size < 2:
        return replace(state, time=state.time + dt_max), dt_max, hint

    internal_cap = min(config.max_step, _collision_cap(state, config.safety), hint)
    dt = min(dt_max, internal_cap)
    target_bound = dt_max <= internal_cap
    k = np.empty((7, x.size))
    tiny = 1e-16 * max(1.0, abs(state.time))
    while True:
        if dt < tiny:
            raise StepSizeUnderflow(
                f"dt={dt:.3e} at t={state.time:.6e}; pathological state"
            )
        k[0] = velocity_field(x, b, gamma)
        ok = True
        for s in range(1, 7):
            xs = x + dt * (k[:s].T @ _DP_A[s])
            if not _charged_ordered(xs, order):
                ok = False
                break
            k[s] = velocity_field(xs, b, gamma)
        if ok:
            x5 = x + dt * (k.T @ _DP_B5)
            x4 = x + dt * (k.T @ _DP_B4)
            if _charged_ordered(x5, order):
                scale = config.abs_tol + config.rel_tol * np.maximum(
                    np.abs(x), np.abs(x5)
                )
                err = float(np.sqrt(np.mean(((x5 - x4) / scale) ** 2)))
                if err <= 1.0:
                    new = ParticleState(
                        positions=x5,
                        charges=b,
                        coupling=gamma,
                        time=state.time + dt,
                    )
                    if target_bound:
                        # clipped by the requested horizon, not by accuracy:
                        # the landing step says nothing about error capacity
                        return new, dt, hint
                    grow = 5.0 if err == 0.0 else min(5.0, max(0.5, 0.9 * err**-0.2))
                    return new, dt, dt * grow
                dt *= min(1.0, max(0.2, 0.9 * err**-0.2))
                target_bound = False
                continue
        dt *= 0.5
        target_bound = False


def step(
    state: ParticleState, dt_max: float, config: IntegratorConfig
) -> tuple[ParticleState, float]:
    """Single accepted step with no history: the hint starts unconstrained."""
    new, dt, _ = _step_core(state, dt_max, config, math.inf)
    return new, dt


def _cluster_gap(state: ParticleState, config: IntegratorConfig) -> float:
    # default is 1e-7 times the INITIAL spread; evolve() freezes it into
    # the config so the threshold does not shrink with a collapsing pair
    if config.cluster_gap is not None:
        return config.cluster_gap
    return 1e-7 * max(state.spread(), np.finfo(float).tiny)


def detect_clusters(
    state: ParticleState, config: IntegratorConfig
) -> list[list[int]]:
    """Maximal groups of charged particles ripe for annihilation.

    Adjacent charged particles are linked when their gap is below the
    clustering threshold AND it is shrinking under the current velocities;
    groups are the transitive closures, singletons dropped.  Every
    returned cluster must alternate in sign: equal-sign neighbors repel,
    so a non-alternating cluster means cluster_gap was set too large.
    """
    gap = _cluster_gap(state, config)
    order = charged_order(state)
    if order.size < 2:
        return []
    x = state.positions
    v = velocity_field(x, state.charges, state.coupling)
    clusters: list[list[int]] = []
    current = [int(order[0])]
    for a, c in zip(order[:-1], order[1:]):
        closing = (v[c] - v[a]) < 0.0
        if (x[c] - x[a]) < gap and closing:
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
    cluster = [int(i) for i in sorted(cluster, key=lambda i: state.positions[i])]
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
    problems = validate_state(initial)
    if problems:
        raise InvalidState("; ".join(problems))
    if config.cluster_gap is None:
        config = replace(config, cluster_gap=_cluster_gap(initial, config))

    traj = Trajectory(times=[initial.time], states=[initial], events=[], config=config)
    state = initial

    def record(st: ParticleState, force_keep: bool = False):
        if config.store_steps or force_keep:
            traj.times.append(st.time)
            traj.states.append(st)

    targets = [config.t_end]
    if config.sample_times:
        targets = sorted(set(t for t in config.sample_times if t <= config.t_end) | {config.t_end})
    targets = [t for t in targets if t > state.time]

    steps_taken = 0
    hint = math.inf
    try:
        for target in targets:
            while state.time < target:
                if steps_taken > config.max_steps:
                    raise StepSizeUnderflow(
                        f"exceeded {config.max_steps} steps at t={state.time:.6e}"
                    )
                clusters = detect_clusters(state, config)
                if clusters:
                    for cl in clusters:
                        state, event = resolve_annihilation(state, cl, config)
                        traj.events.append(event)
                        record(state, force_keep=True)
                    hint = math.inf  # post-collision field, start afresh
                    continue
                state, _dt, hint = _step_core(state, target - state.time, config, hint)
                steps_taken += 1
                # snap onto the target when only fp residue remains
                if abs(state.time - target) <= 4e-15 * max(1.0, abs(target)):
                    state = replace(state, time=target)
                record(state, force_keep=(state.time >= target))
    except (StepSizeUnderflow, NonAlternatingCluster, NetChargeTooLarge) as exc:
        raise EvolveError(str(exc), traj) from exc
    return traj
