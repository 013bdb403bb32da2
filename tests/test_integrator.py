import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from annihilate import harness, integrator
from annihilate.integrator import (
    CLUSTER_GAP,
    COLLISION_SAFETY,
    ORDERING_SAFETY,
    PAIR_ISOLATION,
    EvolveError,
    IntegratorConfig,
    NetChargeTooLarge,
    StepSizeUnderflow,
    detect_clusters,
    evolve,
    resolve_annihilation,
)
from annihilate.particles import (
    InvalidState, ParticleState, net_charge, same_sign_gap, velocity_field,
)
from reference import (
    collision_profile, detect_clusters_every_link, profile_equation, step, step_core_fresh,
    velocities,
)


def make(x, b, gamma=None, t=0.0):
    return ParticleState(
        positions=np.asarray(x, float),
        charges=np.asarray(b, int),
        coupling=gamma,
        time=t,
    )


CFG = IntegratorConfig(t_end=1.0)


def resolve(s, cluster):
    """The state after resolving one cluster of s, and its event."""
    (ev,) = resolve_annihilation(s.positions, s.charges, s.time, s.coupling, [cluster])
    x, b, cl = s.positions.copy(), s.charges.copy(), list(ev.cluster)
    x[cl], b[cl] = ev.y, ev.post_charges
    return make(x, b, s.coupling, ev.tau), ev


class TestStep:
    def test_equal_charge_pair_gap_law(self):
        # gap obeys d(t)^2 = d0^2 + 4 gamma t; one step stays on it
        d0 = 0.5
        s = make([0.0, d0], [1, 1], gamma=0.5)
        new, dt = step(s, 0.01, CFG)
        d = new.positions[1] - new.positions[0]
        assert d * d == pytest.approx(d0 * d0 + 2.0 * dt, rel=1e-10)

    def test_opposite_pair_gap_law(self):
        d0 = 0.5
        s = make([0.0, d0], [1, -1], gamma=0.5)
        new, dt = step(s, 0.01, CFG)
        d = new.positions[1] - new.positions[0]
        assert d * d == pytest.approx(d0 * d0 - 2.0 * dt, rel=1e-10)

    def test_all_neutral_unchanged(self):
        s = make([0.0, 1.0, 2.0], [0, 0, 0])
        new, dt = step(s, 0.37, CFG)
        assert dt == 0.37
        assert np.array_equal(new.positions, s.positions)
        assert new.time == 0.37

    def test_collision_cap_limits_dt(self):
        # opposite pair cannot step past the closed-form crossing horizon
        g = 1e-3
        s = make([0.0, g], [1, -1], gamma=0.5)
        _, dt = step(s, 1.0, CFG)
        assert dt <= COLLISION_SAFETY * g * g / (4.0 * s.coupling) + 1e-18

    def test_ordering_cap_limits_dt(self):
        # a +1 charge half the gap to the left pushes the +- pair shut at
        # r = (14 / 3) gamma / g, faster than the pair law's 2 gamma / g, so
        # 0.4 g / r is below the collision cap; at loose tolerances the
        # error would allow the collision cap's step
        g = 1e-3
        s = make([-0.5 * g, 0.0, g], [1, 1, -1], gamma=0.5)
        v = velocities(s)
        r = v[1] - v[2]
        assert ORDERING_SAFETY * g / r < COLLISION_SAFETY * g * g / (4.0 * s.coupling)
        _, dt = step(s, 1.0, IntegratorConfig(t_end=1.0, abs_tol=1e-6, rel_tol=1e-3))
        assert dt <= ORDERING_SAFETY * g / r * (1 + 1e-12)

    def test_underflow_detected(self):
        s = make([0.0, 1e-13], [1, -1], gamma=0.5)
        with pytest.raises(StepSizeUnderflow):
            for _ in range(200):
                s, _ = step(s, 1.0, CFG)


def detect(s, v=None):
    """detect_clusters on state s, with its own velocities unless v is given."""
    return detect_clusters(s.positions, s.charges, velocities(s) if v is None else v,
                           s.time, s.coupling, PAIR_ISOLATION)


@st.composite
def detector_cases(draw):
    """Arguments (x, b, v, t, gamma) of detect_clusters: 2..12 charges with a closing +- link k.

    Link k's gap d is drawn from 1e-12..2 or placed exactly, in floating
    point, at a threshold: PAIR_ISOLATION times its nearer outer gap, or
    CLUSTER_GAP L with L = sqrt(gamma t) or, at t = 0, the span.  At the
    CLUSTER_GAP thresholds its outer gaps are about 9d or 10d, so the link
    is not isolated.  The other gaps run from 1e-12 to 2 and the other
    velocities are random, so other links open, close, isolate and cluster
    too; t is 0 or drawn.  The state is reflected half the time.
    """
    m = draw(st.integers(2, 12))
    b = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m)))
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    gaps = [draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 1.0])) * draw(st.floats(1.0, 2.0))
            for _ in range(m - 1)]
    gamma = draw(st.floats(1e-3, 1.0))
    t = draw(st.sampled_from([0.0]) | st.floats(1e-6, 1.0))
    place = draw(st.sampled_from(["drawn", "isolation", "cluster-time", "cluster-span"]))
    k = 0 if place == "cluster-span" else draw(st.integers(0, m - 2))
    b[k + 1], v[k], v[k + 1] = -b[k], 1.0, -1.0
    # x[zero] = 0, so the gaps on either side of it are exact in x
    zero = k + 1 if k + 2 < m else k
    if place == "isolation" and m > 2:
        outer = k + 1 if zero == k + 1 else k - 1
        gaps[k] = PAIR_ISOLATION * gaps[outer]
        if 0 <= 2 * k - outer < m - 1:  # the other outer gap is the larger
            gaps[2 * k - outer] = max(gaps[2 * k - outer], 2.0 * gaps[outer])
    elif place == "cluster-time":
        t = draw(st.floats(1e3, 1e6)) / gamma  # sqrt(gamma t) is above any span here
        gaps[k] = CLUSTER_GAP * math.sqrt(gamma * abs(t))
        for j in (k - 1, k + 1):
            if 0 <= j < m - 1:
                gaps[j] = 10.0 * gaps[k]
    x = np.zeros(m)
    x[zero + 1:] = np.cumsum(gaps[zero:])
    x[:zero] = -np.cumsum(gaps[:zero][::-1])[::-1]
    if place == "cluster-span" and m > 3:
        # x[0] = 0 and x[2:] do not depend on d = x[1], so d can be CLUSTER_GAP x[-1]
        t, rest = 0.0, np.cumsum(gaps[2:])
        x = np.concatenate([[0.0, 0.0], 1e-6 * rest[-1] + np.concatenate([[0.0], rest])])
        x[1] = CLUSTER_GAP * x[-1]
    if draw(st.booleans()):
        x, b, v = -x[::-1], b[::-1].copy(), -v[::-1]
    return x, b, v, t, gamma


class TestDetect:
    @given(detector_cases())
    # a lone closing pair has no outer gap: isolated at any gap, even at t = 0
    @example((np.array([0.0, 1.0]), np.array([1, -1]), np.array([1.0, -1.0]), 0.0, 0.5))
    # an end pair of three charges exactly at PAIR_ISOLATION times its outer gap
    @example((np.array([-1e-3, 0.0, 1.0]), np.array([1, -1, 1]), np.array([1.0, -1.0, 0.0]),
              0.0, 0.5))
    @settings(max_examples=300, deadline=None)
    def test_early_exit_matches_every_link(self, case):
        # the exit returns [] only where looking at every link finds nothing
        assert (detect_clusters(*case, PAIR_ISOLATION)
                == detect_clusters_every_link(*case, PAIR_ISOLATION))

    @given(detector_cases())
    @settings(max_examples=100, deadline=None)
    def test_early_exit_matches_every_link_at_ladder_isolation(self, case):
        isolation = harness.LADDER_PAIR_ISOLATION
        assert detect_clusters(*case, isolation) == detect_clusters_every_link(*case, isolation)

    def test_isolation_is_the_callers(self):
        # a closing end pair of three charges at 5e-3 of its outer gap is
        # committed at the ladder's isolation, not at the default: both the
        # early exit and the isolation mask read the isolation passed in
        case = (np.array([0.0, 1.0, 1.005]), np.array([1, 1, -1]), np.array([0.0, 1.0, -1.0]),
                0.0, 0.5)
        assert detect_clusters(*case, PAIR_ISOLATION) == []
        ladder = harness.LADDER_PAIR_ISOLATION
        assert detect_clusters(*case, ladder) == detect_clusters_every_link(*case, ladder) == [[1, 2]]

    def test_close_pair_detected(self):
        s = make([0.0, 1e-9, 1.0], [1, -1, 1])
        assert detect(s) == [[0, 1]]

    def test_symmetric_triple(self):
        # at t = 0 a lone triple's only length is its own span; at t = 1 it
        # is sqrt(gamma t), far above it
        s = make([-1e-9, 0.0, 1e-9], [1, -1, 1], t=1.0)
        assert detect(s) == [[0, 1, 2]]

    def test_equal_sign_pair_not_clustered(self):
        # equal charges repel, so the gap is growing and no cluster forms
        s = make([0.0, 1e-9], [1, 1])
        assert detect(s) == []

    def test_approaching_equal_sign_neighbors_are_not_linked(self):
        # a third charge can close an equal-sign gap; only opposite signs link
        s = make([0.0, 1e-9], [1, 1])
        assert detect(s, np.array([1.0, -1.0])) == []

    def test_neutral_refused(self):
        # the groups index the particles passed in, which must all be charged
        with pytest.raises(InvalidState, match="charged particles only"):
            detect_clusters(np.array([0.0, 1e-9, 1.0]), np.array([1, 0, -1]), np.zeros(3), 0.0, 0.5,
                            PAIR_ISOLATION)

    # (state, its clusters): an isolated pair; a pair below the clustering
    # gap but not isolated; a triple linked at t = 1 by sqrt(gamma t); and a
    # triple far from collision.  Every position is dyadic, so the
    # translation and the scalings below are exact
    SYMMETRY_STATES = [
        (make([0.5, 0.5 + 2.0**-30, 1.5, 3.0], [1, -1, 1, -1], 0.25), [[0, 1]]),
        (make([0.0, 1.0, 1.0 + 2.0**-27, 1.0 + 2.0**-19], [1, 1, -1, 1], 2.0**-40), [[1, 2]]),
        (make([-(2.0**-30), 0.0, 2.0**-30], [1, -1, 1], 0.25, t=1.0), [[0, 1, 2]]),
        (make([-0.5, 0.0, 0.5], [1, -1, 1], 0.25), []),
    ]

    @pytest.mark.parametrize("transform", ["translate", "reflect", "flip", "scale-up",
                                           "scale-down"])
    def test_symmetries(self, transform):
        # the rule reads lengths and times of the state only, so it commutes
        # with the symmetries of the ODE
        for s, want in self.SYMMETRY_STATES:
            x, b, v, t, n = s.positions, s.charges, velocities(s), s.time, s.n
            assert detect(s, v) == want
            index = list(range(n))
            if transform == "translate":
                x = x + 2.0**10
            elif transform == "reflect":
                x, b, v, index = -x[::-1], b[::-1], -v[::-1], index[::-1]
            elif transform == "flip":
                b = -b
            else:
                k = 5 if transform == "scale-up" else -5
                x, v, t = x * 2.0**k, v / 2.0**k, t * 4.0**k
            got = detect_clusters(x, b, v, t, s.coupling, PAIR_ISOLATION)
            assert sorted(sorted(index[i] for i in cl) for cl in got) == want


class TestResolve:
    def test_pair(self):
        s = make([0.0, 1e-9], [1, -1])
        new, ev = resolve(s, [0, 1])
        assert tuple(new.charges) == (0, 0)
        assert ev.y == pytest.approx(5e-10)
        assert new.positions[0] == new.positions[1] == ev.y
        assert sum(ev.post_charges) == sum(ev.pre_charges) == 0

    def test_triple_survivor(self):
        s = make([-1e-9, 0.0, 1e-9], [1, -1, 1])
        new, ev = resolve(s, [0, 1, 2])
        assert sorted(ev.post_charges) == [0, 0, 1]
        survivor = [i for i in ev.cluster if new.charges[i] != 0][0]
        assert new.positions[survivor] == ev.y

    @pytest.mark.parametrize("units, survivor", [((0, 5, 9), 2), ((0, 4, 8), 0)],
                             ids=["nearest", "tie"])
    def test_survivor_is_nearest_y_then_smallest_index(self, units, survivor):
        # a +-+ cluster far inside the state's length scale, committed at t = 0:
        # the + nearest the meeting point y survives, on an exact tie (dyadic
        # positions) the smaller index; evolve's event and trajectory agree
        x, b = np.array([*(u * 2.0**-32 for u in units), 1.0]), np.array([1, -1, 1, -1])
        want = tuple(int(k == survivor) for k in range(3))
        (ev,) = resolve_annihilation(x, b, 0.0, 0.25, [[0, 1, 2]])
        assert ev.post_charges == want
        traj = evolve(make(x, b, 0.25), IntegratorConfig(t_end=0.5))
        (ev,) = traj.events
        assert ev.cluster == (0, 1, 2) and ev.post_charges == want
        assert traj.charges[-1].tolist() == [*want, -1]
        # the neutralized columns stay at y, the survivor's moves on
        moved = traj.positions[-1, :3] != ev.y
        assert moved.tolist() == [k == survivor for k in range(3)]

    def test_net_charge_preserved(self):
        s = make([-2e-9, -1e-9, 0.0, 1e-9, 2e-9], [-1, 1, -1, 1, -1])
        q0 = net_charge(s)
        new, ev = resolve(s, [0, 1, 2, 3, 4])
        assert net_charge(new) == q0 == -1

    def test_first_moment_preserved_exactly(self):
        s = make([0.1, 0.1 + 1e-9, 0.1 + 3e-9], [1, -1, 1])
        m0 = s.positions.sum()
        new, _ = resolve(s, [0, 1, 2])
        assert new.positions.sum() == pytest.approx(m0, abs=1e-22)

    def test_net_charge_above_one_refused(self):
        # detect_clusters never links equal charges; a direct caller can
        s = make([0.0, 1e-9], [1, 1])
        with pytest.raises(NetChargeTooLarge, match="net charge 2"):
            resolve(s, [0, 1])

    def test_neutral_member_refused(self):
        s = make([0.0, 1e-9, 2e-9], [1, 0, -1])
        with pytest.raises(InvalidState, match="neutral"):
            resolve(s, [0, 1, 2])


class TestEvolve:
    def test_infinite_t_end_rejected(self):
        # evolve would step towards an infinite horizon without end
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(t_end=np.inf)

    @pytest.mark.parametrize("field, value, match", [
        ("rel_tol", -1.0, "positive"), ("abs_tol", 0.0, "positive"),
        ("rel_tol", np.inf, "finite"), ("abs_tol", np.inf, "finite"),
    ])
    def test_tolerances_must_be_positive_and_finite(self, field, value, match):
        with pytest.raises(ValueError, match=f"{field} must be {match}"):
            IntegratorConfig(**{field: value})

    def test_every_default_is_a_value(self):
        # no field defers to a module global at run time, so a run's config
        # says what it ran with
        cfg = IntegratorConfig()
        assert all(getattr(cfg, f.name) is not None for f in dataclasses.fields(cfg))
        assert cfg.pair_isolation == integrator.PAIR_ISOLATION and cfg.sample_times == ()

    @pytest.mark.parametrize("value, match", [
        (0.0, "positive"), (-1e-2, "positive"), (np.nan, "positive"), (np.inf, "finite"),
    ])
    def test_pair_isolation_must_be_positive_and_finite(self, value, match):
        assert IntegratorConfig().pair_isolation == PAIR_ISOLATION
        with pytest.raises(ValueError, match=f"pair_isolation must be {match}"):
            IntegratorConfig(pair_isolation=value)

    def test_pair_annihilation_time(self):
        a = 0.6
        s = make([-a, a], [1, -1], gamma=0.5)
        traj = evolve(s, IntegratorConfig(t_end=1.5 * 2 * a * a))
        assert len(traj.events) == 1
        assert traj.events[0].tau == pytest.approx(2 * a * a, rel=1e-6)
        assert traj.events[0].y == pytest.approx(0.0, abs=1e-9)

    def test_odd_lattice_initial_tangency(self):
        # the gap-square growth rate starts exactly at 8/(n^2 - 1); the
        # uniform lattice is where the bound's constant is attained
        n = 9
        s = make(np.arange(1.0, n + 1.0), np.ones(n, int))
        dt = 1e-4
        traj = evolve(s, IntegratorConfig(t_end=dt, abs_tol=1e-14, rel_tol=1e-12))
        d1 = same_sign_gap(traj.final.positions, s.charges, 1)
        rate = (d1 * d1 - 1.0) / dt
        assert rate == pytest.approx(8.0 / (n * n - 1.0), rel=1e-4)

    def test_odd_lattice_respects_lower_bound(self):
        n = 9
        s = make(np.arange(1.0, n + 1.0), np.ones(n, int))
        ts = (0.5, 1.0, 2.0)
        traj = evolve(s, IntegratorConfig(t_end=2.0, sample_times=ts))
        for t in ts:
            d = same_sign_gap(traj.state_at(t).positions, s.charges, 1)
            assert d * d >= 1.0 + 8.0 * t / (n * n - 1.0) - 1e-9

    def test_symmetric_triple_collision(self):
        # +-+ with mirror symmetry: outer positions obey x^2 = d^2 - gamma t,
        # so all three meet at the origin at tau = d^2 / gamma
        d = 0.5
        s = make([-d, 0.0, d], [1, -1, 1], gamma=1 / 3)
        traj = evolve(s, IntegratorConfig(t_end=1.0))
        assert len(traj.events) == 1
        ev = traj.events[0]
        assert len(ev.cluster) == 3
        assert ev.tau == pytest.approx(d * d / s.coupling, rel=1e-6)
        assert ev.y == pytest.approx(0.0, abs=1e-9)
        assert sorted(ev.post_charges) == [0, 0, 1]

    def test_simultaneous_pair_events(self):
        s = make([-10.2, -9.8, 9.8, 10.2], [1, -1, 1, -1], gamma=0.25)
        traj = evolve(s, IntegratorConfig(t_end=1.0))
        assert len(traj.events) == 2
        assert {ev.cluster for ev in traj.events} == {(0, 1), (2, 3)}
        assert all(b.tau >= a.tau for a, b in zip(traj.events[:-1], traj.events[1:]))

    # two pairs, both committed at t = 0 (each gap is far below the distance
    # 10 between them): at coupling 1e-12 the near pair collides at 2.5e-7
    # and the far one, gap d = 9e-8, at d^2 / (4 gamma) = 2.025e-3
    TWO_PAIRS = make([0.0, 1e-9, 10.0, 10.0 + 9e-8], [1, -1, 1, -1], gamma=1e-12)

    def test_cluster_due_after_t_end_stays_charged(self):
        traj = evolve(self.TWO_PAIRS, IntegratorConfig(t_end=1e-3))
        assert [ev.tau for ev in traj.events] == [pytest.approx(2.5e-7, rel=1e-12)]
        assert traj.state_at(1e-3).time == traj.times[-1] == 1e-3
        assert traj.final.charges.tolist() == [0, 0, 1, -1]

    def test_each_cluster_collides_on_its_own_clock(self):
        traj = evolve(self.TWO_PAIRS, IntegratorConfig(t_end=1.0))
        assert [ev.cluster for ev in traj.events] == [(0, 1), (2, 3)]
        # d as stored: 10 + 9e-8 is 9e-8 only to about 1e-8 relative
        d = self.TWO_PAIRS.positions[3] - self.TWO_PAIRS.positions[2]
        assert traj.events[1].tau == pytest.approx(d * d / 4e-12, rel=1e-12)

    def test_pair_collision_ignores_the_sample_times(self):
        # both pairs are isolated at t = 0, where their collisions are fixed,
        # so a sample time between the two taus cannot move the far one; the
        # bound is the rounding of one closed-form evaluation
        plain = evolve(self.TWO_PAIRS, IntegratorConfig(t_end=1.0))
        sampled = evolve(self.TWO_PAIRS, IntegratorConfig(t_end=1.0, sample_times=(1e-3,)))
        tau, tau_sampled = plain.events[1].tau, sampled.events[1].tau
        assert abs(tau_sampled - tau) <= 1e-12 * tau

    def test_restart_next_to_a_pair_collision(self):
        # a lone +- pair colliding at 0.3001, evolved again from its stored
        # row at 0.3, reaches t_end through the same collision; the bound is
        # the rounding of the stored row and of the clock at 0.3
        gamma = 0.5
        g = math.sqrt(4.0 * gamma * 0.3001)
        run = evolve(make([-g / 2, g / 2], [1, -1], gamma),
                     IntegratorConfig(t_end=1.0, sample_times=(0.3,)))
        again = evolve(run.state_at(0.3), IntegratorConfig(t_end=1.0))
        assert again.final.time == 1.0
        (ev,) = again.events
        assert abs(ev.tau - run.events[0].tau) <= 1e-12 * run.events[0].tau

    def test_close_pair_that_is_not_isolated_is_committed(self):
        # the pair (1, 2), gap d = 1e-8, has the charge 3 about 2e-6 away, so
        # it is not isolated, but it is below the clustering gap (1e-7 x
        # spread) at t = 0, where its collision is fixed at d^2 / (4 gamma);
        # the receding charge 3 stays charged
        s = make([0.0, 1.0, 1.0 + 1e-8, 1.0 + 2e-6], [1, 1, -1, 1], gamma=1e-12)
        traj = evolve(s, IntegratorConfig(t_end=1e-4))
        d = s.positions[2] - s.positions[1]
        (ev,) = traj.events
        assert ev.cluster == (1, 2)
        assert ev.tau == pytest.approx(d * d / 4e-12, rel=1e-12)
        assert traj.final.charges.tolist() == [1, 0, 0, 1]

    def test_approaching_equal_charges_are_integrated(self):
        # the charge at 1 + 1e-8 is pushed left by its neighbour 1e-10 away,
        # faster than the one at 1, so an equal-sign gap closes for a while
        s = make([0.0, 1.0, 1.0 + 1e-8, 1.0 + 1e-8 + 1e-10], [1, 1, 1, 1], gamma=0.25)
        traj = evolve(s, IntegratorConfig(t_end=1.0))
        tight = evolve(s, IntegratorConfig(t_end=1.0, rel_tol=1e-12, abs_tol=1e-15))
        assert not traj.events and traj.final.time == 1.0
        assert np.abs(traj.final.positions - tight.final.positions).max() <= 1e-9

    def test_single_charged_among_neutrals(self):
        s = make([0.0, 0.5, 1.0], [0, 1, 0])
        traj = evolve(s, IntegratorConfig(t_end=2.0))
        assert np.array_equal(traj.final.positions, s.positions)
        assert not traj.events

    def test_event_count_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            x = np.sort(rng.uniform(-1, 1, n))
            x += np.arange(n) * 1e-3
            b = rng.choice([-1, 1], n)
            s = make(x, b)
            traj = evolve(s, IntegratorConfig(t_end=0.5))
            cap = min(int((b == 1).sum()), int((b == -1).sum()))
            assert len(traj.events) <= cap

    def test_degenerate_initial_data_rejected(self):
        with pytest.raises(InvalidState):
            evolve(make([0.0, 0.0], [1, -1]), CFG)

    def test_deterministic(self):
        s = make([-0.4, -0.1, 0.3, 0.9], [1, -1, 1, -1])
        cfg = IntegratorConfig(t_end=0.6, sample_times=(0.1, 0.3, 0.5))
        t1 = evolve(s, cfg)
        t2 = evolve(s, cfg)
        assert np.array_equal(t1.times, t2.times)
        assert np.array_equal(t1.positions, t2.positions)

    def test_step_budget(self, monkeypatch):
        # a run that needs k accepted steps runs with a budget of k and
        # gives up at k - 1
        s = make([-0.5, -0.1, 0.2, 0.7], [1, -1, -1, 1])
        cfg = IntegratorConfig(t_end=0.3)
        want = evolve(s, cfg)
        k = want.stats.accepted
        monkeypatch.setattr(integrator, "MAX_STEPS", k)
        got = evolve(s, cfg)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.positions, want.positions)
        monkeypatch.setattr(integrator, "MAX_STEPS", k - 1)
        with pytest.raises(EvolveError, match=f"exceeded {k - 1} steps"):
            evolve(s, cfg)

    def test_error_carries_trajectory(self, monkeypatch):
        # clustering and pair commits disabled: the pair integrates into the
        # singularity until dt underflows, and the partial trajectory comes
        # back attached
        monkeypatch.setattr(integrator, "MAX_STEPS", 500)
        monkeypatch.setattr(integrator, "CLUSTER_GAP", 1e-300)
        s = make([0.0, 2e-5, 1.0], [1, -1, 1], gamma=0.5)
        with pytest.raises(EvolveError) as exc_info:
            evolve(s, IntegratorConfig(t_end=1.0, pair_isolation=1e-300))
        assert len(exc_info.value.trajectory.times) > 1

    def test_charges_piecewise_constant(self):
        # charges may change only at event times
        s = make([-0.5, -0.1, 0.2, 0.7], [1, -1, -1, 1])
        traj = evolve(s, IntegratorConfig(t_end=1.0))
        taus = {ev.tau for ev in traj.events}
        assert taus
        for t1, b0, b1 in zip(traj.times[1:], traj.charges[:-1], traj.charges[1:]):
            if not np.array_equal(b0, b1):
                assert t1 in taus

    def test_m1_conserved_through_events(self):
        s = make([-0.5, -0.1, 0.2, 0.7], [1, -1, -1, 1])
        traj = evolve(s, IntegratorConfig(t_end=1.0))
        m0 = s.positions.sum()
        drift = np.abs(traj.positions.sum(axis=1) - m0).max()
        assert drift <= 1e-9 * (1 + abs(m0))

    def test_resolution_insensitive_to_cluster_gap(self, monkeypatch):
        # the extrapolated (tau, y) makes the outcome independent of the
        # thresholds at which a generic collapse is resolved: these pairs
        # are committed on isolation
        s = make([-0.6, -0.22, 0.4, 0.75], [1, -1, 1, -1])
        span = np.ptp(s.positions[s.charges != 0])
        runs = []
        for gap, isolation in ((1e-5, 1e-3), (1e-7, 1e-4)):
            monkeypatch.setattr(integrator, "CLUSTER_GAP", gap / span)
            runs.append(evolve(s, IntegratorConfig(t_end=1.0, sample_times=(1.0,),
                                                   pair_isolation=isolation)))
        assert len(runs[0].events) == len(runs[1].events) == 2
        for ea, eb in zip(runs[0].events, runs[1].events):
            assert ea.cluster == eb.cluster
            assert ea.tau == pytest.approx(eb.tau, rel=1e-8, abs=1e-12)
            assert ea.y == pytest.approx(eb.y, abs=1e-8)
        fa, fb = runs[0].final, runs[1].final
        assert fa.positions == pytest.approx(fb.positions, abs=1e-8)

    def test_trajectory_scale_invariance(self):
        # if x(t) solves the system, so does alpha x(t / alpha^2); generic
        # (asymmetric) data so the collision pattern is noise-robust
        alpha = 2.5
        s = make([-0.4, 0.05, 0.6], [1, -1, 1])
        t_end = 0.8
        ts = np.linspace(0.1, t_end, 5)
        base = evolve(s, IntegratorConfig(t_end=t_end, sample_times=tuple(ts)))
        scaled_state = make(alpha * s.positions, s.charges, s.coupling)
        ts2 = alpha * alpha * ts
        scaled = evolve(
            scaled_state,
            IntegratorConfig(t_end=alpha * alpha * t_end, sample_times=tuple(ts2)),
        )
        for t, t2 in zip(ts, ts2):
            xa = base.state_at(t).positions
            xb = scaled.state_at(t2).positions
            assert xb == pytest.approx(alpha * xa, rel=1e-7, abs=1e-8)
        assert len(base.events) == len(scaled.events) == 1
        for ea, eb in zip(base.events, scaled.events):
            assert eb.tau == pytest.approx(alpha * alpha * ea.tau, rel=1e-7)
            assert eb.y == pytest.approx(alpha * ea.y, abs=1e-7)

    def test_near_symmetric_triple_is_a_close_call(self):
        # a gap-symmetric +-+ configuration is the structurally unstable
        # case: integration noise decides whether the triple resolves as
        # one 3-cluster or as a pair plus a survivor, but either outcome
        # stays within the collapse scale of the exact symmetric solution
        # (annihilation at tau = d^2/gamma at the former midpoint)
        d = 0.5
        s = make([0.1 - d, 0.1, 0.1 + d], [1, -1, 1])
        traj = evolve(s, IntegratorConfig(t_end=1.0))
        tau_exact = d * d / s.coupling
        assert traj.events
        assert traj.events[0].tau == pytest.approx(tau_exact, rel=1e-3)
        assert traj.events[0].y == pytest.approx(0.1, abs=5e-3)
        final = traj.final
        assert int(final.charges.sum()) == 1
        survivor = int(np.flatnonzero(final.charges)[0])
        assert final.positions[survivor] == pytest.approx(0.1, abs=5e-3)

    def test_sample_times_hit_exactly(self):
        s = make([-0.5, 0.5], [1, 1])
        ts = (0.123, 0.456, 0.789)
        traj = evolve(s, IntegratorConfig(t_end=1.0, sample_times=ts))
        for t in ts:
            assert traj.state_at(t).time == t

    @pytest.mark.parametrize("store_steps", [True, False])
    def test_every_event_starts_a_run_of_rows(self, store_steps):
        # the property suite reads each inter-event segment as a run of rows
        # with equal charges: every event has a row at exactly its tau, with
        # the charges after it, and the row before holds other charges.
        # Random suite states at n = 4..32, and their positions as a neutral
        # background of a mirror-symmetric +-+ triple colliding at t = 0.5
        rng = np.random.default_rng(25)
        cfg = IntegratorConfig(t_end=1.0, sample_times=tuple(np.linspace(0.0, 1.0, 21)),
                               store_steps=store_steps)
        sizes = []
        for n in (4, 8, 16, 32):
            s = harness._random_state(rng, n)
            triple = np.sqrt(0.5 / (n + 3)) * np.array([-1.0, 0.0, 1.0])
            grouped = make(np.r_[s.positions, triple], np.r_[np.zeros(n, int), 1, -1, 1])
            for state in (s, grouped):
                traj = evolve(state, cfg)
                for ev in traj.events:
                    k = int(np.searchsorted(traj.times, ev.tau))
                    assert traj.times[k] == ev.tau
                    assert tuple(traj.charges[k, list(ev.cluster)]) == ev.post_charges
                    assert (traj.charges[k - 1] != traj.charges[k]).any()
                    sizes.append(len(ev.cluster))
        assert sizes.count(3) == 4 and sizes.count(2) > 20


# isolated collisions far below t = 1: (state, t_end, tau, surviving charge)
_EARLY_COLLISIONS = [
    pytest.param(make([0.0, 0.1], [1, -1], gamma=0.5), 0.01, 0.005, 0, id="pair-0.1"),
    pytest.param(make([0.0, 1e-3], [1, -1], gamma=1e-3), 5e-4, 2.5e-4, 0, id="pair-1e-3"),
] + [
    # mirror-symmetric +-+ triple at neighbour gap d: tau = d^2 / gamma = 0.01
    pytest.param(make(np.sqrt(0.01 * g) * np.array([-1.0, 0.0, 1.0]), [1, -1, 1], gamma=g),
                 0.02, 0.01, 1, id=f"triple-{g:g}")
    for g in (1e-12, 1e-6, 1e-2, 1.0)
]


class TestUnderflowFloor:
    @pytest.mark.parametrize("s, t_end, tau, survivor", _EARLY_COLLISIONS)
    def test_early_collision_ends_in_one_event(self, s, t_end, tau, survivor):
        # the last capped steps before detection are ~1e-15 tau long; the
        # step floor must scale with the state, not sit at 1e-16 absolute
        traj = evolve(s, IntegratorConfig(t_end=t_end))
        assert traj.final.time == t_end
        assert len(traj.events) == 1
        ev = traj.events[0]
        assert ev.tau == pytest.approx(tau, rel=1e-7)
        assert [c for c in ev.post_charges if c] == ([survivor] if survivor else [])

    @pytest.mark.parametrize("variant", ["sample_time", "t_end"])
    def test_event_just_before_a_target(self, variant):
        # the inner pair annihilates 1e-15 before the target; the step left
        # to the target is far below the floor of the repelling outer pair's
        # time scale, and is short only because the target is near.  The
        # pair is committed long before the target, so its tau is the one
        # of a run without it
        s = make([-5.0, -0.7, 0.7, 5.0], [1, 1, -1, 1], gamma=0.5)
        (ev,) = evolve(s, IntegratorConfig(t_end=1.0)).events
        target = ev.tau + 1e-15
        if variant == "t_end":
            cfg = IntegratorConfig(t_end=target)
        else:
            cfg = IntegratorConfig(t_end=1.0, sample_times=(target,))
        traj = evolve(s, cfg)
        assert traj.events == [ev]
        assert traj.state_at(target).time == target
        assert np.flatnonzero(traj.state_at(target).charges).tolist() == [0, 3]

    def test_close_equal_charge_pair_separates(self):
        # repulsion at gap 1e-10 starts on a time scale of ~1e-21
        s = make([0.0, 1e-10], [1, 1], gamma=1.0)
        traj = evolve(s, IntegratorConfig(t_end=1.0))
        d = traj.final.positions[1] - traj.final.positions[0]
        assert not traj.events
        assert d * d == pytest.approx(1e-20 + 4.0, rel=1e-6)


def _odd_lattice():
    return make(np.arange(1.0, 10.0), np.ones(9, int))


def _random_16():
    rng = np.random.default_rng(16)
    x = np.cumsum(rng.uniform(0.3, 1.0, 16)) / 8.0
    b = rng.choice([-1, 1], 16)
    return make(x - x.mean(), b)


def _ladder_rung_16():
    """The seed-0 double_bump ladder rung at n = 16 and its config, every step stored."""
    from annihilate import harness

    spec = harness.ExperimentSpec(datum="double_bump", ns=(16,), offset=0.5)
    L = spec.scheme_config().L
    state = harness.sample_particles(harness.CATALOG["double_bump"].u0, 16, spec.offset,
                                     window=(-L, L), scan_points=spec.scan_points)
    return state, dataclasses.replace(spec.integrator_config(), store_steps=True)


def _ladder_rung_16_at_the_default_isolation():
    """_ladder_rung_16 with the module's PAIR_ISOLATION, not the ladder's."""
    state, cfg = _ladder_rung_16()
    return state, dataclasses.replace(cfg, pair_isolation=PAIR_ISOLATION)


# -1 charges at 0..6, then a -+- triple at 7, 7.000001 and 7.000002, coupling
# 1e-12: the triple falls below the clustering gap (CLUSTER_GAP x the charged
# span, 7) near t = 0.5, where its collision is committed at tau =
# 1.0000000018, just past t = 1
MPM = make(np.r_[np.arange(8.0), 7.000001, 7.000002], [-1] * 8 + [1, -1], gamma=1e-12)


class TestCommittedCluster:
    def test_events_do_not_depend_on_the_horizon(self):
        short = evolve(MPM, IntegratorConfig(t_end=1.0))
        long = evolve(MPM, IntegratorConfig(t_end=2.0))
        assert [ev.cluster for ev in long.events] == [(7, 8, 9)]
        assert short.events == [ev for ev in long.events if ev.tau <= 1.0]

    @pytest.mark.parametrize("sample", [0.8, 0.95, 0.999])
    def test_collision_ignores_the_sample_times(self, sample):
        (ev,) = evolve(MPM, IntegratorConfig(t_end=2.0)).events
        (got,) = evolve(MPM, IntegratorConfig(t_end=2.0, sample_times=(sample,))).events
        assert got.cluster == ev.cluster
        assert abs(got.tau - ev.tau) <= 1e-12 * ev.tau

    def test_restart_from_a_row_before_the_collision(self):
        # the row at 0.999 holds the triple shrunk uniformly about y, so a
        # run from it commits the same (tau, y) up to rounding
        run = evolve(MPM, IntegratorConfig(t_end=2.0, sample_times=(0.999,)))
        (ev,) = evolve(run.state_at(0.999), IntegratorConfig(t_end=2.0)).events
        assert ev.cluster == run.events[0].cluster == (7, 8, 9)
        assert abs(ev.tau - run.events[0].tau) <= 1e-9 * run.events[0].tau

    def test_bystanders_follow_the_net_charge(self):
        # seen from distance D >= 1 the triple is one -1 charge at its mean;
        # leaving it out of the field over [t_c, tau] moves a bystander by at
        # most gamma |q| tau / D = 1e-12
        tight = dict(t_end=2.0, rel_tol=1e-12, abs_tol=1e-16)
        ref = evolve(make(np.r_[np.arange(7.0), 7.000001], [-1] * 8, gamma=1e-12),
                     IntegratorConfig(**tight))
        traj = evolve(MPM, IntegratorConfig(t_end=2.0))
        assert np.abs(traj.final.positions[:7] - ref.final.positions[:7]).max() <= 1e-12


class TestStats:
    @pytest.mark.parametrize(
        "make_state, has_events", [(_odd_lattice, False), (_random_16, True)],
        ids=["odd9", "random16"],
    )
    def test_evaluation_budget(self, make_state, has_events):
        # DP5 with FSAL: one evaluation to start, one after each commit (each
        # ends in a pair event here) and one after each event with a
        # survivor (none here), then at most six per attempt
        traj = evolve(make_state(), IntegratorConfig(t_end=1.0))
        assert bool(traj.events) == has_events
        st = traj.stats
        attempts = st.accepted + st.rejected_error + st.rejected_order
        assert st.accepted > 0
        assert st.force_evals <= 1 + len(traj.events) + 6 * attempts
        # store_steps: one row per accepted step and one at each collision,
        # which leaves no survivor here and so ends no step: its row is
        # placed by the continuous extension
        assert not any(any(ev.post_charges) for ev in traj.events)
        assert st.accepted + len(traj.events) == len(traj.times) - 1

    def test_ladder_isolation_commits_sooner(self):
        # at the ladder's isolation a closing pair is committed before the
        # collision cap walks it down: the same events in fewer steps
        ladder = evolve(*_ladder_rung_16())
        default = evolve(*_ladder_rung_16_at_the_default_isolation())
        assert len(ladder.events) == len(default.events) > 0
        assert ladder.stats.cap_bound < default.stats.cap_bound
        assert ladder.stats.accepted < default.stats.accepted
        assert ladder.stats.force_evals < default.stats.force_evals

    @pytest.mark.parametrize(
        "make_run, collision_cap_only_evals",
        [(_ladder_rung_16, 690), (_ladder_rung_16_at_the_default_isolation, 888)],
        ids=["rung16", "rung16-default"],
    )
    def test_ordering_cap_keeps_every_stage_in_order(self, make_run, collision_cap_only_evals):
        # capping dt by each closing opposite gap over its closing speed
        # keeps every stage point ordered on the ladder rung, where a stage
        # that crossed a neighbor cost the stages before it and half of dt;
        # with the collision cap alone the rung took 2 such rejections and
        # collision_cap_only_evals force evaluations
        st = evolve(*make_run()).stats
        assert st.events == 8
        assert st.rejected_order == 0
        assert st.force_evals < collision_cap_only_evals

    def test_force_evals_counts_every_evaluation(self, monkeypatch):
        import annihilate.integrator as integ

        calls = []
        real = integ.velocity_field

        def counting(x, b, g, **kw):
            calls.append(1)
            return real(x, b, g, **kw)

        monkeypatch.setattr(integ, "velocity_field", counting)
        traj = integ.evolve(_random_16(), IntegratorConfig(t_end=1.0))
        assert traj.stats.force_evals == len(calls)

    def test_step_counters_on_the_ladder_rung(self, monkeypatch):
        state, cfg = _ladder_rung_16()
        # a step is cap-bound when the collision cap or the ordering cap is
        # below both its stop and the controller's hint, worked out here
        # before each step
        capped = []
        real = integrator._step_core

        def spy(x, t, dt_max, seg, config, k0, stats):
            if seg.opposite.any():
                gaps = np.diff(x)
                g = float(gaps[seg.opposite].min())
                closing = ((k0[:-1] - k0[1:]) / gaps)[seg.opposite].max()
                cap = COLLISION_SAFETY * g * g / (4.0 * seg.gamma)
                if closing > 0:
                    cap = min(cap, ORDERING_SAFETY / float(closing))
                capped.append(cap <= seg.hint and cap < dt_max)
            return real(x, t, dt_max, seg, config, k0, stats)

        monkeypatch.setattr(integrator, "_step_core", spy)
        traj = evolve(state, cfg)
        st = traj.stats
        assert st.events == len(traj.events) == 8
        assert all(len(ev.cluster) == 2 for ev in traj.events)
        assert 0 < st.cap_bound == sum(capped) < st.accepted
        # with pairs only, t_end is the one stop that ends a step; the rows
        # at the sample times and collision times lie inside steps, and
        # every other row is a step's end
        soft = {*cfg.sample_times, *(ev.tau for ev in traj.events)} - {0.0, cfg.t_end}
        assert st.target_clipped == 1
        ends = traj.times[~np.isin(traj.times, list(soft))]
        assert ends.size + len(soft) == traj.times.size
        steps = np.diff(ends)
        assert steps.size == st.accepted
        clock = 4 * np.spacing(cfg.t_end)  # the rounding of t + dt
        assert abs(st.dt_min - steps.min()) <= clock and abs(st.dt_max - steps.max()) <= clock

    def test_step_control_budget_on_the_ladder_rung(self):
        # while a collision approaches, the step the error allows shrinks
        # from step to step; the predictive factor follows that trend, where
        # the PI factor alone (121 rejections on 210 steps, 1,998 force
        # evaluations) has about every other step rejected once
        state, cfg = _ladder_rung_16()
        st = evolve(state, cfg).stats
        assert st.events == 8
        assert st.rejected_error <= st.accepted / 3
        assert st.force_evals <= 1800

    def test_default_tolerances_track_a_tight_run(self):
        # step control changes where the steps fall, not what they converge
        # to: the events and the final state agree with a run at far
        # tighter tolerances
        s, t_end = _random_16(), 1.0
        loose = evolve(s, IntegratorConfig(t_end=t_end))
        tight = evolve(s, IntegratorConfig(t_end=t_end, abs_tol=1e-14, rel_tol=1e-12))
        assert len(loose.events) == len(tight.events) == 7
        for a, b in zip(loose.events, tight.events):
            assert (a.cluster, a.pre_charges, a.post_charges) == (b.cluster, b.pre_charges,
                                                                  b.post_charges)
            assert a.tau == pytest.approx(b.tau, rel=1e-6)
        np.testing.assert_array_equal(loose.final.charges, tight.final.charges)
        np.testing.assert_allclose(loose.final.positions, tight.final.positions, rtol=0, atol=1e-9)

    def test_detect_clusters_accepts_given_velocities(self):
        s = make([0.0, 1e-9, 1.0], [1, -1, 1])
        v = velocities(s)
        assert detect(s, v) == [[0, 1]]
        # the given field decides: an opening pair is not a cluster
        assert detect(s, -v) == []

    def test_states_are_built_only_at_events(self, monkeypatch):
        # between events evolve steps on arrays; it validates a state only
        # after a step that ends on one or more collisions
        import annihilate.integrator as integ

        built = []

        class Counting(integ.ParticleState):
            def __post_init__(self):
                built.append(1)
                super().__post_init__()

        monkeypatch.setattr(integ, "ParticleState", Counting)
        traj = integ.evolve(_random_16(), IntegratorConfig(t_end=1.0))
        count = len(built)
        assert traj.events and traj.stats.accepted > 10 * (2 * len(traj.events) + 1)
        assert count <= len(traj.events)

    @pytest.mark.parametrize("make_run", [_ladder_rung_16, lambda: (MPM, IntegratorConfig())],
                             ids=["rung16", "-+-"])
    def test_one_empty_detection_per_accepted_step(self, make_run, monkeypatch):
        # benchmarks/layers.py counts accepted steps as the detections that
        # find nothing: each iteration commits until one does, then steps
        empty = []
        real = integrator.detect_clusters

        def counting(*args):
            clusters = real(*args)
            empty.append(not clusters)
            return clusters

        monkeypatch.setattr(integrator, "detect_clusters", counting)
        traj = evolve(*make_run())
        assert traj.stats.accepted == sum(empty) > 0


def _verify_suite_run(k: int):
    """Run k of the benchmark's verify suite (seed 0, n = 8, t_end 1) and its config."""
    rng = np.random.default_rng(0)
    for _ in range(k + 1):
        state = harness._random_state(rng, int(rng.choice([8])))
    return state, IntegratorConfig(t_end=1.0, sample_times=tuple(np.linspace(0.0, 1.0, 21)))


class TestHeldBuffers:
    @pytest.mark.parametrize(
        "make_run",
        [_ladder_rung_16, _ladder_rung_16_at_the_default_isolation,
         lambda: (MPM, IntegratorConfig(t_end=2.0)),
         *(lambda k=k: _verify_suite_run(k) for k in range(4))],
        ids=["rung16", "rung16-default", "-+-", *(f"verify{k}" for k in range(4))],
    )
    def test_evolve_is_bit_identical_to_the_fresh_array_step(self, make_run, monkeypatch):
        # the segment's held buffers and detect_clusters' early exit change
        # no floating-point operation: every row, event and counter is equal
        # to a run with a fresh array for every temporary and every link
        # looked at
        state, cfg = make_run()
        held = evolve(state, cfg)
        monkeypatch.setattr(integrator, "_step_core", step_core_fresh)
        monkeypatch.setattr(integrator, "detect_clusters", detect_clusters_every_link)
        fresh = evolve(state, cfg)
        for name in ("times", "positions", "charges"):
            assert getattr(held, name).tobytes() == getattr(fresh, name).tobytes()
        assert held.events == fresh.events and held.stats == fresh.stats
        assert held.stats.accepted > 0

    def test_returned_buffers_alternate(self):
        # a step writes the position buffer its input is not in, so the
        # previous step's result stays intact while it is read
        s = _random_16()
        seg = integrator._Segment(s.charges, s.coupling)
        x = s.positions.copy()
        k0 = velocity_field(x, seg.bf, seg.gamma, work=seg.work)
        stats = integrator.StepStats()
        x1, _, k1 = integrator._step_core(x, 0.0, 1e-3, seg, CFG, k0, stats)
        kept = x1.copy()
        x2, _, _ = integrator._step_core(x1, 1e-3, 1e-3, seg, CFG, k1[6], stats)
        assert x2 is not x1 and x1.tobytes() == kept.tobytes()
        assert {id(x1), id(x2)} == {id(p) for p in seg.pos}


class TestSoftStops:
    """Sample times and neutral collisions are placed inside steps by the continuous extension."""

    @pytest.mark.parametrize(
        "make_run",
        [lambda: (_random_16(), 1.0), lambda: (MPM, 2.0),
         *(lambda k=k: (_verify_suite_run(k)[0], 1.0) for k in range(2))],
        ids=["random16", "-+-", "verify0", "verify1"],
    )
    def test_sample_times_do_not_move_the_steps(self, make_run):
        # only t_end and a collision with a survivor end a step, so a run
        # with 21 sample times takes the same steps as one without: its
        # other rows and its events are bit for bit those of the plain run
        state, t_end = make_run()
        plain = evolve(state, IntegratorConfig(t_end=t_end))
        grid = np.linspace(0.0, t_end, 21)
        sampled = evolve(state, IntegratorConfig(t_end=t_end, sample_times=tuple(grid)))
        assert plain.events and sampled.events == plain.events
        steps = ~np.isin(sampled.times, grid[1:-1])
        assert steps.sum() == plain.times.size == sampled.times.size - 19
        for name in ("times", "positions", "charges"):
            assert getattr(sampled, name)[steps].tobytes() == getattr(plain, name).tobytes()
        assert sampled.stats.force_evals == plain.stats.force_evals

    def test_an_out_of_order_row_ends_the_step(self, monkeypatch):
        # weights that place every row at NaN, never strictly increasing:
        # each soft stop inside a step discards that step, which is taken
        # again to end there, so every row is a step's end and ordered
        state = _random_16()
        cfg = IntegratorConfig(t_end=1.0, sample_times=tuple(np.linspace(0.0, 1.0, 21)),
                               store_steps=False)
        plain = evolve(state, cfg)
        monkeypatch.setattr(integrator, "_dense_weights", lambda theta: np.full(7, np.nan))
        traj = evolve(state, cfg)
        assert [ev.cluster for ev in traj.events] == [ev.cluster for ev in plain.events]
        for ev, ref in zip(traj.events, plain.events):
            assert ev.tau == pytest.approx(ref.tau, rel=1e-6)
        soft = 19 + len(traj.events)  # the sample times inside (0, 1) and the pair collisions
        assert not any(any(ev.post_charges) for ev in traj.events)
        assert traj.stats.target_clipped == soft + 1
        assert traj.stats.rejected_order >= soft
        assert traj.times.size == soft + 2 and np.isfinite(traj.positions).all()
        for k in range(traj.times.size):
            traj.state(k)  # a ParticleState: the charged positions strictly increase

    @pytest.mark.parametrize("theta", [0.0, 0.2, 0.5, 0.7, 1.0])
    def test_dense_weights_are_4th_order(self, theta):
        # the eight order conditions of x0 + dt (w(theta) @ k) up to order 4
        # with the tableau's nodes c and matrix a, each tree's value at theta
        # over its density; at theta = 1 the step's own 5th-order solution
        a = np.zeros((7, 7))
        for i, row in enumerate(integrator._DP_A):
            a[i, :row.size] = row
        c = a.sum(axis=1)
        w = integrator._dense_weights(theta)
        trees = [(w.sum(), 1), (w @ c, 2), (w @ c**2, 3), (w @ (a @ c), 6), (w @ c**3, 4),
                 (w @ (c * (a @ c)), 8), (w @ (a @ c**2), 12), (w @ (a @ (a @ c)), 24)]
        for value, density in trees:
            order = {1: 1, 2: 2, 3: 3, 6: 3, 4: 4, 8: 4, 12: 4, 24: 4}[density]
            assert value == pytest.approx(theta**order / density, abs=1e-15)
        if theta == 1.0:
            np.testing.assert_allclose(w, integrator._DP_B, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k", range(4))
    def test_sample_rows_track_a_tight_run(self, k):
        # a row placed inside a step carries the run's own error: on the
        # benchmark's verify runs the sample rows stay within 1e-7 of a run
        # at rel_tol 1e-12 (measured up to 6.5e-9), where linear
        # interpolation between step ends is off by 4.5e-5 to 2.2e-4
        state, cfg = _verify_suite_run(k)
        cfg = dataclasses.replace(cfg, store_steps=False)
        tight = evolve(state, dataclasses.replace(cfg, abs_tol=1e-16, rel_tol=1e-12))
        run = evolve(state, cfg)
        for t in cfg.sample_times:
            gap = np.abs(run.state_at(t).positions - tight.state_at(t).positions).max()
            assert gap <= 1e-7, (t, gap)


@st.composite
def degenerate_states(draw):
    """Small states at the edges of the admissible space.

    A background of 2..7 particles (any charges, gaps 0.05..1) gets one of:
    a +-+ or -+- triple, symmetric up to a relative 1e-9 and sometimes
    alone among neutrals, whose isolated collision time d^2 / gamma lies in
    [0.01, 2]; or an opposite pair whose gap is within 2x of the
    clustering gap at t = 0 (CLUSTER_GAP x the charged span).  The coupling
    gamma goes down to 1e-12.
    """
    coupling = 10.0 ** draw(st.floats(-12.0, 0.0))
    n = draw(st.integers(2, 7))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    b = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)))
    b[0] = draw(st.sampled_from([-1, 1]))  # the pair's spread then runs from x[0] = 0
    sign = draw(st.sampled_from([-1, 1]))
    at = x[-1] + draw(st.floats(0.05, 1.0))
    if draw(st.booleans()):
        d = np.sqrt(coupling * draw(st.floats(0.01, 2.0)))
        skew = draw(st.sampled_from([0.0]) | st.floats(-1e-9, 1e-9))
        extra_x = at + d * np.array([0.0, 1.0, 2.0 + skew])
        extra_b = sign * np.array([1, -1, 1])
        if draw(st.booleans()):
            b[:] = 0  # a neutral background leaves the triple isolated
    else:
        gap = draw(st.floats(0.5, 2.0)) * 1e-7 * at  # at is the spread up to 1e-7
        extra_x = at + np.array([0.0, gap])
        extra_b = sign * np.array([1, -1])
    return make(np.concatenate([x, extra_x]), np.concatenate([b, extra_b]), gamma=coupling)


class TestDegenerateFuzz:
    @given(degenerate_states())
    # a -+- triple at coupling 1e-12 is detected long before it collides, and
    # its extrapolated collision time lies 1.8e-9 past t_end
    @example(MPM)
    # the time scale d^2 / (4 gamma) of gaps d = 1e-200 underflows to 0, so
    # the step size floor is 0 too and no step can advance
    @example(make([-1e-200, 0.0, 1e-200], [1, -1, 1]))
    # a gap of 1e300 squares to inf, so the committed pair's tau is inf and
    # its members stay where they were committed
    @example(make([-1e300, 1e300], [1, -1]))
    # about the charged span's midpoint 5e19, 0 and 1 would coincide
    @example(make([0.0, 1.0, 1e20], [1, -1, 1]))
    # a neutral shifted by the charged span's midpoint 1.25e308 would be -inf
    @example(make([-1e308, 1e308, 1.5e308], [0, 1, -1]))
    @settings(max_examples=100, deadline=None)
    def test_only_typed_errors_escape(self, s):
        try:
            traj = evolve(s, IntegratorConfig(t_end=1.0))
        except (EvolveError, InvalidState):
            return
        final = traj.final
        assert final.time == 1.0
        assert np.isfinite(traj.positions).all()
        assert net_charge(final) == net_charge(s)
        pos, neg = int((s.charges == 1).sum()), int((s.charges == -1).sum())
        assert len(traj.events) <= min(pos, neg)


class TestHermiteLattice:
    """All-positive charges at scaled Hermite zeros: the exact n-body law (Stieltjes 1885).

    The zeros h_i of H_n satisfy sum_{j != i} 1/(h_i - h_j) = h_i, so
    particles at s0 h_i with coupling gamma move with velocity gamma h_i / s0
    and stay on the lattice sqrt(s0^2 + 2 gamma t) h_i.
    """

    @staticmethod
    def lattice(n):
        h = np.polynomial.hermite.hermgauss(n)[0]
        s0 = 1.0 / float(np.max(np.abs(h)))
        return h, s0, make(s0 * h, np.ones(n, int), gamma=1.0 / n)

    @pytest.mark.parametrize("n", [64, 256])
    def test_velocity_field(self, n):
        h, s0, s = self.lattice(n)
        x, gamma, eps = s.positions, s.coupling, np.finfo(float).eps
        v = velocity_field(x, s.charges, gamma)
        d = x[:, None] - x[None, :] + np.eye(n)
        off = 1.0 - np.eye(n)
        # the bound of TestKernelAccuracy against the exact sum over these floats
        kernel = 4.0 * eps * gamma * (off / np.abs(d)).sum(axis=1)
        exact = np.array([gamma * math.fsum(1.0 / (x[i] - np.delete(x, i))) for i in range(n)])
        assert np.all(np.abs(v - exact) <= kernel)
        # the floats sit off the exact lattice by up to eps relative (zeros
        # accurate to about an ulp, one rounding of s0 h), which moves the
        # exact field by at most gamma sum_j eps (|x_i| + |x_j|) / (x_i - x_j)^2
        lattice = eps * gamma * (off * (np.abs(x)[:, None] + np.abs(x)[None, :]) / d**2).sum(axis=1)
        assert np.all(np.abs(v - gamma * h / s0) <= kernel + lattice)

    @pytest.mark.parametrize("n", [64, 256])
    def test_evolve_stays_on_the_lattice(self, n):
        h, s0, s = self.lattice(n)
        traj = evolve(s, IntegratorConfig(t_end=1.0, store_steps=False))
        exact = np.sqrt(s0 * s0 + 2.0 * s.coupling * 1.0) * h
        x = traj.final.positions
        assert traj.final.time == 1.0 and not traj.events
        assert np.max(np.abs(x - exact)) <= 1e-8 * np.max(np.abs(x))


class TestCollisionProfiles:
    """Isolated alternating clusters started on their self-similar collapse profile.

    x_i = y + xi_i sqrt(gamma tau) collides at exactly (tau, y).  Profiles
    of three or more charges are unstable, so only the +- profile is run
    unperturbed; the +-+ profile is run with its middle particle shifted,
    where the survivor's offset follows the linearization's Hölder law.
    """

    GAMMA, TAU, Y = 1e-3, 1.0, 0.25

    @pytest.mark.parametrize("b, want", [
        ((1, -1), (-1.0, 1.0)),
        ((1, -1, 1), (-1.0, 0.0, 1.0)),
        ((1, -1, 1, -1), (-1.38209252, -0.29970032, 0.29970032, 1.38209252)),
        ((1, -1, 1, -1, 1), (-1.31607401, -0.51763809, 0.0, 0.51763809, 1.31607401)),
    ], ids=["+-", "+-+", "+-+-", "+-+-+"])
    def test_profile(self, b, want):
        xi = collision_profile(b)
        # the wanted values carry eight decimals
        assert np.max(np.abs(xi - want)) <= 1e-8
        assert np.max(np.abs(profile_equation(b, xi))) <= 1e-14
        # the second-moment law: sum xi^2 = m - q^2
        assert np.sum(xi * xi) == pytest.approx(len(b) - sum(b) ** 2, abs=1e-13)

    def test_isolated_cluster_moment_identity(self):
        # sum (x_i - y) v_i = gamma (q^2 - m) / 2 for any y, since the
        # pairwise terms sum to gamma sum_{i != j} b_i b_j / 2
        rng = np.random.default_rng(5)
        for m in (2, 3, 4, 5):
            for _ in range(20):
                x = np.sort(rng.uniform(-1.0, 1.0, m))
                b = rng.choice([-1, 1], m)
                gamma, y = rng.uniform(1e-3, 1.0), rng.uniform(-1.0, 1.0)
                v = velocity_field(x, b, gamma)
                lhs = float(np.sum((x - y) * v))
                want = gamma * (b.sum() ** 2 - m) / 2.0
                # rounding: a few ulps of the largest term, relative
                assert abs(lhs - want) <= 64 * np.finfo(float).eps * float(np.sum(np.abs((x - y) * v)))

    def run(self, xi, b):
        s = math.sqrt(self.GAMMA * self.TAU)
        return evolve(make(self.Y + xi * s, b, self.GAMMA), IntegratorConfig(t_end=2.0))

    def test_pair_collides_at_tau_and_y(self):
        b = (1, -1)
        (ev,) = self.run(collision_profile(b), b).events
        assert abs(ev.tau - self.TAU) <= 1e-6 * self.TAU
        assert abs(ev.y - self.Y) <= 1e-9

    @pytest.mark.parametrize("restart", [0.99, 0.999, 0.9999])
    def test_triple_restarts_from_its_rows(self, restart):
        # the clustering gap is a length of the state, so a run restarted from
        # a row close to the collision commits the triple as the run does
        b = (1, -1, 1)
        s = make(np.array([-1.0, 0.0, 1.0]) * math.sqrt(self.GAMMA * self.TAU), b, self.GAMMA)
        (ev,) = evolve(s, IntegratorConfig(t_end=2.0)).events
        run = evolve(s, IntegratorConfig(t_end=2.0, sample_times=(restart,)))
        (got,) = evolve(run.state_at(restart), IntegratorConfig(t_end=2.0)).events
        assert ev.cluster == got.cluster == (0, 1, 2)
        assert abs(got.tau - ev.tau) <= 1e-9 * ev.tau

    def test_perturbed_triple_survivor_follows_the_holder_law(self):
        # the +-+ profile has growth rate 3.5 besides the trivial ones, so a
        # shift delta of the middle charge moves the survivor by about
        # C delta^(1/7): a factor 100^(1/7) per two decades of delta
        b = (1, -1, 1)
        s = math.sqrt(self.GAMMA * self.TAU)
        offsets = []
        for delta in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            xi = collision_profile(b)
            xi[1] += delta
            traj = self.run(xi, b)
            (survivor,) = traj.positions[-1][traj.charges[-1] != 0]
            offsets.append(abs(survivor - self.Y) / s)
        ratios = [a / c for a, c in zip(offsets[:-1], offsets[1:])]
        want = 100.0 ** (1.0 / 7.0)
        assert all(abs(q / want - 1.0) <= 0.05 for q in ratios), (offsets, ratios)


class TestSymmetries:
    """evolve() commutes with translation, reflection and charge flip of the ODE.

    On 20 random n = 8 states, whose lengths and times are O(1), sampled at
    0.1, 0.2, ..., 1.0.  A translated run is integrated from the midpoint of
    its charged span, so it differs from the plain run only by the rounding
    of x + c, a few ulp(c).
    """

    CFG = IntegratorConfig(t_end=1.0, sample_times=tuple(np.linspace(0.0, 1.0, 11)[1:]),
                           store_steps=False)

    @pytest.fixture(scope="class")
    def runs(self):
        rng = np.random.default_rng(1)
        states = [harness._random_state(rng, 8) for _ in range(20)]
        return [(s, evolve(s, self.CFG)) for s in states]

    @pytest.mark.parametrize("k, ulps", [(20, 8), (30, 8), (40, 64)])
    def test_translation(self, runs, k, ulps):
        c = 2.0**k
        bound = ulps * np.spacing(c)
        for s, base in runs:
            moved = evolve(make(s.positions + c, s.charges), self.CFG)
            assert [(ev.cluster, ev.post_charges) for ev in moved.events] == [
                (ev.cluster, ev.post_charges) for ev in base.events]
            for ev, ref in zip(moved.events, base.events):
                assert abs(ev.tau - ref.tau) <= bound and abs(ev.y - c - ref.y) <= bound
            assert np.abs(moved.final.positions - c - base.final.positions).max() <= bound

    def test_translated_triple_at_1e15_collides(self):
        # gaps of 2 ulps of 1e15: integrated about 0, the steps no longer round away
        x = 1e15 + np.array([0.0, 0.25, 0.5])
        traj = evolve(make(x, [1, -1, 1]), CFG)
        assert traj.positions[0].tolist() == x.tolist()
        (ev,) = traj.events
        assert ev.cluster == (0, 1, 2)
        assert ev.tau == pytest.approx(0.1875, rel=1e-8)
        assert ev.y == x[1]

    def test_lopsided_state_keeps_its_precision_near_0(self):
        # the span [0, 1e10] is not centred: about 5e9 the gap 1e-3 would be
        # held to 1e-6, and tau = g^2 / (4 gamma) off by 2e-3 relative
        traj = evolve(make([0.0, 1e-3, 1e10], [1, -1, 1]), CFG)
        (ev,) = traj.events
        assert ev.cluster == (0, 1)
        assert ev.tau == pytest.approx(1e-6 / (4 / 3), rel=1e-9)
        assert ev.y == pytest.approx(5e-4, abs=1e-18)

    @pytest.mark.parametrize("x, b", [
        ([0.1, 1e15, 1e15 + 0.25], [0, 1, -1]),
        ([-1e308, 1e308, 1.5e308], [0, 1, -1]),
    ])
    def test_neutrals_keep_their_input_positions(self, x, b):
        traj = evolve(make(x, b), CFG)
        assert (traj.positions[:, 0] == x[0]).all()
        assert np.isfinite(traj.positions).all()

    def test_reflection(self, runs):
        for s, base in runs:
            r = evolve(make(-s.positions[::-1], s.charges[::-1]), self.CFG)
            n = s.n
            assert [tuple(sorted(n - 1 - i for i in ev.cluster)) for ev in r.events] == [
                ev.cluster for ev in base.events]
            for ev, ref in zip(r.events, base.events):
                assert abs(ev.tau - ref.tau) <= 1e-13 and abs(ev.y + ref.y) <= 1e-13
            assert np.abs(r.times - base.times).max() <= 1e-13
            assert np.abs(-r.positions[:, ::-1] - base.positions).max() <= 1e-13
            assert np.array_equal(r.charges[:, ::-1], base.charges)

    def test_charge_flip(self, runs):
        for s, base in runs:
            f = evolve(make(s.positions, -s.charges), self.CFG)
            assert [(ev.tau, ev.y, ev.cluster) for ev in f.events] == [
                (ev.tau, ev.y, ev.cluster) for ev in base.events]
            assert np.array_equal(f.times, base.times)
            assert np.array_equal(f.positions, base.positions)
            assert np.array_equal(f.charges, -base.charges)

    @pytest.mark.parametrize("lam", [2.0**-10, 2.0**-3, 2.0**3, 2.0**10, 1e-3, 1e3])
    def test_scaling(self, runs, lam):
        # x -> lam x, t -> lam^2 t maps solutions to solutions at the same
        # coupling.  With lam a power of 2 and abs_tol scaled by lam every
        # operation scales exactly, so the runs agree bit for bit.  Else
        # abs_tol stays absolute, and the error scale abs_tol + rel_tol |x|
        # moves relative to the span: the events keep their clusters, and
        # each tau moves by at most 1e-6 relative (3.0e-9 measured at 1e3,
        # 1.0e-7 at 1e-3)
        exact = math.frexp(lam)[0] == 0.5
        cfg = self.CFG
        scaled_cfg = dataclasses.replace(
            cfg, t_end=lam * lam * cfg.t_end,
            sample_times=tuple(lam * lam * t for t in cfg.sample_times),
            abs_tol=lam * cfg.abs_tol if exact else cfg.abs_tol)
        for s, base in runs:
            scaled = evolve(make(lam * s.positions, s.charges, s.coupling), scaled_cfg)
            assert [ev.cluster for ev in scaled.events] == [ev.cluster for ev in base.events]
            if exact:
                assert scaled.times.tobytes() == (lam * lam * base.times).tobytes()
                assert scaled.positions.tobytes() == (lam * base.positions).tobytes()
                assert scaled.charges.tobytes() == base.charges.tobytes()
                assert scaled.events == [dataclasses.replace(ev, tau=lam * lam * ev.tau,
                                                             y=lam * ev.y) for ev in base.events]
            else:
                for ev, ref in zip(scaled.events, base.events):
                    assert abs(ev.tau - lam * lam * ref.tau) <= 1e-6 * lam * lam * ref.tau
