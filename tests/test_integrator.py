import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annihilate.integrator import (
    EvolveError,
    IntegratorConfig,
    NonAlternatingCluster,
    StepSizeUnderflow,
    detect_clusters,
    evolve,
    resolve_annihilation,
)
from annihilate.particles import (
    InvalidState,
    ParticleState,
    net_charge,
    same_sign_gap,
    velocities,
)
from reference import step


def make(x, b, gamma=None, t=0.0):
    return ParticleState(
        positions=np.asarray(x, float),
        charges=np.asarray(b, int),
        coupling=-1.0 if gamma is None else gamma,
        time=t,
    )


CFG = IntegratorConfig(t_end=1.0)


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
        assert dt <= CFG.safety * g * g / (4.0 * s.coupling) + 1e-18

    def test_underflow_detected(self):
        s = make([0.0, 1e-13], [1, -1], gamma=0.5)
        cfg = IntegratorConfig(t_end=1.0, cluster_gap=1e-300)
        with pytest.raises(StepSizeUnderflow):
            for _ in range(200):
                s, _ = step(s, 1.0, cfg)


class TestDetect:
    def test_close_pair_detected(self):
        s = make([0.0, 1e-9, 1.0], [1, -1, 1])
        cfg = IntegratorConfig(t_end=1.0, cluster_gap=1e-7)
        assert detect_clusters(s, cfg) == [[0, 1]]

    def test_symmetric_triple(self):
        s = make([-1e-9, 0.0, 1e-9], [1, -1, 1])
        cfg = IntegratorConfig(t_end=1.0, cluster_gap=1e-7)
        assert detect_clusters(s, cfg) == [[0, 1, 2]]

    def test_equal_sign_pair_not_clustered(self):
        # equal charges repel, so the gap is growing and no cluster forms
        s = make([0.0, 1e-9], [1, 1])
        cfg = IntegratorConfig(t_end=1.0, cluster_gap=1e-7)
        assert detect_clusters(s, cfg) == []

    def test_non_alternating_raises(self, monkeypatch):
        # equal-sign neighbors cannot approach under the true dynamics, so
        # the alternation guard is exercised with an injected velocity field
        import annihilate.integrator as integ

        s = make([0.0, 1e-9], [1, 1])
        monkeypatch.setattr(
            integ, "velocity_field", lambda x, b, g: np.array([1.0, -1.0])
        )
        cfg = IntegratorConfig(t_end=1.0, cluster_gap=1e-7)
        with pytest.raises(NonAlternatingCluster):
            integ.detect_clusters(s, cfg)


class TestResolve:
    def test_pair(self):
        s = make([0.0, 1e-9], [1, -1])
        new, ev = resolve_annihilation(s, [0, 1], CFG)
        assert tuple(new.charges) == (0, 0)
        assert ev.y == pytest.approx(5e-10)
        assert new.positions[0] == new.positions[1] == ev.y
        assert sum(ev.post_charges) == sum(ev.pre_charges) == 0

    def test_triple_survivor(self):
        s = make([-1e-9, 0.0, 1e-9], [1, -1, 1])
        new, ev = resolve_annihilation(s, [0, 1, 2], CFG)
        assert sorted(ev.post_charges) == [0, 0, 1]
        survivor = [i for i in ev.cluster if new.charges[i] != 0][0]
        assert new.positions[survivor] == ev.y

    def test_net_charge_preserved(self):
        s = make([-2e-9, -1e-9, 0.0, 1e-9, 2e-9], [-1, 1, -1, 1, -1])
        q0 = net_charge(s)
        new, ev = resolve_annihilation(s, [0, 1, 2, 3, 4], CFG)
        assert net_charge(new) == q0 == -1

    def test_first_moment_preserved_exactly(self):
        s = make([0.1, 0.1 + 1e-9, 0.1 + 3e-9], [1, -1, 1])
        m0 = s.positions.sum()
        new, _ = resolve_annihilation(s, [0, 1, 2], CFG)
        assert new.positions.sum() == pytest.approx(m0, abs=1e-22)


class TestEvolve:
    def test_infinite_t_end_rejected(self):
        # evolve would step towards an infinite horizon without end
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(t_end=np.inf)

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
        d1 = same_sign_gap(traj.final, 1)
        rate = (d1 * d1 - 1.0) / dt
        assert rate == pytest.approx(8.0 / (n * n - 1.0), rel=1e-4)

    def test_odd_lattice_respects_lower_bound(self):
        n = 9
        s = make(np.arange(1.0, n + 1.0), np.ones(n, int))
        ts = (0.5, 1.0, 2.0)
        traj = evolve(s, IntegratorConfig(t_end=2.0, sample_times=ts))
        for t in ts:
            d = same_sign_gap(traj.state_at(t), 1)
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
        assert t1.times == t2.times
        for a, b in zip(t1.states, t2.states):
            assert np.array_equal(a.positions, b.positions)

    def test_error_carries_trajectory(self):
        # clustering disabled: the pair integrates into the singularity
        # until dt underflows, and the partial trajectory comes back attached
        s = make([0.0, 2e-5, 1.0], [1, -1, 1], gamma=0.5)
        cfg = IntegratorConfig(t_end=1.0, cluster_gap=1e-300, max_steps=500)
        with pytest.raises(EvolveError) as exc_info:
            evolve(s, cfg)
        assert len(exc_info.value.trajectory.times) > 1

    def test_charges_piecewise_constant(self):
        # charges may change only at event times
        s = make([-0.5, -0.1, 0.2, 0.7], [1, -1, -1, 1])
        traj = evolve(s, IntegratorConfig(t_end=1.0))
        taus = {ev.tau for ev in traj.events}
        assert taus
        for (t0, s0), (t1, s1) in zip(
            zip(traj.times[:-1], traj.states[:-1]), zip(traj.times[1:], traj.states[1:])
        ):
            if not np.array_equal(s0.charges, s1.charges):
                assert t1 in taus

    def test_m1_conserved_through_events(self):
        s = make([-0.5, -0.1, 0.2, 0.7], [1, -1, -1, 1])
        traj = evolve(s, IntegratorConfig(t_end=1.0))
        m0 = s.positions.sum()
        drift = max(abs(st.positions.sum() - m0) for st in traj.states)
        assert drift <= 1e-9 * (1 + abs(m0))

    def test_resolution_insensitive_to_cluster_gap(self):
        # the extrapolated (tau, y) makes the outcome independent of the
        # threshold at which a generic collapse is resolved
        s = make([-0.6, -0.22, 0.4, 0.75], [1, -1, 1, -1])
        runs = []
        for gap in (1e-5, 1e-7):
            traj = evolve(
                s, IntegratorConfig(t_end=1.0, cluster_gap=gap, sample_times=(1.0,))
            )
            runs.append(traj)
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
            xa = base.state_at(t, tol=1e-9).positions
            xb = scaled.state_at(t2, tol=1e-9).positions
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
            assert traj.state_at(t, tol=1e-12).time == t


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


class TestStats:
    @pytest.mark.parametrize(
        "make_state, has_events", [(_odd_lattice, False), (_random_16, True)],
        ids=["odd9", "random16"],
    )
    def test_evaluation_budget(self, make_state, has_events):
        # DP5 with FSAL: one evaluation to start and one after each event,
        # then at most six per attempt
        traj = evolve(make_state(), IntegratorConfig(t_end=1.0))
        assert bool(traj.events) == has_events
        st = traj.stats
        attempts = st.accepted + st.rejected_error + st.rejected_order
        assert st.accepted > 0
        assert st.force_evals <= 1 + len(traj.events) + 6 * attempts
        # store_steps: one snapshot per accepted step and one per event
        assert st.accepted == len(traj.times) - 1 - len(traj.events)

    def test_force_evals_counts_every_evaluation(self, monkeypatch):
        import annihilate.integrator as integ

        calls = []
        real = integ.velocity_field

        def counting(x, b, g):
            calls.append(1)
            return real(x, b, g)

        monkeypatch.setattr(integ, "velocity_field", counting)
        traj = integ.evolve(_random_16(), IntegratorConfig(t_end=1.0))
        assert traj.stats.force_evals == len(calls)

    def test_detect_clusters_accepts_given_velocities(self):
        s = make([0.0, 1e-9, 1.0], [1, -1, 1])
        cfg = IntegratorConfig(t_end=1.0, cluster_gap=1e-7)
        v = velocities(s)
        assert detect_clusters(s, cfg, v) == detect_clusters(s, cfg) == [[0, 1]]
        # the given field decides: an opening pair is not a cluster
        assert detect_clusters(s, cfg, -v) == []


@st.composite
def degenerate_states(draw):
    """Small states at the edges of the admissible space.

    A background of 2..7 particles (any charges, gaps 0.05..1) gets one of:
    a +-+ or -+- triple, symmetric up to a relative 1e-9 and sometimes
    alone among neutrals, whose isolated collision time d^2 / gamma lies in
    [0.01, 2]; or an opposite pair whose gap is within 2x of the default
    cluster_gap (1e-7 x spread).  The coupling gamma goes down to 1e-12.
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
    @settings(max_examples=100, deadline=None)
    def test_only_typed_errors_escape(self, s):
        try:
            traj = evolve(s, IntegratorConfig(t_end=1.0))
        except (EvolveError, InvalidState):
            return
        final = traj.final
        assert final.time == 1.0
        assert np.isfinite(final.positions).all()
        assert net_charge(final) == net_charge(s)
        pos, neg = int((s.charges == 1).sum()), int((s.charges == -1).sum())
        assert len(traj.events) <= min(pos, neg)
