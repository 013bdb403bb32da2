import importlib.util
import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from annihilate import cli
from annihilate import harness as Hn
from annihilate.integrator import PAIR_ISOLATION, IntegratorConfig, Trajectory, evolve
from annihilate.levelset import from_particles
from annihilate.particles import EventRecord, ParticleState
from reference import (
    check_dm_lipschitz_loop,
    check_energy_loop,
    check_equal_gap_loop,
    check_m1_loop,
    check_m2_loop,
    check_net_charge_loop,
    check_opposite_gap_loop,
    check_slopes_loop,
    fit_collision_exponent_loop,
    ladder_errors,
    pair_bump,
    sample_particles_loop,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def _benchmark_workloads(monkeypatch):
    """The benchmark's workloads module, loaded by path."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    wl = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, wl)  # its dataclasses look it up
    spec.loader.exec_module(wl)
    return wl


class TestSampler:
    def test_pair_bump_crossings(self):
        eps = 1 / 8
        a = 0.3
        st = Hn.sample_particles(pair_bump(eps).u0, 8, a)
        x0 = math.sqrt(1.0 / a - 1.0)
        assert st.n == 2
        assert st.positions == pytest.approx([-x0, x0], abs=1e-10)
        assert tuple(st.charges) == (1, -1)
        assert st.coupling == eps

    def test_sigmoid_gives_n_positive_particles(self):
        st = Hn.sample_particles(Hn.CATALOG["sigmoid"].u0, 12, 0.5, window=(-2, 2))
        assert st.n == 12
        assert np.all(st.charges == 1)
        # no annihilations ever: all charges equal
        traj = evolve(st, IntegratorConfig(t_end=0.5))
        assert not traj.events

    @pytest.mark.parametrize("datum, n", [("double_bump", 16), ("sigmoid", 8), ("constant", 8)])
    def test_build_brackets_sample_the_same_bits(self, datum, n):
        # the brackets a spec's build keeps give the state a fresh scan gives
        spec = Hn.ExperimentSpec(datum=datum, ns=(n,), scan_points=2**12)
        L = spec.scheme_config().L
        args = (Hn.CATALOG[datum].u0, n, spec.offset, (-L, L), spec.scan_points)
        fresh, kept = Hn.sample_particles(*args), Hn.sample_particles(*args,
                                                                      brackets=spec._brackets[n])
        if fresh is None:
            assert kept is None
        else:
            assert fresh.positions.tobytes() == kept.positions.tobytes()
            assert fresh.charges.tobytes() == kept.charges.tobytes()

    def test_ladder_scans_once(self, monkeypatch):
        # the build's one u0 call on the scan grid serves every rung: no rung
        # scans again, and a second run of the spec reads the same brackets
        scans = []
        u0 = Hn.CATALOG["double_bump"].u0

        def counting(x):
            scans.append(x.size == 2**12)
            return u0(x)

        monkeypatch.setitem(Hn.CATALOG, "double_bump", Hn.InitialDatum(u0=counting))
        spec = Hn.ExperimentSpec(datum="double_bump", ns=(8, 16), ref_h=1 / 64,
                                 scan_points=2**12)
        assert sum(scans) == 1
        rows = [Hn.run_convergence(spec).rows for _ in range(2)]
        assert sum(scans) == 1
        assert [(r.e_n, r.events) for r in rows[0]] == [(r.e_n, r.events) for r in rows[1]]

    def test_constant_data_has_no_particles(self):
        assert Hn.sample_particles(lambda x: np.full_like(x, 0.25), 8, 0.5) is None

    def test_flat_at_level_rejected(self):
        with pytest.raises(Hn.DegenerateCrossing):
            # equals the a=0.5 level of n=2 on a whole interval
            Hn.sample_particles(lambda x: np.where(np.abs(x) < 1, 0.25, 0.0), 2, 0.5)

    def test_sandwich_bound(self):
        u0 = Hn.CATALOG["double_bump"].u0
        for n in (8, 16, 32):
            st = Hn.sample_particles(u0, n, 0.5, window=(-4, 4))
            base = Hn.quantized_level_below(u0(-4.0), 1.0 / n, 0.5)
            u_n = from_particles(st, base=base)
            xs = np.linspace(-4, 4, 4001)
            diff = u0(xs) - u_n(xs)
            assert np.min(diff) >= -1e-12
            assert np.max(diff) <= 1.0 / n + 1e-12

    def test_offset_families_never_interleave(self):
        # crossing trajectories of two offsets keep their merged ordering
        u0 = Hn.CATALOG["double_bump"].u0
        n = 8
        runs = {}
        ts = tuple(np.linspace(0.0, 0.3, 7))
        for a in (0.25, 0.75):
            st = Hn.sample_particles(u0, n, a, window=(-4, 4))
            runs[a] = evolve(st, IntegratorConfig(t_end=0.3, sample_times=ts))
        orders = []
        for t in ts:
            sa = runs[0.25].state_at(t)
            sb = runs[0.75].state_at(t)
            merged = []
            for tag, s in (("a", sa), ("b", sb)):
                for i in range(s.n):
                    if s.charges[i] != 0:
                        merged.append((float(s.positions[i]), tag, i))
            alive = {(tag, i) for _, tag, i in merged}
            orders.append((alive, tuple(k for _, *k in sorted(merged))))
        # restrict each later ordering to pairs alive at both times
        for (alive0, order0), (alive1, order1) in zip(orders[:-1], orders[1:]):
            common = alive0 & alive1
            o0 = [k for k in order0 if tuple(k) in common]
            o1 = [k for k in order1 if tuple(k) in common]
            assert o0 == o1

    @pytest.mark.parametrize("name", [*Hn.CATALOG, "pair_bump"])
    def test_matches_scalar_loop(self, name):
        # the array bisection stops each crossing where the scalar one does
        offsets = [0.25, 0.5, *np.random.default_rng(10).uniform(0.0, 1.0, 2)]
        for n in (8, 32, 128):
            u0 = (pair_bump(1.0 / n) if name == "pair_bump" else Hn.CATALOG[name]).u0
            for a in offsets:
                st = Hn.sample_particles(u0, n, a, scan_points=2**12)
                want = sample_particles_loop(u0, n, a, scan_points=2**12)
                if name == "constant":
                    assert st is None and want is None
                    continue
                assert np.array_equal(st.positions, want[0]), (n, a)
                assert np.array_equal(st.charges, want[1]), (n, a)

    def test_sizes_stop_at_the_particle_cap(self):
        Hn.check_sizes([1, Hn.MAX_PARTICLES])
        for ns in ([Hn.MAX_PARTICLES + 1], [10**400], [0], []):
            with pytest.raises(ValueError, match="sizes in 1..16384"):
                Hn.check_sizes(ns)

    def test_ladder_refuses_a_rung_past_the_particle_cap(self):
        # sigmoid crosses each of its n levels once: n = MAX_PARTICLES is
        # the cap itself; double_bump crosses each of its levels four times
        Hn.ExperimentSpec(datum="sigmoid", ns=(8, Hn.MAX_PARTICLES))
        with pytest.raises(ValueError, match="n=16384 samples 40632 particles from double_bump"):
            Hn.ExperimentSpec(datum="double_bump", ns=(8, Hn.MAX_PARTICLES))
        # a rung the sampler refuses is left to fail as a row
        spec = Hn.ExperimentSpec(datum="constant", ns=(4,), offset=0.0, ref_h=1 / 64, t_end=0.05)
        (row,) = Hn.run_convergence(spec).rows
        assert row.error == "u0 is flat at level 0.25"

    @pytest.mark.parametrize("name", list(Hn.CATALOG))
    def test_datum_is_elementwise(self, name):
        # one call on the grid gives, bit for bit, the values one point at a time
        u0 = Hn.CATALOG[name].u0
        xs = np.linspace(-4.0, 4.0, 8193)  # h = 1/1024, L = 4
        vals = u0(xs)
        assert vals.shape == xs.shape
        assert np.array_equal(vals, [u0(x) for x in xs.tolist()])


class TestConvergence:
    def test_small_ladder_monotone(self):
        spec = Hn.ExperimentSpec(datum="sigmoid", ns=(8, 16, 32), t_end=0.2, ref_h=1 / 64)
        res = Hn.run_convergence(spec)
        errs = ladder_errors(res)
        assert res.monotone
        assert errs[-1] < errs[0]
        assert all(r.error is None for r in res.rows)

    def test_deterministic_tables(self):
        spec = Hn.ExperimentSpec(datum="sigmoid", ns=(8, 16), t_end=0.1, ref_h=1 / 64)
        r1 = Hn.run_convergence(spec)
        r2 = Hn.run_convergence(spec)
        for a, b in zip(r1.rows, r2.rows):
            assert (a.n, a.e_n, a.events) == (b.n, b.e_n, b.events)

    def test_constant_datum_has_zero_error(self):
        spec = Hn.ExperimentSpec(datum="constant", ns=(4, 16), t_end=0.1, ref_h=1 / 64)
        res = Hn.run_convergence(spec)
        assert all(r.e_n == 0.0 and r.events == 0 for r in res.rows)

    def test_pair_bump_ladder_is_exactly_quantization(self, monkeypatch):
        # against the closed-form solution the error is the level gap 1/n;
        # each n has its own datum, run as a catalog entry through the exact path
        rows = []
        for n in (4, 8, 16):
            monkeypatch.setitem(Hn.CATALOG, "pair_bump", pair_bump(1.0 / n))
            res = Hn.run_convergence(Hn.ExperimentSpec(datum="pair_bump", ns=(n,), t_end=0.5))
            rows += res.rows
        for row in rows:
            assert row.error is None
            assert row.e_n == pytest.approx(1.0 / row.n, rel=1e-9)
        assert all(b.e_n <= 1.1 * a.e_n for a, b in zip(rows[:-1], rows[1:]))

    def test_sampling_error_floor(self):
        # at t=0 the error is exactly the quantization gap, below 1/n
        spec = Hn.ExperimentSpec(datum="sigmoid", ns=(8,), t_end=0.05, ref_h=1 / 64)
        res = Hn.run_convergence(spec)
        assert res.rows[0].e_n <= 1.0 / 8 + 0.02

    def test_semicircle_ladder_halves_per_doubling(self):
        # against the exact semicircle solution, with no annihilation, the
        # error is level quantization, e_n ~ C / n: each doubling of n
        # divides it by 2 (the bound is that rate, fixed before measuring)
        res = Hn.run_convergence(Hn.ExperimentSpec(datum="semicircle", ns=(8, 16, 32, 64, 128)))
        rows = res.rows
        assert all(r.error is None and r.events == 0 for r in rows), rows
        ratios = [a.e_n / b.e_n for a, b in zip(rows[:-1], rows[1:])]
        assert all(1.9 <= q <= 2.1 for q in ratios), ratios
        # the reference frames are the exact solution on the grid
        semicircle = Hn.CATALOG["semicircle"].exact
        assert [fr.time for fr in res.ref_frames] == list(res.spec.snapshot_times())
        assert all(np.array_equal(fr.values, semicircle(fr.time, fr.xs)) for fr in res.ref_frames)

    def test_only_typed_failures_make_a_failed_row(self, monkeypatch):
        # one crossing cannot make a state: a typed refusal fails the row
        spec = Hn.ExperimentSpec(datum="sigmoid", ns=(1,), t_end=0.05, ref_h=1 / 64)
        (row,) = Hn.run_convergence(spec).rows
        assert row.error == "need n >= 2 particles" and math.isnan(row.e_n)

        # a plain ValueError is a fault, not a failed row
        def broken(state, base=0.0):
            raise ValueError("not a row failure")

        monkeypatch.setattr(Hn.levelset, "from_particles", broken)
        with pytest.raises(ValueError, match="not a row failure"):
            Hn.run_convergence(replace(spec, ns=(8,)))

    @pytest.mark.parametrize("datum", ["double_bump", "sigmoid"])
    def test_ladder_tolerances_move_no_event_and_no_visible_digit(self, datum, monkeypatch):
        # the ladder evolves at LADDER_TOLERANCES: against the IntegratorConfig
        # defaults every rung keeps its events and e_n moves by less than a
        # tenth of the benchmark's 1e-4 pin
        spec = Hn.ExperimentSpec(datum=datum, ns=(8, 16, 32), ref_h=1 / 64)
        cfg = spec.integrator_config()
        assert (cfg.abs_tol, cfg.rel_tol) == Hn.LADDER_TOLERANCES
        assert Hn.LADDER_TOLERANCES != (IntegratorConfig.abs_tol, IntegratorConfig.rel_tol)
        ladder = Hn.run_convergence(spec).rows
        monkeypatch.setattr(Hn, "LADDER_TOLERANCES",
                            (IntegratorConfig.abs_tol, IntegratorConfig.rel_tol))
        default = Hn.run_convergence(spec).rows
        for a, b in zip(ladder, default, strict=True):
            assert a.error is None and b.error is None
            assert a.events == b.events
            assert abs(a.e_n - b.e_n) <= 1e-5 * b.e_n

    @pytest.mark.parametrize("datum", ["double_bump", "sigmoid"])
    def test_ladder_pair_isolation_moves_no_event_and_no_visible_digit(self, datum, monkeypatch):
        # the ladder commits pairs at LADDER_PAIR_ISOLATION: against the
        # module's PAIR_ISOLATION every rung keeps its events and e_n moves
        # by less than a tenth of the benchmark's 1e-4 pin
        spec = Hn.ExperimentSpec(datum=datum, ns=(8, 16, 32), ref_h=1 / 64)
        assert spec.integrator_config().pair_isolation == Hn.LADDER_PAIR_ISOLATION
        assert Hn.LADDER_PAIR_ISOLATION != PAIR_ISOLATION
        ladder = Hn.run_convergence(spec).rows
        monkeypatch.setattr(Hn, "LADDER_PAIR_ISOLATION", PAIR_ISOLATION)
        default = Hn.run_convergence(spec).rows
        for a, b in zip(ladder, default, strict=True):
            assert a.error is None and b.error is None
            assert a.events == b.events
            assert abs(a.e_n - b.e_n) <= 1e-5 * b.e_n

    def test_only_the_ladder_sets_pair_isolation(self, monkeypatch, tmp_path):
        # simulate, verify, the property suite and the stability sweep keep
        # the module's PAIR_ISOLATION: every config they evolve with leaves it None
        configs = []

        def spy(real):
            def run(state, config):
                configs.append(config)
                return real(state, config)
            return run

        monkeypatch.setattr(Hn, "evolve", spy(Hn.evolve))
        monkeypatch.setattr(cli, "evolve", spy(cli.evolve))
        for command, section in (
                ("simulate", "{positions: [0.0, 0.8], charges: [1, -1], t_end: 0.5}"),
                ("verify", "{sizes: [4], runs: 2, t_end: 0.5}")):
            cfg = tmp_path / f"{command}.yaml"
            cfg.write_text(f"{command}: {section}\n")
            assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        Hn.run_property_suite(seed=1, sizes=(4, 6), runs=2, t_end=0.5)
        Hn.stability_sweep(Hn._triple_collision_fixture(), (1e-2,), 0.5,
                           np.random.default_rng(0))
        assert len(configs) > 10
        assert all(c.pair_isolation is None for c in configs)

    def test_benchmark_ladder_rows(self, monkeypatch):
        # the benchmark's gate on the seed-0 double_bump ladder, read from
        # its own module: every row keeps its event count exactly and its
        # e_n within LADDER_E_RTOL of the recorded value (n <= 32 here)
        wl = _benchmark_workloads(monkeypatch)
        ns = (8, 16, 32)
        res = Hn.run_convergence(Hn.ExperimentSpec(
            datum="double_bump", ns=ns, offset=wl.ladder_offset(0),
            ref_h=wl.LADDER_REF_H["full"], scan_points=wl.LADDER_SCAN["full"]))
        assert [r.n for r in res.rows] == list(ns)
        for row, (events, e_n) in zip(res.rows, wl.LADDER_SEED0["full"]):
            assert row.error is None and row.events == events
            assert abs(row.e_n - e_n) <= wl.LADDER_E_RTOL * e_n

    def test_benchmark_ladder_takes_no_ulp_steps(self, monkeypatch):
        # two committed pairs whose collisions fall an ulp apart used to
        # cost a step of about 1e-16 between them (dt_min 8.3e-17 at n = 16
        # and 5.6e-17 at n = 64); a collision without a survivor ends no
        # step, so no step is that short (4.6e-6 and 2.9e-6)
        wl = _benchmark_workloads(monkeypatch)
        stats = []
        real = Hn.evolve

        def keeping(state, config):
            traj = real(state, config)
            stats.append(traj.stats)
            return traj

        monkeypatch.setattr(Hn, "evolve", keeping)
        res = Hn.run_convergence(Hn.ExperimentSpec(
            datum="double_bump", ns=(16, 64), offset=wl.ladder_offset(0),
            ref_h=wl.LADDER_REF_H["full"], scan_points=wl.LADDER_SCAN["full"]))
        assert [r.events for r in res.rows] == [8, 30]
        assert len(stats) == 2 and all(st.dt_min > 1e-12 for st in stats)


class TestPropertySuite:
    def test_small_suite_passes(self):
        rep = Hn.run_property_suite(seed=3, sizes=(4, 6, 8), runs=12, t_end=0.8)
        assert rep.all_passed, {
            k: (c.margin, c.detail) for k, c in rep.checks.items() if not c.passed
        }
        assert rep.runs_with_events >= 6

    def test_benchmark_suite_step_counters(self, monkeypatch):
        # the benchmark's verify suite takes exactly these steps, summed over
        # every evolve it makes (the ode_residual windows too): a change to
        # the step that moves a trajectory moves a counter
        wl = _benchmark_workloads(monkeypatch)
        totals = Counter()
        real = Hn.evolve

        def summing(state, config):
            traj = real(state, config)
            st = traj.stats
            totals.update(accepted=st.accepted, rejected_error=st.rejected_error,
                          rejected_order=st.rejected_order, force_evals=st.force_evals,
                          events=st.events)
            return traj

        monkeypatch.setattr(Hn, "evolve", summing)
        rep = Hn.run_property_suite(seed=0, **wl.VERIFY_SUITE["full"])
        assert rep.all_passed and rep.events_total == 61
        assert totals == {"accepted": 2595, "rejected_error": 430, "rejected_order": 8,
                          "force_evals": 18061, "events": 73}

    @pytest.mark.parametrize("mutant", ["none", "swapped_upwinding", "cfl_doubled"])
    def test_hj_comparison_catches_a_non_monotone_step(self, monkeypatch, mutant):
        # smooth ordered data stay ordered for a while under either mutant;
        # a single raised node shows the step is not monotone at once
        from annihilate import hjsolver

        real = hjsolver._godunov_gradient
        if mutant == "swapped_upwinding":
            monkeypatch.setattr(hjsolver, "_godunov_gradient", lambda u, v: real(u, -v))
        elif mutant == "cfl_doubled":
            monkeypatch.setattr(hjsolver, "CFL", 2 * hjsolver.CFL)
        rep = Hn.run_property_suite(seed=0, sizes=[8], runs=20)
        assert rep.checks["hj_comparison"].passed == (mutant == "none")

    @pytest.mark.parametrize("mutant", ["none", "linear_extension"])
    def test_m2_drift_catches_rows_off_the_trajectory(self, monkeypatch, mutant):
        # rows at sample times lie inside steps; placed on the chord between
        # step ends instead of by the continuous extension they sit about
        # 6e-4 off the M2 line, where the real rows stay within 2.3e-8
        from annihilate import integrator

        if mutant == "linear_extension":
            monkeypatch.setattr(integrator, "_dense_weights",
                                lambda theta: theta * integrator._DP_B)
        rep = Hn.run_property_suite(seed=0, sizes=[8], runs=20)
        assert rep.checks["m2_drift"].passed == (mutant == "none")
        assert rep.all_passed == (mutant == "none")

    def test_report_serializes(self):
        import json

        rep = Hn.run_property_suite(seed=4, sizes=(4,), runs=3, t_end=0.5)
        payload = json.loads(rep.to_json())
        assert payload["runs"] == 3
        assert set(payload["checks"]) == set(rep.checks)

    def test_m1_drift_at_suite_scale_fails(self, monkeypatch):
        # the float64 floor of m1_conservation is far below its fixed bound
        # at the suite's scale: a drift of 1e-8 in one row still fails it
        real = Hn.evolve

        def drifting(state, config):
            traj = real(state, config)
            x = traj.positions.copy()
            x[len(x) // 2, 0] += 1e-8
            return replace(traj, positions=x)

        monkeypatch.setattr(Hn, "evolve", drifting)
        rep = Hn.run_property_suite(seed=4, sizes=(4,), runs=3, t_end=0.5)
        assert not rep.checks["m1_conservation"].passed

    @pytest.mark.parametrize("sizes", [(1,), (4, 1), ()])
    def test_sizes_below_two_rejected(self, sizes):
        # a state of one particle can never carry both signs, so drawing one would never end
        with pytest.raises(ValueError, match="sizes"):
            Hn.run_property_suite(sizes=sizes, runs=1)

    def test_ode_residual_ignores_collision_truncation(self):
        # opposite pair that annihilates at tau = 0.900465, 4.65e-4 after the
        # last anchor: the centered difference there is off by ~3.4e-2 from
        # truncation alone (d^2 = 4 gamma (tau - t)), not from the integrator
        gamma = 1.0 / 16.0
        a = math.sqrt(gamma * 0.900465)
        st = ParticleState(positions=np.array([-a, a]), charges=np.array([1, -1]), coupling=gamma)
        cases = list(Hn._check_ode_residual(evolve(st, IntegratorConfig(t_end=1.0))))
        assert cases
        failed = [c for c in cases if not c[0]]
        assert not failed, failed

    def test_ode_residual_reaches_every_run(self, monkeypatch):
        # more runs than the check ever needed at first: each run is differenced
        # from its own stored states, not only the first few
        runs, starts = [], []
        real_evolve = Hn.evolve

        def evolve_spy(state, cfg):
            traj = real_evolve(state, cfg)
            if cfg.store_steps and cfg.t_end == 0.5:
                runs.append(traj)
            elif not cfg.store_steps and len(cfg.sample_times) == 1:
                # a residual window, evolved from one of the run's rows
                starts.append((traj.times[0], traj.positions[0]))
            return traj

        monkeypatch.setattr(Hn, "evolve", evolve_spy)
        Hn.run_property_suite(seed=4, sizes=(4, 6), runs=7, t_end=0.5)
        assert len(runs) == 8  # the seven draws and the all-neutral run

        def reached(traj):
            return any(t > 0 and np.array_equal(traj.positions[k], x)
                       for t, x in starts for k in np.flatnonzero(traj.times == t))

        assert all(reached(traj) for traj in runs)

    def test_window_from_an_event_row_yields_cases(self):
        # the pair collides near t = 0.23; the lone survivor then moves in one
        # step to t_end, so the last stored row before every anchor is the
        # event's, and each window starts on it
        st = ParticleState(positions=np.array([-0.06, 0.06, 5.0]), charges=np.array([1, -1, 1]),
                           coupling=1.0 / 64)
        traj = evolve(st, IntegratorConfig(t_end=1.0))
        assert len(traj.events) == 1 and traj.times[-2] == traj.events[0].tau < 0.3
        cases = list(Hn._check_ode_residual(traj))
        assert len(cases) == 9 and all(passed for passed, _, _ in cases)

    def test_window_holding_a_collision_is_not_evolved(self):
        # the pair collides at g^2 / (4 gamma) = 0.3001, inside the first
        # window (0.3, 0.3002], which starts on the sample at 0.3: its
        # stencil would hold the event
        gamma = 1.0 / 64
        g = np.sqrt(4.0 * gamma * 0.3001)
        st = ParticleState(positions=np.array([-g / 2, g / 2]), charges=np.array([1, -1]),
                           coupling=gamma)
        traj = evolve(st, IntegratorConfig(t_end=1.0, sample_times=(0.3,)))
        assert len(traj.events) == 1 and 0.3 < traj.events[0].tau <= 0.3002
        cases = list(Hn._check_ode_residual(traj))
        # the two later anchors, one case per (neutral) particle each
        assert len(cases) == 4 and all(passed for passed, _, _ in cases)

    def test_ode_residual_can_fail(self, monkeypatch):
        # a force field off by 1e-3 relative shows in the residual check
        exact = Hn.particles.velocity_field
        monkeypatch.setattr(Hn.particles, "velocity_field",
                            lambda x, b, g: exact(x, b, g) * (1.0 + 1e-3))
        rep = Hn.run_property_suite(seed=4, sizes=(4,), runs=3, t_end=0.5)
        assert rep.checks["ode_residual"].margin < 0
        assert not rep.checks["ode_residual"].passed


class TestResidual:
    def test_pair_oracle_crossings(self):
        # sampled two-particle family: crossings follow +-sqrt(x0^2 - eps t)
        eps = 0.25
        x0 = 1.0
        st = ParticleState(positions=np.array([-x0, x0]), charges=np.array([1, -1]), coupling=eps)
        ts = tuple(np.linspace(0.0, 0.9 * x0 * x0 / eps, 10))
        traj = evolve(st, IntegratorConfig(t_end=ts[-1], sample_times=ts))
        for t in ts:
            s = traj.state_at(t)
            pred = math.sqrt(x0 * x0 - eps * t)
            assert s.positions[0] == pytest.approx(-pred, abs=1e-6)
            assert s.positions[1] == pytest.approx(pred, abs=1e-6)

    def test_stationary_states_have_zero_residual(self):
        # a lone charge does not move, so every difference and every force is 0
        st = ParticleState(positions=np.array([0.0, 1.0]), charges=np.array([1, 0]))
        cfg = IntegratorConfig(t_end=1.0, sample_times=tuple(np.linspace(0.05, 0.95, 7)))
        thr = 10.0 * (cfg.abs_tol + cfg.rel_tol * 1.0) / (1e-4 * cfg.t_end) + 1e-8
        cases = list(Hn._check_ode_residual(evolve(st, cfg)))
        assert len(cases) == 6 and all(margin == thr for _, margin, _ in cases)


class TestStability:
    def test_monotone_in_perturbation(self):
        rng = np.random.default_rng(8)
        base = Hn._triple_collision_fixture()
        sups = Hn.stability_sweep(base, (1e-2, 1e-3, 1e-4), 1.0, rng)
        assert sups[0] > sups[1] > sups[2]

    def test_fixture_has_three_collisions(self):
        traj = evolve(Hn._triple_collision_fixture(), IntegratorConfig(t_end=1.0))
        assert len(traj.events) == 3


# each vectorized per-run check and its per-state loop in tests/reference.py
_CHECK_ORACLES = {
    "m1_conservation": check_m1_loop,
    "net_charge": check_net_charge_loop,
    "m2_drift": check_m2_loop,
    "equal_sign_gap_bound": check_equal_gap_loop,
    "opposite_gap_bound": check_opposite_gap_loop,
    "collision_slope": check_slopes_loop,
    "dm_lipschitz": check_dm_lipschitz_loop,
    "energy_decay": check_energy_loop,
}


@pytest.fixture(scope="module")
def suite_runs():
    """Suite-style runs at n = 4..32 from three seeds, plus two runs without events."""
    grid = tuple(np.linspace(0.0, 1.0, 21))
    cfg = IntegratorConfig(t_end=1.0, sample_times=grid)
    runs = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        runs += [evolve(Hn._random_state(rng, n), cfg) for n in (4, 8, 16, 32)]
    plus = ParticleState(positions=np.linspace(-1.0, 1.0, 8), charges=np.ones(8, dtype=int))
    mixed = ParticleState(positions=np.linspace(-1.0, 1.0, 6), charges=np.array([1, 0, 1, 0, -1, 0]))
    runs += [evolve(plus, cfg), evolve(mixed, IntegratorConfig(t_end=0.2, sample_times=grid[:5]))]
    return runs


class TestVectorizedChecks:
    def test_runs_cover_events_and_none(self, suite_runs):
        assert sum(1 for tr in suite_runs if tr.events) >= 6
        assert sum(1 for tr in suite_runs if not tr.events) >= 2

    @pytest.mark.parametrize("name", sorted(_CHECK_ORACLES))
    def test_matches_per_state_loop(self, suite_runs, name):
        # same (passed, margin, detail) cases in the same order
        total = 0
        for tr in suite_runs:
            fast = list(Hn._PER_RUN[name](tr))
            assert fast == list(_CHECK_ORACLES[name](tr))
            total += len(fast)
        assert total > 0

    def test_collision_fit_reads_the_last_segment_only(self):
        # the cluster (0, 1) collides at tau = 1, after the pair (2, 3) did at
        # 0.5; before that event the diameter follows another law (three
        # times the collision law here), which must stay out of the fit
        times = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95])
        d = np.sqrt(1.0 - times) * np.where(times < 0.5, 3.0, 1.0)
        positions = np.stack([-d / 2, d / 2, np.full_like(d, 5.0), np.full_like(d, 6.0)], axis=1)
        charges = np.array([[1, -1, 1, -1] if t < 0.5 else [1, -1, 0, 0] for t in times])
        events = [EventRecord(0.5, 5.5, (2, 3), (1, -1), (0, 0)),
                  EventRecord(1.0, 0.0, (0, 1), (1, -1), (0, 0))]
        traj = Trajectory(times, positions, charges, 0.25, events, IntegratorConfig(t_end=1.0))
        assert Hn.fit_collision_exponent(traj, events[1]) == pytest.approx(0.5, abs=1e-12)
        assert fit_collision_exponent_loop(traj, events[1]) == pytest.approx(0.5, abs=1e-12)
