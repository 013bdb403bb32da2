import math
import re
from dataclasses import replace

import numpy as np
import pytest

from annihilate import hjsolver as H
from annihilate.harness import CATALOG, ExperimentSpec
from reference import (
    barrier_check,
    far_field_grid,
    grid_lipschitz,
    grid_sup_norm,
    kernel_loop,
    levy_operator,
    levy_operator_direct,
    near_field_quadrature,
    pair_bump,
    step_hj_plain,
)

SIGMOID = CATALOG["sigmoid"].u0


def tanh_profile(xs, c=0.0, amp=0.4, rate=2.0):
    return amp * np.tanh(rate * (xs - c))


@pytest.fixture
def small_cfg():
    return H.SchemeConfig(L=2.0, h=1 / 64, rho=4 / 64, t_end=0.1)


class TestConfig:
    def test_rho_must_be_cell_multiple(self):
        with pytest.raises(ValueError):
            H.SchemeConfig(L=1.0, h=1 / 16, rho=0.1, t_end=1.0)

    def test_rho_at_least_two_cells(self):
        with pytest.raises(ValueError):
            H.SchemeConfig(L=1.0, h=1 / 16, rho=1 / 16, t_end=1.0)

    @pytest.mark.parametrize("name", ["L", "t_end"])
    def test_infinite_extent_rejected(self, name):
        # solve_hj would march towards an infinite t_end without end
        kwargs = {"L": 1.0, "h": 1 / 16, "rho": 4 / 16, "t_end": 1.0, name: math.inf}
        with pytest.raises(ValueError, match="finite"):
            H.SchemeConfig(**kwargs)


class TestOperator:
    def test_constant_maps_to_zero(self, small_cfg):
        u = H.GridFunction.from_callable(lambda x: np.full_like(x, 0.7), small_cfg)
        assert levy_operator(u, 50, small_cfg.rho) == 0.0
        assert np.max(np.abs(H.levy_operator_all(u, small_cfg.rho))) < 1e-11

    def test_quartic_near_field(self):
        # int_{|z|<rho} of the compensated quartic: 12 (x-y)^2 rho + 2/3 rho^3
        rho = 0.5
        h = rho / 32
        cfg = H.SchemeConfig(L=4.0, h=h, rho=rho, t_end=1.0)
        y = 0.3
        u = H.GridFunction.from_callable(
            lambda x: (x - y) ** 4 * np.exp(-((x / 3.0) ** 4)), cfg
        )
        i = int(round((0.55 + cfg.L) / h))
        x = u.xs[i]
        exact = 12 * (x - y) ** 2 * rho + (2 / 3) * rho**3
        got = near_field_quadrature(u, i, rho)
        assert got == pytest.approx(exact, rel=1e-2)

    def test_far_field_bound(self, small_cfg):
        rng = np.random.default_rng(0)
        u = H.GridFunction(
            xs=np.linspace(-2, 2, 257),
            values=np.clip(np.cumsum(rng.standard_normal(257)) * 0.01, -0.5, 0.5),
            tails=(0.0, 0.0),
        )
        bound = 4.0 * grid_sup_norm(u) / small_cfg.rho
        for i in range(0, 257, 16):
            assert abs(far_field_grid(u, i, small_cfg.rho)) <= bound + 1e-12

    def test_gaussian_against_reference(self):
        # pv int (e^{-z^2} - 1)/z^2 dz = -2 sqrt(pi), by parts
        cfg = H.SchemeConfig(L=8.0, h=1 / 128, rho=16 / 128, t_end=1.0)
        u = H.GridFunction.from_callable(lambda x: np.exp(-x * x), cfg)
        i0 = u.values.size // 2
        assert u.xs[i0] == 0.0
        assert levy_operator(u, i0, cfg.rho) == pytest.approx(
            -2.0 * math.sqrt(math.pi), rel=1e-3
        )

    def test_scalar_matches_vectorized(self, small_cfg):
        u = H.GridFunction(
            xs=np.linspace(-2, 2, 257),
            values=tanh_profile(np.linspace(-2, 2, 257)),
            tails=(-0.4, 0.4),
        )
        allv = H.levy_operator_all(u, small_cfg.rho)
        for i in range(0, 257, 10):
            assert allv[i] == pytest.approx(
                levy_operator(u, i, small_cfg.rho), abs=1e-10
            )

    # 601..2049 run the 1-D pair, 4097..16385 the four-step FFT
    @pytest.mark.parametrize("n", [601, 1025, 2049, 4097, 8193, 16385])
    def test_fft_branch_matches_direct_sum(self, n):
        assert n >= H.FFT_NODES
        rng = np.random.default_rng(n)
        xs = np.linspace(-4.0, 4.0, n)
        vals = np.cumsum(rng.standard_normal(n)) * 0.01
        tails = (-0.7, 0.3)
        u = H.GridFunction(xs=xs, values=vals, tails=tails)
        got = H.levy_operator_all(u, 4 * u.h)
        kern = H._kernel_for(u, 4 * u.h)
        want = levy_operator_direct(u, kern.G, kern.tail_cut)
        scale = float(np.max(np.abs(kern.G))) * max(float(np.max(np.abs(vals))), *map(abs, tails))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("n, r", [(601, 2), (1025, 8), (2049, 16), (4097, 32), (8193, 64)])
    def test_kernel_build_matches_the_loop(self, n, r):
        kern = H._Kernel(n, 8.0 / (n - 1), r)
        want = kernel_loop(n, 8.0 / (n - 1), r)
        assert (kern.size >= H.BLOCKED_SIZE) == (n > 2049) == ("twiddle" in want)
        for name in ("G", "spectrum", "left", "right", "twiddle", "untwiddle"):
            if name in want:
                assert np.array_equal(getattr(kern, name), want[name]), name
        assert kern.W == want["W"]

    def test_fft_results_do_not_alias_the_kernel_buffers(self):
        for n in (2049, 8193):  # the 1-D pair's buffers, then the four-step FFT's
            xs = np.linspace(-4.0, 4.0, n)
            u = H.GridFunction(xs=xs, values=np.tanh(xs), tails=(-1.0, 1.0))
            w = H.GridFunction(xs=xs, values=np.sin(xs), tails=(0.0, 0.5))
            first = H.levy_operator_all(u, 4 * u.h)
            kept = first.copy()
            second = H.levy_operator_all(w, 4 * u.h)
            assert np.array_equal(first, kept)
            assert not np.array_equal(first, second)
            assert not np.shares_memory(first, second)
            # the inverse's buffer is also the tail terms' scratch: no result may be a view of it
            kern = H._kernel_for(u, 4 * u.h)
            buffers = [name for name, a in vars(kern).items() if isinstance(a, np.ndarray)]
            assert ("_padded" in buffers) == (n > 2049) and {"_work", "_spec"} <= set(buffers)
            for result in (first, second):
                for name in buffers:
                    assert not np.shares_memory(result, getattr(kern, name)), name

    def test_kernel_cache_tells_tiny_grids_apart(self, monkeypatch):
        # two 201-node grids with r = 4 whose steps 1e-15 and 2e-15 both
        # round to 0 at 14 digits: each must get its own kernel
        monkeypatch.setattr(H, "_kernels", {})
        cfgs = [H.SchemeConfig(L=100 * h, h=h, rho=4 * h, t_end=1.0) for h in (1e-15, 2e-15)]
        grids = [H.GridFunction.from_callable(lambda x: np.tanh(x / 2e-14), cfg) for cfg in cfgs]
        got = [H.levy_operator_all(u, cfg.rho) for u, cfg in zip(grids, cfgs)]
        for u, cfg, v in zip(grids, cfgs, got):
            monkeypatch.setattr(H, "_kernels", {})
            assert np.array_equal(v, H.levy_operator_all(u, cfg.rho))

    def test_split_below_half_a_cell_refused(self):
        u = H.GridFunction(xs=np.linspace(-2.0, 2.0, 5), values=np.zeros(5), tails=(0.0, 0.0))
        with pytest.raises(ValueError, match="below half the grid step"):
            H.levy_operator_all(u, 0.25)

    def test_fft_branch_constant_maps_to_zero(self):
        n = 8193
        u = H.GridFunction(xs=np.linspace(-4.0, 4.0, n), values=np.full(n, 0.7), tails=(0.7, 0.7))
        assert np.max(np.abs(H.levy_operator_all(u, 4 * u.h))) < 1e-10


class TestStep:
    def test_constant_unchanged(self, small_cfg):
        u = H.GridFunction.from_callable(lambda x: np.full_like(x, 0.3), small_cfg)
        new = H.step_hj(u, small_cfg, dt=1e-3)
        assert np.array_equal(new.values, u.values)

    def test_cfl_violation(self, small_cfg):
        u = H.GridFunction.from_callable(SIGMOID, small_cfg)
        with pytest.raises(H.CFLViolation):
            H.step_hj(u, small_cfg, dt=10.0)

    def test_comparison_principle(self, small_cfg):
        rng = np.random.default_rng(1)
        xs = np.linspace(-2, 2, 257)
        for _ in range(20):
            c1, c2 = rng.uniform(-0.5, 0.5, 2)
            amp = rng.uniform(0.05, 0.3)
            u = H.GridFunction(xs=xs, values=tanh_profile(xs, c1), tails=(-0.4, 0.4))
            w = H.GridFunction(
                xs=xs, values=u.values + amp * np.exp(-4 * (xs - c2) ** 2), tails=u.tails
            )
            for _ in range(10):
                dt = min(
                    H.step_hj(u, small_cfg).time - u.time,
                    H.step_hj(w, small_cfg).time - w.time,
                )
                u = H.step_hj(u, small_cfg, dt=dt)
                w = H.step_hj(w, small_cfg, dt=dt)
                assert float(np.min(w.values - u.values)) >= -1e-12

    def test_norms_non_increasing(self, small_cfg):
        # data constant outside [-L/2, L/2] per the solver contract; the
        # norm monotonicity argument needs exact translation invariance
        from annihilate.harness import _mollifier, _smoothstep

        rng = np.random.default_rng(2)
        xs = np.linspace(-2, 2, 257)
        for _ in range(5):
            c = rng.uniform(-0.3, 0.3)
            vals = 0.5 * _smoothstep((xs - c) / 0.5)
            vals += 0.2 * _mollifier((xs + c) / 0.5)
            u = H.GridFunction(xs=xs, values=vals, tails=(0.0, 0.5))
            sup, lip = grid_sup_norm(u), grid_lipschitz(u)
            for _ in range(20):
                u = H.step_hj(u, small_cfg)
                assert grid_sup_norm(u) <= sup + 1e-12
                assert grid_lipschitz(u) <= lip + 1e-9
                sup, lip = grid_sup_norm(u), grid_lipschitz(u)

    def test_translation_equivariance_exact(self, small_cfg):
        # compactly varying datum: shifting by one cell commutes exactly
        xs = np.linspace(-2, 2, 257)
        vals = SIGMOID(xs)
        a = H.GridFunction(xs=xs, values=vals, tails=(0.0, 1.0))
        b = H.GridFunction(
            xs=xs, values=np.concatenate([[0.0], vals[:-1]]), tails=(0.0, 1.0)
        )
        for _ in range(15):
            dt = min(
                H.step_hj(a, small_cfg).time - a.time,
                H.step_hj(b, small_cfg).time - b.time,
            )
            a = H.step_hj(a, small_cfg, dt=dt)
            b = H.step_hj(b, small_cfg, dt=dt)
        shifted = np.concatenate([[0.0], a.values[:-1]])
        assert np.array_equal(shifted[1:], b.values[1:])

    def test_default_step_past_t_end_is_full_stable_step(self, small_cfg):
        # at or past t_end nothing is left to clip to: the step is the one
        # an unreached horizon gives
        u = H.GridFunction.from_callable(SIGMOID, small_cfg)
        for time in (small_cfg.t_end, 2 * small_cfg.t_end):
            at = replace(u, time=time)
            past = H.step_hj(at, small_cfg)
            free = H.step_hj(at, replace(small_cfg, t_end=1e6))
            assert past.time == free.time > time
            assert np.array_equal(past.values, free.values)

    @pytest.mark.parametrize("n", [8193, 2049, 257])
    def test_steps_match_the_plain_step(self, n):
        # unequal tails and v of both signs: every tail term and both upwind
        # branches reach the bits, on both operator paths
        cfg = H.SchemeConfig(L=4.0, h=8.0 / (n - 1), rho=1 / 16, t_end=0.25)
        u = H.GridFunction.from_callable(
            lambda x: 0.5 * np.tanh(2 * x) - 0.2 + 0.3 * np.exp(-((x - 1) ** 2)), cfg
        )
        v = H.levy_operator_all(u, cfg.rho)
        assert v.min() < 0.0 < v.max() and u.tails[0] != u.tails[1]
        assert (n >= H.FFT_NODES) == (n > 257)
        a = b = u
        for _ in range(50):
            a, b = H.step_hj(a, cfg), step_hj_plain(b, cfg)
            assert a.values.tobytes() == b.values.tobytes() and a.time == b.time

    def test_godunov_gradient_against_one_sided_differences(self, small_cfg):
        u = H.GridFunction.from_callable(lambda x: np.sin(3 * x), small_cfg)
        v = H.levy_operator_all(u, small_cfg.rho)
        U = np.concatenate([[u.tails[0]], u.values, [u.tails[1]]])
        dm = (U[1:-1] - U[:-2]) / u.h
        dp = (U[2:] - U[1:-1]) / u.h
        rising = np.maximum(np.maximum(-dm, dp), 0.0)
        falling = np.maximum(np.maximum(dm, -dp), 0.0)
        # -0.0 and +0.0 count as v >= 0 (rising), NaN as not (falling); at
        # these nodes the two branches differ, so the choice shows
        nodes, special = [40, 80, 120], [-0.0, 0.0, np.nan]
        assert all(rising[nodes] != falling[nodes])
        edited = v.copy()
        edited[nodes] = special
        for vals in (v, edited):
            want = np.where(vals >= 0.0, rising, falling)
            # bit for bit, sign bits of zeros included
            assert H._godunov_gradient(u, vals).tobytes() == want.tobytes()
        assert np.array_equal(want[nodes], [rising[40], rising[80], falling[120]])


class TestSolve:
    def test_constant_snapshots_identical(self, small_cfg):
        frames = H.solve_hj(lambda x: np.full_like(x, 0.25), small_cfg, [0.05, 0.1])
        for fr in frames:
            assert np.all(fr.values == 0.25)

    def test_antisymmetry_preserved(self, small_cfg):
        u0 = lambda x: 0.3 * np.tanh(3 * x)
        frames = H.solve_hj(u0, small_cfg, [0.05, 0.1])
        for fr in frames:
            assert np.max(np.abs(fr.values + fr.values[::-1])) < 1e-13

    @pytest.mark.parametrize("times", [
        # snapshot times far below any absolute slack are still stepped to
        *(np.linspace(0.0, t_end, 5) for t_end in (1e-15, 1e-14, 3e-14, 1e-13)),
        # the last step to 3.72e-283, added to its start, rounds one ulp past it
        np.concatenate([[0.0], np.geomspace(3.718865243276547e-283 / 30,
                                            3.718865243276547e-283, 4)]),
    ], ids=["1e-15", "1e-14", "3e-14", "1e-13", "3.7e-283"])
    def test_every_frame_lands_on_its_time(self, times):
        cfg = H.SchemeConfig(h=0.25, rho=0.5, t_end=times[-1])
        frames = H.solve_hj(SIGMOID, cfg, times)
        assert [fr.time for fr in frames] == times.tolist()
        assert not np.array_equal(frames[-1].values, frames[0].values)

    @pytest.mark.parametrize("times, bad", [
        ([0.05, math.nan], math.nan), ([0.05, 0.2], 0.2), ([-0.01, 0.05], -0.01),
        ([math.inf], math.inf), ([math.nextafter(0.1, 1.0)], math.nextafter(0.1, 1.0)),
    ], ids=["nan", "past-t_end", "negative", "inf", "one-ulp-past"])
    def test_snapshot_time_outside_the_run_refused(self, small_cfg, times, bad):
        # NaN and later times used to be dropped, a negative one refused as a bad t_end
        calls = []
        with pytest.raises(ValueError, match=re.escape(f"snapshot time {bad!r} is outside [0, t_end")):
            H.solve_hj(lambda x: calls.append(1) or SIGMOID(x), small_cfg, times)
        assert not calls  # refused before u0 is sampled

    def test_snapshot_times_at_both_ends_accepted(self, small_cfg):
        frames = H.solve_hj(SIGMOID, small_cfg, [0.0, -0.0, 0.05, small_cfg.t_end])
        assert [fr.time for fr in frames] == [0.0, 0.0, 0.05, small_cfg.t_end]

    def test_one_frame_per_requested_time(self, small_cfg):
        # a repeated time gives its frame again, and no time is added
        frames = H.solve_hj(SIGMOID, small_cfg, [0.05, 0.05, 0.1])
        assert [fr.time for fr in frames] == [0.05, 0.05, 0.1]
        assert np.array_equal(frames[0].values, frames[1].values)
        frames = H.solve_hj(SIGMOID, small_cfg, (0.0, small_cfg.t_end))
        assert [fr.time for fr in frames] == [0.0, small_cfg.t_end]

    def test_step_budget(self, small_cfg, monkeypatch):
        # a solve that needs k steps runs with a budget of k and gives up at k - 1
        calls = []
        step = H.step_hj
        monkeypatch.setattr(H, "step_hj", lambda *a: calls.append(1) or step(*a))
        want = H.solve_hj(SIGMOID, small_cfg, [0.05])
        k = len(calls)
        monkeypatch.setattr(H, "MAX_STEPS", k)
        got = H.solve_hj(SIGMOID, small_cfg, [0.05])
        assert [fr.time for fr in got] == [fr.time for fr in want]
        assert np.array_equal(got[-1].values, want[-1].values)
        monkeypatch.setattr(H, "MAX_STEPS", k - 1)
        with pytest.raises(H.StepBudgetExceeded):
            H.solve_hj(SIGMOID, small_cfg, [0.05])

    def test_one_operator_call_per_step(self, monkeypatch):
        # solve_hj looks step_hj up on the module, and each step applies
        # the operator once, through the module's levy_operator_all
        calls = {"step": 0, "operator": 0}
        step, operator = H.step_hj, H.levy_operator_all

        def count(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(H, "step_hj", count("step", step))
        monkeypatch.setattr(H, "levy_operator_all", count("operator", operator))
        cfg = H.SchemeConfig(L=4.0, h=1 / 128, rho=1 / 16, t_end=0.01)
        frames = H.solve_hj(SIGMOID, cfg, [0.005])
        assert frames[0].values.size == 1025 >= H.FFT_NODES
        assert calls["step"] > 2
        assert calls["operator"] == calls["step"]

    def test_ladder_reference_matches_the_plain_step(self, monkeypatch):
        # the ladder's reference solve, frame for frame, bit for bit
        spec = ExperimentSpec(datum="double_bump")
        cfg, times = spec.scheme_config(), spec.snapshot_times()
        assert cfg.h == 1 / 256
        u0 = CATALOG["double_bump"].u0
        frames = H.solve_hj(u0, cfg, times)
        monkeypatch.setattr(H, "step_hj", step_hj_plain)
        plain = H.solve_hj(u0, cfg, times)
        assert len(frames) == len(plain) == len(times)
        for a, b in zip(frames, plain):
            assert a.time == b.time and a.values.tobytes() == b.values.tobytes()

    def test_self_convergence(self):
        # roughly first order on a smooth monotone datum
        frames = {}
        for h in (1 / 32, 1 / 64, 1 / 128):
            cfg = H.SchemeConfig(L=2.0, h=h, rho=0.25, t_end=0.2)
            frames[h] = H.solve_hj(SIGMOID, cfg, [0.2])[-1]
        ref = frames[1 / 128]
        e_coarse = float(np.max(np.abs(frames[1 / 32].values - ref.interp(frames[1 / 32].xs))))
        e_fine = float(np.max(np.abs(frames[1 / 64].values - ref.interp(frames[1 / 64].xs))))
        assert e_fine < e_coarse / 1.7
        assert e_coarse < 0.05


class TestBarrier:
    def test_zero_barrier(self):
        cfg = H.SchemeConfig(L=3.0, h=1 / 64, rho=8 / 64, t_end=0.05)
        frames = H.solve_hj(lambda x: -0.2 * np.exp(-x * x), cfg, [0.05])
        ok, margin = barrier_check(np.zeros_like, 0.0, 0.0, frames)
        assert ok and margin >= 0.0

    def test_clipped_parabola(self):
        def v0(x):
            return -np.minimum(x * x, 4.0) / 2.0

        cfg = H.SchemeConfig(L=3.0, h=1 / 64, rho=8 / 64, t_end=0.05)
        frames = H.solve_hj(lambda x: v0(x) - 0.1, cfg, [0.02, 0.05])
        ok, margin = barrier_check(v0, 2.0, 1.0, frames)
        assert ok and margin > 0.0

    def test_particle_run_under_barrier(self):
        # the eps-system analogue: a sampled pair stays below the barrier
        from annihilate.harness import sample_particles
        from annihilate.integrator import IntegratorConfig, evolve
        from annihilate.levelset import from_particles

        eps = 1 / 8
        datum = pair_bump(eps)
        st = sample_particles(datum.u0, 8, 0.5, window=(-8.0, 8.0))
        ts = (0.5, 1.0)
        traj = evolve(st, IntegratorConfig(t_end=1.0, sample_times=ts))
        xs = np.linspace(-4, 4, 513)
        frames = []
        for t in (0.0,) + ts:
            u_n = from_particles(traj.state_at(t), base=-eps / 2)
            frames.append(H.GridFunction(xs=xs, values=u_n(xs), tails=(-eps / 2, -eps / 2), time=t))
        ok, margin = barrier_check(datum.u0, eps, 2 * eps, frames)
        # the step function touches u0 exactly at upward crossings (H(0)=1)
        assert ok and margin >= 0.0


class TestSemicircle:
    def test_first_order_against_the_exact_solution(self):
        # sup error at t = 0.25 over the nodes, h = 1/64, 1/128, 1/256
        semicircle = CATALOG["semicircle"]
        errs = []
        for h in (1 / 64, 1 / 128, 1 / 256):
            cfg = H.SchemeConfig(L=4.0, h=h, rho=1 / 16, t_end=0.25)
            u = H.solve_hj(semicircle.u0, cfg, (0.0, cfg.t_end))[-1]
            assert u.time == 0.25
            errs.append(float(np.max(np.abs(u.values - semicircle.exact(0.25, u.xs)))))
        assert all(a >= 1.6 * b for a, b in zip(errs[:-1], errs[1:])), errs
        assert errs[-1] <= 1e-3, errs
