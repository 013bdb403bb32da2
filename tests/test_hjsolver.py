import math
from dataclasses import replace

import numpy as np
import pytest

from annihilate import hjsolver as H
from annihilate.harness import CATALOG
from reference import (
    barrier_check,
    far_field_grid,
    grid_lipschitz,
    grid_sup_norm,
    levy_operator,
    levy_operator_direct,
    near_field_quadrature,
    pair_bump,
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

    @pytest.mark.parametrize("n", [601, 1025, 8193])
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
            at = u.copy_with(u.values, time)
            past = H.step_hj(at, small_cfg)
            free = H.step_hj(at, replace(small_cfg, t_end=1e6))
            assert past.time == free.time > time
            assert np.array_equal(past.values, free.values)

    def test_godunov_gradient_against_one_sided_differences(self, small_cfg):
        u = H.GridFunction.from_callable(lambda x: np.sin(3 * x), small_cfg)
        v = H.levy_operator_all(u, small_cfg.rho)
        U = np.concatenate([[u.tails[0]], u.values, [u.tails[1]]])
        dm = (U[1:-1] - U[:-2]) / u.h
        dp = (U[2:] - U[1:-1]) / u.h
        want = np.where(v >= 0.0, np.maximum(np.maximum(-dm, dp), 0.0),
                        np.maximum(np.maximum(dm, -dp), 0.0))
        # bit for bit, sign bits of zeros included
        assert H._godunov_gradient(u, v).tobytes() == want.tobytes()


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
            u = H.solve_hj(semicircle.u0, cfg)[-1]
            assert u.time == 0.25
            errs.append(float(np.max(np.abs(u.values - semicircle.exact(0.25, u.xs)))))
        assert all(a >= 1.6 * b for a, b in zip(errs[:-1], errs[1:])), errs
        assert errs[-1] <= 1e-3, errs
