import math

import numpy as np
import pytest

from annihilate import hjsolver as H
from annihilate.harness import CATALOG
from reference import (
    barrier_check,
    far_field_grid,
    levy_operator,
    levy_operator_direct,
    near_field_quadrature,
)

SIGMOID = CATALOG["sigmoid"].u0


def tanh_profile(xs, c=0.0, amp=0.4, rate=2.0):
    return amp * np.tanh(rate * (xs - c))


@pytest.fixture
def small_cfg():
    return H.SchemeConfig(L=2.0, h=1 / 64, rho=4 / 64, cfl=0.8, t_end=0.1)


class TestConfig:
    def test_rho_must_be_cell_multiple(self):
        with pytest.raises(ValueError):
            H.SchemeConfig(L=1.0, h=1 / 16, rho=0.1, cfl=0.5, t_end=1.0)

    def test_rho_at_least_two_cells(self):
        with pytest.raises(ValueError):
            H.SchemeConfig(L=1.0, h=1 / 16, rho=1 / 16, cfl=0.5, t_end=1.0)

    def test_cfl_range(self):
        with pytest.raises(ValueError):
            H.SchemeConfig(L=1.0, h=1 / 16, rho=4 / 16, cfl=1.5, t_end=1.0)

    @pytest.mark.parametrize("name", ["L", "t_end"])
    def test_infinite_extent_rejected(self, name):
        # solve_hj would march towards an infinite t_end without end
        kwargs = {"L": 1.0, "h": 1 / 16, "rho": 4 / 16, "cfl": 0.5, "t_end": 1.0, name: math.inf}
        with pytest.raises(ValueError, match="finite"):
            H.SchemeConfig(**kwargs)


class TestOperator:
    def test_constant_maps_to_zero(self, small_cfg):
        u = H.GridFunction.from_callable(lambda x: 0.7, small_cfg)
        assert levy_operator(u, 50, small_cfg.rho) == 0.0
        assert np.max(np.abs(H.levy_operator_all(u, small_cfg.rho))) < 1e-11

    def test_quartic_near_field(self):
        # int_{|z|<rho} of the compensated quartic: 12 (x-y)^2 rho + 2/3 rho^3
        rho = 0.5
        h = rho / 32
        cfg = H.SchemeConfig(L=4.0, h=h, rho=rho, cfl=0.8, t_end=1.0)
        y = 0.3
        u = H.GridFunction.from_callable(
            lambda x: (x - y) ** 4 * math.exp(-((x / 3.0) ** 4)), cfg
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
        bound = 4.0 * u.sup_norm() / small_cfg.rho
        for i in range(0, 257, 16):
            assert abs(far_field_grid(u, i, small_cfg.rho)) <= bound + 1e-12

    def test_gaussian_against_reference(self):
        # pv int (e^{-z^2} - 1)/z^2 dz = -2 sqrt(pi), by parts
        cfg = H.SchemeConfig(L=8.0, h=1 / 128, rho=16 / 128, cfl=0.8, t_end=1.0)
        u = H.GridFunction.from_callable(lambda x: math.exp(-x * x), cfg)
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
        u = H.GridFunction.from_callable(lambda x: 0.3, small_cfg)
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
            vals = 0.5 * np.array([_smoothstep((x - c) / 0.5) for x in xs])
            vals += 0.2 * np.array([_mollifier((x + c) / 0.5) for x in xs])
            u = H.GridFunction(xs=xs, values=vals, tails=(0.0, 0.5))
            sup, lip = u.sup_norm(), u.lipschitz()
            for _ in range(20):
                u = H.step_hj(u, small_cfg)
                assert u.sup_norm() <= sup + 1e-12
                assert u.lipschitz() <= lip + 1e-9
                sup, lip = u.sup_norm(), u.lipschitz()

    def test_translation_equivariance_exact(self, small_cfg):
        # compactly varying datum: shifting by one cell commutes exactly
        xs = np.linspace(-2, 2, 257)
        vals = np.array([SIGMOID(x) for x in xs])
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


class TestSolve:
    def test_constant_snapshots_identical(self, small_cfg):
        frames = H.solve_hj(lambda x: 0.25, small_cfg, [0.05, 0.1])
        for fr in frames:
            assert np.all(fr.values == 0.25)

    def test_antisymmetry_preserved(self, small_cfg):
        u0 = lambda x: 0.3 * math.tanh(3 * x)
        frames = H.solve_hj(u0, small_cfg, [0.05, 0.1])
        for fr in frames:
            assert np.max(np.abs(fr.values + fr.values[::-1])) < 1e-13

    def test_self_convergence(self):
        # roughly first order on a smooth monotone datum
        frames = {}
        for h in (1 / 32, 1 / 64, 1 / 128):
            cfg = H.SchemeConfig(L=2.0, h=h, rho=0.25, cfl=0.8, t_end=0.2)
            frames[h] = H.solve_hj(SIGMOID, cfg, [0.2])[-1]
        ref = frames[1 / 128]
        e_coarse = float(np.max(np.abs(frames[1 / 32].values - ref.interp(frames[1 / 32].xs))))
        e_fine = float(np.max(np.abs(frames[1 / 64].values - ref.interp(frames[1 / 64].xs))))
        assert e_fine < e_coarse / 1.7
        assert e_coarse < 0.05


class TestBarrier:
    def test_zero_barrier(self):
        cfg = H.SchemeConfig(L=3.0, h=1 / 64, rho=8 / 64, cfl=0.8, t_end=0.05)
        u0 = H.GridFunction.from_callable(lambda x: -0.2 * math.exp(-x * x), cfg)
        frames = H.solve_hj(u0, cfg, [0.05])
        ok, margin = barrier_check(lambda x: 0.0, 0.0, 0.0, frames)
        assert ok and margin >= 0.0

    def test_clipped_parabola(self):
        def v0(x):
            return -min(x * x, 4.0) / 2.0

        cfg = H.SchemeConfig(L=3.0, h=1 / 64, rho=8 / 64, cfl=0.8, t_end=0.05)
        u0 = H.GridFunction.from_callable(lambda x: v0(x) - 0.1, cfg)
        frames = H.solve_hj(u0, cfg, [0.02, 0.05])
        ok, margin = barrier_check(v0, 2.0, 1.0, frames)
        assert ok and margin > 0.0

    def test_particle_run_under_barrier(self):
        # the eps-system analogue: a sampled pair stays below the barrier
        from annihilate.harness import pair_bump, sample_particles
        from annihilate.integrator import IntegratorConfig, evolve
        from annihilate.levelset import from_particles

        eps = 1 / 8
        datum = pair_bump(eps)
        st = sample_particles(datum.u0, 8, 0.5, window=datum.window)
        ts = (0.5, 1.0)
        traj = evolve(st, IntegratorConfig(t_end=1.0, sample_times=ts))
        xs = np.linspace(-4, 4, 513)
        frames = []
        for t in (0.0,) + ts:
            u_n = from_particles(traj.state_at(t, tol=1e-9), base=-eps / 2)
            frames.append(H.GridFunction(xs=xs, values=u_n(xs), tails=(-eps / 2, -eps / 2), time=t))
        ok, margin = barrier_check(datum.u0, eps, 2 * eps, frames)
        # the step function touches u0 exactly at upward crossings (H(0)=1)
        assert ok and margin >= 0.0
