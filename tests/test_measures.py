import numpy as np
import pytest

from annihilate import measures as M
from annihilate.harness import sample_particles
from annihilate.integrator import IntegratorConfig, evolve
from annihilate.levelset import from_particles
from annihilate.particles import ParticleState, net_charge
from reference import (
    aec_defect_loop, mass_outside, measure_total_variation, narrow_proxy_loop, pair_bump,
)


def dipole(n):
    """The counterexample family delta_{1/n} - delta_0."""
    return M.SignedAtomicMeasure(
        locations=np.array([0.0, 1.0 / n]), weights=np.array([-1.0, 1.0])
    )


def lipschitz_family(n):
    """Atoms of the uniform ramp CDF at spacing 1/n: AEC holds with omega=|.|"""
    locs = np.linspace(0.0, 1.0, n, endpoint=False)
    return M.SignedAtomicMeasure(locations=locs, weights=np.full(n, 1.0 / n))


ZERO = M.SignedAtomicMeasure(locations=np.array([1e6]), weights=np.array([0.0]))

ORACLE_SIZES = (0, 1, 2, 17, 120, 300)


def random_measure(rng, n):
    """n atoms in [0, 1) with weights of both signs and magnitudes in [0.2, 1] / sqrt(n)."""
    signs = rng.choice([-1.0, 1.0], n)
    return M.SignedAtomicMeasure(
        locations=rng.uniform(0.0, 1.0, n),
        weights=signs * rng.uniform(0.2, 1.0, n) / np.sqrt(max(n, 1)),
    )


class TestCdf:
    def test_heaviside_convention(self):
        mu = M.SignedAtomicMeasure(locations=np.array([0.0]), weights=np.array([1.0]))
        u = M.cdf(mu)
        assert u(0.0) == 1.0  # H(0) = 1
        assert u(-1e-12) == 0.0
        assert u(1.0) == 1.0

    def test_empty_measure_is_zero_function(self):
        mu = M.SignedAtomicMeasure(locations=np.array([]), weights=np.array([]))
        u = M.cdf(mu)
        assert np.all(u(np.linspace(-5, 5, 11)) == 0.0)

    def test_uniformity_is_checked_relative_to_the_atom_size(self):
        # weights 1e-16 and 3e-16 differ by 2e-16, which an absolute 1e-15
        # would pass and then read 2e-16 past both atoms instead of 4e-16
        mu = M.SignedAtomicMeasure(locations=np.array([0.0, 1.0]),
                                   weights=np.array([1e-16, 3e-16]))
        with pytest.raises(ValueError, match="uniform"):
            M.cdf(mu)
        tiny = M.SignedAtomicMeasure(locations=np.array([0.0, 1.0]),
                                     weights=np.array([-1e-16, 1e-16]))
        assert M.cdf(tiny)(2.0) == 0.0

    @pytest.mark.parametrize("locations, weights", [
        ([np.nan, 0.0], [1.0, -1.0]), ([0.0, np.inf], [1.0, -1.0]), ([0.0, 1.0], [np.nan, 1.0]),
    ], ids=["nan-location", "inf-location", "nan-weight"])
    def test_non_finite_atoms_rejected(self, locations, weights):
        # a NaN location sorts last and passes the order check, after which
        # aec_modulus read a finite defect of 1.0 for the measure
        with pytest.raises(ValueError, match="finite"):
            M.SignedAtomicMeasure(locations=np.array(locations), weights=np.array(weights))

    def test_dipole_sup_is_one_for_every_n(self):
        for n in (2, 8, 64, 1024):
            assert M.cdf(dipole(n)).sup_norm() == 1.0

    def test_consistency_with_levelset(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            x = np.sort(rng.uniform(-2, 2, n)) + np.arange(n) * 0.01
            b = rng.choice([-1, 1], n)
            st = ParticleState(positions=x, charges=b)
            u_m = M.cdf(M.from_state(st))
            u_p = from_particles(st)
            pts = np.concatenate([x, rng.uniform(-3, 3, 60)])
            assert np.array_equal(u_m(pts), u_p(pts))


class TestAec:
    def test_lipschitz_family_passes(self):
        mus = [lipschitz_family(n) for n in (8, 16, 32, 64, 128)]
        s, ok = M.aec_modulus(mus, omega=lambda r: abs(r))
        assert ok
        for n, sn in zip((8, 16, 32, 64, 128), s):
            assert sn <= 2.0 / n + 1e-12

    def test_dipole_fails_any_modulus(self):
        ns = (8, 16, 32, 64)
        mus = [dipole(n) for n in ns]
        s, ok = M.aec_modulus(mus, omega=lambda r: 10.0 * abs(r))
        assert not ok
        for n, sn in zip(ns, s):
            assert sn >= 1.0 - 10.0 / n

    def test_zero_measures(self):
        mus = [ZERO for _ in range(4)]
        s, ok = M.aec_modulus(mus, omega=lambda r: abs(r))
        assert ok and all(v == 0.0 for v in s)


    @pytest.mark.parametrize(
        "omega",
        [
            lambda r: 0.5 * np.abs(r),
            lambda r: 4.0 * np.abs(r),
            lambda r: np.sqrt(np.abs(r)),
            lambda r: np.minimum(1.0, 3 * np.abs(r)),
            lambda r: np.where(r > 0.5, np.nan, np.abs(r)),
        ],
        ids=["lipschitz-0.5", "lipschitz-4", "sqrt", "capped", "nan-beyond-half"],
    )
    def test_row_sweep_equals_scalar_loop(self, omega):
        rng = np.random.default_rng(11)
        mus = [random_measure(rng, n) for n in ORACLE_SIZES]
        s, _ = M.aec_modulus(mus, omega)
        assert s == [aec_defect_loop(mu, omega) for mu in mus]
        assert all(v > 0.0 for v in s[1:])


class TestNarrowProxy:
    @pytest.mark.parametrize("explicit", [False, True], ids=["default", "explicit"])
    def test_matches_scalar_sums(self, explicit):
        rng = np.random.default_rng(12)
        extra = [lambda x: np.cos(3.0 * x), lambda x: np.exp(-x * x)]
        for n in ORACLE_SIZES:
            mu, nu = random_measure(rng, n), random_measure(rng, n + 3)
            d = M.default_dictionary((-1.5, 2.5)) + extra if explicit else None
            got = M.narrow_distance_proxy(mu, nu, d)
            want = narrow_proxy_loop(mu, nu, d)
            assert abs(got - want) <= 1e-13 * (measure_total_variation(mu) + measure_total_variation(nu))
            assert want > 0.0

    def test_identical_measures(self):
        mu = lipschitz_family(16)
        assert M.narrow_distance_proxy(mu, mu) == 0.0

    def test_shifted_atoms_converge(self):
        # delta_{1/n} vs delta_0 narrows at rate O(1/n)
        vals = []
        for n in (4, 16, 64, 256):
            a = M.SignedAtomicMeasure(locations=np.array([1.0 / n]), weights=np.array([1.0]))
            b = M.SignedAtomicMeasure(locations=np.array([0.0]), weights=np.array([1.0]))
            d = M.default_dictionary((-2.0, 2.0))
            vals.append(M.narrow_distance_proxy(a, b, d))
        assert all(y < x for x, y in zip(vals[:-1], vals[1:]))
        assert vals[-1] < 0.1 * vals[0]

    def test_dipole_narrows_to_zero_while_cdf_stays(self):
        # the gap in the equivalence: narrow proxy -> 0, CDF sup distance = 1
        d = M.default_dictionary((-2.0, 2.0))
        proxies = [M.narrow_distance_proxy(dipole(n), ZERO, d) for n in (4, 16, 64, 256)]
        assert all(y < x for x, y in zip(proxies[:-1], proxies[1:]))
        assert proxies[-1] < 0.05
        assert all(M.cdf(dipole(n)).sup_norm() == 1.0 for n in (4, 16, 64, 256))


class TestTrajectoryDiagnostics:
    def test_net_charge_and_tightness_along_run(self):
        eps = 1 / 8
        st = sample_particles(pair_bump(eps).u0, 8, 0.5)
        ts = tuple(np.linspace(0.0, 1.0, 6))
        traj = evolve(st, IntegratorConfig(t_end=1.0, sample_times=ts))
        support = max(abs(float(x)) for x in st.positions) + 1.0
        for t in ts:
            s = traj.state_at(t)
            mu = M.from_state(s)
            assert mu.total_mass() == pytest.approx(net_charge(s) / s.n, abs=1e-15)
            # mass outside is non-increasing in R and zero beyond support+drift
            rs = np.linspace(0.1, support, 12)
            masses = [mass_outside(mu, r) for r in rs]
            assert all(b <= a + 1e-15 for a, b in zip(masses[:-1], masses[1:]))
            assert masses[-1] == 0.0

    def test_time_dependent_sampling_uniformity(self, monkeypatch):
        # kappa_n(t_n) for t_n -> t keeps a common modulus: the defects of
        # the time-sampled family stay bounded by those at fixed time
        eps_ns = (8, 16, 32)
        t_star = 0.4
        mus = []
        for n in eps_ns:
            st = sample_particles(pair_bump(1.0 / n).u0, n, 0.5)
            t_n = t_star + 0.5 / n
            traj = evolve(st, IntegratorConfig(t_end=1.0, sample_times=(t_n,)))
            mus.append(M.from_state(traj.state_at(t_n)))
        # modulus of the limit CDF (constant zero) is 0; defects equal the
        # largest interval mass = 1/n here, which decays
        monkeypatch.setattr(M, "AEC_THRESHOLD", 0.2)
        s, ok = M.aec_modulus(mus, omega=lambda r: 0.5 * abs(r))
        assert ok
        assert all(y <= x for x, y in zip(s[:-1], s[1:]))
