import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annihilate import levelset as L
from annihilate.particles import ParticleState
from reference import staircase, total_variation


def make(x, b, gamma=None):
    return ParticleState(
        positions=np.asarray(x, float),
        charges=np.asarray(b, int),
        coupling=gamma,
    )


class TestFromParticles:
    def test_opposite_pair_profile(self):
        u = L.from_particles(make([0.0, 1.0], [1, -1]))
        assert u(-0.5) == 0.0
        assert u(0.0) == 0.5  # H(0) = 1
        assert u(0.5) == 0.5
        assert u(1.0) == 0.0
        assert u(2.0) == 0.0

    def test_all_neutral_is_constant(self):
        u = L.from_particles(make([0.0, 1.0], [0, 0]), base=0.25)
        xs = np.linspace(-2, 2, 11)
        assert np.all(u(xs) == 0.25)

    def test_monotone_staircase(self):
        u = L.from_particles(make([0.0, 1.0], [1, 1]))
        assert u(-1.0) == 0.0
        assert u(0.5) == 0.5
        assert u(1.5) == 1.0

    def test_total_variation(self):
        u = L.from_particles(make([0.0, 1.0, 2.0], [1, -1, 0]))
        assert total_variation(u) == pytest.approx(2 / 3)

    def test_fractional_signs_rejected(self):
        # a cast to int would store the signs [1, -1]
        with pytest.raises(ValueError, match="jump signs must be"):
            L.StepFunction(locations=np.array([0.0, 1.0]), signs=[1.9, -1.2], eps=0.5)

    @pytest.mark.parametrize("locations", [[0.0, np.nan, 1.0], [np.nan], [0.0, 1.0, np.inf]],
                             ids=["nan-inside", "nan-alone", "inf"])
    def test_non_finite_locations_rejected(self, locations):
        # a difference with a NaN is not <= 0, so the order check alone passed one
        with pytest.raises(ValueError, match="finite"):
            L.StepFunction(locations=np.array(locations), signs=[1, -1, 1][:len(locations)],
                           eps=0.5)


class TestStaircase:
    def test_upper_example(self):
        assert staircase(0.6, 0.5, "upper") == 0.75

    def test_at_zero(self):
        eps = 1 / 8
        assert staircase(0.0, eps, "upper") == eps / 2
        assert staircase(0.0, eps, "lower") == -eps / 2

    def test_periodic_and_bounded(self):
        # dense sampling of the definition: E(a) - a is eps-periodic with
        # |E(a) - a| <= eps/2 away from the jump set
        eps = 0.3
        alphas = np.linspace(-2.0, 2.0, 1201) + 1e-4
        devs = np.array([staircase(a, eps, "upper") - a for a in alphas])
        assert np.max(np.abs(devs)) <= eps / 2 + 1e-12
        shifted = np.array([staircase(a + eps, eps, "upper") - (a + eps) for a in alphas])
        assert shifted == pytest.approx(devs, abs=1e-12)

    def test_envelope_relation(self):
        # lower envelope equals upper except on the grid where it drops eps
        eps = 0.25
        assert staircase(0.5001, eps, "upper") == pytest.approx(
            staircase(0.5001, eps, "lower"), abs=1e-12
        )
        assert staircase(0.5, eps, "upper") - staircase(0.5, eps, "lower") == pytest.approx(eps)

    @given(
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(min_value=1e-3, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_ordered(self, alpha, beta, eps):
        # both variants are nondecreasing and the lower never exceeds the upper
        lo, hi = sorted((alpha, beta))
        for variant in ("upper", "lower"):
            assert staircase(lo, eps, variant) <= staircase(hi, eps, variant) + 1e-12
        assert staircase(alpha, eps, "lower") <= staircase(alpha, eps, "upper") + 1e-12


class TestOperator:
    def test_closed_form_pair(self):
        u = L.from_particles(make([-1.0, 1.0], [1, -1], gamma=0.5))
        m = L.nonlocal_operator_closed_form(u)[0]
        assert m == pytest.approx(-0.25, abs=0)
        # velocity relation: dx/dt = -b * M equals the force
        from reference import force

        st = make([-1.0, 1.0], [1, -1], gamma=0.5)
        assert -st.charges[0] * m == pytest.approx(force(st, 0), abs=1e-15)

    def test_symmetric_triple_vanishes(self):
        u = L.from_particles(make([-1.0, 0.0, 1.0], [1, -1, 1], gamma=1 / 3))
        assert L.nonlocal_operator_closed_form(u)[1] == pytest.approx(0.0, abs=1e-15)

    def test_quadrature_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            x = np.sort(rng.uniform(-2, 2, n)) + np.arange(n) * 0.01
            b = rng.choice([-1, 1], n)
            u = L.from_particles(make(x, b))
            closed = L.nonlocal_operator_closed_form(u)
            for j in range(u.n_jumps):
                q = L.nonlocal_operator_quadrature(u, float(u.locations[j]))
                assert abs(q - closed[j]) <= 1e-10

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_identity_property(self, data):
        n = data.draw(st.integers(2, 8))
        gaps = data.draw(
            st.lists(st.floats(0.05, 1.5), min_size=n, max_size=n)
        )
        signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        x = np.cumsum(gaps)
        b = np.array([1 if s else -1 for s in signs])
        u = L.from_particles(make(x, b))
        j = data.draw(st.integers(0, n - 1))
        q = L.nonlocal_operator_quadrature(u, float(u.locations[j]))
        c = L.nonlocal_operator_closed_form(u)[j]
        assert abs(q - c) <= 1e-10

    def test_far_field_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            x = np.sort(rng.uniform(-2, 2, n)) + np.arange(n) * 0.01
            b = rng.choice([-1, 1], n)
            u = L.from_particles(make(x, b))
            j = int(rng.integers(0, n))
            rho = float(rng.uniform(0.05, 3.0))
            assert abs(L.far_field(u, j, rho)) <= (4 * u.sup_norm() + u.eps) / rho + 1e-12

    def test_single_jump_vanishes(self):
        u = L.StepFunction(locations=np.array([0.3]), signs=np.array([1]), eps=0.25)
        assert L.nonlocal_operator_quadrature(u, 0.3) == 0.0

    def test_not_a_jump_rejected(self):
        u = L.from_particles(make([0.0, 1.0], [1, -1]))
        with pytest.raises(ValueError):
            L.nonlocal_operator_quadrature(u, 0.4)


class TestEnvelopes:
    def test_sandwich(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(-2, 2, 6)) + np.arange(6) * 0.01
        b = rng.choice([-1, 1], 6)
        u = L.from_particles(make(x, b))
        pts = np.concatenate([u.locations, rng.uniform(-3, 3, 50)])
        assert np.all(u.lower(pts) <= u(pts))
        assert np.all(u(pts) <= u.upper(pts))
        gaps = u.upper(u.locations) - u.lower(u.locations)
        assert np.all(np.isclose(gaps, u.eps) | np.isclose(gaps, 0.0))

    def test_level_reconstruction(self):
        # continuous v with 0 < v - u < eps off jumps recovers the upper
        # envelope through floor(n v)/n
        n = 5
        u = L.from_particles(make([-1.0, -0.2, 0.4, 1.1, 1.8], [1, -1, 1, 1, -1], gamma=1 / n))
        plateaus = u.plateau_values()
        knots_x = [float(u.locations[0]) - 1.0]
        knots_v = [plateaus[0] + u.eps / 2]
        for k in range(u.n_jumps):
            knots_x.append(float(u.locations[k]))
            knots_v.append(float(u.upper(u.locations[k])))
            right = u.locations[k + 1] if k + 1 < u.n_jumps else u.locations[k] + 2.0
            knots_x.append(0.5 * (float(u.locations[k]) + float(right)))
            knots_v.append(plateaus[k + 1] + u.eps / 2)

        def v(x):
            return np.interp(x, knots_x, knots_v)

        rng = np.random.default_rng(4)
        pts = rng.uniform(-2.5, 3.0, 400)
        pts = pts[np.min(np.abs(pts[:, None] - u.locations[None, :]), axis=1) > 1e-9]
        vv = v(pts)
        uu = u(pts)
        inside = (vv - uu > 0) & (vv - uu < u.eps)
        assert np.all(inside)
        floors = np.floor(n * vv) / n
        assert floors == pytest.approx(u.upper(pts), abs=1e-12)
