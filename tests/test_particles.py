import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from annihilate.particles import (
    EventRecord,
    ForceWorkspace,
    InvalidState,
    NonFiniteForce,
    ParticleState,
    energy,
    velocity_field,
)
from reference import force, velocities


def make(x, b, gamma=None):
    return ParticleState(
        positions=np.asarray(x, float),
        charges=np.asarray(b, int),
        coupling=gamma,
    )


class TestValidate:
    def test_ordered_pair_ok(self):
        s = make([0.0, 1.0], [1, -1])
        assert s.positions.tolist() == [0.0, 1.0]

    def test_out_of_order_charged(self):
        # the message names both indices and prints plain floats
        with pytest.raises(InvalidState, match=r"x\[1\]=0\.0 <= x\[0\]=1\.0$"):
            make([1.0, 0.0], [1, -1])
        # neighbours in the charged order, across a neutral
        with pytest.raises(InvalidState, match=r"x\[2\]=-1\.0 <= x\[0\]=0\.0$"):
            make([0.0, 5.0, -1.0], [1, 0, -1])

    def test_neutral_unconstrained(self):
        s = make([1.0, 0.0], [1, 0])
        assert s.positions.tolist() == [1.0, 0.0]

    def test_bad_charge_rejected(self):
        with pytest.raises(InvalidState):
            make([0.0, 1.0], [2, -1])

    def test_fractional_charge_rejected(self):
        # a cast to int would turn 0.7 into a neutral
        with pytest.raises(InvalidState, match="charges must lie"):
            ParticleState(positions=np.array([0.0, 1.0, 2.0]), charges=[1.5, 0.7, -1])

    @pytest.mark.parametrize("coupling", [-1.0, 0.0, np.inf, np.nan])
    def test_coupling_must_be_positive_and_finite(self, coupling):
        with pytest.raises(InvalidState, match="coupling must be positive"):
            make([0.0, 1.0], [1, -1], coupling)

    def test_needs_two_particles(self):
        with pytest.raises(InvalidState):
            ParticleState(positions=np.array([0.0]), charges=np.array([1]))


class TestForce:
    def test_single_term(self):
        s = make([-1.0, 1.0], [1, -1], gamma=0.5)
        assert force(s, 0) == pytest.approx(0.25, abs=0)

    def test_neutral_is_exactly_zero(self):
        s = make([0.0, 0.5, 1.0], [1, 0, -1])
        assert force(s, 1) == 0.0

    def test_symmetric_cancellation(self):
        s = make([-1.0, 0.0, 1.0], [1, -1, 1], gamma=1 / 3)
        assert force(s, 1) == pytest.approx(0.0, abs=1e-15)

    def test_coincident_charged_raises(self):
        # no ParticleState holds coincident charges; raw arrays still can
        with pytest.raises(NonFiniteForce):
            velocity_field(np.array([0.0, 0.0]), np.array([1, -1]), 0.5)

    def test_matches_vectorized(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(-2, 2, 7))
        b = rng.choice([-1, 0, 1], 7)
        b[0], b[1] = 1, -1
        s = make(x, b)
        v = velocities(s)
        for i in range(7):
            assert v[i] == pytest.approx(force(s, i), rel=1e-13, abs=1e-15)


def _workspace_field(x, b, gamma):
    """velocity_field's workspace path on the charged sub-vector, scattered back to all n."""
    c = np.flatnonzero(b)
    bf = b[c].astype(float)
    v = np.zeros(x.size)
    v[c] = velocity_field(x[c], bf, gamma, work=ForceWorkspace(bf, gamma))
    return v


class TestKernelAccuracy:
    """velocity_field against an exactly rounded sum at the sizes the ladder runs."""

    @pytest.mark.parametrize("n, kernel", [
        *(pytest.param(n, velocity_field, id=str(n)) for n in (64, 128, 316)),
        *(pytest.param(n, _workspace_field, id=f"workspace-{n}") for n in (64, 128, 316)),
    ])
    def test_matches_fsum_with_near_collision(self, n, kernel):
        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(-1.0, 1.0, n))
        b = rng.choice([-1, 1], n)
        k = n // 2
        b[k], b[k + 1] = 1, -1
        x[k + 1] = x[k] + 1e-7 * (x[-1] - x[0])
        gamma = 1.0 / n
        v = kernel(x, b, gamma)
        eps = np.finfo(float).eps
        for i in range(n):
            terms = [b[i] * b[j] / (x[i] - x[j]) for j in range(n) if j != i]
            exact = gamma * math.fsum(terms)
            bound = 4.0 * eps * gamma * math.fsum(abs(t) for t in terms)
            assert abs(v[i] - exact) <= bound, (i, v[i] - exact, bound)
        assert abs(math.fsum(v)) <= 1e-12 * np.max(np.abs(v))

    def test_workspace_path_is_bit_identical(self):
        # the workspace path does the same divisions and row sums as the
        # public one: sizes 2..200, scales 1e-6..1e6, neutral particles
        # among the charges and one near-collision pair
        rng = np.random.default_rng(2)
        for _ in range(600):
            n = int(rng.integers(2, 201))
            x = np.sort(rng.uniform(-1.0, 1.0, n)) * 10.0 ** rng.uniform(-6.0, 6.0)
            b = rng.choice([-1, 0, 1], n)
            k = int(rng.integers(0, n - 1))
            b[k], b[k + 1] = rng.choice([-1, 1], 2)
            x[k + 1] = x[k] + 1e-9 * (x[-1] - x[0])
            gamma = 10.0 ** rng.uniform(-3.0, 0.0)
            assert np.array_equal(_workspace_field(x, b, gamma), velocity_field(x, b, gamma))


coords = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=3, max_size=8
)


def _state_from_draw(xs, signs):
    x = np.sort(np.asarray(xs)) + np.arange(len(xs)) * 1e-2  # enforce gaps
    b = np.array([1 if s else -1 for s in signs[: len(xs)]])
    return make(x, b)


class TestForceProperties:
    @given(coords, st.lists(st.booleans(), min_size=8, max_size=8), st.floats(-3, 3))
    @example(xs=[0.0, 0.0, 0.0], signs=[False] * 8, shift=2.0)
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, xs, signs, shift):
        s = _state_from_draw(xs, signs)
        shifted = make(s.positions + shift, s.charges, s.coupling)
        # rounding x + shift moves coordinate k by delta_k <= eps/2 |x_k + shift|,
        # so gap d_ij moves by at most delta_i + delta_j and the term gamma/d_ij
        # by gamma (delta_i + delta_j) / d_ij^2; the bound takes delta_k at twice that
        delta = np.finfo(float).eps * np.abs(shifted.positions)
        d = np.abs(s.positions[:, None] - s.positions[None, :])
        np.fill_diagonal(d, np.inf)
        slack = s.coupling * ((delta[:, None] + delta[None, :]) / d**2).sum(axis=1)
        for i in range(s.n):
            assert force(shifted, i) == pytest.approx(
                force(s, i), rel=1e-9, abs=1e-12 + slack[i]
            )

    @given(coords, st.lists(st.booleans(), min_size=8, max_size=8), st.floats(0.1, 5))
    @settings(max_examples=40, deadline=None)
    def test_scale_covariance(self, xs, signs, alpha):
        s = _state_from_draw(xs, signs)
        scaled = make(alpha * s.positions, s.charges, s.coupling)
        # rounding the scaled coordinates perturbs a near-cancelling sum by
        # eps times the largest term, so the absolute slack follows that scale
        term_scale = s.coupling / float(np.min(np.diff(np.sort(scaled.positions))))
        for i in range(s.n):
            assert force(scaled, i) == pytest.approx(
                force(s, i) / alpha, rel=1e-9, abs=1e-11 * (1.0 + term_scale)
            )

    @given(coords, st.lists(st.booleans(), min_size=8, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_total_force_vanishes(self, xs, signs):
        s = _state_from_draw(xs, signs)
        v = velocities(s)
        scale = max(1e-30, float(np.max(np.abs(v))))
        assert abs(v.sum()) <= 1e-12 * scale + 1e-15

    @given(coords, st.lists(st.booleans(), min_size=8, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_charge_flip_invariance(self, xs, signs):
        s = _state_from_draw(xs, signs)
        flipped = make(s.positions, -s.charges, s.coupling)
        assert np.array_equal(velocities(flipped), velocities(s))


class TestEnergy:
    def test_unit_gap_like_charges(self):
        assert energy(np.array([0.0, 1.0]), np.array([1, 1])) == 0.0

    def test_log_gap(self):
        assert energy(np.array([0.0, np.e]), np.array([1, -1])) == pytest.approx(0.25, rel=1e-14)

    def test_single_charged_is_zero(self):
        assert energy(np.array([0.0, 1.0, 2.0]), np.array([0, 1, 0])) == 0.0

    def test_coincident_raises(self):
        # the state itself refuses coincident charges, so energy never sees them
        with pytest.raises(InvalidState):
            s = make([0.0, 0.0], [1, -1])
            energy(s.positions, s.charges)

    def test_rows_equal_single_calls(self):
        # one call over a (samples, n) block gives each row's own energy, bit for bit
        rng = np.random.default_rng(11)
        b = np.array([1, -1, 0, 1, 1, -1, 0, -1, 1])
        x = np.sort(rng.uniform(-1.0, 1.0, (6, b.size)), axis=1)
        assert energy(x, b).tolist() == [energy(row, b) for row in x]


class TestEventRecord:
    def test_charge_conservation_enforced(self):
        with pytest.raises(InvalidState):
            EventRecord(tau=1.0, y=0.0, cluster=(0, 1), pre_charges=(1, -1), post_charges=(1, 0))

    def test_single_survivor_enforced(self):
        with pytest.raises(InvalidState):
            EventRecord(
                tau=1.0, y=0.0, cluster=(0, 1, 2, 3),
                pre_charges=(1, -1, 1, -1), post_charges=(1, -1, 0, 0),
            )

    def test_pair_annihilation_ok(self):
        ev = EventRecord(tau=1.0, y=0.0, cluster=(0, 1), pre_charges=(1, -1), post_charges=(0, 0))
        assert sum(ev.post_charges) == 0
