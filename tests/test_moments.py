import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annihilate import moments as mm
from annihilate.moments import (
    ReconstructionError,
    LengthMismatch,
    d_M,
    moments,
    moments_to_elementary,
    reconstruct_positions,
)


class TestMoments:
    def test_direct_evaluation(self):
        assert moments([1.0, 2.0, 3.0]) == pytest.approx([6.0, 7.0, 12.0], abs=0)

    def test_zeros(self):
        assert np.all(moments(np.zeros(5)) == 0.0)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=10), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, xs, rnd):
        perm = list(xs)
        rnd.shuffle(perm)
        assert moments(perm) == pytest.approx(moments(xs), rel=1e-12, abs=1e-12)


class TestMetric:
    def test_zero_on_permutations(self):
        assert d_M([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(0.0, abs=1e-13)

    def test_exactly_zero_on_permutations(self):
        # from order 8 on the sums are taken in extended precision, whose
        # rounding depends on the order of the terms: unsorted, 3 of these
        # 384 pairs gave a nonzero d_M, the first 1.2e27 at n = 32, scale 1e3
        rng = np.random.default_rng(0)
        for n in range(9, 41):
            for scale in (1e-3, 1.0, 1e3):
                x = scale * rng.uniform(-1.0, 1.0, n)
                for _ in range(4):
                    assert d_M(x, rng.permutation(x)) == 0.0

    def test_singletons(self):
        assert d_M([0.0], [1.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            d_M([0.0], [1.0, 2.0])

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=6),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, xs, data):
        n = len(xs)
        ys = data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
        zs = data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
        assert d_M(xs, zs) <= d_M(xs, ys) + d_M(ys, zs) + 1e-9

    def test_norm_identity(self):
        # ||x||_2^2 equals twice the second moment
        x = np.array([0.3, -1.2, 2.0, 0.7])
        assert float(np.sum(x * x)) == pytest.approx(2.0 * moments(x)[1], rel=1e-14)

    def test_dm_convergence_gives_euclidean(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(-2, 2, 5))
        pert = rng.standard_normal(5)
        dms, eucs = [], []
        for m in (1, 2, 4, 8, 16, 32):
            xm = x + pert / m
            dms.append(d_M(xm, x))
            eucs.append(float(np.linalg.norm(np.sort(xm) - x)))
        assert all(b < a for a, b in zip(dms[:-1], dms[1:]))
        assert all(b < a for a, b in zip(eucs[:-1], eucs[1:]))
        assert eucs[-1] < 1e-1 * eucs[0]


class TestRows:
    # sizes past 8 use the extended-precision sum, and past 128 its blocks
    SIZES = (1, 2, 7, 8, 9, 16, 33, 130)

    @pytest.mark.parametrize("n", SIZES)
    def test_moments_rows_equal_single_calls(self, n):
        xs = np.random.default_rng(n).uniform(-1.5, 1.5, (6, n))
        block = moments(xs)
        assert block.shape == xs.shape
        assert all(np.array_equal(block[r], moments(xs[r])) for r in range(6))

    @pytest.mark.parametrize("n", SIZES)
    def test_d_M_rows_and_pairs_equal_single_calls(self, n):
        rng = np.random.default_rng(100 + n)
        xs, ys = rng.uniform(-1.5, 1.5, (2, 5, n))
        rows = d_M(xs, ys)
        assert rows.shape == (5,)
        assert all(rows[r] == d_M(xs[r], ys[r]) for r in range(5))
        pairs = d_M(xs[:, None], xs[None])
        assert pairs.shape == (5, 5)
        assert all(pairs[a, b] == d_M(xs[a], xs[b]) for a in range(5) for b in range(5))

    def test_single_call_is_the_norm_of_the_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            x, y = rng.uniform(-2, 2, (2, n))
            assert d_M(x, y) == float(np.linalg.norm(moments(x) - moments(y)))

    def test_row_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            d_M(np.zeros((3, 4)), np.zeros((3, 5)))


class TestNewton:
    def test_two_points(self):
        e = moments_to_elementary(moments([1.0, 2.0]))
        assert e == pytest.approx([1.0, 3.0, 2.0], abs=1e-13)

    def test_zero_moments(self):
        e = moments_to_elementary(np.zeros(4))
        assert e == pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0], abs=0)

    def test_single_point(self):
        e = moments_to_elementary(moments([3.5]))
        assert e == pytest.approx([1.0, 3.5], abs=0)


class TestReconstruct:
    def test_round_trip_simple(self):
        rec = reconstruct_positions(moments([1.0, 2.0, 3.0]))
        assert rec == pytest.approx([1.0, 2.0, 3.0], abs=1e-8)

    def test_double_root(self):
        rec = reconstruct_positions(moments([0.0, 0.0]))
        assert rec == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_symmetric_pair(self):
        rec = reconstruct_positions(moments([-5.0, 5.0]))
        assert rec == pytest.approx([-5.0, 5.0], abs=1e-8)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            x = np.sort(rng.uniform(-5, 5, n))
            rec = reconstruct_positions(moments(x))
            assert rec == pytest.approx(x, abs=1e-6)

    def test_unrealizable_moments_raise(self):
        # moment vector of the complex pair +-i: monic z^2 + 1
        with pytest.raises(ReconstructionError):
            reconstruct_positions(np.array([0.0, -1.0]))

    @pytest.mark.parametrize("n", [24, 28, 32])
    def test_lost_precision_is_refused(self, n):
        # float64 moments of these points returned them 2.9e-8, 1.0e-6 and
        # 3.9e-6 off, past the round-trip tolerance 1e-8
        x = np.linspace(-1.0, 1.0, n)
        with pytest.raises(ReconstructionError, match="error estimate") as info:
            reconstruct_positions(moments(x))
        # the refused roots come with the error
        assert np.max(np.abs(info.value.positions - x)) > mm.ROUND_TRIP_TOL

    def test_complex_roots_carry_no_positions(self):
        with pytest.raises(ReconstructionError, match="imaginary") as info:
            reconstruct_positions(np.array([0.0, -1.0]))
        assert info.value.positions is None

    def test_eight_points_round_trip(self):
        x = np.linspace(-1.0, 1.0, 8)
        assert np.max(np.abs(reconstruct_positions(moments(x)) - x)) <= mm.ROUND_TRIP_TOL

    def test_estimate_covers_the_error_and_refuses_only_near_the_tolerance(self):
        # uniform points, Hermite nodes and random draws, n = 4..32: each
        # family is refused somewhere; wherever it is accepted the estimate
        # is at least the true error, which is then within the tolerance,
        # and every refusal with real roots is off by at least 1/50 of it
        rng = np.random.default_rng(2)
        families = {
            "uniform": lambda n: np.linspace(-1.0, 1.0, n),
            "hermite": lambda n: np.polynomial.hermite.hermgauss(n)[0] / np.sqrt(n),
            "random": lambda n: np.sort(rng.uniform(-5.0, 5.0, n)),
        }
        for name, make in families.items():
            accepted = 0
            for n in range(4, 33):
                x = make(n)
                M = moments(x)
                tol = mm.ROUND_TRIP_TOL * max(1.0, float(np.max(np.abs(x))))
                try:
                    rec = reconstruct_positions(M)
                except ReconstructionError as exc:
                    if exc.positions is not None:
                        assert np.max(np.abs(exc.positions - x)) >= tol / 50, (name, n)
                    continue
                accepted += 1
                err = float(np.max(np.abs(rec - x)))
                assert mm._error_estimate(rec, M) >= err, (name, n)
                assert err <= tol, (name, n)
            assert 4 <= accepted < 29, name
