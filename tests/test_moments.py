import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annihilate.moments import LengthMismatch, NonFiniteMoments, d_M, moments


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

    @pytest.mark.parametrize("x, y", [
        ([1.0e200, 2.0e200], [0.0, 1.0]),  # M_2 is inf
        ([1.0e160, -1.0e160, 3.0], [1.0e160, -1.0e160, 4.0]),  # inf - inf in M_3
        ([1.0e100, 0.0], [0.0, 1.0]),  # finite moments, the square of M_2 is inf
    ], ids=["inf-moment", "inf-minus-inf", "inf-square"])
    def test_past_float64_raises(self, x, y):
        # a typed error, not a nan or a RuntimeWarning
        with pytest.raises(NonFiniteMoments, match="past float64"):
            d_M(x, y)
        with pytest.raises(NonFiniteMoments):
            d_M(np.array([x, y]), np.array([y, y]))  # one bad row in a stack

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

    @given(st.lists(st.integers(1, 8), min_size=2, max_size=7), st.integers(-16, 16),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_reflection_is_told_apart_unless_symmetric(self, gaps, start, symmetric):
        # reflection about the mean c keeps M_1 and M_2, so only the higher
        # moments tell x from 2c - x.  Positions lie on the grid 1/8, at
        # least 0.125 apart: a symmetric x has c on the grid 1/16, and its
        # reflection is then the same multiset bit for bit
        if symmetric:
            gaps = gaps[: len(gaps) // 2] + gaps[: (len(gaps) + 1) // 2][::-1]
        x = (start + np.cumsum([0, *gaps])) / 8.0
        dist = d_M(x, 2.0 * x.mean() - x)
        if gaps == gaps[::-1]:
            assert dist == 0.0
        else:
            assert dist > 0.0

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
