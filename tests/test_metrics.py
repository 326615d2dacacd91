import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowl.metrics import (MetricSeries, _average_ranks, auroc, average_accuracy,
                          count_odp, ema)


def pairwise_auroc_oracle(in_scores, out_scores):
    """Brute-force: count outlier>inlier pairs, ties worth one half."""
    count = 0.0
    for o in out_scores:
        for i in in_scores:
            if o > i:
                count += 1.0
            elif o == i:
                count += 0.5
    return count / (len(in_scores) * len(out_scores))


class TestAverageAccuracy:
    def test_mean(self):
        assert average_accuracy([0.8, 0.6]) == pytest.approx(0.7)

    def test_single(self):
        assert average_accuracy([0.37]) == pytest.approx(0.37)

    def test_constant(self):
        assert average_accuracy([0.5] * 7) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_accuracy([])

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=20),
           st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariant(self, values, seed):
        rng = np.random.default_rng(seed)
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert average_accuracy(shuffled) == pytest.approx(average_accuracy(values))


class TestCountOdp:
    def test_repeat_counted_once(self):
        assert count_odp([(5, 1), (5, 2)]) == 1

    def test_empty(self):
        assert count_odp([]) == 0

    def test_three_across_two_timesteps(self):
        assert count_odp([(1, 1), (2, 1), (3, 2)]) == 3

    def test_monotone_in_log(self):
        log = []
        last = 0
        rng = np.random.default_rng(0)
        for t in range(50):
            log.append((int(rng.integers(0, 20)), t))
            now = count_odp(log)
            assert now >= last
            last = now


class TestAuroc:
    def test_fully_separated(self):
        assert auroc([1.0, 2.0, 3.0], [10.0, 11.0]) == 1.0

    def test_identical_distributions(self):
        x = list(np.random.default_rng(1).normal(size=500))
        assert auroc(x, x) == pytest.approx(0.5)

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(2)
        # quantized scores force plenty of ties
        in_scores = np.round(rng.normal(size=1000), 1)
        out_scores = np.round(rng.normal(0.5, 1.0, size=700), 1)
        assert auroc(in_scores, out_scores) == pairwise_auroc_oracle(
            in_scores.tolist(), out_scores.tolist())

    @given(st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf]),
                    min_size=1, max_size=40),
           st.lists(st.integers(-2, 2).map(float), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_many_ties_match_pairwise_oracle(self, in_scores, out_scores):
        """Few distinct values (-0.0 and 0.0 tie, as do equal infinities)."""
        assert auroc(in_scores, out_scores) == pairwise_auroc_oracle(in_scores, out_scores)

    def test_ranks_match_unique_based_ranks(self):
        """Tie runs taken from the sorted values give the ranks np.unique's
        runs give, NaNs (sorted last, tied with each other) included."""
        rng = np.random.default_rng(4)
        values = rng.integers(0, 6, size=300).astype(float)
        values[rng.random(300) < 0.1] = np.nan
        values[rng.random(300) < 0.05] = -0.0
        order = np.argsort(values, kind="mergesort")
        _, inverse, counts = np.unique(values[order], return_inverse=True,
                                       return_counts=True)
        expected = np.empty(300)
        expected[order] = (np.cumsum(counts) - counts + (counts + 1) / 2.0)[inverse]
        np.testing.assert_array_equal(_average_ranks(values), expected)
        assert _average_ranks(np.zeros(0)).shape == (0,)

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        a = np.round(rng.normal(size=200), 1)
        b = np.round(rng.normal(0.3, 2.0, size=300), 1)
        assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_direction_flag(self):
        low_is_outlier_in = [5.0, 6.0]
        low_is_outlier_out = [1.0, 2.0]
        assert auroc(low_is_outlier_in, low_is_outlier_out,
                     higher_is_outlier=False) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auroc([], [1.0])


class TestEma:
    def test_decay_one_is_identity(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert ema(values, 1.0) == values

    def test_constant_series(self):
        assert ema([2.0] * 6, 0.3) == pytest.approx([2.0] * 6)

    def test_matches_direct_recurrence(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=30).tolist()
        decay = 0.1
        expected = [values[0]]
        for v in values[1:]:
            expected.append(decay * v + (1 - decay) * expected[-1])
        assert ema(values, decay) == pytest.approx(expected)

    def test_decay_validated(self):
        with pytest.raises(ValueError):
            ema([1.0], 0.0)

    def test_series_x_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            MetricSeries("s", [0.0, 0.0], [1.0, 2.0])
