import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowl.metrics import auroc, average_accuracy, count_odp

from reference import pairwise_auroc


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
        assert auroc(in_scores, out_scores) == pairwise_auroc(
            in_scores.tolist(), out_scores.tolist())

    @given(st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf]),
                    min_size=1, max_size=40),
           st.lists(st.integers(-2, 2).map(float), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_many_ties_match_pairwise_oracle(self, in_scores, out_scores):
        """Few distinct values (-0.0 and 0.0 tie, as do equal infinities)."""
        assert auroc(in_scores, out_scores) == pairwise_auroc(in_scores, out_scores)

    def test_nan_sorts_last_and_ties_itself(self):
        """A NaN score outranks every number and ties another NaN, the way
        the pairwise oracle scores +inf when no other infinity is present;
        -0.0 and 0.0 tie."""
        rng = np.random.default_rng(4)
        values = rng.integers(0, 6, size=300).astype(float)
        values[rng.random(300) < 0.1] = np.nan
        values[rng.random(300) < 0.05] = -0.0
        in_scores, out_scores = values[:120], values[120:]
        as_inf = np.nan_to_num(values, nan=np.inf)
        assert auroc(in_scores, out_scores) == pairwise_auroc(
            as_inf[:120].tolist(), as_inf[120:].tolist())
        assert auroc([np.nan], [np.nan]) == 0.5 and auroc([1.0], [np.nan]) == 1.0

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        a = np.round(rng.normal(size=200), 1)
        b = np.round(rng.normal(0.3, 2.0, size=300), 1)
        assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auroc([], [1.0])

