import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowl.nn import EVAL_CHUNK, build_mlp, eval_rows
from bowl.query import (CandidatePool, entropy_term, mean_pairwise_cosine, query_scores,
                        sample_entropies, select_top)

from bn_reference import bn_net, reference_rows
from reference import mean_cosine


def _spread(x, gammas=(1.0,)):
    """Per-row spread of a batch-norm-only network whose first layer's z is x."""
    x = np.asarray(x, dtype=np.float32)
    return eval_rows(bn_net(x.shape[1], gammas), x, spread=True)[2]


class TestActivationSpread:
    def test_all_zero_activations(self):
        np.testing.assert_array_equal(_spread(np.zeros((3, 4))), np.zeros(3))

    def test_mean_of_squares_single_layer(self):
        assert _spread([[1.0, -1.0]])[0] == 1.0

    def test_layer_mean_of_layer_means(self):
        # per-layer mean squares 0.5 and 1.5 -> spread 1.0
        assert _spread([[1.0, 0.0]], gammas=(1.0, math.sqrt(3.0)))[0] == pytest.approx(1.0)


class TestEntropyTerm:
    def test_unit_variance(self):
        assert entropy_term(1.0) == pytest.approx(0.5 * (1 + math.log(2 * math.pi)))
        assert entropy_term(1.0) == pytest.approx(1.4189385332046727)

    def test_log_term_vanishes(self):
        assert entropy_term(1.0 / (2 * math.pi)) == pytest.approx(0.5)

    def test_value_one(self):
        assert entropy_term(math.e / (2 * math.pi)) == pytest.approx(1.0)

    def test_zero_is_minus_infinity(self):
        assert entropy_term(0.0) == -math.inf

    def test_monotone_in_variance(self):
        grid = np.linspace(0.01, 5, 100)
        assert (np.diff(entropy_term(grid)) > 0).all()


class TestPoolSimilarity:
    def test_identical_vectors_give_one(self):
        x = np.tile([0.3, 0.4, 0.5], (6, 1))
        np.testing.assert_allclose(mean_pairwise_cosine(x), np.ones(6), atol=1e-12)

    def test_orthogonal_member_gives_zero(self):
        x = np.array([[1.0, 0, 0, 0], [0, 1.0, 1.0, 0], [0, 1.0, 0.5, 0]])
        beta = mean_pairwise_cosine(x)
        assert beta[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 17, 5000])
    def test_closed_form_matches_naive_oracle(self, n):
        # Non-negative rows, like the loop's [0, 1] inputs: every cosine is
        # positive, so the row sums u_i . S are as large as they get.
        x = np.random.default_rng(11).random((n, 64))
        np.testing.assert_allclose(mean_pairwise_cosine(x), mean_cosine(x),
                                   rtol=0, atol=1e-12)

    def test_zero_row_has_cosine_zero_to_every_row(self):
        # u = (1, 0), 0, (1, 1)/sqrt2 and S = (1 + 1/sqrt2, 1/sqrt2): rows 0 and 2
        # have cosine 1/sqrt2 to each other and 0 to the zero row, so each
        # averages 1/(2 sqrt2) over its two others; the zero row averages 0.
        x = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        half = 1.0 / (2.0 * math.sqrt(2.0))
        np.testing.assert_allclose(mean_pairwise_cosine(x), [half, 0.0, half],
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(mean_pairwise_cosine(np.zeros((3, 2))), np.zeros(3))

    def test_float64_rows_are_not_written(self):
        x = np.random.default_rng(12).random((9, 5))
        x[4] = 0.0
        before = x.copy()
        mean_pairwise_cosine(x)
        np.testing.assert_array_equal(x, before)

    def test_singleton_pool_convention(self):
        assert mean_pairwise_cosine(np.array([[1.0, 2.0]]))[0] == 0.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_beta_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        x = rng.normal(size=(n, int(rng.integers(1, 8))))
        x[rng.random(n) < 0.1] = 0.0  # zero rows have cosine 0 to every row
        beta = mean_pairwise_cosine(x)
        assert (beta >= -1.0 - 1e-12).all() and (beta <= 1.0 + 1e-12).all()
        nonneg = np.abs(x)
        beta2 = mean_pairwise_cosine(nonneg)
        assert (beta2 >= -1e-12).all() and (beta2 <= 1.0 + 1e-12).all()

    def test_duplicate_raises_beta(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(10, 6))
        before = mean_pairwise_cosine(x)[3]
        with_dup = np.vstack([x, x[3]])
        after = mean_pairwise_cosine(with_dup)[3]
        assert after >= before


def _pool_from(inputs, labels=None, ids=None):
    pool = CandidatePool()
    n = len(inputs)
    labels = labels if labels is not None else np.zeros(n, dtype=np.int64)
    ids = ids if ids is not None else list(range(n))
    pool.append_batch(np.asarray(inputs, dtype=np.float32), labels, ids)
    return pool


@pytest.fixture(scope="module")
def net():
    return build_mlp(5, [8, 4], 3, np.random.default_rng(0))


class TestQueryScores:
    def test_singleton_pool_gamma_zero(self, net):
        pool = _pool_from(np.random.default_rng(1).normal(size=(1, 5)))
        assert query_scores(net, pool).tolist() == [0.0]

    def test_gamma_is_alpha_times_beta(self, net):
        pool = _pool_from(np.random.default_rng(2).normal(size=(20, 5)))
        x = pool.inputs_matrix()
        np.testing.assert_allclose(query_scores(net, pool),
                                   sample_entropies(net, x) * mean_pairwise_cosine(x),
                                   rtol=1e-12)

    def test_permutation_equivariance(self, net):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 5)).astype(np.float32)
        perm = rng.permutation(12)
        scores = query_scores(net, _pool_from(x))
        scores_perm = query_scores(net, _pool_from(x[perm]))
        np.testing.assert_allclose(scores_perm, scores[perm], rtol=1e-9)

    def test_batched_forward_independent_of_batching(self, net):
        # The rows cross a forward-chunk boundary; eval-mode scores are per row.
        n = EVAL_CHUNK + 88
        x = np.random.default_rng(4).normal(size=(n, 5)).astype(np.float32)
        row_by_row = np.concatenate([sample_entropies(net, x[i:i + 1]) for i in range(n)])
        np.testing.assert_allclose(query_scores(net, _pool_from(x)),
                                   row_by_row * mean_pairwise_cosine(x), rtol=1e-9)

    def test_empty_pool_rejected(self, net):
        with pytest.raises(ValueError, match="empty"):
            query_scores(net, CandidatePool())

    def test_entropies_are_those_of_the_layer_activations(self, net):
        x = np.random.default_rng(5).normal(size=(40, 5)).astype(np.float32)
        np.testing.assert_array_equal(sample_entropies(net, x),
                                      entropy_term(reference_rows(net, x)[2]))


class TestSelectTop:
    def _scores(self, gammas):
        return np.asarray(gammas, dtype=np.float64)

    def test_whole_pool_when_b_large(self):
        pool = _pool_from(np.eye(3), labels=np.array([4, 5, 6]))
        taken = select_top(pool, self._scores([0.1, 0.5, 0.3]), 10)
        assert len(taken) == 3
        assert len(pool) == 0
        assert [t.label for t in taken] == [5, 6, 4]  # descending gamma

    def test_tie_break_by_lower_id(self):
        pool = _pool_from(np.eye(3), ids=[1, 2, 3])
        taken = select_top(pool, self._scores([0.2, 0.9, 0.9]), 1)
        assert [t.id for t in taken] == [2]

    def test_pool_partition(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 4))
        pool = _pool_from(x, ids=list(range(10)))
        taken = select_top(pool, self._scores(rng.normal(size=10)), 4)
        assert len(taken) == 4 and len(pool) == 6
        assert sorted([t.id for t in taken] + pool.ids.tolist()) == list(range(10))

    def test_oracle_reveal_counted(self):
        pool = _pool_from(np.eye(4))
        assert pool.oracle_reveals == 0
        select_top(pool, self._scores([1, 2, 3, 4]), 2)
        assert pool.oracle_reveals == 2

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            select_top(CandidatePool(), [], 1)

    def test_selection_invariant_to_pool_order(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 4))
        g = rng.normal(size=8)
        ids = list(range(8))
        taken1 = select_top(_pool_from(x, ids=ids), self._scores(g), 3)
        perm = rng.permutation(8)
        taken2 = select_top(_pool_from(x[perm], ids=[ids[j] for j in perm]),
                            self._scores(g[perm]), 3)
        assert [t.id for t in taken1] == [t.id for t in taken2]


class TestPoolLabelDiscipline:
    def test_peek_excludes_sentinel(self):
        pool = _pool_from(np.eye(3), labels=np.array([-1, 2, 2]))
        assert pool.peek_unique_labels() == [2]
        assert pool.oracle_reveals == 0


class TestPoolTake:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_take_conserves_ids(self, data):
        """Taken plus remaining ids are the appended ids, each exactly once,
        and every taken row is one oracle reveal."""
        pool = CandidatePool()
        appended: list[int] = []
        for size in data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=3)):
            ids = np.arange(len(appended), len(appended) + size)
            inputs = np.repeat(ids[:, None], 3, axis=1).astype(np.float32)
            pool.append_batch(inputs, ids % 3, ids)
            appended += ids.tolist()
        taken: list[int] = []
        for _ in range(data.draw(st.integers(0, 5))):
            n = len(pool)
            if data.draw(st.booleans()):
                index = np.asarray(data.draw(st.lists(st.booleans(), min_size=n,
                                                      max_size=n)), dtype=bool)
            else:
                index = data.draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True,
                                           max_size=n)) if n else []
            rows = pool.take(index)
            # every row keeps its own input and label
            np.testing.assert_array_equal(rows.inputs[:, 0], rows.ids)
            np.testing.assert_array_equal(rows.labels, rows.ids % 3)
            taken += rows.ids.tolist()
        assert len(set(taken)) == len(taken)
        assert sorted(taken + pool.ids.tolist()) == appended
        assert pool.oracle_reveals == len(taken)

    def test_repeated_index_rejected(self):
        pool = _pool_from(np.eye(3))
        with pytest.raises(ValueError, match="distinct"):
            pool.take([1, 1])
