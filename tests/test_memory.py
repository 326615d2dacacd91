import numpy as np
import pytest

from bowl.memory import MemoryBuffer, MemoryScores, init_buffer, memory_scores, update_buffer
from bowl.nn import build_mlp
from bowl.query import mean_pairwise_cosine
from bowl.samples import SampleSet

NONE_QUERIED = SampleSet.empty()


@pytest.fixture(scope="module")
def net():
    return build_mlp(4, [6, 3], 2, np.random.default_rng(0))


def _buffer(inputs, entropies, capacity=None, labels=None, ids=None):
    inputs = np.asarray(inputs, dtype=np.float32)
    n = inputs.shape[0]
    labels = labels if labels is not None else [0] * n
    ids = ids if ids is not None else list(range(n))
    entries = SampleSet(inputs, labels, ids, np.asarray(entropies, dtype=np.float64))
    return MemoryBuffer(capacity or n, entries)


def _queried(rng, n, label, first_id, dim=4):
    return SampleSet(rng.normal(size=(n, dim)).astype(np.float32), [label] * n,
                     np.arange(first_id, first_id + n))


class TestMemoryBuffer:
    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError, match="capacity must be positive"):
            MemoryBuffer(0, NONE_QUERIED)

    def test_entries_over_capacity_rejected(self):
        entries = _queried(np.random.default_rng(0), 3, 0, 0)
        with pytest.raises(ValueError, match="exceed capacity"):
            MemoryBuffer(2, entries)


class TestInitBuffer:
    def test_capacity_larger_than_dataset_keeps_all(self, net):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, 4)).astype(np.float32)
        y = np.arange(7) % 2
        buf = init_buffer(x, y, 20, net, np.random.default_rng(0))
        assert len(buf) == 7

    def test_sample_without_replacement(self, net):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 4)).astype(np.float32)
        buf = init_buffer(x, np.zeros(50), 20, net, np.random.default_rng(3))
        assert len(buf) == 20
        assert len(set(buf.ids())) == 20

    def test_deterministic_under_seed(self, net):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 4)).astype(np.float32)
        a = init_buffer(x, np.zeros(30), 10, net, np.random.default_rng(9))
        b = init_buffer(x, np.zeros(30), 10, net, np.random.default_rng(9))
        assert a.ids() == b.ids()
        np.testing.assert_array_equal(a.inputs_matrix(), b.inputs_matrix())

    def test_empty_dataset_rejected(self, net):
        with pytest.raises(ValueError, match="empty"):
            init_buffer(np.zeros((0, 4), dtype=np.float32), np.zeros(0), 5, net,
                        np.random.default_rng(0))

    def test_entropies_cached_from_model(self, net):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 4)).astype(np.float32)
        buf = init_buffer(x, np.zeros(6), 6, net, np.random.default_rng(0))
        assert all(np.isfinite(e.entropy) for e in buf.entries)


class TestMemoryScores:
    def test_identical_candidates_score_zero(self, net):
        x = np.tile([0.5, 0.5, 0.5, 0.5], (5, 1))
        buf = _buffer(x, entropies=[1.0] * 5)
        scores = memory_scores(buf, NONE_QUERIED, net)
        np.testing.assert_allclose(scores.gamma, np.zeros(5), atol=1e-9)

    def test_orthogonal_candidate_scores_its_entropy(self, net):
        x = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=np.float32)
        buf = _buffer(x, entropies=[2.0, 0.5, 0.25])
        scores = memory_scores(buf, NONE_QUERIED, net)
        # every pair is orthogonal: bracket = 1, gamma = H
        np.testing.assert_allclose(scores.gamma, [2.0, 0.5, 0.25], atol=1e-9)

    def test_duplicate_scores_lower_than_distinct_at_equal_entropy(self, net):
        # three vectors: a, a (duplicate), b far from a; H equal
        a = np.array([1.0, 0.2, 0.0, 0.0])
        b = np.array([0.0, 0.1, 1.0, 0.0])
        x = np.stack([a, a, b])
        buf = _buffer(x, entropies=[1.0, 1.0, 1.0])
        scores = memory_scores(buf, NONE_QUERIED, net)
        # direct-evaluation oracle for the 3-vector instance
        cos = mean_pairwise_cosine(x)
        np.testing.assert_allclose(scores.gamma, 1.0 * (1.0 - cos), atol=1e-12)
        assert scores.gamma[0] < scores.gamma[2]
        assert scores.gamma[1] < scores.gamma[2]

    def test_fresh_entropy_for_queried(self, net):
        rng = np.random.default_rng(6)
        buf = _buffer(rng.normal(size=(4, 4)), entropies=[0.1, 0.2, 0.3, 0.4])
        queried = _queried(rng, 1, 0, 100)
        scores = memory_scores(buf, queried, net)
        assert scores.n_buffer == 4
        assert len(scores.gamma) == 5
        np.testing.assert_allclose(scores.candidates.entropy[:4], [0.1, 0.2, 0.3, 0.4])
        assert np.isfinite(scores.candidates.entropy[4])

    def test_buffer_without_cached_entropies_is_not_scored(self, net):
        """Only gamma_m reads the entropies, so only its scoring needs them."""
        rng = np.random.default_rng(11)
        buf = MemoryBuffer(4, _queried(rng, 4, 0, 0))  # a balanced fill's buffer
        with pytest.raises(ValueError, match="cached entropies"):
            memory_scores(buf, _queried(rng, 2, 1, 10), net)

    def test_no_candidates_rejected(self, net):
        """An empty buffer whose entries carry an (empty) entropy cache, and
        no queried rows: nothing to rank."""
        empty = SampleSet(np.zeros((0, 4), np.float32), [], [], np.zeros(0))
        with pytest.raises(ValueError, match="no candidates"):
            memory_scores(MemoryBuffer(3, empty), NONE_QUERIED, net)

    def test_monotone_in_entropy_and_distinctness(self, net):
        # higher H and lower mean cosine implies strictly higher gamma
        base = np.array([1.0, 1.0, 1.0, 1.0])
        distinct = np.array([1.0, -1.0, 1.0, -1.0])
        x = np.stack([base, base * 1.01, distinct])
        buf = _buffer(x, entropies=[0.5, 0.5, 1.5])
        scores = memory_scores(buf, NONE_QUERIED, net)
        assert scores.gamma[2] > scores.gamma[0]
        assert scores.gamma[2] > scores.gamma[1]


class TestUpdateBuffer:
    def test_empty_queried_is_identity(self, net):
        rng = np.random.default_rng(7)
        buf = _buffer(rng.normal(size=(5, 4)), entropies=rng.uniform(1, 2, 5))
        scores = memory_scores(buf, NONE_QUERIED, net)
        new, inserted = update_buffer(buf, NONE_QUERIED, scores)
        assert inserted == []
        assert new.ids() == buf.ids()
        np.testing.assert_array_equal(new.inputs_matrix(), buf.inputs_matrix())

    @pytest.mark.parametrize("other_size", [4, 6])
    def test_scores_of_another_buffer_rejected(self, net, other_size):
        """Scores built for a buffer of another length do not cover this one."""
        rng = np.random.default_rng(9)
        buf = _buffer(rng.normal(size=(5, 4)), entropies=rng.uniform(1, 2, 5))
        other = _buffer(rng.normal(size=(other_size, 4)),
                        entropies=rng.uniform(1, 2, other_size))
        queried = _queried(rng, 2, 1, 50)
        with pytest.raises(ValueError, match="do not cover"):
            update_buffer(buf, queried, memory_scores(other, queried, net))

    def test_everything_kept_when_under_capacity(self, net):
        rng = np.random.default_rng(8)
        buf = _buffer(rng.normal(size=(3, 4)), entropies=[1, 1, 1], capacity=10)
        queried = _queried(rng, 4, 1, 50)
        scores = memory_scores(buf, queried, net)
        new, inserted = update_buffer(buf, queried, scores)
        assert len(new) == 7
        assert inserted == [50, 51, 52, 53]

    def test_matches_brute_force_sort_oracle(self):
        # update_buffer consumes only the scores, so fabricate a large instance
        rng = np.random.default_rng(9)
        n_buf, n_new, capacity = 2500, 7500, 2500
        buf = _buffer(rng.normal(size=(n_buf, 4)), entropies=np.ones(n_buf),
                      capacity=capacity, ids=list(range(n_buf)))
        queried = _queried(rng, n_new, 0, n_buf)
        gamma = rng.normal(size=n_buf + n_new)
        gamma[rng.choice(n_buf + n_new, 500, replace=False)] = 0.25  # force ties
        scores = MemoryScores(gamma=gamma, candidates=buf.entries.concat(queried),
                              n_buffer=n_buf)
        new, inserted = update_buffer(buf, queried, scores)
        # oracle: python sort over (-gamma, id)
        ids = list(range(n_buf + n_new))
        oracle = sorted(ids, key=lambda i: (-gamma[i], i))[:capacity]
        assert sorted(new.ids()) == sorted(oracle)
        assert set(inserted) == {i for i in oracle if i >= n_buf}

    def test_capacity_never_exceeded_and_entropy_cached(self, net):
        rng = np.random.default_rng(10)
        buf = _buffer(rng.normal(size=(6, 4)), entropies=np.arange(6, dtype=float),
                      capacity=6)
        cached = {e.id: e.entropy for e in buf.entries}
        queried = _queried(rng, 5, 1, 90)
        scores = memory_scores(buf, queried, net)
        new, inserted = update_buffer(buf, queried, scores)
        assert len(new) == 6
        for e in new.entries:
            if e.id in cached:  # survivors keep their cached entropy
                assert e.entropy == cached[e.id]

    def test_composition_counts(self):
        buf = _buffer(np.eye(4), entropies=[1] * 4, labels=[0, 1, 1, 3])
        assert buf.composition() == {0: 1, 1: 2, 3: 1}
