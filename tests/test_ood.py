import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowl.nn import SgdOptimizer, backward_and_step, build_mlp, eval_rows, save_checkpoint
from bowl.ood import (ThresholdConfig, batch_ood_score, bootstrap_threshold,
                      eta1_from_eta0, export_score_csv, filter_stream,
                      predictive_entropy_per_sample, sample_eta1_scores, segment_means)
from bowl.stream import Stream

from bn_reference import bn_net, per_batch_eta1, reference_rows


def empirical_quantile(values, alpha: float) -> float:
    """The ceil(alpha * n)-th order statistic (inverted-CDF convention)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.shape[0]
    idx = min(n - 1, max(0, math.ceil(alpha * n) - 1))
    return float(ordered[idx])


def _stream(batches):
    """A clean stream whose batches are the given row blocks."""
    return Stream(np.concatenate(batches), np.zeros(sum(map(len, batches))),
                  [len(b) for b in batches], ["clean"] * len(batches))


def _eta0(x, gammas=(1.0,)):
    """Per-row eta0 of a batch-norm-only network whose first layer's z is x."""
    x = np.asarray(x, dtype=np.float32)
    return eval_rows(bn_net(x.shape[1], gammas), x, eta0=True)[1]


class TestEta0:
    def test_zero_when_at_running_mean(self):
        np.testing.assert_array_equal(_eta0(np.zeros((4, 6))), np.zeros(4))

    def test_direct_sum_of_squares(self):
        assert _eta0([[1.0, -2.0, 0.5]])[0] == 5.25

    def test_chi_squared_mean_monte_carlo(self):
        # For iid standard-normal standardized activations the score is a
        # chi-squared draw with d degrees of freedom, so its mean is d.
        rng = np.random.default_rng(123)
        d = 100
        assert _eta0(rng.normal(size=(10_000, d))).mean() == pytest.approx(100.0, abs=5.0)

    def test_sums_across_layers(self):
        # the second layer sees gamma_1 * z_1 = 2: 3 * 1 + 3 * 4
        np.testing.assert_array_equal(_eta0(np.ones((2, 3)), gammas=(2.0, 1.0)), [15.0, 15.0])

    def test_nonnegative_property(self):
        rng = np.random.default_rng(5)
        assert (_eta0(rng.normal(size=(64, 7)) * 10) >= 0).all()


class TestEta1:
    def test_d1_at_one(self):
        assert eta1_from_eta0(1.0, 1) == pytest.approx(1.0)

    def test_d4_at_four(self):
        # direct evaluation: 4 - 4*ln(4)
        assert eta1_from_eta0(4.0, 4) == pytest.approx(4.0 - 4.0 * math.log(4.0))
        assert eta1_from_eta0(4.0, 4) == pytest.approx(-1.5451774444795624)

    def test_two_sided_around_minimum(self):
        assert eta1_from_eta0(0.4, 4) > eta1_from_eta0(4.0, 4)
        assert eta1_from_eta0(40.0, 4) > eta1_from_eta0(4.0, 4)

    def test_zero_maps_to_infinity(self):
        assert eta1_from_eta0(0.0, 3) == math.inf

    @pytest.mark.parametrize("d", [1, 4, 64, 1024])
    def test_grid_minimum_at_d(self, d):
        grid = np.linspace(d / 10.0, 10.0 * d, 2001)
        vals = eta1_from_eta0(grid, d)
        k = int(np.argmin(vals))
        step = grid[1] - grid[0]
        assert abs(grid[k] - d) <= step

    def test_monotone_decreasing_then_increasing(self):
        d = 16
        low = np.linspace(0.01 * d, d, 300)
        high = np.linspace(d, 10 * d, 300)
        assert (np.diff(eta1_from_eta0(low, d)) < 0).all()
        assert (np.diff(eta1_from_eta0(high, d)) > 0).all()


@pytest.fixture(scope="module")
def toy_net():
    return build_mlp(6, [12, 6], 3, np.random.default_rng(0))


class TestBatchScore:
    def test_identical_points_equal_single_sample_score(self, toy_net):
        x = np.tile(np.random.default_rng(1).normal(size=6).astype(np.float32), (9, 1))
        (batch, single), logits = batch_ood_score(toy_net, x, [8, 1])
        assert batch == pytest.approx(single, rel=1e-6)
        assert logits.shape == (9, 3)

    def test_scaled_activations_score_higher(self):
        z = np.random.default_rng(2).normal(size=(8, 20)).astype(np.float32)
        (ref, scaled), _ = batch_ood_score(bn_net(20), np.concatenate([z, 10 * z]), [8, 8])
        assert scaled > ref

    def test_empty_batch_rejected(self, toy_net):
        with pytest.raises(ValueError, match="empty"):
            batch_ood_score(toy_net, np.zeros((0, 6), dtype=np.float32), [0])
        with pytest.raises(ValueError, match="cover"):  # a stream holds no empty batch
            Stream(np.zeros((3, 6)), np.zeros(3), [3, 0], ["clean", "clean"])

    def test_scoring_never_mutates_network(self, toy_net, tmp_path):
        before = str(tmp_path / "before.bnt")
        after = str(tmp_path / "after.bnt")
        save_checkpoint(toy_net, before)
        x = np.random.default_rng(3).normal(size=(32, 6)).astype(np.float32)
        batch_ood_score(toy_net, x, [8, 24])
        sample_eta1_scores(toy_net, x)
        bootstrap_threshold(toy_net, x, ThresholdConfig(20, 4, 0.9),
                            np.random.default_rng(0))
        filter_stream(toy_net, Stream.cut(x, np.zeros(32), 8), 0.0)
        save_checkpoint(toy_net, after)
        assert open(before, "rb").read() == open(after, "rb").read()


class TestBootstrap:
    def test_quantile_is_ceil_alpha_k_order_statistic(self):
        values = np.arange(100.0)
        np.random.default_rng(0).shuffle(values)
        # 99th of 100 sorted ascending = second largest
        assert empirical_quantile(values, 0.99) == 98.0
        assert empirical_quantile(values, 0.5) == 49.0

    @pytest.mark.parametrize("k, alpha", [(1, 0.99), (7, 0.5), (10, 0.9), (150, 0.99)])
    def test_tau_is_the_ceil_alpha_k_order_statistic(self, toy_net, k, alpha):
        """Small K, and alpha * K just above an integer (0.9 * 10 rounds up)."""
        inputs = np.random.default_rng(5).normal(size=(40, 6)).astype(np.float32)
        rng = np.random.default_rng(6)
        draws = [inputs[rng.integers(0, 40, size=4)] for _ in range(k)]
        tau = bootstrap_threshold(toy_net, inputs, ThresholdConfig(k, 4, alpha),
                                  np.random.default_rng(6))
        assert tau == empirical_quantile(per_batch_eta1(toy_net, draws), alpha)

    def test_repeated_point_gives_that_score(self, toy_net):
        x = np.tile(np.random.default_rng(4).normal(size=6).astype(np.float32), (32, 1))
        expected = per_batch_eta1(toy_net, [x[:8]])[0]
        for alpha in (0.01, 0.5, 0.99):
            tau = bootstrap_threshold(toy_net, x, ThresholdConfig(50, 8, alpha),
                                      np.random.default_rng(1))
            assert tau == pytest.approx(expected, rel=1e-9)

    def test_buffer_smaller_than_bootstrap_size_rejected(self, toy_net):
        x = np.zeros((4, 6), dtype=np.float32)
        with pytest.raises(ValueError, match="smaller"):
            bootstrap_threshold(toy_net, x, ThresholdConfig(10, 8, 0.9),
                                np.random.default_rng(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThresholdConfig(0, 8, 0.9)
        with pytest.raises(ValueError):
            ThresholdConfig(10, 8, 1.0)


class TestFilterStream:
    def _batches(self, rng, n=10):
        return [rng.normal(size=(8, 6)).astype(np.float32) for _ in range(n)]

    def test_partition_and_order(self, toy_net):
        batches = self._batches(np.random.default_rng(5))
        scores = per_batch_eta1(toy_net, batches)
        tau = float(np.median(scores))
        result = filter_stream(toy_net, _stream(batches), tau)
        np.testing.assert_array_equal(result.scores, scores)
        assert result.accepted.tolist() == [i for i, s in enumerate(scores) if s < tau]

    def test_uneven_batches(self, toy_net):
        """Batch sizes come from the stream, not from a fixed batch size."""
        rng = np.random.default_rng(9)
        batches = [rng.normal(size=(k, 6)).astype(np.float32) for k in (8, 1, 5, 8, 3)]
        scores = per_batch_eta1(toy_net, batches)
        result = filter_stream(toy_net, _stream(batches), float(np.median(scores)))
        np.testing.assert_allclose(result.scores, scores, rtol=1e-6)

    def test_minus_infinity_rejects_everything(self, toy_net):
        batches = self._batches(np.random.default_rng(6), n=5)
        result = filter_stream(toy_net, _stream(batches), float("-inf"))
        assert len(result.accepted) == 0
        assert len(result.scores) == 5

    def test_empty_stream_admits_nothing(self, toy_net):
        result = filter_stream(toy_net, Stream.cut(np.zeros((0, 6)), np.zeros(0), 8), 0.0)
        assert len(result.accepted) == len(result.scores) == 0
        assert result.accepted.dtype == np.int64

    def test_nan_tau_rejected(self, toy_net):
        with pytest.raises(ValueError):
            filter_stream(toy_net, Stream.cut(np.zeros((0, 6)), np.zeros(0), 8), float("nan"))

    def test_threshold_equivalence_of_score_forms(self, toy_net):
        """The posterior-log-odds scaling (eta0/2 - (d/2) ln eta0) accepts
        exactly the same batches as eta1 when each uses its own bootstrapped
        quantile: thresholding is invariant to monotone rescaling."""
        rng = np.random.default_rng(7)
        reference = rng.normal(size=(64, 6)).astype(np.float32)
        batches = [rng.normal(0, s, size=(8, 6)).astype(np.float32)
                   for s in (0.5, 1.0, 1.0, 2.0, 3.0, 5.0)]

        def log_odds_score(x):
            eta0 = float(eval_rows(toy_net, x, eta0=True)[1].mean())
            return 0.5 * eta0 - (toy_net.bn_dim / 2.0) * math.log(eta0)

        cfg = ThresholdConfig(100, 8, 0.99)
        tau_main = bootstrap_threshold(toy_net, reference, cfg, np.random.default_rng(8))
        # the rescaled form must see the same bootstrap draws
        rng_b = np.random.default_rng(8)
        k_scores = []
        for _ in range(cfg.k_bootstrap):
            sel = rng_b.integers(0, reference.shape[0], size=cfg.bootstrap_size)
            k_scores.append(log_odds_score(reference[sel]))
        tau_scaled = empirical_quantile(np.asarray(k_scores), cfg.alpha)

        admitted = filter_stream(toy_net, _stream(batches), tau_main).accepted
        accept_main = [i in admitted for i in range(len(batches))]
        accept_scaled = [log_odds_score(b) < tau_scaled for b in batches]
        assert accept_main == accept_scaled
        assert any(accept_main) and not all(accept_main)


class TestOnePass:
    """One pass over many batches against one eval forward per batch."""

    @pytest.fixture(scope="class")
    def bench_net(self):
        """The benchmark's shapes: 64-dim inputs in [0, 1], hidden [64, 32],
        ten classes; a few steps move the running statistics."""
        rng = np.random.default_rng(40)
        net = build_mlp(64, [64, 32], 10, rng)
        opt = SgdOptimizer(0.1, 0.9, 0.0)
        for _ in range(20):
            backward_and_step(net, rng.uniform(size=(64, 64)).astype(np.float32),
                              rng.integers(0, 10, size=64), opt)
        return net

    def test_filter_equals_per_batch_passes_at_bench_shapes(self, bench_net):
        """75 stream batches of 8 (600 rows, across a chunk edge): bit for bit."""
        rng = np.random.default_rng(41)
        batches = [rng.uniform(0.0, 1.0 + (i % 3), size=(8, 64)).astype(np.float32)
                   for i in range(75)]
        expected = per_batch_eta1(bench_net, batches)
        tau = float(np.median(expected))
        result = filter_stream(bench_net, _stream(batches), tau)
        np.testing.assert_array_equal(result.scores, expected)
        np.testing.assert_array_equal(result.accepted, np.flatnonzero(expected < tau))

    @pytest.mark.parametrize("k, b", [(100, 3), (100, 8)])
    def test_bootstrap_equals_k_draw_loop_at_bench_shapes(self, bench_net, k, b):
        """One (K, b) draw and one pass give the tau of K draws and K passes."""
        inputs = np.random.default_rng(43).uniform(size=(300, 64)).astype(np.float32)
        rng = np.random.default_rng(44)
        draws = [inputs[rng.integers(0, len(inputs), size=b)] for _ in range(k)]
        expected = empirical_quantile(per_batch_eta1(bench_net, draws), 0.99)
        tau = bootstrap_threshold(bench_net, inputs, ThresholdConfig(k, b, 0.99),
                                  np.random.default_rng(44))
        assert tau == expected

    @pytest.mark.parametrize("k, b", [(7, 1), (5, 3)])
    def test_one_draw_leaves_the_generator_where_k_draws_do(self, k, b):
        one, many = np.random.default_rng(45), np.random.default_rng(45)
        np.testing.assert_array_equal(one.integers(0, 50, size=(k, b)).ravel(),
                                      np.concatenate([many.integers(0, 50, size=b)
                                                      for _ in range(k)]))
        assert one.integers(0, 2**31) == many.integers(0, 2**31)

    @pytest.mark.parametrize("dims, hidden", [(6, [12, 6]), (64, [64, 32]), (784, [64, 32])])
    def test_per_row_eta0_close_to_per_batch_passes(self, dims, hidden):
        """Elsewhere the matrix product may round a row differently at another
        row count (one row takes the matrix-vector path): eta0 agrees to 1e-6,
        with a batch of one and an uneven tail."""
        rng = np.random.default_rng(46)
        net = build_mlp(dims, hidden, 3, rng)
        sizes = [8, 1, 3, 8, 300, 250, 5]
        x = rng.uniform(size=(sum(sizes), dims)).astype(np.float32)
        ends = np.cumsum(sizes)
        expected = np.concatenate([reference_rows(net, x[e - s:e])[1]
                                   for s, e in zip(sizes, ends)])
        np.testing.assert_allclose(eval_rows(net, x, eta0=True)[1], expected, rtol=1e-6)

    def test_segment_means_are_slice_means(self):
        values = np.random.default_rng(47).normal(size=20)
        np.testing.assert_array_equal(segment_means(values, [1, 12, 7]),
                                      [values[:1].mean(), values[1:13].mean(),
                                       values[13:].mean()])
        with pytest.raises(ValueError, match="sum to"):
            segment_means(values, [1, 12])
        with pytest.raises(ValueError, match="empty batch"):
            segment_means(values, [0, 20])
        assert segment_means(np.zeros(0), []).shape == (0,)

    @given(runs=st.lists(st.tuples(st.one_of(st.sampled_from([1, 7, 8, 9, 129]),
                                             st.integers(1, 300)),
                                   st.integers(1, 6)), min_size=1, max_size=12),
           float32=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_segment_means_equal_slice_means_bit_for_bit(self, runs, float32, seed):
        """Runs of equal sizes, mixed: each batch's mean is its slice's own
        .mean(), in the values' dtype."""
        sizes = [size for size, repeat in runs for _ in range(repeat)]
        rng = np.random.default_rng(seed)
        values = rng.lognormal(0.0, 3.0, size=sum(sizes))
        if float32:
            values = values.astype(np.float32)
        ends = np.cumsum(sizes)
        expected = np.array([values[e - s:e].mean() for s, e in zip(sizes, ends)])
        got = segment_means(values, sizes)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


class TestPredictiveEntropy:
    def test_uniform_logits(self):
        h = predictive_entropy_per_sample(np.zeros((4, 10)))
        np.testing.assert_allclose(h, math.log(10))

    def test_one_hot_extreme(self):
        logits = np.full((3, 5), -100.0)
        logits[:, 2] = 100.0
        np.testing.assert_allclose(predictive_entropy_per_sample(logits), 0.0, atol=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_entropy_bounds(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 12))
        logits = rng.normal(scale=rng.uniform(0.1, 20), size=(int(rng.integers(1, 16)), c))
        h = predictive_entropy_per_sample(logits)
        assert ((-1e-12 <= h) & (h <= math.log(c) + 1e-12)).all()


    def test_in_place_entropy_is_bit_identical_to_the_plain_formula(self):
        """Rows with probabilities that underflow to 0 (a 1000-logit gap), ties,
        float32 input and a wide random spread."""
        rng = np.random.default_rng(12)
        logits = np.concatenate([rng.normal(scale=s, size=(40, 10)) for s in (0.1, 5, 400)])
        logits[:3] = [[0.0, -1000.0, 5.0] + [0.0] * 7, [800.0] + [-800.0] * 9, [1.0] * 10]

        def plain(z):
            z = np.asarray(z, dtype=np.float64)
            z = z - z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            return -np.where(p > 0.0, p * np.log(np.where(p > 0, p, 1.0)), 0.0).sum(axis=1)

        for z in (logits, logits.astype(np.float32)):
            assert (np.exp(z.astype(np.float64) - z.max(axis=1, keepdims=True)) == 0).any()
            assert predictive_entropy_per_sample(z).tobytes() == plain(z).tobytes()
        before = logits.copy()
        predictive_entropy_per_sample(logits)
        np.testing.assert_array_equal(logits, before)


class TestExport:
    def test_csv_shape(self, tmp_path):
        path = str(tmp_path / "hist.csv")
        export_score_csv(path, [1.0, 2.0], [3.0], value_name="eta1")
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "source,eta1"
        assert len(lines) == 4
        assert lines[1].startswith("in,") and lines[3].startswith("out,")

    def test_bytes_equal_per_value_format(self, tmp_path):
        """Every value is written as f"{float(s):.8g}" writes it."""
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1 / 3,
                   -2.5e17, 123456789.5]
        in_scores = np.array(special + list(np.random.default_rng(5).normal(size=50)))
        out_scores = np.array([0.1, -7.25, 3e38, math.nan], dtype=np.float32)
        path = str(tmp_path / "hist.csv")
        export_score_csv(path, in_scores, out_scores, value_name="pe")
        lines = ["source,pe"]
        lines += [f"in,{float(s):.8g}" for s in in_scores]
        lines += [f"out,{float(s):.8g}" for s in out_scores]
        assert open(path, "rb").read() == ("\n".join(lines) + "\n").encode()

    def test_empty_sides(self, tmp_path):
        path = str(tmp_path / "hist.csv")
        export_score_csv(path, [], [], value_name="eta1")
        assert open(path).read() == "source,eta1\n"
