import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowl.nn import (EVAL_CHUNK, BatchNorm, Dense, Network, ReLU, SgdOptimizer,
                     backward_and_step, build_mlp, eval_rows, expand_head,
                     read_checkpoint, save_checkpoint, softmax_cross_entropy,
                     train_one_epoch)

from bn_reference import reference_rows


def _test_loss(net, x, targets):
    """Independent cross-entropy for the finite-difference oracle."""
    logits = net.forward(x, True)
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(targets)), targets].mean())


def numeric_gradients(net, x, targets, h=1e-3):
    """Central finite differences of the training loss w.r.t. every parameter."""
    grads = {}
    for name, p in net.named_parameters():
        flat = p.data.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = _test_loss(net, x, targets)
            flat[i] = orig - h
            lm = _test_loss(net, x, targets)
            flat[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        grads[name] = g.reshape(p.data.shape)
    return grads


def analytic_gradients(net, x, targets):
    logits = net.forward(x, True)
    _, dlogits = softmax_cross_entropy(logits, targets)
    net.backward(dlogits)
    return {name: p.grad.copy() for name, p in net.named_parameters()}


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestGradients:
    def test_backprop_matches_finite_differences_many_nets(self):
        """Layer-by-layer backprop vs the central-difference oracle, 20 seeds.

        h=1e-5 keeps float64 truncation/roundoff near 1e-10 and makes ReLU
        kink crossings within the difference interval vanishingly rare.
        """
        for seed in range(20):
            rng = np.random.default_rng(seed)
            in_dim = int(rng.integers(2, 6))
            hidden = [int(rng.integers(3, 9)) for _ in range(int(rng.integers(1, 3)))]
            n_classes = int(rng.integers(2, 5))
            net = build_mlp(in_dim, hidden, n_classes, rng, dtype=np.float64)
            assert sum(p.data.size for _, p in net.named_parameters()) <= 1000
            batch = int(rng.integers(3, 7))
            x = rng.normal(size=(batch, in_dim))
            y = rng.integers(0, n_classes, size=batch)
            err = max_relative_error(analytic_gradients(net, x, y),
                                     numeric_gradients(net, x, y, h=1e-5))
            assert err <= 1e-4, f"seed {seed}: max relative error {err}"

    def test_small_net_default_step(self):
        """2-4-2 net with batch norm at the coarser h=1e-3 step."""
        rng = np.random.default_rng(0)
        net = build_mlp(2, [4], 2, rng, dtype=np.float64)
        x = rng.normal(size=(4, 2))
        y = np.array([0, 1, 1, 0])
        err = max_relative_error(analytic_gradients(net, x, y),
                                 numeric_gradients(net, x, y, h=1e-3))
        assert err <= 1e-4


class TestBatchNorm:
    def test_train_mode_standardizes(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm(5)
        x = (rng.normal(2.0, 1.5, size=(64, 5))).astype(np.float32)
        z = bn.forward(x, train=True)  # gamma=1, beta=0: output is z itself
        assert np.abs(z.mean(axis=0)).max() < 1e-5
        assert np.abs(z.var(axis=0) - 1.0).max() < 1e-4

    def test_eval_at_running_mean_returns_beta(self):
        bn = BatchNorm(3)
        bn.running_mean[...] = [1.0, -2.0, 0.5]
        bn.running_var[...] = [2.0, 0.5, 1.0]
        bn.beta.data[...] = [0.3, -0.7, 0.0]
        x = np.tile(bn.running_mean, (4, 1))
        y = bn.forward(x, train=False)
        np.testing.assert_array_equal(y, np.tile(bn.beta.data, (4, 1)))

    def test_eval_one_sigma_point(self):
        bn = BatchNorm(1, eps=1e-5)
        bn.running_mean[...] = 0.5
        bn.running_var[...] = 4.0
        bn.gamma.data[...] = 2.0
        bn.beta.data[...] = 1.0
        x = np.array([[0.5 + math.sqrt(4.0 + 1e-5)]], dtype=np.float32)
        y = bn.forward(x, train=False)
        assert abs(y[0, 0] - 3.0) < 1e-5

    def test_batch_of_one_rejected_in_train_mode(self):
        bn = BatchNorm(4)
        with pytest.raises(ValueError, match="batch size"):
            bn.forward(np.zeros((1, 4), dtype=np.float32), train=True)

    def test_channel_mismatch_rejected(self):
        bn = BatchNorm(4)
        with pytest.raises(ValueError, match="channels"):
            bn.forward(np.zeros((8, 3), dtype=np.float32), train=True)

    def test_running_stats_converge_to_true_moments(self):
        rng = np.random.default_rng(7)
        bn = BatchNorm(3, stat_momentum=0.1)
        true_mean = np.array([2.0, -1.5, 3.0])
        true_std = np.array([1.5, 0.7, 2.0])
        for _ in range(500):
            x = (true_mean + true_std * rng.normal(size=(256, 3))).astype(np.float32)
            bn.forward(x, train=True)
        assert np.abs(bn.running_mean / true_mean - 1.0).max() < 0.05
        assert np.abs(bn.running_var / true_std**2 - 1.0).max() < 0.05

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [2, 37, 64, 129])
    def test_one_pass_statistics_match_numpy_bitwise(self, dtype, n):
        """Train-mode statistics are np.mean / np.var's floats exactly, and z
        is (x - mean) / sqrt(var + eps) as a product with the inverse."""
        rng = np.random.default_rng(n)
        x = rng.normal(3.0, 2.0, size=(n, 7)).astype(dtype)
        bn = BatchNorm(7, stat_momentum=1.0, dtype=dtype)
        z = bn.forward(x, train=True)
        mean, var = x.mean(axis=0), x.var(axis=0)
        np.testing.assert_array_equal(bn.running_mean, mean)
        np.testing.assert_array_equal(bn.running_var, var)
        np.testing.assert_array_equal(z, (x - mean) * (1.0 / np.sqrt(var + bn.eps)))
        assert bn.running_mean.dtype == bn.running_var.dtype == dtype

    def test_running_stats_update_in_place(self):
        bn = BatchNorm(3)
        mean, var = bn.running_mean, bn.running_var
        bn.forward(np.random.default_rng(0).normal(size=(8, 3)).astype(np.float32), train=True)
        assert bn.running_mean is mean and bn.running_var is var
        assert not np.all(mean == 0.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_standardization_property(self, seed):
        """Any batch with healthy per-channel variance standardizes cleanly."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 64))
        c = int(rng.integers(1, 8))
        x = rng.normal(rng.uniform(-3, 3), rng.uniform(0.8, 3.0),
                       size=(n, c)).astype(np.float32)
        if np.any(x.var(axis=0) < 0.5):
            return
        bn = BatchNorm(c)
        z = bn.forward(x, train=True)
        assert np.abs(z.mean(axis=0)).max() < 1e-5
        assert np.abs(z.var(axis=0) - 1.0).max() < 1e-4


class TestForward:
    def test_zero_weight_head_gives_zero_logits(self):
        rng = np.random.default_rng(1)
        net = build_mlp(4, [6], 3, rng)
        net.head.weight.data[...] = 0.0
        net.head.bias.data[...] = 0.0
        logits = net.forward(rng.normal(size=(5, 4)).astype(np.float32), False)
        np.testing.assert_array_equal(logits, np.zeros((5, 3), dtype=np.float32))

    def test_bn_dim_sums_bn_widths(self):
        rng = np.random.default_rng(2)
        net = build_mlp(10, [16, 8], 4, rng)
        assert net.bn_dim == 24
        logits, eta0, spread = eval_rows(net, rng.normal(size=(3, 10)).astype(np.float32),
                                         eta0=True, spread=True)
        assert logits.shape == (3, 4)
        assert eta0.shape == spread.shape == (3,)

    def test_eval_forward_deterministic(self):
        rng = np.random.default_rng(3)
        net = build_mlp(6, [8], 2, rng)
        x = rng.normal(size=(4, 6)).astype(np.float32)
        a = net.forward(x, False)
        b = net.forward(x, False)
        np.testing.assert_array_equal(a, b)

    def test_train_argument_picks_the_statistics(self):
        """forward(x, False) normalizes with the running statistics and leaves
        them alone; forward(x, True) normalizes with the batch's and updates
        the running ones."""
        rng = np.random.default_rng(5)
        net = build_mlp(4, [6], 2, rng)
        bn = net.layers[1]
        x = rng.normal(2.0, 3.0, size=(8, 4)).astype(np.float32)
        logits = net.forward(x, False)
        np.testing.assert_array_equal(bn.running_mean, np.zeros(6, np.float32))
        np.testing.assert_array_equal(bn.running_var, np.ones(6, np.float32))
        np.testing.assert_array_equal(net.forward(x, False), logits)
        assert not np.array_equal(net.forward(x, True), logits)
        assert bn.running_mean.any() and (bn.running_var != 1).any()

    def test_shape_mismatch_rejected(self):
        net = build_mlp(6, [8], 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dim"):
            net.forward(np.zeros((4, 5), dtype=np.float32), True)

    def test_network_requires_batchnorm(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="batch-norm"):
            Network([Dense(4, 3, rng), ReLU()], Dense(3, 2, rng))


class TestTraining:
    def test_zero_lr_keeps_parameters_and_returns_nll(self):
        rng = np.random.default_rng(4)
        net = build_mlp(3, [5], 2, rng)
        opt = SgdOptimizer(learning_rate=0.0, momentum=0.0, weight_decay=0.0)
        x = rng.normal(size=(2, 3)).astype(np.float32)
        y = np.array([1, 0])
        before = {n: p.data.copy() for n, p in net.named_parameters()}
        logits = net.forward(x, True)  # train-mode logits seen by the step
        z = logits.astype(np.float64)
        z -= z.max(axis=1, keepdims=True)
        expected = float(-(z[np.arange(2), y]
                           - np.log(np.exp(z).sum(axis=1))).mean())
        net2_loss = backward_and_step(net, x, y, opt)
        # BN uses batch statistics both times, so the loss is reproducible
        assert abs(net2_loss - expected) < 1e-6
        for n, p in net.named_parameters():
            np.testing.assert_array_equal(before[n], p.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_matches_out_of_place_softmax_bitwise(self, dtype):
        rng = np.random.default_rng(16)
        logits = (5 * rng.normal(size=(9, 4))).astype(dtype)
        targets = rng.integers(0, 4, size=9)
        z = logits.astype(np.float64)
        z = z - z.max(axis=1, keepdims=True)
        expz = np.exp(z)
        probs = expz / expz.sum(axis=1, keepdims=True)
        expected_loss = float(-np.log(probs[np.arange(9), targets] + 1e-300).mean())
        expected = probs.copy()
        expected[np.arange(9), targets] -= 1.0
        expected /= 9
        loss, dlogits = softmax_cross_entropy(logits, targets)
        assert loss == expected_loss
        np.testing.assert_array_equal(dlogits, expected.astype(dtype))

    def test_uniform_logits_loss_is_log_n_classes(self):
        logits = np.zeros((4, 2), dtype=np.float32)
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1, 0, 1]))
        assert abs(loss - math.log(2)) < 1e-7

    def _rows(self, n, dim=3):
        """(inputs, labels) of n random rows over classes 0 and 1."""
        rng = np.random.default_rng(8)
        return rng.normal(size=(n, dim)).astype(np.float32), np.arange(n) % 2

    def test_epoch_step_count_is_ceiling_division(self):
        rng = np.random.default_rng(9)
        net = build_mlp(3, [4], 2, rng)
        opt = SgdOptimizer(0.01, 0.9, 0.0)
        steps, _ = train_one_epoch(net, *self._rows(5000), opt, 256,
                                   np.random.default_rng(0))
        assert steps == 20

    def test_single_row_trains_one_step(self):
        rng = np.random.default_rng(10)
        net = build_mlp(3, [4], 2, rng)
        opt = SgdOptimizer(0.01, 0.9, 0.0)
        steps, loss = train_one_epoch(net, *self._rows(1), opt, 256,
                                      np.random.default_rng(0))
        assert steps == 1
        assert math.isfinite(loss)

    def test_epoch_visit_order_deterministic(self):
        rng = np.random.default_rng(11)
        net1 = build_mlp(3, [4], 2, rng)
        net2 = build_mlp(3, [4], 2, np.random.default_rng(11))
        rows = self._rows(40)
        opt1 = SgdOptimizer(0.05, 0.9, 0.0)
        opt2 = SgdOptimizer(0.05, 0.9, 0.0)
        train_one_epoch(net1, *rows, opt1, 16, np.random.default_rng(5))
        train_one_epoch(net2, *rows, opt2, 16, np.random.default_rng(5))
        for (n1, p1), (_, p2) in zip(net1.named_parameters(), net2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_empty_set_rejected(self):
        net = build_mlp(3, [4], 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            train_one_epoch(net, np.zeros((0, 3), dtype=np.float32), np.zeros(0, dtype=np.int64),
                            SgdOptimizer(), 8, np.random.default_rng(0))


class TestEvalRows:
    @pytest.fixture(scope="class")
    def net(self):
        rng = np.random.default_rng(30)
        net = build_mlp(6, [12, 5], 3, rng)
        opt = SgdOptimizer(0.1, 0.9, 0.0)
        for _ in range(5):  # running statistics away from their initial values
            backward_and_step(net, rng.normal(1.0, 2.0, size=(32, 6)).astype(np.float32),
                              rng.integers(0, 3, size=32), opt)
        return net

    @pytest.mark.parametrize("n", [1, EVAL_CHUNK - 1, EVAL_CHUNK, EVAL_CHUNK + 1, 1300])
    def test_chunked_pass_matches_one_forward(self, net, n):
        """Each chunk's rows get the numbers of one forward over all rows: the
        reductions exactly, the float32 logits up to matrix-product rounding."""
        x = np.random.default_rng(n).normal(size=(n, 6)).astype(np.float32)
        logits, eta0, spread = eval_rows(net, x, eta0=True, spread=True)
        ref_logits, ref_eta0, ref_spread = reference_rows(net, x)
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(eta0, ref_eta0, rtol=1e-6)
        np.testing.assert_allclose(spread, ref_spread, rtol=1e-6)
        for rows in (slice(0, EVAL_CHUNK), slice(EVAL_CHUNK, None)):
            if len(x[rows]):
                chunk = reference_rows(net, x[rows])
                np.testing.assert_array_equal(eta0[rows], chunk[1])
                np.testing.assert_array_equal(spread[rows], chunk[2])

    def test_one_forward_per_chunk_and_state_untouched(self, net, monkeypatch):
        calls = []
        forward = Network.forward
        monkeypatch.setattr(Network, "forward",
                            lambda self, x, train, *a: calls.append((len(x), train))
                            or forward(self, x, train, *a))
        before = copy.deepcopy(net)
        eval_rows(net, np.zeros((1300, 6), dtype=np.float32))
        assert calls == [(EVAL_CHUNK, False), (EVAL_CHUNK, False),
                         (1300 - 2 * EVAL_CHUNK, False)]
        np.testing.assert_array_equal(net.flat_params, before.flat_params)
        for layer, old in zip(net.layers, before.layers):
            if isinstance(layer, BatchNorm):
                np.testing.assert_array_equal(layer.running_mean, old.running_mean)
                np.testing.assert_array_equal(layer.running_var, old.running_var)

    def test_reductions_only_on_request(self, net):
        """Without flags no reduction is computed; the logits never depend on
        the flags, and a reduction asked for alone equals the full pass's."""
        x = np.random.default_rng(31).normal(size=(1300, 6)).astype(np.float32)
        logits, eta0, spread = eval_rows(net, x, eta0=True, spread=True)
        for flags in ({}, {"eta0": True}, {"spread": True}):
            got = eval_rows(net, x, **flags)
            np.testing.assert_array_equal(got[0], logits)
            for i, (name, full) in enumerate((("eta0", eta0), ("spread", spread)), 1):
                if flags.get(name):
                    np.testing.assert_array_equal(got[i], full)
                else:
                    assert got[i] is None

    def test_zero_rows(self, net):
        logits, eta0, spread = eval_rows(net, np.zeros((0, 6), dtype=np.float32),
                                         eta0=True, spread=True)
        assert logits.shape == (0, 3) and eta0.shape == spread.shape == (0,)


class TestExpandHead:
    def test_two_plus_two_classes(self):
        rng = np.random.default_rng(12)
        net = build_mlp(4, [6], 2, rng, class_ids=[2, 5])
        expand_head(net, [0, 6], rng)
        assert net.n_classes == 4
        assert net.class_ids == [2, 5, 0, 6]

    def test_expand_by_zero_rejected(self):
        net = build_mlp(4, [6], 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one"):
            expand_head(net, [], np.random.default_rng(0))

    def test_rejected_call_changes_nothing(self):
        rng = np.random.default_rng(15)
        net = build_mlp(4, [6], 2, rng)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        logits = net.forward(x, False)
        params = net.flat_params.copy()
        with pytest.raises(ValueError, match="at least one"):
            expand_head(net, [], rng)
        assert net.n_classes == 2
        assert net.class_ids == [0, 1]
        np.testing.assert_array_equal(net.flat_params, params)
        np.testing.assert_array_equal(net.forward(x, False), logits)

    def test_old_logits_preserved_exactly(self):
        rng = np.random.default_rng(13)
        net = build_mlp(4, [6], 3, rng)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        before = net.forward(x, False)
        expand_head(net, [3, 4], rng)
        after = net.forward(x, False)
        np.testing.assert_array_equal(before, after[:, :3])


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(14)
        net = build_mlp(5, [7, 3], 4, rng, class_ids=[1, 3, 5, 7])
        opt = SgdOptimizer(0.1, 0.9, 1e-3)
        x = rng.normal(size=(16, 5)).astype(np.float32)
        y = rng.integers(0, 4, size=16)
        for _ in range(3):
            backward_and_step(net, x, y, opt)
        path = str(tmp_path / "model.bnt")
        save_checkpoint(net, path)
        other = build_mlp(5, [7, 3], 4, np.random.default_rng(99))
        class_ids, state = read_checkpoint(path)
        other.load_state_dict(state)
        assert class_ids == other.class_ids == [1, 3, 5, 7]
        for (n1, p1), (_, p2) in zip(net.named_parameters(), other.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)
        a = net.forward(x, False)
        b = other.forward(x, False)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ["layer0.bias", "layer1.running_mean",
                                      "layer1.running_var", "layer4.running_var"])
    def test_every_tensor_shape_is_checked(self, name):
        """A (1,)-shaped tensor would broadcast into every channel: parameters
        and running statistics alike are rejected by name."""
        net = build_mlp(5, [7, 3], 4, np.random.default_rng(15))
        state = {k: v.copy() for k, v in net.state_dict().items()}
        state[name] = np.full(1, 9.0, np.float32)
        with pytest.raises(ValueError, match=rf"shape mismatch for '{name}': \(1,\) vs"):
            net.load_state_dict(state)


class ReferenceSgd:
    """The per-parameter, name-keyed step the flat arena replaced."""

    def __init__(self, learning_rate, momentum, weight_decay):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {}

    def step(self, named_params):
        for name, p in named_params:
            g = p.grad + self.weight_decay * p.data
            v = self.velocity.get(name)
            if v is None or v.shape != g.shape:
                v = np.zeros_like(g)
            v = self.momentum * v + g
            self.velocity[name] = v
            p.data -= (self.learning_rate * v).astype(p.data.dtype)


def assert_in_arena(net):
    """Every Param is a view into the arena, in named_parameters order, head last."""
    start = 0
    for _, p in net.named_parameters():
        for array, arena in ((p.data, net.flat_params), (p.grad, net.flat_grads)):
            assert array.base is arena
            offset = array.__array_interface__["data"][0] - arena.__array_interface__["data"][0]
            assert offset == start * arena.itemsize
        start += p.data.size
    assert start == net.flat_params.size == net.flat_grads.size
    head = net.head.weight.data.size + net.head.bias.data.size
    assert net.head_offset == start - head


def assert_same_params(a, b):
    for (name, p), (_, q) in zip(a.named_parameters(), b.named_parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)
    for la, lb in zip(a.layers, b.layers):
        if isinstance(la, BatchNorm):
            np.testing.assert_array_equal(la.running_mean, lb.running_mean)
            np.testing.assert_array_equal(la.running_var, lb.running_var)


def _batch(rng, n_classes, n=16, dim=5):
    x = rng.normal(size=(n, dim)).astype(np.float32)
    return x, rng.integers(0, n_classes, size=n)


class TestArena:
    def test_params_are_arena_views(self, tmp_path):
        rng = np.random.default_rng(20)
        net = build_mlp(5, [7, 3], 3, rng)
        assert_in_arena(net)
        expand_head(net, [3, 4], rng)
        assert_in_arena(net)
        path = str(tmp_path / "model.bnt")
        save_checkpoint(net, path)
        net.load_state_dict(read_checkpoint(path)[1])
        assert_in_arena(net)
        for clone in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            assert_in_arena(clone)
            assert not np.shares_memory(clone.flat_params, net.flat_params)
            assert_same_params(clone, net)

    def test_mixed_dtypes_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="dtype"):
            Network([Dense(4, 3, rng), BatchNorm(3, dtype=np.float64)], Dense(3, 2, rng))

    def test_deep_copy_trains_independently_and_identically(self):
        rng = np.random.default_rng(21)
        net = build_mlp(5, [7, 3], 3, rng)
        backward_and_step(net, *_batch(rng, 3), SgdOptimizer())
        snapshot = copy.deepcopy(net)
        clone = copy.deepcopy(net)
        batches = [_batch(rng, 3) for _ in range(5)]
        opt = SgdOptimizer(0.1, 0.9, 1e-3)
        for x, y in batches:
            backward_and_step(clone, x, y, opt)
        assert_same_params(net, snapshot)  # the original did not move
        assert not np.array_equal(clone.flat_params, net.flat_params)
        opt = SgdOptimizer(0.1, 0.9, 1e-3)
        for x, y in batches:
            backward_and_step(net, x, y, opt)
        assert_same_params(net, clone)

    def test_expand_head_keeps_body_velocity_and_zeroes_head(self):
        rng = np.random.default_rng(22)
        net = build_mlp(5, [7, 3], 3, rng)
        opt = SgdOptimizer(0.1, 1.0, 0.0)
        for _ in range(3):
            backward_and_step(net, *_batch(rng, 3), opt)
        before = opt.velocity.copy()
        body = net.head_offset
        expand_head(net, [3, 4], rng)
        assert net.head_offset == body
        net.flat_grads[...] = 0.0  # with momentum 1 and no decay, v is carried as is
        opt.step(net)
        np.testing.assert_array_equal(opt.velocity[:body], before[:body])
        assert opt.velocity.shape == net.flat_params.shape
        assert not opt.velocity[body:].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_parameter_reference_bitwise(self, dtype):
        """30 steps with a head expansion after 15: every parameter and running
        statistic equals the per-parameter, name-keyed step's bit for bit."""
        net = build_mlp(5, [7, 3], 2, np.random.default_rng(23), dtype=dtype)
        ref_net = copy.deepcopy(net)
        opt = SgdOptimizer(0.1, 0.9, 5e-4)
        ref = ReferenceSgd(0.1, 0.9, 5e-4)
        rng = np.random.default_rng(24)
        for step in range(30):
            if step == 15:
                expand_head(net, [2, 3], np.random.default_rng(25))
                expand_head(ref_net, [2, 3], np.random.default_rng(25))
            x, y = _batch(rng, net.n_classes)
            x = x.astype(dtype)
            loss = backward_and_step(net, x, y, opt)
            logits = ref_net.forward(x, True)
            ref_loss, dlogits = softmax_cross_entropy(logits, y)
            ref_net.backward(dlogits)
            ref.step(ref_net.named_parameters())
            assert loss == ref_loss
            assert_same_params(net, ref_net)
