"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 7-9 share one toy open-world setup (4 disjoint incremental tasks of
two synthetic-blob classes each, on top of a 2-class pretraining task) run
across 5 seeds; the fixture caches those runs so the whole suite stays well
under the stated runtime budgets.
"""

import os
import time

import numpy as np
import pytest

from bowl.cli import main as cli_main
from bowl.engine import LoopConfig, run_variant
from bowl.memory import MemoryBuffer, MemoryScores, init_buffer, update_buffer
from bowl.metrics import auroc
from bowl.nn import BatchNorm, build_mlp, eval_rows, SgdOptimizer
from bowl.ood import (ThresholdConfig, batch_ood_score, bootstrap_threshold, eta1_from_eta0,
                      predictive_entropy_per_sample)
from bowl.query import mean_pairwise_cosine
from bowl.samples import SampleSet
from bowl.stream import MixSpec, corrupt, split_experiment, synth_generate

from reference import mean_cosine, pairwise_auroc
from test_nn import analytic_gradients, max_relative_error, numeric_gradients


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# --- shared toy open-world setup (criteria 7, 8, 9) ------------------------

DIMS = 16
SCHEDULE = [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
SEEDS = range(5)


def toy_tasks(seed, mix=None):
    train = synth_generate(10, DIMS, 0.24, 0.1, 3000, seed=1000 + seed, clip_unit=True)
    test = synth_generate(10, DIMS, 0.24, 0.1, 1500, seed=2000 + seed, clip_unit=True)
    return split_experiment(train, test, SCHEDULE, 8, seed=3000 + seed, mix=mix)


def toy_mix(seed):
    foreign = synth_generate(10, DIMS, 0.24 * 20, 0.1, 1500, seed=7000 + seed)
    return MixSpec(0.25, 0.25, "gaussian", 0.5, foreign)


def toy_config(seed):
    return LoopConfig(acquisition_batch=128, buffer_capacity=300,
                      epochs_per_update=2, pretrain_epochs=30, minibatch_size=64,
                      bootstrap=ThresholdConfig(100, 3, 0.99), learning_rate=0.1,
                      momentum=0.9, weight_decay=5e-4, eval_every_update=False,
                      seed=seed)


def toy_net(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    return build_mlp(DIMS, [16, 8], 2, rng, class_ids=[0, 1])


@pytest.fixture(scope="module")
def openworld_runs():
    runs = {}
    for seed in SEEDS:
        clean = toy_tasks(seed)
        mixed = toy_tasks(seed, toy_mix(seed))
        for variant in ("full", "no_ood", "random_query", "no_cl", "finetune"):
            runs[(variant, seed, "clean")] = run_variant(
                toy_net(seed), toy_config(seed), clean, variant)
        for variant in ("full", "no_ood"):
            runs[(variant, seed, "mixed")] = run_variant(
                toy_net(seed), toy_config(seed), mixed, variant)
        runs[("stream_size", seed)] = clean.total_stream_size()
    return runs


# --- supervised 4-class model shared by criteria 4 and 5 -------------------


def train_blob_model(seed, n_classes=4, sep=0.3, std=0.05, epochs=40):
    train = synth_generate(n_classes, DIMS, sep, std, 400 * n_classes,
                           seed=500 + seed, clip_unit=True)
    test = synth_generate(n_classes, DIMS, sep, std, 200 * n_classes,
                          seed=600 + seed, clip_unit=True)
    net = build_mlp(DIMS, [16, 8], n_classes,
                    np.random.default_rng(np.random.SeedSequence([seed, 2])))
    opt = SgdOptimizer(0.1, 0.9, 5e-4)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    from bowl.engine import _train_supervised
    _train_supervised(net, train.inputs, train.labels, opt, epochs, 64, rng)
    return net, train, test


def batch_scores(net, inputs, n_batches, batch_size, seed, scorer):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_batches):
        sel = rng.choice(inputs.shape[0], size=batch_size, replace=False)
        out.append(scorer(net, inputs[sel]))
    return np.asarray(out)


def eta1_scorer(net, x):
    return batch_ood_score(net, x, [len(x)])[0][0]


def pe_scorer(net, x):
    return float(predictive_entropy_per_sample(eval_rows(net, x)[0]).mean())


class TestCriterion1:
    def test_gradient_correctness(self):
        start = time.time()
        worst = 0.0
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
            worst = max(worst, max_relative_error(
                analytic_gradients(net, x, y),
                numeric_gradients(net, x, y, h=1e-5)))
        elapsed = time.time() - start
        ok = worst <= 1e-4 and elapsed < 30
        report(1, ok, f"max relative error {worst:.2e} over 20 nets in {elapsed:.1f}s")
        assert worst <= 1e-4
        assert elapsed < 30


class TestCriterion2:
    def test_bn_contract(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm(6)
        x = (rng.normal(1.0, 1.3, size=(128, 6))).astype(np.float32)
        z = bn.forward(x, train=True)
        mean_dev = float(np.abs(z.mean(axis=0)).max())
        var_dev = float(np.abs(z.var(axis=0) - 1.0).max())

        bn2 = BatchNorm(3, stat_momentum=0.1)
        true_mean = np.array([2.0, -1.5, 3.0])
        true_std = np.array([1.5, 0.7, 2.0])
        for _ in range(500):
            batch = (true_mean + true_std * rng.normal(size=(256, 3))).astype(np.float32)
            bn2.forward(batch, train=True)
        mean_rel = float(np.abs(bn2.running_mean / true_mean - 1.0).max())
        var_rel = float(np.abs(bn2.running_var / true_std**2 - 1.0).max())

        ok = mean_dev < 1e-5 and var_dev < 1e-4 and mean_rel < 0.05 and var_rel < 0.05
        report(2, ok, f"|mean|={mean_dev:.1e} |var-1|={var_dev:.1e} "
                      f"running-stat rel dev mean={mean_rel:.3f} var={var_rel:.3f}")
        assert mean_dev < 1e-5
        assert var_dev < 1e-4
        assert mean_rel < 0.05 and var_rel < 0.05


class TestCriterion3:
    def test_eta1_shape(self):
        details = []
        ok = True
        for d in (1, 4, 64, 1024):
            grid = np.linspace(d / 10.0, 10.0 * d, 4001)
            vals = eta1_from_eta0(grid, d)
            argmin = float(grid[int(np.argmin(vals))])
            step = float(grid[1] - grid[0])
            ok &= abs(argmin - d) <= step
            ok &= eta1_from_eta0(d / 10.0, d) > eta1_from_eta0(float(d), d)
            ok &= eta1_from_eta0(10.0 * d, d) > eta1_from_eta0(float(d), d)
            details.append(f"d={d}: argmin={argmin:.2f}")
        exact = eta1_from_eta0(1.0, 1)
        ok &= exact == pytest.approx(1.0)
        report(3, ok, "; ".join(details) + f"; eta1(1;d=1)={exact}")
        assert ok


class TestCriterion4:
    def test_ood_separation_vs_predictive_entropy(self):
        start = time.time()
        net, train, test = train_blob_model(seed=0)
        corrupted = corrupt(test.inputs, "gaussian", 0.5, seed=42)
        clean_eta1 = batch_scores(net, test.inputs, 80, 8, 1, eta1_scorer)
        corr_eta1 = batch_scores(net, corrupted, 80, 8, 2, eta1_scorer)
        clean_pe = batch_scores(net, test.inputs, 80, 8, 1, pe_scorer)
        corr_pe = batch_scores(net, corrupted, 80, 8, 2, pe_scorer)
        auroc_eta1 = auroc(clean_eta1, corr_eta1)
        auroc_pe = auroc(clean_pe, corr_pe)
        elapsed = time.time() - start
        ok = auroc_eta1 >= 0.90 and auroc_eta1 >= auroc_pe and elapsed < 120
        report(4, ok, f"eta1 AUROC={auroc_eta1:.3f}, PE AUROC={auroc_pe:.3f}, "
                      f"{elapsed:.1f}s")
        assert auroc_eta1 >= 0.90
        assert auroc_eta1 >= auroc_pe
        assert elapsed < 120


class TestCriterion5:
    def test_bootstrap_threshold_accept_reject_rates(self):
        clean_rates, noise_rates = [], []
        for seed in SEEDS:
            net, train, test = train_blob_model(seed)
            buf = init_buffer(train.inputs, train.labels, 400, net,
                              np.random.default_rng(np.random.SeedSequence([seed, 3])))
            tau = bootstrap_threshold(net, buf.inputs_matrix(), ThresholdConfig(100, 8, 0.99),
                                      np.random.default_rng(np.random.SeedSequence([seed, 4])))
            clean = batch_scores(net, test.inputs, 60, 8, seed, eta1_scorer)
            noise_inputs = np.random.default_rng(900 + seed).random(
                (600, DIMS)).astype(np.float32)
            noise = batch_scores(net, noise_inputs, 60, 8, seed, eta1_scorer)
            clean_rates.append(float((clean < tau).mean()))
            noise_rates.append(float((noise < tau).mean()))
        ok = all(0.90 <= r <= 1.0 for r in clean_rates) and \
             all(r <= 0.05 for r in noise_rates)
        report(5, ok, f"clean acceptance {['%.2f' % r for r in clean_rates]}, "
                      f"noise acceptance {['%.2f' % r for r in noise_rates]}")
        assert all(0.90 <= r <= 1.0 for r in clean_rates)
        assert all(r <= 0.05 for r in noise_rates)


class TestCriterion6:
    def test_oracle_equivalences(self):
        rng = np.random.default_rng(10)
        # closed-form cosine vs naive O(n^2), on non-negative rows like the loop's
        cos_ok = True
        for n in (1, 2, 17, 5000):
            x = rng.random((n, 12))
            got = mean_pairwise_cosine(x)
            cos_ok &= bool(np.allclose(got, mean_cosine(x), atol=1e-5))

        # buffer update vs brute-force sort at |S| = 10^4
        n_buf, n_new, capacity = 2500, 7500, 2500
        buf = MemoryBuffer(capacity, SampleSet(np.zeros((n_buf, 2), dtype=np.float32),
                                               np.zeros(n_buf), np.arange(n_buf),
                                               np.ones(n_buf)))
        queried = SampleSet(np.zeros((n_new, 2), dtype=np.float32), np.zeros(n_new),
                            np.arange(n_buf, n_buf + n_new))
        gamma = rng.normal(size=n_buf + n_new)
        gamma[rng.choice(n_buf + n_new, 400, replace=False)] = 0.5
        scores = MemoryScores(gamma=gamma, entropy=np.ones(n_buf + n_new), n_buffer=n_buf)
        new_buf, _ = update_buffer(buf, queried, scores)
        oracle = sorted(range(n_buf + n_new), key=lambda i: (-gamma[i], i))[:capacity]
        buffer_ok = sorted(new_buf.ids()) == sorted(oracle)

        # rank-based AUROC vs pairwise-comparison oracle, exact
        in_scores = np.round(rng.normal(size=1000), 1)
        out_scores = np.round(rng.normal(0.4, 1.2, size=900), 1)
        auroc_ok = auroc(in_scores, out_scores) == pairwise_auroc(
            in_scores.tolist(), out_scores.tolist())

        ok = cos_ok and buffer_ok and auroc_ok
        report(6, ok, f"cosine={cos_ok}, buffer-top-k={buffer_ok}, auroc={auroc_ok}")
        assert cos_ok and buffer_ok and auroc_ok


class TestCriterion7:
    def test_ablation_ordering(self, openworld_runs):
        start = time.time()
        per_seed = []
        for seed in SEEDS:
            final = {v: openworld_runs[(v, seed, "clean")].task_accuracies[4]
                     for v in ("full", "no_ood", "random_query", "no_cl")}
            ok = (final["full"] >= final["no_ood"] - 0.03
                  and final["full"] > final["random_query"]
                  and final["full"] - final["no_cl"] >= 0.15)
            per_seed.append(ok)
        n_ok = sum(per_seed)
        elapsed = time.time() - start
        ok = n_ok >= 4
        report(7, ok, f"ordering holds on {n_ok}/5 seeds ({elapsed:.1f}s on cached runs)")
        assert n_ok >= 4


class TestCriterion8:
    def test_open_world_robustness(self, openworld_runs):
        full_ok, degrade_ok = [], []
        for seed in SEEDS:
            f_clean = openworld_runs[("full", seed, "clean")].task_accuracies[4]
            f_mixed = openworld_runs[("full", seed, "mixed")].task_accuracies[4]
            n_clean = openworld_runs[("no_ood", seed, "clean")].task_accuracies[4]
            n_mixed = openworld_runs[("no_ood", seed, "mixed")].task_accuracies[4]
            full_drop = f_clean - f_mixed
            noood_drop = n_clean - n_mixed
            full_ok.append(abs(f_mixed - f_clean) <= 0.05)
            degrade_ok.append(noood_drop > full_drop)
        ok = all(full_ok) and sum(degrade_ok) >= 4
        report(8, ok, f"full within 5pts on {sum(full_ok)}/5 seeds; "
                      f"no_ood degrades more on {sum(degrade_ok)}/5 seeds")
        assert all(full_ok)
        assert sum(degrade_ok) >= 4


class TestCriterion9:
    def test_efficiency_accounting(self, openworld_runs):
        odp_ok, steps_ok, details = [], [], []
        for seed in SEEDS:
            full = openworld_runs[("full", seed, "clean")]
            finetune = openworld_runs[("finetune", seed, "clean")]
            stream = openworld_runs[("stream_size", seed)]
            odp_ok.append(full.odp < 0.5 * stream)
            steps_ok.append(full.total_steps < finetune.total_steps)
            details.append(f"s{seed}: odp {full.odp}/{stream} "
                           f"steps {full.total_steps}<{finetune.total_steps}")
        ok = all(odp_ok) and all(steps_ok)
        report(9, ok, "; ".join(details))
        assert all(odp_ok)
        assert all(steps_ok)


class TestCriterion10:
    def test_byte_identical_summaries(self, tmp_path):
        config = f"""
[run]
variant = full
seed = 0
output_dir = {tmp_path}/unused

[network]
hidden = 16,8

[loop]
acquisition_batch = 128
buffer_capacity = 300
epochs_per_update = 2
pretrain_epochs = 30
minibatch_size = 64
bootstrap_k = 100
bootstrap_size = 3
eval_every_update = false

[optimizer]
weight_decay = 0.0005

[data]
n_classes = 10
dims = 16
separation = 0.24
within_std = 0.1
train_per_class = 300
test_per_class = 150
schedule = 0,1 | 2,3 | 4,5 | 6,7 | 8,9
"""
        cfg_path = tmp_path / "toy.cfg"
        cfg_path.write_text(config)
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert cli_main(["run", str(cfg_path), "--output-dir", out1]) == 0
        assert cli_main(["run", str(cfg_path), "--output-dir", out2]) == 0
        s1 = open(os.path.join(out1, "summary.txt"), "rb").read()
        s2 = open(os.path.join(out2, "summary.txt"), "rb").read()
        r1 = open(os.path.join(out1, "report.csv"), "rb").read()
        r2 = open(os.path.join(out2, "report.csv"), "rb").read()
        ok = s1 == s2 and r1 == r2
        report(10, ok, f"summary bytes equal={s1 == s2}, report bytes equal={r1 == r2}")
        assert s1 == s2
        assert r1 == r2
