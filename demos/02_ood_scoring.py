"""Rejecting corrupted and foreign data with batch-norm outlier scores.

The raw score eta0 is the squared standardized deviation summed over every
batch-norm entry: a diagonal Mahalanobis distance against the running
statistics. The two-sided score eta1 = eta0 - d*ln(eta0) also flags inputs
whose activations are suspiciously SMALL. A bootstrap over the memory buffer
sets the acceptance threshold tau, and batches score above it get dropped.

Run:  python3 demos/02_ood_scoring.py
"""

import numpy as np

from bowl import (SgdOptimizer, ThresholdConfig, batch_ood_score, bootstrap_threshold,
                  build_mlp, corrupt, eta1_from_eta0, init_buffer, synth_generate)
from bowl.engine import _train_supervised
from bowl.metrics import auroc
from bowl.ood import export_score_csv, predictive_entropy_per_sample, segment_means

rng = np.random.default_rng(0)

# --- 1. The shape of eta1: both tails are suspicious -------------------------

d = 24
for eta0 in (d / 10, d / 2, d, 2 * d, 10 * d):
    print(f"eta0={eta0:7.1f}  ->  eta1={eta1_from_eta0(eta0, d):9.2f}")
print("minimum sits at eta0 = d =", d)

# --- 2. Train a classifier on clean blobs ------------------------------------

train = synth_generate(4, 16, 0.3, 0.05, 1600, seed=1, clip_unit=True)
test = synth_generate(4, 16, 0.3, 0.05, 800, seed=2, clip_unit=True)
net = build_mlp(16, [16, 8], 4, np.random.default_rng(3))
opt = SgdOptimizer(0.1, 0.9, 5e-4)
_train_supervised(net, train.inputs, train.labels, opt, 40, 64,
                  np.random.default_rng(4))

# --- 3. Score clean vs corrupted vs uniform-noise batches --------------------
# A batch's eta1 is the eta1 of its rows' mean eta0, so one read-only pass
# over all the batches' rows scores every batch.

SIZES = [8] * 60


def draw_batches(inputs):
    """60 batches of 8 distinct rows each, stacked."""
    return np.concatenate([inputs[rng.choice(inputs.shape[0], size=8, replace=False)]
                           for _ in SIZES])


def score_batches(inputs):
    return batch_ood_score(net, draw_batches(inputs), SIZES)[0]


corrupted = corrupt(test.inputs, "gaussian", 0.5, seed=5)
noise = rng.random((800, 16)).astype(np.float32)

clean_scores = score_batches(test.inputs)
corr_scores = score_batches(corrupted)
noise_scores = score_batches(noise)

print(f"\nclean     eta1: median {np.median(clean_scores):9.1f}")
print(f"corrupted eta1: median {np.median(corr_scores):9.1f}")
print(f"noise     eta1: median {np.median(noise_scores):9.1f}")

# --- 4. Bootstrap threshold from the memory buffer ---------------------------

buffer = init_buffer(train.inputs, train.labels, 400, net, np.random.default_rng(6))
tau = bootstrap_threshold(net, buffer.inputs_matrix(), ThresholdConfig(100, 8, 0.99),
                          np.random.default_rng(7))
print(f"\nbootstrap tau (alpha=0.99): {tau:.1f}")
print(f"clean batches accepted:     {(clean_scores < tau).mean():.2%}")
print(f"corrupted batches accepted: {(corr_scores < tau).mean():.2%}")
print(f"noise batches accepted:     {(noise_scores < tau).mean():.2%}")

# --- 5. Compare with the predictive-entropy baseline -------------------------


def pe_batches(inputs):
    """Each batch's mean predictive entropy, from the logits of the same pass."""
    _, logits = batch_ood_score(net, draw_batches(inputs), SIZES)
    return segment_means(predictive_entropy_per_sample(logits), SIZES)


print(f"\nAUROC clean-vs-corrupted, eta1:               "
      f"{auroc(clean_scores, corr_scores):.3f}")
print(f"AUROC clean-vs-corrupted, predictive entropy: "
      f"{auroc(pe_batches(test.inputs), pe_batches(corrupted)):.3f}")

export_score_csv("demo_ood_hist.csv", clean_scores, corr_scores)
print("\nhistogram rows written to demo_ood_hist.csv (source,eta1)")
