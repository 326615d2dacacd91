"""Batch-level out-of-distribution scoring from batch-norm statistics.

The raw score eta0 sums squared standardized activations (a diagonal
Mahalanobis distance against the running batch-norm Gaussian). The two-sided
score eta1 = eta0 - d * ln(eta0) is large both for unusually large and
unusually small activations; stream batches are admitted when eta1 falls
below a bootstrap threshold tau. A batch's eta1 is the eta1 of its rows' mean
eta0, so many batches are scored by one read-only pass (``nn.eval_rows``,
asked for eta0 only) over their concatenated rows, then cut into batches by
``segment_means``: one reshape and row-wise mean per run of equal sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import Network, eval_rows
from .serialization import atomic_write_text


@dataclass(frozen=True)
class ThresholdConfig:
    """Bootstrap parameters for the acceptance threshold tau."""

    k_bootstrap: int = 100
    bootstrap_size: int = 8
    alpha: float = 0.99

    def __post_init__(self):
        if self.k_bootstrap < 1 or self.bootstrap_size < 1:
            raise ValueError("bootstrap counts must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")


def eta1_from_eta0(eta0, d: int):
    """Two-sided score eta0 - d * ln(eta0); eta0 = 0 maps to +inf.

    Strictly convex in eta0 with its minimum at eta0 = d, so both unusually
    small and unusually large deviations score high.
    """
    eta0 = np.asarray(eta0, dtype=np.float64)
    with np.errstate(divide="ignore"):
        out = np.where(eta0 > 0.0, eta0 - d * np.log(np.where(eta0 > 0, eta0, 1.0)), np.inf)
    if out.ndim == 0:
        return float(out)
    return out


def segment_means(values: np.ndarray, sizes) -> np.ndarray:
    """The mean of each consecutive run of ``sizes`` entries of ``values`` (a
    batch's mean of per-row scores); every run must be nonempty."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if (sizes < 1).any():
        raise ValueError("cannot score an empty batch")
    if sizes.sum() != len(values):
        raise ValueError(f"batch sizes sum to {sizes.sum()}, not to the {len(values)} rows")
    if sizes.size == 0:
        return np.zeros(0)
    # A run of k equal sizes s is one (k, s) block, a row per batch, whose row
    # means round exactly as each slice's own .mean() does (np.add.reduceat
    # does not).
    firsts = np.flatnonzero(np.diff(sizes, prepend=0))  # each run's first batch
    counts = np.diff(firsts, append=sizes.size)
    row_starts = np.cumsum(sizes) - sizes
    means = [values[r:r + k * s].reshape(k, s).mean(axis=1) for r, k, s in
             zip(row_starts[firsts].tolist(), counts.tolist(), sizes[firsts].tolist())]
    return np.concatenate(means)


def batch_ood_score(net: Network, x: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """eta1 of each consecutive batch of ``sizes`` rows of ``x`` (eta1 of the
    batch's mean eta0), and every row's logits, all from one read-only pass."""
    logits, eta0, _ = eval_rows(net, x, eta0=True)
    return eta1_from_eta0(segment_means(eta0, sizes), net.bn_dim), logits


def sample_eta1_scores(net: Network, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eta1 of every row of ``x`` (histogram granularity 'sample') and its
    logits, from one read-only pass."""
    logits, eta0, _ = eval_rows(net, x, eta0=True)
    return eta1_from_eta0(eta0, net.bn_dim), logits


def empirical_quantile(values: np.ndarray, alpha: float) -> float:
    """The ceil(alpha * n)-th order statistic (inverted-CDF convention)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.shape[0]
    idx = min(n - 1, max(0, math.ceil(alpha * n) - 1))
    return float(ordered[idx])


def bootstrap_threshold(net: Network, inputs: np.ndarray, cfg: ThresholdConfig,
                        rng: np.random.Generator) -> float:
    """Alpha-quantile of batch eta1 over K bootstrap resamples of ``inputs``
    (the buffer's rows, or a frozen reference sample)."""
    inputs = np.asarray(inputs)
    n = inputs.shape[0]
    if n < cfg.bootstrap_size:
        raise ValueError(f"buffer of {n} smaller than bootstrap size {cfg.bootstrap_size}")
    # One (K, b) draw leaves the generator where K draws of b would.
    sel = rng.integers(0, n, size=(cfg.k_bootstrap, cfg.bootstrap_size))
    scores, _ = batch_ood_score(net, inputs[sel.ravel()],
                                [cfg.bootstrap_size] * cfg.k_bootstrap)
    return empirical_quantile(scores, cfg.alpha)


@dataclass
class FilterResult:
    scores: np.ndarray  # eta1 of every batch, in stream order
    accepted: np.ndarray  # indices of the admitted batches, ascending


def filter_stream(net: Network, batches, tau: float) -> FilterResult:
    """Admit each batch iff its eta1 lies below tau; one pass scores them all."""
    if math.isnan(tau) or tau == math.inf:
        raise ValueError("tau must be finite (or -inf to reject everything)")
    inputs = [batch.inputs if hasattr(batch, "inputs") else batch for batch in batches]
    if not inputs:
        return FilterResult(np.zeros(0), np.zeros(0, dtype=np.int64))
    scores, _ = batch_ood_score(net, np.concatenate(inputs), [len(x) for x in inputs])
    return FilterResult(scores, np.flatnonzero(scores < tau))


def predictive_entropy_per_sample(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    plogp = np.where(p > 0.0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -plogp.sum(axis=1)


def predictive_entropy(logits: np.ndarray) -> float:
    """Mean softmax entropy of a batch; the classical output-only OoD baseline."""
    return float(predictive_entropy_per_sample(logits).mean())


def export_score_csv(path: str, in_scores, out_scores, value_name: str = "eta1") -> None:
    """Write (source, score) rows for in/out histogram comparison plots."""
    parts = [f"source,{value_name}\n"]
    for source, scores in (("in", in_scores), ("out", out_scores)):
        # One %-format over Python floats: the bytes of f"{float(s):.8g}" per row.
        values = tuple(np.ravel(np.asarray(scores, dtype=np.float64)).tolist())
        parts.append((f"{source},%.8g\n" * len(values)) % values)
    atomic_write_text(path, "".join(parts))
