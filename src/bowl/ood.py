"""Batch-level out-of-distribution scoring from batch-norm statistics.

The raw score eta0 sums squared standardized activations (a diagonal
Mahalanobis distance against the running batch-norm Gaussian). The two-sided
score eta1 = eta0 - d * ln(eta0) is large both for unusually large and
unusually small activations; stream batches are admitted when eta1 falls
below a bootstrap threshold tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import ActivationTrace, Network, eval_mode
from .serialization import atomic_write_text


@dataclass(frozen=True)
class OodScore:
    eta0: float
    eta1: float
    d: int
    logits: np.ndarray = field(repr=False, compare=False)  # of the same eval pass


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


def eta0_per_sample(trace: ActivationTrace) -> np.ndarray:
    """Sum of squared standardized activations over all batch-norm layers."""
    if not trace.standardized:
        raise ValueError("trace has no batch-norm layers")
    total = np.zeros(trace.n_samples, dtype=np.float64)
    for z in trace.standardized:
        total += np.square(z.astype(np.float64)).reshape(z.shape[0], -1).sum(axis=1)
    return total


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


def batch_ood_score(net: Network, x: np.ndarray) -> OodScore:
    """Score one stream batch: eta1 of the batch-mean eta0, per-sample d."""
    x = np.asarray(x)
    if x.shape[0] == 0:
        raise ValueError("cannot score an empty batch")
    with eval_mode(net):
        logits, trace = net.forward(x, capture=True)
    per_sample = eta0_per_sample(trace)
    eta0 = float(per_sample.mean())
    return OodScore(eta0=eta0, eta1=eta1_from_eta0(eta0, trace.total_dim), d=trace.total_dim,
                    logits=logits)


def sample_eta1_scores(net: Network, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample eta1 scores (histogram granularity 'sample') and the logits
    of the same eval-mode pass."""
    with eval_mode(net):
        logits, trace = net.forward(np.asarray(x), capture=True)
    return np.asarray(eta1_from_eta0(eta0_per_sample(trace), trace.total_dim)), logits


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
    scores = np.empty(cfg.k_bootstrap, dtype=np.float64)
    for k in range(cfg.k_bootstrap):
        sel = rng.integers(0, n, size=cfg.bootstrap_size)
        scores[k] = batch_ood_score(net, inputs[sel]).eta1
    return empirical_quantile(scores, cfg.alpha)


@dataclass
class FilterResult:
    accepted: list = field(default_factory=list)
    rejected_count: int = 0
    scores: list[float] = field(default_factory=list)
    accept_flags: list[bool] = field(default_factory=list)


def filter_stream(net: Network, batches, tau: float) -> FilterResult:
    """Admit each batch iff its eta1 lies below tau, preserving order."""
    if math.isnan(tau) or tau == math.inf:
        raise ValueError("tau must be finite (or -inf to reject everything)")
    result = FilterResult()
    for batch in batches:
        inputs = batch.inputs if hasattr(batch, "inputs") else batch
        score = batch_ood_score(net, inputs).eta1
        result.scores.append(score)
        if score < tau:
            result.accepted.append(batch)
            result.accept_flags.append(True)
        else:
            result.rejected_count += 1
            result.accept_flags.append(False)
    return result


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


def batch_predictive_entropy(net: Network, x: np.ndarray) -> float:
    with eval_mode(net):
        logits, _ = net.forward(np.asarray(x))
    return predictive_entropy(logits)


def export_score_csv(path: str, in_scores, out_scores, value_name: str = "eta1") -> None:
    """Write (source, score) rows for in/out histogram comparison plots."""
    lines = [f"source,{value_name}"]
    lines.extend(f"in,{float(s):.8g}" for s in np.ravel(in_scores))
    lines.extend(f"out,{float(s):.8g}" for s in np.ravel(out_scores))
    atomic_write_text(path, "\n".join(lines) + "\n")
