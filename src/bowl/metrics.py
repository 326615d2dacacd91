"""Evaluation measures: average accuracy, observed-data-point accounting and
AUROC separation."""

from __future__ import annotations

import numpy as np


def average_accuracy(accuracies) -> float:
    """Mean of the end-of-timestep accuracies."""
    values = list(accuracies)
    if not values:
        raise ValueError("need at least one accuracy")
    return float(np.mean(values))


def count_odp(insert_log) -> int:
    """Distinct sample ids ever newly inserted; repeats count once."""
    return len({int(sample_id) for sample_id, _ in insert_log})


def auroc(in_scores, out_scores) -> float:
    """Probability a random outlier outranks a random inlier (ties count 1/2):
    the Mann-Whitney U over average ranks. NaNs sort last and tie with each
    other, as in ``np.unique``."""
    in_scores = np.asarray(in_scores, dtype=np.float64).ravel()
    out_scores = np.asarray(out_scores, dtype=np.float64).ravel()
    if in_scores.size == 0 or out_scores.size == 0:
        raise ValueError("both score lists must be nonempty")
    combined = np.concatenate([in_scores, out_scores])
    _, inverse, counts = np.unique(combined, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    n_in, n_out = in_scores.size, out_scores.size
    u = ranks[n_in:].sum() - n_out * (n_out + 1) / 2.0
    return float(u / (n_in * n_out))
