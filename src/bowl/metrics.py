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


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged; exact for half-integer arithmetic.
    NaNs sort last and tie with each other, as in ``np.unique``."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    n = sorted_vals.size
    # Tie runs straight from the sorted values: a run starts where a value
    # differs from the one before it.
    new_run = np.ones(n, dtype=bool)
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=new_run[1:])
    nan = np.isnan(sorted_vals)
    new_run[1:] &= ~(nan[1:] & nan[:-1])
    starts = np.flatnonzero(new_run)
    counts = np.diff(starts, append=n)
    avg = starts + (counts + 1) / 2.0
    ranks = np.empty(n)
    ranks[order] = np.repeat(avg, counts)
    return ranks


def auroc(in_scores, out_scores) -> float:
    """Probability a random outlier outranks a random inlier (ties count 1/2)."""
    in_scores = np.asarray(in_scores, dtype=np.float64).ravel()
    out_scores = np.asarray(out_scores, dtype=np.float64).ravel()
    if in_scores.size == 0 or out_scores.size == 0:
        raise ValueError("both score lists must be nonempty")
    combined = np.concatenate([in_scores, out_scores])
    ranks = _average_ranks(combined)
    n_in, n_out = in_scores.size, out_scores.size
    u = ranks[n_in:].sum() - n_out * (n_out + 1) / 2.0
    return float(u / (n_in * n_out))
