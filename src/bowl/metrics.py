"""Evaluation measures: average accuracy, observed-data-point accounting,
AUROC separation, and exponential moving averages for query-volume curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .serialization import atomic_write_text


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


def auroc(in_scores, out_scores, higher_is_outlier: bool = True) -> float:
    """Probability a random outlier outranks a random inlier (ties count 1/2)."""
    in_scores = np.asarray(in_scores, dtype=np.float64).ravel()
    out_scores = np.asarray(out_scores, dtype=np.float64).ravel()
    if in_scores.size == 0 or out_scores.size == 0:
        raise ValueError("both score lists must be nonempty")
    if not higher_is_outlier:
        in_scores, out_scores = -in_scores, -out_scores
    combined = np.concatenate([in_scores, out_scores])
    ranks = _average_ranks(combined)
    n_in, n_out = in_scores.size, out_scores.size
    u = ranks[n_in:].sum() - n_out * (n_out + 1) / 2.0
    return float(u / (n_in * n_out))


@dataclass
class MetricSeries:
    name: str
    x: list[float]
    y: list[float]
    kind: str = "raw"

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must align")
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise ValueError("x must be strictly increasing")


def ema(values, decay: float) -> list[float]:
    """y'_k = decay * y_k + (1 - decay) * y'_{k-1}, seeded with y_0."""
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must lie in (0, 1]")
    values = list(values)
    if not values:
        return []
    out = [float(values[0])]
    for v in values[1:]:
        out.append(decay * float(v) + (1.0 - decay) * out[-1])
    return out


def write_metrics_csv(path: str, series_list: list[MetricSeries]) -> None:
    lines = ["series,x,y"]
    for series in series_list:
        for x, y in zip(series.x, series.y):
            lines.append(f"{series.name},{x:.6g},{y:.8g}")
    atomic_write_text(path, "\n".join(lines) + "\n")
