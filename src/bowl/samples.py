"""One struct-of-arrays type for a set of samples.

The candidate pool, the rows a round queries and the replay buffer all hold a
``SampleSet``: parallel ``inputs`` / ``labels`` / ``ids`` arrays, plus the
cached ``entropy`` of buffer rows. Selection, removal and concatenation are
array indexing, never loops over rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Sample(NamedTuple):
    """One row of a set, for callers that iterate; entropy is nan outside the buffer."""

    input: np.ndarray
    label: int
    id: int
    entropy: float


@dataclass
class SampleSet:
    inputs: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) int64
    ids: np.ndarray  # (n,) int64
    entropy: np.ndarray | None = None  # (n,) float64 where cached

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        n = self.inputs.shape[0]
        if self.labels.shape != (n,) or self.ids.shape != (n,) or (
                self.entropy is not None and np.shape(self.entropy) != (n,)):
            raise ValueError("inputs, labels, ids and entropy must align")

    @classmethod
    def empty(cls) -> "SampleSet":
        return cls(np.zeros((0, 0), dtype=np.float32), np.zeros(0), np.zeros(0))

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def __iter__(self):
        entropy = self.entropy if self.entropy is not None else np.full(len(self), np.nan)
        for row in zip(self.inputs, self.labels.tolist(), self.ids.tolist(),
                       entropy.tolist()):
            yield Sample(*row)

    def subset(self, index) -> "SampleSet":
        """The rows at ``index`` (positions, in the order given, or a mask)."""
        return SampleSet(self.inputs[index], self.labels[index], self.ids[index],
                         None if self.entropy is None else self.entropy[index])

    def concat(self, other: "SampleSet") -> "SampleSet":
        """Rows of ``self`` then of ``other``; entropy survives only if both carry it."""
        if not len(self):
            return other
        if not len(other):
            return self
        entropy = None
        if self.entropy is not None and other.entropy is not None:
            entropy = np.concatenate([self.entropy, other.entropy])
        return SampleSet(np.concatenate([self.inputs, other.inputs]),
                         np.concatenate([self.labels, other.labels]),
                         np.concatenate([self.ids, other.ids]), entropy)
