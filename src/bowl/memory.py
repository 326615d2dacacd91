"""Fixed-capacity replay buffer ranked by the memory score gamma_m.

Candidates (current entries plus newly queried samples) are scored by
gamma_m = H * (1 - mean cosine to the other candidates): high-entropy samples
that stay distinct from the rest survive. Entropies are cached at insertion
and never recomputed; only the cosine term is refreshed, since the candidate
set changes every update. The model is only ever trained on this buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nn import Network
from .query import gamma_score, mean_pairwise_cosine, sample_entropies
from .samples import SampleSet


class MemoryBuffer:
    """At most ``capacity`` labeled rows, with cached entropies where gamma_m ranks them."""

    def __init__(self, capacity: int, entries: SampleSet):
        if capacity < 1:
            raise ValueError("buffer capacity must be positive")
        self.capacity = capacity
        if len(entries) > capacity:
            raise ValueError("initial entries exceed capacity")
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

    def inputs_matrix(self) -> np.ndarray:
        return self.entries.inputs

    def ids(self) -> list[int]:
        return self.entries.ids.tolist()

    def composition(self) -> dict[int, int]:
        labels, counts = np.unique(self.entries.labels, return_counts=True)
        return dict(zip(labels.tolist(), counts.tolist()))


def init_buffer(inputs: np.ndarray, labels: np.ndarray, capacity: int,
                net: Network, rng: np.random.Generator, ids=None) -> MemoryBuffer:
    """Fill a fresh buffer with a uniform random sample of the dataset.

    This is the one point where old training data is assumed available;
    entropies are cached from the current (just-pretrained) model.
    """
    inputs = np.asarray(inputs)
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("cannot initialize buffer from an empty dataset")
    if ids is None:
        ids = np.arange(n)
    chosen = np.sort(rng.choice(n, size=min(capacity, n), replace=False))
    rows = inputs[chosen]
    entries = SampleSet(rows, np.asarray(labels)[chosen], np.asarray(ids)[chosen],
                        sample_entropies(net, rows))
    return MemoryBuffer(capacity, entries)


@dataclass
class MemoryScores:
    """gamma_m per candidate, and the candidates (buffer first) with their entropies."""

    gamma: np.ndarray
    candidates: SampleSet
    n_buffer: int


def memory_scores(buffer: MemoryBuffer, queried: SampleSet, net: Network) -> MemoryScores:
    """Score every candidate in buffer + queried by gamma_m.

    gamma_m(s) = H(s) * (1 - mean cosine between s and the other candidates),
    with H taken from the entry cache for existing members and computed fresh
    for queried samples. Degenerate H = -inf candidates score -inf.
    """
    if buffer.entries.entropy is None:
        raise ValueError("buffer entries need cached entropies")
    fresh = replace(queried, entropy=sample_entropies(net, queried.inputs))
    candidates = buffer.entries.concat(fresh)
    if not len(candidates):
        raise ValueError("no candidates to score")
    gamma = gamma_score(candidates.entropy, 1.0 - mean_pairwise_cosine(candidates.inputs))
    return MemoryScores(gamma=gamma, candidates=candidates, n_buffer=len(buffer))


def update_buffer(buffer: MemoryBuffer, queried: SampleSet, scores: MemoryScores
                  ) -> tuple[MemoryBuffer, list[int]]:
    """Keep the top-capacity candidates by gamma_m (ties to lower id).

    Survivors keep their candidate order (buffer first, then queried).
    Returns the new buffer and the ids of queried samples that made it in
    (the per-update observed-data-point increment). With an empty queried
    set and a full candidate fit, the buffer passes through unchanged.
    """
    n_buffer, candidates = scores.n_buffer, scores.candidates
    if n_buffer != len(buffer) or len(candidates) != n_buffer + len(queried):
        raise ValueError("scores do not cover buffer + queried")
    keep = np.sort(np.lexsort((candidates.ids, -scores.gamma))[:buffer.capacity])
    inserted = candidates.ids[keep[keep >= n_buffer]].tolist()
    return MemoryBuffer(buffer.capacity, candidates.subset(keep)), inserted
