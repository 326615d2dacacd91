"""Active-learning acquisition over the candidate pool.

A candidate's novelty is the Gaussian differential entropy of its post-batch-
norm activation spread; its typicality is its mean cosine similarity to the
rest of the pool in input space. The query score multiplies the two, and the
top-scoring samples are queried (labels revealed) in acquisition batches.
"""

from __future__ import annotations

import numpy as np

from .nn import Network, eval_rows
from .samples import SampleSet
from .stream import SENTINEL_LABEL


class CandidatePool:
    """Accepted stream samples awaiting query; labels stay hidden until queried.

    Label access is funneled through ``take`` (counted oracle reveals) and
    ``peek_unique_labels`` (class discovery for head expansion, logged as
    oracle metadata rather than observed data).
    """

    def __init__(self):
        self._samples = SampleSet.empty()
        self.oracle_reveals = 0

    def __len__(self) -> int:
        return len(self._samples)

    def append_batch(self, inputs: np.ndarray, labels: np.ndarray, ids) -> None:
        self._samples = self._samples.concat(SampleSet(inputs, labels, ids))

    @property
    def ids(self) -> np.ndarray:
        return self._samples.ids

    def inputs_matrix(self) -> np.ndarray:
        return self._samples.inputs

    def peek_unique_labels(self) -> list[int]:
        labels = np.unique(self._samples.labels)
        return labels[labels != SENTINEL_LABEL].tolist()

    def take(self, index) -> SampleSet:
        """Remove the rows at ``index`` (positions, returned in the order given,
        or a mask) and reveal their labels (oracle calls)."""
        remaining = np.ones(len(self), dtype=bool)
        remaining[index] = False
        taken = self._samples.subset(index)
        if len(taken) != len(self) - int(remaining.sum()):
            raise ValueError("take indices must be distinct")
        self._samples = self._samples.subset(remaining)
        self.oracle_reveals += len(taken)
        return taken


def entropy_term(sigma_sq):
    """Gaussian differential entropy 0.5 * (1 + ln(2 pi sigma^2)); 0 -> -inf."""
    sigma_sq = np.asarray(sigma_sq, dtype=np.float64)
    out = np.where(sigma_sq > 0.0,
                   0.5 * (1.0 + np.log(2.0 * np.pi * np.where(sigma_sq > 0, sigma_sq, 1.0))),
                   -np.inf)
    if out.ndim == 0:
        return float(out)
    return out


def sample_entropies(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Activation-spread entropy per sample, computed with the current model.

    The spread (``nn.eval_rows``) is the mean over batch-norm layers of a
    sample's mean squared post-affine activation. With ideal normalization it
    is the activation variance: how spread out the sample's intermediate values
    are relative to the training data the batch-norm statistics describe.
    """
    return entropy_term(eval_rows(net, inputs, spread=True)[2])


def mean_pairwise_cosine(x: np.ndarray) -> np.ndarray:
    """For every row, the mean cosine similarity to all *other* rows.

    With unit rows u_i and their sum S, the cosines of row i to every row sum
    to u_i . S, self-similarity s_i included, so the mean over the other n - 1
    rows is (u_i . S - s_i) / (n - 1): one O(n * d) product. A zero row has no
    direction; it has cosine 0 to every row (u_i = 0, s_i = 0). A pool of one
    returns [0] (empty-average convention). The rows are normalized in one
    float64 copy; the caller's array is never written.
    """
    n = len(x)
    if n < 2:
        return np.zeros(n)
    unit = np.array(x, dtype=np.float64)
    norms = np.linalg.norm(unit, axis=1)
    nonzero = norms > 0.0
    unit /= np.where(nonzero, norms, 1.0)[:, None]
    return (unit @ unit.sum(axis=0) - nonzero) / (n - 1)


def gamma_score(entropy: np.ndarray, term: np.ndarray) -> np.ndarray:
    """entropy * term, and -inf wherever the entropy is degenerate (-inf), so
    zero-spread samples rank last whatever the other term is."""
    out = np.full(entropy.shape, -np.inf)
    finite = np.isfinite(entropy)
    out[finite] = entropy[finite] * term[finite]
    return out


def query_scores(net: Network, pool: CandidatePool) -> np.ndarray:
    """gamma_q = alpha_q * beta_q for every pool row, in pool order.

    alpha_q is the activation-spread entropy (novelty), beta_q the mean
    cosine similarity to the rest of the pool (typicality).
    """
    if len(pool) == 0:
        raise ValueError("cannot score an empty pool")
    inputs = pool.inputs_matrix()
    return gamma_score(sample_entropies(net, inputs), mean_pairwise_cosine(inputs))


def select_top(pool: CandidatePool, scores: np.ndarray, acquisition_batch: int
               ) -> SampleSet:
    """Query the top-B rows by gamma_q (ties to lower id), removing them.

    Returns the queried rows sorted by descending score; the pool shrinks by
    exactly that many rows.
    """
    if acquisition_batch < 1:
        raise ValueError("acquisition batch must be >= 1")
    if len(pool) == 0:
        raise ValueError("cannot select from an empty pool")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(pool),):
        raise ValueError("scores must cover the pool")
    order = np.lexsort((pool.ids, -scores))
    return pool.take(order[:acquisition_batch])
