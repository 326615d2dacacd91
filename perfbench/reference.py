"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports ``bowl``. The checkpoint reader parses the BNT1
container itself, the forward pass is rebuilt from the stored parameters and
batch-norm running statistics in float64, and the similarity and AUROC
oracles use the plain definitions rather than the package's closed forms,
chunking or rank sums.

The network layout assumed is the one ``build_mlp`` produces: for each hidden
width a Dense layer (``layer{i}``), a BatchNorm layer (``layer{i+1}``) and a
ReLU (``layer{i+2}``, no tensors), then the head.
"""

from __future__ import annotations

import struct

import numpy as np

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<u4")}


def read_bnt(path: str) -> dict[str, np.ndarray]:
    """Every named tensor of a BNT1 file (checkpoint or dataset)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"BNT1":
        raise ValueError(f"{path}: not a BNT1 file")
    out: dict[str, np.ndarray] = {}
    pos = 4
    while pos < len(data):
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos:pos + name_len].decode("utf-8")
        pos += name_len
        code, rank = struct.unpack_from("<BB", data, pos)
        pos += 2
        dims = struct.unpack_from(f"<{rank}I", data, pos)
        pos += 4 * rank
        dtype = _DTYPES[code]
        count = int(np.prod(dims, dtype=np.int64))
        out[name] = np.frombuffer(data, dtype=dtype, count=count, offset=pos).reshape(dims)
        pos += count * dtype.itemsize
    return out


def forward(state: dict[str, np.ndarray], x: np.ndarray, eps: float = 1e-5):
    """Eval-mode forward pass in float64.

    Returns ``(logits, layers)`` where ``layers`` holds one ``(z, a)`` pair
    per batch-norm layer: the standardized input and the post-affine output.
    """
    h = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    layers = []
    i = 0
    while f"layer{i}.weight" in state:
        h = h @ state[f"layer{i}.weight"].astype(np.float64) + state[f"layer{i}.bias"]
        bn = f"layer{i + 1}"
        z = (h - state[f"{bn}.running_mean"]) / np.sqrt(
            state[f"{bn}.running_var"].astype(np.float64) + eps)
        a = state[f"{bn}.gamma"] * z + state[f"{bn}.beta"]
        layers.append((z, a))
        h = np.maximum(a, 0.0)
        i += 3
    logits = h @ state["head.weight"].astype(np.float64) + state["head.bias"]
    return logits, layers


def accuracy_counts(state: dict[str, np.ndarray], x: np.ndarray, labels: np.ndarray,
                    tie_tol: float = 1e-4) -> tuple[int, int]:
    """(correct predictions, near-tie samples) on ``x``.

    A near tie is a sample whose top two logits differ by less than
    ``tie_tol``; float32 and float64 passes may disagree on its argmax.
    """
    logits, _ = forward(state, x)
    class_ids = np.asarray(state["head.class_ids"], dtype=np.int64)
    correct = int((class_ids[np.argmax(logits, axis=1)] == labels).sum())
    top2 = np.sort(logits, axis=1)[:, -2:]
    return correct, int((top2[:, 1] - top2[:, 0] < tie_tol).sum())


def eta0(layers) -> np.ndarray:
    """Per-sample sum of squared standardized activations over all layers."""
    return sum(np.square(z).sum(axis=1) for z, _ in layers)


def eta1(eta0_values, d: int) -> np.ndarray:
    """eta0 - d * ln(eta0)."""
    e = np.asarray(eta0_values, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return e - d * np.log(e)


def eta_scores(state: dict[str, np.ndarray], x: np.ndarray, batch: int | None = None):
    """(eta0, eta1) per sample, or per run of ``batch`` consecutive rows, where a
    batch's eta0 is the mean of its samples' eta0."""
    _, layers = forward(state, x)
    e = eta0(layers)
    if batch is not None:
        e = np.array([e[s:s + batch].mean() for s in range(0, len(e), batch)])
    return e, eta1(e, sum(z.shape[1] for z, _ in layers))


def spread_entropy(state: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Gaussian entropy 0.5 * (1 + ln(2 pi sigma^2)) of each sample's activation
    spread sigma^2, the mean over layers of its mean squared post-affine value."""
    _, layers = forward(state, x)
    sigma_sq = np.mean([np.square(a).mean(axis=1) for _, a in layers], axis=0)
    with np.errstate(divide="ignore"):
        return 0.5 * (1.0 + np.log(2.0 * np.pi * sigma_sq))


def mean_cosine(x: np.ndarray, block: int = 512) -> np.ndarray:
    """Each row's mean cosine similarity to every other row, pair by pair.

    O(n^2) work; rows are processed ``block`` at a time only to bound memory.
    """
    x = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    n = len(x)
    if n < 2:
        return np.zeros(n)
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    out = np.empty(n)
    for s in range(0, n, block):
        cos = (x[s:s + block] @ x.T) / np.outer(norms[s:s + block], norms)
        rows = np.arange(s, min(s + block, n))
        cos[rows - s, rows] = 0.0
        out[rows] = cos.sum(axis=1) / (n - 1)
    return out


def pairwise_auroc(in_scores, out_scores) -> float:
    """Share of (in, out) pairs where the out score is higher; ties count 1/2.

    Each out score is compared with every in score by counting the in scores
    below and equal to it in the sorted in-set.
    """
    inn = np.sort(np.asarray(in_scores, dtype=np.float64).ravel())
    out = np.asarray(out_scores, dtype=np.float64).ravel()
    below = np.searchsorted(inn, out, side="left")
    equal = np.searchsorted(inn, out, side="right") - below
    return float((below.sum() + 0.5 * equal.sum()) / (inn.size * out.size))
