"""Dataset handling: synthetic generators, class-incremental task splits,
corruption injection, open-world stream mixing, and the on-disk format.

Datasets are stored in the BNT1 container with two named tensors, ``inputs``
(float32) and ``labels`` (uint32, rank 1). ``load_dataset`` reads a file
whole; ``DatasetFile`` reads its headers, then its rows a block at a time.
Both reject a non-finite input. Foreign samples injected into a stream carry
the in-memory sentinel label -1 and are excluded from accuracy bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .serialization import (FormatError, read_headers, read_row_blocks, read_tensors,
                            write_tensors)

SENTINEL_LABEL = -1

CORRUPTION_KINDS = ("gaussian", "shot", "impulse")

# Generation and corruption hold the full-size float32 result plus float64
# temporaries of at most this many values (512 KB each).
BLOCK_VALUES = 1 << 16

# ``DatasetFile.blocks`` reads at most this many bytes of inputs per block
# (4,096 rows of 64 float32 values), unless one aligned step is larger.
READ_BLOCK_BYTES = 1 << 20


@dataclass
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        # Rows are (n, d) from here on; an explicit width also flattens an empty set.
        x = np.asarray(self.inputs, dtype=np.float32)
        self.inputs = x.reshape(x.shape[0], int(np.prod(x.shape[1:])))
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels must have matching length")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("dataset labels must be nonnegative")

    @property
    def n(self) -> int:
        return int(self.inputs.shape[0])

    def classes(self) -> list[int]:
        return sorted(int(c) for c in np.unique(self.labels))


@dataclass
class Stream:
    """One task's stream: its rows in emission order, cut into batches.

    ``inputs`` (n, d) float32 and ``labels`` (n,) int64 hold every row. Batch
    i is the next ``sizes[i]`` >= 1 rows, and ``kinds[i]`` ("clean",
    "corrupted" or "foreign") says how it entered. ``len()`` counts batches.
    """

    inputs: np.ndarray
    labels: np.ndarray
    sizes: np.ndarray
    kinds: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, np.float32)
        self.labels, self.sizes = np.asarray(self.labels, np.int64), np.asarray(self.sizes, np.int64)
        self.kinds = np.asarray(self.kinds, str)
        if (len(self.inputs) != len(self.labels) or self.sizes.sum() != len(self.labels)
                or (self.sizes < 1).any() or self.kinds.shape != self.sizes.shape):
            raise ValueError("a stream's batch sizes (each >= 1) and kinds must cover its rows")

    @classmethod
    def cut(cls, inputs, labels, batch_size: int, kind: str = "clean") -> "Stream":
        """Rows as consecutive ``batch_size`` batches (the last may be shorter)."""
        sizes = np.diff(np.append(np.arange(0, len(labels), batch_size), len(labels)))
        return cls(inputs, labels, sizes, np.full(len(sizes), kind))

    def __len__(self) -> int:
        return len(self.sizes)


@dataclass
class MixSpec:
    """Open-world injections: corrupted copies and foreign-class batches."""

    corrupted_fraction: float = 0.0
    ood_fraction: float = 0.0
    corruption: str = "gaussian"
    severity: float = 0.5
    foreign: Dataset | None = None

    def __post_init__(self):
        if not 0.0 <= self.corrupted_fraction <= 1.0 or not 0.0 <= self.ood_fraction <= 1.0:
            raise ValueError("fractions must lie in [0, 1]")
        if self.corrupted_fraction + self.ood_fraction > 1.0:
            raise ValueError("fractions must sum to at most 1")
        if self.ood_fraction > 0.0 and self.foreign is None:
            raise ValueError("ood_fraction > 0 requires a foreign dataset")


def simplex_means(n_classes: int, dims: int, separation: float) -> np.ndarray:
    """Class means with pairwise distance ``separation``, centered at 0.5.

    Uses the regular simplex spanned by scaled unit vectors, so ``dims`` must
    be at least ``n_classes``.
    """
    if dims < n_classes:
        raise ValueError(f"need dims >= n_classes for a regular simplex "
                         f"({dims} < {n_classes})")
    scale = separation / np.sqrt(2.0)
    verts = np.zeros((n_classes, dims))
    verts[:, :n_classes] = np.eye(n_classes) * scale
    verts[:, :n_classes] -= scale / n_classes
    return verts + 0.5


def _blocks(n: int, width: int):
    """Slices cutting ``n`` rows of ``width`` values into blocks of at most
    ``BLOCK_VALUES`` values (at least one row each)."""
    step = max(1, BLOCK_VALUES // width)
    return (slice(start, start + step) for start in range(0, n, step))


def synth_generate(n_classes: int, dims: int, separation: float, within_std: float,
                   n_samples: int, seed: int, clip_unit: bool = False) -> Dataset:
    """Gaussian blobs with means on a scaled simplex; labels round-robin.

    With ``clip_unit`` the samples are clamped into [0, 1] so they can feed
    the corruption operators. The rows are drawn block by block, which gives
    the values of one draw of every row at once.
    """
    if separation <= 0:
        raise ValueError("separation must be positive")
    if n_samples < 1:
        raise ValueError("cannot generate an empty dataset")
    rng = np.random.default_rng(seed)
    means = simplex_means(n_classes, dims, separation)
    labels = np.arange(n_samples, dtype=np.int64) % n_classes
    inputs = np.empty((n_samples, dims), np.float32)
    for rows in _blocks(n_samples, dims):
        block = rng.normal(0.0, within_std, size=inputs[rows].shape)
        block += means[labels[rows]]
        if clip_unit:
            np.clip(block, 0.0, 1.0, out=block)
        inputs[rows] = block
    return Dataset(inputs, labels)


def corrupt(inputs: np.ndarray, kind: str, severity: float, seed: int) -> np.ndarray:
    """Noise-corrupt inputs in [0, 1]; shape and value range are preserved.

    gaussian: additive N(0, severity^2). shot: Poisson photon-count
    resampling at rate 60/severity per unit value. impulse: each entry is
    forced to 0 or 1 with probability severity/2 each. The values are
    corrupted block by block in C order, which gives the draws of one pass
    over all of them.
    """
    if severity <= 0:
        raise ValueError("severity must be positive")
    x = np.asarray(inputs, dtype=np.float32)
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError("corruption expects inputs in [0, 1]")
    if kind not in CORRUPTION_KINDS:
        raise ValueError(f"unknown corruption kind {kind!r}")
    rng = np.random.default_rng(seed)
    lam = 60.0 / severity
    out = np.empty(x.shape, np.float32)
    flat_in, flat_out = x.reshape(-1), out.reshape(-1)
    for values in _blocks(x.size, 1):
        block = flat_in[values].astype(np.float64)
        if kind == "gaussian":
            block += rng.normal(0.0, severity, size=block.shape)
        elif kind == "shot":
            block *= lam
            np.divide(rng.poisson(block), lam, out=block)
        else:
            u = rng.random(block.shape)
            block[u < severity / 2.0] = 0.0
            block[(u >= severity / 2.0) & (u < severity)] = 1.0
        np.clip(block, 0.0, 1.0, out=block)
        flat_out[values] = block
    return out


def mix_streams(stream: Stream, mix: MixSpec, seed: int) -> Stream:
    """Interleave corrupted copies and foreign batches into a task stream.

    For each batch, a corrupted copy is injected with probability
    ``mix.corrupted_fraction`` and a foreign batch (sentinel labels) with
    probability ``mix.ood_fraction``; injected batches land at seeded random
    positions while the original batches keep their relative order. A stream
    that draws no injection is returned as it is. With corruption on, every
    row of the stream, each of which it may corrupt, must lie in [0, 1]:
    before anything is drawn, a row outside it raises ValueError.
    """
    x = stream.inputs
    if mix.corrupted_fraction > 0 and x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError("corruption expects inputs in [0, 1]")
    rng = np.random.default_rng(seed)
    n = len(stream)
    bounds = np.cumsum(stream.sizes)[:-1]
    # One (inputs, labels, kind, position) per batch, injected ones appended.
    batches = list(zip(np.split(stream.inputs, bounds), np.split(stream.labels, bounds),
                       stream.kinds.tolist(), range(n)))
    for x, y, _, _ in batches[:n]:
        if rng.random() < mix.corrupted_fraction:
            noisy = corrupt(x, mix.corruption, mix.severity, int(rng.integers(0, 2**31)))
            batches.append((noisy, y, "corrupted", rng.uniform(0, n)))
        if rng.random() < mix.ood_fraction:
            sel = rng.choice(mix.foreign.n, size=len(y), replace=mix.foreign.n < len(y))
            batches.append((mix.foreign.inputs[sel], np.full(len(y), SENTINEL_LABEL),
                            "foreign", rng.uniform(0, n)))
    if len(batches) == n:
        return stream
    # Stable: an injected batch at an original batch's exact position follows it.
    order = np.lexsort((np.arange(len(batches)) >= n, [b[3] for b in batches]))
    inputs, labels, kinds, _ = zip(*[batches[j] for j in order])
    return Stream(np.concatenate(inputs), np.concatenate(labels), list(map(len, labels)), kinds)


@dataclass
class SplitTasks:
    """Everything one open-world run consumes.

    ``streams[t-1]`` is the ``Stream`` of incremental timestep t >= 1, and
    ``len(streams[t-1])`` its batch count. Timestep 0 is the supervised
    pretraining set. Test data stays whole and is filtered to discovered
    classes at evaluation time.
    """

    pretrain_inputs: np.ndarray
    pretrain_labels: np.ndarray
    streams: list[Stream]
    test_inputs: np.ndarray
    test_labels: np.ndarray
    schedule: list[list[int]] = field(default_factory=list)

    @property
    def n_timesteps(self) -> int:
        return len(self.streams)

    def total_stream_size(self) -> int:
        """Rows over every task's stream."""
        return sum(len(stream.labels) for stream in self.streams)


def check_schedule(schedule: list[list[int]]) -> None:
    """Raise ValueError unless ``schedule`` holds a pretraining timestep plus
    >= 1 task and names each class once."""
    if len(schedule) < 2:
        raise ValueError("schedule needs a pretraining timestep plus >= 1 task")
    named = [c for classes in schedule for c in classes]
    repeated = sorted({c for c in named if named.count(c) > 1})
    if repeated:
        raise ValueError(f"schedule names classes {repeated} more than once")


def split_experiment(train: Dataset, test: Dataset, schedule: list[list[int]],
                     batch_size: int, seed: int, mix: MixSpec | None = None
                     ) -> SplitTasks:
    """Pretraining rows plus one shuffled (optionally mixed) stream per task.

    Timestep 0's rows, in train order, are the pretraining set. Timestep t's
    stream is ``default_rng(seed).permutation`` of its rows, drawn after the
    earlier timesteps' (timestep 0's included), cut into ``batch_size``
    batches (the last may be partial). A class may appear in one timestep
    only, so the streams partition the scheduled rows after pretraining.
    """
    check_schedule(schedule)
    missing = {c for classes in schedule for c in classes} - set(train.classes())
    if missing:
        raise ValueError(f"schedule references unknown classes {sorted(missing)}")
    rng = np.random.default_rng(seed)
    rows = [np.flatnonzero(np.isin(train.labels, classes)) for classes in schedule]
    shuffled = [rng.permutation(idx) for idx in rows]
    streams = [Stream.cut(train.inputs[idx], train.labels[idx], batch_size)
               for idx in shuffled[1:]]
    if mix is not None:
        rng = np.random.default_rng(seed + 1)
        streams = [mix_streams(stream, mix, int(rng.integers(0, 2**31))) for stream in streams]
    return SplitTasks(train.inputs[rows[0]], train.labels[rows[0]], streams,
                      test.inputs, test.labels, schedule)


def save_dataset(dataset: Dataset, path: str) -> None:
    labels = dataset.labels
    if labels.size and labels.max() >= 2**32:
        raise FormatError("labels overflow uint32")
    write_tensors(path, {
        "inputs": dataset.inputs.astype(np.float32, copy=False),
        "labels": labels.astype(np.uint32),
    })


def _dataset_shape(path: str, shapes: dict[str, tuple]) -> tuple[int, int]:
    """(rows, width) of a dataset file with tensors of ``shapes``; raises
    FormatError when they are not an ``inputs`` tensor and a rank-1 ``labels``
    tensor of the same length."""
    for name in ("inputs", "labels"):
        if name not in shapes:
            raise FormatError(f"dataset file {path!r} missing tensor {name!r}")
    inputs, labels = shapes["inputs"], shapes["labels"]
    if len(labels) != 1:
        raise FormatError(f"labels tensor of {path!r} must be rank 1")
    if inputs[0] != labels[0]:
        raise FormatError(f"{path!r} holds {inputs[0]} input rows but {labels[0]} labels")
    return labels[0], math.prod(inputs[1:])


def _check_finite(path: str, inputs: np.ndarray, first_row: int = 0) -> None:
    """Raise FormatError naming ``path`` if a value of the (n, d) rows
    ``inputs`` is NaN or infinite; checks a block at a time."""
    for rows in _blocks(len(inputs), max(1, inputs.shape[1])):
        finite = np.isfinite(inputs[rows])
        if not finite.all():
            row = first_row + rows.start + int(np.argmin(finite.all(axis=1)))
            raise FormatError(f"non-finite input in row {row} of {path!r}")


def load_dataset(path: str) -> Dataset:
    tensors = read_tensors(path)
    _dataset_shape(path, {name: t.shape for name, t in tensors.items()})
    dataset = Dataset(tensors["inputs"], tensors["labels"].astype(np.int64))
    _check_finite(path, dataset.inputs)
    return dataset


class DatasetFile:
    """A dataset file read a block of rows at a time.

    Opening reads and checks only the headers: ``n`` rows of ``width`` values.
    ``blocks`` then reads the payloads once, in row order.
    """

    def __init__(self, path: str):
        headers = read_headers(path)
        self.path = path
        self.n, self.width = _dataset_shape(path, {k: h.shape for k, h in headers.items()})
        self._headers = [headers["inputs"], headers["labels"]]

    def blocks(self, multiple: int):
        """Yield (inputs (k, width) float32, labels (k,) int64) blocks in row
        order. Every block but the last holds a multiple of ``multiple`` rows,
        the most that fit ``READ_BLOCK_BYTES`` of stored inputs (at least
        ``multiple``). A block is valid until the next one is read; a
        non-finite input raises FormatError naming the file."""
        fit = READ_BLOCK_BYTES // max(1, multiple * self._headers[0].row_bytes)
        first_row = 0
        for inputs, labels in read_row_blocks(self.path, self._headers,
                                              multiple * max(1, fit)):
            inputs = inputs.reshape(len(labels), self.width).astype(np.float32, copy=False)
            _check_finite(self.path, inputs, first_row)
            yield inputs, labels.astype(np.int64)
            first_row += len(labels)
