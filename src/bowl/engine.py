"""Open-world training loop across class-incremental timesteps.

Timestep 0 pretrains on the first task's data under the traditional setup
and fills the memory buffer. Every later timestep bootstraps an acceptance
threshold from the buffer, filters its stream into a candidate pool, expands
the output head by the newly discovered classes, then repeatedly queries the
top-scoring samples, repopulates the buffer by memory score, and trains on
the buffer until the pool is empty.

Ablation variants drop one mechanism each (no_ood / random_query / no_cl),
and two simple baselines (finetune, balanced_buffer) bracket the behavior.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .memory import (MemoryBuffer, export_composition_csv, init_buffer, memory_scores,
                     update_buffer)
from .metrics import MetricSeries, average_accuracy, count_odp, ema, write_metrics_csv
from .nn import (Network, NonFiniteLossError, SgdOptimizer, backward_and_step,
                 eval_mode, expand_head, minibatches, train_one_epoch)
from .ood import ThresholdConfig, bootstrap_threshold, filter_stream
from .query import CandidatePool, query_scores, select_top
from .samples import SampleSet
from .serialization import atomic_write_text
from .stream import SENTINEL_LABEL, SplitTasks, StreamBatch

VARIANTS = ("full", "no_ood", "random_query", "no_cl", "finetune", "balanced_buffer")


@dataclass
class LoopConfig:
    acquisition_batch: int = 256
    buffer_capacity: int = 5000
    epochs_per_update: int = 1
    pretrain_epochs: int = 30
    minibatch_size: int = 256
    bootstrap: ThresholdConfig = field(default_factory=ThresholdConfig)
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    eval_every_update: bool = True
    # Per-task epochs for the traditionally trained baselines (finetune,
    # balanced_buffer); defaults to the pretraining budget.
    baseline_epochs_per_task: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.acquisition_batch < 1:
            raise ValueError("acquisition batch must be >= 1")
        if self.epochs_per_update < 1:
            raise ValueError("epochs_per_update must be >= 1")
        if self.minibatch_size < 2:
            raise ValueError("minibatch_size must be >= 2: train-mode batch norm "
                             "needs two rows")
        if self.buffer_capacity < self.acquisition_batch:
            warnings.warn("buffer capacity below acquisition batch; churn will be high",
                          stacklevel=2)

    @property
    def baseline_epochs(self) -> int:
        return self.baseline_epochs_per_task or self.pretrain_epochs


@dataclass
class UpdateRecord:
    timestep: int
    update_index: int
    global_step: int
    queried: int
    n_new_inserted: int
    train_loss: float
    accuracy: float  # nan when per-update evaluation is off


@dataclass
class TaskRecord:
    timestep: int
    tau: float
    accepted_batches: int
    rejected_batches: int
    pool_size: int
    new_classes: int
    head_width: int
    accuracy: float
    buffer_composition: dict[int, int]


@dataclass
class RunReport:
    variant: str
    seed: int
    updates: list[UpdateRecord] = field(default_factory=list)
    tasks: list[TaskRecord] = field(default_factory=list)
    task_accuracies: dict[int, float] = field(default_factory=dict)
    insert_log: list[tuple[int, int]] = field(default_factory=list)
    oracle_reveals: int = 0
    pretrain_steps: int = 0
    total_steps: int = 0
    aborted: bool = False
    abort_reason: str | None = None

    @property
    def odp(self) -> int:
        return count_odp(self.insert_log)

    @property
    def final_accuracy(self) -> float:
        if not self.task_accuracies:
            return float("nan")
        return self.task_accuracies[max(self.task_accuracies)]

    @property
    def average_task_accuracy(self) -> float:
        """Mean end-of-task accuracy over incremental timesteps t >= 1."""
        incremental = [a for t, a in sorted(self.task_accuracies.items()) if t >= 1]
        if not incremental:
            return float("nan")
        return average_accuracy(incremental)


def evaluate(net: Network, inputs: np.ndarray, labels: np.ndarray,
             batch_size: int = 512) -> float:
    """Fraction of correct argmax predictions; sentinel labels are excluded."""
    inputs = np.asarray(inputs)
    labels = np.asarray(labels)
    mask = labels != SENTINEL_LABEL
    inputs, labels = inputs[mask], labels[mask]
    if labels.size == 0:
        raise ValueError("empty test set")
    class_ids = np.asarray(net.class_ids, dtype=np.int64)
    correct = 0
    with eval_mode(net):
        for start in range(0, inputs.shape[0], batch_size):
            logits, _ = net.forward(inputs[start:start + batch_size])
            preds = class_ids[np.argmax(logits, axis=1)]
            correct += int((preds == labels[start:start + batch_size]).sum())
    return correct / labels.size


def _evaluate_discovered(net: Network, tasks: SplitTasks) -> float:
    """Accuracy on the test samples of every class discovered so far."""
    known = np.isin(tasks.test_labels, np.asarray(net.class_ids, dtype=np.int64))
    return evaluate(net, tasks.test_inputs[known], tasks.test_labels[known])


def _train_supervised(net: Network, inputs: np.ndarray, labels: np.ndarray,
                      opt: SgdOptimizer, epochs: int, minibatch_size: int,
                      rng: np.random.Generator) -> tuple[int, float]:
    """Plain shuffled-minibatch training; the traditional (non-buffer) path."""
    inputs = np.asarray(inputs)
    labels = np.asarray(labels)
    keep = labels != SENTINEL_LABEL
    inputs, labels = inputs[keep], labels[keep]
    n = inputs.shape[0]
    if n == 0 or epochs == 0:
        return 0, float("nan")
    targets = net.head_rows(labels)
    net.train()
    steps = 0
    last_loss = float("nan")
    for _ in range(epochs):
        for sel in minibatches(n, minibatch_size, rng):
            last_loss = backward_and_step(net, inputs[sel], targets[sel], opt)
            steps += 1
    return steps, last_loss


def _rng_for(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, purpose]))


def _assign_ids(batches: list[StreamBatch], next_id: int):
    """Give every stream sample a stable id in emission order."""
    ids = []
    for batch in batches:
        ids.append(np.arange(next_id, next_id + batch.size, dtype=np.int64))
        next_id += batch.size
    return ids, next_id


def _discover_classes(net: Network, labels, rng: np.random.Generator) -> int:
    """Expand the head for labels not seen before; returns how many were new."""
    novel = sorted(set(int(l) for l in labels)
                   - set(net.class_ids) - {SENTINEL_LABEL})
    if novel:
        expand_head(net, len(novel), rng, novel)
    return len(novel)


def run_bowl(net: Network, config: LoopConfig, tasks: SplitTasks) -> RunReport:
    """The full loop: OoD filter, active query, and buffer-only training."""
    return run_variant(net, config, tasks, "full")


def run_variant(net: Network, config: LoopConfig, tasks: SplitTasks,
                variant: str = "full") -> RunReport:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    rng_buffer = _rng_for(config.seed, 3)
    rng_bootstrap = _rng_for(config.seed, 4)
    rng_shuffle = _rng_for(config.seed, 5)
    rng_query = _rng_for(config.seed, 6)
    rng_expand = _rng_for(config.seed, 7)

    opt = SgdOptimizer(config.learning_rate, config.momentum, config.weight_decay)
    report = RunReport(variant=variant, seed=config.seed)

    # Timestep 0: traditional supervised pretraining on the first task.
    pre_steps, _ = _train_supervised(net, tasks.pretrain_inputs, tasks.pretrain_labels,
                                     opt, config.pretrain_epochs,
                                     config.minibatch_size, rng_shuffle)
    report.pretrain_steps = pre_steps
    report.task_accuracies[0] = _evaluate_discovered(net, tasks)

    n_pretrain = int(tasks.pretrain_inputs.shape[0])
    next_id = n_pretrain
    uses_buffer = variant in ("full", "no_ood", "random_query", "balanced_buffer")
    uses_ood = variant in ("full", "random_query", "no_cl")
    buffer: MemoryBuffer | None = None
    threshold_reference: np.ndarray | None = None
    if uses_buffer:
        buffer = init_buffer(tasks.pretrain_inputs, tasks.pretrain_labels,
                             config.buffer_capacity, net, rng_buffer,
                             ids=np.arange(n_pretrain))
    elif uses_ood:
        # no_cl keeps a frozen reference sample purely for thresholding.
        take = min(config.buffer_capacity, n_pretrain)
        sel = np.sort(rng_buffer.choice(n_pretrain, size=take, replace=False))
        threshold_reference = tasks.pretrain_inputs[sel]

    try:
        for t in range(1, tasks.n_timesteps + 1):
            batches = tasks.streams[t - 1]
            batch_ids, next_id = _assign_ids(batches, next_id)

            if variant == "finetune":
                buffer_comp = {}
                tau, n_acc, n_rej, pool_size, n_new = _run_finetune_task(
                    net, config, opt, report, t, batches, batch_ids,
                    rng_shuffle, rng_expand)
            elif variant == "balanced_buffer":
                tau, n_acc, n_rej, pool_size, n_new, buffer = _run_balanced_task(
                    net, config, opt, report, t, batches, batch_ids, buffer,
                    rng_shuffle, rng_expand, rng_query)
                buffer_comp = buffer.composition()
            else:
                tau, n_acc, n_rej, pool_size, n_new, buffer = _run_pool_task(
                    net, config, opt, report, t, batches, batch_ids, buffer,
                    threshold_reference, variant, tasks,
                    rng_bootstrap, rng_shuffle, rng_query, rng_expand)
                buffer_comp = buffer.composition() if buffer is not None else {}

            accuracy = _evaluate_discovered(net, tasks)
            report.task_accuracies[t] = accuracy
            report.tasks.append(TaskRecord(
                timestep=t, tau=tau, accepted_batches=n_acc, rejected_batches=n_rej,
                pool_size=pool_size, new_classes=n_new, head_width=net.n_classes,
                accuracy=accuracy, buffer_composition=buffer_comp))
    except NonFiniteLossError as exc:
        report.aborted = True
        report.abort_reason = str(exc)

    report.total_steps = opt.step_count
    return report


def _run_pool_task(net, config, opt, report, t, batches, batch_ids, buffer,
                   threshold_reference, variant, tasks,
                   rng_bootstrap, rng_shuffle, rng_query, rng_expand):
    """full / no_ood / random_query / no_cl share the pool machinery."""
    if variant in ("full", "random_query", "no_cl"):
        reference = buffer.inputs_matrix() if buffer is not None else threshold_reference
        tau = bootstrap_threshold(net, reference, config.bootstrap, rng_bootstrap)
        filtered = filter_stream(net, batches, tau)
        flags, n_rejected = filtered.accept_flags, filtered.rejected_count
    else:  # no_ood admits the entire stream
        tau = float("nan")
        flags, n_rejected = [True] * len(batches), 0

    rows = _stream_rows(batches, batch_ids, flags)
    pool = CandidatePool()
    pool.append_batch(rows.inputs, rows.labels, rows.ids)
    pool_size = len(pool)
    n_new = _discover_classes(net, pool.peek_unique_labels(), rng_expand)

    update_index = 0
    if variant in ("full", "no_ood"):
        while len(pool) > 0:
            queried = select_top(pool, query_scores(net, pool), config.acquisition_batch)
            buffer = _buffer_update_and_train(net, config, opt, report, t,
                                              update_index, buffer, queried,
                                              tasks, rng_shuffle)
            update_index += 1
    elif variant == "random_query":
        # Fixed-size uniform queries at the start of the task, capped at one
        # buffer's worth of data; the rest of the pool is never queried.
        target = min(len(pool), config.buffer_capacity)
        rounds = math.ceil(target / config.acquisition_batch) if target else 0
        for _ in range(rounds):
            k = min(config.acquisition_batch, len(pool))
            chosen = rng_query.choice(len(pool), size=k, replace=False)
            queried = pool.take(np.sort(chosen))
            buffer = _buffer_update_and_train(net, config, opt, report, t,
                                              update_index, buffer, queried,
                                              tasks, rng_shuffle)
            update_index += 1
    elif variant == "no_cl":
        while len(pool) > 0:
            queried = select_top(pool, query_scores(net, pool), config.acquisition_batch)
            trainable = _labeled(queried)
            loss = float("nan")
            if len(trainable):
                _, loss = _train_supervised(net, trainable.inputs, trainable.labels, opt,
                                            config.epochs_per_update,
                                            config.minibatch_size, rng_shuffle)
                report.insert_log.extend((i, t) for i in trainable.ids.tolist())
            acc = _evaluate_discovered(net, tasks) if config.eval_every_update else float("nan")
            report.updates.append(UpdateRecord(t, update_index, opt.step_count,
                                               len(queried), len(trainable), loss, acc))
            update_index += 1

    report.oracle_reveals += pool.oracle_reveals
    return tau, len(batches) - n_rejected, n_rejected, pool_size, n_new, buffer


def _buffer_update_and_train(net, config, opt, report, t, update_index, buffer,
                             queried, tasks, rng_shuffle) -> MemoryBuffer:
    """One acquisition round: rescore memory, repopulate, train on the buffer."""
    trainable = _labeled(queried)
    scores = memory_scores(buffer, trainable, net)
    buffer, inserted = update_buffer(buffer, trainable, scores)
    report.insert_log.extend((i, t) for i in inserted)
    losses = [train_one_epoch(net, buffer, opt, config.minibatch_size, rng_shuffle)[1]
              for _ in range(config.epochs_per_update)]
    acc = _evaluate_discovered(net, tasks) if config.eval_every_update else float("nan")
    report.updates.append(UpdateRecord(t, update_index, opt.step_count, len(queried),
                                       len(inserted), float(np.mean(losses)), acc))
    return buffer


def _stream_rows(batches, batch_ids, keep) -> SampleSet:
    """The samples of one task's kept stream batches, in emission order."""
    kept = [(batch, ids) for batch, ids, k in zip(batches, batch_ids, keep) if k]
    if not kept:
        return SampleSet.empty()
    return SampleSet(np.concatenate([batch.inputs for batch, _ in kept]),
                     np.concatenate([batch.labels for batch, _ in kept]),
                     np.concatenate([ids for _, ids in kept]))


def _labeled(rows: SampleSet) -> SampleSet:
    """Drop foreign (sentinel-labeled) rows; they never reach a gradient step."""
    return rows.subset(rows.labels != SENTINEL_LABEL)


def _run_finetune_task(net, config, opt, report, t, batches, batch_ids,
                       rng_shuffle, rng_expand):
    """Sequential full-data training on each task; no buffer, no filtering."""
    rows = _labeled(_stream_rows(batches, batch_ids, [True] * len(batches)))
    n_new = _discover_classes(net, rows.labels, rng_expand)
    steps, loss = _train_supervised(net, rows.inputs, rows.labels, opt,
                                    config.baseline_epochs,
                                    config.minibatch_size, rng_shuffle)
    report.insert_log.extend((i, t) for i in rows.ids.tolist())
    report.updates.append(UpdateRecord(t, 0, opt.step_count, len(rows),
                                       len(rows), loss, float("nan")))
    return float("nan"), len(batches), 0, len(rows), n_new


def _run_balanced_task(net, config, opt, report, t, batches, batch_ids, buffer,
                       rng_shuffle, rng_expand, rng_query):
    """Class-balanced random buffer (greedy fill), trained like the baselines."""
    rows = _labeled(_stream_rows(batches, batch_ids, [True] * len(batches)))
    n_new = _discover_classes(net, rows.labels, rng_expand)
    buffer, inserted = _balanced_fill(buffer, rows, rng_query)
    report.insert_log.extend((i, t) for i in inserted)
    loss = float("nan")
    for _ in range(config.baseline_epochs):
        _, loss = train_one_epoch(net, buffer, opt, config.minibatch_size, rng_shuffle)
    report.updates.append(UpdateRecord(t, 0, opt.step_count, len(rows),
                                       len(inserted), loss, float("nan")))
    return float("nan"), len(batches), 0, len(rows), n_new, buffer


def _balanced_fill(buffer: MemoryBuffer, rows: SampleSet, rng: np.random.Generator
                   ) -> tuple[MemoryBuffer, list[int]]:
    """Visit rows in random order; append while there is room, then let a row
    replace a random member of the largest class (ties to the higher class id)
    when its own class is smaller. Returns the new buffer and the inserted ids."""
    n = len(buffer)
    labels = np.empty(buffer.capacity, dtype=np.int64)
    labels[:n] = buffer.entries.labels
    source = np.full(buffer.capacity, -1)  # row of `rows` now in each slot
    counts = Counter(labels[:n].tolist())
    inserted: list[int] = []
    for i in rng.permutation(len(rows)):
        label = int(rows.labels[i])
        if n < buffer.capacity:
            slot = n
            n += 1
        else:
            largest = max(counts, key=lambda c: (counts[c], c))
            if counts[label] >= counts[largest]:
                continue
            victims = np.flatnonzero(labels == largest)
            slot = victims[int(rng.integers(0, len(victims)))]
            counts[largest] -= 1
        labels[slot] = label
        source[slot] = i
        counts[label] += 1
        inserted.append(int(rows.ids[i]))
    fresh = replace(rows, entropy=np.zeros(len(rows)))
    index = np.where(source[:n] >= 0, len(buffer) + source[:n], np.arange(n))
    return MemoryBuffer(buffer.capacity, buffer.entries.concat(fresh).subset(index)), inserted


# ---------------------------------------------------------------------------
# Report writers


def write_report_csv(report: RunReport, path: str) -> None:
    lines = ["timestep,update,global_step,queried,new_inserted,train_loss,accuracy"]
    for u in report.updates:
        lines.append(f"{u.timestep},{u.update_index},{u.global_step},{u.queried},"
                     f"{u.n_new_inserted},{u.train_loss:.6f},{u.accuracy:.6f}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_summary(report: RunReport, path: str) -> None:
    lines = [
        f"variant={report.variant}",
        f"seed={report.seed}",
        f"timesteps={len(report.tasks)}",
    ]
    for t, acc in sorted(report.task_accuracies.items()):
        lines.append(f"accuracy_t{t}={acc:.6f}")
    lines.extend([
        f"final_accuracy={report.final_accuracy:.6f}",
        f"average_accuracy={report.average_task_accuracy:.6f}",
        f"pretrain_steps={report.pretrain_steps}",
        f"total_steps={report.total_steps}",
        f"observed_data_points={report.odp}",
        f"oracle_reveals={report.oracle_reveals}",
        f"aborted={report.aborted}",
    ])
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_buffer_composition(report: RunReport, path: str) -> None:
    snapshots = [(task.timestep, task.buffer_composition) for task in report.tasks]
    export_composition_csv(path, snapshots)


def write_update_metrics(report: RunReport, path: str, decay: float = 0.1) -> None:
    if not report.updates:
        write_metrics_csv(path, [])
        return
    x = [float(i + 1) for i in range(len(report.updates))]
    queried = MetricSeries("queried", x, [float(u.queried) for u in report.updates])
    inserted = MetricSeries("new_inserted", x,
                            [float(u.n_new_inserted) for u in report.updates])
    inserted_ema = MetricSeries("new_inserted_ema", x, ema(inserted.y, decay), "ema")
    series = [queried, inserted, inserted_ema]
    if any(np.isfinite(u.accuracy) for u in report.updates):
        series.append(MetricSeries("accuracy", x,
                                   [float(u.accuracy) for u in report.updates]))
    write_metrics_csv(path, series)
