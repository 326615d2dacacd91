"""Open-world training loop across class-incremental timesteps.

Timestep 0 pretrains on the first task's data under the traditional setup
and draws a uniform sample of it as the initial memory buffer. Every later
timestep runs one path through three stages, and each variant in the
``VARIANTS`` table names the implementation of each stage:

- OoD filter: bootstrap a threshold tau from the buffer and admit only the
  stream batches whose eta1 lies below it, or admit every batch. Admitted
  samples form the candidate pool, and the head grows by the new classes.
- round policy: which pool samples each round queries (labels revealed):
  the top-gamma_q acquisition batch until the pool is empty, uniform random
  batches capped at one buffer's worth, or the whole pool in one round.
- memory policy: what a round trains on: the buffer repopulated by gamma_m,
  a class-balanced buffer filled greedily at random, or none, which trains
  on the round's labeled rows.

    full            = (filter,    top gamma_q, gamma_m)
    no_ood          = (admit all, top gamma_q, gamma_m)
    random_query    = (filter,    random,      gamma_m)
    no_cl           = (filter,    top gamma_q, none)
    finetune        = (admit all, whole pool,  none)
    balanced_buffer = (admit all, whole pool,  balanced)

A whole-pool round trains for ``baseline_epochs``, every other round for
``epochs_per_update``. Pretraining and every round train through the one
epoch loop ``_train_supervised``.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .memory import MemoryBuffer, init_buffer, memory_scores, update_buffer
from .metrics import average_accuracy, count_odp
from .nn import (Network, NonFiniteLossError, SgdOptimizer, eval_rows, expand_head,
                 train_one_epoch)
from .nn import backward_and_step  # noqa: F401  (engine attribute that tracing wraps)
from .ood import ThresholdConfig, bootstrap_threshold, filter_stream
from .query import CandidatePool, query_scores, select_top
from .samples import SampleSet
from .serialization import atomic_write_text
from .stream import SENTINEL_LABEL, SplitTasks


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
    # Epochs of a whole-pool round (the finetune and balanced_buffer
    # baselines); defaults to the pretraining budget.
    baseline_epochs_per_task: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name, low in (("acquisition_batch", 1), ("epochs_per_update", 1),
                          ("pretrain_epochs", 0), ("baseline_epochs_per_task", 1)):
            value = getattr(self, name)
            if value is not None and value < low:  # None: the baseline budget is unset
                raise ValueError(f"{name} must be >= {low}")
        if self.minibatch_size < 2:
            raise ValueError("minibatch_size must be >= 2: train-mode batch norm "
                             "needs two rows")
        if self.buffer_capacity < self.bootstrap.bootstrap_size:
            raise ValueError(f"buffer_capacity {self.buffer_capacity} is below the bootstrap "
                             f"size {self.bootstrap.bootstrap_size}: tau resamples the buffer")
        if self.buffer_capacity < self.acquisition_batch:
            warnings.warn("buffer capacity below acquisition batch; churn will be high",
                          stacklevel=3)

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


def evaluate(net: Network, inputs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct argmax predictions; sentinel labels are excluded."""
    inputs = np.asarray(inputs)
    labels = np.asarray(labels)
    mask = labels != SENTINEL_LABEL
    if not mask.all():  # a copy of the inputs only when some rows are foreign
        inputs, labels = inputs[mask], labels[mask]
    if labels.size == 0:
        raise ValueError("empty test set")
    return count_correct(net, inputs, labels) / labels.size


def count_correct(net: Network, inputs: np.ndarray, labels: np.ndarray) -> int:
    """Rows whose argmax prediction is their label."""
    logits = eval_rows(net, inputs)[0]
    preds = np.asarray(net.class_ids, dtype=np.int64)[np.argmax(logits, axis=1)]
    return int((preds == labels).sum())


def _evaluate_discovered(net: Network, tasks: SplitTasks) -> float:
    """Accuracy on the test samples of every class discovered so far."""
    known = np.isin(tasks.test_labels, np.asarray(net.class_ids, dtype=np.int64))
    return evaluate(net, tasks.test_inputs[known], tasks.test_labels[known])


def _train_supervised(net: Network, inputs: np.ndarray, labels: np.ndarray,
                      opt: SgdOptimizer, epochs: int, minibatch_size: int,
                      rng: np.random.Generator) -> float:
    """The one epoch loop: ``epochs`` shuffled passes of ``train_one_epoch``.

    Returns the mean over epochs of each epoch's mean minibatch loss, or nan
    when there are no rows or no epochs (nothing is trained then).
    """
    if len(labels) == 0 or epochs == 0:
        return float("nan")
    losses = [train_one_epoch(net, inputs, labels, opt, minibatch_size, rng)[1]
              for _ in range(epochs)]
    return float(np.mean(losses))


def _rng_for(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, purpose]))


def _discover_classes(net: Network, labels, rng: np.random.Generator) -> int:
    """Expand the head for labels not seen before; returns how many were new."""
    novel = sorted(set(labels) - set(net.class_ids))
    if novel:
        expand_head(net, novel, rng)
    return len(novel)


def _labeled(rows: SampleSet) -> SampleSet:
    """Drop foreign (sentinel-labeled) rows; they never reach a gradient step."""
    return rows.subset(rows.labels != SENTINEL_LABEL)


# ---------------------------------------------------------------------------
# Round policies: (net, pool, config, rng) -> iterator of (queried rows, epochs).
# Each round is drawn after the previous one has trained.


def _top_gamma_q_rounds(net, pool, config, rng):
    """Top-gamma_q acquisition batches until the pool is empty."""
    while len(pool) > 0:
        queried = select_top(pool, query_scores(net, pool), config.acquisition_batch)
        yield queried, config.epochs_per_update


def _random_rounds(net, pool, config, rng):
    """Uniform random acquisition batches at the start of the task, capped at
    one buffer's worth of data; the rest of the pool is never queried."""
    target = min(len(pool), config.buffer_capacity)
    for _ in range(math.ceil(target / config.acquisition_batch)):
        k = min(config.acquisition_batch, len(pool))
        chosen = rng.choice(len(pool), size=k, replace=False)
        yield pool.take(np.sort(chosen)), config.epochs_per_update


def _whole_pool_round(net, pool, config, rng):
    """The whole pool in one round, trained for the baseline budget."""
    if len(pool) > 0:
        yield pool.take(np.arange(len(pool))), config.baseline_epochs


# ---------------------------------------------------------------------------
# Memory policies: (buffer, labeled rows, net, rng) -> (buffer, inserted ids).


def _gamma_m_memory(buffer: MemoryBuffer, rows: SampleSet, net: Network,
                    rng: np.random.Generator) -> tuple[MemoryBuffer, list[int]]:
    """Rescore buffer + rows by gamma_m and keep the top capacity."""
    return update_buffer(buffer, rows, memory_scores(buffer, rows, net))


def _balanced_fill(buffer: MemoryBuffer, rows: SampleSet, net: Network,
                   rng: np.random.Generator) -> tuple[MemoryBuffer, list[int]]:
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


@dataclass(frozen=True)
class Variant:
    """One loop variant as its three stage choices."""

    ood_filter: bool  # bootstrap tau and filter the stream, or admit every batch
    rounds: Callable  # a round policy
    memory: Callable | None  # a memory policy; None trains on the round's labeled rows


VARIANTS: dict[str, Variant] = {
    "full": Variant(True, _top_gamma_q_rounds, _gamma_m_memory),
    "no_ood": Variant(False, _top_gamma_q_rounds, _gamma_m_memory),
    "random_query": Variant(True, _random_rounds, _gamma_m_memory),
    "no_cl": Variant(True, _top_gamma_q_rounds, None),
    "finetune": Variant(False, _whole_pool_round, None),
    "balanced_buffer": Variant(False, _whole_pool_round, _balanced_fill),
}


def run_variant(net: Network, config: LoopConfig, tasks: SplitTasks,
                variant: str = "full") -> RunReport:
    try:
        stages = VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}; "
                         f"expected one of {tuple(VARIANTS)}") from None
    rng_buffer = _rng_for(config.seed, 3)
    rng_bootstrap = _rng_for(config.seed, 4)
    rng_shuffle = _rng_for(config.seed, 5)
    rng_query = _rng_for(config.seed, 6)
    rng_expand = _rng_for(config.seed, 7)

    opt = SgdOptimizer(config.learning_rate, config.momentum, config.weight_decay)
    report = RunReport(variant=variant, seed=config.seed)

    # A divergence anywhere, pretraining included, ends the run with the
    # report as far as it got.
    try:
        # Timestep 0: traditional supervised pretraining on the first task.
        _train_supervised(net, tasks.pretrain_inputs, tasks.pretrain_labels, opt,
                          config.pretrain_epochs, config.minibatch_size, rng_shuffle)
        report.pretrain_steps = opt.step_count
        report.task_accuracies[0] = _evaluate_discovered(net, tasks)

        # A uniform sample of the pretraining data: the replay buffer's start, and
        # the frozen tau reference of a variant without a memory policy.
        n_pretrain = int(tasks.pretrain_inputs.shape[0])
        buffer = init_buffer(tasks.pretrain_inputs, tasks.pretrain_labels,
                             config.buffer_capacity, net, rng_buffer,
                             ids=np.arange(n_pretrain))
        next_id = n_pretrain

        for t, stream in enumerate(tasks.streams, start=1):
            if stages.ood_filter:
                tau = bootstrap_threshold(net, buffer.inputs_matrix(), config.bootstrap,
                                          rng_bootstrap)
                accepted = filter_stream(net, stream, tau).accepted
            else:
                tau, accepted = float("nan"), np.arange(len(stream))
            admitted = np.repeat(np.isin(np.arange(len(stream)), accepted), stream.sizes)
            ids = next_id + np.arange(len(admitted))  # stable, in emission order
            next_id += len(ids)
            pool = CandidatePool()
            pool.append_batch(stream.inputs[admitted], stream.labels[admitted], ids[admitted])
            n_new = _discover_classes(net, pool.peek_unique_labels(), rng_expand)

            rounds = stages.rounds(net, pool, config, rng_query)
            for update_index, (queried, epochs) in enumerate(rounds):
                labeled = _labeled(queried)
                if stages.memory is None:
                    train, inserted = labeled, labeled.ids.tolist()
                else:
                    buffer, inserted = stages.memory(buffer, labeled, net, rng_query)
                    train = buffer.entries
                report.insert_log.extend((i, t) for i in inserted)
                loss = _train_supervised(net, train.inputs, train.labels, opt, epochs,
                                         config.minibatch_size, rng_shuffle)
                acc = (_evaluate_discovered(net, tasks) if config.eval_every_update
                       else float("nan"))
                report.updates.append(UpdateRecord(t, update_index, opt.step_count,
                                                   len(queried), len(inserted), loss, acc))
            report.oracle_reveals += pool.oracle_reveals

            report.task_accuracies[t] = _evaluate_discovered(net, tasks)
            report.tasks.append(TaskRecord(
                timestep=t, tau=tau, accepted_batches=len(accepted),
                rejected_batches=len(stream) - len(accepted), pool_size=int(admitted.sum()),
                new_classes=n_new, head_width=net.n_classes,
                buffer_composition={} if stages.memory is None else buffer.composition()))
    except NonFiniteLossError as exc:
        report.aborted = True
        report.abort_reason = str(exc)
        if not report.task_accuracies:  # diverged during pretraining
            report.pretrain_steps = opt.step_count

    report.total_steps = opt.step_count
    return report


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
    """(timestep, class_id, count) rows of the buffer at the end of each task."""
    lines = ["timestep,class_id,count"]
    for task in report.tasks:
        for class_id, count in sorted(task.buffer_composition.items()):
            lines.append(f"{task.timestep},{class_id},{count}")
    atomic_write_text(path, "\n".join(lines) + "\n")

