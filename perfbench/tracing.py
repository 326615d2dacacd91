"""Tracing from outside the program: spans around bowl's public functions.

``LAYERS`` is the one table that says which ``(module, attribute)`` each
per-layer metric wraps. The traced run patches every listed attribute with a
wrapper that records a span (name, start, end, parent) in memory and, for
some, a work count. Functions imported by name into another module are
wrapped where they are looked up, so one metric may list several targets. A
metric whose targets are not all present (a refactor renamed or removed one)
is reported as absent and the run goes on.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _count_rows(counts, name, args, result):
    counts[name] = counts.get(name, 0) + len(args[1])


def _count_result(counts, name, args, result):
    counts[name] = counts.get(name, 0) + len(result)


def _count_memory_rows(counts, name, args, result):
    counts[name] = counts.get(name, 0) + len(result.gamma)


def _count_filter(counts, name, args, result):
    counts["ood.stream_accepted"] = counts.get("ood.stream_accepted", 0) + len(result.accepted)
    counts["ood.stream_scored"] = counts.get("ood.stream_scored", 0) + len(result.scores)


def _count_inserted(counts, name, args, result):
    counts["memory.inserted"] = counts.get("memory.inserted", 0) + len(result[1])
    counts["memory.queried"] = counts.get("memory.queried", 0) + len(args[1])


# span name -> targets as (module, attribute[, counter]). Each span name gives
# the metric "<name>_s" (summed self time per operation).
LAYERS: dict[str, list[tuple]] = {
    "nn.dense.forward": [("bowl.nn", "Dense.forward")],
    "nn.dense.backward": [("bowl.nn", "Dense.backward")],
    "nn.batchnorm.forward": [("bowl.nn", "BatchNorm.forward")],
    "nn.batchnorm.backward": [("bowl.nn", "BatchNorm.backward")],
    "nn.relu.forward": [("bowl.nn", "ReLU.forward")],
    "nn.relu.backward": [("bowl.nn", "ReLU.backward")],
    "nn.network.forward": [("bowl.nn", "Network.forward")],
    "nn.loss": [("bowl.nn", "softmax_cross_entropy")],
    "nn.sgd.step": [("bowl.nn", "SgdOptimizer.step")],
    "nn.step": [("bowl.nn", "backward_and_step"), ("bowl.engine", "backward_and_step")],
    "nn.train_epoch": [("bowl.engine", "train_one_epoch")],
    "engine.train_supervised": [("bowl.engine", "_train_supervised")],
    "ood.bootstrap": [("bowl.engine", "bootstrap_threshold")],
    "ood.filter": [("bowl.engine", "filter_stream", _count_filter)],
    "ood.batch_score": [("bowl.ood", "batch_ood_score"), ("bowl.cli", "batch_ood_score")],
    "ood.sample_score": [("bowl.cli", "sample_eta1_scores")],
    "query.scores": [("bowl.engine", "query_scores", _count_rows)],
    "query.cosine": [("bowl.query", "mean_pairwise_cosine")],
    "query.select": [("bowl.engine", "select_top")],
    "query.pool": [("bowl.query", "CandidatePool.append_batch"),
                   ("bowl.query", "CandidatePool.take", _count_result),
                   ("bowl.query", "CandidatePool.inputs_matrix")],
    "memory.scores": [("bowl.engine", "memory_scores", _count_memory_rows)],
    "memory.cosine": [("bowl.memory", "mean_pairwise_cosine")],
    "memory.update": [("bowl.engine", "update_buffer", _count_inserted)],
    "memory.entropy": [("bowl.memory", "sample_entropies")],
    "memory.stack": [("bowl.memory", "MemoryBuffer.inputs_matrix")],
    "memory.composition": [("bowl.memory", "MemoryBuffer.composition")],
    "engine.run_variant": [("bowl.engine", "run_variant"), ("bowl.cli", "run_variant")],
    "engine.evaluate": [("bowl.engine", "evaluate")],
    "stream.generate": [("bowl.config", "synth_generate"), ("bowl.cli", "synth_generate")],
    "stream.split": [("bowl.config", "split_experiment")],
    "serialization.read": [("bowl.nn", "read_tensors"), ("bowl.stream", "read_tensors")],
    "serialization.write": [("bowl.nn", "write_tensors"), ("bowl.stream", "write_tensors"),
                            ("bowl.serialization", "atomic_write_bytes")],
    "metrics.auroc": [("bowl.cli", "auroc")],
}

# Spans whose time comes from set-up rather than from the timed operations.
SETUP_SPANS = ("stream.generate", "stream.split")


def _resolve(module: str, attribute: str):
    """(owner object, attribute name, current value) or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, leaf, None)
    return None if value is None else (owner, leaf, value)


class Tracer:
    """Records spans in four flat arrays; one open-span stack (single thread)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, name: str, fn, counter):
        # _open/_close inlined with bound methods: this runs once per layer call.
        nid = self._id(name)
        counts, stack, end = self.counts, self._stack, self.end
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(end)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, targets in LAYERS.items():
            resolved = [_resolve(module, attr) for module, attr, *_ in targets]
            if any(r is None for r in resolved):
                self.absent.append(name)
                continue
            for (owner, leaf, value), target in zip(resolved, targets):
                counter = target[2] if len(target) > 2 else None
                setattr(owner, leaf, self._wrapper(name, value, counter))
                self._patched.append((owner, leaf, value))

    def uninstall(self) -> None:
        for owner, leaf, value in reversed(self._patched):
            setattr(owner, leaf, value)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, from the recorded spans."""
        a = self.arrays()
        if a["start"].size == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        per_name = np.bincount(a["name"], weights=dur - child, minlength=len(self.names))
        return dict(zip(self.names, per_name.tolist()))

    def totals(self, name: str) -> tuple[int, float]:
        """(number of spans, summed duration) for one span name."""
        if name not in self.name_id:
            return 0, 0.0
        a = self.arrays()
        mask = a["name"] == self.name_id[name]
        return int(mask.sum()), float((a["end"][mask] - a["start"][mask]).sum())


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(setup: Tracer, ops: Tracer, n_ops: int) -> tuple[dict, list[str]]:
    """Per-layer metrics: seconds of self time and counts per timed operation,
    except the stream spans, which come from one traced set-up.

    Returns (metrics as {name: (value, unit)}, names of absent metrics).
    """
    absent = ops.absent
    op_self, setup_self = ops.self_times(), setup.self_times()
    out: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        if name in SETUP_SPANS:
            out[f"{name}_s"] = (setup_self.get(name, 0.0), "s")
        else:
            out[f"{name}_s"] = (op_self.get(name, 0.0) / n_ops, "s")

    def count(key):
        return ops.counts.get(key, 0) / n_ops

    steps, step_time = ops.totals("nn.step")
    # metric -> (span it depends on, value, unit)
    derived = {
        "nn.step_us": ("nn.step", 1e6 * _ratio(step_time, steps), "us"),
        "nn.grad_steps": ("nn.step", steps / n_ops, "count"),
        "nn.forward_calls": ("nn.network.forward",
                             ops.totals("nn.network.forward")[0] / n_ops, "count"),
        "ood.batches_scored": ("ood.batch_score",
                               ops.totals("ood.batch_score")[0] / n_ops, "count"),
        "ood.accept_ratio": ("ood.filter", _ratio(count("ood.stream_accepted"),
                                                  count("ood.stream_scored")), "ratio"),
        "query.rows_scored": ("query.scores", count("query.scores"), "count"),
        "query.reveals": ("query.pool", count("query.pool"), "count"),
        "memory.rows_scored": ("memory.scores", count("memory.scores"), "count"),
        "memory.insert_ratio": ("memory.update", _ratio(count("memory.inserted"),
                                                        count("memory.queried")), "ratio"),
        "engine.self_s": ("engine.run_variant", op_self.get("engine.run_variant", 0.0) / n_ops,
                          "s"),
    }
    out.update((metric, (value, unit)) for metric, (_, value, unit) in derived.items())
    # engine.run_variant_s is the loop's inclusive time, not its self time.
    out["engine.run_variant_s"] = (ops.totals("engine.run_variant")[1] / n_ops, "s")
    gone = {f"{span}_s" for span in absent} | {
        metric for metric, (span, _, _) in derived.items() if span in absent}
    return {k: v for k, v in out.items() if k not in gone}, sorted(gone)


class RoundClock:
    """One timestamp per acquisition round: wraps ``CandidatePool.take``, the
    call that reveals a round's labels. Spacing between successive reveals of
    one pool (one task) is the round latency."""

    def __init__(self):
        self.stamps: list[tuple[int, float]] = []
        self._original = None
        self._last_pool = None  # kept alive so the next pool gets a new id

    def install(self) -> None:
        from bowl.query import CandidatePool
        self._original = CandidatePool.take
        original, clock = self._original, self

        def take(pool, *args, **kwargs):
            result = original(pool, *args, **kwargs)
            clock.stamps.append((id(pool), time.perf_counter()))
            clock._last_pool = pool
            return result

        CandidatePool.take = take

    def uninstall(self) -> None:
        from bowl.query import CandidatePool
        CandidatePool.take = self._original
        self._last_pool = None

    def spacings_ms(self, first: int = 0, end: int | None = None) -> list[float]:
        """Round latencies among ``stamps[first:end]``."""
        stamps = self.stamps[first:end]
        return [1e3 * (t1 - t0)
                for (p0, t0), (p1, t1) in zip(stamps, stamps[1:]) if p0 == p1]
