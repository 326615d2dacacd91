"""The benchmark's hooks into the program still hold.

``perfbench/tracing.py`` wraps bowl functions by ``(module, attribute)`` and
reads a few result fields; a renamed function or field does not fail a
benchmark run, it only makes per-layer metrics absent. These tests catch that
in milliseconds, without running the benchmark.
"""

import json
import os

import numpy as np
import pytest

from bowl import cli, engine, memory, ood
from bowl.engine import LoopConfig
from bowl.nn import build_mlp
from bowl.ood import ThresholdConfig
from bowl.stream import Dataset, Stream, split_experiment, synth_generate

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _net():
    return build_mlp(6, [8, 4], 3, np.random.default_rng(0))


def _stream(n_batches=5, size=8):
    rng = np.random.default_rng(1)
    return Stream.cut(rng.normal(size=(n_batches * size, 6)), np.zeros(n_batches * size),
                      size)


def test_every_traced_target_resolves(tracer):
    assert tracer.absent == []


def test_every_per_layer_metric_is_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    reported, absent = tracing.layer_metrics(tracing.Tracer(), tracing.Tracer(), 1)
    assert absent == []
    # The tracing-overhead pair is measured by the runner, not by layer_metrics.
    assert names - set(reported) == {"trace.untraced_op_s", "trace.traced_op_s"}


def test_scorers_run_through_the_wrapped_functions(tracer):
    """The wrapped attributes are the ones the code calls: filtering, the
    ood-hist scorers at both granularities and the buffer's entropies each
    leave their span."""
    net = _net()
    ood.filter_stream(net, _stream(), 0.0)
    dataset = Dataset(np.random.default_rng(2).normal(size=(20, 6)), np.zeros(20))
    cli._dataset_scores(net, [(dataset.inputs, dataset.labels)], 8, "batch")
    cli._dataset_scores(net, [(dataset.inputs, dataset.labels)], 8, "sample")
    memory.init_buffer(dataset.inputs, dataset.labels, 10, net, np.random.default_rng(3))
    spans = {tracer.names[i] for i in tracer.arrays()["name"]}
    assert {"ood.batch_score", "ood.sample_score", "memory.entropy",
            "nn.network.forward"} <= spans


def test_filter_result_feeds_the_filter_counter():
    """The counter reads ``FilterResult.scores`` (one per batch) and
    ``.accepted`` (batch indices)."""
    tau = float(np.median(ood.filter_stream(_net(), _stream(), 0.0).scores))
    result = ood.filter_stream(_net(), _stream(), tau)
    assert result.scores.shape == (5,) and result.accepted.dtype == np.int64
    counts = {}
    tracing._count_filter(counts, "ood.filter", (), result)
    assert counts == {"ood.stream_accepted": len(result.accepted), "ood.stream_scored": 5}
    assert 0 < counts["ood.stream_accepted"] < 5


def test_tasks_give_the_counts_the_workload_checks_read():
    """``perfbench/workloads.py`` compares a task's accepted plus rejected
    batches with ``len(tasks.streams[t])`` and the rows the loop saw with
    ``total_stream_size()``."""
    train = synth_generate(4, 6, 0.4, 0.1, 203, seed=0)
    tasks = split_experiment(train, train, [[0, 1], [2], [3]], 8, seed=1)
    per_task = [int(np.isin(train.labels, c).sum()) for c in (2, 3)]
    assert [len(stream) for stream in tasks.streams] == [-(-n // 8) for n in per_task]
    assert tasks.total_stream_size() == sum(per_task)


def test_round_hooks_see_every_round():
    """The round hooks hold on a tiny ``full`` run: ``RoundCapture`` recomputes
    each task's first round with the reference, and ``RoundClock``, whose
    spacings give ``round_p50_ms`` and ``round_p90_ms``, stamps every round."""
    train = synth_generate(6, 8, 0.3, 0.1, 480, seed=0, clip_unit=True)
    test = synth_generate(6, 8, 0.3, 0.1, 120, seed=1, clip_unit=True)
    tasks = split_experiment(train, test, [[0, 1], [2, 3], [4, 5]], 8, seed=2)
    net = build_mlp(8, [12, 6], 2, np.random.default_rng(3), class_ids=[0, 1])
    config = LoopConfig(acquisition_batch=48, buffer_capacity=100, pretrain_epochs=5,
                        minibatch_size=32, bootstrap=ThresholdConfig(30, 4, 0.99),
                        eval_every_update=False)
    capture, clock = workloads.RoundCapture(), tracing.RoundClock()
    clock.install()
    capture.install()
    try:
        report = engine.run_variant(net, config, tasks, "full")
    finally:
        capture.uninstall()
        clock.uninstall()
    assert not report.aborted
    with_pool = sum(1 for rec in report.tasks if rec.pool_size)
    assert with_pool == 2
    capture.check(with_pool)
    assert len(clock.stamps) == len(report.updates) > with_pool
    assert len(clock.spacings_ms()) == len(report.updates) - with_pool
