"""The benchmark's hooks into the program still hold.

``perfbench/tracing.py`` wraps bowl functions by ``(module, attribute)`` and
reads a few result fields; a renamed function or field does not fail a
benchmark run, it only makes per-layer metrics absent. These tests catch that
in milliseconds, without running the benchmark.
"""

import json
import os
import sys

import numpy as np
import pytest

from bowl import cli, memory, ood
from bowl.nn import build_mlp
from bowl.stream import Dataset, StreamBatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402


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


def _batches(n_batches=5, size=8):
    rng = np.random.default_rng(1)
    return [StreamBatch(rng.normal(size=(size, 6)).astype(np.float32),
                        np.zeros(size, dtype=np.int64)) for _ in range(n_batches)]


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
    ood.filter_stream(net, _batches(), 0.0)
    dataset = Dataset(np.random.default_rng(2).normal(size=(20, 6)), np.zeros(20))
    cli._dataset_scores(net, dataset, 8, "batch")
    cli._dataset_scores(net, dataset, 8, "sample")
    memory.init_buffer(dataset.inputs, dataset.labels, 10, net, np.random.default_rng(3))
    spans = {tracer.names[i] for i in tracer.arrays()["name"]}
    assert {"ood.batch_score", "ood.sample_score", "memory.entropy",
            "nn.network.forward"} <= spans


def test_filter_result_feeds_the_filter_counter():
    tau = float(np.median(ood.filter_stream(_net(), _batches(), 0.0).scores))
    result = ood.filter_stream(_net(), _batches(), tau)
    counts = {}
    tracing._count_filter(counts, "ood.filter", (), result)
    assert counts == {"ood.stream_accepted": len(result.accepted), "ood.stream_scored": 5}
    assert 0 < counts["ood.stream_accepted"] < 5
