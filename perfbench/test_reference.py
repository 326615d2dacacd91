"""Hand-worked cases for the benchmark's reference module.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""

import math
import os
import struct
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402


def tiny_state():
    """One hidden layer of width 2 with round numbers, classes 5 and 7."""
    return {
        "layer0.weight": np.eye(2), "layer0.bias": np.zeros(2),
        "layer1.gamma": np.array([2.0, 1.0]), "layer1.beta": np.array([0.0, -3.0]),
        "layer1.running_mean": np.array([1.0, 0.0]),
        "layer1.running_var": np.array([4.0, 1.0]),
        "head.weight": np.eye(2), "head.bias": np.zeros(2),
        "head.class_ids": np.array([5, 7], dtype=np.uint32),
    }


def test_forward_by_hand():
    # h = [3, 2]; z = ([3, 2] - [1, 0]) / [2, 1] = [1, 2];
    # a = [2, 1] * z + [0, -3] = [2, -1]; relu -> [2, 0]; logits = [2, 0].
    logits, layers = reference.forward(tiny_state(), np.array([[3.0, 2.0]]), eps=0.0)
    z, a = layers[0]
    assert z.tolist() == [[1.0, 2.0]]
    assert a.tolist() == [[2.0, -1.0]]
    assert logits.tolist() == [[2.0, 0.0]]


def test_eta_scores_by_hand():
    _, layers = reference.forward(tiny_state(), np.array([[3.0, 2.0]]), eps=0.0)
    assert reference.eta0(layers).tolist() == [5.0]          # 1^2 + 2^2
    assert reference.eta1([5.0], 2)[0] == pytest.approx(5.0 - 2.0 * math.log(5.0))


def test_batch_eta_uses_mean_eta0():
    state = tiny_state()
    x = np.array([[3.0, 2.0], [1.0, 0.0], [3.0, 2.0]])  # eta0 ~ 5, 0, 5
    e, got = reference.eta_scores(state, x, 2)
    assert e == pytest.approx([5.0 / 2.0, 5.0], rel=1e-4)
    assert got == pytest.approx([v - 2.0 * math.log(v) for v in e])
    assert reference.eta_scores(state, x)[0] == pytest.approx([5.0, 0.0, 5.0], abs=1e-4)


def test_spread_entropy_by_hand():
    # a = [2, -1] -> sigma^2 = (4 + 1) / 2 = 2.5 (eps shifts it by ~1e-5).
    h = reference.spread_entropy(tiny_state(), np.array([[3.0, 2.0]]))
    assert h[0] == pytest.approx(0.5 * (1.0 + math.log(2.0 * math.pi * 2.5)), rel=1e-4)


def test_accuracy_and_near_ties():
    labels = np.array([5, 7])
    # Row 1 predicts class 5 by a margin of 2; row 2 has equal logits.
    correct, ties = reference.accuracy_counts(
        tiny_state(), np.array([[3.0, 2.0], [1.0, 3.0]]), labels)
    assert (correct, ties) == (1, 1)


def test_mean_cosine_by_hand():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    r = 1.0 / math.sqrt(2.0)
    assert reference.mean_cosine(x, block=2) == pytest.approx([r / 2, r / 2, r])
    assert reference.mean_cosine(x[:1]).tolist() == [0.0]


def test_pairwise_auroc_by_hand():
    # out 2 beats in 1 and ties in 2 (1.5); out 4 beats all three: 4.5 / 6.
    assert reference.pairwise_auroc([1, 2, 3], [2, 4]) == 0.75
    assert reference.pairwise_auroc([1, 1], [1]) == 0.5
    assert reference.pairwise_auroc([2], [1]) == 0.0


def test_read_bnt(tmp_path):
    def record(name, code, dims, payload):
        head = struct.pack("<H", len(name)) + name.encode() + struct.pack("<BB", code, len(dims))
        return head + struct.pack(f"<{len(dims)}I", *dims) + payload
    blob = (b"BNT1" + record("w", 0, (1, 2), struct.pack("<2f", 1.5, -2.0))
            + record("ids", 1, (2,), struct.pack("<2I", 3, 4)))
    path = tmp_path / "t.bnt"
    path.write_bytes(blob)
    got = reference.read_bnt(str(path))
    assert got["w"].tolist() == [[1.5, -2.0]]
    assert got["ids"].tolist() == [3, 4]
    path.write_bytes(b"NOPE")
    with pytest.raises(ValueError):
        reference.read_bnt(str(path))
