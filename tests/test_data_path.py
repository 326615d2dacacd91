"""The data path holds one full-size copy: generation and corruption work in
blocks of ``BLOCK_VALUES`` values, and BNT1 files are written from and read
into the arrays themselves. Outputs equal those of the one-shot formulas and
of the joined encoding, byte for byte."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from bowl.nn import build_mlp, save_checkpoint
from bowl.serialization import (MAGIC, FormatError, atomic_write_bytes, read_tensors,
                                write_tensors)
from bowl.stream import (BLOCK_VALUES, Dataset, corrupt, load_dataset, save_dataset,
                         simplex_means, synth_generate)

BLOCK_BYTES = BLOCK_VALUES * 8  # one float64 block


def one_shot_synth(n_classes, dims, separation, within_std, n_samples, seed, clip_unit):
    rng = np.random.default_rng(seed)
    means = simplex_means(n_classes, dims, separation)
    labels = np.arange(n_samples, dtype=np.int64) % n_classes
    inputs = means[labels] + rng.normal(0.0, within_std, size=(n_samples, dims))
    if clip_unit:
        inputs = np.clip(inputs, 0.0, 1.0)
    return inputs.astype(np.float32)


def one_shot_corrupt(x, kind, severity, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        out = x + rng.normal(0.0, severity, size=x.shape)
    elif kind == "shot":
        lam = 60.0 / severity
        out = rng.poisson(x.astype(np.float64) * lam) / lam
    else:
        u = rng.random(x.shape)
        out = x.astype(np.float64).copy()
        out[u < severity / 2.0] = 0.0
        out[(u >= severity / 2.0) & (u < severity)] = 1.0
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def joined_encoding(tensors):
    """The BNT1 bytes built as one joined blob (the format's definition)."""
    blob = [MAGIC]
    for name, array in tensors.items():
        code = {np.dtype(np.float32): 0, np.dtype(np.uint32): 1}[array.dtype]
        blob += [struct.pack("<H", len(name.encode())), name.encode(),
                 struct.pack("<BB", code, array.ndim),
                 struct.pack(f"<{array.ndim}I", *array.shape),
                 np.ascontiguousarray(array).tobytes()]
    return b"".join(blob)


def _row_counts(dims):
    block = BLOCK_VALUES // dims
    return [1, block - 1, block, block + 1]


# 64 divides a block; 100 does not, so corruption blocks end mid-row.
CASES = [(dims, n) for dims in (64, 100) for n in _row_counts(dims)]


class TestBitIdentity:
    @pytest.mark.parametrize("dims, n", CASES)
    @pytest.mark.parametrize("clip_unit", [False, True])
    def test_synth_generate_equals_one_shot(self, dims, n, clip_unit):
        got = synth_generate(5, dims, 0.3, 0.4, n, seed=n + dims, clip_unit=clip_unit)
        expected = one_shot_synth(5, dims, 0.3, 0.4, n, n + dims, clip_unit)
        assert got.inputs.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(got.labels, np.arange(n) % 5)

    @pytest.mark.parametrize("dims, n", CASES)
    @pytest.mark.parametrize("kind", ["gaussian", "shot", "impulse"])
    def test_corrupt_equals_one_shot(self, dims, n, kind):
        x = synth_generate(5, dims, 0.3, 0.4, n, seed=1, clip_unit=True).inputs
        got = corrupt(x, kind, 0.4, seed=n)
        assert got.dtype == np.float32 and got.shape == x.shape
        assert got.tobytes() == one_shot_corrupt(x, kind, 0.4, n).tobytes()

    def test_dataset_file_equals_joined_encoding(self, tmp_path):
        ds = synth_generate(3, 7, 0.4, 0.1, 1000, seed=2, clip_unit=True)
        path = str(tmp_path / "d.bnt")
        save_dataset(ds, path)
        expected = joined_encoding({"inputs": ds.inputs, "labels": ds.labels.astype(np.uint32)})
        assert open(path, "rb").read() == expected

    def test_checkpoint_file_equals_joined_encoding(self, tmp_path):
        net = build_mlp(6, [5, 4], 3, np.random.default_rng(0), class_ids=[2, 0, 7])
        path = str(tmp_path / "c.bnt")
        save_checkpoint(net, path)
        state = {k: v if v.dtype == np.uint32 else v.astype(np.float32)
                 for k, v in net.state_dict().items()}
        assert open(path, "rb").read() == joined_encoding(state)

    def test_empty_and_strided_tensors(self, tmp_path):
        tensors = {"empty": np.zeros((0, 3), np.float32),
                   "strided": np.arange(24, dtype=np.uint32).reshape(4, 6)[:, ::2]}
        path = str(tmp_path / "t.bnt")
        write_tensors(path, tensors)
        assert open(path, "rb").read() == joined_encoding(tensors)
        loaded = read_tensors(path)
        for name, array in tensors.items():
            np.testing.assert_array_equal(loaded[name], array)

    def test_read_arrays_are_writable(self, tmp_path):
        path = str(tmp_path / "d.bnt")
        save_dataset(synth_generate(2, 3, 0.4, 0.1, 10, seed=0), path)
        for array in read_tensors(path).values():
            assert array.flags.writeable and array.flags.c_contiguous
            array[...] = 0


def _one_tensor_file(tmp_path, cut=None, code=0):
    """A file holding tensor 'ab' (2 x 3 float32): magic 0-4, name length
    4-6, name 6-8, dtype/rank 8-10, dims 10-18, payload 18-42."""
    blob = bytearray(joined_encoding({"ab": np.ones((2, 3), np.float32)}))
    blob[8] = code
    path = tmp_path / "t.bnt"
    path.write_bytes(bytes(blob[:cut]))
    return str(path)


class TestFormatErrors:
    @pytest.mark.parametrize("cut, message", [
        (3, "bad magic in "),
        (5, "truncated name length at offset 4 in "),
        (7, "truncated name at offset 6 in "),
        (9, "truncated dtype/rank at offset 8 in "),
        (14, "truncated dims at offset 10 in "),
        (41, "truncated payload of 'ab' at offset 18 in "),
    ])
    def test_truncated(self, tmp_path, cut, message):
        path = _one_tensor_file(tmp_path, cut)
        with pytest.raises(FormatError) as info:
            read_tensors(path)
        assert str(info.value) == f"{message}{path!r}"

    def test_unknown_dtype(self, tmp_path):
        with pytest.raises(FormatError, match=r"^unknown dtype code 7 for tensor 'ab'$"):
            read_tensors(_one_tensor_file(tmp_path, code=7))

    def test_magic_alone_holds_no_tensors(self, tmp_path):
        assert read_tensors(_one_tensor_file(tmp_path, cut=4)) == {}


class TestAtomicWrite:
    @pytest.mark.parametrize("existing", [b"old bytes", None])
    def test_failed_write_leaves_the_directory_as_it_was(self, tmp_path, existing):
        """A part that raises part-way propagates; the target keeps its old
        bytes, or is not created, and no temp file is left."""
        target = tmp_path / "out.bin"
        if existing is not None:
            target.write_bytes(existing)
        before = sorted(os.listdir(tmp_path))

        def parts():
            yield b"first part"
            raise RuntimeError("part failed")

        with pytest.raises(RuntimeError, match="^part failed$"):
            atomic_write_bytes(str(target), parts())
        assert sorted(os.listdir(tmp_path)) == before
        if existing is not None:
            assert target.read_bytes() == existing


def _peak_bytes(fn):
    """Peak traced bytes above the level at the call, and the call's result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    """Peaks stay within the result plus a few blocks; a one-shot draw of the
    noise (8 bytes per value, 10 MB here) does not."""

    N, DIMS = 20_000, 64

    @pytest.fixture(scope="class")
    def dataset(self):
        return synth_generate(10, self.DIMS, 0.24, 0.1, self.N, seed=1, clip_unit=True)

    def test_synth_generate(self):
        peak, ds = _peak_bytes(lambda: synth_generate(10, self.DIMS, 0.24, 0.1, self.N,
                                                      seed=1, clip_unit=True))
        assert peak <= ds.inputs.nbytes + ds.labels.nbytes + 4 * BLOCK_BYTES

    @pytest.mark.parametrize("kind", ["gaussian", "shot", "impulse"])
    def test_corrupt(self, dataset, kind):
        peak, out = _peak_bytes(lambda: corrupt(dataset.inputs, kind, 0.5, seed=2))
        assert peak <= out.nbytes + 4 * BLOCK_BYTES

    def test_write_tensors(self, dataset, tmp_path):
        tensors = {"inputs": dataset.inputs, "labels": dataset.labels.astype(np.uint32)}
        peak, _ = _peak_bytes(lambda: write_tensors(str(tmp_path / "w.bnt"), tensors))
        assert peak <= BLOCK_BYTES

    def test_save_and_load_dataset(self, dataset, tmp_path):
        path = str(tmp_path / "d.bnt")
        peak, _ = _peak_bytes(lambda: save_dataset(dataset, path))
        assert peak <= BLOCK_BYTES
        peak, loaded = _peak_bytes(lambda: load_dataset(path))
        assert isinstance(loaded, Dataset)
        assert peak <= loaded.inputs.nbytes + loaded.labels.nbytes + 2 * BLOCK_BYTES
