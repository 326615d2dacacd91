import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowl.serialization import FormatError, read_tensors, write_tensors
from bowl.stream import (SENTINEL_LABEL, Dataset, MixSpec, Stream, corrupt, load_dataset,
                         mix_streams, save_dataset, simplex_means, split_experiment,
                         synth_generate)


class TestSynthGenerate:
    def test_two_well_separated_classes_are_linearly_separable(self):
        # Bayes rule for equal isotropic Gaussians: project onto the mean
        # difference, threshold at the midpoint. Error ~ Phi(-3) ~ 0.13%.
        std = 0.05
        train = synth_generate(2, 2, 6 * std, std, 4000, seed=0)
        m0 = train.inputs[train.labels == 0].mean(axis=0)
        m1 = train.inputs[train.labels == 1].mean(axis=0)
        test = synth_generate(2, 2, 6 * std, std, 4000, seed=1)
        w = m1 - m0
        threshold = w @ (m0 + m1) / 2.0
        preds = (test.inputs @ w > threshold).astype(np.int64)
        assert (preds == test.labels).mean() >= 0.99

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            synth_generate(2, 4, 0.5, 0.1, 0, seed=0)

    def test_label_histogram_uniform(self):
        ds = synth_generate(3, 4, 0.5, 0.1, 100, seed=2)
        counts = np.bincount(ds.labels)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        a = synth_generate(4, 8, 0.3, 0.05, 500, seed=7)
        b = synth_generate(4, 8, 0.3, 0.05, 500, seed=7)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_clip_unit_bounds(self):
        ds = synth_generate(2, 4, 0.3, 0.5, 1000, seed=3, clip_unit=True)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    def test_simplex_means_pairwise_distance(self):
        means = simplex_means(5, 8, 0.4)
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.linalg.norm(means[i] - means[j]) == pytest.approx(0.4)

    def test_simplex_needs_enough_dims(self):
        with pytest.raises(ValueError, match="dims"):
            simplex_means(5, 3, 0.4)


class TestSplitTasks:
    """``split_experiment`` builds every timestep's rows itself, drawing one
    permutation per timestep in schedule order."""

    SCHEDULE = [[0, 1], [2, 3], [5]]

    def _dataset(self):
        return synth_generate(6, 8, 0.4, 0.1, 600, seed=5)

    def _split(self, ds, schedule=SCHEDULE, seed=0):
        return split_experiment(ds, ds, schedule, 8, seed)

    def test_streams_partition_scheduled_classes(self):
        ds = self._dataset()
        tasks = self._split(ds)
        assert tasks.n_timesteps == 2
        for classes, stream in zip(self.SCHEDULE[1:], tasks.streams):
            assert set(stream.labels.tolist()) == set(classes)
        assert tasks.total_stream_size() == int(np.isin(ds.labels, [2, 3, 5]).sum())

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown classes \\[99\\]"):
            self._split(self._dataset(), [[0], [1, 99]])

    @pytest.mark.parametrize("schedule, repeated", [([[0, 1], [1, 2], [2, 3]], [1, 2]),
                                                    ([[0, 0], [1]], [0]),
                                                    ([[0], [1], [0]], [0])])
    def test_class_named_twice_rejected(self, schedule, repeated):
        with pytest.raises(ValueError, match=re.escape(f"classes {repeated} more than once")):
            self._split(self._dataset(), schedule)

    def test_batch_sizes(self):
        stream = self._split(self._dataset(), [[1], [0]]).streams[0]
        assert len(stream) == len(stream.sizes) == len(stream.kinds)
        assert (stream.sizes[:-1] == 8).all()
        assert 1 <= stream.sizes[-1] <= 8
        assert (stream.kinds == "clean").all()

    def test_pretraining_rows_are_the_first_timesteps_in_train_order(self):
        ds = self._dataset()
        tasks = self._split(ds)
        rows = np.isin(ds.labels, self.SCHEDULE[0])
        np.testing.assert_array_equal(tasks.pretrain_inputs, ds.inputs[rows])
        np.testing.assert_array_equal(tasks.pretrain_labels, ds.labels[rows])

    def test_rows_are_the_shuffled_class_rows(self):
        """Stream t is ``rng.permutation`` of its rows, drawn after the
        permutations of timesteps 0 to t - 1."""
        ds = self._dataset()
        tasks = self._split(ds, seed=4)
        rng = np.random.default_rng(4)
        for t, classes in enumerate(self.SCHEDULE):
            idx = rng.permutation(np.flatnonzero(np.isin(ds.labels, classes)))
            if t:
                np.testing.assert_array_equal(tasks.streams[t - 1].inputs, ds.inputs[idx])
                np.testing.assert_array_equal(tasks.streams[t - 1].labels, ds.labels[idx])

    def test_deterministic_order(self):
        ds = self._dataset()
        a, b = self._split(ds, seed=3), self._split(ds, seed=3)
        np.testing.assert_array_equal(a.pretrain_inputs, b.pretrain_inputs)
        for x, y in zip(a.streams, b.streams):
            np.testing.assert_array_equal(x.inputs, y.inputs)
            np.testing.assert_array_equal(x.labels, y.labels)


class TestStream:
    def test_cut_covers_every_row(self):
        stream = Stream.cut(np.zeros((19, 3)), np.arange(19), 8)
        assert len(stream) == 3
        assert stream.sizes.tolist() == [8, 8, 3]
        assert stream.inputs.dtype == np.float32 and stream.labels.dtype == np.int64

    def test_empty_stream_has_no_batches(self):
        stream = Stream.cut(np.zeros((0, 3)), np.zeros(0), 8)
        assert len(stream) == 0 and stream.sizes.shape == stream.kinds.shape == (0,)

    @pytest.mark.parametrize("sizes, kinds", [([8, 3], ["clean"] * 2),
                                              ([8, 0, 4], ["clean"] * 3),
                                              ([8, 4], ["clean"])])
    def test_sizes_and_kinds_must_cover_the_rows(self, sizes, kinds):
        with pytest.raises(ValueError, match="cover"):
            Stream(np.zeros((12, 3)), np.zeros(12), sizes, kinds)


class TestCorrupt:
    def _img(self, seed=0, n=200, d=12):
        return np.random.default_rng(seed).uniform(0.2, 0.8, size=(n, d)).astype(np.float32)

    def test_tiny_severity_gaussian_is_near_identity(self):
        x = self._img()
        y = corrupt(x, "gaussian", 1e-9, seed=1)
        np.testing.assert_allclose(y, x, atol=1e-6)

    def test_zero_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            corrupt(self._img(), "gaussian", 0.0, seed=0)

    def test_impulse_severity_one_is_binary(self):
        y = corrupt(self._img(), "impulse", 1.0, seed=2)
        assert set(np.unique(y).tolist()) <= {0.0, 1.0}

    @pytest.mark.parametrize("kind", ["gaussian", "shot", "impulse"])
    def test_shape_and_range_preserved(self, kind):
        x = self._img(3)
        y = corrupt(x, kind, 0.5, seed=4)
        assert y.shape == x.shape
        assert y.min() >= 0.0 and y.max() <= 1.0

    @pytest.mark.parametrize("kind", ["gaussian", "shot", "impulse"])
    def test_deterministic_under_seed(self, kind):
        x = self._img(5)
        np.testing.assert_array_equal(corrupt(x, kind, 0.5, seed=6),
                                      corrupt(x, kind, 0.5, seed=6))

    def test_out_of_range_inputs_rejected(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            corrupt(np.array([[1.5]], dtype=np.float32), "gaussian", 0.5, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption"):
            corrupt(self._img(), "saltpepper", 0.5, seed=0)


class TestMixStreams:
    def _stream(self, n=40, size=8):
        rng = np.random.default_rng(8)
        return Stream.cut(rng.uniform(0, 1, size=(n * size, 6)), np.arange(n * size), size)

    def _foreign(self):
        return synth_generate(2, 6, 3.0, 0.1, 200, seed=9)

    def test_zero_fractions_identity(self):
        stream = self._stream()
        assert mix_streams(stream, MixSpec(), seed=0) is stream

    def test_binomial_injection_counts(self):
        mixed = mix_streams(self._stream(n=1000), MixSpec(0.25, 0.25, foreign=self._foreign()),
                            seed=1)
        kinds = mixed.kinds.tolist()
        n_corr = kinds.count("corrupted")
        n_foreign = kinds.count("foreign")
        assert abs(n_corr - 250) <= 40
        assert abs(n_foreign - 250) <= 40
        assert kinds.count("clean") == 1000
        assert len(mixed.labels) == 8 * len(mixed)

    def test_clean_relative_order_preserved(self):
        stream = self._stream(n=60)
        mixed = mix_streams(stream, MixSpec(0.3, 0.2, foreign=self._foreign()), seed=2)
        clean = np.repeat(mixed.kinds == "clean", mixed.sizes)
        np.testing.assert_array_equal(mixed.inputs[clean], stream.inputs)
        np.testing.assert_array_equal(mixed.labels[clean], stream.labels)

    def test_foreign_batches_carry_sentinel(self):
        mixed = mix_streams(self._stream(n=50), MixSpec(ood_fraction=0.5, foreign=self._foreign()),
                            seed=3)
        foreign = np.repeat(mixed.kinds == "foreign", mixed.sizes)
        assert foreign.any()
        assert (mixed.labels[foreign] == SENTINEL_LABEL).all()
        assert (mixed.labels[~foreign] != SENTINEL_LABEL).all()

    def test_matches_the_keyed_sort_of_batches(self):
        """The stream-level mix reproduces the per-batch construction it
        replaced: the same draws per batch, ordered by (position, injected)
        with a stable sort, then concatenated."""
        stream, foreign = self._stream(n=25, size=5), self._foreign()
        rng = np.random.default_rng(6)
        keyed, n = [], len(stream)
        for i in range(n):
            x, y = stream.inputs[5 * i:5 * i + 5], stream.labels[5 * i:5 * i + 5]
            keyed.append((float(i), 0, x, y))
            if rng.random() < 0.3:
                noisy = corrupt(x, "shot", 0.4, int(rng.integers(0, 2**31)))
                keyed.append((float(rng.uniform(0, n)), 1, noisy, y))
            if rng.random() < 0.3:
                sel = rng.choice(foreign.n, size=5, replace=foreign.n < 5)
                keyed.append((float(rng.uniform(0, n)), 1, foreign.inputs[sel],
                              np.full(5, SENTINEL_LABEL)))
        keyed.sort(key=lambda t: (t[0], t[1]))
        mixed = mix_streams(stream, MixSpec(0.3, 0.3, "shot", 0.4, foreign), seed=6)
        assert len(mixed) == len(keyed)
        np.testing.assert_array_equal(mixed.inputs, np.concatenate([k[2] for k in keyed]))
        np.testing.assert_array_equal(mixed.labels, np.concatenate([k[3] for k in keyed]))

    def test_corruption_refuses_any_row_outside_the_unit_range(self):
        """Any row may be corrupted, so one outside [0, 1] is refused before a
        draw, at every seed, even where the seed would corrupt no batch.
        Without corruption the row is mixed as it is."""
        stream = self._stream()
        stream.inputs[-1, 0] = 1.5
        for seed in range(5):
            with pytest.raises(ValueError, match=r"^corruption expects inputs in \[0, 1\]$"):
                mix_streams(stream, MixSpec(corrupted_fraction=1e-9), seed=seed)
            mixed = mix_streams(stream, MixSpec(ood_fraction=0.5, foreign=self._foreign()),
                                seed=seed)
            clean = np.repeat(mixed.kinds == "clean", mixed.sizes)
            np.testing.assert_array_equal(mixed.inputs[clean], stream.inputs)

    def test_fraction_sum_validated(self):
        """A mix is validated once, where its ``MixSpec`` is made."""
        with pytest.raises(ValueError, match="sum"):
            MixSpec(0.7, 0.7, foreign=self._foreign())

    def test_mix_spec_validation(self):
        with pytest.raises(ValueError, match="foreign"):
            MixSpec(ood_fraction=0.2, foreign=None)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            MixSpec(corrupted_fraction=-0.1)


class TestSplitExperiment:
    def test_composition(self):
        train = synth_generate(4, 6, 0.4, 0.1, 400, seed=10)
        test = synth_generate(4, 6, 0.4, 0.1, 200, seed=11)
        tasks = split_experiment(train, test, [[0, 1], [2], [3]], 8, seed=12)
        assert tasks.n_timesteps == 2
        assert set(np.unique(tasks.pretrain_labels).tolist()) == {0, 1}
        assert tasks.total_stream_size() == int(np.isin(train.labels, [2, 3]).sum())

    def test_requires_pretrain_plus_task(self):
        ds = synth_generate(2, 4, 0.4, 0.1, 50, seed=0)
        with pytest.raises(ValueError, match="schedule"):
            split_experiment(ds, ds, [[0, 1]], 8, seed=0)


class TestDatasetFile:
    def test_roundtrip_bitwise(self, tmp_path):
        ds = synth_generate(3, 5, 0.4, 0.1, 120, seed=13)
        path = str(tmp_path / "data.bnt")
        save_dataset(ds, path)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.inputs, ds.inputs)
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.bnt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_dataset(str(path))

    def test_truncated_payload(self, tmp_path):
        ds = synth_generate(2, 4, 0.4, 0.1, 50, seed=14)
        path = tmp_path / "trunc.bnt"
        save_dataset(ds, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(FormatError, match="truncated"):
            load_dataset(str(path))

    def test_rank_zero_rejected(self, tmp_path):
        path = str(tmp_path / "rank0.bnt")
        with pytest.raises(FormatError, match="rank-0"):
            write_tensors(path, {"x": np.float32(3.0)})
        # hand-craft a rank-0 record to exercise the read path as well
        import struct
        blob = b"BNT1" + struct.pack("<H", 1) + b"x" + struct.pack("<BB", 0, 0)
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(FormatError, match="rank-0"):
            read_tensors(path)

    def test_missing_tensor_rejected(self, tmp_path):
        path = str(tmp_path / "partial.bnt")
        write_tensors(path, {"inputs": np.zeros((2, 2), dtype=np.float32)})
        with pytest.raises(FormatError, match="labels"):
            load_dataset(path)

    def test_labels_must_be_rank_one(self, tmp_path):
        path = str(tmp_path / "rank2.bnt")
        write_tensors(path, {"inputs": np.zeros((2, 2), dtype=np.float32),
                             "labels": np.zeros((2, 1), dtype=np.uint32)})
        with pytest.raises(FormatError, match="rank 1"):
            load_dataset(path)

    @given(st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=20, deadline=None)
    def test_container_roundtrip_property(self, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        tensors = {}
        for i in range(int(rng.integers(1, 4))):
            shape = tuple(int(s) for s in rng.integers(1, 5, size=int(rng.integers(1, 4))))
            if rng.random() < 0.5:
                tensors[f"t{i}"] = rng.normal(size=shape).astype(np.float32)
            else:
                tensors[f"t{i}"] = rng.integers(0, 2**32, size=shape,
                                                dtype=np.uint64).astype(np.uint32)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/t.bnt"
            write_tensors(path, tensors)
            loaded = read_tensors(path)
        assert list(loaded) == list(tensors)
        for k in tensors:
            np.testing.assert_array_equal(loaded[k], tensors[k])


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="matching length"):
            Dataset(np.zeros((3, 2), dtype=np.float32), np.zeros(2, dtype=np.int64))

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Dataset(np.zeros((2, 2), dtype=np.float32), np.array([0, -1]))

    @pytest.mark.parametrize("shape, width", [((5, 2, 3), 6), ((0, 2, 3), 6), ((4,), 1),
                                              ((0, 7), 7)])
    def test_inputs_flattened_to_rows(self, shape, width):
        """Every later stage takes (n, d) rows as they are; an empty set keeps
        its width."""
        x = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
        dataset = Dataset(x, np.zeros(shape[0], dtype=np.int64))
        assert dataset.inputs.shape == (shape[0], width)
        np.testing.assert_array_equal(dataset.inputs.ravel(), x.ravel())
