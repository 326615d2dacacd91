"""``ood-hist`` and ``eval`` read their dataset files a block of rows at a
time, and every file a command reads is checked at load and read once.

Streamed scores equal those of one in-memory pass over the whole set bit for
bit, the commands' peaks stay below one input payload, and a file of the wrong
width or with a non-finite input stops a command before any training or
scoring, naming the file.
"""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bowl.serialization as serialization
from bowl import cli
from bowl.cli import main
from bowl.config import load_run_config
from bowl.engine import evaluate
from bowl.nn import save_checkpoint
from bowl.ood import (batch_ood_score, predictive_entropy_per_sample, sample_eta1_scores,
                      segment_means)
from bowl.serialization import FormatError, read_headers, read_row_blocks, read_tensors
from bowl.stream import (READ_BLOCK_BYTES, Dataset, DatasetFile, load_dataset,
                         save_dataset, synth_generate)
from test_data_path import _peak_bytes

DIMS = 64

CONFIG = """
[network]
hidden = 24,12
[loop]
acquisition_batch = 48
buffer_capacity = 100
ood_batch_size = 8
pretrain_epochs = 2
minibatch_size = 32
bootstrap_k = 30
bootstrap_size = 4
eval_every_update = false
[data]
n_classes = 6
dims = {dims}
train_per_class = 40
test_per_class = 20
schedule = 0,1,2,3 | 4,5
"""


def _write(tmp, name, text):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@pytest.fixture(scope="module")
def scorer(tmp_path_factory):
    """A 64-dim config and a checkpoint of its network with nontrivial running
    statistics: (config path, checkpoint path, the restored network)."""
    tmp = str(tmp_path_factory.mktemp("scorer"))
    config = _write(tmp, "run.cfg", CONFIG.format(dims=DIMS))
    net = load_run_config(config).build_network()
    rng = np.random.default_rng(5)
    for name, value in net.state_dict().items():
        if name.endswith("running_mean"):
            value[...] = rng.normal(0.0, 0.3, value.shape)
        elif name.endswith("running_var"):
            value[...] = rng.uniform(0.05, 0.5, value.shape)
    checkpoint = os.path.join(tmp, "checkpoint.bnt")
    save_checkpoint(net, checkpoint)
    return config, checkpoint, net


def _dataset_file(path, n, seed, dims=DIMS):
    save_dataset(synth_generate(6, dims, 0.3, 0.2, n, seed, clip_unit=True), path)
    return path


def _in_memory_scores(net, inputs, batch, granularity):
    """The whole-set pass: one ``batch_ood_score`` or ``sample_eta1_scores``."""
    if granularity == "sample":
        eta1, logits = sample_eta1_scores(net, inputs)
        return eta1, predictive_entropy_per_sample(logits)
    sizes = [min(batch, len(inputs) - s) for s in range(0, len(inputs), batch)]
    eta1, logits = batch_ood_score(net, inputs, sizes)
    return eta1, segment_means(predictive_entropy_per_sample(logits), sizes)


class TestStreamedEqualsInMemory:
    @given(n=st.sampled_from([1, 7, 511, 512, 513, 4095, 4096, 4097, 8193]),
           batch=st.integers(1, 16), granularity=st.sampled_from(["batch", "sample"]))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_ood_hist_and_eval(self, scorer, n, batch, granularity):
        """The scores ood-hist exports and the accuracy eval prints are those
        of one pass over the whole set, at block sizes that split most of
        these sets (4,096 rows at batch sizes 1, 2, 4, 8 and 16)."""
        config, checkpoint, net = scorer
        exported = {}
        with tempfile.TemporaryDirectory() as tmp:
            in_set = _dataset_file(os.path.join(tmp, "in.bnt"), n, seed=n)
            out_set = _dataset_file(os.path.join(tmp, "out.bnt"), n + batch, seed=n + 1)
            argv = ["ood-hist", config, "--checkpoint", checkpoint, "--in-set", in_set,
                    "--out-set", out_set, "--granularity", granularity,
                    "--set", f"loop.ood_batch_size={batch}", "--output-dir", tmp]
            record = lambda path, a, b, name: exported.update({name: (a, b)})  # noqa: E731
            with mock.patch.object(cli, "export_score_csv", record):
                assert main(argv) == 0
            data = [load_dataset(path) for path in (in_set, out_set)]
            with mock.patch("sys.stdout") as stdout:
                assert main(["eval", config, "--checkpoint", checkpoint,
                             "--dataset", out_set]) == 0
        expected = [_in_memory_scores(net, d.inputs, batch, granularity) for d in data]
        for k, name in enumerate(("eta1", "predictive_entropy")):
            for got, want in zip(exported[name], (expected[0][k], expected[1][k])):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        accuracy = evaluate(net, data[1].inputs, data[1].labels)
        printed = "".join(call.args[0] for call in stdout.write.call_args_list)
        assert printed == f"accuracy={accuracy:.6f} n={n + batch}\n"


class TestRowBlocks:
    def test_blocks_are_the_file_in_row_order(self, tmp_path):
        """Blocks are whole multiples of the step, cover every row once, and
        hold what ``load_dataset`` reads."""
        path = _dataset_file(str(tmp_path / "d.bnt"), 9000, seed=3)
        whole = load_dataset(path)
        blocks = [(x.copy(), y.copy()) for x, y in DatasetFile(path).blocks(1536)]
        assert [len(y) for _, y in blocks] == [3072, 3072, 2856]  # 1 MB holds 2 steps
        assert np.concatenate([x for x, _ in blocks]).tobytes() == whole.inputs.tobytes()
        np.testing.assert_array_equal(np.concatenate([y for _, y in blocks]), whole.labels)

    def test_one_reused_buffer_per_tensor(self, tmp_path):
        path = _dataset_file(str(tmp_path / "d.bnt"), 9000, seed=3)
        headers = read_headers(path)
        tensors = read_tensors(path)
        firsts = set()
        for inputs, labels in read_row_blocks(path, [headers["inputs"], headers["labels"]],
                                              4000):
            firsts.add(inputs.__array_interface__["data"][0])
            assert inputs.shape[1:] == (DIMS,) and labels.dtype == np.uint32
        assert len(firsts) == 1
        np.testing.assert_array_equal(inputs, tensors["inputs"][8000:])

    def test_header_is_read_without_payload(self, tmp_path, monkeypatch):
        path = _dataset_file(str(tmp_path / "d.bnt"), 100, seed=3)
        monkeypatch.setattr(serialization, "_read_into", None)
        dataset = DatasetFile(path)
        assert (dataset.n, dataset.width) == (100, DIMS)

    def test_step_above_the_block_budget(self, tmp_path):
        """An aligned step larger than ``READ_BLOCK_BYTES`` is one block."""
        path = _dataset_file(str(tmp_path / "d.bnt"), 5000, seed=3)
        step = READ_BLOCK_BYTES // (DIMS * 4) + 1
        assert [len(y) for _, y in DatasetFile(path).blocks(step)] == [step, 5000 - step]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_names_file_and_row(self, tmp_path, value):
        ds = synth_generate(3, DIMS, 0.3, 0.1, 6000, seed=4)
        ds.inputs[4500, 7] = value
        path = str(tmp_path / "bad.bnt")
        save_dataset(ds, path)
        with pytest.raises(FormatError) as info:
            load_dataset(path)
        assert str(info.value) == f"non-finite input in row 4500 of {path!r}"
        blocks = DatasetFile(path).blocks(512)
        assert len(next(blocks)[1]) == 4096  # the bad row is in the second block
        with pytest.raises(FormatError, match="non-finite input in row 4500 "):
            next(blocks)

    def test_length_mismatch_is_format_error(self, tmp_path):
        path = str(tmp_path / "d.bnt")
        serialization.write_tensors(path, {"inputs": np.zeros((3, 2), np.float32),
                                           "labels": np.zeros(2, np.uint32)})
        for read in (load_dataset, DatasetFile):
            with pytest.raises(FormatError, match="3 input rows but 2 labels"):
                read(path)


def _run_config(tmp, files, extra=()):
    config = _write(tmp, "run.cfg", CONFIG.format(dims=DIMS))
    sets = ["data.source=file", f"data.train_path={files['train']}",
            f"data.test_path={files['test']}", f"run.output_dir={os.path.join(tmp, 'out')}",
            *extra]
    return [config, *(flag for s in sets for flag in ("--set", s))]


def _sets(tmp, sets):
    """Dataset files, one per (name, dims, n, seed)."""
    return {name: _dataset_file(os.path.join(tmp, f"{name}.bnt"), n, seed, dims)
            for name, dims, n, seed in sets}


class TestReadOnce:
    def test_payload_bytes_read_per_command(self, tmp_path, monkeypatch):
        """``run`` reads the train and test payloads once each; ``eval`` and
        ``ood-hist`` read the train file's header only, and each of their own
        files once."""
        tmp = str(tmp_path)
        files = _sets(tmp, [("train", DIMS, 240, 1), ("test", DIMS, 120, 2),
                            ("in", DIMS, 5000, 3), ("out", DIMS, 700, 4)])
        payload = {path: sum(h.shape[0] * h.row_bytes for h in read_headers(path).values())
                   for path in files.values()}
        read = {}
        read_into = serialization._read_into

        def counting(fh, array, offset, path, name):
            read[path] = read.get(path, 0) + array.nbytes
            return read_into(fh, array, offset, path, name)

        monkeypatch.setattr(serialization, "_read_into", counting)
        argv = _run_config(tmp, files)
        assert main(["run", *argv]) == 0
        assert read == {files["train"]: payload[files["train"]],
                        files["test"]: payload[files["test"]]}
        checkpoint = os.path.join(tmp, "out", "checkpoint.bnt")
        for command in (["eval", "--dataset", files["in"]],
                        ["ood-hist", "--in-set", files["in"], "--out-set", files["out"]]):
            read.clear()
            assert main([command[0], *argv, "--checkpoint", checkpoint, *command[1:]]) == 0
            del read[checkpoint]
            assert read == {path: payload[path] for path in command[2::2]}


class TestCheckedAtLoad:
    @pytest.mark.parametrize("key, sets", [
        ("data.test_path", [("train", 12, 240, 1), ("test", 7, 120, 2)]),
        ("mix.foreign_path", [("train", 12, 240, 1), ("test", 12, 120, 2),
                              ("foreign", 7, 60, 3)]),
    ])
    def test_width_differs_from_train_file(self, tmp_path, capsys, key, sets):
        """Exit 2 before pretraining, naming both keys and both files."""
        tmp = str(tmp_path)
        files = _sets(tmp, sets)
        extra = ["mix.ood_fraction=0.25", "mix.foreign_source=file",
                 f"mix.foreign_path={files.get('foreign')}"] if "foreign" in files else []
        argv = _run_config(tmp, files, extra)
        with mock.patch.object(cli, "run_variant") as run_variant:
            assert main(["run", *argv]) == 2
        assert not run_variant.called
        err = capsys.readouterr().err
        wrong = files["test" if key == "data.test_path" else "foreign"]
        for text in (key, repr(wrong), "width 7", "data.train_path", repr(files["train"]),
                     "the train set 12"):
            assert text in err, err

    def test_non_finite_train_file(self, tmp_path, capsys):
        """One NaN in the train file exits 1 naming the file, before pretraining."""
        tmp = str(tmp_path)
        files = _sets(tmp, [("train", DIMS, 240, 1), ("test", DIMS, 120, 2)])
        train = load_dataset(files["train"])
        train.inputs[17, 3] = np.nan
        save_dataset(train, files["train"])
        with mock.patch.object(cli, "run_variant") as run_variant:
            assert main(["run", *_run_config(tmp, files)]) == 1
        assert not run_variant.called
        err = capsys.readouterr().err
        assert err == f"error: non-finite input in row 17 of {files['train']!r}\n"

    @pytest.mark.parametrize("command", ["eval", "ood-hist-in", "ood-hist-out"])
    def test_scored_file_of_another_width(self, scorer, tmp_path, capsys, command):
        """Exit 1 before any scoring, naming the file."""
        config, checkpoint, _ = scorer
        files = _sets(str(tmp_path), [("good", DIMS, 100, 1), ("bad", 7, 100, 2)])
        if command == "eval":
            argv = ["eval", config, "--dataset", files["bad"]]
        else:
            in_set, out_set = ((files["bad"], files["good"]) if command == "ood-hist-in"
                               else (files["good"], files["bad"]))
            argv = ["ood-hist", config, "--in-set", in_set, "--out-set", out_set,
                    "--output-dir", str(tmp_path / "h")]
        with mock.patch.object(cli, "batch_ood_score") as batch, \
                mock.patch.object(cli, "sample_eta1_scores") as sample, \
                mock.patch.object(cli, "count_correct") as count:
            assert main([*argv, "--checkpoint", checkpoint]) == 1
        assert not (batch.called or sample.called or count.called)
        assert capsys.readouterr().err == (f"error: dataset {files['bad']!r} has width 7, "
                                           f"the checkpoint's network {DIMS}\n")

    @pytest.mark.parametrize("flag", ["--in-set", "--out-set", "--dataset"])
    def test_empty_scored_file(self, scorer, tmp_path, capsys, flag):
        """Exit 1 when the file is opened, naming the flag and the file; a
        failed ood-hist leaves no output (not even its directory)."""
        config, checkpoint, _ = scorer
        good = _dataset_file(str(tmp_path / "good.bnt"), 100, seed=1)
        empty = str(tmp_path / "empty.bnt")
        save_dataset(Dataset(np.zeros((0, DIMS)), np.zeros(0)), empty)
        outdir = str(tmp_path / "h")
        if flag == "--dataset":
            argv = ["eval", config, "--dataset", empty]
        else:
            sets = {"--in-set": good, "--out-set": good, flag: empty}
            argv = ["ood-hist", config, *(f for item in sets.items() for f in item),
                    "--output-dir", outdir]
        assert main([*argv, "--checkpoint", checkpoint]) == 1
        assert capsys.readouterr().err == f"error: {flag} {empty!r} holds no rows\n"
        assert not os.path.exists(outdir)


class TestMemoryBounds:
    """Each command holds a block of rows and its per-row results, never a
    whole set's inputs."""

    N = 20_000

    @pytest.fixture(scope="class")
    def sets(self, tmp_path_factory):
        tmp = str(tmp_path_factory.mktemp("sets"))
        return (_dataset_file(os.path.join(tmp, "in.bnt"), self.N, seed=1),
                _dataset_file(os.path.join(tmp, "out.bnt"), self.N, seed=2))

    @pytest.mark.parametrize("granularity", ["batch", "sample"])
    def test_ood_hist_peaks_below_one_payload(self, scorer, sets, tmp_path, granularity):
        """Loading both sets whole took two payloads, 10 MB here."""
        config, checkpoint, _ = scorer
        argv = ["ood-hist", config, "--checkpoint", checkpoint, "--in-set", sets[0],
                "--out-set", sets[1], "--granularity", granularity,
                "--output-dir", str(tmp_path)]
        with mock.patch("sys.stdout"):
            peak, code = _peak_bytes(lambda: main(argv))
        assert code == 0
        assert peak < self.N * DIMS * 4

    def test_eval_peaks_within_labels_and_a_few_blocks(self, scorer, sets):
        config, checkpoint, _ = scorer
        argv = ["eval", config, "--checkpoint", checkpoint, "--dataset", sets[0]]
        with mock.patch("sys.stdout"):
            peak, code = _peak_bytes(lambda: main(argv))
        assert code == 0
        assert peak <= self.N * 8 + 3 * READ_BLOCK_BYTES
