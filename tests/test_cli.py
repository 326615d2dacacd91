import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bowl.config as config_mod
import bowl.engine as engine_mod
from bowl import cli
from bowl.cli import main
from bowl.config import SCHEMA, load_run_config
from bowl.engine import VARIANTS
from bowl.nn import Network, read_checkpoint
from bowl.ood import predictive_entropy_per_sample
from bowl.serialization import read_tensors, write_tensors
from bowl.stream import Dataset, load_dataset, save_dataset

BASE_CONFIG = """
# toy experiment used by the CLI tests
[run]
variant = full
seed = 0
output_dir = {outdir}

[network]
hidden = 12,6

[loop]
acquisition_batch = 48
buffer_capacity = 100
ood_batch_size = 8
pretrain_epochs = 8
minibatch_size = 32
bootstrap_k = 30
bootstrap_size = 4
eval_every_update = false

[data]
n_classes = 6
dims = 8
separation = 0.3
within_std = 0.1
train_per_class = 80
test_per_class = 40
schedule = 0,1 | 2,3 | 4,5
"""


@pytest.fixture()
def config_path(tmp_path):
    def write(outdir=None, extra="", body=BASE_CONFIG):
        outdir = outdir or str(tmp_path / "out")
        path = tmp_path / "run.cfg"
        path.write_text(body.format(outdir=outdir) + extra)
        return str(path), outdir
    return write


class TestRun:
    def test_writes_all_outputs(self, config_path):
        path, outdir = config_path()
        assert main(["run", path]) == 0
        assert sorted(os.listdir(outdir)) == ["buffer_composition.csv", "checkpoint.bnt",
                                              "report.csv", "summary.txt"]

    def test_determinism_byte_identical_summary(self, config_path, tmp_path):
        path, _ = config_path()
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", path, "--output-dir", out1]) == 0
        assert main(["run", path, "--output-dir", out2]) == 0
        s1 = open(os.path.join(out1, "summary.txt"), "rb").read()
        s2 = open(os.path.join(out2, "summary.txt"), "rb").read()
        assert s1 == s2

    def test_missing_required_key_names_it(self, config_path, capsys):
        body = BASE_CONFIG.replace("schedule = 0,1 | 2,3 | 4,5\n", "")
        path, _ = config_path(body=body)
        assert main(["run", path]) == 2
        assert "data.schedule" in capsys.readouterr().err

    def test_unknown_key_rejected(self, config_path, capsys):
        path, _ = config_path(extra="\n[loop]\nwarp_speed = 9\n")
        assert main(["run", path]) == 2
        assert "warp_speed" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["epochs_per_update=0", "minibatch_size=1",
                                         "buffer_capacity=3", "ood_batch_size=0",
                                         "network.hidden=0", "network.hidden=16,0",
                                         "network.bn_eps=-1", "network.bn_eps=0",
                                         "network.bn_momentum=0", "network.bn_momentum=1.5",
                                         "optimizer.learning_rate=-1",
                                         "optimizer.momentum=nan",
                                         "optimizer.weight_decay=-0.1",
                                         "data.within_std=-1", "data.separation=0",
                                         "data.train_per_class=0", "data.test_per_class=0",
                                         "mix.corrupted_fraction=2", "mix.ood_fraction=-0.5",
                                         "mix.severity=0", "pretrain_epochs=-1",
                                         "baseline_epochs_per_task=-2",
                                         "baseline_epochs_per_task=0",
                                         "bootstrap_k=0", "bootstrap_alpha=1",
                                         "mix.foreign_classes=0", "mix.foreign_classes=-3",
                                         "mix.foreign_per_class=0", "mix.foreign_std=-1",
                                         "mix.foreign_separation_scale=-1", "run.seed=-1",
                                         "run.seeds=0,-1", "data.schedule=0,1",
                                         # cross-key rules of a synthetic source
                                         "data.dims=0", "data.dims=3", "data.n_classes=1",
                                         "data.n_classes=4", "data.schedule=0,1 | 2,9",
                                         # the mix fractions share the batches
                                         "mix.corrupted_fraction=0.8;mix.ood_fraction=0.5"])
    def test_invalid_loop_setting_is_config_error(self, config_path, capsys, setting):
        """Each ';'-separated setting is set; the error names every key."""
        path, _ = config_path()
        keys, argv = [], ["run", path]
        for item in setting.split(";"):
            keys.append(item.split("=")[0])
            argv += ["--set", item if "." in keys[-1] else f"loop.{item}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err

    @pytest.mark.parametrize("schedule, repeated", [("0,1 | 1,2 | 2,3", [1, 2]),
                                                    ("0,0 | 1", [0]), ("0 | 1 | 0", [0])])
    def test_class_named_twice_in_the_schedule_exits_2(self, config_path, capsys,
                                                      schedule, repeated):
        """A class in two timesteps would have its rows served twice under new
        ids; the config is rejected before any data is built."""
        path, outdir = config_path()
        with mock.patch.object(config_mod, "synth_generate") as generate:
            assert main(["run", path, "--set", f"data.schedule={schedule}"]) == 2
        assert not generate.called and not os.path.exists(outdir)
        err = capsys.readouterr().err
        assert "data.schedule" in err and f"classes {repeated} more than once" in err, err

    def test_loop_settings_checked_before_any_data_is_built(self, config_path, capsys,
                                                            monkeypatch):
        calls = []
        generate = config_mod.synth_generate
        monkeypatch.setattr(config_mod, "synth_generate",
                            lambda *a, **k: calls.append(1) or generate(*a, **k))
        path, _ = config_path()
        assert main(["run", path, "--set", "loop.minibatch_size=1"]) == 2
        assert "minibatch_size" in capsys.readouterr().err
        assert calls == []

    def test_foreign_classes_beyond_dims_is_config_error(self, config_path, capsys):
        """Synthetic foreign classes are simplex vertices in data.dims too."""
        path, _ = config_path()
        assert main(["run", path, "--set", "mix.ood_fraction=0.25",
                     "--set", "mix.foreign_classes=9"]) == 2
        err = capsys.readouterr().err
        assert "data.dims" in err and "mix.foreign_classes" in err

    @staticmethod
    def _write_sets(tmp_path, sets):
        """Generated 6-class dataset files, one per (name, dims, n, seed)."""
        files = {}
        for name, dims, n, seed in sets:
            files[name] = str(tmp_path / f"{name}.bnt")
            assert main(["gen-data", "--classes", "6", "--dims", str(dims), "--separation",
                         "0.3", "--std", "0.1", "--n", str(n), "--seed", str(seed),
                         "--clip-unit", "--out", files[name]]) == 0
        return files

    @pytest.mark.parametrize("overrides, code", [
        ([], 0),
        (["mix.foreign_classes=10"], 0),  # above data.dims (8), within the files' 12
        (["mix.foreign_classes=13"], 2),
    ])
    def test_synthetic_foreign_rows_take_the_file_width(self, config_path, tmp_path,
                                                        capsys, overrides, code):
        """With a file source, synthetic foreign rows are generated at the
        train file's width, and foreign classes beyond it are a config error
        raised at load, before any set is read."""
        files = self._write_sets(tmp_path, [("train", 12, 480, 1), ("test", 12, 240, 2)])
        path, outdir = config_path()
        sets = ["data.source=file", f"data.train_path={files['train']}",
                f"data.test_path={files['test']}", "mix.ood_fraction=0.25", *overrides]
        with mock.patch.object(config_mod, "load_dataset",
                               side_effect=config_mod.load_dataset) as load:
            assert main(["run", path, *(f for s in sets for f in ("--set", s))]) == code
        if code == 0:
            assert "aborted=False" in open(os.path.join(outdir, "summary.txt")).read()
        else:
            err = capsys.readouterr().err
            assert "mix.foreign_classes" in err and "data.train_path" in err, err
            assert not load.called

    def test_file_source_foreign_classes_default_to_the_scheduled(self, config_path,
                                                                   tmp_path):
        """With a file source and data.n_classes unset, synthetic foreign rows
        take as many classes as data.schedule names (6), not data.n_classes's
        default 10, which is above the files' width 8."""
        files = self._write_sets(tmp_path, [("train", 8, 480, 1), ("test", 8, 240, 2)])
        path, outdir = config_path(body=BASE_CONFIG.replace("n_classes = 6\n", ""))
        sets = ["data.source=file", f"data.train_path={files['train']}",
                f"data.test_path={files['test']}", "mix.ood_fraction=0.25"]
        cfg = load_run_config(path, sets)
        assert cfg["mix.foreign_classes"] == 6
        assert cfg.foreign_dataset(0).classes() == list(range(6))
        assert main(["run", path, *(f for s in sets for f in ("--set", s))]) == 0
        assert "aborted=False" in open(os.path.join(outdir, "summary.txt")).read()

    def test_foreign_file_of_another_width_is_config_error(self, config_path, tmp_path,
                                                           capsys):
        files = self._write_sets(tmp_path, [("train", 12, 480, 1), ("test", 12, 240, 2),
                                            ("foreign", 7, 120, 3)])
        path, _ = config_path()
        sets = ["data.source=file", f"data.train_path={files['train']}",
                f"data.test_path={files['test']}", "mix.ood_fraction=0.25",
                "mix.foreign_source=file", f"mix.foreign_path={files['foreign']}"]
        assert main(["run", path, *(f for s in sets for f in ("--set", s))]) == 2
        err = capsys.readouterr().err
        assert "mix.foreign_path" in err and "width 7, the train set 12" in err, err

    @pytest.mark.parametrize("key, kept", [
        ("mix.foreign_path", []),
        ("data.test_path", []),
        ("data.test_path", [2, 3, 4, 5]),  # none of the pretraining classes 0, 1
        ("data.train_path", []),
        ("data.train_path", [2, 3, 4, 5]),  # scheduled classes 0, 1 missing
    ])
    def test_file_without_the_rows_a_run_needs(self, config_path, tmp_path, capsys,
                                               key, kept):
        """A file keeping only the rows of classes ``kept`` exits 2 before
        pretraining, naming the key and the file."""
        files = self._write_sets(tmp_path, [("train", 12, 480, 1), ("test", 12, 240, 2),
                                            ("foreign", 12, 120, 3)])
        damaged = files[{"data.train_path": "train", "data.test_path": "test",
                         "mix.foreign_path": "foreign"}[key]]
        dataset = load_dataset(damaged)
        rows = np.isin(dataset.labels, kept)
        save_dataset(Dataset(dataset.inputs[rows], dataset.labels[rows]), damaged)
        path, _ = config_path()
        sets = ["data.source=file", f"data.train_path={files['train']}",
                f"data.test_path={files['test']}", "mix.ood_fraction=0.25",
                "mix.foreign_source=file", f"mix.foreign_path={files['foreign']}"]
        with mock.patch.object(cli, "run_variant") as run_variant:
            assert main(["run", path, *(f for s in sets for f in ("--set", s))]) == 2
        assert not run_variant.called
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err and repr(damaged) in err, err

    def test_pretraining_divergence_writes_aborted_report(self, config_path, capsys):
        """A NaN loss during pretraining takes the path of one in a task: the
        outputs are written, the summary says aborted, and the exit code is 1."""
        path, outdir = config_path()
        assert main(["run", path, "--set", "optimizer.learning_rate=1e30"]) == 1
        assert "run aborted: loss diverged" in capsys.readouterr().err
        summary = open(os.path.join(outdir, "summary.txt")).read().splitlines()
        assert "aborted=True" in summary
        assert "timesteps=0" in summary
        # The steps taken before the divergence are all pretraining steps.
        assert "pretrain_steps=1" in summary and "total_steps=1" in summary
        assert not any(line.startswith("accuracy_t0=") for line in summary)
        for name in ("report.csv", "checkpoint.bnt"):
            assert os.path.exists(os.path.join(outdir, name)), name

    def test_duplicate_section_key_rejected(self, config_path, capsys):
        path, _ = config_path(extra="\n[data]\ndims = 9\n")
        assert main(["run", path]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["run", "/nonexistent/run.cfg"]) == 2

    def test_environment_does_not_move_the_output_dir(self, config_path, tmp_path,
                                                      monkeypatch):
        """The output directory is --output-dir, else run.output_dir; no
        environment variable overrides it."""
        path, outdir = config_path()
        env_dir = str(tmp_path / "env_out")
        monkeypatch.setenv("BOWL_OUTPUT_DIR", env_dir)
        assert main(["run", path]) == 0
        assert os.path.exists(os.path.join(outdir, "summary.txt"))
        assert not os.path.exists(env_dir)

    @pytest.mark.parametrize("sets, keys", [
        (["data.train_path=@set"], ["data.train_path", "data.source"]),
        (["data.test_path=@set"], ["data.test_path", "data.source"]),
        (["mix.ood_fraction=0.25", "mix.foreign_path=@set"],
         ["mix.foreign_path", "mix.foreign_source"]),
        (["data.source=file", "data.train_path=@set", "data.test_path=@set",
          "mix.ood_fraction=0.25", "mix.foreign_path=@set"],
         ["mix.foreign_path", "mix.foreign_source"]),
    ])
    def test_path_key_without_its_file_source_exits_2(self, config_path, tmp_path, capsys,
                                                      sets, keys):
        """A path the run would not read (its source is synthetic) is refused
        at load, naming the path key and the source key, before any data is
        built."""
        data = self._write_sets(tmp_path, [("set", 8, 48, 1)])["set"]
        path, outdir = config_path()
        argv = ["run", path, *(f for s in sets for f in ("--set", s.replace("@set", data)))]
        with mock.patch.object(config_mod, "synth_generate") as generate, \
                mock.patch.object(config_mod, "load_dataset") as load:
            assert main(argv) == 2
        assert not (generate.called or load.called) and not os.path.exists(outdir)
        err = capsys.readouterr().err
        assert err == (f"config error: {keys[0]} is set but {keys[1]} is synthetic: "
                       f"the run would not read it\n"), err

    @pytest.mark.parametrize("key", ["data.train_path", "data.test_path", "mix.foreign_path"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_data_path_that_is_not_a_file_exits_2(self, config_path, tmp_path, capsys,
                                                  key, kind):
        """A config data path that names no file exits 2, naming the key and
        the path, before the file is read, any training or any output."""
        files = self._write_sets(tmp_path, [("train", 8, 96, 1), ("test", 8, 48, 2),
                                            ("foreign", 8, 24, 3)])
        bad = str(tmp_path / "missing.bnt") if kind == "missing" else str(tmp_path)
        paths = {"data.train_path": files["train"], "data.test_path": files["test"],
                 "mix.foreign_path": files["foreign"], key: bad}
        path, outdir = config_path()
        sets = ["data.source=file", "mix.ood_fraction=0.25", "mix.foreign_source=file",
                *(f"{k}={v}" for k, v in paths.items())]
        with mock.patch.object(config_mod, "load_dataset",
                               side_effect=config_mod.load_dataset) as load, \
                mock.patch.object(cli, "run_variant") as run_variant:
            assert main(["run", path, *(f for s in sets for f in ("--set", s))]) == 2
        assert bad not in [call.args[0] for call in load.call_args_list]
        assert not run_variant.called and not os.path.exists(outdir)
        if key != "mix.foreign_path":  # the foreign file is checked after these load
            assert not load.called
        assert capsys.readouterr().err == f"config error: {key} {bad!r} is not a file\n"

    @pytest.mark.parametrize("before, after, sets, message", [
        # BASE_CONFIG's lines, a blank line, then the section header.
        ("", "\n[warp]\n", [], f":{len(BASE_CONFIG.splitlines()) + 2}: unknown section [warp]"),
        ("", "\n[loop]\nwarp_speed\n", [],
         f":{len(BASE_CONFIG.splitlines()) + 3}: expected 'key = value', got 'warp_speed'"),
        ("seed = 1\n", "", [], ":1: key outside any [section]"),
        ("", "", ["loop.minibatch_size"],
         "override must look like section.key=value, got 'loop.minibatch_size'"),
        ("", "", ["data.schedule=0,1 | | 2"],
         "bad value for data.schedule: schedule timesteps must be nonempty"),
    ])
    def test_malformed_config_exits_2(self, config_path, capsys, before, after, sets,
                                      message):
        """A config file line or a --set that does not parse exits 2 with its
        message, before any data is built or directory made."""
        path, outdir = config_path(body=before + BASE_CONFIG, extra=after)
        with mock.patch.object(config_mod, "synth_generate") as generate:
            assert main(["run", path, *(f for s in sets for f in ("--set", s))]) == 2
        assert not generate.called and not os.path.exists(outdir)
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.endswith(message + "\n"), err

    def test_set_flag_overrides_key(self, config_path, capsys):
        path, outdir = config_path()
        assert main(["run", path, "--set", "run.variant=finetune"]) == 0
        summary = open(os.path.join(outdir, "summary.txt")).read()
        assert "variant=finetune" in summary

    def test_bad_override_target(self, config_path):
        path, _ = config_path()
        assert main(["run", path, "--set", "loop.warp=1"]) == 2


# 4 dims, 3 classes, one class per timestep, 12 train rows per class.
SMALL_CONFIG = """
[run]
output_dir = {outdir}
[network]
hidden = 8
[loop]
acquisition_batch = 8
buffer_capacity = 20
ood_batch_size = 4
pretrain_epochs = 3
minibatch_size = 8
bootstrap_k = 10
[data]
n_classes = 3
dims = 4
train_per_class = 12
test_per_class = 6
schedule = 0 | 1 | 2
"""
FILTERING = [name for name, variant in VARIANTS.items() if variant.ood_filter]


class TestSettingsARunCannotFinish:
    """Settings that leave a run unable to finish end it in a defined way:
    aborted like a diverged loss, or refused before any training."""

    @pytest.mark.parametrize("setting", ["optimizer.learning_rate=1e9",
                                         "optimizer.momentum=1e9"])
    def test_diverged_tau_aborts_the_run(self, config_path, capsys, setting):
        """The batch-norm statistics overflow while the loss stays finite, so
        tau is +inf: the run ends as aborted, with all four files and exit 1."""
        path, outdir = config_path(body=SMALL_CONFIG)
        assert main(["run", path, "--set", setting]) == 1
        assert "run aborted: tau diverged: inf" in capsys.readouterr().err
        assert sorted(os.listdir(outdir)) == ["buffer_composition.csv", "checkpoint.bnt",
                                              "report.csv", "summary.txt"]
        summary = open(os.path.join(outdir, "summary.txt")).read().splitlines()
        assert "aborted=True" in summary and "timesteps=0" in summary

    def test_diverged_tau_lets_ablate_run_every_variant(self, config_path):
        path, outdir = config_path(body=SMALL_CONFIG)
        assert main(["ablate", path, "--set", "optimizer.learning_rate=1e9"]) == 1
        for variant in VARIANTS:
            summary = open(os.path.join(outdir, f"{variant}_seed0", "summary.txt")).read()
            assert "aborted=True" in summary.splitlines(), variant
        assert os.path.exists(os.path.join(outdir, "ablation.csv"))

    @pytest.mark.parametrize("command, setting, err", [
        ("run", "optimizer.momentum=1e9", "run aborted: tau diverged: inf\n"),
        ("ablate", "optimizer.learning_rate=1e9", ""),
    ], ids=["run", "ablate"])
    def test_divergence_raises_no_numpy_warning(self, config_path, capsys, command,
                                                setting, err):
        """The overflows on the way to a divergence are not reported: the
        abort line (``bowl run``) is all that stderr holds."""
        path, _ = config_path(body=SMALL_CONFIG)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, path, "--set", setting]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
            [str(w.message) for w in caught]
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("variant", FILTERING)
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_pretraining_set_below_the_bootstrap_size_exits_1_untrained(
            self, config_path, capsys, monkeypatch, variant, rows):
        """tau resamples the buffer, whose first and smallest size is
        min(buffer_capacity, pretraining rows); below the bootstrap size (4)
        a filtering variant is refused before pretraining."""
        trained = []
        monkeypatch.setattr(engine_mod, "_train_supervised",
                            lambda *args: trained.append(1))
        path, outdir = config_path(body=SMALL_CONFIG)
        assert main(["run", path, "--set", f"data.train_per_class={rows}",
                     "--set", f"run.variant={variant}"]) == 1
        assert trained == [] and not os.path.exists(outdir)
        assert capsys.readouterr().err == (
            f"error: the first buffer, min(buffer_capacity 20, {rows} pretraining rows) "
            f"= {rows}, is below the bootstrap size 4\n")

    @pytest.mark.parametrize("variant", sorted(set(VARIANTS) - set(FILTERING)))
    def test_pretraining_set_below_the_bootstrap_size_runs_without_a_filter(
            self, config_path, variant):
        path, outdir = config_path(body=SMALL_CONFIG)
        assert main(["run", path, "--set", "data.train_per_class=1",
                     "--set", f"run.variant={variant}"]) == 0
        assert os.path.exists(os.path.join(outdir, "summary.txt"))

    @staticmethod
    def _train_file(tmp_path, outside: int) -> str:
        """12 rows per class of SMALL_CONFIG's 4 dims, all 0.5 but one value of
        a class ``outside`` row, 1.5."""
        labels = np.repeat([0, 1, 2], 12)
        inputs = np.full((36, 4), 0.5, dtype=np.float32)
        inputs[np.flatnonzero(labels == outside)[5], 2] = 1.5
        path = str(tmp_path / "train.bnt")
        save_dataset(Dataset(inputs, labels), path)
        return path

    # Unclipped generated rows with this spread leave [0, 1] at some seeds only.
    UNCLIPPED = ["data.clip_unit=false", "data.within_std=0.15", "mix.corrupted_fraction=0.5"]

    @pytest.mark.parametrize("source", ["synthetic", "file"])
    def test_corrupting_rows_outside_the_unit_range_exits_2(self, config_path, tmp_path,
                                                            capsys, source):
        """Corruption maps [0, 1] to [0, 1]. Generated rows that may be
        corrupted must be clipped, which the load checks before any data is
        generated; a file's stream rows must lie in [0, 1], which is checked
        before any training. Either way the run is refused at every seed."""
        path, outdir = config_path(body=SMALL_CONFIG)
        if source == "synthetic":
            sets, seeds = self.UNCLIPPED, range(7)
            message = ("mix.corrupted_fraction 0.5 corrupts rows in [0, 1], which "
                       "generated rows keep only with data.clip_unit = true")
        else:
            train = self._train_file(tmp_path, outside=2)  # a stream class
            sets = ["data.source=file", f"data.train_path={train}", f"data.test_path={train}",
                    "mix.corrupted_fraction=0.5"]
            seeds = range(5)
            message = ("mix.corrupted_fraction 0.5 corrupts rows in [0, 1], but the "
                       "classes after the first data.schedule group have rows outside it "
                       f"(data.train_path {train!r})")
        for seed in seeds:
            argv = ["run", path, "--set", f"run.seed={seed}",
                    *(f for s in sets for f in ("--set", s))]
            with mock.patch.object(config_mod, "synth_generate",
                                   side_effect=config_mod.synth_generate) as generate, \
                    mock.patch.object(cli, "run_variant") as run_variant:
                assert main(argv) == 2, seed
            assert not (run_variant.called or generate.called or os.path.exists(outdir)), seed
            assert capsys.readouterr().err == f"config error: {message}\n", seed

    def test_ablate_refuses_unclipped_corruption_before_any_seed(self, config_path, capsys):
        path, outdir = config_path(body=SMALL_CONFIG)
        sets = [*self.UNCLIPPED, "run.seeds=0,3"]
        with mock.patch.object(cli, "run_variant", side_effect=cli.run_variant) as run_variant:
            assert main(["ablate", path, *(f for s in sets for f in ("--set", s))]) == 2
        assert not run_variant.called and not os.path.exists(outdir)
        assert "data.clip_unit = true" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["synthetic", "file"])
    def test_stream_rows_in_the_unit_range_are_corrupted(self, config_path, tmp_path,
                                                         source):
        """Clipped generated rows run, and so does a file whose rows outside
        [0, 1] are pretraining rows, which mixing never corrupts."""
        path, outdir = config_path(body=SMALL_CONFIG)
        if source == "synthetic":
            sets = ["data.within_std=0.15"]
        else:
            train = self._train_file(tmp_path, outside=0)  # the pretraining class
            sets = ["data.source=file", f"data.train_path={train}", f"data.test_path={train}"]
        sets.append("mix.corrupted_fraction=0.5")
        tasks = load_run_config(path, sets).build_tasks()
        assert any("corrupted" in stream.kinds for stream in tasks.streams)
        assert main(["run", path, *(f for s in sets for f in ("--set", s))]) == 0
        assert os.path.exists(os.path.join(outdir, "summary.txt"))


TINY_CONFIG = """
[network]
hidden = 4
[loop]
acquisition_batch = 8
buffer_capacity = 16
ood_batch_size = 4
pretrain_epochs = 1
minibatch_size = 8
bootstrap_k = 5
bootstrap_size = 2
eval_every_update = false
[data]
n_classes = 4
dims = 4
train_per_class = 8
test_per_class = 2
schedule = 0,1 | 2,3
"""

# Every key but the output directory, which --output-dir overrides.
FUZZ_KEYS = sorted(f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys
                   if key != "output_dir")
# Boundary, zero, negative, empty and unparsable values; none makes a run long.
FUZZ_VALUES = ("", "0", "-1", "1", "2", "0.5", "-0.5", "1.5", "nan", "inf", "-inf", "x")
# The float settings with a lower bound only; each must also be finite.
FINITE_KEYS = ("network.bn_eps", "optimizer.learning_rate", "optimizer.momentum",
               "optimizer.weight_decay", "data.separation", "data.within_std",
               "mix.severity", "mix.foreign_separation_scale", "mix.foreign_std")


def _schema_rejects(dotted: str, raw: str) -> bool:
    section, key = dotted.split(".")
    try:
        SCHEMA[section][key][0](raw)
    except (TypeError, ValueError):
        return True
    return False


class TestRunFuzz:
    @given(st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES),
                           min_size=1, max_size=2))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_any_setting_exits_cleanly(self, overrides):
        """Per-key draws of ``bowl run --set``: the exit code is 0, 1 or 2, no
        exception escapes main, and a value the schema rejects exits 2."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(TINY_CONFIG)
            argv = ["run", path, "--output-dir", os.path.join(tmp, "out")]
            for dotted, raw in overrides.items():
                argv += ["--set", f"{dotted}={raw}"]
            code = main(argv)
        assert code in (0, 1, 2)
        if any(_schema_rejects(dotted, raw) for dotted, raw in overrides.items()):
            assert code == 2


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Files the fuzzed commands read: a tiny config, its checkpoint, a
    dataset of its width and one of no rows."""
    root = tmp_path_factory.mktemp("cli_inputs")
    paths = {name: str(root / name) for name in ("config", "dataset", "no_rows")}
    with open(paths["config"], "w", encoding="utf-8") as fh:
        fh.write(TINY_CONFIG)
    assert main(["run", paths["config"], "--output-dir", str(root / "run")]) == 0
    paths["checkpoint"] = str(root / "run" / "checkpoint.bnt")
    assert main(["gen-data", "--classes", "4", "--dims", "4", "--separation", "0.5",
                 "--std", "0.1", "--n", "24", "--clip-unit", "--out", paths["dataset"]]) == 0
    save_dataset(Dataset(np.zeros((0, 4)), np.zeros(0)), paths["no_rows"])
    return str(root), paths


def _tree(top: str) -> list:
    """Every file and directory under ``top`` with its size and mtime."""
    return sorted((os.path.relpath(os.path.join(parent, name), top), info.st_size,
                    info.st_mtime_ns)
                  for parent, dirs, files in os.walk(top) for name in dirs + files
                  for info in [os.stat(os.path.join(parent, name))])


def _path(*valid):
    """A path token: one of ``valid`` in three draws of four, else a missing
    path, a directory or an empty file."""
    return st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(("@missing", "@dir", "@empty") if i == 3 else valid))


def _flag(name, values):
    """``[name, value]``, left out in one draw of ten."""
    return st.integers(0, 9).flatmap(
        lambda i: st.just([]) if i == 9 else values.map(lambda value: [name, value]))


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda drawn: [command, *(t for part in drawn for t in part)])


# --set values: valid, unknown, unparsable, a class named twice, and file
# sources whose test file is unset or holds no rows.
SETS = st.lists(st.sampled_from([
    "loop.pretrain_epochs=2", "run.variant=finetune", "run.seeds=1,0", "mix.ood_fraction=0.5",
    "loop.warp=1", "data.dims=x", "data.schedule=0,1 | 1,2",
    "data.source=file;data.train_path=@dataset",
    "data.source=file;data.train_path=@dataset;data.test_path=@no_rows"]), max_size=2).map(
        lambda items: [t for item in items for s in item.split(";") for t in ("--set", s)])
CONFIG = _path("@config").map(lambda p: [p])
# eval writes nothing and takes no --output-dir.
COMMON = (CONFIG, _path("@out").map(lambda p: ["--output-dir", p]), SETS)
ROWS = _path("@dataset", "@dataset", "@no_rows")
CHECKPOINT = _flag("--checkpoint", _path("@checkpoint", "@dataset"))
GEN_VALUES = st.sampled_from(["3", "3", "1", "0", "-1", "nan", "inf", "x"])
ARGV = st.tuples(st.one_of(
    _argv("run", *COMMON), _argv("ablate", *COMMON),
    _argv("ood-hist", *COMMON, CHECKPOINT, _flag("--in-set", ROWS), _flag("--out-set", ROWS),
          _flag("--granularity", st.sampled_from(["batch", "sample", "row"]))),
    _argv("gen-data", *(_flag(f"--{name}", GEN_VALUES)
                        for name in ("classes", "dims", "separation", "std", "n")),
          _flag("--out", _path("@new"))),
    _argv("eval", CONFIG, SETS, CHECKPOINT, _flag("--dataset", ROWS))),
    st.integers(0, 9)).map(lambda drawn: drawn[0] + ["--bogus"] * (drawn[1] == 9))


class TestMainFuzz:
    @given(ARGV)
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_every_subcommand_keeps_the_exit_code_contract(self, cli_inputs, tokens):
        """Drawn argv for all five subcommands, with valid and rejected flags
        and missing, directory and empty paths: ``main`` returns 0, 1 or 2
        and raises nothing, and a call that returns 2 writes no file."""
        root, inputs = cli_inputs
        with tempfile.TemporaryDirectory() as work:
            paths = {f"@{name}": path for name, path in inputs.items()}
            paths.update({f"@{name}": os.path.join(work, name)
                          for name in ("missing", "dir", "empty", "out", "new")})
            os.mkdir(paths["@dir"])
            open(paths["@empty"], "w").close()
            argv = list(tokens)
            for token, path in paths.items():
                argv = [arg.replace(token, path) for arg in argv]
            before = _tree(root), _tree(work)
            code = main(argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert (_tree(root), _tree(work)) == before, argv


class TestFiniteSettings:
    @pytest.mark.parametrize("key", FINITE_KEYS)
    def test_infinite_setting_exits_before_any_data_is_built(self, tmp_path, capsys, key):
        path = tmp_path / "run.cfg"
        path.write_text(TINY_CONFIG)
        argv = ["run", str(path), "--output-dir", str(tmp_path / "out"), "--set", f"{key}=inf"]
        with mock.patch.object(config_mod, "synth_generate") as generate:
            assert main(argv) == 2
        assert not generate.called
        err = capsys.readouterr().err
        assert key in err and "finite" in err, err


class TestBooleanSettings:
    @pytest.mark.parametrize("key", ["data.clip_unit", "loop.eval_every_update"])
    @pytest.mark.parametrize("raw, value", [
        ("true", True), (" Yes ", True), ("ON", True), ("1", True),
        ("false", False), ("no", False), ("Off", False), ("0", False),
    ])
    def test_boolean_words_load(self, tmp_path, key, raw, value):
        path = tmp_path / "run.cfg"
        path.write_text(TINY_CONFIG)
        assert load_run_config(str(path), [f"{key}={raw}"])[key] is value

    @pytest.mark.parametrize("key", ["data.clip_unit", "loop.eval_every_update"])
    def test_other_word_exits_2_writing_nothing(self, tmp_path, capsys, key):
        path = tmp_path / "run.cfg"
        path.write_text(TINY_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out), "--set", f"{key}=maybe"]) == 2
        assert capsys.readouterr().err == (
            f"config error: bad value for {key}: expected a boolean, got 'maybe'\n")
        assert os.listdir(tmp_path) == ["run.cfg"]


class TestGenData:
    def test_generates_and_roundtrips(self, tmp_path):
        out = str(tmp_path / "blobs.bnt")
        args = ["gen-data", "--classes", "2", "--dims", "4", "--separation", "0.5",
                "--std", "0.1", "--n", "1000", "--seed", "3", "--out", out]
        assert main(args) == 0
        ds = load_dataset(out)
        assert ds.n == 1000
        assert ds.labels.shape == (1000,)
        assert set(ds.classes()) == {0, 1}

    def test_same_seed_identical_bytes(self, tmp_path):
        outs = [str(tmp_path / f"d{i}.bnt") for i in range(2)]
        for out in outs:
            main(["gen-data", "--classes", "3", "--dims", "5", "--separation",
                  "0.4", "--std", "0.1", "--n", "300", "--seed", "9", "--out", out])
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()

    @pytest.mark.parametrize("flag, value", [("--classes", "0"), ("--classes", "-2"),
                                             ("--std", "nan"), ("--separation", "inf"),
                                             ("--dims", "0"), ("--n", "0")])
    def test_bad_flag_exits_2_and_writes_nothing(self, tmp_path, capsys, flag, value):
        out = str(tmp_path / "blobs.bnt")
        flags = {"--classes": "2", "--dims": "4", "--separation": "0.5", "--std": "0.1",
                 "--n": "100", flag: value}
        assert main(["gen-data", *(f for item in flags.items() for f in item),
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be" in err and repr(value) in err, err
        assert not os.path.exists(out)

    def test_dims_below_classes_exits_2_and_writes_nothing(self, tmp_path, capsys):
        """Class means are simplex vertices, so --dims must be >= --classes."""
        out = str(tmp_path / "blobs.bnt")
        assert main(["gen-data", "--classes", "5", "--dims", "3", "--separation", "0.5",
                     "--std", "0.1", "--n", "10", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--dims 3" in err and "--classes 5" in err, err
        assert not os.path.exists(out)


class TestExitCodes:
    """``main(argv)`` returns every exit code, argparse's included."""

    @pytest.mark.parametrize("argv", [["run"], ["run", "x.cfg", "--bogus"], ["fly"], []])
    def test_rejected_argv_returns_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["gen-data", "--help"]])
    def test_help_returns_0(self, argv, capsys):
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out

    def test_eval_takes_no_output_dir(self, tmp_path, capsys):
        """eval writes nothing, so it has no --output-dir to ignore."""
        outdir = str(tmp_path / "out")
        assert main(["eval", "x.cfg", "--checkpoint", "c.bnt", "--dataset", "d.bnt",
                     "--output-dir", outdir]) == 2
        assert "unrecognized arguments: --output-dir" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_config_path_that_is_a_directory(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: config file not found: {tmp_path}\n"


class TestFileModes:
    """Written files take the mode a plain ``open`` gives: 0666 less the umask."""

    @pytest.fixture()
    def umask(self):
        """The test sets the umask with ``os.umask``; this restores it."""
        previous = os.umask(0o022)
        yield os.umask
        os.umask(previous)

    def test_run_and_gen_data_outputs_under_umask_022(self, config_path, tmp_path, umask):
        path, outdir = config_path()
        data = str(tmp_path / "blobs.bnt")
        umask(0o022)
        assert main(["run", path]) == 0
        assert main(["gen-data", "--classes", "2", "--dims", "4", "--separation", "0.5",
                     "--std", "0.1", "--n", "10", "--out", data]) == 0
        for written in (os.path.join(outdir, "summary.txt"),
                        os.path.join(outdir, "checkpoint.bnt"), data):
            assert oct(os.stat(written).st_mode & 0o777) == oct(0o644), written

    @pytest.mark.parametrize("mask", [0o077, 0o027, 0o002])
    def test_mode_follows_the_umask(self, tmp_path, umask, mask):
        written = str(tmp_path / "t.bnt")
        umask(mask)
        write_tensors(written, {"x": np.zeros(3, np.float32)})
        assert oct(os.stat(written).st_mode & 0o777) == oct(0o666 & ~mask)
        assert os.listdir(tmp_path) == ["t.bnt"]


class TestReadme:
    def test_config_section_names_every_key(self):
        """Each schema key is a line of the example's [section], or is named as
        section.key in the "Config format" section's text."""
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                      encoding="utf-8").read()
        text = readme[readme.index("### Config format"):readme.index("## File formats")]
        example = text[text.index("```ini"):text.index("```\n", text.index("```ini") + 1)]
        listed, section = set(), None
        for line in example.splitlines():
            if header := re.match(r"\[(\w+)\]", line):
                section = header.group(1)
            elif key := re.match(r"(\w+)\s*=", line):
                listed.add(f"{section}.{key.group(1)}")
        missing = [f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys
                   if f"{section}.{key}" not in listed and f"`{section}.{key}" not in text]
        assert not missing, missing


@pytest.fixture()
def trained_run(config_path, tmp_path):
    path, outdir = config_path()
    assert main(["run", path]) == 0
    in_set = str(tmp_path / "in.bnt")
    assert main(["gen-data", "--classes", "6", "--dims", "8", "--separation", "0.3",
                 "--std", "0.1", "--n", "480", "--seed", "77", "--clip-unit",
                 "--out", in_set]) == 0
    out_set = str(tmp_path / "outset.bnt")
    assert main(["gen-data", "--classes", "6", "--dims", "8", "--separation", "6.0",
                 "--std", "0.1", "--n", "480", "--seed", "78", "--out", out_set]) == 0
    return path, outdir, in_set, out_set


class TestOodHist:
    def test_exports_and_separates(self, trained_run, tmp_path, capsys):
        path, outdir, in_set, out_set = trained_run
        hist_dir = str(tmp_path / "hist")
        code = main(["ood-hist", path, "--checkpoint",
                     os.path.join(outdir, "checkpoint.bnt"),
                     "--in-set", in_set, "--out-set", out_set,
                     "--output-dir", hist_dir])
        assert code == 0
        for name in ("hist_eta1.csv", "hist_pe.csv", "ood_summary.txt"):
            assert os.path.exists(os.path.join(hist_dir, name))
        summary = open(os.path.join(hist_dir, "ood_summary.txt")).read()
        auroc_eta1 = float([l for l in summary.splitlines()
                            if l.startswith("auroc_eta1=")][0].split("=")[1])
        assert auroc_eta1 >= 0.9

    def test_in_equals_out_near_half(self, trained_run, tmp_path):
        path, outdir, in_set, _ = trained_run
        hist_dir = str(tmp_path / "hist_same")
        assert main(["ood-hist", path, "--checkpoint",
                     os.path.join(outdir, "checkpoint.bnt"),
                     "--in-set", in_set, "--out-set", in_set,
                     "--output-dir", hist_dir]) == 0
        summary = open(os.path.join(hist_dir, "ood_summary.txt")).read()
        auroc_eta1 = float([l for l in summary.splitlines()
                            if l.startswith("auroc_eta1=")][0].split("=")[1])
        assert abs(auroc_eta1 - 0.5) <= 0.05

    def test_sample_granularity(self, trained_run, tmp_path):
        path, outdir, in_set, out_set = trained_run
        hist_dir = str(tmp_path / "hist_sample")
        assert main(["ood-hist", path, "--checkpoint",
                     os.path.join(outdir, "checkpoint.bnt"),
                     "--in-set", in_set, "--out-set", out_set,
                     "--granularity", "sample", "--output-dir", hist_dir]) == 0
        lines = open(os.path.join(hist_dir, "hist_eta1.csv")).read().splitlines()
        assert len(lines) == 1 + 480 + 480

    @pytest.mark.parametrize("granularity, chunks", [("batch", 1), ("sample", 1)])
    def test_one_forward_pass_per_chunk(self, trained_run, tmp_path, monkeypatch,
                                        granularity, chunks):
        """eta1 and predictive entropy come from one eval pass per 512-row chunk
        of each set (one for these 480-row sets), and the entropy is that of
        separate plain eval passes, one per batch at batch granularity."""
        path, outdir, in_set, out_set = trained_run
        checkpoint = os.path.join(outdir, "checkpoint.bnt")
        hist_dir = str(tmp_path / "hist")
        calls = []
        forward = Network.forward
        monkeypatch.setattr(Network, "forward",
                            lambda net, *a, **k: calls.append(1) or forward(net, *a, **k))
        assert main(["ood-hist", path, "--checkpoint", checkpoint, "--in-set", in_set,
                     "--out-set", out_set, "--granularity", granularity,
                     "--output-dir", hist_dir]) == 0
        monkeypatch.undo()
        assert len(calls) == 2 * chunks
        state = read_checkpoint(checkpoint)
        net = load_run_config(path).build_network(class_ids=state["head.class_ids"])
        net.load_state_dict(state)
        chunk = 8 if granularity == "batch" else 512
        expected = []
        for name in (in_set, out_set):
            inputs = load_dataset(name).inputs
            for start in range(0, len(inputs), chunk):
                logits = net.forward(inputs[start:start + chunk], False)
                entropy = predictive_entropy_per_sample(logits)
                values = [entropy.mean()] if granularity == "batch" else entropy
                expected += [f"{float(e):.8g}" for e in values]
        rows = open(os.path.join(hist_dir, "hist_pe.csv")).read().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == expected

    def test_missing_dataset_file_is_run_failure(self, trained_run, tmp_path):
        path, outdir, in_set, _ = trained_run
        assert main(["ood-hist", path, "--checkpoint",
                     os.path.join(outdir, "checkpoint.bnt"),
                     "--in-set", in_set, "--out-set", str(tmp_path / "missing.bnt"),
                     "--output-dir", str(tmp_path / "h")]) == 1


def _damaged_copy(src, dst, damage):
    """Copy a BNT1 file, cutting its last payload short ("truncated") or
    giving its first tensor an unknown dtype code ("dtype")."""
    with open(src, "rb") as fh:
        data = bytearray(fh.read())
    if damage == "truncated":
        data = data[:-3]
    else:
        name_len = int.from_bytes(data[4:6], "little")
        data[6 + name_len] = 7  # the dtype code follows the name
    with open(dst, "wb") as fh:
        fh.write(data)
    return dst


class TestDamagedFiles:
    @pytest.mark.parametrize("damage, message", [("truncated", "truncated payload"),
                                                 ("dtype", "unknown dtype code 7")])
    def test_run_failure_with_format_message(self, trained_run, tmp_path, capsys,
                                             damage, message):
        """A damaged dataset or checkpoint is a run failure (exit 1) that names
        the damage; no exception escapes main."""
        path, outdir, in_set, out_set = trained_run
        checkpoint = os.path.join(outdir, "checkpoint.bnt")
        bad_set = _damaged_copy(in_set, str(tmp_path / "bad_set.bnt"), damage)
        bad_ckpt = _damaged_copy(checkpoint, str(tmp_path / "bad_ckpt.bnt"), damage)
        hist = ["--out-set", out_set, "--output-dir", str(tmp_path / "h")]
        for argv in (["eval", path, "--checkpoint", checkpoint, "--dataset", bad_set],
                     ["eval", path, "--checkpoint", bad_ckpt, "--dataset", in_set],
                     ["ood-hist", path, "--checkpoint", checkpoint, "--in-set", bad_set,
                      *hist]):
            capsys.readouterr()
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, (argv, err)

    @pytest.mark.parametrize("missing", ["head.class_ids", "layer1.running_var"])
    def test_checkpoint_missing_tensor(self, trained_run, tmp_path, capsys, missing):
        """A checkpoint without its class ids or a running statistic is a run
        failure that names the tensor."""
        path, outdir, in_set, _ = trained_run
        state = read_tensors(os.path.join(outdir, "checkpoint.bnt"))
        del state[missing]
        checkpoint = str(tmp_path / "partial.bnt")
        write_tensors(checkpoint, state)
        assert main(["eval", path, "--checkpoint", checkpoint, "--dataset", in_set]) == 1
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["layer0.bias", "layer1.running_var"])
    def test_checkpoint_tensor_of_another_shape(self, trained_run, tmp_path, capsys, name):
        """A (1,)-shaped running statistic is rejected like a parameter, not
        broadcast into all 12 channels."""
        path, outdir, in_set, _ = trained_run
        state = read_tensors(os.path.join(outdir, "checkpoint.bnt"))
        state[name] = state[name][:1]
        checkpoint = str(tmp_path / "reshaped.bnt")
        write_tensors(checkpoint, state)
        assert main(["eval", path, "--checkpoint", checkpoint, "--dataset", in_set]) == 1
        assert capsys.readouterr().err == (f"error: shape mismatch for '{name}': "
                                           f"(1,) vs (12,)\n")


class TestEval:
    def test_prints_accuracy(self, trained_run, capsys):
        path, outdir, in_set, _ = trained_run
        assert main(["eval", path, "--checkpoint",
                     os.path.join(outdir, "checkpoint.bnt"),
                     "--dataset", in_set]) == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy=")
        assert 0.0 <= float(out.split()[0].split("=")[1]) <= 1.0


class TestAblate:
    def test_grid_and_aggregate(self, config_path, tmp_path):
        path, outdir = config_path()
        assert main(["ablate", path]) == 0
        for variant in VARIANTS:
            assert os.path.exists(os.path.join(outdir, f"{variant}_seed0",
                                               "summary.txt"))
        csv = open(os.path.join(outdir, "ablation.csv")).read().splitlines()
        header = csv[0].split(",")
        assert header[0] == "variant"
        assert "acc_t1_mean" in header and "acc_t2_std" in header
        assert [row.split(",")[0] for row in csv[1:]] == list(VARIANTS)
        # single seed: every std column is exactly zero
        idx = [i for i, h in enumerate(header) if h.endswith("_std")]
        for row in csv[1:]:
            cells = row.split(",")
            assert all(float(cells[i]) == 0.0 for i in idx)

    def test_run_directories_match_bowl_run_in_any_seed_order(self, config_path, tmp_path):
        """``run.seeds=1,0`` writes the run directories ``0,1`` writes, and each
        holds the bytes ``bowl run`` writes with its seed and variant."""
        path, _ = config_path()

        def written(top):
            return {os.path.relpath(os.path.join(parent, name), top):
                    Path(parent, name).read_bytes()
                    for parent, _, files in os.walk(top) for name in files}

        grids = []
        for seeds in ("0,1", "1,0"):
            out = str(tmp_path / seeds.replace(",", "_"))
            assert main(["ablate", path, "--set", f"run.seeds={seeds}",
                         "--output-dir", out]) == 0
            grids.append(written(out))
            del grids[-1]["ablation.csv"]
        assert grids[0] == grids[1] and len(grids[0]) == 4 * 2 * len(VARIANTS)
        for variant in VARIANTS:
            for seed in (0, 1):
                out = str(tmp_path / f"run_{variant}_{seed}")
                assert main(["run", path, "--set", f"run.seed={seed}", "--set",
                             f"run.variant={variant}", "--output-dir", out]) == 0
                run = written(out)
                assert sorted(run) == ["buffer_composition.csv", "checkpoint.bnt",
                                       "report.csv", "summary.txt"]
                assert run == {name: grids[0][os.path.join(f"{variant}_seed{seed}", name)]
                               for name in run}, (variant, seed)

    @pytest.mark.parametrize("seeds, repeated", [("0,0", [0]), ("1,0,1", [1])])
    def test_seed_listed_twice_exits_2(self, config_path, capsys, seeds, repeated):
        """A repeated seed would weigh twice in ablation.csv's means; it is
        refused at load, naming the key and the seeds, before any data."""
        path, outdir = config_path()
        with mock.patch.object(config_mod, "synth_generate") as generate, \
                mock.patch.object(config_mod, "load_dataset") as load:
            assert main(["ablate", path, "--set", f"run.seeds={seeds}"]) == 2
        assert not (generate.called or load.called) and not os.path.exists(outdir)
        assert capsys.readouterr().err == (
            f"config error: bad value for run.seeds: seeds {repeated} listed more than "
            f"once, got {seeds!r}\n")

    def test_tasks_built_once_per_seed(self, config_path, monkeypatch):
        seeds = []
        build_tasks = config_mod.RunConfig.build_tasks
        monkeypatch.setattr(config_mod.RunConfig, "build_tasks",
                            lambda cfg, seed=None: seeds.append(seed) or build_tasks(cfg, seed))
        path, outdir = config_path()
        assert main(["ablate", path, "--set", "run.seeds=0,1"]) == 0
        assert seeds == [0, 1]
        rows = open(os.path.join(outdir, "ablation.csv")).read().splitlines()
        assert len(rows) == 1 + len(VARIANTS)
