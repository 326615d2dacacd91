"""A run reads every setting it accepts. ``READ_WHEN`` gives, for each
conditional key, the settings under which ``bowl run`` and ``bowl ablate``
read it; a key set in the config file or by ``--set`` while the run would not
read it exits 2 at load, before any data is generated or any file is read.

Each row is checked from both sides: with its condition false, setting the
key is refused; with its condition true, a value other than the default
changes the tasks the run builds, so no row claims a key the run ignores.
"""

import os
from unittest import mock

import numpy as np
import pytest

import bowl.config as config_mod
import workloads
from bowl import cli
from bowl.cli import main
from bowl.config import READ_WHEN, SCHEMA, load_run_config, parse_config_text
from bowl.stream import save_dataset, synth_generate
from configs import BASE, set_flags, write_config

# BASE sets only the keys a run must have, so each case's settings decide
# which conditional keys the run reads.

# Keys every run reads, and the keys whose reading depends on the subcommand,
# a flag or the variant, which the table leaves out.
ALWAYS_READ = {"network.hidden", "network.bn_eps", "network.bn_momentum",
               "optimizer.learning_rate", "optimizer.momentum", "optimizer.weight_decay",
               "loop.acquisition_batch", "loop.buffer_capacity", "loop.ood_batch_size",
               "loop.epochs_per_update", "loop.pretrain_epochs", "loop.minibatch_size",
               "loop.eval_every_update", "data.source", "data.schedule",
               "mix.corrupted_fraction", "mix.ood_fraction"}
BY_SUBCOMMAND = {"run.variant", "run.seed", "run.seeds", "run.output_dir",
                 "loop.bootstrap_k", "loop.bootstrap_size", "loop.bootstrap_alpha",
                 "loop.baseline_epochs_per_task"}

FILE = {"data.source": "file", "data.train_path": "@train", "data.test_path": "@test"}
SYNTHETIC_FOREIGN = {"mix.ood_fraction": "0.5"}
FOREIGN_FILE = {"mix.ood_fraction": "0.5", "mix.foreign_source": "file",
                "mix.foreign_path": "@foreign"}

# (the key's settings, the settings under which the run reads the key)
READ = [
    ({"data.n_classes": "12"}, {}),
    ({"data.dims": "20"}, {}),
    ({"data.train_per_class": "50"}, {}),
    ({"data.test_per_class": "50"}, {}),
    ({"data.clip_unit": "false"}, {"data.within_std": "0.3"}),
    ({"data.train_path": "@other"}, FILE),
    ({"data.test_path": "@other"}, FILE),
    ({"data.separation": "0.6"}, {}),
    ({"data.separation": "0.6"}, {**FILE, **SYNTHETIC_FOREIGN}),
    ({"data.within_std": "0.2"}, {}),
    ({"data.within_std": "0.2"}, {**FILE, **SYNTHETIC_FOREIGN}),
    ({"mix.corruption": "shot"}, {"mix.corrupted_fraction": "0.5"}),
    ({"mix.severity": "0.9"}, {"mix.corrupted_fraction": "0.5"}),
    ({"mix.foreign_source": "file", "mix.foreign_path": "@foreign"}, SYNTHETIC_FOREIGN),
    ({"mix.foreign_path": "@other_foreign"}, FOREIGN_FILE),
    *(({"mix.foreign_classes": "3"}, sets) for sets in (SYNTHETIC_FOREIGN,
                                                        {**FILE, **SYNTHETIC_FOREIGN})),
    *(({f"mix.{key}": value}, SYNTHETIC_FOREIGN) for key, value in (
        ("foreign_separation_scale", "5"), ("foreign_std", "0.3"), ("foreign_per_class", "7"))),
]

# (the key's setting, the settings under which the run does not read it, the
# setting that turns it off and its value)
UNREAD = [
    *(({f"data.{key}": value}, FILE, "data.source is file") for key, value in (
        ("n_classes", "3"), ("dims", "999"), ("train_per_class", "50"),
        ("test_per_class", "50"), ("clip_unit", "false"), ("separation", "7"),
        ("within_std", "4"))),
    ({"data.separation": "7"}, {**FILE, **FOREIGN_FILE}, "data.source is file"),
    ({"data.within_std": "4"}, {**FILE, **FOREIGN_FILE}, "data.source is file"),
    ({"data.within_std": "4"}, {**FILE, **SYNTHETIC_FOREIGN, "mix.foreign_std": "0.1"},
     "data.source is file"),
    ({"data.train_path": "@other"}, {}, "data.source is synthetic"),
    ({"data.test_path": "@other"}, {}, "data.source is synthetic"),
    ({"mix.corruption": "shot"}, {}, "mix.corrupted_fraction is 0.0"),
    ({"mix.corruption": "shot"}, SYNTHETIC_FOREIGN, "mix.corrupted_fraction is 0.0"),
    ({"mix.severity": "3"}, {}, "mix.corrupted_fraction is 0.0"),
    ({"mix.foreign_source": "file"}, {}, "mix.ood_fraction is 0.0"),
    ({"mix.foreign_source": "file"}, {"mix.corrupted_fraction": "0.5"},
     "mix.ood_fraction is 0.0"),
    ({"mix.foreign_path": "@foreign"}, {}, "mix.ood_fraction is 0.0"),
    ({"mix.foreign_path": "@foreign"}, SYNTHETIC_FOREIGN, "mix.foreign_source is synthetic"),
    *(({f"mix.{key}": value}, sets, switch)
      for key, value in (("foreign_classes", "3"), ("foreign_separation_scale", "5"),
                         ("foreign_std", "9"), ("foreign_per_class", "7"))
      for sets, switch in (({}, "mix.ood_fraction is 0.0"),
                           (FOREIGN_FILE, "mix.foreign_source is file"))),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Four-class train and test files, and foreign files, all 16 wide."""
    root = tmp_path_factory.mktemp("read_when")
    paths = {}
    for seed, name in enumerate(("train", "test", "other", "foreign", "other_foreign")):
        paths[f"@{name}"] = str(root / f"{name}.bnt")
        save_dataset(synth_generate(4, 16, 0.3, 0.05, 80, seed, clip_unit=True),
                     paths[f"@{name}"])
    return paths


def _fill(settings, files):
    """``settings`` with each file token replaced by its path."""
    return {key: files.get(value, value) for key, value in settings.items()}


def _id(*settings):
    return " ".join(f"{key}={value}" for each in settings for key, value in each.items())


def _arrays(tasks):
    return [tasks.pretrain_inputs, tasks.pretrain_labels, tasks.test_inputs,
            tasks.test_labels, *(array for stream in tasks.streams
                                 for array in (stream.inputs, stream.labels, stream.sizes,
                                               stream.kinds))]


def _same(a, b) -> bool:
    return len(a) == len(b) and all(x.shape == y.shape and np.array_equal(x, y)
                                    for x, y in zip(a, b))


def test_every_schema_key_says_when_it_is_read():
    """A new key must join the table or one of the two lists."""
    listed = [ALWAYS_READ, BY_SUBCOMMAND, set(READ_WHEN)]
    assert sum(map(len, listed)) == len(set().union(*listed)), "a key is listed twice"
    assert set().union(*listed) == set(SCHEMA)


def test_both_sides_of_every_row_are_checked():
    assert {next(iter(changed)) for changed, _ in READ} == set(READ_WHEN)
    assert {next(iter(changed)) for changed, _, _ in UNREAD} == set(READ_WHEN)


@pytest.mark.parametrize("changed, sets", READ,
                         ids=[_id(changed, sets) for changed, sets in READ])
def test_a_read_key_changes_the_tasks(files, tmp_path, changed, sets):
    """A value other than the default (or than the first file) changes what
    ``build_tasks`` returns."""
    config = {**BASE, **_fill(sets, files)}
    before = _arrays(load_run_config(write_config(tmp_path, config)).build_tasks())
    config.update(_fill(changed, files))
    after = _arrays(load_run_config(write_config(tmp_path, config)).build_tasks())
    assert not _same(before, after)


@pytest.mark.parametrize("changed, sets, switch", UNREAD,
                         ids=[_id(changed, sets) for changed, sets, _ in UNREAD])
def test_an_unread_key_exits_2_at_load(files, tmp_path, capsys, changed, sets, switch):
    """The config loads without the key; with it, ``bowl run`` exits 2 naming
    the key and the setting that turns it off, before any set is generated or
    any file is opened, and writes nothing."""
    config = write_config(tmp_path, {**BASE, **_fill(sets, files)})
    load_run_config(config)
    argv = ["run", config, "--output-dir", str(tmp_path / "out"),
            *set_flags(_fill(changed, files))]
    with mock.patch.object(config_mod, "synth_generate") as generate, \
            mock.patch.object(config_mod, "load_dataset") as load, \
            mock.patch.object(config_mod, "DatasetFile") as header:
        assert main(argv) == 2
    assert not (generate.called or load.called or header.called)
    assert os.listdir(tmp_path) == ["run.cfg"]
    key = next(iter(changed))
    assert capsys.readouterr().err == (f"config error: {key} is set but {switch}: "
                                       f"the run would not read it\n")


@pytest.mark.parametrize("sets, key, source", [
    ({"data.source": "file"}, "data.train_path", "data.source"),
    ({"data.source": "file", "data.train_path": "@train"}, "data.test_path", "data.source"),
    ({**FILE, "mix.ood_fraction": "0.5", "mix.foreign_source": "file"}, "mix.foreign_path",
     "mix.foreign_source"),
])
def test_a_file_source_requires_its_path(files, tmp_path, capsys, sets, key, source):
    """A path the run reads has no default: unset, the run exits 2 before any
    training, naming the path key and its source, and writes nothing."""
    argv = ["run", write_config(tmp_path, {**BASE, **_fill(sets, files)}), "--output-dir",
            str(tmp_path / "out")]
    with mock.patch.object(cli, "run_variant") as run_variant:
        assert main(argv) == 2
    assert not run_variant.called and os.listdir(tmp_path) == ["run.cfg"]
    assert capsys.readouterr().err == f"config error: {source}=file requires {key}\n"


@pytest.mark.parametrize("command, flags", [
    ("run", ["--output-dir", "@out"]),
    ("ablate", ["--output-dir", "@out"]),
    ("ood-hist", ["--checkpoint", "@out/checkpoint.bnt", "--in-set", "@set", "--out-set",
                  "@set", "--output-dir", "@out"]),
    ("eval", ["--checkpoint", "@out/checkpoint.bnt", "--dataset", "@set"]),
])
def test_the_rule_does_not_depend_on_the_subcommand(tmp_path, capsys, command, flags):
    """A key the config file sets for nothing exits 2 under each subcommand
    that loads a config, before it opens any other file, and writes nothing."""
    config = write_config(tmp_path, {**BASE, "mix.severity": "3"})
    out, data = str(tmp_path / "out"), str(tmp_path / "set.bnt")
    assert main([command, config,
                 *(flag.replace("@out", out).replace("@set", data) for flag in flags)]) == 2
    assert capsys.readouterr().err == ("config error: mix.severity is set but "
                                       "mix.corrupted_fraction is 0.0: the run would not "
                                       "read it\n")
    assert os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.parametrize("size, mixed", [("1x", False), ("1x", True), ("8x", False),
                                         ("smoke", False), ("smoke", True)])
def test_the_bench_configs_load(tmp_path, size, mixed):
    """The bench's configs set conditional keys, each of which their runs read."""
    path = workloads.write_config(str(tmp_path / "run.cfg"), 0, size, mixed)
    load_run_config(path)
    with open(path, encoding="utf-8") as fh:
        given = set(parse_config_text(fh.read()))
    assert {"data.n_classes", "data.dims"} <= given & set(READ_WHEN)
    assert mixed == ("mix.severity" in given)
