"""Experiment configuration: a strict sectioned key = value file format.

``[section]`` headers, ``key = value`` lines, and comments from a ``#`` at a line's
start or after whitespace. Unknown sections or keys are hard errors so typos
cannot silently change a run. All randomness derives from ``run.seed`` by named substreams.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .engine import VARIANTS, LoopConfig
from .nn import Network, build_mlp
from .ood import ThresholdConfig
from .stream import (CORRUPTION_KINDS, Dataset, DatasetFile, MixSpec, SplitTasks,
                     check_schedule, load_dataset, split_experiment, synth_generate)


class ConfigError(ValueError):
    """Unparseable, unknown, or missing configuration."""


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_int_list(raw: str) -> list[int]:
    if not raw.strip():
        return []
    return [int(part) for part in raw.split(",")]


def _checked(parse, rule: str, ok):
    """``parse``, then reject a value that breaks ``rule``: an empty list, or a
    value or list entry for which the elementwise test ``ok`` fails (NaN
    fails every range)."""
    def check(raw: str):
        value = parse(raw)
        values = np.atleast_1d(value)
        if values.size == 0 or not ok(values).all():
            raise ValueError(f"must be {rule}, got {raw.strip()!r}")
        return value
    return check


def _at_least(low: int, parse=int):
    return _checked(parse, f">= {low}", lambda v: v >= low)


_POSITIVE = _checked(float, "finite and > 0", lambda v: np.isfinite(v) & (v > 0))
_NONNEGATIVE = _checked(float, "finite and >= 0", lambda v: np.isfinite(v) & (v >= 0))
_FRACTION = _checked(float, "in [0, 1]", lambda v: (v >= 0) & (v <= 1))
_NONEMPTY = _checked(str, "non-empty", lambda v: v != "")


def _parse_seeds(raw: str) -> list[int]:
    """Seeds >= 0, each listed once: a repeated seed would weigh twice in
    the ablation means."""
    seeds = _at_least(0, _parse_int_list)(raw)
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ValueError(f"seeds {repeated} listed more than once, got {raw.strip()!r}")
    return seeds


def _parse_schedule(raw: str) -> list[list[int]]:
    schedule = [_parse_int_list(part) for part in raw.split("|")]
    if any(not classes for classes in schedule):
        raise ValueError("schedule timesteps must be nonempty")
    check_schedule(schedule)
    return schedule


def _choice(options):
    def parse(raw: str) -> str:
        value = raw.strip()
        if value not in options:
            raise ValueError(f"expected one of {options}, got {value!r}")
        return value
    return parse


# (parser, default) per ``section.key``: default ``_REQUIRED`` marks a required key,
# ``None`` an optional key that stays unset or takes a default derived from another key.
_REQUIRED = object()

SCHEMA: dict[str, tuple] = {
    "run.variant": (_choice(tuple(VARIANTS)), "full"),
    "run.seed": (_at_least(0), 0),
    "run.seeds": (_parse_seeds, None),  # ablation sweeps; defaults to [seed]
    "run.output_dir": (_NONEMPTY, "runs/out"),
    "network.hidden": (_at_least(1, _parse_int_list), _REQUIRED),
    "network.bn_eps": (_POSITIVE, 1e-5),
    "network.bn_momentum": (_checked(float, "in (0, 1]", lambda v: (v > 0) & (v <= 1)), 0.1),
    "optimizer.learning_rate": (_NONNEGATIVE, 0.1),
    "optimizer.momentum": (_NONNEGATIVE, 0.9),
    "optimizer.weight_decay": (_NONNEGATIVE, 0.0005),
    "loop.acquisition_batch": (_at_least(1), 256),
    "loop.buffer_capacity": (_at_least(1), 5000),
    "loop.ood_batch_size": (_at_least(1), 8),
    "loop.epochs_per_update": (_at_least(1), 1),
    "loop.pretrain_epochs": (_at_least(0), 30),
    "loop.baseline_epochs_per_task": (_at_least(1), None),
    "loop.minibatch_size": (_at_least(2), 256),  # train-mode batch norm needs two rows
    "loop.bootstrap_k": (_at_least(1), 100),
    "loop.bootstrap_size": (_at_least(1), None),  # defaults to ood_batch_size
    "loop.bootstrap_alpha": (_checked(float, "in (0, 1)", lambda v: (v > 0) & (v < 1)), 0.99),
    "loop.eval_every_update": (_parse_bool, True),
    "data.source": (_choice(("synthetic", "file")), "synthetic"),
    "data.schedule": (_parse_schedule, _REQUIRED),
    "data.n_classes": (int, 10),
    "data.dims": (int, 16),
    "data.separation": (_POSITIVE, 0.3),
    "data.within_std": (_NONNEGATIVE, 0.05),
    "data.train_per_class": (_at_least(1), 400),
    "data.test_per_class": (_at_least(1), 200),
    "data.clip_unit": (_parse_bool, True),
    "data.train_path": (str, None),
    "data.test_path": (str, None),
    "mix.corrupted_fraction": (_FRACTION, 0.0),
    "mix.ood_fraction": (_FRACTION, 0.0),
    "mix.corruption": (_choice(CORRUPTION_KINDS), "gaussian"),
    "mix.severity": (_POSITIVE, 0.5),
    "mix.foreign_source": (_choice(("synthetic", "file")), "synthetic"),
    "mix.foreign_path": (str, None),
    # defaults to data.n_classes, or to the classes data.schedule names for a file source
    "mix.foreign_classes": (_at_least(1), None),
    "mix.foreign_separation_scale": (_POSITIVE, 20.0),
    "mix.foreign_std": (_NONNEGATIVE, None),  # defaults to within_std
    "mix.foreign_per_class": (_at_least(1), 200),
}
_SECTIONS = {key.split(".", 1)[0] for key in SCHEMA}


# When ``bowl run`` and ``bowl ablate`` read each conditional key: while every
# (setting, test) pair of one of its conditions holds. A key set while none
# holds is refused at load, naming the first failing setting of its first
# condition; a path key's last setting is its source. Every other key is always
# read, or read by subcommand, flag or variant (README "Config format").
_SYNTHETIC = (("data.source", lambda v: v == "synthetic"),)
_FOREIGN = (("mix.ood_fraction", lambda v: v > 0),)
_SYNTHETIC_FOREIGN = (*_FOREIGN, ("mix.foreign_source", lambda v: v == "synthetic"))
READ_WHEN: dict[str, list[tuple]] = {
    **dict.fromkeys(("data.n_classes", "data.dims", "data.train_per_class",
                     "data.test_per_class", "data.clip_unit"), [_SYNTHETIC]),
    **dict.fromkeys(("data.train_path", "data.test_path"),
                    [(("data.source", lambda v: v == "file"),)]),
    "data.separation": [_SYNTHETIC, _SYNTHETIC_FOREIGN],
    "data.within_std": [_SYNTHETIC,
                        (*_SYNTHETIC_FOREIGN, ("mix.foreign_std", lambda v: v is None))],
    **dict.fromkeys(("mix.corruption", "mix.severity"),
                    [(("mix.corrupted_fraction", lambda v: v > 0),)]),
    "mix.foreign_source": [_FOREIGN],
    "mix.foreign_path": [(*_FOREIGN, ("mix.foreign_source", lambda v: v == "file"))],
    **dict.fromkeys(("mix.foreign_classes", "mix.foreign_separation_scale",
                     "mix.foreign_std", "mix.foreign_per_class"), [_SYNTHETIC_FOREIGN]),
}


def _switched_off(values: dict[str, object], key: str):
    """None while a run reads ``key`` (asked before ``mix.foreign_std`` takes
    its default), else the first failing (setting, value) of its first condition."""
    conditions = READ_WHEN[key]
    if any(all(holds(values[s]) for s, holds in condition) for condition in conditions):
        return None
    return next((s, values[s]) for s, holds in conditions[0] if not holds(values[s]))


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """The raw value string of each ``section.key`` the text sets, with strict
    validation against the schema."""
    raw: dict[str, str] = {}
    section: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{origin}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in stripped.split("=", 1))
        dotted = f"{section}.{key}"
        if dotted not in SCHEMA:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r} in [{section}]")
        if dotted in raw:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r} in [{section}]")
        raw[dotted] = value
    return raw


def apply_overrides(raw: dict[str, str], overrides) -> None:
    """Apply ``section.key=value`` strings (command-line flags) onto raw config."""
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        if dotted not in SCHEMA:
            raise ConfigError(f"unknown override target {dotted!r}")
        raw[dotted] = value


@dataclass
class RunConfig:
    values: dict[str, object]
    input_dim: int = field(init=False)  # the train set's width

    def __post_init__(self):
        """The train width, read once (``data.dims`` or the train file's header),
        the defaults that name another setting (``mix.foreign_classes``:
        ``data.n_classes``, or the number of classes ``data.schedule`` names
        for a file source; ``run.seeds``: ``[run.seed]``;
        ``loop.bootstrap_size``: ``loop.ood_batch_size``; ``mix.foreign_std``:
        ``data.within_std``), and the cross-key rules, before any data is
        built: mix fractions sum to <= 1; generated sets have simplex-vertex
        class means (train width >= classes); the schedule names generated
        classes; generated rows that may be corrupted are clipped into [0, 1]."""
        corrupted = self["mix.corrupted_fraction"]
        if corrupted + self["mix.ood_fraction"] > 1:
            raise ConfigError(f"mix.corrupted_fraction {corrupted} + "
                              f"mix.ood_fraction {self['mix.ood_fraction']} exceeds 1")
        scheduled = {c for group in self["data.schedule"] for c in group}
        if self["data.source"] == "file":
            train = self._path("data.train_path")
            self.input_dim = DatasetFile(train).width
            self._train_key = f"data.train_path {train!r}"
            classes = len(scheduled)
        else:
            self.input_dim = self["data.dims"]
            self._train_key = "data.dims"
            classes = self["data.n_classes"]
        for key, default in (("mix.foreign_classes", classes), ("run.seeds", [self.seed]),
                             ("loop.bootstrap_size", self["loop.ood_batch_size"]),
                             ("mix.foreign_std", self["data.within_std"])):
            if self[key] is None:
                self.values[key] = default
        if corrupted > 0 and not self["data.clip_unit"]:  # given only where read
            raise ConfigError(f"mix.corrupted_fraction {corrupted} "
                              f"corrupts rows in [0, 1], which generated rows keep "
                              f"only with data.clip_unit = true")
        for key in ("data.n_classes", "mix.foreign_classes"):  # generated class counts
            if not _switched_off(self.values, key) and self.input_dim < self[key]:
                raise ConfigError(f"the train set's width {self.input_dim} "
                                  f"({self._train_key}) is below {key} {self[key]}")
        outside = scheduled - set(range(self["data.n_classes"]))
        if not _switched_off(self.values, "data.n_classes") and outside:
            raise ConfigError(f"data.schedule names classes {sorted(outside)} outside "
                              f"data.n_classes {self['data.n_classes']}")

    def __getitem__(self, key: str):
        return self.values[key]

    # -- assembly ----------------------------------------------------------

    @property
    def seed(self) -> int:
        return int(self["run.seed"])

    def loop_config(self, seed: int | None = None) -> LoopConfig:
        """The loop's settings: the [loop] and [optimizer] keys named like a
        ``LoopConfig`` field, the bootstrap's three keys and the seed."""
        settings = {f.name: self[key] for f in fields(LoopConfig)
                    for key in (f"loop.{f.name}", f"optimizer.{f.name}") if key in SCHEMA}
        bootstrap = ThresholdConfig(self["loop.bootstrap_k"], self["loop.bootstrap_size"],
                                    self["loop.bootstrap_alpha"])
        return LoopConfig(**settings, bootstrap=bootstrap,
                          seed=self.seed if seed is None else seed)

    def _data_seeds(self, seed: int) -> np.ndarray:
        return np.random.SeedSequence([seed, 1]).generate_state(5)

    def _path(self, dotted: str) -> str:
        """The file under key ``dotted``, which its file source requires."""
        path = self[dotted]
        if path is None:
            raise ConfigError(f"{READ_WHEN[dotted][0][-1][0]}=file requires {dotted}")
        if not os.path.isfile(path):
            raise ConfigError(f"{dotted} {path!r} is not a file")
        return path

    def _checked_path(self, dotted: str) -> str:
        """The path under ``dotted`` once its header shows rows of the train width."""
        header = DatasetFile(self._path(dotted))
        if header.width != self.input_dim:
            raise ConfigError(f"{dotted} {header.path!r} has width {header.width}, "
                              f"the train set {self.input_dim} ({self._train_key})")
        if header.n == 0:
            raise ConfigError(f"{dotted} {header.path!r} holds no rows")
        return header.path

    def train_test_datasets(self, seed: int) -> tuple[Dataset, Dataset]:
        train_seed, test_seed = (int(s) for s in self._data_seeds(seed)[:2])
        schedule, n_classes = self["data.schedule"], self["data.n_classes"]
        if self["data.source"] == "file":
            test_path = self._checked_path("data.test_path")
            train_path = self._path("data.train_path")
            train, test = load_dataset(train_path), load_dataset(test_path)
            unlisted = {c for group in schedule for c in group} - set(train.classes())
            if unlisted:
                raise ConfigError(f"data.train_path {train_path!r} has no rows of "
                                  f"data.schedule classes {sorted(unlisted)}")
            if not np.isin(test.labels, schedule[0]).any():
                raise ConfigError(f"data.test_path {test_path!r} has no rows of the "
                                  f"pretraining classes {schedule[0]} (data.schedule)")
            return train, test
        common = (n_classes, self["data.dims"], self["data.separation"], self["data.within_std"])
        train = synth_generate(*common, self["data.train_per_class"] * n_classes, train_seed,
                               self["data.clip_unit"])
        test = synth_generate(*common, self["data.test_per_class"] * n_classes, test_seed,
                              self["data.clip_unit"])
        return train, test

    def foreign_dataset(self, seed: int) -> Dataset | None:
        """Foreign rows for the mix, or None without them. They have the train
        set's width (``data.dims`` or the train file's)."""
        if self["mix.ood_fraction"] <= 0.0:
            return None
        if self["mix.foreign_source"] == "file":
            return load_dataset(self._checked_path("mix.foreign_path"))
        foreign_seed = int(self._data_seeds(seed)[4])
        classes = self["mix.foreign_classes"]
        return synth_generate(classes, self.input_dim,
                              self["data.separation"] * self["mix.foreign_separation_scale"],
                              self["mix.foreign_std"], self["mix.foreign_per_class"] * classes,
                              foreign_seed)

    def mix_spec(self, seed: int) -> MixSpec | None:
        fractions = self["mix.corrupted_fraction"], self["mix.ood_fraction"]
        if max(fractions) <= 0.0:
            return None
        return MixSpec(*fractions, self["mix.corruption"], self["mix.severity"],
                       self.foreign_dataset(seed))

    def build_tasks(self, seed: int | None = None) -> SplitTasks:
        seed = self.seed if seed is None else seed
        train, test = self.train_test_datasets(seed)
        split_seed = int(self._data_seeds(seed)[2])
        mix = self.mix_spec(seed)
        try:
            return split_experiment(train, test, self["data.schedule"],
                                    self["loop.ood_batch_size"], split_seed, mix)
        except ValueError as exc:  # mix_streams' [0, 1] rule; the load checked the rest
            raise ConfigError(f"mix.corrupted_fraction {self['mix.corrupted_fraction']} "
                              f"corrupts rows in [0, 1], but the classes after the first "
                              f"data.schedule group have rows outside it "
                              f"(data.train_path {self['data.train_path']!r})") from exc

    def build_network(self, seed: int | None = None) -> Network:
        seed = self.seed if seed is None else seed
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        class_ids = sorted(self["data.schedule"][0])
        return build_mlp(self.input_dim, self["network.hidden"], len(class_ids), rng,
                         eps=self["network.bn_eps"], stat_momentum=self["network.bn_momentum"],
                         class_ids=class_ids)


def load_config_values(path: str, overrides=None) -> dict[str, object]:
    """Each ``SCHEMA`` key's value from the file, then ``overrides``, else its
    default; a key set where ``READ_WHEN`` says a run would not read it is
    refused. No other file is opened (``RunConfig`` checks the rest)."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read(), origin=path)
    apply_overrides(raw, overrides)
    values: dict[str, object] = {}
    for key, (parser, default) in SCHEMA.items():
        if key not in raw:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key}")
            values[key] = default
        else:
            try:
                values[key] = parser(raw[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
    for key in READ_WHEN:
        if key in raw and (switch := _switched_off(values, key)):
            raise ConfigError(f"{key} is set but {switch[0]} is {switch[1]}: "
                              f"the run would not read it")
    return values


def load_run_config(path: str, overrides=None) -> RunConfig:
    return RunConfig(load_config_values(path, overrides))
