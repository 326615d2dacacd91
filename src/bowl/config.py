"""Experiment configuration: a strict sectioned key = value file format.

Sections in square brackets, ``key = value`` lines, ``#`` comments. Unknown
sections or keys are hard errors so typos cannot silently change a run. All
randomness derives from the single ``run.seed`` through named substreams.
"""

from __future__ import annotations

import os
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


# (parser, default) — default None with no parser output means "required".
_REQUIRED = object()

SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "variant": (_choice(tuple(VARIANTS)), "full"),
        "seed": (_at_least(0), 0),
        "seeds": (_parse_seeds, None),  # ablation sweeps; defaults to [seed]
        "output_dir": (str, "runs/out"),
    },
    "network": {
        "hidden": (_at_least(1, _parse_int_list), _REQUIRED),
        "bn_eps": (_POSITIVE, 1e-5),
        "bn_momentum": (_checked(float, "in (0, 1]", lambda v: (v > 0) & (v <= 1)), 0.1),
    },
    "optimizer": {
        "learning_rate": (_NONNEGATIVE, 0.1),
        "momentum": (_NONNEGATIVE, 0.9),
        "weight_decay": (_NONNEGATIVE, 0.0005),
    },
    "loop": {
        "acquisition_batch": (int, 256),
        "buffer_capacity": (int, 5000),
        "ood_batch_size": (_at_least(1), 8),
        "epochs_per_update": (int, 1),
        "pretrain_epochs": (_at_least(0), 30),
        "baseline_epochs_per_task": (_at_least(1), None),
        "minibatch_size": (int, 256),
        "bootstrap_k": (_at_least(1), 100),
        "bootstrap_size": (_at_least(1), None),  # defaults to ood_batch_size
        "bootstrap_alpha": (_checked(float, "in (0, 1)", lambda v: (v > 0) & (v < 1)), 0.99),
        "eval_every_update": (_parse_bool, True),
    },
    "data": {
        "source": (_choice(("synthetic", "file")), "synthetic"),
        "schedule": (_parse_schedule, _REQUIRED),
        "n_classes": (int, 10),
        "dims": (int, 16),
        "separation": (_POSITIVE, 0.3),
        "within_std": (_NONNEGATIVE, 0.05),
        "train_per_class": (_at_least(1), 400),
        "test_per_class": (_at_least(1), 200),
        "clip_unit": (_parse_bool, True),
        "train_path": (str, None),
        "test_path": (str, None),
    },
    "mix": {
        "corrupted_fraction": (_FRACTION, 0.0),
        "ood_fraction": (_FRACTION, 0.0),
        "corruption": (_choice(CORRUPTION_KINDS), "gaussian"),
        "severity": (_POSITIVE, 0.5),
        "foreign_source": (_choice(("synthetic", "file")), "synthetic"),
        "foreign_path": (str, None),
        # defaults to data.n_classes, or to the classes data.schedule names for a file source
        "foreign_classes": (_at_least(1), None),
        "foreign_separation_scale": (_POSITIVE, 20.0),
        "foreign_std": (_NONNEGATIVE, None),  # defaults to within_std
        "foreign_per_class": (_at_least(1), 200),
    },
}


# Each file path key and the source key under which a run reads it.
_PATH_SOURCES = {"data.train_path": "data.source", "data.test_path": "data.source",
                 "mix.foreign_path": "mix.foreign_source"}


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, dict[str, str]]:
    """Raw section/key/value strings with strict validation against the schema."""
    raw: dict[str, dict[str, str]] = {}
    section: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"{origin}:{lineno}: unknown section [{section}]")
            raw.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA[section]:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r} in [{section}]")
        if key in raw[section]:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r} in [{section}]")
        raw[section][key] = value
    return raw


def apply_overrides(raw: dict[str, dict[str, str]], overrides) -> None:
    """Apply ``section.key=value`` strings (command-line flags) onto raw config."""
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown override target {dotted!r}")
        raw.setdefault(section, {})[key] = value


@dataclass
class RunConfig:
    values: dict[str, dict[str, object]]
    input_dim: int = field(init=False)  # the train set's width

    def __post_init__(self):
        """The train width, read once (``data.dims`` or the train file's header),
        the default of ``mix.foreign_classes`` (``data.n_classes``, or the
        number of classes ``data.schedule`` names for a file source), and the
        cross-key rules, before any data is built: mix fractions sum to <= 1;
        generated sets have simplex-vertex class means (train width >=
        classes); the schedule names generated classes; generated rows that
        may be corrupted are clipped into [0, 1]; a path key is set only
        under its file source; [loop] is valid."""
        d, m = self.values["data"], self.values["mix"]
        for path_key, source_key in _PATH_SOURCES.items():
            if self[path_key] is not None and self[source_key] != "file":
                raise ConfigError(f"{path_key} is set but {source_key} is "
                                  f"{self[source_key]}: the run would not read it")
        if m["corrupted_fraction"] + m["ood_fraction"] > 1:
            raise ConfigError(f"mix.corrupted_fraction {m['corrupted_fraction']} + "
                              f"mix.ood_fraction {m['ood_fraction']} exceeds 1")
        generated = {}
        scheduled = {c for group in d["schedule"] for c in group}
        if d["source"] == "file":
            train = self._path("data.train_path")
            self.input_dim = DatasetFile(train).width
            self._train_key = f"data.train_path {train!r}"
            m["foreign_classes"] = m["foreign_classes"] or len(scheduled)
        else:
            self.input_dim = d["dims"]
            self._train_key = "data.dims"
            generated["data.n_classes"] = d["n_classes"]
            m["foreign_classes"] = m["foreign_classes"] or d["n_classes"]
            if m["corrupted_fraction"] > 0 and not d["clip_unit"]:
                raise ConfigError(f"mix.corrupted_fraction {m['corrupted_fraction']} "
                                  f"corrupts rows in [0, 1], which generated rows keep "
                                  f"only with data.clip_unit = true")
        if m["ood_fraction"] > 0 and m["foreign_source"] == "synthetic":
            generated["mix.foreign_classes"] = m["foreign_classes"]
        for key, n_classes in generated.items():
            if self.input_dim < n_classes:
                raise ConfigError(f"the train set's width {self.input_dim} "
                                  f"({self._train_key}) is below {key} {n_classes}")
        outside = scheduled - set(range(d["n_classes"]))
        if "data.n_classes" in generated and outside:
            raise ConfigError(f"data.schedule names classes {sorted(outside)} outside "
                              f"data.n_classes {d['n_classes']}")
        self.loop_config()

    def __getitem__(self, dotted: str):
        section, key = dotted.split(".", 1)
        return self.values[section][key]

    # -- assembly ----------------------------------------------------------

    @property
    def seed(self) -> int:
        return int(self["run.seed"])

    @property
    def seeds(self) -> list[int]:
        return list(self["run.seeds"]) if self["run.seeds"] is not None else [self.seed]

    def loop_config(self, seed: int | None = None) -> LoopConfig:
        """The loop's settings: the [loop] and [optimizer] keys named like a
        ``LoopConfig`` field, the bootstrap's three keys and the seed."""
        loop = self.values["loop"]
        names = {f.name for f in fields(LoopConfig)}
        settings = {key: value for section in ("loop", "optimizer")
                    for key, value in self.values[section].items() if key in names}
        try:
            bootstrap = ThresholdConfig(loop["bootstrap_k"],
                                        loop["bootstrap_size"] or loop["ood_batch_size"],
                                        loop["bootstrap_alpha"])
            return LoopConfig(**settings, bootstrap=bootstrap,
                              seed=self.seed if seed is None else seed)
        except ValueError as exc:  # LoopConfig / ThresholdConfig validation
            raise ConfigError(f"bad [loop] setting: {exc}") from exc

    def _data_seeds(self, seed: int) -> np.ndarray:
        return np.random.SeedSequence([seed, 1]).generate_state(5)

    def _path(self, dotted: str) -> str:
        """The file under key ``dotted``, which its file source requires."""
        path = self[dotted]
        if path is None:
            raise ConfigError(f"{_PATH_SOURCES[dotted]}=file requires {dotted}")
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
        d = self.values["data"]
        train_seed, test_seed = (int(s) for s in self._data_seeds(seed)[:2])
        if d["source"] == "file":
            test_path = self._checked_path("data.test_path")
            train_path = self._path("data.train_path")
            train, test = load_dataset(train_path), load_dataset(test_path)
            unlisted = {c for group in d["schedule"] for c in group} - set(train.classes())
            if unlisted:
                raise ConfigError(f"data.train_path {train_path!r} has no rows of "
                                  f"data.schedule classes {sorted(unlisted)}")
            if not np.isin(test.labels, d["schedule"][0]).any():
                raise ConfigError(f"data.test_path {test_path!r} has no rows of the "
                                  f"pretraining classes {d['schedule'][0]} (data.schedule)")
            return train, test
        n_train = d["train_per_class"] * d["n_classes"]
        n_test = d["test_per_class"] * d["n_classes"]
        train = synth_generate(d["n_classes"], d["dims"], d["separation"],
                               d["within_std"], n_train, train_seed, d["clip_unit"])
        test = synth_generate(d["n_classes"], d["dims"], d["separation"],
                              d["within_std"], n_test, test_seed, d["clip_unit"])
        return train, test

    def foreign_dataset(self, seed: int) -> Dataset | None:
        """Foreign rows for the mix, or None without them. They have the train
        set's width (``data.dims`` or the train file's)."""
        m, d = self.values["mix"], self.values["data"]
        if m["ood_fraction"] <= 0.0:
            return None
        if m["foreign_source"] == "file":
            return load_dataset(self._checked_path("mix.foreign_path"))
        foreign_seed = int(self._data_seeds(seed)[4])
        classes = m["foreign_classes"]
        std = m["foreign_std"] if m["foreign_std"] is not None else d["within_std"]
        return synth_generate(classes, self.input_dim,
                              d["separation"] * m["foreign_separation_scale"],
                              std, m["foreign_per_class"] * classes, foreign_seed)

    def mix_spec(self, seed: int) -> MixSpec | None:
        m = self.values["mix"]
        if m["corrupted_fraction"] <= 0.0 and m["ood_fraction"] <= 0.0:
            return None
        return MixSpec(m["corrupted_fraction"], m["ood_fraction"], m["corruption"],
                       m["severity"], self.foreign_dataset(seed))

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

    def build_network(self, seed: int | None = None, class_ids=None) -> Network:
        seed = self.seed if seed is None else seed
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        if class_ids is None:
            class_ids = sorted(self["data.schedule"][0])
        return build_mlp(self.input_dim, self["network.hidden"], len(class_ids), rng,
                         eps=self["network.bn_eps"],
                         stat_momentum=self["network.bn_momentum"],
                         class_ids=class_ids)


def load_run_config(path: str, overrides=None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read(), origin=path)
    apply_overrides(raw, overrides)
    values: dict[str, dict[str, object]] = {}
    for section, keys in SCHEMA.items():
        values[section] = {}
        for key, (parser, default) in keys.items():
            raw_value = raw.get(section, {}).get(key)
            if raw_value is None:
                if default is _REQUIRED:
                    raise ConfigError(f"missing required key {section}.{key}")
                values[section][key] = default
            else:
                try:
                    values[section][key] = parser(raw_value)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
    return RunConfig(values)
