"""Experiment configuration: a strict sectioned key = value file format.

Sections in square brackets, ``key = value`` lines, ``#`` comments. Unknown
sections or keys are hard errors so typos cannot silently change a run. All
randomness derives from the single ``run.seed`` through named substreams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import VARIANTS, LoopConfig
from .nn import Network, build_mlp
from .ood import ThresholdConfig
from .stream import (CORRUPTION_KINDS, Dataset, MixSpec, SplitTasks, load_dataset,
                     split_experiment, synth_generate)


class ConfigError(ValueError):
    """Unparseable, unknown, or missing configuration."""


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


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


def _at_least_one(parse):
    return _checked(parse, ">= 1", lambda v: v >= 1)


_POSITIVE = _checked(float, "> 0", lambda v: v > 0)
_NONNEGATIVE = _checked(float, ">= 0", lambda v: v >= 0)
_FRACTION = _checked(float, "in [0, 1]", lambda v: (v >= 0) & (v <= 1))


def _parse_schedule(raw: str) -> list[list[int]]:
    timesteps = [part for part in raw.split("|")]
    schedule = [_parse_int_list(part) for part in timesteps]
    if any(not classes for classes in schedule):
        raise ConfigError("schedule timesteps must be nonempty")
    return schedule


def _choice(options):
    def parse(raw: str) -> str:
        value = raw.strip()
        if value not in options:
            raise ConfigError(f"expected one of {options}, got {value!r}")
        return value
    return parse


# (parser, default) — default None with no parser output means "required".
_REQUIRED = object()

SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "variant": (_choice(tuple(VARIANTS)), "full"),
        "seed": (int, 0),
        "seeds": (_parse_int_list, None),  # ablation sweeps; defaults to [seed]
        "output_dir": (str, "runs/out"),
    },
    "network": {
        "hidden": (_at_least_one(_parse_int_list), _REQUIRED),
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
        "ood_batch_size": (_at_least_one(int), 8),
        "epochs_per_update": (int, 1),
        "pretrain_epochs": (int, 30),
        "baseline_epochs_per_task": (int, None),
        "minibatch_size": (int, 256),
        "bootstrap_k": (int, 100),
        "bootstrap_size": (int, None),  # defaults to ood_batch_size
        "bootstrap_alpha": (float, 0.99),
        "eval_every_update": (_parse_bool, True),
    },
    "data": {
        "source": (_choice(("synthetic", "file")), "synthetic"),
        "schedule": (_parse_schedule, _REQUIRED),
        "n_classes": (int, 10),
        "dims": (int, 16),
        "separation": (_POSITIVE, 0.3),
        "within_std": (_NONNEGATIVE, 0.05),
        "train_per_class": (_at_least_one(int), 400),
        "test_per_class": (_at_least_one(int), 200),
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
        "foreign_classes": (int, None),  # defaults to n_classes
        "foreign_separation_scale": (float, 20.0),
        "foreign_std": (float, None),  # defaults to within_std
        "foreign_per_class": (int, 200),
    },
}


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
    values: dict[str, dict[str, object]] = field(default_factory=dict)

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
        v = self.values
        bootstrap_size = v["loop"]["bootstrap_size"]
        if bootstrap_size is None:
            bootstrap_size = v["loop"]["ood_batch_size"]
        try:
            return LoopConfig(
                acquisition_batch=v["loop"]["acquisition_batch"],
                buffer_capacity=v["loop"]["buffer_capacity"],
                epochs_per_update=v["loop"]["epochs_per_update"],
                pretrain_epochs=v["loop"]["pretrain_epochs"],
                minibatch_size=v["loop"]["minibatch_size"],
                bootstrap=ThresholdConfig(v["loop"]["bootstrap_k"], bootstrap_size,
                                          v["loop"]["bootstrap_alpha"]),
                learning_rate=v["optimizer"]["learning_rate"],
                momentum=v["optimizer"]["momentum"],
                weight_decay=v["optimizer"]["weight_decay"],
                eval_every_update=v["loop"]["eval_every_update"],
                baseline_epochs_per_task=v["loop"]["baseline_epochs_per_task"],
                seed=self.seed if seed is None else seed,
            )
        except ValueError as exc:  # LoopConfig / ThresholdConfig validation
            raise ConfigError(f"bad [loop] setting: {exc}") from exc

    def _data_seeds(self, seed: int) -> np.ndarray:
        return np.random.SeedSequence([seed, 1]).generate_state(5)

    def train_test_datasets(self, seed: int) -> tuple[Dataset, Dataset]:
        d = self.values["data"]
        train_seed, test_seed = (int(s) for s in self._data_seeds(seed)[:2])
        if d["source"] == "file":
            for key in ("train_path", "test_path"):
                if d[key] is None:
                    raise ConfigError(f"data.source=file requires data.{key}")
            return load_dataset(d["train_path"]), load_dataset(d["test_path"])
        n_train = d["train_per_class"] * d["n_classes"]
        n_test = d["test_per_class"] * d["n_classes"]
        train = synth_generate(d["n_classes"], d["dims"], d["separation"],
                               d["within_std"], n_train, train_seed, d["clip_unit"])
        test = synth_generate(d["n_classes"], d["dims"], d["separation"],
                              d["within_std"], n_test, test_seed, d["clip_unit"])
        return train, test

    def foreign_dataset(self, seed: int) -> Dataset | None:
        m, d = self.values["mix"], self.values["data"]
        if m["ood_fraction"] <= 0.0:
            return None
        if m["foreign_source"] == "file":
            if m["foreign_path"] is None:
                raise ConfigError("mix.foreign_source=file requires mix.foreign_path")
            return load_dataset(m["foreign_path"])
        foreign_seed = int(self._data_seeds(seed)[4])
        classes = m["foreign_classes"] or d["n_classes"]
        std = m["foreign_std"] if m["foreign_std"] is not None else d["within_std"]
        return synth_generate(classes, d["dims"],
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
        return split_experiment(train, test, self["data.schedule"],
                                self["loop.ood_batch_size"], split_seed,
                                self.mix_spec(seed))

    def input_dim(self) -> int:
        d = self.values["data"]
        if d["source"] == "file":
            return load_dataset(d["train_path"]).feature_dim
        return int(d["dims"])

    def build_network(self, seed: int | None = None, n_classes: int | None = None,
                      class_ids: list[int] | None = None) -> Network:
        seed = self.seed if seed is None else seed
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        if class_ids is None:
            class_ids = sorted(self["data.schedule"][0])
        if n_classes is None:
            n_classes = len(class_ids)
        return build_mlp(self.input_dim(), self["network.hidden"], n_classes, rng,
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
                except ConfigError:
                    raise
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
    return RunConfig(values)
