"""Test configs as flat ``section.key`` dicts.

A test states a config as ``BASE`` plus the keys it is about; every other key
takes its ``SCHEMA`` default. Values are the strings ``--set`` takes, so a dict
rendered as config text (``config_text``) and as flags (``set_flags``) loads
the same values. Not a test module: pytest does not collect this file.
"""

import os

# The two keys without a default.
BASE = {"network.hidden": "4", "data.schedule": "0,1 | 2,3"}

# The [data] keys a synthetic source reads; a file source reads its rows
# instead. Listed here, not taken from ``READ_WHEN``, which the tests check.
SYNTHETIC_DATA = ("data.n_classes", "data.dims", "data.separation", "data.within_std",
                  "data.train_per_class", "data.test_per_class", "data.clip_unit")


def config_text(settings: dict) -> str:
    """``settings`` as a config file: each section's header, then its
    ``key = value`` lines."""
    sections: dict[str, list[str]] = {}
    for dotted, value in settings.items():
        section, key = dotted.split(".", 1)
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{section}]\n{''.join(lines)}" for section, lines in sections.items())


def set_flags(settings: dict) -> list[str]:
    """``settings`` as ``--set section.key=value`` argv."""
    return [flag for dotted, value in settings.items()
            for flag in ("--set", f"{dotted}={value}")]


def write_config(directory, settings: dict, name: str = "run.cfg") -> str:
    """Write ``settings`` as the config file ``name`` in ``directory``; its path."""
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_text(settings))
    return path


def file_source(settings: dict, train, test) -> dict:
    """``settings`` for a run that reads its train and test rows from the
    files ``train`` and ``test``."""
    kept = {key: value for key, value in settings.items() if key not in SYNTHETIC_DATA}
    return {**kept, "data.source": "file", "data.train_path": str(train),
            "data.test_path": str(test)}
