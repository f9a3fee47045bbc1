"""Bundled datasets and schemas.

``synthetic_credit`` is a 200-row desk-scale loan dataset generated for
tests and demos: three categorical features (one immutable), three numeric
features, binary target ``loan`` with desired class ``approved``.

``public/`` holds schema files for five commonly used public tabular
datasets. The data files themselves are not vendored; point the loaders at
your own copies (standard published column layouts assumed).
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from ..tabular import Dataset, load_csv, load_schema

SYNTHETIC_TARGET = "loan"
SYNTHETIC_TARGET_CLASS = "approved"


def bundled_path(name: str) -> Path:
    """Absolute path of a bundled data file, e.g. ``synthetic_credit.csv``."""
    path = Path(str(resources.files(__package__) / name))
    if not path.exists():
        raise FileNotFoundError(f"no bundled file named {name!r}")
    return path


def synthetic_paths() -> tuple[Path, Path]:
    """(csv, schema) paths of the bundled synthetic credit dataset."""
    return bundled_path("synthetic_credit.csv"), bundled_path("synthetic_credit.schema.json")


def load_synthetic() -> Dataset:
    csv_path, schema_path = synthetic_paths()
    return load_csv(csv_path, load_schema(schema_path), SYNTHETIC_TARGET, SYNTHETIC_TARGET_CLASS)
