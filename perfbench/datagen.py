"""Seeded synthetic tabular sets for the benchmark.

``write_dataset`` writes exactly two files, a CSV and a schema, and those
are the only inputs the program receives (through ``load_schema`` and
``load_csv``). The same arguments always give byte-identical files.

Make-up of a set with L features:

* Features follow the six-slot pattern ``num num cat | cat num num``.
  Categoricals come in adjacent pairs that straddle depth-3 group
  boundaries, so each depth-3 group (features 3k to 3k+2) holds two
  numeric features and one categorical.
* Feature 3 is a binary categorical and ``immutable``; every other
  feature is ``mutable``.
* Labels are drawn first (half ``approved``), then each feature from a
  class-conditional distribution. Numeric features are normal with a
  per-feature class shift, rounded to whole numbers in ``[0, 100]``.
  Categorical features have 3 or 4 levels. Each level gets a fixed
  number of approved and denied rows, set from per-level approval rates
  spread evenly over [0.15, 0.85], and the rows are shuffled within each
  class. No two levels therefore share a target rate: the encoder
  documents that such levels cannot both round-trip.
* The per-feature distributions come from ``DESIGN_SEED`` and the rows
  from the seed argument, so every seed draws a sample of one population.

``write_dataset(seed, rows, features, out_dir)`` is the seeded generator;
``run.py`` calls it with the workload's size and the run's ``--seed``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

TARGET = "loan"
TARGET_CLASS = "approved"
OTHER_CLASS = "denied"

_PATTERN = ("num", "num", "cat", "cat", "num", "num")
_LEVELS = (3, 4)
_NUM_LO, _NUM_HI = 0.0, 100.0
# Seeds the per-feature distributions, which every set shares.
DESIGN_SEED = 20230928


def _split(total: int, shares: np.ndarray) -> np.ndarray:
    """Integer counts proportional to ``shares`` that sum to ``total``."""
    counts = np.floor(shares * total).astype(int)
    counts[: total - counts.sum()] += 1
    return counts


def layout(n_features: int) -> list[tuple[str, str, str]]:
    """(name, kind, mutability) for each feature of an L-feature set."""
    out = []
    for i in range(n_features):
        kind = _PATTERN[i % len(_PATTERN)]
        immutable = i == 3
        name = f"{'n' if kind == 'num' else 'c'}{i:02d}{'_fixed' if immutable else ''}"
        out.append((name, "numeric" if kind == "num" else "categorical",
                    "immutable" if immutable else "mutable"))
    return out


def make_rows(seed: int, n_rows: int, n_features: int):
    """Return (schema entries, rows, labels); rows and labels drawn from ``seed``.

    The per-feature distributions depend only on the feature's position,
    so sets drawn with different seeds are samples of one population.
    """
    design = np.random.default_rng(DESIGN_SEED)
    rng = np.random.default_rng(seed)
    approved = rng.permutation(np.arange(n_rows) < n_rows // 2)
    schema, columns = [], []
    cat_count = 0
    for name, kind, mutability in layout(n_features):
        if kind == "numeric":
            center = design.uniform(40.0, 60.0)
            shift = design.uniform(-6.0, 6.0)
            scale = design.uniform(5.0, 7.0)
            values = center + np.where(approved, shift, -shift) / 2 + scale * rng.standard_normal(n_rows)
            columns.append(np.clip(np.round(values), _NUM_LO, _NUM_HI).tolist())
            schema.append({"name": name, "kind": kind, "mutability": mutability,
                           "domain": [_NUM_LO, _NUM_HI]})
            continue
        levels = 2 if mutability == "immutable" else _LEVELS[cat_count % len(_LEVELS)]
        cat_count += 1
        domain = [f"{name}_v{k}" for k in range(levels)]
        rate = np.linspace(0.15, 0.85, levels)[design.permutation(levels)]
        weight = design.uniform(0.7, 1.3, size=levels)
        codes = np.empty(n_rows, dtype=int)
        for cls, share in ((approved, weight * rate), (~approved, weight * (1 - rate))):
            counts = _split(int(cls.sum()), share / share.sum())
            codes[cls] = rng.permutation(np.repeat(np.arange(levels), counts))
        columns.append([domain[c] for c in codes])
        schema.append({"name": name, "kind": kind, "mutability": mutability, "domain": domain})
    labels = [TARGET_CLASS if a else OTHER_CLASS for a in approved]
    rows = [tuple(col[r] for col in columns) for r in range(n_rows)]
    return schema, rows, labels


def write_dataset(seed: int, n_rows: int, n_features: int, out_dir: str | Path) -> tuple[Path, Path]:
    """Write ``synthetic.csv`` and ``synthetic.schema.json`` under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    schema, rows, labels = make_rows(seed, n_rows, n_features)
    csv_path = out_dir / "synthetic.csv"
    schema_path = out_dir / "synthetic.schema.json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f["name"] for f in schema] + [TARGET])
        for row, label in zip(rows, labels):
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row] + [label])
    schema_path.write_text(json.dumps(schema, indent=1) + "\n", encoding="utf-8")
    return csv_path, schema_path

