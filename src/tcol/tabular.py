"""Tabular dataset schema, CSV ingestion, and target-rate encoding.

Everything downstream (scoring, models, metrics) operates on numeric
vectors in [0, 1]^L produced by the Encoder. Categorical features are
target-encoded (per-category mean rate of the desired class), then every
feature is min-max scaled over the training rows. An encoded vector is a
plain ``numpy.ndarray`` of length L; provenance (query / prototype /
candidate / ce) is carried by the structures that hold the vector, not by
the array itself.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .scoring import euclidean

CATEGORICAL = "categorical"
NUMERIC = "numeric"
MUTABLE = "mutable"
IMMUTABLE = "immutable"


class SchemaViolationError(ValueError):
    """A row value does not conform to the feature schema."""


class CsvParseError(ValueError):
    """Malformed CSV input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class FeatureSchema:
    """One feature: name, categorical/numeric kind, mutability, and domain.

    ``domain`` is the category list for categorical features and a
    ``(min, max)`` pair for numeric ones.
    """

    name: str
    kind: str
    mutability: str = MUTABLE
    domain: tuple = ()

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise ValueError(f"unknown feature kind {self.kind!r} for {self.name!r}")
        if self.mutability not in (MUTABLE, IMMUTABLE):
            raise ValueError(f"unknown mutability {self.mutability!r} for {self.name!r}")
        object.__setattr__(self, "domain", tuple(self.domain))
        if self.kind == CATEGORICAL:
            if not self.domain:
                raise ValueError(f"categorical feature {self.name!r} needs a non-empty domain")
            if len(set(self.domain)) != len(self.domain):
                raise ValueError(f"duplicate categories in domain of {self.name!r}")
        else:
            if len(self.domain) != 2:
                raise ValueError(f"numeric feature {self.name!r} needs a (min, max) domain")
            lo, hi = self.domain
            if float(lo) > float(hi):
                raise ValueError(f"numeric domain min > max for {self.name!r}")

    @property
    def immutable(self) -> bool:
        return self.mutability == IMMUTABLE


def load_schema(path: str | Path) -> tuple[FeatureSchema, ...]:
    """Read a schema file: a JSON list of {name, kind, mutability, domain}."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise SchemaViolationError("schema file must contain a JSON list of features")
    features = []
    for entry in raw:
        missing = {"name", "kind", "mutability", "domain"} - set(entry)
        if missing:
            raise SchemaViolationError(f"schema entry missing fields: {sorted(missing)}")
        features.append(
            FeatureSchema(
                name=entry["name"],
                kind=entry["kind"],
                mutability=entry["mutability"],
                domain=tuple(entry["domain"]),
            )
        )
    return tuple(features)


def dump_schema(schema: Sequence[FeatureSchema], path: str | Path) -> None:
    payload = [
        {"name": f.name, "kind": f.kind, "mutability": f.mutability, "domain": list(f.domain)}
        for f in schema
    ]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _conform(value, feat: FeatureSchema):
    """Validate and normalize one raw value against its feature schema."""
    if feat.kind == CATEGORICAL:
        if value not in feat.domain:
            raise SchemaViolationError(
                f"value {value!r} not in domain of categorical feature {feat.name!r}"
            )
        return value
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise SchemaViolationError(
            f"value {value!r} is not numeric for feature {feat.name!r}"
        ) from None
    lo, hi = float(feat.domain[0]), float(feat.domain[1])
    if not (math.isfinite(number) and lo <= number <= hi):
        raise SchemaViolationError(
            f"value {value!r} outside domain [{lo:g}, {hi:g}] of numeric feature {feat.name!r}"
        )
    return number


@dataclass(frozen=True)
class Dataset:
    """Validated tabular data with a binary target and a desired class."""

    schema: tuple[FeatureSchema, ...]
    rows: tuple[tuple, ...]
    target: tuple
    target_name: str
    target_class: str
    dropped_rows: int = 0

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "target", tuple(self.target))
        if len(self.rows) != len(self.target):
            raise ValueError("rows and target column differ in length")
        labels = set(self.target)
        if len(labels) != 2:
            raise ValueError(f"target column must contain exactly two labels, got {sorted(labels)}")
        if self.target_class not in labels:
            raise ValueError(f"target_class {self.target_class!r} not present in target column")
        checked = []
        for row in self.rows:
            if len(row) != len(self.schema):
                raise SchemaViolationError(
                    f"row has {len(row)} values, schema has {len(self.schema)}"
                )
            checked.append(tuple(_conform(v, f) for v, f in zip(row, self.schema)))
        object.__setattr__(self, "rows", tuple(checked))

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def other_class(self) -> str:
        return next(c for c in set(self.target) if c != self.target_class)

    def row_as_dict(self, index: int) -> dict:
        return dict(zip([f.name for f in self.schema], self.rows[index]))


def load_csv(
    path: str | Path,
    schema: Sequence[FeatureSchema],
    target_name: str,
    target_class: str,
) -> Dataset:
    """Load a comma-separated UTF-8 file with a header row into a Dataset.

    Rows containing a null (empty cell) in any schema or target column are
    dropped and counted in ``Dataset.dropped_rows``. Extra columns not named
    by the schema are ignored; missing ones are an error.
    """
    schema = tuple(schema)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError("empty file", line=1) from None
        header = [h.strip() for h in header]
        positions = {}
        for feat in schema:
            if feat.name not in header:
                raise SchemaViolationError(f"column {feat.name!r} missing from CSV header")
            positions[feat.name] = header.index(feat.name)
        if target_name not in header:
            raise SchemaViolationError(f"target column {target_name!r} missing from CSV header")
        target_pos = header.index(target_name)

        rows, labels, dropped = [], [], 0
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise CsvParseError(
                    f"expected {len(header)} fields, got {len(record)}", line=line_no
                )
            used = [record[positions[f.name]].strip() for f in schema]
            label = record[target_pos].strip()
            if any(v == "" for v in used) or label == "":
                dropped += 1
                continue
            row = []
            for value, feat in zip(used, schema):
                if feat.kind == NUMERIC:
                    try:
                        value = float(value)
                    except ValueError:
                        raise CsvParseError(
                            f"non-numeric value {value!r} for feature {feat.name!r}",
                            line=line_no,
                        ) from None
                row.append(value)
            rows.append(tuple(row))
            labels.append(label)

    return Dataset(
        schema=schema,
        rows=tuple(rows),
        target=tuple(labels),
        target_name=target_name,
        target_class=target_class,
        dropped_rows=dropped,
    )


def _scale(value: float, lo: float, hi: float) -> float:
    # Constant features collapse to 0.5 so cosine stays well defined.
    if hi == lo:
        return 0.5
    return (value - lo) / (hi - lo)


@dataclass(frozen=True)
class Encoder:
    """Deterministic target-rate + min-max encoder fitted on one Dataset.

    Categorical value -> mean(target == target_class) over its rows, then
    min-max to [0, 1]; numeric -> min-max over training rows, clamped for
    out-of-range inputs at encode time. ``decode`` inverts exactly for the
    fitted rows: categorical by a stored reverse map, numeric by the inverse
    affine map. Two categories of one feature with the same target rate
    would encode identically and could not both round-trip, so building an
    encoder from them (``fit_encoder`` or ``from_json``) raises
    ``SchemaViolationError``.
    """

    schema: tuple[FeatureSchema, ...]
    category_rates: tuple  # per feature: dict[category -> raw rate] or None
    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    reverse_maps: tuple = field(repr=False, default=())

    def encode(self, row: Sequence) -> np.ndarray:
        if len(row) != len(self.schema):
            raise ValueError(f"row has {len(row)} values, schema has {len(self.schema)}")
        out = np.empty(len(row), dtype=float)
        for i, (value, feat) in enumerate(zip(row, self.schema)):
            if feat.kind == CATEGORICAL:
                rates = self.category_rates[i]
                if value not in rates:
                    raise SchemaViolationError(
                        f"unseen category {value!r} for feature {feat.name!r}"
                    )
                out[i] = _scale(rates[value], self.mins[i], self.maxs[i])
            else:
                v = _scale(float(value), self.mins[i], self.maxs[i])
                out[i] = min(max(v, 0.0), 1.0)
        return out

    def decode(self, vector: Sequence[float]) -> tuple:
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (len(self.schema),):
            raise ValueError("vector length does not match schema")
        row = []
        for i, feat in enumerate(self.schema):
            if feat.kind == CATEGORICAL:
                rev = self.reverse_maps[i]
                key = float(vector[i])
                if key not in rev:
                    raise ValueError(
                        f"component {key!r} of feature {feat.name!r} matches no fitted category"
                    )
                row.append(rev[key])
            else:
                if self.maxs[i] == self.mins[i]:
                    row.append(self.mins[i])
                else:
                    row.append(vector[i] * (self.maxs[i] - self.mins[i]) + self.mins[i])
        return tuple(row)

    def encode_rows(self, rows: Iterable[Sequence]) -> np.ndarray:
        return np.array([self.encode(r) for r in rows], dtype=float)

    def to_json(self, path: str | Path) -> None:
        payload = {
            "format_version": 1,
            "features": [
                {
                    "name": f.name,
                    "kind": f.kind,
                    "mutability": f.mutability,
                    "domain": list(f.domain),
                    "category_rates": self.category_rates[i],
                    "min": self.mins[i],
                    "max": self.maxs[i],
                }
                for i, f in enumerate(self.schema)
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def from_json(cls, path: str | Path) -> "Encoder":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("format_version") != 1:
            raise ValueError("unsupported encoder file version")
        schema, rates, mins, maxs = [], [], [], []
        for entry in payload["features"]:
            schema.append(
                FeatureSchema(
                    name=entry["name"],
                    kind=entry["kind"],
                    mutability=entry["mutability"],
                    domain=tuple(entry["domain"]),
                )
            )
            rates.append(entry["category_rates"])
            mins.append(float(entry["min"]))
            maxs.append(float(entry["max"]))
        return cls._assemble(tuple(schema), tuple(rates), tuple(mins), tuple(maxs))

    @classmethod
    def _assemble(cls, schema, rates, mins, maxs) -> "Encoder":
        reverse = []
        for i, feat in enumerate(schema):
            if feat.kind != CATEGORICAL:
                reverse.append(None)
                continue
            rev = {}
            for category, rate in rates[i].items():
                key = float(_scale(rate, mins[i], maxs[i]))
                if key in rev:
                    raise SchemaViolationError(
                        f"categories {rev[key]!r} and {category!r} of feature {feat.name!r} "
                        "have the same target rate and could not be told apart when decoding"
                    )
                rev[key] = category
            reverse.append(rev)
        return cls(
            schema=schema,
            category_rates=rates,
            mins=mins,
            maxs=maxs,
            reverse_maps=tuple(reverse),
        )


def fit_encoder(data: Dataset) -> Encoder:
    """Fit the target-rate + min-max encoder on every row of ``data``."""
    if len(data) == 0:
        raise ValueError("cannot fit an encoder on an empty dataset")
    hits = np.array([1.0 if t == data.target_class else 0.0 for t in data.target])
    rates, mins, maxs = [], [], []
    for i, feat in enumerate(data.schema):
        column = [row[i] for row in data.rows]
        if feat.kind == CATEGORICAL:
            per_category: dict = {}
            for value, hit in zip(column, hits):
                per_category.setdefault(value, []).append(hit)
            rate_map = {v: float(np.mean(h)) for v, h in per_category.items()}
            rates.append(rate_map)
            encoded = [rate_map[v] for v in column]
        else:
            rates.append(None)
            encoded = [float(v) for v in column]
        mins.append(float(min(encoded)))
        maxs.append(float(max(encoded)))
    return Encoder._assemble(tuple(data.schema), tuple(rates), tuple(mins), tuple(maxs))


@dataclass(frozen=True)
class EncodedDataset:
    """Matrix view of an encoded Dataset: rows of [0,1]^L plus labels."""

    X: np.ndarray
    y: np.ndarray
    target_class: str
    schema: tuple[FeatureSchema, ...]

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[0] != len(self.y):
            raise ValueError("X and y shapes do not match")
        if self.X.shape[1] != len(self.schema):
            raise ValueError("X width does not match schema length")

    def __len__(self) -> int:
        return len(self.y)

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def target_mask(self) -> np.ndarray:
        return self.y == self.target_class

    def immutable_mask(self) -> np.ndarray:
        return np.array([f.immutable for f in self.schema], dtype=bool)

    @cached_property
    def target_centroid(self) -> np.ndarray:
        """Componentwise mean of the target-class rows."""
        rows = self.X[self.target_mask()]
        if len(rows) == 0:
            raise ValueError("no target-class rows to average")
        return rows.mean(axis=0)

    @cached_property
    def centroid_neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """The target-class rows in stable order of Euclidean distance to
        ``target_centroid``, and those distances."""
        rows = self.X[self.target_mask()]
        to_center = euclidean(rows, self.target_centroid)
        order = np.argsort(to_center, kind="stable")
        return rows[order], to_center[order]


def encode_dataset(encoder: Encoder, data: Dataset) -> EncodedDataset:
    X = encoder.encode_rows(data.rows)
    y = np.array(data.target, dtype=object)
    return EncodedDataset(X=X, y=y, target_class=data.target_class, schema=tuple(data.schema))
