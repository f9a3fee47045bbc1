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
_SCHEMA_FIELDS = ("name", "kind", "mutability", "domain")  # of a schema file entry
_JSON_KINDS = {dict: "object", list: "list", str: "string", float: "number"}


class SchemaViolationError(ValueError):
    """A schema, or data read against it, breaks the schema's rules."""


class CsvParseError(ValueError):
    """Malformed CSV input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class FeatureSchema:
    """One feature: name, categorical/numeric kind, mutability, and domain.

    ``domain`` is the category list for categorical features and a
    ``(min, max)`` pair of finite numbers (``is_number``) for numeric ones.
    """

    name: str
    kind: str
    mutability: str = MUTABLE
    domain: tuple = ()

    def __post_init__(self):
        json_value(self.name, str, "feature name", SchemaViolationError)
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise SchemaViolationError(f"unknown feature kind {self.kind!r} for {self.name!r}")
        if self.mutability not in (MUTABLE, IMMUTABLE):
            raise SchemaViolationError(f"unknown mutability {self.mutability!r} for {self.name!r}")
        if not isinstance(self.domain, (list, tuple)):
            raise SchemaViolationError(f"domain of {self.name!r} is not a list: {self.domain!r}")
        object.__setattr__(self, "domain", tuple(self.domain))
        if self.kind == CATEGORICAL:
            if not self.domain:
                raise SchemaViolationError(f"categorical feature {self.name!r} needs a non-empty domain")
            try:
                distinct = len(set(self.domain))
            except TypeError:
                raise SchemaViolationError(
                    f"a category of {self.name!r} is a list or an object: {self.domain!r}"
                ) from None
            if distinct != len(self.domain):
                raise SchemaViolationError(f"duplicate categories in domain of {self.name!r}")
        else:
            if len(self.domain) != 2:
                raise SchemaViolationError(f"numeric feature {self.name!r} needs a (min, max) domain")
            if not all(is_number(b) and math.isfinite(b) for b in self.domain):
                raise SchemaViolationError(f"numeric domain of {self.name!r} is not two finite numbers")
            lo, hi = self.domain
            if lo > hi:
                raise SchemaViolationError(f"numeric domain min > max for {self.name!r}")

    @property
    def immutable(self) -> bool:
        return self.mutability == IMMUTABLE


def is_number(value) -> bool:
    """An exact ``float``, or ``int`` below 2**1023 in size: ``true`` is no number."""
    return type(value) is float or type(value) is int and value.bit_length() < 1024


def json_value(value, kind: type, what: str, error: type[Exception]):
    """``value`` if its JSON kind is ``kind``: ``dict``, ``list``, ``str``, or
    ``float`` for a number by ``is_number``; else ``error`` naming ``what``."""
    if not (is_number(value) if kind is float else type(value) is kind):
        raise error(f"{what} must be a JSON {_JSON_KINDS[kind]}, got {value!r:.40}")
    return value


def read_json(path: str | Path, kind: type, what: str, error: type[Exception]):
    """The UTF-8 JSON file ``path``, its top level of the JSON kind ``kind`` by ``json_value``."""
    with open(path, encoding="utf-8") as fh:
        return json_value(json.load(fh), kind, what, error)


def load_schema(path: str | Path) -> tuple[FeatureSchema, ...]:
    """Read a schema file: a non-empty JSON list of objects, each with the fields name, kind,
    mutability and domain of a ``FeatureSchema``, categories as strings; other fields are ignored."""
    raw = read_json(path, list, "a schema file", SchemaViolationError)
    if not raw:
        raise SchemaViolationError("schema file must contain a non-empty JSON list of features")
    features = []
    for entry in raw:
        missing = set(_SCHEMA_FIELDS) - set(json_value(entry, dict, "each schema entry", SchemaViolationError))
        if missing:
            raise SchemaViolationError(f"schema entry missing fields: {sorted(missing)}")
        domain = json_value(entry["domain"], list, f"domain of {entry['name']!r}", SchemaViolationError)
        for category in domain if entry["kind"] == CATEGORICAL else ():  # only a string can match a CSV cell
            json_value(category, str, f"a category of {entry['name']!r}", SchemaViolationError)
        features.append(FeatureSchema(**{k: entry[k] for k in _SCHEMA_FIELDS}))
    return tuple(features)


@dataclass(frozen=True)
class Dataset:
    """Tabular data with a binary target and a desired class; feature names are
    distinct and not ``target_name``. ``load_csv`` checks each cell against the schema."""

    schema: tuple[FeatureSchema, ...]
    rows: tuple[tuple, ...]
    target: tuple
    target_name: str
    target_class: str
    dropped_rows: int = 0

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "target", tuple(self.target))
        if not self.schema:
            raise SchemaViolationError("schema has no features")
        names = [f.name for f in self.schema]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise SchemaViolationError(f"duplicate feature name {name!r} in schema")
        if self.target_name in names:
            raise SchemaViolationError(f"feature {self.target_name!r} has the target column's name")
        if len(self.rows) != len(self.target):
            raise SchemaViolationError("rows and target column differ in length")
        labels = set(self.target)
        if len(labels) != 2:
            raise SchemaViolationError(
                f"target column must contain exactly two labels, got {sorted(labels)}"
            )
        if self.target_class not in labels:
            raise SchemaViolationError(
                f"target_class {self.target_class!r} not present in target column"
            )
        object.__setattr__(self, "rows", tuple(self.rows))
        _check_widths(self.rows, len(self.schema), SchemaViolationError)

    def __len__(self) -> int:
        return len(self.rows)

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
    by the schema are ignored; a schema or target column that is missing, or
    named more than once, is an error. A cell outside its
    feature's domain, a non-finite number included, is a schema violation.
    """
    schema = tuple(schema)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError("empty file", line=1) from None
        header = [h.strip() for h in header]

        def position(name: str, what: str) -> int:
            copies = header.count(name)
            if copies != 1:
                where = "missing from" if copies == 0 else f"named {copies} times in"
                raise SchemaViolationError(f"{what} {name!r} {where} CSV header")
            return header.index(name)

        positions = {feat.name: position(feat.name, "column") for feat in schema}
        target_pos = position(target_name, "target column")

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
                if feat.kind == CATEGORICAL:
                    if value not in feat.domain:
                        raise SchemaViolationError(
                            f"value {value!r} not in domain of categorical feature {feat.name!r}"
                        )
                else:
                    try:
                        value = float(value)
                    except ValueError:
                        raise CsvParseError(
                            f"non-numeric value {value!r} for feature {feat.name!r}",
                            line=line_no,
                        ) from None
                    lo, hi = feat.domain
                    if not (math.isfinite(value) and lo <= value <= hi):
                        raise SchemaViolationError(
                            f"value {value!r} outside domain [{lo:g}, {hi:g}] "
                            f"of numeric feature {feat.name!r}"
                        )
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


def _check_widths(rows, width: int, error=ValueError) -> None:
    for row in rows:
        if len(row) != width:
            raise error(f"row has {len(row)} values, schema has {width}")


def _to_float(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _raw_column(feat: FeatureSchema, rates: dict | None, column: Sequence) -> np.ndarray:
    """One feature's cells as raw numbers: a categorical cell's rate in
    ``rates``, a numeric cell's ``float`` value. The first cell with no rate,
    or that is not a finite number, raises ``SchemaViolationError``."""
    if feat.kind == CATEGORICAL:
        for value in column:
            if value not in rates:
                raise SchemaViolationError(f"unseen category {value!r} for feature {feat.name!r}")
        return np.fromiter(map(rates.__getitem__, column), float, len(column))
    values = np.fromiter(map(_to_float, column), float, len(column))
    bad = ~np.isfinite(values)
    if bad.any():
        raise SchemaViolationError(
            f"value {column[bad.argmax()]!r} of numeric feature {feat.name!r} is not a finite number"
        )
    return values


def _scale(values, lo: float, hi: float):
    # Constant features collapse to 0.5 so cosine stays well defined.
    if hi == lo:
        return np.full(np.shape(values), 0.5)
    return (values - lo) / (hi - lo)


@dataclass(frozen=True)
class Encoder:
    """Deterministic target-rate + min-max encoder fitted on one Dataset.

    Categorical value -> mean(target == target_class) over its rows, then
    min-max to [0, 1]; numeric -> min-max over training rows, clamped for
    out-of-range inputs at encode time, while a value that is not a finite
    number raises ``SchemaViolationError``. ``encode_rows`` works column by
    column and reports the first bad cell in column order; ``encode`` is its
    one-row case. ``decode`` returns a fitted row's categories exactly, by a
    stored reverse map. A numeric comes back through the inverse affine map
    as a ``numpy.float64`` within rounding of the value, not always equal to
    it (in a column from 0 to 100, 62.46 decodes to 62.46000000000001 and 7
    to 7.000000000000001); a constant feature decodes to its one value.
    Two categories of one feature with the same target rate would encode
    identically and could not both round-trip, so fitting an encoder on
    them raises ``SchemaViolationError``.
    """

    schema: tuple[FeatureSchema, ...]
    category_rates: tuple  # per feature: dict[category -> raw rate] or None
    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    reverse_maps: tuple = field(repr=False)  # per feature: dict[encoded value -> category] or None

    def encode(self, row: Sequence) -> np.ndarray:
        return self.encode_rows([row])[0]

    def encode_rows(self, rows: Iterable[Sequence]) -> np.ndarray:
        rows = list(rows)
        _check_widths(rows, len(self.schema))  # zip(*rows) would cut a short row
        out = np.empty((len(rows), len(self.schema)))
        for i, (feat, column) in enumerate(zip(self.schema, zip(*rows))):
            raw = _raw_column(feat, self.category_rates[i], column)
            scaled = _scale(raw, self.mins[i], self.maxs[i])
            if feat.kind == NUMERIC:
                scaled[scaled < 0.0] = 0.0
                scaled[scaled > 1.0] = 1.0
            out[:, i] = scaled
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
            elif self.maxs[i] == self.mins[i]:
                row.append(self.mins[i])
            else:
                row.append(vector[i] * (self.maxs[i] - self.mins[i]) + self.mins[i])
        return tuple(row)


def fit_encoder(data: Dataset) -> Encoder:
    """Fit the target-rate + min-max encoder on every row of ``data``.

    A numeric cell that is not a finite number is a schema violation; the
    first one in column order is reported, as is a column whose max - min overflows.
    """
    hits = np.array([1.0 if t == data.target_class else 0.0 for t in data.target])
    rates, mins, maxs = [], [], []
    for feat, column in zip(data.schema, zip(*data.rows)):
        rate_map = None
        if feat.kind == CATEGORICAL:
            # Codes in order of first appearance keep that order in the dict;
            # sums of 0/1 hits are exact, so each rate is the exact mean.
            first = {value: code for code, value in enumerate(dict.fromkeys(column))}
            codes = np.fromiter(map(first.__getitem__, column), np.intp, len(column))
            means = np.bincount(codes, weights=hits) / np.bincount(codes)
            rate_map = dict(zip(first, means.tolist()))
        raw = _raw_column(feat, rate_map, column)
        rates.append(rate_map)
        mins.append(float(raw[raw.argmin()]))  # the first minimum, as min() gives
        maxs.append(float(raw[raw.argmax()]))
    reverse_maps = []
    for feat, rate_map, lo, hi in zip(data.schema, rates, mins, maxs):
        if not math.isfinite(hi - lo):
            raise SchemaViolationError(f"numeric feature {feat.name!r} spans {lo:g} to {hi:g}, too wide to scale")
        reverse = None if rate_map is None else {}
        for category, rate in (rate_map or {}).items():
            key = float(_scale(rate, lo, hi))
            if key in reverse:
                raise SchemaViolationError(
                    f"categories {reverse[key]!r} and {category!r} of feature {feat.name!r} "
                    "have the same target rate and could not be told apart when decoding"
                )
            reverse[key] = category
        reverse_maps.append(reverse)
    return Encoder(tuple(data.schema), tuple(rates), tuple(mins), tuple(maxs), tuple(reverse_maps))


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
    def target_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The target-class row indices, ascending, and those rows; read-only."""
        indices = np.flatnonzero(self.target_mask())
        rows = self.X[indices]
        indices.flags.writeable = rows.flags.writeable = False
        return indices, rows

    @cached_property
    def target_centroid(self) -> np.ndarray:
        """Componentwise mean of the target-class rows."""
        rows = self.target_rows[1]
        if len(rows) == 0:
            raise ValueError("no target-class rows to average")
        return rows.mean(axis=0)

    @cached_property
    def centroid_distances(self) -> np.ndarray:
        """Each target-class row's Euclidean distance to ``target_centroid``,
        in ``target_rows`` order; read-only."""
        to_center = euclidean(self.target_rows[1], self.target_centroid)
        to_center.flags.writeable = False
        return to_center

    @cached_property
    def centroid_neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """The target-class rows in stable order of ``centroid_distances``,
        and those distances."""
        order = np.argsort(self.centroid_distances, kind="stable")
        return self.target_rows[1][order], self.centroid_distances[order]


def encode_dataset(encoder: Encoder, data: Dataset) -> EncodedDataset:
    X = encoder.encode_rows(data.rows)
    y = np.array(data.target, dtype=object)
    return EncodedDataset(X=X, y=y, target_class=data.target_class, schema=tuple(data.schema))
