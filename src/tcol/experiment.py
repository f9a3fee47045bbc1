"""End-to-end experiment harness: config, baselines, orchestration, reports.

``load`` and ``check_limits``, the set-up of every command, read a data set
and refuse settings past its limits. ``run_experiment`` then fits the
validation model (random forest) and the cross-validated jury, samples
seeded non-target query rows, generates counterfactual sets, times the
generation, and aggregates the full metric suite into one report row per
(generator, preference). T-COL runs once per preference. Neither baseline
reads the preference, so a baseline runs once, under the first preference,
and its row is repeated under every preference. Each run keeps one decoded
counterfactual table, which lists the preferences it stands for. Reports
serialize to a CSV table with a fixed column order and to a structured JSON
document that also embeds those tables.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .engine import PREFERENCES, CandidateCE, GenerationConfig, _fill, _warn, generate
from .models import MIN_FIT_ROWS, VALIDATION_MODEL, ClassifierModel, check_int, check_jury, cv_weights
from .models import fit_builtin, kfold_indices
from .scoring import euclidean
from .tabular import Dataset, EncodedDataset, Encoder, encode_dataset, fit_encoder, load_csv, load_schema

GENERATORS = ("tcol", "nearest_target", "random_path")

CSV_COLUMNS = ("dataset", "generator", "preference", *metrics_mod.METRICS, "runtime_s")

_RANDOM_PATH_ATTEMPTS = 200  # random fills drawn per query by the random-path baseline

_FIELD_KINDS = {"int": "an integer", "str": "a string", "tuple": "a list of distinct strings"}


class ConfigError(ValueError):
    """A setting that is refused: of a bench config, a counterfactual file or a command flag."""


def check_path(value: str, name: str) -> str:
    """``value`` if it can name a file (no NUL, not ``""``, ``"."`` or ``"/"``), else ``ConfigError``."""
    if "\0" in value or not Path(value).name:
        raise ConfigError(f"{name} must be a file path, got {value!r:.40}")
    return value


def load(dataset, schema, target: str, target_class: str) -> tuple[Dataset, Encoder, EncodedDataset]:
    """The CSV ``dataset`` read under the schema file ``schema``, its fitted encoder and its encoding."""
    data = load_csv(dataset, load_schema(schema), target, target_class)
    encoder = fit_encoder(data)
    return data, encoder, encode_dataset(encoder, data)


def check_limits(data: EncodedDataset, asks=(), query_index=None, folds=None, seed=0, evaluates=False) -> None:
    """``ConfigError`` for the first setting past a limit of ``data``; every command calls it before any fit.

    Each ``(name, value, what)`` of ``asks`` is a config key or flag asking for
    ``value`` rows, target rows or non-target rows. A fit asks for ``MIN_FIT_ROWS``
    rows; centrality, if the command ``evaluates`` CEs, ``metrics.N_NEIGHBORS``
    target rows; the jury's ``folds``, a ``(name, value)``, ``value`` rows, each
    fold of ``cross_val_f1``'s split with ``seed`` training on both classes.
    """
    targets = int(np.count_nonzero(data.target_mask()))
    have = {"rows": len(data), "target rows": targets, "non-target rows": len(data) - targets}
    asks = [("a model fit", MIN_FIT_ROWS, "rows"), *asks]
    asks += [(*folds, "rows")] if folds else []
    asks += [("centrality", metrics_mod.N_NEIGHBORS, "target rows")] if evaluates else []
    for name, value, what in asks:
        if value > have[what]:
            raise ConfigError(f"{name} asks for {value}, but the data set has {have[what]} {what}")
    if query_index is not None and not 0 <= query_index < len(data):
        raise ConfigError(f"--query-index {query_index} is outside [0, {len(data) - 1}]")
    for i, test in enumerate(kfold_indices(len(data), folds[1], seed) if folds else []):
        if len(labels := set(np.delete(data.y, test).tolist())) < 2:
            only = f"fold {i + 1} trains on {labels.pop()!r} rows only"
            raise ConfigError(f"{folds[0]} asks for {folds[1]} folds, but with seed {seed} {only}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    schema: str
    target: str
    target_class: str
    preferences: tuple = PREFERENCES
    generators: tuple = ("tcol",)
    queries: int = 10
    seed: int = 0
    depth: int = GenerationConfig.depth
    num_ces: int = GenerationConfig.num_ces
    budget: int = GenerationConfig.budget
    jury: tuple = ("knn", "naive_bayes", "decision_tree")
    folds: int = 10
    out: str = "report"

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation's name: int, str or tuple
            value = getattr(self, f.name)
            if f.type == "tuple":
                ok = isinstance(value, (list, tuple)) and all(type(v) is str for v in value)
                ok = ok and len(set(value)) == len(value)  # a repeated entry would run or count twice
            else:  # exact types, so that true is no integer
                ok = type(value) is {"int": int, "str": str}[f.type]
            if not ok:
                raise ValueError(f"config key {f.name!r} must be {_FIELD_KINDS[f.type]}, got {value!r}")
            if f.name in ("dataset", "schema", "out"):
                check_path(value, f"config key {f.name!r}")
            if f.type == "tuple":
                object.__setattr__(self, f.name, tuple(value))
        check_int("queries", self.queries, 1)
        check_int("seed", self.seed, 0)
        for gen in self.generators:
            if gen not in GENERATORS:
                raise ValueError(f"unknown generator {gen!r}, expected one of {GENERATORS}")
        # GenerationConfig validates each preference, and depth, num_ces and
        # budget also when the preference list is empty
        for pref in self.preferences or PREFERENCES[:1]:
            self.generation(pref)
        check_jury(self.jury, self.folds)

    def generation(self, preference: str) -> GenerationConfig:
        return GenerationConfig(preference, self.depth, self.num_ces, budget=self.budget)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if type(raw) is not dict:
            raise ConfigError(f"config must be a JSON object, got {raw!r:.40}")
        keys = fields(cls)
        unknown = set(raw) - {f.name for f in keys}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in keys if f.default is MISSING} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        try:
            return cls(**raw)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass
class RunRecord:
    """Everything one experiment produced: config, metric rows, decoded CEs."""

    config: dict
    dataset_name: str
    rows: list = field(default_factory=list)
    ce_tables: list = field(default_factory=list)
    query_indices: list = field(default_factory=list)


def baseline_nearest_target(data: EncodedDataset, query, m: int) -> list[CandidateCE]:
    """The m nearest target-class rows by Euclidean distance, returned
    verbatim as counterfactuals."""
    check_int("m", m, 1)
    query = np.asarray(query, dtype=float)
    target_idx, rows = data.target_rows
    if len(target_idx) < m:
        raise ValueError(f"requested {m} counterfactuals but only {len(target_idx)} target rows")
    d = euclidean(rows, query)
    order = np.argsort(d, kind="stable")[:m]
    all_prototype = (0,) * data.n_features
    return [
        CandidateCE(
            vector=rows[i].copy(),
            path=all_prototype,
            prototype_index=int(target_idx[i]),
            score=0.0,
            validated=False,
        )
        for i in order
    ]


def baseline_random_path(
    data: EncodedDataset,
    query,
    m: int,
    seed: int,
    validation_model: ClassifierModel,
) -> list[CandidateCE]:
    """Random full-length paths over the nearest prototype, validated.

    Immutable positions are forced to the query side. All attempts are
    drawn as one matrix and validated in one model call. Keeps the first m
    distinct validated fills in draw order; returns fewer (with a warning
    when zero) if the attempts run out.
    """
    check_int("m", m, 1)
    query = np.asarray(query, dtype=float)
    target_idx, rows = data.target_rows
    proto_idx = int(target_idx[np.argmin(euclidean(rows, query))])
    prototype = data.X[proto_idx]
    rng = np.random.default_rng(seed)
    paths = rng.integers(0, 2, size=(_RANDOM_PATH_ATTEMPTS, data.n_features))
    paths[:, data.immutable_mask()] = 1
    vectors = _fill(prototype, query, paths)
    out, seen = [], set()
    for bits, vector, accepted in zip(paths, vectors, validation_model.predicts_target(vectors)):
        key = vector.tobytes()
        if not accepted or key in seen:
            continue
        seen.add(key)
        path = tuple(bits.tolist())
        out.append(
            CandidateCE(
                vector=vector, path=path, prototype_index=proto_idx, score=0.0, validated=True
            )
        )
        if len(out) == m:
            break
    if not out:
        _warn("random path baseline found no valid counterfactual")
    return out


def decode_ce(encoder: Encoder, ce: CandidateCE) -> dict:
    """``ce`` as a report or a CE file holds it: its decoded ``values``, ``validated`` and ``fallback``."""
    values = dict(zip((f.name for f in encoder.schema), encoder.decode(ce.vector)))
    return {"values": values, "validated": ce.validated, "fallback": ce.fallback}


def run_experiment(config: ExperimentConfig, measure_runtime: bool = True) -> RunRecord:
    """Run the full pipeline; see the module docstring.

    ``measure_runtime=False`` writes 0.0 in place of wall-clock timing so
    that two runs of the same config are byte-identical end to end.
    """

    dataset, encoder, encoded = load(config.dataset, config.schema, config.target, config.target_class)
    asks = [("config key 'queries'", config.queries, "non-target rows")]
    if {"tcol", "nearest_target"} & set(config.generators):  # random_path returns fewer CEs instead
        asks.append(("config key 'num_ces'", config.num_ces, "target rows"))
    check_limits(encoded, asks, folds=("config key 'folds'", config.folds), seed=config.seed,
                 evaluates=bool(config.generators and config.preferences))  # no run, no metrics
    validation_model = fit_builtin(VALIDATION_MODEL, encoded, config.seed)
    jury = cv_weights(config.jury, encoded, config.folds, config.seed)
    non_target = np.flatnonzero(~encoded.target_mask())  # check_limits saw enough of them
    picked = np.random.default_rng(config.seed).choice(non_target, size=config.queries, replace=False)
    query_indices = sorted(int(i) for i in picked)

    record = RunRecord(
        config=asdict(config),
        dataset_name=Path(config.dataset).stem,
        query_indices=query_indices,
    )

    for generator in config.generators:
        # a baseline reads no preference: one run, under the first, stands for them all
        runs = [(p,) for p in config.preferences] if generator == "tcol" else [config.preferences]
        for preferences in filter(None, runs):  # no preference, no run
            sets, times, table = [], [], []
            for qi in query_indices:
                query = encoded.X[qi]
                start = time.perf_counter()
                if generator == "tcol":
                    ces = generate(encoded, query, config.generation(preferences[0]), validation_model)
                elif generator == "nearest_target":
                    ces = baseline_nearest_target(encoded, query, config.num_ces)
                else:
                    seed = config.seed + 7919 * qi
                    ces = baseline_random_path(encoded, query, config.num_ces, seed, validation_model)
                times.append(time.perf_counter() - start)
                sets.append((query, [ce.vector for ce in ces]))
                table.append(
                    {
                        "query_index": qi,
                        "query": dataset.row_as_dict(qi),
                        "ces": [decode_ce(encoder, ce) for ce in ces],
                    }
                )
            means, excluded = metrics_mod.summarize(sets, encoded, validation_model, jury)
            n_ces = sum(len(vectors) for _, vectors in sets)
            if excluded:
                _warn(f"{excluded} counterfactuals coincided with centroid neighbors "
                      f"and were excluded from centrality ({generator}/{preferences[0]})")
            if n_ces == 0:
                _warn(f"no counterfactuals produced for {generator}/{preferences[0]}")
            runtime = float(np.mean(times)) if measure_runtime else 0.0
            row = dict(means, runtime_s=runtime, n_queries=len(sets), n_ces=n_ces)
            record.rows += [metrics_mod.MetricsRow(record.dataset_name, generator, p, **row) for p in preferences]
            record.ce_tables.append(
                {"generator": generator, "preferences": list(preferences), "queries": table}
            )
    return record


def emit_report(record: RunRecord, stem: str | Path) -> tuple[Path, Path]:
    """Write the report as ``stem.csv`` and as structured, strict ``stem.json``
    (a NaN or infinity raises ``ValueError`` before either is written); return both paths."""
    csv_path, json_path = Path(stem).with_suffix(".csv"), Path(stem).with_suffix(".json")
    payload = {
        "format_version": 2,
        "config": record.config,
        "dataset": record.dataset_name,
        "query_indices": record.query_indices,
        "metrics": [asdict(row) for row in record.rows],
        "counterfactuals": record.ce_tables,
    }
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
    lines = [",".join(CSV_COLUMNS)]
    for row in record.rows:
        cells = [row.dataset, row.generator, row.preference]
        cells += [f"{getattr(row, name):.6f}" for name in CSV_COLUMNS[3:]]
        lines.append(",".join(cells))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return csv_path, json_path
