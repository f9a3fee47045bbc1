"""End-to-end experiment harness: config, baselines, orchestration, reports.

``run_experiment`` loads and encodes a dataset, fits the validation model
(random forest) and the cross-validated jury, samples seeded non-target
query rows, generates counterfactual sets, times the generation, and
aggregates the full metric suite into one report row per (generator,
preference). T-COL runs once per preference. Neither baseline reads the
preference, so a baseline runs once, under the first preference, and its
row is repeated under every preference. Each run keeps one decoded
counterfactual table, which lists the preferences it stands for. Reports
serialize to a CSV table with a fixed column order and to a structured
JSON document that also embeds those tables.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .engine import PREFERENCES, CandidateCE, GenerationConfig, _fill, _warn, generate
from .models import MODEL_KINDS, VALIDATION_MODEL, ClassifierModel, _check_seed, cv_weights, fit_builtin
from .scoring import euclidean
from .tabular import Dataset, EncodedDataset, Encoder, encode_dataset, fit_encoder, load_csv, load_schema

GENERATORS = ("tcol", "nearest_target", "random_path")

CSV_COLUMNS = ("dataset", "generator", "preference", *metrics_mod.METRICS, "runtime_s")

_RANDOM_PATH_ATTEMPTS = 200  # random fills drawn per query by the random-path baseline

_FIELD_KINDS = {"int": "an integer", "str": "a string", "tuple": "a list of strings"}


class ExperimentError(RuntimeError):
    """A pipeline stage failed; the message carries the stage tag."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")


class ConfigError(ValueError):
    """A bench config that ``from_json`` refuses, or a config value or command flag past its data."""


def check_jury(kinds: tuple, folds: int) -> None:
    """Reject a jury setting before any work: at least two built-in kinds and two folds."""
    if len(kinds) < 2:
        raise ValueError("jury needs at least two member kinds")
    for kind in kinds:
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown jury kind {kind!r}, expected one of {MODEL_KINDS}")
    if folds < 2:
        raise ValueError("folds must be at least 2")


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
            else:  # exact types, so that true is no integer
                ok = type(value) is {"int": int, "str": str}[f.type]
            if not ok:
                raise ValueError(f"config key {f.name!r} must be {_FIELD_KINDS[f.type]}, got {value!r}")
            if f.name in ("dataset", "schema", "out") and ("\0" in value or not Path(value).name):
                raise ValueError(f"config key {f.name!r} must be a file path, got {value!r:.40}")
            if f.type == "tuple":
                object.__setattr__(self, f.name, tuple(value))
        if self.queries < 1:
            raise ValueError("queries must be positive")
        _check_seed(self.seed)
        for gen in self.generators:
            if gen not in GENERATORS:
                raise ValueError(f"unknown generator {gen!r}, expected one of {GENERATORS}")
        # GenerationConfig validates each preference, and depth, num_ces and
        # budget also when the preference list is empty
        for pref in self.preferences or PREFERENCES[:1]:
            self.generation(pref)
        check_jury(self.jury, self.folds)

    def check_data(self, data: EncodedDataset) -> None:
        """``ConfigError`` for the first of ``queries``, ``folds`` and ``num_ces`` (which
        only ``tcol`` and ``nearest_target`` read) that asks for more rows than ``data`` holds."""
        targets = int(np.count_nonzero(data.target_mask()))
        limits = [("queries", len(data) - targets, "non-target rows"), ("folds", len(data), "rows")]
        if {"tcol", "nearest_target"} & set(self.generators):
            limits.append(("num_ces", targets, "target rows"))
        for key, limit, what in limits:
            if (value := getattr(self, key)) > limit:
                raise ConfigError(f"config key {key!r} asks for {value}, but the data set has {limit} {what}")

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
    query = np.asarray(query, dtype=float)
    proto_idx = baseline_nearest_target(data, query, 1)[0].prototype_index
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


def _sample_queries(data: EncodedDataset, count: int, seed: int) -> list[int]:
    non_target = np.flatnonzero(~data.target_mask())
    if len(non_target) < count:
        raise ValueError(f"requested {count} queries but only {len(non_target)} non-target rows")
    picked = np.random.default_rng(seed).choice(non_target, size=count, replace=False)
    return sorted(int(i) for i in picked)


def run_experiment(config: ExperimentConfig, measure_runtime: bool = True) -> RunRecord:
    """Run the full pipeline; see the module docstring.

    ``measure_runtime=False`` writes 0.0 in place of wall-clock timing so
    that two runs of the same config are byte-identical end to end.
    """

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise ExperimentError(name, str(exc)) from exc

    schema = stage("schema", load_schema, config.schema)
    dataset: Dataset = stage(
        "load", load_csv, config.dataset, schema, config.target, config.target_class
    )
    encoder: Encoder = stage("encode", fit_encoder, dataset)
    encoded: EncodedDataset = stage("encode", encode_dataset, encoder, dataset)
    stage("config", config.check_data, encoded)
    validation_model = stage("train", fit_builtin, VALIDATION_MODEL, encoded, config.seed)
    jury = stage("jury", cv_weights, config.jury, encoded, config.folds, config.seed)
    query_indices = stage("sample", _sample_queries, encoded, config.queries, config.seed)

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
                    run = (generate, encoded, query, config.generation(preferences[0]), validation_model)
                elif generator == "nearest_target":
                    run = (baseline_nearest_target, encoded, query, config.num_ces)
                else:
                    seed = config.seed + 7919 * qi
                    run = (baseline_random_path, encoded, query, config.num_ces, seed, validation_model)
                ces = stage("generate", *run)
                times.append(time.perf_counter() - start)
                sets.append((qi, ces))
                table.append(
                    {
                        "query_index": qi,
                        "query": dataset.row_as_dict(qi),
                        "ces": [
                            {
                                "values": dict(zip((f.name for f in schema), encoder.decode(ce.vector))),
                                "validated": ce.validated,
                                "fallback": ce.fallback,
                            }
                            for ce in ces
                        ],
                    }
                )
            runtime = float(np.mean(times)) if measure_runtime else 0.0
            row = stage(
                "metrics",
                _aggregate,
                record.dataset_name,
                generator,
                preferences[0],
                sets,
                encoded,
                validation_model,
                jury,
                runtime,
            )
            record.rows += [replace(row, preference=p) for p in preferences]
            record.ce_tables.append(
                {"generator": generator, "preferences": list(preferences), "queries": table}
            )
    return record


def _aggregate(
    dataset_name, generator, preference, sets, encoded, validation_model, jury, mean_time
) -> metrics_mod.MetricsRow:
    """Average each metric over the per-query counterfactual sets
    (``metrics.summarize``), warning when CEs are left out of centrality or
    none was produced; a dataset with too few target rows for centrality
    raises."""
    vectors = [(encoded.X[qi], [ce.vector for ce in ces]) for qi, ces in sets]
    means, excluded = metrics_mod.summarize(vectors, encoded, validation_model, jury)
    n_ces = sum(len(ces) for _, ces in sets)
    if excluded:
        _warn(
            f"{excluded} counterfactuals coincided with centroid neighbors "
            f"and were excluded from centrality ({generator}/{preference})"
        )
    if n_ces == 0:
        _warn(f"no counterfactuals produced for {generator}/{preference}")
    return metrics_mod.MetricsRow(
        dataset=dataset_name,
        generator=generator,
        preference=preference,
        **means,
        runtime_s=mean_time,
        n_queries=len(sets),
        n_ces=n_ces,
    )


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
