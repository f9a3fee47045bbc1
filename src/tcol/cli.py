"""Command-line interface.

Subcommands: ``train`` (fit and persist models), ``generate``
(counterfactuals for one query row), ``evaluate`` (``metrics.METRICS``
over an existing counterfactual file), and ``bench`` (full experiment from
a JSON config).

Exit codes: 0 success, 1 usage error, 2 data/schema error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

from . import data as bundled
from . import metrics as metrics_mod
from .engine import PREFERENCES, GenerationConfig, generate
from .experiment import CSV_COLUMNS, ExperimentConfig, ExperimentError, check_jury, emit_report
from .experiment import ConfigError, run_experiment
from .models import MODEL_KINDS, VALIDATION_MODEL, ModelFileError, cv_weights, fit_builtin
from .models import load_model, save_model
from .tabular import (
    NUMERIC,
    CsvParseError,
    SchemaViolationError,
    encode_dataset,
    fit_encoder,
    load_csv,
    load_schema,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _CeFileError(ValueError):
    """A counterfactual file holding a value of the wrong JSON type."""


def _typed(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind``, or ``int`` for ``float``, else ``_CeFileError``."""
    if type(value) is not kind and (kind, type(value)) != (float, int):  # true is no number
        name = {dict: "object", list: "list", str: "string", int: "integer", float: "number"}[kind]
        raise _CeFileError(f"{what} must be a JSON {name}, got {value!r:.40}")
    return value


def _path(value, what: str) -> str:
    """``value`` if it is a JSON string that can name a file (no NUL), else ``_CeFileError``."""
    if "\0" in _typed(value, str, what):
        raise _CeFileError(f"{what} must be a file path, got {value!r:.40}")
    return value


def _add_data_options(parser: argparse.ArgumentParser) -> None:
    csv_path, schema_path = bundled.synthetic_paths()
    parser.add_argument("--data", default=str(csv_path), help="dataset CSV path")
    parser.add_argument("--schema", default=str(schema_path), help="schema JSON path")
    parser.add_argument("--target", default=bundled.SYNTHETIC_TARGET, help="target column name")
    parser.add_argument(
        "--target-class", default=bundled.SYNTHETIC_TARGET_CLASS, help="desired target label"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="tcol", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit models and persist them as JSON")
    p.set_defaults(run=_cmd_train)
    _add_data_options(p)
    p.add_argument("--kind", default="all", choices=MODEL_KINDS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("generate", help="generate counterfactuals for one query row")
    p.set_defaults(run=_cmd_generate)
    _add_data_options(p)
    p.add_argument("--query-index", type=int, required=True, help="row index of the query")
    for f in fields(GenerationConfig):  # one flag per setting; f.type is the annotation's name
        p.add_argument(
            "--" + f.name.replace("_", "-"),
            type={"int": int, "str": str}[f.type],
            required=f.default is MISSING,
            default=None if f.default is MISSING else f.default,  # the dataclass's default
            choices=PREFERENCES if f.name == "preference" else None,
        )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="ces.json")

    p = sub.add_parser("evaluate", help="metric suite over an existing counterfactual file")
    p.set_defaults(run=_cmd_evaluate)
    p.add_argument("--ces", required=True, help="counterfactual JSON written by 'generate'")
    p.add_argument("--data", default=None, help="override the dataset recorded in the file")
    p.add_argument("--schema", default=None, help="override the schema recorded in the file")
    p.add_argument("--validation-model", default=None, help="persisted model file; refits if omitted")
    p.add_argument("--jury", default=",".join(ExperimentConfig.jury))
    p.add_argument("--folds", type=int, default=ExperimentConfig.folds)
    p.add_argument("--seed", type=int, help="refit and jury CV seed; default: the seed in the file")
    p.add_argument("--out", default=None, help="optional JSON output path")

    p = sub.add_parser("bench", help="run a full experiment from a JSON config")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's output stem")
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="write 0.0 runtimes so repeated runs are byte-identical",
    )

    return parser


def _load_encoded(data_path, schema_path, target, target_class):
    schema = load_schema(schema_path)
    dataset = load_csv(data_path, schema, target, target_class)
    encoder = fit_encoder(dataset)
    return dataset, encoder, encode_dataset(encoder, dataset)


def _cmd_train(args) -> int:
    dataset, _, encoded = _load_encoded(args.data, args.schema, args.target, args.target_class)
    print(f"read {len(dataset)} rows ({dataset.dropped_rows} dropped)")
    kinds = MODEL_KINDS if args.kind == "all" else (args.kind,)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind in kinds:
        model = fit_builtin(kind, encoded, seed=args.seed)
        path = out_dir / f"{kind}.model.json"
        save_model(model, path)
        print(f"trained {kind} -> {path}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    try:
        config = GenerationConfig(**{f.name: getattr(args, f.name) for f in fields(GenerationConfig)})
    except ValueError as exc:
        raise _UsageError(exc) from None
    dataset, encoder, encoded = _load_encoded(args.data, args.schema, args.target, args.target_class)
    if not 0 <= args.query_index < len(dataset):
        raise ConfigError(f"--query-index {args.query_index} is outside [0, {len(dataset) - 1}]")
    if config.num_ces > (targets := len(encoded.target_rows[0])):
        raise ConfigError(f"--num-ces asks for {config.num_ces}, but the data set has {targets} target rows")
    model = fit_builtin(VALIDATION_MODEL, encoded, seed=args.seed)
    ces = generate(encoded, encoded.X[args.query_index], config, model)
    payload = {
        "format_version": 1,
        "dataset": str(args.data),
        "schema": str(args.schema),
        "target": args.target,
        "target_class": args.target_class,
        "query_index": args.query_index,
        **asdict(config),
        "seed": args.seed,
        "query": dataset.row_as_dict(args.query_index),
        "ces": [
            {
                "values": dict(zip((f.name for f in dataset.schema), encoder.decode(ce.vector))),
                "validated": ce.validated,
                "fallback": ce.fallback,
                "prototype_index": ce.prototype_index,
                "path": list(ce.path),
                "score": ce.score if math.isfinite(ce.score) else None,
            }
            for ce in ces
        ],
    }
    Path(args.out).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    validated = sum(1 for ce in ces if ce.validated)
    print(f"generated {len(ces)} counterfactuals ({validated} validated) -> {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    jury = tuple(args.jury.split(","))
    try:
        check_jury(jury, args.folds)
    except ValueError as exc:
        raise _UsageError(exc) from None
    with open(args.ces, encoding="utf-8") as fh:
        ce_file = _typed(json.load(fh), dict, "a counterfactual file")
    ces = _typed(ce_file["ces"], list, "'ces'")
    if not ces:
        raise _CeFileError("counterfactual file contains no counterfactuals")
    rows = [_typed(_typed(ce, dict, "each CE")["values"], dict, "each CE's 'values'") for ce in ces]
    # each setting the user does not override is the one that made the file
    seed = _typed(ce_file["seed"], int, "'seed'") if args.seed is None else args.seed
    if seed < 0:
        raise _CeFileError(f"seed must be a non-negative integer, got {seed}")
    dataset, encoder, encoded = _load_encoded(
        args.data or _path(ce_file["dataset"], "'dataset'"),
        args.schema or _path(ce_file["schema"], "'schema'"),
        _typed(ce_file["target"], str, "'target'"),
        _typed(ce_file["target_class"], str, "'target_class'"),
    )

    kinds = {f.name: float if f.kind == NUMERIC else str for f in dataset.schema}

    def cells(row: dict, key: str) -> list:  # each of the JSON type that generate writes
        return [_typed(row[name], kind, f"'{key}.{name}'") for name, kind in kinds.items()]

    vectors = encoder.encode_rows(cells(row, "values") for row in rows)
    query = encoder.encode(cells(_typed(ce_file["query"], dict, "'query'"), "query"))

    if args.folds > len(encoded):
        raise ConfigError(f"--folds asks for {args.folds}, but the data set has {len(encoded)} rows")
    if args.validation_model:
        model = load_model(args.validation_model)
        model.check_width(encoded.X.shape[1])
    else:
        model = fit_builtin(VALIDATION_MODEL, encoded, seed=seed)
    jury = cv_weights(jury, encoded, args.folds, seed=seed)

    results, excluded = metrics_mod.summarize([(query, vectors)], encoded, model, jury)
    for name, value in results.items():
        print(f"{name}: {value:.6f}")
    if excluded:
        print(f"centrality: excluded {excluded} coincident counterfactuals", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2, allow_nan=False) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    record = run_experiment(config, measure_runtime=not args.no_timing)
    csv_path, json_path = emit_report(record, args.out or config.out)
    for row in record.rows:
        values = " ".join(f"{name}={getattr(row, name):.4f}" for name in CSV_COLUMNS[3:])
        print(f"{row.generator}/{row.preference}: {values}")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


# An error of one of these types, or an ``ExperimentError`` caused by one,
# is a data error (exit 2); any other error is a runtime error (exit 3).
_DATA_ERRORS = (
    _CeFileError,
    ConfigError,
    SchemaViolationError,
    CsvParseError,
    ModelFileError,
    OSError,
    UnicodeDecodeError,
    csv.Error,
    json.JSONDecodeError,
    KeyError,
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise _UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except Exception as exc:
        cause = exc.__cause__ if isinstance(exc, ExperimentError) else exc
        if isinstance(cause, _DATA_ERRORS):
            print(f"data/schema error: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
