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
from .experiment import CSV_COLUMNS, ConfigError, ExperimentConfig, check_limits, check_path, decode_ce, emit_report
from .experiment import load, run_experiment
from .models import MODEL_KINDS, VALIDATION_MODEL, ModelFileError, check_int, check_jury, cv_weights, fit_builtin
from .models import load_model, save_model
from .tabular import NUMERIC, CsvParseError, SchemaViolationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _typed(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind``, or ``int`` for ``float``, else ``ConfigError``."""
    if type(value) is not kind and (kind, type(value)) != (float, int):  # true is no number
        name = {dict: "object", list: "list", str: "string", float: "number"}[kind]
        raise ConfigError(f"{what} must be a JSON {name}, got {value!r:.40}")
    return value


def _check_out(value: str, name: str) -> str:
    """``value`` if ``check_path`` takes it and its directory exists, else ``ConfigError``."""
    if not Path(check_path(value, name)).parent.is_dir():
        raise ConfigError(f"{name} must be a file in an existing directory, got {value!r:.40}")
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


def _cmd_train(args) -> int:
    dataset, _, encoded = load(args.data, args.schema, args.target, args.target_class)
    check_limits(encoded)
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
    _check_out(args.out, "--out")
    dataset, encoder, encoded = load(args.data, args.schema, args.target, args.target_class)
    check_limits(encoded, [("--num-ces", config.num_ces, "target rows")], query_index=args.query_index)
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
                **decode_ce(encoder, ce),
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
    if args.out is not None:
        _check_out(args.out, "--out")
    with open(args.ces, encoding="utf-8") as fh:
        ce_file = _typed(json.load(fh), dict, "a counterfactual file")
    ces = _typed(ce_file["ces"], list, "'ces'")
    if not ces:
        raise ConfigError("counterfactual file contains no counterfactuals")
    rows = [_typed(_typed(ce, dict, "each CE")["values"], dict, "each CE's 'values'") for ce in ces]
    # each setting the user does not override is the one that made the file
    seed = check_int("'seed'", ce_file["seed"], 0, error=ConfigError) if args.seed is None else args.seed
    dataset, encoder, encoded = load(
        args.data or check_path(_typed(ce_file["dataset"], str, "'dataset'"), "'dataset'"),
        args.schema or check_path(_typed(ce_file["schema"], str, "'schema'"), "'schema'"),
        _typed(ce_file["target"], str, "'target'"),
        _typed(ce_file["target_class"], str, "'target_class'"),
    )
    check_limits(encoded, folds=("--folds", args.folds), seed=seed, evaluates=True)

    def cells(row: dict, key: str) -> list:  # each of the JSON type that generate writes, in its fitted range
        out = []
        for f, fit_lo, fit_hi in zip(dataset.schema, encoder.mins, encoder.maxs):
            value = _typed(row[f.name], float if f.kind == NUMERIC else str, f"'{key}.{f.name}'")
            if f.kind == NUMERIC:  # the encoder would clamp it: the metrics would not describe the file
                fitted = fit_lo, fit_hi, "the range of the data the encoder was fitted on"
                for lo, hi, name in ((*f.domain, "the domain"), fitted):
                    slack = 1e-12 * max(abs(lo), abs(hi))  # decode's rounding: -5 to 0.7 gives 0.7000000000000002
                    if not lo - slack <= value <= hi + slack:
                        raise SchemaViolationError(f"'{key}.{f.name}' {value!r} is outside {name} [{lo:g}, {hi:g}]")
            out.append(value)
        return out

    vectors = encoder.encode_rows(cells(row, "values") for row in rows)
    query = encoder.encode(cells(_typed(ce_file["query"], dict, "'query'"), "query"))

    if args.validation_model:
        model = load_model(args.validation_model)
        model.check_width(encoded.X.shape[1])
        classes, labels = (model.target_class, model.other_class), tuple(sorted(set(encoded.y.tolist())))
        if set(classes) != set(labels):  # in either order: validity follows the file's target class
            raise ModelFileError(f"{model.kind} model classes {classes!r} are not the data's labels {labels!r}")
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
    # report.json keeps the file's out
    out = _check_out(config.out, "config key 'out'") if args.out is None else _check_out(args.out, "--out")
    record = run_experiment(config, measure_runtime=not args.no_timing)
    csv_path, json_path = emit_report(record, out)
    for row in record.rows:
        values = " ".join(f"{name}={getattr(row, name):.4f}" for name in CSV_COLUMNS[3:])
        print(f"{row.generator}/{row.preference}: {values}")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


# An error of one of these types is a data error (exit 2); any other error
# is a runtime error (exit 3).
_DATA_ERRORS = (
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
        if getattr(args, "seed", None) is not None:
            check_int("--seed", args.seed, 0, error=_UsageError)
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except Exception as exc:
        if isinstance(exc, _DATA_ERRORS):
            missing = "missing key " if isinstance(exc, KeyError) else ""  # str(KeyError) is only the key
            print(f"data/schema error: {missing}{exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
