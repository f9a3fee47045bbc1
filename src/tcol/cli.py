"""Command-line interface.

Subcommands: ``encode`` (fit and dump the encoder), ``train`` (fit and
persist models), ``generate`` (counterfactuals for one query row),
``evaluate`` (metric suite over an existing counterfactual file), and
``bench`` (full experiment from a JSON config).

Exit codes: 0 success, 1 usage error, 2 data/schema error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import data as bundled
from . import metrics as metrics_mod
from .engine import GenerationConfig, generate
from .experiment import ExperimentConfig, ExperimentError, emit_report, run_experiment
from .models import MODEL_KINDS, cv_weights, fit_builtin, load_model, save_model
from .tabular import (
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


def _n_neighbors(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"n_neighbors must be at least 1, got {value}")
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

    p = sub.add_parser("encode", help="fit the encoder and dump it as JSON")
    _add_data_options(p)
    p.add_argument("--out", default="encoder.json")

    p = sub.add_parser("train", help="fit models and persist them as JSON")
    _add_data_options(p)
    p.add_argument("--kind", default="all", choices=MODEL_KINDS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("generate", help="generate counterfactuals for one query row")
    _add_data_options(p)
    p.add_argument("--query-index", type=int, required=True, help="row index of the query")
    p.add_argument("--preference", required=True, choices=("a", "b", "c", "d", "e"))
    p.add_argument("--num-ces", type=int, default=5)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--distance", default="euclidean", choices=("euclidean", "manhattan"))
    p.add_argument(
        "--fcs-variant", default="sparsity_corrected", choices=("literal", "sparsity_corrected")
    )
    p.add_argument("--out", default="ces.json")

    p = sub.add_parser("evaluate", help="metric suite over an existing counterfactual file")
    p.add_argument("--ces", required=True, help="counterfactual JSON written by 'generate'")
    p.add_argument("--data", default=None, help="override the dataset recorded in the file")
    p.add_argument("--schema", default=None)
    p.add_argument("--validation-model", default=None, help="persisted model file; refits if omitted")
    p.add_argument("--jury", default="knn,naive_bayes,decision_tree")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-neighbors", type=_n_neighbors, default=10)
    p.add_argument("--out", default=None, help="optional JSON output path")

    p = sub.add_parser("bench", help="run a full experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's output stem")
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="write 0.0 runtimes so repeated runs are byte-identical",
    )

    return parser


def _load_encoded(args):
    schema = load_schema(args.schema)
    dataset = load_csv(args.data, schema, args.target, args.target_class)
    encoder = fit_encoder(dataset)
    return dataset, encoder, encode_dataset(encoder, dataset)


def _cmd_encode(args) -> int:
    dataset, encoder, _ = _load_encoded(args)
    encoder.to_json(args.out)
    print(f"fitted encoder on {len(dataset)} rows ({dataset.dropped_rows} dropped) -> {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    _, _, encoded = _load_encoded(args)
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
    dataset, encoder, encoded = _load_encoded(args)
    if not 0 <= args.query_index < len(dataset):
        raise ValueError(f"query index {args.query_index} outside [0, {len(dataset) - 1}]")
    model = fit_builtin("random_forest", encoded, seed=args.seed)
    config = GenerationConfig(
        preference=args.preference,
        depth=args.depth,
        num_ces=args.num_ces,
        distance=args.distance,
        fcs_variant=args.fcs_variant,
        budget=args.budget,
    )
    ces = generate(encoded, encoded.X[args.query_index], config, model)
    payload = {
        "format_version": 1,
        "dataset": str(args.data),
        "schema": str(args.schema),
        "target": args.target,
        "target_class": args.target_class,
        "query_index": args.query_index,
        "preference": args.preference,
        "depth": args.depth,
        "num_ces": args.num_ces,
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
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    validated = sum(1 for ce in ces if ce.validated)
    print(f"generated {len(ces)} counterfactuals ({validated} validated) -> {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    with open(args.ces, encoding="utf-8") as fh:
        ce_file = json.load(fh)
    data_path = args.data or ce_file["dataset"]
    schema_path = args.schema or ce_file["schema"]
    schema = load_schema(schema_path)
    dataset = load_csv(data_path, schema, ce_file["target"], ce_file["target_class"])
    encoder = fit_encoder(dataset)
    encoded = encode_dataset(encoder, dataset)

    names = [f.name for f in schema]
    vectors = [encoder.encode([ce["values"][n] for n in names]) for ce in ce_file["ces"]]
    if not vectors:
        raise ValueError("counterfactual file contains no counterfactuals")
    query = encoder.encode([ce_file["query"][n] for n in names])

    if args.validation_model:
        model = load_model(args.validation_model)
    else:
        model = fit_builtin("random_forest", encoded, seed=args.seed)
    jury = cv_weights(args.jury.split(","), encoded, args.folds, seed=args.seed)

    evaluated = metrics_mod.evaluate_set(
        vectors, query, encoded, model, jury, n_neighbors=args.n_neighbors
    )
    results = {
        "proximity": evaluated.proximity,
        "sparsity": evaluated.sparsity,
        "validity": evaluated.validity,
        "data_fidelity": evaluated.data_fidelity,
        "centrality": 0.0 if evaluated.centrality is None else evaluated.centrality,
    }
    results["reliability"] = metrics_mod.reliability_composite(
        results["data_fidelity"], results["validity"]
    )
    for name, value in results.items():
        print(f"{name}: {value:.6f}")
    if evaluated.excluded:
        print(
            f"centrality: excluded {evaluated.excluded} coincident counterfactuals",
            file=sys.stderr,
        )
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        config = ExperimentConfig.from_json(args.config)
    except ValueError as exc:
        print(f"data/schema error: {exc}", file=sys.stderr)
        return EXIT_DATA
    record = run_experiment(config, measure_runtime=not args.no_timing)
    stem = Path(args.out if args.out else config.out)
    csv_path = emit_report(record, "csv", stem.with_suffix(".csv"))
    json_path = emit_report(record, "structured", stem.with_suffix(".json"))
    for row in record.rows:
        print(
            f"{row.generator}/{row.preference}: proximity={row.proximity:.4f} "
            f"sparsity={row.sparsity:.4f} validity={row.validity:.4f} "
            f"data_fidelity={row.data_fidelity:.4f} centrality={row.centrality:.4f} "
            f"runtime_s={row.runtime_s:.4f}"
        )
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


_COMMANDS = {
    "encode": _cmd_encode,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "bench": _cmd_bench,
}

_DATA_ERRORS = (SchemaViolationError, CsvParseError, FileNotFoundError, json.JSONDecodeError, KeyError)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _DATA_ERRORS as exc:
        print(f"data/schema error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ExperimentError as exc:
        code = EXIT_DATA if exc.stage in ("schema", "load") else EXIT_RUNTIME
        print(f"error: {exc}", file=sys.stderr)
        return code
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
