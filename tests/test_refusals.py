"""Every refusal of the ``tcol`` command line, in one table.

A row gives the inputs it writes into its own directory (a changed copy of
the bundled data or schema, of a generated CE file, of a trained model file
or of a bench config), the argv, the exit code, a fragment of stderr, the
step the command must not reach, and the files that must not exist
afterwards. The row's directory is the working directory of the run, so a
relative path in an argv or a config names a file in it.

``test_cli_main_refuses`` runs every row through ``cli.main``. The rows
marked ``script`` also run through the installed ``tcol`` console script,
in ``test_the_console_script_refuses``, and the script's success path runs
in ``test_the_console_script_writes_strict_json``. Those two run only where
the ``tcol`` script beside ``sys.executable`` imports this checkout's
``src/tcol`` (after ``pip install -e .``), and are skipped elsewhere. Each
run checks the exit code, an empty stdout, a one-line stderr that holds the
fragment, the absent files, and that the row's directory holds what it held
before the run.

``test_the_readers_agree_on_what_is_a_number`` checks that the schema, the
CE file and the model file take the same values as JSON numbers.
"""

import csv
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import pytest

from tcol import cli, experiment
from tcol.cli import main
from tcol.data import synthetic_paths
from tcol.models import ModelFileError, load_model
from tcol.tabular import SchemaViolationError, load_schema

ROOT = Path(__file__).resolve().parents[1]
DATA, SCHEMA = map(str, synthetic_paths())
# the console script runs as a user runs it, without the tests' PYTHONPATH
SCRIPT_ENV = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}

# the functions a refusal must not call, by the step it comes before
NOT_REACHED = {
    "read": [(experiment, "load_schema"), (experiment, "load_csv")],
    "fit": [(cli, "fit_builtin"), (cli, "cv_weights"), (cli, "load_model"),
            (experiment, "fit_builtin"), (experiment, "cv_weights")],
    "jury": [(cli, "cv_weights"), (experiment, "cv_weights")],
}

CES, METRICS, MODELS, REPORT = ("ces.json",), ("metrics.json",), ("models",), ("report.csv", "report.json")


@dataclass(frozen=True)
class Row:
    id: str
    argv: str  # split as a shell splits it; {data}, {schema} and {ces} name the sources
    code: int
    message: str  # a fragment of stderr, which is one line
    inputs: tuple = ()  # each writes one file into the row's directory
    absent: tuple = ()  # files of the row's directory that must not exist afterwards
    before: str = "fit"  # a key of NOT_REACHED
    script: bool = False  # also run through the installed console script


def text_file(name, text):
    """An input: ``text``, or bytes, as the file ``name``."""
    return lambda tmp, sources: (tmp / name).write_bytes(text if isinstance(text, bytes) else text.encode())


def folder(name):
    """An input: an empty directory ``name``."""
    return lambda tmp, sources: (tmp / name).mkdir()


def edited(source, name, change=None, **updates):
    """An input: the JSON file ``source``, a source's placeholder, as the file
    ``name``, with its top-level ``updates`` set (placeholders in a string
    filled in) and then ``change(payload)`` applied."""

    def write(tmp, sources):
        payload = json.loads(Path(source.format(**sources)).read_text(encoding="utf-8"))
        for key, value in updates.items():
            payload[key] = value.format(**sources) if isinstance(value, str) else value
        if change:
            change(payload)
        (tmp / name).write_text(json.dumps(payload), encoding="utf-8")

    return write


ces_file = partial(edited, "{ces}", "ces.json")
config_file = partial(edited, "{config}", "config.json")


def ce_cell(where, name, value):
    """An input: the CE file with ``value`` as ``name`` in its first CE's ``"values"`` or in its ``"query"``."""
    return ces_file(lambda p: (p["ces"][0]["values"] if where == "values" else p["query"]).update({name: value}))


def model_file(kind, change=None, /, **updates):
    """An input: the trained ``kind`` model file, changed, as ``model.json``."""
    return edited(f"{{models}}/{kind}.model.json", "model.json", change, **updates)


def parameters(kind, edit):
    """An input: the trained ``kind`` model file with ``edit(parameters)`` applied, as ``model.json``."""
    return model_file(kind, lambda p: edit(p["parameters"]))


def first_leaf(tree) -> int:
    """The index of the first leaf of a tree's node arrays."""
    return next(i for i, (left, right) in enumerate(zip(tree["left"], tree["right"])) if left == right == i)


def cut_stats(classes, width):
    """An edit that keeps the first ``width`` features of the given classes' mean and var."""

    def edit(params):
        for label in classes:
            for name in ("mean", "var"):
                params["stats"][label][name] = params["stats"][label][name][:width]

    return edit


def numeric(name, lo, hi):
    return {"name": name, "kind": "numeric", "mutability": "mutable", "domain": [lo, hi]}


def data_set(schema, header, rows):
    """Inputs: ``data.csv`` of ``header`` and ``rows``, and ``schema`` as ``schema.json``."""
    text = "".join(f"{line}\n" for line in [header, *(",".join(map(str, row)) for row in rows)])
    return text_file("data.csv", text), text_file("schema.json", json.dumps(schema))


def numeric_rows(approved, denied):
    """Inputs: a two-column numeric data set, its ``denied`` rows first."""
    labels = ["denied"] * denied + ["approved"] * approved
    return data_set([numeric("x", 0, 100), numeric("y", 0, 100)], "x,y,loan",
                    [(i, 7 * i % 11, label) for i, label in enumerate(labels)])


def numeric_ces(query, values):
    """An input: the CE file of ``data.csv`` and ``schema.json``, with ``query`` and one CE of ``values``."""
    return ces_file(dataset="data.csv", schema="schema.json", query=query, ces=[{"values": values}])


def on_local_data(command, name, message, inputs, folds=5):
    """A row: ``command`` on the ``data.csv`` and ``schema.json`` that
    ``inputs`` write; ``evaluate`` reads a CE file of the numeric set and
    ``bench`` a one-query config, each with ``folds``."""
    argv, more, absent = {
        "train": ("train --kind naive_bayes --out-dir models --data data.csv --schema schema.json", (), MODELS),
        "generate": ("generate --query-index 1 --preference a --data data.csv --schema schema.json --out ces.json",
                     (), CES),
        "evaluate": (f"evaluate --ces ces.json --folds {folds} --out metrics.json",
                     (numeric_ces({"x": 1.0, "y": 7.0}, {"x": 5.0, "y": 2.0}),), METRICS),
        "bench": ("bench --config config.json",
                  (config_file(dataset="data.csv", schema="schema.json", queries=1, folds=folds),), REPORT),
    }[command]
    return Row(f"{command}-{name}", argv, 2, f"data/schema error: {message}", (*inputs, *more), absent)


BUNDLED_LINES = Path(DATA).read_text(encoding="utf-8").splitlines()
BUNDLED_SCHEMA = text_file("schema.json", Path(SCHEMA).read_text(encoding="utf-8"))

# inputs writing a data.csv and a schema.json that no command loads, and the error
UNLOADABLE = {
    "equal-target-rates": (data_set(
        [{"name": "color", "kind": "categorical", "mutability": "mutable", "domain": ["red", "blue"]},
         numeric("x", 0, 10)],
        "color,x,loan", [("red", 1, "approved"), ("red", 2, "denied"), ("blue", 3, "approved"), ("blue", 4, "denied")],
    ), "categories 'red' and 'blue' of feature 'color' have the same target rate"),
    "non-utf8": ((text_file("data.csv", Path(DATA).read_bytes() + b"\xff\xfe,1\n"), BUNDLED_SCHEMA),
                 "'utf-8' codec can't decode byte 0xff"),
    "oversized-field": ((text_file("data.csv", f"{BUNDLED_LINES[0]}\n{'9' * (csv.field_size_limit() + 1)}\n"),
                         BUNDLED_SCHEMA), "field larger than field limit"),
    "directory-as-data": ((folder("data.csv"), BUNDLED_SCHEMA), "[Errno 21] Is a directory: 'data.csv'"),
}
TOO_WIDE = data_set([numeric("x", -1e308, 1e308), numeric("y", 0, 10)], "x,y,loan",
                    [(x, i % 10, "approved" if i % 2 else "denied")
                     for i, x in enumerate(["-1e308", "1e308", "0", "5"] * 3)])
# decoding the row of 0.7 in a column from -5 to 0.7 gives 0.7000000000000002
ROUNDED = data_set([numeric("x", -5, 0.7), numeric("y", 0, 100)], "x,y,loan",
                   [(x, 7 * i % 11, "denied" if i < 10 else "approved")
                    for i, x in enumerate([-5 + i * 0.25 for i in range(22)] + [0.7])])

# each command writing its output into the row's directory, and that output
WRITING = {
    "train": ("train --kind naive_bayes --out-dir models", MODELS),
    "generate": ("generate --query-index 1 --preference a --out ces.json", CES),
    "evaluate": ("evaluate --ces {ces} --out metrics.json", METRICS),
}
JOB = '[{"name": "job", "kind": "categorical", "mutability": "mutable", "domain": %s}]'
MALFORMED_SCHEMAS = {  # each schema file, and the error
    "no-features": ("[]", "schema file must contain a non-empty JSON list of features"),
    "non-object-entry": ("[7]", "each schema entry must be a JSON object, got 7"),
    "string-domain": (JOB % '"ab"', "domain of 'job' must be a JSON list, got 'ab'"),
    "list-category": (JOB % '[["a"], "b"]', "a category of 'job' must be a JSON string, got ['a']"),
    # a CSV cell is a string: every row would fail with "value '1' not in domain"
    "number-category": (JOB % "[1, 2]", "a category of 'job' must be a JSON string, got 1"),
}
PATH_FLAGS = {"train": ("data", "schema", "out-dir"), "generate": ("data", "schema"),
              "evaluate": ("ces", "data", "schema", "validation-model"), "bench": ("config",)}
OUT_COMMANDS = {
    "generate": ("generate --query-index 1 --preference a", (), CES),
    "evaluate": ("evaluate --ces {ces}", (), ()),
    "bench": ("bench --config config.json", (config_file(),), REPORT),
}
OUTS = {  # each --out that names no file, and the rule it breaks
    "root": ("/", "must be a file path"),
    "dot": (".", "must be a file path"),
    "empty": ("", "must be a file path"),
    "nul": ("report\0", "must be a file path"),
    "parent": ("..", "must be a file path"),
    "missing-directory": ("no_such_dir/report", "must be a file in an existing directory"),
}

BENCH = "bench --config config.json"
VALIDATE = "evaluate --ces {ces} --folds 5 --validation-model model.json"

ROWS = [
    # usage errors (exit 1), found before anything is read
    Row("generate-no-preference", "generate --query-index 1", 1,
        "error: the following arguments are required: --preference\n", absent=CES, before="read"),
    Row("unknown-command-explain", "explain", 1, "error: argument command: invalid choice: 'explain'", before="read"),
    Row("unknown-command-encode", "encode", 1, "error: argument command: invalid choice: 'encode'", before="read"),
    *[Row(f"generate-{flag}-{value}", f"generate --query-index 1 --preference a --{flag} {value} --out ces.json", 1,
          f"error: {message}\n", absent=CES, before="read")
      for flag, value, message in [("budget", 0, "budget must be an integer >= 1, got 0"),
                                   ("depth", 2, "depth must be an integer in [3, 9], got 2"),
                                   ("num-ces", 0, "num_ces must be an integer >= 1, got 0")]],
    Row("evaluate-jury-svm", "evaluate --ces {ces} --jury knn,svm", 1, "error: unknown jury kind 'svm'", before="read"),
    Row("evaluate-jury-of-one", "evaluate --ces {ces} --jury knn", 1, "error: jury needs at least two member kinds\n",
        before="read"),
    Row("evaluate-jury-empty-kind", "evaluate --ces {ces} --jury knn,,naive_bayes", 1, "error: unknown jury kind ''",
        before="read"),
    Row("evaluate-jury-kind-twice", "evaluate --ces {ces} --jury knn,naive_bayes,knn", 1,
        "error: jury names kind 'knn' twice\n", before="read"),
    Row("evaluate-folds-1", "evaluate --ces {ces} --folds 1", 1, "error: folds must be an integer >= 2, got 1\n",
        before="read"),
    *[Row(f"{command}-seed-negative", f"{argv} --seed -1", 1, "error: --seed must be an integer >= 0, got -1\n",
          absent=absent, before="read")
      for command, argv, absent in [("train", "train --out-dir models", MODELS),
                                    ("generate", "generate --query-index 1 --preference a", CES),
                                    ("evaluate", "evaluate --ces {ces}", ())]],
    # an --out, or a config's out, that names no file: refused before anything is read
    *[Row(f"{command}-out-{name}", f"{argv} --out {shlex.quote(out)}", 2,
          f"data/schema error: --out {rule}, got {out!r}\n", inputs,
          absent + (("...csv", "...json") if out == ".." else ()),  # bench's stem .. would write them
          before="read", script=name in ("root", "parent", "missing-directory"))
      for command, (argv, inputs, absent) in OUT_COMMANDS.items() for name, (out, rule) in OUTS.items()],
    *[Row(f"{command}-out-directory", f"{argv} --out src", 2,
          "data/schema error: --out must be a file in an existing directory, got 'src'\n",
          (folder("src"),), before="read", script=True)
      for command, (argv, _, _) in OUT_COMMANDS.items() if command != "bench"],
    # a path flag that holds a NUL, or a train --out-dir that names no directory: refused before anything is read
    *[Row(f"{command}-{flag}-nul", f"{argv} --{flag} {shlex.quote(flag + chr(0))}", 2,
          f"data/schema error: --{flag} must be a {'directory' if flag == 'out-dir' else 'file'} path, "
          f"got {flag + chr(0)!r}\n", absent=absent, before="read")
      for command, (argv, absent) in {**WRITING, "bench": ("bench", REPORT)}.items() for flag in PATH_FLAGS[command]],
    *[Row(f"train-out-dir-{name}", f"train --kind naive_bayes --out-dir {out_dir}", 2,
          f"data/schema error: --out-dir must be a directory path, got {out_dir!r}\n", (text_file("afile", "x"),),
          before="read", script=name == "a-file")
      for name, out_dir in [("a-file", "afile"), ("in-a-file", "afile/models")]],
    Row("bench-config-out-nul", BENCH, 2,
        "data/schema error: config key 'out' must be a file path, got 'report\\x00'\n",
        (config_file(out="report\0"),), REPORT, before="read"),
    Row("bench-config-out-parent", BENCH, 2, "data/schema error: config key 'out' must be a file path, got '..'\n",
        (config_file(out=".."),), ("...csv", "...json"), before="read"),
    Row("bench-config-out-missing-directory", BENCH, 2,
        "data/schema error: config key 'out' must be a file in an existing directory, got 'missing/report'\n",
        (config_file(out="missing/report"),), ("missing",), before="read"),
    Row("bench-config-dataset-nul", BENCH, 2, "data/schema error: config key 'dataset' must be a file path, got '",
        (config_file(dataset="{data}\0"),), REPORT, before="read"),
    Row("bench-config-schema-nul", BENCH, 2, "data/schema error: config key 'schema' must be a file path, got '",
        (config_file(schema="{schema}\0"),), REPORT, before="read"),
    # a bench config of the wrong shape or with a value of the wrong type: refused before anything is read
    Row("bench-config-a-number", BENCH, 2, "data/schema error: config must be a JSON object, got 5\n",
        (text_file("config.json", "5"),), before="read"),
    Row("bench-config-a-list", BENCH, 2, "data/schema error: config must be a JSON object, got ['dataset']\n",
        (text_file("config.json", '["dataset"]'),), before="read"),
    Row("bench-config-unknown-key", BENCH, 2, "data/schema error: unknown config keys: ['depht']\n",
        (config_file(depht=3),), REPORT, before="read"),
    *[Row(f"bench-config-{name}", BENCH, 2, f"data/schema error: {message}\n", (config_file(**change),), REPORT,
          before="read")
      for name, change, message in [
          ("preferences-a-string", {"preferences": "ab"},  # would run preferences 'a' and 'b'
           "config key 'preferences' must be a list of distinct strings, got 'ab'"),
          ("jury-a-string", {"jury": "knn"},  # would become the kinds 'k', 'n', 'n'
           "config key 'jury' must be a list of distinct strings, got 'knn'"),
          ("generators-of-numbers", {"generators": [1]},
           "config key 'generators' must be a list of distinct strings, got [1]"),
          ("queries-a-string", {"queries": "2"}, "queries must be an integer >= 1, got '2'"),
          ("depth-a-fraction", {"depth": 3.5}, "depth must be an integer in [3, 9], got 3.5"),
          ("seed-true", {"seed": True}, "seed must be an integer >= 0, got True"),
          ("target-class-a-number", {"target_class": 1}, "config key 'target_class' must be a JSON string, got 1"),
          ("preference-twice", {"preferences": ["a", "c", "a"]},  # would write each tcol/a row twice
           "config key 'preferences' must be a list of distinct strings, got ['a', 'c', 'a']"),
          ("generator-twice", {"generators": ["tcol", "nearest_target", "tcol"]},  # would run T-COL twice
           "config key 'generators' must be a list of distinct strings, got ['tcol', 'nearest_target', 'tcol']"),
          ("jury-kind-twice", {"jury": ["knn", "knn"]},  # would pass the two-kinds rule with one kind
           "config key 'jury' must be a list of distinct strings, got ['knn', 'knn']"),
          ("seed-negative", {"seed": -1}, "seed must be an integer >= 0, got -1"),
          ("no-preferences-depth-2", {"preferences": [], "depth": 2}, "depth must be an integer in [3, 9], got 2"),
          ("no-preferences-num-ces-0", {"preferences": [], "num_ces": 0}, "num_ces must be an integer >= 1, got 0"),
          ("no-preferences-budget-0", {"preferences": [], "budget": 0}, "budget must be an integer >= 1, got 0"),
      ]],
    Row("bench-config-jury-svm", BENCH, 2, "data/schema error: unknown jury kind 'svm'",
        (config_file(jury=["knn", "svm"]),), REPORT, before="read"),
    # a setting past the bundled set's 200 rows, 130 of them approved: refused before any fit
    *[Row(f"bench-config-{key}-past-the-data", BENCH, 2,
          f"data/schema error: config key '{key}' asks for 500, but the data set has {limit} {what}\n",
          (config_file(generators=["random_path", "nearest_target"], **{key: 500}),), REPORT)
      for key, limit, what in [("queries", 70, "non-target rows"), ("folds", 200, "rows"),
                               ("num_ces", 130, "target rows")]],
    Row("generate-query-index-past-the-rows", "generate --query-index 9999 --preference c --out ces.json", 2,
        "data/schema error: --query-index 9999 is outside [0, 199]\n", absent=CES),
    Row("generate-query-index-negative", "generate --query-index -1 --preference c --out ces.json", 2,
        "data/schema error: --query-index -1 is outside [0, 199]\n", absent=CES),
    Row("generate-num-ces-past-the-target-rows", "generate --query-index 1 --preference c --num-ces 500 --out ces.json",
        2, "data/schema error: --num-ces asks for 500, but the data set has 130 target rows\n", absent=CES),
    Row("evaluate-folds-past-the-rows", "evaluate --ces {ces} --folds 500 --out metrics.json", 2,
        "data/schema error: --folds asks for 500, but the data set has 200 rows\n", absent=METRICS),
    # a data set or schema that no command loads: refused before any fit
    Row("train-missing-data", "train --kind naive_bayes --out-dir models --data missing.csv", 2,
        "data/schema error: [Errno 2] No such file or directory: 'missing.csv'\n", absent=MODELS),
    Row("train-schema-not-json", "train --kind naive_bayes --out-dir models --data {data} --schema schema.json", 2,
        "data/schema error: Expecting property name enclosed in double quotes",
        (text_file("schema.json", "{not json"),), MODELS),
    Row("train-csv-column-twice", "train --kind naive_bayes --out-dir models --data data.csv --schema {schema}", 2,
        "data/schema error: column 'age' named 2 times in CSV header\n",
        (text_file("data.csv", "".join(f"{line.split(',')[0]},{line}\n" for line in BUNDLED_LINES)),), MODELS),
    Row("generate-unknown-target-class", "generate --query-index 1 --preference a --target-class maybe --out ces.json",
        2, "data/schema error: target_class 'maybe' not present", absent=CES),
    Row("generate-unknown-feature-kind", "generate --query-index 1 --preference a --schema schema.json --out ces.json",
        2, "data/schema error: unknown feature kind 'ordinal'",
        (edited("{schema}", "schema.json", lambda entries: entries[0].update(kind="ordinal")),), CES),
    *[Row(f"{command}-schema-{name}", f"{argv} --data {{data}} --schema schema.json", 2,
          f"data/schema error: {message}\n", (text_file("schema.json", text),), absent)
      for command, (argv, absent) in WRITING.items() for name, (text, message) in MALFORMED_SCHEMAS.items()],
    *[on_local_data(command, name, message, inputs)
      for name, (inputs, message) in UNLOADABLE.items() for command in ("train", "bench")],
    *[on_local_data(command, "too-wide", "numeric feature 'x' spans -1e+308 to 1e+308, too wide to scale\n", TOO_WIDE)
      for command in ("train", "generate", "bench")],
    *[on_local_data(command, "rows-below-a-fit", "a model fit asks for 10, but the data set has 9 rows\n",
                    numeric_rows(5, 4), folds=2) for command in ("train", "generate", "evaluate", "bench")],
    *[on_local_data(command, "target-rows-below-centrality",
                    "centrality asks for 10, but the data set has 9 target rows\n", numeric_rows(9, 70), folds=10)
      for command in ("evaluate", "bench")],
    # the one denied row, row 0, is in fold 2, so fold 2 trains on approved rows only
    *[on_local_data(command, "one-class-fold", f"{name} asks for 2 folds, but with seed 0 fold 2 trains on "
                    "'approved' rows only\n", numeric_rows(20, 1), folds=2)
      for command, name in [("evaluate", "--folds"), ("bench", "config key 'folds'")]],
    # a CE file that evaluate refuses: before anything is read, or once the schema is read, before any fit
    Row("evaluate-ce-file-a-list", "evaluate --ces ces.json", 2,
        "data/schema error: a counterfactual file must be a JSON object, got [1, 2]\n",
        (text_file("ces.json", "[1, 2]"),), before="read"),
    Row("evaluate-ces-a-number", "evaluate --ces ces.json", 2, "data/schema error: 'ces' must be a JSON list, got 5\n",
        (text_file("ces.json", '{"ces": 5}'),), before="read"),
    Row("evaluate-ce-a-number", "evaluate --ces ces.json", 2,
        "data/schema error: each CE must be a JSON object, got 1\n",
        (text_file("ces.json", '{"ces": [1]}'),), before="read"),
    Row("evaluate-values-a-number", "evaluate --ces ces.json", 2,
        "data/schema error: each CE's 'values' must be a JSON object, got 5\n",
        (text_file("ces.json", '{"ces": [{"values": 5}]}'),), before="read"),
    Row("evaluate-no-ces", "evaluate --ces ces.json", 2,
        "data/schema error: counterfactual file contains no counterfactuals\n", (ces_file(ces=[]),), before="read"),
    *[Row(f"evaluate-ce-file-{name}", "evaluate --ces ces.json", 2, f"data/schema error: {message}\n",
          (ces_file(**change),), before="read")
      for name, change, message in [
          ("seed-negative", {"seed": -1}, "'seed' must be an integer >= 0, got -1"),
          ("seed-a-string", {"seed": "3"}, "'seed' must be an integer >= 0, got '3'"),
          ("dataset-a-number", {"dataset": 5}, "'dataset' must be a JSON string, got 5"),
          ("schema-null", {"schema": None}, "'schema' must be a JSON string, got None"),
          ("dataset-nul", {"dataset": "a\0"}, "'dataset' must be a file path, got 'a\\x00'"),
          ("schema-nul", {"schema": "\0"}, "'schema' must be a file path, got '\\x00'"),
          ("target-a-list", {"target": ["loan"]}, "'target' must be a JSON string, got ['loan']"),
          ("target-class-a-number", {"target_class": 1}, "'target_class' must be a JSON string, got 1"),
      ]],
    Row("evaluate-ce-file-query-a-list", "evaluate --ces ces.json", 2,
        "data/schema error: 'query' must be a JSON object, got [1]\n", (ces_file(query=[1]),)),
    *[Row(f"evaluate-{where}-{name}-{slug}", "evaluate --ces ces.json --folds 5", 2, f"data/schema error: {message}\n",
          (ce_cell(where, name, value),))
      for where, name, value, slug, message in [
          ("values", "income", math.nan, "nan", "'values.income' nan is outside the domain [8000, 90000]"),
          ("values", "income", "abc", "text", "'values.income' must be a JSON number, got 'abc'"),
          ("values", "income", None, "null", "'values.income' must be a JSON number, got None"),
          # not read as 1 or 43: the encoder's numeric cast would take both
          ("values", "age", True, "true", "'values.age' must be a JSON number, got True"),
          ("values", "age", "43", "text", "'values.age' must be a JSON number, got '43'"),
          ("query", "income", False, "false", "'query.income' must be a JSON number, got False"),
          ("values", "job", 3, "a-number", "'values.job' must be a JSON string, got 3"),
          ("query", "sex", ["male"], "a-list", "'query.sex' must be a JSON string, got ['male']"),
      ]],
    # not clamped into the domain, which would score vectors the file does not hold
    *[Row(f"evaluate-{where}-{name}-{slug}", f"evaluate --ces ces.json{out}", 2, f"data/schema error: {message}\n",
          (ce_cell(where, name, value),), METRICS if out else (), script=bool(out))
      for where, name, value, slug, out, message in [
          ("values", "income", 1e9, "past-the-domain", " --out metrics.json",
           "'values.income' 1000000000.0 is outside the domain [8000, 90000]"),
          ("values", "income", -5.0, "below-the-domain", "",
           "'values.income' -5.0 is outside the domain [8000, 90000]"),
          ("query", "age", 500, "past-the-domain", "", "'query.age' 500 is outside the domain [18, 75]"),
          ("values", "income", 89000.0, "past-the-fitted-range", " --out metrics.json",
           "'values.income' 89000.0 is outside the range of the data the encoder was fitted on [21159, 81537]"),
          ("query", "age", 19, "below-the-fitted-range", "",
           "'query.age' 19 is outside the range of the data the encoder was fitted on [21, 65]"),
      ]],
    Row("evaluate-values-past-the-rounding-of-the-domain", "evaluate --ces ces.json --folds 2", 2,
        "data/schema error: 'values.x' 0.7000001 is outside the domain [-5, 0.7]\n",
        (*ROUNDED, numeric_ces({"x": -5.0, "y": 0.0}, {"x": 0.7000001, "y": 0.0}))),
    Row("evaluate-values-missing-income", "evaluate --ces ces.json --folds 5", 2,
        "data/schema error: missing key 'income'\n", (ces_file(lambda p: p["ces"][0]["values"].pop("income")),)),
    # a --validation-model file that evaluate refuses, before the jury's cross-validation
    *[Row(f"model-{name}", VALIDATE, 2, f"data/schema error: {message}", (model_file(kind, **change),), before="jury")
      for name, kind, change, message in [
          ("version-1", "random_forest", {"format_version": 1}, "model file version 1 is not 2: run tcol train again"),
          ("kind-svm", "random_forest", {"kind": "svm"}, "unknown model kind 'svm'"),
          ("unknown-hyperparameter", "random_forest", {"hyperparameters": {"k": 3}},
           "bad random_forest hyperparameters in file: random_forest got an unexpected keyword argument 'k'"),
          ("parameters-a-number", "random_forest", {"parameters": 5}, "parameters must be a JSON object, got 5"),
          ("target-class-a-list", "random_forest", {"target_class": ["x"]},
           "target_class must be a string or a number, got ['x']"),
          ("knn-target-class-unseen", "knn", {"target_class": "maybe"},
           "knn train_y must hold exactly the classes 'maybe'"),
          ("knn-k-true", "knn", {"hyperparameters": {"k": True}},
           "bad knn hyperparameters in file: k must be an integer >= 1, got True"),
          ("knn-k-a-fraction", "knn", {"hyperparameters": {"k": 2.5}},
           "bad knn hyperparameters in file: k must be an integer >= 1, got 2.5"),
          ("no-trees-to-grow", "random_forest", {"hyperparameters": {"n_trees": 0, "max_depth": 8, "seed": 0}},
           "bad random_forest hyperparameters in file: n_trees must be an integer >= 1, got 0"),
          ("seed-negative", "random_forest", {"hyperparameters": {"n_trees": 25, "max_depth": 8, "seed": -1}},
           "bad random_forest hyperparameters in file: seed must be an integer >= 0, got -1"),
          ("min-samples-split-0", "decision_tree", {"hyperparameters": {"max_depth": 8, "min_samples_split": 0}},
           "bad decision_tree hyperparameters in file: min_samples_split must be an integer >= 2, got 0"),
      ]],
    *[Row(f"model-{name}", VALIDATE, 2, f"data/schema error: {message}", (parameters(kind, edit),), before="jury")
      for name, kind, edit, message in [
          ("no-trees", "random_forest", lambda p: p.update(trees=[]),
           "random_forest trees must hold at least one tree"),
          ("knn-rows-cut", "knn", lambda p: p.update(train_x=p["train_x"][:3]), "knn train_x must be a finite matrix"),
          ("zero-var", "naive_bayes", lambda p: p["stats"]["approved"].update(var=[0.0] * 6),
           "naive_bayes stats['approved'] needs a finite mean and a finite var above 0"),
          ("threshold-text", "random_forest", lambda p: p["trees"][0]["threshold"].__setitem__(0, "x"),
           "random_forest trees[0] threshold is not an array of numbers: 'x'"),
          ("threshold-nan", "random_forest", lambda p: p["trees"][0]["threshold"].__setitem__(0, math.nan),
           "random_forest trees[0] node 0: threshold must be a number other than NaN, got nan"),
          ("tree-threshold-nan", "decision_tree", lambda p: p["trees"][0]["threshold"].__setitem__(0, math.nan),
           "decision_tree trees[0] node 0: threshold must be a number other than NaN, got nan"),
          ("feature-negative", "random_forest", lambda p: p["trees"][0]["feature"].__setitem__(0, -1),
           "random_forest trees[0] node 0: feature -1 is no column index"),
          ("feature-fraction", "random_forest", lambda p: p["trees"][0]["feature"].__setitem__(0, 1.5),
           "random_forest trees[0] feature is not an array of integers: 1.5"),
          ("feature-true", "random_forest", lambda p: p["trees"][0]["feature"].__setitem__(0, True),
           "random_forest trees[0] feature is not an array of integers: True"),
          ("stats-widths-differ", "naive_bayes", cut_stats(["approved"], 5),
           "naive_bayes stats must give both classes one number of features"),
          # the model file is sound, but its width does not fit the data's 6 features
          ("knn-width", "knn", lambda p: p.update(train_x=[row[:3] for row in p["train_x"]]),
           "knn model reads rows of 3 features, the data has 6"),
          ("naive-bayes-width", "naive_bayes", cut_stats(["approved", "denied"], 2),
           "naive_bayes model reads rows of 2 features, the data has 6"),
          ("forest-feature-past-width", "random_forest", lambda p: p["trees"][0]["feature"].__setitem__(0, 6),
           "random_forest splits on feature 6, so it reads rows of at least 7 features; the data has 6"),
          ("tree-feature-past-width", "decision_tree", lambda p: p["trees"][0]["feature"].__setitem__(0, 99),
           "decision_tree splits on feature 99, so it reads rows of at least 100 features; the data has 6"),
          ("root-loop", "random_forest", lambda p: p["trees"][0]["left"].__setitem__(0, 0),
           "random_forest trees[0] node 0: left and right must both be 0 (a leaf) or lie in (0, "),
          ("tree-list", "decision_tree", lambda p: p.update(trees=[[0.5]]),
           "decision_tree trees[0] must be a JSON object, got [0.5]"),
          ("feature-huge", "random_forest", lambda p: p["trees"][0]["feature"].__setitem__(0, 2**70),
           f"random_forest trees[0] feature is not an array of integers: {2**70}"),
          ("threshold-huge", "random_forest", lambda p: p["trees"][0]["threshold"].__setitem__(0, 2**2000),
           f"random_forest trees[0] threshold is not an array of numbers: {str(2**2000)[:40]}"),
          ("value-true", "random_forest", lambda p: p["trees"][0]["value"].__setitem__(first_leaf(p["trees"][0]), True),
           "random_forest trees[0] value is not an array of numbers: True"),
          ("cycle-to-the-root", "random_forest", lambda p: p["trees"][0]["right"].__setitem__(1, 0),
           "random_forest trees[0] node 1: left and right must both be 1 (a leaf) or lie in (1, 59), got 3 and 0"),
      ]],
    Row("model-kind-missing", VALIDATE, 2, "data/schema error: missing key 'kind'\n",
        (model_file("random_forest", lambda p: p.pop("kind")),), before="jury"),
    Row("model-of-other-labels", "evaluate --ces {ces} --validation-model model.json --out metrics.json", 2,
        "data/schema error: random_forest model classes ('x', 'y') are not the data's labels ('approved', 'denied')\n",
        (model_file("random_forest", target_class="x", other_class="y"),), METRICS, before="jury", script=True),
]


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """Each source's path: the bundled data and schema, a CE file and the four
    model files that ``generate`` and ``train`` write, and a bench config."""
    made = tmp_path_factory.mktemp("sources")
    paths = dict(data=DATA, schema=SCHEMA, ces=str(made / "ces.json"), models=str(made / "models"),
                 config=str(made / "config.json"))
    assert main(["generate", "--query-index", "1", "--preference", "c", "--num-ces", "3", "--out", paths["ces"]]) == 0
    assert main(["train", "--out-dir", paths["models"]]) == 0
    config = dict(dataset=DATA, schema=SCHEMA, target="loan", target_class="approved", preferences=["c"],
                  generators=["tcol"], queries=2, seed=0, depth=3, num_ces=3, budget=32,
                  jury=["knn", "decision_tree"], folds=5, out="report")
    Path(paths["config"]).write_text(json.dumps(config), encoding="utf-8")
    return paths


@pytest.fixture(scope="module")
def script():
    """The ``tcol`` console script beside ``sys.executable``, if it imports this checkout's ``src/tcol``."""
    found = shutil.which("tcol", path=os.path.dirname(sys.executable))
    if found is None:
        pytest.skip(f"no tcol console script beside {sys.executable} (pip install -e . makes one)")
    # what the script imports: its own directory comes first on sys.path
    probe = "import sys; sys.path[0] = sys.argv[1]; import tcol; print(tcol.__file__)"
    done = subprocess.run([sys.executable, "-c", probe, os.path.dirname(found)], env=SCRIPT_ENV,
                          capture_output=True, text=True)
    imported = done.stdout.strip()
    if not imported or Path(imported).resolve() != ROOT / "src" / "tcol" / "__init__.py":
        pytest.skip(f"{found} imports tcol from {imported or 'nowhere'}, not from this checkout's src/tcol")
    return found


def reached(name, *args, **kwargs):
    raise AssertionError(f"the refusal came after {name}")


def refuses(row, sources, tmp, run):
    """Write ``row``'s inputs into ``tmp``, ``run(argv)`` there, and check the refusal."""
    for write in row.inputs:
        write(tmp, sources)
    held = sorted(tmp.rglob("*"))
    code, out, err = run([word.format(**sources) for word in shlex.split(row.argv)])
    assert (code, out) == (row.code, ""), err
    assert row.message in err and err.count("\n") == 1, err
    assert [name for name in row.absent if (tmp / name).exists()] == []
    assert sorted(tmp.rglob("*")) == held


@pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in ROWS])
def test_cli_main_refuses(row, sources, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for module, name in NOT_REACHED[row.before]:
        monkeypatch.setattr(module, name, partial(reached, f"{module.__name__}.{name}"))

    def run(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    refuses(row, sources, tmp_path, run)


@pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in ROWS if row.script])
def test_the_console_script_refuses(row, script, sources, tmp_path):
    def run(argv):
        done = subprocess.run([script, *argv], cwd=tmp_path, env=SCRIPT_ENV, capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr

    refuses(row, sources, tmp_path, run)


def refuse_constant(constant):
    raise ValueError(f"{constant} is no JSON value")


def test_the_console_script_writes_strict_json(script, tmp_path):
    """``train`` writes the four model files, ``generate`` a CE file, which
    ``evaluate`` reads with the trained forest, and ``bench``, on a 2-query
    copy of the README's config, a report: each is strict JSON, without
    ``Infinity`` or ``NaN``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    config = json.loads(readme.split("`bench` reads a JSON config")[1].split("```json")[1].split("```")[0])
    config.update(queries=2, dataset=str(ROOT / config["dataset"]), schema=str(ROOT / config["schema"]))
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    for argv in ["train --out-dir models", "generate --query-index 1 --preference a --out ces.json",
                 "evaluate --ces ces.json --validation-model models/random_forest.model.json",
                 "bench --config config.json --no-timing"]:
        done = subprocess.run([script, *argv.split()], cwd=tmp_path, env=SCRIPT_ENV, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    written = [*sorted(tmp_path.glob("models/*.model.json")), tmp_path / "ces.json", tmp_path / "report.json"]
    assert len(written) == 6
    for path in written:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse_constant)


def loads(load, path, error, message) -> bool:
    """Whether ``load(path)`` returns; a refusal must be an ``error`` that holds ``message``."""
    try:
        load(path)
    except error as exc:
        assert message in str(exc)
        return False
    return True


@pytest.mark.parametrize("value, number", [
    (2**1023 - 1, True), (2**1023, False), (-(2**1023), False), (10**400, False), (True, False), (1.5, True),
    ("1", False),
], ids=["2**1023-1", "2**1023", "-2**1023", "10**400", "true", "1.5", "text"])
def test_the_readers_agree_on_what_is_a_number(value, number, sources, tmp_path, capsys):
    """A schema's numeric bound, a CE file's numeric cell and a model file's
    tree threshold are each a number, or each refused as none."""
    (tmp_path / "schema.json").write_text(json.dumps([numeric("x", value, value)]), encoding="utf-8")
    bound = loads(load_schema, tmp_path / "schema.json", SchemaViolationError,
                  "numeric domain of 'x' is not two finite numbers")
    # a number is refused too, as outside the domain, but not as no number
    ce_cell("values", "income", value)(tmp_path, sources)
    assert main(["evaluate", "--ces", str(tmp_path / "ces.json"), "--folds", "5"]) == 2
    cell = "'values.income' must be a JSON number" not in capsys.readouterr().err
    parameters("random_forest", lambda p: p["trees"][0]["threshold"].__setitem__(0, value))(tmp_path, sources)
    threshold = loads(load_model, tmp_path / "model.json", ModelFileError,
                      "random_forest trees[0] threshold is not an array of numbers")
    assert (bound, cell, threshold) == (number,) * 3
