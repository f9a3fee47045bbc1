"""Mutate what the loaders read, one small input at a time: numeric CSV
cells, schema entries and bench config values. Every command must then
finish (exit 0) or refuse the input as bad data (exit 2), never exit 3, and
an exit 0 must leave only strict JSON files and finite metrics."""

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcol.cli import main
from tcol.experiment import ExperimentConfig

# the library's warnings (no CE found, CEs left out of centrality) are no failure
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

# 24 rows; p, q and r are approved in 6, 4 and 2 of their 8 rows, so their
# target rates differ, and 12 rows are of the target class
ROWS = [
    ("pqr"[i % 3], str((i * 37) % 101 - 50), str((i * 13) % 101),
     "approved" if i // 3 < {"p": 6, "q": 4, "r": 2}["pqr"[i % 3]] else "denied")
    for i in range(24)
]
SCHEMA = [
    {"name": "c", "kind": "categorical", "mutability": "immutable", "domain": ["p", "q", "r"]},
    {"name": "x", "kind": "numeric", "mutability": "mutable", "domain": [-1e308, 1e308]},
    {"name": "y", "kind": "numeric", "mutability": "mutable", "domain": [0, 100]},
]
CONFIG = {
    "dataset": "data.csv",
    "schema": "schema.json",
    "target": "loan",
    "target_class": "approved",
    "preferences": ["a", "c"],
    "generators": ["tcol", "nearest_target", "random_path"],
    "queries": 2,
    "seed": 0,
    "depth": 3,
    "num_ces": 2,
    "budget": 8,
    "jury": ["knn", "naive_bayes"],
    "folds": 2,
    "out": "report",
}
QUERY = str(next(i for i, row in enumerate(ROWS) if row[3] == "denied"))  # for generate
DATA = ["--data", "data.csv", "--schema", "schema.json", "--target", "loan", "--target-class", "approved"]

CELLS = ["1e308", "-1e308", "5e-324", "-5e-324", "-0", "0", "1e309", "nan", "inf", "abc", "1,5"]
ODD_VALUES = [
    10**400, -(10**400), 2**63, -1, 0, 1, 1.5, True, None, "", "x", "x\0", [], {}, [0], [0, 10**400],
    [10**400, 0], [1e308, -1e308], ["p", "p"], ["p", "q"], ["a"], ["tcol"], ["knn"], ["knn", "knn"],
]


@contextlib.contextmanager
def inside_a_new_directory():
    """A fresh temporary working directory, so relative paths stay in it."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(old)


def write_inputs(rows=ROWS, schema=SCHEMA, config=CONFIG):
    Path("data.csv").write_text(
        "c,x,y,loan\n" + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8"
    )
    Path("schema.json").write_text(json.dumps(schema), encoding="utf-8")
    Path("config.json").write_text(json.dumps(config), encoding="utf-8")


def run(*args) -> int:
    """``tcol *args``, which must exit 0 or 2; its output is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(args))
    assert code in (0, 2), f"tcol {' '.join(args)} exited {code}: {err.getvalue()}"
    return code


def refuse(constant):
    raise AssertionError(f"{constant} is no JSON value")


def check_outputs(directory: Path) -> None:
    """Every JSON file the commands wrote is strict, and every metric they wrote is finite."""
    for path in directory.rglob("*.json"):
        if path.name not in ("schema.json", "config.json"):
            json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
    metrics = []
    if Path("metrics.json").exists():
        metrics += json.loads(Path("metrics.json").read_text(encoding="utf-8")).values()
    if Path("report.csv").exists():
        for line in Path("report.csv").read_text(encoding="utf-8").splitlines()[1:]:
            metrics += [float(cell) for cell in line.split(",")[3:]]
    assert all(math.isfinite(value) for value in metrics), metrics


def run_every_command(directory: Path) -> None:
    """train, generate, evaluate (on generate's file, if it wrote one) and bench."""
    run("train", "--out-dir", "models", *DATA)
    if run("generate", "--query-index", QUERY, "--preference", "c", "--num-ces", "2", *DATA) == 0:
        run("evaluate", "--ces", "ces.json", "--folds", "2", "--out", "metrics.json")
    run("bench", "--config", "config.json", "--no-timing")
    check_outputs(directory)


def test_the_unmutated_inputs_pass_every_command():
    with inside_a_new_directory() as directory:
        write_inputs()
        run_every_command(directory)
        assert Path("metrics.json").exists() and Path("report.json").exists()


@settings(max_examples=25, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, len(ROWS) - 1), st.sampled_from([1, 2]), st.sampled_from(CELLS)),
                      min_size=1, max_size=3))
@example(cells=[(0, 1, "-1e308"), (1, 1, "1e308")])  # max - min of x overflows
def test_mutated_numeric_cells(cells):
    rows = [list(row) for row in ROWS]
    for row, column, value in cells:
        rows[row][column] = value
    with inside_a_new_directory() as directory:
        write_inputs(rows=rows)
        run_every_command(directory)


@settings(max_examples=25, deadline=None)
@given(
    feature=st.integers(0, len(SCHEMA) - 1),
    key=st.sampled_from(["name", "kind", "mutability", "domain", "domain[0]", "domain[-1]"]),
    value=st.sampled_from(ODD_VALUES),
)
@example(feature=2, key="domain[-1]", value=10**400)  # a bound past the float range
def test_mutated_schema_entries(feature, key, value):
    schema = json.loads(json.dumps(SCHEMA))
    entry = schema[feature]
    if key.startswith("domain["):
        entry["domain"][int(key[7:-1])] = value
    else:
        entry[key] = value
    with inside_a_new_directory() as directory:
        write_inputs(schema=schema)
        run_every_command(directory)


@settings(max_examples=25, deadline=None)
@given(key=st.sampled_from([f.name for f in fields(ExperimentConfig)]), value=st.sampled_from(ODD_VALUES))
@example(key="out", value="")  # a path that names no file
def test_mutated_bench_config_values(key, value):
    with inside_a_new_directory() as directory:
        write_inputs(config=dict(CONFIG, **{key: value}))
        run("bench", "--config", "config.json", "--no-timing")
        check_outputs(directory)
