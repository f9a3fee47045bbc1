import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcol import cli, experiment
from tcol.cli import main
from tcol.engine import AlreadyTargetWarning, GenerationConfig
from tcol.metrics import METRICS
from tcol.models import MODEL_KINDS, ModelFileError, load_model


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "bench" in capsys.readouterr().out


def test_missing_required_argument_is_usage_error(capsys):
    assert main(["generate", "--query-index", "1"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["explain", "encode"])
def test_unknown_subcommand_is_usage_error(command):
    assert main([command]) == 1


def train(tmp_path, *args):
    """``tcol train --kind naive_bayes`` into ``tmp_path / "models"``: the
    cheapest command that reads a CSV and its schema."""
    return main(["train", "--kind", "naive_bayes", "--out-dir", str(tmp_path / "models"), *args])


def test_missing_data_file_is_data_error(tmp_path, capsys):
    assert train(tmp_path, "--data", str(tmp_path / "missing.csv")) == 2
    assert "data/schema error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_bad_schema_json_is_data_error(tmp_path, synthetic_files):
    bad = tmp_path / "schema.json"
    bad.write_text("{not json", encoding="utf-8")
    assert train(tmp_path, "--data", synthetic_files["dataset"], "--schema", str(bad)) == 2
    assert list(tmp_path.iterdir()) == [bad]  # nothing written


def test_csv_column_named_twice_is_data_error(tmp_path, synthetic_files, capsys):
    lines = Path(synthetic_files["dataset"]).read_text(encoding="utf-8").splitlines()
    first = lines[0].split(",")[0]
    data = tmp_path / "data.csv"
    data.write_text(
        "\n".join(f"{line.split(',')[0]},{line}" for line in lines) + "\n", encoding="utf-8"
    )
    assert train(tmp_path, "--data", str(data), "--schema", synthetic_files["schema"]) == 2
    assert f"column {first!r} named 2 times in CSV header" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [data]  # nothing written


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        ("generate", "--query-index", "9999", "--query-index 9999 is outside [0, 199]"),
        ("generate", "--query-index", "-1", "--query-index -1 is outside [0, 199]"),
        ("generate", "--num-ces", "500", "--num-ces asks for 500, but the data set has 130 target rows"),
        ("evaluate", "--folds", "500", "--folds asks for 500, but the data set has 200 rows"),
    ],
    ids=["query-index", "negative-query-index", "num-ces", "folds"],
)
def test_a_flag_past_the_data_is_data_error_before_any_fit(
    command, option, value, message, ce_file, tmp_path, monkeypatch, capsys
):
    """The bundled set has 200 rows, 130 of them approved."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} fitted a model before checking {option} against the data")

    for name in ("fit_builtin", "cv_weights", "load_model"):
        monkeypatch.setattr(cli, name, refuse)
    args = {
        "generate": ["--query-index", "1", "--preference", "c", "--out", str(tmp_path / "out.json")],
        "evaluate": ["--ces", str(ce_file), "--out", str(tmp_path / "out.json")],
    }[command]
    assert main([command, *args, option, value]) == 2
    assert f"data/schema error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_unknown_target_class_is_data_error(tmp_path, capsys):
    code = main(
        ["generate", "--query-index", "1", "--preference", "a", "--target-class", "maybe",
         "--out", str(tmp_path / "ces.json")]
    )
    assert code == 2
    assert "target_class 'maybe' not present" in capsys.readouterr().err


def test_unknown_feature_kind_is_data_error(tmp_path, synthetic_files, capsys):
    entries = json.loads(Path(synthetic_files["schema"]).read_text(encoding="utf-8"))
    entries[0]["kind"] = "ordinal"
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(entries), encoding="utf-8")
    code = main(
        ["generate", "--query-index", "1", "--preference", "a", "--schema", str(schema),
         "--out", str(tmp_path / "ces.json")]
    )
    assert code == 2
    assert "unknown feature kind 'ordinal'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "schema_text",
    [
        "[]",
        "[7]",
        '[{"name": "job", "kind": "categorical", "mutability": "mutable", "domain": "ab"}]',
        '[{"name": "job", "kind": "categorical", "mutability": "mutable", "domain": [["a"], "b"]}]',
    ],
    ids=["no-features", "non-object-entry", "string-domain", "list-category"],
)
@pytest.mark.parametrize("command", ["train", "generate", "evaluate"])
def test_a_malformed_schema_is_a_data_error(tmp_path, synthetic_files, ce_file, capsys, command, schema_text):
    schema = tmp_path / "schema.json"
    schema.write_text(schema_text, encoding="utf-8")
    args = {
        "train": ["--kind", "naive_bayes", "--out-dir", str(tmp_path)],
        "generate": ["--query-index", "1", "--preference", "a", "--out", str(tmp_path / "ces.json")],
        "evaluate": ["--ces", str(ce_file), "--out", str(tmp_path / "metrics.json")],
    }[command]
    code = main([command, "--data", synthetic_files["dataset"], "--schema", str(schema), *args])
    assert code == 2
    assert "data/schema error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [schema]  # nothing written


@pytest.mark.parametrize(
    "option, value, message",
    [("--budget", "0", "budget"), ("--depth", "2", "depth"), ("--num-ces", "0", "num_ces")],
)
def test_bad_generation_option_is_a_usage_error_before_any_read(
    tmp_path, monkeypatch, capsys, option, value, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("generate read data or fitted a model before checking its options")

    monkeypatch.setattr(experiment, "load_csv", refuse)
    monkeypatch.setattr(cli, "fit_builtin", refuse)
    code = main(
        ["generate", "--query-index", "1", "--preference", "a", option, value,
         "--out", str(tmp_path / "ces.json")]
    )
    assert code == 1
    assert message in capsys.readouterr().err


def test_train_notes_a_row_dropped_for_an_empty_cell(tmp_path, synthetic_files, capsys):
    lines = Path(synthetic_files["dataset"]).read_text(encoding="utf-8").splitlines()
    lines[1] = "," + lines[1].split(",", 1)[1]  # no age
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert train(tmp_path, "--data", str(data), "--schema", synthetic_files["schema"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"read {len(lines) - 2} rows (1 dropped)",
        f"trained naive_bayes -> {tmp_path / 'models' / 'naive_bayes.model.json'}",
    ]


def test_train_persists_loadable_models(tmp_path):
    assert main(["train", "--kind", "decision_tree", "--out-dir", str(tmp_path)]) == 0
    model = load_model(tmp_path / "decision_tree.model.json")
    assert model.kind == "decision_tree"
    assert model.fitted


@pytest.fixture(scope="module")
def ce_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ces.json"
    code = main(
        ["generate", "--query-index", "1", "--preference", "c",
         "--num-ces", "3", "--out", str(out)]
    )
    assert code == 0
    return out


def test_generate_output_structure(ce_file, synthetic):
    payload = json.loads(ce_file.read_text(encoding="utf-8"))
    assert payload["preference"] == "c"
    assert payload["query"] == synthetic.row_as_dict(1)
    assert 1 <= len(payload["ces"]) <= 3
    for ce in payload["ces"]:
        assert set(ce["values"]) == {f.name for f in synthetic.schema}
        assert ce["values"]["sex"] == payload["query"]["sex"]  # immutable feature

    # row 1 of the bundle is a denied loan; validated CEs flip it
    assert payload["target_class"] == "approved"


def test_generate_records_every_generation_setting(tmp_path):
    out = tmp_path / "ces.json"
    argv = ["generate", "--query-index", "4", "--preference", "b", "--budget", "7", "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload.items() >= asdict(GenerationConfig(preference="b", budget=7)).items()
    assert payload["budget"] == 7 and payload["seed"] == 0


def test_evaluate_refits_with_the_seed_recorded_in_the_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--query-index", "4", "--preference", "b", "--seed", "3"]) == 0
    for override, validity in ([], "1.000000"), (["--seed", "0"], "0.600000"):
        capsys.readouterr()
        assert main(["evaluate", "--ces", "ces.json", *override]) == 0
        assert f"validity: {validity}" in capsys.readouterr().out.splitlines()


def test_an_empty_counterfactual_file_is_refused_before_any_read(ce_file, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate read data before checking the counterfactual file")

    monkeypatch.setattr(experiment, "load_csv", refuse)
    empty = tmp_path / "ces.json"
    empty.write_text(json.dumps(dict(json.loads(ce_file.read_text(encoding="utf-8")), ces=[])))
    assert main(["evaluate", "--ces", str(empty)]) == 2
    assert "contains no counterfactuals" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, code",
    [("bench", 2), ("train", 1), ("generate", 1), ("evaluate", 1), ("ce-file", 2)],
)
def test_a_negative_seed_is_refused_before_any_read(
    command, code, ce_file, synthetic_files, tmp_path, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} read data before checking the seed")

    monkeypatch.setattr(experiment, "load_csv", refuse)
    bad_file = tmp_path / "ces.json"
    bad_file.write_text(json.dumps(dict(json.loads(ce_file.read_text(encoding="utf-8")), seed=-1)))
    argv = {
        "bench": ["bench", "--config", str(bench_config(tmp_path, synthetic_files, seed=-1))],
        "train": ["train", "--seed", "-1", "--out-dir", str(tmp_path)],
        "generate": ["generate", "--query-index", "1", "--preference", "a", "--seed", "-1"],
        "evaluate": ["evaluate", "--ces", str(ce_file), "--seed", "-1"],
        "ce-file": ["evaluate", "--ces", str(bad_file)],
    }[command]
    assert main(argv) == code
    assert re.search(r"seed'? must be an integer >= 0, got -1", capsys.readouterr().err)


def test_evaluate_reads_generate_output(ce_file, capsys):
    assert main(["evaluate", "--ces", str(ce_file), "--folds", "5"]) == 0
    names = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()]
    assert names == list(METRICS)


def test_evaluate_reads_a_file_with_the_old_distance_and_fcs_variant_keys(ce_file, tmp_path, capsys):
    """Older versions wrote two more settings between ``num_ces`` and
    ``budget``; they held the only values there were, and change nothing."""
    payload = json.loads(ce_file.read_text(encoding="utf-8"))
    old = {}
    for key, value in payload.items():
        if key == "budget":
            old.update(distance="euclidean", fcs_variant="sparsity_corrected")
        old[key] = value
    printed = []
    for name, content in ("new.json", payload), ("old.json", old):
        (tmp_path / name).write_text(json.dumps(content, indent=2) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--ces", str(tmp_path / name), "--folds", "5"]) == 0
        printed.append(capsys.readouterr().out.splitlines())
    assert len(printed[0]) == len(METRICS) and printed[1] == printed[0]


def test_evaluate_notes_counterfactuals_left_out_of_centrality(
    ce_file, synthetic, synthetic_encoded, tmp_path, capsys
):
    # a CE that is the target row nearest the centroid has no centrality
    nearest = synthetic_encoded.centroid_neighbors[0][0]
    row = next(i for i, x in enumerate(synthetic_encoded.X) if x.tobytes() == nearest.tobytes())
    payload = json.loads(ce_file.read_text(encoding="utf-8"))
    payload["ces"] = [dict(payload["ces"][0], values=synthetic.row_as_dict(row))]
    path = tmp_path / "ces.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--ces", str(path), "--folds", "5"]) == 0
    captured = capsys.readouterr()
    assert "centrality: 0.000000" in captured.out.splitlines()
    assert captured.err == "centrality: excluded 1 coincident counterfactuals\n"


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("bench", 5, "config must be a JSON object, got 5"),
        ("bench", ["dataset"], "config must be a JSON object, got ['dataset']"),
        ("evaluate", [1, 2], "a counterfactual file must be a JSON object, got [1, 2]"),
        ("evaluate", {"ces": 5}, "'ces' must be a JSON list, got 5"),
        ("evaluate", {"ces": [1]}, "each CE must be a JSON object, got 1"),
        ("evaluate", {"ces": [{"values": 5}]}, "each CE's 'values' must be a JSON object, got 5"),
    ],
)
def test_json_of_the_wrong_shape_is_a_data_error(tmp_path, command, content, message, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    flag = {"bench": "--config", "evaluate": "--ces"}[command]
    assert main([command, flag, str(path)]) == 2
    assert capsys.readouterr().err == f"data/schema error: {message}\n"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", "3", "'seed' must be an integer >= 0, got '3'"),
        ("dataset", 5, "'dataset' must be a JSON string, got 5"),
        ("schema", None, "'schema' must be a JSON string, got None"),
        ("dataset", "a\0", "'dataset' must be a file path, got 'a\\x00'"),
        ("schema", "\0", "'schema' must be a file path, got '\\x00'"),
        ("target", ["loan"], "'target' must be a JSON string, got ['loan']"),
        ("target_class", 1, "'target_class' must be a JSON string, got 1"),
        ("query", [1], "'query' must be a JSON object, got [1]"),
    ],
)
def test_evaluate_rejects_a_setting_of_the_wrong_type_before_any_fit(
    ce_file, tmp_path, key, value, message, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate fitted a model before checking the counterfactual file")

    monkeypatch.setattr(cli, "fit_builtin", refuse)
    payload = json.loads(ce_file.read_text(encoding="utf-8"))
    path = tmp_path / "ces.json"
    path.write_text(json.dumps(dict(payload, **{key: value})), encoding="utf-8")
    assert main(["evaluate", "--ces", str(path)]) == 2
    assert capsys.readouterr().err == f"data/schema error: {message}\n"


@pytest.mark.parametrize("value", [float("nan"), "abc", None])
def test_evaluate_rejects_a_non_finite_numeric_value_as_data_error(ce_file, tmp_path, value, capsys):
    payload = json.loads(ce_file.read_text(encoding="utf-8"))
    payload["ces"][0]["values"]["income"] = value
    bad = tmp_path / "ces.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--ces", str(bad), "--folds", "5"]) == 2
    err = capsys.readouterr().err
    assert "income" in err and repr(value) in err


@pytest.mark.parametrize(
    "key, name, value, message",
    [
        ("values", "age", True, "'values.age' must be a JSON number, got True"),
        ("values", "age", "43", "'values.age' must be a JSON number, got '43'"),
        ("query", "income", False, "'query.income' must be a JSON number, got False"),
        ("values", "job", 3, "'values.job' must be a JSON string, got 3"),
        ("query", "sex", ["male"], "'query.sex' must be a JSON string, got ['male']"),
    ],
)
def test_evaluate_rejects_a_value_of_another_json_type_than_generate_writes(
    ce_file, tmp_path, key, name, value, message, capsys
):
    """Not read as 1 or 43: the encoder's numeric cast would take both."""
    payload = json.loads(ce_file.read_text(encoding="utf-8"))
    holder = payload["ces"][0]["values"] if key == "values" else payload["query"]
    holder[name] = value
    path = tmp_path / "ces.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--ces", str(path), "--folds", "5"]) == 2
    assert capsys.readouterr().err == f"data/schema error: {message}\n"


def test_evaluate_takes_a_json_integer_as_a_number(ce_file, tmp_path, capsys):
    payload = json.loads(ce_file.read_text(encoding="utf-8"))
    payload["ces"][0]["values"]["age"] = int(payload["ces"][0]["values"]["age"])
    path = tmp_path / "ces.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--ces", str(path), "--folds", "5"]) == 0


@pytest.mark.parametrize(
    "key, name, value, message",
    [
        ("values", "income", 1e9, "'values.income' 1000000000.0 is outside the domain [8000, 90000]"),
        ("values", "income", -5.0, "'values.income' -5.0 is outside the domain [8000, 90000]"),
        ("query", "age", 500, "'query.age' 500 is outside the domain [18, 75]"),
        ("values", "income", 89000.0,
         "'values.income' 89000.0 is outside the range of the data the encoder was fitted on [21159, 81537]"),
        ("query", "age", 19, "'query.age' 19 is outside the range of the data the encoder was fitted on [21, 65]"),
    ],
)
def test_evaluate_refuses_a_numeric_value_outside_its_domain_before_any_fit(
    ce_file, tmp_path, key, name, value, message, monkeypatch, capsys
):
    """Not clamped into the domain, which would score vectors the file does not hold."""

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate fitted a model before checking the counterfactual file")

    monkeypatch.setattr(cli, "fit_builtin", refuse)
    payload = json.loads(ce_file.read_text(encoding="utf-8"))
    holder = payload["ces"][0]["values"] if key == "values" else payload["query"]
    holder[name] = value
    path = tmp_path / "ces.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--ces", str(path)]) == 2
    assert capsys.readouterr() == ("", f"data/schema error: {message}\n")


def test_evaluate_takes_a_value_that_decoding_rounded_past_its_domain(tmp_path, capsys):
    """Over a column from -5 to 0.7, a CE holding the row of 0.7 decodes it as 0.7000000000000002."""
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([
        {"name": "x", "kind": "numeric", "mutability": "mutable", "domain": [-5, 0.7]},
        {"name": "y", "kind": "numeric", "mutability": "mutable", "domain": [0, 100]},
    ]), encoding="utf-8")
    data = tmp_path / "data.csv"
    xs = [-5 + i * 0.25 for i in range(22)] + [0.7]
    data.write_text("x,y,loan\n" + "".join(
        f"{x!r},{7 * i % 11},{'denied' if i < 10 else 'approved'}\n" for i, x in enumerate(xs)
    ), encoding="utf-8")
    files = ["--data", str(data), "--schema", str(schema), "--target", "loan", "--target-class", "approved"]
    ces = tmp_path / "ces.json"
    assert main(["generate", *files, "--query-index", "0", "--preference", "a", "--out", str(ces)]) == 0
    _, encoder, encoded = experiment.load(str(data), str(schema), "loan", "approved")
    decoded = encoder.decode(encoded.X[-1])[0]
    assert decoded > 0.7
    payload = json.loads(ces.read_text(encoding="utf-8"))
    payload["ces"][0]["values"]["x"] = decoded
    ces.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--ces", str(ces), "--folds", "2"]) == 0
    payload["ces"][0]["values"]["x"] = 0.7000001
    ces.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--ces", str(ces), "--folds", "2"]) == 2
    assert capsys.readouterr().err.endswith("'values.x' 0.7000001 is outside the domain [-5, 0.7]\n")


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--jury", "knn,svm", "unknown jury kind 'svm'"),
        ("--jury", "knn", "at least two member kinds"),
        ("--jury", "knn,,naive_bayes", "unknown jury kind ''"),
        ("--jury", "knn,naive_bayes,knn", "jury names kind 'knn' twice"),
        ("--folds", "1", "folds must be an integer >= 2, got 1"),
    ],
)
def test_bad_jury_or_folds_is_a_usage_error_before_any_read(
    ce_file, monkeypatch, capsys, option, value, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate read data or fitted a model before checking --jury and --folds")

    monkeypatch.setattr(experiment, "load_csv", refuse)
    monkeypatch.setattr(cli, "fit_builtin", refuse)
    monkeypatch.setattr(cli, "cv_weights", refuse)
    assert main(["evaluate", "--ces", str(ce_file), option, value]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("format_version", 1, "model file version 1 is not 2: run tcol train again"),
        ("kind", "svm", "unknown model kind 'svm'"),
        ("hyperparameters", {"k": 3}, "unexpected keyword argument 'k'"),
        ("parameters", 5, "parameters must be an object, got 5"),
        ("target_class", ["x"], "target_class must be a string or a number, got ['x']"),
    ],
)
def test_bad_validation_model_file_is_data_error(ce_file, tmp_path, capsys, key, value, message):
    assert main(["train", "--kind", "random_forest", "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "random_forest.model.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(dict(payload, **{key: value})), encoding="utf-8")
    code = main(["evaluate", "--ces", str(ce_file), "--folds", "5", "--validation-model", str(path)])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, change, message",
    [
        ("knn", {"target_class": "maybe"}, "knn train_y must hold exactly the classes 'maybe'"),
        ("knn", {"hyperparameters": {"k": True}}, "k must be an integer >= 1, got True"),
        ("knn", {"hyperparameters": {"k": 2.5}}, "k must be an integer >= 1, got 2.5"),
        ("random_forest", {"hyperparameters": {"n_trees": 0, "max_depth": 8, "seed": 0}},
         "n_trees must be an integer >= 1, got 0"),
        ("random_forest", {"hyperparameters": {"n_trees": 25, "max_depth": 8, "seed": -1}},
         "seed must be an integer >= 0, got -1"),
        ("decision_tree", {"hyperparameters": {"max_depth": 8, "min_samples_split": 0}},
         "min_samples_split must be an integer >= 2, got 0"),
    ],
)
def test_validation_model_file_that_would_predict_nonsense_is_data_error(
    ce_file, tmp_path, capsys, kind, change, message
):
    assert main(["train", "--kind", kind, "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / f"{kind}.model.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(dict(payload, **change)), encoding="utf-8")
    code = main(["evaluate", "--ces", str(ce_file), "--folds", "5", "--validation-model", str(path)])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("random_forest", lambda p: p.update(trees=[]), "random_forest trees must hold at least one tree"),
        ("knn", lambda p: p.update(train_x=p["train_x"][:3]), "knn train_x must be a finite matrix"),
        ("naive_bayes", lambda p: p["stats"]["approved"].update(var=[0.0] * 6), "a finite var above 0"),
    ],
    ids=["no-trees", "knn-rows-cut", "zero-var"],
)
def test_validation_model_file_whose_parameters_would_predict_nonsense_is_data_error(
    ce_file, tmp_path, capsys, kind, edit, message
):
    assert main(["train", "--kind", kind, "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / f"{kind}.model.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload["parameters"])
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["evaluate", "--ces", str(ce_file), "--folds", "5", "--validation-model", str(path)])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """A model file of every built-in kind, written by ``tcol train``."""
    out = tmp_path_factory.mktemp("models")
    assert main(["train", "--out-dir", str(out)]) == 0
    return out


def test_every_trained_model_file_is_strict_json(trained_models):
    """No ``Infinity`` or ``NaN``, which Python's ``json`` writes and strict parsers refuse."""

    def refuse(constant):
        raise ValueError(f"{constant} is no JSON value")

    for kind in MODEL_KINDS:
        json.loads((trained_models / f"{kind}.model.json").read_text(encoding="utf-8"), parse_constant=refuse)


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


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("random_forest", lambda p: p["trees"][0]["threshold"].__setitem__(0, "x"),
         "random_forest trees[0] threshold is not an array of numbers: 'x'"),
        ("random_forest", lambda p: p["trees"][0]["threshold"].__setitem__(0, math.nan),
         "random_forest trees[0] node 0: threshold must be a number other than NaN, got nan"),
        ("decision_tree", lambda p: p["trees"][0]["threshold"].__setitem__(0, math.nan),
         "decision_tree trees[0] node 0: threshold must be a number other than NaN, got nan"),
        ("random_forest", lambda p: p["trees"][0]["feature"].__setitem__(0, -1),
         "random_forest trees[0] node 0: feature -1 is no column index"),
        ("random_forest", lambda p: p["trees"][0]["feature"].__setitem__(0, 1.5),
         "random_forest trees[0] feature is not an array of integers: 1.5"),
        ("random_forest", lambda p: p["trees"][0]["feature"].__setitem__(0, True),
         "random_forest trees[0] feature is not an array of integers: True"),
        ("naive_bayes", cut_stats(["approved"], 5),
         "naive_bayes stats must give both classes one number of features"),
        # the model file is sound, but its width does not fit the data's 6 features
        ("knn", lambda p: p.update(train_x=[row[:3] for row in p["train_x"]]),
         "knn model reads rows of 3 features, the data has 6"),
        ("naive_bayes", cut_stats(["approved", "denied"], 2),
         "naive_bayes model reads rows of 2 features, the data has 6"),
        ("random_forest", lambda p: p["trees"][0]["feature"].__setitem__(0, 6),
         "random_forest splits on feature 6, so it reads rows of at least 7 features; the data has 6"),
        ("decision_tree", lambda p: p["trees"][0]["feature"].__setitem__(0, 99),
         "decision_tree splits on feature 99, so it reads rows of at least 100 features; the data has 6"),
        ("random_forest", lambda p: p["trees"][0]["left"].__setitem__(0, 0),
         "random_forest trees[0] node 0: left and right must both be 0 (a leaf) or lie in (0, "),
        ("decision_tree", lambda p: p.update(trees=[[0.5]]), "decision_tree trees[0] must be an object, got [0.5]"),
        ("random_forest", lambda p: p["trees"][0]["feature"].__setitem__(0, 2**70),
         f"random_forest trees[0] feature is not an array of integers: {2**70}"),
        ("random_forest", lambda p: p["trees"][0]["threshold"].__setitem__(0, 2**2000),
         f"random_forest trees[0] threshold is not an array of numbers: {str(2**2000)[:40]}"),
        ("random_forest", lambda p: p["trees"][0]["value"].__setitem__(first_leaf(p["trees"][0]), True),
         "random_forest trees[0] value is not an array of numbers: True"),
        ("random_forest", lambda p: p["trees"][0]["right"].__setitem__(1, 0),
         "random_forest trees[0] node 1: left and right must both be 1 (a leaf) or lie in (1, 59), got 3 and 0"),
    ],
    ids=[
        "threshold-text", "threshold-nan", "tree-threshold-nan", "feature-negative", "feature-fraction",
        "feature-true", "stats-widths-differ", "knn-width", "naive-bayes-width", "forest-feature-past-width",
        "tree-feature-past-width", "root-loop", "tree-list", "feature-huge", "threshold-huge", "value-true",
        "cycle-to-the-root",
    ],
)
def test_validation_model_file_with_a_bad_split_or_width_is_data_error(
    ce_file, trained_models, tmp_path, capsys, kind, edit, message
):
    payload = json.loads((trained_models / f"{kind}.model.json").read_text(encoding="utf-8"))
    edit(payload["parameters"])
    path = tmp_path / f"{kind}.model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFileError, match=re.escape(message)):
        load_model(path).check_width(6)
    code = main(["evaluate", "--ces", str(ce_file), "--folds", "5", "--validation-model", str(path)])
    assert code == 2
    assert message in capsys.readouterr().err


# what a mutation writes: type swaps, true, huge integers, NaN, strings, lists, objects
ODD_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-3, 8),
    st.sampled_from([2**63, 2**70, 2**2000, -(2**2000)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=2),
    st.lists(st.integers(0, 2), max_size=2),
    st.fixed_dictionaries({}, optional={"leaf": st.floats(0, 1), "feature": st.integers(0, 5)}),
)


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def assert_evaluates_or_is_data_error(ces, model):
    """``tcol evaluate --folds 2 --validation-model model`` on ``ces`` prints
    ``len(METRICS)`` finite numbers (exit 0) or fails as bad data (exit 2), never exit 3."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["evaluate", "--ces", str(ces), "--folds", "2", "--validation-model", str(model)])
    assert code in (0, 2), err.getvalue()
    if code == 0:
        printed = [float(line.split(": ")[1]) for line in out.getvalue().splitlines()]
        assert len(printed) == len(METRICS) and all(math.isfinite(value) for value in printed)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["random_forest", "decision_tree"]), data=st.data())
def test_a_cart_file_with_one_array_mutated_evaluates_or_is_data_error(ce_file, trained_models, kind, data):
    """Set one entry of a tree's node array to an odd value or to a node
    index (cycles, self-loops and links out of the tree included), drop or
    repeat an entry, turn an array into floats or booleans, swap it for an
    odd value or delete it: ``tcol evaluate --validation-model`` then prints
    finite metrics (exit 0) or fails as bad data (exit 2), never exit 3."""
    payload = json.loads((trained_models / f"{kind}.model.json").read_text(encoding="utf-8"))
    params = payload["parameters"]
    tree = data.draw(st.sampled_from(params["trees"]))
    key = data.draw(st.sampled_from(TREE_ARRAYS))
    values, action = tree[key], data.draw(
        st.sampled_from(["entry", "index", "drop", "repeat", "floats", "booleans", "swap", "delete"])
    )
    i = data.draw(st.integers(0, len(values) - 1))
    if action == "entry":
        values[i] = data.draw(ODD_VALUES)
    elif action == "index":
        values[i] = data.draw(st.integers(-1, len(values)))
    elif action == "drop":
        del values[i]
    elif action == "repeat":
        values.append(values[i])
    elif action == "floats":
        tree[key] = [float(v) for v in values]
    elif action == "booleans":
        tree[key] = [bool(v) for v in values]
    elif action == "swap":
        tree[key] = data.draw(ODD_VALUES)
    else:
        del tree[key]
    path = trained_models / "mutated.model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert_evaluates_or_is_data_error(ce_file, path)


def json_slots(value, holder, key):
    """Every value of a JSON document under ``holder[key]`` as ``(holder, key)``, preorder."""
    yield holder, key
    if type(value) in (dict, list):
        for k, v in value.items() if type(value) is dict else enumerate(value):
            yield from json_slots(v, value, k)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["knn", "naive_bayes", "random_forest"]), data=st.data())
def test_a_model_file_with_one_record_or_top_level_value_mutated_predicts_probabilities_or_is_data_error(
    trained_models, synthetic_encoded, kind, data
):
    """Delete or set to an odd value one value of a knn or naive Bayes record,
    or the top-level ``parameters``, ``target_class`` or ``other_class`` of
    any file: the model then predicts probabilities in [0, 1] or fails as bad
    data (exit 2)."""
    payload = json.loads((trained_models / f"{kind}.model.json").read_text(encoding="utf-8"))
    slots = [(payload, key) for key in ("parameters", "target_class", "other_class")]
    if kind != "random_forest":  # the CART test above mutates tree nodes
        slots += list(json_slots(payload["parameters"], payload, "parameters"))[1:]
    holder, key = data.draw(st.sampled_from(slots))
    if data.draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = data.draw(ODD_VALUES)
    path = trained_models / "mutated.model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        model = load_model(path)
        model.check_width(6)
        proba = model.predict_proba_rows(synthetic_encoded.X)
    except cli._DATA_ERRORS:
        return
    assert ((proba >= 0.0) & (proba <= 1.0)).all()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_ce_file_with_one_value_mutated_evaluates_or_is_data_error(ce_file, trained_models, data):
    """Delete or set to an odd value one value anywhere in a ``generate``
    file: ``tcol evaluate`` then prints finite metrics (exit 0) or fails as
    bad data (exit 2), never exit 3."""
    payload = json.loads(ce_file.read_text(encoding="utf-8"))
    holder, key = data.draw(st.sampled_from(list(json_slots(payload, None, None))[1:]))
    if data.draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = data.draw(ODD_VALUES)
    path = trained_models / "mutated.ces.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert_evaluates_or_is_data_error(path, trained_models / "random_forest.model.json")


def test_readme_quick_start_prints_documented_metrics(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start (CLI)")[1].split("```bash")[1].split("```")[0]
    lines = block.splitlines()
    commands = [
        shlex.split(line)[1:] for line in lines if line.startswith(("tcol generate", "tcol evaluate"))
    ]
    documented = [line[2:] for line in lines if re.fullmatch(r"# \w+: -?\d+\.\d+", line)]
    assert len(commands) == 2 and len(documented) == len(METRICS)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == documented


def test_readme_library_quick_start_prints_one_line_per_ce(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start (library)")[1].split("```python")[1].split("```")[0]
    namespace = {}
    exec(block, namespace)
    lines = capsys.readouterr().out.splitlines()
    ces = namespace["generate"](
        namespace["encoded"], namespace["query"], namespace["config"], namespace["model"]
    )
    assert len(lines) == len(ces) >= 1
    for line, ce in zip(lines, ces):
        assert line.endswith(str(ce.validated))


def test_evaluate_writes_json(ce_file, tmp_path):
    out = tmp_path / "metrics.json"
    assert main(["evaluate", "--ces", str(ce_file), "--folds", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert 0.0 <= payload["validity"] <= 1.0


def test_evaluate_accepts_persisted_validation_model(ce_file, tmp_path):
    assert main(["train", "--kind", "random_forest", "--out-dir", str(tmp_path)]) == 0
    code = main(
        ["evaluate", "--ces", str(ce_file), "--folds", "5",
         "--validation-model", str(tmp_path / "random_forest.model.json")]
    )
    assert code == 0


def test_validation_model_of_other_labels_is_data_error_before_the_jury(ce_file, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate cross-validated the jury before checking the model's classes")

    assert main(["train", "--kind", "random_forest", "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "random_forest.model.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(dict(payload, target_class="x", other_class="y")), encoding="utf-8")
    capsys.readouterr()
    monkeypatch.setattr(cli, "cv_weights", refuse)
    out = tmp_path / "metrics.json"
    code = main(["evaluate", "--ces", str(ce_file), "--validation-model", str(path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr() == (
        "",
        "data/schema error: random_forest model classes ('x', 'y') are not the data's labels "
        "('approved', 'denied')\n",
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "train_args, edit, validity",
    [
        ([], {}, "1.000000"),
        ([], {"target_class": "denied", "other_class": "approved"}, "0.000000"),
        (["--target-class", "denied"], {}, "0.333333"),
    ],
    ids=["as-trained", "classes-swapped", "trained-for-denied"],
)
def test_validation_model_of_the_data_labels_loads_and_its_target_class_decides_validity(
    ce_file, tmp_path, capsys, train_args, edit, validity
):
    assert main(["train", "--kind", "random_forest", "--out-dir", str(tmp_path), *train_args]) == 0
    path = tmp_path / "random_forest.model.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(dict(payload, **edit)), encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--ces", str(ce_file), "--folds", "5", "--validation-model", str(path)]) == 0
    printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert printed["validity"] == validity


@pytest.mark.parametrize("missing", ["income", "kind"])
def test_a_missing_json_key_is_named_as_one(ce_file, tmp_path, capsys, missing):
    args = ["evaluate", "--ces", str(ce_file), "--folds", "5"]
    if missing == "income":
        payload = json.loads(ce_file.read_text(encoding="utf-8"))
        del payload["ces"][0]["values"]["income"]
        args[2] = str(tmp_path / "ces.json")
        Path(args[2]).write_text(json.dumps(payload), encoding="utf-8")
    else:
        assert main(["train", "--kind", "random_forest", "--out-dir", str(tmp_path)]) == 0
        path = tmp_path / "random_forest.model.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["kind"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        args += ["--validation-model", str(path)]
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == f"data/schema error: missing key '{missing}'\n"


def bench_config(tmp_path, synthetic_files, **overrides):
    payload = dict(
        synthetic_files,
        preferences=["c"],
        generators=["tcol"],
        queries=2,
        seed=0,
        depth=3,
        num_ces=3,
        budget=32,
        jury=["knn", "decision_tree"],
        folds=5,
        out=str(tmp_path / "report"),
    )
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_bench_writes_both_reports(tmp_path, synthetic_files, capsys):
    config = bench_config(tmp_path, synthetic_files)
    assert main(["bench", "--config", str(config)]) == 0
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "report.json").exists()
    out = capsys.readouterr().out
    assert "tcol/c" in out


def test_warnings_point_at_the_cli_line_that_called_the_library(tmp_path, synthetic_files, monkeypatch):
    """Not at a line inside ``engine`` or ``experiment``."""
    with pytest.warns(AlreadyTargetWarning) as caught:  # row 0 is an approved applicant
        argv = ["generate", "--query-index", "0", "--preference", "a", "--out", str(tmp_path / "ces.json")]
        assert main(argv) == 0
    monkeypatch.setattr(experiment, "generate", lambda *args: [])
    with pytest.warns(UserWarning, match="no counterfactuals produced") as bench_caught:
        assert main(["bench", "--config", str(bench_config(tmp_path, synthetic_files)), "--no-timing"]) == 0
    assert {w.filename for w in [*caught, *bench_caught]} == {cli.__file__}


def test_bench_no_timing_is_reproducible(tmp_path, synthetic_files):
    config = bench_config(tmp_path, synthetic_files)
    assert main(["bench", "--config", str(config), "--no-timing",
                 "--out", str(tmp_path / "r1")]) == 0
    assert main(["bench", "--config", str(config), "--no-timing",
                 "--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_bench_bad_config_key_is_data_error(tmp_path, synthetic_files, capsys):
    config = bench_config(tmp_path, synthetic_files)
    payload = json.loads(config.read_text(encoding="utf-8"))
    payload["depht"] = 3
    config.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["bench", "--config", str(config)])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("preferences", "ab"),  # would run preferences 'a' and 'b'
        ("jury", "knn"),  # would become the kinds 'k', 'n', 'n'
        ("generators", [1]),
        ("queries", "2"),
        ("depth", 3.5),
        ("seed", True),
        ("target_class", 1),
        ("preferences", ["a", "c", "a"]),  # would write each tcol/a row twice
        ("generators", ["tcol", "nearest_target", "tcol"]),  # would run T-COL twice
        ("jury", ["knn", "knn"]),  # would pass the two-kinds rule with one kind
    ],
)
def test_bench_config_value_of_the_wrong_type_is_data_error(
    tmp_path, synthetic_files, monkeypatch, key, value, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("bench read data before checking the config's values")

    monkeypatch.setattr(experiment, "load_csv", refuse)
    config = bench_config(tmp_path, synthetic_files, **{key: value})
    assert main(["bench", "--config", str(config)]) == 2
    assert f"config key '{key}' must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [("depth", 2, "depth must be an integer in [3, 9], got 2"), ("num_ces", 0, "num_ces"), ("budget", 0, "budget")],
)
def test_bench_bad_generation_value_without_preferences_is_data_error(
    tmp_path, synthetic_files, key, value, message, capsys
):
    config = bench_config(tmp_path, synthetic_files, preferences=[], **{key: value})
    assert main(["bench", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_bench_unknown_jury_kind_is_data_error_before_any_fit(
    tmp_path, synthetic_files, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("bench read data or fitted a model before checking the jury")

    monkeypatch.setattr(experiment, "load_csv", refuse)
    monkeypatch.setattr(experiment, "fit_builtin", refuse)
    config = bench_config(tmp_path, synthetic_files, jury=["knn", "svm"])
    assert main(["bench", "--config", str(config)]) == 2
    assert "unknown jury kind 'svm'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, limit, what", [("queries", 70, "non-target rows"), ("folds", 200, "rows"), ("num_ces", 130, "target rows")]
)
def test_bench_config_value_past_the_data_is_data_error_before_any_fit(
    tmp_path, synthetic_files, monkeypatch, key, limit, what, capsys
):
    """The bundled set has 200 rows, 130 of them approved."""

    def refuse(*args, **kwargs):
        raise AssertionError("bench fitted a model before checking the config against the data")

    monkeypatch.setattr(experiment, "fit_builtin", refuse)
    monkeypatch.setattr(experiment, "cv_weights", refuse)
    config = bench_config(tmp_path, synthetic_files, generators=["random_path", "nearest_target"], **{key: 500})
    assert main(["bench", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"data/schema error: config key '{key}' asks for 500, but the data set has {limit} {what}" in err
    assert not (tmp_path / "report.csv").exists()


def test_bench_random_path_alone_takes_more_ces_than_target_rows(tmp_path, synthetic_files):
    """The random-path baseline returns fewer CEs than asked for, so a large
    ``num_ces`` is no error for it."""
    config = bench_config(tmp_path, synthetic_files, generators=["random_path"], num_ces=500, folds=2)
    assert main(["bench", "--config", str(config), "--no-timing"]) == 0


@pytest.mark.parametrize("key", ["dataset", "schema", "out"])
def test_bench_config_path_with_a_nul_is_data_error_before_any_read(
    tmp_path, synthetic_files, monkeypatch, key, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("bench read data before checking the config's paths")

    monkeypatch.setattr(experiment, "load_schema", refuse)
    monkeypatch.setattr(experiment, "load_csv", refuse)
    path = {**synthetic_files, "out": str(tmp_path / "report")}[key]
    config = bench_config(tmp_path, synthetic_files, **{key: path + "\0"})
    assert main(["bench", "--config", str(config)]) == 2
    assert f"config key '{key}' must be a file path" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("out", ["/", ".", "", "report\0", "no_such_dir/report"])
@pytest.mark.parametrize("command", ["generate", "evaluate", "bench"])
def test_bench_out_flag_that_names_no_file_is_data_error_before_any_read(
    tmp_path, synthetic_files, ce_file, monkeypatch, command, out, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} read data before checking --out")

    monkeypatch.setattr(experiment, "load_csv", refuse)
    inputs = []
    if command == "generate":
        argv = ["generate", "--query-index", "1", "--preference", "a"]
    elif command == "evaluate":
        argv = ["evaluate", "--ces", str(ce_file)]
    else:
        argv, inputs = ["bench", "--config", str(bench_config(tmp_path, synthetic_files))], ["config.json"]
    assert main([*argv, "--out", out]) == 2
    message = "must be a file in an existing directory" if out == "no_such_dir/report" else "must be a file path"
    assert capsys.readouterr() == ("", f"data/schema error: --out {message}, got {out!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


def test_bench_config_out_in_a_missing_directory_is_data_error_before_any_read(
    tmp_path, synthetic_files, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("bench read data before checking the config's out")

    monkeypatch.setattr(experiment, "load_csv", refuse)
    out = str(tmp_path / "missing" / "report")
    config = bench_config(tmp_path, synthetic_files, out=out)
    assert main(["bench", "--config", str(config)]) == 2
    message = f"config key 'out' must be a file in an existing directory, got {out!r:.40}"
    assert capsys.readouterr() == ("", f"data/schema error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", ["generate", "bench"])
def test_an_error_of_no_data_error_type_is_a_runtime_error(tmp_path, synthetic_files, monkeypatch, command, capsys):
    """Exit 3, with the plain ``error:`` prefix, nothing on stdout and no file written."""

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    if command == "generate":
        monkeypatch.setattr(cli, "generate", boom)
        argv, inputs = ["generate", "--query-index", "1", "--preference", "a", "--out", str(tmp_path / "ces.json")], []
    else:
        monkeypatch.setattr(experiment, "generate", boom)
        argv, inputs = ["bench", "--config", str(bench_config(tmp_path, synthetic_files))], ["config.json"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "error: boom\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


def numeric_rows(tmp_path, approved, denied) -> dict:
    """A two-column numeric data set, its ``denied`` rows first, and its schema."""
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([
        {"name": "x", "kind": "numeric", "mutability": "mutable", "domain": [0, 100]},
        {"name": "y", "kind": "numeric", "mutability": "mutable", "domain": [0, 100]},
    ]), encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_text("x,y,loan\n" + "".join(
        f"{i},{7 * i % 11},{'denied' if i < denied else 'approved'}\n" for i in range(approved + denied)
    ), encoding="utf-8")
    return {"dataset": str(data), "schema": str(schema)}


@pytest.mark.parametrize(
    "command, approved, denied, folds, message",
    [
        *[(command, 5, 4, 2, "a model fit asks for 10, but the data set has 9 rows")
          for command in ("train", "generate", "evaluate", "bench")],
        ("evaluate", 9, 70, 10, "centrality asks for 10, but the data set has 9 target rows"),
        ("bench", 9, 70, 10, "centrality asks for 10, but the data set has 9 target rows"),
        # the one denied row, row 0, is in fold 2, so fold 2 trains on approved rows only
        ("evaluate", 20, 1, 2, "--folds asks for 2 folds, but with seed 0 fold 2 trains on 'approved' rows only"),
        ("bench", 20, 1, 2,
         "config key 'folds' asks for 2 folds, but with seed 0 fold 2 trains on 'approved' rows only"),
    ],
    ids=["rows-train", "rows-generate", "rows-evaluate", "rows-bench", "target-rows-evaluate", "target-rows-bench",
         "one-class-fold-evaluate", "one-class-fold-bench"],
)
def test_data_past_a_limit_of_the_fits_or_metrics_is_data_error_before_any_fit(
    command, approved, denied, folds, message, ce_file, synthetic_files, tmp_path, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} fitted a model before checking the data's limits")

    for module in (cli, experiment):
        for name in ("fit_builtin", "cv_weights"):
            monkeypatch.setattr(module, name, refuse)
    files = numeric_rows(tmp_path, approved, denied)
    data = ["--data", files["dataset"], "--schema", files["schema"]]
    if command == "train":
        argv = ["train", *data, "--out-dir", str(tmp_path / "models")]
    elif command == "generate":
        argv = ["generate", *data, "--query-index", "1", "--preference", "a", "--out", str(tmp_path / "out.json")]
    elif command == "evaluate":  # a CE file of the numeric set, as generate would write it
        ces = tmp_path / "ces.json"
        payload = dict(json.loads(ce_file.read_text(encoding="utf-8")), **files, query={"x": 1.0, "y": 7.0})
        ces.write_text(json.dumps(dict(payload, ces=[{"values": {"x": 5.0, "y": 2.0}}])), encoding="utf-8")
        argv = ["evaluate", "--ces", str(ces), "--folds", str(folds), "--out", str(tmp_path / "out.json")]
    else:
        argv = ["bench", "--config", str(bench_config(tmp_path, dict(synthetic_files, **files), queries=1, folds=folds))]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"data/schema error: {message}\n"
    inputs = {"evaluate": ["ces.json"], "bench": ["config.json"]}.get(command, [])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["data.csv", "schema.json", *inputs])


@pytest.mark.filterwarnings("ignore:.*coincided with centroid neighbors:UserWarning")
def test_bench_reports_each_query_row_as_the_csv_holds_it(tmp_path, synthetic_files):
    """Column ``x`` spans 0 to 100 in the data, so its 7 encodes to 0.07,
    which decodes to 7.000000000000001; ``report.json`` has the raw 7.0, as
    ``tcol generate`` writes it."""
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([
        {"name": "x", "kind": "numeric", "mutability": "mutable", "domain": [0, 100]},
        {"name": "y", "kind": "numeric", "mutability": "mutable", "domain": [0, 100]},
    ]), encoding="utf-8")
    rows = [(7 * i % 101, 13 * i % 101) for i in range(1, 39)] + [(0, 50), (100, 50)]
    data = tmp_path / "data.csv"
    data.write_text("x,y,loan\n" + "".join(
        f"{x},{y},{'approved' if x + y > 90 else 'denied'}\n" for x, y in rows), encoding="utf-8")
    files = dict(synthetic_files, dataset=str(data), schema=str(schema))
    denied = sum(x + y <= 90 for x, y in rows)
    config = bench_config(tmp_path, files, generators=["nearest_target"], queries=denied)
    assert main(["bench", "--config", str(config), "--no-timing"]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    queries = {entry["query_index"]: entry["query"] for entry in report["counterfactuals"][0]["queries"]}
    assert queries[0] == {"x": 7.0, "y": 13.0}
    assert queries == {i: {"x": float(rows[i][0]), "y": float(rows[i][1])} for i in queries}


def equal_target_rates(tmp_path, files):
    # red and blue both have target rate 0.5, so the encoder refuses them
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([
        {"name": "color", "kind": "categorical", "mutability": "mutable", "domain": ["red", "blue"]},
        {"name": "x", "kind": "numeric", "mutability": "mutable", "domain": [0, 10]},
    ]), encoding="utf-8")
    data = tmp_path / "data.csv"
    rows = [("red", 1, "approved"), ("red", 2, "denied"), ("blue", 3, "approved"), ("blue", 4, "denied")]
    data.write_text("color,x,loan\n" + "".join(f"{c},{x},{t}\n" for c, x, t in rows), encoding="utf-8")
    return {"dataset": str(data), "schema": str(schema)}


def non_utf8_csv(tmp_path, files):
    data = tmp_path / "data.csv"
    data.write_bytes(Path(files["dataset"]).read_bytes() + b"\xff\xfe,1\n")
    return {"dataset": str(data)}


def oversized_field(tmp_path, files):
    header = Path(files["dataset"]).read_text(encoding="utf-8").splitlines()[0]
    data = tmp_path / "data.csv"
    data.write_text(f"{header}\n{'9' * (csv.field_size_limit() + 1)}\n", encoding="utf-8")
    return {"dataset": str(data)}


def directory_as_data(tmp_path, files):
    return {"dataset": str(tmp_path)}


@pytest.mark.parametrize("make_input", [equal_target_rates, non_utf8_csv, oversized_field, directory_as_data])
@pytest.mark.parametrize("command", ["train", "bench"])
def test_train_and_bench_agree_on_data_errors(tmp_path, synthetic_files, capsys, command, make_input):
    given = tmp_path / "input"
    given.mkdir()
    files = dict(synthetic_files, **make_input(given, synthetic_files))
    if command == "train":
        assert train(tmp_path, "--data", files["dataset"], "--schema", files["schema"]) == 2
    else:
        assert main(["bench", "--config", str(bench_config(tmp_path, files))]) == 2
    assert "data/schema error" in capsys.readouterr().err
    inputs = {"train": ["input"], "bench": ["config.json", "input"]}[command]
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs  # nothing written


@pytest.mark.parametrize("command", ["train", "generate", "bench"])
def test_a_numeric_column_too_wide_to_scale_is_data_error(tmp_path, synthetic_files, capsys, command):
    """Each cell of ``x`` lies in its domain, but max - min overflows, so no
    encoder can scale the column; nothing is fitted or written."""
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([
        {"name": "x", "kind": "numeric", "mutability": "mutable", "domain": [-1e308, 1e308]},
        {"name": "y", "kind": "numeric", "mutability": "mutable", "domain": [0, 10]},
    ]), encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_text("x,y,loan\n" + "".join(
        f"{x},{i % 10},{'approved' if i % 2 else 'denied'}\n"
        for i, x in enumerate(["-1e308", "1e308", "0", "5"] * 3)), encoding="utf-8")
    files = dict(synthetic_files, dataset=str(data), schema=str(schema))
    if command == "train":
        code = main(["train", "--out-dir", str(tmp_path / "models"), "--data", str(data), "--schema", str(schema)])
    elif command == "generate":
        code = main(["generate", "--query-index", "0", "--preference", "a", "--data", str(data),
                     "--schema", str(schema), "--out", str(tmp_path / "ces.json")])
    else:
        code = main(["bench", "--config", str(bench_config(tmp_path, files, num_ces=1, folds=2))])
    assert code == 2
    assert "numeric feature 'x' spans -1e+308 to 1e+308, too wide to scale" in capsys.readouterr().err
    inputs = {"evaluate": ["ces.json"], "bench": ["config.json"]}.get(command, [])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["data.csv", "schema.json", *inputs])


def test_console_entry_point_runs():
    # the child does not see pytest's pythonpath setting, so hand it src/
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "tcol.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout
