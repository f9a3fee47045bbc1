import contextlib
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
from tcol.models import MODEL_KINDS, load_model


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "bench" in capsys.readouterr().out


def train(tmp_path, *args):
    """``tcol train --kind naive_bayes`` into ``tmp_path / "models"``: the
    cheapest command that reads a CSV and its schema."""
    return main(["train", "--kind", "naive_bayes", "--out-dir", str(tmp_path / "models"), *args])


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


def test_evaluate_takes_a_json_integer_as_a_number(ce_file, tmp_path, capsys):
    payload = json.loads(ce_file.read_text(encoding="utf-8"))
    payload["ces"][0]["values"]["age"] = int(payload["ces"][0]["values"]["age"])
    path = tmp_path / "ces.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--ces", str(path), "--folds", "5"]) == 0


def test_evaluate_takes_a_value_that_decoding_rounded_past_its_domain(tmp_path):
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


def test_bench_random_path_alone_takes_more_ces_than_target_rows(tmp_path, synthetic_files):
    """The random-path baseline returns fewer CEs than asked for, so a large
    ``num_ces`` is no error for it."""
    config = bench_config(tmp_path, synthetic_files, generators=["random_path"], num_ces=500, folds=2)
    assert main(["bench", "--config", str(config), "--no-timing"]) == 0


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
