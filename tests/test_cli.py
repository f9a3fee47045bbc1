import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tcol import cli
from tcol.cli import main
from tcol.models import load_model


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "bench" in capsys.readouterr().out


def test_missing_required_argument_is_usage_error(capsys):
    assert main(["generate", "--query-index", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert main(["explain"]) == 1


def test_missing_data_file_is_data_error(tmp_path, capsys):
    code = main(["encode", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "e.json")])
    assert code == 2
    assert "data/schema error" in capsys.readouterr().err


def test_bad_schema_json_is_data_error(tmp_path, synthetic_files):
    bad = tmp_path / "schema.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(
        ["encode", "--data", synthetic_files["dataset"], "--schema", str(bad),
         "--out", str(tmp_path / "e.json")]
    )
    assert code == 2


def test_out_of_range_query_index_is_runtime_error(tmp_path, capsys):
    code = main(
        ["generate", "--query-index", "9999", "--preference", "c",
         "--out", str(tmp_path / "ces.json")]
    )
    assert code == 3
    assert "outside" in capsys.readouterr().err


def test_encode_writes_encoder(tmp_path, capsys):
    out = tmp_path / "encoder.json"
    assert main(["encode", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["format_version"] == 1
    assert len(payload["features"]) == 6
    assert "200 rows" in capsys.readouterr().out


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


def test_evaluate_reads_generate_output(ce_file, capsys):
    assert main(["evaluate", "--ces", str(ce_file), "--folds", "5"]) == 0
    out = capsys.readouterr().out
    for name in ("proximity", "sparsity", "validity", "data_fidelity", "centrality", "reliability"):
        assert name in out


@pytest.mark.parametrize("n_neighbors", ["0", "-3"])
def test_evaluate_rejects_non_positive_n_neighbors(ce_file, n_neighbors, capsys):
    code = main(["evaluate", "--ces", str(ce_file), "--folds", "5", "--n-neighbors", n_neighbors])
    assert code != 0
    captured = capsys.readouterr()
    assert "n_neighbors" in captured.err
    assert "centrality:" not in captured.out


@pytest.mark.parametrize("n_neighbors", ["0", "-3"])
def test_non_positive_n_neighbors_is_a_usage_error_before_any_fit(ce_file, n_neighbors, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate fitted a model before checking --n-neighbors")

    monkeypatch.setattr(cli, "fit_builtin", refuse)
    monkeypatch.setattr(cli, "cv_weights", refuse)
    assert main(["evaluate", "--ces", str(ce_file), "--n-neighbors", n_neighbors]) == 1


def test_readme_quick_start_prints_documented_metrics(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start (CLI)")[1].split("```bash")[1].split("```")[0]
    lines = block.splitlines()
    commands = [
        shlex.split(line)[1:] for line in lines if line.startswith(("tcol generate", "tcol evaluate"))
    ]
    documented = [line[2:] for line in lines if re.fullmatch(r"# \w+: -?\d+\.\d+", line)]
    assert len(commands) == 2 and len(documented) == 6
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
    assert "encode" in proc.stdout
