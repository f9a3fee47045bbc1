import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import StubModel, make_encoded
from tcol import experiment
from tcol.experiment import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    baseline_nearest_target,
    baseline_random_path,
    check_limits,
    emit_report,
    run_experiment,
)
from tcol.models import ClassifierModel, kfold_indices


class TestNearestTargetBaseline:
    def test_exact_match_comes_back_first(self):
        query = np.array([0.4, 0.6])
        X = np.vstack([query, np.array([0.9, 0.9]), np.array([0.1, 0.1])])
        data = make_encoded(X, ["yes", "yes", "no"])
        ces = baseline_nearest_target(data, query, m=1)
        assert np.array_equal(ces[0].vector, query)
        assert ces[0].prototype_index == 0

    def test_requesting_more_than_available_is_an_error(self):
        data = make_encoded([[0.1], [0.5], [0.9]], ["yes", "no", "no"])
        with pytest.raises(ValueError, match="only 1 target rows"):
            baseline_nearest_target(data, np.array([0.2]), m=2)

    def test_matches_independent_sort(self):
        rng = np.random.default_rng(41)
        X = rng.random((15, 4))
        labels = ["yes" if i % 2 == 0 else "no" for i in range(15)]
        data = make_encoded(X, labels)
        query = rng.random(4)
        ces = baseline_nearest_target(data, query, m=3)
        target_rows = [i for i in range(15) if labels[i] == "yes"]
        expected = sorted(target_rows, key=lambda i: (float(np.linalg.norm(X[i] - query)), i))[:3]
        assert [ce.prototype_index for ce in ces] == expected


class TestRandomPathBaseline:
    def test_fixed_seed_is_deterministic(self, synthetic_encoded, validation_model):
        qi = int(np.flatnonzero(~synthetic_encoded.target_mask())[0])
        query = synthetic_encoded.X[qi]
        a = baseline_random_path(synthetic_encoded, query, 5, seed=11, validation_model=validation_model)
        b = baseline_random_path(synthetic_encoded, query, 5, seed=11, validation_model=validation_model)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.vector, y.vector) and x.path == y.path

    def test_all_immutable_schema_pins_to_query(self):
        X = np.array([[0.2, 0.3], [0.8, 0.9], [0.5, 0.5]])
        data = make_encoded(X, ["yes", "yes", "no"], immutable=(0, 1))
        query = np.array([0.4, 0.4])
        ces = baseline_random_path(data, query, 3, seed=0, validation_model=StubModel(always=True))
        assert len(ces) == 1  # only one distinct fill exists
        assert np.array_equal(ces[0].vector, query)

    def test_validated_outputs_classify_as_target(self, synthetic_encoded, validation_model):
        qi = int(np.flatnonzero(~synthetic_encoded.target_mask())[1])
        query = synthetic_encoded.X[qi]
        ces = baseline_random_path(synthetic_encoded, query, 5, seed=3, validation_model=validation_model)
        assert ces
        for ce in ces:
            assert ce.validated
            assert validation_model.predict(ce.vector) == synthetic_encoded.target_class

    def test_validates_all_attempts_in_one_call_in_draw_order(self, synthetic_encoded, validation_model):
        class CountingModel(ClassifierModel):
            def __init__(self):
                super().__init__()
                self.target_class = validation_model.target_class
                self.calls = 0

            def predict_proba_rows(self, X):
                self.calls += 1
                return validation_model.predict_proba_rows(X)

        def sequential(data, query, m, seed):
            """The per-attempt loop: one draw and one single-row model call each."""
            prototype = data.X[baseline_nearest_target(data, query, 1)[0].prototype_index]
            rng = np.random.default_rng(seed)
            out, seen = [], set()
            for _ in range(200):
                bits = rng.integers(0, 2, size=data.n_features)
                bits[data.immutable_mask()] = 1
                vector = np.where(bits == 1, query, prototype)
                if vector.tobytes() in seen or validation_model.predict(vector) != data.target_class:
                    continue
                seen.add(vector.tobytes())
                out.append((vector, tuple(int(b) for b in bits)))
                if len(out) == m:
                    break
            return out

        found = 0
        for qi in np.flatnonzero(~synthetic_encoded.target_mask())[:8]:
            query = synthetic_encoded.X[qi]
            model = CountingModel()
            ces = baseline_random_path(synthetic_encoded, query, 5, seed=int(qi), validation_model=model)
            assert model.calls == 1
            expected = sequential(synthetic_encoded, query, 5, int(qi))
            assert [(ce.vector.tobytes(), ce.path) for ce in ces] == [
                (v.tobytes(), path) for v, path in expected
            ]
            found += len(ces)
        assert found > 0

    def test_zero_hits_warns_and_returns_empty(self):
        data = make_encoded([[0.2], [0.8]], ["yes", "no"])
        with pytest.warns(UserWarning, match="no valid counterfactual"):
            ces = baseline_random_path(
                data, np.array([0.5]), 2, seed=0, validation_model=StubModel(always=False)
            )
        assert ces == []


class TestExperimentConfig:
    def test_from_json_round_trip(self, tmp_path, synthetic_files):
        payload = dict(
            synthetic_files,
            preferences=["a", "b"],
            generators=["tcol"],
            queries=3,
            seed=1,
            depth=3,
            num_ces=2,
            budget=16,
            jury=["knn", "decision_tree"],
            folds=5,
            out="r",
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        config = ExperimentConfig.from_json(path)
        assert config.preferences == ("a", "b")
        assert config.queries == 3 and config.folds == 5

    def test_unknown_keys_rejected(self, tmp_path, synthetic_files):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(synthetic_files, depht=3)), encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_json(path)

    def test_missing_required_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": "x.csv"}), encoding="utf-8")
        with pytest.raises(ValueError, match="missing config keys"):
            ExperimentConfig.from_json(path)

    def test_zero_queries_rejected(self, synthetic_files):
        with pytest.raises(ValueError, match="queries"):
            ExperimentConfig(**synthetic_files, queries=0)

    def test_unknown_generator_rejected(self, synthetic_files):
        with pytest.raises(ValueError, match="generator"):
            ExperimentConfig(**synthetic_files, generators=("dice",))


def test_check_limits_names_the_first_setting_past_the_data(synthetic_encoded):
    """The bundled set has 200 rows, 130 of them approved."""
    asks = [("queries", 70, "non-target rows"), ("num_ces", 130, "target rows")]
    check_limits(synthetic_encoded, asks, query_index=199, folds=("folds", 200), evaluates=True)
    for change, message in [
        ({"asks": [("queries", 71, "non-target rows")]}, "queries asks for 71, but the data set has 70 non-target rows"),
        ({"asks": [("num_ces", 131, "target rows")]}, "num_ces asks for 131, but the data set has 130 target rows"),
        ({"folds": ("folds", 201)}, "folds asks for 201, but the data set has 200 rows"),
        ({"query_index": 200}, "--query-index 200 is outside [0, 199]"),
        ({"query_index": -1}, "--query-index -1 is outside [0, 199]"),
    ]:
        with pytest.raises(ConfigError) as info:
            check_limits(synthetic_encoded, **change)
        assert str(info.value) == message


def test_check_limits_refuses_too_few_rows_target_rows_and_one_class_folds():
    """Eleven rows, ten of them "yes": each limit that no flag names."""
    data = make_encoded(np.arange(11.0)[:, np.newaxis], ["no"] + ["yes"] * 10)
    check_limits(data, evaluates=True)
    with pytest.raises(ConfigError, match=r"^a model fit asks for 10, but the data set has 9 rows$"):
        check_limits(make_encoded(data.X[:9], data.y[:9]))
    with pytest.raises(ConfigError, match=r"^centrality asks for 10, but the data set has 9 target rows$"):
        check_limits(make_encoded(data.X[1:], ["no"] + ["yes"] * 9), evaluates=True)
    # the one "no" row is in one of the two folds, and the other trains on "yes" rows only
    fold = next(i for i, test in enumerate(kfold_indices(11, 2, seed=3)) if 0 in test)
    with pytest.raises(ConfigError) as info:
        check_limits(data, folds=("--folds", 2), seed=3)
    assert str(info.value) == f"--folds asks for 2 folds, but with seed 3 fold {fold + 1} trains on 'yes' rows only"


@pytest.fixture(scope="module")
def small_config(synthetic_files):
    return ExperimentConfig(
        **synthetic_files,
        preferences=("a", "c"),
        generators=("tcol", "nearest_target", "random_path"),
        queries=4,
        seed=0,
        folds=5,
    )


@pytest.fixture(scope="module")
def small_record(small_config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_experiment(small_config)


class TestRunExperiment:
    def test_produces_one_row_per_generator_preference(self, small_record):
        combos = [(r.generator, r.preference) for r in small_record.rows]
        assert combos == [
            ("tcol", "a"), ("tcol", "c"),
            ("nearest_target", "a"), ("nearest_target", "c"),
            ("random_path", "a"), ("random_path", "c"),
        ]

    def test_rows_carry_counts_and_finite_metrics(self, small_record):
        for row in small_record.rows:
            assert row.n_queries == 4
            assert row.n_ces > 0
            assert 0.0 <= row.validity <= 1.0
            assert 0.0 <= row.data_fidelity <= 1.0

    def test_baseline_rows_and_tables_agree_across_preferences(self, small_record):
        # timed, yet equal: a baseline's one run, under the first preference, serves them all
        for generator in ("nearest_target", "random_path"):
            rows = [r for r in small_record.rows if r.generator == generator]
            tables = [t for t in small_record.ce_tables if t["generator"] == generator]
            assert [r.preference for r in rows] == ["a", "c"]
            assert rows[1] == replace(rows[0], preference="c")
            assert [t["preferences"] for t in tables] == [["a", "c"]]

    def test_ce_tables_align_with_rows(self, small_record):
        # each (generator, preference) row is stood for by exactly one table
        covered = [(t["generator"], p) for t in small_record.ce_tables for p in t["preferences"]]
        assert covered == [(r.generator, r.preference) for r in small_record.rows]
        tcol = [t["preferences"] for t in small_record.ce_tables if t["generator"] == "tcol"]
        assert tcol == [["a"], ["c"]]
        for table in small_record.ce_tables:
            assert [entry["query_index"] for entry in table["queries"]] == small_record.query_indices

    def test_decoded_values_come_from_dataset_or_query(self, small_record, synthetic):
        columns = {
            f.name: {row[i] for row in synthetic.rows}
            for i, f in enumerate(synthetic.schema)
        }
        kinds = {f.name: f.kind for f in synthetic.schema}
        for table in small_record.ce_tables:
            for entry in table["queries"]:
                for ce in entry["ces"]:
                    for name, value in ce["values"].items():
                        allowed = columns[name] | {entry["query"][name]}
                        if kinds[name] == "categorical":
                            assert value in allowed
                        else:
                            assert min(abs(value - u) for u in allowed) <= 1e-9

    @pytest.mark.parametrize(
        "generator, function, runs_per_query",
        [
            ("tcol", "generate", 5),
            ("nearest_target", "baseline_nearest_target", 1),
            ("random_path", "baseline_random_path", 1),
        ],
    )
    def test_baselines_run_once_per_query_and_tcol_once_per_preference(
        self, generator, function, runs_per_query, synthetic_files, monkeypatch
    ):
        real, calls = getattr(experiment, function), []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, function, spy)
        config = ExperimentConfig(**synthetic_files, generators=(generator,), queries=3, folds=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            record = run_experiment(config, measure_runtime=False)
        assert [r.preference for r in record.rows] == ["a", "b", "c", "d", "e"]
        assert len(calls) == 3 * runs_per_query

    def test_missing_dataset_raises_the_loaders_error(self, synthetic_files):
        config = ExperimentConfig(
            dataset="/nonexistent/x.csv",
            schema=synthetic_files["schema"],
            target="loan",
            target_class="approved",
            queries=1,
        )
        with pytest.raises(FileNotFoundError):
            run_experiment(config)

    def test_config_past_the_data_raises_config_error_before_any_fit(self, synthetic_files, monkeypatch):
        """The bundled set has 200 rows, 70 of them denied."""

        def refuse(*args, **kwargs):
            raise AssertionError("run_experiment fitted a model before checking the config against the data")

        monkeypatch.setattr(experiment, "fit_builtin", refuse)
        monkeypatch.setattr(experiment, "cv_weights", refuse)
        config = ExperimentConfig(**synthetic_files, queries=71)
        with pytest.raises(ConfigError) as info:
            run_experiment(config)
        assert str(info.value) == "config key 'queries' asks for 71, but the data set has 70 non-target rows"

    def test_repeat_run_identical_without_timing(self, small_config, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rec1 = run_experiment(small_config, measure_runtime=False)
            rec2 = run_experiment(small_config, measure_runtime=False)
        p1, j1 = emit_report(rec1, tmp_path / "a")
        p2, j2 = emit_report(rec2, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()
        assert j1.read_bytes() == j2.read_bytes()


class TestEmitReport:
    def test_csv_column_order_is_exact(self, small_record, tmp_path):
        path, _ = emit_report(small_record, tmp_path / "report")
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "dataset,generator,preference,proximity,sparsity,validity,data_fidelity,centrality,runtime_s"
        assert header == ",".join(CSV_COLUMNS)

    def test_csv_has_one_line_per_row(self, small_record, tmp_path):
        path, _ = emit_report(small_record, tmp_path / "report")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + len(small_record.rows)

    def test_empty_preferences_yield_header_only(self, synthetic_files, tmp_path):
        config = ExperimentConfig(**synthetic_files, preferences=(), queries=2, folds=5)
        record = run_experiment(config, measure_runtime=False)
        path, _ = emit_report(record, tmp_path / "empty")
        assert path.read_text(encoding="utf-8").splitlines() == [",".join(CSV_COLUMNS)]

    def test_structured_report_embeds_counterfactual_tables(self, small_record, tmp_path):
        _, path = emit_report(small_record, tmp_path / "report")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format_version"] == 2
        assert len(payload["metrics"]) == len(small_record.rows)
        assert payload["counterfactuals"][0]["preferences"] == ["a"]
        assert payload["counterfactuals"][0]["queries"][0]["ces"]

    def test_a_non_finite_value_is_refused_before_either_file_is_written(self, small_record, tmp_path):
        table = {"generator": "tcol", "preferences": ["a"], "queries": [{"query": {"x": float("nan")}}]}
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_report(replace(small_record, ce_tables=[table]), tmp_path / "report")
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("no_ces", [False, True])
def test_run_experiment_warnings_point_at_its_caller(synthetic_files, monkeypatch, no_ces):
    """Not at a line of ``experiment.py``, such as ``run_experiment``'s own ``_warn`` call."""
    if no_ces:
        monkeypatch.setattr(experiment, "generate", lambda *args: [])
    config = ExperimentConfig(**synthetic_files, generators=("tcol",), queries=4, folds=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        record = run_experiment(config, measure_runtime=False)
    expected = "no counterfactuals produced" if no_ces else "coincided with centroid neighbors"
    assert any(expected in str(w.message) for w in caught)
    assert {w.filename for w in caught} == {__file__}
    if no_ces:
        assert all((r.n_ces, r.validity, r.centrality) == (0, 0.0, 0.0) for r in record.rows)
