import json
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import StubModel, make_encoded
from tcol import experiment
from tcol.engine import GenerationConfig, generate
from tcol.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentError,
    _aggregate,
    _sample_queries,
    baseline_nearest_target,
    baseline_random_path,
    emit_report,
    run_experiment,
)
from tcol.models import ClassifierModel
from tcol.tabular import EncodedDataset


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

    def test_a_value_past_the_data_is_a_value_error_from_the_limit_on(self, synthetic_files, synthetic_encoded):
        """The bundled set has 200 rows, 130 of them approved."""
        config = ExperimentConfig(**synthetic_files, generators=("nearest_target",), queries=70, folds=200, num_ces=130)
        config.check_data(synthetic_encoded)
        replace(config, generators=("random_path",), num_ces=131).check_data(synthetic_encoded)
        for key, value, what in [("queries", 71, "70 non-target rows"), ("folds", 201, "200 rows"),
                                 ("num_ces", 131, "130 target rows")]:
            with pytest.raises(ValueError, match=f"^config key '{key}' asks for {value}, but the data set has {what}$"):
                replace(config, **{key: value}).check_data(synthetic_encoded)


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

    def test_missing_dataset_aborts_with_stage_tag(self, synthetic_files):
        config = ExperimentConfig(
            dataset="/nonexistent/x.csv",
            schema=synthetic_files["schema"],
            target="loan",
            target_class="approved",
            queries=1,
        )
        with pytest.raises(ExperimentError, match=r"\[load\]"):
            run_experiment(config)

    def test_more_queries_than_non_target_rows_is_an_error(self):
        data = make_encoded([[0.1], [0.5], [0.9]], ["yes", "no", "no"])
        assert _sample_queries(data, 2, seed=0) == [1, 2]
        with pytest.raises(ValueError, match="requested 3 queries but only 2 non-target rows"):
            _sample_queries(data, 3, seed=0)

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


def _aggregate_one_set(encoded, ces, validation_model, jury):
    return _aggregate("credit", "tcol", "a", [(1, ces)], encoded, validation_model, jury, 0.0)


def test_aggregate_rejects_too_few_target_rows(synthetic_encoded, validation_model, synthetic_jury):
    query = synthetic_encoded.X[1]
    ces = generate(synthetic_encoded, query, GenerationConfig(preference="a"), validation_model)
    target = synthetic_encoded.target_mask()
    keep = np.flatnonzero(target)[:8].tolist() + np.flatnonzero(~target).tolist()
    cut = EncodedDataset(
        X=synthetic_encoded.X[keep],
        y=synthetic_encoded.y[keep],
        target_class=synthetic_encoded.target_class,
        schema=synthetic_encoded.schema,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least 10 target rows, got 8"):
            _aggregate_one_set(cut, ces, validation_model, synthetic_jury)


def test_aggregate_excludes_only_coincident_counterfactuals(
    synthetic_encoded, validation_model, synthetic_jury
):
    rows = synthetic_encoded.X[synthetic_encoded.target_mask()]
    nearest = rows[np.argmin(np.linalg.norm(rows - rows.mean(axis=0), axis=1))]
    ces = [SimpleNamespace(vector=v) for v in (nearest, synthetic_encoded.X[1])]
    with pytest.warns(UserWarning, match="1 counterfactuals coincided"):
        row = _aggregate_one_set(synthetic_encoded, ces, validation_model, synthetic_jury)
    assert row.centrality > 0.0


def test_aggregate_warns_when_no_counterfactual_was_produced(
    synthetic_encoded, validation_model, synthetic_jury
):
    with pytest.warns(UserWarning, match="no counterfactuals produced for tcol/a"):
        row = _aggregate_one_set(synthetic_encoded, [], validation_model, synthetic_jury)
    assert (row.n_queries, row.n_ces, row.validity, row.centrality) == (1, 0, 0.0, 0.0)


@pytest.mark.parametrize("no_ces", [False, True])
def test_run_experiment_warnings_point_at_its_caller(synthetic_files, monkeypatch, no_ces):
    """Not at a line of ``experiment.py``, such as its stage wrapper's call."""
    if no_ces:
        monkeypatch.setattr(experiment, "generate", lambda *args: [])
    config = ExperimentConfig(**synthetic_files, generators=("tcol",), queries=4, folds=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(config, measure_runtime=False)
    expected = "no counterfactuals produced" if no_ces else "coincided with centroid neighbors"
    assert any(expected in str(w.message) for w in caught)
    assert {w.filename for w in caught} == {__file__}
