import json
import math
import re
import warnings
from functools import partial

import numpy as np
import pytest

from conftest import StubModel, make_encoded
from tcol.models import (
    MODEL_KINDS,
    ClassifierModel,
    DecisionTree,
    Knn,
    ModelFileError,
    NaiveBayes,
    RandomForest,
    ThirdPartyJury,
    cross_val_f1,
    cv_weights,
    fit_builtin,
    kfold_indices,
    load_model,
    make_model,
    prediction_f1,
    save_model,
)
from tcol.scoring import sigmoid


def confusion(tp, fp, fn, tn=0):
    """(hits, truth) holding ``tp`` true positives, ``fp`` false positives,
    ``fn`` false negatives and ``tn`` true negatives."""
    hits = [True] * (tp + fp) + [False] * (fn + tn)
    truth = [True] * tp + [False] * fp + [True] * fn + [False] * tn
    return hits, truth


class TestF1Score:
    def test_equal_precision_recall(self):
        # precision = recall = 9 / 10
        assert prediction_f1(*confusion(9, 1, 1)) == pytest.approx(0.9)

    def test_zero_recall_gives_zero(self):
        assert prediction_f1(*confusion(0, 0, 4, tn=3)) == 0.0

    def test_mixed_inputs(self):
        # precision 12 / 15 = 0.8, recall 12 / 20 = 0.6: 2 * 0.8 * 0.6 / 1.4
        assert prediction_f1(*confusion(12, 3, 8)) == pytest.approx(0.6857142857142857, abs=1e-12)

    def test_both_zero_defined_as_zero(self):
        assert prediction_f1(*confusion(0, 0, 0, tn=5)) == 0.0
        assert prediction_f1([], []) == 0.0

    def test_symmetry_and_min_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            tp, fp, fn, tn = rng.integers(0, 20, size=4).tolist()
            hits, truth = confusion(tp, fp, fn, tn)
            f1 = prediction_f1(hits, truth)
            # swapping predictions and labels swaps precision and recall
            assert f1 == pytest.approx(prediction_f1(truth, hits), abs=1e-15)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            assert 0.0 <= f1 <= 2.0 * min(precision, recall) + 1e-15


def separable_data(n=20):
    rng = np.random.default_rng(0)
    X = rng.random((n, 2))
    y = ["yes" if x0 > 0.5 else "no" for x0, _ in X]
    # keep both classes present
    X[0, 0], X[1, 0] = 0.9, 0.1
    y[0], y[1] = "yes", "no"
    return make_encoded(X, y)


class TestBuiltins:
    def test_decision_tree_fits_separable_data_perfectly(self):
        data = separable_data()
        model = fit_builtin("decision_tree", data, seed=0)
        # brute-force check on every training point
        assert all(model.predict(x) == label for x, label in zip(data.X, data.y))

    def test_same_seed_same_predictions(self, synthetic_encoded):
        probes = synthetic_encoded.X[:30]
        a = fit_builtin("random_forest", synthetic_encoded, seed=7)
        b = fit_builtin("random_forest", synthetic_encoded, seed=7)
        assert [a.predict(p) for p in probes] == [b.predict(p) for p in probes]

    def test_single_class_training_rejected(self):
        X = np.random.default_rng(1).random((12, 2))
        data = make_encoded(X, ["yes"] * 12)
        with pytest.raises(ValueError, match="single class"):
            fit_builtin("knn", data, seed=0)

    @pytest.mark.parametrize(
        "labels, target, message",
        [
            (["yes", "no", "maybe"] * 4, "yes", "expected binary labels, got ['maybe', 'no', 'yes']"),
            (["no", "maybe"] * 6, "yes", "target class 'yes' absent from training labels"),
        ],
    )
    def test_labels_other_than_the_target_and_one_other_class_rejected(self, labels, target, message):
        data = make_encoded(np.random.default_rng(1).random((12, 2)), labels, target_class=target)
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_builtin("knn", data, seed=0)

    def test_too_few_rows_rejected(self):
        data = make_encoded([[0.1, 0.2], [0.9, 0.8]], ["yes", "no"])
        with pytest.raises(ValueError, match="10 rows"):
            fit_builtin("knn", data, seed=0)

    @pytest.mark.parametrize("seed", [-1, True, 1.0])
    def test_seed_must_be_a_non_negative_int(self, seed, synthetic_encoded):
        calls = (
            lambda: fit_builtin("knn", synthetic_encoded, seed=seed),
            lambda: make_model("random_forest", seed=seed),
            lambda: cv_weights(("knn", "naive_bayes"), synthetic_encoded, folds=5, seed=seed),
            lambda: kfold_indices(10, 2, seed=seed),
        )
        message = re.escape(f"seed must be a non-negative integer, got {seed!r}")
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            make_model("boosted_stump")

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_predict_agrees_with_proba_threshold(self, kind, synthetic_encoded):
        model = fit_builtin(kind, synthetic_encoded, seed=0)
        for probe in synthetic_encoded.X[40:80]:
            proba = model.predict_proba(probe)
            assert 0.0 <= proba <= 1.0
            expected = (
                synthetic_encoded.target_class if proba >= 0.5 else model.other_class
            )
            assert model.predict(probe) == expected

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: RandomForest(n_trees=0), "n_trees must be an integer >= 1, got 0"),
            (lambda: RandomForest(max_depth=-1), "max_depth must be an integer >= 0, got -1"),
            (lambda: DecisionTree(max_depth=-1), "max_depth must be an integer >= 0, got -1"),
            (lambda: DecisionTree(min_samples_split=1), "min_samples_split must be an integer >= 2, got 1"),
        ],
    )
    def test_cart_hyperparameters_out_of_range_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_probability_tie_resolves_to_target(self):
        data = make_encoded([[0.0], [1.0]], ["yes", "no"])
        model = Knn(k=2)
        model.fit(data.X, data.y, "yes")
        assert model.predict_proba([0.5]) == 0.5
        assert model.predict([0.5]) == "yes"


class TestKnn:
    """The rules that keep knn's votes those of a full stable sort of the
    exact distances, with the library's asserts stripped under ``-O``."""

    @pytest.mark.parametrize("labels, proba", [(["no", "yes", "yes"], 0.0), (["yes", "no", "no"], 1.0)])
    def test_equal_distances_go_to_the_lower_row_index(self, labels, proba):
        model = Knn(k=1).fit([[0.0], [2.0], [2.0]], labels, "yes")
        assert model.predict_proba_rows([[1.0]]).tolist() == [proba]

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_rejected(self, k):
        with pytest.raises(ValueError, match=f"k must be an integer >= 1, got {k}"):
            Knn(k=k)

    @pytest.mark.parametrize(
        "train_y, target_class",
        [(["no", "no", "no"], "yes"), (["yes", "yes", "yes"], "yes"), (["yes", "no", "no"], "maybe")],
    )
    def test_file_without_both_classes_fails_to_load(self, train_y, target_class, tmp_path):
        path = tmp_path / "m.json"
        save_model(Knn(k=1).fit([[0.0], [1.0], [2.0]], ["yes", "no", "no"], "yes"), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["target_class"] = target_class
        payload["parameters"]["train_y"] = train_y
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFileError, match="knn train_y must hold exactly the classes"):
            load_model(path)

    @pytest.mark.parametrize("scale", [1e154, 1e155])
    def test_probe_whose_squares_overflow_still_finds_its_duplicate(self, scale):
        X = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 1.0]]) * scale
        model = Knn(k=1).fit(X, ["yes", "no", "no"], "yes")
        with np.errstate(over="ignore"):
            assert model.predict_proba_rows(X[:1]).tolist() == [1.0]


class OracleModel(ClassifierModel):
    """Cheats: recognizes the labeling rule of separable_data exactly."""

    kind = "oracle"

    def _fit(self, X, y):
        return {}

    def _restore(self, params):
        pass

    def predict_proba_rows(self, X):
        return np.where(np.asarray(X)[:, 0] > 0.5, 1.0, 0.0)


class TestCrossValidation:
    def test_kfold_partitions_all_rows(self):
        folds = kfold_indices(23, 4, seed=1)
        combined = sorted(int(i) for f in folds for i in f)
        assert combined == list(range(23))

    def test_kfold_validates_inputs(self):
        with pytest.raises(ValueError):
            kfold_indices(10, 1)
        with pytest.raises(ValueError):
            kfold_indices(3, 5)

    def test_perfect_classifier_weight_is_one(self):
        data = separable_data(40)
        assert cross_val_f1(OracleModel, data, folds=5, seed=0)[0] == 1.0

    def test_constant_predictor_matches_closed_form(self):
        rng = np.random.default_rng(4)
        X = rng.random((200, 3))
        y = ["yes"] * 100 + ["no"] * 100
        data = make_encoded(X, y)
        folds, seed = 10, 3
        weight, _ = cross_val_f1(
            lambda: StubModel(target_class="yes", other_class="no", always=True),
            data,
            folds,
            seed=seed,
        )
        # closed form for an all-positive predictor: per fold, precision is the
        # fold's positive rate p and recall is 1, so F1 = 2p / (1 + p)
        expected = []
        for test_idx in kfold_indices(len(data), folds, seed=seed):
            p = float(np.mean(data.y[test_idx] == "yes"))
            expected.append(2.0 * p / (1.0 + p))
        assert weight == pytest.approx(float(np.mean(expected)), abs=1e-12)
        assert abs(weight - 2.0 / 3.0) < 0.05  # balanced data anchor

    def test_better_member_gets_higher_weight(self):
        data = separable_data(60)
        perfect, _ = cross_val_f1(OracleModel, data, folds=5, seed=0)
        constant, _ = cross_val_f1(
            lambda: StubModel(target_class="yes", other_class="no", always=True),
            data,
            folds=5,
            seed=0,
        )
        assert perfect == 1.0 >= constant

    def test_a_single_class_fold_raises_fits_error(self):
        # the one "no" row is held out of one fold, whose training rows are then all "yes"
        data = make_encoded(np.linspace(0.0, 1.0, 10)[:, np.newaxis], ["yes"] * 9 + ["no"])
        test = next(t for t in kfold_indices(10, 5, seed=0) if 9 in t)
        with pytest.raises(ValueError, match="^training data contains a single class$"):
            DecisionTree().fit(np.delete(data.X, test, axis=0), np.delete(data.y, test), "yes")
        for make in (DecisionTree, Knn):
            with pytest.raises(ValueError, match="^training data contains a single class$"):
                cross_val_f1(make, data, folds=5, seed=0)

    def test_final_member_is_the_fit_on_all_rows(self, synthetic_encoded, tmp_path):
        for kind in ("knn", "naive_bayes", "decision_tree"):
            _, final = cross_val_f1(partial(make_model, kind), synthetic_encoded, folds=4, seed=2)
            save_model(final, tmp_path / "cv.json")
            save_model(fit_builtin(kind, synthetic_encoded), tmp_path / "fit.json")
            assert (tmp_path / "cv.json").read_bytes() == (tmp_path / "fit.json").read_bytes()

    def test_cv_weights_builds_fitted_jury(self, synthetic_encoded):
        jury = cv_weights(("knn", "decision_tree"), synthetic_encoded, folds=5, seed=0)
        assert len(jury.members) == 2
        for model, weight in jury.members:
            assert 0.0 <= weight <= 1.0
            assert model.fitted
            model.predict(synthetic_encoded.X[0])  # fitted on the full data

    def test_cv_weights_needs_two_kinds(self, synthetic_encoded):
        with pytest.raises(ValueError, match="two member kinds"):
            cv_weights(("knn",), synthetic_encoded, folds=5, seed=0)

    def test_cv_weights_needs_enough_rows(self):
        data = make_encoded([[0.1], [0.9], [0.2], [0.8]], ["yes", "no", "yes", "no"])
        with pytest.raises(ValueError):
            cv_weights(("knn", "decision_tree"), data, folds=10, seed=0)


class TestJury:
    def test_requires_two_members(self):
        with pytest.raises(ValueError, match="two members"):
            ThirdPartyJury(members=((StubModel(), 0.5),))

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError, match="weight"):
            ThirdPartyJury(members=((StubModel(), 0.5), (StubModel(), 1.5)))


class TestPersistence:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_round_trip_preserves_predictions(self, kind, tmp_path, synthetic_encoded):
        model = fit_builtin(kind, synthetic_encoded, seed=0)
        path = tmp_path / f"{kind}.model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == kind
        probes = synthetic_encoded.X[:25]
        for probe in probes:
            assert loaded.predict(probe) == model.predict(probe)
        assert loaded.predict_proba_rows(probes).tobytes() == model.predict_proba_rows(probes).tobytes()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_integer_labels_round_trip(self, kind, tmp_path, synthetic_encoded):
        labels = np.where(synthetic_encoded.y == synthetic_encoded.target_class, 1, 0)
        model = make_model(kind).fit(synthetic_encoded.X, labels, 1)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert (loaded.target_class, loaded.other_class) == (1, 0)
        probes = synthetic_encoded.X[:25]
        assert loaded.predict_proba_rows(probes).tobytes() == model.predict_proba_rows(probes).tobytes()
        assert [loaded.predict(v) for v in probes] == [model.predict(v) for v in probes]

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_save_load_save_is_byte_identical(self, kind, tmp_path, synthetic_encoded):
        save_model(fit_builtin(kind, synthetic_encoded, seed=0), tmp_path / "a.json")
        save_model(load_model(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_knn_record_does_not_alias_the_training_data(self, tmp_path):
        X, y = np.array([[0.0], [1.0]]), np.array(["yes", "no"], dtype=object)
        model = Knn(k=1).fit(X, y, "yes")
        X[0, 0], y[0] = 2.0, "no"
        save_model(model, tmp_path / "m.json")
        params = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))["parameters"]
        assert params == {"train_x": [[0.0], [1.0]], "train_y": ["yes", "no"]}

    def test_knn_keeps_one_copy_of_its_rows(self, tmp_path, synthetic_encoded):
        model = fit_builtin("knn", synthetic_encoded)
        save_model(model, tmp_path / "m.json")
        for m in (model, load_model(tmp_path / "m.json")):
            assert m._record["train_x"] is m._X

    def test_naive_bayes_file_without_its_classes_fails_to_load(self, tmp_path, synthetic_encoded):
        path = tmp_path / "m.json"
        save_model(fit_builtin("naive_bayes", synthetic_encoded), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(dict(payload, target_class="yes")), encoding="utf-8")
        with pytest.raises(KeyError, match="yes"):
            load_model(path)

    def test_naive_bayes_rejects_labels_with_one_name(self):
        with pytest.raises(ValueError, match="share one name"):
            NaiveBayes().fit([[0.0], [1.0], [0.1], [0.9]], [1, "1", 1, "1"], 1)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("format_version", 1, "run tcol train again"),
            ("kind", "svm", "unknown model kind 'svm'"),
            ("hyperparameters", {"k": 3}, "bad decision_tree hyperparameters"),
            ("kind", [1], "unknown model kind [1]"),
            ("parameters", 5, "parameters must be an object, got 5"),
            ("parameters", [], "parameters must be an object, got []"),
            ("target_class", ["x"], "target_class must be a string or a number, got ['x']"),
            ("other_class", True, "other_class must be a string or a number, got True"),
        ],
    )
    def test_bad_model_file_raises_model_file_error(self, key, value, message, tmp_path, synthetic_encoded):
        path = tmp_path / "m.json"
        save_model(fit_builtin("decision_tree", synthetic_encoded), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(dict(payload, **{key: value})), encoding="utf-8")
        with pytest.raises(ModelFileError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize(
        "kind, version, message",
        [
            *((kind, 1, "model file version 1 is not 2: run tcol train again") for kind in MODEL_KINDS),
            ("decision_tree", True, "model file version True is not 2: run tcol train again"),
            ("decision_tree", 2.0, "model file version 2.0 is not 2: run tcol train again"),
            ("decision_tree", "2", "model file version '2' is not 2: run tcol train again"),
            ("decision_tree", None, "model file version None is not 2: run tcol train again"),
            ("decision_tree", "missing", "model file version 'missing' is not 2: run tcol train again"),
        ],
    )
    def test_only_the_exact_integer_version_2_loads(self, kind, version, message, tmp_path, synthetic_encoded):
        path = tmp_path / "m.json"
        save_model(fit_builtin(kind, synthetic_encoded), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format_version"] == 2 and type(payload["format_version"]) is int
        if version == "missing":
            del payload["format_version"]
        else:
            payload["format_version"] = version
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFileError) as refused:
            load_model(path)
        assert str(refused.value) == message

    def test_a_file_that_is_not_a_json_object_fails_to_load(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("5", encoding="utf-8")
        with pytest.raises(ModelFileError, match="a model file must be an object, got 5"):
            load_model(path)

    @pytest.mark.parametrize(
        "kind, hyperparameters, message",
        [
            ("random_forest", {"n_trees": 0}, "n_trees must be an integer >= 1, got 0"),
            ("random_forest", {"max_depth": -1}, "max_depth must be an integer >= 0, got -1"),
            ("random_forest", {"seed": -1}, "seed must be an integer >= 0, got -1"),
            ("random_forest", {"n_trees": 2.5}, "n_trees must be an integer >= 1, got 2.5"),
            ("decision_tree", {"max_depth": -2}, "max_depth must be an integer >= 0, got -2"),
            ("decision_tree", {"max_depth": True}, "max_depth must be an integer >= 0, got True"),
            ("decision_tree", {"min_samples_split": 1}, "min_samples_split must be an integer >= 2, got 1"),
        ],
    )
    def test_file_with_out_of_range_cart_hyperparameters_fails_to_load(
        self, kind, hyperparameters, message, tmp_path, synthetic_encoded
    ):
        path = tmp_path / "m.json"
        save_model(fit_builtin(kind, synthetic_encoded), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["hyperparameters"].update(hyperparameters)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFileError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            ("random_forest", lambda p: p.update(trees=[]), "random_forest trees must hold at least one tree"),
            ("random_forest", lambda p: p["trees"][0]["value"].__setitem__(first_leaf(p["trees"][0]), -0.5),
             "value must lie in [0, 1], got -0.5"),
            ("decision_tree", lambda p: p.update(trees=[one_leaf(math.nan)]),
             "decision_tree trees[0] node 0: value must lie in [0, 1], got nan"),
            ("decision_tree", lambda p: p.update(trees=[one_leaf(1.5)]),
             "decision_tree trees[0] node 0: value must lie in [0, 1], got 1.5"),
            ("decision_tree", lambda p: p["trees"][0]["left"].__setitem__(1, 0),
             "decision_tree trees[0] node 1: left and right must both be 1 (a leaf) or lie in (1, "),
            ("decision_tree", lambda p: p["trees"][0]["left"].__setitem__(first_leaf(p["trees"][0]), 0),
             "or lie in ("),
            ("random_forest", lambda p: p["trees"][0]["right"].__setitem__(0, len(p["trees"][0]["right"])),
             "random_forest trees[0] node 0: left and right must both be 0 (a leaf) or lie in (0, "),
            ("decision_tree", lambda p: p["trees"][0]["right"].__setitem__(0, p["trees"][0]["left"][0]),
             "decision_tree trees[0] node 1: is the child of 2 nodes"),
            ("decision_tree", lambda p: p["trees"][0]["value"].pop(),
             "decision_tree trees[0] needs feature, threshold, left, right, value lists of one length, at least 1"),
            ("decision_tree", lambda p: p["trees"][0].update(dict.fromkeys(p["trees"][0], [])),
             "decision_tree trees[0] needs feature, threshold, left, right, value lists of one length, at least 1"),
            ("decision_tree", lambda p: p["trees"][0].update(threshold=[[t] for t in p["trees"][0]["threshold"]]),
             "decision_tree trees[0] needs feature, threshold, left, right, value lists of one length, at least 1"),
            ("random_forest", lambda p: p["trees"].__setitem__(1, 5), "random_forest trees[1] must be an object, got 5"),
            ("decision_tree", lambda p: p["trees"][0].update(feature=[float(f) for f in p["trees"][0]["feature"]]),
             "decision_tree trees[0] feature is not an array of integers: 5.0"),
            ("random_forest", lambda p: p["trees"][0]["left"].__setitem__(first_leaf(p["trees"][0]), True),
             "random_forest trees[0] left is not an array of integers: True"),
            ("decision_tree", lambda p: p["trees"][0].update(right=7),
             "decision_tree trees[0] needs feature, threshold, left, right, value lists of one length, at least 1"),
            ("decision_tree", lambda p: p["trees"][0].update(value="abc"),
             "decision_tree trees[0] value is not an array of numbers: 'abc'"),
            ("knn", lambda p: p.update(train_x=p["train_x"][:3]), "one row per train_y label, got shape (3, 6)"),
            ("knn", lambda p: p["train_x"][0].__setitem__(0, math.inf), "knn train_x must be a finite matrix"),
            ("knn", lambda p: p.update(train_x=p["train_x"][0]), "knn train_x must be a finite matrix"),
            ("knn", lambda p: p["train_x"][0].append(0.5), "knn train_x is not an array of numbers"),
            ("naive_bayes", lambda p: p["stats"]["approved"].update(var=[0.0] * 6),
             "stats['approved'] needs a finite mean and a finite var above 0"),
            ("naive_bayes", lambda p: p["stats"]["denied"]["mean"].__setitem__(2, math.nan),
             "stats['denied'] needs a finite mean and a finite var above 0"),
            ("naive_bayes", lambda p: p["stats"]["denied"].update(prior=0.0),
             "stats['denied'] prior must be a number in (0, 1], got 0.0"),
            ("naive_bayes", lambda p: p["stats"]["denied"].update(prior=1.5), "prior must be a number in (0, 1]"),
            ("naive_bayes", lambda p: p["stats"]["denied"].update(prior="x"), "stats['denied'] prior is not"),
            ("naive_bayes", lambda p: p["stats"]["approved"]["mean"].pop(),
             "stats['approved'] mean and var must be lists of one length"),
            ("naive_bayes", lambda p: p.update(stats=[1]), "naive_bayes stats must be an object, got [1]"),
            ("naive_bayes", lambda p: p["stats"].update(approved=5),
             "naive_bayes stats['approved'] must be an object, got 5"),
            ("naive_bayes", lambda p: p["stats"]["denied"].update(prior=True),
             "naive_bayes stats['denied'] prior is not an array of numbers: True"),
            ("naive_bayes", lambda p: p["stats"]["approved"]["mean"].__setitem__(2, True),
             "naive_bayes stats['approved'] mean is not an array of numbers: True"),
            ("knn", lambda p: p.update(train_y=5), "knn train_y must be a list of labels, got 5"),
            ("knn", lambda p: p.update(train_y="ab"), "knn train_y must be a list of labels, got 'ab'"),
            ("knn", lambda p: p["train_x"][0].__setitem__(0, 2**2000),
             f"knn train_x is not an array of numbers: {str(2**2000)[:40]}"),
            ("knn", lambda p: p["train_x"][3].__setitem__(1, True), "knn train_x is not an array of numbers: True"),
        ],
        ids=[
            "no-trees", "negative-leaf", "nan-leaf", "leaf-above-one", "child-below-parent", "leaf-links-up",
            "child-past-the-end", "two-parents", "lengths-differ", "no-nodes", "threshold-matrix", "tree-int",
            "feature-floats", "left-true", "right-int", "value-text", "knn-rows-cut", "knn-inf", "knn-1d",
            "knn-ragged", "zero-var", "nan-mean", "zero-prior", "prior-above-one", "prior-text", "short-mean",
            "stats-list", "class-stats-int", "prior-true", "mean-true", "train-y-int", "train-y-text",
            "train-x-huge", "train-x-true",
        ],
    )
    def test_file_that_would_predict_nonsense_fails_to_load(self, kind, edit, message, tmp_path, synthetic_encoded):
        path = tmp_path / "m.json"
        save_model(fit_builtin(kind, synthetic_encoded), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload["parameters"])
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFileError, match=re.escape(message)):
            load_model(path)

    def test_unfitted_model_not_saved(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_model(Knn(), tmp_path / "m.json")

    def test_a_non_finite_value_is_refused_and_no_file_written(self, tmp_path):
        """A tree fitted on a column that holds -inf splits at the midpoint
        -inf, which strict JSON cannot hold."""
        X = np.array([[-np.inf], [-1e308], [0.0], [1e308], [1.5e308], [np.inf]])
        model = DecisionTree().fit(X, ["yes", "no", "no", "no", "no", "no"], "yes")
        assert model._record["trees"][0]["threshold"][0] == -np.inf
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_model(model, tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()


def first_leaf(tree) -> int:
    """The index of the first leaf of a tree's node arrays."""
    return next(i for i, (left, right) in enumerate(zip(tree["left"], tree["right"])) if left == right == i)


def one_leaf(value) -> dict:
    """The node arrays of a tree that is one leaf of ``value``."""
    return {"feature": [0], "threshold": [math.inf], "left": [0], "right": [0], "value": [value]}


def test_naive_bayes_gives_the_prior_where_both_likelihoods_vanish(tmp_path, synthetic_encoded):
    """A loaded var of 5e-324 in both classes, or a row far from both means,
    makes both log-likelihoods -inf: the posterior is then the prior, as the
    sigmoid of the log priors' difference, with no warning."""
    model = fit_builtin("naive_bayes", synthetic_encoded)
    save_model(model, tmp_path / "m.json")
    payload = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
    stats = payload["parameters"]["stats"]
    for s in stats.values():
        s["var"] = [5e-324] * len(s["var"])
    (tmp_path / "m.json").write_text(json.dumps(payload), encoding="utf-8")
    tiny = load_model(tmp_path / "m.json")
    prior = float(sigmoid(math.log(stats["approved"]["prior"]) - math.log(stats["denied"]["prior"])))
    rows = np.full((4, synthetic_encoded.X.shape[1]), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tiny.predict_proba_rows(rows).tobytes() == np.full(4, prior).tobytes()
        far = model.predict_proba_rows(synthetic_encoded.X[:4] + 1e200)
        assert far.tobytes() == np.full(4, prior).tobytes()
        # a row near the means keeps its posterior beside them
        mixed = model.predict_proba_rows(np.vstack([synthetic_encoded.X[:1], rows + 1e200]))
    assert mixed[0] == model.predict_proba(synthetic_encoded.X[0]) and mixed[1] == prior


@pytest.mark.parametrize("label", ["approved", "denied"])
def test_naive_bayes_loads_a_var_past_the_float_range_over_two_pi(tmp_path, synthetic_encoded, label):
    """A loaded var of 1e308, whose 2 pi var is past the float range, keeps
    the finite log(2 pi) + log(var) in its class's log-likelihood, with no
    warning: the posterior is the one the README's formula gives."""
    model = fit_builtin("naive_bayes", synthetic_encoded)
    save_model(model, tmp_path / "m.json")
    payload = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
    stats = payload["parameters"]["stats"]
    stats[label]["var"][0] = 1e308
    (tmp_path / "m.json").write_text(json.dumps(payload), encoding="utf-8")
    rows = synthetic_encoded.X[:4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proba = load_model(tmp_path / "m.json").predict_proba_rows(rows)

    def log_likelihood(s, x):
        return math.log(s["prior"]) - 0.5 * sum(
            math.log(2.0 * math.pi) + math.log(v) + (xi - m) ** 2 / v for xi, m, v in zip(x, s["mean"], s["var"])
        )

    expected = [float(sigmoid(log_likelihood(stats["approved"], x) - log_likelihood(stats["denied"], x))) for x in rows]
    assert proba.tolist() == pytest.approx(expected, rel=1e-9)


def test_prediction_f1_counts_confusion():
    hits = [True, True, False, False]
    truth = [True, False, True, False]
    # tp=1 fp=1 fn=1 -> precision=recall=0.5 -> f1=0.5
    assert prediction_f1(hits, truth) == pytest.approx(0.5)
