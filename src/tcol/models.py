"""Built-in classifiers, the validation model, and the third-party jury.

The classifiers are small from-scratch implementations over encoded
vectors. Every model answers ``predict_proba_rows(X)``, the probability of
the desired class for each row of a matrix, and ``predict_proba(v)`` for
one row. A model implements either one and inherits the other: the base
class derives a single row from a one-row matrix, and a matrix from one
``predict_proba`` call per row, so a custom model that only knows single
rows works unchanged. ``predicts_target(X)`` and ``predict(v)`` apply the
one decision rule, ``proba >= 0.5`` means the target class (ties resolve
to it), so ``predict(v) == target_class iff predict_proba(v) >= 0.5``
holds by construction.

Trees are compiled once, after fitting or loading, into flat node arrays
and evaluate a whole matrix level by level (the tensorized-tree layout of
Hummingbird, Nakandala et al., OSDI 2020). A decision tree is a forest of
one tree. The nested-dict tree stays the persisted form. Models are
immutable after ``fit`` and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .tabular import EncodedDataset

MODEL_KINDS = ("knn", "naive_bayes", "decision_tree", "random_forest")

_VAR_FLOOR = 1e-9
_THRESHOLD = 0.5  # predict_proba >= _THRESHOLD means the target class


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall on [0, 1]; (0, 0) maps to 0."""
    for name, v in (("precision", precision), ("recall", recall)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    if precision == 0.0 and recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _precision_recall(predictions, reference, positive) -> tuple[float, float]:
    tp = sum(1 for p, r in zip(predictions, reference) if p == positive and r == positive)
    fp = sum(1 for p, r in zip(predictions, reference) if p == positive and r != positive)
    fn = sum(1 for p, r in zip(predictions, reference) if p != positive and r == positive)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


def prediction_f1(predictions, reference, positive) -> float:
    return f1_score(*_precision_recall(predictions, reference, positive))


class ClassifierModel:
    """Base classifier: fit on encoded rows, predict the binary label."""

    kind = "abstract"

    def __init__(self):
        self.target_class = None
        self.other_class = None
        self.fitted = False

    def fit(self, X: np.ndarray, y: Sequence, target_class) -> "ClassifierModel":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=object)
        labels = set(y.tolist())
        if len(labels) < 2:
            raise ValueError("training data contains a single class")
        if len(labels) > 2:
            raise ValueError(f"expected binary labels, got {sorted(map(str, labels))}")
        if target_class not in labels:
            raise ValueError(f"target class {target_class!r} absent from training labels")
        self.target_class = target_class
        self.other_class = next(c for c in labels if c != target_class)
        self._fit(X, y)
        self.fitted = True
        return self

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def predict_proba(self, vector) -> float:
        """Target-class probability of one encoded row."""
        row = np.asarray(vector, dtype=float)[np.newaxis]
        return float(self.predict_proba_rows(row)[0])

    def predict_proba_rows(self, X) -> np.ndarray:
        """Target-class probability of each row of the matrix ``X``."""
        if type(self).predict_proba is ClassifierModel.predict_proba:
            raise NotImplementedError(
                f"{type(self).__name__} overrides neither predict_proba nor predict_proba_rows"
            )
        return np.array([self.predict_proba(row) for row in np.asarray(X, dtype=float)], dtype=float)

    def predicts_target(self, X) -> np.ndarray:
        """Per row of ``X``: does the model predict the target class?"""
        return self.predict_proba_rows(X) >= _THRESHOLD

    def predict(self, vector):
        return self.target_class if self.predict_proba(vector) >= _THRESHOLD else self.other_class

    def hyperparameters(self) -> dict:
        return {}

    def _params(self) -> dict:
        raise NotImplementedError

    def _restore(self, params: dict) -> None:
        raise NotImplementedError


class Knn(ClassifierModel):
    """k-nearest-neighbour vote; probability = target fraction among neighbours."""

    kind = "knn"

    def __init__(self, k: int = 5):
        super().__init__()
        self.k = k

    def _fit(self, X, y):
        self._X = X.copy()
        self._y = y.copy()

    def predict_proba(self, vector) -> float:
        v = np.asarray(vector, dtype=float)
        d = np.linalg.norm(self._X - v, axis=1)
        k = min(self.k, len(d))
        nearest = np.argsort(d, kind="stable")[:k]  # distance ties -> lower row index
        return float(np.mean(self._y[nearest] == self.target_class))

    def hyperparameters(self):
        return {"k": self.k}

    def _params(self):
        return {"train_x": self._X.tolist(), "train_y": self._y.tolist()}

    def _restore(self, params):
        self._X = np.asarray(params["train_x"], dtype=float)
        self._y = np.asarray(params["train_y"], dtype=object)


class NaiveBayes(ClassifierModel):
    """Gaussian naive Bayes per encoded feature, variance floored for stability."""

    kind = "naive_bayes"

    def _fit(self, X, y):
        self._stats = {}
        for label in (self.target_class, self.other_class):
            rows = X[y == label]
            self._stats[label] = {
                "prior": len(rows) / len(X),
                "mean": rows.mean(axis=0),
                "var": np.maximum(rows.var(axis=0), _VAR_FLOOR),
            }

    def _log_likelihood(self, label, v) -> float:
        s = self._stats[label]
        var = s["var"]
        ll = -0.5 * np.sum(np.log(2.0 * np.pi * var) + (v - s["mean"]) ** 2 / var)
        return float(ll + math.log(s["prior"]))

    def predict_proba(self, vector) -> float:
        v = np.asarray(vector, dtype=float)
        lt = self._log_likelihood(self.target_class, v)
        lo = self._log_likelihood(self.other_class, v)
        m = max(lt, lo)
        et, eo = math.exp(lt - m), math.exp(lo - m)
        return et / (et + eo)

    def _params(self):
        return {
            "stats": {
                str(label): {
                    "prior": s["prior"],
                    "mean": s["mean"].tolist(),
                    "var": s["var"].tolist(),
                }
                for label, s in self._stats.items()
            }
        }

    def _restore(self, params):
        self._stats = {
            label: {
                "prior": float(s["prior"]),
                "mean": np.asarray(s["mean"], dtype=float),
                "var": np.asarray(s["var"], dtype=float),
            }
            for label, s in params["stats"].items()
        }


class _FlatTrees:
    """Nested-dict trees compiled to flat node arrays, evaluated by matrix.

    Node ``i`` sends a row to ``left[i]`` when ``row[feature[i]] <=
    threshold[i]`` and to ``right[i]`` otherwise. A leaf holds its
    probability in ``value[i]``, has threshold +inf and points to itself
    on both sides, so ``depth`` steps (the deepest leaf's depth) take
    every row of every tree to its leaf. The result is the mean over trees.
    """

    def __init__(self, trees: Sequence[dict]):
        self.depth = 0
        feature, threshold, left, right, value = [], [], [], [], []

        def add(node, depth) -> int:
            i = len(feature)
            feature.append(0)
            threshold.append(math.inf)
            left.append(i)
            right.append(i)
            value.append(node.get("leaf", 0.0))
            if "leaf" in node:
                self.depth = max(self.depth, depth)
            else:
                feature[i] = node["feature"]
                threshold[i] = node["threshold"]
                left[i] = add(node["left"], depth + 1)
                right[i] = add(node["right"], depth + 1)
            return i

        self.roots = np.array([add(tree, 0) for tree in trees], dtype=np.intp)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=float)

    def proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        node = np.broadcast_to(self.roots, (len(X), len(self.roots)))
        rows = np.arange(len(X))[:, np.newaxis]
        for _ in range(self.depth):
            goes_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(goes_left, self.left[node], self.right[node])
        return self.value[node].mean(axis=1)


class DecisionTree(ClassifierModel):
    """CART-style tree with Gini splits; leaf probability = target fraction."""

    kind = "decision_tree"

    def __init__(self, max_depth: int = 8, min_samples_split: int = 2, max_features=None, rng=None):
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self._rng = rng

    def _fit(self, X, y):
        hits = (y == self.target_class).astype(float)
        self._restore({"tree": self._build(X, hits, depth=0)})

    @staticmethod
    def _gini(hits: np.ndarray) -> float:
        p = hits.mean()
        return 2.0 * p * (1.0 - p)

    def _split_candidates(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        chosen = self._rng.choice(n_features, size=self.max_features, replace=False)
        return np.sort(chosen)

    def _build(self, X, hits, depth) -> dict:
        n = len(hits)
        proba = float(hits.mean())
        if depth >= self.max_depth or n < self.min_samples_split or proba in (0.0, 1.0):
            return {"leaf": proba, "n": n}
        best = None
        for feat in self._split_candidates(X.shape[1]):
            values = np.unique(X[:, feat])
            if len(values) < 2:
                continue
            for threshold in (values[:-1] + values[1:]) / 2.0:
                left = X[:, feat] <= threshold
                nl = int(left.sum())
                if nl == 0 or nl == n:
                    continue
                impurity = (
                    nl * self._gini(hits[left]) + (n - nl) * self._gini(hits[~left])
                ) / n
                key = (impurity, int(feat), float(threshold))
                if best is None or key < best[0]:
                    best = (key, feat, threshold, left)
        if best is None:
            return {"leaf": proba, "n": n}
        _, feat, threshold, left = best
        return {
            "feature": int(feat),
            "threshold": float(threshold),
            "left": self._build(X[left], hits[left], depth + 1),
            "right": self._build(X[~left], hits[~left], depth + 1),
        }

    def predict_proba_rows(self, X) -> np.ndarray:
        return self._flat.proba(X)

    def hyperparameters(self):
        return {"max_depth": self.max_depth, "min_samples_split": self.min_samples_split}

    def _params(self):
        return {"tree": self._tree}

    def _restore(self, params):
        self._tree = params["tree"]
        self._flat = _FlatTrees([self._tree])


class RandomForest(ClassifierModel):
    """Bagged Gini trees with sqrt-feature splits; probability = mean of trees."""

    kind = "random_forest"

    def __init__(self, n_trees: int = 25, max_depth: int = 8, seed: int = 0):
        super().__init__()
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed

    def _fit(self, X, y):
        rng = np.random.default_rng(self.seed)
        n, n_features = X.shape
        max_features = max(1, int(round(math.sqrt(n_features))))
        hits = (y == self.target_class).astype(float)
        trees = []
        for _ in range(self.n_trees):
            idx = rng.integers(0, n, size=n)
            grower = DecisionTree(
                max_depth=self.max_depth,
                max_features=max_features,
                rng=np.random.default_rng(rng.integers(0, 2**63)),
            )
            # Bootstrap sample may be single-class; the tree is then a constant leaf.
            trees.append(grower._build(X[idx], hits[idx], depth=0))
        self._restore({"trees": trees})

    def predict_proba_rows(self, X) -> np.ndarray:
        return self._flat.proba(X)

    def hyperparameters(self):
        return {"n_trees": self.n_trees, "max_depth": self.max_depth, "seed": self.seed}

    def _params(self):
        return {"trees": self._trees}

    def _restore(self, params):
        self._trees = params["trees"]
        self._flat = _FlatTrees(self._trees)


def make_model(kind: str, seed: int = 0) -> ClassifierModel:
    if kind == "knn":
        return Knn()
    if kind == "naive_bayes":
        return NaiveBayes()
    if kind == "decision_tree":
        return DecisionTree()
    if kind == "random_forest":
        return RandomForest(seed=seed)
    raise ValueError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")


def fit_builtin(kind: str, data: EncodedDataset, seed: int = 0) -> ClassifierModel:
    """Fit one of the built-in classifiers on an encoded dataset."""
    if len(data) < 10:
        raise ValueError(f"need at least 10 rows to fit, got {len(data)}")
    return make_model(kind, seed=seed).fit(data.X, data.y, data.target_class)


def kfold_indices(n: int, folds: int, seed: int = 0) -> list[np.ndarray]:
    """Seeded shuffle then round-robin assignment; returns per-fold row indices."""
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if n < folds:
        raise ValueError(f"need at least {folds} rows for {folds}-fold splits, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    return [order[f::folds] for f in range(folds)]


def cross_val_f1(make, data: EncodedDataset, folds: int, seed: int = 0) -> float:
    """Mean held-out F1 (positive = target class) of ``make()`` over k folds."""
    fold_idx = kfold_indices(len(data), folds, seed=seed)
    scores = []
    for test in fold_idx:
        mask = np.ones(len(data), dtype=bool)
        mask[test] = False
        model = make().fit(data.X[mask], data.y[mask], data.target_class)
        hits = model.predicts_target(data.X[test])
        truth = data.y[test] == data.target_class
        scores.append(prediction_f1(hits.tolist(), truth.tolist(), True))
    return float(np.mean(scores))


@dataclass(frozen=True)
class ThirdPartyJury:
    """Auxiliary classifiers with cross-validated weights, for fidelity checks."""

    members: tuple  # ((ClassifierModel, weight), ...)
    protocol: str = "cv-f1"

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 2:
            raise ValueError("a jury needs at least two members")
        for _, w in self.members:
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"jury weight {w} outside [0, 1]")

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.members)


def cv_weights(kinds: Sequence[str], data: EncodedDataset, folds: int, seed: int = 0) -> ThirdPartyJury:
    """Weight each jury member by its mean held-out F1, then fit on all rows."""
    if len(kinds) < 2:
        raise ValueError("a jury needs at least two member kinds")
    members = []
    for kind in kinds:
        weight = cross_val_f1(lambda: make_model(kind, seed=seed), data, folds, seed=seed)
        model = make_model(kind, seed=seed).fit(data.X, data.y, data.target_class)
        members.append((model, weight))
    return ThirdPartyJury(members=tuple(members), protocol=f"{folds}-fold-cv-f1")


_MODEL_CLASSES = {cls.kind: cls for cls in (Knn, NaiveBayes, DecisionTree, RandomForest)}


def save_model(model: ClassifierModel, path: str | Path) -> None:
    """Persist a fitted model as a versioned JSON document."""
    if not model.fitted:
        raise ValueError("cannot save an unfitted model")
    payload = {
        "format_version": 1,
        "kind": model.kind,
        "target_class": model.target_class,
        "other_class": model.other_class,
        "hyperparameters": model.hyperparameters(),
        "parameters": model._params(),
    }
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> ClassifierModel:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format_version") != 1:
        raise ValueError("unsupported model file version")
    kind = payload["kind"]
    if kind not in _MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r} in file")
    model = _MODEL_CLASSES[kind](**payload["hyperparameters"])
    model.target_class = payload["target_class"]
    model.other_class = payload["other_class"]
    model._restore(payload["parameters"])
    model.fitted = True
    return model
