"""Built-in classifiers, the validation model, and the third-party jury.

The classifiers are small from-scratch implementations over encoded
vectors. A model implements one method, ``predict_proba_rows(X)``: the
probability of the desired class for each row of a matrix. The base class
derives the rest from it: ``predict_proba(v)`` is the one-row matrix's
entry, and ``predicts_target(X)`` and ``predict(v)`` apply the one
decision rule, ``proba >= 0.5`` means the target class (ties resolve to
it), so ``predict(v) == target_class iff predict_proba(v) >= 0.5`` holds
by construction.

Trees are compiled once, after fitting or loading, into flat node arrays
and evaluate a whole matrix level by level (the tensorized-tree layout of
Hummingbird, Nakandala et al., OSDI 2020). A decision tree is a forest of
one tree. The nested-dict tree stays the persisted form. Models are
immutable after ``fit`` and safe to share across threads.

Both CART models grow their trees with ``_grow``: per node, one sort of
each candidate column and prefix sums of the target hits, with the Gini
impurity evaluated only between distinct values. Ties go to the lowest
``(impurity, feature, threshold)``, exactly as in a scan of every
threshold in turn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .scoring import _exp
from .tabular import EncodedDataset

_VAR_FLOOR = 1e-9
_KNN_BLOCK = 2**15  # most (probe, training row) pairs in one block of knn's filter
_KNN_SAFE = np.finfo(float).max / 4  # |q|^2 + max |t|^2 below it: no overflow in knn
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
    predicted = np.asarray(predictions) == positive
    actual = np.asarray(reference) == positive
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(actual)) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


def prediction_f1(predictions, reference, positive) -> float:
    return f1_score(*_precision_recall(predictions, reference, positive))


class ModelFileError(ValueError):
    """A model file that ``load_model`` cannot turn into a model."""


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
        return self._install(self._fit(X, y))

    def _fit(self, X: np.ndarray, y: np.ndarray) -> dict:
        """Fit on the rows; return the parameter record that ``save_model`` writes."""
        raise NotImplementedError

    def _restore(self, params: dict) -> None:
        """Build the prediction state from a parameter record, fitted or loaded."""
        raise NotImplementedError

    def _install(self, params: dict) -> "ClassifierModel":
        """The last step of ``fit`` and ``load_model``: restore, keep the record, mark fitted."""
        self._restore(params)
        self._record = params
        self.fitted = True
        return self

    def predict_proba(self, vector) -> float:
        """Target-class probability of one encoded row."""
        row = np.asarray(vector, dtype=float)[np.newaxis]
        return float(self.predict_proba_rows(row)[0])

    def predict_proba_rows(self, X) -> np.ndarray:
        """Target-class probability of each row of the matrix ``X``."""
        raise NotImplementedError(f"{type(self).__name__} does not implement predict_proba_rows")

    def predicts_target(self, X) -> np.ndarray:
        """Per row of ``X``: does the model predict the target class?"""
        return self.predict_proba_rows(X) >= _THRESHOLD

    def predict(self, vector):
        return self.target_class if self.predict_proba(vector) >= _THRESHOLD else self.other_class

    def hyperparameters(self) -> dict:
        return {}


class Knn(ClassifierModel):
    """k-nearest-neighbour vote; probability = target fraction among neighbours."""

    kind = "knn"

    def __init__(self, k: int = 5):
        super().__init__()
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k

    def _fit(self, X, y):
        return {"train_x": X.copy(), "train_y": y.copy()}

    def predict_proba_rows(self, X) -> np.ndarray:
        """The k nearest training rows by ``np.linalg.norm(t - q)``, distance
        ties to the lower row index, found by exact filter and refine
        (Seidl & Kriegel, SIGMOD 1998).

        Filter: per probe ``q``, ``a = |q|^2 + |t|^2 - 2 q.t`` for every
        training row ``t``. With ``r = |t - q|^2`` in real arithmetic, the
        dot-product bound (Higham, 2002, section 3.1) gives
        ``|a - r| <= 2 gamma(L + 2) (|q|^2 + |t|^2)`` and, for the exact distance
        ``d``, ``|d^2 - r| <= 2 gamma(L + 4) (|q|^2 + |t|^2)``; underflow adds at
        most half the smallest subnormal per product, 5L/2 of them in all.
        ``E`` bounds both errors together (``_knn_error_bound``). If ``T`` is the
        k-th smallest ``a``, k rows have ``d^2 <= T + E``, so each of the k
        nearest has ``a <= T + 2E``: the filter keeps those rows.
        Refine: the exact distance on the kept pairs only, then the k
        smallest by (distance, row index). A probe whose norms could make a
        filter value or a distance overflow, or are NaN, keeps every row.
        """
        X = np.asarray(X, dtype=float)
        k = min(self.k, len(self._X))
        widest = self._sq.max()
        step = max(1, _KNN_BLOCK // len(self._X))
        out = np.empty(len(X))
        for start in range(0, len(X), step):
            Q = X[start : start + step]
            # The filter may overflow where the exact distances do not; the
            # guard below catches that, so its warnings are noise.
            with np.errstate(over="ignore", invalid="ignore"):
                qq = np.einsum("ij,ij->i", Q, Q)
                # einsum, not BLAS: no threads, and its inner loop runs along
                # the contiguous rows of the transposed training matrix.
                a = np.einsum("ij,jk->ik", Q, self._XT)
                a *= -2.0
                a += self._sq
                a += qq[:, np.newaxis]
                norms = qq + widest
                limit = np.partition(a, k - 1, axis=1)[:, k - 1] + 2.0 * _knn_error_bound(
                    self._X.shape[1], norms
                )
            # Below _KNN_SAFE every filter value and exact distance is finite;
            # a probe at or above it, or with a NaN, keeps every row.
            keep = a <= limit[:, np.newaxis]
            keep[~(norms < _KNN_SAFE)] = True
            probe, row = np.divmod(np.flatnonzero(keep), len(self._X))
            d = np.linalg.norm(self._X[row] - Q[probe], axis=1)
            # lexsort is stable and np.flatnonzero lists a probe's rows in ascending
            # order, so equal distances keep the lower row index first.
            order = np.lexsort((d, probe))
            kept = np.bincount(probe, minlength=len(Q))
            first = np.cumsum(kept) - kept
            nearest = row[order[first[:, np.newaxis] + np.arange(k)]]
            out[start : start + step] = self._hits[nearest].sum(axis=1) / k
        return out

    def hyperparameters(self):
        return {"k": self.k}

    def _restore(self, params):
        # the record keeps the array, not a loaded file's lists: one copy of the rows
        params["train_x"] = self._X = np.asarray(params["train_x"], dtype=float)
        self._XT = np.ascontiguousarray(self._X.T)
        self._sq = np.einsum("ij,ij->i", self._X, self._X)
        self._hits = np.asarray(params["train_y"], dtype=object) == self.target_class


def _knn_error_bound(n_features: int, norms: np.ndarray) -> np.ndarray:
    """The knn filter's ``E`` for probes whose ``|q|^2 + max |t|^2`` is ``norms``.

    ``4 gamma(2L + 6)`` exceeds ``2 gamma(L + 2) + 2 gamma(L + 4)`` by enough
    to absorb the rounding of the computed norms, of ``E`` and of
    ``T + 2E``; ``5L // 2 + 1`` smallest subnormals cover underflow.
    """
    m = 2 * n_features + 6
    u = 2.0**-53
    return 4.0 * m * u / (1.0 - m * u) * norms + (5 * n_features // 2 + 1) * 2.0**-1074


class NaiveBayes(ClassifierModel):
    """Gaussian naive Bayes per encoded feature, variance floored for stability;
    its record keys the statistics by ``str(label)``, as the model file does."""

    kind = "naive_bayes"

    def _fit(self, X, y):
        if str(self.target_class) == str(self.other_class):
            raise ValueError(f"labels {self.target_class!r} and {self.other_class!r} share one name")
        stats = {}
        for label in (self.target_class, self.other_class):
            rows = X[y == label]
            stats[str(label)] = {
                "prior": len(rows) / len(X),
                "mean": rows.mean(axis=0),
                "var": np.maximum(rows.var(axis=0), _VAR_FLOOR),
            }
        return {"stats": stats}

    def _log_likelihood(self, label, X) -> np.ndarray:
        s = self._stats[label]
        var = s["var"]
        ll = -0.5 * np.sum(np.log(2.0 * np.pi * var) + (X - s["mean"]) ** 2 / var, axis=1)
        return ll + math.log(s["prior"])

    def predict_proba_rows(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        lt = self._log_likelihood(self.target_class, X)
        lo = self._log_likelihood(self.other_class, X)
        m = np.maximum(lt, lo)
        et, eo = _exp(lt - m), _exp(lo - m)
        return et / (et + eo)

    def _restore(self, params):
        # a file that lacks a class's statistics fails here, not at the first prediction
        self._stats = {}
        for label in (self.target_class, self.other_class):
            s = params["stats"][str(label)]
            self._stats[label] = {
                "prior": float(s["prior"]),
                "mean": np.asarray(s["mean"], dtype=float),
                "var": np.asarray(s["var"], dtype=float),
            }


class _FlatTrees:
    """Nested-dict trees compiled to flat node arrays, evaluated by matrix.

    Node ``i`` owns slots ``2*i`` and ``2*i + 1`` of ``feature``,
    ``threshold``, ``children`` and ``value``; ``roots`` and a walk hold a
    node as its slot ``2*i``. The node sends a row to the node at slot
    ``children[2*i]`` when ``row[feature[2*i]] <= threshold[2*i]`` and to
    the one at ``children[2*i + 1]`` otherwise, NaN included, so a step is
    one gather at ``2*i + goes_right``. A leaf holds its probability in
    ``value``, has threshold +inf and points to itself on both sides, so
    ``depth`` steps (the deepest leaf's depth) take every row of every tree
    to its leaf. Each step gathers the rows' cells from the flattened matrix
    at per-row offsets. The result is the mean over trees.
    """

    def __init__(self, trees: Sequence[dict]):
        self.depth = 0
        feature, threshold, children, value = [], [], [], []

        def add(node, depth) -> int:
            i = len(feature)
            feature.append(0)
            threshold.append(math.inf)
            children.extend((i, i))
            value.append(node.get("leaf", 0.0))
            if "leaf" in node:
                self.depth = max(self.depth, depth)
            else:
                feature[i] = node["feature"]
                threshold[i] = node["threshold"]
                children[2 * i] = add(node["left"], depth + 1)
                children[2 * i + 1] = add(node["right"], depth + 1)
            return i

        self.roots = 2 * np.array([add(tree, 0) for tree in trees], dtype=np.intp)
        self.feature = np.repeat(np.array(feature, dtype=np.intp), 2)
        self.threshold = np.repeat(np.array(threshold, dtype=float), 2)
        self.children = 2 * np.array(children, dtype=np.intp)
        self.value = np.repeat(np.array(value, dtype=float), 2)

    def proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        cells = X.ravel()
        offsets = np.arange(len(X))[:, np.newaxis] * X.shape[1]
        slot = np.repeat(self.roots[np.newaxis], len(X), axis=0)
        for _ in range(self.depth):
            goes_right = ~(cells[offsets + self.feature[slot]] <= self.threshold[slot])
            slot = self.children[slot + goes_right]
        return self.value[slot].mean(axis=1)


def _grow(X, hits, candidates, max_depth: int, min_samples_split: int, depth: int = 0) -> dict:
    """Grow a nested-dict CART tree on Gini splits, left subtree first.

    ``hits`` is 1.0 for a target-class row and 0.0 otherwise.
    ``candidates(n_features)`` gives the ascending features one node may
    split on; ties go to the lowest ``(impurity, feature, threshold)``.
    Each node sorts its candidate columns once and reads both sides' hit
    counts from prefix sums, at the midpoints between distinct values only.
    """
    n = len(hits)
    proba = float(hits.mean())
    if depth >= max_depth or n < min_samples_split or proba in (0.0, 1.0):
        return {"leaf": proba, "n": n}
    features = candidates(X.shape[1])
    columns = X.T[features]
    # The prefix counts are read only between distinct values, where the
    # order among equal values does not show, so the sort need not be stable.
    order = np.argsort(columns, axis=1)
    values = np.take_along_axis(columns, order, axis=1)
    below = np.cumsum(hits[order], axis=1)  # below[f, i]: hits among the i + 1 smallest
    # Boundaries between distinct values, feature-major and ascending within a
    # feature, so the first argmin below is the lowest (impurity, feature, threshold).
    f, i = np.nonzero(values[:, 1:] != values[:, :-1])
    lo, hi = values[f, i], values[f, i + 1]
    thresholds = (lo + hi) / 2.0
    # nl counts the values <= threshold. A midpoint that rounds onto hi takes
    # every copy of hi, up to the feature's next boundary; a NaN one takes none.
    last = np.append(f[1:] != f[:-1], True)
    through_hi = np.where(last, n, np.append(i[1:], 0) + 1)
    nl = np.where(thresholds < hi, i + 1, np.where(thresholds == hi, through_hi, 0))
    keep = (nl > 0) & (nl < n)
    if not keep.any():
        return {"leaf": proba, "n": n}
    f, thresholds, nl = f[keep], thresholds[keep], nl[keep]
    nr = n - nl
    cl = below[f, nl - 1]
    pl, pr = cl / nl, (below[f, -1] - cl) / nr
    impurity = (nl * (2.0 * pl * (1.0 - pl)) + nr * (2.0 * pr * (1.0 - pr))) / n
    best = int(np.argmin(impurity))
    feat, threshold = features[f[best]], thresholds[best]
    left = X[:, feat] <= threshold
    return {
        "feature": int(feat),
        "threshold": float(threshold),
        "left": _grow(X[left], hits[left], candidates, max_depth, min_samples_split, depth + 1),
        "right": _grow(X[~left], hits[~left], candidates, max_depth, min_samples_split, depth + 1),
    }


def _random_features(rng: np.random.Generator, size: int, n_features: int) -> np.ndarray:
    """The forest's per-node rule: ``size`` random features, or all of them."""
    if size >= n_features:
        return np.arange(n_features)
    return np.sort(rng.choice(n_features, size=size, replace=False))


class _CartModel(ClassifierModel):
    """CART models: nested-dict trees persisted under ``_key`` (``tree``: one
    tree, ``trees``: a list), compiled once into ``_FlatTrees``."""

    _key: str

    def predict_proba_rows(self, X) -> np.ndarray:
        return self._flat.proba(X)

    def _restore(self, params):
        trees = params[self._key]
        self._flat = _FlatTrees(trees if self._key == "trees" else [trees])


class DecisionTree(_CartModel):
    """CART tree with Gini splits; leaf probability = target fraction."""

    kind = "decision_tree"
    _key = "tree"

    def __init__(self, max_depth: int = 8, min_samples_split: int = 2):
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split

    def _fit(self, X, y):
        hits = (y == self.target_class).astype(float)
        return {"tree": _grow(X, hits, np.arange, self.max_depth, self.min_samples_split)}

    def hyperparameters(self):
        return {"max_depth": self.max_depth, "min_samples_split": self.min_samples_split}


class RandomForest(_CartModel):
    """Bagged Gini trees with sqrt-feature splits; probability = mean of trees."""

    kind = "random_forest"
    _key = "trees"

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
            tree_rng = np.random.default_rng(rng.integers(0, 2**63))
            candidates = partial(_random_features, tree_rng, max_features)
            # Bootstrap sample may be single-class; the tree is then a constant leaf.
            trees.append(_grow(X[idx], hits[idx], candidates, self.max_depth, min_samples_split=2))
        return {"trees": trees}

    def hyperparameters(self):
        return {"n_trees": self.n_trees, "max_depth": self.max_depth, "seed": self.seed}


_MODEL_CLASSES = {cls.kind: cls for cls in (Knn, NaiveBayes, DecisionTree, RandomForest)}
MODEL_KINDS = tuple(_MODEL_CLASSES)


def make_model(kind: str, seed: int = 0) -> ClassifierModel:
    if kind not in _MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")
    cls = _MODEL_CLASSES[kind]
    return cls(seed=seed) if cls is RandomForest else cls()


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
        scores.append(prediction_f1(hits, truth, True))
    return float(np.mean(scores))


@dataclass(frozen=True)
class ThirdPartyJury:
    """Auxiliary classifiers with cross-validated weights, for fidelity checks."""

    members: tuple  # ((ClassifierModel, weight), ...)

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
    return ThirdPartyJury(members=tuple(members))


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
        "parameters": model._record,
    }
    Path(path).write_text(json.dumps(payload, default=np.ndarray.tolist) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> ClassifierModel:
    """Read a file from ``save_model``; ``ModelFileError`` for a bad version, kind or hyperparameter."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format_version") != 1:
        raise ModelFileError("unsupported model file version")
    kind = payload["kind"]
    if kind not in _MODEL_CLASSES:
        raise ModelFileError(f"unknown model kind {kind!r} in file")
    try:
        model = _MODEL_CLASSES[kind](**payload["hyperparameters"])
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"bad {kind} hyperparameters in file: {exc}") from None
    model.target_class = payload["target_class"]
    model.other_class = payload["other_class"]
    return model._install(payload["parameters"])
