"""Built-in classifiers, the validation model, and the third-party jury.

The classifiers are small from-scratch implementations over encoded
vectors. A model implements one method, ``predict_proba_rows(X)``: the
probability of the desired class for each row of a matrix. The base class
derives the rest from it: ``predict_proba(v)`` is the one-row matrix's
entry, and ``predicts_target(X)`` and ``predict(v)`` apply the one
decision rule, ``proba >= 0.5`` means the target class (ties resolve to
it), so ``predict(v) == target_class iff predict_proba(v) >= 0.5`` holds
by construction.

Each class states its hyperparameters once, in ``_HYPERPARAMETERS``: name ->
(default, least value), in ``save_model``'s key order. ``__init__`` takes
those names only, each an exact ``int`` (no bool) at or above its least value.

A tree is grown and saved as level-order node arrays, and loaded from any
order in which a node's children come after it. Fitting or loading checks
them as whole arrays and joins them into flat arrays that evaluate a matrix
level by level (the tensorized-tree layout of Hummingbird, Nakandala et
al., OSDI 2020). A decision tree is a forest of one tree. Models are
immutable after ``fit``, apart from a memo of one data set's target-row
probabilities, which ``fit`` and loading reset, and safe to share across
threads.

A prediction pays for its rows only: whatever does not depend on them is
computed once, by ``_restore``, after fitting or loading. That covers the
flat trees, naive Bayes' ``log(2 pi var)`` and log prior per class, and
knn's transposed training matrix with its squared row norms and their
maximum. ``_restore`` also checks the record, and ``check_width`` checks a
model against the width of the data it meets; both raise ``ModelFileError``.

Both CART models grow their trees with ``_grow_trees``, which advances
every tree of a fit in lockstep, one depth level per step. Each step takes
every open node through one batched split search (``_best_splits``): Gini
impurity at the midpoints between distinct values, ties to the lowest
``(impurity, feature, threshold)``, exactly as in a scan of every
threshold in turn. A forest node's candidate features are a fresh uniform
draw from its tree's generator (Breiman, Machine Learning, 2001), taken
for all of the tree's nodes of a level at once. The search takes the
nodes in blocks of at most ``_GROW_BLOCK`` (row, candidate) entries.

A fit takes samples of rows (``_fit_samples``): ``fit`` is the one sample
of all rows, and ``cross_val_f1`` passes the k folds' training rows, then
all rows. A decision tree grows every sample's tree in one ``_grow_trees``
call over the full matrix, so its k fold trees and the final jury tree
share one ``_Columns`` and one lockstep pass; a split depends only on its
node's rows, so each tree is the one a fit on its sample alone grows. The
other models fit sample by sample.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .scoring import sigmoid
from .tabular import EncodedDataset

_VAR_FLOOR = 1e-9
_KNN_BLOCK = 2**15  # most (probe, training row) pairs in one block of knn's filter
_GROW_BLOCK = 2**15  # most (row, candidate feature) entries in one batched split search
_KNN_SAFE = np.finfo(float).max / 4  # |q|^2 + max |t|^2 below it: no overflow in knn
_THRESHOLD = 0.5  # predict_proba >= _THRESHOLD means the target class
_TREE_ARRAYS = {"feature": np.intp, "threshold": float, "left": np.intp, "right": np.intp, "value": float}


def prediction_f1(hits, truth) -> float:
    """F1 of boolean predictions ``hits`` against boolean labels ``truth``: the
    harmonic mean of precision and recall, or 0 when no hit is a true label."""
    hits, truth = np.asarray(hits, dtype=bool), np.asarray(truth, dtype=bool)
    tp = int(np.count_nonzero(hits & truth))
    if not tp:
        return 0.0
    precision = tp / int(np.count_nonzero(hits))
    recall = tp / int(np.count_nonzero(truth))
    return 2.0 * precision * recall / (precision + recall)


class ModelFileError(ValueError):
    """A model file that ``load_model`` cannot turn into a model, or a model
    whose row width does not fit the data (``check_width``)."""


class ClassifierModel:
    """Base classifier: fit on encoded rows, predict the binary label."""

    kind = "abstract"
    _HYPERPARAMETERS: dict[str, tuple[int, int]] = {}  # name -> (default, least value)
    _width: int  # set by _restore: the features a row must have (for trees, at least)
    _target_proba = None  # (a data set's target rows, their read-only probabilities)

    def __init__(self, **hyperparameters):
        for name, (default, least) in self._HYPERPARAMETERS.items():
            value = hyperparameters.pop(name, default)
            if type(value) is not int or value < least:  # exact type, so that true is no integer
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            setattr(self, name, value)
        if hyperparameters:
            raise TypeError(f"{self.kind} got an unexpected keyword argument {min(hyperparameters)!r}")
        self.target_class = None
        self.other_class = None
        self.fitted = False

    def fit(self, X: np.ndarray, y: Sequence, target_class) -> "ClassifierModel":
        """Fit on every row of ``X``: the one-sample case of ``_fit_samples``."""
        [params] = self._fit_samples(X, y, target_class, [np.arange(len(X))])
        return self._install(params)

    def _fit_samples(self, X, y, target_class, samples) -> Iterable[dict]:
        """The parameter records of a fit on each sample's rows of ``X``, in order.

        Every sample's labels pass ``fit``'s checks, in sample order, before
        anything is fitted, and all samples together hold the same two
        classes, which this sets. ``_fit_records`` then fits them.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=object)
        labels = set()
        for rows in samples:
            seen = set(y[rows].tolist())
            labels |= seen
            if len(seen) < 2:
                raise ValueError("training data contains a single class")
            if len(labels) > 2:
                raise ValueError(f"expected binary labels, got {sorted(map(str, labels))}")
            if target_class not in seen:
                raise ValueError(f"target class {target_class!r} absent from training labels")
        self.target_class = target_class
        self.other_class = next(c for c in labels if c != target_class)
        return self._fit_records(X, y, samples)

    def _fit_records(self, X: np.ndarray, y: np.ndarray, samples) -> Iterable[dict]:
        """Fit each sample with ``_fit``, lazily, one at a time; a model that
        fits many samples at once overrides this."""
        return (self._fit(X[rows], y[rows]) for rows in samples)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> dict:
        """Fit on the rows, the sample's own copies; return the parameter
        record that ``save_model`` writes."""
        raise NotImplementedError

    def _restore(self, params: dict) -> None:
        """Build the prediction state from a parameter record, fitted or loaded."""
        raise NotImplementedError

    def _install(self, params: dict) -> "ClassifierModel":
        """The last step of ``fit`` and ``load_model``: restore, keep the record, mark fitted."""
        self._restore(params)
        self._record = params
        self._target_proba = None
        self.fitted = True
        return self

    def target_proba(self, data: EncodedDataset) -> np.ndarray:
        """``predict_proba_rows`` of ``data``'s target rows, read-only, computed
        once per fit and data set. The memo holds the rows array itself, so
        its identity, the key, cannot be reused while the memo holds it."""
        rows, memo = data.target_rows[1], self._target_proba
        if memo is None or memo[0] is not rows:
            proba = np.array(self.predict_proba_rows(rows))
            proba.flags.writeable = False
            memo = self._target_proba = (rows, proba)
        return memo[1]

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
        return {name: getattr(self, name) for name in self._HYPERPARAMETERS}

    def check_width(self, n_features: int) -> None:
        """``ModelFileError`` naming both widths unless the model reads rows of
        ``n_features`` features; predictions do not check it again."""
        if self._width != n_features:
            raise ModelFileError(
                f"{self.kind} model reads rows of {self._width} features, the data has {n_features}"
            )


class Knn(ClassifierModel):
    """k-nearest-neighbour vote; probability = target fraction among neighbours."""

    kind = "knn"
    _HYPERPARAMETERS = {"k": (5, 1)}

    def _fit(self, X, y):
        return {"train_x": X, "train_y": y}

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
        step = max(1, _KNN_BLOCK // len(self._X))
        out = np.empty(len(X))
        # The filter may overflow where the exact distances do not, and the
        # guard below catches that; past _KNN_SAFE an exact distance may be
        # inf, as in np.linalg.norm. So neither needs a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(X), step):
                Q = X[start : start + step]
                qq = np.einsum("ij,ij->i", Q, Q)
                # einsum, not BLAS: no threads, and its inner loop runs along
                # the contiguous rows of the transposed training matrix.
                a = np.einsum("ij,jk->ik", Q, self._XT)
                a *= -2.0
                a += self._sq
                a += qq[:, np.newaxis]
                norms = qq + self._widest
                limit = np.partition(a, k - 1, axis=1)[:, k - 1] + 2.0 * _knn_error_bound(
                    self._width, norms
                )
                # Below _KNN_SAFE every filter value and exact distance is finite;
                # a probe at or above it, or with a NaN, keeps every row.
                keep = a <= limit[:, np.newaxis]
                keep[~(norms < _KNN_SAFE)] = True
                probe, row = np.divmod(np.flatnonzero(keep), len(self._X))
                # np.linalg.norm(t - q, axis=1), by the very operations it runs
                d = self._X.take(row, axis=0)
                d -= Q.take(probe, axis=0)
                d *= d
                d = np.sqrt(np.add.reduce(d, axis=1))
                # lexsort is stable and np.flatnonzero lists a probe's rows in ascending
                # order, so equal distances keep the lower row index first.
                order = np.lexsort((d, probe))
                kept = np.bincount(probe, minlength=len(Q))
                first = np.cumsum(kept) - kept
                nearest = row.take(order.take(first[:, np.newaxis] + np.arange(k)))
                out[start : start + step] = np.add.reduce(self._hits.take(nearest), axis=1) / k
        return out

    def _restore(self, params):
        # the record keeps the array, not a loaded file's lists: one copy of the rows
        params["train_x"] = self._X = _number_array(params["train_x"], "knn train_x")
        labels = np.asarray(params["train_y"], dtype=object)
        if labels.ndim != 1:
            raise ModelFileError(f"knn train_y must be a list of labels, got {params['train_y']!r:.40}")
        if self._X.ndim != 2 or len(self._X) != len(labels) or not np.isfinite(self._X).all():
            raise ModelFileError(
                f"knn train_x must be a finite matrix with one row per train_y label, "
                f"got shape {self._X.shape} for {len(labels)} labels"
            )
        self._width = self._X.shape[1]
        self._XT = np.ascontiguousarray(self._X.T)
        self._sq = np.einsum("ij,ij->i", self._X, self._X)
        self._widest = self._sq.max()
        # one class missing would make every vote the same, silently
        self._hits, others = labels == self.target_class, labels == self.other_class
        if not (self._hits.any() and others.any() and (self._hits | others).all()):
            raise ModelFileError(
                f"knn train_y must hold exactly the classes {self.target_class!r} and "
                f"{self.other_class!r}, got {sorted({str(label) for label in labels.tolist()})}"
            )


def _number_array(values, field: str, dtype=float) -> np.ndarray:
    """A fitted record's array as it is, or a loaded file's (nested) lists as
    one of ``dtype``; ``ModelFileError`` naming ``field`` and the value for a
    cell that is no number by ``_is_number`` (``true``, text, a ragged row),
    or for an ``intp`` array, no exact ``int`` below 2**62 in size (``1.0``)."""
    if type(values) is np.ndarray:
        return values
    cells = np.array(values, dtype=object)
    exact = _is_number if dtype is float else lambda v: type(v) is int and v.bit_length() < 63
    ok = np.array(np.frompyfunc(exact, 1, 1)(cells), dtype=bool)
    if not ok.all():
        kind = "numbers" if dtype is float else "integers"
        raise ModelFileError(f"{field} is not an array of {kind}: {cells[~ok].flat[0]!r:.40}")
    return cells.astype(dtype)


def _object(value, field: str) -> dict:
    """``value`` if it is a JSON object, else ``ModelFileError`` naming ``field``."""
    if type(value) is not dict:
        raise ModelFileError(f"{field} must be an object, got {value!r:.40}")
    return value


def _is_number(value) -> bool:
    """An exact ``float``, or ``int`` below 2**1023 in size: ``true`` is no number."""
    return type(value) is float or type(value) is int and value.bit_length() < 1024


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
    its record keys the statistics by ``str(label)``, as the model file does.

    A class's log-likelihood of a row is ``log(prior) - 0.5 * sum(log(2 pi
    var) + (x - mean)^2 / var)``, and the posterior of the target class is
    the sigmoid of the target's log-likelihood minus the other's; where both
    are -inf, the difference is the log priors', so the posterior the prior.
    """

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

    def predict_proba_rows(self, X) -> np.ndarray:
        # one (row, class, feature) array: row i's classes are [target, other];
        # a term past the float range is inf, which gives its class likelihood 0
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.asarray(X, dtype=float)[:, np.newaxis, :] - self._mean
            d *= d
            d /= self._var
            d += self._log_norm
            ll = -0.5 * np.add.reduce(d, axis=2) + self._log_prior
            z = ll[:, 0] - ll[:, 1]  # NaN for a NaN cell, or where both are -inf
        if np.isnan(z).any():  # both likelihoods 0: the posterior is the prior
            z[np.isnan(z) & (ll[:, 0] == -np.inf)] = self._log_prior[0] - self._log_prior[1]
        return sigmoid(z)

    def _restore(self, params):
        # a file that lacks a class's statistics fails here, not at the first prediction
        stats = []  # (log prior, mean, var) of the target class, then the other
        for label in (self.target_class, self.other_class):
            field = f"naive_bayes stats[{str(label)!r}]"
            s = _object(_object(params["stats"], "naive_bayes stats")[str(label)], field)
            prior = _number_array(s["prior"], f"{field} prior")
            mean = _number_array(s["mean"], f"{field} mean")
            var = _number_array(s["var"], f"{field} var")
            if prior.ndim or not 0.0 < prior <= 1.0:
                raise ModelFileError(f"{field} prior must be a number in (0, 1], got {s['prior']!r}")
            if mean.ndim != 1 or mean.shape != var.shape:
                raise ModelFileError(f"{field} mean and var must be lists of one length")
            if not (np.isfinite(mean).all() and np.isfinite(var).all() and (var > 0.0).all()):
                raise ModelFileError(f"{field} needs a finite mean and a finite var above 0")
            stats.append((math.log(prior), mean, var))
        if stats[0][1].shape != stats[1][1].shape:
            raise ModelFileError("naive_bayes stats must give both classes one number of features")
        self._log_prior, self._mean, self._var = map(np.array, zip(*stats))
        self._width = self._mean.shape[1]
        with np.errstate(over="ignore"):
            self._log_norm = np.log(2.0 * np.pi * self._var)
        wide = np.isinf(self._log_norm)  # a var past the float range over 2 pi
        self._log_norm[wide] = math.log(2.0 * np.pi) + np.log(self._var[wide])


class _FlatTrees:
    """Trees of node arrays (``_TREE_ARRAYS``, laid out and checked as README's
    Model file says, in any order that puts a node's children after it),
    joined and evaluated by matrix; a failed check is a ``ModelFileError``
    naming ``field[t]``, the node and the value.

    Joined, node ``i`` owns slots ``2*i`` (its right child in ``children``)
    and ``2*i + 1`` (its left child); ``roots`` and a walk hold a node as
    slot ``2*i``. A walk keeps one entry per (row, tree) and takes ``depth``
    (the deepest leaf's) steps of

        cell = feature[slot]; cell += offsets  # the entry's row start in cells
        slot += cells[cell] <= threshold[slot]; slot = children[slot]

    and sums the leaves' values over the number of trees, as ``np.mean``
    does. A leaf's two child slots both hold the leaf, so its threshold picks
    no node. ``width`` is one more than the highest feature, or 0 for leaves.
    """

    def __init__(self, trees: Sequence[dict], field: str):
        parts = []
        for t, tree in enumerate(trees):
            tree = _object(tree, name := f"{field}[{t}]")
            arrays = [_number_array(tree[key], f"{name} {key}", dtype) for key, dtype in _TREE_ARRAYS.items()]
            if arrays[0].ndim != 1 or not len(arrays[0]) or any(a.shape != arrays[0].shape for a in arrays):
                raise ModelFileError(f"{name} needs {', '.join(_TREE_ARRAYS)} lists of one length, at least 1")
            parts.append(arrays)
        feature, threshold, left, right, value = map(np.concatenate, zip(*parts))
        sizes = np.array([len(arrays[0]) for arrays in parts])
        ends = np.cumsum(sizes)
        start, end, node = (ends - sizes).repeat(sizes), ends.repeat(sizes), np.arange(len(feature))
        left, right = left + start, right + start  # node numbers across all trees

        def check(bad, problem):
            if bad.any():
                k = int(np.argmax(bad))
                raise ModelFileError(f"{field}[{ends.searchsorted(k, 'right')}] node {k - start[k]}: {problem(k)}")

        check(feature < 0, lambda k: f"feature {feature[k]} is no column index")  # it would read another row
        check(np.isnan(threshold), lambda k: "threshold must be a number other than NaN, got nan")
        check(~((value >= 0.0) & (value <= 1.0)), lambda k: f"value must lie in [0, 1], got {value[k].item()!r}")
        leaf = (left == node) & (right == node)
        i, n, l, r = node - start, end - start, left - start, right - start  # numbers within each tree
        check(~(leaf | (np.minimum(left, right) > node) & (np.maximum(left, right) < end)), lambda k: (
            f"left and right must both be {i[k]} (a leaf) or lie in ({i[k]}, {n[k]}), got {l[k]} and {r[k]}"))
        inner = np.flatnonzero(~leaf)
        parents = np.bincount(np.concatenate((left[inner], right[inner])), minlength=len(node))
        check(parents != (node != start), lambda k: f"is the child of {parents[k]} nodes")
        # Depths by pointer jumping: up[i] is a root or an ancestor depth[i] levels above i.
        up = node.copy()
        up[left[inner]] = up[right[inner]] = inner
        depth = (up != node).astype(np.intp)
        while not ((upper := up[up]) == up).all():
            depth += depth[up]
            up = upper
        self.depth = int(depth.max())
        self.width = int(feature.max()) + 1 if self.depth else 0
        self.roots = 2 * (ends - sizes)
        self.feature, self.threshold, self.value = (np.repeat(a, 2) for a in (feature, threshold, value))
        self.children = 2 * np.stack((right, left), axis=1).ravel()

    def proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        cells = X.ravel()
        n, n_trees = len(X), len(self.roots)
        # Entry r * n_trees + t follows row r down tree t. Flat index arrays
        # gather faster than 2-D ones for the few rows of most calls.
        offsets = (np.arange(n) * X.shape[1]).repeat(n_trees)
        slot = self.roots[np.newaxis].repeat(n, axis=0).ravel()
        feature, threshold, children = self.feature, self.threshold, self.children
        for _ in range(self.depth):
            cell = feature[slot]
            cell += offsets
            slot += cells[cell] <= threshold[slot]
            slot = children[slot]
        return np.add.reduce(self.value[slot].reshape(n, n_trees), axis=1) / n_trees


class _Columns:
    """The training matrix as ``_best_splits`` reads it: its flat ``cells``, and
    per cell ``(value code << 1) | hit``, where a value code is the cell's rank
    among its column's distinct ``values`` (column ``j``'s from ``value_base[j]``)
    and fits in ``shift`` bits."""

    def __init__(self, X, hits):
        X = np.asarray(X, dtype=float)
        order = np.argsort(X, axis=0)
        ranked = np.take_along_axis(X, order, axis=0)
        distinct = np.ones(X.shape, dtype=bool)
        distinct[1:] = ranked[1:] != ranked[:-1]
        codes = np.empty(X.shape, dtype=np.intp)
        np.put_along_axis(codes, order, np.cumsum(distinct, axis=0) - 1, axis=0)
        lengths = distinct.sum(axis=0)
        self.values = ranked.T[distinct.T]
        self.value_base = np.cumsum(lengths) - lengths
        self.shift = int(lengths.max(initial=0)).bit_length()
        self.hit = np.asarray(hits, dtype=np.intp)
        self.cells = X.ravel()
        self.keys = ((codes << 1) | self.hit[:, np.newaxis]).ravel()
        # A column's lowest midpoint is that of its two lowest values above -inf.
        # If it overflows to -inf, a split's counts disagree with its partition.
        # The check reads every row of X, not only the samples' rows. Encoded
        # data lies in [0, 1] and never fails it; a cross-validation's last
        # sample is all rows, which would fail it on its own anyway.
        low = self.value_base + (self.values[self.value_base] == -np.inf)
        low = low[low + 1 < self.value_base + lengths]
        with np.errstate(over="ignore"):
            if np.any(self.values[low] + self.values[low + 1] == -np.inf):
                raise ValueError("two feature values have no finite midpoint")


def _grow_trees(
    X, hits, samples, rngs, max_features: int, max_depth: int, min_samples_split: int
) -> list[dict]:
    """Grow a CART tree on Gini splits for each sample, all in lockstep as the
    module docstring says, and return each as its level-order node arrays.

    ``samples[t]`` lists tree ``t``'s rows of ``X`` (at least one, repeats
    allowed); ``hits`` is 1 for a target-class row, else 0. A node is a leaf
    when it is ``max_depth`` deep, has fewer than ``min_samples_split`` rows,
    is pure, or has no split. Each step readies every open node, one depth
    level. With ``max_features`` below the feature count, tree ``t``'s ready
    nodes take successive rows of one ``rngs[t].random((count, n_features))``
    draw, and a node's candidates are the indices of its row's
    ``max_features`` smallest values, ascending. An open node is a row of
    ``nodes`` (id, tree, hits, rows, start of its rows in ``pool``), tree by
    tree in order of making, each split's left child before its right.
    """
    n_features = X.shape[1]
    draws = max_features < n_features
    columns = _Columns(X, hits)
    pool = np.concatenate([np.asarray(rows, dtype=np.intp) for rows in samples])
    tree, size = np.arange(len(samples)), np.array([len(rows) for rows in samples])
    start = np.cumsum(size) - size
    nodes = np.stack((tree, tree, np.add.reduceat(columns.hit[pool], start), size, start), axis=1)
    made = [nodes[:, 1:4]]  # tree, hits and rows of each node, by id
    splits = [(np.zeros(0, dtype=np.intp),) * 5]  # id, feature, threshold, left id, right id
    next_id = len(samples)

    for _ in range(max_depth):  # one depth level per step
        c, n = nodes[:, 2], nodes[:, 3]
        ready = (n >= min_samples_split) & (c > 0) & (c < n)
        nodes, c, n = nodes[ready], c[ready], n[ready]
        if not len(nodes):
            break
        if draws:
            count = np.bincount(nodes[:, 1], minlength=len(samples))
            draw = np.concatenate([rngs[t].random((count[t], n_features)) for t in np.flatnonzero(count)])
            features = np.sort(np.argsort(draw, axis=1, kind="stable")[:, :max_features], axis=1)
        else:
            features = np.broadcast_to(np.arange(n_features), (len(nodes), n_features))
        # the rows of the nodes, node by node, each row's node and each node's end
        ends = np.cumsum(n)
        owner = np.repeat(np.arange(len(nodes)), n)
        rows = pool[np.arange(len(owner)) + (nodes[:, 4] - ends + n)[owner]]
        room = _GROW_BLOCK // features.shape[1]  # rows per block
        found, first = [], 0
        while first < len(nodes):
            stop = max(first + 1, int(np.searchsorted(ends, ends[first] - n[first] + room, "right")))
            lo, hi = ends[first] - n[first], ends[stop - 1]
            k, *rest = _best_splits(
                columns, rows[lo:hi], owner[lo:hi] - first, n[first:stop], c[first:stop], features[first:stop]
            )
            found.append((k + first, *rest))
            first = stop
        k, feature, threshold, nl, cl = map(np.concatenate, zip(*found))
        # The other nodes are leaves; owner becomes a split's index in k.
        split_of = np.full(len(nodes), -1)
        split_of[k] = np.arange(len(k))
        keep = split_of[owner] >= 0
        rows, owner = rows[keep], split_of[owner[keep]]
        goes_left = columns.cells[rows * n_features + feature[owner]] <= threshold[owner]
        pool = rows[np.argsort(2 * owner - goes_left, kind="stable")]
        # Each split's left child, then its right one, their rows in that
        # order too; each starts as a copy of its parent.
        kids = nodes[k].repeat(2, axis=0)
        kids[:, 0] = np.arange(next_id, next_id + len(kids))
        kids[0::2, 2], kids[0::2, 3] = cl, nl
        kids[1::2, 2:4] -= kids[0::2, 2:4]
        kids[:, 4] = np.cumsum(kids[:, 3]) - kids[:, 3]
        next_id += len(kids)
        made.append(kids[:, 1:4])
        splits.append((nodes[k, 0], feature, threshold, kids[0::2, 0], kids[1::2, 0]))
        nodes = kids
    tree, c, n = np.concatenate(made).T
    split, feature, threshold, left, right = map(np.concatenate, zip(*splits))
    # Ids run level by level, and tree by tree within a level: sorted by
    # tree, stably, each tree's nodes come in level order.
    order = np.argsort(tree, kind="stable")
    size = np.bincount(tree, minlength=len(samples))
    ends = np.cumsum(size)
    index = np.empty_like(order)  # each node's number within its tree
    index[order] = np.arange(len(order)) - (ends - size).repeat(size)
    # a leaf: feature 0, threshold 0.0 and its own index as both children
    out = dict(zip(_TREE_ARRAYS, (np.zeros_like(tree), np.zeros(len(tree)), index.copy(), index.copy(), c / n)))
    for key, at_split in zip(_TREE_ARRAYS, (feature, threshold, index[left], index[right], 0.0)):
        out[key][split] = at_split
    return [{key: a[order[s:e]] for key, a in out.items()} for s, e in zip(ends - size, ends)]


def _best_splits(columns: _Columns, rows, owner, sizes, counts, features):
    """The best split of each node of a block, found in one batched search.

    Node ``k`` owns the entries of ``rows`` where ``owner == k``: ``sizes[k]``
    rows, ``counts[k]`` of them hits, and candidate ``features[k]`` (ascending).
    Returns ``(node, feature, threshold, nl, cl)`` for each node that has a
    split, ``nl`` rows and ``cl`` hits going left, in node order.

    One sort of ``(slot, value code, hit)`` keys, a slot being a (node,
    candidate) pair, gives each slot's distinct values in ascending order with
    the rows and hits up to each. Between two successive values ``lo < hi`` the
    threshold is ``(lo + hi) / 2``: it sends the rows up to ``lo`` left, up to
    ``hi`` if it rounds onto ``hi``, and none if it is NaN (such a split is
    skipped, as is one that sends every row one way). The Gini impurity follows
    from the counts, and a segmented argmin takes each node's first lowest one,
    in (feature, threshold) order.
    """
    width = features.shape[1]
    shift = columns.shift
    key = columns.keys[(rows * len(columns.value_base))[:, np.newaxis] + features[owner]]
    key += ((owner * width) << (shift + 1))[:, np.newaxis]
    key += np.arange(width) << (shift + 1)
    key = np.sort(key, axis=None)
    # The last entry of each (slot, value code): the entries and hits up to it,
    # over all slots, include its value's rows and hits.
    bins = key >> 1
    last = np.concatenate((bins[1:] != bins[:-1], [True]))
    through, hits_through, bins = np.flatnonzero(last) + 1, np.cumsum(key & 1)[last], bins[last]
    slot, code = bins >> shift, bins & ((1 << shift) - 1)

    def before(per_node):
        # Per slot k * width + j, the entries (or hits) of the slots before it:
        # every slot of the nodes before k, and j slots of node k.
        nodes_before = (np.cumsum(per_node) - per_node)[:, np.newaxis] * width
        return (nodes_before + np.arange(width) * per_node[:, np.newaxis]).ravel()

    through -= before(sizes)[slot]
    hits_through -= before(counts)[slot]
    value = columns.values[columns.value_base[features].ravel()[slot] + code]
    # Successive distinct values pair up. A pair is no split if it spans two
    # slots, its midpoint lies above hi (overflow) or is NaN, or every row goes
    # left; it may then overflow or divide by zero, and its impurity is inf.
    lo, hi, slot, slot_after = value[:-1], value[1:], slot[:-1], slot[1:]
    node = slot // width
    n = sizes[node]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        threshold = (lo + hi) / 2.0
        left_of_hi = threshold < hi
        nl = np.where(left_of_hi, through[:-1], through[1:])
        cl = np.where(left_of_hi, hits_through[:-1], hits_through[1:])
        nr = n - nl
        pl, pr = cl / nl, (counts[node] - cl) / nr
        impurity = (nl * (2.0 * pl * (1.0 - pl)) + nr * (2.0 * pr * (1.0 - pr))) / n
    impurity[~((slot == slot_after) & (threshold <= hi) & (nl < n))] = np.inf
    # Pairs run node by node; take each node's first lowest one.
    first = node != np.concatenate(([-1], node[:-1]))
    starts = np.flatnonzero(first)
    lowest = np.minimum.reduceat(impurity, starts)
    at_lowest = impurity == lowest[np.cumsum(first) - 1]
    best = np.minimum.reduceat(np.where(at_lowest, np.arange(len(node)), len(node)), starts)
    best = best[lowest < np.inf]
    return node[best], features.ravel()[slot[best]], threshold[best], nl[best], cl[best]


class _CartModel(ClassifierModel):
    """CART models: a list of trees of node arrays, ``trees`` in the record,
    joined once into ``_FlatTrees``; a decision tree's list holds one."""

    def predict_proba_rows(self, X) -> np.ndarray:
        return self._flat.proba(X)

    def _restore(self, params):
        trees = params["trees"]
        if type(trees) is not list or not trees:
            raise ModelFileError(f"{self.kind} trees must hold at least one tree")
        self._flat = _FlatTrees(trees, f"{self.kind} trees")
        self._width = self._flat.width

    def check_width(self, n_features: int) -> None:
        """A tree reads only the features it splits on, so any data at least
        as wide as the highest of them fits."""
        if self._width > n_features:
            raise ModelFileError(
                f"{self.kind} splits on feature {self._width - 1}, so it reads rows of at least "
                f"{self._width} features; the data has {n_features}"
            )


class DecisionTree(_CartModel):
    """CART tree with Gini splits; leaf probability = target fraction."""

    kind = "decision_tree"
    _HYPERPARAMETERS = {"max_depth": (8, 0), "min_samples_split": (2, 2)}

    def _fit_records(self, X, y, samples):
        # every sample's tree in one lockstep pass over the rows of X
        trees = _grow_trees(
            X, y == self.target_class, samples, [None] * len(samples), X.shape[1],
            self.max_depth, self.min_samples_split,
        )
        return [{"trees": [tree]} for tree in trees]


class RandomForest(_CartModel):
    """Bagged Gini trees with sqrt-feature splits; probability = mean of trees."""

    kind = "random_forest"
    _HYPERPARAMETERS = {"n_trees": (25, 1), "max_depth": (8, 0), "seed": (0, 0)}

    def _fit(self, X, y):
        rng = np.random.default_rng(self.seed)
        n, n_features = X.shape
        max_features = max(1, int(round(math.sqrt(n_features))))
        samples, rngs = [], []
        for _ in range(self.n_trees):
            samples.append(rng.integers(0, n, size=n))
            rngs.append(np.random.default_rng(rng.integers(0, 2**63)))
        # A bootstrap sample may be single-class; its tree is then a constant leaf.
        hits = y == self.target_class
        return {"trees": _grow_trees(X, hits, samples, rngs, max_features, self.max_depth, 2)}


_MODEL_CLASSES = {cls.kind: cls for cls in (Knn, NaiveBayes, DecisionTree, RandomForest)}
MODEL_KINDS = tuple(_MODEL_CLASSES)
VALIDATION_MODEL = RandomForest.kind  # the deployed model that validates counterfactuals


def _check_seed(seed) -> None:
    if type(seed) is not int or seed < 0:  # exact type, so that true is no integer
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def make_model(kind: str, seed: int = 0) -> ClassifierModel:
    """An unfitted model of ``kind``; ``seed`` goes to every kind whose table has one."""
    if kind not in _MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")
    _check_seed(seed)
    cls = _MODEL_CLASSES[kind]
    return cls(seed=seed) if "seed" in cls._HYPERPARAMETERS else cls()


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
    _check_seed(seed)
    order = np.random.default_rng(seed).permutation(n)
    return [order[f::folds] for f in range(folds)]


def cross_val_f1(make, data: EncodedDataset, folds: int, seed: int = 0) -> tuple[float, ClassifierModel]:
    """The mean held-out F1 (positive = target class) of ``make()`` over k
    folds, and ``make()`` fitted on all rows.

    The k training sets, then all rows, are the samples of one
    ``_fit_samples`` call: every fold's labels are checked before any fit,
    and a decision tree grows the k + 1 trees in one ``_grow_trees`` pass.
    """
    tests = kfold_indices(len(data), folds, seed=seed)
    samples = [np.delete(np.arange(len(data)), test) for test in tests] + [np.arange(len(data))]
    model = make()
    records = iter(model._fit_samples(data.X, data.y, data.target_class, samples))
    truth = data.y == data.target_class
    scores = []
    for test in tests:
        on_fold = copy.copy(model)._install(next(records))
        scores.append(prediction_f1(on_fold.predicts_target(data.X[test]), truth[test]))
    return float(np.mean(scores)), model._install(next(records))


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
    """Each jury member fitted on all rows, weighted by its mean held-out F1,
    both from one ``cross_val_f1`` call."""
    if len(kinds) < 2:
        raise ValueError("a jury needs at least two member kinds")
    fits = [cross_val_f1(partial(make_model, kind, seed=seed), data, folds, seed=seed) for kind in kinds]
    return ThirdPartyJury(members=tuple((model, weight) for weight, model in fits))


def save_model(model: ClassifierModel, path: str | Path) -> None:
    """Persist a fitted model as versioned, strict JSON; NaN or infinity raises ``ValueError``."""
    if not model.fitted:
        raise ValueError("cannot save an unfitted model")
    payload = {
        "format_version": 2,
        "kind": model.kind,
        "target_class": model.target_class,
        "other_class": model.other_class,
        "hyperparameters": model.hyperparameters(),
        "parameters": model._record,
    }
    Path(path).write_text(json.dumps(payload, default=np.ndarray.tolist, allow_nan=False) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> ClassifierModel:
    """Read a file from ``save_model``; ``ModelFileError`` for a bad version, kind or hyperparameter."""
    with open(path, encoding="utf-8") as fh:
        payload = _object(json.load(fh), "a model file")
    version = payload.get("format_version", "missing")
    if type(version) is not int or version != 2:  # exact type, so that true and 2.0 are refused
        raise ModelFileError(f"model file version {version!r:.40} is not 2: run tcol train again")
    kind = payload["kind"]
    if type(kind) is not str or kind not in _MODEL_CLASSES:
        raise ModelFileError(f"unknown model kind {kind!r} in file")
    try:
        model = _MODEL_CLASSES[kind](**payload["hyperparameters"])
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"bad {kind} hyperparameters in file: {exc}") from None
    for key in ("target_class", "other_class"):
        if type(payload[key]) not in (str, int, float):
            raise ModelFileError(f"{key} must be a string or a number, got {payload[key]!r:.40}")
        setattr(model, key, payload[key])
    return model._install(_object(payload["parameters"], "parameters"))
