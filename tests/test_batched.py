"""The batched model path: ``predict_proba_rows`` against per-row
reference formulas, the CART grower against the per-threshold scan it
replaced, the decision tree's batched cross-validation fits against
fits on each fold alone, the flat forest walk against the level-by-level
kernel it replaced, a preorder model file of earlier versions against the
fitted model it was written from, knn's filter and refine against the blocked 3-D-norm
kernel it replaced, ``generate`` against a sequential reference that draws for
one prototype at a time and validates one drawn combination at a time,
and the column-wise encoder against the per-cell one it replaced.
The generation reference keeps its own fill and fallback-score helpers,
independent of the engine's, and its own copy of the per-group scorer and
the per-prototype merge that the width-batched ones replaced."""

import copy
import json
import math
import re
import tempfile
import warnings
import zlib
from dataclasses import replace
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import feature_groups, make_encoded
from tcol import models
from tcol.engine import CandidateCE, GenerationConfig, generate
from tcol.models import MODEL_KINDS, ClassifierModel, DecisionTree, cross_val_f1, make_model, save_model
from tcol.scoring import cosine, count_diffs, euclidean, norm
from tcol.tabular import Dataset, Encoder, FeatureSchema, SchemaViolationError, fit_encoder


@st.composite
def training_and_probes(draw):
    """A small two-class training set and a probe matrix, on a coarse grid
    so that probes land on split thresholds, with some constant columns."""
    n_features = draw(st.integers(1, 6))
    n_rows = draw(st.integers(4, 30))
    n_probes = draw(st.integers(1, 40))
    constant = draw(st.lists(st.booleans(), min_size=n_features, max_size=n_features))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 4, size=(n_rows, n_features)) / 3.0
    probes = rng.integers(0, 7, size=(n_probes, n_features)) / 6.0
    for j in np.flatnonzero(constant):
        X[:, j] = probes[:, j] = 0.5
    y = np.where(rng.random(n_rows) < 0.5, "yes", "no")
    y[:2] = ["yes", "no"]
    return X, y, probes


def knn_labels(model) -> np.ndarray:
    """The training labels as the model's parameter record holds them."""
    return np.asarray(model._record["train_y"], dtype=object)


def knn_row(model, v) -> float:
    """The per-row knn vote the batched one must reproduce bit for bit."""
    d = np.linalg.norm(model._X - v, axis=1)
    k = min(model.k, len(d))
    nearest = np.argsort(d, kind="stable")[:k]  # distance ties -> lower row index
    return float(np.mean(knn_labels(model)[nearest] == model.target_class))


def naive_bayes_row(model, v) -> float:
    """The per-row naive Bayes posterior the batched one must reproduce bit for bit."""

    def log_likelihood(label) -> float:
        s = model._record["stats"][str(label)]
        var = s["var"]
        ll = -0.5 * np.sum(np.log(2.0 * np.pi * var) + (v - s["mean"]) ** 2 / var)
        return float(ll + math.log(s["prior"]))

    lt = log_likelihood(model.target_class)
    lo = log_likelihood(model.other_class)
    m = max(lt, lo)
    et, eo = math.exp(lt - m), math.exp(lo - m)
    return et / (et + eo)


def naive_bayes_max_exp(model, X) -> np.ndarray:
    """The batched naive Bayes posterior before it became a sigmoid:
    ``exp(lt - m) / (exp(lt - m) + exp(lo - m))`` with ``m = max(lt, lo)``,
    and where ``lt`` and ``lo`` are both -inf, the log priors in their place."""

    def log_likelihood(label) -> np.ndarray:
        s = model._record["stats"][str(label)]
        var = s["var"]
        ll = -0.5 * np.sum(np.log(2.0 * np.pi * var) + (X - s["mean"]) ** 2 / var, axis=1)
        return ll + math.log(s["prior"])

    lt = log_likelihood(model.target_class)
    lo = log_likelihood(model.other_class)
    vanish = (lt == -np.inf) & (lo == -np.inf)
    lt[vanish] = math.log(model._record["stats"][str(model.target_class)]["prior"])
    lo[vanish] = math.log(model._record["stats"][str(model.other_class)]["prior"])
    m = np.maximum(lt, lo)
    et = np.array([math.exp(v) for v in (lt - m).tolist()])
    eo = np.array([math.exp(v) for v in (lo - m).tolist()])
    return et / (et + eo)


def test_naive_bayes_sigmoid_gives_the_max_exp_bits_on_extreme_cells():
    """Cells whose likelihoods overflow, vanish or are NaN: every number keeps
    its bits, a row whose likelihoods both vanish gets the prior, and NaN
    stays NaN (its sign bit is not part of the rule)."""
    rng = np.random.default_rng(5)
    X = rng.integers(0, 4, size=(30, 3)) / 3.0
    y = np.where(rng.random(30) < 0.5, "yes", "no")
    y[:2] = ["yes", "no"]
    model = make_model("naive_bayes").fit(X, y, "yes")
    cells = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e154, 2.0**-1074, -0.0, 0.5, 1.0]
    probes = np.array([[a, b, c] for a in cells for b in cells for c in cells])
    with np.errstate(all="ignore"):
        expected = naive_bayes_max_exp(model, probes)
        got = model.predict_proba_rows(probes)
    nan = np.isnan(expected)
    assert nan.any() and (nan == np.isnan(got)).all()
    far = probes.tolist().index([math.inf, 0.5, 0.5])  # both classes' likelihoods vanish
    assert got[far] == pytest.approx(model._record["stats"]["yes"]["prior"])
    assert got[~nan].tobytes() == expected[~nan].tobytes()


# Trees have no per-row formula: a one-row matrix is their single-row call.
ROW_REFERENCE = {"knn": knn_row, "naive_bayes": naive_bayes_row}


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(max_examples=25, deadline=None)
@given(case=training_and_probes(), seed=st.integers(0, 5))
def test_rows_equal_single_row_calls_bit_for_bit(kind, case, seed):
    X, y, probes = case
    model = make_model(kind, seed=seed).fit(X, y, "yes")
    one_row = ROW_REFERENCE.get(kind, ClassifierModel.predict_proba)
    single = np.array([one_row(model, row) for row in probes])
    rows = model.predict_proba_rows(probes)
    assert rows.shape == (len(probes),)
    assert rows.tobytes() == single.tobytes()
    hits = model.predicts_target(probes)
    assert hits.tolist() == [model.predict(row) == "yes" for row in probes]


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(max_examples=15, deadline=None)
@given(case=training_and_probes(), seed=st.integers(0, 5), order=st.randoms(use_true_random=False))
def test_a_row_gets_the_same_bits_in_any_batch(kind, case, seed, order):
    """Permuted, or embedded among other rows in a batch that straddles a
    knn block boundary, every probe keeps the bits of the probes' own call."""
    X, y, probes = case
    model = make_model(kind, seed=seed).fit(X, y, "yes")
    alone = model.predict_proba_rows(probes)
    permutation = list(range(len(probes)))
    order.shuffle(permutation)
    assert model.predict_proba_rows(probes[permutation]).tobytes() == alone[permutation].tobytes()
    block_rows = models._KNN_BLOCK // len(X)
    filler = np.resize(np.concatenate([X, probes[::-1]]), (block_rows + len(probes), X.shape[1]))
    at = order.randrange(block_rows - len(probes) // 2, block_rows + 1)
    batch = np.concatenate([filler[:at], probes, filler[at:]])
    embedded = model.predict_proba_rows(batch)[at : at + len(probes)]
    assert embedded.tobytes() == alone.tobytes()


def test_knn_rows_spanning_several_distance_blocks_equal_the_per_row_vote():
    rng = np.random.default_rng(12)
    X = rng.integers(0, 4, size=(1000, 10)) / 3.0  # coarse grid: many distance ties
    y = np.where(rng.random(1000) < 0.5, "yes", "no")
    block_rows = models._KNN_BLOCK // len(X)  # a block holds (probe, training row) pairs
    probes = rng.integers(0, 7, size=(2 * block_rows + 5, 10)) / 6.0
    model = make_model("knn").fit(X, y, "yes")
    assert block_rows > 5  # two full blocks, then a ragged one of 5 probes
    single = np.array([knn_row(model, row) for row in probes])
    assert model.predict_proba_rows(probes).tobytes() == single.tobytes()


def knn_blocked_reference(model, X) -> np.ndarray:
    """The knn kernel the filter and refine replaced: blocks of at most
    2**15 (probe, training row, feature) cells, the whole 3-D difference's
    norm, and a stable argsort of every probe's distances."""
    X = np.asarray(X, dtype=float)
    k = min(model.k, len(model._X))
    step = max(1, 2**15 // model._X.size)
    out = np.empty(len(X))
    for start in range(0, len(X), step):
        d = np.linalg.norm(model._X - X[start : start + step, np.newaxis, :], axis=2)
        nearest = np.argsort(d, axis=1, kind="stable")[:, :k]  # distance ties -> lower row index
        out[start : start + step] = np.mean(knn_labels(model)[nearest] == model.target_class, axis=1)
    return out


# Magnitudes where the filter's rounding bound does the work: squares that
# overflow (1e155) or nearly do (1e154), squares that underflow to
# subnormals (1e-160), and subnormal cells whose squares vanish.
KNN_SCALES = (1.0, 1e154, 1e155, 1e-160, 2.0**-1060)


@st.composite
def knn_cases(draw):
    """Training rows and probes on a coarse grid (duplicate rows, equal
    distances), some columns constant and each column at one of
    ``KNN_SCALES``; k may reach or pass the row count, and a block may
    hold as little as one pair."""
    n_features = draw(st.integers(1, 12))
    n_rows = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 3, 7]))
    X = rng.integers(-levels, levels + 1, size=(n_rows, n_features)) / levels
    X = X[rng.integers(0, n_rows, size=n_rows)]  # duplicate rows
    probes = rng.integers(-levels, levels + 1, size=(draw(st.integers(0, 20)), n_features)) / levels
    for j in range(n_features):
        if draw(st.booleans()):
            X[:, j] = probes[:, j] = 0.5
    scales = np.array(draw(st.lists(st.sampled_from(KNN_SCALES), min_size=n_features, max_size=n_features)))
    y = np.where(rng.random(n_rows) < 0.5, "yes", "no")
    y[rng.choice(n_rows, size=2, replace=False)] = ["yes", "no"]  # a knn model holds both classes
    return X * scales, y, probes * scales, draw(st.integers(1, 35)), draw(st.integers(1, 64))


def _knn(X, y, k) -> models.Knn:
    """A knn model on the rows as a model file gives them, without fitting."""
    model = models.Knn(k=k)
    model.target_class, model.other_class = "yes", "no"
    return model._install({"train_x": X, "train_y": y})


# Four cells of 2**-539, whose squares and products are subnormal: row 0
# ties row 1 in distance, so it wins on its index, but every product rounds
# against it and its filter value lies 12 subnormals above row 1's. The
# bound E is 11 of them, so a filter without the factor 2 drops row 0.
_SUBNORMAL_TIE = (
    np.array([[-3.0] * 4, [-2.0] * 4]) * 2.0**-539,
    np.array(["yes", "no"]),
    np.array([[3.0] * 4]) * 2.0**-539,
    1,
    64,
)


@example(case=_SUBNORMAL_TIE)
@settings(max_examples=400, deadline=None)
@given(case=knn_cases())
def test_knn_filter_and_refine_matches_the_kernel_it_replaced_bit_for_bit(case):
    X, y, probes, k, block = case
    model = _knn(X, y, k)
    with np.errstate(all="ignore"), patch.object(models, "_KNN_BLOCK", block):
        rows = model.predict_proba_rows(probes)
        expected = knn_blocked_reference(model, probes)
    assert rows.shape == (len(probes),)
    assert rows.tobytes() == expected.tobytes()


def test_model_overriding_neither_method_raises():
    class Bare(ClassifierModel):
        def _fit(self, X, y):
            pass

    model = Bare()
    with pytest.raises(NotImplementedError):
        model.predict_proba([0.5, 0.5])
    with pytest.raises(NotImplementedError):
        model.predict_proba_rows(np.zeros((2, 2)))


def gini_reference(hits: np.ndarray) -> float:
    p = hits.mean()
    return 2.0 * p * (1.0 - p)


def best_split_reference(X, hits, candidates):
    """The per-threshold scan of one node: one fresh mask per midpoint of
    every candidate feature. Returns the lowest ``(impurity, feature,
    threshold)`` split as ``(feature, threshold, left mask)``, or None."""
    n = len(hits)
    best = None
    for feat in candidates:
        values = np.unique(X[:, feat])
        if len(values) < 2:
            continue
        for threshold in (values[:-1] + values[1:]) / 2.0:
            left = X[:, feat] <= threshold
            nl = int(left.sum())
            if nl == 0 or nl == n:
                continue
            impurity = (
                nl * gini_reference(hits[left]) + (n - nl) * gini_reference(hits[~left])
            ) / n
            key = (impurity, int(feat), float(threshold))
            if best is None or key < best[0]:
                best = (key, feat, threshold, left)
    return None if best is None else best[1:]


def grow_reference(X, hits, max_depth, min_samples_split, rng=None, size=None) -> dict:
    """The per-threshold CART scan that every tree of ``models._grow_trees``
    must reproduce byte for byte, grown one depth level at a time as nested
    dicts. With ``rng``, a level's open nodes, each split's left child
    before its right one, take successive rows of one ``rng.random((count,
    width))`` draw, and a node's candidates are the ``size`` features whose
    values in its row are the smallest."""
    root = {"rows": np.arange(len(hits))}
    level, depth = [root], 0
    while level:
        open_nodes = []
        for node in level:
            rows = node.pop("rows")
            proba = float(hits[rows].mean())
            node.update(leaf=proba, n=len(rows))
            if depth < max_depth and len(rows) >= min_samples_split and proba not in (0.0, 1.0):
                open_nodes.append((node, rows))
        draw = rng.random((len(open_nodes), X.shape[1])) if rng is not None and open_nodes else None
        level, depth = [], depth + 1
        for i, (node, rows) in enumerate(open_nodes):
            if draw is None:
                candidates = range(X.shape[1])
            else:
                candidates = np.flatnonzero(draw[i] <= np.sort(draw[i])[size - 1])
            best = best_split_reference(X[rows], hits[rows], candidates)
            if best is not None:
                feat, threshold, left = best
                node.clear()
                node.update(feature=int(feat), threshold=float(threshold),
                            left={"rows": rows[left]}, right={"rows": rows[~left]})
                level += [node["left"], node["right"]]
    return root


def preorder_arrays(tree: dict) -> dict:
    """A nested-dict tree as the preorder node arrays that earlier versions
    of ``_grow_trees`` wrote: a leaf holds its own index in ``left`` and
    ``right``, feature 0 and threshold +inf, and an inner node value 0.0."""
    arrays = {key: [] for key in models._TREE_ARRAYS}

    def add(node) -> int:
        i = len(arrays["feature"])
        for key, start in zip(models._TREE_ARRAYS, (0, math.inf, i, i, 0.0)):
            arrays[key].append(start)
        if "leaf" in node:
            arrays["value"][i] = node["leaf"]
        else:
            arrays["feature"][i], arrays["threshold"][i] = node["feature"], node["threshold"]
            arrays["left"][i] = add(node["left"])
            arrays["right"][i] = add(node["right"])
        return i

    add(tree)
    return arrays


def level_order_arrays(tree: dict) -> dict:
    """A nested-dict tree as the level-order node arrays of ``_grow_trees``:
    the root, then each depth level, each split's left child before its
    right one. A leaf holds its own index in ``left`` and ``right``, feature
    0 and threshold 0.0, and an inner node value 0.0."""
    arrays = {key: [] for key in models._TREE_ARRAYS}
    queue = [tree]
    for i, node in enumerate(queue):  # the queue grows as it is read
        if "leaf" in node:
            entries = (0, 0.0, i, i, node["leaf"])
        else:
            entries = (node["feature"], node["threshold"], len(queue), len(queue) + 1, 0.0)
            queue += [node["left"], node["right"]]
        for key, entry in zip(models._TREE_ARRAYS, entries):
            arrays[key].append(entry)
    return arrays


def as_lists(tree: dict) -> dict:
    """A grown tree's arrays as lists, once their dtypes are checked."""
    for key, dtype in zip(models._TREE_ARRAYS, (np.intp, float, np.intp, np.intp, float)):
        assert tree[key].dtype == dtype, key
    return {key: tree[key].tolist() for key in models._TREE_ARRAYS}


# (0.9999999999999999 + 1.0) / 2.0 rounds onto 1.0: that midpoint puts both
# values on the left, like the (1.0, 2.0) midpoint does.
ROUNDING_EDGE = np.array([0.5, 0.9999999999999999, 1.0, 2.0])


@st.composite
def growing_cases(draw):
    """Columns on a small grid (many ties), continuous, constant or of
    rounding-edge values; hits that may be single-class; and one to four
    samples of the rows, each all rows in order or drawn with repeats, as a
    bootstrap is (such a sample may be single-class too)."""
    n_features = draw(st.integers(1, 6))
    n_rows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.empty((n_rows, n_features))
    for j in range(n_features):
        kind = draw(st.sampled_from(["grid", "continuous", "constant", "edge"]))
        if kind == "grid":
            levels = draw(st.sampled_from([2, 3, 5, 11]))
            X[:, j] = rng.integers(0, levels, size=n_rows) / (levels - 1)
        elif kind == "continuous":
            X[:, j] = rng.random(n_rows)
        elif kind == "constant":
            X[:, j] = 0.25
        else:
            X[:, j] = ROUNDING_EDGE[rng.integers(0, len(ROUNDING_EDGE), size=n_rows)]
    hits = draw(st.sampled_from(["mixed", "zeros", "ones"]))
    if hits == "mixed":
        hits = (rng.random(n_rows) < 0.5).astype(float)
    else:
        hits = np.full(n_rows, float(hits == "ones"))
    samples = []
    for _ in range(draw(st.integers(1, 4))):
        bootstrap = draw(st.booleans())
        samples.append(rng.integers(0, n_rows, size=draw(st.integers(1, 40))) if bootstrap else np.arange(n_rows))
    return X, hits, samples


@settings(max_examples=300, deadline=None)
@given(
    case=growing_cases(),
    max_depth=st.integers(0, 8),
    min_samples_split=st.integers(2, 5),
    forest_rule=st.one_of(st.none(), st.tuples(st.integers(1, 7), st.integers(0, 2**32 - 1))),
    block=st.sampled_from([1, 37, models._GROW_BLOCK]),
)
def test_grow_matches_the_per_threshold_scan_byte_for_byte(
    case, max_depth, min_samples_split, forest_rule, block
):
    """Each tree of one ``_grow_trees`` call is the one the scan grows on its
    sample alone, whatever the block size (one entry: one node per block)."""
    X, hits, samples = case
    size, rngs, reference_rngs = X.shape[1], [None] * len(samples), [None] * len(samples)
    if forest_rule is not None:
        size, seed = forest_rule
        rngs = [np.random.default_rng([seed, t]) for t in range(len(samples))]
        reference_rngs = [np.random.default_rng([seed, t]) for t in range(len(samples))]
    with patch.object(models, "_GROW_BLOCK", block):
        trees = models._grow_trees(X, hits, samples, rngs, size, max_depth, min_samples_split)
    assert len(trees) == len(samples)
    for tree, sample, rng in zip(trees, samples, reference_rngs):
        # a size of at least the width draws nothing and takes every feature
        rng = rng if size < X.shape[1] else None
        expected = grow_reference(X[sample], hits[sample], max_depth, min_samples_split, rng, size)
        assert json.dumps(as_lists(tree)) == json.dumps(level_order_arrays(expected))
    if forest_rule is not None:
        # equal states: the same candidate draws, level for level
        for rng, reference_rng in zip(rngs, reference_rngs):
            assert rng.bit_generator.state == reference_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(case=growing_cases(), size=st.integers(0, 4), seed=st.integers(0, 2**32 - 1), max_depth=st.integers(0, 8))
def test_each_tree_of_a_call_with_draws_is_the_tree_its_sample_grows_alone(case, size, seed, max_depth):
    """A tree's candidate draws come from its own generator only, so the
    other trees of a call change neither the tree nor the generator's state."""
    X, hits, samples = case
    assume(X.shape[1] >= 2 and len(samples) >= 2)
    size = 1 + size % (X.shape[1] - 1)  # below the width: every open node draws
    together = [np.random.default_rng([seed, t]) for t in range(len(samples))]
    trees = models._grow_trees(X, hits, samples, together, size, max_depth, 2)
    for t, sample in enumerate(samples):
        alone = np.random.default_rng([seed, t])
        [tree] = models._grow_trees(X, hits, [sample], [alone], size, max_depth, 2)
        assert json.dumps(as_lists(trees[t])) == json.dumps(as_lists(tree))
        assert together[t].bit_generator.state == alone.bit_generator.state


@pytest.mark.parametrize("max_depth", [0, 1, 3, 8])
def test_a_forest_fit_takes_one_split_search_per_depth_level(max_depth, synthetic_encoded):
    """Every tree readies all of its open nodes at each step, so with a
    level's nodes in one block a fit of ``max_depth`` makes at most that many
    searches, each over the nodes of many trees."""
    best_splits, nodes = models._best_splits, []

    def spy(columns, rows, owner, sizes, counts, features):
        nodes.append(len(sizes))
        return best_splits(columns, rows, owner, sizes, counts, features)

    with patch.object(models, "_GROW_BLOCK", 2**40), patch.object(models, "_best_splits", spy):
        model = models.RandomForest(max_depth=max_depth).fit(
            synthetic_encoded.X, synthetic_encoded.y, synthetic_encoded.target_class
        )
    assert len(nodes) <= max_depth == model._flat.depth  # the trees grow as deep as they may
    assert all(n > model.n_trees for n in nodes[1:])


def test_grow_records_a_midpoint_that_rounds_onto_the_upper_value():
    X = ROUNDING_EDGE[:, np.newaxis]
    hits = np.array([0.0, 0.0, 0.0, 1.0])
    [tree] = models._grow_trees(X, hits, [np.arange(4)], [None], 1, max_depth=8, min_samples_split=2)
    assert as_lists(tree) == {
        "feature": [0, 0, 0],
        "threshold": [1.0, 0.0, 0.0],
        "left": [1, 1, 2],
        "right": [2, 1, 2],
        "value": [0.0, 0.0, 1.0],
    }
    assert json.dumps(as_lists(tree)) == json.dumps(level_order_arrays(grow_reference(X, hits, 8, 2)))


@pytest.mark.parametrize("size", [48, 7])
def test_grow_matches_the_scan_with_the_key_fields_at_their_widest(size):
    """600 distinct values (a 10-bit value code) in 48 columns, one of them
    a 3-level grid, fill the key fields far past the hypothesis cases; with
    every feature or a seeded draw of 7, each block size grows the scan's tree."""
    rng = np.random.default_rng(5)
    X = rng.random((600, 48))
    X[:, 1] = rng.integers(0, 3, size=600) / 2.0
    hits = (X[:, 0] + 0.4 * rng.random(600) > 0.7).astype(float)
    assert models._Columns(X, hits).shift == 10
    seed = 11 if size < X.shape[1] else None
    expected = json.dumps(level_order_arrays(grow_reference(
        X, hits, 2, 2, None if seed is None else np.random.default_rng(seed), size)))
    for block in (1, 37, models._GROW_BLOCK):
        with patch.object(models, "_GROW_BLOCK", block):
            [tree] = models._grow_trees(X, hits, [np.arange(600)], [np.random.default_rng(seed)], size, 2, 2)
        assert json.dumps(as_lists(tree)) == expected


def test_grower_rejects_values_whose_midpoint_overflows():
    """The midpoint of -1e308 and -1.5e308 rounds to -inf, which sends no row
    left; the grower refuses such a column rather than disagree with its counts."""
    X = np.array([[-1e308], [-1.5e308], [0.0], [1.0]])
    with pytest.raises(ValueError, match="no finite midpoint"):
        models.DecisionTree().fit(X, ["yes", "no", "yes", "no"], "yes")
    # -inf itself and a huge positive pair are fine: their midpoints keep the counts
    X = np.array([[-np.inf], [-1e308], [0.0], [1e308], [1.5e308], [np.inf]])
    models.DecisionTree().fit(X, ["yes", "no", "yes", "no", "yes", "no"], "yes")


@st.composite
def cross_validation_cases(draw):
    """Grid columns with many repeated values, labels that may leave a fold
    single-class, and a fold count and seed."""
    n_features = draw(st.integers(1, 4))
    n_rows = draw(st.integers(4, 36))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.choice([2, 3, 5], size=n_features)
    X = rng.integers(0, levels, size=(n_rows, n_features)) / (levels - 1)
    y = np.where(rng.random(n_rows) < draw(st.sampled_from([0.1, 0.5])), "yes", "no")
    folds = draw(st.integers(2, min(6, n_rows)))
    return make_encoded(X, y), folds, draw(st.integers(0, 3))


@settings(max_examples=120, deadline=None)
@given(
    case=cross_validation_cases(),
    max_depth=st.integers(0, 6),
    min_samples_split=st.integers(2, 4),
)
def test_batched_fold_and_final_trees_save_as_fits_on_each_sample_alone(case, max_depth, min_samples_split):
    """``cross_val_f1`` grows every fold's tree and the final tree in one
    pass. Each saves byte for byte as ``DecisionTree().fit`` on its rows
    alone saves, the weight is bit-equal to the per-fold fits' mean F1, and
    a fold that fails ``fit``'s label checks raises ``fit``'s error."""
    data, folds, seed = case
    tests = models.kfold_indices(len(data), folds, seed=seed)
    samples = [np.setdiff1d(np.arange(len(data)), test) for test in tests] + [np.arange(len(data))]
    make = partial(DecisionTree, max_depth=max_depth, min_samples_split=min_samples_split)
    alone, scores = [], []
    try:
        for rows in samples:
            alone.append(make().fit(data.X[rows], data.y[rows], "yes"))
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            cross_val_f1(make, data, folds, seed=seed)
        return
    for model, test in zip(alone, tests):
        scores.append(models.prediction_f1(model.predicts_target(data.X[test]), data.y[test] == "yes"))
    model = make()
    batched = [copy.copy(model)._install(params) for params in model._fit_samples(data.X, data.y, "yes", samples)]
    weight, final = cross_val_f1(make, data, folds, seed=seed)
    assert weight.hex() == float(np.mean(scores)).hex()
    with tempfile.TemporaryDirectory() as tmp:
        for fitted, reference in zip([*batched, final], [*alone, alone[-1]]):
            save_model(fitted, f"{tmp}/batched.json")
            save_model(reference, f"{tmp}/alone.json")
            with open(f"{tmp}/batched.json", "rb") as a, open(f"{tmp}/alone.json", "rb") as b:
                assert a.read() == b.read()


def level_walk(trees, X) -> np.ndarray:
    """The kernel ``_FlatTrees.proba`` must reproduce byte for byte: the
    trees' own left/right arrays joined, a 2-D fancy index of ``X`` and
    ``np.where`` per level, for as many levels as the deepest leaf lies deep."""
    offsets = np.cumsum([0] + [len(tree["feature"]) for tree in trees])
    feature, threshold, value = (
        np.concatenate([np.asarray(tree[key]) for tree in trees]) for key in ("feature", "threshold", "value")
    )
    left, right = (
        np.concatenate([np.asarray(tree[key]) + offset for tree, offset in zip(trees, offsets)])
        for key in ("left", "right")
    )

    def depth(i) -> int:
        return 0 if left[i] == i else 1 + max(depth(left[i]), depth(right[i]))

    X = np.asarray(X, dtype=float)
    node = np.broadcast_to(offsets[:-1], (len(X), len(trees)))
    rows = np.arange(len(X))[:, np.newaxis]
    for _ in range(max(depth(root) for root in offsets[:-1])):
        goes_left = X[rows, feature[node]] <= threshold[node]
        node = np.where(goes_left, left[node], right[node])
    return value[node].mean(axis=1)


def tree_thresholds(tree) -> list:
    inner = np.asarray(tree["left"]) != np.arange(len(tree["left"]))
    return np.asarray(tree["threshold"])[inner].tolist()


SPECIAL_CELLS = [math.nan, math.inf, -math.inf, -0.0, 0.0]


@st.composite
def trees_and_cells(draw):
    """A fitted decision tree or forest, a one-leaf tree or a tree of the
    per-threshold scan, and a matrix of 0, 1 or many rows whose cells are
    split thresholds, grid values, NaN, +-inf and -0.0, laid out in C order,
    in Fortran order or as a column slice."""
    kind = draw(st.sampled_from(["decision_tree", "random_forest", "leaf", "scan"]))
    n_features = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(4, 30))
    X = rng.integers(0, 4, size=(n_rows, n_features)) / 3.0
    y = np.where(rng.random(n_rows) < 0.5, "yes", "no")
    y[:2] = ["yes", "no"]
    if kind == "leaf":
        trees = [preorder_arrays({"leaf": float(rng.integers(0, 5)) / 4.0, "n": 3})]
    elif kind == "scan":
        trees = [preorder_arrays(grow_reference(X, (y == "yes").astype(float), 8, 2))]
    else:
        model = make_model(kind, seed=draw(st.integers(0, 5))).fit(X, y, "yes")
        trees = model._record["trees"]
    pool = np.array(
        [t for tree in trees for t in tree_thresholds(tree)]
        + SPECIAL_CELLS
        + (np.arange(4) / 3.0).tolist()
    )
    n_probes = draw(st.sampled_from([0, 1, draw(st.integers(2, 80))]))
    wide = pool[rng.integers(0, len(pool), size=(n_probes, 2 * n_features))]
    layout = draw(st.sampled_from(["C", "F", "slice"]))
    if layout == "slice":
        return trees, wide[:, ::2]
    cells = wide[:, :n_features]
    return trees, np.asfortranarray(cells) if layout == "F" else np.ascontiguousarray(cells)


@settings(max_examples=200, deadline=None)
@given(case=trees_and_cells())
def test_flat_walk_matches_the_level_by_level_kernel_byte_for_byte(case):
    trees, X = case
    proba = models._FlatTrees(trees, "trees").proba(X)
    assert proba.shape == (len(X),)
    assert proba.tobytes() == level_walk(trees, X).tobytes()


def nested(tree: dict, i: int = 0) -> dict:
    """Node ``i`` of a tree's node arrays, with the nodes under it, as a nested-dict tree."""
    if tree["left"][i] == i:
        return {"leaf": tree["value"][i]}
    return {
        "feature": tree["feature"][i],
        "threshold": tree["threshold"][i],
        "left": nested(tree, tree["left"][i]),
        "right": nested(tree, tree["right"][i]),
    }


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
def test_a_preorder_file_with_infinite_leaves_predicts_as_the_fitted_model(kind, synthetic_encoded, tmp_path):
    """Earlier versions wrote each tree in preorder, with every leaf's
    threshold +inf (``Infinity`` in the file). Such a file still loads and
    predicts the fitted model's bits."""
    data = synthetic_encoded
    model = make_model(kind).fit(data.X, data.y, data.target_class)
    save_model(model, tmp_path / "model.json")
    payload = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
    trees = payload["parameters"]["trees"]
    payload["parameters"]["trees"] = [preorder_arrays(nested(tree)) for tree in trees]
    assert any(old["left"] != new["left"] for old, new in zip(trees, payload["parameters"]["trees"]))
    (tmp_path / "old.json").write_text(json.dumps(payload), encoding="utf-8")
    assert "Infinity" in (tmp_path / "old.json").read_text(encoding="utf-8")
    loaded = models.load_model(tmp_path / "old.json")
    assert loaded.predict_proba_rows(data.X).tobytes() == model.predict_proba_rows(data.X).tobytes()


def _fill(prototype: np.ndarray, query: np.ndarray, path) -> np.ndarray:
    bits = np.asarray(path)
    return np.where(bits == 1, query, prototype)


def _immutable_only_path(immutable_mask: np.ndarray):
    return tuple(1 if imm else 0 for imm in immutable_mask)


def _total_score(prototype, query, groups, rule, path) -> float:
    total = 0.0
    for g in groups:
        candidate = _fill(prototype[g], query[g], [path[i] for i in g])
        try:
            total += rule.score(candidate, prototype[g], query[g])
        except ValueError:  # zero-norm slice: contributes the worst score
            total += float("-inf")
    return total


def reference_ranked_masks(proto_slice, query_slice, immutable, rule):
    """One group's admissible masks for one prototype, as ``(scores,
    masks)`` ranked by descending score, then more query-side bits, then
    ascending binary order. No rule can score a zero-norm vector, so a
    zero-norm prototype slice gives no masks and a mask whose fill has zero
    norm is dropped."""
    k = len(immutable)
    local = np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1) & 1
    masks = local[np.all(local >= immutable, axis=1)]
    fills = _fill(proto_slice, query_slice, masks)
    keep = (norm(fills) != 0.0) & (norm(proto_slice) != 0.0)
    if not keep.any():
        return np.zeros(0), masks[:0]
    masks, scores = masks[keep], rule.score(fills[keep], proto_slice, query_slice)
    order = np.lexsort((-masks.sum(axis=1), -scores))
    return scores[order], masks[order]


def reference_merge(ranked, budget):
    """Yield one prototype's ``budget`` best paths and their totals, best
    first, one group at a time; nothing when a group has no mask."""
    totals, paths = np.zeros(1), np.zeros((1, 0), dtype=int)
    for scores, masks in ranked:
        if len(scores) == 0:
            return
        scores, masks = scores[:budget], masks[:budget]
        totals = (totals[:, None] + scores).ravel()
        keep = np.argsort(-totals, kind="stable")[:budget]
        prefix, rank = np.divmod(keep, len(scores))
        totals, paths = totals[keep], np.hstack((paths[prefix], masks[rank]))
    for path, total in zip(paths.tolist(), totals.tolist()):
        yield tuple(path), total


def sequential_generate(data, query, config, model):
    """Reference: scalar prototype ranking, then one ``next`` and one
    ``predict`` per drawn combination until one validates."""
    query = np.asarray(query, dtype=float)
    center = data.X[data.target_mask()].mean(axis=0)
    immutable = data.immutable_mask()

    def rank_key(idx):
        row = data.X[idx]
        if config.preference == "a":
            return float(count_diffs(row, query))
        if config.preference == "b":
            return euclidean(row, query)
        if config.preference == "c":
            return -model.predict_proba(row)
        if config.preference == "d":
            if np.linalg.norm(row) == 0.0 or np.linalg.norm(query) == 0.0:
                return 2.0
            return -cosine(row, query)
        return euclidean(row, center)

    def conflicts(idx):
        return bool(np.any(data.X[idx][immutable] != query[immutable]))

    candidates = np.flatnonzero(data.target_mask()).tolist()
    prototypes = sorted(candidates, key=lambda i: (conflicts(i), rank_key(i), i))[: config.num_ces]
    groups = feature_groups(data.n_features, config.depth)
    rule = config.score_rule()
    results = []
    for proto_idx in prototypes:
        prototype = data.X[proto_idx]
        chosen = None
        ranked = [reference_ranked_masks(prototype[g], query[g], immutable[g], rule) for g in groups]
        drawn = reference_merge(ranked, config.budget)
        for _ in range(config.budget):
            try:
                path, total = next(drawn)
            except StopIteration:
                break
            vector = _fill(prototype, query, path)
            if model.predict(vector) == data.target_class:
                chosen = CandidateCE(vector, path, proto_idx, total, validated=True)
                break
        if chosen is None:
            path = _immutable_only_path(immutable)
            vector = _fill(prototype, query, path)
            total = _total_score(prototype, query, groups, rule, path)
            validated = model.predict(vector) == data.target_class
            chosen = CandidateCE(vector, path, proto_idx, total, validated=validated, fallback=True)
        results.append(chosen)
    deduped, seen = [], set()
    for ce in results:
        if ce.vector.tobytes() not in seen:
            seen.add(ce.vector.tobytes())
            deduped.append(ce)
    return deduped


def assert_same_ces(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.vector.tobytes() == e.vector.tobytes()
        assert (a.path, a.prototype_index, a.validated, a.fallback) == (
            e.path, e.prototype_index, e.validated, e.fallback,
        )
        assert np.float64(a.score).tobytes() == np.float64(e.score).tobytes()


@pytest.mark.parametrize("budget", [1, 3, 64])
@pytest.mark.parametrize("preference", ["a", "b", "c", "d", "e"])
def test_generate_matches_sequential_reference_on_credit(
    preference, budget, synthetic_encoded, validation_model
):
    config = GenerationConfig(preference=preference, depth=3, budget=budget)
    denied = np.flatnonzero(~synthetic_encoded.target_mask())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for qi in denied[::7]:
            query = synthetic_encoded.X[qi]
            assert_same_ces(
                generate(synthetic_encoded, query, config, validation_model),
                sequential_generate(synthetic_encoded, query, config, validation_model),
            )


@pytest.mark.parametrize("preference", ["a", "c", "e"])
def test_generate_matches_sequential_reference_with_immutables(preference):
    rng = np.random.default_rng(5)
    X = rng.random((60, 8)) * 0.8 + 0.1
    y = np.where(X[:, 0] + X[:, 3] > 1.0, "yes", "no")
    data = make_encoded(X, y, immutable=(1, 6))
    model = make_model("random_forest", seed=2).fit(data.X, data.y, "yes")
    for depth, budget in ((3, 8), (4, 64)):
        config = GenerationConfig(preference=preference, depth=depth, budget=budget)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for qi in np.flatnonzero(y == "no")[:6]:
                assert_same_ces(
                    generate(data, X[qi], config, model),
                    sequential_generate(data, X[qi], config, model),
                )


@st.composite
def grid_generation_cases(draw):
    """Grid data on {0, 0.5, 1} where some target rows, but not all, have a
    zero slice in one feature group, some target rows are copies of others,
    and the query may have a zero group, so that some prototype slices and
    some fills have zero norm and equal prototypes are deduplicated. Most
    feature counts leave a shorter remainder group, so that two group
    widths share a query."""
    depth = draw(st.integers(3, 9))
    n_features = draw(st.integers(depth + 1, 2 * depth + 2))
    num_ces = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_target = draw(st.integers(max(num_ces, 2), 12))
    n_rows = n_target + draw(st.integers(2, 12))
    X = rng.integers(0, 3, size=(n_rows, n_features)) / 2.0
    y = np.array(["yes"] * n_target + ["no"] * (n_rows - n_target), dtype=object)
    groups = feature_groups(n_features, depth)
    zeroed = rng.random(n_target) < 0.4
    zeroed[rng.integers(0, n_target)] = False
    for i in np.flatnonzero(zeroed):
        X[i, groups[rng.integers(0, len(groups))]] = 0.0
    copies = draw(st.integers(0, n_target // 2))
    X[rng.choice(n_target, copies, replace=False)] = X[rng.integers(0, n_target)]
    query = rng.integers(0, 3, size=n_features) / 2.0
    if draw(st.booleans()):
        query[groups[rng.integers(0, len(groups))]] = 0.0
    immutable = np.flatnonzero(rng.random(n_features) < draw(st.sampled_from([0.0, 0.2, 0.5])))
    config = GenerationConfig(
        preference=draw(st.sampled_from(["a", "b", "c", "d", "e"])),
        depth=depth,
        num_ces=num_ces,
        budget=draw(st.sampled_from([1, 2, 7, 64])),
    )
    forest = models.RandomForest(n_trees=5, max_depth=4, seed=draw(st.integers(0, 3)))
    return make_encoded(X, y, immutable=tuple(immutable)), query, config, forest


@settings(max_examples=80, deadline=None)
@given(case=grid_generation_cases())
def test_batched_pass_matches_the_sequential_reference_on_grid_data(case):
    data, query, config, forest = case
    model = forest.fit(data.X, data.y, "yes")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_same_ces(
            generate(data, query, config, model),
            sequential_generate(data, query, config, model),
        )


@settings(max_examples=40, deadline=None)
@given(case=grid_generation_cases(), seed=st.integers(0, 2**32 - 1), n_queries=st.integers(2, 4))
def test_two_forests_alternating_on_one_data_set_rank_c_from_their_own_fit(case, seed, n_queries):
    """Preference ``c`` ranks from target-row probabilities that each model
    keeps between calls; the reference ranks from per-row calls, so a
    probability that one forest kept for another, or kept from a query
    before, shows as a different CE set."""
    data, query, config, forest = case
    config = replace(config, preference="c")
    forests = forest.fit(data.X, data.y, "yes"), models.RandomForest(
        n_trees=5, max_depth=4, seed=forest.seed + 4
    ).fit(data.X, data.y, "yes")
    rng = np.random.default_rng(seed)
    queries = [query, *(rng.integers(0, 3, size=(n_queries - 1, data.n_features)) / 2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for q in queries:
            for model in forests:
                assert_same_ces(
                    generate(data, q, config, model),
                    sequential_generate(data, q, config, model),
                )


class ByteHashModel(ClassifierModel):
    """Accepts a row when the CRC-32 of its bytes is divisible by ``m``: the
    first accepted draw falls anywhere in the draw order, and a -0.0 and a
    0.0 fill, equal as numbers, may get different answers."""

    kind = "byte_hash"

    def __init__(self, m):
        super().__init__()
        self.target_class, self.other_class = "yes", "no"
        self.fitted = True
        self.m = m

    def _fit(self, X, y):
        pass

    def predict_proba_rows(self, X):
        X = np.asarray(X, dtype=float)
        return np.array([float(zlib.crc32(row.tobytes()) % self.m == 0) for row in X])


@st.composite
def shared_component_cases(draw):
    """Grid data on {0, 0.5, 1}, so that a prototype and the query often
    hold the same component and many draws fill the same vector, with -0.0
    in place of some of the query's zeros, which a prototype's 0.0 does not
    copy."""
    depth = draw(st.integers(3, 5))
    n_features = draw(st.integers(depth, 3 * depth + 1))
    num_ces = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_target = draw(st.integers(num_ces, 10))
    n_rows = n_target + draw(st.integers(2, 8))
    X = rng.integers(0, 3, size=(n_rows, n_features)) / 2.0
    y = np.array(["yes"] * n_target + ["no"] * (n_rows - n_target), dtype=object)
    query = rng.integers(0, 3, size=n_features) / 2.0
    query[(query == 0.0) & (rng.random(n_features) < draw(st.sampled_from([0.0, 0.5, 1.0])))] = -0.0
    immutable = np.flatnonzero(rng.random(n_features) < draw(st.sampled_from([0.0, 0.2])))
    config = GenerationConfig(
        preference=draw(st.sampled_from(["a", "b", "c", "d", "e"])),
        depth=depth,
        num_ces=num_ces,
        budget=draw(st.sampled_from([1, 7, 64])),
    )
    if draw(st.booleans()):
        model = models.RandomForest(n_trees=5, max_depth=4, seed=draw(st.integers(0, 3)))
    else:
        model = ByteHashModel(draw(st.integers(2, 6)))
    return make_encoded(X, y, immutable=tuple(immutable)), query, config, model


@settings(max_examples=120, deadline=None)
@given(case=shared_component_cases())
def test_skipping_copies_matches_the_sequential_reference(case):
    data, query, config, model = case
    if not model.fitted:
        model.fit(data.X, data.y, "yes")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_same_ces(
            generate(data, query, config, model),
            sequential_generate(data, query, config, model),
        )


def _scale_one(value, lo, hi):
    return 0.5 if hi == lo else (value - lo) / (hi - lo)


def encode_per_cell(encoder, row):
    """The per-cell encode the column-wise one must reproduce byte for byte."""
    if len(row) != len(encoder.schema):
        raise ValueError(f"row has {len(row)} values, schema has {len(encoder.schema)}")
    out = np.empty(len(row), dtype=float)
    for i, (value, feat) in enumerate(zip(row, encoder.schema)):
        lo, hi = encoder.mins[i], encoder.maxs[i]
        if feat.kind == "categorical":
            rates = encoder.category_rates[i]
            if value not in rates:
                raise SchemaViolationError(f"unseen category {value!r} for feature {feat.name!r}")
            out[i] = _scale_one(rates[value], lo, hi)
        else:
            try:
                number = float(value)
            except (TypeError, ValueError):
                number = math.nan
            if not math.isfinite(number):
                raise SchemaViolationError(
                    f"value {value!r} of numeric feature {feat.name!r} is not a finite number"
                )
            out[i] = min(max(_scale_one(number, lo, hi), 0.0), 1.0)
    return out


def fit_per_cell(data):
    """The per-cell fit: per-feature rate dicts, mins and maxs, then the
    reverse maps, refusing two categories that share a target rate."""
    hits = np.array([1.0 if t == data.target_class else 0.0 for t in data.target])
    rates, mins, maxs = [], [], []
    for i, feat in enumerate(data.schema):
        column = [row[i] for row in data.rows]
        if feat.kind == "categorical":
            per_category = {}
            for value, hit in zip(column, hits):
                per_category.setdefault(value, []).append(hit)
            rate_map = {v: float(np.mean(h)) for v, h in per_category.items()}
            rates.append(rate_map)
            encoded = [rate_map[v] for v in column]
        else:
            rates.append(None)
            encoded = [float(v) for v in column]
            for value in encoded:
                if not math.isfinite(value):
                    raise SchemaViolationError(
                        f"value {value!r} of numeric feature {feat.name!r} is not a finite number"
                    )
        mins.append(float(min(encoded)))
        maxs.append(float(max(encoded)))
    reverse = [None if r is None else {} for r in rates]
    for feat, rate_map, back, lo, hi in zip(data.schema, rates, reverse, mins, maxs):
        for category, rate in (rate_map or {}).items():
            key = _scale_one(rate, lo, hi)
            if key in back:
                raise SchemaViolationError(
                    f"categories {back[key]!r} and {category!r} of feature {feat.name!r} "
                    "have the same target rate and could not be told apart when decoding"
                )
            back[key] = category
    return Encoder(data.schema, tuple(rates), tuple(mins), tuple(maxs), tuple(reverse))


def outcome(fn, *args):
    """What ``fn`` returns, or the class and message of what it raises."""
    try:
        return fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


# numeric cells: signed zeros, ints, bools, floats, values far outside [lo, hi]
NUMERIC_CELLS = [0.0, -0.0, 0, 1, True, False, 0.5, 2.25, -3, 7.0, 1e6, -1e6, 0.1]
CATEGORIES = ["a", "b", "c", "d", 7]


@st.composite
def encoder_cases(draw):
    """A Dataset built in code with mixed features, plus probe rows."""
    n_features = draw(st.integers(1, 5))
    n_rows = draw(st.integers(1, 25))
    schema, columns, probe_cells = [], [], []
    for j in range(n_features):
        if draw(st.booleans()):  # one to four levels, each seen in the rows
            levels = draw(st.lists(st.sampled_from(CATEGORIES), min_size=1, max_size=4, unique=True))
            schema.append(FeatureSchema(f"f{j}", "categorical", domain=tuple(levels) + ("unseen",)))
            columns.append(draw(st.lists(st.sampled_from(levels), min_size=n_rows, max_size=n_rows)))
            probe_cells.append(st.sampled_from(list(dict.fromkeys(columns[-1]))))
        else:  # a pool of one value makes a constant column
            pool = draw(st.lists(st.sampled_from(NUMERIC_CELLS), min_size=1, max_size=5))
            schema.append(FeatureSchema(f"f{j}", "numeric", domain=(-1e9, 1e9)))
            columns.append(draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows)))
            probe_cells.append(st.sampled_from(NUMERIC_CELLS))
    target = draw(st.lists(st.sampled_from(["yes", "no"]), min_size=n_rows, max_size=n_rows))
    assume("yes" in target and "no" in target)
    data = Dataset(tuple(schema), tuple(zip(*columns)), tuple(target), "loan", "yes")
    probes = draw(st.lists(st.tuples(*probe_cells), min_size=1, max_size=6))
    return data, probes


def rate_bits(category_rates):
    """Each rate dict as its (category, rate bits) items, in dict order."""
    return [None if r is None else [(k, v.hex()) for k, v in r.items()] for r in category_rates]


BAD_CELLS = [math.nan, math.inf, -math.inf, None, "abc", "unseen", "short", "long"]


@settings(max_examples=300, deadline=None)
@given(case=encoder_cases(), bad=st.sampled_from(BAD_CELLS), where=st.data())
def test_column_wise_encoder_matches_the_per_cell_one_byte_for_byte(case, bad, where):
    data, probes = case
    reference = outcome(fit_per_cell, data)
    encoder = outcome(fit_encoder, data)
    if not isinstance(reference, Encoder):  # two categories share a target rate
        assert encoder == reference
        return
    assert rate_bits(encoder.category_rates) == rate_bits(reference.category_rates)
    assert np.array(encoder.mins).tobytes() == np.array(reference.mins).tobytes()
    assert np.array(encoder.maxs).tobytes() == np.array(reference.maxs).tobytes()
    assert encoder.reverse_maps == reference.reverse_maps
    expected = np.array([encode_per_cell(encoder, row) for row in probes])
    assert encoder.encode_rows(probes).tobytes() == expected.tobytes()
    assert encoder.encode_rows(iter(probes)).tobytes() == expected.tobytes()
    for row, want in zip(probes, expected):
        assert encoder.encode(row).tobytes() == want.tobytes()

    # one bad cell, or one row of the wrong length, among good rows
    row = list(where.draw(st.sampled_from(probes)))
    if bad == "short":
        row = row[:-1]
    elif bad == "long":
        row = row + [0.0]
    else:
        kind = "categorical" if bad == "unseen" else "numeric"
        slots = [j for j, f in enumerate(data.schema) if f.kind == kind]
        assume(slots)
        row[where.draw(st.sampled_from(slots))] = bad
    error = outcome(encode_per_cell, encoder, row)
    assert isinstance(error, tuple) and error[0] in (ValueError, SchemaViolationError)
    assert outcome(encoder.encode, row) == error
    assert outcome(encoder.encode_rows, [*probes, row, *probes]) == error


@settings(max_examples=100, deadline=None)
@given(case=encoder_cases(), bad=st.sampled_from([math.nan, math.inf, -math.inf]), where=st.data())
def test_fit_reports_a_non_finite_cell_as_the_per_cell_fit_does(case, bad, where):
    data, _ = case
    slots = [j for j, f in enumerate(data.schema) if f.kind == "numeric"]
    assume(slots)
    rows = [list(r) for r in data.rows]
    rows[where.draw(st.integers(0, len(rows) - 1))][where.draw(st.sampled_from(slots))] = bad
    broken = Dataset(data.schema, tuple(map(tuple, rows)), data.target, "loan", "yes")
    assert outcome(fit_encoder, broken) == outcome(fit_per_cell, broken)
