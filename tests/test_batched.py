"""The batched model path: ``predict_proba_rows`` against single-row calls,
and ``generate`` against a sequential reference that validates one drawn
combination at a time. The reference keeps its own fill and fallback-score
helpers, independent of the engine's."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import StubModel, make_encoded
from tcol.engine import (
    CandidateCE,
    GenerationConfig,
    generate,
    partition_features,
    ranked_path_combinations,
)
from tcol.models import MODEL_KINDS, ClassifierModel, make_model
from tcol.scoring import cosine, count_diffs, distance_fn


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


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(max_examples=25, deadline=None)
@given(case=training_and_probes(), seed=st.integers(0, 5))
def test_rows_equal_single_row_calls_bit_for_bit(kind, case, seed):
    X, y, probes = case
    model = make_model(kind, seed=seed).fit(X, y, "yes")
    single = np.array([model.predict_proba(row) for row in probes])
    rows = model.predict_proba_rows(probes)
    assert rows.shape == (len(probes),)
    assert rows.tobytes() == single.tobytes()
    hits = model.predicts_target(probes)
    assert hits.tolist() == [model.predict(row) == "yes" for row in probes]


def test_model_overriding_neither_method_raises():
    class Bare(ClassifierModel):
        def _fit(self, X, y):
            pass

    model = Bare()
    with pytest.raises(NotImplementedError, match="neither"):
        model.predict_proba([0.5, 0.5])
    with pytest.raises(NotImplementedError, match="neither"):
        model.predict_proba_rows(np.zeros((2, 2)))


def test_single_row_model_gets_rows_by_default():
    model = StubModel(yes_vectors=[[0.1, 0.2]])
    X = np.array([[0.1, 0.2], [0.3, 0.4], [0.1, 0.2]])
    assert model.predict_proba_rows(X).tolist() == [1.0, 0.0, 1.0]
    assert model.predicts_target(X).tolist() == [True, False, True]


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


def sequential_generate(data, query, config, model):
    """Reference: scalar prototype ranking, then one ``next`` and one
    ``predict`` per drawn combination until one validates."""
    query = np.asarray(query, dtype=float)
    dist = distance_fn(config.distance)
    center = data.X[data.target_mask()].mean(axis=0)
    immutable = data.immutable_mask()

    def rank_key(idx):
        row = data.X[idx]
        if config.preference == "a":
            return float(count_diffs(row, query))
        if config.preference == "b":
            return dist(row, query)
        if config.preference == "c":
            return -model.predict_proba(row)
        if config.preference == "d":
            if np.linalg.norm(row) == 0.0 or np.linalg.norm(query) == 0.0:
                return 2.0
            return -cosine(row, query)
        return dist(row, center)

    def conflicts(idx):
        return bool(np.any(data.X[idx][immutable] != query[immutable]))

    candidates = np.flatnonzero(data.target_mask()).tolist()
    prototypes = sorted(candidates, key=lambda i: (conflicts(i), rank_key(i), i))[: config.num_ces]
    groups = partition_features(data.n_features, config.depth)
    rule = config.score_rule()
    results = []
    for proto_idx in prototypes:
        prototype = data.X[proto_idx]
        chosen = None
        drawn = ranked_path_combinations(prototype, query, groups, rule, immutable, config.budget)
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
