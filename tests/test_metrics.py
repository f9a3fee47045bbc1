import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import StubModel, make_encoded
from tcol.metrics import (
    METRICS,
    N_NEIGHBORS,
    CoincidentNeighborError,
    MetricsRow,
    centrality,
    data_fidelity,
    member_agreement,
    proximity,
    sparsity,
    summarize,
    validity,
)
from tcol.models import ThirdPartyJury, make_model
from tcol.scoring import count_diffs, euclidean

ADULT_WEIGHTS = (0.73, 0.75, 0.74, 0.69, 0.74)
GERMAN_WEIGHTS = (0.66, 0.67, 0.69, 0.65, 0.70)


def jury_with(weights, members):
    return ThirdPartyJury(members=tuple(zip(members, weights)))


class TestProximity:
    def test_identical_ce_has_zero_distance(self):
        q = np.array([0.2, 0.4])
        assert proximity([q.copy()], q) == 0.0

    def test_mean_of_distances(self):
        q = np.array([0.0, 0.0])
        ces = [np.array([0.2, 0.0]), np.array([0.4, 0.0])]
        assert proximity(ces, q) == pytest.approx(0.3)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(31)
        q = rng.random(6)
        ces = [rng.random(6) for _ in range(5)]
        expected = sum(math.dist(ce, q) for ce in ces) / 5
        assert abs(proximity(ces, q) - expected) < 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            proximity([], np.array([0.0]))


class TestSparsity:
    def test_identical_ce(self):
        q = np.array([0.1, 0.2, 0.3])
        assert sparsity([q.copy()], q) == 0.0

    def test_mean_of_diff_counts(self):
        q = np.array([0.0, 0.0, 0.0])
        ces = [np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0])]
        assert sparsity(ces, q) == 2.0

    def test_matches_independent_recount(self):
        rng = np.random.default_rng(32)
        q = rng.random(8)
        ces = []
        for _ in range(6):
            ce = q.copy()
            flip = rng.random(8) < 0.5
            ce[flip] = rng.random(int(flip.sum()))
            ces.append(ce)
        expected = sum(
            sum(1 for a, b in zip(ce, q) if a != b) for ce in ces
        ) / len(ces)
        assert sparsity(ces, q) == expected


class TestValidity:
    def test_all_accepted(self):
        ces = [np.array([0.1]), np.array([0.2])]
        model = StubModel(yes_vectors=ces)
        assert validity(ces, model, "yes") == 1.0

    def test_half_accepted(self):
        ces = [np.array([0.1]), np.array([0.2])]
        model = StubModel(yes_vectors=[ces[0]])
        assert validity(ces, model, "yes") == 0.5

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            validity([], StubModel(), "yes")

    def test_counts_hits_for_the_class_asked_for(self):
        ces = [np.array([0.1]), np.array([0.2]), np.array([0.3]), np.array([0.4])]
        model = StubModel(yes_vectors=ces[:1])
        assert validity(ces, model, "no") == 0.75  # the model's other class
        assert validity(ces, model, "maybe") == 0.0  # neither of its classes


class TestDataFidelity:
    def test_unanimous_jury_scores_one(self):
        ces = [np.array([0.1, 0.2]), np.array([0.3, 0.4])]
        jury = jury_with((0.5, 0.9), [StubModel(always=True), StubModel(always=True)])
        assert data_fidelity(ces, jury, "yes") == 1.0

    def test_constant_half_agreement_reduces_to_half(self):
        # f1(precision=1, recall=1/3) == 0.5 exactly, so one agreeing
        # counterfactual out of three makes every juror's p_i = 0.5
        ces = [np.array([float(i)]) for i in range(3)]
        members = [StubModel(yes_vectors=[ces[0]]) for _ in ADULT_WEIGHTS]
        assert member_agreement(members[0], ces, "yes") == pytest.approx(0.5)
        jury = jury_with(ADULT_WEIGHTS, members)
        assert data_fidelity(ces, jury, "yes") == pytest.approx(0.5)

    def test_german_weights_with_alternating_agreement(self):
        ces = [np.array([0.5, 0.5])]
        members = [StubModel(always=(i % 2 == 0)) for i in range(5)]
        jury = jury_with(GERMAN_WEIGHTS, members)
        # independent weighted mean: (0.66 + 0.69 + 0.70) / 3.37
        assert data_fidelity(ces, jury, "yes") == pytest.approx(0.6083086053412462, abs=1e-12)
        assert data_fidelity(ces, jury, "yes") == pytest.approx(0.60831, abs=1e-5)

    def test_invariant_under_uniform_weight_scaling(self):
        rng = np.random.default_rng(33)
        ces = [np.array([float(i), float(i)]) for i in range(4)]
        members = [StubModel(yes_vectors=[ces[i % 4]]) for i in range(3)]
        weights = rng.random(3) * 0.5 + 0.4
        base = data_fidelity(ces, jury_with(tuple(weights), members), "yes")
        for factor in (0.25, 0.5, 0.9):
            scaled = data_fidelity(ces, jury_with(tuple(weights * factor), members), "yes")
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_zero_total_weight_rejected(self):
        ces = [np.array([0.1])]
        jury = jury_with((0.0, 0.0), [StubModel(), StubModel()])
        with pytest.raises(ValueError, match="zero"):
            data_fidelity(ces, jury, "yes")

    def test_member_agreement_extremes(self):
        ces = [np.array([float(i)]) for i in range(4)]
        assert member_agreement(StubModel(always=True), ces, "yes") == 1.0
        assert member_agreement(StubModel(always=False), ces, "yes") == 0.0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_member_agreement_is_the_degenerate_f1_bit_for_bit(self, n):
        # precision is 1 when any counterfactual is endorsed, recall the endorsed fraction
        ces = [np.array([float(i)]) for i in range(n)]
        for agreeing in range(n + 1):
            juror = StubModel(yes_vectors=ces[:agreeing])
            precision, recall = (1.0 if agreeing else 0.0), agreeing / n
            expected = 2.0 * precision * recall / (precision + recall) if agreeing else 0.0
            assert member_agreement(juror, ces, "yes") == expected


class TestCentrality:
    def test_centroid_scores_exactly_one(self):
        rng = np.random.default_rng(34)
        data = make_encoded(rng.random((20, 4)), ["yes"] * 15 + ["no"] * 5)
        center = data.X[data.target_mask()].mean(axis=0)
        assert centrality(center, data) == 1.0

    def test_coincident_neighbor_rejected(self):
        rng = np.random.default_rng(35)
        X = rng.random((12, 3))
        data = make_encoded(X, ["yes"] * 10 + ["no"] * 2)
        center = data.X[data.target_mask()].mean(axis=0)
        nearest = min(
            range(10), key=lambda i: float(np.linalg.norm(X[i] - center))
        )
        with pytest.raises(ValueError, match="coincides"):
            centrality(X[nearest].copy(), data)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(36)
        X = rng.random((20, 6))
        labels = ["yes"] * 14 + ["no"] * 6
        data = make_encoded(X, labels)
        ce = rng.random(6)
        # oracle: plain-python nearest neighbours and ratio mean
        target_rows = [X[i] for i in range(20) if labels[i] == "yes"]
        center = [sum(r[j] for r in target_rows) / len(target_rows) for j in range(6)]
        by_center = sorted(target_rows, key=lambda r: math.dist(r, center))
        n = N_NEIGHBORS
        expected = sum(
            math.dist(r, center) / math.dist(r, ce) for r in by_center[:n]
        ) / n
        assert abs(centrality(ce, data) - expected) < 1e-12

    def test_needs_enough_target_rows(self):
        data = make_encoded([[0.1], [0.2], [0.9]], ["yes", "yes", "no"])
        with pytest.raises(ValueError, match=f"need at least {N_NEIGHBORS} target rows, got 2"):
            centrality(np.array([0.5]), data)


class TestSummarize:
    def test_coincident_counterfactuals_are_excluded_and_counted(self):
        rng = np.random.default_rng(37)
        X = rng.random((12, 3))
        data = make_encoded(X, ["yes"] * 10 + ["no"] * 2)
        center = X[:10].mean(axis=0)
        nearest = min(range(10), key=lambda i: float(np.linalg.norm(X[i] - center)))
        model = StubModel(always=True)
        jury = jury_with((0.5, 0.5), (StubModel(always=True), StubModel(always=False)))
        query = X[11]
        ce = rng.random(3)
        got, excluded = summarize([(query, [ce, X[nearest].copy()])], data, model, jury)
        assert excluded == 1
        assert got["centrality"] == centrality(ce, data)
        assert got["proximity"] == proximity([ce, X[nearest]], query)
        assert got["sparsity"] == sparsity([ce, X[nearest]], query)
        assert (got["validity"], got["data_fidelity"]) == (1.0, 0.5)
        alone, excluded = summarize([(query, [X[nearest].copy()])], data, model, jury)
        assert excluded == 1 and alone["centrality"] == 0.0

    def test_means_are_over_the_sets_that_hold_counterfactuals(self):
        rng = np.random.default_rng(41)
        X = rng.random((12, 3))
        data = make_encoded(X, ["yes"] * 10 + ["no"] * 2)
        model = StubModel(always=True)
        jury = jury_with((0.5, 0.5), (StubModel(always=True), StubModel(always=False)))
        first, second = rng.random((2, 3)), rng.random((3, 3))
        sets = [(X[10], first), (X[11], []), (X[11], second)]
        got, excluded = summarize(sets, data, model, jury)
        assert excluded == 0 and list(got) == list(METRICS)
        assert got["proximity"] == np.mean([proximity(first, X[10]), proximity(second, X[11])])
        assert got["centrality"] == np.mean(
            [np.mean([centrality(v, data) for v in ces]) for ces in (first, second)]
        )
        assert summarize([(X[10], [])], data, model, jury) == (dict.fromkeys(METRICS, 0.0), 0)

    def test_too_few_target_rows_raise_before_any_other_metric(self):
        data = make_encoded(np.random.default_rng(42).random((10, 3)), ["yes"] * 8 + ["no"] * 2)
        with pytest.raises(ValueError, match="at least 10 target rows, got 8"):  # no model is asked
            summarize([(data.X[9], data.X[:2])], data, None, None)


def test_proximity_and_sparsity_order_invariant():
    rng = np.random.default_rng(37)
    q = rng.random(5)
    ces = [rng.random(5) for _ in range(7)]
    shuffled = [ces[i] for i in rng.permutation(7)]
    assert proximity(shuffled, q) == pytest.approx(proximity(ces, q), abs=1e-12)
    assert sparsity(shuffled, q) == sparsity(ces, q)


def test_metrics_row_validation():
    row = dict(
        dataset="d", generator="g", preference="a",
        proximity=0.1, sparsity=1.0, validity=1.0, data_fidelity=0.5,
        centrality=0.9, runtime_s=0.01, n_queries=10, n_ces=50,
    )
    MetricsRow(**row)
    with pytest.raises(ValueError, match="finite"):
        MetricsRow(**{**row, "centrality": float("nan")})
    with pytest.raises(ValueError, match="validity"):
        MetricsRow(**{**row, "validity": 1.2})
    for value in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"data_fidelity outside \[0, 1\]"):
            MetricsRow(**{**row, "data_fidelity": value})


@st.composite
def grid_sets(draw):
    """Encoded data on a coarse grid (tied distances to the centroid, duplicate
    rows) with at least ``N_NEIGHBORS`` target rows, a query row and a set of
    grid counterfactuals, some of which land on a centroid neighbor."""
    n_features = draw(st.integers(1, 5))
    n_rows = draw(st.integers(N_NEIGHBORS + 2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 4, size=(n_rows, n_features)) / 3.0
    y = np.where(rng.random(n_rows) < 0.6, "yes", "no")
    y[:N_NEIGHBORS], y[-2:] = "yes", "no"
    ces = rng.integers(0, 4, size=(draw(st.integers(1, 8)), n_features)) / 3.0
    return make_encoded(X, y), ces, X[-1]


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=100, deadline=None)
@given(case=grid_sets(), seed=st.integers(0, 3))
def test_metrics_give_the_bits_of_the_np_mean_formulas(case, seed):
    """Each metric against its formula as ``np.mean`` of ``scoring``'s vector functions."""
    data, ces, query = case
    assert bits(proximity(ces, query)) == bits(float(np.mean(euclidean(ces, query))))
    assert bits(sparsity(ces, query)) == bits(float(np.mean(count_diffs(ces, query))))
    model = make_model("decision_tree").fit(data.X, data.y, "yes")
    hits = model.predicts_target(ces)
    for target, expected in (("yes", hits), ("no", ~hits), ("maybe", np.zeros_like(hits))):
        assert bits(validity(ces, model, target)) == bits(float(np.mean(expected)))
    rows, to_center = data.centroid_neighbors
    for ce in ces:
        denom = euclidean(rows[:N_NEIGHBORS], ce)
        if (denom == 0.0).any():
            with pytest.raises(CoincidentNeighborError):
                centrality(ce, data)
        else:
            assert bits(centrality(ce, data)) == bits(float(np.mean(to_center[:N_NEIGHBORS] / denom)))


def test_centrality_rejects_a_counterfactual_of_another_width():
    data = make_encoded(np.arange(24.0).reshape(12, 2) / 24.0, ["yes"] * 11 + ["no"])
    for ce in ([0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]):
        with pytest.raises(ValueError, match="shapes differ"):
            centrality(ce, data)


def test_set_metrics_need_a_matrix_of_counterfactuals():
    with pytest.raises(ValueError, match="rows of a matrix, got shape"):
        proximity([0.1, 0.2], np.zeros(2))
