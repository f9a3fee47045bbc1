import pickle
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    StubModel,
    draw_combinations,
    feature_groups,
    make_encoded,
    path_total,
    select_local_path,
)
from tcol import engine, models
from tcol.engine import (
    AlreadyTargetWarning,
    GenerationConfig,
    _blocks,
    _fill,
    generate,
    select_prototypes,
)
from tcol.models import ClassifierModel, load_model, save_model
from tcol.scoring import ScoreRule
from tcol.tabular import EncodedDataset

PROTO = np.array([0.6, 0.89, 0.49])
QUERY = np.array([0.8, 0.45, 0.87])


def brute_force_path(proto, query, rule, immutable=None):
    """Independent argmax over every mask, with the documented tie rules."""
    best_key, best_mask = None, None
    for index, mask in enumerate(product((0, 1), repeat=len(proto))):
        if immutable is not None and any(i and b == 0 for i, b in zip(immutable, mask)):
            continue
        candidate = np.where(np.array(mask) == 1, query, proto)
        if np.linalg.norm(candidate) == 0.0:
            continue
        key = (rule.score(candidate, proto, query), sum(mask), -index)
        if best_key is None or key > best_key:
            best_key, best_mask = key, mask
    return best_mask


class TestSelectPrototypes:
    def test_preference_a_orders_by_diff_count(self):
        query = np.array([0.5, 0.5, 0.5])
        X = np.array(
            [
                [0.5, 0.5, 0.5],  # non-target filler
                [0.1, 0.2, 0.3],  # target, 3 diffs
                [0.5, 0.5, 0.9],  # target, 1 diff
                [0.5, 0.1, 0.9],  # target, 2 diffs
                [0.4, 0.4, 0.4],  # non-target filler
            ]
        )
        data = make_encoded(X, ["no", "yes", "yes", "yes", "no"])
        model = StubModel(always=False)
        order = select_prototypes(data, query, "a", model, count=3)
        assert order == [2, 3, 1]

    def test_preference_b_puts_nearest_first(self):
        query = np.array([0.5, 0.5, 0.5])
        X = np.array([[0.5, 0.5, 0.52], [0.9, 0.9, 0.9], [0.1, 0.1, 0.1], [0.2, 0.9, 0.1]])
        data = make_encoded(X, ["yes", "yes", "yes", "no"])
        order = select_prototypes(data, query, "b", StubModel(always=False), count=3)
        assert order[0] == 0

    def test_preference_c_matches_probability_sort(self):
        class ProbaModel(StubModel):
            def predict_proba_rows(self, X):
                return np.mean(X, axis=1) / 2.0  # deterministic, below 0.5

        rng = np.random.default_rng(8)
        X = rng.random((12, 3))
        data = make_encoded(X, ["yes"] * 10 + ["no"] * 2)
        model = ProbaModel()
        order = select_prototypes(data, rng.random(3), "c", model, count=10)
        probas = [model.predict_proba(X[i]) for i in range(10)]
        expected = sorted(range(10), key=lambda i: (-probas[i], i))
        assert order == expected

    def test_preference_d_orders_by_cosine(self):
        query = np.array([1.0, 0.0])
        X = np.array([[0.0, 1.0], [1.0, 0.2], [1.0, 1.0], [0.5, 0.5]])
        data = make_encoded(X, ["yes", "yes", "yes", "no"])
        order = select_prototypes(data, query, "d", StubModel(always=False), count=3)
        assert order == [1, 2, 0]

    def test_preference_e_orders_by_centroid_distance(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.45, 0.45], [0.9, 0.1]])
        data = make_encoded(X, ["yes", "yes", "yes", "no"])
        # target centroid is about [0.483, 0.483]
        order = select_prototypes(data, np.array([0.9, 0.1]), "e", StubModel(always=False), count=3)
        assert order[0] == 2

    def test_immutable_conflicts_rank_last(self):
        query = np.array([0.5, 0.5])
        X = np.array([[0.9, 0.5], [0.5, 0.52]])  # row 0 conflicts on immutable f0
        data = make_encoded(X, ["yes", "yes"], immutable=(0,))
        # preference b alone would favor neither strongly; force the conflict case
        X2 = np.array([[0.5, 0.500001], [0.4, 0.5]])
        data2 = make_encoded(X2, ["yes", "yes"], immutable=(0,))
        order = select_prototypes(data2, query, "b", StubModel(always=False), count=2)
        assert order == [0, 1]  # row 1 is nearer but alters the immutable feature
        order = select_prototypes(data, query, "b", StubModel(always=False), count=2)
        assert order == [1, 0]

    def test_no_target_rows_is_an_error(self):
        data = make_encoded([[0.1], [0.2]], ["b", "b"], target_class="a")
        with pytest.raises(ValueError, match="no target-class rows"):
            select_prototypes(data, np.array([0.1]), "a", StubModel(always=False), count=1)

    def test_requesting_too_many_prototypes_is_an_error(self):
        data = make_encoded([[0.1], [0.2], [0.3]], ["yes", "no", "no"])
        with pytest.raises(ValueError, match="only 1 target rows"):
            select_prototypes(data, np.array([0.1]), "a", StubModel(always=False), count=2)

    def test_target_classified_query_warns(self):
        data = make_encoded([[0.1], [0.9]], ["yes", "no"])
        with pytest.warns(AlreadyTargetWarning):
            select_prototypes(data, np.array([0.1]), "a", StubModel(always=True), count=1)


class TestCentroid:
    def test_single_row_is_its_own_centroid(self):
        data = make_encoded([[0.3, 0.7], [0.9, 0.9]], ["yes", "no"])
        assert np.array_equal(data.target_centroid, np.array([0.3, 0.7]))

    def test_midpoint_of_two_rows(self):
        data = make_encoded([[0.0, 0.0], [1.0, 1.0], [0.2, 0.2]], ["yes", "yes", "no"])
        assert np.allclose(data.target_centroid, [0.5, 0.5])

    def test_matches_independent_mean(self):
        rng = np.random.default_rng(9)
        X = rng.random((100, 4))
        data = make_encoded(X, ["yes"] * 60 + ["no"] * 40)
        expected = np.array([sum(X[i][j] for i in range(60)) / 60 for j in range(4)])
        assert np.max(np.abs(data.target_centroid - expected)) < 1e-12


def blocked_groups(n_features, depth):
    """The groups that ``_blocks`` describes, one index list per group."""
    return [
        list(range(s + j * k, s + (j + 1) * k)) for s, k, n in _blocks(n_features, depth) for j in range(n)
    ]


class TestPartition:
    """``_blocks`` describes the groups as runs of one width."""

    def test_six_features_depth_three(self):
        assert _blocks(6, 3) == [(0, 3, 2)]

    def test_remainder_group(self):
        assert _blocks(7, 3) == [(0, 3, 2), (6, 1, 1)]

    def test_single_group(self):
        assert _blocks(3, 3) == [(0, 3, 1)]
        assert _blocks(2, 3) == [(0, 2, 1)]

    def test_groups_cover_all_features_in_order(self):
        for n, depth in [(6, 3), (13, 4), (48, 9), (5, 5), (1, 3), (20, 9)]:
            groups = blocked_groups(n, depth)
            assert groups == feature_groups(n, depth)
            assert [i for g in groups for i in g] == list(range(n))
            assert all(len(g) == depth for g in groups[:-1])
            assert 1 <= len(groups[-1]) <= depth


def group_masks(proto, query):
    """Every local mask the engine ranks when the slices form the only group."""
    groups = [list(range(len(proto)))]
    immutable = np.zeros(len(proto), dtype=bool)
    ranked = draw_combinations(
        proto, query, groups, ScoreRule("rss"), immutable, 2 ** len(proto)
    )
    return [path for path, _ in ranked]


class TestEnumerate:
    """A group's ranked masks are exactly the root-to-leaf paths of its binary tree."""

    def test_single_bit(self):
        assert sorted(group_masks(PROTO[:1], QUERY[:1])) == [(0,), (1,)]

    def test_three_bits_ascending_binary(self):
        # equal slices tie every score: more query-side bits first, then ascending binary
        paths = group_masks(QUERY, QUERY)
        assert len(paths) == 8
        assert paths == sorted(product((0, 1), repeat=3), key=lambda mask: -sum(mask))

    def test_nine_bits_all_distinct(self):
        rng = np.random.default_rng(12)
        paths = group_masks(rng.random(9) + 0.01, rng.random(9) + 0.01)
        assert len(paths) == 512 == len(set(paths))

    def test_equivalent_to_materialized_binary_tree(self):
        # oracle: build the full tree with explicit nodes, walk root to leaf,
        # collecting 0 for the prototype branch and 1 for the query branch

        def build(depth):
            if depth == 0:
                return "leaf"
            return {"proto": build(depth - 1), "query": build(depth - 1)}

        def walk(node, prefix, out):
            if node == "leaf":
                out.append(tuple(prefix))
                return
            walk(node["proto"], prefix + [0], out)
            walk(node["query"], prefix + [1], out)

        rng = np.random.default_rng(14)
        for depth in (1, 2, 3, 5):
            out = []
            walk(build(depth), [], out)
            proto, query = rng.random(depth) + 0.01, rng.random(depth) + 0.01
            assert sorted(group_masks(proto, query)) == out


class TestSelectLocalPath:
    def test_worked_example_selects_all_query_bits(self):
        assert select_local_path(PROTO, QUERY, ScoreRule("rss")) == (1, 1, 1)

    def test_identical_slices_tie_to_query_side(self):
        assert select_local_path(QUERY, QUERY, ScoreRule("rss")) == (1, 1, 1)
        assert select_local_path(QUERY, QUERY, ScoreRule("fcs")) == (1, 1, 1)

    def test_immutable_positions_forced_to_query(self):
        path = select_local_path(PROTO, QUERY, ScoreRule("fcs"), immutable_mask=[True, False, False])
        assert path[0] == 1

    def test_zero_norm_prototype_rejected(self):
        assert group_masks(np.zeros(3), QUERY) == []

    @pytest.mark.parametrize(
        "rule",
        [
            ScoreRule("rss"),
            ScoreRule("ncs"),
            ScoreRule("fcs"),
            ScoreRule("fcs", fcs_variant="literal"),
            ScoreRule("rss", distance="manhattan"),
        ],
    )
    def test_matches_brute_force_on_random_slices(self, rule):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            proto = rng.random(n) + 0.01
            query = rng.random(n) + 0.01
            immutable = rng.random(n) < 0.2
            got = select_local_path(proto, query, rule, immutable_mask=immutable)
            assert got == brute_force_path(proto, query, rule, immutable)


class TestSpliceAndFill:
    def test_fill_all_prototype(self):
        assert np.array_equal(_fill(PROTO, QUERY, (0, 0, 0)), PROTO)

    def test_fill_all_query(self):
        assert np.array_equal(_fill(PROTO, QUERY, (1, 1, 1)), QUERY)

    def test_fill_mixed_path_takes_componentwise(self):
        proto = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        query = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        ce = _fill(proto, query, (1, 0, 1, 1, 0, 0))
        assert np.array_equal(ce, [10.0, 2.0, 30.0, 40.0, 5.0, 6.0])


@st.composite
def combination_cases(draw):
    """Slices on the grid {0, 0.5, 1}, so that score ties, zero-norm slices
    and equal prototype and query values all occur."""
    n_features = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    proto, query = rng.integers(0, 3, size=(2, n_features)) / 2.0
    immutable = rng.random(n_features) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    groups = feature_groups(n_features, draw(st.integers(3, 4)))
    rule = ScoreRule(draw(st.sampled_from(["fcs", "ncs", "rss"])))
    return proto, query, groups, rule, immutable, draw(st.integers(1, 70))


class TestRankedCombinations:
    @settings(max_examples=200, deadline=None)
    @given(case=combination_cases())
    def test_budgeted_draw_is_the_head_of_the_exact_enumeration(self, case):
        proto, query, groups, rule, immutable, budget = case
        n = len(proto)
        everything = list(draw_combinations(proto, query, groups, rule, immutable, 2**n))
        drawn = list(draw_combinations(proto, query, groups, rule, immutable, budget))
        assert drawn == everything[:budget]
        totals = [total for _, total in everything]
        assert totals == sorted(totals, reverse=True)
        for path, total in everything:
            expected = path_total(proto, query, groups, rule, path)
            assert np.float64(total).tobytes() == np.float64(expected).tobytes()
        scoreable = {
            mask
            for mask in product((0, 1), repeat=n)
            if all(b or not i for b, i in zip(mask, immutable))
            and path_total(proto, query, groups, rule, mask) > float("-inf")
        }
        assert len(everything) == len(scoreable)
        assert {path for path, _ in everything} == scoreable

    def test_first_yield_is_the_per_group_argmax(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            proto = rng.random(7) + 0.01
            query = rng.random(7) + 0.01
            groups = feature_groups(7, 3)
            rule = ScoreRule("rss")
            immutable = np.zeros(7, dtype=bool)
            first, _ = next(draw_combinations(proto, query, groups, rule, immutable, 1))
            expected = tuple(
                bit for g in groups for bit in brute_force_path(proto[g], query[g], rule)
            )
            assert first == expected

    def test_scores_non_increasing_and_exhaustive(self):
        rng = np.random.default_rng(18)
        proto = rng.random(6) + 0.01
        query = rng.random(6) + 0.01
        groups = feature_groups(6, 3)
        immutable = np.zeros(6, dtype=bool)
        drawn = list(
            draw_combinations(proto, query, groups, ScoreRule("ncs"), immutable, 2**6)
        )
        scores = [s for _, s in drawn]
        assert scores == sorted(scores, reverse=True)
        assert len({p for p, _ in drawn}) == 64  # full product space, no repeats

    def test_all_immutable_zero_query_group_yields_nothing(self):
        # every admissible mask of the first group fills to the query's zero slice
        groups = feature_groups(6, 3)
        query = np.array([0.0, 0.0, 0.0, 0.7, 0.2, 0.9])
        immutable = np.array([True, True, True, False, False, False])
        proto = np.tile(PROTO, 2)
        drawn = draw_combinations(proto, query, groups, ScoreRule("ncs"), immutable, 2**6)
        assert list(drawn) == []


class StaticModel(StubModel):
    """Accepts exactly the vectors in its yes-set."""


def single_prototype_data(rng, n_features):
    proto = rng.random(n_features) * 0.8 + 0.1
    filler = rng.random((3, n_features))
    X = np.vstack([proto, filler])
    return make_encoded(X, ["yes", "no", "no", "no"]), proto


@pytest.mark.filterwarnings("ignore::tcol.engine.AlreadyTargetWarning")
class TestGenerate:
    @pytest.mark.parametrize("preference", ["a", "b", "c", "d", "e"])
    def test_single_prototype_matches_exhaustive_optimum(self, preference):
        rng = np.random.default_rng(21)
        for _ in range(5):
            data, proto = single_prototype_data(rng, 6)
            query = rng.random(6) * 0.8 + 0.1
            config = GenerationConfig(preference=preference, depth=3, num_ces=1)
            rule = config.score_rule()
            ces = generate(data, query, config, StubModel(always=True))
            assert len(ces) == 1
            groups = feature_groups(6, 3)
            expected = tuple(
                bit for g in groups for bit in brute_force_path(proto[g], query[g], rule)
            )
            assert ces[0].path == expected
            assert ces[0].validated and not ces[0].fallback

    def test_single_group_equals_argmax_over_all_masks(self):
        rng = np.random.default_rng(22)
        data, proto = single_prototype_data(rng, 5)
        query = rng.random(5) * 0.8 + 0.1
        config = GenerationConfig(preference="c", depth=5, num_ces=1, budget=1)
        ces = generate(data, query, config, StubModel(always=True))
        assert ces[0].path == brute_force_path(proto, query, ScoreRule("rss"))

    def test_fallback_ladder_walks_down_ranked_candidates(self):
        rng = np.random.default_rng(23)
        data, proto = single_prototype_data(rng, 6)
        query = rng.random(6) * 0.8 + 0.1
        config = GenerationConfig(preference="c", depth=3, num_ces=1, budget=64)
        groups = feature_groups(6, 3)
        ranked = list(
            draw_combinations(
                proto, query, groups, ScoreRule("rss"), np.zeros(6, dtype=bool), 2**6
            )
        )
        # validation accepts only the third-best candidate
        third = np.where(np.array(ranked[2][0]) == 1, query, proto)
        model = StubModel(yes_vectors=[third])
        ces = generate(data, query, config, model)
        assert ces[0].path == ranked[2][0]
        assert ces[0].validated and not ces[0].fallback

    def test_budget_exhaustion_falls_back_to_prototype(self):
        rng = np.random.default_rng(24)
        data, proto = single_prototype_data(rng, 6)
        query = rng.random(6) * 0.8 + 0.1
        config = GenerationConfig(preference="c", depth=3, num_ces=1, budget=5)
        ces = generate(data, query, config, StubModel(always=False))
        assert len(ces) == 1
        assert ces[0].fallback and not ces[0].validated
        assert np.array_equal(ces[0].vector, proto)  # no immutable features here

    def test_fallback_respects_immutable_features(self):
        rng = np.random.default_rng(25)
        X = np.vstack([rng.random(6) * 0.8 + 0.1, rng.random((3, 6))])
        data = make_encoded(X, ["yes", "no", "no", "no"], immutable=(1, 4))
        query = rng.random(6) * 0.8 + 0.1
        config = GenerationConfig(preference="c", num_ces=1, budget=4)
        ces = generate(data, query, config, StubModel(always=False))
        ce = ces[0]
        assert ce.fallback
        assert ce.vector[1] == query[1] and ce.vector[4] == query[4]
        mutable = [0, 2, 3, 5]
        assert np.array_equal(ce.vector[mutable], X[0][mutable])

    def test_immutable_features_never_change(self, synthetic_encoded, validation_model):
        immutable = synthetic_encoded.immutable_mask()
        assert immutable.any()
        queries = np.flatnonzero(~synthetic_encoded.target_mask())[:6]
        for preference in ("a", "c", "e"):
            config = GenerationConfig(preference=preference)
            for qi in queries:
                query = synthetic_encoded.X[qi]
                for ce in generate(synthetic_encoded, query, config, validation_model):
                    assert np.array_equal(ce.vector[immutable], query[immutable])

    def test_components_come_only_from_prototype_or_query(
        self, synthetic_encoded, validation_model
    ):
        qi = int(np.flatnonzero(~synthetic_encoded.target_mask())[0])
        query = synthetic_encoded.X[qi]
        config = GenerationConfig(preference="d")
        for ce in generate(synthetic_encoded, query, config, validation_model):
            proto = synthetic_encoded.X[ce.prototype_index]
            for i, value in enumerate(ce.vector):
                assert value == proto[i] or value == query[i]

    def test_a_kept_ce_that_is_not_a_verbatim_copy_raises(self, monkeypatch):
        X = np.array([[0.3, 0.6, 0.2, 0.7], [0.9, 0.1, 0.9, 0.2]])
        data = make_encoded(X, ["yes", "no"])
        fill = engine._fill

        def corrupt(prototype, query, path):
            out = fill(prototype, query, path).copy()
            out[..., 0] = np.nextafter(out[..., 0], np.inf)
            return out

        monkeypatch.setattr(engine, "_fill", corrupt)
        config = GenerationConfig(preference="a", num_ces=1)
        with pytest.raises(RuntimeError, match="prototype 0 is not a verbatim copy"):
            generate(data, np.array([0.5, 0.4, 0.6, 0.3]), config, StubModel(always=True))

    def test_validated_flag_means_model_agreement(self, synthetic_encoded, validation_model):
        qi = int(np.flatnonzero(~synthetic_encoded.target_mask())[1])
        config = GenerationConfig(preference="b")
        for ce in generate(synthetic_encoded, synthetic_encoded.X[qi], config, validation_model):
            predicted = validation_model.predict(ce.vector)
            if ce.validated:
                assert predicted == synthetic_encoded.target_class

    def test_deterministic_output(self, synthetic_encoded, validation_model):
        qi = int(np.flatnonzero(~synthetic_encoded.target_mask())[2])
        config = GenerationConfig(preference="c")
        first = generate(synthetic_encoded, synthetic_encoded.X[qi], config, validation_model)
        second = generate(synthetic_encoded, synthetic_encoded.X[qi], config, validation_model)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert np.array_equal(a.vector, b.vector)
            assert a.path == b.path and a.prototype_index == b.prototype_index
            assert a.score == b.score

    def test_duplicate_prototypes_deduplicate(self):
        row = np.array([0.3, 0.6, 0.2])
        X = np.vstack([row, row, np.array([0.9, 0.9, 0.9])])
        data = make_encoded(X, ["yes", "yes", "no"])
        config = GenerationConfig(preference="a", num_ces=2)
        ces = generate(data, np.array([0.5, 0.5, 0.5]), config, StubModel(always=True))
        assert len(ces) == 1

    def test_prototype_equal_to_query_is_degenerate_identity(self):
        query = np.array([0.4, 0.5, 0.6])
        X = np.vstack([query, np.array([0.9, 0.1, 0.9])])
        data = make_encoded(X, ["yes", "no"])
        config = GenerationConfig(preference="b", num_ces=1)
        ces = generate(data, query, config, StubModel(always=True))
        assert np.array_equal(ces[0].vector, query)
        assert ces[0].validated

    def test_output_never_empty(self, synthetic_encoded):
        qi = int(np.flatnonzero(~synthetic_encoded.target_mask())[0])
        config = GenerationConfig(preference="e", budget=1)
        ces = generate(synthetic_encoded, synthetic_encoded.X[qi], config, StubModel(always=False))
        assert len(ces) >= 1  # fallbacks guarantee at least one candidate


class RejectingRowsModel(ClassifierModel):
    """Knows only whole matrices, rejects every row and counts its calls."""

    kind = "rejecting_rows"

    def __init__(self):
        super().__init__()
        self.target_class, self.other_class = "yes", "no"
        self.fitted = True
        self.calls = 0

    def _fit(self, X, y):
        pass

    def predict_proba_rows(self, X):
        self.calls += 1
        return np.zeros(len(X))


@pytest.mark.parametrize("k", [1, 3])
def test_each_group_is_scored_once_and_the_model_called_once_per_query(monkeypatch, k):
    rng = np.random.default_rng(26)
    n_features = 7
    X = np.vstack([rng.random((k, n_features)) * 0.8 + 0.1, rng.random((2, n_features))])
    data = make_encoded(X, ["yes"] * k + ["no", "no"])
    query = rng.random(n_features) * 0.8 + 0.1
    config = GenerationConfig(preference="a", depth=3, num_ces=k)
    score_calls = []
    score = ScoreRule.score

    def counting_score(self, *args, **kwargs):
        score_calls.append(self.tag)
        return score(self, *args, **kwargs)

    monkeypatch.setattr(ScoreRule, "score", counting_score)
    model = RejectingRowsModel()
    ces = generate(data, query, config, model)
    widths = {len(g) for g in feature_groups(n_features, config.depth)}
    # one call for every prototype's draws, plus the already-target check
    assert model.calls == 2
    # two groups of three and a remainder group of one
    assert len(score_calls) == len(widths) == 2
    assert len(ces) == k
    assert all(ce.fallback is True and ce.validated is False for ce in ces)


class RecordingRowsModel(RejectingRowsModel):
    """Rejects every row and keeps each matrix it is called on."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def predict_proba_rows(self, X):
        self.batches.append(np.array(X))
        return super().predict_proba_rows(X)


def test_the_validation_batch_sends_each_distinct_draw_of_a_prototype_once():
    # Grid values shared with the query make many draws fill the same vector.
    rng = np.random.default_rng(21)
    X = rng.integers(1, 4, size=(14, 9)) / 4.0
    data = make_encoded(X, ["yes"] * 8 + ["no"] * 6, immutable=(4,))
    query = X[10]
    config = GenerationConfig(preference="a", depth=3, num_ces=5, budget=64)
    model = RecordingRowsModel()
    generate(data, query, config, model)
    already_target, batch = model.batches
    assert len(already_target) == 1
    immutable = data.immutable_mask()
    prototypes = select_prototypes(data, query, "a", model, config.num_ces)
    drawn = engine.ranked_path_combinations(
        X[prototypes], query, immutable, config.depth, config.score_rule(), config.budget
    )
    start, repeats = 0, 0
    for proto_idx, (paths, totals) in zip(prototypes, drawn):
        real = paths[:-1][totals[:-1] > -np.inf]
        distinct = {_fill(X[proto_idx], query, path).tobytes() for path in real}
        repeats += len(real) - len(distinct)
        sent = batch[start : start + len(distinct) + 1]
        start += len(sent)
        # the prototype's real draws, each vector once, then its fallback
        assert len({row.tobytes() for row in sent[:-1]}) == len(sent) - 1
        assert {row.tobytes() for row in sent[:-1]} == distinct
        assert sent[-1].tobytes() == _fill(X[proto_idx], query, immutable).tobytes()
    assert start == len(batch)
    assert repeats > 0


def test_a_negative_zero_against_a_zero_is_no_copy():
    # Component 0 is 0.0 in the prototype and -0.0 in the query, component 1
    # is equal in both: bit 1 is a copy only at component 1.
    X = np.array([[0.0, 0.4, 0.9], [0.8, 0.1, 0.3]])
    data = make_encoded(X, ["yes", "no"])
    query = np.array([-0.0, 0.4, 0.2])
    model = RecordingRowsModel()
    generate(data, query, GenerationConfig(preference="a", num_ces=1, budget=64), model)
    batch = model.batches[-1]
    # four distinct draws, over components 0 and 2, then the fallback
    assert len(batch) == 5
    assert len({row.tobytes() for row in batch[:-1]}) == 4
    assert set(np.signbit(batch[:-1, 0]).tolist()) == {False, True}


@pytest.mark.filterwarnings("ignore::tcol.engine.AlreadyTargetWarning")
def test_the_merge_yields_once_per_prototype_even_when_it_draws_nothing(monkeypatch):
    # Target row 1's first group is zero, so none of its masks can be scored.
    X = np.array(
        [
            [0.2, 0.7, 0.4, 0.9, 0.1, 0.5],
            [0.0, 0.0, 0.0, 0.3, 0.8, 0.6],
            [0.9, 0.1, 0.3, 0.2, 0.6, 0.7],
            [0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
        ]
    )
    data = make_encoded(X, ["yes", "yes", "yes", "no"])
    calls, yields = [], []
    merge = engine.ranked_path_combinations

    def recording_merge(*args):
        calls.append(args)
        for drawn in merge(*args):
            yields.append(drawn)
            yield drawn

    monkeypatch.setattr(engine, "ranked_path_combinations", recording_merge)
    config = GenerationConfig(preference="a", num_ces=3, budget=5)
    ces = generate(data, X[3], config, StubModel(always=False))
    assert len(calls) == 1
    assert len(yields) == 3
    # every prototype gets the same rows, its fallback, the immutable mask, last;
    # a -inf total is no draw
    assert all(paths.shape == (6, 6) and totals.shape == (6,) for paths, totals in yields)
    assert all(set(paths.ravel().tolist()) <= {0, 1} for paths, _ in yields)
    assert all(np.array_equal(paths[-1], data.immutable_mask()) for paths, _ in yields)
    empty = [i for i, (_, totals) in enumerate(yields) if np.all(totals[:-1] == -np.inf)]
    assert len(empty) == 1
    assert all(np.all(totals > -np.inf) for i, (_, totals) in enumerate(yields) if i not in empty)
    (zero,) = [ce for ce in ces if ce.prototype_index == 1]
    assert zero.fallback and zero.score == float("-inf")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_query_is_rejected_before_prototype_ranking(
    monkeypatch, value, synthetic_encoded, validation_model
):
    def ranking(*args, **kwargs):
        raise AssertionError("prototypes were ranked")

    monkeypatch.setattr(engine, "select_prototypes", ranking)
    qi = int(np.flatnonzero(~synthetic_encoded.target_mask())[0])
    query = synthetic_encoded.X[qi].copy()
    query[[1, 4]] = value
    with pytest.raises(ValueError, match="query component 1 is not a finite number"):
        generate(synthetic_encoded, query, GenerationConfig(preference="c"), validation_model)


@pytest.mark.parametrize("length", [0, 5, 7])
def test_a_query_of_the_wrong_length_is_rejected(length, synthetic_encoded, validation_model):
    assert synthetic_encoded.n_features == 6
    with pytest.raises(ValueError, match="query length does not match the dataset schema"):
        generate(synthetic_encoded, np.full(length, 0.5), GenerationConfig("a"), validation_model)


class TestGenerationConfig:
    def test_depth_bounds_enforced(self):
        with pytest.raises(ValueError):
            GenerationConfig(preference="a", depth=2)
        with pytest.raises(ValueError):
            GenerationConfig(preference="a", depth=10)

    def test_preference_validated(self):
        with pytest.raises(ValueError):
            GenerationConfig(preference="f")

    @pytest.mark.parametrize(
        "name, value",
        [("depth", 3.5), ("num_ces", 2.5), ("budget", 7.5), ("budget", True), ("num_ces", True)],
    )
    def test_counts_must_be_exact_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            GenerationConfig("a", **{name: value})

    @pytest.mark.parametrize(
        "knob, message",
        [({"fcs_variant": "bogus"}, "unknown fcs variant"), ({"distance": "chebyshev"}, "unknown distance")],
    )
    def test_rule_knobs_validated_at_construction(self, knob, message):
        with pytest.raises(ValueError, match=message):
            GenerationConfig("a", **knob)

    def test_rule_mapping(self):
        assert GenerationConfig(preference="a").score_rule().tag == "fcs"
        assert GenerationConfig(preference="b").score_rule().tag == "ncs"
        for pref in ("c", "d", "e"):
            assert GenerationConfig(preference=pref).score_rule().tag == "rss"


@pytest.mark.filterwarnings("ignore::tcol.engine.AlreadyTargetWarning")
def test_zero_norm_prototype_slice_falls_back(synthetic_encoded, validation_model):
    # Target row 0 becomes a copy of denied row 51 with age/job/education at
    # their encoded minimum, so its first depth-3 group has zero norm.
    X = synthetic_encoded.X.copy()
    X[0] = X[51]
    X[0, :3] = 0.0
    data = EncodedDataset(
        X=X, y=synthetic_encoded.y, target_class="approved", schema=synthetic_encoded.schema
    )
    query = X[51]
    ces = generate(data, query, GenerationConfig(preference="b"), validation_model)
    zero = [ce for ce in ces if ce.prototype_index == 0]
    assert len(zero) == 1
    ce = zero[0]
    immutable = data.immutable_mask()
    assert ce.fallback
    assert ce.score == float("-inf")
    assert ce.path == tuple(int(b) for b in immutable)
    assert np.array_equal(ce.vector, np.where(immutable, query, X[0]))
    assert ce.validated == (validation_model.predict(ce.vector) == "approved")


@pytest.mark.filterwarnings("ignore::tcol.engine.AlreadyTargetWarning")
def test_all_immutable_group_at_encoded_minimum_falls_back():
    # Features 0-2 are immutable and zero for the query, so every admissible
    # mask of the first group fills to the query's zero slice.
    rng = np.random.default_rng(31)
    X = rng.random((20, 6)) * 0.8 + 0.1
    X[15, :3] = 0.0
    data = make_encoded(X, ["yes"] * 10 + ["no"] * 10, immutable=(0, 1, 2))
    query = X[15]
    ces = generate(data, query, GenerationConfig(preference="b"), StubModel(always=True))
    assert len(ces) == 5
    for ce in ces:
        assert ce.fallback and ce.validated
        assert ce.score == float("-inf")
        assert ce.path == (1, 1, 1, 0, 0, 0)
        assert np.array_equal(ce.vector[:3], query[:3])
        assert np.array_equal(ce.vector[3:], X[ce.prototype_index, 3:])


class SpyModel(ClassifierModel):
    """Scores a row against its fit's target-class column means, and records
    the row count of every ``predict_proba_rows`` call."""

    kind = "spy"

    def __init__(self):
        super().__init__()
        self.calls = []

    def _fit(self, X, y):
        return {"weights": X[y == self.target_class].mean(axis=0).tolist()}

    def _restore(self, params):
        self.weights = np.asarray(params["weights"])

    def proba(self, X):
        return np.asarray(X, dtype=float) @ self.weights / self.weights.sum()

    def predict_proba_rows(self, X):
        self.calls.append(len(X))
        return self.proba(X)


def spy_data(seed):
    X = np.random.default_rng(seed).random((40, 6))
    return make_encoded(X, np.where(X[:, 0] + X[:, 1] > 1.0, "yes", "no"))


def fitted_spy(seed):
    data = spy_data(seed)
    return data, SpyModel().fit(data.X, data.y, "yes")


def ranked_by_own_proba(data, model):
    """Every target row, highest probability first, from ``model.proba``,
    which records no call; the spy data has no immutable feature."""
    candidates, rows = data.target_rows
    return candidates[np.argsort(-model.proba(rows), kind="stable")].tolist()


def ce_bytes(ces):
    return [
        (ce.vector.tobytes(), ce.path, ce.prototype_index, np.float64(ce.score).tobytes(), ce.validated, ce.fallback)
        for ce in ces
    ]


@pytest.mark.filterwarnings("ignore::tcol.engine.AlreadyTargetWarning")
class TestTargetProbaMemo:
    CONFIG = GenerationConfig(preference="c")

    @staticmethod
    def queries(data):
        return data.X[~data.target_mask()]

    def test_a_second_c_query_skips_the_target_rows(self):
        data, model = fitted_spy(1)
        first, second = self.queries(data)[:2]
        generate(data, first, self.CONFIG, model)
        # already-target check, target rows, validation
        assert len(model.calls) == 3 and model.calls[:2] == [1, len(data.target_rows[0])]
        model.calls.clear()
        generate(data, second, self.CONFIG, model)
        assert len(model.calls) == 2 and model.calls[0] == 1

    def test_models_alternating_on_one_data_set_rank_from_their_own_fit(self):
        data, first = fitted_spy(1)
        other = spy_data(2)
        second = SpyModel().fit(other.X, other.y, "yes")
        expected = [ranked_by_own_proba(data, model) for model in (first, second)]
        assert expected[0] != expected[1]
        count = len(data.target_rows[0])
        for query in self.queries(data)[:3]:
            for model, ranking in zip((first, second), expected):
                assert select_prototypes(data, query, "c", model, count) == ranking

    def test_a_refit_or_a_loaded_model_ranks_afresh(self, monkeypatch, tmp_path):
        data, model = fitted_spy(1)
        other = spy_data(2)
        query, count = self.queries(data)[0], len(data.target_rows[0])
        before = select_prototypes(data, query, "c", model, count)
        model.fit(other.X, other.y, "yes")
        model.calls.clear()
        after = select_prototypes(data, query, "c", model, count)
        assert after == ranked_by_own_proba(data, model) != before
        assert model.calls == [1, count]
        monkeypatch.setitem(models._MODEL_CLASSES, "spy", SpyModel)
        save_model(model, tmp_path / "spy.json")
        loaded = load_model(tmp_path / "spy.json")
        assert select_prototypes(data, query, "c", loaded, count) == after
        assert loaded.calls == [1, count]

    def test_a_new_data_set_with_equal_rows_is_ranked_afresh(self):
        data, model = fitted_spy(1)
        twin = EncodedDataset(X=data.X.copy(), y=data.y, target_class="yes", schema=data.schema)
        query, count = self.queries(data)[0], len(data.target_rows[0])
        select_prototypes(data, query, "c", model, count)
        model.calls.clear()
        assert select_prototypes(twin, query, "c", model, count) == ranked_by_own_proba(data, model)
        assert model.calls == [1, count]

    def test_the_probabilities_are_read_only(self):
        data, model = fitted_spy(1)
        proba = model.target_proba(data)
        assert not proba.flags.writeable
        with pytest.raises(ValueError):
            proba[0] = 1.0
        assert model.target_proba(data) is proba
        assert model.calls == [len(data.target_rows[0])]

    def test_a_pickled_model_generates_the_same_ces(self):
        data, model = fitted_spy(1)
        query = self.queries(data)[0]
        ces = generate(data, query, self.CONFIG, model)
        clone = pickle.loads(pickle.dumps(model))
        clone.calls.clear()
        assert ce_bytes(generate(data, query, self.CONFIG, clone)) == ce_bytes(ces)
        assert clone.calls[:2] == [1, len(data.target_rows[0])]
