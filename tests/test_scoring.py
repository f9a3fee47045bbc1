import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcol.scoring import RULES, ScoreRule, cosine, count_diffs, euclidean, fcs, ncs, norm, rss, sigmoid

PROTO = np.array([0.6, 0.89, 0.49])
QUERY = np.array([0.8, 0.45, 0.87])

# Gold rows for the worked three-feature example: path -> (similarity, cost, rss),
# where path bit 0 takes the prototype's value and bit 1 the query's.
GOLD = {
    (0, 0, 0): (1.0, 0.6148, 4.1882),
    (0, 0, 1): (0.9682, 0.4833, 4.2572),
    (0, 1, 0): (0.9466, 0.4294, 4.2542),
    (0, 1, 1): (0.8757, 0.2, 4.3658),
    (1, 0, 0): (0.9911, 0.5814, 4.2006),
    (1, 0, 1): (0.9729, 0.44, 4.3495),
    (1, 1, 0): (0.9128, 0.38, 4.1949),
    (1, 1, 1): (0.8757, 0.0, 4.8013),
}


def candidate_for(path):
    return np.where(np.array(path) == 1, QUERY, PROTO)


class TestGoldRows:
    @pytest.mark.parametrize("path,expected", sorted(GOLD.items()))
    def test_similarity_cost_and_rss(self, path, expected):
        sim_gold, cost_gold, rss_gold = expected
        cand = candidate_for(path)
        assert cosine(cand, PROTO) == pytest.approx(sim_gold, abs=1e-3)
        assert euclidean(cand, QUERY) == pytest.approx(cost_gold, abs=1e-3)
        assert rss(cand, PROTO, QUERY) == pytest.approx(rss_gold, abs=1e-3)


class TestCosine:
    def test_self_similarity_is_one(self):
        assert cosine(PROTO, PROTO) == 1.0

    def test_orthogonal_is_zero(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_query_prototype_similarity(self):
        assert cosine(QUERY, PROTO) == pytest.approx(0.8757, abs=1e-4)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine([0.0, 0.0], [1.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine([1.0], [1.0, 2.0])


class TestCountDiffs:
    def test_identical_vectors(self):
        assert count_diffs(QUERY, QUERY) == 0

    def test_all_components_differ(self):
        assert count_diffs(PROTO, QUERY) == 3

    def test_single_component_differs(self):
        assert count_diffs([0.6, 0.45, 0.87], [0.8, 0.45, 0.87]) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_diffs([1.0], [1.0, 2.0])


class TestFcs:
    def test_sparsity_corrected_is_default_and_complements_literal(self):
        # one of three components differs: n - diffs = 2, where the paper's
        # literal form, sim * diffs, is the rest of sim * n
        cand = np.array([0.6, 0.45, 0.87])
        sim = sigmoid(cosine(cand, PROTO))
        assert fcs(cand, PROTO, QUERY) == pytest.approx(sim * 2)
        assert sim * 3 - fcs(cand, PROTO, QUERY) == pytest.approx(sim * 1)

    def test_sparsity_corrected_decreases_with_more_diffs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            proto = rng.random(5) + 0.01
            query = rng.random(5) + 0.01
            scores = []
            for k in range(6):
                cand = query.copy()
                cand[:k] = proto[:k]  # k components differ from the query
                sim = sigmoid(cosine(cand, proto))
                scores.append(fcs(cand, proto, query) / sim)
            assert scores == sorted(scores, reverse=True)


class TestNcs:
    def test_identity_closed_form(self):
        assert ncs(PROTO, PROTO, PROTO) == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_candidate_equal_to_query(self):
        assert ncs(QUERY, PROTO, QUERY) == pytest.approx(0.705940583811198, abs=1e-12)

    def test_distance_doubling_scales_by_exp_half(self):
        # same candidate and prototype; query moved from d=0.5 to d=1.0
        cand = np.array([0.5, 0.5, 0.5])
        proto = np.array([0.4, 0.6, 0.5])
        near = cand + np.array([0.5, 0.0, 0.0])
        far = cand + np.array([1.0, 0.0, 0.0])
        assert ncs(cand, proto, far) / ncs(cand, proto, near) == pytest.approx(
            math.exp(-0.5), abs=1e-12
        )


class TestRss:
    def test_prototype_candidate(self):
        assert rss(PROTO, PROTO, QUERY) == pytest.approx(4.1882, abs=1e-3)

    def test_query_candidate(self):
        assert rss(QUERY, PROTO, QUERY) == pytest.approx(4.8013, abs=1e-3)

    def test_mixed_candidate(self):
        cand = np.array([0.6, 0.89, 0.87])
        assert cosine(cand, PROTO) == pytest.approx(0.9682, abs=1e-3)
        assert euclidean(cand, QUERY) == pytest.approx(0.4833, abs=1e-3)
        assert rss(cand, PROTO, QUERY) == pytest.approx(4.2572, abs=1e-3)


class TestProperties:
    def test_sigmoid_at_zero_is_exactly_half(self):
        assert sigmoid(0.0) == 0.5

    def test_rss_and_ncs_joint_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            cand, proto, query = rng.random((3, n)) + 0.01
            perm = rng.permutation(n)
            assert rss(cand[perm], proto[perm], query[perm]) == pytest.approx(
                rss(cand, proto, query), abs=1e-12
            )
            assert ncs(cand[perm], proto[perm], query[perm]) == pytest.approx(
                ncs(cand, proto, query), abs=1e-12
            )

    def test_rss_and_ncs_decrease_with_query_distance(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            cand = rng.random(4) + 0.01
            proto = rng.random(4) + 0.01
            direction = rng.random(4)
            direction /= np.linalg.norm(direction)
            rss_scores, ncs_scores = [], []
            for step in (0.1, 0.4, 0.9):
                query = cand + step * direction
                rss_scores.append(rss(cand, proto, query))
                ncs_scores.append(ncs(cand, proto, query))
            assert rss_scores == sorted(rss_scores, reverse=True)
            assert ncs_scores == sorted(ncs_scores, reverse=True)

    def test_scores_finite_on_unit_box(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            cand, proto, query = rng.random((3, 6)) + 1e-6
            for value in (
                rss(cand, proto, query),
                ncs(cand, proto, query),
                fcs(cand, proto, query),
            ):
                assert np.isfinite(value)


def test_score_rule_dispatch():
    cand = np.array([0.6, 0.89, 0.87])
    assert ScoreRule("rss").score(cand, PROTO, QUERY) == rss(cand, PROTO, QUERY)
    assert ScoreRule("ncs").score(cand, PROTO, QUERY) == ncs(cand, PROTO, QUERY)
    assert ScoreRule("fcs").score(cand, PROTO, QUERY) == fcs(cand, PROTO, QUERY)


def test_score_rule_validates_fields():
    with pytest.raises(ValueError, match="unknown score rule 'best'"):
        ScoreRule("best")


@st.composite
def rows_prototype_query(draw):
    """1-64 rows of width 1-48 with zero components, rows equal to the
    query and, where ``nonzero`` is drawn False, all-zero rows; plus one
    prototype per row, some zero in places, some equal to the shared
    prototype or to their row and, where drawn, some all zero."""
    width = draw(st.integers(1, 48))
    n_rows = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-3, 10.0]))
    prototype, query = rng.random((2, width)) * scale + 1e-9
    rows = rng.random((n_rows, width)) * scale
    rows[rng.random((n_rows, width)) < 0.25] = 0.0
    rows[rng.random(n_rows) < 0.2] = query
    rows[rng.random(n_rows) < 0.1] = prototype
    if not draw(st.booleans()):
        rows[rng.random(n_rows) < 0.2] = 0.0
    prototypes = rng.random((n_rows, width)) * scale
    prototypes[rng.random((n_rows, width)) < 0.25] = 0.0
    prototypes[rng.random(n_rows) < 0.2] = prototype
    same = rng.random(n_rows) < 0.2
    prototypes[same] = rows[same]
    if not draw(st.booleans()):
        prototypes[rng.random(n_rows) < 0.2] = 0.0
    return rows, prototype, query, prototypes


def one_by_one(fn, rows, *args):
    return np.array([fn(row, *args) for row in rows])


def row_by_row(fn, rows, prototypes, *args):
    return np.array([fn(row, prototype, *args) for row, prototype in zip(rows, prototypes)])


@settings(max_examples=150, deadline=None)
@given(case=rows_prototype_query())
def test_matrix_gives_the_bits_of_per_row_calls(case):
    rows, prototype, query, prototypes = case
    for fn in (euclidean, count_diffs):
        assert fn(rows, query).tobytes() == one_by_one(fn, rows, query).tobytes()
        assert fn(rows, prototypes).tobytes() == row_by_row(fn, rows, prototypes).tobytes()
    assert norm(rows).tobytes() == one_by_one(norm, rows).tobytes()
    z = ((rows - query) * 40.0).ravel()
    assert sigmoid(z).tobytes() == one_by_one(sigmoid, z).tobytes()
    # one prototype for every row, then one prototype per row
    for paired in (prototype, prototypes):
        per_row = np.broadcast_to(paired, rows.shape)
        scoreable = np.any(rows != 0.0, axis=1) & np.any(per_row != 0.0, axis=1)
        if not scoreable.all():
            with pytest.raises(ValueError, match="zero-norm"):
                cosine(rows, paired)
        if not scoreable.any():
            continue
        kept, per_row = rows[scoreable], per_row[scoreable]
        if paired.ndim == 2:
            paired = paired[scoreable]
        assert cosine(kept, paired).tobytes() == row_by_row(cosine, kept, per_row).tobytes()
        for fn in (fcs, ncs, rss):
            assert fn(kept, paired, query).tobytes() == row_by_row(
                fn, kept, per_row, query
            ).tobytes()
        for tag in RULES:
            rule = ScoreRule(tag)
            assert rule.score(kept, paired, query).tobytes() == row_by_row(
                rule.score, kept, per_row, query
            ).tobytes()


def test_vector_gives_a_python_number_and_matrix_an_array():
    assert isinstance(cosine(QUERY, PROTO), float)
    assert isinstance(count_diffs(QUERY, PROTO), int)
    assert isinstance(ScoreRule("rss").score(QUERY, PROTO, QUERY), float)
    both = np.array([QUERY, PROTO])
    assert ScoreRule("ncs").score(both, PROTO, QUERY).shape == (2,)
    assert count_diffs(both, QUERY).tolist() == [0, 3]


def test_matrix_width_must_match_the_vector():
    with pytest.raises(ValueError, match="shapes differ"):
        euclidean(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match="shapes differ"):
        cosine(np.ones((2, 3)), np.ones((3, 3)))
    with pytest.raises(ValueError, match="shapes differ"):
        euclidean(np.ones(3), np.ones((2, 3)))
