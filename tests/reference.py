"""The frozen scalar generator that ``tcol.engine.generate`` is compared
against bit for bit, its parts, and the grid cases it is compared on.

The reference ranks prototypes one row at a time, ranks one group's masks
for one prototype at a time, merges one prototype's groups one at a time
from a 0.0 start, and calls ``predict`` once per drawn path until one
validates. It takes the group partition as an argument, so a change to the
grouping or to the draw is taught to this one module. It keeps its own
fill and path total, independent of the engine's.

``conftest.py`` registers this module for pytest's assertion rewriting,
so a failing ``assert_same_ces`` prints both sides.
"""

import zlib

import numpy as np
from hypothesis import strategies as st

from conftest import make_encoded
from tcol.engine import PREFERENCES, CandidateCE, GenerationConfig
from tcol.models import ClassifierModel, RandomForest
from tcol.scoring import cosine, count_diffs, euclidean, norm


def feature_groups(n_features, depth):
    """The documented grouping: contiguous runs of ``depth`` features, then a shorter remainder."""
    return [list(range(s, min(s + depth, n_features))) for s in range(0, n_features, depth)]


def fill(prototype, query, path):
    """Componentwise select: path bit 0 takes the prototype, bit 1 the query."""
    return np.where(np.asarray(path) == 1, query, prototype)


def path_total(prototype, query, groups, rule, path):
    """A path's total, scored group by group: the left-to-right sum of its
    group scores from 0.0, where a group whose prototype slice or fill has
    zero norm adds -inf."""
    total = 0.0
    for g in groups:
        candidate = fill(prototype[g], query[g], np.asarray(path)[g])
        if norm(prototype[g]) == 0.0 or norm(candidate) == 0.0:
            total += float("-inf")
        else:
            total += rule.score(candidate, prototype[g], query[g])
    return total


def ranked_masks(proto_slice, query_slice, immutable, rule):
    """One group's admissible masks for one prototype, as ``(scores,
    masks)`` ranked by descending score, then more query-side bits, then
    ascending binary order. No rule can score a zero-norm vector, so a
    zero-norm prototype slice gives no masks and a mask whose fill has zero
    norm is dropped."""
    k = len(immutable)
    local = np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1) & 1
    masks = local[np.all(local >= immutable, axis=1)]
    fills = fill(proto_slice, query_slice, masks)
    keep = (norm(fills) != 0.0) & (norm(proto_slice) != 0.0)
    if not keep.any():
        return np.zeros(0), masks[:0]
    masks, scores = masks[keep], rule.score(fills[keep], proto_slice, query_slice)
    order = np.lexsort((-masks.sum(axis=1), -scores))
    return scores[order], masks[order]


def merge(ranked, groups, budget):
    """Yield one prototype's ``budget`` best paths and their totals, best
    first, from the ``ranked_masks`` of each of ``groups``, merged one group
    at a time; nothing when a group has no mask. The merge joins masks in
    group order, and each bit goes back to its feature through ``groups``."""
    totals, bits = np.zeros(1), np.zeros((1, 0), dtype=int)
    for scores, masks in ranked:
        if len(scores) == 0:
            return
        scores, masks = scores[:budget], masks[:budget]
        totals = (totals[:, None] + scores).ravel()
        keep = np.argsort(-totals, kind="stable")[:budget]
        prefix, rank = np.divmod(keep, len(scores))
        totals, bits = totals[keep], np.hstack((bits[prefix], masks[rank]))
    paths = np.empty_like(bits)
    paths[:, np.concatenate(groups)] = bits
    yield from zip(map(tuple, paths.tolist()), totals.tolist())


def sequential_generate(data, query, config, model, groups=None):
    """``generate`` one prototype and one drawn path at a time: scalar
    prototype ranking, then one ``predict`` per drawn path until one
    validates, else the fallback. ``groups`` is the feature partition,
    by default ``feature_groups(n_features, depth)``."""
    query = np.asarray(query, dtype=float)
    if groups is None:
        groups = feature_groups(data.n_features, config.depth)
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
    rule = config.score_rule()
    deduped, seen = [], set()
    for proto_idx in prototypes:
        prototype = data.X[proto_idx]
        ranked = [ranked_masks(prototype[g], query[g], immutable[g], rule) for g in groups]
        for path, total in merge(ranked, groups, config.budget):
            vector = fill(prototype, query, path)
            if model.predict(vector) == data.target_class:
                chosen = CandidateCE(vector, path, proto_idx, total, validated=True)
                break
        else:
            path = tuple(int(b) for b in immutable)
            vector = fill(prototype, query, path)
            total = path_total(prototype, query, groups, rule, path)
            validated = model.predict(vector) == data.target_class
            chosen = CandidateCE(vector, path, proto_idx, total, validated=validated, fallback=True)
        if chosen.vector.tobytes() not in seen:
            seen.add(chosen.vector.tobytes())
            deduped.append(chosen)
    return deduped


def ce_record(ce):
    """Everything a CE holds, its vector and its score as bytes."""
    return (ce.vector.tobytes(), ce.path, ce.prototype_index, np.float64(ce.score).tobytes(), ce.validated, ce.fallback)


def assert_same_ces(actual, expected):
    assert [ce_record(ce) for ce in actual] == [ce_record(ce) for ce in expected]


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


# The edges of the merge's seed, the first group's ranked masks, that
# ``grid_cases`` can put a case at.
SEED_EDGES = (
    "budget-one",
    "budget-above-the-first-group",
    "first-group-unscoreable",
    "immutable-in-the-first-group",
    "two-blocks",
    "negative-zero",
)


@st.composite
def grid_cases(draw, edge=None, byte_hash=True):
    """``(data, query, config, model)`` on the grid {0, 0.5, 1}, where score
    ties, components the prototype and the query share, and draws that
    fill the same vector abound. The model is a small forest fitted on the
    data or, with ``byte_hash``, maybe a ``ByteHashModel``.

    Every case may hold target rows, but not all, with a zero slice in one
    feature group, target rows that copy another, a zero query group, and
    -0.0 in place of some of the query's zeros, which a prototype's 0.0
    does not copy. So some prototype slices and some fills have zero norm,
    and equal prototypes are deduplicated. Without an edge, the depth runs
    up to 9 and most feature counts leave a shorter remainder group, so
    two group widths share a query.

    An ``edge`` of ``SEED_EDGES`` puts the case at that edge of the merge's
    seed, with the depth up to 5: a budget of 1 or above the first group's
    mask count, a zero first slice in every target row but one, an
    immutable feature in the first group, a feature count that is no
    multiple of the depth (the other edges take a multiple), or a query
    whose first component is -0.0 where every target row holds 0.0."""
    depth = draw(st.integers(3, 9 if edge is None else 5))
    if edge is None:
        n_features = draw(st.integers(depth, 3 * depth + 1))
    elif edge == "two-blocks":
        n_features = depth * draw(st.integers(1, 2)) + draw(st.integers(1, depth - 1))
    else:
        n_features = depth * draw(st.integers(1, 3))
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
    query[(query == 0.0) & (rng.random(n_features) < draw(st.sampled_from([0.0, 0.5, 1.0])))] = -0.0
    immutable = rng.random(n_features) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    if edge == "first-group-unscoreable":
        X[1:n_target, :depth] = 0.0
    elif edge == "immutable-in-the-first-group":
        immutable[rng.integers(0, depth)] = True
    elif edge == "negative-zero":
        X[:n_target, 0], query[0] = 0.0, -0.0
    budgets = {
        "budget-one": st.just(1),
        "budget-above-the-first-group": st.integers(2**depth + 1, 2 ** (depth + 1)),
    }
    config = GenerationConfig(
        preference=draw(st.sampled_from(PREFERENCES)),
        depth=depth,
        num_ces=num_ces,
        budget=draw(budgets.get(edge, st.sampled_from([1, 2, 7, 64]))),
    )
    if byte_hash and draw(st.booleans()):
        model = ByteHashModel(draw(st.integers(2, 6)))
    else:
        model = RandomForest(n_trees=5, max_depth=4, seed=draw(st.integers(0, 3))).fit(X, y, "yes")
    return make_encoded(X, y, immutable=tuple(np.flatnonzero(immutable))), query, config, model
