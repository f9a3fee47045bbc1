"""Counterfactual generation: prototype selection and greedy path search.

A counterfactual candidate is described by a path mask over the feature
axis: bit 0 takes the prototype's value, bit 1 keeps the query's value.
Features are partitioned into contiguous groups of at most ``depth``
entries; within each group every admissible local mask is scored and
ranked, which is behaviourally identical to walking every root-to-leaf
path of the full binary tree over that group (the masks ARE the paths,
enumerated in ascending binary order). A mask whose filled slice, or
whose prototype slice, has zero norm cannot be scored by any rule and is
skipped. A full-length path's total is the left-to-right sum of its group
scores. The top ``budget`` paths by total are drawn with an exact merge,
one group at a time, so the first draw is the splice of the per-group
winners. The drawn vectors are checked against the validation model in
one batched call, and the first one it accepts, in draw order, is the
counterfactual.

One fallback rule covers every other case: a group with no scoreable
mask, or no accepted draw, gives the prototype itself with its immutable
features pinned to the query.

Immutable features always keep the query's value: their path bits are
forced to 1 in every mask considered.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .models import ClassifierModel
from .scoring import (
    EUCLIDEAN,
    FCS_SPARSITY_CORRECTED,
    ScoreRule,
    cosine,
    count_diffs,
    distance_fn,
    norm,
)
from .tabular import EncodedDataset

PREFERENCES = ("a", "b", "c", "d", "e")

# preference -> (prototype ranking, scoring rule):
#   a: fewest differing features, fcs    b: nearest, ncs
#   c: highest target probability, rss   d: highest cosine similarity, rss
#   e: nearest to target centroid, rss
RULE_BY_PREFERENCE = {"a": "fcs", "b": "ncs", "c": "rss", "d": "rss", "e": "rss"}

MIN_DEPTH, MAX_DEPTH = 3, 9  # a group spans at most 2^9 local masks


class AlreadyTargetWarning(UserWarning):
    """The query is already classified as the target class."""


@dataclass(frozen=True)
class GenerationConfig:
    preference: str
    depth: int = 3
    num_ces: int = 5
    distance: str = EUCLIDEAN
    fcs_variant: str = FCS_SPARSITY_CORRECTED
    budget: int = 64

    def __post_init__(self):
        if self.preference not in PREFERENCES:
            raise ValueError(f"unknown preference {self.preference!r}, expected one of {PREFERENCES}")
        if not MIN_DEPTH <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must lie in [{MIN_DEPTH}, {MAX_DEPTH}], got {self.depth}")
        if self.num_ces < 1:
            raise ValueError("num_ces must be positive")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        distance_fn(self.distance)

    def score_rule(self) -> ScoreRule:
        return ScoreRule(
            tag=RULE_BY_PREFERENCE[self.preference],
            distance=self.distance,
            fcs_variant=self.fcs_variant,
        )


@dataclass(frozen=True)
class CandidateCE:
    """One generated counterfactual with its provenance."""

    vector: np.ndarray
    path: tuple  # bits over {0, 1}; 0 = prototype value, 1 = query value
    prototype_index: int
    score: float
    validated: bool
    fallback: bool = False


def select_prototypes(
    data: EncodedDataset,
    query: np.ndarray,
    preference: str,
    model: ClassifierModel,
    count: int,
    distance: str = EUCLIDEAN,
) -> list[int]:
    """Rank target-class rows by the preference rule; return top row indices.

    Rows that differ from the query on an immutable feature rank after
    conforming rows regardless of the preference score.
    """
    if preference not in PREFERENCES:
        raise ValueError(f"unknown preference {preference!r}")
    query = np.asarray(query, dtype=float)
    candidates = np.flatnonzero(data.target_mask())
    if len(candidates) == 0:
        raise ValueError("dataset has no target-class rows")
    if count > len(candidates):
        raise ValueError(f"requested {count} prototypes but only {len(candidates)} target rows")
    if model.predict(query) == data.target_class:
        warnings.warn(
            "query is already classified as the target class; explaining it anyway",
            AlreadyTargetWarning,
            stacklevel=2,
        )

    dist = distance_fn(distance)
    rows = data.X[candidates]
    if preference == "a":
        keys = count_diffs(rows, query)
    elif preference == "b":
        keys = dist(rows, query)
    elif preference == "c":
        keys = -model.predict_proba_rows(rows)
    elif preference == "d":
        # zero-norm rows have no defined similarity; rank them last
        keys = np.full(len(rows), 2.0)
        scoreable = norm(rows) != 0.0
        if norm(query) != 0.0:
            keys[scoreable] = -cosine(rows[scoreable], query)
    else:
        keys = dist(rows, data.target_centroid)
    immutable = data.immutable_mask()
    conflicts = np.any(rows[:, immutable] != query[immutable], axis=1)
    # lexsort is stable and candidates ascend, so ties keep the lower row index
    order = np.lexsort((keys, conflicts))
    return candidates[order[:count]].tolist()


def partition_features(n_features: int, depth: int) -> list[list[int]]:
    """Contiguous index groups of size ``depth``, plus a shorter remainder group."""
    if n_features < 1:
        raise ValueError("need at least one feature")
    if not MIN_DEPTH <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must lie in [{MIN_DEPTH}, {MAX_DEPTH}], got {depth}")
    return [list(range(s, min(s + depth, n_features))) for s in range(0, n_features, depth)]


def _fill(prototype: np.ndarray, query: np.ndarray, path) -> np.ndarray:
    """Componentwise select: path bit 0 takes the prototype, bit 1 the query."""
    return np.where(np.asarray(path) == 1, query, prototype)


def _group_scores(
    proto_slice: np.ndarray, query_slice: np.ndarray, masks: np.ndarray, rule: ScoreRule
) -> tuple[np.ndarray, np.ndarray]:
    """Score the rows of a local mask matrix with one rule call and rank
    them: descending score, then more query-side bits, then input order.

    No rule can score a zero-norm vector, so a zero-norm prototype slice
    gives no rows at all and a mask whose fill has zero norm is dropped.
    """
    if norm(proto_slice) == 0.0:
        return np.empty(0), masks[:0]
    candidates = _fill(proto_slice, query_slice, masks)
    scoreable = norm(candidates) != 0.0
    scores = rule.score(candidates[scoreable], proto_slice, query_slice)
    masks = masks[scoreable]
    order = np.lexsort((-masks.sum(axis=1), -scores))
    return scores[order], masks[order]


def ranked_path_combinations(
    prototype: np.ndarray,
    query: np.ndarray,
    groups: Sequence[Sequence[int]],
    rule: ScoreRule,
    immutable_mask: np.ndarray,
    budget: int,
) -> Iterator[tuple[tuple, float]]:
    """Yield the ``budget`` best full-length paths, best total first.

    Each group's admissible masks (bit 1 at every immutable position) are
    ranked by descending score, then more query-side bits, then ascending
    binary order. A path's total is the left-to-right sum of its group
    scores, starting at 0.0. Totals never increase along the draw; equal
    totals keep the previous group's rank of their prefix, then this
    group's rank, so the first draw is the splice of the per-group
    winners. Nothing is yielded when some group has no scoreable mask.

    Keeping only the ``budget`` best rows after each group is exact,
    because float addition is monotone: if a prefix P is cut, ``budget``
    kept prefixes rank before it, and each of them plus a mask c ranks
    before P plus c. The same argument cuts each group to its ``budget``
    best masks before the merge.
    """
    totals, paths = np.zeros(1), np.zeros((1, 0), dtype=int)
    for g in groups:
        # rows count up in binary, the order of product((0, 1), repeat=len(g))
        local = np.arange(2 ** len(g))[:, None] >> np.arange(len(g) - 1, -1, -1) & 1
        admissible = local[np.all(local >= immutable_mask[g], axis=1)]
        scores, masks = _group_scores(prototype[g], query[g], admissible, rule)
        if len(scores) == 0:
            return
        scores, masks = scores[:budget], masks[:budget]
        totals = (totals[:, None] + scores).ravel()
        keep = np.argsort(-totals, kind="stable")[:budget]
        prefix, rank = np.divmod(keep, len(scores))
        totals, paths = totals[keep], np.hstack((paths[prefix], masks[rank]))
    for path, total in zip(paths.tolist(), totals.tolist()):
        yield tuple(path), total


def generate(
    data: EncodedDataset,
    query: np.ndarray,
    config: GenerationConfig,
    validation_model: ClassifierModel,
) -> list[CandidateCE]:
    """Produce up to ``num_ces`` counterfactuals for one encoded query.

    One candidate per ranked prototype: the first of its ``budget``
    best-scoring combinations that the model accepts, or the fallback
    described in the module docstring. Output is deduplicated on vectors
    and deterministic for a fixed configuration.
    """
    query = np.asarray(query, dtype=float)
    if query.shape != (data.n_features,):
        raise ValueError("query length does not match the dataset schema")
    prototypes = select_prototypes(
        data, query, config.preference, validation_model, config.num_ces, config.distance
    )
    groups = partition_features(data.n_features, config.depth)
    rule = config.score_rule()
    immutable = data.immutable_mask()

    results = []
    for proto_idx in prototypes:
        prototype = data.X[proto_idx]
        chosen = None
        drawn = list(
            ranked_path_combinations(prototype, query, groups, rule, immutable, config.budget)
        )
        if drawn:
            vectors = _fill(prototype, query, [path for path, _ in drawn])
            accepted = np.flatnonzero(validation_model.predicts_target(vectors))
            if len(accepted):
                path, total = drawn[accepted[0]]
                chosen = CandidateCE(vectors[accepted[0]], path, proto_idx, total, validated=True)
        if chosen is None:
            # No scoreable mask in some group, or no accepted draw: fall back
            # to the prototype with immutable features pinned to the query
            # (the prototype verbatim when it already conforms). It is a
            # genuine target-class row, though the model may still disagree;
            # the validated flag records the check.
            path = tuple(int(b) for b in immutable)
            vector = _fill(prototype, query, path)
            total = 0.0
            for g in groups:
                scores, _ = _group_scores(prototype[g], query[g], immutable[None, g], rule)
                total += scores[0].item() if len(scores) else float("-inf")
            chosen = CandidateCE(
                vector,
                path,
                proto_idx,
                total,
                validated=validation_model.predict(vector) == data.target_class,
                fallback=True,
            )
        results.append(chosen)

    deduped, seen = [], set()
    for ce in results:
        key = ce.vector.tobytes()
        if key not in seen:
            seen.add(key)
            deduped.append(ce)
    return deduped

