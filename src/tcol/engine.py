"""Counterfactual generation: prototype selection and greedy path search.

A counterfactual candidate is described by a path mask over the feature
axis: bit 0 takes the prototype's value, bit 1 keeps the query's value.
Features are partitioned into contiguous groups of at most ``depth``
entries; within each group every admissible local mask is scored and
ranked, which is behaviourally identical to walking every root-to-leaf
path of the full binary tree over that group (the masks ARE the paths,
enumerated in ascending binary order). Each group is scored for every
prototype in one rule call, each fill paired with its own prototype row.
A mask whose filled slice, or whose prototype slice, has zero norm cannot
be scored by any rule and is skipped. A full-length path's total is the
left-to-right sum of its group scores. Per prototype, the top ``budget``
paths by total are drawn with an exact merge, one group at a time, so the
first draw is the splice of the per-group winners. The fallback, the
prototype itself with its immutable features pinned to the query, is
drawn last, outside the merge. Every prototype's draws are checked against
the validation model in one batched call: per prototype, the first one it
accepts, in draw order, is the counterfactual, and the fallback stands
unvalidated when it accepts none.

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
        self.score_rule()  # checks the distance and the fcs variant

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


def _check_verbatim(vector, path, prototype, query, proto_idx) -> None:
    """Raise ``RuntimeError`` unless every component of ``vector`` is, bit
    for bit, the query's where ``path`` has a 1 and the prototype's where
    it has a 0."""
    if vector.tobytes() != np.where(np.asarray(path) == 1, query, prototype).tobytes():
        raise RuntimeError(
            f"counterfactual from prototype {proto_idx} is not a verbatim copy of "
            f"the query and the prototype along its path {path}"
        )


def _group_scores(
    proto_slices: np.ndarray, query_slice: np.ndarray, masks: np.ndarray, rule: ScoreRule
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Score one group's local masks for every prototype with one rule call.

    ``proto_slices`` holds one prototype's slice of the group per row. Each
    prototype's masks are ranked by descending score, then more query-side
    bits, then input order, and given as ``(scores, masks)``. No rule can
    score a zero-norm vector, so a zero-norm prototype slice gives no rows
    at all and a mask whose fill has zero norm is dropped. Also returned:
    each prototype's score of mask row 0, -inf where it was dropped.
    """
    n_protos, n_masks = len(proto_slices), len(masks)
    fills = _fill(proto_slices[:, None, :], query_slice, masks).reshape(n_protos * n_masks, -1)
    owner = np.repeat(np.arange(n_protos), n_masks)
    keep = np.repeat(norm(proto_slices) != 0.0, n_masks) & (norm(fills) != 0.0)
    scores = rule.score(fills[keep], proto_slices[owner[keep]], query_slice)
    full = np.full(n_protos * n_masks, -np.inf)
    full[keep] = scores
    masks, owner = np.tile(masks, (n_protos, 1))[keep], owner[keep]
    order = np.lexsort((-masks.sum(axis=1), -scores, owner))
    bounds = np.cumsum(np.bincount(owner, minlength=n_protos))[:-1]
    ranked = zip(np.split(scores[order], bounds), np.split(masks[order], bounds))
    return list(ranked), full[::n_masks]


def _admissible_masks(immutable: np.ndarray) -> np.ndarray:
    """A group's local masks with bit 1 at every immutable position, as
    rows in ascending binary order (that of ``product((0, 1), repeat=k)``),
    so row 0 is the group's immutable-only mask."""
    k = len(immutable)
    local = np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1) & 1
    return local[np.all(local >= immutable, axis=1)]


def ranked_path_combinations(
    ranked: Sequence[tuple[np.ndarray, np.ndarray]], budget: int
) -> Iterator[tuple[tuple, float]]:
    """Yield the ``budget`` best full-length paths, best total first.

    ``ranked`` holds each group's ``(scores, masks)`` from ``_group_scores``,
    in group order: its admissible masks (bit 1 at every immutable position)
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


def generate(
    data: EncodedDataset,
    query: np.ndarray,
    config: GenerationConfig,
    validation_model: ClassifierModel,
) -> list[CandidateCE]:
    """Produce up to ``num_ces`` counterfactuals for one encoded query.

    One candidate per ranked prototype: its ``budget`` best-scoring
    combinations are drawn and the fallback is drawn last. Each feature
    group is scored for all prototypes in one rule call, and the draws of
    all prototypes are validated in one model call (a second call checks
    whether the query is already of the target class). Per prototype, the
    first accepted row wins, and the fallback, unvalidated, when none is
    accepted. Output is deduplicated on vectors and deterministic for a
    fixed configuration. A kept candidate that is not a verbatim copy of
    the query and the prototype along its path raises ``RuntimeError``.
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
    admissible = [_admissible_masks(immutable[g]) for g in groups]
    fallback_path = tuple(int(b) for b in immutable)

    rows = data.X[prototypes]
    scored = [
        _group_scores(rows[:, g], query[g], masks, rule) for g, masks in zip(groups, admissible)
    ]
    # Each group's immutable-only mask (row 0 of its admissible masks) can
    # rank below the budget cut, so the fallback reads the full scores,
    # summed group by group from 0.0.
    fallback_totals = np.zeros(len(prototypes))
    for _, fallback_scores in scored:
        fallback_totals = fallback_totals + fallback_scores
    drawn = [
        [
            *ranked_path_combinations([ranked[i] for ranked, _ in scored], config.budget),
            (fallback_path, total),
        ]
        for i, total in enumerate(fallback_totals.tolist())
    ]
    counts = [len(d) for d in drawn]
    paths = np.array([path for d in drawn for path, _ in d])
    vectors = _fill(np.repeat(rows, counts, axis=0), query, paths)
    accepted = validation_model.predicts_target(vectors)

    results, start = [], 0
    for proto_idx, prototype, candidates in zip(prototypes, rows, drawn):
        stop = start + len(candidates)
        hits = np.flatnonzero(accepted[start:stop])
        # The fallback is a genuine target-class row, though the model may
        # still disagree; the validated flag records the check.
        first = int(hits[0]) if len(hits) else len(candidates) - 1
        path, total = candidates[first]
        vector = vectors[start + first]
        _check_verbatim(vector, path, prototype, query, proto_idx)
        validated, fallback = bool(len(hits)), first == len(candidates) - 1
        results.append(CandidateCE(vector, path, proto_idx, total, validated, fallback))
        start = stop

    deduped, seen = [], set()
    for ce in results:
        key = ce.vector.tobytes()
        if key not in seen:
            seen.add(key)
            deduped.append(ce)
    return deduped
