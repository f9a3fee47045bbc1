"""Counterfactual generation: prototype selection and greedy path search.

A counterfactual candidate is described by a path mask over the feature
axis: bit 0 takes the prototype's value, bit 1 keeps the query's value.
Features are partitioned into contiguous groups of at most ``depth``
entries; within each group every one of the 2^depth local masks is scored
and the best is kept, which is behaviourally identical to walking every
root-to-leaf path of the full binary tree over that group (the masks ARE
the paths, enumerated in ascending binary order) while using O(depth)
memory. Full-length paths are drawn best total (summed local) score
first, starting with the splice of the per-group winners, up to a
candidate budget. The drawn vectors are checked against the validation
model in one batched call, and the first one it accepts, in draw order,
is the counterfactual. When none is accepted, or when the prototype has a
zero-norm group slice that no rule can score, the prototype itself with
its immutable features pinned to the query is the fallback.

Immutable features always keep the query's value: their path bits are
forced to 1 in every mask considered.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from itertools import islice, product
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
)
from .tabular import EncodedDataset

PathMask = tuple  # bits over {0, 1}; 0 = prototype value, 1 = query value

PREFERENCES = ("a", "b", "c", "d", "e")

# preference -> (prototype ranking, scoring rule):
#   a: fewest differing features, fcs    b: nearest, ncs
#   c: highest target probability, rss   d: highest cosine similarity, rss
#   e: nearest to target centroid, rss
RULE_BY_PREFERENCE = {"a": "fcs", "b": "ncs", "c": "rss", "d": "rss", "e": "rss"}

MIN_DEPTH, MAX_DEPTH = 3, 9
MAX_GROUP = 9  # memory guard: a group spans at most 2^9 local paths


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
    path: PathMask
    prototype_index: int
    score: float
    validated: bool
    fallback: bool = False


def centroid(data: EncodedDataset) -> np.ndarray:
    """Componentwise mean of the encoded target-class rows."""
    rows = data.X[data.target_mask()]
    if len(rows) == 0:
        raise ValueError("no target-class rows to average")
    return rows.mean(axis=0)


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
    if preference == "e":
        center = centroid(data)

    def rank_key(row: np.ndarray) -> float:
        if preference == "a":
            return float(count_diffs(row, query))
        if preference == "b":
            return dist(row, query)
        if preference == "d":
            # zero-norm rows have no defined similarity; rank them last
            if np.linalg.norm(row) == 0.0 or np.linalg.norm(query) == 0.0:
                return 2.0
            return -cosine(row, query)
        return dist(row, center)

    rows = data.X[candidates]
    if preference == "c":
        keys = -model.predict_proba_rows(rows)
    else:
        keys = np.array([rank_key(row) for row in rows])
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


def enumerate_local_paths(group_len: int) -> list[PathMask]:
    """All 2^group_len masks in ascending binary order, all-prototype first."""
    if not 1 <= group_len <= MAX_GROUP:
        raise ValueError(f"group length must lie in [1, {MAX_GROUP}], got {group_len}")
    return [mask for mask in product((0, 1), repeat=group_len)]


def _fill(prototype: np.ndarray, query: np.ndarray, path) -> np.ndarray:
    bits = np.asarray(path)
    return np.where(bits == 1, query, prototype)


def fill_ce(prototype, query, path: Sequence[int]) -> np.ndarray:
    """Componentwise select: path bit 0 takes the prototype, bit 1 the query."""
    prototype = np.asarray(prototype, dtype=float)
    query = np.asarray(query, dtype=float)
    if prototype.shape != query.shape or len(path) != len(prototype):
        raise ValueError("prototype, query, and path lengths must match")
    if any(b not in (0, 1) for b in path):
        raise ValueError("path bits must be 0 or 1")
    return _fill(prototype, query, path)


def splice_paths(local_paths: Sequence[PathMask], expected_length: int | None = None) -> PathMask:
    """Concatenate per-group paths, in group order, into one full-length path."""
    full = tuple(bit for path in local_paths for bit in path)
    if expected_length is not None and len(full) != expected_length:
        raise ValueError(f"spliced path has length {len(full)}, expected {expected_length}")
    return full


def _scored_paths(
    proto_slice: np.ndarray,
    query_slice: np.ndarray,
    rule: ScoreRule,
    immutable_slice: np.ndarray | None,
) -> list[tuple[float, PathMask]]:
    """Score every admissible local mask; best first.

    Admissible means bit 1 at every immutable position. Candidates with a
    zero-norm slice cannot be scored by any rule and are skipped. Ordering:
    descending score, then more query-side bits, then ascending binary.
    """
    if np.linalg.norm(proto_slice) == 0.0:
        raise ValueError("prototype slice has zero norm; similarity undefined")
    scored = []
    for index, mask in enumerate(enumerate_local_paths(len(proto_slice))):
        if immutable_slice is not None and any(
            imm and bit == 0 for imm, bit in zip(immutable_slice, mask)
        ):
            continue
        candidate = _fill(proto_slice, query_slice, mask)
        if np.linalg.norm(candidate) == 0.0:
            continue
        score = rule.score(candidate, proto_slice, query_slice)
        scored.append((score, sum(mask), index, mask))
    if not scored:
        raise ValueError("no scoreable path for feature group")
    scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
    return [(score, mask) for score, _, _, mask in scored]


def select_local_path(
    proto_slice,
    query_slice,
    rule: ScoreRule,
    immutable_mask: Sequence[bool] | None = None,
) -> PathMask:
    """Best-scoring local mask for one feature group.

    Ties prefer the mask with more query-side bits, then ascending binary
    order; immutable positions are constrained to the query side.
    """
    proto_slice = np.asarray(proto_slice, dtype=float)
    query_slice = np.asarray(query_slice, dtype=float)
    if proto_slice.shape != query_slice.shape:
        raise ValueError("slice lengths differ")
    imm = None if immutable_mask is None else np.asarray(immutable_mask, dtype=bool)
    if imm is not None and len(imm) != len(proto_slice):
        raise ValueError("immutable mask length differs from slice length")
    return _scored_paths(proto_slice, query_slice, rule, imm)[0][1]


def ranked_path_combinations(
    prototype: np.ndarray,
    query: np.ndarray,
    groups: Sequence[Sequence[int]],
    rule: ScoreRule,
    immutable_mask: np.ndarray,
) -> Iterator[tuple[PathMask, float]]:
    """Yield full-length paths in descending total (summed local) score.

    Lazy best-first product over the per-group ranked path lists, so the
    first yield is exactly the splice of the per-group winners and only
    O(drawn) combinations are ever materialized.
    """
    per_group = [
        _scored_paths(prototype[g], query[g], rule, immutable_mask[g]) for g in groups
    ]
    start = (0,) * len(groups)
    heap = [(-sum(paths[0][0] for paths in per_group), start)]
    seen = {start}
    while heap:
        neg_total, choice = heapq.heappop(heap)
        full = splice_paths([per_group[g][c][1] for g, c in enumerate(choice)])
        yield full, -neg_total
        for g, c in enumerate(choice):
            if c + 1 >= len(per_group[g]):
                continue
            succ = choice[:g] + (c + 1,) + choice[g + 1 :]
            if succ in seen:
                continue
            seen.add(succ)
            delta = per_group[g][c + 1][0] - per_group[g][c][0]
            heapq.heappush(heap, (neg_total - delta, succ))


def _immutable_only_path(immutable_mask: np.ndarray) -> PathMask:
    return tuple(1 if imm else 0 for imm in immutable_mask)


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
        # a zero-norm group slice has no similarity under any rule
        if not any(np.linalg.norm(prototype[g]) == 0.0 for g in groups):
            ranked = ranked_path_combinations(prototype, query, groups, rule, immutable)
            drawn = list(islice(ranked, config.budget))
            vectors = np.array([_fill(prototype, query, path) for path, _ in drawn])
            accepted = np.flatnonzero(validation_model.predicts_target(vectors))
            if len(accepted):
                path, total = drawn[accepted[0]]
                chosen = CandidateCE(vectors[accepted[0]], path, proto_idx, total, validated=True)
        if chosen is None:
            # Budget exhausted or prototype unscoreable: fall back to the
            # prototype with immutable features pinned to the query (the
            # prototype verbatim when it already conforms). It is a genuine
            # target-class row, though the model may still disagree; the
            # validated flag records the check.
            path = _immutable_only_path(immutable)
            vector = _fill(prototype, query, path)
            total = _total_score(prototype, query, groups, rule, path)
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


def _total_score(prototype, query, groups, rule, path) -> float:
    total = 0.0
    for g in groups:
        candidate = _fill(prototype[g], query[g], [path[i] for i in g])
        try:
            total += rule.score(candidate, prototype[g], query[g])
        except ValueError:  # zero-norm slice: contributes the worst score
            total += float("-inf")
    return total
