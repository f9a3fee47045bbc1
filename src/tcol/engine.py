"""Counterfactual generation: prototype selection and greedy path search.

A counterfactual candidate is described by a path mask over the feature
axis: bit 0 takes the prototype's value, bit 1 keeps the query's value.
Features are partitioned into contiguous groups of at most ``depth``
entries; within each group every admissible local mask is scored and
ranked, which is behaviourally identical to walking every root-to-leaf
path of the full binary tree over that group (the masks ARE the paths).
All groups of one width are scored for every prototype in one rule call,
each fill paired with its own prototype slice and its group's query
slice. A mask whose filled slice, or whose prototype slice, has zero norm
cannot be scored by any rule and is never drawn. A full-length path's
total is the left-to-right sum of its group scores. The top ``budget``
paths by total are drawn for every prototype at once with an exact
merge, one group at a time, so a prototype's first draw is the splice of
its per-group winners. The fallback, the prototype itself with its
immutable features pinned to the query, is drawn last, outside the
merge. Every prototype's draws are checked against the validation model
in one batched call: per prototype, the first one it accepts, in draw
order, is the counterfactual, and the fallback stands unvalidated when
it accepts none.

Immutable features always keep the query's value: their path bits are
forced to 1 in every mask considered.
"""

from __future__ import annotations

import functools
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


def _blocks(n_features: int, depth: int) -> list[tuple[int, int, int]]:
    """``(first feature, width, count)`` of the full groups, then of the
    shorter remainder group, if any: the groups as runs of one width."""
    n_full, rest = divmod(n_features, depth)
    return [(s, k, n) for s, k, n in ((0, depth, n_full), (n_full * depth, rest, 1)) if k and n]


@functools.cache
def _local_masks(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Width ``k``'s ``2**k`` local masks, ordered by more query-side bits,
    then ascending binary order; a mask's code is its place in this order.
    Returned: the masks as bit rows and as integers (whose binary digits
    are the bits), both indexed by code, and the code of each integer."""
    bits = np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1) & 1
    ints = np.argsort(-bits.sum(axis=1), kind="stable")
    tables = bits[ints], ints, np.argsort(ints)
    for table in tables:
        table.flags.writeable = False
    return tables


def _group_scores(
    rows: np.ndarray, query: np.ndarray, immutable: np.ndarray, depth: int, rule: ScoreRule
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    """Score every local mask of every group for every prototype (a row of
    ``rows``), with one rule call per group width.

    Per group, in group order: ``(scores, codes)`` with one row per
    prototype, its masks ranked by descending score, then more query-side
    bits, then ascending binary order. An inadmissible mask (bit 0 at an
    immutable position), and one whose fill or prototype slice has zero
    norm, scores -inf and so ranks last. Also returned: the fallback path
    (each group's immutable-only mask) as one code per group, and each
    prototype's raw score of those masks, one column per group.
    """
    n_protos = len(rows)
    ranked, fallback_codes, fallback_scores = [], [], []
    for start, k, n in _blocks(len(query), depth):
        # row i * n + j: prototype i's slice of group j of this width
        slices = rows[:, start : start + n * k].reshape(n_protos * n, k)
        group = np.arange(n_protos * n) % n
        queries = query[start : start + n * k].reshape(n, k)
        bits, ints, code = _local_masks(k)
        digits = 1 << np.arange(k - 1, -1, -1)
        pinned = immutable[start : start + n * k].reshape(n, k) @ digits
        # A norm sums non-negative squares, so it is 0.0 exactly when every
        # component squares to 0.0; these sets hold the components that do not.
        proto_nonzero = (slices * slices != 0.0) @ digits
        query_nonzero = (queries * queries != 0.0) @ digits
        keep = ((ints & pinned[:, None]) == pinned[:, None])[group] & (proto_nonzero[:, None] != 0)
        keep &= ((ints & query_nonzero[group, None]) | (~ints & proto_nonzero[:, None])) != 0
        row, mask = np.nonzero(keep)
        pairs = slices[row], queries[group[row]]
        scores = np.full(keep.shape, -np.inf)
        scores[row, mask] = rule.score(_fill(*pairs, bits[mask]), *pairs)
        order = np.argsort(-scores, axis=1, kind="stable")
        ranked_scores = scores[np.arange(len(order))[:, None], order]
        per_group = (a.reshape(n_protos, n, -1).swapaxes(0, 1) for a in (ranked_scores, order))
        ranked += zip(*per_group)
        fallback = code[pinned]
        fallback_codes.append(fallback)
        fallback_scores.append(scores[np.arange(len(scores)), fallback[group]].reshape(n_protos, n))
    return ranked, np.concatenate(fallback_codes), np.hstack(fallback_scores)


def _path_bits(codes: np.ndarray, n_features: int, depth: int) -> np.ndarray:
    """Path bits from mask codes: one row per path, one code per group."""
    return np.hstack(
        [
            _local_masks(k)[0][codes[:, s // depth : s // depth + n]].reshape(len(codes), n * k)
            for s, k, n in _blocks(n_features, depth)
        ]
    )


@functools.cache
def _merge_candidates(n_prefixes: int, n_masks: int, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The (prefix i, mask j) rank pairs, in row-major order, whose sum can
    be among the ``budget`` best: those with ``(i + 1) * (j + 1) <= budget``.
    Both rankings descend, so each of the other pairs at or before (i, j) in
    both sums to at least as much and ranks before it on ties."""
    prefix, rank = np.divmod(np.arange(n_prefixes * n_masks), n_masks)
    pairs = (prefix + 1) * (rank + 1) <= budget
    prefix, rank = prefix[pairs], rank[pairs]
    prefix.flags.writeable = rank.flags.writeable = False
    return prefix, rank


def ranked_path_combinations(
    ranked: Sequence[tuple[np.ndarray, np.ndarray]], budget: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield, per prototype, its ``budget`` best full-length paths, best
    total first, as ``(codes, totals)``, a path's mask codes in a row.

    ``ranked`` holds each group's ``(scores, codes)`` from ``_group_scores``,
    in group order. A path's total is the left-to-right sum of its group
    scores, starting at 0.0. Totals never increase along the draw; equal
    totals keep the previous group's rank of their prefix, then this
    group's rank, so the first draw is the splice of the per-group winners.
    A prototype with a group that has no scoreable mask gets empty arrays.

    Keeping only the ``budget`` best rows after each group is exact,
    because float addition is monotone: if a prefix P is cut, ``budget``
    kept prefixes rank before it, and each of them plus a mask c ranks
    before P plus c. The same argument cuts each group to its ``budget``
    best masks, and skips the sums of ``_merge_candidates``. The argument
    holds per prototype, and every prototype is merged at once: every real
    score is finite and at least 0, so a sum with a -inf score ranks after
    every real path and is never drawn.
    """
    n_protos = len(ranked[0][0])
    protos = np.arange(n_protos)[:, None]
    totals, codes = np.zeros((n_protos, 1)), np.zeros((n_protos, 1, 0), dtype=int)
    for scores, masks in ranked:
        scores, masks = scores[:, :budget], masks[:, :budget]
        prefix, rank = _merge_candidates(totals.shape[1], scores.shape[1], budget)
        sums = totals[:, prefix] + scores[:, rank]
        keep = np.argsort(-sums, axis=1, kind="stable")[:, :budget]
        totals, prefix, rank = sums[protos, keep], prefix[keep], rank[keep]
        codes = np.concatenate((codes[protos, prefix], masks[protos, rank][:, :, None]), axis=2)
    drawn = np.count_nonzero(totals > -np.inf, axis=1)
    for proto_codes, proto_totals, n in zip(codes, totals, drawn.tolist()):
        yield proto_codes[:n], proto_totals[:n]


def generate(
    data: EncodedDataset,
    query: np.ndarray,
    config: GenerationConfig,
    validation_model: ClassifierModel,
) -> list[CandidateCE]:
    """Produce up to ``num_ces`` counterfactuals for one encoded query.

    One candidate per ranked prototype: its ``budget`` best-scoring
    combinations are drawn and the fallback is drawn last. The groups of
    one width are scored for all prototypes in one rule call, and the draws
    of all prototypes are validated in one model call (a second call checks
    whether the query is already of the target class). Per prototype, the
    first accepted row wins, and the fallback, unvalidated, when none is
    accepted. Output is deduplicated on vectors and deterministic for a
    fixed configuration. A kept candidate that is not a verbatim copy of
    the query and the prototype along its path raises ``RuntimeError``, and
    a query with a non-finite component raises ``ValueError``.
    """
    query = np.asarray(query, dtype=float)
    if query.shape != (data.n_features,):
        raise ValueError("query length does not match the dataset schema")
    bad = np.flatnonzero(~np.isfinite(query))
    if len(bad):
        raise ValueError(f"query component {bad[0]} is not a finite number: {query[bad[0]]}")
    prototypes = select_prototypes(
        data, query, config.preference, validation_model, config.num_ces, config.distance
    )
    immutable = data.immutable_mask()
    rows = data.X[prototypes]
    ranked, fallback_codes, fallback_scores = _group_scores(
        rows, query, immutable, config.depth, config.score_rule()
    )
    drawn = list(ranked_path_combinations(ranked, config.budget))

    # Rows: each prototype's draws, then its fallback. Each group's
    # immutable-only mask can rank below the budget cut, so the fallback
    # reads the raw scores, summed group by group from 0.0.
    fallback_totals = sum(fallback_scores.T, 0.0)[:, None]
    codes = np.concatenate([c for proto_codes, _ in drawn for c in (proto_codes, [fallback_codes])])
    totals = np.concatenate(
        [t for (_, proto_totals), total in zip(drawn, fallback_totals) for t in (proto_totals, total)]
    ).tolist()
    paths = _path_bits(codes, len(query), config.depth)
    sizes = np.array([len(proto_totals) + 1 for _, proto_totals in drawn])
    owner = np.repeat(np.arange(len(rows)), sizes)
    vectors = _fill(rows[owner], query, paths)
    accepted = validation_model.predicts_target(vectors)
    # Per prototype, the first accepted row wins. The fallback is a genuine
    # target-class row, though the model may still disagree; the validated
    # flag records the check.
    fallbacks = np.cumsum(sizes) - 1
    first = np.minimum.reduceat(
        np.where(accepted, np.arange(len(paths)), fallbacks[owner]), fallbacks - sizes + 1
    )

    deduped, seen = [], set()
    for proto_idx, prototype, i, fallback in zip(
        prototypes, rows, first.tolist(), (first == fallbacks).tolist()
    ):
        path, vector = tuple(paths[i].tolist()), vectors[i]
        _check_verbatim(vector, path, prototype, query, proto_idx)
        if vector.tobytes() not in seen:
            seen.add(vector.tobytes())
            deduped.append(CandidateCE(vector, path, proto_idx, totals[i], bool(accepted[i]), fallback))
    return deduped
