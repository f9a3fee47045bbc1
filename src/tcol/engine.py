"""Counterfactual generation: prototype selection and greedy path search.

A counterfactual candidate is described by a path mask over the feature
axis: bit 0 takes the prototype's value, bit 1 keeps the query's value.
Features are partitioned into contiguous groups of at most ``depth``
entries; within each group every admissible local mask is scored and
ranked, which is behaviourally identical to walking every root-to-leaf
path of the full binary tree over that group (the masks ARE the paths).
One generator goes from group scores to the fallback row: all groups of
one width are scored for every prototype in one rule call, each fill
paired with its own prototype slice and its group's query slice. A mask
whose filled slice, or whose prototype slice, has zero norm cannot be
scored by any rule and is never drawn. A full-length path's total is the
left-to-right sum of its group scores. The top ``budget`` paths by total
are drawn for every prototype at once with an exact merge, one group at a
time, so a prototype's first draw is the splice of its per-group winners;
the first group's ranked masks seed the merge. A draw is a row of path
bits; every prototype gets as many rows, and a -inf total marks a row
that is no draw. The fallback is the immutable mask, the last row: the
prototype with its immutable features pinned to the query, its total the
sum of each group's immutable-only score. The generator yields once, the
draws of every prototype as one array, which stays whole up to the picks.
One model call checks every prototype's draws, each distinct vector once:
a draw that takes the prototype's value where the query holds the same
bytes fills an earlier draw's vector and is skipped, and only the rows
sent are filled. Per prototype, the first draw the model accepts, in draw
order, is the counterfactual, and the fallback stands unvalidated when it
accepts none.

Immutable features always keep the query's value: their path bits are
forced to 1 in every mask considered.
"""

from __future__ import annotations

import functools
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .models import ClassifierModel, check_int
from .scoring import ScoreRule, cosine, count_diffs, euclidean, norm
from .tabular import EncodedDataset

PREFERENCES = ("a", "b", "c", "d", "e")

# preference -> (prototype ranking, scoring rule):
#   a: fewest differing features, fcs    b: nearest, ncs
#   c: highest target probability, rss   d: highest cosine similarity, rss
#   e: nearest to target centroid, rss
RULE_BY_PREFERENCE = {"a": "fcs", "b": "ncs", "c": "rss", "d": "rss", "e": "rss"}

MIN_DEPTH, MAX_DEPTH = 3, 9  # a group spans at most 2^9 local masks
_PACKAGE_DIR = os.path.dirname(__file__)  # every module here but cli.py is library code


class AlreadyTargetWarning(UserWarning):
    """The query is already classified as the target class."""


def _warn(message: str, category: type[Warning] = UserWarning) -> None:
    """A warning at the first frame outside tcol's library modules, such as
    the line that called ``generate`` or ``run_experiment``, not at one of
    their internal calls."""
    frame, level = sys._getframe(), 1
    while frame is not None:
        directory, name = os.path.split(frame.f_code.co_filename)
        if directory != _PACKAGE_DIR or name == "cli.py":
            break
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


@dataclass(frozen=True)
class GenerationConfig:
    preference: str
    depth: int = 3
    num_ces: int = 5
    budget: int = 64

    def __post_init__(self):
        if self.preference not in PREFERENCES:
            raise ValueError(f"unknown preference {self.preference!r}, expected one of {PREFERENCES}")
        check_int("depth", self.depth, MIN_DEPTH, MAX_DEPTH)
        check_int("num_ces", self.num_ces, 1)
        check_int("budget", self.budget, 1)

    def score_rule(self) -> ScoreRule:
        return ScoreRule(RULE_BY_PREFERENCE[self.preference])


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
    data: EncodedDataset, query: np.ndarray, preference: str, model: ClassifierModel, count: int
) -> list[int]:
    """Rank target-class rows by the preference rule; return top row indices.

    Rows that differ from the query on an immutable feature rank after
    conforming rows regardless of the preference score. Preference ``c``
    ranks by ``model.target_proba(data)``, the target rows' probabilities,
    which the model computes once per fit and data set; preference ``e`` by
    ``data.centroid_distances``, which the data set computes once.
    """
    check_int("count", count, 1)
    if preference not in PREFERENCES:
        raise ValueError(f"unknown preference {preference!r}")
    query = np.asarray(query, dtype=float)
    candidates, rows = data.target_rows
    if len(candidates) == 0:
        raise ValueError("dataset has no target-class rows")
    if count > len(candidates):
        raise ValueError(f"requested {count} prototypes but only {len(candidates)} target rows")
    if model.predict(query) == data.target_class:
        _warn("query is already classified as the target class; explaining it anyway", AlreadyTargetWarning)

    if preference == "a":
        keys = count_diffs(rows, query)
    elif preference == "b":
        keys = euclidean(rows, query)
    elif preference == "c":
        keys = -model.target_proba(data)
    elif preference == "d":
        # zero-norm rows have no defined similarity; rank them last
        keys = np.full(len(rows), 2.0)
        scoreable = norm(rows) != 0.0
        if norm(query) != 0.0:
            keys[scoreable] = -cosine(rows[scoreable], query)
    else:
        keys = data.centroid_distances
    immutable = data.immutable_mask()
    conflicts = np.any(rows[:, immutable] != query[immutable], axis=1)
    # lexsort is stable and candidates ascend, so ties keep the lower row index
    order = np.lexsort((keys, conflicts))
    return candidates[order[:count]].tolist()


def _fill(prototype: np.ndarray, query: np.ndarray, path) -> np.ndarray:
    """Componentwise select: path bit 0 takes the prototype, bit 1 the query."""
    return np.where(np.asarray(path) == 1, query, prototype)


def _check_verbatim(vectors, paths, rows, query, prototypes) -> None:
    """Raise ``RuntimeError``, naming the first bad row's prototype, unless
    every component of each row of ``vectors`` is, bit for bit, the query's
    where that row of ``paths`` has a 1 and the same row of ``rows``' where
    it has a 0."""
    expected = np.where(paths == 1, query, rows)
    if vectors.tobytes() != expected.tobytes():
        i = np.argmax((vectors.view(np.int64) != expected.view(np.int64)).any(axis=1))
        raise RuntimeError(
            f"counterfactual from prototype {prototypes[i]} is not a verbatim copy of "
            f"the query and the prototype along its path {tuple(paths[i].tolist())}"
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


@functools.cache
def _merge_candidates(n_prefixes: int, n_masks: int, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The (prefix i, mask j) rank pairs, in row-major order, whose sum can
    be among the ``budget`` best: those with ``(i + 1) * (j + 1) <= budget``,
    so prefix i pairs with its first ``min(n_masks, budget // (i + 1))``
    masks. Both rankings descend, so each of the other pairs at or before
    (i, j) in both sums to at least as much and ranks before it on ties.
    Only the kept pairs are built."""
    counts = np.minimum(n_masks, budget // np.arange(1, n_prefixes + 1))
    prefix = np.repeat(np.arange(n_prefixes), counts)
    rank = np.arange(len(prefix)) - np.repeat(np.cumsum(counts) - counts, counts)
    prefix.flags.writeable = rank.flags.writeable = False
    return prefix, rank


def ranked_path_combinations(
    rows: np.ndarray, query: np.ndarray, immutable: np.ndarray, depth: int, rule: ScoreRule, budget: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield once, for every prototype (a row of ``rows``) at once, its
    ``budget`` best full-length paths, best total first, then its fallback,
    as ``(paths, totals)`` of shapes ``(P, R, L)`` and ``(P, R)``: one row of
    path bits per draw, ``R <= budget + 1`` rows per prototype. It is a
    generator only so that a caller can time its one ``next`` (perfbench
    spans it as ``engine.group_score``); all the work runs before the yield.

    Every local mask of every group is scored for every prototype with one
    rule call per group width. A group ranks its masks by descending
    score, then more query-side bits, then ascending binary order. An
    inadmissible mask (bit 0 at an immutable position), and one whose fill
    or prototype slice has zero norm, scores -inf and so ranks last.

    A path's total is the left-to-right sum of its group scores, starting
    at 0.0. Totals never increase along the draw; equal totals keep the
    previous group's rank of their prefix, then this group's rank, so the
    first draw is the splice of the per-group winners. Every prototype
    gets the same number of rows; a row whose total is -inf is no draw, so
    a prototype with a group that has no scoreable mask gets only those.
    The last row is the fallback, the immutable mask, whose total sums the
    raw scores of each group's immutable-only mask the same way; it can
    rank below any budget.

    Keeping only the ``budget`` best rows after each group is exact,
    because float addition is monotone: if a prefix P is cut, ``budget``
    kept prefixes rank before it, and each of them plus a mask c ranks
    before P plus c. The same argument cuts each group to its ``budget``
    best masks, and skips the sums of ``_merge_candidates``. The argument
    holds per prototype, and every prototype is merged at once: every real
    score is finite and at least 0, so a sum with a -inf score ranks after
    every real path.

    The first group's ranked masks and scores seed the paths and totals,
    with no merge against the 0.0 start, and this is exact too: a real
    score is never -0.0 (each rule is a product or quotient of positive
    terms, with ``fcs``'s count at least 0), so ``0.0 + s`` is ``s`` bit
    for bit, ``0.0 + -inf`` is -inf, and the stable sort of an already
    ranked row is the identity.
    """
    n_protos = len(rows)
    protos = np.arange(n_protos)[:, None]
    totals = paths = None
    fallback = 0.0
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
        each = np.arange(len(scores))
        fallbacks = scores[each, code[pinned][group]].reshape(n_protos, n)
        masks = np.argsort(-scores, axis=1, kind="stable")[:, :budget]
        scores = scores[each[:, None], masks].reshape(n_protos, n, -1)
        masks = masks.reshape(n_protos, n, -1)
        for j in range(n):
            fallback = fallback + fallbacks[:, j]
            if paths is None:  # the first group seeds the merge (see above)
                totals, paths = scores[:, j], bits[masks[:, j]]
                continue
            prefix, rank = _merge_candidates(totals.shape[1], scores.shape[2], budget)
            sums = totals[:, prefix] + scores[:, j, rank]
            keep = np.argsort(-sums, axis=1, kind="stable")[:, :budget]
            totals, prefix, rank = sums[protos, keep], prefix[keep], rank[keep]
            paths = np.concatenate((paths[protos, prefix], bits[masks[protos, j, rank]]), axis=2)
    paths = np.concatenate((paths, np.broadcast_to(immutable, (n_protos, 1, len(query)))), axis=1)
    yield paths, np.column_stack((totals, fallback))


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

    The merge hands over every prototype's draws at once, as ``(P, R, L)``
    path bits and ``(P, R)`` totals. Only the rows sent to the model are
    filled, in row-major order, which is the batch's order; each candidate's
    vector is its pick's row of that judged batch, and one array comparison
    checks every pick for a verbatim copy.

    The model sees each distinct draw of a prototype once. Where the
    prototype and the query hold the same bytes (-0.0 is not 0.0), a draw
    with bit 0 is a copy: it fills the vector of its canonical path, which
    has bit 1 at every such position, so it is not sent. Equal fills get
    equal score bits, a group ranks more query bits first on ties, and the
    merge keeps prefix rank, then mask rank; so the canonical path is drawn,
    and before the copy, whenever the copy is. Equal rows get equal answers,
    so no pick changes. This needs ``predict_proba_rows`` to give a row the
    same value in any batch, as the built-in models do; a custom model must.
    """
    query = np.asarray(query, dtype=float)
    if query.shape != (data.n_features,):
        raise ValueError("query length does not match the dataset schema")
    bad = np.flatnonzero(~np.isfinite(query))
    if len(bad):
        raise ValueError(f"query component {bad[0]} is not a finite number: {query[bad[0]]}")
    prototypes = select_prototypes(
        data, query, config.preference, validation_model, config.num_ces
    )
    rows = data.X[prototypes]
    # One row of ``paths`` per prototype: its draws, then its fallback, the
    # immutable mask. Only the fallbacks and the real draws that are no copy
    # of an earlier draw (see above) go to the model.
    [(paths, totals)] = ranked_path_combinations(
        rows, query, data.immutable_mask(), config.depth, config.score_rule(), config.budget
    )
    last = np.arange(totals.shape[1]) == totals.shape[1] - 1
    same = rows.view(np.int64) == query.view(np.int64)
    # a copy has bit 0 where the prototype holds the query's bytes
    copy = ((paths == 0) @ same[:, :, None])[..., 0]
    sent = ((totals > -np.inf) & ~copy) | last
    # only the sent rows are filled, in row-major order, the batch's order
    owner, draw = np.nonzero(sent)
    batch = _fill(rows[owner], query, paths[owner, draw])
    accepted = np.zeros_like(sent)
    accepted[sent] = validation_model.predicts_target(batch)
    # Per prototype, the first accepted draw wins, else the fallback: a real
    # target-class row, which the model may still reject (``validated``).
    first = np.argmax(accepted | last, axis=1)
    each = np.arange(len(prototypes))
    picked = paths[each, first]
    # a pick is always sent, so its place in the batch counts the sent rows up to it
    vectors = batch[np.cumsum(sent).reshape(sent.shape)[each, first] - 1]
    _check_verbatim(vectors, picked, rows, query, prototypes)

    deduped, seen = [], set()
    for proto_idx, vector, path, score, validated, fallback in zip(
        prototypes, vectors, picked.tolist(), totals[each, first].tolist(),
        accepted[each, first].tolist(), last[first].tolist(),
    ):
        if vector.tobytes() not in seen:
            seen.add(vector.tobytes())
            deduped.append(CandidateCE(vector, tuple(path), proto_idx, score, validated, fallback))
    return deduped
