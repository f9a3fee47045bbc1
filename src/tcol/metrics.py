"""Evaluation of counterfactual sets: proximity, sparsity, validity, data
fidelity (each juror scored by ``models.prediction_f1``, the one F1 rule) and
centrality (over the ``N_NEIGHBORS`` rows nearest the target centroid)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ClassifierModel, ThirdPartyJury, prediction_f1
from .scoring import _dot, count_diffs, euclidean
from .tabular import EncodedDataset

N_NEIGHBORS = 10  # target rows nearest the class centroid that centrality averages over

# The metric suite, in report order: ``summarize`` gives one mean per name,
# which each report row and ``tcol evaluate`` print, and ``MetricsRow`` has
# one field per name.
METRICS = ("proximity", "sparsity", "validity", "data_fidelity", "centrality")


class CoincidentNeighborError(ValueError):
    """A counterfactual coincides with a centroid neighbor; its centrality is undefined."""


def _vectors(ces) -> np.ndarray:
    """Counterfactual vectors as the rows of a matrix."""
    out = np.array(ces, dtype=float)
    if not len(out):
        raise ValueError("empty counterfactual list")
    if out.ndim != 2:
        raise ValueError(f"counterfactuals must be the rows of a matrix, got shape {out.shape}")
    return out


def _mean(values) -> float:
    """``np.mean`` of a 1-D array, by the same sum and division, without its wrapper."""
    return float(np.add.reduce(values) / len(values))


def proximity(ces, query) -> float:
    """Mean Euclidean distance from each counterfactual to the query."""
    return _mean(euclidean(_vectors(ces), query))


def sparsity(ces, query) -> float:
    """Mean count of features where a counterfactual differs from the query."""
    return _mean(count_diffs(_vectors(ces), query))


def _hits(model: ClassifierModel, ces, target_class) -> np.ndarray:
    """Per counterfactual: does ``model`` predict ``target_class``? One batched call."""
    hits = model.predicts_target(_vectors(ces))
    if target_class == model.target_class:
        return hits
    return ~hits if target_class == model.other_class else np.zeros_like(hits)


def validity(ces, model: ClassifierModel, target_class) -> float:
    """Fraction of counterfactuals the model classifies as the target class."""
    hits = _hits(model, ces, target_class)
    return np.count_nonzero(hits) / len(hits)


def member_agreement(model: ClassifierModel, ces, target_class) -> float:
    """One juror's endorsement of a counterfactual set, as ``prediction_f1``.

    Every counterfactual's reference label is the target class, so the
    confusion matrix degenerates: precision is 1 whenever the juror
    predicts the target class at all, and recall is the predicted-target
    fraction.
    """
    hits = _hits(model, ces, target_class)
    return prediction_f1(hits, np.ones_like(hits))


def data_fidelity(ces, jury: ThirdPartyJury, target_class) -> float:
    """Weight-averaged juror agreement: sum(w_i * p_i) / sum(w_i)."""
    total = sum(jury.weights)
    if total == 0.0:
        raise ValueError("jury weights sum to zero")
    weighted = sum(
        w * member_agreement(model, ces, target_class) for model, w in jury.members
    )
    return weighted / total


def centrality(ce, data: EncodedDataset) -> float:
    """Mean ratio d(neighbor, centroid) / d(neighbor, ce) over the ``N_NEIGHBORS``
    target rows nearest the target-class centroid, with Euclidean d.

    A counterfactual that coincides with a neighbor makes a ratio undefined
    and raises ``CoincidentNeighborError``; callers may exclude such
    counterfactuals rather than smooth. Fewer than ``N_NEIGHBORS`` target
    rows is a plain ``ValueError``.
    """
    ce = np.asarray(ce, dtype=float)
    rows, to_center = data.centroid_neighbors
    if len(rows) < N_NEIGHBORS:
        raise ValueError(f"need at least {N_NEIGHBORS} target rows, got {len(rows)}")
    if ce.shape != rows.shape[1:]:
        raise ValueError(f"vector shapes differ: {rows.shape[1:]} vs {ce.shape}")
    # scoring.euclidean(rows, ce), by the same subtraction and row-wise dot
    d = rows[:N_NEIGHBORS] - ce
    denom = np.sqrt(_dot(d, d))
    if (denom == 0.0).any():
        raise CoincidentNeighborError("counterfactual coincides with a centroid neighbor")
    return _mean(to_center[:N_NEIGHBORS] / denom)


def summarize(sets, data: EncodedDataset, model: ClassifierModel, jury: ThirdPartyJury):
    """Each ``METRICS`` name's mean over the (query, CE vectors) ``sets`` that
    hold CEs, 0.0 for a metric no set gives, and the count of CEs left out
    of centrality for coinciding with a centroid neighbor. A set's centrality
    is the mean over the rest of its CEs; it gives none if none is left."""
    per_set, excluded = {name: [] for name in METRICS}, 0
    for query, vectors in sets:
        if not len(vectors):
            continue
        ratios = []
        for v in vectors:  # first, so that too few target rows raises before any other metric
            try:
                ratios.append(centrality(v, data))
            except CoincidentNeighborError:
                excluded += 1
        per_set["centrality"] += [np.mean(ratios)] if ratios else []
        per_set["proximity"].append(proximity(vectors, query))
        per_set["sparsity"].append(sparsity(vectors, query))
        per_set["validity"].append(validity(vectors, model, data.target_class))
        per_set["data_fidelity"].append(data_fidelity(vectors, jury, data.target_class))
    return {name: float(np.mean(v)) if v else 0.0 for name, v in per_set.items()}, excluded


@dataclass(frozen=True)
class MetricsRow:
    """One report line: a (dataset, generator, preference) cell of the
    property table, averaged over query samples."""

    dataset: str
    generator: str
    preference: str
    proximity: float
    sparsity: float
    validity: float
    data_fidelity: float
    centrality: float
    runtime_s: float
    n_queries: int
    n_ces: int

    def __post_init__(self):
        for name in METRICS + ("runtime_s",):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if not 0.0 <= self.validity <= 1.0:
            raise ValueError("validity outside [0, 1]")
        if not 0.0 <= self.data_fidelity <= 1.0:
            raise ValueError("data_fidelity outside [0, 1]")
