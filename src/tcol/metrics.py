"""Evaluation of counterfactual sets: proximity, sparsity, validity, data
fidelity (each juror scored by ``models.prediction_f1``, the one F1 rule),
centrality (over the ``N_NEIGHBORS`` rows nearest the target centroid), and
the reliability composite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ClassifierModel, ThirdPartyJury, prediction_f1
from .scoring import count_diffs, euclidean
from .tabular import EncodedDataset

N_NEIGHBORS = 10  # target rows nearest the class centroid that centrality averages over


class CoincidentNeighborError(ValueError):
    """A counterfactual coincides with a centroid neighbor; its centrality is undefined."""


def _vectors(ces) -> np.ndarray:
    """Counterfactual vectors as the rows of a matrix."""
    out = np.array(ces, dtype=float)
    if not len(out):
        raise ValueError("empty counterfactual list")
    return out


def proximity(ces, query) -> float:
    """Mean Euclidean distance from each counterfactual to the query."""
    return float(np.mean(euclidean(_vectors(ces), query)))


def sparsity(ces, query) -> float:
    """Mean count of features where a counterfactual differs from the query."""
    return float(np.mean(count_diffs(_vectors(ces), query)))


def _hits(model: ClassifierModel, ces, target_class) -> np.ndarray:
    """Per counterfactual: does ``model`` predict ``target_class``? One batched call."""
    hits = model.predicts_target(_vectors(ces))
    if target_class == model.target_class:
        return hits
    return ~hits if target_class == model.other_class else np.zeros_like(hits)


def validity(ces, model: ClassifierModel, target_class) -> float:
    """Fraction of counterfactuals the model classifies as the target class."""
    return float(np.mean(_hits(model, ces, target_class)))


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
    denom = euclidean(rows[:N_NEIGHBORS], ce)
    if np.any(denom == 0.0):
        raise CoincidentNeighborError("counterfactual coincides with a centroid neighbor")
    return float(np.mean(to_center[:N_NEIGHBORS] / denom))


@dataclass(frozen=True)
class SetMetrics:
    """The metric suite for the counterfactual set of one query.

    ``centrality`` is the mean over the counterfactuals not excluded for
    coinciding with a centroid neighbor, or ``None`` when every one is;
    ``excluded`` counts them.
    """

    proximity: float
    sparsity: float
    validity: float
    data_fidelity: float
    centrality: float | None
    excluded: int


def evaluate_set(
    vectors,
    query,
    data: EncodedDataset,
    model: ClassifierModel,
    jury: ThirdPartyJury,
) -> SetMetrics:
    """Every metric of one query's counterfactual set; ``centrality`` leaves out coincident CEs."""
    ratios, excluded = [], 0
    for v in vectors:
        try:
            ratios.append(centrality(v, data))
        except CoincidentNeighborError:
            excluded += 1
    return SetMetrics(
        proximity=proximity(vectors, query),
        sparsity=sparsity(vectors, query),
        validity=validity(vectors, model, data.target_class),
        data_fidelity=data_fidelity(vectors, jury, data.target_class),
        centrality=float(np.mean(ratios)) if ratios else None,
        excluded=excluded,
    )


def reliability_composite(data_fidelity_value: float, validity_value: float) -> float:
    """Reliability under model change: 0.75 * data fidelity + 0.25 * validity."""
    for name, v in (("data_fidelity", data_fidelity_value), ("validity", validity_value)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return 0.75 * data_fidelity_value + 0.25 * validity_value


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
        for name in ("proximity", "sparsity", "validity", "data_fidelity", "centrality", "runtime_s"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if not 0.0 <= self.validity <= 1.0:
            raise ValueError("validity outside [0, 1]")
        if not 0.0 <= self.data_fidelity <= 1.0:
            raise ValueError("data_fidelity outside [0, 1]")
