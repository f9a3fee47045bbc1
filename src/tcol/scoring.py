"""Path-scoring functions for candidate feature combinations.

All three rules compare a candidate combination against the prototype it
borrows values from and the query it explains, on encoded vectors:

  fcs  sigmoid(cos(candidate, prototype)) * diffs(candidate, query)
       (literal form; the sparsity-corrected variant uses n - diffs)
  ncs  sigmoid(cos(candidate, prototype)) / exp(d(candidate, query))
  rss  exp(cos(candidate, prototype)) / sigmoid(d(candidate, query))

Higher is better for every rule. Distances default to Euclidean.

Each function takes one vector (giving a Python number) or a matrix of
rows (giving one array entry per row) and compares it with one vector, or
with a matrix of the same shape row for row: row i with row i. A row gives
the same bits alone as in a matrix: every dot product, norms included, is
one BLAS dot per row (``_dot``), and every exponential is ``math.exp`` per
element. A matrix-vector product or an axis reduction
sums in another order, and ``np.exp`` rounds some inputs differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EUCLIDEAN = "euclidean"
MANHATTAN = "manhattan"

FCS_LITERAL = "literal"
FCS_SPARSITY_CORRECTED = "sparsity_corrected"
FCS_VARIANTS = (FCS_LITERAL, FCS_SPARSITY_CORRECTED)


_exp = np.vectorize(math.exp, otypes=[float])


def _rows(values):
    """A Python number for a single row, the array itself for a matrix."""
    values = np.asarray(values)
    return values if values.ndim else values.item()


def sigmoid(z):
    # exp(-|z|) never overflows: 1 / (1 + e) for z >= 0, e / (1 + e) below
    z = np.asarray(z, dtype=float)
    e = _exp(-np.abs(z))
    return _rows(np.where(z >= 0, 1.0, e) / (1.0 + e))


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float, order="C")
    b = np.asarray(b, dtype=float, order="C")
    # b is one vector, or a matrix paired with a row for row
    if a.ndim not in (1, 2) or b.shape not in (a.shape[-1:], a.shape):
        raise ValueError(f"vector shapes differ: {a.shape} vs {b.shape}")
    return a, b


def _dot(a: np.ndarray, b: np.ndarray):
    """Row-wise dot product, one BLAS dot per row (see the module docstring)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def norm(a):
    """Euclidean norm of a vector or of each row of a matrix."""
    a = np.asarray(a, dtype=float, order="C")
    return _rows(np.sqrt(_dot(a, a)))


def euclidean(a, b):
    a, b = _pair(a, b)
    return norm(a - b)


def manhattan(a, b):
    a, b = _pair(a, b)
    return _rows(np.abs(a - b).sum(axis=-1))


DISTANCES = {EUCLIDEAN: euclidean, MANHATTAN: manhattan}


def distance_fn(tag: str):
    try:
        return DISTANCES[tag]
    except KeyError:
        raise ValueError(f"unknown distance {tag!r}, expected one of {sorted(DISTANCES)}") from None


def cosine(a, b):
    """Cosine similarity; undefined (error) when any vector or row is all zero."""
    a, b = _pair(a, b)
    na, nb = np.sqrt(_dot(a, a)), np.sqrt(_dot(b, b))
    if (na == 0.0).any() or (nb == 0.0).any():
        raise ValueError("cosine similarity undefined for zero-norm vector")
    return _rows(np.clip(_dot(a, b) / (na * nb), -1.0, 1.0))


def count_diffs(a, b):
    """Number of components where the vectors differ, by exact equality.

    Feature-based candidates copy components verbatim from their sources,
    so equality is bitwise and no tolerance is appropriate.
    """
    a, b = _pair(a, b)
    return _rows(np.count_nonzero(a != b, axis=-1))


def fcs(candidate, prototype, query, variant: str = FCS_SPARSITY_CORRECTED):
    """Few-counterfactual score.

    The literal form grows with the number of differing features; the
    sparsity-corrected default rewards fewer differences (n - diffs),
    which is the direction a sparsity-seeking caller wants to maximize.
    """
    sim = sigmoid(cosine(candidate, prototype))
    diffs = count_diffs(candidate, query)
    if variant == FCS_LITERAL:
        return sim * diffs
    if variant == FCS_SPARSITY_CORRECTED:
        return sim * (np.shape(candidate)[-1] - diffs)
    raise ValueError(f"unknown fcs variant {variant!r}")


def ncs(candidate, prototype, query, distance: str = EUCLIDEAN):
    """Near-counterfactual score: prototype similarity over exp(query distance)."""
    sim = sigmoid(cosine(candidate, prototype))
    return _rows(sim / _exp(distance_fn(distance)(candidate, query)))


def rss(candidate, prototype, query, distance: str = EUCLIDEAN):
    """Relative similarity score: exp(prototype similarity) over sigmoid(query distance)."""
    sim = _exp(cosine(candidate, prototype))
    return _rows(sim / sigmoid(distance_fn(distance)(candidate, query)))


RULE_TAGS = ("fcs", "ncs", "rss")


@dataclass(frozen=True)
class ScoreRule:
    """A fully specified scoring rule: tag plus distance / fcs variant knobs."""

    tag: str
    distance: str = EUCLIDEAN
    fcs_variant: str = FCS_SPARSITY_CORRECTED

    def __post_init__(self):
        if self.tag not in RULE_TAGS:
            raise ValueError(f"unknown score rule {self.tag!r}")
        distance_fn(self.distance)
        if self.fcs_variant not in FCS_VARIANTS:
            raise ValueError(f"unknown fcs variant {self.fcs_variant!r}")

    def score(self, candidate, prototype, query):
        """One score for a candidate vector, or one per row of a candidate matrix."""
        if self.tag == "fcs":
            return fcs(candidate, prototype, query, variant=self.fcs_variant)
        if self.tag == "ncs":
            return ncs(candidate, prototype, query, distance=self.distance)
        return rss(candidate, prototype, query, distance=self.distance)
