"""Path-scoring functions for candidate feature combinations.

All three rules compare a candidate combination against the prototype it
borrows values from and the query it explains, on encoded vectors:

  fcs  sigmoid(cos(candidate, prototype)) * (n - diffs(candidate, query))
  ncs  sigmoid(cos(candidate, prototype)) / exp(d(candidate, query))
  rss  exp(cos(candidate, prototype)) / sigmoid(d(candidate, query))

Higher is better for every rule; ``d`` is the Euclidean distance and ``n``
the vector length. The paper writes ``fcs`` with ``diffs`` itself, which
grows with every changed feature; ``n - diffs`` makes the highest score
the candidate with the fewest changes, as preference ``a`` asks.

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


def fcs(candidate, prototype, query):
    """Few-counterfactual score: prototype similarity times the number of
    features kept from the query (n - diffs), so fewer changes score
    higher; the paper's literal form multiplies by diffs instead (see the
    module docstring)."""
    sim = sigmoid(cosine(candidate, prototype))
    return sim * (np.shape(candidate)[-1] - count_diffs(candidate, query))


def ncs(candidate, prototype, query):
    """Near-counterfactual score: prototype similarity over exp(query distance)."""
    sim = sigmoid(cosine(candidate, prototype))
    return _rows(sim / _exp(euclidean(candidate, query)))


def rss(candidate, prototype, query):
    """Relative similarity score: exp(prototype similarity) over sigmoid(query distance)."""
    sim = _exp(cosine(candidate, prototype))
    return _rows(sim / sigmoid(euclidean(candidate, query)))


RULES = {"fcs": fcs, "ncs": ncs, "rss": rss}


@dataclass(frozen=True)
class ScoreRule:
    """One of the three scoring rules, named by its tag."""

    tag: str

    def __post_init__(self):
        if self.tag not in RULES:
            raise ValueError(f"unknown score rule {self.tag!r}")

    def score(self, candidate, prototype, query):
        """One score for a candidate vector, or one per row of a candidate matrix."""
        return RULES[self.tag](candidate, prototype, query)
