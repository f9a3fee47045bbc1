"""Counterfactual explanations for tabular binary classifiers.

Generation walks preference-ranked prototype rows and, per contiguous
feature group, scores every prototype-vs-query value combination to build
a counterfactual the validation model accepts. Evaluation covers
proximity, sparsity, validity, jury-weighted data fidelity, and
centrality.
"""

from .engine import GenerationConfig, generate
from .models import ClassifierModel, fit_builtin
from .tabular import encode_dataset, fit_encoder

__version__ = "0.1.0"

__all__ = [
    "ClassifierModel",
    "GenerationConfig",
    "encode_dataset",
    "fit_builtin",
    "fit_encoder",
    "generate",
]
