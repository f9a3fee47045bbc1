"""Counterfactual explanations for tabular binary classifiers.

Generation walks preference-ranked prototype rows and, per contiguous
feature group, scores every prototype-vs-query value combination to build
a counterfactual the validation model accepts. Evaluation covers
proximity, sparsity, validity, jury-weighted data fidelity, and
centrality.
"""

from .engine import (
    CandidateCE,
    GenerationConfig,
    PREFERENCES,
    centroid,
    generate,
    partition_features,
    select_prototypes,
)
from .experiment import (
    ExperimentConfig,
    RunRecord,
    baseline_nearest_target,
    baseline_random_path,
    emit_report,
    run_experiment,
)
from .metrics import (
    MetricsRow,
    centrality,
    data_fidelity,
    proximity,
    reliability_composite,
    sparsity,
    validity,
)
from .models import (
    ClassifierModel,
    ThirdPartyJury,
    cv_weights,
    f1_score,
    fit_builtin,
    load_model,
    save_model,
)
from .scoring import ScoreRule, cosine, count_diffs, fcs, ncs, rss, sigmoid
from .tabular import (
    Dataset,
    EncodedDataset,
    Encoder,
    FeatureSchema,
    encode_dataset,
    fit_encoder,
    load_csv,
    load_schema,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateCE",
    "ClassifierModel",
    "Dataset",
    "EncodedDataset",
    "Encoder",
    "ExperimentConfig",
    "FeatureSchema",
    "GenerationConfig",
    "MetricsRow",
    "PREFERENCES",
    "RunRecord",
    "ScoreRule",
    "ThirdPartyJury",
    "baseline_nearest_target",
    "baseline_random_path",
    "centrality",
    "centroid",
    "cosine",
    "count_diffs",
    "cv_weights",
    "data_fidelity",
    "emit_report",
    "encode_dataset",
    "f1_score",
    "fcs",
    "fit_builtin",
    "fit_encoder",
    "generate",
    "load_csv",
    "load_model",
    "load_schema",
    "ncs",
    "partition_features",
    "proximity",
    "reliability_composite",
    "rss",
    "run_experiment",
    "save_model",
    "select_prototypes",
    "sigmoid",
    "sparsity",
    "validity",
]
