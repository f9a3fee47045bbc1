import numpy as np
import pytest
from hypothesis import settings

from tcol.data import SYNTHETIC_TARGET, SYNTHETIC_TARGET_CLASS, load_synthetic, synthetic_paths
from tcol.engine import ranked_path_combinations
from tcol.models import ClassifierModel, cv_weights, fit_builtin
from tcol.tabular import EncodedDataset, FeatureSchema, encode_dataset, fit_encoder

# pytest rewrites asserts only in test modules and conftest files; the
# shared reference's own, such as ``assert_same_ces``, print both sides too.
pytest.register_assert_rewrite("reference")

# `pytest --hypothesis-profile=ci` draws the same examples on every run and
# keeps no example database, so a failure in CI reproduces locally.
settings.register_profile("ci", derandomize=True)


def numeric_schema(n_features, immutable=()):
    """All-numeric [0,1] schema for tests that build encoded data directly."""
    return tuple(
        FeatureSchema(
            name=f"f{i}",
            kind="numeric",
            mutability="immutable" if i in immutable else "mutable",
            domain=(0.0, 1.0),
        )
        for i in range(n_features)
    )


def make_encoded(X, y, target_class="yes", immutable=()):
    X = np.asarray(X, dtype=float)
    return EncodedDataset(
        X=X,
        y=np.asarray(y, dtype=object),
        target_class=target_class,
        schema=numeric_schema(X.shape[1], immutable=immutable),
    )


def draw_combinations(prototype, query, depth, rule, immutable_mask, budget):
    """The engine's draw over one prototype, as ``(path, total)`` pairs:
    each group of ``depth`` contiguous features ranked as ``generate`` ranks
    it, then the ``budget`` best combinations, without the -inf rows that
    are no draw and without the fallback row."""
    [(paths, totals)] = ranked_path_combinations(
        prototype[np.newaxis], query, immutable_mask, depth, rule, budget
    )
    # one yield for all prototypes, here one; its last row is the fallback
    paths, totals = paths[0, :-1], totals[0, :-1]
    real = totals > -np.inf
    yield from zip(map(tuple, paths[real].tolist()), totals[real].tolist())


def select_local_path(proto_slice, query_slice, rule, immutable_mask=None):
    """The engine's best local mask for one feature group: the first ranked
    combination when the slices form the only group."""
    proto_slice = np.asarray(proto_slice, dtype=float)
    immutable = np.zeros(len(proto_slice), dtype=bool) if immutable_mask is None else immutable_mask
    ranked = draw_combinations(
        proto_slice,
        np.asarray(query_slice, dtype=float),
        len(proto_slice),
        rule,
        np.asarray(immutable, dtype=bool),
        budget=1,
    )
    return next(ranked)[0]


class StubModel(ClassifierModel):
    """Predicts the target class exactly for vectors in a fixed 'yes' set,
    or for every vector (``always=True``) or none (``always=False``), and
    keeps a copy of each matrix it is called on in ``batches``."""

    kind = "stub"

    def __init__(self, target_class="yes", other_class="no", yes_vectors=None, always=None):
        super().__init__()
        self.target_class = target_class
        self.other_class = other_class
        self.always = always
        self._yes = {np.asarray(v, dtype=float).tobytes() for v in (yes_vectors or [])}
        self.fitted = True
        self.batches = []

    def _fit(self, X, y):
        return {}

    def _restore(self, params):
        pass

    def predict_proba_rows(self, X):
        X = np.asarray(X, dtype=float)
        self.batches.append(X.copy())
        if self.always is not None:
            return np.full(len(X), 1.0 if self.always else 0.0)
        return np.array([1.0 if row.tobytes() in self._yes else 0.0 for row in X])


@pytest.fixture(scope="session")
def synthetic():
    return load_synthetic()


@pytest.fixture(scope="session")
def synthetic_encoder(synthetic):
    return fit_encoder(synthetic)


@pytest.fixture(scope="session")
def synthetic_encoded(synthetic, synthetic_encoder):
    return encode_dataset(synthetic_encoder, synthetic)


@pytest.fixture(scope="session")
def validation_model(synthetic_encoded):
    return fit_builtin("random_forest", synthetic_encoded, seed=0)


@pytest.fixture(scope="session")
def synthetic_jury(synthetic_encoded):
    return cv_weights(("knn", "naive_bayes", "decision_tree"), synthetic_encoded, folds=10, seed=0)


@pytest.fixture(scope="session")
def synthetic_files():
    csv_path, schema_path = synthetic_paths()
    return {
        "dataset": str(csv_path),
        "schema": str(schema_path),
        "target": SYNTHETIC_TARGET,
        "target_class": SYNTHETIC_TARGET_CLASS,
    }
