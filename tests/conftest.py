import numpy as np
import pytest
from hypothesis import settings

from tcol.data import SYNTHETIC_TARGET, SYNTHETIC_TARGET_CLASS, load_synthetic, synthetic_paths
from tcol.engine import ranked_path_combinations
from tcol.models import ClassifierModel, cv_weights, fit_builtin
from tcol.tabular import EncodedDataset, FeatureSchema, encode_dataset, fit_encoder

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


def feature_groups(n_features, depth):
    """The documented grouping: contiguous runs of ``depth`` features, then a shorter remainder."""
    return [list(range(s, min(s + depth, n_features))) for s in range(0, n_features, depth)]


def draw_combinations(prototype, query, groups, rule, immutable_mask, budget):
    """The engine's draw over one prototype, as ``(path, total)`` pairs:
    each group ranked as ``generate`` ranks it, then the ``budget`` best
    combinations, without the -inf rows that are no draw and without the
    fallback row."""
    depth = len(groups[0])
    drawn = ranked_path_combinations(prototype[np.newaxis], query, immutable_mask, depth, rule, budget)
    # one prototype, so one yield; its last row is the fallback
    for paths, totals in drawn:
        real = totals[:-1] > -np.inf
        yield from zip(map(tuple, paths[:-1][real].tolist()), totals[:-1][real].tolist())


def select_local_path(proto_slice, query_slice, rule, immutable_mask=None):
    """The engine's best local mask for one feature group: the first ranked
    combination when the slices form the only group."""
    proto_slice = np.asarray(proto_slice, dtype=float)
    immutable = np.zeros(len(proto_slice), dtype=bool) if immutable_mask is None else immutable_mask
    ranked = draw_combinations(
        proto_slice,
        np.asarray(query_slice, dtype=float),
        [list(range(len(proto_slice)))],
        rule,
        np.asarray(immutable, dtype=bool),
        budget=1,
    )
    return next(ranked)[0]


def path_total(prototype, query, groups, rule, path):
    """A path's total, scored group by group outside the engine: the
    left-to-right sum of its group scores from 0.0, where a group whose
    prototype slice or fill has zero norm adds -inf."""
    total = 0.0
    for g in groups:
        candidate = np.where(np.asarray(path)[g] == 1, query[g], prototype[g])
        if np.linalg.norm(prototype[g]) == 0.0 or np.linalg.norm(candidate) == 0.0:
            total += float("-inf")
        else:
            total += rule.score(candidate, prototype[g], query[g])
    return total


class StubModel(ClassifierModel):
    """Predicts the target class exactly for vectors in a fixed 'yes' set."""

    kind = "stub"

    def __init__(self, target_class="yes", other_class="no", yes_vectors=None, always=None):
        super().__init__()
        self.target_class = target_class
        self.other_class = other_class
        self.always = always
        self._yes = {np.asarray(v, dtype=float).tobytes() for v in (yes_vectors or [])}
        self.fitted = True

    def _fit(self, X, y):
        return {}

    def _restore(self, params):
        pass

    def predict_proba_rows(self, X):
        X = np.asarray(X, dtype=float)
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
