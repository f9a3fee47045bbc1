"""The guarantees of ``generate``: property tests on random small schemas,
and decoding on the bundled credit set.

In the property tests values lie on the grid {0, 0.5, 1}, so zero-norm
group slices, constant columns and prototypes equal to the query all
occur, and immutable shares run from none to every feature."""

import csv
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import StubModel, make_encoded, path_total
from tcol.data import synthetic_paths
from tcol.engine import PREFERENCES, GenerationConfig, generate, partition_features
from tcol.models import make_model


@st.composite
def generation_cases(draw):
    n_features = draw(st.integers(1, 10))
    n_rows = draw(st.integers(12, 30))
    share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 3, size=(n_rows, n_features)) / 2.0
    y = np.where(rng.random(n_rows) < 0.5, "yes", "no")
    y[:5], y[5] = "yes", "no"  # enough target rows for num_ces, and both classes
    immutable = tuple(rng.permutation(n_features)[: round(share * n_features)].tolist())
    data = make_encoded(X, y, immutable=immutable)
    query = rng.integers(0, 3, size=n_features) / 2.0
    model_kind = draw(st.sampled_from(["accept", "reject", "forest"]))
    if model_kind == "forest":
        model = make_model("random_forest", seed=draw(st.integers(0, 3))).fit(X, y, "yes")
    else:
        model = StubModel(always=model_kind == "accept")
    config = GenerationConfig(
        preference=draw(st.sampled_from(PREFERENCES)),
        depth=draw(st.integers(3, 9)),
        num_ces=draw(st.integers(1, 5)),
        budget=draw(st.sampled_from([1, 4, 64])),
    )
    return data, query, config, model


@settings(max_examples=200, deadline=None)
@given(case=generation_cases())
def test_generate_invariants(case):
    data, query, config, model = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ces = generate(data, query, config, model)
    immutable = data.immutable_mask()
    groups = partition_features(data.n_features, config.depth)
    assert 1 <= len(ces) <= config.num_ces
    assert len({ce.vector.tobytes() for ce in ces}) == len(ces)
    for ce in ces:
        prototype = data.X[ce.prototype_index]
        assert data.y[ce.prototype_index] == data.target_class
        expected = np.where(np.array(ce.path) == 1, query, prototype)
        assert ce.vector.tobytes() == expected.tobytes()
        assert np.array_equal(ce.vector[immutable], query[immutable])
        assert ce.validated == (model.predict(ce.vector) == data.target_class)
        total = path_total(prototype, query, groups, config.score_rule(), ce.path)
        assert np.float64(ce.score).tobytes() == np.float64(total).tobytes()
        if ce.fallback:
            assert ce.path == tuple(int(b) for b in immutable)


def test_decoded_ces_copy_raw_csv_values_of_their_sources(
    synthetic, synthetic_encoder, synthetic_encoded, validation_model
):
    """Every CE of every denied credit row decodes, feature by feature, to
    the CSV cell of the query (path bit 1) or of the prototype (bit 0)."""
    csv_path, _ = synthetic_paths()
    with open(csv_path, encoding="utf-8", newline="") as fh:
        raw = [[record[f.name] for f in synthetic.schema] for record in csv.DictReader(fh)]
    assert len(raw) == len(synthetic_encoded.X)
    checked = 0
    for preference in PREFERENCES:
        config = GenerationConfig(preference=preference)
        for qi in np.flatnonzero(~synthetic_encoded.target_mask()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ces = generate(synthetic_encoded, synthetic_encoded.X[qi], config, validation_model)
            for ce in ces:
                decoded = synthetic_encoder.decode(ce.vector)
                for i, (value, feat) in enumerate(zip(decoded, synthetic.schema)):
                    cell = raw[qi if ce.path[i] == 1 else ce.prototype_index][i]
                    assert value == (cell if feat.kind == "categorical" else float(cell)), (
                        f"query {qi}, preference {preference}, feature {feat.name}"
                    )
                checked += 1
    assert checked > 5 * 70
