"""The engine, model fitting, model loading and ``tcol bench`` against
fixtures written by a reference version of the package; see
``tests/golden/write_credit.py`` and ``tests/golden/write_report.py``."""

import numpy as np
import pytest

from golden.write_credit import CE_FIELDS, FIXTURE, MODEL_FILES, credit_ces
from golden.write_report import REPORT_CSV, REPORT_JSON, bench_report
from tcol.models import DecisionTree, RandomForest, load_model, save_model


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE) as fixture:
        return dict(fixture)


def test_ce_sets_match_golden_bit_for_bit(golden, synthetic_encoded):
    current = credit_ces(synthetic_encoded)
    assert current["keys"].tolist() == golden["keys"].tolist()
    assert current["offsets"].tolist() == golden["offsets"].tolist(), "CE counts differ"
    for name in CE_FIELDS:
        same = [a.tobytes() == b.tobytes() for a, b in zip(current[name], golden[name])]
        if not all(same):
            ce = same.index(False)
            s = int(np.searchsorted(golden["offsets"], ce, side="right")) - 1
            depth, preference, row = golden["keys"][s]
            pytest.fail(
                f"{name} differs for CE {ce - golden['offsets'][s]} of query row {row}, "
                f"preference index {preference}, depth {depth}"
            )


@pytest.mark.parametrize("kind", sorted(MODEL_FILES))
def test_reference_model_files_load_and_predict_identically(kind, golden, synthetic_encoded, tmp_path):
    model = load_model(MODEL_FILES[kind])
    expected = golden[f"proba_{kind}"]
    single = np.array([model.predict_proba(row) for row in synthetic_encoded.X])
    assert single.tobytes() == expected.tobytes()
    assert model.predict_proba_rows(synthetic_encoded.X).tobytes() == expected.tobytes()
    save_model(model, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == MODEL_FILES[kind].read_bytes()


@pytest.mark.parametrize("kind", sorted(MODEL_FILES))
def test_fitting_the_reference_models_saves_the_golden_files(kind, synthetic_encoded, tmp_path):
    """Fitted as ``write_credit.py`` fits them, the models save byte for byte."""
    model = {
        "decision_tree": DecisionTree(),
        "random_forest": RandomForest(n_trees=5, max_depth=4, seed=0),
    }[kind]
    model.fit(synthetic_encoded.X, synthetic_encoded.y, synthetic_encoded.target_class)
    save_model(model, tmp_path / "fitted.json")
    assert (tmp_path / "fitted.json").read_bytes() == MODEL_FILES[kind].read_bytes()


@pytest.mark.filterwarnings("ignore:.*coincided with centroid neighbors:UserWarning")
def test_bench_report_of_the_readme_config_matches_golden_byte_for_byte(tmp_path):
    csv_bytes, json_bytes = bench_report(tmp_path)
    assert csv_bytes == REPORT_CSV.read_bytes()
    assert json_bytes == REPORT_JSON.read_bytes()
