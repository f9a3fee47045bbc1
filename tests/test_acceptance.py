"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Oracles here are deliberately self-contained (plain math
and exhaustive loops) rather than reusing package internals."""

import json
import math
import time
import warnings
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from conftest import StubModel, make_encoded, select_local_path
from tcol.cli import main as cli_main
from tcol.engine import GenerationConfig, PREFERENCES, generate
from tcol.experiment import ExperimentConfig, baseline_random_path, run_experiment
from tcol.metrics import centrality, data_fidelity, proximity, sparsity
from tcol.models import ThirdPartyJury, fit_builtin
from tcol.scoring import ScoreRule

PROTO = np.array([0.6, 0.89, 0.49])
QUERY = np.array([0.8, 0.45, 0.87])

GOLD_ROWS = {
    (0, 0, 0): (1.0, 0.6148, 4.1882),
    (0, 0, 1): (0.9682, 0.4833, 4.2572),
    (0, 1, 0): (0.9466, 0.4294, 4.2542),
    (0, 1, 1): (0.8757, 0.2, 4.3658),
    (1, 0, 0): (0.9911, 0.5814, 4.2006),
    (1, 0, 1): (0.9729, 0.44, 4.3495),
    (1, 1, 0): (0.9128, 0.38, 4.1949),
    (1, 1, 1): (0.8757, 0.0, 4.8013),
}

GERMAN_WEIGHTS = (0.66, 0.67, 0.69, 0.65, 0.70)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:>2}: {description}")
        raise
    print(f"PASS  criterion {number:>2}: {description}")


# independent scalar oracles


def _cos(a, b):
    num = sum(x * y for x, y in zip(a, b))
    return num / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(x * x for x in b)))


def _sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def _oracle_score(tag, cand, proto, query):
    if tag == "rss":
        return math.exp(_cos(cand, proto)) / _sigmoid(math.dist(cand, query))
    if tag == "ncs":
        return _sigmoid(_cos(cand, proto)) / math.exp(math.dist(cand, query))
    diffs = sum(1 for a, b in zip(cand, query) if a != b)
    return _sigmoid(_cos(cand, proto)) * (len(cand) - diffs)


def _oracle_argmax(tag, proto, query):
    best_key, best_mask = None, None
    for index, mask in enumerate(product((0, 1), repeat=len(proto))):
        cand = [q if bit else p for p, q, bit in zip(proto, query, mask)]
        key = (_oracle_score(tag, cand, proto, query), sum(mask), -index)
        if best_key is None or key > best_key:
            best_key, best_mask = key, mask
    return best_mask


@pytest.fixture(scope="module")
def sampled_queries(synthetic_encoded):
    from tcol.experiment import _sample_queries

    return _sample_queries(synthetic_encoded, 10, seed=0)


@pytest.fixture(scope="module")
def engine_ces(synthetic_encoded, validation_model, sampled_queries):
    """10 queries x 5 preferences x 5 counterfactuals from the engine."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for preference in PREFERENCES:
            config = GenerationConfig(preference=preference, depth=3, num_ces=5)
            for qi in sampled_queries:
                query = synthetic_encoded.X[qi]
                ces = generate(synthetic_encoded, query, config, validation_model)
                out.append((qi, preference, ces))
    return out


@pytest.fixture(scope="module")
def bench_record(synthetic_files):
    config = ExperimentConfig(**synthetic_files)  # defaults: tcol, prefs a-e, 10 queries, seed 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_experiment(config)


def test_criterion_01_gold_row_reproduction():
    with criterion(1, "all eight worked-example path rows reproduce to within 1e-3"):
        start = time.perf_counter()
        for path, (sim_gold, cost_gold, rss_gold) in GOLD_ROWS.items():
            cand = np.where(np.array(path) == 1, QUERY, PROTO)
            sim = float(np.dot(cand, PROTO) / (np.linalg.norm(cand) * np.linalg.norm(PROTO)))
            cost = float(np.linalg.norm(cand - QUERY))
            score = ScoreRule("rss").score(cand, PROTO, QUERY)
            assert abs(sim - sim_gold) <= 1e-3, (path, sim)
            assert abs(cost - cost_gold) <= 1e-3, (path, cost)
            assert abs(score - rss_gold) <= 1e-3, (path, score)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_selected_path_is_all_query_bits():
    with criterion(2, "relative-similarity rule selects path (1, 1, 1) on the worked example"):
        assert select_local_path(PROTO, QUERY, ScoreRule("rss")) == (1, 1, 1)


def test_criterion_03_search_matches_exhaustive_argmax():
    with criterion(3, "local path selection equals brute-force argmax on 100 random pairs"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        mismatches = 0
        for i in range(100):
            n = 3 + i % 7  # feature counts 3 through 9
            proto = rng.random(n) * 0.98 + 0.01
            query = rng.random(n) * 0.98 + 0.01
            for tag in ("fcs", "ncs", "rss"):
                got = select_local_path(proto, query, ScoreRule(tag))
                want = _oracle_argmax(tag, proto.tolist(), query.tolist())
                mismatches += got != want
        assert mismatches == 0
        assert time.perf_counter() - start < 10.0


def test_criterion_04_validated_counterfactuals_flip_the_model(
    engine_ces, synthetic_encoded, validation_model
):
    with criterion(4, "every validated counterfactual is classified as the target class"):
        checked = 0
        for _, _, ces in engine_ces:
            validated = [ce for ce in ces if ce.validated]
            for ce in validated:
                assert validation_model.predict(ce.vector) == synthetic_encoded.target_class
                checked += 1
        assert checked > 0


def test_criterion_05_preference_property_trends(bench_record):
    with criterion(5, "sparsity(a) <= sparsity(e) and proximity(b) <= proximity(e) on the default run"):
        rows = {(r.generator, r.preference): r for r in bench_record.rows}
        assert rows[("tcol", "a")].sparsity <= rows[("tcol", "e")].sparsity
        assert rows[("tcol", "b")].proximity <= rows[("tcol", "e")].proximity


def test_criterion_06_immutable_features_never_change(
    engine_ces, synthetic_encoded, validation_model, sampled_queries
):
    with criterion(6, "no counterfactual alters an immutable feature (exact equality)"):
        immutable = synthetic_encoded.immutable_mask()
        assert immutable.any()
        total = 0
        for qi, _, ces in engine_ces:
            query = synthetic_encoded.X[qi]
            for ce in ces:
                assert np.array_equal(ce.vector[immutable], query[immutable])
                total += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for qi in sampled_queries:
                query = synthetic_encoded.X[qi]
                for ce in baseline_random_path(
                    synthetic_encoded, query, 5, seed=qi, validation_model=validation_model
                ):
                    assert np.array_equal(ce.vector[immutable], query[immutable])
                    total += 1
        assert total > 0


def test_criterion_07_metric_oracles():
    with criterion(7, "metric suite matches brute-force recomputation to 1e-12"):
        rng = np.random.default_rng(77)
        X = rng.random((20, 6))
        labels = ["yes"] * 13 + ["no"] * 7
        data = make_encoded(X, labels)
        query = rng.random(6)
        ces = [rng.random(6) for _ in range(5)]

        # proximity oracle: plain mean of euclidean distances
        expected = sum(math.dist(ce, query) for ce in ces) / len(ces)
        assert abs(proximity(ces, query) - expected) <= 1e-12

        # sparsity oracle: plain differing-component count
        mixed = [np.where(rng.random(6) < 0.5, query, ce) for ce in ces]
        expected = sum(
            sum(1 for a, b in zip(ce, query) if a != b) for ce in mixed
        ) / len(mixed)
        assert abs(sparsity(mixed, query) - expected) <= 1e-12

        # centrality oracle: nearest rows to the mean, ratio average
        target_rows = [X[i] for i in range(20) if labels[i] == "yes"]
        center = [sum(r[j] for r in target_rows) / len(target_rows) for j in range(6)]
        ranked = sorted(target_rows, key=lambda r: math.dist(r, center))
        ce = rng.random(6)
        expected = sum(math.dist(r, center) / math.dist(r, ce) for r in ranked[:10]) / 10
        assert abs(centrality(ce, data) - expected) <= 1e-12

        # the centroid itself scores exactly 1
        assert centrality(np.array(center), data) == 1.0

        # data fidelity oracle: weighted mean of per-member degenerate F1
        members = [
            StubModel(yes_vectors=[ces[i] for i in np.random.default_rng(k).choice(5, size=k, replace=False)])
            for k in (5, 3, 1, 4, 2)
        ]
        weights = (0.8, 0.6, 0.9, 0.5, 0.7)
        jury = ThirdPartyJury(members=tuple(zip(members, weights)))
        num = den = 0.0
        for member, weight in zip(members, weights):
            agreeing = sum(1 for ce in ces if member.predict(ce) == "yes")
            recall = agreeing / len(ces)
            p = 0.0 if agreeing == 0 else 2.0 * 1.0 * recall / (1.0 + recall)
            num += weight * p
            den += weight
        assert abs(data_fidelity(ces, jury, "yes") - num / den) <= 1e-12

        # reference check with published-style jury weights
        alternating = [StubModel(always=(i % 2 == 0)) for i in range(5)]
        jury = ThirdPartyJury(members=tuple(zip(alternating, GERMAN_WEIGHTS)))
        assert data_fidelity(ces, jury, "yes") == pytest.approx(0.60831, abs=1e-5)


def _margin_dataset(rng, n_features, n_rows=60):
    """Rows labeled by their mean with the borderline band dropped, so the
    validation model behaves comparably at every feature count."""
    X = rng.random((n_rows + 20, n_features)) * 0.9 + 0.05
    means = X.mean(axis=1)
    order = np.argsort(means)
    keep = np.concatenate([order[: n_rows // 2], order[-n_rows // 2 :]])
    X = X[keep]
    labels = ["no"] * (n_rows // 2) + ["yes"] * (n_rows // 2)
    return make_encoded(X, labels)


def test_criterion_08_runtime_grows_at_most_linearly():
    with criterion(8, "median generation time scales at most linearly over L in {6,12,24,48}"):
        rng = np.random.default_rng(88)
        medians = {}
        for n_features in (6, 12, 24, 48):
            data = _margin_dataset(rng, n_features)
            model = fit_builtin("random_forest", data, seed=0)
            config = GenerationConfig(preference="c", depth=3, num_ces=5)
            queries = np.flatnonzero(~data.target_mask())[:12]
            times = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for qi in queries:
                    # min of three repeats strips scheduler noise; the call
                    # itself is deterministic, so the minimum is the honest cost
                    times.append(
                        min(
                            _timed(generate, data, data.X[qi], config, model)
                            for _ in range(3)
                        )
                    )
            medians[n_features] = float(np.median(times))
        base = medians[6]
        for n_features, t in medians.items():
            assert t < 1.0, f"L={n_features} took {t:.3f}s"
            bound = 1.5 * base * (n_features / 6) + 0.005
            assert t <= bound, f"L={n_features}: {t:.4f}s exceeds linear bound {bound:.4f}s"


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_criterion_09_bench_reports_are_deterministic(tmp_path, synthetic_files):
    with criterion(9, "two bench runs with one config and seed produce byte-identical reports"):
        payload = dict(
            synthetic_files,
            preferences=["a", "c"],
            generators=["tcol", "nearest_target"],
            queries=10,
            seed=0,
            depth=3,
            num_ces=5,
            budget=64,
            jury=["knn", "naive_bayes", "decision_tree"],
            folds=10,
            out=str(tmp_path / "unused"),
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli_main(["bench", "--config", str(config_path), "--no-timing",
                             "--out", str(tmp_path / "r1")]) == 0
            assert cli_main(["bench", "--config", str(config_path), "--no-timing",
                             "--out", str(tmp_path / "r2")]) == 0
            assert cli_main(["bench", "--config", str(config_path),
                             "--out", str(tmp_path / "t1")]) == 0
            assert cli_main(["bench", "--config", str(config_path),
                             "--out", str(tmp_path / "t2")]) == 0
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
        # with timing enabled, everything except the runtime column still matches
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip((tmp_path / "t1.csv").read_text()) == strip((tmp_path / "t2.csv").read_text())


def test_criterion_10_encoder_round_trip(synthetic, synthetic_encoder):
    with criterion(10, "decode(encode(row)) is the identity on every bundled row"):
        for row in synthetic.rows:
            decoded = synthetic_encoder.decode(synthetic_encoder.encode(row))
            for got, want, feat in zip(decoded, row, synthetic.schema):
                if feat.kind == "categorical":
                    assert got == want
                else:
                    assert abs(got - want) <= 1e-9
