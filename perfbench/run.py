"""Closed-loop benchmark of tcol: set-up, then generate -> decode -> evaluate.

One caller, one query at a time, no worker threads or processes. Each
run builds its inputs from ``--seed``, sets the pipeline up (load, encode,
random-forest validation model, cross-validated jury) and then sweeps
whole passes over every (denied query, preference) pair until
``--seconds`` have passed, setting up again between passes until it has
timed five set-ups. Every CE set is checked independently (``checks.py``).
The last line of standard output is one JSON object:

  --trace 0  end-to-end metrics (set-up time, generate/evaluate latency,
             throughput, peak memory); times are scaled to the speed of a
             fixed reference computation (``REFERENCE_S``)
  --trace 1  per-layer metrics from spans recorded around tcol's layer
             entry points (``tracing.py``); each pair is generated once
             without and once with tracing, which gives the overhead.

Run from the repository root:
  python3 perfbench/run.py --workload credit --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import datagen  # noqa: E402
from tracing import Tracer  # noqa: E402

JURY = ("knn", "naive_bayes", "decision_tree")
FOLDS = 10
NUM_CES = 5
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    depth: int
    rows: int = 0  # 0: the bundled credit set
    features: int = 0
    queries: int = 0  # 0: every denied row


# Every workload has at least 100 (query, preference) pairs, so that
# gen_ms_p90 has at least ten pairs above it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("credit", depth=3),
        Workload("wide-deep", depth=9, rows=300, features=48, queries=20),
        Workload("tall", depth=3, rows=1000, features=12, queries=20),
    )
}


def import_tcol():
    """Import tcol from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "tcol" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tcol sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import tcol
    from tcol import engine, metrics, models, scoring, tabular

    if Path(tcol.__file__).resolve().parent != (src / "tcol").resolve():
        raise SystemExit(f"perfbench: imported tcol from {tcol.__file__}, not from {src}")
    return engine, metrics, models, scoring, tabular


engine, metrics, models, scoring, tabular = import_tcol()


def inputs_for(workload: Workload, seed: int):
    """(csv, schema, target, target class) for one workload and seed."""
    if workload.rows == 0:
        data = ROOT / "src" / "tcol" / "data"
        return data / "synthetic_credit.csv", data / "synthetic_credit.schema.json", "loan", "approved"
    out = OUT_DIR / "data" / f"{workload.name}-{workload.rows}x{workload.features}-seed{seed}"
    csv_path, schema_path = datagen.write_dataset(seed, workload.rows, workload.features, out)
    return csv_path, schema_path, datagen.TARGET, datagen.TARGET_CLASS


@dataclass
class Pipeline:
    encoder: object
    encoded: object
    model: object
    jury: object


# The reference machine of the README, a shared 2-vCPU VM, drifts in speed
# by up to 1.7x, over seconds and over minutes (README, Noise). Every end-to-end time is
# therefore scaled by a fixed reference computation timed right before and
# right after the timed call: the reference slows down with the machine, but
# not with the program. REFERENCE_S is the reference's time on that machine
# at full speed, so there the scaled figures are wall times.
REFERENCE_S = 0.25e-3
_REF_VECTOR = np.arange(64.0)


def reference() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy calls."""
    start = time.perf_counter()
    s, d = 0.0, {}
    for i in range(1500):
        s += (i * 0.5) ** 0.5
        d[i & 63] = s
    for _ in range(40):
        s += float(np.dot(_REF_VECTOR, _REF_VECTOR))
    return time.perf_counter() - start


def timed(fn):
    """(fn(), wall time of the call, mean of the references around it)."""
    before = reference()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, (before + reference()) / 2


def scaled(wall: float, ref: float) -> float:
    return wall * REFERENCE_S / ref


def set_up(csv_path, schema_path, target, target_class) -> tuple[Pipeline, float, float]:
    """The pipeline, then its set-up time unscaled and scaled. Each stage is
    scaled by the references around it, which keeps them close to it."""
    dataset, *load = timed(lambda: tabular.load_csv(
        csv_path, tabular.load_schema(schema_path), target, target_class))
    encoder, *fit_encoder = timed(lambda: tabular.fit_encoder(dataset))
    encoded, *encode = timed(lambda: tabular.encode_dataset(encoder, dataset))
    model, *forest = timed(lambda: models.fit_builtin("random_forest", encoded, seed=0))
    jury, *cv = timed(lambda: models.cv_weights(JURY, encoded, FOLDS, seed=0))
    stages = (load, fit_encoder, encode, forest, cv)
    return (Pipeline(encoder, encoded, model, jury),
            sum(wall for wall, _ in stages), sum(scaled(*stage) for stage in stages))


@dataclass
class SetEvaluation:
    decoded: list
    proximity: float
    sparsity: float
    validity: float
    data_fidelity: float
    centrality: list  # per CE; None where the CE coincides with a centroid neighbour


def evaluate(p: Pipeline, query, ces) -> SetEvaluation:
    """Decode every CE and score the set with the full metric suite."""
    vectors = [ce.vector for ce in ces]
    decoded = [p.encoder.decode(v) for v in vectors]
    target = p.encoded.target_class
    per_ce = []
    for v in vectors:
        try:
            per_ce.append(metrics.centrality(v, p.encoded))
        except ValueError:  # excluded, as the experiment harness does; checked below
            per_ce.append(None)
    return SetEvaluation(
        decoded=decoded,
        proximity=metrics.proximity(vectors, query),
        sparsity=metrics.sparsity(vectors, query),
        validity=metrics.validity(vectors, p.model, target),
        data_fidelity=metrics.data_fidelity(vectors, p.jury, target),
        centrality=per_ce,
    )


def instrument(tracer: Tracer, p: Pipeline) -> None:
    """Spans at the layer entry points that ``generate`` and ``evaluate`` reach."""
    tracer.patch(engine, "select_prototypes", "engine.select_prototypes")
    tracer.patch_generator(engine, "ranked_path_combinations",
                           "engine.group_score", "engine.draw", "engine.combos_drawn")
    tracer.patch(scoring.ScoreRule, "score", "scoring.score")
    tracer.patch(p.model, "predict_proba", "models.predict_proba")
    tracer.patch(tabular.Encoder, "decode", "tabular.decode")
    for name in ("proximity", "sparsity", "validity", "data_fidelity", "centrality"):
        tracer.patch(metrics, name, f"metrics.{name}")


def instrument_setup(tracer: Tracer) -> None:
    for name in ("load_schema", "load_csv", "fit_encoder", "encode_dataset"):
        tracer.patch(tabular, name, f"tabular.{name}")
    for name in ("fit_builtin", "cv_weights"):
        tracer.patch(models, name, f"models.{name}")


def query_order(workload: Workload, encoded, seed: int) -> list[int]:
    denied = np.flatnonzero(~encoded.target_mask())
    rng = np.random.default_rng([seed, 1])
    if workload.queries == 0:
        return [int(i) for i in rng.permutation(denied)]
    return [int(i) for i in rng.choice(denied, size=workload.queries, replace=False)]


class Tally:
    """Operations attempted and failed; a raised error or failed check is one failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._reported = set()

    def run(self, label, fn, *args):
        self.attempted += 1
        try:
            return fn(*args), True
        except Exception as exc:  # the run goes on; the failure is counted and reported once
            self.failed += 1
            if self._report(f"{label}: {type(exc).__name__}: {exc}"):
                traceback.print_exc(limit=3, file=sys.stderr)
            return None, False

    def skip(self, n: int) -> None:
        self.attempted += n
        self.failed += n

    def check(self, label, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self._report(f"check failed: {label}: {problems[0]} ({len(problems)} problems)")

    def _report(self, message) -> bool:
        """Print the first few distinct failures to stderr; True if printed."""
        if len(self._reported) >= 10 or message in self._reported:
            return False
        self._reported.add(message)
        print(f"perfbench: {message}", file=sys.stderr)
        return True


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    warnings.simplefilter("ignore", engine.AlreadyTargetWarning)
    csv_path, schema_path, target, target_class = inputs_for(workload, seed)
    tracer = Tracer() if trace else None

    setup_s = []  # (unscaled, scaled) per set-up

    def timed_set_up() -> Pipeline:
        if tracer:
            instrument_setup(tracer)
            tracer.query_id = -1
            span = tracer.open("setup")
        pipeline, *times = set_up(csv_path, schema_path, target, target_class)
        setup_s.append(times)
        if tracer:
            tracer.close(span)
            tracer.restore()
        return pipeline

    p = timed_set_up()
    encoded = p.encoded
    checker = checks.Checker(
        encoded.X, encoded.y, target_class, encoded.immutable_mask(),
        checks.read_raw_rows(csv_path, schema_path, target), workload.depth, NUM_CES, p.model,
    )
    queries = query_order(workload, encoded, seed)
    configs = {pref: engine.GenerationConfig(preference=pref, depth=workload.depth, num_ces=NUM_CES)
               for pref in engine.PREFERENCES}

    tally = Tally()
    # per (query, preference) pair, (wall time, reference time) of each
    # untraced pass
    gen_s, eval_s = {}, {}
    traced_gen_s = []
    ce_counts = {"ces": 0, "fallbacks": 0, "validated": 0}

    def sample(qi: int, pref: str) -> None:
        """Generate, evaluate and check one pair; in trace mode generate it
        a second time with spans on and evaluate that one."""
        label = f"query {qi} preference {pref}"
        query = encoded.X[qi]

        def generate():
            return engine.generate(encoded, query, configs[pref], p.model)

        out, ok = tally.run(label, timed, generate)
        if not ok:
            return
        ces, *times = out
        gen_s.setdefault((qi, pref), []).append(times)
        if not tracer:
            out, ok = tally.run(label, timed, lambda: evaluate(p, query, ces))
            if not ok:
                return
            evaluation, *times = out
            eval_s.setdefault((qi, pref), []).append(times)
        else:
            plain = ces
            instrument(tracer, p)
            tracer.query_id = len(traced_gen_s)

            def traced_generate():
                with tracer.span("generate"):
                    return generate()

            try:
                out, ok = tally.run(label, timed, traced_generate)
                if not ok:
                    return
                ces, *times = out
                traced_gen_s.append(times)
                with tracer.span("evaluate"):
                    evaluation, ok = tally.run(label, evaluate, p, query, ces)
            finally:
                tracer.restore()
            if not ok:
                return
            if [c.vector.tobytes() for c in ces] != [c.vector.tobytes() for c in plain]:
                tally.check(label, ["traced and untraced generate disagree"])
                return
            ce_counts["ces"] += len(ces)
            ce_counts["fallbacks"] += sum(ce.fallback for ce in ces)
            ce_counts["validated"] += sum(ce.validated and not ce.fallback for ce in ces)
        tally.check(label, checker.check(qi, pref, ces, evaluation))

    # generate, evaluate, check; trace mode adds the traced generate
    ops_per_sample = 4 if trace else 3
    elapsed = 0.0
    while True:
        start = time.perf_counter()
        for qi in queries:
            for pref in engine.PREFERENCES:
                before = tally.attempted
                sample(qi, pref)
                # an operation that could not run after a failure counts as failed
                tally.skip(before + ops_per_sample - tally.attempted)
        elapsed += time.perf_counter() - start
        if elapsed >= seconds:
            break
        # The remaining set-ups go between passes, so that their median does
        # not rest on one stretch of the machine's drifting speed.
        if len(setup_s) < setup_repeats:
            timed_set_up()
    while len(setup_s) < setup_repeats:
        timed_set_up()
    if not (traced_gen_s if trace else eval_s):
        raise SystemExit("perfbench: no pair was generated and evaluated; see the errors above")

    if trace:
        values = per_layer(tracer, gen_s, traced_gen_s, ce_counts)
        report = {"workload": workload.name, "seed": seed, "sweep_s": elapsed,
                  "setup_s": [wall for wall, _ in setup_s],
                  "samples": len(traced_gen_s), "metrics": values}
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{seed}.json", report)
    else:
        values = end_to_end(setup_s, gen_s, eval_s)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": values,
    }
    if not trace:
        result["unscaled"] = unscaled(setup_s, gen_s, eval_s)
    return result


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(setup_s, gen_s, eval_s) -> dict:
    """Scaled times; each pair's time is its median over the run's passes."""
    pairs = list(eval_s)

    def per_pair_ms(samples):
        return np.array([np.median([scaled(*t) for t in samples[k]]) for k in pairs]) * 1e3

    gen_ms = per_pair_ms(gen_s)
    eval_ms = per_pair_ms(eval_s)
    return {
        "setup_s": _metric(np.median([s for _, s in setup_s]), "s"),
        "gen_ms_p50": _metric(np.percentile(gen_ms, 50), "ms"),
        "gen_ms_p90": _metric(np.percentile(gen_ms, 90), "ms"),
        "eval_ms_p50": _metric(np.median(eval_ms), "ms"),
        "queries_per_s": _metric(len(pairs) * 1e3 / (gen_ms.sum() + eval_ms.sum()), "1/s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def unscaled(setup_s, gen_s, eval_s) -> dict:
    """Wall-time medians and the reference's median time, for the reader."""
    def median_ms(samples, i):
        return float(np.median([np.median([t[i] for t in ts]) for ts in samples.values()]) * 1e3)

    return {
        "setup_s": _metric(np.median([wall for wall, _ in setup_s]), "s"),
        "gen_ms_p50": _metric(median_ms(gen_s, 0), "ms"),
        "eval_ms_p50": _metric(median_ms(eval_s, 0), "ms"),
        "reference_us": _metric(median_ms(gen_s, 1) * 1e3, "us"),
    }


def per_layer(tracer: Tracer, gen_s, traced_gen_s, ce_counts) -> dict:
    t = tracer.table()
    root_name = t["name"][t["root"]]

    def spans(name, root=None):
        pick = t["name"] == tracer.name_id(name)
        if root is not None:
            pick &= root_name == tracer.name_id(root)
        return t["duration"][pick] / 1e6  # ms

    def per_setup(*names):
        """Median over set-ups of the summed time of ``names`` (ms)."""
        pick = np.isin(t["name"], [tracer.name_id(n) for n in names])
        setups = np.flatnonzero(t["name"] == tracer.name_id("setup"))
        return float(np.median([t["duration"][pick & (t["root"] == s)].sum() / 1e6 for s in setups]))

    n_gen = len(spans("generate"))
    n_protos = len(spans("engine.group_score"))
    drawn = tracer.counts.get("engine.combos_drawn", 0)
    predict = spans("models.predict_proba", root="generate")
    score = spans("scoring.score", root="generate")
    return {
        "tabular.load_ms": _metric(per_setup("tabular.load_schema", "tabular.load_csv"), "ms"),
        "tabular.encode_ms": _metric(per_setup("tabular.fit_encoder", "tabular.encode_dataset"), "ms"),
        "tabular.decode_us_per_ce": _metric(np.median(spans("tabular.decode")) * 1e3, "us"),
        "models.forest_fit_s": _metric(per_setup("models.fit_builtin") / 1e3, "s"),
        "models.jury_cv_s": _metric(per_setup("models.cv_weights") / 1e3, "s"),
        "models.predict_calls_per_query": _metric(len(predict) / n_gen, "count"),
        "models.predict_us": _metric(np.median(predict) * 1e3, "us"),
        "models.predict_ms_per_query": _metric(predict.sum() / n_gen, "ms"),
        "engine.rank_ms_per_query": _metric(spans("engine.select_prototypes").sum() / n_gen, "ms"),
        "engine.group_score_ms_per_query": _metric(spans("engine.group_score").sum() / n_gen, "ms"),
        "engine.draw_ms_per_query": _metric(spans("engine.draw").sum() / n_gen, "ms"),
        "engine.combos_drawn_per_ce": _metric(drawn / n_protos, "count"),
        "engine.validated_per_drawn": _metric(ce_counts["validated"] / drawn, "ratio"),
        "engine.fallbacks_per_query": _metric(ce_counts["fallbacks"] / n_gen, "count"),
        "engine.dedup_drops_per_query": _metric((n_protos - ce_counts["ces"]) / n_gen, "count"),
        "engine.ces_per_query": _metric(ce_counts["ces"] / n_gen, "count"),
        "scoring.score_calls_per_query": _metric(len(score) / n_gen, "count"),
        "scoring.score_us": _metric(np.median(score) * 1e3, "us"),
        "metrics.centrality_ms_per_ce": _metric(np.median(spans("metrics.centrality")), "ms"),
        "metrics.fidelity_ms_per_set": _metric(np.median(spans("metrics.data_fidelity")), "ms"),
        "metrics.validity_ms_per_set": _metric(np.median(spans("metrics.validity")), "ms"),
        "trace.overhead_ms_p50": _metric((np.median([wall for wall, _ in traced_gen_s])
                                          - np.median([wall for ts in gen_s.values() for wall, _ in ts])) * 1e3, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tcol closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:14.6f} {metric['unit']}")
    for name, metric in result.pop("unscaled", {}).items():
        print(f"{'unscaled ' + name:34s} {metric['value']:14.6f} {metric['unit']}")
    print(f"{'operations attempted / failed':34s} {result['attempted']:>7d} / {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
