"""The benchmark's result line: a smoke-size run of ``perfbench/run.py``
in process, on the bundled credit set and the synthetic ``tall`` set,
with and without tracing. Every operation must succeed and the result
must serialise as strict JSON, with no NaN or infinity in it. Data and
trace files go to the git-ignored ``perfbench/out/``, except for the span
nesting check, which writes its own under a temporary directory."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", ["credit", "tall"])
def test_the_benchmark_result_is_strict_json(workload, trace):
    small = replace(run.WORKLOADS[workload], queries=2, rows=min(run.WORKLOADS[workload].rows, 80))
    result = run.run(small, seed=0, seconds=0, trace=trace, setup_repeats=1)
    assert result["failed"] == 0 and result["attempted"] > 0
    json.dumps(result, allow_nan=False)


def test_every_score_call_nests_in_a_group_score_span(tmp_path, monkeypatch):
    # The first ``next`` of the merge generator is spanned as
    # ``engine.group_score``, so group scoring must run inside it.
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    small = replace(run.WORKLOADS["tall"], queries=2, rows=80)
    assert run.run(small, seed=0, seconds=0, trace=True, setup_repeats=1)["failed"] == 0
    spans = np.load(tmp_path / "trace-tall-seed0.spans.npz")
    names = spans["names"].tolist()
    score = np.flatnonzero(spans["name"] == names.index("scoring.score"))
    parents = spans["parent"][score]
    assert len(score) and np.all(parents >= 0)
    assert np.all(spans["name"][parents] == names.index("engine.group_score"))
