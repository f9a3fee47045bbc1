"""The benchmark's result line: a smoke-size run of ``perfbench/run.py``
in process, on the bundled credit set and the synthetic ``tall`` set,
with and without tracing. Every operation must succeed and the result
must serialise as strict JSON, with no NaN or infinity in it. Data and
trace files go to the git-ignored ``perfbench/out/``."""

import json
import sys
from dataclasses import replace
from pathlib import Path

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
