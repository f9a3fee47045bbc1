"""Write the golden ``tcol bench`` report of the README config.

Two files are written next to this script, from one run of ``tcol bench
--no-timing`` on the README's config (the bundled credit set, 3
generators x 5 preferences, 10 queries):

* ``report.csv``: the CSV report as ``bench`` writes it.
* ``report.json``: the JSON report without its ``config`` block, which
  holds the data paths of the machine that ran it; every other key
  (``metrics`` and ``counterfactuals`` among them) is kept, in ``bench``'s
  own layout.

``tests/test_golden.py`` compares the current code against them byte for
byte. As with ``write_credit.py``, the files are written once by a
reference version of the package and then kept as they are.
``report.json`` was written again, once, when the report moved to
``format_version`` 2: each baseline's table, which version 1 repeated
under every preference, is kept once, with the list of preferences it
stands for. Its ``metrics`` list and every kept table stayed as they
were, and ``report.csv`` kept its bytes. To rewrite them:

    PYTHONPATH=<reference checkout>/src python tests/golden/write_report.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from tcol.cli import main as tcol_main
from tcol.data import SYNTHETIC_TARGET, SYNTHETIC_TARGET_CLASS, synthetic_paths

HERE = Path(__file__).parent
REPORT_CSV = HERE / "report.csv"
REPORT_JSON = HERE / "report.json"

# the README's bench config, less its dataset, schema and output paths
README_CONFIG = {
    "target": SYNTHETIC_TARGET,
    "target_class": SYNTHETIC_TARGET_CLASS,
    "preferences": ["a", "b", "c", "d", "e"],
    "generators": ["tcol", "nearest_target", "random_path"],
    "queries": 10,
    "seed": 0,
    "depth": 3,
    "num_ces": 5,
    "budget": 64,
    "jury": ["knn", "naive_bayes", "decision_tree"],
    "folds": 10,
}


def bench_report(out_dir: Path) -> tuple[bytes, bytes]:
    """Run ``tcol bench --no-timing`` on the README config in ``out_dir``;
    return the CSV report and the JSON report without ``config``."""
    csv_path, schema_path = synthetic_paths()
    config = {"dataset": str(csv_path), "schema": str(schema_path), **README_CONFIG}
    config["out"] = str(out_dir / "report")
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    if tcol_main(["bench", "--config", str(config_path), "--no-timing"]) != 0:
        raise RuntimeError("tcol bench failed on the README config")
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    del report["config"]
    # bench's own json.dumps settings, so that the kept keys keep their bytes
    kept = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return (out_dir / "report.csv").read_bytes(), kept.encode("utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        csv_bytes, json_bytes = bench_report(Path(tmp))
    REPORT_CSV.write_bytes(csv_bytes)
    REPORT_JSON.write_bytes(json_bytes)
    print(f"wrote {REPORT_CSV} and {REPORT_JSON}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
