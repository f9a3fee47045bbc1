"""Write the golden outputs of the bundled credit set.

Two kinds of fixture are written next to this script:

* ``credit.npz``: every denied row of the bundled set explained under each
  preference at depths 3 and 6, with the seed-0 random forest as the
  validation model. For each CE it keeps the vector, path, prototype
  index, score and the validated and fallback flags. It also keeps the
  target-class probability of every encoded row under the two model files
  below.
* ``decision_tree.model.json`` and ``random_forest.model.json``: a
  default decision tree and a small forest (5 trees, depth 4), saved with
  ``save_model``.

``tests/test_golden.py`` compares the current code against them bit for
bit. The fixtures are written once by a reference version of the package
and then kept as they are. The two model files were written again, once,
when model files moved to ``format_version`` 2 (trees as preorder node
arrays); the trees, their predictions and ``credit.npz`` stayed as they
were. ``credit.npz`` was written again, once, when row dot products moved
from one BLAS dot per row to an ``np.einsum`` reduction: only ``score``
changed, in 452 of the 3,428 CEs, by at most 5.92e-16 relative, and the
writer gave the same arrays under the OpenBLAS kernels ``SkylakeX`` and
``Haswell`` (``OPENBLAS_CORETYPE``). ``credit.npz`` and
``random_forest.model.json`` were written again, once, when the forest
grower moved from one ``rng.choice`` per node, in preorder, to one
``random`` draw per tree and depth level: every forest changed, the
decision tree and its probabilities did not. 522 of the 700 CE sets
changed; 1,358 of the 3,411 CEs (3,428 before) are not in their set's old
list, and fallbacks went from 38 to 0. To rewrite them, put that
version's ``src`` on the path:

    PYTHONPATH=<reference checkout>/src python tests/golden/write_credit.py
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

import numpy as np

from tcol.data import load_synthetic
from tcol.engine import PREFERENCES, GenerationConfig, generate
from tcol.models import DecisionTree, RandomForest, fit_builtin, save_model
from tcol.tabular import encode_dataset, fit_encoder

HERE = Path(__file__).parent
FIXTURE = HERE / "credit.npz"
DEPTHS = (3, 6)
CE_FIELDS = ("vector", "path", "prototype_index", "score", "validated", "fallback")
CE_DTYPES = (np.float64, np.int8, np.int64, np.float64, bool, bool)
MODEL_FILES = {
    "decision_tree": HERE / "decision_tree.model.json",
    "random_forest": HERE / "random_forest.model.json",
}


def credit_encoded():
    dataset = load_synthetic()
    return encode_dataset(fit_encoder(dataset), dataset)


def credit_ces(encoded) -> dict[str, np.ndarray]:
    """Every golden CE set, flattened.

    ``keys[s]`` is set ``s``'s (depth, preference index, query row), and
    its CEs are rows ``offsets[s]:offsets[s + 1]`` of the CE field arrays.
    """
    model = fit_builtin("random_forest", encoded, seed=0)
    keys, offsets = [], [0]
    fields = {name: [] for name in CE_FIELDS}
    for depth in DEPTHS:
        for p, preference in enumerate(PREFERENCES):
            config = GenerationConfig(preference=preference, depth=depth)
            for row in np.flatnonzero(~encoded.target_mask()):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    ces = generate(encoded, encoded.X[row], config, model)
                keys.append((depth, p, int(row)))
                offsets.append(offsets[-1] + len(ces))
                for ce in ces:
                    for name in CE_FIELDS:
                        fields[name].append(getattr(ce, name))
    out = {"keys": np.array(keys, dtype=np.int64), "offsets": np.array(offsets, dtype=np.int64)}
    for name, dtype in zip(CE_FIELDS, CE_DTYPES):
        out[name] = np.array(fields[name], dtype=dtype)
    return out


def main() -> int:
    encoded = credit_encoded()
    arrays = credit_ces(encoded)
    fitted = {
        "decision_tree": DecisionTree(),
        "random_forest": RandomForest(n_trees=5, max_depth=4, seed=0),
    }
    for kind, model in fitted.items():
        model.fit(encoded.X, encoded.y, encoded.target_class)
        save_model(model, MODEL_FILES[kind])
        arrays[f"proba_{kind}"] = np.array([model.predict_proba(row) for row in encoded.X])
    np.savez_compressed(FIXTURE, **arrays)
    print(f"wrote {len(arrays['keys'])} sets, {arrays['offsets'][-1]} CEs -> {FIXTURE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
