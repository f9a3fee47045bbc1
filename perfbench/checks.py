"""Independent correctness checks of tcol's outputs, in plain numpy.

Every formula here is written from tcol's README (preferences table,
scoring rules, metric definitions) and not taken from the package, so a
fault in a package function does not cancel out in its own check. The
only program calls are the fresh ``predict`` that ``validated`` must
agree with.
"""

from __future__ import annotations

import csv
import json
from itertools import product
from pathlib import Path

import numpy as np

RULE_BY_PREFERENCE = {"a": "fcs", "b": "ncs", "c": "rss", "d": "rss", "e": "rss"}
N_NEIGHBORS = 10
TOL = 1e-9


def read_raw_rows(csv_path: Path, schema_path: Path, target: str) -> list[tuple]:
    """Rows of the CSV as typed raw values, in schema order.

    A row with an empty cell in a used column is skipped, as the README's
    data-format section says the loader does.
    """
    schema = json.loads(Path(schema_path).read_text(encoding="utf-8"))
    with open(csv_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        columns = [header.index(f["name"]) for f in schema]
        label = header.index(target)
        rows = []
        for record in reader:
            if not record:
                continue
            cells = [record[c].strip() for c in columns]
            if "" in cells or record[label].strip() == "":
                continue
            rows.append(tuple(
                float(v) if f["kind"] == "numeric" else v for v, f in zip(cells, schema)
            ))
    return rows


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _close(a: float, b: float) -> bool:
    if a == b:  # also equal infinities
        return True
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def group_scores(rule: str, candidates: np.ndarray, proto: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Score each row of ``candidates`` (M x k) against one group's slices.

    fcs = sigmoid(cos(x, p)) * (k - diffs(x, q))   (sparsity-corrected default)
    ncs = sigmoid(cos(x, p)) / exp(d(x, q))
    rss = exp(cos(x, p)) / sigmoid(d(x, q))
    with Euclidean d. A zero-norm candidate has no cosine and scores -inf.
    """
    norms = np.linalg.norm(candidates, axis=1) * np.linalg.norm(proto)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.clip(candidates @ proto / norms, -1.0, 1.0)
    dist = np.linalg.norm(candidates - query, axis=1)
    if rule == "fcs":
        scores = _sigmoid(cos) * (candidates.shape[1] - np.sum(candidates != query, axis=1))
    elif rule == "ncs":
        scores = _sigmoid(cos) / np.exp(dist)
    else:
        scores = np.exp(cos) / _sigmoid(dist)
    return np.where(norms == 0.0, -np.inf, scores)


class Checker:
    """Checks one query's CE set and its evaluation; returns the problems found."""

    def __init__(self, X, y, target_class, immutable, raw_rows, depth, num_ces, model):
        self.X = np.asarray(X, dtype=float)
        self.target_class = target_class
        self.target_rows = np.flatnonzero(np.asarray(y) == target_class)
        self.immutable = np.asarray(immutable, dtype=bool)
        self.raw_rows = raw_rows
        self.num_ces = num_ces
        self.model = model
        n = self.X.shape[1]
        self.groups = [np.arange(s, min(s + depth, n)) for s in range(0, n, depth)]
        self.masks = {
            len(g): np.array(list(product((0, 1), repeat=len(g))), dtype=bool) for g in self.groups
        }
        rows = self.X[self.target_rows]
        self.center = rows.mean(axis=0)
        to_center = np.linalg.norm(rows - self.center, axis=1)
        self.neighbors = rows[np.argsort(to_center, kind="stable")[:N_NEIGHBORS]]
        self.neighbor_to_center = np.sort(to_center, kind="stable")[:N_NEIGHBORS]
        if len(raw_rows) != len(self.X):
            raise ValueError(f"{len(raw_rows)} raw rows for {len(self.X)} encoded rows")

    def centrality(self, ce: np.ndarray):
        """Mean d(neighbor, centroid) / d(neighbor, ce); None when a distance is 0."""
        to_ce = np.linalg.norm(self.neighbors - ce, axis=1)
        if np.any(to_ce == 0.0):
            return None
        return float(np.mean(self.neighbor_to_center / to_ce))

    def _rank_keys(self, preference: str, query: np.ndarray) -> np.ndarray:
        rows = self.X[self.target_rows]
        if preference == "a":
            return np.sum(rows != query, axis=1).astype(float)
        if preference == "b":
            return np.linalg.norm(rows - query, axis=1)
        if preference == "d":
            norms = np.linalg.norm(rows, axis=1) * np.linalg.norm(query)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(norms == 0.0, np.inf, -(rows @ query) / norms)
        return np.linalg.norm(rows - self.center, axis=1)

    def _check_prototypes(self, preference, query, chosen) -> list[str]:
        """``chosen`` (deduplicated CEs' prototypes, in order) is a top-k prefix
        by (immutable conflict, key), allowing for rounding among near-ties."""
        keys = self._rank_keys(preference, query)
        conflict = np.any(self.X[self.target_rows][:, self.immutable] != query[self.immutable], axis=1)
        position = {int(r): i for i, r in enumerate(self.target_rows)}
        picked = [position.get(p) for p in chosen]
        if None in picked:
            return ["a prototype is not a target-class row"]

        def beats(i, j):  # candidate i ranks clearly before candidate j
            if conflict[i] != conflict[j]:
                return bool(conflict[j])
            return keys[i] < keys[j] and not _close(keys[i], keys[j])

        problems = []
        if any(beats(j, i) for i, j in zip(picked, picked[1:])):
            problems.append(f"prototypes for '{preference}' are out of rank order")
        everyone = range(len(keys))
        if any(beats(c, picked[0]) for c in everyone):
            problems.append(f"first prototype for '{preference}' is not a top-ranked row")
        skipped = sum(1 for c in everyone if c not in picked and beats(c, picked[-1]))
        if skipped > self.num_ces - len(picked):
            problems.append(f"prototypes for '{preference}' skip {skipped} better-ranked rows")
        return problems

    def check(self, query_index: int, preference: str, ces, evaluation) -> list[str]:
        q = self.X[query_index]
        rule = RULE_BY_PREFERENCE[preference]
        problems = []
        if not 1 <= len(ces) <= self.num_ces:
            problems.append(f"{len(ces)} CEs returned, expected 1..{self.num_ces}")
        seen = set()
        for n, ce in enumerate(ces):
            where = f"CE {n}"
            p = self.X[ce.prototype_index]
            path = np.asarray(ce.path)
            if path.shape != q.shape or not np.all((path == 0) | (path == 1)):
                problems.append(f"{where}: path is not a 0/1 vector over the features")
                continue
            expected = np.where(path == 1, q, p)
            vector = np.asarray(ce.vector, dtype=float)
            if vector.tobytes() != expected.tobytes():
                problems.append(f"{where}: components are not copied from query/prototype by path")
            if vector[self.immutable].tobytes() != q[self.immutable].tobytes():
                problems.append(f"{where}: an immutable feature differs from the query")
            key = vector.tobytes()
            if key in seen:
                problems.append(f"{where}: duplicates an earlier CE")
            seen.add(key)
            fresh = self.model.predict(vector) == self.target_class
            if bool(ce.validated) != fresh:
                problems.append(f"{where}: validated={ce.validated} but a fresh predict says {fresh}")
            if not ce.fallback and not ce.validated:
                problems.append(f"{where}: not a fallback yet not validated")

            total, best, best_path = 0.0, 0.0, np.empty(len(q), dtype=bool)
            for g in self.groups:
                masks = self.masks[len(g)]
                row = np.flatnonzero(np.all(masks == path[g].astype(bool), axis=1))[0]
                scores = group_scores(rule, np.where(masks, q[g], p[g]), p[g], q[g])
                total += scores[row]
                scores[~np.all(masks[:, self.immutable[g]], axis=1)] = -np.inf
                best += np.max(scores)
                best_path[g] = masks[np.argmax(scores)]
            if not _close(float(ce.score), float(total)):
                problems.append(f"{where}: score {ce.score!r} != recomputed {total!r}")
            if ce.score > best and not _close(float(ce.score), float(best)):
                problems.append(f"{where}: score {ce.score!r} beats the best total {best!r}")
            # Combinations are drawn best total first, so a CE that is not the
            # best combination means the best one was drawn and rejected.
            if (ce.fallback or not _close(float(ce.score), float(best))) and (
                self.model.predict(np.where(best_path, q, p)) == self.target_class
            ):
                problems.append(f"{where}: the best-total combination validates but was not chosen")

            decoded = evaluation.decoded[n]
            for i, value in enumerate(decoded):
                source = self.raw_rows[query_index if path[i] == 1 else ce.prototype_index][i]
                same = value == source if isinstance(source, str) else _close(float(value), source)
                if not same:
                    problems.append(f"{where}: feature {i} decodes to {value!r}, source has {source!r}")
                    break

            mine = self.centrality(vector)
            theirs = evaluation.centrality[n]
            if (mine is None) != (theirs is None) or (mine is not None and not _close(mine, theirs)):
                problems.append(f"{where}: centrality {theirs!r} != numpy {mine!r}")

        if problems:
            return problems
        V = np.array([ce.vector for ce in ces], dtype=float)
        if not _close(evaluation.proximity, float(np.mean(np.linalg.norm(V - q, axis=1)))):
            problems.append("proximity differs from the numpy value")
        if not _close(evaluation.sparsity, float(np.mean(np.sum(V != q, axis=1)))):
            problems.append("sparsity differs from the numpy value")
        if not _close(evaluation.validity, float(np.mean([ce.validated for ce in ces]))):
            problems.append("validity differs from the CEs' validated flags")
        if preference != "c":
            problems += self._check_prototypes(preference, q, [ce.prototype_index for ce in ces])
        return problems
