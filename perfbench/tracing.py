"""In-memory spans around tcol's layer entry points, patched in from outside.

A span is (name, start, end, parent, query id). Spans are appended to
flat integer arrays while the run goes on and written once at the end.
The program itself is not changed: ``Tracer.patch`` swaps a module or
class attribute for a wrapper and ``Tracer.restore`` puts it back.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.query = array("q")
        self.counts: dict[str, int] = {}
        self.query_id = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.query.append(self.query_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(_now())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)

        self._swap(owner, attr, traced)

    def patch_generator(self, owner, attr: str, first: str, later: str, yields: str) -> None:
        """Span each ``next`` of the generator that ``owner.attr`` returns.

        The first ``next`` runs the generator body up to its first yield
        and gets span ``first``; every later one gets span ``later``.
        Each value produced adds one to counter ``yields``.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            name = first
            while True:
                index = self.open(name)
                name = later
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                self.count(yields)
                yield value

        self._swap(owner, attr, traced)

    def _swap(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------

    def table(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, with durations, self times and roots."""
        name, start, end, parent, query = (
            np.frombuffer(column, dtype=np.int64).copy()
            for column in (self.name, self.start, self.end, self.parent, self.query)
        )
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(start))
        # A parent opens before its children, so following parents reaches
        # the root span in at most log2(depth) doubling steps.
        index = np.arange(len(start))
        root = np.where(has_parent, parent, index)
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        return {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "query": query,
            "duration": duration,
            "self": duration - child_time.astype(np.int64),
            "root": root,
        }

    def name_id(self, name: str) -> int:
        return self._name_ids.get(name, -1)

    def write(self, path: Path, report: dict) -> None:
        """Write the spans (``.npz``) and ``report`` plus per-name totals (JSON)."""
        t = self.table()
        path.parent.mkdir(parents=True, exist_ok=True)
        spans_path = path.with_suffix(".spans.npz")
        np.savez_compressed(
            spans_path,
            names=np.array(self.names),
            name=t["name"], start_ns=t["start"], end_ns=t["end"],
            parent=t["parent"], query=t["query"],
        )
        by_name = {}
        for name_id, name in enumerate(self.names):
            pick = t["name"] == name_id
            by_name[name] = {
                "count": int(pick.sum()),
                "total_ms": float(t["duration"][pick].sum()) / 1e6,
                "self_ms": float(t["self"][pick].sum()) / 1e6,
            }
        payload = dict(report, spans_file=spans_path.name, span_count=len(t["start"]),
                       spans=by_name, counts=self.counts)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


_MISSING = object()
