"""In-memory spans around the layer boundaries of the check path.

Spans are recorded from the benchmark's own files: around the calls it
makes (parse, elaborate, saturate, payload, explain) and, while a traced
pass runs, around three public names inside the engine that saturation
calls back into, patched for the duration of the run:

- ``conebound.engine.fire``         (span ``fire``)
- ``conebound.engine.instantiate``  (span ``instantiate``)
- ``conebound.model.BoundStore.apply`` (span ``apply``)

A span is ``(id, parent, scene, name, start, end, n)``: ``n`` is a small
count taken from the call's result (updates returned by ``fire``,
instances returned by ``instantiate``, 1 for an ``apply`` by a rule that
tightened the store).
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

ASSERTED = "asserted"

Span = tuple  # (id, parent, scene, name, start, end, n)

EMPTY_LAYER = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0, "zero": 0}


def _returned(result, args) -> int:
    return len(result)


def _tightened_by_rule(result, args) -> int:
    # args = (store, justification); True means the store tightened
    return int(result is True and args[1].rule_id != ASSERTED)


HOOKS = (
    # (span name, module path, attribute path, count of a result)
    ("fire", "conebound.engine", "fire", _returned),
    ("instantiate", "conebound.engine", "instantiate", _returned),
    ("apply", "conebound.model", "BoundStore.apply", _tightened_by_rule),
)


class Tracer:
    """Collects spans while ``enabled``; hooks pass straight through otherwise."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.stack: list[int] = []
        self.scene = -1
        self.enabled = False
        self.origin = time.perf_counter()
        self.missing: dict[str, str] = {}  # hook name -> why it is not installed
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (sid, parent, self.scene, name, start, end, 0)

    @contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the oracle re-runs engine code."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def _wrap(self, name: str, fn: Callable, count: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                n = 0 if result is None else count(result, args)
                spans[sid] = (sid, parent, tracer.scene, name, start, end, n)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every hook that exists; record why the others do not."""
        import importlib

        for name, module_path, attr_path, count in HOOKS:
            try:
                owner = importlib.import_module(module_path)
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"{module_path}.{attr_path} not found: {exc}"
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, scenes: dict[int, str]) -> None:
        """Spans as gzipped JSON lines, times in seconds from tracer start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["id", "parent", "scene", "name",
                                             "start", "end", "n"],
                                  "scenes": scenes}) + "\n")
            for sid, parent, scene, name, start, end, n in self.spans:
                out.write(json.dumps([sid, parent, scene, name,
                                      round(start - self.origin, 9),
                                      round(end - self.origin, 9), n]) + "\n")


def layer_totals(spans: list[Span]) -> dict:
    """Per span name (qualified by its parent's name): calls, total and
    self seconds, the sum of ``n`` and the number of spans with ``n == 0``.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap in this single thread.
    """
    child_time: dict[int, float] = {}
    for _, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    names = {sid: name for sid, _, _, name, _, _, _ in spans}
    out: dict[str, dict] = {}
    for sid, parent, _, name, start, end, n in spans:
        key = f"{names[parent]}/{name}" if parent >= 0 else name
        row = out.setdefault(key, EMPTY_LAYER.copy())
        duration = end - start
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(sid, 0.0)
        row["n"] += n
        row["zero"] += n == 0
    return out
