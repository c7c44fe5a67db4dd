"""A span recorder that times calls into the program from outside.

:meth:`SpanRecorder.wrap` replaces a function or method attribute with a
wrapper that records one span per call: its name, start, end, parent span
(the innermost open span on the same thread) and request id (inherited
from the root span of the call tree, or taken from the call's own
metadata).  Spans stay in memory; :meth:`SpanRecorder.dump` writes them
out once, when the benchmark or the traced server ends.  No file of the
program changes: :meth:`SpanRecorder.uninstall` restores every attribute.

A layer's self time is its span's duration minus its child spans'
durations (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections.abc import Callable
from typing import Any

# Record layout (a list, so ``end`` can be filled in place):
NAME, START, END, PARENT, RID, THREAD, META = range(7)

Meta = Callable[[tuple, dict, Any], dict]


class SpanRecorder:
    """In-memory span store plus the attribute patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        # time.monotonic is CLOCK_MONOTONIC on Linux: comparable between
        # the benchmark process and a traced server subprocess.
        self.clock = clock
        self.spans: list[list] = []  # guarded-by: _lock (append)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.thread = threading.current_thread().name
        return stack

    def begin(self, name: str, rid: Any = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if rid is None and parent >= 0:
            rid = self.spans[parent][RID]
        record = [name, self.clock(), None, parent, rid, self._local.thread, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: int, meta: dict | None = None) -> None:
        record = self.spans[index]
        record[END] = self.clock()
        if meta:
            record[META] = meta
            if record[RID] is None and "rid" in meta:
                record[RID] = meta["rid"]
        self._stack().pop()

    # -- patching --------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, meta: Meta | None = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = recorder.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                recorder.end(index, meta(args, kwargs, result) if meta else None)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def snapshot(self) -> list[list]:
        """Every span so far; a span still open has ``END`` ``None``."""
        with self._lock:
            return [list(s) for s in self.spans]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.snapshot()}, handle)


def load(path: str) -> list[list]:
    with open(path) as handle:
        return json.load(handle)["spans"]


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the durations of its closed child spans.

    A span's children were opened on its thread while it was the
    innermost open span, so they run one after another inside it and
    their durations add up.  ``spans`` is a full span list whose PARENT
    fields index into it (as :meth:`SpanRecorder.snapshot` or
    :func:`load` give it); a span still open has self time 0.
    """
    out = [0.0 if s[END] is None else s[END] - s[START] for s in spans]
    for span in spans:
        if span[PARENT] >= 0 and span[END] is not None:
            out[span[PARENT]] -= span[END] - span[START]
    return out
