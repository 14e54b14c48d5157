"""Spans around the program's public functions, for traced runs only.

``Tracer.wrap`` replaces a function under the name its calling module looks
it up by (``quditsearch.engine.grover_step`` is the name ``run_search``
calls), so the program itself is unchanged.  Each call records a span: id,
parent id, name, the module it was called through, the operation it belongs
to, its thread, start and end.  Spans stay in memory until the run writes
them out.  Self time is a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = None  # tag of the operation the next spans belong to
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stacks: dict[int, list[int]] = {}
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A pool thread has no open span of its own: the span that caused it
        # is the innermost one the main thread is waiting in.
        main = self._stacks.get(threading.main_thread().ident)
        return main[-1] if main else None

    def span(self, name: str, fn, *args, via=None, attrs=None, cpu=False, **kwargs):
        """Call fn inside a span; attrs(result) adds fields to the span."""
        stack = self._stack()
        record = {"id": next(self._ids), "parent": self._parent(stack), "name": name,
                  "via": via, "op": self.op, "thread": threading.get_ident()}
        stack.append(record["id"])
        cpu0 = time.process_time() if cpu else 0.0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            record["start"] = start
            if cpu:
                record["cpu_s"] = time.process_time() - cpu0
            stack.pop()
            self.spans.append(record)
        if attrs is not None:
            record.update(attrs(result))
        return result

    def wrap(self, module, attr: str, name: str, attrs=None, cpu=False) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, via=module.__name__, attrs=attrs,
                             cpu=cpu, **kwargs)

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
