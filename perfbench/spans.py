"""In-memory span recorder for the benchmark's outside-in trace.

A span is opened by the benchmark around one call into a library module.
It records its name, start and end (``time.perf_counter`` seconds), the
span that was open when it started, and the request it belongs to (one
workload iteration).  When the recorder is disabled ``span`` returns a
shared null context, so untraced runs pay one attribute test per call.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("_rec", "_index")

    def __init__(self, rec: "SpanRecorder", name: str):
        self._rec = rec
        parent = rec._stack[-1] if rec._stack else None
        self._index = len(rec.spans)
        rec.spans.append({"id": self._index, "name": name, "parent": parent,
                          "request": rec.request, "start": None, "end": None})

    def __enter__(self):
        self._rec._stack.append(self._index)
        self._rec.spans[self._index]["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._rec.spans[self._index]["end"] = time.perf_counter()
        self._rec._stack.pop()
        return False


class SpanRecorder:
    """Collects spans while ``enabled``; a no-op otherwise."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.request = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return _Span(self, name)

    def finished(self, request=None) -> list[dict]:
        """Closed spans (of one request, if given) with ``duration`` and
        ``self_time``: the duration minus the part of the span's interval
        covered by its direct children."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            if s["end"] is None or (request is not None and s["request"] != request):
                continue
            duration = s["end"] - s["start"]
            out.append({**s, "duration": duration,
                        "self_time": duration - _covered(children.get(s["id"], []))})
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.finished(), fh)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
