"""In-memory spans for the traced benchmark run.

A span records name, start, end and the span that was open when it began.
Spans stay in a list until the run ends; nothing is written while timing.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext


def no_span(name: str):
    """Stand-in for Tracer.span in untraced passes."""
    return nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1]["id"] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called name."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _under(self, rec: dict, root: dict) -> bool:
        while rec is not None:
            if rec is root:
                return True
            rec = None if rec["parent"] is None else self.spans[rec["parent"]]
        return False

    def total(self, name: str, root: dict) -> float:
        """Summed duration of the spans called name inside root."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and self._under(s, root))

    def self_time(self, name: str, root: dict) -> float:
        """Summed duration of the spans called name inside root, minus the
        time their direct children cover (children never overlap here:
        everything runs on one thread)."""
        own = [s for s in self.spans
               if s["name"] == name and self._under(s, root)]
        ids = {s["id"] for s in own}
        children = sum(s["end"] - s["start"] for s in self.spans
                       if s["parent"] in ids)
        return sum(s["end"] - s["start"] for s in own) - children


@contextmanager
def patched(targets):
    """Temporarily replace attributes: targets is [(obj, attr, value)]."""
    saved = []
    try:
        for obj, attr, value in targets:
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
