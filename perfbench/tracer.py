"""In-memory spans recorded around calls into the program's public API.

The benchmark never edits the program to trace it.  It wraps what a
user can reach: a session's ``packets()`` iterator, a receiver's
``receive_records``, a client's ``receive_many``, a subscription's
``record_batches``.  Each wrapped call becomes one :class:`Span`
(name, start, end, parent, transfer id, items handled).  Spans stay in
memory and are written once, when the run ends.

A span's *self time* is its duration minus the time its child spans
cover; children are the spans opened on the same thread while it was
open.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

__all__ = ["Span", "Tracer"]


@dataclass(frozen=True)
class Span:
    span_id: int
    #: enclosing span on the same thread; 0 at the top level.
    parent: int
    #: transfer (or swarm run) the span belongs to.
    transfer: int
    name: str
    start: float
    end: float
    #: work items the call handled (records, packets, ...).
    items: int = 1

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; safe to use from the sender and a receiver thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: stamped into every span opened from now on.
        self.transfer = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def begin(self) -> Tuple[int, int, float]:
        """Open a span on this thread; returns the token :meth:`end` takes."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        token = (span_id, stack[-1], time.perf_counter())
        stack.append(span_id)
        return token

    def end(self, token: Tuple[int, int, float], name: str,
            items: int = 1) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        span = Span(span_id, parent, self.transfer, name, start, end, items)
        with self._lock:
            self.spans.append(span)

    def wrap_call(self, name: str, fn: Callable[..., Any],
                  items: Callable[[tuple], int] = lambda args: 1
                  ) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span named ``name``."""
        def timed(*args: Any, **kwargs: Any) -> Any:
            token = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token, name, items(args))
        return timed

    def wrap_iter(self, name: str, iterable: Iterable[Any],
                  items: Callable[[Any], int] = lambda value: 1
                  ) -> Iterator[Any]:
        """``iterable`` with the time inside every ``next()`` recorded."""
        inner = iter(iterable)
        done = object()
        try:
            while True:
                token = self.begin()
                value = done
                try:
                    value = next(inner, done)
                finally:
                    self.end(token, name,
                             0 if value is done else items(value))
                if value is done:
                    return
                yield value
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()

    # -- reading the trace ------------------------------------------------------

    def self_seconds(self) -> Dict[int, float]:
        """Span id -> its duration minus its children's durations."""
        own = {span.span_id: span.seconds for span in self.spans}
        for span in self.spans:
            if span.parent in own:
                own[span.parent] -= span.seconds
        return own

    def per_transfer(self, name: str, self_time: bool = False
                     ) -> Dict[int, Tuple[float, int, int]]:
        """Transfer id -> (seconds, calls, items) over spans named ``name``."""
        own = self.self_seconds() if self_time else None
        out: Dict[int, List[float]] = defaultdict(lambda: [0.0, 0, 0])
        for span in self.spans:
            if span.name != name:
                continue
            row = out[span.transfer]
            row[0] += own[span.span_id] if own is not None else span.seconds
            row[1] += 1
            row[2] += span.items
        return {tid: (row[0], int(row[1]), int(row[2]))
                for tid, row in out.items()}

    def items_of(self, name: str) -> List[int]:
        """Items handled by each span named ``name`` (e.g. drain sizes)."""
        return [span.items for span in self.spans if span.name == name]

    def write(self, path: pathlib.Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps(asdict(span)) + "\n")
