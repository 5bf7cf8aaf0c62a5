"""In-memory span tracer installed from the benchmark, not the program.

A traced run wraps named functions of the program where their callers
look them up (a module attribute or a class attribute), records one
span per call -- name, start, end, parent span and op id -- and keeps
the spans in memory.  At the end of the run they are written out as
Chrome trace-event JSON (viewable in Perfetto or chrome://tracing).

Shard workers fork from the traced process, so they inherit the
wrappers.  A forked worker drops the parent's spans it inherited and
appends its own to a spool file after each outermost call it makes,
because pool workers exit without running interpreter shutdown hooks.
The parent merges the spool when the run ends.

Self time is a span's duration minus the durations of its children in
the same process; a worker's spans run concurrently with their parent
span and are therefore never subtracted from it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op")

    def __init__(self, sid, name, start, end, parent, op):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    @property
    def pid(self) -> int:
        return self.sid[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [list(self.sid), self.name, self.start, self.end,
                list(self.parent) if self.parent else None, self.op]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        sid, name, start, end, parent, op = row
        return cls(tuple(sid), name, start, end,
                   tuple(parent) if parent else None, op)


class Tracer:
    """Spans for one traced run (one per process tree)."""

    def __init__(self, spool_dir: str | os.PathLike) -> None:
        self.main_pid = os.getpid()
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list[Span] = []
        self.stack: list[tuple[int, int]] = []
        self.op: int = -1
        self._ids = itertools.count()
        self._inherited = 0
        self._patched: list[tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- process lifecycle ------------------------------------------

    def _after_fork(self) -> None:
        # The child keeps the open stack (its spans nest under the
        # parent's span that forked it) but none of the parent's spans.
        self.spans = []
        self._inherited = len(self.stack)

    def _flush_worker(self) -> None:
        path = self.spool_dir / f"{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")
        self.spans = []

    # -- wrapping -----------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = (os.getpid(), next(tracer._ids))
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append(
                    Span(sid, name, start, end, parent, tracer.op))
                if (sid[0] != tracer.main_pid
                        and len(tracer.stack) == tracer._inherited):
                    tracer._flush_worker()

        return traced

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (module or class) with a traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- collection ---------------------------------------------------

    def collect_spans(self) -> list[Span]:
        """Parent spans plus every worker span spooled so far."""
        spans = list(self.spans)
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            with open(path) as fh:
                spans.extend(Span.from_json(json.loads(line))
                             for line in fh if line.strip())
        return spans


def aggregate(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``."""
    spans = list(spans)
    child_time: dict[tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span.parent is not None and span.parent[0] == span.pid:
            child_time[span.parent] += span.duration
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name,
                             {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += span.duration - child_time.get(span.sid, 0.0)
    return out


def shard_imbalance(spans: Iterable[Span], dispatch: str,
                    task: str) -> float:
    """Slowest over mean shard busy time, summed over dispatches.

    A shard task's parent is the dispatch span that was open when its
    worker forked, so tasks group by that parent.
    """
    tasks: dict[tuple[int, int], list[float]] = defaultdict(list)
    dispatches = {s.sid for s in spans if s.name == dispatch}
    for span in spans:
        if span.name == task and span.parent in dispatches:
            tasks[span.parent].append(span.duration)
    slowest = sum(max(d) for d in tasks.values())
    mean = sum(sum(d) / len(d) for d in tasks.values())
    return slowest / mean if mean else 0.0


def write_chrome_trace(spans: Iterable[Span], path: str | os.PathLike,
                       main_pid: int) -> Path:
    """Chrome trace-event JSON ("X" complete events, microseconds)."""
    spans = list(spans)
    origin = min((s.start for s in spans), default=0.0)
    events = []
    for s in spans:
        events.append({
            "name": s.name,
            "ph": "X",
            "ts": round((s.start - origin) * 1e6, 3),
            "dur": round(s.duration * 1e6, 3),
            "pid": main_pid,
            "tid": s.pid,
            "args": {"op": s.op, "id": "%d:%d" % s.sid,
                     "parent": "%d:%d" % s.parent if s.parent else None},
        })
    path = Path(path)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
    return path
