"""Run-scoped tracer: nested spans, typed counters, JSONL event sink.

A :class:`Tracer` records one run as a flat list of picklable event
dicts. Spans carry a slash-joined ``path`` (their ancestry at entry), so
the tree reconstructs from the flat stream without nested JSON; a span
*name* may itself contain ``/`` (``node:westclass.agnews/PTE``), which the
report renders as virtual sub-levels. Counters accumulate in a plain
dict and are emitted once at finalization. All
timings come from ``time.monotonic()`` and live only in the ``t0``/
``dur`` fields — everything else in an event is deterministic for a
fixed seed, which is what lets traces be diffed across runs.

Worker processes run their own short-lived tracer per node and ship
:meth:`Tracer.export` payloads back over the result pipe; the parent
re-roots those spans under its active span with :meth:`Tracer.absorb`
and merges the counters by summation (in row order, so parallel traces
have deterministic content too).

Event schema (one JSON object per line):

- ``{"type": "begin", "schema": 1, "name": <run name>}`` — first line;
- ``{"type": "span", "name": ..., "path": "a/b/c", "t0": s, "dur": s
  [, "attrs": {...}][, "remote": true]}`` — one per completed span, in
  completion order (children before parents); ``remote`` marks spans
  absorbed from a worker process, whose ``t0`` is relative to the
  worker-side trace start;
- ``{"type": "counters", "values": {name: number}}`` — emitted at
  finalization, keys sorted;
- ``{"type": "end", "dur": s}`` — total traced wall-clock.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

SCHEMA_VERSION = 1


class Span:
    """One timed region; use via ``with obs.span(name, **attrs):``."""

    __slots__ = ("_tracer", "name", "attrs", "path", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.path = ""
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        tracer = self._tracer
        tracer._stack.append(self.name)
        self.path = "/".join(tracer._stack)
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.monotonic()
        tracer = self._tracer
        tracer._stack.pop()
        event = {
            "type": "span",
            "name": self.name,
            "path": self.path,
            "t0": round(self._t0 - tracer._start, 6),
            "dur": round(end - self._t0, 6),
        }
        if self.attrs:
            event["attrs"] = self.attrs
        tracer._events.append(event)
        return False


class NullSpan:
    """The disabled-mode span: a reusable, stateless context manager."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = NullSpan()


class Tracer:
    """Event recorder for one run (or one worker-side row)."""

    def __init__(self, name: str = "run"):
        self.name = name
        self.counters: "dict[str, float]" = {}
        self.gauges: "dict[str, float]" = {}
        self._events: "list[dict]" = []
        self._stack: "list[str]" = []
        self._start = time.monotonic()
        self._finalized = False

    # -- recording ----------------------------------------------------------
    def span(self, name: str, attrs: dict) -> Span:
        return Span(self, name, attrs)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Record a high-water-mark gauge (merges by ``max``, not sum).

        Gauges capture instantaneous levels — queue depth, busy replicas
        — where summing across observations (or across workers) would be
        meaningless; the trace keeps the peak.
        """
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def current_path(self) -> str:
        """Slash-joined names of the open spans (empty at top level)."""
        return "/".join(self._stack)

    # -- worker boundary ----------------------------------------------------
    def export(self) -> dict:
        """Picklable payload of everything recorded so far.

        The receiving side feeds this to :meth:`absorb`; only span events
        cross the boundary (a worker's counters travel separately so they
        merge by summation, not concatenation).
        """
        return {
            "events": [e for e in self._events if e["type"] == "span"],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }

    def absorb(self, payload: dict, prefix: "str | None" = None) -> None:
        """Merge a child tracer's :meth:`export` under ``prefix``.

        ``prefix`` defaults to the current open-span path. Child spans are
        re-rooted (their ``path`` gains the prefix) and tagged
        ``remote: true``; child counters add into this tracer's.
        """
        prefix = self.current_path() if prefix is None else prefix
        for event in payload.get("events", ()):
            event = dict(event)
            if prefix:
                event["path"] = f"{prefix}/{event['path']}"
            event["remote"] = True
            self._events.append(event)
        for name, value in payload.get("counters", {}).items():
            self.count(name, value)
        for name, value in payload.get("gauges", {}).items():
            self.gauge(name, value)

    # -- finalization -------------------------------------------------------
    def finalize(self) -> "Tracer":
        """Append the counters and end events (idempotent)."""
        if not self._finalized:
            self._finalized = True
            # Gauges fold into the counters event (schema stays v1);
            # gauge names never collide with counter names by convention
            # (serve.queue_depth vs serve.requests etc.).
            values = {**self.counters, **self.gauges}
            self._events.append({
                "type": "counters",
                "values": {k: values[k] for k in sorted(values)},
            })
            self._events.append({
                "type": "end",
                "dur": round(time.monotonic() - self._start, 6),
            })
        return self

    def events(self) -> list:
        """The recorded events (begin header included, live view)."""
        header = {"type": "begin", "schema": SCHEMA_VERSION, "name": self.name}
        return [header, *self._events]

    def write(self, path: "str | Path") -> Path:
        """Write the trace as JSONL (finalizing first); returns the path."""
        self.finalize()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for event in self.events():
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        return path
