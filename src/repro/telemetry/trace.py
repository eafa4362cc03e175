"""Cycle-accurate event tracing with Perfetto export.

The tracer collects structured events — pipeline stalls with their
cause, FIFO push/pop/full, bus grants, cache refills, monitor packet
lifecycle, traps and rollbacks — into a bounded ring buffer.  The
timestamp domain is *simulated core-clock cycles* (fractional while
the fabric clock divides them), so a trace lines up exactly with the
cycle counts in :class:`~repro.flexcore.system.RunResult`.

Two exporters:

* :meth:`EventTracer.write_jsonl` — one JSON object per line, for
  ad-hoc grep/jq analysis;
* :meth:`EventTracer.to_perfetto` / :meth:`write_perfetto` — the
  Chrome ``trace_event`` JSON format, loadable in ``ui.perfetto.dev``
  (one fake process, one "thread" per track, cycles rendered as
  microseconds).

The ring buffer keeps the *newest* events when full (the interesting
part of a run is usually its end — the trap, the stall storm), and
counts what it overwrote so exports can say so instead of silently
truncating.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

#: Default ring capacity: enough for ~10k instructions of a monitored
#: run at a handful of events per instruction, small enough to stay
#: cheap to export.
DEFAULT_CAPACITY = 65_536

#: Event kinds, mirroring the Chrome trace_event phases they map to.
SPAN = "span"  # something with a duration ("X")
INSTANT = "instant"  # a point event ("i")
COUNTER = "counter"  # a sampled value ("C")


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace event."""

    ts: float  # simulated core-clock cycles
    track: str  # "core" | "bus" | "fabric" | "fifo" | "mcache" | ...
    name: str  # event name ("stall.fifo_full", "bus.core-dcache", ...)
    kind: str = INSTANT
    dur: float = 0.0  # span duration, in cycles
    value: float | None = None  # counter sample
    args: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        data = {
            "ts": self.ts,
            "track": self.track,
            "name": self.name,
            "kind": self.kind,
        }
        if self.kind == SPAN:
            data["dur"] = self.dur
        if self.value is not None:
            data["value"] = self.value
        if self.args:
            data["args"] = self.args
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        """Rebuild an event from :meth:`as_dict` output (events that
        crossed the service wire as plain JSON)."""
        return cls(
            ts=data["ts"],
            track=data["track"],
            name=data["name"],
            kind=data.get("kind", INSTANT),
            dur=data.get("dur", 0.0),
            value=data.get("value"),
            args=data.get("args", {}),
        )


class EventTracer:
    """Bounded ring buffer of trace events.

    The ring stores each event as a plain ``(ts, track, name, kind,
    dur, value, args)`` tuple — the field order of
    :class:`TraceEvent` — because recording sits on the simulator's
    hot path and a tuple costs a fraction of a frozen dataclass.
    :meth:`events` builds the :class:`TraceEvent` objects on read.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(
                f"tracer capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._ring: deque[tuple] = deque(maxlen=capacity)
        self._emitted = 0  # events ever recorded

    # -- recording ----------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        self._ring.append((event.ts, event.track, event.name, event.kind,
                           event.dur, event.value, event.args))
        self._emitted += 1

    def span(self, ts: float, dur: float, track: str, name: str,
             **args) -> None:
        """A durationful event (a stall, a bus grant, a refill)."""
        self._ring.append((ts, track, name, SPAN, dur, None, args))
        self._emitted += 1

    def instant(self, ts: float, track: str, name: str, **args) -> None:
        """A point event (a push, a drop, a trap)."""
        self._ring.append((ts, track, name, INSTANT, 0.0, None, args))
        self._emitted += 1

    def counter(self, ts: float, track: str, name: str,
                value: float) -> None:
        """A sampled value (FIFO occupancy) rendered as a counter
        track in Perfetto."""
        self._ring.append((ts, track, name, COUNTER, 0.0, value, {}))
        self._emitted += 1

    # -- reading ------------------------------------------------------------

    @property
    def overwritten(self) -> int:
        """Events lost to wrap-around (the ring keeps the newest)."""
        return self._emitted - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> list[TraceEvent]:
        """Live events, oldest first."""
        return [TraceEvent(*item) for item in self._ring]

    def clear(self) -> None:
        self._ring.clear()
        self._emitted = 0

    # -- exporters ----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """One compact JSON object per line, oldest event first."""
        with open(path, "w") as handle:
            for event in self.events():
                handle.write(json.dumps(event.as_dict(),
                                        sort_keys=True) + "\n")

    def to_perfetto(self) -> dict:
        """Chrome ``trace_event`` document (the JSON object form).

        Every track becomes a "thread" of one fake process; simulated
        cycles map 1:1 onto the format's microsecond timestamps.
        Events are sorted by timestamp, so ``ts`` is monotonically
        non-decreasing globally (and therefore within every track).
        """
        return events_to_perfetto(
            self.events(),
            process_name="flexcore-sim",
            time_unit="simulated core-clock cycles (as us)",
            overwritten=self.overwritten,
        )

    def write_perfetto(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_perfetto(), handle, sort_keys=True)
            handle.write("\n")


def events_to_perfetto(events, *, process_name: str,
                       time_unit: str,
                       overwritten: int = 0) -> dict:
    """Convert :class:`TraceEvent` sequences to one Chrome
    ``trace_event`` document.

    Shared by the simulator tracer (timestamps in simulated cycles)
    and the job service tracer (timestamps in wall-clock microseconds
    since the server's trace epoch): one track per component rendered
    as a "thread" of a single fake process, events sorted by
    timestamp so ``ts`` is monotonically non-decreasing within every
    track.
    """
    events = sorted(events, key=lambda e: e.ts)
    tids: dict[str, int] = {}
    trace_events: list[dict] = []
    for event in events:
        tid = tids.get(event.track)
        if tid is None:
            tid = len(tids) + 1
            tids[event.track] = tid
        entry: dict = {
            "name": event.name,
            "pid": 1,
            "tid": tid,
            "ts": event.ts,
            "cat": event.track,
        }
        if event.kind == SPAN:
            entry["ph"] = "X"
            entry["dur"] = event.dur
        elif event.kind == COUNTER:
            entry["ph"] = "C"
            entry["args"] = {"value": event.value}
        else:
            entry["ph"] = "i"
            entry["s"] = "t"  # thread-scoped instant
        if event.args:
            entry.setdefault("args", {}).update(event.args)
        trace_events.append(entry)
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": process_name},
        }
    ] + [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in tids.items()
    ]
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ns",
        "otherData": {
            "time_unit": time_unit,
            "overwritten_events": overwritten,
        },
    }
