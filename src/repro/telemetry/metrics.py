"""Near-zero-overhead metrics registry.

One instrumentation API for every layer of the simulator: counters,
gauges and fixed-bucket histograms, keyed by hierarchical dotted names
(``fifo.occupancy``, ``bus.wait.core-dcache``, ``mcache.refill_cycles``).

The design goal is that *disabled* telemetry costs nothing measurable:

* components are wired with ``telemetry=None`` by default and guard
  every instrumentation site with a single ``is not None`` check that
  lives inside branches the timing model already takes (miss paths,
  stall paths, the forwarded-packet path), never on the
  per-instruction path;
* per-commit counts (instructions, stall cycles, forwarded/ignored
  packets) are not incremented per commit at all: :class:`StatsCounters`
  derives them from the stats fields every engine keeps anyway, so
  metrics add nothing to an ignored commit (a forwarded packet still
  observes its latency and FIFO-occupancy histograms);
* for code that wants to hold an instrument unconditionally,
  :data:`NULL_METRICS` hands out shared no-op instruments, so the call
  site stays branch-free and the no-op method is the only cost.

Instruments are interned by name: asking the registry twice for
``fifo.pushes`` returns the same :class:`Counter`, which is what lets
hot paths resolve instruments once at construction time and then touch
only plain attribute increments.
"""

from __future__ import annotations

from bisect import bisect_left


class Counter:
    """A monotonically increasing count (events, cycles, bytes)."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """A point-in-time value (occupancy, high-water mark)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def track_max(self, value) -> None:
        """Retain the largest value ever seen (high-water marks)."""
        if value > self.value:
            self.value = value

    def snapshot(self):
        return self.value


#: Default histogram buckets: powers of two up to 64 Ki.  Good enough
#: for latencies and occupancies; pass explicit buckets for anything
#: with a known range.
DEFAULT_BUCKETS = tuple(1 << i for i in range(17))


class Histogram:
    """Fixed-bucket histogram (upper bounds, plus an overflow bucket).

    ``counts[i]`` is the number of observations ``<= buckets[i]``;
    ``counts[-1]`` collects everything larger than the last bound.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count")
    kind = "histogram"

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(buckets)
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be ascending")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.count = 0

    def observe(self, value) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (the upper bound of
        the bucket holding the q-th observation; +inf overflow
        reports the largest finite bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, bound in enumerate(self.buckets):
            seen += self.counts[i]
            if seen >= rank:
                return float(bound)
        return float(self.buckets[-1])

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "buckets": {
                **{
                    str(bound): self.counts[i]
                    for i, bound in enumerate(self.buckets)
                },
                "+inf": self.counts[-1],
            },
        }


class MetricsRegistry:
    """Interning factory and store for every instrument of one run."""

    enabled = True

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _intern(self, name: str, kind, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a "
                f"{type(instrument).__name__}, not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._intern(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._intern(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._intern(
            name, Histogram, lambda: Histogram(name, buckets)
        )

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __getitem__(self, name: str):
        return self._instruments[name]

    def snapshot(self) -> dict:
        """Plain-data dump of every instrument, sorted by name."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }

    def instruments(self) -> list:
        """Every live instrument, sorted by name (exposition
        renderers need the instrument objects, not just values, to
        know counter vs gauge vs histogram)."""
        return [instrument for _name, instrument
                in sorted(self._instruments.items())]

    def format(self) -> str:
        """Human rendering grouped by the first name segment."""
        lines: list[str] = []
        group = None
        for name, instrument in sorted(self._instruments.items()):
            prefix = name.split(".", 1)[0]
            if prefix != group:
                if group is not None:
                    lines.append("")
                group = prefix
            if isinstance(instrument, Histogram):
                lines.append(
                    f"{name:<32} count={instrument.count} "
                    f"mean={instrument.mean:.1f}"
                )
                for bound, n in instrument.snapshot()["buckets"].items():
                    if n:
                        lines.append(f"{'':<34}<= {bound}: {n}")
            else:
                value = instrument.value
                shown = (f"{value:.1f}" if isinstance(value, float)
                         else str(value))
                lines.append(f"{name:<32} {shown}")
        return "\n".join(lines)


class StatsCounters:
    """Counters that mirror numeric fields of a component's stats
    object.

    A component already counts every commit into plain stats fields
    (``CoreTimingStats.icache_stall``, ``InterfaceStats.forwarded``,
    ...), on every engine.  Rather than increment a counter beside
    each field on the per-instruction path, ``flush`` adds what each
    field gained since the last flush.  The owner flushes at the end
    of a run and just before a restore replaces its stats object, so
    a rolled-back attempt's work is still counted, as it was done.

    ``fields`` maps counter names to stats attribute names.
    """

    __slots__ = ("_pairs", "_base")

    def __init__(self, metrics: MetricsRegistry, fields: dict,
                 stats) -> None:
        self._pairs = [(metrics.counter(name), attr)
                       for name, attr in fields.items()]
        self.rebase(stats)

    def rebase(self, stats) -> None:
        """Start counting from ``stats``' current values."""
        self._base = [getattr(stats, attr) for _counter, attr
                      in self._pairs]

    def flush(self, stats) -> None:
        """Add what ``stats`` gained since the last flush or rebase."""
        for (counter, attr), base in zip(self._pairs, self._base):
            counter.inc(getattr(stats, attr) - base)
        self.rebase(stats)


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    kind = "null"
    value = 0
    count = 0
    total = 0
    mean = 0.0

    def inc(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def track_max(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def snapshot(self):
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The off switch: hands out shared no-op instruments.

    ``enabled`` is False so callers can skip whole instrumentation
    blocks; callers that don't bother still pay only a no-op call.
    """

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS):
        return _NULL_INSTRUMENT

    def __contains__(self, name: str) -> bool:
        return False

    def snapshot(self) -> dict:
        return {}

    def instruments(self) -> list:
        return []

    def format(self) -> str:
        return ""


#: Process-wide disabled registry; safe to share (it holds no state).
NULL_METRICS = NullMetrics()
