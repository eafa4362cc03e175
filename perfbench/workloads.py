"""The benchmark's four workloads.

Each workload is a closed batch job: one caller starts it and waits for
it, with no arrival rate.  ``WORKLOADS[name](spans, batch, seed, tiny,
profiled)`` does the set-up (everything before the first simulated
instruction) and returns a callable that does the work.  ``tiny``
shrinks the job for the benchmark's own test.  Both record spans around
each public call they make and fill in the :class:`Batch`, which is
what one repetition reports.

Kernel inputs are fixed LCG streams inside ``repro.workloads``, so the
simulation workloads (``table4``, ``baseline``, ``traced``) are
independent of the seed; the seed drives only the ``campaign`` fault
draw.  Modelled caches start empty, as in the paper's whole-program
runs.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager

from repro.engine.sweep import table4_points
from repro.evaluation.config import experiment_system_config
from repro.evaluation.paper import TABLE4
from repro.extensions import EXTENSION_NAMES, create_extension
from repro.faultinject import Campaign, CampaignConfig, Outcome
from repro.flexcore.system import FlexCoreSystem
from repro.telemetry import Telemetry, run_digest
from repro.workloads import build_workload, workload_names

#: scale of ``table4`` and ``baseline``.  Every kernel is at its input
#: floor here (smaller scales build the same programs).
GRID_SCALE = 1 / 64

#: ``table4`` kernels.  fft (one whole transform, 191k instructions)
#: and stringsearch (a 2304-byte text) cannot be scaled down; their 24
#: monitored points alone take about 40 s, longer than a run may
#: measure.  ``baseline`` still runs them.
TABLE4_KERNELS = ("sha", "gmac", "basicmath", "bitcount")

#: scale of ``traced`` and ``campaign``.
DETAIL_SCALE = 1 / 16
CAMPAIGN_SCALE = 1 / 32

#: the telemetry-overhead scenarios: (kernel, extension, clock ratio).
#: crc32/SEC at 0.25X is FIFO-bound, sha/DIFT at 0.5X meta-data-bound.
TRACED_SCENARIOS = (("crc32", "sec", 0.25), ("sha", "dift", 0.5))
TRACED_MODES = ("off", "metrics", "trace")

#: the campaign pair and its size; faults are a multiple of the
#: default batch size (8) times the worker count, so workers are even.
CAMPAIGN_PAIR = {"extension": "dift", "workload": "sha"}
CAMPAIGN_FAULTS = 16
CAMPAIGN_JOBS = 2

#: host seconds one calibration slice takes at the reference host speed
#: (a typical slice on a 2-core x86-64 box, Python 3.11).
REFERENCE_SLICE_S = 2.0e-3

#: simulated counts summed over every RunResult a repetition sees.
SIM_COUNTS = ("instructions", "cycles", "icache_misses", "dcache_misses",
              "mcache_misses", "bus_wait_cycles", "fifo_full_stall_cycles",
              "meta_stall_cycles", "forwarded")


def calibration_slice(iterations: int = 4000) -> float:
    """Host seconds of one fixed slice of interpreter-bound work that
    runs no program code: closure calls, list and dict indexing,
    attribute updates and masked integer arithmetic, like the
    simulator's inner loops."""

    class State:
        total = 0

    state = State()
    table = {i: (i * 7) & 0xFF for i in range(256)}
    regs = [0] * 32

    def step(value):
        return (value * 1103515245 + 12345) & 0x7FFFFFFF

    value = 1
    start = time.perf_counter()
    for i in range(iterations):
        value = step(value)
        regs[value & 31] = (regs[(value >> 5) & 31]
                            + table[value & 0xFF]) & 0xFFFFFFFF
        state.total = (state.total + regs[i & 31]) & 0xFFFF
    return time.perf_counter() - start


class Spans:
    """Spans around the public calls, kept in memory.

    Each span is a dict with an ``id``, the ``parent`` span's id,
    ``name``, ``start`` and ``end`` (``time.monotonic()`` seconds, one
    clock for every process on the host) and the caller's attributes.
    """

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.records),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, **attrs, "start": time.monotonic()}
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.monotonic()

    def total(self, name: str, **attrs) -> float:
        """Summed duration of the spans called ``name`` whose
        attributes include ``attrs``."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name
                   and all(r.get(k) == v for k, v in attrs.items()))


class Batch:
    """What one repetition reports.

    An operation is a grid point, a fault or a traced leg.  A failed
    operation is named in ``failures``, never dropped.
    """

    def __init__(self, calibrating: bool = True):
        self.attempted = 0
        self.failures: list[str] = []
        #: host seconds spent in calibration slices, and their number.
        self.calibrating = calibrating
        self.calibration_s = 0.0
        self.slices = 0
        self.sim = dict.fromkeys(SIM_COUNTS, 0)
        self.runs = 0
        self.reference_runs = 0
        #: result digests by operation, compared across repetitions.
        self.digests: dict[str, str] = {}
        #: digest of the campaign's coverage report.
        self.report_digest: str | None = None
        #: workload-specific per-layer values.
        self.values: dict[str, float] = {}
        #: host seconds and committed instructions behind ``wall_s`` and
        #: ``sim_mips``; ``None`` means the whole work phase and every
        #: instruction in ``sim``.
        self.wall: float | None = None
        self.instructions: int | None = None

    def calibrate(self, slices: int) -> None:
        """Run calibration slices between operations, so they sample
        the host's speed over the same seconds as the work."""
        for _ in range(slices if self.calibrating else 0):
            self.calibration_s += calibration_slice()
            self.slices += 1

    @property
    def host_speed(self) -> float:
        """Reference slice time / mean slice time (1.0 when no slice
        ran): below 1 on a slower host."""
        if not self.slices:
            return 1.0
        return REFERENCE_SLICE_S * self.slices / self.calibration_s

    @contextmanager
    def op(self, name: str, count: int = 1):
        """Count ``count`` attempted operations; an exception fails
        all of them, named, and does not stop the batch."""
        self.attempted += count
        try:
            yield
        except Exception as error:  # noqa: BLE001 - reported, counted
            self.failures.extend(
                [f"{name}: {type(error).__name__}: {error}"] * count)

    def add(self, result) -> None:
        """Sum one RunResult's simulated counts."""
        self.runs += 1
        self.reference_runs += result.engine == "reference"
        sim = self.sim
        sim["instructions"] += result.instructions
        sim["cycles"] += result.cycles
        for cache in ("icache", "dcache", "mcache"):
            stats = result.cache_stats.get(cache)
            sim[f"{cache}_misses"] += stats.misses if stats else 0
        if result.bus_stats is not None:
            sim["bus_wait_cycles"] += sum(
                result.bus_stats.wait_cycles.values())
        if result.fifo_stats is not None:
            sim["fifo_full_stall_cycles"] += (
                result.fifo_stats.full_stall_cycles)
        if result.interface_stats is not None:
            sim["meta_stall_cycles"] += (
                result.interface_stats.meta_stall_cycles)
            sim["forwarded"] += result.interface_stats.forwarded


def _check_checksum(result, workload) -> None:
    """The kernel checksum check ``repro.engine.sweep.run_point`` makes."""
    if result.word(workload.checksum_symbol) != workload.expected_checksum:
        raise AssertionError(f"{workload.name} checksum mismatch")


def _build(spans, name: str, scale: float):
    with spans.span("build_workload", layer="isa", kernel=name):
        return build_workload(name, scale)


def _grid(spans, batch, points):
    """Set up every point's system; return the work callable."""
    workloads = {}
    prepared = []
    for point in points:
        if point.workload not in workloads:
            workloads[point.workload] = _build(
                spans, point.workload, point.scale)
        workload = workloads[point.workload]
        with spans.span("build", layer="isa", point=_key(point)):
            program = workload.build()
        config = experiment_system_config(
            clock_ratio=point.clock_ratio,
            fifo_depth=point.fifo_depth,
            scaled_memory=point.scaled_memory,
            predecode=point.predecode,
            meta_cache_bytes=point.meta_cache_bytes,
        )
        extension = (create_extension(point.extension)
                     if point.extension else None)
        with spans.span("FlexCoreSystem", point=_key(point)):
            system = FlexCoreSystem(program, extension, config)
        prepared.append((point, workload, system))

    # About 50 calibration slices per repetition.
    slices = max(1, 50 // len(prepared))

    def work():
        cycles = {}
        for point, workload, system in prepared:
            key = _key(point)
            batch.calibrate(slices)
            with batch.op(key), spans.span(
                    "point", point=key,
                    group=point.extension or "baseline"):
                with spans.span("run", point=key):
                    result = system.run()
                batch.add(result)
                _check_checksum(result, workload)
                with spans.span("run_digest", point=key):
                    batch.digests[key] = run_digest(result)
                cycles[key] = result.cycles
        for group in ("baseline",) + EXTENSION_NAMES:
            batch.values[f"table4.{group}_s"] = spans.total(
                "point", group=group)
        if any(point.extension for point in points):
            batch.values["table4_err_pct"] = _table4_error(points, cycles)

    return work


def _key(point) -> str:
    if point.extension is None:
        return f"{point.workload}-baseline"
    return f"{point.workload}-{point.extension}@{point.clock_ratio}"


def _table4_error(points, cycles) -> float:
    """Mean absolute % error of normalized execution time against the
    paper's Table IV over the monitored cells simulated."""
    errors = []
    for point in points:
        key, base = _key(point), f"{point.workload}-baseline"
        if point.extension and key in cycles and base in cycles:
            paper = TABLE4[point.workload][point.extension][
                point.clock_ratio]
            measured = cycles[key] / cycles[base]
            errors.append(abs(measured - paper) / paper * 100)
    return sum(errors) / len(errors)


def table4(spans, batch, seed, tiny, profiled):
    """The Table-IV grid: per kernel, the unmonitored baseline plus
    UMC/DIFT/BC/SEC at 1X/0.5X/0.25X, on the fast engine."""
    kernels = ("bitcount",) if tiny else TABLE4_KERNELS
    return _grid(spans, batch, table4_points(GRID_SCALE, kernels))


def baseline(spans, batch, seed, tiny, profiled):
    """The six paper kernels unmonitored, on the fast engine."""
    kernels = ("bitcount", "basicmath") if tiny else workload_names()
    return _grid(spans, batch,
                 table4_points(GRID_SCALE, kernels, extensions=()))


def campaign(spans, batch, seed, tiny, profiled):
    """A warm-started DIFT-on-sha fault campaign with the shipped
    defaults; the seed draws the faults.  Profiled, it runs in-process,
    because a profiler in this process cannot see pool workers."""
    faults = 4 if tiny else CAMPAIGN_FAULTS
    config = CampaignConfig(**CAMPAIGN_PAIR, scale=CAMPAIGN_SCALE,
                            faults=faults, seed=seed,
                            jobs=1 if profiled else CAMPAIGN_JOBS)

    def work():
        with batch.op("campaign", count=faults):
            batch.calibrate(4)
            with spans.span("Campaign"):
                job = Campaign(config)
            batch.add(job.golden)
            before = batch.calibration_s
            with spans.span("Campaign.run"):
                # Slices run in this process while the pool works.
                report = job.run(progress=lambda _done, _total:
                                 batch.calibrate(3))
            in_run = batch.calibration_s - before
            counts = report.counts()
            if sum(counts.values()) != faults:
                raise AssertionError(
                    f"outcome totals {sum(counts.values())} != "
                    f"{faults} faults attempted")
            batch.failures.extend(
                ["campaign: fault quarantined (infra_failed)"]
                * counts[Outcome.INFRA_FAILED])
            batch.report_digest = hashlib.sha256(
                report.to_json().encode()).hexdigest()[:16]
            batch.instructions = (
                job.golden.instructions
                + report.metrics()["totals"]["instructions"])
            stats = job.pool_stats
            batch.values.update({
                "campaign.golden_s": job.profiler.seconds["golden-run"],
                "campaign.faulted_s":
                    job.profiler.seconds["faulted-runs"] - in_run,
                "campaign.retries": stats.retries,
                "campaign.respawns": stats.respawns,
                "campaign.quarantined": stats.quarantined,
            })

    return work


def traced(spans, batch, seed, tiny, profiled):
    """The two telemetry scenarios, each run with telemetry off,
    metrics only, and full trace; every leg must give the off-leg
    digest."""
    scale = GRID_SCALE if tiny else DETAIL_SCALE
    legs = []
    for name, extension, ratio in TRACED_SCENARIOS:
        scenario = f"{name}-{extension}"
        workload = _build(spans, name, scale)
        with spans.span("build", layer="isa", point=scenario):
            program = workload.build()
        for mode in TRACED_MODES:
            telemetry = (None if mode == "off" else
                         Telemetry.enabled(trace=mode == "trace"))
            with spans.span("FlexCoreSystem", point=scenario, mode=mode):
                system = FlexCoreSystem(
                    program, create_extension(extension),
                    experiment_system_config(clock_ratio=ratio),
                    telemetry=telemetry)
            legs.append((scenario, mode, workload, system, telemetry))

    def work():
        events = 0
        trace_instructions = 0
        for scenario, mode, workload, system, telemetry in legs:
            batch.calibrate(8)
            with batch.op(f"{scenario}/{mode}"), spans.span(
                    "leg", point=scenario, mode=mode):
                with spans.span("run", point=scenario, mode=mode):
                    result = system.run()
                batch.add(result)
                _check_checksum(result, workload)
                with spans.span("run_digest", point=scenario, mode=mode):
                    digest = run_digest(result)
                batch.digests[f"{scenario}/{mode}"] = digest
                off = batch.digests.get(f"{scenario}/off")
                if digest != off:
                    raise AssertionError(
                        f"digest {digest} differs from the off leg's {off}")
                if mode == "trace":
                    events += len(telemetry.tracer)
                    trace_instructions += result.instructions
        off = spans.total("leg", mode="off")
        batch.wall = spans.total("leg", mode="trace")
        batch.instructions = trace_instructions
        batch.values.update({
            "telemetry.events": events,
            "metrics_x": spans.total("leg", mode="metrics") / off,
            "trace_x": batch.wall / off,
        })

    return work


WORKLOADS = {
    "table4": table4,
    "baseline": baseline,
    "campaign": campaign,
    "traced": traced,
}
