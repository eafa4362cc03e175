"""Timing model of the Leon3-like main core.

Leon3 is a single-issue, in-order, 7-stage pipeline.  For a simulator
whose outputs are *normalized execution times*, the pipeline can be
modelled as a per-instruction issue cost (Leon3's documented cycle
counts) plus event-driven stalls from the memory system:

========================  =============
instruction               cycles
========================  =============
ALU / logical / sethi      1
load (ld)                  2   (ldd 3)
store (st)                 3   (std 4)
branch                     1   (+1 for an annulled delay slot)
call                       1
jmpl / indirect jump       3
mul                        4
div                        35
save / restore / flex      1
========================  =============

Cache misses, write-through store traffic and bus contention are
resolved against :class:`~repro.memory.bus.SharedBus`, which the
FlexCore meta-data cache also competes for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.executor import CommitRecord
from repro.isa.opcodes import InstrClass, Op3Mem
from repro.memory.bus import BusConfig, SharedBus, StoreBuffer
from repro.memory.cache import Cache, CacheConfig
from repro.telemetry.metrics import StatsCounters

#: metrics counters derived from :class:`CoreTimingStats` fields.
CORE_COUNTERS = {
    "core.instructions": "instructions",
    "core.icache_refill_cycles": "icache_stall",
    "core.dcache_refill_cycles": "dcache_stall",
    "core.store_stall_cycles": "store_stall",
    "core.interlock_stalls": "interlock_stall",
}


@dataclass
class CoreTimingConfig:
    """Timing knobs for the main core."""

    icache: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 32, 4)
    )
    dcache: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 32, 4)
    )
    bus: BusConfig = field(default_factory=BusConfig)
    store_buffer_depth: int = 8
    latency: dict[InstrClass, int] = field(default_factory=dict)

    def __post_init__(self):
        defaults = {
            InstrClass.LOAD_WORD: 2,
            InstrClass.LOAD_BYTE: 2,
            InstrClass.LOAD_HALF: 2,
            InstrClass.LOAD_DOUBLE: 3,
            InstrClass.STORE_WORD: 3,
            InstrClass.STORE_BYTE: 3,
            InstrClass.STORE_HALF: 3,
            InstrClass.STORE_DOUBLE: 4,
            InstrClass.MUL: 4,
            InstrClass.DIV: 35,
            InstrClass.JMPL: 3,
            InstrClass.RETT: 3,
        }
        for key, value in defaults.items():
            self.latency.setdefault(key, value)

    def base_latency(self, instr_class: InstrClass) -> int:
        return self.latency.get(instr_class, 1)


@dataclass
class CoreTimingStats:
    """Where the cycles of a run went."""

    cycles: int = 0
    instructions: int = 0
    base_cycles: int = 0
    icache_stall: int = 0
    dcache_stall: int = 0
    store_stall: int = 0
    interlock_stall: int = 0  # load-use hazard cycles
    fifo_stall: int = 0  # filled in by the FlexCore system

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


class CoreTiming:
    """Event-driven timing for the main core.

    ``advance(record, now)`` returns the cycle at which the instruction
    commits, charging base latency plus any memory stalls.  FIFO
    backpressure from the FlexCore interface is applied afterwards by
    the system (it needs fabric state).
    """

    def __init__(self, config: CoreTimingConfig, bus: SharedBus,
                 telemetry=None):
        self.config = config
        self.bus = bus
        self.icache = Cache(config.icache)
        self.dcache = Cache(config.dcache)
        self.store_buffer = StoreBuffer(
            bus, depth=config.store_buffer_depth, who="core-store"
        )
        self.stats = CoreTimingStats()
        # Destination of the immediately preceding load, for the
        # load-use interlock (the data cache delivers in the memory
        # stage, one stage after the ALU consumes operands).
        self._pending_load_dest = -1
        # Telemetry sinks, resolved once.  The tracer is checked only
        # on stall paths; the per-commit counters are derived from
        # ``stats`` (see ``flush_metrics``), so the hit path pays
        # nothing.
        self._tracer = telemetry.tracer if telemetry is not None else None
        metrics = (telemetry.metrics
                   if telemetry is not None and telemetry.metrics.enabled
                   else None)
        self._counters = (
            StatsCounters(metrics, CORE_COUNTERS, self.stats)
            if metrics is not None else None
        )

    # ------------------------------------------------------------------
    # Snapshot/restore (crash-safe checkpointing).  The shared bus is
    # owned by the system and snapshotted there.

    def snapshot_state(self) -> dict:
        return {
            "stats": vars(self.stats).copy(),
            "icache": self.icache.snapshot_state(),
            "dcache": self.dcache.snapshot_state(),
            "store_buffer": self.store_buffer.snapshot_state(),
            "pending_load_dest": self._pending_load_dest,
        }

    def restore_state(self, state: dict) -> None:
        self.flush_metrics()
        self.stats = CoreTimingStats(**state["stats"])
        if self._counters is not None:
            self._counters.rebase(self.stats)
        self.icache.restore_state(state["icache"])
        self.dcache.restore_state(state["dcache"])
        self.store_buffer.restore_state(state["store_buffer"])
        self._pending_load_dest = state["pending_load_dest"]

    def flush_metrics(self) -> None:
        """Add the stats gained since the last flush to the metrics
        counters (a no-op without a live registry)."""
        if self._counters is not None:
            self._counters.flush(self.stats)

    # ------------------------------------------------------------------
    # Stall charges, shared by ``advance`` and the fused engine's
    # closures so both emit the same trace events.

    def icache_miss(self, now: int, pc: int) -> int:
        """Refill the instruction line of ``pc``; return when it is in."""
        done = self.bus.line_refill(now, "core-ifetch")
        self.stats.icache_stall += done - now
        if self._tracer is not None:
            self._tracer.span(now, done - now, "core",
                              "stall.icache_refill", pc=pc)
        return done

    def dcache_miss(self, now: int, pc: int, addr: int) -> int:
        """Refill the data line of ``addr``; return when it is in."""
        done = self.bus.line_refill(now, "core-dcache")
        self.stats.dcache_stall += done - now
        if self._tracer is not None:
            self._tracer.span(now, done - now, "core",
                              "stall.dcache_refill", pc=pc, addr=addr)
        return done

    def store_stall(self, now: int, proceed: int, pc: int) -> int:
        """Charge a full store buffer holding the core from ``now`` to
        ``proceed``; return ``proceed``."""
        self.stats.store_stall += proceed - now
        if self._tracer is not None:
            self._tracer.span(now, proceed - now, "core",
                              "stall.store_buffer", pc=pc)
        return proceed

    def advance(self, record: CommitRecord, now: int) -> int:
        """Charge one committed instruction starting at time ``now``."""
        stats = self.stats
        stats.instructions += 1

        # Instruction fetch.
        if not self.icache.read(record.pc):
            now = self.icache_miss(now, record.pc)

        if record.annulled:
            stats.base_cycles += 1
            now += 1
            stats.cycles = now
            self._pending_load_dest = -1
            return now

        base = self.config.base_latency(record.instr_class)

        # Load-use interlock: an instruction consuming the previous
        # load's destination stalls one cycle.
        if self._pending_load_dest > 0:
            dest = self._pending_load_dest
            uses = record.src1_phys == dest or record.src2_phys == dest
            if record.is_store and record.dest_phys == dest:
                uses = True
            if uses:
                base += 1
                stats.interlock_stall += 1
        self._pending_load_dest = record.dest_phys if record.is_load else -1

        stats.base_cycles += base
        now += base

        if record.is_load:
            if not self.dcache.read(record.addr):
                now = self.dcache_miss(now, record.pc, record.addr)
            if record.instr.opcode == Op3Mem.LDD:
                self.dcache.read(record.addr + 4)
        elif record.is_store:
            self.dcache.write(record.addr)
            proceed = self.store_buffer.push(now)
            if proceed > now:
                now = self.store_stall(now, proceed, record.pc)
            if record.instr.opcode == Op3Mem.STD:
                self.dcache.write(record.addr + 4)
                proceed = self.store_buffer.push(now)
                if proceed > now:
                    now = self.store_stall(now, proceed, record.pc)

        stats.cycles = now
        return now
