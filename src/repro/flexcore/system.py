"""Top-level FlexCore system: core + interface + fabric extension.

:class:`FlexCoreSystem` assembles the whole prototype of Section IV:
the Leon3-like core with its L1 caches, the shared bus to SDRAM, and
(optionally) one monitoring extension behind the core-fabric
interface.  ``clock_ratio=1.0`` models the full-ASIC comparison point
of Table IV (the extension keeps up with the core clock);
``clock_ratio=0.5 / 0.25`` model the synthesised fabric frequencies.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from repro.core.executor import CommitRecord, CpuState, SimulationError
from typing import TYPE_CHECKING

from repro.core.timing import CoreTiming, CoreTimingConfig, CoreTimingStats
from repro.flexcore.fifo import FifoStats
from repro.flexcore.interface import (
    CoreFabricInterface,
    InterfaceConfig,
    InterfaceStats,
)
from repro.isa.assembler import Program
from repro.memory.backing import SparseMemory
from repro.memory.bus import BusStats, SharedBus
from repro.memory.cache import CacheStats

if TYPE_CHECKING:
    from repro.extensions.base import MonitorExtension, MonitorTrap
    from repro.telemetry import Telemetry

DEFAULT_STACK_TOP = 0x7FFFF0
DEFAULT_MAX_INSTRUCTIONS = 50_000_000

#: Default cost, in core cycles, of one monitor-triggered rollback:
#: flush the pipeline and FIFO, reload the architectural state from
#: the last on-chip checkpoint.  This extends the paper's exception
#: model (Section III-C) from terminate-on-TRAP to recover-on-TRAP.
DEFAULT_RECOVERY_LATENCY = 128

#: Give up after this many rollbacks of one run: a persistent fault
#: (e.g. a configuration upset captured *inside* the checkpoint)
#: re-traps forever, and recovery must degrade into detection.
DEFAULT_RECOVERY_LIMIT = 3

#: Valid execution engines.  ``fast`` predecodes each PC into a fused
#: handler closure (see :mod:`repro.engine`); ``superblock``
#: additionally fuses straight-line runs so the dispatch loop strides
#: a basic block at a time; ``reference`` is the original
#: step/advance/on_commit loop.  Results are bit-identical — the
#: differential and golden tests enforce it — and both fused engines
#: silently fall back to the reference loop whenever record hooks or
#: live telemetry need to observe every commit record.
ENGINES = ("fast", "superblock", "reference")


class Termination(str, enum.Enum):
    """Why a (bounded) run ended."""

    HALTED = "halted"  # the program executed `ta 0`
    TRAP = "trap"  # the monitoring extension raised TRAP
    INSTRUCTION_LIMIT = "instruction-limit"  # watchdog: instret budget
    CYCLE_LIMIT = "cycle-limit"  # watchdog: cycle budget
    DEADLINE = "deadline"  # watchdog: wall-clock timeout
    ERROR = "error"  # the simulated program crashed

    def __str__(self) -> str:  # report-friendly ("halted", not enum repr)
        return self.value


#: Termination reasons the fault-injection watchdog treats as a hang.
WATCHDOG_TERMINATIONS = frozenset(
    {Termination.INSTRUCTION_LIMIT, Termination.CYCLE_LIMIT,
     Termination.DEADLINE}
)


@dataclass
class RunResult:
    """Everything a run produces."""

    cycles: int
    instructions: int
    halted: bool
    trap: MonitorTrap | None
    core_stats: CoreTimingStats
    interface_stats: InterfaceStats | None
    memory: SparseMemory
    program: Program
    #: why the run ended (always set; ``HALTED`` for a clean exit).
    termination: Termination = Termination.HALTED
    #: the structured crash, when ``termination`` is ``ERROR`` or
    #: ``INSTRUCTION_LIMIT`` (bounded runs never raise).
    error: SimulationError | None = None
    #: monitor-triggered rollbacks performed (``--recover`` mode).
    recoveries: int = 0
    #: total cycles spent detecting, rolling back and re-executing.
    recovery_cycles: int = 0
    #: decoupling-FIFO accounting (peak occupancy, full-stall cycles,
    #: drops); ``None`` when no monitoring extension is attached.
    fifo_stats: FifoStats | None = None
    #: configured forward-FIFO depth, for high-water-vs-depth reports.
    fifo_depth: int | None = None
    #: hit/miss accounting per cache ("icache", "dcache", "mcache").
    cache_stats: dict[str, CacheStats] = field(default_factory=dict)
    #: shared-bus accounting per requester.
    bus_stats: BusStats | None = None
    #: which loop actually ran ("fast" or "reference").  Deliberately
    #: excluded from the result fingerprint/digest: digests must be
    #: engine-independent, that is the whole observational contract.
    engine: str = "reference"

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def word(self, symbol: str, offset: int = 0) -> int:
        """Read a result word from memory by data-symbol name."""
        return self.memory.read_word(self.program.symbol(symbol) + offset)


@dataclass
class SystemConfig:
    """Configuration for one simulated system.

    Parameters are validated at construction so a bad value fails
    with a clear ``ValueError`` instead of a downstream mystery.
    """

    core: CoreTimingConfig = field(default_factory=CoreTimingConfig)
    interface: InterfaceConfig = field(default_factory=InterfaceConfig)
    nwindows: int = 8
    stack_top: int = DEFAULT_STACK_TOP
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    #: stop the simulation when the extension raises TRAP (the paper's
    #: extensions terminate the program); if False, record and continue.
    stop_on_trap: bool = True
    #: execution engine: "fast" (predecoded handler loop),
    #: "superblock" (predecoded + fused straight-line runs) or
    #: "reference" (original loop).  Bit-identical results any way.
    engine: str = "fast"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.nwindows < 2:
            raise ValueError(
                f"nwindows must be >= 2, got {self.nwindows}"
            )
        if self.stack_top <= 0 or self.stack_top & 3:
            raise ValueError(
                f"stack_top must be positive and word-aligned, "
                f"got {self.stack_top:#x}"
            )
        if self.max_instructions <= 0:
            raise ValueError(
                f"max_instructions must be positive, "
                f"got {self.max_instructions}"
            )


class FlexCoreSystem:
    """One assembled program running on one system configuration."""

    def __init__(
        self,
        program: Program,
        extension: MonitorExtension | None = None,
        config: SystemConfig | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.program = program
        self.config = config or SystemConfig()
        #: observability bundle; ``None`` (the default) is the
        #: zero-overhead path — no component emits anything, and the
        #: timing result is bit-identical either way (telemetry only
        #: ever observes).
        self.telemetry = telemetry
        self.memory = SparseMemory()
        self.memory.load_program(program)
        self.bus = SharedBus(self.config.core.bus)
        if telemetry is not None:
            self.bus.attach_telemetry(telemetry)
        self.cpu = CpuState(
            self.memory,
            entry=program.entry,
            nwindows=self.config.nwindows,
            stack_top=self.config.stack_top,
        )
        if telemetry is not None:
            self.cpu.attach_telemetry(telemetry)
        self.core_timing = CoreTiming(self.config.core, self.bus,
                                      telemetry=telemetry)
        self.extension = extension
        self.interface: CoreFabricInterface | None = None
        if extension is not None:
            extension.attach(self.cpu.regs.num_physical)
            extension.on_program_load(program, self.config.stack_top)
            if telemetry is not None and telemetry.metrics.enabled:
                extension.metrics = telemetry.metrics
            self.interface = CoreFabricInterface(
                extension, self.bus, self.config.interface,
                telemetry=telemetry,
            )
            self.cpu.coprocessor_read = self.interface.read_status
        #: hooks applied to every commit record before forwarding —
        #: used for fault injection in the SEC example/tests.
        self.record_hooks: list = []
        #: simulation time (core cycles, fractional while the fabric
        #: clock divides them).  Promoted to system state so snapshots
        #: can freeze and resume a run mid-flight.
        self.now: float = 0.0
        # Pristine program image, built lazily for memory-delta
        # snapshots (shared baseline for every checkpoint of this run).
        self._baseline_memory_cache: SparseMemory | None = None

    # ------------------------------------------------------------------
    # Snapshot/restore (crash-safe checkpointing).

    def _baseline_memory(self) -> SparseMemory:
        if self._baseline_memory_cache is None:
            baseline = SparseMemory()
            baseline.load_program(self.program)
            self._baseline_memory_cache = baseline
        return self._baseline_memory_cache

    def snapshot_state(self) -> dict:
        """Capture the *complete* system state as plain data.

        Covers architectural state (PC/nPC, windowed registers, icc),
        pipeline timing state, both L1s and the meta-data cache,
        backing memory (as a sparse delta against the program image),
        the decoupling FIFO, the CFGR, and the attached monitor's
        meta-data.  ``restore_state`` of this dict is bit-exact: a run
        restored at cycle N and run to completion produces a
        :class:`RunResult` identical to the uninterrupted run.

        ``record_hooks`` are deliberately *not* state: they model
        external stimuli (fault injectors, profilers), not machine
        state, so a transient fault does not re-fire after a rollback.
        """
        return {
            "now": self.now,
            "cpu": self.cpu.snapshot_state(),
            "memory": self.memory.snapshot_state(self._baseline_memory()),
            "bus": self.bus.snapshot_state(),
            "core_timing": self.core_timing.snapshot_state(),
            "interface": (
                self.interface.snapshot_state()
                if self.interface is not None else None
            ),
            "extension": (
                self.extension.snapshot_state()
                if self.extension is not None else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot in place (objects are mutated, never
        replaced, so aliases held by callers stay valid).  The same
        snapshot may be restored repeatedly (rollback retries)."""
        self.now = state["now"]
        self.cpu.restore_state(state["cpu"])
        self.memory.restore_state(state["memory"], self._baseline_memory())
        self.bus.restore_state(state["bus"])
        self.core_timing.restore_state(state["core_timing"])
        if self.interface is not None:
            if state["interface"] is None:
                raise ValueError(
                    "snapshot was taken without a monitoring extension"
                )
            self.interface.restore_state(state["interface"])
            self.extension.restore_state(state["extension"])
        elif state["interface"] is not None:
            raise ValueError(
                "snapshot was taken with a monitoring extension attached"
            )

    def run(
        self,
        max_instructions: int | None = None,
        checkpoint_every: int | None = None,
        recover: bool = False,
        engine: str | None = None,
    ) -> RunResult:
        """Run to completion (ta 0), trap, or the instruction limit.

        Raises :class:`SimulationError` on a crash or when the
        instruction limit trips; :meth:`run_bounded` is the
        non-raising variant.
        """
        result = self.run_bounded(
            max_instructions=max_instructions,
            checkpoint_every=checkpoint_every,
            recover=recover,
            engine=engine,
        )
        if result.error is not None:
            raise result.error
        return result

    def _fast_loop_supported(self) -> bool:
        """Whether the fused loop can run without losing observers.

        Record hooks must see every :class:`CommitRecord`, and live
        telemetry (metrics or a tracer) counts events the fused
        closures skip, so either forces the reference loop.  The
        *results* are bit-identical regardless — this only preserves
        the observers' view.
        """
        if self.record_hooks:
            return False
        telemetry = self.telemetry
        return telemetry is None or (
            telemetry.tracer is None and not telemetry.metrics.enabled
        )

    #: check the wall-clock deadline every this many instructions.
    DEADLINE_STRIDE = 4096

    def run_bounded(
        self,
        max_instructions: int | None = None,
        max_cycles: int | None = None,
        deadline: float | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        recover: bool = False,
        recovery_limit: int = DEFAULT_RECOVERY_LIMIT,
        recovery_latency: int = DEFAULT_RECOVERY_LATENCY,
        engine: str | None = None,
    ) -> RunResult:
        """Run under a watchdog; never raise for in-simulation faults.

        The result's ``termination`` records why the run ended:
        ``HALTED``/``TRAP`` for clean exits, ``INSTRUCTION_LIMIT`` /
        ``CYCLE_LIMIT`` / ``DEADLINE`` when a watchdog budget trips
        (the fault-injection campaign classifies these as hangs), and
        ``ERROR`` with the structured :class:`SimulationError` when
        the simulated program crashes.  ``deadline`` is an absolute
        ``time.monotonic()`` timestamp, checked periodically.

        ``checkpoint_every=N`` captures a full system snapshot every N
        committed instructions; each one is handed to ``on_checkpoint
        (system, state)`` if given.  With ``recover=True``, a monitor
        TRAP no longer terminates the run: the system rolls back to
        the last checkpoint (or the run's initial state), charges the
        wasted cycles plus ``recovery_latency``, and re-executes —
        the paper's exception model extended to recovery.  After
        ``recovery_limit`` rollbacks the trap is delivered normally.

        The run resumes from ``self.now`` (zero for a fresh system, a
        restored timestamp after ``restore_state``), so a snapshot
        restored at cycle N continues bit-exactly.

        ``engine`` overrides the config's engine for this run; the
        fast engine transparently falls back to the reference loop
        when hooks or telemetry need every commit record (see
        :meth:`_fast_loop_supported`).
        """
        if engine is None:
            engine = self.config.engine
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        limit = max_instructions or self.config.max_instructions
        cpu = self.cpu
        core_timing = self.core_timing
        interface = self.interface

        use_fast = (engine in ("fast", "superblock")
                    and self._fast_loop_supported())
        if use_fast:
            if engine == "superblock":
                from repro.engine.fastloop import (
                    run_superblock_loop as fused_loop,
                )
            else:
                from repro.engine.fastloop import (
                    run_fast_loop as fused_loop,
                )

            (now, trap, termination, error, recoveries,
             recovery_cycles) = fused_loop(
                self, limit, max_cycles, deadline, checkpoint_every,
                on_checkpoint, recover, recovery_limit,
                recovery_latency,
            )
        else:
            (now, trap, termination, error, recoveries,
             recovery_cycles) = self._run_reference_loop(
                limit, max_cycles, deadline, checkpoint_every,
                on_checkpoint, recover, recovery_limit,
                recovery_latency,
            )

        # Wait for the co-processor to drain (the EMPTY signal) and
        # the store buffer to flush before declaring the run over.
        if interface is not None:
            if trap is None and interface.pending_trap is not None:
                trap = interface.pending_trap
                if termination == Termination.HALTED:
                    termination = Termination.TRAP
            now = max(now, interface.drain_time())
        now = max(now, core_timing.store_buffer.drain_time())
        self.now = now

        cache_stats = {
            "icache": core_timing.icache.stats,
            "dcache": core_timing.dcache.stats,
        }
        if interface is not None:
            cache_stats["mcache"] = interface.meta_cache.stats
        if (self.telemetry is not None
                and self.telemetry.metrics.enabled):
            metrics = self.telemetry.metrics
            metrics.gauge("system.cycles").set(int(now))
            metrics.gauge("system.instructions").set(cpu.instret)
            metrics.counter("system.rollbacks").inc(recoveries)

        return RunResult(
            cycles=int(now),
            instructions=cpu.instret,
            halted=cpu.halted,
            trap=trap,
            core_stats=core_timing.stats,
            interface_stats=interface.stats if interface else None,
            memory=self.memory,
            program=self.program,
            termination=termination,
            error=error,
            recoveries=recoveries,
            recovery_cycles=int(recovery_cycles),
            fifo_stats=interface.fifo.stats if interface else None,
            fifo_depth=(self.config.interface.fifo_depth
                        if interface else None),
            cache_stats=cache_stats,
            bus_stats=self.bus.stats,
            engine=engine if use_fast else "reference",
        )

    def _run_reference_loop(
        self,
        limit: int,
        max_cycles: int | None,
        deadline: float | None,
        checkpoint_every: int | None,
        on_checkpoint,
        recover: bool,
        recovery_limit: int,
        recovery_latency: int,
    ):
        """The original step/advance/on_commit loop (``engine=
        "reference"``); returns the loop-state tuple the shared
        ``run_bounded`` tail turns into a :class:`RunResult`."""
        cpu = self.cpu
        core_timing = self.core_timing
        interface = self.interface
        hooks = self.record_hooks
        stop_on_trap = self.config.stop_on_trap
        now: float = self.now
        trap: MonitorTrap | None = None
        termination = Termination.HALTED
        error: SimulationError | None = None
        next_deadline_check = cpu.instret + self.DEADLINE_STRIDE
        recoveries = 0
        recovery_cycles = 0.0

        checkpoint: dict | None = None
        next_checkpoint: int | None = None
        #: when the current attempt from `checkpoint` started — equals
        #: the capture time until a rollback, then the resume time.
        #: Wasted work is measured from here, not from the capture
        #: time, so repeated rollbacks to one checkpoint never charge
        #: an earlier attempt twice.
        replay_from = now
        if recover:
            # The rollback target before the first periodic checkpoint
            # is the run's entry state.
            self.now = now
            checkpoint = self.snapshot_state()
        if checkpoint_every is not None:
            next_checkpoint = cpu.instret + checkpoint_every

        while not cpu.halted:
            if cpu.instret >= limit:
                termination = Termination.INSTRUCTION_LIMIT
                error = SimulationError(
                    f"instruction limit {limit} exceeded at "
                    f"pc={cpu.pc:#x} — runaway program?",
                    pc=cpu.pc, instret=cpu.instret, cycle=int(now),
                )
                break
            if max_cycles is not None and now >= max_cycles:
                termination = Termination.CYCLE_LIMIT
                break
            if deadline is not None and cpu.instret >= next_deadline_check:
                next_deadline_check = cpu.instret + self.DEADLINE_STRIDE
                if time.monotonic() >= deadline:
                    termination = Termination.DEADLINE
                    break
            if (next_checkpoint is not None
                    and cpu.instret >= next_checkpoint):
                next_checkpoint = cpu.instret + checkpoint_every
                self.now = now
                checkpoint = self.snapshot_state()
                replay_from = now
                if on_checkpoint is not None:
                    on_checkpoint(self, checkpoint)
            try:
                record: CommitRecord = cpu.step()
                now = core_timing.advance(record, int(now))
                if interface is not None:
                    for hook in hooks:
                        hook(record)
                    now = interface.on_commit(record, now)
                    if interface.pending_trap is not None and stop_on_trap:
                        if (recover and checkpoint is not None
                                and recoveries < recovery_limit):
                            # Roll back and re-execute.  The restored
                            # state predates the trap, so pending_trap
                            # comes back clear; time keeps moving
                            # forward — detection, rollback and replay
                            # all cost real cycles.
                            trap_at = max(now, interface.trap_time)
                            wasted = (trap_at - replay_from
                                      + recovery_latency)
                            if (self.telemetry is not None
                                    and self.telemetry.tracer is not None):
                                self.telemetry.tracer.span(
                                    trap_at, recovery_latency,
                                    "monitor", "monitor.rollback",
                                    wasted=wasted,
                                )
                            self.restore_state(checkpoint)
                            now = replay_from = trap_at + recovery_latency
                            recoveries += 1
                            recovery_cycles += wasted
                            if next_checkpoint is not None:
                                next_checkpoint = (cpu.instret
                                                   + checkpoint_every)
                            continue
                        trap = interface.pending_trap
                        now = max(now, interface.trap_time)
                        termination = Termination.TRAP
                        break
            except SimulationError as err:
                if err.cycle is None:
                    err.cycle = int(now)
                termination = Termination.ERROR
                error = err
                break

        return now, trap, termination, error, recoveries, recovery_cycles


def run_program(
    program: Program,
    extension: MonitorExtension | None = None,
    clock_ratio: float = 0.5,
    fifo_depth: int = 64,
    config: SystemConfig | None = None,
    max_instructions: int | None = None,
    checkpoint_every: int | None = None,
    recover: bool = False,
    telemetry: Telemetry | None = None,
    engine: str | None = None,
) -> RunResult:
    """Convenience entry point: build a system and run it.

    This is the main public API used by the examples and benchmarks::

        result = run_program(program)                         # baseline
        result = run_program(program, create_extension("dift"))
        result = run_program(program, SoftErrorCheck(), clock_ratio=0.25)

    ``engine`` selects the execution loop ("fast"/"reference"); the
    default is the config's engine (``fast`` unless overridden).
    """
    if config is None:
        config = SystemConfig(interface=InterfaceConfig(
            clock_ratio=clock_ratio, fifo_depth=fifo_depth))
    system = FlexCoreSystem(program, extension, config,
                            telemetry=telemetry)
    return system.run(
        max_instructions,
        checkpoint_every=checkpoint_every,
        recover=recover,
        engine=engine,
    )
