"""The flattened hot loop of the fast engine.

``run_fast_loop`` is the drop-in replacement for the body of
``FlexCoreSystem.run_bounded``'s reference while-loop.  It drives the
:class:`~repro.engine.predecode.HandlerTable` closures and keeps the
watchdog, checkpoint, rollback-recovery and trap semantics of the
reference loop exactly — same check order, same error wrapping, same
cycle arithmetic — returning the same ``(now, trap, termination,
error, recoveries, recovery_cycles)`` tuple the shared result tail
consumes.

Eligibility is decided by ``FlexCoreSystem.run_bounded``
(:meth:`~repro.flexcore.system.FlexCoreSystem._fast_loop_supported`):
only record hooks force the reference loop, because they see every
``CommitRecord`` and the fused closures never build one.  Live
telemetry runs here: the handler table's fused commit tail emits the
packet and FIFO events, the shared stall charges of
:class:`~repro.core.timing.CoreTiming` emit the stall spans, and this
loop emits the annulled-slot and rollback events at the points the
reference loop does, so metrics and the event stream are identical.
"""

from __future__ import annotations

import time

from repro.core.executor import SimulationError
from repro.engine.predecode import MASK32, HandlerTable
from repro.isa.encoding import EncodingError
from repro.isa.registers import WindowOverflow, WindowUnderflow
from repro.memory.backing import MemoryFault

_INFINITY = float("inf")


def run_fast_loop(
    system,
    limit: int,
    max_cycles: int | None,
    deadline: float | None,
    checkpoint_every: int | None,
    on_checkpoint,
    recover: bool,
    recovery_limit: int,
    recovery_latency: int,
):
    """Run ``system`` to a stop condition; see module docstring."""
    from repro.flexcore.system import Termination

    cpu = system.cpu
    timing = system.core_timing
    iface = system.interface
    stop_on_trap = system.config.stop_on_trap
    stride = system.DEADLINE_STRIDE
    icache_read = timing.icache.read
    icache_miss = timing.icache_miss
    m_annulled = cpu._m_annulled
    telemetry = system.telemetry
    tracer = telemetry.tracer if telemetry is not None else None

    table = HandlerTable(system)
    handlers = table.handlers
    build = table.build

    now = system.now
    trap = None
    termination = Termination.HALTED
    error: SimulationError | None = None
    recoveries = 0
    recovery_cycles = 0.0

    max_c = _INFINITY if max_cycles is None else max_cycles
    next_deadline = (_INFINITY if deadline is None
                     else cpu.instret + stride)
    next_checkpoint = (_INFINITY if checkpoint_every is None
                       else cpu.instret + checkpoint_every)
    checkpoint: dict | None = None
    replay_from = now
    if recover:
        system.now = now
        checkpoint = system.snapshot_state()

    while not cpu.halted:
        instret = cpu.instret
        if instret >= limit:
            termination = Termination.INSTRUCTION_LIMIT
            error = SimulationError(
                f"instruction limit {limit} exceeded at "
                f"pc={cpu.pc:#x} — runaway program?",
                pc=cpu.pc, instret=instret, cycle=int(now),
            )
            break
        if now >= max_c:
            termination = Termination.CYCLE_LIMIT
            break
        if instret >= next_deadline:
            next_deadline = instret + stride
            if time.monotonic() >= deadline:
                termination = Termination.DEADLINE
                break
        if instret >= next_checkpoint:
            next_checkpoint = instret + checkpoint_every
            system.now = now
            checkpoint = system.snapshot_state()
            replay_from = now
            if on_checkpoint is not None:
                on_checkpoint(system, checkpoint)

        pc = cpu.pc
        try:
            if cpu._annul_next:
                # Fused annulled delay slot: the reference still
                # fetches and decodes the slot (errors included) —
                # building its handler performs both — then charges
                # ifetch plus one cycle and clears the interlock.
                if pc not in handlers:
                    build(pc)
                cpu._annul_next = False
                if m_annulled is not None:
                    m_annulled.inc()
                npc = cpu.npc
                cpu.pc = npc
                cpu.npc = (npc + 4) & MASK32
                cpu.instret = instret + 1
                ts = timing.stats
                ts.instructions += 1
                inow = int(now)
                if not icache_read(pc):
                    inow = icache_miss(inow, pc)
                ts.base_cycles += 1
                inow += 1
                ts.cycles = inow
                timing._pending_load_dest = -1
                now = inow
                if iface is not None:
                    iface.stats.committed += 1
            else:
                handler = handlers.get(pc)
                if handler is None:
                    handler = build(pc)
                now = handler(now)
        except SimulationError as err:
            cpu._attach_context(err, pc)
            if err.cycle is None:
                err.cycle = int(now)
            termination = Termination.ERROR
            error = err
            break
        except (MemoryFault, WindowOverflow, WindowUnderflow,
                EncodingError) as err:
            wrapped = SimulationError(str(err))
            cpu._attach_context(wrapped, pc)
            wrapped.cycle = int(now)
            termination = Termination.ERROR
            error = wrapped
            break

        if (iface is not None and iface.pending_trap is not None
                and stop_on_trap):
            if (recover and checkpoint is not None
                    and recoveries < recovery_limit):
                trap_at = max(now, iface.trap_time)
                wasted = trap_at - replay_from + recovery_latency
                if tracer is not None:
                    tracer.span(trap_at, recovery_latency, "monitor",
                                "monitor.rollback", wasted=wasted)
                system.restore_state(checkpoint)
                now = replay_from = trap_at + recovery_latency
                recoveries += 1
                recovery_cycles += wasted
                if checkpoint_every is not None:
                    next_checkpoint = cpu.instret + checkpoint_every
                # The rollback rewound memory (possibly text), so the
                # old handler table may be stale; rebuild lazily.
                table = HandlerTable(system)
                handlers = table.handlers
                build = table.build
                continue
            trap = iface.pending_trap
            now = max(now, iface.trap_time)
            termination = Termination.TRAP
            break

    return now, trap, termination, error, recoveries, recovery_cycles
