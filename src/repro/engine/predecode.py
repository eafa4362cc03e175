"""Per-PC predecoded handler closures for the fast engine.

The reference loop pays, for every committed instruction: a word
fetch assembled byte-by-byte, a decode-cache lookup, a
:class:`~repro.core.executor.CommitRecord` allocation, a chain of
``isinstance``/opcode dispatch branches, a CFGR policy lookup, and an
:meth:`~repro.flexcore.interface.CoreFabricInterface.on_commit` call
— even when the instruction's class is configured IGNORE and the
packet is never built.

A :class:`HandlerTable` resolves everything that is *static per PC*
exactly once — the instruction word, its decode, its CFGR class and
forwarding policy, its base latency — into one closure per program
counter.  Calling the closure executes the instruction functionally,
charges the timing model, and updates the interface counters, in
precisely the order the reference path does, so the resulting
:class:`~repro.flexcore.system.RunResult` is bit-identical (the
differential and golden tests enforce this).

Fidelity rules the closures follow:

* Ignored-class common instructions are fully fused: no record is
  allocated; the interface bookkeeping reduces to the two counters
  ``on_commit`` would have bumped.
* *Forwarded* common instructions (policy != IGNORE) fuse the
  functional work and the timing charge and build their
  :class:`~repro.flexcore.packet.TracePacket` directly — no
  ``CommitRecord`` — field-for-field what ``from_commit`` makes of the
  record ``_execute`` would have produced, with the static DECODE bits
  computed once per PC.  A fused commit tail (``_make_forward``)
  replays ``on_commit`` around the interface's own FIFO and fabric
  service code, which own every dynamic decision (FIFO occupancy,
  fabric service, traps).
* The rare opcodes (FLEX, JMPL, TICC, SAVE/RESTORE, RDY/WRY, RETT,
  LDD/STD) run through the original ``CpuState._execute`` /
  ``CoreTiming.advance`` / ``on_commit`` machinery — only the fetch
  and decode are skipped.
* ``now`` is truncated with ``int()`` before timing, errors propagate
  with the same types and messages, ``instret`` only increments after
  the fallible functional work, and mutable collaborators that
  ``restore_state`` *replaces* (``timing.stats``, ``iface.stats``,
  ``cpu.codes``) are re-read through their stable owner on every call.
* A store to a word that has a predecoded handler drops that
  handler, wherever the word lives (``.text`` or not), so
  self-modifying code re-predecodes on next execution.
* Telemetry sinks are read at build time.  Cache-refill and
  store-buffer stalls go through the timing model's own stall charges
  (``CoreTiming.icache_miss`` and friends), which emit their trace
  spans only when a tracer is live.  The fused commit tail
  (``forward``) emits the packet and FIFO events of whichever sink
  is live, as ``on_commit`` does.  Per-commit counters need no
  closure code: they are derived from the stats the closures already
  keep.  Ignored-class and non-forwarding closures carry no telemetry
  code.

Handlers are built lazily (on first execution of each PC), so a table
never describes memory it has not read.
"""

from __future__ import annotations

from repro.core.alu import execute_alu
from repro.flexcore.cfgr import ForwardPolicy
from repro.flexcore.packet import TracePacket, static_decode
from repro.isa.encoding import decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Cond, Op, Op2, Op3, Op3Mem
from repro.memory.backing import PAGE_MASK, PAGE_SIZE, MemoryFault

MASK32 = 0xFFFFFFFF

#: Process-wide word -> Instruction memo.  Instructions are frozen and
#: decoding is pure, so the memo is shared by every table.
_DECODE_CACHE: dict[int, Instruction] = {}

#: Branch condition evaluators, one closure per Cond (the reference
#: ``evaluate_condition`` rebuilds a 16-entry dict per call).
_COND_EVAL = {
    Cond.BA: lambda codes: True,
    Cond.BN: lambda codes: False,
    Cond.BE: lambda codes: codes.z,
    Cond.BNE: lambda codes: not codes.z,
    Cond.BG: lambda codes: not (codes.z or (codes.n != codes.v)),
    Cond.BLE: lambda codes: codes.z or (codes.n != codes.v),
    Cond.BGE: lambda codes: codes.n == codes.v,
    Cond.BL: lambda codes: codes.n != codes.v,
    Cond.BGU: lambda codes: not (codes.c or codes.z),
    Cond.BLEU: lambda codes: codes.c or codes.z,
    Cond.BCC: lambda codes: not codes.c,
    Cond.BCS: lambda codes: codes.c,
    Cond.BPOS: lambda codes: not codes.n,
    Cond.BNEG: lambda codes: codes.n,
    Cond.BVC: lambda codes: not codes.v,
    Cond.BVS: lambda codes: codes.v,
}


def _sra(a, b):
    return (((a & MASK32) - ((a & 0x80000000) << 1)) >> (b & 31)) & MASK32


#: Non-cc ALU ops whose value the closure computes inline; every
#: formula mirrors :func:`repro.core.alu.execute_alu` bit for bit.
#: Anything cc-setting, carry-consuming or Y-touching calls
#: ``execute_alu`` itself (see ``_make_alu_full``).
_SIMPLE_ALU = {
    Op3.ADD: lambda a, b: (a + b) & MASK32,
    Op3.SUB: lambda a, b: (a - b) & MASK32,
    Op3.AND: lambda a, b: a & b & MASK32,
    Op3.ANDN: lambda a, b: a & ~b & MASK32,
    Op3.OR: lambda a, b: (a | b) & MASK32,
    Op3.ORN: lambda a, b: (a | ~b) & MASK32,
    Op3.XOR: lambda a, b: (a ^ b) & MASK32,
    Op3.XNOR: lambda a, b: ~(a ^ b) & MASK32,
    Op3.SLL: lambda a, b: (a << (b & 31)) & MASK32,
    Op3.SRL: lambda a, b: (a >> (b & 31)) & MASK32,
    Op3.SRA: _sra,
}

#: FORMAT3_ALU opcodes with side effects beyond regs/codes/Y writes
#: (window rotation, control transfer, traps, co-processor I/O); these
#: always run through ``CpuState._execute``.
_SPECIAL_ALU = frozenset({
    Op3.FLEXOP, Op3.JMPL, Op3.TICC, Op3.SAVE, Op3.RESTORE,
    Op3.RDY, Op3.WRY, Op3.RETT,
})

#: Loads/stores with fully fused closures; LDD/STD (two accesses,
#: even-rd checks) take the generic path.
_FUSED_LOADS = (Op3Mem.LD, Op3Mem.LDUB, Op3Mem.LDSB,
                Op3Mem.LDUH, Op3Mem.LDSH)
_FUSED_STORES = (Op3Mem.ST, Op3Mem.STB, Op3Mem.STH)


def _word_accessors(memory):
    """Fast big-endian word read/write over ``memory``'s page dict.

    Bit-compatible with :class:`SparseMemory`'s accessors, including
    the misaligned-fault message and zero-page allocation; an aligned
    word never straddles a page.
    """
    pages = memory._pages

    def read_word(addr):
        if addr & 3:
            raise MemoryFault(f"misaligned word read at {addr:#x}")
        addr &= MASK32
        page = pages.get(addr >> 12)
        if page is None:
            page = bytearray(PAGE_SIZE)
            pages[addr >> 12] = page
        o = addr & PAGE_MASK
        return ((page[o] << 24) | (page[o + 1] << 16)
                | (page[o + 2] << 8) | page[o + 3])

    def write_word(addr, value):
        if addr & 3:
            raise MemoryFault(f"misaligned word write at {addr:#x}")
        addr &= MASK32
        page = pages.get(addr >> 12)
        if page is None:
            page = bytearray(PAGE_SIZE)
            pages[addr >> 12] = page
        o = addr & PAGE_MASK
        value &= MASK32
        page[o] = value >> 24
        page[o + 1] = (value >> 16) & 0xFF
        page[o + 2] = (value >> 8) & 0xFF
        page[o + 3] = value & 0xFF

    return read_word, write_word


class HandlerTable:
    """Lazily-built map of PC -> fused step closure for one system.

    A table is built fresh for each ``run_bounded`` invocation (and
    after every rollback restore), so it can never describe stale
    text.  Within a run, store closures drop the handler of any word
    they overwrite, so the next execution of that PC re-fetches and
    re-predecodes.
    """

    def __init__(self, system):
        self.system = system
        self.handlers: dict[int, object] = {}
        self._read_word, self._write_word = _word_accessors(system.memory)

    # ------------------------------------------------------------------

    def build(self, pc: int):
        """Decode the word at ``pc`` and install its handler.

        Raises exactly what the reference fetch/decode would raise
        (``MemoryFault`` on unmapped/misaligned PCs, the decoder's
        ``EncodingError`` on bad words); callers wrap errors the same
        way ``CpuState.step`` does.
        """
        system = self.system
        word = system.memory.read_word(pc)
        instr = _DECODE_CACHE.get(word)
        if instr is None:
            instr = decode(word)
            _DECODE_CACHE[word] = instr
        cpu = system.cpu
        if (cpu._m_decode_miss is not None
                and word not in cpu._decode_cache):
            # With metrics live, fill the CPU's own decode cache as
            # ``CpuState.step`` does, so ``core.decode_cache_misses``
            # counts the same words on both engines.
            cpu._decode_cache[word] = instr
            cpu._m_decode_miss.inc()
        instr_class = instr.instr_class
        latency = system.core_timing.config.base_latency(instr_class)
        iface = system.interface
        policy = (iface.cfgr.policy(instr_class)
                  if iface is not None else ForwardPolicy.IGNORE)

        handler = None
        if policy == ForwardPolicy.IGNORE:
            op = instr.op
            if op == Op.FORMAT3_ALU and instr.opcode not in _SPECIAL_ALU:
                valfn = _SIMPLE_ALU.get(instr.opcode)
                if valfn is not None:
                    handler = self._make_alu_simple(pc, instr, valfn,
                                                    latency)
                else:
                    handler = self._make_alu_full(pc, instr, latency)
            elif op == Op.FORMAT3_MEM:
                if instr.opcode in _FUSED_LOADS:
                    handler = self._make_load(pc, instr, latency)
                elif instr.opcode in _FUSED_STORES:
                    handler = self._make_store(pc, instr, latency)
            elif op == Op.CALL:
                handler = self._make_call(pc, instr, latency)
            elif op == Op.FORMAT2:
                if instr.opcode == Op2.SETHI:
                    handler = self._make_sethi(pc, instr, latency)
                elif instr.opcode == Op2.BICC:
                    handler = self._make_branch(pc, instr, latency)
        else:
            op = instr.op
            if op == Op.FORMAT3_ALU and instr.opcode not in _SPECIAL_ALU:
                valfn = _SIMPLE_ALU.get(instr.opcode)
                if valfn is not None:
                    handler = self._make_alu_simple_fwd(pc, word, instr,
                                                        valfn, latency)
                else:
                    handler = self._make_alu_full_fwd(pc, word, instr,
                                                      latency)
            elif op == Op.FORMAT3_MEM:
                if instr.opcode in _FUSED_LOADS:
                    handler = self._make_load_fwd(pc, word, instr,
                                                  latency)
                elif instr.opcode in _FUSED_STORES:
                    handler = self._make_store_fwd(pc, word, instr,
                                                   latency)
            elif op == Op.CALL:
                handler = self._make_call_fwd(pc, word, instr, latency)
            elif op == Op.FORMAT2:
                if instr.opcode == Op2.SETHI:
                    handler = self._make_sethi_fwd(pc, word, instr,
                                                   latency)
                elif instr.opcode == Op2.BICC:
                    handler = self._make_branch_fwd(pc, word, instr,
                                                    latency)
        if handler is None:
            handler = self._make_generic(pc, word, instr)
        self.handlers[pc] = handler
        return handler

    # ------------------------------------------------------------------
    # Closure factories.  Each captures only objects that are stable
    # across restore_state (the cpu/timing/interface *owners*, bound
    # methods of in-place-mutated collaborators) plus per-PC statics.

    def _context(self):
        system = self.system
        cpu = system.cpu
        timing = system.core_timing
        regs = cpu.regs
        return (cpu, timing, system.interface, regs.read, regs.write,
                regs.physical_index, timing.icache.read,
                timing.icache_miss)

    def _make_alu_simple(self, pc, instr, valfn, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, icache_miss) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            regs_write(rd, valfn(a, b))
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_alu_full(self, pc, instr, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, icache_miss) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        op3 = instr.opcode

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            alu = execute_alu(op3, a, b, carry=cpu.codes.c, y=cpu.y)
            regs_write(rd, alu.value)
            if alu.codes is not None:
                cpu.codes = alu.codes
            if alu.y is not None:
                cpu.y = alu.y
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_load(self, pc, instr, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, icache_miss) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        op3 = instr.opcode
        dcache_read = timing.dcache.read
        dcache_miss = timing.dcache_miss
        memory = self.system.memory
        read_word = self._read_word
        read_byte = memory.read_byte
        read_half = memory.read_half

        if op3 == Op3Mem.LD:
            loadfn = read_word
        elif op3 == Op3Mem.LDUB:
            loadfn = read_byte
        elif op3 == Op3Mem.LDSB:
            def loadfn(addr):
                raw = read_byte(addr)
                return (raw - 0x100 if raw & 0x80 else raw) & MASK32
        elif op3 == Op3Mem.LDUH:
            loadfn = read_half
        else:  # LDSH
            def loadfn(addr):
                raw = read_half(addr)
                return (raw - 0x10000 if raw & 0x8000 else raw) & MASK32

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            addr = (a + b) & MASK32
            value = loadfn(addr)
            regs_write(rd, value)
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = phys(rd)
            ts.base_cycles += base
            now += base
            if not dcache_read(addr):
                now = dcache_miss(now, pc, addr)
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_store(self, pc, instr, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, icache_miss) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        op3 = instr.opcode
        dcache_write = timing.dcache.write
        sb_push = timing.store_buffer.push
        store_stall = timing.store_stall
        memory = self.system.memory
        if op3 == Op3Mem.ST:
            storefn = self._write_word
        elif op3 == Op3Mem.STB:
            storefn = memory.write_byte
        else:  # STH
            storefn = memory.write_half
        handlers = self.handlers

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            addr = (a + b) & MASK32
            value = regs_read(rd)
            storefn(addr, value)
            if (addr & -4) in handlers:
                # Self-modifying code: re-predecode the touched word.
                del handlers[addr & -4]
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)
                             or phys(rd) == dest):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            dcache_write(addr)
            proceed = sb_push(now)
            if proceed > now:
                now = store_stall(now, proceed, pc)
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_branch(self, pc, instr, latency):
        (cpu, timing, iface, _regs_read, _regs_write, _phys,
         icache_read, icache_miss) = self._context()
        cond_eval = _COND_EVAL[instr.cond]
        target = (pc + 4 * instr.disp) & MASK32
        annul = instr.annul
        annul_taken = instr.annul and instr.cond == Cond.BA

        def handler(now):
            if cond_eval(cpu.codes):
                if annul_taken:
                    cpu._annul_next = True
                npc = cpu.npc
                cpu.pc = npc
                cpu.npc = target
            else:
                if annul:
                    cpu._annul_next = True
                npc = cpu.npc
                cpu.pc = npc
                cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            # Branches carry no source physical registers, so the
            # load-use interlock can never fire; just clear it.
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_sethi(self, pc, instr, latency):
        (cpu, timing, iface, _regs_read, regs_write, _phys,
         icache_read, icache_miss) = self._context()
        rd = instr.rd
        value = (instr.imm << 10) & MASK32

        def handler(now):
            regs_write(rd, value)
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_call(self, pc, instr, latency):
        (cpu, timing, iface, _regs_read, regs_write, _phys,
         icache_read, icache_miss) = self._context()
        target = (pc + 4 * instr.disp) & MASK32

        def handler(now):
            regs_write(15, pc)  # %o7 <- address of the call
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = target
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    # ------------------------------------------------------------------
    # Forwarded variants: same fused functional/timing work, plus the
    # trace packet built once, in place, from the values the closure
    # already holds — field-for-field what ``TracePacket.from_commit``
    # makes of the record ``_execute`` would build — and handed to a
    # fused commit tail (``_make_forward``).  The dynamic machinery
    # (FIFO occupancy, ``_service``, trap latching) stays on the
    # interface's own code.

    def _make_forward(self, pc, instr):
        """Return ``(forward, decode)`` for a known-forwarded,
        never-annulled instruction: ``forward(packet, now)`` is the
        fused equivalent of ``on_commit`` with the policy and ack mode
        resolved now, and ``decode`` is the instruction's static DECODE
        bits, which the packet builder ORs the incoming carry into.

        ``forward`` records what ``on_commit`` records, in its order,
        for whichever of the interface's sinks is live: the
        ``stall.fifo_full`` span or ``fifo.drop`` instant, the
        ``fabric.packet_latency`` observation, the ``packet.<class>``
        span and the ``stall.ack`` span.  With both sinks off that is
        a few ``is not None`` checks per forwarded packet.  (The
        per-commit counters need no code here: they are derived from
        ``iface.stats``.)"""
        klass = instr.instr_class
        iface = self.system.interface
        policy = iface.cfgr.policy(klass)
        best_effort = policy == ForwardPolicy.BEST_EFFORT
        # FLEX never takes this path (it is in ``_SPECIAL_ALU``), so
        # the READ_STATUS clause of the reference ack rule is moot.
        needs_ack = (policy == ForwardPolicy.ALWAYS_ACK
                     or iface.config.precise_exceptions)
        sync = iface.config.sync_fabric_cycles
        fifo = iface.fifo
        time_until_space = fifo.time_until_space
        push = fifo.push
        service = iface._service
        # The interface's own telemetry sinks, read once per build.
        tracer = iface._tracer
        latency = iface._h_service

        packet_name = f"packet.{klass.name.lower()}"

        def forward(packet, now):
            stats = iface.stats
            stats.committed += 1
            wait = time_until_space(now)
            if wait:
                if best_effort:
                    stats.dropped += 1
                    fifo.stats.dropped += 1
                    if tracer is not None:
                        tracer.instant(now, "fifo", "fifo.drop", pc=pc)
                    return now
                stats.fifo_stall_cycles += wait
                fifo.stats.full_stall_cycles += wait
                if tracer is not None:
                    tracer.span(now, wait, "core", "stall.fifo_full",
                                pc=pc)
                now += wait
            stats.forwarded += 1
            by_class = stats.forwarded_by_class
            by_class[klass] = by_class.get(klass, 0) + 1
            drain = service(packet, now)
            push(now, drain)
            if latency is not None:
                latency.observe(drain - now)
            if tracer is not None:
                tracer.span(now, drain - now, "fabric", packet_name,
                            pc=pc)
            if needs_ack:
                ack_at = drain + sync
                stats.ack_stall_cycles += ack_at - now
                if tracer is not None:
                    tracer.span(now, ack_at - now, "core", "stall.ack",
                                pc=pc)
                now = ack_at
            return now

        return forward, static_decode(instr)

    def _make_alu_simple_fwd(self, pc, word, instr, valfn, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, icache_miss) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        klass = instr.instr_class
        forward, decode = self._make_forward(pc, instr)

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            value = valfn(a, b)
            regs_write(rd, value)
            codes = cpu.codes
            packet = TracePacket(
                pc, word, 0, value, a, b, codes.pack(), False, klass,
                decode | (codes.c << 16), cpu.y, phys(rs1),
                0 if use_imm else phys(rs2), phys(rd), instr)
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            ts.cycles = now
            return forward(packet, now)

        return handler

    def _make_alu_full_fwd(self, pc, word, instr, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, icache_miss) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        op3 = instr.opcode
        klass = instr.instr_class
        forward, decode = self._make_forward(pc, instr)

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            carry_before = cpu.codes.c
            y_before = cpu.y
            alu = execute_alu(op3, a, b, carry=carry_before, y=y_before)
            regs_write(rd, alu.value)
            if alu.codes is not None:
                cpu.codes = alu.codes
            if alu.y is not None:
                cpu.y = alu.y
            packet = TracePacket(
                pc, word, 0, alu.value, a, b, cpu.codes.pack(), False,
                klass, decode | (carry_before << 16), y_before,
                phys(rs1), 0 if use_imm else phys(rs2), phys(rd), instr)
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            ts.cycles = now
            return forward(packet, now)

        return handler

    def _make_load_fwd(self, pc, word, instr, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, icache_miss) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        op3 = instr.opcode
        klass = instr.instr_class
        forward, decode = self._make_forward(pc, instr)
        dcache_read = timing.dcache.read
        dcache_miss = timing.dcache_miss
        memory = self.system.memory
        read_word = self._read_word
        read_byte = memory.read_byte
        read_half = memory.read_half

        if op3 == Op3Mem.LD:
            loadfn = read_word
        elif op3 == Op3Mem.LDUB:
            loadfn = read_byte
        elif op3 == Op3Mem.LDSB:
            def loadfn(addr):
                raw = read_byte(addr)
                return (raw - 0x100 if raw & 0x80 else raw) & MASK32
        elif op3 == Op3Mem.LDUH:
            loadfn = read_half
        else:  # LDSH
            def loadfn(addr):
                raw = read_half(addr)
                return (raw - 0x10000 if raw & 0x8000 else raw) & MASK32

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            addr = (a + b) & MASK32
            value = loadfn(addr)
            regs_write(rd, value)
            codes = cpu.codes
            packet = TracePacket(
                pc, word, addr, value, a, b, codes.pack(), False, klass,
                decode | (codes.c << 16), cpu.y, phys(rs1),
                0 if use_imm else phys(rs2), phys(rd), instr)
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = phys(rd)
            ts.base_cycles += base
            now += base
            if not dcache_read(addr):
                now = dcache_miss(now, pc, addr)
            ts.cycles = now
            return forward(packet, now)

        return handler

    def _make_store_fwd(self, pc, word, instr, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, icache_miss) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        op3 = instr.opcode
        klass = instr.instr_class
        forward, decode = self._make_forward(pc, instr)
        dcache_write = timing.dcache.write
        sb_push = timing.store_buffer.push
        store_stall = timing.store_stall
        memory = self.system.memory
        if op3 == Op3Mem.ST:
            storefn = self._write_word
        elif op3 == Op3Mem.STB:
            storefn = memory.write_byte
        else:  # STH
            storefn = memory.write_half
        handlers = self.handlers

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            addr = (a + b) & MASK32
            value = regs_read(rd)
            storefn(addr, value)
            if (addr & -4) in handlers:
                # Self-modifying code: re-predecode the touched word.
                del handlers[addr & -4]
            codes = cpu.codes
            packet = TracePacket(
                pc, word, addr, value, a, b, codes.pack(), False, klass,
                decode | (codes.c << 16), cpu.y, phys(rs1),
                0 if use_imm else phys(rs2), phys(rd), instr)
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)
                             or phys(rd) == dest):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            dcache_write(addr)
            proceed = sb_push(now)
            if proceed > now:
                now = store_stall(now, proceed, pc)
            ts.cycles = now
            return forward(packet, now)

        return handler

    def _make_branch_fwd(self, pc, word, instr, latency):
        (cpu, timing, iface, _regs_read, _regs_write, _phys,
         icache_read, icache_miss) = self._context()
        cond_eval = _COND_EVAL[instr.cond]
        target = (pc + 4 * instr.disp) & MASK32
        annul = instr.annul
        annul_taken = instr.annul and instr.cond == Cond.BA
        klass = instr.instr_class
        forward, decode = self._make_forward(pc, instr)

        def handler(now):
            codes = cpu.codes
            taken = cond_eval(codes)
            packet = TracePacket(
                pc, word, target, 0, 0, 0, codes.pack(), taken, klass,
                decode | (codes.c << 16), cpu.y, 0, 0, 0, instr)
            if taken:
                if annul_taken:
                    cpu._annul_next = True
                npc = cpu.npc
                cpu.pc = npc
                cpu.npc = target
            else:
                if annul:
                    cpu._annul_next = True
                npc = cpu.npc
                cpu.pc = npc
                cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            return forward(packet, now)

        return handler

    def _make_sethi_fwd(self, pc, word, instr, latency):
        (cpu, timing, iface, _regs_read, regs_write, phys,
         icache_read, icache_miss) = self._context()
        rd = instr.rd
        value = (instr.imm << 10) & MASK32
        klass = instr.instr_class
        forward, decode = self._make_forward(pc, instr)

        def handler(now):
            regs_write(rd, value)
            codes = cpu.codes
            packet = TracePacket(
                pc, word, 0, value, 0, 0, codes.pack(), False, klass,
                decode | (codes.c << 16), cpu.y, 0, 0, phys(rd), instr)
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            return forward(packet, now)

        return handler

    def _make_call_fwd(self, pc, word, instr, latency):
        (cpu, timing, iface, _regs_read, regs_write, phys,
         icache_read, icache_miss) = self._context()
        target = (pc + 4 * instr.disp) & MASK32
        klass = instr.instr_class
        forward, decode = self._make_forward(pc, instr)

        def handler(now):
            regs_write(15, pc)  # %o7 <- address of the call
            codes = cpu.codes
            packet = TracePacket(
                pc, word, target, pc, 0, 0, codes.pack(), True, klass,
                decode | (codes.c << 16), cpu.y, 0, 0, phys(15), instr)
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = target
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                now = icache_miss(now, pc)
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            return forward(packet, now)

        return handler

    def _make_generic(self, pc, word, instr):
        """Full-fidelity path minus fetch/decode: forwarded classes,
        rare opcodes, and anything with cross-cutting side effects."""
        system = self.system
        cpu = system.cpu
        execute = cpu._execute
        advance = system.core_timing.advance
        iface = system.interface
        on_commit = iface.on_commit if iface is not None else None
        is_store = instr.is_store
        double = instr.opcode == Op3Mem.STD if is_store else False
        handlers = self.handlers

        def handler(now):
            record = execute(pc, word, instr)
            cpu.instret += 1
            if is_store:
                addr = record.addr & -4
                handlers.pop(addr, None)
                if double:
                    handlers.pop(addr + 4, None)
            now = advance(record, int(now))
            if on_commit is not None:
                now = on_commit(record, now)
            return now

        return handler
