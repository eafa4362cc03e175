"""Trace-packet field semantics and MonitorExtension base behaviour."""

import pytest

from repro.core.executor import CpuState
from repro.extensions import MonitorTrap, UninitializedMemoryCheck
from repro.extensions.base import MetaAccess, PacketOutcome
from repro.flexcore.packet import TracePacket
from repro.isa import FlexOpf, InstrClass, assemble
from repro.memory.backing import SparseMemory


def packets_for(source, entry="start"):
    """Execute a program and yield (record, packet) pairs."""
    program = assemble(source, entry=entry)
    memory = SparseMemory()
    memory.load_program(program)
    cpu = CpuState(memory, program.entry)
    out = []
    while not cpu.halted:
        record = cpu.step()
        if not record.annulled:
            out.append((record, TracePacket.from_commit(record)))
    return out


class TestPacketFields:
    def test_load_packet(self):
        pairs = packets_for("""
        .text
start:  set     data, %g1
        ldub    [%g1 + 1], %o0
        ta      0
        nop
        .data
data:   .word   0x08192a3b
""")
        packet = next(p for r, p in pairs
                      if p.opcode == InstrClass.LOAD_BYTE)
        assert packet.is_load and not packet.is_store
        assert packet.access_size == 1
        assert packet.res == 0x19
        assert packet.addr % 4 == 1

    def test_flex_packet_opf(self):
        pairs = packets_for("""
        .text
start:  fxtagm  %g1, %g2
        ta      0
        nop
""")
        packet = next(p for r, p in pairs
                      if p.opcode == InstrClass.FLEX)
        assert packet.opf == FlexOpf.TAG_SET_MEM

    def test_carry_in_captured(self):
        pairs = packets_for("""
        .text
start:  set     0xffffffff, %o0
        addcc   %o0, 1, %o1         ! sets carry
        addx    %g0, 0, %o2         ! consumes carry
        ta      0
        nop
""")
        addx = [p for r, p in pairs if r.instr.opcode is not None
                and getattr(r.instr.opcode, "name", "") == "ADDX"]
        assert addx[0].carry_in

    def test_y_in_extra(self):
        pairs = packets_for("""
        .text
start:  set     0x10000, %o0
        umul    %o0, %o0, %o1       ! Y <- 1
        add     %o1, 1, %o2
        ta      0
        nop
""")
        add = [p for r, p in pairs
               if p.opcode == InstrClass.ARITH_ADD][-1]
        assert add.extra == 1  # Y value before the add

    def test_branch_direction(self):
        pairs = packets_for("""
        .text
start:  cmp     %g0, %g0
        bne     skip
        nop
skip:   ta      0
        nop
""")
        branch = next(p for r, p in pairs
                      if p.opcode == InstrClass.BRANCH)
        assert not branch.branch


class TestPacketContract:
    PROGRAM = """
        .text
start:  set     0x90000, %g1
        ld      [%g1], %o0
        ta      0
        nop
"""

    def test_fields_cannot_be_assigned(self):
        _, packet = packets_for(self.PROGRAM)[0]
        with pytest.raises(AttributeError):
            packet.pc = 0
        with pytest.raises(AttributeError):
            packet.instr = None

    def test_from_commit_keeps_the_static_decode(self):
        for record, packet in packets_for(self.PROGRAM):
            assert packet.instr is record.instr


class TestPacketOutcome:
    def test_fluent_accessors(self):
        outcome = PacketOutcome().read(0x100).write(0x104, 0xF)
        assert outcome.meta_accesses == [
            MetaAccess("read", 0x100),
            MetaAccess("write", 0x104, 0xF),
        ]

    def test_default_one_fabric_cycle(self):
        assert PacketOutcome().fabric_cycles == 1


class TestBaseExtension:
    def test_set_base_moves_meta_addresses(self):
        pairs = packets_for("""
        .text
start:  set     0x70000000, %g1
        fxbase  %g1
        ta      0
        nop
""")
        extension = UninitializedMemoryCheck()
        extension.attach(136)
        for record, packet in pairs:
            if packet.opcode == InstrClass.FLEX:
                extension.handle_flex(packet)
        assert extension.meta_base == 0x70000000
        assert extension.mem_tags.meta_address(0) == 0x70000000

    def test_trap_counts(self):
        extension = UninitializedMemoryCheck()
        extension.attach(136)
        pairs = packets_for("""
        .text
start:  set     0x90000, %g1
        ld      [%g1], %o0
        ta      0
        nop
""")
        record, packet = next(
            (r, p) for r, p in pairs if p.opcode == InstrClass.LOAD_WORD
        )
        outcome = extension.process(packet)
        assert outcome.trap is not None
        assert extension.traps_seen == 1
        assert extension.status_word() == 1

    def test_trap_str(self):
        trap = MonitorTrap(extension="umc", kind="x", pc=0x1000,
                           addr=0x2000, message="boom")
        text = str(trap)
        assert "umc" in text and "0x1000" in text and "0x2000" in text


class TestRunResultHelpers:
    def test_word_unknown_symbol(self):
        from repro.flexcore import run_program
        program = assemble(".text\nstart: ta 0\nnop\n", entry="start")
        result = run_program(program)
        with pytest.raises(KeyError):
            result.word("nothing")
