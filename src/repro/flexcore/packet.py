"""Core-to-fabric trace packet (the FFIFO entry of Table II).

Every committed instruction the CFGR selects is turned into one packet
carrying "fairly comprehensive information": the program counter, the
undecoded instruction word, effective address, result, source operand
values, condition codes, branch outcome — plus the *pre-decoded*
fields (opcode, register numbers, control signals) that Section III-C
credits with a 30% speedup for DIFT because the fabric no longer has
to implement a SPARC decoder in LUTs.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.executor import CommitRecord
from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass

#: Field widths in bits, straight from Table II.  Used by the area
#: model to size the forward FIFO's SRAM.
PACKET_FIELD_BITS = {
    "PC": 32,
    "INST": 32,
    "ADDR": 32,
    "RES": 32,
    "SRCV1": 32,
    "SRCV2": 32,
    "COND": 4,
    "BRANCH": 1,
    "OPCODE": 5,
    "DECODE": 32,
    "EXTRA": 32,
    "SRC1": 9,
    "SRC2": 9,
    "DEST": 9,
}

PACKET_BITS = sum(PACKET_FIELD_BITS.values())


def static_decode(instr: Instruction) -> int:
    """The DECODE bits fixed by the instruction word alone.

    DECODE carries miscellaneous pre-decoded control signals; we pack
    the fields a monitoring engine typically needs.  Only bit 16, the
    incoming carry, depends on the dynamic state, so a packet's DECODE
    is ``static_decode(instr) | (carry_in << 16)`` and the static part
    can be computed once per instruction word.
    """
    decode = (int(instr.is_load)
              | (int(instr.is_store) << 1)
              | (int(instr.use_imm) << 2)
              | ((instr.opf & 0x1FF) << 3))
    if instr.is_load or instr.is_store:
        decode |= (instr.access_size() & 0xF) << 12
    return decode


class TracePacket(NamedTuple):
    """One forward-FIFO entry.

    Immutable: the interface assembles each packet once, at commit,
    from the values the commit stage holds, and nothing downstream may
    alter it.  The fields are the Table II wires in order, plus the
    non-wire ``instr``.
    """

    pc: int
    inst: int  # raw instruction word (INST)
    addr: int  # load/store effective address or branch target (ADDR)
    res: int  # instruction result (RES)
    srcv1: int  # source operand values (SRCV1/SRCV2)
    srcv2: int
    cond: int  # packed condition codes (COND, 4 bits)
    branch: bool  # computed branch direction (BRANCH)
    opcode: InstrClass  # decoded instruction type (OPCODE, 5 bits)
    decode: int  # miscellaneous decoded signals (DECODE)
    extra: int  # extra processor control signals (EXTRA)
    src1: int  # decoded physical source register numbers (9 bits)
    src2: int
    dest: int  # decoded physical destination register number
    #: not a wire — the static decode of ``inst``, kept so extensions
    #: can dispatch on the exact opcode without re-decoding in the
    #: *simulator* even when modelling a fabric-side decoder.
    instr: Instruction | None = None

    @classmethod
    def from_commit(cls, record: CommitRecord) -> "TracePacket":
        """Build the packet the interface module would assemble at the
        commit stage for a committed (never an annulled) instruction."""
        instr = record.instr
        return cls(
            pc=record.pc,
            inst=record.word,
            addr=record.addr,
            res=record.result,
            srcv1=record.srcv1,
            srcv2=record.srcv2,
            cond=record.cond,
            branch=record.branch_taken,
            opcode=record.instr_class,
            decode=(static_decode(instr)
                    | (int(record.carry_before) << 16)),
            extra=record.y_before,
            src1=record.src1_phys,
            src2=record.src2_phys,
            dest=record.dest_phys,
            instr=instr,
        )

    @property
    def opf(self) -> int:
        """Flex sub-opcode, recovered from the DECODE field."""
        return (self.decode >> 3) & 0x1FF

    @property
    def is_load(self) -> bool:
        return bool(self.decode & 1)

    @property
    def is_store(self) -> bool:
        return bool(self.decode & 2)

    @property
    def access_size(self) -> int:
        return (self.decode >> 12) & 0xF

    @property
    def carry_in(self) -> bool:
        """Incoming carry flag (pre-instruction), for addx/subx checks."""
        return bool(self.decode & (1 << 16))
