"""The co-processing model (Section II of the paper).

A monitoring extension is characterised by three things:

* *meta-data* — tags for registers (the fabric's shadow register
  file) and/or memory words (behind the meta-data cache);
* *transparent operations* — performed on every forwarded trace
  packet without software involvement (propagate, check, update);
* *software-visible operations* — explicit co-processor instructions
  (set/clear tags, set policy, read status) and the exception (TRAP).

:class:`MonitorExtension` is the public API for writing extensions;
the four prototypes of the paper (UMC, DIFT, BC, SEC) subclass it, and
`examples/custom_monitor.py` shows a fifth, user-defined one.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.flexcore.cfgr import ForwardConfig
from repro.flexcore.packet import TracePacket
from repro.flexcore.shadow import ShadowRegisterFile, TagStore
from repro.isa.opcodes import FlexOpf
from repro.telemetry.metrics import NULL_METRICS

#: Default base address of the meta-data region.  It is disjoint from
#: program text/data/stack, which is what lets the architecture skip
#: coherence between the main L1s and the meta-data L1 (Section III-D).
DEFAULT_META_BASE = 0x4000_0000


@dataclass(frozen=True)
class MonitorTrap:
    """An exception raised by the co-processor (the TRAP signal)."""

    extension: str
    kind: str
    pc: int
    addr: int = 0
    message: str = ""

    def __str__(self) -> str:
        where = f" addr={self.addr:#x}" if self.addr else ""
        return (
            f"[{self.extension}] {self.kind} at pc={self.pc:#x}{where}: "
            f"{self.message}"
        )


class MetaAccess(NamedTuple):
    """One meta-data cache access caused by a packet."""

    kind: str  # "read" | "write"
    addr: int  # byte address in the meta-data region
    mask: int = 0xFFFFFFFF  # 32-bit write-enable mask for writes


@dataclass
class PacketOutcome:
    """Result of processing one trace packet on the fabric."""

    #: initiation interval: fabric cycles before the next packet can
    #: be accepted (meta-data cache misses add on top of this).
    fabric_cycles: int = 1
    meta_accesses: list[MetaAccess] = field(default_factory=list)
    trap: MonitorTrap | None = None

    def read(self, addr: int) -> "PacketOutcome":
        self.meta_accesses.append(MetaAccess("read", addr))
        return self

    def write(self, addr: int, mask: int = 0xFFFFFFFF) -> "PacketOutcome":
        self.meta_accesses.append(MetaAccess("write", addr, mask))
        return self


class MonitorExtension(abc.ABC):
    """Base class for instruction-grained monitoring extensions."""

    #: short identifier ("umc", "dift", ...), set by subclasses.
    name: str = "base"
    #: human description for reports.
    description: str = ""
    #: shadow register tag width (0 = extension keeps no register tags).
    register_tag_bits: int = 0
    #: memory tag width per 32-bit word (0 = no memory meta-data).
    memory_tag_bits: int = 0

    def __init__(self, meta_base: int = DEFAULT_META_BASE):
        self.meta_base = meta_base
        self.shadow: ShadowRegisterFile | None = None
        self.mem_tags: TagStore | None = None
        if self.memory_tag_bits:
            self.mem_tags = TagStore(self.memory_tag_bits, meta_base)
        self.tagval = 1  # latch written by FlexOpf.SET_TAGVAL
        self.policy = self.default_policy()
        self.traps_seen = 0
        #: metrics sink (the system swaps in a live registry when a
        #: telemetry bundle is attached); not monitor state, so it is
        #: never part of a snapshot.
        self.metrics = NULL_METRICS

    # -- construction hooks -------------------------------------------------

    def attach(self, num_physical_registers: int) -> None:
        """Size the shadow register file to the attached core."""
        if self.register_tag_bits:
            self.shadow = ShadowRegisterFile(
                num_physical_registers, self.register_tag_bits
            )

    def default_policy(self) -> int:
        """Initial value of the extension's policy register."""
        return 0

    def on_program_load(self, program, stack_top: int) -> None:
        """Called after the loader copies the program image; lets the
        extension pre-tag loader-initialised memory (e.g. UMC)."""

    # -- the co-processing model --------------------------------------------

    @abc.abstractmethod
    def forward_config(self) -> ForwardConfig:
        """The CFGR setting this extension programs at boot."""

    @abc.abstractmethod
    def process(self, packet: TracePacket) -> PacketOutcome:
        """Transparent per-packet operation: bookkeeping + checks."""

    @abc.abstractmethod
    def hardware(self):
        """Structural description for the area/power/frequency models.

        Returns a :class:`repro.fabric.logic.LogicNetwork`.
        """

    # -- snapshot/restore (crash-safe checkpointing) ------------------------

    def snapshot_state(self) -> dict:
        """Capture the extension's full monitor state: the base-class
        latches, the shadow register file, the memory tag store, and
        whatever :meth:`extra_state` the subclass keeps."""
        return {
            "meta_base": self.meta_base,
            "tagval": self.tagval,
            "policy": self.policy,
            "traps_seen": self.traps_seen,
            "shadow": (
                self.shadow.snapshot_state()
                if self.shadow is not None else None
            ),
            "mem_tags": (
                self.mem_tags.snapshot_state()
                if self.mem_tags is not None else None
            ),
            "extra": self.extra_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.meta_base = state["meta_base"]
        self.tagval = state["tagval"]
        self.policy = state["policy"]
        self.traps_seen = state["traps_seen"]
        if self.shadow is not None:
            self.shadow.restore_state(state["shadow"])
        if self.mem_tags is not None:
            self.mem_tags.restore_state(state["mem_tags"])
        self.load_extra_state(state["extra"])

    def extra_state(self) -> dict:
        """Subclass hook: additional monitor state to checkpoint (e.g.
        SEC's error counter, the shadow stack's entries).  Values must
        be plain data (ints, strs, lists, dicts, bytes)."""
        return {}

    def load_extra_state(self, state: dict) -> None:
        """Subclass hook: restore what :meth:`extra_state` captured."""

    # -- software-visible operations ----------------------------------------

    def status_word(self) -> int:
        """Value returned by the 'read from co-processor' instruction."""
        return self.traps_seen & 0xFFFFFFFF

    def handle_flex(self, packet: TracePacket) -> PacketOutcome:
        """Default handling of the extension-independent flex ops.

        Subclasses call this from :meth:`process` for FLEX packets and
        then layer their own tag ops on top.
        """
        outcome = PacketOutcome()
        opf = packet.opf
        if opf == FlexOpf.SET_BASE:
            self.meta_base = packet.srcv1
            if self.mem_tags is not None:
                self.mem_tags.base = packet.srcv1
        elif opf == FlexOpf.SET_POLICY:
            self.policy = packet.srcv1
        elif opf == FlexOpf.SET_TAGVAL:
            self.tagval = packet.srcv1
        return outcome

    def trap(
        self, packet: TracePacket, kind: str, message: str, addr: int = 0
    ) -> MonitorTrap:
        """Record and return a monitor trap for this packet."""
        self.traps_seen += 1
        self.metrics.counter(f"monitor.{self.name}.traps.{kind}").inc()
        return MonitorTrap(
            extension=self.name,
            kind=kind,
            pc=packet.pc,
            addr=addr,
            message=message,
        )
