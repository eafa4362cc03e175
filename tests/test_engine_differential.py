"""Differential proof of the fast engine.

For any program, extension, and watchdog configuration the fused
predecoded loop (``engine="fast"``) must be observationally identical
to the reference loop: same ``run_digest``, same trap/error strings,
same termination, same recovery count — and the same architectural
state afterwards (registers, memory, caches, FIFO, monitor meta-data),
which the timing counts in a digest cannot see.  Five layers:

* a hypothesis property over random programs (ALU/memory/branch mixes,
  annulled delay slots, undecodable words) under a drawn extension;
* the full paper matrix — six workloads under every shipped extension
  including the MDL-compiled specs — at the experiment configuration;
* mid-run checkpoint/restore and rollback recovery under each fused
  engine, including restoring a fused-engine snapshot into a
  reference-loop run;
* directed adversaries: self-modifying stores that patch a
  straight-line run from inside it, code rewritten outside ``.text``,
  traps raised mid-run, undecodable words, and checkpoint boundaries
  at a prime stride;
* packet streams: every trace packet handed to the extension, on all
  its fields, including those no shipped monitor reads (digests cannot
  see a field the extension ignores);
* telemetry: with a metrics registry, and with a tracer as well, the
  fused engine still runs and records the reference loop's metrics
  snapshot and event stream, event for event.
"""

import dataclasses
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import SystemSnapshot
from repro.evaluation.config import (
    FLEXCORE_RATIOS,
    experiment_system_config,
)
from repro.extensions import EXTENSION_NAMES, create_extension
from repro.flexcore.cfgr import ForwardPolicy
from repro.flexcore.system import (
    ENGINES,
    FlexCoreSystem,
    RunResult,
    Termination,
)
from repro.isa.assembler import assemble
from repro.isa.opcodes import ALU_CLASSES, InstrClass
from repro.mdl import load_spec, shipped_specs
from repro.telemetry import DEFAULT_CAPACITY, Telemetry
from repro.telemetry.summary import result_fingerprint, run_digest
from repro.workloads import build_workload, workload_names

MASK32 = 0xFFFFFFFF

OPS = {
    "add": None, "addcc": None, "sub": None, "subcc": None,
    "and": None, "or": None, "xor": None, "andn": None,
    "xnor": None, "sll": None, "srl": None, "sra": None,
    "umul": None, "smul": None,
}

# Registers the generator may clobber (avoid %g0/%sp/%fp/%o7).
REGS = ["%g1", "%g2", "%g3", "%o0", "%o1", "%o2", "%l0", "%l1",
        "%l2", "%l3", "%i0", "%i1"]

#: extension specs; "mdl:<name>" instantiates a shipped MDL spec.
MATRIX_EXTENSIONS = (
    (None,) + tuple(EXTENSION_NAMES)
    + tuple(f"mdl:{name}" for name in sorted(shipped_specs()))
)


def _make_extension(spec):
    if spec is None:
        return None
    if spec.startswith("mdl:"):
        return load_spec(shipped_specs()[spec[4:]]).create()
    return create_extension(spec)


def _fabric_ratio(spec):
    name = spec[4:] if spec and spec.startswith("mdl:") else spec
    return FLEXCORE_RATIOS.get(name, 0.5)


class Run(NamedTuple):
    """One engine's run: its result and the system state after it."""

    result: RunResult
    state: dict


def _run_one(program, spec, engine, config=None, **bounded_kwargs):
    # run_bounded never raises for an in-simulation fault (a bad word,
    # a misaligned access, ...), so any exception here fails the test.
    system = FlexCoreSystem(program, _make_extension(spec), config)
    result = system.run_bounded(engine=engine, **bounded_kwargs)
    return Run(result, system.snapshot_state())


def _assert_identical(reference: Run, fused: Run):
    ref, got = reference.result, fused.result
    assert ref.engine == "reference"
    assert result_fingerprint(got) == result_fingerprint(ref)
    assert run_digest(got) == run_digest(ref)
    assert str(got.trap) == str(ref.trap)
    # The diagnosis carries the error's pc, instruction, instret and
    # cycle, which a campaign's crash report quotes.
    assert ((got.error and got.error.diagnosis())
            == (ref.error and ref.error.diagnosis()))
    assert got.termination == ref.termination
    assert fused.state == reference.state


# ---------------------------------------------------------------------------
# Layer 1: random programs.


_REG_INDEX = st.integers(0, len(REGS) - 1)
_BUF_OFFSET = st.integers(0, 15).map(lambda w: w * 4)

_ALU = st.tuples(
    st.just("alu"),
    st.sampled_from(sorted(OPS)),
    _REG_INDEX,
    st.one_of(_REG_INDEX,
              st.integers(-4096, 4095).map(lambda i: ("imm", i))),
    _REG_INDEX,
)
_STORE = st.tuples(st.just("st"), _REG_INDEX, _BUF_OFFSET)
_LOAD = st.tuples(st.just("ld"), _BUF_OFFSET, _REG_INDEX)
#: compare-and-skip with an annulled delay slot: exercises the fused
#: branch handler's annul path both taken and untaken.
_SKIP = st.tuples(st.just("skip"), _REG_INDEX, _REG_INDEX)


@st.composite
def monitored_programs(draw):
    seeds = draw(st.lists(st.integers(0, MASK32), min_size=4,
                          max_size=4))
    ops = draw(st.lists(st.one_of(_ALU, _STORE, _LOAD, _SKIP),
                        min_size=1, max_size=24))
    loops = draw(st.integers(1, 3))
    # An undecodable word in place of the halt: both engines must
    # end the run with the same SimulationError when it is reached.
    bad_tail = draw(st.sampled_from((False, False, False, True)))
    extension = draw(st.sampled_from((None, "umc", "dift", "bc")))
    return seeds, ops, loops, bad_tail, extension


def _emit(seeds, ops, loops, bad_tail):
    lines = [
        "        .text",
        "start:",
        "        set     buf, %g4",
        f"        mov     {loops}, %g5",
    ]
    for i, seed in enumerate(seeds):
        lines.append(f"        set     {seed:#x}, {REGS[i]}")
    lines.append("loop:")
    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "alu":
            _, mnemonic, rs1, src2, rd = op
            operand = (str(src2[1]) if isinstance(src2, tuple)
                       else REGS[src2])
            lines.append(f"        {mnemonic:7s} {REGS[rs1]}, "
                         f"{operand}, {REGS[rd]}")
        elif kind == "st":
            _, rs, offset = op
            lines.append(f"        st      {REGS[rs]}, "
                         f"[%g4 + {offset}]")
        elif kind == "ld":
            _, offset, rd = op
            lines.append(f"        ld      [%g4 + {offset}], "
                         f"{REGS[rd]}")
        else:
            _, rs1, rs2 = op
            lines.append(f"        subcc   {REGS[rs1]}, {REGS[rs2]}, "
                         "%g0")
            lines.append(f"        be,a    skip{index}")
            lines.append(f"        add     {REGS[rs1]}, 1, "
                         f"{REGS[rs2]}")
            lines.append(f"skip{index}:")
    lines += [
        "        subcc   %g5, 1, %g5",
        "        bne     loop",
        "        nop",
    ]
    if bad_tail:
        lines.append("        .word   0x00000000")
    else:
        lines += ["        ta      0", "        nop"]
    lines += ["        .data", "buf:    .space  64"]
    return assemble("\n".join(lines), entry="start")


FUSED_ENGINES = tuple(engine for engine in ENGINES
                      if engine != "reference")


@settings(max_examples=50, deadline=None)
@given(monitored_programs())
def test_random_programs_bit_identical(case):
    seeds, ops, loops, bad_tail, extension = case
    program = _emit(seeds, ops, loops, bad_tail)
    reference = _run_one(program, extension, "reference",
                         max_instructions=20_000)
    for engine in FUSED_ENGINES:
        fused = _run_one(program, extension, engine,
                         max_instructions=20_000)
        assert fused.result.engine == engine
        _assert_identical(reference, fused)


# ---------------------------------------------------------------------------
# Layer 2: the paper matrix, MDL specs included.


@pytest.mark.parametrize(
    "extension", MATRIX_EXTENSIONS,
    ids=[spec or "baseline" for spec in MATRIX_EXTENSIONS],
)
@pytest.mark.parametrize("workload", workload_names())
def test_paper_workloads_bit_identical(workload, extension):
    program = build_workload(workload, 0.125).build()
    config = experiment_system_config(
        clock_ratio=_fabric_ratio(extension))
    runs = {engine: _run_one(program, extension, engine, config)
            for engine in ENGINES}
    for engine in FUSED_ENGINES:
        assert runs[engine].result.engine == engine
        assert runs[engine].result.halted
        _assert_identical(runs["reference"], runs[engine])


# ---------------------------------------------------------------------------
# Layer 3: checkpoint/restore and recovery under the fused engines.


@pytest.mark.parametrize("engine", FUSED_ENGINES)
def test_fused_engine_checkpoint_restore_round_trip(engine):
    program = build_workload("bitcount", 0.125).build()

    captured = []
    system = FlexCoreSystem(program, create_extension("umc"))
    checkpointed = system.run_bounded(
        engine=engine, checkpoint_every=2_000,
        on_checkpoint=lambda s, state: captured.append(
            SystemSnapshot.from_state(s, state)
        ),
    )
    assert checkpointed.engine == engine
    assert checkpointed.halted
    assert captured, "run too short to checkpoint"

    uninterrupted = _run_one(program, "umc", "reference").result
    assert (result_fingerprint(checkpointed)
            == result_fingerprint(uninterrupted))

    snapshot = captured[len(captured) // 2]
    for resume_engine in (engine, "reference"):
        resumed_system = FlexCoreSystem(program,
                                        create_extension("umc"))
        snapshot.restore_into(resumed_system)
        resumed = resumed_system.run_bounded(engine=resume_engine)
        assert resumed.engine == resume_engine
        assert (result_fingerprint(resumed)
                == result_fingerprint(uninterrupted))


_TRAPPING_SOURCE = """
        .text
start:
        set     0x20000, %g1       ! outside the loaded image
        mov     7, %g2
        st      %g2, [%g1]
        ld      [%g1 + 8], %g3     ! never written -> UMC trap
        ta      0
        nop
"""


@pytest.mark.parametrize("engine", FUSED_ENGINES)
def test_rollback_recovery_bit_identical(engine):
    program = assemble(_TRAPPING_SOURCE, entry="start")
    kwargs = dict(checkpoint_every=2, recover=True, recovery_limit=3)
    reference = _run_one(program, "umc", "reference", **kwargs)
    fused = _run_one(program, "umc", engine, **kwargs)
    assert fused.result.engine == engine
    assert reference.result.recoveries == fused.result.recoveries > 0
    _assert_identical(reference, fused)


# ---------------------------------------------------------------------------
# Layer 4: directed adversaries.


def _patch_word(source: str) -> int:
    """Assemble a one-instruction text and return its encoded word."""
    program = assemble(f"        .text\nw:\n        {source}\n",
                       entry="w")
    return program.text[0]


_SELF_MODIFYING_TEMPLATE = """
        .text
start:
        set     patch_word, %g6
        ld      [%g6], %g1         ! replacement instruction word
        set     target, %g2
        mov     6, %g5
loop:
        add     %g0, 5, %g3        ! straight-line run containing...
target:
        add     %g3, 1, %g3        ! ...the word the store rewrites
        add     %g3, 3, %o0
        xor     %o0, %g3, %o1
        st      %g1, [%g2]         ! patch the block we are inside
        subcc   %g5, 1, %g5
        bne     loop
        nop
        ta      0
        nop
        .data
patch_word:
        .word   {word:#x}
"""


@pytest.mark.parametrize("extension", (None, "umc", "dift"))
def test_self_modifying_store_inside_own_block(extension):
    """A store whose target word belongs to the straight-line run
    being executed must drop that word's predecoded handler; the
    patched instruction takes effect on the next loop iteration
    exactly as in the reference."""
    word = _patch_word("add     %g3, 2, %g3")
    program = assemble(
        _SELF_MODIFYING_TEMPLATE.format(word=word), entry="start")
    reference = _run_one(program, extension, "reference",
                         max_instructions=20_000)
    for engine in FUSED_ENGINES:
        fused = _run_one(program, extension, engine,
                         max_instructions=20_000)
        _assert_identical(reference, fused)


_MIDBLOCK_TRAP_SOURCE = """
        .text
start:
        set     0x20000, %g1       ! outside the loaded image
        mov     7, %g2
        st      %g2, [%g1]
        add     %g2, 1, %g3        ! straight-line run: the trapping
        add     %g3, 1, %g4        ! load sits mid-run, with live
        ld      [%g1 + 8], %g5     ! instructions after it (UMC trap)
        add     %g5, 1, %g6
        add     %g6, 1, %o0
        ta      0
        nop
"""


def test_trap_raised_mid_block_stops_identically():
    """A monitor trap latched mid-way through a straight-line run
    must stop it immediately — the instructions after it never
    execute, matching the reference loop's per-instruction trap
    check."""
    program = assemble(_MIDBLOCK_TRAP_SOURCE, entry="start")
    reference = _run_one(program, "umc", "reference")
    assert reference.result.trap is not None
    for engine in FUSED_ENGINES:
        fused = _run_one(program, "umc", engine)
        assert fused.result.trap is not None
        _assert_identical(reference, fused)


_DATA_CODE_TEMPLATE = """
        .text
start:
        set     stub, %g6
        set     out, %g7
        set     {first:#x}, %g2
        st      %g2, [%g6]         ! write an instruction into .data
        call    stub
        nop
        st      %o0, [%g7]
        set     {second:#x}, %g2
        set     {retl:#x}, %g3
        {rewrite}                  ! rewrite it after it has run
        call    stub
        nop
        st      %o0, [%g7 + 4]
        ta      0
        nop
        .data
        .align  8
stub:
        .word   0
        .word   {retl:#x}
        .word   {nop:#x}
out:
        .space  8
"""


@pytest.mark.parametrize("rewrite", ("st      %g2, [%g6]",
                                     "std     %g2, [%g6]"),
                         ids=("st", "std"))
@pytest.mark.parametrize("extension", (None, "umc", "dift"))
def test_code_rewritten_outside_text_re_predecodes(extension, rewrite):
    """Code the program writes into ``.data``, runs, rewrites and runs
    again must execute the new word.  The two words time alike, so
    only the final state (the values the stub returned) tells a stale
    handler from a fresh one."""
    program = assemble(_DATA_CODE_TEMPLATE.format(
        first=_patch_word("mov     11, %o0"),
        second=_patch_word("mov     22, %o0"),
        retl=_patch_word("retl"), nop=_patch_word("nop"),
        rewrite=rewrite), entry="start")
    reference = _run_one(program, extension, "reference")
    out = program.symbols["out"]
    memory = reference.result.memory
    assert (memory.read_word(out), memory.read_word(out + 4)) == (11, 22)
    for engine in FUSED_ENGINES:
        _assert_identical(reference, _run_one(program, extension, engine))


@pytest.mark.parametrize("source", (
    "        nop\n        .word   0",
    "        ba,a    skip\n        .word   0\nskip:\n        ta      0",
    "        nop\n        ldd     [%sp], %o1",
), ids=("undecodable", "undecodable-annulled", "ldd-odd-rd"))
def test_faulting_instruction_ends_run_with_error(source):
    """A faulting instruction — an undecodable word, even in an
    annulled delay slot (still fetched and decoded), or an execute-time
    fault — ends the run ``ERROR`` at its PC on every engine; it never
    escapes ``run_bounded`` as an exception."""
    program = assemble(f"        .text\nstart:\n{source}\n",
                       entry="start")
    reference = _run_one(program, "dift", "reference")
    assert reference.result.termination == Termination.ERROR
    assert reference.result.error.pc == program.text_base + 4
    assert reference.result.error.instret == 1
    for engine in FUSED_ENGINES:
        _assert_identical(reference, _run_one(program, "dift", engine))


def test_expired_deadline_stops_at_the_same_instruction():
    """A deadline that has already passed trips at the first
    wall-clock check, ``DEADLINE_STRIDE`` instructions in, on every
    engine — so even the watchdog's stopping point is comparable."""
    program = build_workload("bitcount", 0.0625).build()
    reference = _run_one(program, "umc", "reference", deadline=0.0)
    assert reference.result.termination == Termination.DEADLINE
    assert (reference.result.instructions
            == FlexCoreSystem.DEADLINE_STRIDE)
    for engine in FUSED_ENGINES:
        _assert_identical(
            reference, _run_one(program, "umc", engine, deadline=0.0))


@pytest.mark.parametrize("engine", FUSED_ENGINES)
def test_checkpoint_boundary_inside_block_bit_identical(engine):
    """A small prime checkpoint stride lands at every position of
    the program's straight-line runs and loops; both the captured
    snapshot states and the final result must equal the
    reference's."""
    program = build_workload("bitcount", 0.0625).build()

    def run(engine):
        captured = []
        system = FlexCoreSystem(program, create_extension("umc"))
        result = system.run_bounded(
            engine=engine, checkpoint_every=997,
            on_checkpoint=lambda s, state: captured.append(state),
        )
        return Run(result, system.snapshot_state()), captured

    reference, ref_states = run("reference")
    fused, fused_states = run(engine)
    assert fused.result.engine == engine
    _assert_identical(reference, fused)
    assert len(ref_states) == len(fused_states) > 0
    for ref_state, fused_state in zip(ref_states, fused_states):
        assert ref_state == fused_state


def test_record_hooks_fall_back_to_reference_loop():
    """A commit-record observer must see every record, so requesting
    a fused engine silently runs the reference loop — with, still,
    an identical digest."""
    program = build_workload("bitcount", 0.125).build()

    fast = _run_one(program, "dift", "fast").result
    assert fast.engine == "fast"

    seen = []
    system = FlexCoreSystem(program, create_extension("dift"))
    system.record_hooks.append(lambda record: seen.append(record))
    hooked = system.run_bounded(engine="fast")
    assert hooked.engine == "reference"
    assert len(seen) == hooked.instructions
    assert result_fingerprint(hooked) == result_fingerprint(fast)
    assert run_digest(hooked) == run_digest(fast)


# ---------------------------------------------------------------------------
# Layer 5: the packet stream each engine hands to the extension.


def _recorded_run(program, extension, engine, config, policy=None,
                  classes=ALU_CLASSES):
    """Run with ``extension.process`` wrapped in a recorder; return
    the run and every packet the fabric was handed, in order."""
    monitor = create_extension(extension)
    packets = []
    process = monitor.process

    def recording(packet):
        packets.append(packet)
        return process(packet)

    monitor.process = recording
    system = FlexCoreSystem(program, monitor, config)
    if policy is not None:
        system.interface.cfgr.set_classes(classes, policy)
    result = system.run_bounded(engine=engine)
    return Run(result, system.snapshot_state()), packets


def _assert_same_packets(program, extension, config, policy=None,
                         classes=ALU_CLASSES):
    reference, expected = _recorded_run(program, extension, "reference",
                                        config, policy, classes)
    assert expected, "no packets reached the fabric"
    # repr distinguishes what == would not: an InstrClass from a bare
    # int in OPCODE, a bool from an int in BRANCH.
    expected_repr = [repr(packet) for packet in expected]
    for engine in FUSED_ENGINES:
        fused, packets = _recorded_run(program, extension, engine,
                                       config, policy, classes)
        assert fused.result.engine == engine
        assert len(packets) == len(expected)
        for index, (want, got) in enumerate(zip(expected, packets)):
            assert got == want, (engine, index)  # instr included
        assert [repr(packet) for packet in packets] == expected_repr
        _assert_identical(reference, fused)
    return reference.result


@pytest.mark.parametrize("extension", ("umc", "dift", "bc", "sec"))
@pytest.mark.parametrize("workload", ("bitcount", "crc32"))
def test_packet_streams_identical(workload, extension):
    program = build_workload(workload, 0.0625).build()
    config = experiment_system_config(
        clock_ratio=FLEXCORE_RATIOS[extension])
    _assert_same_packets(program, extension, config)


def test_packet_streams_identical_with_best_effort_drops():
    program = build_workload("crc32", 0.0625).build()
    config = experiment_system_config(clock_ratio=0.25, fifo_depth=2)
    reference = _assert_same_packets(program, "sec", config,
                                     ForwardPolicy.BEST_EFFORT)
    assert reference.interface_stats.dropped > 0


def test_packet_streams_identical_with_precise_exceptions():
    program = build_workload("bitcount", 0.0625).build()
    config = experiment_system_config(clock_ratio=0.5)
    config = dataclasses.replace(config, interface=dataclasses.replace(
        config.interface, precise_exceptions=True))
    reference = _assert_same_packets(program, "dift", config)
    assert reference.interface_stats.ack_stall_cycles > 0


def test_packet_streams_identical_with_every_class_forwarded():
    """Branches are forwarded by no shipped monitor's CFGR; forward
    every class so their packets are compared too."""
    program = build_workload("bitcount", 0.0625).build()
    config = experiment_system_config(clock_ratio=0.5)
    reference = _assert_same_packets(program, "dift", config,
                                     ForwardPolicy.ALWAYS,
                                     classes=tuple(InstrClass))
    by_class = reference.interface_stats.forwarded_by_class
    assert by_class.get(InstrClass.BRANCH, 0) > 0


# ---------------------------------------------------------------------------
# Layer 6: telemetry.  Looking at a run must not change which loop runs
# it, nor what is seen: metrics and trace events are compared in full.


class Observed(NamedTuple):
    """One engine's telemetered run and what its sinks recorded."""

    run: Run
    metrics: dict
    events: list | None
    overwritten: int


def _observed_run(program, spec, engine, trace, config=None,
                  policy=None, classes=ALU_CLASSES,
                  capacity=DEFAULT_CAPACITY, **bounded_kwargs):
    telemetry = Telemetry.enabled(trace=trace, capacity=capacity)
    system = FlexCoreSystem(program, _make_extension(spec), config,
                            telemetry=telemetry)
    if policy is not None:
        system.interface.cfgr.set_classes(classes, policy)
    result = system.run_bounded(engine=engine, **bounded_kwargs)
    tracer = telemetry.tracer
    return Observed(
        Run(result, system.snapshot_state()),
        telemetry.metrics.snapshot(),
        None if tracer is None else [e.as_dict() for e in tracer.events()],
        0 if tracer is None else tracer.overwritten,
    )


def _assert_same_telemetry(program, spec, config=None, **kwargs):
    """Compare metrics-only and full-trace runs of both engines;
    return the reference's full-trace observation."""
    for trace in (False, True):
        reference = _observed_run(program, spec, "reference", trace,
                                  config, **kwargs)
        fused = _observed_run(program, spec, "fast", trace, config,
                              **kwargs)
        assert fused.run.result.engine == "fast"
        _assert_identical(reference.run, fused.run)
        assert fused.metrics == reference.metrics
        assert fused.events == reference.events
        assert fused.overwritten == reference.overwritten
    assert reference.events, "the traced run recorded nothing"
    return reference


def _event_names(observed):
    return {event["name"] for event in observed.events}


@pytest.mark.parametrize("extension", ("umc", "dift", "bc", "sec"))
@pytest.mark.parametrize("workload", ("bitcount", "crc32"))
def test_telemetry_identical(workload, extension):
    program = build_workload(workload, 0.0625).build()
    config = experiment_system_config(
        clock_ratio=FLEXCORE_RATIOS[extension])
    observed = _assert_same_telemetry(program, extension, config)
    assert observed.metrics["iface.forwarded"] > 0


def test_telemetry_identical_with_best_effort_drops():
    program = build_workload("crc32", 0.0625).build()
    config = experiment_system_config(clock_ratio=0.25, fifo_depth=2)
    observed = _assert_same_telemetry(program, "sec", config,
                                      policy=ForwardPolicy.BEST_EFFORT)
    assert observed.metrics["iface.dropped"] > 0
    assert "fifo.drop" in _event_names(observed)


def test_telemetry_identical_with_precise_exceptions():
    program = build_workload("bitcount", 0.0625).build()
    config = experiment_system_config(clock_ratio=0.5)
    config = dataclasses.replace(config, interface=dataclasses.replace(
        config.interface, precise_exceptions=True))
    observed = _assert_same_telemetry(program, "dift", config)
    assert observed.metrics["iface.ack_stall_cycles"] > 0
    assert "stall.ack" in _event_names(observed)


def test_telemetry_identical_across_rollbacks():
    """Counters keep the work of rolled-back attempts, and the
    rollback span lands where the reference loop puts it."""
    program = assemble(_TRAPPING_SOURCE, entry="start")
    observed = _assert_same_telemetry(
        program, "umc", checkpoint_every=2, recover=True,
        recovery_limit=3)
    assert observed.run.result.recoveries > 0
    assert observed.metrics["system.rollbacks"] > 0
    # The rolled-back attempts' instructions were executed too.
    assert (observed.metrics["core.instructions"]
            > observed.run.result.instructions)
    assert "monitor.rollback" in _event_names(observed)


_ANNULLED_SOURCE = """
        .text
start:
        mov     40, %g5
loop:
        subcc   %g5, 20, %g0
        bl,a    low                ! annulled slot when not taken
        add     %g1, 1, %g1
        ba,a    next               ! annulled slot, always
        add     %g2, 1, %g2
low:
        add     %g3, 1, %g3
next:
        subcc   %g5, 1, %g5
        bne     loop
        nop
        ta      0
        nop
"""


@pytest.mark.parametrize("extension", (None, "dift"))
def test_telemetry_identical_with_annulled_slots(extension):
    program = assemble(_ANNULLED_SOURCE, entry="start")
    observed = _assert_same_telemetry(program, extension)
    assert observed.metrics["core.annulled_slots"] > 0


def test_telemetry_identical_with_checkpoints():
    program = build_workload("bitcount", 0.0625).build()
    _assert_same_telemetry(program, "umc", checkpoint_every=997)


def test_telemetry_identical_when_the_ring_wraps():
    program = build_workload("crc32", 0.0625).build()
    config = experiment_system_config(clock_ratio=0.25)
    observed = _assert_same_telemetry(program, "sec", config,
                                      capacity=256)
    assert len(observed.events) == 256
    assert observed.overwritten > 0


#: two back-to-back double stores per iteration fill the store buffer,
#: so the second store of an STD stalls too.
STD_SOURCE = """
        .text
start:
        set     buf, %g1
        set     200, %o2
loop:
        std     %o0, [%g1]
        std     %o4, [%g1 + 8]
        subcc   %o2, 1, %o2
        bne     loop
        nop
        ta      0
        nop
        .data
        .align  8
buf:
        .space  16
"""


@pytest.mark.parametrize("extension", (None, "umc"))
def test_telemetry_identical_with_double_stores(extension):
    program = assemble(STD_SOURCE, entry="start")
    observed = _assert_same_telemetry(program, extension)
    assert observed.metrics["core.store_stall_cycles"] > 0
