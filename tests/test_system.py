"""Full-system integration: baseline runs, monitored runs, timing
invariants, the READ_STATUS round trip."""

import pytest

from repro.core.executor import SimulationError
from repro.extensions import create_extension
from repro.flexcore import FlexCoreSystem, SystemConfig, run_program
from repro.isa import assemble

COUNT_PROGRAM = """
        .text
start:  clr     %o0
        set     100, %o1
loop:   add     %o0, 1, %o0
        subcc   %o1, 1, %o1
        bne     loop
        nop
        set     result, %g1
        st      %o0, [%g1]
        ta      0
        nop
        .data
result: .word   0
"""


class TestBaseline:
    def test_run_to_completion(self):
        result = run_program(assemble(COUNT_PROGRAM, entry="start"))
        assert result.halted
        assert result.word("result") == 100
        assert result.interface_stats is None

    def test_cycles_at_least_instructions(self):
        result = run_program(assemble(COUNT_PROGRAM, entry="start"))
        assert result.cycles >= result.instructions

    def test_instruction_limit(self):
        program = assemble("""
        .text
start:  ba      start
        nop
""", entry="start")
        with pytest.raises(SimulationError, match="limit"):
            run_program(program, max_instructions=1000)

    def test_cpi_positive(self):
        result = run_program(assemble(COUNT_PROGRAM, entry="start"))
        assert 1.0 <= result.cpi < 5.0


class TestMonitoredRuns:
    @pytest.mark.parametrize("name", ["umc", "dift", "bc", "sec"])
    def test_extension_does_not_change_results(self, name):
        program = assemble(COUNT_PROGRAM, entry="start")
        baseline = run_program(program)
        monitored = run_program(program, create_extension(name))
        assert monitored.word("result") == baseline.word("result")

    @pytest.mark.parametrize("name", ["umc", "dift", "bc", "sec"])
    def test_monitoring_never_speeds_up(self, name):
        program = assemble(COUNT_PROGRAM, entry="start")
        baseline = run_program(program)
        monitored = run_program(program, create_extension(name))
        assert monitored.cycles >= baseline.cycles

    @pytest.mark.parametrize("ratio", [1.0, 0.5, 0.25])
    def test_slower_fabric_never_faster(self, ratio):
        program = assemble(COUNT_PROGRAM, entry="start")
        fast = run_program(program, create_extension("dift"),
                           clock_ratio=1.0)
        slow = run_program(program, create_extension("dift"),
                           clock_ratio=ratio)
        assert slow.cycles >= fast.cycles

    def test_bigger_fifo_never_slower(self):
        program = assemble(COUNT_PROGRAM, entry="start")
        small = run_program(program, create_extension("sec"),
                            clock_ratio=0.25, fifo_depth=8)
        big = run_program(program, create_extension("sec"),
                          clock_ratio=0.25, fifo_depth=256)
        assert big.cycles <= small.cycles

    def test_committed_equals_instructions(self):
        program = assemble(COUNT_PROGRAM, entry="start")
        result = run_program(program, create_extension("dift"))
        assert result.interface_stats.committed == result.instructions

    def test_forwarded_plus_ignored_plus_dropped_covers_commits(self):
        program = assemble(COUNT_PROGRAM, entry="start")
        result = run_program(program, create_extension("umc"))
        stats = result.interface_stats
        annulled = stats.committed - (
            stats.forwarded + stats.ignored + stats.dropped
        )
        assert annulled >= 0  # remainder is annulled delay slots


class TestReadStatus:
    def test_status_read_into_register(self):
        program = assemble("""
        .text
start:  fxstatus %o0
        set     result, %g1
        st      %o0, [%g1]
        ta      0
        nop
        .data
result: .word   0
""", entry="start")
        result = run_program(program, create_extension("sec"))
        assert result.word("result") == 0

    def test_status_read_stalls_for_ack(self):
        source = """
        .text
start:  fxstatus %o0
        ta      0
        nop
"""
        program = assemble(source, entry="start")
        result = run_program(program, create_extension("sec"),
                             clock_ratio=0.25)
        assert result.interface_stats.ack_stall_cycles > 0


class TestTrapHandling:
    def test_stop_on_trap_default(self):
        program = assemble("""
        .text
start:  set     0x20000, %g1
        ld      [%g1], %o0
        set     result, %g2
        mov     1, %o1
        st      %o1, [%g2]
        ta      0
        nop
        .data
result: .word   0
""", entry="start")
        result = run_program(program, create_extension("umc"))
        assert result.trap is not None
        assert not result.halted  # terminated by the monitor

    def test_continue_past_trap_when_configured(self):
        config = SystemConfig()
        config.stop_on_trap = False
        program = assemble("""
        .text
start:  set     0x20000, %g1
        ld      [%g1], %o0
        ta      0
        nop
""", entry="start")
        system = FlexCoreSystem(program, create_extension("umc"), config)
        result = system.run()
        assert result.halted
        assert result.trap is not None  # recorded but not fatal


class TestDeterminism:
    def test_same_run_same_cycles(self):
        program = assemble(COUNT_PROGRAM, entry="start")
        first = run_program(program, create_extension("dift"))
        second = run_program(program, create_extension("dift"))
        assert first.cycles == second.cycles
        assert first.instructions == second.instructions


class TestConfigValidation:
    @pytest.mark.parametrize("extension", [None, "sec"])
    @pytest.mark.parametrize("kwargs", [
        {"clock_ratio": 2.0}, {"clock_ratio": 0}, {"clock_ratio": -1},
        {"fifo_depth": 0}, {"fifo_depth": -1},
    ])
    def test_run_program_rejects_bad_interface_values(self, kwargs,
                                                      extension):
        program = assemble(COUNT_PROGRAM, entry="start")
        monitor = create_extension(extension) if extension else None
        with pytest.raises(ValueError):
            run_program(program, monitor, **kwargs)

    @pytest.mark.parametrize("ratio", [2.0, 0, -1])
    def test_ratio_mutated_after_validation_fails_at_construction(
            self, ratio):
        """A ratio poked past ``InterfaceConfig``'s own checks is
        caught when the interface fixes its fabric clock, before any
        instruction runs."""
        config = SystemConfig()
        config.interface.clock_ratio = ratio
        program = assemble(COUNT_PROGRAM, entry="start")
        with pytest.raises(ValueError, match="clock ratio"):
            FlexCoreSystem(program, create_extension("dift"), config)
