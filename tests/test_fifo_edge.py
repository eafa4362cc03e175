"""DecouplingFifo edge cases: drop accounting, occupancy high-water
mark, and drain behaviour at exact boundary timestamps."""

import pytest

from repro.flexcore.cfgr import ForwardPolicy
from repro.flexcore.fifo import DecouplingFifo
from repro.isa.opcodes import InstrClass
from tests.test_interface import load_record, make_interface


class TestDropAccounting:
    def test_best_effort_drops_counted_in_fifo_stats(self):
        """A BEST_EFFORT packet rejected while full is accounted by
        the FIFO's own stats, not just the interface's."""
        interface = make_interface(ratio=0.25, depth=1)
        interface.cfgr.set(InstrClass.LOAD_WORD, ForwardPolicy.BEST_EFFORT)
        now = 0.0
        for i in range(6):
            now = interface.on_commit(load_record(addr=0x20000 + 4 * i),
                                      now + 1)
        assert interface.fifo.stats.dropped > 0
        assert interface.fifo.stats.dropped == interface.stats.dropped
        # drops never enqueue: enqueued + dropped covers every attempt.
        assert (interface.fifo.stats.enqueued
                + interface.fifo.stats.dropped) == 6

    def test_no_drops_while_space_remains(self):
        fifo = DecouplingFifo(4)
        for t in range(4):
            fifo.push(t, t + 100)
        assert fifo.stats.dropped == 0
        assert fifo.stats.enqueued == 4


class TestMaxOccupancy:
    def test_high_water_mark_tracks_peak_not_current(self):
        fifo = DecouplingFifo(8)
        fifo.push(0, 10)
        fifo.push(0, 11)
        fifo.push(0, 12)
        assert fifo.stats.max_occupancy == 3
        assert fifo.occupancy(11) == 1  # two drained...
        assert fifo.stats.max_occupancy == 3  # ...peak unchanged

    def test_high_water_mark_saturates_at_depth(self):
        fifo = DecouplingFifo(2)
        fifo.push(0, 5)
        fifo.push(0, 6)
        assert fifo.is_full(0)
        with pytest.raises(OverflowError):
            fifo.push(0, 7)
        assert fifo.stats.max_occupancy == 2

    def test_reset_clears_stats_and_entries(self):
        fifo = DecouplingFifo(2)
        fifo.push(0, 5)
        fifo.reset()
        assert fifo.occupancy(0) == 0
        assert fifo.stats.enqueued == 0
        assert fifo.stats.max_occupancy == 0


class TestBoundaryDrain:
    def test_entry_gone_at_exact_drain_timestamp(self):
        """Drain times are inclusive: at t == drain_time the slot is
        free (the fabric clock edge has passed)."""
        fifo = DecouplingFifo(1)
        fifo.push(0, 10)
        assert fifo.occupancy(9) == 1
        assert fifo.is_full(9)
        assert fifo.occupancy(10) == 0
        assert not fifo.is_full(10)

    def test_time_until_space_at_boundary(self):
        fifo = DecouplingFifo(1)
        fifo.push(0, 10)
        assert fifo.time_until_space(4) == 6
        assert fifo.time_until_space(10) == 0  # exactly free now

    def test_time_until_space_zero_exactly_when_a_slot_is_free(self):
        for now in (4, 9, 10, 11):
            fifo = DecouplingFifo(1)
            fifo.push(0, 10)
            free = fifo.occupancy(now) < fifo.depth
            assert (fifo.time_until_space(now) == 0) == free

    def test_push_into_full_fifo_raises_without_prior_check(self):
        fifo = DecouplingFifo(1)
        fifo.push(0, 10)
        with pytest.raises(OverflowError):
            fifo.push(9, 12)
        fifo.push(10, 12)  # the push itself drains the slot freed at 10
        assert fifo.stats.enqueued == 2

    def test_push_at_freed_boundary_slot(self):
        fifo = DecouplingFifo(1)
        fifo.push(0, 10)
        fifo.push(10, 20)  # legal: the first entry drained at t=10
        assert fifo.stats.enqueued == 2
        assert fifo.stats.max_occupancy == 1

    def test_drain_time_before_enqueue_rejected(self):
        fifo = DecouplingFifo(4)
        with pytest.raises(ValueError, match="drain time"):
            fifo.push(10, 9)

    def test_drained_by_is_last_entry(self):
        fifo = DecouplingFifo(4)
        fifo.push(0, 7)
        fifo.push(0, 13)
        assert fifo.drained_by() == 13
        fifo.occupancy(20)  # everything drained
        assert fifo.drained_by() == 0
