"""Datapath + cycle-time tests: the prose anchors of Table 6."""

from dataclasses import replace

import pytest

from repro.errors import TimingError
from repro.timing import DEFAULT_TECHNOLOGY, build_cpu_datapath, cycle_time_ns
from repro.timing.analyzer import TimingAnalyzer
from repro.timing.cycle_time import (
    PAPER_DEPTHS,
    PAPER_SIZES_KW,
    cycle_time_result,
    cycle_time_table,
)
from repro.timing.sram import cache_access_time_ns


class TestDatapath:
    def test_depth_zero_has_single_latch(self):
        circuit = build_cpu_datapath(7.0, 0)
        assert set(circuit.latches) == {"alu"}
        assert len(circuit.paths) == 2  # ALU loop + combinational access

    def test_depth_two_structure(self):
        circuit = build_cpu_datapath(7.0, 2)
        assert set(circuit.latches) == {"alu", "addr", "cache1", "cache2"}

    def test_cache_loop_total_delay(self):
        tech = DEFAULT_TECHNOLOGY
        depth = 3
        circuit = build_cpu_datapath(9.0, depth, tech)
        loop = [p for p in circuit.paths if "alu" not in (p.source, p.target)]
        total = sum(p.delay_ns for p in loop)
        expected = tech.alu_add_ns + 9.0 + (depth + 1) * tech.latch_overhead_ns
        assert total == pytest.approx(expected)

    def test_invalid_depth(self):
        with pytest.raises(TimingError):
            build_cpu_datapath(7.0, 4)
        with pytest.raises(TimingError):
            build_cpu_datapath(7.0, -1)

    def test_invalid_access_time(self):
        with pytest.raises(TimingError):
            build_cpu_datapath(0.0, 1)


class TestCycleTimeAnchors:
    """The paper's stated Table 6 facts."""

    def test_floor_is_alu_loop(self):
        # "The minimum cycle time (3.5 ns) ... is the time required to add
        # two integer operands (2.1 ns) and feed the result back (1.4 ns)."
        assert cycle_time_ns(1, 3) == pytest.approx(3.5, abs=0.01)

    def test_depth_zero_exceeds_ten_ns(self):
        # "for a pipeline depth of 0 the L1-I and L1-D caches limit t_CPU
        # to more than 10 ns"
        for size in PAPER_SIZES_KW:
            assert cycle_time_ns(size, 0) > 10.0

    def test_depth_three_alu_critical_everywhere(self):
        # "When the pipeline depth ... increased to 3, the feedback loop
        # around the ALU is critical for all cache sizes."
        for size in PAPER_SIZES_KW:
            result = cycle_time_result(size, 3)
            assert result.alu_critical
            assert result.cycle_ns == pytest.approx(3.5, abs=0.01)

    def test_depth_two_alu_critical_for_small_caches(self):
        assert cycle_time_result(8, 2).alu_critical
        assert not cycle_time_result(32, 2).alu_critical

    def test_unpipelined_at_most_six_times_add(self):
        # "t_CPU can be up to five times the integer-addition delay."
        worst = max(cycle_time_ns(size, 0) for size in PAPER_SIZES_KW)
        assert worst / DEFAULT_TECHNOLOGY.alu_add_ns < 6.5

    def test_cycle_time_decreases_with_depth(self):
        for size in (1, 8, 32):
            times = [cycle_time_ns(size, d) for d in PAPER_DEPTHS]
            # Tolerance covers the analyzer's binary-search resolution.
            assert all(a >= b - 1e-3 for a, b in zip(times, times[1:]))

    def test_cycle_time_increases_with_size(self):
        for depth in (0, 1):
            times = [cycle_time_ns(size, depth) for size in PAPER_SIZES_KW]
            assert all(a <= b + 1e-6 for a, b in zip(times, times[1:]))

    def test_deep_pipeline_matches_borrowed_formula(self):
        # Optimized clocking: T = (t_addr + t_L1 + (d+1)*o) / (d+1),
        # floored by the ALU loop.
        tech = DEFAULT_TECHNOLOGY
        size, depth = 32, 2
        access = cache_access_time_ns(size)
        expected = (tech.alu_add_ns + access + (depth + 1) * tech.latch_overhead_ns) / (
            depth + 1
        )
        assert cycle_time_ns(size, depth) == pytest.approx(
            max(expected, 3.5), abs=0.01
        )

    def test_table_covers_grid(self):
        table = cycle_time_table()
        assert len(table) == len(PAPER_SIZES_KW) * len(PAPER_DEPTHS)
        assert all(result.cycle_ns >= 3.5 - 1e-6 for result in table.values())


def _fresh_cycle_time(size_kw, depth, tech=DEFAULT_TECHNOLOGY):
    """One uncached ``minTcpu`` binary search."""
    access = cache_access_time_ns(size_kw, tech)
    return TimingAnalyzer(build_cpu_datapath(access, depth, tech)).min_cycle_time()


class TestCycleTimeMemo:
    def test_memo_equals_a_fresh_analysis_over_table6(self):
        for size in PAPER_SIZES_KW:
            for depth in PAPER_DEPTHS:
                fresh = _fresh_cycle_time(size, depth)
                assert cycle_time_ns(size, depth) == fresh
                hits = cycle_time_ns.cache_info().hits
                assert cycle_time_ns(size, depth) == fresh
                assert cycle_time_ns.cache_info().hits == hits + 1

    def test_technology_is_part_of_the_key(self):
        slow = replace(DEFAULT_TECHNOLOGY, sram_access_ns=10.0)
        default = cycle_time_ns(32, 1)
        slowed = cycle_time_ns(32, 1, slow)
        assert slowed == _fresh_cycle_time(32, 1, slow)
        assert slowed > default
        assert cycle_time_ns(32, 1) == default
