"""Epsilon (load-use slack) analysis tests — Section 3.2."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.program.basic_block import BasicBlock
from repro.program.cfg import Procedure, Program
from repro.sched.load_schedule import (
    EPSILON_CAP,
    LoadSlackAnalysis,
    analyze_load_slack,
)
from repro.trace.compiled import CompiledProgram
from tests.isa.assembler import assemble_block


def compiled_from(text_blocks):
    blocks = [
        BasicBlock(name=f"b{i}", instructions=assemble_block(text))
        for i, text in enumerate(text_blocks)
    ]
    return CompiledProgram(
        Program(name="t", procedures=[Procedure(name="p", blocks=blocks)])
    )


class TestAnalyzeLoadSlack:
    def test_paper_example_fragment(self):
        # subu writes the address register right before the load; the addu
        # uses the result immediately: dynamic epsilon = c + d = 0 + 0.
        compiled = compiled_from(["subu r5, r5, r4\nlw r3, 100(r5)\naddu r4, r3, r2"])
        analysis = analyze_load_slack(compiled)
        assert analysis.dynamic_histogram == {0: 1}
        # Static: the load cannot move above the subu either: epsilon 0.
        assert analysis.static_histogram == {0: 1}

    def test_stable_base_has_large_dynamic_slack(self):
        compiled = compiled_from(["lw $t0, 8($gp)\naddu $t1, $t0, $t2"])
        analysis = analyze_load_slack(compiled)
        # $gp is written essentially never: dynamic c saturates the cap.
        assert list(analysis.dynamic_histogram) == [EPSILON_CAP]
        # Statically the load is already first in its block: epsilon = d = 0.
        assert analysis.static_histogram == {0: 1}

    def test_static_slack_counts_independent_prefix(self):
        compiled = compiled_from(
            ["addu $t5, $t6, $t7\naddu $a0, $a1, $a2\nlw $t0, 8($gp)\naddu $t1, $t0, $t2"]
        )
        analysis = analyze_load_slack(compiled)
        # Two independent predecessors (c=2) + immediate use (d=0).
        assert analysis.static_histogram == {2: 1}

    def test_unconsumed_load_gets_block_remainder_statically(self):
        compiled = compiled_from(["lw $t0, 8($gp)\nnop\nnop"])
        analysis = analyze_load_slack(compiled)
        assert analysis.static_histogram == {2: 1}  # d truncates at block end
        assert analysis.dynamic_histogram == {EPSILON_CAP: 1}

    def test_weighting_by_block_counts(self):
        compiled = compiled_from(
            ["lw $t0, 8($gp)\naddu $t1, $t0, $t2", "lw $t4, 8($sp)\nnop\naddu $t5, $t4, $t2"]
        )
        analysis = analyze_load_slack(compiled, block_counts=np.array([3, 1]))
        assert analysis.static_histogram == {0: 3, 1: 1}

    def test_loads_per_instruction(self):
        compiled = compiled_from(["lw $t0, 8($gp)\nnop\nnop\nnop"])
        analysis = analyze_load_slack(compiled)
        assert analysis.loads_per_instruction == pytest.approx(0.25)

    def test_mismatched_counts_rejected(self):
        compiled = compiled_from(["nop"])
        with pytest.raises(ScheduleError):
            analyze_load_slack(compiled, block_counts=np.array([1, 2]))


class TestTable5Conversions:
    @pytest.fixture
    def analysis(self):
        return LoadSlackAnalysis(
            dynamic_histogram={0: 4, 1: 11, 2: 5, EPSILON_CAP: 80},
            static_histogram={0: 21, 1: 20, 2: 18, EPSILON_CAP: 41},
            loads_per_instruction=0.25,
        )

    def test_delay_cycles_static_matches_paper_arithmetic(self, analysis):
        # With the paper's implied distribution, 1..3 slots give
        # 0.21 / 0.62 / 1.21 delay cycles per load.
        assert analysis.delay_cycles_per_load("static", 1) == pytest.approx(0.21)
        assert analysis.delay_cycles_per_load("static", 2) == pytest.approx(0.62)
        assert analysis.delay_cycles_per_load("static", 3) == pytest.approx(1.21)

    def test_delay_cycles_dynamic(self, analysis):
        assert analysis.delay_cycles_per_load("dynamic", 1) == pytest.approx(0.04)
        assert analysis.delay_cycles_per_load("dynamic", 2) == pytest.approx(0.19)
        assert analysis.delay_cycles_per_load("dynamic", 3) == pytest.approx(0.39)

    def test_cpi_increase(self, analysis):
        assert analysis.cpi_increase("static", 3) == pytest.approx(0.25 * 1.21)

    def test_zero_slots_cost_nothing(self, analysis):
        assert analysis.delay_cycles_per_load("static", 0) == 0.0

    def test_dynamic_never_worse_than_static(self, analysis):
        for slots in range(4):
            assert analysis.delay_cycles_per_load(
                "dynamic", slots
            ) <= analysis.delay_cycles_per_load("static", slots)

    def test_fraction_at_least(self, analysis):
        assert analysis.fraction_at_least("dynamic", 3) == pytest.approx(0.80)

    def test_unknown_scheme_rejected(self, analysis):
        with pytest.raises(ScheduleError):
            analysis.delay_cycles_per_load("oracle", 1)

    def test_negative_slots_rejected(self, analysis):
        with pytest.raises(ScheduleError):
            analysis.delay_cycles_per_load("static", -1)


class TestSuiteCalibration:
    def test_epsilon_anchors_on_synthesized_workload(self):
        """The generator must keep the Figure 6/7 anchors in range."""
        from repro.trace import execute_program
        from repro.workload import benchmark_by_name, synthesize_program

        spec = benchmark_by_name("gcc")
        program = synthesize_program(spec)
        trace = execute_program(program, 100_000)
        analysis = analyze_load_slack(trace.compiled, trace.block_counts)
        # Figure 6: the large majority of loads have dynamic slack >= 3.
        assert analysis.fraction_at_least("dynamic", 3) > 0.75
        # Figure 7: basic-block boundaries push much of the mass below 3.
        assert analysis.fraction_at_least("static", 3) < 0.65
        # Static scheduling hides strictly less than dynamic (Table 5).
        for slots in (1, 2, 3):
            assert analysis.delay_cycles_per_load(
                "static", slots
            ) > analysis.delay_cycles_per_load("dynamic", slots)
