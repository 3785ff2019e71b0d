"""Synthesized-program structure and calibration tests.

Calibration tests execute a moderate trace and check the *dynamic* mix
against Table 1 with a tolerance; they are the guard rail that keeps the
generator honest when knobs change.
"""

import numpy as np
import pytest

from repro.isa.opcodes import OpcodeKind
from repro.trace import execute_program
from repro.workload import TABLE1_SUITE, benchmark_by_name, synthesize_program

SAMPLE = ["gcc", "matrix500", "yacc", "loops", "small"]


@pytest.fixture(scope="module")
def programs():
    return {name: synthesize_program(benchmark_by_name(name)) for name in SAMPLE}


@pytest.fixture(scope="module")
def traces(programs):
    return {
        name: execute_program(program, 120_000)
        for name, program in programs.items()
    }


class TestStructure:
    def test_programs_validate(self, programs):
        for program in programs.values():
            program.validate()

    def test_static_code_size_tracks_spec(self, programs):
        for name, program in programs.items():
            spec = benchmark_by_name(name)
            actual_kw = program.static_instruction_count / 1024
            assert actual_kw == pytest.approx(spec.shape.static_code_kw, rel=0.25)

    def test_deterministic(self):
        spec = benchmark_by_name("small")
        a = synthesize_program(spec, seed=11)
        b = synthesize_program(spec, seed=11)
        assert [bl.name for bl in a.blocks()] == [bl.name for bl in b.blocks()]
        assert [bl.instructions for bl in a.blocks()] == [
            bl.instructions for bl in b.blocks()
        ]

    def test_different_seeds_differ(self):
        spec = benchmark_by_name("small")
        a = synthesize_program(spec, seed=1)
        b = synthesize_program(spec, seed=2)
        assert [bl.instructions for bl in a.blocks()] != [
            bl.instructions for bl in b.blocks()
        ]

    def test_has_conditional_jump_and_indirect_ctis(self, programs):
        program = programs["gcc"]
        kinds = {inst.kind for inst in program.ctis()}
        assert OpcodeKind.BRANCH in kinds
        assert OpcodeKind.JUMP in kinds
        assert OpcodeKind.JUMP_REGISTER in kinds

    def test_backward_annotations_agree_with_layout(self, programs):
        # Blocks are laid out in order, so a taken target at or before
        # its branch's block is a backward edge.
        blocks = list(programs["gcc"].blocks())
        order = {block.name: i for i, block in enumerate(blocks)}
        for i, block in enumerate(blocks):
            term = block.terminator
            if term is None or not term.is_conditional_branch:
                continue
            assert block.backward == (order[block.taken_target] <= i)


class TestDynamicCalibration:
    @pytest.mark.parametrize("name", SAMPLE)
    def test_instruction_mix_tracks_table1(self, traces, name):
        spec = benchmark_by_name(name)
        mix = traces[name].mix_percentages()
        assert mix["load_pct"] == pytest.approx(spec.load_pct, abs=5.0)
        assert mix["store_pct"] == pytest.approx(spec.store_pct, abs=4.0)
        assert mix["branch_pct"] == pytest.approx(spec.branch_pct, abs=4.0)

    def test_suite_average_mix(self):
        # The weighted suite averages should land near Table 1's totals
        # (24.7 / 8.7 / 13); sampled subset tested at module scope above,
        # so use looser bounds on this cross-benchmark property.
        loads, stores, ctis, weights = [], [], [], []
        for spec in TABLE1_SUITE[::3]:
            trace = execute_program(synthesize_program(spec), 60_000)
            mix = trace.mix_percentages()
            loads.append(mix["load_pct"])
            stores.append(mix["store_pct"])
            ctis.append(mix["branch_pct"])
            weights.append(spec.weight)
        target_loads = [benchmark_by_name(s.name).load_pct for s in TABLE1_SUITE[::3]]
        assert np.average(loads, weights=weights) == pytest.approx(
            np.average(target_loads, weights=weights), abs=4.0
        )

    def test_indirect_cti_share(self, traces):
        # Returns + computed gotos + indirect calls should be a visible
        # minority of executed CTIs (the paper cites ~10 %).
        from repro.trace.compiled import BlockKind

        trace = traces["gcc"]
        kinds = trace.compiled.kinds[trace.block_ids]
        cti_steps = np.isin(
            kinds,
            [
                BlockKind.CONDITIONAL,
                BlockKind.JUMP,
                BlockKind.CALL,
                BlockKind.RETURN,
                BlockKind.COMPUTED_GOTO,
                BlockKind.INDIRECT_CALL,
            ],
        ).sum()
        indirect = np.isin(
            kinds,
            [BlockKind.RETURN, BlockKind.COMPUTED_GOTO, BlockKind.INDIRECT_CALL],
        ).sum()
        assert 0.03 < indirect / cti_steps < 0.30

    def test_syscalls_present_for_heavy_syscall_benchmarks(self):
        spec = benchmark_by_name("xwim")  # 65294 syscalls in 52.2 M inst
        trace = execute_program(synthesize_program(spec), 120_000)
        assert trace.category_counts["syscalls"] > 0
