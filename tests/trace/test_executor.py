"""Trace executor tests on small hand-built programs."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.program.basic_block import BasicBlock
from repro.program.cfg import Procedure, Program
from repro.trace import BlockKind, CompiledProgram, TraceExecutor, execute_program
from tests.isa.assembler import assemble_block


def bb(name, text, **kwargs):
    return BasicBlock(name=name, instructions=assemble_block(text), **kwargs)


def loop_program(bias=0.75):
    """entry -> loop (self, biased) -> exit."""
    blocks = [
        bb("entry", "addiu $sp, $sp, -8"),
        bb(
            "loop",
            "lw $t0, 0($sp)\naddu $t1, $t0, $t1\nslt $v1, $t1, $t2\nbne $v1, $zero, loop",
            taken_target="loop",
            fallthrough="exit",
            taken_bias=bias,
            backward=True,
        ),
        bb("exit", "sw $t1, 0($sp)\njr $ra"),
    ]
    blocks[0].fallthrough = "loop"
    return Program(name="loopy", procedures=[Procedure(name="main", blocks=blocks)])


def call_program():
    main = Procedure(
        name="main",
        blocks=[
            bb("m.entry", "jal f.entry", taken_target="f.entry", fallthrough="m.after"),
            bb("m.after", "nop"),
        ],
    )
    callee = Procedure(name="f", blocks=[bb("f.entry", "addu $v0, $a0, $a1\njr $ra")])
    return Program(name="cally", procedures=[main, callee])


class TestCompiledProgram:
    def test_block_kinds(self):
        compiled = CompiledProgram(loop_program())
        assert compiled.kinds[0] == BlockKind.FALLTHROUGH
        assert compiled.kinds[1] == BlockKind.CONDITIONAL
        assert compiled.kinds[2] == BlockKind.RETURN

    def test_category_counts(self):
        compiled = CompiledProgram(loop_program())
        assert compiled.load_counts[1] == 1
        assert compiled.store_counts[2] == 1
        assert compiled.cti_counts[1] == 1

    def test_static_words(self):
        compiled = CompiledProgram(loop_program())
        assert compiled.static_words == 1 + 4 + 2

    def test_indirect_without_targets_rejected(self):
        program = Program(
            name="bad",
            procedures=[Procedure(name="m", blocks=[bb("a", "jr $t0")])],
        )
        with pytest.raises(TraceError):
            CompiledProgram(program)

    def test_empty_program_rejected(self):
        with pytest.raises(TraceError):
            CompiledProgram(Program(name="none", procedures=[Procedure(name="m", blocks=[])]))


class TestExecutionTrace:
    def test_budget_met(self):
        trace = execute_program(loop_program(), 1000, seed=1)
        assert trace.instruction_count >= 1000

    def test_instruction_count_matches_blocks(self):
        trace = execute_program(loop_program(), 500, seed=1)
        lengths = trace.compiled.lengths[trace.block_ids]
        assert trace.instruction_count == lengths.sum()

    def test_loop_bias_controls_iterations(self):
        # With bias 0.9, the loop block should dominate the trace.
        trace = execute_program(loop_program(bias=0.9), 5000, seed=2)
        loop_share = (trace.block_ids == 1).mean()
        assert loop_share > 0.7

    def test_restarts_counted(self):
        trace = execute_program(loop_program(bias=0.1), 5000, seed=2)
        assert trace.restarts > 0

    def test_went_taken_consistency(self):
        trace = execute_program(loop_program(bias=0.5), 2000, seed=3)
        # After a taken loop step, the next block is the loop again;
        # after a not-taken step, it is the exit.
        ids, taken = trace.block_ids, trace.went_taken
        for i in range(len(ids) - 1):
            if ids[i] == 1:
                assert ids[i + 1] == (1 if taken[i] else 2)

    def test_calls_return_to_continuation(self):
        trace = execute_program(call_program(), 50, seed=4)
        ids = trace.block_ids.tolist()
        # Pattern: m.entry(0) -> f.entry(2) -> m.after(1) -> restart...
        first = ids.index(0)
        assert ids[first : first + 3] == [0, 2, 1]

    def test_category_counts_keys(self):
        counts = execute_program(loop_program(), 100, seed=1).category_counts
        assert set(counts) == {"instructions", "loads", "stores", "ctis", "syscalls"}

    def test_deterministic(self):
        a = execute_program(loop_program(), 2000, seed=7)
        b = execute_program(loop_program(), 2000, seed=7)
        assert np.array_equal(a.block_ids, b.block_ids)
        assert np.array_equal(a.went_taken, b.went_taken)

    def test_bad_budget_rejected(self):
        with pytest.raises(TraceError):
            execute_program(loop_program(), 0)

    def test_block_counts(self):
        trace = execute_program(loop_program(), 1000, seed=5)
        counts = trace.block_counts
        assert counts.sum() == trace.steps
        assert counts[1] >= counts[0]
