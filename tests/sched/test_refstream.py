"""Reference-stream expansion and branch-delay accounting tests."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.program.basic_block import BasicBlock
from repro.program.cfg import Procedure, Program
from repro.sched.refstream import (
    InstructionStream,
    branch_delay_stats,
    expand_istream,
)
from repro.sched.translation import TranslationFile
from repro.trace.compiled import CompiledProgram
from repro.trace.executor import ExecutionTrace, TraceExecutor
from tests.isa.assembler import assemble_block


def bb(name, text, **kwargs):
    return BasicBlock(name=name, instructions=assemble_block(text), **kwargs)


def make_program(loop_bias):
    blocks = [
        bb("entry", "addu $t0, $t1, $t2"),
        bb(
            "loop",
            "slt $v1, $t0, $t3\nbne $v1, $zero, loop",
            taken_target="loop",
            fallthrough="exit",
            taken_bias=loop_bias,
            backward=True,
        ),
        bb("exit", "sw $t0, 0($sp)\njr $ra"),
    ]
    blocks[0].fallthrough = "loop"
    return Program(name="t", procedures=[Procedure(name="p", blocks=blocks)])


def manual_trace(compiled, ids, taken):
    return ExecutionTrace(
        compiled=compiled,
        block_ids=np.array(ids, dtype=np.int32),
        went_taken=np.array(taken, dtype=np.int8),
        restarts=0,
    )


class TestInstructionStream:
    def test_cache_block_sequence_single_run(self):
        # 8 instructions at byte 0 with 16-byte blocks -> blocks 0 and 1.
        stream = InstructionStream(np.array([0], dtype=np.int64), np.array([8], dtype=np.int64))
        assert stream.cache_block_sequence(16).tolist() == [0, 1]

    def test_cache_block_sequence_unaligned(self):
        # 2 instructions starting at byte 12 straddle blocks 0 and 1.
        stream = InstructionStream(np.array([12], dtype=np.int64), np.array([2], dtype=np.int64))
        assert stream.cache_block_sequence(16).tolist() == [0, 1]

    def test_cache_block_sequence_multiple_runs(self):
        stream = InstructionStream(
            np.array([0, 64], dtype=np.int64), np.array([4, 4], dtype=np.int64)
        )
        assert stream.cache_block_sequence(16).tolist() == [0, 4]

    def test_empty(self):
        stream = InstructionStream(np.empty(0, np.int64), np.empty(0, np.int64))
        assert stream.cache_block_sequence(16).tolist() == []


class TestExpandIstream:
    def test_zero_slots_reproduces_canonical_stream(self):
        program = make_program(0.5)
        compiled = CompiledProgram(program)
        trace = TraceExecutor(program, seed=3).run(200)
        stream = expand_istream(trace, TranslationFile(compiled, 0))
        expected = compiled.lengths[trace.block_ids].sum()
        assert stream.lengths.sum() == expected

    def test_predicted_taken_skips_target_words(self):
        program = make_program(0.9)
        compiled = CompiledProgram(program)
        translation = TranslationFile(compiled, 2)
        # Taken loop iteration: loop block (grown by s=2), next loop run
        # starts s words in.
        trace = manual_trace(compiled, [1, 1], [1, 1])
        stream = expand_istream(trace, translation)
        assert stream.starts[0] == translation.new_addresses[1]
        assert stream.lengths[0] == translation.new_lengths[1]
        assert stream.starts[1] == translation.new_addresses[1] + 2 * 4
        assert stream.lengths[1] == translation.new_lengths[1] - 2

    def test_mispredicted_taken_prediction_adds_no_extra_run(self):
        program = make_program(0.1)
        compiled = CompiledProgram(program)
        translation = TranslationFile(compiled, 2)
        # loop predicted taken but falls through to exit: the replicated
        # words were already fetched inside the loop block's run.
        trace = manual_trace(compiled, [1, 2], [0, 1])
        stream = expand_istream(trace, translation)
        assert len(stream.starts) == 2
        assert stream.starts[1] == translation.new_addresses[2]
        assert stream.lengths[1] == translation.new_lengths[2]

    def test_forward_mispredict_inserts_wrong_path_run(self):
        # Build a program with a forward (predicted-not-taken) branch.
        blocks = [
            bb(
                "cond",
                "slt $v1, $t0, $t1\nbeq $v1, $zero, past",
                taken_target="past",
                fallthrough="mid",
            ),
            bb("mid", "addu $t0, $t1, $t2\naddu $t3, $t4, $t5\naddu $t6, $t6, $t7"),
            bb("past", "nop"),
        ]
        blocks[1].fallthrough = "past"
        program = Program(name="f", procedures=[Procedure(name="p", blocks=blocks)])
        compiled = CompiledProgram(program)
        translation = TranslationFile(compiled, 2)
        assert not translation.predicted_taken[0]
        trace = manual_trace(compiled, [0, 2], [1, 1])  # branch actually taken
        stream = expand_istream(trace, translation)
        # Expect: cond run, wrong-path run at mid (s=2 words), past run.
        assert len(stream.starts) == 3
        assert stream.starts[1] == translation.new_addresses[1]
        assert stream.lengths[1] == 2
        assert stream.starts[2] == translation.new_addresses[2]

    def test_more_slots_fetch_more(self):
        program = make_program(0.7)
        trace = TraceExecutor(program, seed=9).run(2000)
        compiled = trace.compiled
        fetches = [
            expand_istream(trace, TranslationFile(compiled, b)).lengths.sum()
            for b in range(4)
        ]
        assert fetches[0] <= fetches[1] <= fetches[2] <= fetches[3]

    @pytest.mark.parametrize("window", [1, 2, 7, 64])
    def test_windows_join_into_the_whole_stream(self, window):
        # Each window reads the step in front of it, so a mispredicted
        # branch at a window's end still puts its wrong-path run, and a
        # replicated target its skipped words, in the next window.
        program = make_program(0.5)
        trace = TraceExecutor(program, seed=3).run(3000)
        for slots in range(4):
            translation = TranslationFile(trace.compiled, slots)
            whole = expand_istream(trace, translation)
            parts = [
                expand_istream(trace, translation, start, start + window)
                for start in range(0, trace.steps, window)
            ]
            np.testing.assert_array_equal(
                np.concatenate([p.starts for p in parts]), whole.starts
            )
            np.testing.assert_array_equal(
                np.concatenate([p.lengths for p in parts]), whole.lengths
            )

    def test_wrong_path_run_follows_a_window_edge(self):
        # A mispredicted forward branch ends each one-step window: its
        # wrong-path run opens the next window, which reads the branch.
        blocks = [
            bb(
                "cond",
                "slt $v1, $t0, $t1\nbeq $v1, $zero, past",
                taken_target="past",
                fallthrough="mid",
            ),
            bb("mid", "addu $t0, $t1, $t2\naddu $t3, $t4, $t5"),
            bb("past", "nop"),
        ]
        blocks[1].fallthrough = "past"
        program = Program(name="f", procedures=[Procedure(name="p", blocks=blocks)])
        compiled = CompiledProgram(program)
        translation = TranslationFile(compiled, 2)
        trace = manual_trace(compiled, [0, 2, 0, 2], [1, 1, 1, 1])
        second = expand_istream(trace, translation, 1, 2)
        assert second.starts.tolist() == [
            translation.new_addresses[1],
            translation.new_addresses[2],
        ]
        assert second.lengths[0] == 2

    def test_empty_and_invalid_windows(self):
        trace = TraceExecutor(make_program(0.5), seed=3).run(200)
        translation = TranslationFile(trace.compiled, 1)
        assert len(expand_istream(trace, translation, trace.steps).starts) == 0
        assert len(expand_istream(trace, translation, 5, 5).starts) == 0
        with pytest.raises(ScheduleError):
            expand_istream(trace, translation, -1)


class TestBranchDelayStats:
    def test_perfect_prediction_wastes_nothing(self):
        program = make_program(1.0)  # loop always taken: prediction correct
        compiled = CompiledProgram(program)
        translation = TranslationFile(compiled, 2)
        trace = manual_trace(compiled, [0, 1, 1], [0, 1, 1])
        stats = branch_delay_stats(trace, translation)
        assert stats.wasted_cycles == 0
        assert stats.cycles_per_cti == 1.0

    def test_mispredicted_conditional_wastes_s(self):
        program = make_program(0.0)
        compiled = CompiledProgram(program)
        translation = TranslationFile(compiled, 3)
        s = int(translation.s_values[1])
        trace = manual_trace(compiled, [1, 2], [0, 1])  # loop not taken: wrong
        stats = branch_delay_stats(trace, translation)
        # loop mispredicted (s wasted) + exit's jr is indirect (s wasted).
        assert stats.wasted_cycles == s + int(translation.s_values[2])

    def test_additional_cpi_uses_canonical_instructions(self):
        program = make_program(0.5)
        trace = TraceExecutor(program, seed=2).run(3000)
        translation = TranslationFile(trace.compiled, 2)
        stats = branch_delay_stats(trace, translation)
        assert stats.additional_cpi == pytest.approx(
            stats.wasted_cycles / trace.instruction_count
        )

    def test_prediction_accuracy_bounds(self):
        program = make_program(0.8)
        trace = TraceExecutor(program, seed=5).run(5000)
        stats = branch_delay_stats(trace, TranslationFile(trace.compiled, 1))
        assert 0.0 <= stats.taken_accuracy <= 1.0
        assert 0.0 <= stats.not_taken_accuracy <= 1.0
        assert stats.predicted_taken_count + stats.predicted_not_taken_count == stats.cti_count

    def test_zero_slots_waste_nothing(self):
        program = make_program(0.3)
        trace = TraceExecutor(program, seed=6).run(2000)
        stats = branch_delay_stats(trace, TranslationFile(trace.compiled, 0))
        assert stats.wasted_cycles == 0
