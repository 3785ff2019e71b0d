"""Delay-slot scheduler tests (Section 3.1 procedure)."""

import pytest

from repro.errors import ScheduleError
from repro.program.basic_block import BasicBlock
from repro.program.cfg import Procedure, Program
from repro.sched.branch_schedule import CtiSchedule, fill_statistics, schedule_ctis
from repro.sched.translation import TranslationFile
from repro.trace.compiled import CompiledProgram
from tests.isa.assembler import assemble_block
from tests.sched.oracles import growth_words, skip_words


def bb(name, text, **kwargs):
    return BasicBlock(name=name, instructions=assemble_block(text), **kwargs)


def program(blocks):
    return CompiledProgram(Program(name="t", procedures=[Procedure(name="p", blocks=blocks)]))


def diamond_program():
    """b0: hoistable backward branch; b1: unhoistable forward branch; b2: return."""
    return program(
        [
            bb(
                "b0",
                "addu $t0, $t1, $t2\naddu $t3, $t4, $t5\nbne $v1, $zero, b0",
                taken_target="b0",
                fallthrough="b1",
            ),
            bb(
                "b1",
                "slt $v1, $t0, $t3\nbeq $v1, $zero, b2",
                taken_target="b2",
                fallthrough="b2x",
            ),
            bb("b2x", "nop"),
            bb("b2", "addu $t9, $t0, $t0\njr $ra"),
        ]
    )


class TestCtiSchedule:
    def test_growth_and_skip_for_predicted_taken(self):
        sched = CtiSchedule(0, r=1, s=2, predicted_taken=True, indirect=False)
        assert growth_words(sched) == 2
        assert skip_words(sched) == 2

    def test_not_taken_prediction_has_no_growth(self):
        sched = CtiSchedule(0, r=0, s=3, predicted_taken=False, indirect=False)
        assert growth_words(sched) == 0
        assert skip_words(sched) == 0

    def test_indirect_grows_but_never_skips(self):
        sched = CtiSchedule(0, r=1, s=2, predicted_taken=True, indirect=True)
        assert growth_words(sched) == 2
        assert skip_words(sched) == 0


class TestScheduleCtis:
    def test_negative_slots_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_ctis(diamond_program(), -1)

    def test_zero_slots_identity(self):
        schedules = schedule_ctis(diamond_program(), 0)
        assert all(s.r == 0 and s.s == 0 and growth_words(s) == 0 for s in schedules.values())
        # All CTI blocks present, fallthrough block absent.
        assert set(schedules) == {0, 1, 3}

    def test_backward_branch_predicted_taken(self):
        schedules = schedule_ctis(diamond_program(), 2)
        assert schedules[0].predicted_taken

    def test_forward_branch_predicted_not_taken(self):
        schedules = schedule_ctis(diamond_program(), 2)
        assert not schedules[1].predicted_taken

    def test_hoist_limits_r(self):
        schedules = schedule_ctis(diamond_program(), 3)
        assert schedules[0].r == 2  # two independent predecessors
        assert schedules[0].s == 1
        assert schedules[1].r == 0  # compare defines the condition adjacently
        assert schedules[1].s == 3

    def test_register_indirect_marked(self):
        schedules = schedule_ctis(diamond_program(), 1)
        assert schedules[3].indirect
        assert growth_words(schedules[3]) == schedules[3].s
        assert skip_words(schedules[3]) == 0

    def test_return_r_blocked_by_target_register(self):
        # addu $t9 before jr $ra does not define $ra, so r can be > 0 ...
        blocks = [bb("a", "addu $t0, $t1, $t2\njr $ra")]
        schedules = schedule_ctis(program(blocks), 2)
        assert schedules[0].r == 1
        # ... but a write to $ra right before the jr blocks hoisting.
        blocks = [bb("a", "lw $ra, 4($sp)\njr $ra")]
        schedules = schedule_ctis(program(blocks), 2)
        assert schedules[0].r == 0


class TestAggregates:
    def test_code_expansion_only_from_taken_predictions(self):
        compiled = diamond_program()
        schedules = schedule_ctis(compiled, 2)
        expected_growth = sum(growth_words(s) for s in schedules.values())
        pct = TranslationFile(compiled, 2).expansion_pct
        assert pct == pytest.approx(100.0 * expected_growth / compiled.static_words)

    def test_expansion_monotonic_in_slots(self):
        compiled = diamond_program()
        pcts = [TranslationFile(compiled, b).expansion_pct for b in (0, 1, 2, 3)]
        assert pcts[0] == 0.0
        assert pcts == sorted(pcts)

    def test_fill_statistics_keys(self):
        stats = fill_statistics(schedule_ctis(diamond_program(), 1), 1)
        assert set(stats) == {
            "first_slot_filled",
            "first_slot_filled_taken",
            "slots_from_before",
            "predicted_taken",
            "indirect",
        }
        assert 0.0 <= stats["first_slot_filled"] <= 1.0

    def test_fill_statistics_need_slots(self):
        with pytest.raises(ScheduleError):
            fill_statistics(schedule_ctis(diamond_program(), 1), 0)

    def test_fill_statistics_need_ctis(self):
        with pytest.raises(ScheduleError):
            fill_statistics({}, 1)
