"""Dependence analysis tests, anchored on the paper's code fragments."""

from tests.program.oracles import BlockFacts, cti_hoist_distance
from tests.isa.assembler import assemble_block
from tests.sched.oracles import (
    flow_dependences,
    independent_prefix_length,
    memory_conflict,
)


def code(text):
    return assemble_block(text)


class TestFlowDependences:
    def test_paper_load_chain(self):
        insts = code(
            """
            subu r5, r5, r4
            lw   r3, 100(r5)
            addu r4, r3, r2
            """
        )
        deps = flow_dependences(insts)
        assert (0, 1) in deps  # subu defines r5, lw's address register
        assert (1, 2) in deps  # lw defines r3, addu reads it

    def test_independent_instructions(self):
        insts = code("addu $t0, $t1, $t2\naddu $t3, $t4, $t5")
        assert flow_dependences(insts) == []

    def test_store_then_load_same_address_conflicts(self):
        insts = code("sw $t0, 8($sp)\nlw $t1, 8($sp)")
        assert (0, 1) in flow_dependences(insts)

    def test_store_then_load_different_offset_disambiguated(self):
        insts = code("sw $t0, 8($sp)\nlw $t1, 12($sp)")
        assert flow_dependences(insts) == []

    def test_two_loads_never_conflict(self):
        insts = code("lw $t0, 0($sp)\nlw $t1, 0($sp)")
        assert flow_dependences(insts) == []

    def test_most_recent_writer_wins(self):
        insts = code(
            "addu $t0, $t1, $t2\naddu $t0, $t3, $t4\naddu $t5, $t0, $t0"
        )
        deps = flow_dependences(insts)
        assert (1, 2) in deps
        assert (0, 2) not in deps


class TestMemoryConflict:
    def test_requires_memory_ops(self):
        a, b = code("addu $t0, $t1, $t2\nsw $t0, 0($sp)")
        assert not memory_conflict(a, b)

    def test_load_store_same_symbolic_address(self):
        a, b = code("lw $t0, 4($gp)\nsw $t1, 4($gp)")
        assert memory_conflict(a, b)

    def test_different_base_assumed_disjoint(self):
        a, b = code("lw $t0, 4($gp)\nsw $t1, 4($sp)")
        assert not memory_conflict(a, b)


class TestCtiHoistDistance:
    def test_no_cti(self):
        assert cti_hoist_distance(code("nop\nnop")) == 0

    def test_fully_hoistable(self):
        insts = code("addu $t0, $t1, $t2\naddu $t3, $t4, $t5\nj out")
        assert cti_hoist_distance(insts) == 2

    def test_blocked_by_condition_definition(self):
        insts = code(
            "addu $t9, $t1, $t2\nslt $t0, $t3, $t4\nbne $t0, $zero, out"
        )
        # slt defines the branch condition: the bne cannot move above it.
        assert cti_hoist_distance(insts) == 0

    def test_partial_hoist(self):
        insts = code(
            "slt $t0, $t3, $t4\naddu $t9, $t1, $t2\nbne $t0, $zero, out"
        )
        assert cti_hoist_distance(insts) == 1

    def test_jr_blocked_by_target_register_write(self):
        insts = code("addu $t9, $t1, $t2\njr $t9")
        assert cti_hoist_distance(insts) == 0

    def test_stops_at_syscall(self):
        insts = code("syscall\naddu $t0, $t1, $t2\nj out")
        assert cti_hoist_distance(insts) == 1

    def test_store_can_fill_delay_slot(self):
        insts = code("sw $t0, 0($sp)\nj out")
        assert cti_hoist_distance(insts) == 1


class TestIndependentPrefixLength:
    def test_load_with_independent_predecessors(self):
        insts = code(
            "addu $t0, $t1, $t2\naddu $t3, $t4, $t5\nlw $t6, 0($sp)"
        )
        assert independent_prefix_length(insts, 2) == 2

    def test_blocked_by_address_register_write(self):
        insts = code("subu r5, r5, r4\nlw r3, 100(r5)")
        assert independent_prefix_length(insts, 1) == 0

    def test_blocked_by_conflicting_store(self):
        insts = code("sw $t0, 0($sp)\nlw $t1, 0($sp)")
        assert independent_prefix_length(insts, 1) == 0

    def test_nonconflicting_store_is_transparent(self):
        insts = code("sw $t0, 4($sp)\nlw $t1, 0($sp)")
        assert independent_prefix_length(insts, 1) == 1

    def test_first_instruction_has_no_prefix(self):
        insts = code("lw $t0, 0($sp)")
        assert independent_prefix_length(insts, 0) == 0


class TestUseDistance:
    def test_immediate_use(self):
        insts = code("lw r3, 100(r5)\naddu r4, r3, r2")
        assert BlockFacts(insts).use_distance(0, horizon=8) == 0

    def test_one_gap(self):
        insts = code("lw r3, 100(r5)\nnop\naddu r4, r3, r2")
        assert BlockFacts(insts).use_distance(0, horizon=8) == 1

    def test_no_use_hits_horizon(self):
        insts = code("lw r3, 100(r5)\nnop\nnop")
        assert BlockFacts(insts).use_distance(0, horizon=8) == 8

    def test_overwrite_kills_result(self):
        insts = code("lw r3, 100(r5)\naddu r3, r2, r2\naddu r4, r3, r2")
        assert BlockFacts(insts).use_distance(0, horizon=8) == 8

    def test_store_has_no_result(self):
        insts = code("sw $t0, 0($sp)\naddu $t1, $t0, $t0")
        assert BlockFacts(insts).use_distance(0, horizon=4) == 4
