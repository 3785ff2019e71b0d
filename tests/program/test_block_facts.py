"""The bitmask dependence scans against their per-instruction oracles.

:class:`~repro.program.dependence.BlockFacts` answers the CTI hoist
distance and every load's slack from register bitmasks computed once per
block; the lowering and the per-instruction functions of
:mod:`repro.program.dependence` all run on it.  The oracles in
:mod:`tests.sched.oracles` are the frozenset walks it replaced.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import SP, Register
from repro.program.dependence import (
    EPSILON_CAP,
    BlockFacts,
    cti_hoist_distance,
    independent_prefix_length,
    load_epsilons,
    memory_conflict,
    use_distance,
)
from repro.trace.compiled import BlockKind, CompiledProgram
from repro.workload import TABLE1_SUITE, synthesize_program
from tests.sched.oracles import (
    cti_hoist_distance_reference,
    independent_prefix_length_reference,
    jump_is_unfillable,
    load_epsilons_reference,
    memory_conflict_reference,
    use_distance_reference,
)

# A small register pool makes dependences likely: $zero, $v0/$v1, two
# temporaries, $s0, $t9, the stable bases $gp/$sp/$fp and $ra.
REGISTERS = st.builds(Register, st.sampled_from([0, 2, 3, 8, 9, 16, 25, 28, 29, 30, 31]))
OPCODES = st.one_of(
    st.sampled_from([Opcode.LW, Opcode.SW, Opcode.ADDU]),
    st.sampled_from(list(Opcode)),
)
OFFSETS = st.sampled_from([0, 4, 8])
INSTRUCTIONS = st.one_of(
    st.builds(
        Instruction,
        opcode=OPCODES,
        dest=st.none() | REGISTERS,
        sources=st.lists(REGISTERS, max_size=2).map(tuple),
        base=st.none() | REGISTERS,
        offset=OFFSETS,
    ),
    # Loads as the synthesizer writes them: a destination and a base.
    st.builds(Instruction, opcode=st.just(Opcode.LW), dest=REGISTERS, base=REGISTERS, offset=OFFSETS),
)
# Random blocks, not valid ones: CTIs and syscalls may sit anywhere.
BLOCKS = st.lists(INSTRUCTIONS, min_size=1, max_size=14)


@settings(max_examples=500, deadline=None)
@given(block=BLOCKS)
@example(
    # $sp written just before a load off it, whose value is used at once:
    # a stable base still counts as far away for the dynamic c.
    block=[
        Instruction(Opcode.ADDIU, dest=SP, sources=(SP,), imm=-32),
        Instruction(Opcode.LW, dest=Register(8), base=SP, offset=4),
        Instruction(Opcode.ADDU, dest=Register(9), sources=(Register(8), Register(8))),
    ]
)
def test_scans_match_instruction_oracles(block):
    assert cti_hoist_distance(block) == cti_hoist_distance_reference(block)
    for position in range(len(block)):
        assert load_epsilons(block, position) == load_epsilons_reference(block, position)
        assert independent_prefix_length(block, position) == (
            independent_prefix_length_reference(block, position)
        )
        for horizon in (0, 1, 3, EPSILON_CAP, len(block) - 1 - position):
            assert use_distance(block, position, horizon) == (
                use_distance_reference(block, position, horizon)
            )


@settings(max_examples=200, deadline=None)
@given(a=INSTRUCTIONS, b=INSTRUCTIONS)
def test_memory_conflict_matches_oracle(a, b):
    assert memory_conflict(a, b) == memory_conflict_reference(a, b)


def test_facts_are_bitmasks_of_def_use_sets():
    block = [
        Instruction(Opcode.ADDU, dest=Register(0), sources=(Register(0), Register(8))),
        Instruction(Opcode.JALR, dest=Register(0), base=Register(25)),
        Instruction(Opcode.JAL, target="f"),
        Instruction(Opcode.SW, sources=(Register(9),), base=Register(29), offset=4),
    ]
    facts = BlockFacts(block)
    for i, inst in enumerate(block):
        assert facts.defs[i] == sum(1 << r.number for r in inst.defs)
        assert facts.uses[i] == sum(1 << r.number for r in inst.uses)
    assert facts.addresses == [None, None, None, (29, 4)]


@pytest.mark.parametrize("name", [spec.name for spec in TABLE1_SUITE])
def test_lowering_matches_oracles_on_table1(name):
    spec = next(spec for spec in TABLE1_SUITE if spec.name == name)
    program = synthesize_program(spec)
    compiled = CompiledProgram(program)
    hoists, limits, epsilons = [], [], []
    for block_id, block in enumerate(program.blocks()):
        instructions = block.instructions
        hoist = cti_hoist_distance_reference(instructions)
        hoists.append(hoist)
        kind = compiled.kinds[block_id]
        masked = kind == BlockKind.FALLTHROUGH or (
            kind in (BlockKind.JUMP, BlockKind.CALL) and jump_is_unfillable(block_id)
        )
        limits.append(0 if masked else hoist)
        epsilons.extend(
            load_epsilons_reference(instructions, position)
            for position, inst in enumerate(instructions)
            if inst.is_load
        )
    assert [BlockFacts(b.instructions).hoist_distance() for b in program.blocks()] == hoists
    assert compiled.hoist_limits.tolist() == limits
    assert list(
        zip(compiled.load_eps_static.tolist(), compiled.load_eps_dynamic.tolist())
    ) == epsilons
