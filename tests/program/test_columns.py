"""The columnar front end against its per-object oracles.

:class:`~repro.trace.compiled.CompiledProgram` lowers a program's columns
(:class:`~repro.program.columns.ProgramColumns`) in a few numpy passes
(:mod:`repro.program.dependence`), after checking every block and edge
invariant on them (:meth:`~repro.program.columns.ProgramColumns.validate`).
:func:`tests.program.oracles.lowering_reference` is the per-block loop it
replaced, one :class:`~tests.program.oracles.BlockFacts` per block.  On
hypothesis-generated valid programs the two agree array for array, and
each corrupted program raises the message the per-object checks raised.
A synthesized program's read views decode to the very columns the
synthesizer wrote.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import Register
from repro.program.basic_block import BasicBlock
from repro.program.cfg import Procedure, Program
from repro.program.columns import ProgramColumns
from repro.trace.compiled import CompiledProgram
from repro.workload import benchmark_by_name, synthesize_program
from tests.isa.assembler import assemble_block
from tests.program.oracles import lowering_reference

# A small register pool makes dependences likely: $zero, $v0/$v1, two
# temporaries, $s0, $t9, the stable bases $gp/$sp/$fp and $ra.
REGISTERS = st.sampled_from([0, 2, 3, 8, 9, 16, 25, 28, 29, 30, 31]).map(Register)
OFFSETS = st.sampled_from([0, 4, 8])
BODY = st.one_of(
    st.builds(
        Instruction,
        opcode=st.sampled_from([Opcode.ADDU, Opcode.SLT, Opcode.ADDIU, Opcode.LUI]),
        dest=st.none() | REGISTERS,
        sources=st.lists(REGISTERS, max_size=2).map(tuple),
        imm=st.none() | st.integers(-64, 64),
    ),
    st.builds(
        Instruction,
        opcode=st.sampled_from([Opcode.LW, Opcode.LB, Opcode.LWC1]),
        dest=st.none() | REGISTERS,
        base=st.none() | REGISTERS,
        offset=OFFSETS,
    ),
    st.builds(
        Instruction,
        opcode=st.sampled_from([Opcode.SW, Opcode.SB]),
        sources=st.lists(REGISTERS, max_size=1).map(tuple),
        base=st.none() | REGISTERS,
        offset=OFFSETS,
    ),
    st.sampled_from([Instruction(Opcode.SYSCALL), Instruction(Opcode.NOP)]),
)
BIASES = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def programs(draw):
    """Valid programs of up to three procedures of up to four blocks, each
    block a random body and any terminator its position allows."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    layout = [[f"p{p}.b{b}" for b in range(size)] for p, size in enumerate(sizes)]
    names = st.sampled_from([name for procedure in layout for name in procedure])
    procedures = []
    for p, procedure in enumerate(layout):
        blocks = []
        for b, name in enumerate(procedure):
            following = procedure[b + 1] if b + 1 < len(procedure) else None
            body = draw(st.lists(BODY, max_size=10))
            endings = ["none", "jump", "call", "return", "goto", "indirect_call"]
            ending = draw(st.sampled_from(endings + ["branch"] * (following is not None)))
            attrs = {}
            if ending == "none":
                attrs["fallthrough"] = draw(st.sampled_from([None, following]))
            elif ending == "branch":
                target = draw(names)
                body.append(
                    Instruction(
                        draw(st.sampled_from([Opcode.BEQ, Opcode.BNE, Opcode.BLEZ])),
                        sources=tuple(draw(st.lists(REGISTERS, min_size=1, max_size=2))),
                        target=target,
                    )
                )
                attrs.update(
                    taken_target=target,
                    fallthrough=following,
                    taken_bias=draw(BIASES),
                    backward=draw(st.booleans()),
                )
            elif ending in ("jump", "call"):
                target = draw(names)
                opcode = Opcode.J if ending == "jump" else Opcode.JAL
                body.append(Instruction(opcode, target=target))
                anywhere = names if ending == "call" else st.just(following)
                attrs.update(
                    taken_target=target, fallthrough=draw(st.none() | anywhere)
                )
            elif ending == "return":
                body.append(Instruction(Opcode.JR, base=Register(31)))
            else:
                attrs["indirect_targets"] = draw(st.lists(names, min_size=1, max_size=3))
                if ending == "goto":
                    body.append(Instruction(Opcode.JR, base=draw(REGISTERS)))
                else:
                    body.append(
                        Instruction(
                            Opcode.JALR, dest=draw(st.none() | REGISTERS), base=draw(REGISTERS)
                        )
                    )
                    attrs["fallthrough"] = draw(st.none() | names)
            blocks.append(BasicBlock(name=name, instructions=body, **attrs))
        procedures.append(Procedure(name=f"p{p}", blocks=blocks))
    return Program(name="hand", procedures=procedures)


def bb(name, text, **kwargs):
    return BasicBlock(name=name, instructions=assemble_block(text), **kwargs)


def program_of(*blocks, name="hand"):
    return Program(name=name, procedures=[Procedure(name="p", blocks=list(blocks))])


def around_load(c, d, base="$s0", barrier=None):
    """``c`` independent instructions, the load, ``d`` more, its consumer;
    the base is written just before the ``c`` (or a syscall sits at
    position ``barrier`` of them)."""
    before = ["addu $a0, $a1, $a2"] * c
    if barrier is not None:
        before[barrier] = "syscall"
    return "\n".join(
        [f"addu {base}, $t8, $t9", *before, f"lw $t0, 4({base})"]
        + ["addu $a1, $a2, $a3"] * d
        + ["addu $v0, $t0, $t0"]
    )


#: c + d of 7, 8 and 9, static and dynamic ($s0 is written before the
#: run, so both c agree; a syscall in the run cuts only the static one).
WINDOWS = program_of(
    *(
        bb(f"w{c}.{d}", around_load(c, d), fallthrough=f"w{c + 1}.{d}" if c < 5 else "g")
        for c, d in ((3, 4), (4, 4), (5, 4))
    ),
    bb("g", around_load(3, 4, base="$gp"), fallthrough="s"),
    bb("s", around_load(3, 2, barrier=1), fallthrough="x"),
    bb("x", around_load(9, 0)),
)

#: Loads at a block's start and end, one-instruction blocks, a store to
#: the load's address ahead of it, $zero destinations, the three stable
#: bases and a load that overwrites its own base.
LOADS = program_of(
    bb("first", "lw $t0, 0($t1)\naddu $t2, $t0, $t0\nlw $t3, 8($t2)", fallthrough="one"),
    bb("one", "lw $t4, 4($sp)", fallthrough="store"),
    bb(
        "store",
        "sw $t1, 8($sp)\naddu $a0, $a1, $a2\nlw $t0, 8($sp)\nsw $t1, 4($gp)\nlw $t2, 8($gp)",
        fallthrough="zero",
    ),
    bb(
        "zero",
        "addu $zero, $t0, $t1\nlw $zero, 0($sp)\naddu $t1, $zero, $zero\n"
        "lw $t2, 4($zero)\naddu $t3, $t2, $zero",
        fallthrough="stable",
    ),
    bb(
        "stable",
        "addiu $sp, $sp, -8\nlw $t0, 0($sp)\naddu $fp, $t1, $t1\nlw $t1, 4($fp)\n"
        "addu $gp, $t1, $t1\nlw $t2, 8($gp)\naddu $a0, $t2, $t0",
        fallthrough="own",
    ),
    bb("own", "addu $t0, $a0, $a1\nlw $t0, 0($t0)\nlw $t0, 4($t0)\naddu $t1, $t0, $t0"),
)

#: CTIs: a branch and a jr reading the register written just before
#: them, syscalls as barriers, jalr with and without a destination, and
#: one-instruction CTI blocks.
CTIS = Program(
    name="ctis",
    procedures=[
        Procedure(
            name="main",
            blocks=[
                bb(
                    "cond",
                    "addu $a0, $a1, $a2\nslt $v1, $t0, $t1\nbne $v1, $zero, cond",
                    taken_target="cond",
                    fallthrough="sys",
                    backward=True,
                ),
                bb(
                    "sys",
                    "addu $a0, $a1, $a2\nsyscall\naddu $a3, $a1, $a2\nj goto",
                    taken_target="goto",
                ),
                bb("goto", "addu $t9, $a1, $a2\njr $t9", indirect_targets=["call"]),
                BasicBlock(
                    name="call",
                    instructions=[
                        *assemble_block("addu $a0, $a1, $a2\nlw $t9, 0($gp)"),
                        Instruction(Opcode.JALR, base=Register(25)),
                    ],
                    indirect_targets=["f.entry"],
                    fallthrough="linked",
                ),
                bb("linked", "jalr $t0, $t9", indirect_targets=["f.entry"], fallthrough="jal"),
                bb("jal", "jal f.entry", taken_target="f.entry", fallthrough="ret"),
                bb("ret", "jr $ra"),
            ],
        ),
        Procedure(name="f", blocks=[bb("f.entry", "sw $ra, 0($sp)\njr $ra")]),
    ],
)


@settings(max_examples=300, deadline=None)
@given(program=programs())
@example(program=WINDOWS)
@example(program=LOADS)
@example(program=CTIS)
def test_lowering_matches_block_facts(program):
    got = CompiledProgram(program).as_arrays()
    expected = lowering_reference(program)
    assert set(got) == set(expected)
    for name, array in expected.items():
        assert got[name].dtype == array.dtype, name
        assert np.array_equal(got[name], array), name


def test_examples_reach_the_cap():
    arrays = CompiledProgram(WINDOWS).as_arrays()
    # One load per block: c + d of 7, 8, 9 ($s0), 7 statically ($gp);
    # a syscall cuts the static c to 1 but not the dynamic 3; a run of 9.
    assert arrays["load_eps_static"].tolist() == [7, 8, 8, 7, 3, 8]
    assert arrays["load_eps_dynamic"].tolist() == [7, 8, 8, 8, 5, 8]


@pytest.mark.parametrize("name", ["small", "tex"])
def test_synthesized_views_decode_to_the_written_columns(name):
    program = synthesize_program(benchmark_by_name(name))
    written = program.columns
    decoded = ProgramColumns.from_procedures(program.procedures)
    assert np.array_equal(decoded.rows, written.rows)
    assert np.array_equal(decoded.starts, written.starts)
    assert np.array_equal(decoded.procedure_starts, written.procedure_starts)
    for field in (
        "names", "taken_targets", "fallthroughs", "biases", "backward",
        "labels", "procedure_names",
    ):
        assert getattr(decoded, field) == getattr(written, field), field
    assert [list(t) for t in decoded.indirect_targets] == [
        list(t) for t in written.indirect_targets
    ]


# -- validation: each invariant raises the per-object checks' message ------------


def tiny():
    """main: a call, a biased backward branch, a return; helper returns."""
    return Program(
        name="tiny",
        procedures=[
            Procedure(
                name="main",
                blocks=[
                    bb("main.entry", "addiu $sp, $sp, -16", fallthrough="main.loop"),
                    bb(
                        "main.loop",
                        "jal helper.entry",
                        taken_target="helper.entry",
                        fallthrough="main.test",
                    ),
                    bb(
                        "main.test",
                        "addiu $t0, $t0, -1\nbne $t0, $zero, main.loop",
                        taken_target="main.loop",
                        fallthrough="main.exit",
                        taken_bias=0.9,
                        backward=True,
                    ),
                    bb("main.exit", "jr $ra"),
                ],
            ),
            Procedure(name="helper", blocks=[bb("helper.entry", "jr $ra")]),
        ],
    )


def corrupt_duplicate(program):
    program.procedures[1].blocks.append(bb("main.exit", "nop"))


def corrupt_cti_position(program):
    program.block("main.entry").instructions = assemble_block(
        "j main.loop\naddiu $sp, $sp, -16"
    )


def corrupt_conditional_edges(program):
    program.block("main.test").fallthrough = None


def corrupt_dynamic_target(program):
    program.block("main.exit").taken_target = "main.entry"


def corrupt_jump_target(program):
    program.block("main.loop").taken_target = None


def corrupt_bias(program):
    program.block("main.test").taken_bias = 1.5


def corrupt_taken_target(program):
    program.block("main.test").taken_target = "nowhere"


def corrupt_indirect_target(program):
    program.block("main.exit").indirect_targets = ["helper.entry", "elsewhere"]


def corrupt_fallthrough_name(program):
    program.block("main.entry").fallthrough = "nowhere"


def corrupt_layout(program):
    program.block("main.test").fallthrough = "main.entry"


INVARIANTS = [
    (corrupt_duplicate, "duplicate block name 'main.exit' across procedures"),
    (corrupt_cti_position, "block 'main.entry': CTI j not in terminal position"),
    (corrupt_conditional_edges, "block 'main.test': conditional branch needs both edges"),
    (
        corrupt_dynamic_target,
        "block 'main.exit': register-indirect jump target must be dynamic "
        "(taken_target=None)",
    ),
    (corrupt_jump_target, "block 'main.loop': jump needs a taken target"),
    (corrupt_bias, "block 'main.test': taken_bias 1.5 not in [0, 1]"),
    (corrupt_taken_target, "block 'main.test' targets unknown block 'nowhere'"),
    (corrupt_indirect_target, "block 'main.exit' targets unknown block 'elsewhere'"),
    (
        corrupt_fallthrough_name,
        "block 'main.entry' falls through to unknown block 'nowhere'",
    ),
    (
        corrupt_layout,
        "block 'main.test' fall-through 'main.entry' is not the next block in "
        "layout order",
    ),
]


@pytest.mark.parametrize(
    "corrupt,message", INVARIANTS, ids=[c.__name__ for c, _ in INVARIANTS]
)
def test_each_invariant_raises_its_message(corrupt, message):
    tiny().validate()
    CompiledProgram(tiny())
    program = tiny()
    corrupt(program)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        program.validate()
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        CompiledProgram(program)


def test_first_violation_in_layout_order_wins():
    # Two blocks break invariants; within a block, the CTI position is
    # checked before the bias.
    program = tiny()
    corrupt_bias(program)
    corrupt_cti_position(program)
    with pytest.raises(ConfigurationError, match="CTI j not in terminal position"):
        program.validate()
    program.block("main.entry").instructions = assemble_block("j main.loop\nnop")
    program.block("main.entry").taken_bias = -0.5
    with pytest.raises(ConfigurationError, match="'main.entry': CTI j"):
        program.validate()


def test_a_lone_block_checks_only_itself():
    # BasicBlock.validate runs the block-local checks: its targets need
    # not exist.
    bb("a", "beq $t0, $t1, t", taken_target="t", fallthrough="f").validate()
    with pytest.raises(ConfigurationError, match="^block 'a': conditional branch"):
        bb("a", "beq $t0, $t1, t", taken_target="t").validate()
