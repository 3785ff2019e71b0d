"""Program / CFG structure tests."""

import pytest

from repro.errors import ConfigurationError
from repro.isa.assembler import assemble_block
from repro.program.basic_block import BasicBlock
from repro.program.cfg import Procedure, Program
from repro.trace import TraceExecutor


def bb(name, text="nop", **kwargs):
    return BasicBlock(name=name, instructions=assemble_block(text), **kwargs)


def tiny_program():
    """main: loop over body, call helper once per iteration."""
    main = Procedure(
        name="main",
        blocks=[
            bb("main.entry", "addiu $sp, $sp, -16"),
            bb("main.loop", "jal helper.entry", taken_target="helper.entry", fallthrough="main.test"),
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
    )
    helper = Procedure(
        name="helper",
        blocks=[bb("helper.entry", "addu $v0, $zero, $zero\njr $ra")],
    )
    return Program(name="tiny", procedures=[main, helper])


def walked_successors(blocks, name="a", steps=400):
    """The blocks the trace executor enters straight after ``name``, over
    one procedure of ``blocks``."""
    program = Program(name="walk", procedures=[Procedure(name="main", blocks=blocks)])
    trace = TraceExecutor(program, seed=1).run(steps)
    names = {block_id: block for block, block_id in trace.compiled.index.items()}
    start = trace.compiled.index[name]
    ids = trace.block_ids
    return {names[int(b)] for a, b in zip(ids[:-1], ids[1:]) if a == start}


class TestControlFlowGraph:
    def test_successors_conditional(self):
        blocks = [
            bb("a", "beq $t0, $t1, c", taken_target="c", fallthrough="b", taken_bias=0.5),
            bb("b"),
            bb("c", "jr $ra"),
        ]
        assert walked_successors(blocks) == {"b", "c"}

    def test_successors_unconditional_jump_has_no_fallthrough(self):
        blocks = [bb("a", "j c", taken_target="c", fallthrough="b"), bb("b"), bb("c", "jr $ra")]
        assert walked_successors(blocks) == {"c"}

    def test_successors_indirect(self):
        blocks = [
            bb("a", "jr $t9", indirect_targets=["x", "y"]),
            bb("x", "jr $ra"),
            bb("y", "jr $ra"),
        ]
        assert walked_successors(blocks) == {"x", "y"}


class TestProgram:
    def test_entry(self):
        assert tiny_program().entry == "main.entry"

    def test_block_map_and_procedure_of(self):
        prog = tiny_program()
        assert prog.block("helper.entry").name == "helper.entry"
        # One namespace over every procedure's blocks.
        assert prog.block_map["main.loop"] is prog.procedures[0].blocks[1]
        assert prog.block_map["helper.entry"] is prog.procedures[1].blocks[0]

    def test_static_instruction_count(self):
        prog = tiny_program()
        assert prog.static_instruction_count == sum(len(b) for b in prog.blocks())

    def test_ctis_iterates_terminators(self):
        prog = tiny_program()
        ctis = list(prog.ctis())
        assert len(ctis) == 4  # jal, bne, jr, jr

    def test_validate_accepts_good_program(self):
        tiny_program().validate()

    def test_validate_rejects_unknown_target(self):
        prog = tiny_program()
        prog.block("main.test").taken_target = "nowhere"
        with pytest.raises(ConfigurationError):
            prog.validate()

    def test_validate_rejects_bad_layout_fallthrough(self):
        prog = tiny_program()
        # bne's fall-through must be the next block in layout order.
        prog.block("main.test").fallthrough = "main.entry"
        with pytest.raises(ConfigurationError):
            prog.validate()

    def test_call_fallthrough_may_skip(self):
        # jal's fall-through is a continuation and is exempt from the
        # adjacent-layout rule (checked by validate passing on tiny_program,
        # where jal falls through to the adjacent block anyway); move the
        # continuation to confirm the exemption.
        prog = tiny_program()
        prog.block("main.loop").fallthrough = "main.exit"
        prog.validate()

    def test_duplicate_blocks_across_procedures_rejected(self):
        prog = tiny_program()
        prog.procedures[1].blocks.append(bb("main.entry"))
        with pytest.raises(ConfigurationError):
            prog.validate()

    def test_empty_program_has_no_entry(self):
        with pytest.raises(ConfigurationError):
            Program(name="empty").entry
