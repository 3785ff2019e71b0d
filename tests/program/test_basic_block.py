"""BasicBlock invariants."""

import pytest

from repro.errors import ConfigurationError
from repro.program.basic_block import BasicBlock
from tests.isa.assembler import assemble_block
from tests.isa.defuse import is_conditional_branch


def block(text, **kwargs):
    return BasicBlock(name=kwargs.pop("name", "b0"), instructions=assemble_block(text), **kwargs)


class TestTerminator:
    def test_cti_terminator(self):
        b = block("addu $t0, $t1, $t2\nbeq $t0, $zero, out", taken_target="out", fallthrough="next")
        assert b.terminator is b.instructions[-1]
        assert is_conditional_branch(b.terminator)

    def test_fallthrough_only_block(self):
        b = block("addu $t0, $t1, $t2")
        assert b.terminator is None

    def test_empty_block(self):
        b = BasicBlock(name="empty")
        assert b.terminator is None
        assert len(b) == 0


class TestValidate:
    def test_valid_conditional(self):
        b = block("beq $t0, $t1, t", taken_target="t", fallthrough="f")
        b.validate()

    def test_cti_in_middle_rejected(self):
        b = block("j x\nnop", taken_target="x")
        with pytest.raises(ConfigurationError):
            b.validate()

    def test_conditional_missing_edge_rejected(self):
        b = block("beq $t0, $t1, t", taken_target="t")
        with pytest.raises(ConfigurationError):
            b.validate()

    def test_jump_needs_target(self):
        b = block("j somewhere")
        b.taken_target = None
        with pytest.raises(ConfigurationError):
            b.validate()

    def test_register_indirect_must_have_dynamic_target(self):
        b = block("jr $ra", taken_target="bogus")
        with pytest.raises(ConfigurationError):
            b.validate()

    def test_register_indirect_return_valid(self):
        block("jr $ra").validate()

    def test_bad_bias_rejected(self):
        b = block("nop", taken_bias=1.5)
        with pytest.raises(ConfigurationError):
            b.validate()
