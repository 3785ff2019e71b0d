"""Translation file tests."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.program.basic_block import BasicBlock
from repro.program.cfg import Procedure, Program
from repro.sched.translation import TranslationFile
from repro.trace.compiled import CompiledProgram
from tests.isa.assembler import assemble_block


def bb(name, text, **kwargs):
    return BasicBlock(name=name, instructions=assemble_block(text), **kwargs)


@pytest.fixture
def compiled():
    blocks = [
        bb("entry", "addu $t0, $t1, $t2\naddu $t3, $t4, $t5"),
        bb(
            "loop",
            "slt $v1, $t0, $t3\nbne $v1, $zero, loop",
            taken_target="loop",
            fallthrough="exit",
        ),
        bb("exit", "jr $ra"),
    ]
    blocks[0].fallthrough = "loop"
    return CompiledProgram(
        Program(name="t", procedures=[Procedure(name="p", blocks=blocks)])
    )


class TestTranslationFile:
    def test_zero_slots_is_identity(self, compiled):
        translation = TranslationFile(compiled, 0)
        assert np.array_equal(translation.new_lengths, compiled.lengths)
        assert np.array_equal(translation.new_addresses, compiled.canonical_addresses)
        assert translation.expansion_pct == 0.0

    def test_growth_shifts_following_addresses(self, compiled):
        translation = TranslationFile(compiled, 2)
        # loop's bne is backward: predicted taken; compare is adjacent so
        # r=0 and s=2 -> block grows by 2 words.
        assert translation.s_values[1] == 2
        assert translation.new_lengths[1] == compiled.lengths[1] + 2
        shift = (
            translation.new_addresses[2]
            - compiled.canonical_addresses[2]
        )
        assert shift == 2 * 4

    def test_skip_matches_schedule(self, compiled):
        translation = TranslationFile(compiled, 2)
        assert translation.skip_words[1] == 2  # predicted-taken conditional
        assert translation.skip_words[2] == 0  # indirect return: noops only

    def test_fallthrough_block_untouched(self, compiled):
        translation = TranslationFile(compiled, 3)
        assert translation.new_lengths[0] == compiled.lengths[0]
        assert translation.s_values[0] == 0

    def test_code_words(self, compiled):
        translation = TranslationFile(compiled, 1)
        assert translation.code_words == int(translation.new_lengths.sum())

    def test_address_lookup(self, compiled):
        translation = TranslationFile(compiled, 1)
        entry = compiled.names.index("entry")
        assert translation.new_addresses[entry] == compiled.text_base

    def test_negative_slots_rejected(self, compiled):
        with pytest.raises(ScheduleError):
            TranslationFile(compiled, -1)

    def test_expansion_increases_with_slots(self, compiled):
        pcts = [TranslationFile(compiled, b).expansion_pct for b in range(4)]
        assert pcts == sorted(pcts)
