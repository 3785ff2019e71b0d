"""Register model tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.registers import GP, RA, REGISTER_COUNT, SP, ZERO, Register
from repro.program.dependence import _STABLE_BASES
from tests.isa.assembler import parse_register


class TestRegister:
    def test_value_semantics(self):
        assert Register(4) == Register(4)
        assert hash(Register(4)) == hash(Register(4))
        assert Register(4) != Register(5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Register(32)
        with pytest.raises(ValueError):
            Register(-1)

    def test_conventional_names(self):
        assert ZERO.name == "$zero"
        assert Register(2).name == "$v0"
        assert Register(4).name == "$a0"
        assert Register(8).name == "$t0"
        assert Register(16).name == "$s0"
        assert GP.name == "$gp"
        assert SP.name == "$sp"
        assert RA.name == "$ra"

    def test_stable_base_registers(self):
        # $gp/$sp/$fp rarely change; they anchor the epsilon analysis.
        def stable(register):
            return bool(_STABLE_BASES >> register.number & 1)

        assert stable(GP)
        assert stable(SP)
        assert stable(Register(30))
        assert not stable(RA)
        assert not stable(Register(8))


class TestParsing:
    @given(st.integers(min_value=0, max_value=REGISTER_COUNT - 1))
    def test_roundtrip_by_name(self, number):
        assert parse_register(Register(number).name).number == number

    @given(st.integers(min_value=0, max_value=REGISTER_COUNT - 1))
    def test_numeric_forms(self, number):
        assert parse_register(f"${number}").number == number
        assert parse_register(f"r{number}").number == number

    def test_paper_fragment_style(self):
        # The paper writes "lw r3, 100(r5)".
        assert parse_register("r5").number == 5

    def test_case_insensitive(self):
        assert parse_register("$SP") == SP

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_register("$bogus")

    def test_out_of_range_numeric_rejected(self):
        with pytest.raises(ValueError):
            parse_register("$99")
