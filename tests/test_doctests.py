"""Run the doctests: examples in docstrings must stay true, the library's
and those of the text assembler and disassembler tests build from."""

import doctest

import pytest

import repro.cache.refill
import repro.isa.opcodes
import repro.isa.registers
import repro.core.tpi
import repro.physical.area
import repro.physical.energy
import repro.timing.sram
import repro.trace.io
import repro.utils.rng
import repro.utils.units
import repro.workload.table1
import tests.isa.assembler
import tests.isa.disassembler

MODULES = [
    repro.cache.refill,
    repro.isa.opcodes,
    repro.isa.registers,
    repro.core.tpi,
    repro.physical.area,
    repro.physical.energy,
    repro.timing.sram,
    repro.trace.io,
    repro.utils.rng,
    repro.utils.units,
    repro.workload.table1,
    tests.isa.assembler,
    tests.isa.disassembler,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0, f"{module.__name__} has no doctests to run"
