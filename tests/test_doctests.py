"""Run the library's doctests: examples in docstrings must stay true."""

import doctest

import pytest

import repro.cache.refill
import repro.isa.assembler
import repro.isa.disassembler
import repro.isa.opcodes
import repro.isa.registers
import repro.core.tpi
import repro.physical.area
import repro.physical.energy
import repro.timing.sram
import repro.trace.io
import repro.utils.rng
import repro.utils.stats
import repro.utils.units
import repro.workload.table1

MODULES = [
    repro.cache.refill,
    repro.isa.assembler,
    repro.isa.disassembler,
    repro.isa.opcodes,
    repro.isa.registers,
    repro.core.tpi,
    repro.physical.area,
    repro.physical.energy,
    repro.timing.sram,
    repro.trace.io,
    repro.utils.rng,
    repro.utils.stats,
    repro.utils.units,
    repro.workload.table1,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0, f"{module.__name__} has no doctests to run"
