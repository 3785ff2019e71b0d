"""Static calibration of a synthesized program, read off its lowering."""

import numpy as np
import pytest

from repro.trace.compiled import BlockKind, CompiledProgram
from repro.workload import benchmark_by_name, synthesize_program


@pytest.fixture(scope="module")
def gcc():
    return CompiledProgram(synthesize_program(benchmark_by_name("gcc")))


class TestAnalyzeProgram:
    def test_mean_block_length(self, gcc):
        # Static blocks are short (the Table 2 expansion anchors imply ~3-5).
        assert 1.5 < gcc.static_words / len(gcc) < 8.0

    def test_cti_composition(self, gcc):
        kinds = np.bincount(gcc.kinds, minlength=len(BlockKind))
        assert kinds[BlockKind.CONDITIONAL] > 0
        assert kinds[BlockKind.CALL] > 0
        assert kinds[BlockKind.RETURN] > 0
        ctis = len(gcc) - kinds[BlockKind.FALLTHROUGH]
        assert 0.4 < kinds[BlockKind.CONDITIONAL] / ctis < 0.9
        assert 0.02 < gcc.indirect.sum() / ctis < 0.4

    def test_backward_fraction(self, gcc):
        conditional = np.flatnonzero(gcc.kinds == BlockKind.CONDITIONAL)
        backward = gcc.taken_ids[conditional] <= conditional
        assert 0.0 < backward.mean() < 1.0

    def test_mix_tracks_spec_statically(self, gcc):
        spec = benchmark_by_name("gcc")
        loads = gcc.load_counts.sum() / gcc.static_words
        assert loads == pytest.approx(spec.load_pct / 100, abs=0.06)
