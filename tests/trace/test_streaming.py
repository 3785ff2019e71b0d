"""Property tests: streaming/chunked execution is bit-identical to the oracle.

The contract under test is the one every cached trace depends on: the
production path (:meth:`TraceExecutor.run` / :meth:`iter_chunks`, chain
walking, any chunk size) produces *exactly* the arrays the original
block-at-a-time loop (:func:`tests.trace.oracles.run_reference`)
produces — same block ids, same taken flags, same restart count, same
RNG consumption.
"""

import numpy as np
import pytest

from repro.trace.executor import DEFAULT_CHUNK_BLOCKS, TraceExecutor
from repro.workload import TABLE1_SUITE, synthesize_program

from tests.trace.oracles import run_reference
from tests.trace.test_executor import call_program, loop_program


def _synthesized_program():
    # A real Table 1 benchmark: exercises calls, returns, switches
    # (computed gotos), indirect calls, and restarts together.
    return synthesize_program(TABLE1_SUITE[0], seed=97)


PROGRAMS = {
    "loop": lambda: loop_program(bias=0.6),
    "loop-restarting": lambda: loop_program(bias=0.05),
    "calls": call_program,
    "synthesized": _synthesized_program,
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestRunMatchesReference:
    def test_run_is_bit_identical(self, name):
        program = PROGRAMS[name]()
        ref = run_reference(program, 30_000, seed=11)
        got = TraceExecutor(program, seed=11).run(30_000)
        assert np.array_equal(got.block_ids, ref.block_ids)
        assert np.array_equal(got.went_taken, ref.went_taken)
        assert got.restarts == ref.restarts
        assert got.block_ids.dtype == ref.block_ids.dtype
        assert got.went_taken.dtype == ref.went_taken.dtype

    def test_chunked_concatenation_is_bit_identical(self, name):
        program = PROGRAMS[name]()
        ref = run_reference(program, 20_000, seed=23)
        # Chunk sizes deliberately include 1, non-divisors of the step
        # count, and one chunk covering everything.
        for chunk_blocks in (1, 7, 127, 1024, DEFAULT_CHUNK_BLOCKS):
            chunks = list(
                TraceExecutor(program, seed=23).iter_chunks(20_000, chunk_blocks)
            )
            ids = np.concatenate([c.block_ids for c in chunks])
            taken = np.concatenate([c.went_taken for c in chunks])
            assert np.array_equal(ids, ref.block_ids), chunk_blocks
            assert np.array_equal(taken, ref.went_taken), chunk_blocks
            assert chunks[-1].restarts == ref.restarts
            # Restart counts are cumulative and monotone across chunks.
            restart_series = [c.restarts for c in chunks]
            assert restart_series == sorted(restart_series)


class TestChunkShape:
    def test_peak_chunk_is_bounded(self):
        program = loop_program(bias=0.6)
        for chunk in TraceExecutor(program, seed=3).iter_chunks(50_000, 512):
            # Chunks may overrun by at most one chain (bounded length).
            assert len(chunk.block_ids) <= 512 + 128
            assert len(chunk.block_ids) == len(chunk.went_taken)

    def test_bad_chunk_size_rejected(self):
        from repro.errors import TraceError

        with pytest.raises(TraceError):
            list(TraceExecutor(loop_program(), seed=1).iter_chunks(100, 0))

    def test_bad_budget_rejected(self):
        from repro.errors import TraceError

        with pytest.raises(TraceError):
            list(TraceExecutor(loop_program(), seed=1).iter_chunks(0))
