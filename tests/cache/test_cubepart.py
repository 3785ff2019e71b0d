"""The chunked cube driver: bit-identity, the LRU carry, fallback, memory.

The driver's only contract is that it is invisible: over any stream,
any chunk length, any block sizes, ways and set counts, and any worker
count — including a worker pool that dies mid-build — its cube must be
*bit-identical* to the unchunked one-shot engine on the same inputs.
"""

import os
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache.cubepart as cubepart
from repro.cache.cubepart import (
    partitioned_miss_cube,
    partitioned_miss_cube_from_addresses,
)
from repro.cache.fastsim import addresses_to_blocks, direct_mapped_miss_sweep
from repro.cache.misscube import (
    capacity_set_counts,
    miss_cube,
    miss_cube_from_addresses,
)
from repro.engine.executor import SweepExecutor
from repro.errors import ConfigurationError
from repro.obs.tracer import Tracer

BLOCKS = (4, 8, 16)

addresses = st.lists(st.integers(min_value=0, max_value=1 << 14), max_size=400)
block_sets = st.sets(st.sampled_from((1, 2, 4, 8, 16, 32)), min_size=1)
ways = st.integers(min_value=1, max_value=24)


@st.composite
def set_count_lists(draw, blocks):
    """Full capacity grids (every level down to one set) or sparse lists."""
    if draw(st.booleans()):
        capacity = max(blocks) << draw(st.integers(min_value=0, max_value=7))
        return capacity_set_counts(blocks, capacity)
    levels = draw(st.sets(st.integers(min_value=0, max_value=8), min_size=1))
    return [1 << k for k in levels]


@contextmanager
def chunked(chunk_refs):
    """Run builds with ``chunk_refs``-reference chunks."""
    saved = cubepart.CHUNK_REFS
    cubepart.CHUNK_REFS = chunk_refs
    try:
        yield
    finally:
        cubepart.CHUNK_REFS = saved


@pytest.fixture(scope="module")
def pool():
    executor = SweepExecutor(jobs=2)
    yield executor
    executor.shutdown()


def assert_cubes_identical(expected, got):
    assert dict(expected.references) == dict(got.references)
    assert expected.max_ways == got.max_ways
    assert set(expected.hits) == set(got.hits)
    for B in expected.hits:
        assert set(expected.hits[B]) == set(got.hits[B]), B
        for S in expected.hits[B]:
            assert np.array_equal(expected.hits[B][S], got.hits[B][S]), (B, S)


def _spans(roots, name=None):
    found = []
    stack = list(roots)
    while stack:
        span = stack.pop()
        if name is None or span.name == name:
            found.append(span)
        stack.extend(span.children)
    return found


def span_names(roots):
    return {span.name for span in _spans(roots)}


def off_by_one(sweep):
    """A direct-mapped sweep that counts one miss too many at one size."""

    def wrong(stream, set_counts):
        axis = sweep(stream, set_counts)
        axis[max(axis)] += 1
        return axis

    return wrong


def _chunks(stream, chunk_refs):
    return (stream[i : i + chunk_refs] for i in range(0, len(stream), chunk_refs))


class TestPartitionedEqualsSerial:
    @given(
        data=st.data(),
        addrs=addresses,
        blocks=block_sets,
        max_ways=ways,
    )
    @settings(max_examples=60, deadline=None)
    def test_out_of_core_any_chunking(self, data, addrs, blocks, max_ways):
        stream = np.array(addrs, dtype=np.int64)
        set_counts = data.draw(set_count_lists(tuple(sorted(blocks))))
        chunk_refs = data.draw(st.integers(1, len(stream) + 8))
        serial = miss_cube_from_addresses(stream, blocks, set_counts, max_ways)
        with chunked(chunk_refs):
            got = partitioned_miss_cube_from_addresses(
                stream, blocks, set_counts, max_ways
            )
        assert_cubes_identical(serial, got)

    @given(
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**16),
        blocks=block_sets,
        max_ways=ways,
    )
    @settings(max_examples=40, deadline=None)
    def test_per_block_streams_form(self, data, seed, blocks, max_ways):
        rng = np.random.default_rng(seed)
        streams = {
            B: rng.integers(0, 2048, size=int(rng.integers(0, 300))).astype(
                np.int64
            )
            for B in blocks
        }
        set_counts = data.draw(set_count_lists(tuple(sorted(blocks))))
        longest = max(len(stream) for stream in streams.values())
        chunk_refs = data.draw(st.integers(1, longest + 8))
        serial = miss_cube(streams, set_counts, max_ways)
        with chunked(chunk_refs):
            got = partitioned_miss_cube(streams, set_counts, max_ways)
        assert_cubes_identical(serial, got)

    @given(
        data=st.data(),
        addrs=addresses,
        blocks=block_sets,
        max_ways=ways,
    )
    @settings(max_examples=12, deadline=None)
    def test_both_forms_on_a_two_job_pool(
        self, pool, data, addrs, blocks, max_ways
    ):
        stream = np.array(addrs, dtype=np.int64)
        set_counts = data.draw(set_count_lists(tuple(sorted(blocks))))
        chunk_refs = data.draw(st.integers(1, len(stream) + 8))
        streams = {B: addresses_to_blocks(stream, B) for B in blocks}
        serial = miss_cube_from_addresses(stream, blocks, set_counts, max_ways)
        with chunked(chunk_refs):
            got = partitioned_miss_cube_from_addresses(
                stream, blocks, set_counts, max_ways, executor=pool
            )
            got_streams = partitioned_miss_cube(
                streams, set_counts, max_ways, executor=pool
            )
        assert_cubes_identical(serial, got)
        assert_cubes_identical(serial, got_streams)

    @given(
        data=st.data(),
        addrs=addresses,
        block_log2=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_check_matches_unchunked_sweep(self, data, addrs, block_log2):
        # The A=1 check is the W = 1 case of the carry: one resident
        # block per set in front of each chunk.
        block = 1 << block_log2
        stream = addresses_to_blocks(np.array(addrs, dtype=np.int64), block)
        drawn = data.draw(set_count_lists((block,)))
        set_counts = drawn[block] if isinstance(drawn, dict) else drawn
        chunk_refs = data.draw(st.integers(1, len(stream) + 8))
        got = cubepart._chunked_counts(
            "check", _chunks(stream, chunk_refs), block, set_counts, 8
        )
        assert got == direct_mapped_miss_sweep(stream, set_counts)

    @given(
        addrs=addresses,
        chunk_refs=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=25, deadline=None)
    def test_chunk_iterable_input_matches_array_input(self, addrs, chunk_refs):
        stream = np.array(addrs, dtype=np.int64)
        set_counts = capacity_set_counts(BLOCKS, 1024)
        serial = miss_cube_from_addresses(stream, BLOCKS, set_counts, 4)
        got = partitioned_miss_cube_from_addresses(
            _chunks(stream, chunk_refs), BLOCKS, set_counts, 4
        )
        assert_cubes_identical(serial, got)

    def test_full_capacity_grid_over_many_chunks(self):
        # Every level down to one set, over 20 chunks: the carry at the
        # finest level must stay exact at every coarser one.
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 15, size=20000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 8192)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 8)
        with chunked(1000):
            got = partitioned_miss_cube_from_addresses(addrs, BLOCKS, counts, 8)
        assert_cubes_identical(serial, got)

    def test_empty_stream(self):
        counts = capacity_set_counts(BLOCKS, 256)
        empty = np.empty(0, dtype=np.int64)
        serial = miss_cube_from_addresses(empty, BLOCKS, counts, 4)
        assert_cubes_identical(
            serial, partitioned_miss_cube_from_addresses(empty, BLOCKS, counts, 4)
        )
        assert_cubes_identical(
            serial, partitioned_miss_cube({B: empty for B in BLOCKS}, counts, 4)
        )


class TestParallelWorkers:
    def test_process_pool_reduce_is_identical(self):
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 1 << 14, size=30000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 4096)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 8)
        streams = {B: rng.integers(0, 4096, size=20000) for B in BLOCKS}
        serial_mem = miss_cube(streams, [8, 16, 32, 64], 4)
        executor = SweepExecutor(jobs=2)
        try:
            with chunked(7000):
                got = partitioned_miss_cube_from_addresses(
                    addrs, BLOCKS, counts, 8, executor=executor
                )
                got_mem = partitioned_miss_cube(
                    streams, [8, 16, 32, 64], 4, executor=executor
                )
        finally:
            executor.shutdown()
        assert_cubes_identical(serial, got)
        assert_cubes_identical(serial_mem, got_mem)

    def test_broken_pool_mid_reduce_falls_back_to_identical_counts(
        self, monkeypatch
    ):
        # The B = 8 cube task hard-exits inside any forked worker (a
        # real BrokenProcessPool, not a mock); the parent must finish
        # the build serially and still return bit-identical counts.
        rng = np.random.default_rng(12)
        addrs = rng.integers(0, 1 << 13, size=12000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 2048)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 4)
        monkeypatch.setattr(
            cubepart, "_FAULT_TASKS", (os.getpid(), frozenset({("cube", 8)}))
        )
        executor = SweepExecutor(jobs=2)
        tracer = Tracer()
        try:
            got = partitioned_miss_cube_from_addresses(
                addrs, BLOCKS, counts, 4, executor=executor, tracer=tracer
            )
        finally:
            executor.shutdown()
        assert_cubes_identical(serial, got)
        assert "cube.serial_fallback" in span_names(tracer.roots)

    def test_every_task_faulting_still_identical(self, monkeypatch):
        rng = np.random.default_rng(13)
        streams = {B: rng.integers(0, 1024, size=8000) for B in BLOCKS}
        serial = miss_cube(streams, [8, 16, 32], 4)
        monkeypatch.setattr(
            cubepart,
            "_FAULT_TASKS",
            (
                os.getpid(),
                frozenset((kind, B) for kind in cubepart.TASK_KINDS for B in BLOCKS),
            ),
        )
        executor = SweepExecutor(jobs=2)
        try:
            got = partitioned_miss_cube(streams, [8, 16, 32], 4, executor=executor)
        finally:
            executor.shutdown()
        assert_cubes_identical(serial, got)

    def test_stub_executor_that_always_crashes_falls_back(self):
        class _DeadExecutor:
            jobs = 4
            backend = "process"
            is_serial = False
            is_parallel = True

            def map(self, fn, items, chunk_size=None):
                raise ConfigurationError("sweep worker pool crashed twice")

        rng = np.random.default_rng(14)
        addrs = rng.integers(0, 1 << 12, size=9000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 1024)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 4)
        got = partitioned_miss_cube_from_addresses(
            addrs, BLOCKS, counts, 4, executor=_DeadExecutor()
        )
        assert_cubes_identical(serial, got)

    def test_pool_runs_every_task_even_when_an_earlier_build_forked_it(
        self, monkeypatch
    ):
        # Every cube task and every A=1 check must run in a worker --
        # also on a pool that an earlier build forked before this
        # build's spill existed (bench_cube's repeats reuse one executor
        # that way).
        rng = np.random.default_rng(17)
        addrs = rng.integers(0, 1 << 14, size=20000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 4096)
        streams = {B: addresses_to_blocks(addrs, B) for B in BLOCKS}
        expected = miss_cube_from_addresses(addrs, BLOCKS, counts, 8)
        in_parent = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                in_parent.append(name)  # a worker appends to its own copy
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(cubepart, "miss_cube", spy("miss_cube", miss_cube))
        monkeypatch.setattr(
            cubepart,
            "direct_mapped_miss_sweep",
            spy("sweep", cubepart.direct_mapped_miss_sweep),
        )
        executor = SweepExecutor(jobs=2)
        tracer = Tracer()
        try:
            builds = [
                partitioned_miss_cube_from_addresses(
                    addrs, BLOCKS, counts, 8, executor=executor, tracer=tracer
                ),
                partitioned_miss_cube_from_addresses(
                    addrs, BLOCKS, counts, 8, executor=executor, tracer=tracer
                ),
                partitioned_miss_cube(
                    streams, counts, 8, executor=executor, tracer=tracer
                ),
            ]
        finally:
            executor.shutdown()
        for got in builds:
            assert_cubes_identical(expected, got)
        assert in_parent == []
        reduces = _spans(tracer.roots, "cube.reduce")
        assert len(reduces) == 3
        for span in reduces:
            assert span.counters["fallback_tasks"] == 0
        assert "cube.serial_fallback" not in span_names(tracer.roots)


class TestCrossCheck:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_disagreeing_sweep_is_fatal_in_both_forms(self, monkeypatch, jobs):
        monkeypatch.setattr(
            cubepart,
            "direct_mapped_miss_sweep",
            off_by_one(cubepart.direct_mapped_miss_sweep),
        )
        rng = np.random.default_rng(18)
        addrs = rng.integers(0, 1 << 12, size=6000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 1024)
        streams = {B: addresses_to_blocks(addrs, B) for B in BLOCKS}
        executor = SweepExecutor(jobs=jobs)
        try:
            with pytest.raises(RuntimeError, match="A=1 base disagrees"):
                partitioned_miss_cube_from_addresses(
                    addrs, BLOCKS, counts, 4, executor=executor
                )
            with pytest.raises(RuntimeError, match="A=1 base disagrees"):
                partitioned_miss_cube(streams, counts, 4, executor=executor)
        finally:
            executor.shutdown()


class TestObservability:
    def test_spill_reduce_and_progress_spans(self):
        rng = np.random.default_rng(15)
        addrs = rng.integers(0, 1 << 12, size=5000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 1024)
        tracer = Tracer()
        partitioned_miss_cube_from_addresses(
            addrs, BLOCKS, counts, 4, tracer=tracer
        )
        names = span_names(tracer.roots)
        assert {"cube.spill", "cube.reduce", "cube.progress"} <= names
        (spill,) = _spans(tracer.roots, "cube.spill")
        assert spill.counters["references"] == len(addrs)

    def test_reduce_attributes_worker_seconds_by_kind(self):
        rng = np.random.default_rng(20)
        addrs = rng.integers(0, 1 << 12, size=5000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 1024)
        tracer = Tracer()
        partitioned_miss_cube_from_addresses(
            addrs, BLOCKS, counts, 4, tracer=tracer
        )
        (reduce,) = _spans(tracer.roots, "cube.reduce")
        # One cube task and one A=1 check per block size.
        assert reduce.attrs["tasks"] == 2 * len(BLOCKS)
        assert reduce.attrs["chunk_refs"] == cubepart.CHUNK_REFS
        for kind in ("cube_s", "check_s"):
            assert reduce.counters[kind] > 0
        (beat,) = [
            s for s in _spans(tracer.roots, "cube.progress")
            if "tasks_reduced" in s.counters
        ]
        assert beat.counters["tasks_reduced"] == 2 * len(BLOCKS)

    def test_progress_counters_accumulate(self):
        rng = np.random.default_rng(16)
        addrs = rng.integers(0, 1 << 12, size=4000).astype(np.int64)
        tracer = Tracer()
        with chunked(10):
            partitioned_miss_cube_from_addresses(
                addrs, BLOCKS, [32, 64], 2, tracer=tracer
            )
        beats = _spans(tracer.roots, "cube.progress")
        consumed = [
            s.counters["references_consumed"]
            for s in beats
            if "references_consumed" in s.counters
        ]
        # 400 spill chunks, one heartbeat every _BEAT_CHUNKS of them.
        every = 10 * cubepart._BEAT_CHUNKS
        assert sorted(consumed) == list(range(every, len(addrs) + 1, every))


class TestValidation:
    def test_rejects_bad_geometry_before_any_task(self):
        with pytest.raises(ConfigurationError):
            partitioned_miss_cube({4: np.arange(4)}, [3], 2)
        with pytest.raises(ConfigurationError):
            partitioned_miss_cube_from_addresses(np.arange(4), [4], [4], 0)
        with pytest.raises(ConfigurationError):
            partitioned_miss_cube_from_addresses(np.arange(4), [6], [4], 2)


class TestMemory:
    def test_peak_heap_does_not_grow_with_the_chunk_count(self):
        # The same address-form cube over 8 chunks and over 2: each task
        # holds one chunk plus its carry, never the whole stream, so
        # quartering the chunk must not raise the peak -- it lowers it.
        rng = np.random.default_rng(21)
        addrs = rng.integers(0, 1 << 18, size=160_000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 4096)

        def peak(chunks):
            with chunked(len(addrs) // chunks):
                tracemalloc.start()
                try:
                    partitioned_miss_cube_from_addresses(addrs, BLOCKS, counts, 8)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        eight, two = peak(8), peak(2)
        assert eight <= 1.25 * two
        assert eight < two / 2
