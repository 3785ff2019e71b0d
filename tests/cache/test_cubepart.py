"""The chunked cube driver: bit-identity, the LRU carry, dead pools, memory.

The driver's only contract is that it is invisible: over any stream,
any chunk length, any block sizes, ways and set counts, and any worker
count — including a worker pool that dies mid-build — its cube must be
*bit-identical* to the unchunked one-shot engine on the same inputs.
The driver reads files in place, so every test writes its streams to a
file first (the ``files`` fixture).
"""

import itertools
import os
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache.cubepart as cubepart
from repro.cache.cubepart import (
    StreamFile,
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
from repro.trace.multiprogram import interleave_chunks

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
def files(tmp_path_factory):
    """``files(*programs, quanta=None)`` writes the programs back to back
    into a fresh file and returns its description; by default each
    program is one quantum, so the stream is their concatenation."""
    directory = tmp_path_factory.mktemp("streams")
    names = itertools.count()

    def write(*programs, quanta=None):
        path = directory / f"s{next(names)}"
        arrays = [np.asarray(p, dtype=np.int64) for p in programs]
        with open(path, "wb") as out:
            for array in arrays:
                out.write(array.tobytes())
        lengths = tuple(len(a) for a in arrays)
        if quanta is None:
            quanta = tuple(max(1, n) for n in lengths)
        return StreamFile(str(path), lengths, tuple(quanta))

    return write


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


def dying_in_workers(monkeypatch, tasks):
    """Make the listed ``(kind, block_words)`` tasks hard-exit in any
    forked worker, as an OOM kill would; in this process they run.
    Workers forked after the patch inherit it."""
    parent, real = os.getpid(), cubepart._chunked_counts

    def counts(kind, chunks, block_words, set_counts, max_ways):
        if os.getpid() != parent and (kind, block_words) in tasks:
            os._exit(1)
        return real(kind, chunks, block_words, set_counts, max_ways)

    monkeypatch.setattr(cubepart, "_chunked_counts", counts)


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
    def test_out_of_core_any_chunking(self, files, data, addrs, blocks, max_ways):
        stream = np.array(addrs, dtype=np.int64)
        set_counts = data.draw(set_count_lists(tuple(sorted(blocks))))
        chunk_refs = data.draw(st.integers(1, len(stream) + 8))
        serial = miss_cube_from_addresses(stream, blocks, set_counts, max_ways)
        with chunked(chunk_refs):
            got = partitioned_miss_cube_from_addresses(
                files(stream), blocks, set_counts, max_ways
            )
        assert_cubes_identical(serial, got)

    @given(
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**16),
        blocks=block_sets,
        max_ways=ways,
    )
    @settings(max_examples=40, deadline=None)
    def test_per_block_streams_form(self, files, data, seed, blocks, max_ways):
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
        piece_refs = data.draw(st.integers(1, longest + 8))
        serial = miss_cube(streams, set_counts, max_ways)
        with chunked(chunk_refs):
            got = partitioned_miss_cube(
                {B: files(stream) for B, stream in streams.items()},
                set_counts,
                max_ways,
            )
            # The same streams as programs of another length, each taken
            # whole as one quantum: the tasks gather them into chunks.
            got_pieces = partitioned_miss_cube(
                {
                    B: files(*_chunks(stream, piece_refs))
                    for B, stream in streams.items()
                },
                set_counts,
                max_ways,
            )
        assert_cubes_identical(serial, got)
        assert_cubes_identical(serial, got_pieces)

    @given(
        data=st.data(),
        addrs=addresses,
        blocks=block_sets,
        max_ways=ways,
    )
    @settings(max_examples=12, deadline=None)
    def test_both_forms_on_a_two_job_pool(
        self, pool, files, data, addrs, blocks, max_ways
    ):
        stream = np.array(addrs, dtype=np.int64)
        set_counts = data.draw(set_count_lists(tuple(sorted(blocks))))
        chunk_refs = data.draw(st.integers(1, len(stream) + 8))
        streams = {B: addresses_to_blocks(stream, B) for B in blocks}
        serial = miss_cube_from_addresses(stream, blocks, set_counts, max_ways)
        with chunked(chunk_refs):
            got = partitioned_miss_cube_from_addresses(
                files(stream), blocks, set_counts, max_ways, executor=pool
            )
            got_streams = partitioned_miss_cube(
                {B: files(stream) for B, stream in streams.items()},
                set_counts,
                max_ways,
                executor=pool,
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
        seed=st.integers(min_value=0, max_value=2**16),
        quanta=st.lists(st.integers(1, 40), min_size=1, max_size=5),
        chunk_refs=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=25, deadline=None)
    def test_per_program_file_reads_as_interleave_chunks(
        self, files, seed, quanta, chunk_refs
    ):
        # A file of programs back to back, read by its quanta, is their
        # round-robin interleave -- piece by piece, and in the cube.
        rng = np.random.default_rng(seed)
        programs = [
            rng.integers(0, 1 << 12, size=int(rng.integers(0, 200)))
            for _ in quanta
        ]
        stream = files(*programs, quanta=quanta)
        expected = interleave_chunks(programs, quanta)
        pieces = list(stream)
        assert all(0 < len(piece) <= max(quanta) for piece in pieces)
        np.testing.assert_array_equal(
            np.concatenate(pieces) if pieces else np.empty(0, np.int64), expected
        )
        set_counts = capacity_set_counts(BLOCKS, 1024)
        serial = miss_cube_from_addresses(expected, BLOCKS, set_counts, 4)
        with chunked(chunk_refs):
            got = partitioned_miss_cube_from_addresses(stream, BLOCKS, set_counts, 4)
        assert_cubes_identical(serial, got)

    def test_full_capacity_grid_over_many_chunks(self, files):
        # Every level down to one set, over 20 chunks: the carry at the
        # finest level must stay exact at every coarser one.
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 15, size=20000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 8192)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 8)
        with chunked(1000):
            got = partitioned_miss_cube_from_addresses(
                files(addrs), BLOCKS, counts, 8
            )
        assert_cubes_identical(serial, got)

    def test_empty_stream(self, files):
        counts = capacity_set_counts(BLOCKS, 256)
        empty = np.empty(0, dtype=np.int64)
        serial = miss_cube_from_addresses(empty, BLOCKS, counts, 4)
        assert_cubes_identical(
            serial,
            partitioned_miss_cube_from_addresses(files(empty), BLOCKS, counts, 4),
        )
        assert_cubes_identical(
            serial, partitioned_miss_cube({B: files(empty) for B in BLOCKS}, counts, 4)
        )


class TestParallelWorkers:
    def test_process_pool_reduce_is_identical(self, files):
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
                    files(addrs), BLOCKS, counts, 8, executor=executor
                )
                got_mem = partitioned_miss_cube(
                    {B: files(stream) for B, stream in streams.items()},
                    [8, 16, 32, 64],
                    4,
                    executor=executor,
                )
        finally:
            executor.shutdown()
        assert_cubes_identical(serial, got)
        assert_cubes_identical(serial_mem, got_mem)

    def test_one_worker_killed_mid_build_is_identical(self, files):
        # The worker that takes the third task dies once (a real
        # BrokenProcessPool); the executor re-dispatches the unfinished
        # tasks on a fresh pool, and the counts stay bit-identical.
        rng = np.random.default_rng(16)
        addrs = rng.integers(0, 1 << 13, size=12000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 2048)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 4)
        executor = SweepExecutor(jobs=2)
        executor.inject_worker_exit(2)
        executor.tracer = tracer = Tracer()
        try:
            got = partitioned_miss_cube_from_addresses(
                files(addrs), BLOCKS, counts, 4, executor=executor, tracer=tracer
            )
        finally:
            executor.shutdown()
        assert_cubes_identical(serial, got)
        (mapped,) = _spans(tracer.roots, "executor.map")
        assert mapped.counters["pool_restarts"] == 1
        assert "executor.serial_fallback" not in span_names(tracer.roots)

    def test_broken_pool_mid_reduce_falls_back_to_identical_counts(
        self, monkeypatch, files
    ):
        # The B = 8 cube task hard-exits inside any forked worker (a
        # real BrokenProcessPool, not a mock); the executor must finish
        # the build in the parent and still return bit-identical counts.
        rng = np.random.default_rng(12)
        addrs = rng.integers(0, 1 << 13, size=12000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 2048)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 4)
        dying_in_workers(monkeypatch, {("cube", 8)})
        executor = SweepExecutor(jobs=2)
        executor.tracer = tracer = Tracer()
        try:
            got = partitioned_miss_cube_from_addresses(
                files(addrs), BLOCKS, counts, 4, executor=executor, tracer=tracer
            )
        finally:
            executor.shutdown()
        assert_cubes_identical(serial, got)
        assert "executor.serial_fallback" in span_names(tracer.roots)

    def test_every_task_faulting_still_identical(self, monkeypatch, files):
        rng = np.random.default_rng(13)
        streams = {B: rng.integers(0, 1024, size=8000) for B in BLOCKS}
        serial = miss_cube(streams, [8, 16, 32], 4)
        # Every worker dies: the pool is dead for good, and the parent
        # runs the whole task list, each task once.
        dying_in_workers(
            monkeypatch, {(kind, B) for kind in cubepart.TASK_KINDS for B in BLOCKS}
        )
        executor = SweepExecutor(jobs=2)
        executor.tracer = tracer = Tracer()
        try:
            got = partitioned_miss_cube(
                {B: files(stream) for B, stream in streams.items()},
                [8, 16, 32],
                4,
                executor=executor,
                tracer=tracer,
            )
        finally:
            executor.shutdown()
        assert_cubes_identical(serial, got)
        (fallback,) = _spans(tracer.roots, "executor.serial_fallback")
        assert fallback.counters["items"] == 2 * len(BLOCKS)

    def test_pool_runs_every_task_even_when_an_earlier_build_forked_it(
        self, monkeypatch, files
    ):
        # Every cube task and every A=1 check must run in a worker --
        # also on a pool that an earlier build forked before this
        # build's input file existed (bench_cube's repeats reuse one
        # executor that way).
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
        executor.tracer = tracer = Tracer()
        try:
            builds = [
                partitioned_miss_cube_from_addresses(
                    files(addrs), BLOCKS, counts, 8, executor=executor, tracer=tracer
                ),
                partitioned_miss_cube_from_addresses(
                    files(addrs), BLOCKS, counts, 8, executor=executor, tracer=tracer
                ),
                partitioned_miss_cube(
                    {B: files(stream) for B, stream in streams.items()},
                    counts,
                    8,
                    executor=executor,
                    tracer=tracer,
                ),
            ]
        finally:
            executor.shutdown()
        for got in builds:
            assert_cubes_identical(expected, got)
        assert in_parent == []
        reduces = _spans(tracer.roots, "cube.reduce")
        assert len(reduces) == 3
        assert "executor.serial_fallback" not in span_names(tracer.roots)


class TestCrossCheck:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_disagreeing_sweep_is_fatal_in_both_forms(self, monkeypatch, files, jobs):
        monkeypatch.setattr(
            cubepart,
            "direct_mapped_miss_sweep",
            off_by_one(cubepart.direct_mapped_miss_sweep),
        )
        rng = np.random.default_rng(18)
        addrs = rng.integers(0, 1 << 12, size=6000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 1024)
        streams = {B: files(addresses_to_blocks(addrs, B)) for B in BLOCKS}
        executor = SweepExecutor(jobs=jobs)
        try:
            with pytest.raises(RuntimeError, match="A=1 base disagrees"):
                partitioned_miss_cube_from_addresses(
                    files(addrs), BLOCKS, counts, 4, executor=executor
                )
            with pytest.raises(RuntimeError, match="A=1 base disagrees"):
                partitioned_miss_cube(streams, counts, 4, executor=executor)
        finally:
            executor.shutdown()


class TestTaskErrors:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_task_error_surfaces_once_without_a_fallback(
        self, monkeypatch, files, jobs
    ):
        # A task that raises a ConfigurationError of its own is not a
        # dead pool: the build must neither re-run its tasks in the
        # parent nor report a serial fallback.  The failing task, the
        # B = 16 check, is the last in the list, so at one job every
        # task runs before the error.
        calls = []
        real = cubepart._chunked_counts

        def failing(kind, chunks, block_words, set_counts, max_ways):
            calls.append((kind, block_words))  # a worker appends to its own copy
            if (kind, block_words) == ("check", 16):
                raise ConfigurationError("the B=16 check failed on its own")
            return real(kind, chunks, block_words, set_counts, max_ways)

        monkeypatch.setattr(cubepart, "_chunked_counts", failing)
        rng = np.random.default_rng(19)
        addrs = rng.integers(0, 1 << 12, size=6000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 1024)
        executor = SweepExecutor(jobs=jobs)
        executor.tracer = tracer = Tracer()
        try:
            with pytest.raises(ConfigurationError, match="on its own"):
                partitioned_miss_cube_from_addresses(
                    files(addrs), BLOCKS, counts, 4, executor=executor, tracer=tracer
                )
        finally:
            executor.shutdown()
        assert "executor.serial_fallback" not in span_names(tracer.roots)
        (reduce,) = _spans(tracer.roots, "cube.reduce")
        if jobs == 1:
            tasks = [(kind, B) for kind in cubepart.TASK_KINDS for B in BLOCKS]
            assert sorted(calls) == sorted(tasks)
            assert calls[-1] == ("check", 16)
        else:
            assert calls == []

    def test_a_missing_input_file_is_a_task_error(self, files):
        stream = files(np.arange(100))
        os.remove(stream.path)
        executor = SweepExecutor(jobs=2)
        executor.tracer = tracer = Tracer()
        try:
            with pytest.raises(FileNotFoundError):
                partitioned_miss_cube_from_addresses(
                    stream, BLOCKS, [4, 8], 2, executor=executor, tracer=tracer
                )
        finally:
            executor.shutdown()
        assert "executor.serial_fallback" not in span_names(tracer.roots)


class TestSpillChunks:
    @pytest.mark.parametrize("piece_refs", [1, 3, 10, 64, 2000])
    def test_pieces_are_gathered_into_whole_chunks(self, piece_refs):
        # However a stream is cut into pieces (a program's quanta,
        # typically), a task reads chunks of exactly the chunk length in
        # int64 references (the last one shorter), as from one piece.
        rng = np.random.default_rng(22)
        stream = rng.integers(0, 1 << 10, size=1003).astype(np.int32)
        pieces = list(cubepart._iter_chunks(_chunks(stream, piece_refs), 10))
        whole = list(cubepart._iter_chunks([stream], 10))
        for chunks in (pieces, whole):
            assert [len(c) for c in chunks] == [10] * 100 + [3]
            assert all(c.dtype == np.int64 for c in chunks)
            np.testing.assert_array_equal(np.concatenate(chunks), stream)


class TestObservability:
    def test_reduce_and_progress_spans_without_a_spill(self, files):
        rng = np.random.default_rng(15)
        addrs = rng.integers(0, 1 << 12, size=5000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 1024)
        tracer = Tracer()
        partitioned_miss_cube_from_addresses(
            files(addrs), BLOCKS, counts, 4, tracer=tracer
        )
        names = span_names(tracer.roots)
        assert {"cube.reduce", "cube.progress"} <= names
        # The tasks read the input where it lies: no copy pass, no span.
        assert "cube.spill" not in names

    def test_reduce_attributes_worker_seconds_by_kind(self, files):
        rng = np.random.default_rng(20)
        addrs = rng.integers(0, 1 << 12, size=5000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 1024)
        tracer = Tracer()
        partitioned_miss_cube_from_addresses(
            files(addrs), BLOCKS, counts, 4, tracer=tracer
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


class TestValidation:
    def test_rejects_bad_geometry_before_any_task(self, files):
        stream = files(np.arange(4))
        with pytest.raises(ConfigurationError):
            partitioned_miss_cube({4: stream}, [3], 2)
        with pytest.raises(ConfigurationError):
            partitioned_miss_cube_from_addresses(stream, [4], [4], 0)
        with pytest.raises(ConfigurationError):
            partitioned_miss_cube_from_addresses(stream, [6], [4], 2)


class TestMemory:
    def test_peak_heap_does_not_grow_with_the_chunk_count(self, files):
        # The same address-form cube over 8 chunks and over 2: each task
        # holds one chunk plus its carry, never the whole stream, so
        # quartering the chunk must not raise the peak -- it lowers it.
        rng = np.random.default_rng(21)
        addrs = rng.integers(0, 1 << 18, size=160_000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 4096)
        stream = files(addrs)

        def peak(chunks):
            with chunked(len(addrs) // chunks):
                tracemalloc.start()
                try:
                    partitioned_miss_cube_from_addresses(stream, BLOCKS, counts, 8)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        eight, two = peak(8), peak(2)
        assert eight <= 1.25 * two
        assert eight < two / 2
