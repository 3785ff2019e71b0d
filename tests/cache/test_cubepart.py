"""Set-partitioned parallel cube: bit-identity, fallback, out-of-core.

The partitioned engine's only contract is that it is invisible: over
any stream, any chunk size, any partition count, and any worker count —
including a worker pool that dies mid-reduce — the merged cube must be
*bit-identical* to the serial one-shot engine on the same inputs.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache.cubepart as cubepart
from repro.cache.cubepart import (
    partitioned_miss_cube,
    partitioned_miss_cube_from_addresses,
)
from repro.cache.fastsim import addresses_to_blocks
from repro.cache.misscube import (
    capacity_set_counts,
    miss_cube,
    miss_cube_from_addresses,
)
from repro.engine.executor import SweepExecutor
from repro.errors import ConfigurationError
from repro.obs.tracer import Tracer

BLOCKS = (4, 8, 16)

addresses = st.lists(st.integers(min_value=0, max_value=4095), max_size=400)


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


class TestPartitionedEqualsSerial:
    @given(
        addrs=addresses,
        partition_log2=st.integers(min_value=0, max_value=4),
        chunk_refs=st.integers(min_value=1, max_value=64),
        levels=st.sets(st.integers(min_value=0, max_value=6), min_size=1),
        max_ways=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_out_of_core_any_chunking_any_partitioning(
        self, addrs, partition_log2, chunk_refs, levels, max_ways
    ):
        stream = np.array(addrs, dtype=np.int64)
        set_counts = [1 << k for k in levels]
        serial = miss_cube_from_addresses(stream, BLOCKS, set_counts, max_ways)
        got = partitioned_miss_cube_from_addresses(
            stream,
            BLOCKS,
            set_counts,
            max_ways,
            partitions=1 << partition_log2,
            chunk_refs=chunk_refs,
        )
        assert_cubes_identical(serial, got)

    @given(
        addrs=addresses,
        partition_log2=st.integers(min_value=0, max_value=4),
        chunk_refs=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=25, deadline=None)
    def test_chunk_iterable_input_matches_array_input(
        self, addrs, partition_log2, chunk_refs
    ):
        stream = np.array(addrs, dtype=np.int64)
        set_counts = capacity_set_counts(BLOCKS, 1024)
        serial = miss_cube_from_addresses(stream, BLOCKS, set_counts, 4)
        pieces = (
            stream[i : i + chunk_refs] for i in range(0, len(stream), chunk_refs)
        )
        got = partitioned_miss_cube_from_addresses(
            pieces,
            BLOCKS,
            set_counts,
            4,
            partitions=1 << partition_log2,
            chunk_refs=chunk_refs,
        )
        assert_cubes_identical(serial, got)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        partition_log2=st.integers(min_value=0, max_value=5),
        max_ways=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_per_block_streams_form(self, seed, partition_log2, max_ways):
        rng = np.random.default_rng(seed)
        streams = {
            B: rng.integers(0, 2048, size=int(rng.integers(0, 600))).astype(
                np.int64
            )
            for B in BLOCKS
        }
        set_counts = [1, 2, 4, 8, 16, 32, 64]
        serial = miss_cube(streams, set_counts, max_ways)
        got = partitioned_miss_cube(
            streams,
            set_counts,
            max_ways,
            partitions=1 << partition_log2,
            cross_check=True,
        )
        assert_cubes_identical(serial, got)

    def test_coarse_residue_full_capacity_grid(self):
        # capacity_set_counts covers every level down to one set, so
        # partitioning leaves a coarse residue at every block size; the
        # residue must come back from its whole-stream slices exactly.
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 15, size=20000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 8192)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 8)
        got = partitioned_miss_cube_from_addresses(
            addrs, BLOCKS, counts, 8, partitions=8
        )
        assert_cubes_identical(serial, got)

    def test_empty_stream(self):
        counts = capacity_set_counts(BLOCKS, 256)
        serial = miss_cube_from_addresses(
            np.empty(0, dtype=np.int64), BLOCKS, counts, 4
        )
        got = partitioned_miss_cube_from_addresses(
            np.empty(0, dtype=np.int64), BLOCKS, counts, 4, partitions=8
        )
        assert_cubes_identical(serial, got)


class TestParallelWorkers:
    def test_process_pool_reduce_is_identical(self):
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 1 << 14, size=30000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 4096)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 8)
        executor = SweepExecutor(jobs=2)
        try:
            got = partitioned_miss_cube_from_addresses(
                addrs, BLOCKS, counts, 8, partitions=8, executor=executor
            )
            streams = {B: rng.integers(0, 4096, size=20000) for B in BLOCKS}
            serial_mem = miss_cube(streams, [8, 16, 32, 64], 4)
            got_mem = partitioned_miss_cube(
                streams, [8, 16, 32, 64], 4, partitions=8, executor=executor
            )
        finally:
            executor.shutdown()
        assert_cubes_identical(serial, got)
        assert_cubes_identical(serial_mem, got_mem)

    def test_broken_pool_mid_reduce_falls_back_to_identical_counts(
        self, monkeypatch
    ):
        # Partition 1's reduce hard-exits inside any forked worker (a
        # real BrokenProcessPool, not a mock); the parent must finish
        # the reduce serially and still merge bit-identical counts.
        rng = np.random.default_rng(12)
        addrs = rng.integers(0, 1 << 13, size=12000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 2048)
        serial = miss_cube_from_addresses(addrs, BLOCKS, counts, 4)
        monkeypatch.setattr(
            cubepart, "_FAULT_PARTS", (os.getpid(), frozenset({1}))
        )
        executor = SweepExecutor(jobs=2)
        tracer = Tracer()
        try:
            got = partitioned_miss_cube_from_addresses(
                addrs,
                BLOCKS,
                counts,
                4,
                partitions=8,
                executor=executor,
                tracer=tracer,
            )
        finally:
            executor.shutdown()
        assert_cubes_identical(serial, got)
        assert "cube.serial_fallback" in span_names(tracer.roots)

    def test_every_partition_faulting_still_identical(self, monkeypatch):
        rng = np.random.default_rng(13)
        streams = {B: rng.integers(0, 1024, size=8000) for B in BLOCKS}
        serial = miss_cube(streams, [8, 16, 32], 4)
        monkeypatch.setattr(
            cubepart, "_FAULT_PARTS", (os.getpid(), frozenset(range(8)))
        )
        executor = SweepExecutor(jobs=2)
        try:
            got = partitioned_miss_cube(
                streams, [8, 16, 32], 4, partitions=8, executor=executor
            )
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
            addrs, BLOCKS, counts, 4, partitions=4, executor=_DeadExecutor()
        )
        assert_cubes_identical(serial, got)

    def test_pool_runs_every_task_even_when_an_earlier_build_forked_it(
        self, monkeypatch
    ):
        # Production capacity grids have a coarse residue, and the
        # cross-check walks the whole stream: every one of those tasks,
        # like every fine partition, must run in a worker -- also on a
        # pool that an earlier build forked before this build's arrays
        # existed (bench_cube's repeats reuse one executor that way).
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
                    streams,
                    counts,
                    8,
                    executor=executor,
                    tracer=tracer,
                    cross_check=True,
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
                    addrs, BLOCKS, counts, 4, executor=executor, cross_check=True
                )
            with pytest.raises(RuntimeError, match="A=1 base disagrees"):
                partitioned_miss_cube(
                    streams, counts, 4, executor=executor, cross_check=True
                )
        finally:
            executor.shutdown()

    def test_no_cross_check_runs_no_sweep(self, monkeypatch):
        def forbidden(stream, set_counts):
            raise AssertionError("cross_check=False ran the A=1 sweep")

        monkeypatch.setattr(cubepart, "direct_mapped_miss_sweep", forbidden)
        rng = np.random.default_rng(19)
        addrs = rng.integers(0, 1 << 12, size=3000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 1024)
        expected = miss_cube_from_addresses(addrs, BLOCKS, counts, 4)
        got = partitioned_miss_cube_from_addresses(
            addrs, BLOCKS, counts, 4, cross_check=False
        )
        assert_cubes_identical(expected, got)


class TestObservability:
    def test_partition_reduce_and_progress_spans(self):
        rng = np.random.default_rng(15)
        addrs = rng.integers(0, 1 << 12, size=5000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 1024)
        tracer = Tracer()
        partitioned_miss_cube_from_addresses(
            addrs,
            BLOCKS,
            counts,
            4,
            partitions=8,
            tracer=tracer,
            progress_refs=1000,
        )
        names = span_names(tracer.roots)
        assert "cube.partition" in names
        assert "cube.reduce" in names
        assert "cube.progress" in names  # heartbeat for liveness
        assert "cube.coarse" in names  # capacity grid has sub-threshold levels

    def test_reduce_attributes_worker_seconds_by_kind(self):
        rng = np.random.default_rng(20)
        addrs = rng.integers(0, 1 << 12, size=5000).astype(np.int64)
        counts = capacity_set_counts(BLOCKS, 1024)
        tracer = Tracer()
        partitioned_miss_cube_from_addresses(
            addrs, BLOCKS, counts, 4, partitions=8, tracer=tracer
        )
        (reduce,) = _spans(tracer.roots, "cube.reduce")
        # 12 coarse slices (levels below 32/16/8 sets at B = 4/8/16),
        # one A=1 sweep per block size, 8 partitions.
        assert reduce.attrs["tasks"] == 12 + 3 + 8
        for kind in ("coarse_s", "check_s", "fine_s"):
            assert reduce.counters[kind] > 0
        (coarse,) = _spans(tracer.roots, "cube.coarse")
        assert coarse.attrs == {"blocks": "4,8,16", "levels": 12}
        assert coarse.counters["worker_s"] == reduce.counters["coarse_s"]
        (beat,) = [
            s for s in _spans(tracer.roots, "cube.progress")
            if "partitions_reduced" in s.counters
        ]
        assert beat.counters["partitions_reduced"] == 8

    def test_progress_counters_accumulate(self):
        rng = np.random.default_rng(16)
        addrs = rng.integers(0, 1 << 12, size=4000).astype(np.int64)
        tracer = Tracer()
        partitioned_miss_cube_from_addresses(
            addrs,
            BLOCKS,
            [32, 64],
            2,
            partitions=4,
            tracer=tracer,
            progress_refs=500,
        )
        beats = []
        stack = list(tracer.roots)
        while stack:
            span = stack.pop()
            if span.name == "cube.progress":
                beats.append(span)
            stack.extend(span.children)
        assert beats
        reduced = [
            s.counters["partitions_reduced"]
            for s in beats
            if "partitions_reduced" in s.counters
        ]
        assert reduced and max(reduced) == 4
        consumed = [
            s.counters["references_consumed"]
            for s in beats
            if "references_consumed" in s.counters
        ]
        assert consumed and max(consumed) == len(addrs)


class TestValidationAndClosure:
    def test_rejects_non_power_of_two_partitions(self):
        with pytest.raises(ConfigurationError):
            partitioned_miss_cube({4: np.arange(4)}, [4], 2, partitions=3)
        with pytest.raises(ConfigurationError):
            partitioned_miss_cube_from_addresses(
                np.arange(4), [4], [4], 2, partitions=0
            )

    def test_rejects_bad_chunk_refs(self):
        with pytest.raises(ConfigurationError):
            partitioned_miss_cube_from_addresses(
                np.arange(4), [4], [4], 2, chunk_refs=0
            )

    def test_address_form_closure_thresholds(self):
        # Address streams are partitioned on the coarsest block size's
        # index bits, so a finer block size needs log2(Bmax/B) extra
        # set-index bits before the partition bits are contained: with
        # P = 8 and blocks 4/8/16 the fine thresholds are S >= 32/16/8.
        per_block = {4: [16, 32], 8: [8, 16], 16: [4, 8]}
        fine, coarse = cubepart._split_fine_coarse(
            per_block, 3, {4: 2, 8: 1, 16: 0}
        )
        assert fine == {4: [32], 8: [16], 16: [8]}
        assert coarse == {4: [16], 8: [8], 16: [4]}

    def test_zero_partition_bits_has_no_coarse_residue(self):
        fine, coarse = cubepart._split_fine_coarse(
            {4: [1, 2, 4]}, 0, {4: 0}
        )
        assert fine == {4: [1, 2, 4]}
        assert coarse == {4: []}
