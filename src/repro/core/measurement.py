"""One multiprogrammed measurement session over the benchmark suite.

Everything the experiments consume — reference streams, miss counts,
prediction statistics, slack histograms — is derived from a single
:class:`SuiteMeasurement`, which synthesizes the Table 1 programs, traces
them (lengths proportional to each benchmark's published instruction
count, so suite aggregates carry the paper's execution-time weighting),
and interleaves the per-benchmark streams with a context-switch quantum in
distinct address spaces.

A full experiment run touches the same artifacts dozens of times, so
they flow through a content-addressed
:class:`~repro.engine.store.ArtifactStore`: branch statistics live in
the store's memory tier; execution traces, compiled programs and the
data-address bundle — the expensive artifacts of a session — are
persisted to its disk tier, so a warm start maps them back without
synthesizing a program.  The instruction streams are never stored: a
cube build generates its stream window by window from the traces into
one file per block size, which the driver's tasks read in place
(:meth:`SuiteMeasurement.istream_chunks`); a data build hard-links the
address bundle's file instead.  Miss counts live in the session itself:
one exact ``(sets x ways)`` plane per ``(side, slots, block size)``,
built by the chunked cube driver (:mod:`repro.cache.cubepart`) and read
directly by every :meth:`SuiteMeasurement.misses` query.  The session
has one :class:`~repro.engine.executor.SweepExecutor`: when it is
parallel, per-benchmark trace synthesis and the driver's tasks run on
its worker pool.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.branchpred import BranchTargetBuffer, BTBStats, WindowedCtiStream
from repro.branchpred.btb import DEFAULT_ENTRIES
from repro.engine.executor import SweepExecutor
from repro.engine.session import MeasurementSpec
from repro.engine.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER
from repro.sched import (
    BranchDelayStats,
    LoadSlackAnalysis,
    TranslationFile,
    analyze_load_slack,
    branch_delay_stats,
    expand_istream,
)
from repro.cache.cubepart import (
    StreamFile,
    partitioned_miss_cube,
    partitioned_miss_cube_from_addresses,
)
from repro.cache.geometry import (
    checked_block_words,
    checked_ways,
    derived_sets,
    geometry_error,
)
from repro.cache.misscube import MissCube, capacity_set_counts
from repro.cache.stackdist import MissPlane
from repro.trace.executor import ExecutionTrace, TraceExecutor
from repro.trace.compiled import (
    LOWERING_VERSION,
    CompiledProgram,
    compiled_arrays_valid,
)
from repro.trace.multiprogram import (
    address_space_offset,
    iter_interleaved,
    multiprogram_quanta,
)
from repro.utils.rng import DEFAULT_SEED
from repro.utils.units import WORD_BYTES, kw_to_words, log2_int
from repro.workload import (
    BenchmarkSpec,
    DataReferenceModel,
    TABLE1_SUITE,
    synthesize_program,
)

__all__ = [
    "SuiteMeasurement",
    "GENERATOR_VERSION",
    "load_or_compile",
    "load_or_run_trace",
]

#: Bump to invalidate cached traces when the generator changes behaviour.
GENERATOR_VERSION = 5

#: Largest per-side cache the paper sweeps (KW).  A miss plane always
#: covers at least this capacity, so one plane per block size answers
#: every size of the paper grid for one stream family.
_CUBE_MAX_KW = 32

#: Trace steps (executed basic blocks, about five instructions each)
#: expanded at a time when the instruction side streams into a cube
#: build, so a build's expansion holds a few megabytes however long the
#: trace (a benchmark of a 1M-instruction session fits in one window).
ISTREAM_WINDOW_STEPS = 1 << 16

#: Trace steps whose CTIs the BTB simulation extracts at a time, so it
#: holds a window's and a quantum's CTIs however long the trace.
CTI_WINDOW_STEPS = 1 << 16

#: Largest associativity the paper studies.  Planes are always built at
#: least this deep, so direct-mapped lookups and associativity sweeps
#: share one plane.  The depth is not free: the bounded stack-distance
#: scan costs more as ``max_ways`` grows (DESIGN §14).
_CUBE_MAX_WAYS = 8


def _canonical_bounds(
    blocks: Tuple[int, ...], capacity_words: Optional[int], max_ways: Optional[int]
) -> Tuple[int, int]:
    """A miss request's ``(capacity words, ways)``, widened to at least
    the paper's largest per-side cache and associativity."""
    return (
        max(kw_to_words(_CUBE_MAX_KW), blocks[-1], int(capacity_words or 0)),
        max(int(max_ways or 1), _CUBE_MAX_WAYS),
    )


def _covers(plane: Optional[MissPlane], num_sets: int, ways: int) -> bool:
    """Whether ``plane`` answers ``num_sets`` sets at ``ways`` ways (and
    so every smaller geometry: a plane holds every set count from one)."""
    return plane is not None and num_sets in plane.hits and ways <= plane.max_ways


def _as_dtype(array: np.ndarray, dtype) -> np.ndarray:
    """The array itself when the dtype already matches (keeping memory
    maps zero-copy), a converted copy otherwise (legacy bundles written
    with wider dtypes)."""
    return array if array.dtype == np.dtype(dtype) else array.astype(dtype)


def _spec_digest(spec: BenchmarkSpec) -> str:
    """Content identity of a benchmark spec (every published figure and
    synthesis knob), so same-name specs of different shapes never share
    a cached program or trace."""
    return hashlib.sha256(repr(spec).encode()).hexdigest()[:24]


def _trace_arrays_valid(arrays: Mapping[str, np.ndarray]) -> bool:
    """A persisted trace bundle must be complete and non-empty."""
    try:
        return (
            len(arrays["block_ids"]) > 0
            and len(arrays["went_taken"]) == len(arrays["block_ids"])
            and len(arrays["restarts"]) == 1
        )
    except (KeyError, TypeError, IndexError):
        return False


def _trace_params(spec: BenchmarkSpec, budget: int, seed: int) -> Dict[str, object]:
    """Store key parameters of one benchmark's trace bundle."""
    return dict(bench=spec.name, spec=_spec_digest(spec), budget=budget, seed=seed)


def load_or_compile(
    store: ArtifactStore, spec: BenchmarkSpec, seed: int, tracer=NULL_TRACER
) -> CompiledProgram:
    """The benchmark's lowered program, synthesized only on a miss.

    The compiled-program bundle is persisted like a trace, so a warm
    store maps it back from disk: no synthesis, no lowering, and no
    instruction lists (a session never needs them).
    """

    def lower() -> Dict[str, np.ndarray]:
        with tracer.span("program.synthesize", bench=spec.name) as span:
            span.count("programs")
            with tracer.span("program.generate", bench=spec.name) as step:
                program = synthesize_program(spec, seed=seed)
                step.count("blocks", sum(len(p.blocks) for p in program.procedures))
                step.count("instructions", program.static_instruction_count)
            with tracer.span("program.lower", bench=spec.name) as step:
                compiled = CompiledProgram(program)
                step.count("blocks", len(compiled))
                step.count("instructions", compiled.static_words)
            return compiled.as_arrays()

    arrays = store.get_or_create(
        "compiled",
        LOWERING_VERSION,
        lower,
        persist=True,
        validate=compiled_arrays_valid,
        bench=spec.name,
        spec=_spec_digest(spec),
        seed=seed,
        generator=GENERATOR_VERSION,
    )
    return CompiledProgram.from_arrays(arrays)


def load_or_run_trace(
    store: ArtifactStore,
    spec: BenchmarkSpec,
    seed: int,
    budget: int,
    compiled: CompiledProgram,
    tracer=NULL_TRACER,
) -> ExecutionTrace:
    """The benchmark's execution trace, walked only on a miss.

    The walk streams chunk by chunk into the store's disk tier, so the
    whole trace never materializes in this process's heap; the trace's
    arrays are memory maps of the finished bundle.
    """

    def stream_trace(writer) -> None:
        with tracer.span("trace.synthesize", bench=spec.name) as span:
            executor = TraceExecutor(compiled, seed=seed)
            instructions = 0
            restarts = 0
            for chunk in executor.iter_chunks(budget):
                writer.append("block_ids", chunk.block_ids)
                writer.append("went_taken", chunk.went_taken)
                instructions += int(compiled.lengths[chunk.block_ids].sum())
                restarts = chunk.restarts
            writer.append("restarts", np.array([restarts]))
            span.count("instructions", instructions)

    arrays = store.get_or_stream(
        "trace",
        GENERATOR_VERSION,
        stream_trace,
        validate=_trace_arrays_valid,
        **_trace_params(spec, budget, seed),
    )
    return ExecutionTrace(
        compiled=compiled,
        block_ids=_as_dtype(arrays["block_ids"], np.int32),
        went_taken=_as_dtype(arrays["went_taken"], np.int8),
        restarts=int(arrays["restarts"][0]),
    )


def synthesize_trace_to_cache(item: Tuple[Path, BenchmarkSpec, int, int]) -> None:
    """Worker task: persist one benchmark's compiled program and trace
    into the disk tier at ``cache_dir``, where the session that fanned
    the task out maps both back."""
    cache_dir, spec, seed, budget = item
    store = ArtifactStore(cache_dir=cache_dir)
    load_or_run_trace(store, spec, seed, budget, load_or_compile(store, spec, seed))


@dataclass
class _Benchmark:
    """Per-benchmark artifacts of a session."""

    index: int
    spec: BenchmarkSpec
    compiled: CompiledProgram
    trace: ExecutionTrace

    def translation(self, slots: int) -> TranslationFile:
        """A fresh ``slots``-delay-slot translation (a few O(blocks)
        array expressions, so no caller keeps one past its own use)."""
        return TranslationFile(self.compiled, slots)


class SuiteMeasurement:
    """Measured inputs for the CPI model over one benchmark suite.

    Args:
        specs: Benchmarks (defaults to the full Table 1 suite).
        total_instructions: Combined canonical trace length; split across
            benchmarks proportionally to their published instruction
            counts (the paper's execution-time weights).
        seed: Base seed for synthesis, control flow, and data streams.
        quantum_instructions: Approximate context-switch quantum.  Each
            benchmark is cut into ``switches`` equal chunks with
            ``switches`` chosen so an average-weight benchmark's chunk is
            about this many instructions — a few milliseconds of early-90s
            CPU time, matching multiprogrammed-trace methodology.
        min_benchmark_instructions: Floor per benchmark, so tiny
            benchmarks (linpack: 4 M of 2556 M) still contribute
            statistically meaningful traces.
        store: The artifact store holding every derived artifact of this
            session (default: a fresh store over the default disk tier,
            :func:`repro.trace.io.default_cache_dir`).
        executor: The session's one executor: its worker pool runs the
            per-benchmark trace synthesis and the cube builds' tasks
            (default: serial, everything in this process).
        tracer: Observability hook (:mod:`repro.obs`); factory work —
            trace synthesis, stream expansion, miss counting — runs
            inside spans on it.  Defaults to the zero-overhead
            :data:`~repro.obs.tracer.NULL_TRACER`; tracing never changes
            a result.
    """

    def __init__(
        self,
        specs: Optional[Sequence[BenchmarkSpec]] = None,
        total_instructions: int = 1_600_000,
        seed: int = DEFAULT_SEED,
        quantum_instructions: int = 25_000,
        min_benchmark_instructions: int = 20_000,
        store: Optional[ArtifactStore] = None,
        executor: Optional[SweepExecutor] = None,
        tracer=None,
    ) -> None:
        if total_instructions <= 0:
            raise ConfigurationError("total_instructions must be positive")
        if quantum_instructions <= 0:
            raise ConfigurationError("quantum_instructions must be positive")
        self.specs: List[BenchmarkSpec] = list(specs) if specs is not None else list(TABLE1_SUITE)
        if not self.specs:
            raise ConfigurationError("need at least one benchmark")
        self.seed = seed
        self.total_instructions = total_instructions
        self.quantum_instructions = quantum_instructions
        self.min_benchmark_instructions = min_benchmark_instructions
        mean_budget = total_instructions / len(self.specs)
        self.switches = max(1, round(mean_budget / quantum_instructions))
        self.store = store if store is not None else ArtifactStore()
        self.executor = executor if executor is not None else SweepExecutor()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Durable-run policy (:class:`repro.jobs.JobConfig`); when set,
        #: optimizer sweeps over this session journal their shards into
        #: the configured run directory and become resumable.
        self.job_config = None
        #: Exact miss counts, one plane per ``(side, slots, block_words)``
        #: (``slots`` None on the D side); :meth:`warm_miss_cube` is the
        #: only writer.
        self._planes: Dict[Tuple[str, Optional[int], int], MissPlane] = {}

        total_weight = sum(spec.weight for spec in self.specs)
        self._budgets = [
            max(
                min_benchmark_instructions,
                int(total_instructions * spec.weight / total_weight),
            )
            for spec in self.specs
        ]
        self._benchmarks: Optional[List[_Benchmark]] = None

    def attach_tracer(self, tracer) -> None:
        """Point this session (and its executor) at an observability tracer."""
        self.tracer = tracer
        self.executor.tracer = tracer

    def attach_cube_jobs(self, jobs: Optional[int]) -> None:
        """Size the session's worker pool at ``jobs`` processes.

        The pool runs the trace prefetch and every cube build's tasks
        (:mod:`repro.cache.cubepart`); ``None`` or 1 runs them in this
        process.  A new width retires the current pool, and reaps its
        workers, before a new executor of that width (with the same
        tracer) replaces it.  The counts, and so the session's miss
        planes, are the same at any width.
        """
        jobs = int(jobs) if jobs is not None else 1
        if jobs < 1:
            raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
        if jobs != self.executor.jobs:
            previous = self.executor
            previous.retire_pool(wait=True)
            self.executor = SweepExecutor(jobs=jobs)
            self.executor.tracer = previous.tracer

    def attach_jobs(self, job_config) -> None:
        """Make sweeps over this session durable (None detaches).

        Accepts a :class:`repro.jobs.JobConfig` (duck-typed so this
        module never imports the jobs layer); sweep results are
        unchanged — the journal only adds checkpoints.
        """
        self.job_config = job_config

    def spec(self) -> MeasurementSpec:
        """This session's identity."""
        return MeasurementSpec(
            specs=tuple(self.specs),
            total_instructions=self.total_instructions,
            seed=self.seed,
            quantum_instructions=self.quantum_instructions,
            min_benchmark_instructions=self.min_benchmark_instructions,
        )

    @cached_property
    def _session_digest(self) -> str:
        """``spec().digest()``, hashed once: it keys the store artifacts
        that depend on the whole session, so sessions sharing one store
        never read each other's."""
        return self.spec().digest()

    # -- construction --------------------------------------------------------

    def _prefetch_traces(self) -> None:
        """Fan missing trace synthesis out across the session's pool.

        Workers write each compiled program and stream each trace into
        this session's disk tier (:func:`synthesize_trace_to_cache`);
        only the parameters cross the process boundary, never the
        arrays, and the per-benchmark build below then maps both bundles
        back.  Requires the parallel backend and more than one missing
        benchmark to be worth a pool.  Synthesis leaves each worker with
        a large heap, so the pool is retired, its workers reaped, as
        soon as the map returns: the builds fork fresh ones.
        """
        missing = [
            (spec, budget)
            for spec, budget in zip(self.specs, self._budgets)
            if self.store.peek(
                "trace",
                GENERATOR_VERSION,
                persist=True,
                validate=_trace_arrays_valid,
                **_trace_params(spec, budget, self.seed),
            )
            is None
        ]
        if len(missing) < 2:
            return
        with self.tracer.span("session.prefetch_traces") as span:
            span.count("missing", len(missing))
            cache_dir = self.store.disk_dir
            self.executor.map(
                synthesize_trace_to_cache,
                [(cache_dir, spec, self.seed, budget) for spec, budget in missing],
            )
            self.executor.retire_pool(wait=True)

    @property
    def benchmarks(self) -> List[_Benchmark]:
        """Per-benchmark artifacts, built lazily on first use."""
        if self._benchmarks is None:
            with self.tracer.span("session.build") as span:
                span.count("benchmarks", len(self.specs))
                if self.executor.is_parallel:
                    self._prefetch_traces()
                built = []
                for index, (spec, budget) in enumerate(zip(self.specs, self._budgets)):
                    compiled = load_or_compile(self.store, spec, self.seed, self.tracer)
                    trace = load_or_run_trace(
                        self.store, spec, self.seed, budget, compiled, self.tracer
                    )
                    built.append(_Benchmark(index, spec, compiled, trace))
                self._benchmarks = built
        return self._benchmarks

    # -- suite aggregates ------------------------------------------------------

    @cached_property
    def canonical_instructions(self) -> int:
        """Total canonical instruction count (the CPI denominator)."""
        return sum(b.trace.instruction_count for b in self.benchmarks)

    @cached_property
    def cti_fraction(self) -> float:
        """Dynamic CTI fraction of the suite (the paper's 13 %)."""
        ctis = sum(b.trace.category_counts["ctis"] for b in self.benchmarks)
        return ctis / self.canonical_instructions

    @cached_property
    def data_reference_count(self) -> int:
        """Loads + stores over the suite."""
        return sum(
            b.trace.category_counts["loads"] + b.trace.category_counts["stores"]
            for b in self.benchmarks
        )

    def code_expansion_pct(self, slots: int) -> float:
        """Suite-average static code growth for ``slots`` (Table 2)."""
        base = sum(b.compiled.static_words for b in self.benchmarks)
        grown = sum(b.translation(slots).code_words for b in self.benchmarks)
        return 100.0 * (grown - base) / base

    def branch_stats(self, slots: int) -> BranchDelayStats:
        """Aggregated static-scheme branch statistics (Table 3)."""

        def aggregate() -> BranchDelayStats:
            parts = [
                branch_delay_stats(b.trace, b.translation(slots))
                for b in self.benchmarks
            ]
            return BranchDelayStats(
                slots=slots,
                cti_count=sum(p.cti_count for p in parts),
                wasted_cycles=sum(p.wasted_cycles for p in parts),
                instruction_count=sum(p.instruction_count for p in parts),
                predicted_taken_count=sum(p.predicted_taken_count for p in parts),
                predicted_taken_correct=sum(p.predicted_taken_correct for p in parts),
                predicted_not_taken_count=sum(p.predicted_not_taken_count for p in parts),
                predicted_not_taken_correct=sum(
                    p.predicted_not_taken_correct for p in parts
                ),
            )

        return self.store.get_or_create(
            "branch_stats",
            GENERATOR_VERSION,
            aggregate,
            slots=slots,
            session=self._session_digest,
        )

    @cached_property
    def btb_stats(self) -> BTBStats:
        """BTB outcome over the multiprogrammed CTI stream (Table 4)."""
        return self.btb_sweep((DEFAULT_ENTRIES,))[DEFAULT_ENTRIES]

    def btb_sweep(self, entries: Sequence[int]) -> Dict[int, BTBStats]:
        """BTB outcomes at several sizes, from one walk of the CTI stream.

        Each benchmark's CTIs are extracted :data:`CTI_WINDOW_STEPS`
        trace steps at a time (:class:`~repro.branchpred.WindowedCtiStream`)
        and interleaved by the session's quanta; every piece goes through
        one buffer per size in turn.  The walk holds a window's and a
        quantum's CTIs, never the stream.
        """
        buffers = {n: BranchTargetBuffer(n) for n in entries}
        stats = dict.fromkeys(buffers, BTBStats(ctis=0, hits=0, correct=0))
        sources = [
            WindowedCtiStream(
                b.trace, CTI_WINDOW_STEPS, address_space_offset(b.index)
            )
            for b in self.benchmarks
        ]
        quanta = multiprogram_quanta([len(s) for s in sources], self.switches)
        for piece in iter_interleaved(sources, quanta):
            for n, buffer in buffers.items():
                stats[n] += buffer.simulate(piece.pcs, piece.taken, piece.targets)
        return stats

    @cached_property
    def load_slack(self) -> LoadSlackAnalysis:
        """Suite-aggregated epsilon analysis (Figures 6/7, Table 5)."""
        dynamic: Dict[int, int] = {}
        static: Dict[int, int] = {}
        loads = 0
        for bench in self.benchmarks:
            analysis = analyze_load_slack(bench.compiled, bench.trace.block_counts)
            for eps, count in analysis.dynamic_histogram.items():
                dynamic[eps] = dynamic.get(eps, 0) + count
            for eps, count in analysis.static_histogram.items():
                static[eps] = static.get(eps, 0) + count
            loads += bench.trace.category_counts["loads"]
        return LoadSlackAnalysis(
            dynamic_histogram=dynamic,
            static_histogram=static,
            loads_per_instruction=loads / self.canonical_instructions,
        )

    # -- reference streams -----------------------------------------------------

    @contextmanager
    def _scratch_dir(self) -> Iterator[Path]:
        """A private directory for stream files, removed on exit.

        It sits in the store's disk tier, beside the bundles, so a store
        segment can be hard-linked into it and a paper-scale stream lands
        on the disk that holds the traces.
        """
        root = self.store.disk_dir
        root.mkdir(parents=True, exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix=".cube-build-", dir=root))
        try:
            yield directory
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _stream_file(self, path: Path, lengths: Sequence[int]) -> StreamFile:
        """``path``'s per-benchmark sequences, interleaved by the
        session's quanta."""
        quanta = multiprogram_quanta(lengths, self.switches)
        return StreamFile(str(path), tuple(lengths), tuple(quanta))

    @contextmanager
    def istream_chunks(
        self, slots: int, block_words: Sequence[int]
    ) -> Iterator[Dict[int, StreamFile]]:
        """The multiprogrammed instruction stream of each block size, as files.

        Yields ``{block words: StreamFile}``.  Each benchmark's trace is
        expanded :data:`ISTREAM_WINDOW_STEPS` steps at a time, once for
        every block size (:func:`~repro.sched.expand_istream`), and each
        window's cache-block sequences are appended to that block size's
        file in a private scratch directory, benchmark after benchmark.
        The description adds the benchmarks' lengths and the session's
        quanta: the cube driver's tasks map the file where it lies, and
        iterating the description yields the stream's pieces in order
        (``np.concatenate(list(...))`` is the whole stream, which this
        process never holds).  The files are removed when the context
        exits.
        """
        blocks = tuple(block_words)
        with self._scratch_dir() as directory:
            paths = {B: directory / f"b{B}" for B in blocks}
            lengths: Dict[int, List[int]] = {B: [] for B in blocks}
            with ExitStack() as files, self.tracer.span(
                "istream.expand", slots=slots, blocks=",".join(map(str, blocks))
            ) as span:
                out = {B: files.enter_context(open(paths[B], "wb")) for B in blocks}
                for bench in self.benchmarks:
                    translation = bench.translation(slots)
                    offset = address_space_offset(bench.index)
                    written = dict.fromkeys(blocks, 0)
                    for start in range(0, bench.trace.steps, ISTREAM_WINDOW_STEPS):
                        stream = expand_istream(
                            bench.trace, translation, start, start + ISTREAM_WINDOW_STEPS
                        )
                        for B in blocks:
                            block_bytes = B * WORD_BYTES
                            sequence = stream.cache_block_sequence(block_bytes)
                            sequence += offset >> log2_int(block_bytes)
                            out[B].write(sequence)
                            written[B] += len(sequence)
                    for B in blocks:
                        lengths[B].append(written[B])
                span.count("references", sum(map(sum, lengths.values())))
            yield {B: self._stream_file(paths[B], lengths[B]) for B in blocks}

    def dstream_address_bundle(self) -> np.ndarray:
        """The multiprogrammed data stream as byte addresses.

        Block-independent: every block granularity of the data stream is
        a pure shift view (:func:`~repro.cache.fastsim.
        addresses_to_blocks`), which commutes with the quantum interleave
        because it is elementwise and length-preserving.  Each
        benchmark's address model is expanded in one shot (chunked
        generation would change its draw order) and appended to a scratch
        file, so one benchmark's sequence is in memory at a time; the
        interleave is then emitted quantum by quantum from that file
        through :meth:`~repro.engine.store.ArtifactStore.get_or_stream`.
        The value is a *memory-mapped* view of the finished bundle, and
        repeat sessions map it straight back without re-expanding; a cube
        build hard-links its file instead of copying it.
        """

        def produce(writer) -> None:
            with self.tracer.span("dstream.expand", streamed=1):
                with self._scratch_dir() as directory:
                    path = directory / "addresses"
                    lengths = []
                    with open(path, "wb") as out:
                        for bench in self.benchmarks:
                            refs = (
                                bench.trace.category_counts["loads"]
                                + bench.trace.category_counts["stores"]
                            )
                            model = DataReferenceModel(bench.spec, seed=self.seed)
                            offset = address_space_offset(bench.index)
                            sequence = model.generate(refs) + offset
                            out.write(sequence)
                            lengths.append(len(sequence))
                    writer.append("addresses", np.empty(0, dtype=np.int64))
                    for piece in self._stream_file(path, lengths):
                        writer.append("addresses", piece)

        # Streamed artifacts always persist, so the bundle carries the
        # session identity in its key: sessions at different scales
        # sharing one disk tier never collide.
        arrays = self.store.get_or_stream(
            "dstream_addr_bundle",
            GENERATOR_VERSION,
            produce,
            session=self._session_digest,
        )
        return arrays["addresses"]

    def _linked_dstream(self, directory: Path) -> StreamFile:
        """The data-address segment, hard-linked into ``directory``.

        The link copies nothing, and it keeps the file for the build even
        if a disk-budget eviction deletes the store entry meanwhile.  An
        entry evicted earlier, whose deleted file the store's memory tier
        still maps, is streamed again first.
        """
        link = directory / "addresses.npy"
        try:
            os.link(self.dstream_address_bundle().filename, link)
        except FileNotFoundError:
            self.store.invalidate(
                "dstream_addr_bundle", GENERATOR_VERSION, session=self._session_digest
            )
            os.link(self.dstream_address_bundle().filename, link)
        return StreamFile.from_npy(link)

    # -- miss counts -------------------------------------------------------------

    def icache_miss_cube(
        self,
        slots: int,
        block_words: Sequence[int],
        capacity_words: Optional[int] = None,
        max_ways: Optional[int] = None,
    ) -> MissCube:
        """L1-I LRU misses over a whole (block x sets x ways) cube.

        Exact miss counts for each block size at every power-of-two set
        count up to ``capacity_words // block`` and every associativity
        up to ``max_ways``, the bounds canonicalized to at least the
        paper's 32 KW and 8 ways.  The cube is a view of the session's
        per-block planes (:meth:`warm_miss_cube` builds the missing
        ones), trimmed to exactly those bounds, so what it holds never
        depends on what was built before.
        """
        return self._cube_view("I", slots, block_words, capacity_words, max_ways)

    def dcache_miss_cube(
        self,
        block_words: Sequence[int],
        capacity_words: Optional[int] = None,
        max_ways: Optional[int] = None,
    ) -> MissCube:
        """L1-D LRU misses over a whole (block x sets x ways) cube; as
        :meth:`icache_miss_cube`, over the data stream."""
        return self._cube_view("D", None, block_words, capacity_words, max_ways)

    def _cube_view(
        self,
        side: str,
        slots: Optional[int],
        block_words: Sequence[int],
        capacity_words: Optional[int],
        max_ways: Optional[int],
    ) -> MissCube:
        blocks = checked_block_words(block_words, context=f"L1-{side}")
        capacity, ways = _canonical_bounds(blocks, capacity_words, max_ways)
        self.warm_miss_cube(side, blocks, capacity, slots=slots, max_ways=ways)
        planes = {B: self._planes[side, slots, B] for B in blocks}
        return MissCube(
            references={B: plane.references for B, plane in planes.items()},
            max_ways=ways,
            hits={
                B: {
                    S: curve[: ways + 1]
                    for S, curve in plane.hits.items()
                    if S * B <= capacity
                }
                for B, plane in planes.items()
            },
        )

    def misses(
        self,
        side: str,
        block_words: int,
        size_kw: float,
        ways: int = 1,
        slots: Optional[int] = None,
    ) -> int:
        """Exact LRU misses of one L1 geometry over the whole session.

        ``side`` is ``"I"`` — whose stream depends on the branch delay
        ``slots`` — or ``"D"``, which takes none.  A ``size_kw`` cache of
        ``block_words``-word blocks at ``ways`` ways has ``size / (block
        * ways)`` sets; the geometry is validated (errors name ``L1-I``
        or ``L1-D``) before any stream is built.  The count is a read of
        the side's plane for that block size; a geometry beyond the
        plane's bounds first rebuilds it (:meth:`warm_miss_cube`).
        """
        if side not in ("I", "D") or (slots is None) != (side == "D"):
            raise ConfigurationError(
                f"misses need side 'I' with slots or side 'D' without, "
                f"got side={side!r}, slots={slots!r}"
            )
        context = f"L1-{side}"
        size_blocks = derived_sets(size_kw, block_words, context=context)
        (ways,) = checked_ways((ways,), context=context)
        if size_blocks % ways:
            raise geometry_error(
                f"{ways} ways do not divide {size_blocks} blocks", context
            )
        num_sets = size_blocks // ways
        plane = self._planes.get((side, slots, block_words))
        if not _covers(plane, num_sets, ways):
            self.warm_miss_cube(
                side,
                (block_words,),
                size_blocks * block_words,
                slots=slots,
                max_ways=ways,
            )
            plane = self._planes[side, slots, block_words]
        return plane.misses(num_sets, ways)

    def warm_miss_cube(
        self,
        side: str,
        block_words: Sequence[int],
        capacity_words: int,
        slots: Optional[int] = None,
        max_ways: Optional[int] = None,
    ) -> None:
        """Build the miss planes one stream family's queries need.

        A block size's plane holds exact LRU miss counts at every
        power-of-two set count up to ``capacity_words // block`` and
        every associativity up to ``max_ways``, the bounds canonicalized
        to at least the paper's 32 KW and 8 ways, so one plane answers a
        block size's whole paper grid.  Block sizes whose planes already
        cover the bounds are skipped; the rest come from one call of the
        chunked driver (:mod:`repro.cache.cubepart`), at the bounds
        widened to those of every plane it replaces, so a rebuild never
        narrows what a block size answers.  On a parallel executor the
        tasks run on the session's worker pool: the first parallel build
        forks it and later builds reuse its workers, until a retire ends
        the build phase (the optimizer's does after warming a grid's
        planes).  The driver's tasks read the build's stream files in
        place, from one private scratch directory of the store's disk
        tier that the build removes: the instruction side's files
        (:meth:`istream_chunks`), or a hard link to the data bundle's.
        The driver checks each block size's ``A = 1`` base against the
        independent direct-mapped sweep before any plane is kept.
        """
        context = f"L1-{side}"
        blocks = checked_block_words(block_words, context=context)
        capacity, ways = _canonical_bounds(blocks, capacity_words, max_ways)
        wanted = capacity_set_counts(blocks, capacity, context=context)
        stale: Dict[int, Optional[MissPlane]] = {}
        for B in blocks:
            plane = self._planes.get((side, slots, B))
            if not _covers(plane, wanted[B][-1], ways):
                stale[B] = plane
        if not stale:
            return
        for B, plane in stale.items():
            if plane is not None:
                capacity = max(capacity, B * max(plane.hits))
                ways = max(ways, plane.max_ways)
        blocks = tuple(stale)
        set_counts = capacity_set_counts(blocks, capacity, context=context)
        label = ",".join(str(B) for B in blocks)
        self.tracer.count("cache_sweeps")
        if side == "I":
            with self.istream_chunks(slots, blocks) as streams:
                with self.tracer.span(
                    "imiss.cube",
                    slots=slots,
                    blocks=label,
                    capacity_words=capacity,
                    max_ways=ways,
                ) as span:
                    span.count("block_sizes", len(blocks))
                    cube = partitioned_miss_cube(
                        streams,
                        set_counts,
                        ways,
                        executor=self.executor,
                        tracer=self.tracer,
                    )
                    span.count("references", sum(cube.references.values()))
        else:
            with self.tracer.span(
                "dmiss.cube",
                blocks=label,
                capacity_words=capacity,
                max_ways=ways,
            ) as span, self._scratch_dir() as directory:
                span.count("block_sizes", len(blocks))
                addresses = self._linked_dstream(directory)
                span.count("references", len(blocks) * sum(addresses.lengths))
                cube = partitioned_miss_cube_from_addresses(
                    addresses,
                    blocks,
                    set_counts,
                    ways,
                    executor=self.executor,
                    tracer=self.tracer,
                )
        for B in blocks:
            self._planes[side, slots, B] = cube.plane(B)

    # -- reporting ---------------------------------------------------------------

    def benchmark_rows(self) -> List[Dict[str, object]]:
        """Per-benchmark measured characteristics (regenerates Table 1)."""
        rows = []
        for bench in self.benchmarks:
            mix = bench.trace.mix_percentages()
            rows.append(
                {
                    "name": bench.spec.name,
                    "description": bench.spec.description,
                    "category": bench.spec.category.value,
                    "instructions": bench.trace.instruction_count,
                    "load_pct": mix["load_pct"],
                    "store_pct": mix["store_pct"],
                    "branch_pct": mix["branch_pct"],
                    "syscalls": bench.trace.category_counts["syscalls"],
                }
            )
        return rows
