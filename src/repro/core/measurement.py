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
synthesizing a program, and spawned sweep workers rehydrate a session
the same way (forked ones inherit the parent's).  The instruction
streams are never stored: a cube build generates its stream window by
window from the traces, straight into the driver's spill
(:meth:`SuiteMeasurement.istream_chunks`).  Miss counts live in the
session itself: one exact ``(sets x ways)`` plane per ``(side, slots,
block size)``, built by the chunked cube driver
(:mod:`repro.cache.cubepart`) and read directly by every
:meth:`SuiteMeasurement.misses` query.  When the session's
:class:`~repro.engine.executor.SweepExecutor` is parallel, per-benchmark
trace synthesis is fanned out across worker processes.
"""

from __future__ import annotations

import hashlib
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.branchpred import BranchTargetBuffer, BTBStats, cti_stream
from repro.engine.executor import (
    SweepExecutor,
    synthesize_trace_arrays,
    synthesize_trace_to_cache,
)
from repro.engine.session import MeasurementSpec
from repro.engine.store import ArtifactKey, ArtifactStore
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
    interleave_chunks,
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


@dataclass
class _Benchmark:
    """Per-benchmark artifacts of a session."""

    index: int
    spec: BenchmarkSpec
    compiled: CompiledProgram
    trace: ExecutionTrace
    translations: Dict[int, TranslationFile]

    def translation(self, slots: int) -> TranslationFile:
        if slots not in self.translations:
            self.translations[slots] = TranslationFile(self.compiled, slots)
        return self.translations[slots]


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
        use_disk_cache: Persist traces to the artifact store's disk tier
            (ignored when an explicit ``store`` is supplied).
        store: The artifact store holding every derived artifact of this
            session (default: a fresh store honouring ``use_disk_cache``).
        executor: Sweep executor used to fan out per-benchmark trace
            synthesis, and the default executor for optimizers built on
            this session (default: serial).
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
        use_disk_cache: bool = True,
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
        self._use_disk_cache = use_disk_cache
        self.store = store if store is not None else ArtifactStore(use_disk=use_disk_cache)
        self.executor = executor if executor is not None else SweepExecutor()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Durable-run policy (:class:`repro.jobs.JobConfig`); when set,
        #: optimizer sweeps over this session journal their shards into
        #: the configured run directory and become resumable.
        self.job_config = None
        #: Worker count for miss-cube builds (:meth:`attach_cube_jobs`):
        #: the driver's tasks (:mod:`repro.cache.cubepart`) run in this
        #: process at 1 and on a pool of that many workers above.
        self.cube_jobs = 1
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
        """Run miss-cube builds on a pool of ``jobs`` worker processes.

        Every build goes through :mod:`repro.cache.cubepart`; ``jobs > 1``
        maps its tasks on a process executor of that width, ``None`` or 1
        runs them in this process.  The counts, and so the session's miss
        planes, are the same either way.
        """
        jobs = int(jobs) if jobs is not None else 1
        if jobs < 1:
            raise ConfigurationError(
                f"cube jobs must be at least 1, got {jobs}"
            )
        self.cube_jobs = jobs

    def attach_jobs(self, job_config) -> None:
        """Make sweeps over this session durable (None detaches).

        Accepts a :class:`repro.jobs.JobConfig` (duck-typed so this
        module never imports the jobs layer); sweep results are
        unchanged — the journal only adds checkpoints.
        """
        self.job_config = job_config

    def spec(self) -> MeasurementSpec:
        """A picklable description from which workers rebuild this session."""
        return MeasurementSpec(
            specs=tuple(self.specs),
            total_instructions=self.total_instructions,
            seed=self.seed,
            quantum_instructions=self.quantum_instructions,
            min_benchmark_instructions=self.min_benchmark_instructions,
            use_disk_cache=self._use_disk_cache,
        )

    @cached_property
    def _session_digest(self) -> str:
        """``spec().digest()``, hashed once: it keys the store artifacts
        that depend on the whole session, so sessions sharing one store
        never read each other's."""
        return self.spec().digest()

    # -- construction --------------------------------------------------------

    def _trace_params(self, spec: BenchmarkSpec, budget: int) -> Dict[str, object]:
        return dict(
            bench=spec.name, spec=_spec_digest(spec), budget=budget, seed=self.seed
        )

    def _trace_key(self, spec: BenchmarkSpec, budget: int) -> ArtifactKey:
        return ArtifactKey.make(
            "trace", GENERATOR_VERSION, **self._trace_params(spec, budget)
        )

    def _compiled_params(self, spec: BenchmarkSpec) -> Dict[str, object]:
        return dict(
            bench=spec.name,
            spec=_spec_digest(spec),
            seed=self.seed,
            generator=GENERATOR_VERSION,
        )

    def _compiled_key(self, spec: BenchmarkSpec) -> ArtifactKey:
        return ArtifactKey.make(
            "compiled", LOWERING_VERSION, **self._compiled_params(spec)
        )

    def _load_or_compile(self, spec: BenchmarkSpec) -> CompiledProgram:
        """The benchmark's lowered program, synthesized only on a miss.

        The compiled-program bundle is persisted like a trace, so a warm
        session maps it back from disk: no synthesis, no lowering, and no
        instruction lists (the session never needs them).
        """

        def lower() -> Dict[str, np.ndarray]:
            with self.tracer.span("program.synthesize", bench=spec.name) as span:
                span.count("programs")
                with self.tracer.span("program.generate", bench=spec.name) as step:
                    program = synthesize_program(spec, seed=self.seed)
                    step.count("blocks", sum(len(p.blocks) for p in program.procedures))
                    step.count("instructions", program.static_instruction_count)
                with self.tracer.span("program.lower", bench=spec.name) as step:
                    compiled = CompiledProgram(program)
                    step.count("blocks", len(compiled))
                    step.count("instructions", compiled.static_words)
                return compiled.as_arrays()

        arrays = self.store.get_or_create(
            "compiled",
            LOWERING_VERSION,
            lower,
            persist=True,
            validate=compiled_arrays_valid,
            **self._compiled_params(spec),
        )
        return CompiledProgram.from_arrays(arrays)

    def _load_or_run_trace(
        self, spec: BenchmarkSpec, budget: int, compiled: CompiledProgram
    ) -> ExecutionTrace:
        def stream_trace(writer) -> None:
            # Streaming synthesis: chunks go straight to the writer (the
            # disk tier's StreamingBundleWriter, normally), so the whole
            # trace never materializes in this process's heap.
            with self.tracer.span("trace.synthesize", bench=spec.name) as span:
                executor = TraceExecutor(compiled, seed=self.seed)
                instructions = 0
                restarts = 0
                for chunk in executor.iter_chunks(budget):
                    writer.append("block_ids", chunk.block_ids)
                    writer.append("went_taken", chunk.went_taken)
                    instructions += int(compiled.lengths[chunk.block_ids].sum())
                    restarts = chunk.restarts
                writer.append("restarts", np.array([restarts]))
                span.count("instructions", instructions)

        arrays = self.store.get_or_stream(
            "trace",
            GENERATOR_VERSION,
            stream_trace,
            validate=_trace_arrays_valid,
            **self._trace_params(spec, budget),
        )
        return ExecutionTrace(
            compiled=compiled,
            block_ids=_as_dtype(arrays["block_ids"], np.int32),
            went_taken=_as_dtype(arrays["went_taken"], np.int8),
            restarts=int(arrays["restarts"][0]),
        )

    def _prefetch_traces(self) -> None:
        """Fan missing trace synthesis out across the sweep executor.

        With the disk tier on, workers write each compiled program and
        stream each trace straight into the shared cache directory —
        only key digests cross the process boundary, never the arrays —
        and the per-benchmark build below turns into memory-mapped disk
        hits for both.  With the disk tier off, workers fall back to
        returning (pickled) bundles that the parent stores in memory.
        Requires the parallel backend and more than one missing
        benchmark to be worth a pool.
        """
        missing = [
            (spec, budget)
            for spec, budget in zip(self.specs, self._budgets)
            if self.store.peek(
                "trace",
                GENERATOR_VERSION,
                persist=True,
                validate=_trace_arrays_valid,
                **self._trace_params(spec, budget),
            )
            is None
        ]
        if len(missing) < 2:
            return
        with self.tracer.span("session.prefetch_traces") as span:
            span.count("missing", len(missing))
            if self.store.use_disk:
                cache_dir = self.store.disk_dir
                self.executor.map(
                    synthesize_trace_to_cache,
                    [
                        (
                            self._trace_key(spec, budget).digest,
                            self._compiled_key(spec).digest,
                            cache_dir,
                            spec,
                            budget,
                            self.seed,
                        )
                        for spec, budget in missing
                    ],
                )
                return
            bundles = self.executor.map(
                synthesize_trace_arrays,
                [(spec, budget, self.seed) for spec, budget in missing],
            )
        for (spec, budget), (compiled, trace) in zip(missing, bundles):
            self.store.put(
                "compiled",
                LOWERING_VERSION,
                compiled,
                persist=self._use_disk_cache,
                **self._compiled_params(spec),
            )
            self.store.put(
                "trace",
                GENERATOR_VERSION,
                trace,
                persist=self._use_disk_cache,
                **self._trace_params(spec, budget),
            )

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
                    compiled = self._load_or_compile(spec)
                    trace = self._load_or_run_trace(spec, budget, compiled)
                    built.append(
                        _Benchmark(
                            index=index,
                            spec=spec,
                            compiled=compiled,
                            trace=trace,
                            translations={},
                        )
                    )
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

    @cached_property
    def load_fraction(self) -> float:
        loads = sum(b.trace.category_counts["loads"] for b in self.benchmarks)
        return loads / self.canonical_instructions

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
        streams = [cti_stream(b.trace) for b in self.benchmarks]
        offset_streams = [
            stream.with_offset(address_space_offset(i))
            for i, stream in enumerate(streams)
        ]
        quanta = multiprogram_quanta([len(s) for s in offset_streams], self.switches)
        pcs = interleave_chunks([s.pcs for s in offset_streams], quanta)
        taken = interleave_chunks(
            [s.taken.astype(np.int8) for s in offset_streams], quanta
        )
        targets = interleave_chunks([s.targets for s in offset_streams], quanta)
        return BranchTargetBuffer().simulate(pcs, taken.astype(bool), targets)

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
    def istream_chunks(
        self, slots: int, block_words: Sequence[int]
    ) -> Iterator[Dict[int, Iterator[np.ndarray]]]:
        """The multiprogrammed instruction stream of each block size, in chunks.

        Yields ``{block words: chunk iterator}``.  Joined, one block
        size's chunks are its whole stream at cache-block granularity,
        which this process never holds.  Each benchmark's trace is
        expanded :data:`ISTREAM_WINDOW_STEPS` steps at a time, once for
        every block size (:func:`~repro.sched.expand_istream`), and each
        window's block sequences go to one unlinked scratch file per
        block size, benchmark after benchmark.  The quanta need every
        benchmark's length, so the interleave starts only after the last
        window: each iterator then maps its file and takes the
        benchmarks' ranges in turn (:func:`~repro.trace.multiprogram.
        iter_interleaved`).  A file is gone once its iterator is done,
        and every file once the context exits.
        """
        blocks = tuple(block_words)
        with ExitStack() as stack:
            scratch = {
                B: stack.enter_context(tempfile.TemporaryFile(prefix="repro-istream-"))
                for B in blocks
            }
            lengths: Dict[int, List[int]] = {B: [] for B in blocks}
            with self.tracer.span(
                "istream.expand", slots=slots, blocks=",".join(map(str, blocks))
            ) as span:
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
                            scratch[B].write(sequence)
                            written[B] += len(sequence)
                    for B in blocks:
                        lengths[B].append(written[B])
                span.count("references", sum(map(sum, lengths.values())))
            yield {B: self._interleaved(scratch[B], lengths[B]) for B in blocks}

    def _interleaved(self, scratch, lengths: List[int]) -> Iterator[np.ndarray]:
        """The benchmarks' ranges, written back to back to ``scratch``,
        interleaved by the session's quanta; ``scratch`` is closed, and
        its disk space freed, as soon as the last range is read."""
        with scratch:
            scratch.flush()
            stream = np.memmap(scratch, dtype=np.int64, mode="r")
            bounds = np.cumsum([0, *lengths])
            yield from iter_interleaved(
                [stream[a:b] for a, b in zip(bounds, bounds[1:])],
                multiprogram_quanta(lengths, self.switches),
            )

    def dstream_address_bundle(self) -> np.ndarray:
        """The multiprogrammed data stream as byte addresses.

        Block-independent: every block granularity of the data stream is
        a pure shift view (:func:`~repro.cache.fastsim.
        addresses_to_blocks`), which commutes with the quantum interleave
        because it is elementwise and length-preserving.  Each
        benchmark's address model is expanded in one shot (chunked
        generation would change its draw order), and the interleave is
        emitted quantum by quantum through :meth:`~repro.engine.store.
        ArtifactStore.get_or_stream`.  With the disk tier on, the value
        is a *memory-mapped* view of the finished bundle: the cube driver
        reads it through the page cache instead of holding a heap copy,
        and repeat sessions map it straight back without re-expanding.
        """

        def produce(writer) -> None:
            with self.tracer.span("dstream.expand", streamed=1):
                sequences = []
                for bench in self.benchmarks:
                    refs = (
                        bench.trace.category_counts["loads"]
                        + bench.trace.category_counts["stores"]
                    )
                    model = DataReferenceModel(bench.spec, seed=self.seed)
                    sequences.append(
                        model.generate(refs) + address_space_offset(bench.index)
                    )
                quanta = multiprogram_quanta(
                    [len(s) for s in sequences], self.switches
                )
                writer.append("addresses", np.empty(0, dtype=np.int64))
                for piece in iter_interleaved(sequences, quanta):
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
    ) -> bool:
        """Build the miss planes one stream family's queries need.

        A block size's plane holds exact LRU miss counts at every
        power-of-two set count up to ``capacity_words // block`` and
        every associativity up to ``max_ways``, the bounds canonicalized
        to at least the paper's 32 KW and 8 ways, so one plane answers a
        block size's whole paper grid.  Block sizes whose planes already
        cover the bounds are skipped; the rest come from one call of the
        chunked driver (:mod:`repro.cache.cubepart`, on a pool of
        ``cube_jobs`` workers), at the bounds widened to those of every
        plane it replaces, so a rebuild never narrows what a block size
        answers.  The driver checks each block size's ``A = 1`` base
        against the independent direct-mapped sweep before any plane is
        kept.  Returns whether anything was built.
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
            return False
        for B, plane in stale.items():
            if plane is not None:
                capacity = max(capacity, B * max(plane.hits))
                ways = max(ways, plane.max_ways)
        blocks = tuple(stale)
        set_counts = capacity_set_counts(blocks, capacity, context=context)
        label = ",".join(str(B) for B in blocks)
        self.tracer.count("cache_sweeps")
        executor = SweepExecutor(jobs=self.cube_jobs)
        executor.tracer = self.tracer
        driver = dict(executor=executor, tracer=self.tracer)
        try:
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
                            streams, set_counts, ways, **driver
                        )
                        span.count("references", sum(cube.references.values()))
            else:
                with self.tracer.span(
                    "dmiss.cube",
                    blocks=label,
                    capacity_words=capacity,
                    max_ways=ways,
                ) as span:
                    span.count("block_sizes", len(blocks))
                    addresses = self.dstream_address_bundle()
                    span.count("references", len(blocks) * len(addresses))
                    cube = partitioned_miss_cube_from_addresses(
                        addresses, blocks, set_counts, ways, **driver
                    )
        finally:
            executor.shutdown()
        for B in blocks:
            self._planes[side, slots, B] = cube.plane(B)
        return True

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
