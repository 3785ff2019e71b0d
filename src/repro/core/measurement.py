"""One multiprogrammed measurement session over the benchmark suite.

Everything the experiments consume — reference streams, miss counts,
prediction statistics, slack histograms — is derived from a single
:class:`SuiteMeasurement`, which synthesizes the Table 1 programs, traces
them (lengths proportional to each benchmark's published instruction
count, so suite aggregates carry the paper's execution-time weighting),
and interleaves the per-benchmark streams with a context-switch quantum in
distinct address spaces.

A full experiment run touches the same streams dozens of times, so every
derived artifact flows through a content-addressed
:class:`~repro.engine.store.ArtifactStore`: reference streams, miss
counts, and branch statistics live in the store's memory tier; execution
traces and compiled programs — the expensive artifacts of a session — are
additionally persisted to its disk tier, so a warm start maps both back
without synthesizing a program, and parallel sweep workers rehydrate a
session the same way.  When the
session's :class:`~repro.engine.executor.SweepExecutor` is parallel,
per-benchmark trace synthesis is fanned out across worker processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.branchpred import BranchTargetBuffer, BTBStats, cti_stream
from repro.engine.executor import (
    SweepExecutor,
    synthesize_trace_arrays,
    synthesize_trace_to_cache,
)
from repro.engine.session import MeasurementSpec
from repro.engine.shm import SHARED_BUNDLES
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
from repro.cache.fastsim import addresses_to_blocks, direct_mapped_miss_sweep
from repro.cache.geometry import (
    checked_block_words,
    checked_ways,
    derived_sets,
    geometry_error,
)
from repro.cache.misscube import (
    MISS_CUBE_VERSION,
    MissCube,
    ShiftedStreams,
    capacity_set_counts,
    miss_cube,
)
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
from repro.utils.units import WORD_BYTES, is_power_of_two, kw_to_words, log2_int
from repro.workload import (
    BenchmarkSpec,
    DataReferenceModel,
    TABLE1_SUITE,
    synthesize_program,
)

__all__ = [
    "SuiteMeasurement",
    "GENERATOR_VERSION",
    "MISS_CUBE_VERSION",
]

#: Bump to invalidate cached traces when the generator changes behaviour.
GENERATOR_VERSION = 5

# MISS_CUBE_VERSION (re-exported from repro.cache.misscube) governs the
# whole-cube miss artifacts ``imiss_cube`` / ``dmiss_cube``; it subsumes
# the retired per-axis (MISS_AXIS_VERSION) and per-plane
# (MISS_PLANE_VERSION) schemas.  It is independent of GENERATOR_VERSION
# so an engine change never invalidates the (far more expensive) cached
# traces.

#: Largest per-side cache the paper sweeps (KW).  A miss-cube artifact
#: always covers at least this capacity, so every size of the paper grid
#: for one stream family is answered by a single cube artifact.
_CUBE_MAX_KW = 32

#: Largest associativity the paper studies.  Cubes are always built at
#: least this deep: the stack-distance pass costs the same regardless of
#: ``max_ways``, and a canonical depth lets direct-mapped lookups and
#: associativity sweeps share one artifact.
_CUBE_MAX_WAYS = 8


def _as_dtype(array: np.ndarray, dtype) -> np.ndarray:
    """The array itself when the dtype already matches (keeping memory
    maps and shared-memory views zero-copy), a converted copy otherwise
    (legacy bundles written with wider dtypes)."""
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
        #: Worker count for miss-cube builds (:meth:`attach_cube_jobs`).
        #: At 1 the serial single-pass engine runs; above 1, cubes are
        #: built by the set-partitioned parallel engine
        #: (:mod:`repro.cache.cubepart`) — bit-identical counts, same
        #: artifacts, bounded per-worker memory.
        self.cube_jobs = 1
        #: Cube routing hints: ``(side, slots, block_words) -> key params``
        #: of an already-built cube covering that block size, so later
        #: single-block requests become store hits on the covering cube
        #: instead of building a narrower artifact.
        self._cube_index: Dict[Tuple[str, Optional[int], int], Dict[str, int]] = {}

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
        """Build miss cubes with the set-partitioned parallel engine.

        ``jobs > 1`` routes cube builds through
        :mod:`repro.cache.cubepart` with a process executor of that
        width; the merged counts are bit-identical to the serial
        single-pass engine, so the cached ``imiss_cube``/``dmiss_cube``
        artifacts are unchanged.  ``None`` or 1 restores the serial
        build.
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
        instruction lists (the session never needs them).  A bundle a
        priming parent exported to shared memory comes first, as for
        traces.
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

        key = self._compiled_key(spec)
        arrays = SHARED_BUNDLES.lookup(self.spec().digest(), key.digest)
        if arrays is None or not compiled_arrays_valid(arrays):
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
        key = self._trace_key(spec, budget)

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

        # A bundle already exported to shared memory (by a priming
        # parent) beats every other tier: forked workers attach the
        # parent's segments instead of touching the store at all.
        arrays = SHARED_BUNDLES.lookup(self.spec().digest(), key.digest)
        if arrays is None or not _trace_arrays_valid(arrays):
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

    def share_trace_buffers(self) -> int:
        """Export the session's trace arrays to shared memory.

        Called by :meth:`~repro.engine.executor.SweepExecutor.prime` so
        workers forked afterwards attach the parent's segments (see
        :mod:`repro.engine.shm`) instead of relying on copy-on-write
        heap pages or per-task pickles.  Memory-mapped traces are
        skipped: the disk tier's mapped bundles already share physical
        pages between processes through the page cache, so re-exporting
        them would only duplicate memory.  Each exported trace takes its
        compiled-program bundle along, so a worker rebuilding the session
        needs neither the store nor program synthesis.  After a (new)
        export the session's own trace arrays are re-pointed at the
        shared views, making the parent a reader of the same segments.
        Returns the number of benchmarks newly exported.
        """
        group = self.spec().digest()
        exported = 0
        for bench, budget in zip(self.benchmarks, self._budgets):
            trace = bench.trace
            if isinstance(trace.block_ids, np.memmap):
                continue
            SHARED_BUNDLES.export(
                group,
                self._compiled_key(bench.spec).digest,
                bench.compiled.as_arrays(),
            )
            key = self._trace_key(bench.spec, budget)
            if SHARED_BUNDLES.export(
                group,
                key.digest,
                {
                    "block_ids": trace.block_ids,
                    "went_taken": trace.went_taken,
                    "restarts": np.array([trace.restarts]),
                },
            ):
                exported += 1
            shared = SHARED_BUNDLES.lookup(group, key.digest)
            if shared is not None:
                trace.block_ids = shared["block_ids"]
                trace.went_taken = shared["went_taken"]
        return exported

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
            "branch_stats", GENERATOR_VERSION, aggregate, slots=slots
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

    def istream_blocks(self, slots: int, block_words: int) -> np.ndarray:
        """Multiprogrammed instruction stream at cache-block granularity."""

        def build() -> np.ndarray:
            with self.tracer.span(
                "istream.expand", slots=slots, block_words=block_words
            ):
                shift = log2_int(block_words * WORD_BYTES)
                sequences = []
                for bench in self.benchmarks:
                    stream = expand_istream(bench.trace, bench.translation(slots))
                    blocks = stream.cache_block_sequence(block_words * WORD_BYTES)
                    blocks = blocks + (address_space_offset(bench.index) >> shift)
                    sequences.append(blocks)
                quanta = multiprogram_quanta(
                    [len(s) for s in sequences], self.switches
                )
                return interleave_chunks(sequences, quanta)

        return self.store.get_or_create(
            "istream", GENERATOR_VERSION, build, slots=slots, block_words=block_words
        )

    def dstream_addresses(self) -> np.ndarray:
        """Multiprogrammed data stream as byte addresses (block-independent).

        The per-benchmark address models are expanded and interleaved
        exactly once; every block granularity of the data stream is a
        pure shift view of this artifact.  Reducing addresses to block
        indices is elementwise and length-preserving, so it commutes
        with the quantum interleave — :meth:`dstream_blocks` at any
        block size is bit-identical to interleaving per-benchmark block
        streams directly.
        """

        def build() -> np.ndarray:
            with self.tracer.span("dstream.expand"):
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
                return interleave_chunks(sequences, quanta)

        return self.store.get_or_create("dstream_addr", GENERATOR_VERSION, build)

    def dstream_address_bundle(self) -> np.ndarray:
        """The multiprogrammed data addresses as a disk-backed bundle view.

        Bit-identical to :meth:`dstream_addresses` — the same one-shot
        per-benchmark expansion (chunked generation would change the
        models' draw order) and the same quantum schedule, emitted
        quantum by quantum through :meth:`~repro.engine.store.
        ArtifactStore.get_or_stream`.  With the disk tier on, the value
        is a *memory-mapped* view of the finished bundle: paper-scale
        analyses (the partitioned cube engine, the bench harness) read
        it through the page cache instead of holding a heap copy, and
        repeat sessions map it straight back without re-expanding.
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

        # Streamed artifacts always persist; unlike the in-memory
        # ``dstream_addr`` (private to this session's store), the bundle
        # must carry the session identity in its key so sessions at
        # different scales sharing one disk tier never collide.
        arrays = self.store.get_or_stream(
            "dstream_addr_bundle",
            GENERATOR_VERSION,
            produce,
            session=self.spec().digest(),
        )
        return arrays["addresses"]

    def dstream_blocks(self, block_words: int) -> np.ndarray:
        """Multiprogrammed data stream at cache-block granularity."""

        def build() -> np.ndarray:
            return addresses_to_blocks(self.dstream_addresses(), block_words)

        return self.store.get_or_create(
            "dstream", GENERATOR_VERSION, build, block_words=block_words
        )

    # -- miss counts -------------------------------------------------------------

    def _cube_capacity(
        self, side: str, blocks: Tuple[int, ...], capacity_words: Optional[int]
    ) -> int:
        """Canonical top capacity (words) of a cube artifact.

        A cube always extends to the paper's largest per-side cache, so
        every geometry of the paper grid for one stream family maps to
        one shared artifact; larger one-off requests get a wider cube.
        """
        capacity = max(
            kw_to_words(_CUBE_MAX_KW), blocks[-1], int(capacity_words or 0)
        )
        if not is_power_of_two(capacity):
            raise ConfigurationError(
                f"invalid L1-{side} geometry: cube capacity must be a "
                f"power of two: {capacity} words"
            )
        return capacity

    def _cube_executor(self) -> SweepExecutor:
        executor = SweepExecutor(jobs=self.cube_jobs, backend="process")
        executor.tracer = self.tracer
        return executor

    def _build_cube(
        self,
        streams: Mapping[int, np.ndarray],
        set_counts: Mapping[int, Sequence[int]],
        ways: int,
    ) -> MissCube:
        """One cube build: serial engine, or set-partitioned at cube_jobs > 1.

        Both paths produce bit-identical counts (the partitioned merge
        is an exact integer sum), so the choice never shows in a stored
        artifact — only in wall-clock and peak memory.
        """
        if self.cube_jobs <= 1:
            return miss_cube(streams, set_counts, ways)
        executor = self._cube_executor()
        try:
            return partitioned_miss_cube(
                streams, set_counts, ways, executor=executor, tracer=self.tracer
            )
        finally:
            executor.shutdown()

    def _build_cube_from_addresses(
        self,
        addresses: np.ndarray,
        blocks: Tuple[int, ...],
        set_counts: Mapping[int, Sequence[int]],
        ways: int,
    ) -> MissCube:
        """Address-stream cube build, out-of-core at cube_jobs > 1."""
        if self.cube_jobs <= 1:
            return miss_cube(ShiftedStreams(addresses, blocks), set_counts, ways)
        executor = self._cube_executor()
        try:
            return partitioned_miss_cube_from_addresses(
                addresses,
                blocks,
                set_counts,
                ways,
                executor=executor,
                tracer=self.tracer,
                cross_check=False,  # _check_cube_base covers the whole stream
            )
        finally:
            executor.shutdown()

    def _check_cube_base(
        self, kind: str, cube: MissCube, streams: Mapping[int, np.ndarray]
    ) -> None:
        """Every A=1 base of the cube must match the direct-mapped sweep.

        Both claim to be exact over the same streams, by two unrelated
        algorithms (stack distances vs. adjacent-tag comparison) — a
        disagreement means one of them is wrong, so it is fatal rather
        than a warning.  This is also what pins every cube-backed
        experiment output to the retired per-axis simulation bit for
        bit.
        """
        for block_words, stream in streams.items():
            axis = direct_mapped_miss_sweep(stream, cube.set_counts(block_words))
            for num_sets, expected in axis.items():
                got = cube.misses(block_words, num_sets, 1)
                if got != expected:
                    raise RuntimeError(
                        f"{kind}: cube A=1 base disagrees with the "
                        f"direct-mapped sweep at B={block_words}, "
                        f"{num_sets} sets ({got} != {expected})"
                    )

    def _register_cube(
        self,
        side: str,
        slots: Optional[int],
        blocks: Tuple[int, ...],
        capacity_words: int,
        max_ways: int,
    ) -> None:
        """Remember a built cube as the routing target for its block sizes."""
        for block_words in blocks:
            key = (side, slots, block_words)
            entry = self._cube_index.get(key)
            if (
                entry is None
                or (
                    capacity_words >= entry["capacity_words"]
                    and max_ways >= entry["max_ways"]
                )
            ):
                self._cube_index[key] = {
                    "blocks": blocks,
                    "capacity_words": capacity_words,
                    "max_ways": max_ways,
                }

    def icache_miss_cube(
        self,
        slots: int,
        block_words: Sequence[int],
        capacity_words: Optional[int] = None,
        max_ways: Optional[int] = None,
    ) -> MissCube:
        """L1-I LRU misses over the whole (block x sets x ways) cube.

        One content-addressed artifact per (stream family, blocks,
        capacity, ways) tuple holds exact miss counts for every covered
        geometry: each block size at every power-of-two set count up to
        ``capacity_words // block`` and every associativity up to
        ``max_ways``, produced by a single engine pass
        (:func:`~repro.cache.misscube.miss_cube`) over the per-block
        instruction streams.  The bounds are canonicalized (at least the
        paper's 32 KW capacity and 8 ways — the pass costs the same), so
        every :meth:`misses` query on the paper grid resolves to the same
        artifact.
        Every block size's ``A = 1`` base is cross-checked against the
        independent :func:`~repro.cache.fastsim.direct_mapped_miss_sweep`
        before the cube is stored.
        """
        blocks = checked_block_words(block_words, context="L1-I")
        capacity = self._cube_capacity("I", blocks, capacity_words)
        ways = max(int(max_ways or 1), _CUBE_MAX_WAYS)
        set_counts = capacity_set_counts(blocks, capacity, context="L1-I")

        def build() -> MissCube:
            self.tracer.count("cache_sweeps")
            streams = {B: self.istream_blocks(slots, B) for B in blocks}
            with self.tracer.span(
                "imiss.cube",
                slots=slots,
                blocks=",".join(str(b) for b in blocks),
                capacity_words=capacity,
                max_ways=ways,
            ) as span:
                span.count("block_sizes", len(blocks))
                span.count("references", sum(len(s) for s in streams.values()))
                cube = self._build_cube(streams, set_counts, ways)
            self._check_cube_base("imiss_cube", cube, streams)
            return cube

        cube = self.store.get_or_create(
            "imiss_cube",
            MISS_CUBE_VERSION,
            build,
            slots=slots,
            blocks=",".join(str(b) for b in blocks),
            capacity_words=capacity,
            max_ways=ways,
        )
        self._register_cube("I", slots, blocks, capacity, ways)
        return cube

    def dcache_miss_cube(
        self,
        block_words: Sequence[int],
        capacity_words: Optional[int] = None,
        max_ways: Optional[int] = None,
    ) -> MissCube:
        """L1-D LRU misses over the whole (block x sets x ways) cube.

        The data-side cube consumes the single block-independent address
        stream (:meth:`dstream_addresses`); block-size doubling is one
        more shift view inside the engine
        (:func:`~repro.cache.misscube.miss_cube_from_addresses`
        semantics, with the shift views shared through the store).
        """
        blocks = checked_block_words(block_words, context="L1-D")
        capacity = self._cube_capacity("D", blocks, capacity_words)
        ways = max(int(max_ways or 1), _CUBE_MAX_WAYS)
        set_counts = capacity_set_counts(blocks, capacity, context="L1-D")

        def build() -> MissCube:
            self.tracer.count("cache_sweeps")
            with self.tracer.span(
                "dmiss.cube",
                blocks=",".join(str(b) for b in blocks),
                capacity_words=capacity,
                max_ways=ways,
            ) as span:
                span.count("block_sizes", len(blocks))
                if self.cube_jobs > 1:
                    # Parallel builds consume the memory-mapped address
                    # bundle out-of-core instead of materializing one
                    # block stream per block size.
                    addresses = self.dstream_address_bundle()
                    span.count("references", len(blocks) * len(addresses))
                    streams: Mapping[int, np.ndarray] = ShiftedStreams(
                        addresses, blocks
                    )
                    cube = self._build_cube_from_addresses(
                        addresses, blocks, set_counts, ways
                    )
                else:
                    streams = {B: self.dstream_blocks(B) for B in blocks}
                    span.count(
                        "references", sum(len(s) for s in streams.values())
                    )
                    cube = miss_cube(streams, set_counts, ways)
            self._check_cube_base("dmiss_cube", cube, streams)
            return cube

        cube = self.store.get_or_create(
            "dmiss_cube",
            MISS_CUBE_VERSION,
            build,
            blocks=",".join(str(b) for b in blocks),
            capacity_words=capacity,
            max_ways=ways,
        )
        self._register_cube("D", None, blocks, capacity, ways)
        return cube

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
        or ``L1-D``) before any stream is built.  The count comes from
        the side's miss cube, routed through the session's cube index so
        that a request an already-built cube covers is a store hit on it
        rather than a narrower build.
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
        entry = self._cube_index.get((side, slots, block_words))
        if (
            entry is not None
            and entry["capacity_words"] >= size_blocks * block_words
            and entry["max_ways"] >= ways
        ):
            blocks = entry["blocks"]
            capacity = entry["capacity_words"]
            max_ways = entry["max_ways"]
        else:
            blocks = (block_words,)
            capacity = size_blocks * block_words
            max_ways = ways
        if side == "I":
            cube = self.icache_miss_cube(slots, blocks, capacity, max_ways)
        else:
            cube = self.dcache_miss_cube(blocks, capacity, max_ways)
        return cube.capacity_misses(block_words, size_blocks, ways)

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
