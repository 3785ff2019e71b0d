"""The program's layers, the entry points wrapped for each, and the
per-layer metrics derived from the recorded spans.

Each layer is named after the module it lives in.  ``<layer>_s``-style
metrics are *inclusive*: the wall time during which at least one span of
the layer was open (union over threads).  ``<layer>.self_s`` metrics are
*self* time: span durations minus the part covered by their child spans,
summed, so the self times and ``unattributed_s`` add up to the traced
work.  Work inside ``cubepart`` worker processes is not traced; it shows
as the parent's wait inside ``cubepart.build_s`` and
``engine.executor.map_s``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from spans import Span, Target, union_length

#: Layer -> (inclusive-time metric name, self-time metric name).
LAYERS: Dict[str, tuple] = {
    "workload.synthesize": ("workload.synthesize_s", "workload.synthesize.self_s"),
    "trace.compile": ("trace.compile_s", "trace.compile.self_s"),
    "trace.walk": ("trace.walk_s", "trace.walk.self_s"),
    "sched.translate": ("sched.translate_s", "sched.translate.self_s"),
    "sched.analysis": ("sched.analysis_s", "sched.analysis.self_s"),
    "branchpred.btb": ("branchpred.btb_s", "branchpred.btb.self_s"),
    "streams.expand": ("streams.expand_s", "streams.expand.self_s"),
    "cache.cube": (None, "cache.cube.self_s"),
    "cache.crosscheck": ("cache.crosscheck_s", "cache.crosscheck.self_s"),
    "cubepart": ("cubepart.build_s", "cubepart.self_s"),
    "engine.executor": ("engine.executor.map_s", "engine.executor.self_s"),
    "core.optimizer": ("core.optimizer.sweep_s", "core.optimizer.self_s"),
    "physical.score": ("physical.score_s", "physical.score.self_s"),
    "core.frontier": ("core.frontier.select_s", "core.frontier.self_s"),
    "jobs": ("jobs.run_s", "jobs.self_s"),
    "service.parse": ("service.parse_s", "service.parse.self_s"),
    "service.scheduler": (None, "service.scheduler.self_s"),
    "service.client": ("service.client.request_s", "service.client.self_s"),
}

_CUBE_LAYERS = ("cache.cube", "cubepart")

#: Every per-layer metric name with its unit; BENCHMARK.json lists the same.
PER_LAYER_UNITS: Dict[str, str] = {
    "workload.synthesize_s": "s",
    "trace.compile_s": "s",
    "trace.walk_s": "s",
    "trace.instructions": "count",
    "trace.instr_per_s": "1/s",
    "sched.translate_s": "s",
    "sched.analysis_s": "s",
    "branchpred.btb_s": "s",
    "streams.expand_s": "s",
    "streams.references": "count",
    "cache.cube_s": "s",
    "cache.cube_refs": "count",
    "cache.cube_refs_per_s": "1/s",
    "cache.crosscheck_s": "s",
    "cubepart.build_s": "s",
    "cubepart.partitions": "count",
    "engine.store.hits": "count",
    "engine.store.misses": "count",
    "engine.store.disk_hits": "count",
    "engine.store.disk_evictions": "count",
    "engine.store.hit_rate": "ratio",
    "engine.executor.map_s": "s",
    "engine.executor.tasks": "count",
    "core.optimizer.sweep_s": "s",
    "core.optimizer.points": "count",
    "physical.score_s": "s",
    "core.frontier.select_s": "s",
    "jobs.run_s": "s",
    "jobs.shards": "count",
    "jobs.retries": "count",
    "service.parse_s": "s",
    "service.queue_wait_ms": "ms",
    "service.scheduler.memo_hits": "count",
    "service.scheduler.coalesced": "count",
    "service.scheduler.completed": "count",
    "service.scheduler.failed": "count",
    "service.memo_frac": "ratio",
    "service.client.request_s": "s",
    "unattributed_s": "s",
    "tracing_overhead_s": "s",
    **{names[1]: "s" for names in LAYERS.values()},
}


class LayerCollector:
    """Hooks that count work at the wrapped boundaries."""

    def __init__(self) -> None:
        self.job_stats: Dict[int, Any] = {}
        self.submitted_jobs: List[Any] = []

    def targets(self) -> List[Target]:
        from repro.cache.cubepart import DEFAULT_PARTITIONS

        def walked(span: Span, args, kwargs, chunk) -> None:
            lengths = args[0].compiled.lengths
            span.count("instructions", int(lengths[chunk.block_ids].sum()))

        def references(span: Span, args, kwargs, result) -> None:
            span.count("references", len(result))

        def cube_refs(span: Span, args, kwargs, cube) -> None:
            span.count("references", sum(int(n) for n in cube.references.values()))

        def partitioned(span: Span, args, kwargs, cube) -> None:
            cube_refs(span, args, kwargs, cube)
            span.count("partitions", int(kwargs.get("partitions", DEFAULT_PARTITIONS)))

        def tasks(span: Span, args, kwargs, result) -> None:
            span.count("tasks", len(result))

        def points(span: Span, args, kwargs, result) -> None:
            span.count("points", len(result))

        def job_run(span: Span, args, kwargs, result) -> None:
            stats = args[0].config.stats
            self.job_stats[id(stats)] = stats

        def submitted(span: Span, args, kwargs, job) -> None:
            self.submitted_jobs.append(job)

        return [
            Target("workload.synthesize", "repro.workload.synthesis", "synthesize_program"),
            Target("trace.compile", "repro.trace.compiled", "CompiledProgram.__init__"),
            Target(
                "trace.walk", "repro.trace.executor", "TraceExecutor.iter_chunks",
                generator=True, hook=walked,
            ),
            Target("sched.translate", "repro.sched.translation", "TranslationFile.__init__"),
            Target("sched.translate", "repro.sched.branch_schedule", "schedule_ctis"),
            Target("sched.analysis", "repro.sched.load_schedule", "analyze_load_slack"),
            Target("sched.analysis", "repro.sched.refstream", "branch_delay_stats"),
            Target("branchpred.btb", "repro.branchpred.btb", "BranchTargetBuffer.simulate"),
            Target("branchpred.btb", "repro.branchpred.streams", "cti_stream"),
            Target("streams.expand", "repro.sched.refstream", "expand_istream"),
            Target(
                "streams.expand", "repro.sched.refstream",
                "InstructionStream.cache_block_sequence", hook=references,
            ),
            Target(
                "streams.expand", "repro.workload.memory",
                "DataReferenceModel.generate", hook=references,
            ),
            Target("streams.expand", "repro.trace.multiprogram", "interleave_chunks"),
            Target(
                "streams.expand", "repro.trace.multiprogram", "iter_interleaved",
                generator=True,
            ),
            Target("streams.expand", "repro.cache.fastsim", "addresses_to_blocks"),
            Target("cache.cube", "repro.cache.misscube", "miss_cube", hook=cube_refs),
            Target(
                "cache.cube", "repro.cache.misscube", "miss_cube_from_addresses",
                hook=cube_refs,
            ),
            Target("cache.crosscheck", "repro.cache.fastsim", "direct_mapped_miss_sweep"),
            Target(
                "cubepart", "repro.cache.cubepart", "partitioned_miss_cube",
                hook=partitioned,
            ),
            Target(
                "cubepart", "repro.cache.cubepart",
                "partitioned_miss_cube_from_addresses", hook=partitioned,
            ),
            Target("engine.executor", "repro.engine.executor", "SweepExecutor.map", hook=tasks),
            Target("core.optimizer", "repro.core.optimizer", "DesignOptimizer.sweep", hook=points),
            Target("physical.score", "repro.physical.model", "PhysicalModel.breakdown"),
            Target("core.frontier", "repro.core.frontier", "pareto_frontier"),
            Target("core.frontier", "repro.core.frontier", "within_budgets"),
            Target("jobs", "repro.jobs.runner", "JobRunner.run", hook=job_run),
            Target("service.parse", "repro.service.protocol", "parse_query"),
            Target(
                "service.scheduler", "repro.service.scheduler", "SweepScheduler.submit",
                hook=submitted,
            ),
            Target("service.client", "repro.service.client", "ServiceClient.submit"),
        ]


def _outermost(spans: Sequence[Span], layers: Sequence[str]) -> List[Span]:
    """Spans of ``layers`` not nested inside another span of ``layers``."""
    return [
        span
        for span in spans
        if span.layer in layers
        and not any(a.layer in layers for a in span.ancestors())
    ]


def _counted(spans: Sequence[Span], layers: Sequence[str], name: str) -> int:
    return int(sum(s.counts.get(name, 0) for s in _outermost(spans, layers)))


def _inclusive(spans: Sequence[Span], layers: Sequence[str]) -> float:
    return union_length((s.start, s.end) for s in spans if s.layer in layers)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(
    spans: Sequence[Span],
    collector: LayerCollector,
    work_wall_s: float,
    store_stats: Mapping[str, int],
    service_stats: Mapping[str, int],
) -> Dict[str, float]:
    """Every per-layer metric except ``tracing_overhead_s``."""
    metrics: Dict[str, float] = {}
    for layer, (inclusive_name, self_name) in LAYERS.items():
        if inclusive_name is not None:
            metrics[inclusive_name] = _inclusive(spans, (layer,))
        metrics[self_name] = sum(s.self_time for s in spans if s.layer == layer)

    instructions = _counted(spans, ("trace.walk",), "instructions")
    metrics["trace.instructions"] = instructions
    metrics["trace.instr_per_s"] = _ratio(instructions, metrics["trace.walk.self_s"])
    metrics["streams.references"] = _counted(spans, ("streams.expand",), "references")
    metrics["cache.cube_s"] = _inclusive(spans, _CUBE_LAYERS)
    cube_refs = _counted(spans, _CUBE_LAYERS, "references")
    metrics["cache.cube_refs"] = cube_refs
    metrics["cache.cube_refs_per_s"] = _ratio(cube_refs, metrics["cache.cube_s"])
    metrics["cubepart.partitions"] = _counted(spans, ("cubepart",), "partitions")
    metrics["engine.executor.tasks"] = _counted(spans, ("engine.executor",), "tasks")
    metrics["core.optimizer.points"] = _counted(spans, ("core.optimizer",), "points")
    metrics["jobs.shards"] = sum(s.shards_total for s in collector.job_stats.values())
    metrics["jobs.retries"] = sum(s.shard_retries for s in collector.job_stats.values())

    waits = [
        job.started_s - job.submitted_s
        for job in collector.submitted_jobs
        if job.started_s and not job.cache_hit
    ]
    metrics["service.queue_wait_ms"] = 1e3 * _ratio(sum(waits), len(waits))

    hits = store_stats.get("hits", 0)
    misses = store_stats.get("misses", 0)
    metrics["engine.store.hits"] = hits
    metrics["engine.store.misses"] = misses
    metrics["engine.store.disk_hits"] = store_stats.get("disk_hits", 0)
    metrics["engine.store.disk_evictions"] = store_stats.get("disk_evictions", 0)
    metrics["engine.store.hit_rate"] = _ratio(hits, hits + misses)

    for name in ("memo_hits", "coalesced", "completed", "failed"):
        metrics[f"service.scheduler.{name}"] = service_stats.get(name, 0)
    metrics["service.memo_frac"] = _ratio(
        service_stats.get("memo_hits", 0) + service_stats.get("coalesced", 0),
        service_stats.get("submitted", 0),
    )
    covered = union_length((s.start, s.end) for s in spans)
    metrics["unattributed_s"] = max(0.0, work_wall_s - covered)
    return metrics
