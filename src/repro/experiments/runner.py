"""CLI: regenerate any subset of the paper's tables and figures.

Usage::

    repro-experiments                     # everything, full scale
    repro-experiments table2 fig12       # a subset
    repro-experiments --scale quick      # smaller traces (smoke run)
    repro-experiments --out results/     # also write one .txt per result
    repro-experiments --jobs 4           # parallel trace synthesis + cube builds
    repro-experiments --profile          # span tree + store hit rates
    repro-experiments --metrics m.json   # machine-readable run ledger
    repro-experiments --list             # show available experiment names
    repro-experiments --run-dir RUNS/a fig12     # durable (journaled) sweeps
    repro-experiments --run-dir RUNS/a --resume  # continue a failed or killed run
    repro-experiments optimize --objective frontier   # Pareto (TPI, EPI, area)
    repro-experiments optimize --objective epi --max-area-cm2 40

``--run-dir DIR`` makes every design-space sweep durable: the grid is
split into journaled shards of eight points, a shard that fails stops
the run with its reason (exit 1), and a run that failed or was killed
mid-sweep resumes from its journal with ``--resume`` — producing
byte-identical ``results/*.txt``.

``--jobs N`` sizes the session's one worker pool (its :class:`~repro.
engine.executor.SweepExecutor`): per-benchmark trace synthesis and the
miss-cube builds' tasks run on N worker processes, with results
identical to ``--jobs 1``; design points are evaluated in this process
either way.  Unknown experiment names raise
:class:`~repro.errors.ConfigurationError` from :func:`run_experiments`
(the CLI reports them as an argparse error instead).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.measurement import SuiteMeasurement
from repro.engine.session import DEFAULT_REGISTRY, SessionRegistry
from repro.errors import ConfigurationError
from repro.jobs import FaultInjector, JobConfig
from repro.obs import NULL_TRACER, RunLedger, Tracer
from repro.obs.ledger import peak_rss_mb
from repro.experiments import (
    ext_associativity,
    ext_blocksize,
    ext_btb_size,
    ext_energy,
    ext_l2,
    ext_quantum,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.experiments.common import EXPERIMENT_SCALES, ExperimentResult

__all__ = [
    "ALL_EXPERIMENTS",
    "EXTENSION_EXPERIMENTS",
    "main",
    "optimize_main",
    "run_experiments",
    "list_experiments",
    "jsonable",
]


# Canonical home is repro.utils.jsonio (the sweep service and the run
# ledger share it); re-exported here because the CLI has always carried
# it in its public __all__.
from repro.utils.jsonio import jsonable  # noqa: E402  (re-export)

ALL_EXPERIMENTS: Dict[str, Callable] = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
    "fig13": fig13.run,
}

#: Extension studies beyond the paper's artifacts (Section 6 conjecture
#: and methodology ablations).  Run only when named explicitly or with
#: ``--extensions``.
EXTENSION_EXPERIMENTS: Dict[str, Callable] = {
    "ext_associativity": ext_associativity.run,
    "ext_blocksize": ext_blocksize.run,
    "ext_btb_size": ext_btb_size.run,
    "ext_energy": ext_energy.run,
    "ext_l2": ext_l2.run,
    "ext_quantum": ext_quantum.run,
}


def _reaped_peaks(measurement: SuiteMeasurement) -> Dict[str, float]:
    """The run's peak RSS figures, taken after the session's worker pool
    is shut down and its workers reaped: ``RUSAGE_CHILDREN`` counts only
    children that have been waited for."""
    measurement.executor.retire_pool(wait=True)
    return peak_rss_mb()


def _record_executor(ledger: RunLedger, measurement: SuiteMeasurement) -> None:
    """The ledger's ``executor`` section: the session's one pool."""
    executor = measurement.executor
    ledger.set_executor_info(
        backend=executor.backend,
        jobs=executor.jobs,
        start_method=executor.start_method,
    )


def list_experiments() -> str:
    """Human-readable listing of every available experiment name."""
    lines = ["paper artifacts:"]
    lines += [f"  {name}" for name in ALL_EXPERIMENTS]
    lines.append("extension studies:")
    lines += [f"  {name}" for name in EXTENSION_EXPERIMENTS]
    return "\n".join(lines)


def run_experiments(
    names: Optional[List[str]] = None,
    scale: Optional[str] = None,
    out_dir: Optional[Path] = None,
    stream=sys.stdout,
    jobs: Optional[int] = None,
    registry: Optional[SessionRegistry] = None,
    profile: bool = False,
    metrics_path: Optional[Path] = None,
    job_config: Optional[JobConfig] = None,
) -> List[ExperimentResult]:
    """Run experiments by name (all paper artifacts by default).

    Raises :class:`~repro.errors.ConfigurationError` for unknown names —
    this is library code, so it never calls :func:`sys.exit`.

    Durability: with ``job_config`` set (the ``--run-dir`` family of CLI
    flags), every design-space sweep journals its shards into the run
    directory and a killed run can be resumed with ``resume=True``
    (``--resume``); rendered results are byte-identical either way.

    Observability: with ``profile``, ``metrics_path``, or ``out_dir``
    set, the run is traced through :mod:`repro.obs` and a
    :class:`~repro.obs.RunLedger` is assembled.  ``metrics_path`` (or,
    failing that, ``out_dir/metrics.json``) receives the machine-readable
    ledger plus an ASCII twin next to it; ``profile`` prints the span
    tree and artifact-store hit rates to ``stream`` after the run.
    Instrumentation is passive — the rendered results (and the
    ``results/*.txt`` files) are byte-identical with it on or off.
    """
    available = {**ALL_EXPERIMENTS, **EXTENSION_EXPERIMENTS}
    selected = names or list(ALL_EXPERIMENTS)
    unknown = [name for name in selected if name not in available]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment(s): {unknown}; available: {list(available)}"
        )
    reg = registry if registry is not None else DEFAULT_REGISTRY
    resolved_scale = reg.resolve_scale(scale)
    measurement = reg.get(resolved_scale, jobs=jobs)
    observing = profile or metrics_path is not None or out_dir is not None
    tracer = Tracer() if observing else NULL_TRACER
    previous_tracer = measurement.tracer
    measurement.attach_tracer(tracer)
    previous_jobs = measurement.job_config
    if job_config is not None:
        job_config.prepare()  # fail fast on a non-resumable run dir
        measurement.attach_jobs(job_config)
    ledger = RunLedger(tracer if observing else None)
    ledger.set_run_info(
        scale=resolved_scale,
        seed=measurement.seed,
        total_instructions=measurement.total_instructions,
        experiments_requested=list(selected),
    )
    _record_executor(ledger, measurement)
    results = []
    try:
        for name in selected:
            started = time.perf_counter()
            with tracer.span(name):
                result = available[name](measurement)
            elapsed = time.perf_counter() - started
            ledger.record_experiment(name, elapsed)
            print(result, file=stream)
            print(f"[{name} regenerated in {elapsed:.1f}s]\n", file=stream)
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / f"{name}.txt").write_text(str(result) + "\n")
                payload = {
                    "experiment_id": result.experiment_id,
                    "title": result.title,
                    "paper_notes": result.paper_notes,
                    "data": jsonable(result.data),
                }
                (out_dir / f"{name}.json").write_text(json.dumps(payload, indent=2))
            results.append(result)
    finally:
        measurement.attach_tracer(previous_tracer)
        if job_config is not None:
            measurement.attach_jobs(previous_jobs)
    ledger.snapshot_store(measurement.store.stats())
    ledger.set_run_info(**_reaped_peaks(measurement))
    if job_config is not None:
        ledger.set_jobs_info(
            run_dir=str(job_config.run_dir),
            resume=job_config.resume,
            **job_config.stats.as_dict(),
        )
    resolved_metrics = metrics_path
    if resolved_metrics is None and out_dir is not None:
        resolved_metrics = out_dir / "metrics.json"
    if resolved_metrics is not None:
        resolved_metrics = Path(resolved_metrics)
        ledger.write(resolved_metrics)
        resolved_metrics.with_suffix(".txt").write_text(
            ledger.render_summary() + "\n"
        )
    if profile:
        print("-- profile --", file=stream)
        print(ledger.render_summary(), file=stream)
    return results


def optimize_main(argv: Optional[List[str]] = None) -> int:
    """``runner optimize``: one design-space selection, any objective.

    Scores the paper's symmetric grid (or the full asymmetric space) on
    (TPI, EPI, area) and reports the named objective's winner — or, with
    ``--objective frontier``, the whole Pareto-non-dominated set.
    Budgets (``--max-area-cm2`` / ``--max-power-w``) filter the eligible
    set first; ``--leakage-scale`` moves the energy optimum the way the
    ``ext_energy`` study sweeps.
    """
    import dataclasses

    from repro.core import SystemConfig, frontier_report
    from repro.core.frontier import OBJECTIVES
    from repro.core.optimizer import DesignOptimizer
    from repro.physical import DEFAULT_PHYSICAL

    parser = argparse.ArgumentParser(
        prog="repro-experiments optimize",
        description="Multi-objective design selection over (TPI, EPI, area).",
    )
    parser.add_argument(
        "--objective",
        choices=OBJECTIVES,
        default="tpi",
        help="what to minimize, or 'frontier' for the whole Pareto set "
        "(default: tpi)",
    )
    parser.add_argument(
        "--max-area-cm2",
        type=float,
        default=None,
        metavar="A",
        help="only consider designs with total MCM area <= A",
    )
    parser.add_argument(
        "--max-power-w",
        type=float,
        default=None,
        metavar="P",
        help="only consider designs with average power <= P watts",
    )
    parser.add_argument(
        "--leakage-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="multiplier on static power (default: 1.0)",
    )
    parser.add_argument(
        "--asymmetric",
        action="store_true",
        help="sweep the full asymmetric I/D space instead of the "
        "symmetric Figure 12 grid",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(EXPERIMENT_SCALES),
        default=None,
        help="trace scale (default: REPRO_SCALE env var or 'full')",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for trace synthesis and miss-cube builds "
        "(default: 1)",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the run ledger (with its physical section) here",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    if args.leakage_scale < 0:
        parser.error("--leakage-scale cannot be negative")
    try:
        measurement = DEFAULT_REGISTRY.get(args.scale, jobs=args.jobs)
        observing = args.metrics is not None
        tracer = Tracer() if observing else NULL_TRACER
        previous_tracer = measurement.tracer
        measurement.attach_tracer(tracer)
        try:
            phys = dataclasses.replace(
                DEFAULT_PHYSICAL, leakage_scale=args.leakage_scale
            )
            optimizer = DesignOptimizer(measurement, phys=phys)
            base = SystemConfig()
            grid = (
                optimizer.asymmetric_grid(base)
                if args.asymmetric
                else optimizer.symmetric_grid(base)
            )
            selection = optimizer.select(
                grid,
                objective=args.objective,
                max_area_cm2=args.max_area_cm2,
                max_power_w=args.max_power_w,
            )
        finally:
            measurement.attach_tracer(previous_tracer)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if selection.frontier:
        print(frontier_report(selection.frontier))
    best = selection.best
    if best is not None:
        config = best.config
        print(
            f"{args.objective}-optimal: L1-I {config.icache_kw:g} KW "
            f"(b={config.branch_slots}), L1-D {config.dcache_kw:g} KW "
            f"(l={config.load_slots}) -> TPI {best.tpi_ns:.2f} ns, "
            f"EPI {best.epi_nj:.2f} nJ, EDP {best.edp:.2f}, "
            f"area {best.area_cm2:.1f} cm2, power {best.power_w:.2f} W"
        )
    if args.metrics is not None:
        ledger = RunLedger(tracer)
        ledger.set_run_info(
            scale=DEFAULT_REGISTRY.resolve_scale(args.scale),
            command="optimize",
        )
        _record_executor(ledger, measurement)
        ledger.set_physical_info(
            objective=args.objective,
            leakage_scale=args.leakage_scale,
            max_area_cm2=args.max_area_cm2,
            max_power_w=args.max_power_w,
            grid_points=len(selection.points),
            eligible_points=len(selection.eligible),
            frontier_points=len(selection.frontier),
            **(
                {
                    "best_tpi_ns": best.tpi_ns,
                    "best_epi_nj": best.epi_nj,
                    "best_area_cm2": best.area_cm2,
                    "best_power_w": best.power_w,
                }
                if best is not None
                else {}
            ),
        )
        ledger.snapshot_store(measurement.store.stats())
        ledger.set_run_info(**_reaped_peaks(measurement))
        ledger.write(args.metrics)
        args.metrics.with_suffix(".txt").write_text(
            ledger.render_summary() + "\n"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # `runner serve ...` hands off to the sweep service CLI; the
        # experiment flags below do not apply to a long-lived server.
        from repro.service.__main__ import serve_main

        return serve_main(list(argv[1:]))
    if argv and argv[0] == "optimize":
        # `runner optimize ...` is the multi-objective selection CLI.
        return optimize_main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures "
        "('serve' starts the sweep service, 'optimize' runs a "
        "multi-objective design selection; see `serve --help` / "
        "`optimize --help`)."
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="subset to run (default: all paper artifacts; see --list)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(EXPERIMENT_SCALES),
        default=None,
        help="trace scale (default: REPRO_SCALE env var or 'full')",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="directory for per-result .txt files"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for trace synthesis and miss-cube builds: "
        "each block size's cube and A=1 check run as tasks (results "
        "identical at any N; default: 1, in this process)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the span tree and artifact-store hit rates after the run",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the machine-readable run ledger (metrics.json) here "
        "(default with --out: OUT/metrics.json)",
    )
    parser.add_argument(
        "--run-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="journal design-space sweeps into DIR so a failed or killed "
        "run can be resumed (see --resume); results are byte-identical "
        "either way",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue a previous --run-dir run: completed shards are "
        "replayed from the journal, only unfinished shards (a failed one "
        "included) execute",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="KIND:SHARD[:ATTEMPT]",
        help="testing only: script a deterministic fault into the durable "
        "run (task-error, worker-exit, abort); requires --run-dir",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the available experiment names and exit",
    )
    parser.add_argument(
        "--extensions",
        action="store_true",
        help="also run the extension studies (Section 6 + ablations)",
    )
    args = parser.parse_args(argv)
    if args.list:
        print(list_experiments())
        return 0
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    available = {**ALL_EXPERIMENTS, **EXTENSION_EXPERIMENTS}
    unknown = [name for name in args.experiments if name not in available]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} (see --list)"
        )
    if args.run_dir is None:
        for flag, given in (
            ("--resume", args.resume),
            ("--inject-fault", args.inject_fault),
        ):
            if given:
                parser.error(f"{flag} requires --run-dir")
    job_config = None
    if args.run_dir is not None:
        try:
            faults = (
                FaultInjector.parse(args.inject_fault)
                if args.inject_fault
                else None
            )
        except ConfigurationError as exc:
            parser.error(str(exc))
        job_config = JobConfig(
            run_dir=args.run_dir, resume=args.resume, faults=faults
        )
    names = args.experiments or None
    if args.extensions:
        names = (names or list(ALL_EXPERIMENTS)) + list(EXTENSION_EXPERIMENTS)
    try:
        run_experiments(
            names,
            scale=args.scale,
            out_dir=args.out,
            jobs=args.jobs,
            profile=args.profile,
            metrics_path=args.metrics,
            job_config=job_config,
        )
    except ConfigurationError as exc:
        # e.g. an invalid REPRO_SCALE env var, which --scale can't pre-check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
