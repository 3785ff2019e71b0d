"""The benchmark's workloads, one measured run per child process.

``run.py`` starts this file once per measured run, in a fresh process
with its own cache directory; tests call :func:`execute` directly at a
tiny :class:`Sizing`.  Every workload drives the program only through
public entry points (``SuiteMeasurement``, ``DesignOptimizer``,
``SweepService`` + ``ServiceClient``), splits its life into a set-up, a
timed run and an untimed correctness check, and counts every failed call
or mismatch as a failed operation.

* ``cube-warm`` — a 1M-instruction session whose traces are already in
  the store (filled untimed by ``run.py``); I-side cubes for slots 0-3,
  the D-side cube over blocks (4, 8, 16) on the set-partitioned engine,
  then ``select()`` over the asymmetric grid under both branch schemes.
  Cube counts and every scored point must match golden digests.
* ``service-mixed`` — an in-process ``SweepService`` at ``quick`` with a
  pre-warmed session; one closed-loop client sends a seeded mix of re-spelled
  repeats and novel grids under a small disk budget.  Every answer must
  equal an independent in-process evaluation of the same grid.

Usage (normally only through ``run.py``)::

    python3 perfbench/workloads.py --workload cube-warm --seed 1 \
        --seconds 10 --trace 0 --cache-dir DIR --out result.json
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

SLOTS = (0, 1, 2, 3)
#: Every service grid draws from these values.  Block size stays at the
#: default 4 words so novel grids are answered from the pre-warmed cubes;
#: branch depths are limited to two because each one costs a delay-slot
#: translation of the whole suite in set-up.
SIZES_KW = (1, 2, 4, 8, 16, 32)
SERVICE_BRANCH_SLOTS = (1, 2)
#: Share of each client's requests that re-spell a memoised hot grid;
#: the rest are novel grids.  Above one half so the median latency sits
#: inside the memo-hit population instead of on the boundary between
#: the two populations.
REPEAT_SHARE = 0.6
HOT_GRIDS = 8
#: One closed-loop client.  The service runs every request under one GIL,
#: so with two clients a memo hit's latency depended on whether the other
#: client's sweep held the GIL at that moment, and a novel grid ran at
#: 1x or 2x its own time: the median and tail spread ~30 % between runs
#: of the same code on a loaded host.  Alone, each population is narrow.
#: Small enough that nearly every memo write evicts an older entry.
SERVICE_DISK_BUDGET = 64 * 1024
#: Worker processes of the set-partitioned cube engine (= ``nproc``).
CUBE_JOBS = 2
_OBJECTIVE_SPELLINGS = ("tpi", "min_tpi", "TPI", "Min_TPI")


@dataclass(frozen=True)
class Sizing:
    """How much work each workload does.  The defaults are the benchmark."""

    #: Benchmark names to synthesize (None: the full Table 1 suite).
    specs: Optional[Tuple[str, ...]] = None
    cube_instructions: int = 1_000_000
    cube_slots: Tuple[int, ...] = SLOTS
    cube_dblocks: Tuple[int, ...] = (4, 8, 16)
    service_instructions: int = 400_000
    #: Requests the client sends per second of ``--seconds`` (fixed
    #: work: a faster service finishes the same sequence sooner), in
    #: rounds of ``service_round`` requests.
    service_rate: float = 60.0
    service_round: int = 30

    def fingerprint(self) -> str:
        """Identity of the cube-warm inputs the golden digests belong to."""
        fields = ("specs", "cube_instructions", "cube_slots", "cube_dblocks")
        values = {name: getattr(self, name) for name in fields}
        return f"cube-warm:{json.dumps(values, sort_keys=True)}"


DEFAULT_SIZING = Sizing()


def _table1(sizing: Sizing):
    from repro.workload import TABLE1_SUITE

    if sizing.specs is None:
        return None
    return [spec for spec in TABLE1_SUITE if spec.name in sizing.specs]


def _session(sizing: Sizing, instructions: int, cache_dir: Path):
    from repro import SuiteMeasurement
    from repro.engine.executor import SweepExecutor
    from repro.engine.store import ArtifactStore

    return SuiteMeasurement(
        specs=_table1(sizing),
        total_instructions=instructions,
        store=ArtifactStore(cache_dir=cache_dir),
        executor=SweepExecutor(jobs=1),
    )


def cube_digest(cube) -> str:
    """Digest of a miss cube's exact counts."""
    digest = hashlib.sha256()
    for block in sorted(cube.hits):
        digest.update(f"B{block}:{cube.references[block]};".encode())
        for sets in sorted(cube.hits[block]):
            digest.update(f"S{sets};".encode())
            digest.update(cube.hits[block][sets].astype("<i8").tobytes())
    digest.update(f"W{cube.max_ways}".encode())
    return digest.hexdigest()


def points_digest(points) -> str:
    """Digest of scored design points (config, CPI, cycle, EPI, area)."""
    from repro.jobs.runner import config_to_params

    rows = [
        [config_to_params(p.config), repr(p.cpi), repr(p.cycle_time_ns),
         repr(p.epi_nj), repr(p.area_cm2)]
        for p in points
    ]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def compare_digests(
    got: Dict[str, str], golden: Optional[Dict[str, str]]
) -> List[str]:
    """Mismatch descriptions (one per differing, missing or extra entry)."""
    if golden is None:
        return ["no golden digests recorded for this sizing"]
    problems = []
    for name in sorted(set(got) | set(golden)):
        if got.get(name) != golden.get(name):
            problems.append(
                f"{name}: digest {got.get(name, 'missing')[:12]} != golden "
                f"{golden.get(name, 'missing')[:12]}"
            )
    return problems


class HostSpeed:
    """Samples this vCPU's speed while a run is measured.

    The sandbox's CPU speed drifts by tens of percent over seconds, so raw
    wall times of identical work spread wider than any useful regression
    bound.  Every ``INTERVAL_S`` a SIGALRM handler times a fixed
    pure-Python reference loop in the main thread (about 2 % overhead).
    The median loop time per ``WINDOW_S`` window gives that window's speed
    factor ``NOMINAL_S / median``; :meth:`normalized` integrates a wall
    interval against those factors, giving seconds on a host that runs
    the loop in ``NOMINAL_S``.
    """

    INTERVAL_S = 0.05
    WINDOW_S = 1.0
    LOOP = 20_000
    NOMINAL_S = 0.0015

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous = None
        self._factors: Optional[List[float]] = None

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        total = 0
        for i in range(self.LOOP):
            total += i * i
        self.samples.append((started, time.perf_counter() - started))

    def __enter__(self) -> "HostSpeed":
        import signal

        self.origin = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window_factors(self) -> List[float]:
        if self._factors is None:
            buckets: Dict[int, List[float]] = {}
            for started, duration in self.samples:
                index = max(0, int((started - self.origin) / self.WINDOW_S))
                buckets.setdefault(index, []).append(duration)
            last = max(buckets, default=0)
            factors: List[Optional[float]] = [None] * (last + 1)
            for index, durations in buckets.items():
                durations.sort()
                factors[index] = self.NOMINAL_S / durations[len(durations) // 2]
            known = [i for i, f in enumerate(factors) if f is not None]
            self._factors = [
                factors[min(known, key=lambda k: abs(k - i))] if known else 1.0
                for i in range(len(factors))
            ]
        return self._factors

    def factor(self, t: float) -> float:
        factors = self._window_factors()
        index = int((t - self.origin) / self.WINDOW_S)
        return factors[min(max(index, 0), len(factors) - 1)]

    def normalized(self, start: float, end: float) -> float:
        """``end - start`` in nominal-host seconds, window by window."""
        total = 0.0
        t = start
        while t < end:
            window = max(math.floor((t - self.origin) / self.WINDOW_S), -1)
            stop = min(end, self.origin + (window + 1) * self.WINDOW_S)
            total += (stop - t) * self.factor(t)
            t = stop
        return total

    def summary(self) -> Dict[str, float]:
        durations = sorted(d for _, d in self.samples)
        return {
            "samples": len(durations),
            "ref_loop_median_ms": 1e3 * durations[len(durations) // 2] if durations else 0.0,
        }


class Workload:
    """Set-up, timed run and check of one workload."""

    def __init__(self, seed: int, seconds: float, sizing: Sizing, cache_dir: Path):
        self.seed = seed
        self.seconds = seconds
        self.sizing = sizing
        self.cache_dir = cache_dir
        #: Request-level operations ``(start, end, ok)`` in ``perf_counter``
        #: time; a batch workload leaves this empty and its whole timed
        #: pass is its one operation.
        self.ops: List[Tuple[float, float, bool]] = []
        #: Process CPU seconds each operation in ``ops`` took.
        self.op_cpu: List[float] = []
        #: Repeated units of the timed run ``(start, end)``; ``run_s`` is
        #: their count times the median unit.  Empty: the whole run is one.
        self.rounds: List[Tuple[float, float]] = []
        self.failures: List[str] = []
        self.details: Dict[str, Any] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self, golden: Optional[Dict[str, str]]) -> List[str]:
        """Correctness problems found after the run (each one a failed op)."""
        return []

    def digests(self) -> Dict[str, str]:
        return {}

    def store_stats(self) -> Dict[str, int]:
        return {}

    def service_stats(self) -> Dict[str, int]:
        return {}

    def attempted(self) -> int:
        return len(self.ops)

    def close(self) -> None:
        pass

    def _call(self, label: str, fn: Callable[[], Any]) -> Any:
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation, recorded
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


class CubeWarm(Workload):
    """Cube builds + design selection over pre-filled traces."""

    def setup(self) -> None:
        self.session = _session(
            self.sizing, self.sizing.cube_instructions, self.cache_dir
        )
        self.session.attach_cube_jobs(CUBE_JOBS)
        self.session.benchmarks  # every trace is a disk hit

    def run(self) -> None:
        from repro.core import BranchScheme, SystemConfig
        from repro.core.optimizer import DesignOptimizer

        session = self.session
        self.cubes: Dict[str, Any] = {}
        calls: List[Tuple[str, Callable[[], Any]]] = [
            (f"icube.slots{slots}", lambda s=slots: session.icache_miss_cube(s, (4,)))
            for slots in self.sizing.cube_slots
        ]
        calls.append(
            ("dcube", lambda: session.dcache_miss_cube(self.sizing.cube_dblocks))
        )
        for label, call in calls:
            cube = self._call(label, call)
            if cube is not None:
                self.cubes[label] = cube
        optimizer = DesignOptimizer(session)
        grid = [
            config
            for scheme in BranchScheme
            for config in optimizer.asymmetric_grid(SystemConfig(branch_scheme=scheme))
        ]
        self.selection = self._call(
            "select", lambda: optimizer.select(grid, objective="tpi")
        )
        self.calls = len(calls) + 1
        self.details.update(
            canonical_instructions=session.canonical_instructions,
            cube_jobs=CUBE_JOBS,
        )

    def attempted(self) -> int:
        return self.calls

    def digests(self) -> Dict[str, str]:
        found = {label: cube_digest(cube) for label, cube in self.cubes.items()}
        if self.selection is not None:
            found["select.points"] = points_digest(self.selection.points)
        return found

    def check(self, golden):
        return compare_digests(self.digests(), golden)

    def store_stats(self):
        return self.session.store.stats().as_dict()


# -- service-mixed -------------------------------------------------------------


def _grid(rng: random.Random, penalty: float) -> Dict[str, Any]:
    """An 8-point grid: 2 I sizes x 2 D sizes x 2 load depths, one branch depth."""
    return {
        "base": {"penalty": penalty, "branch_slots": rng.choice(SERVICE_BRANCH_SLOTS)},
        "axes": {
            "icache_kw": sorted(rng.sample(SIZES_KW, 2)),
            "dcache_kw": sorted(rng.sample(SIZES_KW, 2)),
            "load_slots": sorted(rng.sample(SLOTS, 2)),
        },
    }


def _respell(rng: random.Random, grid: Dict[str, Any]) -> Any:
    """A random spelling of the same grid: shuffled axes, or an explicit
    point list with float-spelled integers, shuffled, one point repeated."""
    if rng.random() < 0.5:
        axes = {}
        for name, values in grid["axes"].items():
            values = list(values)
            rng.shuffle(values)
            axes[name] = values
        return {"base": dict(grid["base"]), "axes": axes}
    points = [dict(grid["base"])]
    for name, values in grid["axes"].items():
        points = [{**p, name: float(v)} for p in points for v in values]
    points.append(dict(rng.choice(points)))
    rng.shuffle(points)
    return points


def service_plan(
    seed: int, rounds: int, round_size: int
) -> Tuple[List[Dict[str, Any]], List[Tuple[str, Dict[str, Any]]]]:
    """The hot grids and the client's request sequence, from the seed.

    Every request is ``(kind, body)`` with ``kind`` in repeat/novel and
    ``body`` the exact ``grid``/``objective`` the client sends.  Each
    round of ``round_size`` requests holds the exact repeat share.
    """
    rng = random.Random(seed)
    hot = [_grid(rng, penalty) for penalty in rng.sample(range(5, 41), HOT_GRIDS)]
    used = set()
    repeats = round(round_size * REPEAT_SHARE)
    kinds = []
    for _ in range(rounds):
        block = ["repeat"] * repeats + ["novel"] * (round_size - repeats)
        rng.shuffle(block)
        kinds += block
    sequence = []
    for kind in kinds:
        if kind == "repeat":
            grid = rng.choice(hot)
        else:
            penalty = round(rng.uniform(5.0, 40.0), 4)
            while penalty in used or penalty == int(penalty):
                penalty = round(rng.uniform(5.0, 40.0), 4)
            used.add(penalty)
            grid = _grid(rng, penalty)
        body = {
            "grid": _respell(rng, grid),
            "objective": rng.choice(_OBJECTIVE_SPELLINGS),
        }
        sequence.append((kind, body))
    return hot, sequence


def expected_payload(session, query) -> Dict[str, Any]:
    """The answer a query must get, evaluated in-process without the
    service, the jobs layer or the optimizer's design-point cache."""
    from repro.core.cpi_model import CpiModel
    from repro.core.optimizer import DesignPoint
    from repro.core.tcpu import system_cycle_time_ns
    from repro.core.tpi import tpi_ns
    from repro.physical import DEFAULT_PHYSICAL
    from repro.physical.model import PhysicalModel
    from repro.service.protocol import result_payload
    from repro.timing.technology import DEFAULT_TECHNOLOGY

    model = CpiModel(session)
    physical = PhysicalModel(session, tech=DEFAULT_TECHNOLOGY, phys=DEFAULT_PHYSICAL)
    points = []
    for config in query.configs:
        cycle = system_cycle_time_ns(config, DEFAULT_TECHNOLOGY)
        cpi = model.cpi(config, cycle_time_ns=cycle)
        breakdown = physical.breakdown(config, tpi_ns(cpi, cycle))
        points.append(
            DesignPoint(
                config=config,
                cpi=cpi,
                cycle_time_ns=cycle,
                epi_nj=breakdown.epi_nj,
                area_cm2=breakdown.area_cm2,
            )
        )
    return json.loads(json.dumps(result_payload(query, points)))


class ServiceMixed(Workload):
    """Closed-loop clients against an in-process sweep service."""

    SCALE = "quick"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        size = self.sizing.service_round
        self.round_count = max(1, round(self.sizing.service_rate * self.seconds / size))
        self.hot, self.sequence = service_plan(self.seed, self.round_count, size)
        self.results: List[Tuple[str, Dict[str, Any], Optional[Dict[str, Any]]]] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def setup(self) -> None:
        from repro.core import SystemConfig
        from repro.core.optimizer import DesignOptimizer
        from repro.engine.session import SessionRegistry
        from repro.engine.store import ArtifactStore
        from repro.service import ServiceClient, SweepScheduler, SweepService

        self.session = _session(
            self.sizing, self.sizing.service_instructions, self.cache_dir
        )
        self.registry = SessionRegistry(
            scales={self.SCALE: self.sizing.service_instructions}
        )
        self.registry.set(self.SCALE, self.session)
        self.scheduler = SweepScheduler(
            registry=self.registry,
            store=ArtifactStore(cache_dir=self.cache_dir, namespace="service"),
            workers=2,
            spool_dir=self.cache_dir / "spool",
            max_disk_bytes=SERVICE_DISK_BUDGET,
        )
        self.service = SweepService(self.scheduler, port=0)
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.service.start())
            started.set()
            self._loop.run_forever()

        self._server_thread = threading.Thread(target=serve, daemon=True)
        self._server_thread.start()
        if not started.wait(60):
            raise RuntimeError("sweep service did not start")
        self.session.benchmarks  # synthesize, compile and walk every trace
        # Warm every cube, translation and analysis the grids can touch
        # (the cubes always span all sizes), then memoise the hot set.
        DesignOptimizer(self.session).sweep(
            [
                SystemConfig(branch_slots=b, load_slots=l)
                for b in SERVICE_BRANCH_SLOTS
                for l in SLOTS
            ]
        )
        client = ServiceClient(port=self.service.port, timeout=600)
        for grid in self.hot:
            client.submit(grid, scale=self.SCALE, tenant="warmup", wait=True)
        self._stats_before = self._service_counters()

    def _service_counters(self) -> Dict[str, int]:
        stats = self.scheduler.stats()
        counters = {
            key: stats[key]
            for key in ("submitted", "memo_hits", "coalesced", "completed", "failed")
        }
        counters["disk_writes"] = stats["store"]["disk_writes"]
        counters["disk_evictions"] = stats["store"]["disk_evictions"]
        return counters

    def run(self) -> None:
        from repro.service import ServiceClient

        client = ServiceClient(port=self.service.port, timeout=600)
        tenant = "client-0"
        size = self.sizing.service_round
        marks = [time.perf_counter()]
        for position, (kind, body) in enumerate(self.sequence):
            started, cpu_started = time.perf_counter(), time.process_time()
            try:
                response = client.submit(
                    body["grid"], scale=self.SCALE, objective=body["objective"],
                    tenant=tenant, wait=True,
                )
            except Exception as exc:  # noqa: BLE001 - a failed request
                response = None
                self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            ended = time.perf_counter()
            self.op_cpu.append(time.process_time() - cpu_started)
            self.ops.append((started, ended, response is not None))
            self.results.append((kind, {**body, "tenant": tenant}, response))
            if (position + 1) % size == 0:
                marks.append(ended)
        self.rounds = list(zip(marks, marks[1:]))
        after = self._service_counters()
        self.window = {key: after[key] - self._stats_before[key] for key in after}
        kinds = [kind for kind, _, _ in self.results]
        self.details.update(
            requests=len(self.results),
            clients=1,
            rounds=len(self.rounds),
            repeat_share=kinds.count("repeat") / len(kinds),
            novel_share=kinds.count("novel") / len(kinds),
            memo_hit_share=sum(
                1 for _, _, r in self.results if r is not None and r.get("cache_hit")
            ) / len(kinds),
            disk_budget_bytes=SERVICE_DISK_BUDGET,
            disk_evictions=self.window["disk_evictions"],
            evicting_write_share=(
                min(1.0, self.window["disk_evictions"] / self.window["disk_writes"])
                if self.window["disk_writes"]
                else 0.0
            ),
        )

    def check(self, golden):
        from repro.service.protocol import parse_query

        problems = []
        expected: Dict[str, Dict[str, Any]] = {}
        for kind, body, response in self.results:
            if response is None:
                continue
            query = parse_query(
                {"grid": body["grid"], "scale": self.SCALE,
                 "objective": body["objective"], "tenant": body["tenant"]},
                scales=self.registry.scales,
            )
            if query.digest not in expected:
                expected[query.digest] = expected_payload(self.session, query)
            result = dict(response.get("result") or {})
            result.pop("cache", None)
            if response.get("state") != "done" or result != expected[query.digest]:
                problems.append(f"{kind} {query.digest}: answer differs from direct evaluation")
        return problems

    def store_stats(self):
        totals: Dict[str, int] = {}
        for store in (self.session.store, self.scheduler.store):
            for key, value in store.stats().as_dict().items():
                if isinstance(value, int):
                    totals[key] = totals.get(key, 0) + value
        return totals

    def service_stats(self):
        return dict(self.window)

    def close(self) -> None:
        if self._loop is None:
            return
        asyncio.run_coroutine_threadsafe(self.service.stop(), self._loop).result(60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._server_thread.join(timeout=30)
        self._loop.close()
        self._loop = None


WORKLOADS = {
    "cube-warm": CubeWarm,
    "service-mixed": ServiceMixed,
}


def host_facts() -> Dict[str, Any]:
    import platform

    import numpy

    from repro.kernels import kernel_backend

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "ram_gb": round(
            os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2
        ),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_kernel": kernel_backend(),
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped worker's peak.

    Both counters belong to the measured run only: the run is a fresh
    process, so nothing earlier can have raised them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def load_golden(path: Path, key: str) -> Optional[Dict[str, str]]:
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(key)


def execute(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    cache_dir: Path,
    sizing: Sizing = DEFAULT_SIZING,
    golden_path: Path = GOLDEN_PATH,
    spawned_at: Optional[float] = None,
) -> Dict[str, Any]:
    """One measured run in this process; returns its raw measurements."""
    spawned_at = time.time() if spawned_at is None else spawned_at
    wrapping = recorder = collector = None
    if trace:
        from layers import LayerCollector
        from spans import SpanRecorder, Wrapping

        recorder = SpanRecorder()
        collector = LayerCollector()
        wrapping = Wrapping(recorder).install(collector.targets())
    spawned = time.perf_counter() - (time.time() - spawned_at)
    job = WORKLOADS[workload](seed, seconds, sizing, Path(cache_dir))
    speed = HostSpeed()
    try:
        with speed:
            work_started = time.perf_counter()
            job.setup()
            run_started = time.perf_counter()
            job.run()
            run_ended = time.perf_counter()
        if wrapping is not None:
            wrapping.restore()
        rounds = job.rounds or [(run_started, run_ended)]
        run_s = len(rounds) * statistics.median(
            speed.normalized(a, b) for a, b in rounds
        )
        details = dict(job.details)
        details.update(
            wall_setup_s=run_started - spawned,
            wall_run_s=run_ended - run_started,
            host_speed=speed.summary(),
        )
        if job.ops:
            # A request's latency is the process CPU time it took, rescaled
            # like every other time.  Wall latencies of identical requests
            # doubled whenever the shared host took the CPUs away (10-run
            # spreads of 0.18 for the median and 0.9 for the tail); CPU
            # time does not count that.  It also leaves out the request's
            # own I/O waits, so the wall figures are kept on ``details``.
            latencies = [
                1e3 * cpu * speed.factor(a) for (a, _, _), cpu in zip(job.ops, job.op_cpu)
            ]
            wall = [1e3 * (b - a) for a, b, _ in job.ops]
            details.update(
                wall_latency_p50_ms=statistics.median(wall),
                wall_latency_tail_ms=sorted(wall)[max(0, len(wall) - 11)],
            )
        else:
            latencies = [1e3 * speed.normalized(run_started, run_ended)]
        if "canonical_instructions" in details:
            details["instr_per_s"] = details["canonical_instructions"] / run_s
        if "requests" in details:
            details["throughput_rps"] = details["requests"] / run_s
        golden_key = sizing.fingerprint() if workload == "cube-warm" else ""
        problems = job.check(load_golden(golden_path, golden_key))
        result: Dict[str, Any] = {
            "setup_s": speed.normalized(spawned, run_started),
            "run_s": run_s,
            "latencies_ms": latencies,
            "attempted": job.attempted(),
            "failed": min(job.attempted(), len(job.failures) + len(problems)),
            "failures": (job.failures + problems)[:10],
            "digests": job.digests(),
            "golden_key": golden_key,
            "details": details,
        }
        if trace:
            from layers import layer_metrics

            result["layers"] = layer_metrics(
                recorder.spans,
                collector,
                run_ended - work_started,
                job.store_stats(),
                job.service_stats(),
            )
    finally:
        if wrapping is not None:
            wrapping.restore()
        job.close()
    result["peak_rss_mb"] = peak_rss_mb()
    result["host"] = host_facts()
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument(
        "--prefill", action="store_true",
        help="only fill CACHE_DIR with the cube-warm session's traces",
    )
    args = parser.parse_args(argv)
    if args.prefill:
        _session(DEFAULT_SIZING, DEFAULT_SIZING.cube_instructions, args.cache_dir).benchmarks
        return 0
    if args.workload is None or args.out is None:
        parser.error("--workload and --out are required unless --prefill")
    result = execute(
        args.workload, args.seed, args.seconds, bool(args.trace), args.cache_dir,
        spawned_at=args.spawned_at,
    )
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
