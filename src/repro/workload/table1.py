"""The sixteen benchmarks of Table 1, with calibrated synthesis knobs.

The published columns (instruction count, load/store/branch percentages,
syscall counts, category) are copied from Table 1 of the paper.  The shape
and memory knobs are this reproduction's calibration; they follow two rules:

* dynamic basic-block length tracks the published branch percentage
  (``loop_body_mean ~ 100 / branch_pct - 1``), so the executed CTI density
  matches Table 1 by construction;
* floating-point codes get large, stream-dominated working sets with long
  loop bodies; integer codes get smaller, reuse-skewed working sets, shorter
  blocks, and more irregular control flow — mirroring the qualitative
  characterizations in the paper's Table 1 annotations (I/S/D).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import WorkloadError
from repro.workload.spec import BenchmarkSpec, Category, MemoryShape, SynthesisShape

__all__ = ["TABLE1_SUITE", "benchmark_by_name"]


# Roughly half the executed blocks end in a CTI (if/else arms, join blocks
# and straight-line blocks dilute the terminator density), so block bodies
# must be about this much shorter than 1/branch_pct for the *dynamic* CTI
# percentage to land on Table 1.  Value measured from the generator itself.
_CTI_DILUTION = 0.55


def _shape(branch_pct: float, code_kw: float, **overrides: float) -> SynthesisShape:
    """Shape whose dynamic block length follows the published CTI density."""
    loop_body = max(1.2, _CTI_DILUTION * (100.0 / branch_pct) - 1.0)
    defaults = dict(
        static_code_kw=code_kw,
        procedures=max(8, int(code_kw * 3)),
        loop_body_mean=loop_body,
        cold_body_mean=min(3.0, loop_body),
    )
    defaults.update(overrides)
    return SynthesisShape(**defaults)  # type: ignore[arg-type]


def _integer(branch_pct: float, code_kw: float, ws_kw: float, **mem: float) -> Tuple[SynthesisShape, MemoryShape]:
    memory = MemoryShape(
        working_set_kw=ws_kw,
        stream_frac=mem.pop("stream_frac", 0.15),
        global_frac=mem.pop("global_frac", 0.35),
        stack_frac=mem.pop("stack_frac", 0.30),
        **mem,
    )
    return _shape(branch_pct, code_kw), memory


def _float(branch_pct: float, code_kw: float, ws_kw: float, **mem: float) -> Tuple[SynthesisShape, MemoryShape]:
    shape = _shape(
        branch_pct,
        code_kw,
        backward_frac=0.70,
        backward_bias=0.93,
        forward_bias=0.35,
        loop_iterations=25.0,
    )
    memory = MemoryShape(
        working_set_kw=ws_kw,
        stream_frac=mem.pop("stream_frac", 0.75),
        global_frac=mem.pop("global_frac", 0.15),
        stack_frac=mem.pop("stack_frac", 0.10),
        **mem,
    )
    return shape, memory


def _spec(
    name: str,
    description: str,
    category: Category,
    minst: float,
    loads: float,
    stores: float,
    branches: float,
    syscalls: int,
    shape_memory: Tuple[SynthesisShape, MemoryShape],
) -> BenchmarkSpec:
    return BenchmarkSpec(
        name=name,
        description=description,
        category=category,
        instructions_millions=minst,
        load_pct=loads,
        store_pct=stores,
        branch_pct=branches,
        syscalls=syscalls,
        shape=shape_memory[0],
        memory=shape_memory[1],
    )


#: The full benchmark suite of Table 1, in the paper's order.
TABLE1_SUITE: List[BenchmarkSpec] = [
    _spec("sdiff", "File comparison", Category.INTEGER, 218.3, 15.3, 3.4, 20.7, 305,
          _integer(20.7, code_kw=8, ws_kw=32)),
    _spec("awk", "String matching and processing", Category.INTEGER, 209.5, 19.0, 12.6, 14.3, 101,
          _integer(14.3, code_kw=16, ws_kw=32)),
    _spec("dodged", "Monte Carlo simulation", Category.DOUBLE_FLOAT, 96.3, 31.0, 10.0, 8.7, 427,
          _float(8.7, code_kw=8, ws_kw=32, stream_frac=0.40)),
    _spec("espresso", "Logic minimization", Category.INTEGER, 238.0, 19.9, 5.6, 16.2, 17,
          _integer(16.2, code_kw=24, ws_kw=64)),
    _spec("gcc", "C compiler", Category.INTEGER, 235.7, 23.3, 13.8, 20.1, 487,
          _integer(20.1, code_kw=64, ws_kw=96)),
    _spec("integral", "Numerical integration", Category.DOUBLE_FLOAT, 110.5, 37.0, 10.4, 7.6, 12,
          _float(7.6, code_kw=4, ws_kw=16, stream_frac=0.30)),
    _spec("linpack", "Linear equation solver", Category.DOUBLE_FLOAT, 4.0, 37.4, 19.7, 5.4, 10,
          _float(5.4, code_kw=2, ws_kw=64)),
    _spec("loops", "First 12 Livermore kernels", Category.DOUBLE_FLOAT, 275.5, 29.3, 10.9, 5.3, 3,
          _float(5.3, code_kw=6, ws_kw=128)),
    _spec("matrix500", "500 x 500 matrix operations", Category.SINGLE_FLOAT, 202.2, 24.3, 3.5, 3.5, 10,
          _float(3.5, code_kw=4, ws_kw=512, stream_frac=0.90)),
    _spec("nroff", "Text formatting", Category.INTEGER, 157.1, 22.4, 10.8, 24.6, 1701,
          _integer(24.6, code_kw=32, ws_kw=32)),
    _spec("small", "Stanford small benchmarks", Category.MIXED, 16.7, 19.9, 8.8, 19.6, 0,
          _integer(19.6, code_kw=6, ws_kw=8)),
    _spec("spice2g6", "Circuit simulator", Category.SINGLE_FLOAT, 297.3, 29.8, 8.6, 8.0, 395,
          _float(8.0, code_kw=32, ws_kw=256, stream_frac=0.55)),
    _spec("tex", "Typesetting", Category.INTEGER, 133.8, 30.2, 14.2, 11.7, 697,
          _integer(11.7, code_kw=48, ws_kw=64)),
    _spec("wolf33", "Simulated annealing placement", Category.INTEGER, 115.4, 30.0, 7.5, 14.8, 407,
          _integer(14.8, code_kw=16, ws_kw=128, stream_frac=0.05)),
    _spec("xwim", "X-windows application", Category.INTEGER, 52.2, 22.5, 17.7, 17.1, 65294,
          _integer(17.1, code_kw=24, ws_kw=16)),
    _spec("yacc", "Parser generator", Category.INTEGER, 193.9, 19.6, 2.4, 25.2, 49,
          _integer(25.2, code_kw=16, ws_kw=48)),
]

_BY_NAME: Dict[str, BenchmarkSpec] = {spec.name: spec for spec in TABLE1_SUITE}


def benchmark_by_name(name: str) -> BenchmarkSpec:
    """Look up a Table 1 benchmark by name.

    >>> benchmark_by_name("gcc").branch_pct
    20.1
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise WorkloadError(
            f"unknown benchmark {name!r}; suite: {sorted(_BY_NAME)}"
        ) from None
