"""Benchmark specifications: published statistics plus synthesis knobs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import WorkloadError

__all__ = ["Category", "SynthesisShape", "MemoryShape", "BenchmarkSpec"]


class Category(enum.Enum):
    """Benchmark category as annotated in Table 1."""

    INTEGER = "I"
    SINGLE_FLOAT = "S"
    DOUBLE_FLOAT = "D"
    MIXED = "US"  # the Stanford "small" suite


@dataclass(frozen=True)
class SynthesisShape:
    """Knobs controlling the *control structure* of a synthesized program.

    These are calibration parameters, not published data; they are chosen so
    the synthesized programs reproduce the paper's measured aggregates
    (Section 3.1 anchors: ~60 % of CTIs predicted taken, ~10 % of CTIs
    register-indirect, ~54 % first-delay-slot fill, 93 % accuracy on
    predicted-taken CTIs).

    Attributes:
        static_code_kw: Static code size of the canonical program in
            kilowords.  Drives instruction-cache pressure.
        procedures: Number of procedures to generate.
        cond_frac: Fraction of *dynamic* CTIs that are conditional branches.
        indirect_frac: Fraction of dynamic CTIs that are register-indirect
            (returns, computed gotos, indirect calls); the paper measured
            roughly 10 %.
        backward_frac: Fraction of executed conditional branches that jump
            backwards (loop latches).
        backward_bias: Taken probability of backward conditional branches.
        forward_bias: Taken probability of forward conditional branches.
        compare_adjacent_frac: Probability that the instruction computing a
            conditional branch's condition sits immediately before the
            branch, making its first delay slot unfillable from before
            (drives the 54 %/52 % fill anchors).
        loop_body_mean: Mean instruction count of loop-body blocks.  Loop
            blocks dominate dynamic execution, so this sets the dynamic CTI
            fraction together with the published branch percentage.
        cold_body_mean: Mean instruction count of non-loop blocks; smaller
            than loop bodies, which makes the *static* CTI density higher
            than the dynamic one (the paper's code-expansion percentages
            imply static blocks of roughly five instructions).
        loop_iterations: Mean iterations per loop visit (sets backward-taken
            bias consistency; bias = 1 - 1/iterations when backward_bias is
            not given explicitly).
        call_depth: Maximum call-graph depth generated.
        recursion_frac: Probability a call site targets an ancestor
            procedure (bounded recursion).
    """

    static_code_kw: float = 16.0
    procedures: int = 48
    cond_frac: float = 0.70
    indirect_frac: float = 0.10
    backward_frac: float = 0.42
    backward_bias: float = 0.82
    forward_bias: float = 0.42
    compare_adjacent_frac: float = 0.50
    loop_body_mean: float = 7.0
    cold_body_mean: float = 4.0
    loop_iterations: float = 12.0
    call_depth: int = 6
    recursion_frac: float = 0.02


@dataclass(frozen=True)
class MemoryShape:
    """Knobs controlling the *data reference* behaviour.

    Attributes:
        working_set_kw: Size of the heap region actively referenced, in
            kilowords.  The union across the multiprogrammed suite sets
            where the L1-D miss curve flattens.
        global_frac: Fraction of data references into the 64 KB ``$gp``
            region (MIPS global statics).
        stack_frac: Fraction of references into the active stack frames.
        stream_frac: Of the heap references, the fraction that walk arrays
            sequentially (FP codes are stream-heavy; integer codes are
            pointer-heavy).
        reuse_skew: Temperature exponent of the log-uniform reuse model:
            a reference's rank is ``exp(u**reuse_skew * ln(segment))``, so
            larger values concentrate references on low ranks (hotter
            head) while keeping a tail that spans every size scale — the
            classic straight miss-rate-versus-log-size behaviour.
        streams: Number of concurrently advancing sequential streams.
        stable_base_frac: Fraction of loads addressed off a stable base
            register ($gp/$sp/$fp) in the synthesized code.  The paper cites
            measurements that over 90 % of array/structure references are to
            globals and over 80 % of scalar references to locals, producing
            the large-epsilon population of Figure 6.
        use_distance: Probabilities that a load's first consumer appears
            0, 1, 2, or >=3 instructions after it in the canonical code.
    """

    working_set_kw: float = 64.0
    global_frac: float = 0.30
    stack_frac: float = 0.25
    stream_frac: float = 0.30
    reuse_skew: float = 2.5
    streams: int = 4
    stable_base_frac: float = 0.65
    use_distance: Tuple[float, float, float, float] = (0.25, 0.20, 0.15, 0.40)


@dataclass(frozen=True)
class BenchmarkSpec:
    """One row of Table 1 plus the synthesis knobs that realize it.

    The first block of attributes is published data (Table 1 of the paper);
    ``shape`` and ``memory`` are calibration knobs documented on their own
    classes.
    """

    name: str
    description: str
    category: Category
    instructions_millions: float  # Table 1 "Inst. (M)" — used as the weight
    load_pct: float  # Table 1 "Loads (% inst.)"
    store_pct: float  # Table 1 "Stores (% inst.)"
    branch_pct: float  # Table 1 "Branches" (all CTIs, % inst.)
    syscalls: int  # Table 1 "Syscalls" (absolute count in the full trace)
    shape: SynthesisShape = field(default_factory=SynthesisShape)
    memory: MemoryShape = field(default_factory=MemoryShape)

    def __post_init__(self) -> None:
        if self.instructions_millions <= 0:
            raise WorkloadError(f"{self.name}: instruction count must be positive")
        for label, pct in (
            ("load", self.load_pct),
            ("store", self.store_pct),
            ("branch", self.branch_pct),
        ):
            if not 0 <= pct <= 100:
                raise WorkloadError(f"{self.name}: {label} percentage out of range")
        if self.load_pct + self.store_pct + self.branch_pct >= 100:
            raise WorkloadError(
                f"{self.name}: load+store+branch percentages leave no room "
                "for ALU instructions"
            )
        total_use = sum(self.memory.use_distance)
        if abs(total_use - 1.0) > 1e-6:
            raise WorkloadError(
                f"{self.name}: use_distance probabilities sum to {total_use}"
            )
        fracs = self.shape.cond_frac + self.shape.indirect_frac
        if fracs > 1.0 + 1e-9:
            raise WorkloadError(
                f"{self.name}: cond_frac + indirect_frac exceeds 1"
            )

    @property
    def weight(self) -> float:
        """Weight used in the suite's harmonic mean (share of total work)."""
        return self.instructions_millions
