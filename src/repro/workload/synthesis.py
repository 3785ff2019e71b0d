"""Synthesis of calibrated benchmark programs.

:func:`synthesize_program` turns a :class:`~repro.workload.spec.BenchmarkSpec`
into a :class:`~repro.program.cfg.Program` whose canonical code reproduces
the statistics the paper's experiments depend on.  The generator builds a
call graph of procedures; each procedure is a structured nest of loops,
if/else diamonds, call sites, and computed-goto switches; each basic block's
body is filled with an instruction mix that matches the published Table 1
percentages.

The generator writes the program's columns
(:class:`~repro.program.columns.ProgramColumns`), not instruction
objects: each instruction is one row of integers (opcode code, register
numbers, offset, immediate) appended to a flat table, each block records
its row range, and only a terminator carries its target label.  The
program's procedures, blocks and instructions are read views decoded on
first read; the session's path (synthesis, then the lowering) builds
none of them.

Register discipline (which makes the dependence analysis meaningful):

* ``$t0``–``$t7`` hold load results, assigned round-robin;
* ``$s0``–``$s3`` hold computed load base addresses, always defined
  immediately before the load they feed (pointer-style addressing);
* ``$v1`` is reserved for branch conditions, defined by a compare placed a
  controlled distance before the branch (the ``compare_adjacent_frac``
  knob, which drives the delay-slot fill statistics of Section 3.1);
* everything else uses the scratch pool ``$t8/$t9/$a0–$a3/$v0``, so random
  filler never perturbs a planned dependence.

Apart from one ``lognormal`` call for the procedure budgets, every draw
comes from a :class:`DrawStream`: it reads the generator's raw PCG64
words in batches and derives each ``random``, ``integers``, ``poisson``
and ``geometric`` value in plain Python with numpy's own algorithms, so
it returns the values a ``numpy.random.Generator`` would, without
numpy's per-call overhead.  The two ``Generator.choice`` call sites are
emulated on top of it (:func:`choice_cdf`, :func:`choice_table` and
:func:`choice_without_replacement`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import accumulate, chain
from math import exp, floor, inf, log, sqrt
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.isa.opcodes import Opcode
from repro.isa.registers import GP, RA, SP, ZERO
from repro.program.cfg import Program
from repro.program.columns import (
    NO_IMM,
    NO_REGISTER,
    OPCODE_CODES,
    ROW_FIELDS,
    ProgramColumns,
)
from repro.utils.rng import DEFAULT_SEED, spawn_rng
from repro.workload.spec import BenchmarkSpec, Category

__all__ = ["synthesize_program"]

#: Raw PCG64 words a :class:`DrawStream` reads per ``random_raw`` call.
RAW_BATCH = 1024

_LOW32 = 0xFFFFFFFF
#: ``next_double``'s scale: a double is a word's top 53 bits times 2**-53.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
#: numpy's ``random_geometric`` switches from search to inversion below this.
_GEOMETRIC_SEARCH_MIN = 0.333333333333333333333333
#: numpy's ``random_poisson`` switches from multiplication to PTRS here.
_POISSON_PTRS_MIN = 10.0
#: ``Generator.poisson`` rejects larger means (``POISSON_LAM_MAX``).
_POISSON_LAM_MAX = (2**63 - 1) - sqrt(2**63 - 1) * 10
#: ``random_loggam``'s series coefficients and ``log(2 * pi)``.
_LOGGAM_A = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e00,
)
_LG2PI = 1.8378770664093453e00


def loggam(x: float) -> float:
    """numpy's ``random_loggam``: ``log(gamma(x))`` for ``x > 0``, bit for bit.

    Below 7 it evaluates the series at ``x + n`` (``n`` the truncated
    ``7 - x``) and steps back down with ``n`` logarithms.
    """
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_A[9]
    for k in range(8, -1, -1):
        gl0 *= x2
        gl0 += _LOGGAM_A[k]
    gl = gl0 / x0 + 0.5 * _LG2PI + (x0 - 0.5) * log(x0) - x0
    for _ in range(n):
        gl -= log(x0 - 1.0)
        x0 -= 1.0
    return gl


def _raw_batches(bit_generator: np.random.PCG64, tally: List) -> Iterator[Iterator[int]]:
    """``bit_generator``'s raw words, :data:`RAW_BATCH` at a time; ``tally``
    holds the current batch and the number of words read so far."""
    while True:
        batch = tally[0] = iter(bit_generator.random_raw(RAW_BATCH).tolist())
        tally[1] += RAW_BATCH
        yield batch


class DrawStream:
    """A PCG64 ``numpy.random.Generator``'s draws, from its raw words.

    Takes over ``rng`` where it stands (the hand-off): it reads the bit
    generator's words :data:`RAW_BATCH` at a time with ``random_raw``,
    and its methods return what the same sequence of ``rng`` calls
    would, derived the way numpy derives them:

    * :meth:`random` is ``next_double``, a word's top 53 bits;
    * :meth:`integers` is numpy's Lemire bounded draw on 32-bit halves:
      a word gives its low half and keeps its high half pending for the
      next half-word draw (``has_uint32``/``uinteger``, picked up from
      ``rng``'s state at the hand-off); a span of one draws nothing;
    * :meth:`poisson` multiplies uniforms below a mean of 10 and runs
      PTRS (Hörmann's transformed rejection, with :func:`loggam`) from
      10 up;
    * :meth:`geometric` is numpy's search method, which numpy uses for
      ``p >= 1/3``; smaller ``p`` would take its inversion branch, which
      is not emulated, so it raises :class:`~repro.errors.WorkloadError`.

    ``rng`` itself is left ahead of the stream by the rest of the last
    batch; :attr:`consumed` words since the hand-off and the
    :attr:`pending` half are where a generator that had made the same
    calls would stand.
    """

    __slots__ = ("_tally", "pending", "word")

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise WorkloadError(
                f"draw stream needs a PCG64 generator, not {type(bit_generator).__name__}"
            )
        state = bit_generator.state
        #: The high half of the last word a half-word draw split, or None.
        self.pending: Optional[int] = state["uinteger"] if state["has_uint32"] else None
        # The current batch and the words read so far, shared with the
        # batch reader (which must not hold the stream: a reference cycle
        # would keep a spent stream's batch alive until a collection).
        self._tally: List = [iter(()), 0]
        #: The next raw 64-bit word.
        self.word = chain.from_iterable(_raw_batches(bit_generator, self._tally)).__next__

    def random(self) -> float:
        """``Generator.random()``."""
        return (self.word() >> 11) * _DOUBLE_SCALE

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)`` for ``high - low`` below 2**32."""
        span = high - low
        if span == 1:
            return low
        if not 1 < span <= _LOW32:
            raise WorkloadError(f"integers({low}, {high}): span not in [1, 2**32)")
        half = self.pending  # _half_word, inlined: the synthesizer's hot path
        if half is None:
            word = self.word()
            self.pending = word >> 32
            half = word & _LOW32
        else:
            self.pending = None
        scaled = half * span
        if scaled & _LOW32 < span:
            threshold = (0x100000000 - span) % span
            while scaled & _LOW32 < threshold:
                scaled = self._half_word() * span
        return low + (scaled >> 32)

    def _half_word(self) -> int:
        """``next_uint32``: the pending half, else a new word's low half."""
        half = self.pending
        if half is None:
            word = self.word()
            self.pending = word >> 32
            return word & _LOW32
        self.pending = None
        return half

    def poisson(self, lam: float) -> int:
        """``Generator.poisson(lam)``."""
        if not 0.0 <= lam <= _POISSON_LAM_MAX:
            raise WorkloadError(f"poisson({lam}): mean not in [0, POISSON_LAM_MAX]")
        if lam >= _POISSON_PTRS_MIN:
            return self._poisson_ptrs(lam)
        if lam == 0.0:
            return 0
        word = self.word
        limit = exp(-lam)
        count = 0
        product = 1.0
        while True:
            product *= (word() >> 11) * _DOUBLE_SCALE
            if product <= limit:
                return count
            count += 1

    def _poisson_ptrs(self, lam: float) -> int:
        word = self.word
        slam = sqrt(lam)
        loglam = log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = (word() >> 11) * _DOUBLE_SCALE - 0.5
            v = (word() >> 11) * _DOUBLE_SCALE
            us = 0.5 - abs(u)
            if us == 0.0:
                # u = -0.5: numpy's k is the int64 cast of -inf, so k < 0.
                continue
            k = floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            log_v = log(v) if v > 0.0 else -inf
            if log_v + log(invalpha) - log(a / (us * us) + b) <= (
                -lam + k * loglam - loggam(float(k + 1))
            ):
                return k

    def geometric(self, p: float) -> int:
        """``Generator.geometric(p)`` for ``1/3 <= p <= 1`` (numpy's search)."""
        if not _GEOMETRIC_SEARCH_MIN <= p <= 1.0:
            raise WorkloadError(
                f"geometric({p}): only numpy's search method (1/3 <= p <= 1) is emulated"
            )
        u = (self.word() >> 11) * _DOUBLE_SCALE
        count = 1
        total = product = p
        q = 1.0 - p
        while u > total:
            product *= q
            total += product
            count += 1
        return count


def pairwise_sum(values: Sequence[float]) -> float:
    """``np.sum`` of ``values`` as a float64 array, bit for bit.

    numpy reduces float64 arrays by pairwise summation: runs shorter than
    8 are added in order, runs of up to 128 in eight interleaved lanes
    combined as a tree and followed by the leftover tail, and longer runs
    are split at a multiple of 8 near the middle.  The reduction starts
    from ``-0.0``.
    """
    return _pairwise(values, 0, len(values))


def _pairwise(values: Sequence[float], start: int, n: int) -> float:
    if n < 8:
        total = -0.0
        for value in values[start:start + n]:
            total += value
        return total
    if n <= 128:
        stop = start + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start:start + 8]
        for i in range(start + 8, stop, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for value in values[stop:start + n]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(values, start, half) + _pairwise(values, start + half, n - half)


def choice_cdf(p: Sequence[float]) -> List[float]:
    """The table ``Generator.choice(len(p), p=p)`` searches.

    numpy accumulates ``p`` in order, divides by the last sum, and returns
    the ``bisect_right`` position of one ``rng.random()`` draw in it.
    """
    cdf = list(accumulate(p))
    last = cdf[-1]
    return [c / last for c in cdf]


def choice_table(weights: Sequence[float]) -> Tuple[List[float], List[float]]:
    """``p = w / w.sum()`` for ``w = np.array(weights)``, and its
    :func:`choice_cdf`: what ``rng.choice(len(w), ..., p=p)`` builds
    before its first draw, for :func:`choice_without_replacement`."""
    total = pairwise_sum(weights)
    p = [w / total for w in weights]
    return p, choice_cdf(p)


def choice_without_replacement(
    stream: DrawStream, table: Tuple[List[float], List[float]], count: int
) -> List[int]:
    """``rng.choice(n, min(count, n), replace=False, p=p)`` over the
    :func:`choice_table` ``(p, cdf)`` of positive weights, in plain Python.

    Returns the same indices in the same order and draws the same words
    from ``stream`` that the call would draw from ``rng``.  numpy samples
    in rounds: each draws one uniform per index still missing
    (``rng.random(k)``), zeroes the probabilities of the indices already
    taken, looks the draws up in :func:`choice_cdf` of the rest and keeps
    each new index at its first occurrence.  The first round searches the
    table's ``cdf``; a later round, which follows a repeated draw, zeroes
    a copy of ``p``, so the table serves every later call unchanged.
    """
    random = stream.random
    p, cdf = table
    size = min(count, len(p))
    found: List[int] = []
    while len(found) < size:
        draws = [random() for _ in range(size - len(found))]
        if found:
            rest = list(p)
            for taken in found:
                rest[taken] = 0.0
            cdf = choice_cdf(rest)
        found.extend(dict.fromkeys([bisect_right(cdf, u) for u in draws]))
    return found


# Register pools (see module docstring), as register numbers.
_LOAD_DESTS = list(range(8, 16))  # $t0-$t7
_COMPUTED_BASES = list(range(16, 20))  # $s0-$s3
_SCRATCH = [24, 25, 4, 5, 6, 7, 2]  # $t8,$t9,$a0-$a3,$v0
_CONDITION = 3  # $v1
_T9 = 25  # the jump register of computed gotos and indirect calls
_N_LOAD_DESTS = len(_LOAD_DESTS)
_N_COMPUTED_BASES = len(_COMPUTED_BASES)
_N_SCRATCH = len(_SCRATCH)
_GP, _SP, _RA, _ZERO = GP.number, SP.number, RA.number, ZERO.number
_NONE = NO_REGISTER

# Opcodes by their row codes.
_ADDU, _SLT, _ADDIU, _LW, _SW, _BEQ, _BNE, _J, _JAL, _JR, _JALR, _SYSCALL_OP = (
    OPCODE_CODES[op]
    for op in (
        Opcode.ADDU, Opcode.SLT, Opcode.ADDIU, Opcode.LW, Opcode.SW, Opcode.BEQ,
        Opcode.BNE, Opcode.J, Opcode.JAL, Opcode.JR, Opcode.JALR, Opcode.SYSCALL,
    )
)
_ALU_OPS = [
    OPCODE_CODES[op]
    for op in (Opcode.ADDU, Opcode.SUBU, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLTU)
]
_FP_OPS = [OPCODE_CODES[op] for op in (Opcode.ADD_S, Opcode.MUL_S, Opcode.ADD_D, Opcode.MUL_D)]
_N_ALU_OPS = len(_ALU_OPS)
_N_FP_OPS = len(_FP_OPS)
#: Load and store offsets are word multiples below this many words.
_OFFSET_WORDS = 2048
#: The terminators after which a block keeps its fall-through edge: none
#: (None), a conditional branch and a call.
_FALLS_THROUGH = frozenset((None, _BEQ, _BNE, _JAL, _JALR))
# Fixed rows (opcode, dest, source0, source1, base, offset, imm).
_ROW_WIDTH = len(ROW_FIELDS)
_SYSCALL_ROW = (_SYSCALL_OP, _NONE, _NONE, _NONE, _NONE, 0, NO_IMM)
_JUMP_ROW = (_J, _NONE, _NONE, _NONE, _NONE, 0, NO_IMM)  # j label
_CALL_ROW = (_JAL, _NONE, _NONE, _NONE, _NONE, 0, NO_IMM)  # jal label
_RETURN_ROW = (_JR, _NONE, _NONE, _NONE, _RA, 0, NO_IMM)  # jr $ra
_SWITCH_ROW = (_JR, _NONE, _NONE, _NONE, _T9, 0, NO_IMM)  # jr $t9
_INDIRECT_CALL_ROW = (_JALR, _RA, _NONE, _NONE, _T9, 0, NO_IMM)  # jalr $ra, $t9
_PROLOGUE_ROWS = (
    _ADDIU, _SP, _SP, _NONE, _NONE, 0, -32,  # addiu $sp, $sp, -32
    _SW, _NONE, _RA, _NONE, _SP, 28, NO_IMM,  # sw $ra, 28($sp)
)
_EPILOGUE_ROWS = (
    _LW, _RA, _NONE, _NONE, _SP, 28, NO_IMM,  # lw $ra, 28($sp)
    _ADDIU, _SP, _SP, _NONE, _NONE, 0, 32,  # addiu $sp, $sp, 32
)

# What each slot of a block body holds (see _Synthesizer._body).
_FILLER, _LOAD, _STORE, _CONSUMER, _BASE_DEF, _COMPARE, _SYSCALL = range(7)

# Probability that a computed-goto switch terminates a construct, relative
# to the other construct kinds (kept rare, matching the ~10 % share of
# register-indirect CTIs once returns are counted).
_CONSTRUCT_WEIGHTS = {
    "loop": 0.25,
    "diamond": 0.33,
    "call": 0.16,
    "straight": 0.16,
    "switch": 0.06,
    "indirect_call": 0.04,
}

# Load positions are skewed toward the start of a block and stores toward
# the end (compilers schedule loads early, stores late).  The skew shapes
# the static epsilon distribution of Figure 7 without changing the mix:
# category *counts* per block are fixed by error-diffused rounding of the
# Table 1 percentages, so the dynamic mix converges even when a handful of
# hot loop blocks dominates the trace.
_LOAD_EARLY_WEIGHT = 1.5  # relative weight at block start, decaying to 0.5
_STORE_LATE_WEIGHT = 0.5  # relative weight at block start, growing to 1.5

_CONSTRUCT_KINDS = list(_CONSTRUCT_WEIGHTS)
_CONSTRUCT_TOTAL = pairwise_sum(list(_CONSTRUCT_WEIGHTS.values()))
#: ``Generator.choice`` over the construct kinds, as a table to bisect.
_CONSTRUCT_CDF = choice_cdf(
    [_CONSTRUCT_WEIGHTS[kind] / _CONSTRUCT_TOTAL for kind in _CONSTRUCT_KINDS]
)


class _Block:
    """A block under construction: its rows' range in the synthesizer's
    row table, its terminator's opcode code (None for a block that ends
    in a body instruction) and label, and its edges."""

    __slots__ = (
        "name", "start", "stop", "terminator", "label", "taken_target",
        "fallthrough", "taken_bias", "backward", "indirect_targets",
    )

    def __init__(
        self,
        name: str,
        start: int,
        stop: int,
        terminator: Optional[int] = None,
        label: Optional[str] = None,
        taken_target: Optional[str] = None,
        taken_bias: float = 0.5,
        backward: bool = False,
        indirect_targets: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.start = start
        self.stop = stop
        self.terminator = terminator
        self.label = label
        self.taken_target = taken_target
        self.fallthrough: Optional[str] = None
        self.taken_bias = taken_bias
        self.backward = backward
        self.indirect_targets = indirect_targets

    def __len__(self) -> int:
        return self.stop - self.start


#: A terminating instruction's row and its target label.
_Terminator = Tuple[Tuple[int, ...], Optional[str]]


class _Synthesizer:
    """Stateful generator for a single benchmark program.

    Every instruction is a row of :data:`~repro.program.columns.ROW_FIELDS`
    integers appended to one flat typed buffer (no Python object per
    value), in the order the blocks are built; :meth:`build` puts the
    rows in layout order.
    """

    def __init__(self, spec: BenchmarkSpec, seed: int) -> None:
        self.spec = spec
        self.rng = spawn_rng(seed, spec.name, "code")
        self._rows = array("q")
        #: Every draw after :meth:`build`'s ``lognormal`` (set there).
        self.stream: Optional[DrawStream] = None
        self._block_counter = 0
        self._temp_cursor = 0
        self._base_cursor = 0
        shape = spec.shape
        body_pct = 100.0 - spec.branch_pct
        self._p_load = spec.load_pct / body_pct
        self._p_store = spec.store_pct / body_pct
        self._syscall_rate = spec.syscalls / (spec.instructions_millions * 1e6)
        # Error-diffusion accumulators: fractional category quotas carried
        # across blocks so the realized static mix converges exactly.
        self._load_quota = 0.0
        self._store_quota = 0.0
        self._syscall_quota = 0.0
        self._is_float = spec.category in (Category.SINGLE_FLOAT, Category.DOUBLE_FLOAT)
        self._stable_base_frac = spec.memory.stable_base_frac
        # A load's first consumer is 0, 1 or 2 slots away while a uniform
        # falls below these running sums of the use-distance probabilities.
        self._use_cdf = list(accumulate(spec.memory.use_distance[:3], initial=0.0))[1:]
        self._n_procs = shape.procedures
        self._proc_names = [f"p{i}" for i in range(self._n_procs)]
        #: :meth:`_positions`' tables, by ``(early, span, free slots)``.
        self._position_tables: Dict[tuple, Tuple[List[float], List[float]]] = {}

    # -- naming helpers ----------------------------------------------------

    def _new_block_name(self, proc_index: int) -> str:
        name = f"{self._proc_names[proc_index]}.b{self._block_counter}"
        self._block_counter += 1
        return name

    def _entry_of(self, proc_index: int) -> str:
        return f"{self._proc_names[proc_index]}.entry"

    # -- block body construction ---------------------------------------------

    def _positions(self, free: List[int], count: int, length: int, early: bool) -> List[int]:
        """Sample ``count`` distinct slots, skewed early or late.

        The weights depend only on ``(early, span, free)``, and a suite's
        blocks repeat few of those shapes, so each shape's
        :func:`choice_table` is built once per synthesizer.
        """
        if count <= 0 or not free:
            return []
        span = max(1, length - 1)
        key = (early, span, tuple(free))
        table = self._position_tables.get(key)
        if table is None:
            if early:
                weights = [max(_LOAD_EARLY_WEIGHT - i / span, 0.05) for i in free]
            else:
                weights = [max(_STORE_LATE_WEIGHT + i / span, 0.05) for i in free]
            table = self._position_tables[key] = choice_table(weights)
        chosen = choice_without_replacement(self.stream, table, count)
        return sorted(free[c] for c in chosen)

    def _body(
        self, length: int, compare_distance: Optional[int], in_loop: bool = False
    ) -> int:
        """Append ``length`` body instructions; return the first one's row.

        Category counts per block are fixed up front (error-diffused from
        the Table 1 mix), then assigned to slots: loads early, stores late,
        the branch-condition compare ``compare_distance`` slots before the
        end, load consumers at their drawn use distances, and ALU filler
        everywhere else.  Syscalls are placed in loop bodies only — loops
        dominate execution, so the *dynamic* syscall rate then tracks
        Table 1's Syscalls column.  Once every slot has its role, one pass
        appends the rows in slot order.
        """
        random = self.stream.random
        integers = self.stream.integers
        roles = [_FILLER] * length
        if compare_distance is None:
            free = list(range(length))
        else:
            compare_at = max(0, length - 1 - compare_distance)
            roles[compare_at] = _COMPARE
            free = [i for i in range(length) if i != compare_at]

        # Error-diffused integer count per category: the fractional quota
        # carries over to the next block.
        quota = self._load_quota + self._p_load * length
        n_load = min(len(free), int(quota))
        self._load_quota = quota - n_load
        load_slots = self._positions(free, n_load, length, early=True)
        for slot in load_slots:
            roles[slot] = _LOAD
        free = [i for i in free if roles[i] == _FILLER]

        quota = self._store_quota + self._p_store * length
        n_store = min(len(free), int(quota))
        self._store_quota = quota - n_store
        for slot in self._positions(free, n_store, length, early=False):
            roles[slot] = _STORE

        if in_loop:
            free = [i for i in free if roles[i] == _FILLER]
            quota = self._syscall_quota + self._syscall_rate * length
            n_sys = min(len(free), int(quota))
            self._syscall_quota = quota - n_sys
            for slot in free[:n_sys]:
                roles[slot] = _SYSCALL

        # Computed-base loads take their address from an ALU instruction a
        # short distance earlier (pointer-style addressing: small dynamic
        # c); consumers claim an ALU slot at the drawn use distance.
        stable_base_frac = self._stable_base_frac
        use0, use1, use2 = self._use_cdf
        consumers: Dict[int, int] = {}  # slot -> load slot it consumes
        # Load slot -> its computed base, and base-def slot -> the same.
        bases: Dict[int, int] = {}
        for slot in load_slots:
            if random() >= stable_base_frac:
                for writer in (slot - 1, slot - 2, slot - 3):
                    if writer >= 0 and roles[writer] == _FILLER:
                        base = _COMPUTED_BASES[self._base_cursor % _N_COMPUTED_BASES]
                        self._base_cursor += 1
                        roles[writer] = _BASE_DEF
                        bases[writer] = bases[slot] = base
                        break
            draw = random()
            if draw < use0:
                consumer_at = slot + 1
            elif draw < use1:
                consumer_at = slot + 2
            elif draw < use2:
                consumer_at = slot + 3
            else:
                continue
            if consumer_at < length and roles[consumer_at] == _FILLER:
                roles[consumer_at] = _CONSUMER
                consumers[consumer_at] = slot

        is_float = self._is_float
        temp = self._temp_cursor
        load_dests: Dict[int, int] = {}  # load slot -> its destination
        first = len(self._rows) // _ROW_WIDTH
        extend = self._rows.extend
        for slot, role in enumerate(roles):
            if role == _FILLER:
                if is_float and random() < 0.30:
                    opcode = _FP_OPS[integers(0, _N_FP_OPS)]
                else:
                    opcode = _ALU_OPS[integers(0, _N_ALU_OPS)]
                extend(
                    (
                        opcode,
                        _SCRATCH[integers(0, _N_SCRATCH)],
                        _SCRATCH[integers(0, _N_SCRATCH)],
                        _SCRATCH[integers(0, _N_SCRATCH)],
                        _NONE, 0, NO_IMM,
                    )
                )
            elif role == _LOAD:
                base = bases.get(slot)
                if base is None:
                    base = _GP if random() < 0.5 else _SP
                dest = load_dests[slot] = _LOAD_DESTS[temp % _N_LOAD_DESTS]
                temp += 1
                extend(
                    (_LW, dest, _NONE, _NONE, base, integers(0, _OFFSET_WORDS) * 4, NO_IMM)
                )
            elif role == _STORE:
                if temp and random() < 0.5:
                    source = _LOAD_DESTS[(temp - 1) % _N_LOAD_DESTS]
                else:
                    source = _SCRATCH[integers(0, _N_SCRATCH)]
                base = _GP if random() < 0.4 else _SP
                extend(
                    (_SW, _NONE, source, _NONE, base, integers(0, _OFFSET_WORDS) * 4, NO_IMM)
                )
            elif role == _CONSUMER:
                extend(
                    (
                        _ADDU,
                        _SCRATCH[integers(0, _N_SCRATCH)],
                        load_dests[consumers[slot]],
                        _SCRATCH[integers(0, _N_SCRATCH)],
                        _NONE, 0, NO_IMM,
                    )
                )
            elif role == _BASE_DEF:
                extend(
                    (
                        _ADDU,
                        bases[slot],
                        _SCRATCH[integers(0, _N_SCRATCH)],
                        _SCRATCH[integers(0, _N_SCRATCH)],
                        _NONE, 0, NO_IMM,
                    )
                )
            elif role == _COMPARE:
                extend(
                    (
                        _SLT,
                        _CONDITION,
                        _SCRATCH[integers(0, _N_SCRATCH)],
                        _SCRATCH[integers(0, _N_SCRATCH)],
                        _NONE, 0, NO_IMM,
                    )
                )
            else:
                extend(_SYSCALL_ROW)
        self._temp_cursor = temp
        return first

    def _block_length(self, in_loop: bool) -> int:
        mean = self.spec.shape.loop_body_mean if in_loop else self.spec.shape.cold_body_mean
        return max(1, 1 + self.stream.poisson(max(0.0, mean - 1.0)))

    def _compare_distance(self, body_length: int) -> int:
        if self.stream.random() < self.spec.shape.compare_adjacent_frac:
            return 0
        return min(body_length - 1, 1 + self.stream.geometric(0.5))

    # -- constructs ----------------------------------------------------------

    def _close(
        self,
        name: str,
        first: int,
        terminator: Optional[_Terminator] = None,
        **block_attrs,
    ) -> _Block:
        """The block of the rows from ``first`` on, after appending its
        ``terminator``."""
        if terminator is None:
            code = label = None
        else:
            row, label = terminator
            self._rows.extend(row)
            code = row[0]
        return _Block(
            name, first, len(self._rows) // _ROW_WIDTH, code, label, **block_attrs
        )

    def _make_block(
        self,
        proc_index: int,
        in_loop: bool,
        terminator: Optional[_Terminator] = None,
        compare: bool = False,
        **block_attrs,
    ) -> _Block:
        body_length = self._block_length(in_loop)
        compare_distance = self._compare_distance(body_length) if compare else None
        first = self._body(body_length, compare_distance, in_loop)
        return self._close(
            self._new_block_name(proc_index), first, terminator, **block_attrs
        )

    def _branch(self, target: str) -> _Terminator:
        opcode = _BNE if self.stream.random() < 0.5 else _BEQ
        return (opcode, _NONE, _CONDITION, _ZERO, _NONE, 0, NO_IMM), target

    def _constructs(
        self,
        proc_index: int,
        budget: int,
        depth: int,
        in_loop: bool,
        blocks: List[_Block],
    ) -> int:
        """Append constructs to ``blocks`` until ``budget`` words are used."""
        used = 0
        while used < budget:
            kind = _CONSTRUCT_KINDS[bisect_right(_CONSTRUCT_CDF, self.stream.random())]
            if kind == "loop" and depth < 1:
                used += self._loop(proc_index, min(budget - used, budget // 2 + 8), depth, blocks)
            elif kind == "diamond":
                used += self._diamond(proc_index, in_loop, blocks)
            elif (
                kind == "call"
                and proc_index + 1 < self._n_procs
                and self._call_sites_left > 0
            ):
                used += self._call(proc_index, in_loop, blocks)
            elif (
                kind == "indirect_call"
                and proc_index + 2 < self._n_procs
                and self._call_sites_left > 0
            ):
                used += self._indirect_call(proc_index, in_loop, blocks)
            elif kind == "switch":
                used += self._switch(proc_index, in_loop, blocks)
            else:
                block = self._make_block(proc_index, in_loop)
                blocks.append(block)
                used += len(block)
        return used

    def _loop(
        self,
        proc_index: int,
        budget: int,
        depth: int,
        blocks: List[_Block],
        bias: Optional[float] = None,
    ) -> int:
        """A do-while loop: body constructs followed by a backward latch."""
        start = len(blocks)
        used = 0
        body_budget = max(0, budget - int(self.spec.shape.loop_body_mean) - 1)
        if body_budget > 4 and self.stream.random() < 0.55:
            used += self._constructs(proc_index, body_budget, depth + 1, True, blocks)
        if len(blocks) == start:
            # Ensure the latch has something to branch back to (itself).
            head = self._make_block(proc_index, in_loop=True)
            blocks.append(head)
            used += len(head)
        target = blocks[start].name
        latch = self._make_block(
            proc_index,
            in_loop=True,
            terminator=self._branch(target),
            compare=True,
            taken_target=target,
            taken_bias=self.spec.shape.backward_bias if bias is None else bias,
            backward=True,
        )
        blocks.append(latch)
        return used + len(latch)

    def _diamond(self, proc_index: int, in_loop: bool, blocks: List[_Block]) -> int:
        """if/else: condition block, then-arm (ends ``j``), else-arm, join."""
        # Names must exist before the blocks, because the condition block
        # branches forward to the else-arm and the then-arm jumps to the join.
        cond_name = self._new_block_name(proc_index)
        then_name = self._new_block_name(proc_index)
        else_name = self._new_block_name(proc_index)
        join_name = self._new_block_name(proc_index)

        cond_len = self._block_length(in_loop)
        first = self._body(cond_len, self._compare_distance(cond_len), in_loop)
        cond = self._close(
            cond_name,
            first,
            self._branch(else_name),
            taken_target=else_name,
            taken_bias=self.spec.shape.forward_bias,
            backward=False,
        )
        first = self._body(self._block_length(in_loop), None, in_loop)
        then_block = self._close(
            then_name, first, (_JUMP_ROW, join_name), taken_target=join_name
        )
        else_block = self._close(
            else_name, self._body(self._block_length(in_loop), None, in_loop)
        )
        join_block = self._close(
            join_name,
            self._body(max(1, self._block_length(in_loop) // 2), None, in_loop),
        )
        blocks.extend([cond, then_block, else_block, join_block])
        return sum(len(b) for b in (cond, then_block, else_block, join_block))

    def _guarded(self, proc_index: int, in_loop: bool, call_block: _Block,
                 blocks: List[_Block]) -> int:
        """Wrap a call block in a skip-branch guard.

        Unguarded calls inside loops make the call tree's branching factor
        explode (every loop iteration descends a whole subtree), which
        concentrates the trace on a handful of blocks.  The guard keeps the
        expected number of calls per procedure invocation near one: each
        driver-loop iteration then walks a call tree tens of procedures
        deep — a kiloword-scale instruction footprint re-referenced once
        per iteration, which is what gives the L1-I miss-rate-versus-size
        curves of Figure 3 their shape.  The call block's rows were
        appended before the guard's; :meth:`build` lays them out in block
        order.
        """
        skip_bias = 0.92 if in_loop else 0.30
        continue_name = self._new_block_name(proc_index)
        guard_len = self._block_length(in_loop)
        guard_name = self._new_block_name(proc_index)
        first = self._body(guard_len, self._compare_distance(guard_len), in_loop)
        guard = self._close(
            guard_name,
            first,
            self._branch(continue_name),
            taken_target=continue_name,
            taken_bias=skip_bias,
            backward=False,
        )
        continuation = self._close(continue_name, self._body(1, None, in_loop))
        blocks.extend([guard, call_block, continuation])
        return len(guard) + len(call_block) + len(continuation)

    def _call(self, proc_index: int, in_loop: bool, blocks: List[_Block]) -> int:
        callee = self._choose_callee(proc_index)
        self._call_sites_left -= 1
        call_block = self._make_block(
            proc_index,
            in_loop,
            terminator=(_CALL_ROW, self._entry_of(callee)),
            taken_target=self._entry_of(callee),
        )
        return self._guarded(proc_index, in_loop, call_block, blocks)

    def _indirect_call(self, proc_index: int, in_loop: bool, blocks: List[_Block]) -> int:
        """A ``jalr`` call through a function pointer (2-4 candidates)."""
        count = self.stream.integers(2, 5)
        callees = sorted(
            {self._choose_callee(proc_index) for _ in range(count)}
        )
        self._call_sites_left -= 1
        call_block = self._make_block(
            proc_index,
            in_loop,
            terminator=(_INDIRECT_CALL_ROW, None),
            indirect_targets=[self._entry_of(c) for c in callees],
        )
        return self._guarded(proc_index, in_loop, call_block, blocks)

    def _choose_callee(self, proc_index: int) -> int:
        shape = self.spec.shape
        if proc_index > 0 and self.stream.random() < shape.recursion_frac:
            return self.stream.integers(0, proc_index + 1)
        # Mostly nearby callees (call-graph locality), occasionally far.
        hop = 1 + self.stream.geometric(0.35)
        return min(self._n_procs - 1, proc_index + hop)

    def _switch(self, proc_index: int, in_loop: bool, blocks: List[_Block]) -> int:
        """A computed goto (``jr $t9``) over 2-4 case blocks."""
        case_count = self.stream.integers(2, 5)
        case_names = [self._new_block_name(proc_index) for _ in range(case_count)]
        join_name = self._new_block_name(proc_index)

        dispatch_len = self._block_length(in_loop)
        first = self._body(max(1, dispatch_len - 1), None, in_loop)
        # The jump register is computed right before the jr, so its delay
        # slots cannot be filled from before (matching real jump tables).
        self._rows.extend(
            (
                _ADDU,
                _T9,
                _SCRATCH[self.stream.integers(0, _N_SCRATCH)],
                _SCRATCH[self.stream.integers(0, _N_SCRATCH)],
                _NONE, 0, NO_IMM,
            )
        )
        dispatch = self._close(
            self._new_block_name(proc_index),
            first,
            (_SWITCH_ROW, None),
            indirect_targets=case_names,
        )
        cases = []
        for i, case_name in enumerate(case_names):
            first = self._body(self._block_length(in_loop), None, in_loop)
            if i < case_count - 1:
                cases.append(
                    self._close(
                        case_name, first, (_JUMP_ROW, join_name), taken_target=join_name
                    )
                )
            else:
                cases.append(self._close(case_name, first))
        join = self._close(join_name, self._body(1, None, in_loop))
        blocks.extend([dispatch] + cases + [join])
        return sum(len(b) for b in [dispatch] + cases + [join])

    # -- procedures ----------------------------------------------------------

    def _procedure(self, proc_index: int, budget: int) -> List[_Block]:
        """The procedure's blocks in layout order."""
        # At most a couple of call sites per procedure, each behind a skip
        # guard: keeps the dynamic call tree's branching factor near one.
        self._call_sites_left = self.stream.integers(1, 4)
        first = len(self._rows) // _ROW_WIDTH
        self._rows.extend(_PROLOGUE_ROWS)
        prologue = self._close(self._entry_of(proc_index), first)
        blocks = [prologue]
        body_budget = max(4, budget - len(prologue) - 4)
        if proc_index == 0:
            self._main_driver(blocks, body_budget)
        else:
            self._constructs(proc_index, body_budget, 0, False, blocks)
        first = len(self._rows) // _ROW_WIDTH
        self._rows.extend(_EPILOGUE_ROWS)
        blocks.append(
            self._close(self._new_block_name(proc_index), first, (_RETURN_ROW, None))
        )
        # Each block falls through to the next where required; the last
        # block of a procedure falls through nowhere.
        for current, following in zip(blocks, blocks[1:]):
            if current.terminator in _FALLS_THROUGH:
                current.fallthrough = following.name
            else:
                current.fallthrough = None
        blocks[-1].fallthrough = None
        return blocks

    def _main_driver(self, blocks: List[_Block], budget: int) -> None:
        """The entry procedure: a long-running loop over spread-out calls.

        Real ``main`` functions are driver loops; making the entry loop
        call sites span the whole procedure table guarantees the dynamic
        instruction footprint covers the program instead of collapsing
        into one hot self-loop.
        """
        start = len(blocks)
        call_count = min(max(4, self._n_procs // 6), 12)
        for j in range(call_count):
            callee = 1 + (j * max(1, self._n_procs - 2)) // call_count
            callee = min(self._n_procs - 1, callee)
            block = self._make_block(
                0,
                in_loop=True,
                terminator=(_CALL_ROW, self._entry_of(callee)),
                taken_target=self._entry_of(callee),
            )
            blocks.append(block)
            if self.stream.random() < 0.5:
                self._diamond(0, in_loop=True, blocks=blocks)
        target = blocks[start].name
        latch = self._make_block(
            0,
            in_loop=True,
            terminator=self._branch(target),
            compare=True,
            taken_target=target,
            taken_bias=0.999,
            backward=True,
        )
        blocks.append(latch)

    def build(self) -> Program:
        target_words = int(self.spec.shape.static_code_kw * 1024)
        raw = self.rng.lognormal(mean=0.0, sigma=0.8, size=self._n_procs)
        self.stream = DrawStream(self.rng)
        budgets = np.maximum(16, raw / raw.sum() * target_words).astype(int)
        procedures = [
            self._procedure(i, int(budgets[i])) for i in range(self._n_procs)
        ]
        blocks = [block for procedure in procedures for block in procedure]
        n = len(blocks)
        firsts = np.fromiter((b.start for b in blocks), dtype=np.int64, count=n)
        lengths = np.fromiter((len(b) for b in blocks), dtype=np.int64, count=n)
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        # Rows were appended in build order; gather them in layout order.
        order = np.repeat(firsts - starts[:-1], lengths) + np.arange(starts[-1])
        table = np.frombuffer(self._rows, dtype=np.int64).reshape(-1, _ROW_WIDTH)
        procedure_starts = np.zeros(len(procedures) + 1, dtype=np.int64)
        np.cumsum([len(p) for p in procedures], out=procedure_starts[1:])
        columns = ProgramColumns(
            table.T[:, order],
            starts,
            [b.name for b in blocks],
            [b.taken_target for b in blocks],
            [b.fallthrough for b in blocks],
            [b.taken_bias for b in blocks],
            [b.backward for b in blocks],
            [b.indirect_targets for b in blocks],
            [b.label for b in blocks],
            self._proc_names,
            procedure_starts,
        )
        return Program.from_columns(self.spec.name, columns)


def synthesize_program(spec: BenchmarkSpec, seed: int = DEFAULT_SEED) -> Program:
    """Synthesize the canonical program for one benchmark.

    The same ``(spec, seed)`` pair always produces the identical program, so
    traces and experiment results are reproducible across sessions.

    Args:
        spec: The benchmark specification (published stats + knobs).
        seed: Base seed; the benchmark name is mixed in automatically.

    Returns:
        A :class:`~repro.program.cfg.Program` over its columns (the
        lowering validates them).
    """
    if spec.shape.procedures < 2:
        raise WorkloadError(f"{spec.name}: need at least two procedures")
    return _Synthesizer(spec, seed).build()
