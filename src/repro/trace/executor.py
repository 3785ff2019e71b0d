"""The trace executor: walking a program to produce an execution trace.

The executor works at basic-block granularity, exactly as the paper's
simulation does ("each basic block entry-point instruction address ... is
used to simulate *l* sequential instruction references").  Its output — the
sequence of executed block ids plus each CTI's outcome — is the compact
trace from which everything else is expanded:

* the canonical (zero-delay-slot) instruction reference stream;
* the delay-slot-translated streams of Section 3.1 (via
  :mod:`repro.sched.translation`);
* per-block execution counts, which weight static analyses such as the
  epsilon distributions of Figures 6/7;
* the dynamic CTI stream consumed by the branch-target buffer.

:meth:`TraceExecutor.iter_chunks` / :meth:`TraceExecutor.run` stream
the trace in fixed-size chunks, so peak memory is O(chunk) regardless of
trace length.  The walk follows *decision edges* — for every (decision
block, outcome) pair, the block plus the maximal deterministic chain
that outcome selects, memoized on the compiled program — so the
interpreted loop advances one whole edge per random draw.  Its output is
property-tested against a block-at-a-time oracle under ``tests/trace``
that shares only the seeding contract: uniforms come from one
``spawn_rng(seed, name, "control")`` stream, read in order, one per
conditional branch or indirect transfer.

Chunking never changes a result: the walk state (current block, call
stack, restart count, and the position *within* the batched uniform
stream) persists across chunk boundaries, so any chunk size — including
one chunk covering the whole budget — consumes the RNG identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import TraceError
from repro.program.cfg import Program
from repro.trace.compiled import BlockKind, CompiledProgram
from repro.utils.rng import DEFAULT_SEED, spawn_rng

__all__ = [
    "ExecutionTrace",
    "TraceChunk",
    "TraceExecutor",
    "execute_program",
    "DEFAULT_CHUNK_BLOCKS",
]

_UNIFORM_BATCH = 1 << 16
_MAX_CALL_DEPTH = 256

#: Default streaming granularity: blocks per yielded chunk (~1 MB of
#: int32 ids).  Any value produces the identical concatenated trace.
DEFAULT_CHUNK_BLOCKS = 1 << 18

#: Longest precomputed deterministic chain.  Bounds the memory of chain
#: records and terminates construction on (pathological) all-jump cycles.
_MAX_CHAIN_BLOCKS = 128


@dataclass
class ExecutionTrace:
    """The result of executing a program for a number of instructions.

    Attributes:
        compiled: The lowered program the trace refers to.
        block_ids: Executed block ids, in order (int32).
        went_taken: Per step, 1 if control left the block via its taken /
            call / return / indirect edge, 0 if it fell through (or the
            trace simply continued sequentially).  Unconditional CTIs are
            always 1.
        restarts: Number of times execution fell off the end of the
            program (or returned with an empty call stack) and was
            restarted at the entry block.
    """

    compiled: CompiledProgram
    block_ids: np.ndarray
    went_taken: np.ndarray
    restarts: int

    @cached_property
    def block_counts(self) -> np.ndarray:
        """How many times each block id was executed."""
        return np.bincount(self.block_ids, minlength=len(self.compiled))

    @cached_property
    def instruction_count(self) -> int:
        """Canonical (zero-delay-slot) dynamic instruction count.

        This is the CPI denominator the paper uses: "the instruction count
        ... of optimized MIPS R2000 code for an architecture with no load
        or branch delay cycles".
        """
        return int(self.block_counts @ self.compiled.lengths)

    @cached_property
    def category_counts(self) -> Dict[str, int]:
        """Dynamic counts by instruction category."""
        counts = self.block_counts
        return {
            "instructions": self.instruction_count,
            "loads": int(counts @ self.compiled.load_counts),
            "stores": int(counts @ self.compiled.store_counts),
            "ctis": int(counts @ self.compiled.cti_counts),
            "syscalls": int(counts @ self.compiled.syscall_counts),
        }

    @property
    def steps(self) -> int:
        """Number of executed basic blocks."""
        return len(self.block_ids)

    def mix_percentages(self) -> Dict[str, float]:
        """Dynamic instruction mix, in percent (Table 1's columns)."""
        counts = self.category_counts
        total = max(1, counts["instructions"])
        return {
            "load_pct": 100.0 * counts["loads"] / total,
            "store_pct": 100.0 * counts["stores"] / total,
            "branch_pct": 100.0 * counts["ctis"] / total,
        }


@dataclass
class TraceChunk:
    """One streamed slice of a trace.

    Attributes:
        block_ids: Executed block ids of this slice (int32).
        went_taken: Matching taken flags (int8).
        restarts: *Cumulative* restart count through the end of this
            slice — the last chunk's value is the trace total.
    """

    block_ids: np.ndarray
    went_taken: np.ndarray
    restarts: int


class _Chain:
    """A superblock: a maximal deterministic run starting at one block.

    Covers consecutive blocks whose next block needs no random draw and
    no stack pop — fallthroughs, jumps, and calls — ending either just
    before a block that does (``next_id``) or at a restart edge
    (``end_restart``).  Appending the chain is equivalent, step for
    step, to the reference loop walking its blocks: the taken flags and
    call-stack pushes are position-independent, and within a chain the
    stack only grows, so the depth guard reduces to one comparison.

    The same record also represents a *decision edge* (see
    :meth:`TraceExecutor._edge_for`): a conditional / computed-goto /
    indirect-call block resolved to one outcome, prepended to the chain
    that outcome selects.  Decision edges give the interpreter loop its
    speed — one memoized record per (block, outcome) turns each random
    draw into a single extend.
    """

    __slots__ = (
        "ids",
        "takens",
        "pushes",
        "total_len",
        "need_before_last",
        "next_id",
        "end_restart",
    )

    def __init__(
        self,
        ids: Tuple[int, ...],
        takens: Tuple[int, ...],
        pushes: Tuple[int, ...],
        total_len: int,
        need_before_last: int,
        next_id: int,
        end_restart: bool,
    ) -> None:
        self.ids = ids
        self.takens = takens
        self.pushes = pushes
        self.total_len = total_len
        self.need_before_last = need_before_last
        self.next_id = next_id
        self.end_restart = end_restart


class TraceExecutor:
    """Executes a program, drawing control-flow outcomes from block biases.

    Args:
        program: A validated program (or an already-compiled one).
        seed: Base seed; mixed with the program name, so each benchmark's
            control-flow outcomes form an independent reproducible stream.
    """

    def __init__(self, program: Program, seed: int = DEFAULT_SEED) -> None:
        self.compiled = (
            program if isinstance(program, CompiledProgram) else CompiledProgram(program)
        )
        self._rng = spawn_rng(seed, self.compiled.name, "control")
        self._uniforms = np.empty(0)
        self._cursor = 0
        # Chains and decision edges depend only on the compiled program,
        # so the memoization lives on it and is shared across executors.
        self._chains: Dict[int, Optional[_Chain]] = self.compiled.chain_cache
        self._cond_edges: Dict[int, Tuple[_Chain, _Chain]] = (
            self.compiled.cond_edge_cache
        )
        self._indirect_edges: Dict[int, List[_Chain]] = (
            self.compiled.indirect_edge_cache
        )

    # -- chain construction ----------------------------------------------------

    def _chain_for(self, block_id: int) -> Optional[_Chain]:
        """The deterministic chain starting at ``block_id`` (None if it
        opens with a block that needs a draw or a stack pop)."""
        chain = self._chains.get(block_id, False)
        if chain is not False:
            return chain
        compiled = self.compiled
        kinds = compiled.kinds
        ids: List[int] = []
        takens: List[int] = []
        pushes: List[int] = []
        total = 0
        current = block_id
        next_id = -1
        end_restart = False
        while len(ids) < _MAX_CHAIN_BLOCKS:
            kind = kinds[current]
            if kind == BlockKind.FALLTHROUGH:
                nxt = int(compiled.fall_ids[current])
                taken = 0
            elif kind == BlockKind.JUMP:
                nxt = int(compiled.taken_ids[current])
                taken = 1
            elif kind == BlockKind.CALL:
                nxt = int(compiled.taken_ids[current])
                taken = 1
            else:
                next_id = current
                break
            ids.append(current)
            takens.append(taken)
            total += int(compiled.lengths[current])
            if kind == BlockKind.CALL:
                pushes.append(int(compiled.fall_ids[current]))
            if nxt < 0:
                end_restart = True
                next_id = compiled.entry_id
                break
            next_id = nxt
            current = nxt
        built: Optional[_Chain]
        if not ids:
            built = None
        else:
            built = _Chain(
                ids=tuple(ids),
                takens=tuple(takens),
                pushes=tuple(pushes),
                total_len=total,
                need_before_last=total - int(compiled.lengths[ids[-1]]),
                next_id=next_id,
                end_restart=end_restart,
            )
        self._chains[block_id] = built
        return built

    def _edge_for(
        self,
        block_id: int,
        target: int,
        taken: int,
        extra_push: Optional[int] = None,
    ) -> _Chain:
        """A decision edge: ``block_id`` resolved to ``target``, extended
        with the deterministic chain starting there.

        Appending the edge is equivalent to the reference loop stepping
        the decision block (with the given outcome) and then walking the
        chain.  ``extra_push`` is the call continuation an indirect call
        pushes before jumping — it precedes the chain's own pushes, and
        within the edge the stack still only grows.
        """
        compiled = self.compiled
        length = int(compiled.lengths[block_id])
        pushes = () if extra_push is None else (extra_push,)
        if target < 0:
            return _Chain(
                ids=(block_id,),
                takens=(taken,),
                pushes=pushes,
                total_len=length,
                need_before_last=0,
                next_id=compiled.entry_id,
                end_restart=True,
            )
        chain = self._chain_for(target)
        if chain is None:  # target itself needs a draw or a pop
            return _Chain(
                ids=(block_id,),
                takens=(taken,),
                pushes=pushes,
                total_len=length,
                need_before_last=0,
                next_id=target,
                end_restart=False,
            )
        return _Chain(
            ids=(block_id,) + chain.ids,
            takens=(taken,) + chain.takens,
            pushes=pushes + chain.pushes,
            total_len=length + chain.total_len,
            need_before_last=length + chain.need_before_last,
            next_id=chain.next_id,
            end_restart=chain.end_restart,
        )

    def _cond_pair(self, block_id: int) -> Tuple[_Chain, _Chain]:
        """(fall edge, taken edge) for a conditional block."""
        compiled = self.compiled
        pair = (
            self._edge_for(block_id, int(compiled.fall_ids[block_id]), 0),
            self._edge_for(block_id, int(compiled.taken_ids[block_id]), 1),
        )
        self._cond_edges[block_id] = pair
        return pair

    def _indirect_edges_for(self, block_id: int) -> List[_Chain]:
        """Per-candidate edges for a computed goto / indirect call."""
        compiled = self.compiled
        extra = (
            int(compiled.fall_ids[block_id])
            if compiled.kinds[block_id] == BlockKind.INDIRECT_CALL
            else None
        )
        edges = [
            self._edge_for(block_id, int(target), 1, extra)
            for target in compiled.indirect_ids[block_id]
        ]
        self._indirect_edges[block_id] = edges
        return edges

    # -- streaming path --------------------------------------------------------

    def iter_chunks(
        self,
        instruction_budget: int,
        chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
    ) -> Iterator[TraceChunk]:
        """Stream the trace in chunks of about ``chunk_blocks`` blocks.

        The concatenation of the yielded chunks is the same trace for
        *every* chunk size (chunks may overrun ``chunk_blocks`` by at most
        one chain).  Peak memory is one chunk.
        """
        if instruction_budget <= 0:
            raise TraceError("instruction budget must be positive")
        if chunk_blocks <= 0:
            raise TraceError("chunk size must be positive")
        # Each iteration resolves one control-flow *decision* and appends
        # the whole precomputed edge — the decision block plus the
        # deterministic chain its outcome selects — so the interpreted
        # work per iteration is one dict probe and one extend, not one
        # step per block.
        compiled = self.compiled
        lengths = compiled.lengths.tolist()
        kinds = compiled.kinds.tolist()
        fall_ids = compiled.fall_ids.tolist()
        biases = compiled.biases.tolist()
        entry_id = compiled.entry_id
        chains = self._chains
        cond_edges = self._cond_edges
        indirect_edges = self._indirect_edges

        call_stack: list = []
        restarts = 0
        current = entry_id
        executed = 0
        uniforms = self._uniforms
        size = len(uniforms)
        cursor = self._cursor
        rng_random = self._rng.random

        while executed < instruction_budget:
            block_ids: List[int] = []
            went_taken: List[int] = []
            while executed < instruction_budget and len(block_ids) < chunk_blocks:
                kind = kinds[current]
                if kind == 1:  # CONDITIONAL
                    if cursor >= size:
                        uniforms = rng_random(_UNIFORM_BATCH)
                        size = _UNIFORM_BATCH
                        cursor = 0
                    value = uniforms[cursor]
                    cursor += 1
                    pair = cond_edges.get(current)
                    if pair is None:
                        pair = self._cond_pair(current)
                    edge = pair[1] if value < biases[current] else pair[0]
                elif kind == 4:  # RETURN — dynamic target, single step
                    block_ids.append(current)
                    executed += lengths[current]
                    went_taken.append(1)
                    if call_stack:
                        current = call_stack.pop()
                    else:
                        restarts += 1
                        current = entry_id
                    continue
                elif kind == 5 or kind == 6:  # COMPUTED_GOTO / INDIRECT_CALL
                    if cursor >= size:
                        uniforms = rng_random(_UNIFORM_BATCH)
                        size = _UNIFORM_BATCH
                        cursor = 0
                    value = uniforms[cursor]
                    cursor += 1
                    edges = indirect_edges.get(current)
                    if edges is None:
                        edges = self._indirect_edges_for(current)
                    edge = edges[int(value * len(edges))]
                else:  # FALLTHROUGH / JUMP / CALL open a deterministic chain
                    edge = chains.get(current)
                    if edge is None:
                        edge = self._chain_for(current)
                if executed + edge.need_before_last < instruction_budget:
                    # Whole-edge fast path: one extend per decision.
                    block_ids.extend(edge.ids)
                    went_taken.extend(edge.takens)
                    executed += edge.total_len
                    if edge.end_restart:
                        restarts += 1
                        call_stack.clear()
                    elif edge.pushes:
                        if (
                            len(call_stack) + len(edge.pushes)
                            <= _MAX_CALL_DEPTH
                        ):
                            call_stack.extend(edge.pushes)
                        else:
                            for push in edge.pushes:
                                if len(call_stack) < _MAX_CALL_DEPTH:
                                    call_stack.append(push)
                    current = edge.next_id
                    continue
                # Trace tail: the budget may stop the walk inside the
                # edge, so advance exactly one reference step (reusing
                # the uniform already drawn for this decision).
                block_ids.append(current)
                executed += lengths[current]
                went_taken.append(edge.takens[0])
                if (kind == 3 or kind == 6) and len(call_stack) < _MAX_CALL_DEPTH:
                    call_stack.append(fall_ids[current])
                if len(edge.ids) > 1:
                    current = edge.ids[1]
                else:
                    if edge.end_restart:
                        restarts += 1
                        call_stack.clear()
                    current = edge.next_id
            self._uniforms = uniforms
            self._cursor = cursor
            yield TraceChunk(
                block_ids=np.array(block_ids, dtype=np.int32),
                went_taken=np.array(went_taken, dtype=np.int8),
                restarts=restarts,
            )

    def run(
        self,
        instruction_budget: int,
        chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
    ) -> ExecutionTrace:
        """Execute until at least ``instruction_budget`` canonical
        instructions have been traced.

        The walk restarts at the entry block whenever execution falls off
        the end of a procedure chain, so any budget can be satisfied.
        Implemented over :meth:`iter_chunks`.
        """
        id_chunks: List[np.ndarray] = []
        taken_chunks: List[np.ndarray] = []
        restarts = 0
        for chunk in self.iter_chunks(instruction_budget, chunk_blocks):
            id_chunks.append(chunk.block_ids)
            taken_chunks.append(chunk.went_taken)
            restarts = chunk.restarts
        return ExecutionTrace(
            compiled=self.compiled,
            block_ids=(
                id_chunks[0]
                if len(id_chunks) == 1
                else np.concatenate(id_chunks)
            ),
            went_taken=(
                taken_chunks[0]
                if len(taken_chunks) == 1
                else np.concatenate(taken_chunks)
            ),
            restarts=restarts,
        )


def execute_program(
    program: Program, instruction_budget: int, seed: int = DEFAULT_SEED
) -> ExecutionTrace:
    """Convenience wrapper: compile and run in one call."""
    return TraceExecutor(program, seed=seed).run(instruction_budget)
