"""Lowering a :class:`~repro.program.cfg.Program` to flat arrays.

The trace executor takes millions of steps; doing so over dataclass objects
would dominate every experiment's run time.  :class:`CompiledProgram`
lowers the CFG once into parallel arrays indexed by *block id* (the block's
position in layout order), which the executor's inner loop, the
vectorized reference-stream expansion, the delay-slot translation and the
load-slack analysis all consume directly.

The lowering is the complete runtime form of a benchmark.  Besides the
control-flow arrays it carries every fact of the delay-slot schedulers
that does not depend on the number of slots: each CTI's hoist limit,
static prediction and indirect flag, and each static load's static and
dynamic epsilon.  :meth:`CompiledProgram.as_arrays` and
:meth:`CompiledProgram.from_arrays` round-trip it through a flat array
bundle, which a measurement session persists per program, so a warm start
neither synthesizes nor re-lowers a program.  A rebuilt lowering keeps
the bundle's block names mapped and decodes them only when ``names`` or
``index`` is first read; no run's hot path reads either.  Only
:meth:`CompiledProgram.block_instructions` (and the instruction-level
analyses built on it) needs the original :class:`~repro.program.cfg.Program`.
"""

from __future__ import annotations

import enum
from array import array
from functools import cached_property
from typing import Dict, List, Mapping

import numpy as np

from repro.errors import TraceError
from repro.isa.opcodes import OpcodeKind
from repro.isa.registers import RA
from repro.program.cfg import Program
from repro.program.dependence import BlockFacts

__all__ = [
    "BlockKind",
    "CompiledProgram",
    "JUMP_UNFILLABLE_FRAC",
    "LOWERING_VERSION",
    "compiled_arrays_valid",
    "unfillable_jumps",
]

#: Bump when the lowering changes what any array of a
#: :class:`CompiledProgram` holds; it versions every persisted bundle.
LOWERING_VERSION = 1

# Step 1 of the paper's procedure: when the original MIPS compiler left a
# noop after a CTI, the post-processor sets r = 0 (the slot is unfillable
# from before).  Our simplified dependence model cannot see the alignment
# and liveness constraints that made ~46 % of real first slots unfillable —
# it would hoist almost every direct jump — so the same effect is modelled
# by declaring this fraction of direct jumps/calls unfillable, chosen
# deterministically per block.  Calibrated against the paper's measured
# 54 % overall / 52 % predicted-taken first-slot fill rates.
JUMP_UNFILLABLE_FRAC = 0.45

_HASH_MULTIPLIER = 2654435761  # Knuth multiplicative hash


def unfillable_jumps(block_ids: np.ndarray) -> np.ndarray:
    """Step 1's deterministic pseudo-random choice, per block id (a mask).

    The product is formed in int64: ``block_id * 2654435761`` overflows
    int32 from block id 1 on.
    """
    hashed = (np.asarray(block_ids, dtype=np.int64) * _HASH_MULTIPLIER) & 0xFFFFFFFF
    return hashed / 2**32 < JUMP_UNFILLABLE_FRAC


class BlockKind(enum.IntEnum):
    """Terminator classification of a block, as small ints for speed."""

    FALLTHROUGH = 0  # no terminator
    CONDITIONAL = 1  # beq/bne/...
    JUMP = 2  # j
    CALL = 3  # jal
    RETURN = 4  # jr $ra
    COMPUTED_GOTO = 5  # jr $tN
    INDIRECT_CALL = 6  # jalr


#: Every numeric array of a lowering, with its dtype (the bundle adds
#: the unicode ``names``/``name`` and the one-element ``entry_id`` and
#: ``text_base``).
_ARRAY_DTYPES: Dict[str, np.dtype] = {
    name: np.dtype(dtype)
    for name, dtype in (
        ("lengths", np.int32),
        ("kinds", np.int8),
        ("taken_ids", np.int32),
        ("fall_ids", np.int32),
        ("biases", np.float64),
        ("indirect_offsets", np.int64),
        ("indirect_flat", np.int32),
        ("load_counts", np.int32),
        ("store_counts", np.int32),
        ("cti_counts", np.int32),
        ("syscall_counts", np.int32),
        ("hoist_limits", np.int32),
        ("predicted_taken", np.bool_),
        ("indirect", np.bool_),
        ("load_blocks", np.int32),
        ("load_eps_static", np.int8),
        ("load_eps_dynamic", np.int8),
    )
}

#: The integer arrays the lowering loop fills: one row per block, one
#: per static load.
_BLOCK_COLUMNS = (
    "lengths", "kinds", "taken_ids", "fall_ids", "load_counts",
    "store_counts", "cti_counts", "syscall_counts", "hoist_limits",
)
_LOAD_COLUMNS = ("load_blocks", "load_eps_static", "load_eps_dynamic")

_LOAD = OpcodeKind.LOAD

#: Arrays with one entry per block (the rest are CSR/per-load/scalars).
_PER_BLOCK = (
    "lengths", "kinds", "taken_ids", "fall_ids", "biases", "load_counts",
    "store_counts", "cti_counts", "syscall_counts", "hoist_limits",
    "predicted_taken", "indirect", "names",
)


def compiled_arrays_valid(arrays: Mapping[str, np.ndarray]) -> bool:
    """Whether a bundle is a complete :meth:`CompiledProgram.as_arrays` output.

    Checks every name, dtype and length relation, so a truncated or stale
    bundle is rejected (and rebuilt by the store) rather than loaded.
    """
    try:
        n = len(arrays["lengths"])
        return (
            n > 0
            and all(arrays[name].dtype == dtype for name, dtype in _ARRAY_DTYPES.items())
            and arrays["names"].dtype.kind == "U"
            and arrays["name"].dtype.kind == "U"
            and all(len(arrays[name]) == n for name in _PER_BLOCK)
            and len(arrays["indirect_offsets"]) == n + 1
            and int(arrays["indirect_offsets"][-1]) == len(arrays["indirect_flat"])
            and len(arrays["load_blocks"]) == int(arrays["load_counts"].sum())
            and len(arrays["load_eps_static"]) == len(arrays["load_blocks"])
            and len(arrays["load_eps_dynamic"]) == len(arrays["load_blocks"])
            and len(arrays["name"]) == 1
            and len(arrays["entry_id"]) == 1
            and 0 <= int(arrays["entry_id"][0]) < n
            and len(arrays["text_base"]) == 1
        )
    except (KeyError, TypeError, IndexError, AttributeError, ValueError):
        return False


def _block_kind(facts: BlockFacts, indirect_targets: List[str]) -> BlockKind:
    """A block's :class:`BlockKind`, from its last instruction's facts."""
    last = facts.kinds[-1] if facts.kinds else None
    if last is OpcodeKind.BRANCH:
        return BlockKind.CONDITIONAL
    if last is OpcodeKind.JUMP:
        return BlockKind.CALL if facts.links else BlockKind.JUMP
    if last is OpcodeKind.JUMP_REGISTER:
        if facts.links:
            return BlockKind.INDIRECT_CALL
        if facts.last_base == RA.number and not indirect_targets:
            return BlockKind.RETURN
        return BlockKind.COMPUTED_GOTO
    return BlockKind.FALLTHROUGH


class CompiledProgram:
    """Array form of a program, indexed by block id (layout order).

    Attributes (per-block arrays are parallel, one entry per block):
        name: the program's name (it seeds the trace executor's stream).
        text_base: byte address of the canonical code.
        names: block names.
        lengths: canonical instruction counts.
        kinds: :class:`BlockKind` values.
        taken_ids: block id of the taken target (-1 when none/dynamic).
        fall_ids: block id of the fall-through / call continuation (-1 none).
        biases: taken probability for conditional terminators.
        indirect_offsets / indirect_flat: candidate target ids for
            computed gotos / indirect calls in CSR form (offsets int64,
            flat int32): block ``i``'s candidates are
            ``indirect_flat[indirect_offsets[i]:indirect_offsets[i + 1]]``
            (none for other blocks).
        load_counts / store_counts / cti_counts / syscall_counts: static
            per-block instruction category counts.
        hoist_limits: how far each block's CTI can be hoisted
            (:func:`~repro.program.dependence.cti_hoist_distance`), or 0
            for blocks without a CTI and for step 1's unfillable direct
            jumps/calls; a CTI's ``r`` at ``b`` slots is
            ``min(b, hoist_limit)``.
        predicted_taken: step 3's static prediction (backward branches
            and every unconditional CTI; False for blocks without a CTI).
        indirect: register-indirect CTI (its remaining slots are noops).
        load_blocks: block id of every static load, in block and then
            instruction order.
        load_eps_static / load_eps_dynamic: each static load's slack
            (:func:`~repro.program.dependence.load_epsilons`).
        program: the lowered :class:`~repro.program.cfg.Program`, or None
            for a program rebuilt by :meth:`from_arrays`.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        blocks = list(program.blocks())
        if not blocks:
            raise TraceError(f"program {program.name!r} has no blocks")
        self.name: str = program.name
        self.text_base: int = int(program.text_base)
        self.index: Dict[str, int] = {b.name: i for i, b in enumerate(blocks)}
        self.names: List[str] = [b.name for b in blocks]
        index = self.index
        n = len(blocks)
        unfillable = unfillable_jumps(np.arange(n)).tolist()
        # Each block's integer facts go into one flat typed buffer, row by
        # row in _BLOCK_COLUMNS order (no Python object per value), its
        # bias into another, and each static load's (block, static epsilon,
        # dynamic epsilon) into a third; the columns become arrays once.
        block_table = array("q")
        biases = array("d")
        load_table = array("q")
        indirect_ids: List[List[int]] = []
        for i, block in enumerate(blocks):
            facts = BlockFacts(block.instructions)
            opcode_kinds = facts.kinds
            if facts.loads:
                for position, opcode_kind in enumerate(opcode_kinds):
                    if opcode_kind is _LOAD:
                        load_table.append(i)
                        load_table.extend(facts.load_epsilons(position))
            kind = _block_kind(facts, block.indirect_targets)
            if kind == BlockKind.FALLTHROUGH or (
                kind in (BlockKind.JUMP, BlockKind.CALL) and unfillable[i]
            ):
                hoist = 0
            else:
                hoist = facts.hoist_distance()
            block_table.extend(
                (
                    len(opcode_kinds),
                    kind,
                    -1 if block.taken_target is None else index[block.taken_target],
                    -1 if block.fallthrough is None else index[block.fallthrough],
                    facts.loads,
                    facts.stores,
                    facts.ctis,
                    facts.syscalls,
                    hoist,
                )
            )
            biases.append(block.taken_bias)
            targets = [index[t] for t in block.indirect_targets]
            if (
                kind in (BlockKind.COMPUTED_GOTO, BlockKind.INDIRECT_CALL)
                and not targets
            ):
                raise TraceError(
                    f"block {block.name!r}: register-indirect CTI needs "
                    "indirect_targets (or $ra for a return)"
                )
            indirect_ids.append(targets)

        for names, table in ((_BLOCK_COLUMNS, block_table), (_LOAD_COLUMNS, load_table)):
            rows = np.frombuffer(table, dtype=np.int64).reshape(-1, len(names))
            for column, name in enumerate(names):
                setattr(self, name, rows[:, column].astype(_ARRAY_DTYPES[name]))
        self.biases = np.array(biases, dtype=np.float64)
        self.entry_id = index[program.entry]

        # The per-block candidate lists, in CSR form.
        counts = np.fromiter(
            (len(t) for t in indirect_ids), dtype=np.int64, count=n
        )
        self.indirect_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indirect_offsets[1:])
        self.indirect_flat = np.fromiter(
            (t for targets in indirect_ids for t in targets),
            dtype=np.int32,
            count=int(self.indirect_offsets[-1]),
        )

        # Step 3: backward conditionals (target at or before the branch in
        # layout order) and every unconditional CTI are predicted taken.
        is_cti = self.kinds != BlockKind.FALLTHROUGH
        backward = (self.taken_ids >= 0) & (self.taken_ids <= np.arange(n))
        self.predicted_taken = is_cti & (
            (self.kinds != BlockKind.CONDITIONAL) | backward
        )
        self.indirect = np.isin(
            self.kinds,
            (BlockKind.RETURN, BlockKind.COMPUTED_GOTO, BlockKind.INDIRECT_CALL),
        )
        self._init_walk_caches()

    def _init_walk_caches(self) -> None:
        # Walk memoization, filled lazily by TraceExecutor: superblock
        # chains and per-outcome decision edges are pure functions of the
        # compiled arrays, so every executor over this program (whatever
        # its seed) shares one cache instead of rebuilding it.
        self.chain_cache: Dict[int, object] = {}
        self.cond_edge_cache: Dict[int, tuple] = {}
        self.indirect_edge_cache: Dict[int, list] = {}

    # -- the flat bundle ---------------------------------------------------------

    def as_arrays(self) -> Dict[str, np.ndarray]:
        """The whole lowering as named 1-D arrays (a persistable bundle)."""
        arrays = {name: getattr(self, name) for name in _ARRAY_DTYPES}
        arrays["names"] = np.array(self.names, dtype=str)
        arrays["name"] = np.array([self.name], dtype=str)
        arrays["entry_id"] = np.array([self.entry_id], dtype=np.int64)
        arrays["text_base"] = np.array([self.text_base], dtype=np.int64)
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "CompiledProgram":
        """Rebuild a lowering from :meth:`as_arrays` output, without the
        program: no synthesis, no instruction lists, no re-lowering.

        Memory-mapped inputs stay zero-copy (and read-only), the block
        names included: they are decoded on first use.
        """
        if not compiled_arrays_valid(arrays):
            raise TraceError("not a complete compiled-program bundle")
        self = cls.__new__(cls)
        self.program = None
        self.name = str(arrays["name"][0])
        self.text_base = int(arrays["text_base"][0])
        self.entry_id = int(arrays["entry_id"][0])
        self._names_array = arrays["names"]
        for name in _ARRAY_DTYPES:
            setattr(self, name, np.asarray(arrays[name]))
        self._init_walk_caches()
        return self

    @cached_property
    def names(self) -> List[str]:
        """Block names, decoded from the bundle's array on first read."""
        return self._names_array.tolist()

    @cached_property
    def index(self) -> Dict[str, int]:
        """Block name -> block id."""
        return {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def static_words(self) -> int:
        """Canonical static code size in words."""
        return int(self.lengths.sum())

    @property
    def canonical_addresses(self) -> np.ndarray:
        """Start byte address of each block in the canonical layout."""
        if not hasattr(self, "_canonical_addresses"):
            starts = np.concatenate(([0], np.cumsum(self.lengths)[:-1]))
            self._canonical_addresses = (
                self.text_base + starts * 4
            ).astype(np.int64)
        return self._canonical_addresses

    def block_instructions(self, block_id: int):
        """The instruction list of a block (for analyses, not hot paths).

        Needs the program: a lowering rebuilt by :meth:`from_arrays`
        carries no instructions.
        """
        if self.program is None:
            raise TraceError(
                f"program {self.name!r} was loaded from its lowered arrays; "
                "instruction lists need CompiledProgram(program)"
            )
        return self.program.block(self.names[block_id]).instructions
