"""Lowering a :class:`~repro.program.cfg.Program` to flat arrays.

The trace executor takes millions of steps; doing so over dataclass objects
would dominate every experiment's run time.  :class:`CompiledProgram`
lowers the CFG once into parallel arrays indexed by *block id* (the block's
position in layout order), which the executor's inner loop, the
vectorized reference-stream expansion, the delay-slot translation and the
load-slack analysis all consume directly.

The lowering is the paper's post-processor.  It reads the program's
columns (:class:`~repro.program.columns.ProgramColumns`, one row per
instruction), checks every block and edge invariant, and derives every
block fact in a few array passes: category counts by ``bincount``, the
terminator kind from each block's last row, each CTI's hoist limit as a
segmented maximum over blocker positions, and both epsilons of every
load from at most :data:`~repro.program.dependence.EPSILON_CAP` shifted
compares in each direction (:mod:`repro.program.dependence`).  No
instruction object is built or visited.

Besides the control-flow arrays the lowering carries every fact of the
delay-slot schedulers that does not depend on the number of slots: each
CTI's hoist limit, static prediction and indirect flag, and each static
load's static and dynamic epsilon.  :meth:`CompiledProgram.as_arrays` and
:meth:`CompiledProgram.from_arrays` round-trip it through a flat array
bundle, which a measurement session persists per program, so a warm start
neither synthesizes nor re-lowers a program.  A rebuilt lowering keeps
the bundle's block names mapped and decodes them only when ``names`` is
first read; no run's hot path reads it.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Dict, List, Mapping

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.isa.registers import RA
from repro.program.cfg import Program
from repro.program.columns import (
    BRANCH,
    IS_CTI,
    JUMP,
    JUMP_REGISTER,
    KIND_OF,
    LINKS,
    LOAD,
    NO_REGISTER,
    STORE,
    SYSCALL,
)
from repro.program.dependence import hoist_distances, load_epsilons, register_masks

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
            (:func:`~repro.program.dependence.hoist_distances`), or 0
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
    """

    def __init__(self, program: Program) -> None:
        columns = program.columns
        n = len(columns)
        if not n:
            raise TraceError(f"program {program.name!r} has no blocks")
        edges = columns.validate()
        if columns.procedure_starts[1] == 0:
            raise ConfigurationError(
                f"procedure {columns.procedure_names[0]!r} has no blocks"
            )
        self.name: str = program.name
        self.text_base: int = int(program.text_base)
        self.names: List[str] = columns.names
        self.entry_id = 0  # the entry procedure's first block

        opcodes, _, _, _, bases = columns.rows[:5]
        row_kinds = KIND_OF[opcodes]
        lengths = np.diff(columns.starts)
        block_of_row = np.repeat(np.arange(n), lengths)
        self.lengths = lengths.astype(np.int32)
        for name, kind in (
            ("load_counts", LOAD),
            ("store_counts", STORE),
            ("syscall_counts", SYSCALL),
        ):
            counts = np.bincount(block_of_row[row_kinds == kind], minlength=n)
            setattr(self, name, counts.astype(np.int32))
        self.cti_counts = np.bincount(
            block_of_row[IS_CTI[row_kinds]], minlength=n
        ).astype(np.int32)

        # The terminator kind, from each block's last row.
        last_kind = columns.last_row(row_kinds, -1)
        links = columns.last_row(LINKS[opcodes], False)
        no_targets = np.diff(edges.indirect_offsets) == 0
        returns = (columns.last_row(bases, NO_REGISTER) == RA.number) & no_targets
        kinds = np.full(n, BlockKind.FALLTHROUGH, dtype=np.int8)
        kinds[last_kind == BRANCH] = BlockKind.CONDITIONAL
        jump = last_kind == JUMP
        kinds[jump] = np.where(links[jump], BlockKind.CALL, BlockKind.JUMP)
        register = last_kind == JUMP_REGISTER
        kinds[register] = np.where(
            links[register],
            BlockKind.INDIRECT_CALL,
            np.where(returns[register], BlockKind.RETURN, BlockKind.COMPUTED_GOTO),
        )
        self.kinds = kinds
        targetless = no_targets & np.isin(
            kinds, (BlockKind.COMPUTED_GOTO, BlockKind.INDIRECT_CALL)
        )
        if targetless.any():
            raise TraceError(
                f"block {self.names[int(np.argmax(targetless))]!r}: register-indirect "
                "CTI needs indirect_targets (or $ra for a return)"
            )

        self.taken_ids = edges.taken_ids.astype(np.int32)
        self.fall_ids = edges.fall_ids.astype(np.int32)
        self.biases = np.array(columns.biases, dtype=np.float64)
        self.indirect_offsets = edges.indirect_offsets
        self.indirect_flat = edges.indirect_flat

        defs, uses = register_masks(columns)
        # Step 1's unfillable direct jumps/calls fill no slot from before.
        masked = (kinds == BlockKind.FALLTHROUGH) | (
            np.isin(kinds, (BlockKind.JUMP, BlockKind.CALL)) & unfillable_jumps(np.arange(n))
        )
        self.hoist_limits = np.where(
            masked, 0, hoist_distances(columns, defs, uses)
        ).astype(np.int32)
        loads, eps_static, eps_dynamic = load_epsilons(columns, defs, uses)
        self.load_blocks = block_of_row[loads].astype(np.int32)
        self.load_eps_static = eps_static.astype(np.int8)
        self.load_eps_dynamic = eps_dynamic.astype(np.int8)

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
        """Rebuild a lowering from :meth:`as_arrays` output: no synthesis,
        no re-lowering.

        Memory-mapped inputs stay zero-copy (and read-only), the block
        names included: they are decoded on first use.
        """
        if not compiled_arrays_valid(arrays):
            raise TraceError("not a complete compiled-program bundle")
        self = cls.__new__(cls)
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
