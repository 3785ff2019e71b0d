"""Programs as flat columns: one row per instruction, one entry per block.

The lowering reads a handful of integers per instruction (its opcode and
its register and offset fields) and a few facts per block (its row
range, its edges and its bias).  :class:`ProgramColumns` holds a program
in exactly that form:

* the instruction rows, in layout order, as one int64 array per field
  (:data:`ROW_FIELDS`): the opcode's code (its position in
  :data:`OPCODES`), the destination, the two sources and the base as
  register numbers (:data:`NO_REGISTER` where there is none), the
  offset, and the immediate (:data:`NO_IMM` where there is none);
* per block, in layout order: its first row (``starts`` has one more
  entry, the row count), name, taken target, fall-through, bias,
  backward flag, indirect targets and the target label of its last
  instruction (the only instruction that carries one);
* per procedure: its name and its first block (``procedure_starts``
  has one more entry, the block count).

The synthesizer writes these columns directly, so a synthesized
program builds no :class:`~repro.isa.instruction.Instruction` unless a
caller reads ``block.instructions`` (:meth:`ProgramColumns.decode`
makes the read views).  A hand-built program of
:class:`~repro.program.basic_block.BasicBlock` objects reaches the
same columns through one adapter, :meth:`ProgramColumns.from_procedures`.

:meth:`ProgramColumns.validate` checks every structural invariant of
blocks and edges in a few array passes and raises the first violation
(in layout order, each block's checks in a fixed order) as a
:class:`~repro.errors.ConfigurationError`; it returns the edges as
block ids for the lowering.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import INFO_BY_VALUE, Opcode, OpcodeKind
from repro.isa.registers import REGISTER_COUNT, Register
from repro.program.basic_block import BasicBlock

__all__ = [
    "NO_IMM",
    "NO_REGISTER",
    "OPCODES",
    "OPCODE_CODES",
    "ProgramColumns",
    "ROW_FIELDS",
    "ResolvedEdges",
]

#: The fields of an instruction row, in column order.
ROW_FIELDS = ("opcode", "dest", "source0", "source1", "base", "offset", "imm")
#: A register field with no register.
NO_REGISTER = -1
#: The immediate field of an instruction without one.
NO_IMM = -(2**63)
#: Marks an edge to a block name the program does not define.
UNKNOWN_BLOCK = -2

#: Every opcode, indexed by its row code.
OPCODES: Tuple[Opcode, ...] = tuple(Opcode)
#: Each opcode's row code.
OPCODE_CODES: Dict[Opcode, int] = {opcode: code for code, opcode in enumerate(OPCODES)}

# Kind codes: an OpcodeKind's position in the enum.
_KIND_INDEX = {kind: code for code, kind in enumerate(OpcodeKind)}
LOAD = _KIND_INDEX[OpcodeKind.LOAD]
STORE = _KIND_INDEX[OpcodeKind.STORE]
BRANCH = _KIND_INDEX[OpcodeKind.BRANCH]
JUMP = _KIND_INDEX[OpcodeKind.JUMP]
JUMP_REGISTER = _KIND_INDEX[OpcodeKind.JUMP_REGISTER]
SYSCALL = _KIND_INDEX[OpcodeKind.SYSCALL]

#: Each opcode code's kind code, and whether it links (``jal``/``jalr``).
KIND_OF = np.array(
    [_KIND_INDEX[INFO_BY_VALUE[op.value].kind] for op in OPCODES], dtype=np.int8
)
LINKS = np.array([INFO_BY_VALUE[op.value].links for op in OPCODES], dtype=np.bool_)
#: By kind code: control-transfer instructions, and the instructions no
#: other instruction moves across (CTIs and syscalls).
IS_CTI = np.zeros(len(_KIND_INDEX), dtype=np.bool_)
IS_CTI[[BRANCH, JUMP, JUMP_REGISTER]] = True
IS_BARRIER = IS_CTI.copy()
IS_BARRIER[SYSCALL] = True

_REGISTERS = tuple(Register(n) for n in range(REGISTER_COUNT))


class ResolvedEdges(NamedTuple):
    """A program's edges as block ids (-1 where a block has none), with
    the indirect targets in CSR form (offsets int64, flat int32)."""

    taken_ids: np.ndarray
    fall_ids: np.ndarray
    indirect_offsets: np.ndarray
    indirect_flat: np.ndarray


class _BlockView(BasicBlock):
    """A block of a columnar program; its instructions are decoded from
    the columns when first read."""

    @property
    def instructions(self) -> List[Instruction]:
        decoded = self.__dict__.get("_instructions")
        if decoded is None:
            columns, block = self.__dict__["_source"]
            decoded = self.__dict__["_instructions"] = columns.block_instructions(block)
        return decoded

    @instructions.setter
    def instructions(self, value: List[Instruction]) -> None:
        self.__dict__["_instructions"] = value


def _register(register: Optional[Register]) -> int:
    return NO_REGISTER if register is None else register.number


class ProgramColumns:
    """A program's instruction rows and block table (see the module docstring)."""

    __slots__ = (
        "rows", "starts", "names", "taken_targets", "fallthroughs", "biases",
        "backward", "indirect_targets", "labels", "procedure_names",
        "procedure_starts",
    )

    def __init__(
        self,
        rows: np.ndarray,
        starts: np.ndarray,
        names: List[str],
        taken_targets: List[Optional[str]],
        fallthroughs: List[Optional[str]],
        biases: List[float],
        backward: List[bool],
        indirect_targets: List[List[str]],
        labels: List[Optional[str]],
        procedure_names: List[str],
        procedure_starts: np.ndarray,
    ) -> None:
        #: ``(len(ROW_FIELDS), instructions)`` int64: one row per field.
        self.rows = rows
        self.starts = starts
        self.names = names
        self.taken_targets = taken_targets
        self.fallthroughs = fallthroughs
        self.biases = biases
        self.backward = backward
        self.indirect_targets = indirect_targets
        self.labels = labels
        self.procedure_names = procedure_names
        self.procedure_starts = procedure_starts

    # -- the one adapter from hand-built objects --------------------------------

    @classmethod
    def from_procedures(cls, procedures: Sequence) -> "ProgramColumns":
        """The columns of procedures of :class:`BasicBlock` objects."""
        table = array("q")
        starts = [0]
        names: List[str] = []
        taken_targets: List[Optional[str]] = []
        fallthroughs: List[Optional[str]] = []
        biases: List[float] = []
        backward: List[bool] = []
        indirect_targets: List[List[str]] = []
        labels: List[Optional[str]] = []
        procedure_names: List[str] = []
        procedure_starts = [0]
        for procedure in procedures:
            procedure_names.append(procedure.name)
            for block in procedure.blocks:
                label = None
                for inst in block.instructions:
                    sources = inst.sources
                    if len(sources) > 2:
                        raise ConfigurationError(
                            f"block {block.name!r}: {inst.opcode.value} reads "
                            f"{len(sources)} source registers (at most 2)"
                        )
                    table.extend(
                        (
                            OPCODE_CODES[inst.opcode],
                            _register(inst.dest),
                            sources[0].number if sources else NO_REGISTER,
                            sources[1].number if len(sources) > 1 else NO_REGISTER,
                            _register(inst.base),
                            inst.offset,
                            NO_IMM if inst.imm is None else inst.imm,
                        )
                    )
                    label = inst.target
                starts.append(len(table) // len(ROW_FIELDS))
                names.append(block.name)
                taken_targets.append(block.taken_target)
                fallthroughs.append(block.fallthrough)
                biases.append(block.taken_bias)
                backward.append(block.backward)
                indirect_targets.append(list(block.indirect_targets))
                labels.append(label)
            procedure_starts.append(len(names))
        rows = np.frombuffer(table, dtype=np.int64).reshape(-1, len(ROW_FIELDS))
        return cls(
            np.ascontiguousarray(rows.T),
            np.array(starts, dtype=np.int64),
            names,
            taken_targets,
            fallthroughs,
            biases,
            backward,
            indirect_targets,
            labels,
            procedure_names,
            np.array(procedure_starts, dtype=np.int64),
        )

    # -- read views ---------------------------------------------------------------

    def __len__(self) -> int:
        """The number of blocks."""
        return len(self.names)

    @property
    def instruction_count(self) -> int:
        return int(self.starts[-1])

    def block_instructions(self, block: int) -> List[Instruction]:
        """Block ``block``'s instructions, decoded from its rows."""
        start, stop = int(self.starts[block]), int(self.starts[block + 1])
        instructions = [
            Instruction(
                OPCODES[opcode],
                None if dest < 0 else _REGISTERS[dest],
                tuple(_REGISTERS[r] for r in (source0, source1) if r >= 0),
                None if imm == NO_IMM else imm,
                None if base < 0 else _REGISTERS[base],
                offset,
            )
            for opcode, dest, source0, source1, base, offset, imm in (
                self.rows[:, start:stop].T.tolist()
            )
        ]
        label = self.labels[block]
        if instructions and label is not None:
            last = instructions[-1]
            instructions[-1] = Instruction(
                last.opcode, last.dest, last.sources, last.imm, last.base,
                last.offset, label,
            )
        return instructions

    def decode(self) -> List[Tuple[str, List[BasicBlock]]]:
        """Each procedure's name and blocks, as read views whose
        instructions are decoded on first read."""
        procedures = []
        bounds = self.procedure_starts.tolist()
        for p, name in enumerate(self.procedure_names):
            blocks = []
            for b in range(bounds[p], bounds[p + 1]):
                view = _BlockView.__new__(_BlockView)
                view.__dict__.update(
                    name=self.names[b],
                    taken_target=self.taken_targets[b],
                    fallthrough=self.fallthroughs[b],
                    taken_bias=self.biases[b],
                    backward=self.backward[b],
                    indirect_targets=list(self.indirect_targets[b]),
                    _source=(self, b),
                )
                blocks.append(view)
            procedures.append((name, blocks))
        return procedures

    # -- validation ---------------------------------------------------------------

    def validate(self) -> ResolvedEdges:
        """Check every block and edge invariant; return the edges as ids.

        Block names must be unique.  Per block, in this order: only the
        last instruction may be a CTI; a conditional branch needs both
        edges, a register-indirect jump a dynamic target and a direct
        jump a taken target; the bias is a probability; every taken and
        indirect target names a block; the fall-through names a block
        and, unless the block ends in a call, is the next block of its
        procedure.  The first violation in layout order raises
        :class:`~repro.errors.ConfigurationError`.
        """
        index: Dict[str, int] = dict(zip(self.names, range(len(self.names))))
        if len(index) < len(self.names):
            seen = set()
            for name in self.names:
                if name in seen:
                    raise ConfigurationError(
                        f"duplicate block name {name!r} across procedures"
                    )
                seen.add(name)
        get = index.get
        taken_ids = np.array(
            [-1 if t is None else get(t, UNKNOWN_BLOCK) for t in self.taken_targets],
            dtype=np.int64,
        )
        fall_ids = np.array(
            [-1 if f is None else get(f, UNKNOWN_BLOCK) for f in self.fallthroughs],
            dtype=np.int64,
        )
        counts = np.fromiter(
            (len(t) for t in self.indirect_targets), dtype=np.int64, count=len(index)
        )
        indirect_offsets = np.zeros(len(index) + 1, dtype=np.int64)
        np.cumsum(counts, out=indirect_offsets[1:])
        flat = np.fromiter(
            (get(t, UNKNOWN_BLOCK) for targets in self.indirect_targets for t in targets),
            dtype=np.int64,
            count=int(indirect_offsets[-1]),
        )

        n = len(index)
        blocks = np.arange(n)
        is_call = self.last_row(LINKS[self.rows[0]], False)
        unknown_indirect = np.zeros(n, dtype=np.bool_)
        unknown_indirect[np.repeat(blocks, counts)[flat == UNKNOWN_BLOCK]] = True
        procedure_of = np.repeat(
            np.arange(len(self.procedure_names)), np.diff(self.procedure_starts)
        )
        procedure_end = self.procedure_starts[1:][procedure_of]

        def unknown_target(b: int) -> str:
            target = self.taken_targets[b]
            if taken_ids[b] != UNKNOWN_BLOCK:
                target = next(t for t in self.indirect_targets[b] if t not in index)
            return f"block {self.names[b]!r} targets unknown block {target!r}"

        self._raise_first(
            self._block_checks(taken_ids == -1, fall_ids == -1)
            + [
                ((taken_ids == UNKNOWN_BLOCK) | unknown_indirect, unknown_target),
                (
                    fall_ids == UNKNOWN_BLOCK,
                    lambda b: f"block {self.names[b]!r} falls through to unknown "
                    f"block {self.fallthroughs[b]!r}",
                ),
                (
                    (fall_ids >= 0)
                    & ~is_call
                    & ((fall_ids != blocks + 1) | (blocks + 1 >= procedure_end)),
                    lambda b: f"block {self.names[b]!r} fall-through "
                    f"{self.fallthroughs[b]!r} is not the next block in layout order",
                ),
            ]
        )
        return ResolvedEdges(taken_ids, fall_ids, indirect_offsets, flat.astype(np.int32))

    def validate_blocks(self) -> None:
        """The block-local checks of :meth:`validate` (no edge checks)."""
        self._raise_first(
            self._block_checks(
                np.array([t is None for t in self.taken_targets], dtype=np.bool_),
                np.array([f is None for f in self.fallthroughs], dtype=np.bool_),
            )
        )

    def last_row(self, values: np.ndarray, empty) -> np.ndarray:
        """Each block's entry of ``values`` (one per row) at its last row,
        ``empty`` for a block without rows."""
        lengths = np.diff(self.starts)
        last = np.maximum(self.starts[1:] - 1, 0)
        if not len(values):
            return np.full(len(lengths), empty)
        return np.where(lengths > 0, values[last], empty)

    def _block_checks(
        self, no_taken: np.ndarray, no_fall: np.ndarray
    ) -> List[Tuple[np.ndarray, Callable[[int], str]]]:
        """The block-local invariants, as ``(failing blocks, message)``
        pairs; ``no_taken``/``no_fall`` mark the blocks without a taken
        target / fall-through."""
        n = len(self.names)
        kinds = KIND_OF[self.rows[0]]
        lengths = np.diff(self.starts)
        block_of_row = np.repeat(np.arange(n), lengths)
        is_last_row = np.zeros(len(kinds), dtype=np.bool_)
        is_last_row[self.starts[1:][lengths > 0] - 1] = True
        misplaced_rows = IS_CTI[kinds] & ~is_last_row
        misplaced = np.bincount(block_of_row[misplaced_rows], minlength=n) > 0
        last_kind = self.last_row(kinds, -1)
        biases = np.array(self.biases, dtype=np.float64)

        def misplaced_cti(b: int) -> str:
            start = int(self.starts[b])
            row = start + int(np.flatnonzero(misplaced_rows[start:self.starts[b + 1]])[0])
            opcode = OPCODES[int(self.rows[0][row])]
            return f"block {self.names[b]!r}: CTI {opcode.value} not in terminal position"

        return [
            (misplaced, misplaced_cti),
            (
                (last_kind == BRANCH) & (no_taken | no_fall),
                lambda b: f"block {self.names[b]!r}: conditional branch needs both edges",
            ),
            (
                (last_kind == JUMP_REGISTER) & ~no_taken,
                lambda b: f"block {self.names[b]!r}: register-indirect jump target "
                "must be dynamic (taken_target=None)",
            ),
            (
                (last_kind == JUMP) & no_taken,
                lambda b: f"block {self.names[b]!r}: jump needs a taken target",
            ),
            (
                ~((biases >= 0.0) & (biases <= 1.0)),
                lambda b: f"block {self.names[b]!r}: taken_bias "
                f"{self.biases[b]} not in [0, 1]",
            ),
        ]

    @staticmethod
    def _raise_first(checks: List[Tuple[np.ndarray, Callable[[int], str]]]) -> None:
        """Raise the first failing check of the first block that fails one."""
        failing = [np.flatnonzero(mask) for mask, _ in checks]
        firsts = [int(f[0]) for f in failing if len(f)]
        if not firsts:
            return
        block = min(firsts)
        for (mask, message), _ in zip(checks, failing):
            if mask[block]:
                raise ConfigurationError(message(block))
