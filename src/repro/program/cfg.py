"""Procedures and whole programs.

A :class:`Program` is a list of :class:`Procedure` objects, each of which
holds its basic blocks in layout order.  Calls are
represented structurally: a block terminated by ``jal`` names the callee
procedure's entry block as its taken target and the return-continuation
block as its fall-through; the trace executor maintains the call stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.program.basic_block import BasicBlock
from repro.program.columns import ProgramColumns

__all__ = ["Procedure", "Program"]


@dataclass
class Procedure:
    """A named procedure: its blocks in layout order.

    The entry block is the first block.  ``jr $ra`` in any block returns to
    the caller's continuation.
    """

    name: str
    blocks: List[BasicBlock] = field(default_factory=list)

    @property
    def entry(self) -> str:
        if not self.blocks:
            raise ConfigurationError(f"procedure {self.name!r} has no blocks")
        return self.blocks[0].name

    @property
    def instruction_count(self) -> int:
        """Static instruction count of the procedure's canonical code."""
        return sum(len(b) for b in self.blocks)

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)


class Program:
    """A whole program: procedures plus a global block namespace.

    A hand-built program holds its :class:`Procedure` objects; the
    lowering reads them through :attr:`columns`.  A synthesized one is
    made by :meth:`from_columns` and holds only its columns: its
    procedures and blocks are read views, decoded when first read, whose
    instructions are decoded when a block's ``instructions`` is first
    read.

    Attributes:
        name: Program (benchmark) name.
        procedures: In layout order; the first is the entry procedure.
        text_base: Byte address at which the canonical code is laid out.
    """

    def __init__(
        self,
        name: str,
        procedures: Optional[List[Procedure]] = None,
        text_base: int = 0x0040_0000,  # conventional MIPS text segment base
    ) -> None:
        self.name = name
        self._procedures: Optional[List[Procedure]] = (
            [] if procedures is None else procedures
        )
        self.text_base = text_base
        self._columns: Optional[ProgramColumns] = None
        self._block_map: Optional[Dict[str, BasicBlock]] = None

    @classmethod
    def from_columns(cls, name: str, columns: ProgramColumns) -> "Program":
        """A program whose instructions and blocks are ``columns``."""
        program = cls(name)
        program._procedures = None
        program._columns = columns
        return program

    @property
    def procedures(self) -> List[Procedure]:
        if self._procedures is None:
            assert self._columns is not None
            self._procedures = [
                Procedure(name=name, blocks=blocks)
                for name, blocks in self._columns.decode()
            ]
        return self._procedures

    @property
    def columns(self) -> ProgramColumns:
        """The program's instruction rows and block table.

        A hand-built program's objects may change, so their columns are
        extracted on every read.
        """
        if self._columns is None:
            return ProgramColumns.from_procedures(self.procedures)
        return self._columns

    def _index(self) -> None:
        self._block_map = {}
        for proc in self.procedures:
            for block in proc.blocks:
                if block.name in self._block_map:
                    raise ConfigurationError(
                        f"duplicate block name {block.name!r} across procedures"
                    )
                self._block_map[block.name] = block

    @property
    def block_map(self) -> Dict[str, BasicBlock]:
        """Name -> block over all procedures (computed lazily, cached)."""
        if self._block_map is None:
            self._index()
        assert self._block_map is not None
        return self._block_map

    def block(self, name: str) -> BasicBlock:
        return self.block_map[name]

    @property
    def entry(self) -> str:
        """Entry block of the entry procedure."""
        if not self.procedures:
            raise ConfigurationError(f"program {self.name!r} has no procedures")
        return self.procedures[0].entry

    def blocks(self) -> Iterator[BasicBlock]:
        """All blocks in layout order."""
        for proc in self.procedures:
            yield from proc.blocks

    @property
    def static_instruction_count(self) -> int:
        """Static size of the canonical code, in instructions (= words)."""
        if self._columns is not None:
            return self._columns.instruction_count
        return sum(p.instruction_count for p in self.procedures)

    def validate(self) -> None:
        """Validate every block and every edge of the program
        (:meth:`~repro.program.columns.ProgramColumns.validate`)."""
        self.columns.validate()
