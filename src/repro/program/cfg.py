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
from repro.isa.opcodes import INFO_BY_VALUE
from repro.program.basic_block import BasicBlock

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


@dataclass
class Program:
    """A whole program: procedures plus a global block namespace.

    Attributes:
        name: Program (benchmark) name.
        procedures: In layout order; the first is the entry procedure.
        text_base: Byte address at which the canonical code is laid out.
    """

    name: str
    procedures: List[Procedure] = field(default_factory=list)
    text_base: int = 0x0040_0000  # conventional MIPS text segment base

    def __post_init__(self) -> None:
        self._block_map: Optional[Dict[str, BasicBlock]] = None

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
        return sum(p.instruction_count for p in self.procedures)

    def validate(self) -> None:
        """Validate every block and every edge of the program."""
        block_map = self.block_map
        for proc in self.procedures:
            blocks = proc.blocks
            for i, block in enumerate(blocks):
                block.validate()
                taken_target = block.taken_target
                for succ in (
                    [taken_target, *block.indirect_targets]
                    if taken_target
                    else block.indirect_targets
                ):
                    if succ not in block_map:
                        raise ConfigurationError(
                            f"block {block.name!r} targets unknown block {succ!r}"
                        )
                fallthrough = block.fallthrough
                if fallthrough is not None:
                    if fallthrough not in block_map:
                        raise ConfigurationError(
                            f"block {block.name!r} falls through to unknown "
                            f"block {fallthrough!r}"
                        )
                    # Fall-through must be the next block in layout order
                    # within the same procedure, except after a call (jal /
                    # jalr), where the fall-through is the return
                    # continuation and may be anywhere.  Only calls link.
                    instructions = block.instructions
                    is_call = (
                        bool(instructions)
                        and INFO_BY_VALUE[instructions[-1].opcode._value_].links
                    )
                    if not is_call:
                        if i + 1 >= len(blocks) or (
                            blocks[i + 1].name != fallthrough
                        ):
                            raise ConfigurationError(
                                f"block {block.name!r} fall-through "
                                f"{fallthrough!r} is not the next block "
                                "in layout order"
                            )
