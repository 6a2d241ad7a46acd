"""Control-flow graphs over WVM functions.

Used by the watermark placement logic (finding insertion sites) and
by several attacks (basic-block reordering, block splitting); loop
analysis runs :mod:`repro.core.loops` over ``{name: block.successors}``.
Blocks are half-open index ranges over ``Function.code``; a block's
*name* is the label that leads it, or a synthetic name for
fall-through leaders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .instructions import (
    CONDITIONAL_BRANCHES,
    Instruction,
    UNCONDITIONAL_TRANSFERS,
)
from .program import Function


@dataclass
class BasicBlock:
    """A maximal straight-line region of a function.

    ``start``/``end`` are indices into ``Function.code`` (half-open).
    ``name`` is the leading label, or ``"@<index>"`` when the block
    starts without one.
    """

    name: str
    start: int
    end: int
    successors: List[str] = field(default_factory=list)

    def instructions(self, fn: Function) -> List[Instruction]:
        return [i for i in fn.code[self.start:self.end] if not i.is_label]

    def terminator(self, fn: Function) -> Optional[Instruction]:
        """The block's last real instruction, if any."""
        for instr in reversed(fn.code[self.start:self.end]):
            if not instr.is_label:
                return instr
        return None


@dataclass
class CFG:
    """Control-flow graph of one function."""

    function: Function
    blocks: Dict[str, BasicBlock]
    order: List[str]  # block names in code order
    entry: str

    def successors(self, name: str) -> List[str]:
        return self.blocks[name].successors


def build_cfg(fn: Function) -> CFG:
    """Construct the CFG of ``fn``.

    Leaders: index 0, every label, and every instruction following a
    branch or unconditional transfer.
    """
    code = fn.code
    labels = fn.labels()
    leaders: Set[int] = {0} if code else set()
    for idx, instr in enumerate(code):
        if instr.is_label:
            leaders.add(idx)
        elif (
            instr.op in CONDITIONAL_BRANCHES
            or instr.op in UNCONDITIONAL_TRANSFERS
        ):
            if idx + 1 < len(code):
                leaders.add(idx + 1)

    ordered = sorted(leaders)
    names: Dict[int, str] = {}
    for idx in ordered:
        instr = code[idx]
        names[idx] = instr.arg if instr.is_label else f"@{idx}"

    blocks: Dict[str, BasicBlock] = {}
    order: List[str] = []
    for pos, start in enumerate(ordered):
        end = ordered[pos + 1] if pos + 1 < len(ordered) else len(code)
        name = names[start]
        block = BasicBlock(name, start, end)
        blocks[name] = block
        order.append(name)

    def block_of_label(label_name: str) -> str:
        idx = labels[label_name]
        # A label is always a leader, so it names its block.
        return names[idx]

    for pos, name in enumerate(order):
        block = blocks[name]
        term = block.terminator(fn)
        next_name = order[pos + 1] if pos + 1 < len(order) else None
        if term is None:
            if next_name is not None:
                block.successors.append(next_name)
            continue
        if term.op in CONDITIONAL_BRANCHES:
            block.successors.append(block_of_label(term.arg))
            if next_name is not None:
                block.successors.append(next_name)
        elif term.op == "goto":
            block.successors.append(block_of_label(term.arg))
        elif term.op in ("ret", "halt"):
            pass
        else:
            if next_name is not None:
                block.successors.append(next_name)

    entry = order[0] if order else ""
    return CFG(fn, blocks, order, entry)
