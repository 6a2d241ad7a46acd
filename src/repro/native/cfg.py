"""Control-flow graph over N32 binaries (PLTO's CFG stage).

    "The system reads in statically linked executables, disassembles
    the input binary, and constructs a control flow graph..."

Blocks are address ranges; edges follow direct transfers (conditional
targets, fall-throughs, direct jumps). Calls are treated as
fall-through (the callee returns); indirect transfers contribute no
edges (the classic conservative gap that makes binary rewriting hard
— and that the tamper-proofing exploits).

Used by the native watermarker for the paper's tamper-proofing
candidate criterion: "a branch is considered to be a candidate if it
occurs in an infrequently executed portion of the code and is not
part of a loop" — loop membership is computed here, statically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core import loops
from .image import BinaryImage
from .isa import CONDITIONAL_JUMPS, Imm, NInstruction

_FLOW_BREAKERS = frozenset({"jmp", "jmp_a", "jmp_r", "ret", "halt"})


@dataclass
class NBlock:
    """A basic block: [start, end) addresses plus successor starts."""

    start: int
    end: int
    successors: List[int] = field(default_factory=list)
    instructions: List[Tuple[int, NInstruction]] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[NInstruction]:
        return self.instructions[-1][1] if self.instructions else None


@dataclass
class NativeCFG:
    """Whole-text CFG of a binary image."""

    image: BinaryImage
    blocks: Dict[int, NBlock]
    order: List[int]
    entry: int

    def block_of(self, addr: int) -> Optional[int]:
        """Start address of the block containing ``addr``."""
        return self._containing.get(addr)

    def __post_init__(self):
        self._containing: Dict[int, int] = {}
        for start, block in self.blocks.items():
            for a, _i in block.instructions:
                self._containing[a] = start

    def _successors(self) -> Dict[int, List[int]]:
        return {start: b.successors for start, b in self.blocks.items()}

    def back_edges(self) -> List[Tuple[int, int]]:
        """(source, target) block starts forming DFS back edges, walking
        from the entry and then from every block not yet reached."""
        return loops.back_edges(
            self._successors(), [self.entry] + self.order
        )

    def loop_blocks(self) -> Set[int]:
        """Blocks participating in some natural loop."""
        preds = loops.predecessors(self._successors())
        in_loop: Set[int] = set()
        for latch, header in self.back_edges():
            in_loop |= loops.natural_loop(preds, latch, header)
        return in_loop

    def dominators(self) -> Dict[int, Set[int]]:
        """Dominator sets per block (iterative dataflow, from entry).

        Section 4.3 frames tamper-proofing placement in dominator
        terms: "We begin by taking an unconditional branch at a
        location l such that begin dominates l" - a branch the
        watermark region provably executes before. Blocks unreachable
        from the entry get an empty set.
        """
        preds = loops.predecessors(self._successors())
        # Reachable blocks only.
        reach: Set[int] = set()
        work = [self.entry]
        while work:
            n = work.pop()
            if n in reach:
                continue
            reach.add(n)
            work.extend(self.blocks[n].successors)

        dom: Dict[int, Set[int]] = {
            b: (set(reach) if b != self.entry else {self.entry})
            for b in reach
        }
        changed = True
        order = [b for b in self.order if b in reach]
        while changed:
            changed = False
            for b in order:
                if b == self.entry:
                    continue
                pred_doms = [dom[p] for p in preds[b] if p in reach]
                if pred_doms:
                    new = set.intersection(*pred_doms) | {b}
                else:
                    new = {b}
                if new != dom[b]:
                    dom[b] = new
                    changed = True
        for b in self.blocks:
            dom.setdefault(b, set())
        return dom

    def dominates(self, a_addr: int, b_addr: int) -> bool:
        """Whether the block holding ``a_addr`` dominates ``b_addr``'s."""
        a_block = self.block_of(a_addr)
        b_block = self.block_of(b_addr)
        if a_block is None or b_block is None:
            return False
        return a_block in self.dominators().get(b_block, set())

    def loop_instruction_addresses(self) -> Set[int]:
        """Addresses of every instruction inside some loop."""
        out: Set[int] = set()
        for start in self.loop_blocks():
            for addr, _instr in self.blocks[start].instructions:
                out.add(addr)
        return out


def build_native_cfg(
    image: BinaryImage,
    listing: Optional[Sequence[Tuple[int, NInstruction]]] = None,
) -> NativeCFG:
    """Disassemble and construct the whole-text CFG.

    ``listing`` is ``image.disassemble()`` when the caller already has
    it (the embedder lifts the same listing).
    """
    if listing is None:
        listing = image.disassemble()
    addresses = [a for a, _ in listing]
    addr_set = set(addresses)
    by_addr = dict(listing)

    leaders: Set[int] = set()
    if addresses:
        leaders.add(addresses[0])
    leaders.add(image.entry)
    for addr, instr in listing:
        m = instr.mnemonic
        if m in CONDITIONAL_JUMPS or m in ("jmp", "call"):
            dest = instr.operands[0]
            if isinstance(dest, Imm) and dest.value in addr_set:
                leaders.add(dest.value)
        if m in _FLOW_BREAKERS or m in CONDITIONAL_JUMPS or m == "call":
            nxt = addr + instr.length
            if nxt in addr_set:
                leaders.add(nxt)

    ordered = sorted(leaders)
    blocks: Dict[int, NBlock] = {}
    for pos, start in enumerate(ordered):
        end = ordered[pos + 1] if pos + 1 < len(ordered) else (
            image.text_end
        )
        block = NBlock(start, end)
        addr = start
        while addr < end:
            instr = by_addr[addr]
            block.instructions.append((addr, instr))
            addr += instr.length
        blocks[start] = block

    for pos, start in enumerate(ordered):
        block = blocks[start]
        term = block.terminator
        nxt = ordered[pos + 1] if pos + 1 < len(ordered) else None
        if term is None:
            if nxt is not None:
                block.successors.append(nxt)
            continue
        m = term.mnemonic
        if m in CONDITIONAL_JUMPS:
            dest = term.operands[0]
            if isinstance(dest, Imm) and dest.value in blocks:
                block.successors.append(dest.value)
            if nxt is not None:
                block.successors.append(nxt)
        elif m == "jmp":
            dest = term.operands[0]
            if isinstance(dest, Imm) and dest.value in blocks:
                block.successors.append(dest.value)
        elif m == "call":
            # The callee returns: fall-through edge. (Not an edge to
            # the callee: this is a layout CFG, not a call graph.)
            if nxt is not None:
                block.successors.append(nxt)
        elif m in ("jmp_a", "jmp_r", "ret", "halt"):
            pass  # indirect / terminal: no static successors
        else:
            if nxt is not None:
                block.successors.append(nxt)

    entry_block = blocks.get(image.entry)
    entry = image.entry if entry_block is not None else ordered[0]
    return NativeCFG(image, blocks, ordered, entry)
