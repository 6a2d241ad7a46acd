"""Loop peeling (unroll-by-one) attack.

"Loop unrolling" is in the paper's Section 1 list of transformations
an attacker may apply. Peeling one iteration is the distortive core
of unrolling: the first trip through the loop executes *duplicated*
branch instructions (fresh static identities that prime their own
followers), while later trips run the originals — the same local
bit-string perturbation as basic-block copying, applied to whole
natural loops.

Implementation: normalize the function into explicitly-terminated,
label-led blocks (each single-entry: nothing can jump into the middle
of one), build the label-level successor graph, pick a DFS back edge
``latch -> header``, clone every block of the natural loop with fresh
labels, retarget loop-entry edges to the cloned header, and point the
clone's return-to-header edges at the original header so iteration
two onward runs the original body.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ...core import loops
from ...vm.instructions import BRANCHING, Instruction
from ...vm.program import Function, Module
from ...vm.rewriter import rename_labels
from ...vm.verifier import is_verifiable
from .reordering import _normalized_blocks

_MAX_LOOP_BLOCKS = 12

Block = List[Instruction]


def _label_of(block: Block) -> str:
    assert block and block[0].is_label
    return block[0].arg


def _successors(block: Block) -> List[str]:
    """All branch-target labels of a normalized block.

    Normalized blocks have no fall-through: every exit is an explicit
    label operand (conditional targets, final goto) or a ret/halt.
    """
    return [
        instr.arg for instr in block
        if not instr.is_label and instr.op in BRANCHING
    ]


def peel_one_loop(module: Module, fn: Function,
                  rng: random.Random) -> bool:
    """Peel one natural loop of ``fn``; returns success.

    The module is modified only on success (verified); failures leave
    it untouched.
    """
    saved_code = list(fn.code)
    try:
        normalized = _normalized_blocks(fn)
    except ValueError:
        return False
    if not normalized:
        return False
    # Work on copies: retargeting entry edges must not leak into the
    # original instructions if verification later rejects the peel.
    blocks = [[instr.copy() for instr in b] for b in normalized]
    by_label = {_label_of(b): b for b in blocks}
    # The label graph; a branch to a label that leads no block has no
    # edge.
    graph = {
        name: [s for s in _successors(b) if s in by_label]
        for name, b in by_label.items()
    }
    edges = loops.back_edges(graph, [_label_of(blocks[0])])
    if not edges:
        return False
    latch, header = rng.choice(sorted(edges))
    body = loops.natural_loop(loops.predecessors(graph), latch, header)
    if len(body) > _MAX_LOOP_BLOCKS:
        return False

    mapping = {
        name: fn.fresh_label(f"peel_{name}") for name in sorted(body)
    }
    clones: List[Block] = [
        rename_labels(by_label[name], mapping) for name in sorted(body)
    ]
    # Clone branches that re-enter the loop head continue in the
    # ORIGINAL loop: iteration one runs the clone, the rest run the
    # original body.
    for clone in clones:
        for instr in clone:
            if not instr.is_label and instr.op in BRANCHING \
                    and instr.arg == mapping[header]:
                instr.arg = header
    # Loop-entry edges (from outside the body) go to the clone first.
    for b in blocks:
        if _label_of(b) in body:
            continue
        for instr in b:
            if not instr.is_label and instr.op in BRANCHING \
                    and instr.arg == header:
                instr.arg = mapping[header]

    flat: List[Instruction] = []
    for b in blocks:
        flat.extend(b)
    for clone in clones:
        flat.extend(clone)
    fn.code = flat
    if not is_verifiable(module):
        fn.code = saved_code
        return False
    return True


def peel_loops(
    module: Module, count: int, rng: Optional[random.Random] = None
) -> Module:
    """Attack entry point: peel up to ``count`` random loops."""
    rng = rng or random.Random(0)
    attacked = module.copy()
    functions = sorted(attacked.functions.values(), key=lambda f: f.name)
    peeled = 0
    attempts = 0
    while peeled < count and attempts < count * 8:
        attempts += 1
        fn = rng.choice(functions)
        if peel_one_loop(attacked, fn, rng):
            peeled += 1
    return attacked
