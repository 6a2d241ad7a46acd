"""Code-layout attacks: block reordering, splitting, copying.

These are the classic semantics-preserving layout transformations a
binary obfuscator applies (SandMark ships all three). The trace
bit-string is *defined* to be invariant under them (Section 3.1):
branch identity is the instruction itself, not its position, and
followers are dynamic. Block copying is the interesting one — it
duplicates branch instructions, so executions split between the copies
and each copy primes its own follower; this perturbs the bit-string
only locally and the redundant pieces absorb it.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ...vm.cfg import build_cfg
from ...vm.instructions import (
    CONDITIONAL_BRANCHES,
    UNCONDITIONAL_TRANSFERS,
    Instruction,
    ins,
)
from ...vm.instructions import label as label_ins
from ...vm.program import Function, Module
from ...vm.rewriter import rename_labels


def _normalized_blocks(fn: Function) -> List[List[Instruction]]:
    """Split code into blocks, each starting with a label and ending in
    an explicit transfer (goto/cond+goto/ret/halt).

    After normalization the block list may be permuted arbitrarily
    (except the entry stub, which stays first).
    """
    cfg = build_cfg(fn)
    # First pass: give every block a leading label.
    unnamed = [name for name in cfg.order if name.startswith("@")]
    block_labels = {name: name for name in cfg.order}
    block_labels.update(zip(unnamed, fn.fresh_labels(len(unnamed), "blk")))

    blocks: List[List[Instruction]] = []
    for pos, name in enumerate(cfg.order):
        block = cfg.blocks[name]
        body = list(fn.code[block.start:block.end])
        # Ensure the leading label.
        if not (body and body[0].is_label):
            body.insert(0, label_ins(block_labels[name]))
        term = None
        for instr in reversed(body):
            if not instr.is_label:
                term = instr
                break
        next_name = cfg.order[pos + 1] if pos + 1 < len(cfg.order) else None
        falls_through = (
            term is None
            or (term.op not in UNCONDITIONAL_TRANSFERS
                and term.op not in CONDITIONAL_BRANCHES)
            or term.op in CONDITIONAL_BRANCHES
        )
        if falls_through:
            if next_name is None:
                # Only unreachable trailing code can fall off the end of
                # a verified function (e.g. a nop inserted after the
                # final ret by another attack); pin it with a halt.
                body.append(ins("halt"))
            else:
                body.append(ins("goto", block_labels[next_name]))
        blocks.append(body)
    return blocks


def reorder_blocks(
    module: Module, rng: Optional[random.Random] = None
) -> Module:
    """Shuffle every function's basic blocks (entry stub pinned first)."""
    rng = rng or random.Random(0)
    attacked = module.copy()
    for fn in attacked.functions.values():
        blocks = _normalized_blocks(fn)
        if len(blocks) <= 2:
            continue
        head, rest = blocks[0], blocks[1:]
        rng.shuffle(rest)
        fn.code = [i for block in [head] + rest for i in block]
    return attacked


def split_blocks(
    module: Module, count: int, rng: Optional[random.Random] = None
) -> Module:
    """Split straight-line runs with explicit goto-to-next bridges."""
    rng = rng or random.Random(0)
    attacked = module.copy()
    functions = sorted(attacked.functions.values(), key=lambda f: f.name)
    for n in range(count):
        fn = rng.choice(functions)
        spots = [
            idx for idx, instr in enumerate(fn.code)
            if not instr.is_label
            and instr.op not in UNCONDITIONAL_TRANSFERS
            and instr.op not in CONDITIONAL_BRANCHES
        ]
        if not spots:
            continue
        idx = rng.choice(spots) + 1
        bridge = fn.fresh_label(f"split{n}")
        fn.code[idx:idx] = [ins("goto", bridge), label_ins(bridge)]
    return attacked


def copy_blocks(
    module: Module, count: int, rng: Optional[random.Random] = None
) -> Module:
    """Basic block copying: clone labelled goto-terminated blocks and
    retarget one incoming branch to the clone."""
    rng = rng or random.Random(0)
    attacked = module.copy()
    functions = sorted(attacked.functions.values(), key=lambda f: f.name)
    for n in range(count):
        fn = rng.choice(functions)
        clone_spot = _cloneable_block(fn, rng)
        if clone_spot is None:
            continue
        start, end, old_label = clone_spot
        fresh = fn.fresh_label(f"copy{n}")
        # Clone with all *defined* labels renamed.
        body = fn.code[start:end]
        defined = [i.arg for i in body if i.is_label]
        mapping = {name: f"{fresh}_{k}" for k, name in enumerate(defined)}
        mapping[old_label] = fresh
        clone = rename_labels(body, mapping)
        fn.code.extend(clone)
        # Retarget one random incoming branch to the clone.
        incoming = [
            i for i in fn.code[:start] + fn.code[end:-len(clone) or None]
            if not i.is_label
            and i.op in CONDITIONAL_BRANCHES | {"goto"}
            and i.arg == old_label
            and i not in clone
        ]
        if incoming:
            rng.choice(incoming).arg = fresh
    return attacked


def _cloneable_block(
    fn: Function, rng: random.Random
) -> Optional[Tuple[int, int, str]]:
    """A (start, end, label) region: label..goto, safe to duplicate."""
    candidates = []
    labels = fn.labels()
    for name, idx in labels.items():
        end = idx + 1
        ok = False
        while end < len(fn.code):
            instr = fn.code[end]
            if instr.is_label:
                break
            end += 1
            if instr.op == "goto":
                ok = True
                break
            if instr.op in UNCONDITIONAL_TRANSFERS or instr.is_conditional:
                break
        if ok and end - idx <= 24:
            candidates.append((idx, end, name))
    if not candidates:
        return None
    return rng.choice(sorted(candidates))
