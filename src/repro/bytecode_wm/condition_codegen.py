"""Condition-based watermark code generation (paper Section 3.2.2).

This generator "inserts sequences of predicates and branches at
locations that are executed multiple times on the secret input
sequence. The first execution of the inserted code on the input
sequence identifies which branch direction should generate which bit,
and the remaining executions generate sequences of bits."

Predicates are built from *existing program variables*, using the
variable values saved during tracing — that is the whole point of
snapshotting at trace time: the inserted conditions look like real
program logic ("making it difficult for an attacker to know that
these statements are safe to remove").

For a site whose first two executions have local snapshots ``v1`` and
``v2``:

* a bit of 1 needs a predicate whose truth differs between the two
  executions — any variable with ``v1[x] != v2[x]`` compared for
  equality against its first value;
* a bit of 0 needs a predicate with equal truth — any variable
  compared against its first value when it is *stable* across both
  executions.

The taken arm of each predicate increments a scratch ``tmp`` local,
and the block ends with the paper's literal ``if (PF) live += tmp``
opaquely-false-guarded live update.

If the site lacks a changing or a stable variable the generator
raises :class:`CodegenError` and the embedder falls back to the loop
generator.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..core.errors import CodegenError
from ..vm.instructions import Instruction, ins
from ..vm.instructions import label as label_ins
from ..vm.program import Function
from .opaque import opaquely_false_guard

#: (opcode, truth at first execution) choices for a CHANGING variable x
#: with first value c: predicates over (x, c) whose truth flips between
#: executions whenever the value changes.
_EQ_STYLE = ("if_icmpeq", "if_icmpne")


def find_predicate_variables(
    snapshots: Sequence[Tuple[int, ...]],
) -> Tuple[List[int], List[int]]:
    """Classify local slots at a multiply-executed site.

    ``snapshots`` are the site's locals per execution, in order.
    Returns ``(changing, stable)``: slots whose values differ/agree
    between the first two executions. Only the first two snapshots
    matter — they are the priming and the generating execution.
    """
    if len(snapshots) < 2:
        raise CodegenError("site executes fewer than twice")
    first, second = snapshots[0], snapshots[1]
    width = min(len(first), len(second))
    changing = [i for i in range(width) if first[i] != second[i]]
    stable = [i for i in range(width) if first[i] == second[i]]
    return changing, stable


def generate_condition_piece(
    fn: Function,
    bits: Sequence[int],
    snapshots: Sequence[Tuple[int, ...]],
    live_slot: Optional[int],
    rng: random.Random,
) -> List[Instruction]:
    """Code emitting ``bits`` on the second execution of the site.

    The first execution primes every branch (contributing one 0 per
    bit, like any first occurrence); the second execution walks the
    same chain and its follower choices spell the ciphertext
    contiguously.
    """
    if not all(b in (0, 1) for b in bits):
        raise CodegenError("piece bits must be 0/1")
    changing, stable = find_predicate_variables(snapshots)
    if any(bits) and not changing:
        raise CodegenError("no variable changes between executions")
    if not all(bits) and not stable:
        raise CodegenError("no variable is stable across executions")

    first = snapshots[0]
    tmp = fn.alloc_local()
    labels = fn.fresh_labels(2 * len(bits) + 1, "wmcond")
    guard_skip = labels[0]
    bit_labels = labels[1:]

    code: List[Instruction] = [ins("const", 0), ins("store", tmp)]
    for k, bit in enumerate(bits):
        taken_label = bit_labels[2 * k]
        join_label = bit_labels[2 * k + 1]
        if bit:
            slot = rng.choice(changing)
        else:
            slot = rng.choice(stable)
        opcode = rng.choice(_EQ_STYLE)
        # `x == first(x)` is true on execution 1; for a changing slot it
        # is false on execution 2 (bit 1); for a stable slot it stays
        # true (bit 0). `!=` flips the direction but not the bit.
        code.extend([
            ins("load", slot),
            ins("const", first[slot]),
            ins(opcode, taken_label),
            ins("goto", join_label),
            label_ins(taken_label),
            ins("iinc", tmp, 1),
            label_ins(join_label),
        ])
    if live_slot is not None:
        code.extend(
            opaquely_false_guard(
                tmp,
                [ins("load", tmp), ins("load", live_slot), ins("add"),
                 ins("store", live_slot)],
                guard_skip,
                rng,
            )
        )
    return code


def condition_piece_byte_size(bit_count: int = 64) -> int:
    """Static byte cost of one condition-generated piece."""
    per_bit = 2 + 5 + 3 + 3 + 3  # load, const, branch, goto, iinc
    return 5 + 2 + per_bit * bit_count + 40
