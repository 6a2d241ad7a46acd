"""Branch-function code generation (paper Sections 4.1 and 4.3, Figure 7).

The generated routine chain:

* ``bf_entry`` — saves flags and registers, delegates to a helper;
* ``bf_helper1`` — a dummy frame of random size (the paper's "stack
  frame sizes can be chosen randomly by the implementation");
* ``bf_helper2`` — the Figure 7 core: reads the hash input (the
  original return address) from a known stack depth, computes the
  perfect hash (multiply / shift / displacement-table lookup / xor /
  mask), xors ``T[h(k)]`` into the saved return address, and performs
  the tamper-proofing update of the lockdown record for this slot.

The helper-chain indirection is the paper's answer to "an observant
attacker can detect when the location containing the return address
happens to be the destination of an arithmetic (or move) instruction":
the function that is *called* never touches its own return address —
a helper reaches ``D`` words deep into the stack instead, where ``D``
depends on the randomly chosen helper frame size.

All numeric parameters are operands of fixed-length instructions, so
the routine can be emitted with placeholders first (to fix the text
layout) and re-emitted with final values without moving a byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..native.isa import Imm, Label, Mem, Reg, ni
from ..native.rewriter import TextItem

EAX, ECX, EDX = Reg("eax"), Reg("ecx"), Reg("edx")
ESP = Reg("esp")


@dataclass
class BranchFunctionSpec:
    """Everything the emitted code embeds as immediates."""

    mul: int = 1
    shift: int = 0
    g_mask: int = 0
    slot_mask: int = 0
    g_base: int = 0
    t_base: int = 0
    lock_base: int = 0
    helper_pad: int = 16  # PAD1; random multiple of 4

    @property
    def hash_input_depth(self) -> int:
        """Stack offset of the original return address inside helper2,
        after helper2's own three register saves.

        Layout (from esp up): eax ecx edx | ret_h1 | pad | ret_bf |
        eax ecx edx flags | k.
        """
        return 12 + 4 + self.helper_pad + 4 + 16


ENTRY_LABEL = "bf_entry"
_H1_LABEL = "bf_helper1"
_H2_LABEL = "bf_helper2"
_SKIP_LABEL = "bf_lock_skip"


def emit_branch_function(spec: BranchFunctionSpec) -> List[TextItem]:
    """The branch function and helpers as layout items.

    Re-emitting with a different spec (same ``helper_pad``) produces a
    byte-length-identical sequence.
    """
    d = spec.hash_input_depth
    items: List[TextItem] = [
        ("label", ENTRY_LABEL),
        ni("pushf"),
        ni("push", EDX),
        ni("push", ECX),
        ni("push", EAX),
        ni("call", Label(_H1_LABEL)),
        ni("pop", EAX),
        ni("pop", ECX),
        ni("pop", EDX),
        ni("popf"),
        ni("ret"),

        ("label", _H1_LABEL),
        ni("sub_ri", ESP, Imm(spec.helper_pad)),
        ni("call", Label(_H2_LABEL)),
        ni("add_ri", ESP, Imm(spec.helper_pad)),
        ni("ret"),

        ("label", _H2_LABEL),
        ni("push", EDX),
        ni("push", ECX),
        ni("push", EAX),
        # --- perfect hash of the return address (Fig. 7 core) ---
        ni("mov_rm", EAX, Mem(base="esp", disp=d)),
        ni("mov_rr", EDX, EAX),
        ni("and_ri", EDX, Imm(spec.g_mask)),
        ni("mov_rx", ECX, Mem(disp=spec.g_base, index="edx")),
        ni("imul_rri", EAX, EAX, Imm(spec.mul)),
        ni("shr_ri", EAX, Imm(spec.shift)),
        ni("xor_rr", EAX, ECX),
        ni("and_ri", EAX, Imm(spec.slot_mask)),
        # --- return address fix ---
        ni("mov_rr", EDX, EAX),
        ni("mov_rx", ECX, Mem(disp=spec.t_base, index="eax")),
        ni("xor_mr", Mem(base="esp", disp=d), ECX),
        # --- tamper-proofing: update this slot's lockdown record ---
        ni("shl_ri", EDX, Imm(3)),
        ni("mov_ri", ECX, Imm(spec.lock_base)),
        ni("add_rr", ECX, EDX),
        ni("mov_rm", EAX, Mem(base="ecx", disp=0)),
        ni("cmp_ri", EAX, Imm(0)),
        ni("je", Label(_SKIP_LABEL)),
        ni("mov_rm", EDX, Mem(base="ecx", disp=4)),
        ni("xor_rr", EAX, EDX),
        ni("mov_mr", Mem(base="ecx", disp=0), EAX),
        ni("mov_mi", Mem(base="ecx", disp=4), Imm(0)),
        ("label", _SKIP_LABEL),
        ni("pop", EAX),
        ni("pop", ECX),
        ni("pop", EDX),
        ni("ret"),
    ]
    return items


def branch_function_byte_size(spec: BranchFunctionSpec) -> int:
    """Encoded size of the emitted routine chain."""
    return sum(
        item.length for item in emit_branch_function(spec)
        if not isinstance(item, tuple)
    )
