"""N32 instruction-set architecture.

N32 is the byte-addressed register machine standing in for IA-32 (see
DESIGN.md). It keeps every property the paper's Section 4 relies on:

* instructions live at byte addresses and have **variable encoded
  lengths** (call rel32 = 5 bytes, jcc = 6, push reg = 1, ...), so
  no-op insertion moves addresses and a 5-byte ``call`` can be
  overwritten in place by a 5-byte ``jmp`` (attack 4 of §5.2.2);
* ``call`` pushes the return address on the stack and ``ret`` pops it,
  so a branch function can ``xchg``/``xor`` its return address through
  ``[esp+disp]`` exactly like Figure 7;
* direct control transfers are **relative**; data-section constants
  (the XOR table, lockdown cells) hold **absolute** addresses — the
  asymmetry that makes address-changing transformations break
  tamper-proofed binaries;
* eight IA-32-named registers, a flags word saved/restored by
  ``pushf``/``popf``.

Encodings are this simulator's own (an opcode byte plus packed
operands) with lengths chosen to match the IA-32 flavor; the encoder
and decoder in :mod:`repro.native.encoding` are exact inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

REGISTERS = ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi")
REG_INDEX: Dict[str, int] = {name: i for i, name in enumerate(REGISTERS)}

_MASK32 = 0xFFFFFFFF


def wrap32(v: int) -> int:
    """Wrap to unsigned 32-bit (register width)."""
    return v & _MASK32


def signed32(v: int) -> int:
    """Interpret a 32-bit value as signed."""
    v &= _MASK32
    return v - (1 << 32) if v & 0x80000000 else v


@dataclass(frozen=True)
class Reg:
    name: str

    def __post_init__(self):
        if self.name not in REG_INDEX:
            raise ValueError(f"unknown register {self.name!r}")

    @property
    def code(self) -> int:
        return REG_INDEX[self.name]

    def __repr__(self):
        return f"%{self.name}"


@dataclass(frozen=True)
class Imm:
    value: int

    def __repr__(self):
        return f"${self.value:#x}" if self.value >= 10 else f"${self.value}"


@dataclass(frozen=True)
class Mem:
    """``[base + disp]`` when ``base`` is set, else absolute ``[disp]``.

    ``index`` adds a scaled register (``[disp + index*4]``), used by
    the perfect-hash table lookup.
    """

    base: Optional[str] = None
    disp: int = 0
    index: Optional[str] = None

    def __post_init__(self):
        if self.base is not None and self.base not in REG_INDEX:
            raise ValueError(f"unknown base register {self.base!r}")
        if self.index is not None and self.index not in REG_INDEX:
            raise ValueError(f"unknown index register {self.index!r}")

    def __repr__(self):
        if self.base is not None:
            return f"{self.disp:#x}(%{self.base})"
        if self.index is not None:
            return f"{self.disp:#x}(,%{self.index},4)"
        return f"[{self.disp:#x}]"


@dataclass(frozen=True)
class Label:
    """Symbolic address operand, resolved at layout time."""

    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class SymMem:
    """Symbolic absolute memory operand, resolved at layout time:
    ``[symbol + offset]`` or ``[symbol + index*4]``."""

    symbol: str
    index: Optional[str] = None
    offset: int = 0


#: mnemonic -> (operand signature, encoded byte length)
#: Signatures: r = register, i = imm32, m = [base+disp32],
#: a = absolute [addr32], x = [addr32 + idx*4], s8 = imm8 shift count,
#: rel = rel32 branch target, none = no operands.
INSTRUCTION_FORMS: Dict[str, Tuple[Tuple[str, ...], int]] = {
    "nop": ((), 1),
    "halt": ((), 1),
    "ret": ((), 1),
    "pushf": ((), 1),
    "popf": ((), 1),
    "push": (("r",), 1),
    "pop": (("r",), 1),
    "pushi": (("i",), 5),
    "mov_ri": (("r", "i"), 5),
    "mov_rr": (("r", "r"), 2),
    "mov_rm": (("r", "m"), 6),
    "mov_mr": (("m", "r"), 6),
    "mov_ra": (("r", "a"), 6),
    "mov_ar": (("a", "r"), 6),
    "mov_mi": (("m", "i"), 10),
    "mov_rx": (("r", "x"), 7),
    "lea": (("r", "m"), 6),
    "xchg_rm": (("r", "m"), 6),
    "xchg_rr": (("r", "r"), 2),
    # ALU register-register
    "add_rr": (("r", "r"), 2),
    "sub_rr": (("r", "r"), 2),
    "and_rr": (("r", "r"), 2),
    "or_rr": (("r", "r"), 2),
    "xor_rr": (("r", "r"), 2),
    "cmp_rr": (("r", "r"), 2),
    "test_rr": (("r", "r"), 2),
    "imul_rr": (("r", "r"), 3),
    # ALU register-immediate
    "add_ri": (("r", "i"), 6),
    "sub_ri": (("r", "i"), 6),
    "and_ri": (("r", "i"), 6),
    "or_ri": (("r", "i"), 6),
    "xor_ri": (("r", "i"), 6),
    "cmp_ri": (("r", "i"), 6),
    # memory-destination ALU
    "add_mr": (("m", "r"), 6),
    "sub_mr": (("m", "r"), 6),
    "xor_mr": (("m", "r"), 6),
    # register-from-memory ALU
    "add_rm": (("r", "m"), 6),
    "xor_rm": (("r", "m"), 6),
    "cmp_rm": (("r", "m"), 6),
    "cmp_mi": (("m", "i"), 10),
    # shifts / unary
    "shl_ri": (("r", "s8"), 3),
    "shr_ri": (("r", "s8"), 3),
    "sar_ri": (("r", "s8"), 3),
    "shl_rr": (("r", "r"), 2),
    "shr_rr": (("r", "r"), 2),
    "sar_rr": (("r", "r"), 2),
    "neg": (("r",), 2),
    "not": (("r",), 2),
    "imul_rri": (("r", "r", "i"), 6),
    "idiv": (("r",), 2),
    # control transfer
    "jmp": (("rel",), 5),
    "call": (("rel",), 5),
    "jmp_a": (("a",), 6),     # indirect through a memory cell
    "call_a": (("a",), 6),
    "jmp_r": (("r",), 2),
    "je": (("rel",), 6),
    "jne": (("rel",), 6),
    "jl": (("rel",), 6),
    "jle": (("rel",), 6),
    "jg": (("rel",), 6),
    "jge": (("rel",), 6),
    # system interface
    "sys_out": ((), 2),       # print signed value of eax
    "sys_in": ((), 2),        # eax = next secret-input value
}

CONDITIONAL_JUMPS = frozenset({"je", "jne", "jl", "jle", "jg", "jge"})
JCC_INVERSES = {
    "je": "jne", "jne": "je", "jl": "jge", "jge": "jl",
    "jle": "jg", "jg": "jle",
}
RELATIVE_TRANSFERS = CONDITIONAL_JUMPS | {"jmp", "call"}
UNCONDITIONAL_FLOW = frozenset({"jmp", "jmp_a", "jmp_r", "ret", "halt"})


@dataclass(eq=False)
class NInstruction:
    """One decoded/authored N32 instruction.

    Identity (not value) equality: chains of identical ``call bf``
    instructions must remain distinguishable to the embedder.

    ``operands`` follow the form signature. Relative-transfer targets
    are :class:`Label` before layout and :class:`Imm` (absolute target
    address) after decoding; the encoder converts to rel32.
    """

    mnemonic: str
    operands: Tuple = ()

    def __post_init__(self):
        if self.mnemonic not in INSTRUCTION_FORMS:
            raise ValueError(f"unknown mnemonic {self.mnemonic!r}")

    @property
    def length(self) -> int:
        return INSTRUCTION_FORMS[self.mnemonic][1]

    @property
    def is_conditional(self) -> bool:
        return self.mnemonic in CONDITIONAL_JUMPS

    def copy(self) -> "NInstruction":
        return NInstruction(self.mnemonic, tuple(self.operands))

    def __repr__(self):
        ops = ", ".join(repr(o) for o in self.operands)
        return f"{self.mnemonic} {ops}".strip()


def ni(mnemonic: str, *operands) -> NInstruction:
    """Shorthand constructor."""
    return NInstruction(mnemonic, tuple(operands))
