"""N32 binary encoding: instructions <-> bytes.

The encoder and decoder are exact inverses over the instruction forms
of :mod:`repro.native.isa`. Addresses matter: relative transfers
(jmp/call/jcc) are encoded as rel32 offsets from the *end* of the
instruction, IA-32 style, so the decoder needs the instruction's own
address to reconstruct the absolute target, and the encoder needs it
to emit the offset. Absolute operands (indirect jumps, table lookups,
global loads) encode 32-bit absolute addresses — the distinction the
whole tamper-proofing story rests on.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from .isa import (
    INSTRUCTION_FORMS,
    Imm,
    Mem,
    NInstruction,
    REGISTERS,
    Reg,
    wrap32,
)


class EncodingError(Exception):
    """Malformed instruction or undecodable bytes."""


# Opcode space layout. Register-in-opcode families occupy 8 consecutive
# byte values; everything else gets one byte from the sequential pool.
_REG_FAMILIES = {
    "push": 0x10,
    "pop": 0x18,
    "mov_ri": 0x20,
}
_POOL_START = 0x30
_POOL_MNEMONICS = [
    m for m in INSTRUCTION_FORMS
    if m not in _REG_FAMILIES
]
OPCODE_OF: Dict[str, int] = dict(_REG_FAMILIES)
OPCODE_OF.update(
    {m: _POOL_START + i for i, m in enumerate(_POOL_MNEMONICS)}
)
_MNEMONIC_AT: Dict[int, str] = {}
for _m, _op in OPCODE_OF.items():
    if _m in _REG_FAMILIES:
        for _r in range(8):
            _MNEMONIC_AT[_op + _r] = _m
    else:
        _MNEMONIC_AT[_op] = _m


#: Register operand of an operand byte (its low three bits). Reg is
#: immutable, so decoded instructions share these.
_reg = tuple(Reg(REGISTERS[code & 7]) for code in range(256)).__getitem__


def _enc32(value: int) -> bytes:
    return struct.pack("<I", wrap32(value))


def _dec32(data: bytes, offset: int) -> int:
    return struct.unpack_from("<I", data, offset)[0]


def _dec32s(data: bytes, offset: int) -> int:
    return struct.unpack_from("<i", data, offset)[0]


def encode_instruction(instr: NInstruction, address: int) -> bytes:
    """Encode one instruction placed at ``address``."""
    m = instr.mnemonic
    sig, length = INSTRUCTION_FORMS[m]
    ops = instr.operands
    if len(ops) != len(sig):
        raise EncodingError(f"{m}: expected {len(sig)} operands, got {len(ops)}")
    out = bytearray()

    if m in _REG_FAMILIES:
        reg = ops[0]
        if not isinstance(reg, Reg):
            raise EncodingError(f"{m}: first operand must be a register")
        out.append(OPCODE_OF[m] + reg.code)
        if m == "mov_ri":
            imm = ops[1]
            if not isinstance(imm, Imm):
                raise EncodingError("mov_ri: second operand must be Imm")
            out += _enc32(imm.value)
        result = bytes(out)
        if len(result) != length:
            raise EncodingError(f"{m}: encoded {len(result)} != {length}")
        return result

    out.append(OPCODE_OF[m])

    if m in ("jmp", "call", "je", "jne", "jl", "jle", "jg", "jge"):
        target = ops[0]
        if not isinstance(target, Imm):
            raise EncodingError(f"{m}: unresolved target {target!r}")
        if length == 6:
            out.append(0)  # pad byte (two-byte jcc opcode in IA-32)
        rel = wrap32(target.value - (address + length))
        out += _enc32(rel)
    elif m in ("jmp_a", "call_a"):
        cell = ops[0]
        if not isinstance(cell, Mem) or cell.base or cell.index:
            raise EncodingError(f"{m}: operand must be an absolute cell")
        out.append(0)
        out += _enc32(cell.disp)
    elif m == "jmp_r":
        out.append(ops[0].code)
    elif m == "pushi":
        out += _enc32(ops[0].value)
    elif m == "mov_rx":
        r, mem = ops
        if not isinstance(mem, Mem) or mem.index is None or mem.base:
            raise EncodingError("mov_rx: operand must be [abs + idx*4]")
        out.append((r.code << 4) | Reg(mem.index).code)
        out += _enc32(mem.disp)
        out.append(0)  # pad to the declared 7-byte length
    elif sig == ("r", "m") or sig == ("m", "r"):
        mem = ops[1] if sig == ("r", "m") else ops[0]
        reg = ops[0] if sig == ("r", "m") else ops[1]
        if not isinstance(mem, Mem) or mem.index is not None:
            raise EncodingError(f"{m}: operand must be [base+disp]")
        base_code = Reg(mem.base).code if mem.base else 0x8
        out.append((reg.code << 4) | base_code)
        out += _enc32(mem.disp)
    elif sig == ("r", "a") or sig == ("a", "r"):
        mem = ops[1] if sig == ("r", "a") else ops[0]
        reg = ops[0] if sig == ("r", "a") else ops[1]
        if not isinstance(mem, Mem) or mem.base or mem.index:
            raise EncodingError(f"{m}: operand must be absolute [addr]")
        out.append(reg.code)
        out += _enc32(mem.disp)
    elif sig == ("m", "i"):
        mem, imm = ops
        base_code = Reg(mem.base).code if mem.base else 0x8
        out.append(base_code)
        out += _enc32(mem.disp)
        out += _enc32(imm.value)
    elif sig == ("r", "i"):
        out.append(ops[0].code)
        out += _enc32(ops[1].value)
    elif sig == ("r", "s8"):
        out.append(ops[0].code)
        out.append(ops[1].value & 0xFF)
    elif sig == ("r", "r", "i"):
        out.append((ops[0].code << 4) | ops[1].code)
        out += _enc32(ops[2].value)
    elif sig == ("r", "r"):
        out.append((ops[0].code << 4) | ops[1].code)
        if length == 3:
            out.append(0)  # imul_rr pads to IA-32's 3 bytes
    elif sig == ("r",):
        out.append(ops[0].code)
    elif sig == ():
        if length == 2:
            out.append(0)  # sys_* pad (int 0x80 style two-byte form)
    else:  # pragma: no cover - forms table is closed
        raise EncodingError(f"unhandled signature {sig} for {m}")

    result = bytes(out)
    if len(result) != length:
        raise EncodingError(
            f"{m}: encoded {len(result)} bytes, expected {length}"
        )
    return result


def decode_instruction(data: bytes, offset: int, address: int
                       ) -> Tuple[NInstruction, int]:
    """Decode one instruction at ``data[offset:]`` located at ``address``.

    Returns (instruction, length). Relative targets come back as
    :class:`Imm` absolute addresses.
    """
    if offset >= len(data):
        raise EncodingError("decode past end of text")
    opcode = data[offset]
    m = _MNEMONIC_AT.get(opcode)
    if m is None:
        raise EncodingError(f"bad opcode {opcode:#x} at {address:#x}")
    sig, length = INSTRUCTION_FORMS[m]
    if offset + length > len(data):
        raise EncodingError(f"truncated {m} at {address:#x}")
    body = data[offset:offset + length]

    if m in _REG_FAMILIES:
        r = _reg(opcode - OPCODE_OF[m])
        if m == "mov_ri":
            return NInstruction(m, (r, Imm(_dec32(body, 1)))), length
        return NInstruction(m, (r,)), length

    if m in ("jmp", "call", "je", "jne", "jl", "jle", "jg", "jge"):
        rel_off = 2 if length == 6 else 1
        rel = _dec32s(body, rel_off)
        return NInstruction(m, (Imm(wrap32(address + length + rel)),)), length
    if m in ("jmp_a", "call_a"):
        return NInstruction(m, (Mem(disp=_dec32(body, 2)),)), length
    if m == "jmp_r":
        return NInstruction(m, (_reg(body[1]),)), length
    if m == "pushi":
        return NInstruction(m, (Imm(_dec32(body, 1)),)), length
    if m == "mov_rx":
        r = _reg(body[1] >> 4)
        idx = REGISTERS[body[1] & 7]
        return NInstruction(m, (r, Mem(disp=_dec32(body, 2), index=idx))), length

    if sig == ("r", "m") or sig == ("m", "r"):
        r = _reg(body[1] >> 4)
        base_code = body[1] & 0xF
        base = None if base_code == 0x8 else REGISTERS[base_code & 7]
        # Base-relative displacements are signed (frame offsets);
        # absolute displacements are plain addresses.
        disp = _dec32s(body, 2) if base is not None else _dec32(body, 2)
        mem = Mem(base=base, disp=disp)
        ops = (r, mem) if sig == ("r", "m") else (mem, r)
        return NInstruction(m, ops), length
    if sig == ("r", "a") or sig == ("a", "r"):
        r = _reg(body[1])
        mem = Mem(disp=_dec32(body, 2))
        ops = (r, mem) if sig == ("r", "a") else (mem, r)
        return NInstruction(m, ops), length
    if sig == ("m", "i"):
        base_code = body[1]
        base = None if base_code == 0x8 else REGISTERS[base_code & 7]
        disp = _dec32s(body, 2) if base is not None else _dec32(body, 2)
        mem = Mem(base=base, disp=disp)
        return NInstruction(m, (mem, Imm(_dec32(body, 6)))), length
    if sig == ("r", "i"):
        return NInstruction(m, (_reg(body[1]), Imm(_dec32(body, 2)))), length
    if sig == ("r", "s8"):
        return NInstruction(m, (_reg(body[1]), Imm(body[2]))), length
    if sig == ("r", "r", "i"):
        return NInstruction(
            m, (_reg(body[1] >> 4), _reg(body[1]), Imm(_dec32(body, 2)))
        ), length
    if sig == ("r", "r"):
        return NInstruction(m, (_reg(body[1] >> 4), _reg(body[1]))), length
    if sig == ("r",):
        return NInstruction(m, (_reg(body[1]),)), length
    if sig == ():
        return NInstruction(m, ()), length
    raise EncodingError(f"unhandled decode for {m}")  # pragma: no cover
