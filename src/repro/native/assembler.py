"""N32 assembler: authored instructions / text assembly -> BinaryImage.

Two levels:

* :func:`build_image` — the programmatic core used by the wee native
  code generator: a list of text items (``("label", name)`` markers
  and :class:`NInstruction` objects whose operands may be symbolic)
  plus named data blocks, laid out into a concrete
  :class:`BinaryImage`. The text is placed and encoded by
  :func:`repro.native.rewriter.layout` and
  :func:`repro.native.rewriter.encode`, the path that re-lays out
  rewritten binaries too.
* :func:`assemble_text` — a small Intel-flavoured textual syntax for
  tests and examples.

Symbolic operands in authored code:

* :class:`Label` where an immediate or branch target is expected
  (resolves to the symbol's absolute address);
* :class:`SymMem` where an absolute memory operand is expected
  (resolves to ``Mem(disp=address, index=...)``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Sequence

from .image import BinaryImage, TEXT_BASE, default_data_base
from .isa import (
    INSTRUCTION_FORMS,
    Imm,
    Label,
    Mem,
    NInstruction,
    REG_INDEX,
    Reg,
    SymMem,
)
from .rewriter import RewriteError, TextItem, encode, layout


class NasmError(Exception):
    """Assembly or layout failure."""


@dataclass
class DataBlock:
    """A named run of initialized 32-bit words in the data section."""

    name: str
    words: List[int]


def build_image(
    text_items: Sequence[TextItem],
    data_blocks: Sequence[DataBlock] = (),
    entry: str = "main",
    extra_data_space: int = 0,
    text_base: int = TEXT_BASE,
) -> BinaryImage:
    """Lay out and encode a program.

    ``extra_data_space`` reserves additional zeroed bytes after the
    named blocks (the runtime heap).
    """
    try:
        placed = layout(text_items, text_base)
    except RewriteError as exc:
        raise NasmError(str(exc)) from None
    symbols = placed.labels
    data_base = default_data_base(placed.end - text_base)
    offset = 0
    for block in data_blocks:
        if block.name in symbols:
            raise NasmError(f"duplicate symbol {block.name!r}")
        symbols[block.name] = data_base + offset
        offset += 4 * len(block.words)
    data = bytearray(offset + extra_data_space)
    offset = 0
    for block in data_blocks:
        for w in block.words:
            data[offset:offset + 4] = (w & 0xFFFFFFFF).to_bytes(4, "little")
            offset += 4

    if entry not in symbols:
        raise NasmError(f"entry symbol {entry!r} not defined")
    try:
        text = encode(text_items, placed.addresses, symbols)
    except RewriteError as exc:
        raise NasmError(str(exc)) from None

    return BinaryImage(
        text, data, data_base, symbols[entry], text_base, symbols,
        bss_bytes=extra_data_space,
    )


# ---------------------------------------------------------------------------
# Textual assembly
# ---------------------------------------------------------------------------

_MEM_RE = re.compile(
    r"^\[\s*([A-Za-z_][A-Za-z0-9_]*|-?\d+|0x[0-9a-fA-F]+)"
    r"(?:\s*([+-])\s*(\d+|0x[0-9a-fA-F]+|[a-z]{3}\s*\*\s*4))?\s*\]$"
)


def _parse_int(tok: str) -> int:
    return int(tok, 0)


def _parse_operand(tok: str):
    tok = tok.strip()
    if tok in REG_INDEX:
        return Reg(tok)
    if re.fullmatch(r"-?\d+|-?0x[0-9a-fA-F]+", tok):
        return Imm(_parse_int(tok))
    m = _MEM_RE.match(tok)
    if m:
        first, sign, second = m.group(1), m.group(2), m.group(3)
        if first in REG_INDEX:
            disp = 0
            if second is not None:
                disp = _parse_int(second)
                if sign == "-":
                    disp = -disp
            return Mem(base=first, disp=disp)
        if re.fullmatch(r"-?\d+|0x[0-9a-fA-F]+", first):
            return Mem(disp=_parse_int(first))
        # symbol, possibly with scaled index
        if second is not None and "*" in second:
            idx = second.split("*")[0].strip()
            return SymMem(first, index=idx)
        offset = 0
        if second is not None:
            offset = _parse_int(second)
            if sign == "-":
                offset = -offset
        return SymMem(first, offset=offset)
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.$]*", tok):
        return Label(tok)
    raise NasmError(f"cannot parse operand {tok!r}")


#: user mnemonic -> candidate internal forms, tried by operand shapes.
_FORM_CANDIDATES = {
    "mov": ["mov_rr", "mov_ri", "mov_rm", "mov_mr", "mov_ra", "mov_ar",
            "mov_mi", "mov_rx"],
    "add": ["add_rr", "add_ri", "add_mr", "add_rm"],
    "sub": ["sub_rr", "sub_ri", "sub_mr"],
    "and": ["and_rr", "and_ri"],
    "or": ["or_rr", "or_ri"],
    "xor": ["xor_rr", "xor_ri", "xor_mr", "xor_rm"],
    "cmp": ["cmp_rr", "cmp_ri", "cmp_rm", "cmp_mi"],
    "test": ["test_rr"],
    "imul": ["imul_rr", "imul_rri"],
    "shl": ["shl_ri", "shl_rr"],
    "shr": ["shr_ri", "shr_rr"],
    "sar": ["sar_ri", "sar_rr"],
    "xchg": ["xchg_rr", "xchg_rm"],
    "push": ["push", "pushi"],
    "jmp": ["jmp", "jmp_a", "jmp_r"],
    "call": ["call", "call_a"],
    "lea": ["lea"],
}


def _operand_matches(kind: str, op) -> bool:
    if kind == "r":
        return isinstance(op, Reg)
    if kind in ("i", "s8"):
        return isinstance(op, (Imm, Label))
    if kind == "rel":
        return isinstance(op, (Imm, Label))
    if kind == "m":
        return (isinstance(op, Mem) and op.base is not None) or \
            isinstance(op, SymMem) and op.index is None
    if kind == "a":
        return (isinstance(op, Mem) and op.base is None and op.index is None) \
            or (isinstance(op, SymMem) and op.index is None) \
            or isinstance(op, Label)
    if kind == "x":
        return (isinstance(op, Mem) and op.index is not None) or \
            (isinstance(op, SymMem) and op.index is not None)
    return False


def _pick_form(user_mnemonic: str, operands: list) -> str:
    # Shape-based candidates take precedence; exact internal names
    # (e.g. "mov_ra") remain available for forms without sugar.
    candidates = _FORM_CANDIDATES.get(user_mnemonic)
    if candidates is None:
        if user_mnemonic in INSTRUCTION_FORMS:
            return user_mnemonic
        candidates = []
    for form in candidates:
        sig, _ = INSTRUCTION_FORMS[form]
        if len(sig) == len(operands) and all(
            _operand_matches(k, o) for k, o in zip(sig, operands)
        ):
            return form
    raise NasmError(
        f"no encoding of {user_mnemonic!r} matches operands {operands!r}"
    )


def assemble_text(source: str, entry: str = "main") -> BinaryImage:
    """Assemble textual N32 assembly into a binary image."""
    text_items: List[TextItem] = []
    data_blocks: List[DataBlock] = []
    extra_space = 0
    for line_no, raw in enumerate(source.splitlines(), 1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith(".entry"):
                entry = line.split()[1]
            elif line.startswith(".word"):
                parts = line.split()
                data_blocks.append(
                    DataBlock(parts[1], [_parse_int(v) for v in parts[2:]])
                )
            elif line.startswith(".space"):
                parts = line.split()
                data_blocks.append(
                    DataBlock(parts[1], [0] * _parse_int(parts[2]))
                )
            elif line.startswith(".heap"):
                extra_space = _parse_int(line.split()[1])
            elif line.endswith(":"):
                text_items.append(("label", line[:-1].strip()))
            else:
                parts = line.split(None, 1)
                mnemonic = parts[0]
                operands = []
                if len(parts) > 1:
                    operands = [
                        _parse_operand(tok)
                        for tok in _split_operands(parts[1])
                    ]
                form = _pick_form(mnemonic, operands)
                text_items.append(NInstruction(form, tuple(operands)))
        except NasmError as exc:
            raise NasmError(f"line {line_no}: {exc}") from None
    return build_image(text_items, data_blocks, entry,
                       extra_data_space=extra_space)


def _split_operands(text: str) -> List[str]:
    """Split on commas not inside brackets."""
    out, depth, cur = [], 0, ""
    for c in text:
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
        if c == "," and depth == 0:
            out.append(cur)
            cur = ""
        else:
            cur += c
    if cur.strip():
        out.append(cur)
    return out
