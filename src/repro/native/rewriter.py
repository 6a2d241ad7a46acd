"""PLTO-style binary rewriting for N32 images.

The paper's native implementation is "built on top of PLTO, a binary
rewriting system [...] reads in statically linked executables,
disassembles the input binary, and constructs a control flow graph,
which can then either be instrumented to obtain execution profiles,
or modified to have a given watermark embedded into it."

:func:`lift` disassembles an image into an editable instruction list
whose intra-text control transfers are symbolic; :func:`lower`
re-lays-out and re-encodes the edited list. Crucially, **the data
section and its base address are preserved verbatim**: a rewriter can
re-target the relative branches it can *see* in the code, but it has
no relocation information for code addresses *stored as data* (the
branch function's XOR table, tamper-proofing cells). This asymmetry
is exactly why address-shifting attacks break tamper-proofed binaries
(Section 4.3 / 5.2.2) while honest rewriting of unwatermarked
binaries is safe.

:func:`patch_bytes` performs in-place same-length byte patching — the
"overwrite the call with a jump instruction of exactly the same size"
attack (Section 5.2.2, attack 4) without any relayout at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .encoding import encode_instruction
from .image import BinaryImage
from .isa import Imm, Label, NInstruction, RELATIVE_TRANSFERS

TextItem = Union[Tuple[str, str], NInstruction]


class RewriteError(Exception):
    """Lift/lower failure (overlapping edits, text overflow, ...)."""


@dataclass
class LiftedProgram:
    """Editable form of a binary's text section."""

    items: List[TextItem]
    image: BinaryImage
    entry_label: str
    #: original address -> index into ``items`` of that instruction
    index_of_addr: Dict[int, int] = field(default_factory=dict)

    def find(self, addr: int) -> int:
        """Item index of the instruction originally at ``addr``."""
        try:
            return self.index_of_addr[addr]
        except KeyError:
            raise RewriteError(f"no instruction at {addr:#x}") from None

    def copy(self) -> "LiftedProgram":
        """An independently editable copy. The instructions themselves
        are shared: edits replace or insert items, never change one in
        place."""
        return LiftedProgram(
            list(self.items), self.image, self.entry_label,
            dict(self.index_of_addr),
        )

    def insert(self, index: int, items: List[TextItem]) -> None:
        """Insert items before item ``index``; invalidates no labels
        (they are symbolic) but shifts later indices."""
        self.items[index:index] = items
        shift = len(items)
        for addr, idx in self.index_of_addr.items():
            if idx >= index:
                self.index_of_addr[addr] = idx + shift


def _target_label(addr: int) -> str:
    return f"La_{addr:08x}"


def lift(
    image: BinaryImage,
    listing: Optional[Sequence[Tuple[int, NInstruction]]] = None,
) -> LiftedProgram:
    """Disassemble into symbolic, editable form.

    ``listing`` is ``image.disassemble()`` when the caller already has
    it; its instructions are copied, never edited.
    """
    if listing is None:
        listing = image.disassemble()
    addresses = {addr for addr, _ in listing}

    targets = set()
    for addr, instr in listing:
        if instr.mnemonic in RELATIVE_TRANSFERS:
            dest = instr.operands[0]
            if isinstance(dest, Imm) and image.in_text(dest.value):
                if dest.value not in addresses:
                    raise RewriteError(
                        f"branch into the middle of an instruction at "
                        f"{dest.value:#x}"
                    )
                targets.add(dest.value)
    targets.add(image.entry)

    items: List[TextItem] = []
    index_of_addr: Dict[int, int] = {}
    for addr, instr in listing:
        if addr in targets:
            items.append(("label", _target_label(addr)))
        edited = instr.copy()
        if edited.mnemonic in RELATIVE_TRANSFERS:
            dest = edited.operands[0]
            if isinstance(dest, Imm) and image.in_text(dest.value):
                edited = NInstruction(
                    edited.mnemonic, (Label(_target_label(dest.value)),)
                )
        index_of_addr[addr] = len(items)
        items.append(edited)

    return LiftedProgram(
        items, image, _target_label(image.entry), index_of_addr
    )


@dataclass
class TextLayout:
    """Where :func:`lower` places a lifted program's items."""

    #: layout address of each item (a label's is the next instruction's)
    addresses: List[int]
    #: label -> address
    labels: Dict[str, int]
    #: first address past the text
    end: int


def layout(prog: LiftedProgram) -> TextLayout:
    """Lay the items out from the text base, in order."""
    labels: Dict[str, int] = {}
    addresses: List[int] = []
    addr = prog.image.text_base
    for item in prog.items:
        addresses.append(addr)
        if isinstance(item, tuple):
            name = item[1]
            if name in labels:
                raise RewriteError(f"duplicate label {name!r}")
            labels[name] = addr
        else:
            addr += item.length
    return TextLayout(addresses, labels, addr)


def lower(
    prog: LiftedProgram, placed: Optional[TextLayout] = None
) -> BinaryImage:
    """Re-layout and re-encode; data section stays put.

    ``placed`` is ``layout(prog)`` when the caller already has it.
    Raises :class:`RewriteError` if the rewritten text would collide
    with the (immovable) data section.
    """
    image = prog.image
    if placed is None:
        placed = layout(prog)
    symbols = placed.labels
    item_addr = placed.addresses
    if placed.end > image.data_base:
        raise RewriteError(
            f"rewritten text ({placed.end - image.text_base} bytes) "
            f"overflows into the data section"
        )
    if prog.entry_label not in symbols:
        raise RewriteError(f"entry label {prog.entry_label!r} lost")

    text = bytearray()
    for item, addr in zip(prog.items, item_addr):
        if isinstance(item, tuple):
            continue
        resolved = item
        if item.mnemonic in RELATIVE_TRANSFERS and isinstance(
            item.operands[0], Label
        ):
            name = item.operands[0].name
            if name not in symbols:
                raise RewriteError(f"undefined label {name!r}")
            resolved = NInstruction(item.mnemonic, (Imm(symbols[name]),))
        try:
            text += encode_instruction(resolved, addr)
        except Exception as exc:
            raise RewriteError(f"encode failed for {resolved!r}: {exc}")

    new_symbols = dict(image.symbols)
    # Remap original text symbols through the edit when possible.
    for name, sym_addr in image.symbols.items():
        if image.in_text(sym_addr):
            label = _target_label(sym_addr)
            if label in symbols:
                new_symbols[name] = symbols[label]
            elif sym_addr in prog.index_of_addr:
                new_symbols[name] = item_addr[prog.index_of_addr[sym_addr]]
    return BinaryImage(
        bytes(text),
        bytearray(image.data),
        image.data_base,
        symbols[prog.entry_label],
        image.text_base,
        new_symbols,
        image.bss_bytes,
    )


def patch_bytes(image: BinaryImage, addr: int, new_bytes: bytes) -> BinaryImage:
    """In-place byte patch: same length, no relayout.

    The address arithmetic of every other instruction is untouched —
    the only transformation an attacker can apply to a tamper-proofed
    binary without shifting addresses.
    """
    if not image.in_text(addr) or not image.in_text(addr + len(new_bytes) - 1):
        raise RewriteError(f"patch outside text: {addr:#x}")
    off = addr - image.text_base
    text = bytearray(image.text)
    text[off:off + len(new_bytes)] = new_bytes
    return BinaryImage(
        bytes(text),
        bytearray(image.data),
        image.data_base,
        image.entry,
        image.text_base,
        dict(image.symbols),
        image.bss_bytes,
    )
