"""PLTO-style binary rewriting for N32 images.

The paper's native implementation is "built on top of PLTO, a binary
rewriting system [...] reads in statically linked executables,
disassembles the input binary, and constructs a control flow graph,
which can then either be instrumented to obtain execution profiles,
or modified to have a given watermark embedded into it."

:func:`lift` disassembles an image into an editable instruction list
whose intra-text control transfers are symbolic; its symbol-free half,
:func:`lift_text`, can be kept and made into a program for any image
with the same text without decoding it again. :func:`lower`
re-lays-out and re-encodes the edited list with :func:`layout` and
:func:`encode`, the one path from text items to addresses and bytes
(the assembler's ``build_image`` takes it too). Crucially, **the data
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

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .encoding import encode_instruction
from .image import BinaryImage
from .isa import (
    INSTRUCTION_FORMS,
    Imm,
    Label,
    Mem,
    NInstruction,
    RELATIVE_TRANSFERS,
    SymMem,
)

#: A ``("label", name)`` marker or an instruction whose operands may
#: be symbolic (:class:`Label`, :class:`SymMem`).
TextItem = Union[Tuple[str, str], NInstruction]


class RewriteError(Exception):
    """Lift/lower failure (overlapping edits, text overflow, ...)."""


@dataclass
class LiftedProgram:
    """Editable form of a binary's text section.

    Items are never edited in place: an edit replaces or inserts items.
    :func:`lift_text` interns its instructions, so one instruction
    object stands at every position that holds an equal instruction,
    and a kept :class:`LiftedText` shares its objects with every
    program made from it.
    """

    items: List[TextItem]
    image: BinaryImage
    entry_label: str
    #: original address of each item, aligned with ``items``; None for
    #: labels and inserted items. Replacing an item keeps its origin.
    origins: List[Optional[int]]
    #: text symbol address -> index of its item when lifted, for the
    #: symbols with no label. Edits only insert and replace items, so
    #: the item is at that index or later.
    anchors: Dict[int, int] = field(default_factory=dict)

    def find(self, addr: int) -> int:
        """Item index of the instruction originally at ``addr``."""
        try:
            return self.origins.index(addr)
        except ValueError:
            raise RewriteError(f"no instruction at {addr:#x}") from None

    def anchored(self, addr: int) -> Optional[int]:
        """Item index of the instruction originally at ``addr``, found
        from its anchor; None if no item has that origin."""
        try:
            return self.origins.index(addr, self.anchors.get(addr, 0))
        except ValueError:
            return None

    def address_index(self) -> Dict[int, int]:
        """Original address -> item index, for every lifted instruction."""
        return {
            addr: idx for idx, addr in enumerate(self.origins)
            if addr is not None
        }

    def insert(self, index: int, items: List[TextItem]) -> None:
        """Insert items before item ``index``; invalidates no labels
        (they are symbolic) but shifts later indices."""
        self.items[index:index] = items
        self.origins[index:index] = [None] * len(items)


def _target_label(addr: int) -> str:
    return f"La_{addr:08x}"


@dataclass(frozen=True)
class LiftedText:
    """The lifted text of an image, before any edit.

    It reads only the image's text, text base and entry, never its
    symbols or data, so it serves every image with that text:
    :meth:`program` makes an editable :class:`LiftedProgram` for one.
    """

    items: Tuple[TextItem, ...]
    #: original address of each item; None for labels
    origins: Tuple[Optional[int], ...]
    #: the origin of each item, or for a label its target's: ascending
    keys: Tuple[int, ...]
    entry_label: str

    def program(self, image: BinaryImage) -> LiftedProgram:
        """An editable program of ``image``, whose text this is; its
        anchors come from ``image``'s own symbols."""
        anchors: Dict[int, int] = {}
        for addr in set(image.symbols.values()):
            if image.in_text(addr):
                # A label's item comes first among equal keys, and a
                # labelled symbol needs no anchor.
                index = bisect.bisect_left(self.keys, addr)
                if index < len(self.keys) and self.origins[index] == addr:
                    anchors[addr] = index
        return LiftedProgram(
            list(self.items), image, self.entry_label, list(self.origins),
            anchors,
        )


def lift_text(
    image: BinaryImage,
    listing: Optional[Sequence[Tuple[int, NInstruction]]] = None,
) -> LiftedText:
    """Disassemble into symbolic form, interning equal instructions.

    ``listing`` is ``image.disassemble()`` when the caller already has
    it; its instructions are taken over, never edited.
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
    origins: List[Optional[int]] = []
    keys: List[int] = []
    interned: Dict[Tuple[str, tuple], NInstruction] = {}
    for addr, instr in listing:
        if addr in targets:
            items.append(("label", _target_label(addr)))
            origins.append(None)
            keys.append(addr)
        ops = instr.operands
        if instr.mnemonic in RELATIVE_TRANSFERS:
            dest = ops[0]
            if isinstance(dest, Imm) and image.in_text(dest.value):
                ops = (Label(_target_label(dest.value)),)
        key = (instr.mnemonic, ops)
        shared = interned.get(key)
        if shared is None:
            if ops is not instr.operands:
                instr = NInstruction(instr.mnemonic, ops)
            shared = interned[key] = instr
        items.append(shared)
        origins.append(addr)
        keys.append(addr)

    return LiftedText(
        tuple(items), tuple(origins), tuple(keys), _target_label(image.entry)
    )


def lift(
    image: BinaryImage,
    listing: Optional[Sequence[Tuple[int, NInstruction]]] = None,
) -> LiftedProgram:
    """Disassemble into symbolic, editable form (see :func:`lift_text`)."""
    return lift_text(image, listing).program(image)


@dataclass
class TextLayout:
    """Where a run of text items is placed."""

    #: layout address of each item (a label's is the next instruction's)
    addresses: List[int]
    #: label -> address
    labels: Dict[str, int]
    #: first address past the text
    end: int


#: Encoded length of each mnemonic.
_LENGTHS: Dict[str, int] = {
    m: length for m, (_sig, length) in INSTRUCTION_FORMS.items()
}


def layout(items: Sequence[TextItem], base: int) -> TextLayout:
    """Lay the items out from ``base``, in order."""
    labels: Dict[str, int] = {}
    addresses: List[int] = []
    lengths = _LENGTHS
    addr = base
    for item in items:
        addresses.append(addr)
        if isinstance(item, tuple):
            kind, name = item
            if kind != "label":
                raise RewriteError(f"unknown text item {item!r}")
            if name in labels:
                raise RewriteError(f"duplicate label {name!r}")
            labels[name] = addr
        else:
            addr += lengths[item.mnemonic]
    return TextLayout(addresses, labels, addr)


#: Operand types :func:`encode` resolves against the symbol table.
_SYMBOLIC = frozenset({Label, SymMem})
#: Forms with an operand a symbol may stand for: all but those whose
#: operands are registers only.
_SYMBOLIC_FORMS = frozenset(
    m for m, (sig, _length) in INSTRUCTION_FORMS.items() if set(sig) - {"r"}
)


def _symbol(symbols: Dict[str, int], name: str) -> int:
    try:
        return symbols[name]
    except KeyError:
        raise RewriteError(f"undefined symbol {name!r}") from None


def _resolve(instr: NInstruction, symbols: Dict[str, int]) -> NInstruction:
    """``instr`` with each symbolic operand made concrete: a
    :class:`Label` becomes the symbol's address as an immediate or an
    absolute memory operand, as the form's signature asks; a
    :class:`SymMem` becomes an absolute memory operand."""
    sig = INSTRUCTION_FORMS[instr.mnemonic][0]
    ops = []
    for kind, op in zip(sig, instr.operands):
        if isinstance(op, Label):
            target = _symbol(symbols, op.name)
            if kind in ("rel", "i", "s8"):
                op = Imm(target)
            elif kind in ("a", "m", "x"):
                op = Mem(disp=target)
            else:
                raise RewriteError(
                    f"label operand not allowed for {kind!r} in "
                    f"{instr.mnemonic}"
                )
        elif isinstance(op, SymMem):
            op = Mem(disp=_symbol(symbols, op.symbol) + op.offset,
                     index=op.index)
        ops.append(op)
    return NInstruction(instr.mnemonic, tuple(ops))


def encode(
    items: Sequence[TextItem],
    addresses: Sequence[int],
    symbols: Dict[str, int],
) -> bytes:
    """Encode laid-out items, resolving symbolic operands through
    ``symbols``.

    An instruction that is neither a relative transfer nor symbolic
    encodes the same at every address, so each such object is encoded
    once per call, however many items it stands for.
    """
    text = bytearray()
    fixed: Dict[NInstruction, bytes] = {}
    for item, addr in zip(items, addresses):
        if isinstance(item, tuple):
            continue
        code = fixed.get(item)
        if code is None:
            instr = item
            if item.mnemonic in _SYMBOLIC_FORMS and not _SYMBOLIC.isdisjoint(
                map(type, item.operands)
            ):
                instr = _resolve(item, symbols)
            try:
                code = encode_instruction(instr, addr)
            except Exception as exc:
                raise RewriteError(f"encode failed for {instr!r}: {exc}")
            if instr is item and item.mnemonic not in RELATIVE_TRANSFERS:
                fixed[item] = code
        text += code
    return bytes(text)


def lower(
    prog: LiftedProgram, placed: Optional[TextLayout] = None
) -> BinaryImage:
    """Re-layout and re-encode; data section stays put.

    ``placed`` is ``layout(prog.items, prog.image.text_base)`` when the
    caller already has it. Raises :class:`RewriteError` if the
    rewritten text would collide with the (immovable) data section.
    """
    image = prog.image
    if placed is None:
        placed = layout(prog.items, image.text_base)
    symbols = placed.labels
    if placed.end > image.data_base:
        raise RewriteError(
            f"rewritten text ({placed.end - image.text_base} bytes) "
            f"overflows into the data section"
        )
    if prog.entry_label not in symbols:
        raise RewriteError(f"entry label {prog.entry_label!r} lost")
    text = encode(prog.items, placed.addresses, symbols)

    new_symbols = dict(image.symbols)
    # Remap original text symbols through the edit when possible.
    for name, sym_addr in image.symbols.items():
        if image.in_text(sym_addr):
            label = _target_label(sym_addr)
            if label in symbols:
                new_symbols[name] = symbols[label]
            else:
                index = prog.anchored(sym_addr)
                if index is not None:
                    new_symbols[name] = placed.addresses[index]
    return BinaryImage(
        text,
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
