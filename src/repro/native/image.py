"""N32 binary images: text + data sections, symbols, entry point.

The layout mimics a statically linked ELF executable the way PLTO
sees one: a read-only text section at a fixed base, a writable data
section above it, and a symbol table that exists for the *producer's*
convenience only — the machine and the attacks never need it, which
models the paper's "statically linked executables, no relocation
information" setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .encoding import decode_instruction
from .isa import NInstruction

TEXT_BASE = 0x08048000
DATA_ALIGN = 0x1000
STACK_TOP = 0x0C000000
STACK_SIZE = 0x40000


@dataclass
class BinaryImage:
    """An executable N32 program."""

    text: bytes
    data: bytearray
    data_base: int
    entry: int
    text_base: int = TEXT_BASE
    symbols: Dict[str, int] = field(default_factory=dict)
    #: Trailing zero-initialized bytes (the runtime heap). Like ELF
    #: .bss, they occupy address space but no file space, so the size
    #: metrics of the evaluation exclude them.
    bss_bytes: int = 0

    @property
    def text_end(self) -> int:
        return self.text_base + len(self.text)

    @property
    def data_end(self) -> int:
        return self.data_base + len(self.data)

    def total_size(self) -> int:
        """text + data address-space bytes (including bss)."""
        return len(self.text) + len(self.data)

    def file_size(self) -> int:
        """text + initialized data: the Figure 9(a) size metric.

        Zero-initialized heap space is .bss-like and free on disk.
        """
        return len(self.text) + len(self.data) - self.bss_bytes

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError(f"no symbol {name!r}") from None

    def in_text(self, addr: int) -> bool:
        return self.text_base <= addr < self.text_end

    def in_data(self, addr: int) -> bool:
        return self.data_base <= addr < self.data_end

    def read_data_word(self, addr: int) -> int:
        off = addr - self.data_base
        return int.from_bytes(self.data[off:off + 4], "little")

    def copy(self) -> "BinaryImage":
        return BinaryImage(
            bytes(self.text),
            bytearray(self.data),
            self.data_base,
            self.entry,
            self.text_base,
            dict(self.symbols),
            self.bss_bytes,
        )

    # -- disassembly helpers --------------------------------------------------

    def decode_at(self, addr: int) -> Tuple[NInstruction, int]:
        """Decode the instruction at an absolute text address."""
        return decode_instruction(self.text, addr - self.text_base, addr)

    def disassemble(self) -> List[Tuple[int, NInstruction]]:
        """Linear-sweep disassembly of the whole text section.

        N32 encodings are self-synchronizing from the section start
        (we never embed data in text), so the linear sweep is exact —
        the convenient part of the substrate that PLTO must work much
        harder for on real IA-32.
        """
        out: List[Tuple[int, NInstruction]] = []
        addr = self.text_base
        while addr < self.text_end:
            instr, length = self.decode_at(addr)
            out.append((addr, instr))
            addr += length
        return out


#: Gap left between text and data at initial layout. Real linkers
#: leave page slack; we leave more so that rewriting passes (watermark
#: embedding, attack transformations) can grow the text while keeping
#: the data section - and every absolute address stored in it - fixed.
TEXT_DATA_GAP = 0x20000


def default_data_base(text_len: int) -> int:
    """First page-aligned address comfortably above the text section."""
    end = TEXT_BASE + text_len + TEXT_DATA_GAP
    return (end + DATA_ALIGN - 1) // DATA_ALIGN * DATA_ALIGN
