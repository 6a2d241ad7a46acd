"""Tier 2 of the N32 run loop: hot straight-line text as generated Python.

Tier 1 (:meth:`Machine._loop <repro.native.machine.Machine._loop>`)
calls one bound handler per instruction. Once a *stretch* of text has
been arrived at a few times in one run, the loop calls one generated
Python function for the whole stretch instead.

* **Stretch.** Consecutive instructions decoded from the arrival
  address. It ends at a control transfer (included), or just before a
  ``sys_*`` instruction, ``halt``, an instruction the run's
  :class:`~repro.native.machine.CallRecord` watches, or the end of the
  decodable text; it holds at most ``_LONGEST`` instructions, and at
  least two.
* **Generated function.** ``f(eip, regs, fl, data, dbase, dend,
  stack)`` runs the stretch at ``eip`` and returns the next ``eip``.
  Registers are locals, read from ``regs`` at first use and stored
  back at exit; ``fl`` is the one-cell list holding the machine's
  flags value, stored only if the stretch sets it and computed only
  where an instruction of the stretch or the exit reads it. Every data
  or stack access is an inline ``unpack_from``/``pack_into`` on the
  run's buffers behind the range checks of ``read32``/``write32``,
  data first, then stack: once per word, or once for all the words the
  stretch addresses from the entry ``esp`` or ``ebp``, or absolutely.
  A word stored or read before is not read again. The function keeps
  no reference to a machine or an image.
* **Bail.** An access that ``read32``/``write32`` would not serve from
  data or stack (a fault, a write to text, a read of text; for a span
  of words, any of them) and a division by zero do not run in tier 2:
  the function stores the registers and flags as they stood before the
  instruction making the check and raises :class:`Bail`, and the loop
  runs that instruction as a tier-1 step, which faults exactly as tier
  1 does, or runs on. Each instruction makes all its checks before its
  first effect, so nothing it does is done twice.
* **Cache.** One per process, shared by threads, keyed by the stretch's
  bytes. The function computes every address it returns or pushes
  from ``eip``, so a copy whose text moved, with a mark inserted above
  its hot code, finds its stretches cached. Text cannot change under a
  run (writes to text fault), so an entry cannot go stale. It holds at
  most ``_CAP`` functions and evicts the least recently used. An index
  from (watch mode, address) to the stretches found there lets a run
  find a cached stretch by comparing bytes, without decoding it.
* **Promotion.** A stretch is generated after ``_THRESHOLD`` arrivals
  in one run, so code that runs a few times never pays for code
  generation; promoting it restarts the count of the addresses inside
  it, which then only count arrivals by a jump into the middle. A
  stretch found at the same address by an earlier run in the same
  mode runs in tier 2 from its first arrival; one cached from another
  address is found, not generated, when it turns hot. Plain and
  profiled runs share one mode, so a profile finds what plain runs
  generated, and the reverse; only a hooked run, which sees every
  instruction, promotes nothing.
"""

from __future__ import annotations

import itertools
import re
import struct
import threading
import types
from collections import Counter, OrderedDict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from .encoding import EncodingError, decode_instruction
from .image import BinaryImage, STACK_SIZE, STACK_TOP
from .isa import REG_INDEX, REGISTERS, Mem, NInstruction

#: Arrivals at a stretch, within one run, before it is generated.
_THRESHOLD = 8

#: Most instructions in one stretch.
_LONGEST = 64

#: Most stretches the process-wide cache holds. A generated stretch
#: of the SPEC-like kernels takes about 4 KB, so the cache stays near
#: 2 MB however many copies the process runs.
_CAP = 512

#: Most (watch mode, base address) entries of the index.
_INDEX_CAP = 4 * _CAP

#: Instructions a stretch never contains: it ends just before them.
_STOPS = frozenset({"sys_out", "sys_in", "halt"})

#: Instructions that end a stretch, included.
_TRANSFERS = frozenset({
    "jmp", "call", "jmp_a", "call_a", "jmp_r", "ret",
    "je", "jne", "jl", "jle", "jg", "jge",
})

#: A stretch as the run loop holds it: (function, steps, the offset of
#: each instruction from the stretch's address).
Entry = Tuple[Callable[..., int], int, Tuple[int, ...]]
#: Is this instruction instrumented? (instruction, eip, fall-through)
Watched = Callable[[NInstruction, int, int], bool]

_cache: "OrderedDict[bytes, Entry]" = OrderedDict()
_index: "OrderedDict[tuple, Tuple[bytes, ...]]" = OrderedDict()
_lock = threading.Lock()
_generated = 0


class Bail(Exception):
    """Raised by a generated stretch before instruction ``k`` (0 for
    the first) at ``eip``, which tier 1 must run: ``args`` is
    ``(k, eip)``."""


class Stretches:
    """One run's arrivals: counts and the promotion rule.

    ``calls`` is the run's :class:`~repro.native.machine.CallRecord`,
    if any: the instructions it watches stay out of stretches. Runs
    with equal records' entries cut text into equal stretches.
    """

    def __init__(self, image: BinaryImage, calls: Optional[Any]):
        self._image = image
        self._text = image.text
        self._base = image.text_base
        self._mode = () if calls is None else ("calls", calls.entry)
        self._watched: Optional[Watched] = (
            None if calls is None else calls.watches
        )
        self._hits: Dict[int, int] = {}

    def arrive(self, eip: int) -> Union[Entry, bool, None]:
        """The loop arrived at ``eip`` and holds nothing for it there.

        Returns the stretch entry once it is cached or turns hot;
        otherwise ``None`` while arrivals are counted, and ``False``
        when no stretch starts at ``eip``, after which the loop never
        asks again.
        """
        hits = self._hits
        count = hits.get(eip)
        if count is None:
            off = eip - self._base
            if not 0 <= off < len(self._text):
                return False
            entry = _find(self._mode, eip, self._text, off)
            if entry is not None:
                return entry
            count = 0
        count += 1
        if count < _THRESHOLD:
            hits[eip] = count
            return None
        hits.pop(eip, None)
        found = _scan(self._image, eip, self._watched)
        if found is None:
            return False
        code, offsets = found
        for off in offsets[1:]:
            hits.pop(eip + off, None)
        return _promote(self._mode, eip, code, offsets)


def _scan(
    image: BinaryImage, start: int, watched: Optional[Watched]
) -> Optional[Tuple[bytes, Tuple[int, ...]]]:
    """The stretch at ``start``: its bytes and the offset of each of its
    instructions from ``start``, or ``None`` if it would hold fewer
    than two."""
    addrs: List[int] = []
    addr = start
    end = image.text_end
    while len(addrs) < _LONGEST and addr < end:
        try:
            instr, length = image.decode_at(addr)
        except EncodingError:
            break
        mn = instr.mnemonic
        nxt = addr + length
        if mn in _STOPS or (
            watched is not None and watched(instr, addr, nxt)
        ):
            break
        addrs.append(addr)
        addr = nxt
        if mn in _TRANSFERS:
            break
    if len(addrs) < 2:
        return None
    base = image.text_base
    return (image.text[start - base:addr - base],
            tuple(a - start for a in addrs))


def _find(mode: tuple, eip: int, text: bytes, off: int) -> Optional[Entry]:
    """A cached stretch found at ``eip`` in this mode whose bytes are
    the text's there."""
    with _lock:
        codes = _index.get((mode, eip))
        if codes is None:
            return None
        for code in codes:
            if text.startswith(code, off):
                entry = _cache.get(code)
                if entry is not None:
                    _cache.move_to_end(code)
                    _index.move_to_end((mode, eip))
                    return entry
    return None


def _promote(
    mode: tuple, eip: int, code: bytes, offsets: Tuple[int, ...]
) -> Entry:
    """The cached entry of stretch ``code`` at ``eip``, generated if
    need be, and indexed under ``mode``."""
    global _generated
    with _lock:
        entry = _cache.get(code)
    if entry is None:
        entry = (_compile(code), len(offsets), offsets)
    with _lock:
        if code not in _cache:
            _generated += 1
        entry = _cache.setdefault(code, entry)
        _cache.move_to_end(code)
        while len(_cache) > _CAP:
            _cache.popitem(last=False)
        where = (mode, eip)
        codes = _index.get(where, ())
        if code not in codes:
            _index[where] = (code,) + codes[:3]
        _index.move_to_end(where)
        while len(_index) > _INDEX_CAP:
            _index.popitem(last=False)
    return entry


def _compile(code: bytes) -> Callable[..., int]:
    unit = compile(stretch_source(code), "<n32-stretch>", "exec")
    body = next(c for c in unit.co_consts if isinstance(c, types.CodeType))
    return types.FunctionType(body, _GLOBALS, "_stretch")


def cache_size() -> int:
    """Number of generated stretches the process holds."""
    return len(_cache)


def generated() -> int:
    """Stretches generated in this process so far (cache misses)."""
    return _generated


def clear_cache() -> None:
    """Drop every generated stretch (the next runs start cold)."""
    with _lock:
        _cache.clear()
        _index.clear()


# -- code generation ------------------------------------------------------

_M = 0xFFFFFFFF
_S = 0x80000000  # (v ^ _S) - _S is signed32(v) for 32-bit v
#: The stack's first and last word addresses, as ``read32`` checks them.
_SB = STACK_TOP - STACK_SIZE
_SE = STACK_TOP - 4

_WORD = struct.Struct("<I")
#: Globals of every generated stretch.
_GLOBALS: Dict[str, object] = {
    "Bail": Bail, "U": _WORD.unpack_from, "P": _WORD.pack_into,
}

#: The entry values of esp and ebp: the words addressed from them are
#: checked as one span of the stack.
_STACK_ROOTS = frozenset({"esp_0", "ebp_0"})

#: An assignment outside any branch, and a name, in generated source.
_ASSIGNED = re.compile(r"    (\w+) = ")
_NAME = re.compile(r"[A-Za-z_]\w*")

#: Conditional jumps: the flags relation each one tests against 0.
_REL = {"je": "==", "jne": "!=", "jl": "<", "jle": "<=", "jg": ">",
        "jge": ">="}


def _literal(expr: str) -> Optional[int]:
    try:
        return int(expr)
    except ValueError:
        return None


def _flip(expr: str) -> str:
    """``expr ^ _S``: the unsigned value in signed order."""
    value = _literal(expr)
    return str(value ^ _S) if value is not None else f"({expr} ^ {_S})"


class _Stretch:
    """The generator's state while it emits one stretch.

    Each register holds the name of a local assigned once (or a
    literal), so any earlier value stays nameable. ``flags`` is
    ``None`` while the entry value stands, else how to compute the
    flags value from such names: ``("cmp", a, b)`` for
    ``signed(a) - signed(b)``, ``("sgn", x)`` for ``signed(x)``,
    ``("val", expr)`` for ``expr``.
    """

    def __init__(self, spans: Dict[str, Tuple[int, int]]) -> None:
        #: root -> (lowest, highest) offset the stretch accesses from
        #: it, for the roots whose words are checked at once
        self.spans = spans
        #: root -> offsets accessed from it
        self.accessed: Dict[str, List[int]] = {}
        self.lines: List[str] = [
            "def _stretch(eip, regs, fl, data, dbase, dend, stack):"
        ]
        self.cur: List[Optional[str]] = [None] * 8
        self.version = [0] * 8
        self.dirty: Set[int] = set()
        self.flags: Optional[tuple] = None
        self.entry_flags: Optional[str] = None
        self.temps = itertools.count()
        self.bail = ""
        #: name -> (root, offset) for names computed as root + offset
        self.affine: Dict[str, Tuple[str, int]] = {}
        self.names: Dict[Tuple[str, int], str] = {}
        #: roots whose span is checked
        self.checked: Set[str] = set()
        #: address key -> (buffer, offset) names, once checked
        self.located: Dict[Tuple[str, int], Tuple[str, str]] = {}
        #: address key -> the word there
        self.known: Dict[Tuple[str, int], str] = {}

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def temp(self, prefix: str = "t") -> str:
        return f"{prefix}{next(self.temps)}"

    # registers

    def get(self, i: int) -> str:
        name = self.cur[i]
        if name is None:
            name = self.cur[i] = f"{REGISTERS[i]}_0"
            self.emit(f"{name} = regs[{i}]")
        return name

    def set(self, i: int, expr: str) -> str:
        """Register ``i`` now holds ``expr``; returns its name."""
        if expr.isidentifier() or _literal(expr) is not None:
            name = expr
        else:
            self.version[i] += 1
            name = f"{REGISTERS[i]}_{self.version[i]}"
            self.emit(f"{name} = {expr}")
        self.cur[i] = name
        self.dirty.add(i)
        return name

    def value(self, expr: str) -> str:
        """``expr`` as a name or literal."""
        if expr.isidentifier() or _literal(expr) is not None:
            return expr
        name = self.temp()
        self.emit(f"{name} = {expr}")
        return name

    # flags

    def flag_value(self) -> str:
        """The flags value, once an instruction of the stretch set it."""
        kind = self.flags
        if kind[0] == "cmp":
            return f"{_flip(kind[1])} - {_flip(kind[2])}"
        if kind[0] == "sgn":
            return f"({kind[1]} ^ {_S}) - {_S}"
        return kind[1]

    def condition(self, jcc: str) -> str:
        """A Python test that is true where ``jcc`` jumps."""
        kind = self.flags
        rel = _REL[jcc]
        if kind is not None and kind[0] == "cmp":
            a, b = kind[1], kind[2]
            if jcc in ("je", "jne"):
                return f"{a} {rel} {b}"
            return f"{_flip(a)} {rel} {_flip(b)}"
        if kind is not None and kind[0] == "sgn":
            x = kind[1]
            return {
                "je": f"{x} == 0", "jne": f"{x} != 0",
                "jl": f"{x} >= {_S}", "jge": f"{x} < {_S}",
                "jg": f"0 < {x} < {_S}", "jle": f"not 0 < {x} < {_S}",
            }[jcc]
        if kind is None:
            if self.entry_flags is None:
                self.entry_flags = self.temp("f")
                self.emit(f"{self.entry_flags} = fl[0]")
            flags = self.entry_flags
        else:
            flags = self.value(kind[1])
            self.flags = ("val", flags)
        return f"{flags} {rel} 0"

    # exits

    def stores(self) -> List[str]:
        out = [f"regs[{i}] = {self.cur[i]}" for i in sorted(self.dirty)
               if self.cur[i] != f"{REGISTERS[i]}_0"]
        if self.flags is not None:
            out.append(f"fl[0] = {self.flag_value()}")
        return out

    def checkpoint(self, k: int, off: int) -> None:
        """Instruction ``k`` at offset ``off`` begins: what a bail there
        does."""
        self.bail = "; ".join(
            self.stores() + [f"raise Bail({k}, {_at(off)})"]
        )

    def leave(self, target: str) -> None:
        for line in self.stores():
            self.emit(line)
        self.emit(f"return {target}")

    # memory: an address is a name or a literal, known as (root,
    # offset) so that two computations of one address are one key

    def key(self, addr: str) -> Tuple[str, int]:
        value = _literal(addr)
        if value is not None:
            return "", value
        return self.affine.get(addr, (addr, 0))

    def offset(self, name: str, delta: int) -> str:
        """``(name + delta) & _M`` as a name or a literal."""
        root, off = self.key(name)
        key = (root, (off + delta) & _M)
        if not root:
            return str(key[1])
        if not key[1]:
            return root
        known = self.names.get(key)
        if known is None:
            known = self.names[key] = self.temp("a")
            self.affine[known] = key
            step = key[1] if key[1] < _S else key[1] - (_M + 1)
            self.emit(f"{known} = ({root} + {step}) & {_M}")
        return known

    def address(self, mem: Mem) -> str:
        """The effective address of ``mem``, as ``_address`` computes
        it."""
        if mem.index is not None:
            return self.value(
                f"({mem.disp} + {self.get(REG_INDEX[mem.index])} * 4)"
                f" & {_M}"
            )
        if mem.base is None:
            return str(mem.disp & _M)
        return self.offset(self.get(REG_INDEX[mem.base]), mem.disp)

    def place(self, addr: str) -> Tuple[str, str]:
        """The buffer and offset of ``addr``. Its first access checks
        it, as ``read32``/``write32`` do, and bails if neither the data
        section nor the stack holds it; the first access from a root
        with a span checks every word of the span instead."""
        key = self.key(addr)
        where = self.located.get(key)
        if where is not None:
            return where
        root, off = key
        self.accessed.setdefault(root, []).append(off)
        span = self.spans.get(root)
        if span is not None:
            lo, hi = span
            if root not in self.checked:
                self.checked.add(root)
                if root:  # the stack, and no word of it in data
                    self.emit(f"if not {_SB - lo} <= {root} <= {_SE - hi}"
                              f" or {_minus('dbase', hi)} <= {root}"
                              f" <= {_minus('dend', lo)}:")
                else:
                    self.emit(f"if not dbase <= {lo} or {hi} > dend:")
                self.emit(f"    {self.bail}")
            if root:
                where = ("stack", f"{root} - {_SB - _signed(off)}")
            else:
                where = ("data", f"{off} - dbase")
        else:
            b, o = self.temp("b"), self.temp("o")
            self.emit(f"if dbase <= {addr} <= dend:")
            self.emit(f"    {b} = data; {o} = {addr} - dbase")
            self.emit(f"elif {_SB} <= {addr} <= {_SE}:")
            self.emit(f"    {b} = stack; {o} = {addr} - {_SB}")
            self.emit("else:")
            self.emit(f"    {self.bail}")
            where = (b, o)
        self.located[key] = where
        return where

    def read(self, addr: str, where: Optional[Tuple[str, str]] = None
             ) -> str:
        """The word at ``addr``: the value last stored or read there if
        no store since can have touched it."""
        key = self.key(addr)
        value = self.known.get(key)
        if value is None:
            b, o = where or self.place(addr)
            value = self.known[key] = self.value(f"U({b}, {o})[0]")
        return value

    def write(self, addr: str, value: str,
              where: Optional[Tuple[str, str]] = None) -> None:
        key = self.key(addr)
        b, o = where or self.place(addr)
        value = self.value(value)
        self.emit(f"P({b}, {o}, {value})")
        root, off = key
        self.known = {
            k: v for k, v in self.known.items()
            if k[0] == root and 4 <= (k[1] - off) & _M <= _M - 3
        }
        self.known[key] = value

    def push_slot(self) -> str:
        """Decrement esp; returns the new top's address."""
        return self.set(4, self.offset(self.get(4), -4))

    def pop_word(self) -> str:
        """The word at esp, then esp incremented past it."""
        top = self.get(4)
        value = self.read(top)
        self.set(4, self.offset(top, 4))
        return value


def stretch_source(code: bytes) -> str:
    """Python source of the stretch function for ``code``, wherever in
    text it lies: the function takes the stretch's address as ``eip``.

    Generated twice: the first pass finds the words each root is used
    to address, the second checks the words addressed from the entry
    stack and frame pointers, and the absolute ones, once per root.
    """
    spans = {}
    for root, offsets in _generate(code, {}).accessed.items():
        if root in _STACK_ROOTS:
            offsets = [_signed(off) for off in offsets]
            if max(map(abs, offsets)) < _S // 2:
                spans[root] = (min(offsets), max(offsets))
        elif not root:
            spans[root] = (min(offsets), max(offsets))
    return "\n".join(_pruned(_generate(code, spans).lines)) + "\n"


def _pruned(lines: List[str]) -> List[str]:
    """``lines`` without the assignments, outside any branch, of names
    nothing reads. Each such line is an address, a register or flags
    value, or a load whose word an earlier line checked, so it has no
    effect and cannot raise."""
    while True:
        uses = Counter(
            name for line in lines for name in _NAME.findall(line)
        )
        kept = [
            line for line in lines
            if not ((m := _ASSIGNED.match(line)) and uses[m[1]] == 1)
        ]
        if len(kept) == len(lines):
            return lines
        lines = kept


def _minus(name: str, value: int) -> str:
    return f"{name} - {value}" if value >= 0 else f"{name} + {-value}"


def _signed(value: int) -> int:
    return value - (_M + 1) if value & _S else value


def _at(off: int) -> str:
    """The address ``off`` bytes into the stretch, as tier 1 computes
    fall-through addresses."""
    return f"eip + {off}" if off else "eip"


def _target(value: int) -> str:
    """A relative transfer's target, decoded at offset 0 as ``value``,
    as tier 1 computes it from the stretch's address."""
    return f"({_minus('eip', -_signed(value))}) & {_M}"


def _generate(code: bytes, spans: Dict[str, Tuple[int, int]]) -> _Stretch:
    """Emit ``code``, decoded as if at address 0: relative targets and
    fall-through addresses come out as offsets into the stretch."""
    g = _Stretch(spans)
    off = 0
    k = 0
    target: Optional[str] = None
    while off < len(code):
        instr, length = decode_instruction(code, off, off)
        g.checkpoint(k, off)
        off += length
        k += 1
        target = _EMITTERS[instr.mnemonic](g, instr, off)
        if target is not None:
            break
    g.leave(_at(off) if target is None else target)
    return g


# Each emitter takes (generator, instruction, fall-through offset) and
# emits the instruction; a control transfer returns the next-eip
# expression, every other instruction None. Operands are read before
# any register they name is written, as the tier-1 handlers do.


def _e_mov_ri(g, instr, nxt):
    g.set(instr.operands[0].code, str(instr.operands[1].value & _M))


def _e_mov_rr(g, instr, nxt):
    d, s = (op.code for op in instr.operands)
    g.set(d, g.get(s))


def _e_load(g, instr, nxt):
    g.set(instr.operands[0].code, g.read(g.address(instr.operands[1])))


def _e_store(g, instr, nxt):
    addr = g.address(instr.operands[0])
    g.write(addr, g.get(instr.operands[1].code))


def _e_mov_mi(g, instr, nxt):
    g.write(g.address(instr.operands[0]), str(instr.operands[1].value & _M))


def _e_lea(g, instr, nxt):
    g.set(instr.operands[0].code, g.address(instr.operands[1]))


def _e_xchg_rm(g, instr, nxt):
    d = instr.operands[0].code
    addr = g.address(instr.operands[1])
    where = g.place(addr)
    old = g.read(addr, where)
    g.write(addr, g.get(d), where)
    g.set(d, old)


def _e_xchg_rr(g, instr, nxt):
    a, b = (op.code for op in instr.operands)
    va, vb = g.get(a), g.get(b)
    g.set(a, vb)
    g.set(b, va)


def _e_push(g, instr, nxt):
    value = g.get(instr.operands[0].code)
    g.write(g.push_slot(), value)


def _e_pop(g, instr, nxt):
    g.set(instr.operands[0].code, g.pop_word())


def _e_pushi(g, instr, nxt):
    g.write(g.push_slot(), str(instr.operands[0].value & _M))


def _e_pushf(g, instr, nxt):
    packed = g.value(f"({g.condition('je')}) | (({g.condition('jl')}) << 1)")
    g.write(g.push_slot(), packed)


def _e_popf(g, instr, nxt):
    packed = g.pop_word()
    g.flags = ("val", g.value(
        f"0 if {packed} & 1 else (-1 if {packed} & 2 else 1)"
    ))


def _alu(g, op: str, a: str, b: str) -> Optional[str]:
    """Set the flags of ``a op b`` (unsigned names or literals); returns
    the wrapped result to store, ``None`` for a compare."""
    if op in ("sub", "cmp"):
        g.flags = ("cmp", a, b)
        if op == "cmp":
            return None
        if _literal(b) is not None:
            return g.offset(a, -int(b))
        return f"({a} - {b}) & {_M}"
    if op == "add":
        g.flags = ("val", f"{_flip(a)} + {_flip(b)} - {2 * _S}")
        if _literal(b) is not None:
            return g.offset(a, int(b))
        return f"({a} + {b}) & {_M}"
    symbol = {"and": "&", "test": "&", "or": "|", "xor": "^"}[op]
    if op == "test":
        g.flags = ("sgn", a if a == b else f"({a} {symbol} {b})")
        return None
    result = g.value(f"{a} {symbol} {b}")
    g.flags = ("sgn", result)
    return result


def _e_alu_rr(g, instr, nxt):
    d, s = (op.code for op in instr.operands)
    result = _alu(g, instr.mnemonic.partition("_")[0], g.get(d), g.get(s))
    if result is not None:
        g.set(d, result)


def _e_alu_ri(g, instr, nxt):
    d = instr.operands[0].code
    b = str(instr.operands[1].value & _M)
    result = _alu(g, instr.mnemonic.partition("_")[0], g.get(d), b)
    if result is not None:
        g.set(d, result)


def _e_alu_mr(g, instr, nxt):
    """add_mr, sub_mr, xor_mr: [address] op= register."""
    addr = g.address(instr.operands[0])
    where = g.place(addr)
    old = g.read(addr, where)
    result = _alu(g, instr.mnemonic.partition("_")[0], old,
                  g.get(instr.operands[1].code))
    g.write(addr, result, where)


def _e_alu_rm(g, instr, nxt):
    """add_rm, xor_rm, cmp_rm: register op= [address]."""
    d = instr.operands[0].code
    a = g.get(d)
    b = g.read(g.address(instr.operands[1]))
    result = _alu(g, instr.mnemonic.partition("_")[0], a, b)
    if result is not None:
        g.set(d, result)


def _e_cmp_mi(g, instr, nxt):
    a = g.read(g.address(instr.operands[0]))
    g.flags = ("cmp", a, str(instr.operands[1].value & _M))


def _shift_count(g, instr) -> str:
    if instr.mnemonic.endswith("_ri"):
        return str(instr.operands[1].value & 31)
    return f"({g.get(instr.operands[1].code)} & 31)"


def _e_shl(g, instr, nxt):
    d = instr.operands[0].code
    count = _shift_count(g, instr)
    g.flags = ("sgn", g.set(d, f"({g.get(d)} << {count}) & {_M}"))


def _e_shr(g, instr, nxt):
    d = instr.operands[0].code
    count = _shift_count(g, instr)
    g.flags = ("val", g.set(d, f"{g.get(d)} >> {count}"))


def _e_sar(g, instr, nxt):
    d = instr.operands[0].code
    count = _shift_count(g, instr)
    r = g.value(f"({_flip(g.get(d))} - {_S}) >> {count}")
    g.set(d, f"{r} & {_M}")
    g.flags = ("val", r)


def _e_neg(g, instr, nxt):
    d = instr.operands[0].code
    r = g.value(f"{_S} - {_flip(g.get(d))}")
    g.set(d, f"{r} & {_M}")
    g.flags = ("val", r)


def _e_not(g, instr, nxt):
    d = instr.operands[0].code
    g.set(d, f"{g.get(d)} ^ {_M}")


def _e_imul_rr(g, instr, nxt):
    d, s = (op.code for op in instr.operands)
    g.flags = ("sgn", g.set(d, f"({g.get(d)} * {g.get(s)}) & {_M}"))


def _e_imul_rri(g, instr, nxt):
    d, s = instr.operands[0].code, instr.operands[1].code
    k = instr.operands[2].value & _M
    g.flags = ("sgn", g.set(d, f"({g.get(s)} * {k}) & {_M}"))


def _e_idiv(g, instr, nxt):
    divisor = g.value(f"{_flip(g.get(instr.operands[0].code))} - {_S}")
    g.emit(f"if {divisor} == 0:")
    g.emit(f"    {g.bail}")
    dividend = g.value(f"{_flip(g.get(0))} - {_S}")
    q = g.temp()
    g.emit(f"{q} = abs({dividend}) // abs({divisor})")
    g.emit(f"if ({dividend} < 0) != ({divisor} < 0):")
    g.emit(f"    {q} = -{q}")
    g.set(0, f"{q} & {_M}")
    g.set(2, f"({dividend} - {q} * {divisor}) & {_M}")


def _e_nop(g, instr, nxt):
    pass


def _e_jmp(g, instr, nxt):
    return _target(instr.operands[0].value)


def _e_jcc(g, instr, nxt):
    taken = _target(instr.operands[0].value)
    return f"{taken} if {g.condition(instr.mnemonic)} else {_at(nxt)}"


def _e_call(g, instr, nxt):
    g.write(g.push_slot(), f"({_at(nxt)}) & {_M}")
    return _target(instr.operands[0].value)


def _e_call_a(g, instr, nxt):
    top = g.push_slot()
    cell = str(instr.operands[0].disp & _M)
    top_at, cell_at = g.place(top), g.place(cell)
    g.write(top, f"({_at(nxt)}) & {_M}", top_at)
    return g.read(cell, cell_at)


def _e_jmp_a(g, instr, nxt):
    return g.read(str(instr.operands[0].disp & _M))


def _e_jmp_r(g, instr, nxt):
    return g.get(instr.operands[0].code)


def _e_ret(g, instr, nxt):
    return g.pop_word()


_EMITTERS: Dict[str, Callable[..., Optional[str]]] = {
    "mov_ri": _e_mov_ri, "mov_rr": _e_mov_rr,
    "mov_rm": _e_load, "mov_ra": _e_load, "mov_rx": _e_load,
    "mov_mr": _e_store, "mov_ar": _e_store, "mov_mi": _e_mov_mi,
    "lea": _e_lea, "xchg_rm": _e_xchg_rm, "xchg_rr": _e_xchg_rr,
    "push": _e_push, "pop": _e_pop, "pushi": _e_pushi,
    "pushf": _e_pushf, "popf": _e_popf,
    "add_mr": _e_alu_mr, "sub_mr": _e_alu_mr, "xor_mr": _e_alu_mr,
    "add_rm": _e_alu_rm, "xor_rm": _e_alu_rm, "cmp_rm": _e_alu_rm,
    "cmp_mi": _e_cmp_mi,
    "neg": _e_neg, "not": _e_not,
    "imul_rr": _e_imul_rr, "imul_rri": _e_imul_rri, "idiv": _e_idiv,
    "jmp": _e_jmp, "call": _e_call, "jmp_a": _e_jmp_a, "call_a": _e_call_a,
    "jmp_r": _e_jmp_r, "ret": _e_ret, "nop": _e_nop,
}
for _op in ("add", "sub", "and", "or", "xor", "cmp", "test"):
    _EMITTERS[f"{_op}_rr"] = _e_alu_rr
for _op in ("add", "sub", "and", "or", "xor", "cmp"):
    _EMITTERS[f"{_op}_ri"] = _e_alu_ri
for _op, _emit in (("shl", _e_shl), ("shr", _e_shr), ("sar", _e_sar)):
    _EMITTERS[f"{_op}_ri"] = _EMITTERS[f"{_op}_rr"] = _emit
for _op in _REL:
    _EMITTERS[_op] = _e_jcc
