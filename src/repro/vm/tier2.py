"""Tier 2 of the WVM run loop: hot basic blocks as generated Python.

The untraced, branch-traced and full-traced loops (tier 1) dispatch
one dense slot at a time. At every control transfer they look up the
slot they land on in ``CompiledFunction.blk``; when it starts a
*block* that has turned hot, the loop calls one generated Python
function for the whole block instead.

* **Block.** A straight-line run of real instructions with no label
  inside it. It ends at a conditional branch or a ``goto`` (included),
  or just before a label, ``call``, ``ret``, ``halt`` or ``input``
  (those stay with tier 1: they touch frames, the input cursor or the
  run's end). One tier-1 slot is one instruction, so a block start is
  always a tier-1 slot and the tier-1 arrays need no change.
* **Generated function.** ``f(loc, glob, stack, heap, out)``. Operand
  stack traffic inside the block becomes Python temporaries; the
  function pops from the real stack only what the block did not push,
  and pushes what is left at its end. A block ending in a conditional
  branch returns whether the branch is taken; every other block
  returns ``True``. The loop adds the block's step count once and
  records the terminating branch's event and bit from the slot's
  existing ``evt``/``evf`` edges, as tier 1 does. A full-traced run
  also snapshots the sites of the edge the block leaves by (its only
  site crossing), from the slot's ``ts``/``fs`` tables.
* **Cache.** One per process, shared by threads, keyed by the block's
  content with its position removed: each instruction's opcode and
  operands, without the terminator's label name. Branch targets stay
  in the per-function ``blk`` entry. A copy that renames labels or
  moves a block therefore hits the cache. The cache holds at most
  ``_CAP`` blocks and evicts the least recently used.
* **Promotion.** A block is generated after ``_THRESHOLD`` arrivals in
  one run, so code that runs a few times never pays for code
  generation. A block that is already cached runs in tier 2 from its
  first arrival.
* **Exactness.** The loop runs a block whose steps could cross
  ``max_steps`` as its tier-1 slots, so ``StepLimitExceeded`` lands on
  the same step and in the same function. A trap inside a block raises
  the message tier 1 raises, evaluated in the same instruction order,
  and a stack underflow, which a block cannot attribute to one
  instruction, replays the run on the reference engine.
"""

from __future__ import annotations

import itertools
import operator
import threading
import types
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from .instructions import CONDITIONAL_BRANCHES, wrap64

#: Arrivals at a block, within one run, before it is generated.
_THRESHOLD = 8

#: Most blocks the process-wide cache holds. A generated block takes
#: about 2.6 KB, so the cache stays near 5 MB however long the
#: process serves new copies.
_CAP = 2048

_MIN64 = -(1 << 63)
_MAX64 = (1 << 63) - 1

#: Instructions a block never contains: it ends just before them.
_STOPS = frozenset({"call", "ret", "halt", "input"})

Key = Tuple[Tuple[str, Any, Any], ...]

_cache: "OrderedDict[Key, Callable]" = OrderedDict()
_lock = threading.Lock()


def arrive(cf, pc: int) -> Any:
    """The loop arrived at dense ``pc`` of ``cf`` and found no block.

    Counts the arrival and returns the installed block tuple once the
    block is cached or turns hot; otherwise a false value, after which
    the loop runs tier 1 from ``pc``. A slot that starts no block is
    marked ``False`` so the loop never asks again.
    """
    pend = cf.pending.get(pc)
    if pend is None:
        found = _scan(cf, pc)
        if found is None:
            cf.blk[pc] = False
            return False
        key, end = found
        with _lock:
            f = _cache.get(key)
            if f is not None:
                _cache.move_to_end(key)
        if f is not None:
            return _install(cf, pc, end, f)
        cf.pending[pc] = pend = [0, key, end]
    pend[0] += 1
    if pend[0] < _THRESHOLD:
        return None
    del cf.pending[pc]
    _, key, end = pend
    return _install(cf, pc, end, _generate(key))


def _scan(cf, start: int) -> Optional[Tuple[Key, int]]:
    """The block starting at dense ``start``: its key and end slot."""
    code = cf.fn.code
    raw_of = cf.raw_of
    n = len(raw_of)
    items: List[Tuple[str, Any, Any]] = []
    k = start
    while k < n:
        p = raw_of[k]
        if k > start and p != raw_of[k - 1] + 1:
            break  # a label lies between the two slots
        instr = code[p]
        op = instr.op
        if op in _STOPS:
            break
        if op in CONDITIONAL_BRANCHES or op == "goto":
            items.append((op, None, None))
            k += 1
            break
        arg, arg2 = instr.arg, instr.arg2
        if not (type(arg) is int or arg is None) or not (
            type(arg2) is int or arg2 is None
        ):
            break  # keys compare 1 == 1.0 == True: leave odd operands to tier 1
        items.append((op, arg, arg2))
        k += 1
    if not items:
        return None
    return tuple(items), k


def _install(cf, pc: int, end: int, f: Callable) -> tuple:
    """Bind a generated block to its position in ``cf``.

    The entry is ``(f, steps, taken target, not-taken target, taken
    edge, not-taken edge)``; a full-trace compile appends the site
    tuples crossed on the taken and the not-taken edge. A block holds
    no label, so the exit of its last slot is its only site crossing.
    Both edges of a branch to the label after it land on one slot, but
    a jump to the second of two adjacent labels crosses fewer sites
    than the fall-through, so the taken tuple is never inferred from
    the landing slot.
    """
    last = end - 1
    op = cf.fn.code[cf.raw_of[last]].op
    if op in CONDITIONAL_BRANCHES:
        entry = (f, end - pc, cf.aa[last], end, cf.evt[last], cf.evf[last])
    elif op == "goto":
        entry = (f, end - pc, cf.aa[last], end, None, None)
    else:
        entry = (f, end - pc, end, end, None, None)
    if cf.fs is not None:
        jumps = op in CONDITIONAL_BRANCHES or op == "goto"
        entry += (cf.ts[last] if jumps else cf.fs[last], cf.fs[last])
    cf.blk[pc] = entry
    return entry


def _generate(key: Key) -> Callable:
    with _lock:
        f = _cache.get(key)
    if f is None:
        if "VMError" not in _GLOBALS:
            from .interpreter import VMError  # the loop's trap type

            _GLOBALS["VMError"] = VMError
        unit = compile(block_source(key), "<wvm-block>", "exec")
        body = next(c for c in unit.co_consts
                    if isinstance(c, types.CodeType))
        f = types.FunctionType(body, _GLOBALS, "_block")
        with _lock:
            _cache[key] = f
            while len(_cache) > _CAP:
                _cache.popitem(last=False)
    return f


def cache_size() -> int:
    """Number of generated blocks the process holds."""
    return len(_cache)


def clear_cache() -> None:
    """Drop every generated block (the next runs start cold)."""
    with _lock:
        _cache.clear()


#: Globals of every generated block.
_GLOBALS: Dict[str, Any] = {"wrap": wrap64}

#: Binops that never trap: Python operator, and the constant folder.
_BINOPS = {
    "add": ("+", operator.add), "sub": ("-", operator.sub),
    "mul": ("*", operator.mul), "band": ("&", operator.and_),
    "bor": ("|", operator.or_), "bxor": ("^", operator.xor),
    "shl": ("<<", lambda a, b: a << (b & 63)),
    "shr": (">>", lambda a, b: a >> (b & 63)),
}
_CMPS = {
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
}

#: Largest magnitude CPython keeps in one 30-bit digit. Comparing such
#: an int with these bounds takes the interpreter's fast int path, so
#: the 64-bit range check tests them first.
_SMALL = (1 << 30) - 1


class _Val:
    """An operand-stack entry of a block being generated.

    ``expr`` is a literal, a temporary, or a deferred ``loc[i]`` /
    ``glob[j]`` read (then ``reads`` names that slot). ``in64`` says
    the value is known to lie in the signed 64-bit range.
    """

    __slots__ = ("expr", "reads", "in64")

    def __init__(self, expr: str, reads: Optional[str] = None,
                 in64: bool = False):
        self.expr = expr
        self.reads = reads
        self.in64 = in64

    def literal(self) -> Optional[int]:
        """The value of a constant operand, else ``None``."""
        try:
            return int(self.expr.strip("()"))
        except ValueError:
            return None


def block_source(key: Key) -> str:
    """Python source of the block function for ``key``.

    A deferred read is materialized into a temporary before anything
    writes its slot, and a slot written with a temporary or literal is
    read back from it, so every value is the one tier 1 would have
    pushed. Results are wrapped to 64 bits exactly where tier 1 wraps
    them, except where the operands prove the result already in range.
    """
    lines: List[str] = ["def _block(loc, glob, stack, heap, out):"]
    vs: List[_Val] = []
    known: Dict[str, _Val] = {}  # slot -> the value last stored there
    temps = itertools.count()

    def emit(line: str) -> None:
        lines.append("    " + line)

    def temp() -> str:
        return f"t{next(temps)}"

    def take() -> _Val:
        if vs:
            return vs.pop()
        name = temp()
        emit(f"{name} = stack.pop()")
        return _Val(name)

    def fixed(val: _Val) -> _Val:
        """``val`` as a literal or temporary (it is used repeatedly)."""
        if val.reads is None:
            return val
        name = temp()
        emit(f"{name} = {val.expr}")
        return _Val(name, None, val.in64)

    def read(slot: str) -> None:
        vs.append(known.get(slot) or _Val(slot, slot))

    def write(slot: str, val: _Val) -> None:
        for i, entry in enumerate(vs):
            if entry.reads == slot:
                vs[i] = fixed(entry)
        emit(f"{slot} = {val.expr}")
        if val.reads is None:
            known[slot] = val
        else:
            known.pop(slot, None)

    def result(expr: str, check: bool = True, in64: bool = True) -> _Val:
        """A new temporary holding ``expr``, wrapped unless ``check``
        is false; ``expr`` may be a temporary to wrap in place."""
        name = expr if expr.isidentifier() else temp()
        if name != expr:
            emit(f"{name} = {expr}")
        if check:
            emit(f"if not {-_SMALL} <= {name} <= {_SMALL}:")
            emit(f"    if not {_MIN64} <= {name} <= {_MAX64}:")
            emit(f"        {name} = wrap({name})")
        return _Val(name, None, in64)

    def spill() -> None:
        if len(vs) == 1:
            emit(f"stack.append({vs[0].expr})")
        elif vs:
            emit(f"stack += ({', '.join(v.expr for v in vs)})")

    for op, arg, arg2 in key:
        if op == "const":
            vs.append(_Val(_lit(arg), None, _MIN64 <= arg <= _MAX64))
        elif op == "load":
            read(f"loc[{arg}]")
        elif op == "gload":
            read(f"glob[{arg}]")
        elif op == "store":
            write(f"loc[{arg}]", take())
        elif op == "gstore":
            write(f"glob[{arg}]", take())
        elif op == "iinc":
            slot = f"loc[{arg}]"
            base = known.get(slot) or _Val(slot)
            write(slot, result(f"{base.expr} + {_lit(arg2)}"))
        elif op in _BINOPS:
            b = take()
            a = take()
            symbol, fold = _BINOPS[op]
            la, lb = a.literal(), b.literal()
            if la is not None and lb is not None:
                value = wrap64(fold(la, lb))
                vs.append(_Val(_lit(value), None, True))
                continue
            if op in ("shl", "shr"):
                b = _Val(str(lb & 63)) if lb is not None else _Val(
                    f"({b.expr} & 63)")
            both = a.in64 and b.in64
            if op == "band":
                mask = (la is not None and 0 <= la <= _MAX64) or (
                    lb is not None and 0 <= lb <= _MAX64)
                check = not (both or mask)
            elif op in ("bor", "bxor"):
                check = not both
            elif op == "shr":
                check = not a.in64
            else:
                check = True
            vs.append(result(f"{a.expr} {symbol} {b.expr}", check))
        elif op in ("div", "mod"):
            b = fixed(take())
            a = fixed(take())
            what = "division" if op == "div" else "modulo"
            if b.literal() in (None, 0):
                emit(f"if {b.expr} == 0:")
                emit(f"    raise VMError('{what} by zero')")
            q = temp()
            emit(f"{q} = abs({a.expr}) // abs({b.expr})")
            emit(f"if ({a.expr} < 0) != ({b.expr} < 0):")
            emit(f"    {q} = -{q}")
            q = result(q)
            if op == "mod":
                q = result(f"{a.expr} - {q.expr} * {b.expr}")
            vs.append(q)
        elif op == "neg":
            vs.append(result(f"-{take().expr}"))
        elif op == "bnot":
            a = take()
            vs.append(result(f"~{a.expr}", not a.in64))
        elif op == "dup":
            if not vs:
                vs.append(take())
            vs.append(vs[-1])
        elif op == "pop":
            take()
        elif op == "swap":
            b = take()
            a = take()
            vs.extend((b, a))
        elif op == "aload":
            index = fixed(take())
            arr = _array(emit, temp, fixed(take()).expr, index.expr)
            vs.append(result(f"{arr}[{index.expr}]", False, False))
        elif op == "astore":
            value = take()
            index = fixed(take())
            arr = _array(emit, temp, fixed(take()).expr, index.expr)
            emit(f"{arr}[{index.expr}] = {value.expr}")
        elif op == "alen":
            ref = fixed(take()).expr
            _check_ref(emit, ref)
            vs.append(result(f"len(heap[{ref}])", False))
        elif op == "newarray":
            length = fixed(take()).expr
            emit(f"if {length} < 0 or {length} > 10_000_000:")
            emit(f"    raise VMError(f'bad array length {{{length}}}')")
            emit(f"heap.append([0] * {length})")
            vs.append(result("len(heap) - 1", False))
        elif op == "print":
            emit(f"out({take().expr})")
        elif op == "nop":
            pass
        elif op in CONDITIONAL_BRANCHES:
            if op.startswith("if_icmp"):
                b = take().expr
                a = take().expr
                cmp = _CMPS[op[7:]]
            else:
                a = take().expr
                b = "0"
                cmp = _CMPS[op[2:]]
            if vs:
                name = temp()
                emit(f"{name} = {a} {cmp} {b}")
                spill()
                emit(f"return {name}")
            else:
                emit(f"return {a} {cmp} {b}")
            break
        elif op == "goto":
            spill()
            emit("return True")
            break
        else:  # pragma: no cover - _scan admits no other opcode
            raise AssertionError(f"opcode {op!r} in a block")
    else:
        spill()
        emit("return True")
    return "\n".join(lines) + "\n"


def _lit(value: int) -> str:
    """A constant as an operand expression."""
    return f"({value!r})" if value < 0 else repr(value)


def _check_ref(emit: Callable[[str], None], ref: str) -> None:
    emit(f"if not 0 <= {ref} < len(heap):")
    emit(f"    raise VMError(f'bad array reference {{{ref}}}')")


def _array(emit, temp, ref: str, index: str) -> str:
    """Emit tier 1's reference and bounds checks; return the array."""
    _check_ref(emit, ref)
    arr = temp()
    emit(f"{arr} = heap[{ref}]")
    emit(f"if not 0 <= {index} < len({arr}):")
    emit(f"    raise VMError(f'array index {{{index}}} out of bounds "
         f"({{len({arr})}})')")
    return arr
