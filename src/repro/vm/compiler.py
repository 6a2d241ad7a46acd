"""Precompilation of WVM functions into a dense dispatch form.

The seed interpreter re-dispatched on opcode *strings* and re-looked-up
label targets in a dict on every executed branch. This module performs
all of that work exactly once per function:

* every opcode becomes a small integer (``OP_*``) so the run loop
  dispatches on int comparisons;
* label pseudo-instructions disappear from the executed stream — every
  branch target is resolved to the dense index of the next real
  instruction, and the label *objects* survive only where tracing
  semantics need them (branch-event followers, full-trace site keys);
* operands are pre-decoded (const values, local slots, branch targets,
  iinc deltas), so the loop never touches :class:`Instruction` objects;
* for every conditional branch of a traced run both possible
  :class:`~repro.vm.tracing.BranchEvent` objects are pre-created, so the
  traced loops append a ready-made event instead of constructing one
  per execution, and each edge carries its outcome code for the in-loop
  bit decode (see :class:`CompiledFunction`);
* for a full-traced run, the tuple of
  :class:`~repro.vm.tracing.SiteKey` objects crossed on every control
  transfer is pre-computed, so the full-traced loop records sites
  without looking at labels at run time. Branch and untraced runs
  build no site tables: the label map comes from the same pass that
  numbers the slots.

One slot is one instruction: a slot adds one to ``steps`` and a
fall-through advances by one. Straight-line runs of hot slots execute
as tier-2 blocks (:mod:`repro.vm.tier2`).

The compiled form is private to the interpreter; nothing here changes
observable semantics. See ``docs/performance.md`` for the design notes
and the measured effect.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .instructions import Instruction
from .program import Function, VMFormatError
from .tracing import BranchEvent, SiteKey

# ---------------------------------------------------------------------------
# Opcode integers. The numeric layout is load-bearing: the run loop's
# dispatch tree tests ranges (hot singles < 10, conditionals in
# [10, 22), ...), so renumbering requires matching edits in
# interpreter.py.
# ---------------------------------------------------------------------------

OP_LOAD = 0
OP_CONST = 1
OP_ADD = 2
OP_STORE = 3
OP_ALOAD = 4
OP_MUL = 5
OP_BAND = 6
OP_SUB = 7
OP_ASTORE = 8
OP_IINC = 9
# conditional branches: if_icmp* in [10, 16), zero-compares in [16, 22),
# ordered eq, ne, lt, le, gt, ge within each family.
OP_ICMPEQ, OP_ICMPNE, OP_ICMPLT, OP_ICMPLE, OP_ICMPGT, OP_ICMPGE = range(10, 16)
OP_IFEQ, OP_IFNE, OP_IFLT, OP_IFLE, OP_IFGT, OP_IFGE = range(16, 22)
OP_GOTO = 22
OP_CALL = 23
OP_RET = 24
OP_GLOAD = 25
OP_GSTORE = 26
OP_DIV = 27
OP_MOD = 28
OP_BOR = 29
OP_BXOR = 30
OP_SHL = 31
OP_SHR = 32
OP_NEG = 33
OP_BNOT = 34
OP_DUP = 35
OP_POP = 36
OP_SWAP = 37
OP_NEWARRAY = 38
OP_ALEN = 39
OP_PRINT = 40
OP_INPUT = 41
OP_NOP = 42
OP_HALT = 43
#: Sentinel appended after the last real instruction: executing it means
#: control fell off the end of the function.
OP_END = 44

_STR2INT: Dict[str, int] = {
    "load": OP_LOAD, "const": OP_CONST, "add": OP_ADD, "store": OP_STORE,
    "aload": OP_ALOAD, "mul": OP_MUL, "band": OP_BAND, "sub": OP_SUB,
    "astore": OP_ASTORE, "iinc": OP_IINC,
    "if_icmpeq": OP_ICMPEQ, "if_icmpne": OP_ICMPNE, "if_icmplt": OP_ICMPLT,
    "if_icmple": OP_ICMPLE, "if_icmpgt": OP_ICMPGT, "if_icmpge": OP_ICMPGE,
    "ifeq": OP_IFEQ, "ifne": OP_IFNE, "iflt": OP_IFLT, "ifle": OP_IFLE,
    "ifgt": OP_IFGT, "ifge": OP_IFGE,
    "goto": OP_GOTO, "call": OP_CALL, "ret": OP_RET,
    "gload": OP_GLOAD, "gstore": OP_GSTORE,
    "div": OP_DIV, "mod": OP_MOD, "bor": OP_BOR, "bxor": OP_BXOR,
    "shl": OP_SHL, "shr": OP_SHR, "neg": OP_NEG, "bnot": OP_BNOT,
    "dup": OP_DUP, "pop": OP_POP, "swap": OP_SWAP,
    "newarray": OP_NEWARRAY, "alen": OP_ALEN,
    "print": OP_PRINT, "input": OP_INPUT, "nop": OP_NOP, "halt": OP_HALT,
}

#: Mnemonics whose operand is a jump target label.
_JUMPS = frozenset(
    name for name, op in _STR2INT.items() if 10 <= op <= OP_GOTO
)

#: A conditional-branch edge: (event, branch, outcome code).
_Edge = Tuple[BranchEvent, Instruction, Instruction]


class CompiledFunction:
    """One function in dense precompiled form.

    Parallel arrays indexed by dense pc (one slot per real instruction,
    plus the ``OP_END`` sentinel):

    * ``ops`` — int opcode;
    * ``aa``/``bb`` — pre-decoded operands (meaning is per-opcode:
      slots, const values, dense branch targets, iinc deltas);
    * ``evt``/``evf`` — for conditional-branch slots of a traced
      compile, the taken / not-taken edge as ``(event, branch, code)``:
      the pre-built :class:`BranchEvent`, the branch instruction (the
      key of the run's first-outcome table) and the edge's outcome
      code, which is the follower instruction itself. A branch whose
      target is its fall-through follower thus has one code on both
      edges and always decodes to 0, exactly as
      :func:`~repro.core.bitstring.decode_bits` decodes its pairs. An
      untraced compile leaves every edge ``None``;
    * ``fs`` — :class:`SiteKey` tuple crossed when falling through
      *out of* this slot (labels between it and the next real
      instruction); full-trace compiles only;
    * ``ts`` — SiteKey tuple crossed when *jumping* via this slot;
      full-trace compiles only;
    * ``raw_of`` — raw ``fn.code`` index of each slot, for diagnostics
      and for reading a tier-2 block's instructions;
    * ``blk`` — per slot, the run loop's tier-2 state (see
      :mod:`repro.vm.tier2`): ``None`` until the loop first arrives
      there, then the installed block, or ``False`` for no block.

    ``entry_sites`` is the ``<entry>`` key plus any labels preceding the
    first real instruction, recorded on frame entry in full-trace mode.

    ``mode`` is the run's trace mode: ``None`` builds no branch edges,
    and only ``"full"`` builds the site tables ``fs``, ``ts`` and
    ``entry_sites`` (``None`` otherwise), which only the full-traced
    loop reads.
    """

    __slots__ = (
        "name", "params", "nlocals", "ops", "aa", "bb", "evt", "evf",
        "fs", "ts", "raw_of", "entry_sites", "fn", "blk", "pending",
    )

    def __init__(self, fn: Function, mode: Optional[str] = "full"):
        self.fn = fn
        self.name = fn.name
        self.params = fn.params
        self.nlocals = fn.locals_count
        _build(self, fn, mode)
        self.blk: List[Any] = [None] * len(self.ops)
        self.pending: Dict[int, list] = {}

    def mnemonic(self, pc: int) -> str:
        """Best-effort mnemonic of the slot at dense ``pc``."""
        if 0 <= pc < len(self.raw_of):
            instr = self.fn.code[self.raw_of[pc]]
            return instr.op
        return "<end>"


def _label_sites(fn: Function) -> List[Tuple[SiteKey, ...]]:
    """Per raw pc: the tuple of label SiteKeys crossed from it to the
    next real instruction."""
    raw = fn.code
    n = len(raw)
    sites_at: List[Tuple[SiteKey, ...]] = [()] * (n + 1)
    run: List[SiteKey] = []
    for p in range(n - 1, -1, -1):
        instr = raw[p]
        if instr.op == "label":
            run.insert(0, SiteKey(fn.name, instr.arg))
            sites_at[p] = tuple(run)
        else:
            run.clear()
    return sites_at


def _build(out: CompiledFunction, fn: Function, mode: Optional[str]) -> None:
    raw = fn.code
    n = len(raw)
    traced = mode is not None

    # One pass: the dense index of every raw pc, and the label map.
    dense_at = [0] * (n + 1)
    labels: Dict[str, int] = {}
    d = 0
    for p, instr in enumerate(raw):
        dense_at[p] = d
        if instr.op == "label":
            if instr.arg in labels:
                raise VMFormatError(
                    f"{fn.name}: duplicate label {instr.arg!r}"
                )
            labels[instr.arg] = p
        else:
            d += 1
    dense_at[n] = d

    ops: List[int] = []
    aa: List[Any] = []
    bb: List[Any] = []
    raw_of: List[int] = []
    evt: List[Optional[_Edge]] = [None] * d
    evf: List[Optional[_Edge]] = [None] * d

    for p, instr in enumerate(raw):
        name = instr.op
        if name == "label":
            continue
        op = _STR2INT[name]
        a: Any = instr.arg
        if 10 <= op < 23:  # conditional branch or goto
            target = labels[a]
            a = dense_at[target]
            if traced and op != OP_GOTO:
                i = len(ops)
                follower_not = raw[p + 1] if p + 1 < n else instr
                evt[i] = (BranchEvent(instr, raw[target], True), instr,
                          raw[target])
                evf[i] = (BranchEvent(instr, follower_not, False), instr,
                          follower_not)
        ops.append(op)
        aa.append(a)
        bb.append(instr.arg2)
        raw_of.append(p)

    # OP_END sentinel: falling onto it (or branching to a trailing
    # label) traps exactly where the seed engine raised.
    for arr, fill in ((ops, OP_END), (aa, None), (bb, None), (evt, None),
                      (evf, None)):
        arr.append(fill)

    out.ops = ops
    out.aa = aa
    out.bb = bb
    out.evt = evt
    out.evf = evf
    out.raw_of = raw_of
    if mode == "full":
        _site_tables(out, fn, labels)
    else:
        out.fs = out.ts = out.entry_sites = None


def _site_tables(
    out: CompiledFunction, fn: Function, labels: Dict[str, int]
) -> None:
    """The full-trace site tables: per slot, the sites crossed falling
    through out of it and jumping via it (the ``OP_END`` sentinel
    crosses none)."""
    raw = fn.code
    sites_at = _label_sites(fn)
    fs: List[Tuple[SiteKey, ...]] = []
    ts: List[Tuple[SiteKey, ...]] = []
    for p in out.raw_of:
        instr = raw[p]
        fs.append(sites_at[p + 1])
        ts.append(sites_at[labels[instr.arg]] if instr.op in _JUMPS else ())
    fs.append(())
    ts.append(())
    out.fs = fs
    out.ts = ts
    out.entry_sites = (SiteKey(fn.name, "<entry>"),) + sites_at[0]
