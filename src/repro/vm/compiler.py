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
  numbers the slots;
* a peephole pass fuses hot straight-line pairs and triples
  (``load;const``, ``const;mul``, ``load;const;if_icmpge``, ``add;store``,
  …) into superinstructions, cutting dispatches per logical step.

Fusion never crosses a label (so jump-ins and full-trace site recording
keep working) and the fused span's component slots keep their original
single-instruction encoding, so dense branch targets remain valid
without any re-indexing. ``steps`` accounting stays exact: a fused slot
adds the number of original instructions it covers.

The compiled form is private to the interpreter; nothing here changes
observable semantics. See ``docs/performance.md`` for the design notes
and the measured effect.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .instructions import Instruction, wrap64
from .program import Function, VMFormatError
from .tracing import BranchEvent, SiteKey

# ---------------------------------------------------------------------------
# Opcode integers. The numeric layout is load-bearing: the run loop's
# dispatch tree tests ranges (fused >= OP_FUSED_BASE, hot singles < 10,
# conditionals in [10, 22), ...), so renumbering requires matching edits
# in interpreter.py.
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

OP_FUSED_BASE = 45

# Fused push-push pairs: push <src1>, push <src2>. Source kinds are L
# (local), C (const), G (global); operands in aa/bb.
OP_LL2, OP_LC2, OP_LG2, OP_CL2, OP_CC2, OP_CG2, OP_GL2, OP_GC2, OP_GG2 = range(
    45, 54
)
# Fused push-push-binop triples: a = <src1>, b = <src2>, push(a BINOP b).
# Binop selector in cc. CCB is the constant-folded const/const case
# (result pre-computed into aa).
OP_LLB, OP_LCB, OP_LGB, OP_CLB, OP_CGB, OP_GLB, OP_GCB, OP_GGB = range(54, 62)
OP_CCB = 62
# Fused push-push-compare-branch triples (if_icmp family): a = <src1>,
# b = <src2>, branch on compare. Comparator selector in cc, dense branch
# target in dd.
OP_LLI, OP_LCI, OP_LGI, OP_CLI, OP_CGI, OP_GLI, OP_GCI, OP_GGI = range(63, 71)
# Fused push-binop pairs (second operand from src, first from stack,
# result replaces the stack top in place). Operand in aa, selector in bb.
OP_LB, OP_CB, OP_GB = range(71, 74)
# Fused push-compare-branch pairs, if_icmp family: b = <src>, a popped.
# Operand aa, comparator bb, dense target cc.
OP_LIC, OP_CIC, OP_GIC = range(74, 77)
# Fused push-compare-branch pairs, zero family: a = <src> (no stack
# traffic at all). Operand aa, comparator bb, dense target cc.
OP_LIZ, OP_CIZ, OP_GIZ = range(77, 80)
# Fused binop-store pairs: pop b, pop a, store (a BINOP b) to a local /
# global slot. Slot in aa, selector in bb.
OP_BSL, OP_BSG = 80, 81
# Fused push-store pairs: local/const/global straight into a local slot
# (operand aa, slot bb), and the same three into a global slot.
OP_LSL, OP_CSL, OP_GSL = 82, 83, 84
OP_LSG, OP_CSG, OP_GSG = 85, 86, 87
# store s1; load s2 — same-slot form keeps the value on the stack.
OP_SLS, OP_SLD = 88, 89
# store s; goto t    and    iinc s d; goto t
OP_SGO, OP_IGO = 90, 91

# Second-order superinstructions: a first-pass fused slot merged with
# the next live slot (see :func:`_fuse2`). Operand layouts in the
# interpreter arms; ``ee`` holds the fifth operand where needed.
OP_CBS = 95      # const;BINOP;store           -> loc[cc] = pop() OP(bb) aa
OP_CBB = 96      # const;OP1;OP2;store         -> loc[cc] = pop2 OP2(dd) (pop1 OP1(bb) aa)
OP_LGC = 97      # load;gload;const;BINOP      -> push loc[aa]; push glob[bb] OP(dd) cc
OP_GLB2 = 98     # gload;load;OP1;OP2          -> stack[-1] = stack[-1] OP2(dd) (glob[aa] OP1(cc) loc[bb])
OP_LCBSG = 99    # load;const;BINOP;store;goto -> loc[dd] = loc[aa] OP(cc) bb; pc = ee
OP_BLB = 100     # OP1;load;OP2                -> b=pop; stack[-1] = (stack[-1] OP1(cc) b) OP2(bb) loc[aa]
OP_LBCB = 101    # load;OP1;const;OP2          -> stack[-1] = (stack[-1] OP1(bb) loc[aa]) OP2(dd) cc
OP_BSLLCB = 102  # OP1;store;load;const;OP2    -> loc[aa] = pop2 OP1(bb) pop1; push loc[cc] OP2(ee) dd

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

#: int opcode -> mnemonic, for diagnostics (fused slots report the
#: leading component's mnemonic via ``raw_of``).
INT2STR: Dict[int, str] = {v: k for k, v in _STR2INT.items()}

#: Names for the fused opcodes, for dispatch-count profiles and
#: diagnostics. The short forms match the comments above (source kinds
#: L/C/G, B = binop, I = icmp branch, Z = zero-compare branch, S =
#: store). Kept in one table so a profile row can always be named.
FUSED_NAMES: Dict[int, str] = {
    45: "LL2", 46: "LC2", 47: "LG2", 48: "CL2", 49: "CC2", 50: "CG2",
    51: "GL2", 52: "GC2", 53: "GG2",
    54: "LLB", 55: "LCB", 56: "LGB", 57: "CLB", 58: "CGB", 59: "GLB",
    60: "GCB", 61: "GGB", 62: "CCB",
    63: "LLI", 64: "LCI", 65: "LGI", 66: "CLI", 67: "CGI", 68: "GLI",
    69: "GCI", 70: "GGI",
    71: "LB", 72: "CB", 73: "GB",
    74: "LIC", 75: "CIC", 76: "GIC",
    77: "LIZ", 78: "CIZ", 79: "GIZ",
    80: "BSL", 81: "BSG",
    82: "LSL", 83: "CSL", 84: "GSL", 85: "LSG", 86: "CSG", 87: "GSG",
    88: "SLS", 89: "SLD", 90: "SGO", 91: "IGO",
    95: "CBS", 96: "CBB", 97: "LGC", 98: "GLB2", 99: "LCBSG",
    100: "BLB", 101: "LBCB", 102: "BSLLCB",
}

#: One past the highest opcode the run loops can dispatch — the size
#: of a per-opcode dispatch-count array.
NUM_OPCODES = 103


def opcode_name(op: int) -> str:
    """Human-readable name of any dispatchable opcode (incl. fused)."""
    if op == OP_END:
        return "<end>"
    name = INT2STR.get(op) or FUSED_NAMES.get(op)
    return name if name is not None else f"op{op}"

# Binop selector codes for fused arithmetic, ordered by observed dynamic
# frequency on the jess-like workload (hot first => shallow dispatch).
SEL_ADD, SEL_MUL, SEL_ALOAD, SEL_BAND, SEL_MOD = range(5)
SEL_SUB, SEL_BOR, SEL_BXOR, SEL_SHL, SEL_SHR, SEL_DIV = range(5, 11)

_BINOP_SEL: Dict[int, int] = {
    OP_ADD: SEL_ADD, OP_MUL: SEL_MUL, OP_ALOAD: SEL_ALOAD,
    OP_BAND: SEL_BAND, OP_MOD: SEL_MOD, OP_SUB: SEL_SUB,
    OP_BOR: SEL_BOR, OP_BXOR: SEL_BXOR, OP_SHL: SEL_SHL,
    OP_SHR: SEL_SHR, OP_DIV: SEL_DIV,
}

# Comparator selector codes: eq, ne, lt, le, gt, ge — the same order as
# the opcode families, so sel = op - family_base.
SEL_EQ, SEL_NE, SEL_LT, SEL_LE, SEL_GT, SEL_GE = range(6)

_PUSHERS = (OP_LOAD, OP_CONST, OP_GLOAD)

#: (kind1, kind2) -> fused opcode, kinds indexed L=0, C=1, G=2.
_PUSH_KIND: Dict[int, int] = {OP_LOAD: 0, OP_CONST: 1, OP_GLOAD: 2}
_PP2 = (
    (OP_LL2, OP_LC2, OP_LG2),
    (OP_CL2, OP_CC2, OP_CG2),
    (OP_GL2, OP_GC2, OP_GG2),
)
_PPB = (
    (OP_LLB, OP_LCB, OP_LGB),
    (OP_CLB, OP_CCB, OP_CGB),  # [1][1] replaced by fold handling
    (OP_GLB, OP_GCB, OP_GGB),
)
_PPI = (
    (OP_LLI, OP_LCI, OP_LGI),
    (OP_CLI, None, OP_CGI),  # const/const compares stay unfused
    (OP_GLI, OP_GCI, OP_GGI),
)
_PB = {OP_LOAD: OP_LB, OP_CONST: OP_CB, OP_GLOAD: OP_GB}
_PIC = {OP_LOAD: OP_LIC, OP_CONST: OP_CIC, OP_GLOAD: OP_GIC}
_PIZ = {OP_LOAD: OP_LIZ, OP_CONST: OP_CIZ, OP_GLOAD: OP_GIZ}
_PS_LOCAL = {OP_LOAD: OP_LSL, OP_CONST: OP_CSL, OP_GLOAD: OP_GSL}
_PS_GLOBAL = {OP_LOAD: OP_LSG, OP_CONST: OP_CSG, OP_GLOAD: OP_GSG}

#: Pure-ish binops eligible as the arithmetic half of a fused slot.
#: div/mod may trap, aload bounds-checks — all raise the same VMError at
#: the same logical point either way, so they fuse safely.
_FUSABLE_BINOPS = frozenset(_BINOP_SEL)

#: Constant folding is restricted to ops that cannot trap and do not
#: touch run-time state.
_FOLDABLE = {
    SEL_ADD: lambda a, b: a + b,
    SEL_MUL: lambda a, b: a * b,
    SEL_BAND: lambda a, b: a & b,
    SEL_SUB: lambda a, b: a - b,
    SEL_BOR: lambda a, b: a | b,
    SEL_BXOR: lambda a, b: a ^ b,
    SEL_SHL: lambda a, b: a << (b & 63),
    SEL_SHR: lambda a, b: a >> (b & 63),
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
    * ``aa``/``bb``/``cc``/``dd`` — pre-decoded operands (meaning is
      per-opcode: slots, const values, dense branch targets, fusion
      selectors);
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
        "name", "params", "nlocals", "ops", "aa", "bb", "cc", "dd", "ee",
        "evt", "evf", "fs", "ts", "raw_of", "entry_sites", "fn", "blk",
        "pending",
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
    cc: List[Any] = [None] * d
    dd: List[Any] = [None] * d
    ee: List[Any] = [None] * d

    labeled = {dense_at[idx] for idx in labels.values()}
    _fuse(ops, aa, bb, cc, dd, evt, evf, labeled)
    _fuse2(ops, aa, bb, cc, dd, ee, labeled)

    # OP_END sentinel: falling onto it (or branching to a trailing
    # label) traps exactly where the seed engine raised.
    for arr, fill in ((ops, OP_END), (aa, None), (bb, None), (cc, None),
                      (dd, None), (ee, None), (evt, None), (evf, None)):
        arr.append(fill)

    out.ops = ops
    out.aa = aa
    out.bb = bb
    out.cc = cc
    out.dd = dd
    out.ee = ee
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
    """The full-trace site tables, derived from the fused layout.

    A slot covers its ``slot_width`` components, so it falls through
    past its last component's labels and jumps via its last component
    (the only one that can jump). Dead component slots keep their own
    single-instruction width, hence their own tables.
    """
    raw = fn.code
    sites_at = _label_sites(fn)
    raw_of = out.raw_of
    fs: List[Tuple[SiteKey, ...]] = []
    ts: List[Tuple[SiteKey, ...]] = []
    for i, op in enumerate(out.ops[:-1]):  # the OP_END sentinel last
        p = raw_of[i if op < OP_FUSED_BASE else i + _width(op) - 1]
        fs.append(sites_at[p + 1])
        last = raw[p]
        ts.append(sites_at[labels[last.arg]] if last.op in _JUMPS else ())
    fs.append(())
    ts.append(())
    out.fs = fs
    out.ts = ts
    out.entry_sites = (SiteKey(fn.name, "<entry>"),) + sites_at[0]


def _fuse(ops, aa, bb, cc, dd, evt, evf, labeled) -> None:
    """Peephole superinstruction pass over the dense arrays.

    Rewrites slot ``i`` in place to cover the following one or two
    slots; the covered slots keep their original encoding (they are
    only reachable by jumping to a label, and fusion never spans a
    label, so they become dead — kept as-is for safety and for the
    traced loops, which share these arrays).
    """
    n = len(ops)
    i = 0
    while i < n - 1:
        op1 = ops[i]
        op2 = ops[i + 1]
        if (i + 1) in labeled:
            i += 1
            continue
        op3 = ops[i + 2] if i + 2 < n and (i + 2) not in labeled else None

        if op1 in _PUSHERS:
            k1 = _PUSH_KIND[op1]
            if op3 is not None and op2 in _PUSHERS:
                k2 = _PUSH_KIND[op2]
                if op3 in _FUSABLE_BINOPS:
                    sel = _BINOP_SEL[op3]
                    if op1 == OP_CONST and op2 == OP_CONST:
                        fold = _FOLDABLE.get(sel)
                        if fold is None:
                            # const/const with a trapping or stateful
                            # binop: fuse just the pushes.
                            ops[i] = OP_CC2
                            bb[i] = aa[i + 1]
                            i += 2
                            continue
                        ops[i] = OP_CCB
                        aa[i] = wrap64(fold(aa[i], aa[i + 1]))
                    else:
                        ops[i] = _PPB[k1][k2]
                        bb[i] = aa[i + 1]
                        cc[i] = sel
                    i += 3
                    continue
                if 10 <= op3 < 16:  # if_icmp family
                    fused = _PPI[k1][k2]
                    if fused is not None:
                        ops[i] = fused
                        bb[i] = aa[i + 1]
                        cc[i] = op3 - OP_ICMPEQ
                        dd[i] = aa[i + 2]
                        evt[i] = evt[i + 2]
                        evf[i] = evf[i + 2]
                        i += 3
                        continue
                # plain push-push pair
                ops[i] = _PP2[k1][k2]
                bb[i] = aa[i + 1]
                i += 2
                continue
            if op2 in _PUSHERS:
                ops[i] = _PP2[k1][_PUSH_KIND[op2]]
                bb[i] = aa[i + 1]
                i += 2
                continue
            if op2 in _FUSABLE_BINOPS:
                ops[i] = _PB[op1]
                bb[i] = _BINOP_SEL[op2]
                i += 2
                continue
            if 10 <= op2 < 16:
                ops[i] = _PIC[op1]
                bb[i] = op2 - OP_ICMPEQ
                cc[i] = aa[i + 1]
                evt[i] = evt[i + 1]
                evf[i] = evf[i + 1]
                i += 2
                continue
            if 16 <= op2 < 22:
                ops[i] = _PIZ[op1]
                bb[i] = op2 - OP_IFEQ
                cc[i] = aa[i + 1]
                evt[i] = evt[i + 1]
                evf[i] = evf[i + 1]
                i += 2
                continue
            if op2 == OP_STORE:
                ops[i] = _PS_LOCAL[op1]
                bb[i] = aa[i + 1]
                i += 2
                continue
            if op2 == OP_GSTORE:
                ops[i] = _PS_GLOBAL[op1]
                bb[i] = aa[i + 1]
                i += 2
                continue
            i += 1
            continue

        if op1 in _FUSABLE_BINOPS and op2 in (OP_STORE, OP_GSTORE):
            sel = _BINOP_SEL[op1]
            ops[i] = OP_BSL if op2 == OP_STORE else OP_BSG
            aa[i] = aa[i + 1]
            bb[i] = sel
            i += 2
            continue

        if op1 == OP_STORE:
            if op2 == OP_LOAD:
                ops[i] = OP_SLS if aa[i] == aa[i + 1] else OP_SLD
                bb[i] = aa[i + 1]
                i += 2
                continue
            if op2 == OP_GOTO:
                ops[i] = OP_SGO
                bb[i] = aa[i + 1]
                i += 2
                continue
            i += 1
            continue

        if op1 == OP_IINC and op2 == OP_GOTO:
            ops[i] = OP_IGO
            cc[i] = aa[i + 1]
            i += 2
            continue

        i += 1


#: Opcode -> number of original instructions the slot covers (== the
#: slot's contribution to ``steps`` and the fall-through advance).
#: Public as :func:`slot_width` for dispatch-count profiling.
def _width(op: int) -> int:
    if op < OP_FUSED_BASE:
        return 1
    if op < OP_LLB:
        return 2
    if op < OP_LB:
        return 3
    if op < 92:
        return 2
    return {
        OP_CBS: 3, OP_CBB: 4, OP_LGC: 4, OP_GLB2: 4, OP_LCBSG: 5,
        OP_BLB: 3, OP_LBCB: 4, OP_BSLLCB: 5,
    }[op]


def _fuse2(ops, aa, bb, cc, dd, ee, labeled) -> None:
    """Second peephole pass: merge a live slot with its fall-through
    successor into one of the ``OP_CBS``.. ``OP_BSLLCB`` superops.

    The scan walks exactly the live fall-through chain (slot ``i`` has
    width ``_width(ops[i])``; components in between are dead unless
    labeled, and fusion never covers labeled slots, so ``i + width`` is
    always the next live slot). Merges are blocked when the successor
    is a jump target (``labeled``), which also guarantees no trace
    sites lie inside the merged span. A trap raised by the inner half
    is indistinguishable from the unfused sequence's trap: same
    ``VMError``, and the run's partial state is discarded either way.
    """
    n = len(ops)
    i = 0
    while i < n:
        j = i + _width(ops[i])
        if j >= n:
            break
        if j in labeled:
            i = j
            continue
        op1 = ops[i]
        op2 = ops[j]
        nxt = j + _width(op2)
        if op1 == OP_CB and op2 == OP_STORE:
            ops[i] = OP_CBS
            cc[i] = aa[j]
        elif op1 == OP_CB and op2 == OP_BSL:
            ops[i] = OP_CBB
            cc[i] = aa[j]
            dd[i] = bb[j]
        elif op1 == OP_LG2 and op2 == OP_CB:
            ops[i] = OP_LGC
            cc[i] = aa[j]
            dd[i] = bb[j]
        elif op1 == OP_GLB and op2 in _BINOP_SEL:
            ops[i] = OP_GLB2
            dd[i] = _BINOP_SEL[op2]
        elif op1 == OP_LCB and op2 == OP_SGO:
            ops[i] = OP_LCBSG
            dd[i] = aa[j]
            ee[i] = bb[j]
        elif op2 == OP_LB and op1 in _BINOP_SEL:
            ops[i] = OP_BLB
            cc[i] = _BINOP_SEL[op1]
            aa[i] = aa[j]
            bb[i] = bb[j]
        elif op1 == OP_LB and op2 == OP_CB:
            ops[i] = OP_LBCB
            cc[i] = aa[j]
            dd[i] = bb[j]
        elif op1 == OP_BSL and op2 == OP_LCB:
            ops[i] = OP_BSLLCB
            cc[i] = aa[j]
            dd[i] = bb[j]
            ee[i] = cc[j]
        else:
            i = j
            continue
        i = nxt


def slot_width(op: int) -> int:
    """Number of original instructions a dispatched slot covers.

    ``1`` for every unfused opcode (and the sentinel); the component
    count for superinstructions. A dispatch-count profile multiplied
    through this recovers exact executed-instruction totals.
    Unassigned opcode numbers (the 92–94 gap) report ``1``.
    """
    if 92 <= op <= 94:
        return 1
    return _width(op)
