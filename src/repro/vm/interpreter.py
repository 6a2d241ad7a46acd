"""The WVM fast-path execution engine, with tracing hooks.

Tracing is built into the interpreter rather than added by bytecode
instrumentation. This deliberately models the paper's response to the
class-encryption attack (Section 5.1.2): tracing "need not be
collected through the use of instrumentation [...] standard Java
interfaces for profiling and debugging" observe the running program
directly, and "the JVM necessarily has access to the unencoded form
of the bytecode". WVM's interpreter-level hooks are that profiling
interface.

Runtime failures raise :class:`VMError` (the analog of a JVM crash or
exception); the attack harness treats a trapped program as broken.

Execution design (see ``docs/performance.md`` for measurements):

* Functions are lowered once, lazily, into the dense precompiled form
  of :mod:`repro.vm.compiler` — integer opcodes, resolved branch
  targets, pre-decoded operands, pre-built branch events and site
  keys, and fused superinstructions for hot straight-line patterns.
* The run loop exists in three *specializations* — untraced,
  branch-traced and full-traced — so ``trace_mode=None`` pays zero
  tracing overhead. Both traced loops decode the trace bit-string of
  paper §3.1 as they record each branch event (``Trace.bits``), from
  a per-run table of each branch's first outcome. The three are
  generated from one template at import time (:func:`_gen_loop`);
  tracing differs only in the lines tagged for that mode, which keeps
  the semantics of the variants in lockstep by construction.
* The untraced and branch-traced loops have a second tier
  (:mod:`repro.vm.tier2`): at each control transfer they run the
  block they land on as one generated Python function once it is hot
  or cached, and fall back to the dispatch tree for everything else.
* Each specialization also has a *profiled* twin that counts every
  dispatched slot into a per-opcode array (the raw material of
  :class:`repro.obs.vmprofile.DispatchProfile`). Profiled loops are
  generated lazily on first use and selected only when
  ``profile=True`` — exactly the ``trace_mode`` pattern, so plain
  runs keep paying zero instrumentation cost.

Observable behaviour is identical to the seed engine (kept as
:mod:`repro.vm._reference` for differential testing): same outputs,
same step counts, same traps, and byte-identical traces.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from . import tier2
from .compiler import NUM_OPCODES, CompiledFunction
from .instructions import wrap64
from .program import Module
from .tracing import RunResult, Trace, TracePoint

DEFAULT_MAX_STEPS = 50_000_000


class VMError(Exception):
    """A WVM runtime trap (bad branch, division by zero, etc.)."""


class StepLimitExceeded(VMError):
    """The configured ``max_steps`` budget ran out mid-execution.

    Raised instead of spinning silently; any partially collected trace
    is discarded with the run (the interpreter never returns one).
    """

    def __init__(self, max_steps: int, function: str):
        super().__init__(
            f"step limit of {max_steps} exceeded in {function!r} "
            f"(non-terminating program, or raise max_steps)"
        )
        self.max_steps = max_steps
        self.function = function


# ---------------------------------------------------------------------------
# Run-loop template. One source, three specializations: lines emitted
# conditionally on the mode flags T (record branch events: "branch" and
# "full") and F (record trace-site snapshots: "full" only).
# ---------------------------------------------------------------------------

_MIN64 = -(1 << 63)
_MAX64 = (1 << 63) - 1


def _gen_loop(mode: Optional[str], profiled: bool = False) -> str:
    T = mode in ("branch", "full")
    F = mode == "full"
    # Tier 2 (hot blocks as generated Python, see repro.vm.tier2) runs
    # in the plain untraced and branch-traced loops. There every
    # control transfer leaves the inner tier-1 loop for the outer one,
    # which runs the blocks it lands on; fall-throughs stay inside.
    X = mode != "full" and not profiled
    NEXT = "break" if X else "continue"
    B = " " * (16 if X else 12)  # indentation of the dispatch tree
    name = {None: "_run_untraced", "branch": "_run_branch", "full": "_run_full"}
    L: list = []
    emit = L.append

    def snap(keys_expr: str, ind: str) -> None:
        """Record every SiteKey in ``keys_expr`` with current snapshots."""
        emit(f"{ind}_sk = {keys_expr}")
        emit(f"{ind}if _sk:")
        emit(f"{ind}    _ls = tuple(loc); _gs = tuple(glob)")
        emit(f"{ind}    for _k in _sk:")
        emit(f"{ind}        pt_append(TracePoint(_k, _ls, _gs))")

    def record(edges: str, ind: str) -> None:
        """Append the edge's event and decode its bit (paper §3.1): 0
        when the branch's first outcome code is this edge's, else 1."""
        record_edge(f"{edges}[pc]", ind)

    def branch_tail(tgt: str, adv: int, ind: str) -> None:
        """Shared conditional-branch epilogue: event, sites, transfer."""
        emit(f"{ind}if taken:")
        if T:
            record("evt", ind + "    ")
        if F:
            snap("ts[pc]", ind + "    ")
        emit(f"{ind}    pc = {tgt}")
        emit(f"{ind}else:")
        if T:
            record("evf", ind + "    ")
        if F:
            snap("fs[pc]", ind + "    ")
        emit(f"{ind}    pc += {adv}")
        emit(f"{ind}{NEXT}")

    def jump_tail(tgt: str, ind: str) -> None:
        """goto-style epilogue: sites on the taken edge, then transfer."""
        if F:
            snap("ts[pc]", ind)
        emit(f"{ind}pc = {tgt}")
        emit(f"{ind}{NEXT}")

    def fall(adv: int, ind: str) -> None:
        """Fall-through epilogue: sites crossed, then advance."""
        if F:
            snap("fs[pc]", ind)
        emit(f"{ind}pc += {adv}")
        emit(f"{ind}continue")

    def binop_chain(
        out_stmt: Callable[[str], str],
        adv: int,
        ind: str,
        tail: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Selector-dispatched fused binop: a_ OP b_ -> ``out_stmt``.

        ``out_stmt`` receives the value expression; the aload arm emits
        its own (unwrapped) result, everything else goes through the
        64-bit wrap fast path. ``tail`` overrides the fall-through
        epilogue (used by fused forms that end in a goto).
        """
        if tail is None:
            def tail(ind2: str) -> None:
                fall(adv, ind2)
        wrapped = out_stmt(f"v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
        emit(f"{ind}if sel < 5:")
        emit(f"{ind}    if sel == 0:")
        emit(f"{ind}        v = a_ + b_")
        emit(f"{ind}    elif sel == 1:")
        emit(f"{ind}        v = a_ * b_")
        emit(f"{ind}    elif sel == 2:")  # aload
        emit(f"{ind}        if not 0 <= a_ < len(heap):")
        emit(f"{ind}            raise VMError(f'bad array reference {{a_}}')")
        emit(f"{ind}        _arr = heap[a_]")
        emit(f"{ind}        if not 0 <= b_ < len(_arr):")
        emit(f"{ind}            raise VMError(")
        emit(f"{ind}                f'array index {{b_}} out of bounds "
             f"({{len(_arr)}})')")
        emit(f"{ind}        {out_stmt('_arr[b_]')}")
        tail(ind + "        ")
        emit(f"{ind}    elif sel == 3:")
        emit(f"{ind}        v = a_ & b_")
        emit(f"{ind}    else:")  # mod
        emit(f"{ind}        if b_ == 0:")
        emit(f"{ind}            raise VMError('modulo by zero')")
        emit(f"{ind}        _q = abs(a_) // abs(b_)")
        emit(f"{ind}        if (a_ < 0) != (b_ < 0):")
        emit(f"{ind}            _q = -_q")
        emit(f"{ind}        if not {_MIN64} <= _q <= {_MAX64}:")
        emit(f"{ind}            _q = wrap(_q)")
        emit(f"{ind}        v = a_ - _q * b_")
        emit(f"{ind}elif sel == 5:")
        emit(f"{ind}    v = a_ - b_")
        emit(f"{ind}elif sel == 6:")
        emit(f"{ind}    v = a_ | b_")
        emit(f"{ind}elif sel == 7:")
        emit(f"{ind}    v = a_ ^ b_")
        emit(f"{ind}elif sel == 8:")
        emit(f"{ind}    v = a_ << (b_ & 63)")
        emit(f"{ind}elif sel == 9:")
        emit(f"{ind}    v = a_ >> (b_ & 63)")
        emit(f"{ind}else:")  # div
        emit(f"{ind}    if b_ == 0:")
        emit(f"{ind}        raise VMError('division by zero')")
        emit(f"{ind}    v = abs(a_) // abs(b_)")
        emit(f"{ind}    if (a_ < 0) != (b_ < 0):")
        emit(f"{ind}        v = -v")
        emit(f"{ind}{wrapped}")
        tail(ind)

    def inner_chain(a_expr: str, b_expr: str, sel_expr: str, ind: str) -> None:
        """Full binop into ``t_`` — the inner half of a second-order
        fused slot. Traps raise the same ``VMError`` as the unfused
        sequence would; the interleaving difference is unobservable
        because a trap discards the whole run."""
        emit(f"{ind}_ia = {a_expr}")
        emit(f"{ind}_ib = {b_expr}")
        emit(f"{ind}_s2 = {sel_expr}")
        emit(f"{ind}if _s2 < 5:")
        emit(f"{ind}    if _s2 == 0:")
        emit(f"{ind}        t_ = _ia + _ib")
        emit(f"{ind}    elif _s2 == 1:")
        emit(f"{ind}        t_ = _ia * _ib")
        emit(f"{ind}    elif _s2 == 2:")  # aload
        emit(f"{ind}        if not 0 <= _ia < len(heap):")
        emit(f"{ind}            raise VMError(f'bad array reference {{_ia}}')")
        emit(f"{ind}        _arr = heap[_ia]")
        emit(f"{ind}        if not 0 <= _ib < len(_arr):")
        emit(f"{ind}            raise VMError(")
        emit(f"{ind}                f'array index {{_ib}} out of bounds "
             f"({{len(_arr)}})')")
        emit(f"{ind}        t_ = _arr[_ib]")
        emit(f"{ind}    elif _s2 == 3:")
        emit(f"{ind}        t_ = _ia & _ib")
        emit(f"{ind}    else:")  # mod
        emit(f"{ind}        if _ib == 0:")
        emit(f"{ind}            raise VMError('modulo by zero')")
        emit(f"{ind}        _q = abs(_ia) // abs(_ib)")
        emit(f"{ind}        if (_ia < 0) != (_ib < 0):")
        emit(f"{ind}            _q = -_q")
        emit(f"{ind}        if not {_MIN64} <= _q <= {_MAX64}:")
        emit(f"{ind}            _q = wrap(_q)")
        emit(f"{ind}        t_ = _ia - _q * _ib")
        emit(f"{ind}elif _s2 == 5:")
        emit(f"{ind}    t_ = _ia - _ib")
        emit(f"{ind}elif _s2 == 6:")
        emit(f"{ind}    t_ = _ia | _ib")
        emit(f"{ind}elif _s2 == 7:")
        emit(f"{ind}    t_ = _ia ^ _ib")
        emit(f"{ind}elif _s2 == 8:")
        emit(f"{ind}    t_ = _ia << (_ib & 63)")
        emit(f"{ind}elif _s2 == 9:")
        emit(f"{ind}    t_ = _ia >> (_ib & 63)")
        emit(f"{ind}else:")  # div
        emit(f"{ind}    if _ib == 0:")
        emit(f"{ind}        raise VMError('division by zero')")
        emit(f"{ind}    t_ = abs(_ia) // abs(_ib)")
        emit(f"{ind}    if (_ia < 0) != (_ib < 0):")
        emit(f"{ind}        t_ = -t_")
        emit(f"{ind}if not {_MIN64} <= t_ <= {_MAX64}:")
        emit(f"{ind}    t_ = wrap(t_)")

    def cmp_chain(ind: str) -> None:
        """Selector-dispatched comparison into ``taken``."""
        emit(f"{ind}if sel == 5:")
        emit(f"{ind}    taken = a_ >= b_")
        emit(f"{ind}elif sel == 2:")
        emit(f"{ind}    taken = a_ < b_")
        emit(f"{ind}elif sel == 1:")
        emit(f"{ind}    taken = a_ != b_")
        emit(f"{ind}elif sel == 0:")
        emit(f"{ind}    taken = a_ == b_")
        emit(f"{ind}elif sel == 3:")
        emit(f"{ind}    taken = a_ <= b_")
        emit(f"{ind}else:")
        emit(f"{ind}    taken = a_ > b_")

    def tier2_chain() -> None:
        """The outer loop's head: run blocks while the loop lands on
        installed ones, then fall to tier 1 at ``pc``."""
        emit("        while not halted:")
        emit("            while True:")
        emit("                bk = blk[pc]")
        emit("                if not bk:")
        emit("                    if bk is not None:")
        emit("                        break")
        emit("                    bk = arrive(cf, pc)")
        emit("                    if not bk:")
        emit("                        break")
        emit("                run_block, nsteps, tgt, nxt, et, ef = bk")
        emit("                steps += nsteps")
        emit("                if steps > max_steps:")
        emit("                    steps -= nsteps")  # tier 1 finds the step
        emit("                    break")
        emit("                try:")
        emit("                    taken = run_block(loc, glob, stack, heap,"
             " out_append)")
        emit("                except IndexError:")
        emit("                    op = 45  # blame it like a fused slot")
        emit("                    raise")
        if T:
            emit("                if taken:")
            emit("                    pc = tgt")
            emit("                    if et is not None:")
            record_edge("et", "                        ")
            emit("                else:")
            emit("                    pc = nxt")
            record_edge("ef", "                    ")
        else:
            emit("                pc = tgt if taken else nxt")

    def record_edge(edge: str, ind: str) -> None:
        emit(f"{ind}_e, _b, _c = {edge}")
        emit(f"{ind}ev_append(_e)")
        emit(f"{ind}bits_append(_c is not first_code(_b, _c))")

    fname = name[mode] + ("_prof" if profiled else "")
    args = "module, compiled, compile_fn, inputs, max_steps"
    if profiled:
        args += ", prof"
    emit(f"def {fname}({args}):")
    emit("    compiled_get = compiled.get")
    emit("    glob = [0] * module.globals_count")
    emit("    output = []")
    emit("    out_append = output.append")
    emit("    input_pos = 0")
    emit("    n_inputs = len(inputs)")
    emit("    heap = []")
    emit("    heap_append = heap.append")
    emit("    steps = 0")
    emit("    halted = False")
    emit("    wrap = wrap64")
    if T:
        emit("    trace = Trace()")
        emit("    ev_append = trace.branches.append")
        emit("    bits = bytearray()")
        emit("    bits_append = bits.append")
        emit("    first_code = {}.setdefault")
    if F:
        emit("    pt_append = trace.points.append")
    emit("    cf = compiled_get(module.entry)")
    emit("    if cf is None:")
    emit("        cf = compile_fn(module.entry)")
    emit("    ops = cf.ops; aa = cf.aa; bb = cf.bb; cc = cf.cc")
    emit("    dd = cf.dd; ee = cf.ee")
    if T:
        emit("    evt = cf.evt; evf = cf.evf")
    if X:
        emit("    blk = cf.blk")
    if F:
        emit("    fs = cf.fs; ts = cf.ts")
    emit("    loc = [0] * cf.nlocals")
    emit("    stack = []")
    emit("    push = stack.append")
    emit("    pop = stack.pop")
    emit("    frames = []")
    emit("    frames_append = frames.append")
    emit("    frames_pop = frames.pop")
    emit("    pc = 0")
    if F:
        emit("    _ls = tuple(loc); _gs = tuple(glob)")
        emit("    for _k in cf.entry_sites:")
        emit("        pt_append(TracePoint(_k, _ls, _gs))")
    emit("    try:")
    if X:
        tier2_chain()
        emit("            while True:")
    else:
        emit("        while True:")
    emit(f"{B}op = ops[pc]")
    if profiled:
        # One list-index increment per dispatched slot — the entire
        # profiling hook. Fused slots count once here; their component
        # coverage is recovered from slot widths at report time.
        emit(f"{B}prof[op] += 1")
    # ---- singles -----------------------------------------------------
    emit(f"{B}if op < 45:")
    emit(f"{B}    steps += 1")
    emit(f"{B}    if steps > max_steps:")
    emit(f"{B}        raise StepLimitExceeded(max_steps, cf.name)")
    IND = B + "    "
    emit(f"{IND}if op < 10:")
    emit(f"{IND}    if op == 0:")  # load
    emit(f"{IND}        push(loc[aa[pc]])")
    fall(1, IND + "        ")
    emit(f"{IND}    if op == 1:")  # const
    emit(f"{IND}        push(aa[pc])")
    fall(1, IND + "        ")
    emit(f"{IND}    if op == 2:")  # add
    emit(f"{IND}        b_ = pop()")
    emit(f"{IND}        v = stack[-1] + b_")
    emit(f"{IND}        stack[-1] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    fall(1, IND + "        ")
    emit(f"{IND}    if op == 3:")  # store
    emit(f"{IND}        loc[aa[pc]] = pop()")
    fall(1, IND + "        ")
    emit(f"{IND}    if op == 4:")  # aload
    emit(f"{IND}        b_ = pop()")
    emit(f"{IND}        a_ = stack[-1]")
    emit(f"{IND}        if not 0 <= a_ < len(heap):")
    emit(f"{IND}            raise VMError(f'bad array reference {{a_}}')")
    emit(f"{IND}        _arr = heap[a_]")
    emit(f"{IND}        if not 0 <= b_ < len(_arr):")
    emit(f"{IND}            raise VMError(")
    emit(f"{IND}                f'array index {{b_}} out of bounds "
         f"({{len(_arr)}})')")
    emit(f"{IND}        stack[-1] = _arr[b_]")
    fall(1, IND + "        ")
    emit(f"{IND}    if op == 5:")  # mul
    emit(f"{IND}        b_ = pop()")
    emit(f"{IND}        v = stack[-1] * b_")
    emit(f"{IND}        stack[-1] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    fall(1, IND + "        ")
    emit(f"{IND}    if op == 6:")  # band
    emit(f"{IND}        b_ = pop()")
    emit(f"{IND}        v = stack[-1] & b_")
    emit(f"{IND}        stack[-1] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    fall(1, IND + "        ")
    emit(f"{IND}    if op == 7:")  # sub
    emit(f"{IND}        b_ = pop()")
    emit(f"{IND}        v = stack[-1] - b_")
    emit(f"{IND}        stack[-1] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    fall(1, IND + "        ")
    emit(f"{IND}    if op == 8:")  # astore
    emit(f"{IND}        v = pop()")
    emit(f"{IND}        b_ = pop()")
    emit(f"{IND}        a_ = pop()")
    emit(f"{IND}        if not 0 <= a_ < len(heap):")
    emit(f"{IND}            raise VMError(f'bad array reference {{a_}}')")
    emit(f"{IND}        _arr = heap[a_]")
    emit(f"{IND}        if not 0 <= b_ < len(_arr):")
    emit(f"{IND}            raise VMError(")
    emit(f"{IND}                f'array index {{b_}} out of bounds "
         f"({{len(_arr)}})')")
    emit(f"{IND}        _arr[b_] = v")
    fall(1, IND + "        ")
    # iinc
    emit(f"{IND}    _i = aa[pc]")
    emit(f"{IND}    v = loc[_i] + bb[pc]")
    emit(f"{IND}    loc[_i] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    fall(1, IND + "    ")
    # conditionals 10..21
    emit(f"{IND}if op < 22:")
    emit(f"{IND}    if op < 16:")
    emit(f"{IND}        b_ = pop()")
    emit(f"{IND}        a_ = pop()")
    emit(f"{IND}        sel = op - 10")
    emit(f"{IND}    else:")
    emit(f"{IND}        a_ = pop()")
    emit(f"{IND}        b_ = 0")
    emit(f"{IND}        sel = op - 16")
    cmp_chain(IND + "    ")
    branch_tail("aa[pc]", 1, IND + "    ")
    emit(f"{IND}if op == 22:")  # goto
    jump_tail("aa[pc]", IND + "    ")
    emit(f"{IND}if op == 23:")  # call
    emit(f"{IND}    callee = compiled_get(aa[pc])")
    emit(f"{IND}    if callee is None:")
    emit(f"{IND}        callee = compile_fn(aa[pc])")
    emit(f"{IND}    _np = callee.params")
    emit(f"{IND}    if len(stack) < _np:")
    emit(f"{IND}        raise VMError(")
    emit(f"{IND}            f'{{cf.name}}: stack underflow calling "
         f"{{callee.name}}')")
    emit(f"{IND}    if len(frames) >= 4095:")
    emit(f"{IND}        raise VMError('call stack overflow')")
    emit(f"{IND}    if _np:")
    emit(f"{IND}        _args = stack[-_np:]")
    emit(f"{IND}        del stack[-_np:]")
    emit(f"{IND}    else:")
    emit(f"{IND}        _args = []")
    emit(f"{IND}    frames_append((cf, pc + 1, loc, stack, push, pop))")
    emit(f"{IND}    cf = callee")
    emit(f"{IND}    ops = cf.ops; aa = cf.aa; bb = cf.bb; cc = cf.cc")
    emit(f"{IND}    dd = cf.dd; ee = cf.ee")
    if T:
        emit(f"{IND}    evt = cf.evt; evf = cf.evf")
    if F:
        emit(f"{IND}    fs = cf.fs; ts = cf.ts")
    if X:
        emit(f"{IND}    blk = cf.blk")
    emit(f"{IND}    loc = _args + [0] * (cf.nlocals - _np)")
    emit(f"{IND}    stack = []")
    emit(f"{IND}    push = stack.append")
    emit(f"{IND}    pop = stack.pop")
    emit(f"{IND}    pc = 0")
    if F:
        emit(f"{IND}    _ls = tuple(loc); _gs = tuple(glob)")
        emit(f"{IND}    for _k in cf.entry_sites:")
        emit(f"{IND}        pt_append(TracePoint(_k, _ls, _gs))")
    emit(f"{IND}    {NEXT}")
    emit(f"{IND}if op == 24:")  # ret
    emit(f"{IND}    _v = pop()")
    emit(f"{IND}    if not frames:")
    emit(f"{IND}        halted = True")
    emit(f"{IND}        break")
    emit(f"{IND}    cf, pc, loc, stack, push, pop = frames_pop()")
    emit(f"{IND}    push(_v)")
    emit(f"{IND}    ops = cf.ops; aa = cf.aa; bb = cf.bb; cc = cf.cc")
    emit(f"{IND}    dd = cf.dd; ee = cf.ee")
    if T:
        emit(f"{IND}    evt = cf.evt; evf = cf.evf")
    if F:
        emit(f"{IND}    fs = cf.fs; ts = cf.ts")
        snap("fs[pc - 1]", IND + "    ")
    if X:
        emit(f"{IND}    blk = cf.blk")
    emit(f"{IND}    {NEXT}")
    emit(f"{IND}if op == 25:")  # gload
    emit(f"{IND}    push(glob[aa[pc]])")
    fall(1, IND + "    ")
    emit(f"{IND}if op == 26:")  # gstore
    emit(f"{IND}    glob[aa[pc]] = pop()")
    fall(1, IND + "    ")
    emit(f"{IND}if op < 33:")  # div mod bor bxor shl shr (27..32)
    emit(f"{IND}    b_ = pop()")
    emit(f"{IND}    a_ = stack[-1]")
    emit(f"{IND}    if op == 27:")
    emit(f"{IND}        if b_ == 0:")
    emit(f"{IND}            raise VMError('division by zero')")
    emit(f"{IND}        v = abs(a_) // abs(b_)")
    emit(f"{IND}        if (a_ < 0) != (b_ < 0):")
    emit(f"{IND}            v = -v")
    emit(f"{IND}    elif op == 28:")
    emit(f"{IND}        if b_ == 0:")
    emit(f"{IND}            raise VMError('modulo by zero')")
    emit(f"{IND}        _q = abs(a_) // abs(b_)")
    emit(f"{IND}        if (a_ < 0) != (b_ < 0):")
    emit(f"{IND}            _q = -_q")
    emit(f"{IND}        if not {_MIN64} <= _q <= {_MAX64}:")
    emit(f"{IND}            _q = wrap(_q)")
    emit(f"{IND}        v = a_ - _q * b_")
    emit(f"{IND}    elif op == 29:")
    emit(f"{IND}        v = a_ | b_")
    emit(f"{IND}    elif op == 30:")
    emit(f"{IND}        v = a_ ^ b_")
    emit(f"{IND}    elif op == 31:")
    emit(f"{IND}        v = a_ << (b_ & 63)")
    emit(f"{IND}    else:")
    emit(f"{IND}        v = a_ >> (b_ & 63)")
    emit(f"{IND}    stack[-1] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    fall(1, IND + "    ")
    emit(f"{IND}if op < 38:")  # neg bnot dup pop swap (33..37)
    emit(f"{IND}    if op == 33:")
    emit(f"{IND}        v = -stack[-1]")
    emit(f"{IND}        stack[-1] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    emit(f"{IND}    elif op == 34:")
    emit(f"{IND}        v = ~stack[-1]")
    emit(f"{IND}        stack[-1] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    emit(f"{IND}    elif op == 35:")
    emit(f"{IND}        push(stack[-1])")
    emit(f"{IND}    elif op == 36:")
    emit(f"{IND}        pop()")
    emit(f"{IND}    else:")
    emit(f"{IND}        stack[-1], stack[-2] = stack[-2], stack[-1]")
    fall(1, IND + "    ")
    emit(f"{IND}if op == 38:")  # newarray
    emit(f"{IND}    _n = pop()")
    emit(f"{IND}    if _n < 0 or _n > 10_000_000:")
    emit(f"{IND}        raise VMError(f'bad array length {{_n}}')")
    emit(f"{IND}    heap_append([0] * _n)")
    emit(f"{IND}    push(len(heap) - 1)")
    fall(1, IND + "    ")
    emit(f"{IND}if op == 39:")  # alen
    emit(f"{IND}    a_ = stack[-1]")
    emit(f"{IND}    if not 0 <= a_ < len(heap):")
    emit(f"{IND}        raise VMError(f'bad array reference {{a_}}')")
    emit(f"{IND}    stack[-1] = len(heap[a_])")
    fall(1, IND + "    ")
    emit(f"{IND}if op == 40:")  # print
    emit(f"{IND}    out_append(pop())")
    fall(1, IND + "    ")
    emit(f"{IND}if op == 41:")  # input
    emit(f"{IND}    if input_pos >= n_inputs:")
    emit(f"{IND}        raise VMError('input sequence exhausted')")
    emit(f"{IND}    push(inputs[input_pos])")
    emit(f"{IND}    input_pos += 1")
    fall(1, IND + "    ")
    emit(f"{IND}if op == 42:")  # nop
    fall(1, IND + "    ")
    emit(f"{IND}if op == 43:")  # halt
    emit(f"{IND}    halted = True")
    emit(f"{IND}    break")
    # OP_END sentinel
    emit(f"{IND}raise VMError(f'{{cf.name}}: fell off the end of the code')")
    # ---- fused slots -------------------------------------------------
    J = B
    emit(f"{J}elif op < 63:")
    emit(f"{J}    if op < 54:")  # push-push pairs, +2 steps
    emit(f"{J}        steps += 2")
    emit(f"{J}        if steps > max_steps:")
    emit(f"{J}            raise StepLimitExceeded(max_steps, cf.name)")
    K = J + "        "
    for opn, (s1, s2) in {
        45: ("loc[aa[pc]]", "loc[bb[pc]]"),
        46: ("loc[aa[pc]]", "bb[pc]"),
        47: ("loc[aa[pc]]", "glob[bb[pc]]"),
        48: ("aa[pc]", "loc[bb[pc]]"),
        49: ("aa[pc]", "bb[pc]"),
        50: ("aa[pc]", "glob[bb[pc]]"),
        51: ("glob[aa[pc]]", "loc[bb[pc]]"),
        52: ("glob[aa[pc]]", "bb[pc]"),
    }.items():
        emit(f"{K}if op == {opn}:")
        emit(f"{K}    push({s1})")
        emit(f"{K}    push({s2})")
        fall(2, K + "    ")
    emit(f"{K}push(glob[aa[pc]])")  # 53 GG2
    emit(f"{K}push(glob[bb[pc]])")
    fall(2, K)
    emit(f"{J}    else:")  # push-push-binop triples, +3 steps
    emit(f"{J}        steps += 3")
    emit(f"{J}        if steps > max_steps:")
    emit(f"{J}            raise StepLimitExceeded(max_steps, cf.name)")
    emit(f"{K}if op == 62:")  # CCB constant-folded
    emit(f"{K}    push(aa[pc])")
    fall(3, K + "    ")
    for opn, (s1, s2) in {
        54: ("loc[aa[pc]]", "loc[bb[pc]]"),
        55: ("loc[aa[pc]]", "bb[pc]"),
        56: ("loc[aa[pc]]", "glob[bb[pc]]"),
        57: ("aa[pc]", "loc[bb[pc]]"),
        58: ("aa[pc]", "glob[bb[pc]]"),
        59: ("glob[aa[pc]]", "loc[bb[pc]]"),
        60: ("glob[aa[pc]]", "bb[pc]"),
    }.items():
        emit(f"{K}{'if' if opn == 54 else 'elif'} op == {opn}:")
        emit(f"{K}    a_ = {s1}; b_ = {s2}")
    emit(f"{K}else:")  # 61 GGB
    emit(f"{K}    a_ = glob[aa[pc]]; b_ = glob[bb[pc]]")
    emit(f"{K}sel = cc[pc]")
    binop_chain(lambda v: f"push({v})", 3, K)
    emit(f"{J}elif op < 71:")  # push-push-compare triples, +3 steps
    emit(f"{J}    steps += 3")
    emit(f"{J}    if steps > max_steps:")
    emit(f"{J}        raise StepLimitExceeded(max_steps, cf.name)")
    K = J + "    "
    for opn, (s1, s2) in {
        63: ("loc[aa[pc]]", "loc[bb[pc]]"),
        64: ("loc[aa[pc]]", "bb[pc]"),
        65: ("loc[aa[pc]]", "glob[bb[pc]]"),
        66: ("aa[pc]", "loc[bb[pc]]"),
        67: ("aa[pc]", "glob[bb[pc]]"),
        68: ("glob[aa[pc]]", "loc[bb[pc]]"),
        69: ("glob[aa[pc]]", "bb[pc]"),
    }.items():
        emit(f"{K}{'if' if opn == 63 else 'elif'} op == {opn}:")
        emit(f"{K}    a_ = {s1}; b_ = {s2}")
    emit(f"{K}else:")  # 70 GGI
    emit(f"{K}    a_ = glob[aa[pc]]; b_ = glob[bb[pc]]")
    emit(f"{K}sel = cc[pc]")
    cmp_chain(K)
    branch_tail("dd[pc]", 3, K)
    emit(f"{J}elif op < 80:")  # push-binop / push-compare pairs, +2
    emit(f"{J}    steps += 2")
    emit(f"{J}    if steps > max_steps:")
    emit(f"{J}        raise StepLimitExceeded(max_steps, cf.name)")
    K = J + "    "
    emit(f"{K}if op < 74:")  # LB CB GB: in-place binop with stack top
    emit(f"{K}    if op == 71:")
    emit(f"{K}        b_ = loc[aa[pc]]")
    emit(f"{K}    elif op == 72:")
    emit(f"{K}        b_ = aa[pc]")
    emit(f"{K}    else:")
    emit(f"{K}        b_ = glob[aa[pc]]")
    emit(f"{K}    a_ = stack[-1]")
    emit(f"{K}    sel = bb[pc]")
    binop_chain(lambda v: f"stack[-1] = {v}", 2, K + "    ")
    emit(f"{K}if op < 77:")  # LIC CIC GIC: b from src, a popped
    emit(f"{K}    if op == 74:")
    emit(f"{K}        b_ = loc[aa[pc]]")
    emit(f"{K}    elif op == 75:")
    emit(f"{K}        b_ = aa[pc]")
    emit(f"{K}    else:")
    emit(f"{K}        b_ = glob[aa[pc]]")
    emit(f"{K}    a_ = pop()")
    emit(f"{K}else:")  # LIZ CIZ GIZ: a from src, compare against zero
    emit(f"{K}    if op == 77:")
    emit(f"{K}        a_ = loc[aa[pc]]")
    emit(f"{K}    elif op == 78:")
    emit(f"{K}        a_ = aa[pc]")
    emit(f"{K}    else:")
    emit(f"{K}        a_ = glob[aa[pc]]")
    emit(f"{K}    b_ = 0")
    emit(f"{K}sel = bb[pc]")
    cmp_chain(K)
    branch_tail("cc[pc]", 2, K)
    emit(f"{J}elif op < 95:")  # binop-store / push-store / store-load, +2
    emit(f"{J}    steps += 2")
    emit(f"{J}    if steps > max_steps:")
    emit(f"{J}        raise StepLimitExceeded(max_steps, cf.name)")
    K = J + "    "
    emit(f"{K}if op == 80:")  # BSL
    emit(f"{K}    b_ = pop()")
    emit(f"{K}    a_ = pop()")
    emit(f"{K}    sel = bb[pc]")
    binop_chain(lambda v: f"loc[aa[pc]] = {v}", 2, K + "    ")
    emit(f"{K}if op == 81:")  # BSG
    emit(f"{K}    b_ = pop()")
    emit(f"{K}    a_ = pop()")
    emit(f"{K}    sel = bb[pc]")
    binop_chain(lambda v: f"glob[aa[pc]] = {v}", 2, K + "    ")
    for opn, src in ((82, "loc[aa[pc]]"), (83, "aa[pc]"), (84, "glob[aa[pc]]")):
        emit(f"{K}if op == {opn}:")
        emit(f"{K}    loc[bb[pc]] = {src}")
        fall(2, K + "    ")
    for opn, src in ((85, "loc[aa[pc]]"), (86, "aa[pc]"), (87, "glob[aa[pc]]")):
        emit(f"{K}if op == {opn}:")
        emit(f"{K}    glob[bb[pc]] = {src}")
        fall(2, K + "    ")
    emit(f"{K}if op == 88:")  # store s; load s
    emit(f"{K}    loc[aa[pc]] = stack[-1]")
    fall(2, K + "    ")
    emit(f"{K}if op == 89:")  # store s1; load s2
    emit(f"{K}    loc[aa[pc]] = pop()")
    emit(f"{K}    push(loc[bb[pc]])")
    fall(2, K + "    ")
    emit(f"{K}if op == 90:")  # store s; goto t
    emit(f"{K}    loc[aa[pc]] = pop()")
    jump_tail("bb[pc]", K + "    ")
    emit(f"{K}_i = aa[pc]")  # 91: iinc s d; goto t
    emit(f"{K}v = loc[_i] + bb[pc]")
    emit(f"{K}loc[_i] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    jump_tail("cc[pc]", K)
    # ---- second-order superinstructions ------------------------------
    emit(f"{J}else:")
    K = J + "    "
    emit(f"{K}if op == 99:")  # LCBSG: load;const;BINOP;store;goto
    emit(f"{K}    steps += 5")
    emit(f"{K}    if steps > max_steps:")
    emit(f"{K}        raise StepLimitExceeded(max_steps, cf.name)")
    emit(f"{K}    a_ = loc[aa[pc]]")
    emit(f"{K}    b_ = bb[pc]")
    emit(f"{K}    sel = cc[pc]")
    binop_chain(
        lambda v: f"loc[dd[pc]] = {v}", 5, K + "    ",
        tail=lambda ind2: jump_tail("ee[pc]", ind2),
    )
    emit(f"{K}if op == 98:")  # GLB2: gload;load;OP1;OP2
    emit(f"{K}    steps += 4")
    emit(f"{K}    if steps > max_steps:")
    emit(f"{K}        raise StepLimitExceeded(max_steps, cf.name)")
    inner_chain("glob[aa[pc]]", "loc[bb[pc]]", "cc[pc]", K + "    ")
    emit(f"{K}    a_ = stack[-1]")
    emit(f"{K}    b_ = t_")
    emit(f"{K}    sel = dd[pc]")
    binop_chain(lambda v: f"stack[-1] = {v}", 4, K + "    ")
    emit(f"{K}if op == 101:")  # LBCB: load;OP1;const;OP2
    emit(f"{K}    steps += 4")
    emit(f"{K}    if steps > max_steps:")
    emit(f"{K}        raise StepLimitExceeded(max_steps, cf.name)")
    inner_chain("stack[-1]", "loc[aa[pc]]", "bb[pc]", K + "    ")
    emit(f"{K}    a_ = t_")
    emit(f"{K}    b_ = cc[pc]")
    emit(f"{K}    sel = dd[pc]")
    binop_chain(lambda v: f"stack[-1] = {v}", 4, K + "    ")
    emit(f"{K}if op == 102:")  # BSLLCB: OP1;store;load;const;OP2
    emit(f"{K}    steps += 5")
    emit(f"{K}    if steps > max_steps:")
    emit(f"{K}        raise StepLimitExceeded(max_steps, cf.name)")
    emit(f"{K}    _b1 = pop()")
    emit(f"{K}    _a1 = pop()")
    inner_chain("_a1", "_b1", "bb[pc]", K + "    ")
    emit(f"{K}    loc[aa[pc]] = t_")
    emit(f"{K}    a_ = loc[cc[pc]]")
    emit(f"{K}    b_ = dd[pc]")
    emit(f"{K}    sel = ee[pc]")
    binop_chain(lambda v: f"push({v})", 5, K + "    ")
    emit(f"{K}if op == 97:")  # LGC: load;gload;const;BINOP
    emit(f"{K}    steps += 4")
    emit(f"{K}    if steps > max_steps:")
    emit(f"{K}        raise StepLimitExceeded(max_steps, cf.name)")
    emit(f"{K}    push(loc[aa[pc]])")
    emit(f"{K}    a_ = glob[bb[pc]]")
    emit(f"{K}    b_ = cc[pc]")
    emit(f"{K}    sel = dd[pc]")
    binop_chain(lambda v: f"push({v})", 4, K + "    ")
    emit(f"{K}if op == 95:")  # CBS: const;BINOP;store
    emit(f"{K}    steps += 3")
    emit(f"{K}    if steps > max_steps:")
    emit(f"{K}        raise StepLimitExceeded(max_steps, cf.name)")
    emit(f"{K}    a_ = pop()")
    emit(f"{K}    b_ = aa[pc]")
    emit(f"{K}    sel = bb[pc]")
    binop_chain(lambda v: f"loc[cc[pc]] = {v}", 3, K + "    ")
    emit(f"{K}if op == 96:")  # CBB: const;OP1;OP2;store
    emit(f"{K}    steps += 4")
    emit(f"{K}    if steps > max_steps:")
    emit(f"{K}        raise StepLimitExceeded(max_steps, cf.name)")
    emit(f"{K}    _a1 = pop()")
    inner_chain("_a1", "aa[pc]", "bb[pc]", K + "    ")
    emit(f"{K}    a_ = pop()")
    emit(f"{K}    b_ = t_")
    emit(f"{K}    sel = dd[pc]")
    binop_chain(lambda v: f"loc[cc[pc]] = {v}", 4, K + "    ")
    # 100: BLB: OP1;load;OP2
    emit(f"{K}steps += 3")
    emit(f"{K}if steps > max_steps:")
    emit(f"{K}    raise StepLimitExceeded(max_steps, cf.name)")
    emit(f"{K}_b1 = pop()")
    inner_chain("stack[-1]", "_b1", "cc[pc]", K)
    emit(f"{K}a_ = t_")
    emit(f"{K}b_ = loc[aa[pc]]")
    emit(f"{K}sel = bb[pc]")
    binop_chain(lambda v: f"stack[-1] = {v}", 3, K)
    # ---- epilogue ----------------------------------------------------
    # Underflow inside a *fused* slot cannot name the exact component
    # the seed engine would blame (the pop interleaving is collapsed),
    # so the cold error path replays the deterministic program on the
    # reference engine to recover the seed-identical diagnostic.
    emit("    except IndexError:")
    emit("        if op >= 45:")
    emit("            _exc = _seed_diagnostic_replay(module, inputs,"
         " max_steps)")
    emit("            if _exc is not None:")
    emit("                raise _exc from None")
    emit("        raise VMError(")
    emit("            f'{cf.name}@{cf.raw_of[pc] if pc < len(cf.raw_of)"
         " else pc}: '")
    emit("            f'stack underflow on {cf.mnemonic(pc)}') from None")
    if T:
        emit("    trace.bits = bytes(bits)")
    trace_expr = "trace" if T else "None"
    emit(f"    return RunResult(output=output, steps=steps, "
         f"trace={trace_expr}, halted=halted)")
    return "\n".join(L) + "\n"


def _seed_diagnostic_replay(module, inputs, max_steps):
    """Re-run a trapped program on the reference engine (cold path).

    WVM programs are deterministic, so the replay reaches the same
    trap; the reference engine attributes it to the exact component
    instruction, which a fused slot cannot do from inside the fast
    loop. Returns the replayed :class:`VMError`, or ``None`` if the
    replay unexpectedly diverges (the caller then falls back to its
    own slot-level message).
    """
    from ._reference import run_module_reference

    try:
        run_module_reference(module, inputs, max_steps=max_steps)
    except VMError as exc:
        return exc
    return None


_MODE_NAMES: Dict[Optional[str], str] = {
    None: "_run_untraced",
    "branch": "_run_branch",
    "full": "_run_full",
}


def _materialize_loop(mode: Optional[str], profiled: bool = False) -> Callable:
    namespace: Dict = {
        "wrap64": wrap64,
        "VMError": VMError,
        "StepLimitExceeded": StepLimitExceeded,
        "Trace": Trace,
        "TracePoint": TracePoint,
        "RunResult": RunResult,
        "_seed_diagnostic_replay": _seed_diagnostic_replay,
        "arrive": tier2.arrive,
    }
    fname = _MODE_NAMES[mode] + ("_prof" if profiled else "")
    source = _gen_loop(mode, profiled)
    code = compile(source, f"<wvm-loop:{fname}>", "exec")
    exec(code, namespace)  # noqa: S102 - internal template, no user input
    return namespace[fname]


_LOOPS: Dict[Optional[str], Callable] = {
    mode: _materialize_loop(mode) for mode in _MODE_NAMES
}

#: Profiled twins, generated on first request so the common import
#: path never pays their codegen.
_PROFILED_LOOPS: Dict[Optional[str], Callable] = {}


def _profiled_loop(mode: Optional[str]) -> Callable:
    loop = _PROFILED_LOOPS.get(mode)
    if loop is None:
        loop = _PROFILED_LOOPS[mode] = _materialize_loop(mode, profiled=True)
    return loop


class Interpreter:
    """Executes a module; optionally records a trace.

    ``trace_mode``:
      * ``None`` — no tracing (fastest; cost evaluation runs);
      * ``"branch"`` — record conditional-branch events and the
        bit-string they decode to (recognition);
      * ``"full"`` — branch events plus per-site variable snapshots
        (the embedding-time tracing phase).

    ``profile=True`` selects the profiled loop twin, which counts
    every dispatched slot into a per-opcode array surfaced as
    ``RunResult.dispatch_counts`` (cumulative across ``run`` calls on
    one interpreter). Plain runs never touch the profiled loops, and
    profiled runs never enter tier 2, so the counts are of tier-1
    slots and reconstruct ``steps`` exactly.

    Functions are compiled to the dense dispatch form lazily, on first
    call, and cached for the lifetime of the interpreter — so cold
    code (most of a jess-like module) never pays compilation.
    """

    def __init__(
        self,
        module: Module,
        max_steps: int = DEFAULT_MAX_STEPS,
        trace_mode: Optional[str] = None,
        profile: bool = False,
    ):
        if trace_mode not in (None, "branch", "full"):
            raise ValueError(f"bad trace_mode {trace_mode!r}")
        module.validate_structure()
        self.module = module
        self.max_steps = max_steps
        self.trace_mode = trace_mode
        self._compiled: Dict[str, CompiledFunction] = {}
        self.dispatch_counts: Optional[list] = (
            [0] * NUM_OPCODES if profile else None
        )
        self._loop = (
            _profiled_loop(trace_mode) if profile else _LOOPS[trace_mode]
        )

    # -- public API ---------------------------------------------------------

    def run(self, inputs: Sequence[int] = ()) -> RunResult:
        """Execute from the entry function until halt or return.

        ``inputs`` is the secret input sequence consumed by ``input``
        instructions (the watermark key at trace time).
        """
        if self.dispatch_counts is None:
            return self._loop(
                self.module, self._compiled, self._compile, inputs,
                self.max_steps,
            )
        result = self._loop(
            self.module, self._compiled, self._compile, inputs,
            self.max_steps, self.dispatch_counts,
        )
        result.dispatch_counts = self.dispatch_counts
        return result

    # -- helpers -------------------------------------------------------------

    def _compile(self, name: str) -> CompiledFunction:
        fn = self.module.functions.get(name)
        if fn is None:
            raise VMError(f"call to unknown function {name!r}")
        code = CompiledFunction(fn, self.trace_mode)
        self._compiled[name] = code
        return code


def run_module(
    module: Module,
    inputs: Sequence[int] = (),
    trace_mode: Optional[str] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    profile: bool = False,
) -> RunResult:
    """Convenience wrapper: build an interpreter and run the module."""
    return Interpreter(
        module, max_steps=max_steps, trace_mode=trace_mode, profile=profile
    ).run(inputs)
