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
  keys, one slot per instruction.
* The run loop exists in three *specializations* — untraced,
  branch-traced and full-traced — so ``trace_mode=None`` pays zero
  tracing overhead. Both traced loops decode the trace bit-string of
  paper §3.1 as they record each branch event (``Trace.bits``), from
  a per-run table of each branch's first outcome. The three are
  generated from one template at import time (:func:`_gen_loop`);
  tracing differs only in the lines tagged for that mode, which keeps
  the semantics of the variants in lockstep by construction.
* Each loop has a second tier (:mod:`repro.vm.tier2`): at each
  control transfer it runs the block it lands on as one generated
  Python function once it is hot or cached, and falls back to the
  dispatch tree for everything else. A block holds no label, so the
  full-traced loop records a block's trace sites, like its branch
  event, on the edge it leaves by.
* A run's executed-instruction count is ``RunResult.steps``; the
  pipeline puts it on the span that times the run.

Observable behaviour is identical to the seed engine (kept as
:mod:`repro.vm._reference` for differential testing): same outputs,
same step counts, same traps, and byte-identical traces.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from . import tier2
from .compiler import CompiledFunction
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


def _gen_loop(mode: Optional[str]) -> str:
    T = mode in ("branch", "full")
    F = mode == "full"
    # Tier 2 (hot blocks as generated Python, see repro.vm.tier2) runs
    # in every loop: every control transfer breaks out of the inner
    # tier-1 loop to the outer one, which runs the blocks it lands on;
    # fall-throughs stay inside.
    IND = " " * 16  # indentation of the dispatch tree
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

    def branch_tail(ind: str) -> None:
        """Conditional-branch epilogue: event, sites, transfer."""
        emit(f"{ind}if taken:")
        if T:
            record("evt", ind + "    ")
        if F:
            snap("ts[pc]", ind + "    ")
        emit(f"{ind}    pc = aa[pc]")
        emit(f"{ind}else:")
        if T:
            record("evf", ind + "    ")
        if F:
            snap("fs[pc]", ind + "    ")
        emit(f"{ind}    pc += 1")
        emit(f"{ind}break")

    def jump_tail(ind: str) -> None:
        """goto epilogue: sites on the taken edge, then transfer."""
        if F:
            snap("ts[pc]", ind)
        emit(f"{ind}pc = aa[pc]")
        emit(f"{ind}break")

    def fall(ind: str) -> None:
        """Fall-through epilogue: sites crossed, then advance."""
        if F:
            snap("fs[pc]", ind)
        emit(f"{ind}pc += 1")
        emit(f"{ind}continue")

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
        if F:
            emit("                run_block, nsteps, tgt, nxt, et, ef, st, sf"
                 " = bk")
        else:
            emit("                run_block, nsteps, tgt, nxt, et, ef = bk")
        emit("                steps += nsteps")
        emit("                if steps > max_steps:")
        emit("                    steps -= nsteps")  # tier 1 finds the step
        emit("                    break")
        emit("                try:")
        emit("                    taken = run_block(loc, glob, stack, heap,"
             " out_append)")
        # A block cannot name the instruction that underflowed; the
        # reference engine, replaying the deterministic run, can.
        emit("                except IndexError:")
        emit("                    _exc = _seed_diagnostic_replay(module,"
             " inputs, max_steps)")
        emit("                    if _exc is not None:")
        emit("                        raise _exc from None")
        emit("                    raise")
        if T:
            # A block holds no label, so its only site crossing is on
            # the edge it leaves by (``st``/``sf``, see tier2._install).
            emit("                if taken:")
            emit("                    pc = tgt")
            emit("                    if et is not None:")
            record_edge("et", "                        ")
            if F:
                snap("st", "                    ")
            emit("                else:")
            emit("                    pc = nxt")
            record_edge("ef", "                    ")
            if F:
                snap("sf", "                    ")
        else:
            emit("                pc = tgt if taken else nxt")

    def record_edge(edge: str, ind: str) -> None:
        emit(f"{ind}_e, _b, _c = {edge}")
        emit(f"{ind}ev_append(_e)")
        emit(f"{ind}bits_append(_c is not first_code(_b, _c))")

    emit(f"def {_MODE_NAMES[mode]}"
         "(module, compiled, compile_fn, inputs, max_steps):")
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
    emit("    ops = cf.ops; aa = cf.aa; bb = cf.bb")
    if T:
        emit("    evt = cf.evt; evf = cf.evf")
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
    tier2_chain()
    emit("            while True:")
    emit(f"{IND}op = ops[pc]")
    emit(f"{IND}steps += 1")
    emit(f"{IND}if steps > max_steps:")
    emit(f"{IND}    raise StepLimitExceeded(max_steps, cf.name)")
    emit(f"{IND}if op < 10:")
    emit(f"{IND}    if op == 0:")  # load
    emit(f"{IND}        push(loc[aa[pc]])")
    fall(IND + "        ")
    emit(f"{IND}    if op == 1:")  # const
    emit(f"{IND}        push(aa[pc])")
    fall(IND + "        ")
    emit(f"{IND}    if op == 2:")  # add
    emit(f"{IND}        b_ = pop()")
    emit(f"{IND}        v = stack[-1] + b_")
    emit(f"{IND}        stack[-1] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    fall(IND + "        ")
    emit(f"{IND}    if op == 3:")  # store
    emit(f"{IND}        loc[aa[pc]] = pop()")
    fall(IND + "        ")
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
    fall(IND + "        ")
    emit(f"{IND}    if op == 5:")  # mul
    emit(f"{IND}        b_ = pop()")
    emit(f"{IND}        v = stack[-1] * b_")
    emit(f"{IND}        stack[-1] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    fall(IND + "        ")
    emit(f"{IND}    if op == 6:")  # band
    emit(f"{IND}        b_ = pop()")
    emit(f"{IND}        v = stack[-1] & b_")
    emit(f"{IND}        stack[-1] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    fall(IND + "        ")
    emit(f"{IND}    if op == 7:")  # sub
    emit(f"{IND}        b_ = pop()")
    emit(f"{IND}        v = stack[-1] - b_")
    emit(f"{IND}        stack[-1] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    fall(IND + "        ")
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
    fall(IND + "        ")
    # iinc
    emit(f"{IND}    _i = aa[pc]")
    emit(f"{IND}    v = loc[_i] + bb[pc]")
    emit(f"{IND}    loc[_i] = v if {_MIN64} <= v <= {_MAX64} else wrap(v)")
    fall(IND + "    ")
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
    branch_tail(IND + "    ")
    emit(f"{IND}if op == 22:")  # goto
    jump_tail(IND + "    ")
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
    emit(f"{IND}    ops = cf.ops; aa = cf.aa; bb = cf.bb")
    if T:
        emit(f"{IND}    evt = cf.evt; evf = cf.evf")
    if F:
        emit(f"{IND}    fs = cf.fs; ts = cf.ts")
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
    emit(f"{IND}    break")
    emit(f"{IND}if op == 24:")  # ret
    emit(f"{IND}    _v = pop()")
    emit(f"{IND}    if not frames:")
    emit(f"{IND}        halted = True")
    emit(f"{IND}        break")
    emit(f"{IND}    cf, pc, loc, stack, push, pop = frames_pop()")
    emit(f"{IND}    push(_v)")
    emit(f"{IND}    ops = cf.ops; aa = cf.aa; bb = cf.bb")
    if T:
        emit(f"{IND}    evt = cf.evt; evf = cf.evf")
    if F:
        emit(f"{IND}    fs = cf.fs; ts = cf.ts")
        snap("fs[pc - 1]", IND + "    ")
    emit(f"{IND}    blk = cf.blk")
    emit(f"{IND}    break")
    emit(f"{IND}if op == 25:")  # gload
    emit(f"{IND}    push(glob[aa[pc]])")
    fall(IND + "    ")
    emit(f"{IND}if op == 26:")  # gstore
    emit(f"{IND}    glob[aa[pc]] = pop()")
    fall(IND + "    ")
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
    fall(IND + "    ")
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
    fall(IND + "    ")
    emit(f"{IND}if op == 38:")  # newarray
    emit(f"{IND}    _n = pop()")
    emit(f"{IND}    if _n < 0 or _n > 10_000_000:")
    emit(f"{IND}        raise VMError(f'bad array length {{_n}}')")
    emit(f"{IND}    heap_append([0] * _n)")
    emit(f"{IND}    push(len(heap) - 1)")
    fall(IND + "    ")
    emit(f"{IND}if op == 39:")  # alen
    emit(f"{IND}    a_ = stack[-1]")
    emit(f"{IND}    if not 0 <= a_ < len(heap):")
    emit(f"{IND}        raise VMError(f'bad array reference {{a_}}')")
    emit(f"{IND}    stack[-1] = len(heap[a_])")
    fall(IND + "    ")
    emit(f"{IND}if op == 40:")  # print
    emit(f"{IND}    out_append(pop())")
    fall(IND + "    ")
    emit(f"{IND}if op == 41:")  # input
    emit(f"{IND}    if input_pos >= n_inputs:")
    emit(f"{IND}        raise VMError('input sequence exhausted')")
    emit(f"{IND}    push(inputs[input_pos])")
    emit(f"{IND}    input_pos += 1")
    fall(IND + "    ")
    emit(f"{IND}if op == 42:")  # nop
    fall(IND + "    ")
    emit(f"{IND}if op == 43:")  # halt
    emit(f"{IND}    halted = True")
    emit(f"{IND}    break")
    # OP_END sentinel
    emit(f"{IND}raise VMError(f'{{cf.name}}: fell off the end of the code')")
    emit("    except IndexError:")
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
    trap; the reference engine attributes it to the exact instruction,
    which a tier-2 block cannot do. Returns the replayed
    :class:`VMError`, or ``None`` if the replay unexpectedly diverges
    (the caller then falls back to a message naming the block's first
    instruction).
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


def _materialize_loop(mode: Optional[str]) -> Callable:
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
    fname = _MODE_NAMES[mode]
    source = _gen_loop(mode)
    code = compile(source, f"<wvm-loop:{fname}>", "exec")
    exec(code, namespace)  # noqa: S102 - internal template, no user input
    return namespace[fname]


_LOOPS: Dict[Optional[str], Callable] = {
    mode: _materialize_loop(mode) for mode in _MODE_NAMES
}


class Interpreter:
    """Executes a module; optionally records a trace.

    ``trace_mode``:
      * ``None`` — no tracing (fastest; cost evaluation runs);
      * ``"branch"`` — record conditional-branch events and the
        bit-string they decode to (recognition);
      * ``"full"`` — branch events plus per-site variable snapshots
        (the embedding-time tracing phase).

    Functions are compiled to the dense dispatch form lazily, on first
    call, and cached for the lifetime of the interpreter — so cold
    code (most of a jess-like module) never pays compilation.
    """

    def __init__(
        self,
        module: Module,
        max_steps: int = DEFAULT_MAX_STEPS,
        trace_mode: Optional[str] = None,
    ):
        if trace_mode not in (None, "branch", "full"):
            raise ValueError(f"bad trace_mode {trace_mode!r}")
        module.validate_structure()
        self.module = module
        self.max_steps = max_steps
        self.trace_mode = trace_mode
        self._compiled: Dict[str, CompiledFunction] = {}
        self._loop = _LOOPS[trace_mode]

    # -- public API ---------------------------------------------------------

    def run(self, inputs: Sequence[int] = ()) -> RunResult:
        """Execute from the entry function until halt or return.

        ``inputs`` is the secret input sequence consumed by ``input``
        instructions (the watermark key at trace time).
        """
        return self._loop(
            self.module, self._compiled, self._compile, inputs,
            self.max_steps,
        )

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
) -> RunResult:
    """Convenience wrapper: build an interpreter and run the module."""
    return Interpreter(
        module, max_steps=max_steps, trace_mode=trace_mode
    ).run(inputs)
