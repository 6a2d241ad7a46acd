"""The N32 machine simulator.

Faithful to the properties Section 4 uses:

* ``call`` pushes the return address; ``ret`` pops the word at
  ``[esp]`` into ``eip`` *whatever it is* — a branch function that
  xors the stack slot redirects control, exactly like on IA-32;
* execution faults (bad opcode, out-of-range eip, wild memory access,
  division by zero) raise :class:`MachineFault` — the simulator's
  SIGSEGV/SIGILL. The attack harness equates a faulting program with
  a broken one.

Execution dispatches through a per-run table from address to entry.
An entry is a tier-1 handler or a tier-2 stretch. The first time an
address executes in a run as a tier-1 step, its instruction is decoded
once and bound into a closure with its register codes, immediates,
branch targets, fall-through address and memory-operand address
function resolved. The closure performs the instruction and returns
the next ``eip``. Once a straight-line stretch of text turns hot in a
run, or is already in the process-wide cache, its entry is one
generated Python function for the whole stretch
(:mod:`repro.native.tier2`), which needs no tier-1 binding at all.
Every observable is the same in both tiers: output, ``steps``,
registers, flags, memory, and a fault's reason, address and step.

Instrumentation is bound into the table, not called per instruction,
and every run goes through the one run loop. A :class:`CallRecord`
wraps only the handlers it watches (calls, returns and one entry
address, with every instruction that can transfer there) — the "tracer
tool that uses hardware single-stepping" of Section 4.2.3 at about the
cost of a plain run. A watched instruction never joins a stretch, so
the rest of the program still runs in tier 2. A ``step_hook``
callback, which observes every instruction with full machine state
before it executes, wraps each handler as it is bound, outside any
:class:`CallRecord` wrapper; it is for tests and debugging, and no
library code uses it. A hooked run sees every instruction, so it runs
wholly in tier 1; a run with a no-op hook is tier 2's oracle. A
profiled run wraps each tier-1 handler, outermost, in a counter of its
executions, and runs hot text in tier 2 like a plain run, counting
once per run of a stretch (:class:`_Tally`); when the run ends, however
it ends, the stretch counts are merged into the profile, which equals
a hooked run's. Each instrument composes with the others, and a run
without one pays nothing for it.

Time is measured in executed instructions (see DESIGN.md).
"""

from __future__ import annotations

import operator
import struct
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from . import tier2
from .encoding import EncodingError
from .image import BinaryImage, STACK_SIZE, STACK_TOP
from .isa import Mem, NInstruction, REG_INDEX, wrap32

if TYPE_CHECKING:
    from .profiler import Profile

DEFAULT_MAX_STEPS = 80_000_000

#: Sentinel return address for the entry frame; `ret` to it ends the run.
EXIT_ADDRESS = 0x0000DEAD

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000  # (v ^ _SIGN) - _SIGN is signed32(v) for 32-bit v
_WORD = struct.Struct("<I")


class MachineFault(Exception):
    """A hardware-level fault (the program is broken)."""

    def __init__(self, reason: str, eip: int = 0):
        super().__init__(f"fault at {eip:#x}: {reason}")
        self.reason = reason
        self.eip = eip


class _Halt(Exception):
    """Raised by the ``halt`` handler to end the run in place."""


class NRunResult:
    """Output and instruction count of a completed run."""

    def __init__(self, output: List[int], steps: int):
        self.output = output
        self.steps = steps

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"NRunResult(steps={self.steps}, output={self.output!r})"


StepHook = Callable[["Machine", int, NInstruction], None]
#: Performs one instruction and returns the next eip.
Handler = Callable[[], int]


class Machine:
    """One execution context over a binary image."""

    def __init__(
        self,
        image: BinaryImage,
        max_steps: int = DEFAULT_MAX_STEPS,
    ):
        self.image = image
        self.max_steps = max_steps
        self.regs: List[int] = [0] * 8
        #: The flags value, in a one-cell list the handlers and tier 2
        #: share (see :attr:`flags_val`).
        self._fl = [0]
        self.eip = image.entry
        self.output: List[int] = []
        self.steps = 0
        self._stack = bytearray(STACK_SIZE)
        self._stack_base = STACK_TOP - STACK_SIZE
        # Private copy of the data section: running a program must not
        # mutate the image (heap pointers, lockdown records) - each run
        # is a fresh process.
        self._data = bytearray(image.data)
        self._data_base = image.data_base
        self._data_last = len(self._data) - 4
        self._inputs: Sequence[int] = ()
        self._input_pos = 0
        self._calls: Optional[CallRecord] = None
        self._step_hook: Optional[StepHook] = None
        #: (counts, first_seen, steps before the run) of a profiled run
        self._profile: Optional[
            Tuple[Dict[int, int], Dict[int, int], int]
        ] = None
        self.regs[4] = STACK_TOP - 64  # esp

    @property
    def flags_val(self) -> int:
        """The last flag-setting result, unwrapped: jumps compare it
        with 0."""
        return self._fl[0]

    @flags_val.setter
    def flags_val(self, value: int) -> None:
        self._fl[0] = value

    # -- memory -----------------------------------------------------------

    def read32(self, addr: int) -> int:
        addr &= _MASK
        off = addr - self._data_base
        if 0 <= off <= self._data_last:
            return _WORD.unpack_from(self._data, off)[0]
        off = addr - self._stack_base
        if 0 <= off <= STACK_SIZE - 4:
            return _WORD.unpack_from(self._stack, off)[0]
        image = self.image
        if image.in_text(addr):
            off = addr - image.text_base
            return int.from_bytes(image.text[off:off + 4], "little")
        raise MachineFault(f"bad read at {addr:#x}", self.eip)

    def write32(self, addr: int, value: int) -> None:
        addr &= _MASK
        off = addr - self._data_base
        if 0 <= off <= self._data_last:
            _WORD.pack_into(self._data, off, value & _MASK)
            return
        off = addr - self._stack_base
        if 0 <= off <= STACK_SIZE - 4:
            _WORD.pack_into(self._stack, off, value & _MASK)
            return
        if self.image.in_text(addr):
            raise MachineFault(f"write to text at {addr:#x}", self.eip)
        raise MachineFault(f"bad write at {addr:#x}", self.eip)

    def push(self, value: int) -> None:
        self.regs[4] = wrap32(self.regs[4] - 4)
        self.write32(self.regs[4], value)

    def pop(self) -> int:
        value = self.read32(self.regs[4])
        self.regs[4] = wrap32(self.regs[4] + 4)
        return value

    # -- execution ---------------------------------------------------------

    def run(
        self,
        inputs: Sequence[int] = (),
        step_hook: Optional[StepHook] = None,
        *,
        calls: Optional["CallRecord"] = None,
        profile: Optional["Profile"] = None,
    ) -> NRunResult:
        """Execute until halt/exit; returns output + instruction count.

        ``eip`` and ``steps`` always name the instruction being executed
        (``eip`` is where faults are reported); after a run that ends,
        faulting or not, ``steps`` counts the instructions that began,
        plus one if the budget ran out. ``calls`` records the run's
        calls and returns; the run fills ``profile``'s ``counts`` and
        ``first_seen``. ``step_hook`` is called with ``(machine, eip,
        instruction)`` before each instruction.
        """
        self._inputs = inputs
        self._input_pos = 0
        self._calls = calls
        self._step_hook = step_hook
        self.push(EXIT_ADDRESS)
        self._profile = None if profile is None else (
            profile.counts, profile.first_seen, self.steps
        )
        try:
            self._loop()
        except _Halt:
            pass
        finally:
            if calls is not None:
                calls.began = min(self.steps, self.max_steps)
        return NRunResult(self.output, self.steps)

    # The loop keeps its table, eip -> (run, steps): a tier-1 handler
    # (one step, called with no arguments) or a tier-2 stretch (called
    # with the machine's state), filled on arrival. Writes to text
    # fault, so text cannot change under the run and no entry goes
    # stale. The table is local to the run: handlers refer to the
    # machine, so a table kept on it would form a cycle that only the
    # garbage collector frees, and one kept per image would live as
    # long as the image does. A profiled run keeps its stretches out of
    # the table, so that each run of one passes through its tally.

    def _loop(self) -> None:
        table: Dict[int, tuple] = {}
        tier1: Dict[int, Tuple[Handler, int]] = {}
        stretches = tally = None
        if self._step_hook is None:
            stretches = tier2.Stretches(self.image, self._calls)
            if self._profile is not None:
                tally = _Tally(stretches)
        regs, fl, data, stack = self.regs, self._fl, self._data, self._stack
        dbase = self._data_base
        dend = dbase + self._data_last
        max_steps = self.max_steps
        steps = self.steps
        eip = self.eip
        try:
            while eip != EXIT_ADDRESS:
                entry = table.get(eip)
                if entry is None:
                    self.eip = eip
                    if tally is not None:
                        found = tally.arrive(eip, steps)
                    else:
                        found = stretches.arrive(eip) if stretches else False
                    if found:
                        entry = found
                        if tally is None:
                            table[eip] = found
                    else:
                        entry = tier1.get(eip) or tier1.setdefault(
                            eip, self._bind(eip)
                        )
                        if found is False:
                            table[eip] = entry
                n = entry[1]
                if n != 1:
                    if steps + n <= max_steps:
                        try:
                            eip = entry[0](
                                eip, regs, fl, data, dbase, dend, stack
                            )
                            steps += n
                            continue
                        except tier2.Bail as bail:
                            k, at = bail.args
                            if tally is not None:
                                tally.bailed(eip, k)
                            eip = at
                            steps += k
                    elif tally is not None:
                        tally.bailed(eip, 0)
                    # The step stays in tier 1: it faults, or its
                    # stretch could cross the budget.
                    self.eip = eip
                    entry = tier1.get(eip) or tier1.setdefault(
                        eip, self._bind(eip)
                    )
                steps += 1
                self.eip = eip
                if steps > max_steps:
                    raise MachineFault("instruction budget exceeded", eip)
                self.steps = steps
                eip = entry[0]()
            self.eip = eip
        finally:
            self.steps = steps
            if tally is not None:
                tally.merge(*self._profile)

    def _bind(self, eip: int) -> Tuple[Handler, int]:
        """Decode the instruction at ``eip`` into its tier-1 entry."""
        image = self.image
        if not image.in_text(eip):
            raise MachineFault(f"eip outside text: {eip:#x}", eip)
        try:
            instr, length = image.decode_at(eip)
        except EncodingError as exc:
            raise MachineFault(f"undecodable instruction: {exc}", eip)
        nxt = eip + length
        handler = _BUILDERS[instr.mnemonic](self, instr, eip, nxt)
        if self._calls is not None:
            handler = self._calls.wrap(self, instr, eip, nxt, handler)
        if self._step_hook is not None:
            handler = _hooked(self, self._step_hook, instr, eip, handler)
        if self._profile is not None:
            handler = _counted(self, *self._profile, eip, handler)
        return handler, 1


def _hooked(
    m: Machine, hook: StepHook, instr: NInstruction, eip: int,
    handler: Handler,
) -> Handler:
    """``handler``, calling ``hook`` first. The run loop calls a handler
    once ``eip`` and ``steps`` name its instruction."""
    def h():
        hook(m, eip, instr)
        return handler()
    return h


def _counted(
    m: Machine, counts: Dict[int, int], first_seen: Dict[int, int],
    start: int, eip: int, handler: Handler,
) -> Handler:
    """``handler``, counting its executions in ``counts`` and noting the
    sequence number (0 for the run's first step) of its first in
    ``first_seen``. A step the budget cuts never calls it, so it is
    counted nowhere."""
    seen = False

    def h():
        nonlocal seen
        if seen:
            counts[eip] += 1
        else:
            seen = True
            first_seen[eip] = m.steps - 1 - start
            counts[eip] = 1
        return handler()
    return h


class _Tally:
    """A profiled run's executions in tier 2, counted per stretch.

    A profiled run keeps its stretches out of the loop's table, so the
    loop arrives here each time it begins one, and tells :meth:`bailed`
    when one stops short (a bail, or the budget). Where a stretch stops,
    tier 1 runs its next instruction at the next step and the run goes
    on through the rest in order, unless it ends first. So the steps
    before a stretch's first arrival date the first run of each of its
    instructions that ever runs. When the run ends, :meth:`merge` adds
    these counts to the tier-1 ones.
    """

    def __init__(self, stretches: tier2.Stretches):
        self._stretches = stretches
        #: stretch address -> [entry, runs begun, steps before the
        #: first, {k: runs that stopped after k instructions}]
        self._runs: Dict[int, list] = {}

    def arrive(self, eip: int, steps: int) -> Union[tier2.Entry, bool, None]:
        """:meth:`tier2.Stretches.arrive`, counting the run it begins."""
        run = self._runs.get(eip)
        if run is None:
            found = self._stretches.arrive(eip)
            if not found:
                return found
            run = self._runs[eip] = [found, 0, steps, {}]
        run[1] += 1
        return run[0]

    def bailed(self, eip: int, k: int) -> None:
        """The stretch at ``eip`` ran only its first ``k``
        instructions."""
        stops = self._runs[eip][3]
        stops[k] = stops.get(k, 0) + 1

    def merge(
        self, counts: Dict[int, int], first_seen: Dict[int, int], start: int
    ) -> None:
        """Add each instruction's runs to ``counts`` and keep the
        earlier of its first step here and in ``first_seen``."""
        for eip, (entry, begun, first, stops) in self._runs.items():
            for i, off in enumerate(entry[2]):
                runs = begun - sum(n for k, n in stops.items() if k <= i)
                if runs:
                    addr = eip + off
                    counts[addr] = counts.get(addr, 0) + runs
                    seen = first + i - start
                    if first_seen.get(addr, seen) >= seen:
                        first_seen[addr] = seen


# -- handler builders ---------------------------------------------------
#
# Each builder takes (machine, instruction, eip, fall-through address)
# and returns the instruction's handler. Arithmetic reads operands as
# signed 32-bit values; registers and memory keep the wrapped result
# and flags_val the unwrapped one.


def _address(regs: List[int], mem: Mem) -> Callable[[], int]:
    """A function computing the effective address of ``mem``. Decoded
    operands have a base or an index register, never both."""
    disp = mem.disp
    if mem.index is not None:
        i = REG_INDEX[mem.index]
        return lambda: (disp + regs[i] * 4) & _MASK
    if mem.base is not None:
        b = REG_INDEX[mem.base]
        return lambda: (regs[b] + disp) & _MASK
    addr = disp & _MASK
    return lambda: addr


def _b_mov_ri(m, instr, eip, nxt):
    regs = m.regs
    d, v = instr.operands[0].code, instr.operands[1].value & _MASK

    def h():
        regs[d] = v
        return nxt
    return h


def _b_mov_rr(m, instr, eip, nxt):
    regs = m.regs
    d, s = (op.code for op in instr.operands)

    def h():
        regs[d] = regs[s]
        return nxt
    return h


def _b_load(m, instr, eip, nxt):
    """mov_rm, mov_ra, mov_rx: register <- [address]."""
    regs, read = m.regs, m.read32
    d, ea = instr.operands[0].code, _address(m.regs, instr.operands[1])

    def h():
        regs[d] = read(ea())
        return nxt
    return h


def _b_store(m, instr, eip, nxt):
    """mov_mr, mov_ar: [address] <- register."""
    regs, write = m.regs, m.write32
    ea, s = _address(m.regs, instr.operands[0]), instr.operands[1].code

    def h():
        write(ea(), regs[s])
        return nxt
    return h


def _b_mov_mi(m, instr, eip, nxt):
    write = m.write32
    ea, v = _address(m.regs, instr.operands[0]), instr.operands[1].value

    def h():
        write(ea(), v)
        return nxt
    return h


def _b_lea(m, instr, eip, nxt):
    regs = m.regs
    d, ea = instr.operands[0].code, _address(m.regs, instr.operands[1])

    def h():
        regs[d] = ea()
        return nxt
    return h


def _b_xchg_rm(m, instr, eip, nxt):
    regs, read, write = m.regs, m.read32, m.write32
    d, ea = instr.operands[0].code, _address(m.regs, instr.operands[1])

    def h():
        addr = ea()
        tmp = read(addr)
        write(addr, regs[d])
        regs[d] = tmp
        return nxt
    return h


def _b_xchg_rr(m, instr, eip, nxt):
    regs = m.regs
    a, b = (op.code for op in instr.operands)

    def h():
        regs[a], regs[b] = regs[b], regs[a]
        return nxt
    return h


def _b_push(m, instr, eip, nxt):
    regs, write = m.regs, m.write32
    s = instr.operands[0].code

    def h():
        value = regs[s]
        esp = regs[4] = (regs[4] - 4) & _MASK
        write(esp, value)
        return nxt
    return h


def _b_pop(m, instr, eip, nxt):
    regs, read = m.regs, m.read32
    d = instr.operands[0].code

    def h():
        esp = regs[4]
        value = read(esp)
        regs[4] = (esp + 4) & _MASK
        regs[d] = value
        return nxt
    return h


def _b_pushi(m, instr, eip, nxt):
    regs, write = m.regs, m.write32
    v = instr.operands[0].value

    def h():
        esp = regs[4] = (regs[4] - 4) & _MASK
        write(esp, v)
        return nxt
    return h


def _b_pushf(m, instr, eip, nxt):
    fl = m._fl

    def h():
        flags = fl[0]
        m.push((1 if flags == 0 else 0) | ((1 if flags < 0 else 0) << 1))
        return nxt
    return h


def _b_popf(m, instr, eip, nxt):
    fl = m._fl

    def h():
        packed = m.pop()
        if packed & 1:
            fl[0] = 0
        else:
            fl[0] = -1 if packed & 2 else 1
        return nxt
    return h


_ALU = {
    "add": operator.add,
    "sub": operator.sub,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "cmp": operator.sub,
    "test": operator.and_,
}
_COMPARES = frozenset({"cmp", "test"})


def _alu_parts(instr):
    op = instr.mnemonic.partition("_")[0]
    return _ALU[op], op in _COMPARES


def _b_alu_rr(m, instr, eip, nxt):
    regs, fl = m.regs, m._fl
    d, s = (op.code for op in instr.operands)
    fn, compare = _alu_parts(instr)

    def h():
        r = fn((regs[d] ^ _SIGN) - _SIGN, (regs[s] ^ _SIGN) - _SIGN)
        if not compare:
            regs[d] = r & _MASK
        fl[0] = r
        return nxt
    return h


def _b_alu_ri(m, instr, eip, nxt):
    regs, fl = m.regs, m._fl
    d = instr.operands[0].code
    b = ((instr.operands[1].value & _MASK) ^ _SIGN) - _SIGN
    fn, compare = _alu_parts(instr)

    def h():
        r = fn((regs[d] ^ _SIGN) - _SIGN, b)
        if not compare:
            regs[d] = r & _MASK
        fl[0] = r
        return nxt
    return h


def _b_alu_mr(m, instr, eip, nxt):
    """add_mr, sub_mr, xor_mr: [address] op= register."""
    regs, fl, read, write = m.regs, m._fl, m.read32, m.write32
    ea, s = _address(m.regs, instr.operands[0]), instr.operands[1].code
    fn, _compare = _alu_parts(instr)

    def h():
        addr = ea()
        r = fn((read(addr) ^ _SIGN) - _SIGN, (regs[s] ^ _SIGN) - _SIGN)
        write(addr, r)
        fl[0] = r
        return nxt
    return h


def _b_alu_rm(m, instr, eip, nxt):
    """add_rm, xor_rm, cmp_rm: register op= [address]."""
    regs, fl, read = m.regs, m._fl, m.read32
    d, ea = instr.operands[0].code, _address(m.regs, instr.operands[1])
    fn, compare = _alu_parts(instr)

    def h():
        r = fn((regs[d] ^ _SIGN) - _SIGN, (read(ea()) ^ _SIGN) - _SIGN)
        if not compare:
            regs[d] = r & _MASK
        fl[0] = r
        return nxt
    return h


def _b_cmp_mi(m, instr, eip, nxt):
    fl, read = m._fl, m.read32
    ea = _address(m.regs, instr.operands[0])
    b = ((instr.operands[1].value & _MASK) ^ _SIGN) - _SIGN

    def h():
        fl[0] = ((read(ea()) ^ _SIGN) - _SIGN) - b
        return nxt
    return h


def _shift_amount(regs: List[int], instr: NInstruction) -> Callable[[], int]:
    """The shift count: an immediate (``_ri``) or a register (``_rr``)."""
    if instr.mnemonic.endswith("_ri"):
        count = instr.operands[1].value & 31

        def amount():
            return count
    else:
        s = instr.operands[1].code

        def amount():
            return regs[s] & 31
    return amount


def _b_shl(m, instr, eip, nxt):
    regs, fl = m.regs, m._fl
    d, amount = instr.operands[0].code, _shift_amount(m.regs, instr)

    def h():
        r = (regs[d] << amount()) & _MASK
        regs[d] = r
        fl[0] = (r ^ _SIGN) - _SIGN
        return nxt
    return h


def _b_shr(m, instr, eip, nxt):
    regs, fl = m.regs, m._fl
    d, amount = instr.operands[0].code, _shift_amount(m.regs, instr)

    def h():
        r = regs[d] >> amount()
        regs[d] = r
        fl[0] = r
        return nxt
    return h


def _b_sar(m, instr, eip, nxt):
    regs, fl = m.regs, m._fl
    d, amount = instr.operands[0].code, _shift_amount(m.regs, instr)

    def h():
        r = ((regs[d] ^ _SIGN) - _SIGN) >> amount()
        regs[d] = r & _MASK
        fl[0] = r
        return nxt
    return h


def _b_neg(m, instr, eip, nxt):
    regs, fl = m.regs, m._fl
    d = instr.operands[0].code

    def h():
        r = -((regs[d] ^ _SIGN) - _SIGN)
        regs[d] = r & _MASK
        fl[0] = r
        return nxt
    return h


def _b_not(m, instr, eip, nxt):
    regs = m.regs
    d = instr.operands[0].code

    def h():
        regs[d] = ~regs[d] & _MASK
        return nxt
    return h


def _b_imul_rr(m, instr, eip, nxt):
    regs, fl = m.regs, m._fl
    d, s = (op.code for op in instr.operands)

    def h():
        r = (((regs[d] ^ _SIGN) - _SIGN) * ((regs[s] ^ _SIGN) - _SIGN)) & _MASK
        regs[d] = r
        fl[0] = (r ^ _SIGN) - _SIGN
        return nxt
    return h


def _b_imul_rri(m, instr, eip, nxt):
    regs, fl = m.regs, m._fl
    d, s = instr.operands[0].code, instr.operands[1].code
    k = ((instr.operands[2].value & _MASK) ^ _SIGN) - _SIGN

    def h():
        r = (((regs[s] ^ _SIGN) - _SIGN) * k) & _MASK
        regs[d] = r
        fl[0] = (r ^ _SIGN) - _SIGN
        return nxt
    return h


def _b_idiv(m, instr, eip, nxt):
    regs = m.regs
    s = instr.operands[0].code

    def h():
        divisor = (regs[s] ^ _SIGN) - _SIGN
        if divisor == 0:
            raise MachineFault("division by zero", eip)
        dividend = (regs[0] ^ _SIGN) - _SIGN
        q = abs(dividend) // abs(divisor)
        if (dividend < 0) != (divisor < 0):
            q = -q
        regs[0] = q & _MASK
        regs[2] = (dividend - q * divisor) & _MASK
        return nxt
    return h


def _b_jmp(m, instr, eip, nxt):
    target = instr.operands[0].value & _MASK
    return lambda: target


def _b_call(m, instr, eip, nxt):
    regs, write = m.regs, m.write32
    target = instr.operands[0].value & _MASK

    def h():
        esp = regs[4] = (regs[4] - 4) & _MASK
        write(esp, nxt)
        return target
    return h


def _b_jmp_a(m, instr, eip, nxt):
    read = m.read32
    cell = instr.operands[0].disp
    return lambda: read(cell)


def _b_call_a(m, instr, eip, nxt):
    regs, read, write = m.regs, m.read32, m.write32
    cell = instr.operands[0].disp

    def h():
        esp = regs[4] = (regs[4] - 4) & _MASK
        write(esp, nxt)
        return read(cell)
    return h


def _b_jmp_r(m, instr, eip, nxt):
    regs = m.regs
    s = instr.operands[0].code
    return lambda: regs[s]


def _b_ret(m, instr, eip, nxt):
    regs, read = m.regs, m.read32

    def h():
        esp = regs[4]
        target = read(esp)
        regs[4] = (esp + 4) & _MASK
        return target
    return h


#: Conditional jumps: (flags cell, target, fall-through) -> handler.
_JCC: Dict[str, Callable[..., Handler]] = {
    "je": lambda fl, t, nxt: lambda: t if fl[0] == 0 else nxt,
    "jne": lambda fl, t, nxt: lambda: t if fl[0] != 0 else nxt,
    "jl": lambda fl, t, nxt: lambda: t if fl[0] < 0 else nxt,
    "jle": lambda fl, t, nxt: lambda: t if fl[0] <= 0 else nxt,
    "jg": lambda fl, t, nxt: lambda: t if fl[0] > 0 else nxt,
    "jge": lambda fl, t, nxt: lambda: t if fl[0] >= 0 else nxt,
}


def _b_jcc(m, instr, eip, nxt):
    return _JCC[instr.mnemonic](m._fl, instr.operands[0].value & _MASK, nxt)


def _b_sys_out(m, instr, eip, nxt):
    regs, output = m.regs, m.output

    def h():
        output.append((regs[0] ^ _SIGN) - _SIGN)
        return nxt
    return h


def _b_sys_in(m, instr, eip, nxt):
    regs = m.regs

    def h():
        if m._input_pos >= len(m._inputs):
            raise MachineFault("input exhausted", eip)
        regs[0] = m._inputs[m._input_pos] & _MASK
        m._input_pos += 1
        return nxt
    return h


def _b_nop(m, instr, eip, nxt):
    return lambda: nxt


def _b_halt(m, instr, eip, nxt):
    def h():
        raise _Halt()
    return h


_BUILDERS: Dict[str, Callable[..., Handler]] = {
    "mov_ri": _b_mov_ri, "mov_rr": _b_mov_rr,
    "mov_rm": _b_load, "mov_ra": _b_load, "mov_rx": _b_load,
    "mov_mr": _b_store, "mov_ar": _b_store, "mov_mi": _b_mov_mi,
    "lea": _b_lea, "xchg_rm": _b_xchg_rm, "xchg_rr": _b_xchg_rr,
    "push": _b_push, "pop": _b_pop, "pushi": _b_pushi,
    "pushf": _b_pushf, "popf": _b_popf,
    "add_mr": _b_alu_mr, "sub_mr": _b_alu_mr, "xor_mr": _b_alu_mr,
    "add_rm": _b_alu_rm, "xor_rm": _b_alu_rm, "cmp_rm": _b_alu_rm,
    "cmp_mi": _b_cmp_mi,
    "neg": _b_neg, "not": _b_not,
    "imul_rr": _b_imul_rr, "imul_rri": _b_imul_rri, "idiv": _b_idiv,
    "jmp": _b_jmp, "call": _b_call, "jmp_a": _b_jmp_a, "call_a": _b_call_a,
    "jmp_r": _b_jmp_r, "ret": _b_ret,
    "sys_out": _b_sys_out, "sys_in": _b_sys_in,
    "nop": _b_nop, "halt": _b_halt,
}
for _op in ("add", "sub", "and", "or", "xor", "cmp", "test"):
    _BUILDERS[f"{_op}_rr"] = _b_alu_rr
for _op in ("add", "sub", "and", "or", "xor", "cmp"):
    _BUILDERS[f"{_op}_ri"] = _b_alu_ri
for _op, _build in (("shl", _b_shl), ("shr", _b_shr), ("sar", _b_sar)):
    _BUILDERS[f"{_op}_ri"] = _BUILDERS[f"{_op}_rr"] = _build
for _op in _JCC:
    _BUILDERS[_op] = _b_jcc


#: CallRecord event kinds.
CALL, CALL_A, RET, ENTRY = "call", "call_a", "ret", "entry"
#: Transfers whose next eip is computed at run time.
_INDIRECT = frozenset({"ret", "jmp_r", "jmp_a", "call_a"})
_DIRECT = frozenset({"jmp", "call", *_JCC})
#: Instructions every CallRecord watches.
_CALLS = frozenset({"call", "call_a", "ret"})


class CallRecord:
    """The calls and returns of one run, in execution order.

    Passed to :meth:`Machine.run` as ``calls``, the record wraps the
    ``call``, ``call_a`` and ``ret`` handlers as they are bound, and,
    when ``entry`` is given, the instruction at ``entry`` and every
    instruction that can transfer control there. Nothing else is
    touched, so a recorded run costs about what a plain one does.
    ``events`` holds tuples whose first field is the kind and whose
    third is a stack pointer:

    * ``(CALL or CALL_A, eip, esp, return address, target)`` after a
      call: ``esp`` addresses the pushed return address;
    * ``(ENTRY, came from, esp, [esp], entry)`` before the instruction
      at ``entry`` executes: ``came from`` is the address of the
      instruction that transferred control there (``None`` on the
      run's first step) and ``[esp]`` is ``None`` if unreadable;
    * ``(RET, eip, esp, resumed at, step)`` after a ``ret``: ``esp`` is
      the stack pointer it popped from and ``step`` its step number.

    A call is an arrival at its target laid out like an entry: the
    calling instruction, the stack pointer and the hash input ``[esp]``.
    """

    def __init__(self, entry: Optional[int] = None):
        self.entry = entry
        self.events: List[tuple] = []
        #: Steps the run began, set when it ends (a step the budget cuts
        #: never begins).
        self.began = 0
        self._came_from: Optional[int] = None

    def unwind(
        self,
        opens: Callable[[tuple], bool],
        skip: Optional[int] = None,
        events: Optional[List[tuple]] = None,
    ) -> List[Tuple[tuple, tuple]]:
        """Pair each frame ``opens`` selects with the ``RET`` event that
        unwinds it: a ``ret`` (not at ``skip``) that pops from the
        innermost open frame's stack pointer. ``events`` defaults to the
        whole record."""
        stack: List[tuple] = []
        pairs: List[Tuple[tuple, tuple]] = []
        for ev in self.events if events is None else events:
            if ev[0] == RET:
                if stack and ev[2] == stack[-1][2] and ev[1] != skip:
                    pairs.append((stack.pop(), ev))
            elif opens(ev):
                stack.append(ev)
        return pairs

    def continued_after(self, ret: tuple) -> bool:
        """Did the step after this ``RET`` event begin?"""
        return ret[4] < self.began

    def watches(self, instr: NInstruction, eip: int, nxt: int) -> bool:
        """Does :meth:`wrap` wrap this instruction? A watched one runs
        in tier 1 only."""
        return (instr.mnemonic in _CALLS or eip == self.entry
                or self._to_entry(instr, nxt))

    def _to_entry(self, instr: NInstruction, nxt: int) -> bool:
        """Can ``instr`` transfer control to ``entry``?"""
        entry = self.entry
        if entry is None:
            return False
        mn = instr.mnemonic
        return mn in _INDIRECT or nxt == entry or (
            mn in _DIRECT and instr.operands[0].value == entry
        )

    def wrap(
        self, m: Machine, instr: NInstruction, eip: int, nxt: int,
        handler: Handler,
    ) -> Handler:
        """The handler for ``instr``, wrapped if the record watches it."""
        mn = instr.mnemonic
        if mn == "call" or mn == "call_a":
            handler = self._on_call(m, mn, eip, nxt, handler)
        elif mn == "ret":
            handler = self._on_ret(m, eip, handler)
        if self._to_entry(instr, nxt):
            handler = self._on_transfer(eip, self.entry, handler)
        if eip == self.entry:
            handler = self._on_entry(m, eip, handler)
        return handler

    def _on_call(self, m, kind, eip, nxt, handler):
        regs, log = m.regs, self.events.append

        def h():
            target = handler()
            log((kind, eip, regs[4], nxt, target))
            return target
        return h

    def _on_ret(self, m, eip, handler):
        regs, log = m.regs, self.events.append

        def h():
            esp = regs[4]
            resumed = handler()
            log((RET, eip, esp, resumed, m.steps))
            return resumed
        return h

    def _on_transfer(self, eip, entry, handler):
        def h():
            target = handler()
            if target == entry:
                self._came_from = eip
            return target
        return h

    def _on_entry(self, m, eip, handler):
        regs, read, log = m.regs, m.read32, self.events.append

        def h():
            esp = regs[4]
            try:
                hash_input: Optional[int] = read(esp)
            except MachineFault:
                hash_input = None
            log((ENTRY, self._came_from, esp, hash_input, eip))
            return handler()
        return h


def record_calls(
    image: BinaryImage,
    inputs: Sequence[int] = (),
    max_steps: Optional[int] = None,
    entry: Optional[int] = None,
) -> CallRecord:
    """Run the image once and return its :class:`CallRecord`. A fault
    ends the run, and the record, where it happened."""
    record = CallRecord(entry)
    machine = Machine(image) if max_steps is None else Machine(
        image, max_steps
    )
    try:
        machine.run(inputs, calls=record)
    except MachineFault:
        pass
    return record


def run_image(
    image: BinaryImage,
    inputs: Sequence[int] = (),
    max_steps: int = DEFAULT_MAX_STEPS,
    step_hook: Optional[StepHook] = None,
) -> NRunResult:
    """Convenience: fresh machine, run to completion."""
    return Machine(image, max_steps).run(inputs, step_hook)
