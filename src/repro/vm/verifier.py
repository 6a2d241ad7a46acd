"""WVM bytecode verifier.

Models the Java bytecode verifier the paper leans on (footnote 1 of
Section 3 explains that verifier constraints are what rule out the
branch-function trick for bytecode). The checks:

* every branch target exists; every call target exists with an arity
  the stack can satisfy;
* stack discipline: the operand-stack depth at each instruction is a
  static constant; depths agree at control-flow joins; no underflow;
* every path ends in ``ret`` or ``halt`` (no falling off the end);
* local/global slot indices are in range.

The embedder runs the verifier after every insertion, and the attack
harness runs it after every transformation — a transformed module that
fails verification counts as a broken program, just as a mangled class
file would be rejected by the JVM.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .instructions import (
    CONDITIONAL_BRANCHES,
    OPCODES,
)
from .program import Function, Module, VMFormatError


class VerificationError(Exception):
    """The module violates WVM bytecode rules."""


def verify_module(module: Module) -> None:
    """Verify every function of ``module``; raise on the first failure."""
    try:
        label_maps = module.validate_structure()
    except VMFormatError as exc:
        raise VerificationError(str(exc)) from exc
    for fn in module.functions.values():
        verify_function(fn, module, label_maps[fn.name])


def verify_function(
    fn: Function, module: Module, labels: Optional[Dict[str, int]] = None
) -> None:
    """Abstract-interpret stack depths over the function's code.

    ``labels`` is the function's label map when the caller has it
    already (:meth:`Module.validate_structure` returns them all).
    """
    code = fn.code
    if not code:
        raise VerificationError(f"{fn.name}: empty function body")
    if labels is None:
        labels = fn.labels()
    depth_at: Dict[int, int] = {}
    work: List[Tuple[int, int]] = [(0, 0)]

    while work:
        pc, depth = work.pop()
        while True:
            if pc >= len(code):
                raise VerificationError(
                    f"{fn.name}: control falls off the end of the code"
                )
            known = depth_at.get(pc)
            if known is not None:
                if known != depth:
                    raise VerificationError(
                        f"{fn.name}@{pc}: stack depth mismatch at join "
                        f"({known} vs {depth})"
                    )
                break  # already explored from here with this depth
            depth_at[pc] = depth
            instr = code[pc]
            op = instr.op

            if op == "label":
                pc += 1
                continue

            pops, pushes, _size = OPCODES[op]
            if op == "call":
                callee = module.functions.get(instr.arg)
                if callee is None:
                    raise VerificationError(
                        f"{fn.name}@{pc}: call to unknown function "
                        f"{instr.arg!r}"
                    )
                pops = callee.params
            assert pops is not None
            if depth < pops:
                raise VerificationError(
                    f"{fn.name}@{pc}: stack underflow on {op} "
                    f"(depth {depth}, needs {pops})"
                )
            depth = depth - pops + pushes

            if op in CONDITIONAL_BRANCHES:
                target = labels.get(instr.arg)
                if target is None:
                    raise VerificationError(
                        f"{fn.name}@{pc}: branch to unknown label "
                        f"{instr.arg!r}"
                    )
                work.append((target, depth))
                pc += 1
                continue
            if op == "goto":
                target = labels.get(instr.arg)
                if target is None:
                    raise VerificationError(
                        f"{fn.name}@{pc}: goto unknown label {instr.arg!r}"
                    )
                pc = target
                continue
            if op in ("ret", "halt"):
                break
            pc += 1

    _check_slot_ranges(fn, module)


def _check_slot_ranges(fn: Function, module: Module) -> None:
    for pc, instr in enumerate(fn.code):
        op = instr.op
        if op in ("load", "store", "iinc"):
            if not isinstance(instr.arg, int) or not (
                0 <= instr.arg < fn.locals_count
            ):
                raise VerificationError(
                    f"{fn.name}@{pc}: bad local slot {instr.arg!r}"
                )
        elif op in ("gload", "gstore"):
            if not isinstance(instr.arg, int) or not (
                0 <= instr.arg < module.globals_count
            ):
                raise VerificationError(
                    f"{fn.name}@{pc}: bad global index {instr.arg!r}"
                )
        elif op == "const":
            if not isinstance(instr.arg, int):
                raise VerificationError(
                    f"{fn.name}@{pc}: const operand must be an int"
                )


def is_verifiable(module: Module) -> bool:
    """Boolean convenience wrapper around :func:`verify_module`."""
    try:
        verify_module(module)
    except VerificationError:
        return False
    return True
