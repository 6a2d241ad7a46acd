"""WVM bytecode verifier.

Models the Java bytecode verifier the paper leans on (footnote 1 of
Section 3 explains that verifier constraints are what rule out the
branch-function trick for bytecode). The checks:

* every branch target exists; every call target exists with an arity
  the stack can satisfy;
* stack discipline: the operand-stack depth at each instruction is a
  static constant; depths agree at control-flow joins; no underflow;
* every path ends in ``ret`` or ``halt`` (no falling off the end);
* local/global slot indices are ints in range;
* ``const`` operands are ints.

The embedder runs the verifier after every insertion, and the attack
harness runs it after every transformation — a transformed module that
fails verification counts as a broken program, just as a mangled class
file would be rejected by the JVM.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .instructions import (
    CONDITIONAL_BRANCHES,
    Instruction,
    OPCODES,
)
from .program import Function, Module, VMFormatError


class VerificationError(Exception):
    """The module violates WVM bytecode rules."""


def verify_module(module: Module) -> None:
    """Verify every function of ``module``; raise on the first failure.

    :meth:`Module.validate_structure` checks every operand reference
    (labels, call targets, slot indices); each function then gets one
    stack-discipline walk.
    """
    try:
        label_maps = module.validate_structure()
    except VMFormatError as exc:
        raise VerificationError(str(exc)) from exc
    for fn in module.functions.values():
        _verify_function(fn, module, label_maps[fn.name])


def _verify_function(
    fn: Function, module: Module, labels: Dict[str, int]
) -> None:
    """Abstract-interpret stack depths over the function's code and
    check its ``const`` operands.

    ``labels`` is the function's label map; its label and call operands
    are known to resolve.
    """
    code = fn.code
    if not code:
        raise VerificationError(f"{fn.name}: empty function body")
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
                pops = module.functions[instr.arg].params
            elif op == "const":
                _check_const(fn, pc, instr)
            assert pops is not None
            if depth < pops:
                raise VerificationError(
                    f"{fn.name}@{pc}: stack underflow on {op} "
                    f"(depth {depth}, needs {pops})"
                )
            depth = depth - pops + pushes

            if op in CONDITIONAL_BRANCHES:
                work.append((labels[instr.arg], depth))
                pc += 1
                continue
            if op == "goto":
                pc = labels[instr.arg]
                continue
            if op in ("ret", "halt"):
                break
            pc += 1

    if len(depth_at) < len(code):
        # Code no path reaches still needs well-formed operands.
        for pc, instr in enumerate(code):
            if pc not in depth_at and instr.op == "const":
                _check_const(fn, pc, instr)


def _check_const(fn: Function, pc: int, instr: Instruction) -> None:
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
