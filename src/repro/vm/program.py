"""WVM program containers: functions and modules.

A :class:`Module` is the unit the watermarker operates on (the analog
of a jar file in the paper's SandMark implementation). It owns a set
of named functions and a global-variable table. Functions carry their
code as a flat list of :class:`Instruction` objects with symbolic
labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set

from .instructions import Instruction, LABEL_OPERANDS


class VMFormatError(Exception):
    """Structural problem in a module or function (pre-verification)."""


@dataclass
class Function:
    """A WVM function.

    ``params`` parameters arrive in local slots ``0 .. params-1``;
    ``locals_count`` is the total number of local slots (``>= params``).
    """

    name: str
    params: int
    locals_count: int
    code: List[Instruction] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.params < 0:
            raise VMFormatError(f"{self.name}: negative params")
        if self.locals_count < self.params:
            raise VMFormatError(
                f"{self.name}: locals_count {self.locals_count} < "
                f"params {self.params}"
            )

    # -- labels ------------------------------------------------------------

    def labels(self) -> Dict[str, int]:
        """Map from label name to its index in ``code``.

        Raises :class:`VMFormatError` on duplicate labels.
        """
        out: Dict[str, int] = {}
        for idx, instr in enumerate(self.code):
            if instr.op == "label":
                if instr.arg in out:
                    raise VMFormatError(
                        f"{self.name}: duplicate label {instr.arg!r}"
                    )
                out[instr.arg] = idx
        return out

    def fresh_label(self, hint: str = "wm") -> str:
        """A label name unused in this function."""
        return self.fresh_labels(1, hint)[0]

    def fresh_labels(self, count: int, hint: str = "wm") -> List[str]:
        """``count`` distinct unused label names: ``hint_n`` for the
        smallest ``n`` that no label of the function already takes."""
        prefix = f"{hint}_"
        cut = len(prefix)
        used: Set[int] = set()
        for instr in self.code:
            arg = instr.arg
            if instr.op == "label" and isinstance(arg, str) and (
                arg.startswith(prefix)
            ):
                suffix = arg[cut:]
                # Only the canonical spelling of n collides with hint_n.
                if suffix.isascii() and suffix.isdigit() and (
                    suffix == "0" or suffix[0] != "0"
                ):
                    used.add(int(suffix))
        out: List[str] = []
        n = 0
        while len(out) < count:
            if n not in used:
                out.append(f"{prefix}{n}")
            n += 1
        return out

    def alloc_local(self) -> int:
        """Allocate a fresh local slot and return its index."""
        slot = self.locals_count
        self.locals_count += 1
        return slot

    # -- size --------------------------------------------------------------

    #: Fixed per-function container overhead (name table entry, header).
    HEADER_BYTES = 16

    def byte_size(self) -> int:
        """Encoded size of this function in bytes (labels are free)."""
        return self.HEADER_BYTES + sum(i.byte_size for i in self.code)

    def real_instructions(self) -> Iterator[Instruction]:
        """All non-label instructions, in order."""
        return (i for i in self.code if not i.is_label)

    def instruction_count(self) -> int:
        return sum(1 for _ in self.real_instructions())

    def copy(self) -> "Function":
        """Deep copy: fresh Instruction objects, same structure."""
        return Function(
            self.name,
            self.params,
            self.locals_count,
            [i.copy() for i in self.code],
        )


@dataclass
class Module:
    """A WVM module: named functions plus a global table."""

    functions: Dict[str, Function] = field(default_factory=dict)
    globals_count: int = 0
    entry: str = "main"

    #: Fixed module container overhead (magic, version, tables).
    HEADER_BYTES = 32

    def add(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise VMFormatError(f"duplicate function {fn.name!r}")
        self.functions[fn.name] = fn
        return fn

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise VMFormatError(f"no function named {name!r}") from None

    def alloc_global(self) -> int:
        idx = self.globals_count
        self.globals_count += 1
        return idx

    def byte_size(self) -> int:
        """Encoded size of the whole module in bytes."""
        return self.HEADER_BYTES + sum(
            f.byte_size() for f in self.functions.values()
        )

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions.values())

    def copy(self) -> "Module":
        """Deep copy with fresh Instruction objects throughout."""
        m = Module(
            {name: fn.copy() for name, fn in self.functions.items()},
            self.globals_count,
            self.entry,
        )
        return m

    def validate_structure(self) -> Dict[str, Dict[str, int]]:
        """Check every operand reference (the verifier adds the stack
        discipline and the ``const`` rule):

        * entry exists and takes no parameters,
        * every label operand refers to an existing label,
        * every call target exists,
        * local/global operands are int indices in range.

        Returns each function's label map (:meth:`Function.labels`),
        which the verifier reuses instead of scanning again.
        """
        if self.entry not in self.functions:
            raise VMFormatError(f"entry function {self.entry!r} missing")
        if self.functions[self.entry].params != 0:
            raise VMFormatError("entry function must take no parameters")
        maps: Dict[str, Dict[str, int]] = {}
        for fn in self.functions.values():
            maps[fn.name] = labels = fn.labels()
            nlocals = fn.locals_count
            for instr in fn.code:
                op = instr.op
                if op in _LABEL_REFS:
                    if instr.arg not in labels:
                        raise VMFormatError(
                            f"{fn.name}: branch to unknown label {instr.arg!r}"
                        )
                elif op in _SLOT_OPS:
                    arg = instr.arg
                    if op == "call":
                        if arg not in self.functions:
                            raise VMFormatError(
                                f"{fn.name}: call to unknown function {arg!r}"
                            )
                    elif not isinstance(arg, int):
                        raise VMFormatError(
                            f"{fn.name}: {op} operand {arg!r} is not an index"
                        )
                    elif op in ("gload", "gstore"):
                        if not 0 <= arg < self.globals_count:
                            raise VMFormatError(
                                f"{fn.name}: global {arg} out of range"
                            )
                    elif not 0 <= arg < nlocals:
                        kind = "iinc" if op == "iinc" else "local"
                        raise VMFormatError(
                            f"{fn.name}: {kind} slot {arg} out of range"
                        )
        return maps


#: Opcodes whose label operand must name a label of the function.
_LABEL_REFS = LABEL_OPERANDS - {"label"}

#: The other opcodes :meth:`Module.validate_structure` checks operands of.
_SLOT_OPS = frozenset({"call", "load", "store", "iinc", "gload", "gstore"})
