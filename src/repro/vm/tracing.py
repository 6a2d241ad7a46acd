"""Trace data model for WVM executions (paper Section 3.1).

Two granularities, matching the two phases of the algorithm:

* **Full traces** (embedding time): the sequence of executed trace
  sites — function entries and label positions, i.e. basic-block
  boundaries — each with a snapshot of the local variables and module
  globals, "the value of every local variable and every static and
  instance field of the containing class". The embedder mines these
  in one pass (:func:`repro.bytecode_wm.placement.eligible_sites`)
  for insertion frequencies and for variable values to build
  condition-code predicates from; :func:`repro.vm.trace_io.dump_trace`
  writes them to the paper's trace file.
* **Branch traces** (recognition time): the sequence of conditional
  branch events, each the pair (static branch instruction, dynamic
  follower), and the bit-string they decode to. The fast engine
  decodes each event's bit as it records it (:attr:`Trace.bits`);
  for traces without bits, :func:`Trace.branch_pairs` feeds the
  events to :func:`repro.core.bitstring.decode_bits`.

A full trace always contains a branch trace too, so one tracing run
serves both needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

from .instructions import Instruction


@dataclass(frozen=True)
class SiteKey:
    """Stable identity of a trace site: function name + site name.

    The site name is a label name, or ``"<entry>"`` for function entry.
    """

    function: str
    site: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.function}:{self.site}"


@dataclass
class TracePoint:
    """One execution of a trace site, with variable snapshots."""

    key: SiteKey
    locals_snapshot: Tuple[int, ...]
    globals_snapshot: Tuple[int, ...]


@dataclass
class BranchEvent:
    """One execution of a conditional branch.

    ``branch`` is the static :class:`Instruction` object (identity
    matters); ``follower`` is the instruction object executed next,
    which plays the role of "the block that immediately follows" in
    the paper's bit-string definition. ``taken`` is recorded for
    diagnostics only — the decoder never uses it.
    """

    branch: Instruction
    follower: Instruction
    taken: bool


@dataclass
class Trace:
    """A full or branch-only execution trace.

    ``bits`` is the trace bit-string (``bytes`` of 0/1), decoded by the
    fast engine's run loop as it records ``branches``; it equals
    ``decode_bits(self.branch_pairs())``. Traces from the reference
    engine or from :mod:`repro.vm.trace_io` carry ``None``. It is
    derived data, so it takes no part in equality.
    """

    points: List[TracePoint] = field(default_factory=list)
    branches: List[BranchEvent] = field(default_factory=list)
    bits: Optional[bytes] = field(default=None, compare=False, repr=False)

    def branch_pairs(self) -> List[Tuple[Hashable, Hashable]]:
        """(branch identity, follower identity) pairs for the decoder."""
        return [(e.branch, e.follower) for e in self.branches]

    def site_snapshots(self, key: SiteKey) -> List[TracePoint]:
        """All executions of one site, in order (a fresh list per call)."""
        return [p for p in self.points if p.key == key]


@dataclass
class RunResult:
    """Result of executing a module.

    ``steps`` counts executed (non-label) instructions and is the
    deterministic stand-in for running time throughout the evaluation
    (see DESIGN.md, "Known deviations").
    """

    output: List[int]
    steps: int
    trace: Optional[Trace] = None
    halted: bool = True
