"""Dispatch-count profiles of the WVM fast-path engine.

The interpreter's profiled loop specializations (see
:mod:`repro.vm.interpreter`) count how many times each dispatch slot
executed — unfused opcodes and superinstructions alike. This module
turns those raw per-opcode arrays into something a human (or the next
superinstruction-selection pass) can act on:

* every row named via :func:`repro.vm.compiler.opcode_name`;
* exact executed-instruction totals recovered through
  :func:`repro.vm.compiler.slot_width` (a fused slot covers several
  original instructions);
* the two ratios that drive fusion work: the **superinstruction hit
  rate** (fraction of executed instructions covered by fused slots)
  and the **dispatch reduction** (dispatches saved per instruction);
* optional wall-time context: steps/second.

Profiles merge (:meth:`DispatchProfile.merge`), so a batch run can sum
the per-copy self-check profiles with the prepare-time trace profile
into one picture of where the engine's dispatches went.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple


@dataclass
class DispatchProfile:
    """Aggregated per-opcode dispatch counts with derived ratios."""

    counts: Dict[str, int] = field(default_factory=dict)
    total_dispatches: int = 0
    total_steps: int = 0
    fused_dispatches: int = 0
    fused_steps: int = 0
    wall_seconds: float = 0.0
    runs: int = 0

    @staticmethod
    def from_counts(
        raw: Sequence[int], wall_seconds: float = 0.0
    ) -> "DispatchProfile":
        """Build from the interpreter's raw per-opcode array."""
        from ..vm.compiler import OP_FUSED_BASE, opcode_name, slot_width

        prof = DispatchProfile(wall_seconds=wall_seconds, runs=1)
        for op, n in enumerate(raw):
            if not n:
                continue
            width = slot_width(op)
            prof.counts[opcode_name(op)] = (
                prof.counts.get(opcode_name(op), 0) + n
            )
            prof.total_dispatches += n
            prof.total_steps += n * width
            if op >= OP_FUSED_BASE:
                prof.fused_dispatches += n
                prof.fused_steps += n * width
        return prof

    def merge(self, other: "DispatchProfile") -> "DispatchProfile":
        """Fold another profile into this one (in place; returns self)."""
        for name, n in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + n
        self.total_dispatches += other.total_dispatches
        self.total_steps += other.total_steps
        self.fused_dispatches += other.fused_dispatches
        self.fused_steps += other.fused_steps
        self.wall_seconds += other.wall_seconds
        self.runs += other.runs
        return self

    # -- derived ratios -----------------------------------------------------

    @property
    def superinstruction_hit_rate(self) -> float:
        """Fraction of executed instructions covered by fused slots."""
        if self.total_steps == 0:
            return 0.0
        return self.fused_steps / self.total_steps

    @property
    def dispatch_reduction(self) -> float:
        """Dispatches saved per executed instruction by fusion."""
        if self.total_steps == 0:
            return 0.0
        return 1.0 - self.total_dispatches / self.total_steps

    @property
    def steps_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.total_steps / self.wall_seconds

    def top(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` hottest slots by dispatch count."""
        return sorted(
            self.counts.items(), key=lambda kv: (-kv[1], kv[0])
        )[:n]

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counts": dict(sorted(self.counts.items())),
            "total_dispatches": self.total_dispatches,
            "total_steps": self.total_steps,
            "fused_dispatches": self.fused_dispatches,
            "fused_steps": self.fused_steps,
            "superinstruction_hit_rate": self.superinstruction_hit_rate,
            "dispatch_reduction": self.dispatch_reduction,
            "wall_seconds": self.wall_seconds,
            "runs": self.runs,
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "DispatchProfile":
        return DispatchProfile(
            counts={str(k): int(v) for k, v in doc.get("counts", {}).items()},
            total_dispatches=doc.get("total_dispatches", 0),
            total_steps=doc.get("total_steps", 0),
            fused_dispatches=doc.get("fused_dispatches", 0),
            fused_steps=doc.get("fused_steps", 0),
            wall_seconds=doc.get("wall_seconds", 0.0),
            runs=doc.get("runs", 0),
        )

    def write_json(self, fp: TextIO) -> None:
        json.dump(self.to_dict(), fp, indent=2, sort_keys=True)
        fp.write("\n")

    def summary(self, top: int = 10) -> str:
        """A short human-readable account for CLI stderr."""
        lines = [
            f"dispatch profile: {self.total_dispatches} dispatches over "
            f"{self.total_steps} instructions ({self.runs} run(s))",
            f"  superinstruction hit rate: "
            f"{self.superinstruction_hit_rate:.1%} of instructions, "
            f"dispatch reduction {self.dispatch_reduction:.1%}",
        ]
        if self.wall_seconds > 0.0:
            lines.append(
                f"  throughput: {self.steps_per_second / 1e6:.2f}M steps/s"
            )
        width = max((len(name) for name, _ in self.top(top)), default=0)
        for name, n in self.top(top):
            share = n / self.total_dispatches if self.total_dispatches else 0.0
            lines.append(f"    {name.ljust(width)}  {n:>12}  {share:6.1%}")
        return "\n".join(lines)


def profile_run(
    module: Any,
    inputs: Sequence[int] = (),
    trace_mode: Optional[str] = None,
    max_steps: Optional[int] = None,
) -> Tuple[Any, DispatchProfile]:
    """Run a module with dispatch profiling and wall-time context.

    Returns ``(RunResult, DispatchProfile)``.
    """
    from ..vm.interpreter import run_module

    kwargs: Dict[str, Any] = {"trace_mode": trace_mode, "profile": True}
    if max_steps is not None:
        kwargs["max_steps"] = max_steps
    start = time.perf_counter()
    result = run_module(module, inputs, **kwargs)
    elapsed = time.perf_counter() - start
    assert result.dispatch_counts is not None
    return result, DispatchProfile.from_counts(
        result.dispatch_counts, wall_seconds=elapsed
    )
