"""Dispatch-count profiles of the WVM fast-path engine.

The interpreter's profiled loop specializations (see
:mod:`repro.vm.interpreter`) count how many times each opcode
executed. They run every instruction as one tier-1 slot, so the counts
sum to the executed steps. This module turns those raw per-opcode
arrays into something a human can act on:

* every row named via :func:`repro.vm.compiler.opcode_name`;
* exact executed-instruction totals;
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
    """Aggregated per-opcode dispatch counts with wall-time context."""

    counts: Dict[str, int] = field(default_factory=dict)
    total_steps: int = 0
    wall_seconds: float = 0.0
    runs: int = 0

    @staticmethod
    def from_counts(
        raw: Sequence[int], wall_seconds: float = 0.0
    ) -> "DispatchProfile":
        """Build from the interpreter's raw per-opcode array."""
        from ..vm.compiler import opcode_name

        prof = DispatchProfile(wall_seconds=wall_seconds, runs=1)
        for op, n in enumerate(raw):
            if n:
                prof.counts[opcode_name(op)] = n
                prof.total_steps += n
        return prof

    def merge(self, other: "DispatchProfile") -> "DispatchProfile":
        """Fold another profile into this one (in place; returns self)."""
        for name, n in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + n
        self.total_steps += other.total_steps
        self.wall_seconds += other.wall_seconds
        self.runs += other.runs
        return self

    @property
    def steps_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.total_steps / self.wall_seconds

    def top(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` hottest opcodes by dispatch count."""
        return sorted(
            self.counts.items(), key=lambda kv: (-kv[1], kv[0])
        )[:n]

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counts": dict(sorted(self.counts.items())),
            "total_steps": self.total_steps,
            "wall_seconds": self.wall_seconds,
            "runs": self.runs,
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "DispatchProfile":
        return DispatchProfile(
            counts={str(k): int(v) for k, v in doc.get("counts", {}).items()},
            total_steps=doc.get("total_steps", 0),
            wall_seconds=doc.get("wall_seconds", 0.0),
            runs=doc.get("runs", 0),
        )

    def write_json(self, fp: TextIO) -> None:
        json.dump(self.to_dict(), fp, indent=2, sort_keys=True)
        fp.write("\n")

    def summary(self, top: int = 10) -> str:
        """A short human-readable account for CLI stderr."""
        lines = [
            f"dispatch profile: {self.total_steps} instructions "
            f"({self.runs} run(s))",
        ]
        if self.wall_seconds > 0.0:
            lines.append(
                f"  throughput: {self.steps_per_second / 1e6:.2f}M steps/s"
            )
        width = max((len(name) for name, _ in self.top(top)), default=0)
        for name, n in self.top(top):
            share = n / self.total_steps if self.total_steps else 0.0
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
