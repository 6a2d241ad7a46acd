"""Metrics and reporting for the batch fingerprinting pipeline.

The pipeline is judged on throughput (copies/second), so every run
records where the time went: per-stage wall time for the shared
preparation work, per-copy wall time for the mark-dependent work, and
the cache behaviour that separates the two. Each copy also carries its
verification outcome — every emitted module is immediately re-run and
re-recognized in-worker, so a report with ``all_ok`` set is a batch of
copies that are *known* to decode to their own fingerprints.

Every stage time is the duration of the span that wraps the stage
(:func:`stage_span`): the report, the ``repro_stage_seconds{stage=...}``
histogram and the ``--obs-out`` span stream read one clock.

Reports serialize to JSON (``BatchReport.write``) and back
(``BatchReport.from_json``) so deployments can archive one document
per fingerprinting run and tooling can re-load it.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .. import obs
from ..obs.spans import Span

__all__ = [
    "BatchReport",
    "CopyResult",
    "StageTimings",
    "stage_span",
]


@dataclass
class StageTimings:
    """Wall time per named pipeline stage, in seconds.

    Pickles as its ``stages`` dict alone, the state every earlier
    version of this class pickled too, so old artifacts load.
    """

    stages: Dict[str, float] = field(default_factory=dict)

    def total(self) -> float:
        return sum(self.stages.values())


@contextmanager
def stage_span(
    timings: StageTimings, stage: str, name: str, **attributes: Any
) -> Iterator[Any]:
    """Open span ``name`` and credit its duration to ``stage``.

    The credit lands when the span closes, also when its body raises,
    and is observed into the ambient registry's ``repro_stage_seconds``
    histogram, labelled by stage.
    """
    try:
        with obs.span(name, **attributes) as sp:
            yield sp
    finally:
        seconds = sp.duration
        timings.stages[stage] = timings.stages.get(stage, 0.0) + seconds
        obs.get_registry().histogram(
            "repro_stage_seconds", "Pipeline stage wall time"
        ).observe(seconds, stage=stage)


@dataclass
class CopyResult:
    """Outcome of embedding (and self-checking) one fingerprinted copy.

    ``text`` holds the emitted module's assembly and is excluded from
    the JSON report (it lives in the output directory instead).
    ``traceback`` is the formatted Python traceback of a failed embed —
    the part of a failure the one-line ``error`` summary loses.
    ``error_kind`` classifies failures for the retry machinery:
    ``"permanent"`` (the embed itself raised — deterministic, retrying
    cannot help) versus ``"transient"`` (the worker was lost under the
    copy — a dead process, an injected kill — and retries were
    exhausted). ``attempts`` counts how many rounds the copy took;
    ``resumed`` marks a copy restored from a checkpoint journal
    instead of re-embedded (see ``run_batch(..., resume=True)``).
    ``spans`` are the observability payload recorded in the worker and
    grafted by the parent; they travel on the object (across the
    process pool) but not into the JSON report — they land in the
    ``--obs-out`` stream.
    """

    copy_id: str
    watermark: int
    seed: int
    ok: bool
    checked: bool = False
    self_check: bool = False
    output_ok: bool = False
    recognized: Optional[int] = None
    piece_count: int = 0
    bytes_emitted: int = 0
    byte_size_increase: int = 0
    wall_seconds: float = 0.0
    error: Optional[str] = None
    error_kind: Optional[str] = None
    traceback: Optional[str] = None
    attempts: int = 1
    resumed: bool = False
    text: Optional[str] = None
    spans: List[Span] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        """The copy embedded cleanly and, if checks ran, passed both.

        ``checked`` records whether the in-worker self-check ran at
        all (batches may trade it away for throughput).
        """
        if not self.ok:
            return False
        return not self.checked or (self.self_check and self.output_ok)

    def to_dict(self) -> dict:
        return {
            "copy_id": self.copy_id,
            "watermark": self.watermark,
            "seed": self.seed,
            "ok": self.ok,
            "checked": self.checked,
            "self_check": self.self_check,
            "output_ok": self.output_ok,
            "recognized": self.recognized,
            "piece_count": self.piece_count,
            "bytes_emitted": self.bytes_emitted,
            "byte_size_increase": self.byte_size_increase,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
            "error_kind": self.error_kind,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "resumed": self.resumed,
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "CopyResult":
        return CopyResult(
            copy_id=doc["copy_id"],
            watermark=doc["watermark"],
            seed=doc.get("seed", 0),
            ok=doc.get("ok", False),
            checked=doc.get("checked", False),
            self_check=doc.get("self_check", False),
            output_ok=doc.get("output_ok", False),
            recognized=doc.get("recognized"),
            piece_count=doc.get("piece_count", 0),
            bytes_emitted=doc.get("bytes_emitted", 0),
            byte_size_increase=doc.get("byte_size_increase", 0),
            wall_seconds=doc.get("wall_seconds", 0.0),
            error=doc.get("error"),
            error_kind=doc.get("error_kind"),
            traceback=doc.get("traceback"),
            attempts=doc.get("attempts", 1),
            resumed=doc.get("resumed", False),
        )


@dataclass
class BatchReport:
    """Everything one batch run produced, minus the modules themselves."""

    workers: int
    copies: List[CopyResult] = field(default_factory=list)
    prepare_timings: StageTimings = field(default_factory=StageTimings)
    batch_timings: StageTimings = field(default_factory=StageTimings)
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0
    #: How many extra submission rounds the executor ran after losing
    #: work to dead workers (0 = nothing was ever retried).
    retry_rounds: int = 0

    @property
    def succeeded(self) -> int:
        return sum(1 for c in self.copies if c.verified)

    @property
    def resumed(self) -> int:
        """Copies restored from a checkpoint journal, not re-embedded."""
        return sum(1 for c in self.copies if c.resumed)

    @property
    def failed(self) -> int:
        return len(self.copies) - self.succeeded

    @property
    def all_ok(self) -> bool:
        return bool(self.copies) and all(c.verified for c in self.copies)

    @property
    def copies_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return len(self.copies) / self.wall_seconds

    @property
    def total_bytes_emitted(self) -> int:
        return sum(c.bytes_emitted for c in self.copies)

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "copy_count": len(self.copies),
            "succeeded": self.succeeded,
            "failed": self.failed,
            "all_ok": self.all_ok,
            "wall_seconds": self.wall_seconds,
            "copies_per_second": self.copies_per_second,
            "total_bytes_emitted": self.total_bytes_emitted,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "retry_rounds": self.retry_rounds,
            "resumed": self.resumed,
            "prepare_stages": dict(self.prepare_timings.stages),
            "batch_stages": dict(self.batch_timings.stages),
            "copies": [c.to_dict() for c in self.copies],
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "BatchReport":
        return BatchReport(
            workers=doc["workers"],
            copies=[CopyResult.from_dict(c) for c in doc.get("copies", [])],
            prepare_timings=StageTimings(doc.get("prepare_stages", {})),
            batch_timings=StageTimings(doc.get("batch_stages", {})),
            cache_hits=doc.get("cache", {}).get("hits", 0),
            cache_misses=doc.get("cache", {}).get("misses", 0),
            wall_seconds=doc.get("wall_seconds", 0.0),
            retry_rounds=doc.get("retry_rounds", 0),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_json(text: str) -> "BatchReport":
        return BatchReport.from_dict(json.loads(text))

    def write(self, path: str) -> None:
        with open(path, "w") as fp:
            fp.write(self.to_json())
            fp.write("\n")

    @staticmethod
    def read(path: str) -> "BatchReport":
        with open(path) as fp:
            return BatchReport.from_json(fp.read())

    def summary(self) -> str:
        """A short human-readable account for CLI stderr."""
        lines = [
            f"batch: {len(self.copies)} copies, {self.workers} worker(s), "
            f"{self.wall_seconds:.2f}s "
            f"({self.copies_per_second:.2f} copies/s)",
            f"prepare: {self.prepare_timings.total():.2f}s "
            f"(cache {self.cache_hits} hit / {self.cache_misses} miss)",
            f"verified: {self.succeeded}/{len(self.copies)}, "
            f"{self.total_bytes_emitted} bytes emitted",
        ]
        if self.retry_rounds:
            lines.append(
                f"recovered: {self.retry_rounds} retry round(s) after "
                f"worker loss"
            )
        if self.resumed:
            lines.append(
                f"resumed: {self.resumed} copies restored from checkpoint"
            )
        for c in self.copies:
            if not c.verified:
                reason = c.error or (
                    "self-check failed" if not c.self_check
                    else "output mismatch"
                )
                lines.append(f"  FAILED {c.copy_id}: {reason}")
        return "\n".join(lines)
