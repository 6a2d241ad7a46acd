"""Campaign artifacts: per-cell outcomes, serialized like BatchReport.

A campaign's unit of evidence is the **cell** — one
(workload, bits, attack, intensity) point of the sweep matrix, judged
over every fingerprinted copy minted for that workload. Cells separate
what they record into two strata:

* **outcomes** — recovery counts, program-survival counts, stealth
  deltas, and the seeds needed to replay the cell. These are pure
  functions of the campaign seed: two runs of the same campaign
  produce byte-identical outcome documents (the replayability
  contract, pinned by ``tests/test_campaign.py`` and CI).
* **measurements** — wall-clock times. Real but nondeterministic, so
  they ride in separate fields that the outcome view excludes.

:class:`CampaignReport` serializes exactly like
:class:`~repro.pipeline.metrics.BatchReport` (``to_dict``/``from_dict``,
``to_json``/``from_json``, ``write``/``read``) and additionally
supports **additive merge**: two reports over disjoint slices of a
matrix combine cell-by-cell, associatively, so sharded campaigns can
be folded into one artifact in any grouping.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = [
    "CampaignCell",
    "CampaignReport",
    "WorkloadRecord",
]


@dataclass
class WorkloadRecord:
    """One generated workload's identity and oracle verdict."""

    name: str
    seed: int
    inputs: List[int] = field(default_factory=list)
    functions: int = 0
    loops: int = 0
    branches: int = 0
    oracle_ok: bool = False
    oracle_steps: int = 0
    oracle_branch_events: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "inputs": list(self.inputs),
            "functions": self.functions,
            "loops": self.loops,
            "branches": self.branches,
            "oracle_ok": self.oracle_ok,
            "oracle_steps": self.oracle_steps,
            "oracle_branch_events": self.oracle_branch_events,
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "WorkloadRecord":
        return WorkloadRecord(
            name=doc["name"],
            seed=doc["seed"],
            inputs=list(doc.get("inputs", [])),
            functions=doc.get("functions", 0),
            loops=doc.get("loops", 0),
            branches=doc.get("branches", 0),
            oracle_ok=doc.get("oracle_ok", False),
            oracle_steps=doc.get("oracle_steps", 0),
            oracle_branch_events=doc.get("oracle_branch_events", 0),
        )


@dataclass
class CampaignCell:
    """One (workload, bits, attack, intensity) point of the matrix."""

    workload: str
    workload_seed: int
    bits: int
    attack: str
    intensity: float
    intensity_index: int
    cell_seed: int
    substrate: str = "bytecode"
    #: Redundancy codec the cell's copies were embedded (and their
    #: marks recognized) with — one axis of the sweep matrix.
    codec: str = "gcrt"
    copies: int = 0
    #: Copies whose mark survived the attack (complete + correct value).
    recovered: int = 0
    #: Copies that still behave like the original after the attack.
    program_ok: int = 0
    #: Copies where the attack (or recognition) raised — the error
    #: strings for the first few live in ``errors``.
    errored: int = 0
    #: Mean fractional increase in the program's branch count (the
    #: fig8c stealth axis), over the attacked copies.
    branch_delta: float = 0.0
    #: Mean emitted-size increase in bytes over the attacked copies.
    size_delta_bytes: float = 0.0
    #: Replay data: the exact (watermark, embed-seed) pairs attacked.
    copy_watermarks: List[int] = field(default_factory=list)
    copy_seeds: List[int] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Wall time (attack + recognize, all copies). Excluded from the
    #: outcome view: real, but not reproducible.
    wall_seconds: float = 0.0

    @property
    def recovery_rate(self) -> float:
        return self.recovered / self.copies if self.copies else 0.0

    @property
    def attack_succeeded(self) -> bool:
        """The adversary's win condition, lifted from AttackOutcome:
        the program still works but at least one mark is gone."""
        return self.program_ok > 0 and self.recovered < self.copies

    def key(self) -> tuple:
        """Stable identity of the cell inside a campaign matrix."""
        return (self.workload, self.bits, self.substrate, self.codec,
                self.attack, self.intensity_index)

    def outcome_dict(self) -> Dict[str, Any]:
        """The deterministic slice: everything except measurements.

        Two runs of the same campaign seed must produce byte-identical
        JSON for this document — it is what the CI artifact diff and
        the replayability regression test compare.
        """
        return {
            "workload": self.workload,
            "workload_seed": self.workload_seed,
            "bits": self.bits,
            "attack": self.attack,
            "intensity": self.intensity,
            "intensity_index": self.intensity_index,
            "cell_seed": self.cell_seed,
            "substrate": self.substrate,
            "codec": self.codec,
            "copies": self.copies,
            "recovered": self.recovered,
            "program_ok": self.program_ok,
            "errored": self.errored,
            "branch_delta": self.branch_delta,
            "size_delta_bytes": self.size_delta_bytes,
            "copy_watermarks": list(self.copy_watermarks),
            "copy_seeds": list(self.copy_seeds),
            "errors": list(self.errors),
        }

    def to_dict(self) -> Dict[str, Any]:
        doc = self.outcome_dict()
        doc["wall_seconds"] = self.wall_seconds
        return doc

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "CampaignCell":
        return CampaignCell(
            workload=doc["workload"],
            workload_seed=doc.get("workload_seed", 0),
            bits=doc["bits"],
            attack=doc["attack"],
            intensity=doc.get("intensity", 0.0),
            intensity_index=doc.get("intensity_index", 0),
            cell_seed=doc.get("cell_seed", 0),
            substrate=doc.get("substrate", "bytecode"),
            codec=doc.get("codec", "gcrt"),
            copies=doc.get("copies", 0),
            recovered=doc.get("recovered", 0),
            program_ok=doc.get("program_ok", 0),
            errored=doc.get("errored", 0),
            branch_delta=doc.get("branch_delta", 0.0),
            size_delta_bytes=doc.get("size_delta_bytes", 0.0),
            copy_watermarks=list(doc.get("copy_watermarks", [])),
            copy_seeds=list(doc.get("copy_seeds", [])),
            errors=list(doc.get("errors", [])),
            wall_seconds=doc.get("wall_seconds", 0.0),
        )


@dataclass
class CampaignReport:
    """Everything one campaign run measured, cell by cell."""

    seed: int
    attacks: List[str] = field(default_factory=list)
    bits: List[int] = field(default_factory=list)
    codecs: List[str] = field(default_factory=lambda: ["gcrt"])
    copies_per_cell: int = 0
    workloads: List[WorkloadRecord] = field(default_factory=list)
    cells: List[CampaignCell] = field(default_factory=list)
    #: Per-(workload, bits) embed batch summaries: the run_batch side.
    embeds: List[Dict[str, Any]] = field(default_factory=list)
    #: Cells restored from a checkpoint journal instead of re-run.
    resumed_cells: int = 0
    wall_seconds: float = 0.0

    # -- aggregates --------------------------------------------------------

    @property
    def total_copies_attacked(self) -> int:
        return sum(c.copies for c in self.cells)

    @property
    def total_recovered(self) -> int:
        return sum(c.recovered for c in self.cells)

    @property
    def recovery_rate(self) -> float:
        total = self.total_copies_attacked
        return self.total_recovered / total if total else 0.0

    def by_attack(self) -> Dict[str, float]:
        """Recovery rate per attack name, over every cell."""
        totals: Dict[str, List[int]] = {}
        for cell in self.cells:
            bucket = totals.setdefault(cell.attack, [0, 0])
            bucket[0] += cell.recovered
            bucket[1] += cell.copies
        return {
            name: (rec / cop if cop else 0.0)
            for name, (rec, cop) in sorted(totals.items())
        }

    def by_codec(self) -> Dict[str, float]:
        """Recovery rate per codec spec — the resilience comparison a
        multi-codec campaign exists to make."""
        totals: Dict[str, List[int]] = {}
        for cell in self.cells:
            bucket = totals.setdefault(cell.codec, [0, 0])
            bucket[0] += cell.recovered
            bucket[1] += cell.copies
        return {
            name: (rec / cop if cop else 0.0)
            for name, (rec, cop) in sorted(totals.items())
        }

    # -- determinism contract ---------------------------------------------

    def outcomes(self) -> List[Dict[str, Any]]:
        """Every cell's deterministic outcome, in stable matrix order."""
        return [c.outcome_dict() for c in
                sorted(self.cells, key=CampaignCell.key)]

    def outcomes_json(self) -> str:
        """Canonical JSON of the outcome view — byte-identical across
        reruns of the same campaign seed."""
        return json.dumps(
            {"seed": self.seed, "cells": self.outcomes()},
            sort_keys=True, indent=2,
        ) + "\n"

    def outcomes_digest(self) -> str:
        """SHA-256 of :meth:`outcomes_json` — one line to compare runs."""
        return hashlib.sha256(self.outcomes_json().encode()).hexdigest()

    # -- merge -------------------------------------------------------------

    def merge(self, other: "CampaignReport") -> "CampaignReport":
        """Additive, associative fold of two campaign slices.

        Cells with the same :meth:`CampaignCell.key` have their counts
        summed (two shards that each attacked some of a cell's
        copies); distinct cells concatenate. Workload and embed
        records deduplicate by identity. Neither operand is mutated.
        """
        merged: Dict[tuple, CampaignCell] = {}
        for cell in list(self.cells) + list(other.cells):
            key = cell.key()
            if key not in merged:
                merged[key] = CampaignCell.from_dict(cell.to_dict())
                continue
            into = merged[key]
            into.copies += cell.copies
            into.recovered += cell.recovered
            into.program_ok += cell.program_ok
            into.errored += cell.errored
            total = into.copies or 1
            into.branch_delta = (
                into.branch_delta * (total - cell.copies)
                + cell.branch_delta * cell.copies
            ) / total
            into.size_delta_bytes = (
                into.size_delta_bytes * (total - cell.copies)
                + cell.size_delta_bytes * cell.copies
            ) / total
            into.copy_watermarks = into.copy_watermarks + cell.copy_watermarks
            into.copy_seeds = into.copy_seeds + cell.copy_seeds
            into.errors = (into.errors + cell.errors)[:8]
            into.wall_seconds += cell.wall_seconds
        seen = set()
        workloads = []
        for record in list(self.workloads) + list(other.workloads):
            if record.name not in seen:
                seen.add(record.name)
                workloads.append(WorkloadRecord.from_dict(record.to_dict()))
        embed_seen = set()
        embeds = []
        for doc in list(self.embeds) + list(other.embeds):
            identity = (doc.get("workload"), doc.get("bits"))
            if identity not in embed_seen:
                embed_seen.add(identity)
                embeds.append(dict(doc))
        return CampaignReport(
            seed=self.seed,
            attacks=sorted(set(self.attacks) | set(other.attacks)),
            bits=sorted(set(self.bits) | set(other.bits)),
            codecs=sorted(set(self.codecs) | set(other.codecs)),
            copies_per_cell=max(self.copies_per_cell, other.copies_per_cell),
            workloads=workloads,
            cells=sorted(merged.values(), key=CampaignCell.key),
            embeds=embeds,
            resumed_cells=self.resumed_cells + other.resumed_cells,
            wall_seconds=self.wall_seconds + other.wall_seconds,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "attacks": list(self.attacks),
            "bits": list(self.bits),
            "codecs": list(self.codecs),
            "copies_per_cell": self.copies_per_cell,
            "cell_count": len(self.cells),
            "total_copies_attacked": self.total_copies_attacked,
            "total_recovered": self.total_recovered,
            "recovery_rate": self.recovery_rate,
            "by_attack": self.by_attack(),
            "by_codec": self.by_codec(),
            "resumed_cells": self.resumed_cells,
            "wall_seconds": self.wall_seconds,
            "workloads": [w.to_dict() for w in self.workloads],
            "embeds": [dict(e) for e in self.embeds],
            "cells": [c.to_dict() for c in self.cells],
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "CampaignReport":
        return CampaignReport(
            seed=doc["seed"],
            attacks=list(doc.get("attacks", [])),
            bits=list(doc.get("bits", [])),
            codecs=list(doc.get("codecs", ["gcrt"])),
            copies_per_cell=doc.get("copies_per_cell", 0),
            workloads=[
                WorkloadRecord.from_dict(w) for w in doc.get("workloads", [])
            ],
            cells=[CampaignCell.from_dict(c) for c in doc.get("cells", [])],
            embeds=[dict(e) for e in doc.get("embeds", [])],
            resumed_cells=doc.get("resumed_cells", 0),
            wall_seconds=doc.get("wall_seconds", 0.0),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_json(text: str) -> "CampaignReport":
        return CampaignReport.from_dict(json.loads(text))

    def write(self, path: str) -> None:
        with open(path, "w") as fp:
            fp.write(self.to_json())
            fp.write("\n")

    @staticmethod
    def read(path: str) -> "CampaignReport":
        with open(path) as fp:
            return CampaignReport.from_json(fp.read())

    # -- presentation ------------------------------------------------------

    def summary(self) -> str:
        """A short human-readable account for CLI stderr."""
        lines = [
            f"campaign seed {self.seed}: {len(self.workloads)} workload(s) "
            f"x {len(self.attacks)} attack(s) x bits={self.bits} "
            f"x codecs={self.codecs} "
            f"-> {len(self.cells)} cells, {self.wall_seconds:.2f}s",
            f"recovery: {self.total_recovered}/{self.total_copies_attacked} "
            f"copies ({self.recovery_rate:.1%}) across the matrix",
        ]
        for attack, rate in self.by_attack().items():
            lines.append(f"  {attack:<28} {rate:7.1%}")
        if len(self.codecs) > 1:
            lines.append("recovery by codec:")
            for codec, rate in self.by_codec().items():
                lines.append(f"  {codec:<28} {rate:7.1%}")
        broken = [c for c in self.cells if c.errored]
        if broken:
            lines.append(f"errored cells: {len(broken)} "
                         f"(first: {broken[0].errors[:1]})")
        if self.resumed_cells:
            lines.append(
                f"resumed: {self.resumed_cells} cells from checkpoint"
            )
        lines.append(f"outcomes digest: {self.outcomes_digest()}")
        return "\n".join(lines)
