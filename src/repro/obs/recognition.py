"""Structured recognition diagnostics: *where* a recovery failed.

A failed ``recognize`` used to return nothing actionable — "no
watermark recovered" with the whole funnel invisible. Robustness work
(and the SandMark line of recovery studies) needs the funnel itself:
how many trace windows were inspected and how many distinct ones were
decrypted, how many survived the enumeration range check, what the
per-modulus votes looked like, which moduli the surviving statements
covered and which the Generalized CRT was still missing.
:class:`RecognitionReport` carries exactly that, for both schemes:

* the **bytecode** recognizer fills the window / voting / CRT funnel
  (built from :class:`repro.core.recovery.RecoveryResult` by
  :func:`repro.bytecode_wm.recognizer.recognition_report`);
* the **native** extractor fills the chain diagnostics — observed
  branch-function passes, linked-run structure, selected chain length
  (built by :func:`repro.native_wm.extractor.native_recognition_report`).

The report is plain data: ``to_dict``/``from_dict`` round-trip through
JSON, and :meth:`summary` renders the funnel for CLI stderr.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class RecognitionReport:
    """Diagnostic account of one recognition / extraction attempt."""

    scheme: str
    complete: bool
    value: Optional[int] = None

    # -- bytecode funnel: windows -> candidates -> votes -> CRT ------------
    windows_inspected: int = 0
    #: Distinct windows among those inspected, each decrypted once
    #: (0: unknown, as in reports journaled before it was recorded).
    distinct_windows: int = 0
    window_hits: int = 0
    candidates_after_voting: int = 0
    statements_accepted: int = 0
    voting: Dict[int, Dict[int, int]] = field(default_factory=dict)
    clear_winners: Dict[int, int] = field(default_factory=dict)
    moduli: List[int] = field(default_factory=list)
    moduli_covered: List[int] = field(default_factory=list)
    moduli_missing: List[int] = field(default_factory=list)
    recovered_modulus: Optional[int] = None

    # -- native chain diagnostics ------------------------------------------
    events_observed: int = 0
    runs_found: int = 0
    run_lengths: List[int] = field(default_factory=list)
    chain_length: int = 0
    bf_entry: Optional[int] = None
    width: Optional[int] = None

    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "complete": self.complete,
            "value": self.value,
            "windows_inspected": self.windows_inspected,
            "distinct_windows": self.distinct_windows,
            "window_hits": self.window_hits,
            "candidates_after_voting": self.candidates_after_voting,
            "statements_accepted": self.statements_accepted,
            "voting": {
                str(i): {str(r): n for r, n in tally.items()}
                for i, tally in self.voting.items()
            },
            "clear_winners": {
                str(i): w for i, w in self.clear_winners.items()
            },
            "moduli": list(self.moduli),
            "moduli_covered": list(self.moduli_covered),
            "moduli_missing": list(self.moduli_missing),
            "recovered_modulus": self.recovered_modulus,
            "events_observed": self.events_observed,
            "runs_found": self.runs_found,
            "run_lengths": list(self.run_lengths),
            "chain_length": self.chain_length,
            "bf_entry": self.bf_entry,
            "width": self.width,
            "notes": list(self.notes),
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "RecognitionReport":
        return RecognitionReport(
            scheme=doc["scheme"],
            complete=doc["complete"],
            value=doc.get("value"),
            windows_inspected=doc.get("windows_inspected", 0),
            distinct_windows=doc.get("distinct_windows", 0),
            window_hits=doc.get("window_hits", 0),
            candidates_after_voting=doc.get("candidates_after_voting", 0),
            statements_accepted=doc.get("statements_accepted", 0),
            voting={
                int(i): {int(r): int(n) for r, n in tally.items()}
                for i, tally in doc.get("voting", {}).items()
            },
            clear_winners={
                int(i): int(w)
                for i, w in doc.get("clear_winners", {}).items()
            },
            moduli=[int(m) for m in doc.get("moduli", [])],
            moduli_covered=[int(m) for m in doc.get("moduli_covered", [])],
            moduli_missing=[int(m) for m in doc.get("moduli_missing", [])],
            recovered_modulus=doc.get("recovered_modulus"),
            events_observed=doc.get("events_observed", 0),
            runs_found=doc.get("runs_found", 0),
            run_lengths=[int(n) for n in doc.get("run_lengths", [])],
            chain_length=doc.get("chain_length", 0),
            bf_entry=doc.get("bf_entry"),
            width=doc.get("width"),
            notes=[str(n) for n in doc.get("notes", [])],
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        """The funnel, one stage per line, for CLI stderr."""
        head = "recovered" if self.complete else "NOT recovered"
        value = f" {self.value:#x}" if self.value is not None else ""
        lines = [f"{self.scheme} recognition: watermark{value} {head}"]
        if self.scheme.startswith("bytecode"):
            if self.distinct_windows:
                windows = (
                    f"{self.windows_inspected} inspected, "
                    f"{self.distinct_windows} distinct "
                    f"({self.distinct_windows} decrypt attempts)"
                )
            else:
                windows = f"{self.windows_inspected} decrypt attempts"
            lines.append(
                f"  windows: {windows}, {self.window_hits} in-range hits"
            )
            lines.append(
                f"  voting: {len(self.clear_winners)}/{len(self.moduli)} "
                f"moduli with clear winners, "
                f"{self.candidates_after_voting} candidates survive"
            )
            lines.append(
                f"  CRT: {self.statements_accepted} statements accepted, "
                f"covering {len(self.moduli_covered)}/{len(self.moduli)} "
                f"moduli"
            )
            if self.moduli_missing:
                missing = ", ".join(
                    f"p_{i}={self.moduli[i]}" for i in self.moduli_missing
                )
                lines.append(f"  missing moduli: {missing}")
        else:
            lines.append(
                f"  branch function: "
                f"{'entry ' + hex(self.bf_entry) if self.bf_entry is not None else 'not identified'}, "
                f"{self.events_observed} passes observed"
            )
            longest = max(self.run_lengths) if self.run_lengths else 0
            lines.append(
                f"  chains: {self.runs_found} linked runs "
                f"(longest {longest}), selected chain of "
                f"{self.chain_length} (want width+1 = "
                f"{(self.width or 0) + 1})"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)
