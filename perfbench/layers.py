"""Per-layer metrics of a traced run, from the spans :mod:`probes` records.

Set-up metrics (``vm.run_full_s``, ``pipeline.prepare_s``,
``lang.compile_s``) are seconds of the one traced set-up. Every other
time or count is a mean per op over the traced ops, so it compares
directly with ``op_p50_s``; ratios and rates divide run totals. A layer
a workload does not use reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List

from common import OpRecord
from probes import Stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, setup: Stats, records: List[OpRecord],
              reference: List[OpRecord],
              facts: Dict[str, Any]) -> Dict[str, float]:
    n = len(records)

    def total(kind: str, name: str, recs: List[OpRecord] = records) -> float:
        return sum(getattr(r.stats, kind)[name] for r in recs)

    def mean(kind: str, name: str) -> float:
        return total(kind, name) / n

    m: Dict[str, float] = {
        # vm
        "vm.run_full_s": setup.time["vm.run_full"],
        "vm.run_branch_s": mean("time", "vm.run_branch"),
        "vm.run_branch_calls": mean("calls", "vm.run_branch"),
        "vm.steps_per_s": _ratio(total("count", "vm.run_branch.steps"),
                                 total("time", "vm.run_branch")),
        "vm.site_snapshots_s": mean("time", "vm.site_snapshots"),
        "vm.site_snapshots_calls": mean("calls", "vm.site_snapshots"),
        "vm.site_snapshots_points_scanned": mean(
            "count", "vm.site_snapshots_points_scanned"),
        "vm.verify_s": mean("time", "vm.verify"),
        "vm.insert_s": mean("time", "vm.insert"),
        "vm.disassemble_s": mean("time", "vm.disassemble"),
        "vm.assemble_s": mean("time", "vm.assemble"),
        # bytecode_wm
        "bytecode_wm.embed_s": mean("time", "bytecode_wm.embed"),
        "bytecode_wm.embed_self_s": mean("self_time", "bytecode_wm.embed"),
        "bytecode_wm.codegen_s": mean("time", "bytecode_wm.codegen"),
        "bytecode_wm.pieces_condition": mean(
            "count", "bytecode_wm.pieces_condition"),
        "bytecode_wm.pieces_loop": mean("count", "bytecode_wm.pieces_loop"),
        "bytecode_wm.recognize_s": mean("time", "bytecode_wm.recognize"),
        "bytecode_wm.decode_bits_s": mean("time", "bytecode_wm.decode_bits"),
        # codec
        "codec.encode_s": mean("time", "codec.encode"),
        "codec.decode_s.gcrt": mean("time", "codec.decode.gcrt"),
        "codec.decode_s.rs-8": mean("time", "codec.decode.rs-8"),
        # core
        "core.extract_candidates_s": mean("time", "core.extract_candidates"),
        "core.decrypts": mean("count", "core.decrypts"),
        "core.windows": mean("count", "core.windows"),
        "core.distinct_windows": mean("count", "core.distinct_windows"),
        "core.decrypts_per_distinct_window": _ratio(
            total("count", "core.decrypts"),
            total("count", "core.distinct_windows")),
        "core.vote_s": mean("time", "core.vote"),
        "core.crt_s": mean("time", "core.crt"),
        "core.recover_self_s": mean("self_time", "core.recover"),
        "core.candidates": mean("count", "core.candidates"),
        "core.candidates_after_voting": mean(
            "count", "core.candidates_after_voting"),
        "core.accepted": mean("count", "core.accepted"),
        # pipeline
        "pipeline.prepare_s": setup.time["pipeline.prepare"],
        "pipeline.embed_copy_self_s": mean("self_time", "pipeline.embed_copy"),
        "pipeline.artifact_loads": mean("calls", "pipeline.artifact_load"),
        "pipeline.artifact_cache_hits": (
            mean("calls", "pipeline.load_artifact")
            - mean("calls", "pipeline.artifact_load")
        ),
        # native
        "native.run_calls": mean("calls", "native.run"),
        "native.steps": mean("count", "native.steps"),
        "native.run_s": mean("time", "native.run"),
        "native.steps_per_s": _ratio(total("count", "native.steps"),
                                     total("time", "native.run")),
        "native.profile_s": mean("time", "native.profile"),
        "native.lift_s": mean("time", "native.lift"),
        "native.lower_s": mean("time", "native.lower"),
        # native_wm
        "native_wm.embed_self_s": mean("self_time", "native_wm.embed"),
        "native_wm.identify_s": mean("time", "native_wm.identify"),
        "native_wm.extract_s": mean("time", "native_wm.extract"),
        # lang
        "lang.compile_s": setup.time["lang.compile"],
    }
    for program in ("jess", "caffeinemark"):
        mine = [r for r in records
                if r.op.program == program and r.op.codec == "gcrt"]
        m[f"core.decrypts_per_distinct_window.{program}-gcrt"] = _ratio(
            total("count", "core.decrypts", mine),
            total("count", "core.distinct_windows", mine))
    # Discovery plus trace: Machine.run calls inside one extract of a
    # marked kernel (an unmarked one stops when discovery finds nothing).
    positives = [r for r in records if not r.op.negative]
    m["native_wm.runs_per_extract"] = _ratio(
        total("count", "native_wm.extract_runs", positives),
        total("calls", "native_wm.extract", positives))

    # serve: the client's view against the daemon's jobs
    request = job = 0.0
    statuses = {"200": 0, "422": 0, "500": 0, "other": 0}
    response_bytes = 0
    if workload == "serve":
        request = sum(r.seconds for r in records) / n
        job = mean("time", "serve.job")
        for r in records:
            code = str(r.outcome.status)
            statuses[code if code in statuses else "other"] += 1
            response_bytes += r.outcome.response_bytes
    m["serve.request_s"] = request
    m["serve.job_s"] = job
    m["serve.overhead_s"] = request - job
    m["serve.overhead_share"] = _ratio(request - job, request)
    m["serve.response_bytes"] = response_bytes / n
    for code, count in statuses.items():
        m[f"serve.status.{code}"] = count / n

    # tracing hygiene: the replayed cycle 0 against its traced twin
    traced_c0 = sum(r.seconds for r in records if r.cycle == 0)
    untraced_c0 = sum(r.seconds for r in reference)
    m["trace.overhead_pct"] = 100.0 * (_ratio(traced_c0, untraced_c0) - 1.0)
    op_seconds = sum(r.seconds for r in records)
    m["trace.unattributed_share"] = _ratio(
        op_seconds - sum(r.stats.covered for r in records), op_seconds)

    # Rates with nothing to count (no negatives, no attacked suspects) read 0.
    for name in ("fail_rate", "false_mark_rate", "attacked_recovery_rate",
                 "op_tail_pct", "step_growth_pct"):
        m[name] = facts[name] or 0.0
    m["op_samples"] = n
    return m
