"""The campaign runner: workloads x attacks x widths, resumably.

A campaign is three nested sweeps over deterministic coordinates:

1. **Generate** — :func:`~.generator.generate_corpus` emits the
   workload set, each program oracle-validated against the reference
   interpreter before it is allowed into the matrix.
2. **Mint** — for every (workload, bits) pair the runner prepares the
   program once (:func:`repro.pipeline.prepare.prepare`) and mints its
   fingerprinted copies through :func:`repro.pipeline.batch.run_batch`,
   inheriting that pipeline's workers/retry/checkpoint machinery.
   Copy watermarks and embed salts derive from the campaign seed, so
   the fleet of marked modules is a pure function of the seed.
3. **Attack** — every (attack, intensity) cell re-derives the minted
   modules (embedding is deterministic in ``(watermark, seed)``, so no
   module needs to survive the batch boundary), attacks each with a
   per-copy RNG derived from the cell coordinates, and judges
   recovery, semantics and stealth per copy.

Resumability: with a ``checkpoint_dir``, each (workload, bits) batch
journals through ``run_batch``'s own checkpoint file and every
finished cell appends to ``cells.jsonl``; a rerun with ``resume=True``
replays finished cells from the journal instead of re-attacking.
Because cell outcomes are deterministic, a resumed campaign's report
is identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..attacks.bytecode import branch_increase_fraction
from ..bytecode_wm import WatermarkKey, recognize
from ..codec import resolve_codec
from ..faults.retry import RetryPolicy
from ..obs.journal import read_journal
from ..obs.spans import hand_off
from ..pipeline.batch import (
    CopySpec,
    init_pool_worker,
    mint_copy,
    run_batch,
    worker_bootstrap,
)
from ..pipeline.prepare import PreparedProgram, prepare, resolve_piece_count
from ..vm import VMError, run_module
from ..vm.program import Module
from .attacks import (
    AttackSchedule,
    DEFAULT_ATTACKS,
    campaign_attacks,
    cell_seed,
    copy_rng,
)
from .generator import (
    GeneratedProgram,
    GeneratorConfig,
    differential_check,
    generate_corpus,
)
from .report import CampaignCell, CampaignReport, WorkloadRecord

__all__ = ["CampaignConfig", "run_campaign"]

_MAX_CELL_ERRORS = 8


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign's outcome.

    Two configs with equal deterministic fields produce byte-identical
    outcome documents; ``workers``/``checkpoint_dir``/``resume``/
    ``retry`` only affect how (and whether) the work is redone.
    """

    seed: int = 2004
    workloads: int = 3
    copies: int = 4
    bits: Tuple[int, ...] = (16,)
    attacks: Tuple[str, ...] = DEFAULT_ATTACKS
    #: Redundancy codecs to sweep — each (workload, bits) fleet is
    #: minted and attacked once per codec, so the report can compare
    #: GCRT, Reed-Solomon and hybrid survival on identical coordinates.
    codecs: Tuple[str, ...] = ("gcrt",)
    pieces: Optional[int] = None
    secret: bytes = b"campaign"
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    max_steps: int = 2_000_000
    # Execution knobs (outcome-neutral).
    workers: int = 1
    #: Attack cells evaluated concurrently in separate processes.
    #: Cells are coordinate-pure, so any interleaving produces the
    #: same (sorted) report as a serial sweep.
    cell_workers: int = 1
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.workloads < 1:
            raise ValueError("need at least one workload")
        if self.cell_workers < 1:
            raise ValueError("need at least one cell worker")
        if self.copies < 1:
            raise ValueError("need at least one copy per cell")
        if not self.bits:
            raise ValueError("need at least one bit width")
        for width in self.bits:
            if not 4 <= width <= 32:
                raise ValueError(f"bits={width} out of range [4, 32]")
        if not self.codecs:
            raise ValueError("need at least one codec")
        # Fail on unknown attack/codec names now, not mid-campaign.
        campaign_attacks(self.attacks)
        for codec in self.codecs:
            resolve_codec(codec)


def _copy_specs(config: CampaignConfig, workload: GeneratedProgram,
                bits: int) -> List[CopySpec]:
    """The minted fleet for one (workload, bits): distinct random
    watermarks drawn from a coordinate-derived stream."""
    rng = copy_rng(cell_seed(config.seed, workload.name, bits, "mint", 0),
                   "specs")
    seen: set = set()
    specs = []
    for index in range(config.copies):
        watermark = rng.randrange(1, 1 << bits)
        while watermark in seen:
            watermark = rng.randrange(1, 1 << bits)
        seen.add(watermark)
        specs.append(CopySpec(
            copy_id=f"{workload.name}-b{bits}-c{index:03d}",
            watermark=watermark,
            seed=index,
        ))
    return specs


def _remint(prepared: PreparedProgram, spec: CopySpec) -> Module:
    """Re-derive the exact module ``run_batch`` emitted for ``spec``.

    Embedding is deterministic in (watermark, seed) — the batch
    docstring's reproducibility contract — so this avoids shipping
    modules back across the process pool.
    """
    return mint_copy(prepared, spec).module


def _with_codec(
    base: PreparedProgram, codec: str, pieces: Optional[int]
) -> PreparedProgram:
    """A codec-variant of one preparation, sharing the heavy state.

    Preparation's expensive stages (trace, CFG check, site mining) are
    codec-independent; only the planned piece count and the recorded
    spec differ. The variant shares the module and site table with
    ``base`` — the sweep reads, never mutates, a prepared program.
    """
    spec = resolve_codec(codec).spec
    if spec == base.codec:
        return base
    piece_count = resolve_piece_count(
        base.watermark_bits, pieces, codec=spec
    )
    return replace(base, pieces=piece_count, codec=spec)


def _attack_cell(
    config: CampaignConfig,
    workload: GeneratedProgram,
    bits: int,
    prepared: PreparedProgram,
    specs: Sequence[CopySpec],
    marked: Sequence[Module],
    schedule: AttackSchedule,
    intensity: float,
    intensity_index: int,
) -> CampaignCell:
    """Attack every minted copy at one intensity and judge each."""
    seed = cell_seed(config.seed, workload.name, bits, schedule.name,
                     intensity_index)
    cell = CampaignCell(
        workload=workload.name,
        workload_seed=workload.seed,
        bits=bits,
        attack=schedule.name,
        intensity=intensity,
        intensity_index=intensity_index,
        cell_seed=seed,
        codec=prepared.codec,
        copies=len(specs),
        copy_watermarks=[s.watermark for s in specs],
        copy_seeds=[s.seed for s in specs],
    )
    with obs.span("campaign.cell", workload=workload.name, bits=bits,
                  codec=prepared.codec, attack=schedule.name,
                  intensity=intensity) as cell_span:
        branch_deltas: List[float] = []
        size_deltas: List[float] = []
        for spec, module in zip(specs, marked):
            rng = copy_rng(seed, spec.copy_id)
            try:
                attacked = schedule.apply(module, intensity, rng)
            except Exception as exc:  # attack itself broke — isolate it
                cell.errored += 1
                if len(cell.errors) < _MAX_CELL_ERRORS:
                    cell.errors.append(f"{spec.copy_id}: attack: {exc}")
                continue
            branch_deltas.append(branch_increase_fraction(module, attacked))
            size_deltas.append(
                float(attacked.byte_size() - module.byte_size())
            )
            try:
                out = run_module(attacked, workload.inputs,
                                 max_steps=config.max_steps)
                if out.output == prepared.baseline_output:
                    cell.program_ok += 1
            except VMError as exc:
                if len(cell.errors) < _MAX_CELL_ERRORS:
                    cell.errors.append(f"{spec.copy_id}: run: {exc}")
            try:
                found = recognize(attacked, prepared.key,
                                  watermark_bits=bits,
                                  max_steps=config.max_steps,
                                  codec=prepared.codec)
                if found.complete and found.value == spec.watermark:
                    cell.recovered += 1
            except VMError as exc:
                if len(cell.errors) < _MAX_CELL_ERRORS:
                    cell.errors.append(f"{spec.copy_id}: recognize: {exc}")
        if branch_deltas:
            cell.branch_delta = sum(branch_deltas) / len(branch_deltas)
            cell.size_delta_bytes = sum(size_deltas) / len(size_deltas)
    cell.wall_seconds = cell_span.duration
    return cell


def _cell_task(
    config: CampaignConfig,
    workload: GeneratedProgram,
    bits: int,
    prepared: PreparedProgram,
    specs: Sequence[CopySpec],
    schedule_name: str,
    intensity: float,
    intensity_index: int,
    parent: Optional[obs.SpanContext],
) -> Tuple[CampaignCell, List[obs.Span]]:
    """One attack cell, self-contained for a worker process.

    The marked modules are re-minted here rather than shipped across
    the pool — embedding is deterministic in (watermark, seed), and
    the pickled preparation is far smaller than ``copies`` modules.
    The cell's spans come home under ``parent`` for the runner to
    adopt; the re-mint stays outside them, so the trace has the same
    shape as an in-process sweep (which mints once, in the parent).
    """
    schedule = campaign_attacks((schedule_name,))[0]
    marked = [_remint(prepared, spec) for spec in specs]
    with hand_off(parent, drain=True) as spans:
        cell = _attack_cell(config, workload, bits, prepared, specs, marked,
                            schedule, intensity, intensity_index)
    return cell, spans


def _journal_path(config: CampaignConfig) -> Optional[str]:
    if config.checkpoint_dir is None:
        return None
    return os.path.join(config.checkpoint_dir, "cells.jsonl")


def _load_journal(path: Optional[str]) -> Dict[tuple, CampaignCell]:
    """Finished cells from a previous run; torn tail lines tolerated."""
    done: Dict[tuple, CampaignCell] = {}
    if path is None:
        return done
    for doc in read_journal(path):
        try:
            cell = CampaignCell.from_dict(doc)
        except (ValueError, KeyError):
            continue  # not a cell record
        done[cell.key()] = cell
    return done


def run_campaign(
    config: CampaignConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Run the full matrix and return its :class:`CampaignReport`."""
    say = progress or (lambda _msg: None)
    registry = obs.get_registry()
    cells_total = registry.counter(
        "repro_campaign_cells_total", "Campaign cells completed"
    )
    copies_attacked = registry.counter(
        "repro_campaign_copies_attacked_total",
        "Fingerprinted copies put through an attack cell",
    )
    recovered_total = registry.counter(
        "repro_campaign_recovered_total",
        "Copies whose mark survived the attack",
    )
    cell_seconds = registry.histogram(
        "repro_campaign_cell_seconds", "Wall time per campaign cell"
    )

    schedules = campaign_attacks(config.attacks)
    codec_list = [resolve_codec(c).spec for c in config.codecs]
    report = CampaignReport(
        seed=config.seed,
        attacks=[s.name for s in schedules],
        bits=sorted(config.bits),
        codecs=codec_list,
        copies_per_cell=config.copies,
    )
    journal = _journal_path(config)
    if config.checkpoint_dir is not None:
        os.makedirs(config.checkpoint_dir, exist_ok=True)
    done = _load_journal(journal) if config.resume else {}
    journal_fp = open(journal, "a") if journal is not None else None
    cell_pool: Optional[ProcessPoolExecutor] = None
    if config.cell_workers > 1:
        cell_pool = ProcessPoolExecutor(
            max_workers=config.cell_workers,
            initializer=init_pool_worker,
            initargs=worker_bootstrap(),
        )

    def record(cell: CampaignCell) -> None:
        """Bookkeeping for one finished cell (any completion order —
        the report is sorted by coordinates at the end)."""
        report.cells.append(cell)
        cells_total.inc(attack=cell.attack)
        copies_attacked.inc(cell.copies)
        recovered_total.inc(cell.recovered)
        cell_seconds.observe(cell.wall_seconds, attack=cell.attack)
        obs.emit(
            "campaign.cell",
            f"{cell.workload}/{cell.attack}",
            workload=cell.workload,
            bits=cell.bits,
            codec=cell.codec,
            attack=cell.attack,
            intensity=cell.intensity,
            copies=cell.copies,
            recovered=cell.recovered,
            wall_seconds=cell.wall_seconds,
        )
        if journal_fp is not None:
            journal_fp.write(
                json.dumps(cell.to_dict(), sort_keys=True) + "\n"
            )
            journal_fp.flush()

    try:
        with obs.span("campaign", seed=config.seed,
                      workloads=config.workloads,
                      attacks=len(schedules)) as campaign_span:
            with obs.span("campaign.generate", count=config.workloads):
                corpus = generate_corpus(
                    config.workloads, base_seed=config.seed,
                    config=config.generator,
                )
            for program in corpus:
                oracle = differential_check(
                    program,
                    min_branch_events=config.generator.min_branch_events,
                )
                report.workloads.append(WorkloadRecord(
                    name=program.name,
                    seed=program.seed,
                    inputs=list(program.inputs),
                    functions=program.functions,
                    loops=program.loops,
                    branches=program.branches,
                    oracle_ok=oracle.ok,
                    oracle_steps=oracle.steps,
                    oracle_branch_events=oracle.branch_events,
                ))
            say(f"generated {len(corpus)} workloads, oracle-validated")

            for program in corpus:
                key = WatermarkKey(secret=config.secret,
                                   inputs=list(program.inputs))
                for bits in sorted(config.bits):
                    base_prepared: Optional[PreparedProgram] = None
                    for codec in codec_list:
                        with obs.span("campaign.mint", workload=program.name,
                                      bits=bits, codec=codec):
                            if base_prepared is None:
                                # The heavy, codec-independent stages
                                # run once per (workload, bits); codec
                                # variants share the site table.
                                base_prepared = prepare(
                                    program.module(), key,
                                    watermark_bits=bits,
                                    pieces=config.pieces,
                                    max_steps=config.max_steps,
                                    codec=codec,
                                )
                            prepared = _with_codec(
                                base_prepared, codec, config.pieces
                            )
                            specs = _copy_specs(config, program, bits)
                            checkpoint = None
                            if config.checkpoint_dir is not None:
                                # GCRT keeps the pre-codec file name so
                                # old checkpoints stay resumable.
                                suffix = "" if codec == "gcrt" else f"-{codec}"
                                checkpoint = os.path.join(
                                    config.checkpoint_dir,
                                    f"batch-{program.name}-b{bits}"
                                    f"{suffix}.jsonl",
                                )
                            batch = run_batch(
                                prepared, specs,
                                workers=config.workers,
                                checkpoint=checkpoint,
                                resume=config.resume,
                                retry=config.retry,
                            )
                        if not batch.all_ok:
                            bad = [r.copy_id for r in batch.copies
                                   if not r.verified]
                            raise RuntimeError(
                                f"{program.name} b{bits} {codec}: batch "
                                f"failed to mint {len(bad)} copies "
                                f"({bad[:3]}...)"
                            )
                        report.embeds.append({
                            "workload": program.name,
                            "bits": bits,
                            "codec": codec,
                            "copies": len(batch.copies),
                            "resumed": batch.resumed,
                            "mean_size_increase": (
                                sum(r.byte_size_increase
                                    for r in batch.copies)
                                / len(batch.copies)
                            ),
                            "wall_seconds": batch.wall_seconds,
                        })
                        say(f"{program.name} b{bits} {codec}: minted "
                            f"{len(specs)} copies")

                        pending: List[Tuple[AttackSchedule, float, int]] = []
                        for schedule in schedules:
                            for index, intensity in enumerate(
                                schedule.levels
                            ):
                                key_tuple = (program.name, bits, "bytecode",
                                             codec, schedule.name, index)
                                if key_tuple in done:
                                    report.cells.append(done[key_tuple])
                                    report.resumed_cells += 1
                                    continue
                                pending.append((schedule, intensity, index))
                        if cell_pool is not None and len(pending) > 1:
                            # Pooled cells parent under the campaign
                            # span exactly as in-process ones do.
                            tracer = obs.get_tracer()
                            parent = (obs.current_context()
                                      if tracer.enabled else None)
                            futures = [
                                cell_pool.submit(
                                    _cell_task, config, program, bits,
                                    prepared, specs, schedule.name,
                                    intensity, index, parent,
                                )
                                for schedule, intensity, index in pending
                            ]
                            for future in as_completed(futures):
                                cell, spans = future.result()
                                if spans:
                                    tracer.adopt(spans)
                                record(cell)
                        elif pending:
                            marked = [_remint(prepared, s) for s in specs]
                            for schedule, intensity, index in pending:
                                record(_attack_cell(
                                    config, program, bits, prepared,
                                    specs, marked, schedule,
                                    intensity, index,
                                ))
                        say(f"{program.name} b{bits} {codec}: "
                            f"{len(schedules)} attacks swept")
    finally:
        if cell_pool is not None:
            cell_pool.shutdown(wait=False, cancel_futures=True)
        if journal_fp is not None:
            journal_fp.close()

    report.cells.sort(key=CampaignCell.key)
    report.wall_seconds = campaign_span.duration
    return report
