"""The parallel batch executor: N fingerprints from one preparation.

Per-copy work (split, encrypt, insert, verify, self-check) is pure
CPU with no shared mutable state, so it fans out over a
``ProcessPoolExecutor``. The :class:`~.prepare.PreparedProgram` ships
to each worker exactly once (via the pool initializer), not per task;
tasks themselves are tiny :class:`CopySpec` values and travel in
chunks to keep queue traffic off the critical path.

Determinism: each copy embeds with RNG streams salted by its
``(watermark, seed)`` alone — nothing about scheduling, worker count
or completion order feeds the embedding, so a batch is bit-for-bit
reproducible at any ``workers`` setting. Failures are isolated: a
copy that raises comes back as a failed :class:`.metrics.CopyResult`
(one-line ``error`` plus the full formatted ``traceback``) and the
rest of the batch proceeds.

Every worker re-runs its emitted copy on the key input and recognizes
the mark from that same cached trace (one execution serves both the
semantic check and the recognition self-check).

Observability: when the parent has tracing enabled, the batch span's
:class:`~repro.obs.spans.SpanContext` rides the pool initializer into
each worker; workers record their per-copy spans locally, return them
on the :class:`~.metrics.CopyResult`, and the parent grafts them back
(:meth:`~repro.obs.spans.Tracer.adopt`) — one coherent tree at any
``workers`` setting. The ``prepare.trace`` and each ``copy.self_check``
span carry the ``steps`` of the VM run they time.
"""

from __future__ import annotations

import json
import os
import time
import traceback as traceback_module
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, TextIO, Tuple

from .. import faults, obs
from ..bytecode_wm.embedder import EmbeddingResult, embed
from ..bytecode_wm.recognizer import recognize, recognize_with_report
from ..faults.injector import FaultPlan
from ..faults.retry import RetryPolicy
from ..obs.journal import read_journal
from ..obs.spans import SpanContext, hand_off
from ..vm.assembler import assemble
from ..vm.disassembler import disassemble
from ..vm.interpreter import run_module
from .metrics import BatchReport, CopyResult, StageTimings, stage_span
from .prepare import PreparedProgram

#: Copy ids become output file names; keep them shell- and fs-safe.
_ID_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


@dataclass(frozen=True)
class CopySpec:
    """One requested fingerprinted copy.

    ``seed`` salts the embedder's RNG streams so two copies carrying
    the same watermark still diversify their placements; identical
    (watermark, seed) pairs produce byte-identical modules.
    """

    copy_id: str
    watermark: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.copy_id or not set(self.copy_id) <= _ID_SAFE:
            raise ValueError(
                f"copy id {self.copy_id!r} must be non-empty and use only "
                f"letters, digits, '.', '_', '-'"
            )
        if self.watermark < 0:
            raise ValueError(f"{self.copy_id}: watermark must be non-negative")


def mint_copy(
    prepared: PreparedProgram, spec: CopySpec, codec: Optional[str] = None
) -> EmbeddingResult:
    """Embed ``spec``'s mark into the release: the one embed call
    behind every minted copy. Deterministic in (watermark, seed), so
    the campaign re-derives a batch's copies with it."""
    return embed(
        prepared.module,
        spec.watermark,
        prepared.key,
        pieces=prepared.pieces,
        watermark_bits=prepared.watermark_bits,
        sites=prepared.sites,
        rng_salt=f"{spec.watermark}/{spec.seed}",
        codec=codec or prepared.codec,
    )


def embed_copy(
    prepared: PreparedProgram,
    spec: CopySpec,
    self_check: bool = True,
    codec: Optional[str] = None,
) -> CopyResult:
    """Embed, emit and (by default) self-check one copy. Never raises.

    The embed reuses the prepared site table (no re-trace);
    the self-check runs the marked copy once in branch mode and feeds
    that single trace to both the output comparison and the
    recognizer. ``self_check=False`` skips that run — a throughput
    knob for deployments that verify by sampling instead.

    ``codec`` overrides the artifact's planned redundancy scheme for
    this copy (the per-request payload-vs-resilience knob the service
    exposes); ``None`` uses ``prepared.codec``. Preparation is codec-
    independent apart from the planned piece count, so overriding is
    always safe — recognition must then use the same codec.
    """
    active_codec = codec or prepared.codec
    try:
        with obs.span("copy", copy_id=spec.copy_id,
                      watermark=spec.watermark) as copy_span:
            with obs.span("copy.embed"):
                result = mint_copy(prepared, spec, active_codec)
            recognized = None
            check_ok = output_ok = False
            if self_check:
                with obs.span("copy.self_check") as sp:
                    check_run = run_module(
                        result.module,
                        prepared.key.inputs,
                        trace_mode="branch",
                    )
                    found = recognize(
                        result.module,
                        prepared.key,
                        watermark_bits=prepared.watermark_bits,
                        trace=check_run.trace,
                        codec=active_codec,
                    )
                    recognized = found.value
                    check_ok = (
                        found.complete and found.value == spec.watermark
                    )
                    output_ok = (
                        list(check_run.output)
                        == list(prepared.baseline_output)
                    )
                    sp.set(steps=check_run.steps, recognized=check_ok,
                           output_ok=output_ok)
            text = disassemble(result.module)
        return CopyResult(
            copy_id=spec.copy_id,
            watermark=spec.watermark,
            seed=spec.seed,
            ok=True,
            checked=self_check,
            self_check=check_ok,
            output_ok=output_ok,
            recognized=recognized,
            piece_count=result.piece_count,
            bytes_emitted=len(text.encode()),
            byte_size_increase=result.byte_size_increase,
            wall_seconds=copy_span.duration,
            text=text,
        )
    except Exception as exc:  # per-copy isolation: report, don't propagate
        # An exception raised *inside* the embed is deterministic in
        # (watermark, seed): re-running it would fail identically, so
        # the failure is classified permanent and never retried.
        return CopyResult(
            copy_id=spec.copy_id,
            watermark=spec.watermark,
            seed=spec.seed,
            ok=False,
            wall_seconds=copy_span.duration,
            error=f"{type(exc).__name__}: {exc}",
            error_kind="permanent",
            traceback=traceback_module.format_exc(),
        )


# -- process-pool plumbing --------------------------------------------------

_WORKER_PREPARED: Optional[PreparedProgram] = None
_WORKER_SELF_CHECK: bool = True
_WORKER_PARENT: Optional[SpanContext] = None


def worker_bootstrap() -> Tuple[Optional[FaultPlan], Optional[obs.HubConfig]]:
    """The initargs of :func:`init_pool_worker`, taken from this process:
    its armed fault plan and a worker copy of its hub's config."""
    hub = obs.get_hub()
    return faults.get_plan(), hub.worker_config() if hub is not None else None


def init_pool_worker(
    fault_plan: Optional[FaultPlan], hub_config: Optional[obs.HubConfig]
) -> None:
    """The initializer every process pool shares (batch, daemon, campaign).

    A parent with an armed fault plan arms every worker too — that is
    how injected kills land inside real pool processes. Worker-side
    events (fault firings, per-copy telemetry) append to the parent's
    journal through a hub that never rotates it and never journals
    spans: installing it also unwires the span sink a forked worker
    inherits, so spans reach the journal once, when the parent adopts
    them.
    """
    if fault_plan is not None:
        faults.install(fault_plan)
    if hub_config is not None:
        obs.set_hub(obs.TelemetryHub(hub_config))


def _init_worker(
    prepared: PreparedProgram,
    self_check: bool,
    parent: Optional[SpanContext] = None,
    fault_plan: Optional[FaultPlan] = None,
    hub_config: Optional[obs.HubConfig] = None,
) -> None:
    global _WORKER_PREPARED, _WORKER_SELF_CHECK, _WORKER_PARENT
    _WORKER_PREPARED = prepared
    _WORKER_SELF_CHECK = self_check
    _WORKER_PARENT = parent
    init_pool_worker(fault_plan, hub_config)
    if parent is not None:
        # The parent batch span's context travels in; record worker
        # spans locally and hand them back on each CopyResult.
        obs.enable_tracing()


def _embed_in_worker(spec: CopySpec) -> CopyResult:
    assert _WORKER_PREPARED is not None, "worker initializer did not run"
    # The canonical worker-death site: "kill"/"raise"/"delay" rules
    # here simulate a worker lost mid-task, *outside* the per-copy
    # exception isolation of embed_copy.
    faults.check("batch.worker.task", copy_id=spec.copy_id)
    with hand_off(_WORKER_PARENT, drain=True) as spans:
        result = embed_copy(_WORKER_PREPARED, spec, _WORKER_SELF_CHECK)
    result.spans = spans
    return result


def _embed_chunk(specs: List[CopySpec]) -> List[CopyResult]:
    """One pool task: embed a chunk of specs, return all their results.

    Chunks are submitted as individual futures (not ``pool.map``) so
    the parent can tell exactly which specs went down with a dead
    worker and resubmit only those.
    """
    return [_embed_in_worker(spec) for spec in specs]


# -- service workers: artifacts load from the store, by digest --------------
#
# The serving daemon (repro.serve.daemon) dispatches one job per HTTP
# request instead of one batch per pool, so the PreparedProgram cannot
# ride the pool initializer: requests for different releases share the
# same workers. Workers instead load artifacts from the persistent
# store lazily, keyed by content digest, through a small per-process
# cache, so each worker loads a release once; an artifact holds only
# the module and the site table, and unpickles in milliseconds.

#: Per-process artifact cache: releases a worker has already loaded.
#: Small and LRU: a worker serves few releases.
_ARTIFACT_CACHE: "OrderedDict[Tuple[str, str], PreparedProgram]" = OrderedDict()
_ARTIFACT_CACHE_MAX = 4


def load_prepared_artifact(store_root: str, digest: str) -> PreparedProgram:
    """Load an artifact from the store, memoized per process.

    The cache key includes the store root so one process can serve
    multiple stores (tests do; a daemon normally will not).
    ``store_root`` may name a plain store or a sharded fabric — the
    factory routes either way, so fleet workers pointed at a fabric
    need no special casing.
    """
    key = (store_root, digest)
    cached = _ARTIFACT_CACHE.get(key)
    if cached is not None:
        _ARTIFACT_CACHE.move_to_end(key)
        return cached
    from ..serve.fabric import open_store  # deferred: serve imports us

    prepared = open_store(store_root).load(digest)
    while len(_ARTIFACT_CACHE) >= _ARTIFACT_CACHE_MAX:
        _ARTIFACT_CACHE.popitem(last=False)
    _ARTIFACT_CACHE[key] = prepared
    return prepared


def service_embed_copy(
    store_root: str,
    digest: str,
    spec: CopySpec,
    self_check: bool = True,
    parent: Optional[SpanContext] = None,
    drain_spans: bool = False,
    codec: Optional[str] = None,
) -> CopyResult:
    """One serving-daemon embed job: artifact by digest, copy by spec.

    ``parent`` grafts the job's spans under the request span.
    ``drain_spans=True`` is the process-pool mode: the job records
    spans on a worker-local tracer and hands them back on the result
    for the parent to adopt. Thread-pool mode records straight into
    the server's own tracer and leaves ``result.spans`` empty.
    ``codec`` is the request's per-copy override; ``None`` embeds with
    the artifact's own codec.
    """
    prepared = load_prepared_artifact(store_root, digest)
    with hand_off(parent, drain_spans) as spans:
        result = embed_copy(prepared, spec, self_check, codec=codec)
    result.spans = spans
    return result


def service_recognize(
    store_root: str,
    digest: str,
    module_text: str,
    parent: Optional[SpanContext] = None,
    drain_spans: bool = False,
    codec: Optional[str] = None,
) -> Dict[str, Any]:
    """One serving-daemon recognize job, against an artifact's key.

    The artifact supplies the key and fingerprint width — a recognize
    request names a release and ships only the (possibly attacked)
    module text. ``codec`` overrides the artifact's codec for this
    attempt (needed when the copy was embedded with a per-request
    override). Returns plain data so it travels home from a process
    pool: the recovered value, the diagnostic funnel, and (in
    process-pool mode) the job's spans as dicts.
    """

    with hand_off(parent, drain_spans) as spans:
        prepared = load_prepared_artifact(store_root, digest)
        module = assemble(module_text)
        found, report = recognize_with_report(
            module, prepared.key, watermark_bits=prepared.watermark_bits,
            codec=codec or prepared.codec,
        )
    return {
        "complete": found.complete,
        "value": found.value if found.complete else None,
        "report": report.to_dict(),
        "spans": [sp.to_dict() for sp in spans],
    }


def default_chunksize(copy_count: int, workers: int) -> int:
    """Chunk the work queue: ~4 chunks per worker balances queue
    overhead against load-balancing granularity."""
    return max(1, copy_count // max(1, workers * 4))


# -- checkpoint journal ------------------------------------------------------


def read_checkpoint(path: str) -> List[CopyResult]:
    """Parse a checkpoint journal, tolerating a torn final line.

    The journal is JSONL appended result-by-result; a process killed
    mid-write leaves at most one truncated trailing line, which
    :func:`~repro.obs.journal.read_journal` drops (that copy simply
    re-embeds on resume).
    """
    results: List[CopyResult] = []
    for doc in read_journal(path):
        try:
            results.append(CopyResult.from_dict(doc))
        except (ValueError, KeyError, TypeError):
            continue  # not a copy record; the copy re-runs
    return results


def _journal_result(journal: Optional[TextIO], result: CopyResult) -> None:
    if journal is None:
        return
    doc = result.to_dict()
    journal.write(json.dumps(doc, sort_keys=True) + "\n")
    journal.flush()
    try:
        os.fsync(journal.fileno())
    except OSError:
        pass  # a best-effort journal beats none; resume re-embeds losses


def _run_round(
    prepared: PreparedProgram,
    pending: List[CopySpec],
    workers: int,
    chunksize: Optional[int],
    self_check: bool,
    attempt: int,
    record: Callable[[CopyResult], None],
    tracer: Any,
) -> Dict[str, str]:
    """Run one submission round over ``pending``; record what lands.

    Returns a map of ``copy_id -> error text`` for specs whose worker
    died under them this round (they stay pending). Specs that produce
    a :class:`CopyResult` — success or permanent failure — are handed
    to ``record`` and leave the pending set.
    """
    errors: Dict[str, str] = {}

    def stamp(result: CopyResult) -> CopyResult:
        result.attempts = attempt
        return result

    if workers == 1 or len(pending) <= 1:
        for spec in pending:
            try:
                faults.check("batch.worker.task", copy_id=spec.copy_id)
                record(stamp(embed_copy(prepared, spec, self_check)))
            except Exception as exc:
                # In-process there is no worker to lose, but an injected
                # control fault here still counts as transient loss.
                errors[spec.copy_id] = f"{type(exc).__name__}: {exc}"
        return errors

    chunk = chunksize or default_chunksize(len(pending), workers)
    chunks = [pending[i:i + chunk] for i in range(0, len(pending), chunk)]
    parent = obs.current_context() if tracer.enabled else None
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(prepared, self_check, parent, *worker_bootstrap()),
    ) as pool:
        futures: Dict[Future, List[CopySpec]] = {
            pool.submit(_embed_chunk, group): group for group in chunks
        }
        for future in as_completed(futures):
            group = futures[future]
            try:
                for result in future.result():
                    record(stamp(result))
            except Exception as exc:
                # The whole chunk went down with its worker (e.g. a
                # BrokenProcessPool): every spec in it stays pending.
                for spec in group:
                    errors[spec.copy_id] = f"{type(exc).__name__}: {exc}"
    return errors


def _lost_copy_result(
    spec: CopySpec, attempts: int, error: Optional[str]
) -> CopyResult:
    """The exactly-one-result guarantee's last resort: a spec whose
    worker died on every attempt still yields a (failed) result."""
    return CopyResult(
        copy_id=spec.copy_id,
        watermark=spec.watermark,
        seed=spec.seed,
        ok=False,
        error=error or "worker lost before the copy completed",
        error_kind="transient",
        attempts=attempts,
    )


def run_batch(
    prepared: PreparedProgram,
    copies: Iterable[CopySpec],
    workers: int = 1,
    outdir: Optional[str] = None,
    chunksize: Optional[int] = None,
    cache_hits: int = 0,
    cache_misses: int = 1,
    self_check: bool = True,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    retry: Optional[RetryPolicy] = None,
) -> BatchReport:
    """Embed every requested copy, in parallel when ``workers > 1``.

    ``workers == 1`` runs in-process (no pool, no pickling) — the
    output is identical either way. When ``outdir`` is given each
    successful copy is written to ``<outdir>/<copy_id>.wasm``.
    Results keep the order of ``copies`` regardless of scheduling.
    ``self_check=False`` skips the per-copy re-run + recognition.

    Resilience:

    * **every submitted spec yields exactly one result** — verified,
      failed, or restored-from-checkpoint; work lost to a dead worker
      is resubmitted, and a spec whose worker dies on every attempt
      comes back as a *transient* failure rather than vanishing;
    * **transient failures retry** — a dead pool worker (or an
      injected kill, see :mod:`repro.faults`) triggers resubmission of
      only the unfinished specs, on a fresh pool, after a capped
      jittered backoff from ``retry`` (default :class:`RetryPolicy`).
      Failures *inside* a copy are deterministic, classified
      permanent, and never retried;
    * **checkpoint/resume** — with ``checkpoint=path`` every completed
      copy (and its output file, when ``outdir`` is set) is journaled
      to a JSONL file as it lands; ``resume=True`` then skips copies
      the journal already shows as verified, so a batch killed mid-run
      finishes without re-embedding its survivors.

    A fault plan armed in the parent (``faults.install``) rides the
    pool initializer into every worker.
    """
    specs = list(copies)
    if workers < 1:
        raise ValueError("workers must be positive")
    if resume and not checkpoint:
        raise ValueError("resume=True requires a checkpoint path")
    seen = set()
    for spec in specs:
        if spec.copy_id in seen:
            raise ValueError(f"duplicate copy id {spec.copy_id!r}")
        seen.add(spec.copy_id)
    policy = retry or RetryPolicy()

    tracer = obs.get_tracer()
    timings = StageTimings()
    results: Dict[str, CopyResult] = {}
    retry_rounds = 0

    journal: Optional[TextIO] = None
    if checkpoint:
        if resume and os.path.exists(checkpoint):
            for prior in read_checkpoint(checkpoint):
                if prior.copy_id in seen and prior.verified:
                    prior.resumed = True
                    prior.text = None  # the file already exists on disk
                    results[prior.copy_id] = prior
        checkpoint_dir = os.path.dirname(checkpoint)
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)
        journal = open(checkpoint, "a")

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)

    def record(result: CopyResult) -> None:
        """Land one result: output file first, then the journal line,
        so a journaled copy always has its module on disk."""
        results[result.copy_id] = result
        if outdir is not None and result.text is not None:
            with stage_span(timings, "write", "batch.write",
                            copy_id=result.copy_id):
                path = os.path.join(outdir, f"{result.copy_id}.wasm")
                with open(path, "w") as fp:
                    fp.write(result.text)
        _journal_result(journal, result)
        obs.emit(
            "copy",
            result.copy_id,
            ok=result.ok,
            verified=result.verified,
            attempts=result.attempts,
            wall_seconds=result.wall_seconds,
            error_kind=result.error_kind,
        )

    try:
        with stage_span(timings, "embed", "batch", copies=len(specs),
                        workers=workers) as batch_span:
            pending = [s for s in specs if s.copy_id not in results]
            attempt = 1
            while pending:
                round_errors = _run_round(
                    prepared, pending, workers, chunksize,
                    self_check, attempt, record, tracer,
                )
                pending = [s for s in pending if s.copy_id not in results]
                if not pending:
                    break
                if not policy.retries_left(attempt):
                    for spec in pending:
                        record(_lost_copy_result(
                            spec, attempt, round_errors.get(spec.copy_id),
                        ))
                    break
                # Transient loss: back off, then resubmit only the
                # unfinished specs on a fresh pool.
                retry_rounds += 1
                obs.get_registry().counter(
                    "repro_batch_retries_total",
                    "Copies resubmitted after a worker loss",
                ).inc(len(pending))
                obs.emit(
                    "batch.retry",
                    f"round-{retry_rounds}",
                    count=len(pending),
                    attempt=attempt,
                )
                time.sleep(policy.delay(attempt))
                attempt += 1
    finally:
        if journal is not None:
            journal.close()

    results_in_order = [results[s.copy_id] for s in specs]

    if tracer.enabled:
        for copy in results_in_order:
            if copy.spans:
                tracer.adopt(copy.spans)
                copy.spans = []

    return BatchReport(
        workers=workers,
        copies=results_in_order,
        prepare_timings=prepared.timings,
        batch_timings=timings,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        wall_seconds=batch_span.duration,
        retry_rounds=retry_rounds,
    )


def sequential_specs(
    count: int,
    start_watermark: int = 1,
    id_prefix: str = "copy",
    seed: int = 0,
) -> List[CopySpec]:
    """``count`` specs with consecutive watermarks — the common
    "customer 1..N" fingerprinting shape, used by manifests and tests."""
    if count < 1:
        raise ValueError("count must be positive")
    width = max(4, len(str(start_watermark + count - 1)))
    return [
        CopySpec(
            copy_id=f"{id_prefix}-{start_watermark + i:0{width}d}",
            watermark=start_watermark + i,
            seed=seed + i,
        )
        for i in range(count)
    ]
