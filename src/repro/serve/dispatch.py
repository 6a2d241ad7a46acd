"""Pluggable job dispatch: one pool, or a fleet of worker daemons.

The daemon and the CLI mint copies by submitting *jobs* — an HTTP-
shaped ``(route, payload)`` pair — to a :class:`Dispatcher`; the
daemon sends every embed and recognize through its one dispatcher.
Two implementations share that contract:

* :class:`LocalDispatcher` — this process's own thread or process
  pool running ``service_embed_copy``/``service_recognize``, with
  admission, per-route circuit breakers, timeout and worker-death
  rebuild; fault plans and telemetry ride the pool initializer.
* :class:`FleetDispatcher` — the scale-out path: jobs route to N
  worker daemons over the existing :class:`~repro.serve.client.
  ServiceClient` HTTP transport. A poller loop assigns queued jobs to
  the least-loaded worker with a free slot (**bounded in-flight per
  worker** — a worker advertises its capacity and is never handed
  more), invokes **per-job success/error callbacks**, **requeues on
  worker loss** under the shared seeded :class:`~repro.faults.retry.
  RetryPolicy` (honoring a 503's ``Retry-After`` over private
  backoff), and **load-sheds by route priority** when every worker is
  saturated and the backlog hits its bound — recognitions (the
  evidence path) outlive embeds (re-mintable at leisure).

A refused or failed job carries a :class:`DispatchError` naming its
HTTP status (:class:`DispatchOverload` is the 503 load-shed form).

Determinism: the dispatcher adds no randomness of its own beyond the
retry policy's seeded jitter. Job identity, payloads, and results are
caller-owned; completion *order* under a fleet is inherently racy,
which is why callers that need stable output (the campaign runner,
``run_batch``) sort by job key after the fact.

The fleet is **self-healing**: a :class:`HealthMonitor` drives a
per-worker state machine (``healthy → suspect → ejected → half-open
probe → readmitted``) off the same circuit-breaker semantics the
local dispatcher uses per route (:mod:`repro.serve.circuit`), fed by a
background ``/healthz`` prober on a seeded-jitter interval *and* by
passive send outcomes. An ejected worker stops receiving jobs and its
in-flight jobs are immediately re-planned onto live peers; when every
worker is ejected the dispatcher browns out — submissions fail fast
with :class:`DispatchOverload` (a 503 + ``Retry-After`` at the
front-end) instead of building an unservable queue.

Fault sites: local jobs pass ``daemon.job`` inside the worker; the
fleet transport declares ``fleet.send``, keyed by worker name, and
``fleet.probe`` for the health prober — so worker loss is injectable:
a pinned :class:`~repro.faults.FaultPlan` can kill the first K sends
to one worker (or every probe) and a test can watch the
requeue/ejection machinery recover.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from .. import faults, obs
from ..faults.retry import RetryPolicy
from ..obs.metrics import get_registry
from ..pipeline.batch import (
    CopySpec,
    init_pool_worker,
    service_embed_copy,
    service_recognize,
    worker_bootstrap,
)
from ..pipeline.metrics import CopyResult
from .circuit import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .client import _RETRYABLE_STATUSES, ServiceClient, ServiceError, answer
from .store import StoreError

__all__ = [
    "Dispatcher",
    "DispatchError",
    "DispatchOverload",
    "FleetDispatcher",
    "HealthMonitor",
    "Job",
    "LocalDispatcher",
    "ROUTE_PRIORITY",
    "WORKER_EJECTED",
    "WORKER_HEALTHY",
    "WORKER_PROBING",
    "WORKER_STATE_CODES",
    "WORKER_SUSPECT",
    "WorkerSpec",
    "load_workers",
]

#: Load-shed order: higher sheds later. Recognition requests carry
#: evidence that may not be reproducible (an attacked copy in hand);
#: an embed can always be re-minted from the artifact.
ROUTE_PRIORITY: Dict[str, int] = {
    "/v1/recognize": 2,
    "/v1/embed": 1,
}


class DispatchError(Exception):
    """A job refused or not finished: the HTTP ``status`` to answer
    with, and ``retry_after`` seconds for a ``Retry-After`` hint."""

    def __init__(
        self, status: int, message: str,
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class DispatchOverload(DispatchError):
    """Every worker is saturated and the pending queue is full.

    ``retry_after`` is the dispatcher's advice, in seconds — the
    daemon forwards it as a 503 ``Retry-After`` so well-behaved
    clients (ours honors it) back off instead of hammering.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(503, message, retry_after)


@dataclass
class Job:
    """One unit of work: an HTTP-shaped request plus callbacks.

    ``priority`` defaults from :data:`ROUTE_PRIORITY`; higher values
    survive load-shed longer. ``on_success``/``on_error`` fire on the
    dispatcher's worker threads (keep them cheap — flip a flag, append
    to a list); the returned future carries the same outcome for
    callers that prefer awaiting.
    """

    route: str
    payload: Dict[str, Any]
    job_id: str = ""
    priority: Optional[int] = None
    on_success: Optional[Callable[["Job", Dict[str, Any]], None]] = None
    on_error: Optional[Callable[["Job", BaseException], None]] = None
    attempts: int = 0
    worker: str = ""
    future: "Future[Dict[str, Any]]" = field(default_factory=Future)
    _resolved: bool = field(default=False, repr=False, compare=False)
    _resolve_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.priority is None:
            self.priority = ROUTE_PRIORITY.get(self.route, 0)

    def _claim(self) -> bool:
        """Take the one-and-only right to resolve this job.

        Exactly-once matters under self-healing: an ejection re-plans
        a worker's in-flight jobs, so a straggler send and its
        replacement can both come back with an outcome. Whichever
        claims first wins; the loser is a no-op — callbacks never fire
        twice and the future settles once.
        """
        with self._resolve_lock:
            if self._resolved:
                return False
            self._resolved = True
            return True

    def _succeed(self, doc: Dict[str, Any]) -> bool:
        if not self._claim():
            return False
        if self.on_success is not None:
            self.on_success(self, doc)
        if not self.future.done():
            self.future.set_result(doc)
        return True

    def _fail(self, exc: BaseException) -> bool:
        if not self._claim():
            return False
        if self.on_error is not None:
            self.on_error(self, exc)
        if not self.future.done():
            self.future.set_exception(exc)
        return True


class Dispatcher(Protocol):
    """What the daemon and CLI require of a job dispatcher."""

    def submit(self, job: Job) -> "Future[Dict[str, Any]]":
        """Enqueue a job; the future resolves to the response body
        (or fails, a refusal with a :class:`DispatchError`)."""
        ...

    def stats(self) -> Dict[str, Any]:
        """A snapshot for gauges/introspection (shape is impl-owned)."""
        ...

    def drain(self, timeout: float = 60.0) -> bool:
        """Wait until no submitted job is left unresolved."""
        ...

    def close(self) -> None:
        """Stop accepting work and release resources."""
        ...


# ---------------------------------------------------------------------------
# Local: this process's own worker pool
# ---------------------------------------------------------------------------

#: The routes a local pool runs; a job for any other fails its future.
_LOCAL_ROUTES = ("/v1/embed", "/v1/recognize")


class LocalDispatcher:
    """Jobs run on this process's own pool: the daemon's local mode.

    In the order a job meets them: at most ``workers + queue_depth``
    jobs in flight (else 429, ``Retry-After: 1``); the route's
    :class:`~repro.serve.circuit.CircuitBreaker`, asked only after
    admission so a refused job never claims the half-open probe; a
    thread or process pool (the initializer arms the parent's fault
    plan and telemetry hub); a 504 after ``request_timeout`` seconds
    (an orphan may still finish; its answer is dropped); and one pool
    rebuild and resubmit after a ``BrokenExecutor``, then 503.

    Every admitted job records exactly one breaker outcome: a timeout,
    a second worker death or a close is a failure, anything a worker
    computed (a result, or an exception the job raised) a success.
    Submitters, pool callbacks and timers run on different threads, so
    one lock guards the live set, breakers and counters, and a job is
    settled under it: whoever sees the answer sees the freed slot.
    Jobs reach the pool as plain data (:func:`_local_job`), so a
    process pool never pickles the dispatcher.
    """

    def __init__(
        self,
        store_root: str,
        workers: int = 2,
        executor: str = "thread",
        queue_depth: int = 8,
        request_timeout: float = 60.0,
        circuit_threshold: int = 5,
        circuit_reset: float = 30.0,
    ):
        if executor not in ("process", "thread"):
            raise ValueError("executor must be 'process' or 'thread'")
        self.store_root = store_root
        self.workers = workers
        self.executor = executor
        self.capacity = workers + queue_depth
        self.request_timeout = request_timeout
        self._breakers = {
            route: CircuitBreaker(
                threshold=circuit_threshold, reset_after=circuit_reset,
                name=route,
            )
            for route in _LOCAL_ROUTES
        }
        self._retries = get_registry().counter(
            "repro_http_worker_retries_total",
            "Jobs retried after a worker death",
        )
        # Admitted, unsettled jobs by id, each with its timeout timer.
        self._live: Dict[int, Tuple[Job, threading.Timer]] = {}
        self._submitted = 0
        self._closed = False
        self._lock = threading.Condition(threading.RLock())
        self._pool = self._make_pool()

    def _make_pool(self) -> Executor:
        if self.executor == "thread":
            return ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-serve"
            )
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=init_pool_worker,
            initargs=worker_bootstrap(),
        )

    # -- public surface ----------------------------------------------------

    def submit(self, job: Job) -> "Future[Dict[str, Any]]":
        with self._lock:
            if self._closed:
                raise RuntimeError("dispatcher is closed")
            self._submitted += 1
            breaker = self._breakers.get(job.route)
            if breaker is None:
                job._fail(ValueError(f"no local handler for route {job.route!r}"))
                return job.future
            if len(self._live) >= self.capacity:
                job._fail(DispatchError(429, "queue full, retry shortly", 1.0))
                return job.future
            if not breaker.allow():
                job._fail(DispatchError(
                    503, f"circuit open for {job.route} after repeated "
                    "worker failures", breaker.retry_after(),
                ))
                return job.future
            timeout = DispatchError(
                504, f"request exceeded {self.request_timeout:g}s budget"
            )
            timer = threading.Timer(
                self.request_timeout, self._settle, (job, False, timeout)
            )
            timer.daemon = True
            self._live[id(job)] = (job, timer)
        timer.start()
        tracer = obs.get_tracer()
        parent = obs.current_context() if tracer.enabled else None
        self._attempt(job, parent, retried=False)
        return job.future

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "mode": "local",
                "submitted": self._submitted,
                "inflight": len(self._live),
                "capacity": self.capacity,
                "circuits": {
                    route: breaker.state
                    for route, breaker in self._breakers.items()
                },
            }

    def drain(self, timeout: float = 60.0) -> bool:
        """Block until no admitted job is left unsettled."""
        with self._lock:
            return self._lock.wait_for(lambda: not self._live, timeout)

    def close(self) -> None:
        """Fail every unsettled job with a 503 and tear the pool down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            orphans = [job for job, _timer in self._live.values()]
        cancelled = DispatchError(503, "job cancelled by server shutdown")
        for job in orphans:
            self._settle(job, False, cancelled)
        self._pool.shutdown(wait=False, cancel_futures=True)

    # -- internals ---------------------------------------------------------

    def _attempt(
        self, job: Job, parent: Optional[obs.SpanContext], retried: bool
    ) -> None:
        with self._lock:
            pool = self._pool
        try:
            inner = pool.submit(
                _local_job, self.store_root, job.route, job.payload, parent,
                self.executor == "process",
            )
        except RuntimeError:  # broken or shut down: as good as a death
            inner = Future()
            inner.cancel()
        inner.add_done_callback(
            lambda f: self._finished(job, parent, retried, pool, f)
        )

    def _finished(
        self,
        job: Job,
        parent: Optional[obs.SpanContext],
        retried: bool,
        pool: Executor,
        inner: "Future[Dict[str, Any]]",
    ) -> None:
        if inner.cancelled() or isinstance(inner.exception(), BrokenExecutor):
            # The worker died under the job: rebuild the pool (once per
            # death) and give the job exactly one more chance.
            if retried:
                died = "worker pool died twice running this request"
                self._settle(job, False, DispatchError(503, died))
                return
            with self._lock:
                if self._closed or id(job) not in self._live:
                    return  # settled meanwhile: timed out, or closed
                self._retries.inc()
                retired = None
                if self._pool is pool:
                    retired, self._pool = pool, self._make_pool()
            if retired is not None:  # not from inside its own callbacks
                threading.Thread(
                    target=retired.shutdown,
                    kwargs={"wait": False, "cancel_futures": True},
                    name="repro-serve-retire", daemon=True,
                ).start()
            self._attempt(job, parent, retried=True)
            return
        exc = inner.exception()
        if exc is not None:
            # The job raised: the worker is fine, the request is not.
            # A store problem stays itself (404); the rest are 500s.
            if not isinstance(exc, StoreError):
                cause, exc = exc, DispatchError(
                    500, f"{type(exc).__name__}: {exc}"
                )
                exc.__cause__ = cause
            self._settle(job, True, exc)
            return
        body = inner.result()
        spans = body.pop("spans", [])
        if spans:
            obs.get_tracer().adopt(spans)
        self._settle(job, True, body)

    def _settle(self, job: Job, ok: bool, outcome: Any) -> None:
        """Settle one admitted job with a body or an exception, once:
        whichever of its worker, its timer or :meth:`close` comes
        first wins."""
        with self._lock:
            entry = self._live.pop(id(job), None)
            if entry is None:
                return
            entry[1].cancel()
            breaker = self._breakers[job.route]
            if ok:
                breaker.record_success()
            else:
                breaker.record_failure()
            if isinstance(outcome, BaseException):
                job._fail(outcome)
            else:
                job._succeed(outcome)
            self._lock.notify_all()


def _local_job(
    store_root: str,
    route: str,
    payload: Dict[str, Any],
    parent: Optional[obs.SpanContext],
    drain_spans: bool,
) -> Dict[str, Any]:
    """Run one job inside a pool worker: plain data in and out.

    The ``daemon.job`` fault site fires here, so an injected delay
    really holds a pool slot and an injected kill really kills the
    worker. The body keeps the worker's ``"spans"`` for adoption.
    """
    faults.check("daemon.job")
    digest = str(payload["artifact"])
    codec = payload.get("codec")
    if route == "/v1/recognize":
        return service_recognize(
            store_root, digest, str(payload["module"]), parent,
            drain_spans, codec,
        )
    spec = CopySpec(
        copy_id=str(payload["copy_id"]),
        watermark=int(payload["watermark"]),
        seed=int(payload.get("seed", 0)),
    )
    result = service_embed_copy(
        store_root, digest, spec, bool(payload.get("self_check", True)),
        parent, drain_spans, codec,
    )
    return _embed_body(result, digest)


def _embed_body(result: CopyResult, digest: str) -> Dict[str, Any]:
    """The ``/v1/embed`` body, less the ``"codec"`` the daemon adds; a
    copy that failed or failed its self-check carries an ``"error"``."""
    body: Dict[str, Any] = {
        "copy_id": result.copy_id,
        "watermark": result.watermark,
        "seed": result.seed,
        "artifact": digest,
        "ok": result.ok,
        "checked": result.checked,
        "verified": result.verified,
        "self_check": result.self_check,
        "output_ok": result.output_ok,
        "recognized": result.recognized,
        "piece_count": result.piece_count,
        "byte_size_increase": result.byte_size_increase,
        "wall_seconds": result.wall_seconds,
        "module": result.text,
        "spans": result.spans,
    }
    if not result.ok:
        body["error"] = result.error
    elif not result.verified:
        body["error"] = "copy failed its self-check"
    return body


# ---------------------------------------------------------------------------
# Fleet: N worker daemons behind ServiceClient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """One worker daemon: where it is and how much it can hold.

    ``capacity`` is the in-flight bound — set it to the worker's
    ``--workers`` count so the fleet never out-queues a worker's own
    admission ceiling (jobs waiting here can still be re-planned;
    jobs queued *on* a saturated worker cannot).
    """

    name: str
    url: str
    capacity: int = 2

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "WorkerSpec":
        if not isinstance(doc.get("name"), str) or not doc["name"]:
            raise ValueError("worker entry needs a non-empty 'name'")
        if not isinstance(doc.get("url"), str):
            raise ValueError(f"worker {doc['name']!r} needs a 'url'")
        capacity = doc.get("capacity", 2)
        if isinstance(capacity, bool) or not isinstance(capacity, int) \
                or capacity < 1:
            raise ValueError(
                f"worker {doc['name']!r} capacity must be a positive int"
            )
        return WorkerSpec(doc["name"], doc["url"], capacity)


def load_workers(path: str) -> List[WorkerSpec]:
    """Parse a ``workers.json`` fleet file: ``{"workers": [...]}``."""
    with open(path) as fp:
        doc = json.load(fp)
    entries = doc.get("workers") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path!r} must hold a non-empty 'workers' list")
    specs = [WorkerSpec.from_dict(e) for e in entries]
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate worker names in {path!r}")
    return specs


# ---------------------------------------------------------------------------
# Health: per-worker probes, ejection, readmission
# ---------------------------------------------------------------------------

WORKER_HEALTHY = "healthy"
WORKER_SUSPECT = "suspect"
WORKER_PROBING = "probing"
WORKER_EJECTED = "ejected"

#: Gauge encoding for ``repro_fleet_worker_state``.
WORKER_STATE_CODES: Dict[str, int] = {
    WORKER_HEALTHY: 0,
    WORKER_SUSPECT: 1,
    WORKER_PROBING: 2,
    WORKER_EJECTED: 3,
}

_WORKER_STATE_HELP = (
    "Fleet worker health (0 healthy, 1 suspect, 2 probing, 3 ejected)"
)


class HealthMonitor:
    """Per-worker health from active ``/healthz`` probes + passive sends.

    One :class:`~repro.serve.circuit.CircuitBreaker` per worker reuses
    the local per-route circuit semantics for the worker life
    cycle::

        healthy ──(eject_threshold consecutive failures)──► ejected
        ejected ──(readmit_after elapses)──► probing (half-open)
        probing ──(one probe succeeds)──► healthy (readmitted)
        probing ──(the probe fails)──► ejected (another full window)

    with ``suspect`` the closed-but-bruised shade in between: at least
    one consecutive failure, threshold not yet reached. Failure
    signals arrive from two directions — a background prober hits each
    worker's ``/healthz`` on a seeded-jitter interval (the
    ``fleet.probe`` fault site lets tests stall or kill probes
    deterministically), and the dispatcher reports every send outcome
    via :meth:`record_send`, so a dying worker is caught between probe
    ticks too.

    State *changes* set the ``repro_fleet_worker_state`` gauge and
    emit ``fleet.worker`` journal events, and the owner's
    ``on_eject``/``on_readmit`` hooks fire **outside** the monitor
    lock: the dispatcher's hooks take its own lock, and keeping the
    two locks un-nested in this direction makes the dispatcher→monitor
    call ordering deadlock-free.

    The monitor is usable standalone: docs and tests drive it with a
    fake ``probe`` callable and ``clock`` and never call
    :meth:`start`.
    """

    def __init__(
        self,
        workers: List[WorkerSpec],
        probe: Callable[[WorkerSpec], None],
        eject_threshold: int = 3,
        readmit_after: float = 5.0,
        probe_interval: float = 1.0,
        probe_jitter: float = 0.25,
        seed: int = 2004,
        on_eject: Optional[Callable[[str], None]] = None,
        on_readmit: Optional[Callable[[str], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        if not 0.0 <= probe_jitter < 1.0:
            raise ValueError("probe_jitter must be in [0, 1)")
        self.workers = list(workers)
        self.probe_interval = probe_interval
        self.probe_jitter = probe_jitter
        self._probe = probe
        self._rng = random.Random(seed)
        self._on_eject = on_eject
        self._on_readmit = on_readmit
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {
            w.name: CircuitBreaker(
                threshold=eject_threshold,
                reset_after=readmit_after,
                clock=clock,
                name=w.name,
                # Worker transitions are reported below in worker
                # vocabulary; suppress the route-flavoured telemetry.
                on_transition=lambda state: None,
            )
            for w in self.workers
        }
        self._reported = {w.name: WORKER_HEALTHY for w in self.workers}
        self._ejections = 0
        self._readmissions = 0
        self._stop = threading.Event()
        self._prober: Optional[threading.Thread] = None
        gauge = get_registry().gauge(
            "repro_fleet_worker_state", _WORKER_STATE_HELP
        )
        for w in self.workers:
            gauge.set(WORKER_STATE_CODES[WORKER_HEALTHY], worker=w.name)

    # -- life cycle --------------------------------------------------------

    def start(self) -> None:
        """Start the background prober (idempotent)."""
        if self._prober is not None:
            return
        self._prober = threading.Thread(
            target=self._probe_loop, name="repro-fleet-prober", daemon=True
        )
        self._prober.start()

    def stop(self) -> None:
        self._stop.set()
        if self._prober is not None:
            self._prober.join(timeout=5.0)
            self._prober = None

    # -- queries -----------------------------------------------------------

    def available(self, worker: str) -> bool:
        """May the dispatcher hand this worker a job right now?

        Only a closed breaker takes traffic: an ejected worker's
        half-open slot is spent on a health probe, never a real job.
        """
        with self._lock:
            return self._breakers[worker].state == CLOSED

    def any_available(self) -> bool:
        with self._lock:
            return any(b.state == CLOSED for b in self._breakers.values())

    def retry_after(self) -> float:
        """Seconds until the fleet could take work again (brownout hint)."""
        with self._lock:
            return min(b.retry_after() for b in self._breakers.values())

    def state(self, worker: str) -> str:
        with self._lock:
            return self._derived(self._breakers[worker])

    def states(self) -> Dict[str, str]:
        """Live derived state per worker (for stats/healthz/CLI)."""
        with self._lock:
            return {
                name: self._derived(breaker)
                for name, breaker in self._breakers.items()
            }

    @property
    def ejections(self) -> int:
        with self._lock:
            return self._ejections

    @property
    def readmissions(self) -> int:
        with self._lock:
            return self._readmissions

    # -- signals -----------------------------------------------------------

    def record_send(self, worker: str, ok: bool) -> None:
        """Passive signal from the dispatcher: how a real send went."""
        self._signal(worker, ok, "send")

    def probe_all(self) -> None:
        """One synchronous probe sweep — the loop body, also the
        entry point for tests/docs driving the monitor by hand."""
        for spec in self.workers:
            if self._stop.is_set():
                return
            self.probe_one(spec)

    def probe_one(self, spec: WorkerSpec) -> None:
        with self._lock:
            breaker = self._breakers[spec.name]
            if breaker.state == OPEN:
                return  # mid-window: too early for the half-open probe
            if breaker.state == HALF_OPEN and not breaker.allow():
                return  # another probe already owns the half-open slot
        try:
            faults.check("fleet.probe", worker=spec.name)
            self._probe(spec)
        except (OSError, faults.FaultError, ServiceError) as exc:
            self._signal(spec.name, False, f"probe: {exc}")
        else:
            self._signal(spec.name, True, "probe")

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _derived(breaker: CircuitBreaker) -> str:
        state = breaker.state
        if state == OPEN:
            return WORKER_EJECTED
        if state == HALF_OPEN:
            return WORKER_PROBING
        if breaker.failures > 0:
            return WORKER_SUSPECT
        return WORKER_HEALTHY

    def _signal(self, worker: str, ok: bool, reason: str) -> None:
        with self._lock:
            breaker = self._breakers[worker]
            before = self._reported[worker]
            if ok:
                breaker.record_success()
            else:
                breaker.record_failure()
            after = self._derived(breaker)
            if after == before:
                return
            self._reported[worker] = after
            readmitted = (
                before in (WORKER_EJECTED, WORKER_PROBING)
                and after in (WORKER_HEALTHY, WORKER_SUSPECT)
            )
            if after == WORKER_EJECTED:
                self._ejections += 1
            if readmitted:
                self._readmissions += 1
        # Telemetry and hooks run after the lock is released; hooks
        # may take the dispatcher's lock (requeueing, notifying).
        get_registry().gauge(
            "repro_fleet_worker_state", _WORKER_STATE_HELP
        ).set(WORKER_STATE_CODES[after], worker=worker)
        obs.emit(
            "fleet.worker", worker,
            worker=worker, state=after, previous=before,
            readmitted=readmitted, reason=reason,
        )
        if after == WORKER_EJECTED and self._on_eject is not None:
            self._on_eject(worker)
        if readmitted and self._on_readmit is not None:
            self._on_readmit(worker)

    def _probe_loop(self) -> None:
        while not self._stop.wait(self._next_delay()):
            self.probe_all()

    def _next_delay(self) -> float:
        """Seeded jitter keeps a fleet of probers from phase-locking."""
        if self.probe_jitter <= 0.0:
            return self.probe_interval
        spread = self._rng.uniform(-self.probe_jitter, self.probe_jitter)
        return self.probe_interval * (1.0 + spread)


class FleetDispatcher:
    """Route jobs to worker daemons; survive the daemons misbehaving.

    One poller thread owns the queue: it wakes on submissions,
    completions and requeue deadlines, and hands the highest-priority
    *ready* job to the least-loaded worker with a free slot. Sends run
    on a thread pool sized to the fleet's total capacity (they block
    on HTTP). The per-request ``ServiceClient`` retry is disabled
    (``max_attempts=1``): the dispatcher owns retries, because only it
    can requeue to a *different* worker.

    Failure handling per send:

    * connection loss / 429 / 503 — worker loss or saturation: the
      job requeues with delay ``max(policy backoff, server
      Retry-After)`` until the policy's attempts run out, then fails.
    * any other error status — the job is wrong, not the worker:
      fails immediately (no requeue).

    When the pending queue reaches ``max_pending``, the
    lowest-priority job (submission order breaking ties, newest
    first) is shed with :class:`DispatchOverload`.

    With ``eject=True`` (the default) a :class:`HealthMonitor` rides
    along: ejected workers are skipped by assignment, their in-flight
    jobs immediately re-planned onto live peers, and a fleet-wide
    brownout (every worker ejected) fast-fails submissions with
    :class:`DispatchOverload` instead of letting the queue build up
    against nobody. ``eject=False`` restores the old behavior — every
    routed job burns its full retry budget against a dead worker —
    and exists mostly so ``benchmarks/chaos_soak.py --no-eject`` can
    prove the difference.
    """

    def __init__(
        self,
        workers: List[WorkerSpec],
        retry: Optional[RetryPolicy] = None,
        poll_interval: float = 0.05,
        max_pending: int = 256,
        request_timeout: float = 60.0,
        client_factory: Optional[Callable[[WorkerSpec], ServiceClient]] = None,
        eject: bool = True,
        probe_interval: float = 1.0,
        probe_timeout: float = 2.0,
        eject_threshold: int = 3,
        readmit_after: float = 5.0,
        health_seed: int = 2004,
    ):
        if not workers:
            raise ValueError("a fleet needs at least one worker")
        self.workers = list(workers)
        self.retry = retry or RetryPolicy()
        self.poll_interval = poll_interval
        self.max_pending = max_pending
        if client_factory is None:
            def client_factory(spec: WorkerSpec) -> ServiceClient:
                return ServiceClient(
                    spec.url, timeout=request_timeout,
                    retry=RetryPolicy(max_attempts=1),
                )
        self._clients = {w.name: client_factory(w) for w in self.workers}
        self._in_flight = {w.name: 0 for w in self.workers}
        self._capacity = {w.name: w.capacity for w in self.workers}
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        # Entries: (-priority, seq, not_before, job). Heap order is
        # priority-first so shedding pops from the *back* conceptually;
        # readiness (not_before) is checked at assignment time.
        self._pending: List[Tuple[int, int, float, Job]] = []
        self._seq = itertools.count()
        # Assignment tokens per worker, keyed by id(job): an ejection
        # clears a worker's map, so a straggler send coming back with
        # a stale token knows its books were already settled.
        self._assigned: Dict[str, Dict[int, Tuple[Job, int]]] = {
            w.name: {} for w in self.workers
        }
        self._completed = 0
        self._errors = 0
        self._shed = 0
        self._requeues = 0
        self._brownouts = 0
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=sum(w.capacity for w in self.workers),
            thread_name_prefix="repro-fleet",
        )
        self._poller = threading.Thread(
            target=self._poll_loop, name="repro-fleet-poller", daemon=True
        )
        self._poller.start()
        self._monitor: Optional[HealthMonitor] = None
        if eject:
            self._probe_clients = {
                w.name: ServiceClient(
                    w.url, timeout=probe_timeout,
                    retry=RetryPolicy(max_attempts=1),
                )
                for w in self.workers
            }
            self._monitor = HealthMonitor(
                self.workers,
                probe=self._probe_worker,
                eject_threshold=eject_threshold,
                readmit_after=readmit_after,
                probe_interval=probe_interval,
                seed=health_seed,
                on_eject=self._eject_worker,
                on_readmit=self._readmit_worker,
            )
            self._monitor.start()

    @property
    def monitor(self) -> Optional[HealthMonitor]:
        return self._monitor

    # -- public surface ----------------------------------------------------

    def submit(self, job: Job) -> "Future[Dict[str, Any]]":
        monitor = self._monitor
        if monitor is not None and not monitor.any_available():
            # Fleet-wide brownout: every worker is ejected. Queueing
            # would only build a backlog nobody can serve — degrade to
            # an immediate overload with the earliest readmission as
            # the Retry-After hint.
            retry_after = max(monitor.retry_after(), self.poll_interval)
            with self._wake:
                if self._closed:
                    raise RuntimeError("dispatcher is closed")
                self._brownouts += 1
                if not job.job_id:
                    job.job_id = f"job-{next(self._seq)}"
            get_registry().counter(
                "repro_fleet_brownouts_total",
                "Submissions fast-failed while every worker was ejected",
            ).inc(route=job.route)
            obs.emit(
                "fleet.dispatch", job.job_id,
                route=job.route, outcome="brownout",
                retry_after=retry_after,
            )
            job._fail(DispatchOverload(
                f"fleet brownout: all {len(self.workers)} workers ejected",
                retry_after=retry_after,
            ))
            return job.future
        with self._wake:
            if self._closed:
                raise RuntimeError("dispatcher is closed")
            if len(self._pending) >= self.max_pending:
                self._shed_one(job)
                if job.future.done():
                    return job.future
            if not job.job_id:
                job.job_id = f"job-{next(self._seq)}"
            heapq.heappush(
                self._pending,
                (-int(job.priority or 0), next(self._seq), 0.0, job),
            )
            self._wake.notify()
        return job.future

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            doc: Dict[str, Any] = {
                "mode": "fleet",
                "pending": len(self._pending),
                "in_flight": dict(self._in_flight),
                "completed": self._completed,
                "errors": self._errors,
                "shed": self._shed,
                "requeues": self._requeues,
                "brownouts": self._brownouts,
            }
        monitor = self._monitor
        if monitor is not None:
            doc["workers"] = monitor.states()
            doc["ejections"] = monitor.ejections
            doc["readmissions"] = monitor.readmissions
        return doc

    def drain(self, timeout: float = 60.0) -> bool:
        """Block until the queue and every in-flight slot are empty.

        Returns False without waiting once :meth:`close` has run —
        a closed dispatcher will never drain, it already failed its
        queue.
        """
        deadline = time.monotonic() + timeout
        with self._wake:
            if self._closed:
                return False
            while self._pending or any(self._in_flight.values()):
                if self._closed:
                    return False
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._wake.wait(min(remaining, self.poll_interval))
        return True

    def close(self) -> None:
        with self._wake:
            if self._closed:
                return
            self._closed = True
            abandoned = [entry[3] for entry in self._pending]
            self._pending.clear()
            self._wake.notify_all()
        if self._monitor is not None:
            self._monitor.stop()
        for job in abandoned:
            job._fail(DispatchOverload("dispatcher closed", retry_after=0.0))
        self._poller.join(timeout=5.0)
        self._pool.shutdown(wait=True)

    # -- internals ---------------------------------------------------------

    def _shed_one(self, incoming: Job) -> None:
        """Queue full: drop the least important job (maybe the new one).

        The victim is the lowest-priority entry; among equals the
        *newest* goes — older jobs have waited longest and are closest
        to service (FIFO fairness under shed).
        """
        candidates = self._pending + [
            (-int(incoming.priority or 0), next(self._seq), 0.0, incoming)
        ]
        victim_entry = max(candidates, key=lambda e: (e[0], e[1]))
        if victim_entry[3] is not incoming:
            # Only evict the loser here; the caller pushes the
            # incoming job through its normal path. (Pushing it here
            # too used to double-enqueue the job: the duplicate entry
            # inflated the queue and could be shed — or sent — twice.)
            self._pending.remove(victim_entry)
            heapq.heapify(self._pending)
        victim = victim_entry[3]
        self._shed += 1
        get_registry().counter(
            "repro_fleet_shed_total", "Jobs load-shed by the dispatcher"
        ).inc(route=victim.route)
        obs.emit(
            "fleet.dispatch", victim.job_id or "unassigned",
            route=victim.route, outcome="shed", priority=victim.priority,
        )
        victim._fail(DispatchOverload(
            f"fleet saturated ({self.max_pending} pending); "
            f"{victim.route} shed", retry_after=self.poll_interval * 10,
        ))

    def _pick_worker(self) -> Optional[str]:
        """Least-loaded *available* worker with a free slot.

        Ejected workers are invisible here; their only traffic until
        readmission is the monitor's half-open health probe.
        """
        monitor = self._monitor
        best: Optional[str] = None
        best_load = 10**9
        for spec in self.workers:
            if monitor is not None and not monitor.available(spec.name):
                continue
            load = self._in_flight[spec.name]
            if load < self._capacity[spec.name] and load < best_load:
                best, best_load = spec.name, load
        return best

    def _poll_loop(self) -> None:
        while True:
            with self._wake:
                if self._closed:
                    return
                now = time.monotonic()
                entry, next_ready = self._next_ready(now)
                if entry is None:
                    if next_ready is not None:
                        # Everything pending is parked on a requeue
                        # delay: sleep until the earliest one comes
                        # due (submissions still notify us awake).
                        self._wake.wait(max(0.0, next_ready - now))
                    else:
                        self._wake.wait(self.poll_interval)
                    continue
                worker = self._pick_worker()
                if worker is None:
                    # All slots busy (or every worker ejected): put it
                    # back, wait for a completion or readmission.
                    heapq.heappush(self._pending, entry)
                    self._wake.wait(self.poll_interval)
                    continue
                job = entry[3]
                self._in_flight[worker] += 1
                token = next(self._seq)
                self._assigned[worker][id(job)] = (job, token)
            self._pool.submit(self._send, job, worker, token)

    def _next_ready(
        self, now: float
    ) -> Tuple[Optional[Tuple[int, int, float, Job]], Optional[float]]:
        """Pop the best ready entry; also report the earliest deferred
        ``not_before`` so the poller can sleep exactly that long.

        Entries whose job already resolved elsewhere — shed while
        parked, failed by ``close``, or finished by a straggler send
        after an ejection re-planned it — are discarded on the way
        through.
        """
        deferred: List[Tuple[int, int, float, Job]] = []
        picked: Optional[Tuple[int, int, float, Job]] = None
        while self._pending:
            entry = heapq.heappop(self._pending)
            if entry[3]._resolved:
                continue
            if entry[2] <= now:
                picked = entry
                break
            deferred.append(entry)
        for entry in deferred:
            heapq.heappush(self._pending, entry)
        earliest = min((e[2] for e in deferred), default=None)
        return picked, earliest

    def _send(self, job: Job, worker: str, token: int) -> None:
        job.attempts += 1
        job.worker = worker
        started = time.monotonic()
        try:
            faults.check("fleet.send", worker=worker, route=job.route)
            doc = answer(job.route, *self._clients[worker].request_ex(
                "POST", job.route, job.payload
            ))
        except ServiceError as exc:
            if exc.status in _RETRYABLE_STATUSES:
                self._after_send(job, worker, started, token, error=exc)
            else:
                self._after_send(job, worker, started, token, fatal=exc)
            return
        except (OSError, faults.FaultError) as exc:
            self._after_send(job, worker, started, token, error=exc)
            return
        self._after_send(job, worker, started, token, result=doc)

    def _after_send(
        self,
        job: Job,
        worker: str,
        started: float,
        token: int,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[BaseException] = None,
        fatal: Optional[BaseException] = None,
    ) -> None:
        seconds = time.monotonic() - started
        registry = get_registry()
        requeued = False
        superseded = False
        with self._wake:
            self._in_flight[worker] -= 1
            current = self._assigned[worker].get(id(job))
            superseded = current is None or current[1] != token
            if not superseded:
                del self._assigned[worker][id(job)]
                if error is not None and self.retry.retries_left(job.attempts):
                    # A worker that named its price (503 Retry-After
                    # from an open circuit) is honored over backoff.
                    delay = self.retry.delay(
                        job.attempts,
                        error.retry_after
                        if isinstance(error, ServiceError) else None,
                    )
                    self._requeues += 1
                    requeued = True
                    heapq.heappush(
                        self._pending,
                        (-int(job.priority or 0), next(self._seq),
                         time.monotonic() + delay, job),
                    )
                elif error is None and fatal is None:
                    self._completed += 1
                else:
                    self._errors += 1
            self._wake.notify()
        # Resolve the job before any telemetry: a metrics/journal
        # hiccup must never leave a caller waiting on the future.
        if superseded:
            # An ejection re-planned this job while the send was in
            # the air; its failure was accounted for then. A straggler
            # that actually *finished* the work still gets to resolve
            # the job — exactly-once claiming makes the race harmless,
            # and the re-planned pending copy is discarded by
            # ``_next_ready`` once the future is seen resolved.
            outcome = "superseded"
            if result is not None and job._succeed(result):
                outcome = "ok"
                with self._lock:
                    self._completed += 1
        else:
            outcome = (
                "ok" if result is not None
                else "requeued" if requeued
                else "error"
            )
            if result is not None:
                job._succeed(result)
            elif requeued:
                pass  # the poller will try again after the delay
            elif fatal is not None:
                job._fail(fatal)
            else:
                assert error is not None
                job._fail(error)
        registry.histogram(
            "repro_fleet_dispatch_seconds",
            "Wall time of one fleet send (submit to response)",
        ).observe(seconds, worker=worker, route=job.route)
        registry.counter(
            "repro_fleet_jobs_total", "Fleet jobs by outcome"
        ).inc(worker=worker, route=job.route, outcome=outcome)
        for spec in self.workers:
            registry.gauge(
                "repro_fleet_worker_inflight",
                "Jobs currently executing on each fleet worker",
            ).set(self._in_flight[spec.name], worker=spec.name)
        obs.emit(
            "fleet.dispatch", job.job_id,
            route=job.route, worker=worker, outcome=outcome,
            seconds=seconds, attempt=job.attempts,
        )
        # Passive health signal, after all books are settled: the
        # monitor's eject hook takes the dispatcher lock, so it must
        # not run while this thread holds it.
        monitor = self._monitor
        if monitor is not None:
            if error is None:
                alive = True  # a real response, success or fatal status
            elif isinstance(error, ServiceError) and error.status == 429:
                alive = True  # saturated is busy, not sick: it answered
            else:
                alive = False  # connection loss, injected fault, or 503
            monitor.record_send(worker, alive)

    # -- health integration ------------------------------------------------

    def _probe_worker(self, spec: WorkerSpec) -> None:
        """Active probe: GET the worker's /healthz, drain-aware.

        A worker that answers but reports a non-``ok`` status (e.g.
        ``draining`` during graceful shutdown) counts as unhealthy —
        it is about to 503 real jobs anyway, so stop routing to it
        now instead of flapping through its drain window.
        """
        doc = self._probe_clients[spec.name].healthz()
        reported = doc.get("status", "ok")
        if reported != "ok":
            raise ServiceError(503, f"worker reports {reported!r}", doc)

    def _eject_worker(self, worker: str) -> None:
        """Eject hook: re-plan everything in flight on that worker.

        The straggler sends themselves cannot be recalled (an HTTP
        read has no abort), but their assignment tokens are
        invalidated so whatever they report is ignored — except a
        late *success*, which still resolves the job exactly once.
        """
        requeued: List[Job] = []
        with self._wake:
            if self._closed:
                return
            orphans = list(self._assigned[worker].values())
            self._assigned[worker].clear()
            for job, _token in orphans:
                if job._resolved:
                    continue
                self._requeues += 1
                heapq.heappush(
                    self._pending,
                    (-int(job.priority or 0), next(self._seq), 0.0, job),
                )
                requeued.append(job)
            if requeued:
                self._wake.notify()
        for job in requeued:
            obs.emit(
                "fleet.dispatch", job.job_id,
                route=job.route, worker=worker, outcome="requeued",
                reason="worker-ejected", attempt=job.attempts,
            )

    def _readmit_worker(self, worker: str) -> None:
        """Readmit hook: a worker came back — wake the poller."""
        with self._wake:
            self._wake.notify()
