"""The asynchronous serving daemon: embed/recognize over HTTP.

A long-lived, zero-dependency fingerprinting service on top of the
persistent artifact store. The network face is a minimal HTTP/1.1
server written directly against ``asyncio.start_server`` (no
``http.server``, no third-party framework): one coroutine per
connection, request line + headers + ``Content-Length`` body, one
response, close. That is the entire protocol surface a fingerprinting
API needs, and it keeps the daemon importable anywhere the library is.

Requests never execute on the event loop. The daemon holds one
:class:`~repro.serve.dispatch.Dispatcher` — a ``LocalDispatcher``
over its own worker pool, or a ``FleetDispatcher`` over worker
daemons when ``ServerConfig.fleet`` is set — and every embed and
recognize takes one path through it: validate, submit a ``Job``,
await it, map a failure to its status, build the response. Admission
(``429``), circuit breaking, timeouts (``504``) and worker-death
retry belong to the local dispatcher (:mod:`repro.serve.dispatch`).

The daemon keeps request validation (a ``400`` never costs a job),
the rebalance gate (``503`` while a fabric shard moves), graceful
drain — ``SIGTERM`` (or :meth:`WatermarkService.shutdown`) refuses
new jobs with ``503`` + ``Retry-After``, ``/healthz`` reports
``"draining"``, and in-flight jobs get ``drain_timeout`` seconds
before the dispatcher closes — and observability: every request opens
an ``http.request`` span (worker-side spans are grafted under it),
increments ``repro_http_requests_total{route,method,status}`` and
observes the span's duration into ``repro_http_request_seconds{route}``,
visible at ``GET /metrics``.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import signal
import sys
import threading
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from .. import faults, obs
from ..codec import CodecError, resolve_codec
from ..obs.journal import HubConfig, TelemetryHub
from ..obs.metrics import DEFAULT_LATENCY_BUCKETS, Counter, Gauge, Histogram
from ..obs.slo import SLOEngine, load_objectives
from ..obs.spans import render_span_tree
from ..pipeline.batch import CopySpec
from ..pipeline.manifest import parse_watermark
from .client import ServiceError
from .dispatch import (
    DispatchError,
    Dispatcher,
    FleetDispatcher,
    Job,
    LocalDispatcher,
    load_workers,
)
from .fabric import ShardedArtifactStore, open_store
from .store import StoreError

#: The service surface: ``(method, path) -> description``. The docs
#: snippet checker validates walkthrough ``curl`` commands against
#: this table, so docs and daemon cannot drift apart silently.
ROUTES: Dict[Tuple[str, str], str] = {
    ("GET", "/healthz"): "liveness, store size, queue occupancy, SLO verdict",
    ("GET", "/metrics"): "Prometheus text exposition of the registry",
    ("GET", "/v1/artifacts"): "list stored prepared-program artifacts",
    ("GET", "/v1/obs/events"): "telemetry ring tail (kind/route filters)",
    ("GET", "/v1/obs/slo"): "current service-level objective status",
    ("GET", "/v1/obs/spans"): "recent trace trees from the span ring",
    ("POST", "/v1/embed"): "mint one fingerprinted copy from an artifact",
    ("POST", "/v1/recognize"): "recover a mark against an artifact's key",
    ("POST", "/v1/store/rebalance"):
        "add/remove a fabric shard online (admission pauses briefly)",
}

_REASONS: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_MAX_BODY_BYTES = 16 * 1024 * 1024
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class BadRequest(DispatchError):
    """A request the daemon itself refuses: malformed, oversized, or
    arriving while it drains or rebalances.

    Like the dispatcher's own refusals it carries the status code, and
    ``retry_after`` (seconds) becomes a ``Retry-After`` header.
    """


@dataclass
class Request:
    """One parsed HTTP request.

    ``query`` holds the decoded query string (first value per key) —
    the ``/v1/obs/*`` routes take their filters there.
    """

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes
    query: Dict[str, str] = field(default_factory=dict)

    def int_param(self, name: str, default: int) -> int:
        """A non-negative integer query parameter (400 otherwise)."""
        value = self.query.get(name)
        if value is None:
            return default
        if not value.isdecimal():
            raise BadRequest(
                400, f"query parameter {name!r} must be a non-negative "
                "integer"
            )
        return int(value)

    def json(self) -> Dict[str, Any]:
        try:
            doc = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(400, f"request body is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise BadRequest(400, "request body must be a JSON object")
        return doc


@dataclass
class Response:
    """One HTTP response, ready to serialize."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            "Connection: close",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("ascii") + self.body


def json_response(
    status: int,
    doc: Dict[str, Any],
    headers: Optional[Dict[str, str]] = None,
) -> Response:
    body = (json.dumps(doc, sort_keys=True) + "\n").encode()
    return Response(status, body, headers=dict(headers or {}))


def error_response(
    status: int, message: str, headers: Optional[Dict[str, str]] = None
) -> Response:
    return json_response(status, {"error": message}, headers)


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`BadRequest` for protocol violations (which the
    connection handler turns into 4xx responses).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client closed without sending a request
        raise BadRequest(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise BadRequest(431, "request head too large") from exc

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(400, f"malformed request line {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    path, _, query_text = target.partition("?")
    path = path or "/"
    query = {
        key: values[0]
        for key, values in urllib.parse.parse_qs(query_text).items()
    }

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise BadRequest(400, f"malformed header line {line!r}")
        name, value = line.split(":", 1)
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError as exc:
            raise BadRequest(400, "bad Content-Length") from exc
        if length < 0:
            raise BadRequest(400, "bad Content-Length")
        if length > _MAX_BODY_BYTES:
            raise BadRequest(413, "request body too large")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise BadRequest(400, "truncated request body") from exc
    return Request(method=method, path=path, headers=headers, body=body,
                   query=query)


def _parse_codec_field(doc: Dict[str, Any]) -> Optional[str]:
    """Validate an optional per-request ``codec`` override.

    Returns the normalized spec string, or ``None`` when the request
    leaves the choice to the artifact.
    """
    value = doc.get("codec")
    if value is None:
        return None
    if not isinstance(value, str):
        raise BadRequest(400, "'codec' must be a string")
    try:
        return resolve_codec(value).spec
    except CodecError as exc:
        raise BadRequest(400, str(exc)) from None


@dataclass
class ServerConfig:
    """Everything one serving daemon needs to know."""

    store_root: str
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read the bound port off the service
    workers: int = 2
    queue_depth: int = 8
    request_timeout: float = 60.0
    executor: str = "process"  # or "thread"
    self_check: bool = True
    #: Consecutive worker-job failures before a route's circuit opens.
    circuit_threshold: int = 5
    #: Seconds an open circuit waits before its half-open probe.
    circuit_reset: float = 30.0
    #: Seconds a graceful shutdown waits for in-flight jobs.
    drain_timeout: float = 10.0
    #: Directory for the telemetry journal (``journal.jsonl`` plus
    #: rotated segments). ``None`` keeps telemetry in-memory only.
    journal_dir: Optional[str] = None
    #: Path to a declarative SLO spec (JSON); ``None`` uses the
    #: default objective set.
    slo_spec: Optional[str] = None
    #: Path to a ``workers.json`` fleet file. When set, this daemon is
    #: a front-end router: its dispatcher is a
    #: :class:`~repro.serve.dispatch.FleetDispatcher` over the listed
    #: worker daemons instead of a local pool. ``None`` runs jobs
    #: locally.
    fleet: Optional[str] = None
    #: Fleet front-end backlog bound: pending jobs beyond this are
    #: load-shed by route priority (503 + Retry-After).
    fleet_max_pending: int = 256

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be non-negative")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.executor not in ("process", "thread"):
            raise ValueError("executor must be 'process' or 'thread'")
        if self.circuit_threshold < 1:
            raise ValueError("circuit_threshold must be positive")
        if self.circuit_reset <= 0:
            raise ValueError("circuit_reset must be positive")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be non-negative")
        if self.fleet_max_pending < 1:
            raise ValueError("fleet_max_pending must be positive")


class WatermarkService:
    """The daemon: an artifact store behind an asyncio HTTP front."""

    def __init__(self, config: ServerConfig):
        self.config = config
        # A plain store or a sharded fabric — the factory routes either
        # way, and both expose the record/resolve/records surface the
        # handlers use.
        self.store = open_store(config.store_root)
        self.port = config.port
        self._fleet_specs = (
            load_workers(config.fleet) if config.fleet else None
        )
        #: The one dispatcher every embed and recognize goes through;
        #: it exists between :meth:`start` and :meth:`stop`.
        self.dispatcher: Optional[Dispatcher] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._rebalancing = False
        #: One handler per routed path; every handler takes the request.
        self._handlers = {
            "/healthz": self._handle_healthz,
            "/metrics": self._handle_metrics,
            "/v1/artifacts": self._handle_artifacts,
            "/v1/obs/events": self._handle_obs_events,
            "/v1/obs/spans": self._handle_obs_spans,
            "/v1/obs/slo": self._handle_obs_slo,
            "/v1/embed": self._handle_embed,
            "/v1/recognize": self._handle_recognize,
            "/v1/store/rebalance": self._handle_rebalance,
        }
        registry = obs.get_registry()
        self._requests: Counter = registry.counter(
            "repro_http_requests_total", "HTTP requests served"
        )
        self._latency: Histogram = registry.histogram(
            "repro_http_request_seconds",
            "HTTP request wall time",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._inflight_gauge: Gauge = registry.gauge(
            "repro_http_inflight",
            "Requests currently admitted (sampled at scrape time)",
        )
        self._capacity_gauge: Gauge = registry.gauge(
            "repro_http_inflight_capacity",
            "Admission ceiling: workers + queue depth",
        )
        self._queue_gauge: Gauge = registry.gauge(
            "repro_http_queue_depth",
            "Admitted requests waiting beyond the worker pool",
        )
        self._journal_gauge: Gauge = registry.gauge(
            "repro_obs_journal_bytes",
            "Active telemetry journal segment size",
        )
        # Before the hub: a bad SLO spec must not leave one installed.
        self.slo = SLOEngine(
            load_objectives(config.slo_spec)
            if config.slo_spec else None
        )
        # The telemetry hub: reuse an ambient one (a test or an
        # embedding app may have installed its own journal), else
        # install one — journal-backed when the config names a
        # directory, ring-only otherwise — so the /v1/obs/* routes
        # always have something to serve. Only a hub installed here is
        # the service's to close on stop().
        hub = obs.get_hub()
        self._owns_hub = hub is None
        if hub is None:
            journal_path = (
                os.path.join(config.journal_dir, "journal.jsonl")
                if config.journal_dir else None
            )
            hub = TelemetryHub(HubConfig(journal_path=journal_path))
            obs.set_hub(hub)
        self.hub: TelemetryHub = hub

    # -- lifecycle ---------------------------------------------------------

    def _make_dispatcher(self) -> Dispatcher:
        config = self.config
        if self._fleet_specs is not None:
            return FleetDispatcher(
                self._fleet_specs,
                request_timeout=config.request_timeout,
                max_pending=config.fleet_max_pending,
            )
        return LocalDispatcher(
            config.store_root,
            workers=config.workers,
            executor=config.executor,
            queue_depth=config.queue_depth,
            request_timeout=config.request_timeout,
            circuit_threshold=config.circuit_threshold,
            circuit_reset=config.circuit_reset,
        )

    async def start(self) -> None:
        """Start the dispatcher and bind the listening socket."""
        self.dispatcher = self._make_dispatcher()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() was not awaited"
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.dispatcher is not None:
            self.dispatcher.close()
            self.dispatcher = None
        if self._owns_hub:
            if obs.get_hub() is self.hub:
                obs.set_hub(None)
            self.hub.close()

    async def shutdown(self) -> None:
        """Graceful drain, then stop.

        New jobs are refused with ``503`` + ``Retry-After`` the moment
        this is called (``/healthz`` flips to ``"draining"``); jobs
        already in flight (local jobs and fleet forwards alike) get up
        to ``drain_timeout`` seconds to finish before the dispatcher is
        closed; a straggler cancelled at the deadline reports ``503``
        rather than vanishing.
        """
        self._draining = True
        if self.dispatcher is not None:
            await asyncio.to_thread(
                self.dispatcher.drain, self.config.drain_timeout
            )
        await self.stop()

    async def run(self) -> None:
        """start + serve until cancelled, then tear down."""
        await self.start()
        try:
            await self.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        route = "unmatched"
        try:
            try:
                request = await read_request(reader)
            except BadRequest as exc:
                response = error_response(exc.status, str(exc))
            else:
                if request is None:
                    return
                route = (
                    request.path if request.path in self._handlers
                    else "unmatched"
                )
                with obs.span(
                    "http.request", method=request.method, path=request.path
                ) as sp:
                    response = await self._dispatch(request)
                    sp.set(status=response.status)
                elapsed = sp.duration
                self._latency.observe(elapsed, route=route)
                self._requests.inc(
                    route=route,
                    method=request.method,
                    status=str(response.status),
                )
                self.hub.emit(
                    "http.request",
                    route,
                    route=route,
                    method=request.method,
                    status=response.status,
                    seconds=elapsed,
                )
            writer.write(response.encode())
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Request) -> Response:
        handler = self._handlers.get(request.path)
        if handler is None:
            return error_response(404, f"no route {request.path!r}")
        if (request.method, request.path) not in ROUTES:
            return error_response(
                405, f"{request.method} not supported on {request.path}"
            )
        try:
            response = await handler(request)
        except DispatchError as exc:  # BadRequest is one too
            headers = None
            if exc.retry_after is not None:
                headers = {
                    "Retry-After": f"{max(1, round(exc.retry_after))}"
                }
            response = error_response(exc.status, str(exc), headers)
        except ServiceError as exc:
            # A fleet worker's own error answer, mirrored whole.
            response = json_response(
                exc.status, exc.doc or {"error": exc.message}
            )
        except StoreError as exc:
            response = error_response(404, str(exc))
        except Exception as exc:  # the daemon must outlive any request
            response = error_response(
                500, f"{type(exc).__name__}: {exc}"
            )
        return response

    # -- cheap, loop-local endpoints ---------------------------------------

    def _dispatch_stats(self) -> Dict[str, Any]:
        """A fleet front-end runs no local jobs: no in-flight, capacity
        or circuits of its own."""
        assert self.dispatcher is not None, "service not started"
        return self.dispatcher.stats()

    async def _handle_healthz(self, request: Request) -> Response:
        slo = self.slo.report(self.hub.tail(limit=self.hub.config.ring_events))
        stats = self._dispatch_stats()
        body: Dict[str, Any] = {
            "status": "draining" if self._draining else "ok",
            "rebalancing": self._rebalancing,
            "artifacts": len(self.store),
            "inflight": stats.get("inflight", 0),
            "capacity": stats.get("capacity", 0),
            "workers": self.config.workers,
            "executor": self.config.executor,
            "circuits": stats.get("circuits", {}),
            "slo": {
                "met": slo["met"],
                "breached": slo["breached"],
                "max_burn_rate": slo["max_burn_rate"],
            },
        }
        if stats["mode"] == "fleet":
            body["fleet"] = stats
        return json_response(200, body)

    def _sample_gauges(self) -> None:
        """Refresh live-state gauges so a scrape sees *now*, not the
        last time a request happened to update them."""
        stats = self._dispatch_stats()
        inflight = stats.get("inflight", 0)
        self._inflight_gauge.set(inflight)
        self._capacity_gauge.set(stats.get("capacity", 0))
        self._queue_gauge.set(max(0, inflight - self.config.workers))
        self._journal_gauge.set(self.hub.journal_bytes())

    async def _handle_metrics(self, request: Request) -> Response:
        self._sample_gauges()
        text = obs.get_registry().to_prometheus()
        return Response(
            200, text.encode(), content_type=_PROMETHEUS_CONTENT_TYPE
        )

    async def _handle_obs_events(self, request: Request) -> Response:
        limit = request.int_param("limit", 100)
        events = self.hub.tail(
            limit=limit,
            kind=request.query.get("kind"),
            name=request.query.get("name"),
            route=request.query.get("route"),
        )
        return json_response(
            200,
            {
                "count": len(events),
                "emitted_total": self.hub.emitted,
                "events": [e.to_dict() for e in events],
            },
        )

    async def _handle_obs_spans(self, request: Request) -> Response:
        limit = request.int_param("limit", 10)
        traces = []
        for trace_id, spans in self.hub.recent_traces(limit=limit):
            traces.append({
                "trace_id": trace_id,
                "spans": [sp.to_dict() for sp in spans],
                "tree": render_span_tree(spans),
            })
        return json_response(200, {"traces": traces})

    async def _handle_obs_slo(self, request: Request) -> Response:
        report = self.slo.report(
            self.hub.tail(limit=self.hub.config.ring_events)
        )
        return json_response(200, report)

    async def _handle_artifacts(self, request: Request) -> Response:
        self.store.refresh()
        return json_response(
            200,
            {"artifacts": [r.to_dict() for r in self.store.records()]},
        )

    # -- online store rebalancing ------------------------------------------

    def _admission_gate(self) -> None:
        """Pause embed/recognize admission while a shard moves.

        The fabric's adopt-then-evict moves are crash-safe, but a
        request resolving a digest mid-move could see the ring in
        transition; a brief 503 + Retry-After is cheaper than a
        spurious 404.
        """
        if self._rebalancing:
            raise BadRequest(
                503, "store rebalance in progress; admission paused",
                retry_after=2.0,
            )

    async def _handle_rebalance(self, request: Request) -> Response:
        """Online ``add_shard``/``remove_shard`` behind the daemon.

        Admission pauses for the duration (the fabric's adopt-then-
        evict already makes the move itself crash-safe); obs routes
        and ``/healthz`` stay live so the move is observable.
        """
        doc = request.json()
        action = doc.get("action")
        if action not in ("add-shard", "remove-shard"):
            raise BadRequest(
                400, "'action' must be 'add-shard' or 'remove-shard'"
            )
        shard = doc.get("shard")
        if shard is not None and not isinstance(shard, str):
            raise BadRequest(400, "'shard' must be a string when given")
        if action == "remove-shard" and not shard:
            raise BadRequest(400, "remove-shard requires 'shard'")
        if not isinstance(self.store, ShardedArtifactStore):
            raise BadRequest(
                400, "store is a plain directory, not a sharded fabric"
            )
        if self._rebalancing:
            raise BadRequest(
                409, "a rebalance is already in progress", retry_after=2.0,
            )
        fabric = self.store
        if action == "add-shard":
            work = functools.partial(fabric.add_shard, shard)
        else:
            work = functools.partial(fabric.remove_shard, str(shard))
        self._rebalancing = True
        try:
            report = await asyncio.get_running_loop().run_in_executor(
                None, work
            )
        except (StoreError, ValueError) as exc:
            # A bad membership change (duplicate shard, last shard) is
            # the caller's error, not a missing resource: 400, not the
            # generic StoreError->404 mapping upstream.
            raise BadRequest(400, str(exc)) from None
        finally:
            self._rebalancing = False
        self.hub.emit(
            "store.rebalance",
            shard or "auto",
            action=action,
            moved=len(report.moved),
            kept=report.kept,
            shards=len(fabric.shard_names),
        )
        return json_response(200, {
            "action": action,
            "report": report.to_dict(),
            "shards": fabric.shard_names,
        })

    # -- job endpoints -----------------------------------------------------

    def _resolve_artifact(self, doc: Dict[str, Any]) -> str:
        ref = doc.get("artifact")
        if not isinstance(ref, str) or not ref:
            raise BadRequest(400, "'artifact' (digest string) is required")
        self.store.refresh()
        return self.store.resolve(ref)  # StoreError -> 404 upstream

    async def _run(
        self, route: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Submit one *validated* job unless draining; await its body.

        Failures arrive as :class:`DispatchError` or, from a fleet
        worker, :class:`ServiceError` (both mapped in :meth:`_dispatch`);
        a fleet that cannot reach a worker at all is a 502.
        """
        if self._draining:
            raise BadRequest(
                503, "server is draining",
                retry_after=self.config.drain_timeout,
            )
        assert self.dispatcher is not None, "service not started"
        future = self.dispatcher.submit(Job(route=route, payload=payload))
        try:
            return await asyncio.wrap_future(future)
        except (OSError, faults.FaultError) as exc:
            raise BadRequest(
                502, f"fleet worker unreachable: {exc}"
            ) from None

    async def _handle_embed(self, request: Request) -> Response:
        self._admission_gate()
        doc = request.json()
        digest = self._resolve_artifact(doc)
        record = self.store.record(digest)
        copy_id = doc.get("copy_id")
        if not isinstance(copy_id, str):
            raise BadRequest(400, "'copy_id' (string) is required")
        if "watermark" not in doc:
            raise BadRequest(400, "'watermark' is required")
        seed = doc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise BadRequest(400, "'seed' must be an integer")
        self_check = doc.get("self_check", self.config.self_check)
        if not isinstance(self_check, bool):
            raise BadRequest(400, "'self_check' must be a boolean")
        try:  # the manifest's watermark shapes: int or '0x..' string
            watermark = parse_watermark(doc["watermark"])
            CopySpec(copy_id=copy_id, watermark=watermark, seed=seed)
        except ValueError as exc:
            raise BadRequest(400, str(exc)) from None
        if watermark >= (1 << record.watermark_bits):
            raise BadRequest(
                400,
                f"watermark {watermark:#x} does not fit the artifact's "
                f"{record.watermark_bits}-bit fingerprint width",
            )
        codec = _parse_codec_field(doc)
        payload: Dict[str, Any] = {
            "artifact": digest,
            "copy_id": copy_id,
            "watermark": watermark,
            "seed": seed,
            "self_check": self_check,
        }
        if codec is not None:
            payload["codec"] = codec
        body = await self._run("/v1/embed", payload)
        body["codec"] = codec or record.codec
        self.hub.emit(
            "embed",
            copy_id,
            artifact=digest,
            ok=bool(body["ok"]),
            verified=bool(body["verified"]),
            wall_seconds=body["wall_seconds"],
        )
        return json_response(500 if "error" in body else 200, body)

    async def _handle_recognize(self, request: Request) -> Response:
        self._admission_gate()
        doc = request.json()
        digest = self._resolve_artifact(doc)
        module_text = doc.get("module")
        if not isinstance(module_text, str) or not module_text.strip():
            raise BadRequest(
                400, "'module' (WVM assembly text) is required"
            )
        codec = _parse_codec_field(doc)
        payload: Dict[str, Any] = {"artifact": digest, "module": module_text}
        if codec is not None:
            payload["codec"] = codec
        body = await self._run("/v1/recognize", payload)
        body["artifact"] = digest
        complete = bool(body.get("complete"))
        self.hub.emit(
            "recognize",
            digest,
            artifact=digest,
            complete=complete,
            watermark=body.get("watermark"),
        )
        return json_response(200 if complete else 422, body)


class ServerThread:
    """Run a :class:`WatermarkService` on a background thread.

    The bridge between the daemon's asyncio world and synchronous
    callers (tests, notebooks, embedding the service inside another
    app). ``start()`` returns once the socket is bound — the bound
    port is ``service.port`` — and ``stop()`` tears the loop down.
    Usable as a context manager.
    """

    def __init__(self, config: ServerConfig):
        self.service = WatermarkService(config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def base_url(self) -> str:
        return f"http://{self.service.config.host}:{self.service.port}"

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise RuntimeError(
                f"daemon failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.service.start())
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.service.stop())
            loop.close()

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._loop = None
            self._thread = None

    def shutdown(self) -> None:
        """Gracefully drain in-flight jobs, then stop the loop.

        The synchronous face of :meth:`WatermarkService.shutdown`:
        returns once the drain completed (or its deadline passed) and
        the background loop has exited.
        """
        if self._loop is not None and self._thread is not None:
            future = asyncio.run_coroutine_threadsafe(
                self.service.shutdown(), self._loop
            )
            future.result(
                timeout=self.service.config.drain_timeout + 30
            )
        self.stop()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve(config: ServerConfig, announce: bool = True) -> None:
    """Blocking entry point for the CLI: run until interrupted.

    ``SIGTERM`` (the fleet manager's stop signal) triggers a graceful
    drain — in-flight jobs get ``drain_timeout`` seconds to finish
    while new work is refused — where Ctrl-C still tears down
    immediately.
    """
    service = WatermarkService(config)

    async def main() -> None:
        await service.start()
        if announce:
            print(
                f"serving {len(service.store)} artifact(s) on "
                f"http://{config.host}:{service.port} "
                f"({config.workers} {config.executor} worker(s), "
                f"queue depth {config.queue_depth})",
                file=sys.stderr,
            )
        loop = asyncio.get_running_loop()
        terminated = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, terminated.set)
        except (NotImplementedError, RuntimeError):
            pass  # platform without signal handlers: hard stop only
        serve_task = asyncio.create_task(service.serve_forever())
        stop_task = asyncio.create_task(terminated.wait())
        await asyncio.wait(
            {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if terminated.is_set():
            if announce:
                print("SIGTERM: draining in-flight jobs", file=sys.stderr)
            serve_task.cancel()
            await service.shutdown()
        for task in (serve_task, stop_task):
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
