"""Fingerprinting as a service: durable artifacts + an async daemon.

The paper's schemes are operational workflows — a vendor embeds one
mark per distributed copy and recognizes marks in suspect binaries,
continuously, per release. This package turns the library into that
service:

* :mod:`repro.serve.store` — a content-addressed, integrity-checked
  on-disk store of :class:`~repro.pipeline.prepare.PreparedProgram`
  artifacts, so the heavy watermark-independent preparation is paid
  once per *(program, key)* release and survives process restarts;
* :mod:`repro.serve.daemon` — a zero-dependency asyncio HTTP daemon
  (``POST /v1/embed``, ``POST /v1/recognize``, ``GET /healthz``,
  ``GET /metrics``) that validates requests and hands every embed and
  recognize to its one dispatcher, with graceful SIGTERM drain and
  per-request spans + Prometheus metrics;
* :mod:`repro.serve.circuit` — the consecutive-failure
  :class:`CircuitBreaker` state machine behind the local routes and
  the fleet's worker health;
* :mod:`repro.serve.client` — a stdlib :class:`ServiceClient` that
  honors the daemon's ``Retry-After`` backpressure with the shared
  :class:`~repro.faults.retry.RetryPolicy` backoff;
* :mod:`repro.serve.fabric` — the scale-out store: a
  :class:`ShardedArtifactStore` consistent-hashing releases over N
  hardened shard roots, with minimal-movement rebalancing and the
  :func:`open_store` factory that makes fabrics and plain stores
  interchangeable;
* :mod:`repro.serve.dispatch` — the job dispatch behind the daemon:
  this process's own pool (:class:`LocalDispatcher`, with
  bounded-queue backpressure, per-request timeouts, retry-once on
  worker death and per-route circuit breakers) or a
  :class:`FleetDispatcher` routing to N worker daemons with bounded
  in-flight, requeue-on-loss, priority load-shed, and a
  :class:`HealthMonitor` that probes, ejects, and readmits workers.

Typical use::

    from repro.serve import ArtifactStore, ServerConfig, serve

    store = ArtifactStore("store/")
    record = store.put(prepared)          # or: repro artifact prepare
    serve(ServerConfig(store_root="store/", port=8765, workers=4))

See ``docs/serving.md`` for the HTTP API and an end-to-end
walkthrough.
"""

from .circuit import CircuitBreaker
from .client import ServiceClient, ServiceError
from .daemon import (
    ROUTES,
    Request,
    Response,
    ServerConfig,
    ServerThread,
    WatermarkService,
    serve,
)
from .dispatch import (
    Dispatcher,
    DispatchError,
    DispatchOverload,
    FleetDispatcher,
    HealthMonitor,
    Job,
    LocalDispatcher,
    WorkerSpec,
    load_workers,
)
from .fabric import (
    HashRing,
    RebalanceReport,
    ShardedArtifactStore,
    is_fabric,
    open_store,
)
from .store import (
    ArtifactRecord,
    ArtifactStore,
    QuarantineRecord,
    StoreError,
)

__all__ = [
    "ArtifactRecord",
    "ArtifactStore",
    "CircuitBreaker",
    "Dispatcher",
    "DispatchError",
    "DispatchOverload",
    "FleetDispatcher",
    "HashRing",
    "HealthMonitor",
    "Job",
    "LocalDispatcher",
    "QuarantineRecord",
    "ROUTES",
    "RebalanceReport",
    "Request",
    "Response",
    "ServerConfig",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "ShardedArtifactStore",
    "StoreError",
    "WatermarkService",
    "WorkerSpec",
    "is_fabric",
    "load_workers",
    "open_store",
    "serve",
]
