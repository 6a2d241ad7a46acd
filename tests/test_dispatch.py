"""Tests for the job dispatch layer (`repro.serve.dispatch`).

The fleet dispatcher's claims — bounded in-flight per worker, requeue
on worker loss, load-shed by route priority, Retry-After honored over
private backoff — are exercised against stub HTTP workers so the
tests assert on dispatch behaviour, not embedding speed.
"""

import collections
import json
import random
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import faults, obs
from repro.bytecode_wm.keys import WatermarkKey
from repro.faults import FaultPlan, FaultRule
from repro.faults.retry import RetryPolicy
from repro.obs.journal import HubConfig, TelemetryHub
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import prepare
from repro.serve import dispatch as dispatch_module
from repro.serve.client import ServiceClient, ServiceError
from repro.serve.dispatch import (
    WORKER_EJECTED,
    WORKER_HEALTHY,
    WORKER_PROBING,
    WORKER_STATE_CODES,
    WORKER_SUSPECT,
    DispatchOverload,
    FleetDispatcher,
    HealthMonitor,
    Job,
    LocalDispatcher,
    WorkerSpec,
    load_workers,
)
from repro.serve.store import ArtifactStore
from repro.workloads import gcd_module

KEY = WatermarkKey(secret=b"dispatch-key", inputs=[25, 10])


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    previous = obs.set_registry(MetricsRegistry())
    # The dispatcher must work with *no* hub installed: a regression
    # guard for the bug where telemetry on the no-hub path crashed the
    # send thread and starved caller futures.
    hub = obs.set_hub(None)
    yield
    obs.set_hub(hub)
    obs.set_registry(previous)


# ---------------------------------------------------------------------------
# Stub workers: an HTTP daemon whose behaviour the test scripts
# ---------------------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length) or b"{}")
        status, doc, headers = self.server.stub.respond(self.path, payload)
        self._reply(status, doc, headers)

    def do_GET(self):  # noqa: N802 (http.server API)
        status, doc, headers = self.server.stub.respond_get(self.path)
        self._reply(status, doc, headers)

    def _reply(self, status, doc, headers):
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class StubWorker:
    """A scriptable stand-in for a fleet worker daemon.

    Responses come from ``scripted`` (a deque of ``(status, doc,
    headers)``, popped per request) and fall back to a 200 echo.
    ``gate`` (when set) blocks every POST until released, and the
    ``max_active`` high-water mark records true concurrency. Health
    probes (GET /healthz) bypass the gate and answer from the
    ``healthy`` flag, so a test can script probe verdicts while real
    sends stay blocked.
    """

    def __init__(self):
        self.scripted = collections.deque()
        self.requests = []
        self.gate = None
        self.healthy = True
        self.probes = 0
        self.max_active = 0
        self._active = 0
        self._lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self._server.stub = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()

    @property
    def url(self):
        return f"http://127.0.0.1:{self._server.server_address[1]}"

    def respond(self, path, payload):
        with self._lock:
            self.requests.append((path, payload))
            self._active += 1
            self.max_active = max(self.max_active, self._active)
        try:
            if self.gate is not None:
                self.gate.wait(timeout=10.0)
            with self._lock:
                if self.scripted:
                    return self.scripted.popleft()
            return 200, {"echo": payload, "path": path}, {}
        finally:
            with self._lock:
                self._active -= 1

    def respond_get(self, path):
        with self._lock:
            self.probes += 1
            if self.healthy:
                return 200, {"status": "ok"}, {}
            return 503, {"status": "draining", "error": "draining"}, {}

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)


@pytest.fixture()
def stub():
    worker = StubWorker()
    yield worker
    worker.close()


def _dead_url():
    """A URL nothing listens on (bound once to pick a free port)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}"


def _fast_retry(attempts=3):
    return RetryPolicy(max_attempts=attempts, base_delay=0.01,
                       max_delay=0.05, jitter=0.0, seed=7)


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


# ---------------------------------------------------------------------------
# LocalDispatcher: the in-process pool behind the protocol
# ---------------------------------------------------------------------------


class TestLocalDispatcher:
    def test_embed_then_recognize_roundtrip(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        record = store.put(prepare(gcd_module(), KEY, 16, 8))
        dispatcher = LocalDispatcher(store.root, workers=1)
        try:
            embed = dispatcher.submit(Job("/v1/embed", {
                "artifact": record.digest, "copy_id": "c0",
                "watermark": 5, "seed": 1,
            })).result(timeout=60)
            assert embed["ok"] and embed["copy_id"] == "c0"
            recog = dispatcher.submit(Job("/v1/recognize", {
                "artifact": record.digest, "module": embed["module"],
            })).result(timeout=60)
            assert recog["complete"] and recog["value"] == 5
            assert dispatcher.stats()["submitted"] == 2
        finally:
            dispatcher.close()

    def test_process_pool_roundtrip(self, tmp_path):
        """Jobs travel to a process pool as plain data: the dispatcher
        itself (locks, breakers, the pool) is never pickled."""
        store = ArtifactStore(str(tmp_path / "store"))
        record = store.put(prepare(gcd_module(), KEY, 16, 8))
        dispatcher = LocalDispatcher(
            store.root, workers=1, executor="process"
        )
        try:
            embed = dispatcher.submit(Job("/v1/embed", {
                "artifact": record.digest, "copy_id": "p0",
                "watermark": 9, "seed": 2,
            })).result(timeout=120)
            assert embed["verified"] and embed["recognized"] == 9
            recog = dispatcher.submit(Job("/v1/recognize", {
                "artifact": record.digest, "module": embed["module"],
            })).result(timeout=120)
            assert recog["complete"] and recog["value"] == 9
        finally:
            dispatcher.close()

    def test_books_balance_under_thread_contention(self, monkeypatch):
        """Submitters, pool callbacks and timeout timers race over the
        live set and the counters: admission never overbooks, every
        job settles exactly once, and the books return to empty."""

        def fake_recognize(store_root, digest, text, *rest):
            time.sleep(random.uniform(0.0, 0.004))
            return {"complete": True, "value": 1, "spans": []}

        monkeypatch.setattr(
            dispatch_module, "service_recognize", fake_recognize
        )
        dispatcher = LocalDispatcher(
            "unused", workers=4, queue_depth=4, request_timeout=0.006,
            circuit_threshold=10**6,
        )
        futures, overbooked = [], []
        lock = threading.Lock()

        def submitter():
            for _ in range(60):
                future = dispatcher.submit(Job(
                    "/v1/recognize", {"artifact": "d", "module": "m"}
                ))
                inflight = dispatcher.stats()["inflight"]
                with lock:
                    futures.append(future)
                    if inflight > dispatcher.capacity:
                        overbooked.append(inflight)
                time.sleep(random.uniform(0.0, 0.002))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submitter) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert dispatcher.drain(timeout=30)
            statuses = collections.Counter()
            for future in futures:
                exc = future.exception(timeout=30)
                statuses[200 if exc is None else exc.status] += 1
        finally:
            sys.setswitchinterval(interval)
            dispatcher.close()
        assert sum(statuses.values()) == 360
        assert set(statuses) <= {200, 429, 504}
        assert statuses[200] > 0 and statuses[429] > 0
        assert overbooked == []
        stats = dispatcher.stats()
        assert (stats["inflight"], stats["submitted"]) == (0, 360)
        # A shed job shows only in its future (the tally above): HTTP
        # requests are the daemon's to count, once each.
        requests = obs.get_registry().counter("repro_http_requests_total")
        assert list(requests.samples()) == []

    def test_unknown_route_fails_the_future(self, tmp_path):
        dispatcher = LocalDispatcher(str(tmp_path), workers=1)
        failures = []
        try:
            job = Job("/v1/nonsense", {},
                      on_error=lambda j, exc: failures.append(exc))
            with pytest.raises(ValueError, match="no local handler"):
                dispatcher.submit(job).result(timeout=10)
            assert len(failures) == 1
        finally:
            dispatcher.close()


# ---------------------------------------------------------------------------
# FleetDispatcher
# ---------------------------------------------------------------------------


class TestFleetDispatcher:
    def test_jobs_complete_and_callbacks_fire(self, stub):
        dispatcher = FleetDispatcher(
            [WorkerSpec("alpha", stub.url, capacity=2)],
            retry=_fast_retry(),
        )
        done = []
        try:
            futures = [
                dispatcher.submit(Job(
                    "/v1/embed", {"n": n},
                    on_success=lambda job, doc: done.append(doc["echo"]["n"]),
                ))
                for n in range(5)
            ]
            results = [f.result(timeout=10) for f in futures]
            assert sorted(d["echo"]["n"] for d in results) == list(range(5))
            assert sorted(done) == list(range(5))
            stats = dispatcher.stats()
            assert stats["completed"] == 5
            assert stats["errors"] == stats["shed"] == 0
            assert dispatcher.drain(timeout=5.0)
        finally:
            dispatcher.close()

    def test_in_flight_is_bounded_by_worker_capacity(self, stub):
        stub.gate = threading.Event()
        dispatcher = FleetDispatcher(
            [WorkerSpec("alpha", stub.url, capacity=2)],
            retry=_fast_retry(), poll_interval=0.01,
        )
        try:
            futures = [
                dispatcher.submit(Job("/v1/embed", {"n": n}))
                for n in range(5)
            ]
            # Two slots fill; the other three wait *here*, re-plannable.
            assert _wait_for(
                lambda: dispatcher.stats()["in_flight"]["alpha"] == 2
            )
            time.sleep(0.1)
            stats = dispatcher.stats()
            assert stats["in_flight"]["alpha"] == 2
            assert stats["pending"] == 3
            stub.gate.set()
            for future in futures:
                future.result(timeout=10)
            assert stub.max_active <= 2
        finally:
            stub.gate.set()
            dispatcher.close()

    def test_worker_loss_requeues_until_the_plan_relents(self, stub):
        # A pinned fault plan kills the first two sends; the requeue
        # machinery must carry the job to the third, which lands.
        plan = FaultPlan([
            FaultRule(site="fleet.send", action="raise", times=2),
        ], seed=11)
        dispatcher = FleetDispatcher(
            [WorkerSpec("alpha", stub.url, capacity=1)],
            retry=_fast_retry(attempts=4),
        )
        try:
            with faults.injected(plan):
                job = Job("/v1/embed", {"n": 0})
                doc = dispatcher.submit(job).result(timeout=10)
            assert doc["echo"] == {"n": 0}
            assert job.attempts == 3
            stats = dispatcher.stats()
            assert stats["requeues"] == 2
            assert stats["completed"] == 1
            assert stats["errors"] == 0
        finally:
            dispatcher.close()

    def test_exhausted_retries_surface_the_last_error(self, stub):
        plan = FaultPlan([
            FaultRule(site="fleet.send", action="raise", times=None),
        ], seed=11)
        dispatcher = FleetDispatcher(
            [WorkerSpec("alpha", stub.url, capacity=1)],
            retry=_fast_retry(attempts=3),
        )
        errors = []
        try:
            with faults.injected(plan):
                job = Job("/v1/embed", {"n": 0},
                          on_error=lambda j, exc: errors.append(exc))
                with pytest.raises(faults.FaultError):
                    dispatcher.submit(job).result(timeout=10)
            assert job.attempts == 3
            assert len(errors) == 1
            assert dispatcher.stats()["requeues"] == 2
        finally:
            dispatcher.close()

    def test_dead_worker_jobs_land_on_the_live_one(self, stub):
        # Overflow past the live worker's capacity spills onto the
        # dead one, fails fast, and requeues back to a live slot.
        stub.gate = threading.Event()
        dispatcher = FleetDispatcher(
            [WorkerSpec("live", stub.url, capacity=1),
             WorkerSpec("dead", _dead_url(), capacity=1)],
            retry=_fast_retry(attempts=8), poll_interval=0.01,
        )
        try:
            futures = [
                dispatcher.submit(Job("/v1/embed", {"n": n}))
                for n in range(3)
            ]
            assert _wait_for(
                lambda: dispatcher.stats()["requeues"] >= 1
            )
            stub.gate.set()
            results = [f.result(timeout=15) for f in futures]
            assert sorted(r["echo"]["n"] for r in results) == [0, 1, 2]
            stats = dispatcher.stats()
            assert stats["completed"] == 3
            # Every job that ultimately completed did so on the live
            # worker; the dead one only ever produced requeues.
            assert stats["requeues"] >= 1
        finally:
            stub.gate.set()
            dispatcher.close()

    def test_load_shed_evicts_lowest_priority_newest_first(self, stub):
        stub.gate = threading.Event()
        dispatcher = FleetDispatcher(
            [WorkerSpec("alpha", stub.url, capacity=1)],
            retry=_fast_retry(), poll_interval=0.01, max_pending=2,
        )
        try:
            blocked = dispatcher.submit(Job("/v1/embed", {"n": 0}))
            assert _wait_for(
                lambda: dispatcher.stats()["in_flight"]["alpha"] == 1
            )
            embed_old = dispatcher.submit(Job("/v1/embed", {"n": 1}))
            embed_new = dispatcher.submit(Job("/v1/embed", {"n": 2}))
            # Queue is full. A recognition outranks embeds: the newest
            # embed is shed to make room, the older one keeps its spot.
            recognize = dispatcher.submit(
                Job("/v1/recognize", {"module": "m"})
            )
            with pytest.raises(DispatchOverload) as excinfo:
                embed_new.result(timeout=5)
            assert excinfo.value.retry_after > 0
            assert dispatcher.stats()["shed"] == 1
            stub.gate.set()
            assert blocked.result(timeout=10)["echo"] == {"n": 0}
            assert embed_old.result(timeout=10)["echo"] == {"n": 1}
            assert recognize.result(timeout=10)["path"] == "/v1/recognize"
        finally:
            stub.gate.set()
            dispatcher.close()

    def test_low_priority_incoming_is_shed_immediately(self, stub):
        stub.gate = threading.Event()
        dispatcher = FleetDispatcher(
            [WorkerSpec("alpha", stub.url, capacity=1)],
            retry=_fast_retry(), poll_interval=0.01, max_pending=1,
        )
        try:
            dispatcher.submit(Job("/v1/embed", {"n": 0}))
            assert _wait_for(
                lambda: dispatcher.stats()["in_flight"]["alpha"] == 1
            )
            held = dispatcher.submit(Job("/v1/recognize", {"module": "m"}))
            incoming = dispatcher.submit(Job("/v1/embed", {"n": 1}))
            # The queued recognition outranks the incoming embed, so
            # the newcomer itself is the victim.
            with pytest.raises(DispatchOverload):
                incoming.result(timeout=5)
            stub.gate.set()
            assert held.result(timeout=10)["path"] == "/v1/recognize"
        finally:
            stub.gate.set()
            dispatcher.close()

    def test_retry_after_outranks_private_backoff(self, stub):
        # Satellite regression: the 503's Retry-After must reach the
        # dispatcher's requeue delay. The policy's own backoff is 1ms;
        # only the server's number explains a ~0.5s gap.
        stub.scripted.append((503, {"error": "draining"},
                              {"Retry-After": "0.5"}))
        dispatcher = FleetDispatcher(
            [WorkerSpec("alpha", stub.url, capacity=1)],
            retry=RetryPolicy(max_attempts=3, base_delay=0.001,
                              max_delay=0.001, jitter=0.0, seed=7),
        )
        try:
            job = Job("/v1/embed", {"n": 0})
            started = time.monotonic()
            doc = dispatcher.submit(job).result(timeout=10)
            elapsed = time.monotonic() - started
            assert doc["echo"] == {"n": 0}
            assert job.attempts == 2
            assert dispatcher.stats()["requeues"] == 1
            assert elapsed >= 0.5
        finally:
            dispatcher.close()

    def test_fatal_status_fails_without_requeue(self, stub):
        stub.scripted.append((404, {"error": "unknown artifact"}, {}))
        dispatcher = FleetDispatcher(
            [WorkerSpec("alpha", stub.url, capacity=1)],
            retry=_fast_retry(attempts=5),
        )
        try:
            job = Job("/v1/embed", {"n": 0})
            with pytest.raises(ServiceError) as excinfo:
                dispatcher.submit(job).result(timeout=10)
            assert excinfo.value.status == 404
            assert job.attempts == 1
            stats = dispatcher.stats()
            assert stats["requeues"] == 0
            assert stats["errors"] == 1
        finally:
            dispatcher.close()

    def test_close_fails_parked_jobs(self):
        dispatcher = FleetDispatcher(
            [WorkerSpec("dead", _dead_url(), capacity=1)],
            retry=RetryPolicy(max_attempts=5, base_delay=30.0,
                              jitter=0.0, seed=7),
            poll_interval=0.01,
        )
        job = Job("/v1/embed", {"n": 0})
        future = dispatcher.submit(job)
        # Let the first attempt fail and park the job on its 30s
        # requeue delay, then shut down underneath it.
        assert _wait_for(lambda: dispatcher.stats()["requeues"] == 1)
        dispatcher.close()
        with pytest.raises(DispatchOverload, match="closed"):
            future.result(timeout=5)
        with pytest.raises(RuntimeError, match="closed"):
            dispatcher.submit(Job("/v1/embed", {"n": 1}))

    def test_requeue_wakes_for_the_deadline_not_the_poll_tick(self, stub):
        # Satellite regression: a parked requeue must be retried when
        # its not_before comes due, not when a sleepy poll tick
        # happens by. With a 5s poll interval, only deadline-driven
        # wakeups explain sub-second completion.
        stub.scripted.append((503, {"error": "draining"},
                              {"Retry-After": "0.2"}))
        dispatcher = FleetDispatcher(
            [WorkerSpec("alpha", stub.url, capacity=1)],
            retry=RetryPolicy(max_attempts=3, base_delay=0.001,
                              max_delay=0.001, jitter=0.0, seed=7),
            poll_interval=5.0,
        )
        try:
            started = time.monotonic()
            doc = dispatcher.submit(Job("/v1/embed", {"n": 0})).result(
                timeout=10
            )
            elapsed = time.monotonic() - started
            assert doc["echo"] == {"n": 0}
            assert dispatcher.stats()["requeues"] == 1
            assert 0.2 <= elapsed < 2.0
        finally:
            dispatcher.close()

    def test_drain_after_close_returns_false_immediately(self, stub):
        dispatcher = FleetDispatcher(
            [WorkerSpec("alpha", stub.url, capacity=1)],
            retry=_fast_retry(),
        )
        assert dispatcher.drain(timeout=5.0)
        dispatcher.close()
        started = time.monotonic()
        assert dispatcher.drain(timeout=30.0) is False
        assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# HealthMonitor: the worker state machine, driven by hand
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestHealthMonitor:
    @staticmethod
    def _flaky_probe(ok):
        """A probe whose verdict the test flips via the `ok` dict."""
        def probe(spec):
            if not ok.get(spec.name, False):
                raise OSError("connection refused")
        return probe

    def test_state_machine_walks_the_full_cycle(self):
        clock = FakeClock()
        ok = {"w": False}
        monitor = HealthMonitor(
            [WorkerSpec("w", "http://unused")], self._flaky_probe(ok),
            eject_threshold=2, readmit_after=10.0, clock=clock,
        )
        assert monitor.state("w") == WORKER_HEALTHY
        assert monitor.available("w") and monitor.any_available()
        monitor.probe_all()
        assert monitor.state("w") == WORKER_SUSPECT
        monitor.probe_all()
        assert monitor.state("w") == WORKER_EJECTED
        assert not monitor.available("w") and not monitor.any_available()
        assert monitor.ejections == 1
        assert 0 < monitor.retry_after() <= 10.0
        # Mid-window the breaker is open: probes are skipped outright.
        monitor.probe_all()
        assert monitor.ejections == 1
        clock.advance(10.0)
        assert monitor.state("w") == WORKER_PROBING
        ok["w"] = True
        monitor.probe_all()
        assert monitor.state("w") == WORKER_HEALTHY
        assert monitor.available("w")
        assert monitor.readmissions == 1

    def test_failed_half_open_probe_reopens_a_full_window(self):
        clock = FakeClock()
        monitor = HealthMonitor(
            [WorkerSpec("w", "http://unused")], self._flaky_probe({}),
            eject_threshold=2, readmit_after=10.0, clock=clock,
        )
        monitor.probe_all()
        monitor.probe_all()
        clock.advance(10.0)
        assert monitor.state("w") == WORKER_PROBING
        monitor.probe_all()  # the half-open probe fails
        assert monitor.state("w") == WORKER_EJECTED
        clock.advance(5.0)
        assert monitor.state("w") == WORKER_EJECTED
        clock.advance(5.0)
        assert monitor.state("w") == WORKER_PROBING

    def test_passive_sends_eject_and_hooks_fire(self):
        clock = FakeClock()
        ejected, readmitted = [], []
        monitor = HealthMonitor(
            [WorkerSpec("w", "http://unused")], lambda spec: None,
            eject_threshold=2, readmit_after=10.0, clock=clock,
            on_eject=ejected.append, on_readmit=readmitted.append,
        )
        monitor.record_send("w", False)
        assert ejected == []
        monitor.record_send("w", False)
        assert ejected == ["w"]
        clock.advance(10.0)
        monitor.probe_all()  # the always-ok probe readmits
        assert readmitted == ["w"]
        assert monitor.states() == {"w": WORKER_HEALTHY}

    def test_one_success_clears_the_suspect_count(self):
        monitor = HealthMonitor(
            [WorkerSpec("w", "http://unused")], lambda spec: None,
            eject_threshold=2, readmit_after=10.0, clock=FakeClock(),
        )
        monitor.record_send("w", False)
        assert monitor.state("w") == WORKER_SUSPECT
        monitor.record_send("w", True)
        assert monitor.state("w") == WORKER_HEALTHY
        # The count reset: one more failure is suspect again, not an
        # ejection — only *consecutive* failures eject.
        monitor.record_send("w", False)
        assert monitor.state("w") == WORKER_SUSPECT
        assert monitor.ejections == 0

    def test_state_changes_emit_events_and_set_the_gauge(self):
        hub = TelemetryHub(HubConfig())
        previous = obs.set_hub(hub)
        try:
            clock = FakeClock()
            ok = {"w": False}
            monitor = HealthMonitor(
                [WorkerSpec("w", "http://unused")], self._flaky_probe(ok),
                eject_threshold=2, readmit_after=10.0, clock=clock,
            )
            monitor.probe_all()
            monitor.probe_all()
            clock.advance(10.0)
            ok["w"] = True
            monitor.probe_all()
        finally:
            obs.set_hub(previous)
        events = hub.tail(kind="fleet.worker")
        assert [e.attrs["state"] for e in events] == [
            WORKER_SUSPECT, WORKER_EJECTED, WORKER_HEALTHY,
        ]
        assert [e.attrs["readmitted"] for e in events] == [
            False, False, True,
        ]
        assert events[1].attrs["previous"] == WORKER_SUSPECT
        assert events[1].attrs["reason"].startswith("probe:")
        gauge = obs.get_registry().gauge("repro_fleet_worker_state")
        assert gauge.value(worker="w") == WORKER_STATE_CODES[WORKER_HEALTHY]

    def test_probe_fault_site_kills_probes_deterministically(self):
        # The probe callable itself always succeeds; only the armed
        # `fleet.probe` site explains the ejection.
        plan = FaultPlan([
            FaultRule(site="fleet.probe", action="raise", times=None),
        ], seed=3)
        monitor = HealthMonitor(
            [WorkerSpec("w", "http://unused")], lambda spec: None,
            eject_threshold=2, readmit_after=10.0, clock=FakeClock(),
        )
        with faults.injected(plan):
            monitor.probe_all()
            monitor.probe_all()
        assert monitor.state("w") == WORKER_EJECTED

    def test_rejects_bad_probe_parameters(self):
        with pytest.raises(ValueError, match="probe_interval"):
            HealthMonitor([WorkerSpec("w", "http://x")], lambda s: None,
                          probe_interval=0.0)
        with pytest.raises(ValueError, match="probe_jitter"):
            HealthMonitor([WorkerSpec("w", "http://x")], lambda s: None,
                          probe_jitter=1.0)

    def test_state_codes_are_distinct(self):
        assert set(WORKER_STATE_CODES) == {
            WORKER_HEALTHY, WORKER_SUSPECT, WORKER_PROBING, WORKER_EJECTED,
        }
        assert len(set(WORKER_STATE_CODES.values())) == 4


# ---------------------------------------------------------------------------
# Self-healing fleet: ejection, requeue, brownout, readmission end to end
# ---------------------------------------------------------------------------


class TestSelfHealingFleet:
    def test_dead_worker_is_ejected_and_jobs_land_live(self, stub):
        # Passive send failures alone must eject the dead worker
        # (probes are parked on a 30s interval), after which every
        # job completes on the live peer.
        dispatcher = FleetDispatcher(
            [WorkerSpec("live", stub.url, capacity=2),
             WorkerSpec("dead", _dead_url(), capacity=2)],
            retry=_fast_retry(attempts=10), poll_interval=0.01,
            eject_threshold=1, probe_interval=30.0, readmit_after=60.0,
        )
        try:
            futures = [
                dispatcher.submit(Job("/v1/embed", {"n": n}))
                for n in range(6)
            ]
            results = [f.result(timeout=15) for f in futures]
            assert sorted(r["echo"]["n"] for r in results) == list(range(6))
            assert _wait_for(
                lambda: dispatcher.stats()["workers"]["dead"]
                == WORKER_EJECTED
            )
            stats = dispatcher.stats()
            assert stats["workers"]["live"] == WORKER_HEALTHY
            assert stats["ejections"] >= 1
            assert stats["completed"] == 6
        finally:
            dispatcher.close()

    def test_brownout_fast_fails_new_submissions(self):
        dispatcher = FleetDispatcher(
            [WorkerSpec("dead", _dead_url(), capacity=1)],
            retry=_fast_retry(attempts=10), poll_interval=0.01,
            eject_threshold=2, probe_interval=0.05, readmit_after=60.0,
        )
        parked = dispatcher.submit(Job("/v1/embed", {"n": 0}))
        assert _wait_for(
            lambda: dispatcher.stats()["workers"]["dead"] == WORKER_EJECTED
        )
        with pytest.raises(DispatchOverload, match="brownout") as excinfo:
            dispatcher.submit(Job("/v1/embed", {"n": 1})).result(timeout=5)
        assert excinfo.value.retry_after > 0
        assert dispatcher.stats()["brownouts"] == 1
        # The job already queued rides out the brownout parked; close
        # fails it like any other abandoned work.
        dispatcher.close()
        with pytest.raises(DispatchOverload, match="closed"):
            parked.result(timeout=5)

    def test_recovered_worker_is_readmitted(self, stub):
        stub.healthy = False
        dispatcher = FleetDispatcher(
            [WorkerSpec("alpha", stub.url, capacity=2)],
            retry=_fast_retry(), poll_interval=0.01,
            eject_threshold=2, probe_interval=0.05, readmit_after=0.2,
        )
        try:
            assert _wait_for(
                lambda: dispatcher.stats()["workers"]["alpha"]
                == WORKER_EJECTED
            )
            with pytest.raises(DispatchOverload, match="brownout"):
                dispatcher.submit(
                    Job("/v1/embed", {"n": 0})
                ).result(timeout=5)
            stub.healthy = True
            assert _wait_for(
                lambda: dispatcher.stats()["workers"]["alpha"]
                == WORKER_HEALTHY
            )
            assert dispatcher.stats()["readmissions"] == 1
            doc = dispatcher.submit(
                Job("/v1/embed", {"n": 1})
            ).result(timeout=10)
            assert doc["echo"] == {"n": 1}
        finally:
            dispatcher.close()

    def test_ejection_requeues_in_flight_exactly_once(self):
        # Jobs stuck on a gated worker must be re-planned onto the
        # live peer when the gated worker is ejected — and when the
        # stragglers finally come back, exactly-once claiming keeps
        # the books straight: one success callback per job, no
        # double-counted completions.
        stub_a, stub_b = StubWorker(), StubWorker()
        stub_a.gate = threading.Event()
        counts = collections.Counter()
        dispatcher = FleetDispatcher(
            [WorkerSpec("a", stub_a.url, capacity=2),
             WorkerSpec("b", stub_b.url, capacity=2)],
            retry=_fast_retry(attempts=6), poll_interval=0.01,
            eject_threshold=2, probe_interval=0.05, readmit_after=60.0,
        )
        try:
            futures = [
                dispatcher.submit(Job(
                    "/v1/embed", {"n": n},
                    on_success=lambda job, doc: counts.update([job.job_id]),
                ))
                for n in range(4)
            ]
            # Two jobs land on each worker; a's two hang on the gate.
            assert _wait_for(
                lambda: dispatcher.stats()["in_flight"]["a"] == 2
            )
            stub_a.healthy = False  # probes now fail; a gets ejected
            assert _wait_for(
                lambda: dispatcher.stats()["workers"]["a"] == WORKER_EJECTED
            )
            results = [f.result(timeout=15) for f in futures]
            assert sorted(r["echo"]["n"] for r in results) == [0, 1, 2, 3]
            stats = dispatcher.stats()
            assert stats["requeues"] >= 2
            assert stats["ejections"] == 1
            # Release the stragglers; their late 200s are superseded
            # and must not double-resolve or double-count anything.
            stub_a.gate.set()
            assert _wait_for(
                lambda: dispatcher.stats()["in_flight"]["a"] == 0
            )
            stats = dispatcher.stats()
            assert stats["completed"] == 4
            assert stats["errors"] == 0
            assert len(counts) == 4
            assert set(counts.values()) == {1}
        finally:
            stub_a.gate.set()
            dispatcher.close()
            stub_a.close()
            stub_b.close()


# ---------------------------------------------------------------------------
# Shed and close invariants, property-tested against a model
# ---------------------------------------------------------------------------


class _BlockingClient:
    """Stands in for ServiceClient: every send parks until released,
    so the pending queue is fully test-controlled."""

    def __init__(self, release):
        self._release = release

    def request_ex(self, method, path, payload=None):
        self._release.wait(timeout=30.0)
        return 200, {"ok": True}, None


def _shed_model(priorities, max_pending):
    """Reference model of `_shed_one`: the victim is the lowest
    priority, newest submission among equals (FIFO under shed)."""
    pending = []  # (neg_priority, order) entries still queued
    shed = set()
    for order, priority in enumerate(priorities):
        entry = (-priority, order)
        if len(pending) >= max_pending:
            victim = max(pending + [entry])
            if victim != entry:
                pending.remove(victim)
                pending.append(entry)
            shed.add(victim[1])
        else:
            pending.append(entry)
    return shed


class TestShedProperties:
    @given(priorities=st.lists(st.integers(0, 3), max_size=10))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_shed_matches_the_model_and_close_fails_the_rest(
        self, priorities
    ):
        max_pending = 3
        release = threading.Event()
        errors = collections.Counter()
        dispatcher = FleetDispatcher(
            [WorkerSpec("w", "http://unused", capacity=1)],
            retry=_fast_retry(), poll_interval=0.01,
            max_pending=max_pending, eject=False,
            client_factory=lambda spec: _BlockingClient(release),
        )
        try:
            # Occupy the only slot so everything after stays pending.
            plug = dispatcher.submit(Job("/v1/recognize", {"plug": True}))
            assert _wait_for(
                lambda: dispatcher.stats()["in_flight"]["w"] == 1
            )
            futures = [
                dispatcher.submit(Job(
                    "/v1/embed", {"n": order}, priority=priority,
                    on_error=lambda job, exc: errors.update(
                        [job.payload["n"]]
                    ),
                ))
                for order, priority in enumerate(priorities)
            ]
            expected_shed = _shed_model(priorities, max_pending)
            for order, future in enumerate(futures):
                if order in expected_shed:
                    with pytest.raises(DispatchOverload, match="saturated"):
                        future.result(timeout=5)
                else:
                    assert not future.done()
            assert dispatcher.stats()["shed"] == len(expected_shed)
            # Unblock the plug just before close so the pool can wind
            # down; _closed is already set, so nothing pending gets
            # re-assigned in the gap.
            threading.Timer(0.1, release.set).start()
            dispatcher.close()
            assert plug.result(timeout=10) == {"ok": True}
            for order, future in enumerate(futures):
                if order not in expected_shed:
                    with pytest.raises(DispatchOverload, match="closed"):
                        future.result(timeout=5)
            # Every non-plug job failed exactly once — shed and close
            # both resolve through the same exactly-once claim.
            assert len(errors) == len(priorities)
            assert not errors or set(errors.values()) == {1}
        finally:
            release.set()
            dispatcher.close()


# ---------------------------------------------------------------------------
# Fleet files and specs
# ---------------------------------------------------------------------------


class TestWorkerSpecs:
    def test_load_workers_roundtrip(self, tmp_path):
        path = tmp_path / "workers.json"
        path.write_text(json.dumps({"workers": [
            {"name": "alpha", "url": "http://127.0.0.1:8101", "capacity": 4},
            {"name": "beta", "url": "http://127.0.0.1:8102"},
        ]}))
        specs = load_workers(str(path))
        assert specs == [
            WorkerSpec("alpha", "http://127.0.0.1:8101", 4),
            WorkerSpec("beta", "http://127.0.0.1:8102", 2),
        ]

    @pytest.mark.parametrize("doc,message", [
        ({}, "non-empty 'workers'"),
        ({"workers": []}, "non-empty 'workers'"),
        ({"workers": [{"url": "http://x"}]}, "non-empty 'name'"),
        ({"workers": [{"name": "a"}]}, "needs a 'url'"),
        ({"workers": [{"name": "a", "url": "http://x", "capacity": 0}]},
         "positive int"),
        ({"workers": [{"name": "a", "url": "http://x"},
                      {"name": "a", "url": "http://y"}]}, "duplicate"),
    ])
    def test_load_workers_rejects_bad_fleets(self, tmp_path, doc, message):
        path = tmp_path / "workers.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_workers(str(path))

    def test_route_priority_defaults(self):
        assert Job("/v1/recognize", {}).priority == 2
        assert Job("/v1/embed", {}).priority == 1
        assert Job("/v1/other", {}).priority == 0
        assert Job("/v1/embed", {}, priority=9).priority == 9

    def test_fleet_needs_a_worker(self):
        with pytest.raises(ValueError, match="at least one worker"):
            FleetDispatcher([])


# ---------------------------------------------------------------------------
# ServiceClient: the Retry-After surfacing the dispatcher depends on
# ---------------------------------------------------------------------------


class TestServiceClientRetryAfter:
    def test_request_ex_returns_the_final_retry_after(self, stub):
        stub.scripted.append((503, {"error": "draining"},
                              {"Retry-After": "1.5"}))
        client = ServiceClient(stub.url, retry=RetryPolicy(max_attempts=1))
        status, doc, retry_after = client.request_ex(
            "POST", "/v1/embed", {"n": 0}
        )
        assert status == 503
        assert doc["error"] == "draining"
        assert retry_after == 1.5

    def test_embed_error_carries_retry_after(self, stub):
        stub.scripted.append((503, {"error": "draining"},
                              {"Retry-After": "2"}))
        client = ServiceClient(stub.url, retry=RetryPolicy(max_attempts=1))
        with pytest.raises(ServiceError) as excinfo:
            client.embed("a" * 64, "c0", 1)
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == 2.0

    def test_unparseable_retry_after_is_none(self, stub):
        stub.scripted.append((503, {"error": "draining"},
                              {"Retry-After": "soon"}))
        client = ServiceClient(stub.url, retry=RetryPolicy(max_attempts=1))
        _, _, retry_after = client.request_ex("POST", "/v1/embed", {})
        assert retry_after is None

    def test_internal_retries_still_honor_the_header(self, stub):
        stub.scripted.append((503, {"error": "draining"},
                              {"Retry-After": "0.4"}))
        naps = []
        client = ServiceClient(
            stub.url,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001,
                              max_delay=0.001, jitter=0.0),
            sleep=naps.append,
        )
        status, doc, _ = client.request_ex("POST", "/v1/embed", {"n": 1})
        assert status == 200
        assert naps == [0.4]
