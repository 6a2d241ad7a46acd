"""Fault-injection tests for the daemon's recovery paths and client.

The daemon-side scenarios run with ``executor="thread"`` so an armed
fault plan in the test process is ambient in the workers too; the
``daemon.job`` hook runs inside the worker, so injected delays
genuinely occupy pool slots (real 429s and 504s, not simulations).
"""

import threading
import time

import pytest

from repro import faults
from repro.bytecode_wm import WatermarkKey
from repro.faults.injector import FaultPlan, FaultRule
from repro.faults.retry import RetryPolicy
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.pipeline import prepare
from repro.serve import (
    ArtifactStore,
    CircuitBreaker,
    ServerConfig,
    ServerThread,
    ServiceClient,
    ServiceError,
)
from repro.vm import disassemble
from repro.workloads import gcd_module

KEY = WatermarkKey(secret=b"pldi-2004", inputs=[25, 10])
BITS = 16

NO_RETRY = RetryPolicy(max_attempts=1)


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)


@pytest.fixture(autouse=True)
def no_ambient_plan():
    yield
    faults.clear()


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("store"))
    store = ArtifactStore(root)
    store.put(prepare(gcd_module(), KEY, BITS))
    return root


@pytest.fixture(scope="module")
def digest(store_root):
    return ArtifactStore(store_root, create=False).records()[0].digest


def thread_config(store_root, **overrides):
    defaults = dict(
        store_root=store_root, executor="thread", workers=1,
        queue_depth=0, request_timeout=30.0, drain_timeout=10.0,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestCircuitBreakerUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after=0)

    def test_full_cycle_with_fake_clock(self):
        now = [0.0]
        breaker = CircuitBreaker(
            threshold=3, reset_after=30.0, clock=lambda: now[0], name="/t"
        )
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow()  # still closed below threshold
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(30.0)
        now[0] = 31.0
        assert breaker.state == "half_open"
        assert breaker.allow()      # the one probe
        assert not breaker.allow()  # no second probe while it runs
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_failed_probe_reopens_full_window(self):
        now = [0.0]
        breaker = CircuitBreaker(
            threshold=1, reset_after=10.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        now[0] = 10.0
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert breaker.retry_after() == pytest.approx(10.0)
        now[0] = 15.0
        assert not breaker.allow()
        now[0] = 20.0
        assert breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two consecutive

    def test_transitions_feed_metrics(self):
        breaker = CircuitBreaker(threshold=1, name="/m")
        breaker.record_failure()
        counter = get_registry().counter(
            "repro_http_circuit_transitions_total"
        )
        assert counter.value(route="/m", state="open") == 1


class TestInjectedBackpressure:
    def test_delay_fault_drives_real_429(self, store_root, digest):
        """A pinned worker (injected in-worker delay) with queue_depth
        0 makes the second concurrent request a real 429, visible in
        repro_http_requests_total."""
        plan = FaultPlan(rules=[
            FaultRule(site="daemon.job", action="delay",
                      delay_seconds=0.6, times=1),
        ])
        config = thread_config(store_root)
        with faults.injected(plan), ServerThread(config) as server:
            client = ServiceClient(server.base_url, retry=NO_RETRY)
            slow_result = {}

            def slow():
                slow_result["doc"] = client.embed(digest, "slow", 1)

            worker = threading.Thread(target=slow)
            worker.start()
            time.sleep(0.2)  # the delayed job now owns the only slot
            with pytest.raises(ServiceError) as info:
                client.embed(digest, "rejected", 2)
            worker.join()
        assert info.value.status == 429
        assert slow_result["doc"]["verified"]
        requests = get_registry().counter("repro_http_requests_total")
        assert requests.value(
            route="/v1/embed", method="POST", status="429"
        ) == 1
        assert requests.value(
            route="/v1/embed", method="POST", status="200"
        ) == 1
        # Two requests, counted once each.
        assert sum(s["value"] for s in requests.samples()) == 2

    def test_delay_fault_drives_real_504(self, store_root, digest):
        plan = FaultPlan(rules=[
            FaultRule(site="daemon.job", action="delay",
                      delay_seconds=0.6, times=1),
        ])
        config = thread_config(store_root, request_timeout=0.1)
        with faults.injected(plan), ServerThread(config) as server:
            client = ServiceClient(server.base_url, retry=NO_RETRY)
            with pytest.raises(ServiceError) as info:
                client.embed(digest, "late", 1)
        assert info.value.status == 504
        requests = get_registry().counter("repro_http_requests_total")
        assert requests.value(
            route="/v1/embed", method="POST", status="504"
        ) == 1

    def test_timeouts_open_the_circuit(self, store_root, digest):
        """Consecutive 504s trip the breaker: the next request fails
        fast with 503 + Retry-After without touching the pool."""
        plan = FaultPlan(rules=[
            FaultRule(site="daemon.job", action="delay",
                      delay_seconds=0.4, times=2),
        ])
        config = thread_config(
            store_root, request_timeout=0.1,
            circuit_threshold=2, circuit_reset=60.0,
        )
        with faults.injected(plan), ServerThread(config) as server:
            client = ServiceClient(server.base_url, retry=NO_RETRY)
            for n in range(2):
                with pytest.raises(ServiceError) as info:
                    client.embed(digest, f"slow{n}", n + 1)
                assert info.value.status == 504
            with pytest.raises(ServiceError) as info:
                client.embed(digest, "fast-fail", 9)
            assert info.value.status == 503
            assert "circuit open" in info.value.message
            health = client.healthz()
            assert health["circuits"]["/v1/embed"] == "open"
            assert health["circuits"]["/v1/recognize"] == "closed"

    def test_circuit_recovers_through_half_open_probe(
        self, store_root, digest
    ):
        plan = FaultPlan(rules=[
            FaultRule(site="daemon.job", action="delay",
                      delay_seconds=0.5, times=1),
        ])
        # The reset window must comfortably outlast the gap between the
        # tripping call and the fail-fast check below — on a loaded
        # machine a too-tight window is already half-open by the time
        # the second request lands.
        config = thread_config(
            store_root, request_timeout=0.2,
            circuit_threshold=1, circuit_reset=1.0,
        )
        with faults.injected(plan), ServerThread(config) as server:
            client = ServiceClient(server.base_url, retry=NO_RETRY)
            with pytest.raises(ServiceError):
                client.embed(digest, "trip", 1)   # 504 opens it
            with pytest.raises(ServiceError) as info:
                client.embed(digest, "blocked", 2)
            assert info.value.status == 503
            # Long enough for the reset window *and* for the orphaned
            # delayed job to free the single worker slot.
            time.sleep(1.3)
            doc = client.embed(digest, "probe", 3)
            assert doc["verified"]
            assert client.healthz()["circuits"]["/v1/embed"] == "closed"


class TestHalfOpenProbeAccounting:
    """A half-open route must never stay wedged: every admitted probe
    records exactly one outcome, and a refused request never claims
    the probe slot in the first place.

    Both scenarios open the embed circuit with one timed-out job
    (threshold 1), let the reset window pass, and then spoil the probe
    — once by refusing it at admission, once by having it raise.
    Afterwards the route must serve again instead of answering
    "circuit open" forever.
    """

    def wedge_config(self, store_root):
        return thread_config(
            store_root, workers=1, queue_depth=0, request_timeout=0.5,
            circuit_threshold=1, circuit_reset=0.5,
        )

    def trip(self, client, digest):
        """One 504 opens the embed circuit; its orphaned job holds the
        only worker thread for another half second."""
        with pytest.raises(ServiceError) as info:
            client.embed(digest, "trip", 1)
        assert info.value.status == 504
        assert client.healthz()["circuits"]["/v1/embed"] == "open"

    def test_probe_refused_at_admission_does_not_wedge(
        self, store_root, digest
    ):
        plan = FaultPlan(rules=[
            FaultRule(site="daemon.job", action="delay",
                      delay_seconds=1.0, times=1),
            # The recognize that holds the only admission slot.
            FaultRule(site="daemon.job", action="delay",
                      delay_seconds=1.5, after=2, times=1),
        ])
        unmarked = disassemble(gcd_module())
        with faults.injected(plan), \
                ServerThread(self.wedge_config(store_root)) as server:
            client = ServiceClient(server.base_url, retry=NO_RETRY)
            self.trip(client, digest)
            time.sleep(0.7)  # window elapsed, orphaned job finished
            held = {}

            def hold_slot():
                try:
                    client.recognize(digest, unmarked)
                except ServiceError as exc:
                    held["status"] = exc.status

            hold = threading.Thread(target=hold_slot)
            hold.start()
            time.sleep(0.15)  # the recognize now owns the only slot
            with pytest.raises(ServiceError) as info:
                client.embed(digest, "refused-probe", 2)
            assert info.value.status == 429
            hold.join(timeout=30)
            assert held["status"] == 504
            time.sleep(1.5)  # the recognize's orphan frees the worker
            doc = client.embed(digest, "after", 3)
            assert doc["verified"]
            assert client.healthz()["circuits"]["/v1/embed"] == "closed"

    def test_probe_that_raises_does_not_wedge(self, store_root, digest):
        plan = FaultPlan(rules=[
            FaultRule(site="daemon.job", action="delay",
                      delay_seconds=1.0, times=1),
            FaultRule(site="daemon.job", action="raise", after=2,
                      times=1, exception=RuntimeError),
        ])
        with faults.injected(plan), \
                ServerThread(self.wedge_config(store_root)) as server:
            client = ServiceClient(server.base_url, retry=NO_RETRY)
            self.trip(client, digest)
            time.sleep(0.7)
            with pytest.raises(ServiceError) as info:
                client.embed(digest, "raising-probe", 2)
            assert info.value.status == 500
            assert "RuntimeError" in info.value.message
            # Whatever the probe's outcome counted as, the route gets
            # another chance within one reset window.
            time.sleep(0.7)
            doc = client.embed(digest, "after", 3)
            assert doc["verified"]
            assert client.healthz()["circuits"]["/v1/embed"] == "closed"


class TestGracefulDrain:
    def test_drain_finishes_inflight_and_refuses_new(
        self, store_root, digest
    ):
        plan = FaultPlan(rules=[
            FaultRule(site="daemon.job", action="delay",
                      delay_seconds=0.5, times=1),
        ])
        config = thread_config(store_root, workers=2, queue_depth=2)
        with faults.injected(plan):
            server = ServerThread(config).start()
            client = ServiceClient(server.base_url, retry=NO_RETRY)
            outcome = {}

            def slow():
                outcome["doc"] = client.embed(digest, "inflight", 7)

            worker = threading.Thread(target=slow)
            worker.start()
            time.sleep(0.2)  # the slow job is now in flight
            service = server.service
            drained = threading.Thread(target=server.shutdown)
            drained.start()
            time.sleep(0.1)
            assert service._draining  # new jobs would now see 503
            worker.join(timeout=30)
            drained.join(timeout=30)
        assert outcome["doc"]["verified"]

    def test_draining_health_and_503(self, store_root, digest):
        """While draining, /healthz reports it and job routes refuse
        with Retry-After."""
        plan = FaultPlan(rules=[
            FaultRule(site="daemon.job", action="delay",
                      delay_seconds=1.0, times=1),
        ])
        config = thread_config(store_root, workers=1, queue_depth=4)
        with faults.injected(plan):
            server = ServerThread(config).start()
            client = ServiceClient(server.base_url, retry=NO_RETRY)
            hold = threading.Thread(
                target=lambda: client.embed(digest, "hold", 1)
            )
            hold.start()
            time.sleep(0.2)
            drainer = threading.Thread(target=server.shutdown)
            drainer.start()
            time.sleep(0.1)
            health = client.healthz()
            assert health["status"] == "draining"
            with pytest.raises(ServiceError) as info:
                client.embed(digest, "refused", 2)
            assert info.value.status == 503
            assert "draining" in info.value.message
            hold.join(timeout=30)
            drainer.join(timeout=30)


class TestServiceClient:
    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            ServiceClient("ftp://nope")

    def test_round_trip_embed_and_recognize(self, store_root, digest):
        with ServerThread(thread_config(store_root)) as server:
            client = ServiceClient(server.base_url, retry=NO_RETRY)
            doc = client.embed(digest, "acme", 0x1337)
            assert doc["verified"] and doc["recognized"] == 0x1337
            found = client.recognize(digest, doc["module"])
            assert found["complete"] and found["value"] == 0x1337
            assert "repro_http_requests_total" in client.metrics()

    def test_retries_429_honoring_retry_after(self, store_root, digest):
        """One pinned worker: the client's first try meets a real 429,
        sleeps at least the server's Retry-After, then succeeds."""
        plan = FaultPlan(rules=[
            FaultRule(site="daemon.job", action="delay",
                      delay_seconds=0.5, times=1),
        ])
        naps = []
        config = thread_config(store_root)
        with faults.injected(plan), ServerThread(config) as server:
            client = ServiceClient(
                server.base_url,
                retry=RetryPolicy(
                    max_attempts=4, base_delay=0.0, jitter=0.0
                ),
                sleep=lambda s: (naps.append(s), time.sleep(s)),
            )
            hold = threading.Thread(
                target=lambda: client.embed(digest, "hold", 1)
            )
            hold.start()
            time.sleep(0.2)
            retry_client = ServiceClient(
                server.base_url,
                retry=RetryPolicy(
                    max_attempts=4, base_delay=0.0, jitter=0.0
                ),
                sleep=lambda s: (naps.append(s), time.sleep(s)),
            )
            doc = retry_client.embed(digest, "patient", 2)
            hold.join()
        assert doc["verified"]
        # The 429 carried Retry-After: 1; policy delay was 0, so the
        # client honored the server's larger hint.
        assert naps and naps[0] >= 1.0

    def test_connection_refused_retries_then_raises(self):
        naps = []
        client = ServiceClient(
            "http://127.0.0.1:9",  # discard port: nothing listens
            timeout=0.2,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0),
            sleep=naps.append,
        )
        with pytest.raises(OSError):
            client.request("GET", "/healthz")
        assert len(naps) == 2  # slept between the 3 attempts

    def test_no_retry_for_permanent_statuses(self, store_root, digest):
        naps = []
        with ServerThread(thread_config(store_root)) as server:
            client = ServiceClient(
                server.base_url,
                retry=RetryPolicy(max_attempts=5, base_delay=0.01),
                sleep=naps.append,
            )
            with pytest.raises(ServiceError) as info:
                client.embed("no-such-artifact", "x", 1)
        assert info.value.status == 404
        assert naps == []  # 404 is the caller's problem, not load
