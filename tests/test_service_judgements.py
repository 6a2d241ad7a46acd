"""One owner per service-level judgement.

* the newest-N slice (hub rings, ``/v1/obs/*`` and ``repro obs tail``)
  returns nothing for ``limit <= 0``, and the daemon refuses a
  negative ``limit`` with 400;
* an SLO spec fails closed on a ``route`` its kind cannot filter by;
* the daemon routes through one path-to-handler table that matches
  ``ROUTES``;
* one HTTP answer rule decides result, retry or error for the client
  and the fleet, and a server's ``Retry-After`` goes through
  ``RetryPolicy.delay`` without moving any seeded jitter draw.
"""

import json
import threading

import pytest

from repro import obs
from repro.faults.retry import RetryPolicy
from repro.obs.journal import HubConfig, TelemetryHub
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import Objective, load_objectives
from repro.obs.spans import Span
from repro.serve import ArtifactStore, ServerConfig, ServerThread
from repro.serve.client import ServiceClient, ServiceError
from repro.serve.daemon import ROUTES, WatermarkService
from repro.serve.dispatch import FleetDispatcher, Job, WorkerSpec


@pytest.fixture(autouse=True)
def _isolated_obs():
    previous = obs.set_registry(MetricsRegistry())
    obs.disable_tracing()
    yield
    obs.set_registry(previous)
    obs.disable_tracing()


def run_cli(capsys, *argv):
    from repro.cli import main as cli_main
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# The newest-N slice
# ---------------------------------------------------------------------------


class TestNewest:
    @pytest.mark.parametrize("limit,expected", [
        (0, []), (-3, []), (2, [3, 4]), (5, [0, 1, 2, 3, 4]),
        (9, [0, 1, 2, 3, 4]),
    ])
    def test_newest(self, limit, expected):
        from repro.obs.journal import newest
        assert newest([0, 1, 2, 3, 4], limit) == expected

    def test_hub_rings_return_nothing_for_no_limit(self):
        hub = TelemetryHub(HubConfig())
        for i in range(5):
            hub.emit("embed", f"copy-{i}")
            hub.record_span(Span(f"s{i}", f"t{i}", f"s{i}", None, 0.0))
        for limit in (0, -3):
            assert hub.tail(limit=limit) == []
            assert hub.recent_spans(limit=limit) == []
            assert hub.recent_traces(limit=limit) == []
        assert [e.name for e in hub.tail(limit=2)] == ["copy-3", "copy-4"]
        assert [s.name for s in hub.recent_spans(limit=1)] == ["s4"]
        assert [t for t, _ in hub.recent_traces(limit=2)] == ["t3", "t4"]
        hub.close()

    def test_obs_tail_cli_prints_nothing_for_no_limit(self, tmp_path,
                                                      capsys):
        hub = TelemetryHub(
            HubConfig(journal_path=str(tmp_path / "journal.jsonl"))
        )
        for i in range(3):
            hub.emit("embed", f"copy-{i}")
        hub.close()
        for limit in ("0", "-2"):
            code, out, _ = run_cli(
                capsys, "obs", "tail", "--journal", str(tmp_path),
                "--limit", limit,
            )
            assert code == 0 and out == ""
        code, out, _ = run_cli(
            capsys, "obs", "tail", "--journal", str(tmp_path),
            "--limit", "1",
        )
        assert [json.loads(line)["name"] for line in out.splitlines()] == [
            "copy-2"
        ]


@pytest.fixture(scope="module")
def empty_store(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("judgements") / "store")
    ArtifactStore(root)
    return root


class TestDaemonLimits:
    def test_obs_routes_slice_and_refuse_negative_limits(self, empty_store):
        config = ServerConfig(store_root=empty_store, port=0,
                              executor="thread", workers=1)
        with ServerThread(config) as server:
            client = ServiceClient(
                f"http://127.0.0.1:{server.service.port}",
                retry=RetryPolicy(max_attempts=1),
            )
            for _ in range(3):
                client.healthz()
            assert client.obs_events(limit=2)["count"] == 2
            tail = client.obs_events(limit=0)
            assert (tail["count"], tail["events"]) == (0, [])
            assert tail["emitted_total"] == 4
            status, doc = client.request("GET", "/v1/obs/spans?limit=0")
            assert (status, doc) == (200, {"traces": []})
            for path in ("/v1/obs/events?limit=-3",
                         "/v1/obs/spans?limit=-1",
                         "/v1/obs/events?limit=two"):
                status, doc = client.request("GET", path)
                assert status == 400, path
                assert "non-negative integer" in doc["error"]
            with pytest.raises(ServiceError) as excinfo:
                client.obs_events(limit=-1)
            assert excinfo.value.status == 400


class TestRouteTable:
    def test_one_handler_per_routed_path(self, empty_store):
        service = WatermarkService(ServerConfig(store_root=empty_store))
        try:
            assert set(service._handlers) == {path for _, path in ROUTES}
        finally:
            service.hub.close()
            obs.set_hub(None)


# ---------------------------------------------------------------------------
# SLO specs fail closed on a route their kind ignores
# ---------------------------------------------------------------------------


class TestRouteOnKind:
    @pytest.mark.parametrize("kind,target", [
        ("recovery_rate", 0.99), ("retry_budget", 25.0),
    ])
    def test_kinds_without_routes_reject_one(self, kind, target):
        with pytest.raises(ValueError, match="takes no route"):
            Objective(name="x", kind=kind, target=target,
                      route="/v1/recognize")
        Objective(name="x", kind=kind, target=target)

    @pytest.mark.parametrize("kind", [
        "latency_p95", "error_rate", "dispatch_p95", "fleet_error_rate",
    ])
    def test_route_filtering_kinds_take_one(self, kind):
        Objective(name="x", kind=kind, target=0.5, route="/v1/embed")

    @pytest.fixture
    def spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"objectives": [
            {"name": "recovery", "kind": "recovery_rate", "target": 0.99,
             "route": "/v1/recognize"},
        ]}))
        return str(path)

    def test_spec_file_fails_closed(self, spec, tmp_path, capsys):
        with pytest.raises(ValueError, match="takes no route"):
            load_objectives(spec)
        code, _, err = run_cli(
            capsys, "obs", "slo", "--journal", str(tmp_path),
            "--spec", spec,
        )
        assert code == 2 and "bad SLO spec" in err

    def test_serve_refuses_the_spec_at_startup(
        self, spec, empty_store, capsys, monkeypatch
    ):
        async def never_start(self):
            raise AssertionError("a bad SLO spec must stop serve first")

        monkeypatch.setattr(WatermarkService, "start", never_start)
        code, _, err = run_cli(
            capsys, "serve", "--store", empty_store, "--port", "0",
            "--slo", spec,
        )
        assert code == 2 and "takes no route" in err
        assert obs.get_hub() is None


# ---------------------------------------------------------------------------
# One HTTP answer rule, one Retry-After rule
# ---------------------------------------------------------------------------


class TestAnswerRule:
    def test_result_statuses_per_path(self):
        from repro.serve.client import answer
        assert answer("/v1/recognize", 422, {"complete": False}) == {
            "complete": False
        }
        assert answer("/v1/embed", 200, {"ok": True}) == {"ok": True}
        for path, status in (("/v1/embed", 422), ("/healthz", 503),
                             ("/v1/recognize", 400)):
            with pytest.raises(ServiceError) as excinfo:
                answer(path, status, {"error": "no"}, 2.0)
            assert excinfo.value.status == status
            assert excinfo.value.message == "no"
            assert excinfo.value.retry_after == 2.0

    def test_retry_after_does_not_move_the_jitter_draws(self):
        assert RetryPolicy(max_attempts=6, seed=2004).schedule() == [
            0.036886361985437155, 0.06051798179665613, 0.1793685771958113,
            0.3259382946723479, 0.5329216872919095,
        ]
        policy = RetryPolicy(max_attempts=6, seed=2004)
        assert [
            policy.delay(1, 0.5), policy.delay(2), policy.delay(3, 0.01),
            policy.delay(4, None), policy.delay(5, 9.0),
        ] == [0.5, 0.06051798179665613, 0.1793685771958113,
              0.3259382946723479, 9.0]

    def test_client_schedule_honors_retry_after(self):
        scripted = [
            (503, {"retry-after": "0.4"}, b'{"error": "draining"}'),
            (429, {}, b"{}"),
            (503, {"retry-after": "0.001"}, b""),
            (200, {}, b'{"status": "ok"}'),
        ]
        naps = []
        client = ServiceClient(
            "http://127.0.0.1:1",
            retry=RetryPolicy(max_attempts=4, seed=2004),
            sleep=naps.append,
        )
        client._once = lambda method, path, body: scripted.pop(0)
        assert client.healthz() == {"status": "ok"}
        assert naps == [0.4, 0.06051798179665613, 0.1793685771958113]


class _ScriptedClient:
    """Stands in for ServiceClient: answers each send from a script."""

    def __init__(self, script):
        self._script = list(script)
        self._lock = threading.Lock()

    def request_ex(self, method, path, payload=None):
        with self._lock:
            return self._script.pop(0)


class _RecordingPolicy(RetryPolicy):
    def __post_init__(self):
        super().__post_init__()
        self.delays = []

    def delay(self, attempt, retry_after=None):
        value = super().delay(attempt, retry_after)
        self.delays.append(value)
        return value


class TestFleetAnswers:
    def dispatch(self, script, route="/v1/recognize"):
        policy = _RecordingPolicy(max_attempts=3, base_delay=0.01,
                                  max_delay=0.02, jitter=0.5, seed=11)
        dispatcher = FleetDispatcher(
            [WorkerSpec("w", "http://unused", capacity=1)],
            retry=policy, poll_interval=0.01, eject=False,
            client_factory=lambda spec: _ScriptedClient(script),
        )
        try:
            future = dispatcher.submit(Job(route, {"n": 1}))
            try:
                return future.result(timeout=10), policy.delays
            except ServiceError as exc:
                return exc, policy.delays
        finally:
            dispatcher.close()

    def test_retryable_answers_requeue_under_the_worker_price(self):
        result, delays = self.dispatch([
            (503, {"error": "busy"}, 0.05),
            (429, {"error": "full"}, None),
            (422, {"complete": False}, None),
        ])
        assert result == {"complete": False}
        # The first draw (0.0077) is under the worker's 0.05 s price.
        assert delays == [0.05, 0.014402276139195041]

    def test_other_statuses_fail_the_job_at_once(self):
        result, delays = self.dispatch(
            [(422, {"error": "bad copy"}, None)], route="/v1/embed"
        )
        assert isinstance(result, ServiceError)
        assert (result.status, result.message) == (422, "bad copy")
        assert delays == []
