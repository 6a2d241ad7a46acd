"""Daemon observability end-to-end (`/v1/obs/*`, SLO gate, journal).

A real `ServerThread` over real sockets, driven with `ServiceClient`:
healthy traffic must leave every objective met, a conformant
`/metrics` exposition, queryable events and renderable trace trees —
and an injected fault plan must flip the SLO gate to breached. This is
the same proof the CI obs job runs via `benchmarks/obs_gate.py`.
"""

import json

import pytest

from repro import faults, obs
from repro.bytecode_wm.keys import WatermarkKey
from repro.faults import FaultPlan, FaultRule
from repro.faults.retry import RetryPolicy
from repro.obs.journal import HubConfig, TelemetryHub, read_events, read_spans
from repro.obs.metrics import MetricsRegistry
from repro.obs.promcheck import check_exposition
from repro.pipeline import prepare
from repro.serve import ArtifactStore, ServerConfig, ServerThread
from repro.serve.client import ServiceClient, ServiceError
from repro.vm import disassemble
from repro.workloads import gcd_module

KEY = WatermarkKey(secret=b"obs-key", inputs=[25, 10])


@pytest.fixture(autouse=True)
def _isolated_obs():
    previous = obs.set_registry(MetricsRegistry())
    obs.disable_tracing()
    faults.clear()
    yield
    obs.set_registry(previous)
    obs.disable_tracing()
    faults.clear()


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("obs-serve") / "store")
    store = ArtifactStore(root)
    store.put(prepare(gcd_module(), KEY, 16, 8), label="gcd")
    return root


@pytest.fixture(scope="module")
def digest(store_root):
    return ArtifactStore(store_root, create=False).records()[0].digest


def boot(store_root, tmp_path, **overrides):
    defaults = dict(
        store_root=store_root, port=0, executor="thread", workers=2,
        journal_dir=str(tmp_path / "obs"),
    )
    defaults.update(overrides)
    return ServerThread(ServerConfig(**defaults))


def client_for(server, **kw):
    kw.setdefault("retry", RetryPolicy(max_attempts=1))
    return ServiceClient(
        f"http://127.0.0.1:{server.service.port}", **kw
    )


class TestHealthyPath:
    def test_events_spans_slo_and_metrics(
        self, store_root, digest, tmp_path
    ):
        obs.enable_tracing()
        with boot(store_root, tmp_path) as server:
            client = client_for(server)
            out = client.embed(digest, "acme", 0x1234)
            assert out["verified"]
            rec = client.recognize(digest, out["module"])
            assert rec["complete"]

            # -- events ring, with filters ----------------------------
            events = client.obs_events(limit=100)
            assert events["emitted_total"] >= 4
            kinds = {e["kind"] for e in events["events"]}
            assert {"http.request", "embed", "recognize"} <= kinds
            only_embed = client.obs_events(kind="embed")
            assert all(e["kind"] == "embed"
                       for e in only_embed["events"])
            assert only_embed["count"] == 1
            by_route = client.obs_events(kind="http.request",
                                         route="/v1/embed")
            assert by_route["count"] == 1

            # -- span trees -------------------------------------------
            traces = client.obs_spans()["traces"]
            assert traces
            tree = traces[-1]["tree"]
            assert "http.request" in tree and "copy" in tree

            # -- SLO verdict, here and in /healthz --------------------
            slo = client.obs_slo()
            assert slo["met"] is True and slo["breached"] == []
            health = client.healthz()
            assert health["slo"]["met"] is True

            # -- metrics: conformant, with the scrape-time gauges -----
            text = client.metrics()
            assert check_exposition(text) == []
            assert "repro_http_inflight" in text
            assert "repro_http_queue_depth" in text
            assert "repro_obs_journal_bytes" in text

        journal_dir = str(tmp_path / "obs")
        journaled = read_events(journal_dir)
        assert any(e.kind == "embed" for e in journaled)
        assert read_spans(journal_dir)  # span sink reached the file

    def test_request_seconds_are_the_request_span(
        self, store_root, tmp_path
    ):
        """The latency histogram and the ``http.request`` event read the
        request span's duration, unrouted requests included."""
        obs.enable_tracing()
        with boot(store_root, tmp_path) as server:
            client = client_for(server)
            client.artifacts()
            assert client.request("GET", "/nope")[0] == 404
        journal_dir = str(tmp_path / "obs")
        spans = {sp.attributes["path"]: sp for sp in read_spans(journal_dir)
                 if sp.name == "http.request"}
        events = {e.name: e for e in read_events(journal_dir)
                  if e.kind == "http.request"}
        latency = obs.get_registry().histogram("repro_http_request_seconds")
        for path, route in (("/v1/artifacts", "/v1/artifacts"),
                            ("/nope", "unmatched")):
            sp = spans[path]
            assert events[route].attrs["seconds"] == sp.duration
            assert events[route].attrs["status"] == \
                sp.attributes["status"]
            assert latency.sum(route=route) == sp.duration

    def test_obs_routes_are_loop_local(self, store_root, tmp_path):
        """Introspection must answer without touching the worker pool
        (it works with zero traffic and zero artifacts embedded)."""
        with boot(store_root, tmp_path) as server:
            client = client_for(server)
            assert client.obs_events()["count"] >= 0
            assert client.obs_spans()["traces"] == []
            assert client.obs_slo()["met"] is True

    def test_bad_limit_is_a_400(self, store_root, tmp_path):
        with boot(store_root, tmp_path) as server:
            client = client_for(server)
            status, doc = client.request(
                "GET", "/v1/obs/events?limit=banana"
            )
            assert status == 400
            assert "limit" in doc["error"]

    def test_journal_disabled_still_serves_rings(
        self, store_root, digest, tmp_path
    ):
        with boot(store_root, tmp_path, journal_dir=None) as server:
            client = client_for(server)
            client.embed(digest, "ringonly", 0x42)
            assert client.obs_events(kind="embed")["count"] == 1


class TestFaultedPath:
    def test_injected_faults_breach_the_slo_gate(
        self, store_root, digest, tmp_path
    ):
        """The CI gate's flip test: with `daemon.job` raising, embeds
        turn into 500s, the error-rate objective breaches, and the
        fault firings themselves are journaled."""
        faults.install(FaultPlan([
            FaultRule(site="daemon.job", action="raise", times=None),
        ]))
        with boot(store_root, tmp_path) as server:
            client = client_for(server)
            for index in range(3):
                with pytest.raises(ServiceError) as err:
                    client.embed(digest, f"doomed-{index}", 1 + index)
                assert err.value.status in (500, 503)
            slo = client.obs_slo()
            assert slo["met"] is False
            assert "embed-error-rate" in slo["breached"]
            assert slo["max_burn_rate"] > 1.0
            assert client.healthz()["slo"]["met"] is False
            fired = client.obs_events(kind="fault")
            assert fired["count"] >= 1
            assert fired["events"][0]["attrs"]["site"] == "daemon.job"

    def test_recovery_rate_breach(self, store_root, digest, tmp_path):
        """Recognitions that come back incomplete drag the recovery
        objective under its floor even though every request is a
        2xx/422 — the SLO sees outcomes, not just status codes."""
        with boot(store_root, tmp_path) as server:
            client = client_for(server)
            unmarked = disassemble(gcd_module())
            out = client.recognize(digest, unmarked)
            assert out["complete"] is False
            slo = client.obs_slo()
            assert "recognition-recovery" in slo["breached"]


class TestWorkerHubPlumbing:
    def test_process_pool_workers_share_the_journal(
        self, store_root, digest, tmp_path
    ):
        """With a process pool, worker-side fault firings append to
        the parent's journal file via the initializer's hub config."""
        faults.install(FaultPlan([
            FaultRule(site="daemon.job", action="raise", times=1),
        ]))
        config = dict(executor="process", workers=1,
                      request_timeout=120.0)
        with boot(store_root, tmp_path, **config) as server:
            client = client_for(server)
            with pytest.raises(ServiceError):
                client.embed(digest, "w-fault", 5)
        journaled = read_events(str(tmp_path / "obs"))
        fired = [e for e in journaled if e.kind == "fault"]
        assert fired and fired[0].attrs["site"] == "daemon.job"


class TestHubOwnership:
    """The daemon closes the hub it installed, and only that one."""

    def test_stop_closes_and_uninstalls_its_own_hub(
        self, store_root, digest, tmp_path
    ):
        with boot(store_root, tmp_path) as server:
            client_for(server).healthz()
            hub = server.service.hub
            assert obs.get_hub() is hub
            hub.emit("test", "before-stop")
            assert hub._fp is not None
        assert obs.get_hub() is None
        assert hub._fp is None  # journal.jsonl closed, not leaked
        # A second service in the process builds its own hub.
        with boot(store_root, tmp_path / "second") as again:
            assert again.service.hub is not hub

    def test_stop_leaves_an_ambient_hub_open(
        self, store_root, digest, tmp_path
    ):
        ambient = TelemetryHub(HubConfig(
            journal_path=str(tmp_path / "mine.jsonl")
        ))
        obs.set_hub(ambient)
        try:
            with boot(store_root, tmp_path) as server:
                client_for(server).healthz()
                assert server.service.hub is ambient
            assert obs.get_hub() is ambient
            ambient.emit("test", "after-stop")
            assert ambient._fp is not None
        finally:
            obs.set_hub(None)
            ambient.close()
        assert any(e.name == "after-stop"
                   for e in read_events(str(tmp_path / "mine.jsonl")))
