"""Tests for the asyncio serving daemon (`repro.serve.daemon`).

The end-to-end tests drive a real `ServerThread` over real sockets
with `http.client`; the failure-path tests (429 backpressure, 504
timeout, worker-death retry) make the nondeterministic deterministic
by monkeypatching the worker entry points the daemon dispatches to.
"""

import http.client
import json
import threading
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro import obs
from repro.bytecode_wm.keys import WatermarkKey
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import prepare
from repro.pipeline.metrics import CopyResult
from repro.serve import ArtifactStore, ServerConfig, ServerThread, StoreError
from repro.serve import dispatch as dispatch_module
from repro.vm import disassemble
from repro.workloads import gcd_module

KEY = WatermarkKey(secret=b"serve-key", inputs=[25, 10])
BITS = 16
PIECES = 8


@pytest.fixture(autouse=True)
def _isolated_obs():
    previous = obs.set_registry(MetricsRegistry())
    obs.disable_tracing()
    yield
    obs.set_registry(previous)
    obs.disable_tracing()


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("serve") / "store")
    store = ArtifactStore(root)
    store.put(prepare(gcd_module(), KEY, BITS, PIECES), label="gcd")
    return root


@pytest.fixture(scope="module")
def digest(store_root):
    return ArtifactStore(store_root, create=False).records()[0].digest


def request(server, method, path, doc=None):
    """One HTTP exchange; returns (status, parsed body or text)."""
    conn = http.client.HTTPConnection(
        server.service.config.host, server.service.port, timeout=30
    )
    try:
        body = None if doc is None else json.dumps(doc)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        payload = response.read().decode()
        if response.getheader("Content-Type", "").startswith(
            "application/json"
        ):
            return response.status, json.loads(payload), response
        return response.status, payload, response
    finally:
        conn.close()


def thread_config(store_root, **overrides):
    defaults = dict(
        store_root=store_root, port=0, executor="thread", workers=2
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestEndToEnd:
    def test_embed_recognize_round_trip(self, store_root, digest):
        with ServerThread(thread_config(store_root)) as server:
            status, health, _ = request(server, "GET", "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["artifacts"] == 1

            status, embed, _ = request(server, "POST", "/v1/embed", {
                "artifact": digest[:12],   # prefixes resolve
                "copy_id": "acme",
                "watermark": "0x1234",
                "seed": 7,
            })
            assert status == 200
            assert embed["verified"] is True
            assert embed["recognized"] == 0x1234
            assert embed["artifact"] == digest

            status, rec, _ = request(server, "POST", "/v1/recognize", {
                "artifact": digest, "module": embed["module"],
            })
            assert status == 200
            assert rec["complete"] is True
            assert rec["value"] == 0x1234

    def test_concurrent_requests_all_succeed(self, store_root, digest):
        config = thread_config(store_root, workers=2, queue_depth=8)
        outcomes = []
        lock = threading.Lock()
        with ServerThread(config) as server:
            def mint(index):
                status, doc, _ = request(server, "POST", "/v1/embed", {
                    "artifact": digest,
                    "copy_id": f"copy-{index}",
                    "watermark": index + 1,
                    "seed": index,
                })
                with lock:
                    outcomes.append((status, doc.get("recognized")))
            threads = [
                threading.Thread(target=mint, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sorted(outcomes) == [
            (200, 1), (200, 2), (200, 3), (200, 4)
        ]

    def test_unmarked_module_recognize_is_422_with_funnel(
        self, store_root, digest
    ):
        with ServerThread(thread_config(store_root)) as server:
            status, doc, _ = request(server, "POST", "/v1/recognize", {
                "artifact": digest,
                "module": disassemble(gcd_module()),
            })
            assert status == 422
            assert doc["complete"] is False
            assert doc["report"]["complete"] is False
            assert doc["report"]["moduli_missing"]  # funnel travels along

    def test_metrics_and_artifacts_endpoints(self, store_root, digest):
        with ServerThread(thread_config(store_root)) as server:
            request(server, "GET", "/healthz")
            status, listing, _ = request(server, "GET", "/v1/artifacts")
            assert status == 200
            assert [a["digest"] for a in listing["artifacts"]] == [digest]

            status, text, response = request(server, "GET", "/metrics")
            assert status == 200
            assert response.getheader("Content-Type").startswith("text/plain")
            assert "repro_http_requests_total" in text
            assert 'repro_http_request_seconds_bucket{' in text
            assert 'route="/healthz"' in text

    def test_process_pool_end_to_end(self, store_root, digest):
        config = ServerConfig(
            store_root=store_root, port=0, executor="process", workers=1
        )
        with ServerThread(config) as server:
            status, embed, _ = request(server, "POST", "/v1/embed", {
                "artifact": digest, "copy_id": "proc",
                "watermark": 0x0CAF, "seed": 1,
            })
            assert status == 200
            assert embed["verified"] is True
            status, rec, _ = request(server, "POST", "/v1/recognize", {
                "artifact": digest, "module": embed["module"],
            })
            assert (status, rec["value"]) == (200, 0x0CAF)


class TestValidation:
    def test_error_shapes(self, store_root, digest):
        with ServerThread(thread_config(store_root)) as server:
            cases = [
                ("GET", "/nope", None, 404),
                ("DELETE", "/healthz", None, 405),
                ("POST", "/v1/embed", {"copy_id": "x"}, 400),  # no artifact
                ("POST", "/v1/embed",
                 {"artifact": "0" * 64, "copy_id": "x", "watermark": 1},
                 404),  # unknown digest
                ("POST", "/v1/embed",
                 {"artifact": digest, "copy_id": "x", "watermark": "zz"},
                 400),
                ("POST", "/v1/embed",
                 {"artifact": digest, "copy_id": "x",
                  "watermark": 1 << BITS}, 400),  # too wide for artifact
                ("POST", "/v1/recognize", {"artifact": digest}, 400),
            ]
            for method, path, doc, expected in cases:
                status, body, _ = request(server, method, path, doc)
                assert status == expected, (method, path, body)
                assert "error" in body

    def test_malformed_json_body(self, store_root):
        with ServerThread(thread_config(store_root)) as server:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.service.port, timeout=10
            )
            try:
                conn.request("POST", "/v1/embed", body="{not json")
                response = conn.getresponse()
                assert response.status == 400
            finally:
                conn.close()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ServerConfig(store_root="s", workers=0)
        with pytest.raises(ValueError, match="executor"):
            ServerConfig(store_root="s", executor="fibers")
        with pytest.raises(ValueError, match="timeout"):
            ServerConfig(store_root="s", request_timeout=0)

    def test_missing_store_fails_startup(self, tmp_path):
        config = ServerConfig(store_root=str(tmp_path / "void"))
        with pytest.raises(StoreError, match="no artifact store"):
            ServerThread(config)


def fake_result(spec_args):
    """A verified CopyResult shaped like service_embed_copy's output."""
    _store_root, _digest, spec = spec_args[:3]
    return CopyResult(
        copy_id=spec.copy_id, watermark=spec.watermark, seed=spec.seed,
        ok=True, checked=True, self_check=True, output_ok=True,
        recognized=spec.watermark, text="stub", piece_count=1,
    )


class TestBackpressure:
    def test_queue_full_gives_429_with_retry_after(
        self, store_root, digest, monkeypatch
    ):
        release = threading.Event()
        entered = threading.Event()

        def blocking_embed(*args):
            entered.set()
            assert release.wait(timeout=30)
            return fake_result(args)

        monkeypatch.setattr(
            dispatch_module, "service_embed_copy", blocking_embed
        )
        config = thread_config(store_root, workers=1, queue_depth=0)
        with ServerThread(config) as server:
            body = {
                "artifact": digest, "copy_id": "slow", "watermark": 1,
            }
            first = {}

            def go():
                status, doc, _ = request(server, "POST", "/v1/embed", body)
                first["status"] = status

            t = threading.Thread(target=go)
            t.start()
            assert entered.wait(timeout=10)  # worker slot now occupied

            status, doc, response = request(server, "POST", "/v1/embed", {
                "artifact": digest, "copy_id": "shed", "watermark": 2,
            })
            assert status == 429
            assert response.getheader("Retry-After") == "1"
            assert "queue full" in doc["error"]

            release.set()
            t.join(timeout=30)
            assert first["status"] == 200

            _, text, _ = request(server, "GET", "/metrics")
            assert ('repro_http_requests_total{method="POST",'
                    'route="/v1/embed",status="429"} 1') in text

    def test_slow_job_gives_504(self, store_root, digest, monkeypatch):
        def slow_embed(*args):
            time.sleep(0.5)
            return fake_result(args)

        monkeypatch.setattr(dispatch_module, "service_embed_copy", slow_embed)
        config = thread_config(
            store_root, workers=1, request_timeout=0.05
        )
        with ServerThread(config) as server:
            status, doc, _ = request(server, "POST", "/v1/embed", {
                "artifact": digest, "copy_id": "late", "watermark": 1,
            })
            assert status == 504
            assert "budget" in doc["error"]


class TestWorkerDeathRetry:
    def test_broken_pool_rebuilds_and_retries_once(
        self, store_root, digest, monkeypatch
    ):
        calls = {"n": 0}

        def dying_embed(*args):
            calls["n"] += 1
            if calls["n"] == 1:
                raise BrokenExecutor("worker died under the job")
            return fake_result(args)

        monkeypatch.setattr(dispatch_module, "service_embed_copy", dying_embed)
        with ServerThread(thread_config(store_root, workers=1)) as server:
            status, doc, _ = request(server, "POST", "/v1/embed", {
                "artifact": digest, "copy_id": "phoenix", "watermark": 5,
            })
            assert status == 200
            assert doc["recognized"] == 5
            assert calls["n"] == 2
            _, text, _ = request(server, "GET", "/metrics")
            assert "repro_http_worker_retries_total 1" in text

    def test_pool_dying_twice_gives_503(
        self, store_root, digest, monkeypatch
    ):
        def always_dying(*args):
            raise BrokenExecutor("unlucky host")

        monkeypatch.setattr(
            dispatch_module, "service_embed_copy", always_dying
        )
        with ServerThread(thread_config(store_root, workers=1)) as server:
            status, doc, _ = request(server, "POST", "/v1/embed", {
                "artifact": digest, "copy_id": "doomed", "watermark": 5,
            })
            assert status == 503
            assert "twice" in doc["error"]


class TestSpanGrafting:
    def test_request_span_tree_is_coherent(self, store_root, digest):
        obs.enable_tracing()
        config = ServerConfig(
            store_root=store_root, port=0, executor="process", workers=1
        )
        with ServerThread(config) as server:
            status, _, _ = request(server, "POST", "/v1/embed", {
                "artifact": digest, "copy_id": "traced", "watermark": 9,
            })
            assert status == 200
        spans = obs.get_tracer().drain()
        by_name = {s.name: s for s in spans}
        assert "http.request" in by_name
        assert "copy" in by_name
        request_span = by_name["http.request"]
        copy_span = by_name["copy"]
        assert copy_span.parent_id == request_span.span_id
        assert copy_span.trace_id == request_span.trace_id
        assert by_name["copy.embed"].parent_id == copy_span.span_id


class TestOnlineRebalance:
    @pytest.fixture()
    def fabric_root(self, tmp_path):
        from repro.serve.fabric import ShardedArtifactStore

        root = str(tmp_path / "fabric")
        fabric = ShardedArtifactStore(root, shards=2)
        fabric.put(prepare(gcd_module(), KEY, BITS, PIECES), label="gcd")
        return root

    def test_add_then_remove_shard_online(self, fabric_root):
        with ServerThread(thread_config(fabric_root)) as server:
            digest = server.service.store.records()[0].digest

            status, doc, _ = request(server, "POST", "/v1/store/rebalance",
                                     {"action": "add-shard"})
            assert status == 200
            assert doc["action"] == "add-shard"
            assert doc["report"]["added"] == "shard-02"
            assert doc["shards"] == ["shard-00", "shard-01", "shard-02"]

            status, health, _ = request(server, "GET", "/healthz")
            assert status == 200
            assert health["rebalancing"] is False
            assert health["artifacts"] == 1

            # The artifact survived the move (wherever it landed) and
            # the daemon serves from the grown ring without a restart.
            status, embed, _ = request(server, "POST", "/v1/embed", {
                "artifact": digest, "copy_id": "post-add", "watermark": 3,
            })
            assert status == 200 and embed["verified"] is True

            status, doc, _ = request(server, "POST", "/v1/store/rebalance",
                                     {"action": "remove-shard",
                                      "shard": "shard-02"})
            assert status == 200
            assert doc["report"]["removed"] == "shard-02"
            assert doc["shards"] == ["shard-00", "shard-01"]
            status, embed, _ = request(server, "POST", "/v1/embed", {
                "artifact": digest, "copy_id": "post-remove", "watermark": 4,
            })
            assert status == 200 and embed["verified"] is True

    def test_rebalance_emits_a_journal_event(self, fabric_root):
        with ServerThread(thread_config(fabric_root)) as server:
            status, _, _ = request(server, "POST", "/v1/store/rebalance",
                                   {"action": "add-shard", "shard": "extra"})
            assert status == 200
            events = server.service.hub.tail(kind="store.rebalance")
            assert len(events) == 1
            assert events[0].attrs["action"] == "add-shard"
            assert events[0].attrs["shards"] == 3

    @pytest.mark.parametrize("doc,fragment", [
        ({}, "action"),
        ({"action": "explode"}, "action"),
        ({"action": "remove-shard"}, "requires 'shard'"),
        ({"action": "add-shard", "shard": 7}, "must be a string"),
        ({"action": "add-shard", "shard": "shard-00"}, "already in fabric"),
        ({"action": "remove-shard", "shard": "ghost"}, "no shard"),
    ])
    def test_rebalance_rejects_bad_requests(self, fabric_root, doc, fragment):
        with ServerThread(thread_config(fabric_root)) as server:
            status, body, _ = request(
                server, "POST", "/v1/store/rebalance", doc
            )
            assert status == 400
            assert fragment in body["error"]

    def test_plain_store_cannot_rebalance(self, store_root):
        with ServerThread(thread_config(store_root)) as server:
            status, body, _ = request(server, "POST", "/v1/store/rebalance",
                                      {"action": "add-shard"})
            assert status == 400
            assert "not a sharded fabric" in body["error"]

    def test_admission_pauses_while_rebalancing(self, fabric_root):
        with ServerThread(thread_config(fabric_root)) as server:
            digest = server.service.store.records()[0].digest
            server.service._rebalancing = True
            try:
                status, body, response = request(
                    server, "POST", "/v1/embed",
                    {"artifact": digest, "copy_id": "x", "watermark": 1},
                )
                assert status == 503
                assert "admission paused" in body["error"]
                assert response.getheader("Retry-After") is not None
                status, health, _ = request(server, "GET", "/healthz")
                assert status == 200
                assert health["rebalancing"] is True
                status, body, _ = request(server, "POST",
                                          "/v1/store/rebalance",
                                          {"action": "add-shard"})
                assert status == 409
            finally:
                server.service._rebalancing = False
            status, embed, _ = request(server, "POST", "/v1/embed", {
                "artifact": digest, "copy_id": "x", "watermark": 1,
            })
            assert status == 200


class TestFleetFrontEnd:
    """A daemon started with ``fleet=`` answers like a local one.

    One worker daemon (thread executor) serves both as the fleet's only
    worker and as the local-mode reference: the same request sent to
    the front end and straight to the worker must come back with the
    same status and body, ``wall_seconds`` aside.
    """

    @pytest.fixture()
    def servers(self, store_root, tmp_path):
        worker = ServerThread(thread_config(store_root, workers=1)).start()
        fleet_file = tmp_path / "workers.json"
        fleet_file.write_text(json.dumps({"workers": [
            {"name": "w0", "url": worker.base_url, "capacity": 1},
        ]}))
        try:
            front = ServerThread(
                thread_config(store_root, fleet=str(fleet_file))
            ).start()
            try:
                yield front, worker
            finally:
                front.stop()
        finally:
            worker.stop()

    @staticmethod
    def same_answer(front, worker, path, doc):
        front_status, front_body, _ = request(front, "POST", path, doc)
        local_status, local_body, _ = request(worker, "POST", path, doc)
        assert front_status == local_status
        assert set(front_body) == set(local_body)
        for body in (front_body, local_body):
            body.pop("wall_seconds", None)
        assert front_body == local_body
        return front_status, front_body

    def test_embed_and_recognize_match_local_mode(self, servers, digest):
        front, worker = servers
        status, embed = self.same_answer(front, worker, "/v1/embed", {
            "artifact": digest, "copy_id": "fleet", "watermark": 0x0BAD,
            "seed": 3,
        })
        assert status == 200 and embed["verified"] is True
        status, found = self.same_answer(front, worker, "/v1/recognize", {
            "artifact": digest, "module": embed["module"],
        })
        assert (status, found["value"]) == (200, 0x0BAD)
        status, missing = self.same_answer(front, worker, "/v1/recognize", {
            "artifact": digest, "module": disassemble(gcd_module()),
        })
        assert status == 422 and missing["complete"] is False

    def test_validation_errors_never_reach_a_worker(self, servers, digest):
        front, _worker = servers
        status, body, _ = request(front, "POST", "/v1/embed", {
            "artifact": digest, "copy_id": "wide", "watermark": 1 << BITS,
        })
        assert status == 400 and "fingerprint width" in body["error"]
        # Front end and worker share this process's registry: a
        # forwarded request would have been counted twice.
        requests = obs.get_registry().counter("repro_http_requests_total")
        assert requests.value(
            route="/v1/embed", method="POST", status="400"
        ) == 1
        _, health, _ = request(front, "GET", "/healthz")
        assert health["fleet"]["completed"] == 0
        assert health["fleet"]["errors"] == 0

    def test_healthz_carries_fleet_stats(self, servers):
        front, worker = servers
        _, front_health, _ = request(front, "GET", "/healthz")
        _, local_health, _ = request(worker, "GET", "/healthz")
        assert front_health["fleet"]["mode"] == "fleet"
        assert "fleet" not in local_health
        assert set(front_health) - {"fleet"} == set(local_health)
