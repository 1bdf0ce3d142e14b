"""HTTP layer: routes, status codes, and the concurrent-duplicate proof.

The end-to-end acceptance test lives here: two clients POSTing the same
spec while it is in flight must coalesce onto ONE computation (kernel
spy) and both must receive byte-identical record bodies.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

import repro.scenario.runner as scenario_runner_mod
from repro.scenario import sweep_scenario
from repro.serve import BackgroundServer, ScenarioService, record_body
from repro.store import ResultStore
from repro.store.records import PAYLOAD_SUFFIX

from tests.serve.test_request import tiny_spec
from tests.serve.test_service import RunTrialsSpy
from tests.store.test_records import flip_entry_byte

POLL = 0.01


def body_for(gamma: float, trials: int = 2) -> bytes:
    payload = {
        "spec": tiny_spec().to_dict(),
        "params": {"algorithm.gamma": gamma},
        "trials": trials,
    }
    return json.dumps(payload).encode("utf-8")


def call(port: int, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def poll_result(port: int, digest: str, deadline: float = 30.0):
    t0 = time.perf_counter()
    while True:
        status, raw = call(port, "GET", f"/results/{digest}")
        if status != 202:
            return status, raw
        if time.perf_counter() - t0 > deadline:
            raise AssertionError(f"result {digest[:12]} still pending after {deadline}s")
        time.sleep(POLL)


@pytest.fixture
def server(tmp_path):
    service = ScenarioService(ResultStore(tmp_path), workers=2)
    with BackgroundServer(service) as running:
        yield running


class TestRoutes:
    def test_cold_post_then_poll_then_cached_post_byte_identical(self, server):
        status, raw = call(server.port, "POST", "/scenarios", body_for(0.03))
        assert status == 202
        digest = json.loads(raw)["digest"]

        status, first = poll_result(server.port, digest)
        assert status == 200

        status, second = call(server.port, "POST", "/scenarios", body_for(0.03))
        assert status == 200
        assert second == first  # the smoke's byte-diff, in-process

        record = server.service.store.read_record(digest)
        assert first == record_body(record)
        payload = json.loads(first)
        assert payload["digest"] == digest
        assert payload["meta"]["kind"] == "sweep_point"
        assert set(payload["arrays"]) >= {"average_regrets", "max_abs_deficits"}

    def test_status_endpoint_counts(self, server):
        status, raw = call(server.port, "GET", "/status")
        assert status == 200
        counters = json.loads(raw)
        assert counters["workers"] == 2 and counters["workers_alive"] == 2
        assert counters["queue_depth"] == 0

    @pytest.mark.parametrize(
        ("method", "path", "body", "expected"),
        [
            ("POST", "/scenarios", b"{not json", 400),
            ("POST", "/scenarios", b'{"spec": null}', 400),
            ("POST", "/scenarios", b'{"spec": {}, "nope": 1}', 400),
            ("GET", "/scenarios", None, 405),
            ("POST", "/status", b"", 405),
            ("GET", "/results/NOT-HEX", None, 400),
            ("GET", "/results/" + "ab" * 32, None, 404),
            ("GET", "/nowhere", None, 404),
        ],
    )
    def test_error_statuses(self, server, method, path, body, expected):
        status, raw = call(server.port, method, path, body)
        assert status == expected
        assert "error" in json.loads(raw) or json.loads(raw).get("status") == "unknown"

    def test_unknown_component_param_answers_400_not_a_failed_job(self, server):
        spec = tiny_spec().to_dict()
        spec["engine"]["params"] = {"warp": 1}
        bodies = [
            {"spec": spec},
            {"spec": tiny_spec().to_dict(), "params": {"engine.warp": 1}},
        ]
        for body in bodies:
            status, raw = call(server.port, "POST", "/scenarios", json.dumps(body).encode())
            assert status == 400
            assert "warp" in json.loads(raw)["error"]
        assert server.service.status().misses == 0

    def test_corrupt_seeded_record_is_recomputed_byte_identical(self, tmp_path):
        # A payload whose zip directory is intact but whose entry fails
        # its CRC check is not committed: the POST queues it (202), and
        # the recomputed payload matches the original byte for byte.
        store = ResultStore(tmp_path)
        sweep_scenario(tiny_spec(), "algorithm.gamma", [0.03], trials=2, store=store)
        ((digest, _),) = store.iter_records()
        payload = store.record_dir(digest) / f"{digest}{PAYLOAD_SUFFIX}"
        original = payload.read_bytes()
        flip_entry_byte(payload)
        with BackgroundServer(ScenarioService(store, workers=1)) as server:
            status, raw = call(server.port, "POST", "/scenarios", body_for(0.03))
            assert status == 202 and json.loads(raw)["digest"] == digest
            status, _ = poll_result(server.port, digest)
            assert status == 200
            assert server.service.status().computed == 1
        assert payload.read_bytes() == original

    def test_back_pressure_answers_503(self, tmp_path):
        service = ScenarioService(ResultStore(tmp_path), workers=0, max_pending=1)
        with BackgroundServer(service) as server:
            status, _ = call(server.port, "POST", "/scenarios", body_for(0.02))
            assert status == 202
            status, raw = call(server.port, "POST", "/scenarios", body_for(0.03))
            assert status == 503
            assert "retry later" in json.loads(raw)["error"]

    def test_failed_computation_answers_500(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("injected kernel failure")

        monkeypatch.setattr(scenario_runner_mod, "run_trials", explode)
        service = ScenarioService(ResultStore(tmp_path), workers=1)
        with BackgroundServer(service) as server:
            status, raw = call(server.port, "POST", "/scenarios", body_for(0.03))
            assert status == 202
            digest = json.loads(raw)["digest"]
            status, raw = poll_result(server.port, digest)
            assert status == 500
            assert "injected kernel failure" in json.loads(raw)["error"]


def read_response(stream) -> tuple[int, dict[str, str], bytes]:
    """One response from a socket's file: status, headers, body."""
    status_line = stream.readline()
    assert status_line, "the server closed the connection without answering"
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, stream.read(int(headers["content-length"]))


def raw_request(port: int, request: bytes) -> tuple[int, dict[str, str], bytes, bytes]:
    """Send raw bytes on a new connection; the response and whatever
    followed it before the server closed the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        with sock.makefile("rb") as stream:
            status, headers, body = read_response(stream)
            return status, headers, body, stream.read()


def headers_of(count: int) -> bytes:
    return b"".join(b"X-Header-%d: v\r\n" % i for i in range(count))


class TestFraming:
    """Malformed framing is answered, with a JSON error and the
    connection closed, instead of dropping the connection."""

    @pytest.mark.parametrize(
        "request_bytes, expected",
        [
            (b"POST /scenarios HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"GET /status HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431),
            (b"GET /status HTTP/1.1\r\n" + headers_of(101) + b"\r\n", 431),
        ],
        ids=["negative_length", "line_over_limit", "header_lines_over_cap"],
    )
    def test_malformed_framing_is_answered_and_closed(self, server, request_bytes, expected):
        status, headers, body, after = raw_request(server.port, request_bytes)
        assert status == expected
        assert headers["connection"] == "close"
        assert json.loads(body)["error"]
        assert after == b""

    def test_header_lines_at_the_cap_are_served(self, server):
        # 100 header lines, the last one closing the connection.
        request = b"GET /status HTTP/1.1\r\n" + headers_of(99) + b"Connection: close\r\n\r\n"
        status, _, _, after = raw_request(server.port, request)
        assert (status, after) == (200, b"")

    def test_keep_alive_serves_requests_until_connection_close(self, server):
        get = b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n"
        close = b"GET /status HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            with sock.makefile("rb") as stream:
                for request, connection in ((get, "keep-alive"), (get, "keep-alive")):
                    sock.sendall(request)
                    status, headers, _ = read_response(stream)
                    assert (status, headers["connection"]) == (200, connection)
                sock.sendall(close)
                status, headers, _ = read_response(stream)
                assert (status, headers["connection"]) == (200, "close")
                assert stream.read() == b""


class TestMetricsEndpoint:
    def call_with_type(self, port: int, method: str, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, response.read(), response.getheader("Content-Type")
        finally:
            conn.close()

    def test_metrics_renders_prometheus_text(self, server):
        call(server.port, "GET", "/status")  # guarantee at least one observed request
        status, raw, content_type = self.call_with_type(server.port, "GET", "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        text = raw.decode("utf-8")
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'repro_http_requests_total{route="/status",status="200"}' in text
        assert "# TYPE repro_http_request_seconds histogram" in text

    def test_metrics_reports_request_dispositions(self, server):
        status, raw = call(server.port, "POST", "/scenarios", body_for(0.07, trials=1))
        assert status == 202
        digest = json.loads(raw)["digest"]
        poll_result(server.port, digest)
        _, raw, _ = self.call_with_type(server.port, "GET", "/metrics")
        text = raw.decode("utf-8")
        assert 'repro_serve_requests_total{disposition="queued"}' in text
        assert "# TYPE repro_serve_compute_seconds histogram" in text

    def test_metrics_is_get_only(self, server):
        status, raw, content_type = self.call_with_type(server.port, "POST", "/metrics")
        assert status == 405
        assert content_type == "application/json"
        assert "error" in json.loads(raw)

    def test_status_carries_per_route_request_counts(self, server):
        call(server.port, "GET", "/status")
        _, raw = call(server.port, "GET", "/status")
        counts = json.loads(raw)["requests"]
        assert isinstance(counts, dict)
        assert counts.get("/status:200", 0) >= 1


class TestConcurrentDuplicates:
    def test_concurrent_duplicate_posts_coalesce_to_one_computation(
        self, tmp_path, monkeypatch
    ):
        """The PR's acceptance proof: N clients racing the same spec pay
        for ONE simulation and all read byte-identical records."""
        spy = RunTrialsSpy(monkeypatch, delay=0.5)  # hold the point in flight
        service = ScenarioService(ResultStore(tmp_path), workers=2)
        n_clients = 4
        results: list[tuple[int, bytes] | None] = [None] * n_clients
        barrier = threading.Barrier(n_clients)

        with BackgroundServer(service) as server:

            def client(index: int) -> None:
                barrier.wait()
                status, raw = call(server.port, "POST", "/scenarios", body_for(0.03))
                if status == 202:
                    digest = json.loads(raw)["digest"]
                    status, raw = poll_result(server.port, digest)
                results[index] = (status, raw)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert spy.calls == 1  # one simulation, ever
        assert all(result is not None and result[0] == 200 for result in results)
        bodies = {result[1] for result in results}
        assert len(bodies) == 1  # byte-identical for every client
        status = service.status()
        assert status.computed == 1
        assert status.misses == 1
        # every other racing POST either coalesced in flight or hit the
        # committed record, depending on arrival time — never recomputed
        assert status.coalesced + status.hits == n_clients - 1

    def test_duplicate_posts_while_queued_return_the_same_digest(
        self, tmp_path, monkeypatch
    ):
        spy = RunTrialsSpy(monkeypatch, delay=0.3)
        service = ScenarioService(ResultStore(tmp_path), workers=1)
        with BackgroundServer(service) as server:
            status1, raw1 = call(server.port, "POST", "/scenarios", body_for(0.03))
            status2, raw2 = call(server.port, "POST", "/scenarios", body_for(0.03))
            assert status1 == status2 == 202
            assert json.loads(raw1)["digest"] == json.loads(raw2)["digest"]
            digest = json.loads(raw1)["digest"]
            status, _ = poll_result(server.port, digest)
            assert status == 200
        assert spy.calls == 1
