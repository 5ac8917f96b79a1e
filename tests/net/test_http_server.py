"""Socket-level integration tests for the HTTP serving front end.

Everything here talks to a real listening server over real sockets: the
wire answers must be bitwise-identical to in-process ``service.handle``,
error kinds must map to the documented statuses, backpressure must answer
429 without queueing, a slow-loris peer must be cut off by the read
timeout, oversized bodies must bounce as 413 before being read, and
``/metrics`` must parse as Prometheus text exposition.
"""

from __future__ import annotations

import http.client
import json
import logging
import re
import socket
import threading
import time

import pytest

from repro import Policy
from repro.net import BlowfishClient, BlowfishHTTPError

from harness import (
    GatedService,
    ServerHarness,
    make_domain,
    make_service,
    seeded_request,
)


# -- answers over the wire --------------------------------------------------------------


def test_concurrent_keepalive_clients_match_direct_service(harness):
    """8 keep-alive clients, seeded traffic: wire answers == in-process."""
    reference = make_service()  # same seed, same data, untouched by HTTP
    per_client = 3
    results: dict[int, list[dict]] = {}
    errors: list[BaseException] = []

    def run_client(c: int) -> None:
        try:
            with BlowfishClient(harness.host, harness.port) as client:
                out = []
                for j in range(per_client):
                    response = client.handle(seeded_request(c * per_client + j))
                    assert client.last_status == 200, response
                    out.append(response)
                results[c] = out
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=run_client, args=(c,)) for c in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not errors, errors
    assert sorted(results) == list(range(8))
    for c, responses in results.items():
        for j, response in enumerate(responses):
            direct = reference.handle(seeded_request(c * per_client + j))
            assert response["ok"] and direct["ok"]
            assert response["answers"] == direct["answers"]
            assert response["meta"]["epsilon_spent"] == direct["meta"]["epsilon_spent"]


def test_request_id_round_trips_into_meta(harness):
    with BlowfishClient(harness.host, harness.port) as client:
        response = client.handle(seeded_request(0), request_id="trace-me-7")
        assert response["meta"]["request_id"] == "trace-me-7"
        # a generated id is still echoed end to end
        response = client.handle(seeded_request(1))
        assert response["meta"]["request_id"] == client.last_request_id


def test_body_request_id_wins_without_header(harness):
    """No ``X-Request-Id`` header: the body's own ``request_id`` is used."""
    conn = http.client.HTTPConnection(harness.host, harness.port, timeout=10)
    try:
        request = dict(seeded_request(2), request_id="body-id-1")
        body = json.dumps(request).encode()
        conn.request("POST", "/v1/handle", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        assert resp.status == 200
        assert resp.headers["x-request-id"] == "body-id-1"
        assert payload["meta"]["request_id"] == "body-id-1"
    finally:
        conn.close()


def test_coalesced_duplicates_get_their_own_request_ids():
    """Identical seeded requests in flight execute once but each caller
    still sees its own ``meta.request_id`` (copy-on-write rewrite)."""
    service = make_service(cls=GatedService)
    with ServerHarness(service) as harness:
        request = dict(seeded_request(0, session="shared"), hold=True)
        out: dict[str, dict] = {}

        def send(rid: str) -> None:
            with BlowfishClient(harness.host, harness.port) as client:
                out[rid] = client.handle(dict(request), request_id=rid)

        t1 = threading.Thread(target=send, args=("rid-a",))
        t1.start()
        assert service.entered.acquire(timeout=10)  # first is executing
        t2 = threading.Thread(target=send, args=("rid-b",))
        t2.start()
        time.sleep(0.3)  # let the duplicate coalesce onto the in-flight future
        service.gate.set()
        t1.join(20)
        t2.join(20)
        assert service.executions == 1, "duplicate was not coalesced"
        assert out["rid-a"]["answers"] == out["rid-b"]["answers"]
        assert out["rid-a"]["meta"]["request_id"] == "rid-a"
        assert out["rid-b"]["meta"]["request_id"] == "rid-b"


# -- request-id hardening ---------------------------------------------------------------


def test_body_request_id_cannot_inject_response_headers(harness):
    """CR/LF in a body-supplied ``request_id`` must never split the
    response head into extra headers (the header path is parsed per line,
    but the JSON body accepts any string)."""
    conn = http.client.HTTPConnection(harness.host, harness.port, timeout=10)
    try:
        evil = "x\r\nset-cookie: evil=1"
        request = dict(seeded_request(3), request_id=evil)
        body = json.dumps(request).encode()
        conn.request("POST", "/v1/handle", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        assert resp.status == 200
        assert resp.headers.get("set-cookie") is None  # nothing injected
        echoed = resp.headers["x-request-id"]
        assert "\r" not in echoed and "\n" not in echoed
        assert echoed == "xset-cookie: evil=1"  # control chars stripped
        assert payload["meta"]["request_id"] == echoed
    finally:
        conn.close()


def test_lone_surrogate_request_id_does_not_kill_connection(harness):
    """Lone surrogates are valid JSON; they must be stripped rather than
    blow up ``encode()`` and tear the connection down mid-response."""
    conn = http.client.HTTPConnection(harness.host, harness.port, timeout=10)
    try:
        request = dict(seeded_request(4), request_id="\ud800ok\udfff")
        body = json.dumps(request).encode("ascii")
        conn.request("POST", "/v1/handle", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        assert resp.status == 200
        assert resp.headers["x-request-id"] == "ok"
        assert payload["meta"]["request_id"] == "ok"
        # the keep-alive connection survived and still serves
        conn.request("POST", "/v1/handle",
                     body=json.dumps(seeded_request(5)).encode(),
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 200
    finally:
        conn.close()


def test_unsalvageable_request_id_falls_back_to_generated(harness):
    """An id that is empty after sanitization yields a server id, not an
    empty header."""
    conn = http.client.HTTPConnection(harness.host, harness.port, timeout=10)
    try:
        request = dict(seeded_request(6), request_id="\r\n\t")
        conn.request("POST", "/v1/handle", body=json.dumps(request).encode(),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 200
        assert resp.headers["x-request-id"]  # non-empty, generated
    finally:
        conn.close()


# -- wire-protocol hardening ------------------------------------------------------------


def _raw_roundtrip(host: str, port: int, data: bytes) -> tuple[int, dict, bytes]:
    """Send raw bytes, read exactly one response: ``(status, headers, body)``."""
    with socket.create_connection((host, port), timeout=10) as s:
        s.sendall(data)
        s.settimeout(10)
        buf = b""
        while b"\r\n\r\n" not in buf:
            chunk = s.recv(4096)
            if not chunk:
                break
            buf += chunk
        head, _, body = buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        want = int(headers.get("content-length", 0))
        while len(body) < want:
            chunk = s.recv(4096)
            if not chunk:
                break
            body += chunk
        return status, headers, body[:want]


def test_transfer_encoding_is_rejected(harness):
    """Chunked framing is unsupported: trusting Content-Length while a TE
    header rides along would desync the connection (request smuggling), so
    the request bounces as 400 and the connection closes."""
    status, headers, body = _raw_roundtrip(
        harness.host, harness.port,
        b"POST /v1/handle HTTP/1.1\r\nHost: x\r\n"
        b"Transfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\n",
    )
    assert status == 400
    assert headers["connection"] == "close"
    assert json.loads(body)["error"]["kind"] == "bad_request"


def test_duplicate_content_length_is_rejected(harness):
    """Two Content-Length headers is a smuggling vector — 400, not
    last-wins."""
    status, headers, body = _raw_roundtrip(
        harness.host, harness.port,
        b"POST /v1/handle HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: 2\r\nContent-Length: 12\r\n\r\n{}",
    )
    assert status == 400
    assert headers["connection"] == "close"
    assert json.loads(body)["error"]["kind"] == "bad_request"


def test_connection_header_matches_tokens_not_substrings(harness):
    # an unknown token merely *containing* "close" must not disable
    # HTTP/1.1 keep-alive...
    status, headers, _body = _raw_roundtrip(
        harness.host, harness.port,
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close-notify\r\n\r\n",
    )
    assert status == 200
    assert headers["connection"] == "keep-alive"
    # ...while a real "close" token anywhere in the list does
    status, headers, _body = _raw_roundtrip(
        harness.host, harness.port,
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: foo, close\r\n\r\n",
    )
    assert status == 200
    assert headers["connection"] == "close"


# -- error mapping ----------------------------------------------------------------------


def test_malformed_json_answers_400(harness):
    with BlowfishClient(harness.host, harness.port) as client:
        body = b"{not json"
        status, _headers, payload = client._request(
            "POST", "/v1/handle", body,
            {"Content-Type": "application/json", "Content-Length": str(len(body))},
        )
        assert status == 400
        error = json.loads(payload)["error"]
        assert error["kind"] == "bad_request"


def test_non_object_body_answers_400(harness):
    with BlowfishClient(harness.host, harness.port) as client:
        response = client.handle([1, 2, 3])  # type: ignore[arg-type]
        assert client.last_status == 400
        assert response["error"]["kind"] == "bad_request"


def test_invalid_request_answers_400(harness):
    with BlowfishClient(harness.host, harness.port) as client:
        response = client.handle({"policy": "not-a-spec"})
        assert client.last_status == 400
        assert response["error"]["kind"] == "invalid_request"


def test_budget_exhausted_answers_409(harness):
    with BlowfishClient(harness.host, harness.port) as client:
        first = client.handle(
            seeded_request(0, session="broke", epsilon=0.5, budget=0.5)
        )
        assert client.last_status == 200, first
        # a different epsilon needs a fresh release: 0.5 + 0.7 > budget 0.5
        second = client.handle(
            seeded_request(1, session="broke", epsilon=0.7, budget=0.5)
        )
        assert client.last_status == 409
        assert second["error"]["kind"] == "budget_exhausted"


def test_edge_scan_refusal_answers_422_with_diagnostic_code(harness):
    """An EdgeScanRefused-style refusal maps to 422 and carries the exact
    diagnostic code the static checker predicts (POL2xx)."""
    from repro.core.domain import Attribute, Domain
    from repro.core.graphs import DistanceThresholdGraph

    domain = Domain([Attribute("a", range(4096)), Attribute("b", range(4096))])
    spec = Policy(domain, DistanceThresholdGraph(domain, 1.5)).to_spec()
    spec["constraints"] = [
        {"query": {"kind": "count", "name": "low", "support": [0, 1]}, "value": 3}
    ]
    with BlowfishClient(harness.host, harness.port) as client:
        response = client.handle(
            {
                "policy": spec,
                "epsilon": 0.5,
                "dataset": {"indices": [0, 1], "domain": domain.to_spec()},
                "queries": [{"kind": "count", "support": [0, 1]}],
            }
        )
        assert client.last_status == 422
        assert response["error"]["code"].startswith("POL2")
        assert response["error"]["family"] == "DistanceThresholdGraph"


def test_unknown_route_and_method_mapping(harness):
    with BlowfishClient(harness.host, harness.port) as client:
        status, _h, _b = client._request("GET", "/nope", None, {})
        assert status == 404
        status, _h, _b = client._request("GET", "/v1/handle", None, {})
        assert status == 405
        body = b"{}"
        status, _h, _b = client._request(
            "POST", "/healthz", body, {"Content-Length": str(len(body))}
        )
        assert status == 405


def test_internal_errors_never_leak_tracebacks():
    class ExplodingService(GatedService):
        def handle(self, request):
            raise RuntimeError("secret internal state: /etc/passwd")

    service = make_service(cls=ExplodingService)
    with ServerHarness(service) as harness:
        with BlowfishClient(harness.host, harness.port) as client:
            response = client.handle(seeded_request(0))
            assert client.last_status == 500
            assert response["error"]["kind"] == "internal"
            flat = json.dumps(response)
            assert "secret internal state" not in flat
            assert "Traceback" not in flat


def test_internal_errors_are_logged_with_traceback_and_request_id(caplog):
    class ExplodingService(GatedService):
        def handle(self, request):
            raise RuntimeError("secret internal state: /etc/passwd")

    service = make_service(cls=ExplodingService)
    caplog.set_level(logging.ERROR, logger="repro.net")
    with ServerHarness(service) as harness:
        with BlowfishClient(harness.host, harness.port) as client:
            response = client.handle(seeded_request(0), request_id="req-boom-7")
            assert client.last_status == 500
    records = [r for r in caplog.records if r.name == "repro.net"]
    assert len(records) == 1
    record = records[0]
    assert "req-boom-7" in record.getMessage()
    assert record.exc_info is not None
    assert isinstance(record.exc_info[1], RuntimeError)
    assert "Traceback" in caplog.text
    assert "secret internal state" in caplog.text
    # the log holds the traceback; the 500 body holds neither it nor the
    # exception's message
    flat = json.dumps(response)
    assert "Traceback" not in flat
    assert "secret internal state" not in flat
    assert response["meta"]["request_id"] == "req-boom-7"


# -- backpressure -----------------------------------------------------------------------


def test_saturated_max_inflight_answers_429_with_retry_after():
    service = make_service(cls=GatedService)
    with ServerHarness(service, max_inflight=2, retry_after=3.0) as harness:
        blocked: list[dict] = []

        def send_blocked(i: int) -> None:
            with BlowfishClient(harness.host, harness.port, retries=0) as client:
                blocked.append(client.handle(dict(seeded_request(i), hold=True)))

        # staggered so each lands in its own batch (a batch executes its
        # requests sequentially on one pool thread)
        threads = []
        for i in range(2):
            t = threading.Thread(target=send_blocked, args=(i,))
            t.start()
            threads.append(t)
            assert service.entered.acquire(timeout=10)  # executing service-side

        with BlowfishClient(harness.host, harness.port, retries=0) as client:
            body = json.dumps(seeded_request(9)).encode()
            status, headers, payload = client._request(
                "POST", "/v1/handle", body, {"Content-Length": str(len(body))}
            )
            assert status == 429
            assert headers["retry-after"] == "3"
            assert json.loads(payload)["error"]["kind"] == "overloaded"

        service.gate.set()
        for t in threads:
            t.join(20)
        assert len(blocked) == 2 and all(r["ok"] for r in blocked)


def test_client_retries_429_until_admitted():
    service = make_service(cls=GatedService)
    with ServerHarness(service, max_inflight=1, retry_after=0.2) as harness:
        t = threading.Thread(
            target=lambda: BlowfishClient(harness.host, harness.port, retries=0)
            .handle(dict(seeded_request(0), hold=True))
        )
        t.start()
        assert service.entered.acquire(timeout=10)
        threading.Timer(0.5, service.gate.set).start()
        with BlowfishClient(
            harness.host, harness.port, retries=20, backoff=0.05
        ) as client:
            response = client.handle(seeded_request(1))
            assert client.last_status == 200, response
            assert client.stats["retries_429"] >= 1
        t.join(20)


# -- protocol limits --------------------------------------------------------------------


def test_slow_loris_partial_head_is_cut_off():
    with ServerHarness(make_service(), read_timeout=0.4) as harness:
        start = time.monotonic()
        with socket.create_connection((harness.host, harness.port), timeout=10) as s:
            s.sendall(b"POST /v1/handle HTTP/1.1\r\nHost: x")  # head never finishes
            s.settimeout(10)
            data = s.recv(4096)
        elapsed = time.monotonic() - start
        assert data == b""  # closed without a response: nothing to answer
        assert elapsed < 5.0  # the read timeout, not the test timeout, cut it


def test_idle_keepalive_connection_is_reaped():
    with ServerHarness(make_service(), read_timeout=0.4) as harness:
        with BlowfishClient(harness.host, harness.port, retries=0) as client:
            assert client.handle(seeded_request(0))["ok"]
            sock = client._conn.sock
            sock.settimeout(10)
            assert sock.recv(4096) == b""  # server reaped the idle connection


def test_oversized_body_answers_413():
    max_body = 2048
    with ServerHarness(make_service(), max_body=max_body) as harness:
        request = seeded_request(0)
        request["padding"] = "x" * (max_body * 4)
        with BlowfishClient(harness.host, harness.port, retries=0) as client:
            response = client.handle(request)
            assert client.last_status == 413
            assert response["error"]["kind"] == "bad_request"
        # the server survives and still answers normal traffic
        with BlowfishClient(harness.host, harness.port) as client:
            assert client.handle(seeded_request(1))["ok"]


# -- observability ----------------------------------------------------------------------

_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
    r"[-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[0-9]+)$"
)


def test_metrics_endpoint_renders_parseable_prometheus(harness):
    with BlowfishClient(harness.host, harness.port) as client:
        assert client.handle(seeded_request(0))["ok"]
        client.handle({"policy": "nope"})  # a 400, for the status label
        text = client.metrics_text()
    lines = text.strip().splitlines()
    assert lines, "empty exposition"
    for line in lines:
        if line.startswith("#"):
            assert line.startswith(("# HELP", "# TYPE")), line
        else:
            assert _PROM_LINE.match(line), f"unparseable line: {line!r}"
    assert 'repro_http_requests_total{route="handle",status="200"} 1' in text
    assert 'repro_http_requests_total{route="handle",status="400"} 1' in text
    assert any(l.startswith("repro_http_inflight") for l in lines)
    assert any(l.startswith("repro_http_request_seconds_bucket") for l in lines)


def test_healthz_reports_ok(harness):
    with BlowfishClient(harness.host, harness.port) as client:
        assert client.healthz() == {"status": "ok"}
        assert client.last_status == 200


# -- graceful drain ---------------------------------------------------------------------


def test_close_finishes_inflight_requests():
    """Drain started mid-request: the in-flight request completes (200),
    new connections are refused, and the drain reports clean."""
    service = make_service(cls=GatedService)
    harness = ServerHarness(service, drain_deadline=10.0)
    result: dict[str, object] = {}

    def send() -> None:
        with BlowfishClient(harness.host, harness.port, retries=0) as client:
            result["response"] = client.handle(dict(seeded_request(0), hold=True))
            result["status"] = client.last_status

    t = threading.Thread(target=send)
    t.start()
    assert service.entered.acquire(timeout=10)  # request is inside the service
    harness.begin_close()
    deadline = time.monotonic() + 10
    while not harness.server.draining and time.monotonic() < deadline:
        time.sleep(0.01)
    assert harness.server.draining
    time.sleep(0.2)  # listener is now closed
    with pytest.raises((ConnectionError, OSError, BlowfishHTTPError)):
        with socket.create_connection((harness.host, harness.port), timeout=2) as s:
            s.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            if s.recv(1) == b"":
                raise ConnectionError("refused")
    service.gate.set()  # let the in-flight request finish
    t.join(20)
    harness.close()
    assert result["status"] == 200
    assert result["response"]["ok"] is True  # type: ignore[index]


def test_drain_deadline_aborts_stragglers_with_503():
    """A request still running past the deadline gets a best-effort 503."""
    service = make_service(cls=GatedService)
    harness = ServerHarness(service, drain_deadline=0.3, write_timeout=5.0)
    result: dict[str, object] = {}

    def send() -> None:
        with BlowfishClient(harness.host, harness.port, retries=0) as client:
            try:
                result["response"] = client.handle(dict(seeded_request(0), hold=True))
                result["status"] = client.last_status
            except BlowfishHTTPError as exc:
                result["error"] = exc

    t = threading.Thread(target=send)
    t.start()
    assert service.entered.acquire(timeout=10)
    harness.begin_close()
    time.sleep(1.0)  # deadline (0.3s) passes with the gate still shut
    service.gate.set()
    t.join(20)
    harness.close()
    # the straggler was answered 503 (or cut off) — never silently hung
    if "status" in result:
        assert result["status"] == 503
    else:
        assert isinstance(result["error"], BlowfishHTTPError)
