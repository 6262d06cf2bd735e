"""The serving daemon's contracts, stated as executable assertions.

Four contracts, in order of importance:

* **Byte identity** — a served response's payload is byte-for-byte what
  the direct library calls (``run_broadcast`` / ``run_wakeup`` /
  ``oracle.advise``) produce, across tasks x schedulers x seeds, and
  regardless of cache temperature (cold, warm, response-cached).
* **Single-flight coalescing** — N concurrent identical requests cost one
  construction; the other N-1 piggyback, and the counters prove it.
* **Backpressure** — beyond ``max_pending`` distinct in-flight jobs, the
  daemon rejects with ``overloaded`` + ``Retry-After`` instead of
  queueing; rejected work is refused cheaply, not half-admitted.
* **Graceful drain** — SIGTERM lets in-flight requests finish and be
  answered, refuses new ones, exits 0 (the subprocess test drives the
  real ``repro serve`` daemon).
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.algorithms import ALGORITHM_REGISTRY
from repro.cli import main as cli_main
from repro.core import run_task
from repro.core.oracle import advice_to_json
from repro.obs import MemorySink, MetricsRegistry, Observation, apply_event, encode_event
from repro.oracles import make_oracle
from repro.service import (
    AdviceService,
    HttpServiceClient,
    IpcServiceClient,
    RequestError,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    canonical_json,
    error_envelope,
    execute_job,
    normalize_request,
    ok_envelope,
    request_key,
)
from repro.service import core as service_core
from repro.service import server as service_server
from repro.service.jobs import ConstructionCache, build_graph
from repro.simulator.schedulers import make_scheduler

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(REPO_ROOT, "src")


# ----------------------------------------------------------------------
# Protocol: validation and canonicalization
# ----------------------------------------------------------------------
def test_normalize_fills_defaults_deterministically():
    minimal = normalize_request({"job": "simulate", "n": 16})
    explicit = normalize_request(
        {
            "job": "simulate", "task": "broadcast", "family": "kstar", "n": 16,
            "oracle": "light-tree", "algorithm": "SchemeB", "scheduler": "sync",
            "scheduler_seed": 0, "anonymous": False, "trace_level": "full",
        }
    )
    assert minimal == explicit
    assert request_key(minimal) == request_key(explicit)


def test_normalize_wakeup_defaults():
    params = normalize_request({"job": "simulate", "task": "wakeup", "n": 8})
    assert params["oracle"] == "spanning-tree"
    assert params["algorithm"] == "TreeWakeup"


def test_normalize_advice_ignores_simulation_fields():
    params = normalize_request({"job": "advice", "n": 16})
    assert set(params) == {"job", "family", "n", "oracle"}


@pytest.mark.parametrize(
    "bad",
    [
        {"job": "simulate"},                                  # n missing
        {"job": "mystery", "n": 8},                           # unknown job
        {"job": "simulate", "n": 0},                          # n too small
        {"job": "simulate", "n": "8"},                        # n not an int
        {"job": "simulate", "n": True},                       # bool is not an int
        {"job": "simulate", "n": 8, "family": "moebius"},     # unknown family
        {"job": "simulate", "n": 8, "family": ["kstar"]},     # unhashable name
        {"job": "simulate", "n": 8, "oracle": {"null": 1}},   # unhashable name
        {"job": "simulate", "n": 8, "oracle": "psychic"},     # unknown oracle
        {"job": "simulate", "n": 8, "algorithm": "SchemeZ"},  # unknown algorithm
        {"job": "simulate", "n": 8, "scheduler": "chaotic"},  # unknown scheduler
        {"job": "simulate", "n": 8, "scheduler_seed": -1},    # negative seed
        {"job": "simulate", "n": 8, "anonymous": "yes"},      # non-bool
        {"job": "simulate", "n": 8, "schedular": "sync"},     # typo'd field
        ["job", "simulate"],                                  # not an object
        {"job": "simulate", "n": 8, "engine": "legacy"},      # removed field
    ],
)
def test_normalize_rejects_bad_requests(bad):
    with pytest.raises(RequestError):
        normalize_request(bad)


def test_oversize_request_has_too_large_code():
    with pytest.raises(RequestError) as excinfo:
        normalize_request({"job": "advice", "n": 10**9})
    assert excinfo.value.code == "too_large"


def test_request_key_distinguishes_every_field():
    base = {"job": "simulate", "n": 16}
    variants = [
        {"n": 17}, {"task": "wakeup"}, {"family": "path"},
        {"oracle": "null"}, {"algorithm": "Flooding"},
        {"scheduler": "random"}, {"scheduler_seed": 1},
        {"anonymous": True}, {"trace_level": "counters"},
    ]
    keys = {request_key(normalize_request({**base, **v})) for v in variants}
    keys.add(request_key(normalize_request(base)))
    assert len(keys) == len(variants) + 1


# ----------------------------------------------------------------------
# Byte identity: execute_job vs the direct library calls
# ----------------------------------------------------------------------
SCHEDULERS = ("sync", "fifo", "random")
SEEDS = (0, 1, 2)


def _direct_simulate(params):
    """The reference: plain library calls, no service code, no cache."""
    graph = build_graph(params["family"], params["n"])
    oracle = make_oracle(params["oracle"])
    algorithm = ALGORITHM_REGISTRY[params["algorithm"]].cls()
    sink = MemorySink()
    result = run_task(
        params["task"],
        graph,
        oracle,
        algorithm,
        scheduler=make_scheduler(params["scheduler"], params["scheduler_seed"]),
        anonymous=params["anonymous"],
        obs=Observation(sink),
        trace_level=params["trace_level"],
    )
    return result, [encode_event(event) for event in sink.events]


@pytest.mark.parametrize("task", ("broadcast", "wakeup"))
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_simulate_payload_matches_direct_run(task, scheduler, seed):
    params = normalize_request(
        {
            "job": "simulate", "task": task, "family": "kstar", "n": 16,
            "scheduler": scheduler, "scheduler_seed": seed,
        }
    )
    result, trace = _direct_simulate(params)
    cache = ConstructionCache()
    cold = execute_job(params, cache)
    warm = execute_job(params, cache)
    for payload in (cold, warm):
        assert payload["trace_jsonl"] == trace
        assert payload["result"]["messages"] == result.messages
        assert payload["result"]["rounds"] == result.rounds
        assert payload["result"]["oracle_bits"] == result.oracle_bits
    assert canonical_json(cold) == canonical_json(warm)


def test_served_compute_folds_no_metrics(monkeypatch):
    """A ``simulate`` job observes its run through a sink alone: no event is
    folded into a metrics registry, and the payload is unchanged."""
    requests = [
        normalize_request({"job": "simulate", "family": "kstar", "n": 16, "scheduler": "sync"}),
        normalize_request(
            {"job": "simulate", "task": "wakeup", "family": "gnp_sparse", "n": 24,
             "scheduler": "random", "scheduler_seed": 3}
        ),
    ]
    unpatched = [execute_job(params) for params in requests]
    assert all(payload["trace_jsonl"] for payload in unpatched)

    def fold(metrics, event):
        raise AssertionError(f"{event.kind} folded into a metrics registry")

    monkeypatch.setattr("repro.obs.observe.apply_event", fold)
    assert Observation(MemorySink()).metrics is None
    for params, expected in zip(requests, unpatched):
        assert canonical_json(execute_job(params)) == canonical_json(expected)


@pytest.mark.parametrize(
    "fields,flags",
    [
        (
            {"task": "broadcast", "family": "kstar", "n": 16, "scheduler": "sync"},
            ["--task", "broadcast", "--family", "kstar", "--n", "16", "--scheduler", "sync"],
        ),
        (
            {"task": "wakeup", "family": "gnp_sparse", "n": 24, "scheduler": "random",
             "scheduler_seed": 3},
            ["--task", "wakeup", "--family", "gnp_sparse", "--n", "24",
             "--scheduler", "random", "--seed", "3"],
        ),
    ],
    ids=("broadcast-kstar-sync", "wakeup-gnp_sparse-random"),
)
def test_cli_trace_writes_the_simulate_jobs_stream(fields, flags, tmp_path, capsys):
    """The two faces that build a run from names — ``repro trace`` and the
    daemon's ``simulate`` job — write the same event stream, byte for byte."""
    out = tmp_path / "run.jsonl"
    assert cli_main(["trace", *flags, "--out", str(out)]) == 0
    payload = execute_job(normalize_request({"job": "simulate", **fields}))
    assert out.read_text() == "".join(line + "\n" for line in payload["trace_jsonl"])
    assert f"-> {payload['result']['messages']} messages" in capsys.readouterr().out


def test_advice_payload_matches_direct_advise():
    params = normalize_request({"job": "advice", "family": "kstar", "n": 16})
    graph = build_graph("kstar", 16)
    direct = make_oracle("light-tree").advise(graph)
    payload = execute_job(params, ConstructionCache())
    assert payload["advice_json"] == advice_to_json(direct)
    assert payload["total_bits"] == direct.total_bits()


# ----------------------------------------------------------------------
# Byte identity: the live daemon vs the direct calls
# ----------------------------------------------------------------------
def test_served_responses_byte_identical_to_direct(tmp_path):
    uds = str(tmp_path / "ipc.sock")
    requests = [
        {"job": "simulate", "task": task, "family": "kstar", "n": 12,
         "scheduler": scheduler, "scheduler_seed": seed}
        for task in ("broadcast", "wakeup")
        for scheduler in SCHEDULERS
        for seed in SEEDS
    ] + [{"job": "advice", "family": "kstar", "n": 12}]
    with ServiceThread(ServiceConfig(uds=uds)) as st:
        http = HttpServiceClient(*st.http_address)
        ipc = IpcServiceClient(uds)
        try:
            for raw in requests:
                params = normalize_request(raw)
                expected = canonical_json(
                    ok_envelope(request_key(params), execute_job(params))
                ).encode("utf-8")
                assert http.request_raw(raw) == expected          # cold
                assert http.request_raw(raw) == expected          # response-cached
                assert ipc.request_raw(raw) == expected           # other lane
        finally:
            http.close()
            ipc.close()
        assert st.service.served == 3 * len(requests)


def test_http_and_ipc_lanes_agree_and_echo_id(tmp_path):
    uds = str(tmp_path / "ipc.sock")
    with ServiceThread(ServiceConfig(uds=uds)) as st:
        with HttpServiceClient(*st.http_address) as http, IpcServiceClient(uds) as ipc:
            req = {"job": "advice", "family": "kstar", "n": 8}
            http_env = http.request(req)
            ipc_env = ipc.request({**req, "id": 41})
            assert ipc_env.pop("id") == 41
            assert http_env == ipc_env


#: JSON values a client may send as an IPC ``"id"``: numbers, strings,
#: null, a list, an object whose keys are out of order, and a non-ASCII
#: string.
_IPC_IDS = (41, "x", None, 1.5, [1, 2], {"b": 1, "a": 2}, "b\u00e9ta \u2192 \u03b3")


@pytest.mark.parametrize("request_id", _IPC_IDS, ids=lambda v: json.dumps(v))
def test_ipc_id_echo_is_canonical_json_of_the_envelope_with_id(tmp_path, request_id):
    """The echoed bytes equal ``canonical_json({**envelope, "id": id})`` for a
    computed response, a cached hit and an error envelope."""
    uds = str(tmp_path / "ipc.sock")
    raw = {"job": "simulate", "family": "kstar", "n": 8}
    params = normalize_request(raw)
    computed = ok_envelope(request_key(params), execute_job(params))
    bad = {"job": "nope"}
    with pytest.raises(RequestError) as refusal:
        normalize_request(bad)
    error = error_envelope(refusal.value.code, str(refusal.value))

    def expected(envelope):
        return canonical_json({**envelope, "id": request_id}).encode("utf-8")

    with ServiceThread(ServiceConfig(uds=uds)) as st:
        with IpcServiceClient(uds) as ipc:
            assert ipc.request_raw({**raw, "id": request_id}) == expected(computed)
            assert ipc.request_raw({**raw, "id": request_id}) == expected(computed)
            assert ipc.request_raw({**bad, "id": request_id}) == expected(error)
        assert st.service.served == 2
        assert len(st.service._responses) == 1  # the second answer was a hit


def _refuse_to_encode(value):
    raise AssertionError("the service encoded an envelope it had stored")


def _post_raw(client, data):
    """POST ``data`` on ``client``'s connection; returns (status, body bytes)."""
    client._conn.request(
        "POST", "/v1/jobs", body=canonical_json(data).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    response = client._conn.getresponse()
    return response.status, response.read()


def test_response_cache_hit_encodes_nothing(tmp_path, monkeypatch):
    """A hit is answered with the bytes stored when the key was computed."""
    uds = str(tmp_path / "ipc.sock")
    raw = {"job": "simulate", "family": "kstar", "n": 12}
    params = normalize_request(raw)
    expected = canonical_json(
        ok_envelope(request_key(params), execute_job(params))
    ).encode("utf-8")
    with ServiceThread(ServiceConfig(uds=uds)) as st:
        with HttpServiceClient(*st.http_address) as http, IpcServiceClient(uds) as ipc:
            assert _post_raw(http, raw) == (200, expected)
            monkeypatch.setattr(service_core, "canonical_json", _refuse_to_encode)
            monkeypatch.setattr(service_server, "canonical_json", _refuse_to_encode)
            assert _post_raw(http, raw) == (200, expected)
            assert ipc.request_raw(raw) == expected
        assert st.service.served == 3


def test_coalesced_waiters_get_the_leaders_bytes(monkeypatch):
    """One encode for a key computed once, however many requests await it."""
    encodes = []

    def encode_once(value):
        encodes.append(value)
        if len(encodes) > 1:
            _refuse_to_encode(value)
        return canonical_json(value)

    async def scenario():
        service = AdviceService(ServiceConfig())
        await service.start()
        try:
            release = threading.Event()

            def slow_job(params):
                release.wait(timeout=30)
                return execute_job(params)

            service._job_fn = slow_job
            monkeypatch.setattr(service_core, "canonical_json", encode_once)
            request = {"job": "advice", "family": "kstar", "n": 8}
            tasks = [
                asyncio.create_task(service.handle_request(dict(request), lane="test"))
                for _ in range(3)
            ]
            while not service._inflight:
                await asyncio.sleep(0.01)
            release.set()
            responses = await asyncio.gather(*tasks)
            responses.append(await service.handle_request(dict(request), lane="test"))
        finally:
            await service.drain()
        return responses

    responses = _run_async(scenario())
    params = normalize_request({"job": "advice", "family": "kstar", "n": 8})
    expected = canonical_json(
        ok_envelope(request_key(params), execute_job(params))
    ).encode("utf-8")
    assert responses == [(expected, 200, {})] * 4
    assert len(encodes) == 1


# ----------------------------------------------------------------------
# Coalescing: N concurrent identical requests -> one construction
# ----------------------------------------------------------------------
def _run_async(coro):
    return asyncio.run(coro)


def test_identical_inflight_requests_coalesce():
    async def scenario():
        service = AdviceService(ServiceConfig())
        await service.start()
        try:
            release = threading.Event()
            computed = []

            def slow_job(params):
                release.wait(timeout=30)
                computed.append(params)
                return execute_job(params)

            service._job_fn = slow_job
            request = {"job": "advice", "family": "kstar", "n": 8}
            tasks = [
                asyncio.create_task(service.handle_request(dict(request), lane="test"))
                for _ in range(5)
            ]
            while not service._inflight:
                await asyncio.sleep(0.01)
            release.set()
            responses = await asyncio.gather(*tasks)
        finally:
            await service.drain()
        return service, computed, responses

    service, computed, responses = _run_async(scenario())
    assert len(computed) == 1  # one construction for five requests
    bodies = {body for body, status, _ in responses}
    assert len(bodies) == 1
    assert all(status == 200 for _, status, _ in responses)
    assert service.served == 5


def test_coalescing_counters_in_access_log():
    async def scenario():
        sink = MemorySink()
        service = AdviceService(
            ServiceConfig(), obs=Observation(sink, metrics=MetricsRegistry())
        )
        await service.start()
        try:
            release = threading.Event()

            def slow_job(params):
                release.wait(timeout=30)
                return execute_job(params)

            service._job_fn = slow_job
            request = {"job": "advice", "family": "kstar", "n": 8}
            tasks = [
                asyncio.create_task(service.handle_request(dict(request), lane="test"))
                for _ in range(4)
            ]
            while not service._inflight:
                await asyncio.sleep(0.01)
            release.set()
            await asyncio.gather(*tasks)
        finally:
            await service.drain()
        return service

    service = _run_async(scenario())
    snap = service.obs.metrics.snapshot()
    assert snap["service_computed"]["value"] == 1
    assert snap["service_coalesced"]["value"] == 3
    assert snap["service_requests"]["value"] == 4
    assert snap["service_responses"]["value"] == 4


def test_distinct_requests_do_not_coalesce():
    async def scenario():
        service = AdviceService(ServiceConfig())
        await service.start()
        try:
            responses = await asyncio.gather(
                service.handle_request({"job": "advice", "n": 8}, lane="test"),
                service.handle_request({"job": "advice", "n": 9}, lane="test"),
            )
        finally:
            await service.drain()
        return responses

    responses = _run_async(scenario())
    keys = {json.loads(body)["key"] for body, _, _ in responses}
    assert len(keys) == 2


# ----------------------------------------------------------------------
# Backpressure: bounded admission, explicit rejection
# ----------------------------------------------------------------------
def test_overloaded_service_rejects_with_retry_after(monkeypatch):
    monkeypatch.setattr(service_core, "RETRY_AFTER_S", 2.5)

    async def scenario():
        sink = MemorySink()
        service = AdviceService(
            ServiceConfig(max_pending=1),
            obs=Observation(sink, metrics=MetricsRegistry()),
        )
        await service.start()
        try:
            release = threading.Event()

            def slow_job(params):
                release.wait(timeout=30)
                return execute_job(params)

            service._job_fn = slow_job
            blocker = asyncio.create_task(
                service.handle_request({"job": "advice", "n": 8}, lane="test")
            )
            while not service._inflight:
                await asyncio.sleep(0.01)
            # a *different* request while the slot is taken: rejected
            rejected = await service.handle_request(
                {"job": "advice", "n": 9}, lane="test"
            )
            # an *identical* request coalesces instead of being rejected
            coalesced_task = asyncio.create_task(
                service.handle_request({"job": "advice", "n": 8}, lane="test")
            )
            await asyncio.sleep(0.01)
            release.set()
            blocked = await blocker
            coalesced = await coalesced_task
        finally:
            await service.drain()
        return service, rejected, blocked, coalesced

    service, rejected, blocked, coalesced = _run_async(scenario())
    body, status, headers = rejected
    envelope = json.loads(body)
    assert status == 429
    assert envelope["ok"] is False
    assert envelope["error"] == "overloaded"
    assert envelope["retry_after_s"] == 2.5
    assert headers["Retry-After"] == "2.5"
    assert blocked[1] == 200 and coalesced[1] == 200
    assert service.rejected == 1
    snap = service.obs.metrics.snapshot()
    assert snap["service_rejections"]["value"] == 1


def test_rejection_over_http_sets_retry_after_header(tmp_path):
    with ServiceThread(ServiceConfig(max_pending=1)) as st:
        release = threading.Event()

        def slow_job(params):
            release.wait(timeout=30)
            return execute_job(params)

        st.service._job_fn = slow_job
        try:
            first = HttpServiceClient(*st.http_address)
            results = {}

            def drive_first():
                results["first"] = first.request({"job": "advice", "n": 8})

            thread = threading.Thread(target=drive_first)
            thread.start()
            while not st.service._inflight:
                time.sleep(0.01)
            with HttpServiceClient(*st.http_address) as second:
                body = canonical_json({"job": "advice", "n": 9}).encode()
                second._conn.request(
                    "POST", "/v1/jobs", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = second._conn.getresponse()
                raw = json.loads(response.read())
                assert response.status == 429
                assert response.headers["Retry-After"]
                assert raw["error"] == "overloaded"
        finally:
            release.set()
        thread.join(timeout=30)
        first.close()
        assert results["first"]["ok"] is True


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
def test_drain_finishes_inflight_and_refuses_new():
    async def scenario():
        service = AdviceService(ServiceConfig())
        await service.start()
        release = threading.Event()

        def slow_job(params):
            release.wait(timeout=30)
            return execute_job(params)

        service._job_fn = slow_job
        inflight = asyncio.create_task(
            service.handle_request({"job": "advice", "n": 8}, lane="test")
        )
        while not service._inflight:
            await asyncio.sleep(0.01)
        drain = service.request_drain()
        await asyncio.sleep(0.01)
        refused = await service.handle_request({"job": "advice", "n": 9}, lane="test")
        release.set()
        finished = await inflight
        await drain
        return refused, finished, service

    refused, finished, service = _run_async(scenario())
    assert refused[1] == 503
    assert json.loads(refused[0])["error"] == "draining"
    assert finished[1] == 200  # admitted before the drain: answered
    assert service.stopped.is_set()


def test_sigterm_drains_and_exits_zero(tmp_path):
    """The real daemon process: ready line, served request, clean TERM."""
    access_log = str(tmp_path / "access.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--access-log", access_log],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        ready = proc.stdout.readline()
        assert ready.startswith("repro-serve ready http=127.0.0.1:")
        port = int(ready.split("http=127.0.0.1:")[1].split()[0])
        with HttpServiceClient("127.0.0.1", port) as client:
            envelope = client.request({"job": "simulate", "family": "kstar", "n": 12})
            assert envelope["ok"] is True
            assert client.get("/healthz")["status"] == "serving"
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert "repro-serve drained served=1" in err
    kinds = [json.loads(line)["event"] for line in open(access_log)]
    assert kinds[0] == "service_started"
    assert kinds[-1] == "service_drained"
    assert "cache_stats" in kinds


# ----------------------------------------------------------------------
# HTTP endpoints and error mapping
# ----------------------------------------------------------------------
def test_http_control_endpoints_and_errors():
    with ServiceThread(ServiceConfig()) as st:
        with HttpServiceClient(*st.http_address) as client:
            assert client.get("/healthz") == {"ok": True, "status": "serving"}
            stats = client.get("/stats")
            assert stats["served"] == 0
            assert stats["cache"]["entries"] == 0

            with pytest.raises(ServiceError) as excinfo:
                client.request({"job": "simulate", "n": 0})
            assert excinfo.value.code == "bad_request"
            assert excinfo.value.status == 400

            with pytest.raises(ServiceError) as excinfo:
                client.request({"job": "advice", "n": 10**9})
            assert excinfo.value.code == "too_large"

            client._conn.request("POST", "/v1/jobs", body=b"{not json")
            response = client._conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"] == "bad_request"

            client._conn.request("GET", "/v1/nothing-here")
            response = client._conn.getresponse()
            assert response.status == 404
            response.read()

            client._conn.request("GET", "/v1/jobs")
            response = client._conn.getresponse()
            assert response.status == 405
            response.read()


@pytest.mark.parametrize("value", ["close", "Close", "CLOSE", "keep-alive, Close"])
def test_connection_close_is_a_case_insensitive_token(value):
    """``Connection: close`` in any case, alone or in a list, ends the
    connection after the reply, and the reply says so."""
    with ServiceThread(ServiceConfig()) as st:
        with socket.create_connection(st.http_address, timeout=5) as sock:
            sock.sendall(f"GET /healthz HTTP/1.1\r\nConnection: {value}\r\n\r\n".encode())
            chunks = []
            while True:
                chunk = sock.recv(65536)  # times out if the daemon keeps it open
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"\r\nConnection: close" in head
        assert json.loads(body) == {"ok": True, "status": "serving"}


def test_connection_keep_alive_serves_the_next_request():
    """Any other ``Connection`` value keeps the socket open for the next
    request (``http.client`` raises if the daemon closed it)."""
    with ServiceThread(ServiceConfig()) as st:
        with HttpServiceClient(*st.http_address) as client:
            for _ in range(2):
                client._conn.request("GET", "/healthz", headers={"Connection": "keep-alive"})
                response = client._conn.getresponse()
                assert response.getheader("Connection") == "keep-alive"
                assert json.loads(response.read())["status"] == "serving"


def _read_response(stream):
    """One HTTP response from a socket's file: its head lines and its body."""
    head = []
    while (line := stream.readline()) not in (b"\r\n", b""):
        head.append(line.rstrip(b"\r\n"))
    (length,) = [
        int(h.partition(b":")[2]) for h in head if h.lower().startswith(b"content-length:")
    ]
    return head, stream.read(length)


@pytest.mark.parametrize(
    "version,connection,stays_open",
    [("HTTP/1.0", None, False), ("HTTP/1.0", "keep-alive", True), ("HTTP/1.1", None, True)],
    ids=("http10", "http10-keep-alive", "http11"),
)
def test_connection_persists_by_the_request_version(version, connection, stays_open):
    """An HTTP/1.0 request closes its connection unless it lists
    ``keep-alive`` (RFC 9112, section 9.3); HTTP/1.1 keeps it open."""
    request = f"GET /healthz {version}\r\n".encode()
    if connection is not None:
        request += f"Connection: {connection}\r\n".encode()
    request += b"\r\n"
    with ServiceThread(ServiceConfig()) as st:
        with socket.create_connection(st.http_address, timeout=5) as sock:
            stream = sock.makefile("rb")
            for _ in range(2 if stays_open else 1):
                sock.sendall(request)
                head, body = _read_response(stream)
                assert head[0] == b"HTTP/1.1 200 OK"
                expected = b"keep-alive" if stays_open else b"close"
                assert b"Connection: " + expected in head
                assert json.loads(body) == {"ok": True, "status": "serving"}
            if not stays_open:
                assert stream.read() == b""  # times out if the daemon keeps it open


def _read_to_eof(sock) -> bytes:
    """Every byte the daemon sends before it closes the connection."""
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)  # times out if the daemon keeps it open
        except ConnectionResetError:
            chunk = b""  # closed with request bytes unread
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


@pytest.mark.parametrize(
    "request_bytes,problem",
    [
        (b"GARBAGE\r\n\r\n", "malformed request line"),
        (b"GET /" + b"x" * 20_000 + b" HTTP/1.1\r\n\r\n", "request line exceeds 16384 bytes"),
        (
            b"GET /healthz HTTP/1.1\r\nX-Filler: " + b"x" * 20_000 + b"\r\n\r\n",
            "header line exceeds 16384 bytes",
        ),
    ],
    ids=("malformed-request-line", "long-request-line", "long-header-line"),
)
def test_http_head_the_lane_refuses_gets_a_typed_400(request_bytes, problem):
    """A head the lane cannot read is answered, then the connection closes."""
    with ServiceThread(ServiceConfig()) as st:
        with socket.create_connection(st.http_address, timeout=5) as sock:
            sock.sendall(request_bytes)
            raw = _read_to_eof(sock)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request")
        assert b"\r\nConnection: close" in head
        envelope = json.loads(body)
        assert envelope["ok"] is False and envelope["error"] == "bad_request"
        assert problem in envelope["message"]
        with HttpServiceClient(*st.http_address) as client:
            assert client.get("/healthz")["status"] == "serving"


def test_http_eof_mid_head_closes_without_an_answer():
    with ServiceThread(ServiceConfig()) as st:
        with socket.create_connection(st.http_address, timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
            sock.shutdown(socket.SHUT_WR)
            assert _read_to_eof(sock) == b""


@pytest.mark.parametrize(
    "request_bytes",
    [b"GARBAGE\r\n", b"POST /v1/jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n"],
    ids=("malformed-request-line", "bad-content-length"),
)
def test_http_refusal_closes_without_a_reset(request_bytes):
    """A client still sending when the lane refuses its request reads the
    400 and then a clean EOF: the lane half-closes and drains the client's
    bytes before it closes, so the kernel sends no reset."""
    with ServiceThread(ServiceConfig()) as st:
        with socket.create_connection(st.http_address, timeout=5) as sock:
            sock.sendall(request_bytes + b"x" * 300_000)
            chunks = []
            while chunk := sock.recv(65536):  # a reset raises ConnectionResetError
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request")
        assert json.loads(body)["error"] == "bad_request"


#: Bodies the JSON decoder refuses with something other than a decode
#: error: an integer past Python's digit limit, and nesting past the
#: recursion limit.
_HUGE_INT_BODY = b'{"job":"simulate","n":8,"scheduler_seed":' + b"9" * 5000 + b"}"


def _raw_http(address, head: bytes, body: bytes) -> bytes:
    """One raw request on a fresh connection; every byte the daemon sends."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(
            b"POST /v1/jobs HTTP/1.1\r\nConnection: close\r\n" + head + b"\r\n\r\n" + body
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.mark.parametrize(
    "length,body",
    [
        (b"abc", b""),
        (b"-5", b""),
        (None, _HUGE_INT_BODY),
        (None, b"[" * 200_000),
    ],
    ids=("length-abc", "length-negative", "huge-int", "deep-nesting"),
)
def test_http_malformed_bytes_get_typed_400(length, body):
    if length is None:
        length = str(len(body)).encode("ascii")
    with ServiceThread(ServiceConfig()) as st:
        raw = _raw_http(st.http_address, b"Content-Length: " + length, body)
        status_line, _, rest = raw.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 400 Bad Request"
        envelope = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert envelope["ok"] is False and envelope["error"] == "bad_request"
        with HttpServiceClient(*st.http_address) as client:
            assert client.get("/healthz")["status"] == "serving"


@pytest.mark.parametrize(
    "line", [_HUGE_INT_BODY, b"[" * 50_000], ids=("huge-int", "deep-nesting")
)
def test_ipc_malformed_bytes_get_typed_error(tmp_path, line):
    uds = str(tmp_path / "ipc.sock")
    with ServiceThread(ServiceConfig(uds=uds)):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(uds)
            reader = sock.makefile("rb")
            sock.sendall(line + b"\n")
            envelope = json.loads(reader.readline())
            assert envelope["ok"] is False and envelope["error"] == "bad_request"
            sock.sendall(b'{"job":"advice","n":4}\n')
            assert json.loads(reader.readline())["ok"] is True


def test_path_implied_job_endpoints():
    with ServiceThread(ServiceConfig()) as st:
        with HttpServiceClient(*st.http_address) as client:
            advice = client.request({"family": "kstar", "n": 8}, path="/v1/advice")
            simulate = client.request({"family": "kstar", "n": 8}, path="/v1/simulate")
            assert advice["result"]["job"] == "advice"
            assert simulate["result"]["job"] == "simulate"


def test_internal_error_maps_to_500():
    with ServiceThread(ServiceConfig()) as st:
        def broken_job(params):
            raise RuntimeError("worker exploded")

        st.service._job_fn = broken_job
        with HttpServiceClient(*st.http_address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request({"job": "advice", "n": 8})
            assert excinfo.value.code == "internal"
            assert excinfo.value.status == 500
            assert "worker exploded" in str(excinfo.value)


#: Families whose builders refuse n = 1, which ``normalize_request`` admits.
_NO_SINGLETON = ("complete", "kstar", "star", "random_tree", "gnp_sparse", "gnp_dense")


@pytest.mark.parametrize("job", ["advice", "simulate"])
@pytest.mark.parametrize("family", _NO_SINGLETON)
def test_size_the_family_refuses_is_a_typed_400(family, job):
    """The builder's refusal is the client's error: every coalesced waiter
    gets the same 400, and neither cache keeps anything."""

    async def scenario():
        service = AdviceService(ServiceConfig())
        await service.start()
        try:
            release = threading.Event()
            computed = []

            def gated_job(params):
                release.wait(timeout=30)
                computed.append(params)
                return execute_job(params, service.cache)

            service._job_fn = gated_job
            request = {"job": job, "family": family, "n": 1}
            tasks = [
                asyncio.create_task(service.handle_request(dict(request), lane="test"))
                for _ in range(3)
            ]
            while not service._inflight:
                await asyncio.sleep(0.01)
            release.set()
            responses = await asyncio.gather(*tasks)
        finally:
            await service.drain()
        return service, computed, responses

    service, computed, responses = _run_async(scenario())
    assert len(computed) == 1
    assert {status for _, status, _ in responses} == {400}
    assert len({body for body, _, _ in responses}) == 1
    envelope = json.loads(responses[0][0])
    assert envelope["ok"] is False
    assert envelope["error"] == "bad_request"
    assert family in envelope["message"] and "n=1" in envelope["message"]
    assert len(service._responses) == 0
    assert len(service.cache) == 0
    assert service.served == 0


def test_size_the_family_refuses_over_http():
    with ServiceThread(ServiceConfig()) as st:
        with HttpServiceClient(*st.http_address) as client:
            request = {"job": "advice", "family": "complete", "n": 1, "oracle": "light-tree"}
            with pytest.raises(ServiceError) as excinfo:
                client.request(request)
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad_request"
            assert "GraphError" not in str(excinfo.value)
            # Nothing was cached: the same request is refused the same way.
            with pytest.raises(ServiceError) as again:
                client.request(request)
            assert again.value.status == 400
            assert client.request({"job": "advice", "family": "complete", "n": 2})["ok"]
            stats = client.get("/stats")
            assert stats["served"] == 1
            assert stats["response_entries"] == 1


# ----------------------------------------------------------------------
# The access log replays through the standard stats machinery
# ----------------------------------------------------------------------
def test_access_log_replays_to_live_metrics(tmp_path):
    access_log = str(tmp_path / "access.jsonl")
    from repro.obs import JSONLSink

    sink = JSONLSink(access_log)
    service_obs = Observation(sink, metrics=MetricsRegistry())

    async def scenario():
        service = AdviceService(ServiceConfig(), obs=service_obs)
        await service.start()
        try:
            for n in (8, 8, 9):
                await service.handle_request({"job": "advice", "n": n}, lane="test")
        finally:
            await service.drain()
        return service

    service = _run_async(scenario())
    replayed = MetricsRegistry()
    with open(access_log, encoding="utf-8") as handle:
        for line in handle:
            apply_event(replayed, json.loads(line))
    assert replayed.snapshot() == service.obs.metrics.snapshot()
    snap = replayed.snapshot()
    assert snap["service_requests"]["value"] == 3
    assert snap["service_cache_hits"]["value"] == 1  # the repeated n=8
    assert snap["cache_misses"]["value"] == 4  # graph+advice per distinct n
    assert snap["service_served"]["value"] == 3


def test_repro_stats_reads_access_log(tmp_path, capsys):
    access_log = str(tmp_path / "access.jsonl")
    from repro.cli import main
    from repro.obs import JSONLSink

    async def scenario():
        service = AdviceService(
            ServiceConfig(),
            obs=Observation(JSONLSink(access_log), metrics=MetricsRegistry()),
        )
        await service.start()
        try:
            await service.handle_request({"job": "advice", "n": 8}, lane="test")
        finally:
            await service.drain()

    _run_async(scenario())
    assert main(["stats", access_log]) == 0
    out = capsys.readouterr().out
    assert "service_requests" in out
    assert "cache_misses" in out


# ----------------------------------------------------------------------
# Response cache bound
# ----------------------------------------------------------------------
def test_response_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(service_core, "RESPONSE_ENTRIES", 2)

    async def scenario():
        service = AdviceService(ServiceConfig())
        await service.start()
        try:
            for n in (8, 9, 10, 11):
                await service.handle_request({"job": "advice", "n": n}, lane="test")
        finally:
            await service.drain()
        return service

    service = _run_async(scenario())
    assert len(service._responses) == 2


def test_response_cache_disabled(monkeypatch):
    monkeypatch.setattr(service_core, "RESPONSE_ENTRIES", 0)

    async def scenario():
        service = AdviceService(ServiceConfig())
        await service.start()
        try:
            await service.handle_request({"job": "advice", "n": 8}, lane="test")
            await service.handle_request({"job": "advice", "n": 8}, lane="test")
        finally:
            await service.drain()
        return service

    service = _run_async(scenario())
    assert len(service._responses) == 0
    # without a response cache the second request re-runs the job but the
    # construction cache still makes it cheap; both were served fine
    assert service.served == 2
