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
from repro.parallel.cache import ConstructionCache
from repro.service import (
    AdviceService,
    HttpServiceClient,
    IpcServiceClient,
    RequestError,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    canonical_json,
    execute_job,
    normalize_request,
    ok_envelope,
    request_key,
)
from repro.service.jobs import build_graph
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
    bodies = {canonical_json(envelope) for envelope, status, _ in responses}
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
    keys = {envelope["key"] for envelope, _, _ in responses}
    assert len(keys) == 2


# ----------------------------------------------------------------------
# Backpressure: bounded admission, explicit rejection
# ----------------------------------------------------------------------
def test_overloaded_service_rejects_with_retry_after():
    async def scenario():
        sink = MemorySink()
        service = AdviceService(
            ServiceConfig(max_pending=1, retry_after_s=2.5),
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
    envelope, status, headers = rejected
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
    assert refused[0]["error"] == "draining"
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
    assert len({canonical_json(envelope) for envelope, _, _ in responses}) == 1
    envelope = responses[0][0]
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
def test_response_cache_is_bounded():
    async def scenario():
        service = AdviceService(ServiceConfig(response_entries=2))
        await service.start()
        try:
            for n in (8, 9, 10, 11):
                await service.handle_request({"job": "advice", "n": n}, lane="test")
        finally:
            await service.drain()
        return service

    service = _run_async(scenario())
    assert len(service._responses) == 2


def test_response_cache_disabled():
    async def scenario():
        service = AdviceService(ServiceConfig(response_entries=0))
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
