"""The ``serve`` workload's traffic: a seeded request mix and its closed-loop replay.

The mix is fixed before the first request is sent.  Every
:data:`COMPUTE_STRIDE`-th request computes, the classes of
:data:`COMPUTE_CYCLE` taking turns, and pair families are taken in
turn; the rest are ``hot``.  The hot draws, the scheduler seeds and the
pair sizes are random.  With classes drawn independently, p99 on a 2-CPU
host moved by 2-3x from seed to seed, set by random clusters of
computes.

* ``hot`` — a zipfian draw from :data:`HOT_SET`, primed before timing
  starts, so it hits the daemon's response cache;
* ``seed`` — a zipfian draw from the simulations of :data:`HOT_SET` with
  a ``scheduler_seed`` not used before in the run: the construction
  cache holds the graph and its advice, and the simulation runs;
* ``pair`` — a ``(family, n)`` pair with small ``n`` not used before in
  the run: it misses every cache.

The hot set and its popularity are the committed request universe of
``benchmarks/bench_service.py``.  No recorded traffic gives the class
shares or the pair sizes; they are chosen, as the module constants say.

The replay is closed loop: one client on one keep-alive connection sends
each request once the previous response is complete, as a caller that
waits for each answer does.  Each request is timed from its send to its
complete response.  The timed path checks only the status line and the
``"ok":true`` field near the start of the body; bodies are not decoded.
"""

from __future__ import annotations

import json
import math
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "HOT_SET",
    "PAIR_FAMILIES",
    "PAIR_SIZES",
    "COMPUTE_STRIDE",
    "COMPUTE_CYCLE",
    "KINDS",
    "Request",
    "build_schedule",
    "percentile",
    "supported_percentile",
    "Replay",
    "replay",
]


#: The hot set, most popular first: ``GRID`` of ``benchmarks/bench_service.py``
#: (the serving daemon's own load benchmark), copied so that an edit there
#: does not change this benchmark's inputs.  Payloads span 1-69 KB.
HOT_SET: Tuple[Dict, ...] = tuple(
    {"job": "simulate", "task": task, "family": family, "n": n,
     "scheduler": scheduler, "scheduler_seed": seed}
    for task in ("broadcast", "wakeup")
    for family, n in (("kstar", 32), ("kstar", 64), ("complete", 48), ("path", 96))
    for scheduler, seed in (("sync", 0), ("random", 1))
) + tuple(
    {"job": "advice", "family": family, "n": n}
    for family, n in (("kstar", 32), ("kstar", 64), ("complete", 48))
)
#: Rank ``r`` is drawn with weight ``1/(r+1)**HOT_EXPONENT``, as in
#: ``bench_service.build_mix``.
HOT_EXPONENT = 1.0

#: Families and sizes the fresh-pair class draws from (none is in the hot
#: set).  Chosen: every builder family, at sizes whose compute stays
#: within a few tens of milliseconds.
PAIR_FAMILIES = (
    "path", "cycle", "star", "complete", "kstar", "grid", "random_tree",
    "gnp_sparse", "gnp_dense", "lollipop", "barbell", "wheel", "caterpillar",
)
PAIR_SIZES = range(8, 48)

#: Every this-many-th request computes; the others hit the response cache.
#: Chosen: about 5% computes is enough to fill p99 with them while hits
#: set p50.
COMPUTE_STRIDE = 20
#: The classes the computing slots take in turn, in equal shares.
COMPUTE_CYCLE = ("seed", "pair")
KINDS = ("hot", "seed", "pair")
#: A request unanswered for this long is a timeout.
TIMEOUT_S = 30.0
#: A quantile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10


@dataclass(frozen=True)
class Request:
    """One request of the mix: its class and its body."""

    kind: str
    body: bytes


def build_schedule(seed: int, count: int) -> List[Request]:
    """The ``count`` requests of one run, in order; the same seed gives the same list."""
    rng = random.Random(seed)
    hot_weights = [1.0 / (rank + 1) ** HOT_EXPONENT for rank in range(len(HOT_SET))]
    hot_bodies = [json.dumps(r, sort_keys=True).encode() for r in HOT_SET]
    simulations = [(r, w) for r, w in zip(HOT_SET, hot_weights) if r["job"] == "simulate"]
    hot_pairs = {(r["family"], r["n"]) for r in HOT_SET}
    sizes = {}
    for family in PAIR_FAMILIES:
        sizes[family] = [n for n in PAIR_SIZES if (family, n) not in hot_pairs]
        rng.shuffle(sizes[family])
    used_seeds = {r["scheduler_seed"] for r, _ in simulations}
    pairs_made = 0
    out: List[Request] = []
    for slot in range(count):
        if slot % COMPUTE_STRIDE == COMPUTE_STRIDE - 1:
            kind = COMPUTE_CYCLE[(slot // COMPUTE_STRIDE) % len(COMPUTE_CYCLE)]
        else:
            kind = "hot"
        if kind == "hot":
            body = rng.choices(hot_bodies, weights=hot_weights)[0]
        elif kind == "seed":
            scheduler_seed = rng.randrange(1, 2**31)
            while scheduler_seed in used_seeds:
                scheduler_seed = rng.randrange(1, 2**31)
            used_seeds.add(scheduler_seed)
            graph = rng.choices([r for r, _ in simulations], weights=[w for _, w in simulations])[0]
            body = json.dumps({**graph, "scheduler_seed": scheduler_seed}, sort_keys=True).encode()
        else:
            family = PAIR_FAMILIES[pairs_made % len(PAIR_FAMILIES)]
            pairs_made += 1
            if not sizes[family]:
                raise ValueError("schedule needs more fresh (family, n) pairs than exist")
            n = sizes[family].pop()
            body = json.dumps({"job": "simulate", "family": family, "n": n}, sort_keys=True).encode()
        out.append(Request(kind, body))
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supported_percentile(count: int, q: float) -> bool:
    """Whether ``count`` samples leave :data:`SAMPLES_BEYOND` above the ``q``-quantile."""
    return count * (1.0 - q) >= SAMPLES_BEYOND - 1e-9



@dataclass
class Replay:
    """What one replay measured; index ``i`` of each list is request ``i``."""

    latency_s: List[float] = field(default_factory=list)
    outcome: List[str] = field(default_factory=list)
    samples: Dict[int, bytes] = field(default_factory=dict)
    wall_s: float = 0.0

    def count(self, outcome: str) -> int:
        return sum(1 for o in self.outcome if o == outcome)


_OK_FIELD = b'"ok":true'
_HEAD_END = b"\r\n\r\n"


def _classify(status: int, body_head: bytes) -> str:
    # Canonical envelopes sort their keys: {"key":"<64 hex>","ok":true,...}.
    if status == 200 and body_head.find(_OK_FIELD, 0, 96) != -1:
        return "ok"
    if status == 429:
        return "rejected"
    return "error"


def http_request(host: str, body: bytes) -> bytes:
    """A complete ``POST /v1/jobs`` request on a keep-alive connection."""
    head = (
        f"POST /v1/jobs HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def _exchange(sock: socket.socket, payload: bytes) -> Tuple[int, bytes]:
    """Send one request and read its whole response: ``(status, body)``."""
    sock.sendall(payload)
    buffer = bytearray()
    length = None
    while True:
        chunk = sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        buffer += chunk
        end = buffer.find(_HEAD_END)
        if end < 0:
            continue
        if length is None:
            head = bytes(buffer[:end]).decode("latin-1").split("\r\n")
            status = int(head[0].split()[1])
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
        if len(buffer) >= end + 4 + length:
            return status, bytes(buffer[end + 4:end + 4 + length])


def _connect(address: Tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(address, timeout=TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def replay(
    address: Tuple[str, int],
    requests: Sequence[Request],
    sample: Sequence[int] = (),
) -> Replay:
    """Send ``requests`` one after another; keep the bodies of ``sample``.

    A request unanswered after :data:`TIMEOUT_S` is a timeout, and a
    dropped connection an error; either way the connection is replaced.
    """
    result = Replay()
    keep = set(sample)
    payloads = [http_request(address[0], r.body) for r in requests]
    sock = _connect(address)
    start = time.perf_counter()
    try:
        for index, payload in enumerate(payloads):
            sent = time.perf_counter()
            try:
                status, body = _exchange(sock, payload)
                outcome = _classify(status, body[:96])
            except OSError as exc:
                body = b""
                outcome = "timeout" if isinstance(exc, socket.timeout) else "error"
                sock.close()
                sock = _connect(address)
            result.latency_s.append(time.perf_counter() - sent)
            result.outcome.append(outcome)
            if index in keep:
                result.samples[index] = body
    finally:
        sock.close()
    result.wall_s = time.perf_counter() - start
    return result
