"""Delivery schedulers: who receives next.

The paper's upper bounds are claimed for *totally asynchronous*
communication and its lower bounds already hold for synchronous
communication, so the simulator supports both extremes and adversarial
points in between:

* :class:`SynchronousScheduler` — lockstep rounds: a message sent in round
  ``r`` is delivered in round ``r + 1``; intra-round delivery order is a
  fixed deterministic key, so synchronous executions are reproducible (the
  Theorem 3.2 machinery classifies cliques by their deterministic
  synchronous execution).
* :class:`FIFOLinkScheduler` — asynchronous, but per-link FIFO: the next
  message is the oldest undelivered one on a uniformly chosen active link
  (seeded RNG).
* :class:`RandomScheduler` — fully asynchronous: any in-flight message may
  arrive next (exactly-once, no loss), chosen by a seeded RNG.
* :class:`PriorityScheduler` — adversarial: a user-supplied key function
  ranks in-flight messages; the smallest key is delivered first.  Handy
  adversaries: starve all ``"hello"`` control messages
  (:func:`delay_payload`) or deliver them eagerly (:func:`hurry_payload`).

A scheduler is a small mutable queue: ``push(msg)``, ``pop() -> msg``,
``empty() -> bool``.  The engine owns message creation; the scheduler only
chooses the order.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from typing import Callable, Dict, List, Protocol, Tuple

from .messages import InFlightMessage

__all__ = [
    "Scheduler",
    "SynchronousScheduler",
    "FIFOLinkScheduler",
    "RandomScheduler",
    "PriorityScheduler",
    "delay_payload",
    "hurry_payload",
    "make_scheduler",
    "SCHEDULER_NAMES",
]


class Scheduler(Protocol):
    """The queue discipline interface consumed by the engine."""

    def push(self, msg: InFlightMessage) -> None:  # pragma: no cover - protocol
        ...

    def pop(self) -> InFlightMessage:  # pragma: no cover - protocol
        ...

    def empty(self) -> bool:  # pragma: no cover - protocol
        ...


class SynchronousScheduler:
    """Deterministic lockstep rounds (see module docstring).

    Delivery order is exactly what a heap on the key
    ``(deliver_at, repr(receiver), arrival_port, seq)`` would produce, but
    messages are binned by round and each round is sorted *once* when it
    becomes current.  ``push`` is an append and ``pop`` serves from the
    pre-sorted batch.
    """

    def __init__(self) -> None:
        # round -> unsorted [(key, msg)] with key = (repr(recv), port, seq)
        self._rounds: Dict[int, List[Tuple[Tuple, InFlightMessage]]] = {}
        # Current round's batch, sorted descending so pop() is a list.pop().
        self._batch: List[Tuple[Tuple, InFlightMessage]] = []
        self._batch_round = 0
        self._size = 0

    def push(self, msg: InFlightMessage) -> None:
        key = (repr(msg.receiver), msg.arrival_port, msg.seq)
        bin_ = self._rounds.get(msg.deliver_at)
        if bin_ is None:
            self._rounds[msg.deliver_at] = [(key, msg)]
        else:
            bin_.append((key, msg))
        self._size += 1

    def _advance(self) -> None:
        """Make the earliest pending round the current batch."""
        rounds = self._rounds
        if rounds and (not self._batch or min(rounds) <= self._batch_round):
            if self._batch:
                # A push targeted the current (or an earlier) round; fold the
                # batch back and rebuild so global order is preserved.
                rounds.setdefault(self._batch_round, []).extend(self._batch)
            r = min(rounds)
            batch = rounds.pop(r)
            # seq is globally unique, so keys are distinct and the message
            # objects are never compared.
            batch.sort(reverse=True)
            self._batch = batch
            self._batch_round = r

    def pop(self) -> InFlightMessage:
        self._advance()
        if not self._batch:
            raise IndexError("pop from an empty SynchronousScheduler")
        self._size -= 1
        return self._batch.pop()[1]

    def empty(self) -> bool:
        return self._size == 0


class FIFOLinkScheduler:
    """Asynchronous delivery with per-link FIFO order."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._queues: Dict[Tuple[str, str], deque] = {}
        self._active: List[Tuple[str, str]] = []
        self._size = 0

    def push(self, msg: InFlightMessage) -> None:
        link = (repr(msg.sender), repr(msg.receiver))
        queue = self._queues.get(link)
        if queue is None:
            queue = deque()
            self._queues[link] = queue
        if not queue:
            self._active.append(link)
        queue.append(msg)
        self._size += 1

    def pop(self) -> InFlightMessage:
        index = self._rng.randrange(len(self._active))
        link = self._active[index]
        queue = self._queues[link]
        msg = queue.popleft()
        if not queue:
            self._active[index] = self._active[-1]
            self._active.pop()
        self._size -= 1
        return msg

    def empty(self) -> bool:
        return self._size == 0


class RandomScheduler:
    """Fully asynchronous delivery: uniform choice among in-flight messages."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._pool: List[InFlightMessage] = []

    def push(self, msg: InFlightMessage) -> None:
        self._pool.append(msg)

    def pop(self) -> InFlightMessage:
        index = self._rng.randrange(len(self._pool))
        self._pool[index], self._pool[-1] = self._pool[-1], self._pool[index]
        return self._pool.pop()

    def empty(self) -> bool:
        return not self._pool


class PriorityScheduler:
    """Adversarial delivery: smallest ``key(message)`` first, seq tie-break."""

    def __init__(self, key: Callable[[InFlightMessage], float]) -> None:
        self._key = key
        self._heap: List[Tuple[float, int, InFlightMessage]] = []
        self._counter = itertools.count()

    def push(self, msg: InFlightMessage) -> None:
        heapq.heappush(self._heap, (self._key(msg), next(self._counter), msg))

    def pop(self) -> InFlightMessage:
        return heapq.heappop(self._heap)[2]

    def empty(self) -> bool:
        return not self._heap


def delay_payload(payload) -> PriorityScheduler:
    """Adversary that starves messages with the given payload as long as possible."""
    return PriorityScheduler(lambda m: 1.0 if m.payload == payload else 0.0)


def hurry_payload(payload) -> PriorityScheduler:
    """Adversary that always delivers the given payload first."""
    return PriorityScheduler(lambda m: 0.0 if m.payload == payload else 1.0)


#: Names accepted by :func:`make_scheduler`, used to parameterize benchmarks.
SCHEDULER_NAMES = ("sync", "fifo", "random", "delay-hello", "hurry-hello")


def make_scheduler(name: str, seed: int = 0) -> Scheduler:
    """Build a fresh scheduler by name (see :data:`SCHEDULER_NAMES`)."""
    if name == "sync":
        return SynchronousScheduler()
    if name == "fifo":
        return FIFOLinkScheduler(seed)
    if name == "random":
        return RandomScheduler(seed)
    if name == "delay-hello":
        return delay_payload("hello")
    if name == "hurry-hello":
        return hurry_payload("hello")
    raise ValueError(f"unknown scheduler {name!r}; expected one of {SCHEDULER_NAMES}")
