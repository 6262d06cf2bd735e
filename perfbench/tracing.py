"""Per-layer spans, recorded from outside the program.

A traced run replaces the public functions and methods of each layer
with timing wrappers before any work starts.  Nothing under ``src/`` is
edited: the wrappers are installed by rebinding every reference a
``repro`` module holds to the original function (module globals and
module-level dict values such as ``FAMILY_BUILDERS``), and by patching
methods on their classes.

Each wrapped call records one span.  Spans nest per thread; a span's
*self time* is its duration minus the time its child spans cover, so the
per-layer totals add up to the traced wall time without double counting.
Thread CPU time is kept the same way, for processes whose threads
overlap in wall time (the daemon's event loop and its job thread).  A
call nested inside a span of the same layer (``subdivision_family_graph``
calling ``complete_graph_star``) adds its self time to that layer but is
not counted as another call.

The daemon's ``handle_request`` is a coroutine, and requests interleave
on its event loop, so it gets no span: its wrapper only marks when each
request entered, for the queue wait joined by request key.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = ["Span", "Recorder", "layer_totals", "install"]


class Span:
    """One wrapped call: its layer, duration and the time its children took."""

    __slots__ = ("name", "start", "end", "child", "cpu", "child_cpu", "outer", "units")

    def __init__(self, name: str, outer: bool = True) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0
        self.cpu = 0.0
        self.child_cpu = 0.0
        self.outer = outer
        self.units = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    @property
    def self_cpu(self) -> float:
        return self.cpu - self.child_cpu


class Recorder:
    """Keeps every span in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Coroutine calls entered (requests handled).
        self.entered = 0
        self._local = threading.local()
        #: request key -> ``handle_request`` entry time, for the queue-wait join.
        self.entries: Dict[str, float] = {}
        self.queue_waits: List[float] = []
        self._entry = contextvars.ContextVar("perfbench_entry", default=None)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, units: Optional[Callable[[Any], int]] = None) -> Callable:
        """A synchronous wrapper recording one nested span per call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span = Span(name, outer=all(s.name != name for s in stack))
            stack.append(span)
            cpu = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu
                stack.pop()
                if stack:
                    stack[-1].child += span.duration
                    stack[-1].child_cpu += span.cpu
                recorder.spans.append(span)
            if units is not None:
                span.units = units(result)
            return result

        return wrapper

    def wrap_entry(self, fn: Callable) -> Callable:
        """A coroutine wrapper marking each call's entry time for the queue-wait join."""
        recorder = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            recorder.entered += 1
            token = recorder._entry.set(time.perf_counter())
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder._entry.reset(token)

        return wrapper

    def note_entry(self, key: str) -> None:
        """Remember when the request that computed ``key`` entered the service."""
        entry = self._entry.get()
        if entry is not None:
            self.entries.setdefault(key, entry)

    def note_dispatch(self, key: str) -> None:
        """A job for ``key`` starts computing: record how long it queued."""
        entry = self.entries.pop(key, None)
        if entry is not None:
            self.queue_waits.append(time.perf_counter() - entry)


def layer_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: summed self time (wall and thread CPU), outermost calls, and their units."""
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name, {"self_s": 0.0, "self_cpu_s": 0.0, "calls": 0, "units": 0})
        row["self_s"] += span.self_time
        row["self_cpu_s"] += span.self_cpu
        if span.outer:
            row["calls"] += 1
            row["units"] += span.units
    return out


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _import_all() -> None:
    """Import every ``repro`` module, so every reference can be rebound."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every module-level reference to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def _wrap_function(recorder: Recorder, name: str, fn: Callable, units=None) -> None:
    _rebind(fn, recorder.wrap(name, fn, units))


def _wrap_method(recorder: Recorder, cls: type, attr: str, name: str, units=None) -> None:
    setattr(cls, attr, recorder.wrap(name, cls.__dict__[attr], units))


def _public_functions(module, exclude=()) -> List[Callable]:
    return [
        getattr(module, attr)
        for attr in module.__all__
        if attr not in exclude
        and callable(getattr(module, attr))
        and getattr(getattr(module, attr), "__module__", None) == module.__name__
        and not isinstance(getattr(module, attr), type)
    ]


def _subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def install(recorder: Recorder) -> None:
    """Wrap every layer's public entry points; call once, before any work."""
    _import_all()
    from repro.analysis import experiments, fits
    from repro.core.oracle import Oracle
    from repro.fastpath import topology
    from repro.network import builders, constructions
    from repro.network.graph import PortLabeledGraph
    from repro.service import core, jobs, protocol, server
    from repro.simulator.engine import Simulation
    from repro.vectorized import core as vcore
    from repro.vectorized import gadgets
    from repro.verdict import evaluate

    # resolve_rng is RNG plumbing that the mega sampler also calls; it
    # builds no graph.
    for fn in _public_functions(builders, exclude=("resolve_rng",)):
        _wrap_function(recorder, "network.build", fn)
    for fn in _public_functions(constructions):
        _wrap_function(recorder, "network.build", fn)
    _wrap_method(recorder, PortLabeledGraph, "freeze", "network.freeze")
    _wrap_function(recorder, "fastpath.compile", topology.compile_topology)

    for cls in {c for c in _subclasses(Oracle) if "advise" in c.__dict__}:
        _wrap_method(recorder, cls, "advise", "oracles.advise", units=lambda a: a.total_bits())
    _wrap_method(recorder, Simulation, "run", "simulator.run", units=lambda t: t.delivered)

    _wrap_function(recorder, "vectorized.sample", gadgets.sample_edge_tuple_sparse)
    _wrap_function(recorder, "vectorized.program", gadgets.gadget_spanning_program)
    _wrap_function(
        recorder, "vectorized.batch", vcore.run_batch,
        units=lambda counters: sum(rc.delivered for rc in counters),
    )

    for fn in _public_functions(fits):
        _wrap_function(recorder, "analysis.fits", fn)
    _wrap_function(recorder, "analysis.driver", experiments.run_experiment)
    _wrap_function(recorder, "verdict.evaluate", evaluate.evaluate_results)

    # The service layer.  request_key runs on the event loop inside
    # handle_request, which is where the queue-wait join starts; the job
    # wrapper recomputes the key with the unwrapped function.
    original_key = protocol.request_key
    _wrap_function(recorder, "service.parse", protocol.normalize_request)

    def keyed(params):
        key = original_key(params)
        recorder.note_entry(key)
        return key

    _rebind(original_key, recorder.wrap("service.key", functools.wraps(original_key)(keyed)))

    original_job = jobs.execute_job

    def dispatched(params, cache=None):
        recorder.note_dispatch(original_key(params))
        return original_job(params, cache)

    _rebind(original_job, recorder.wrap("service.compute", functools.wraps(original_job)(dispatched)))
    # Only the wire layer's encodes: request_key's own canonical_json
    # call is part of service.key.
    server.canonical_json = recorder.wrap("service.serialize", protocol.canonical_json, units=len)
    core.AdviceService.handle_request = recorder.wrap_entry(core.AdviceService.handle_request)
