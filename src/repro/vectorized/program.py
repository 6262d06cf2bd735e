"""Compile a prepared Simulation into a declarative vector program.

The vectorized engine cannot call ``Process.on_receive`` per message —
that callback *is* the per-delivery cost it exists to remove.  Instead,
algorithms whose schemes are simple enough register a *compiler* here
(:func:`register_vector_semantics`) that translates a whole run's scheme
population into a :class:`VectorProgram`: numpy send tables plus an
activation rule.  Both shipped semantics are "act exactly once, on first
receipt" state machines:

* :class:`repro.algorithms.flooding._FloodingScheme` — on activation,
  send on every port except the arrival port (the source, activated at
  init, uses every port);
* :class:`repro.algorithms.tree_wakeup._TreeWakeupScheme` — on
  activation, send on the advice-decoded children ports, in decode
  order.

A compiler must refuse (return ``None``) anything it cannot express
exactly — mixed scheme types, already-consumed scheme state — and the
vectorized engine then falls back to the fast path, keeping the
byte-identity contract trivially intact.

:class:`VectorTopology` wraps the PR 4 :class:`CompiledTopology` in numpy
views.  The ``array('l')`` CSR tables are shared zero-copy via the buffer
protocol; the only derived addition is ``rank`` — the lexicographic rank
of ``repr(label)`` per node, which replaces the repr *string* in the
synchronous delivery sort key (equal reprs get equal ranks, so tie
behavior is unchanged).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Type

import numpy as np

from ..algorithms.flooding import _FloodingScheme
from ..algorithms.tree_wakeup import (
    _TreeWakeupScheme,
    safe_decode_children_ports,
)
from ..fastpath.topology import CompiledTopology

__all__ = [
    "VectorTopology",
    "VectorProgram",
    "compile_program",
    "register_vector_semantics",
]


def _as_i64(buf) -> np.ndarray:
    """Zero-copy int64 view of an ``array('l')`` (itemsize-checked)."""
    arr = np.frombuffer(buf, dtype=np.dtype(f"i{buf.itemsize}"))
    return arr if arr.dtype == np.int64 else arr.astype(np.int64)


class VectorTopology:
    """Numpy views over one :class:`CompiledTopology` (+ repr ranks)."""

    __slots__ = (
        "labels", "index", "degrees", "offsets", "neighbor_at", "arrival_at",
        "rank", "source_index",
    )

    def __init__(self, topo: CompiledTopology) -> None:
        self.labels = topo.labels
        self.index = topo.index
        self.degrees = _as_i64(topo.degrees)
        self.offsets = _as_i64(topo.offsets)
        self.neighbor_at = _as_i64(topo.neighbor_at)
        self.arrival_at = _as_i64(topo.arrival_at)
        # Rank of repr(label) in sorted order; ties (impossible for distinct
        # hashable labels with distinct reprs, but allowed by the contract)
        # collapse to one rank, exactly like equal repr strings compare equal.
        self.rank = np.unique(np.array(topo.reprs), return_inverse=True)[1].astype(
            np.int64
        )
        self.source_index = topo.source_index

    @property
    def num_nodes(self) -> int:
        return len(self.labels)


class VectorProgram:
    """One run's semantics as data: activation rule + send tables.

    ``kind``:

    * ``"flood"`` — on activation, send on every port except the arrival
      port (init activations have no arrival and use every port).
      Destinations come straight from the topology CSR.
    * ``"ports"`` — on activation, send on a fixed per-node port list
      (CSR over ``send_offsets``), independent of the arrival port.
      ``send_dest``/``send_aport`` are precomputed so the engine never
      consults the topology — which is what lets
      :mod:`repro.vectorized.gadgets` run graphs whose full topology was
      never materialized.

    A program holds no payload and no sending ports: the numpy core keeps
    counters only, and both shipped semantics send one constant token.
    """

    __slots__ = ("kind", "init_active", "send_offsets", "send_dest", "send_aport")

    def __init__(
        self,
        kind: str,
        init_active: np.ndarray,
        send_offsets: Optional[np.ndarray] = None,
        send_dest: Optional[np.ndarray] = None,
        send_aport: Optional[np.ndarray] = None,
    ) -> None:
        if kind not in ("flood", "ports"):
            raise ValueError(f"unknown program kind {kind!r}")
        self.kind = kind
        self.init_active = init_active
        self.send_offsets = send_offsets
        self.send_dest = send_dest
        self.send_aport = send_aport


Compiler = Callable[["object", VectorTopology, list], Optional[VectorProgram]]

#: scheme class -> compiler.  Exact-type keyed: a subclass may override
#: behavior, so it gets no compiler unless it registers one itself.
_COMPILERS: Dict[Type, Compiler] = {}


def register_vector_semantics(scheme_cls: Type, compiler: Compiler) -> None:
    """Register a compiler for one scheme class.

    ``compiler(sim, vt, runtimes)`` receives the runtimes in dense node
    order and returns a :class:`VectorProgram`, or ``None`` to decline.
    Future engines/algorithms plug in here with one call.
    """
    _COMPILERS[scheme_cls] = compiler


def compile_program(sim, vt: VectorTopology) -> Optional[VectorProgram]:
    """Compile ``sim``'s scheme population, or ``None`` if inexpressible."""
    runtimes = [sim._runtimes[label] for label in vt.labels]
    if not runtimes:
        return None
    first = type(runtimes[0].process)
    compiler = _COMPILERS.get(first)
    if compiler is None:
        return None
    if any(type(rt.process) is not first for rt in runtimes):
        return None
    return compiler(sim, vt, runtimes)


def _init_active(runtimes) -> np.ndarray:
    return np.fromiter(
        (rt.context.is_source for rt in runtimes), dtype=bool, count=len(runtimes)
    )


def _compile_flooding(sim, vt, runtimes) -> Optional[VectorProgram]:
    # A scheme that already forwarded would stay silent where the program
    # would send; only fresh populations compile.
    if any(rt.process._forwarded for rt in runtimes):
        return None
    return VectorProgram("flood", _init_active(runtimes))


def _compile_tree_wakeup(sim, vt, runtimes) -> Optional[VectorProgram]:
    if any(rt.process._woken for rt in runtimes):
        return None
    port_lists = [
        safe_decode_children_ports(rt.context.advice, rt.context.degree)
        for rt in runtimes
    ]
    n = len(runtimes)
    counts = np.fromiter(map(len, port_lists), dtype=np.int64, count=n)
    send_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=send_offsets[1:])
    flat = [p for ports in port_lists for p in ports]
    send_port = np.array(flat, dtype=np.int64) if flat else np.zeros(0, np.int64)
    owner = np.repeat(np.arange(n, dtype=np.int64), counts)
    slots = vt.offsets[owner] + send_port
    return VectorProgram(
        "ports",
        _init_active(runtimes),
        send_offsets=send_offsets,
        send_dest=vt.neighbor_at[slots],
        send_aport=vt.arrival_at[slots],
    )


register_vector_semantics(_FloodingScheme, _compile_flooding)
register_vector_semantics(_TreeWakeupScheme, _compile_tree_wakeup)
