"""Compiled execution core: the simulation fast path.

:class:`repro.simulator.Simulation` runs every simulation with a fresh
synchronous scheduler here unless ``REPRO_FASTPATH=0`` is set in the
environment.  The package has two halves:

* :mod:`repro.fastpath.topology` — :class:`CompiledTopology`, the
  flat-array (CSR-style) form of a frozen
  :class:`~repro.network.graph.PortLabeledGraph`: nodes mapped to dense
  ``0..n-1`` indices, neighbor-via-port and arrival-port lookups turned
  into two flat-array indexings.  Compiled at ``freeze()`` time, by the
  same pass that checks the network model, and carried by the graph.
* :mod:`repro.fastpath.engine` — :func:`run_fastpath`, a scheduler-free
  round-batched core over plain tuples.  Every other scheduler runs the
  reference loop, ``Simulation._run_legacy``.

The correctness contract (enforced by ``tests/test_fastpath.py``): at
``trace_level="full"`` the fast path is **byte-identical** to the
reference loop — same :class:`~repro.simulator.trace.ExecutionTrace`,
same obs event stream, same JSONL.  See ``docs/PERFORMANCE.md``.
"""

from .engine import run_fastpath
from .topology import CompiledTopology, compile_topology, compiled_topology

__all__ = [
    "CompiledTopology",
    "compile_topology",
    "compiled_topology",
    "run_fastpath",
]
