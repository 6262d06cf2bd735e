"""Implicit ``G_{n,S}`` programs: the Theorem 2.2 gadget at mega scale.

``G_{n,S}`` subdivides ``n`` edges of the complete graph ``K*_n`` — so it
has ``Θ(n²)`` edges, and at ``n = 10^5`` its CSR tables would need ~10¹⁰
slots.  No engine that *materializes* the graph can run it.  But the
tree-wakeup upper bound never touches most of that topology: the
spanning-tree oracle reads the graph only to run a BFS, and the scheme
then walks exactly the ``N - 1`` tree edges.  This module derives that
BFS tree in closed form from ``(n, S)`` and emits a
:class:`~repro.vectorized.core.ReplicaProgram` — identical, node for
node and port for port, to what the explicit pipeline
(:func:`~repro.network.constructions.subdivision_family_graph` →
:class:`~repro.oracles.SpanningTreeWakeupOracle` →
:class:`~repro.algorithms.TreeWakeup`) produces, a correspondence pinned
by ``tests/test_engine_properties.py`` at explicit-feasible sizes and by
``tests/test_gadgets.py`` against a level-by-level BFS reference.

The closed form rests on the gadget's port structure: at an original
node ``u`` of ``K*_n``, port ``p`` leads toward label
``((u + p) mod n) + 1`` — cyclic order starting at ``u + 1`` — whether or
not that slot was subdivided, and a hidden node on edge ``{lo, hi}`` has
port 0 to ``lo``, port 1 to ``hi``.  BFS from the source (node 1) is then
three levels deep:

1. The source's ``n - 1`` slots, in port order: slot ``j`` holds the
   original ``j``, or the hidden node ``w(1, j)`` when ``{1, j} ∈ S``.
2. An original ``r`` left out of level 1 — a *residual*, an S-neighbour
   of the source — hangs off the first level-1 node that reaches it: the
   smallest non-residual ``j < r`` with ``{j, r} ∉ S``, or else
   ``w(1, r)``.  A hidden node with a level-1 endpoint hangs off it, the
   smaller label when both endpoints are at level 1.
3. A hidden node between two residuals hangs off the one discovered
   first at level 2.

All of it is array arithmetic over ``S`` except step 2 for residuals,
which loops over the source's S-neighbours and their S-edges only; the
tree costs ``O(n + |S|)`` and the send tables one sort of its ``N - 1``
edges.

:func:`sample_edge_tuple_sparse` replaces
:func:`~repro.network.constructions.sample_edge_tuple` above explicit
scale: the latter enumerates all ``Θ(n²)`` edges to sample ``n`` of them.
Rejection sampling draws the same uniform distribution over ordered
tuples of distinct edges but *not* the same sequence for a given seed —
cross-validation against the explicit path must share the edge tuple, not
the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..encoding import children_ports_code_length
from ..network.builders import resolve_rng
from ..network.graph import Edge, GraphError
from .core import ReplicaProgram, run_batch

__all__ = [
    "sample_edge_tuple_sparse",
    "gadget_spanning_program",
    "MegaGadgetRow",
    "mega_gadget_wakeup",
    "mega_gadget_batch",
]

_I64 = np.int64


def sample_edge_tuple_sparse(
    n: int,
    count: int,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> List[Edge]:
    """``count`` distinct edges of ``K*_n``, uniform over ordered tuples.

    Same distribution as
    :func:`~repro.network.constructions.sample_edge_tuple`, but by
    rejection instead of enumerating all ``binom(n, 2)`` edges —
    ``O(count)`` expected when ``count = O(n)``.  Different draw sequence
    for a given seed than the dense sampler.

    Stream contract: the tuple, and the state ``rng`` is left in, are
    exactly those of the per-draw loop

    .. code-block:: python

        while len(out) < count:
            u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
            if u != v and (min(u, v), max(u, v)) not in out:
                out.append((min(u, v), max(u, v)))

    which is replayed in blocks: ``rng``'s MT19937 state is loaded into
    :class:`numpy.random.MT19937`, each 32-bit word keeps its top
    ``n.bit_length()`` bits (``getrandbits``) and values ``>= n`` are
    rejected (``randrange``), consecutive draws pair up, and the state is
    written back advanced by exactly the words the loop would consume.
    Inputs the replay cannot follow raise instead of diverging:
    :class:`TypeError` for an ``rng`` that is not a plain
    :class:`random.Random` (a subclass may draw differently), and
    :class:`OverflowError` for an ``n`` whose edge keys
    ``lo * (n + 1) + hi`` would overflow int64.
    """
    m = n * (n - 1) // 2 if n > 1 else 0
    if count > m:
        raise GraphError(f"cannot pick {count} distinct edges from K*_{n}")
    # Also keeps n below 2**32, so every draw is one 32-bit word.
    if n * (n + 2) > np.iinfo(_I64).max:
        raise OverflowError(f"edge keys of K*_{n} overflow int64")
    rng = resolve_rng(rng, seed)
    if type(rng) is not random.Random:
        raise TypeError(f"cannot replay the stream of a {type(rng).__name__}")
    if count <= 0:
        return []
    version, internal, gauss_next = rng.getstate()
    bitgen = np.random.MT19937(0)
    bitgen.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
    }
    k = n.bit_length()
    seen = np.zeros(0, dtype=_I64)
    picked: List[Tuple[np.ndarray, np.ndarray]] = []
    carry = np.zeros(0, dtype=_I64)  # a ``u`` drawn at the end of the last block
    have = 0
    while have < count:
        need = count - have
        # Expected words for ``need`` fresh edges, plus slack.  The size
        # only sets how many blocks the replay takes, not what it returns.
        size = need * 2 ** (k + 1) * m // ((n - 1) * (m - have))
        size += size // 8 + 64
        start = bitgen.state
        words = bitgen.random_raw(size) >> (32 - k)
        hit = np.flatnonzero(words < n)
        draws = np.concatenate([carry, words[hit].astype(_I64) + 1])
        pairs = draws.size // 2
        u, v = draws[0 : 2 * pairs : 2], draws[1 : 2 * pairs : 2]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        proper = np.flatnonzero(u != v)
        keys = lo[proper] * (n + 1) + hi[proper]
        first = np.sort(np.unique(keys, return_index=True)[1])
        fresh = first[~np.isin(keys[first], seen)]
        if fresh.size >= need:
            fresh = fresh[:need]
            # Rewind to just past the ``v`` of the pair that completes the tuple.
            last = int(proper[fresh[-1]])
            bitgen.state = start
            bitgen.random_raw(int(hit[2 * last + 1 - carry.size]) + 1)
        else:
            seen = np.concatenate([seen, keys[fresh]])
        picked.append((lo[proper[fresh]], hi[proper[fresh]]))
        have += fresh.size
        carry = draws[2 * pairs :]
    state = bitgen.state["state"]
    rng.setstate((version, tuple(state["key"].tolist()) + (int(state["pos"]),), gauss_next))
    return list(
        zip(
            np.concatenate([p[0] for p in picked]).tolist(),
            np.concatenate([p[1] for p in picked]).tolist(),
        )
    )


def _edge_arrays(n: int, edge_tuple) -> Tuple[np.ndarray, np.ndarray]:
    """``S`` as ``(lo, hi)`` int64 arrays, rejected where ``G_{n,S}`` has no such edges."""
    if n < 2:
        raise GraphError("K*_n needs n >= 2")
    pairs = np.asarray(edge_tuple) if len(edge_tuple) else np.zeros((0, 2), dtype=_I64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise GraphError("S must be a sequence of integer label pairs")
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    bad = np.flatnonzero((lo < 1) | (hi > n) | (lo == hi))
    if bad.size:
        u, v = pairs[bad[0]].tolist()
        raise GraphError(f"edge {{{u}, {v}}} not present in K*_{n}")
    lo, hi = lo.astype(_I64), hi.astype(_I64)
    keys = np.sort(lo * (n + 1) + hi)
    if (keys[1:] == keys[:-1]).any():
        raise GraphError("edges to subdivide must be distinct")
    return lo, hi


def _bfs_tree(n: int, lo: np.ndarray, hi: np.ndarray):
    """The oracle's BFS tree of ``G_{n,S}`` as ``(parent, pport, cport)``.

    Three int64 arrays indexed by dense node (label - 1): the parent's
    label, the port at the parent and the port at the child.  Original
    labels are ``1..n``; the hidden node on the ``i``-th edge of ``S`` is
    ``n + i``.  Entry 0, the source, is the root and holds zeros.
    """
    N = n + lo.size
    parent = np.zeros(N, dtype=_I64)
    pport = np.zeros(N, dtype=_I64)
    cport = np.zeros(N, dtype=_I64)
    # Level 1: slot j of the source holds original j ...
    j = np.arange(2, n + 1, dtype=_I64)
    parent[1:n] = 1
    pport[1:n] = j - 2
    cport[1:n] = n - j
    # ... unless {1, j} is in S: then w(1, j) takes the slot and j is residual.
    at_source = np.flatnonzero(lo == 1)
    residual = np.zeros(n + 1, dtype=bool)
    residual[hi[at_source]] = True
    # Level-2 discovery order of each residual: parent slot * n + port.
    level2 = np.zeros(n + 1, dtype=_I64)
    res = np.flatnonzero(residual)
    if res.size:
        hidden_at = dict(zip(hi[at_source].tolist(), (n + 1 + at_source).tolist()))
        s_nbrs = {r: set() for r in res.tolist()}
        touch = np.flatnonzero(residual[lo] | residual[hi])
        for a, b in zip(lo[touch].tolist(), hi[touch].tolist()):
            if a in s_nbrs:
                s_nbrs[a].add(b)
            if b in s_nbrs:
                s_nbrs[b].add(a)
        level1 = (np.flatnonzero(~residual[2:]) + 2).tolist()
        links = []
        for r in res.tolist():
            blocked = s_nbrs[r]
            via = next((x for x in level1 if x >= r or x not in blocked), r)
            if via < r:
                links.append((via, r - via - 1, n + via - r - 1, via * n + r - via - 1))
            else:
                links.append((hidden_at[r], 1, n - r, r * n + 1))
        parent[res - 1], pport[res - 1], cport[res - 1], level2[res] = np.array(
            links, dtype=_I64
        ).T
    # Hidden nodes hang off lo (the source or a level-1 node) unless lo is
    # residual and hi is not, or both are and hi reached level 2 first.
    off_hi = residual[lo] & (~residual[hi] | (level2[hi] < level2[lo]))
    parent[n:] = np.where(off_hi, hi, lo)
    pport[n:] = np.where(off_hi, n + lo - hi - 1, hi - lo - 1)
    cport[n:] = off_hi
    return parent, pport, cport


def _repr_ranks(N: int) -> np.ndarray:
    """Rank of ``repr(label)`` in string order, for the labels ``1..N``.

    Right-padded with zeros to ``N``'s digit count, labels order as their
    decimal strings except that a label ties with its zero-extensions
    ("12", "120"); string order puts the shorter first.
    """
    labels = np.arange(1, N + 1, dtype=_I64)
    width = len(str(N))
    scale = 10 ** np.arange(width + 1, dtype=_I64)
    digits = np.searchsorted(scale, labels, side="right")
    rank = np.empty(N, dtype=_I64)
    rank[np.lexsort((digits, labels * scale[width - digits]))] = np.arange(N, dtype=_I64)
    return rank


def gadget_spanning_program(n: int, edge_tuple) -> Tuple[ReplicaProgram, int]:
    """The tree-wakeup run on ``G_{n,S}`` as a ports replica.

    Returns ``(program, oracle_bits)`` where ``oracle_bits`` is exactly
    what ``SpanningTreeWakeupOracle("bfs").predicted_size`` would report
    on the explicit graph — the same per-node
    :func:`~repro.encoding.children_ports_code_length` sum over the same
    BFS tree.  Raises :class:`~repro.network.graph.GraphError` where
    :func:`~repro.network.constructions.subdivision_family_graph` would:
    ``n < 2``, a repeated edge, a self-loop or an endpoint outside
    ``1..n``.
    """
    lo, hi = _edge_arrays(n, edge_tuple)
    N = n + lo.size
    parent, pport, cport = _bfs_tree(n, lo, hi)
    # Each parent sends to its children in port order — the order the
    # scheme decodes them from its advice.
    owner = parent[1:] - 1
    order = np.lexsort((pport[1:], owner))
    send_counts = np.bincount(owner, minlength=N).astype(_I64)
    nodes_with = np.bincount(send_counts)
    oracle_bits = sum(
        int(nodes_with[k]) * children_ports_code_length(k, N)
        for k in np.flatnonzero(nodes_with).tolist()
    )
    init_active = np.zeros(N, dtype=bool)
    init_active[0] = True  # node 1, the source, at dense index 0
    program = ReplicaProgram(
        num_nodes=N,
        rank=_repr_ranks(N),
        init_active=init_active,
        init_informed=init_active.copy(),
        send_counts=send_counts,
        send_dest=(order + 1).astype(_I64),
        send_aport=cport[1:][order],
    )
    return program, oracle_bits


@dataclass(frozen=True)
class MegaGadgetRow:
    """One mega-scale ``G_{n,S}`` tree-wakeup measurement.

    ``flooding_messages`` is the exact zero-advice cost ``2m - N + 1`` on
    the same graph — the ``Θ(n²)`` side of the Theorem 2.2 separation,
    computed analytically since nobody can afford to run it.
    """

    n: int
    seed: int
    gadget_nodes: int
    gadget_edges: int
    oracle_bits: int
    messages: int
    rounds: int
    success: bool
    flooding_messages: int

    @property
    def bits_per_node_log(self) -> float:
        """``oracle_bits / (N log2 N)`` — Theorem 2.1 predicts O(1)."""
        return self.oracle_bits / (self.gadget_nodes * math.log2(self.gadget_nodes))

    @property
    def messages_per_node(self) -> float:
        return self.messages / self.gadget_nodes


def _row_from_counters(n: int, seed: int, oracle_bits: int, rc) -> MegaGadgetRow:
    count = rc.informed_step.size - n
    N = n + count
    informed = int(np.count_nonzero(rc.informed_step >= 0)) + 1  # + the source
    m = n * (n - 1) // 2 + count
    return MegaGadgetRow(
        n=n,
        seed=seed,
        gadget_nodes=N,
        gadget_edges=m,
        oracle_bits=oracle_bits,
        messages=rc.messages_sent,
        rounds=rc.rounds,
        success=rc.completed and informed == N,
        flooding_messages=2 * m - N + 1,
    )


def mega_gadget_batch(
    n: int, seeds: Sequence[int], counts: Optional[int] = None
) -> List[MegaGadgetRow]:
    """Tree wakeup on one implicit ``G_{n,S}`` per seed, in one pass.

    Each seed samples its own ``S`` (its own graph); all replicas then
    share every round's array operations.  ``counts`` overrides ``|S|``
    (default ``n``, the Theorem 2.2 shape).
    """
    count = n if counts is None else counts
    programs = []
    bits = []
    for seed in seeds:
        edge_tuple = sample_edge_tuple_sparse(n, count, seed=seed)
        program, oracle_bits = gadget_spanning_program(n, edge_tuple)
        programs.append(program)
        bits.append(oracle_bits)
    return [
        _row_from_counters(n, seed, oracle_bits, rc)
        for seed, oracle_bits, rc in zip(seeds, bits, run_batch(programs))
    ]


def mega_gadget_wakeup(n: int, seed: int = 0) -> MegaGadgetRow:
    """Tree wakeup on a random ``G_{n,S}`` without materializing it.

    Feasible to ``n = 10^6`` on one core: the graph is implicit, the tree
    is derived in closed form, and the run is ``N - 1`` messages through
    the vectorized core.  One seed of :func:`mega_gadget_batch`.
    """
    return mega_gadget_batch(n, [seed])[0]
