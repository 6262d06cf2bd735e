"""The struct-of-arrays round engine: whole rounds as numpy frontier ops.

:func:`run_batch` executes a list of :class:`ReplicaProgram` s — each one
run's worth of activation semantics over its own node space — through a
*single* sequence of array operations per synchronous round.  One replica
is just a batch of one; the multi-seed sweep drivers push dozens of
(cell, seed) replicas through one pass.

What a round does, in array form, mirrors the fast path's ``_run_sync``
statement for statement:

1. **Order** the frontier with one ``np.lexsort`` on
   ``(generation order, arrival port, repr-rank of receiver, replica)`` —
   exactly the legacy heap key ``(deliver_at, repr(receiver),
   arrival_port, seq)`` restricted to one round, with the replica id
   prepended so replicas interleave without interacting.
2. **Deliver**: per-replica step numbers via segment arithmetic, received
   counts via scatter-add.
3. **Activate**: the first delivery of the round to each not-yet-active
   node activates it; its send batch carries the informed flag the
   per-delivery loop would read *after* that delivery's informed update —
   ``informed_before_round OR first-delivery-is-informing`` — which is
   why activation flags are computed before the round's informed commits.
4. **Inform**: first informing delivery per node sets its informed step.
5. **Send**: activations generate the next frontier from the program's
   tables (flooding's all-ports-but-arrival, or a precomputed port CSR),
   in delivery order, so next round's generation order equals the seq
   order the scalar engines would have assigned.

The engine is *optimistic about limits*: it assumes no safety limit trips
and raises :class:`VectorLimitAbort` the moment a replica's cumulative
totals prove one would (the per-delivery engines check limits before each
send/delivery, so a limit trips iff the final totals exceed it — totals
are monotone, so the first prefix violation is proof).  The caller falls
back to the fast path, which reproduces the truncation byte-exactly.

Everything here is counters-level: no per-delivery records, no obs
events, no payloads (the shipped semantics are constant-token).  The
vectorized engine only routes runs here when nothing observable per
delivery is requested; richer runs take the fast path instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["ReplicaProgram", "ReplicaCounters", "VectorLimitAbort", "run_batch"]

_I64 = np.int64
#: Sentinel for "no limit": far above any reachable counter.
_NO_LIMIT = np.iinfo(_I64).max // 4


class VectorLimitAbort(RuntimeError):
    """A safety limit would trip; the caller must rerun on a scalar engine."""


@dataclass
class ReplicaProgram:
    """One run's semantics over its own local node space ``0..num_nodes-1``.

    ``kind="flood"`` replicas carry the CSR topology (``degrees`` /
    ``offsets`` / ``neighbor_at`` / ``arrival_at``); activations send on
    every port except the activating arrival port (init activations use
    every port).  ``kind="ports"`` replicas carry a per-node send list
    (``send_counts`` / ``send_dest`` / ``send_aport``); activations send
    exactly that list.  All node indices are local; :func:`run_batch`
    rebases them into the combined space.
    """

    num_nodes: int
    kind: str
    rank: np.ndarray
    init_active: np.ndarray
    init_informed: np.ndarray
    max_messages: Optional[int] = None
    max_steps: Optional[int] = None
    degrees: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None
    neighbor_at: Optional[np.ndarray] = None
    arrival_at: Optional[np.ndarray] = None
    send_counts: Optional[np.ndarray] = None
    send_dest: Optional[np.ndarray] = None
    send_aport: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in ("flood", "ports"):
            raise ValueError(f"unknown replica kind {self.kind!r}")


@dataclass
class ReplicaCounters:
    """Everything the counters trace level records, for one replica.

    ``informed_step`` is per local node: ``-1`` for never informed during
    the run, else the 1-based delivery step that informed it (nodes
    informed at init — the source — keep ``-1``; the trace's step-0 mark
    is the caller's).  ``round_counts`` maps round number to deliveries
    in that round, in increasing round order.
    """

    messages_sent: int
    delivered: int
    rounds: int
    completed: bool
    informed_step: np.ndarray
    received: np.ndarray
    sent: np.ndarray
    round_counts: Dict[int, int] = field(default_factory=dict)


def _ragged(counts: np.ndarray):
    """``base`` (owner index) and ``within`` (0.. count-1) for ragged expansion."""
    base = np.repeat(np.arange(counts.size, dtype=_I64), counts)
    starts = np.zeros(counts.size, dtype=_I64)
    if counts.size > 1:
        np.cumsum(counts[:-1], out=starts[1:])
    within = np.arange(base.size, dtype=_I64) - starts[base]
    return base, within


def run_batch(replicas: List[ReplicaProgram]) -> List[ReplicaCounters]:
    """Run every replica to quiescence; raise :class:`VectorLimitAbort`
    as soon as any replica's safety limit would trip."""
    R = len(replicas)
    if R == 0:
        return []
    sizes = np.array([rp.num_nodes for rp in replicas], dtype=_I64)
    node_base = np.zeros(R + 1, dtype=_I64)
    np.cumsum(sizes, out=node_base[1:])
    N = int(node_base[-1])
    node_rep = np.repeat(np.arange(R, dtype=_I64), sizes)

    rank_c = np.concatenate([np.asarray(rp.rank, dtype=_I64) for rp in replicas])
    active = np.concatenate([np.asarray(rp.init_active, dtype=bool) for rp in replicas])
    informed = np.concatenate(
        [np.asarray(rp.init_informed, dtype=bool) for rp in replicas]
    )
    init_active = active.copy()
    informed_step = np.full(N, -1, dtype=_I64)
    received = np.zeros(N, dtype=_I64)
    sent = np.zeros(N, dtype=_I64)

    flood_rep = np.array([rp.kind == "flood" for rp in replicas], dtype=bool)
    node_is_flood = flood_rep[node_rep]
    max_msg = np.array(
        [_NO_LIMIT if rp.max_messages is None else rp.max_messages for rp in replicas],
        dtype=_I64,
    )
    max_steps = np.array(
        [_NO_LIMIT if rp.max_steps is None else rp.max_steps for rp in replicas],
        dtype=_I64,
    )

    # Combined CSR tables.  Ports replicas contribute zero degree to the
    # flood tables and vice versa, so concatenation in replica order lines
    # up with the cumsum offsets over the global node order.
    g_deg = np.zeros(N, dtype=_I64)
    s_cnt = np.zeros(N, dtype=_I64)
    g_nb_parts: List[np.ndarray] = []
    g_ap_parts: List[np.ndarray] = []
    s_dest_parts: List[np.ndarray] = []
    s_ap_parts: List[np.ndarray] = []
    empty = np.zeros(0, dtype=_I64)
    for r, rp in enumerate(replicas):
        lo = int(node_base[r])
        hi = lo + rp.num_nodes
        if rp.kind == "flood":
            g_deg[lo:hi] = rp.degrees
            g_nb_parts.append(np.asarray(rp.neighbor_at, dtype=_I64) + lo)
            g_ap_parts.append(np.asarray(rp.arrival_at, dtype=_I64))
        else:
            s_cnt[lo:hi] = rp.send_counts
            s_dest_parts.append(np.asarray(rp.send_dest, dtype=_I64) + lo)
            s_ap_parts.append(np.asarray(rp.send_aport, dtype=_I64))
    g_nb = np.concatenate(g_nb_parts) if g_nb_parts else empty
    g_ap = np.concatenate(g_ap_parts) if g_ap_parts else empty
    s_dest = np.concatenate(s_dest_parts) if s_dest_parts else empty
    s_ap = np.concatenate(s_ap_parts) if s_ap_parts else empty
    g_off = np.zeros(N + 1, dtype=_I64)
    np.cumsum(g_deg, out=g_off[1:])
    s_off = np.zeros(N + 1, dtype=_I64)
    np.cumsum(s_cnt, out=s_off[1:])

    msg_arr = np.zeros(R, dtype=_I64)
    delivered_arr = np.zeros(R, dtype=_I64)
    rounds_arr = np.zeros(R, dtype=_I64)
    round_counts: List[Dict[int, int]] = [{} for _ in range(R)]

    def flood_sends(acts, arrival, inf):
        """Expand flood activations: every port except the arrival (-1: none)."""
        deg = g_deg[acts]
        counts = np.where(arrival >= 0, deg - 1, deg)
        base, within = _ragged(counts)
        arr = arrival[base]
        port = within + ((arr >= 0) & (within >= arr))
        slot = g_off[acts[base]] + port
        return g_nb[slot], g_ap[slot], inf[base], counts

    def ports_sends(acts, inf):
        counts = s_cnt[acts]
        base, within = _ragged(counts)
        slot = s_off[acts[base]] + within
        return s_dest[slot], s_ap[slot], inf[base], counts

    def make_frontier(acts, arrival, inf):
        """Sends of one activation batch (delivery order), kind-partitioned.

        Each replica has exactly one kind, so the flood-then-ports
        concatenation keeps every replica's sends contiguous *and* in its
        own activation order — which is all the next round's lexsort (with
        replica as primary key) needs to reproduce seq order.
        """
        is_f = node_is_flood[acts]
        fdest, faport, fsinf, fcnt = flood_sends(acts[is_f], arrival[is_f], inf[is_f])
        pdest, paport, psinf, pcnt = ports_sends(acts[~is_f], inf[~is_f])
        np.add.at(sent, acts[is_f], fcnt)
        np.add.at(sent, acts[~is_f], pcnt)
        np.add.at(msg_arr, node_rep[acts[is_f]], fcnt)
        np.add.at(msg_arr, node_rep[acts[~is_f]], pcnt)
        if np.any(msg_arr > max_msg):
            raise VectorLimitAbort("message limit would trip")
        return (
            np.concatenate([fdest, pdest]),
            np.concatenate([faport, paport]),
            np.concatenate([fsinf, psinf]),
        )

    # Init phase: active nodes send spontaneously, in global node order
    # (the per-delivery engines' init order is graph node order).
    init_nodes = np.flatnonzero(init_active).astype(_I64)
    f_recv, f_aport, f_sinf = make_frontier(
        init_nodes, np.full(init_nodes.size, -1, dtype=_I64), informed[init_nodes]
    )

    round_no = 1
    while f_recv.size:
        f_rep = node_rep[f_recv]
        order = np.lexsort(
            (np.arange(f_recv.size, dtype=_I64), f_aport, rank_c[f_recv], f_rep)
        )
        r_recv = f_recv[order]
        r_aport = f_aport[order]
        r_sinf = f_sinf[order]
        r_rep = f_rep[order]
        k = r_recv.size

        cnt = np.bincount(r_rep, minlength=R)
        if np.any(delivered_arr + cnt > max_steps):
            raise VectorLimitAbort("step limit would trip")
        seg = np.zeros(R + 1, dtype=_I64)
        np.cumsum(cnt, out=seg[1:])
        step_of = delivered_arr[r_rep] + (np.arange(k, dtype=_I64) - seg[r_rep]) + 1
        np.add.at(received, r_recv, 1)

        # Activations: first delivery of the round to each inactive node.
        # Informed flags read pre-commit state, matching the drain-time
        # read of the per-delivery engines.
        idx2 = np.flatnonzero(~active[r_recv])
        if idx2.size:
            act_nodes, first = np.unique(r_recv[idx2], return_index=True)
            act_pos = idx2[first]
            act_inf = informed[act_nodes] | r_sinf[act_pos]
            active[act_nodes] = True
            ordact = np.argsort(act_pos)
            act_nodes = act_nodes[ordact]
            act_inf = act_inf[ordact]
            act_aport = r_aport[act_pos[ordact]]
        else:
            act_nodes = empty
            act_inf = np.zeros(0, dtype=bool)
            act_aport = empty

        # Informed commits: first informing delivery per node.
        idx3 = np.flatnonzero(r_sinf & ~informed[r_recv])
        if idx3.size:
            inf_nodes, ifirst = np.unique(r_recv[idx3], return_index=True)
            informed_step[inf_nodes] = step_of[idx3[ifirst]]
            informed[inf_nodes] = True

        for r in np.flatnonzero(cnt):
            round_counts[r][round_no] = int(cnt[r])
            rounds_arr[r] = round_no
        delivered_arr += cnt

        f_recv, f_aport, f_sinf = make_frontier(act_nodes, act_aport, act_inf)
        round_no += 1

    out: List[ReplicaCounters] = []
    for r, rp in enumerate(replicas):
        lo = int(node_base[r])
        hi = lo + rp.num_nodes
        out.append(
            ReplicaCounters(
                messages_sent=int(msg_arr[r]),
                delivered=int(delivered_arr[r]),
                rounds=int(rounds_arr[r]),
                completed=True,
                informed_step=informed_step[lo:hi].copy(),
                received=received[lo:hi].copy(),
                sent=sent[lo:hi].copy(),
                round_counts=round_counts[r],
            )
        )
    return out
