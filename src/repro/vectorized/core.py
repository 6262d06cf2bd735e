"""The struct-of-arrays round engine: whole rounds as numpy frontier ops.

:func:`run_batch` executes a list of :class:`ReplicaProgram` s — each one
run's worth of activation semantics over its own node space — through a
*single* sequence of array operations per synchronous round.  One replica
is just a batch of one; :func:`~repro.vectorized.gadgets.mega_gadget_batch`
pushes one implicit ``G_{n,S}`` gadget per seed through one pass.

A replica is a *ports program*: a node activates on its first receipt
(or at init, if marked active) and then sends on a fixed list of ports,
whatever port the activating message arrived on — tree wakeup's decoded
children ports.  What a round does, in array form, mirrors the fast
path's ``_run_sync`` statement for statement:

1. **Order** the frontier with one ``np.lexsort`` on
   ``(generation order, arrival port, repr-rank of receiver, replica)`` —
   exactly the reference heap key ``(deliver_at, repr(receiver),
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
   send tables, in delivery order, so next round's generation order
   equals the seq order the scalar loops would have assigned.

A ports program activates each node at most once, so a replica sends at
most ``sum(send_counts)`` messages: the run always ends at quiescence,
and no safety limit is needed.  Everything here is counters-level: no
per-delivery records, no obs events, no payloads (tree wakeup sends one
constant token).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["ReplicaProgram", "ReplicaCounters", "run_batch"]

_I64 = np.int64


@dataclass
class ReplicaProgram:
    """One run's semantics over its own local node space ``0..num_nodes-1``.

    ``rank`` is the repr-rank of each node's label (the delivery tie-break).
    Node ``v`` sends on ``send_counts[v]`` ports when it activates; its
    sends are the next ``send_counts[v]`` entries of ``send_dest`` (the
    receiving node) and ``send_aport`` (the port it arrives on), in node
    order.  All node indices are local; :func:`run_batch` rebases them
    into the combined space.
    """

    num_nodes: int
    rank: np.ndarray
    init_active: np.ndarray
    init_informed: np.ndarray
    send_counts: np.ndarray
    send_dest: np.ndarray
    send_aport: np.ndarray


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
    """Run every replica to quiescence in one pass of round operations."""
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

    # Combined send tables: concatenation in replica order lines up with
    # the cumsum offsets over the global node order.
    s_cnt = np.concatenate([np.asarray(rp.send_counts, dtype=_I64) for rp in replicas])
    s_dest = np.concatenate(
        [np.asarray(rp.send_dest, dtype=_I64) + node_base[r] for r, rp in enumerate(replicas)]
    )
    s_ap = np.concatenate([np.asarray(rp.send_aport, dtype=_I64) for rp in replicas])
    s_off = np.zeros(N + 1, dtype=_I64)
    np.cumsum(s_cnt, out=s_off[1:])

    msg_arr = np.zeros(R, dtype=_I64)
    delivered_arr = np.zeros(R, dtype=_I64)
    rounds_arr = np.zeros(R, dtype=_I64)
    round_counts: List[Dict[int, int]] = [{} for _ in range(R)]
    empty = np.zeros(0, dtype=_I64)

    def make_frontier(acts, inf):
        """The sends of one activation batch, in activation (delivery) order."""
        counts = s_cnt[acts]
        base, within = _ragged(counts)
        slot = s_off[acts[base]] + within
        np.add.at(sent, acts, counts)
        np.add.at(msg_arr, node_rep[acts], counts)
        return s_dest[slot], s_ap[slot], inf[base]

    # Init phase: active nodes send spontaneously, in global node order
    # (the per-delivery engines' init order is graph node order).
    init_nodes = np.flatnonzero(init_active).astype(_I64)
    f_recv, f_aport, f_sinf = make_frontier(init_nodes, informed[init_nodes])

    round_no = 1
    while f_recv.size:
        f_rep = node_rep[f_recv]
        order = np.lexsort(
            (np.arange(f_recv.size, dtype=_I64), f_aport, rank_c[f_recv], f_rep)
        )
        r_recv = f_recv[order]
        r_sinf = f_sinf[order]
        r_rep = f_rep[order]
        k = r_recv.size

        cnt = np.bincount(r_rep, minlength=R)
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
        else:
            act_nodes = empty
            act_inf = np.zeros(0, dtype=bool)

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

        f_recv, f_aport, f_sinf = make_frontier(act_nodes, act_inf)
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
