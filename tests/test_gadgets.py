"""The array-built ``G_{n,S}`` gadget against the loops it replaced.

:mod:`repro.vectorized.gadgets` derives the oracle's BFS tree in closed
form and replays the rejection sampler's random stream in blocks.  The
loops they replaced live on here as references: ``_gadget_tree`` is the
level-by-level BFS over the implicit gadget, ``_reference_program``
builds the send tables and ranks from it node by node, and
``_sample_loop`` draws edges one ``randrange`` at a time.  The array code
must return the same bytes — every program array with its dtype, the same
oracle bits, the same edge tuple and the same rng state afterwards — on
inputs the hypothesis tests never draw: stars at the source, edges
between residuals, label 2, sparse and dense ``S``, and ``n = 10^5``.
"""

import dataclasses
import math
import random
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.encoding import children_ports_code_length
from repro.network.constructions import subdivision_family_graph
from repro.network.graph import GraphError
from repro.vectorized import ReplicaProgram, gadget_spanning_program, sample_edge_tuple_sparse


def _sample_loop(n: int, count: int, rng: random.Random):
    """The per-draw sampler: two ``randrange`` calls per candidate edge."""
    seen = set()
    out = []
    while len(out) < count:
        u = rng.randrange(1, n + 1)
        v = rng.randrange(1, n + 1)
        if u == v:
            continue
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            continue
        seen.add(edge)
        out.append(edge)
    return out


def _gadget_tree(n: int, edge_tuple) -> Dict[int, Tuple[int, int, int]]:
    """BFS spanning tree of ``G_{n,S}``: child -> (parent, port@parent, port@child).

    Reproduces :func:`~repro.oracles.build_spanning_tree` (``kind="bfs"``)
    on the never-materialized gadget: level-synchronous, frontier in
    discovery order, each expansion's neighbors in port order.  Original
    labels are ``1..n``; the hidden node on the ``i``-th edge of ``S`` is
    ``n + i``.
    """
    skey: Dict[Tuple[int, int], int] = {}
    w_edge: Dict[int, Tuple[int, int]] = {}
    s_adj: Dict[int, List[Tuple[int, int]]] = {}
    for i, (u, v) in enumerate(edge_tuple, start=1):
        lo, hi = (u, v) if u < v else (v, u)
        if (lo, hi) in skey:
            raise GraphError("edges to subdivide must be distinct")
        w = n + i
        skey[(lo, hi)] = w
        w_edge[w] = (lo, hi)
        s_adj.setdefault(lo, []).append((hi, w))
        s_adj.setdefault(hi, []).append((lo, w))

    undisc_orig = set(range(2, n + 1))
    undisc_w = set(w_edge)
    links: Dict[int, Tuple[int, int, int]] = {}
    frontier = [1]
    while frontier:
        nxt: List[int] = []
        for u in frontier:
            if u <= n:
                # An original node: candidates are the undiscovered
                # originals reachable through intact edges, plus the
                # undiscovered hidden nodes on its own S-edges — each at
                # the cyclic port the K*_n slot would have used.
                cand: List[Tuple[int, int, int]] = []
                for j in sorted(undisc_orig):
                    edge = (u, j) if u < j else (j, u)
                    if edge in skey:
                        continue
                    cand.append(((j - u - 1) % n, j, (u - j - 1) % n))
                for v, w in s_adj.get(u, ()):
                    if w in undisc_w:
                        cand.append(((v - u - 1) % n, w, 0 if u < v else 1))
                cand.sort()
                for pport, x, cport in cand:
                    if x <= n:
                        undisc_orig.discard(x)
                    else:
                        undisc_w.discard(x)
                    links[x] = (u, pport, cport)
                    nxt.append(x)
            else:
                lo, hi = w_edge[u]
                for pport, x, other in ((0, lo, hi), (1, hi, lo)):
                    if x in undisc_orig:
                        undisc_orig.discard(x)
                        links[x] = (u, pport, (other - x - 1) % n)
                        nxt.append(x)
        frontier = nxt
        # Rebuild to a right-sized table: a set emptied by discard keeps
        # its old capacity, and iterating it per expansion above would
        # scan every stale slot — turning the O(n) sweep quadratic.
        undisc_orig = set(undisc_orig)
    if undisc_orig or undisc_w:
        raise GraphError("G_{n,S} came out disconnected; bad edge tuple")
    return links


def _reference_program(n: int, edge_tuple) -> Tuple[ReplicaProgram, int]:
    """:func:`gadget_spanning_program` built node by node from ``_gadget_tree``."""
    N = n + len(edge_tuple)
    children: Dict[int, List[Tuple[int, int, int]]] = {}
    for child, (par, pport, cport) in _gadget_tree(n, edge_tuple).items():
        children.setdefault(par, []).append((pport, child, cport))
    send_counts = np.zeros(N, dtype=np.int64)
    dest: List[int] = []
    aport: List[int] = []
    oracle_bits = 0
    for idx in range(N):
        ch = sorted(children.get(idx + 1, ()))
        send_counts[idx] = len(ch)
        oracle_bits += children_ports_code_length(len(ch), N)
        for _pport, child, cport in ch:
            dest.append(child - 1)
            aport.append(cport)
    # repr ranks of the labels 1..N: each label's place among the sorted
    # repr strings.
    rank = np.unique(np.arange(1, N + 1).astype(str), return_inverse=True)[1].astype(np.int64)
    init_active = np.zeros(N, dtype=bool)
    init_active[0] = True
    program = ReplicaProgram(
        num_nodes=N,
        rank=rank,
        init_active=init_active,
        init_informed=init_active.copy(),
        send_counts=send_counts,
        send_dest=np.array(dest, dtype=np.int64),
        send_aport=np.array(aport, dtype=np.int64),
    )
    return program, oracle_bits


def _assert_same_program(n: int, edge_tuple) -> None:
    got, got_bits = gadget_spanning_program(n, edge_tuple)
    want, want_bits = _reference_program(n, edge_tuple)
    assert got_bits == want_bits
    for field in dataclasses.fields(ReplicaProgram):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


# ----------------------------------------------------------------------
# The sampler: a block replay of the per-draw loop's random stream
# ----------------------------------------------------------------------

#: ``n.bit_length()``, the bits kept per word, steps up at each power of
#: two, where half the draws are rejected; the value just past keeps it.
SAMPLER_SIZES = (2, 3, 4, 8, 9, 17, 100, 65536, 65537, 100_000)


def _sampler_cases():
    for n in SAMPLER_SIZES:
        m = n * (n - 1) // 2
        # count = m draws every edge; past n = 100 that is ~2*10^9 edges,
        # beyond what either sampler can draw in a test.
        counts = {0, 1, n, m} if n <= 100 else {0, 1, n}
        for count in sorted(c for c in counts if c <= m):
            yield n, count


@pytest.mark.parametrize("n,count", list(_sampler_cases()))
@pytest.mark.parametrize("skip", (0, 1, 623))
def test_sampler_replays_the_per_draw_loop(n, count, skip):
    """Same tuple, same rng state after, same next draw — from any stream position."""
    ref_rng, rng = random.Random(n + skip), random.Random(n + skip)
    for r in (ref_rng, rng):
        for _ in range(skip):
            r.getrandbits(32)
    expected = _sample_loop(n, count, ref_rng)
    assert sample_edge_tuple_sparse(n, count, rng=rng) == expected
    assert rng.getstate() == ref_rng.getstate()
    assert rng.random() == ref_rng.random()


def test_sampler_seed_argument_matches_a_fresh_rng():
    assert sample_edge_tuple_sparse(1000, 1000, seed=5) == _sample_loop(
        1000, 1000, random.Random(5)
    )


@pytest.mark.parametrize("n", (0, 1, 2, 5))
def test_sampler_rejects_more_edges_than_k_n_has(n):
    m = n * (n - 1) // 2 if n > 1 else 0
    with pytest.raises(GraphError):
        sample_edge_tuple_sparse(n, m + 1, seed=0)


def test_sampler_refuses_n_whose_edge_keys_overflow():
    n = math.isqrt(2**63)  # the smallest n with n * (n + 2) >= 2**63
    with pytest.raises(OverflowError):
        sample_edge_tuple_sparse(n, 1, seed=0)
    # One below the limit still replays exactly, with every word's 32 bits kept.
    ref_rng, rng = random.Random(3), random.Random(3)
    assert sample_edge_tuple_sparse(n - 1, 3, rng=rng) == _sample_loop(n - 1, 3, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


class _SubclassedRandom(random.Random):
    """Draws as random.Random does, but a subclass may override any draw."""


@pytest.mark.parametrize("rng", (random.SystemRandom(), _SubclassedRandom(0)))
def test_sampler_refuses_an_rng_it_cannot_replay(rng):
    with pytest.raises(TypeError):
        sample_edge_tuple_sparse(10, 3, rng=rng)


# ----------------------------------------------------------------------
# The tree and the program: closed form against the BFS reference
# ----------------------------------------------------------------------


def _adversarial_tuple(n: int, rng: random.Random, residuals: int, extra: int):
    """``S`` heavy in residuals: a partial star at the source plus edges
    biased toward residual endpoints and label 2, in random order."""
    res = rng.sample(range(2, n + 1), residuals)
    edges = {(1, r) for r in res}
    pool = res + [2]
    target = min(n * (n - 1) // 2, len(edges) + extra)
    while len(edges) < target:
        u = rng.choice(pool) if rng.random() < 0.8 else rng.randrange(1, n + 1)
        v = rng.choice(pool) if rng.random() < 0.5 else rng.randrange(1, n + 1)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    out = sorted(edges)
    rng.shuffle(out)
    return [e if rng.random() < 0.5 else e[::-1] for e in out]


@pytest.mark.parametrize("n", (2, 3, 4, 5, 9, 30, 101))
def test_program_star_at_the_source(n):
    """Every original is residual; each hangs off w(1, r) or an S-free slot."""
    star = [(1, j) for j in range(2, n + 1)]
    _assert_same_program(n, star)
    _assert_same_program(n, star[::-1])
    rng = random.Random(n)
    _assert_same_program(n, _adversarial_tuple(n, rng, n - 1, n))


@pytest.mark.parametrize("seed", range(40))
def test_program_residual_heavy(seed):
    """Edges between two residuals, residuals blocked from early slots, label 2."""
    rng = random.Random(seed)
    n = rng.randrange(4, 80)
    residuals = rng.randrange(1, n)
    _assert_same_program(n, _adversarial_tuple(n, rng, residuals, rng.randrange(0, 2 * n)))


def test_program_label_two():
    """Label 2 fills the source's port-0 slot: the first level-1 node to expand."""
    for n in (4, 6, 11):
        _assert_same_program(n, [(1, 2)])
        _assert_same_program(n, [(2, j) for j in range(3, n + 1)])
        _assert_same_program(n, [(1, 2)] + [(2, j) for j in range(3, n + 1)])
        _assert_same_program(n, [(1, j) for j in range(2, n + 1)] + [(2, n), (3, 2)])


@pytest.mark.parametrize("n", (4, 9, 30, 300))
def test_program_across_sizes_of_s(n):
    """|S| in {1, n/3, n, 2n}, uniform."""
    m = n * (n - 1) // 2
    for seed, count in enumerate((1, n // 3, n, 2 * n)):
        edges = sample_edge_tuple_sparse(n, min(count, m), seed=seed)
        _assert_same_program(n, edges)


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_program_mega_scale(seed):
    """The ``repro mega`` size: n = 10^5, |S| = n."""
    n = 100_000
    _assert_same_program(n, sample_edge_tuple_sparse(n, n, seed=seed))


@pytest.mark.parametrize(
    "edges",
    (
        [(2, 2), (3, 4)],
        [(0, 3), (2, 4)],
        [(2, 7), (3, 4)],
        [(3, 4), (4, 3)],
    ),
)
def test_both_pipelines_reject_edges_k_n_lacks(edges):
    """Self-loops, endpoints outside 1..n and repeats: no G_{n,S} exists."""
    with pytest.raises(GraphError):
        subdivision_family_graph(5, edges)
    with pytest.raises(GraphError):
        gadget_spanning_program(5, edges)


@pytest.mark.parametrize("n", (0, 1))
def test_both_pipelines_need_two_originals(n):
    with pytest.raises(GraphError):
        subdivision_family_graph(n, [])
    with pytest.raises(GraphError):
        gadget_spanning_program(n, [])
