"""The counting side of both lower bounds (paper Equations 1-7, Claim 2.1).

The paper's lower bounds are counting arguments: many instances, few oracle
outputs, so some large subfamily shares one advice function and Lemma 2.1
applies to it.  This module computes every quantity in those arguments
*exactly* (in log2 space, via ``lgamma``), so the bound curves the
benchmarks plot are calculated rather than asserted:

* ``P`` — instances: ordered tuples of distinct edges of ``K*_n``
  (:func:`wakeup_instances_log2`), or labeled edge subsets avoiding ``Y``
  (:func:`broadcast_instances_log2`);
* ``Q`` — possible oracle outputs for a ``q``-bit oracle on ``N``-node
  graphs: ``sum_{q'<=q} 2^{q'} binom(q'+N-1, N-1)``
  (:func:`oracle_outputs_log2`, computed exactly, plus the paper's closed
  upper bound :func:`oracle_outputs_log2_bound` from Equation 3);
* the forced message counts ``log2(P/Q) - log2(|X|!)`` for wakeup
  (Theorem 2.2) and ``log2(P'/Q)`` for broadcast (Theorem 3.2);
* Claim 2.1's inequality ``binom(a(1+b), a) <= (6b)^a``, checkable pointwise
  to locate the constants ``A`` and ``B`` empirically.
"""

from __future__ import annotations

import math
from typing import List, Tuple

__all__ = [
    "log2_factorial",
    "log2_binomial",
    "log2_sum",
    "wakeup_instances_log2",
    "oracle_outputs_log2",
    "oracle_outputs_log2_bound",
    "wakeup_forced_messages",
    "wakeup_oracle_size_threshold",
    "broadcast_instances_log2",
    "broadcast_forced_messages",
    "broadcast_target_messages",
    "claim21_lhs_log2",
    "claim21_rhs_log2",
    "claim21_holds",
    "claim21_constants",
]

_LOG2E = 1.0 / math.log(2.0)


def log2_factorial(n: int) -> float:
    """``log2(n!)``, exact to double precision via ``lgamma``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return math.lgamma(n + 1) * _LOG2E


def log2_binomial(a: int, b: int) -> float:
    """``log2(binom(a, b))``; ``-inf`` when the coefficient is zero."""
    if b < 0 or b > a:
        return float("-inf")
    return log2_factorial(a) - log2_factorial(b) - log2_factorial(a - b)


def log2_sum(terms: List[float]) -> float:
    """``log2(sum 2^t)`` for a list of log2-space terms (log-sum-exp)."""
    finite = [t for t in terms if t != float("-inf")]
    if not finite:
        return float("-inf")
    peak = max(finite)
    return peak + math.log2(sum(2.0 ** (t - peak) for t in finite))


# ----------------------------------------------------------------------
# Wakeup (Theorem 2.2)
# ----------------------------------------------------------------------
def wakeup_instances_log2(n: int, subdivided: int | None = None) -> float:
    """``log2 P``: ordered tuples of ``subdivided`` (default ``n``) distinct
    edges of ``K*_n`` — the number of distinct graphs ``G_{n,S}``."""
    count = n if subdivided is None else subdivided
    m = n * (n - 1) // 2
    if count > m:
        raise ValueError("more subdivided edges than edges of K*_n")
    return log2_factorial(m) - log2_factorial(m - count)


def oracle_outputs_log2(q: int, num_nodes: int, exact_limit: int = 4096) -> float:
    """``log2 Q``: distinct advice functions a ``<= q``-bit oracle can emit
    on ``num_nodes``-node graphs.

    ``Q = sum_{q'=0}^{q} 2^{q'} * binom(q' + N - 1, N - 1)`` (choose the
    concatenated string, then cut it into ``N`` ordered pieces).  The sum is
    evaluated exactly up to ``exact_limit`` terms; beyond that the last term
    dominates within a factor ``q + 1``, so we return
    ``log2((q+1)) + max-term`` — still an upper bound and tight to
    ``log2(q+1)``.
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    big_n = num_nodes
    if q <= exact_limit:
        return log2_sum([qp + log2_binomial(qp + big_n - 1, big_n - 1) for qp in range(q + 1)])
    top = q + log2_binomial(q + big_n - 1, big_n - 1)
    return math.log2(q + 1) + top


def oracle_outputs_log2_bound(q: int, num_nodes: int) -> float:
    """Equation 3's closed-form upper bound:
    ``log2((q + 1) 2^q binom(q + N, N))``."""
    return math.log2(q + 1) + q + log2_binomial(q + num_nodes, num_nodes)


def wakeup_forced_messages(n: int, oracle_bits: int, subdivided: int | None = None) -> float:
    """Messages forced by Theorem 2.2's argument on the ``G_{n,S}`` family.

    The family has ``2n`` nodes (with the default ``subdivided = n``); if the
    oracle emits at most ``Q`` functions, some ``P/Q`` graphs share one
    advice function, and Lemma 2.1 (with ``|X| = n`` labeled hidden edges)
    forces ``log2(P/Q) - log2(n!)`` messages.  Returns 0 when the bound is
    vacuous (oracle big enough).
    """
    count = n if subdivided is None else subdivided
    p = wakeup_instances_log2(n, count)
    q = oracle_outputs_log2(oracle_bits, n + count)
    bound = p - q - log2_factorial(count)
    return max(0.0, bound)


def wakeup_oracle_size_threshold(n: int, subdivided: int | None = None) -> int:
    """The largest oracle size (bits) at which the counting argument still
    forces a *superlinear* message count (more than ``4 * 2n`` messages) on
    the ``(2n)``-node family — binary search over
    :func:`wakeup_forced_messages`.
    """
    count = n if subdivided is None else subdivided
    target = 4 * (n + count)
    lo, hi = 0, 4 * (n + count) * max(1, math.ceil(math.log2(n + count)))
    if wakeup_forced_messages(n, 0, count) <= target:
        return 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if wakeup_forced_messages(n, mid, count) > target:
            lo = mid
        else:
            hi = mid - 1
    return lo


# ----------------------------------------------------------------------
# Broadcast (Theorem 3.2)
# ----------------------------------------------------------------------
def broadcast_instances_log2(n: int, k: int) -> float:
    """``log2(|I|)`` for the Theorem 3.2 family with ``C = C*`` fixed:
    ``|X|! * binom(m - |Y|, |X|)`` with ``|X| = n/4k``, ``|Y| = 3n/4k``
    (Equation 6's left-hand side, computed exactly)."""
    if n % (4 * k) != 0:
        raise ValueError("4k must divide n")
    x = n // (4 * k)
    y = 3 * n // (4 * k)
    m = n * (n - 1) // 2
    return log2_factorial(x) + log2_binomial(m - y, x)


def broadcast_forced_messages(n: int, k: int, oracle_bits: int) -> float:
    """Messages forced by Theorem 3.2's argument on ``G_{n,k}``.

    With ``C*`` chosen adversarially, at least ``n/4k`` cliques must be
    discovered from outside; the surviving family after fixing the advice
    function has ``log2`` size at least
    ``broadcast_instances_log2 - oracle_outputs_log2``, and Lemma 2.1 with
    ``|X| = n/4k`` forces ``log2(|I|) - log2 Q - log2(|X|!)`` messages.
    """
    x = n // (4 * k)
    p = broadcast_instances_log2(n, k)
    q = oracle_outputs_log2(oracle_bits, 2 * n)
    return max(0.0, p - q - log2_factorial(x))


def broadcast_target_messages(n: int, k: int) -> float:
    """The contradiction threshold of Claim 3.3: ``n (k - 1) / 8``."""
    return n * (k - 1) / 8.0


# ----------------------------------------------------------------------
# Claim 2.1
# ----------------------------------------------------------------------
def claim21_lhs_log2(a: int, b: int) -> float:
    """``log2 binom(a(1 + b), a)``."""
    return log2_binomial(a * (1 + b), a)


def claim21_rhs_log2(a: int, b: int) -> float:
    """``log2 (6b)^a``."""
    if b <= 0:
        raise ValueError("b must be positive")
    return a * math.log2(6 * b)


def claim21_holds(a: int, b: int) -> bool:
    """Check Claim 2.1's inequality at a single point."""
    return claim21_lhs_log2(a, b) <= claim21_rhs_log2(a, b)


def claim21_constants(a_max: int = 200, b_max: int = 200) -> Tuple[int, int]:
    """Smallest ``(A, B)`` with the inequality holding on all of
    ``(A, a_max] x (B, b_max]`` — the paper's existential constants, located
    empirically (experiment E8 reports them; they turn out to be tiny)."""
    # Find smallest B that works for all a <= a_max, then smallest A for it.
    for big_b in range(0, b_max + 1):
        if all(
            claim21_holds(a, b)
            for a in range(1, a_max + 1)
            for b in range(big_b + 1, b_max + 1)
        ):
            break
    else:
        raise RuntimeError("no B found in range")
    for big_a in range(0, a_max + 1):
        if all(
            claim21_holds(a, b)
            for a in range(big_a + 1, a_max + 1)
            for b in range(big_b + 1, b_max + 1)
        ):
            return big_a, big_b
    raise RuntimeError("no A found in range")
