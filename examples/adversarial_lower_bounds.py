#!/usr/bin/env python
"""The lower bounds, live: the Lemma 2.1 adversary and both gadget families.

Three demonstrations:

1. The edge-discovery adversary drives probing schemes over an exhaustively
   enumerated instance family and certifies the information-theoretic bound
   ``probes >= log2 |I| - log2 |X|!`` on every run.

2. The wakeup gadgets ``G_{n,S}``: with the full Theorem 2.1 oracle, wakeup
   takes exactly ``N - 1`` messages; truncate the oracle and nodes go
   unreached; drop it entirely and the baselines pay ``Theta(n^2)``.

3. The broadcast gadgets ``G_{n,S,C*}``: the Theorem 3.2 machinery watches
   how Scheme B behaves inside an advice-less clique, picks the hidden edges
   ``C*`` adversarially, and shows that o(n)-bit advice strands the cliques
   while the full O(n)-bit oracle sails through.

Run:  python examples/adversarial_lower_bounds.py
"""

from repro import LightTreeBroadcastOracle, SchemeB
from repro.lowerbounds import (
    HalvingProber,
    LexicographicProber,
    ShuffledProber,
    choose_adversarial_c,
    enumerate_instances,
    gadget_broadcast_outcome,
    gadget_wakeup_upper,
    run_adversary,
    truncated_oracle_outcome,
    zero_advice_cost,
)


def adversary_demo() -> None:
    print("=== 1. Lemma 2.1 adversary (edge discovery on K*_6, |X| = 2) ===")
    family = enumerate_instances(6, 2)
    print(f"instance family size |I| = {len(family)}")
    for prober, name in (
        (LexicographicProber(), "lexicographic"),
        (ShuffledProber(11), "shuffled"),
        (HalvingProber(), "least-touched-node"),
    ):
        res = run_adversary(prober, family)
        print(
            f"  {name:<20} forced {res.probes:>3} probes "
            f"(bound: >= {res.lower_bound:.2f}, certified: {res.certified})"
        )
    print()


def wakeup_gadgets_demo() -> None:
    print("=== 2. Wakeup on G_(n,S) (Theorem 2.2's family) ===")
    n = 32
    up = gadget_wakeup_upper(n, seed=1)
    print(
        f"full oracle: {up.oracle_bits} bits (~N log N for N={up.gadget_nodes}), "
        f"{up.messages} messages (= N-1)"
    )
    for fraction in (0.75, 0.5, 0.25):
        t = truncated_oracle_outcome(n, fraction, seed=1)
        print(
            f"advice x{fraction}: {t.budget_bits}/{t.full_bits} bits -> "
            f"informed {t.informed}/{t.gadget_nodes} (broken, as predicted)"
        )
    zero = zero_advice_cost(n, seed=1)
    print(
        f"zero advice: flooding pays {zero['flooding_messages']} messages, "
        f"DFS token pays {zero['dfs_messages']} (Theta(n^2); m={zero['gadget_edges']})"
    )
    print()


def broadcast_gadgets_demo() -> None:
    print("=== 3. Broadcast on G_(n,S,C*) (Theorem 3.2's family) ===")
    n, k = 32, 4
    classes = choose_adversarial_c(SchemeB(), n, k)
    kinds = {c.kind for c in classes}
    print(
        f"Scheme B without advice is silent, so all {len(classes)} cliques "
        f"classify as {kinds} -> every f_i is hidden where only outside "
        f"probing finds it"
    )
    full = gadget_broadcast_outcome(SchemeB(), LightTreeBroadcastOracle(), n, k, seed=3)
    print(
        f"full O(N)-bit oracle ({full.oracle_bits} bits): {full.messages} messages, "
        f"informed {full.informed}/{full.graph_nodes} -> success"
    )
    capped = gadget_broadcast_outcome(
        SchemeB(), LightTreeBroadcastOracle(), n, k, seed=3, budget=n // (2 * k)
    )
    print(
        f"o(N) advice (cap {n // (2 * k)} bits): {capped.messages} messages, "
        f"informed {capped.informed}/{capped.graph_nodes} -> the cliques starve"
    )
    print()


def main() -> None:
    adversary_demo()
    wakeup_gadgets_demo()
    broadcast_gadgets_demo()
    print(
        "The counting side of both theorems (Equations 1-7) is exact and\n"
        "tabled by experiments E2 and E5 (python -m repro exp E2 E5);\n"
        "see EXPERIMENTS.md."
    )


if __name__ == "__main__":
    main()
