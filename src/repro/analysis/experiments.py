"""The experiment registry: one entry per paper result (E1-E8),
plus conclusion-conjecture extensions (E9-E11) registered from
:mod:`repro.analysis.extensions`.

The paper has no numbered tables or figures — its evaluation *is* its
theorems — so DESIGN.md defines eight experiments, each regenerating the
empirical content of one result.  Every experiment here returns an
:class:`ExperimentResult` (rows + headline findings); ``repro all``
prints their tables, ``repro verdict`` judges them against the
pre-registered criteria in :mod:`repro.verdict.criteria`, and
EXPERIMENTS.md records paper-vs-measured for each.

All experiments are deterministic (fixed seeds) and sized to run in seconds
on a laptop; pass larger ``sizes`` for sharper asymptotics.
"""

from __future__ import annotations

import inspect
import math
import random
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..algorithms.chatter import ChatterFlood
from ..algorithms.flooding import Flooding
from ..algorithms.scheme_b import HELLO_MESSAGE, SchemeB
from ..algorithms.tree_wakeup import SOURCE_MESSAGE, TreeWakeup
from ..core.oracle import NullOracle
from ..core.separation import separation_profile
from ..core.tasks import run_broadcast, run_wakeup
from ..lowerbounds.broadcast_bound import (
    choose_adversarial_c,
    clique_discovery_accounting,
    counting_curve_broadcast,
    gadget_broadcast_outcome,
)
from ..lowerbounds.counting import (
    claim21_constants,
    claim21_lhs_log2,
    claim21_rhs_log2,
    oracle_outputs_log2,
    oracle_outputs_log2_bound,
    wakeup_instances_log2,
)
from ..lowerbounds.edge_discovery import (
    HalvingProber,
    LexicographicProber,
    ShuffledProber,
    enumerate_instances,
    run_adversary,
)
from ..lowerbounds.wakeup_bound import (
    counting_curve,
    gadget_wakeup_upper,
    largest_biting_alpha,
    truncated_oracle_outcome,
    zero_advice_cost,
)
from ..network.builders import FAMILY_BUILDERS
from ..network.graph import GraphError, PortLabeledGraph
from ..obs.observe import resolve_obs
from ..oracles.light_tree import (
    LightTreeBroadcastOracle,
    light_spanning_tree,
    tree_contribution,
)
from ..oracles.spanning_tree import SpanningTreeWakeupOracle, build_spanning_tree
from ..simulator.schedulers import make_scheduler
from .fits import GrowthFit, classify_growth
from .result import ExperimentResult, format_experiment
from .series import growth_finding_series, measured_series

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
    "format_experiment",
    "experiment_e1_wakeup_upper",
    "experiment_e2_wakeup_lower",
    "experiment_e3_light_tree",
    "experiment_e4_broadcast_upper",
    "experiment_e5_broadcast_lower",
    "experiment_e6_separation",
    "experiment_e7_robustness",
    "experiment_e8_counting",
    "experiment_e15_mega_separation",
    "mega_sweep",
]

DEFAULT_SIZES = (16, 32, 64, 128, 256)
DEFAULT_FAMILIES = ("path", "cycle", "random_tree", "gnp_sparse", "gnp_dense", "complete")


def _family_graphs(
    families: Sequence[str], sizes: Sequence[int]
) -> Iterator[Tuple[str, int, PortLabeledGraph]]:
    """Yield ``(family, n, graph)`` over the grid, families outermost.

    A builder's :class:`GraphError` — its refusal of an infeasible size —
    skips that cell; any other builder exception is a bug and propagates.
    """
    for family in families:
        for n in sizes:
            try:
                graph = FAMILY_BUILDERS[family](n)
            except GraphError:
                continue
            yield family, n, graph


# ----------------------------------------------------------------------
# E1 — Theorem 2.1: wakeup upper bound
# ----------------------------------------------------------------------
def experiment_e1_wakeup_upper(
    sizes: Sequence[int] = DEFAULT_SIZES,
    families: Sequence[str] = DEFAULT_FAMILIES,
    obs=None,
) -> ExperimentResult:
    """Oracle size ``n log n + o(n log n)``; exactly ``n - 1`` messages."""
    obs = resolve_obs(obs)
    rows: List[Dict[str, Any]] = []
    for family, n, graph in _family_graphs(families, sizes):
        with obs.wallspan(f"cell/{family}/{n}"):
            result = run_wakeup(graph, SpanningTreeWakeupOracle(), TreeWakeup(), obs=obs)
        nn = graph.num_nodes
        rows.append(
            {
                "family": family,
                "n": nn,
                "oracle_bits": result.oracle_bits,
                "bound_bits": SpanningTreeWakeupOracle.size_upper_bound(nn),
                "bits/(n log n)": result.oracle_bits / (nn * math.log2(nn)),
                "messages": result.messages,
                "n-1": nn - 1,
                "success": result.success,
            }
        )
    findings = []
    ok = all(r["success"] and r["messages"] == r["n-1"] for r in rows)
    findings.append(
        f"all runs informed every node in exactly n-1 messages: {ok}"
    )
    within = all(r["oracle_bits"] <= r["bound_bits"] for r in rows)
    findings.append(f"all oracle sizes within the analytic bound: {within}")
    for series in growth_finding_series(rows, "oracle_bits", experiment="E1"):
        fits = classify_growth(series.xs, series.ys)
        findings.append(f"{series.group}: oracle size best fit {fits[0]}")
    return ExperimentResult("E1", "Theorem 2.1 — wakeup with a linear number of messages", rows, findings)


# ----------------------------------------------------------------------
# E2 — Theorem 2.2: wakeup lower bound
# ----------------------------------------------------------------------
def experiment_e2_wakeup_lower(
    gadget_sizes: Sequence[int] = (8, 16, 32, 64),
    counting_exponents: Sequence[int] = (10, 16, 22, 28, 34),
    alphas: Sequence[float] = (0.2, 1.0 / 3.0, 0.49),
) -> ExperimentResult:
    """Adversary runs, gadget measurements, and the exact counting curves."""
    rows: List[Dict[str, Any]] = []
    # (a) the Lemma 2.1 adversary against three probing schemes, exhaustively.
    for prober, name in (
        (LexicographicProber(), "lex"),
        (ShuffledProber(7), "shuffled"),
        (HalvingProber(), "halving"),
    ):
        res = run_adversary(prober, enumerate_instances(5, 2))
        rows.append(
            {
                "part": "adversary",
                "detail": f"prober={name} n=5 |X|=2",
                "value": res.probes,
                "reference": f">= {res.lower_bound:.2f}",
                "ok": res.certified,
            }
        )
    # (b) the hard family: upper bound tight on it, baselines quadratic.
    for n in gadget_sizes:
        row = gadget_wakeup_upper(n, seed=n)
        # "N" is a hidden series field (not in the printed columns): it lets
        # measured_series() expose the oracle-bits-vs-N curve for verdicts.
        rows.append(
            {
                "part": "gadget-upper",
                "detail": f"G_(n={n},S): N={row.gadget_nodes}",
                "value": row.oracle_bits,
                "reference": f"messages={row.messages}=N-1",
                "ok": row.success and row.messages == row.gadget_nodes - 1,
                "N": row.gadget_nodes,
            }
        )
        zero = zero_advice_cost(n, seed=n)
        rows.append(
            {
                "part": "zero-advice",
                "detail": f"G_(n={n},S): flooding",
                "value": zero["flooding_messages"],
                "reference": f"Theta(n^2); m={zero['gadget_edges']}",
                "ok": zero["flooding_success"],
            }
        )
    # (c) truncation: the concrete optimal algorithm degrades below full advice.
    for fraction in (0.25, 0.5, 0.75, 1.0):
        t = truncated_oracle_outcome(32, fraction, seed=5)
        rows.append(
            {
                "part": "truncation",
                "detail": f"advice x{fraction}",
                "value": f"informed {t.informed}/{t.gadget_nodes}",
                "reference": "full advice informs all",
                "ok": t.success if fraction == 1.0 else not t.success,
            }
        )
    # (d) the exact counting curves: superlinear forced messages for small alpha.
    for alpha in alphas:
        curve = counting_curve([2**e for e in counting_exponents], alpha)
        for c in curve:
            rows.append(
                {
                    "part": "counting",
                    "detail": f"alpha={alpha:.2f} n=2^{int(math.log2(c.n))}",
                    "value": f"{c.forced_messages:.3g}",
                    "reference": f"per-node {c.forced_per_node:.3f}",
                    "ok": True,
                }
            )
    findings = [
        "every adversary run satisfied Lemma 2.1's log2(|I|/|X|!) bound",
        "the Theorem 2.1 oracle is Theta(N log N) on the hard family and wakeup takes N-1 messages there",
        "zero advice costs Theta(n^2) messages on the gadgets; truncated advice strands nodes",
        "counting: forced messages grow superlinearly for alpha < 1/2 (alpha=0.2 bites from n=2^10; "
        "alpha=1/3 from ~2^30; alpha=0.49 only at astronomical n — the threshold is asymptotic)",
    ]
    return ExperimentResult(
        "E2",
        "Theorem 2.2 — wakeup needs Omega(n log n) advice bits",
        rows,
        findings,
        columns=("part", "detail", "value", "reference", "ok"),
    )


# ----------------------------------------------------------------------
# E3 — Claim 3.1: the light spanning tree
# ----------------------------------------------------------------------
def experiment_e3_light_tree(
    sizes: Sequence[int] = DEFAULT_SIZES,
    families: Sequence[str] = DEFAULT_FAMILIES,
    obs=None,
) -> ExperimentResult:
    """``sum #2(w(e)) <= 4n`` for the constructed tree, vs naive trees."""
    obs = resolve_obs(obs)
    rows: List[Dict[str, Any]] = []
    for family, n, graph in _family_graphs(families, sizes):
        nn = graph.num_nodes
        with obs.wallspan(f"cell/{family}/{n}"):
            light = tree_contribution(graph, light_spanning_tree(graph))
            bfs_parent = build_spanning_tree(graph, "bfs")
            bfs_edges = [(c, p) for c, p in bfs_parent.items() if p is not None]
            bfs = tree_contribution(graph, bfs_edges)
            dfs_parent = build_spanning_tree(graph, "dfs")
            dfs_edges = [(c, p) for c, p in dfs_parent.items() if p is not None]
            dfs = tree_contribution(graph, dfs_edges)
        rows.append(
            {
                "family": family,
                "n": nn,
                "light_tree": light,
                "4n_bound": 4 * nn,
                "ratio": light / (4 * nn),
                "bfs_tree": bfs,
                "dfs_tree": dfs,
                "ok": light <= 4 * nn,
            }
        )
    findings = [
        f"Claim 3.1 bound held on every graph: {all(r['ok'] for r in rows)}",
        "the light tree never exceeds (and usually improves on) BFS/DFS contributions",
    ]
    worst = max(rows, key=lambda r: r["ratio"])
    findings.append(
        f"worst observed ratio to the 4n bound: {worst['ratio']:.3f} "
        f"({worst['family']}, n={worst['n']})"
    )
    return ExperimentResult("E3", "Claim 3.1 — a spanning tree of contribution <= 4n", rows, findings)


# ----------------------------------------------------------------------
# E4 — Theorem 3.1: broadcast upper bound
# ----------------------------------------------------------------------
def experiment_e4_broadcast_upper(
    sizes: Sequence[int] = DEFAULT_SIZES,
    families: Sequence[str] = DEFAULT_FAMILIES,
    obs=None,
) -> ExperimentResult:
    """Oracle ``<= 8n`` bits; Scheme B ``<= 2(n-1)`` messages, all schedulers."""
    obs = resolve_obs(obs)
    rows: List[Dict[str, Any]] = []
    for family, n, graph in _family_graphs(families, sizes):
        nn = graph.num_nodes
        with obs.wallspan(f"cell/{family}/{n}"):
            result = run_broadcast(graph, LightTreeBroadcastOracle(), SchemeB(), obs=obs)
        hello = result.trace.messages_with_payload(HELLO_MESSAGE)
        msg = result.trace.messages_with_payload(SOURCE_MESSAGE)
        rows.append(
            {
                "family": family,
                "n": nn,
                "oracle_bits": result.oracle_bits,
                "8n_bound": 8 * nn,
                "messages": result.messages,
                "2(n-1)": 2 * (nn - 1),
                "M_msgs": msg,
                "hello_msgs": hello,
                "success": result.success,
            }
        )
    findings = []
    ok = all(
        r["success"] and r["messages"] <= r["2(n-1)"] and r["oracle_bits"] <= r["8n_bound"]
        for r in rows
    )
    findings.append(f"all runs: success, messages <= 2(n-1), oracle <= 8n: {ok}")
    for series in growth_finding_series(rows, "oracle_bits", experiment="E4"):
        fits = classify_growth(series.xs, series.ys)
        findings.append(f"{series.group}: oracle size best fit {fits[0]}")
    return ExperimentResult("E4", "Theorem 3.1 — broadcast with an O(n)-bit oracle", rows, findings)


# ----------------------------------------------------------------------
# E5 — Theorem 3.2: broadcast lower bound
# ----------------------------------------------------------------------
def experiment_e5_broadcast_lower(
    n: int = 32,
    k: int = 4,
    counting_pairs: Sequence = ((2**16, 2), (2**16, 4), (2**20, 4), (2**24, 4)),
) -> ExperimentResult:
    """Clique classification, adversarial gadget, and the Eq. 6-7 curves."""
    rows: List[Dict[str, Any]] = []
    for algorithm, name in ((SchemeB(), "SchemeB"), (Flooding(), "Flooding"), (ChatterFlood(), "ChatterFlood")):
        classes = choose_adversarial_c(algorithm, n, k)
        kinds = {c.kind for c in classes}
        rows.append(
            {
                "part": "classification",
                "detail": f"{name}, {n // k} cliques of size {k}",
                "value": ",".join(sorted(kinds)),
                "reference": "external => must be found from outside",
                "ok": True,
            }
        )
    full = gadget_broadcast_outcome(SchemeB(), LightTreeBroadcastOracle(), n, k, seed=1)
    rows.append(
        {
            "part": "gadget",
            "detail": f"full O(N)-bit oracle on G_(n={n},k={k})",
            "value": f"{full.messages} msgs, informed {full.informed}/{full.graph_nodes}",
            "reference": "linear messages, complete",
            "ok": full.success,
        }
    )
    capped = gadget_broadcast_outcome(
        SchemeB(), LightTreeBroadcastOracle(), n, k, seed=1, budget=n // (2 * k)
    )
    rows.append(
        {
            "part": "gadget",
            "detail": f"o(N) advice (cap {n // (2 * k)} bits)",
            "value": f"{capped.messages} msgs, informed {capped.informed}/{capped.graph_nodes}",
            "reference": "theorem predicts failure or blowup",
            "ok": not capped.success,
        }
    )
    chatter = gadget_broadcast_outcome(ChatterFlood(), NullOracle(), n, k, seed=1)
    rows.append(
        {
            "part": "gadget",
            "detail": "zero advice, ChatterFlood",
            "value": f"{chatter.messages} msgs",
            "reference": f"superlinear (>= n(k-1)/8 = {n * (k - 1) / 8:.0f})",
            "ok": chatter.messages >= n * (k - 1) / 8,
        }
    )
    # The proof's central count, measured on real runs.
    capped_acct = clique_discovery_accounting(capped.trace, n, k)
    rows.append(
        {
            "part": "accounting",
            "detail": "o(N)-advice run: cliques not self-revealing",
            "value": f"{capped_acct.not_self_revealing}/{capped_acct.total}",
            "reference": f">= n/4k = {n // (4 * k)}",
            "ok": capped_acct.not_self_revealing >= n // (4 * k),
        }
    )
    chatter_acct = clique_discovery_accounting(chatter.trace, n, k)
    rows.append(
        {
            "part": "accounting",
            "detail": "ChatterFlood: self-revealing cliques pay k(k-1)/2 each",
            "value": f"{chatter_acct.self_revealing} cliques, {chatter.messages} msgs",
            "reference": f">= {chatter_acct.self_revealing * k * (k - 1) // 2} internal msgs",
            "ok": chatter.messages >= chatter_acct.self_revealing * k * (k - 1) // 2,
        }
    )
    for nn, kk in counting_pairs:
        row = counting_curve_broadcast([(nn, kk)])[0]
        rows.append(
            {
                "part": "counting",
                "detail": f"n=2^{int(math.log2(nn))} k={kk} q=n/2k",
                "value": f"forced {row.forced_messages:.3g}",
                "reference": f"target n(k-1)/8 = {row.target_messages:.3g}",
                "ok": row.bound_bites,
            }
        )
    findings = [
        "SchemeB and Flooding are silent without advice: every clique classifies external, "
        "so the adversary hides f_i where only outside probing finds it",
        "ChatterFlood chatters: cliques classify internal and pay k(k-1)/2 messages each",
        "with o(N) advice the concrete Theorem 3.1 pair fails on the adversarial gadget; "
        "with the full O(N) oracle it stays linear",
        "Equations 6-7 force >= n(k-1)/8 messages at q = n/2k for all listed (n, k)",
    ]
    return ExperimentResult(
        "E5",
        "Theorem 3.2 — o(n)-bit oracles cannot broadcast with linear messages",
        rows,
        findings,
        columns=("part", "detail", "value", "reference", "ok"),
    )


# ----------------------------------------------------------------------
# E6 — the headline separation
# ----------------------------------------------------------------------
def experiment_e6_separation(
    sizes: Sequence[int] = (16, 32, 64, 128, 256),
    family: str = "complete",
    obs=None,
) -> ExperimentResult:
    """Wakeup advice ``Theta(n log n)`` vs broadcast advice ``Theta(n)``."""
    builder = FAMILY_BUILDERS[family]
    with resolve_obs(obs).wallspan(f"separation/{family}"):
        points = separation_profile(sizes, builder)
    rows = [
        {
            "n": p.n,
            "m": p.m,
            "wakeup_bits": p.wakeup_oracle_bits,
            "broadcast_bits": p.broadcast_oracle_bits,
            "ratio": p.advice_ratio,
            "wakeup_msgs": p.wakeup_messages,
            "broadcast_msgs": p.broadcast_messages,
            "flooding_msgs": p.flooding_messages,
        }
        for p in points
    ]
    series = measured_series(rows, experiment="E6")
    ns = series["wakeup_bits"].xs
    wake_fit = classify_growth(series["wakeup_bits"].xs, series["wakeup_bits"].ys)
    bcast_fit = classify_growth(series["broadcast_bits"].xs, series["broadcast_bits"].ys)
    findings = [
        f"wakeup advice best fit: {wake_fit[0]} (runner-up {wake_fit[1]})",
        f"broadcast advice best fit: {bcast_fit[0]} (runner-up {bcast_fit[1]})",
        f"advice ratio grows {rows[0]['ratio']:.2f} -> {rows[-1]['ratio']:.2f} "
        f"across n={ns[0]:.0f}..{ns[-1]:.0f} (the log n separation)",
        "both tasks stay linear in messages while flooding grows with m",
    ]
    return ExperimentResult("E6", f"The separation, on the {family} family", rows, findings)


# ----------------------------------------------------------------------
# E7 — robustness of the upper bounds
# ----------------------------------------------------------------------
def experiment_e7_robustness(
    n: int = 64,
    families: Sequence[str] = ("gnp_sparse", "complete", "random_tree"),
    schedulers: Sequence[str] = ("sync", "fifo", "random", "delay-hello", "hurry-hello"),
    obs=None,
) -> ExperimentResult:
    """Async + anonymous + bounded messages: both upper bounds unaffected."""
    obs = resolve_obs(obs)
    rows: List[Dict[str, Any]] = []
    for family in families:
        graph = FAMILY_BUILDERS[family](n)
        nn = graph.num_nodes
        wake_oracle = SpanningTreeWakeupOracle()
        bcast_oracle = LightTreeBroadcastOracle()
        for sched in schedulers:
            for anonymous in (False, True):
                with obs.wallspan(f"cell/{family}/{sched}/anon={anonymous}"):
                    w = run_wakeup(
                        graph,
                        wake_oracle,
                        TreeWakeup(),
                        scheduler=make_scheduler(sched, seed=13),
                        anonymous=anonymous,
                        obs=obs,
                    )
                    b = run_broadcast(
                        graph,
                        bcast_oracle,
                        SchemeB(),
                        scheduler=make_scheduler(sched, seed=13),
                        anonymous=anonymous,
                        obs=obs,
                    )
                rows.append(
                    {
                        "family": family,
                        "scheduler": sched,
                        "anonymous": anonymous,
                        "wakeup_msgs": w.messages,
                        "wakeup_ok": w.success and w.messages == nn - 1,
                        "bcast_msgs": b.messages,
                        "bcast_ok": b.success and b.messages <= 2 * (nn - 1),
                        "payloads": len(b.trace.payload_alphabet()),
                    }
                )
    findings = [
        f"all {len(rows)} scheduler x anonymity combinations succeeded within the "
        f"message bounds: {all(r['wakeup_ok'] and r['bcast_ok'] for r in rows)}",
        "message alphabet stays at 2 constant tokens (bounded-size messages)",
    ]
    return ExperimentResult(
        "E7", "Section 1.3 — upper bounds hold asynchronously, anonymously, bounded", rows, findings
    )


# ----------------------------------------------------------------------
# E8 — counting numerics (Claim 2.1, Equations 1-7, the Remark)
# ----------------------------------------------------------------------
def experiment_e8_counting(
    exponents: Sequence[int] = (8, 12, 16, 20),
    subdivided_factors: Sequence[int] = (1, 2, 3),
) -> ExperimentResult:
    """Claim 2.1 constants; P/Q growth; the c/(c+1) threshold Remark."""
    rows: List[Dict[str, Any]] = []
    big_a, big_b = claim21_constants(80, 80)
    rows.append(
        {
            "part": "claim2.1",
            "detail": f"constants on [1,80]^2",
            "value": f"A={big_a}, B={big_b}",
            "reference": "inequality holds from (1,1) on",
            "ok": big_a == 0 and big_b == 0,
        }
    )
    for a, b in ((5, 5), (20, 11), (64, 40)):
        rows.append(
            {
                "part": "claim2.1",
                "detail": f"a={a}, b={b}",
                "value": f"lhs=2^{claim21_lhs_log2(a, b):.1f}",
                "reference": f"rhs=2^{claim21_rhs_log2(a, b):.1f}",
                "ok": claim21_lhs_log2(a, b) <= claim21_rhs_log2(a, b),
            }
        )
    for e in exponents:
        n = 2**e
        q = n * e  # about n log n oracle bits on the 2n-node family
        p = wakeup_instances_log2(n)
        exact = oracle_outputs_log2(q, 2 * n)
        bound = oracle_outputs_log2_bound(q, 2 * n)
        rows.append(
            {
                "part": "P-vs-Q",
                "detail": f"n=2^{e}, q=n log n",
                "value": f"log2 P = {p:.3g}, log2 Q = {exact:.3g}",
                "reference": f"Eq.3 bound {bound:.3g} (exact <= bound)",
                "ok": exact <= bound + 1e-6,
            }
        )
    # The Remark: subdividing cn edges raises the biting threshold toward
    # c/(c+1).  At fixed finite n the largest alpha at which the bound still
    # forces superlinearity must be monotone in c.
    n = 2**22
    biting = [largest_biting_alpha(n, c) for c in subdivided_factors]
    for c, alpha in zip(subdivided_factors, biting):
        rows.append(
            {
                "part": "remark",
                "detail": f"c={c}: largest biting alpha at n=2^22",
                "value": f"{alpha:.2f}",
                "reference": f"asymptote c/(c+1) = {c / (c + 1):.3f}",
                "ok": True,
            }
        )
    monotone = all(a <= b for a, b in zip(biting, biting[1:]))
    rows.append(
        {
            "part": "remark",
            "detail": "biting threshold monotone in c",
            "value": str(biting),
            "reference": "Remark after Theorem 2.2",
            "ok": monotone,
        }
    )
    findings = [
        "Claim 2.1 needs no large constants: the inequality holds from a=1, b=1",
        "the exact output count Q never exceeds the paper's Equation 3 bound",
        "subdividing cn edges shifts the biting threshold toward c/(c+1), per the Remark",
    ]
    return ExperimentResult(
        "E8",
        "Counting numerics — Claim 2.1 and Equations 1-7",
        rows,
        findings,
        columns=("part", "detail", "value", "reference", "ok"),
    )


# ----------------------------------------------------------------------
# E15 — Theorem 2.2 at mega scale (implicit gadgets, vectorized engine)
# ----------------------------------------------------------------------
#: The growth series a mega sweep fits against the gadget's node count
#: ``N``: (label, candidate models, the model Theorem 2.2 predicts).
MEGA_GROWTH: Tuple[Tuple[str, Tuple[str, ...], str], ...] = (
    ("oracle bits", ("n", "n log n"), "n log n"),
    ("messages", ("n", "n log n"), "n"),
    ("flooding messages", ("n", "n^2"), "n^2"),
)


def mega_sweep(
    n_values: Sequence[int], seeds: Sequence[int], counts: Optional[int] = None
) -> Tuple[List[List[Any]], List[List[GrowthFit]]]:
    """One vectorized gadget batch per ``n``, and the growth fits across them.

    Returns ``(batches, fits)``: ``batches[i]`` is
    :func:`repro.vectorized.mega_gadget_batch` at ``n_values[i]`` over
    ``seeds`` (``counts`` overrides ``|S|``), and ``fits`` holds one
    :func:`classify_growth` ranking per :data:`MEGA_GROWTH` series — the
    per-``n`` mean oracle bits, mean messages and analytic flooding count —
    or nothing when fewer than two sizes were run.  ``repro mega`` and E15
    both report from it.
    """
    from ..vectorized import mega_gadget_batch

    batches = [mega_gadget_batch(n, list(seeds), counts=counts) for n in n_values]
    if len(batches) < 2:
        return batches, []
    nodes = [batch[0].gadget_nodes for batch in batches]
    series = (
        [sum(r.oracle_bits for r in batch) / len(batch) for batch in batches],
        [sum(r.messages for r in batch) / len(batch) for batch in batches],
        [float(batch[0].flooding_messages) for batch in batches],
    )
    fits = [
        classify_growth(nodes, ys, models=models)
        for ys, (_label, models, _expect) in zip(series, MEGA_GROWTH)
    ]
    return batches, fits


def experiment_e15_mega_separation(
    n_values: Sequence[int] = (2000, 5000, 10000, 20000, 50000),
    seeds: Sequence[int] = (0, 1, 2),
) -> ExperimentResult:
    """The E2 separation curves two orders of magnitude past explicit graphs.

    E2 measures ``G_{n,S}`` by materializing it, which caps ``n`` near
    ``10^3`` (the gadget has ``Theta(n^2)`` edges).  Here each point is an
    *implicit* gadget run through the vectorized engine
    (:func:`repro.vectorized.mega_gadget_batch`): the oracle's BFS tree is
    derived in closed form from ``(n, S)`` and the wakeup takes ``N - 1``
    messages through the batch core.  Three ``n = 10^5`` gadgets take a
    median 0.66 s (perfbench ``mega``, reference seconds, 2-vCPU x86-64
    VM), against 5.38 s when the tree was built by a per-node BFS loop.
    The growth fits then separate the two rates the theorem opposes:
    oracle bits ``Theta(N log N)`` against messages ``Theta(N)``, with
    zero-advice flooding ``Theta(N^2)`` computed analytically alongside.
    """
    batches, fits = mega_sweep(n_values, seeds)
    rows: List[Dict[str, Any]] = []
    for n, batch in zip(n_values, batches):
        for row in batch:
            rows.append(
                {
                    "part": "mega-upper",
                    "detail": f"G_(n={n},S) seed={row.seed}: N={row.gadget_nodes}",
                    "value": row.oracle_bits,
                    "reference": f"messages={row.messages}=N-1, rounds={row.rounds}",
                    "ok": row.success and row.messages == row.gadget_nodes - 1,
                    "N": row.gadget_nodes,
                }
            )
        rows.append(
            {
                "part": "zero-advice",
                "detail": f"G_(n={n},S): flooding (analytic)",
                "value": batch[0].flooding_messages,
                "reference": f"2m - N + 1; m={batch[0].gadget_edges}",
                "ok": True,
                "N": batch[0].gadget_nodes,
            }
        )
    for (label, _models, expect), ranked in zip(MEGA_GROWTH, fits):
        rows.append(
            {
                "part": "growth",
                "detail": f"{label} vs N",
                "value": str(ranked[0]),
                "reference": f"expected Theta({expect})",
                "ok": ranked[0].model == expect,
            }
        )
    findings = [
        f"implicit gadgets carry the separation to n={max(n_values)} "
        "(never materializing the Theta(n^2) edges)",
        "oracle bits fit Theta(N log N) while wakeup messages stay exactly N-1",
        "zero-advice flooding is Theta(N^2) on the same graphs — the Theorem 2.2 gap, at scale",
    ]
    return ExperimentResult(
        "E15",
        "Theorem 2.2 at mega scale — implicit gadgets through the vectorized engine",
        rows,
        findings,
        columns=("part", "detail", "value", "reference", "ok"),
    )


def _extension_registry() -> Dict[str, Callable[..., "ExperimentResult"]]:
    # imported lazily to avoid a circular import at module load
    from .extensions import (
        experiment_e10_gossip,
        experiment_e11_construction,
        experiment_e12_election,
        experiment_e13_exploration,
        experiment_e14_time,
        experiment_e9_tradeoff,
    )

    return {
        "E9": experiment_e9_tradeoff,
        "E10": experiment_e10_gossip,
        "E11": experiment_e11_construction,
        "E12": experiment_e12_election,
        "E13": experiment_e13_exploration,
        "E14": experiment_e14_time,
    }


#: The registry mapping experiment ids to callables.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "E1": experiment_e1_wakeup_upper,
    "E2": experiment_e2_wakeup_lower,
    "E3": experiment_e3_light_tree,
    "E4": experiment_e4_broadcast_upper,
    "E5": experiment_e5_broadcast_lower,
    "E6": experiment_e6_separation,
    "E7": experiment_e7_robustness,
    "E8": experiment_e8_counting,
    "E15": experiment_e15_mega_separation,
}
EXPERIMENTS.update(_extension_registry())


def run_experiment(experiment_id: str, obs=None, **kwargs) -> ExperimentResult:
    """Run one experiment from the registry by id (``E1`` .. ``E15``).

    ``obs`` — an optional :class:`repro.obs.Observation` — is forwarded
    to experiments that declare an ``obs`` parameter (the sweep-style
    ones, which open a ``wallspan`` per cell and thread the handle into
    their task runs); experiments without one never receive it.  Attach a
    :class:`repro.obs.Profiler` to get the per-phase cost breakdown that
    ``repro profile`` prints.
    """
    try:
        fn = EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; have {sorted(EXPERIMENTS)}"
        ) from None
    if obs is not None and "obs" in inspect.signature(fn).parameters:
        kwargs["obs"] = obs
    return fn(**kwargs)
