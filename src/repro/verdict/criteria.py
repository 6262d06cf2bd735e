"""The pre-registered criteria registry: one frozen spec per experiment.

Every entry in :data:`CRITERIA` was committed *before* it was evaluated
against a run, and names three things: the theorem or claim the experiment
tests, the measured series/columns it consumes (through the uniform
:func:`repro.analysis.measured_series` surface), and tolerance-carrying
predicates.  The evaluator (:mod:`repro.verdict.evaluate`) turns each
check into CONFIRMED / REFUTED / INCONCLUSIVE; changing a tolerance here
to make a red verdict green is exactly the move the harness exists to make
visible — tolerances only move in their own reviewed commit, with the
reason recorded in docs/VERDICT.md.

Tolerance policy (see docs/VERDICT.md):

* **Growth winners** demand the expected model wins the
  :func:`~repro.analysis.fits.classify_growth` race *and* fits well in
  absolute terms (``max_rel_err``, ``min_r2``).  The committed seeds fit
  with rel.err <= 0.024 and R^2 >= 0.998 on every gated series, so the
  frozen 0.05 / 0.99 leave >= 2x headroom while still refuting a series
  bent to a neighbouring growth class.
* **Exact counts** (wakeup's ``n-1`` messages, E11's zero messages) carry
  no tolerance at all: the theorems are exact, so the checks are too.
* **Bounds** (E3's ``<= 4n``, E4's ``<= 8n``) are inequalities against
  columns the experiment itself reports; a bound check never loosens the
  paper's constant.

A missing series or an empty row selection never REFUTES — it renders
INCONCLUSIVE, because "the data is absent" and "the theorem failed" must
stay distinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

__all__ = [
    "Check",
    "GrowthWinner",
    "ColumnsEqual",
    "ColumnsBound",
    "ColumnEquals",
    "RowsTrue",
    "RowsFalse",
    "RatioGrows",
    "Criterion",
    "CRITERIA",
    "PROFILES",
]

#: ``where`` filters are tuples of ``(field, value)`` pairs so checks stay
#: hashable/frozen; a row matches when every pair matches.
Where = Tuple[Tuple[str, Any], ...]


@dataclass(frozen=True)
class Check:
    """Base check: ``claim`` is the one-line statement being gated."""

    claim: str


@dataclass(frozen=True)
class GrowthWinner(Check):
    """The named series must fit ``expect`` best, and fit it well.

    ``series`` is a :func:`repro.analysis.measured_series` key
    (``column`` or ``column[group]``).  ``models`` lists the candidate
    shapes, null hypothesis first (ties are stable).  The winner must be
    ``expect`` with ``rel_rms_residual <= max_rel_err`` and
    ``r_squared >= min_r2`` — a winning-but-terrible fit is INCONCLUSIVE,
    a losing fit is REFUTED, and so is a winning fit whose constant is
    not positive (a series that does not grow confirms no growth rate).
    """

    series: str = ""
    expect: str = ""
    models: Tuple[str, ...] = ("n", "n log n")
    max_rel_err: float = 0.05
    min_r2: float = 0.99
    min_points: int = 3


@dataclass(frozen=True)
class ColumnsEqual(Check):
    """Row-wise exact equality of two reported columns."""

    left: str = ""
    right: str = ""
    where: Where = ()


@dataclass(frozen=True)
class ColumnsBound(Check):
    """Row-wise ``left <= factor * right``."""

    left: str = ""
    right: str = ""
    factor: float = 1.0
    where: Where = ()


@dataclass(frozen=True)
class ColumnEquals(Check):
    """Every selected row's ``column`` equals the literal ``value``."""

    column: str = ""
    value: Any = None
    where: Where = ()
    where_not: Where = ()


@dataclass(frozen=True)
class RowsTrue(Check):
    """Every selected row's flag ``column`` is truthy."""

    column: str = "ok"
    where: Where = ()
    where_not: Where = ()


@dataclass(frozen=True)
class RowsFalse(Check):
    """Every selected row's flag ``column`` is falsy (impossibility rows)."""

    column: str = "ok"
    where: Where = ()


@dataclass(frozen=True)
class RatioGrows(Check):
    """The named series must strictly grow from first to last point."""

    series: str = ""
    min_gain: float = 1.0


@dataclass(frozen=True)
class Criterion:
    """One experiment's frozen spec: theorem, hypothesis, checks, lesson."""

    experiment: str
    theorem: str
    hypothesis: str
    lesson: str
    checks: Tuple[Check, ...] = field(default_factory=tuple)


#: Experiment id -> its pre-registered criterion.
CRITERIA: Dict[str, Criterion] = {
    "E1": Criterion(
        experiment="E1",
        theorem="Theorem 2.1",
        hypothesis="an n log n + o(n log n)-bit oracle wakes every graph in exactly n-1 messages",
        lesson="the spanning-tree oracle is the n log n rate, not just O(n log n)",
        checks=(
            RowsTrue("every wakeup run informed all nodes", column="success"),
            ColumnsEqual("wakeup used exactly n-1 messages", left="messages", right="n-1"),
            ColumnsBound(
                "oracle size within the analytic bound", left="oracle_bits", right="bound_bits"
            ),
            GrowthWinner(
                "oracle bits grow Theta(n log n) on the complete family",
                series="oracle_bits[complete]",
                expect="n log n",
            ),
        ),
    ),
    "E2": Criterion(
        experiment="E2",
        theorem="Theorem 2.2",
        hypothesis="wakeup with O(n) messages needs Omega(n log n) advice bits",
        lesson="the counting bound bites exactly where Lemma 2.1's adversary says it must",
        checks=(
            RowsTrue(
                "Lemma 2.1 adversary certified its log2(|I|/|X|!) bound",
                where=(("part", "adversary"),),
            ),
            RowsTrue(
                "the Theorem 2.1 oracle is tight on the hard family (N-1 messages)",
                where=(("part", "gadget-upper"),),
            ),
            RowsTrue(
                "zero advice floods Theta(n^2) messages on the gadgets",
                where=(("part", "zero-advice"),),
            ),
            RowsTrue(
                "truncated advice strands nodes; full advice informs all",
                where=(("part", "truncation"),),
            ),
            GrowthWinner(
                "gadget oracle bits grow Theta(N log N)",
                series="value[gadget-upper]",
                expect="n log n",
            ),
        ),
    ),
    "E3": Criterion(
        experiment="E3",
        theorem="Claim 3.1",
        hypothesis="every graph has a spanning tree of contribution <= 4n",
        lesson="the light tree also never loses to BFS/DFS trees",
        checks=(
            RowsTrue("the 4n bound held on every graph", column="ok"),
            ColumnsBound("light tree <= 4n", left="light_tree", right="4n_bound"),
            ColumnsBound("light tree <= BFS tree", left="light_tree", right="bfs_tree"),
            ColumnsBound("light tree <= DFS tree", left="light_tree", right="dfs_tree"),
        ),
    ),
    "E4": Criterion(
        experiment="E4",
        theorem="Theorem 3.1",
        hypothesis="an 8n-bit oracle broadcasts in <= 2(n-1) messages on every graph",
        lesson="broadcast advice is genuinely linear — the n log n rate is gone",
        checks=(
            RowsTrue("every broadcast run informed all nodes", column="success"),
            ColumnsBound("messages <= 2(n-1)", left="messages", right="2(n-1)"),
            ColumnsBound("oracle size <= 8n bits", left="oracle_bits", right="8n_bound"),
            GrowthWinner(
                "oracle bits grow Theta(n) on the complete family",
                series="oracle_bits[complete]",
                expect="n",
            ),
        ),
    ),
    "E5": Criterion(
        experiment="E5",
        theorem="Theorem 3.2",
        hypothesis="o(n)-bit oracles cannot broadcast with a linear number of messages",
        lesson="the proof's discovery accounting is measurable on real traces",
        checks=(
            RowsTrue("adversarial gadget outcomes match the theorem", where=(("part", "gadget"),)),
            RowsTrue(
                "clique-discovery accounting meets the proof's counts",
                where=(("part", "accounting"),),
            ),
            RowsTrue(
                "Equations 6-7 force >= n(k-1)/8 messages at q = n/2k",
                where=(("part", "counting"),),
            ),
        ),
    ),
    "E6": Criterion(
        experiment="E6",
        theorem="Theorems 2.1+2.2 vs 3.1+3.2",
        hypothesis="wakeup advice is Theta(n log n) while broadcast advice is Theta(n)",
        lesson="the log n separation is visible at n=256 and the ratio keeps widening",
        checks=(
            GrowthWinner(
                "wakeup advice grows Theta(n log n)", series="wakeup_bits", expect="n log n"
            ),
            GrowthWinner("broadcast advice grows Theta(n)", series="broadcast_bits", expect="n"),
            RatioGrows("the wakeup/broadcast advice ratio widens with n", series="ratio"),
            GrowthWinner(
                "zero-advice flooding grows Theta(n^2) on the complete family",
                series="flooding_msgs",
                expect="n^2",
                models=("n", "n^2"),
            ),
        ),
    ),
    "E7": Criterion(
        experiment="E7",
        theorem="Section 1.3",
        hypothesis="both upper bounds survive async schedulers, anonymity, and bounded messages",
        lesson="the schemes never relied on synchrony or identifiers to begin with",
        checks=(
            RowsTrue("wakeup held its bound under every scheduler", column="wakeup_ok"),
            RowsTrue("broadcast held its bound under every scheduler", column="bcast_ok"),
            ColumnEquals(
                "the message alphabet stays at 2 constant tokens", column="payloads", value=2
            ),
        ),
    ),
    "E8": Criterion(
        experiment="E8",
        theorem="Claim 2.1 + Equations 1-7",
        hypothesis="the counting machinery holds numerically with no large constants",
        lesson="the biting threshold moves toward c/(c+1) exactly as the Remark predicts",
        checks=(RowsTrue("every numeric identity and bound held", column="ok"),),
    ),
    "E9": Criterion(
        experiment="E9",
        theorem="Conclusion (conjecture b)",
        hypothesis="depth-limited advice traces a monotone knowledge/efficiency frontier",
        lesson="partial advice buys partial efficiency — the tradeoff is a curve, not a cliff",
        checks=(RowsTrue("hybrid wakeup completed at every depth cut", column="success"),),
    ),
    "E10": Criterion(
        experiment="E10",
        theorem="Conclusion (conjecture a)",
        hypothesis="gossip completes in 2(n-1) messages with Theta(n log n) advice",
        lesson="oracle size transfers beyond the paper's two tasks unchanged",
        checks=(
            RowsTrue("tree gossip completed everywhere", column="tree_ok"),
            RowsTrue("flooding gossip completed everywhere", column="flood_ok"),
            ColumnsEqual(
                "tree gossip used exactly 2(n-1) messages", left="tree_msgs", right="2(n-1)"
            ),
            GrowthWinner(
                "gossip advice grows Theta(n log n) on the complete family",
                series="tree_bits[complete]",
                expect="n log n",
            ),
        ),
    ),
    "E11": Criterion(
        experiment="E11",
        theorem="Conclusion (conjecture a)",
        hypothesis="a parent-pointer oracle constructs a spanning tree with zero messages",
        lesson="for output tasks, knowledge substitutes for communication completely",
        checks=(
            RowsTrue("advised construction verified structurally", column="advised_ok"),
            RowsTrue("DFS construction verified structurally", column="dfs_ok"),
            ColumnEquals("advised construction sent zero messages", column="advised_msgs", value=0),
        ),
    ),
    "E12": Criterion(
        experiment="E12",
        theorem="Introduction (election)",
        hypothesis="one advice bit elects silently; zero advice is impossible anonymously",
        lesson="the classical ring impossibility dissolves under a single oracle bit",
        checks=(
            RowsTrue(
                "the 1-bit oracle elected exactly one leader, silently",
                column="advised_ok",
                where_not=(("family", "ring/anonymous"),),
            ),
            ColumnEquals(
                "the 1-bit oracle's elections sent zero messages",
                column="1bit_msgs",
                value=0,
                where_not=(("family", "ring/anonymous"),),
            ),
            RowsTrue(
                "min-id flooding elected correctly wherever ids exist",
                column="minid_ok",
                where_not=(("family", "ring/anonymous"),),
            ),
            RowsFalse(
                "anonymous symmetric rings elect no unique leader (the impossibility)",
                column="minid_ok",
                where=(("family", "ring/anonymous"),),
            ),
        ),
    ),
    "E13": Criterion(
        experiment="E13",
        theorem="Conclusion (exploration)",
        hypothesis="tree advice gives a memoryless agent an optimal halting tour",
        lesson="even the right to halt is knowledge an oracle must pay for",
        checks=(
            RowsTrue("the advised memoryless agent toured and halted", column="advised_ok"),
            ColumnsEqual(
                "the advised tour is exactly 2(n-1) moves", left="advised_moves", right="2(n-1)"
            ),
            RowsTrue("zero-advice DFS explored everywhere", column="dfs_ok"),
            RowsTrue("rotor-router covered every graph in budget", column="rotor_covered"),
        ),
    ),
    "E14": Criterion(
        experiment="E14",
        theorem="Introduction (time)",
        hypothesis="oracle content, at fixed oracle size, decides the time/message point",
        lesson="size bounds what is achievable; content picks the point inside the budget",
        checks=(
            RowsTrue("BFS-tree wakeup completed everywhere", column="bfs_ok"),
            RowsTrue("DFS-tree wakeup completed everywhere", column="dfs_ok"),
            ColumnsBound(
                "BFS advice matches flooding's time", left="bfs_rounds", right="flood_rounds"
            ),
            ColumnsBound("BFS is never slower than DFS", left="bfs_rounds", right="dfs_rounds"),
        ),
    ),
    "E15": Criterion(
        experiment="E15",
        theorem="Theorem 2.2 (at scale)",
        hypothesis="the separation survives two orders of magnitude past explicit graphs",
        lesson="implicit gadgets + the vectorized engine keep the asymptotics honest at n=10^5",
        checks=(
            RowsTrue(
                "every implicit-gadget wakeup took exactly N-1 messages",
                where=(("part", "mega-upper"),),
            ),
            RowsTrue(
                "the driver's own growth fits match the expected rates",
                where=(("part", "growth"),),
            ),
            GrowthWinner(
                "mega-gadget oracle bits grow Theta(N log N)",
                series="value[mega-upper]",
                expect="n log n",
            ),
            GrowthWinner(
                "analytic flooding grows Theta(N^2)",
                series="value[zero-advice]",
                expect="n^2",
                models=("n", "n^2"),
            ),
        ),
    ),
}


#: Grid profiles for ``repro verdict`` when it executes experiments itself.
#: ``default`` is the committed-seed minimum-viable grid (registry defaults);
#: ``full`` is the weekly-cron grid at larger sizes, where the asymptotic
#: fits are sharper and slow drift has nowhere to hide.
PROFILES: Dict[str, Mapping[str, Mapping[str, Any]]] = {
    "default": {},
    "full": {
        "E1": {"sizes": (16, 32, 64, 128, 256, 512)},
        "E3": {"sizes": (16, 32, 64, 128, 256, 512)},
        "E4": {"sizes": (16, 32, 64, 128, 256, 512)},
        "E6": {"sizes": (16, 32, 64, 128, 256, 512)},
        "E10": {"sizes": (8, 16, 32, 64, 128)},
        "E15": {"n_values": (2000, 5000, 10000, 20000, 50000, 100000)},
    },
}
