"""Hash-randomization stress harness: ``repro sanitize``.

The static half of the determinism story is the DET lint family
(:mod:`repro.lint.determinism`); this module is the dynamic half.  It
re-executes a small smoke grid of representative runs — broadcast,
wakeup, and gossip (whose rumor payloads are *frozensets of strings*, the
canonical hash-order hazard) — under several ``PYTHONHASHSEED`` values,
under both simulation engines (compiled fast path and the legacy
reference loop), and with a seeded randomized scheduler as an
order-perturbation probe.  Every run serializes to one canonical byte
blob (the JSONL event stream plus a canonical-JSON result summary); the
harness byte-compares blobs across the whole matrix and fails on the
first divergence.

``PYTHONHASHSEED`` is fixed at interpreter start, so each matrix entry
runs in a fresh subprocess (``repro sanitize --run-cells ...``, the
hidden worker mode) that prints one ``cell<TAB>sha256<TAB>bytes`` line
per cell.  The first hash seed is run twice, which additionally catches
within-seed nondeterminism (wall-clock leakage, residual global state)
that identical hash seeds would otherwise mask.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["SMOKE_CELLS", "cell_names", "run_cell", "run_matrix", "main"]

#: Default hash seeds the matrix crosses (the CLI can override).
DEFAULT_HASH_SEEDS = (0, 1, 4242)

_FASTPATH_ENV = "REPRO_FASTPATH"


@dataclass(frozen=True)
class SmokeCell:
    """One deterministic run: a task on a family under a scheduler.

    ``seed`` seeds the scheduler only; every family builder takes just
    ``n``, and seeds itself.
    """

    name: str
    task: str  # "broadcast" | "wakeup" | "gossip"
    family: str
    n: int
    scheduler: str
    seed: int


#: The grid: small enough to finish in seconds, broad enough to cross the
#: known hazard surfaces — gossip's frozenset payloads, the randomized
#: scheduler's seeded perturbation, and both paper tasks (each run with its
#: paper pair from :data:`repro.core.TASKS`).
SMOKE_CELLS: Tuple[SmokeCell, ...] = (
    SmokeCell("broadcast-kstar-sync", "broadcast", "kstar", 24, "sync", 0),
    SmokeCell("broadcast-cycle-random", "broadcast", "cycle", 16, "random", 7),
    SmokeCell("wakeup-kstar-fifo", "wakeup", "kstar", 24, "fifo", 3),
    SmokeCell("gossip-complete-sync", "gossip", "complete", 8, "sync", 0),
    SmokeCell("gossip-randomtree-random", "gossip", "random_tree", 10, "random", 11),
)


def cell_names() -> List[str]:
    return [cell.name for cell in SMOKE_CELLS]


def _cell_by_name(name: str) -> SmokeCell:
    for cell in SMOKE_CELLS:
        if cell.name == name:
            return cell
    raise KeyError(f"unknown sanitize cell {name!r}; have {cell_names()}")


def _build_graph(cell: SmokeCell):
    from .network.builders import FAMILY_BUILDERS

    return FAMILY_BUILDERS[cell.family](cell.n)


def run_cell(name: str) -> bytes:
    """Execute one smoke cell and return its canonical byte blob.

    The blob is what reproducibility is judged on: the JSONL event stream
    (canonical encoding, one event per line) followed by a canonical-JSON
    summary of the result rows.  Two runs agree iff their blobs agree.
    """
    from .algorithms import ALGORITHM_REGISTRY, TreeGossip
    from .core import TASKS, run_gossip, run_task
    from .obs import MemorySink, Observation
    from .obs.events import jsonable
    from .obs.sinks import encode_event
    from .oracles import GossipTreeOracle, make_oracle
    from .simulator.schedulers import make_scheduler

    cell = _cell_by_name(name)
    graph = _build_graph(cell)
    scheduler = make_scheduler(cell.scheduler, cell.seed)
    lines: List[str] = []

    if cell.task in TASKS:
        oracle_name, algorithm_name = TASKS[cell.task]
        sink = MemorySink()
        result = run_task(
            cell.task,
            graph,
            make_oracle(oracle_name),
            ALGORITHM_REGISTRY[algorithm_name].cls(),
            scheduler=scheduler,
            obs=Observation(sink=sink),
        )
        lines.extend(encode_event(event) for event in sink.events)
        summary = dict(result.trace.summary())
        summary["success"] = result.success
    elif cell.task == "gossip":
        result = run_gossip(graph, GossipTreeOracle(), TreeGossip(), scheduler=scheduler)
        # Gossip payloads are frozensets of rumor tuples — render every
        # delivery through the same canonical path the event stream uses,
        # so a hash-order leak in payload rendering is caught byte-for-byte.
        for d in result.trace.deliveries:
            lines.append(
                json.dumps(
                    {
                        "step": d.step,
                        "round": d.round,
                        "sender": jsonable(d.sender),
                        "receiver": jsonable(d.receiver),
                        "payload": jsonable(d.payload),
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
        summary = {
            "messages": result.messages,
            "complete": result.complete,
            "quiescent": result.quiescent,
            "max_payload_rumors": result.max_payload_rumors,
            "min_final_knowledge": result.min_final_knowledge,
            "success": result.success,
        }
    else:  # pragma: no cover - grid is static
        raise ValueError(f"unknown task {cell.task!r}")

    lines.append(json.dumps(jsonable(summary), sort_keys=True, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _worker_main(names: Sequence[str]) -> int:
    """Hidden worker mode: run cells, print ``name<TAB>sha256<TAB>size``."""
    for name in names:
        blob = run_cell(name)
        digest = hashlib.sha256(blob).hexdigest()
        print(f"{name}\t{digest}\t{len(blob)}")
    return 0


@dataclass(frozen=True)
class MatrixEntry:
    """One worker invocation's identity and its per-cell digests."""

    label: str  # e.g. "hashseed=0 engine=fastpath"
    digests: Dict[str, str]


def _spawn_worker(
    hash_seed: int, fastpath: bool, names: Sequence[str]
) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env[_FASTPATH_ENV] = "1" if fastpath else "0"
    # Make sure the child resolves the same package, however we were run.
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parts = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src_dir not in parts:
        env["PYTHONPATH"] = os.pathsep.join([src_dir] + parts)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "sanitize", "--run-cells", ",".join(names)],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"sanitize worker (PYTHONHASHSEED={hash_seed}, "
            f"{_FASTPATH_ENV}={env[_FASTPATH_ENV]}) failed:\n{proc.stderr}"
        )
    digests: Dict[str, str] = {}
    for line in proc.stdout.splitlines():
        if not line.strip():
            continue
        name, digest, _size = line.split("\t")
        digests[name] = digest
    missing = [n for n in names if n not in digests]
    if missing:
        raise RuntimeError(f"sanitize worker reported no digest for {missing}")
    return digests


def run_matrix(
    hash_seeds: Sequence[int] = DEFAULT_HASH_SEEDS,
    cells: Optional[Sequence[str]] = None,
) -> Tuple[bool, List[MatrixEntry]]:
    """Run the full matrix; returns ``(all_identical, entries)``.

    The matrix is ``hash_seeds x {fastpath, reference}`` plus a repeat of
    the first hash seed (catching within-seed nondeterminism).  Every cell
    must produce the same digest in every entry.
    """
    names = list(cells) if cells else cell_names()
    combos: List[Tuple[str, int, bool]] = []
    for seed in hash_seeds:
        combos.append((f"hashseed={seed} engine=fastpath", seed, True))
        combos.append((f"hashseed={seed} engine=reference", seed, False))
    if hash_seeds:
        combos.append((f"hashseed={hash_seeds[0]} engine=fastpath repeat", hash_seeds[0], True))
    entries = [
        MatrixEntry(label=label, digests=_spawn_worker(seed, fast, names))
        for label, seed, fast in combos
    ]
    ok = True
    for name in names:
        reference = entries[0].digests[name]
        if any(entry.digests[name] != reference for entry in entries):
            ok = False
    return ok, entries


def format_report(ok: bool, entries: List[MatrixEntry], names: Sequence[str]) -> str:
    """Human-readable matrix report, stable across runs."""
    out: List[str] = []
    for name in names:
        digests = [entry.digests[name] for entry in entries]
        identical = len(set(digests)) == 1
        marker = "ok " if identical else "DIVERGED"
        out.append(f"{marker} {name}  {digests[0][:12]}")
        if not identical:
            for entry in entries:
                out.append(f"    {entry.digests[name][:12]}  {entry.label}")
    out.append(
        f"{len(names)} cell{'s' if len(names) != 1 else ''} x "
        f"{len(entries)} runs: "
        + ("byte-identical" if ok else "DIVERGENCE DETECTED")
    )
    return "\n".join(out)


def main(
    hash_seeds: Optional[Sequence[int]] = None,
    cells: Optional[str] = None,
    run_cells: Optional[str] = None,
) -> int:
    """CLI entry point for ``repro sanitize`` (and its worker mode)."""
    if run_cells is not None:
        return _worker_main(run_cells.split(","))
    seeds = tuple(hash_seeds) if hash_seeds else DEFAULT_HASH_SEEDS
    names = cells.split(",") if cells else cell_names()
    try:
        for name in names:
            _cell_by_name(name)  # validate before spawning anything
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    ok, entries = run_matrix(seeds, names)
    print(format_report(ok, entries, names))
    return 0 if ok else 1
