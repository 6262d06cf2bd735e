"""One pass of the ``grid`` or ``mega`` workload, in a fresh interpreter.

    python perfbench/worker.py grid --out PATH [--trace] [--plant bend-e6]
    python perfbench/worker.py mega --seeds 0,1,2 --out PATH [--trace]
    python perfbench/worker.py setup {grid,mega} --out PATH

The pass writes one JSON object to ``PATH``: the time it finished its
imports, the timed wall time both as measured and in reference seconds
(``calibrate.py``; the host's speed is measured after each experiment or
batch), the outcome of each operation (experiment or replica), its own
peak RSS, and, when traced, the per-layer totals.
A grid pass renders the verdicts inside the timed region, as ``repro
verdict`` does; the caller checks them after the pass.
"""

from __future__ import annotations

import argparse
import copy
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402  (the benchmark's own modules, beside this file)
import tracing  # noqa: E402

#: E1-E15 in the order ``repro all`` runs them (``sorted(EXPERIMENTS)``).
EXPERIMENT_IDS = tuple(sorted(f"E{i}" for i in range(1, 16)))
#: ``repro mega``'s size for the large-working-set regime.
MEGA_N = 100_000


def _imports(workload: str) -> None:
    if workload == "grid":
        import repro.analysis.experiments  # noqa: F401
        import repro.verdict  # noqa: F401
    else:
        import repro.vectorized  # noqa: F401


def bend_e6(result):
    """E6 with its wakeup series bent to linear growth (a planted fault)."""
    bent = copy.deepcopy(result)
    for row in bent.rows:
        row["wakeup_bits"] = 3 * row["n"]
        row["ratio"] = row["wakeup_bits"] / row["broadcast_bits"]
    return bent


def _failing_rows(result) -> int:
    return sum(1 for r in result.rows if r.get("ok") is False or r.get("success") is False)


def run_grid(plant) -> dict:
    from repro.analysis import experiments
    from repro.verdict import evaluate

    results = {}
    wall_s = ref_s = 0.0
    clock = calibrate.Clock()
    for eid in EXPERIMENT_IDS:
        result = experiments.run_experiment(eid)
        if plant == "bend-e6" and eid == "E6":
            result = bend_e6(result)
        results[eid] = result
        if eid == EXPERIMENT_IDS[-1]:
            report = evaluate.evaluate_results(results)
        measured, reference = clock.step()
        wall_s += measured
        ref_s += reference
    failing = {eid: _failing_rows(r) for eid, r in results.items()}
    return {
        "wall_s": wall_s,
        "ref_s": ref_s,
        "ops_ok": [failing[eid] == 0 for eid in EXPERIMENT_IDS],
        "failing_rows": sum(failing.values()),
        "verdicts": {v.experiment: v.status for v in report.verdicts},
    }


def run_mega(seeds) -> dict:
    from repro import vectorized

    clock = calibrate.Clock()
    rows = vectorized.mega_gadget_batch(MEGA_N, seeds)
    wall_s, ref_s = clock.step()
    return {
        "wall_s": wall_s,
        "ref_s": ref_s,
        "ops_ok": [r.success and r.messages == r.gadget_nodes - 1 for r in rows],
        "replicas": [
            {"seed": r.seed, "nodes": r.gadget_nodes, "messages": r.messages, "success": r.success}
            for r in rows
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("grid", "mega", "setup"))
    parser.add_argument("workload", nargs="?", choices=("grid", "mega"))
    parser.add_argument("--seeds", default="")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--plant", choices=("bend-e6",))
    args = parser.parse_args(argv)

    _imports(args.workload or args.mode)
    imported = time.time()
    out = {"imported_at": imported}
    if args.mode != "setup":
        recorder = None
        if args.trace:
            recorder = tracing.Recorder()
            tracing.install(recorder)
        if args.mode == "grid":
            out.update(run_grid(args.plant))
        else:
            out.update(run_mega([int(s) for s in args.seeds.split(",")]))
        if recorder is not None:
            out["layers"] = tracing.layer_totals(recorder.spans)
        out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
