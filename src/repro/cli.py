"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment E1 [E2 ...]`` (alias: ``exp``)
    Run experiments from the registry and print their tables and findings.
    ``--workers N`` fans the experiments over a process pool with a
    deterministic, serial-identical merge (default ``$REPRO_WORKERS``,
    else 1 = in-process).
``all``
    Run every experiment (E1-E15) at default sizes; accepts the same
    ``--workers`` flag.

    Both commands also take the fault-tolerance flags ``--timeout S``,
    ``--retries N``, ``--run-dir DIR`` and ``--resume DIR`` (see
    :mod:`repro.runner` and ``docs/ROBUSTNESS.md``).  Any of them, or
    ``--workers N`` with N > 1, runs the experiments through the runner's
    pool, where a crashed or hung experiment degrades to a structured
    FAILED row (nonzero exit) instead of taking the run down, a
    ``runner:`` summary line follows the tables, and an interrupted
    ``--run-dir`` run resumes byte-identically.
``separation [--family F] [--sizes 16,32,...]``
    Just the headline separation sweep.
``quickstart [n]``
    The three-line demo: both theorems plus the flooding baseline on K*_n.
``report [path] [--only E1,E4]``
    Run experiments and write a self-contained markdown report.
``compare [--family F] [--n N]``
    Oracle x algorithm comparison matrix on one network.
``list``
    List the available experiments and the algorithm registry (with each
    algorithm's declared ``wakeup`` / ``anonymous_safe`` claims).
``lint [paths ...] [--format text|json] [--select ...] [--ignore ...]``
    Static analysis: model-compliance rules (MDL001-MDL005) over scheme,
    algorithm, and oracle source, plus the determinism sanitizer
    (DET001-DET008) over the whole codebase; exits nonzero on findings
    not covered by the committed ``lint_baseline.json``.
``sanitize [--hash-seeds S1,S2,...] [--cells NAME,...]``
    Hash-randomization stress harness: re-runs a smoke grid under several
    ``PYTHONHASHSEED`` values and both engines, byte-diffing the canonical
    trace blobs; exits nonzero on any divergence.
``trace --task broadcast --family kstar --n 64 --out run.jsonl``
    Run one task with full telemetry and export the structured event
    stream as JSONL (plus a wall-time-per-phase table on stdout).
    ``--format chrome|flame`` exports a Chrome/Perfetto trace or
    collapsed-stack flamegraph text instead; ``--format
    causal-json|causal-dot`` dumps the run's happened-before DAG
    (message lineage, causal depth, critical path).  ``REPRO_FASTPATH=0``
    in the environment runs the reference loop instead of the fast path
    (the streams are byte-identical; see ``docs/PERFORMANCE.md``).
``mega [--sizes 2000,10000,...] [--batch-seeds 0,1,2]``
    Theorem 2.2 at mega scale: tree wakeup on *implicit* ``G_{n,S}``
    gadgets through the vectorized batch engine — feasible to
    ``n = 10^6`` because the ``Theta(n^2)``-edge graph is never
    materialized.  Prints per-(n, seed) rows and the oracle-bits /
    messages / flooding growth fits.
``stats run.jsonl [more.jsonl ...]``
    Summarize saved event streams (``repro trace`` output, a run
    directory's ``runner.jsonl``, a daemon access log): per-run table,
    per-round delivery histogram, replayed metrics registry (with
    p50/p90/p99 columns), growth fits across sizes.  Several files merge
    into one report; event kinds it does not know are skipped.
``profile E4 [--chrome out.json] [--flame out.txt]``
    Run one experiment under the deterministic profiler: nested
    per-phase wall-clock table (self/cumulative), optional Chrome-trace
    and flamegraph exports.
``bench-export raw.json [--out bench.json]``
    Distill pytest-benchmark JSON output into a ``repro-bench/1``
    document, the shape of the committed ``BENCH_*.json`` baselines.
``verdict [EXP ...] [--results DIR] [--json] [--log [PATH]]``
    Evaluate the pre-registered success criteria (see
    :mod:`repro.verdict` and ``docs/VERDICT.md``): each experiment's
    frozen spec renders CONFIRMED / REFUTED / INCONCLUSIVE with
    measured-vs-predicted numbers, from a live minimum-viable grid
    (``--profile full`` for the weekly-cron sizes) or a saved
    ``--run-dir`` directory's ``results.json``.  ``--json``/``--json-out``
    emit the canonical ``repro-verdict/1`` report, ``--md-out`` the
    markdown table, ``--log`` prepends one-line entries to
    ``RESEARCH_LOG.md`` (idempotent), and ``--trace`` saves
    ``verdict_rendered`` events for ``repro stats``.  Exit 1 on any
    REFUTED; INCONCLUSIVE warns on stderr.
``serve [--port P] [--uds PATH] [--max-pending N] [--access-log F]``
    The long-running advice-serving daemon (see :mod:`repro.service` and
    ``docs/SERVICE.md``): advice-construction and simulation jobs over
    localhost HTTP plus an optional Unix-socket IPC lane, answered
    byte-identically to the direct library calls, with a response cache,
    an in-memory memo of built graphs and advice, single-flight request
    coalescing and bounded-queue backpressure.  SIGTERM drains
    gracefully: in-flight jobs finish, new ones are refused, exit 0.

``experiment``/``all`` additionally take ``--progress``: live
done/failed/ETA heartbeats on stderr while the grid runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Collection, List, Optional

from .analysis.experiments import EXPERIMENTS, format_experiment, run_experiment
from .core.tasks import TASKS
from .network.builders import FAMILY_BUILDERS
from .network.graph import GraphError
from .oracles import ORACLE_FACTORIES
from .simulator.schedulers import SCHEDULER_NAMES
from .simulator.trace import TRACE_LEVELS

__all__ = ["main"]


class _UsageError(Exception):
    """A name or combination no command accepts; :func:`main` prints it and
    exits 2, as it does for a size a graph family refuses (GraphError)."""


def _comma_list(
    item: Callable[[str], Any], choices: Optional[Collection] = None
) -> Callable[[str], list]:
    """An argparse ``type=`` for comma-separated values, each converted by
    ``item`` and, when ``choices`` is given, required to be one of them."""

    def parse(text: str) -> list:
        values = [item(part) for part in text.split(",")]
        unknown = [v for v in values if choices is not None and v not in choices]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"invalid choice(s) {unknown} (choose from {', '.join(sorted(choices))})"
            )
        return values

    # argparse reports a ValueError raised by ``item`` as "invalid <name> value".
    parse.__name__ = f"{item.__name__} list"
    return parse


#: The largest ``PYTHONHASHSEED`` an interpreter accepts at start-up.
_MAX_HASH_SEED = 2**32 - 1


def _hash_seed(text: str) -> int:
    """One ``PYTHONHASHSEED`` value: an integer from 0 to 4294967295."""
    if not text.isdecimal() or int(text) > _MAX_HASH_SEED:
        raise argparse.ArgumentTypeError(
            f"invalid hash seed {text!r} (an integer from 0 to {_MAX_HASH_SEED})"
        )
    return int(text)


def _out_path(text: str) -> str:
    """An argparse ``type=`` for a file a command writes: its directory must
    exist and it must not be a directory, so the command refuses it before
    doing any work."""
    directory = os.path.dirname(text)
    if directory and not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"directory {directory!r} does not exist")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def _family_member(family: str, n: int):
    """The ``(family, n)`` network; an unknown family is a usage error."""
    if family not in FAMILY_BUILDERS:
        raise _UsageError(f"unknown family {family!r}; have {sorted(FAMILY_BUILDERS)}")
    return FAMILY_BUILDERS[family](n)


def _cmd_experiment(
    ids: List[str],
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    run_dir: Optional[str] = None,
    resume: Optional[str] = None,
    progress: bool = False,
) -> int:
    from .runner import (
        DEFAULT_RETRIES,
        ProgressReporter,
        RetryPolicy,
        resilient_run_experiments,
        resolve_workers,
    )

    try:
        workers = resolve_workers(workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if resume is not None:
        if not os.path.isdir(resume):
            print(
                f"error: --resume directory {resume!r} does not exist "
                f"(it is created by a previous run's --run-dir)",
                file=sys.stderr,
            )
            return 2
        run_dir = resume
    use_runner = workers > 1 or progress or any(
        v is not None for v in (timeout, retries, run_dir)
    )
    stats = None
    try:
        if use_runner:
            # The process pool: per-experiment timeout/retry, crash
            # isolation, and (with a run dir) a journal that makes the run
            # resumable.  Results come back in request order and print
            # exactly what a serial run prints.  ``--progress`` rides the
            # same path: the runner settles one experiment at a time,
            # which is what gives the heartbeats their done/failed counts
            # and ETA.
            policy = RetryPolicy(
                retries=retries if retries is not None else DEFAULT_RETRIES,
                timeout=timeout,
            )
            reporter = (
                ProgressReporter(total=len(ids), label="experiments")
                if progress
                else None
            )
            report = resilient_run_experiments(
                ids, workers=workers, policy=policy, run_dir=run_dir, progress=reporter,
            )
            ordered = [report.results[eid] for eid in ids]
            stats = report.stats
        else:
            ordered = [run_experiment(eid) for eid in ids]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = 0
    for result in ordered:
        print(format_experiment(result))
        print()
        bad = [r for r in result.rows if r.get("ok") is False or r.get("success") is False]
        if bad:
            status = 1
    if stats is not None:
        print(stats.summary_line())
        if stats.failed:
            print(
                f"error: {stats.failed} experiment(s) failed after exhausting "
                f"retries (see the FAILED rows above)",
                file=sys.stderr,
            )
            status = 1
    return status


def _cmd_list() -> int:
    from .algorithms import ALGORITHM_REGISTRY
    from .analysis.tables import format_table

    print("experiments:")
    for eid in sorted(EXPERIMENTS):
        result_fn = EXPERIMENTS[eid]
        doc = (result_fn.__doc__ or "").strip().splitlines()[0]
        print(f"{eid}: {doc}")
    print()
    rows = [
        {
            "algorithm": info.name,
            "wakeup": info.wakeup,
            "anonymous_safe": info.anonymous_safe,
        }
        for __, info in sorted(ALGORITHM_REGISTRY.items())
    ]
    print(format_table(rows, title="algorithms (repro.algorithms.ALGORITHM_REGISTRY):"))
    return 0


def _cmd_separation(family: str, sizes: Optional[List[int]]) -> int:
    kwargs = {"family": family}
    if sizes:
        kwargs["sizes"] = tuple(sizes)
    result = run_experiment("E6", **kwargs)
    print(format_experiment(result))
    return 0


def _cmd_quickstart(n: int) -> int:
    from .algorithms import Flooding, SchemeB, TreeWakeup
    from .core import NullOracle, run_broadcast, run_wakeup
    from .network import complete_graph_star
    from .oracles import LightTreeBroadcastOracle, SpanningTreeWakeupOracle

    graph = complete_graph_star(n)
    for label, result in (
        ("wakeup  (Thm 2.1)", run_wakeup(graph, SpanningTreeWakeupOracle(), TreeWakeup())),
        ("broadcast (Thm 3.1)", run_broadcast(graph, LightTreeBroadcastOracle(), SchemeB())),
        ("flooding (baseline)", run_broadcast(graph, NullOracle(), Flooding())),
    ):
        s = result.trace.summary()
        status = "ok" if result.success else "FAILED"
        print(
            f"{label}: n={result.graph_nodes}, {result.oracle_name} "
            f"({result.oracle_bits} bits) + {result.algorithm_name} -> "
            f"{s['messages']} messages in {s['rounds']} rounds, "
            f"informed {s['informed']}/{result.graph_nodes}, "
            f"undelivered {s['undelivered']} [{status}]"
        )
    return 0


def _cmd_lint(
    paths: List[str],
    output_format: str,
    select: Optional[str],
    ignore: Optional[str],
    list_rules: bool,
    baseline: Optional[str] = None,
    no_baseline: bool = False,
    write_baseline_to: Optional[str] = None,
) -> int:
    from .lint import (
        DEFAULT_BASELINE_NAME,
        BaselineError,
        LintError,
        apply_baseline,
        det_rule_catalog,
        format_json,
        format_text,
        iter_python_files,
        lint_paths,
        load_baseline,
        rule_catalog,
        selected_codes,
        write_baseline,
    )

    if list_rules:
        print(rule_catalog())
        print(det_rule_catalog())
        return 0
    lint_targets = paths or ["src/repro"]
    select_list = select.split(",") if select else None
    ignore_list = ignore.split(",") if ignore else None
    try:
        findings = lint_paths(lint_targets, select=select_list, ignore=ignore_list)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if write_baseline_to is not None:
        count = write_baseline(findings, write_baseline_to)
        print(
            f"wrote {count} entr{'y' if count == 1 else 'ies'} to "
            f"{write_baseline_to} — fill in every reason before committing"
        )
        return 0
    stale: List = []
    if not no_baseline:
        baseline_path = baseline
        if baseline_path is None and os.path.isfile(DEFAULT_BASELINE_NAME):
            baseline_path = DEFAULT_BASELINE_NAME
        if baseline_path is not None:
            try:
                entries = load_baseline(baseline_path)
            except BaselineError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            # Staleness is judged only against what this invocation could
            # have re-found: the rules that ran over the files that were
            # linted.  Linting tests/fixtures must not condemn src entries.
            findings, _accepted, stale = apply_baseline(
                findings,
                entries,
                linted_paths=list(iter_python_files(lint_targets)),
                active_codes=selected_codes(select_list, ignore_list),
            )
    if output_format == "json":
        print(format_json(findings))
    else:
        print(format_text(findings))
    for entry in stale:
        print(
            f"error: stale baseline entry {entry.code} at {entry.path} "
            f"({entry.snippet!r}) matched nothing — prune it",
            file=sys.stderr,
        )
    return 1 if findings or stale else 0


def _cmd_serve(
    host: str,
    port: int,
    uds: Optional[str],
    max_pending: int,
    access_log: Optional[str],
) -> int:
    from .service import ServiceConfig, serve

    try:
        config = ServiceConfig(host=host, port=port, uds=uds, max_pending=max_pending)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return serve(config, access_log=access_log)


#: ``repro trace --format`` choices: the JSONL event stream (default), the
#: two profiler exports, and the two causal-DAG dumps.
TRACE_FORMATS = ("jsonl", "chrome", "flame", "causal-json", "causal-dot")


def _cmd_trace(
    task: str,
    family: str,
    n: int,
    oracle_name: Optional[str],
    algorithm_name: Optional[str],
    scheduler_name: str,
    seed: int,
    out: str,
    audit: bool,
    trace_level: str = "full",
    out_format: str = "jsonl",
) -> int:
    from .algorithms import ALGORITHM_REGISTRY
    from .analysis.tables import format_table
    from .core import run_task
    from .obs import (
        JSONLSink,
        MemorySink,
        Observation,
        Profiler,
        build_causal_dag,
        chrome_trace_json,
        collapsed_stacks,
    )
    from .oracles import make_oracle
    from .simulator.schedulers import make_scheduler

    if audit and trace_level != "full":
        raise _UsageError("--audit replays the delivery log and needs --trace-level full")
    graph = _family_member(family, n)
    default_oracle, default_algorithm = TASKS[task]
    oracle = make_oracle(oracle_name or default_oracle)
    algorithm_name = algorithm_name or default_algorithm
    info = ALGORITHM_REGISTRY.get(algorithm_name)
    if info is None:
        raise _UsageError(
            f"unknown algorithm {algorithm_name!r}; have {sorted(ALGORITHM_REGISTRY)}"
        )
    # One Observation per format family: jsonl streams straight to disk;
    # the causal formats buffer events in memory to assemble the DAG; the
    # profiler formats skip events entirely and record wall-clock spans.
    profiler: Optional["Profiler"] = None
    if out_format in ("chrome", "flame"):
        profiler = Profiler()
        obs_handle = Observation(profile=profiler)
    elif out_format in ("causal-json", "causal-dot"):
        obs_handle = Observation(MemorySink())
    else:
        obs_handle = Observation(JSONLSink(out))
    with obs_handle as obs:
        result = run_task(
            task,
            graph,
            oracle,
            info.cls(),
            scheduler=make_scheduler(scheduler_name, seed),
            audit=audit,
            obs=obs,
            trace_level=trace_level,
        )
        events = getattr(obs.sink, "count", None)
    s = result.trace.summary()
    status = "ok" if result.success else "FAILED"
    print(
        f"{task} on {family} n={result.graph_nodes}: {result.oracle_name} "
        f"({result.oracle_bits} bits) + {result.algorithm_name} -> "
        f"{s['messages']} messages in {s['rounds']} rounds, "
        f"informed {s['informed']}/{result.graph_nodes} [{status}]"
    )
    timing_rows = obs.timings.as_rows()
    if timing_rows:
        print()
        print(format_table(timing_rows, title="Wall time per phase (seconds)"))
    print()
    if out_format == "jsonl":
        print(f"wrote {events} events to {out}")
    elif out_format in ("chrome", "flame"):
        text = (
            chrome_trace_json(profiler, process_name=f"repro trace {task}")
            if out_format == "chrome"
            else collapsed_stacks(profiler)
        )
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
        what = "Chrome trace" if out_format == "chrome" else "collapsed stacks"
        print(f"wrote {what} ({len(profiler.records)} span(s)) to {out}")
    else:
        dag = build_causal_dag(obs.sink.events)
        cs = dag.summary()
        print(
            f"causal DAG: {cs['messages']} messages, depth {cs['causal_depth']} "
            f"(rounds {cs['rounds']}), critical path {len(cs['critical_path'])} "
            f"message(s), max fan-out {cs['max_fanout']}"
        )
        text = dag.to_json() + "\n" if out_format == "causal-json" else dag.to_dot()
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote causal {'JSON' if out_format == 'causal-json' else 'DOT'} to {out}")
    return 0 if result.success else 1


def _cmd_mega(sizes: List[int], seeds: List[int], count: Optional[int]) -> int:
    from .analysis.experiments import mega_sweep
    from .analysis.tables import format_table

    batches, fits = mega_sweep(sizes, seeds, counts=count)
    rows = [row for batch in batches for row in batch]
    table = [
        {
            "n": row.n,
            "seed": row.seed,
            "N": row.gadget_nodes,
            "oracle_bits": row.oracle_bits,
            "bits/(N log N)": f"{row.bits_per_node_log:.3f}",
            "messages": row.messages,
            "rounds": row.rounds,
            "flooding (analytic)": row.flooding_messages,
            "ok": "yes" if row.success else "NO",
        }
        for row in rows
    ]
    print(format_table(table, title="Tree wakeup on implicit G_(n,S) (vectorized batch)"))
    if fits:
        print()
        for label, ranked in zip(("oracle bits", "messages", "flooding"), fits):
            print(f"{label:>12}: best fit {ranked[0]}")
    return 0 if all(row.success for row in rows) else 1


def _cmd_stats(paths: List[str]) -> int:
    from .obs import read_jsonl, stats_report

    # Multiple trace files merge by concatenation, in argument order: the
    # streams are self-delimiting (run_started brackets each run), so the
    # replayed registry is exactly what one Observation seeing all the
    # runs would have held.
    events: List = []
    try:
        for path in paths:
            events.extend(read_jsonl(path))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(stats_report(events))
    except BrokenPipeError:
        # Downstream pager/head closed early; that's not an error.  Detach
        # stdout so the interpreter's shutdown flush doesn't complain too.
        sys.stdout = open(os.devnull, "w")
        return 0
    return 0


def _cmd_profile(
    experiment_id: str,
    chrome_out: Optional[str],
    flame_out: Optional[str],
) -> int:
    """Run one experiment with a profiler attached and print the per-phase
    cost table (self/cumulative seconds, fully nested)."""
    from .analysis.tables import format_table
    from .obs import Observation, Profiler, chrome_trace_json, collapsed_stacks

    profiler = Profiler()
    # Profile-only Observation: no sink, no metrics, so the hot paths stay
    # dark (enabled=False) and the numbers reflect an unobserved run.
    obs = Observation(profile=profiler)
    try:
        with profiler.span(experiment_id.upper()):
            result = run_experiment(experiment_id, obs=obs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_experiment(result))
    print()
    rows = profiler.as_rows()
    if rows:
        print(format_table(rows, title="Profile (seconds; self = excluding children)"))
        print()
    print(f"total profiled wall time: {profiler.total_s:.3f}s over {len(profiler.records)} span(s)")
    if chrome_out:
        with open(chrome_out, "w", encoding="utf-8") as handle:
            handle.write(chrome_trace_json(profiler, process_name=f"repro profile {experiment_id}"))
            handle.write("\n")
        print(f"wrote Chrome trace to {chrome_out} (open in chrome://tracing or ui.perfetto.dev)")
    if flame_out:
        with open(flame_out, "w", encoding="utf-8") as handle:
            handle.write(collapsed_stacks(profiler))
        print(f"wrote collapsed stacks to {flame_out} (feed to flamegraph.pl or speedscope)")
    bad = [r for r in result.rows if r.get("ok") is False or r.get("success") is False]
    return 1 if bad else 0


def _cmd_bench_export(in_path: str, out_path: str) -> int:
    from .obs import emit_bench_obs

    try:
        document = emit_bench_obs(in_path, out_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out_path} ({len(document['benchmarks'])} benchmark(s))")
    return 0


def _cmd_verdict(
    ids: List[str],
    results_dir: Optional[str],
    profile: str,
    as_json: bool,
    json_out: Optional[str],
    md_out: Optional[str],
    log_path: Optional[str],
    trace_out: Optional[str],
) -> int:
    """Render the pre-registered criteria: CONFIRMED / REFUTED / INCONCLUSIVE.

    Exit code 1 on any REFUTED verdict; INCONCLUSIVE verdicts warn on
    stderr but do not fail (absence of data is not refutation).
    """
    import json as json_module

    from .verdict import (
        CRITERIA,
        INCONCLUSIVE,
        PROFILES,
        REFUTED,
        append_research_log,
        evaluate_results,
        render_markdown_table,
        report_to_json,
    )

    if profile not in PROFILES:
        print(
            f"error: unknown profile {profile!r}; have {sorted(PROFILES)}",
            file=sys.stderr,
        )
        return 2
    wanted = [eid.upper() for eid in ids] if ids else list(CRITERIA)
    unknown = [eid for eid in wanted if eid not in CRITERIA]
    if unknown:
        print(
            f"error: no pre-registered criteria for {unknown}; have {sorted(CRITERIA)}",
            file=sys.stderr,
        )
        return 2

    if results_dir is not None:
        from .runner import load_results

        try:
            loaded = load_results(results_dir)
        except (OSError, ValueError, json_module.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results = {eid.upper(): result for eid, result in loaded.items()}
        source = "replay"
    else:
        overrides = PROFILES[profile]
        results = {}
        for eid in wanted:
            results[eid] = run_experiment(eid, **dict(overrides.get(eid, {})))
        source = "live"

    report = evaluate_results(results, experiments=wanted, profile=profile, source=source)

    if trace_out is not None:
        from .obs import JSONLSink, Observation, VerdictRendered

        with Observation(JSONLSink(trace_out)) as obs:
            for v in report.verdicts:
                statuses = [c.status for c in v.checks]
                obs.emit(
                    VerdictRendered(
                        experiment=v.experiment,
                        status=v.status,
                        confirmed=statuses.count("CONFIRMED"),
                        refuted=statuses.count(REFUTED),
                        inconclusive=statuses.count(INCONCLUSIVE),
                    )
                )

    rendered_json = report_to_json(report)
    rendered_md = render_markdown_table(report)
    if json_out is not None:
        with open(json_out, "w", encoding="utf-8") as handle:
            handle.write(rendered_json)
    if md_out is not None:
        with open(md_out, "w", encoding="utf-8") as handle:
            handle.write(rendered_md + "\n")
    try:
        if as_json:
            sys.stdout.write(rendered_json)
        else:
            print(rendered_md)
    except BrokenPipeError:
        # Downstream pager/head closed early; not an error (cf. _cmd_stats).
        sys.stdout = open(os.devnull, "w")

    for v in report.verdicts:
        if v.status == INCONCLUSIVE:
            why = v.note or "; ".join(
                c.claim for c in v.checks if c.status == INCONCLUSIVE
            )
            print(f"warning: {v.experiment} INCONCLUSIVE — {why}", file=sys.stderr)

    if log_path is not None:
        added = append_research_log(report, log_path)
        print(f"research log: {added} new entr(y/ies) in {log_path}", file=sys.stderr)

    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    int_list = _comma_list(int)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Oracle size: a new measure of difficulty "
        "for communication tasks' (PODC 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser(
        "experiment",
        aliases=["exp"],
        help="run one or more experiments (E1-E15)",
    )
    p_exp.add_argument("ids", nargs="+", metavar="ID")

    p_all = sub.add_parser("all", help="run every experiment")

    for p in (p_exp, p_all):
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="process-pool width (default: $REPRO_WORKERS, else 1 = in-process)",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            help="per-experiment wall-clock budget in seconds "
            "(enables the fault-tolerant runner)",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=None,
            help="re-attempts per experiment before it degrades to a FAILED "
            "row (default 2; enables the fault-tolerant runner)",
        )
        p.add_argument(
            "--run-dir",
            default=None,
            help="journal completed experiments under this directory "
            "(journal.jsonl + results.json + runner.jsonl), making the "
            "run resumable with --resume",
        )
        p.add_argument(
            "--resume",
            default=None,
            metavar="RUN_DIR",
            help="resume an interrupted --run-dir run: journaled experiments "
            "are replayed byte-identically, missing ones are computed",
        )
        p.add_argument(
            "--progress",
            action="store_true",
            help="print live done/failed/ETA heartbeats to stderr (routes "
            "through the fault-tolerant runner; stdout is unaffected)",
        )

    sub.add_parser("list", help="list the experiment registry")

    p_sep = sub.add_parser("separation", help="the headline separation sweep")
    p_sep.add_argument("--family", default="complete", choices=sorted(FAMILY_BUILDERS))
    p_sep.add_argument("--sizes", type=int_list, default=None, help="comma-separated sizes")

    p_quick = sub.add_parser("quickstart", help="both theorems on K*_n")
    p_quick.add_argument("n", nargs="?", type=int, default=64)

    p_report = sub.add_parser("report", help="write a markdown report of experiments")
    p_report.add_argument("path", nargs="?", type=_out_path, default="experiment_report.md")
    p_report.add_argument(
        "--only",
        type=_comma_list(str.upper, EXPERIMENTS),
        default=None,
        help="comma-separated experiment ids",
    )

    p_cmp = sub.add_parser("compare", help="oracle x algorithm matrix on one network")
    p_cmp.add_argument("--family", default="complete")
    p_cmp.add_argument("--n", type=int, default=64)

    p_lint = sub.add_parser(
        "lint",
        help="static checks: model compliance (MDL001-MDL005) + determinism "
        "sanitizer (DET001-DET008)",
    )
    p_lint.add_argument(
        "paths", nargs="*", metavar="PATH", help="files or directories (default: src/repro)"
    )
    p_lint.add_argument("--format", choices=("text", "json"), default="text")
    p_lint.add_argument("--select", default=None, help="comma-separated rule codes to run")
    p_lint.add_argument("--ignore", default=None, help="comma-separated rule codes to skip")
    p_lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    p_lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="accepted-findings file (default: ./lint_baseline.json when present)",
    )
    p_lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring any baseline file",
    )
    p_lint.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        dest="write_baseline",
        help="regenerate FILE from current findings (reasons left as TODO) and exit",
    )

    p_trace = sub.add_parser(
        "trace", help="run one task with telemetry and export the JSONL event stream"
    )
    p_trace.add_argument("--task", choices=tuple(TASKS), default="broadcast")
    p_trace.add_argument("--family", default="kstar", help="graph family (see FAMILY_BUILDERS)")
    p_trace.add_argument("--n", type=int, default=64)
    p_trace.add_argument(
        "--oracle", choices=tuple(ORACLE_FACTORIES), default=None,
        help="default: the task's paper oracle",
    )
    p_trace.add_argument(
        "--algorithm", default=None,
        help="registry name (see `repro list`); default: the task's paper algorithm",
    )
    p_trace.add_argument("--scheduler", choices=SCHEDULER_NAMES, default="sync")
    p_trace.add_argument("--seed", type=int, default=0, help="scheduler RNG seed")
    p_trace.add_argument("--out", type=_out_path, default="run.jsonl", help="JSONL output path")
    p_trace.add_argument(
        "--audit", action="store_true", help="replay-audit the run after quiescence"
    )
    p_trace.add_argument(
        "--trace-level",
        choices=TRACE_LEVELS,
        default="full",
        help="'counters' skips the per-delivery log (incompatible with --audit); "
        "the exported JSONL event stream is identical either way",
    )
    p_trace.add_argument(
        "--format",
        dest="out_format",
        choices=TRACE_FORMATS,
        default="jsonl",
        help="what --out receives: the JSONL event stream (default), a "
        "Chrome/Perfetto trace, collapsed-stack flamegraph text, or the "
        "happened-before DAG as canonical JSON / Graphviz DOT",
    )

    p_mega = sub.add_parser(
        "mega",
        help="Theorem 2.2 at mega scale: implicit G_(n,S) gadgets through "
        "the vectorized batch engine",
    )
    p_mega.add_argument(
        "--sizes",
        type=int_list,
        default=[2000, 10000, 50000, 100000],
        help="comma-separated n values (default 2000,10000,50000,100000)",
    )
    p_mega.add_argument(
        "--batch-seeds",
        type=int_list,
        default=[0],
        metavar="S1,S2,...",
        help="seeds batched through one vectorized pass per n (default: 0)",
    )
    p_mega.add_argument(
        "--count", type=int, default=None, help="|S|, the number of subdivided edges (default: n)"
    )

    p_stats = sub.add_parser(
        "stats", help="summarize saved JSONL traces (tables, metrics, growth fits)"
    )
    p_stats.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="JSONL trace(s) written by `repro trace` or a JSONLSink; "
        "several files merge into one report",
    )

    p_profile = sub.add_parser(
        "profile",
        help="run one experiment under the deterministic profiler and print "
        "the per-phase cost table",
    )
    p_profile.add_argument("id", metavar="ID", help="experiment id (see `repro list`)")
    p_profile.add_argument(
        "--chrome", type=_out_path, default=None, metavar="FILE",
        help="also write a Chrome-trace JSON (chrome://tracing, ui.perfetto.dev)",
    )
    p_profile.add_argument(
        "--flame", type=_out_path, default=None, metavar="FILE",
        help="also write collapsed-stack flamegraph text (flamegraph.pl, speedscope)",
    )

    p_bench = sub.add_parser(
        "bench-export", help="distill pytest-benchmark JSON into a repro-bench/1 document"
    )
    p_bench.add_argument("input", help="file written by pytest --benchmark-json=...")
    p_bench.add_argument(
        "--out", type=_out_path, default="bench.json",
        help="where to write the document (default: bench.json)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the advice-serving daemon: warm-cache job service over "
        "HTTP (localhost) and an optional Unix-socket IPC lane",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="HTTP bind host")
    p_serve.add_argument(
        "--port", type=int, default=0, help="HTTP port (0 = ephemeral, printed on the ready line)"
    )
    p_serve.add_argument(
        "--uds", default=None, metavar="PATH",
        help="also open a Unix-socket IPC lane at PATH (newline-delimited JSON)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=64,
        help="distinct jobs in flight before requests are rejected with 429",
    )
    p_serve.add_argument(
        "--access-log", default=None, metavar="FILE",
        help="write the service_* event stream as JSONL (readable by `repro stats`)",
    )

    p_verdict = sub.add_parser(
        "verdict",
        help="evaluate the pre-registered criteria: CONFIRMED/REFUTED/"
        "INCONCLUSIVE per experiment, exit 1 on any REFUTED",
    )
    p_verdict.add_argument(
        "ids", nargs="*", metavar="ID",
        help="experiments to judge (default: every E1-E15 criterion)",
    )
    p_verdict.add_argument(
        "--results", default=None, metavar="RUN_DIR",
        help="replay a saved run directory (results.json from `repro all "
        "--run-dir`) instead of executing the grid",
    )
    p_verdict.add_argument(
        "--profile", default="default", metavar="NAME",
        help="grid profile when executing live: 'default' (committed-seed "
        "minimum-viable grid) or 'full' (weekly-cron sizes)",
    )
    p_verdict.add_argument(
        "--json", action="store_true",
        help="print the canonical repro-verdict/1 JSON instead of markdown",
    )
    p_verdict.add_argument(
        "--json-out", type=_out_path, default=None, metavar="FILE",
        help="also write the canonical JSON report to FILE",
    )
    p_verdict.add_argument(
        "--md-out", type=_out_path, default=None, metavar="FILE",
        help="also write the rendered markdown table to FILE",
    )
    p_verdict.add_argument(
        "--log", nargs="?", type=_out_path, const="RESEARCH_LOG.md", default=None,
        metavar="PATH",
        help="prepend one-line verdict entries to the research log "
        "(default PATH: RESEARCH_LOG.md; deterministic and idempotent)",
    )
    p_verdict.add_argument(
        "--trace", type=_out_path, default=None, metavar="FILE",
        help="write verdict_rendered events as JSONL (readable by `repro stats`)",
    )

    p_sanitize = sub.add_parser(
        "sanitize",
        help="hash-randomization stress harness: byte-diff a smoke grid "
        "across PYTHONHASHSEED values and both engines",
    )
    p_sanitize.add_argument(
        "--hash-seeds",
        type=_comma_list(_hash_seed),
        default=None,
        metavar="S1,S2,...",
        help="comma-separated PYTHONHASHSEED values, each 0..4294967295 "
        "(default: 0,1,4242)",
    )
    p_sanitize.add_argument(
        "--cells",
        default=None,
        metavar="NAME,...",
        help="subset of smoke cells to run (default: all)",
    )
    p_sanitize.add_argument(
        "--run-cells",
        default=None,
        help=argparse.SUPPRESS,  # internal worker mode
    )

    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except (GraphError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_command(args: argparse.Namespace) -> int:
    if args.command in ("experiment", "exp"):
        return _cmd_experiment(
            args.ids, args.workers, args.timeout, args.retries, args.run_dir,
            args.resume, args.progress,
        )
    if args.command == "all":
        return _cmd_experiment(
            sorted(EXPERIMENTS), args.workers, args.timeout, args.retries, args.run_dir,
            args.resume, args.progress,
        )
    if args.command == "list":
        return _cmd_list()
    if args.command == "separation":
        return _cmd_separation(args.family, args.sizes)
    if args.command == "quickstart":
        return _cmd_quickstart(args.n)
    if args.command == "report":
        from .analysis.report import write_report

        write_report(args.path, args.only)
        print(f"wrote {args.path}")
        return 0
    if args.command == "compare":
        from .analysis.compare import format_comparison

        print(format_comparison(_family_member(args.family, args.n)))
        return 0
    if args.command == "lint":
        return _cmd_lint(
            args.paths, args.format, args.select, args.ignore, args.list_rules,
            args.baseline, args.no_baseline, args.write_baseline,
        )
    if args.command == "trace":
        return _cmd_trace(
            args.task, args.family, args.n, args.oracle, args.algorithm,
            args.scheduler, args.seed, args.out, args.audit, args.trace_level,
            args.out_format,
        )
    if args.command == "mega":
        return _cmd_mega(args.sizes, args.batch_seeds, args.count)
    if args.command == "stats":
        return _cmd_stats(args.paths)
    if args.command == "profile":
        return _cmd_profile(args.id, args.chrome, args.flame)
    if args.command == "bench-export":
        return _cmd_bench_export(args.input, args.out)
    if args.command == "serve":
        return _cmd_serve(args.host, args.port, args.uds, args.max_pending, args.access_log)
    if args.command == "verdict":
        return _cmd_verdict(
            args.ids, args.results, args.profile, args.json,
            args.json_out, args.md_out, args.log, args.trace,
        )
    if args.command == "sanitize":
        from .sanitize import main as sanitize_main

        return sanitize_main(args.hash_seeds, args.cells, args.run_cells)
    raise _UsageError(f"unknown command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
