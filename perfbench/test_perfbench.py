"""Tests of the benchmark itself: ``python -m pytest perfbench``.

The end-to-end cases run the real command on short settings (about a
minute in all); the rest are unit checks of the arithmetic, the schedule
and the correctness checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# ----------------------------------------------------------------------
# Self time over nested spans
# ----------------------------------------------------------------------
class FakeClock:
    """``perf_counter`` and ``thread_time`` that advance only when told."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def thread_time(self) -> float:
        return self.now


def test_self_time_subtracts_children_and_merges_same_layer(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "time", clock)
    recorder = tracing.Recorder()

    def leaf():
        clock.now += 2.0
        return 5

    def build():
        clock.now += 1.0
        wrapped_leaf()  # same layer, nested: self time joins, no extra call
        clock.now += 1.0
        return 7

    def outer():
        clock.now += 3.0
        wrapped_build()
        wrapped_build()
        clock.now += 0.5

    wrapped_leaf = recorder.wrap("network.build", leaf, units=lambda r: r)
    wrapped_build = recorder.wrap("network.build", build, units=lambda r: r)
    recorder.wrap("analysis.driver", outer)()

    totals = tracing.layer_totals(recorder.spans)
    assert totals["analysis.driver"]["self_s"] == pytest.approx(3.5)
    assert totals["analysis.driver"]["self_cpu_s"] == pytest.approx(3.5)
    assert totals["analysis.driver"]["calls"] == 1
    assert totals["network.build"]["self_s"] == pytest.approx(8.0)
    assert totals["network.build"]["calls"] == 2
    assert totals["network.build"]["units"] == 14  # outer calls only
    assert run.attributed_s(totals) == pytest.approx(11.5)  # the whole traced wall


def test_layer_metrics_report_every_per_layer_name_and_zero_for_idle_layers():
    layers = {"simulator.run": {"self_s": 2.0, "self_cpu_s": 2.0, "calls": 4, "units": 1000}}
    values = run.layer_metrics(layers, {"trace.overhead_s": 0.1})
    assert set(values) == set(run.PER_LAYER)
    assert values["simulator.ns_per_delivery"] == pytest.approx(2e6)
    assert values["vectorized.ns_per_delivery"] == 0
    assert values["trace.overhead_s"] == 0.1


def test_required_layer_with_no_calls_invalidates_the_run():
    layers = {name: {"calls": 1} for name in run.REQUIRED_LAYERS["mega"]}
    run.check_required("mega", layers)
    layers["vectorized.batch"]["calls"] = 0
    with pytest.raises(run.InvalidRun, match="vectorized.batch"):
        run.check_required("mega", layers)


def test_install_reaches_callers_that_imported_names_directly():
    code = (
        "import sys; sys.path.insert(0, 'perfbench');"
        "import tracing, json;"
        "r = tracing.Recorder(); tracing.install(r);"
        "from repro.analysis import experiments;"
        "experiments.run_experiment('E6', sizes=(16, 32, 64));"
        "print(json.dumps(tracing.layer_totals(r.spans)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        env={**run._env()}, timeout=120, check=True,
    )
    totals = json.loads(out.stdout.splitlines()[-1])
    for layer in ("network.build", "network.freeze", "fastpath.compile",
                  "oracles.advise", "simulator.run", "analysis.fits", "analysis.driver"):
        assert totals[layer]["calls"] > 0, layer


# ----------------------------------------------------------------------
# Reference seconds
# ----------------------------------------------------------------------
def test_clock_scales_each_step_by_the_kernel_around_it_and_excludes_it(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(calibrate, "time", clock)
    kernels = iter([1.0, 3.0, 2.0])  # the host runs at half, then a third of reference speed

    def measure():
        clock.now += 100.0  # kernel time is no step's time
        return calibrate.REFERENCE_S * next(kernels)

    monkeypatch.setattr(calibrate, "measure", measure)
    steps = calibrate.Clock()
    clock.now += 4.0
    assert steps.step() == pytest.approx((4.0, 2.0))
    clock.now += 5.0
    assert steps.step() == pytest.approx((5.0, 2.0))


def test_the_kernel_runs_no_program_code():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import calibrate;"
        "calibrate.measure(); print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                         env={**run._env()}, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# Percentiles and the samples-beyond rule
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_order_statistics():
    assert loadgen.percentile([4, 1, 3, 2], 0.5) == 2.5
    assert loadgen.percentile(list(range(101)), 0.99) == 99
    with pytest.raises(ValueError):
        loadgen.percentile([], 0.5)


@pytest.mark.parametrize(
    "count, q, ok",
    [(1000, 0.99, True), (999, 0.99, False), (100, 0.90, True), (99, 0.90, False), (20, 0.50, True)],
)
def test_ten_samples_beyond_the_percentile(count, q, ok):
    assert loadgen.supported_percentile(count, q) is ok


def test_serve_run_with_too_few_samples_is_invalid():
    few = loadgen.Replay([0.001] * 999, ["ok"] * 999)
    with pytest.raises(run.InvalidRun, match="beyond p99"):
        run.serve_values(few)
    assert run.serve_values(loadgen.Replay([0.001] * 1000, ["ok"] * 1000))["p99_ms"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# The schedule
# ----------------------------------------------------------------------
def test_schedule_is_a_function_of_the_seed():
    first = loadgen.build_schedule(7, 1500)
    assert first == loadgen.build_schedule(7, 1500)
    assert first != loadgen.build_schedule(8, 1500)
    assert run.sample_indices(first, 7) == run.sample_indices(first, 7)
    assert len(first) == 1500


def test_schedule_classes_hit_miss_and_recompute_as_designed():
    schedule = loadgen.build_schedule(3, 3000)
    kinds = [r.kind for r in schedule]
    computes = [k for k in kinds if k != "hot"]
    assert len(computes) == len(kinds) // loadgen.COMPUTE_STRIDE
    assert computes[:2] == list(loadgen.COMPUTE_CYCLE)
    assert computes.count("seed") == 75 and computes.count("pair") == 75
    hot = {json.dumps(r, sort_keys=True).encode() for r in loadgen.HOT_SET}
    assert all(r.body in hot for r in schedule if r.kind == "hot")
    fresh = [r.body for r in schedule if r.kind != "hot"]
    assert len(fresh) == len(set(fresh))  # each one misses the response cache
    assert not set(fresh) & hot
    hot_pairs = {(r["family"], r["n"]) for r in loadgen.HOT_SET}
    for request in schedule:
        body = json.loads(request.body)
        if request.kind == "pair":
            assert (body["family"], body["n"]) not in hot_pairs
        elif request.kind == "seed":
            assert {**body, "scheduler_seed": 0} in [
                {**r, "scheduler_seed": 0} for r in loadgen.HOT_SET if r["job"] == "simulate"
            ]


def test_hot_draws_follow_the_zipf_weights():
    schedule = loadgen.build_schedule(5, 12000)
    hot = [r.body for r in schedule if r.kind == "hot"]
    head = json.dumps(loadgen.HOT_SET[0], sort_keys=True).encode()
    harmonic = sum(1.0 / (rank + 1) for rank in range(len(loadgen.HOT_SET)))
    assert hot.count(head) / len(hot) == pytest.approx(1.0 / harmonic, abs=0.02)


# ----------------------------------------------------------------------
# Correctness checks and their planted faults
# ----------------------------------------------------------------------
def test_bent_e6_series_is_refuted():
    from repro.analysis.experiments import run_experiment
    from repro.verdict import evaluate_results

    e6 = run_experiment("E6")
    assert evaluate_results({"E6": e6}).verdicts[0].status == "CONFIRMED"
    bent = worker.bend_e6(e6)
    assert evaluate_results({"E6": bent}).verdicts[0].status == "REFUTED"


def test_batch_checks_flag_refuted_verdicts_and_short_replicas():
    verdicts = {eid: "CONFIRMED" for eid in run.EXPERIMENT_IDS}
    assert run.batch_failures("grid", [{"verdicts": verdicts, "failing_rows": 0}]) == []
    verdicts["E6"] = "REFUTED"
    assert run.batch_failures("grid", [{"verdicts": verdicts, "failing_rows": 0}])
    replica = {"seed": 0, "nodes": 10, "messages": 9, "success": True}
    assert run.batch_failures("mega", [{"replicas": [replica]}]) == []
    assert run.batch_failures("mega", [{"replicas": [{**replica, "messages": 10}]}])


def test_planted_flipped_byte_fails_the_command():
    done = _command("--workload", "serve", "--seed", "1", "--seconds", "13", "--trace", "0",
                    "--plant", "flip-byte")
    assert done.returncode == 1, done.stderr
    assert "served bytes differ" in done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False


def test_planted_bent_e6_fails_the_command():
    done = _command("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                    "--plant", "bend-e6")
    assert done.returncode == 1, done.stderr
    assert "'E6': 'REFUTED'" in done.stderr


@pytest.mark.parametrize("plant, workload", [("flip-byte", "grid"), ("flip-byte", "mega"),
                                             ("bend-e6", "serve"), ("bend-e6", "mega")])
def test_a_plant_on_a_workload_it_cannot_fail_is_a_usage_error(plant, workload):
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", workload, "--seed", "1", "--seconds", "1", "--plant", plant])
    assert exc.value.code == 2


def test_command_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _command("--workload", "mega", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
