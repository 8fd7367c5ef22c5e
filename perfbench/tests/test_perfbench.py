"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
CHECKOUT = BENCH.parent
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402


def run_bench(workload, trace, cwd=CHECKOUT, seed=5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_and_facts(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["facts"]


@pytest.fixture(scope="module")
def runs():
    """(result, facts) per (workload, trace), each run once for all tests."""
    return {(w, t): result_and_facts(run_bench(w, t)) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_prints_every_end_to_end_metric(runs, workload):
    result, facts = runs[workload, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert facts["outputs_sha256"] and facts["inputs"]["sha256"]
    assert facts["src_lines"] > 0 and facts["blas"]["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(runs, workload):
    result, _ = runs[workload, 1]
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["harness.evaluate.calls"] >= 1 and metrics["optim.step.calls"] >= 1
    assert metrics["harness.train.self_s"] > 0
    assert metrics["nn.forward_batch.s"] == pytest.approx(
        metrics["nn.forward_batch.train_s"] + metrics["nn.forward_batch.eval_s"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_output_byte(runs, workload):
    _, untraced = runs[workload, 0]
    _, traced = runs[workload, 1]
    assert traced["outputs_sha256"] == untraced["outputs_sha256"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_trial_below_the_accuracy_floor_is_a_failure(tmp_path, name):
    kind = "many_class" if name == "many_class" else "corpus"
    inputs, _ = gen.ensure_inputs(tmp_path / "cache", kind, 5, "tiny")
    work = tmp_path / "work"
    work.mkdir()
    settings = {**workload.SIZES["tiny"][name], "floor": 100.5}
    result = workload.measure(workload.make_workload(name, inputs, work, settings), work, 0)
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert all("floor" in problem for problem in result["problems"])


def test_inputs_are_a_function_of_the_seed(tmp_path):
    _, first = gen.ensure_inputs(tmp_path / "a", "corpus", 7, "tiny")
    _, again = gen.ensure_inputs(tmp_path / "b", "corpus", 7, "tiny")
    _, other = gen.ensure_inputs(tmp_path / "c", "corpus", 8, "tiny")
    assert first["sha256"] == again["sha256"]
    assert first["sha256"] != other["sha256"]


def test_self_time_subtracts_child_spans():
    recorded = [
        ("harness.train", spans.NO_PARENT, 0.0, 10.0),
        ("nn.forward_batch", 0, 1.0, 3.0),
        ("harness.evaluate", 0, 4.0, 8.0),
        ("nn.forward_batch", 2, 5.0, 6.0),
    ]
    summary = spans.summarize(recorded)
    assert summary["harness.train"]["self_s"] == pytest.approx(4.0)
    assert summary["harness.evaluate"]["self_s"] == pytest.approx(3.0)
    assert summary["nn.forward_batch"]["calls"] == 2
    assert summary["nn.forward_batch"]["s_under"] == {"harness.train": 2.0,
                                                      "harness.evaluate": 1.0}


def test_tracer_restores_every_function():
    sys.path.insert(0, str(CHECKOUT / "src"))
    import ressmooth
    from ressmooth import cli, harness, nn, optim  # noqa: F401  (cli is traced too)

    before = (harness.train, harness.scale_at, nn.forward_batch, optim.Sgd.step)
    with spans.Tracer().install(ressmooth) as tracer:
        assert harness.scale_at is not before[1]
        harness.scale_at(ressmooth.AnnealSchedule(kind="laplace"), 0.5)
    assert (harness.train, harness.scale_at, nn.forward_batch, optim.Sgd.step) == before
    assert [s[0] for s in tracer.spans] == ["annealing.scale_at", "annealing.laplace_pdf_scaled"]


def test_fails_without_a_result_when_the_package_is_absent(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("cache", "out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
