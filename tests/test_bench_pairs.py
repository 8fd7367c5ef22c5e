import importlib.util
import json
import os
import shutil
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# per side, the values of each call: a warm-up run, then pairs 1-4
RUN_S = {"parent": [9.0, 2.0, 2.0, 2.0, 2.0], "change": [9.0, 1.5, 2.0, 2.25, 2.5]}
VAL_ACC = {"parent": [0.0, 90.0, 90.0, 90.0, 90.0], "change": [0.0, 91.0, 90.0, 89.0, 90.0]}
SRC_LINES = {"parent": 1554, "change": 1460}


@pytest.fixture
def sides(tmp_path):
    """Empty parent and change checkouts; the change holds BENCHMARK.json."""
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for path in sides.values():
        path.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", sides["change"])
    return sides


def run_main(sides, out, run_once, workloads="many_class", pairs=4):
    """bench_pairs.main on the two checkouts, with `run_once` in place of a benchmark run."""
    with mock.patch.object(bench_pairs, "run_once", run_once):
        return bench_pairs.main(["--parent", str(sides["parent"]),
                                 "--change", str(sides["change"]), "--workloads", workloads,
                                 "--pairs", str(pairs), "--out", str(out)])


def test_summary_counts_strict_wins_and_carries_src_lines(tmp_path, sides):
    calls = {"parent": 0, "change": 0}

    def run_once(checkout, workload, seed, seconds, trace, size):
        side = "parent" if checkout == sides["parent"].resolve() else "change"
        k = calls[side]
        calls[side] += 1
        return {"facts": {"src_lines": SRC_LINES[side], "outputs_sha256": {"a": "0"}},
                "metrics": {"run_s": RUN_S[side][k], "val_acc_max": VAL_ACC[side][k]},
                "failed": 0}

    out = tmp_path / "BENCH.json"
    assert run_main(sides, out, run_once) == 0
    assert calls == {"parent": 5, "change": 5}
    report = json.loads(out.read_text())
    summary = report["summary"]["many_class-seed17"]
    # run_s is lower-better and val_acc_max higher-better (BENCHMARK.json);
    # run_s has one win, one tie and two losses, val_acc_max one win, two
    # ties and one loss
    assert summary["run_s"]["change_wins"] == 1
    assert summary["val_acc_max"]["change_wins"] == 1
    assert summary["run_s"]["pairs"] == 4
    assert summary["run_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert summary["run_s"]["median_change_minus_parent"] == 0.125
    # the change ran first in pairs 2 and 4 (a tie and a loss by 0.5) and
    # second in pairs 1 and 3 (a win by 0.5 and a loss by 0.25)
    assert summary["run_s"]["change_first"] == {"change_wins": 0, "pairs": 2,
                                                "median_change_minus_parent": 0.25}
    assert summary["run_s"]["change_second"] == {"change_wins": 1, "pairs": 2,
                                                 "median_change_minus_parent": -0.125}
    assert summary["val_acc_max"]["change_first"]["change_wins"] == 0
    assert summary["val_acc_max"]["change_second"]["change_wins"] == 1
    assert summary["src_lines"] == SRC_LINES
    pairs = report["pairs"]["many_class-seed17"]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent", "change"]
    assert [p["change"]["run_s"] for p in pairs] == [1.5, 2.0, 2.25, 2.5]
    assert all(p["outputs_identical"] for p in pairs)


# per case, a metric and each side's values in pairs 1-4 (BENCHMARK.json bounds: run_s 0.25
# relative, lower better; val_acc_max 0.08 relative, higher better)
VERDICTS = {
    # 80 is 11% under the parent's 90
    "worse": ("val_acc_max", [90.0, 90.0, 90.0, 90.0], [80.0, 80.0, 80.0, 80.0]),
    # the parent's quartiles 1.75 and 3.25 span 60% of its median 2.5; the change's
    # 2.5 beats only two parent runs
    "unresolved": ("run_s", [1.0, 2.0, 3.0, 4.0], [2.5, 2.5, 2.5, 2.5]),
    # 4 of 4 pairs won, by 0.5 against a parent spread of 0
    "gain": ("run_s", [2.0, 2.0, 2.0, 2.0], [1.5, 1.5, 1.5, 1.5]),
    # 3 of 4 pairs won falls short of 9 in 10, and the medians are 5% apart
    "same": ("run_s", [2.0, 2.0, 2.0, 2.0], [1.9, 1.9, 1.9, 2.2]),
}


@pytest.mark.parametrize("case", VERDICTS)
def test_each_end_to_end_metric_gets_a_verdict_from_its_bound(tmp_path, sides, case):
    name, parent, change = VERDICTS[case]
    values = {"parent": [0.0, *parent], "change": [0.0, *change]}  # a warm-up run first
    calls = {"parent": 0, "change": 0}

    def run_once(checkout, workload, seed, seconds, trace, size):
        side = "parent" if checkout == sides["parent"].resolve() else "change"
        k = calls[side]
        calls[side] += 1
        return {"facts": {"src_lines": 1, "outputs_sha256": {"a": "0"}},
                "metrics": {name: values[side][k], "optim.step.calls": 1.0}, "failed": 0}

    out = tmp_path / "BENCH.json"
    assert run_main(sides, out, run_once) == 0
    summary = json.loads(out.read_text())["summary"]["many_class-seed17"]
    assert summary[name]["verdict"] == case
    assert "verdict" not in summary["optim.step.calls"]  # a per-layer metric has no bound


def test_summary_counts_identical_outputs_and_failed_trials(tmp_path, sides):
    calls = {"parent": 0, "change": 0}

    def run_once(checkout, workload, seed, seconds, trace, size):
        # after the warm-up, the change's outputs differ in its second pair
        # and one of its trials fails in its fourth; the parent never fails
        side = "parent" if checkout == sides["parent"].resolve() else "change"
        k = calls[side]
        calls[side] += 1
        digest = "1" if (side, k) == ("change", 2) else "0"
        return {"facts": {"src_lines": SRC_LINES[side], "outputs_sha256": {"a": digest}},
                "metrics": {"run_s": RUN_S[side][k]},
                "failed": int((side, k) == ("change", 4))}

    out = tmp_path / "BENCH.json"
    assert run_main(sides, out, run_once) == 0
    summary = json.loads(out.read_text())["summary"]["many_class-seed17"]
    assert summary["outputs_identical"] == {"identical": 3, "pairs": 4}
    assert summary["failed"] == {"parent": 0, "change": 1}


def test_the_report_is_described_once_by_the_docstrings_output_paragraph(tmp_path, sides):
    def run_once(checkout, workload, seed, seconds, trace, size):
        return {"facts": {"src_lines": 1, "outputs_sha256": {"a": "0"}},
                "metrics": {"run_s": 1.0}, "failed": 0}

    out = tmp_path / "BENCH.json"
    assert run_main(sides, out, run_once, pairs=2) == 0
    report = json.loads(out.read_text())
    paragraphs = [" ".join(p.split()) for p in bench_pairs.__doc__.split("\n\n")]
    assert report["about"] in paragraphs
    assert report["about"].startswith("The output keeps the layout")
    summary = report["summary"]["many_class-seed17"]
    for key in [*(set(report) - {"command"}), *(set(summary) - {"run_s"}), "verdict",
                "change_first", "change_second", "worse", "unresolved", "gain", "same"]:
        assert f"`{key}`" in report["about"], key


def test_a_verdict_line_per_workload_and_end_to_end_metric_is_printed_at_exit(
        tmp_path, capsys, sides):
    change_run_s = {"many_class": 1.5, "grid_sweep": 3.0}

    def run_once(checkout, workload, seed, seconds, trace, size):
        side = "parent" if checkout == sides["parent"].resolve() else "change"
        run_s = change_run_s[workload] if side == "change" else 2.0
        return {"facts": {"src_lines": 1, "outputs_sha256": {"a": "0"}},
                "metrics": {"run_s": run_s, "val_acc_max": 90.0, "optim.step.calls": 1.0},
                "failed": 0}

    assert run_main(sides, tmp_path / "BENCH.json", run_once, "many_class,grid_sweep") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * 4 + 4 and all(" pair " in line for line in lines[:8])
    # BENCHMARK.json's order and units; a per-layer metric has no line
    assert lines[8:] == ["many_class-seed17 run_s: 2 -> 1.5 s, 4/4 wins, gain",
                         "many_class-seed17 val_acc_max: 90 -> 90 %, 0/4 wins, same",
                         "grid_sweep-seed17 run_s: 2 -> 3 s, 0/4 wins, worse",
                         "grid_sweep-seed17 val_acc_max: 90 -> 90 %, 0/4 wins, same"]


def test_a_failed_run_keeps_the_pairs_measured_before_it(tmp_path, sides):
    calls = {"parent": 0, "change": 0}

    def run_once(checkout, workload, seed, seconds, trace, size):
        # the parent runs first in pair 3, its fourth call after the warm-up
        side = "parent" if checkout == sides["parent"].resolve() else "change"
        k = calls[side]
        calls[side] += 1
        if (side, k) == ("parent", 3):
            raise SystemExit(f"{checkout}: perfbench/run.py exited with 1")
        return {"facts": {"src_lines": SRC_LINES[side], "outputs_sha256": {"a": "0"}},
                "metrics": {"run_s": RUN_S[side][k]}, "failed": 0}

    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"pairs": {"older-seed17": []}, "reports": {}, "summary": {}}))
    with pytest.raises(SystemExit, match="exited with 1"):
        run_main(sides, out, run_once)
    assert calls == {"parent": 4, "change": 3}
    report = json.loads(out.read_text())
    assert list(report["pairs"]) == ["older-seed17", "many_class-seed17"]
    pairs = report["pairs"]["many_class-seed17"]
    assert [(p["pair"], p["change"]["run_s"]) for p in pairs] == [(1, 1.5), (2, 2.0)]
    summary = report["summary"]["many_class-seed17"]
    assert summary["run_s"]["pairs"] == 2
    assert summary["src_lines"] == SRC_LINES
    assert report["reports"]["many_class-seed17"]["metrics"] == {"run_s": 2.0}


def test_every_run_shares_one_temporary_cache_removed_at_exit(tmp_path, monkeypatch, sides):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "user-cache"))
    seen = set()

    def run_once(checkout, workload, seed, seconds, trace, size):
        cache = os.environ["XDG_CACHE_HOME"]  # what a started process inherits
        assert Path(cache).is_dir()
        seen.add(cache)
        return {"facts": {"src_lines": 1, "outputs_sha256": {"a": "0"}},
                "metrics": {"run_s": 1.0}, "failed": 0}

    assert run_main(sides, tmp_path / "BENCH.json", run_once, "many_class,grid_sweep",
                    pairs=2) == 0
    cache, = seen
    assert cache != str(tmp_path / "user-cache") and not Path(cache).exists()
    assert os.environ["XDG_CACHE_HOME"] == str(tmp_path / "user-cache")


@pytest.mark.parametrize("flags", [["--pairs", "3"], ["--pairs", "1"], ["--pairs", "0"],
                                   ["--seeds", "17,"], ["--seeds", "17,,23"], ["--seeds", "x"],
                                   ["--workloads", "many_class,"]],
                         ids=["pairs_3", "pairs_1", "pairs_0", "seeds_trailing_comma",
                              "seeds_doubled_comma", "seeds_not_int", "workloads_trailing_comma"])
def test_odd_pairs_and_blank_or_bad_list_entries_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                                  flags):
    def run_once(*args):
        raise AssertionError("ran a benchmark despite a usage error")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = {"--parent": str(tmp_path), "--change": str(ROOT), "--workloads": "many_class",
            "--pairs": "2", "--out": str(tmp_path / "BENCH.json")}
    argv.update(dict(zip(flags[::2], flags[1::2])))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([part for pair in argv.items() for part in pair])
    assert exc.value.code == 2  # argparse's usage error
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()
