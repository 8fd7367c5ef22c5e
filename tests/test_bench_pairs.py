import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# per side, the values of each call: a warm-up run, then pairs 1-4
RUN_S = {"parent": [9.0, 2.0, 2.0, 2.0, 2.0], "change": [9.0, 1.5, 2.0, 2.25, 2.5]}
VAL_ACC = {"parent": [0.0, 90.0, 90.0, 90.0, 90.0], "change": [0.0, 91.0, 90.0, 89.0, 90.0]}
SRC_LINES = {"parent": 1554, "change": 1460}


def test_summary_counts_strict_wins_and_carries_src_lines(tmp_path, monkeypatch):
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for path in sides.values():
        path.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", sides["change"])
    calls = {"parent": 0, "change": 0}

    def run_once(checkout, workload, seed, seconds, trace, size):
        side = "parent" if checkout == sides["parent"].resolve() else "change"
        k = calls[side]
        calls[side] += 1
        return {"facts": {"src_lines": SRC_LINES[side], "outputs_sha256": {"a": "0"}},
                "metrics": {"run_s": RUN_S[side][k], "val_acc_max": VAL_ACC[side][k]},
                "failed": 0}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(sides["parent"]), "--change", str(sides["change"]),
                             "--workloads", "many_class", "--pairs", "4",
                             "--out", str(out)]) == 0
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


def test_summary_counts_identical_outputs_and_failed_trials(tmp_path, monkeypatch):
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for path in sides.values():
        path.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", sides["change"])
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

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(sides["parent"]), "--change", str(sides["change"]),
                             "--workloads", "many_class", "--pairs", "4",
                             "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]["many_class-seed17"]
    assert summary["outputs_identical"] == {"identical": 3, "pairs": 4}
    assert summary["failed"] == {"parent": 0, "change": 1}


def test_a_failed_run_keeps_the_pairs_measured_before_it(tmp_path, monkeypatch):
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for path in sides.values():
        path.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", sides["change"])
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

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"pairs": {"older-seed17": []}, "reports": {}, "summary": {}}))
    with pytest.raises(SystemExit, match="exited with 1"):
        bench_pairs.main(["--parent", str(sides["parent"]), "--change", str(sides["change"]),
                          "--workloads", "many_class", "--pairs", "4", "--out", str(out)])
    assert calls == {"parent": 4, "change": 3}
    report = json.loads(out.read_text())
    assert list(report["pairs"]) == ["older-seed17", "many_class-seed17"]
    pairs = report["pairs"]["many_class-seed17"]
    assert [(p["pair"], p["change"]["run_s"]) for p in pairs] == [(1, 1.5), (2, 2.0)]
    summary = report["summary"]["many_class-seed17"]
    assert summary["run_s"]["pairs"] == 2
    assert summary["src_lines"] == SRC_LINES
    assert report["reports"]["many_class-seed17"]["metrics"] == {"run_s": 2.0}


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
