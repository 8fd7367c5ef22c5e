"""Alternating parent/change pairs of the benchmark, summarized into one report.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads many_class,fashion_train --seeds 17,23 --pairs 10 \\
        --seconds 20 --out BENCH_<n>.json

Both checkouts' `perfbench/run.py` run unchanged, one process at a time, with
XDG_CACHE_HOME, and so the decoded-file cache of the loaders, in one
temporary directory that is removed at exit: the runs neither fill nor prune
the user's own cache. For each workload and seed, one warm-up run per side
comes first and is thrown away: it fills the checkout's input cache, so the
generator's memory never lands in a reported run. Then come `--pairs` pairs,
the parent first in odd pairs and the change first in even ones; `--pairs`
must be even, so that each side runs first equally often.

The output keeps the layout of the earlier `BENCH_<pr>.json` files:
`reports` holds the change's report (facts and metrics) from the last pair,
`pairs` every pair's metrics of both sides and which side ran first (the
warm-up runs are not kept), both keyed by `<workload>-seed<seed>` (`-trace`
appended for `--trace 1` runs).
`summary` adds, per metric, each side's median and quartiles, the number of
pairs the change won (a strictly better value, in the direction
BENCHMARK.json gives) and the median change - parent, the same two again
under `change_first` and `change_second` for the pairs where the change ran
first and second; under `outputs_identical` the number of pairs whose
`outputs_sha256` matched, out of the pairs run, and under `failed` each
side's total of failed trials; and under `src_lines` each side's source line
count, so code size sits next to the numbers. Each end-to-end metric also
gets a `verdict` against its BENCHMARK.json `bound`: `worse`, `unresolved`,
`gain` or `same` (see `verdict`). An existing `--out` file is extended: its
other keys are kept. The file is rewritten after every pair, so a run that
fails leaves the pairs measured before it in the report. `about` holds this
paragraph, on one line.

After the last pair it prints one line per workload and end-to-end metric
(`verdict_lines`): the parent's median -> the change's, the pairs the change
won and the verdict.

Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int,
             size: str) -> dict:
    """One `perfbench/run.py` run in `checkout`: its report, the parsed
    last two lines of its standard output."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    done = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited with {done.returncode}")
    facts = json.loads(lines[-2])["facts"]
    result = json.loads(lines[-1])
    return {"facts": facts,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "failed": result["failed"]}


def spread(values) -> dict:
    """Median and quartiles (inclusive method; a single value is all three)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def wins(pairs, name: str, sign: float) -> dict:
    """The pairs in which the change was strictly better on `name` (sign -1:
    lower is better) and the median change - parent."""
    diffs = [p["change"][name] - p["parent"][name] for p in pairs]
    return {"change_wins": sum(sign * d > 0.0 for d in diffs), "pairs": len(diffs),
            "median_change_minus_parent": statistics.median(diffs) if diffs else None}


def verdict(entry: dict, pairs, name: str, sign: float, bound: float) -> str:
    """One metric's summary `entry` read against its relative `bound`, the
    first of these that holds, with "better" in the metric's direction:
    `worse`, the change's median is worse than the parent's by more than the
    bound; `unresolved`, the parent's quartile spread exceeds the bound and
    not every change run beats every parent run; `gain`, the change wins at
    least 9 of every 10 pairs and its median beats the parent's by more than
    that spread; else `same`. Bounds are relative to the parent's median."""
    parent = entry["parent"]
    allowed = bound * abs(parent["median"])
    gap = sign * (entry["change"]["median"] - parent["median"])  # > 0: the change is better
    iqr = parent["q3"] - parent["q1"]
    if gap < -allowed:
        return "worse"
    if iqr > allowed and not (min(sign * p["change"][name] for p in pairs)
                              > max(sign * p["parent"][name] for p in pairs)):
        return "unresolved"
    if 10 * entry["change_wins"] >= 9 * entry["pairs"] and gap > iqr:
        return "gain"
    return "same"


def summarize(pairs, better: dict, bounds: dict) -> dict:
    """Per metric: both sides' spread and `wins` over all pairs, then `wins`
    over the pairs where the change ran first and over those where it ran
    second, since the side that runs second tends to read slower, and for a
    metric with a bound its `verdict`. Then the pairs with identical outputs
    and each side's failed trials, summed."""
    by_first = {side: [p for p in pairs if p["first"] == side] for side in ("change", "parent")}
    out = {}
    for name in pairs[0]["change"]:
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        out[name] = {"parent": spread([p["parent"][name] for p in pairs]),
                     "change": spread([p["change"][name] for p in pairs]),
                     **wins(pairs, name, sign),
                     "change_first": wins(by_first["change"], name, sign),
                     "change_second": wins(by_first["parent"], name, sign)}
        if name in bounds:
            out[name]["verdict"] = verdict(out[name], pairs, name, sign, bounds[name])
    out["outputs_identical"] = {"identical": sum(p["outputs_identical"] for p in pairs),
                                "pairs": len(pairs)}
    out["failed"] = {side: sum(p["failed"][side] for p in pairs) for side in ("parent", "change")}
    return out


def verdict_lines(key: str, summary: dict, end_to_end) -> list:
    """`<key> <metric>: <parent median> -> <change median> <unit>, <wins>/<pairs> wins,
    <verdict>` for each end-to-end metric of BENCHMARK.json that `summary` holds."""
    return [f"{key} {m['name']}: {e['parent']['median']:.4g} -> {e['change']['median']:.4g} "
            f"{m['unit']}, {e['change_wins']}/{e['pairs']} wins, {e['verdict']}"
            for m in end_to_end if (e := summary.get(m["name"]))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent commit checkout")
    parser.add_argument("--change", required=True, type=Path, help="changed checkout")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="17", help="comma-separated input seeds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", required=True, type=Path, help="report file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.pairs % 2:
        parser.error(f"--pairs must be even and >= 2, so each side runs first as often; "
                     f"got {args.pairs}")
    workloads = [w.strip() for w in args.workloads.split(",")]
    seeds = [s.strip() for s in args.seeds.split(",")]
    if not all(workloads + seeds):
        parser.error("--workloads and --seeds take comma-separated entries, none of them blank")
    try:
        seeds = [int(s) for s in seeds]
    except ValueError:
        parser.error(f"--seeds {args.seeds!r} is not a comma-separated integer list")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {"reports": {}, "pairs": {}, "summary": {}}
    if args.out.exists():
        report = json.loads(args.out.read_text())
    report["command"] = (f"python3 perfbench/run.py --workload <name> --seed <seed> "
                         f"--seconds {args.seconds:g} --trace <0 or 1> --size {args.size}")
    report["about"] = " ".join(next(p for p in __doc__.split("\n\n")
                                    if p.startswith("The output")).split())
    measured = []
    # both sides' decoded-file cache, so no run fills or prunes the user's
    with tempfile.TemporaryDirectory(prefix="bench_pairs-cache-") as cache, \
            mock.patch.dict(os.environ, XDG_CACHE_HOME=cache):
        for workload in workloads:
            for seed in seeds:
                key = f"{workload}-seed{seed}" + ("-trace" if args.trace else "")

                def run(side):
                    return run_once(sides[side], workload, seed, args.seconds, args.trace,
                                    args.size)

                for side in sides:
                    run(side)  # warm-up, discarded
                pairs = report["pairs"][key] = []
                measured.append(key)
                for k in range(1, args.pairs + 1):
                    order = ("parent", "change") if k % 2 else ("change", "parent")
                    runs = {side: run(side) for side in order}
                    digests = {side: runs[side]["facts"]["outputs_sha256"] for side in sides}
                    pairs.append({"pair": k, "first": order[0],
                                  "change": runs["change"]["metrics"],
                                  "parent": runs["parent"]["metrics"],
                                  "outputs_identical": digests["change"] == digests["parent"],
                                  "failed": {side: runs[side]["failed"] for side in sides}})
                    print(f"{key} pair {k}: " + json.dumps(pairs[-1]), flush=True)
                    report["reports"][key] = {"facts": runs["change"]["facts"],
                                              "metrics": runs["change"]["metrics"]}
                    report["summary"][key] = summarize(pairs, better, bounds)
                    report["summary"][key]["src_lines"] = {side: runs[side]["facts"]["src_lines"]
                                                           for side in sides}
                    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for key in measured:
        for line in verdict_lines(key, report["summary"][key], spec["end_to_end"]):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
