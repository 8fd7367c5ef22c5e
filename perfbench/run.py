"""Benchmark of the ressmooth training stack.

    python3 perfbench/run.py --workload fashion_train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The inputs for `--seed` are generated
(or taken from the cache under perfbench/cache) before anything is timed; one
child process then runs the workload against the checkout's `src/`, with a
single BLAS thread and a glibc heap that keeps freed memory. The last line of
standard output is the result:

    {"correct": ..., "attempted": trials, "failed": trials, "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones, derived from spans around the package's public functions
(written to perfbench/out/<run>/spans-pair<k>.json). The line before the
result holds the machine facts, the input digests and the sha256 of every
output file. `--size tiny` shrinks every workload for the benchmark's own
tests (`python3 -m pytest perfbench/tests -q`).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
CACHE = HERE / "cache"
OUT = HERE / "out"
INPUT_KIND = {"fashion_train": "corpus", "grid_sweep": "corpus", "many_class": "many_class"}
CHILD_DEADLINE_S = 170.0  # every run must end within 180 s
# One BLAS thread: on a shared two-core machine a second thread made run times
# spread several times wider between runs, for a gain the timings do not need.
BLAS_THREADS = "1"
# glibc keeps freed memory (no mmap, no trimming), so repeated set-ups and
# entry calls reuse pages instead of faulting fresh ones in. Without it, a
# quarter to half of each set-up was kernel time spent on page faults, set-up
# time varied by up to half between runs and peak RSS jumped between two values.
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}
# Which spans' parents split nn.forward_batch into training and evaluation time.
PARENT_QUANTITIES = {"train_s": "harness.train", "eval_s": "harness.evaluate"}


def end_to_end(raw: dict) -> dict:
    ok = raw["attempted"] - raw["failed"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "run_s": statistics.median(raw["run_s"]),
        "trial_s": statistics.median(raw["trial_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "val_acc_max": statistics.median(raw["val_acc_max"]),
        "trial_ok_ratio": ok / raw["attempted"],
    }


def layer_value(summary: dict, name: str) -> float:
    """`<module>.<function>.<quantity>` from one traced call's span summary.

    Quantities: s, calls, self_s, us_per_call, and the PARENT_QUANTITIES."""
    function, quantity = name.rsplit(".", 1)
    stats = summary.get(function, {"s": 0.0, "calls": 0, "self_s": 0.0, "s_under": {}})
    if quantity == "us_per_call":
        return 1e6 * stats["s"] / stats["calls"] if stats["calls"] else 0.0
    if quantity in PARENT_QUANTITIES:
        return stats["s_under"].get(PARENT_QUANTITIES[quantity], 0.0)
    return stats[quantity]


def per_layer(raw: dict, names) -> dict:
    """Median over the traced calls of each per-layer metric, plus the
    tracing overhead: the median over the pairs of traced over untraced
    entry-call seconds."""
    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            values[name] = statistics.median(
                traced / untraced
                for traced, untraced in zip(raw["traced_run_s"], raw["untraced_run_s"]))
        else:
            values[name] = statistics.median(layer_value(s, name) for s in raw["layers"])
    return values


def src_line_count() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((CHECKOUT / "src").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ressmooth benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(INPUT_KIND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    started = monotonic()

    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (CHECKOUT / "src" / "ressmooth" / "__init__.py").is_file():
        print(f"error: no ressmooth package under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import gen  # numpy is imported only once the checkout looks runnable

    inputs, manifest = gen.ensure_inputs(CACHE, INPUT_KIND[args.workload], args.seed, args.size)
    work = OUT / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.parent.mkdir(parents=True, exist_ok=True)

    env = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS,
           "OMP_NUM_THREADS": BLAS_THREADS, "MKL_NUM_THREADS": BLAS_THREADS, **MALLOC_ENV}
    child = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
         "--inputs", str(inputs), "--work", str(work), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--size", args.size],
        cwd=CHECKOUT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_DEADLINE_S - (monotonic() - started))
    if child.returncode != 0:
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(child.stdout.splitlines()[-1])
    for problem in raw["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    names = [m["name"] for m in listed]
    try:
        values = per_layer(raw, names) if args.trace else end_to_end(raw)
    except statistics.StatisticsError:
        print("error: no entry call completed", file=sys.stderr)
        return 1
    if sorted(values) != sorted(names):
        print(f"error: computed metrics {sorted(values)} differ from BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 1

    facts = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "nproc": os.cpu_count(), "blas_threads_env": BLAS_THREADS, "malloc_env": MALLOC_ENV,
        "python": platform.python_version(), **raw.pop("facts"),
        "src_lines": src_line_count(), "inputs": manifest, "outputs_sha256": raw.pop("outputs"),
        "raw": {k: v for k, v in raw.items() if k != "layers"},
    }
    (work / "report.json").write_text(json.dumps({"facts": facts, "metrics": values}, indent=1))
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": raw["failed"] == 0 and not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
