"""One benchmark workload, run in this process against generated inputs.

`run.py` starts this file as a child process, so the peak resident memory it
reports belongs to the workload alone, not to input generation. The last line
of standard output is one JSON object with the raw measurements.

Workloads (why each exists is in BENCHMARK.json):
  fashion_train  CLI `train`, fashion_adaptive settings, 2 trials
  many_class     harness.run_trials on in-memory 100-class clusters
  grid_sweep     CLI `grid`, 3 x 3 (b, alpha) points, 2 trials each

An untraced run repeats set-up and the entry call and times them. A traced
run, after one warm-up call, makes pairs of untraced and traced entry calls,
so the tracing overhead is measured in the same process.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))

import numpy as np  # noqa: E402

import ressmooth  # noqa: E402
from ressmooth import cli, data, harness, nn  # noqa: E402
from ressmooth.errors import FormatError  # noqa: E402

import spans  # noqa: E402

# Settings of configs/fashion_adaptive.ini, copied so that an edit there does
# not silently change what the benchmark measures.
FASHION_INI = """\
[dataset]
kind = fashion_mnist
train_images = {inputs}/train-images-idx3-ubyte.gz
train_labels = {inputs}/train-labels-idx1-ubyte.gz
test_images = {inputs}/t10k-images-idx3-ubyte.gz
test_labels = {inputs}/t10k-labels-idx1-ubyte.gz
take = {take}
seed = 101

[model]
hidden = 256
output_activation = softmax

[optimizer]
kind = sgd
lr_high = 0.1
lr_low = 0.001
drop_at = 0.75
momentum = 0.9
weight_decay = 0.001

[regularizer]
mode = global_local
schedule = laplace
mu = 0.75
b = 0.5
alpha = 1.0
n_steps = 1

[run]
epochs = {epochs}
batch_size = 128
trials = {trials}
base_seed = 0
"""

# run_trials takes its data in memory; the dataset paths are never opened.
MANY_CLASS_INI = """\
[dataset]
kind = fashion_mnist
train_images = in-memory
train_labels = in-memory
test_images = in-memory
test_labels = in-memory

[model]
hidden = 128
output_activation = softmax

[optimizer]
kind = adam

[regularizer]
mode = global_local
schedule = laplace
mu = 0.75
b = 0.5
alpha = 1.0
n_steps = 3

[run]
epochs = {epochs}
batch_size = 128
trials = {trials}
base_seed = 0
"""

# Per size, each workload's settings and the floor that every trial's max
# validation accuracy must reach; a trial below it is a failed trial.
# Acceptance gate 5 asks 85% of the fashion protocol; the other floors sit
# well below what those runs reach (grid points span about 64-81%, many_class
# 91-98% over ten seeds).
SIZES = {
    "full": {
        "fashion_train": {"take": 10000, "epochs": 15, "trials": 2, "floor": 85.0},
        "grid_sweep": {"take": 2000, "epochs": 4, "trials": 2, "floor": 55.0,
                       "b_grid": (0.25, 0.5, 1.0), "alpha_grid": (0.5, 1.0, 2.0)},
        "many_class": {"epochs": 16, "trials": 1, "floor": 85.0},
    },
    "tiny": {
        "fashion_train": {"take": 300, "epochs": 2, "trials": 2, "floor": 0.0},
        "grid_sweep": {"take": 200, "epochs": 1, "trials": 2, "floor": 0.0,
                       "b_grid": (0.5, 1.0), "alpha_grid": (1.0,)},
        "many_class": {"epochs": 2, "trials": 1, "floor": 0.0},
    },
}
# Set-up is repeated at least this often and for at least this long; its
# median is the reported set-up time.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0


def _read_rows(path: Path, header: str):
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[:1]} is not {header!r}")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _check_trial(out_dir: Path, trial: int, max_val_acc: float, settings, dims):
    """Problems with one trial's metrics CSV, summary row and checkpoint."""
    rows = _read_rows(out_dir / f"metrics_trial{trial}.csv", harness.METRICS_HEADER)
    val = [row[3] for row in rows]
    problems = []
    if len(rows) != settings["epochs"]:
        problems.append(f"{len(rows)} epoch rows, expected {settings['epochs']}")
    if not all(math.isfinite(v) for row in rows for v in row):
        problems.append("non-finite metric")
    if not all(0.0 <= v <= 100.0 for v in val):
        problems.append("val_acc outside [0, 100]")
    if val and max(val) < settings["floor"]:
        problems.append(f"max val_acc {max(val)} below the floor {settings['floor']}")
    if val and abs(max(val) - max_val_acc) > 1e-6:
        problems.append(f"max_val_acc {max_val_acc} is not the epoch maximum {max(val)}")
    shapes = [w.shape for w, _ in nn.load_checkpoint(out_dir / f"checkpoint_trial{trial}.rsm")]
    want = [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
    if shapes != want:
        problems.append(f"checkpoint layer shapes {shapes}, expected {want}")
    return problems


def _check_train_outputs(out_dir: Path, settings, dims):
    """(per-trial problem lists, per-trial max val acc) from a train-style
    output directory: aggregate.csv plus one metrics CSV and checkpoint per trial."""
    aggregate = _read_rows(out_dir / "aggregate.csv", harness.AGGREGATE_HEADER)
    problems = [_check_trial(out_dir, int(row[2]), row[3], settings, dims)
                for row in aggregate]
    missing = settings["trials"] - len(aggregate)
    return problems + [["trial missing from aggregate.csv"]] * missing, \
        [row[3] for row in aggregate]


class FileWorkload:
    """The two CLI workloads on the generated gzipped IDX corpus."""

    def __init__(self, name, inputs: Path, work: Path, settings):
        self.name = name
        self.settings = settings
        self.config_path = work / f"{name}.ini"
        self.config_path.write_text(FASHION_INI.format(inputs=inputs, **settings))
        self.config = ressmooth.parse_config(self.config_path)
        if name == "grid_sweep":
            self.trials = settings["trials"] * len(settings["b_grid"]) * len(settings["alpha_grid"])
        else:
            self.trials = settings["trials"]

    def setup(self):
        return harness.prepare_data(self.config)

    def prepare(self):
        """Nothing to hold: the CLI loads the corpus inside the entry call."""

    def call(self, out_dir: Path):
        argv = ["--config", str(self.config_path), "--out-dir", str(out_dir)]
        if self.name == "grid_sweep":
            argv = ["grid", *argv,
                    "--b-grid", ",".join(map(str, self.settings["b_grid"])),
                    "--alpha-grid", ",".join(map(str, self.settings["alpha_grid"]))]
        else:
            argv = ["train", *argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"ressmooth {argv[0]} exited with {code}")

    def write_outputs(self, out_dir: Path):
        """The CLI already wrote them."""

    def check(self, out_dir: Path):
        s = self.settings
        if self.name == "fashion_train":
            return _check_train_outputs(out_dir, s, [784, 256, 10])
        rows = _read_rows(out_dir / "grid.csv", harness.AGGREGATE_HEADER)
        want = [(b, a, k) for b in s["b_grid"] for a in s["alpha_grid"] for k in range(s["trials"])]
        got = [(r[0], r[1], int(r[2])) for r in rows]
        if got != want:
            return [[f"grid rows {got}, expected {want}"]] * self.trials, []
        problems = [[] if math.isfinite(r[3]) and s["floor"] <= r[3] <= 100.0
                    else [f"max_val_acc {r[3]} not between the floor {s['floor']} and 100"]
                    for r in rows]
        return problems, [r[3] for r in rows]


class ManyClassWorkload:
    """harness.run_trials on in-memory arrays; the benchmark writes the
    outputs with the package's writers, after the timed call."""

    def __init__(self, name, inputs: Path, work: Path, settings):
        self.name = name
        self.settings = settings
        self.inputs = inputs
        self.trials = settings["trials"]
        self.config = ressmooth.parse_config_text(MANY_CLASS_INI.format(**settings))
        self.pair = None
        self.aggregate = None

    def setup(self):
        with np.load(self.inputs / "many_class.npz") as z:
            train = data.Dataset(z["x_train"], z["y_train"], 100, "train")
            test = data.Dataset(z["x_test"], z["y_test"], 100, "test")
        return train, test

    def prepare(self):
        self.pair = self.setup()

    def call(self, out_dir: Path):
        self.aggregate = harness.run_trials(self.config, self.pair)

    def write_outputs(self, out_dir: Path):
        agg, self.aggregate = self.aggregate, None
        for row, metrics, network in zip(agg.rows, agg.metrics, agg.networks):
            harness.write_metrics_csv(metrics, out_dir / f"metrics_trial{row.trial}.csv")
            nn.save_checkpoint(network, out_dir / f"checkpoint_trial{row.trial}.rsm")
        harness.write_aggregate_csv(agg.rows, out_dir / "aggregate.csv")

    def check(self, out_dir: Path):
        return _check_train_outputs(out_dir, self.settings, [64, 128, 100])


def make_workload(name, inputs: Path, work: Path, settings):
    cls = ManyClassWorkload if name == "many_class" else FileWorkload
    return cls(name, inputs, work, settings)


class Runner:
    """Runs entry calls, checks their outputs and compares their bytes with
    the first call's."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.val_acc_max = []
        self.outputs = None  # file name -> sha256 of the first call's outputs

    def run_call(self, tracer=None):
        """One entry call into a fresh directory, traced when a tracer is
        given. Returns its seconds, or None when it raised."""
        out_dir = self.work / f"call{self.calls}-{'traced' if tracer else 'untraced'}"
        out_dir.mkdir()
        self.calls += 1
        self.attempted += self.workload.trials
        try:
            with tracer.install(ressmooth) if tracer else contextlib.nullcontext():
                start = perf_counter()
                self.workload.call(out_dir)
                seconds = perf_counter() - start
        except Exception as exc:  # a raising call is a counted failure, not a crash
            self.failed += self.workload.trials
            self.problems.append(f"{out_dir.name}: {type(exc).__name__}: {exc}")
            return None
        self.workload.write_outputs(out_dir)
        try:
            trial_problems, accs = self.workload.check(out_dir)
        except (OSError, ValueError, FormatError) as exc:
            trial_problems, accs = [[f"{type(exc).__name__}: {exc}"]] * self.workload.trials, []
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out_dir.iterdir())}
        if self.outputs is None:
            self.outputs = digests
        else:
            if digests != self.outputs:
                trial_problems = [p + ["output bytes differ from the first call"]
                                  for p in trial_problems]
            shutil.rmtree(out_dir)  # the first call's files stay for inspection
        bad = [p for p in trial_problems if p]
        self.failed += len(bad)
        self.problems += [f"{out_dir.name}: {'; '.join(p)}" for p in bad]
        if accs:
            self.val_acc_max.append(sum(accs) / len(accs))
        return seconds

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems, "val_acc_max": self.val_acc_max,
                "outputs": self.outputs}


def measure(workload, work: Path, seconds: float) -> dict:
    """Repeated set-up, then entry calls until `seconds` have passed, at
    least two so their output bytes can be compared."""
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
        start = perf_counter()
        pair = workload.setup()
        setup_s.append(perf_counter() - start)
        del pair
    workload.prepare()
    runner = Runner(workload, work)
    run_s = []
    start = perf_counter()
    with spans.Tracer() as trials:
        trials.patch(harness, "train", "harness.train")
        while runner.calls < 2 or perf_counter() - start < seconds:
            t = runner.run_call()
            if t is not None:
                run_s.append(t)
    trial_s = [end - begin for _, _, begin, end in trials.spans]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": setup_s, "run_s": run_s, "trial_s": trial_s,
            "peak_rss_mb": peak_rss_mb, **runner.report()}


def measure_traced(workload, work: Path, seconds: float) -> dict:
    """One untimed warm-up call, then pairs of one untraced and one traced
    entry call until `seconds` have passed, at least one pair. Pairs alternate
    which call runs first. Each traced call's spans go to a JSON file."""
    workload.prepare()
    runner = Runner(workload, work)
    runner.run_call()  # the first call in a process runs cold
    untraced_s, traced_s, layers = [], [], []
    start = perf_counter()
    while not traced_s or perf_counter() - start < seconds:
        tracer = spans.Tracer()
        if len(traced_s) % 2:
            t_traced, t = runner.run_call(tracer), runner.run_call()
        else:
            t, t_traced = runner.run_call(), runner.run_call(tracer)
        if t is None or t_traced is None:
            break
        untraced_s.append(t)
        traced_s.append(t_traced)
        layers.append(spans.summarize(tracer.spans))
        tracer.write(work / f"spans-pair{len(layers) - 1}.json")
    return {"untraced_run_s": untraced_s, "traced_run_s": traced_s, "layers": layers,
            **runner.report()}


def blas_facts() -> dict:
    """Name and version numpy was built with, and the thread count the loaded
    OpenBLAS reports (None when the library or its query is not found)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    # One fixed core, so that runs do not differ by the core they land on
    # (on a shared two-core machine the two measured up to 8% apart).
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    args.work.mkdir(parents=True)
    workload = make_workload(args.workload, args.inputs.resolve(), args.work,
                             SIZES[args.size][args.workload])
    measure_fn = measure_traced if args.trace else measure
    result = measure_fn(workload, args.work, args.seconds)
    facts = {"cpu": cpu, "blas": blas_facts(), "numpy": np.__version__}
    print(json.dumps({**result, "facts": facts}))


if __name__ == "__main__":
    main()
