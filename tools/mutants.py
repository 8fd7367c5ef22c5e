"""One-line mutants of `src`, each run against the test suite in a copy.

    python3 tools/mutants.py

MUTANTS lists fixed one-line changes to the package, each a (name, file, old,
new, equivalent) entry: `old` occurs exactly once in `file`, and `new`
replaces it. Each is a plausible protocol slip that the tests should catch.
For each mutant the checkout is copied to a temporary directory, removed at
exit, without its dot-folders, caches, benchmark inputs and outputs; the line
is changed there, and the suite runs there with `-x`, without the three
slowest acceptance gates and the check of MUTANTS itself (DESELECT). A run
that fails is `killed`, one that passes `survived`. An equivalent
mutant gives the same values up to rounding, so no test can be expected to
kill it; it is run and reported all the same, marked `(equivalent)`.

An unchanged copy runs first. If it fails, every mutant would read killed,
so the tool stops there.

One line per mutant: its name, the verdict and the seconds the run took.
The exit status is 0 when every mutant not marked equivalent was killed, 1
otherwise. Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    ("lr_drop_at_boundary", "src/ressmooth/optim.py",
     "progress < config.drop_at", "progress <= config.drop_at", False),
    ("progress_one_step_ahead", "src/ressmooth/harness.py",
     "progress = t / total_iters", "progress = (t + 1) / total_iters", False),
    ("weight_decay_on_biases", "src/ressmooth/optim.py",
     "(n_w, p.size, False)", "(n_w, p.size, True)", False),
    ("s_t_at_epoch_start", "src/ressmooth/harness.py",
     "s_t=smoothing.sigmoid_args(sm, s_t)[0],",
     "s_t=smoothing.sigmoid_args(sm, scale_at(config.schedule, epoch / config.epochs))[0],",
     False),
    ("last_short_batch_dropped", "src/ressmooth/data.py",
     "for start in range(0, dataset.n, batch_size):",
     "for start in range(0, dataset.n - batch_size + 1, batch_size):", False),
    ("ratio_from_take_stream", "src/ressmooth/harness.py",
     'substream(ds.seed, "ratio"))', 'substream(ds.seed, "take"))', False),
    ("mean_kappa_as_total_mean", "src/ressmooth/harness.py",
     "kappa_sum += float(kappa.mean(axis=1).sum())",
     "kappa_sum += float(kappa.mean() * kappa.shape[0])", True),
    ("tail_window_floored", "src/ressmooth/harness.py",
     "n_tail = max(1, math.ceil(len(vals) / 10))", "n_tail = max(1, len(vals) // 10)", False),
    ("batches_unshuffled", "src/ressmooth/data.py",
     "yield perm[start:start + batch_size]",
     "yield np.arange(dataset.n)[start:start + batch_size]", False),
    ("eps_std_1e-4", "src/ressmooth/smoothing.py",
     "EPS_STD = 1e-8", "EPS_STD = 1e-4", False),
    ("base_seed_ignored", "src/ressmooth/harness.py",
     "train(config, config.base_seed + k, dataset_pair)", "train(config, k, dataset_pair)", False),
]

# gates 5-7 train the protocol over many trials, most of the suite's time; the
# check that each mutant's `old` text is in place fails on every mutant by design
DESELECT = [*(f"tests/test_acceptance.py::test_criterion_{gate}" for gate in
              ("5_protocol_fidelity", "6_partial_data_protocol", "7_baseline_battery")),
            "tests/test_mutants.py"]


def mutate(checkout: Path, file: str, old: str, new: str):
    """Replace the one occurrence of `old` in `checkout / file` by `new`."""
    path = checkout / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: {old!r} occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new))


def suite_passes(checkout: Path) -> bool:
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            *(arg for test in DESELECT for arg in ("--deselect", test))]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    return subprocess.run(argv, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def run(name: str, change) -> bool:
    """Copy the checkout, apply `change` to the copy (None: none) and run the
    suite there; print the verdict line and return whether the suite passed."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
            ".*", "__pycache__", "*.egg-info", "cache", "out"))
        if change:
            mutate(checkout, *change)
        start = time.perf_counter()
        passed = suite_passes(checkout)
        seconds = time.perf_counter() - start
    verdict = ("passed" if passed else "failed") if change is None else (
        "survived" if passed else "killed")
    print(f"{name}: {verdict} ({seconds:.1f} s)", flush=True)
    return passed


def main() -> int:
    if not run("unchanged", None):
        raise SystemExit("the suite fails on the unchanged copy: no mutant can be judged")
    survivors = []
    for name, file, old, new, equivalent in MUTANTS:
        if run(name + (" (equivalent)" if equivalent else ""), (file, old, new)) \
                and not equivalent:
            survivors.append(name)
    print(f"survived: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
