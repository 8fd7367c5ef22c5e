import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import ressmooth
from ressmooth import cli
from ressmooth.annealing import KINDS
from ressmooth.config import DATASETS
from ressmooth.smoothing import MODES

PACKAGE = Path(ressmooth.__file__).parent
CHECKOUT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def sibling_imports(module):
    """The package modules `module` imports with `from .x import` or `from . import x`."""
    found = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def used_names(module):
    """Names `module` reads, as a bare name, an attribute or a `from .x import`,
    leaving out each top-level definition's references to itself."""
    found = set()
    for statement in parse(module).body:
        own = statement.name if isinstance(statement, DEFINITIONS) else None
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [alias.name for alias in node.names]
            else:
                continue
            found.update(name for name in names if name != own)
    return found


def test_every_module_is_reachable_from_the_cli():
    # followed from the entry point, not from __init__, so a module that only
    # its own unit test imports shows up as unreachable
    reached, pending = set(), ["cli"]
    while pending:
        module = pending.pop()
        if module not in reached:
            reached.add(module)
            pending.extend(sibling_imports(module))
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules - reached == set()


def test_every_function_and_class_is_used_in_the_package():
    # a per-sample reference left in src with no production caller fails
    # here; such code belongs in tests/oracles.py
    modules = [path.stem for path in PACKAGE.glob("*.py")]
    used = set().union(*(used_names(module) for module in modules))
    unused = {f"{module}.{statement.name}" for module in modules
              for statement in parse(module).body
              if isinstance(statement, DEFINITIONS) and statement.name not in used}
    assert unused == set()


def test_the_run_layers_name_no_mode_or_schedule_kind():
    # which of (b, alpha) a run reads is decided by value, in `harness.read_axes` and
    # `smoothing.sigmoid_args`; a mode or schedule name in these layers would decide it again
    named = {f"{module}.py:{node.lineno} {node.value!r}" for module in ("harness", "cli")
             for node in ast.walk(parse(module))
             if isinstance(node, ast.Constant) and node.value in (*MODES, *KINDS)}
    assert named == set()


def test_the_run_layers_name_no_dataset_kind():
    # which loader reads a dataset kind, and which file keys it takes, is decided in
    # `config.DATASETS`; a kind's name in these layers would decide it again
    named = {f"{module}.py:{node.lineno} {node.value!r}" for module in ("harness", "cli")
             for node in ast.walk(parse(module))
             if isinstance(node, ast.Constant) and node.value in DATASETS}
    assert named == set()


STEP_PATH = {
    "smoothing": ("sigmoid_scale", "batch_normalize", "sigmoid_args", "batch_diffusivity",
                  "batch_smoothed_loss_grad"),
    "annealing": ("scale_at", "laplace_pdf_scaled", "logistic_pdf_scaled"),
    "data": ("batches", "features", "augment_batch"),
    "optim": ("lr_at", "label_smooth"),
    "nn": ("forward_batch", "backward_batch"),
    "harness": ("evaluate",),
}


def test_the_step_path_checks_no_bounded_value_again():
    # each setting's range is checked once, when its config object is built, and each
    # array's shape and dtype once, when its `Dataset` or network is; the functions a
    # training step calls take their bounded arguments and their arrays as given
    found = {}
    for module, names in STEP_PATH.items():
        for node in parse(module).body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                found[f"{module}.{node.name}"] = [
                    inner.lineno for inner in ast.walk(node) if isinstance(inner, ast.Raise)]
    assert len(found) == sum(map(len, STEP_PATH.values()))  # every name still exists
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_cli_holds_no_run_setting_of_its_own():
    # an omitted flag falls back to the config; only the output directory has a default
    parser = cli.build_parser()
    for command in ("train", "grid"):
        args = vars(parser.parse_args([command, "--config", "x"]))
        set_by_cli = {name: value for name, value in args.items()
                      if value is not None and name not in ("command", "config", "out_dir")}
        assert set_by_cli == {}
    # every run setting is read from the config: the flags name files and the grid's axes
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {command: [flag for action in sub._actions for flag in action.option_strings]
            for command, sub in subparsers.choices.items()} == {
        "train": ["-h", "--help", "--config", "--out-dir"],
        "grid": ["-h", "--help", "--config", "--out-dir", "--b-grid", "--alpha-grid"],
        "eval": ["-h", "--help", "--config", "--checkpoint"]}


def test_a_traced_benchmark_run_reads_every_per_layer_metric_above_zero(tmp_path):
    # the benchmark times a function by patching its module attribute, so a package call
    # that reaches it by another reference is not timed and its metric reads 0, not an error
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(CHECKOUT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("cache", "out", "__pycache__"))
    shutil.copytree(PACKAGE, tmp_path / "src" / "ressmooth",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fashion_train", "--seed", "5",
         "--seconds", "0", "--trace", "1", "--size", "tiny"],
        cwd=tmp_path, env={**os.environ, "XDG_CACHE_HOME": str(tmp_path / "xdg")},
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    listed = [m["name"] for m in json.loads((CHECKOUT / "BENCHMARK.json").read_text())["per_layer"]]
    assert {name: metrics[name]["value"] for name in listed
            if metrics[name]["value"] <= 0} == {}
