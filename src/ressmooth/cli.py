"""Command-line entry point: `train`, `grid` and `eval` subcommands driven by
an INI experiment file. Exit code 0 on success, 2 on config/format errors,
including a checkpoint that does not fit the configured network.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from . import harness, nn
from .config import float_list, parse_config
from .errors import ConfigError, FormatError, InputError, ShapeError, TrainingError

DEFAULT_B_GRID = "0.1,0.3,0.5,0.7,0.9"
DEFAULT_ALPHA_GRID = "0.25,0.5,1,2,4"


def _parse_grid(raw: str, flag: str):
    values = float_list(raw, flag, None)
    if not values:
        raise ConfigError(f"{flag} must list at least one value")
    return values


def _add_run_flags(sub):
    sub.add_argument("--seed", type=int, default=None, help="override base_seed")
    sub.add_argument("--out-dir", default=".", help="directory for emitted files")
    sub.add_argument("--trials", type=int, default=None, help="override trial count")


def build_parser():
    parser = argparse.ArgumentParser(prog="ressmooth",
                                     description="residual-smoothing experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    train_p = sub.add_parser("train", help="run the configured trials")
    grid_p = sub.add_parser("grid", help="grid search over (b, alpha)")
    eval_p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    for command in (train_p, grid_p, eval_p):
        command.add_argument("--config", required=True, help="experiment config file")
    _add_run_flags(train_p)
    _add_run_flags(grid_p)
    grid_p.add_argument("--b-grid", default=DEFAULT_B_GRID)
    grid_p.add_argument("--alpha-grid", default=DEFAULT_ALPHA_GRID)
    eval_p.add_argument("--checkpoint", required=True)
    return parser


def _load_config(args):
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    if args.trials is not None:
        config = dataclasses.replace(config, trials=args.trials)
    return config


def _cmd_train(args) -> int:
    config = _load_config(args)
    aggregate = harness.run_trials(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for row, metrics, network in zip(aggregate.rows, aggregate.metrics, aggregate.networks):
        harness.write_metrics_csv(metrics, out / f"metrics_trial{row.trial}.csv")
        nn.save_checkpoint(network, out / f"checkpoint_trial{row.trial}.rsm")
    harness.write_aggregate_csv(aggregate.rows, out / "aggregate.csv")
    print(f"trials: {config.trials}")
    print(f"mean max val acc: {aggregate.mean_max_val_acc:.6f}")
    print(f"mean tail val acc: {aggregate.mean_tail_val_acc:.6f}")
    return 0


def _cmd_grid(args) -> int:
    config = _load_config(args)
    b_values = _parse_grid(args.b_grid, "--b-grid")
    alpha_values = _parse_grid(args.alpha_grid, "--alpha-grid")
    rows, (b, alpha, mean_max_val_acc) = harness.grid_search(config, b_values, alpha_values)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_aggregate_csv(rows, out / "grid.csv")
    print(f"grid points: {len(b_values) * len(alpha_values)}")
    print(f"best b={b:g} alpha={alpha:g} mean max val acc: {mean_max_val_acc:.6f}")
    return 0


def _cmd_eval(args) -> int:
    config = parse_config(args.config)
    test_ds = harness.load_split(config.dataset, "test")
    dims = [test_ds.feature_count, *config.model.hidden, test_ds.class_count]
    template = nn.build_network(dims, output_activation=config.model.output_activation)
    network = nn.load_parameters(template, nn.load_checkpoint(args.checkpoint))
    acc, loss = harness.evaluate(network, test_ds)
    print(f"val acc: {acc:.6f}")
    print(f"val loss: {loss:.6f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "grid":
            return _cmd_grid(args)
        return _cmd_eval(args)
    except (ConfigError, FormatError, InputError, ShapeError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
