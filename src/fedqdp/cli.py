"""Command line interface: run, compare, sweep.

Output directories default to $FEDQDP_OUT, falling back to ./runs. A run
writes metrics.csv plus manifest.json; a sweep writes one subdirectory per
grid cell and a summary.csv.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from fedqdp import __version__
from fedqdp.config import ConfigError, grid_cells, load_config_dict, parse_config_dict
from fedqdp.federation import ExperimentConfig, run_experiment
from fedqdp.metrics import (
    RunManifest,
    _atomic_write,
    best_accuracy,
    compare_runs,
    record_to_row,
    total_bits,
    write_manifest,
    write_records,
)


def _default_out() -> str:
    return os.environ.get("FEDQDP_OUT", "runs")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _execute(raw: dict, cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Run cfg, the parse of raw, and write metrics + a manifest that keeps raw."""
    out_dir.mkdir(parents=True, exist_ok=True)
    started = _now()
    records = run_experiment(cfg)
    metrics_path = out_dir / "metrics.csv"
    write_records(records, metrics_path)
    manifest = RunManifest(
        config=raw,
        seed=cfg.seed,
        python_version=platform.python_version(),
        numpy_version=np.__version__,
        package_version=__version__,
        started=started,
        finished=_now(),
        outputs=(metrics_path.name,),
    )
    write_manifest(manifest, out_dir / "manifest.json")
    rows = [record_to_row(r) for r in records]
    acc, acc_round = best_accuracy(rows)
    return {
        "rounds": len(records),
        "total_bits": total_bits(rows),
        "best_test_acc": acc,
        "best_round": acc_round,
        "metrics": str(metrics_path),
    }


def _cmd_run(args) -> int:
    raw = load_config_dict(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    summary = _execute(raw, parse_config_dict(raw), Path(args.out or _default_out()))
    print(f"rounds: {summary['rounds']}")
    print(f"total bits (down + up): {summary['total_bits']}")
    if summary["best_test_acc"] is not None:
        print(f"best test acc: {summary['best_test_acc']:.6f} at round {summary['best_round']}")
    print(f"metrics: {summary['metrics']}")
    return 0


def _cmd_compare(args) -> int:
    summary = compare_runs(args.baseline, args.variant)
    if args.json:
        print(json.dumps(asdict(summary)))
        return 0
    print(f"baseline total bits: {summary.total_bits_baseline}")
    print(f"variant total bits:  {summary.total_bits_variant}")
    print(f"ratio: {summary.ratio:.6f}  reduction: {summary.reduction_percent:.2f}%")
    if summary.best_test_acc_baseline is not None:
        print(
            f"best test acc baseline: {summary.best_test_acc_baseline:.6f} "
            f"at round {summary.best_round_baseline}"
        )
    if summary.best_test_acc_variant is not None:
        print(
            f"best test acc variant:  {summary.best_test_acc_variant:.6f} "
            f"at round {summary.best_round_variant}"
        )
    return 0


def _load_grid(arg: str) -> dict:
    """Grid argument: a path to a JSON file, or inline JSON."""
    path = Path(arg)
    try:
        is_path = path.exists()
    except OSError:  # inline JSON longer than the OS allows for a file name
        is_path = False
    text = path.read_text() if is_path else arg
    try:
        grid = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"grid is neither a file nor valid JSON: {exc}") from exc
    if not isinstance(grid, dict):
        raise ConfigError("grid must be a JSON object of dotted keys to value lists")
    return grid


def _cmd_sweep(args) -> int:
    raw = load_config_dict(args.config)
    grid = _load_grid(args.grid)
    cells = grid_cells(raw, grid)
    # parse every cell before running any, so a bad cell leaves no output
    cfgs = []
    for overrides, cell_raw in cells:
        try:
            cfgs.append(parse_config_dict(cell_raw))
        except ConfigError as exc:
            raise ConfigError(f"grid cell {overrides}: {exc}") from exc
    out_root = Path(args.out or _default_out())
    out_root.mkdir(parents=True, exist_ok=True)
    keys = sorted(grid)
    rows = [["cell", *keys, "total_bits", "best_test_acc", "best_round"]]
    for i, ((overrides, cell_raw), cfg) in enumerate(zip(cells, cfgs)):
        cell_dir = out_root / f"cell_{i:03d}"
        summary = _execute(cell_raw, cfg, cell_dir)
        rows.append(
            [
                cell_dir.name,
                *[overrides[k] for k in keys],
                summary["total_bits"],
                "" if summary["best_test_acc"] is None else f"{summary['best_test_acc']:.6f}",
                "" if summary["best_round"] is None else summary["best_round"],
            ]
        )
        print(f"{cell_dir.name}: {overrides} -> total_bits={summary['total_bits']}")
    # written once, after every cell ran: a failed cell leaves no partial summary
    summary_path = out_root / "summary.csv"
    with _atomic_write(summary_path, newline="") as f:
        csv.writer(f).writerows(rows)
    print(f"summary: {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedqdp",
        description="Federated averaging simulator with quantized links and local DP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to JSON config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="output directory (default $FEDQDP_OUT or ./runs)")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="compare two exported metrics files")
    cmp_p.add_argument("baseline")
    cmp_p.add_argument("variant")
    cmp_p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    cmp_p.set_defaults(func=_cmd_compare)

    sweep_p = sub.add_parser("sweep", help="run a grid of config overrides")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--grid", required=True, help="JSON file or inline JSON: dotted key -> list")
    sweep_p.add_argument("--out", default=None)
    sweep_p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"fedqdp {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
