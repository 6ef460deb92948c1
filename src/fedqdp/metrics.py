"""Metrics export, run manifests, and run comparison.

Metrics are exported as csv with the columns t, downlink_bits,
uplink_bits, mean_bits, test_acc, train_acc, in that order. Accuracies
are blank on rounds without evaluation, otherwise fixed to six decimals.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from fedqdp.federation import RoundRecord

COLUMNS = ("t", "downlink_bits", "uplink_bits", "mean_bits", "test_acc", "train_acc")
_INT_COLUMNS = {"t", "downlink_bits", "uplink_bits"}
_ACC_COLUMNS = {"test_acc", "train_acc"}


def record_to_row(record: RoundRecord) -> dict:
    """Exported view of one record, column order fixed."""
    return {key: getattr(record, key) for key in COLUMNS}


def _format_cell(key: str, value) -> str:
    if value is None:
        return ""
    if key in _INT_COLUMNS:
        return str(int(value))
    return f"{value:.6f}"


@contextmanager
def _atomic_write(path: str | Path, newline: str | None = None):
    """Write through a temporary file beside path and move it onto path only
    once the block finishes, so a failed write leaves the old file intact."""
    tmp = Path(path).with_name(f".{Path(path).name}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _csv_path(path: str | Path) -> Path:
    path = Path(path)
    if path.suffix != ".csv":
        raise ValueError(f"{path}: unsupported metrics format {path.suffix!r}, use .csv")
    return path


def write_records(records: list[RoundRecord], path: str | Path) -> None:
    """Write the records as csv, atomically."""
    path = _csv_path(path)
    with _atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(COLUMNS)
        for record in records:
            row = record_to_row(record)
            writer.writerow([_format_cell(k, row[k]) for k in COLUMNS])


def _parse_cell(key: str, cell: str, where: str):
    """A csv cell as the value it was written from: an integer for t and the
    bit columns, a number for mean_bits, a number or None (blank) for the
    accuracies. Every number must be finite and non-negative and written
    in ASCII digits, with one decimal point at most and none in the integer
    columns; any other cell raises ValueError naming where and the column."""
    if cell == "" and key in _ACC_COLUMNS:
        return None
    is_int = key in _INT_COLUMNS
    need = ("an integer" if is_int else "a number") + (" or blank" if key in _ACC_COLUMNS else "")
    try:
        value = int(cell) if is_int else float(cell)
    except ValueError:
        raise ValueError(f"{where}: {key} must be {need}, got {cell or None!r}") from None
    # false for nan as well as for negative and infinite values
    if not 0 <= value < float("inf"):
        raise ValueError(f"{where}: {key} must be finite and non-negative, got {value!r}")
    # int() and float() also take signs, spaces, underscores, exponents and
    # non-ASCII digits, none of which write_records writes
    digits = cell if is_int else cell.replace(".", "", 1)
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{where}: {key} must be {need}, got {cell!r}")
    return value


def read_records(path: str | Path) -> list[dict]:
    """Parse an exported metrics csv back into row dicts; a leading UTF-8
    byte order mark is skipped.

    Numbers come back as int/float and missing accuracies as None, so a
    write/read/write cycle is byte-identical. A row without exactly one
    cell per column, or a value of the wrong type, negative or not finite
    raises ValueError naming the file and line.
    """
    path = _csv_path(path)
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames or ()) != COLUMNS:
            raise ValueError(f"{path}:1: unexpected columns {reader.fieldnames}")
        for raw in reader:
            where = f"{path}:{reader.line_num}"
            # DictReader files missing cells as None and extra ones under None
            if None in raw or None in raw.values():
                raise ValueError(f"{where}: need {len(COLUMNS)} cells")
            rows.append({key: _parse_cell(key, raw[key], where) for key in COLUMNS})
    return rows


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run and find its outputs."""

    config: dict
    seed: int
    python_version: str
    numpy_version: str
    package_version: str
    started: str
    finished: str
    outputs: tuple[str, ...]


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    with _atomic_write(path) as f:
        json.dump(asdict(manifest), f, indent=2, sort_keys=True)
        f.write("\n")


@dataclass(frozen=True)
class ComparisonSummary:
    """Totals and headline accuracy for a baseline/variant pair."""

    total_bits_baseline: int
    total_bits_variant: int
    ratio: float
    reduction_percent: float
    best_test_acc_baseline: float | None
    best_round_baseline: int | None
    best_test_acc_variant: float | None
    best_round_variant: int | None


def total_bits(rows: list[dict]) -> int:
    return sum(int(r["downlink_bits"]) + int(r["uplink_bits"]) for r in rows)


def best_accuracy(rows: list[dict]) -> tuple[float | None, int | None]:
    """Highest test accuracy and the earliest round reaching it."""
    best_acc, best_round = None, None
    for row in rows:
        acc = row["test_acc"]
        if acc is not None and (best_acc is None or acc > best_acc):
            best_acc, best_round = acc, int(row["t"])
    return best_acc, best_round


def compare_runs(baseline_path: str | Path, variant_path: str | Path) -> ComparisonSummary:
    """Compare total traffic and best accuracy of two exported runs.

    reduction_percent is how much smaller the variant's total is; identical
    runs give exactly 0.0.
    """
    base_rows = read_records(baseline_path)
    var_rows = read_records(variant_path)
    base_total = total_bits(base_rows)
    var_total = total_bits(var_rows)
    if base_total <= 0:
        raise ValueError(f"{baseline_path}: baseline reports no traffic")
    ratio = var_total / base_total
    base_best, base_round = best_accuracy(base_rows)
    var_best, var_round = best_accuracy(var_rows)
    return ComparisonSummary(
        total_bits_baseline=base_total,
        total_bits_variant=var_total,
        ratio=ratio,
        reduction_percent=(1.0 - ratio) * 100.0,
        best_test_acc_baseline=base_best,
        best_round_baseline=base_round,
        best_test_acc_variant=var_best,
        best_round_variant=var_round,
    )
