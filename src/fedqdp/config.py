"""JSON experiment configs with strict key checking.

Unknown keys are rejected at every level so typos fail loudly. Missing
optional keys fall back to the defaults of the dataclass they configure
(eta 0.1, batch_size 64, and so on, on ExperimentConfig). The model section
may be omitted for blob data, in which case a logistic model matching the
data dimensions is assumed.
"""

from __future__ import annotations

import copy
import json
from itertools import product
from pathlib import Path

from fedqdp.federation import (
    BlobsConfig,
    ExperimentConfig,
    IdxConfig,
    PartitionConfig,
)
from fedqdp.models import ModelSpec
from fedqdp.privacy import DpConfig
from fedqdp.schedule import ScheduleConfig


class ConfigError(ValueError):
    """Config file problem: unknown key, bad type, or inconsistent values."""


# top-level scalar keys and the ExperimentConfig fields they set
_TOP_FIELDS = {
    "rounds": "rounds", "clients": "num_clients", "per_round": "clients_per_round",
    "local_epochs": "local_epochs", "batch_size": "batch_size", "eta": "eta",
    "seed": "seed", "eval_every": "eval_every",
}
_TOP_KEYS = set(_TOP_FIELDS) | {"model", "schedule", "dp", "data", "partition"}
_MODEL_KEYS = {"kind", "input_dim", "num_classes", "hidden_dim"}
_SCHEDULE_KEYS = {"mode", "b_max", "b_min", "bits", "lambda_h"}
_DP_KEYS = {"epsilon", "xi"}
_BLOBS_KEYS = {"kind", "num_classes", "input_dim", "train_per_class", "test_per_class", "spread"}
_IDX_KEYS = {"kind", "train_images", "train_labels", "test_images", "test_labels"}
_PARTITION_KEYS = {"scheme", "alpha", "exponent"}

# keys that must hold JSON integers, in whichever section allows them
_INT_KEYS = {
    "rounds", "clients", "per_round", "local_epochs", "batch_size", "seed", "eval_every",
    "input_dim", "num_classes", "hidden_dim", "b_max", "b_min", "bits",
    "train_per_class", "test_per_class",
}
# integer keys that reach numpy as a C long; seed goes to SeedSequence,
# which takes any non-negative integer
_INT64_KEYS = _INT_KEYS - {"seed"}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# keys that must hold JSON numbers (integer or real, not a bool)
_REAL_KEYS = {"eta", "spread", "epsilon", "xi", "lambda_h", "alpha", "exponent"}
# keys that must hold JSON strings
_STR_KEYS = {"kind", "mode", "scheme", "train_images", "train_labels", "test_images", "test_labels"}


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    """Reject a non-object section, unknown keys, non-integer integer keys
    (or, seed aside, ones outside the 64-bit range), non-numeric real keys
    and non-string string keys."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {type(section).__name__}")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")
    for key in sorted(_INT_KEYS & set(section)):
        if not isinstance(section[key], int) or isinstance(section[key], bool):
            raise ConfigError(f"{where}.{key} must be an integer, got {section[key]!r}")
        if key in _INT64_KEYS and not _INT64_MIN <= section[key] <= _INT64_MAX:
            raise ConfigError(f"{where}.{key} does not fit a 64-bit integer")
    for key in sorted(_REAL_KEYS & set(section)):
        if not isinstance(section[key], (int, float)) or isinstance(section[key], bool):
            raise ConfigError(f"{where}.{key} must be a number, got {section[key]!r}")
        try:
            float(section[key])
        except OverflowError:
            raise ConfigError(f"{where}.{key} is too large for a float") from None
    for key in sorted(_STR_KEYS & set(section)):
        if not isinstance(section[key], str):
            raise ConfigError(f"{where}.{key} must be a string, got {section[key]!r}")


def _build(factory, where: str, **kwargs):
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def parse_config_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON object."""
    _check_keys(raw, _TOP_KEYS, "config")

    data_raw = raw.get("data", {})
    # must be an object before its kind can be read
    _check_keys(data_raw, _BLOBS_KEYS | _IDX_KEYS, "data")
    kind = data_raw.get("kind", "blobs")
    fields = {k: v for k, v in data_raw.items() if k != "kind"}
    if kind == "blobs":
        _check_keys(data_raw, _BLOBS_KEYS, "data")
        data = _build(BlobsConfig, "data", **fields)
    elif kind == "idx":
        _check_keys(data_raw, _IDX_KEYS, "data")
        missing = sorted(_IDX_KEYS - {"kind"} - set(fields))
        if missing:
            raise ConfigError(f"data kind 'idx' requires key(s) {missing}")
        data = _build(IdxConfig, "data", **fields)
    else:
        raise ConfigError(f"data.kind must be 'blobs' or 'idx', got {kind!r}")

    model_raw = raw.get("model")
    if model_raw is None:
        if not isinstance(data, BlobsConfig):
            raise ConfigError("a model section is required when data.kind is 'idx'")
        model = ModelSpec("logistic", data.input_dim, data.num_classes)
    else:
        _check_keys(model_raw, _MODEL_KEYS, "model")
        model = _build(ModelSpec, "model", **model_raw)

    schedule_raw = raw.get("schedule", {"mode": "static"})
    _check_keys(schedule_raw, _SCHEDULE_KEYS, "schedule")
    schedule = _build(ScheduleConfig, "schedule", **schedule_raw)

    dp_raw = raw.get("dp")
    dp = None
    if dp_raw is not None:
        _check_keys(dp_raw, _DP_KEYS, "dp")
        dp = _build(DpConfig, "dp", **dp_raw)

    partition_raw = raw.get("partition", {})
    _check_keys(partition_raw, _PARTITION_KEYS, "partition")
    partition = _build(PartitionConfig, "partition", **partition_raw)

    scalars = {field: raw[key] for key, field in _TOP_FIELDS.items() if key in raw}
    return _build(
        ExperimentConfig,
        "config",
        model=model,
        schedule=schedule,
        data=data,
        partition=partition,
        dp=dp,
        **scalars,
    )


def load_config_dict(path: str | Path) -> dict:
    """Read a JSON config file into a raw dict."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def parse_config(path: str | Path) -> ExperimentConfig:
    return parse_config_dict(load_config_dict(path))


def apply_override(raw: dict, dotted_key: str, value) -> dict:
    """Return a copy of raw with the dotted key set, e.g. 'schedule.b_min'."""
    out = copy.deepcopy(raw)
    parts = dotted_key.split(".")
    node = out
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into non-object at {part!r} in {dotted_key!r}")
    node[parts[-1]] = value
    return out


def grid_cells(raw: dict, grid: dict) -> list[tuple[dict, dict]]:
    """Expand a {dotted_key: [values]} grid over a base config.

    Returns (overrides, config dict) per cell, in row-major order over the
    sorted keys."""
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("grid must be a non-empty object of dotted keys to value lists")
    keys = sorted(grid)
    for key in keys:
        if not isinstance(grid[key], list) or not grid[key]:
            raise ConfigError(f"grid entry {key!r} must be a non-empty list")
    cells = []
    for values in product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, values))
        cell_raw = raw
        for key, value in overrides.items():
            cell_raw = apply_override(cell_raw, key, value)
        cells.append((overrides, cell_raw))
    return cells
