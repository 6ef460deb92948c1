"""JSON experiment configs, checked against the config dataclasses.

A section's keys are its dataclass's fields (plus data's "kind", and the
top-level "clients" and "per_round" for num_clients and clients_per_round);
each value must have the JSON type its field is annotated with: int, float
or str. Unknown keys are rejected at every level so typos fail loudly.
Missing optional keys fall back to the dataclass defaults. The model
section may be omitted for blob data, in which case a logistic model
matching the data dimensions is assumed.
"""

from __future__ import annotations

import copy
import json
from dataclasses import MISSING, Field, fields
from itertools import product
from pathlib import Path

from fedqdp.data import BlobsConfig, IdxConfig, PartitionConfig
from fedqdp.federation import ExperimentConfig
from fedqdp.models import ModelSpec
from fedqdp.privacy import DpConfig
from fedqdp.schedule import ScheduleConfig


class ConfigError(ValueError):
    """Config file problem: unknown key, bad type, or inconsistent values."""


# top-level keys whose names differ from the ExperimentConfig fields they set
_TOP_FIELDS = {"clients": "num_clients", "per_round": "clients_per_round"}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _check_value(value, field: Field, where: str):
    """Reject a value whose JSON type does not match its field's annotation;
    return the value to store. Integers reach numpy as a C long, so must fit
    64 bits, except the seed: SeedSequence takes any non-negative integer.
    A float field stores a Python float: np.isfinite rejects ints beyond 64 bits."""
    if field.type == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        if field.name != "seed" and not _INT64_MIN <= value <= _INT64_MAX:
            raise ConfigError(f"{where} does not fit a 64-bit integer")
    elif field.type == "float":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{where} is too large for a float") from None
    elif field.type == "str" and not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _values(cls, section, where: str, extra=(), renames=None) -> dict:
    """Check a JSON object against the fields of cls; return its values by
    field name. renames maps a key to the field it sets; extra keys are
    allowed but not returned."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {type(section).__name__}")
    key_of = {name: key for key, name in (renames or {}).items()}
    schema = {key_of.get(f.name, f.name): f for f in fields(cls)}
    allowed = sorted([*schema, *extra])
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {allowed}")
    values = {}
    for key in sorted(schema.keys() & section.keys()):
        values[schema[key].name] = _check_value(section[key], schema[key], f"{where}.{key}")
    return values


def _build(factory, where: str, **kwargs):
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _section(cls, section, where: str, extra=()):
    """Build cls from its JSON section, naming any required key it lacks."""
    values = _values(cls, section, where, extra)
    missing = sorted(f.name for f in fields(cls) if f.name not in values and f.default is MISSING)
    if missing:
        raise ConfigError(f"{where} requires key(s) {missing}")
    return _build(cls, where, **values)


def parse_config_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON object."""
    values = _values(ExperimentConfig, raw, "config", renames=_TOP_FIELDS)

    data_raw = raw.get("data", {})
    # a non-object data section is reported by _section
    kind = data_raw.get("kind", "blobs") if isinstance(data_raw, dict) else "blobs"
    if not isinstance(kind, str):
        raise ConfigError(f"data.kind must be a string, got {kind!r}")
    if kind not in ("blobs", "idx"):
        raise ConfigError(f"data.kind must be 'blobs' or 'idx', got {kind!r}")
    data = _section(BlobsConfig if kind == "blobs" else IdxConfig, data_raw, "data", ("kind",))

    if raw.get("model") is None:
        if kind == "idx":
            raise ConfigError("a model section is required when data.kind is 'idx'")
        model = ModelSpec("logistic", data.input_dim, data.num_classes)
    else:
        model = _section(ModelSpec, raw["model"], "model")

    schedule = _section(ScheduleConfig, raw.get("schedule", {"mode": "static"}), "schedule")
    dp = None if raw.get("dp") is None else _section(DpConfig, raw["dp"], "dp")
    partition = _section(PartitionConfig, raw.get("partition", {}), "partition")
    values.update(model=model, schedule=schedule, data=data, partition=partition, dp=dp)
    return _build(ExperimentConfig, "config", **values)


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
