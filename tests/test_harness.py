"""Config parsing, metrics export, comparison, and the CLI."""

import ast
import importlib
import json
import os
import platform
import re
import subprocess
import sys
import tomllib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fedqdp
from fedqdp.cli import main
from fedqdp.config import (
    ConfigError,
    apply_override,
    grid_cells,
    load_config_dict,
    parse_config_dict,
)
from fedqdp.federation import (
    BlobsConfig,
    ExperimentConfig,
    IdxConfig,
    PartitionConfig,
    RoundRecord,
    run_experiment,
)
from fedqdp.metrics import (
    best_accuracy,
    compare_runs,
    read_records,
    record_to_row,
    total_bits,
    write_records,
)
from fedqdp.models import ModelSpec
from fedqdp.privacy import DpConfig
from fedqdp.schedule import ScheduleConfig

SMALL_RAW = {
    "rounds": 4,
    "clients": 6,
    "per_round": 2,
    "eval_every": 2,
    "data": {"kind": "blobs", "num_classes": 3, "input_dim": 2, "train_per_class": 30,
             "test_per_class": 10, "spread": 0.25},
}


# --- config ------------------------------------------------------------------


def test_defaults_fill_in():
    cfg = parse_config_dict({"rounds": 7})
    assert cfg.eta == 0.1
    assert cfg.batch_size == 64
    assert cfg.local_epochs == 5
    assert cfg.rounds == 7
    assert cfg.num_clients == 50
    assert cfg.clients_per_round == 5
    assert cfg.seed == 0
    assert cfg.eval_every == 10
    assert parse_config_dict({}).rounds == ExperimentConfig.rounds == 100
    assert cfg.schedule.mode == "static" and cfg.schedule.bits == 32
    assert cfg.dp is None
    assert isinstance(cfg.data, BlobsConfig)
    assert cfg.partition.scheme == "dirichlet" and cfg.partition.alpha == 0.5
    # model inferred from blob dimensions
    assert cfg.model.kind == "logistic"
    assert cfg.model.input_dim == cfg.data.input_dim
    assert cfg.model.num_classes == cfg.data.num_classes
    # zero rounds builds and runs nothing
    assert run_experiment(parse_config_dict({"rounds": 0})) == []


def test_unknown_keys_rejected_at_every_level():
    with pytest.raises(ConfigError, match="epochs_local"):
        parse_config_dict({"epochs_local": 3})
    with pytest.raises(ConfigError, match="b_mid"):
        parse_config_dict({"schedule": {"mode": "cosine", "b_mid": 16}})
    with pytest.raises(ConfigError, match="sigma"):
        parse_config_dict({"dp": {"epsilon": 1.0, "xi": 1.0, "sigma": 2.0}})
    with pytest.raises(ConfigError, match="gamma"):
        parse_config_dict({"partition": {"scheme": "dirichlet", "gamma": 1.0}})
    with pytest.raises(ConfigError, match="data must be an object, got int"):
        parse_config_dict({"data": 5})
    with pytest.raises(ConfigError, match="data must be an object, got str"):
        parse_config_dict({"data": "blobs"})
    with pytest.raises(ConfigError, match="schedule must be an object, got list"):
        parse_config_dict({"schedule": [1]})
    with pytest.raises(ConfigError, match="train_images"):
        parse_config_dict({"data": {"kind": "blobs", "train_images": "x"}})
    with pytest.raises(ConfigError, match="data.kind must be 'blobs' or 'idx', got 'csv'"):
        parse_config_dict({"data": {"kind": "csv"}})
    # pure epsilon-DP has no delta to set
    with pytest.raises(ConfigError, match="delta"):
        parse_config_dict({"dp": {"epsilon": 1.0, "xi": 1.0, "delta": 0}})


def test_constraint_violations_name_the_problem():
    with pytest.raises(ConfigError, match="clients_per_round"):
        parse_config_dict({"clients": 5, "per_round": 6})
    with pytest.raises(ConfigError, match="lambda_h"):
        parse_config_dict({"schedule": {"mode": "dynamic", "lambda_h": 1.5}})
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config_dict({"dp": {"epsilon": -1.0, "xi": 1.0}})
    # the round loop's helpers (sgd_step, clip_gradient_l1, sensitivity,
    # noise_scale, select_clients, schedule_bits, client_importance) take these
    # as given, so the config is the one place that refuses them
    for raw, message in (({"eta": 0.0}, "eta must be positive"),
                         ({"eta": float("nan")}, "eta must be positive"),
                         ({"dp": {"epsilon": 1.0, "xi": 0.0}}, "xi must be positive"),
                         ({"per_round": 0}, "1 <= clients_per_round"),
                         ({"clients": 0}, "num_clients must be >= 1"),
                         ({"local_epochs": 0}, "local_epochs must be >= 1"),
                         ({"rounds": -1}, "rounds must be >= 0"),
                         ({"batch_size": 0}, "batch_size must be >= 1"),
                         ({"seed": -1}, "seed must be non-negative"),
                         ({"eval_every": 0}, "eval_every must be >= 1"),
                         ({"partition": {"scheme": "iid"}}, "scheme must be 'dirichlet'"),
                         ({"schedule": {"mode": "cosine", "b_min": 16, "b_max": 8}},
                          "b_min <= b_max"),
                         ({"schedule": {"mode": "dynamic", "lambda_h": -0.1}},
                          "lambda_h must lie in")):
        with pytest.raises(ConfigError, match=message):
            parse_config_dict(raw)
    # blob and partition ranges are checked when the config is read, not
    # when synthetic_blobs or a partitioner first sees them
    for data, key in (({"train_per_class": 0}, "train_per_class"),
                      ({"test_per_class": -5}, "test_per_class"),
                      ({"spread": -1.0}, "spread"),
                      ({"input_dim": 0}, "input_dim")):
        with pytest.raises(ConfigError, match=f"{key} must be"):
            parse_config_dict({"data": data})
    with pytest.raises(ConfigError, match="num_classes must be >= 2"):
        parse_config_dict({"data": {"num_classes": 1},
                           "model": {"kind": "logistic", "input_dim": 2, "num_classes": 2}})
    with pytest.raises(ConfigError, match="alpha"):
        parse_config_dict({"partition": {"alpha": -1.0}})
    with pytest.raises(ConfigError, match="exponent"):
        parse_config_dict({"partition": {"scheme": "power_law", "exponent": -1.0}})
    # a scheme reads only its own parameter, so the other one is not checked
    assert parse_config_dict({"partition": {"scheme": "power_law", "alpha": -1.0}}).partition.alpha == -1.0
    # likewise a schedule mode: static never reads lambda_h, dynamic does
    static = {"mode": "static", "bits": 8, "lambda_h": 2.0}
    assert parse_config_dict({"schedule": static}).schedule.lambda_h == 2.0
    with pytest.raises(ConfigError, match="lambda_h must lie in"):
        parse_config_dict({"schedule": {**static, "mode": "dynamic"}})
    # an explicit model must fit the blobs, and the blobs must cover the clients
    model = {"kind": "logistic", "input_dim": 2, "num_classes": 3}
    with pytest.raises(ConfigError, match="model input_dim 2 != data input_dim 3"):
        parse_config_dict({"model": model, "data": {"input_dim": 3}})
    with pytest.raises(ConfigError, match="model num_classes 3 != data num_classes 4"):
        parse_config_dict({"model": model, "data": {"num_classes": 4}})
    with pytest.raises(ConfigError, match="6 training samples cannot cover 7 clients"):
        parse_config_dict({"clients": 7, "data": {"num_classes": 2, "train_per_class": 3}})
    assert parse_config_dict({"clients": 6, "data": {"num_classes": 2, "train_per_class": 3}})


def test_schema_is_the_dataclass_fields():
    def allowed(raw):
        with pytest.raises(ConfigError, match="unknown key") as info:
            parse_config_dict(raw)
        return set(ast.literal_eval(str(info.value).split("allowed: ")[1]))

    def names(cls):
        return {f.name for f in fields(cls)}

    sections = {"model": ModelSpec, "schedule": ScheduleConfig, "dp": DpConfig,
                "partition": PartitionConfig}
    for section, cls in sections.items():
        assert allowed({section: {"bogus": 1}}) == names(cls)
    assert allowed({"data": {"bogus": 1}}) == names(BlobsConfig) | {"kind"}
    assert allowed({"data": {"kind": "idx", "bogus": 1}}) == names(IdxConfig) | {"kind"}
    renamed = {"num_clients": "clients", "clients_per_round": "per_round"}
    assert allowed({"bogus": 1}) == {renamed.get(n, n) for n in names(ExperimentConfig)}
    # every leaf field states the JSON type its key must hold
    leaves = [f for cls in (*sections.values(), BlobsConfig, IdxConfig) for f in fields(cls)]
    leaves += [f for f in fields(ExperimentConfig) if f.name not in {*sections, "data"}]
    assert {f.type for f in leaves} == {"int", "float", "str"}
    # a required key that is missing is named, whatever the section
    with pytest.raises(ConfigError, match=r"dp requires key\(s\) \['xi'\]"):
        parse_config_dict({"dp": {"epsilon": 1.0}})
    with pytest.raises(ConfigError, match=r"model requires key\(s\) \['input_dim'\]"):
        parse_config_dict({"model": {"kind": "logistic", "num_classes": 3}})
    with pytest.raises(ConfigError, match=r"schedule requires key\(s\) \['mode'\]"):
        parse_config_dict({"schedule": {"b_min": 4}})


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    example = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    raw = json.loads(re.sub(r"//.*", "", example))
    cfg = parse_config_dict(raw)
    assert cfg.num_clients == raw["clients"] and cfg.dp.epsilon == raw["dp"]["epsilon"]


def test_integer_fields_reject_floats_strings_and_bools(tmp_path, capsys):
    with pytest.raises(ConfigError, match="rounds"):
        parse_config_dict({"rounds": 2.7})
    with pytest.raises(ConfigError, match="seed"):
        parse_config_dict({"seed": 0.5})
    with pytest.raises(ConfigError, match="clients"):
        parse_config_dict({"clients": "7"})
    with pytest.raises(ConfigError, match="per_round"):
        parse_config_dict({"per_round": True})
    with pytest.raises(ConfigError, match="b_min"):
        parse_config_dict({"schedule": {"mode": "cosine", "b_min": 8.0}})
    with pytest.raises(ConfigError, match="train_per_class"):
        parse_config_dict({"data": {"kind": "blobs", "train_per_class": "30"}})
    # integers numpy would take as a C long must fit 64 bits; seed need not
    with pytest.raises(ConfigError, match="train_per_class"):
        parse_config_dict({"data": {"train_per_class": 10**30}})
    with pytest.raises(ConfigError, match="rounds"):
        parse_config_dict({"rounds": 2**63})
    with pytest.raises(ConfigError, match="b_max"):
        parse_config_dict({"schedule": {"mode": "cosine", "b_max": -(2**63) - 1}})
    assert parse_config_dict({"rounds": 2**63 - 1}).rounds == 2**63 - 1
    assert parse_config_dict({"seed": 10**30}).seed == 10**30
    raw = dict(SMALL_RAW, model={"kind": "mlp", "input_dim": 2, "num_classes": 3,
                                 "hidden_dim": 4.5})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "hidden_dim" in err
    assert "Traceback" not in err


def test_real_fields_reject_strings_and_bools():
    with pytest.raises(ConfigError, match="eta"):
        parse_config_dict({"eta": True})
    with pytest.raises(ConfigError, match="eta"):
        parse_config_dict({"eta": "0.1"})
    with pytest.raises(ConfigError, match="spread"):
        parse_config_dict({"data": {"kind": "blobs", "spread": True}})
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config_dict({"dp": {"epsilon": True, "xi": 1.0}})
    with pytest.raises(ConfigError, match="xi"):
        parse_config_dict({"dp": {"epsilon": 1.0, "xi": "1"}})
    with pytest.raises(ConfigError, match="lambda_h"):
        parse_config_dict({"schedule": {"mode": "dynamic", "lambda_h": "0.5"}})
    with pytest.raises(ConfigError, match="alpha"):
        parse_config_dict({"partition": {"scheme": "dirichlet", "alpha": False}})
    with pytest.raises(ConfigError, match="exponent"):
        parse_config_dict({"partition": {"scheme": "power_law", "exponent": [1.2]}})
    # an integer too large for a float is named, not passed on to numpy
    with pytest.raises(ConfigError, match="eta"):
        parse_config_dict({"eta": 10**400})
    with pytest.raises(ConfigError, match="spread"):
        parse_config_dict({"data": {"kind": "blobs", "spread": 10**400}})
    with pytest.raises(ConfigError, match="alpha"):
        parse_config_dict({"partition": {"scheme": "dirichlet", "alpha": 10**400}})
    # JSON integers are numbers too, and reach numpy as floats even beyond 64 bits
    cfg = parse_config_dict({"eta": 1, "dp": {"epsilon": 2, "xi": 3}})
    assert cfg.eta == 1.0 and cfg.dp.epsilon == 2 and cfg.dp.xi == 3
    big = [
        parse_config_dict({"eta": 10**30}).eta,
        parse_config_dict({"dp": {"epsilon": 10**30, "xi": 1.0}}).dp.epsilon,
        parse_config_dict({"data": {"kind": "blobs", "spread": 10**30}}).data.spread,
        parse_config_dict({"partition": {"scheme": "dirichlet", "alpha": 10**30}}).partition.alpha,
    ]
    assert all(type(v) is float for v in [*big, cfg.eta, cfg.dp.epsilon, cfg.dp.xi])
    assert big == [1e30] * 4


def test_string_fields_reject_numbers_and_bools():
    idx = {"kind": "idx", "train_images": "a", "train_labels": "b", "test_images": "c",
           "test_labels": "d"}
    model = {"kind": "logistic", "input_dim": 4, "num_classes": 2}
    for key, bad in (("train_images", 0), ("train_labels", True), ("test_images", None),
                     ("test_labels", 1.5)):
        with pytest.raises(ConfigError, match=f"data.{key} must be a string"):
            parse_config_dict({"data": dict(idx, **{key: bad}), "model": model})
    with pytest.raises(ConfigError, match="data.kind must be a string"):
        parse_config_dict({"data": {"kind": 0}})
    with pytest.raises(ConfigError, match="model.kind must be a string"):
        parse_config_dict({"model": dict(model, kind=["mlp"])})
    with pytest.raises(ConfigError, match="schedule.mode must be a string"):
        parse_config_dict({"schedule": {"mode": 1}})
    with pytest.raises(ConfigError, match="partition.scheme must be a string"):
        parse_config_dict({"partition": {"scheme": False}})


def test_idx_data_requires_model():
    raw = {"data": {"kind": "idx", "train_images": "a", "train_labels": "b",
                    "test_images": "c", "test_labels": "d"}}
    with pytest.raises(ConfigError, match="model"):
        parse_config_dict(raw)
    raw["model"] = {"kind": "logistic", "input_dim": 4, "num_classes": 2}
    cfg = parse_config_dict(raw)
    assert isinstance(cfg.data, IdxConfig)


def test_idx_data_requires_all_paths():
    with pytest.raises(ConfigError, match="test_labels"):
        parse_config_dict({"data": {"kind": "idx", "train_images": "a",
                                    "train_labels": "b", "test_images": "c"}})


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_RAW))
    cfg = parse_config_dict(load_config_dict(path))
    assert cfg.rounds == 4 and cfg.num_clients == 6
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config_dict(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level must be a JSON object"):
        load_config_dict(bad)


def test_apply_override_and_grid():
    raw = {"rounds": 10, "schedule": {"mode": "cosine"}}
    out = apply_override(raw, "schedule.b_min", 4)
    assert out["schedule"]["b_min"] == 4
    assert "b_min" not in raw["schedule"]  # original untouched
    out = apply_override(raw, "seed", 9)
    assert out["seed"] == 9

    cells = grid_cells(raw, {"seed": [0, 1], "schedule.b_min": [2, 8]})
    assert len(cells) == 4
    # sorted keys: schedule.b_min varies slowest
    assert [c[0] for c in cells] == [
        {"schedule.b_min": 2, "seed": 0},
        {"schedule.b_min": 2, "seed": 1},
        {"schedule.b_min": 8, "seed": 0},
        {"schedule.b_min": 8, "seed": 1},
    ]
    with pytest.raises(ConfigError):
        grid_cells(raw, {})
    with pytest.raises(ConfigError):
        grid_cells(raw, {"seed": []})
    with pytest.raises(ConfigError, match="cannot descend into non-object at 'mode'"):
        apply_override(raw, "schedule.mode.bits", 4)


EDGE_RAW = {
    "rounds": 2,
    "clients": 4,
    "per_round": 2,
    "local_epochs": 2,
    "batch_size": 8,
    "eval_every": 1,
    "schedule": {"mode": "dynamic", "b_min": 4, "b_max": 16},
    "data": {"kind": "blobs", "num_classes": 3, "input_dim": 2, "train_per_class": 10,
             "test_per_class": 5},
}


@pytest.mark.parametrize("override", [
    pytest.param({"per_round": 4}, id="per_round_is_clients"),
    pytest.param({"local_epochs": 1}, id="one_local_epoch"),
    pytest.param({"batch_size": 1}, id="batch_of_one"),
    pytest.param({"batch_size": 1000}, id="batch_above_largest_shard"),
    pytest.param({"schedule": {"mode": "dynamic", "b_min": 8, "b_max": 8}}, id="b_min_is_b_max"),
    pytest.param({"schedule": {"mode": "dynamic", "b_min": 4, "b_max": 16, "lambda_h": 0.0}},
                 id="lambda_h_0"),
    pytest.param({"schedule": {"mode": "dynamic", "b_min": 4, "b_max": 16, "lambda_h": 1.0}},
                 id="lambda_h_1"),
    pytest.param({"rounds": 1}, id="one_round"),
    pytest.param({"dp": {"epsilon": 1e-3, "xi": 1e-6}}, id="tiny_epsilon_and_xi"),
    pytest.param({"partition": {"scheme": "power_law", "exponent": 0.0}}, id="flat_power_law"),
])
def test_configs_at_the_edge_of_the_boundary_run(override):
    # the round loop does not check its inputs again, so whatever the config
    # accepts must run
    cfg = parse_config_dict({**EDGE_RAW, **override})
    records = run_experiment(cfg)
    assert len(records) == cfg.rounds
    for record in records:
        assert cfg.schedule.b_min <= record.mean_bits <= cfg.schedule.b_max


# --- metrics export ----------------------------------------------------------


def _records():
    return [
        RoundRecord(t=0, selected=(1, 2), downlink_bits=100, uplink_bits=90,
                    mean_bits=32.0, test_acc=None, train_acc=None),
        RoundRecord(t=1, selected=(0, 3), downlink_bits=100, uplink_bits=80,
                    mean_bits=20.5, test_acc=0.912345, train_acc=0.95),
    ]


def test_csv_roundtrip_and_formatting(tmp_path):
    path = tmp_path / "m.csv"
    write_records(_records(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,downlink_bits,uplink_bits,mean_bits,test_acc,train_acc"
    assert lines[1] == "0,100,90,32.000000,,"
    assert lines[2] == "1,100,80,20.500000,0.912345,0.950000"
    rows = read_records(path)
    assert rows == [record_to_row(r) for r in _records()]


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "metrics.csv"
    write_records(_records()[1:], path)
    old = path.read_bytes()
    real_format = fedqdp.metrics._format_cell
    calls = []

    def failing_format(key, value):
        calls.append(key)
        if len(calls) > 8:  # partway through the second row
            raise RuntimeError("disk full")
        return real_format(key, value)

    monkeypatch.setattr(fedqdp.metrics, "_format_cell", failing_format)
    with pytest.raises(RuntimeError, match="disk full"):
        write_records(_records(), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]


def test_empty_records_header_only(tmp_path):
    path = tmp_path / "m.csv"
    write_records([], path)
    assert path.read_text().splitlines() == [
        "t,downlink_bits,uplink_bits,mean_bits,test_acc,train_acc"
    ]
    assert read_records(path) == []


def test_unsupported_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_records([], tmp_path / "m.parquet")
    path = tmp_path / "m.txt"
    path.write_text("t\n0\n")
    with pytest.raises(ValueError, match="unsupported metrics format '.txt'"):
        read_records(path)
    # jsonl is refused like any other suffix, by file name, and nothing is written
    target = tmp_path / "m.jsonl"
    with pytest.raises(ValueError) as exc:
        write_records(_records(), target)
    assert str(exc.value) == f"{target}: unsupported metrics format '.jsonl', use .csv"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt"]


def test_total_bits_and_best_accuracy():
    rows = [record_to_row(r) for r in _records()]
    assert total_bits(rows) == 370
    acc, rnd = best_accuracy(rows)
    assert acc == 0.912345 and rnd == 1
    assert best_accuracy([record_to_row(_records()[0])]) == (None, None)


def test_compare_runs_identical_and_half(tmp_path):
    a = tmp_path / "a.csv"
    write_records(_records(), a)
    summary = compare_runs(a, a)
    assert summary.reduction_percent == 0.0
    assert summary.ratio == 1.0

    halved = [
        RoundRecord(t=r.t, selected=r.selected, downlink_bits=r.downlink_bits // 2,
                    uplink_bits=r.uplink_bits // 2, mean_bits=r.mean_bits,
                    test_acc=r.test_acc, train_acc=r.train_acc)
        for r in _records()
    ]
    b = tmp_path / "b.csv"
    write_records(halved, b)
    summary = compare_runs(a, b)
    assert abs(summary.reduction_percent - 50.0) < 1e-9
    # a reduction relative to no traffic at all is undefined
    silent = tmp_path / "silent.csv"
    write_records([], silent)
    with pytest.raises(ValueError, match="baseline reports no traffic"):
        compare_runs(silent, a)


# --- CLI ----------------------------------------------------------------------


def _write_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_RAW))
    return path


def test_cli_run_writes_metrics_and_manifest(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "total bits" in printed
    metrics = out / "metrics.csv"
    assert metrics.exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["config"]["rounds"] == 4
    assert manifest["outputs"] == ["metrics.csv"]
    assert manifest["numpy_version"] == np.__version__
    assert manifest["python_version"] == platform.python_version()
    rows = read_records(metrics)
    assert len(rows) == 4


def test_cli_seed_override_changes_results(tmp_path):
    cfg = _write_config(tmp_path)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "5"])
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a != b
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["seed"] == 5


def test_cli_rerun_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()


def test_cli_logistic_ignores_hidden_dim(tmp_path):
    """Each model kind reads only its own keys, so a sweep over model.kind
    can keep hidden_dim in the base config."""
    model = {"kind": "logistic", "input_dim": 2, "num_classes": 3}
    for name, extra in (("plain", {}), ("hidden", {"hidden_dim": 7})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**SMALL_RAW, "model": {**model, **extra}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "plain" / "metrics.csv").read_bytes() == (
        tmp_path / "hidden" / "metrics.csv"
    ).read_bytes()


def test_cli_compare(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
    code = main(["compare", str(tmp_path / "a" / "metrics.csv"), str(tmp_path / "b" / "metrics.csv")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "reduction: 0.00%" in printed


def test_cli_compare_json(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    capsys.readouterr()
    main(["compare", str(tmp_path / "a" / "metrics.csv"),
          str(tmp_path / "a" / "metrics.csv"), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduction_percent"] == 0.0


def test_cli_compare_malformed_metrics_exits_2(tmp_path, capsys):
    good = tmp_path / "good.csv"
    write_records(_records(), good)
    header = "t,downlink_bits,uplink_bits,mean_bits,test_acc,train_acc"
    bad = {
        "short_row.csv": (f"{header}\n0,1", 2),
        "other_columns.csv": ("t,bits\n0,1", 1),
        "long_row.csv": (f"{header}\n0,1,2,3.0,,,7", 2),
        # well-typed but impossible values: negative counts, nan and inf
        "negative_and_nan.csv": (f"{header}\n0,100,-500,nan,nan,inf", 2),
        "negative_t.csv": (f"{header}\n-1,100,500,8.0,,", 2),
        "inf_mean.csv": (f"{header}\n0,100,500,inf,,", 2),
        "nan_train_acc.csv": (f"{header}\n0,100,500,8.0,0.5,nan", 2),
    }
    for name, (text, line) in bad.items():
        path = tmp_path / name
        path.write_text(text + "\n")
        assert main(["compare", str(good), str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:{line}:" in err and "Traceback" not in err


def test_cli_compare_refuses_values_of_the_wrong_type(tmp_path, capsys):
    good = tmp_path / "good.csv"
    write_records(_records(), good)
    header = "t,downlink_bits,uplink_bits,mean_bits,test_acc,train_acc"
    bad = {
        "text_cell.csv": (f"{header}\nabc,1,2,3.0,,", "t must be an integer, got 'abc'"),
        "blank_bits.csv": (f"{header}\n0,1,,3.0,,", "uplink_bits must be an integer, got None"),
        "text_acc.csv": (f"{header}\n0,1,2,3.0,high,",
                         "test_acc must be a number or blank, got 'high'"),
        "float_t.csv": (f"{header}\n1.0,1,2,3.0,,", "t must be an integer, got '1.0'"),
        "blank_mean.csv": (f"{header}\n0,1,2,,,", "mean_bits must be a number, got None"),
        "underscore_mean.csv": (f"{header}\n0,1,2,1_0.5,,",
                                "mean_bits must be a number, got '1_0.5'"),
    }
    # int() and float() accept these, but write_records never writes them
    good_row = ["0", "1", "2", "3.0", "0.5", "0.5"]
    for column, key in enumerate(header.split(",")):
        need = ("an integer" if column < 3 else "a number") + (" or blank" if column > 3 else "")
        for i, cell in enumerate(["1_000", " 7 ", "+7", "\uff17"]):
            row = good_row[:column] + [cell] + good_row[column + 1:]
            bad[f"{key}_{i}.csv"] = (f"{header}\n{','.join(row)}", f"{key} must be {need}, got {cell!r}")
    for name, (text, message) in bad.items():
        path = tmp_path / name
        path.write_text(text + "\n")
        assert main(["compare", str(good), str(path)]) == 2, name
        err = capsys.readouterr().err
        assert f"{path}:2: {message}\n" in err and "Traceback" not in err


def test_cli_compare_refuses_a_jsonl_file(tmp_path, capsys):
    good = tmp_path / "good.csv"
    write_records(_records(), good)
    path = tmp_path / "metrics.jsonl"
    path.write_text(json.dumps(record_to_row(_records()[1])) + "\n")
    assert main(["compare", str(good), str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fedqdp compare: error: {path}: unsupported metrics format '.jsonl', use .csv"
    ]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_has_no_format_option(tmp_path, capsys, command):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    args = [command, "--config", str(cfg), "--out", str(out), "--format", "csv"]
    if command == "sweep":
        args += ["--grid", json.dumps({"seed": [0]})]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--format" not in capsys.readouterr().out


def test_cli_sweep(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(cfg), "--grid", json.dumps({"seed": [0, 1]}),
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "cell_000" / "metrics.csv").exists()
    assert (out / "cell_001" / "metrics.csv").exists()
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "cell,seed,total_bits,best_test_acc,best_round"
    assert len(summary) == 3


def test_null_sections_mean_omitted_for_model_and_dp_only(tmp_path, capsys):
    assert parse_config_dict({**SMALL_RAW, "model": None}) == parse_config_dict(SMALL_RAW)
    assert parse_config_dict({**SMALL_RAW, "dp": None}).dp is None
    for section in ("schedule", "data", "partition"):
        with pytest.raises(ConfigError, match=f"^{section} must be an object, got NoneType$"):
            parse_config_dict({**SMALL_RAW, section: None})
    # so a sweep over dp runs one cell without DP and one with it
    cfg = _write_config(tmp_path)
    dp = {"epsilon": 100.0, "xi": 1.0}
    grid = json.dumps({"dp": [None, dp]})
    assert main(["sweep", "--config", str(cfg), "--grid", grid, "--out", str(tmp_path / "s")]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0
    cells = [tmp_path / "s" / "cell_000", tmp_path / "s" / "cell_001"]
    for cell, raw_dp in zip(cells, (None, dp)):
        assert json.loads((cell / "manifest.json").read_text())["config"]["dp"] == raw_dp
    plain = (tmp_path / "plain" / "metrics.csv").read_bytes()
    assert (cells[0] / "metrics.csv").read_bytes() == plain
    assert (cells[1] / "metrics.csv").read_bytes() != plain


def test_cli_parses_each_config_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting_parse(raw):
        calls.append(raw)
        return parse_config_dict(raw)

    monkeypatch.setattr("fedqdp.cli.parse_config_dict", counting_parse)
    cfg = _write_config(tmp_path)
    grid = json.dumps({"seed": [0, 1]})
    assert main(["sweep", "--config", str(cfg), "--grid", grid, "--out", str(tmp_path / "s")]) == 0
    assert len(calls) == 2
    calls.clear()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert len(calls) == 1


def test_cli_sweep_long_inline_grid(tmp_path, capsys):
    # Inline JSON longer than the 255-byte file name limit must not be
    # mistaken for a path that the OS refuses to look up.
    arg = json.dumps({"seed": list(range(100))})
    assert len(arg.encode()) > 255
    cfg = _write_config(tmp_path)
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg), "--grid", arg, "--out", str(out)])
    assert code == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 101
    assert summary[-1].startswith("cell_099,99,")


def test_cli_sweep_invalid_cell_runs_nothing(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sweep"
    grid = json.dumps({"per_round": [2, 100], "rounds": [3]})
    code = main(["sweep", "--config", str(cfg), "--grid", grid, "--out", str(out)])
    assert code == 2
    assert "'per_round': 100" in capsys.readouterr().err
    # no cell_* directory and no summary.csv: nothing was created at all
    assert not out.exists()
    # a grid that is not a JSON object is refused before anything is made
    for grid, message in (("{not json", "grid is neither a file nor valid JSON"),
                          ("[1, 2]", "grid must be a JSON object")):
        assert main(["sweep", "--config", str(cfg), "--grid", grid, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    # an explicit model that does not fit a cell's blobs is refused too,
    # not found when that cell runs
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(SMALL_RAW, model={"kind": "logistic", "input_dim": 2,
                                                      "num_classes": 3})))
    grid = json.dumps({"data.input_dim": [2, 3]})
    assert main(["sweep", "--config", str(path), "--grid", grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "model input_dim 2 != data input_dim 3" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_sweep_failed_cell_writes_no_summary(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path)
    grid = json.dumps({"seed": [0, 1, 2]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--grid", grid, "--out", str(out)]) == 0
    complete = (out / "summary.csv").read_bytes()

    calls = []

    def run_failing_second_cell(cfg, round_hook=None):
        calls.append(cfg.seed)
        if len(calls) == 2:
            raise ValueError("injected failure")
        return run_experiment(cfg, round_hook)

    monkeypatch.setattr("fedqdp.cli.run_experiment", run_failing_second_cell)
    fresh = tmp_path / "fresh"
    code = main(["sweep", "--config", str(cfg), "--grid", grid, "--out", str(fresh)])
    assert code == 2
    assert "injected failure" in capsys.readouterr().err
    assert (fresh / "cell_000" / "metrics.csv").exists()
    assert sorted(p.name for p in fresh.iterdir()) == ["cell_000", "cell_001"]
    # the complete summary of an earlier sweep into the same directory stays
    calls.clear()
    assert main(["sweep", "--config", str(cfg), "--grid", grid, "--out", str(out)]) == 2
    assert (out / "summary.csv").read_bytes() == complete
    assert not (out / ".summary.csv.tmp").exists()


def test_cli_bad_config_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    # a non-object section, a number beyond the float range or a path that
    # is not a string (open(0) would read stdin) is reported like any other
    # config error
    idx_path_int = {"data": {"kind": "idx", "train_images": 0, "train_labels": "b",
                             "test_images": "c", "test_labels": "d"},
                    "model": {"kind": "logistic", "input_dim": 4, "num_classes": 2}}
    for bad in ({"clients": 2, "per_round": 5}, {"data": 5}, {"schedule": [1]},
                {"data": {"spread": 10**400}},
                {"data": {"train_per_class": 10**30}, "rounds": 1}, idx_path_int):
        path.write_text(json.dumps(bad))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err
    assert "data.train_images" in err


def test_cli_run_survives_an_overflowing_sensitivity_power(tmp_path):
    """Many epochs at a large eta take (1 + lambda eta)^E past every float;
    the sensitivity is then the saturated bound, not an OverflowError."""
    raw = {
        "rounds": 1, "clients": 2, "per_round": 1, "local_epochs": 400,
        "batch_size": 8, "eta": 1.0, "dp": {"epsilon": 1.0, "xi": 1.0},
        "schedule": {"mode": "static", "bits": 8},
        "data": {"kind": "blobs", "num_classes": 3, "input_dim": 2,
                 "train_per_class": 10, "spread": 10.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(read_records(tmp_path / "out" / "metrics.csv")) == 1


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("dp.xi", 1e308, "xi=1e+308"),
        ("eta", 1e308, "eta=1e+308"),
        ("dp.epsilon", 5e-324, "epsilon=5e-324"),
        ("data.spread", 1e308, "spread=1e+308"),
    ],
)
def test_cli_run_refuses_an_overflowing_input_by_name(tmp_path, capsys, key, value, named):
    # valid by the range checks, but past float64 once multiplied out; any
    # numpy RuntimeWarning on the way is an error under this suite's filters
    configs = Path(__file__).resolve().parents[1] / "configs"
    raw = load_config_dict(configs / "blobs_dp_dynamic.json")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(apply_override(dict(raw, rounds=3), key, value)))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "overflows" in err and named in err
    assert "Warning" not in err and "Traceback" not in err


def test_console_script_names_a_callable_in_the_cli():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    target = tomllib.loads(pyproject)["project"]["scripts"]["fedqdp"]
    assert target == "fedqdp.cli:main"
    module, _, name = target.partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_cli_out_env_default(tmp_path):
    cfg = _write_config(tmp_path)
    env_out = tmp_path / "envout"
    # The child runs in tmp_path, where a relative PYTHONPATH such as "src"
    # points at nothing; put the directory holding the fedqdp this process
    # imported first, so the child runs the same package.
    package_root = str(Path(fedqdp.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        FEDQDP_OUT=str(env_out),
        PYTHONPATH=os.pathsep.join([package_root, inherited]) if inherited else package_root,
    )
    proc = subprocess.run(
        [sys.executable, "-m", "fedqdp.cli", "run", "--config", str(cfg)],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert (env_out / "metrics.csv").exists()
    assert not (tmp_path / "runs").exists()
