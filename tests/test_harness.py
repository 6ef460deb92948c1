"""Config parsing, metrics export, comparison, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedqdp
from fedqdp.cli import main
from fedqdp.config import (
    ConfigError,
    apply_override,
    grid_cells,
    parse_config,
    parse_config_dict,
)
from fedqdp.federation import BlobsConfig, ExperimentConfig, IdxConfig, RoundRecord, run_experiment
from fedqdp.metrics import (
    best_accuracy,
    compare_runs,
    read_manifest,
    read_records,
    record_to_row,
    total_bits,
    write_records,
)

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
    # JSON integers are numbers too
    cfg = parse_config_dict({"eta": 1, "dp": {"epsilon": 2, "xi": 3}})
    assert cfg.eta == 1.0 and cfg.dp.epsilon == 2 and cfg.dp.xi == 3


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
    cfg = parse_config(path)
    assert cfg.rounds == 4 and cfg.num_clients == 6
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(bad)


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


def test_jsonl_roundtrip_identical(tmp_path):
    path = tmp_path / "m.jsonl"
    write_records(_records(), path)
    rows = read_records(path)
    assert rows == [record_to_row(r) for r in _records()]
    # write -> read -> write is byte-stable
    second = tmp_path / "m2.jsonl"
    with open(second, "w") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")
    assert second.read_bytes() == path.read_bytes()


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
    manifest = read_manifest(out / "manifest.json")
    assert manifest.seed == 0
    assert manifest.config["rounds"] == 4
    assert manifest.outputs == ("metrics.csv",)
    assert manifest.numpy_version == np.__version__
    rows = read_records(metrics)
    assert len(rows) == 4


def test_cli_seed_override_changes_results(tmp_path):
    cfg = _write_config(tmp_path)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "5"])
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a != b
    manifest = read_manifest(tmp_path / "b" / "manifest.json")
    assert manifest.seed == 5


def test_cli_rerun_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()


def test_cli_jsonl_format(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out), "--format", "jsonl"])
    rows = read_records(out / "metrics.jsonl")
    assert len(rows) == 4


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
