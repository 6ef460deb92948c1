"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

assert run.use_checkout_sources()

SHORT_ROUNDS = 20  # two blocks of eval_every rounds, enough for every statistic


def _benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.workload_names())
@pytest.mark.parametrize("trace", [False, True])
def test_short_run_passes_checks_and_reports_every_metric(workload, trace, tmp_path):
    result = run.bench(workload, seed=3, seconds=0.01, trace=trace,
                       rounds=SHORT_ROUNDS, results=tmp_path)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 2
    listed = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric, spec in zip(result["metrics"].values(), listed):
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in _benchmark_json()["workloads"]] == run.workload_names()


def _short_rows(tmp_path, workload="mlp_dp"):
    raw = run.load_workload(workload, seed=0, rounds=SHORT_ROUNDS)
    result = run.full_run(raw, tmp_path)
    return raw, checks.parse_metrics_csv(result.metrics_csv)


def test_bit_accounting_check_rejects_a_corrupted_row(tmp_path):
    raw, rows = _short_rows(tmp_path)
    assert checks.check_rows(rows, raw) == []
    for key, delta in (("downlink_bits", 1), ("uplink_bits", 1),
                       ("uplink_bits", sum(checks.tensor_sizes(raw))), ("mean_bits", 0.5)):
        corrupted = [dict(r) for r in rows]
        corrupted[7][key] += delta
        failures = checks.check_rows(corrupted, raw)
        assert len(failures) == 1 and failures[0].startswith("t=7:"), (key, failures)


def test_accuracy_check_requires_twice_chance(tmp_path):
    raw, rows = _short_rows(tmp_path)
    rows[-1]["test_acc"] = 2.0 / raw["data"]["num_classes"]
    assert any("twice chance" in f for f in checks.check_rows(rows, raw))


def test_broadcast_width_oracle_hits_both_endpoints():
    schedule = {"mode": "cosine", "b_max": 16, "b_min": 4}
    assert checks.broadcast_width(schedule, 0, 200) == 16
    assert checks.broadcast_width(schedule, 199, 200) == 4
    assert checks.broadcast_width({"mode": "static", "bits": 12}, 5, 200) == 12


def test_tracer_marks_missing_names_absent_and_keeps_outputs(tmp_path):
    from fedqdp import federation, models

    raw = run.load_workload("mlp_dp", seed=0, rounds=SHORT_ROUNDS)
    untraced = run.full_run(raw, tmp_path / "untraced")
    targets = tracer.TARGETS + (
        ("fedqdp.deleted_module", "round_clip", "deleted_module.round_clip"),
        ("fedqdp.privacy", "BatchTrace.deleted_method", "privacy.BatchTrace.deleted_method"),
        ("fedqdp.privacy", "DeletedClass.record", "privacy.DeletedClass.record"),
    )
    with tracer.Tracer(targets) as t:
        traced = run.full_run(raw, tmp_path / "traced", t)
    assert federation.loss_and_grad is models.loss_and_grad
    assert t.absent == {"deleted_module.round_clip", "privacy.BatchTrace.deleted_method",
                        "privacy.DeletedClass.record"}
    assert checks.digest(traced.metrics_csv) == checks.digest(untraced.metrics_csv)
    summary = t.summary()
    assert summary["federation.run_experiment.calls"] == 1
    assert summary["quantize.quantize_params.broadcast.calls"] == SHORT_ROUNDS
    assert summary["quantize.quantize_params.upload.calls"] == SHORT_ROUNDS * raw["per_round"]
    assert summary["privacy.trace_bytes_peak"] > 0


def test_self_time_excludes_child_spans():
    t = tracer.Tracer(())
    t.spans = [
        ["federation.client_update", 0.0, 10.0, -1, 0],
        ["models.loss_and_grad", 1.0, 4.0, 0, 0],
        ["models.sgd_step", 5.0, 6.0, 0, 0],
    ]
    summary = t.summary()
    assert summary["federation.client_update.self_s"] == pytest.approx(6.0)
    assert summary["models.self_s"] == pytest.approx(4.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp_dp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
