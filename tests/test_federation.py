"""Protocol orchestration: selection, client updates, aggregation, accounting."""

import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from test_data import label_histogram
from test_golden import CONFIGS, MLP_CONFIGS

import fedqdp
from fedqdp import federation
from fedqdp import rng as streams
from fedqdp.config import parse_config_dict
from fedqdp.data import IdxParseError, LabeledDataset, synthetic_blobs
from fedqdp.federation import (
    EVAL_ROWS,
    BlobsConfig,
    ExperimentConfig,
    IdxConfig,
    PartitionConfig,
    aggregate,
    client_update,
    comm_cost,
    evaluate,
    local_train,
    make_datasets,
    partition_dataset,
    release,
    run_experiment,
    select_clients,
)
from fedqdp.models import (
    ModelSpec,
    ParamSet,
    ShapeMismatchError,
    init_params,
    l1_distance,
    loss_and_grad,
    predict,
    sgd_step,
)
from fedqdp.privacy import DpConfig, sensitivity
from fedqdp.quantize import dequantize_params, quantize_params
from fedqdp.schedule import ScheduleConfig, client_importance, schedule_bits

MODEL = ModelSpec("logistic", input_dim=2, num_classes=3)
DATA = BlobsConfig(num_classes=3, input_dim=2, train_per_class=60, test_per_class=20, spread=0.25)
PART = PartitionConfig(scheme="dirichlet", alpha=0.5)


def make_config(rounds=10, mode="static", bits=32, dp=None, seed=0, **kw):
    schedule = ScheduleConfig(mode=mode, bits=bits, b_max=32, b_min=8)
    defaults = dict(
        model=MODEL, schedule=schedule, data=DATA, partition=PART, dp=dp,
        rounds=rounds, num_clients=8, clients_per_round=3, local_epochs=2,
        batch_size=16, eta=0.1, seed=seed, eval_every=5,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def make_client(seed=0, n=20, client_id=0):
    """(train, shard, client_id) for a client that holds all n rows."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, 2))
    labels = rng.integers(0, 3, size=n).astype(np.int64)
    return LabeledDataset(features, labels, 3), np.arange(n), client_id


# --- costs -------------------------------------------------------------------


def test_comm_cost_formula():
    layout = ParamSet({"w": np.ones((10, 100)), "b": np.ones(10)}).layout
    assert comm_cost(layout, 8) == 1010 * 8 + 2 * 40
    assert comm_cost(layout, 32) == 1010 * 32 + 2 * 40
    for bad in (1, 33, 8.5):
        with pytest.raises(ValueError, match="bits must be an integer"):
            comm_cost(layout, bad)


def test_train_round_refuses_an_upload_at_another_width(monkeypatch):
    # a client that quantizes one bit wider than it was told is caught
    # before the round is priced
    honest = federation.client_update

    def wider(global_params, train, shard, client_id, cfg, t, bits):
        return honest(global_params, train, shard, client_id, cfg, t, bits + 1)

    monkeypatch.setattr(federation, "client_update", wider)
    with pytest.raises(ValueError, match="uploaded at 9 bits, not the 8 decided"):
        run_experiment(make_config(rounds=1, mode="static", bits=8))


# --- selection ---------------------------------------------------------------


def test_select_clients_sorted_distinct_in_range():
    for t in range(50):
        ids = select_clients(20, 5, t, seed=3)
        assert ids.shape == (5,)
        assert np.array_equal(ids, np.sort(ids))
        assert np.unique(ids).size == 5
        assert ids.min() >= 0 and ids.max() < 20


def test_select_clients_deterministic_in_round_and_seed():
    assert np.array_equal(select_clients(20, 5, 7, 1), select_clients(20, 5, 7, 1))
    assert not np.array_equal(select_clients(20, 5, 7, 1), select_clients(20, 5, 8, 1))


def test_select_clients_roughly_uniform():
    counts = np.zeros(10)
    rounds = 10_000
    for t in range(rounds):
        counts[select_clients(10, 2, t, seed=0)] += 1
    expected = rounds * 2 / 10
    # 4 sigma of Binomial(1e4, 0.2)
    assert np.max(np.abs(counts - expected)) < 4 * np.sqrt(rounds * 0.2 * 0.8)


# --- broadcast width ---------------------------------------------------------


def test_broadcast_bits_static_and_dynamic():
    """The broadcast width read back from each round's downlink: 3 messages
    of 9 codes (2x3 logistic weights, 3 biases) at b bits plus 2 * 40
    header bits."""

    def widths(mode):
        records = run_experiment(make_config(rounds=10, mode=mode, bits=8))
        return [(r.downlink_bits // 3 - 80) / 9 for r in records]

    assert widths("static") == [8] * 10
    cosine = widths("cosine")
    assert cosine[0] == 32 and cosine[-1] == 8
    # the downlink ignores importance even in dynamic mode
    assert widths("dynamic") == cosine


def test_uploads_go_at_the_broadcast_width_outside_dynamic_mode(monkeypatch):
    """Static and cosine rounds work out one width and hand it to every
    client; only dynamic rounds work out a width per upload."""
    calls = []

    def counting_schedule_bits(*args, **kwargs):
        calls.append(args)
        return schedule_bits(*args, **kwargs)

    monkeypatch.setattr(federation, "schedule_bits", counting_schedule_bits)
    for mode in ("static", "cosine"):
        calls.clear()
        for r in run_experiment(make_config(rounds=10, mode=mode, bits=8)):
            b = (r.downlink_bits // 3 - 80) // 9
            assert r.uplink_bits == 3 * (9 * b + 80)
            assert r.mean_bits == b
        assert len(calls) == 10
    calls.clear()
    run_experiment(make_config(rounds=10, mode="dynamic"))
    assert len(calls) == 10 * (1 + 3)


# --- client update -----------------------------------------------------------


def test_client_update_bits_and_size():
    # the upload goes at exactly the width handed in, whatever the schedule
    # would give: 9 codes (2x3 weights, 3 biases) and two 40-bit headers
    client = make_client(n=20)
    q_global = quantize_params(init_params(MODEL, np.random.default_rng(0)), 32, np.random.default_rng(1))
    global_params = dequantize_params(q_global)
    for mode in ("static", "cosine", "dynamic"):
        cfg = make_config(rounds=10, mode=mode, bits=8)
        for bits in range(2, 33):
            upload = client_update(global_params, *client, cfg, 5, bits)
            assert upload.bits == bits
            assert comm_cost(upload.layout, upload.bits) == 9 * bits + 2 * 40


def test_client_update_deterministic():
    cfg = make_config(rounds=10)
    client = make_client(n=20)
    q_global = quantize_params(init_params(MODEL, np.random.default_rng(0)), 32, np.random.default_rng(1))
    a = client_update(dequantize_params(q_global), *client, cfg, t=3, bits=32)
    b = client_update(dequantize_params(q_global), *client, cfg, t=3, bits=32)
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.scales, b.scales)
    c = client_update(dequantize_params(q_global), *client, cfg, t=4, bits=32)
    assert not np.array_equal(a.codes, c.codes)


def test_client_update_trains_on_local_data():
    cfg = make_config(rounds=10, mode="static", bits=32, local_epochs=5)
    train, shard, client_id = make_client(n=40)
    params0 = init_params(MODEL, np.random.default_rng(0))
    q_global = quantize_params(params0, 32, np.random.default_rng(1))
    trained = dequantize_params(
        client_update(dequantize_params(q_global), train, shard, client_id, cfg, t=0, bits=32))
    x, y = train.features[shard], train.labels[shard]
    loss_before, _ = loss_and_grad(MODEL, params0, x, y)
    loss_after, _ = loss_and_grad(MODEL, trained, x, y)
    assert loss_after < loss_before


def test_client_update_tiny_epsilon_noise_dominates():
    client = make_client(n=20)
    params0 = init_params(MODEL, np.random.default_rng(0))
    q_global = quantize_params(params0, 32, np.random.default_rng(1))

    def run(eps):
        cfg = make_config(rounds=10, mode="static", bits=32, dp=DpConfig(epsilon=eps, xi=100.0))
        return dequantize_params(client_update(dequantize_params(q_global), *client, cfg, 0, 32))

    nearly_noiseless = run(1e30)
    noisy = run(1e-6)
    update_size = sum(np.abs(nearly_noiseless[k] - params0[k]).sum() for k in params0.layout.names)
    disturbance = sum(np.abs(noisy[k] - nearly_noiseless[k]).sum() for k in params0.layout.names)
    assert disturbance > 10 * update_size


def test_client_update_dp_changes_result():
    cfg_plain = make_config(rounds=10, mode="static", bits=32)
    cfg_dp = make_config(rounds=10, mode="static", bits=32, dp=DpConfig(epsilon=10.0, xi=100.0))
    client = make_client(n=20)
    q_global = quantize_params(init_params(MODEL, np.random.default_rng(0)), 32, np.random.default_rng(1))
    plain = dequantize_params(client_update(dequantize_params(q_global), *client, cfg_plain, 0, 32))
    noisy = dequantize_params(client_update(dequantize_params(q_global), *client, cfg_dp, 0, 32))
    assert any(not np.array_equal(plain[k], noisy[k]) for k in plain.layout.names)


# --- client stages -----------------------------------------------------------

# SHA-256 of codes.tobytes() + scales.tobytes() of a 12-bit upload by client 5
# (79 samples, two batches) of configs/blobs_dp_dynamic.json at t = 3, from
# the broadcast of the initial parameters, with and without DP. Pinned from
# client_update before its body was split into local_train and release.
PINNED_UPLOADS = {
    "dp": "faa0c8dbe39bd1344ec6b32cfc5d327d14ac394b775aec013a2b361ae599a7e0",
    "no_dp": "26cb043022964de300334f43e8b0ccf6dad90a2024d340d1b2b878397c70d243",
}


def _upload_digest(q):
    return hashlib.sha256(q.codes.tobytes() + q.scales.tobytes()).hexdigest()


def test_stages_reproduce_the_pinned_client_update_upload():
    dp_cfg = parse_config_dict(json.loads((CONFIGS / "blobs_dp_dynamic.json").read_text()))
    train, _ = make_datasets(dp_cfg.data, dp_cfg.seed)
    shards = partition_dataset(train, dp_cfg.partition, dp_cfg.num_clients, dp_cfg.seed)
    client, t, bits = 5, 3, 12
    shard = shards[client]
    assert shard.size > dp_cfg.batch_size
    b_t = schedule_bits(dp_cfg.schedule, t, dp_cfg.rounds)
    params0 = init_params(dp_cfg.model, streams.substream(dp_cfg.seed, streams.INIT))
    global_params = dequantize_params(
        quantize_params(params0, b_t, streams.substream(dp_cfg.seed, streams.SERVER_ROUNDING, t)))
    for key, cfg in (("dp", dp_cfg), ("no_dp", replace(dp_cfg, dp=None))):
        whole = client_update(global_params, train, shard, client, cfg, t, bits)
        trained, lambda_i = local_train(global_params, train, shard, client, cfg, t)
        assert (lambda_i is None) == (cfg.dp is None)
        staged = [release(trained, lambda_i, shard.size, client, cfg, t, bits) for _ in range(2)]
        for q in (whole, *staged):
            assert (_upload_digest(q), q.bits) == (PINNED_UPLOADS[key], bits)


def test_known_defect_one_sample_moves_local_train_past_its_sensitivity():
    # Known defect (ROADMAP item 2): the reported sensitivity is not a bound.
    # One client holds all 200 rows of 4 blobs in 8 dimensions; in the k-th
    # of 20 neighbouring datasets row k is a copy of row (7k + 3) % 200. The
    # trained parameters move by up to about 0.218 in L1, about 40 times the
    # sensitivity of 0.00534 computed from lambda_i on the original data.
    blobs = BlobsConfig(num_classes=4, input_dim=8, train_per_class=50, spread=0.5)
    data = synthetic_blobs(blobs, 50, np.random.default_rng(0))
    model = ModelSpec("logistic", input_dim=8, num_classes=4)
    cfg = ExperimentConfig(
        model=model, schedule=ScheduleConfig(mode="static", bits=32), data=blobs,
        partition=PART, dp=DpConfig(epsilon=1.0, xi=1.0), num_clients=1, clients_per_round=1,
        local_epochs=5, batch_size=64, eta=0.1,
    )
    params0 = init_params(model, streams.substream(0, streams.INIT))
    shard = np.arange(len(data))
    theta, lambda_i = local_train(params0, data, shard, 0, cfg, 0)
    moves = []
    for k in range(20):
        features, labels = data.features.copy(), data.labels.copy()
        features[k], labels[k] = features[(7 * k + 3) % 200], labels[(7 * k + 3) % 200]
        neighbour, _ = local_train(params0, LabeledDataset(features, labels, 4), shard, 0, cfg, 0)
        moves.append(l1_distance(theta, neighbour))
    bound = sensitivity(lambda_i, cfg.eta, cfg.local_epochs, shard.size, cfg.dp.xi)
    assert max(moves) > 10 * bound


# --- aggregation -------------------------------------------------------------


def _constant_upload(value, bits=32):
    """Constant tensors hit the scale exactly, so dequantization is exact."""
    params = ParamSet({"w": np.full((2, 2), value)})
    return quantize_params(params, bits, np.random.default_rng(0))


def test_aggregate_weights_by_dataset_size():
    out = aggregate([_constant_upload(1.0), _constant_upload(3.0)], [1, 3])
    assert np.allclose(out["w"], 2.5, rtol=1e-15)  # (1*1 + 3*3) / 4


def test_aggregate_single_update_passthrough():
    out = aggregate([_constant_upload(0.75)], [5])
    assert np.allclose(out["w"], 0.75, rtol=1e-15)


def test_aggregate_permutation_invariant_to_ulp():
    rng = np.random.default_rng(0)
    sizes = [3, 7, 11, 2, 9]
    uploads = [quantize_params(ParamSet({"w": rng.standard_normal((4, 3))}), 32,
                               np.random.default_rng(n)) for n in sizes]
    a = aggregate(uploads, sizes)
    b = aggregate(uploads[::-1], sizes[::-1])
    assert np.allclose(a["w"], b["w"], rtol=1e-13, atol=1e-300)


def test_aggregate_rejects_mismatched_sizes_and_layouts():
    with pytest.raises(ValueError):
        aggregate([_constant_upload(1.0), _constant_upload(2.0)], [1])
    other = ParamSet({"v": np.ones((2, 2))})
    mixed = [_constant_upload(1.0), quantize_params(other, 8, np.random.default_rng(0))]
    with pytest.raises(ShapeMismatchError, match="differ in tensor names or shapes"):
        aggregate(mixed, [1, 1])


# --- run_experiment ----------------------------------------------------------


def test_zero_rounds_returns_empty():
    cfg = make_config(rounds=0)
    assert run_experiment(cfg) == []


def test_round_records_fields_and_eval_cadence():
    cfg = make_config(rounds=12, eval_every=5)
    records = run_experiment(cfg)
    assert [r.t for r in records] == list(range(12))
    for r in records:
        assert r.selected == tuple(sorted(r.selected))
        assert len(r.selected) == 3
        assert r.downlink_bits > 0 and r.uplink_bits > 0
        evaluated = ((r.t + 1) % 5 == 0) or (r.t == 11)
        assert (r.test_acc is not None) == evaluated
        assert (r.train_acc is not None) == evaluated
    assert records[-1].test_acc is not None


def test_static_mean_bits_is_exact():
    records = run_experiment(make_config(rounds=4, mode="static", bits=8))
    assert all(r.mean_bits == 8.0 for r in records)


def test_run_deterministic_and_parallel_identical():
    cfg = make_config(rounds=6)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a == b


def test_bit_accounting_reconstructed_from_streams():
    """Round 0 downlink/uplink recomputed via the public stream discipline."""
    cfg = make_config(rounds=3, mode="static", bits=8)
    records = run_experiment(cfg)

    train, _ = make_datasets(cfg.data, cfg.seed)
    parts = partition_dataset(train, cfg.partition, cfg.num_clients, cfg.seed)
    params0 = init_params(cfg.model, streams.substream(cfg.seed, streams.INIT))
    b0 = schedule_bits(cfg.schedule, 0, cfg.rounds)
    q_global = quantize_params(params0, b0, streams.substream(cfg.seed, streams.SERVER_ROUNDING, 0))
    expected_down = cfg.clients_per_round * comm_cost(q_global.layout, q_global.bits)
    assert records[0].downlink_bits == expected_down

    ids = select_clients(cfg.num_clients, cfg.clients_per_round, 0, cfg.seed)
    assert records[0].selected == tuple(int(i) for i in ids)
    expected_up = 0
    for i in ids:
        upload = client_update(dequantize_params(q_global), train, parts[i], int(i), cfg, 0, b0)
        expected_up += comm_cost(upload.layout, upload.bits)
    assert records[0].uplink_bits == expected_up

    # dynamic mode: every upload width from an importance written out by
    # hand, lambda_h * entropy / log2 C + (1 - lambda_h) * n_i / n_max with
    # n_max over the round's clients, damping the cosine term of 32 -> 8
    cfg = make_config(rounds=3, mode="dynamic")
    parts = partition_dataset(train, cfg.partition, cfg.num_clients, cfg.seed)
    lam_h = cfg.schedule.lambda_h
    damped = 0
    for r in run_experiment(cfg):
        n_max = max(parts[i].size for i in r.selected)
        widths = []
        for i in r.selected:
            labels = train.labels[parts[i]]
            p = np.bincount(labels) / labels.size
            p = p[p > 0]
            entropy = float(-(p * np.log2(p)).sum()) / math.log2(3)
            nu = lam_h * entropy + (1.0 - lam_h) * parts[i].size / n_max
            b = 8 + nu * (32 - 8) * (1.0 + math.cos(math.pi * r.t / 2)) / 2
            widths.append(min(32, max(8, math.floor(b + 0.5))))
        # 9 codes (2x3 weights, 3 biases) and two 40-bit tensor headers each
        assert r.uplink_bits == sum(9 * b + 2 * 40 for b in widths)
        assert r.mean_bits == round(sum(widths) / len(widths), 6)
        damped += sum(b < 32 for b in widths) if r.t == 0 else 0
    assert damped > 0


def test_hook_sees_round_progression():
    seen = []
    cfg = make_config(rounds=7)
    records = run_experiment(cfg, round_hook=lambda params, rec: seen.append((params, rec)))
    assert [rec for _, rec in seen] == records
    assert [rec.t for _, rec in seen] == list(range(7))
    # accuracies are filled in before the hook sees an evaluation round
    assert [rec.test_acc is not None for _, rec in seen] == [False] * 4 + [True, False, True]
    for params, _ in seen:
        assert isinstance(params, ParamSet) and params.layout == seen[-1][0].layout
    # the last round's parameters are the ones the final accuracies measure
    train, test = make_datasets(cfg.data, cfg.seed)
    assert round(evaluate(cfg.model, seen[-1][0], test), 6) == records[-1].test_acc
    assert round(evaluate(cfg.model, seen[-1][0], train), 6) == records[-1].train_acc


def test_a_round_replays_from_the_previous_aggregate():
    # a run carries no state across rounds but the aggregated parameters,
    # so round t retrained from round t - 1's aggregate gives round t again
    cfg = replace(parse_config_dict(json.loads((CONFIGS / "blobs_dp_dynamic.json").read_text())),
                  rounds=30)
    seen = []
    run_experiment(cfg, round_hook=lambda params, rec: seen.append((params, rec)))
    train, _ = make_datasets(cfg.data, cfg.seed)
    shards = partition_dataset(train, cfg.partition, cfg.num_clients, cfg.seed)
    for t in (5, 10, 29):
        params, record = federation._train_round(seen[t - 1][0], train, shards, cfg, t)
        assert params.vector.tobytes() == seen[t][0].vector.tobytes()
        assert record == replace(seen[t][1], test_acc=None, train_acc=None)


def test_two_argument_hook_that_reads_only_the_round_index():
    # perfbench/run.py times rounds with a hook of this shape: two
    # positional parameters, of which it reads only record.t
    completed = []

    def hook(state, record):
        completed.append(record.t + 1)

    run_experiment(make_config(rounds=3), round_hook=hook)
    assert completed == [1, 2, 3]


def test_model_dataset_mismatch_rejected(tmp_path):
    # blob dimensions are in the config, so the config itself is refused
    with pytest.raises(ValueError, match="input_dim"):
        make_config(rounds=2, model=ModelSpec("logistic", input_dim=5, num_classes=3))
    with pytest.raises(ValueError, match="classes"):
        make_config(rounds=2, model=ModelSpec("logistic", input_dim=2, num_classes=4))
    # IDX dimensions are known only once the files are read: four 2x2
    # images (input_dim 4) with labels 0, 1, 2 (3 classes)
    images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 4, 2, 2) + bytes(range(16)))
    labels.write_bytes(struct.pack(">II", 0x801, 4) + bytes([0, 1, 2, 0]))
    data = IdxConfig(str(images), str(labels), str(images), str(labels))
    cfg = make_config(rounds=2, data=data, num_clients=2, clients_per_round=1,
                      model=ModelSpec("logistic", input_dim=5, num_classes=3))
    with pytest.raises(ValueError, match="input_dim"):
        run_experiment(cfg)
    cfg = make_config(rounds=2, data=data, num_clients=2, clients_per_round=1,
                      model=ModelSpec("logistic", input_dim=4, num_classes=4))
    with pytest.raises(ValueError, match="classes"):
        run_experiment(cfg)


def test_idx_train_and_test_share_one_class_count(tmp_path):
    # labels 0-2 in one file and 0-1 in the other: both sets get 3 classes,
    # whichever of them saw fewer
    images = tmp_path / "img.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 4, 2, 2) + bytes(range(16)))
    three, two = tmp_path / "three.idx", tmp_path / "two.idx"
    three.write_bytes(struct.pack(">II", 0x801, 4) + bytes([0, 1, 2, 0]))
    two.write_bytes(struct.pack(">II", 0x801, 4) + bytes([0, 1, 1, 0]))
    for train_labels, test_labels in ((three, two), (two, three)):
        data = IdxConfig(str(images), str(train_labels), str(images), str(test_labels))
        train, test = make_datasets(data, seed=0)
        assert train.num_classes == test.num_classes == 3


def test_idx_test_images_of_another_size_are_refused(tmp_path):
    # 2x2 training images and 3x3 test images: refused before round 0,
    # naming the test images file and both sizes
    train_images, test_images = tmp_path / "train.idx", tmp_path / "test.idx"
    train_images.write_bytes(struct.pack(">IIII", 0x803, 4, 2, 2) + bytes(range(16)))
    test_images.write_bytes(struct.pack(">IIII", 0x803, 4, 3, 3) + bytes(range(36)))
    labels = tmp_path / "lab.idx"
    labels.write_bytes(struct.pack(">II", 0x801, 4) + bytes([0, 1, 2, 0]))
    data = IdxConfig(str(train_images), str(labels), str(test_images), str(labels))
    cfg = make_config(rounds=2, data=data, num_clients=2, clients_per_round=1,
                      model=ModelSpec("logistic", input_dim=4, num_classes=3))
    message = re.escape(str(test_images)) + ": images of 9 pixels, but the training images have 4"
    with pytest.raises(IdxParseError, match=message):
        make_datasets(data, seed=0)
    started = []
    with pytest.raises(IdxParseError, match=message):
        run_experiment(cfg, round_hook=lambda params, rec: started.append(rec.t))
    assert started == []


def test_evaluate_tie_and_accuracy():
    train, test = make_datasets(DATA, seed=0)
    params = init_params(MODEL, streams.substream(0, streams.INIT))
    acc = evaluate(MODEL, params, test)
    assert 0.0 <= acc <= 1.0


def _eval_set(n, input_dim=64, num_classes=10, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, input_dim))
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    return LabeledDataset(features, labels, num_classes)


def test_evaluate_walks_plain_blocks(monkeypatch):
    sizes = []

    def recording_predict(spec, params, features):
        sizes.append(len(features))
        return predict(spec, params, features)

    monkeypatch.setattr(federation, "predict", recording_predict)
    params = init_params(MODEL, streams.substream(0, streams.INIT))
    for n in (1, 127, 128, 129, 500, 5000):
        sizes.clear()
        evaluate(MODEL, params, _eval_set(n, input_dim=2, num_classes=3))
        assert sizes == [EVAL_ROWS] * (n // EVAL_ROWS) + [n % EVAL_ROWS] * (n % EVAL_ROWS > 0)


def _assert_blocked_equals_one_pass(spec, params, data):
    expected = float(np.mean(predict(spec, params, data.features) == data.labels))
    assert evaluate(spec, params, data) == expected


@pytest.mark.parametrize("hidden", [0, 128, 256])
def test_blocked_evaluation_equals_one_pass(hidden):
    # Only the accuracy is compared: a BLAS kernel may sum a block's logits
    # in another order than one pass over all rows, but not so as to move
    # a prediction of these weights.
    spec = (ModelSpec("mlp", input_dim=64, num_classes=10, hidden_dim=hidden) if hidden
            else ModelSpec("logistic", input_dim=64, num_classes=10))
    params = init_params(spec, np.random.default_rng(hidden))
    params = ParamSet.from_vector(params.layout, params.vector * 3.0)  # sharper logits
    for n in (1, 127, 128, 129, 255, 500, 511, 767, 1023, 1024, 1535, 4000, 5000):
        _assert_blocked_equals_one_pass(spec, params, _eval_set(n, seed=n))


@pytest.mark.parametrize("name", sorted(MLP_CONFIGS))
def test_blocked_evaluation_equals_one_pass_on_trained_weights(name):
    cfg = parse_config_dict(dict(MLP_CONFIGS[name], rounds=10))
    kept = []
    run_experiment(cfg, round_hook=lambda params, rec: kept.append(params))
    train, test = make_datasets(cfg.data, cfg.seed)
    for params in (kept[0], kept[-1]):
        for data in (train, test):
            _assert_blocked_equals_one_pass(cfg.model, params, data)


def test_evaluate_holds_one_block_activation():
    # One (EVAL_ROWS, hidden) activation, plus 128 KiB for the block's
    # logits, predictions and comparison, at the sizes of wide_comm's test
    # and training sets.
    spec = ModelSpec("mlp", input_dim=64, num_classes=10, hidden_dim=256)
    params = init_params(spec, np.random.default_rng(1))
    bound = EVAL_ROWS * spec.hidden_dim * 8 + 2**17
    for n in (500, 4000):
        data = _eval_set(n)
        tracemalloc.start()
        try:
            evaluate(spec, params, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"{n} rows: peak {peak / 2**20:.2f} MiB >= bound {bound / 2**20:.2f} MiB"


def test_single_client_full_batch_matches_plain_sgd():
    """N=P=1 at 32 bits without DP follows centralized SGD up to
    quantization roundtrip error."""
    cfg = make_config(
        rounds=8, mode="static", bits=32, num_clients=1, clients_per_round=1,
        batch_size=16, local_epochs=3, seed=2,
    )
    captured = []
    run_experiment(cfg, round_hook=lambda params, rec: captured.append(params))

    train, _ = make_datasets(cfg.data, cfg.seed)
    params = init_params(cfg.model, streams.substream(cfg.seed, streams.INIT))
    n = len(train)
    for t in range(cfg.rounds):
        order = streams.substream(cfg.seed, streams.CLIENT_BATCHING, t, 0).permutation(n)
        for _ in range(cfg.local_epochs):
            for s in range(0, n, cfg.batch_size):
                batch = order[s : s + cfg.batch_size]
                _, grad = loss_and_grad(cfg.model, params, train.features[batch], train.labels[batch])
                params = sgd_step(params, grad, cfg.eta)
        for name in params.layout.names:
            assert np.max(np.abs(captured[t][name] - params[name])) < 1e-6


def test_mlp_experiment_runs():
    cfg = make_config(
        rounds=3,
        model=ModelSpec("mlp", input_dim=2, num_classes=3, hidden_dim=8),
    )
    records = run_experiment(cfg)
    assert len(records) == 3


def test_power_law_partition_experiment_runs():
    cfg = make_config(rounds=3, partition=PartitionConfig(scheme="power_law", exponent=1.2))
    records = run_experiment(cfg)
    assert len(records) == 3


@pytest.mark.parametrize("mode", ["static", "cosine", "dynamic"])
def test_only_dynamic_rounds_read_label_histograms(mode, monkeypatch):
    # a dynamic round hands client_importance each selected shard's label
    # histogram, in selection order; static and cosine rounds never call it
    seen = []

    def recording_importance(label_counts, n_max, lambda_h):
        seen.append(label_counts)
        return client_importance(label_counts, n_max, lambda_h)

    monkeypatch.setattr(federation, "client_importance", recording_importance)
    cfg = make_config(rounds=4, mode=mode, partition=PartitionConfig(scheme="power_law"))
    records = run_experiment(cfg)
    if mode != "dynamic":
        assert seen == []
        return
    train, _ = make_datasets(cfg.data, cfg.seed)
    shards = partition_dataset(train, cfg.partition, cfg.num_clients, cfg.seed)
    expected = [label_histogram(train, shards[i]) for r in records for i in r.selected]
    assert len(seen) == len(expected) == cfg.rounds * cfg.clients_per_round
    for got, want in zip(seen, expected):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_run_does_not_import_numpy_ma():
    # numpy's masked-array module costs import time and resident memory,
    # and no output of a run needs it
    code = (
        "import sys\n"
        "from fedqdp.config import parse_config_dict\n"
        "from fedqdp.federation import run_experiment\n"
        "for part in ({'scheme': 'dirichlet', 'alpha': 0.5},\n"
        "             {'scheme': 'power_law', 'exponent': 1.2}):\n"
        "    run_experiment(parse_config_dict({'rounds': 2, 'clients': 6, 'per_round': 2,\n"
        "                                      'partition': part}))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    package_root = str(Path(fedqdp.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([package_root, inherited]) if inherited else package_root)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("name", sorted(MLP_CONFIGS))
def test_run_holds_data_once_and_one_activation(name):
    # Client shards are row indices, the forward pass writes into its matmul
    # output, a round's messages are freed before evaluation, and evaluation
    # runs in row blocks, so a run's peak is the features plus one hidden
    # activation of at most EVAL_ROWS rows, plus 4 MiB for a round's
    # parameters and messages.
    cfg = parse_config_dict(dict(MLP_CONFIGS[name], rounds=10))
    train, test = make_datasets(cfg.data, cfg.seed)
    bound = (train.features.nbytes + test.features.nbytes
             + EVAL_ROWS * cfg.model.hidden_dim * 8 + 4 * 2**20)
    del train, test
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > bound {bound / 2**20:.1f} MiB"


def test_dynamic_upload_widths_reveal_single_label_changes():
    # A dynamic upload's width is a deterministic function of its client's
    # label histogram and of its size relative to the round's largest, and
    # it goes in the clear. Count the uploads of blobs_dp_dynamic's first 20
    # rounds whose width changes when one sample's label moves.
    cfg = parse_config_dict(json.loads((CONFIGS / "blobs_dp_dynamic.json").read_text()))
    train, _ = make_datasets(cfg.data, cfg.seed)
    counts = [np.bincount(train.labels[p], minlength=train.num_classes)
              for p in partition_dataset(train, cfg.partition, cfg.num_clients, cfg.seed)]
    sched, unit = cfg.schedule, np.eye(train.num_classes, dtype=np.int64)

    def width(hist, t, n_max):
        return schedule_bits(sched, t, cfg.rounds, client_importance(hist, n_max, sched.lambda_h))

    revealing = uploads = 0
    for t in range(20):
        ids = select_clients(cfg.num_clients, cfg.clients_per_round, t, cfg.seed)
        n_max = max(int(counts[i].sum()) for i in ids)
        for i in ids:
            bits = width(counts[i], t, n_max)
            moved = [counts[i] - unit[a] + unit[b] for a in np.flatnonzero(counts[i])
                     for b in range(len(unit)) if b != a]
            revealing += any(width(h, t, n_max) != bits for h in moved)
            uploads += 1
    assert (revealing, uploads) == (96, 100)
