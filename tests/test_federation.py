"""Protocol orchestration: selection, client updates, aggregation, accounting."""

import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from test_data import label_histogram
from test_golden import MLP_CONFIGS

import fedqdp
from fedqdp import federation
from fedqdp import rng as streams
from fedqdp.config import parse_config_dict
from fedqdp.data import LabeledDataset
from fedqdp.federation import (
    EVAL_ROWS,
    BlobsConfig,
    ClientData,
    ClientUpdate,
    ExperimentConfig,
    IdxConfig,
    PartitionConfig,
    _row_blocks,
    aggregate,
    client_update,
    comm_cost,
    evaluate,
    make_datasets,
    partition_dataset,
    run_experiment,
    select_clients,
)
from fedqdp.models import (
    ModelSpec,
    ParamSet,
    ShapeMismatchError,
    _logits,
    init_params,
    loss_and_grad,
    predict,
    sgd_step,
)
from fedqdp.privacy import DpConfig
from fedqdp.quantize import dequantize_params, quantize_params
from fedqdp.schedule import ScheduleConfig, schedule_bits

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
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, 2))
    labels = rng.integers(0, 3, size=n).astype(np.int64)
    counts = np.bincount(labels, minlength=3).astype(np.int64)
    return ClientData(
        client_id=client_id,
        dataset=LabeledDataset(features, labels, 3),
        indices=np.arange(n),
        label_counts=counts,
    )


# --- costs -------------------------------------------------------------------


def test_comm_cost_formula():
    params = ParamSet({"w": np.ones((10, 100)), "b": np.ones(10)})
    q = quantize_params(params, 8, np.random.default_rng(0))
    assert comm_cost(q) == 1010 * 8 + 2 * 40
    q32 = quantize_params(params, 32, np.random.default_rng(0))
    assert comm_cost(q32) == 1010 * 32 + 2 * 40


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


# --- client update -----------------------------------------------------------


def test_client_update_bits_and_size():
    cfg = make_config(rounds=10, mode="static", bits=8)
    client = make_client(n=20)
    q_global = quantize_params(init_params(MODEL, np.random.default_rng(0)), 32, np.random.default_rng(1))
    update = client_update(dequantize_params(q_global), client, cfg, t=0, max_dataset_size=30)
    assert update.dataset_size == 20
    assert update.params.bits == 8


def test_client_update_deterministic():
    cfg = make_config(rounds=10)
    client = make_client(n=20)
    q_global = quantize_params(init_params(MODEL, np.random.default_rng(0)), 32, np.random.default_rng(1))
    a = client_update(dequantize_params(q_global), client, cfg, t=3, max_dataset_size=30)
    b = client_update(dequantize_params(q_global), client, cfg, t=3, max_dataset_size=30)
    assert np.array_equal(a.params.codes, b.params.codes)
    assert np.array_equal(a.params.scales, b.params.scales)
    c = client_update(dequantize_params(q_global), client, cfg, t=4, max_dataset_size=30)
    assert not np.array_equal(a.params.codes, c.params.codes)


def test_client_update_trains_on_local_data():
    cfg = make_config(rounds=10, mode="static", bits=32, local_epochs=5)
    client = make_client(n=40)
    params0 = init_params(MODEL, np.random.default_rng(0))
    q_global = quantize_params(params0, 32, np.random.default_rng(1))
    update = client_update(dequantize_params(q_global), client, cfg, t=0, max_dataset_size=40)
    trained = dequantize_params(update.params)
    x, y = client.dataset.features[client.indices], client.dataset.labels[client.indices]
    loss_before, _ = loss_and_grad(MODEL, params0, x, y)
    loss_after, _ = loss_and_grad(MODEL, trained, x, y)
    assert loss_after < loss_before


def test_client_update_tiny_epsilon_noise_dominates():
    client = make_client(n=20)
    params0 = init_params(MODEL, np.random.default_rng(0))
    q_global = quantize_params(params0, 32, np.random.default_rng(1))

    def run(eps):
        cfg = make_config(rounds=10, mode="static", bits=32, dp=DpConfig(epsilon=eps, xi=100.0))
        return dequantize_params(client_update(dequantize_params(q_global), client, cfg, 0, 20).params)

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
    plain = dequantize_params(client_update(dequantize_params(q_global), client, cfg_plain, 0, 20).params)
    noisy = dequantize_params(client_update(dequantize_params(q_global), client, cfg_dp, 0, 20).params)
    assert any(not np.array_equal(plain[k], noisy[k]) for k in plain.layout.names)


# --- aggregation -------------------------------------------------------------


def _constant_update(value, n, bits=32):
    """Constant tensors hit the scale exactly, so dequantization is exact."""
    params = ParamSet({"w": np.full((2, 2), value)})
    q = quantize_params(params, bits, np.random.default_rng(0))
    return ClientUpdate(params=q, dataset_size=n)


def test_aggregate_weights_by_dataset_size():
    updates = [_constant_update(1.0, 1), _constant_update(3.0, 3)]
    out = aggregate(updates)
    assert np.allclose(out["w"], 2.5, rtol=1e-15)  # (1*1 + 3*3) / 4


def test_aggregate_single_update_passthrough():
    update = _constant_update(0.75, 5)
    out = aggregate([update])
    assert np.allclose(out["w"], 0.75, rtol=1e-15)


def test_aggregate_permutation_invariant_to_ulp():
    rng = np.random.default_rng(0)
    updates = []
    for n in (3, 7, 11, 2, 9):
        params = ParamSet({"w": rng.standard_normal((4, 3))})
        updates.append(ClientUpdate(quantize_params(params, 32, np.random.default_rng(n)), n))
    a = aggregate(updates)
    b = aggregate(updates[::-1])
    assert np.allclose(a["w"], b["w"], rtol=1e-13, atol=1e-300)


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([])
    other = ParamSet({"v": np.ones((2, 2))})
    mixed = [_constant_update(1.0, 1),
             ClientUpdate(quantize_params(other, 8, np.random.default_rng(0)), 1)]
    with pytest.raises(ShapeMismatchError, match="differ in tensor names or shapes"):
        aggregate(mixed)


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
    parts = partition_dataset(train, cfg)
    params0 = init_params(cfg.model, streams.substream(cfg.seed, streams.INIT))
    b0 = schedule_bits(cfg.schedule, 0, cfg.rounds, nu=1.0)
    q_global = quantize_params(params0, b0, streams.substream(cfg.seed, streams.SERVER_ROUNDING, 0))
    expected_down = cfg.clients_per_round * comm_cost(q_global)
    assert records[0].downlink_bits == expected_down

    ids = select_clients(cfg.num_clients, cfg.clients_per_round, 0, cfg.seed)
    assert records[0].selected == tuple(int(i) for i in ids)
    n_max = max(parts[i].size for i in ids)
    expected_up = 0
    for i in ids:
        client = ClientData(
            client_id=int(i),
            dataset=train,
            indices=parts[i],
            label_counts=label_histogram(train, parts[i]),
        )
        update = client_update(dequantize_params(q_global), client, cfg, 0, n_max)
        expected_up += comm_cost(update.params)
    assert records[0].uplink_bits == expected_up


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


def test_row_blocks_merge_the_short_tail():
    for n in (1, 255, 256, 500, 511, 512, 767, 768, 1023, 1024, 1535, 1536, 4000, 5000):
        blocks = _row_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [b.stop - b.start for b in blocks]
        if n < 2 * EVAL_ROWS:
            assert sizes == [n]
        else:
            assert all(EVAL_ROWS <= k < 2 * EVAL_ROWS for k in sizes)


def test_eval_rows_keeps_the_bit_identical_floor():
    # Blocks of 128 rows or more gave the one-pass logits bit for bit on
    # trained weights; 64-row blocks did not (README, "Memory").
    assert EVAL_ROWS >= 128


def _assert_blocked_equals_one_pass(spec, params, data):
    expected = float(np.mean(predict(spec, params, data.features) == data.labels))
    assert evaluate(spec, params, data) == expected
    blocks = [_logits(spec, params, data.features[rows])[0] for rows in _row_blocks(len(data))]
    assert np.array_equal(np.concatenate(blocks), _logits(spec, params, data.features)[0])


@pytest.mark.parametrize("hidden", [0, 128, 256])
def test_blocked_evaluation_equals_one_pass(hidden):
    # Blocked logits equal the one-pass logits bit for bit, so a BLAS build
    # that splits a taller matmul differently fails here, not in a digest.
    spec = (ModelSpec("mlp", input_dim=64, num_classes=10, hidden_dim=hidden) if hidden
            else ModelSpec("logistic", input_dim=64, num_classes=10))
    params = init_params(spec, np.random.default_rng(hidden))
    params = ParamSet.from_vector(params.layout, params.vector * 3.0)  # sharper logits
    for n in (1, 255, 511, 767, 1023, 1024, 1535, 4000, 5000):
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
    spec = ModelSpec("mlp", input_dim=64, num_classes=10, hidden_dim=256)
    params = init_params(spec, np.random.default_rng(1))
    data = _eval_set(4000)
    bound = 2 * EVAL_ROWS * spec.hidden_dim * 8 + 2**20
    tracemalloc.start()
    try:
        evaluate(spec, params, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB >= bound {bound / 2**20:.2f} MiB"


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


@pytest.mark.parametrize("part", [PART, PartitionConfig(scheme="power_law", exponent=1.2)])
def test_client_label_counts_match_each_shard(part, monkeypatch):
    built = []

    def recording_client_data(**kwargs):
        built.append(ClientData(**kwargs))
        return built[-1]

    monkeypatch.setattr(federation, "ClientData", recording_client_data)
    cfg = make_config(rounds=0, partition=part)
    run_experiment(cfg)
    assert [c.client_id for c in built] == list(range(cfg.num_clients))
    train, _ = make_datasets(cfg.data, cfg.seed)
    for client in built:
        expected = label_histogram(train, client.indices)
        assert client.label_counts.dtype == expected.dtype
        assert np.array_equal(client.label_counts, expected)


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
    # activation of at most 2 * EVAL_ROWS rows.
    cfg = parse_config_dict(dict(MLP_CONFIGS[name], rounds=10))
    train, test = make_datasets(cfg.data, cfg.seed)
    bound = (train.features.nbytes + test.features.nbytes
             + 2 * EVAL_ROWS * cfg.model.hidden_dim * 8 + 4 * 2**20)
    del train, test
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > bound {bound / 2**20:.1f} MiB"
