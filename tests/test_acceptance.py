"""Acceptance gate: nine end-to-end criteria at pinned tolerances.

Each test prints one `[acceptance N] <name>: PASS/FAIL` line (shown with
pytest -s, or in captured output when a criterion fails) and then asserts.
"""

import json
from time import perf_counter

import numpy as np
from test_data import label_histogram
from test_privacy import exhaustive_e0, oracle_sensitivity

from fedqdp import rng as streams
from fedqdp.cli import main as cli_main
from fedqdp.federation import (
    BlobsConfig,
    ExperimentConfig,
    PartitionConfig,
    make_datasets,
    partition_dataset,
    run_experiment,
    select_clients,
)
from fedqdp.metrics import read_records, write_records
from fedqdp.models import ModelSpec, ParamSet, init_params, loss_and_grad, sgd_step
from fedqdp.privacy import DpConfig, compute_e0, laplace_noise, sensitivity
from fedqdp.quantize import dequantize_params, quantize_params
from fedqdp.schedule import ScheduleConfig, client_importance, schedule_bits


def _report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _total_bits(records):
    return sum(r.downlink_bits + r.uplink_bits for r in records)


# -----------------------------------------------------------------------------


def test_acceptance_1_cosine_communication_ratio():
    started = perf_counter()
    base = dict(
        model=ModelSpec("logistic", input_dim=100, num_classes=10),
        data=BlobsConfig(num_classes=10, input_dim=100, train_per_class=20,
                         test_per_class=5, spread=0.1),
        partition=PartitionConfig(scheme="dirichlet", alpha=0.5),
        rounds=1000, num_clients=50, clients_per_round=5, local_epochs=1,
        batch_size=64, eta=0.1, seed=0, eval_every=1000,
    )
    cosine = run_experiment(ExperimentConfig(
        schedule=ScheduleConfig(mode="cosine", b_max=32, b_min=8), **base))
    static = run_experiment(ExperimentConfig(
        schedule=ScheduleConfig(mode="static", bits=32), **base))
    ratio = _total_bits(cosine) / _total_bits(static)
    elapsed = perf_counter() - started
    ok = abs(ratio - 0.625) <= 0.005 and elapsed < 60
    _report(1, "cosine/static-32 total-bit ratio",
            ok, f"ratio={ratio:.6f}, reduction={100 * (1 - ratio):.2f}%, {elapsed:.1f}s")


def test_acceptance_2_dynamic_never_exceeds_cosine():
    data = BlobsConfig(num_classes=3, input_dim=2, train_per_class=200,
                       test_per_class=50, spread=0.25)
    part = PartitionConfig(scheme="dirichlet", alpha=0.5)
    rounds, n_clients, per_round = 50, 20, 5

    def run(mode, lambda_h, seed):
        cfg = ExperimentConfig(
            model=ModelSpec("logistic", 2, 3),
            schedule=ScheduleConfig(mode=mode, b_max=32, b_min=8, lambda_h=lambda_h),
            data=data, partition=part, rounds=rounds, num_clients=n_clients,
            clients_per_round=per_round, local_epochs=1, batch_size=64,
            eta=0.1, seed=seed, eval_every=rounds,
        )
        return cfg, run_experiment(cfg)

    ok = True
    reductions = []
    for seed in (0, 1, 2):
        for lambda_h in (0.25, 0.5, 0.75, 1.0):
            dyn_cfg, dyn = run("dynamic", lambda_h, seed)
            _, cos = run("cosine", lambda_h, seed)
            dyn_up = sum(r.uplink_bits for r in dyn)
            cos_up = sum(r.uplink_bits for r in cos)
            # strictness applies when some selected client has importance < 1
            train, _ = make_datasets(dyn_cfg.data, seed)
            parts = partition_dataset(train, dyn_cfg.partition, dyn_cfg.num_clients, dyn_cfg.seed)
            sizes = [p.size for p in parts]
            hists = [label_histogram(train, p) for p in parts]
            damped = False
            for t in range(rounds):
                ids = select_clients(n_clients, per_round, t, seed)
                n_max = max(sizes[i] for i in ids)
                for i in ids:
                    nu = client_importance(hists[i], n_max, lambda_h)
                    damped = damped or nu < 1.0
            ok = ok and dyn_up <= cos_up and (not damped or dyn_up < cos_up)
            reductions.append(100 * (1 - dyn_up / cos_up))
    _report(2, "dynamic uplink <= cosine uplink (strict when damped)",
            ok, f"uplink reductions {min(reductions):.1f}%..{max(reductions):.1f}%")


def test_acceptance_3_quantization_unbiased_and_bounded():
    started = perf_counter()
    rng = np.random.default_rng(2024)
    trials = 100_000
    tensors = 1000
    worst_mean = 0.0
    worst_round = 0.0
    ok = True
    for _ in range(tensors):
        alpha = rng.uniform(0.5, 2.0)
        x = rng.uniform(-alpha, alpha)
        t = np.full(trials + 1, x)
        t[0] = alpha
        for bits in (2, 4, 8):
            q = quantize_params(ParamSet({"t": t}), bits, rng)
            dq = dequantize_params(q)["t"]
            s = q.scales[0]
            tol = 4 * (1 / (2 * s)) * 10 ** (-5 / 2) * 2
            mean_err = abs(dq[1:].mean() - x)
            round_err = np.max(np.abs(dq - t))
            worst_mean = max(worst_mean, mean_err / tol)
            # 1e-12 relative slack covers the float evaluation of x * s
            worst_round = max(worst_round, round_err * s)
            ok = ok and mean_err < tol and round_err <= (1 + 1e-12) / s
    elapsed = perf_counter() - started
    ok = ok and elapsed < 120
    _report(3, "stochastic quantization unbiased, roundtrip <= 1/s",
            ok, f"worst mean-err {worst_mean:.3f} of tol, worst roundtrip {worst_round:.6f}/s, {elapsed:.1f}s")


def test_acceptance_4_sensitivity_oracle_and_continuity():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(1000):
        lam = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-2, 1)
        eta = 10.0 ** rng.uniform(-2, 0)
        epochs = int(rng.integers(1, 21))
        n = int(rng.integers(1, 10_000))
        xi = 10.0 ** rng.uniform(-1, 3)
        got = sensitivity(lam, eta, epochs, n, xi)
        want = oracle_sensitivity(lam, eta, epochs, n, xi)
        ok = ok and abs(got - want) <= 1e-8 * max(want, 1e-300)

    worst_cont = 0.0
    for eta, epochs, n, xi in ((0.1, 5, 100, 100.0), (0.5, 12, 7, 3.0), (0.01, 20, 5000, 250.0)):
        base = sensitivity(0.0, eta, epochs, n, xi)
        for lam in (1e-8, 1e-10, 1e-12):
            near = sensitivity(lam, eta, epochs, n, xi)
            worst_cont = max(worst_cont, abs(near - base) / base)
    ok = ok and worst_cont <= 1e-6

    e0_ok = True
    for _ in range(200):
        lam = 10.0 ** rng.uniform(-2, 1)
        eta = 10.0 ** rng.uniform(-1, 0)
        n = int(rng.integers(1, 10_000))
        e0_ok = e0_ok and compute_e0(lam, eta, n) == exhaustive_e0(lam, eta, n)
    ok = ok and e0_ok
    _report(4, "sensitivity branches vs oracle, continuity, E0 exhaustive",
            ok, f"worst continuity rel err {worst_cont:.2e}")


def test_acceptance_5_laplace_statistics():
    ok = True
    details = []
    for i, scale in enumerate((0.5, 1.3, 7.0)):
        like = ParamSet({"x": np.zeros(1_000_000)})
        samples = laplace_noise(scale, like, streams.substream(100 + i, 0))["x"]
        mean_bound = 4 * scale * np.sqrt(2) / 1e3
        mad = np.abs(samples).mean()
        ok = ok and abs(samples.mean()) < mean_bound
        ok = ok and abs(mad - scale) <= 0.02 * scale
        details.append(f"scale {scale}: |mean|={abs(samples.mean()):.2e}, mad/scale={mad / scale:.4f}")
    _report(5, "Laplace mean and MAD checks at 1e6 samples", ok, "; ".join(details))


def test_acceptance_6_convergence_with_quantization_and_dp():
    started = perf_counter()
    data = BlobsConfig(num_classes=3, input_dim=2, train_per_class=200,
                       test_per_class=50, spread=0.25)
    part = PartitionConfig(scheme="dirichlet", alpha=0.5)
    rounds = 200

    def run(schedule, dp=None, seed=0):
        cfg = ExperimentConfig(
            model=ModelSpec("logistic", 2, 3), schedule=schedule, data=data,
            partition=part, dp=dp, rounds=rounds, num_clients=20,
            clients_per_round=5, local_epochs=5, batch_size=64, eta=0.1,
            seed=seed, eval_every=50,
        )
        return run_experiment(cfg)[-1].test_acc

    fp32 = run(ScheduleConfig(mode="static", bits=32))
    int8 = run(ScheduleConfig(mode="static", bits=8))
    dynamic = run(ScheduleConfig(mode="dynamic", b_max=32, b_min=8, lambda_h=0.75))
    dp_loose = np.mean([
        run(ScheduleConfig(mode="static", bits=32),
            dp=DpConfig(epsilon=1e4, xi=100.0), seed=seed)
        for seed in range(5)
    ])
    dp_tight = np.mean([
        run(ScheduleConfig(mode="static", bits=32),
            dp=DpConfig(epsilon=1e2, xi=100.0), seed=seed)
        for seed in range(5)
    ])
    elapsed = perf_counter() - started
    ok = (
        fp32 >= 0.90
        and abs(int8 - fp32) <= 0.03
        and abs(dynamic - fp32) <= 0.03
        and (fp32 - dp_loose) <= 0.05
        and dp_tight < dp_loose
        and elapsed < 300
    )
    _report(6, "blob convergence: fp32/int8/dynamic/dp budgets",
            ok, f"fp32={fp32:.3f}, int8={int8:.3f}, dyn={dynamic:.3f}, "
                f"dp(1e4)={dp_loose:.3f}, dp(1e2)={dp_tight:.3f}, {elapsed:.0f}s")


def test_acceptance_7_single_client_matches_centralized_sgd():
    rounds = 40
    cfg = ExperimentConfig(
        model=ModelSpec("logistic", 2, 3),
        schedule=ScheduleConfig(mode="static", bits=32),
        data=BlobsConfig(num_classes=3, input_dim=2, train_per_class=50,
                         test_per_class=20, spread=0.25),
        partition=PartitionConfig(scheme="dirichlet", alpha=0.5),
        rounds=rounds, num_clients=1, clients_per_round=1, local_epochs=5,
        batch_size=16, eta=0.1, seed=3, eval_every=rounds,
    )
    captured = []
    run_experiment(cfg, round_hook=lambda params, rec: captured.append(params))

    train, _ = make_datasets(cfg.data, cfg.seed)
    params = init_params(cfg.model, streams.substream(cfg.seed, streams.INIT))
    n = len(train)
    alpha_seen = np.abs(params.vector).max()
    ok = True
    worst = 0.0
    for t in range(rounds):
        order = streams.substream(cfg.seed, streams.CLIENT_BATCHING, t, 0).permutation(n)
        for _ in range(cfg.local_epochs):
            for s in range(0, n, cfg.batch_size):
                batch = order[s : s + cfg.batch_size]
                _, grad = loss_and_grad(cfg.model, params, train.features[batch], train.labels[batch])
                params = sgd_step(params, grad, cfg.eta)
        alpha_seen = max(alpha_seen, np.abs(params.vector).max())
        diff = np.abs(captured[t].vector - params.vector).max()
        bound = (t + 1) * alpha_seen / (2**31 - 1) * 10
        worst = max(worst, diff / bound)
        ok = ok and diff <= bound
    _report(7, "N=P=1 @ 32 bits tracks centralized SGD",
            ok, f"worst error/bound ratio {worst:.3f} over {rounds} rounds")


def test_acceptance_8_byte_identical_and_parallel(tmp_path):
    raw = {
        "rounds": 12, "clients": 8, "per_round": 3, "eval_every": 4,
        "local_epochs": 2,
        "schedule": {"mode": "cosine", "b_max": 32, "b_min": 8},
        "data": {"kind": "blobs", "num_classes": 3, "input_dim": 2,
                 "train_per_class": 40, "test_per_class": 10, "spread": 0.25},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    for name in ("a", "b"):
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / name)])
        assert code == 0
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    ok = a == b
    _report(8, "reruns byte-identical", ok,
            f"{len(a)} metric bytes compared")


def test_acceptance_9_schedule_endpoints_and_shape(tmp_path):
    ok = True
    for total in (2, 10, 100, 1000):
        cfg = ScheduleConfig(mode="cosine", b_max=32, b_min=2)
        ok = ok and schedule_bits(cfg, 0, total) == 32 and schedule_bits(cfg, total - 1, total) == 2

    rounds = 100
    cfg = ExperimentConfig(
        model=ModelSpec("logistic", 2, 3),
        schedule=ScheduleConfig(mode="cosine", b_max=32, b_min=2),
        data=BlobsConfig(num_classes=3, input_dim=2, train_per_class=30,
                         test_per_class=10, spread=0.25),
        partition=PartitionConfig(scheme="dirichlet", alpha=0.5),
        rounds=rounds, num_clients=6, clients_per_round=2, local_epochs=1,
        batch_size=64, eta=0.1, seed=0, eval_every=rounds,
    )
    records = run_experiment(cfg)
    path = tmp_path / "metrics.csv"
    write_records(records, path)
    widths = [row["mean_bits"] for row in read_records(path)]
    ok = (
        ok
        and widths[0] == 32.0
        and widths[-1] == 2.0
        and all(a >= b for a, b in zip(widths, widths[1:]))
        and len(set(widths)) > 10
    )
    _report(9, "b(0)=b_max, b(T-1)=b_min, annealing shape in exported metrics",
            ok, f"distinct widths {len(set(widths))}, span {widths[0]:.0f}->{widths[-1]:.0f}")
