"""Federated averaging over quantized links with exact bit accounting.

This module holds the protocol; the data configs, make_datasets and
partition_dataset live in fedqdp.data. A client is its id and its shard,
its row indices into the shared training set. Each round the server picks
a client subset and decides the broadcast width and every upload width,
then broadcasts quantized global parameters. A client's round is two
stages: local_train (local SGD, with DP the gradient clip and the
smoothness trace) and release (with DP the sensitivity and Laplace noise,
then the quantized upload at the width it is handed); client_update
composes them. The server averages the dequantized uploads weighted by
shard size. Every message is metered by quantize.comm_cost from the
parameters' layout and the width decided for it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from fedqdp import rng as streams
from fedqdp.data import (
    BlobsConfig,
    IdxConfig,
    LabeledDataset,
    PartitionConfig,
    make_datasets,
    partition_dataset,
    power_law_pairs,
)
from fedqdp.models import (
    ModelSpec,
    ParamSet,
    clip_gradient_l1,
    init_params,
    loss_and_grad,
    predict,
    sgd_step,
)
from fedqdp.privacy import BatchTrace, DpConfig, laplace_noise, noise_scale, sensitivity
from fedqdp.quantize import QuantizedParamSet, comm_cost, dequantize_params, quantize_params
from fedqdp.schedule import ScheduleConfig, client_importance, schedule_bits

EVAL_ROWS = 128


def _check_data_fits(cfg: ExperimentConfig, data: BlobsConfig | LabeledDataset) -> None:
    """Refuse training data, a BlobsConfig or an IDX split, that does not fit
    the run: a model of other dimensions, fewer samples than clients, or,
    under power_law, fewer than two classes present or a class too small
    for the clients power_law_pairs gives it. Nothing else checks these."""
    for name in ("input_dim", "num_classes"):
        want, have = getattr(cfg.model, name), getattr(data, name)
        if want != have:
            raise ValueError(f"model {name} {want} != data {name} {have}")
    blobs = isinstance(data, BlobsConfig)
    samples = data.num_classes * data.train_per_class if blobs else len(data)
    if samples < cfg.num_clients:
        raise ValueError(f"{samples} training samples cannot cover {cfg.num_clients} clients")
    if cfg.partition.scheme == "power_law":
        sizes = np.full(data.num_classes, data.train_per_class) if blobs else np.bincount(data.labels)
        present = np.flatnonzero(sizes)
        if present.size < 2:
            raise ValueError("power-law partitioning needs at least 2 classes present")
        demand = np.bincount(np.ravel(power_law_pairs(present.size, cfg.num_clients)),
                             minlength=present.size)
        for cls, size, need in zip(present.tolist(), sizes[present].tolist(), demand.tolist()):
            if need > size:
                raise ValueError(f"class {cls} has {size} samples but {need} clients need one")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    schedule: ScheduleConfig
    data: BlobsConfig | IdxConfig
    partition: PartitionConfig
    dp: DpConfig | None = None
    rounds: int = 100
    num_clients: int = 50
    clients_per_round: int = 5
    local_epochs: int = 5
    batch_size: int = 64
    eta: float = 0.1
    seed: int = 0
    eval_every: int = 10

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if not (1 <= self.clients_per_round <= self.num_clients):
            raise ValueError(
                f"need 1 <= clients_per_round <= num_clients, "
                f"got {self.clients_per_round} and {self.num_clients}"
            )
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not np.isfinite(self.eta) or self.eta <= 0:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        # IDX data is known only once its files are read (run_experiment)
        if isinstance(self.data, BlobsConfig):
            _check_data_fits(self, self.data)


@dataclass(frozen=True)
class RoundRecord:
    """One row of run metrics. Accuracies are None on non-evaluation rounds
    and recorded at 1e-6 resolution otherwise."""

    t: int
    selected: tuple[int, ...]
    downlink_bits: int
    uplink_bits: int
    mean_bits: float
    test_acc: float | None = None
    train_acc: float | None = None


def select_clients(num_clients: int, per_round: int, t: int, seed: int) -> np.ndarray:
    """Uniform sample of per_round distinct client ids, sorted ascending.

    Depends only on (num_clients, per_round, t, seed)."""
    gen = streams.substream(seed, streams.SELECTION, t)
    ids = gen.choice(num_clients, size=per_round, replace=False)
    return np.sort(ids).astype(np.int64)


def evaluate(spec: ModelSpec, params: ParamSet, dataset: LabeledDataset) -> float:
    """Fraction of correct argmax predictions; ties go to the lowest class id.

    The forward pass runs over consecutive blocks of EVAL_ROWS rows, the
    last one possibly shorter, so it holds one hidden activation of at
    most EVAL_ROWS rows, and the correct predictions are counted exactly
    over the blocks. A block's logits are not claimed to equal a one-pass
    matmul's in the last bits.
    """
    n = len(dataset)
    correct = 0
    for start in range(0, n, EVAL_ROWS):
        rows = slice(start, start + EVAL_ROWS)
        pred = predict(spec, params, dataset.features[rows])
        correct += int(np.count_nonzero(pred == dataset.labels[rows]))
    return correct / n


def local_train(global_params: ParamSet, train: LabeledDataset, shard: np.ndarray,
                client_id: int, cfg: ExperimentConfig, t: int) -> tuple[ParamSet, float | None]:
    """A client's local SGD on its shard of train, from the dequantized
    broadcast: (trained parameters, lambda_i), lambda_i None without DP.

    The sample order is drawn once per round from the client's batching
    stream and reused for every local epoch, so an epoch pair visits
    identical batches and their gradient difference estimates local
    smoothness. With DP every gradient is L1-clipped to xi after the trace
    records it unclipped; the trace is freed on return and only its
    estimate, lambda_i, comes out.
    """
    params = global_params
    n_i = shard.size
    order = streams.substream(cfg.seed, streams.CLIENT_BATCHING, t, client_id).permutation(n_i)
    rows = shard[order]
    batches = [rows[s : s + cfg.batch_size] for s in range(0, n_i, cfg.batch_size)]
    features, labels = train.features, train.labels

    trace = BatchTrace() if cfg.dp is not None else None
    for _ in range(cfg.local_epochs):
        for j, batch in enumerate(batches):
            _, grad = loss_and_grad(cfg.model, params, features[batch], labels[batch])
            if cfg.dp is not None:
                trace.record(grad, params, j)
                grad = clip_gradient_l1(grad, cfg.dp.xi)
            params = sgd_step(params, grad, cfg.eta)
    return params, None if trace is None else trace.estimate


def release(params: ParamSet, lambda_i: float | None, n_i: int, client_id: int,
            cfg: ExperimentConfig, t: int, bits: int) -> QuantizedParamSet:
    """A client's upload of its trained parameters, quantized at the width
    the round loop decided.

    With DP, the sensitivity for lambda_i and the client's n_i samples
    sets the Laplace scale, and noise drawn from the client's noise stream
    is added first; the encode draws from its rounding stream. Both
    streams are keyed on (seed, purpose, t, client_id), so releasing the
    same parameters twice gives the same bytes.
    """
    if cfg.dp is not None:
        sens = sensitivity(lambda_i, cfg.eta, cfg.local_epochs, n_i, cfg.dp.xi)
        scale = noise_scale(
            sens, cfg.dp, cfg.clients_per_round, cfg.rounds, cfg.num_clients, cfg.local_epochs
        )
        params = params + laplace_noise(
            scale, params, streams.substream(cfg.seed, streams.CLIENT_NOISE, t, client_id)
        )
    return quantize_params(
        params, bits, streams.substream(cfg.seed, streams.CLIENT_ROUNDING, t, client_id)
    )


def client_update(
    global_params: ParamSet,
    train: LabeledDataset,
    shard: np.ndarray,
    client_id: int,
    cfg: ExperimentConfig,
    t: int,
    bits: int,
) -> QuantizedParamSet:
    """One client's round: local_train on its shard, then release at the
    given width."""
    return release(*local_train(global_params, train, shard, client_id, cfg, t),
                   shard.size, client_id, cfg, t, bits)


def aggregate(uploads: list[QuantizedParamSet], sizes: list[int]) -> ParamSet:
    """Average of the dequantized uploads, weighted by the senders' dataset sizes."""
    total = float(sum(sizes))
    layout = uploads[0].layout  # every upload of a run has init_params' layout
    acc = np.zeros(layout.size)
    for q, n in zip(uploads, sizes, strict=True):
        acc += dequantize_params(q).vector * (n / total)
    return ParamSet.from_vector(layout, acc)


def _train_round(params: ParamSet, train: LabeledDataset, shards: list[np.ndarray],
                 cfg: ExperimentConfig, t: int) -> tuple[ParamSet, RoundRecord]:
    """One round up to aggregation: broadcast, local training, upload.

    Every width of the round is decided here, before any client trains:
    the broadcast at the schedule's full weight, b_t. Every upload goes at
    b_t too, except in dynamic mode, where each is damped by its client's
    importance (the entropy of its shard's label histogram, built for the
    round's clients only, mixed with its shard size relative to the
    round's largest). Every message is priced from the layout and the
    width decided for it, and an upload quantized at any other width is
    refused. Returns the aggregated parameters and the round's record,
    with both accuracies None. The broadcast and the uploads are
    locals, so they are freed on return, before the caller evaluates.
    """
    ids = [int(i) for i in select_clients(cfg.num_clients, cfg.clients_per_round, t, cfg.seed)]
    sizes = [shards[i].size for i in ids]
    sched = cfg.schedule
    b_t = schedule_bits(sched, t, cfg.rounds)
    if sched.mode == "dynamic":
        n_max = max(sizes)
        nus = [client_importance(np.bincount(train.labels[shards[i]], minlength=train.num_classes),
                                 n_max, sched.lambda_h) for i in ids]
        upload_bits = [schedule_bits(sched, t, cfg.rounds, nu) for nu in nus]
    else:
        upload_bits = [b_t] * len(ids)

    q_global = quantize_params(params, b_t, streams.substream(cfg.seed, streams.SERVER_ROUNDING, t))
    # every client decodes the same broadcast; ParamSets are read-only,
    # so one decoded copy is shared
    global_params = dequantize_params(q_global)
    uploads = [client_update(global_params, train, shards[i], i, cfg, t, b)
               for i, b in zip(ids, upload_bits)]
    for i, q, b in zip(ids, uploads, upload_bits):
        if q.bits != b:
            raise ValueError(f"client {i} uploaded at {q.bits} bits, not the {b} decided")
    record = RoundRecord(
        t=t,
        selected=tuple(ids),
        downlink_bits=cfg.clients_per_round * comm_cost(params.layout, b_t),
        uplink_bits=sum(comm_cost(params.layout, b) for b in upload_bits),
        mean_bits=round(float(np.mean(upload_bits)), 6),
    )
    return aggregate(uploads, sizes), record


def run_experiment(cfg: ExperimentConfig, round_hook=None) -> list[RoundRecord]:
    """Run the full protocol and return one RoundRecord per round.

    Clients train one after another in sorted selection order, which is
    also the aggregation order. round_hook, when given, is called as
    round_hook(params, record) after every round, with the round's
    aggregated parameters and its record; running bit totals are sums over
    the records. Accuracies are computed every eval_every rounds and on
    the final round.
    """
    train, test = make_datasets(cfg.data, cfg.seed)
    if isinstance(cfg.data, IdxConfig):  # blob data was checked with the config
        _check_data_fits(cfg, train)
    shards = partition_dataset(train, cfg.partition, cfg.num_clients, cfg.seed)
    params = init_params(cfg.model, streams.substream(cfg.seed, streams.INIT))

    records: list[RoundRecord] = []
    for t in range(cfg.rounds):
        params, record = _train_round(params, train, shards, cfg, t)
        if (t + 1) % cfg.eval_every == 0 or t == cfg.rounds - 1:
            test_acc = round(evaluate(cfg.model, params, test), 6)
            train_acc = round(evaluate(cfg.model, params, train), 6)
            record = replace(record, test_acc=test_acc, train_acc=train_acc)
        records.append(record)
        if round_hook is not None:
            round_hook(params, record)
    return records
