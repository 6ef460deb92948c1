"""Federated averaging over quantized links with exact bit accounting.

Each round the server picks a client subset, broadcasts quantized global
parameters, clients train locally (optionally clipping gradients and adding
Laplace noise before upload), quantize at their scheduled bit width, and
the server averages the dequantized uploads weighted by dataset size.
Every message is metered by quantize.comm_cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from fedqdp import rng as streams
from fedqdp.data import (
    LabeledDataset,
    dirichlet_partition,
    load_idx,
    power_law_two_class_partition,
    synthetic_blobs,
)
from fedqdp.models import (
    ModelSpec,
    ParamSet,
    ShapeMismatchError,
    clip_gradient_l1,
    init_params,
    loss_and_grad,
    predict,
    sgd_step,
)
from fedqdp.privacy import BatchTrace, DpConfig, laplace_noise, noise_scale, sensitivity
from fedqdp.quantize import QuantizedParamSet, comm_cost, dequantize_params, quantize_params
from fedqdp.schedule import ScheduleConfig, client_importance, schedule_bits

EVAL_ROWS = 256


@dataclass(frozen=True)
class BlobsConfig:
    """Synthetic Gaussian-blob dataset: independent train and test draws."""

    num_classes: int = 3
    input_dim: int = 2
    train_per_class: int = 200
    test_per_class: int = 50
    spread: float = 0.1

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.train_per_class < 1:
            raise ValueError(f"train_per_class must be >= 1, got {self.train_per_class}")
        if self.test_per_class < 1:
            raise ValueError(f"test_per_class must be >= 1, got {self.test_per_class}")
        if not np.isfinite(self.spread) or self.spread < 0:
            raise ValueError(f"spread must be non-negative and finite, got {self.spread}")


@dataclass(frozen=True)
class IdxConfig:
    """Train/test IDX file quadruple (images + labels each)."""

    train_images: str
    train_labels: str
    test_images: str
    test_labels: str


@dataclass(frozen=True)
class PartitionConfig:
    scheme: str = "dirichlet"
    alpha: float = 0.5
    exponent: float = 1.2

    def __post_init__(self):
        if self.scheme not in ("dirichlet", "power_law"):
            raise ValueError(f"scheme must be 'dirichlet' or 'power_law', got {self.scheme!r}")
        # each scheme reads only its own parameter
        if self.scheme == "dirichlet" and (not np.isfinite(self.alpha) or self.alpha <= 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.scheme == "power_law" and (not np.isfinite(self.exponent) or self.exponent < 0):
            raise ValueError(f"exponent must be non-negative and finite, got {self.exponent}")


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
        # IDX dimensions are known only once the files are loaded (run_experiment)
        if isinstance(self.data, BlobsConfig):
            for name in ("input_dim", "num_classes"):
                if getattr(self.model, name) != getattr(self.data, name):
                    raise ValueError(
                        f"model {name} {getattr(self.model, name)} != "
                        f"data {name} {getattr(self.data, name)}"
                    )
            samples = self.data.num_classes * self.data.train_per_class
            if samples < self.num_clients:
                raise ValueError(f"{samples} training samples cannot cover {self.num_clients} clients")


@dataclass(frozen=True, eq=False)
class ClientUpdate:
    params: QuantizedParamSet
    dataset_size: int


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


@dataclass(frozen=True, eq=False)
class ClientData:
    """One client's shard plus its label histogram.

    The shard is the client's row indices into the shared training set;
    batches gather their rows from it, so the training set is held once
    however it is partitioned.
    """

    client_id: int
    dataset: LabeledDataset
    indices: np.ndarray
    label_counts: np.ndarray

    @property
    def size(self) -> int:
        return self.indices.shape[0]


def select_clients(num_clients: int, per_round: int, t: int, seed: int) -> np.ndarray:
    """Uniform sample of per_round distinct client ids, sorted ascending.

    Depends only on (num_clients, per_round, t, seed)."""
    gen = streams.substream(seed, streams.SELECTION, t)
    ids = gen.choice(num_clients, size=per_round, replace=False)
    return np.sort(ids).astype(np.int64)


def _row_blocks(n: int) -> list[slice]:
    """Consecutive blocks of EVAL_ROWS = 256 rows, the short tail merged
    into the last one: a set of n >= 2 * EVAL_ROWS rows splits into blocks
    of 256 to 511 rows, and a smaller set is a single block."""
    bounds = [i * EVAL_ROWS for i in range(max(1, n // EVAL_ROWS))] + [n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def evaluate(spec: ModelSpec, params: ParamSet, dataset: LabeledDataset) -> float:
    """Fraction of correct argmax predictions; ties go to the lowest class id.

    The forward pass runs over blocks of 256 to 511 rows (see _row_blocks),
    so it holds one hidden activation of at most 2 * EVAL_ROWS - 1 rows, not
    of the whole set: on wide_comm's 4,000 training rows its traced peak is
    0.88 MiB, below the 1.05 MiB of the 500-row test set's single pass.
    Blocks of 128 rows or more get the same logits from OpenBLAS as one pass
    over all rows; 64-row blocks do not, so EVAL_ROWS stays >= 128. The
    count of correct predictions is an exact integer, so the fraction
    equals the mean over the whole set.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    correct = 0
    for rows in _row_blocks(n):
        pred = predict(spec, params, dataset.features[rows])
        correct += int(np.count_nonzero(pred == dataset.labels[rows]))
    return correct / n


def client_update(
    global_params: ParamSet,
    client: ClientData,
    cfg: ExperimentConfig,
    t: int,
    max_dataset_size: int,
) -> ClientUpdate:
    """One client's round: local SGD from the dequantized broadcast, then
    optional Laplace perturbation, then quantized upload.

    The sample order is shuffled once per round and reused for every local
    epoch, so an epoch pair visits identical batches and their gradient
    difference estimates local smoothness. All randomness comes from
    streams keyed on (seed, purpose, t, client_id).
    """
    params = global_params
    n_i = client.size
    order = streams.substream(
        cfg.seed, streams.CLIENT_BATCHING, t, client.client_id
    ).permutation(n_i)
    rows = client.indices[order]
    batches = [rows[s : s + cfg.batch_size] for s in range(0, n_i, cfg.batch_size)]
    features, labels = client.dataset.features, client.dataset.labels

    trace = BatchTrace() if cfg.dp is not None else None
    for _ in range(cfg.local_epochs):
        for j, batch in enumerate(batches):
            _, grad = loss_and_grad(cfg.model, params, features[batch], labels[batch])
            if cfg.dp is not None:
                trace.record(grad, params, j)
                grad = clip_gradient_l1(grad, cfg.dp.xi)
            params = sgd_step(params, grad, cfg.eta)

    if cfg.dp is not None:
        sens = sensitivity(trace.estimate, cfg.eta, cfg.local_epochs, n_i, cfg.dp.xi)
        scale = noise_scale(
            sens, cfg.dp, cfg.clients_per_round, cfg.rounds, cfg.num_clients, cfg.local_epochs
        )
        params = params + laplace_noise(
            scale, params, streams.substream(cfg.seed, streams.CLIENT_NOISE, t, client.client_id)
        )

    nu = None
    if cfg.schedule.mode == "dynamic":
        nu = client_importance(client.label_counts, max_dataset_size, cfg.schedule.lambda_h)
    bits = schedule_bits(cfg.schedule, t, cfg.rounds, nu)
    q = quantize_params(
        params, bits, streams.substream(cfg.seed, streams.CLIENT_ROUNDING, t, client.client_id)
    )
    return ClientUpdate(params=q, dataset_size=n_i)


def aggregate(updates: list[ClientUpdate]) -> ParamSet:
    """Dataset-size weighted average of dequantized updates."""
    if not updates:
        raise ValueError("cannot aggregate zero updates")
    total = float(sum(u.dataset_size for u in updates))
    first = dequantize_params(updates[0].params)
    acc = first.vector * (updates[0].dataset_size / total)
    for u in updates[1:]:
        decoded = dequantize_params(u.params)
        if decoded.layout != first.layout:
            raise ShapeMismatchError(f"{decoded!r} and {first!r} differ in tensor names or shapes")
        acc += decoded.vector * (u.dataset_size / total)
    return ParamSet.from_vector(first.layout, acc)


def make_datasets(
    data_cfg: BlobsConfig | IdxConfig, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Build (train, test). Blob draws use dedicated streams off the seed;
    IDX files are loaded as-is with a shared class count."""
    if isinstance(data_cfg, BlobsConfig):
        train = synthetic_blobs(
            data_cfg.num_classes,
            data_cfg.input_dim,
            data_cfg.train_per_class,
            data_cfg.spread,
            streams.substream(seed, streams.DATA, 0),
        )
        test = synthetic_blobs(
            data_cfg.num_classes,
            data_cfg.input_dim,
            data_cfg.test_per_class,
            data_cfg.spread,
            streams.substream(seed, streams.DATA, 1),
        )
        return train, test
    train = load_idx(data_cfg.train_images, data_cfg.train_labels)
    test = load_idx(data_cfg.test_images, data_cfg.test_labels)
    k = max(train.num_classes, test.num_classes)
    if train.num_classes != k:
        train = LabeledDataset(train.features, train.labels, k)
    if test.num_classes != k:
        test = LabeledDataset(test.features, test.labels, k)
    return train, test


def partition_dataset(train: LabeledDataset, cfg: ExperimentConfig) -> list[np.ndarray]:
    gen = streams.substream(cfg.seed, streams.PARTITION)
    if cfg.partition.scheme == "dirichlet":
        return dirichlet_partition(train.labels, cfg.num_clients, cfg.partition.alpha, gen)
    return power_law_two_class_partition(
        train.labels, cfg.num_clients, cfg.partition.exponent, gen
    )


def _train_round(
    params: ParamSet, clients: list[ClientData], cfg: ExperimentConfig, t: int
) -> tuple[ParamSet, RoundRecord]:
    """One round up to aggregation: broadcast, local training, upload.

    Returns the aggregated parameters and the round's record, with both
    accuracies None. The broadcast and the uploads are locals, so they are
    freed on return, before the caller evaluates.
    """
    ids = select_clients(cfg.num_clients, cfg.clients_per_round, t, cfg.seed)
    # the broadcast goes at full weight: the dynamic mode damps uploads only
    b_t = schedule_bits(cfg.schedule, t, cfg.rounds, nu=1.0)
    q_global = quantize_params(params, b_t, streams.substream(cfg.seed, streams.SERVER_ROUNDING, t))
    # every client decodes the same broadcast; ParamSets are read-only,
    # so one decoded copy is shared
    global_params = dequantize_params(q_global)
    selected = [clients[i] for i in ids]
    n_max = max(c.size for c in selected)
    updates = [client_update(global_params, c, cfg, t, n_max) for c in selected]
    record = RoundRecord(
        t=t,
        selected=tuple(int(i) for i in ids),
        downlink_bits=cfg.clients_per_round * comm_cost(q_global),
        uplink_bits=sum(comm_cost(u.params) for u in updates),
        mean_bits=round(float(np.mean([u.params.bits for u in updates])), 6),
    )
    return aggregate(updates), record


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
    if cfg.model.input_dim != train.input_dim:
        raise ValueError(
            f"model input_dim {cfg.model.input_dim} != dataset input_dim {train.input_dim}"
        )
    if cfg.model.num_classes != train.num_classes:
        raise ValueError(
            f"model num_classes {cfg.model.num_classes} != dataset classes {train.num_classes}"
        )
    parts = partition_dataset(train, cfg)
    # every client's label histogram from one count of (client, label) pairs
    k = train.num_classes
    owner = np.repeat(np.arange(len(parts)), [p.size for p in parts])
    pairs = owner * k + train.labels[np.concatenate(parts)]
    label_counts = np.bincount(pairs, minlength=len(parts) * k).reshape(len(parts), k)
    clients = [
        ClientData(client_id=i, dataset=train, indices=p, label_counts=counts)
        for i, (p, counts) in enumerate(zip(parts, label_counts))
    ]
    params = init_params(cfg.model, streams.substream(cfg.seed, streams.INIT))

    records: list[RoundRecord] = []
    for t in range(cfg.rounds):
        params, record = _train_round(params, clients, cfg, t)
        if (t + 1) % cfg.eval_every == 0 or t == cfg.rounds - 1:
            test_acc = round(evaluate(cfg.model, params, test), 6)
            train_acc = round(evaluate(cfg.model, params, train), 6)
            record = replace(record, test_acc=test_acc, train_acc=train_acc)
        records.append(record)
        if round_hook is not None:
            round_hook(params, record)
    return records
