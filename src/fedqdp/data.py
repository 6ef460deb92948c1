"""Datasets and client partitioning.

Provides a synthetic Gaussian-blob classifier benchmark, an IDX image/label
file loader, and two non-IID partitioners: per-class Dirichlet proportions
and a two-class power-law size profile. Partitioners take a LabeledDataset
that fits the run, as only federation._check_data_fits checks, and return
sorted index arrays, one per client, each non-empty. A run's data setup
lives here too: the data and partition configs, make_datasets and
partition_dataset, each drawing from its own stream off the run's seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import combinations, cycle, islice

import numpy as np

from fedqdp import rng as streams

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxParseError(ValueError):
    """Malformed IDX file: bad magic, truncated data, or count mismatch."""


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix (n, d) float64 with integer labels in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.features.shape[0]} samples"
            )
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if not np.issubdtype(self.labels.dtype, np.integer):  # bool is not an integer type
            raise ValueError(f"labels must be integers, got dtype {self.labels.dtype}")
        if len(self) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


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


def power_law_pairs(num_present: int, num_clients: int) -> list[tuple[int, int]]:
    """Each client's two classes under the power-law scheme, as positions
    among the num_present classes present: client i takes the (i mod P)-th
    of their P lexicographic pairs."""
    # cycle keeps only the pairs it has handed out: at most num_clients
    return list(islice(cycle(combinations(range(num_present), 2)), num_clients))


def dirichlet_partition(
    data: LabeledDataset, num_clients: int, cfg: PartitionConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """Split sample indices across clients with per-class Dirichlet proportions.

    Every index is assigned exactly once. Small cfg.alpha concentrates each
    class on few clients. Clients left empty by the draw steal one sample
    from the currently largest client, so every client ends non-empty.
    """
    labels = data.labels.astype(np.int64, copy=False)  # bincount refuses uint64
    n = labels.size
    owner = np.empty(n, dtype=np.int64)  # each sample's client
    for cls in np.flatnonzero(np.bincount(labels)):  # the classes present, ascending
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(num_clients, cfg.alpha))
        cuts = (np.cumsum(proportions)[:-1] * idx.size).astype(np.int64)
        # cuts rise and stay within idx.size, so the client of each position
        # is the number of cuts at or before it, as np.split(idx, cuts)
        # would hand the pieces to the clients in turn
        owner[idx] = np.searchsorted(cuts, np.arange(idx.size), side="right")
    # the keys are unique, so one sort groups the samples by client and
    # orders each client's indices ascending
    keys = owner * n + np.arange(n)
    keys.sort()
    sizes = np.bincount(owner, minlength=num_clients)
    parts = np.split(keys % n, np.cumsum(sizes)[:-1])
    # n >= num_clients, so while some client is empty the largest holds >= 2
    for client in range(num_clients):
        if parts[client].size == 0:
            donor = max(range(num_clients), key=lambda c: (parts[c].size, -c))
            parts[client] = parts[donor][-1:]
            parts[donor] = parts[donor][:-1]
    return parts


def power_law_two_class_partition(
    data: LabeledDataset, num_clients: int, cfg: PartitionConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """Give each client two classes and a power-law share of the samples.

    Client i takes the pair power_law_pairs gives it and targets a share
    proportional to (i + 1)^(-cfg.exponent) of the full dataset, never
    below one sample per class.

    Not every sample is assigned. A client whose class runs dry takes only
    what is left of it, and no other client takes up the shortfall. With
    10 classes of 400 samples, 200 clients and exponent 1.2, the shards
    hold 3,448 samples: classes 0-4 are used up, while 552 samples of
    classes 5-9 belong to no client, yet run_experiment's train_acc
    counts them.
    """
    labels = data.labels.astype(np.int64, copy=False)  # bincount refuses uint64
    present = np.flatnonzero(np.bincount(labels))
    pair_of = power_law_pairs(present.size, num_clients)
    pools = []
    for cls in present:
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        pools.append(idx)

    weights = (np.arange(1, num_clients + 1, dtype=np.float64)) ** (-cfg.exponent)
    shares = weights / weights.sum()
    targets = np.maximum(2, np.rint(shares * labels.size).astype(np.int64))

    left = [pool.size for pool in pools]  # pools[c][:left[c]] is still untaken

    def take(c: int, count: int) -> np.ndarray:
        left[c] -= count
        return pools[c][left[c] : left[c] + count]

    firsts = [(take(a, 1), take(b, 1)) for a, b in pair_of]  # one sample of each class first
    parts = []
    for (a, b), first, target in zip(pair_of, firsts, targets.tolist()):
        want = target - 2
        want_a = want - want // 2
        take_a = min(want_a, left[a])
        take_b = min(want // 2 + (want_a - take_a), left[b])
        parts.append(np.sort(np.concatenate([*first, take(a, take_a), take(b, take_b)])))
    return parts


def synthetic_blobs(
    cfg: BlobsConfig, samples_per_class: int, rng: np.random.Generator
) -> LabeledDataset:
    """Isotropic Gaussian blobs, one per class, centred on a unit lattice.

    Class k's mean is k in base side, most significant digit first: the
    k-th point of {0, ..., side - 1}^input_dim in row-major order, for the
    least side with side**input_dim >= num_classes. So distinct classes
    are at least distance 1 apart. Samples are in class-major order;
    spread = 0 puts every sample exactly on its mean. BlobsConfig has
    checked every range.
    """
    num_classes, input_dim, spread = cfg.num_classes, cfg.input_dim, cfg.spread
    side = 2  # found without counting up to it, nor forming 2**input_dim
    if num_classes > 2 ** min(input_dim, 64):
        side = max(2, round(num_classes ** (1 / input_dim)))
        while side**input_dim < num_classes:
            side += 1
        while (side - 1) ** input_dim >= num_classes:
            side -= 1
    means = np.zeros((num_classes, input_dim))
    k = np.arange(num_classes)
    for col in reversed(range(max(0, input_dim - 64), input_dim)):  # k < 2**63: 64 digits
        k, means[:, col] = np.divmod(k, side)
    labels = np.arange(num_classes * samples_per_class, dtype=np.int64) // samples_per_class
    features = rng.standard_normal((labels.size, input_dim))
    try:
        with np.errstate(over="raise"):
            features *= spread
    except FloatingPointError:
        raise ValueError(f"spread={spread} overflows the blob features") from None
    # rows are class-major, so each class's block of rows takes its mean in place
    features.reshape(num_classes, samples_per_class, input_dim)[...] += means[:, None, :]
    return LabeledDataset(features, labels, num_classes)


def _read_idx(path: str, magic: int, dims: int) -> tuple[tuple[int, ...], memoryview]:
    """The header's dimensions and the body of an IDX file whose body holds
    one byte per value; the body is a view of the file's bytes, not a copy."""
    with open(path, "rb") as f:
        raw = f.read()
    header = 4 * (1 + dims)
    if len(raw) < header:
        raise IdxParseError(f"{path}: truncated header, {len(raw)} bytes")
    fields = struct.unpack(f">{1 + dims}I", raw[:header])
    if fields[0] != magic:
        raise IdxParseError(f"{path}: bad magic 0x{fields[0]:08x}, expected 0x{magic:08x}")
    expected = math.prod(fields[1:])
    body = memoryview(raw)[header:]
    if len(body) != expected:
        raise IdxParseError(f"{path}: data truncated, {len(body)} bytes for {expected} values")
    return fields[1:], body


def load_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Load big-endian IDX image/label files into a flat float dataset.

    Pixels are scaled into [0, 1]; images flatten to rows of rows*cols
    features. The class count is max(label) + 1. Malformed inputs raise
    IdxParseError naming the file and the problem.
    """
    (count, rows, cols), body = _read_idx(images_path, IMAGE_MAGIC, 3)
    pixels = np.frombuffer(body, dtype=np.uint8).astype(np.float64)
    pixels /= 255.0
    (label_count,), body = _read_idx(labels_path, LABEL_MAGIC, 1)
    if label_count != count:
        raise IdxParseError(f"count mismatch: {count} images vs {label_count} labels")
    if count == 0:
        raise IdxParseError(f"{images_path}: no samples")
    labels = np.frombuffer(body, dtype=np.uint8).astype(np.int64)
    num_classes = max(int(labels.max()) + 1, 2)
    return LabeledDataset(pixels.reshape(count, rows * cols), labels, num_classes)


def make_datasets(
    data_cfg: BlobsConfig | IdxConfig, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Build (train, test). Blob draws use dedicated streams off the seed,
    0 for train and 1 for test. IDX splits get a shared class count, and
    test images sized unlike the training images raise IdxParseError."""
    if isinstance(data_cfg, BlobsConfig):
        return tuple(
            synthetic_blobs(data_cfg, per_class, streams.substream(seed, streams.DATA, i))
            for i, per_class in enumerate((data_cfg.train_per_class, data_cfg.test_per_class))
        )
    splits = [load_idx(images, labels) for images, labels in (
        (data_cfg.train_images, data_cfg.train_labels),
        (data_cfg.test_images, data_cfg.test_labels),
    )]
    if splits[1].input_dim != splits[0].input_dim:
        raise IdxParseError(f"{data_cfg.test_images}: images of {splits[1].input_dim} pixels, "
                            f"but the training images have {splits[0].input_dim}")
    k = max(s.num_classes for s in splits)
    return tuple(s if s.num_classes == k else LabeledDataset(s.features, s.labels, k)
                 for s in splits)


def partition_dataset(
    train: LabeledDataset, partition: PartitionConfig, num_clients: int, seed: int
) -> list[np.ndarray]:
    """The clients' shards of train under the partition scheme, drawn from
    the seed's partition stream."""
    gen = streams.substream(seed, streams.PARTITION)
    if partition.scheme == "dirichlet":
        return dirichlet_partition(train, num_clients, partition, gen)
    return power_law_two_class_partition(train, num_clients, partition, gen)
