"""Datasets and client partitioning.

Provides a synthetic Gaussian-blob classifier benchmark, an IDX image/label
file loader, and two non-IID partitioners: per-class Dirichlet proportions
and a two-class power-law size profile. Partitioners return sorted index
arrays, one per client, each client non-empty.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import combinations, islice, product

import numpy as np

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
        if len(self) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


def label_histogram(dataset: LabeledDataset, indices: np.ndarray | None = None) -> np.ndarray:
    """Per-class sample counts, over the whole dataset or an index subset."""
    labels = dataset.labels if indices is None else dataset.labels[np.asarray(indices)]
    return np.bincount(labels, minlength=dataset.num_classes).astype(np.int64)


def _validate_partition_args(labels: np.ndarray, num_clients: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-D array")
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if labels.size < num_clients:
        raise ValueError(f"{labels.size} samples cannot cover {num_clients} clients")
    return labels


def dirichlet_partition(
    labels: np.ndarray, num_clients: int, alpha: float, rng: np.random.Generator
) -> list[np.ndarray]:
    """Split sample indices across clients with per-class Dirichlet proportions.

    Every index is assigned exactly once. Small alpha concentrates each
    class on few clients. Clients left empty by the draw steal one sample
    from the currently largest client, so every client ends non-empty.
    """
    labels = _validate_partition_args(labels, num_clients)
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    assigned: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(num_clients, alpha))
        cuts = (np.cumsum(proportions)[:-1] * idx.size).astype(np.int64)
        for client, part in enumerate(np.split(idx, cuts)):
            assigned[client].append(part)
    parts = [
        np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=np.int64)
        for chunks in assigned
    ]
    for client in range(num_clients):
        while parts[client].size == 0:
            donor = max(range(num_clients), key=lambda c: (parts[c].size, -c))
            if parts[donor].size < 2:
                raise ValueError("not enough samples to leave every client non-empty")
            parts[client] = parts[donor][-1:]
            parts[donor] = parts[donor][:-1]
    return [p.astype(np.int64) for p in parts]


def power_law_two_class_partition(
    labels: np.ndarray,
    num_clients: int,
    exponent: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Give each client two classes and a power-law share of the samples.

    Class pairs cycle through the lexicographic two-class combinations of
    the classes present. Client i targets a share proportional to
    (i + 1)^(-exponent) of the full dataset, never below one sample per
    class. Raises when some class cannot supply the one-per-class minimum.
    """
    labels = _validate_partition_args(labels, num_clients)
    if not np.isfinite(exponent) or exponent < 0:
        raise ValueError(f"exponent must be non-negative and finite, got {exponent}")
    present = np.unique(labels)
    if present.size < 2:
        raise ValueError("power-law partitioning needs at least 2 classes present")
    pairs = list(combinations(present.tolist(), 2))
    pair_of = [pairs[i % len(pairs)] for i in range(num_clients)]

    pools = {}
    for cls in present:
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        pools[int(cls)] = list(idx)
    minimum_demand = {int(cls): 0 for cls in present}
    for a, b in pair_of:
        minimum_demand[a] += 1
        minimum_demand[b] += 1
    for cls, demand in minimum_demand.items():
        if demand > len(pools[cls]):
            raise ValueError(
                f"class {cls} has {len(pools[cls])} samples but {demand} clients need one"
            )

    weights = (np.arange(1, num_clients + 1, dtype=np.float64)) ** (-exponent)
    shares = weights / weights.sum()
    targets = np.maximum(2, np.rint(shares * labels.size).astype(np.int64))

    parts: list[list[int]] = [[] for _ in range(num_clients)]
    for i, (a, b) in enumerate(pair_of):  # one sample of each class first
        parts[i].append(pools[a].pop())
        parts[i].append(pools[b].pop())
    for i, (a, b) in enumerate(pair_of):
        want = int(targets[i]) - 2
        want_a = want - want // 2
        take_a = min(want_a, len(pools[a]))
        take_b = min(want // 2 + (want_a - take_a), len(pools[b]))
        for _ in range(take_a):
            parts[i].append(pools[a].pop())
        for _ in range(take_b):
            parts[i].append(pools[b].pop())
    return [np.sort(np.asarray(p, dtype=np.int64)) for p in parts]


def synthetic_blobs(
    num_classes: int,
    input_dim: int,
    samples_per_class: int,
    spread: float,
    rng: np.random.Generator,
) -> LabeledDataset:
    """Isotropic Gaussian blobs, one per class, centred on a unit lattice.

    Class k's mean is the k-th point of {0, 1, 2, ...}^input_dim in
    row-major order, so distinct classes are at least distance 1 apart.
    Samples are in class-major order; spread = 0 puts every sample exactly
    on its mean.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    if samples_per_class < 1:
        raise ValueError(f"samples_per_class must be >= 1, got {samples_per_class}")
    if not np.isfinite(spread) or spread < 0:
        raise ValueError(f"spread must be non-negative and finite, got {spread}")
    side = 1
    while side**input_dim < num_classes:
        side += 1
    lattice = islice(product(range(side), repeat=input_dim), num_classes)
    means = np.array(list(lattice), dtype=np.float64)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    noise = rng.standard_normal((labels.size, input_dim))
    features = means[labels] + spread * noise
    return LabeledDataset(features, labels, num_classes)


def _read_idx_header(raw: bytes, path: str, magic: int, dims: int) -> tuple[tuple[int, ...], bytes]:
    header = 4 * (1 + dims)
    if len(raw) < header:
        raise IdxParseError(f"{path}: truncated header, {len(raw)} bytes")
    fields = struct.unpack(f">{1 + dims}I", raw[:header])
    if fields[0] != magic:
        raise IdxParseError(f"{path}: bad magic 0x{fields[0]:08x}, expected 0x{magic:08x}")
    return fields[1:], raw[header:]


def load_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Load big-endian IDX image/label files into a flat float dataset.

    Pixels are scaled into [0, 1]; images flatten to rows of rows*cols
    features. The class count is max(label) + 1. Malformed inputs raise
    IdxParseError naming the file and the problem.
    """
    with open(images_path, "rb") as f:
        raw = f.read()
    (count, rows, cols), body = _read_idx_header(raw, str(images_path), IMAGE_MAGIC, 3)
    expected = count * rows * cols
    if len(body) != expected:
        raise IdxParseError(
            f"{images_path}: image data truncated, {len(body)} bytes for {expected} pixels"
        )
    pixels = np.frombuffer(body, dtype=np.uint8).astype(np.float64) / 255.0

    with open(labels_path, "rb") as f:
        raw = f.read()
    (label_count,), body = _read_idx_header(raw, str(labels_path), LABEL_MAGIC, 1)
    if len(body) != label_count:
        raise IdxParseError(
            f"{labels_path}: label data truncated, {len(body)} bytes for {label_count} labels"
        )
    if label_count != count:
        raise IdxParseError(f"count mismatch: {count} images vs {label_count} labels")
    if count == 0:
        raise IdxParseError(f"{images_path}: no samples")
    labels = np.frombuffer(body, dtype=np.uint8).astype(np.int64)
    num_classes = max(int(labels.max()) + 1, 2)
    return LabeledDataset(pixels.reshape(count, rows * cols), labels, num_classes)
