"""Datasets, partitioners, and the IDX loader."""

import re
import struct
import tracemalloc
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedqdp.data import (
    BlobsConfig,
    IdxParseError,
    LabeledDataset,
    dirichlet_partition,
    load_idx,
    power_law_two_class_partition,
    synthetic_blobs,
)


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 2]), 2)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), 1)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros(4), np.array([0]), 2)


def label_histogram(dataset, indices=None):
    """Per-class sample counts, over the whole dataset or an index subset:
    the oracle for the label histogram of a client's shard."""
    labels = dataset.labels if indices is None else dataset.labels[np.asarray(indices)]
    return np.bincount(labels, minlength=dataset.num_classes).astype(np.int64)


def test_label_histogram_full_and_subset():
    ds = LabeledDataset(np.zeros((5, 1)), np.array([0, 1, 1, 2, 2]), 4)
    assert np.array_equal(label_histogram(ds), [1, 2, 2, 0])
    assert np.array_equal(label_histogram(ds, np.array([0, 3])), [1, 0, 1, 0])


# --- synthetic blobs --------------------------------------------------------


def test_blobs_shapes_and_class_major_order():
    blobs = BlobsConfig(num_classes=3, input_dim=2, spread=0.1)
    ds = synthetic_blobs(blobs, 10, np.random.default_rng(0))
    assert len(ds) == 30
    assert ds.input_dim == 2
    assert ds.num_classes == 3
    assert np.array_equal(ds.labels, np.repeat([0, 1, 2], 10))


def test_blobs_zero_spread_sits_on_lattice_means():
    blobs = BlobsConfig(num_classes=3, input_dim=2, spread=0.0)
    ds = synthetic_blobs(blobs, 2, np.random.default_rng(0))
    # first three row-major points of the {0,1}^2 lattice
    assert np.array_equal(ds.features[0:2], [[0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(ds.features[2:4], [[0.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(ds.features[4:6], [[1.0, 0.0], [1.0, 0.0]])


def test_blobs_means_at_least_unit_apart():
    blobs = BlobsConfig(num_classes=5, input_dim=3, spread=0.0)
    ds = synthetic_blobs(blobs, 1, np.random.default_rng(0))
    means = ds.features
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.linalg.norm(means[i] - means[j]) >= 1.0


def test_blobs_one_dimensional_lattice():
    blobs = BlobsConfig(num_classes=3, input_dim=1, spread=0.0)
    ds = synthetic_blobs(blobs, 1, np.random.default_rng(0))
    assert np.array_equal(ds.features.ravel(), [0.0, 1.0, 2.0])


def test_blobs_high_dimension_is_cheap():
    blobs = BlobsConfig(num_classes=10, input_dim=784, spread=0.1)
    ds = synthetic_blobs(blobs, 2, np.random.default_rng(0))
    assert ds.features.shape == (20, 784)


def test_blobs_deterministic():
    blobs = BlobsConfig(num_classes=3, input_dim=2, spread=0.3)
    a = synthetic_blobs(blobs, 5, np.random.default_rng(9))
    b = synthetic_blobs(blobs, 5, np.random.default_rng(9))
    assert np.array_equal(a.features, b.features)


def _blobs_reference(num_classes, input_dim, samples_per_class, spread, rng):
    """The textbook formula: each row is its class mean plus scaled noise."""
    side = 1
    while side**input_dim < num_classes:
        side += 1
    means = np.array(list(islice(product(range(side), repeat=input_dim), num_classes)), float)
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    noise = rng.standard_normal((labels.size, input_dim))
    return means[labels] + spread * noise


@pytest.mark.parametrize("num_classes, input_dim, samples_per_class, spread", [
    (2, 1, 7, 0.5),
    (10, 1, 3, 1.0),
    (2, 5, 4, 0.0),
    (10, 64, 20, 0.3),
    (10, 3, 1, 2.5),
])
def test_blobs_match_reference_formula(num_classes, input_dim, samples_per_class, spread):
    blobs = BlobsConfig(num_classes=num_classes, input_dim=input_dim, spread=spread)
    ds = synthetic_blobs(blobs, samples_per_class, np.random.default_rng(5))
    expected = _blobs_reference(num_classes, input_dim, samples_per_class, spread,
                                np.random.default_rng(5))
    assert np.array_equal(ds.features, expected)
    assert np.array_equal(np.signbit(ds.features), np.signbit(expected))


def test_blobs_allocate_only_their_features():
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        ds = synthetic_blobs(BlobsConfig(num_classes=10, input_dim=64, spread=0.3), 500, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ds.features.nbytes, f"peak {peak / ds.features.nbytes:.2f}x features"


# --- dirichlet partition ----------------------------------------------------


def _exact_cover(parts, n):
    merged = np.concatenate(parts)
    assert merged.size == n
    assert np.array_equal(np.sort(merged), np.arange(n))


def test_dirichlet_partition_covers_everything_once():
    labels = np.repeat([0, 1, 2], 40)
    parts = dirichlet_partition(labels, 8, 0.5, np.random.default_rng(0))
    assert len(parts) == 8
    _exact_cover(parts, 120)
    for p in parts:
        assert p.size > 0
        assert np.array_equal(p, np.sort(p))


def test_dirichlet_partition_no_empty_clients_under_tiny_alpha():
    labels = np.repeat([0, 1], 30)
    for seed in range(10):
        parts = dirichlet_partition(labels, 25, 0.05, np.random.default_rng(seed))
        _exact_cover(parts, 60)
        assert all(p.size >= 1 for p in parts)
    # as many samples as clients: stealing from the largest always finds a
    # donor with two or more, and every client ends with exactly one
    labels = np.repeat([0, 1, 2], 7)
    for seed in range(20):
        parts = dirichlet_partition(labels, 21, 0.01, np.random.default_rng(seed))
        assert [p.size for p in parts] == [1] * 21
        _exact_cover(parts, 21)


def test_dirichlet_partition_alpha_controls_skew():
    labels = np.repeat([0, 1, 2], 200)
    rng = np.random.default_rng(3)
    skewed = dirichlet_partition(labels, 10, 0.1, rng)
    rng = np.random.default_rng(3)
    flat = dirichlet_partition(labels, 10, 100.0, rng)
    assert max(p.size for p in skewed) > max(p.size for p in flat)
    # high alpha concentrates sizes near the uniform share of 60
    assert max(abs(p.size - 60) for p in flat) < 30


def test_dirichlet_partition_deterministic():
    labels = np.repeat([0, 1], 50)
    a = dirichlet_partition(labels, 5, 0.5, np.random.default_rng(1))
    b = dirichlet_partition(labels, 5, 0.5, np.random.default_rng(1))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def test_dirichlet_partition_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        dirichlet_partition(np.array([0, 1]), 3, 0.5, rng)
    with pytest.raises(ValueError):
        dirichlet_partition(np.array([0, 1]), 2, 0.0, rng)
    with pytest.raises(ValueError):
        dirichlet_partition(np.array([]), 1, 0.5, rng)
    with pytest.raises(ValueError, match="^num_clients must be >= 1, got 0$"):
        dirichlet_partition(np.array([0, 1]), 0, 0.5, rng)


@pytest.mark.parametrize("partition, arg", [(dirichlet_partition, 0.5),
                                            (power_law_two_class_partition, 1.2)])
def test_partitioners_refuse_non_integer_and_negative_labels(partition, arg):
    rng = np.random.default_rng(0)
    for labels in (np.array([0.0, 1.0, 1.0]), np.array([False, True, True])):
        with pytest.raises(ValueError, match="labels must be integers"):
            partition(labels, 2, arg, rng)
    with pytest.raises(ValueError, match="labels must be non-negative"):
        partition(np.array([0, 1, -1]), 2, arg, rng)
    # any integer dtype is accepted and gives the int64 result
    labels = np.repeat(np.arange(3), 20)
    for dtype in (np.uint8, np.int32, np.uint64):
        narrow = partition(labels.astype(dtype), 4, arg, np.random.default_rng(5))
        wide = partition(labels, 4, arg, np.random.default_rng(5))
        for a, b in zip(narrow, wide):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)


def _dirichlet_reference(labels, num_clients, alpha, rng):
    """Dirichlet partition built from per-client lists of pieces."""
    assigned = [[] for _ in range(num_clients)]
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


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.one_of(st.integers(0, 3), st.integers(4, 150)), min_size=1, max_size=12),
    num_clients=st.integers(1, 60),
    alpha=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(counts=[3, 2], num_clients=5, alpha=0.01, seed=0)  # every client but one steals
@example(counts=[0, 0, 40], num_clients=60, alpha=10.0, seed=1)  # absent classes
def test_dirichlet_partition_matches_list_reference(counts, num_clients, alpha, seed):
    labels = np.repeat(np.arange(len(counts)), counts)
    np.random.default_rng(seed).shuffle(labels)
    assume(labels.size >= num_clients)
    try:
        expected = _dirichlet_reference(labels, num_clients, alpha, np.random.default_rng(seed))
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            dirichlet_partition(labels, num_clients, alpha, np.random.default_rng(seed))
        assert str(raised.value) == str(exc)
        return
    parts = dirichlet_partition(labels, num_clients, alpha, np.random.default_rng(seed))
    assert len(parts) == len(expected)
    for part, ref in zip(parts, expected):
        assert part.dtype == ref.dtype == np.int64 and np.array_equal(part, ref)


# --- power-law two-class partition ------------------------------------------


def test_power_law_pairs_cycle_lexicographically():
    labels = np.repeat([0, 1, 2], 100)
    parts = power_law_two_class_partition(labels, 4, 1.2, np.random.default_rng(0))
    pair_order = [(0, 1), (0, 2), (1, 2), (0, 1)]
    for part, expected in zip(parts, pair_order):
        present = tuple(sorted(set(labels[part].tolist())))
        assert present == expected


def test_power_law_sizes_follow_rank_profile():
    labels = np.repeat([0, 1], 500)
    n_clients, exponent = 6, 1.2
    parts = power_law_two_class_partition(labels, n_clients, exponent, np.random.default_rng(1))
    weights = np.arange(1, n_clients + 1, dtype=float) ** (-exponent)
    expected = np.maximum(2, np.rint(weights / weights.sum() * 1000))
    sizes = np.array([p.size for p in parts], dtype=float)
    assert np.all(sizes[:-1] >= sizes[1:])
    assert np.max(np.abs(sizes - expected)) <= 2


def test_power_law_exponent_zero_is_near_uniform():
    labels = np.repeat([0, 1], 120)
    parts = power_law_two_class_partition(labels, 8, 0.0, np.random.default_rng(2))
    sizes = [p.size for p in parts]
    assert max(sizes) - min(sizes) <= 1


def test_power_law_refuses_a_negative_exponent():
    labels = np.repeat([0, 1], 10)
    with pytest.raises(ValueError, match="^exponent must be non-negative and finite, got -0.5$"):
        power_law_two_class_partition(labels, 4, -0.5, np.random.default_rng(0))


def test_power_law_leaves_the_tail_classes_partly_unassigned():
    # the shape of the wide_comm benchmark workload: the head clients use up
    # classes 0-4, and nobody takes the 552 samples left in classes 5-9
    labels = np.repeat(np.arange(10), 400)
    for seed in (0, 3, 17):
        parts = power_law_two_class_partition(labels, 200, 1.2, np.random.default_rng(seed))
        assigned = np.concatenate(parts)
        assert assigned.size == np.unique(assigned).size == 3448
        per_class = np.bincount(labels[assigned], minlength=10)
        assert per_class[:5].tolist() == [400] * 5
        assert per_class[5:].sum() == 2000 - 552


def test_power_law_disjoint_and_minimum_per_class():
    labels = np.repeat([0, 1, 2, 3], 50)
    parts = power_law_two_class_partition(labels, 10, 1.5, np.random.default_rng(3))
    merged = np.concatenate(parts)
    assert merged.size == np.unique(merged).size  # no index reused
    for part in parts:
        counts = np.bincount(labels[part], minlength=4)
        assert np.count_nonzero(counts) == 2
        assert counts[counts > 0].min() >= 1


def _power_law_reference(labels, num_clients, exponent, rng):
    """Power-law partition moving one sample at a time between Python lists."""
    present = np.unique(labels)
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
    targets = np.maximum(2, np.rint(weights / weights.sum() * labels.size).astype(np.int64))
    parts = [[] for _ in range(num_clients)]
    for i, (a, b) in enumerate(pair_of):
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


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.one_of(st.integers(0, 3), st.integers(4, 150)), min_size=2, max_size=12),
    num_clients=st.integers(1, 60),
    exponent=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
@example(counts=[4, 1], num_clients=3, exponent=1.2, seed=0)  # class 1 cannot supply 3 clients
def test_power_law_matches_list_reference(counts, num_clients, exponent, seed):
    labels = np.repeat(np.arange(len(counts)), counts)
    np.random.default_rng(seed).shuffle(labels)
    assume(np.count_nonzero(counts) >= 2 and labels.size >= num_clients)
    try:
        expected = _power_law_reference(labels, num_clients, exponent, np.random.default_rng(seed))
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            power_law_two_class_partition(labels, num_clients, exponent,
                                          np.random.default_rng(seed))
        assert str(raised.value) == str(exc)
        return
    parts = power_law_two_class_partition(labels, num_clients, exponent,
                                          np.random.default_rng(seed))
    assert len(parts) == len(expected)
    for part, ref in zip(parts, expected):
        assert part.dtype == ref.dtype and np.array_equal(part, ref)


def test_power_law_insufficient_singleton_class():
    labels = np.array([0, 0, 0, 0, 1])
    with pytest.raises(ValueError):
        power_law_two_class_partition(labels, 3, 1.2, np.random.default_rng(0))


def test_power_law_needs_two_classes():
    with pytest.raises(ValueError):
        power_law_two_class_partition(np.zeros(10, dtype=int), 2, 1.2, np.random.default_rng(0))


# --- IDX loader --------------------------------------------------------------


def _write_idx_pair(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801,
                    truncate_images=0, truncate_labels=0, label_count=None):
    n, rows, cols = pixels.shape
    img = struct.pack(">IIII", image_magic, n, rows, cols) + pixels.astype(np.uint8).tobytes()
    if truncate_images:
        img = img[:-truncate_images]
    lab = struct.pack(">II", label_magic, label_count if label_count is not None else len(labels))
    lab += bytes(labels)
    if truncate_labels:
        lab = lab[:-truncate_labels]
    img_path, lab_path = tmp_path / "img.idx", tmp_path / "lab.idx"
    img_path.write_bytes(img)
    lab_path.write_bytes(lab)
    return str(img_path), str(lab_path)


def test_load_idx_roundtrip(tmp_path):
    pixels = np.array(
        [[[0, 51], [102, 255]], [[255, 204], [153, 0]]], dtype=np.uint8
    )
    img, lab = _write_idx_pair(tmp_path, pixels, [1, 0])
    ds = load_idx(img, lab)
    assert len(ds) == 2
    assert ds.input_dim == 4
    assert ds.num_classes == 2
    assert np.array_equal(ds.labels, [1, 0])
    assert np.allclose(ds.features[0], [0.0, 51 / 255, 102 / 255, 1.0])
    assert ds.features.max() <= 1.0 and ds.features.min() >= 0.0


def test_load_idx_bad_image_magic(tmp_path):
    pixels = np.zeros((1, 2, 2), dtype=np.uint8)
    img, lab = _write_idx_pair(tmp_path, pixels, [0], image_magic=0x804)
    with pytest.raises(IdxParseError, match="magic"):
        load_idx(img, lab)


def test_load_idx_bad_label_magic(tmp_path):
    pixels = np.zeros((1, 2, 2), dtype=np.uint8)
    img, lab = _write_idx_pair(tmp_path, pixels, [0], label_magic=0x802)
    with pytest.raises(IdxParseError, match="magic"):
        load_idx(img, lab)


def test_load_idx_truncated_images(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    img, lab = _write_idx_pair(tmp_path, pixels, [0, 1], truncate_images=3)
    with pytest.raises(IdxParseError, match=re.escape(img) + ": .*truncated"):
        load_idx(img, lab)


def test_load_idx_truncated_labels(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    img, lab = _write_idx_pair(tmp_path, pixels, [0, 1], truncate_labels=1)
    with pytest.raises(IdxParseError, match=re.escape(lab) + ": .*truncated"):
        load_idx(img, lab)


def test_load_idx_count_mismatch(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    img, lab = _write_idx_pair(tmp_path, pixels, [0, 1, 1], label_count=3)
    with pytest.raises(IdxParseError, match="mismatch"):
        load_idx(img, lab)


def test_load_idx_no_samples(tmp_path):
    img, lab = _write_idx_pair(tmp_path, np.zeros((0, 2, 2), dtype=np.uint8), [])
    with pytest.raises(IdxParseError, match="no samples"):
        load_idx(img, lab)


def test_load_idx_truncated_header(tmp_path):
    img_path = tmp_path / "img.idx"
    img_path.write_bytes(b"\x00\x00")
    lab_path = tmp_path / "lab.idx"
    lab_path.write_bytes(struct.pack(">II", 0x801, 0))
    with pytest.raises(IdxParseError, match="header"):
        load_idx(str(img_path), str(lab_path))


def test_load_idx_reads_the_body_without_a_copy(tmp_path):
    pixels = np.random.default_rng(0).integers(0, 256, size=(2000, 28, 28), dtype=np.uint8)
    img, lab = _write_idx_pair(tmp_path, pixels, [i % 10 for i in range(2000)])
    file_bytes = 16 + pixels.size
    tracemalloc.start()
    try:
        ds = load_idx(img, lab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ds.features, pixels.reshape(2000, -1) / 255.0)
    assert peak < ds.features.nbytes + 1.5 * file_bytes, (
        f"peak {peak} B: features {ds.features.nbytes} B, file {file_bytes} B"
    )
