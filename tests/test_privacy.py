"""Privacy: sensitivity branches, threshold epoch, Laplace mechanism."""

import numpy as np
import pytest

from fedqdp import rng as streams
from fedqdp.models import ModelSpec, ParamSet, init_params, l1_norm, loss_and_grad
from fedqdp.privacy import (
    BatchTrace,
    DpConfig,
    _laplace_from_uniform,
    compute_e0,
    laplace_noise,
    noise_scale,
    sensitivity,
)


def test_dp_config_validation():
    DpConfig(epsilon=1.0, xi=1.0)
    with pytest.raises(ValueError):
        DpConfig(epsilon=0.0, xi=1.0)
    with pytest.raises(ValueError):
        DpConfig(epsilon=1.0, xi=-1.0)


def test_round_scaling_validation():
    # the participation counts noise_scale spreads the budget over
    dp = DpConfig(epsilon=1.0, xi=1.0)
    noise_scale(1.0, dp, participants=5, rounds=10, num_clients=50, local_epochs=5)
    with pytest.raises(ValueError, match="participants"):
        noise_scale(1.0, dp, participants=51, rounds=10, num_clients=50, local_epochs=5)
    with pytest.raises(ValueError, match="participants"):
        noise_scale(1.0, dp, participants=0, rounds=10, num_clients=50, local_epochs=5)
    with pytest.raises(ValueError, match="rounds"):
        noise_scale(1.0, dp, participants=1, rounds=0, num_clients=1, local_epochs=5)
    with pytest.raises(ValueError, match="num_clients"):
        noise_scale(1.0, dp, participants=1, rounds=1, num_clients=0, local_epochs=5)
    with pytest.raises(ValueError, match="local_epochs"):
        noise_scale(1.0, dp, participants=1, rounds=1, num_clients=1, local_epochs=0)


# --- threshold epoch -------------------------------------------------------


def exhaustive_e0(lam, eta, n):
    """Smallest e with (1 + lam*eta)^e >= 1 + n, by linear search."""
    growth = 1.0 + lam * eta
    e = 0
    while growth**e < 1.0 + n:
        e += 1
    return e


def test_compute_e0_examples():
    # growth 2 needs 3 doublings to reach 8
    assert compute_e0(10.0, 0.1, 7) == 3
    assert compute_e0(10.0, 0.1, 8) == 4  # target 9 > 8
    assert compute_e0(1000.0, 1.0, 1) == 1


def test_compute_e0_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    for _ in range(200):
        lam = 10.0 ** rng.uniform(-2, 1)
        eta = 10.0 ** rng.uniform(-1, 0)
        n = int(rng.integers(1, 10_000))
        assert compute_e0(lam, eta, n) == exhaustive_e0(lam, eta, n)


def test_compute_e0_validation():
    with pytest.raises(ValueError):
        compute_e0(0.0, 0.1, 10)
    with pytest.raises(ValueError):
        compute_e0(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        compute_e0(1e-300, 0.1, 10)  # growth rounds to exactly 1


# --- sensitivity -----------------------------------------------------------


def oracle_sensitivity(lam, eta, epochs, n, xi):
    """Direct transcription of the three-branch bound."""
    if lam == 0.0:
        return 2.0 * xi * epochs * eta / n
    growth = 1.0 + lam * eta
    e0 = exhaustive_e0(lam, eta, n)
    if epochs < e0:
        return (2.0 * xi / (lam * n)) * (growth**epochs - 1.0)
    return 2.0 * xi + 2.0 * eta * xi * (epochs - e0)


def test_sensitivity_flat_gradient_branch():
    # 2 * 100 * 5 * 0.1 / 100
    assert sensitivity(0.0, 0.1, 5, 100, 100.0) == 1.0


def test_sensitivity_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(1)
    checked = {1: 0, 2: 0, 3: 0}
    for _ in range(1000):
        lam = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-2, 1)
        eta = 10.0 ** rng.uniform(-2, 0)
        epochs = int(rng.integers(1, 21))
        n = int(rng.integers(1, 10_000))
        xi = 10.0 ** rng.uniform(-1, 3)
        got = sensitivity(lam, eta, epochs, n, xi)
        want = oracle_sensitivity(lam, eta, epochs, n, xi)
        if lam == 0.0:
            checked[1] += 1
            assert got == want
        elif (1.0 + lam * eta) ** epochs < 1.0 + n:
            checked[2] += 1
            assert abs(got - want) <= 1e-8 * want
        else:
            checked[3] += 1
            assert abs(got - want) <= 1e-12 * max(want, 1.0)
    assert all(v > 50 for v in checked.values()), checked


def test_sensitivity_continuous_at_lambda_zero():
    base = sensitivity(0.0, 0.1, 5, 100, 100.0)
    for lam in (1e-8, 1e-10, 1e-12):
        near = sensitivity(lam, 0.1, 5, 100, 100.0)
        assert abs(near - base) <= 1e-6 * base


def test_sensitivity_validation():
    with pytest.raises(ValueError, match="lambda_i"):
        sensitivity(-1.0, 0.1, 5, 100, 100.0)
    with pytest.raises(ValueError, match="lambda_i"):
        sensitivity(np.inf, 0.1, 5, 100, 100.0)
    with pytest.raises(ValueError, match="eta"):
        sensitivity(0.0, 0.0, 5, 100, 100.0)
    with pytest.raises(ValueError, match="local_epochs"):
        sensitivity(0.0, 0.1, 0, 100, 100.0)
    with pytest.raises(ValueError, match="dataset_size"):
        sensitivity(0.0, 0.1, 5, 0, 100.0)
    with pytest.raises(ValueError, match="xi"):
        sensitivity(0.0, 0.1, 5, 100, 0.0)


# --- smoothness estimate ---------------------------------------------------


def _ps(*values):
    return ParamSet({"w": np.array(values, dtype=float)})


def test_lipschitz_estimate_hand_built():
    trace = BatchTrace()
    trace.record(_ps(1.0, 0.0), _ps(0.0, 0.0), 0)
    trace.record(_ps(2.0, 0.0), _ps(1.0, 0.0), 1)
    trace.record(_ps(1.5, 0.0), _ps(0.5, 0.0), 0)  # |dg|=0.5, |dp|=0.5 -> 1.0
    trace.record(_ps(5.0, 0.0), _ps(2.0, 0.0), 1)  # |dg|=3.0, |dp|=1.0 -> 3.0
    assert trace.estimate == 3.0


def test_lipschitz_estimate_skips_zero_denominator():
    trace = BatchTrace()
    trace.record(_ps(1.0), _ps(2.0), 0)
    trace.record(_ps(9.0), _ps(2.0), 0)  # same params, skipped
    assert trace.estimate == 0.0


def test_lipschitz_estimate_empty_and_single_epoch():
    assert BatchTrace().estimate == 0.0
    trace = BatchTrace()
    trace.record(_ps(1.0), _ps(0.0), 0)
    trace.record(_ps(3.0), _ps(1.0), 1)
    assert trace.estimate == 0.0


def test_lipschitz_estimate_matches_all_pairs_oracle():
    """Batch j is compared only with batch j of the epoch just before it,
    never with an older epoch's batch j or with another batch."""
    rng = np.random.default_rng(8)
    epochs = [[(_ps(*rng.standard_normal(3)), _ps(*rng.standard_normal(3)))
               for _ in range(3)] for _ in range(5)]
    # epoch 0's batch 1 against epoch 2's batch 1 would give a ratio of 1e6
    epochs[0][1] = (_ps(1e3, 0.0, 0.0), _ps(0.0, 0.0, 0.0))
    epochs[2][1] = (_ps(0.0, 0.0, 0.0), _ps(1e-3, 0.0, 0.0))
    trace = BatchTrace()
    for epoch in epochs:
        for j, (grad, params) in enumerate(epoch):
            trace.record(grad, params, j)
    want = max(
        l1_norm(g1 - g2) / l1_norm(p1 - p2)
        for first, second in zip(epochs, epochs[1:])
        for (g1, p1), (g2, p2) in zip(first, second)
    )
    assert want < 1e6
    assert trace.estimate == want


def test_batch_trace_builds_no_parameter_sets(monkeypatch):
    """Recording two epochs compares each batch pair without building a
    difference ParamSet."""
    spec = ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dim=5)
    rng = np.random.default_rng(12)
    epochs = []
    for _ in range(2):
        epoch = []
        for _ in range(3):
            params = init_params(spec, rng)
            x = rng.standard_normal((6, 4))
            y = rng.integers(0, 3, size=6)
            epoch.append((loss_and_grad(spec, params, x, y)[1], params))
        epochs.append(epoch)

    built = []
    original = ParamSet._init

    def counting_init(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(ParamSet, "_init", counting_init)
    trace = BatchTrace()
    for epoch in epochs:
        for j, (grad, params) in enumerate(epoch):
            trace.record(grad, params, j)
    assert trace.estimate > 0.0
    assert built == []
    monkeypatch.undo()
    want = max(l1_norm(g1 - g2) / l1_norm(p1 - p2)
               for (g1, p1), (g2, p2) in zip(epochs[0], epochs[1]))
    assert trace.estimate == want


# --- noise scale and sampling ----------------------------------------------


def test_noise_scale_participation_factor():
    dp = DpConfig(epsilon=2.0, xi=1.0)
    # (5 * 1000) / (50 * 5) = 20 expected participations per epoch
    assert noise_scale(3.0, dp, 5, 1000, 50, 5) == 20.0 * 3.0 / 2.0


def test_noise_scale_validation():
    dp = DpConfig(epsilon=1.0, xi=1.0)
    with pytest.raises(ValueError):
        noise_scale(-1.0, dp, 1, 1, 1, 1)


def test_laplace_noise_zero_scale_is_exact_zero():
    like = ParamSet({"w": np.ones((3, 2)), "b": np.ones(3)})
    noise = laplace_noise(0.0, like, np.random.default_rng(0))
    for _, v in noise.items():
        assert np.all(v == 0.0)


def test_laplace_noise_shapes_and_determinism():
    like = ParamSet({"w": np.zeros((4, 3)), "b": np.zeros(4)})
    a = laplace_noise(1.5, like, streams.substream(7, 6, 0, 1))
    b = laplace_noise(1.5, like, streams.substream(7, 6, 0, 1))
    c = laplace_noise(1.5, like, streams.substream(7, 6, 0, 2))
    assert a["w"].shape == (4, 3) and a["b"].shape == (4,)
    for name in a.names:
        assert np.array_equal(a[name], b[name])
    assert not np.array_equal(a["w"], c["w"])


def test_laplace_noise_matches_inverse_cdf_formula():
    like = ParamSet({"w": np.zeros(8)})
    scale = 2.5
    got = laplace_noise(scale, like, np.random.default_rng(3))["w"]
    u = np.random.default_rng(3).random(8) - 0.5
    want = -scale * np.sign(u) * np.log(1.0 - 2.0 * np.abs(u))
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_laplace_noise_equals_per_tensor_draws():
    like = ParamSet({"w1": np.zeros((4, 3)), "b1": np.zeros(4), "w2": np.zeros((2, 4)),
                     "b2": np.zeros(2)})
    noise = laplace_noise(0.7, like, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    for name, value in like.items():
        want = _laplace_from_uniform(rng.random(value.size) - 0.5, 0.7).reshape(value.shape)
        assert np.array_equal(noise[name], want)


def test_laplace_kernel_boundary_is_finite():
    # |u| at the closed end of the interval must not produce inf
    u = np.array([0.5, -0.5, 0.0])
    out = _laplace_from_uniform(u, 1.0)
    assert np.all(np.isfinite(out))
    assert out[2] == 0.0


def test_laplace_kernel_equals_out_of_place_formula():
    def reference(u, scale):
        inner = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(np.float64).tiny)
        return -scale * np.sign(u) * np.log(inner)

    edge = np.array([-0.5, 0.0, np.nextafter(0.5, 0.0), -np.nextafter(0.5, 0.0)])
    draws = np.random.default_rng(13).random(10_000) - 0.5
    for u in (edge, draws):
        for scale in (1.0, 0.37, 2.5e3):
            before = u.copy()
            assert np.array_equal(_laplace_from_uniform(u, scale), reference(u, scale))
            assert np.array_equal(u, before)


def test_laplace_noise_statistics():
    like = ParamSet({"w": np.zeros(200_000)})
    scale = 1.3
    noise = laplace_noise(scale, like, np.random.default_rng(4))["w"]
    # mean ~ N(0, scale*sqrt(2)/sqrt(n)); mean |x| = scale exactly
    assert abs(noise.mean()) < 4 * scale * np.sqrt(2) / np.sqrt(noise.size)
    assert abs(np.abs(noise).mean() - scale) < 0.02 * scale


def test_laplace_noise_validation():
    like = ParamSet({"w": np.zeros(2)})
    with pytest.raises(ValueError):
        laplace_noise(-1.0, like, np.random.default_rng(0))
    with pytest.raises(ValueError):
        laplace_noise(np.inf, like, np.random.default_rng(0))
