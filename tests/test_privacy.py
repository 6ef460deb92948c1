"""Privacy: sensitivity branches, threshold epoch, Laplace mechanism."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from test_models import reference_l1_distance
from test_quantize import FixedUniforms

from fedqdp import rng as streams
from fedqdp.models import ModelSpec, ParamSet, init_params, loss_and_grad
from fedqdp.privacy import (
    BatchTrace,
    DpConfig,
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
    # every saturated bound is at least 2 xi, which must stay finite
    DpConfig(epsilon=1.0, xi=sys.float_info.max / 2)
    with pytest.raises(ValueError, match=r"xi=1e\+308 overflows"):
        DpConfig(epsilon=1.0, xi=1e308)


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
    """Direct transcription of the three-branch bound. The geometric branch
    is evaluated in exact rationals from the float product lam * eta, so it
    keeps its value when 1 + lam * eta rounds to 1, which never crosses
    1 + n."""
    if lam == 0.0:
        return 2.0 * xi * epochs * eta / n
    e0 = exhaustive_e0(lam, eta, n) if 1.0 + lam * eta > 1.0 else math.inf
    if epochs < e0:
        growth = 1 + Fraction(lam * eta)
        return float(Fraction(2.0 * xi) / (Fraction(lam) * n) * (growth**epochs - 1))
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


def test_sensitivity_saturates_when_the_growth_power_overflows():
    # 3.0 ** 1000 is past every float; 3 ** 5 = 243 is the first power
    # reaching 1 + n = 101, so e0 = 5 and 2 + 2 * 0.5 * (1000 - 5) = 997
    assert sensitivity(4.0, 0.5, 1000, 100, 1.0) == 997.0
    assert sensitivity(4.0, 0.5, 1000, 100, 1.0) == oracle_sensitivity(4.0, 0.5, 1000, 100, 1.0)


@pytest.mark.parametrize(
    "lam, eta, epochs, n, xi",
    [
        (1e-17, 0.1, 5, 100, 100.0),  # 1 + lam * eta rounds to 1
        (1e-17, 1e-4, 10_000, 10**18, 1.0),
        (1e-300, 1e-30, 5, 100, 100.0),  # lam * eta itself rounds to 0
        (1e6, 10.0, 10_000, 100, 1.0),  # (1 + 1e7)^1e4 is past every float
        (1e6, 10.0, 10_000, 10**18, 1.0),
        (1.0, 0.1, 434, 10**18, 1.0),  # e0 = 435, the last geometric epoch
        (1.0, 0.1, 435, 10**18, 1.0),
        (1.0, 0.1, 435, 10**18 - 1, 1.0),
        (1e-3, 1.0, 41_468, 10**18, 2.0),  # e0 = 41,468 from a log ratio
        (2.0, 0.5, 60, 2**60, 1.0),  # 1.0 + n rounds to 2^60, which 2^60 reaches
        (4.0, 1.0, 3, 124, 1.0),  # log(125) / log(5) rounds up past e0 = 3
        (0.983720759242336, 1.0, 53, 5840748715194042, 1.0),  # the log ratio gives 53, e0 is 54
        (1e-310, 1e10, 5, 100, 100.0),  # 2 xi / (lam n) overflows, lam * eta = 1e-300
        (1e-9, 1e6, 2, 1, 1e300),  # 2 xi / (lam n) overflows, bound 4.002e306
    ],
)
def test_sensitivity_and_e0_match_the_oracles_at_the_float_edges(lam, eta, epochs, n, xi):
    got = sensitivity(lam, eta, epochs, n, xi)
    want = oracle_sensitivity(lam, eta, epochs, n, xi)
    assert abs(got - want) <= 1e-8 * want
    if 1.0 + lam * eta > 1.0:
        assert compute_e0(lam, eta, n) == exhaustive_e0(lam, eta, n)
    else:
        with pytest.raises(ValueError, match="growth factor"):
            compute_e0(lam, eta, n)


def test_sensitivity_tiny_lambda_meets_the_flat_limit():
    """Below lambda_i of about 1e-308, 2 xi / (lambda_i n) overflows before
    the growth term scales it down; the bound is still the flat limit."""
    flat = 2.0 * 100.0 * 5 * 0.1 / 100
    for lam in (1e-310, 1e-320, 5e-324):
        assert abs(sensitivity(lam, 0.1, 5, 100, 100.0) - flat) <= 1e-12 * flat
    # where the geometric expression stays finite it is what runs
    geometric = (2.0 * 100.0 / (1e-307 * 100)) * float(np.expm1(5 * np.log1p(1e-307 * 0.1)))
    assert sensitivity(1e-307, 0.1, 5, 100, 100.0) == geometric


def test_sensitivity_validation():
    with pytest.raises(ValueError, match="lambda_i"):
        sensitivity(-1.0, 0.1, 5, 100, 100.0)
    with pytest.raises(ValueError, match="lambda_i"):
        sensitivity(np.inf, 0.1, 5, 100, 100.0)
    # a bound past the float range: saturated, 2 xi alone is past it
    with pytest.raises(ValueError, match=r"sensitivity overflows at eta=.*, xi=1e\+308"):
        sensitivity(1e6, 10.0, 10, 100, 1e308)


def test_sensitivity_near_the_float_maximum_is_finite():
    """2 xi overflows for xi = 1e308, and 2 xi E for xi = 1e307 and E = 100,
    but flat and geometric bounds below the float maximum are returned."""
    # flat: 2 * 1e308 * 5 * 0.1 / 1 and 2 * 1e307 * 100 * 0.01 / 1
    assert abs(sensitivity(0.0, 0.1, 5, 1, 1e308) - 1e308) <= 1e-12 * 1e308
    assert abs(sensitivity(0.0, 0.01, 100, 1, 1e307) - 2e307) <= 1e-12 * 2e307
    # geometric: 2 * 1e308 / (0.1 * 100) * (1.01^2 - 1) = 2e307 * 0.0201
    want = 4.02e305
    assert abs(sensitivity(0.1, 0.1, 2, 100, 1e308) - want) <= 1e-12 * want


# --- smoothness estimate ---------------------------------------------------


def _ps(*values):
    return ParamSet({"w": np.array(values, dtype=float)})


def test_batch_trace_hand_built():
    trace = BatchTrace()
    trace.record(_ps(1.0, 0.0), _ps(0.0, 0.0), 0)
    trace.record(_ps(2.0, 0.0), _ps(1.0, 0.0), 1)
    trace.record(_ps(1.5, 0.0), _ps(0.5, 0.0), 0)  # |dg|=0.5, |dp|=0.5 -> 1.0
    trace.record(_ps(5.0, 0.0), _ps(2.0, 0.0), 1)  # |dg|=3.0, |dp|=1.0 -> 3.0
    assert trace.estimate == 3.0


def test_batch_trace_skips_zero_denominator():
    trace = BatchTrace()
    trace.record(_ps(1.0), _ps(2.0), 0)
    trace.record(_ps(9.0), _ps(2.0), 0)  # same params, skipped
    assert trace.estimate == 0.0


def test_batch_trace_empty_and_single_epoch():
    assert BatchTrace().estimate == 0.0
    trace = BatchTrace()
    trace.record(_ps(1.0), _ps(0.0), 0)
    trace.record(_ps(3.0), _ps(1.0), 1)
    assert trace.estimate == 0.0


def test_batch_trace_matches_all_pairs_oracle():
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
        reference_l1_distance(g1, g2) / reference_l1_distance(p1, p2)
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
    want = max(reference_l1_distance(g1, g2) / reference_l1_distance(p1, p2)
               for (g1, p1), (g2, p2) in zip(epochs[0], epochs[1]))
    assert trace.estimate == want


# --- noise scale and sampling ----------------------------------------------


def test_noise_scale_participation_factor():
    dp = DpConfig(epsilon=2.0, xi=1.0)
    # (5 * 1000) / (50 * 5) = 20 expected participations per epoch
    assert noise_scale(3.0, dp, 5, 1000, 50, 5) == 20.0 * 3.0 / 2.0


def test_noise_scale_validation():
    with pytest.raises(ValueError, match="noise scale overflows at epsilon=5e-324"):
        noise_scale(np.float64(1.0), DpConfig(epsilon=5e-324, xi=1.0), 1, 1, 1, 1)


def test_laplace_noise_zero_scale_is_exact_zero():
    like = ParamSet({"w": np.ones((3, 2)), "b": np.ones(3)})
    noise = laplace_noise(0.0, like, np.random.default_rng(0))
    for name in noise.layout.names:
        assert np.all(noise[name] == 0.0)


def test_laplace_noise_shapes_and_determinism():
    like = ParamSet({"w": np.zeros((4, 3)), "b": np.zeros(4)})
    a = laplace_noise(1.5, like, streams.substream(7, 6, 0, 1))
    b = laplace_noise(1.5, like, streams.substream(7, 6, 0, 1))
    c = laplace_noise(1.5, like, streams.substream(7, 6, 0, 2))
    assert a["w"].shape == (4, 3) and a["b"].shape == (4,)
    for name in a.layout.names:
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
    for name in like.layout.names:
        want = laplace_noise(0.7, ParamSet({name: like[name]}), rng)[name]
        assert np.array_equal(noise[name], want)


def _noise_from(uniforms, scale):
    """laplace_noise over exactly these uniforms on [0, 1]."""
    like = ParamSet({"w": np.zeros(len(uniforms))})
    return laplace_noise(scale, like, FixedUniforms(uniforms))["w"]


def test_laplace_kernel_boundary_is_finite():
    # uniforms 1 and 0 put |u| at the closed end of the interval, which
    # must not produce inf; uniform 1/2 is u = 0
    out = _noise_from([1.0, 0.0, 0.5], 1.0)
    assert np.all(np.isfinite(out))
    assert out[2] == 0.0


def test_laplace_kernel_equals_out_of_place_formula():
    def reference(u, scale):
        inner = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(np.float64).tiny)
        return -scale * np.sign(u) * np.log(inner)

    edge = np.array([0.0, 0.5, 1.0, np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)])
    draws = np.random.default_rng(13).random(10_000)
    for uniforms in (edge, draws):
        for scale in (1.0, 0.37, 2.5e3):
            assert np.array_equal(_noise_from(uniforms, scale), reference(uniforms - 0.5, scale))


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
        laplace_noise(np.inf, like, np.random.default_rng(0))
