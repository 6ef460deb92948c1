"""Quantizer: scales, stochastic rounding, roundtrip bounds, unbiasedness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedqdp.models import ModelSpec, ParamSet, init_params
from fedqdp.quantize import (
    QuantizedTensor,
    _round_clip,
    clip_int,
    dequantize,
    dequantize_params,
    quantize,
    quantize_params,
    scale_factor,
    stochastic_round,
)


def test_scale_factor_examples():
    assert scale_factor(1.0, 8) == 127.0
    assert scale_factor(0.0, 8) == 1.0
    assert scale_factor(2.0, 2) == 0.5  # (2^1 - 1) / 2
    assert scale_factor(1.0, 32) == float(2**31 - 1)


def test_scale_factor_validation():
    with pytest.raises(ValueError):
        scale_factor(-1.0, 8)
    with pytest.raises(ValueError):
        scale_factor(np.inf, 8)
    with pytest.raises(ValueError):
        scale_factor(1.0, 1)
    with pytest.raises(ValueError):
        scale_factor(1.0, 33)
    with pytest.raises(ValueError):
        scale_factor(1.0, 8.5)


def test_stochastic_round_integers_fixed():
    rng = np.random.default_rng(0)
    for v in (-3.0, 0.0, 5.0, 127.0):
        for _ in range(50):
            assert stochastic_round(v, rng) == int(v)


def test_stochastic_round_lands_on_neighbours():
    rng = np.random.default_rng(1)
    draws = {stochastic_round(2.3, rng) for _ in range(500)}
    assert draws == {2, 3}
    draws = {stochastic_round(-2.3, rng) for _ in range(500)}
    assert draws == {-3, -2}


def test_stochastic_round_mean_matches_value():
    rng = np.random.default_rng(2)
    trials = 100_000
    mean = np.mean([stochastic_round(0.3, rng) for _ in range(trials)])
    # 4 sigma of a Bernoulli(0.3) mean over 1e5 trials
    assert abs(mean - 0.3) < 4 * np.sqrt(0.3 * 0.7 / trials)


def test_stochastic_round_rejects_non_finite():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        stochastic_round(np.nan, rng)


def test_round_clip_handles_boundary_uniform():
    # u exactly 0 rounds integers down to themselves, never up
    scaled = np.array([2.0, -2.0, 2.5])
    u = np.zeros(3)
    out = _round_clip(scaled, u, 127)
    assert np.array_equal(out, [2, -2, 3])  # frac 0.5 > u=0 rounds up


def test_clip_int_examples():
    assert clip_int(130, 8) == 127
    assert clip_int(-130, 8) == -127
    assert clip_int(100, 8) == 100
    assert clip_int(2, 2) == 1
    assert clip_int(-5, 2) == -1
    assert clip_int(2**40, 32) == 2**31 - 1


def test_quantize_codes_within_range_and_dtype():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((7, 5)) * 10
    q = quantize(t, 8, rng)
    assert q.codes.dtype == np.int64
    assert q.shape == (7, 5)
    assert q.codes.min() >= -127 and q.codes.max() <= 127
    assert q.bits == 8


def test_quantize_zero_tensor():
    rng = np.random.default_rng(4)
    q = quantize(np.zeros((3, 3)), 8, rng)
    assert q.scale == 1.0
    assert np.all(q.codes == 0)
    assert np.array_equal(dequantize(q), np.zeros((3, 3)))


def test_quantize_validation():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        quantize(np.array([1.0, np.nan]), 8, rng)
    with pytest.raises(ValueError):
        quantize(np.ones(3), 1, rng)
    with pytest.raises(ValueError):
        quantize(np.ones(3), 64, rng)


def test_quantized_tensor_validation():
    with pytest.raises(ValueError):
        QuantizedTensor(shape=(2,), codes=np.array([1, 200], dtype=np.int64), bits=8, scale=1.0)
    with pytest.raises(ValueError):
        QuantizedTensor(shape=(3,), codes=np.array([1, 2], dtype=np.int64), bits=8, scale=1.0)
    with pytest.raises(ValueError):
        QuantizedTensor(shape=(2,), codes=np.array([1, 2], dtype=np.int64), bits=8, scale=0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8, 16, 32]))
def test_roundtrip_error_bounded_by_one_over_scale(seed, bits):
    rng = np.random.default_rng(seed)
    t = rng.uniform(-5, 5, size=17)
    q = quantize(t, bits, rng)
    err = np.abs(dequantize(q) - t)
    # 1e-12 relative slack absorbs the float evaluation of x * scale
    assert err.max() <= (1.0 + 1e-12) / q.scale


def test_extreme_elements_roundtrip_exactly():
    rng = np.random.default_rng(6)
    t = np.array([1.0, -1.0, 0.5])
    q = quantize(t, 8, rng)
    dq = dequantize(q)
    # +-alpha scale to exactly +-(2^(b-1)-1), which dequantizes exactly
    assert dq[0] == 1.0 and dq[1] == -1.0


def test_quantize_matches_scalar_ops_elementwise():
    """The vectorized path equals scale + stochastic_round + clip_int
    element by element on a shared stream."""
    t = np.array([0.913, -0.204, 0.555, -0.999, 0.001, 0.25])
    bits = 8
    q = quantize(t, bits, np.random.default_rng(99))
    rng = np.random.default_rng(99)
    s = scale_factor(np.abs(t).max(), bits)
    expected = [clip_int(stochastic_round(v * s, rng), bits) for v in t]
    assert q.scale == s
    assert np.array_equal(q.codes, expected)


def test_quantize_unbiased_on_fixed_element():
    rng = np.random.default_rng(7)
    x, alpha = 0.37, 1.0
    trials = 50_000
    t = np.full(trials + 1, x)
    t[0] = alpha
    q = quantize(t, 4, rng)
    dq = dequantize(q)[1:]
    s = q.scale
    sigma_mean = (1.0 / (2 * s)) / np.sqrt(trials)
    assert abs(dq.mean() - x) < 5 * sigma_mean


def test_quantize_deterministic_per_stream():
    t = np.random.default_rng(8).standard_normal(50)
    a = quantize(t, 8, np.random.default_rng(123))
    b = quantize(t, 8, np.random.default_rng(123))
    c = quantize(t, 8, np.random.default_rng(124))
    assert np.array_equal(a.codes, b.codes)
    assert not np.array_equal(a.codes, c.codes)


def test_quantize_params_preserves_order_and_scales():
    params = ParamSet({"w": np.array([[2.0, -1.0]]), "b": np.array([0.25])})
    q = quantize_params(params, 8, np.random.default_rng(9))
    assert q.names == ("w", "b")
    assert q.bits == 8
    scales = dict(q.entries)
    assert scales["w"].scale == 127.0 / 2.0
    assert scales["b"].scale == 127.0 / 0.25
    back = dequantize_params(q)
    assert back.names == ("w", "b")
    assert back["w"].shape == (1, 2)
    for name, value in params.items():
        assert np.max(np.abs(back[name] - value)) <= (1.0 + 1e-12) / scales[name].scale


def test_quantize_params_empty():
    q = quantize_params(ParamSet({}), 8, np.random.default_rng(0))
    assert q.entries == ()
    assert dequantize_params(q).names == ()


def test_quantize_params_single_stream_is_order_sensitive():
    """Both tensors draw from one stream, so the result is a pure function
    of generator state."""
    params = ParamSet({"w": np.full(4, 0.3), "b": np.full(4, 0.3)})
    a = quantize_params(params, 2, np.random.default_rng(10))
    b = quantize_params(params, 2, np.random.default_rng(10))
    for (_, qa), (_, qb) in zip(a.entries, b.entries):
        assert np.array_equal(qa.codes, qb.codes)


def test_quantize_params_equals_per_tensor_quantize():
    """The flat path gives the codes and scales of quantize() applied tensor
    by tensor on one generator, all-zero and empty tensors included."""
    base = init_params(ModelSpec("mlp", input_dim=5, num_classes=3, hidden_dim=7),
                       np.random.default_rng(11))
    mlp = ParamSet({"w1": base["w1"], "b1": np.linspace(-0.3, 0.2, 7), "w2": base["w2"],
                    "b2": np.zeros(3)})
    ragged = ParamSet({"a": np.zeros(0), "b": [0.5, -2.0], "c": np.zeros((2, 0))})
    for params in (mlp, ragged):
        for bits in (2, 8, 32):
            q = quantize_params(params, bits, np.random.default_rng(12))
            rng = np.random.default_rng(12)
            for (name, qt), (_, value) in zip(q.entries, params.items(), strict=True):
                ref = quantize(value, bits, rng)
                assert qt.shape == ref.shape
                assert qt.scale == ref.scale
                assert np.array_equal(qt.codes, ref.codes)
                assert np.array_equal(dequantize_params(q)[name], dequantize(ref))
