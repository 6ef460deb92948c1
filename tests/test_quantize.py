"""Quantizer: scales, stochastic rounding, roundtrip bounds, unbiasedness,
and the bit cost of a message against a bit-packed encoding."""

import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_models import names

from fedqdp.models import Layout, ModelSpec, ParamSet, init_params
from fedqdp.quantize import (
    QuantizedParamSet,
    code_dtype,
    comm_cost,
    dequantize_params,
    quantize_params,
)


# --- scalar reference ------------------------------------------------------
# One element at a time, the rule the vectorized quantizer must follow.


def stochastic_round(x: float, rng: np.random.Generator) -> int:
    """Round down with probability ceil(x) - x, up otherwise.

    Integers round to themselves; a uniform draw is consumed either way so
    scalar and vectorized rounding stay stream-compatible.
    """
    if not np.isfinite(x):
        raise ValueError(f"cannot round non-finite value {x}")
    lower = np.floor(x)
    u = rng.random()
    return int(lower) + (1 if u < x - lower else 0)


def clip_int(value: int, bits: int) -> int:
    """Clamp an integer into the symmetric signed range for the bit width."""
    bound = 2 ** (bits - 1) - 1
    return max(-bound, min(bound, int(value)))


def scale_of(alpha: float, bits: int) -> float:
    """s = (2^(b-1) - 1) / alpha for the max absolute value alpha, 1 for
    alpha = 0, and the largest finite float where the quotient overflows."""
    if alpha == 0.0:
        return 1.0
    return min(float(2 ** (bits - 1) - 1) / alpha, sys.float_info.max)


def test_scale_factor_examples():
    def scale(alpha, bits):
        q = quantize_params(ParamSet({"t": np.array([alpha / 2, -alpha])}), bits,
                            np.random.default_rng(0))
        return q.scales.tolist()

    assert scale(1.0, 8) == [127.0]
    assert scale(0.0, 8) == [1.0]
    assert scale(2.0, 2) == [0.5]  # (2^1 - 1) / 2
    assert scale(1.0, 32) == [float(2**31 - 1)]
    # a quotient that overflows is clamped; a finite one keeps its bits
    assert scale(1e-310, 8) == [sys.float_info.max]
    assert scale(1e-300, 32) == [sys.float_info.max]
    assert scale(1e-300, 8) == [127.0 / 1e-300]
    assert scale(1.3e-299, 32) == [float(2**31 - 1) / 1.3e-299]


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


class FixedUniforms:
    """Stands in for a Generator whose random(n) returns chosen uniforms,
    a fresh copy each call, as callers may write into their draw."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def test_quantize_params_handles_boundary_uniform():
    # 3 bits and max|x| = 3 give scale 1; u exactly 0 leaves integers and
    # the bound where they are, and rounds any fraction up
    q = quantize_params(ParamSet({"t": [2.0, -2.0, 2.5, -2.5, 3.0]}), 3,
                        FixedUniforms(np.zeros(5)))
    assert q.scales.tolist() == [1.0]
    assert q.codes.tolist() == [2, -2, 3, -2, 3]
    assert q.codes.dtype == np.int8
    # at 4 bits, max|x| = 0.3 scales to 7.000000000000001, one ulp past the
    # bound 7: u = 0 rounds it up to 8, and the clip brings it back to 7
    q = quantize_params(ParamSet({"t": [0.3, -0.3]}), 4, FixedUniforms(np.zeros(2)))
    assert 0.3 * q.scales[0] > 7
    assert q.codes.tolist() == [7, -7]
    # u just below 1 rounds every fraction down
    q = quantize_params(ParamSet({"t": [2.5, -2.5, 3.0]}), 3,
                        FixedUniforms(np.full(3, np.nextafter(1.0, 0.0))))
    assert q.codes.tolist() == [2, -3, 3]


def test_clip_int_examples():
    assert clip_int(130, 8) == 127
    assert clip_int(-130, 8) == -127
    assert clip_int(100, 8) == 100
    assert clip_int(2, 2) == 1
    assert clip_int(-5, 2) == -1
    assert clip_int(2**40, 32) == 2**31 - 1


def _quantize_one(tensor, bits, rng):
    """Quantize a single tensor as a one-tensor ParamSet; return the
    message and the dequantized tensor in its original shape."""
    q = quantize_params(ParamSet({"t": tensor}), bits, rng)
    return q, dequantize_params(q)["t"]


def _reference_codes(values, bits, rng):
    """Codes of one tensor from the scalar ops alone: scale_of, then
    stochastic_round and clip_int element by element."""
    flat = np.ravel(values)
    s = scale_of(float(np.abs(flat).max()) if flat.size else 0.0, bits)
    return s, [clip_int(stochastic_round(v * s, rng), bits) for v in flat]


def test_quantize_codes_within_range_and_dtype():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((7, 5)) * 10
    q, dq = _quantize_one(t, 8, rng)
    assert q.codes.dtype == np.int8
    assert dq.shape == (7, 5)
    assert q.codes.min() >= -127 and q.codes.max() <= 127
    assert q.bits == 8


def test_quantize_zero_tensor():
    rng = np.random.default_rng(4)
    q, dq = _quantize_one(np.zeros((3, 3)), 8, rng)
    assert q.scales.tolist() == [1.0]
    assert np.all(q.codes == 0)
    assert np.array_equal(dq, np.zeros((3, 3)))


@pytest.mark.parametrize("bits", [2, 8, 16, 32])
@pytest.mark.parametrize("x", [5e-324, 1e-310, 2.2e-308, 1e-300, -3e-300])
def test_quantize_tiny_tensors(bits, x):
    # below (2^(b-1) - 1) / DBL_MAX the scale quotient overflows, yet every
    # finite set must quantize, without a warning, to a valid message
    t = np.array([x, -x / 3, 0.0])
    bound = 2 ** (bits - 1) - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(20):
            q, dq = _quantize_one(t, bits, np.random.default_rng(seed))
            assert np.isfinite(q.scales).all() and (q.scales > 0).all()
            assert -bound <= q.codes.min() and q.codes.max() <= bound
            assert np.all(np.abs(dq - t) <= 1.0 / q.scales[0])


def test_quantize_validation():
    rng = np.random.default_rng(5)
    # a ParamSet refuses non-finite values, so none can reach the quantizer
    with pytest.raises(ValueError):
        ParamSet({"t": np.array([1.0, np.nan])})
    # code_dtype is the one check of a width, and quantize_params meets it first
    for bad in (1, 33, 8.5, 64, 10**6):
        with pytest.raises(ValueError, match=r"^bits must be an integer in \[2, 32\], got "):
            _quantize_one(np.ones(3), bad, rng)


def test_quantize_params_makes_a_valid_message_at_every_width():
    """quantize_params is the one maker of a QuantizedParamSet, which checks
    nothing: at every width, for zero, subnormal, huge and mixed tensors, its
    codes are flat code_dtype(bits) values in the symmetric range and its
    scales are one positive, finite value per tensor."""
    tensors = [
        np.zeros(3),
        np.array([5e-324, -5e-324]),
        np.array([1.7e308, -1.7e308, 3.0]),
        np.array([1e-310, 2e-300, -1.3e-299]),
        np.random.default_rng(14).standard_normal(50),
    ]
    for bits in range(2, 33):
        bound = 2 ** (bits - 1) - 1
        for i, first in enumerate(tensors):
            params = ParamSet({"a": first, "b": tensors[(i + 1) % len(tensors)]})
            q = quantize_params(params, bits, np.random.default_rng(bits))
            assert q.codes.dtype == code_dtype(bits)
            assert q.codes.shape == (params.layout.size,)
            # so never -2^(b-1), one past the symmetric range
            assert -bound <= q.codes.min() and q.codes.max() <= bound
            assert q.scales.shape == (2,)
            assert np.isfinite(q.scales).all() and (q.scales > 0).all()


def test_a_message_is_read_only():
    # as a ParamSet's vector is: a message cannot change once it is made
    q = quantize_params(ParamSet({"w": np.ones(4)}), 8, np.random.default_rng(0))
    with pytest.raises(ValueError, match="read-only"):
        q.codes[0] = -128
    with pytest.raises(ValueError, match="read-only"):
        q.scales[0] = 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8, 16, 32]))
def test_roundtrip_error_bounded_by_one_over_scale(seed, bits):
    rng = np.random.default_rng(seed)
    t = rng.uniform(-5, 5, size=17)
    q, dq = _quantize_one(t, bits, rng)
    err = np.abs(dq - t)
    # 1e-12 relative slack absorbs the float evaluation of x * scale
    assert err.max() <= (1.0 + 1e-12) / q.scales[0]


def test_extreme_elements_roundtrip_exactly():
    rng = np.random.default_rng(6)
    t = np.array([1.0, -1.0, 0.5])
    _, dq = _quantize_one(t, 8, rng)
    # +-alpha scale to exactly +-(2^(b-1)-1), which dequantizes exactly
    assert dq[0] == 1.0 and dq[1] == -1.0


def test_quantize_matches_scalar_ops_elementwise():
    """The vectorized path equals scale_of + stochastic_round +
    clip_int element by element on a shared stream."""
    t = np.array([0.913, -0.204, 0.555, -0.999, 0.001, 0.25])
    bits = 8
    q, _ = _quantize_one(t, bits, np.random.default_rng(99))
    s, expected = _reference_codes(t, bits, np.random.default_rng(99))
    assert q.scales.tolist() == [s]
    assert np.array_equal(q.codes, expected)


def test_quantize_unbiased_on_fixed_element():
    rng = np.random.default_rng(7)
    x, alpha = 0.37, 1.0
    trials = 50_000
    t = np.full(trials + 1, x)
    t[0] = alpha
    q, dq = _quantize_one(t, 4, rng)
    s = q.scales[0]
    sigma_mean = (1.0 / (2 * s)) / np.sqrt(trials)
    assert abs(dq[1:].mean() - x) < 5 * sigma_mean


def test_quantize_deterministic_per_stream():
    t = np.random.default_rng(8).standard_normal(50)
    a, _ = _quantize_one(t, 8, np.random.default_rng(123))
    b, _ = _quantize_one(t, 8, np.random.default_rng(123))
    c, _ = _quantize_one(t, 8, np.random.default_rng(124))
    assert np.array_equal(a.codes, b.codes)
    assert not np.array_equal(a.codes, c.codes)


def test_quantize_params_preserves_order_and_scales():
    params = ParamSet({"w": np.array([[2.0, -1.0]]), "b": np.array([0.25])})
    q = quantize_params(params, 8, np.random.default_rng(9))
    assert names(q.layout) == ("w", "b")
    assert q.bits == 8
    scales = dict(zip(names(q.layout), q.scales.tolist()))
    assert scales["w"] == 127.0 / 2.0
    assert scales["b"] == 127.0 / 0.25
    back = dequantize_params(q)
    assert names(back.layout) == ("w", "b")
    assert back["w"].shape == (1, 2)
    for name, *_ in params.layout.entries:
        assert np.max(np.abs(back[name] - params[name])) <= (1.0 + 1e-12) / scales[name]


def test_quantize_params_empty():
    q = quantize_params(ParamSet({}), 8, np.random.default_rng(0))
    assert names(q.layout) == () and q.codes.size == 0 and q.scales.size == 0
    assert names(dequantize_params(q).layout) == ()


def test_quantize_params_single_stream_is_order_sensitive():
    """Both tensors draw from one stream, so the result is a pure function
    of generator state."""
    params = ParamSet({"w": np.full(4, 0.3), "b": np.full(4, 0.3)})
    a = quantize_params(params, 2, np.random.default_rng(10))
    b = quantize_params(params, 2, np.random.default_rng(10))
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.scales, b.scales)


def test_quantize_params_equals_per_tensor_quantize():
    """The flat path gives the codes and scales that the scalar ops give
    tensor by tensor, in layout order on one generator, all-zero and empty
    tensors included."""
    base = init_params(ModelSpec("mlp", input_dim=5, num_classes=3, hidden_dim=7),
                       np.random.default_rng(11))
    mlp = ParamSet({"w1": base["w1"], "b1": np.linspace(-0.3, 0.2, 7), "w2": base["w2"],
                    "b2": np.zeros(3)})
    ragged = ParamSet({"a": np.zeros(0), "b": [0.5, -2.0], "c": np.zeros((2, 0))})
    for params in (mlp, ragged):
        for bits in (2, 8, 32):
            q = quantize_params(params, bits, np.random.default_rng(12))
            rng = np.random.default_rng(12)
            ref_scales, ref_codes = [], []
            for name, *_ in params.layout.entries:
                s, codes = _reference_codes(params[name], bits, rng)
                ref_scales.append(s)
                ref_codes += codes
            assert q.scales.tolist() == ref_scales
            assert np.array_equal(q.codes, np.array(ref_codes, dtype=np.int64))
            back = dequantize_params(q)
            start = 0
            for name, s in zip(names(params.layout), ref_scales):
                value = params[name]
                ref = np.array(ref_codes[start : start + value.size], dtype=np.float64) / s
                start += value.size
                assert np.array_equal(back[name], ref.reshape(value.shape))


def test_code_dtype_is_narrowest_signed_type():
    assert [code_dtype(b) for b in (2, 8, 9, 16, 17, 32)] == [
        np.int8, np.int8, np.int16, np.int16, np.int32, np.int32]
    for bad in (1, 33, 8.5):
        with pytest.raises(ValueError, match=r"^bits must be an integer in \[2, 32\], got "):
            code_dtype(bad)


def test_codes_held_at_metered_width_and_decode_exactly():
    """Every width from 2 to 32 gives codes of code_dtype(b), and decoding
    them equals decoding the same codes widened to int64, bit for bit."""
    params = init_params(ModelSpec("mlp", input_dim=6, num_classes=4, hidden_dim=9),
                         np.random.default_rng(13))
    for bits in range(2, 33):
        q = quantize_params(params, bits, np.random.default_rng(bits))
        assert q.codes.dtype == code_dtype(bits)
        bound = 2 ** (bits - 1) - 1
        assert np.abs(q.codes.astype(np.int64)).max() == bound  # max|x| maps to the bound
        wide = q.codes.astype(np.int64)
        expected = np.concatenate([wide[offset : offset + size] / scale
                                   for (_, _, offset, size), scale
                                   in zip(q.layout.entries, q.scales.tolist())])
        assert np.array_equal(dequantize_params(q).vector, expected)


# --- wire format -----------------------------------------------------------
# A test-only bit packer for the message comm_cost meters: per tensor, an
# 8-bit width tag, a 32-bit fp32 scale and the codes in b-bit two's
# complement, concatenated and zero-padded to whole bytes.


def pack_message(q: QuantizedParamSet) -> bytes:
    fields, mask = [], (1 << q.bits) - 1
    for (_, _, offset, size), scale in zip(q.layout.entries, q.scales.tolist()):
        fields.append(format(q.bits, "08b"))
        fields.append(format(struct.unpack(">I", struct.pack(">f", scale))[0], "032b"))
        fields += [format(c & mask, f"0{q.bits}b") for c in q.codes[offset : offset + size].tolist()]
    stream = "".join(fields)
    stream += "0" * (-len(stream) % 8)
    return int(stream, 2).to_bytes(len(stream) // 8, "big")


def unpack_message(data: bytes, layout: Layout) -> tuple[list[int], list[int], int]:
    """(codes in layout order, the width tag of each tensor, bits read)."""
    stream = format(int.from_bytes(data, "big"), f"0{len(data) * 8}b")
    pos, codes, widths = 0, [], []
    for _, _, _, size in layout.entries:
        bits = int(stream[pos : pos + 8], 2)
        widths.append(bits)
        pos += 8 + 32  # the fp32 scale is not compared, see the test
        for _ in range(size):
            code = int(stream[pos : pos + bits], 2)
            codes.append(code - (1 << bits) if code >> (bits - 1) else code)
            pos += bits
    assert stream[pos:] == "0" * (len(stream) - pos)
    return codes, widths, pos


def test_comm_cost_is_the_length_of_a_bit_packed_message():
    """Packing each tensor as an 8-bit width tag, a 32-bit scale field and
    b-bit two's-complement codes takes ceil(comm_cost / 8) bytes at every
    width, with comm_cost priced from the layout and the width alone, and
    unpacking returns the codes and the width exactly. The scales are not
    compared: the simulation encodes with float64 scales, which the fp32
    field does not hold exactly (ROADMAP item 6)."""
    logistic = init_params(ModelSpec("logistic", input_dim=6, num_classes=4),
                           np.random.default_rng(21))
    mlp = init_params(ModelSpec("mlp", input_dim=6, num_classes=4, hidden_dim=9),
                      np.random.default_rng(22))
    rng = np.random.default_rng(23)
    odd = ParamSet({"a": np.zeros(0), "b": rng.standard_normal(1), "c": rng.standard_normal((3, 5)),
                    "d": np.zeros(7), "e": rng.standard_normal(7)})
    for params in (logistic, mlp, odd):
        for bits in range(2, 33):
            q = quantize_params(params, bits, np.random.default_rng(bits))
            packed = pack_message(q)
            cost = comm_cost(q.layout, q.bits)
            assert len(packed) == math.ceil(cost / 8)
            codes, widths, read = unpack_message(packed, q.layout)
            assert read == cost
            assert widths == [bits] * len(q.layout)
            assert codes == q.codes.tolist()
