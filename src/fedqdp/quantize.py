"""Symmetric stochastic uniform quantization with per-tensor scales, and
the bit cost of the resulting message.

A tensor is scaled by s = (2^(b-1) - 1) / max|x|, stochastically rounded to
integer codes, and clipped into the signed b-bit range. Rounding is down
with probability ceil(x) - x and up otherwise, which makes the code an
unbiased estimate of the scaled value. An all-zero tensor gets scale 1 so
dequantization is always well defined. A whole ParamSet is scaled tensor
by tensor into one flat vector, which is rounded and clipped as a whole;
its codes are held in the narrowest signed integer type that fits the bit
width.

Wire format, as metered by comm_cost from the layout and the width alone:
per tensor, an 8-bit width tag (TAG_BITS), a 32-bit fp32 scale field
(SCALE_BITS) and the tensor's codes at b bits each. The simulation encodes
and decodes with the float64 scale, which the 32-bit field does not hold
exactly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from fedqdp.models import Layout, ParamSet

BITS_MIN = 2
BITS_MAX = 32
SCALE_BITS = 32
TAG_BITS = 8


def _check_bits(bits: int) -> int:
    b = int(bits)
    if b != bits or not (BITS_MIN <= b <= BITS_MAX):
        raise ValueError(f"bits must be an integer in [{BITS_MIN}, {BITS_MAX}], got {bits}")
    return b


def code_dtype(bits: int) -> np.dtype:
    """Narrowest signed integer type holding a b-bit code: int8 up to 8
    bits, int16 up to 16, int32 up to 32."""
    b = _check_bits(bits)
    return np.dtype(np.int8 if b <= 8 else np.int16 if b <= 16 else np.int32)


@dataclass(frozen=True, eq=False)
class QuantizedParamSet:
    """Quantization of a whole ParamSet: one flat code vector in the
    parameters' layout, of type code_dtype(bits), one scale per tensor, one
    bit width."""

    layout: Layout
    codes: np.ndarray  # code_dtype(bits), flat, in layout order
    scales: np.ndarray  # float64, one per tensor
    bits: int

    def __post_init__(self):
        dtype = code_dtype(self.bits)
        if self.codes.dtype != dtype or self.codes.shape != (self.layout.size,):
            raise ValueError(f"codes must be a flat {dtype} array of {self.layout.size} elements")
        bound = 2 ** (self.bits - 1) - 1
        if self.codes.size and (self.codes.min() < -bound or self.codes.max() > bound):
            raise ValueError(f"codes exceed the signed {self.bits}-bit range [-{bound}, {bound}]")
        if self.scales.shape != (len(self.layout),):
            raise ValueError(f"need one scale per tensor, got {self.scales.shape}")
        if not (np.isfinite(self.scales).all() and (self.scales > 0).all()):
            raise ValueError(f"scales must be positive and finite, got {self.scales}")


def comm_cost(layout: Layout, bits: int) -> int:
    """Bits to transmit one parameter message of the given layout quantized
    at the given width."""
    return layout.size * _check_bits(bits) + len(layout) * (SCALE_BITS + TAG_BITS)


def quantize_params(params: ParamSet, bits: int, rng: np.random.Generator) -> QuantizedParamSet:
    """Quantize every tensor at the same bit width with per-tensor scales.

    Each tensor's segment is scaled into one vector, which rounds up where
    its uniform draw u < the fractional part and down otherwise, then
    clips into [-(2^(b-1) - 1), 2^(b-1) - 1]. One draw covers the whole
    vector in layout order, the same stream as one draw per tensor in turn.
    """
    b = _check_bits(bits)
    bound = float(2 ** (b - 1) - 1)
    layout = params.layout
    flat = params.vector
    scales = np.empty(len(layout))
    scaled = np.empty(layout.size)
    for i, (_, _, offset, size) in enumerate(layout.entries):
        segment = flat[offset : offset + size]
        alpha = float(np.abs(segment).max(initial=0.0))
        # below alpha = bound / DBL_MAX (1.2e-299 at 32 bits) the quotient
        # overflows; the largest finite float still keeps alpha * s <= bound
        scales[i] = 1.0 if alpha == 0.0 else min(bound / alpha, sys.float_info.max)
        np.multiply(segment, scales[i], out=scaled[offset : offset + size])
    codes = np.floor(scaled)
    scaled -= codes  # the fractional parts
    codes += rng.random(flat.size) < scaled
    np.clip(codes, -bound, bound, out=codes)
    return QuantizedParamSet(layout, codes.astype(code_dtype(b)), scales, b)


def dequantize_params(q: QuantizedParamSet) -> ParamSet:
    """Map every code back to a float: codes / the scale of its tensor.

    Every int8, int16 or int32 code converts to float64 exactly, so the
    result does not depend on the code type."""
    values = np.empty(q.layout.size)
    for (_, _, offset, size), scale in zip(q.layout.entries, q.scales):
        np.divide(q.codes[offset : offset + size], scale, out=values[offset : offset + size])
    return ParamSet.from_vector(q.layout, values)
