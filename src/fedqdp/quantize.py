"""Symmetric stochastic uniform quantization with per-tensor scales, and
the bit cost of the resulting message.

A tensor is scaled by s = (2^(b-1) - 1) / max|x|, stochastically rounded to
integer codes, and clipped into the signed b-bit range. Rounding is down
with probability ceil(x) - x and up otherwise, which makes the code an
unbiased estimate of the scaled value. An all-zero tensor gets scale 1 so
dequantization is always well defined. A whole ParamSet is quantized in
one pass over its flat vector, and its codes are held in the narrowest
signed integer type that fits the bit width.

Wire format, as metered by comm_cost: per tensor, an 8-bit width tag
(TAG_BITS), a 32-bit fp32 scale field (SCALE_BITS) and the tensor's codes
at b bits each. The simulation encodes and decodes with the float64 scale,
which the 32-bit field does not hold exactly.
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


def comm_cost(q: QuantizedParamSet) -> int:
    """Bits to transmit one quantized parameter message."""
    return q.codes.size * q.bits + len(q.layout) * (SCALE_BITS + TAG_BITS)


def scale_factor(alpha: float, bits: int) -> float:
    """Scale mapping [-alpha, alpha] onto the signed integer range.

    alpha is the max absolute value of the tensor; alpha = 0 maps to
    scale 1 by convention. For alpha below (2^(b-1) - 1) / DBL_MAX (about
    1.2e-299 at 32 bits, 7e-307 at 8) the quotient overflows, so the scale
    is clamped to the largest finite float, which still keeps
    alpha * scale <= 2^(b-1) - 1.
    """
    if alpha == 0.0:
        return 1.0
    return min(float(2 ** (bits - 1) - 1) / alpha, sys.float_info.max)


def _round_clip(scaled: np.ndarray, u: np.ndarray, bits: int) -> np.ndarray:
    """Stochastically round pre-scaled values, clip into the signed b-bit
    range [-(2^(b-1) - 1), 2^(b-1) - 1] and return codes of code_dtype(bits).

    Rounds down when the uniform draw u >= the fractional part, up
    otherwise, so the expected value of the code equals the input.
    """
    bound = float(2 ** (bits - 1) - 1)
    codes = np.floor(scaled)
    codes += u < scaled - codes
    np.clip(codes, -bound, bound, out=codes)
    return codes.astype(code_dtype(bits))


def quantize_params(params: ParamSet, bits: int, rng: np.random.Generator) -> QuantizedParamSet:
    """Quantize every tensor at the same bit width with per-tensor scales.

    One uniform draw covers the whole vector in layout order, which is the
    same stream as one draw per tensor in turn.
    """
    b = _check_bits(bits)
    layout = params.layout
    flat = params.vector
    # reduceat would read one element for an empty segment and rejects an
    # offset at the end of the vector, so empty tensors are skipped (alpha 0)
    alpha = np.zeros(len(layout))
    filled = layout.sizes > 0
    if filled.any():
        alpha[filled] = np.maximum.reduceat(np.abs(flat), layout.offsets[filled])
    scales = np.array([scale_factor(a, b) for a in alpha.tolist()])
    scaled = np.repeat(scales, layout.sizes)
    scaled *= flat
    codes = _round_clip(scaled, rng.random(flat.size), b)
    return QuantizedParamSet(layout=layout, codes=codes, scales=scales, bits=b)


def dequantize_params(q: QuantizedParamSet) -> ParamSet:
    """Map every code back to a float: codes / the scale of its tensor.

    Every int8, int16 or int32 code converts to float64 exactly, so the
    result does not depend on the code type."""
    values = np.repeat(q.scales, q.layout.sizes)
    np.divide(q.codes, values, out=values)
    return ParamSet.from_vector(q.layout, values)
