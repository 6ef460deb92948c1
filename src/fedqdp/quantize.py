"""Symmetric stochastic uniform quantization with per-tensor scales.

A tensor is scaled by s = (2^(b-1) - 1) / max|x|, stochastically rounded to
integer codes, and clipped into the signed b-bit range. Rounding is down
with probability ceil(x) - x and up otherwise, which makes the code an
unbiased estimate of the scaled value. An all-zero tensor gets scale 1 so
dequantization is always well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedqdp.models import ParamSet

BITS_MIN = 2
BITS_MAX = 32


def _check_bits(bits: int) -> int:
    b = int(bits)
    if b != bits or not (BITS_MIN <= b <= BITS_MAX):
        raise ValueError(f"bits must be an integer in [{BITS_MIN}, {BITS_MAX}], got {bits}")
    return b


@dataclass(frozen=True, eq=False)
class QuantizedTensor:
    """Integer codes plus the scale needed to map them back to floats."""

    shape: tuple[int, ...]
    codes: np.ndarray  # int64, flat
    bits: int
    scale: float

    def __post_init__(self):
        _check_bits(self.bits)
        if self.codes.dtype != np.int64 or self.codes.ndim != 1:
            raise ValueError("codes must be a flat int64 array")
        if self.codes.size != int(np.prod(self.shape, dtype=np.int64)):
            raise ValueError(f"codes length {self.codes.size} does not match shape {self.shape}")
        bound = 2 ** (self.bits - 1) - 1
        if self.codes.size and (self.codes.min() < -bound or self.codes.max() > bound):
            raise ValueError(f"codes exceed the signed {self.bits}-bit range [-{bound}, {bound}]")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    @property
    def num_elements(self) -> int:
        return self.codes.size


@dataclass(frozen=True, eq=False)
class QuantizedParamSet:
    """Per-tensor quantization of a ParamSet, order preserved."""

    entries: tuple[tuple[str, QuantizedTensor], ...]
    bits: int

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    @property
    def num_elements(self) -> int:
        return sum(q.num_elements for _, q in self.entries)


def scale_factor(alpha: float, bits: int) -> float:
    """Scale mapping [-alpha, alpha] onto the signed integer range.

    alpha is the max absolute value of the tensor; alpha = 0 maps to
    scale 1 by convention.
    """
    b = _check_bits(bits)
    if not np.isfinite(alpha) or alpha < 0:
        raise ValueError(f"alpha must be non-negative and finite, got {alpha}")
    if alpha == 0.0:
        return 1.0
    return float(2 ** (b - 1) - 1) / alpha


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
    b = _check_bits(bits)
    bound = 2 ** (b - 1) - 1
    return max(-bound, min(bound, int(value)))


def _round_clip(scaled: np.ndarray, u: np.ndarray, bound: int) -> np.ndarray:
    """Stochastically round pre-scaled values and clip into [-bound, bound].

    Rounds down when the uniform draw u >= the fractional part, up
    otherwise, so the expected value of the code equals the input.
    """
    lower = np.floor(scaled)
    codes = lower + (u < scaled - lower)
    return np.clip(codes, -float(bound), float(bound)).astype(np.int64)


def quantize(tensor: np.ndarray, bits: int, rng: np.random.Generator) -> QuantizedTensor:
    """Quantize one tensor, consuming one uniform draw per element."""
    b = _check_bits(bits)
    arr = np.asarray(tensor, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot quantize non-finite values")
    flat = arr.ravel()
    alpha = float(np.abs(flat).max()) if flat.size else 0.0
    scale = scale_factor(alpha, b)
    u = rng.random(flat.size)
    codes = _round_clip(flat * scale, u, 2 ** (b - 1) - 1)
    return QuantizedTensor(shape=arr.shape, codes=codes, bits=b, scale=scale)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Map codes back to floats: codes / scale, reshaped to the original shape."""
    return (q.codes / q.scale).reshape(q.shape)


def quantize_params(params: ParamSet, bits: int, rng: np.random.Generator) -> QuantizedParamSet:
    """Quantize every tensor at the same bit width with per-tensor scales.

    Tensors are processed in parameter order on a single stream, so the
    result is a pure function of (params, bits, generator state).
    """
    b = _check_bits(bits)
    entries = tuple((name, quantize(value, b, rng)) for name, value in params.items())
    return QuantizedParamSet(entries=entries, bits=b)


def dequantize_params(q: QuantizedParamSet) -> ParamSet:
    return ParamSet({name: dequantize(qt) for name, qt in q.entries})
