"""Local differential privacy for client updates.

Clients bound each gradient's L1 norm by xi during training, estimate a
local smoothness constant from consecutive-epoch gradient differences, turn
it into an L1 sensitivity for the final parameters, and add Laplace noise
calibrated to that sensitivity, the privacy budget, and how often a client
expects to participate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from fedqdp.models import ParamSet, l1_distance

# smallest positive normal float, keeps log() off exact zero at |u| = 0.5
_LAPLACE_FLOOR = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class DpConfig:
    """Laplace privacy budget. Only pure epsilon-DP is supported.

    A client's expected total under basic composition is epsilon * E, not
    epsilon (see noise_scale). The sensitivity depends on the client's own
    data through the smoothness lambda_i it estimates from its gradients.
    """

    epsilon: float
    xi: float

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not np.isfinite(self.xi) or self.xi <= 0:
            raise ValueError(f"xi must be positive and finite, got {self.xi}")
        # the saturated sensitivity is at least 2 xi, so a run whose client
        # saturates could not report its bound
        if not math.isfinite(2.0 * self.xi):
            raise ValueError(f"xi={self.xi} overflows: 2 xi is past the float range")


@dataclass
class BatchTrace:
    """Running smoothness estimate over same-batch, consecutive-epoch pairs.

    Gradients recorded here are the unclipped ones; the trace exists to
    estimate how fast the gradient field changes between epochs. Every
    epoch visits the same batches, and only the latest (grad, params) per
    batch index is held: recording batch j compares it with batch j of the
    previous epoch, when there was one, and then replaces it. estimate is
    the maximum of ||grad - grad'||_1 / ||params - params'||_1 over those
    pairs; pairs with identical parameters are skipped, and no usable pair
    leaves 0.0.
    """

    estimate: float = 0.0
    _latest: dict[int, tuple[ParamSet, ParamSet]] = field(default_factory=dict)

    def record(self, grad: ParamSet, params: ParamSet, batch: int) -> None:
        if batch in self._latest:
            prev_grad, prev_params = self._latest[batch]
            denom = l1_distance(prev_params, params)
            if denom != 0.0:
                self.estimate = max(self.estimate, l1_distance(prev_grad, grad) / denom)
        self._latest[batch] = (grad, params)


def compute_e0(lambda_i: float, eta: float, dataset_size: int) -> int:
    """Smallest integer e with (1 + lambda_i * eta)^e >= 1 + dataset_size.

    Requires a growth factor strictly above 1, which its caller,
    sensitivity, tests first. The log ratio lands within a few epochs of
    e0; two short loops then settle it with the float power test.
    """
    growth = 1.0 + lambda_i * eta
    target = 1.0 + dataset_size
    e = math.ceil(math.log(target) / math.log(growth))
    while e > 0 and growth ** (e - 1) >= target:
        e -= 1
    while growth**e < target:
        e += 1
    return e


def sensitivity(lambda_i: float, eta: float, local_epochs: int, dataset_size: int, xi: float) -> float:
    """L1 sensitivity of the final local parameters to one sample change.

    Three regimes: a flat-gradient bound linear in epochs when lambda_i = 0,
    a geometric-growth bound while E < e0 (see compute_e0), and a
    saturated bound of 2 xi plus a linear tail once growth has crossed
    1 + n. A growth factor that rounds to 1 never crosses. The middle
    branch uses expm1/log1p so it meets the lambda_i = 0 branch
    continuously; where a tiny lambda_i or a xi near the float maximum
    overflows 2 xi / (lambda_i n), it is evaluated from the flat bound
    instead, and a flat bound whose 2 xi E overflows takes xi last. A bound
    past the float range raises ValueError naming the inputs.
    """
    if not np.isfinite(lambda_i) or lambda_i < 0:
        raise ValueError(f"lambda_i must be non-negative and finite, got {lambda_i}")
    lam, epochs, n = lambda_i, local_epochs, dataset_size
    e0 = compute_e0(lam, eta, n) if 1.0 + lam * eta > 1.0 else math.inf

    def flat() -> float:
        value = 2.0 * xi * epochs * eta / n
        # 2 xi E can overflow ahead of eta / n although the bound does not
        return value if math.isfinite(value) else xi * (2.0 * epochs * eta / n)

    if lam == 0.0:
        value = flat()
    elif epochs < e0:
        value = (2.0 * xi / (lam * n)) * float(np.expm1(epochs * np.log1p(lam * eta)))
        if not math.isfinite(value):
            # 2 xi / (lambda_i n) overflowed ahead of the small growth term.
            # The same bound is the flat one times ((1 + x)^E - 1) / (E x),
            # x = lambda_i eta, a ratio that rounds to 1 once x is subnormal.
            x = lam * eta
            ratio = math.expm1(epochs * math.log1p(x)) / (epochs * x) if x >= sys.float_info.min else 1.0
            value = flat() * ratio
    else:
        value = 2.0 * xi + 2.0 * eta * xi * (epochs - e0)
    if not math.isfinite(value):
        raise ValueError(
            f"sensitivity overflows at eta={eta}, xi={xi} "
            f"(lambda_i={lam}, local_epochs={epochs}, dataset_size={n})"
        )
    return value


def noise_scale(
    sensitivity_value: float,
    dp: DpConfig,
    participants: int,
    rounds: int,
    num_clients: int,
    local_epochs: int,
) -> float:
    """Laplace scale: expected participations per epoch times sensitivity
    over epsilon, i.e. (P T / (N E)) * sens / epsilon.

    Each release spends epsilon * N * E / (P * T); over the P * T / N
    rounds a client expects to join, basic composition (Dwork & Roth,
    2014) gives an expected total of epsilon * E. A scale whose largest
    Laplace draw, scale * -log(_LAPLACE_FLOOR) = scale * 708.4, passes the
    float range raises ValueError naming epsilon.
    """
    factor = (participants * rounds) / (num_clients * local_epochs)
    scale = factor * float(sensitivity_value) / dp.epsilon
    # Python floats: the product is inf past the range, with no numpy warning
    if not math.isfinite(scale * -math.log(_LAPLACE_FLOOR)):
        raise ValueError(f"noise scale overflows at epsilon={dp.epsilon}, sensitivity {sensitivity_value}")
    return scale


def laplace_noise(scale: float, like: ParamSet, rng: np.random.Generator) -> ParamSet:
    """Laplace(0, scale) noise shaped like the given parameters.

    Sampled by inverse CDF from uniforms u on (-1/2, 1/2), one draw over
    the whole vector in layout order (the same stream as one draw per
    tensor in turn): -scale * sign(u) * log(max(1 - 2|u|, floor)),
    evaluated in that order in two buffers. Scale 0 draws its uniforms
    like any other scale and gives zeros, some of which may be -0.0.
    """
    u = rng.random(like.num_elements)
    u -= 0.5
    inner = np.abs(u)
    inner *= 2.0
    np.subtract(1.0, inner, out=inner)
    np.maximum(inner, _LAPLACE_FLOOR, out=inner)
    np.log(inner, out=inner)
    out = np.sign(u)
    out *= -scale
    out *= inner
    return ParamSet.from_vector(like.layout, out)
