"""Bit-length schedules.

Three modes: a fixed width, cosine annealing from b_max down to b_min over
the run, and a per-client variant that damps the cosine by an importance
weight mixing normalized label entropy with relative dataset size. The
annealing argument is t / (T - 1), so round 0 uses b_max and the final
round uses b_min exactly; a one-round run uses b_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedqdp.quantize import BITS_MAX, BITS_MIN

MODES = ("static", "cosine", "dynamic")


@dataclass(frozen=True)
class ScheduleConfig:
    mode: str
    b_max: int = 32  # cosine and dynamic modes
    b_min: int = 8  # cosine and dynamic modes
    lambda_h: float = 0.75  # dynamic mode only
    bits: int = 32  # static mode only

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        # each mode checks only the fields it reads
        if self.mode == "static" and not (BITS_MIN <= self.bits <= BITS_MAX):
            raise ValueError(f"static bits must lie in [{BITS_MIN}, {BITS_MAX}], got {self.bits}")
        if self.mode != "static" and not (BITS_MIN <= self.b_min <= self.b_max <= BITS_MAX):
            raise ValueError(
                f"need {BITS_MIN} <= b_min <= b_max <= {BITS_MAX}, "
                f"got b_min={self.b_min}, b_max={self.b_max}"
            )
        if self.mode == "dynamic" and not (0.0 <= self.lambda_h <= 1.0):
            raise ValueError(f"lambda_h must lie in [0, 1], got {self.lambda_h}")


def client_importance(label_counts: np.ndarray, n_max: int, lambda_h: float) -> float:
    """nu = lambda_h * H(p) / log2(C) + (1 - lambda_h) * n / n_max, in [0, 1].

    H(p) is the Shannon entropy of the label distribution p that
    label_counts gives, C >= 2 its length (the class count) and n its sum
    (the dataset size); n_max is the largest dataset size among the round's
    clients. The entropy term is 0 for a single-class dataset and 1 for a
    uniform one. n must be at least 1, as every partitioner's shard is.
    """
    counts = np.asarray(label_counts, dtype=np.float64)
    total = counts.sum()
    p = counts[counts > 0] / total
    h = -np.sum(p * np.log2(p)) / np.log2(counts.size)
    # float noise can push a uniform distribution a few ulp past 1
    entropy = float(min(1.0, max(0.0, h)))
    return lambda_h * entropy + (1.0 - lambda_h) * (int(total) / n_max)


def schedule_bits(cfg: ScheduleConfig, t: int, rounds: int, nu: float = 1.0) -> int:
    """Integer bit width for round t of a run of the given number of rounds.

    static ignores t and nu. cosine and dynamic round half up the width
    b = b_min + nu * (b_max - b_min) * (1 + cos(pi t / (T - 1))) / 2, with
    T - 1 taken as 1 for a one-round run. nu defaults to 1.0, the full
    weight the broadcast goes at; the round loop passes a client's
    importance only for dynamic uploads.
    """
    if cfg.mode == "static":
        return cfg.bits
    horizon = max(rounds - 1, 1)
    b = cfg.b_min + nu * (cfg.b_max - cfg.b_min) * (1.0 + np.cos(np.pi * t / horizon)) / 2.0
    # nu and the cosine factor lie in [0, 1], so b_min <= b <= b_max: no clamp
    return int(np.floor(b + 0.5))
