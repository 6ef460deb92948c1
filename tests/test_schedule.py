"""Bit schedules: cosine annealing, rounding, importance weighting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedqdp.schedule import ScheduleConfig, client_importance, schedule_bits


def test_schedule_config_validation():
    with pytest.raises(ValueError):
        ScheduleConfig(mode="linear")
    with pytest.raises(ValueError):
        ScheduleConfig(mode="cosine", b_min=16, b_max=8)
    with pytest.raises(ValueError):
        ScheduleConfig(mode="cosine", b_min=1)
    with pytest.raises(ValueError):
        ScheduleConfig(mode="dynamic", b_min=16, b_max=8)
    with pytest.raises(ValueError):
        ScheduleConfig(mode="dynamic", lambda_h=1.5)
    with pytest.raises(ValueError):
        ScheduleConfig(mode="static", bits=33)
    # each mode checks only the fields it reads: static reads bits alone,
    # and cosine does not read lambda_h
    ScheduleConfig(mode="cosine", lambda_h=1.5)
    ScheduleConfig(mode="static", bits=8, lambda_h=2.0)
    ScheduleConfig(mode="static", bits=8, b_min=16, b_max=8)


def test_cosine_bits_endpoints_exact():
    # the widest span the quantizer allows, at the shortest and a long horizon
    full = ScheduleConfig(mode="cosine", b_max=32, b_min=2)
    for rounds in (2, 1000):
        assert schedule_bits(full, 0, rounds) == 32
        assert schedule_bits(full, rounds - 1, rounds) == 2


def test_cosine_bits_midpoint():
    # halfway the annealed width sits at the mean of the endpoints, and an
    # odd span's mean of 17.5 rounds up
    assert schedule_bits(ScheduleConfig(mode="cosine", b_max=32, b_min=2), 500, 1001) == 17
    assert schedule_bits(ScheduleConfig(mode="cosine", b_max=32, b_min=3), 500, 1001) == 18


def test_cosine_bits_monotone_in_nu():
    cfg = ScheduleConfig(mode="cosine", b_max=32, b_min=8)
    widths = [schedule_bits(cfg, 100, 1000, nu) for nu in (0.0, 0.3, 0.7, 1.0)]
    assert widths[0] == 8
    assert all(a < b for a, b in zip(widths, widths[1:]))


def test_cosine_bits_validation():
    for mode in ("cosine", "dynamic"):
        with pytest.raises(ValueError, match=r"^nu must lie in \[0, 1\], got 1.5$"):
            schedule_bits(ScheduleConfig(mode=mode), 5, 11, 1.5)
    # static reads neither t nor nu
    assert schedule_bits(ScheduleConfig(mode="static", bits=8), 5, 11, 1.5) == 8


def test_round_bits_half_up_and_clamp():
    def bits(lo, hi, nu, t):
        return schedule_bits(ScheduleConfig(mode="cosine", b_max=hi, b_min=lo), t, 10, nu)

    assert bits(8, 9, 0.5, 0) == 9  # 8.5 rounds up, never to even
    assert bits(9, 10, 0.5, 0) == 10
    assert bits(8, 9, 0.49, 0) == 8


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["cosine", "dynamic"]),
    st.integers(-10**6, 10**6),
    st.integers(0, 5000),
    st.lists(st.integers(2, 32), min_size=2, max_size=2).map(sorted),
    st.one_of(st.sampled_from([0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0]), st.floats(0.0, 1.0)),
)
def test_round_bits_always_in_range(mode, t, rounds, bounds, nu):
    lo, hi = bounds
    out = schedule_bits(ScheduleConfig(mode=mode, b_max=hi, b_min=lo), t, rounds, nu)
    assert type(out) is int and lo <= out <= hi
    width = lo + nu * (hi - lo) * (1.0 + math.cos(math.pi * t / max(rounds - 1, 1))) / 2.0
    assert abs(out - width) <= 0.5 + 1e-9


def test_normalized_entropy_examples():
    # lambda_h = 1 weights the entropy term alone
    assert client_importance(np.array([10, 10, 10, 10]), 40, 1.0) == 1.0
    # float noise puts a uniform 14-class entropy 2 ulp past 1 before the clamp
    assert client_importance(np.full(14, 3), 42, 1.0) == 1.0
    assert client_importance(np.array([7, 0, 0]), 7, 1.0) == 0.0
    assert abs(client_importance(np.array([1, 1, 0, 0]), 2, 1.0) - 0.5) < 1e-12


def test_normalized_entropy_validation():
    with pytest.raises(ValueError, match="positive"):
        client_importance(np.array([0, 0]), 1, 1.0)


def test_client_importance_pure_entropy_and_pure_size():
    uniform = np.array([5, 5])
    assert client_importance(uniform, 20, 1.0) == 1.0
    assert client_importance(uniform, 20, 0.0) == 0.5  # 10 of 20
    single = np.array([8, 0])
    assert client_importance(single, 8, 1.0) == 0.0
    assert client_importance(single, 8, 0.0) == 1.0


def test_client_importance_is_convex_mix():
    counts = np.array([6, 2])
    h = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))  # over log2(2) = 1
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        expected = lam * h + (1 - lam) * 0.5
        assert abs(client_importance(counts, 16, lam) - expected) < 1e-15


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 100), min_size=2, max_size=6),
    st.floats(0.0, 1.0),
    st.integers(1, 50),
)
def test_client_importance_in_unit_interval(counts, lam, extra):
    if sum(counts) == 0:
        counts[0] = 1
    n = sum(counts)
    nu = client_importance(np.array(counts), n + extra, lam)
    assert 0.0 <= nu <= 1.0


def test_importance_inputs_validation():
    # the dataset size is read off label_counts, and an empty one has no entropy
    with pytest.raises(ValueError, match="positive"):
        client_importance(np.array([0, 0]), 4, 0.5)


def test_schedule_bits_static():
    cfg = ScheduleConfig(mode="static", bits=8)
    assert [schedule_bits(cfg, t, 100) for t in (0, 50, 99)] == [8, 8, 8]


def test_schedule_bits_cosine_endpoints():
    for total in (2, 10, 1000):
        cfg = ScheduleConfig(mode="cosine", b_max=32, b_min=8)
        assert schedule_bits(cfg, 0, total) == 32
        assert schedule_bits(cfg, total - 1, total) == 8


def test_schedule_bits_single_round_uses_b_max():
    cfg = ScheduleConfig(mode="cosine", b_max=32, b_min=8)
    assert schedule_bits(cfg, 0, 1) == 32


def test_schedule_bits_cosine_nonincreasing():
    cfg = ScheduleConfig(mode="cosine", b_max=32, b_min=2)
    widths = [schedule_bits(cfg, t, 200) for t in range(200)]
    assert all(a >= b for a, b in zip(widths, widths[1:]))
    assert len(set(widths)) > 10


def test_schedule_bits_dynamic_never_exceeds_cosine():
    dyn = ScheduleConfig(mode="dynamic", b_max=32, b_min=8, lambda_h=0.75)
    cos = ScheduleConfig(mode="cosine", b_max=32, b_min=8)
    nu = client_importance(np.array([20, 5, 0]), 100, dyn.lambda_h)
    for t in range(50):
        assert schedule_bits(dyn, t, 50, nu) <= schedule_bits(cos, t, 50)
        assert schedule_bits(dyn, t, 50, nu) >= 8


def test_schedule_bits_dynamic_without_importance_equals_cosine():
    # nu defaults to the broadcast's full weight
    dyn = ScheduleConfig(mode="dynamic", b_max=32, b_min=4)
    cos = ScheduleConfig(mode="cosine", b_max=32, b_min=4)
    widths = [schedule_bits(dyn, t, 40) for t in range(40)]
    assert widths == [schedule_bits(cos, t, 40) for t in range(40)]
    assert widths == [schedule_bits(dyn, t, 40, 1.0) for t in range(40)]
    assert widths[0] == 32 and widths[-1] == 4
    # cosine damps by nu like dynamic; the round loop decides who passes it
    for nu in (0.0, 0.3, 0.75):
        assert ([schedule_bits(cos, t, 40, nu) for t in range(40)]
                == [schedule_bits(dyn, t, 40, nu) for t in range(40)])
