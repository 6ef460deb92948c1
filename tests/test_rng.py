"""Random stream derivation."""

import numpy as np
import pytest

from fedqdp import rng as streams


@pytest.mark.parametrize("key", [(0,), (7, 6, 0, 1), (123, 5, 199, 42), (2**70, 3, 1)])
def test_substream_matches_default_rng(key):
    seed, *path = key
    ours = streams.substream(seed, *path)
    ref = np.random.default_rng(np.random.SeedSequence([seed, *path]))
    assert np.array_equal(ours.random(50), ref.random(50))
    assert np.array_equal(ours.permutation(30), ref.permutation(30))
    assert np.array_equal(ours.integers(0, 1000, size=20), ref.integers(0, 1000, size=20))


def test_substream_rejects_negative_path():
    with pytest.raises(ValueError):
        streams.substream(1, -2)
