"""Random stream derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedqdp import rng as streams


WORD = 2**32


@pytest.mark.parametrize("key", [
    (0,), (0, 0, 0), (7, 6, 0, 1), (123, 5, 199, 42), (2**70, 3, 1),
    # 32-bit word boundaries, where an entry starts to span another word
    (WORD - 1, 0), (WORD, 0), (WORD + 1, WORD - 1), (0, WORD, 2**64 - 1),
    (2**64, 2**64), (2**130, 1, WORD),
])
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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2**40), st.integers(0, 2**140),
                          st.sampled_from([0, WORD - 1, WORD, 2**64 - 1, 2**64])),
                min_size=1, max_size=6))
def test_substream_state_matches_default_rng(key):
    ours = streams.substream(*key)
    assert ours.bit_generator.state == np.random.default_rng(key).bit_generator.state
