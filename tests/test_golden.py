"""Golden digests: the shipped configs must keep producing the same bytes.

A refactor that changes any number in metrics.csv fails here. Re-baseline
only for a change that is meant to alter outputs, and say so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from fedqdp.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    "blobs_cosine": "38d449f2928e169a4bfa8721b7bf4f4d844d90dbccbdf275758ce569cf8e4752",
    "blobs_dp_dynamic": "02197479578e4df2b7b82033b12fa1337e33058d2f85f3a8877983c47eb5e4db",
}


def test_every_shipped_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_metrics_digest(name, tmp_path):
    out = tmp_path / name
    assert main(["run", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
