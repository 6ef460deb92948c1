"""Golden digests: the shipped configs must keep producing the same bytes.

A refactor that changes any number in metrics.csv fails here. Re-baseline
only for a change that is meant to alter outputs, and say so in CHANGES.md.
The shipped configs use the logistic model and the Dirichlet partition; the
inline MLP configs below pin the MLP paths (with DP and the dynamic
schedule, and with the power-law partition and many clients) at 20 rounds.
All four are checked again under OpenBLAS's generic x86 kernels.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedqdp
from fedqdp.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    "blobs_cosine": "38d449f2928e169a4bfa8721b7bf4f4d844d90dbccbdf275758ce569cf8e4752",
    "blobs_dp_dynamic": "02197479578e4df2b7b82033b12fa1337e33058d2f85f3a8877983c47eb5e4db",
}

MLP_CONFIGS = {
    "mlp_dp": {
        "rounds": 20,
        "clients": 50,
        "per_round": 5,
        "local_epochs": 5,
        "batch_size": 64,
        "eta": 0.05,
        "seed": 0,
        "eval_every": 10,
        "model": {"kind": "mlp", "input_dim": 64, "num_classes": 10, "hidden_dim": 128},
        "schedule": {"mode": "dynamic", "b_max": 32, "b_min": 8, "lambda_h": 0.75},
        "dp": {"epsilon": 10000.0, "xi": 100.0},
        "data": {
            "kind": "blobs",
            "num_classes": 10,
            "input_dim": 64,
            "train_per_class": 500,
            "test_per_class": 50,
            "spread": 0.3,
        },
        "partition": {"scheme": "dirichlet", "alpha": 0.5},
    },
    "wide_comm": {
        "rounds": 20,
        "clients": 200,
        "per_round": 20,
        "local_epochs": 1,
        "batch_size": 64,
        "eta": 0.1,
        "seed": 0,
        "eval_every": 10,
        "model": {"kind": "mlp", "input_dim": 64, "num_classes": 10, "hidden_dim": 256},
        "schedule": {"mode": "cosine", "b_max": 16, "b_min": 4},
        "data": {
            "kind": "blobs",
            "num_classes": 10,
            "input_dim": 64,
            "train_per_class": 400,
            "test_per_class": 50,
            "spread": 0.3,
        },
        "partition": {"scheme": "power_law", "exponent": 1.2},
    },
}

MLP_GOLDEN = {
    "mlp_dp": "a12b083b16c3d4e24056f9818ce9dfb374e26287a4082bdbf58bd49eaedfe156",
    "wide_comm": "df0a77df3917c84bfdbd0b37b781ab27ef396b682d5ccdb49078a589b861dfbe",
}


def _metrics_digest(config_path, out):
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    return hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()


def test_every_shipped_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_metrics_digest(name, tmp_path):
    assert _metrics_digest(CONFIGS / f"{name}.json", tmp_path / name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(MLP_GOLDEN))
def test_mlp_config_metrics_digest(name, tmp_path):
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(MLP_CONFIGS[name]))
    assert _metrics_digest(config_path, tmp_path / name) == MLP_GOLDEN[name]


def test_digests_hold_under_the_generic_blas_kernel(tmp_path):
    """The four digests again, in a child process whose OpenBLAS is told to
    use its generic x86 kernels (core Katmai) instead of the ones it picks
    for this CPU; only the child's environment is changed."""
    paths = {name: str(CONFIGS / f"{name}.json") for name in GOLDEN}
    for name, cfg in MLP_CONFIGS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(cfg))
    code = (
        "import hashlib, json, sys\n"
        "from pathlib import Path\n"
        "from fedqdp.cli import main\n"
        "digests = {}\n"
        "for name, path in json.loads(sys.argv[1]).items():\n"
        "    out = Path(sys.argv[2]) / name\n"
        "    assert main(['run', '--config', path, '--out', str(out)]) == 0\n"
        "    digests[name] = hashlib.sha256((out / 'metrics.csv').read_bytes()).hexdigest()\n"
        "print(json.dumps(digests))\n"
    )
    package_root = str(Path(fedqdp.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", OPENBLAS_VERBOSE="2",
               PYTHONPATH=os.pathsep.join([package_root, inherited]) if inherited else package_root)
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(paths), str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # OPENBLAS_VERBOSE=2 names the core in use: proof the override took
    assert "Core: Katmai" in proc.stderr, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {**GOLDEN, **MLP_GOLDEN}
