"""Deterministic federated averaging with adaptive-width quantized links
and Laplacian local differential privacy."""

__version__ = "0.1.0"

from fedqdp.data import BlobsConfig, IdxConfig, PartitionConfig
from fedqdp.federation import ExperimentConfig, RoundRecord, run_experiment
from fedqdp.models import ModelSpec, ParamSet
from fedqdp.privacy import DpConfig
from fedqdp.schedule import ScheduleConfig

__all__ = [
    "__version__",
    "BlobsConfig",
    "DpConfig",
    "ExperimentConfig",
    "IdxConfig",
    "ModelSpec",
    "ParamSet",
    "PartitionConfig",
    "RoundRecord",
    "ScheduleConfig",
    "run_experiment",
]
