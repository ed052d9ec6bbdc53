"""Experiment orchestration: configs, datasets, EMC, CSV output, CLI."""

from .config import EXPERIMENTS, ExperimentConfig, load_config
from .datasets import (
    DATA_DIR_ENV,
    Split,
    load_idx,
    load_mnist_split,
    make_rkhs_regression,
    mnist_available,
    one_hot,
    write_idx,
)
from .emc import EMCPoint, emc_scan, min_norm_linear_procedure
from .runner import run

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "load_config",
    "DATA_DIR_ENV",
    "Split",
    "load_idx",
    "write_idx",
    "load_mnist_split",
    "make_rkhs_regression",
    "mnist_available",
    "one_hot",
    "EMCPoint",
    "emc_scan",
    "min_norm_linear_procedure",
    "run",
]
