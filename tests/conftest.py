"""Shared test helpers: the small 4-class Gaussian benchmark config used by
the end-to-end tests, plus runners over seed lists."""
import copy

import numpy as np

from fedkd.cli import (
    ExperimentConfig,
    build_data,
    execute_fedkd,
    parse_dict,
)
from fedkd.protocol import run_centralized

# Tuned so local shards are learnable in seconds while the central model's
# distillation lift and gap to centralized training stay clearly resolved.
GAUSS4_BASE = {
    "num_nodes": 5,
    "alpha": 1.0,
    "task": {
        "kind": "synthetic",
        "num_classes": 4,
        "dim": 16,
        "train_per_class": 300,
        "test_per_class": 250,
        "public_per_class": 300,
        "cov_scale": 1.0,
        "class_sep": 4.0,
        "domain_shift": 1.0,
    },
    "node": {"hidden_dims": [32], "epochs": 30, "batch_size": 32, "lr_start": 0.05},
    "ensemble": {"quant_scale": 200, "gamma": 1.0},
    "distill": {"steps": 1500, "batch_size": 64, "lr_start": 0.05},
    "central_hidden_dims": [32],
}


def deep_merge(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], val)
        else:
            out[key] = val
    return out


def gauss4_config(overrides: dict | None = None) -> ExperimentConfig:
    return parse_dict(deep_merge(copy.deepcopy(GAUSS4_BASE), overrides or {}))


def central_accuracies(overrides: dict | None, seeds) -> np.ndarray:
    cfg = gauss4_config(overrides)
    return np.array([execute_fedkd(cfg, s).metrics["central"] for s in seeds])


def centralized_accuracies(overrides: dict | None, seeds) -> np.ndarray:
    cfg = gauss4_config(overrides)
    out = []
    for s in seeds:
        private, _, test, _ = build_data(cfg, s)
        _, acc = run_centralized(private, test, cfg.node, s)
        out.append(acc)
    return np.array(out)
