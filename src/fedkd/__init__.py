"""One-shot federated distillation on desk-scale tasks.

Nodes train independently on heterogeneous shards, answer a single batch of
public-set queries with importance-weighted, quantized, Laplace-noised logits,
and a central model distills from the aggregate offline. A parameter-averaging
baseline and exact bandwidth accounting sit alongside for comparison.

The package root exports the names of the README's library example; every
other name is imported from its own module (``fedkd.numkit``,
``fedkd.protocol``, ...).
"""
from .datasets import GaussianTaskSpec, dirichlet_partition, gen_gaussian_task
from .distill import DistillConfig
from .ensemble import EnsembleConfig
from .numkit import RandomStream
from .protocol import FedKdRun, TrainConfig, run_fedkd

__version__ = "0.1.0"
