"""Deterministic numeric kernel: dense float64 matrices (numpy-backed), a small
MLP with manual backpropagation, plain SGD with a cosine-annealed learning
rate, and counter-keyed random streams.

Nothing here keeps shared mutable state: a RandomStream advances only
itself, and :func:`sgd_step` updates the model it is given, in place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, RangeError

__all__ = [
    "RandomStream",
    "CosineSchedule",
    "MlpModel",
    "MlpGrads",
    "check_matrix",
    "init_mlp",
    "mlp_forward",
    "mlp_backward",
    "sgd_step",
    "cosine_lr",
]


# ---------------------------------------------------------------------------
# random streams


class RandomStream:
    """Seeded random stream keyed by (seed, stream_id).

    Identical (seed, stream_id) pairs replay the identical sample sequence, so
    per-node or per-phase parallelism cannot perturb results as long as each
    consumer owns its own stream. ``stream_id`` is a tuple of small integers
    (node index, phase tag, ...); a bare int is accepted for convenience.
    """

    def __init__(self, seed: int, stream_id: int | tuple[int, ...] = ()):
        if isinstance(stream_id, int):
            stream_id = (stream_id,)
        self.seed = int(seed)
        self.stream_id = tuple(int(i) for i in stream_id)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed, *self.stream_id)))
        )

    def child(self, *ids: int) -> "RandomStream":
        """Fresh stream for a sub-phase; keyed by the extended id tuple."""
        return RandomStream(self.seed, self.stream_id + ids)

    def uniform(self, size=None):
        """Uniform float(s) in [0, 1)."""
        return self._gen.random(size)

    def gauss(self, size=None):
        """Standard normal float(s)."""
        return self._gen.standard_normal(size)

    def integers(self, high: int, size=None):
        return self._gen.integers(0, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def dirichlet(self, alpha: np.ndarray) -> np.ndarray:
        return self._gen.dirichlet(alpha)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"


# ---------------------------------------------------------------------------
# matrices


def check_matrix(a: np.ndarray, name: str = "matrix", cols: int | None = None) -> np.ndarray:
    """Validate the matrix invariants: 2-D float64, finite, ``cols`` columns if given."""
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-D array")
    if cols is not None and a.shape[1] != cols:
        raise DimensionError(f"{name}: expected {cols} columns, got {a.shape[1]}")
    if a.dtype != np.float64:
        a = a.astype(np.float64)
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name}: non-finite entries")
    return a


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class CosineSchedule:
    """Cosine annealing from lr_start down to lr_end over total_steps."""

    lr_start: float
    lr_end: float
    total_steps: int

    def __post_init__(self):
        if self.total_steps < 1:
            raise RangeError("total_steps must be >= 1")
        if not (self.lr_start >= self.lr_end >= 0.0):
            raise RangeError("require lr_start >= lr_end >= 0")


def cosine_lr(schedule: CosineSchedule, step: int) -> float:
    """Learning rate at an integer step in [0, total_steps]."""
    if not 0 <= step <= schedule.total_steps:
        raise RangeError(f"step {step} outside [0, {schedule.total_steps}]")
    span = schedule.lr_start - schedule.lr_end
    return schedule.lr_end + 0.5 * span * (1.0 + math.cos(math.pi * step / schedule.total_steps))


# ---------------------------------------------------------------------------
# MLP


@dataclass
class MlpModel:
    """Fully connected net: ReLU hidden layers, raw logits out.

    weights[i] has shape (layer_dims[i], layer_dims[i+1]); biases[i] is a
    (1, layer_dims[i+1]) row. :func:`sgd_step` updates the arrays in place,
    so whoever trains a model owns it; use :meth:`copy` to keep the input.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"

    def __post_init__(self):
        dims = self.layer_dims
        if len(dims) < 2:
            raise DimensionError("need at least input and output dims")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise DimensionError("one weight/bias pair per layer required")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i], dims[i + 1]):
                raise DimensionError(f"weights[{i}]: expected {(dims[i], dims[i+1])}, got {w.shape}")
            if b.shape != (1, dims[i + 1]):
                raise DimensionError(f"biases[{i}]: expected {(1, dims[i+1])}, got {b.shape}")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def parameter_count(self) -> int:
        return sum((fi + 1) * fo for fi, fo in zip(self.layer_dims[:-1], self.layer_dims[1:]))

    def copy(self) -> "MlpModel":
        return MlpModel(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.activation,
        )

    def flatten(self) -> np.ndarray:
        """All parameters as one float64 vector (weights then bias per layer)."""
        return np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in zip(self.weights, self.biases)])


@dataclass
class MlpGrads:
    """Parameter gradients with the same shapes as the owning model."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_mlp(layer_dims: list[int], rs: RandomStream) -> MlpModel:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    weights, biases = [], []
    for fi, fo in zip(layer_dims[:-1], layer_dims[1:]):
        limit = math.sqrt(6.0 / (fi + fo))
        weights.append((rs.uniform((fi, fo)) * 2.0 - 1.0) * limit)
        biases.append(np.zeros((1, fo)))
    return MlpModel(list(layer_dims), weights, biases)


def _forward_trace(model: MlpModel, batch: np.ndarray) -> list[np.ndarray]:
    """Unchecked forward pass keeping post-activation values per layer for backprop."""
    acts = [batch]
    h = batch
    last = model.num_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w + b
        if i != last:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return acts


def mlp_forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Logits (B x C) for a batch (B x input_dim)."""
    return _forward_trace(model, check_matrix(batch, "batch", model.input_dim))[-1]


def _backprop(model: MlpModel, acts: list[np.ndarray], grad_logits: np.ndarray) -> MlpGrads:
    """Chain grad_logits back through the activations of one forward trace."""
    gw = [None] * model.num_layers
    gb = [None] * model.num_layers
    delta = grad_logits
    for i in range(model.num_layers - 1, -1, -1):
        gw[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0, keepdims=True)
        if i > 0:
            # ReLU subgradient: 0 at exactly 0
            delta = (delta @ model.weights[i].T) * (acts[i] > 0.0)
    return MlpGrads(gw, gb)


def mlp_backward(model: MlpModel, batch: np.ndarray, grad_logits: np.ndarray) -> MlpGrads:
    """Parameter gradients for a loss whose logit-gradient is grad_logits.

    Whatever batch scaling the upstream loss applies is inherited unchanged;
    this routine only chains through the network.
    """
    batch = check_matrix(batch, "batch", model.input_dim)
    grad_logits = check_matrix(grad_logits, "grad_logits", model.output_dim)
    if grad_logits.shape[0] != batch.shape[0]:
        raise DimensionError(f"grad_logits has {grad_logits.shape[0]} rows, batch {batch.shape[0]}")
    return _backprop(model, _forward_trace(model, batch), grad_logits)


def sgd_step(model: MlpModel, grads: MlpGrads, lr: float, weight_decay: float = 0.0) -> MlpModel:
    """theta <- theta - lr * (grad + weight_decay * theta) in place; returns model."""
    if lr < 0 or weight_decay < 0:
        raise RangeError("lr and weight_decay must be >= 0")
    for p, g in zip(model.weights + model.biases, grads.weights + grads.biases):
        p -= lr * (g + weight_decay * p)
    return model
