"""Deterministic numeric kernel: dense float64 matrices (numpy-backed), a small
MLP with manual backpropagation, plain SGD with a cosine-annealed learning
rate, and counter-keyed random streams.

A model keeps all its parameters in one float64 vector ``flat`` (w0, b0, w1,
b1, ...); its weight and bias arrays are views into it, and its constructor
copies the arrays it is given (``aliasing`` is the one path that does not).
The forward and backward kernels run one model, or a stack of K models whose
``[K, P]`` parameter matrix holds one ``flat`` per row, in the same calls.
:func:`train_sgd` is the package's one SGD loop: node training, FedAvg
rounds and distillation all run through it, and only the loss gradient they
pass in differs. Nothing here keeps shared mutable state: a RandomStream
advances only itself, and :func:`sgd_step` updates the model it is given, in
place, as one vector update.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DivergenceError, RangeError, ValidationError

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
    "SgdJob",
    "train_sgd",
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
        raise ValidationError(f"{name}: non-finite entries")
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


def _layer_views(dims: list[int], flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weight and bias views into ``flat``, laid out w0, b0, w1, b1, ...; a
    ``[K, P]`` stack of vectors gives ``[K, fi, fo]`` and ``[K, 1, fo]`` views."""
    lead = flat.shape[:-1]
    weights, biases, off = [], [], 0
    for fi, fo in zip(dims[:-1], dims[1:]):
        weights.append(flat[..., off : off + fi * fo].reshape(*lead, fi, fo))
        off += fi * fo
        biases.append(flat[..., off : off + fo].reshape(*lead, 1, fo))
        off += fo
    return weights, biases


def _pack(weights: list[np.ndarray], biases: list[np.ndarray]) -> np.ndarray:
    """A new float64 vector holding every array, laid out w0, b0, w1, b1, ..."""
    return np.concatenate([a.ravel() for wb in zip(weights, biases) for a in wb], dtype=np.float64)


@dataclass
class MlpModel:
    """Fully connected net: ReLU hidden layers, raw logits out.

    All parameters live in one contiguous float64 vector ``flat``, laid out
    w0, b0, w1, b1, ... (the :func:`~fedkd.protocol.encode_params` frame
    order). weights[i] is a (layer_dims[i], layer_dims[i+1]) view into it and
    biases[i] a (1, layer_dims[i+1]) view. The constructor validates the
    shapes and copies the given arrays into ``flat``, so it never aliases
    them. :func:`sgd_step` updates ``flat`` in place, so whoever trains a
    model owns it; use :meth:`copy` to keep the input.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"
    flat: np.ndarray = field(init=False, repr=False)

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
        self.flat = _pack(self.weights, self.biases)
        self.weights, self.biases = _layer_views(dims, self.flat)

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

    @classmethod
    def aliasing(cls, layer_dims: list[int], flat: np.ndarray) -> "MlpModel":
        """A model whose ``flat`` is the given float64 vector itself: the one
        construction path that does not copy. A stacked trainer hands each
        row of its ``[K, P]`` parameter matrix to :func:`sgd_step` this way."""
        model = object.__new__(cls)
        model.layer_dims, model.activation, model.flat = list(layer_dims), "relu", flat
        model.weights, model.biases = _layer_views(layer_dims, flat)
        return model

    def copy(self) -> "MlpModel":
        return MlpModel(list(self.layer_dims), self.weights, self.biases, self.activation)

    def flatten(self) -> np.ndarray:
        """All parameters as one new float64 vector (weights then bias per layer)."""
        return self.flat.copy()


@dataclass
class MlpGrads:
    """Parameter gradients with the shapes and the ``flat`` layout of the
    owning model; the constructor copies the given arrays into ``flat``."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]
        self.flat = _pack(self.weights, self.biases)
        self.weights, self.biases = _layer_views(dims, self.flat)

    @classmethod
    def aliasing(cls, layer_dims: list[int], flat: np.ndarray) -> "MlpGrads":
        """Gradients whose ``flat`` is the given vector itself, as
        :meth:`MlpModel.aliasing`; over a ``[K, P]`` stack, the views are the
        ``[K, fi, fo]``/``[K, 1, fo]`` stacks a lockstep backward pass fills."""
        grads = object.__new__(cls)
        grads.flat = flat
        grads.weights, grads.biases = _layer_views(layer_dims, flat)
        return grads


def init_mlp(layer_dims: list[int], rs: RandomStream) -> MlpModel:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    weights, biases = [], []
    for fi, fo in zip(layer_dims[:-1], layer_dims[1:]):
        limit = math.sqrt(6.0 / (fi + fo))
        weights.append((rs.uniform((fi, fo)) * 2.0 - 1.0) * limit)
        biases.append(np.zeros((1, fo)))
    return MlpModel(list(layer_dims), weights, biases)


def _forward_trace(weights: list[np.ndarray], biases: list[np.ndarray],
                   batch: np.ndarray) -> list[np.ndarray]:
    """Unchecked forward pass keeping post-activation values per layer for
    backprop. ``weights``/``biases`` are one model's arrays and ``batch`` is
    (rows, in), or they are ``[K, fi, fo]``/``[K, 1, fo]`` stacks and
    ``batch`` is (K, rows, in): each model's slice is the same BLAS call."""
    acts = [batch]
    h = batch
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def mlp_forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Logits (B x C) for a batch (B x input_dim)."""
    return _forward_trace(model.weights, model.biases,
                          check_matrix(batch, "batch", model.input_dim))[-1]


def _backprop(weights: list[np.ndarray], acts: list[np.ndarray], grad_logits: np.ndarray,
              out: MlpGrads) -> MlpGrads:
    """Chain grad_logits back through the activations of one forward trace,
    overwriting ``out``; stacked operands as in :func:`_forward_trace`, with
    ``out`` then over the ``[K, P]`` gradient matrix."""
    delta = grad_logits
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(np.swapaxes(acts[i], -1, -2), delta, out=out.weights[i])
        np.add.reduce(delta, axis=-2, keepdims=True, out=out.biases[i])
        if i > 0:
            delta = delta @ np.swapaxes(weights[i], -1, -2)
            delta *= acts[i] > 0.0  # ReLU subgradient: 0 at exactly 0
    return out


def mlp_backward(model: MlpModel, batch: np.ndarray, grad_logits: np.ndarray) -> MlpGrads:
    """Parameter gradients for a loss whose logit-gradient is grad_logits.

    Whatever batch scaling the upstream loss applies is inherited unchanged;
    this routine only chains through the network.
    """
    batch = check_matrix(batch, "batch", model.input_dim)
    grad_logits = check_matrix(grad_logits, "grad_logits", model.output_dim)
    if grad_logits.shape[0] != batch.shape[0]:
        raise DimensionError(f"grad_logits has {grad_logits.shape[0]} rows, batch {batch.shape[0]}")
    acts = _forward_trace(model.weights, model.biases, batch)
    return _backprop(model.weights, acts, grad_logits, MlpGrads(model.weights, model.biases))


def sgd_step(model: MlpModel, grads: MlpGrads, lr: float, weight_decay: float = 0.0) -> MlpModel:
    """theta <- theta - lr * (grad + weight_decay * theta), one in-place update
    of ``model.flat``; returns model. Without decay the update is ``theta -
    lr * grad``, bit-identical to adding 0 * theta when theta is finite."""
    if lr < 0 or weight_decay < 0:
        raise RangeError("lr and weight_decay must be >= 0")
    p = model.flat
    if weight_decay:
        p -= lr * (grads.flat + weight_decay * p)
    else:
        p -= lr * grads.flat
    return model


# ---------------------------------------------------------------------------
# the SGD loop


@dataclass(frozen=True)
class SgdJob:
    """One model's part of a :func:`train_sgd` call: ``steps`` steps on the
    rows of ``x`` and of each ``targets`` array, at the rates of ``schedule``
    from step ``offset`` on."""

    model: MlpModel
    x: np.ndarray
    targets: tuple[np.ndarray, ...]
    stream: RandomStream
    steps: int
    schedule: CosineSchedule
    offset: int = 0
    weight_decay: float = 0.0


def train_sgd(dims: list[int], b: int, jobs: list[SgdJob], dlogits, phase: str,
              node_ids: list[int | None]) -> list[MlpModel]:
    """Minibatch SGD for every job in lockstep, on copies of their models
    (layer dims ``dims``); returns the trained models in job order.

    A job's batches are consecutive b-row slices of a fresh permutation of
    its rows per epoch from its own stream, the remainder dropped; it may stop
    mid-epoch. Each step gathers the rows of ``x`` and of every target array
    into reused [K, b, ...] buffers, takes the gradient w.r.t. the [K, b, C]
    logits z from ``dlogits(z, target_batches)`` (it may overwrite z), runs
    one stacked backward pass, then one sgd_step per job at its rate for step
    ``offset + step``. Jobs are held longest first, so the ones still training
    are a prefix of the [K, P] parameter matrix; a job's slice of each stacked
    call is the call it would make alone, so a stack changes none of its bits.
    On exit the lowest-index job with non-finite parameters raises
    DivergenceError(phase, its node_ids entry).
    """
    count = len(jobs)
    order = sorted(range(count), key=lambda i: -jobs[i].steps)  # stable: ties keep job order
    held = [jobs[i] for i in order]
    params = np.stack([job.model.flat for job in held])
    grads = np.empty_like(params)
    xb = np.empty((count, b, dims[0]))
    tbs = [np.empty((count, b, *t.shape[1:]), t.dtype) for t in held[0].targets]
    feeds = [[(job.x, *job.targets), (xb[r], *(t[r] for t in tbs)), job.stream,
              job.x.shape[0] // b, None] for r, job in enumerate(held)]
    updates = [(MlpModel.aliasing(dims, params[r]), MlpGrads.aliasing(dims, grads[r]),
                job.schedule, job.offset, job.weight_decay) for r, job in enumerate(held)]

    def prefix(k):  # the stacked operands of the first k jobs
        return (*_layer_views(dims, params[:k]), MlpGrads.aliasing(dims, grads[:k]),
                xb[:k], tuple(t[:k] for t in tbs))

    active = count
    weights, biases, out, xs, ts = prefix(active)
    with np.errstate(over="ignore", invalid="ignore"):  # reported on exit instead
        for step in range(held[0].steps):
            if held[active - 1].steps == step:  # the shortest jobs are done: shrink the prefix
                while held[active - 1].steps == step:
                    active -= 1
                weights, biases, out, xs, ts = prefix(active)
            for feed in feeds[:active]:
                arrays, bufs, rs, per_epoch, perm = feed
                j = step % per_epoch
                if j == 0:
                    feed[-1] = perm = rs.permutation(arrays[0].shape[0])
                rows = perm[j * b : (j + 1) * b]
                for a, buf in zip(arrays, bufs):
                    a.take(rows, 0, buf, "clip")  # rows are in range; "clip" skips a buffered copy
            acts = _forward_trace(weights, biases, xs)
            _backprop(weights, acts, dlogits(acts[-1], ts), out)
            for model, g, sched, offset, wd in updates[:active]:
                sgd_step(model, g, cosine_lr(sched, offset + step), wd)

    diverged = [order[r] for r in np.flatnonzero(~np.isfinite(params).all(axis=1))]
    if diverged:
        raise DivergenceError(phase, node_ids[min(diverged)])
    row = {i: r for r, i in enumerate(order)}
    return [updates[row[i]][0].copy() for i in range(count)]
