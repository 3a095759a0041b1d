"""Deterministic numeric kernel: dense float64 matrices (numpy-backed), a small
MLP with manual backpropagation, plain SGD with a cosine-annealed learning
rate, and counter-keyed random streams.

A model keeps all its parameters in one float64 vector ``flat`` (w0, b0, w1,
b1, ...); its weight and bias arrays are views into it, and its constructor
copies the arrays it is given (``aliasing`` is the one path that does not).
Gradients are held in a model of the same dims.
The forward and backward kernels run one model, or a stack of K models whose
``[K, P]`` parameter matrix holds one ``flat`` per row, in the same calls.
:func:`train_sgd` is the package's one SGD loop: node training, FedAvg
rounds and distillation all run through it, and only the loss gradient they
pass in differs. A call holds what its stack shares (dims, batch size, loss,
weight decay), and each :class:`SgdJob` its own data, rows, stream and rate
table (:func:`cosine_rates`, computed before the loop); a schedule is
range-checked once, when its config is built (:func:`check_sgd_schedule`),
never per step. Nothing here keeps shared mutable state: a RandomStream
advances only itself, and :func:`sgd_step` updates the model it is given,
in place, as one vector update.

Hot elementwise passes stay on numpy's contiguous fast loops, with every
output bit unchanged (timings: numpy 2.4 on a 2-core AMD EPYC, copy time
excluded):

* No scalar operand to ReLU's ``maximum``. numpy runs ``np.maximum(h, 0.0)``
  3-4x slower than the same call against an array of zeros, so
  :func:`_relu` takes its zeros from a block of copies, in ``_BLOCK``-element
  chunks. A [20, 32, 64] ReLU drops from 16 to 4-5 us, the [50000, 64] one
  from 1.42 to 0.70 ms. At the quantizer's and Laplace draw's shapes the
  scalar clamp is the faster call.
* Bias plus ReLU in row blocks for big forwards. A 2-D forward (the public
  query) larger than one block adds its bias to blocks of about ``_BLOCK``
  elements against a tiled bias block, rather than as one short broadcast
  loop per row, and applies the ReLU to each block while it is in cache:
  from 2.04 to 0.82 ms per [50000, 64] layer, and from 0.22 to 0.06 ms for
  the [50000, 10] bias add. The ensemble's per-class weight multiply takes
  the same :func:`_rowwise` path. No kernel here row-chunks a matmul, since
  that can change its last bits (test evaluation does: it reads only ranks).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, RangeError, ValidationError


# ---------------------------------------------------------------------------
# random streams


class RandomStream:
    """Seeded random stream keyed by (seed, stream_id).

    Identical (seed, stream_id) pairs replay the identical sample sequence, so
    per-node or per-phase parallelism cannot perturb results as long as each
    consumer owns its own stream. ``stream_id`` is a tuple of small integers
    (node index, phase tag, ...).
    """

    def __init__(self, seed: int, stream_id: tuple[int, ...]):
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

    def gauss(self, size=None, out=None):
        """Standard normal float(s), written into the float64 array ``out`` if given."""
        return self._gen.standard_normal(size, out=out)

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


def check_matrix(a: np.ndarray, name: str = "matrix", cols: int | None = None, *,
                 finite: bool = True) -> np.ndarray:
    """Validate the matrix invariants: 2-D float64, ``cols`` columns if given,
    and finite unless ``finite`` is False (for a caller that checks it
    itself)."""
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-D array")
    if cols is not None and a.shape[1] != cols:
        raise DimensionError(f"{name}: expected {cols} columns, got {a.shape[1]}")
    if a.dtype != np.float64:
        a = a.astype(np.float64)
    if finite and a.size and not np.isfinite(a).all():
        raise ValidationError(f"{name}: non-finite entries")
    return a


# ---------------------------------------------------------------------------
# counts and schedules


def check_ints(**counts) -> None:
    """The one type check of the library's counts: each, or each entry of a list of
    widths, must be a Python or numpy integer, not a bool, else a ConfigurationError
    names the field and the value."""
    for key, value in counts.items():
        for v in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ConfigurationError(f"{key}: {v!r} is not an integer")


def check_sgd_schedule(lr_start: float, lr_end: float, weight_decay: float) -> None:
    """The range check of every config that sets an SGD schedule."""
    if not lr_start >= lr_end >= 0:
        raise ConfigurationError(f"require lr_start >= lr_end >= 0, got lr_start="
                                 f"{lr_start} and lr_end={lr_end}")
    if not weight_decay >= 0:
        raise ConfigurationError("weight_decay must be >= 0")


def cosine_rates(lr_start: float, lr_end: float, total_steps: int, start: int,
                 count: int) -> np.ndarray:
    """The rates of steps ``start`` to ``start + count - 1`` of a cosine
    annealing from lr_start down to lr_end over total_steps, by ``math.cos``,
    in a table allocated in one call, so a count no table holds is a
    RangeError at once. Unchecked otherwise: the schedule was checked by
    :func:`check_sgd_schedule` when its config was built, and the caller
    keeps the steps in [0, total_steps]."""
    try:
        rates = np.empty(count)
    except (ValueError, MemoryError) as err:  # past numpy's size limit, or the memory's
        raise RangeError(f"no rate table holds {count} steps: {err}") from None
    span = lr_start - lr_end
    for i in range(count):
        rates[i] = lr_end + 0.5 * span * (1.0 + math.cos(math.pi * (start + i) / total_steps))
    return rates


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
    """Fully connected net: ReLU hidden layers, raw logits out. The same
    container holds a model's parameters or their gradients.

    All parameters live in one contiguous float64 vector ``flat``, laid out
    w0, b0, w1, b1, ...: weights[i] is a (layer_dims[i], layer_dims[i+1])
    view into it and biases[i] a (1, layer_dims[i+1]) view. The constructor
    validates the shapes and copies the given arrays into ``flat``, so it
    never aliases them. :func:`sgd_step` updates ``flat`` in place, so
    whoever trains a model owns it; use :meth:`copy` to keep the input.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = self.layer_dims
        if len(dims) < 2 or min(dims) < 1:
            raise DimensionError(f"need input and output dims, each >= 1, got {dims}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise DimensionError("one weight/bias pair per layer required")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i], dims[i + 1]):
                raise DimensionError(f"weights[{i}]: expected {(dims[i], dims[i+1])}, got {w.shape}")
            if b.shape != (1, dims[i + 1]):
                raise DimensionError(f"biases[{i}]: expected {(1, dims[i+1])}, got {b.shape}")
        self.flat = _pack(self.weights, self.biases)
        self.weights, self.biases = _layer_views(dims, self.flat)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def parameter_count(self) -> int:
        return self.flat.size

    @classmethod
    def aliasing(cls, layer_dims: list[int], flat: np.ndarray) -> "MlpModel":
        """A model whose ``flat`` is the given float64 vector itself: the one
        construction path that does not copy. A stacked trainer hands each
        row of its ``[K, P]`` parameter matrix to :func:`sgd_step` this way."""
        model = object.__new__(cls)
        model.layer_dims, model.flat = list(layer_dims), flat
        model.weights, model.biases = _layer_views(layer_dims, flat)
        return model

    def copy(self) -> "MlpModel":
        return MlpModel(list(self.layer_dims), self.weights, self.biases)


def init_mlp(layer_dims: list[int], rs: RandomStream) -> MlpModel:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    weights, biases = [], []
    for fi, fo in zip(layer_dims[:-1], layer_dims[1:]):
        limit = math.sqrt(6.0 / (fi + fo))
        weights.append((rs.uniform((fi, fo)) * 2.0 - 1.0) * limit)
        biases.append(np.zeros((1, fo)))
    return MlpModel(list(layer_dims), weights, biases)


# elementwise passes run in chunks of this many float64s (512 KiB)
_BLOCK = 1 << 16
_ZEROS = np.zeros(_BLOCK)
_ZEROS.flags.writeable = False


def _relu(a: np.ndarray) -> np.ndarray:
    """``np.maximum(a, 0.0, out=a)`` on a C-contiguous array, returned: each
    ``_BLOCK``-sized chunk against zeros, a contiguous array-array loop with
    the bits of the scalar call."""
    flat = a.reshape(-1)  # a view, as ``a`` is C-contiguous
    for i in range(0, flat.size, _BLOCK):
        part = flat[i : i + _BLOCK]
        np.maximum(part, _ZEROS[: part.size], out=part)
    return a


def _rowwise(op, a: np.ndarray, row: np.ndarray, out: np.ndarray, then=None) -> np.ndarray:
    """``op(a, row, out=out)`` for a (n, C) array and a (1, C) row, in blocks
    of about ``_BLOCK`` elements, each against a tiled copy of the row rather
    than as one short broadcast loop per row; ``then(block)`` runs on each
    written block of ``out`` while it is in cache. Each element meets the
    same operands, so the bits are those of the broadcast call. An array of
    one block or less takes the broadcast call itself: its tile would be a
    fresh allocation as large as the array, which costs more than it saves."""
    n, cols = a.shape
    rows = max(1, _BLOCK // max(1, cols))
    tile = np.tile(row, (rows, 1)) if n > rows else row  # row[:k] is row itself
    for i in range(0, n, rows):
        part = out[i : i + rows]
        op(a[i : i + rows], tile[: part.shape[0]], out=part)
        if then is not None:
            then(part)
    return out


def _add_bias(h: np.ndarray, b: np.ndarray, relu: bool) -> None:
    """``h += b``, then ReLU if ``relu``, in place on the C-contiguous output
    of a layer's matmul: a (rows, fo) ``h`` row-blockwise (:func:`_rowwise`),
    a (K, rows, fo) stack of small batches by the broadcast add."""
    if h.ndim == 2:
        _rowwise(np.add, h, b, h, _relu if relu else None)
    else:
        h += b
        if relu:
            _relu(h)


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
        _add_bias(h, b, relu=i != last)
        acts.append(h)
    return acts


def mlp_forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Logits (B x C) for a batch (B x input_dim)."""
    return _forward_trace(model.weights, model.biases,
                          check_matrix(batch, "batch", model.input_dim))[-1]


def _backprop(weights: list[np.ndarray], acts: list[np.ndarray], grad_logits: np.ndarray,
              grad_weights: list[np.ndarray], grad_biases: list[np.ndarray]) -> None:
    """Chain grad_logits back through the activations of one forward trace,
    overwriting the gradient views ``grad_weights``/``grad_biases`` (a
    :func:`_layer_views` pair); stacked operands as in :func:`_forward_trace`."""
    delta = grad_logits
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(np.swapaxes(acts[i], -1, -2), delta, out=grad_weights[i])
        np.add.reduce(delta, axis=-2, keepdims=True, out=grad_biases[i])
        if i > 0:
            delta = delta @ np.swapaxes(weights[i], -1, -2)
            delta *= acts[i] > 0.0  # ReLU subgradient: 0 at exactly 0


def mlp_backward(model: MlpModel, batch: np.ndarray, grad_logits: np.ndarray) -> MlpModel:
    """Parameter gradients, in a model of the same dims, for a loss whose
    logit-gradient is grad_logits.

    Whatever batch scaling the upstream loss applies is inherited unchanged;
    this routine only chains through the network.
    """
    batch = check_matrix(batch, "batch", model.input_dim)
    grad_logits = check_matrix(grad_logits, "grad_logits", model.output_dim)
    if grad_logits.shape[0] != batch.shape[0]:
        raise DimensionError(f"grad_logits has {grad_logits.shape[0]} rows, batch {batch.shape[0]}")
    acts = _forward_trace(model.weights, model.biases, batch)
    grads = MlpModel.aliasing(model.layer_dims, np.empty_like(model.flat))
    _backprop(model.weights, acts, grad_logits, grads.weights, grads.biases)
    return grads


def sgd_step(model: MlpModel, grads: MlpModel, lr: float, weight_decay: float = 0.0) -> MlpModel:
    """theta <- theta - lr * (grad + weight_decay * theta), one in-place update
    of ``model.flat``; returns model. Without decay the update is ``theta -
    lr * grad``, bit-identical to adding 0 * theta when theta is finite.

    The step checks neither ``lr`` nor ``weight_decay``: :func:`train_sgd`
    passes each job's rate table and its stack's decay, both from a config
    checked by :func:`check_sgd_schedule` when it was built."""
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
    """One model's part of a :func:`train_sgd` call: one step per entry of
    ``rates``, at that rate, on the rows of ``x`` and of ``target`` that the
    index array ``rows`` names. Jobs may share one rate table
    (:func:`cosine_rates`); what a stack shares is the call's."""

    model: MlpModel
    x: np.ndarray
    target: np.ndarray
    stream: RandomStream
    rates: np.ndarray
    rows: np.ndarray


def train_sgd(dims: list[int], b: int, jobs: list[SgdJob], dlogits,
              weight_decay: float) -> list[MlpModel | None]:
    """Minibatch SGD for every job in lockstep, on copies of their models
    (layer dims ``dims``); returns the trained models in job order, with None
    in place of each model whose parameters end non-finite.

    A job's batches are consecutive b-row slices of a fresh permutation of
    its ``rows`` per epoch from its own stream, the remainder dropped; it may
    stop mid-epoch, and it trains as on a copy of those rows. Each step
    gathers the rows of ``x`` and of ``target`` into reused [K, b, ...]
    buffers, takes the gradient w.r.t. the [K, b, C] logits z from
    ``dlogits(z, target_batch)`` (it may overwrite z), runs one stacked
    backward pass, then one sgd_step per job at the entry of its rate table
    for that step, with the stack's ``weight_decay``. Jobs are held longest
    first, so the ones still training are a prefix of the [K, P] parameter
    matrix; a job's slice of each stacked call is the call it would make
    alone, so a stack changes none of its bits.
    """
    count = len(jobs)
    order = sorted(range(count), key=lambda i: -len(jobs[i].rates))  # stable: ties keep job order
    held = [jobs[i] for i in order]
    steps = [len(job.rates) for job in held]
    params = np.stack([job.model.flat for job in held])
    grads = np.empty_like(params)
    xb = np.empty((count, b, dims[0]))
    tb = np.empty((count, b, *held[0].target.shape[1:]), held[0].target.dtype)
    feeds = [[job.x, job.target, xb[r], tb[r], job.stream, job.rows, None]
             for r, job in enumerate(held)]
    updates = [(MlpModel.aliasing(dims, params[r]), MlpModel.aliasing(dims, grads[r]), job.rates)
               for r, job in enumerate(held)]

    def prefix(k):  # the stacked operands of the first k jobs
        return (*_layer_views(dims, params[:k]), *_layer_views(dims, grads[:k]), xb[:k], tb[:k])

    active = count
    weights, biases, grad_weights, grad_biases, xs, ts = prefix(active)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite model comes back as None
        for step in range(steps[0]):
            if steps[active - 1] == step:  # the shortest jobs are done: shrink the prefix
                while steps[active - 1] == step:
                    active -= 1
                weights, biases, grad_weights, grad_biases, xs, ts = prefix(active)
            for feed in feeds[:active]:
                x, target, x_buf, t_buf, rs, rows, perm = feed
                j = step % (len(rows) // b)
                if j == 0:
                    feed[-1] = perm = rows.take(rs.permutation(len(rows)))
                batch = perm[j * b : (j + 1) * b]
                x.take(batch, 0, x_buf, "clip")  # rows are in range; "clip" skips a buffered copy
                target.take(batch, 0, t_buf, "clip")
            acts = _forward_trace(weights, biases, xs)
            _backprop(weights, acts, dlogits(acts[-1], ts), grad_weights, grad_biases)
            for model, g, rates in updates[:active]:
                sgd_step(model, g, rates[step], weight_decay)

    finite = np.isfinite(params).all(axis=1)
    row = {i: r for r, i in enumerate(order)}
    return [updates[row[i]][0].copy() if finite[row[i]] else None for i in range(count)]
