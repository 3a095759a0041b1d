"""Offline distillation of aggregated teacher logits into a central model,
plus the evaluation metrics used throughout (top-1 accuracy and rank-based
AUC with unknown-label exclusion; the AUC's midranks are computed in numpy).

Two distillation objectives:

* ``logit_l2``: (1/B) * sum_i ||teacher_i - student_i||^2, the default; works
  for any output head since it never normalizes.
* ``kl``: temperature-softened KL(teacher || student) scaled by tau^2 so the
  gradient magnitude stays O(1) as tau grows. Multi-label heads use
  per-class binary distributions from a tempered sigmoid; a run passes its
  data's label type as ``task``.

At large tau the tau^2-scaled KL gradient approaches a positive multiple of
the L2 gradient on mean-centered logits, which the tests pin down.

:func:`distill` runs one student, or a stack of students, as the jobs of
one :func:`~fedkd.numkit.train_sgd` call, the SGD loop of node training
too; this module supplies only the loss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset, MULTI_LABEL, SINGLE_LABEL
from .errors import ConfigurationError, DimensionError, DivergenceError, EvaluationError
from .numkit import (
    MlpModel,
    SgdJob,
    check_matrix,
    check_sgd_schedule,
    cosine_rates,
    mlp_forward,
    train_sgd,
)

LOGIT_L2 = "logit_l2"
KL = "kl"

_P_FLOOR = 1e-12  # probabilities are clamped to [_P_FLOOR, 1] inside logs


def _safe_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.clip(p, _P_FLOOR, 1.0))


@dataclass
class DistillConfig:
    steps: int = 2000
    batch_size: int = 64
    lr_start: float = 0.05
    lr_end: float = 0.0
    weight_decay: float = 0.0
    tau: float = math.inf
    loss_mode: str = LOGIT_L2

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        check_sgd_schedule(self.lr_start, self.lr_end, self.weight_decay)
        if self.loss_mode not in (LOGIT_L2, KL):
            raise ConfigurationError(f"unknown loss_mode {self.loss_mode!r}")
        if not self.tau > 0:
            raise ConfigurationError("tau must be > 0")
        if self.loss_mode == KL and math.isinf(self.tau):
            raise ConfigurationError("kl loss needs a finite tau")

    def check_batch(self, rows: int) -> None:
        """The batch against the ``rows`` of the public set it is drawn from."""
        if self.batch_size > rows:
            raise ConfigurationError(f"batch_size {self.batch_size} exceeds public set size {rows}")


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction, computed in (and returning) z.

    The row max is reduced over a class-major copy of z, one elementwise
    maximum per class, which numpy does far faster than a max along a short
    last axis; the max is exact and NaN propagates alike, so only the sign
    of a zero max can differ, and exp of either zero is 1."""
    z -= np.maximum.reduce(np.moveaxis(z, -1, 0).copy(), axis=0)[..., None]
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax_tau(z: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Row-wise tempered softmax with max subtraction."""
    return _softmax_rows(np.asarray(z, dtype=np.float64) / tau)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function: 1 / (1 + e^-z) for z >= 0, and
    e^z / (1 + e^z) otherwise, so exp only sees -|z|."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _kl_terms(p: np.ndarray, q: np.ndarray, log_p: np.ndarray | None = None) -> np.ndarray:
    """Elementwise p * log(p / q) with 0*log(0) taken as 0; ``log_p`` is
    _safe_log(p) when the caller already has it."""
    if log_p is None:
        log_p = _safe_log(p)
    return np.where(p > 0, p * (log_p - _safe_log(q)), 0.0)


def binary_kl_loss(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Elementwise KL between Bernoulli(p) and Bernoulli(q)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return _kl_terms(p, q) + _kl_terms(1.0 - p, 1.0 - q)


def _teacher_targets(teacher: np.ndarray, cfg: DistillConfig, task: str, *,
                     loss: bool = True) -> tuple[np.ndarray, ...]:
    """Per-row teacher inputs of the gradient: the logits (``logit_l2``), the
    tempered softmax (single-label ``kl``) or tempered sigmoid (multi-label);
    with ``loss``, the single-label softmax's safe log follows, which only
    the loss reads."""
    if task not in (SINGLE_LABEL, MULTI_LABEL):
        raise ConfigurationError(f"unknown task {task!r}")
    if cfg.loss_mode == LOGIT_L2:
        return (teacher,)
    if task == SINGLE_LABEL:
        p = softmax_tau(teacher, cfg.tau)
        return (p, _safe_log(p)) if loss else (p,)
    return (sigmoid(teacher / cfg.tau),)


def _distill_grad(student: np.ndarray, targets: tuple[np.ndarray, ...], cfg: DistillConfig,
                  task: str) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked gradient w.r.t. a [J, b, C] stack of student logits, against
    the matching rows of _teacher_targets, and the student side ``s`` the loss
    reads: the gradient is (2/b)·d with s = d = student - teacher for
    ``logit_l2``, and (tau/b)·(q - p) with s = q, the student's tempered
    softmax or sigmoid, for ``kl``. The trainer's kernel."""
    b = student.shape[-2]
    if cfg.loss_mode == LOGIT_L2:
        d = student - targets[0]
        return (2.0 / b) * d, d
    q = softmax_tau(student, cfg.tau) if task == SINGLE_LABEL else sigmoid(student / cfg.tau)
    return (cfg.tau / b) * (q - targets[0]), q


def _distill_losses(s: np.ndarray, targets: tuple[np.ndarray, ...], cfg: DistillConfig,
                    task: str) -> list[float]:
    """Each job's batch loss from _distill_grad's ``s`` and the full
    _teacher_targets rows, summed over its own slice as a lone job's is."""
    b = s.shape[-2]
    if cfg.loss_mode == LOGIT_L2:
        return [float(sq.sum() / b) for sq in s * s]
    scale = cfg.tau * cfg.tau / b
    if task == SINGLE_LABEL:
        # per-row KL sums added left to right, as a Python sum over the rows does
        rows = _kl_terms(targets[0], s, targets[1]).sum(axis=-1)
        return [scale * sum(r.tolist()) for r in rows]
    return [scale * float(t.sum()) for t in binary_kl_loss(targets[0], s)]


def distill_loss_grad(
    student: np.ndarray, teacher: np.ndarray, cfg: DistillConfig, *, task: str = SINGLE_LABEL
) -> tuple[float, np.ndarray]:
    """Batch loss and its gradient w.r.t. the student logits, for ``task`` labels."""
    student = check_matrix(student, "student logits")
    teacher = check_matrix(teacher, "teacher logits")
    if student.shape != teacher.shape:
        raise DimensionError("student and teacher logit shapes differ")
    targets = tuple(t[None] for t in _teacher_targets(teacher, cfg, task))
    grad, s = _distill_grad(student[None], targets, cfg, task)
    (loss,) = _distill_losses(s, targets, cfg, task)
    return loss, grad[0]


def distill(model, features, teacher_logits, cfg: DistillConfig, rs, *, task: str = SINGLE_LABEL,
            keep_trace: bool = True):
    """Run cfg.steps SGD steps against frozen teacher logits of ``task`` labels;
    returns the trained copy of ``model`` and its per-step trace of loss and
    of the rate the step's update used, read from the one rate table every
    job trains on. Without ``keep_trace`` the trace is None, and no step
    computes the loss or the log of the teacher's distribution, which only
    the trace reads; the gradient, and so the model, keeps its bits.

    Batches are consecutive slices of a fresh permutation each epoch; a
    trailing partial batch is dropped. Teacher targets are indexed by the
    same permutation, so no node is ever re-queried here. A non-finite result
    raises DivergenceError.

    Given equal-length lists of models (of one layer dims), feature matrices,
    teacher logits and streams instead, every model is a job of one stacked
    :func:`~fedkd.numkit.train_sgd` call and a list of (model, trace) pairs
    comes back; a job's slice of every stacked call is the call it would make
    alone, so each pair is bit-identical to its lone call's. A student that
    diverges comes back as None in place of its pair, and the others are
    unaffected.
    """
    single = isinstance(model, MlpModel)
    models, features, teacher_logits, streams = (
        ([model], [features], [teacher_logits], [rs]) if single
        else (model, features, teacher_logits, rs))
    if not len(models) == len(features) == len(teacher_logits) == len(streams):
        raise ConfigurationError("distill needs one feature matrix, teacher and stream per model")
    dims = models[0].layer_dims
    rates = cosine_rates(cfg.lr_start, cfg.lr_end, cfg.steps, 0, cfg.steps)
    jobs = []
    for student, x, teacher, stream in zip(models, features, teacher_logits, streams):
        if student.layer_dims != dims:
            raise DimensionError(f"stacked students have dims {dims} and {student.layer_dims}")
        x = check_matrix(x, "features", student.input_dim)
        teacher = check_matrix(teacher, "teacher logits", student.output_dim)
        n = x.shape[0]
        if teacher.shape[0] != n:
            raise DimensionError("teacher logits and features row counts differ")
        cfg.check_batch(n)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite target diverges instead
            targets = _teacher_targets(teacher, cfg, task, loss=keep_trace)
        jobs.append(SgdJob(student, x, targets, stream, rates, cfg.weight_decay))
    traces = [[] for _ in jobs] if keep_trace else [None] * len(jobs)

    def dlogits(z, batches):  # every job runs cfg.steps steps, so z stacks them all, in order
        gz, s = _distill_grad(z, batches, cfg, task)
        if keep_trace:
            step = len(traces[0])
            for trace, loss in zip(traces, _distill_losses(s, batches, cfg, task)):
                trace.append({"step": step, "loss": loss, "lr": rates[step]})
        return gz

    trained = train_sgd(dims, cfg.batch_size, jobs, dlogits)
    if not single:
        return [None if m is None else (m, t) for m, t in zip(trained, traces)]
    if trained[0] is None:
        raise DivergenceError("distillation")
    return trained[0], traces[0]


# ---------------------------------------------------------------------------
# evaluation


def _test_logits(model: MlpModel, ds: Dataset) -> np.ndarray:
    """The model's logits on ``ds``; a model that overflows there gives no
    metric, but an EvaluationError instead of numpy warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = mlp_forward(model, ds.features)
    if not np.isfinite(logits).all():
        raise EvaluationError("non-finite model logits on the evaluation set")
    return logits


def evaluate_single(model: MlpModel, ds: Dataset) -> float:
    """Top-1 accuracy; argmax ties go to the lowest class index."""
    if ds.task != SINGLE_LABEL:
        raise ConfigurationError("evaluate_single needs a single-label dataset")
    if ds.n == 0:
        raise EvaluationError("empty evaluation set")
    logits = _test_logits(model, ds)
    pred = logits.argmax(axis=1)
    return float((pred == ds.labels[:, 0]).mean())


def mann_whitney_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-sum AUC over one class column; label -1 marks unknown and is
    excluded before ranking. Needs at least one positive and one negative;
    a NaN score makes the AUC NaN.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise DimensionError("scores and labels length differ")
    keep = labels != -1
    scores, labels = scores[keep], labels[keep]
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC undefined without both a positive and a negative")
    if np.isnan(scores).any():
        return math.nan
    # midranks, so ties contribute 1/2: a tie group spanning sorted positions
    # [start, end) gets the exact half-integer (start + end + 1) / 2
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    r_pos = ranks[labels == 1].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class MultiLabelEval:
    per_class: np.ndarray = field(repr=False)  # NaN where undefined
    mean_auc: float = 0.0


def evaluate_multi(model: MlpModel, ds: Dataset) -> MultiLabelEval:
    """Per-class AUC and the mean over classes with both label values present."""
    if ds.task != MULTI_LABEL:
        raise ConfigurationError("evaluate_multi needs a multi-label dataset")
    if ds.n == 0:
        raise EvaluationError("empty evaluation set")
    logits = _test_logits(model, ds)
    per_class = np.full(ds.num_classes, np.nan)
    for c in range(ds.num_classes):
        try:
            per_class[c] = mann_whitney_auc(logits[:, c], ds.labels[:, c])
        except EvaluationError:
            continue
    valid = ~np.isnan(per_class)
    if not valid.any():
        raise EvaluationError("no class had both positives and negatives")
    return MultiLabelEval(per_class, float(per_class[valid].mean()))
