"""Offline distillation of aggregated teacher logits into a central model,
plus the evaluation metrics used throughout (top-1 accuracy and rank-based
AUC with unknown-label exclusion; the AUC's midranks are computed in numpy).

Two distillation objectives:

* ``logit_l2``: (1/B) * sum_i ||teacher_i - student_i||^2, the default; works
  for any output head since it never normalizes.
* ``kl``: temperature-softened KL(teacher || student) scaled by tau^2 so the
  gradient magnitude stays O(1) as tau grows. Multi-label heads use
  per-class binary distributions from a tempered sigmoid.

At large tau the tau^2-scaled KL gradient approaches a positive multiple of
the L2 gradient on mean-centered logits, which the tests pin down.

:func:`distill` is one job of :func:`~fedkd.numkit.train_sgd`, the SGD loop
of node training too; this module supplies only the loss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset, MULTI_LABEL, SINGLE_LABEL
from .errors import ConfigurationError, DimensionError, EvaluationError
from .numkit import (
    CosineSchedule,
    MlpModel,
    RandomStream,
    SgdJob,
    check_matrix,
    cosine_lr,
    mlp_forward,
    train_sgd,
)

LOGIT_L2 = "logit_l2"
KL = "kl"

_P_FLOOR = 1e-12  # probabilities are clamped to [_P_FLOOR, 1] inside logs


def _safe_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.clip(p, _P_FLOOR, 1.0))

__all__ = [
    "LOGIT_L2",
    "KL",
    "DistillConfig",
    "softmax_tau",
    "sigmoid",
    "kl_loss",
    "binary_kl_loss",
    "logit_l2_loss",
    "distill_loss_grad",
    "distill",
    "evaluate_single",
    "mann_whitney_auc",
    "MultiLabelEval",
    "evaluate_multi",
]


@dataclass
class DistillConfig:
    steps: int = 2000
    batch_size: int = 64
    lr_start: float = 0.05
    lr_end: float = 0.0
    weight_decay: float = 0.0
    tau: float = math.inf
    loss_mode: str = LOGIT_L2
    task: str = SINGLE_LABEL

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if not self.lr_start >= self.lr_end >= 0:
            raise ConfigurationError(f"require lr_start >= lr_end >= 0, got lr_start="
                                     f"{self.lr_start} and lr_end={self.lr_end}")
        if self.loss_mode not in (LOGIT_L2, KL):
            raise ConfigurationError(f"unknown loss_mode {self.loss_mode!r}")
        if self.task not in (SINGLE_LABEL, MULTI_LABEL):
            raise ConfigurationError(f"unknown task {self.task!r}")
        if not self.tau > 0:
            raise ConfigurationError("tau must be > 0")
        if self.loss_mode == KL and math.isinf(self.tau):
            raise ConfigurationError("kl loss needs a finite tau")


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction, computed in (and returning) z."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax_tau(z: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Row-wise tempered softmax with max subtraction."""
    return _softmax_rows(np.asarray(z, dtype=np.float64) / tau)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _kl_terms(p: np.ndarray, q: np.ndarray, log_p: np.ndarray | None = None) -> np.ndarray:
    """Elementwise p * log(p / q) with 0*log(0) taken as 0; ``log_p`` is
    _safe_log(p) when the caller already has it."""
    if log_p is None:
        log_p = _safe_log(p)
    return np.where(p > 0, p * (log_p - _safe_log(q)), 0.0)


def kl_loss(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) for discrete distributions, 0*log(0) taken as 0."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return float(_kl_terms(p, q).sum())


def binary_kl_loss(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Elementwise KL between Bernoulli(p) and Bernoulli(q)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return _kl_terms(p, q) + _kl_terms(1.0 - p, 1.0 - q)


def logit_l2_loss(
    student: np.ndarray, teacher: np.ndarray
) -> tuple[float, np.ndarray]:
    """Batch-mean squared logit mismatch and its gradient w.r.t. student.

    loss = (1/B) sum of squared differences; grad = (2/B)(student - teacher).
    """
    return distill_loss_grad(student, teacher, DistillConfig(loss_mode=LOGIT_L2))


def _teacher_targets(teacher: np.ndarray, cfg: DistillConfig) -> tuple[np.ndarray, ...]:
    """Per-row teacher inputs of the loss: the logits (``logit_l2``), the tempered
    softmax and its safe log (single-label ``kl``) or tempered sigmoid (multi-label)."""
    if cfg.loss_mode == LOGIT_L2:
        return (teacher,)
    if cfg.task == SINGLE_LABEL:
        p = softmax_tau(teacher, cfg.tau)
        return p, _safe_log(p)
    return (sigmoid(teacher / cfg.tau),)


def _distill_loss_grad(student: np.ndarray, targets: tuple[np.ndarray, ...], cfg: DistillConfig):
    """Unchecked :func:`distill_loss_grad` given _teacher_targets; the trainer's kernel."""
    b = student.shape[0]
    if cfg.loss_mode == LOGIT_L2:
        d = student - targets[0]
        return float((d * d).sum() / b), (2.0 / b) * d
    tau = cfg.tau
    p = targets[0]
    if cfg.task == SINGLE_LABEL:
        q = softmax_tau(student, tau)
        # per-row KL sums added left to right, as sum(kl_loss(p[i], q[i])) does
        loss = (tau * tau / b) * sum(_kl_terms(p, q, targets[1]).sum(axis=1).tolist())
    else:
        q = sigmoid(student / tau)
        loss = (tau * tau / b) * float(binary_kl_loss(p, q).sum())
    return loss, (tau / b) * (q - p)


def distill_loss_grad(
    student: np.ndarray, teacher: np.ndarray, cfg: DistillConfig
) -> tuple[float, np.ndarray]:
    """Batch loss and its gradient w.r.t. the student logits."""
    student = check_matrix(student, "student logits")
    teacher = check_matrix(teacher, "teacher logits")
    if student.shape != teacher.shape:
        raise DimensionError("student and teacher logit shapes differ")
    return _distill_loss_grad(student, _teacher_targets(teacher, cfg), cfg)


def distill(
    model: MlpModel,
    features: np.ndarray,
    teacher_logits: np.ndarray,
    cfg: DistillConfig,
    rs: RandomStream,
) -> tuple[MlpModel, list[dict]]:
    """Run cfg.steps SGD steps against frozen teacher logits.

    Batches are consecutive slices of a fresh permutation each epoch; a
    trailing partial batch is dropped. Teacher targets are indexed by the
    same permutation, so no node is ever re-queried here. Trains a copy of
    ``model``; a non-finite result raises DivergenceError.
    """
    features = check_matrix(features, "features", model.input_dim)
    teacher_logits = check_matrix(teacher_logits, "teacher logits", model.output_dim)
    n = features.shape[0]
    if teacher_logits.shape[0] != n:
        raise DimensionError("teacher logits and features row counts differ")
    if cfg.batch_size > n:
        raise ConfigurationError(f"batch_size {cfg.batch_size} exceeds public set size {n}")

    sched = CosineSchedule(cfg.lr_start, cfg.lr_end, cfg.steps)
    trace = []

    def dlogits(z, batches):  # a stack of one: z is [1, b, C]
        loss, gz = _distill_loss_grad(z[0], tuple(t[0] for t in batches), cfg)
        trace.append({"step": len(trace), "loss": loss, "lr": cosine_lr(sched, len(trace))})
        return gz[None]

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite target diverges instead
        targets = _teacher_targets(teacher_logits, cfg)
    job = SgdJob(model, features, targets, rs, cfg.steps, sched, weight_decay=cfg.weight_decay)
    (model,) = train_sgd(model.layer_dims, cfg.batch_size, [job], dlogits, "distillation", [None])
    return model, trace


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
