"""Shared test helpers: the small 4-class Gaussian benchmark config used by
the end-to-end tests, runners over seed lists, centralized training on the
pooled data, the per-step oracles of node training and distillation (the
latter with its row-wise KL loss), the forward pass, quantizer and Laplace
draw as they were before their fast paths, the data-to-student oracle of a
whole run built from them, the per-row rule of a multi-label row's partition
class, the block-list formula of a synthetic split, a copy of a dataset's
rows, a config file and a small CSV task written out, a CSV file's rows
read through a closed file, the README's quick-start config and library
example, a runner of ``python`` in a fresh interpreter, the arrays and bit
comparison of the fast-path tests, the traced memory peak of a call, and the
mark of a test that needs numpy's OpenBLAS."""
import copy
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedkd.cli import (
    ExperimentConfig,
    build_data,
    execute_fedkd,
    parse_dict,
)
from fedkd.datasets import SINGLE_LABEL, Dataset
from fedkd.distill import KL, distill_loss_grad, softmax_tau
from fedkd.ensemble import _TINY, PER_CLASS
from fedkd.numkit import (
    MlpModel,
    RandomStream,
    _openblas,
    init_mlp,
    mlp_backward,
    mlp_forward,
)
from fedkd.protocol import (
    STREAM_BATCH,
    STREAM_DISTILL_BATCH,
    STREAM_DISTILL_INIT,
    STREAM_INIT,
    STREAM_NOISE,
    STREAM_QUERY,
    _dims,
    _evaluate,
    masked_bce_grad,
    softmax_xent_grad,
    train_supervised,
)

ROOT = Path(__file__).resolve().parent.parent

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


def run_centralized(train, test, cfg, seed):
    """Single-site training on the pooled data, the upper reference line:
    (model, test metric), from node 0's init and batch streams of ``seed``."""
    model = init_mlp(_dims(train, cfg.hidden_dims), RandomStream(seed, (STREAM_INIT, 0)))
    model = train_supervised(model, train, cfg, RandomStream(seed, (STREAM_BATCH, 0, 0)))
    return model, _evaluate(model, test, "the centralized model")


def centralized_accuracies(overrides: dict | None, seeds) -> np.ndarray:
    cfg = gauss4_config(overrides)
    out = []
    for s in seeds:
        private, _, test, _ = build_data(cfg, s)
        _, acc = run_centralized(private, test, cfg.node, s)
        out.append(acc)
    return np.array(out)


def copying_sgd(model, grads, lr, wd):
    return MlpModel(
        model.layer_dims,
        [w - lr * (g + wd * w) for w, g in zip(model.weights, grads.weights)],
        [b - lr * (g + wd * b) for b, g in zip(model.biases, grads.biases)],
    )


def kl_loss(p, q) -> float:
    """KL(p || q) for discrete distributions, 0*log(0) taken as 0, with each
    probability clamped to [1e-12, 1] inside the logs as distill clamps it."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    log_ratio = np.log(np.clip(p, 1e-12, 1.0)) - np.log(np.clip(q, 1e-12, 1.0))
    return float(np.where(p > 0, p * log_ratio, 0.0).sum())


def rarest_positive_label(sample_labels, global_positive_counts) -> int:
    """Effective class of one multi-label row for partitioning: among the
    classes marked positive, the one with the fewest positives globally (ties
    to the lowest index); a row with no positive maps to the pseudo-class C."""
    v = np.asarray(sample_labels)
    counts = np.asarray(global_positive_counts)
    positives = np.flatnonzero(v == 1)
    if positives.size == 0:
        return int(counts.shape[0])
    return int(positives[np.argmin(counts[positives])])


def reference_gaussian_task(spec, rs):
    """A synthetic split as one fresh block per class, each ``gauss * cov_scale
    + (mean + shift)``, concatenated with its labels in class order."""
    blocks, labels = [], []
    for c in range(spec.num_classes):
        center = spec.class_means[c] + spec.domain_shift
        blocks.append(rs.gauss((spec.per_class_count, spec.dim)) * spec.cov_scale + center)
        labels.append(np.full((spec.per_class_count, 1), c, dtype=np.int64))
    return Dataset(np.concatenate(blocks), np.concatenate(labels), SINGLE_LABEL, spec.num_classes)


def subset(ds: Dataset, indices) -> Dataset:
    """A copy of the rows ``indices`` of ``ds``: a shard as a dataset of its own."""
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(ds.features[idx], ds.labels[idx], ds.task, ds.num_classes)


FENCE = "`" * 3


def readme_config() -> dict:
    """The README's first JSON block: the quick start's config."""
    readme = (ROOT / "README.md").read_text()
    return json.loads(readme.split(FENCE + "json\n", 1)[1].split(FENCE, 1)[0])


def readme_library_example() -> str:
    """The Python block under "## Library use" in the README."""
    readme = (ROOT / "README.md").read_text()
    return readme.split("## Library use", 1)[1].split(FENCE + "python\n", 1)[1].split(FENCE, 1)[0]


def run_python(*args, env=None, cwd=None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter, outside pytest's warning
    capture, with PYTHONPATH=src and the variables of ``env`` added to the
    environment: the completed process, its output captured as text."""
    return subprocess.run(
        [sys.executable, *map(str, args)],
        env={**os.environ, **(env or {}), "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, cwd=cwd,
    )


def read_rows(path) -> list[dict]:
    """The rows of a CSV file with a header (an ablation.csv or ledger.csv)
    as dicts, read through a file closed before the rows are returned."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def write_csv_task(tmp_path, multi=False):
    """Two separable 2-d blobs as CSV splits; multi adds a masked second label.
    Every split holds both values of each label, and multi marks every tenth
    row's second label unknown (-1)."""
    rng = np.random.default_rng(0)
    paths = {}
    for split, n in (("private", 80), ("public", 80), ("test", 40)):
        rows = []
        for i in range(n):
            y = i % 2
            x0 = (3.0 if y else -3.0) + rng.normal(0, 0.3)
            x1 = (3.0 if i % 4 < 2 else -3.0) + rng.normal(0, 0.3)
            if multi:
                b = 1 if x1 > 0 else 0
                if i % 10 == 9:
                    b = -1
                rows.append([f"{x0:.5f}", f"{x1:.5f}", y, b])
            else:
                rows.append([f"{x0:.5f}", f"{x1:.5f}", y])
        p = tmp_path / f"{split}.csv"
        with p.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x0", "x1", "a", "b"] if multi else ["x0", "x1", "y"])
            w.writerows(rows)
        paths[split] = str(p)
    task = {"kind": "csv", "task_type": "multi_label" if multi else "single_label",
            "num_classes": 2, "feature_cols": ["x0", "x1"],
            "label_cols": ["a", "b"] if multi else ["y"], **paths}
    return task


def reference_distill(model, x, teacher, cfg, rs, task):
    """distill as the per-step chain of checked public calls with a copying
    SGD update; the single-label KL loss is summed row by row with kl_loss.
    Each step's rate is the cosine schedule's, computed here inline."""
    per_epoch = x.shape[0] // cfg.batch_size
    trace, step = [], 0
    while step < cfg.steps:
        order = rs.permutation(x.shape[0])
        for j in range(per_epoch):
            if step >= cfg.steps:
                break
            idx = order[j * cfg.batch_size : (j + 1) * cfg.batch_size]
            z = mlp_forward(model, x[idx])
            loss, gz = distill_loss_grad(z, teacher[idx], cfg, task=task)
            if cfg.loss_mode == KL and task == SINGLE_LABEL:
                p, q = softmax_tau(teacher[idx], cfg.tau), softmax_tau(z, cfg.tau)
                loss = (cfg.tau ** 2 / len(idx)) * sum(kl_loss(p[i], q[i]) for i in range(len(idx)))
            lr = cfg.lr_end + 0.5 * (cfg.lr_start - cfg.lr_end) * (
                1.0 + math.cos(math.pi * step / cfg.steps))
            model = copying_sgd(model, mlp_backward(model, x[idx], gz), lr, cfg.weight_decay)
            trace.append({"step": step, "loss": loss, "lr": lr})
            step += 1
    return model, trace


def reference_train(model, ds, cfg, batch_rs, rounds=1, round_index=0):
    """train_supervised as the per-step chain of checked public calls, with a
    copying SGD update: the oracle for the fused, in-place trainer. Round
    ``round_index`` of ``rounds`` runs its steps on one cosine horizon over
    all rounds; each step's rate is computed here inline."""
    b = min(cfg.batch_size, ds.n)
    per_epoch = ds.n // b
    steps = cfg.epochs * per_epoch
    step = round_index * steps
    for _ in range(cfg.epochs):
        order = batch_rs.permutation(ds.n)
        for j in range(per_epoch):
            idx = order[j * b : (j + 1) * b]
            x = ds.features[idx]
            z = mlp_forward(model, x)
            if ds.task == SINGLE_LABEL:
                _, gz = softmax_xent_grad(z, ds.labels[idx, 0])
            else:
                _, gz = masked_bce_grad(z, ds.labels[idx])
            g = mlp_backward(model, x, gz)
            lr = cfg.lr_end + 0.5 * (cfg.lr_start - cfg.lr_end) * (
                1.0 + math.cos(math.pi * step / (rounds * steps)))
            wd = cfg.weight_decay
            model = MlpModel(
                model.layer_dims,
                [w - lr * (gw + wd * w) for w, gw in zip(model.weights, g.weights)],
                [b_ - lr * (gb + wd * b_) for b_, gb in zip(model.biases, g.biases)],
            )
            step += 1
    return model


def old_forward_trace(weights, biases, batch):
    """The forward pass with the broadcast bias add and scalar ReLU."""
    acts, h = [batch], batch
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w
        h += b
        if i != len(weights) - 1:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def old_levels(z, z_max, scale):
    """The quantizer's grid levels, with the scalar clamp it had before the
    blocked one."""
    out = np.empty(np.shape(z))
    if not math.isfinite(scale * float(z_max)):
        np.divide(z, z_max, out=out)
        out *= scale / 2
        top = scale // 2
    else:
        np.multiply(scale, z, out=out)
        out /= 2.0 * z_max
        top = -(-scale // 2)
    np.ceil(out, out=out)
    return np.minimum(out, top, out=out)


def old_grid_values(levels, z_max, scale):
    """The grid values of old_levels, in place, as a second function once
    computed them: it decided the overflow branch again."""
    if not math.isfinite(scale * float(z_max)):
        levels /= scale / 2
        levels *= z_max
    else:
        levels *= 2.0 * z_max / scale
    return levels


def old_laplace(gamma, u):
    """laplace_sample's formula with the scalar floor."""
    return -(1.0 / gamma) * np.sign(u) * np.log(np.maximum(1.0 - 2.0 * np.abs(u), _TINY))


def reference_fedkd(private, public, plan, run, seed):
    """run_fedkd from data to student as a chain of oracles on the run's own
    streams: each node by reference_train on a copy of its rows, each query
    pass by old_forward_trace, the fold by old_levels/old_grid_values with
    the per-class weights computed inline, the noise by old_laplace, and the
    student by reference_distill. Returns (teacher logits, central model,
    trace)."""
    split, rows = private, plan.assignments
    if run.labeled_public:  # the public rows join every node's shard
        split = Dataset(np.concatenate([private.features, public.features]),
                        np.concatenate([private.labels, public.labels]),
                        private.task, private.num_classes)
        rows = [np.concatenate([a, np.arange(private.n, split.n)]) for a in rows]
    blocks, counts = {}, []
    for k, idx in enumerate(rows):
        shard = subset(split, idx)
        counts.append(np.bincount(shard.labels[:, 0], minlength=shard.num_classes)
                      if shard.task == SINGLE_LABEL else (shard.labels == 1).sum(axis=0))
        if not shard.n:
            continue
        model = reference_train(init_mlp(_dims(split, run.node.hidden_dims),
                                         RandomStream(seed, (STREAM_INIT, k))),
                                shard, run.node, RandomStream(seed, (STREAM_BATCH, k, 0)))
        passes = []
        for r in range(run.repeats):
            x = public.features
            if run.query_noise:
                x = x + run.query_noise * RandomStream(seed, (STREAM_QUERY, k, r)).gauss(x.shape)
            passes.append(old_forward_trace(model.weights, model.biases, x)[-1])
        blocks[k] = sum(passes[1:], passes[0]) / run.repeats

    counts = np.array(counts)
    col = counts.sum(axis=0)
    omega = np.where(col > 0, counts / np.maximum(col, 1), 1.0 / len(rows))
    scale, z_max = run.ensemble.quant_scale, max(np.abs(z).max() for z in blocks.values())
    folded = []
    for k, z in blocks.items():
        if scale is not None:
            z = old_grid_values(old_levels(z, z_max, scale), z_max, scale)
        folded.append(z * omega[k] if run.ensemble.weight_mode == PER_CLASS else z)
    teacher = sum(folded, np.zeros(folded[0].shape))  # from +0.0, as the fold starts
    if run.ensemble.weight_mode != PER_CLASS:
        teacher = teacher / len(folded)
    if run.ensemble.gamma is not None:
        u = RandomStream(seed, (STREAM_NOISE,)).uniform(teacher.shape) - 0.5
        teacher = teacher + old_laplace(run.ensemble.gamma, u)

    student = init_mlp(_dims(public, run.central_hidden_dims),
                       RandomStream(seed, (STREAM_DISTILL_INIT,)))
    central, trace = reference_distill(student, public.features, teacher, run.distill,
                                       RandomStream(seed, (STREAM_DISTILL_BATCH,)), public.task)
    return teacher, central, trace


needs_openblas = pytest.mark.skipif(_openblas() is None,
                                    reason="numpy loaded no OpenBLAS, so nothing pins")

DBL_MAX = np.finfo(np.float64).max
# the least gamma whose largest Laplace draw, (1/gamma) * -ln(tiny), is finite
GAMMA_MIN = float.fromhex("0x1.6232bdd7abcd3p-1015")
# signed zeros, infinities, NaN, values near DBL_MAX and subnormals
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, DBL_MAX, -DBL_MAX,
                     np.nextafter(DBL_MAX, 0.0), -DBL_MAX / 3, 5e-324, -5e-324])


def mixed(seed: int, shape, special_share: float = 0.3) -> np.ndarray:
    """Values over many magnitudes, a share of them drawn from SPECIALS."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    pick = rng.random(shape) < special_share
    a[pick] = rng.choice(SPECIALS, int(pick.sum()))
    return a


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bit patterns: signbit and NaN payload included."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def traced_peak(fn) -> int:
    """The peak of the memory tracemalloc traces while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
