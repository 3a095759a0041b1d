"""End-to-end runs: independent local training, the one-shot logit ensemble
into a distilled central model, the parameter-averaging baseline, and exact
byte accounting for everything that crosses the wire.

Determinism contract: every random consumer draws from a stream keyed by
(seed, purpose tag, node, round), never from shared state, so results are
identical under any scheduling of the per-node work. With ``node_seeds`` the
node index is dropped from the key, which makes "same shard, same seed, same
parameters" hold across nodes.

Ledger convention: an entry's bytes are the serialized payload a frame
carries (logits at 8 bytes each, the max-abs scalar at 8, parameters at 8P);
fixed addressing fields both ends already know are not billed, so totals match
the plain bytes-per-value arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import (
    Dataset,
    PartitionPlan,
    SINGLE_LABEL,
    profile,
    profile_of,
)
from .distill import (
    DistillConfig,
    distill,
    evaluate_multi,
    evaluate_single,
    sigmoid,
    softmax_tau,
    _safe_log,
    _softmax_rows,
)
from .ensemble import (
    EnsembleConfig,
    LogitBlock,
    PER_CLASS,
    WeightTable,
    ensemble,
    float_payload_bytes,
    importance_weights,
    packed_payload_bytes,
)
from .errors import ConfigurationError, DimensionError, DivergenceError, RangeError
from .numkit import (
    CosineSchedule,
    MlpGrads,
    MlpModel,
    RandomStream,
    _backprop,
    _forward_trace,
    _layer_views,
    check_matrix,
    cosine_lr,
    init_mlp,
    sgd_step,
)

# stream purpose tags (second element of every stream id)
STREAM_INIT = 1
STREAM_BATCH = 2
STREAM_QUERY = 3
STREAM_NOISE = 4
STREAM_DISTILL_INIT = 5
STREAM_DISTILL_BATCH = 6

PHASES = ("scalar_max_up", "logits_up", "params_up", "params_down")

__all__ = [
    "PHASES",
    "LedgerEntry",
    "BandwidthLedger",
    "ledger_report",
    "TrainConfig",
    "NodeHandle",
    "FedKdRun",
    "FedKdResult",
    "FedAvgResult",
    "softmax_xent_grad",
    "masked_bce_grad",
    "train_supervised",
    "train_locals",
    "collect_logits",
    "run_fedkd",
    "run_fedavg",
    "run_centralized",
    "fedavg_bandwidth_bytes",
    "encode_params",
    "decode_params",
    "param_payload_bytes",
]


@dataclass
class LedgerEntry:
    phase: str
    node_id: int
    bytes: int


class BandwidthLedger:
    """Append-only record of every frame sent, one entry per frame."""

    def __init__(self):
        self.entries: list[LedgerEntry] = []

    def add(self, phase: str, node_id: int, nbytes: int) -> None:
        if phase not in PHASES:
            raise ConfigurationError(f"unknown ledger phase {phase!r}")
        if nbytes < 0:
            raise RangeError("frame bytes must be >= 0")
        self.entries.append(LedgerEntry(phase, int(node_id), int(nbytes)))

    def total(self, phase: str | None = None) -> int:
        if phase is None:
            return sum(e.bytes for e in self.entries)
        return sum(e.bytes for e in self.entries if e.phase == phase)

    def phase_totals(self) -> dict[str, int]:
        return {p: self.total(p) for p in PHASES}

    def rows(self) -> list[tuple[str, int, int]]:
        return [(e.phase, e.node_id, e.bytes) for e in self.entries]


def ledger_report(ledger: BandwidthLedger) -> dict:
    """Integer byte totals plus both decimal-GB and binary-GiB renderings."""
    total = ledger.total()
    return {
        "per_phase": ledger.phase_totals(),
        "total_bytes": total,
        "total_mb_decimal": total / 1e6,
        "total_gb_decimal": total / 1e9,
        "total_gib_binary": total / 2**30,
    }


def fedavg_bandwidth_bytes(rounds: int, num_nodes: int, param_count: int) -> int:
    """Closed form for full-participation parameter exchange: each round every
    node downloads and uploads all P parameters as float64."""
    return rounds * num_nodes * 2 * 8 * param_count


# ---------------------------------------------------------------------------
# local supervised training


@dataclass
class TrainConfig:
    layer_dims: list[int]
    epochs: int = 20
    batch_size: int = 32
    lr_start: float = 0.05
    lr_end: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ConfigurationError("layer_dims needs at least input and output")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")


def _xent_dlogits(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Batch-mean cross-entropy logit gradient, computed in the softmax p."""
    p[np.arange(p.shape[0]), labels] -= 1.0
    p /= p.shape[0]
    return p


def _bce_dlogits(q: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Masked sigmoid cross-entropy logit gradient from the sigmoid q."""
    mask = labels != -1
    return np.where(mask, q - np.where(mask, labels, 0).astype(np.float64), 0.0) / q.shape[0]


def softmax_xent_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its logit gradient."""
    p = softmax_tau(logits, 1.0)
    loss = float(-_safe_log(p[np.arange(p.shape[0]), labels]).mean())
    return loss, _xent_dlogits(p, labels)


def masked_bce_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Per-class sigmoid cross-entropy; label -1 cells carry no loss or grad."""
    mask = labels != -1
    y = np.where(mask, labels, 0).astype(np.float64)
    q = sigmoid(logits)
    loss = float(-(mask * (y * _safe_log(q) + (1.0 - y) * _safe_log(1.0 - q))).sum() / q.shape[0])
    return loss, _bce_dlogits(q, labels)


def train_supervised(
    model: MlpModel,
    ds: Dataset,
    cfg: TrainConfig,
    batch_rs: RandomStream,
    *,
    total_steps: int | None = None,
    step_offset: int = 0,
    node_id: int | None = None,
) -> MlpModel:
    """SGD with a cosine schedule on a copy of model; batches are consecutive
    slices of a fresh per-epoch permutation, trailing remainder dropped.

    ``total_steps``/``step_offset`` let a caller spread one cosine horizon
    over several calls (round-based training resumes mid-schedule). A
    non-finite result raises DivergenceError naming ``node_id``.
    """
    if ds.n == 0:
        raise ConfigurationError("cannot train on an empty dataset")
    features = check_matrix(ds.features, "features", model.input_dim)
    if ds.task == SINGLE_LABEL:
        link, dlogits, labels = _softmax_rows, _xent_dlogits, ds.labels[:, 0]
    else:
        link, dlogits, labels = sigmoid, _bce_dlogits, ds.labels
    b = min(cfg.batch_size, ds.n)
    per_epoch = ds.n // b
    horizon = cfg.epochs * per_epoch if total_steps is None else total_steps
    sched = CosineSchedule(cfg.lr_start, cfg.lr_end, horizon)
    model = model.copy()
    grads = MlpGrads(model.weights, model.biases)  # reused buffer, overwritten each step
    with np.errstate(over="ignore", invalid="ignore"):  # reported on exit instead
        for step in range(cfg.epochs * per_epoch):
            j = step % per_epoch
            if j == 0:
                order = batch_rs.permutation(ds.n)[: per_epoch * b]
                xs, ys = features[order], labels[order]
            rows = slice(j * b, (j + 1) * b)
            acts = _forward_trace(model, xs[rows])
            gz = dlogits(link(acts[-1]), ys[rows])
            lr = cosine_lr(sched, step_offset + step)
            model = sgd_step(model, _backprop(model, acts, gz, grads), lr, cfg.weight_decay)
    if not np.isfinite(model.flat).all():
        raise DivergenceError("node training", node_id)
    return model


@dataclass
class NodeHandle:
    """A trained node plus its instrumented public-query counter.

    ``query_rows`` counts forward-pass rows served to the aggregator; the
    one-shot property says it ends at repeats * |public| and never moves
    during distillation.
    """

    node_id: int
    train_set: Dataset
    model: MlpModel | None
    query_rows: int = 0


def _node_stream(seed, node_seeds, k: int, tag: int, *extra: int) -> RandomStream:
    if node_seeds is not None:
        return RandomStream(node_seeds[k], (tag, *extra))
    return RandomStream(seed, (tag, k, *extra))


def _as_cfg_list(node_cfg, count: int) -> list[TrainConfig]:
    cfgs = list(node_cfg) if isinstance(node_cfg, (list, tuple)) else [node_cfg] * count
    if len(cfgs) != count:
        raise ConfigurationError(f"got {len(cfgs)} node configs for {count} nodes")
    return cfgs


def train_locals(
    shards: list[Dataset],
    node_cfg,
    seed: int,
    node_seeds: list[int] | None = None,
) -> list[NodeHandle]:
    """Train every non-empty shard independently; empty shards yield a handle
    with no model so their zero profile drops them from the ensemble."""
    cfgs = _as_cfg_list(node_cfg, len(shards))
    if node_seeds is not None and len(node_seeds) != len(shards):
        raise ConfigurationError("node_seeds length must match shard count")
    handles = []
    for k, (shard, cfg) in enumerate(zip(shards, cfgs)):
        if shard.n == 0:
            handles.append(NodeHandle(k, shard, None))
            continue
        model = init_mlp(cfg.layer_dims, _node_stream(seed, node_seeds, k, STREAM_INIT))
        model = train_supervised(
            model, shard, cfg, _node_stream(seed, node_seeds, k, STREAM_BATCH, 0), node_id=k
        )
        handles.append(NodeHandle(k, shard, model))
    return handles


def collect_logits(
    handles: list[NodeHandle],
    public_features: np.ndarray,
    repeats: int = 1,
    noise_scale: float | None = None,
    seed: int = 0,
    node_seeds: list[int] | None = None,
    ledger: BandwidthLedger | None = None,
) -> list[LogitBlock]:
    """One logit block per trained node; repeats > 1 averages that many passes
    over Gaussian-perturbed copies of the public features and bills repeats
    times the upstream bytes."""
    public_features = check_matrix(public_features, "public features")
    if repeats < 1:
        raise ConfigurationError("repeats must be >= 1")
    rows, cols = public_features.shape
    blocks = []
    for h in handles:
        if h.model is None:
            continue
        if h.model.input_dim != cols:
            raise DimensionError(f"public features: expected {h.model.input_dim} columns, got {cols}")
        acc = None
        for r in range(repeats):
            x = public_features
            if noise_scale:
                qrs = _node_stream(seed, node_seeds, h.node_id, STREAM_QUERY, r)
                x = public_features + noise_scale * qrs.gauss(public_features.shape)
            with np.errstate(over="ignore", invalid="ignore"):  # LogitBlock rejects non-finite
                z = _forward_trace(h.model, x)[-1]
            h.query_rows += rows
            acc = z if acc is None else acc + z
        block = LogitBlock(h.node_id, acc / repeats)
        blocks.append(block)
        if ledger is not None:
            ledger.add("logits_up", h.node_id, repeats * float_payload_bytes(*block.shape))
    return blocks


# ---------------------------------------------------------------------------
# full runs


@dataclass
class FedKdRun:
    """Everything one aggregation run needs besides the data itself."""

    plan: PartitionPlan
    node_cfg: TrainConfig | list[TrainConfig]
    ensemble_cfg: EnsembleConfig
    distill_cfg: DistillConfig
    central_dims: list[int]
    seed: int
    repeats: int = 1
    query_noise: float | None = None
    labeled_public: bool = False
    node_seeds: list[int] | None = None


@dataclass
class FedKdResult:
    central_model: MlpModel
    handles: list[NodeHandle]
    teacher_logits: np.ndarray = field(repr=False)
    weights: WeightTable | None
    metrics: dict
    ledger: BandwidthLedger
    trace: list[dict]


def _evaluate(model: MlpModel, test: Dataset) -> float:
    if test.task == SINGLE_LABEL:
        return evaluate_single(model, test)
    return evaluate_multi(model, test).mean_auc


def _teacher(run: FedKdRun, handles, profiles, public_x, ledger: BandwidthLedger):
    """(teacher, weights, block count) from one query of every trained node; the
    logit blocks die on return, so none is held through distillation."""
    blocks = collect_logits(
        handles, public_x, run.repeats, run.query_noise, run.seed, run.node_seeds, ledger
    )
    if not blocks:
        raise ConfigurationError("every shard was empty; nothing to aggregate")
    for b in blocks:
        ledger.add("scalar_max_up", b.node_id, 8)

    weights = importance_weights(profiles) if run.ensemble_cfg.weight_mode == PER_CLASS else None
    teacher = ensemble(blocks, weights, run.ensemble_cfg, RandomStream(run.seed, (STREAM_NOISE,)))
    return teacher, weights, len(blocks)


def run_fedkd(run: FedKdRun, private: Dataset, public, test: Dataset) -> FedKdResult:
    """Local training, one-shot weighted/quantized/noisy logit aggregation,
    then offline distillation into a fresh central model.

    ``public`` is a feature matrix, or a Dataset when ``labeled_public`` asks
    for the public set to join every node's training shard (profiles then
    count the combined set, since weights reflect the data actually trained
    on).
    """
    shards = [private.subset(a) for a in run.plan.assignments]
    if run.labeled_public:
        if not isinstance(public, Dataset):
            raise ConfigurationError("labeled_public needs the public set as a Dataset")
        shards = [s.concat(public) for s in shards]
        profiles = [profile_of(s) for s in shards]
        public_x = public.features
    else:
        profiles = profile(private, run.plan)
        public_x = public.features if isinstance(public, Dataset) else public

    handles = train_locals(shards, run.node_cfg, run.seed, run.node_seeds)
    ledger = BandwidthLedger()
    teacher, weights, senders = _teacher(run, handles, profiles, public_x, ledger)

    central = init_mlp(run.central_dims, RandomStream(run.seed, (STREAM_DISTILL_INIT,)))
    central, trace = distill(
        central, public_x, teacher, run.distill_cfg, RandomStream(run.seed, (STREAM_DISTILL_BATCH,))
    )

    metric = "accuracy" if test.task == SINGLE_LABEL else "mean_auc"
    standalone = [None if h.model is None else _evaluate(h.model, test) for h in handles]
    present = [v for v in standalone if v is not None]
    metrics = {
        "metric": metric,
        "central": _evaluate(central, test),
        "standalone": standalone,
        "standalone_mean": float(np.mean(present)),
        "num_nodes": run.plan.num_nodes,
        "public_rows": int(public_x.shape[0]),
        "repeats": run.repeats,
        "query_rows": [h.query_rows for h in handles],
        "bandwidth": ledger_report(ledger),
    }
    if run.ensemble_cfg.quant_scale is not None:
        metrics["packed_logits_bytes"] = senders * run.repeats * packed_payload_bytes(
            *teacher.shape, run.ensemble_cfg.quant_scale
        )
    return FedKdResult(central, handles, teacher, weights, metrics, ledger, trace)


@dataclass
class FedAvgResult:
    model: MlpModel
    metrics: dict
    ledger: BandwidthLedger


def run_fedavg(
    private: Dataset,
    test: Dataset,
    plan: PartitionPlan,
    node_cfg,
    rounds: int,
    seed: int,
    node_seeds: list[int] | None = None,
) -> FedAvgResult:
    """Round-based parameter averaging with full participation.

    Each round every non-empty node downloads the global parameters, runs
    cfg.epochs local epochs continuing a cosine schedule spanning all rounds,
    and uploads; the server takes the shard-size-weighted mean. Both transfer
    directions are billed at 8 bytes per parameter.
    """
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    shards = [private.subset(a) for a in plan.assignments]
    cfgs = _as_cfg_list(node_cfg, len(shards))
    dims = cfgs[0].layer_dims
    for c in cfgs[1:]:
        if c.layer_dims != dims:
            raise ConfigurationError("parameter averaging needs identical layer dims")

    active = [k for k, s in enumerate(shards) if s.n > 0]
    if not active:
        raise ConfigurationError("every shard was empty")
    sizes = np.array([shards[k].n for k in active], dtype=np.float64)
    coef = sizes / sizes.sum()

    global_model = init_mlp(dims, _node_stream(seed, node_seeds, 0, STREAM_INIT))
    pbytes = param_payload_bytes(global_model)
    ledger = BandwidthLedger()
    per_epoch = {k: shards[k].n // min(cfgs[k].batch_size, shards[k].n) for k in active}

    for r in range(rounds):
        locals_ = []
        for k in active:
            ledger.add("params_down", k, pbytes)
            model = train_supervised(
                global_model,
                shards[k],
                cfgs[k],
                _node_stream(seed, node_seeds, k, STREAM_BATCH, r),
                total_steps=rounds * cfgs[k].epochs * per_epoch[k],
                step_offset=r * cfgs[k].epochs * per_epoch[k],
                node_id=k,
            )
            ledger.add("params_up", k, pbytes)
            locals_.append(model)
        global_model.flat[:] = sum(c * m.flat for c, m in zip(coef, locals_))

    metric = "accuracy" if test.task == SINGLE_LABEL else "mean_auc"
    metrics = {
        "metric": metric,
        "central": _evaluate(global_model, test),
        "rounds": rounds,
        "num_nodes": plan.num_nodes,
        "param_count": global_model.parameter_count(),
        "bandwidth": ledger_report(ledger),
    }
    return FedAvgResult(global_model, metrics, ledger)


def run_centralized(
    train: Dataset, test: Dataset, cfg: TrainConfig, seed: int
) -> tuple[MlpModel, float]:
    """Single-site training on the pooled data; the upper reference line."""
    model = init_mlp(cfg.layer_dims, RandomStream(seed, (STREAM_INIT, 0)))
    model = train_supervised(model, train, cfg, RandomStream(seed, (STREAM_BATCH, 0, 0)))
    return model, _evaluate(model, test)


# ---------------------------------------------------------------------------
# parameter wire frames


def param_payload_bytes(model: MlpModel) -> int:
    return 8 * model.parameter_count()


def encode_params(model: MlpModel) -> bytes:
    """Row-major float64 dump of all weights then biases, layer by layer
    (the layout of ``model.flat``)."""
    return model.flat.astype("<f8").tobytes()


def decode_params(layer_dims: list[int], buf: bytes) -> MlpModel:
    if len(buf) != 8 * sum((layer_dims[i] + 1) * layer_dims[i + 1] for i in range(len(layer_dims) - 1)):
        raise DimensionError("parameter frame length does not match layer dims")
    return MlpModel(layer_dims, *_layer_views(layer_dims, np.frombuffer(buf, "<f8")))
