"""End-to-end runs: independent local training, the one-shot logit ensemble
into a distilled central model, the parameter-averaging baseline, and exact
byte accounting for everything that crosses the wire.

Local training and every FedAvg round group the nodes into lockstep stacks
(:func:`train_lockstep`): nodes that share a layout, label type and batch
size are the jobs of one :func:`~fedkd.numkit.train_sgd` call, the SGD loop
distillation runs through too. This module only picks each stack's loss.

Determinism contract: every random consumer draws from a stream keyed by
(seed, purpose tag, node, round), never from shared state, so results are
identical under any scheduling of the per-node work. Lockstep training keeps
it: each node permutes its own shard from its own stream, and its slice of
every stacked call is the call it would make alone, so a node trains to the
same bits alone, in any stack and in any order.

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
from .errors import ConfigurationError, DimensionError, DivergenceError, EvaluationError, RangeError
from .numkit import (
    CosineSchedule,
    MlpModel,
    RandomStream,
    SgdJob,
    _forward_trace,
    _layer_views,
    check_matrix,
    init_mlp,
    train_sgd,
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
    "train_lockstep",
    "train_supervised",
    "train_locals",
    "collect_logits",
    "run_fedkd",
    "run_fedavg",
    "run_centralized",
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
        if not self.lr_start >= self.lr_end >= 0:
            raise ConfigurationError(f"require lr_start >= lr_end >= 0, got lr_start="
                                     f"{self.lr_start} and lr_end={self.lr_end}")


def _xent_dlogits(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Batch-mean cross-entropy logit gradient, computed in the softmax p:
    (rows, C) with (rows,) labels, or a (K, rows, C) stack with (K, rows)."""
    cells = p.reshape(-1, p.shape[-1])  # a view: p is a fresh contiguous array
    cells[np.arange(cells.shape[0]), labels.ravel()] -= 1.0
    p /= p.shape[-2]
    return p


def _bce_dlogits(q: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Masked sigmoid cross-entropy logit gradient from the sigmoid q, (rows, C)
    or a (K, rows, C) stack."""
    mask = labels != -1
    return np.where(mask, q - np.where(mask, labels, 0).astype(np.float64), 0.0) / q.shape[-2]


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


def train_lockstep(
    models: list[MlpModel],
    shards: list[Dataset],
    cfgs: list[TrainConfig],
    streams: list[RandomStream],
    *,
    total_steps: list[int | None] | None = None,
    step_offsets: list[int] | None = None,
    node_ids: list[int | None] | None = None,
) -> list[MlpModel]:
    """SGD with a cosine schedule for every model on its own shard and batch
    stream ``streams[k]``, on copies of the models.

    ``total_steps[k]``/``step_offsets[k]`` spread one cosine horizon over
    several calls (round-based training resumes mid-schedule); by default a
    node's horizon is its own step count. Nodes that share layer dims, label
    type and batch size ``min(batch_size, n)`` are the jobs of one
    :func:`~fedkd.numkit.train_sgd` call, on softmax or masked sigmoid
    cross-entropy. After every stack has finished, the lowest-index node with
    non-finite parameters raises DivergenceError naming ``node_ids[k]``.
    """
    count = len(models)
    total_steps = [None] * count if total_steps is None else total_steps
    step_offsets = [0] * count if step_offsets is None else step_offsets
    node_ids = [None] * count if node_ids is None else node_ids
    per_node = (shards, cfgs, streams, total_steps, step_offsets, node_ids)
    if any(len(v) != count for v in per_node):
        raise ConfigurationError("train_lockstep needs one entry per model in every list")

    stacks: dict[tuple, list[int]] = {}
    jobs = []
    for k, (model, ds, cfg) in enumerate(zip(models, shards, cfgs)):
        if ds.n == 0:
            raise ConfigurationError("cannot train on an empty dataset")
        x = check_matrix(ds.features, "features", model.input_dim)
        y = ds.labels[:, 0] if ds.task == SINGLE_LABEL else ds.labels
        b = min(cfg.batch_size, ds.n)
        steps = cfg.epochs * (ds.n // b)
        sched = CosineSchedule(cfg.lr_start, cfg.lr_end,
                               steps if total_steps[k] is None else total_steps[k])
        jobs.append(SgdJob(model, x, (y,), streams[k], steps, sched, step_offsets[k],
                           cfg.weight_decay))
        stacks.setdefault((tuple(model.layer_dims), ds.task, b), []).append(k)

    trained, diverged = {}, []
    for (dims, task, b), members in stacks.items():
        dlogits = ((lambda z, t: _xent_dlogits(_softmax_rows(z), t[0])) if task == SINGLE_LABEL
                   else (lambda z, t: _bce_dlogits(sigmoid(z), t[0])))
        try:
            trained.update(zip(members, train_sgd(list(dims), b, [jobs[k] for k in members],
                                                  dlogits, "node training", members)))
        except DivergenceError as err:
            diverged.append(err.node_id)
    if diverged:
        raise DivergenceError("node training", node_ids[min(diverged)])
    return [trained[k] for k in range(count)]


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
    """One node's :func:`train_lockstep`: SGD with a cosine schedule on a copy
    of model. A non-finite result raises DivergenceError naming ``node_id``."""
    return train_lockstep([model], [ds], [cfg], [batch_rs], total_steps=[total_steps],
                          step_offsets=[step_offset], node_ids=[node_id])[0]


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


def _as_cfg_list(node_cfg, count: int) -> list[TrainConfig]:
    cfgs = list(node_cfg) if isinstance(node_cfg, (list, tuple)) else [node_cfg] * count
    if len(cfgs) != count:
        raise ConfigurationError(f"got {len(cfgs)} node configs for {count} nodes")
    return cfgs


def train_locals(
    shards: list[Dataset],
    node_cfg,
    seed: int,
) -> list[NodeHandle]:
    """Train every non-empty shard independently, all in one lockstep call;
    empty shards yield a handle with no model so their zero profile drops
    them from the ensemble."""
    cfgs = _as_cfg_list(node_cfg, len(shards))
    live = [k for k, shard in enumerate(shards) if shard.n > 0]
    models = train_lockstep(
        [init_mlp(cfgs[k].layer_dims, RandomStream(seed, (STREAM_INIT, k))) for k in live],
        [shards[k] for k in live],
        [cfgs[k] for k in live],
        [RandomStream(seed, (STREAM_BATCH, k, 0)) for k in live],
        node_ids=live,
    )
    trained = dict(zip(live, models))
    return [NodeHandle(k, shard, trained.get(k)) for k, shard in enumerate(shards)]


def collect_logits(
    handles: list[NodeHandle],
    public_features: np.ndarray,
    repeats: int = 1,
    noise_scale: float | None = None,
    seed: int = 0,
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
                qrs = RandomStream(seed, (STREAM_QUERY, h.node_id, r))
                x = public_features + noise_scale * qrs.gauss(public_features.shape)
            with np.errstate(over="ignore", invalid="ignore"):  # LogitBlock rejects non-finite
                z = _forward_trace(h.model.weights, h.model.biases, x)[-1]
            h.query_rows += rows
            acc = z if acc is None else acc + z
        acc /= repeats  # acc is this node's own forward output
        block = LogitBlock(h.node_id, acc)
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


@dataclass
class FedKdResult:
    central_model: MlpModel
    handles: list[NodeHandle]
    teacher_logits: np.ndarray = field(repr=False)
    weights: WeightTable | None
    metrics: dict
    ledger: BandwidthLedger
    trace: list[dict]


def _evaluate(model: MlpModel, test: Dataset, who: str) -> float:
    """The test metric of ``model``; an EvaluationError names ``who`` it was."""
    try:
        if test.task == SINGLE_LABEL:
            return evaluate_single(model, test)
        return evaluate_multi(model, test).mean_auc
    except EvaluationError as err:
        raise EvaluationError(f"evaluating {who}: {err}") from None


def _teacher(run: FedKdRun, handles, profiles, public_x, ledger: BandwidthLedger):
    """(teacher, weights, block count) from one query of every trained node; the
    logit blocks die on return, so none is held through distillation."""
    blocks = collect_logits(handles, public_x, run.repeats, run.query_noise, run.seed, ledger)
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

    handles = train_locals(shards, run.node_cfg, run.seed)
    ledger = BandwidthLedger()
    teacher, weights, senders = _teacher(run, handles, profiles, public_x, ledger)

    central = init_mlp(run.central_dims, RandomStream(run.seed, (STREAM_DISTILL_INIT,)))
    central, trace = distill(
        central, public_x, teacher, run.distill_cfg, RandomStream(run.seed, (STREAM_DISTILL_BATCH,))
    )

    metric = "accuracy" if test.task == SINGLE_LABEL else "mean_auc"
    standalone = [None if h.model is None else _evaluate(h.model, test, f"node {h.node_id}")
                  for h in handles]
    present = [v for v in standalone if v is not None]
    metrics = {
        "metric": metric,
        "central": _evaluate(central, test, "the central model"),
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

    global_model = init_mlp(dims, RandomStream(seed, (STREAM_INIT, 0)))
    pbytes = param_payload_bytes(global_model)
    ledger = BandwidthLedger()
    per_epoch = {k: shards[k].n // min(cfgs[k].batch_size, shards[k].n) for k in active}

    for r in range(rounds):
        locals_ = train_lockstep(
            [global_model] * len(active),
            [shards[k] for k in active],
            [cfgs[k] for k in active],
            [RandomStream(seed, (STREAM_BATCH, k, r)) for k in active],
            total_steps=[rounds * cfgs[k].epochs * per_epoch[k] for k in active],
            step_offsets=[r * cfgs[k].epochs * per_epoch[k] for k in active],
            node_ids=active,
        )
        for k in active:
            ledger.add("params_down", k, pbytes)
            ledger.add("params_up", k, pbytes)
        global_model.flat[:] = sum(c * m.flat for c, m in zip(coef, locals_))

    metric = "accuracy" if test.task == SINGLE_LABEL else "mean_auc"
    metrics = {
        "metric": metric,
        "central": _evaluate(global_model, test, "the central model"),
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
    return model, _evaluate(model, test, "the centralized model")


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
