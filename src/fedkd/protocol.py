"""End-to-end runs: independent local training, the one-shot logit ensemble
into a distilled central model, the parameter-averaging baseline, and exact
byte accounting for everything that crosses the wire.

A run takes one :class:`TrainConfig` for every node and the public set as a
:class:`~fedkd.datasets.Dataset`; a model's input width, class count and
label type come from the data it trains on, and a config gives only its
hidden widths. Local training and every FedAvg round group the nodes into
lockstep stacks (:func:`train_lockstep`): nodes that share a label type and
batch size are the jobs of one :func:`~fedkd.numkit.train_sgd` call, the SGD
loop distillation runs through too. This module only picks each stack's loss.
:func:`run_fedkd_batch` runs several aggregation runs (a sweep's cells) in
stages, so their node training and their distillations stack across runs;
:func:`run_fedkd` is a batch of one. A node or student that diverges is
its own cell's DivergenceError, and no stacked call is ever rerun.

Determinism contract: every random consumer draws from a stream keyed by
(seed, purpose tag, node, round), never from shared state, so results are
identical under any scheduling of the per-node work. Lockstep training keeps
it: each node permutes its own shard from its own stream, and its slice of
every stacked call is the call it would make alone, so a node trains to the
same bits alone, in any stack and in any order.

Ledger convention: an entry's bytes are the ``nbytes`` of the float64 array
it sends (a node's logits once per query repeat, its separately gathered
max-abs scalar, or a model's ``flat`` parameter vector); no addressing is
billed, so totals match the plain bytes-per-value arithmetic.
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
    importance_weights,
    packed_payload_bytes,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    EvaluationError,
    RangeError,
    ValidationError,
)
from .numkit import (
    MlpModel,
    RandomStream,
    SgdJob,
    _forward_trace,
    check_matrix,
    check_sgd_schedule,
    cosine_rates,
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


class BandwidthLedger:
    """Append-only record of every frame sent, one (phase, node_id, bytes)
    entry per frame."""

    def __init__(self):
        self.entries: list[tuple[str, int, int]] = []

    def add(self, phase: str, node_id: int, nbytes: int) -> None:
        if phase not in PHASES:
            raise ConfigurationError(f"unknown ledger phase {phase!r}")
        if nbytes < 0:
            raise RangeError("frame bytes must be >= 0")
        self.entries.append((phase, int(node_id), int(nbytes)))

    def total(self, phase: str | None = None) -> int:
        return sum(n for p, _, n in self.entries if phase is None or p == phase)

    def phase_totals(self) -> dict[str, int]:
        return {p: self.total(p) for p in PHASES}

    def rows(self) -> list[tuple[str, int, int]]:
        return list(self.entries)


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
    """The ``node`` config section: hidden widths and the SGD schedule."""

    hidden_dims: list[int] = field(default_factory=lambda: [64])
    epochs: int = 30
    batch_size: int = 32
    lr_start: float = 0.05
    lr_end: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigurationError("hidden_dims entries must be >= 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        check_sgd_schedule(self.lr_start, self.lr_end, self.weight_decay)


def _dims(ds: Dataset, hidden_dims: list[int]) -> list[int]:
    """The layer dims of a model trained on ``ds``: its features in, its classes out."""
    return [ds.dim, *hidden_dims, ds.num_classes]


def _xent_dlogits(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Batch-mean cross-entropy logit gradient, computed in the softmax p:
    (rows, C) with (rows,) labels, or a (K, rows, C) stack with (K, rows).
    The one-hot rows are gathered from an identity matrix and subtracted
    whole: p - 0 is p, so only the label cells move."""
    p -= np.eye(p.shape[-1]).take(labels, 0)
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
    data: list[Dataset],
    cfg: TrainConfig,
    streams: list[RandomStream],
    *,
    rows: list[np.ndarray] | None = None,
    rounds: int = 1,
    round_index: int = 0,
) -> list[MlpModel | None]:
    """SGD with the cosine schedule of ``cfg`` for every model on its own
    shard, the rows ``rows[k]`` of ``data[k]`` (all rows without ``rows``; no
    shard is copied), and batch stream ``streams[k]``, on copies of the
    models. A model whose layer dims are not its data's (:func:`_dims`) is a
    DimensionError.

    A node runs ``cfg.epochs`` epochs of ``steps`` steps in all. Its cosine
    horizon is ``rounds * steps`` and this call starts at step ``round_index
    * steps``, so round-based training resumes mid-schedule; a
    ``round_index`` outside [0, rounds) is a RangeError. The call computes
    one rate table (:func:`~fedkd.numkit.cosine_rates`) per distinct step
    count, which every node of that count shares. Nodes that share a label
    type and batch size ``min(batch_size, n)`` are the jobs of one
    :func:`~fedkd.numkit.train_sgd` call, on softmax or masked sigmoid
    cross-entropy. A model whose parameters end non-finite comes back as None,
    as from train_sgd, and the others are unaffected; the caller names the
    diverged node.
    """
    count = len(models)
    rows = [None] * count if rows is None else rows
    if any(len(v) != count for v in (data, streams, rows)):
        raise ConfigurationError("train_lockstep needs one entry per model in every list")
    if not 0 <= round_index < rounds:
        raise RangeError(f"round_index {round_index} outside [0, {rounds})")

    stacks: dict[tuple, list[int]] = {}
    tables: dict[int, list[float]] = {}  # step count -> its rate table
    jobs = []
    for k, (model, ds, idx) in enumerate(zip(models, data, rows)):
        dims = _dims(ds, cfg.hidden_dims)
        if model.layer_dims != dims:
            raise DimensionError(f"model layer dims {model.layer_dims} differ from the "
                                 f"data's {dims}")
        n = ds.n if idx is None else len(idx)
        if n == 0:
            raise ConfigurationError("cannot train on an empty dataset")
        if idx is not None and not 0 <= idx.min() <= idx.max() < ds.n:  # gathered unchecked
            raise ValidationError(f"shard rows outside the data's {ds.n} rows")
        y = ds.labels[:, 0] if ds.task == SINGLE_LABEL else ds.labels
        b = min(cfg.batch_size, n)
        steps = cfg.epochs * (n // b)
        if steps not in tables:
            tables[steps] = cosine_rates(cfg.lr_start, cfg.lr_end, rounds * steps,
                                         round_index * steps, steps)
        jobs.append(SgdJob(model, ds.features, (y,), streams[k], tables[steps],
                           cfg.weight_decay, idx))
        stacks.setdefault((ds.task, b, *dims), []).append(k)

    trained = {}
    for (task, b, *dims), members in stacks.items():
        dlogits = ((lambda z, t: _xent_dlogits(_softmax_rows(z), t[0])) if task == SINGLE_LABEL
                   else (lambda z, t: _bce_dlogits(sigmoid(z), t[0])))
        trained.update(zip(members, train_sgd(dims, b, [jobs[k] for k in members], dlogits)))
    return [trained[k] for k in range(count)]


def train_supervised(
    model: MlpModel,
    ds: Dataset,
    cfg: TrainConfig,
    batch_rs: RandomStream,
    *,
    rounds: int = 1,
    round_index: int = 0,
    node_id: int | None = None,
) -> MlpModel:
    """One node's :func:`train_lockstep` on all rows of ``ds``: SGD with a
    cosine schedule on a copy of model. A non-finite result raises
    DivergenceError naming ``node_id``."""
    (out,) = train_lockstep([model], [ds], cfg, [batch_rs], rounds=rounds, round_index=round_index)
    if out is None:
        raise DivergenceError("node training", node_id)
    return out


@dataclass
class NodeHandle:
    """A trained node, its row indices into the split it trained on, and its
    instrumented public-query counter.

    ``query_rows`` counts forward-pass rows served to the aggregator; the
    one-shot property says it ends at repeats * |public| and never moves
    during distillation.
    """

    node_id: int
    rows: np.ndarray
    model: MlpModel | None
    query_rows: int = 0


def _train_cells(cells: list[tuple[Dataset, list[np.ndarray]]], node_cfg: TrainConfig,
                 seeds: list[int]) -> list:
    """Train every non-empty shard of several runs independently, with run c
    at ``seeds[c]``; a run is its split and each node's row indices into it.
    Every live node of every run is a job of one :func:`train_lockstep` call.
    Each run gets its node handles, or a DivergenceError naming its lowest
    diverged node. An empty shard yields a handle with no model, so its zero
    profile drops it from the ensemble."""
    live = [(c, k) for c, (_, shards) in enumerate(cells) for k, idx in enumerate(shards)
            if len(idx)]
    models = train_lockstep(
        [init_mlp(_dims(cells[c][0], node_cfg.hidden_dims),
                  RandomStream(seeds[c], (STREAM_INIT, k))) for c, k in live],
        [cells[c][0] for c, k in live],
        node_cfg,
        [RandomStream(seeds[c], (STREAM_BATCH, k, 0)) for c, k in live],
        rows=[cells[c][1][k] for c, k in live],
    )
    trained = dict(zip(live, models))
    out = []
    for c, (_, shards) in enumerate(cells):
        handles = [NodeHandle(k, idx, trained.get((c, k))) for k, idx in enumerate(shards)]
        diverged = [h.node_id for h in handles if h.model is None and len(h.rows)]
        out.append(DivergenceError("node training", diverged[0]) if diverged else handles)
    return out


def _check_query(repeats: int, query_noise: float) -> None:
    if repeats < 1:
        raise ConfigurationError("repeats must be >= 1")
    if not query_noise >= 0:
        raise ConfigurationError("query_noise must be >= 0")


def collect_logits(
    handles: list[NodeHandle],
    public_features: np.ndarray,
    repeats: int = 1,
    noise_scale: float = 0.0,
    seed: int = 0,
    ledger: BandwidthLedger | None = None,
) -> list[LogitBlock]:
    """One logit block per trained node; repeats > 1 averages that many passes
    over Gaussian-perturbed copies of the public features (no noise at
    ``noise_scale`` 0) and bills repeats times the upstream bytes. A block
    that is not finite, or a noisy copy of the features that is not, is a
    ValidationError naming its node."""
    public_features = check_matrix(public_features, "public features")
    _check_query(repeats, noise_scale)
    rows, cols = public_features.shape
    blocks = []
    for h in handles:
        if h.model is None:
            continue
        if h.model.input_dim != cols:
            raise DimensionError(f"public features: expected {h.model.input_dim} columns, got {cols}")
        acc = None
        with np.errstate(over="ignore", invalid="ignore"):  # LogitBlock rejects non-finite
            for r in range(repeats):
                x = public_features
                if noise_scale:
                    qrs = RandomStream(seed, (STREAM_QUERY, h.node_id, r))
                    x = public_features + noise_scale * qrs.gauss(public_features.shape)
                    if not np.isfinite(x).all():
                        raise ValidationError(f"querying node {h.node_id}: query_noise "
                                              f"{noise_scale!r} makes the public features "
                                              f"non-finite")
                z = _forward_trace(h.model.weights, h.model.biases, x)[-1]
                h.query_rows += rows
                acc = z if acc is None else acc + z
            if repeats > 1:
                acc /= repeats  # acc is this node's own sum of forward outputs
        try:
            block = LogitBlock(h.node_id, acc)
        except ValidationError as err:
            raise ValidationError(f"querying node {h.node_id}: {err}") from None
        blocks.append(block)
        if ledger is not None:
            ledger.add("logits_up", h.node_id, repeats * block.logits.nbytes)
    return blocks


# ---------------------------------------------------------------------------
# full runs


@dataclass
class FedKdRun:
    """Everything one aggregation run needs besides the data itself. It checks
    its own fields when built (``repeats`` >= 1, ``query_noise`` >= 0, each
    ``central_hidden_dims`` entry >= 1), so an invalid run trains no node."""

    plan: PartitionPlan
    node_cfg: TrainConfig
    ensemble_cfg: EnsembleConfig
    distill_cfg: DistillConfig
    central_hidden_dims: list[int]
    seed: int
    repeats: int = 1
    query_noise: float = 0.0  # 0: every query pass sees the clean features
    labeled_public: bool = False

    def __post_init__(self):
        _check_query(self.repeats, self.query_noise)
        if any(h < 1 for h in self.central_hidden_dims):
            raise ConfigurationError("central_hidden_dims entries must be >= 1")


@dataclass
class FedKdResult:
    central_model: MlpModel
    handles: list[NodeHandle]
    teacher_logits: np.ndarray = field(repr=False)
    weights: WeightTable | None
    metrics: dict
    ledger: BandwidthLedger
    trace: list[dict] | None  # None from a batch run without keep_trace


def _evaluate(model: MlpModel, test: Dataset, who: str) -> float:
    """The test metric of ``model``; an EvaluationError names ``who`` it was."""
    try:
        if test.task == SINGLE_LABEL:
            return evaluate_single(model, test)
        return evaluate_multi(model, test).mean_auc
    except EvaluationError as err:
        raise EvaluationError(f"evaluating {who}: {err}") from None


def _central_metrics(model: MlpModel, test: Dataset) -> dict:
    """The ``metric`` a run reports on ``test`` and the ``central`` model's score."""
    return {"metric": "accuracy" if test.task == SINGLE_LABEL else "mean_auc",
            "central": _evaluate(model, test, "the central model")}


def _teacher(run: FedKdRun, handles, profiles, public: Dataset):
    """(teacher, weights, block count, ledger) from one query of every trained
    node; the logit blocks die on return, so none is held through
    distillation. The weight mode is decided here: a uniform ensemble gets no
    weight table."""
    ledger = BandwidthLedger()
    blocks = collect_logits(handles, public.features, run.repeats, run.query_noise, run.seed,
                            ledger)
    if not blocks:
        raise ConfigurationError("every shard was empty; nothing to aggregate")
    for b in blocks:
        ledger.add("scalar_max_up", b.node_id, np.float64(b.local_max_abs).nbytes)

    weights = importance_weights(profiles) if run.ensemble_cfg.weight_mode == PER_CLASS else None
    teacher = ensemble(blocks, weights, run.ensemble_cfg, RandomStream(run.seed, (STREAM_NOISE,)))
    # distill's check, made here per cell so a stacked distill call gets only valid jobs
    teacher = check_matrix(teacher, "teacher logits")
    return teacher, weights, len(blocks), ledger


def _grouped(members: list[int], key) -> list[list[int]]:
    """``members`` grouped by equal ``key(i)``, groups and members in first-seen
    order; configs are dataclasses, so they compare by value."""
    keys, groups = [], []
    for i in members:
        k = key(i)
        if k in keys:
            groups[keys.index(k)].append(i)
        else:
            keys.append(k)
            groups.append([i])
    return groups


def _stage(prev: list, call, key=None) -> list:
    """The next list of a staged batch, from ``prev``, which holds each cell's
    latest result or its exception. The cells that hold no exception are
    grouped by equal ``key(i)`` (:func:`_grouped`), or one group each without
    a key, and ``call(group)`` gives one result per member: that cell's next
    entry, even when it is an exception (a cell's diverged node or student).
    A call that raises gives its error to every member of its group, with no
    retry: the stacked stages get only jobs their per-cell stages have
    checked, so that is a stack-wide failure such as a MemoryError. A cell
    that already holds an exception keeps it."""
    out = list(prev)
    live = [i for i, entry in enumerate(prev) if not isinstance(entry, Exception)]
    for group in [[i] for i in live] if key is None else _grouped(live, key):
        try:
            results = call(group)
        except Exception as err:
            results = [err] * len(group)
        for i, result in zip(group, results):
            out[i] = result
    return out


def run_fedkd(run: FedKdRun, private: Dataset, public: Dataset, test: Dataset) -> FedKdResult:
    """Local training, one-shot weighted/quantized/noisy logit aggregation,
    then offline distillation into a fresh central model: a
    :func:`run_fedkd_batch` of one.

    Only the public features are queried and distilled on. When
    ``labeled_public`` is set, the public set also joins every node's
    training rows through one joined [private; public] split, and profiles
    count the joined rows, since weights reflect the data actually trained on.
    """
    (result,) = run_fedkd_batch([(run, private, public, test)])
    if isinstance(result, Exception):
        raise result
    return result


def run_fedkd_batch(cells: list, *, keep_trace: bool = True) -> list:
    """:func:`run_fedkd` for every (run, private, public, test) cell, as six
    :func:`_stage` lists: each cell's untrained student (built first, then
    checked against the distill batch, so neither a student that cannot be
    built nor a batch past the public set costs any training), shards
    and profiles, node handles, teacher, trained student and result. One
    :func:`train_lockstep` call trains the nodes of all cells that share a
    node config, the teacher is built per cell, one stacked :func:`distill`
    call trains the students of all cells that share student dims, label
    type and distill config, and evaluation is per cell. Without
    ``keep_trace`` (a sweep, which writes no trace) distillation computes no
    per-step loss and every result's ``trace`` is None; nothing else
    changes.

    Returns the last list: each cell's result, or the exception run_fedkd
    raises for it; a cell given as an exception comes back as itself. A
    cell's slice of every stacked call is the call it would make alone, so
    its result is bit-identical to its own run_fedkd, and a diverged node or
    student is its own cell's DivergenceError. The batch drops its hold on
    each cell's private set and training split once the nodes have trained;
    a split the caller still holds stays alive.
    """
    def student(i):  # and distill's batch check, so an oversized batch costs no training
        run, _, public, _ = cells[i]
        model = init_mlp(_dims(public, run.central_hidden_dims),
                         RandomStream(run.seed, (STREAM_DISTILL_INIT,)))
        run.distill_cfg.check_batch(public.n)
        return model

    def split_rows_and_profiles(i):  # the split the cell's nodes train on, their rows into it
        run, private, public, _ = cells[i]
        split, rows, profiles = private, run.plan.assignments, profile(private, run.plan)
        if run.labeled_public:
            if (public.task, public.num_classes) != (private.task, private.num_classes):
                raise ConfigurationError("cannot join a public set of a different task")
            split = Dataset(np.concatenate([private.features, public.features]),
                            np.concatenate([private.labels, public.labels]),
                            private.task, private.num_classes)
            rows = [np.concatenate([a, np.arange(private.n, split.n)]) for a in rows]
            profiles = profiles + profile_of(public)
        return split, rows, profiles

    students = _stage(cells, lambda group: [student(i) for i in group])
    # cells that split the same data the same way share one split and its rows
    data = _stage(students, lambda group: [split_rows_and_profiles(group[0])] * len(group),
                  lambda i: (id(cells[i][1]), id(cells[i][0].plan), cells[i][0].labeled_public,
                             id(cells[i][2])))
    handles = _stage(data, lambda group: _train_cells([data[i][:2] for i in group],
                                                      cells[group[0]][0].node_cfg,
                                                      [cells[i][0].seed for i in group]),
                     lambda i: cells[i][0].node_cfg)
    # the node stage was the last reader of every split and private set: the
    # batch drops them here, so it holds none through the query
    cells = [c if isinstance(c, Exception) else (c[0], None, *c[2:]) for c in cells]
    profiles = [d if isinstance(d, Exception) else d[2] for d in data]
    del data
    teachers = _stage(handles, lambda group: [_teacher(cells[i][0], handles[i], profiles[i],
                                                       cells[i][2]) for i in group])

    def distill_cells(group):
        cfg, task = cells[group[0]][0].distill_cfg, cells[group[0]][2].task
        pairs = distill(
            [students[i] for i in group],
            [cells[i][2].features for i in group],
            [teachers[i][0] for i in group],
            cfg,
            [RandomStream(cells[i][0].seed, (STREAM_DISTILL_BATCH,)) for i in group],
            task=task,
            keep_trace=keep_trace,
        )
        return [DivergenceError("distillation") if pair is None else pair for pair in pairs]

    distilled = _stage(teachers, distill_cells, lambda i: (
        students[i].layer_dims, cells[i][2].task, cells[i][0].distill_cfg))

    def evaluate(i):
        run, _, public, test = cells[i]
        teacher, weights, senders, ledger = teachers[i]
        central, trace = distilled[i]
        standalone = [None if h.model is None else _evaluate(h.model, test, f"node {h.node_id}")
                      for h in handles[i]]
        present = [v for v in standalone if v is not None]
        metrics = {
            **_central_metrics(central, test),
            "standalone": standalone,
            "standalone_mean": float(np.mean(present)),
            "num_nodes": run.plan.num_nodes,
            "public_rows": int(public.features.shape[0]),
            "repeats": run.repeats,
            "query_rows": [h.query_rows for h in handles[i]],
        }
        if run.ensemble_cfg.quant_scale is not None:
            metrics["packed_logits_bytes"] = senders * run.repeats * packed_payload_bytes(
                *teacher.shape, run.ensemble_cfg.quant_scale
            )
        return FedKdResult(central, handles[i], teacher, weights, metrics, ledger, trace)

    return _stage(distilled, lambda group: [evaluate(i) for i in group])


@dataclass
class FedAvgResult:
    model: MlpModel
    metrics: dict
    ledger: BandwidthLedger


def run_fedavg(
    private: Dataset,
    plan: PartitionPlan,
    node_cfg: TrainConfig,
    rounds: int,
    seed: int,
) -> FedAvgResult:
    """Round-based parameter averaging with full participation: the rounds
    alone, so the caller can drop ``private`` before it evaluates the
    returned model (:func:`fedkd.cli.execute_fedavg` adds the test metric).

    Each round every non-empty node downloads the global parameters, runs
    cfg.epochs local epochs continuing a cosine schedule spanning all rounds,
    and uploads; the server takes the shard-size-weighted mean. Each transfer
    is billed at the ``flat.nbytes`` of the model sent. A plan that does not
    cover ``private`` exactly once is a ValidationError, as in run_fedkd.
    """
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    plan.validate_for(private)
    active = [k for k, a in enumerate(plan.assignments) if len(a)]
    if not active:
        raise ConfigurationError("every shard was empty")
    sizes = np.array([len(plan.assignments[k]) for k in active], dtype=np.float64)
    coef = sizes / sizes.sum()

    global_model = init_mlp(_dims(private, node_cfg.hidden_dims),
                            RandomStream(seed, (STREAM_INIT, 0)))
    ledger = BandwidthLedger()

    for r in range(rounds):
        locals_ = train_lockstep(
            [global_model] * len(active),
            [private] * len(active),
            node_cfg,
            [RandomStream(seed, (STREAM_BATCH, k, r)) for k in active],
            rows=[plan.assignments[k] for k in active],
            rounds=rounds,
            round_index=r,
        )
        if None in locals_:
            raise DivergenceError("node training", active[locals_.index(None)])
        for k, m in zip(active, locals_):
            ledger.add("params_down", k, global_model.flat.nbytes)
            ledger.add("params_up", k, m.flat.nbytes)
        global_model.flat[:] = sum(c * m.flat for c, m in zip(coef, locals_))

    metrics = {
        "rounds": rounds,
        "num_nodes": plan.num_nodes,
        "param_count": global_model.parameter_count(),
    }
    return FedAvgResult(global_model, metrics, ledger)
