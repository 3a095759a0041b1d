"""Command-line front end: JSON experiment configs, run directories keyed by
config digest + seed, ablation sweeps over one declared parameter, and a
plain-text comparison report.

Config layout (JSON; unknown or repeated keys anywhere are rejected):

    {
      "seed": 0,
      "num_nodes": 5,
      "alpha": 1.0,
      "task": {"kind": "synthetic", "num_classes": 4, "dim": 16, ...}
              or {"kind": "csv", "private": ..., "public": ..., "test": ...},
      "node": {"hidden_dims": [64], "epochs": 30, ...},
      "ensemble": {"quant_scale": 200, "gamma": 1.0, "weight_mode": "per_class"},
      "distill": {"steps": 2000, "batch_size": 64, ..., "tau": "inf"},
      "central_hidden_dims": [64],
      "repeats": 1, "query_noise": 0.0, "labeled_public": false,
      "rounds": 30,
      "sweep": {"param": "gamma", "values": [null, 1.0], "seeds": [0, 1]}
    }

"off" and null both disable quantization or noise; tau accepts a number or
"inf". Exit codes: 0 success, 2 bad config or invocation, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import shutil
import sys
from dataclasses import MISSING, asdict, dataclass
from pathlib import Path

import numpy as np

from .datasets import (
    CsvSchema,
    Dataset,
    GaussianTaskSpec,
    PartitionPlan,
    check_partition,
    dirichlet_partition,
    gen_gaussian_task,
    load_csv,
)
from .distill import DistillConfig
from .ensemble import EnsembleConfig
from .errors import ConfigurationError, FedKdError, FormatError, ValidationError
from .numkit import RandomStream
from .protocol import (
    FedKdCell,
    FedKdRun,
    TrainConfig,
    _central_metrics,
    _check_count,
    _stage,
    ledger_report,
    run_fedavg,
    run_fedkd_batch,
)

# stream tags for data generation; disjoint from the protocol module's tags
STREAM_TASK_MEANS = 10
STREAM_PRIVATE = 11
STREAM_TEST = 12
STREAM_PUBLIC = 13
STREAM_PARTITION = 14

# the config field each sweep axis sets; d0 is the public-set size |D0|, which
# sets public_per_class = d0 / num_classes
SWEEP_FIELDS = {"gamma": "ensemble.gamma", "S": "ensemble.quant_scale",
                "d0": "task.public_per_class", "alpha": "alpha", "K": "num_nodes",
                "R": "repeats"}
SWEEP_AXES = tuple(SWEEP_FIELDS)


@dataclass
class SyntheticTask:
    num_classes: int = 4
    dim: int = 16
    train_per_class: int = 250
    test_per_class: int = 250
    public_per_class: int = 250
    cov_scale: float = 1.0
    class_sep: float = 4.0
    domain_shift: float = 1.0

    def __post_init__(self):
        if self.num_classes < 2 or self.dim < 1:
            raise ConfigurationError("num_classes >= 2 and dim >= 1 required")
        for key in ("train_per_class", "test_per_class", "public_per_class"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1")
        if self.cov_scale < 0:
            raise ConfigurationError("cov_scale must be >= 0")


@dataclass(kw_only=True)
class CsvTask(CsvSchema):  # the schema plus the file of each split
    private: str
    public: str
    test: str


@dataclass
class SweepSection:
    param: str
    values: list
    seeds: list[int]

    def __post_init__(self):
        if self.param not in SWEEP_AXES:
            raise ConfigurationError(f"param must be one of {SWEEP_AXES}")
        if not self.values or not self.seeds:
            raise ConfigurationError("values and seeds must be non-empty")
        _check_seeds("seeds", self.seeds)


@dataclass(kw_only=True)
class ExperimentConfig(FedKdRun):
    """A parsed config is its run: a FedKdRun plus the task, its partition,
    the seed, FedAvg's rounds and a sweep, with every parse-time check."""

    task: SyntheticTask | CsvTask
    num_nodes: int = 5
    alpha: float = 1.0
    seed: int = 0
    rounds: int = 30
    sweep: SweepSection | None = None

    def __post_init__(self):
        _check_seeds("seed", [self.seed])
        check_partition(self.num_nodes, self.alpha)  # the library's own checks
        super().__post_init__()
        _check_count("rounds", self.rounds)
        if isinstance(self.task, SyntheticTask):  # a CSV public set is checked once it is read
            self.distill.check_batch(self.task.num_classes * self.task.public_per_class)


# Field coercers: each takes (value, key path) and returns the typed value or
# raises a ConfigurationError naming the key.


def _as_int(value, where: str) -> int:
    """A JSON integer; an integral float such as 5.0 is accepted too."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{where} must be an integer")
    return value


def _as_float(value, where: str) -> float:
    # the bound also rejects NaN and JSON integers too large for a float
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigurationError(f"{where} must be a finite number")
    return float(value)


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{where} must be true or false")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{where} must be a string")
    return value


def _list_of(item):
    def coerce(value, where: str) -> list:
        if not isinstance(value, list):
            raise ConfigurationError(f"{where} must be a list")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return coerce


def _off_or(kind):
    """null / "off" disable a knob; any other value must pass ``kind``."""
    def coerce(value, where: str):
        return None if value is None or value == "off" else kind(value, where)
    return coerce


def _parse_tau(value, where: str) -> float:
    if value is None or value == "inf" or value == math.inf:
        return math.inf
    try:
        return _as_float(value, where)
    except ConfigurationError:
        raise ConfigurationError(f'{where} must be a number or "inf"') from None


_COERCE = {
    "int": _as_int,
    "float": _as_float,
    "bool": _as_bool,
    "str": _as_str,
    "list": _list_of(lambda v, where: v),  # sweep values; each cell checks its own
    "list[int]": _list_of(_as_int),
    "list[str]": _list_of(_as_str),
    "int | None": _off_or(_as_int),
    "float | None": _off_or(_as_float),
}


def _build(cls, raw, where: str, special: dict | None = None):
    """Construct section ``cls`` from a raw mapping, coercing each key by its
    field annotation (or by ``special``); unknown, missing and wrong-typed keys
    are ConfigurationErrors that name the key. A section's own checks name it
    as a suffix, ``... (in node)``; the top level's name their keys."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where!r} must be an object")
    fields = cls.__dataclass_fields__
    special = special or {}
    kwargs = {}
    for key, value in raw.items():
        if key not in fields:
            raise ConfigurationError(f"unknown key {key!r} in {where}")
        path = key if where == "config" else f"{where}.{key}"
        coerce = special[key] if key in special else _COERCE[fields[key].type]
        kwargs[key] = coerce(value, path)
    missing = [k for k, f in fields.items() if k not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigurationError(f"{where} is missing {', '.join(map(repr, missing))}")
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        if where == "config":
            raise
        raise ConfigurationError(f"{exc} (in {where})") from None


def _parse_task(raw, where: str) -> SyntheticTask | CsvTask:
    if not isinstance(raw, dict):  # _build's own "'task' must be an object"
        return _build(SyntheticTask, raw, where)
    raw = dict(raw)
    kind = raw.pop("kind", None)
    if kind not in ("synthetic", "csv"):  # compared by ==, so even a list kind is a config error
        raise ConfigurationError("task.kind must be 'synthetic' or 'csv'")
    return _build(SyntheticTask if kind == "synthetic" else CsvTask, raw, where)


_TOP_LEVEL = {
    "task": _parse_task,
    "node": lambda raw, where: _build(TrainConfig, raw, where),
    "ensemble": lambda raw, where: _build(EnsembleConfig, raw, where),
    "distill": lambda raw, where: _build(DistillConfig, raw, where, {"tau": _parse_tau}),
    "sweep": lambda raw, where: None if raw is None else _build(SweepSection, raw, where),
}


def _check_seeds(key: str, seeds: list[int]) -> None:
    """The one seed check, for the config's ``seed``, its ``sweep.seeds`` and
    the ``--seed`` flag; the message names the key the seeds came from."""
    if min(seeds) < 0:
        raise ConfigurationError(f"{key} must be >= 0")


def parse_dict(doc: dict) -> ExperimentConfig:
    """Validate a raw config mapping and fill defaults. Every failure is a
    ConfigurationError, so a bad config exits 2."""
    return _build(ExperimentConfig, doc, "config", _TOP_LEVEL)


def _unique_keys(pairs: list) -> dict:
    doc = {}  # json.loads alone would keep the last of two equal keys
    for key, value in pairs:
        if key in doc:
            raise ConfigurationError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def parse_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(), object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, no read permission, ...
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None
    return parse_dict(doc)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Round-trippable plain mapping; tau serializes as the string \"inf\"."""
    doc = asdict(cfg)
    doc["task"] = {"kind": "synthetic" if isinstance(cfg.task, SyntheticTask) else "csv",
                   **asdict(cfg.task)}
    if math.isinf(cfg.distill.tau):
        doc["distill"]["tau"] = "inf"
    if cfg.sweep is None:
        doc.pop("sweep")
    return doc


def config_digest(cfg: ExperimentConfig) -> str:
    """Digest over everything except the seed, so one config maps to one
    digest across a seed sweep."""
    doc = config_to_dict(cfg)
    doc.pop("seed")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# data assembly


def build_data(cfg: ExperimentConfig, seed: int):
    """Materialize (private, public, test, plan) for one run."""
    private, public, test = (_split(cfg, seed, name) for name in ("private", "public", "test"))
    return private, public, test, _plan(cfg, private, seed)


def _split(cfg: ExperimentConfig, seed: int, name: str) -> Dataset:
    """The task's ``name`` split: "private", "public" or "test". A synthetic
    split draws from its own stream, so each can be built without the others;
    one whose features overflow is a ValidationError naming the split and the
    task key at fault."""
    t = cfg.task
    if isinstance(t, CsvTask):
        return load_csv(getattr(t, name), t)
    per_class, shift, tag = {
        "private": (t.train_per_class, None, STREAM_PRIVATE),
        "public": (t.public_per_class, np.full(t.dim, t.domain_shift / math.sqrt(t.dim)),
                   STREAM_PUBLIC),
        "test": (t.test_per_class, None, STREAM_TEST),
    }[name]
    with np.errstate(over="ignore", invalid="ignore"):  # named below instead of warned
        means = t.class_sep * RandomStream(seed, (STREAM_TASK_MEANS,)).gauss(
            (t.num_classes, t.dim)
        ) / math.sqrt(t.dim)
        spec = GaussianTaskSpec(num_classes=t.num_classes, dim=t.dim, per_class_count=per_class,
                                class_means=means, cov_scale=t.cov_scale, domain_shift=shift)
        try:
            return gen_gaussian_task(spec, RandomStream(seed, (tag,)))
        except ValidationError:  # the Dataset's non-finite features
            key = ("class_sep" if not np.isfinite(means).all()
                   else "domain_shift" if not np.isfinite(means + spec.domain_shift).all()
                   else "cov_scale")
    raise ValidationError(f"task.{key} {getattr(t, key)!r} makes the {name} features non-finite")


def _plan(cfg: ExperimentConfig, private: Dataset, seed: int) -> PartitionPlan:
    return dirichlet_partition(private, cfg.num_nodes, cfg.alpha,
                               RandomStream(seed, (STREAM_PARTITION,)))


def execute_fedkd(cfg: ExperimentConfig, seed: int):
    (result,) = execute_fedkd_batch([(cfg, seed)])
    if isinstance(result, Exception):
        raise result
    return result


def execute_fedkd_batch(cells: list, *, keep_trace: bool = True) -> list:
    """Every (config, seed) cell's fedkd run in two stages (see
    :func:`~fedkd.protocol._stage`): one build_data per distinct task,
    num_nodes, alpha and seed, giving each of its cells a FedKdCell, then one
    :func:`~fedkd.protocol.run_fedkd_batch` (``keep_trace`` passed on) over
    every cell that built. Returns each cell's result or its exception; a
    cell given as an exception comes back as itself. The built list goes
    straight into the batch, bound to no name here, so the batch holds the
    only reference to each private split and can drop it after node
    training."""
    def build(group):  # each cell's config is its run
        private, public, test, plan = build_data(*cells[group[0]])
        return [FedKdCell(private, public, test, plan, *cells[i]) for i in group]

    def data_key(i):
        cfg, seed = cells[i]
        return cfg.task, cfg.num_nodes, cfg.alpha, seed

    return run_fedkd_batch(_stage(cells, build, data_key), keep_trace=keep_trace)


def execute_fedavg(cfg: ExperimentConfig, seed: int):
    """build_data's run without the public split, which parameter averaging
    never reads: :func:`~fedkd.protocol.run_fedavg`'s rounds, then the test
    metric of the global model in its ``metric`` and ``central`` keys. Each
    split lives only while it is read: the private one is dropped after the
    last round, and the test one is built only then."""
    private = _split(cfg, seed, "private")
    result = run_fedavg(private, _plan(cfg, private, seed), cfg.node, cfg.rounds, seed)
    del private
    result.metrics.update(_central_metrics(result.model, _split(cfg, seed, "test")))
    return result


# ---------------------------------------------------------------------------
# subcommands


def _claim(path: Path, force: bool, directory: bool) -> Path:
    """Claim ``path``, a subcommand's output directory or file, before any work. Config errors:
    a file above it (a link to nothing counts as one), the other kind at it (``force`` too),
    and an existing one without ``force``."""
    found = next(p for p in (path, *path.parents) if p.exists() or p.is_symlink())
    if found.is_dir() != (expected := directory or found != path):
        raise ConfigurationError(f"{found} is {'not ' if expected else ''}a directory")
    if found == path and not force:
        raise ConfigurationError(f"{path} exists (use --force to overwrite)")
    return path


def _run_dir(out: Path, cfg: ExperimentConfig, seed: int, force: bool, algorithm: str) -> Path:
    """The run's directory, claimed before any work and made once the run succeeds."""
    return _claim(out / f"{algorithm}-{config_digest(cfg)[:12]}-s{seed}", force, directory=True)


def _publish(path: Path, write) -> None:
    """Put ``path``, the file or directory ``write(tmp)`` builds at a temporary sibling,
    in place, making its missing parents. An existing ``path`` (claimed under --force)
    is moved aside to a ``.old`` sibling, the new one moved in, and the old one deleted
    last. Anything raised before that delete moves the old one back and removes the
    sibling and the topmost directory made: a failed publish leaves the tree as it was."""
    def remove(p):  # a file or a directory, if there
        shutil.rmtree(p) if p.is_dir() else p.unlink(missing_ok=True)

    made = [p for p in path.parents if not p.exists()]
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")  # no live process owns a stale one
    old = tmp.with_suffix(".old") if path.exists() else None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        remove(tmp)
        write(tmp)
        if old:
            os.replace(path, old)
        os.replace(tmp, path)
    except BaseException:
        if old and not path.exists():
            os.replace(old, path)
        remove(made[-1] if made else tmp)  # the sibling is under any directory made
        raise
    if old:
        remove(old)


def _write_run_files(rd: Path, cfg: ExperimentConfig, seed: int, algorithm: str,
                     result, trace) -> None:
    rd.mkdir()
    resolved = config_to_dict(cfg)
    resolved["seed"] = seed
    (rd / "config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")

    with (rd / "ledger.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["phase", "node_id", "bytes"])
        w.writerows(result.ledger.rows())

    trace_path = None
    if trace is not None:
        trace_path = "trace.jsonl"
        encode = json.JSONEncoder(sort_keys=True).encode
        with (rd / trace_path).open("w") as fh:
            for rec in trace:
                fh.write(encode(rec) + "\n")

    doc = {
        "algorithm": algorithm,
        "config_digest": config_digest(cfg),
        "seed": seed,
        "trace_path": trace_path,
        "ledger": ledger_report(result.ledger),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **result.metrics,
    }
    (rd / "metrics.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_run(cfg: ExperimentConfig, out: Path, seed: int, force: bool) -> Path:
    rd = _run_dir(out, cfg, seed, force, "fedkd")
    result = execute_fedkd(cfg, seed)
    _publish(rd, lambda tmp: _write_run_files(tmp, cfg, seed, "fedkd", result, result.trace))
    print(f"fedkd run written to {rd}")
    print(f"  central {result.metrics['metric']}: {result.metrics['central']:.4f}"
          f"  (standalone mean {result.metrics['standalone_mean']:.4f})")
    return rd


def cmd_fedavg(cfg: ExperimentConfig, out: Path, seed: int, force: bool) -> Path:
    rd = _run_dir(out, cfg, seed, force, "fedavg")
    result = execute_fedavg(cfg, seed)
    _publish(rd, lambda tmp: _write_run_files(tmp, cfg, seed, "fedavg", result, None))
    print(f"fedavg run written to {rd}")
    print(f"  global {result.metrics['metric']}: {result.metrics['central']:.4f}")
    return rd


def _sweep_cell(cfg: ExperimentConfig, value) -> ExperimentConfig:
    """One cell's config: the document re-parsed with the swept field set, so
    a cell gets every check a parsed config gets."""
    param = cfg.sweep.param
    if param == "d0":
        if not isinstance(cfg.task, SyntheticTask):
            raise ConfigurationError("d0 sweep requires a synthetic task")
        c = cfg.task.num_classes
        value = _as_int(value, "d0")
        if value < c or value % c:
            raise ConfigurationError(f"d0 sweep value {value} must be a positive multiple of {c}")
        value //= c
    doc = config_to_dict(cfg)
    del doc["sweep"]
    *section, key = SWEEP_FIELDS[param].split(".")
    (doc[section[0]] if section else doc)[key] = value
    return parse_dict(doc)


def _row_fields(outcome) -> dict:
    """An ablation row's accuracy and bandwidth, or its error, from one cell's outcome."""
    if isinstance(outcome, Exception):
        return {"error": f"{type(outcome).__name__}: {outcome}"}
    return {"accuracy": f"{outcome.metrics['central']:.6f}", "bandwidth": outcome.ledger.total()}


def cmd_ablate(cfg: ExperimentConfig, out: Path, force: bool) -> Path:
    if cfg.sweep is None:
        raise ConfigurationError("ablate needs a 'sweep' section in the config")
    path = _claim(out / "ablation.csv", force, directory=False)
    grid = [(v, s) for v in cfg.sweep.values for s in cfg.sweep.seeds]  # in row order

    def parse(group):  # one value's seeds; a value that fails to parse is their error
        cell = _sweep_cell(cfg, grid[group[0]][0])
        return [(cell, grid[i][1]) for i in group]

    # keyed by value index: 1, 1.0 and true compare equal but parse differently;
    # one batch over every cell, reduced to its rows (which hold no trace)
    outcomes = execute_fedkd_batch(_stage(grid, parse, lambda i: i // len(cfg.sweep.seeds)),
                                   keep_trace=False)
    rows = [{"param": cfg.sweep.param, "value": "off" if value is None else value, "seed": seed,
             **_row_fields(outcome)} for (value, seed), outcome in zip(grid, outcomes)]

    def write(tmp):
        with tmp.open("w", newline="") as fh:
            w = csv.DictWriter(fh, ["param", "value", "seed", "accuracy", "bandwidth", "error"])
            w.writeheader()
            w.writerows(rows)

    _publish(path, write)  # only now: a refused sweep or failed batch makes no --out
    print(f"ablation sweep ({len(rows)} cells) written to {path}")
    return path


def _load_metrics(path: Path) -> dict:
    """One run's metrics.json, checked for what the report reads: a JSON
    object with a numeric ``central`` and an integer ``ledger.total_bytes``,
    both in the float range, and string ``algorithm`` and ``metric`` where
    present. Anything else is a FormatError naming the file."""
    try:
        doc = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise FormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: not a JSON object")
    central, ledger = doc.get("central"), doc.get("ledger")
    total = ledger.get("total_bytes") if isinstance(ledger, dict) else None
    if (type(central) not in (int, float) or type(total) is not int
            or not abs(central) <= sys.float_info.max or not abs(total) <= sys.float_info.max):
        raise FormatError(f"{path}: needs a numeric 'central' and an integer "
                          f"'ledger.total_bytes', both in the float range")
    if not all(isinstance(doc.get(k, ""), str) for k in ("algorithm", "metric")):
        raise FormatError(f"{path}: 'algorithm' and 'metric' must be strings")
    return doc


def cmd_report(out: Path) -> str:
    """Aggregate every run directory under ``out``, but no dot-named temporary
    sibling of one, into a comparison table, one row per (algorithm, metric)."""
    docs = [_load_metrics(p) for p in sorted(out.glob("[!.]*/metrics.json"))]
    if not docs:
        raise ConfigurationError(f"no run directories with metrics.json under {out}")
    groups: dict[tuple[str, str], list[dict]] = {}
    for doc in docs:
        groups.setdefault((doc.get("algorithm", "?"), doc.get("metric", "?")), []).append(doc)
    lines = [f"{'method':<10}{'runs':>6}{'metric':>10}{'mean':>10}{'std':>9}"
             f"{'GB (1e9)':>12}{'GiB (2^30)':>12}"]
    for method, metric in sorted(groups):
        runs = groups[method, metric]
        vals = np.array([d["central"] for d in runs], dtype=np.float64)
        total = np.mean([d["ledger"]["total_bytes"] for d in runs])
        lines.append(
            f"{method:<10}{len(vals):>6}{metric:>10}"
            f"{vals.mean():>10.4f}{vals.std():>9.4f}"
            f"{total / 1e9:>12.6f}{total / 2**30:>12.6f}"
        )
    table = "\n".join(lines)
    print(table)
    return table


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="fedkd",
        description="one-shot federated distillation experiments on desk-scale tasks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("run", "fedavg", "ablate", "report"):
        p = sub.add_parser(name)
        if name != "report":
            p.add_argument("--config", required=True, help="path to a JSON config")
            p.add_argument("--force", action="store_true",
                           help="overwrite an existing run directory")
        if name in ("run", "fedavg"):  # ablate takes its seeds from sweep.seeds
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        p.add_argument("--out", default="runs", help="output directory (default: runs)")
    args = ap.parse_args(argv)

    try:
        out = Path(args.out)
        if args.command == "report":
            cmd_report(out)
            return 0
        cfg = parse_config(args.config)
        if args.command == "ablate":
            cmd_ablate(cfg, out, args.force)
            return 0
        seed = cfg.seed if args.seed is None else args.seed
        _check_seeds("--seed", [seed])
        (cmd_run if args.command == "run" else cmd_fedavg)(cfg, out, seed, args.force)
        return 0
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FedKdError, OSError, MemoryError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
