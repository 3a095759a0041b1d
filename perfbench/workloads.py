"""The benchmark's workloads: the config each one feeds the CLI, the counts
that config fixes, and the correctness checks on what the CLI wrote.

The program only ever sees the generated JSON config. Everything here that
depends on the partition (active nodes, SGD steps) takes the shard sizes the
child process reports after the timed call.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

# central_acc floors from the baseline.  Seeds 0-9 gave paper_run
# 0.949-0.972 (standalone mean 0.594-0.677), fedavg_rounds 0.939-0.965 and
# gamma_sweep 0.931-0.985 (mean over cells); each floor sits about three
# points below the lowest seed.
ACC_FLOOR = {"paper_run": 0.92, "fedavg_rounds": 0.91, "gamma_sweep": 0.90}

GAMMAS = [None, 2.0, 1.0, 0.5, 0.25]


def _paper_task(seed: int) -> dict:
    return {
        "task": {
            "kind": "synthetic",
            "num_classes": 10,
            "dim": 32,
            "train_per_class": 2500,
            "test_per_class": 1000,
            "public_per_class": 5000,
        },
        "num_nodes": 20,
        "alpha": 0.5,
        "seed": seed,
        "node": {"hidden_dims": [64], "epochs": 10, "batch_size": 32},
        "central_hidden_dims": [64],
    }


def paper_run(seed: int) -> dict:
    return {
        **_paper_task(seed),
        "ensemble": {"quant_scale": 200, "gamma": 1.0, "weight_mode": "per_class"},
        "distill": {"steps": 3000, "batch_size": 128, "loss_mode": "logit_l2"},
    }


def fedavg_rounds(seed: int) -> dict:
    doc = _paper_task(seed)
    doc["node"]["epochs"] = 1
    doc["rounds"] = 20
    return doc


def gamma_sweep(seed: int) -> dict:
    return {
        "task": {
            "kind": "synthetic",
            "num_classes": 4,
            "dim": 16,
            "train_per_class": 300,
            "test_per_class": 250,
            "public_per_class": 300,
            "class_sep": 4.0,
            "domain_shift": 1.0,
        },
        "num_nodes": 5,
        "alpha": 1.0,
        "seed": seed,
        "node": {"hidden_dims": [32], "epochs": 30, "batch_size": 32, "lr_start": 0.05},
        "ensemble": {"quant_scale": 200, "gamma": 1.0, "weight_mode": "per_class"},
        "distill": {"steps": 500, "batch_size": 64, "loss_mode": "kl", "tau": 4.0},
        "central_hidden_dims": [32],
        "sweep": {"param": "gamma", "values": GAMMAS, "seeds": [2 * seed, 2 * seed + 1]},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # fedkd subcommand
    make_config: object  # seed -> config dict


# Why each workload exists is its "why" in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_run", "run", paper_run),
        Workload("fedavg_rounds", "fedavg", fedavg_rounds),
        Workload("gamma_sweep", "ablate", gamma_sweep),
    )
}


# ---------------------------------------------------------------------------
# counts fixed by the config and the partition


def _per_epoch(n: int, batch: int) -> int:
    return n // min(batch, n)


def node_steps(doc: dict, sizes: list[int]) -> int:
    """SGD steps of one full local training of every non-empty shard."""
    node = doc["node"]
    return sum(node["epochs"] * _per_epoch(n, node["batch_size"]) for n in sizes if n)


def expected_steps(workload: str, doc: dict, shard_sizes: dict[int, list[int]]) -> int:
    """Node training plus distillation SGD steps of one workload call."""
    if workload == "fedavg_rounds":
        return doc["rounds"] * node_steps(doc, shard_sizes[doc["seed"]])
    cells = len(doc["sweep"]["values"]) if "sweep" in doc else 1
    return sum(cells * (node_steps(doc, sizes) + doc["distill"]["steps"])
               for sizes in shard_sizes.values())


def param_count(dims: list[int]) -> int:
    return sum((fi + 1) * fo for fi, fo in zip(dims[:-1], dims[1:]))


# ---------------------------------------------------------------------------
# correctness checks on one CLI call's outputs


@dataclass
class Outcome:
    """What one CLI call produced, as the checks see it."""

    cells: int  # operations in this call
    failed_cells: int
    central_acc: float
    wire_bytes: int
    problems: list[str]


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _ledger_totals(rows: list[dict]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for r in rows:
        out.setdefault(r["phase"], []).append(int(r["bytes"]))
    return out


def check_run(name: str, doc: dict, out: Path, shard_sizes: dict[int, list[int]]) -> Outcome:
    """Check the artifacts of one `run` or `fedavg` call."""
    problems: list[str] = []
    run_dirs = [p for p in out.iterdir() if p.is_dir()]
    if len(run_dirs) != 1:
        return Outcome(1, 1, 0.0, 0, [f"expected one run directory, found {len(run_dirs)}"])
    rd = run_dirs[0]
    metrics = json.loads((rd / "metrics.json").read_text())
    ledger_rows = _read_csv(rd / "ledger.csv")
    ledger = _ledger_totals(ledger_rows)
    total = sum(int(r["bytes"]) for r in ledger_rows)
    if total != metrics["ledger"]["total_bytes"]:
        problems.append(f"ledger.csv sums to {total}, metrics.json says "
                        f"{metrics['ledger']['total_bytes']}")
    sizes = shard_sizes[doc["seed"]]
    active = sum(1 for n in sizes if n)
    acc = float(metrics["central"])

    if name == "fedavg_rounds":
        p8 = 8 * param_count([doc["task"]["dim"], *doc["node"]["hidden_dims"],
                              doc["task"]["num_classes"]])
        want = doc["rounds"] * active
        for phase in ("params_down", "params_up"):
            frames = ledger.get(phase, [])
            if len(frames) != want or any(b != p8 for b in frames):
                problems.append(f"{phase}: {len(frames)} frames, want {want} x {p8} B")
        if total != 2 * doc["rounds"] * active * p8:
            problems.append(f"fedavg total {total} != 2 x {doc['rounds']} x {active} x {p8}")
    else:
        public_rows = doc["task"]["public_per_class"] * doc["task"]["num_classes"]
        c = doc["task"]["num_classes"]
        logits = ledger.get("logits_up", [])
        if len(logits) != active or any(b != public_rows * c * 8 for b in logits):
            problems.append(f"logits_up: {len(logits)} frames, want {active} x "
                            f"{public_rows}x{c}x8 B")
        if ledger.get("scalar_max_up") != [8] * active:
            problems.append(f"scalar_max_up: {ledger.get('scalar_max_up')}, want {active} x 8 B")
        want_rows = [public_rows if n else 0 for n in sizes]
        if metrics["query_rows"] != want_rows:
            problems.append(f"query_rows {metrics['query_rows']} != {want_rows}")
        lines = (rd / "trace.jsonl").read_text().count("\n")
        if lines != doc["distill"]["steps"]:
            problems.append(f"trace.jsonl has {lines} lines, want {doc['distill']['steps']}")
        if not acc > metrics["standalone_mean"]:
            problems.append(f"central {acc:.4f} <= standalone mean "
                            f"{metrics['standalone_mean']:.4f}")
    if not acc >= ACC_FLOOR[name]:
        problems.append(f"central {acc:.4f} below floor {ACC_FLOOR[name]}")
    return Outcome(1, 1 if problems else 0, acc, total, problems)


def check_sweep(name: str, doc: dict, out: Path, shard_sizes: dict[int, list[int]]) -> Outcome:
    """Check ablation.csv of one `ablate` call, cell by cell."""
    problems: list[str] = []
    rows = _read_csv(out / "ablation.csv")
    sweep = doc["sweep"]
    want_cells = len(sweep["values"]) * len(sweep["seeds"])
    if len(rows) != want_cells:
        return Outcome(want_cells, want_cells, 0.0, 0,
                       [f"ablation.csv has {len(rows)} rows, want {want_cells}"])
    c = doc["task"]["num_classes"]
    public_rows = doc["task"]["public_per_class"] * c
    failed = 0
    accs, wire = [], 0
    for r in rows:
        seed = int(r["seed"])
        active = sum(1 for n in shard_sizes[seed] if n)
        want = active * (public_rows * c * 8 + 8)
        if r["error"]:
            problem = f"error {r['error']}"
        elif int(r["bandwidth"]) != want:
            problem = f"bandwidth {r['bandwidth']} != {active} x ({public_rows}x{c}x8 + 8)"
        else:
            accs.append(float(r["accuracy"]))
            wire += int(r["bandwidth"])
            continue
        failed += 1
        problems.append(f"cell gamma={r['value']} seed={seed}: {problem}")
    acc = sum(accs) / len(accs) if accs else 0.0
    if accs and not acc >= ACC_FLOOR[name]:
        problems.append(f"mean accuracy {acc:.4f} below floor {ACC_FLOOR[name]}")
        failed = want_cells
    return Outcome(want_cells, failed, acc, wire, problems)


def check(name: str, doc: dict, out: Path, shard_sizes: dict[int, list[int]]) -> Outcome:
    if "sweep" in doc:
        return check_sweep(name, doc, out, shard_sizes)
    return check_run(name, doc, out, shard_sizes)
