"""fedkd benchmark: time one workload through the public CLI entry point.

Run from the repository root:

    python3 perfbench/run.py --workload paper_run --seed 0 --seconds 40 --trace 0

The workload's config is generated from ``--seed``.  Each operation is one
`fedkd.cli.main` call in a fresh child process (perfbench/child.py), one at a
time: a closed loop with one client, BLAS at its default thread count.
Children are started while the next is expected to end within ``--seconds``
(at least two of each kind), and every metric is the median over them.
Every call's outputs are checked (workloads.py); a failed check fails the
operation and makes the exit code 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
and traced children (spans.py) and prints the per-layer metrics plus
``trace.overhead_s``, the traced minus the plain median wall time.  Metric
names and units are those BENCHMARK.json lists.  Each child also times a
fixed pure-Python loop (``cal_ms``), printed next to its wall time to show
host drift; it is not a metric.  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics
from workloads import WORKLOADS, check, expected_steps

CHILD_TIMEOUT_S = 150
MIN_REPEATS = 2  # of each kind, so repeat-to-repeat identity is checked

# Per-layer metrics measured by the child's own clocks or from the outputs
# rather than from spans.
SETUP_LAYER = {"cli.import_s": "import_s", "cli.parse_s": "parse_s"}
# Counts that must repeat exactly between traced repeats.
EXACT_COUNTS = (
    "cli.artifact_bytes", "cli.cells", "datasets.build_calls", "numkit.forward_calls",
    "numkit.forward_rows", "numkit.backward_calls", "numkit.sgd_steps",
    "protocol.train_calls", "protocol.query_rows", "protocol.ledger_frames",
    "ensemble.cells", "distill.steps", "distill.eval_calls",
)
def metric_units(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and per-layer metrics, in the order
    BENCHMARK.json lists them."""
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def artifact_digest(out: Path) -> str:
    """sha256 over metrics.json minus its timestamp, ledger.csv, trace.jsonl
    and ablation.csv, wherever they sit under ``out``."""
    h = hashlib.sha256()
    names = ("metrics.json", "ledger.csv", "trace.jsonl", "ablation.csv")
    for path in sorted(p for p in out.rglob("*") if p.name in names):
        data = path.read_bytes()
        if path.name == "metrics.json":
            doc = json.loads(data)
            doc.pop("timestamp", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(f"{path.relative_to(out)}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _log_tail(path: Path, lines: int = 8) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


def spawn(root: Path, work: Path, idx: int, command: str, *, trace=False,
          setup_only=False) -> tuple[dict | None, Path]:
    """Run one child to completion; returns its result (None on failure)
    and the directory its CLI call wrote to."""
    out = work / f"out{idx}"
    result = work / f"result{idx}.json"
    log = work / f"log{idx}.txt"
    cmd = [sys.executable, str(Path(__file__).with_name("child.py")),
           "--config", str(work / "config.json"), "--command", command,
           "--out", str(out), "--result", str(result), "--run-id", str(idx)]
    if trace:
        cmd += ["--trace", str(work / f"spans{idx}.json")]
    if setup_only:
        cmd.append("--setup-only")
    with log.open("w") as fh:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(cmd + ["--spawn-ns", str(spawn_ns)], cwd=root,
                                stdout=fh, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = None
    if rc != 0 or not result.exists():
        print(f"child {idx} exited with {rc}:\n{_log_tail(log)}", file=sys.stderr)
        return None, out
    res = json.loads(result.read_text())
    if not setup_only and res["rc"] != 0:
        print(f"child {idx}: fedkd exited with {res['rc']}:\n{_log_tail(log)}",
              file=sys.stderr)
        return None, out
    return res, out


def host_environment() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": os.getloadavg(),
    }


def _q(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  q1 {q1:.6g}  q3 {q3:.6g}"


def measure(name: str, seed: int, seconds: float, traced: bool, root: Path) -> int:
    workload = WORKLOADS[name]
    doc = workload.make_config(seed)
    cells = len(doc["sweep"]["values"]) * len(doc["sweep"]["seeds"]) if "sweep" in doc else 1
    work = root / ".perfbench_out" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(doc, indent=2))
    env = host_environment()
    end_to_end, per_layer = metric_units(root)

    # Warm-up: one setup-only child fills the page cache and writes the
    # bytecode cache; it also reports the interpreter and BLAS environment.
    warm, _ = spawn(root, work, 0, workload.command, setup_only=True)
    if warm is None:
        return 2
    env.update(warm["env"])
    print("env: " + json.dumps(env, sort_keys=True))

    attempted = failed = 0
    plain: list[dict] = []
    traced_runs: list[dict] = []
    problems: list[str] = []
    digests: dict[str, int] = {}
    start = time.perf_counter()
    child_s: list[float] = []
    idx = 0
    # start another child while it is expected to finish within --seconds
    while (idx < MIN_REPEATS * (1 + traced)
           or time.perf_counter() - start + statistics.median(child_s) <= seconds):
        idx += 1
        is_traced = traced and (idx % 2 == 0)
        t0 = time.perf_counter()
        res, out = spawn(root, work, idx, workload.command, trace=is_traced)
        child_s.append(time.perf_counter() - t0)
        attempted += cells
        if res is None:
            failed += cells
            problems.append(f"operation {idx}: child failed")
            continue
        shard_sizes = {int(k): v for k, v in res["shard_sizes"].items()}
        outcome = check(name, doc, out, shard_sizes)
        steps = expected_steps(name, doc, shard_sizes)
        digest = artifact_digest(out)
        digests[digest] = digests.get(digest, 0) + 1
        res.update(idx=idx, digest=digest, outcome=outcome, steps=steps)
        problems.extend(f"operation {idx}: {p}" for p in outcome.problems)
        if is_traced:
            res["artifact_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            spans_doc = json.loads((work / f"spans{idx}.json").read_text())
            res["layers"] = layer_metrics(spans_doc)
            if res["layers"]["numkit.sgd_steps"] != steps:
                outcome.failed_cells = cells
                problems.append(f"operation {idx}: traced {res['layers']['numkit.sgd_steps']} "
                                f"SGD steps, config fixes {steps}")
            traced_runs.append(res)
        else:
            plain.append(res)
        shutil.rmtree(out, ignore_errors=True)

    # every repeat of one config must write the same artifacts and counts
    ref_digest = max(digests, key=digests.get) if digests else ""
    for res in plain + traced_runs:
        if res["digest"] != ref_digest:
            res["outcome"].failed_cells = cells
            problems.append(f"operation {res['idx']}: artifact digest {res['digest'][:12]} "
                            f"differs from the other repeats ({ref_digest[:12]})")
    rows = [_layer_row(r) for r in traced_runs]
    for key in EXACT_COUNTS:
        seen = {row[key] for row in rows}
        if len(seen) > 1:
            for res in traced_runs:
                res["outcome"].failed_cells = cells
            problems.append(f"count {key} differs between traced repeats: {sorted(seen)}")
    failed += sum(r["outcome"].failed_cells for r in plain + traced_runs)

    if not plain or (traced and not rows):
        print("no successful operation to report", file=sys.stderr)
        metrics = {}
    elif traced:
        metrics = _layer_report(per_layer, plain, traced_runs, rows)
    else:
        metrics = _end_to_end_report(end_to_end, plain)
    print(f"workload {name}  seed {seed}  operations {attempted}  failed {failed} "
          f"({failed / attempted:.1%})  children {idx}  artifact_sha256 {ref_digest}")
    for p in problems:
        print(f"FAILED CHECK {p}")
    correct = failed == 0 and not problems and bool(metrics)
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    else:
        print(f"outputs kept in {work}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _end_to_end_report(units: dict[str, str], plain: list[dict]) -> dict:
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "steps_per_s": [r["steps"] / r["wall_s"] for r in plain],
        "central_acc": [r["outcome"].central_acc for r in plain],
        "wire_bytes": [r["outcome"].wire_bytes for r in plain],
    }
    _print_host_speed(plain)
    metrics = {}
    for key, unit in units.items():
        values = samples[key]
        metrics[key] = {"value": statistics.median(values), "unit": unit}
        print(f"{key:<14}{metrics[key]['value']:>16.6g} {unit:<9} "
              f"median of {len(values)}{_q(values)}")
    return metrics


def _print_host_speed(runs: list[dict]) -> None:
    """Each child's wall time next to its calibration loop, so a slower
    host shows as slower calibration as well as slower wall_s."""
    runs = sorted(runs, key=lambda r: r["idx"])
    print("wall_s per child: " + " ".join(f"{r['wall_s']:.3f}" for r in runs))
    print("cal_ms per child: " + " ".join(f"{r['cal_ms']:.1f}" for r in runs))
    print(f"host cal_ms median {statistics.median(r['cal_ms'] for r in runs):.6g}  "
          f"wall_s/cal_ms median "
          f"{statistics.median(r['wall_s'] / r['cal_ms'] for r in runs):.6g}  (diagnostic only)")


def _layer_row(res: dict) -> dict:
    """Per-layer values of one traced child: spans, setup clocks, outputs."""
    row = dict(res["layers"])
    for key, field in SETUP_LAYER.items():
        row[key] = res[field]
    row["cli.artifact_bytes"] = res["artifact_bytes"]
    row["cli.cells"] = res["outcome"].cells
    row["cli.cells_failed"] = res["outcome"].failed_cells
    return row


def _layer_report(units: dict[str, str], plain: list[dict], traced_runs: list[dict],
                  rows: list[dict]) -> dict:
    _print_host_speed(plain + traced_runs)
    metrics = {}
    for key, unit in units.items():
        if key == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in traced_runs)
                     - statistics.median(r["wall_s"] for r in plain))
        else:
            value = statistics.median(row[key] for row in rows)
        metrics[key] = {"value": value, "unit": unit}
        print(f"{key:<28}{value:>16.6g} {unit}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fedkd" / "cli.py").is_file():
        print(f"no src/fedkd/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    return measure(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
