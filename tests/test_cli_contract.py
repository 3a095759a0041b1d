"""The README's examples as a user runs them: each in a fresh interpreter,
outside pytest's warning capture, with a numpy RuntimeWarning made an error.
The quick start's commands also write the same bytes under one BLAS thread
as under the default."""
import csv
import json

from conftest import (readme_config, readme_library_example, run_python, write_config,
                      write_csv_task)

DIVERGED = "DivergenceError: distillation diverged on the central model: non-finite parameters"


def test_readme_library_example_runs_clean(tmp_path):
    """The README's "Library use" block runs as written, and its distilled
    model beats the mean standalone node, the first two values it prints."""
    example = tmp_path / "example.py"
    example.write_text(readme_library_example())
    out = run_python("-W", "error::RuntimeWarning", example, cwd=tmp_path)
    assert (out.returncode, out.stderr) == (0, "")
    central, standalone_mean = map(float, out.stdout.splitlines()[0].split())
    assert central > standalone_mean


def cli(*args, env=None):
    """``python -W error::RuntimeWarning -m fedkd.cli *args``, which must exit
    0 with nothing on stderr."""
    out = run_python("-W", "error::RuntimeWarning", "-m", "fedkd.cli", *args, env=env)
    assert (out.returncode, out.stderr) == (0, ""), args


def files_without_timestamps(root):
    """Every file under ``root`` by relative path: its bytes, with the
    timestamp line of each metrics.json left out."""
    files = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            lines = p.read_bytes().splitlines(keepends=True)
            if p.name == "metrics.json":
                lines = [ln for ln in lines if not ln.startswith(b'  "timestamp": ')]
            files[p.relative_to(root).as_posix()] = b"".join(lines)
    return files


def test_readme_quick_start_writes_the_same_bytes_under_one_blas_thread(tmp_path):
    """The README's config under run, fedavg, run with labeled_public and a
    gamma sweep whose 1e-300 cells diverge, and a multi-label CSV task's run
    and sweep (effective labels, positive-count profiles, sigmoid
    distillation): every command exits 0 with nothing on stderr, under
    OPENBLAS_NUM_THREADS=1 and under the default, and both write the same
    bytes, metrics.json's timestamp aside. The quick start's distilled
    model beats the mean standalone node, as the README says. The variable
    is set here only; it is no program knob."""
    doc = readme_config()
    cfg = write_config(tmp_path, doc)
    public = write_config(tmp_path, {**doc, "labeled_public": True}, "public.json")
    sweep = write_config(tmp_path, {**doc, "sweep": {
        "param": "gamma", "values": [None, 1.0, 1e-300], "seeds": [0, 1]}}, "sweep.json")
    multi_doc = {"task": write_csv_task(tmp_path, multi=True), "num_nodes": 4, "alpha": 0.5,
                 "node": {"hidden_dims": [16], "epochs": 10},
                 "distill": {"steps": 300, "batch_size": 32}, "central_hidden_dims": [16]}
    multi = write_config(tmp_path, multi_doc, "multi.json")
    multi_sweep = write_config(tmp_path, {**multi_doc, "sweep": {
        "param": "gamma", "values": [None, 1.0], "seeds": [0, 1]}}, "multi_sweep.json")

    sides = []
    for env in ({"OPENBLAS_NUM_THREADS": "1"}, None):
        side = tmp_path / ("one_thread" if env else "default")
        cli("run", "--config", cfg, "--out", side, env=env)
        cli("fedavg", "--config", cfg, "--out", side, env=env)
        cli("ablate", "--config", sweep, "--out", side, env=env)
        cli("run", "--config", public, "--out", side / "public", env=env)
        cli("run", "--config", multi, "--out", side / "multi", env=env)
        cli("ablate", "--config", multi_sweep, "--out", side / "multi", env=env)
        cli("report", "--out", side, env=env)
        sides.append(files_without_timestamps(side))

    files = sides[0]
    (run,) = {name.split("/")[0] for name in files if name.startswith("fedkd-")}
    assert {name for name in files if name.startswith(run + "/")} == {
        f"{run}/{name}" for name in ("config.json", "ledger.csv", "metrics.json", "trace.jsonl")}
    assert len(files[f"{run}/trace.jsonl"].splitlines()) == doc["distill"]["steps"] == 1500
    metrics = json.loads(files[f"{run}/metrics.json"])
    assert metrics["central"] > metrics["standalone_mean"]
    rows = list(csv.DictReader(files["ablation.csv"].decode().splitlines()))
    assert [r["error"] for r in rows] == [""] * 4 + [DIVERGED] * 2
    (public_config,) = [v for k, v in files.items() if k.startswith("public/fedkd-")
                        and k.endswith("/config.json")]
    assert json.loads(public_config)["labeled_public"] is True
    (multi_metrics,) = [v for k, v in files.items() if k.startswith("multi/fedkd-")
                        and k.endswith("/metrics.json")]
    assert json.loads(multi_metrics)["metric"] == "mean_auc"
    rows = list(csv.DictReader(files["multi/ablation.csv"].decode().splitlines()))
    assert [r["error"] for r in rows] == [""] * 4
    assert sides[0] == sides[1]
