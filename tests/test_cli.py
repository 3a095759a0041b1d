"""Config parsing, run artifacts, sweeps, reporting, and exit codes."""
import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fedkd.cli import (
    SWEEP_AXES,
    CsvTask,
    cmd_ablate,
    cmd_fedavg,
    cmd_report,
    cmd_run,
    config_digest,
    config_to_dict,
    execute_fedkd,
    main,
    parse_config,
    parse_dict,
)
import fedkd.protocol
from fedkd.distill import LOGIT_L2
from fedkd.ensemble import PER_CLASS
from fedkd.errors import ConfigurationError


def tiny_doc(**over):
    doc = {
        "task": {"kind": "synthetic", "num_classes": 3, "dim": 8,
                 "train_per_class": 40, "test_per_class": 30, "public_per_class": 40},
        "num_nodes": 3,
        "node": {"hidden_dims": [16], "epochs": 5},
        "distill": {"steps": 60, "batch_size": 32},
        "rounds": 2,
    }
    doc.update(over)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestParsing:
    def test_defaults(self):
        cfg = parse_dict({"task": {"kind": "synthetic"}})
        assert cfg.ensemble.quant_scale == 200
        assert cfg.ensemble.gamma == 1.0
        assert cfg.ensemble.weight_mode == PER_CLASS
        assert cfg.distill.loss_mode == LOGIT_L2
        assert math.isinf(cfg.distill.tau)
        assert cfg.num_nodes == 5
        assert cfg.alpha == 1.0
        assert cfg.rounds == 30
        assert cfg.sweep is None

    def test_missing_task_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_dict({})

    def test_bad_task_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_dict({"task": {"kind": "parquet"}})

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_dict(tiny_doc(alpha=-1.0))

    def test_unknown_top_key_named(self):
        with pytest.raises(ConfigurationError, match="warp_factor"):
            parse_dict(tiny_doc(warp_factor=9))

    def test_unknown_nested_key_named(self):
        doc = tiny_doc()
        doc["node"]["optimizer"] = "adam"
        with pytest.raises(ConfigurationError, match="optimizer"):
            parse_dict(doc)

    def test_bad_tau_rejected(self):
        with pytest.raises(ConfigurationError, match="tau"):
            parse_dict(tiny_doc(distill={"tau": "huge"}))

    def test_kl_without_finite_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_dict(tiny_doc(distill={"loss_mode": "kl"}))

    def test_off_disables_quantization_and_noise(self):
        cfg = parse_dict(tiny_doc(ensemble={"quant_scale": "off", "gamma": None}))
        assert cfg.ensemble.quant_scale is None
        assert cfg.ensemble.gamma is None

    def test_sweep_bad_param(self):
        with pytest.raises(ConfigurationError):
            parse_dict(tiny_doc(sweep={"param": "lr", "values": [1], "seeds": [0]}))

    def test_sweep_empty_lists(self):
        with pytest.raises(ConfigurationError):
            parse_dict(tiny_doc(sweep={"param": "gamma", "values": [], "seeds": [0]}))

    def test_round_trip(self):
        cfg = parse_dict(tiny_doc(ensemble={"quant_scale": 100, "gamma": 0.5},
                                  sweep={"param": "gamma", "values": [None, 1.0],
                                         "seeds": [0, 1]}))
        again = parse_dict(config_to_dict(cfg))
        assert again == cfg

    def test_digest_ignores_seed_only(self):
        a = parse_dict(tiny_doc(seed=0))
        b = parse_dict(tiny_doc(seed=99))
        c = parse_dict(tiny_doc(ensemble={"gamma": 2.0}))
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)

    def test_parse_config_reads_json_file(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, tiny_doc(seed=5)))
        assert cfg.seed == 5

    def test_parse_config_rejects_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigurationError):
            parse_config(p)

    def test_parse_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_config(tmp_path / "absent.json")


class TestRunArtifacts:
    def test_run_directory_layout(self, tmp_path):
        cfg = parse_dict(tiny_doc())
        rd = cmd_run(cfg, tmp_path, seed=0, force=False)
        assert rd.name == f"fedkd-{config_digest(cfg)[:12]}-s0"
        for name in ("config.json", "ledger.csv", "trace.jsonl", "metrics.json"):
            assert (rd / name).exists()
        saved = json.loads((rd / "config.json").read_text())
        assert saved["seed"] == 0
        assert parse_dict(saved) == cfg
        metrics = json.loads((rd / "metrics.json").read_text())
        assert metrics["algorithm"] == "fedkd"
        assert metrics["config_digest"] == config_digest(cfg)
        assert metrics["metric"] == "accuracy"
        assert 0.0 <= metrics["central"] <= 1.0
        assert metrics["ledger"]["total_bytes"] > 0
        assert "timestamp" in metrics
        with (rd / "ledger.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["phase", "node_id", "bytes"]
        assert all(len(r) == 3 for r in rows[1:])
        with (rd / "trace.jsonl").open() as fh:
            first = json.loads(fh.readline())
        assert set(first) == {"step", "loss", "lr"}

    def test_rerun_collides_unless_forced(self, tmp_path):
        cfg = parse_dict(tiny_doc())
        cmd_run(cfg, tmp_path, seed=0, force=False)
        with pytest.raises(ConfigurationError):
            cmd_run(cfg, tmp_path, seed=0, force=False)
        cmd_run(cfg, tmp_path, seed=0, force=True)

    def test_same_seed_reproduces_everything_but_timestamp(self, tmp_path):
        cfg = parse_dict(tiny_doc())
        a = cmd_run(cfg, tmp_path / "a", seed=3, force=False)
        b = cmd_run(cfg, tmp_path / "b", seed=3, force=False)
        da = json.loads((a / "metrics.json").read_text())
        db = json.loads((b / "metrics.json").read_text())
        da.pop("timestamp"), db.pop("timestamp")
        assert da == db
        assert (a / "ledger.csv").read_bytes() == (b / "ledger.csv").read_bytes()
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()

    def test_fedavg_artifacts(self, tmp_path):
        cfg = parse_dict(tiny_doc())
        rd = cmd_fedavg(cfg, tmp_path, seed=0, force=False)
        assert rd.name.startswith("fedavg-")
        metrics = json.loads((rd / "metrics.json").read_text())
        assert metrics["algorithm"] == "fedavg"
        assert metrics["trace_path"] is None
        assert not (rd / "trace.jsonl").exists()
        phases = {r[0] for r in list(csv.reader((rd / "ledger.csv").open()))[1:]}
        assert phases == {"params_down", "params_up"}

    def test_fedkd_and_fedavg_share_an_out_dir(self, tmp_path):
        cfg = parse_dict(tiny_doc())
        cmd_run(cfg, tmp_path, seed=0, force=False)
        cmd_fedavg(cfg, tmp_path, seed=0, force=False)
        assert len(list(tmp_path.iterdir())) == 2


class TestAblate:
    def test_full_grid_with_off_value(self, tmp_path):
        cfg = parse_dict(tiny_doc(sweep={"param": "gamma", "values": [None, 1.0],
                                         "seeds": [0, 1]}))
        path = cmd_ablate(cfg, tmp_path, force=False)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 4
        assert [r["value"] for r in rows] == ["off", "off", "1.0", "1.0"]
        assert all(r["param"] == "gamma" for r in rows)
        assert all(r["error"] == "" for r in rows)
        assert all(float(r["accuracy"]) >= 0 for r in rows)
        assert all(int(r["bandwidth"]) > 0 for r in rows)

    def test_failing_cell_keeps_its_row(self, tmp_path):
        cfg = parse_dict(tiny_doc(sweep={"param": "K", "values": [2, 100000],
                                         "seeds": [0]}))
        rows = list(csv.DictReader(cmd_ablate(cfg, tmp_path, force=False).open()))
        assert len(rows) == 2
        assert rows[0]["error"] == "" and rows[0]["accuracy"] != ""
        assert rows[1]["error"] != "" and rows[1]["accuracy"] == ""

    def test_diverging_cell_records_the_typed_error(self, tmp_path):
        cfg = parse_dict(tiny_doc(node={"hidden_dims": [16], "epochs": 5, "lr_start": 50},
                                  sweep={"param": "S", "values": [50], "seeds": [0]}))
        path = cmd_ablate(cfg, tmp_path, force=False)
        rows = list(csv.DictReader(path.open()))
        assert rows[0]["error"].startswith("DivergenceError: distillation diverged")
        assert rows[0]["accuracy"] == ""

    def test_d0_sweep_needs_synthetic_task(self, tmp_path):
        doc = tiny_doc(sweep={"param": "d0", "values": [30], "seeds": [0]})
        doc["task"] = {"kind": "csv", "private": "x.csv", "public": "x.csv",
                       "test": "x.csv", "task_type": "single_label",
                       "num_classes": 2, "feature_cols": ["a"], "label_cols": ["y"]}
        cfg = parse_dict(doc)
        rows = list(csv.DictReader(cmd_ablate(cfg, tmp_path, force=False).open()))
        assert all("synthetic" in r["error"] for r in rows)

    def test_existing_csv_guarded(self, tmp_path):
        cfg = parse_dict(tiny_doc(sweep={"param": "S", "values": [50], "seeds": [0]}))
        (tmp_path / "ablation.csv").write_text("old")
        with pytest.raises(ConfigurationError):
            cmd_ablate(cfg, tmp_path, force=False)

    def test_without_sweep_section_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            cmd_ablate(parse_dict(tiny_doc()), tmp_path, force=False)


class TestReport:
    def test_table_covers_both_methods_and_unit_bases(self, tmp_path, capsys):
        cfg = parse_dict(tiny_doc())
        cmd_run(cfg, tmp_path, seed=0, force=False)
        cmd_run(cfg, tmp_path, seed=1, force=False)
        cmd_fedavg(cfg, tmp_path, seed=0, force=False)
        capsys.readouterr()
        table = cmd_report(tmp_path)
        lines = table.splitlines()
        assert "GB (1e9)" in lines[0] and "GiB (2^30)" in lines[0]
        body = {ln.split()[0]: ln for ln in lines[1:]}
        assert set(body) == {"fedkd", "fedavg"}
        assert body["fedkd"].split()[1] == "2"
        assert body["fedavg"].split()[1] == "1"

    def test_empty_out_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            cmd_report(tmp_path)


def write_csv_task(tmp_path, multi=False):
    """Two separable 2-d blobs as CSV splits; multi adds a masked second label."""
    import numpy as np

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


class TestCsvTasks:
    def test_single_label_end_to_end(self, tmp_path):
        doc = tiny_doc(num_nodes=2,
                       ensemble={"gamma": "off"},
                       distill={"steps": 400, "batch_size": 16})
        doc["task"] = write_csv_task(tmp_path)
        rd = cmd_run(parse_dict(doc), tmp_path / "out", seed=0, force=False)
        metrics = json.loads((rd / "metrics.json").read_text())
        assert metrics["metric"] == "accuracy"
        assert metrics["central"] >= 0.9

    def test_multi_label_reports_mean_auc(self, tmp_path):
        doc = tiny_doc(num_nodes=2)
        doc["task"] = write_csv_task(tmp_path, multi=True)
        rd = cmd_run(parse_dict(doc), tmp_path / "out", seed=0, force=False)
        metrics = json.loads((rd / "metrics.json").read_text())
        assert metrics["metric"] == "mean_auc"
        assert 0.0 <= metrics["central"] <= 1.0


class TestMainExitCodes:
    def test_success(self, tmp_path):
        p = write_config(tmp_path, tiny_doc())
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 0

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_invalid_config_is_config_error(self, tmp_path):
        p = write_config(tmp_path, tiny_doc(alpha=0))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_collision_is_config_error(self, tmp_path):
        p = write_config(tmp_path, tiny_doc())
        out = str(tmp_path / "o")
        assert main(["run", "--config", str(p), "--out", out]) == 0
        assert main(["run", "--config", str(p), "--out", out]) == 2
        assert main(["run", "--config", str(p), "--out", out, "--force"]) == 0

    def test_seed_flag_overrides_config(self, tmp_path):
        p = write_config(tmp_path, tiny_doc(seed=0))
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out), "--seed", "7"]) == 0
        assert len(list(out.glob("fedkd-*-s7"))) == 1

    def test_report_with_no_runs_is_config_error(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 2

    def test_missing_data_file_is_runtime_error(self, tmp_path):
        doc = tiny_doc()
        doc["task"] = {"kind": "csv", "private": str(tmp_path / "gone.csv"),
                       "public": str(tmp_path / "gone.csv"),
                       "test": str(tmp_path / "gone.csv"),
                       "task_type": "single_label", "num_classes": 2,
                       "feature_cols": ["a"], "label_cols": ["y"]}
        p = write_config(tmp_path, doc)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3

    def test_diverging_run_is_a_one_line_runtime_error(self, tmp_path, capsys):
        # node lr 50 blows the ensemble up and the distilled model with it
        p = write_config(tmp_path, tiny_doc(
            node={"hidden_dims": [16], "epochs": 5, "lr_start": 50}))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("runtime error: distillation diverged on the central model")

    @pytest.mark.parametrize("case, message", [
        ("csv_nan", "features: non-finite entries"),
        ("gamma", "teacher logits: non-finite entries"),
        ("cov_scale", "logits: non-finite entries"),
    ])
    def test_non_finite_data_is_a_one_line_runtime_error(self, tmp_path, capsys, case, message):
        if case == "csv_nan":
            doc = tiny_doc(num_nodes=2)
            doc["task"] = write_csv_task(tmp_path)
            private = Path(doc["task"]["private"])
            lines = private.read_text().splitlines()
            lines[3] = "nan," + lines[3].split(",", 1)[1]
            private.write_text("\n".join(lines) + "\n")
        elif case == "gamma":
            # Laplace noise at scale 1e320 overflows the teacher logits
            doc = tiny_doc(num_nodes=2, ensemble={"gamma": 1e-320})
        else:
            # one SGD step on 1e300-scale features leaves finite but huge
            # weights, so the public query overflows
            doc = tiny_doc(num_nodes=2, node={"hidden_dims": [16], "epochs": 1,
                                              "batch_size": 1000})
            doc["task"]["cov_scale"] = 1e300
        p = write_config(tmp_path, doc)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"runtime error: {message}\n"

    @pytest.mark.parametrize("over, key", [
        ({"distill": [1]}, "'distill' must be an object"),
        ({"num_nodes": "abc"}, "num_nodes must be an integer"),
        ({"task": {"kind": "synthetic", "num_classes": "4"}}, "task.num_classes must be an integer"),
        ({"central_hidden_dims": 5}, "central_hidden_dims must be a list"),
    ])
    def test_wrong_typed_field_is_a_one_line_config_error(self, tmp_path, capsys, over, key):
        p = write_config(tmp_path, tiny_doc(**over))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: {key}")

    def test_negative_seed_flag_is_config_error(self, tmp_path):
        p = write_config(tmp_path, tiny_doc())
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 2

    def test_fedavg_subcommand(self, tmp_path):
        p = write_config(tmp_path, tiny_doc())
        assert main(["fedavg", "--config", str(p), "--out", str(tmp_path / "o")]) == 0

    def test_ablate_subcommand(self, tmp_path):
        p = write_config(tmp_path, tiny_doc(
            sweep={"param": "S", "values": [50], "seeds": [0]}))
        assert main(["ablate", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "ablation.csv").exists()


# Every field of a valid document, each to be replaced by a wrong-typed value.
FULL_DOC = tiny_doc(
    task={"kind": "synthetic", "num_classes": 3, "dim": 8, "train_per_class": 40,
          "test_per_class": 30, "public_per_class": 40, "cov_scale": 1.0,
          "class_sep": 4.0, "domain_shift": 1.0},
    alpha=1.0, seed=0,
    node={"hidden_dims": [16], "epochs": 5, "batch_size": 32, "lr_start": 0.05,
          "lr_end": 0.0, "weight_decay": 0.0},
    ensemble={"quant_scale": 200, "gamma": 1.0, "weight_mode": "per_class"},
    distill={"steps": 60, "batch_size": 32, "lr_start": 0.05, "lr_end": 0.0,
             "weight_decay": 0.0, "tau": 4.0, "loss_mode": "kl"},
    central_hidden_dims=[16], repeats=1, query_noise=0.0, labeled_public=False,
    sweep={"param": "gamma", "values": [None, 1.0], "seeds": [0, 1]},
)
CSV_DOC = tiny_doc(task={"kind": "csv", "private": "a.csv", "public": "b.csv",
                         "test": "c.csv", "task_type": "single_label", "num_classes": 2,
                         "feature_cols": ["x0", "x1"], "label_cols": ["y"]})


def _field_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


FIELDS = [(doc, path) for doc in (FULL_DOC, CSV_DOC) for path in _field_paths(doc)]
WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.sampled_from(["4", "off", "inf", ""]),
    st.integers(), st.sampled_from([10**400, -10**400]), st.floats(width=64),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=2), st.none()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


class TestParseDictTyping:
    def test_full_documents_parse(self):
        parse_dict(copy.deepcopy(FULL_DOC))
        parse_dict(copy.deepcopy(CSV_DOC))

    @settings(max_examples=400, deadline=None)
    @given(field=st.sampled_from(FIELDS), value=WRONG_VALUES)
    def test_one_wrong_field_raises_only_configuration_error(self, field, value):
        doc, path = field
        doc = copy.deepcopy(doc)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        try:
            parse_dict(doc)
        except ConfigurationError:
            pass


def test_non_finite_query_prints_one_stderr_line(tmp_path):
    """Outside pytest's warning capture: no numpy RuntimeWarning reaches
    stderr ahead of the one-line runtime error."""
    doc = tiny_doc(num_nodes=2, node={"hidden_dims": [16], "epochs": 1, "batch_size": 1000})
    doc["task"]["cov_scale"] = 1e300
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-m", "fedkd.cli", "run", "--config", str(write_config(tmp_path, doc)),
         "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert out.returncode == 3
    assert out.stderr == "runtime error: logits: non-finite entries\n"


def test_import_leaves_scipy_unloaded():
    """The package runs on numpy alone; a cold `import fedkd.cli` pulls in no
    scipy even where scipy is installed."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import fedkd.cli, sys; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


# A valid value per sweep axis, and the document field it sets by hand.
SWEEP_EDITS = {
    "gamma": (None, ("ensemble", "gamma"), None),
    "S": (50, ("ensemble", "quant_scale"), 50),
    "d0": (60, ("task", "public_per_class"), 20),  # 60 public rows over 3 classes
    "alpha": (0.3, ("alpha",), 0.3),
    "K": (2, ("num_nodes",), 2),
    "R": (2, ("repeats",), 2),
}


def _ablate_rows(tmp_path, param, value, seed=1):
    cfg = parse_dict(tiny_doc(sweep={"param": param, "values": [value], "seeds": [seed]}))
    return list(csv.DictReader(cmd_ablate(cfg, tmp_path, force=False).open()))


class TestSweepCells:
    @pytest.mark.parametrize("param", SWEEP_AXES)
    def test_cell_matches_the_hand_edited_document(self, tmp_path, param):
        value, path, field_value = SWEEP_EDITS[param]
        (row,) = _ablate_rows(tmp_path, param, value)
        doc = tiny_doc()
        target = doc
        for key in path[:-1]:
            target = target.setdefault(key, {})
        target[path[-1]] = field_value
        result = execute_fedkd(parse_dict(doc), 1)
        assert row["error"] == ""
        assert row["accuracy"] == f"{result.metrics['central']:.6f}"
        assert int(row["bandwidth"]) == result.ledger.total()

    @pytest.mark.parametrize("param, value, key", [
        ("S", 1, "quant_scale"),
        ("gamma", -1, "gamma"),
        ("alpha", 0, "alpha"),
        ("K", 0, "num_nodes"),
        ("R", 0, "repeats"),
        ("d0", 31, "d0"),
    ])
    def test_invalid_value_is_a_configuration_error_naming_the_key(self, tmp_path, param,
                                                                   value, key):
        (row,) = _ablate_rows(tmp_path, param, value)
        assert row["error"].startswith("ConfigurationError: ")
        assert key in row["error"]
        assert row["accuracy"] == "" and row["bandwidth"] == ""


class TestDistillTask:
    def test_not_a_config_key(self):
        with pytest.raises(ConfigurationError, match="unknown key 'task' in distill"):
            parse_dict(tiny_doc(distill={"task": "multi_label"}))
        assert "task" not in config_to_dict(parse_dict(tiny_doc()))["distill"]

    def test_follows_the_csv_task_type(self):
        doc = copy.deepcopy(CSV_DOC)
        doc["task"].update(task_type="multi_label", label_cols=["a", "b"])
        assert parse_dict(doc).distill.task == "multi_label"
        assert parse_dict(copy.deepcopy(CSV_DOC)).distill.task == "single_label"


class TestFailedRunLeavesNoRunDirectory:
    @pytest.mark.parametrize("over, code, message", [
        ({"node": {"hidden_dims": [16], "epochs": 5, "lr_start": 0.01, "lr_end": 0.05}},
         2, "config error: require lr_start >= lr_end >= 0"),
        ({"distill": {"steps": 60, "batch_size": 32, "lr_start": 0.01, "lr_end": 0.05}},
         2, "config error: require lr_start >= lr_end >= 0"),
        ({"node": {"hidden_dims": [16], "epochs": 5, "lr_end": -0.01}},
         2, "config error: require lr_start >= lr_end >= 0"),
        # 568 PiB: more than any address space maps, so the first draw fails
        # before anything is allocated
        ({"task": {"kind": "synthetic", "num_classes": 3, "dim": 8, "train_per_class": 1e16}},
         3, "runtime error: Unable to allocate"),
        ({"node": {"hidden_dims": [16], "epochs": 5, "lr_start": 50}},
         3, "runtime error: distillation diverged"),
    ])
    def test_one_line_exit_and_no_directory(self, tmp_path, capsys, over, code, message):
        p = write_config(tmp_path, tiny_doc(**over))
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(message)
        assert not out.exists() or not any(out.iterdir())


def test_readme_quick_start_beats_the_standalone_nodes(tmp_path):
    """The README's first JSON config parses and runs, and the distilled
    model beats the mean standalone node, as the README says it does."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = parse_dict(json.loads(block))
    rd = cmd_run(cfg, tmp_path, seed=cfg.seed, force=False)
    metrics = json.loads((rd / "metrics.json").read_text())
    assert metrics["central"] > metrics["standalone_mean"]


class TestParseTimeChecks:
    @pytest.fixture
    def no_training(self, monkeypatch):
        calls = []

        def train(*args, **kwargs):
            calls.append(1)
            raise AssertionError("node training ran")

        monkeypatch.setattr(fedkd.protocol, "train_lockstep", train)
        return calls

    def test_distill_batch_above_the_public_set_exits_2_before_training(self, tmp_path, capsys,
                                                                        no_training):
        p = write_config(tmp_path, tiny_doc(distill={"steps": 60, "batch_size": 121}))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: distill.batch_size 121 exceeds the public set size 120\n")
        assert no_training == []

    def test_too_small_d0_cell_gets_its_error_row_without_training(self, tmp_path, no_training):
        (row,) = _ablate_rows(tmp_path, "d0", 30)  # 30 public rows, distill batches of 32
        assert row["error"] == (
            "ConfigurationError: distill.batch_size 32 exceeds the public set size 30")
        assert no_training == []

    @pytest.mark.parametrize("section, over", [
        ("node", {"node": {"hidden_dims": [16], "lr_start": 0.01, "lr_end": 0.05}}),
        ("node", {"node": {"batch_size": 0}}),
        ("distill", {"distill": {"steps": 0}}),
        ("distill", {"distill": {"loss_mode": "kl"}}),
        ("ensemble", {"ensemble": {"quant_scale": 1}}),
    ])
    def test_constructor_errors_name_their_section(self, section, over):
        with pytest.raises(ConfigurationError, match=rf"\(in {section}\)$"):
            parse_dict(tiny_doc(**over))


def test_overflowing_model_evaluation_is_a_one_line_runtime_error(tmp_path, capsys):
    """Found by the fuzz below: a node trained at lr 1e300 stays finite, so
    the student distilled from it does too, but its test logits overflow."""
    doc = tiny_doc(num_nodes=1, node={"hidden_dims": [], "epochs": 1, "batch_size": 1,
                                      "lr_start": 1e300},
                   distill={"steps": 1, "batch_size": 1}, central_hidden_dims=[2],
                   ensemble={"quant_scale": None, "gamma": None})
    doc["task"].update(num_classes=2, dim=1, train_per_class=1, test_per_class=1,
                       public_per_class=1, class_sep=0.0, domain_shift=0.0)
    p = write_config(tmp_path, doc)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "runtime error: evaluating the central model: non-finite model logits on the "
        "evaluation set\n")


def test_overflowing_node_evaluation_names_the_node(tmp_path, capsys):
    """A node trained at lr 1e300 answers the all-zero public rows with finite
    logits, so the query and distillation pass, but its logits on the far-out
    test rows overflow: the one stderr line says which model it was."""
    task = {"kind": "csv", "task_type": "single_label", "num_classes": 2,
            "feature_cols": ["x"], "label_cols": ["y"]}
    splits = {"private": [(1.0, 0)], "public": [(0.0, 0), (0.0, 1)],
              "test": [(1e10, 0), (1e10, 1)]}
    for split, rows in splits.items():
        path = tmp_path / f"{split}.csv"
        path.write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in rows))
        task[split] = str(path)
    doc = tiny_doc(task=task, num_nodes=1, central_hidden_dims=[],
                   node={"hidden_dims": [], "epochs": 1, "batch_size": 1, "lr_start": 1e300},
                   distill={"steps": 1, "batch_size": 1},
                   ensemble={"quant_scale": None, "gamma": None})
    p = write_config(tmp_path, doc)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "runtime error: evaluating node 0: non-finite model logits on the evaluation set\n")
    assert not (tmp_path / "o").exists()


# One field set out of its range: each is a config error (exit 2) or, for
# values that only blow up numerically, a runtime error (exit 3).
OUT_OF_RANGE = [
    (("num_nodes",), 0), (("alpha",), 0.0), (("seed",), -1), (("repeats",), 0),
    (("query_noise",), -0.5), (("rounds",), 0), (("central_hidden_dims",), [0]),
    (("task", "num_classes"), 1), (("task", "dim"), 0), (("task", "train_per_class"), 0),
    (("task", "public_per_class"), 0), (("task", "cov_scale"), 1e300),
    (("node", "epochs"), 0), (("node", "batch_size"), 0), (("node", "lr_end"), 1.0),
    (("node", "lr_start"), 1e300), (("node", "hidden_dims"), [0]),
    (("ensemble", "quant_scale"), 1), (("ensemble", "gamma"), 0.0),
    (("ensemble", "gamma"), 1e-320), (("ensemble", "weight_mode"), "loudest"),
    (("distill", "steps"), 0), (("distill", "batch_size"), 10**6), (("distill", "tau"), 0.0),
    (("distill", "lr_start"), 1e300),
]


@st.composite
def small_documents(draw):
    """A small synthetic config (at most 40 rows per class and split), maybe
    with one field out of range."""
    rows = st.integers(1, 40)
    doc = {
        "task": {"kind": "synthetic", "num_classes": draw(st.integers(2, 4)),
                 "dim": draw(st.integers(1, 6)), "train_per_class": draw(rows),
                 "test_per_class": draw(st.integers(1, 10)), "public_per_class": draw(rows),
                 "class_sep": draw(st.floats(0.0, 8.0)),
                 "domain_shift": draw(st.floats(0.0, 2.0))},
        "num_nodes": draw(st.integers(1, 6)),
        "alpha": draw(st.floats(0.05, 5.0)),
        "seed": draw(st.integers(0, 2**31)),
        "node": {"hidden_dims": draw(st.lists(st.integers(1, 8), max_size=2)),
                 "epochs": draw(st.integers(1, 3)), "batch_size": draw(st.integers(1, 48)),
                 "lr_start": draw(st.floats(0.0, 0.5)),
                 "weight_decay": draw(st.sampled_from([0.0, 1e-3]))},
        "ensemble": {"quant_scale": draw(st.sampled_from([None, 2, 200])),
                     "gamma": draw(st.sampled_from([None, 0.25, 4.0])),
                     "weight_mode": draw(st.sampled_from(["per_class", "uniform"]))},
        "distill": {"steps": draw(st.integers(1, 20)), "batch_size": draw(st.integers(1, 64)),
                    "loss_mode": draw(st.sampled_from(["logit_l2", "kl"])),
                    "tau": draw(st.sampled_from(["inf", 0.5, 4.0]))},
        "central_hidden_dims": draw(st.lists(st.integers(1, 8), max_size=2)),
        "repeats": draw(st.integers(1, 2)),
        "query_noise": draw(st.sampled_from([0.0, 0.1])),
        "labeled_public": draw(st.booleans()),
        "rounds": draw(st.integers(1, 3)),
    }
    if draw(st.booleans()):
        path, value = draw(st.sampled_from(OUT_OF_RANGE))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(doc=small_documents(), command=st.sampled_from(["run", "fedavg"]))
def test_fuzzed_documents_keep_the_exit_code_contract(doc, command):
    """Exit 0, 2 or 3, one stderr line exactly when the exit is not 0, and no
    exception; uneven Dirichlet shards give stacks of several sizes, tiny
    and empty shards."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") == (code != 0)
