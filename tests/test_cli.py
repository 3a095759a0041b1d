"""Config parsing, run artifacts, sweeps, reporting, and exit codes."""
import contextlib
import copy
import csv
import importlib
import io
import json
import math
import os
import re
import shutil
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedkd.cli import (
    SWEEP_AXES,
    CsvTask,
    build_data,
    cmd_ablate,
    cmd_fedavg,
    cmd_report,
    cmd_run,
    config_digest,
    config_to_dict,
    execute_fedkd,
    execute_fedkd_batch,
    main,
    parse_config,
    parse_dict,
)
import fedkd.cli
import fedkd.numkit
import fedkd.protocol
from fedkd.datasets import CsvSchema, Dataset, dirichlet_partition, load_csv
from fedkd.distill import KL, LOGIT_L2, DistillConfig, distill
from fedkd.ensemble import PER_CLASS
from fedkd.errors import ConfigurationError
from fedkd.numkit import RandomStream, init_mlp, mlp_forward
from fedkd.protocol import FedKdRun, TrainConfig, _central_metrics, run_fedavg, run_fedkd

from conftest import (GAMMA_MIN, needs_openblas, read_rows, reference_distill, run_python,
                      write_config, write_csv_task)

DISTILL_MODULE = importlib.import_module("fedkd.distill")  # `distill` above is its function


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


def bits(model):
    return model.flat.view("i8").tolist()


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
        assert (cfg.node.hidden_dims, cfg.node.epochs) == ([64], 30)

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

    def test_json_spellings_keep_the_config_and_its_digest(self):
        """Every real field spelled as a JSON integer, every integer field as an
        integral float, and the off and inf spellings parse to the config, and
        the digest, they gave when the CLI had its own coercer per type."""
        doc = {
            "seed": 3.0, "num_nodes": 4.0, "alpha": 1, "repeats": 2.0, "query_noise": 0,
            "labeled_public": False, "rounds": 5.0, "central_hidden_dims": [16.0],
            "task": {"kind": "synthetic", "num_classes": 3.0, "dim": 8.0, "train_per_class": 20.0,
                     "test_per_class": 10.0, "public_per_class": 10.0, "cov_scale": 1,
                     "class_sep": 4, "domain_shift": 1},
            "node": {"hidden_dims": [16.0, 8.0], "epochs": 2.0, "batch_size": 8.0,
                     "lr_start": 1, "lr_end": 0, "weight_decay": 0},
            "ensemble": {"quant_scale": "off", "gamma": None, "weight_mode": "per_class"},
            "distill": {"steps": 10.0, "batch_size": 8.0, "lr_start": 1, "lr_end": 0,
                        "weight_decay": 0, "tau": "inf", "loss_mode": "logit_l2"},
            "sweep": {"param": "gamma", "values": [1, None], "seeds": [0.0, 1.0]},
        }
        cfg = parse_dict(doc)
        assert json.dumps(config_to_dict(cfg), sort_keys=True) == (
            '{"alpha": 1.0, "central_hidden_dims": [16], "distill": {"batch_size": 8, '
            '"loss_mode": "logit_l2", "lr_end": 0.0, "lr_start": 1.0, "steps": 10, "tau": "inf", '
            '"weight_decay": 0.0}, "ensemble": {"gamma": null, "quant_scale": null, '
            '"weight_mode": "per_class"}, "labeled_public": false, "node": {"batch_size": 8, '
            '"epochs": 2, "hidden_dims": [16, 8], "lr_end": 0.0, "lr_start": 1.0, '
            '"weight_decay": 0.0}, "num_nodes": 4, "query_noise": 0.0, "repeats": 2, "rounds": 5, '
            '"seed": 3, "sweep": {"param": "gamma", "seeds": [0, 1], "values": [1, null]}, '
            '"task": {"class_sep": 4.0, "cov_scale": 1.0, "dim": 8, "domain_shift": 1.0, '
            '"kind": "synthetic", "num_classes": 3, "public_per_class": 10, "test_per_class": 10, '
            '"train_per_class": 20}}')
        assert config_digest(cfg) == (
            "f554d6e1a6a813932de36d911d31b140828cd9d441b2ca538dcaa674384583a1")

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
        assert not [k for k in metrics if "bytes" in k]  # every byte count is a ledger frame's
        assert "timestamp" in metrics
        with (rd / "ledger.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["phase", "node_id", "bytes"]
        assert all(len(r) == 3 for r in rows[1:])
        with (rd / "trace.jsonl").open() as fh:
            first = json.loads(fh.readline())
        assert set(first) == {"step", "loss", "lr"}

    def test_trace_lines_are_the_sorted_key_json_of_each_step(self, tmp_path):
        cfg = parse_dict(tiny_doc())
        rd = cmd_run(cfg, tmp_path, seed=0, force=False)
        trace = execute_fedkd(cfg, 0).trace
        assert len(trace) == cfg.distill.steps
        assert (rd / "trace.jsonl").read_text() == "".join(
            json.dumps(rec, sort_keys=True) + "\n" for rec in trace)

    @pytest.mark.parametrize("forced", [False, True])
    def test_failure_while_writing_leaves_no_partial_directory(self, tmp_path, monkeypatch,
                                                              capsys, forced):
        """A write that fails after some files are out leaves the out directory
        as it was: no new run directory, no temporary sibling, under --force
        the earlier run's files untouched, and without it no --out at all."""
        p = write_config(tmp_path, tiny_doc())
        out = tmp_path / "o"
        if forced:
            assert main(["run", "--config", str(p), "--out", str(out)]) == 0
            (next(out.iterdir()) / "ledger.csv").write_text("the earlier run's\n")

        def contents():
            return {f.relative_to(out): f.read_bytes() for f in out.rglob("*") if f.is_file()}

        before = contents() if forced else {}

        def fail(ledger):  # runs after config.json, ledger.csv and trace.jsonl are written
            raise OSError("disk full")

        monkeypatch.setattr(fedkd.cli, "ledger_report", fail)
        capsys.readouterr()
        args = ["run", "--config", str(p), "--out", str(out)] + ["--force"] * forced
        assert main(args) == 3
        assert capsys.readouterr().err == "runtime error: disk full\n"
        if forced:
            assert contents() == before
            assert len(list(out.iterdir())) == 1
        else:
            assert not out.exists()  # the run made it, so the failed write took it away

    def test_forced_rerun_replaces_the_directory(self, tmp_path):
        cfg = parse_dict(tiny_doc())
        rd = cmd_run(cfg, tmp_path, seed=0, force=False)
        (rd / "stale.txt").write_text("from an earlier run")
        assert cmd_run(cfg, tmp_path, seed=0, force=True) == rd
        assert sorted(f.name for f in rd.iterdir()) == [
            "config.json", "ledger.csv", "metrics.json", "trace.jsonl"]
        assert list(tmp_path.iterdir()) == [rd]

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
        phases = {r["phase"] for r in read_rows(rd / "ledger.csv")}
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
        rows = read_rows(path)
        assert len(rows) == 4
        assert [r["value"] for r in rows] == ["off", "off", "1.0", "1.0"]
        assert all(r["param"] == "gamma" for r in rows)
        assert all(r["error"] == "" for r in rows)
        assert all(float(r["accuracy"]) >= 0 for r in rows)
        assert all(int(r["bandwidth"]) > 0 for r in rows)

    def test_failing_cell_keeps_its_row(self, tmp_path):
        cfg = parse_dict(tiny_doc(sweep={"param": "K", "values": [2, 100000],
                                         "seeds": [0]}))
        rows = read_rows(cmd_ablate(cfg, tmp_path, force=False))
        assert len(rows) == 2
        assert rows[0]["error"] == "" and rows[0]["accuracy"] != ""
        assert rows[1]["error"] != "" and rows[1]["accuracy"] == ""

    def test_diverging_cell_records_the_typed_error(self, tmp_path):
        cfg = parse_dict(tiny_doc(node={"hidden_dims": [16], "epochs": 5, "lr_start": 50},
                                  sweep={"param": "S", "values": [50], "seeds": [0]}))
        path = cmd_ablate(cfg, tmp_path, force=False)
        rows = read_rows(path)
        assert rows[0]["error"].startswith("DivergenceError: distillation diverged")
        assert rows[0]["accuracy"] == ""

    def test_d0_sweep_needs_synthetic_task(self, tmp_path):
        doc = tiny_doc(sweep={"param": "d0", "values": [30], "seeds": [0]})
        doc["task"] = {"kind": "csv", "private": "x.csv", "public": "x.csv",
                       "test": "x.csv", "task_type": "single_label",
                       "num_classes": 2, "feature_cols": ["a"], "label_cols": ["y"]}
        cfg = parse_dict(doc)
        rows = read_rows(cmd_ablate(cfg, tmp_path, force=False))
        assert all("synthetic" in r["error"] for r in rows)

    def test_existing_csv_guarded(self, tmp_path):
        cfg = parse_dict(tiny_doc(sweep={"param": "S", "values": [50], "seeds": [0]}))
        (tmp_path / "ablation.csv").write_text("old")
        with pytest.raises(ConfigurationError):
            cmd_ablate(cfg, tmp_path, force=False)

    def test_without_sweep_section_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            cmd_ablate(parse_dict(tiny_doc()), tmp_path, force=False)

    def test_failure_while_writing_leaves_the_earlier_csv(self, tmp_path, monkeypatch, capsys):
        """A write that fails after a row is out leaves ``--out`` as it was:
        the earlier sweep's file byte for byte, and no temporary sibling."""
        p = write_config(tmp_path, tiny_doc(sweep={"param": "S", "values": [50],
                                                   "seeds": [0]}))
        out = tmp_path / "o"
        out.mkdir()
        (out / "ablation.csv").write_bytes(b"the earlier sweep's\n")

        class FailingWriter(csv.DictWriter):
            def writerows(self, rows):
                super().writerows(rows[:1])
                raise OSError("disk full")

        monkeypatch.setattr(csv, "DictWriter", FailingWriter)
        args = ["ablate", "--config", str(p), "--out", str(out), "--force"]
        assert main(args) == 3
        assert capsys.readouterr().err == "runtime error: disk full\n"
        assert [f.name for f in out.iterdir()] == ["ablation.csv"]
        assert (out / "ablation.csv").read_bytes() == b"the earlier sweep's\n"


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

    def test_a_forced_rerun_cut_before_its_last_delete_still_reports_one_run(
            self, tmp_path, monkeypatch, capsys):
        """--force moves the earlier run to a dot-named sibling and deletes it
        last; cut off before that delete, the sibling stays behind, and report
        reads only the run directory."""
        p = write_config(tmp_path, tiny_doc())
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        rmtree = shutil.rmtree

        def cut_at_the_old_run(path, *args, **kwargs):
            if Path(path).suffix == ".old":
                raise KeyboardInterrupt
            rmtree(path, *args, **kwargs)

        monkeypatch.setattr(fedkd.cli.shutil, "rmtree", cut_at_the_old_run)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(p), "--out", str(out), "--force"])
        monkeypatch.undo()
        (old,) = out.glob(".*.old")
        assert (old / "metrics.json").exists()
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        (row,) = capsys.readouterr().out.splitlines()[1:]
        assert row.split()[:2] == ["fedkd", "1"]

    def test_a_forced_rerun_whose_last_delete_fails_still_succeeds(
            self, tmp_path, monkeypatch, capsys):
        """Once the new run is in place the run has succeeded: a failed delete
        of the earlier run's dot-named sibling leaves it behind, and --force
        exits 0 with its "written to" line and nothing on stderr."""
        p = write_config(tmp_path, tiny_doc())
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        (rd,) = out.iterdir()
        rmtree = shutil.rmtree

        def refuse_the_old_run(path, *args, **kwargs):
            if Path(path).suffix == ".old":
                raise PermissionError(13, "Permission denied", str(path))
            rmtree(path, *args, **kwargs)

        monkeypatch.setattr(fedkd.cli.shutil, "rmtree", refuse_the_old_run)
        capsys.readouterr()
        assert main(["run", "--config", str(p), "--out", str(out), "--force"]) == 0
        monkeypatch.undo()
        stdout, stderr = capsys.readouterr()
        assert stdout.startswith(f"fedkd run written to {rd}\n") and stderr == ""
        assert (rd / "metrics.json").exists() and len(list(out.glob(".*.old"))) == 1
        assert main(["report", "--out", str(out)]) == 0
        (row,) = capsys.readouterr().out.splitlines()[1:]
        assert row.split()[:2] == ["fedkd", "1"]

    def test_empty_out_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            cmd_report(tmp_path)

    def test_runs_of_different_metrics_get_a_row_each(self, tmp_path, capsys):
        for name, metric, central in (("a", "accuracy", 0.9), ("b", "mean_auc", 0.7)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "metrics.json").write_text(json.dumps(
                {"algorithm": "fedkd", "metric": metric, "central": central,
                 "ledger": {"total_bytes": 1000}}))
        assert main(["report", "--out", str(tmp_path)]) == 0
        rows = [ln.split()[:4] for ln in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["fedkd", "1", "accuracy", "0.9000"], ["fedkd", "1", "mean_auc", "0.7000"]]


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

    def test_a_csv_task_is_the_schema_load_csv_reads(self, tmp_path):
        """CsvTask adds only its three files to CsvSchema, and its config keys
        are the schema's fields, so a config round-trips key for key."""
        doc = tiny_doc(task=write_csv_task(tmp_path))
        cfg = parse_dict(doc)
        assert isinstance(cfg.task, CsvSchema)
        assert (CsvTask.__dataclass_fields__.keys() - CsvSchema.__dataclass_fields__.keys()
                == {"private", "public", "test"})
        assert load_csv(cfg.task.public, cfg.task).n == 80
        assert config_to_dict(cfg)["task"] == doc["task"]

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

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        """A config path that is absent, or a directory, exits 2 on one line
        naming the path."""
        path = tmp_path / "cfg.json"
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: config file not found: {path}\n"
        path.mkdir()
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read config file {path}: Is a directory\n")

    def test_invalid_config_is_config_error(self, tmp_path):
        p = write_config(tmp_path, tiny_doc(alpha=0))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_collision_is_config_error(self, tmp_path):
        p = write_config(tmp_path, tiny_doc())
        out = str(tmp_path / "o")
        assert main(["run", "--config", str(p), "--out", out]) == 0
        assert main(["run", "--config", str(p), "--out", out]) == 2
        assert main(["run", "--config", str(p), "--out", out, "--force"]) == 0

    @staticmethod
    def _no_data(monkeypatch):
        def no_data(*args):
            raise AssertionError("a split was built")

        monkeypatch.setattr(fedkd.cli, "build_data", no_data)
        monkeypatch.setattr(fedkd.cli, "_split", no_data)

    @staticmethod
    def _files(root):  # every path under root, with a file's bytes
        return {f: f.is_file() and f.read_bytes() for f in root.rglob("*")}

    @pytest.mark.parametrize("case", ["file_at_run_dir", "out_is_a_file", "out_under_a_file",
                                      "fedavg_out_is_a_file", "ablate_out_is_a_file",
                                      "ablate_out_under_a_file", "directory_at_ablation_csv",
                                      "out_is_a_dangling_link"])
    def test_an_output_path_collision_exits_2_before_any_work(self, tmp_path, capsys,
                                                              monkeypatch, case):
        """A file where the run directory goes (under --force too), a file at
        --out or above it under every subcommand, a directory where
        ablation.csv goes (under --force too), and a link to nothing at --out,
        which no directory can be made through: each exits 2 on one line
        before any split is built, and nothing is written."""
        self._no_data(monkeypatch)
        doc = tiny_doc(sweep={"param": "S", "values": [50], "seeds": [0]})
        p, out = write_config(tmp_path, doc), tmp_path / "o"
        command, flags, blocker, err = "run", [], out, "is not a directory"
        if case.startswith(("fedavg", "ablate")):
            command = case.split("_")[0]
        if case == "file_at_run_dir":
            flags, blocker = ["--force"], out / f"fedkd-{config_digest(parse_dict(doc))[:12]}-s0"
        elif case.endswith("out_under_a_file"):
            out = out / "runs"
        elif case == "directory_at_ablation_csv":
            command, flags, blocker, err = "ablate", ["--force"], out / "ablation.csv", "is a directory"
        if blocker == out / "ablation.csv":
            blocker.mkdir(parents=True)
        elif case == "out_is_a_dangling_link":
            blocker.symlink_to(tmp_path / "nowhere")
        else:
            blocker.parent.mkdir(exist_ok=True)
            blocker.write_text("not a run")
        before = self._files(tmp_path)
        assert main([command, "--config", str(p), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"config error: {blocker} {err}\n"
        assert self._files(tmp_path) == before

    @pytest.mark.parametrize("command", ["run", "fedavg", "ablate"])
    def test_an_existing_output_without_force_is_one_exact_line(self, tmp_path, capsys,
                                                                monkeypatch, command):
        """A run directory, or ablation.csv, already in place and no --force:
        exit 2 with the one wording every subcommand shares, before any split
        is built, and the old output untouched."""
        self._no_data(monkeypatch)
        doc = tiny_doc(sweep={"param": "S", "values": [50], "seeds": [0]})
        p, out = write_config(tmp_path, doc), tmp_path / "o"
        if command == "ablate":
            (target := out / "ablation.csv").parent.mkdir()
            target.write_text("the earlier sweep")
        else:
            algorithm = "fedkd" if command == "run" else command
            (target := out / f"{algorithm}-{config_digest(parse_dict(doc))[:12]}-s0").mkdir(
                parents=True)
            (target / "metrics.json").write_text("the earlier run")
        before = self._files(tmp_path)
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {target} exists (use --force to overwrite)\n")
        assert self._files(tmp_path) == before

    def test_an_ablate_whose_batch_fails_leaves_no_out_directory(self, tmp_path, capsys,
                                                                 monkeypatch):
        """ablate makes --out only once its rows are ready to write."""
        def failing_batch(*args, **kwargs):
            raise MemoryError("no room for the batch")

        monkeypatch.setattr(fedkd.cli, "execute_fedkd_batch", failing_batch)
        p = write_config(tmp_path, tiny_doc(sweep={"param": "S", "values": [50], "seeds": [0]}))
        out = tmp_path / "o" / "sweep"
        assert main(["ablate", "--config", str(p), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "runtime error: no room for the batch\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("existed", [False, True], ids=["new_out", "existing_out"])
    @pytest.mark.parametrize("command", ["run", "fedavg", "ablate"])
    def test_a_failed_write_removes_only_the_directories_it_made(self, tmp_path, capsys,
                                                                 monkeypatch, command, existed):
        """A write that raises after all the work: an --out the call made, with
        the parents it made, is gone; an --out that existed stays, its contents
        untouched."""
        def fail(*args, **kwargs):
            raise OSError("disk full")

        if command == "ablate":
            monkeypatch.setattr(csv.DictWriter, "writerows", fail)
        else:
            monkeypatch.setattr(fedkd.cli, "_write_run_files", fail)
        p = write_config(tmp_path, tiny_doc(sweep={"param": "S", "values": [50], "seeds": [0]}))
        out = tmp_path / "new2" / "runs"
        if existed:
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("an earlier file")
        before = self._files(tmp_path)
        assert main([command, "--config", str(p), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "runtime error: disk full\n"
        assert self._files(tmp_path) == before

    @pytest.mark.parametrize("command, point, state", [
        (command, point, state) for command in ("run", "fedavg", "ablate")
        for point in ("write", "move_aside", "move_in")
        for state in ("new_out", "existing_out", "forced")
        if point != "move_aside" or state == "forced"])  # only --force has one to move aside
    def test_a_failed_publish_leaves_the_tree_as_it_was(self, tmp_path, capsys, monkeypatch,
                                                        command, point, state):
        """The write, the move of an earlier output aside, or the move of the
        new one into place fails: exit 3 on one line, and every file and
        directory under tmp_path as it was, whether the call made --out, found
        it, or found an earlier output it was told to --force over."""
        doc = tiny_doc(sweep={"param": "S", "values": [50], "seeds": [0]})
        p, out = write_config(tmp_path, doc), tmp_path / "new" / "runs"
        flags = ["--force"] * (state == "forced")
        if state != "new_out":
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("an earlier file")
        if state == "forced" and command == "ablate":
            (out / "ablation.csv").write_text("the earlier sweep\n")
        elif state == "forced":
            algorithm = "fedkd" if command == "run" else command
            (rd := out / f"{algorithm}-{config_digest(parse_dict(doc))[:12]}-s0").mkdir()
            (rd / "metrics.json").write_text("the earlier run")
        real_open, real_replace = Path.open, os.replace

        def open_failing(path, mode="r", *args, **kwargs):  # a run's ledger, after its config
            if "w" in mode and (path.name == "ledger.csv" or path.name.endswith(".tmp")):
                raise OSError("disk full")
            return real_open(path, mode, *args, **kwargs)

        def replace_failing(src, dst):  # the move in is the .tmp sibling's, a move back the .old's
            moved = {".tmp": "move_in", ".old": "move_back"}.get(Path(src).suffix, "move_aside")
            if moved == point:
                raise OSError("disk full")
            real_replace(src, dst)

        if point == "write":
            monkeypatch.setattr(Path, "open", open_failing)
        else:
            monkeypatch.setattr(os, "replace", replace_failing)
        before = self._files(tmp_path)
        assert main([command, "--config", str(p), "--out", str(out), *flags]) == 3
        assert capsys.readouterr().err == "runtime error: disk full\n"
        assert self._files(tmp_path) == before

    def test_seed_flag_overrides_config(self, tmp_path):
        p = write_config(tmp_path, tiny_doc(seed=0))
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out), "--seed", "7"]) == 0
        assert len(list(out.glob("fedkd-*-s7"))) == 1

    def test_ablate_takes_no_seed_flag(self, tmp_path, capsys):
        """ablate's seeds are sweep.seeds, so --seed is a usage error."""
        p = write_config(tmp_path, tiny_doc(sweep={"param": "S", "values": [50], "seeds": [0]}))
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--config", str(p), "--out", str(out), "--seed", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not out.exists()

    def test_report_with_no_runs_is_config_error(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("content", [
        b"{not json",
        b"{}",
        b"[]",
        b'{"central": "a", "ledger": {"total_bytes": 1}}',
        b'{"central": true, "ledger": {"total_bytes": 1}}',
        b'{"central": NaN, "ledger": {"total_bytes": 1}}',
        b'{"central": 0.5, "ledger": {"total_bytes": 1.5}}',
        b'{"central": 0.5, "ledger": {"total_bytes": 1' + b"0" * 400 + b"}}",
        b'{"central": 0.5, "ledger": {"total_bytes": 1}, "algorithm": [1]}',
        b"\xff\xfe{",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not_json", "empty", "array", "str_central", "bool_central", "nan_central",
            "float_bytes", "huge_bytes", "list_algorithm", "not_utf8", "too_deep"])
    def test_report_over_a_bad_metrics_file_is_a_one_line_format_error(self, tmp_path,
                                                                      capsys, content):
        path = tmp_path / "x" / "metrics.json"
        path.parent.mkdir()
        path.write_bytes(content)
        assert main(["report", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"runtime error: {path}: ")

    @pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000],
                             ids=["not_utf8", "too_deep"])
    def test_undecodable_config_is_a_one_line_config_error(self, tmp_path, capsys, content):
        p = tmp_path / "cfg.json"
        p.write_bytes(content)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: config is not valid JSON: ")

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
        ("csv_nan", "private.csv: row 3: features: non-finite entries"),
        ("cov_scale", "querying node 0: logits: non-finite entries"),
    ])
    def test_non_finite_data_is_a_one_line_runtime_error(self, tmp_path, capsys, case, message):
        if case == "csv_nan":
            doc = tiny_doc(num_nodes=2)
            doc["task"] = write_csv_task(tmp_path)
            private = Path(doc["task"]["private"])
            lines = private.read_text().splitlines()
            lines[3] = "nan," + lines[3].split(",", 1)[1]
            private.write_text("\n".join(lines) + "\n")
            message = f"{tmp_path / message}"  # load_csv names the file by its path
        else:
            # one SGD step on 1e300-scale features leaves finite but huge
            # weights, so the public query overflows
            doc = tiny_doc(num_nodes=2, node={"hidden_dims": [16], "epochs": 1,
                                              "batch_size": 1000})
            doc["task"]["cov_scale"] = 1e300
        p = write_config(tmp_path, doc)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"runtime error: {message}\n"

    @pytest.mark.parametrize("gamma, code, message", [
        (1e-310, 2, "config error: gamma 1e-310 is too small: its Laplace noise overflows "
                    "(in ensemble)"),
        (GAMMA_MIN, 3, "runtime error: distillation diverged on the central model: "
                       "non-finite parameters"),
    ], ids=["subnormal", "smallest_accepted"])
    def test_a_gamma_is_refused_exactly_where_its_noise_overflows(self, tmp_path, capsys,
                                                                  gamma, code, message):
        """A gamma whose Laplace noise can overflow, a subnormal one among them,
        is a config error naming it before any training. At the smallest
        gamma accepted every draw is finite, and the student diverges on the
        huge teacher."""
        p = write_config(tmp_path, tiny_doc(num_nodes=2, ensemble={"gamma": gamma}))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == message + "\n"

    @needs_openblas
    @pytest.mark.parametrize("over, code", [
        ({}, 0), ({"num_nodes": 0}, 2), ({"node": {"hidden_dims": [16], "lr_start": 50}}, 3)],
        ids=["exit_0", "exit_2", "exit_3"])
    def test_main_runs_on_one_blas_thread_and_restores_the_count(self, tmp_path, monkeypatch,
                                                                 over, code):
        """main runs its command with OpenBLAS on one thread, and leaves the
        count as it found it on exit 0, 2 and 3."""
        get, put = fedkd.numkit._openblas()
        before, seen, real = get(), [], fedkd.cli.parse_config
        monkeypatch.setattr(fedkd.cli, "parse_config", lambda path: seen.append(get()) or real(path))
        put(2)
        try:
            p = write_config(tmp_path, tiny_doc(**over))
            assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == code
            assert (seen, get()) == ([1], 2)
        finally:
            put(before)

    @staticmethod
    def csv_doc_with(tmp_path, split, value, row, **over):
        """tiny_doc on write_csv_task's CSVs, with ``value`` as the second
        feature of data row ``row`` of ``split``; returns (doc, that file)."""
        doc = tiny_doc(num_nodes=2, **over)
        doc["task"] = write_csv_task(tmp_path)
        path = Path(doc["task"][split])
        lines = path.read_text().splitlines()
        x0, _, rest = lines[row].split(",", 2)
        lines[row] = f"{x0},{value},{rest}"
        path.write_text("\n".join(lines) + "\n")
        return doc, path

    @pytest.mark.parametrize("command, split, value, row", [
        ("run", "public", "inf", 5), ("run", "test", "nan", 2), ("run", "test", "-inf", 40),
        ("fedavg", "test", "nan", 7)])
    def test_non_finite_csv_feature_fails_at_load(self, tmp_path, capsys, command, split,
                                                  value, row):
        """A NaN or infinite feature in any split exits 3 when the split is
        loaded (before training, or for fedavg's test split after the last
        round), with one line naming the file and its 1-based data row, and
        leaves no run directory."""
        doc, path = self.csv_doc_with(tmp_path, split, value, row)
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"runtime error: {path}: row {row}: features: non-finite entries\n")
        assert not out.exists()

    def test_non_finite_csv_feature_is_an_error_row_per_sweep_cell(self, tmp_path):
        doc, path = self.csv_doc_with(tmp_path, "public", "nan", 9,
                                      sweep={"param": "gamma", "values": [None, 1.0],
                                             "seeds": [0]})
        out = tmp_path / "o"
        assert main(["ablate", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 0
        rows = read_rows(out / "ablation.csv")
        assert [r["error"] for r in rows] == [
            f"ValidationError: {path}: row 9: features: non-finite entries"] * 2

    @pytest.mark.parametrize("over, message", [
        ({"distill": [1]}, "'distill' must be an object"),
        ({"num_nodes": "abc"}, "num_nodes: 'abc' is not an integer"),
        ({"task": {"kind": "synthetic", "num_classes": "4"}},
         "num_classes: '4' is not an integer (in task)"),
        ({"central_hidden_dims": 5}, "central_hidden_dims: 5 is not a list of integers"),
        ({"labeled_public": "no"}, "labeled_public: 'no' is not a bool"),
        ({"ensemble": {"gamma": "x"}}, "gamma: 'x' is not a real number (in ensemble)"),
        ({"distill": {"tau": [2]}}, "tau: [2] is not a real number (in distill)"),
        ({"task": {"kind": "synthetic", "class_sep": "x"}},
         "class_sep: 'x' is not a real number (in task)"),
        ({"sweep": {"param": "gamma", "values": 1.0, "seeds": [0]}},
         "values and seeds must be non-empty lists (in sweep)"),
        ({"task": {"kind": "csv", "feature_cols": "x", "label_cols": ["y"], "num_classes": 2,
                   "task_type": "single_label", "private": "a", "public": "b", "test": "c"}},
         "feature_cols: 'x' is not a list of strings (in task)"),
        ({"task": {"kind": "csv", "feature_cols": ["x"], "label_cols": ["y"], "num_classes": 2,
                   "task_type": "single_label", "private": 1, "public": "b", "test": "c"}},
         "private: 1 is not a string (in task)"),
    ], ids=["section", "num_nodes", "num_classes", "central_hidden_dims", "labeled_public",
            "gamma", "tau", "class_sep", "sweep_values", "feature_cols", "csv_path"])
    def test_wrong_typed_field_is_a_one_line_config_error(self, tmp_path, capsys, over, message):
        """The section's dataclass names the key, and the section as a suffix."""
        p = write_config(tmp_path, tiny_doc(**over))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_negative_seed_flag_is_config_error(self, tmp_path):
        p = write_config(tmp_path, tiny_doc())
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 2

    @pytest.mark.parametrize("command, over, flag, message", [
        ("run", {"seed": -1}, [], "seed must be >= 0"),
        ("ablate", {"sweep": {"param": "S", "values": [50], "seeds": [0, -1]}}, [],
         "seeds must be >= 0 (in sweep)"),
        ("run", {}, ["--seed", "-1"], "--seed must be >= 0"),
        ("fedavg", {}, ["--seed", "-1"], "--seed must be >= 0"),
    ], ids=["seed", "sweep.seeds", "run_flag", "fedavg_flag"])
    def test_negative_seed_is_one_config_error_line(self, tmp_path, capsys, command, over, flag,
                                                    message):
        """A negative seed, from the config, its sweep or the flag, exits 2 on
        one line naming its key (and the sweep's section), and writes nothing."""
        p = write_config(tmp_path, tiny_doc(**over))
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out), *flag]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"seed": 0, "seed": 5}', "repeated key 'seed'"),
        ('{"node": {"epochs": 5, "epochs": 6}}', "repeated key 'epochs'"),
    ], ids=["top_level", "in_node"])
    def test_a_repeated_key_is_one_config_error_line(self, tmp_path, capsys, text, message):
        """json.loads alone keeps the last of two equal keys; a config names
        the repeated key at any depth, exits 2 and writes nothing."""
        doc = json.dumps(tiny_doc())
        p = tmp_path / "cfg.json"
        p.write_text(doc[:-1] + ", " + text[1:-1] + "}")
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["array_root", "array_task", "zero_rounds",
                                      "headerless_csv"])
    def test_a_contract_branch_exits_on_one_line_and_writes_nothing(self, tmp_path, capsys,
                                                                     case):
        """A JSON array as the config or as its task, zero FedAvg rounds, and a
        CSV split with no header row (an empty file): each exits with its code
        on one exact stderr line and leaves no run directory."""
        command, doc = "run", tiny_doc()
        if case == "array_root":
            doc, code, err = [], 2, "config error: 'config' must be an object\n"
        elif case == "array_task":
            doc["task"], code, err = [], 2, "config error: 'task' must be an object\n"
        elif case == "zero_rounds":
            command, doc["rounds"] = "fedavg", 0
            code, err = 2, "config error: rounds must be >= 1\n"
        else:
            doc["task"] = write_csv_task(tmp_path)
            Path(doc["task"]["private"]).write_text("")
            code = 3
            err = f"runtime error: {doc['task']['private']}: empty file, expected a header row\n"
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        assert not out.exists()

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
    out = run_python("-m", "fedkd.cli", "run", "--config", write_config(tmp_path, doc),
                     "--out", tmp_path / "o")
    assert out.returncode == 3
    assert out.stderr == "runtime error: querying node 0: logits: non-finite entries\n"


@pytest.mark.parametrize("key, message", [
    ("task.class_sep", "task.class_sep 1e+308 makes the private features non-finite"),
    ("task.cov_scale", "task.cov_scale 1e+308 makes the private features non-finite"),
    ("query_noise", "querying node 0: query_noise 1e+308 makes the public features non-finite"),
])
def test_overflowing_value_prints_one_line_naming_it(tmp_path, key, message):
    """Outside pytest's warning capture, a value that overflows the features
    prints no numpy RuntimeWarning: run exits 3 on one line naming the split
    and the key, fedavg too where it reads the key, and an ablate exits 0
    with nothing on stderr and the line's text in its rows."""
    doc = tiny_doc(num_nodes=2)
    *section, field = key.split(".")
    (doc[section[0]] if section else doc)[field] = 1e308
    sweep = {"param": "gamma", "values": [None, 1.0], "seeds": [0, 1]}

    def cli(command, doc):
        return run_python("-m", "fedkd.cli", command, "--config",
                          write_config(tmp_path, doc, f"{command}.json"),
                          "--out", tmp_path / command)

    run = cli("run", doc)
    assert (run.returncode, run.stderr) == (3, f"runtime error: {message}\n")
    fedavg = cli("fedavg", doc)
    assert (fedavg.returncode, fedavg.stderr) == (
        (0, "") if key == "query_noise" else (3, f"runtime error: {message}\n"))
    ablate = cli("ablate", {**doc, "sweep": sweep})
    assert (ablate.returncode, ablate.stderr) == (0, "")
    rows = read_rows(tmp_path / "ablate" / "ablation.csv")
    assert [r["error"] for r in rows if r["seed"] == "0"] == [f"ValidationError: {message}"] * 2
    assert all(r["error"] for r in rows)  # at seed 1 the class means may stay finite


@pytest.mark.parametrize("over, message", [
    ({"task": {**tiny_doc()["task"], "class_sep": 1e308}},
     "node training diverged on node 1: non-finite parameters"),
    ({"query_noise": 1e280, "repeats": 2},
     "distillation diverged on the central model: non-finite parameters"),
])
def test_finite_but_huge_value_reaches_training(tmp_path, over, message):
    """A value too large for training but not for the features is not named
    by its key: at seed 1, class means of 1e308 stay finite and a node
    diverges, and a query noise of 1e280 averaged over two passes gives
    logits below 2**960 and the student diverges. run exits 3 with the one
    line the README gives, outside pytest's warning capture, and leaves no
    run directory."""
    doc = tiny_doc(seed=1, **over)
    out = run_python("-W", "error::RuntimeWarning", "-m", "fedkd.cli", "run",
                     "--config", write_config(tmp_path, doc), "--out", tmp_path / "o")
    assert (out.returncode, out.stderr) == (3, f"runtime error: {message}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line, message", [
    ("1.0,1.0,1e30", "row 3: label out of range [0, 2)"),
    ("1.0,1.0,0,9", "row 3: 4 fields, the header has 3"),
])
def test_a_bad_csv_row_prints_one_line_naming_it(tmp_path, line, message):
    """A label far past the int64 range casts with no numpy warning, and a row
    with an extra field is not cut to the header's width: under -W
    error::RuntimeWarning, run exits 3 on one line naming the file and row,
    and leaves no run directory."""
    doc = tiny_doc(num_nodes=2)
    doc["task"] = write_csv_task(tmp_path)
    path = Path(doc["task"]["private"])
    lines = path.read_text().splitlines()
    lines[3] = line
    path.write_text("\n".join(lines) + "\n")
    out = run_python("-W", "error::RuntimeWarning", "-m", "fedkd.cli", "run",
                     "--config", write_config(tmp_path, doc), "--out", tmp_path / "o")
    assert (out.returncode, out.stderr) == (3, f"runtime error: {path}: {message}\n")
    assert not (tmp_path / "o").exists()


def test_import_leaves_scipy_unloaded():
    """The package runs on numpy alone; a cold `import fedkd.cli` pulls in no
    scipy even where scipy is installed."""
    out = run_python("-c", "import fedkd.cli, sys; print('scipy' in sys.modules)")
    assert (out.returncode, out.stdout.strip()) == (0, "False"), out.stderr


@pytest.mark.parametrize("command", ["run", "fedavg", "ablate"])
def test_commands_leave_numpy_ma_unloaded(tmp_path, command):
    """No command imports numpy.ma (np.unique does, lazily): it costs every
    run about 1.25 MiB of RSS and a few ms."""
    doc = tiny_doc(sweep={"param": "gamma", "values": [None, 1.0], "seeds": [0]})
    script = ("import sys; from fedkd.cli import main; "
              "code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)")
    out = run_python("-c", script, command, "--config", write_config(tmp_path, doc),
                     "--out", tmp_path / "o")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"


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
    return read_rows(cmd_ablate(cfg, tmp_path, force=False))


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


# A value per sweep axis that its cell's parse rejects.
INVALID_VALUES = {"gamma": -1, "S": 1, "d0": 31, "alpha": 0, "K": 0, "R": 0}

# Two valid values per sweep axis, and the document field each sets by hand.
BATCH_EDITS = {
    "gamma": ([None, 0.5], [None, 0.5]),
    "S": ([50, None], [50, None]),
    "d0": ([60, 90], [20, 30]),  # |D0| over 3 classes
    "alpha": ([0.3, 1.0], [0.3, 1.0]),
    "K": ([2, 3], [2, 3]),
    "R": ([1, 2], [1, 2]),
}


GAMMA_1E320 = "gamma 1e-320 is too small: its Laplace noise overflows (in ensemble)"


class TestSweepBatch:
    """A sweep's cells, at every seed, run as one staged batch; every row and
    student is the one the cell's own run gives."""

    @pytest.mark.parametrize("loss", [LOGIT_L2, KL])
    @pytest.mark.parametrize("param", SWEEP_AXES)
    def test_rows_and_students_match_each_cells_own_run(self, tmp_path, param, loss):
        values, field_values = BATCH_EDITS[param]
        distill_doc = {"steps": 60, "batch_size": 32, "loss_mode": loss,
                       **({"tau": 2.0} if loss == KL else {})}
        cfg = parse_dict(tiny_doc(distill=distill_doc,
                                  sweep={"param": param, "values": values, "seeds": [0, 3]}))
        rows = read_rows(cmd_ablate(cfg, tmp_path, force=False))
        assert [(r["value"], r["seed"]) for r in rows] == [
            ("off" if v is None else str(v), s) for v in values for s in ("0", "3")]

        path = SWEEP_EDITS[param][1]
        cells = []
        for field_value in field_values:
            doc = tiny_doc(distill=distill_doc)
            target = doc
            for key in path[:-1]:
                target = target.setdefault(key, {})
            target[path[-1]] = field_value
            cells.append(parse_dict(doc))
        alone = {(v, seed): execute_fedkd(cell, seed)
                 for v, cell in enumerate(cells) for seed in (0, 3)}
        for row, ((v, seed), result) in zip(rows, alone.items()):
            assert row["error"] == ""
            assert row["accuracy"] == f"{result.metrics['central']:.6f}"
            assert int(row["bandwidth"]) == result.ledger.total()
        keys = [(v, seed) for seed in (0, 3) for v in range(len(cells))]
        batch = execute_fedkd_batch([(cells[v], seed) for v, seed in keys])
        for key, result in zip(keys, batch):
            assert bits(result.central_model) == bits(alone[key].central_model)
            assert result.trace == alone[key].trace

    @pytest.mark.parametrize("node_lr", [0.05, 1e300], ids=["healthy", "diverging_nodes"])
    @pytest.mark.parametrize("loss", [LOGIT_L2, KL])
    @pytest.mark.parametrize("param", SWEEP_AXES)
    def test_one_batch_writes_the_rows_of_per_seed_batches(self, tmp_path, param, loss,
                                                           node_lr):
        """ablation.csv of one batch over seeds 0 and 3 is byte for byte the
        rows of a one-seed ablate per seed, interleaved value by value; error
        rows included: an invalid value per axis, the gamma 1e-320 noise
        overflow and 1e-300 divergence, and, at node lr 1e300, node divergence."""
        values = [*BATCH_EDITS[param][0], INVALID_VALUES[param]]
        if param == "gamma":
            values += [1e-320, 1e-300]
        doc = tiny_doc(node={"hidden_dims": [16], "epochs": 5, "lr_start": node_lr},
                       distill={"steps": 60, "batch_size": 32, "loss_mode": loss,
                                **({"tau": 2.0} if loss == KL else {})})

        def ablate(seeds, out):
            cfg = parse_dict({**doc, "sweep": {"param": param, "values": values,
                                               "seeds": seeds}})
            return cmd_ablate(cfg, tmp_path / out, force=False)

        both = ablate([0, 3], "both")
        header, *rows = both.read_bytes().splitlines(True)
        per_seed = [ablate([seed], f"s{seed}").read_bytes().splitlines(True) for seed in (0, 3)]
        assert all(lines[0] == header for lines in per_seed)
        assert rows == [line for pair in zip(*(lines[1:] for lines in per_seed))
                        for line in pair]
        errors = [r["error"] for r in read_rows(both)]
        assert errors[4] == errors[5] and errors[4].startswith("ConfigurationError: ")
        if node_lr > 1:
            assert all(e.startswith("DivergenceError: node training") for e in errors[:4])
            return
        assert errors[:4] == [""] * 4
        if param == "gamma":
            assert errors[6:8] == [f"ConfigurationError: {GAMMA_1E320}"] * 2
            if loss == LOGIT_L2:
                assert all(e.startswith("DivergenceError: distillation") for e in errors[8:])

    @pytest.mark.parametrize("gamma, error", [
        (1e-300, "DivergenceError: distillation diverged on the central model: "
                 "non-finite parameters"),
        (1e-320, f"ConfigurationError: {GAMMA_1E320}"),
    ])
    def test_only_the_failing_cells_get_an_error_row(self, tmp_path, gamma, error):
        cfg = parse_dict(tiny_doc(sweep={"param": "gamma", "values": [None, gamma],
                                         "seeds": [0, 3]}))
        rows = read_rows(cmd_ablate(cfg, tmp_path, force=False))
        assert [r["error"] for r in rows] == ["", "", error, error]
        assert all(r["accuracy"] == r["bandwidth"] == "" for r in rows[2:])
        for row, seed in zip(rows[:2], (0, 3)):
            result = execute_fedkd(parse_dict(tiny_doc(ensemble={"gamma": None})), seed)
            assert row["accuracy"] == f"{result.metrics['central']:.6f}"
            assert int(row["bandwidth"]) == result.ledger.total()

    @staticmethod
    def distill_calls_of_gamma_sweep(tmp_path, monkeypatch, values):
        """[stacked students, call returned] per distill call of a logit_l2
        gamma sweep of ``values`` at seeds 0 and 3, after checking that every
        row is its cell's own run's, and that only ``values[2]`` fails, with
        its own run's error text."""
        calls = []
        real = fedkd.protocol.distill

        def recording(models, *args, **kwargs):
            calls.append([len(models), False])
            out = real(models, *args, **kwargs)
            calls[-1][1] = True
            return out

        monkeypatch.setattr(fedkd.protocol, "distill", recording)
        cfg = parse_dict(tiny_doc(sweep={"param": "gamma", "values": values, "seeds": [0, 3]}))
        rows = read_rows(cmd_ablate(cfg, tmp_path, force=False))
        monkeypatch.setattr(fedkd.protocol, "distill", real)

        failed = []
        for row, (value, seed) in zip(rows, [(v, s) for v in values for s in (0, 3)]):
            try:
                result = execute_fedkd(parse_dict(tiny_doc(ensemble={"gamma": value})), seed)
            except Exception as exc:  # the failing cell: its own run's error text
                assert row["error"] == f"{type(exc).__name__}: {exc}"
                assert row["accuracy"] == row["bandwidth"] == ""
                failed.append(value)
                continue
            assert row["error"] == ""
            assert row["accuracy"] == f"{result.metrics['central']:.6f}"
            assert int(row["bandwidth"]) == result.ledger.total()
        assert failed == [values[2]] * 2
        return calls

    def test_a_diverging_student_fails_inside_the_one_stack(self, tmp_path, monkeypatch):
        """The gamma 1e-300 cell diverges in the sweep's one stacked
        distillation of all ten students; the call returns, with that cell's
        student as its error and the eight healthy students as their own."""
        calls = self.distill_calls_of_gamma_sweep(tmp_path, monkeypatch,
                                                  [None, 1.0, 1e-300, 2.0, 0.5])
        assert calls == [[10, True]]

    def test_a_rejected_teacher_leaves_the_distill_stack_whole(self, tmp_path, monkeypatch):
        """The gamma 1e-320 cell's ensemble config is refused, as its noise
        would overflow the teacher, so the eight healthy students of both
        seeds distill in one call that returns."""
        calls = self.distill_calls_of_gamma_sweep(tmp_path, monkeypatch,
                                                  [None, 1.0, 1e-320, 2.0, 0.5])
        assert calls == [[8, True]]

    @staticmethod
    def count_stacked_calls(monkeypatch):
        """(name, stacked jobs) per train_lockstep and distill call, from here on."""
        calls = []
        for name in ("train_lockstep", "distill"):
            def counting(models, *args, _real=getattr(fedkd.protocol, name), _name=name,
                         **kwargs):
                calls.append((_name, len(models)))
                return _real(models, *args, **kwargs)
            monkeypatch.setattr(fedkd.protocol, name, counting)
        return calls

    def test_a_healthy_sweep_trains_and_distills_once(self, tmp_path, monkeypatch):
        """Three gamma values at two seeds: one train_lockstep call for all
        eighteen nodes and one distill call for all six students."""
        calls = self.count_stacked_calls(monkeypatch)
        cfg = parse_dict(tiny_doc(sweep={"param": "gamma", "values": [None, 1.0, 0.5],
                                         "seeds": [0, 1]}))
        rows = read_rows(cmd_ablate(cfg, tmp_path, force=False))
        assert len(rows) == 6 and all(r["error"] == "" for r in rows)
        assert calls == [("train_lockstep", 18), ("distill", 6)]

    def test_a_failing_sweep_trains_and_distills_once(self, tmp_path, monkeypatch):
        """Three gamma values at two seeds with a logit_l2 gamma 1e-300 cell,
        whose students diverge: still one train_lockstep call for all
        eighteen nodes and one distill call for all six students, and
        ablation.csv is byte for byte the rows of each cell's own run."""
        calls = self.count_stacked_calls(monkeypatch)
        values = [None, 1e-300, 1.0]
        cfg = parse_dict(tiny_doc(sweep={"param": "gamma", "values": values, "seeds": [0, 1]}))
        written = cmd_ablate(cfg, tmp_path / "sweep", force=False).read_bytes()
        assert calls == [("train_lockstep", 18), ("distill", 6)]
        monkeypatch.undo()

        def row(value, seed):
            head = ["gamma", "off" if value is None else value, seed]
            try:
                result = execute_fedkd(parse_dict(tiny_doc(ensemble={"gamma": value})), seed)
            except Exception as exc:
                return [*head, "", "", f"{type(exc).__name__}: {exc}"]
            return [*head, f"{result.metrics['central']:.6f}", result.ledger.total(), ""]

        text = io.StringIO(newline="")
        out = csv.writer(text)
        out.writerow(["param", "value", "seed", "accuracy", "bandwidth", "error"])
        out.writerows(row(v, seed) for v in values for seed in (0, 1))
        assert written == text.getvalue().encode()
        assert written.count(b"DivergenceError: distillation diverged on the central model") == 2

    @pytest.mark.parametrize("loss", [LOGIT_L2, KL])
    def test_run_trace_is_the_per_step_chain(self, tmp_path, loss):
        """A paper_run-style run (per-class weights, S = 200, gamma = 1) writes
        the trace.jsonl of the per-step oracle fed its own teacher."""
        distill_doc = {"steps": 60, "batch_size": 32, "loss_mode": loss,
                       **({"tau": 2.0} if loss == KL else {})}
        cfg = parse_dict(tiny_doc(distill=distill_doc))
        rd = cmd_run(cfg, tmp_path, seed=0, force=False)
        result = execute_fedkd(cfg, 0)
        public = build_data(cfg, 0)[1]
        student = init_mlp([8, 64, 3], RandomStream(0, (fedkd.protocol.STREAM_DISTILL_INIT,)))
        ref, ref_trace = reference_distill(
            student, public.features, result.teacher_logits, cfg.distill,
            RandomStream(0, (fedkd.protocol.STREAM_DISTILL_BATCH,)), public.task)
        assert bits(ref) == bits(result.central_model)
        assert (rd / "trace.jsonl").read_text() == "".join(
            json.dumps(rec, sort_keys=True) + "\n" for rec in ref_trace)


class TestSweepStages:
    """Each sweep value is parsed once for its seeds, the data once per
    distinct task, node count, alpha and seed, and every outcome reaches the
    row of its own (value, seed) cell."""

    @pytest.mark.parametrize("param, values, builds", [
        ("d0", [60, 90], 4),  # each value its own public set, at each seed
        ("gamma", [None, 0.5, 1.0], 2),  # the same data for every value of a seed
    ])
    def test_one_data_build_per_distinct_task_nodes_alpha_and_seed(self, tmp_path, monkeypatch,
                                                                    param, values, builds):
        calls = []

        def counting(cfg, seed, _real=build_data):
            calls.append((cfg.task, cfg.num_nodes, cfg.alpha, seed))
            return _real(cfg, seed)

        monkeypatch.setattr(fedkd.cli, "build_data", counting)
        cfg = parse_dict(tiny_doc(sweep={"param": param, "values": values, "seeds": [0, 3]}))
        rows = read_rows(cmd_ablate(cfg, tmp_path, force=False))
        assert len(rows) == 2 * len(values) and all(r["error"] == "" for r in rows)
        assert len(calls) == builds
        assert all(calls.count(c) == 1 for c in calls)

    def test_each_invalid_value_fails_only_its_own_rows(self, tmp_path):
        cfg = parse_dict(tiny_doc(sweep={"param": "K", "values": [0, 2, 0], "seeds": [0, 3]}))
        rows = read_rows(cmd_ablate(cfg, tmp_path, force=False))
        assert [(r["value"], r["seed"]) for r in rows] == [
            (v, s) for v in ("0", "2", "0") for s in ("0", "3")]
        for row in rows[:2] + rows[4:]:
            assert row["error"] == "ConfigurationError: num_nodes must be >= 1"
            assert row["accuracy"] == row["bandwidth"] == ""
        for row, seed in zip(rows[2:4], (0, 3)):
            result = execute_fedkd(parse_dict(tiny_doc(num_nodes=2)), seed)
            assert row["error"] == ""
            assert row["accuracy"] == f"{result.metrics['central']:.6f}"
            assert int(row["bandwidth"]) == result.ledger.total()

    def test_values_that_compare_equal_are_parsed_apart(self, tmp_path):
        """1 == 1.0 == true in Python, but true is no node count."""
        cfg = parse_dict(tiny_doc(sweep={"param": "K", "values": [1, True, 1.0],
                                         "seeds": [0]}))
        rows = read_rows(cmd_ablate(cfg, tmp_path, force=False))
        assert [r["error"] for r in rows] == [
            "", "ConfigurationError: num_nodes: True is not an integer", ""]
        result = execute_fedkd(parse_dict(tiny_doc(num_nodes=1)), 0)
        for row in (rows[0], rows[2]):
            assert row["accuracy"] == f"{result.metrics['central']:.6f}"
            assert int(row["bandwidth"]) == result.ledger.total()

    def test_a_cell_given_as_an_exception_comes_back_as_itself(self):
        failed = ConfigurationError("from an earlier stage")
        cfg = parse_dict(tiny_doc())
        result, passed = execute_fedkd_batch([(cfg, 0), failed])
        assert passed is failed
        assert bits(result.central_model) == bits(execute_fedkd(cfg, 0).central_model)


class TestSweepKeepsNoTrace:
    """ablate writes no trace, so its distillations compute no per-step loss;
    run still writes one record per step."""

    @pytest.mark.parametrize("loss, multi", [(LOGIT_L2, False), (KL, False), (KL, True)])
    def test_ablate_computes_no_distillation_loss(self, tmp_path, monkeypatch, loss, multi):
        calls = []
        for name in ("_distill_losses", "_kl_terms", "_safe_log"):
            def counting(*args, _real=getattr(DISTILL_MODULE, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(DISTILL_MODULE, name, counting)
        doc = tiny_doc(num_nodes=2, distill={"steps": 60, "batch_size": 32, "loss_mode": loss,
                                             **({"tau": 2.0} if loss == KL else {})})
        if multi:
            doc["task"] = write_csv_task(tmp_path, multi=True)
        sweep = {"param": "gamma", "values": [None, 1.0], "seeds": [0, 1]}
        rows = read_rows(
            cmd_ablate(parse_dict({**doc, "sweep": sweep}), tmp_path / "sweep", force=False))
        assert len(rows) == 4 and all(r["error"] == "" for r in rows)
        assert calls == []

        rd = cmd_run(parse_dict(doc), tmp_path / "runs", seed=0, force=False)
        assert calls.count("_distill_losses") == 60
        assert len((rd / "trace.jsonl").read_text().splitlines()) == 60


class TestFedavgData:
    def test_fedavg_reads_no_public_csv(self, tmp_path):
        """fedavg runs without the public split: its CSV may be gone, and the
        result is run_fedavg's on build_data's splits."""
        doc = tiny_doc(num_nodes=2)
        doc["task"] = write_csv_task(tmp_path)
        cfg = parse_dict(doc)
        private, _, test, plan = build_data(cfg, 0)
        expected = run_fedavg(private, plan, cfg.node, cfg.rounds, 0)
        Path(doc["task"]["public"]).unlink()
        rd = cmd_fedavg(cfg, tmp_path / "out", seed=0, force=False)
        metrics = json.loads((rd / "metrics.json").read_text())
        assert metrics["central"] == _central_metrics(expected.model, test)["central"]
        assert metrics["ledger"]["total_bytes"] == expected.ledger.total()

    def test_synthetic_fedavg_keeps_its_bits(self):
        cfg = parse_dict(tiny_doc())
        for seed in (0, 3):
            private, _, test, plan = build_data(cfg, seed)
            expected = run_fedavg(private, plan, cfg.node, cfg.rounds, seed)
            result = fedkd.cli.execute_fedavg(cfg, seed)
            assert bits(result.model) == bits(expected.model)
            assert result.metrics == {**expected.metrics,
                                      **_central_metrics(expected.model, test)}


class TestSplitLifetimes:
    """Each split is freed after its last reader, whatever still runs after it."""

    def test_fedavg_evaluates_without_the_private_split(self, monkeypatch):
        """The private split is dead when the global model is evaluated, and
        the test split is built only after the last round."""
        events, refs, alive = [], {}, []
        real_split = fedkd.cli._split
        real_lockstep, real_evaluate = fedkd.protocol.train_lockstep, fedkd.protocol._evaluate

        def split(cfg, seed, name):
            ds = real_split(cfg, seed, name)
            refs[name] = weakref.ref(ds)
            events.append(name)
            return ds

        def lockstep(*args, **kwargs):
            events.append("round")
            return real_lockstep(*args, **kwargs)

        def evaluate(*args):
            events.append("evaluate")
            alive.append(refs["private"]() is not None)
            return real_evaluate(*args)

        monkeypatch.setattr(fedkd.cli, "_split", split)
        monkeypatch.setattr(fedkd.protocol, "train_lockstep", lockstep)
        monkeypatch.setattr(fedkd.protocol, "_evaluate", evaluate)
        fedkd.cli.execute_fedavg(parse_dict(tiny_doc(rounds=3)), 0)
        assert events == ["private", "round", "round", "round", "test", "evaluate"]
        assert alive == [False]

    @pytest.mark.parametrize("seeds", [[0], [0, 1]])
    def test_run_queries_without_the_private_split(self, monkeypatch, seeds):
        """Every cell's private split is dead when the first node is queried,
        in a run and in a batch of seeds as ablate makes; the public and test
        splits, which later stages read, are alive."""
        refs, alive = [], []
        real_build, real_collect = fedkd.cli.build_data, fedkd.protocol.collect_logits

        def build(*args):
            data = real_build(*args)
            refs.extend(weakref.ref(ds) for ds in data[:3])
            return data

        def collect(*args, **kwargs):
            alive.append([r() is not None for r in refs])
            return real_collect(*args, **kwargs)

        monkeypatch.setattr(fedkd.cli, "build_data", build)
        monkeypatch.setattr(fedkd.protocol, "collect_logits", collect)
        cfg = parse_dict(tiny_doc())
        results = execute_fedkd_batch([(cfg, seed) for seed in seeds])
        assert not any(isinstance(r, Exception) for r in results)
        assert alive == [[False, True, True] * len(seeds)] * len(seeds)


class TestDistillTask:
    def test_not_a_config_key(self):
        with pytest.raises(ConfigurationError, match="unknown key 'task' in distill"):
            parse_dict(tiny_doc(distill={"task": "multi_label"}))
        assert "task" not in config_to_dict(parse_dict(tiny_doc()))["distill"]

    def test_follows_the_csv_task_type(self, tmp_path):
        """A library run_fedkd distills a multi-label task through the
        multi-label KL loss without being told the label type, so its student
        is bit-identical to the CLI's; the single-label loss gives another."""
        doc = tiny_doc(num_nodes=2, distill={"steps": 60, "batch_size": 32,
                                             "loss_mode": "kl", "tau": 2.0})
        doc["task"] = write_csv_task(tmp_path, multi=True)
        cfg = parse_dict(doc)
        cli_student = execute_fedkd(cfg, 0).central_model
        private, public, test, plan = build_data(cfg, 0)
        distill_cfg = DistillConfig(steps=60, batch_size=32, loss_mode=KL, tau=2.0)
        run = FedKdRun(TrainConfig([16], epochs=5), distill=distill_cfg)
        result = run_fedkd(private, public, test, plan, run, 0)
        assert bits(result.central_model) == bits(cli_student)

        student = init_mlp([2, 64, 2], RandomStream(0, (fedkd.protocol.STREAM_DISTILL_INIT,)))
        single, _ = distill(student, public.features, result.teacher_logits, distill_cfg,
                            RandomStream(0, (fedkd.protocol.STREAM_DISTILL_BATCH,)))
        assert bits(single) != bits(cli_student)


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
        ({"node": {"hidden_dims": [16], "epochs": 5, "weight_decay": -0.5}},
         2, "config error: weight_decay must be >= 0 (in node)"),
        ({"distill": {"steps": 60, "batch_size": 32, "weight_decay": -0.5}},
         2, "config error: weight_decay must be >= 0 (in distill)"),
    ])
    def test_one_line_exit_and_no_directory(self, tmp_path, capsys, over, code, message):
        p = write_config(tmp_path, tiny_doc(**over))
        out = tmp_path / "o"
        assert main(["run", "--config", str(p), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(message)
        assert not out.exists()

    # numpy refuses these sizes with a ValueError before it allocates anything
    @pytest.mark.parametrize("command, key, value", [
        ("run", "task.num_classes", 10**18),
        ("run", "task.public_per_class", 10**18),
        ("run", "task.test_per_class", 10**18),
        ("run", "task.train_per_class", 2**62),
        ("run", "node.hidden_dims", [10**18]),
        ("run", "central_hidden_dims", [10**18]),
        ("fedavg", "task.num_classes", 10**18),
        ("fedavg", "task.test_per_class", 10**18),
        ("fedavg", "task.train_per_class", 2**62),
        ("fedavg", "node.hidden_dims", [10**18]),
    ])
    def test_a_size_past_numpys_limit_is_a_one_line_runtime_error(self, tmp_path, capsys,
                                                                   command, key, value):
        doc = tiny_doc()
        *section, name = key.split(".")
        (doc[section[0]] if section else doc)[name] = value
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(("runtime error: array is too big",
                               "runtime error: Maximum allowed dimension exceeded"))
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        ("run", "node.epochs"),
        ("run", "distill.steps"),
        ("fedavg", "node.epochs"),
    ])
    def test_a_step_count_no_rate_table_holds_is_a_one_line_runtime_error(self, tmp_path, capsys,
                                                                          command, key):
        """1e300 is an integral number, so the config takes it as a step
        count; its rate table is allocated in one call, which fails at once,
        instead of growing until memory runs out."""
        doc = tiny_doc()
        section, name = key.split(".")
        doc[section][name] = 1e300
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.fullmatch(r"runtime error: no rate table holds \d{301,} steps: "
                            r"Maximum allowed dimension exceeded\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("value", [1e300, 2**63, 2**64, 10**30],
                             ids=["1e300", "2**63", "2**64", "10**30"])
    @pytest.mark.parametrize("command, key", [("fedavg", "rounds"), ("run", "repeats")])
    def test_a_count_float64_cannot_hold_is_a_one_line_config_error(self, tmp_path, capsys,
                                                                     command, key, value):
        """A count of rounds or query passes at or above 2**53 would loop
        until killed: the config rejects it by name, before any work."""
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, tiny_doc(**{key: value}))),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {key} must be < 2**53\n"
        assert not out.exists()

    def test_a_repeats_sweep_value_float64_cannot_hold_is_its_own_error_row(self, tmp_path):
        cfg = parse_dict(tiny_doc(sweep={"param": "R", "values": [1e300, 1], "seeds": [0]}))
        big, one = read_rows(cmd_ablate(cfg, tmp_path, force=False))
        assert (big["value"], big["error"]) == ("1e+300",
                                                "ConfigurationError: repeats must be < 2**53")
        assert big["accuracy"] == big["bandwidth"] == ""
        result = execute_fedkd(parse_dict(tiny_doc()), 0)
        assert (one["error"], one["accuracy"]) == ("", f"{result.metrics['central']:.6f}")

    def test_a_student_that_cannot_be_built_fails_before_any_training(self, tmp_path, capsys,
                                                                      monkeypatch):
        calls = []
        for name in ("train_lockstep", "collect_logits"):
            def counting(*args, _real=getattr(fedkd.protocol, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(fedkd.protocol, name, counting)
        p = write_config(tmp_path, tiny_doc(central_hidden_dims=[10**18]))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("runtime error: array is too big")
        assert calls == []

    def test_a_distill_batch_past_the_public_set_fails_before_any_training(self, tmp_path,
                                                                           capsys, monkeypatch):
        """A CSV task's public size is known only once its file is read: the
        batch is checked where each cell's student is built, so no node
        trains and no node is queried."""
        calls = []
        for name in ("train_lockstep", "collect_logits"):
            def counting(*args, _real=getattr(fedkd.protocol, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(fedkd.protocol, name, counting)
        doc = tiny_doc(task=write_csv_task(tmp_path), distill={"steps": 60, "batch_size": 64})
        public = Path(doc["task"]["public"])
        public.write_text("".join(public.read_text().splitlines(keepends=True)[:31]))
        assert main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: batch_size 64 exceeds public set size 30\n")
        assert calls == []


def test_every_ledger_row_bills_the_nbytes_of_the_array_sent(tmp_path, monkeypatch):
    """ledger.csv, row by row, against the arrays caught on their way out: a
    run with two query repeats bills each node's logit block once per repeat
    and its max-abs scalar, and a fedavg bills the model sent down and the
    model sent up, per node and round."""
    blocks, rounds = [], []

    class Block(fedkd.protocol.LogitBlock):
        def __post_init__(self):
            super().__post_init__()
            blocks.append(self)

    lockstep = fedkd.protocol.train_lockstep

    def train(models, *args, **kwargs):
        trained = lockstep(models, *args, **kwargs)
        rounds.append(list(zip(models, trained)))
        return trained

    monkeypatch.setattr(fedkd.protocol, "LogitBlock", Block)
    monkeypatch.setattr(fedkd.protocol, "train_lockstep", train)

    def ledger(rd):
        return [(phase, int(node), int(nbytes)) for phase, node, nbytes
                in list(csv.reader((rd / "ledger.csv").read_text().splitlines()))[1:]]

    cfg = parse_dict(tiny_doc(repeats=2))
    rows = ledger(cmd_run(cfg, tmp_path, seed=0, force=False))
    assert len(blocks) == 3
    assert rows == ([("logits_up", b.node_id, 2 * b.logits.nbytes) for b in blocks]
                    + [("scalar_max_up", b.node_id, np.float64(b.local_max_abs).nbytes)
                       for b in blocks])

    rounds.clear()
    rows = ledger(cmd_fedavg(cfg, tmp_path, seed=0, force=False))
    assert len(rounds) == cfg.rounds == 2
    assert [(phase, nbytes) for phase, _, nbytes in rows] == [
        frame for sent in rounds for down, up in sent
        for frame in (("params_down", down.flat.nbytes), ("params_up", up.flat.nbytes))]


def owner_distill(batch_size, rows, dims):
    """distill of a ``dims`` student on ``rows`` public rows."""
    return distill(init_mlp(dims, RandomStream(0, (1,))), np.zeros((rows, dims[0])),
                   np.zeros((rows, dims[-1])), DistillConfig(batch_size=batch_size),
                   RandomStream(0, (2,)))


def owner_partition(num_nodes, alpha):
    ds = Dataset(np.zeros((4, 1)), np.zeros((4, 1)), "single_label", 2)
    return dirichlet_partition(ds, num_nodes, alpha, RandomStream(0, (1,)))


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
            "config error: batch_size 121 exceeds public set size 120\n")
        assert no_training == []

    @pytest.mark.parametrize("command", ["run", "fedavg", "ablate"])
    def test_negative_cov_scale_exits_2_before_training(self, tmp_path, capsys, no_training,
                                                        command):
        doc = tiny_doc(sweep={"param": "gamma", "values": [None], "seeds": [0]})
        doc["task"]["cov_scale"] = -1.0
        p = write_config(tmp_path, doc)
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: cov_scale must be >= 0 (in task)\n"
        assert no_training == []

    @pytest.mark.parametrize("command", ["run", "fedavg", "ablate"])
    def test_a_csv_task_with_no_classes_exits_2_before_training(self, tmp_path, capsys,
                                                                no_training, command):
        doc = tiny_doc(sweep={"param": "gamma", "values": [None], "seeds": [0]})
        doc["task"] = {**write_csv_task(tmp_path, multi=True), "num_classes": 0,
                       "label_cols": []}
        p = write_config(tmp_path, doc)
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: num_classes must be >= 1 (in task)\n"
        assert no_training == []

    @pytest.mark.parametrize("command", ["run", "fedavg", "ablate"])
    @pytest.mark.parametrize("multi, over, message", [
        (False, {"label_cols": ["y", "y"]},
         "single-label schema needs exactly one label column (in task)"),
        (True, {"num_classes": 3}, "multi-label schema needs one label column per class (in task)"),
    ], ids=["single_label", "multi_label"])
    def test_a_csv_schema_error_exits_2_before_training(self, tmp_path, capsys, no_training,
                                                        command, multi, over, message):
        doc = tiny_doc(sweep={"param": "gamma", "values": [None], "seeds": [0]})
        doc["task"] = {**write_csv_task(tmp_path, multi=multi), **over}
        p = write_config(tmp_path, doc)
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert no_training == []
        assert not (tmp_path / "o").exists()

    def test_too_small_d0_cell_gets_its_error_row_without_training(self, tmp_path, no_training):
        (row,) = _ablate_rows(tmp_path, "d0", 30)  # 30 public rows, distill batches of 32
        assert row["error"] == (
            "ConfigurationError: batch_size 32 exceeds public set size 30")
        assert no_training == []

    @pytest.mark.parametrize("section, over, message", [
        ("node", {"node": {"hidden_dims": [16], "lr_start": 0.01, "lr_end": 0.05}},
         "require lr_start >= lr_end >= 0, got lr_start=0.01 and lr_end=0.05"),
        ("node", {"node": {"batch_size": 0}}, "batch_size must be >= 1"),
        ("distill", {"distill": {"steps": 0}}, "steps must be >= 1"),
        ("distill", {"distill": {"loss_mode": "kl"}}, "kl loss needs a finite tau"),
        ("ensemble", {"ensemble": {"quant_scale": 1}}, "quant_scale must be >= 2"),
        ("task", {"task": {**CSV_DOC["task"], "task_type": "weird"}},
         "unknown task_type 'weird'"),
        ("task", {"task": {**CSV_DOC["task"], "task_type": "multi_label", "num_classes": 0,
                           "label_cols": []}}, "num_classes must be >= 1"),
        ("task", {"task": {"kind": "synthetic", "dim": 0}}, "dim must be >= 1"),
        ("sweep", {"sweep": {"param": "beta", "values": [1.0], "seeds": [0]}},
         f"param must be one of {SWEEP_AXES}"),
    ], ids=["node_rates", "node_batch", "distill_steps", "distill_tau", "ensemble_scale",
            "csv_task_type", "csv_num_classes", "synthetic_dim", "sweep_param"])
    def test_constructor_errors_name_their_section(self, section, over, message):
        """A section's own check gives its message with the section appended;
        a CSV task's checks are its CsvSchema's, made at parse time."""
        with pytest.raises(ConfigurationError) as exc:
            parse_dict(tiny_doc(**over))
        assert str(exc.value) == f"{message} (in {section})"

    @pytest.mark.parametrize("over, csv_task, owner", [
        ({"num_nodes": 0}, None, lambda: owner_partition(0, 1.0)),
        ({"alpha": 0.0}, None, lambda: owner_partition(2, 0.0)),
        ({"repeats": 0}, None, lambda: FedKdRun(repeats=0)),
        ({"query_noise": -0.5}, None, lambda: FedKdRun(query_noise=-0.5)),
        ({"central_hidden_dims": [0]}, None, lambda: FedKdRun(central_hidden_dims=[0])),
        ({"distill": {"steps": 60, "batch_size": 121}}, None,
         lambda: owner_distill(121, 120, [8, 16, 3])),
        ({"distill": {"steps": 60, "batch_size": 81}}, {},
         lambda: owner_distill(81, 80, [2, 16, 2])),
    ], ids=["num_nodes", "alpha", "repeats", "query_noise", "central_hidden_dims",
            "synthetic_batch", "csv_batch"])
    def test_the_cli_prints_its_owners_message(self, tmp_path, capsys, no_training, over,
                                               csv_task, owner):
        """Each fact the CLI and the library both check has one raise site,
        so the CLI's config error is the owner's own error. A bad non-swept
        key makes ``ablate`` exit 2 with no ablation.csv, except a CSV batch:
        its public set is checked once it is read, which fails only rows."""
        with pytest.raises(ConfigurationError) as exc:
            owner()
        doc = tiny_doc(**over)
        if csv_task is not None:
            doc["task"] = {**write_csv_task(tmp_path), **csv_task}
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {exc.value}\n"
        if csv_task != {}:  # every case but the CSV batch
            doc["sweep"] = {"param": "gamma", "values": [None], "seeds": [0]}
            assert main(["ablate", "--config", str(write_config(tmp_path, doc)),
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"config error: {exc.value}\n"
            assert not (out / "ablation.csv").exists()
        assert no_training == []


def one_feature_task(tmp_path, splits):
    """A single-label CSV task of one feature ``x`` and two classes, each
    split written from its (x, y) rows."""
    task = {"kind": "csv", "task_type": "single_label", "num_classes": 2,
            "feature_cols": ["x"], "label_cols": ["y"]}
    for split, rows in splits.items():
        path = tmp_path / f"{split}.csv"
        path.write_text("x,y\n" + "".join(f"{x!r},{y}\n" for x, y in rows))
        task[split] = str(path)
    return task


LINEAR_PRIVATE = [(0.5, 0), (0.6, 1), (0.4, 0), (0.7, 1)]


def test_overflowing_model_evaluation_is_a_one_line_runtime_error(tmp_path, capsys):
    """Found by the fuzz below: a node trained at lr 1e200 stays finite and
    answers below 2**960, so the student distilled from it stays finite
    too, but its test logits overflow."""
    doc = tiny_doc(num_nodes=1, node={"hidden_dims": [], "epochs": 1, "batch_size": 1,
                                      "lr_start": 1e200},
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
    """A node trained at lr 1e250 answers the all-zero public rows with its
    bias, below 2**960, so the query and distillation pass, but its logits
    on the far-out test rows overflow: the one stderr line says which model
    it was."""
    task = one_feature_task(tmp_path, {"private": [(1.0, 0)], "public": [(0.0, 0), (0.0, 1)],
                                       "test": [(1e100, 0), (1e100, 1)]})
    doc = tiny_doc(task=task, num_nodes=1, central_hidden_dims=[],
                   node={"hidden_dims": [], "epochs": 1, "batch_size": 1, "lr_start": 1e250},
                   distill={"steps": 1, "batch_size": 1},
                   ensemble={"quant_scale": None, "gamma": None})
    p = write_config(tmp_path, doc)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "runtime error: evaluating node 0: non-finite model logits on the evaluation set\n")
    assert not (tmp_path / "o").exists()


def test_uniform_ensemble_near_the_range_limit_runs(tmp_path, capsys):
    """Two linear nodes answer the public rows at 1e288 with logits near the
    range rule's 2**960; the uniform ensemble sums and averages them to a
    finite teacher with no numpy warning, so the run succeeds."""
    task = one_feature_task(tmp_path, {"private": LINEAR_PRIVATE,
                                       "public": [(1e288, 0), (-1e288, 1)],
                                       "test": [(0.5, 0), (0.6, 1)]})
    doc = tiny_doc(task=task, num_nodes=2, alpha=100.0, seed=0, central_hidden_dims=[],
                   node={"hidden_dims": [], "epochs": 1, "batch_size": 1, "lr_start": 0.0},
                   distill={"steps": 1, "batch_size": 1, "lr_start": 0.0, "loss_mode": "kl",
                            "tau": 1.0},
                   ensemble={"quant_scale": None, "gamma": None, "weight_mode": "uniform"})
    cfg = parse_dict(doc)
    result = execute_fedkd(cfg, 0)
    assert len(result.handles) == 2 and all(h.model is not None for h in result.handles)
    public = np.array([[1e288], [-1e288]])
    z = [mlp_forward(h.model, public) for h in result.handles]
    assert 2.0**955 < max(np.abs(z[0]).max(), np.abs(z[1]).max()) < 2.0**960
    assert np.array_equal(result.teacher_logits, (z[0] + z[1]) / 2)
    p = write_config(tmp_path, doc)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_overflowing_public_query_names_the_node(tmp_path, capsys):
    """A node trained at lr 1e300 keeps finite parameters, but its logits on
    the public set overflow: the one stderr line says which node it was."""
    doc = tiny_doc(num_nodes=1, node={"hidden_dims": [3], "epochs": 1, "batch_size": 1,
                                      "lr_start": 1e300},
                   distill={"steps": 1, "batch_size": 1}, seed=0)
    doc["task"].update(num_classes=2, dim=2, train_per_class=1, test_per_class=1,
                       public_per_class=1)
    p = write_config(tmp_path, doc)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "runtime error: querying node 0: logits: non-finite entries\n")


def test_quantizing_near_the_range_limit_prints_one_stderr_line(tmp_path, capsys):
    """A node trained at lr 1e288 answers with logits just below 2**960, and
    S is the largest the rule accepts, so S*z_max is near 2**1013; the
    teacher is still quantized to finite values without a numpy warning, so
    the run fails on one line, in distillation."""
    doc = tiny_doc(num_nodes=1, node={"hidden_dims": [], "epochs": 5, "lr_start": 1e288},
                   ensemble={"quant_scale": 2**53 - 1, "gamma": 1.0})
    p = write_config(tmp_path, doc)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "runtime error: distillation diverged on the central model: non-finite parameters\n")


SCALE_RULE = "quant_scale must be < 2**53"
LOGIT_RULE = "logits: max |z| must be < 2**960"


class TestRangeRule:
    """Inputs past the range rule (logits below 2**960, S below 2**53), each
    run in a fresh interpreter outside pytest's warning filters, so a numpy
    warning would reach stderr: the exit code the CLI contract gives, one
    stderr line, and no run directory."""

    @staticmethod
    def cli(tmp_path, command, doc):
        return run_python("-m", "fedkd.cli", command, "--config", write_config(tmp_path, doc),
                          "--out", tmp_path / "o")

    def test_a_scale_of_2_53_is_a_config_error_in_its_section(self, tmp_path):
        out = self.cli(tmp_path, "run", tiny_doc(ensemble={"quant_scale": 2**53}))
        assert (out.returncode, out.stderr) == (2, f"config error: {SCALE_RULE} (in ensemble)\n")
        assert not (tmp_path / "o").exists()

    def test_an_s_sweep_value_of_2_53_is_its_own_error_row(self, tmp_path):
        doc = tiny_doc(sweep={"param": "S", "values": [2**53, 50], "seeds": [0]})
        out = self.cli(tmp_path, "ablate", doc)
        assert (out.returncode, out.stderr) == (0, "")
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["ablation.csv"]
        big, fifty = read_rows(tmp_path / "o" / "ablation.csv")
        assert (big["error"], big["accuracy"], big["bandwidth"]) == (
            f"ConfigurationError: {SCALE_RULE} (in ensemble)", "", "")
        assert fifty["error"] == ""

    @pytest.mark.parametrize("case", ["linear_csv", "readme_query_noise"])
    def test_logits_reaching_2_960_are_a_runtime_error_naming_the_node(self, tmp_path, case):
        """A linear node answers public rows at 1e300 with logits past the
        rule; so does a node queried with the README's noise of 1e300, whose
        mean over two passes is finite, at seed 1."""
        if case == "linear_csv":
            task = one_feature_task(tmp_path, {"private": LINEAR_PRIVATE,
                                               "public": [(1e300, 0), (-1e300, 1)],
                                               "test": [(0.5, 0), (0.6, 1)]})
            doc = tiny_doc(task=task, num_nodes=1, central_hidden_dims=[],
                           node={"hidden_dims": [], "epochs": 1, "batch_size": 1,
                                 "lr_start": 0.0},
                           distill={"steps": 1, "batch_size": 1})
        else:
            doc = tiny_doc(seed=1, query_noise=1e300, repeats=2)
        out = self.cli(tmp_path, "run", doc)
        assert (out.returncode, out.stderr) == (
            3, f"runtime error: querying node 0: {LOGIT_RULE}\n")
        assert not (tmp_path / "o").exists()


# One field set out of its range: each is a config error (exit 2) or, for
# values that only blow up numerically, a runtime error (exit 3).
OUT_OF_RANGE = [
    (("num_nodes",), 0), (("alpha",), 0.0), (("seed",), -1), (("repeats",), 0),
    (("query_noise",), -0.5), (("rounds",), 0), (("rounds",), 2**63), (("repeats",), 10**30),
    (("central_hidden_dims",), [0]),
    (("task", "num_classes"), 1), (("task", "dim"), 0), (("task", "train_per_class"), 0),
    (("task", "public_per_class"), 0), (("task", "cov_scale"), 1e300),
    (("node", "epochs"), 0), (("node", "batch_size"), 0), (("node", "lr_end"), 1.0),
    (("node", "lr_start"), 1e300), (("node", "hidden_dims"), [0]),
    (("ensemble", "quant_scale"), 1), (("ensemble", "quant_scale"), 2**53),
    (("ensemble", "gamma"), 0.0),
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
