"""Spans around the calls into each fedkd module, recorded from outside the
program, and the per-layer metrics derived from them.

`Tracer.install` replaces a public function with a timing wrapper in every
fedkd module that holds a reference to it, so a call is seen wherever the
caller looks the name up (``protocol.mlp_forward`` and ``distill.mlp_forward``
as well as ``numkit.mlp_forward``).  Spans stay in memory until `write`.

Flops and bytes moved are computed from layer dims and row counts; there is
no hardware counter behind them.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from workloads import param_count

# (module, function) -> span name.  A function is wrapped at every binding.
SPANNED = {
    ("cli", "main"): "cli.main",
    ("datasets", "gen_gaussian_task"): "datasets.build",
    ("datasets", "load_csv"): "datasets.build",
    ("datasets", "dirichlet_partition"): "datasets.build",
    ("datasets", "profile"): "datasets.build",
    ("datasets", "profile_of"): "datasets.build",
    ("numkit", "mlp_forward"): "numkit.forward",
    ("numkit", "mlp_backward"): "numkit.backward",
    ("numkit", "sgd_step"): "numkit.sgd_step",
    ("protocol", "train_supervised"): "protocol.train",
    ("protocol", "softmax_xent_grad"): "protocol.xent_grad",
    ("protocol", "masked_bce_grad"): "protocol.xent_grad",
    ("protocol", "collect_logits"): "protocol.query",
    ("protocol", "run_fedkd"): "protocol.run_fedkd",
    ("protocol", "run_fedavg"): "protocol.run_fedavg",
    ("ensemble", "ensemble"): "ensemble.aggregate",
    ("ensemble", "quantize_array"): "ensemble.quantize",
    ("ensemble", "laplace_sample"): "ensemble.laplace",
    ("distill", "distill"): "distill.distill",
    ("distill", "distill_loss_grad"): "distill.loss_grad",
    ("distill", "evaluate_single"): "distill.eval",
    ("distill", "evaluate_multi"): "distill.eval",
}
MODULES = ("cli", "datasets", "numkit", "protocol", "ensemble", "distill")


def _model_rows(args):
    """(layer dims, batch rows) of an mlp_forward / mlp_backward call."""
    return args[0].layer_dims, len(args[1])


def _ensemble_cells(args):
    blocks = args[0]
    return len(blocks) * blocks[0].logits.size if blocks else 0


# span name -> function of the call's arguments giving the span's attribute
ATTRS = {
    "numkit.forward": _model_rows,
    "numkit.backward": _model_rows,
    "numkit.sgd_step": lambda args: args[0].layer_dims,
    "ensemble.aggregate": _ensemble_cells,
}


class Tracer:
    """Records (name, start, end, parent, run id, attribute) per call."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []
        self.ledger_frames = 0
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        attr_of = ATTRS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attr = attr_of(args) if attr_of else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id, attr)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every SPANNED function at every fedkd binding, and count
        ledger frames.  ``modules`` is ``sys.modules``."""
        mods = [modules[f"fedkd.{m}"] for m in MODULES]
        wrappers = {}
        for (mod, fn_name), span in SPANNED.items():
            fn = getattr(modules[f"fedkd.{mod}"], fn_name)
            wrappers[id(fn)] = self._wrap(span, fn)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

        ledger_cls = modules["fedkd.protocol"].BandwidthLedger
        add = ledger_cls.add

        def counted_add(ledger, *args, **kwargs):
            self.ledger_frames += 1
            return add(ledger, *args, **kwargs)

        self._patched.append((ledger_cls, "add", add))
        ledger_cls.add = counted_add

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        doc = {"run_id": self.run_id, "ledger_frames": self.ledger_frames,
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# derivation


def _forward_cost(dims, rows):
    """Flops and bytes of one forward pass: matmul, bias add, ReLU."""
    flops = nbytes = 0
    last = len(dims) - 2
    for i, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
        flops += 2 * rows * fi * fo + rows * fo
        nbytes += 8 * (rows * fi + fi * fo + fo + rows * fo)
        if i != last:
            flops += rows * fo
            nbytes += 16 * rows * fo
    return flops, nbytes


def _backward_cost(dims, rows):
    """mlp_backward re-runs the forward pass, then per layer the weight and
    bias gradients and, below the top layer, the masked delta."""
    flops, nbytes = _forward_cost(dims, rows)
    for i, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
        flops += 2 * rows * fi * fo + rows * fo
        nbytes += 8 * (rows * fi + 2 * rows * fo + fi * fo + fo)
        if i > 0:
            flops += 2 * rows * fi * fo + rows * fi
            nbytes += 8 * (rows * fo + fi * fo + 2 * rows * fi)
    return flops, nbytes


def _sgd_cost(dims):
    """w - lr * (g + wd * w) on every parameter: 4 flops, 2 reads, 1 write."""
    params = param_count(dims)
    return 4 * params, 24 * params


def layer_metrics(doc: dict) -> dict:
    """Per-layer totals, self times and counts from one child's spans.

    Self time is a span's duration minus the time its direct child spans
    cover; spans of one thread nest, so children never overlap.
    """
    spans = doc["spans"]
    dur = [(s[2] - s[1]) / 1e9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    total = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        self_t[s[0]] += dur[i] - child[i]
        calls[s[0]] += 1

    fwd_rows = query_rows = distill_steps = 0
    flops = nbytes = 0
    cells = 0
    for s in spans:
        name, attr = s[0], s[5]
        parent = spans[s[3]][0] if s[3] >= 0 else None
        if name == "numkit.forward":
            fwd_rows += attr[1]
            if parent == "protocol.query":
                query_rows += attr[1]
            f, b = _forward_cost(*attr)
        elif name == "numkit.backward":
            f, b = _backward_cost(*attr)
        elif name == "numkit.sgd_step":
            if parent == "distill.distill":
                distill_steps += 1
            f, b = _sgd_cost(attr)
        elif name == "ensemble.aggregate":
            cells += attr
            continue
        else:
            continue
        flops += f
        nbytes += b

    steps = calls["numkit.sgd_step"]
    loop_s = total["protocol.train"] + total["distill.distill"]
    return {
        "cli.self_s": self_t["cli.main"],
        "datasets.build_s": total["datasets.build"],
        "datasets.build_calls": calls["datasets.build"],
        "numkit.forward_s": total["numkit.forward"],
        "numkit.forward_calls": calls["numkit.forward"],
        "numkit.forward_rows": fwd_rows,
        "numkit.backward_s": total["numkit.backward"],
        "numkit.backward_calls": calls["numkit.backward"],
        "numkit.sgd_step_s": total["numkit.sgd_step"],
        "numkit.sgd_steps": steps,
        "numkit.us_per_step": 1e6 * loop_s / steps if steps else 0.0,
        "numkit.gflop_computed": flops / 1e9,
        "numkit.mb_moved_computed": nbytes / 2**20,
        "protocol.train_s": total["protocol.train"],
        "protocol.train_self_s": self_t["protocol.train"],
        "protocol.train_calls": calls["protocol.train"],
        "protocol.xent_grad_s": total["protocol.xent_grad"],
        "protocol.query_s": total["protocol.query"],
        "protocol.query_rows": query_rows,
        "protocol.fedavg_self_s": self_t["protocol.run_fedavg"],
        "protocol.ledger_frames": doc["ledger_frames"],
        "ensemble.aggregate_s": total["ensemble.aggregate"],
        "ensemble.quantize_s": total["ensemble.quantize"],
        "ensemble.laplace_s": total["ensemble.laplace"],
        "ensemble.cells": cells,
        "distill.distill_s": total["distill.distill"],
        "distill.self_s": self_t["distill.distill"],
        "distill.steps": distill_steps,
        "distill.loss_grad_s": total["distill.loss_grad"],
        "distill.eval_s": total["distill.eval"],
        "distill.eval_calls": calls["distill.eval"],
    }
