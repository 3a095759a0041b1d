"""Cost ledger, local training, logit collection, and the three full runs."""
import dataclasses
import importlib
import pkgutil
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedkd.numkit
import fedkd.protocol

from fedkd.datasets import (
    Dataset,
    GaussianTaskSpec,
    MULTI_LABEL,
    PartitionPlan,
    SINGLE_LABEL,
    dirichlet_partition,
    gen_gaussian_task,
    profile_of,
)
from fedkd.distill import DistillConfig, evaluate_single, softmax_tau
from fedkd.ensemble import EnsembleConfig, UNIFORM, importance_weights
from fedkd.errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    FedKdError,
    RangeError,
    ValidationError,
)
from fedkd.numkit import (
    CosineSchedule,
    MlpModel,
    RandomStream,
    cosine_lr,
    init_mlp,
    mlp_backward,
    mlp_forward,
)
from fedkd.protocol import (
    _stage,
    _train_cells,
    _xent_dlogits,
    BandwidthLedger,
    FedKdRun,
    NodeHandle,
    TrainConfig,
    collect_logits,
    ledger_report,
    masked_bce_grad,
    param_payload_bytes,
    run_fedavg,
    run_fedkd,
    softmax_xent_grad,
    train_lockstep,
    train_supervised,
)

from conftest import mixed, run_centralized, same_bits, subset


# ---------------------------------------------------------------------------
# shared synthetic fixture: 4 well-separated Gaussians in 16-d


def make_fixture(seed=0, nodes=5, alpha=1.0):
    rs = RandomStream(seed, (900,))
    means = 4.0 * rs.gauss((4, 16)) / np.sqrt(16)
    train = gen_gaussian_task(
        GaussianTaskSpec(4, 16, 300, means, 1.0, np.zeros(16)), RandomStream(seed, (901,))
    )
    test = gen_gaussian_task(
        GaussianTaskSpec(4, 16, 250, means, 1.0, np.zeros(16)), RandomStream(seed, (902,))
    )
    public = gen_gaussian_task(
        GaussianTaskSpec(4, 16, 300, means, 1.0, np.full(16, 1.0 / 16.0)),
        RandomStream(seed, (903,)),
    )
    plan = dirichlet_partition(train, nodes, alpha, RandomStream(seed, (904,)))
    return train, test, public, plan


NODE_CFG = TrainConfig([32], epochs=30, batch_size=32, lr_start=0.05)


def whole_plan(ds):
    return PartitionPlan([np.arange(ds.n)], 1.0)


def base_run(plan, seed=0, **overrides):
    kw = dict(
        plan=plan,
        node_cfg=NODE_CFG,
        ensemble_cfg=EnsembleConfig(),
        distill_cfg=DistillConfig(steps=300, batch_size=64, lr_start=0.05),
        central_hidden_dims=[32],
        seed=seed,
    )
    kw.update(overrides)
    return FedKdRun(**kw)


def params_equal(a: MlpModel, b: MlpModel) -> bool:
    return all(
        np.array_equal(x, y)
        for x, y in zip(a.weights + a.biases, b.weights + b.biases)
    )


# ---------------------------------------------------------------------------
# ledger


class TestLedger:
    def test_totals_by_phase(self):
        led = BandwidthLedger()
        led.add("logits_up", 0, 100)
        led.add("logits_up", 1, 50)
        led.add("scalar_max_up", 0, 8)
        assert led.total() == 158
        assert led.total("logits_up") == 150
        assert led.phase_totals()["scalar_max_up"] == 8
        assert led.phase_totals()["params_up"] == 0
        assert ("logits_up", 1, 50) in led.rows()

    def test_unknown_phase_rejected(self):
        with pytest.raises(ConfigurationError):
            BandwidthLedger().add("carrier_pigeon", 0, 1)

    def test_negative_bytes_rejected(self):
        with pytest.raises(RangeError):
            BandwidthLedger().add("logits_up", 0, -1)

    def test_report_empty(self):
        rep = ledger_report(BandwidthLedger())
        assert rep["total_bytes"] == 0
        assert rep["total_gb_decimal"] == 0.0
        assert rep["total_gib_binary"] == 0.0

    def test_report_unit_conversions(self):
        led = BandwidthLedger()
        led.add("params_up", 0, 2 * 10**9)
        rep = ledger_report(led)
        assert rep["total_bytes"] == 2 * 10**9
        assert rep["total_gb_decimal"] == pytest.approx(2.0)
        assert rep["total_gib_binary"] == pytest.approx(2e9 / 2**30)
        assert rep["per_phase"]["params_up"] == 2 * 10**9

    def test_published_fedavg_point(self):
        # 100 rounds, 20 nodes, 1,812,500 parameters, 8 B each, both ways
        led = BandwidthLedger()
        for _ in range(100):
            for k in range(20):
                led.add("params_down", k, 8 * 1_812_500)
                led.add("params_up", k, 8 * 1_812_500)
        assert led.total() == 100 * 20 * 2 * 8 * 1_812_500 == 58_000_000_000
        assert ledger_report(led)["total_gb_decimal"] == 58.0


# ---------------------------------------------------------------------------
# supervised losses


def old_xent_dlogits(p, labels):
    """_xent_dlogits with the fancy-index subtraction it had before."""
    cells = p.reshape(-1, p.shape[-1])
    cells[np.arange(cells.shape[0]), labels.ravel()] -= 1.0
    p /= p.shape[-2]
    return p


class TestXentGradientBits:
    """The gathered one-hot subtraction gives the bits of the fancy-index one."""

    @settings(max_examples=60, deadline=None)
    @given(lead=st.sampled_from([(), (1,), (4,), (20,)]), rows=st.integers(1, 40),
           classes=st.integers(1, 12), seed=st.integers(0, 2**20))
    def test_stacked(self, lead, rows, classes, seed):
        p = mixed(seed, (*lead, rows, classes))
        labels = np.random.default_rng(seed).integers(0, classes, (*lead, rows))
        with np.errstate(all="ignore"):
            assert same_bits(_xent_dlogits(p.copy(), labels), old_xent_dlogits(p.copy(), labels))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 40), classes=st.integers(1, 12), seed=st.integers(0, 2**20))
    def test_through_softmax_xent_grad(self, rows, classes, seed):
        z = mixed(seed, (rows, classes))
        labels = np.random.default_rng(seed).integers(0, classes, rows)
        with np.errstate(all="ignore"):
            _, grad = softmax_xent_grad(z, labels)
            want = old_xent_dlogits(softmax_tau(z, 1.0), labels)
        assert same_bits(grad, want)


class TestSupervisedLosses:
    def test_xent_hand_value(self):
        loss, grad = softmax_xent_grad(np.array([[0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(np.log(2), rel=1e-12)
        np.testing.assert_allclose(grad, [[-0.5, 0.5]], rtol=1e-12)

    def test_xent_finite_differences(self):
        rs = RandomStream(0, (60,))
        z = rs.gauss((3, 4))
        y = np.array([1, 0, 3])
        _, grad = softmax_xent_grad(z, y)
        h = 1e-6
        for idx in [(0, 1), (2, 3), (1, 0)]:
            zp, zm = z.copy(), z.copy()
            zp[idx] += h
            zm[idx] -= h
            fd = (softmax_xent_grad(zp, y)[0] - softmax_xent_grad(zm, y)[0]) / (2 * h)
            assert abs(fd - grad[idx]) <= 1e-6

    def test_bce_hand_value(self):
        loss, grad = masked_bce_grad(np.array([[0.0]]), np.array([[1]]))
        assert loss == pytest.approx(np.log(2), rel=1e-12)
        np.testing.assert_allclose(grad, [[-0.5]], rtol=1e-12)

    def test_bce_masks_unknown_cells(self):
        loss_m, grad_m = masked_bce_grad(np.array([[3.0, 0.0]]), np.array([[-1, 1]]))
        loss_r, grad_r = masked_bce_grad(np.array([[0.0]]), np.array([[1]]))
        assert grad_m[0, 0] == 0.0
        assert loss_m == pytest.approx(loss_r)


# ---------------------------------------------------------------------------
# local training


class TestTrainLocals:
    def test_every_node_fits_its_own_shard(self):
        train, _, _, plan = make_fixture()
        handles = _train_cells([(train, plan.assignments)], NODE_CFG, [0])[0]
        for h in handles:
            if h.model is not None:
                assert evaluate_single(h.model, subset(train, h.rows)) >= 0.90

    def test_empty_shard_yields_no_model(self):
        train, _, _, _ = make_fixture()
        handles = _train_cells([(train, [np.arange(0), np.arange(50)])], NODE_CFG, [0])[0]
        assert handles[0].model is None
        assert handles[1].model is not None

    def test_default_streams_differ_per_node(self):
        train, _, _, _ = make_fixture()
        shard = np.arange(200)
        handles = _train_cells([(train, [shard, shard])], NODE_CFG, [0])[0]
        assert not params_equal(handles[0].model, handles[1].model)


# ---------------------------------------------------------------------------
# logit collection


class TestCollectLogits:
    def make_handles(self, k, seed=3):
        model = init_mlp([16, 8, 4], RandomStream(seed, (905,)))
        return [NodeHandle(i, np.arange(0), model) for i in range(k)]

    def test_bandwidth_is_nodes_times_matrix_bytes(self):
        handles = self.make_handles(10)
        x = np.zeros((5000, 16))
        led = BandwidthLedger()
        collect_logits(handles, x, ledger=led)
        assert led.total("logits_up") == 10 * 5000 * 4 * 8 == 1_600_000

    def test_query_counter_tracks_rows_served(self):
        handles = self.make_handles(2)
        x = np.zeros((123, 16))
        collect_logits(handles, x, repeats=4, noise_scale=0.5, seed=1)
        assert [h.query_rows for h in handles] == [4 * 123, 4 * 123]

    def test_two_noiseless_passes_equal_one(self):
        handles = self.make_handles(1)
        x = RandomStream(4, (906,)).gauss((50, 16))
        one = collect_logits(self.make_handles(1), x, repeats=1)[0].logits
        two = collect_logits(handles, x, repeats=2)[0].logits
        assert np.array_equal(one, two)

    def test_repeat_averaging_shrinks_query_noise(self):
        x = RandomStream(4, (906,)).gauss((200, 16))
        clean = mlp_forward(self.make_handles(1)[0].model, x)
        single = collect_logits(self.make_handles(1), x, repeats=1, noise_scale=0.1, seed=9)[0].logits
        avg = collect_logits(self.make_handles(1), x, repeats=50, noise_scale=0.1, seed=9)[0].logits
        assert ((avg - clean) ** 2).mean() <= ((single - clean) ** 2).mean() / 10

    def test_repeats_bill_proportionally(self):
        led = BandwidthLedger()
        collect_logits(self.make_handles(3), np.zeros((10, 16)), repeats=5,
                       noise_scale=0.1, ledger=led)
        assert led.total("logits_up") == 3 * 5 * 10 * 4 * 8

    def test_invalid_repeats(self):
        with pytest.raises(ConfigurationError):
            collect_logits(self.make_handles(1), np.zeros((4, 16)), repeats=0)

    def test_public_matrix_is_checked_once(self, monkeypatch):
        calls = []
        for mod in (fedkd.protocol, fedkd.numkit):
            real = mod.check_matrix
            monkeypatch.setattr(mod, "check_matrix",
                                lambda a, *args, real=real: calls.append(1) or real(a, *args))
        blocks = collect_logits(self.make_handles(3), np.zeros((10, 16)))
        assert len(blocks) == 3 and len(calls) == 1

    def test_public_width_must_match_every_model(self):
        with pytest.raises(DimensionError, match="expected 16 columns, got 8"):
            collect_logits(self.make_handles(2), np.zeros((10, 8)))


# ---------------------------------------------------------------------------
# full aggregation run


class TestRunFedkd:
    def test_single_node_matches_centralized_training_exactly(self):
        train, test, public, _ = make_fixture()
        run = base_run(whole_plan(train))
        res = run_fedkd(run, train, public, test)
        central_model, _ = run_centralized(train, test, NODE_CFG, 0)
        assert params_equal(res.handles[0].model, central_model)

    def test_single_teacher_student_agreement(self):
        train, test, public, _ = make_fixture()
        run = base_run(
            whole_plan(train),
            ensemble_cfg=EnsembleConfig(quant_scale=None, gamma=None),
            distill_cfg=DistillConfig(steps=1500, batch_size=64, lr_start=0.05),
        )
        res = run_fedkd(run, train, public, test)
        student = mlp_forward(res.central_model, public.features).argmax(1)
        assert (student == res.teacher_logits.argmax(1)).mean() >= 0.95

    @pytest.mark.parametrize("labeled_public", [False, True])
    def test_a_dataset_with_no_classes_is_a_typed_error(self, labeled_public):
        rs = RandomStream(0, (905,))
        train, public, test = (Dataset(rs.gauss((n, 3)), np.zeros((n, 0)), MULTI_LABEL, 0)
                               for n in (40, 40, 20))
        plan = dirichlet_partition(train, 2, 1.0, RandomStream(0, (904,)))
        run = base_run(plan, labeled_public=labeled_public,
                       distill_cfg=DistillConfig(steps=5, batch_size=8))
        with pytest.raises(FedKdError):
            run_fedkd(run, train, public, test)

    @pytest.mark.parametrize("algorithm", ["fedkd", "fedavg"])
    def test_a_dataset_with_no_classes_fails_before_training(self, monkeypatch, algorithm):
        """The zero-width output layer is rejected as the first model is
        built, so no node ever trains."""
        rs = RandomStream(0, (905,))
        train, public, test = (Dataset(rs.gauss((n, 2)), np.zeros((n, 0)), MULTI_LABEL, 0)
                               for n in (40, 40, 20))
        plan = dirichlet_partition(train, 2, 1.0, RandomStream(0, (904,)))
        calls = []

        def counting(*args, _real=train_lockstep, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(fedkd.protocol, "train_lockstep", counting)
        node_cfg = TrainConfig([4], epochs=1)
        with pytest.raises(DimensionError) as exc:
            if algorithm == "fedkd":
                run_fedkd(base_run(plan, node_cfg=node_cfg), train, public, test)
            else:
                run_fedavg(train, plan, node_cfg, rounds=2, seed=0)
        assert str(exc.value) == "need input and output dims, each >= 1, got [2, 4, 0]"
        assert calls == []

    def test_ledger_has_one_scalar_and_one_matrix_per_node(self):
        train, test, public, plan = make_fixture()
        res = run_fedkd(base_run(plan), train, public, test)
        rows = res.ledger.rows()
        active = [h.node_id for h in res.handles if h.model is not None]
        for k in active:
            assert rows.count(("scalar_max_up", k, 8)) == 1
            assert rows.count(("logits_up", k, public.n * 4 * 8)) == 1
        assert len(rows) == 2 * len(active)

    def test_ledger_ignores_distillation_length(self):
        train, test, public, plan = make_fixture()
        short = run_fedkd(base_run(plan, distill_cfg=DistillConfig(steps=50, batch_size=64)),
                          train, public, test)
        long = run_fedkd(base_run(plan, distill_cfg=DistillConfig(steps=200, batch_size=64)),
                         train, public, test)
        assert short.ledger.rows() == long.ledger.rows()
        assert short.metrics["query_rows"] == long.metrics["query_rows"]

    def test_empty_shard_reported_as_none(self):
        train, test, public, _ = make_fixture()
        plan = PartitionPlan(
            [np.arange(600), np.array([], dtype=int), np.arange(600, train.n)], 1.0
        )
        res = run_fedkd(base_run(plan), train, public, test)
        assert res.metrics["standalone"][1] is None
        assert {r[1] for r in res.ledger.rows()} == {0, 2}

    def test_uniform_mode_skips_weight_table(self):
        train, test, public, plan = make_fixture()
        res = run_fedkd(base_run(plan, ensemble_cfg=EnsembleConfig(weight_mode=UNIFORM)),
                        train, public, test)
        assert res.weights is None

    def test_metrics_shape(self):
        train, test, public, plan = make_fixture()
        res = run_fedkd(base_run(plan), train, public, test)
        m = res.metrics
        assert m["metric"] == "accuracy"
        assert 0.0 <= m["central"] <= 1.0
        assert m["num_nodes"] == 5
        assert m["public_rows"] == public.n
        assert m["packed_logits_bytes"] < res.ledger.total("logits_up")

    def test_labeled_public_joins_training_shards(self):
        train, test, public, plan = make_fixture()
        res = run_fedkd(base_run(plan, labeled_public=True), train, public, test)
        for h in res.handles:
            assert len(h.rows) >= public.n
        # weights now count the shared rows, so every class column is defined
        assert np.isfinite(res.weights.omega).all()

    def test_logit_blocks_are_freed_before_distillation(self, monkeypatch):
        train, test, public, plan = make_fixture()
        refs, alive = [], []
        real_collect, real_distill = fedkd.protocol.collect_logits, fedkd.protocol.distill

        def collect(*args, **kwargs):
            blocks = real_collect(*args, **kwargs)
            refs.extend(weakref.ref(b) for b in blocks)
            return blocks

        def distill(*args, **kwargs):
            alive.append(sum(r() is not None for r in refs))
            return real_distill(*args, **kwargs)

        monkeypatch.setattr(fedkd.protocol, "collect_logits", collect)
        monkeypatch.setattr(fedkd.protocol, "distill", distill)
        run_fedkd(base_run(plan, distill_cfg=DistillConfig(steps=20, batch_size=64)),
                  train, public, test)
        assert len(refs) == plan.num_nodes and alive == [0]

    def test_the_joined_split_is_freed_before_the_query(self, monkeypatch):
        """Under labeled_public the joined [private; public] split dies once
        the nodes have trained, so no query runs beside it."""
        train, test, public, plan = make_fixture()
        sizes, refs, alive = [], [], []
        real_lockstep, real_collect = fedkd.protocol.train_lockstep, fedkd.protocol.collect_logits

        def lockstep(models, data, *args, **kwargs):
            for ds in {id(ds): ds for ds in data}.values():
                sizes.append(ds.n)
                refs.append(weakref.ref(ds))
            return real_lockstep(models, data, *args, **kwargs)

        def collect(*args, **kwargs):
            alive.append(sum(r() is not None for r in refs))
            return real_collect(*args, **kwargs)

        monkeypatch.setattr(fedkd.protocol, "train_lockstep", lockstep)
        monkeypatch.setattr(fedkd.protocol, "collect_logits", collect)
        run_fedkd(base_run(plan, node_cfg=TrainConfig([8], epochs=1),
                           distill_cfg=DistillConfig(steps=10), labeled_public=True),
                  train, public, test)
        assert sizes == [train.n + public.n] and alive == [0]

    def test_all_empty_rejected(self):
        _, test, public, _ = make_fixture()
        empty = Dataset(np.zeros((0, 16)), np.zeros((0, 1), dtype=int), SINGLE_LABEL, 4)
        plan = PartitionPlan([np.array([], dtype=int)], 1.0)
        with pytest.raises(ConfigurationError):
            run_fedkd(base_run(plan), empty, public, test)


class TestRunFedkdBatch:
    """Cells of one batch share the stacked calls their configs allow; each
    result is its own run_fedkd's, bit for bit."""

    def test_mixed_cells_match_their_own_runs(self):
        train, test, public, plan = make_fixture()
        short = DistillConfig(steps=40, batch_size=64, lr_start=0.05)
        node = TrainConfig([32], epochs=5, batch_size=32, lr_start=0.05)
        runs = [
            base_run(plan, distill_cfg=short, node_cfg=node),
            base_run(plan, seed=1, distill_cfg=short, node_cfg=node),
            base_run(plan, distill_cfg=short, node_cfg=node,
                     ensemble_cfg=EnsembleConfig(weight_mode=UNIFORM)),
            base_run(plan, distill_cfg=short, node_cfg=node, labeled_public=True),
            base_run(plan, distill_cfg=DistillConfig(steps=30, batch_size=32), node_cfg=node),
            base_run(plan, distill_cfg=short, node_cfg=TrainConfig([8], epochs=3)),
            base_run(plan, distill_cfg=short, node_cfg=node, central_hidden_dims=[16]),
        ]
        results = fedkd.protocol.run_fedkd_batch([(run, train, public, test) for run in runs])
        for run, result in zip(runs, results):
            alone = run_fedkd(run, train, public, test)
            assert params_equal(result.central_model, alone.central_model)
            for h, a in zip(result.handles, alone.handles):
                assert params_equal(h.model, a.model)
            assert np.array_equal(result.teacher_logits, alone.teacher_logits)
            assert result.metrics == alone.metrics
            assert result.ledger.rows() == alone.ledger.rows()
            assert result.trace == alone.trace

    @pytest.mark.parametrize("fault", ["non_finite_private", "public_below_the_batch"])
    def test_an_input_a_stacked_call_rejects_fails_only_its_cell(self, fault):
        """An input that train_lockstep or distill would reject for the whole
        stack is checked in its cell's own stage: the healthy cell keeps its
        own result, and the other gets the error its own run raises."""
        train, test, public, _ = make_fixture()
        plan = PartitionPlan([np.arange(k, 1200, 5) for k in range(5)], 1.0)
        run = base_run(plan, node_cfg=TrainConfig([8], epochs=1, batch_size=16),
                       distill_cfg=DistillConfig(steps=20, batch_size=64))
        if fault == "non_finite_private":  # the healthy cell's node config: one node stack
            bad = (Dataset(train.features.copy(), train.labels, SINGLE_LABEL, 4), public, test)
            bad[0].features[7, 2] = np.nan
        else:  # the healthy cell's student dims: one distill stack
            bad = (train, subset(public, np.arange(32)), test)
        good, failed = fedkd.protocol.run_fedkd_batch([(run, train, public, test), (run, *bad)])
        assert params_equal(good.central_model, run_fedkd(run, train, public, test).central_model)
        with pytest.raises(Exception) as exc:
            run_fedkd(run, *bad)
        assert type(failed) is type(exc.value) and str(failed) == str(exc.value)

    def test_a_diverging_node_fails_only_its_cell(self, monkeypatch):
        """Both cells' nodes train in one lockstep call, which returns; the
        healthy cell gets its own result and the other the error its own run
        raises."""
        train, test, public, _ = make_fixture()
        plan = PartitionPlan([np.arange(k, 1200, 5) for k in range(5)], 1.0)
        bad = Dataset(train.features.copy(), train.labels, SINGLE_LABEL, 4)
        bad.features[np.arange(3, 1200, 5)] *= 1e100  # node 3's shard overflows
        run = base_run(plan, node_cfg=TrainConfig([8], epochs=1, batch_size=16, lr_start=0.1),
                       distill_cfg=DistillConfig(steps=20, batch_size=64))
        calls = []

        def counting(models, *args, _real=train_lockstep, **kwargs):
            calls.append(len(models))
            return _real(models, *args, **kwargs)

        monkeypatch.setattr(fedkd.protocol, "train_lockstep", counting)
        good, failed = fedkd.protocol.run_fedkd_batch(
            [(run, train, public, test), (run, bad, public, test)])
        monkeypatch.undo()
        assert calls == [10]
        assert params_equal(good.central_model, run_fedkd(run, train, public, test).central_model)
        with pytest.raises(DivergenceError) as exc:
            run_fedkd(run, bad, public, test)
        assert isinstance(failed, DivergenceError)
        assert str(failed) == str(exc.value) == (
            "node training diverged on node 3: non-finite parameters")


class TestStage:
    """_stage maps each cell's latest result or exception to its next entry."""

    def test_an_exception_entry_passes_through_unseen(self):
        held = ValueError("from an earlier stage")
        seen = []

        def call(group):
            seen.extend(group)
            return [f"next {i}" for i in group]

        out = _stage(["a", held, "c"], call)
        assert out[0] == "next 0" and out[1] is held and out[2] == "next 2"
        assert seen == [0, 2]
        assert _stage([held], call)[0] is held

    def test_a_raising_call_fails_only_its_own_group(self):
        boom = MemoryError("stack too large")

        def call(group):
            if 1 in group:
                raise boom
            return [i * 10 for i in group]

        out = _stage([0, 1, 2, 3], call, key=lambda i: i % 2)
        assert out[0] == 0 and out[2] == 20
        assert out[1] is boom and out[3] is boom

    def test_a_returned_exception_lands_in_its_own_cell_only(self):
        diverged = DivergenceError("distillation")
        out = _stage(list("abcd"), lambda group: [diverged if i == 2 else i for i in group],
                     key=lambda i: 0)
        assert out == [0, 1, diverged, 3]

    def test_groups_come_in_first_seen_order_with_members_in_order(self):
        calls = []

        def call(group):
            calls.append(group)
            return group

        keys = ["x", "y", "x", "z", "y", "x"]
        assert _stage(keys, call, key=lambda i: keys[i]) == [0, 1, 2, 3, 4, 5]
        assert calls == [[0, 2, 5], [1, 4], [3]]
        calls.clear()
        _stage(keys, call)
        assert calls == [[0], [1], [2], [3], [4], [5]]

    def test_the_input_list_is_not_changed(self):
        prev = [1, 2]
        assert _stage(prev, lambda group: [None for _ in group]) == [None, None]
        assert prev == [1, 2]


# ---------------------------------------------------------------------------
# parameter averaging baseline


class TestRunFedavg:
    def test_one_round_one_node_is_centralized_training(self):
        train, test, _, _ = make_fixture()
        res = run_fedavg(train, whole_plan(train), NODE_CFG, rounds=1, seed=0)
        central_model, central_acc = run_centralized(train, test, NODE_CFG, 0)
        assert params_equal(res.model, central_model)
        assert evaluate_single(res.model, test) == central_acc

    def test_reaches_near_centralized_accuracy(self):
        train, test, _, plan = make_fixture()
        cfg = TrainConfig([32], epochs=3, batch_size=32, lr_start=0.05)
        res = run_fedavg(train, plan, cfg, rounds=10, seed=0)
        _, central_acc = run_centralized(train, test, NODE_CFG, 0)
        assert evaluate_single(res.model, test) >= central_acc - 0.03

    def test_ledger_matches_closed_form(self):
        train, _, _, plan = make_fixture()
        cfg = TrainConfig([32], epochs=1, batch_size=32, lr_start=0.05)
        res = run_fedavg(train, plan, cfg, rounds=4, seed=0)
        p = res.model.parameter_count()
        active = sum(1 for a in plan.assignments if len(a) > 0)
        assert res.ledger.total() == 4 * active * 2 * 8 * p
        assert res.ledger.total("params_down") == res.ledger.total("params_up")

    def test_ledger_linear_in_rounds(self):
        train, _, _, plan = make_fixture()
        cfg = TrainConfig([32], epochs=1, batch_size=32, lr_start=0.05)
        one = run_fedavg(train, plan, cfg, rounds=1, seed=0)
        three = run_fedavg(train, plan, cfg, rounds=3, seed=0)
        assert three.ledger.total() == 3 * one.ledger.total()

    def test_empty_shards_skipped(self):
        train = subset(make_fixture()[0], np.arange(300))  # the plan covers it exactly once
        plan = PartitionPlan([np.arange(300), np.array([], dtype=int)], 1.0)
        cfg = TrainConfig([32], epochs=1, batch_size=32, lr_start=0.05)
        res = run_fedavg(train, plan, cfg, rounds=2, seed=0)
        assert {r[1] for r in res.ledger.rows()} == {0}

    def test_zero_rounds_rejected(self):
        train, _, _, plan = make_fixture()
        with pytest.raises(ConfigurationError):
            run_fedavg(train, plan, NODE_CFG, rounds=0, seed=0)

    def test_a_plan_that_does_not_cover_the_data_once_is_rejected(self):
        """Row 8 goes to nodes 0 and 3 and row 3 to no node: run_fedavg
        rejects the plan before any training, with run_fedkd's message."""
        train, test, public, _ = make_fixture()
        plan = PartitionPlan([np.arange(0, 1200, 4), np.array([], dtype=int),
                              np.arange(1, 1200, 100), np.arange(2, 600, 3)], 1.0)
        message = "^assignments must cover the dataset exactly once$"
        with pytest.raises(ValidationError, match=message):
            run_fedavg(train, plan, TrainConfig([8], epochs=1), rounds=2, seed=0)
        with pytest.raises(ValidationError, match=message):
            run_fedkd(base_run(plan), train, public, test)


# ---------------------------------------------------------------------------
# parameter wire frames


class TestParamFrames:
    def test_payload_is_eight_bytes_per_parameter(self):
        model = init_mlp([5, 7, 3], RandomStream(0, (907,)))
        assert param_payload_bytes(model) == 8 * model.parameter_count()
        assert model.flat.nbytes == param_payload_bytes(model)


# ---------------------------------------------------------------------------
# shared trainer details


class TestTrainSupervised:
    def test_hidden_layer_without_units_rejected(self):
        for hidden in ([0], [8, -1]):
            with pytest.raises(ConfigurationError, match="hidden_dims"):
                TrainConfig(hidden_dims=hidden)

    def test_batch_size_clamped_to_dataset(self):
        train, _, _, _ = make_fixture()
        small = subset(train, np.arange(10))
        cfg = TrainConfig([], epochs=2, batch_size=32)
        model = init_mlp([16, 4], RandomStream(0, (45,)))
        out = train_supervised(model.copy(), small, cfg, RandomStream(0, (46,)))
        assert not params_equal(out, model)

    def test_deterministic_given_streams(self):
        train, _, _, _ = make_fixture()
        shard = subset(train, np.arange(100))
        cfg = TrainConfig([8], epochs=3, batch_size=16)
        outs = []
        for _ in range(2):
            model = init_mlp([16, 8, 4], RandomStream(1, (45,)))
            outs.append(train_supervised(model, shard, cfg, RandomStream(1, (46,))))
        assert params_equal(*outs)

    def test_loss_improves_fit(self):
        train, test, _, _ = make_fixture()
        model = init_mlp([16, 32, 4], RandomStream(2, (45,)))
        before = evaluate_single(model, test)
        cfg = TrainConfig([32], epochs=10, batch_size=32)
        out = train_supervised(model.copy(), train, cfg, RandomStream(2, (46,)))
        assert evaluate_single(out, test) > before


def reference_train(model, ds, cfg, batch_rs, rounds=1, round_index=0):
    """train_supervised as the per-step chain of checked public calls, with a
    copying SGD update: the oracle for the fused, in-place trainer. Round
    ``round_index`` of ``rounds`` runs its steps on one cosine horizon over
    all rounds."""
    b = min(cfg.batch_size, ds.n)
    per_epoch = ds.n // b
    steps = cfg.epochs * per_epoch
    sched = CosineSchedule(cfg.lr_start, cfg.lr_end, rounds * steps)
    step = round_index * steps
    for _ in range(cfg.epochs):
        order = batch_rs.permutation(ds.n)
        for j in range(per_epoch):
            idx = order[j * b : (j + 1) * b]
            x = ds.features[idx]
            z = mlp_forward(model, x)
            if ds.task == SINGLE_LABEL:
                _, gz = softmax_xent_grad(z, ds.labels[idx, 0])
            else:
                _, gz = masked_bce_grad(z, ds.labels[idx])
            g = mlp_backward(model, x, gz)
            lr, wd = cosine_lr(sched, step), cfg.weight_decay
            model = MlpModel(
                model.layer_dims,
                [w - lr * (gw + wd * w) for w, gw in zip(model.weights, g.weights)],
                [b_ - lr * (gb + wd * b_) for b_, gb in zip(model.biases, g.biases)],
            )
            step += 1
    return model


def multi_label_fixture(seed=0, n=150, dim=16, classes=4):
    rs = RandomStream(seed, (905,))
    labels = rs.integers(3, (n, classes)) - 1  # -1 marks an unknown cell
    features = rs.gauss((n, dim)) + labels @ rs.gauss((classes, dim))
    return Dataset(features, labels, MULTI_LABEL, classes)


class TestFusedTrainingStep:
    @pytest.mark.parametrize("task", [SINGLE_LABEL, MULTI_LABEL])
    @pytest.mark.parametrize("resume", [None, (4, 1)])  # (rounds, round_index)
    def test_bit_identical_to_the_public_per_step_chain(self, task, resume):
        if task == SINGLE_LABEL:
            ds = subset(make_fixture()[0], np.arange(0, 1200, 8))  # all four classes
        else:
            ds = multi_label_fixture()
        cfg = TrainConfig([12, 8], epochs=3, batch_size=16, lr_start=0.1,
                          lr_end=0.01, weight_decay=1e-3)
        kw = {} if resume is None else dict(rounds=resume[0], round_index=resume[1])
        model = init_mlp([16, 12, 8, 4], RandomStream(3, (45,)))
        before = model.copy()
        out = train_supervised(model, ds, cfg, RandomStream(3, (46,)), **kw)
        ref = reference_train(model.copy(), ds, cfg, RandomStream(3, (46,)), **kw)
        assert params_equal(out, ref)
        assert params_equal(model, before)  # the caller's model is untouched
        assert not params_equal(out, before)

    @pytest.mark.parametrize("task", [SINGLE_LABEL, MULTI_LABEL])
    def test_bit_identical_without_weight_decay(self, task):
        # batches of 20 leave a tail of 7 (single-label) or 10 (multi-label)
        # rows; every 8th row spans all four classes
        if task == SINGLE_LABEL:
            ds = subset(make_fixture()[0], np.arange(0, 1176, 8))
        else:
            ds = multi_label_fixture()
        cfg = TrainConfig([12], epochs=4, batch_size=20, lr_start=0.2)
        model = init_mlp([16, 12, 4], RandomStream(4, (45,)))
        out = train_supervised(model, ds, cfg, RandomStream(4, (46,)))
        ref = reference_train(model.copy(), ds, cfg, RandomStream(4, (46,)))
        assert np.array_equal(out.flat.view(np.int64), ref.flat.view(np.int64))

    def test_divergence_is_a_typed_error_naming_the_node(self):
        train, _, _, _ = make_fixture()
        cfg = TrainConfig([8], epochs=2, batch_size=16, lr_start=1e300)
        model = init_mlp([16, 8, 4], RandomStream(0, (45,)))
        with pytest.raises(DivergenceError, match="node training diverged on node 3") as exc:
            train_supervised(model, subset(train, np.arange(64)), cfg,
                             RandomStream(0, (46,)), node_id=3)
        assert (exc.value.phase, exc.value.node_id) == ("node training", 3)

    def test_non_finite_features_rejected_on_entry(self):
        train, _, _, _ = make_fixture()
        bad = subset(train, np.arange(32))
        bad.features[5, 2] = np.nan
        model = init_mlp([16, 4], RandomStream(0, (45,)))
        with pytest.raises(ValueError, match="features"):
            train_supervised(model, bad, TrainConfig([], epochs=1), RandomStream(0, (46,)))

    def test_feature_width_checked_on_entry(self):
        train, _, _, _ = make_fixture()
        model = init_mlp([8, 4], RandomStream(0, (45,)))
        with pytest.raises(DimensionError):
            train_supervised(model, train, TrainConfig([], epochs=1), RandomStream(0, (46,)))


# ---------------------------------------------------------------------------
# lockstep training: every node against the per-step oracle


def bits_equal(a: MlpModel, b: MlpModel) -> bool:
    return np.array_equal(a.flat.view(np.int64), b.flat.view(np.int64))


class TestLockstepTrainer:
    def mixed_shards(self):
        """Shards of several sizes (one below the batch size, so the nodes
        finish at different steps) and both label types: three stacks in
        one call."""
        single = make_fixture()[0]
        multi = multi_label_fixture(n=150)
        return [
            subset(single, np.arange(0, 1200, 8)),
            subset(single, np.arange(3, 1200, 13)),
            subset(single, np.arange(5, 1200, 120)),  # 10 rows
            multi,
            subset(single, np.arange(1, 1200, 10)),
            subset(multi, np.arange(60)),
            subset(multi, np.arange(60, 130)),
        ]

    def test_mixed_stacks_match_the_oracle_bit_for_bit(self):
        shards = self.mixed_shards()
        cfg = TrainConfig([12], epochs=2, batch_size=16, lr_start=0.1, lr_end=0.001,
                          weight_decay=1e-3)
        for rounds, round_index in ((1, 0), (3, 2)):  # a fresh schedule and a FedAvg resume
            models = [init_mlp([16, 12, 4], RandomStream(8, (45, k)))
                      for k in range(len(shards))]
            before = [m.copy() for m in models]
            out = train_lockstep(models, shards, cfg,
                                 [RandomStream(8, (46, k)) for k in range(len(shards))],
                                 rounds=rounds, round_index=round_index)
            for k, ds in enumerate(shards):
                ref = reference_train(before[k].copy(), ds, cfg, RandomStream(8, (46, k)),
                                      rounds, round_index)
                assert bits_equal(out[k], ref), f"node {k}, round {round_index} of {rounds}"
                assert bits_equal(models[k], before[k])  # the callers' models are untouched

    def test_train_locals_with_an_empty_shard_matches_the_oracle(self):
        train = make_fixture()[0]
        rows = [np.arange(0, 1200, 8), np.arange(0), np.arange(7, 1200, 150),
                np.arange(2, 1200, 11)]
        cfg = TrainConfig([8], epochs=2, batch_size=16, lr_start=0.1, weight_decay=1e-3)
        handles = _train_cells([(train, rows)], cfg, [5])[0]
        assert handles[1].model is None
        for k in (0, 2, 3):  # the oracle trains on a copy of the node's rows
            model = init_mlp([16, 8, 4], RandomStream(5, (fedkd.protocol.STREAM_INIT, k)))
            ref = reference_train(model, subset(train, rows[k]), cfg,
                                  RandomStream(5, (fedkd.protocol.STREAM_BATCH, k, 0)))
            assert bits_equal(handles[k].model, ref), f"node {k}"

    def test_fedavg_matches_a_per_round_oracle_loop(self):
        train = make_fixture()[0]
        # uneven shards, one empty and one below the batch size; node 3 gets
        # every row the others leave, so the plan covers the data once
        taken = np.concatenate([np.arange(0, 1200, 4), np.arange(1, 1200, 100)])
        plan = PartitionPlan([np.arange(0, 1200, 4), np.array([], dtype=int),
                              np.arange(1, 1200, 100), np.setdiff1d(np.arange(1200), taken)],
                             1.0)
        cfg = TrainConfig([8], epochs=2, batch_size=16, lr_start=0.1,
                          weight_decay=1e-3)
        rounds = 3
        res = run_fedavg(train, plan, cfg, rounds=rounds, seed=4)

        shards = [subset(train, a) for a in plan.assignments]
        active = [k for k, s in enumerate(shards) if s.n]
        sizes = np.array([shards[k].n for k in active], dtype=np.float64)
        coef = sizes / sizes.sum()
        model = init_mlp([16, 8, 4], RandomStream(4, (fedkd.protocol.STREAM_INIT, 0)))
        for r in range(rounds):
            locals_ = [reference_train(model.copy(), shards[k], cfg,
                                       RandomStream(4, (fedkd.protocol.STREAM_BATCH, k, r)),
                                       rounds, r)
                       for k in active]
            model.flat[:] = sum(c * m.flat for c, m in zip(coef, locals_))
        assert bits_equal(res.model, model)

    def test_empty_shard_and_length_mismatch_rejected(self):
        train = make_fixture()[0]
        model = init_mlp([16, 4], RandomStream(0, (45,)))
        cfg = TrainConfig([], epochs=1)
        with pytest.raises(ConfigurationError, match="empty dataset"):
            train_lockstep([model], [subset(train, [])], cfg, [RandomStream(0, (46,))])
        with pytest.raises(ConfigurationError, match="one entry per model"):
            train_lockstep([model], [train], cfg, [RandomStream(0, (46,))] * 2)

    def test_model_dims_must_match_the_data(self):
        train = make_fixture()[0]  # 16 features, 4 classes
        cfg = TrainConfig([8], epochs=1)
        for dims in ([16, 8, 3], [15, 8, 4], [16, 4], [16, 9, 4]):
            models = [init_mlp([16, 8, 4], RandomStream(0, (45,))),
                      init_mlp(dims, RandomStream(1, (45,)))]
            with pytest.raises(DimensionError,
                               match=re.escape(f"{dims} differ from the data's [16, 8, 4]")):
                train_lockstep(models, [train, train], cfg,
                               [RandomStream(k, (46,)) for k in range(2)])


# ---------------------------------------------------------------------------
# nodes train on index rows into their split, never on a copied shard


def joined(private: Dataset, rows: np.ndarray, public: Dataset) -> Dataset:
    """A node's labeled_public training set as a copy: its private rows, then
    every public row."""
    shard = subset(private, rows)
    return Dataset(np.concatenate([shard.features, public.features]),
                   np.concatenate([shard.labels, public.labels]), shard.task, shard.num_classes)


class TestIndexRows:
    @pytest.mark.parametrize("resume", [(1, 0), (3, 2)])  # a fresh schedule and a FedAvg resume
    def test_index_rows_train_the_bits_of_copied_shards(self, resume):
        """Single- and multi-label nodes on index rows (unsorted ones, and a
        shard below the batch size) give the bits of the same nodes trained
        on copies of their shards."""
        single, multi = make_fixture()[0], multi_label_fixture(n=150)
        data = [single, single, single, multi, multi]
        rows = [np.arange(1199, 0, -7), np.arange(5, 1200, 120), np.arange(3, 1200, 13),
                np.arange(0, 150, 2), np.arange(149, 139, -1)]  # 10 rows each for nodes 1, 4
        cfg = TrainConfig([12], epochs=2, batch_size=16, lr_start=0.1, lr_end=0.001,
                          weight_decay=1e-3)

        def train(datasets, **kw):
            return train_lockstep(
                [init_mlp([16, 12, 4], RandomStream(6, (45, k))) for k in range(len(rows))],
                datasets, cfg, [RandomStream(6, (46, k)) for k in range(len(rows))],
                rounds=resume[0], round_index=resume[1], **kw)

        indexed = train(data, rows=rows)
        copied = train([subset(ds, idx) for ds, idx in zip(data, rows)])
        for k in range(len(rows)):
            assert bits_equal(indexed[k], copied[k]), f"node {k}"

    def test_labeled_public_nodes_train_the_bits_of_copied_joined_shards(self):
        """Under labeled_public each node's rows are its private rows then
        every public row of one joined split, and it trains to the bits of
        its joined shard as a copy; an empty private shard still trains on
        the public rows. The profiles count the joined shards."""
        train, test, public, _ = make_fixture()
        plan = PartitionPlan([np.arange(0, 1200, 2), np.array([], dtype=int),
                              np.arange(1, 1200, 2)], 1.0)
        cfg = TrainConfig([8], epochs=1, batch_size=32, lr_start=0.1)
        res = run_fedkd(base_run(plan, node_cfg=cfg, distill_cfg=DistillConfig(steps=10),
                                 labeled_public=True), train, public, test)
        shards = [joined(train, a, public) for a in plan.assignments]
        for k, (h, a, shard) in enumerate(zip(res.handles, plan.assignments, shards)):
            assert np.array_equal(h.rows, np.concatenate([a, train.n + np.arange(public.n)]))
            model = init_mlp([16, 8, 4], RandomStream(0, (fedkd.protocol.STREAM_INIT, k)))
            ref = train_supervised(model, shard, cfg,
                                   RandomStream(0, (fedkd.protocol.STREAM_BATCH, k, 0)))
            assert bits_equal(h.model, ref), f"node {k}"
        omega = importance_weights(np.stack([profile_of(s) for s in shards])).omega
        assert np.array_equal(res.weights.omega, omega)

    def test_labeled_public_needs_a_public_set_of_the_same_task(self):
        train, test, _, plan = make_fixture()
        public = multi_label_fixture(n=80)
        with pytest.raises(ConfigurationError,
                           match="^cannot join a public set of a different task$"):
            run_fedkd(base_run(plan, labeled_public=True), train, public, test)

    def test_rows_outside_the_data_are_rejected(self):
        train = make_fixture()[0]
        model = init_mlp([16, 4], RandomStream(0, (45,)))
        for bad in ([0, train.n], [-1, 3]):
            with pytest.raises(ValidationError, match="shard rows outside the data's 1200 rows"):
                train_lockstep([model], [train], TrainConfig([], epochs=1),
                               [RandomStream(0, (46,))], rows=[np.array(bad)])

    @pytest.mark.parametrize("labeled_public", [False, True])
    def test_no_run_copies_a_shard(self, monkeypatch, labeled_public):
        """No run builds a dataset of its own but the one joined split per
        data group under labeled_public: a copied shard would be one more."""
        train, test, public, plan = make_fixture()
        built = []

        def counting(self, _real=Dataset.__post_init__):
            built.append(self.n)
            _real(self)

        monkeypatch.setattr(Dataset, "__post_init__", counting)
        run = base_run(plan, node_cfg=TrainConfig([8], epochs=1),
                       distill_cfg=DistillConfig(steps=10), labeled_public=labeled_public)
        run_fedkd(run, train, public, test)
        results = fedkd.protocol.run_fedkd_batch(
            [(run, train, public, test), (dataclasses.replace(run, seed=1), train, public, test)])
        assert not any(isinstance(r, Exception) for r in results)
        run_fedavg(train, plan, TrainConfig([8], epochs=1), rounds=2, seed=0)
        assert built == ([train.n + public.n] * 2 if labeled_public else [])

    def test_features_are_checked_once_per_split(self, monkeypatch):
        """run_fedavg checks its private features once, not once per round;
        a batch checks each distinct split once, however many cells share it."""
        train, test, public, plan = make_fixture()
        checked = []

        def counting(a, name="matrix", *args, _real=fedkd.protocol.check_matrix, **kwargs):
            checked.extend([name] if name == "features" else [])
            return _real(a, name, *args, **kwargs)

        monkeypatch.setattr(fedkd.protocol, "check_matrix", counting)
        run_fedavg(train, plan, TrainConfig([8], epochs=1), rounds=3, seed=0)
        assert checked == ["features"]
        del checked[:]
        other = PartitionPlan(plan.assignments[::-1], 1.0)
        short = dict(node_cfg=TrainConfig([8], epochs=1), distill_cfg=DistillConfig(steps=10))
        fedkd.protocol.run_fedkd_batch([(base_run(plan, seed=s, **short), train, public, test)
                                        for s in (0, 1, 2)]
                                       + [(base_run(other, **short), train, public, test)])
        assert checked == ["features"] * 2

    def test_labeled_public_training_holds_one_public_copy_not_k(self, monkeypatch):
        """With K = 8 nodes on a public set nine times the private split, the
        traced peak from the run's start to the end of node training stays
        below two copies of the public features (one joined split plus the
        nodes' index rows); K copied joined shards would hold eight."""
        means = 4.0 * RandomStream(0, (900,)).gauss((4, 64)) / 8.0
        train, test, public = (
            gen_gaussian_task(GaussianTaskSpec(4, 64, n, means), RandomStream(0, (tag,)))
            for n, tag in ((100, 901), (50, 902), (900, 903)))
        plan = dirichlet_partition(train, 8, 1.0, RandomStream(0, (904,)))
        peaks = []

        def traced(*args, _real=train_lockstep, **kwargs):
            out = _real(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        monkeypatch.setattr(fedkd.protocol, "train_lockstep", traced)
        run = base_run(plan, node_cfg=TrainConfig([8], epochs=1, batch_size=64),
                       distill_cfg=DistillConfig(steps=5), labeled_public=True)
        tracemalloc.start()
        try:
            run_fedkd(run, train, public, test)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1 and peaks[0] < 2 * public.features.nbytes, (
            peaks, public.features.nbytes)


# ---------------------------------------------------------------------------
# the scheduling half of the determinism contract


def twenty_node_shards():
    train, _, _, plan = make_fixture(seed=2, nodes=20, alpha=0.3)
    return [subset(train, a) for a in plan.assignments]


SCHED_CFG = TrainConfig([8], epochs=2, batch_size=16, lr_start=0.1)


def lockstep_by_seed(shards, seeds):
    """train_lockstep over the given shards, each with its model and batch
    stream keyed by its own seed."""
    return train_lockstep(
        [init_mlp([16, 8, 4], RandomStream(s, (45,))) for s in seeds],
        shards, SCHED_CFG, [RandomStream(s, (46,)) for s in seeds])


class TestSchedulingDeterminism:
    def test_stream_tags_are_distinct_across_modules(self):
        """Every stream id starts with a purpose tag, so two STREAM_* constants
        of one value, in any fedkd module, would draw the same samples."""
        tags = {f"{info.name}.{name}": value
                for info in pkgutil.iter_modules(fedkd.__path__)
                for name, value in vars(importlib.import_module(f"fedkd.{info.name}")).items()
                if name.startswith("STREAM_")}
        assert len(tags) >= 11  # protocol's six and cli's five
        assert len(set(tags.values())) == len(tags), tags

    def test_node_alone_equals_the_node_inside_a_20_node_stack(self):
        shards = twenty_node_shards()
        # an empty shard (left out), shards below the batch size (stacks of their
        # own) and a stack of uneven shards that finish at different steps
        assert sorted(s.n for s in shards)[:4] == [0, 1, 5, 7]
        live = [k for k, s in enumerate(shards) if s.n]
        seeds = [100 + k for k in live]
        stacked = lockstep_by_seed([shards[k] for k in live], seeds)
        for k, seed, model in zip(live, seeds, stacked):
            (alone,) = lockstep_by_seed([shards[k]], [seed])
            assert bits_equal(alone, model), f"node {k}"

    def test_reversed_shard_order_gives_identical_models(self):
        shards = [s for s in twenty_node_shards() if s.n]
        seeds = list(range(200, 200 + len(shards)))
        forward = lockstep_by_seed(shards, seeds)
        backward = lockstep_by_seed(shards[::-1], seeds[::-1])
        for a, b in zip(forward, backward[::-1]):
            assert bits_equal(a, b)

    def test_lowest_diverging_node_is_named(self):
        """Nodes 1 and 3 of one stack diverge: train_lockstep hands back None
        for each and the other nodes' own models, and a run's error names
        the lowest, node 1."""
        train, test, _, _ = make_fixture()
        plan = PartitionPlan([np.arange(k, 1200, 5) for k in range(5)], 1.0)
        bad = Dataset(train.features.copy(), train.labels, SINGLE_LABEL, 4)
        for k in (1, 3):  # features at 1e100 overflow the first updates
            bad.features[plan.assignments[k]] *= 1e100
        shards = [subset(bad, a) for a in plan.assignments]  # one stack
        cfg = TrainConfig([8], epochs=1, batch_size=16, lr_start=0.1)

        (failed,) = _train_cells([(bad, plan.assignments)], cfg, [0])
        assert isinstance(failed, DivergenceError) and failed.node_id == 1
        assert str(failed) == "node training diverged on node 1: non-finite parameters"

        def models_and_streams(nodes):
            return ([init_mlp([16, 8, 4], RandomStream(0, (45, k))) for k in nodes],
                    [RandomStream(0, (46, k)) for k in nodes])

        models, streams = models_and_streams(range(5))
        out = train_lockstep(models, shards, cfg, streams)
        assert [k for k, m in enumerate(out) if m is None] == [1, 3]
        for k in (0, 2, 4):
            models, streams = models_and_streams([k])
            (alone,) = train_lockstep(models, [shards[k]], cfg, streams)
            assert bits_equal(out[k], alone), f"node {k}"

        with pytest.raises(DivergenceError, match="node training diverged on node 1") as exc:
            run_fedavg(bad, plan, cfg, rounds=1, seed=0)
        assert exc.value.node_id == 1
