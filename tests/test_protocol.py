"""Cost ledger, local training, logit collection, and the three full runs."""
import weakref

import numpy as np
import pytest

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
)
from fedkd.distill import DistillConfig, evaluate_single
from fedkd.ensemble import EnsembleConfig, UNIFORM
from fedkd.errors import ConfigurationError, DimensionError, DivergenceError, RangeError
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
    BandwidthLedger,
    FedKdRun,
    NodeHandle,
    TrainConfig,
    collect_logits,
    decode_params,
    encode_params,
    ledger_report,
    masked_bce_grad,
    param_payload_bytes,
    run_centralized,
    run_fedavg,
    run_fedkd,
    softmax_xent_grad,
    train_locals,
    train_lockstep,
    train_supervised,
)


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


NODE_CFG = TrainConfig([16, 32, 4], epochs=30, batch_size=32, lr_start=0.05)


def whole_plan(ds):
    return PartitionPlan([np.arange(ds.n)], 1.0)


def base_run(plan, seed=0, **overrides):
    kw = dict(
        plan=plan,
        node_cfg=NODE_CFG,
        ensemble_cfg=EnsembleConfig(),
        distill_cfg=DistillConfig(steps=300, batch_size=64, lr_start=0.05),
        central_dims=[16, 32, 4],
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
        handles = train_locals([train.subset(a) for a in plan.assignments], NODE_CFG, 0)
        for h in handles:
            if h.model is not None:
                assert evaluate_single(h.model, h.train_set) >= 0.90

    def test_empty_shard_yields_no_model(self):
        train, _, _, _ = make_fixture()
        handles = train_locals([train.subset([]), train.subset(np.arange(50))], NODE_CFG, 0)
        assert handles[0].model is None
        assert handles[1].model is not None

    def test_default_streams_differ_per_node(self):
        train, _, _, _ = make_fixture()
        shard = train.subset(np.arange(200))
        handles = train_locals([shard, shard], NODE_CFG, 0)
        assert not params_equal(handles[0].model, handles[1].model)


# ---------------------------------------------------------------------------
# logit collection


class TestCollectLogits:
    def make_handles(self, k, seed=3):
        model = init_mlp([16, 8, 4], RandomStream(seed, (905,)))
        empty = Dataset(np.zeros((0, 16)), np.zeros((0, 1), dtype=int), SINGLE_LABEL, 4)
        return [NodeHandle(i, empty, model) for i in range(k)]

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
        assert m["bandwidth"]["total_bytes"] == res.ledger.total()
        assert m["packed_logits_bytes"] < m["bandwidth"]["per_phase"]["logits_up"]

    def test_labeled_public_joins_training_shards(self):
        train, test, public, plan = make_fixture()
        res = run_fedkd(base_run(plan, labeled_public=True), train, public, test)
        for h in res.handles:
            assert h.train_set.n >= public.n
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

    def test_all_empty_rejected(self):
        _, test, public, _ = make_fixture()
        empty = Dataset(np.zeros((0, 16)), np.zeros((0, 1), dtype=int), SINGLE_LABEL, 4)
        plan = PartitionPlan([np.array([], dtype=int)], 1.0)
        with pytest.raises(ConfigurationError):
            run_fedkd(base_run(plan), empty, public, test)


# ---------------------------------------------------------------------------
# parameter averaging baseline


class TestRunFedavg:
    def test_one_round_one_node_is_centralized_training(self):
        train, test, _, _ = make_fixture()
        res = run_fedavg(train, test, whole_plan(train), NODE_CFG, rounds=1, seed=0)
        central_model, central_acc = run_centralized(train, test, NODE_CFG, 0)
        assert params_equal(res.model, central_model)
        assert res.metrics["central"] == central_acc

    def test_reaches_near_centralized_accuracy(self):
        train, test, _, plan = make_fixture()
        cfg = TrainConfig([16, 32, 4], epochs=3, batch_size=32, lr_start=0.05)
        res = run_fedavg(train, test, plan, cfg, rounds=10, seed=0)
        _, central_acc = run_centralized(train, test, NODE_CFG, 0)
        assert res.metrics["central"] >= central_acc - 0.03

    def test_ledger_matches_closed_form(self):
        train, test, _, plan = make_fixture()
        cfg = TrainConfig([16, 32, 4], epochs=1, batch_size=32, lr_start=0.05)
        res = run_fedavg(train, test, plan, cfg, rounds=4, seed=0)
        p = res.model.parameter_count()
        active = sum(1 for a in plan.assignments if len(a) > 0)
        assert res.ledger.total() == 4 * active * 2 * 8 * p
        assert res.ledger.total("params_down") == res.ledger.total("params_up")

    def test_ledger_linear_in_rounds(self):
        train, test, _, plan = make_fixture()
        cfg = TrainConfig([16, 32, 4], epochs=1, batch_size=32, lr_start=0.05)
        one = run_fedavg(train, test, plan, cfg, rounds=1, seed=0)
        three = run_fedavg(train, test, plan, cfg, rounds=3, seed=0)
        assert three.ledger.total() == 3 * one.ledger.total()

    def test_heterogeneous_architectures_rejected(self):
        train, test, _, _ = make_fixture()
        plan = PartitionPlan([np.arange(100), np.arange(100, 200)], 1.0)
        cfgs = [TrainConfig([16, 32, 4]), TrainConfig([16, 16, 4])]
        with pytest.raises(ConfigurationError):
            run_fedavg(train, test, plan, cfgs, rounds=1, seed=0)

    def test_empty_shards_skipped(self):
        train, test, _, _ = make_fixture()
        plan = PartitionPlan([np.arange(300), np.array([], dtype=int)], 1.0)
        cfg = TrainConfig([16, 32, 4], epochs=1, batch_size=32, lr_start=0.05)
        res = run_fedavg(train, test, plan, cfg, rounds=2, seed=0)
        assert {r[1] for r in res.ledger.rows()} == {0}

    def test_zero_rounds_rejected(self):
        train, test, _, plan = make_fixture()
        with pytest.raises(ConfigurationError):
            run_fedavg(train, test, plan, NODE_CFG, rounds=0, seed=0)


# ---------------------------------------------------------------------------
# parameter wire frames


class TestParamFrames:
    def test_round_trip_preserves_bits(self):
        model = init_mlp([5, 7, 3], RandomStream(0, (907,)))
        again = decode_params([5, 7, 3], encode_params(model))
        assert params_equal(model, again)

    def test_payload_is_eight_bytes_per_parameter(self):
        model = init_mlp([5, 7, 3], RandomStream(0, (907,)))
        assert param_payload_bytes(model) == 8 * model.parameter_count()
        assert len(encode_params(model)) == param_payload_bytes(model)

    def test_wrong_length_rejected(self):
        model = init_mlp([5, 7, 3], RandomStream(0, (907,)))
        with pytest.raises(DimensionError):
            decode_params([5, 7, 2], encode_params(model))


# ---------------------------------------------------------------------------
# shared trainer details


class TestTrainSupervised:
    def test_batch_size_clamped_to_dataset(self):
        train, _, _, _ = make_fixture()
        small = train.subset(np.arange(10))
        cfg = TrainConfig([16, 4], epochs=2, batch_size=32)
        model = init_mlp([16, 4], RandomStream(0, (45,)))
        out = train_supervised(model.copy(), small, cfg, RandomStream(0, (46,)))
        assert not params_equal(out, model)

    def test_deterministic_given_streams(self):
        train, _, _, _ = make_fixture()
        shard = train.subset(np.arange(100))
        cfg = TrainConfig([16, 8, 4], epochs=3, batch_size=16)
        outs = []
        for _ in range(2):
            model = init_mlp([16, 8, 4], RandomStream(1, (45,)))
            outs.append(train_supervised(model, shard, cfg, RandomStream(1, (46,))))
        assert params_equal(*outs)

    def test_loss_improves_fit(self):
        train, test, _, _ = make_fixture()
        model = init_mlp([16, 32, 4], RandomStream(2, (45,)))
        before = evaluate_single(model, test)
        cfg = TrainConfig([16, 32, 4], epochs=10, batch_size=32)
        out = train_supervised(model.copy(), train, cfg, RandomStream(2, (46,)))
        assert evaluate_single(out, test) > before


def reference_train(model, ds, cfg, batch_rs, total_steps=None, step_offset=0):
    """train_supervised as the per-step chain of checked public calls, with a
    copying SGD update: the oracle for the fused, in-place trainer."""
    b = min(cfg.batch_size, ds.n)
    per_epoch = ds.n // b
    horizon = cfg.epochs * per_epoch if total_steps is None else total_steps
    sched = CosineSchedule(cfg.lr_start, cfg.lr_end, horizon)
    step = step_offset
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
    @pytest.mark.parametrize("resume", [None, (50, 12)])
    def test_bit_identical_to_the_public_per_step_chain(self, task, resume):
        if task == SINGLE_LABEL:
            ds = make_fixture()[0].subset(np.arange(0, 1200, 8))  # all four classes
        else:
            ds = multi_label_fixture()
        cfg = TrainConfig([16, 12, 8, 4], epochs=3, batch_size=16, lr_start=0.1,
                          lr_end=0.01, weight_decay=1e-3)
        kw = {} if resume is None else dict(total_steps=resume[0], step_offset=resume[1])
        model = init_mlp(cfg.layer_dims, RandomStream(3, (45,)))
        before = model.copy()
        out = train_supervised(model, ds, cfg, RandomStream(3, (46,)), **kw)
        ref = reference_train(model.copy(), ds, cfg, RandomStream(3, (46,)),
                              kw.get("total_steps"), kw.get("step_offset", 0))
        assert params_equal(out, ref)
        assert params_equal(model, before)  # the caller's model is untouched
        assert not params_equal(out, before)

    @pytest.mark.parametrize("task", [SINGLE_LABEL, MULTI_LABEL])
    def test_bit_identical_without_weight_decay(self, task):
        # batches of 20 leave a tail of 7 (single-label) or 10 (multi-label)
        # rows; every 8th row spans all four classes
        if task == SINGLE_LABEL:
            ds = make_fixture()[0].subset(np.arange(0, 1176, 8))
        else:
            ds = multi_label_fixture()
        cfg = TrainConfig([16, 12, 4], epochs=4, batch_size=20, lr_start=0.2)
        model = init_mlp(cfg.layer_dims, RandomStream(4, (45,)))
        out = train_supervised(model, ds, cfg, RandomStream(4, (46,)))
        ref = reference_train(model.copy(), ds, cfg, RandomStream(4, (46,)))
        assert np.array_equal(out.flatten().view(np.int64), ref.flatten().view(np.int64))

    def test_divergence_is_a_typed_error_naming_the_node(self):
        train, _, _, _ = make_fixture()
        cfg = TrainConfig([16, 8, 4], epochs=2, batch_size=16, lr_start=1e300)
        model = init_mlp(cfg.layer_dims, RandomStream(0, (45,)))
        with pytest.raises(DivergenceError, match="node training diverged on node 3") as exc:
            train_supervised(model, train.subset(np.arange(64)), cfg,
                             RandomStream(0, (46,)), node_id=3)
        assert (exc.value.phase, exc.value.node_id) == ("node training", 3)

    def test_non_finite_features_rejected_on_entry(self):
        train, _, _, _ = make_fixture()
        bad = train.subset(np.arange(32))
        bad.features[5, 2] = np.nan
        model = init_mlp([16, 4], RandomStream(0, (45,)))
        with pytest.raises(ValueError, match="features"):
            train_supervised(model, bad, TrainConfig([16, 4], epochs=1), RandomStream(0, (46,)))

    def test_feature_width_checked_on_entry(self):
        train, _, _, _ = make_fixture()
        model = init_mlp([8, 4], RandomStream(0, (45,)))
        with pytest.raises(DimensionError):
            train_supervised(model, train, TrainConfig([8, 4], epochs=1), RandomStream(0, (46,)))


# ---------------------------------------------------------------------------
# lockstep training: every node against the per-step oracle


def bits_equal(a: MlpModel, b: MlpModel) -> bool:
    return np.array_equal(a.flat.view(np.int64), b.flat.view(np.int64))


class TestLockstepTrainer:
    def mixed_jobs(self):
        """Shards of several sizes (one below the batch size), both label
        types, per-node epochs / learning rates / weight decay, and two
        FedAvg-style resumes: three stacks in one call."""
        single = make_fixture()[0]
        multi = multi_label_fixture(n=150)
        dims = [16, 12, 4]
        cfg = lambda e, lr, wd: TrainConfig(dims, epochs=e, batch_size=16, lr_start=lr,
                                           lr_end=0.01 * lr, weight_decay=wd)
        jobs = [  # (shard, cfg, total_steps, step_offset)
            (single.subset(np.arange(0, 1200, 8)), cfg(3, 0.1, 1e-3), None, 0),
            (single.subset(np.arange(3, 1200, 13)), cfg(2, 0.05, 0.0), None, 0),
            (single.subset(np.arange(5, 1200, 120)), cfg(4, 0.2, 0.0), None, 0),  # 10 rows
            (multi, cfg(2, 0.1, 1e-3), None, 0),
            (single.subset(np.arange(1, 1200, 10)), cfg(1, 0.1, 0.0), 40, 7),
            (multi.subset(np.arange(60)), cfg(3, 0.05, 1e-2), None, 0),
            (multi.subset(np.arange(60, 130)), cfg(1, 0.1, 0.0), 30, 4),
        ]
        models = [init_mlp(dims, RandomStream(8, (45, k))) for k in range(len(jobs))]
        return jobs, models

    def test_mixed_stacks_match_the_oracle_bit_for_bit(self):
        jobs, models = self.mixed_jobs()
        before = [m.copy() for m in models]
        out = train_lockstep(
            models, [j[0] for j in jobs], [j[1] for j in jobs],
            [RandomStream(8, (46, k)) for k in range(len(jobs))],
            total_steps=[j[2] for j in jobs], step_offsets=[j[3] for j in jobs],
        )
        for k, (ds, cfg, total, offset) in enumerate(jobs):
            ref = reference_train(before[k].copy(), ds, cfg, RandomStream(8, (46, k)),
                                  total, offset)
            assert bits_equal(out[k], ref), f"node {k}"
            assert bits_equal(models[k], before[k])  # the callers' models are untouched

    def test_train_locals_with_an_empty_shard_matches_the_oracle(self):
        train = make_fixture()[0]
        shards = [train.subset(np.arange(0, 1200, 8)), train.subset([]),
                  train.subset(np.arange(7, 1200, 150)), train.subset(np.arange(2, 1200, 11))]
        cfgs = [TrainConfig([16, 8, 4], epochs=e, batch_size=16, lr_start=lr, weight_decay=wd)
                for e, lr, wd in ((2, 0.1, 0.0), (2, 0.1, 0.0), (3, 0.05, 1e-3), (1, 0.2, 0.0))]
        handles = train_locals(shards, cfgs, 5)
        assert handles[1].model is None
        for k in (0, 2, 3):
            model = init_mlp(cfgs[k].layer_dims, RandomStream(5, (fedkd.protocol.STREAM_INIT, k)))
            ref = reference_train(model, shards[k], cfgs[k],
                                  RandomStream(5, (fedkd.protocol.STREAM_BATCH, k, 0)))
            assert bits_equal(handles[k].model, ref), f"node {k}"

    def test_fedavg_matches_a_per_round_oracle_loop(self):
        train, test, _, _ = make_fixture()
        plan = PartitionPlan([np.arange(0, 1200, 4), np.array([], dtype=int),
                              np.arange(1, 1200, 100), np.arange(2, 600, 3)], 1.0)
        cfg = TrainConfig([16, 8, 4], epochs=2, batch_size=16, lr_start=0.1,
                          weight_decay=1e-3)
        rounds = 3
        res = run_fedavg(train, test, plan, cfg, rounds=rounds, seed=4)

        shards = [train.subset(a) for a in plan.assignments]
        active = [k for k, s in enumerate(shards) if s.n]
        sizes = np.array([shards[k].n for k in active], dtype=np.float64)
        coef = sizes / sizes.sum()
        model = init_mlp(cfg.layer_dims, RandomStream(4, (fedkd.protocol.STREAM_INIT, 0)))
        for r in range(rounds):
            locals_ = []
            for k in active:
                steps = cfg.epochs * (shards[k].n // min(cfg.batch_size, shards[k].n))
                locals_.append(reference_train(
                    model.copy(), shards[k], cfg,
                    RandomStream(4, (fedkd.protocol.STREAM_BATCH, k, r)),
                    rounds * steps, r * steps))
            model.flat[:] = sum(c * m.flat for c, m in zip(coef, locals_))
        assert bits_equal(res.model, model)

    def test_empty_shard_and_length_mismatch_rejected(self):
        train = make_fixture()[0]
        model = init_mlp([16, 4], RandomStream(0, (45,)))
        cfg = TrainConfig([16, 4], epochs=1)
        with pytest.raises(ConfigurationError, match="empty dataset"):
            train_lockstep([model], [train.subset([])], [cfg], [RandomStream(0, (46,))])
        with pytest.raises(ConfigurationError, match="one entry per model"):
            train_lockstep([model], [train], [cfg], [RandomStream(0, (46,))],
                           total_steps=[None, None])


# ---------------------------------------------------------------------------
# the scheduling half of the determinism contract


def twenty_node_shards():
    train, _, _, plan = make_fixture(seed=2, nodes=20, alpha=0.3)
    return [train.subset(a) for a in plan.assignments]


SCHED_CFG = TrainConfig([16, 8, 4], epochs=2, batch_size=16, lr_start=0.1)


def lockstep_by_seed(shards, seeds):
    """train_lockstep over the given shards, each with its model and batch
    stream keyed by its own seed."""
    return train_lockstep(
        [init_mlp(SCHED_CFG.layer_dims, RandomStream(s, (45,))) for s in seeds],
        shards, [SCHED_CFG] * len(shards), [RandomStream(s, (46,)) for s in seeds])


class TestSchedulingDeterminism:
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
        train = make_fixture()[0]
        shards = [train.subset(np.arange(k, 1200, 10)) for k in range(5)]  # one stack
        cfgs = [TrainConfig([16, 8, 4], epochs=1, batch_size=16,
                            lr_start=1e300 if k in (1, 3) else 0.1) for k in range(5)]
        with pytest.raises(DivergenceError, match="node training diverged on node 1") as exc:
            train_locals(shards, cfgs, 0)
        assert exc.value.node_id == 1
