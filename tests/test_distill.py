"""Activations, distillation losses, the offline trainer, and evaluation."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedkd.datasets import Dataset, GaussianTaskSpec, MULTI_LABEL, SINGLE_LABEL, gen_gaussian_task
from fedkd.distill import (
    DistillConfig,
    KL,
    LOGIT_L2,
    binary_kl_loss,
    distill,
    distill_loss_grad,
    evaluate_multi,
    evaluate_single,
    mann_whitney_auc,
    sigmoid,
    softmax_tau,
    _softmax_rows,
)
from fedkd.errors import ConfigurationError, DimensionError, DivergenceError, EvaluationError
from fedkd.numkit import (
    MlpModel,
    RandomStream,
    init_mlp,
    mlp_forward,
)

from conftest import kl_loss, reference_distill


class TestSoftmaxTau:
    def test_symmetric_logits_split_evenly(self):
        np.testing.assert_allclose(softmax_tau(np.array([[0.0, 0.0]]), 3.0), [[0.5, 0.5]])

    def test_hand_value(self):
        np.testing.assert_allclose(softmax_tau(np.array([[math.log(2), 0.0]]), 1.0),
                                   [[2 / 3, 1 / 3]], rtol=1e-14)

    def test_high_temperature_flattens(self):
        p = softmax_tau(np.array([[5.0, -5.0]]), 1000.0)
        assert np.abs(p - 0.5).max() <= 0.005

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_always_a_probability_vector(self, logits):
        p = softmax_tau(np.array([logits]), 2.0)
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) <= 1e-12


def old_softmax_rows(z):
    """_softmax_rows with the row max taken along the last axis."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


class TestSoftmaxRows:
    @settings(max_examples=300, deadline=None)
    @given(
        lead=st.sampled_from([(), (1,), (5,), (3, 4), (2, 1, 3)]),
        classes=st.integers(1, 12),
        data=st.data(),
    )
    def test_bit_identical_to_the_last_axis_max(self, lead, classes, data):
        """1-D, 2-D and 3-D inputs with signed zeros, infinities and NaNs give
        the bits of the last-axis max form, NaN payloads included."""
        values = st.one_of(
            st.floats(-50.0, 50.0),
            st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308]),
        )
        n = classes * math.prod(lead)
        z = np.array(data.draw(st.lists(values, min_size=n, max_size=n)),
                     dtype=np.float64).reshape(*lead, classes)
        with np.errstate(all="ignore"):
            new, old = _softmax_rows(z.copy()), old_softmax_rows(z.copy())
        assert new.shape == old.shape == z.shape
        assert np.array_equal(new.view(np.int64), old.view(np.int64))


class TestSigmoid:
    def test_zero_gives_half(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_hand_value(self):
        assert sigmoid(np.array([math.log(3)]))[0] == pytest.approx(0.75, rel=1e-14)

    def test_complement_identity(self):
        z = RandomStream(0, (1,)).gauss(100) * 20
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-12)

    def test_extreme_inputs_stay_finite(self):
        assert np.isfinite(sigmoid(np.array([-1e4, 1e4]))).all()


class TestKl:
    def test_identical_distributions_zero(self):
        assert kl_loss([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_hand_value_ln2(self):
        assert kl_loss([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), rel=1e-12)

    @given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
           st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_non_negative(self, a, b):
        p = np.array(a) / np.sum(a)
        q = np.array(b) / np.sum(b)
        assert kl_loss(p, q) >= -1e-12

    def test_binary_variant_zero_on_match(self):
        p = np.array([0.2, 0.9])
        assert np.abs(binary_kl_loss(p, p)).max() <= 1e-15


class TestLogitL2:
    CFG = DistillConfig(steps=1, batch_size=1, loss_mode=LOGIT_L2)

    def test_matching_logits_zero_loss(self):
        z = np.array([[1.0, -2.0]])
        loss, grad = distill_loss_grad(z, z.copy(), self.CFG)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(z))

    def test_hand_value(self):
        loss, grad = distill_loss_grad(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]),
                                       self.CFG)
        assert loss == pytest.approx(5.0, rel=1e-15)
        np.testing.assert_allclose(grad, [[2.0, 4.0]], rtol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rs = RandomStream(0, (40,))
        student = rs.gauss((4, 3))
        teacher = rs.gauss((4, 3))
        _, grad = distill_loss_grad(student, teacher, self.CFG)
        h = 1e-6
        for idx in [(0, 0), (2, 1), (3, 2)]:
            sp, sm = student.copy(), student.copy()
            sp[idx] += h
            sm[idx] -= h
            fd = (distill_loss_grad(sp, teacher, self.CFG)[0]
                  - distill_loss_grad(sm, teacher, self.CFG)[0]) / (2 * h)
            assert abs(fd - grad[idx]) <= 1e-6 * max(1.0, abs(grad[idx]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            distill_loss_grad(np.zeros((2, 2)), np.zeros((2, 3)), self.CFG)

    def test_direct_function_matches_dispatch(self):
        # the closed form (1/B)·sum (s - t)^2, (2/B)(s - t), and the default
        # DistillConfig's logit_l2 loss, against the dispatch of self.CFG
        s, t = np.array([[1.0, 2.0], [0.0, -3.0]]), np.array([[0.5, -1.0], [2.0, 2.0]])
        loss_a, grad_a = distill_loss_grad(s, t, DistillConfig(loss_mode=LOGIT_L2))
        loss_b, grad_b = distill_loss_grad(s, t, self.CFG)
        assert loss_a == loss_b == ((s - t) ** 2).sum() / 2
        assert np.array_equal(grad_a, grad_b)
        assert np.array_equal(grad_b, (2.0 / 2) * (s - t))


class TestKlMode:
    def test_requires_finite_tau(self):
        with pytest.raises(ConfigurationError):
            DistillConfig(loss_mode=KL)

    def test_unknown_task_rejected(self):
        cfg = DistillConfig(steps=1, batch_size=1, tau=2.0, loss_mode=KL)
        with pytest.raises(ConfigurationError, match="unknown task"):
            distill_loss_grad(np.zeros((1, 2)), np.zeros((1, 2)), cfg, task="multi")

    def test_single_label_gradient_matches_finite_differences(self):
        cfg = DistillConfig(steps=1, batch_size=1, tau=2.0, loss_mode=KL)
        rs = RandomStream(1, (41,))
        student, teacher = rs.gauss((3, 4)), rs.gauss((3, 4))
        _, grad = distill_loss_grad(student, teacher, cfg)
        h = 1e-6
        for idx in [(0, 0), (1, 3), (2, 2)]:
            sp, sm = student.copy(), student.copy()
            sp[idx] += h
            sm[idx] -= h
            fd = (distill_loss_grad(sp, teacher, cfg)[0]
                  - distill_loss_grad(sm, teacher, cfg)[0]) / (2 * h)
            assert abs(fd - grad[idx]) <= 1e-5 * max(1.0, abs(grad[idx]))

    def test_multi_label_gradient_matches_finite_differences(self):
        cfg = DistillConfig(steps=1, batch_size=1, tau=1.5, loss_mode=KL)
        rs = RandomStream(2, (42,))
        student, teacher = rs.gauss((2, 3)), rs.gauss((2, 3))
        _, grad = distill_loss_grad(student, teacher, cfg, task=MULTI_LABEL)
        h = 1e-6
        for idx in [(0, 0), (1, 2)]:
            sp, sm = student.copy(), student.copy()
            sp[idx] += h
            sm[idx] -= h
            fd = (distill_loss_grad(sp, teacher, cfg, task=MULTI_LABEL)[0]
                  - distill_loss_grad(sm, teacher, cfg, task=MULTI_LABEL)[0]) / (2 * h)
            assert abs(fd - grad[idx]) <= 1e-5 * max(1.0, abs(grad[idx]))

    def test_high_temperature_gradient_aligns_with_l2(self):
        rs = RandomStream(3, (43,))
        student = rs.gauss((6, 5))
        teacher = rs.gauss((6, 5))
        student -= student.mean(axis=1, keepdims=True)
        teacher -= teacher.mean(axis=1, keepdims=True)
        _, g_l2 = distill_loss_grad(student, teacher,
                                    DistillConfig(steps=1, batch_size=1))
        cfg = DistillConfig(steps=1, batch_size=1, tau=1e4, loss_mode=KL)
        _, g_kl = distill_loss_grad(student, teacher, cfg)
        cos = (g_l2.ravel() @ g_kl.ravel()) / (
            np.linalg.norm(g_l2) * np.linalg.norm(g_kl))
        assert cos >= 0.999


class TestBatchKl:
    @settings(max_examples=80, deadline=None)
    @given(
        classes=st.sampled_from([2, 3, 5, 7, 8, 9, 10, 16, 31]),
        rows=st.integers(1, 40),
        tau=st.sampled_from([0.5, 1.0, 2.0, 4.0, 7.5]),
        seed=st.integers(0, 2**20),
    )
    def test_equals_the_scaled_sum_of_row_kl_losses(self, classes, rows, tau, seed):
        rs = RandomStream(seed, (60,))
        student = 4.0 * rs.gauss((rows, classes))
        teacher = 4.0 * rs.gauss((rows, classes))
        # logits far below the row max soften to probability exactly 0
        far = rs.uniform((rows, classes)) < 0.3
        far[:, -1] = False
        far[0, 0] = True
        teacher[far] = -1e6
        p, q = softmax_tau(teacher, tau), softmax_tau(student, tau)
        assert (p[0] == 0.0).any()
        cfg = DistillConfig(steps=1, batch_size=1, tau=tau, loss_mode=KL)
        loss, _ = distill_loss_grad(student, teacher, cfg)
        assert loss == (tau * tau / rows) * sum(kl_loss(p[i], q[i]) for i in range(rows))


def public_features(n=400, dim=6, seed=0):
    return RandomStream(seed, (44,)).gauss((n, dim))


class TestDistillTrainer:
    def test_own_logits_are_a_fixed_point(self):
        model = init_mlp([6, 8, 3], RandomStream(0, (45,)))
        x = public_features()
        teacher = mlp_forward(model, x)
        cfg = DistillConfig(steps=50, batch_size=32, lr_start=0.1)
        out, trace = distill(model, x, teacher, cfg, RandomStream(0, (46,)))
        assert all(rec["loss"] == 0.0 for rec in trace)
        for a, b in zip(out.weights, model.weights):
            assert np.array_equal(a, b)

    def test_zero_lr_returns_input_bit_identical(self):
        model = init_mlp([6, 8, 3], RandomStream(1, (45,)))
        x = public_features(seed=1)
        teacher = RandomStream(1, (47,)).gauss((400, 3))
        cfg = DistillConfig(steps=30, batch_size=32, lr_start=0.0, lr_end=0.0)
        out, _ = distill(model, x, teacher, cfg, RandomStream(0, (46,)))
        for a, b in zip(out.weights + out.biases, model.weights + model.biases):
            assert np.array_equal(a, b)

    def test_student_learns_teacher_argmax(self):
        means = 6.0 * np.eye(3, 6)
        spec = GaussianTaskSpec(3, 6, 150, means)
        ref_data = gen_gaussian_task(spec, RandomStream(5, (48,)))
        from fedkd.protocol import TrainConfig, train_supervised

        teacher_model = init_mlp([6, 16, 3], RandomStream(5, (45,)))
        teacher_model = train_supervised(teacher_model, ref_data,
                                         TrainConfig([16], epochs=20),
                                         RandomStream(5, (49,)))
        x = gen_gaussian_task(spec, RandomStream(6, (48,))).features
        teacher = mlp_forward(teacher_model, x)
        student = init_mlp([6, 16, 3], RandomStream(7, (45,)))
        cfg = DistillConfig(steps=2000, batch_size=64, lr_start=0.05)
        student, trace = distill(student, x, teacher, cfg, RandomStream(7, (46,)))
        agree = (mlp_forward(student, x).argmax(1) == teacher.argmax(1)).mean()
        assert agree >= 0.95
        # smoothed loss decreases over 100-step windows
        losses = np.array([rec["loss"] for rec in trace])
        windows = losses[: len(losses) // 100 * 100].reshape(-1, 100).mean(axis=1)
        assert all(b <= a * 1.02 + 1e-9 for a, b in zip(windows, windows[1:]))
        assert windows[-1] < windows[0]

    def test_batch_larger_than_public_set_rejected(self):
        model = init_mlp([6, 3], RandomStream(0, (45,)))
        with pytest.raises(ConfigurationError):
            distill(model, public_features(n=10), np.zeros((10, 3)),
                    DistillConfig(steps=1, batch_size=11), RandomStream(0, (46,)))

    @pytest.mark.parametrize("mode,task,tau", [
        (LOGIT_L2, SINGLE_LABEL, math.inf),
        (KL, SINGLE_LABEL, 3.0),
        (KL, SINGLE_LABEL, 0.7),
        (KL, MULTI_LABEL, 2.0),
    ])
    def test_bit_identical_to_the_public_per_step_chain(self, mode, task, tau):
        model = init_mlp([6, 9, 5], RandomStream(2, (45,)))
        before = model.copy()
        x = public_features(n=200, seed=2)
        teacher = 3.0 * RandomStream(2, (47,)).gauss((200, 5))
        cfg = DistillConfig(steps=40, batch_size=32, lr_start=0.1, lr_end=0.01,
                            weight_decay=1e-3, tau=tau, loss_mode=mode)
        out, trace = distill(model, x, teacher, cfg, RandomStream(2, (46,)), task=task)
        ref, ref_trace = reference_distill(model.copy(), x, teacher, cfg, RandomStream(2, (46,)),
                                           task)
        assert [r["loss"] for r in trace] == [r["loss"] for r in ref_trace]
        assert trace == ref_trace
        for a, b in zip(out.weights + out.biases, ref.weights + ref.biases):
            assert np.array_equal(a, b)
        # the caller's model is untouched
        for a, b in zip(model.weights + model.biases, before.weights + before.biases):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode,task,tau", [
        (LOGIT_L2, SINGLE_LABEL, math.inf),
        (KL, SINGLE_LABEL, 2.0),
        (KL, MULTI_LABEL, 2.0),
    ])
    def test_bit_identical_with_a_dropped_tail_and_no_weight_decay(self, mode, task, tau):
        # 203 rows in batches of 25: 8 batches an epoch and 3 rows dropped; 30
        # steps end part-way through the fourth epoch
        model = init_mlp([6, 9, 5], RandomStream(3, (45,)))
        x = public_features(n=203, seed=3)
        teacher = 3.0 * RandomStream(3, (47,)).gauss((203, 5))
        cfg = DistillConfig(steps=30, batch_size=25, lr_start=0.2, lr_end=0.0,
                            tau=tau, loss_mode=mode)
        out, trace = distill(model, x, teacher, cfg, RandomStream(3, (46,)), task=task)
        ref, ref_trace = reference_distill(model.copy(), x, teacher, cfg, RandomStream(3, (46,)),
                                           task)
        assert trace == ref_trace
        assert np.array_equal(out.flat.view(np.int64), ref.flat.view(np.int64))

    @pytest.mark.parametrize("mode,task,tau", [
        (LOGIT_L2, SINGLE_LABEL, math.inf),
        (KL, SINGLE_LABEL, 3.0),
        (KL, MULTI_LABEL, 2.0),
    ])
    def test_a_stack_matches_each_jobs_per_step_chain(self, mode, task, tau):
        """Three students on public sets of 200, 203 and 64 rows, each with its
        own teacher and stream, in one stacked call: every model and trace is
        its own per-step chain's."""
        cfg = DistillConfig(steps=40, batch_size=25, lr_start=0.1, lr_end=0.01,
                            weight_decay=1e-3, tau=tau, loss_mode=mode)
        models = [init_mlp([6, 9, 5], RandomStream(k, (45,))) for k in range(3)]
        xs = [public_features(n=n, seed=k) for k, n in enumerate((200, 203, 64))]
        teachers = [3.0 * RandomStream(k, (47,)).gauss((x.shape[0], 5)) for k, x in enumerate(xs)]
        out = distill(models, xs, teachers, cfg, [RandomStream(k, (46,)) for k in range(3)],
                      task=task)
        assert len(out) == 3
        for k, (model, trace) in enumerate(out):
            ref, ref_trace = reference_distill(models[k].copy(), xs[k], teachers[k], cfg,
                                               RandomStream(k, (46,)), task)
            assert trace == ref_trace
            assert np.array_equal(model.flat.view(np.int64), ref.flat.view(np.int64))

    @pytest.mark.parametrize("mode,task,tau", [
        (LOGIT_L2, SINGLE_LABEL, math.inf),
        (KL, SINGLE_LABEL, 3.0),
        (KL, MULTI_LABEL, 2.0),
    ])
    def test_without_a_trace_every_model_keeps_its_bits(self, mode, task, tau):
        """keep_trace=False drops the trace, alone and stacked, and changes no
        model bit."""
        cfg = DistillConfig(steps=40, batch_size=25, lr_start=0.1, lr_end=0.01,
                            weight_decay=1e-3, tau=tau, loss_mode=mode)
        models = [init_mlp([6, 9, 5], RandomStream(k, (45,))) for k in range(3)]
        xs = [public_features(n=n, seed=k) for k, n in enumerate((200, 203, 64))]
        teachers = [3.0 * RandomStream(k, (47,)).gauss((x.shape[0], 5)) for k, x in enumerate(xs)]

        def streams():
            return [RandomStream(k, (46,)) for k in range(3)]

        traced = distill(models, xs, teachers, cfg, streams(), task=task)
        untraced = distill(models, xs, teachers, cfg, streams(), task=task, keep_trace=False)
        for k, ((model, trace), (bare, no_trace)) in enumerate(zip(traced, untraced)):
            assert len(trace) == 40 and no_trace is None
            assert np.array_equal(bare.flat.view(np.int64), model.flat.view(np.int64))
            alone, alone_trace = distill(models[k], xs[k], teachers[k], cfg, streams()[k],
                                         task=task, keep_trace=False)
            assert alone_trace is None
            assert np.array_equal(alone.flat.view(np.int64), model.flat.view(np.int64))

    def test_a_stack_needs_one_layer_dims(self):
        models = [init_mlp([6, h, 3], RandomStream(h, (45,))) for h in (8, 9)]
        x = public_features(n=64)
        with pytest.raises(DimensionError, match="stacked students have dims"):
            distill(models, [x, x], [np.zeros((64, 3))] * 2, DistillConfig(steps=1, batch_size=16),
                    [RandomStream(k, (46,)) for k in range(2)])

    def test_divergence_is_a_typed_error_without_warnings(self):
        model = init_mlp([6, 8, 3], RandomStream(0, (45,)))
        cfg = DistillConfig(steps=20, batch_size=16, lr_start=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="distillation diverged") as exc:
                distill(model, public_features(n=64), 5.0 * np.ones((64, 3)), cfg,
                        RandomStream(0, (46,)))
        assert (exc.value.phase, exc.value.node_id) == ("distillation", None)

    def test_trace_records_step_loss_lr(self):
        model = init_mlp([6, 3], RandomStream(0, (45,)))
        cfg = DistillConfig(steps=5, batch_size=16, lr_start=0.05)
        _, trace = distill(model, public_features(n=64), np.ones((64, 3)), cfg,
                           RandomStream(0, (46,)))
        assert [rec["step"] for rec in trace] == [0, 1, 2, 3, 4]
        assert trace[0]["lr"] == 0.05


def identity_model(c):
    return MlpModel([c, c], [np.eye(c)], [np.zeros((1, c))])


class TestEvaluateSingle:
    def test_accuracy_fraction(self):
        ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
                     np.array([[0], [1], [1]]), SINGLE_LABEL, 2)
        assert evaluate_single(identity_model(2), ds) == pytest.approx(2 / 3)

    def test_argmax_tie_goes_to_lowest_index(self):
        ds = Dataset(np.array([[2.0, 2.0]]), np.array([[0]]), SINGLE_LABEL, 2)
        assert evaluate_single(identity_model(2), ds) == 1.0

    def test_empty_set_rejected(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros((0, 1), dtype=int), SINGLE_LABEL, 2)
        with pytest.raises(EvaluationError):
            evaluate_single(identity_model(2), ds)


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert mann_whitney_auc(scores, labels) == 1.0

    def test_hand_fixture_three_of_four_pairs(self):
        scores = np.array([0.9, 0.4, 0.8, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert mann_whitney_auc(scores, labels) == pytest.approx(0.75)

    def test_unknown_labels_excluded(self):
        scores = np.array([0.9, 0.4, 0.8, 0.1, 99.0, -99.0])
        labels = np.array([1, 1, 0, 0, -1, -1])
        assert mann_whitney_auc(scores, labels) == pytest.approx(0.75)

    def test_ties_use_midranks(self):
        scores = np.array([0.5, 0.5])
        labels = np.array([1, 0])
        assert mann_whitney_auc(scores, labels) == pytest.approx(0.5)

    def test_random_scores_near_half(self):
        rs = RandomStream(0, (50,))
        scores = rs.gauss(20000)
        labels = (rs.uniform(20000) < 0.5).astype(int)
        assert abs(mann_whitney_auc(scores, labels) - 0.5) <= 0.02

    def test_invariant_under_monotone_transform(self):
        rs = RandomStream(1, (50,))
        scores = rs.gauss(500)
        labels = (rs.uniform(500) < 0.3).astype(int)
        base = mann_whitney_auc(scores, labels)
        assert mann_whitney_auc(np.exp(scores), labels) == pytest.approx(base, rel=1e-12)
        assert mann_whitney_auc(3.0 * scores + 7.0, labels) == pytest.approx(base, rel=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError):
            mann_whitney_auc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_nan_score_gives_nan(self):
        assert math.isnan(mann_whitney_auc(np.array([0.1, np.nan, 0.3]), np.array([1, 0, 0])))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(
            st.one_of(
                st.integers(-3, 3).map(float),  # many ties
                st.sampled_from([-0.0, 0.0]),
                st.floats(allow_nan=False, width=64),
            ),
            st.sampled_from([-1, 0, 1]),
        ),
        min_size=2, max_size=60,
    ))
    def test_equals_the_pair_count_exactly(self, rows):
        """(#{s_pos > s_neg} + 1/2 #{s_pos == s_neg}) / (n_pos n_neg), with
        label -1 rows dropped; -0.0 and 0.0 tie."""
        pos = [s for s, y in rows if y == 1]
        neg = [s for s, y in rows if y == 0]
        if not pos or not neg:
            return
        wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
        scores = np.array([s for s, _ in rows])
        labels = np.array([y for _, y in rows])
        assert mann_whitney_auc(scores, labels) == wins / (len(pos) * len(neg))


class TestEvaluateMulti:
    def test_per_class_and_mean(self):
        feats = np.array([[0.9, 0.9], [0.8, 0.1], [0.4, 0.8], [0.1, 0.4]])
        labels = np.array([[1, 1], [0, 0], [1, 1], [0, 0]])
        out = evaluate_multi(identity_model(2), Dataset(feats, labels, MULTI_LABEL, 2))
        assert out.per_class[0] == pytest.approx(0.75)
        assert out.per_class[1] == pytest.approx(1.0)
        assert out.mean_auc == pytest.approx(0.875)

    def test_classes_without_both_labels_excluded_from_mean(self):
        feats = np.array([[0.9, 0.5], [0.1, 0.5]])
        labels = np.array([[1, 1], [0, 1]])  # class 1 has no negatives
        out = evaluate_multi(identity_model(2), Dataset(feats, labels, MULTI_LABEL, 2))
        assert np.isnan(out.per_class[1])
        assert out.mean_auc == pytest.approx(out.per_class[0])

    def test_no_valid_class_rejected(self):
        feats = np.array([[0.9, 0.5]])
        labels = np.array([[1, -1]])
        with pytest.raises(EvaluationError):
            evaluate_multi(identity_model(2), Dataset(feats, labels, MULTI_LABEL, 2))
