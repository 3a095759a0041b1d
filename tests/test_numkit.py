"""Numeric kernel: streams, cosine rate tables, MLP forward/backward, SGD."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedkd.numkit
import fedkd.protocol
from fedkd.datasets import SINGLE_LABEL, Dataset
from fedkd.errors import DimensionError, FedKdError, RangeError, ValidationError
from fedkd.numkit import (
    MlpModel,
    RandomStream,
    SgdJob,
    check_matrix,
    cosine_rates,
    init_mlp,
    mlp_backward,
    mlp_forward,
    sgd_step,
    train_sgd,
)
from fedkd.protocol import TrainConfig, softmax_xent_grad, train_lockstep

from conftest import mixed, old_forward_trace, same_bits


def naive_forward(model, batch):
    """Straight-line loop reimplementation of the forward pass (oracle)."""
    out = np.asarray(batch, dtype=np.float64)
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        nxt = np.zeros((out.shape[0], w.shape[1]))
        for r in range(out.shape[0]):
            for j in range(w.shape[1]):
                s = b[0, j]
                for i in range(w.shape[0]):
                    s += out[r, i] * w[i, j]
                nxt[r, j] = s if li == len(model.weights) - 1 else max(s, 0.0)
        out = nxt
    return out


def make_model(dims, seed=0):
    return init_mlp(dims, RandomStream(seed, (99,)))


class TestRandomStream:
    def test_equal_keys_replay_identical_sequences(self):
        a = RandomStream(7, (1, 2))
        b = RandomStream(7, (1, 2))
        assert np.array_equal(a.uniform(100), b.uniform(100))
        assert np.array_equal(a.gauss(50), b.gauss(50))

    def test_different_stream_ids_differ(self):
        a = RandomStream(7, (1,))
        b = RandomStream(7, (2,))
        assert not np.array_equal(a.uniform(100), b.uniform(100))

    def test_child_extends_key(self):
        parent = RandomStream(7, (3,))
        assert parent.child(4).stream_id == (3, 4)
        assert np.array_equal(
            parent.child(4).uniform(10), RandomStream(7, (3, 4)).uniform(10)
        )

    def test_uniform_mean_monte_carlo(self):
        u = RandomStream(0, (10,)).uniform(10**6)
        assert abs(u.mean() - 0.5) <= 0.002
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_gauss_variance_monte_carlo(self):
        g = RandomStream(0, (11,)).gauss(10**6)
        assert abs(g.var() - 1.0) <= 0.01

    def test_permutation_is_a_permutation(self):
        p = RandomStream(0, (12,)).permutation(500)
        assert sorted(p.tolist()) == list(range(500))

    def test_scalar_draw_helpers_pull_from_the_stream(self):
        u = RandomStream(5, (13,)).uniform()
        assert isinstance(u, float) and 0.0 <= u < 1.0
        assert u == float(RandomStream(5, (13,)).uniform())
        g = RandomStream(5, (14,)).gauss()
        assert isinstance(g, float)
        assert g == float(RandomStream(5, (14,)).gauss())


class TestCosineSchedule:
    def test_endpoints_exact(self):
        rates = cosine_rates(0.0025, 0.001, 100, 0, 101)
        assert rates[0] == 0.0025
        assert rates[100] == pytest.approx(0.001, abs=1e-18)

    def test_midpoint_is_arithmetic_mean(self):
        assert cosine_rates(0.0025, 0.001, 100, 50, 1).tolist() == [
            pytest.approx(0.00175, rel=1e-12)]

    def test_monotone_non_increasing(self):
        vals = cosine_rates(0.1, 0.001, 333, 0, 334)
        assert len(vals) == 334
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("start, count", [(0, 0), (0, 7), (3, 4), (5, 6), (10, 1), (11, 0)])
    def test_a_window_is_a_slice_of_the_whole_table(self, start, count):
        whole = cosine_rates(0.1, 0.001, 11, 0, 11)
        window = cosine_rates(0.1, 0.001, 11, start, count)
        assert window.tolist() == whole[start : start + count].tolist()

    def test_each_rate_has_the_bits_of_the_math_cos_formula(self):
        """A trace's ``lr`` column is written from this table, so each rate
        keeps the bits of the scalar ``math.cos`` formula."""
        expected = [0.02 + 0.5 * (0.1 - 0.02) * (1.0 + math.cos(math.pi * step / 97))
                    for step in range(13, 13 + 50)]
        assert cosine_rates(0.1, 0.02, 97, 13, 50).tolist() == expected

    @pytest.mark.parametrize("count", [2**62, 10**300])
    def test_a_count_no_table_holds_is_a_range_error(self, count):
        """The table is allocated in one call, so such a count fails before
        any rate is computed rather than growing a list until memory runs out."""
        with pytest.raises(RangeError, match=f"^no rate table holds {count} steps: "):
            cosine_rates(0.1, 0.0, count, 0, count)


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        model = MlpModel([3, 4, 2], [np.zeros((3, 4)), np.zeros((4, 2))],
                         [np.zeros((1, 4)), np.zeros((1, 2))])
        out = mlp_forward(model, RandomStream(0, (1,)).gauss((5, 3)))
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_identity_single_layer_passes_input_through(self):
        model = MlpModel([3, 3], [np.eye(3)], [np.zeros((1, 3))])
        x = RandomStream(0, (2,)).gauss((4, 3))
        assert np.array_equal(mlp_forward(model, x), x)

    def test_matches_naive_loop_oracle(self):
        model = make_model([5, 7, 6, 3], seed=3)
        x = RandomStream(3, (50,)).gauss((8, 5))
        np.testing.assert_allclose(mlp_forward(model, x), naive_forward(model, x),
                                   rtol=1e-10, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        model = make_model([5, 3])
        with pytest.raises(DimensionError):
            mlp_forward(model, np.zeros((2, 4)))

    def test_forward_deterministic_across_runs(self):
        x = RandomStream(1, (51,)).gauss((6, 4))
        a = mlp_forward(make_model([4, 8, 2], seed=9), x)
        b = mlp_forward(make_model([4, 8, 2], seed=9), x)
        assert np.array_equal(a, b)


class TestBackward:
    def test_zero_upstream_gradient_gives_zero_grads(self):
        model = make_model([4, 5, 2])
        x = RandomStream(0, (3,)).gauss((6, 4))
        grads = mlp_backward(model, x, np.zeros((6, 2)))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.weights)
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.biases)
        # the gradients are a model of the same dims with a buffer of their own
        assert grads.layer_dims == model.layer_dims
        assert not np.shares_memory(grads.flat, model.flat)
        assert all(np.shares_memory(a, grads.flat) for a in grads.weights + grads.biases)

    def test_single_linear_layer_weight_grad_is_outer_product(self):
        model = MlpModel([3, 2], [RandomStream(0, (4,)).gauss((3, 2))], [np.zeros((1, 2))])
        x = np.array([[1.0, -2.0, 0.5]])
        g = np.array([[0.3, -0.7]])
        grads = mlp_backward(model, x, g)
        np.testing.assert_allclose(grads.weights[0], x.T @ g, rtol=1e-15)
        np.testing.assert_allclose(grads.biases[0], g, rtol=1e-15)

    def test_gradients_match_finite_differences(self):
        # squared-sum loss over logits; h = 1e-5 central differences
        for seed in range(3):
            model = make_model([4, 6, 3], seed=seed)
            x = RandomStream(seed, (60,)).gauss((5, 4))

            def loss_at(m):
                z = mlp_forward(m, x)
                return float((z * z).sum())

            analytic = mlp_backward(model, x, 2.0 * mlp_forward(model, x))
            h = 1e-5
            for li in range(len(model.weights)):
                w = model.weights[li]
                for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                    mp, mm = model.copy(), model.copy()
                    mp.weights[li][idx] += h
                    mm.weights[li][idx] -= h
                    fd = (loss_at(mp) - loss_at(mm)) / (2 * h)
                    ref = analytic.weights[li][idx]
                    assert abs(fd - ref) <= 1e-4 * max(1.0, abs(ref))


class TestSgd:
    def test_zero_lr_leaves_model_unchanged(self):
        model = make_model([3, 2])
        grads = MlpModel([3, 2], [np.ones((3, 2))], [np.ones((1, 2))])
        out = sgd_step(model, grads, 0.0)
        assert np.array_equal(out.weights[0], model.weights[0])
        assert np.array_equal(out.biases[0], model.biases[0])

    def test_plain_step_arithmetic(self):
        model = MlpModel([1, 1], [np.array([[1.0]])], [np.zeros((1, 1))])
        grads = MlpModel([1, 1], [np.array([[2.0]])], [np.zeros((1, 1))])
        out = sgd_step(model, grads, 0.1)
        assert out.weights[0][0, 0] == pytest.approx(0.8, rel=1e-15)

    def test_pure_weight_decay_step(self):
        model = MlpModel([1, 1], [np.array([[1.0]])], [np.zeros((1, 1))])
        grads = MlpModel([1, 1], [np.zeros((1, 1))], [np.zeros((1, 1))])
        out = sgd_step(model, grads, 1.0, weight_decay=1.0)
        assert out.weights[0][0, 0] == 0.0

    def test_updates_the_given_model_in_place(self):
        model = make_model([3, 4, 2], seed=4)
        before = model.copy()
        arrays = model.weights + model.biases
        rs = RandomStream(4, (70,))
        grads = MlpModel(model.layer_dims, [rs.gauss(w.shape) for w in model.weights],
                         [rs.gauss(b.shape) for b in model.biases])
        out = sgd_step(model, grads, 0.1, weight_decay=0.01)
        assert out is model
        assert all(a is b for a, b in zip(out.weights + out.biases, arrays))
        for new, old, g in zip(out.weights + out.biases, before.weights + before.biases,
                               grads.weights + grads.biases):
            assert np.array_equal(new, old - 0.1 * (g + 0.01 * old))

    # values of a [2, 3, 1] model: signed zeros, any finite magnitude, mixed signs
    _params = st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False,
                       allow_infinity=False)), min_size=13, max_size=13)

    @given(p=_params, g=_params,
           lr=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
           wd=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    @settings(max_examples=300, deadline=None)
    def test_one_vector_update_equals_the_per_array_update_bit_for_bit(self, p, g, lr, wd):
        def split(v):  # the flat layout: w0 (2x3), b0, w1 (3x1), b1
            v = np.array(v)
            weights = [v[:6].reshape(2, 3), v[9:12].reshape(3, 1)]
            biases = [v[6:9].reshape(1, 3), v[12:].reshape(1, 1)]
            return weights, biases

        model = MlpModel([2, 3, 1], *split(p))
        grads = MlpModel([2, 3, 1], *split(g))
        with np.errstate(over="ignore", invalid="ignore"):
            ref = [a - lr * (ga + wd * a) for a, ga in zip(model.weights + model.biases,
                                                            grads.weights + grads.biases)]
            sgd_step(model, grads, lr, wd)
        ref_flat = np.concatenate([a.ravel() for a in (ref[0], ref[2], ref[1], ref[3])])
        assert np.array_equal(model.flat.view(np.int64), ref_flat.view(np.int64))


class TestModel:
    def test_parameter_count_formula(self):
        model = make_model([5, 7, 3])
        assert model.parameter_count() == (5 + 1) * 7 + (7 + 1) * 3

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            MlpModel([3, 2], [np.zeros((2, 2))], [np.zeros((1, 2))])
        with pytest.raises(DimensionError):
            MlpModel([3, 2], [np.zeros((3, 2))], [np.zeros((2,))])

    @pytest.mark.parametrize("dims", [[3, 0], [0, 2], [3, 0, 2]])
    def test_a_layer_of_width_zero_is_rejected(self, dims):
        message = f"need input and output dims, each >= 1, got {dims}"
        with pytest.raises(DimensionError, match=re.escape(message)):
            init_mlp(dims, RandomStream(0, (73,)))
        weights = [np.zeros((fi, fo)) for fi, fo in zip(dims[:-1], dims[1:])]
        with pytest.raises(DimensionError, match=re.escape(message)):
            MlpModel(dims, weights, [np.zeros((1, fo)) for fo in dims[1:]])

    def test_init_within_glorot_bounds_and_zero_bias(self):
        model = make_model([30, 20], seed=5)
        limit = math.sqrt(6.0 / 50)
        assert np.abs(model.weights[0]).max() <= limit
        assert np.array_equal(model.biases[0], np.zeros((1, 20)))

    def test_flatten_length_matches_parameter_count(self):
        model = make_model([4, 6, 2])
        assert model.flat.shape == (model.parameter_count(),)

    def test_constructor_copies_into_one_vector_in_frame_order(self):
        rs = RandomStream(0, (71,))
        weights, biases = [rs.gauss((2, 3)), rs.gauss((3, 4))], [rs.gauss((1, 3)), rs.gauss((1, 4))]
        given_arrays = [a.copy() for a in weights + biases]
        model = MlpModel([2, 3, 4], weights, biases)
        frame = np.concatenate([weights[0].ravel(), biases[0].ravel(),
                                weights[1].ravel(), biases[1].ravel()])
        assert model.flat.dtype == np.float64 and model.flat.flags.c_contiguous
        assert np.array_equal(model.flat, frame)
        assert model.flat.astype("<f8").tobytes() == frame.astype("<f8").tobytes()
        # the given arrays are copied, not aliased
        assert not any(np.shares_memory(model.flat, a) for a in weights + biases)
        model.flat += 1.0
        assert all(np.array_equal(a, b) for a, b in zip(weights + biases, given_arrays))
        # weights/biases are views into flat, so writes through either side agree
        assert all(np.shares_memory(a, model.flat) for a in model.weights + model.biases)
        model.weights[1][2, 3] = 7.0
        assert model.flat[6 + 3 + 11] == 7.0
        model.flat[6:9] = [1.0, 2.0, 3.0]
        assert np.array_equal(model.biases[0], [[1.0, 2.0, 3.0]])
        # copy owns its own buffer
        copied = model.copy()
        assert not np.shares_memory(copied.flat, model.flat)
        assert np.array_equal(copied.flat, model.flat)
        assert all(np.shares_memory(a, copied.flat) for a in copied.weights + copied.biases)

    def test_aliasing_rows_of_a_stack_share_its_memory(self):
        dims = [3, 4, 2]
        stack = RandomStream(0, (72,)).gauss((3, make_model(dims).parameter_count()))
        before = stack.copy()
        model = MlpModel.aliasing(dims, stack[1])
        grads = MlpModel.aliasing(dims, np.ones_like(stack[1]))
        # same values and layout as the copying constructor, but no copy
        copied = MlpModel(dims, model.weights, model.biases)
        assert np.array_equal(copied.flat, stack[1])
        assert np.shares_memory(model.flat, stack)
        sgd_step(model, grads, 0.5)
        assert np.array_equal(stack[1], before[1] - 0.5)
        assert np.array_equal(stack[[0, 2]], before[[0, 2]])  # other rows untouched
        # over a whole [K, P] stack, [K, fi, fo] / [K, 1, fo] views of the same rows
        weights, biases = fedkd.numkit._layer_views(dims, stack)
        assert weights[1].shape == (3, 4, 2) and biases[0].shape == (3, 1, 4)
        assert np.array_equal(weights[1][1], model.weights[1])
        assert np.array_equal(biases[0][1], model.biases[0])
        assert all(np.shares_memory(a, stack) for a in weights + biases)


# ---------------------------------------------------------------------------
# elementwise fast paths against the forms they replace

BLOCK = fedkd.numkit._BLOCK


@st.composite
def block_rows(draw, max_cols=70):
    """(rows, cols) of a 2-D array whose row count sits below, at or above
    a multiple of the rows in one _BLOCK-element block."""
    cols = draw(st.sampled_from([1, 3, 10, 64, max_cols]))
    per_block = BLOCK // cols
    rows = draw(st.sampled_from([1, per_block - 1, per_block, per_block + 1,
                                 2 * per_block + 3]))
    return max(rows, 1), cols


stacks = st.tuples(st.integers(1, 5), st.integers(1, 40), st.integers(1, 70))


class TestElementwiseFastPaths:
    """Each blocked pass gives the bits of the scalar or broadcast call it
    replaces, on non-finite, signed-zero and near-overflow values."""

    @settings(max_examples=40, deadline=None)
    @given(shape=st.one_of(block_rows(), stacks), relu=st.booleans(), seed=st.integers(0, 2**20))
    def test_bias_and_relu(self, shape, relu, seed):
        h = mixed(seed, shape)
        b = mixed(seed + 1, (*shape[:-2], 1, shape[-1]))
        with np.errstate(all="ignore"):
            want = h + b
            if relu:
                np.maximum(want, 0.0, out=want)
            fedkd.numkit._add_bias(h, b, relu)
        assert same_bits(h, want)

    @settings(max_examples=30, deadline=None)
    @given(shape=st.one_of(block_rows(), stacks), seed=st.integers(0, 2**20))
    def test_relu(self, shape, seed):
        a = mixed(seed, shape)
        want = np.maximum(a, 0.0)
        assert same_bits(fedkd.numkit._relu(a), want)

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (3, 0, 4)])
    def test_empty_arrays(self, shape):
        a = np.empty(shape)
        assert fedkd.numkit._relu(a).shape == shape

    @settings(max_examples=30, deadline=None)
    @given(shape=block_rows(), seed=st.integers(0, 2**20))
    def test_rowwise_multiply(self, shape, seed):
        a, row = mixed(seed, shape), mixed(seed + 1, (1, shape[1]))
        out = np.empty_like(a)
        with np.errstate(all="ignore"):
            want = a * row
            fedkd.numkit._rowwise(np.multiply, a, row, out)
        assert same_bits(out, want)

    @settings(max_examples=25, deadline=None)
    @given(shape=block_rows(max_cols=40), hidden=st.sampled_from([[8], [64], [5, 70]]),
           seed=st.integers(0, 2**20))
    def test_forward_trace_2d(self, shape, hidden, seed):
        rows, cols = shape
        model = make_model([cols, *hidden, 3], seed=seed % 97)
        model.flat[:] += mixed(seed, model.flat.shape, special_share=0.0) * 1e-2
        x = mixed(seed + 1, (rows, cols), special_share=0.02)
        with np.errstate(all="ignore"):
            new = fedkd.numkit._forward_trace(model.weights, model.biases, x)
            old = old_forward_trace(model.weights, model.biases, x)
        assert all(same_bits(a, b) for a, b in zip(new, old))

    @settings(max_examples=25, deadline=None)
    @given(stack=stacks, seed=st.integers(0, 2**20))
    def test_forward_trace_stacked(self, stack, seed):
        k, rows, cols = stack
        dims = [cols, 9, 4]
        params = mixed(seed, (k, make_model(dims).parameter_count()), special_share=0.05)
        weights, biases = fedkd.numkit._layer_views(dims, params)
        x = mixed(seed + 1, (k, rows, cols), special_share=0.05)
        with np.errstate(all="ignore"):
            new = fedkd.numkit._forward_trace(weights, biases, x)
            old = old_forward_trace(weights, biases, x)
        assert all(same_bits(a, b) for a, b in zip(new, old))


class TestCheckMatrix:
    def test_non_finite_entries_are_a_validation_error(self):
        with pytest.raises(ValidationError, match="x: non-finite entries") as exc:
            check_matrix(np.array([[1.0, np.inf]]), "x")
        assert isinstance(exc.value, FedKdError) and isinstance(exc.value, ValueError)


# ---------------------------------------------------------------------------
# the SGD loop

SGD_DIMS = [5, 7, 3]
SGD_B = 4
SGD_WD = 1e-3  # every call's one weight decay
# (rows, steps, lr_start, offset) at 4 rows per batch: 13 steps of 10 per
# epoch and 7 of 5 end mid-epoch, 12 of 6 at an epoch boundary, 2 of 4 inside
# the first epoch
SGD_SPEC = [(40, 13, 0.1, 0), (23, 7, 0.05, 2), (24, 12, 0.2, 0), (16, 2, 0.1, 5)]


def sgd_schedule(k, scale=1.0):
    """(lr_start, lr_end, total steps, first step) of job k's cosine schedule."""
    n, steps, lr, offset = SGD_SPEC[k]
    return scale * lr, 0.01 * lr, offset + steps, offset


def sgd_jobs(lr_scale=(1.0, 1.0, 1.0, 1.0)):
    """Fresh jobs (their streams unused), each on all its rows by index, with
    per-row teacher logits as its target."""
    data = RandomStream(3, (70,))
    jobs = []
    for k, ((n, steps, lr, offset), scale) in enumerate(zip(SGD_SPEC, lr_scale)):
        x = data.gauss((n, SGD_DIMS[0]))
        target = data.gauss((n, SGD_DIMS[-1]))
        jobs.append(SgdJob(make_model(SGD_DIMS, k), x, target, RandomStream(3, (71, k)),
                           cosine_rates(*sgd_schedule(k, scale), steps), np.arange(n)))
    return jobs


def l2_dlogits(z, t):
    """Logit gradient of (1/b) sum_i ||z_i - t_i||^2, for a stack or one model."""
    return (2.0 / z.shape[-2]) * (z - t)


def reference_sgd(job, b, dlogits, schedule, weight_decay=SGD_WD):
    """One job as the per-step chain of checked public calls on a copy of its
    rows, at the rates of ``schedule`` (lr_start, lr_end, total steps, first
    step), computed here inline."""
    lr_start, lr_end, total, offset = schedule
    model, x, target = job.model.copy(), job.x[job.rows], job.target[job.rows]
    per_epoch = x.shape[0] // b
    for step in range(len(job.rates)):
        j = step % per_epoch
        if j == 0:
            perm = job.stream.permutation(x.shape[0])
        idx = perm[j * b : (j + 1) * b]
        gz = dlogits(mlp_forward(model, x[idx]), target[idx])
        lr = lr_end + 0.5 * (lr_start - lr_end) * (
            1.0 + math.cos(math.pi * (offset + step) / total))
        model = sgd_step(model, mlp_backward(model, x[idx], gz), lr, weight_decay)
    return model


def bits(model):
    return model.flat.view(np.int64)


class TestTrainSgd:
    def test_a_stack_gives_every_job_the_bits_it_gets_alone(self):
        stacked = train_sgd(SGD_DIMS, SGD_B, sgd_jobs(), l2_dlogits, SGD_WD)
        reversed_ = train_sgd(SGD_DIMS, SGD_B, sgd_jobs()[::-1], l2_dlogits, SGD_WD)[::-1]
        for k in range(len(SGD_SPEC)):
            (alone,) = train_sgd(SGD_DIMS, SGD_B, [sgd_jobs()[k]], l2_dlogits, SGD_WD)
            assert np.array_equal(bits(stacked[k]), bits(alone)), f"job {k}"
            assert np.array_equal(bits(reversed_[k]), bits(alone)), f"job {k}"

    def test_every_job_follows_the_per_step_oracle(self):
        jobs = sgd_jobs()
        before = [job.model.copy() for job in jobs]
        out = train_sgd(SGD_DIMS, SGD_B, jobs, l2_dlogits, SGD_WD)
        for k, job in enumerate(sgd_jobs()):
            ref = reference_sgd(job, SGD_B, l2_dlogits, sgd_schedule(k))
            assert np.array_equal(bits(out[k]), bits(ref)), f"job {k}"
            assert np.array_equal(bits(jobs[k].model), bits(before[k]))  # inputs untouched

    def test_dlogits_sees_only_the_jobs_still_training(self):
        shapes = []

        def recording(z, target):
            shapes.append((z.shape, target.shape))
            return l2_dlogits(z, target)

        train_sgd(SGD_DIMS, SGD_B, sgd_jobs(), recording, SGD_WD)
        steps = [spec[1] for spec in SGD_SPEC]
        live = [sum(n > step for n in steps) for step in range(max(steps))]
        assert shapes == [((k, SGD_B, 3), (k, SGD_B, 3)) for k in live]

    def test_jobs_sharing_a_schedule_get_the_bits_they_get_alone(self):
        """Nodes 0 and 2 of one train_lockstep call (a FedAvg resume, round 1
        of 3) run 20 steps, nodes 1 and 3 run 10 and 8: the call computes one
        rate table per step count, the nodes of equal count share one list,
        and every node keeps the bits of its lone call and of the per-step
        oracle."""
        data = RandomStream(3, (74,))
        shards = [Dataset(data.gauss((n, SGD_DIMS[0])), data.integers(3, (n, 1)), SINGLE_LABEL, 3)
                  for n in (40, 23, 40, 16)]
        cfg = TrainConfig(SGD_DIMS[1:-1], epochs=2, batch_size=SGD_B, lr_start=0.1,
                          lr_end=0.001, weight_decay=1e-3)
        models = [make_model(SGD_DIMS, k) for k in range(len(shards))]

        def streams():
            return [RandomStream(3, (75, k)) for k in range(len(shards))]

        tables, jobs, decays = [], [], []

        def counting_rates(*args, _real=fedkd.protocol.cosine_rates):
            tables.append(_real(*args))
            return tables[-1]

        def capturing(dims, b, stack, dlogits, weight_decay, _real=fedkd.protocol.train_sgd):
            jobs.extend(stack)
            decays.append(weight_decay)
            return _real(dims, b, stack, dlogits, weight_decay)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fedkd.protocol, "cosine_rates", counting_rates)
            mp.setattr(fedkd.protocol, "train_sgd", capturing)
            out = train_lockstep(models, shards, cfg, streams(), rounds=3, round_index=1)
        assert [len(t) for t in tables] == [20, 10, 8]
        assert [job.rates for job in jobs] == [tables[0], tables[1], tables[0], tables[2]]
        assert jobs[0].rates is jobs[2].rates is tables[0]
        assert decays == [cfg.weight_decay]  # one stack, one decay

        def xent(z, y):
            return softmax_xent_grad(z, y)[1]

        for k, job in enumerate(jobs):
            (alone,) = train_lockstep([models[k]], [shards[k]], cfg, [streams()[k]],
                                      rounds=3, round_index=1)
            assert np.array_equal(bits(out[k]), bits(alone)), f"node {k}"
            steps = len(job.rates)
            ref = reference_sgd(dataclasses.replace(job, stream=streams()[k]), SGD_B, xent,
                                (0.1, 0.001, 3 * steps, steps), cfg.weight_decay)
            assert np.array_equal(bits(out[k]), bits(ref)), f"node {k}"

    def test_index_rows_give_the_bits_of_copied_rows(self):
        """Each job trains on index rows into one shared matrix (unsorted,
        repeated, and as few as one batch) and gives the bits, and leaves the
        stream, of the same job on a copy of those rows."""
        data = RandomStream(3, (72,))
        x = data.gauss((60, SGD_DIMS[0]))
        target = data.gauss((60, SGD_DIMS[-1]))
        picks = [np.arange(59, 19, -1), np.array([5, 5, 9, 1, 40, 33, 12, 7]),
                 np.arange(0, 60, 3), np.arange(SGD_B)]

        def jobs(on_rows):
            return [SgdJob(make_model(SGD_DIMS, k), x if on_rows else x[idx],
                           target if on_rows else target[idx], RandomStream(3, (73, k)),
                           cosine_rates(0.1, 0.001, 12, 1, steps),
                           idx if on_rows else np.arange(len(idx)))
                    for k, (idx, steps) in enumerate(zip(picks, (11, 6, 9, 3)))]

        indexed, copied = jobs(True), jobs(False)
        out = train_sgd(SGD_DIMS, SGD_B, indexed, l2_dlogits, SGD_WD)
        ref = train_sgd(SGD_DIMS, SGD_B, copied, l2_dlogits, SGD_WD)
        for k in range(len(picks)):
            assert np.array_equal(bits(out[k]), bits(ref[k])), f"job {k}"
            assert indexed[k].stream.uniform() == copied[k].stream.uniform()

    def test_diverging_jobs_come_back_as_none(self):
        """Jobs 1 and 3 end non-finite and come back as None; the others keep
        the bits of their lone calls. Naming the failure is the caller's."""
        def jobs():  # fresh streams per call
            return sgd_jobs(lr_scale=(1.0, 1e300, 1.0, 1e300))

        out = train_sgd(SGD_DIMS, SGD_B, jobs(), l2_dlogits, SGD_WD)
        assert [m is None for m in out] == [False, True, False, True]
        for k in (0, 2):
            (alone,) = train_sgd(SGD_DIMS, SGD_B, [jobs()[k]], l2_dlogits, SGD_WD)
            assert np.array_equal(bits(out[k]), bits(alone)), f"job {k}"
        assert train_sgd(SGD_DIMS, SGD_B, [jobs()[1]], l2_dlogits, SGD_WD) == [None]
