"""Cost ledger, local training, logit collection, and the three full runs."""
import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedkd.numkit
import fedkd.protocol
from fedkd.cli import SyntheticTask, build_data, parse_dict

from fedkd.datasets import (
    CsvSchema,
    Dataset,
    GaussianTaskSpec,
    MULTI_LABEL,
    PartitionPlan,
    SINGLE_LABEL,
    dirichlet_partition,
    gen_gaussian_task,
    profile_of,
)
from fedkd.distill import KL, DistillConfig, evaluate_single, softmax_tau
from fedkd.ensemble import (
    EnsembleConfig,
    LogitBlock,
    UNIFORM,
    WeightTable,
    ensemble,
    importance_weights,
    quantize_array,
)
from fedkd.errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    FedKdError,
    RangeError,
    ValidationError,
)
from fedkd.numkit import (
    MlpModel,
    RandomStream,
    init_mlp,
    mlp_forward,
    one_blas_thread,
)
from fedkd.protocol import (
    _stage,
    _train_cells,
    _xent_dlogits,
    BandwidthLedger,
    FedKdCell,
    FedKdRun,
    NodeHandle,
    STREAM_QUERY,
    TrainConfig,
    collect_logits,
    ledger_report,
    masked_bce_grad,
    run_fedavg,
    run_fedkd,
    softmax_xent_grad,
    train_lockstep,
    train_supervised,
)

from conftest import (mixed, needs_openblas, old_forward_trace, reference_fedkd,
                      reference_train, run_centralized, run_python, same_bits, subset,
                      traced_peak, write_csv_task)


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
    return PartitionPlan([np.arange(ds.n)])


def base_run(**overrides):
    kw = dict(
        node=NODE_CFG,
        distill=DistillConfig(steps=300, batch_size=64, lr_start=0.05),
        central_hidden_dims=[32],
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

    @pytest.mark.parametrize("repeats", [2**53, 2**63, 10**30])
    def test_repeats_float64_cannot_hold_rejected_before_any_query(self, repeats):
        handles = self.make_handles(1)
        with pytest.raises(ConfigurationError, match=r"^repeats must be < 2\*\*53$"):
            collect_logits(handles, np.zeros((4, 16)), repeats=repeats)
        assert handles[0].query_rows == 0

    def test_the_largest_count_float64_holds_passes(self):
        """2**53 - 1 is a count float64 holds exactly; it passes the check
        (and is never run here)."""
        assert FedKdRun(repeats=2**53 - 1).repeats == 2**53 - 1

    def test_negative_query_noise_rejected(self):
        handles = self.make_handles(2)
        with pytest.raises(ConfigurationError, match="^query_noise must be >= 0$"):
            collect_logits(handles, np.zeros((4, 16)), repeats=2, noise_scale=-0.5)
        assert [h.query_rows for h in handles] == [0, 0]

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

    @pytest.mark.parametrize("scale", [5e-324, 1e-3, 0.5, 7.0, 1e300])
    def test_noisy_copy_has_the_bits_of_features_plus_scaled_noise(self, monkeypatch, scale):
        """Each noisy pass forwards exactly public + scale * gauss, the draw of
        its (node, pass) stream, over features of mixed magnitudes."""
        public = mixed(7, (40, 16), special_share=0.0)
        seen = []

        def forward(weights, biases, x, _real=fedkd.protocol._forward_trace):
            seen.append(x.copy())
            return _real(weights, biases, np.zeros_like(x))  # finite logits at any scale

        monkeypatch.setattr(fedkd.protocol, "_forward_trace", forward)
        collect_logits(self.make_handles(2), public, repeats=2, noise_scale=scale, seed=5)
        want = [public + scale * RandomStream(5, (STREAM_QUERY, i, r)).gauss(public.shape)
                for i in range(2) for r in range(2)]
        assert len(seen) == 4 and all(same_bits(a, b) for a, b in zip(seen, want))

    def test_a_noisy_pass_holds_one_copy_of_the_public_features(self):
        """The noisy copy is built in the draw's buffer: with two noisy passes
        the traced peak stays below two public copies (a narrow model keeps
        its activations small beside them)."""
        public = RandomStream(6, (907,)).gauss((20000, 64))
        handles = [NodeHandle(0, np.arange(0), init_mlp([64, 2, 2], RandomStream(6, (908,))))]
        peak = traced_peak(lambda: collect_logits(handles, public, repeats=2, noise_scale=0.5,
                                                  seed=1))
        assert peak < 2 * public.nbytes, (peak, public.nbytes)


OVERFLOWING_QUERY = """
import numpy as np
from fedkd.errors import ValidationError
from fedkd.numkit import RandomStream, init_mlp
from fedkd.protocol import NodeHandle, collect_logits
handles = [NodeHandle(k, np.arange(0), init_mlp([32, 64, 10], RandomStream(1, (k,))))
           for k in range(2)]
handles[1].model.flat *= 1e200
try:
    collect_logits(handles, RandomStream(2, (0,)).gauss((50000, 32)))
except ValidationError as err:
    print(err)
"""


class TestSplitQuery:
    """While OpenBLAS is pinned to one thread, a query pass of 2**15 rows
    (twice protocol.SPLIT_ROWS) or more runs as two row halves on two
    threads, with the bits of one pass."""

    @staticmethod
    def handles(dims):
        return [NodeHandle(k, np.arange(0), init_mlp(dims, RandomStream(11, (930, k))))
                for k in range(2)]

    @staticmethod
    def reference(h, public, repeats, noise):
        """A node's block by old_forward_trace: the mean of its passes."""
        passes = []
        for r in range(repeats):
            x = public
            if noise:
                x = public + noise * RandomStream(4, (STREAM_QUERY, h.node_id, r)).gauss(x.shape)
            passes.append(old_forward_trace(h.model.weights, h.model.biases, x)[-1])
        return sum(passes[1:], passes[0]) / repeats

    @staticmethod
    def count_splits(monkeypatch) -> list:
        calls, real = [], fedkd.protocol._split_forward
        monkeypatch.setattr(fedkd.protocol, "_split_forward",
                            lambda *args: calls.append(1) or real(*args))
        return calls

    @needs_openblas
    @pytest.mark.parametrize("rows", [2**15, 50_000])  # 2 * SPLIT_ROWS: the least that splits
    @pytest.mark.parametrize("dims", [[32, 64, 10], [32, 64, 32, 10]])
    @pytest.mark.parametrize("repeats, noise", [(1, 0.0), (2, 0.0), (1, 0.5), (2, 0.5)])
    def test_split_passes_have_the_bits_of_one_pass(self, monkeypatch, rows, dims, repeats,
                                                    noise):
        public = RandomStream(12, (931,)).gauss((rows, 32))
        handles, splits = self.handles(dims), self.count_splits(monkeypatch)
        blocks = collect_logits(handles, public, repeats, noise, seed=4)
        assert len(splits) == 2 * repeats
        for h, block in zip(handles, blocks):
            assert same_bits(block.logits, self.reference(h, public, repeats, noise))

    @pytest.mark.parametrize("pinned, rows", [
        (False, 50_000), pytest.param(True, 2**15 - 1, marks=needs_openblas)])
    def test_no_split_without_the_pin_or_below_two_halves_of_split_rows(
            self, monkeypatch, pinned, rows):
        if not pinned:
            monkeypatch.setattr(fedkd.numkit, "_openblas", lambda: None)
        public = RandomStream(12, (932,)).gauss((rows, 32))
        handles, splits = self.handles([32, 64, 10]), self.count_splits(monkeypatch)
        blocks = collect_logits(handles, public)
        assert splits == []
        for h, block in zip(handles, blocks):
            assert same_bits(block.logits, self.reference(h, public, 1, 0.0))

    @staticmethod
    def floor(dims) -> int:
        """The chunk floor: every layer's rows*fi*fo at least 2**20, never below
        2**12 rows, rounded up to a multiple of 16."""
        return max(2**12, -(-2**20 // (16 * min(fi * fo for fi, fo in zip(dims, dims[1:])))) * 16)

    def pinned_reference(self, h, public):
        """A node's one-pass block under the pin, as collect_logits runs it: on
        Haswell-family kernels a two-thread OpenBLAS dgemm can differ from a
        one-thread one in the last bits."""
        with one_blas_thread():
            return self.reference(h, public, 1, 0.0)

    @staticmethod
    def count_chunks(monkeypatch, public) -> list:
        """(first row, rows) of every _forward_trace call of a split pass over
        ``public``, from either thread, in row order."""
        chunks, real = [], fedkd.numkit._forward_trace

        def forward(weights, biases, x, out=None):
            chunks.append(((x.ctypes.data - public.ctypes.data) // public.strides[0], len(x)))
            return real(weights, biases, x, out)

        monkeypatch.setattr(fedkd.numkit, "_forward_trace", forward)
        return chunks

    @pytest.mark.parametrize("dims, rows", [([8, 16, 2], 2**15), ([8, 16, 2], 50_000),
                                            ([32, 16, 3], 2**15)])
    def test_a_narrow_layer_keeps_the_bits_of_one_pass(self, dims, rows):
        """A layer whose halves would run OpenBLAS's small-matrix kernel
        (rows*fi*fo <= 100**3 on SkylakeX) keeps the bits of one pass: its
        halves fall below the chunk floor, so the pass is not split."""
        public = RandomStream(12, (933,)).gauss((rows, dims[0]))
        handles = self.handles(dims)
        for h, block in zip(handles, collect_logits(handles, public)):
            assert same_bits(block.logits, self.pinned_reference(h, public))

    @needs_openblas
    def test_a_long_pass_runs_as_near_equal_chunks_cut_at_multiples_of_16(self, monkeypatch):
        """50,000 rows of [32, 64, 10] (floor 2**12) run as 6 chunks per half,
        each starting at a multiple of 16 and 4160 or 4176 rows long, with the
        bits of one pass."""
        public = RandomStream(12, (934,)).gauss((50_000, 32))
        handles, chunks = self.handles([32, 64, 10]), self.count_chunks(monkeypatch, public)
        blocks = collect_logits(handles, public)
        for node in (sorted(chunks)[0::2], sorted(chunks)[1::2]):  # two nodes: each chunk twice
            starts, lengths = zip(*node)
            assert len(node) == 12 and set(lengths) == {4160, 4176}
            assert all(a % 16 == 0 and a + n == b for a, n, b in zip(starts, lengths, starts[1:]))
            assert starts[0] == 0 and starts[-1] + lengths[-1] == 50_000
        for h, block in zip(handles, blocks):
            assert same_bits(block.logits, self.pinned_reference(h, public))

    @needs_openblas
    @pytest.mark.parametrize("below", [1, 0], ids=["below", "at"])
    @pytest.mark.parametrize("dims", [[32, 64, 10], [8, 16, 2], [32, 16, 3]])
    def test_a_pass_splits_from_two_halves_of_the_split_rows_or_the_floor(
            self, monkeypatch, dims, below):
        """The split starts at 2 * max(SPLIT_ROWS, floor) rows: 2**15 for
        [32, 64, 10], 2**16 for [8, 16, 2] and 43,712 for [32, 16, 3]; every
        chunk has the floor's rows or more, and the bits are those of one pass."""
        rows = 2 * max(fedkd.protocol.SPLIT_ROWS, self.floor(dims)) - below
        public = RandomStream(12, (935,)).gauss((rows, dims[0]))
        handles, splits = self.handles(dims), self.count_splits(monkeypatch)
        chunks = self.count_chunks(monkeypatch, public)
        blocks = collect_logits(handles, public)
        assert len(splits) == (0 if below else 2)
        assert chunks == [] if below else min(n for _, n in chunks) >= self.floor(dims)
        for h, block in zip(handles, blocks):
            assert same_bits(block.logits, self.pinned_reference(h, public))

    @needs_openblas
    def test_the_teacher_stage_works_in_memory_that_does_not_grow_with_the_rows(self):
        """collect_logits plus ensemble for 4 nodes of [32, 64, 10]: above the
        live blocks, the traced peak stays below one teacher, two chunks of
        hidden rows (one per thread) and 1 MiB, at 50,000 rows and at twice
        that, where the chunks are the same, of 4176 rows at most. Hidden
        buffers of half a pass each, or a fold through a buffer of the full
        shape, break it."""
        handles = [NodeHandle(k, np.arange(0), init_mlp([32, 64, 10], RandomStream(11, (936, k))))
                   for k in range(4)]
        weights = importance_weights(1 + RandomStream(11, (937,)).integers(50, (4, 10)))
        chunks = 2 * 4176 * 64 * 8
        for rows in (50_000, 100_000):
            public = RandomStream(12, (938,)).gauss((rows, 32))
            teacher = rows * 10 * 8
            peak = traced_peak(lambda: ensemble(collect_logits(handles, public), weights,
                                                EnsembleConfig(), RandomStream(0, (4,))))
            assert peak - 4 * teacher < teacher + chunks + 2**20, (rows, peak)

    @needs_openblas
    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_an_error_in_either_half_reaches_the_caller(self, monkeypatch, failing):
        """The error of either half is raised from collect_logits, and the
        worker thread has ended by then."""
        caller, real = threading.get_ident(), fedkd.numkit._forward_trace

        def forward(weights, biases, batch, out=None):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise MemoryError(failing)
            return real(weights, biases, batch, out)

        monkeypatch.setattr(fedkd.numkit, "_forward_trace", forward)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match=f"^{failing}$"):
            collect_logits(self.handles([32, 64, 10]), np.zeros((2**15, 32)))
        assert threading.active_count() == threads

    def test_an_overflowing_node_is_named_with_no_warning(self):
        """A node whose weights are scaled by 1e200 overflows in both halves:
        a fresh interpreter with numpy warnings made errors gets the
        ValidationError naming it, and nothing on stderr."""
        out = run_python("-W", "error::RuntimeWarning", "-c", OVERFLOWING_QUERY)
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == "querying node 1: logits: non-finite entries\n"


# ---------------------------------------------------------------------------
# full aggregation run


class TestRunFedkd:
    def test_single_node_matches_centralized_training_exactly(self):
        train, test, public, _ = make_fixture()
        res = run_fedkd(train, public, test, whole_plan(train), base_run(), 0)
        central_model, _ = run_centralized(train, test, NODE_CFG, 0)
        assert params_equal(res.handles[0].model, central_model)

    def test_single_teacher_student_agreement(self):
        train, test, public, _ = make_fixture()
        run = base_run(
            ensemble=EnsembleConfig(quant_scale=None, gamma=None),
            distill=DistillConfig(steps=1500, batch_size=64, lr_start=0.05),
        )
        res = run_fedkd(train, public, test, whole_plan(train), run, 0)
        student = mlp_forward(res.central_model, public.features).argmax(1)
        assert (student == res.teacher_logits.argmax(1)).mean() >= 0.95

    @pytest.mark.parametrize("labeled_public", [False, True])
    def test_a_dataset_with_no_classes_is_a_typed_error(self, labeled_public):
        rs = RandomStream(0, (905,))
        train, public, test = (Dataset(rs.gauss((n, 3)), np.zeros((n, 0)), MULTI_LABEL, 0)
                               for n in (40, 40, 20))
        plan = dirichlet_partition(train, 2, 1.0, RandomStream(0, (904,)))
        run = base_run(labeled_public=labeled_public, distill=DistillConfig(steps=5, batch_size=8))
        with pytest.raises(FedKdError):
            run_fedkd(train, public, test, plan, run, 0)

    @pytest.mark.parametrize("algorithm", ["fedkd", "fedavg"])
    def test_a_dataset_with_no_classes_fails_before_training(self, monkeypatch, algorithm):
        """The zero-width output layer is rejected as the first model is
        built (a fedkd run's student, a fedavg run's global model), so no node
        ever trains."""
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
                run_fedkd(train, public, test, plan,
                          base_run(node=node_cfg, central_hidden_dims=[3]), 0)
            else:
                run_fedavg(train, plan, node_cfg, rounds=2, seed=0)
        hidden = 3 if algorithm == "fedkd" else 4
        assert str(exc.value) == f"need input and output dims, each >= 1, got [2, {hidden}, 0]"
        assert calls == []

    def test_ledger_has_one_scalar_and_one_matrix_per_node(self):
        train, test, public, plan = make_fixture()
        res = run_fedkd(train, public, test, plan, base_run(), 0)
        rows = res.ledger.rows()
        active = [h.node_id for h in res.handles if h.model is not None]
        for k in active:
            assert rows.count(("scalar_max_up", k, 8)) == 1
            assert rows.count(("logits_up", k, public.n * 4 * 8)) == 1
        assert len(rows) == 2 * len(active)

    def test_ledger_ignores_distillation_length(self):
        train, test, public, plan = make_fixture()
        short = run_fedkd(train, public, test, plan,
                          base_run(distill=DistillConfig(steps=50, batch_size=64)), 0)
        long = run_fedkd(train, public, test, plan,
                         base_run(distill=DistillConfig(steps=200, batch_size=64)), 0)
        assert short.ledger.rows() == long.ledger.rows()
        assert short.metrics["query_rows"] == long.metrics["query_rows"]

    def test_empty_shard_reported_as_none(self):
        train, test, public, _ = make_fixture()
        plan = PartitionPlan([np.arange(600), np.array([], dtype=int), np.arange(600, train.n)])
        res = run_fedkd(train, public, test, plan, base_run(), 0)
        assert res.metrics["standalone"][1] is None
        assert {r[1] for r in res.ledger.rows()} == {0, 2}

    def test_uniform_mode_skips_weight_table(self):
        train, test, public, plan = make_fixture()
        res = run_fedkd(train, public, test, plan,
                        base_run(ensemble=EnsembleConfig(weight_mode=UNIFORM)), 0)
        assert res.weights is None

    def test_metrics_shape(self):
        train, test, public, plan = make_fixture()
        res = run_fedkd(train, public, test, plan, base_run(), 0)
        m = res.metrics
        assert m["metric"] == "accuracy"
        assert 0.0 <= m["central"] <= 1.0
        assert m["num_nodes"] == 5
        assert m["public_rows"] == public.n
        assert not [k for k in m if "bytes" in k]  # every byte count is a ledger frame's

    def test_labeled_public_joins_training_shards(self):
        train, test, public, plan = make_fixture()
        res = run_fedkd(train, public, test, plan, base_run(labeled_public=True), 0)
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
        run_fedkd(train, public, test, plan,
                  base_run(distill=DistillConfig(steps=20, batch_size=64)), 0)
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
        run_fedkd(train, public, test, plan,
                  base_run(node=TrainConfig([8], epochs=1), distill=DistillConfig(steps=10),
                           labeled_public=True), 0)
        assert sizes == [train.n + public.n] and alive == [0]

    def test_negative_query_noise_rejected(self):
        train, test, public, plan = make_fixture()
        with pytest.raises(ConfigurationError, match="^query_noise must be >= 0$"):
            run = base_run(repeats=2, query_noise=-0.5,
                           node=TrainConfig([8], epochs=1, batch_size=64))
            run_fedkd(train, public, test, plan, run, 0)

    @pytest.mark.parametrize("bad, message", [
        ({"repeats": 0}, "repeats must be >= 1"),
        ({"repeats": 2**53}, "repeats must be < 2**53"),
        ({"query_noise": -0.5, "repeats": 2}, "query_noise must be >= 0"),
        ({"query_noise": math.nan}, "query_noise must be >= 0 and finite"),
        ({"central_hidden_dims": [8, 0]}, "central_hidden_dims[1] must be >= 1"),
    ])
    def test_an_invalid_run_fails_when_built_before_any_node_trains(self, monkeypatch, bad,
                                                                     message):
        """FedKdRun checks its own fields, so a library run_fedkd with a bad
        one never reaches node training."""
        calls = []
        monkeypatch.setattr(fedkd.protocol, "train_lockstep", lambda *a, **k: calls.append(1))
        train, test, public, plan = make_fixture()
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            base_run(**bad)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            run_fedkd(train, public, test, plan, base_run(**bad), 0)
        assert calls == []

    def test_all_empty_rejected(self):
        _, test, public, _ = make_fixture()
        empty = Dataset(np.zeros((0, 16)), np.zeros((0, 1), dtype=int), SINGLE_LABEL, 4)
        plan = PartitionPlan([np.array([], dtype=int)])
        with pytest.raises(ConfigurationError):
            run_fedkd(empty, public, test, plan, base_run(), 0)


@pytest.mark.parametrize("build, message", [
    (lambda: TrainConfig(epochs=2.5), "epochs: 2.5 is not an integer"),
    (lambda: TrainConfig(batch_size=8.5), "batch_size: 8.5 is not an integer"),
    (lambda: TrainConfig([8.0]), "hidden_dims[0]: 8.0 is not an integer"),
    (lambda: TrainConfig([8, "16"]), "hidden_dims[1]: '16' is not an integer"),
    (lambda: TrainConfig(hidden_dims=8), "hidden_dims: 8 is not a list of integers"),
    (lambda: TrainConfig(epochs=True), "epochs: True is not an integer"),
    (lambda: DistillConfig(steps=10.5), "steps: 10.5 is not an integer"),
    (lambda: DistillConfig(batch_size=np.float64(64)),
     f"batch_size: {np.float64(64)!r} is not an integer"),
    (lambda: FedKdRun(repeats=1.5), "repeats: 1.5 is not an integer"),
    (lambda: FedKdRun(central_hidden_dims=[None]),
     "central_hidden_dims[0]: None is not an integer"),
    (lambda: FedKdRun(central_hidden_dims=8), "central_hidden_dims: 8 is not a list of integers"),
    (lambda: EnsembleConfig(quant_scale=2.5), "quant_scale: 2.5 is not an integer"),
    (lambda: EnsembleConfig(quant_scale=np.bool_(True)),
     f"quant_scale: {np.bool_(True)!r} is not an integer"),
    (lambda: run_fedavg(*make_fixture()[::3], NODE_CFG, 2.5, 0), "rounds: 2.5 is not an integer"),
    (lambda: dirichlet_partition(make_fixture()[0], 2.0, 1.0, RandomStream(0, (904,))),
     "num_nodes: 2.0 is not an integer"),
    (lambda: ensemble([LogitBlock(1.5, np.zeros((1, 2)))], WeightTable(np.full((3, 2), 1 / 3)),
                      EnsembleConfig(), RandomStream(0, (1,))), "node_id: 1.5 is not an integer"),
    (lambda: LogitBlock(-1, np.zeros((1, 2))), "node_id must be >= 0"),
    (lambda: GaussianTaskSpec(2, 3, 2.5, np.zeros((2, 3))), "per_class_count: 2.5 is not an integer"),
    (lambda: CsvSchema(["x"], ["y"], SINGLE_LABEL, 1.5), "num_classes: 1.5 is not an integer"),
    (lambda: quantize_array(np.zeros((1, 2)), 1.0, 2.5), "scale: 2.5 is not an integer"),
    (lambda: RandomStream(0.7, (1,)), "seed: 0.7 is not an integer"),
    (lambda: RandomStream(True, (1,)), "seed: True is not an integer"),
    (lambda: RandomStream(0, (1.9,)), "stream_id[0]: 1.9 is not an integer"),
], ids=["epochs", "node_batch_size", "hidden_dims", "hidden_dims_str", "hidden_dims_int",
        "epochs_bool", "steps", "distill_batch_size", "repeats", "central_hidden_dims",
        "central_hidden_dims_int", "quant_scale", "quant_scale_numpy_bool", "rounds", "num_nodes",
        "weighted_node_id", "negative_node_id", "per_class_count", "csv_num_classes",
        "quantize_scale", "seed", "seed_bool", "stream_id"])
def test_a_count_that_is_not_an_integer_is_refused_when_given(build, message):
    """Every library count, seed, stream id and node id, and each entry of a
    list of widths, is refused on entry unless it is a Python or numpy
    integer in range: a float (integral too), a string, None or a bool is a
    ConfigurationError naming the field, never a TypeError or IndexError once
    the run has started, and a float seed or id is never truncated."""
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integer_counts_are_accepted():
    cfg = TrainConfig([np.int32(8)], epochs=np.int64(1), batch_size=np.uint8(32))
    run = FedKdRun(node=cfg, distill=DistillConfig(steps=np.int64(5)), repeats=np.int16(1),
                   central_hidden_dims=[np.int64(8)], ensemble=EnsembleConfig(np.int64(8)))
    assert run.node.epochs == 1 and run.ensemble.quant_scale == 8
    rs = RandomStream(np.int64(3), (np.uint8(1), np.int32(2)))
    assert np.array_equal(rs.uniform(4), RandomStream(3, (1, 2)).uniform(4))
    blocks = [LogitBlock(np.int64(k), np.full((1, 2), float(k))) for k in range(2)]
    table = WeightTable(np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = ensemble(blocks, table, EnsembleConfig(None, None), RandomStream(0, (1,)))
    assert np.array_equal(out, [[0.0, 1.0]])


@pytest.mark.parametrize("build, message", [
    (lambda: TrainConfig(lr_start="x"), "lr_start: 'x' is not a real number"),
    (lambda: TrainConfig(lr_start=math.inf), "lr_start must be finite"),
    (lambda: DistillConfig(tau="x"), "tau: 'x' is not a real number"),
    (lambda: DistillConfig(weight_decay=True), "weight_decay: True is not a real number"),
    (lambda: EnsembleConfig(gamma="x"), "gamma: 'x' is not a real number"),
    (lambda: EnsembleConfig(gamma=math.inf), "gamma must be > 0 and finite"),
    (lambda: FedKdRun(query_noise="x"), "query_noise: 'x' is not a real number"),
    (lambda: FedKdRun(labeled_public="no"), "labeled_public: 'no' is not a bool"),
    (lambda: dirichlet_partition(make_fixture()[0], 2, "x", RandomStream(0, (904,))),
     "alpha: 'x' is not a real number"),
    (lambda: dirichlet_partition(make_fixture()[0], 2, True, RandomStream(0, (904,))),
     "alpha: True is not a real number"),
    (lambda: GaussianTaskSpec(2, 3, 4, np.zeros((2, 3)), cov_scale=-1.0), "cov_scale must be >= 0"),
    (lambda: GaussianTaskSpec(2, 3, 4, np.zeros((2, 3)), cov_scale="x"),
     "cov_scale: 'x' is not a real number"),
    (lambda: SyntheticTask(class_sep="x"), "class_sep: 'x' is not a real number"),
    (lambda: CsvSchema(["a"], "y", SINGLE_LABEL, 2), "label_cols: 'y' is not a list of strings"),
], ids=["lr_start", "lr_start_inf", "tau", "weight_decay_bool", "gamma", "gamma_inf",
        "query_noise", "labeled_public", "alpha", "alpha_bool", "cov_scale", "cov_scale_str",
        "class_sep", "label_cols"])
def test_a_value_of_the_wrong_type_or_range_is_refused_when_given(build, message):
    """Every library real is a Python or numpy real, not a bool or NaN, in its
    field's range; ``labeled_public`` is a bool and a schema's columns a list
    of strings. Anything else is a ConfigurationError naming the field when
    the value is given, never a TypeError, a numpy error or a truthy string
    read as a flag once the run has started."""
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        build()


def test_a_real_field_stores_a_float():
    """An integer or numpy real passes the rule and is kept as a Python float,
    as a parsed config spells it."""
    cfg = TrainConfig(lr_start=1, lr_end=np.float32(0.5), weight_decay=np.int64(0))
    assert [(type(v), v) for v in (cfg.lr_start, cfg.lr_end, cfg.weight_decay)] == [
        (float, 1.0), (float, 0.5), (float, 0.0)]
    assert type(DistillConfig(tau=4).tau) is float and EnsembleConfig(gamma=2).gamma == 2.0


class TestRunFedkdBatch:
    """Cells of one batch share the stacked calls their configs allow; each
    result is its own run_fedkd's, bit for bit."""

    def test_a_cell_is_run_fedkds_arguments_by_name_and_in_order(self):
        assert FedKdCell._fields == tuple(inspect.signature(run_fedkd).parameters)

    @pytest.mark.parametrize("field", ["private", "public"])
    def test_the_data_stage_shares_by_identity_not_by_value(self, monkeypatch, field):
        """Under labeled_public, two cells on the same objects build one joined
        split; on an equal but distinct Dataset they build two, with equal
        results."""
        train, test, public, plan = make_fixture()
        run = base_run(node=TrainConfig([8], epochs=1), distill=DistillConfig(steps=10),
                       labeled_public=True)
        cell = FedKdCell(train, public, test, plan, run, 0)
        twin = cell._replace(**{field: dataclasses.replace(getattr(cell, field))})
        built = []

        def counting(self, _real=Dataset.__post_init__):
            built.append(self.n)
            _real(self)

        monkeypatch.setattr(Dataset, "__post_init__", counting)
        same = fedkd.protocol.run_fedkd_batch([cell, cell])
        assert built == [train.n + public.n]
        apart = fedkd.protocol.run_fedkd_batch([cell, twin])
        assert built == [train.n + public.n] * 3
        for result in same + apart:
            assert params_equal(result.central_model, same[0].central_model)

    def test_mixed_cells_match_their_own_runs(self):
        train, test, public, plan = make_fixture()
        short = DistillConfig(steps=40, batch_size=64, lr_start=0.05)
        node = TrainConfig([32], epochs=5, batch_size=32, lr_start=0.05)
        cells = [FedKdCell(train, public, test, plan, run, seed) for run, seed in [
            (base_run(distill=short, node=node), 0),
            (base_run(distill=short, node=node), 1),
            (base_run(distill=short, node=node, ensemble=EnsembleConfig(weight_mode=UNIFORM)), 0),
            (base_run(distill=short, node=node, labeled_public=True), 0),
            (base_run(distill=DistillConfig(steps=30, batch_size=32), node=node), 0),
            (base_run(distill=short, node=TrainConfig([8], epochs=3)), 0),
            (base_run(distill=short, node=node, central_hidden_dims=[16]), 0),
        ]]
        results = fedkd.protocol.run_fedkd_batch(cells)
        for cell, result in zip(cells, results):
            alone = run_fedkd(*cell)
            assert params_equal(result.central_model, alone.central_model)
            for h, a in zip(result.handles, alone.handles):
                assert params_equal(h.model, a.model)
            assert np.array_equal(result.teacher_logits, alone.teacher_logits)
            assert result.metrics == alone.metrics
            assert result.ledger.rows() == alone.ledger.rows()
            assert result.trace == alone.trace

    @pytest.mark.parametrize("fault", ["plan_past_the_split", "public_below_the_batch",
                                       "unbuildable_student"])
    def test_an_input_a_stacked_call_rejects_fails_only_its_cell(self, fault):
        """An input that would fail a call the healthy cell shares (node
        training, distillation, or a data stage whose data it shares) is
        checked in its cell's own stage: the healthy cell keeps its own
        result, and the other gets the error its own run raises."""
        train, test, public, _ = make_fixture()
        plan = PartitionPlan([np.arange(k, 1200, 5) for k in range(5)])
        run = base_run(node=TrainConfig([8], epochs=1, batch_size=16),
                       distill=DistillConfig(steps=20, batch_size=64))
        cell = FedKdCell(train, public, test, plan, run, 0)
        if fault == "plan_past_the_split":  # the healthy cell's node config: one node stack
            bad = cell._replace(private=subset(train, np.arange(600)))
        elif fault == "public_below_the_batch":  # the healthy cell's student dims: one distill stack
            bad = cell._replace(public=subset(public, np.arange(32)))
        else:  # the healthy cell's data: one data stage
            bad = cell._replace(run=dataclasses.replace(run, central_hidden_dims=[10**18]))
        good, failed = fedkd.protocol.run_fedkd_batch([cell, bad])
        assert params_equal(good.central_model, run_fedkd(*cell).central_model)
        with pytest.raises(Exception) as exc:
            run_fedkd(*bad)
        assert type(failed) is type(exc.value) and str(failed) == str(exc.value)

    def test_a_diverging_node_fails_only_its_cell(self, monkeypatch):
        """Both cells' nodes train in one lockstep call, which returns; the
        healthy cell gets its own result and the other the error its own run
        raises."""
        train, test, public, _ = make_fixture()
        plan = PartitionPlan([np.arange(k, 1200, 5) for k in range(5)])
        bad = Dataset(train.features.copy(), train.labels, SINGLE_LABEL, 4)
        bad.features[np.arange(3, 1200, 5)] *= 1e100  # node 3's shard overflows
        run = base_run(node=TrainConfig([8], epochs=1, batch_size=16, lr_start=0.1),
                       distill=DistillConfig(steps=20, batch_size=64))
        calls = []

        def counting(models, *args, _real=train_lockstep, **kwargs):
            calls.append(len(models))
            return _real(models, *args, **kwargs)

        monkeypatch.setattr(fedkd.protocol, "train_lockstep", counting)
        cell = FedKdCell(train, public, test, plan, run, 0)
        good, failed = fedkd.protocol.run_fedkd_batch([cell, cell._replace(private=bad)])
        monkeypatch.undo()
        assert calls == [10]
        assert params_equal(good.central_model,
                            run_fedkd(train, public, test, plan, run, 0).central_model)
        with pytest.raises(DivergenceError) as exc:
            run_fedkd(bad, public, test, plan, run, 0)
        assert isinstance(failed, DivergenceError)
        assert str(failed) == str(exc.value) == (
            "node training diverged on node 3: non-finite parameters")


def _invariance_pool():
    """The pieces a batch's cells are drawn from: a tiny 3-class task, two
    equal splits and two equal plans as distinct objects, run variants that
    share one node config, and faults that fail one cell in the data, node
    or student stage."""
    rs = RandomStream(0, (910,))
    means = 3.0 * rs.gauss((3, 4))
    train, test, public = (
        gen_gaussian_task(GaussianTaskSpec(3, 4, n, means, 1.0, np.zeros(4)),
                          RandomStream(0, (911, i)))
        for i, n in enumerate((40, 10, 30)))
    plan = dirichlet_partition(train, 3, 1.0, RandomStream(0, (912,)))
    bad = Dataset(train.features.copy(), train.labels, SINGLE_LABEL, 3)
    bad.features[next(a for a in plan.assignments if a.size)] *= 1e100  # that node diverges
    distill = DistillConfig(steps=12, batch_size=16, lr_start=0.05)
    base = FedKdRun(node=TrainConfig([8], epochs=2, batch_size=8, lr_start=0.05),
                    distill=distill, central_hidden_dims=[8])
    runs = [base,
            dataclasses.replace(base, ensemble=EnsembleConfig(quant_scale=50)),
            dataclasses.replace(base, ensemble=EnsembleConfig(gamma=None)),
            dataclasses.replace(base, ensemble=EnsembleConfig(weight_mode=UNIFORM)),
            dataclasses.replace(base, distill=dataclasses.replace(distill, loss_mode=KL, tau=2.0)),
            dataclasses.replace(base, labeled_public=True),
            dataclasses.replace(base, central_hidden_dims=[4])]
    faults = {"public_below_the_batch": {"public": subset(public, np.arange(8))},
              "plan_past_the_split": {"private": subset(train, np.arange(60))},
              "diverging_shard": {"private": bad}}
    return ([train, dataclasses.replace(train)],
            [plan, PartitionPlan([a.copy() for a in plan.assignments])],
            runs, faults, public, test)


SPLITS, PLANS, RUNS, FAULTS, INV_PUBLIC, INV_TEST = _invariance_pool()


def _cell(key) -> FedKdCell:
    split, plan, run, seed, fault = key
    cell = FedKdCell(SPLITS[split], INV_PUBLIC, INV_TEST, PLANS[plan], RUNS[run], seed)
    return cell._replace(**FAULTS[fault]) if fault else cell


@pytest.fixture(scope="class")
def alone_runs():
    """Cell key -> run_fedkd of that cell, or the exception it raises; each
    is computed once, since the pool's objects never change."""
    return {}


@st.composite
def shuffled_batches(draw):
    """2-6 cell keys, a cell maybe repeated, at most one with a fault, in a
    drawn order."""
    cell = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, len(RUNS) - 1),
                     st.integers(0, 1), st.none())
    keys = draw(st.lists(cell, min_size=2, max_size=5))
    if draw(st.booleans()):
        keys.append(draw(st.sampled_from(keys)))
    fault = draw(st.none() | st.sampled_from(sorted(FAULTS)))
    if fault:
        i = draw(st.integers(0, len(keys) - 1))
        keys[i] = keys[i][:4] + (fault,)
    return draw(st.permutations(keys))


class TestBatchInvariance:
    """Whatever the batch around a cell, and in any order, the cell gets the
    result, or the error, of its own run_fedkd."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(keys=shuffled_batches())
    def test_every_cell_of_a_shuffled_batch_matches_its_own_run(self, alone_runs, keys):
        results = fedkd.protocol.run_fedkd_batch([_cell(key) for key in keys])
        for key, got in zip(keys, results):
            if key not in alone_runs:
                try:
                    alone_runs[key] = run_fedkd(*_cell(key))
                except Exception as err:
                    alone_runs[key] = err
            want = alone_runs[key]
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want)), key
                continue
            assert params_equal(got.central_model, want.central_model), key
            assert len(got.handles) == len(want.handles)
            for h, a in zip(got.handles, want.handles):
                assert (h.model is None and a.model is None) or params_equal(h.model, a.model)
            assert np.array_equal(got.teacher_logits, want.teacher_logits), key
            assert got.metrics == want.metrics, key
            assert got.ledger.rows() == want.ledger.rows(), key
            assert got.trace == want.trace, key


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
        plan = PartitionPlan([np.arange(300), np.array([], dtype=int)])
        cfg = TrainConfig([32], epochs=1, batch_size=32, lr_start=0.05)
        res = run_fedavg(train, plan, cfg, rounds=2, seed=0)
        assert {r[1] for r in res.ledger.rows()} == {0}

    def test_zero_rounds_rejected(self):
        train, _, _, plan = make_fixture()
        with pytest.raises(ConfigurationError):
            run_fedavg(train, plan, NODE_CFG, rounds=0, seed=0)

    @pytest.mark.parametrize("rounds", [2**53, 2**63, 10**30])
    def test_rounds_float64_cannot_hold_rejected_before_any_training(self, monkeypatch, rounds):
        calls = []
        monkeypatch.setattr(fedkd.protocol, "train_lockstep", lambda *a, **k: calls.append(1))
        train, _, _, plan = make_fixture()
        with pytest.raises(ConfigurationError, match=r"^rounds must be < 2\*\*53$"):
            run_fedavg(train, plan, NODE_CFG, rounds=rounds, seed=0)
        assert calls == []

    def test_a_plan_that_does_not_cover_the_data_once_is_rejected(self):
        """Row 8 goes to nodes 0 and 3 and row 3 to no node: run_fedavg
        rejects the plan before any training, with run_fedkd's message."""
        train, test, public, _ = make_fixture()
        plan = PartitionPlan([np.arange(0, 1200, 4), np.array([], dtype=int),
                              np.arange(1, 1200, 100), np.arange(2, 600, 3)])
        message = "^assignments must cover the dataset exactly once$"
        with pytest.raises(ValidationError, match=message):
            run_fedavg(train, plan, TrainConfig([8], epochs=1), rounds=2, seed=0)
        with pytest.raises(ValidationError, match=message):
            run_fedkd(train, public, test, plan, base_run(), 0)


# ---------------------------------------------------------------------------
# shared trainer details


class TestTrainSupervised:
    def test_hidden_layer_without_units_rejected(self):
        for hidden in ([0], [8, -1]):
            with pytest.raises(ConfigurationError, match="hidden_dims"):
                TrainConfig(hidden_dims=hidden)

    @pytest.mark.parametrize("config", [TrainConfig, DistillConfig])
    def test_nan_weight_decay_rejected(self, config):
        """The schedule check both configs share rejects NaN, not only < 0."""
        with pytest.raises(ConfigurationError, match="^weight_decay must be >= 0 and finite$"):
            config(weight_decay=math.nan)

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
        """A trainer gets its features from a Dataset, which rejects a
        non-finite one when it is built, so no trainer checks them again."""
        train, _, _, _ = make_fixture()
        for value in (np.nan, -np.nan, np.inf, -np.inf):
            features = train.features[:32].copy()
            features[5, 2] = value
            with pytest.raises(ValidationError, match="^features: non-finite entries$"):
                Dataset(features, train.labels[:32], SINGLE_LABEL, 4)

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
                              np.arange(1, 1200, 100), np.setdiff1d(np.arange(1200), taken)])
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

    @pytest.mark.parametrize("rounds, round_index", [(3, 3), (3, 8), (3, -1), (0, 0)])
    def test_round_index_outside_the_rounds_is_a_range_error(self, monkeypatch, rounds,
                                                             round_index):
        """The schedule's steps are range-checked once, on entry, before any
        rate table is built or any step is taken."""
        calls = []
        monkeypatch.setattr(fedkd.protocol, "cosine_rates", lambda *a: calls.append(a))
        monkeypatch.setattr(fedkd.protocol, "train_sgd", lambda *a: calls.append(a))
        train = make_fixture()[0]
        model = init_mlp([16, 4], RandomStream(0, (45,)))
        with pytest.raises(RangeError, match=rf"^round_index {round_index} outside \[0, {rounds}\)$"):
            train_lockstep([model], [subset(train, np.arange(32))], TrainConfig([], epochs=1),
                           [RandomStream(0, (46,))], rounds=rounds, round_index=round_index)
        assert calls == []

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
                              np.arange(1, 1200, 2)])
        cfg = TrainConfig([8], epochs=1, batch_size=32, lr_start=0.1)
        res = run_fedkd(train, public, test, plan,
                        base_run(node=cfg, distill=DistillConfig(steps=10), labeled_public=True),
                        0)
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
            run_fedkd(train, public, test, plan, base_run(labeled_public=True), 0)

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
        run = base_run(node=TrainConfig([8], epochs=1),
                       distill=DistillConfig(steps=10), labeled_public=labeled_public)
        run_fedkd(train, public, test, plan, run, 0)
        cell = FedKdCell(train, public, test, plan, run, 0)
        results = fedkd.protocol.run_fedkd_batch([cell, cell._replace(seed=1)])
        assert not any(isinstance(r, Exception) for r in results)
        run_fedavg(train, plan, TrainConfig([8], epochs=1), rounds=2, seed=0)
        assert built == ([train.n + public.n] * 2 if labeled_public else [])

    def test_features_are_checked_once_per_split(self, monkeypatch):
        """A split's features are checked once, when its Dataset is built:
        neither run_fedavg's rounds nor a batch's cells check them again. The
        only matrices the protocol checks are the public features it queries
        and each teacher."""
        train, test, public, plan = make_fixture()
        checked = []

        def counting(a, name="matrix", *args, _real=fedkd.protocol.check_matrix, **kwargs):
            checked.append(name)
            return _real(a, name, *args, **kwargs)

        def built(self, _real=Dataset.__post_init__):
            checked.append("Dataset")
            return _real(self)

        monkeypatch.setattr(fedkd.protocol, "check_matrix", counting)
        monkeypatch.setattr(Dataset, "__post_init__", built)
        run_fedavg(train, plan, TrainConfig([8], epochs=1), rounds=3, seed=0)
        assert checked == []
        other = PartitionPlan(plan.assignments[::-1])
        run = base_run(node=TrainConfig([8], epochs=1), distill=DistillConfig(steps=10))
        fedkd.protocol.run_fedkd_batch([FedKdCell(train, public, test, p, run, s) for p, s in
                                        ((plan, 0), (plan, 1), (plan, 2), (other, 0))])
        assert checked == ["public features", "teacher logits"] * 4

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
        run = base_run(node=TrainConfig([8], epochs=1, batch_size=64),
                       distill=DistillConfig(steps=5), labeled_public=True)
        tracemalloc.start()
        try:
            run_fedkd(train, public, test, plan, run, 0)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1 and peaks[0] < 2 * public.features.nbytes, (
            peaks, public.features.nbytes)


# ---------------------------------------------------------------------------
# a whole run against the chain of oracles

# pairwise over weight mode, S, gamma and loss: every pair of two knobs' values
# is in some case; the knobs after those four ride along on one case each
ORACLE_CASES = {
    "per_class-S200-gamma1-l2-labeled_public": ("per_class", 200, 1.0, "logit_l2",
                                                {"labeled_public": True}),
    "per_class-off-off-kl-repeats": ("per_class", None, None, "kl",
                                     {"repeats": 2, "query_noise": 0.1}),
    "uniform-S200-off-kl": ("uniform", 200, None, "kl", {}),
    "uniform-off-gamma1-kl": ("uniform", None, 1.0, "kl", {}),
    "uniform-off-off-l2": ("uniform", None, None, "logit_l2", {}),
    "multi_label_csv": ("per_class", 200, 1.0, "kl", {"multi": True}),
}


class TestEndToEndOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_run_fedkd_matches_the_chain_of_oracles(self, tmp_path, case):
        """teacher_logits, the central model and the trace of run_fedkd are
        the bits of conftest.reference_fedkd, which shares no trainer, query,
        quantizer or noise kernel with the package."""
        weight_mode, scale, gamma, loss, extra = ORACLE_CASES[case]
        extra = dict(extra)
        doc = {
            "task": {"kind": "synthetic", "num_classes": 3, "dim": 6, "train_per_class": 30,
                     "test_per_class": 10, "public_per_class": 30},
            "num_nodes": 3, "alpha": 0.5,
            "node": {"hidden_dims": [8], "epochs": 3, "batch_size": 16, "lr_start": 0.1,
                     "weight_decay": 1e-3},
            "ensemble": {"quant_scale": scale, "gamma": gamma, "weight_mode": weight_mode},
            "distill": {"steps": 40, "batch_size": 16, "lr_start": 0.05, "weight_decay": 1e-3,
                        "loss_mode": loss, **({"tau": 2.0} if loss == "kl" else {})},
            "central_hidden_dims": [8],
        }
        if extra.pop("multi", False):
            doc["task"] = write_csv_task(tmp_path, multi=True)
        doc.update(extra)
        run = parse_dict(doc)
        private, public, test, plan = build_data(run, 0)
        result = run_fedkd(private, public, test, plan, run, 0)
        teacher, central, trace = reference_fedkd(private, public, plan, run, 0)
        assert same_bits(result.teacher_logits, teacher)
        assert bits_equal(result.central_model, central)
        assert len(result.trace) == run.distill.steps
        assert [(r["step"], float.hex(r["loss"]), float.hex(r["lr"])) for r in result.trace] == [
            (r["step"], float.hex(r["loss"]), float.hex(r["lr"])) for r in trace]


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
        plan = PartitionPlan([np.arange(k, 1200, 5) for k in range(5)])
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
