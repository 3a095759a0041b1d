"""Importance weights, quantizer, Laplace noise, ensemble, wire frames."""
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedkd.datasets import NodeProfile
from fedkd.ensemble import (
    EnsembleConfig,
    LogitBlock,
    PER_CLASS,
    UNIFORM,
    WeightTable,
    decode_block,
    encode_block,
    encode_block_packed,
    ensemble,
    float_payload_bytes,
    global_max_abs,
    importance_weights,
    laplace_sample,
    packed_payload_bytes,
    quant_level_bits,
    quantize_array,
)
from fedkd.errors import ConfigurationError, DimensionError, RangeError, ValidationError
from fedkd.numkit import RandomStream, check_matrix


def block(node_id, values):
    return LogitBlock(node_id, np.asarray(values, dtype=np.float64))


class TestImportanceWeights:
    def test_share_of_column_total(self):
        table = importance_weights([NodeProfile([30]), NodeProfile([10])])
        np.testing.assert_allclose(table.omega[:, 0], [0.75, 0.25], rtol=1e-15)

    def test_equal_counts_give_uniform_columns(self):
        table = importance_weights([NodeProfile([5, 2])] * 4)
        np.testing.assert_allclose(table.omega, np.full((4, 2), 0.25), rtol=1e-15)

    def test_empty_class_falls_back_to_uniform(self):
        table = importance_weights([NodeProfile([0, 3]), NodeProfile([0, 1])])
        np.testing.assert_allclose(table.omega[:, 0], [0.5, 0.5], rtol=1e-15)
        np.testing.assert_allclose(table.omega[:, 1], [0.75, 0.25], rtol=1e-15)

    @given(st.lists(st.lists(st.integers(0, 1000), min_size=3, max_size=3),
                    min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_columns_are_probability_vectors(self, counts):
        table = importance_weights([NodeProfile(c) for c in counts])
        assert (table.omega >= 0).all()
        np.testing.assert_allclose(table.omega.sum(axis=0), 1.0, atol=1e-12)

    def test_weight_table_validation(self):
        with pytest.raises(ValueError):
            WeightTable(np.array([[0.4], [0.4]]))
        with pytest.raises(ValueError):
            WeightTable(np.array([[1.5], [-0.5]]))

    def test_invalid_tables_and_blocks_are_validation_errors(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            WeightTable(np.array([[0.4], [0.4]]))
        with pytest.raises(ValidationError, match="non-negative"):
            WeightTable(np.array([[1.5], [-0.5]]))
        with pytest.raises(ValidationError, match="omega: non-finite"):
            WeightTable(np.array([[np.nan], [1.0]]))
        with pytest.raises(ValidationError, match="logits: non-finite"):
            LogitBlock(0, np.array([[1.0, np.inf]]))
        with pytest.raises(ValidationError, match="local_max_abs"):
            LogitBlock(0, np.array([[1.0, 2.0]]), 3.0)


class TestGlobalMaxAbs:
    def test_single_block(self):
        assert global_max_abs([block(0, [[-2.0, 1.0]])]) == 2.0

    def test_max_over_blocks(self):
        blocks = [block(0, [[0.5]]), block(1, [[-3.1]]), block(2, [[2.2]])]
        assert global_max_abs(blocks) == 3.1

    def test_matches_flat_scan(self):
        rs = RandomStream(0, (20,))
        blocks = [block(i, rs.gauss((7, 4))) for i in range(5)]
        flat = np.concatenate([b.logits.ravel() for b in blocks])
        assert global_max_abs(blocks) == np.abs(flat).max()

    def test_no_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            global_max_abs([])

    def test_local_max_must_be_exact(self):
        with pytest.raises(ValueError):
            LogitBlock(0, np.array([[1.0, 2.0]]), 3.0)

    def test_block_is_validated_once(self, monkeypatch):
        calls = []

        def counting(a, name="matrix", cols=None):
            calls.append(name)
            return check_matrix(a, name, cols)

        # the package re-exports the ensemble() function under the module's name
        monkeypatch.setattr(importlib.import_module("fedkd.ensemble"), "check_matrix", counting)
        b = block(0, [[1.0, -4.0], [2.0, 3.0]])
        assert calls == ["logits"]
        assert b.local_max_abs == 4.0


class TestQuantize:
    def test_zero_maps_to_zero(self):
        assert quantize_array(np.array([[0.0]]), 1.0, 4)[0, 0] == 0.0

    def test_hand_positive(self):
        assert quantize_array(np.array([[0.3]]), 1.0, 4)[0, 0] == pytest.approx(0.5, rel=1e-15)

    def test_hand_negative_ceils_toward_zero(self):
        assert quantize_array(np.array([[-0.3]]), 1.0, 4)[0, 0] == 0.0

    def test_max_maps_to_max(self):
        assert quantize_array(np.array([[1.0]]), 1.0, 4)[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(RangeError):
            quantize_array(np.array([[1.5]]), 1.0, 4)
        with pytest.raises(RangeError):
            quantize_array(np.array([[0.2, -1.01]]), 1.0, 4)

    def test_bad_scale_rejected(self):
        with pytest.raises(RangeError):
            quantize_array(np.array([[0.1]]), 1.0, 1)
        with pytest.raises(RangeError):
            quantize_array(np.array([[0.1]]), 0.0, 4)

    @given(st.floats(-1.0, 1.0), st.floats(1e-3, 1e3), st.integers(2, 5000))
    @settings(max_examples=500, deadline=None)
    def test_error_bound_property(self, frac, z_max, scale):
        z = frac * z_max
        step = 2.0 * z_max / scale
        assert abs(quantize_array(np.array([[z]]), z_max, scale)[0, 0] - z) <= step * (1 + 1e-12)

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
           st.floats(1e-3, 1e3), st.integers(2, 5000))
    @settings(max_examples=500, deadline=None)
    def test_monotone_property(self, f1, f2, z_max, scale):
        lo, hi = quantize_array(np.array([sorted((f1 * z_max, f2 * z_max))]), z_max, scale)[0]
        assert lo <= hi

    def test_grid_cardinality(self):
        for scale in (2, 3, 4, 7, 200):
            z = np.linspace(-1.0, 1.0, 20011).reshape(-1, 1)
            grid = np.unique(quantize_array(z, 1.0, scale))
            assert len(grid) <= scale + 1

    def test_larger_scale_shrinks_bound(self):
        bounds = [2.0 * 1.0 / s for s in (2, 4, 100, 5000)]
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))

    def test_output_magnitude_bound(self):
        z = np.linspace(-1.0, 1.0, 4001).reshape(1, -1)
        q = quantize_array(z, 1.0, 7)
        assert np.abs(q).max() <= 1.0 + 2.0 / 7 + 1e-12


class _StubStream:
    """Stand-in stream returning preset uniforms (for endpoint cases)."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=np.float64)

    def uniform(self, size=None):
        return self._values if size is not None else float(self._values)


class TestLaplace:
    def test_median_input_gives_zero(self):
        assert laplace_sample(1.0, _StubStream(0.5)) == 0.0

    def test_endpoint_clamped_finite(self):
        out = laplace_sample(1.0, _StubStream(np.array([0.0, 1.0 - 1e-17])), size=2)
        assert np.isfinite(out).all()

    def test_gamma_two_exactly_halves_gamma_one(self):
        a = laplace_sample(1.0, RandomStream(3, (7,)), size=1000)
        b = laplace_sample(2.0, RandomStream(3, (7,)), size=1000)
        assert np.array_equal(b, a / 2.0)

    def test_moments_monte_carlo(self):
        x = laplace_sample(1.0, RandomStream(0, (8,)), size=10**6)
        assert abs(x.mean()) <= 0.01
        assert abs(x.var() / 2.0 - 1.0) <= 0.02

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(RangeError):
            laplace_sample(0.0, RandomStream(0, (9,)))


def no_op_cfg():
    return EnsembleConfig(quant_scale=None, gamma=None)


class TestEnsemble:
    def test_uniform_average(self):
        out = ensemble([block(0, [[1.0]]), block(1, [[3.0]])], None, no_op_cfg(),
                       RandomStream(0, (1,)))
        assert out[0, 0] == 2.0

    def test_per_class_weighted_sum(self):
        table = WeightTable(np.array([[0.75], [0.25]]))
        out = ensemble([block(0, [[4.0]]), block(1, [[0.0]])], table, no_op_cfg(),
                       RandomStream(0, (1,)))
        assert out[0, 0] == pytest.approx(3.0, rel=1e-15)

    def test_quantization_composes(self):
        cfg = EnsembleConfig(quant_scale=4, gamma=None)
        table = WeightTable(np.array([[1.0, 1.0]]))
        out = ensemble([block(0, [[0.3, 1.0]])], table, cfg, RandomStream(0, (1,)))
        np.testing.assert_allclose(out, [[0.5, 1.0]], rtol=1e-15)

    def test_noise_is_zero_mean(self):
        cfg = EnsembleConfig(quant_scale=None, gamma=1.0)
        b = block(0, np.full((100000, 1), 1.5))
        out = ensemble([b], None, cfg, RandomStream(0, (2,)))
        assert abs(out.mean() - 1.5) <= 0.02

    def test_noise_free_uniform_equals_exact_mean(self):
        rs = RandomStream(1, (3,))
        blocks = [block(i, rs.gauss((11, 3))) for i in range(5)]
        out = ensemble(blocks, None, no_op_cfg(), RandomStream(0, (1,)))
        mean = np.stack([b.logits for b in blocks]).mean(axis=0)
        assert np.array_equal(out, mean)

    def test_deterministic_per_stream(self):
        cfg = EnsembleConfig(quant_scale=200, gamma=0.5)
        blocks = [block(0, RandomStream(9, (4,)).gauss((6, 2)))]
        a = ensemble(blocks, None, cfg, RandomStream(7, (5,)))
        b = ensemble(blocks, None, cfg, RandomStream(7, (5,)))
        c = ensemble(blocks, None, cfg, RandomStream(7, (6,)))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ensemble([block(0, [[1.0]]), block(1, [[1.0, 2.0]])], None, no_op_cfg(),
                     RandomStream(0, (1,)))

    def test_all_zero_blocks_skip_scaling(self):
        cfg = EnsembleConfig(quant_scale=8, gamma=None)
        out = ensemble([block(0, np.zeros((3, 2)))], None, cfg, RandomStream(0, (1,)))
        assert np.array_equal(out, np.zeros((3, 2)))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EnsembleConfig(quant_scale=1)
        with pytest.raises(ConfigurationError):
            EnsembleConfig(gamma=0.0)
        with pytest.raises(ConfigurationError):
            EnsembleConfig(weight_mode="weird")
        assert EnsembleConfig(weight_mode=UNIFORM).gamma == 1.0


def list_then_sum(blocks, weights, cfg, rs):
    """The ensemble as first written: quantize every block into a list, then
    sum the list; the oracle for the streamed fold."""
    shape = blocks[0].shape
    quantized = [b.logits for b in blocks]
    if cfg.quant_scale is not None:
        z_max, s = max(b.local_max_abs for b in blocks), cfg.quant_scale
        if z_max > 0:
            quantized = [np.ceil(s * q / (2.0 * z_max)) * (2.0 * z_max / s) for q in quantized]
    acc = np.zeros(shape)
    if cfg.weight_mode == UNIFORM or weights is None:
        for q in quantized:
            acc += q
        acc /= len(blocks)
    else:
        for b, q in zip(blocks, quantized):
            acc += q * weights.omega[b.node_id][None, :]
    if cfg.gamma is not None:
        acc = acc + laplace_sample(cfg.gamma, rs, size=shape)
    return acc


@st.composite
def ensemble_cases(draw):
    """K in 1..6 blocks under node ids with gaps, quantized, unquantized or
    all-zero (signed zeros included), weighted or uniform, noise on or off."""
    k = draw(st.integers(1, 6))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["quantized", "unquantized", "zero"]))
    values = st.sampled_from([0.0, -0.0]) if kind == "zero" else st.floats(-1e6, 1e6)
    node_ids = sorted(draw(st.sets(st.integers(0, 7), min_size=k, max_size=k)))
    blocks = [LogitBlock(i, np.array(draw(st.lists(values, min_size=rows * cols,
                                                   max_size=rows * cols))).reshape(rows, cols))
              for i in node_ids]
    counts = draw(st.lists(st.lists(st.integers(0, 9), min_size=cols, max_size=cols),
                           min_size=8, max_size=8))
    weights = draw(st.sampled_from([None, importance_weights([NodeProfile(c) for c in counts])]))
    cfg = EnsembleConfig(
        quant_scale=None if kind == "unquantized" else draw(st.integers(2, 400)),
        gamma=draw(st.none() | st.floats(0.1, 10.0)),
        weight_mode=draw(st.sampled_from([PER_CLASS, UNIFORM])),
    )
    return blocks, weights, cfg, draw(st.integers(0, 2**16))


class TestStreamedEnsemble:
    @given(ensemble_cases())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_list_then_sum(self, case):
        blocks, weights, cfg, seed = case
        before = [b.logits.tobytes() for b in blocks]
        out = ensemble(blocks, weights, cfg, RandomStream(seed, (4,)))
        ref = list_then_sum(blocks, weights, cfg, RandomStream(seed, (4,)))
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))
        assert [b.logits.tobytes() for b in blocks] == before  # no block is written

    def test_peak_memory_does_not_grow_with_the_block_count(self):
        rs = RandomStream(0, (7,))
        blocks = [LogitBlock(k, rs.gauss((20000, 10))) for k in range(20)]
        weights = importance_weights([NodeProfile(np.arange(1, 11) + k) for k in range(20)])
        cfg = EnsembleConfig(quant_scale=200, gamma=1.0)

        def peak(k):
            tracemalloc.start()
            try:
                ensemble(blocks[:k], weights, cfg, RandomStream(0, (4,)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(20) - peak(4)) < blocks[0].logits.nbytes


class TestWireFrames:
    def test_float_frame_round_trips_exactly(self):
        b = block(3, RandomStream(0, (30,)).gauss((9, 4)))
        back, meta = decode_block(encode_block(b))
        assert meta["mode"] == "float64"
        assert back.node_id == 3
        assert np.array_equal(back.logits, b.logits)
        assert back.local_max_abs == b.local_max_abs

    def test_packed_frame_reconstructs_the_grid_values(self):
        b = block(1, RandomStream(0, (31,)).gauss((50, 3)))
        z_max = b.local_max_abs
        for scale in (2, 3, 200, 255):
            back, meta = decode_block(encode_block_packed(b, z_max, scale))
            assert meta == {"mode": "packed", "quant_scale": scale, "z_max": z_max}
            assert np.array_equal(back.logits, quantize_array(b.logits, z_max, scale))

    def test_payload_byte_formulas(self):
        assert float_payload_bytes(50000, 10) == 50000 * 10 * 8
        assert quant_level_bits(200) == 8  # 201 levels
        assert quant_level_bits(255) == 8
        assert quant_level_bits(256) == 9
        assert packed_payload_bytes(1000, 10, 200) == math.ceil(1000 * 10 * 8 / 8)
        assert packed_payload_bytes(3, 3, 2) == math.ceil(9 * 2 / 8)

    def test_packed_payload_matches_formula(self):
        b = block(0, RandomStream(0, (32,)).gauss((17, 5)))
        frame = encode_block_packed(b, b.local_max_abs, 200)
        header = 1 + 4 + 4 + 4 + 8 + 4
        assert len(frame) - header == packed_payload_bytes(17, 5, 200)

    def test_packed_beats_float_for_small_scales(self):
        assert packed_payload_bytes(1000, 10, 200) < float_payload_bytes(1000, 10)
