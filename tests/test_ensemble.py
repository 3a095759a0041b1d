"""Importance weights, quantizer, Laplace noise, ensemble."""
import importlib
import math
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedkd.ensemble import (
    _quantize,
    EnsembleConfig,
    LogitBlock,
    PER_CLASS,
    S_LIMIT,
    UNIFORM,
    Z_LIMIT,
    WeightTable,
    ensemble,
    global_max_abs,
    importance_weights,
    laplace_sample,
    quantize_array,
)
from fedkd.errors import ConfigurationError, DimensionError, RangeError, ValidationError
from fedkd.numkit import _BLOCK, RandomStream, check_matrix

from conftest import (DBL_MAX, SPECIALS, mixed, old_grid_values, old_laplace, old_levels,
                      run_python, same_bits, traced_peak)

Z_TOP = np.nextafter(Z_LIMIT, 0.0)  # the largest |logit| and z_max the range rule accepts


def block(node_id, values):
    return LogitBlock(node_id, np.asarray(values, dtype=np.float64))


class TestImportanceWeights:
    def test_share_of_column_total(self):
        table = importance_weights([[30], [10]])
        np.testing.assert_allclose(table.omega[:, 0], [0.75, 0.25], rtol=1e-15)

    def test_equal_counts_give_uniform_columns(self):
        table = importance_weights([[5, 2]] * 4)
        np.testing.assert_allclose(table.omega, np.full((4, 2), 0.25), rtol=1e-15)

    def test_empty_class_falls_back_to_uniform(self):
        table = importance_weights([[0, 3], [0, 1]])
        np.testing.assert_allclose(table.omega[:, 0], [0.5, 0.5], rtol=1e-15)
        np.testing.assert_allclose(table.omega[:, 1], [0.75, 0.25], rtol=1e-15)

    @given(st.lists(st.lists(st.integers(0, 1000), min_size=3, max_size=3),
                    min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_columns_are_probability_vectors(self, counts):
        table = importance_weights(np.array(counts))
        assert (table.omega >= 0).all()
        np.testing.assert_allclose(table.omega.sum(axis=0), 1.0, atol=1e-12)

    def test_counts_are_read_as_int64(self):
        table = importance_weights(np.array([[3.0, 0.0], [1.0, 2.0]]))
        ref = importance_weights(np.array([[3, 0], [1, 2]], dtype=np.int64))
        assert np.array_equal(table.omega, ref.omega)
        np.testing.assert_allclose(table.omega[:, 0], [0.75, 0.25], rtol=1e-15)

    @pytest.mark.parametrize("counts", [[1, 2, 3], [[1, 2], [3]], [], np.zeros((0, 3)),
                                        np.ones((2, 2, 2))],
                             ids=["1-D", "ragged", "empty", "no-nodes", "3-D"])
    def test_a_count_matrix_of_the_wrong_shape_is_a_dimension_error(self, counts):
        with pytest.raises(DimensionError, match=r"\[K, C\] matrix"):
            importance_weights(counts)

    def test_a_negative_count_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="non-negative"):
            importance_weights(np.array([[1, -1], [0, 2]]))

    def test_a_table_with_no_classes(self):
        table = WeightTable(np.zeros((3, 0)))
        assert table.omega.shape == (3, 0)
        assert importance_weights(np.zeros((3, 0), dtype=np.int64)).omega.shape == (3, 0)

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
        # derived from the logits, never given
        assert block(0, [[1.0, -2.0]]).local_max_abs == 2.0
        assert block(0, np.zeros((0, 3))).local_max_abs == 0.0
        with pytest.raises(TypeError):
            LogitBlock(0, np.array([[1.0, 2.0]]), 3.0)

    def test_block_is_validated_once(self, monkeypatch):
        calls = []

        def counting(a, name="matrix", cols=None, **kw):
            calls.append(name)
            return check_matrix(a, name, cols, **kw)

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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, -np.nan])
    def test_non_finite_entry_rejected(self, value):
        with pytest.raises(RangeError, match="exceeds z_max"):
            quantize_array(np.array([[value, 0.5]]), 1.0, 200)

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

    def test_max_does_not_overshoot_the_grid(self):
        # S*z_max / (2*z_max) rounds to just above 100, whose ceiling is 101
        z_max = 0.6480681684638473
        assert quantize_array(np.array([[z_max]]), z_max, 200)[0, 0] <= z_max

    @given(st.integers(1, 500), st.floats(1e-300, Z_TOP))
    @settings(max_examples=300, deadline=None)
    def test_a_block_holding_its_max_stays_on_the_grid(self, half, z_max):
        scale = 2 * half
        # the top level S/2 times the step 2*z_max/S may round one ulp past z_max
        q = quantize_array(np.array([[z_max, -z_max]]), z_max, scale)
        assert q.max() <= np.nextafter(z_max, np.inf)

    def test_values_near_the_range_limit_keep_their_level(self):
        # S*z is 2**967 at z = z_max = 2**959; z_max/2 is on the grid of step 2**952
        z_max = 2.0**959
        q = quantize_array(np.array([[z_max, -z_max, z_max / 2]]), z_max, 256)
        assert q.tolist() == [[z_max, -z_max, z_max / 2]]

    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
           st.floats(Z_LIMIT / 4, Z_TOP), st.integers(2, 5000))
    @settings(max_examples=300, deadline=None)
    def test_error_bound_near_the_range_limit(self, fracs, z_max, scale):
        z = np.sort(np.array([fracs]) * z_max)
        q = quantize_array(z, z_max, scale)
        assert np.isfinite(q).all()
        assert np.abs(q - z).max() <= z_max / scale * 2.0 * (1 + 1e-12)
        assert (q[:, 1:] >= q[:, :-1]).all()  # np.diff could overflow


class TestRangeRule:
    """z_max below 2**960 and S below 2**53: refused past the rule, and at its
    largest accepted values finite, with no numpy warning."""

    @pytest.mark.parametrize("z_max, scale, message", [
        (Z_LIMIT, 200, r"z_max must be in \(0, 2\*\*960\)"),
        (1e307, 200, r"z_max must be in \(0, 2\*\*960\)"),
        (1.0, S_LIMIT, r"quantization scale must be in \[2, 2\*\*53\)"),
        (1.0, 10**30, r"quantization scale must be in \[2, 2\*\*53\)"),
    ])
    def test_quantize_array_refuses_a_range_past_the_rule(self, z_max, scale, message):
        with pytest.raises(RangeError, match=f"^{message}$"):
            quantize_array(np.zeros((1, 2)), z_max, scale)

    def test_a_block_reaching_the_limit_is_refused(self):
        with pytest.raises(ValidationError, match=r"^logits: max \|z\| must be < 2\*\*960$"):
            LogitBlock(0, np.array([[0.0, -Z_LIMIT]]))
        assert LogitBlock(0, np.array([[0.0, -Z_TOP]])).local_max_abs == Z_TOP

    def test_the_largest_accepted_values_run_without_a_numpy_warning(self):
        """In a fresh interpreter, outside pytest's warning filters: z_max just
        below 2**960 with S = 2**53 - 1 quantizes to finite grid values within
        the bound the module docstring gives, and a uniform ensemble of 64
        such blocks stays finite."""
        script = textwrap.dedent("""
            import numpy as np
            from fedkd.ensemble import (S_LIMIT, Z_LIMIT, EnsembleConfig, LogitBlock,
                                        ensemble, quantize_array)
            from fedkd.numkit import RandomStream
            z_max, scale = np.nextafter(Z_LIMIT, 0.0), S_LIMIT - 1
            z = np.linspace(-1.0, 1.0, 1001).reshape(-1, 1) * z_max
            q = quantize_array(z, z_max, scale)
            step = 2.0 * z_max / scale
            assert np.isfinite(q).all()
            assert (np.abs(q - z) <= step * (1 + (scale + 1) * 2.0**-52)).all()
            assert (q[1:] >= q[:-1]).all()
            blocks = [LogitBlock(k, z) for k in range(64)]
            cfg = EnsembleConfig(quant_scale=scale, gamma=1.0, weight_mode="uniform")
            assert np.isfinite(ensemble(blocks, None, cfg, RandomStream(0, (1,)))).all()
            print("ok")
        """)
        out = run_python("-c", script)
        assert (out.returncode, out.stdout, out.stderr) == (0, "ok\n", "")


class _StubStream:
    """Stand-in stream returning preset uniforms (for endpoint cases)."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=np.float64)

    def uniform(self, size):
        return self._values


class TestLaplace:
    def test_median_input_gives_zero(self):
        assert laplace_sample(1.0, _StubStream([0.5]), size=1).tolist() == [0.0]

    def test_endpoint_clamped_finite(self):
        out = laplace_sample(1.0, _StubStream(np.array([0.0, 1.0 - 1e-17])), size=2)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("size", [None, ()])
    def test_a_scalar_draw_is_clamped_too(self, size):
        """u = -0.5 drawn as a scalar gives the clamped value, not -inf; any
        other scalar draw gives the array formula's bits."""
        assert laplace_sample(1.0, _StubStream(0.0), size) == laplace_sample(
            1.0, _StubStream([0.0]), 1)[0]
        rs, again = RandomStream(5, (7,)), RandomStream(5, (7,))
        assert same_bits(np.asarray(laplace_sample(2.0, rs, size)),
                         old_laplace(2.0, np.asarray(again.uniform(size)) - 0.5))

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
            laplace_sample(0.0, RandomStream(0, (9,)), size=1)


class TestFastPathBits:
    """The quantizer and the Laplace draw give the bits of the formulas they replace."""

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([1, 9, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7]),
           cols=st.sampled_from([1, 10]),
           z_max=st.sampled_from([1.0, 0.6480681684638473, 3e5, 1e288, Z_LIMIT / 4, Z_TOP]),
           scale=st.sampled_from([2, 3, 200, 255, 10**6, S_LIMIT - 1]),
           seed=st.integers(0, 2**20))
    def test_quantize_matches_the_two_function_quantizer(self, size, cols, z_max, scale, seed):
        """_quantize against the old two-function quantizer (levels, then
        grid values), bit for bit, into a new array and into ``out``."""
        rng = np.random.default_rng(seed)
        z = rng.uniform(-1.0, 1.0, (max(size // cols, 1), cols)) * z_max
        edge = rng.random(z.shape) < 0.2  # the grid's ends, signed zeros, non-finite
        z[edge] = rng.choice([z_max, -z_max, np.nextafter(z_max, 0.0), 0.0, -0.0, DBL_MAX,
                              -DBL_MAX, np.inf, -np.inf, np.nan, -np.nan], int(edge.sum()))
        with np.errstate(over="ignore", invalid="ignore"):
            want = old_grid_values(old_levels(z, z_max, scale), z_max, scale)
            assert same_bits(_quantize(z, z_max, scale), want)
            out = np.empty_like(z)
            assert _quantize(z, z_max, scale, out=out) is out
        assert same_bits(out, want)

    @pytest.mark.parametrize("z_max, scale",
                             [(1.0, 200), (3.0, 7), (Z_TOP, 2), (Z_TOP, S_LIMIT - 1)],
                             ids=["normal", "normal_odd", "limit_z_max", "limit_scale"])
    def test_quantize_special_values(self, z_max, scale):
        z = np.r_[SPECIALS, -np.nan, z_max, -z_max].reshape(1, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            want = old_grid_values(old_levels(z, z_max, scale), z_max, scale)
            assert same_bits(_quantize(z, z_max, scale), want)

    @settings(max_examples=30, deadline=None)
    @given(size=st.sampled_from([1, 5, _BLOCK, _BLOCK + 1, 3 * _BLOCK]),
           gamma=st.sampled_from([1e-300, 0.5, 1.0, 7.0, 1e300]),
           seed=st.integers(0, 2**20))
    def test_laplace_floor(self, size, gamma, seed):
        rng = np.random.default_rng(seed)
        u = rng.random(size)
        edge = rng.random(size) < 0.2  # both endpoints, the median, near-endpoints
        u[edge] = rng.choice([0.0, 0.5, 1.0 - 2**-53, 2**-53, 0.25], int(edge.sum()))
        with np.errstate(over="ignore"):
            got = laplace_sample(gamma, _StubStream(u), size=size)
            want = old_laplace(gamma, u - 0.5)
        assert same_bits(got, want)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 30), cols=st.integers(1, 12), finite=st.booleans(),
           seed=st.integers(0, 2**20))
    def test_block_max_abs_and_finiteness(self, rows, cols, finite, seed):
        z = mixed(seed, (rows, cols), special_share=0.0 if finite else 0.3)
        if not np.isfinite(z).all():
            with pytest.raises(ValidationError, match="^logits: non-finite entries$"):
                LogitBlock(0, z)
            return
        if np.abs(z).max() >= Z_LIMIT:  # SPECIALS' values near DBL_MAX
            with pytest.raises(ValidationError, match=r"^logits: max \|z\| must be < 2\*\*960$"):
                LogitBlock(0, z)
            return
        z[z == 0] = -0.0  # an all-zero block still reports +0.0
        got = LogitBlock(0, z).local_max_abs
        want = float(np.max(np.abs(z)))
        assert same_bits(np.array(got), np.array(want))

    def test_empty_input(self):
        assert laplace_sample(1.0, RandomStream(0, (5,)), size=(0, 3)).shape == (0, 3)
        assert _quantize(np.empty((0, 3)), 1.0, 200).shape == (0, 3)

    def test_all_negative_zero_block_reports_positive_zero(self):
        assert math.copysign(1.0, LogitBlock(0, np.full((2, 3), -0.0)).local_max_abs) == 1.0


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

    def test_uniform_sum_at_the_range_limit_is_the_mean(self):
        """Two blocks at the largest accepted |z| sum to a finite value and
        average to their mean, with no RuntimeWarning (the test config turns
        one into an error)."""
        blocks = [block(0, [[Z_TOP, -Z_TOP]]), block(1, [[Z_TOP, -Z_TOP]])]
        out = ensemble(blocks, None, no_op_cfg(), RandomStream(0, (1,)))
        assert np.array_equal(out, [[Z_TOP, -Z_TOP]])

    @pytest.mark.parametrize("scale", [None, 2, 3, 201, S_LIMIT - 1])
    def test_uniform_blocks_at_the_range_limit_stay_finite(self, scale):
        blocks = [block(k, [[Z_TOP, -Z_TOP, 0.5 * Z_TOP]]) for k in range(3)]
        cfg = EnsembleConfig(quant_scale=scale, gamma=None, weight_mode=UNIFORM)
        out = ensemble(blocks, None, cfg, RandomStream(0, (1,)))
        assert np.isfinite(out).all()
        step = 0.0 if scale is None else 2 * (Z_TOP / scale)  # |Q(z) - z| <= 2*z_max/S
        assert (np.abs(out - blocks[0].logits) - step <= 1e-15 * Z_TOP).all()

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

    @pytest.mark.parametrize("ids, bad", [([0, -1, 2], -1), ([0, 1, 7], 7), ([0, 1, 1], 1)],
                             ids=["negative", "past_the_table", "repeated"])
    def test_a_weighted_block_needs_its_own_weight_row(self, ids, bad):
        """In weighted mode each block's node_id picks a row of the K-row
        table: an id outside [0, K) or one given twice is a DimensionError
        naming the node, not the last row, an IndexError or a row counted
        twice."""
        table = WeightTable(np.full((3, 2), 1 / 3))
        blocks = [block(k, [[1.0, 2.0]]) for k in ids]
        with pytest.raises(DimensionError,
                           match=rf"^block {bad}: node id repeated or not a weight row$"):
            ensemble(blocks, table, no_op_cfg(), RandomStream(0, (1,)))
        ensemble(blocks, None, no_op_cfg(), RandomStream(0, (1,)))  # uniform mode reads no id

    def test_all_zero_blocks_skip_scaling(self):
        cfg = EnsembleConfig(quant_scale=8, gamma=None)
        out = ensemble([block(0, np.zeros((3, 2)))], None, cfg, RandomStream(0, (1,)))
        assert np.array_equal(out, np.zeros((3, 2)))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EnsembleConfig(quant_scale=1)
        with pytest.raises(ConfigurationError):
            EnsembleConfig(quant_scale=S_LIMIT)
        with pytest.raises(ConfigurationError):
            EnsembleConfig(gamma=0.0)
        with pytest.raises(ConfigurationError):
            EnsembleConfig(weight_mode="weird")
        assert EnsembleConfig(weight_mode=UNIFORM).gamma == 1.0

    def test_nan_gamma_rejected(self):
        with pytest.raises(ConfigurationError, match="^gamma must be > 0"):
            EnsembleConfig(gamma=math.nan)
        with pytest.raises(RangeError, match="^gamma must be > 0$"):
            laplace_sample(math.nan, RandomStream(0, (9,)), size=1)


def list_then_sum(blocks, weights, cfg, rs):
    """The ensemble as first written: quantize every block into a list, then
    sum the list; the oracle for the streamed fold. A weight table, when
    given, weights the blocks whatever ``cfg.weight_mode`` says."""
    shape = blocks[0].shape
    quantized = [b.logits for b in blocks]
    if cfg.quant_scale is not None:
        z_max, s = max(b.local_max_abs for b in blocks), cfg.quant_scale
        if z_max > 0:
            top = math.ceil(s / 2)  # the grid's highest level
            quantized = [np.minimum(np.ceil(s * q / (2.0 * z_max)), top) * (2.0 * z_max / s)
                         for q in quantized]
    acc = np.zeros(shape)
    if weights is None:
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
    weights = draw(st.sampled_from([None, importance_weights(np.array(counts))]))
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
        weights = importance_weights(np.arange(1, 11) + np.arange(20)[:, None])
        cfg = EnsembleConfig(quant_scale=200, gamma=1.0)

        def peak(k):
            return traced_peak(lambda: ensemble(blocks[:k], weights, cfg, RandomStream(0, (4,))))

        assert abs(peak(20) - peak(4)) < blocks[0].logits.nbytes

