"""Dataset construction, CSV ingestion, Dirichlet partitioning, profiling."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedkd.datasets

from fedkd.datasets import (
    Dataset,
    CsvSchema,
    GaussianTaskSpec,
    MULTI_LABEL,
    PartitionPlan,
    SINGLE_LABEL,
    dirichlet_partition,
    gen_gaussian_task,
    load_csv,
    profile,
    profile_of,
)
from fedkd.datasets import _effective_labels
from fedkd.errors import ConfigurationError, FormatError, ValidationError
from fedkd.numkit import RandomStream
from fedkd.protocol import TrainConfig

from conftest import rarest_positive_label, reference_gaussian_task, run_centralized, subset

# Monte-Carlo references computed from the generative/partition models alone,
# before this implementation existed (100-seed draws of the raw proportions):
#   alpha=0.1, K=10, C=10, N=10000 -> mean per-node max class share ~0.594
#   two classes at means (+-3, 0), unit cov -> Bayes accuracy ~0.998638
MC_BAYES_TWO_GAUSSIANS = 0.998638


def two_class_spec(cov_scale=1.0, per_class=1000):
    means = np.array([[3.0, 0.0], [-3.0, 0.0]])
    return GaussianTaskSpec(2, 2, per_class, means, cov_scale=cov_scale)


def max_class_share_mean(ds, num_nodes, alpha, seeds):
    shares = []
    for s in seeds:
        plan = dirichlet_partition(ds, num_nodes, alpha, RandomStream(s, (1,)))
        for counts in profile(ds, plan):
            if counts.sum() > 0:
                shares.append(counts.max() / counts.sum())
    return float(np.mean(shares))


class TestGaussianTask:
    def test_same_seed_identical_datasets(self):
        spec = two_class_spec()
        a = gen_gaussian_task(spec, RandomStream(4, (2,)))
        b = gen_gaussian_task(spec, RandomStream(4, (2,)))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("classes, dim, per_class, cov_scale, shift", [
        (2, 2, 1000, 1.0, None),
        (4, 16, 300, 0.7, np.full(16, 1.0 / 16.0)),  # a public split's shift
        (3, 5, 1, 2.5, np.arange(5.0)),
        (3, 4, 0, 1.0, None),  # no rows
    ])
    def test_bits_match_the_block_list_formula(self, classes, dim, per_class, cov_scale, shift):
        """Each class drawn into its slice of one matrix and scaled and shifted
        there gives the bits, labels and stream state of a fresh block per
        class, concatenated."""
        means = RandomStream(9, (1,)).gauss((classes, dim)) * 3.0
        spec = GaussianTaskSpec(classes, dim, per_class, means, cov_scale, shift)
        rs, ref_rs = RandomStream(9, (2,)), RandomStream(9, (2,))
        ds, ref = gen_gaussian_task(spec, rs), reference_gaussian_task(spec, ref_rs)
        assert ds.features.shape == (classes * per_class, dim)
        assert np.array_equal(ds.features.view(np.int64), ref.features.view(np.int64))
        assert ds.labels.dtype == ref.labels.dtype and np.array_equal(ds.labels, ref.labels)
        assert rs.uniform() == ref_rs.uniform()  # both drew the same number of samples

    def test_separable_limit_reaches_perfect_accuracy(self):
        spec = two_class_spec(cov_scale=1e-6, per_class=200)
        train = gen_gaussian_task(spec, RandomStream(0, (3,)))
        test = gen_gaussian_task(spec, RandomStream(1, (3,)))
        _, acc = run_centralized(train, test, TrainConfig([], epochs=5), 0)
        assert acc == 1.0

    def test_trained_model_near_bayes_optimal(self):
        train = gen_gaussian_task(two_class_spec(), RandomStream(0, (4,)))
        test = gen_gaussian_task(two_class_spec(), RandomStream(1, (4,)))
        _, acc = run_centralized(train, test, TrainConfig([8], epochs=15), 0)
        assert abs(acc - MC_BAYES_TWO_GAUSSIANS) <= 0.03

    def test_domain_shift_moves_the_means(self):
        base = two_class_spec(per_class=2000)
        shifted = GaussianTaskSpec(2, 2, 2000, base.class_means, domain_shift=np.array([5.0, 0.0]))
        a = gen_gaussian_task(base, RandomStream(0, (5,)))
        b = gen_gaussian_task(shifted, RandomStream(0, (5,)))
        np.testing.assert_allclose(b.features.mean(0) - a.features.mean(0), [5.0, 0.0], atol=1e-9)


class TestLabelValues:
    @pytest.mark.parametrize("task, num_classes, value, message", [
        (SINGLE_LABEL, 3, 0.5, "non-integer label value"),
        (SINGLE_LABEL, 3, np.nan, "non-finite label value"),
        (SINGLE_LABEL, 3, 1e30, "label out of range [0, 3)"),
        (SINGLE_LABEL, 3, -1e30, "label out of range [0, 3)"),
        (MULTI_LABEL, 1, 0.5, "non-integer label value"),
        (MULTI_LABEL, 1, np.nan, "non-finite label value"),
        (MULTI_LABEL, 1, 1e30, "multi-label entries must be in {-1, 0, 1}"),
        (MULTI_LABEL, 1, 2.0, "multi-label entries must be in {-1, 0, 1}"),
        (MULTI_LABEL, 1, -2.0, "multi-label entries must be in {-1, 0, 1}"),
    ])
    def test_a_float_label_must_be_an_int_in_range(self, task, num_classes, value, message):
        """A float label is checked, never truncated; one far out of range
        reaches the range check with no numpy warning from the int cast."""
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Dataset(np.zeros((1, 1)), np.array([[value]]), task, num_classes)

    @pytest.mark.parametrize("task, num_classes, message", [
        (SINGLE_LABEL, 3, "label out of range [0, 3)"),
        (MULTI_LABEL, 1, "multi-label entries must be in {-1, 0, 1}"),
    ])
    def test_an_unsigned_label_past_int64_is_out_of_range(self, task, num_classes, message):
        """2**64 - 1 is out of range, not wrapped to -1, which a multi-label
        task would take as "unknown"."""
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Dataset(np.zeros((1, 1)), np.array([[2**64 - 1]], dtype=np.uint64), task, num_classes)
        small = Dataset(np.zeros((1, 1)), np.array([[2]], dtype=np.uint8), SINGLE_LABEL, 3)
        assert small.labels.dtype == np.int64 and small.labels.tolist() == [[2]]

    @pytest.mark.parametrize("labels", [np.array([[1 + 0j]]), np.array([["1"]]),
                                        np.array([[1]], dtype=object)])
    def test_a_label_dtype_other_than_bool_int_or_float_is_rejected(self, labels):
        with pytest.raises(ValidationError,
                           match=f"^labels must be bool, int or float, got {labels.dtype}$"):
            Dataset(np.zeros((1, 1)), labels, SINGLE_LABEL, 3)


class TestLoadCsv:
    SCHEMA = CsvSchema(["f0", "f1"], ["label"], SINGLE_LABEL, 3)

    def test_hand_written_rows_round_trip(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label\n0.5,1.25,0\n-1.0,0.0,2\n3.5,-2.25,1\n")
        ds = load_csv(p, self.SCHEMA)
        np.testing.assert_array_equal(ds.features, [[0.5, 1.25], [-1.0, 0.0], [3.5, -2.25]])
        np.testing.assert_array_equal(ds.labels, [[0], [2], [1]])

    def test_byte_order_mark_loads_like_the_plain_file(self, tmp_path):
        text = "f0,f1,label\n0.5,1.25,0\n-1.0,0.0,2\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        a, b = load_csv(plain, self.SCHEMA), load_csv(bom, self.SCHEMA)
        np.testing.assert_array_equal(b.features, a.features)
        np.testing.assert_array_equal(b.labels, a.labels)

    def test_empty_data_section_gives_n_zero(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label\n")
        assert load_csv(p, self.SCHEMA).n == 0

    def test_label_out_of_range_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label\n1,1,0\n1,1,7\n")
        schema = CsvSchema(["f0", "f1"], ["label"], SINGLE_LABEL, 5)
        with pytest.raises(ValidationError, match="row 2"):
            load_csv(p, schema)

    def test_unparseable_value_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label\n1,oops,0\n")
        with pytest.raises(FormatError, match="row 1"):
            load_csv(p, self.SCHEMA)

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label\n1,0\n")
        with pytest.raises(FormatError, match="f1"):
            load_csv(p, self.SCHEMA)

    @pytest.mark.parametrize("row, what", [
        ("nan,1,0", "features: non-finite entries"), ("1,-inf,0", "features: non-finite entries"),
        ("1,1,inf", "non-finite label value"), ("1,1,nan", "non-finite label value")])
    def test_non_finite_value_names_row(self, tmp_path, row, what):
        """Rejected at load, with no numpy warning from the label cast."""
        p = tmp_path / "d.csv"
        p.write_text(f"f0,f1,label\n1,1,0\n2,2,1\n{row}\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(p))}: row 3: {what}$"):
            load_csv(p, self.SCHEMA)

    @pytest.mark.parametrize("rows, message", [
        ("1,2,0,9\n", "row 1: 4 fields, the header has 3"),  # an unquoted comma in one field
        ("1,2,0\n1,2\n", "row 2: 2 fields, the header has 3"),
    ], ids=["extra_field", "short_row"])
    def test_a_row_needs_the_headers_field_count(self, tmp_path, rows, message):
        p = tmp_path / "d.csv"
        p.write_text(f"f0,f1,label\n{rows}")
        with pytest.raises(FormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
            load_csv(p, self.SCHEMA)

    def test_of_two_equal_header_names_the_last_wins(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label,f1,label\n0.5,9,1.25,2\n")
        ds = load_csv(p, self.SCHEMA)
        assert ds.features.tolist() == [[0.5, 1.25]] and ds.labels.tolist() == [[2]]

    @pytest.mark.parametrize("schema, rows, message", [
        (SCHEMA, "1,1,0\n1,1,3\nnan,1,0\n", "row 2: label out of range [0, 3)"),
        (SCHEMA, "1,1,0\nnan,1,0\n1,1,nan\n", "row 2: features: non-finite entries"),
        (SCHEMA, "1,1,0\n2,2,1\n1,1,1e30\n", "row 3: label out of range [0, 3)"),
        (SCHEMA, "1,1,0\n2,2,1\n1,1,-1e19\n", "row 3: label out of range [0, 3)"),
        (SCHEMA, "\n1,1,0\n\n1,1,5\n", "row 2: label out of range [0, 3)"),  # blank lines skipped
        (SCHEMA, "1,1,0\ninf,1,9\n", "row 2: features: non-finite entries"),
        (CsvSchema(["f0", "f1"], ["c0"], MULTI_LABEL, 1), "1,1,1\n1,1,-1\n2,nan,0\n1,1,2\n",
         "row 3: features: non-finite entries"),
        (CsvSchema(["f0", "f1"], ["c0"], MULTI_LABEL, 1), "1,1,1\n1,1,2\n",
         "row 2: multi-label entries must be in {-1, 0, 1}"),
    ])
    def test_a_dataset_check_names_the_first_row_that_fails_it(self, tmp_path, schema, rows,
                                                               message):
        """load_csv leaves features and label values to Dataset's one check,
        and names the first row that fails it, with Dataset's message; a
        label past the int64 range casts with no numpy warning."""
        p = tmp_path / "d.csv"
        p.write_text(f"f0,f1,{schema.label_cols[0]}\n{rows}")
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{p}: {message}')}$"):
            load_csv(p, schema)

    def test_a_valid_table_is_checked_by_one_dataset(self, tmp_path, monkeypatch):
        built = []

        class Counted(Dataset):
            def __post_init__(self):
                built.append(len(self.features))
                super().__post_init__()

        monkeypatch.setattr(fedkd.datasets, "Dataset", Counted)
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label\n0.5,1.25,0\n-1.0,0.0,2\n")
        assert load_csv(p, self.SCHEMA).n == 2 and built == [2]

    def test_multi_label_entries_validated(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,c0,c1\n1.0,1,-1\n2.0,0,2\n")
        schema = CsvSchema(["f0"], ["c0", "c1"], MULTI_LABEL, 2)
        with pytest.raises(ValidationError, match="row 2"):
            load_csv(p, schema)


def effective_class(row, counts):
    """The effective class of ``row`` in a set of it plus one-hot filler rows
    that bring class c's global positives to ``counts[c]``."""
    fill = np.asarray(counts) - (np.asarray(row) == 1)
    labels = np.vstack([[row], np.repeat(np.eye(len(row), dtype=np.int64), fill, axis=0)])
    ds = Dataset(np.zeros((len(labels), 1)), labels, MULTI_LABEL, len(row))
    return int(_effective_labels(ds)[0])


class TestRarestPositive:
    def test_single_positive_returns_it(self):
        assert effective_class([0, 0, 1, -1], [9, 9, 9, 9]) == 2

    def test_least_frequent_positive_wins(self):
        assert effective_class([0, 1, 0, 0, 1], [0, 500, 0, 0, 20]) == 4

    def test_tie_breaks_to_lowest_index(self):
        assert effective_class([0, 1, 0, 0, 1], [7, 7, 7, 7, 7]) == 1

    def test_all_negative_goes_to_pseudo_class(self):
        assert effective_class([0, -1, 0], [1, 2, 3]) == 3


@st.composite
def multi_label_sets(draw, max_rows=24):
    """Small multi-label sets: rows with no positive, tied counts, unknown
    cells, and a class no row marks positive are all common."""
    c = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=c, max_size=c),
                         max_size=max_rows))
    labels = np.array(rows, dtype=np.int64).reshape(len(rows), c)
    if c and draw(st.booleans()):
        labels[:, draw(st.integers(0, c - 1))] = draw(st.sampled_from([-1, 0]))
    return Dataset(np.zeros((len(rows), 1)), labels, MULTI_LABEL, c)


class TestEffectiveLabels:
    @given(multi_label_sets())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_row_rule(self, ds):
        global_pos = (ds.labels == 1).sum(axis=0)
        ref = [rarest_positive_label(row, global_pos) for row in ds.labels]
        eff = _effective_labels(ds)
        assert eff.dtype == np.int64
        assert eff.tolist() == ref


def reference_partition(ds, num_nodes, alpha, rs):
    """dirichlet_partition as per-class slicing: each class's shuffled indices
    are cut at the Dirichlet draw's cumulative edges, node by node."""
    if ds.task == SINGLE_LABEL:
        eff = ds.labels[:, 0]
    else:
        global_pos = (ds.labels == 1).sum(axis=0)
        eff = np.array([rarest_positive_label(row, global_pos) for row in ds.labels])
    parts = [[] for _ in range(num_nodes)]
    for c in sorted(set(eff.tolist())):
        idx = np.flatnonzero(eff == c)
        idx = idx[rs.permutation(idx.size)]
        p = rs.dirichlet(np.full(num_nodes, float(alpha)))
        edges = np.floor(np.cumsum(p) * idx.size).astype(np.int64)
        edges[-1] = idx.size
        start = 0
        for k in range(num_nodes):
            parts[k] += idx[start:edges[k]].tolist()
            start = edges[k]
    return [sorted(part) for part in parts]


def balanced_single(n_per_class, num_classes, dim=2, seed=0):
    means = 10.0 * np.eye(num_classes, dim)
    spec = GaussianTaskSpec(num_classes, dim, n_per_class, means)
    return gen_gaussian_task(spec, RandomStream(seed, (6,)))


class TestDirichletPartition:
    def test_single_node_takes_everything(self):
        ds = balanced_single(50, 2)
        plan = dirichlet_partition(ds, 1, 0.3, RandomStream(0, (1,)))
        assert sorted(plan.assignments[0].tolist()) == list(range(ds.n))

    def test_huge_alpha_gives_uniform_histograms(self):
        ds = balanced_single(1000, 4)
        plan = dirichlet_partition(ds, 4, 1e6, RandomStream(0, (1,)))
        for counts in profile(ds, plan):
            rel = np.abs(counts / counts.mean() - 1.0)
            assert rel.max() <= 0.05

    def test_small_alpha_concentrates_classes(self):
        ds = balanced_single(1000, 10)
        mean_share = max_class_share_mean(ds, 10, 0.1, range(20))
        assert mean_share > 0.5  # plain-proportion Monte Carlo puts this at ~0.59

    def test_heterogeneity_decreases_with_alpha(self):
        ds = balanced_single(500, 4)
        m = {a: max_class_share_mean(ds, 5, a, range(50)) for a in (0.1, 1.0, 100.0)}
        assert m[0.1] > m[1.0] > m[100.0]
        assert m[0.1] - m[1.0] > 0.1 and m[1.0] - m[100.0] > 0.1

    def test_every_sample_assigned_exactly_once(self):
        ds = balanced_single(137, 3)
        for k in (1, 2, 7):
            plan = dirichlet_partition(ds, k, 0.5, RandomStream(k, (1,)))
            flat = np.concatenate(plan.assignments)
            assert sorted(flat.tolist()) == list(range(ds.n))

    def test_more_nodes_than_samples_rejected(self):
        ds = balanced_single(2, 2)  # N = 4
        with pytest.raises(ConfigurationError):
            dirichlet_partition(ds, 5, 1.0, RandomStream(0, (1,)))

    def test_nonpositive_alpha_rejected(self):
        ds = balanced_single(5, 2)
        with pytest.raises(ConfigurationError):
            dirichlet_partition(ds, 2, 0.0, RandomStream(0, (1,)))

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_nan_or_infinite_alpha_rejected(self, alpha):
        """Named by the argument check, not left to fail inside numpy."""
        with pytest.raises(ConfigurationError, match="^alpha must be > 0 and finite$"):
            dirichlet_partition(balanced_single(5, 2), 3, alpha, RandomStream(0, (1,)))

    def test_multi_label_partition_covers_dataset(self):
        labels = np.array([
            [1, -1, 0], [0, 1, 0], [0, 0, 0], [1, 1, -1],
            [0, 0, 1], [0, 0, 0], [1, 0, 0], [-1, 1, 0],
        ])
        ds = Dataset(np.arange(16, dtype=float).reshape(8, 2), labels, MULTI_LABEL, 3)
        plan = dirichlet_partition(ds, 2, 1.0, RandomStream(0, (1,)))
        flat = np.concatenate(plan.assignments)
        assert sorted(flat.tolist()) == list(range(8))

    @pytest.mark.parametrize("num_nodes", [1, 3, 9])
    @pytest.mark.parametrize("alpha", [0.05, 1.0, 1e4])
    def test_equals_per_class_slicing(self, num_nodes, alpha):
        """Single- and multi-label sets whose rarest classes have fewer rows
        than there are nodes."""
        rng = np.random.default_rng(0)
        for seed in range(4):
            single = Dataset(np.zeros((60, 1)), rng.choice(5, (60, 1), p=[.6, .3, .05, .03, .02]),
                             SINGLE_LABEL, 5)
            multi = Dataset(np.zeros((60, 1)), rng.choice([-1, 0, 1], (60, 4), p=[.2, .7, .1]),
                            MULTI_LABEL, 4)
            for ds in (single, multi):
                plan = dirichlet_partition(ds, num_nodes, alpha, RandomStream(seed, (1,)))
                ref = reference_partition(ds, num_nodes, alpha, RandomStream(seed, (1,)))
                assert [a.tolist() for a in plan.assignments] == ref
                assert all(a.dtype == np.int64 for a in plan.assignments)


class TestProfile:
    def test_single_label_counts(self):
        ds = Dataset(np.zeros((3, 1)), np.array([[0], [0], [1]]), SINGLE_LABEL, 2)
        plan = PartitionPlan([np.array([0, 1, 2])])
        assert profile(ds, plan)[0].tolist() == [2, 1]

    def test_empty_node_all_zero(self):
        ds = Dataset(np.zeros((2, 1)), np.array([[0], [1]]), SINGLE_LABEL, 2)
        plan = PartitionPlan([np.array([0, 1]), np.array([], dtype=int)])
        assert profile(ds, plan)[1].tolist() == [0, 0]

    def test_multi_label_counts_only_positives(self):
        ds = Dataset(np.zeros((2, 1)), np.array([[1, -1], [0, 1]]), MULTI_LABEL, 2)
        plan = PartitionPlan([np.array([0, 1])])
        assert profile(ds, plan)[0].tolist() == [1, 1]

    def test_profiles_sum_to_partition_sizes(self):
        ds = balanced_single(40, 3)
        plan = dirichlet_partition(ds, 4, 0.5, RandomStream(2, (1,)))
        for counts, idx in zip(profile(ds, plan), plan.assignments):
            assert counts.sum() == len(idx)

    def test_profile_of_matches_subset(self):
        ds = balanced_single(10, 3)
        assert profile_of(subset(ds, np.arange(5))).sum() == 5

    def test_multi_label_empty_node_all_zero(self):
        ds = Dataset(np.zeros((2, 1)), np.array([[1, -1], [0, 1]]), MULTI_LABEL, 2)
        plan = PartitionPlan([np.array([0, 1]), np.array([], dtype=int)])
        profiles = profile(ds, plan)
        assert profiles[1].tolist() == [0, 0]
        for counts, idx in zip(profiles, plan.assignments):  # the two counts agree
            assert profile_of(subset(ds, idx)).tolist() == counts.tolist()

    def test_profile_of_an_empty_set_is_all_zero(self):
        ds = Dataset(np.zeros((0, 1)), np.zeros((0, 1), dtype=int), SINGLE_LABEL, 3)
        assert profile_of(ds).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("multi", [False, True])
    def test_row_k_is_the_profile_of_node_k(self, multi):
        rng = np.random.default_rng(3)
        labels = (rng.choice([-1, 0, 1], size=(50, 3)) if multi
                  else rng.integers(0, 3, size=(50, 1)))
        ds = Dataset(np.zeros((50, 1)), labels, MULTI_LABEL if multi else SINGLE_LABEL, 3)
        plan = dirichlet_partition(ds, 7, 0.3, RandomStream(1, (1,)))
        counts = profile(ds, plan)
        assert counts.shape == (7, 3) and counts.dtype == np.int64
        for k, idx in enumerate(plan.assignments):
            node = profile_of(subset(ds, idx))
            assert node.dtype == np.int64
            assert counts[k].tolist() == node.tolist()

    def test_a_partition_of_an_empty_set(self):
        ds = Dataset(np.zeros((0, 1)), np.zeros((0, 1), dtype=int), SINGLE_LABEL, 3)
        assert profile(ds, PartitionPlan([])).shape == (0, 3)
