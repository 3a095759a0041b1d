"""Dataset construction: synthetic Gaussian class clouds with optional domain
shift, CSV ingestion, Dirichlet non-IID partitioning, and class-count
profiles: a [K, C] int64 count array per partition, a [C] one per dataset.

Labels are an (N, 1) int array of class indices for single-label tasks, or an
(N, C) array over {-1, 0, 1} (unknown / negative / positive) for multi-label
tasks. Datasets have finite features and are immutable after construction.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError, ValidationError
from .numkit import RandomStream, check_ints

SINGLE_LABEL = "single_label"
MULTI_LABEL = "multi_label"


@dataclass
class Dataset:
    features: np.ndarray  # N x d float64
    labels: np.ndarray    # N x 1 ints (single) or N x C in {-1,0,1} (multi)
    task: str
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValidationError("features must be 2-D")
        if not np.isfinite(self.features).all():
            raise ValidationError("features: non-finite entries")
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "biuf":
            raise ValidationError(f"labels must be bool, int or float, got {labels.dtype}")
        if labels.dtype.kind == "f":  # never truncated: a label must be an exact int
            if not np.isfinite(labels).all():
                raise ValidationError("non-finite label value")
            if (labels != np.round(labels)).any():
                raise ValidationError("non-integer label value")
        if labels.dtype.kind in "fu":  # int64-safe; out of range stays out
            labels = labels.clip(-2, max(self.num_classes, 2))
        self.labels = np.asarray(labels, dtype=np.int64)
        n = self.features.shape[0]
        if self.task == SINGLE_LABEL:
            if self.labels.shape != (n, 1):
                raise ValidationError(f"single-label labels must be (N, 1), got {self.labels.shape}")
            if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
                raise ValidationError(f"label out of range [0, {self.num_classes})")
        elif self.task == MULTI_LABEL:
            if self.labels.shape != (n, self.num_classes):
                raise ValidationError(f"multi-label labels must be (N, C), got {self.labels.shape}")
            if n and not np.isin(self.labels, (-1, 0, 1)).all():
                raise ValidationError("multi-label entries must be in {-1, 0, 1}")
        else:
            raise ValidationError(f"unknown task {self.task!r}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class PartitionPlan:
    """Disjoint index lists into a parent dataset, one per node."""

    assignments: list[np.ndarray]

    def __post_init__(self):
        self.assignments = [np.asarray(a, dtype=np.int64) for a in self.assignments]

    @property
    def num_nodes(self) -> int:
        return len(self.assignments)

    def validate_for(self, ds: Dataset) -> None:
        flat = np.concatenate(self.assignments) if self.assignments else np.empty(0, dtype=np.int64)
        if flat.size != ds.n or (flat.size and (np.sort(flat) != np.arange(ds.n)).any()):
            raise ValidationError("assignments must cover the dataset exactly once")


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass
class GaussianTaskSpec:
    """Isotropic Gaussian clouds, one per class, optionally domain-shifted.

    Class c is drawn from Normal(class_means[c] + domain_shift, cov_scale^2 I).
    """

    num_classes: int
    dim: int
    per_class_count: int
    class_means: np.ndarray           # C x d
    cov_scale: float = 1.0
    domain_shift: np.ndarray | None = None  # length d; default zero

    def __post_init__(self):
        if self.num_classes < 2 or self.dim < 1:
            raise ConfigurationError("num_classes >= 2 and dim >= 1 required")
        self.class_means = np.asarray(self.class_means, dtype=np.float64)
        if self.class_means.shape != (self.num_classes, self.dim):
            raise ConfigurationError(
                f"class_means shape {self.class_means.shape}, expected {(self.num_classes, self.dim)}"
            )
        if self.domain_shift is None:
            self.domain_shift = np.zeros(self.dim)
        self.domain_shift = np.asarray(self.domain_shift, dtype=np.float64)
        if self.domain_shift.shape != (self.dim,):
            raise ConfigurationError("domain_shift must be a length-d vector")


def gen_gaussian_task(spec: GaussianTaskSpec, rs: RandomStream) -> Dataset:
    """Sample per_class_count points per class, in class order; deterministic
    per stream. Each class's block is drawn, scaled and shifted in place in
    its slice of the one [C * n, d] feature matrix."""
    n = spec.per_class_count
    features = np.empty((spec.num_classes * n, spec.dim))
    for c in range(spec.num_classes):
        x = features[c * n : (c + 1) * n]
        rs.gauss(out=x)
        x *= spec.cov_scale
        x += spec.class_means[c] + spec.domain_shift
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), n).reshape(-1, 1)
    return Dataset(features, labels, SINGLE_LABEL, spec.num_classes)


# ---------------------------------------------------------------------------
# CSV ingestion


@dataclass
class CsvSchema:
    feature_cols: list[str]
    label_cols: list[str]
    task_type: str
    num_classes: int

    def __post_init__(self):
        if self.task_type not in (SINGLE_LABEL, MULTI_LABEL):
            raise ConfigurationError(f"unknown task_type {self.task_type!r}")
        if self.num_classes < 1:
            raise ConfigurationError("num_classes must be >= 1")
        if self.task_type == SINGLE_LABEL and len(self.label_cols) != 1:
            raise ConfigurationError("single-label schema needs exactly one label column")
        if self.task_type == MULTI_LABEL and len(self.label_cols) != self.num_classes:
            raise ConfigurationError("multi-label schema needs one label column per class")


def load_csv(path: str | Path, schema: CsvSchema) -> Dataset:
    """Read a UTF-8, header-first CSV into a Dataset; a leading byte-order
    mark, as spreadsheet exports write, and blank lines are skipped. A parse
    failure or a row whose field count is not the header's is a FormatError,
    and a row that fails a Dataset check (sought row by row only once the
    whole table has failed) a ValidationError, each naming the 1-based row."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file, expected a header row")
        col = {name: i for i, name in enumerate(header)}  # of two equal names, the last wins
        missing = [c for c in schema.feature_cols + schema.label_cols if c not in col]
        if missing:
            raise FormatError(f"{path}: missing columns {missing}")
        feats, labs = [], []
        for rownum, row in enumerate(filter(None, reader), start=1):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, the header has {len(header)}")
                feats.append([float(row[col[c]]) for c in schema.feature_cols])
                labs.append([float(row[col[c]]) for c in schema.label_cols])
            except ValueError as exc:
                raise FormatError(f"{path}: row {rownum}: {exc}") from exc

    features = np.asarray(feats, dtype=np.float64).reshape(len(feats), len(schema.feature_cols))
    labels = np.asarray(labs, dtype=np.float64).reshape(len(labs), len(schema.label_cols))
    try:
        return Dataset(features, labels, schema.task_type, schema.num_classes)
    except ValidationError:
        for r in range(len(labels)):
            try:
                Dataset(features[r : r + 1], labels[r : r + 1], schema.task_type, schema.num_classes)
            except ValidationError as err:
                raise ValidationError(f"{path}: row {r + 1}: {err}") from None
        raise


# ---------------------------------------------------------------------------
# partitioning


def _effective_labels(ds: Dataset) -> np.ndarray:
    """Each row's class for partitioning: its label (single-label), or its
    positive class with the fewest positives globally, ties to the lowest
    index; a row with no positive goes to the pseudo-class C, its own bucket."""
    if ds.task == SINGLE_LABEL:
        return ds.labels[:, 0]
    pos = ds.labels == 1
    # a positive cell ranks by its class's count (at most N), any other cell
    # after column C's N; argmin takes the first of equal ranks
    rank = np.where(pos, pos.sum(axis=0), ds.n + 1)
    return np.column_stack([rank, np.full(ds.n, ds.n)]).argmin(axis=1)


def check_partition(num_nodes: int, alpha: float) -> None:
    """The data-free check of :func:`dirichlet_partition`'s arguments."""
    check_ints(num_nodes=num_nodes)
    if num_nodes < 1:
        raise ConfigurationError("num_nodes must be >= 1")
    if not 0 < alpha < np.inf:
        raise ConfigurationError("alpha must be > 0 and finite")


def dirichlet_partition(ds: Dataset, num_nodes: int, alpha: float, rs: RandomStream) -> PartitionPlan:
    """Class-wise Dirichlet split: for each class, proportions over nodes are
    drawn from Dirichlet(alpha * 1_K) and the class's (shuffled) indices are
    cut at the cumulative boundaries. Smaller alpha -> more skew. Multi-label
    datasets are bucketed by their rarest positive class first.
    """
    check_partition(num_nodes, alpha)
    if num_nodes > ds.n:
        raise ConfigurationError(f"cannot split {ds.n} samples across {num_nodes} nodes")

    eff = _effective_labels(ds)
    owner = np.empty(ds.n, dtype=np.int64)  # each row's node
    for c in np.flatnonzero(np.bincount(eff)):  # the classes present, ascending
        idx = np.flatnonzero(eff == c)
        idx = idx[rs.permutation(idx.size)]
        p = rs.dirichlet(np.full(num_nodes, float(alpha)))
        edges = np.floor(np.cumsum(p) * idx.size).astype(np.int64)
        edges[-1] = idx.size  # guard against rounding shortfall
        owner[idx] = np.repeat(np.arange(num_nodes), np.diff(edges, prepend=0))
    parts = [np.flatnonzero(owner == k) for k in range(num_nodes)]
    return PartitionPlan(parts)


def _class_counts(ds: Dataset, rows) -> np.ndarray:
    """[C] int64 class counts of ``ds.labels[rows]``: label occurrences
    (single) or positives (multi); no rows give all zeros."""
    if ds.task == SINGLE_LABEL:
        return np.bincount(ds.labels[rows, 0], minlength=ds.num_classes)
    return (ds.labels[rows] == 1).sum(axis=0)


def profile(ds: Dataset, plan: PartitionPlan) -> np.ndarray:
    """[K, C] int64 class counts, row k over node k's part of ``ds``."""
    plan.validate_for(ds)
    return np.array([_class_counts(ds, idx) for idx in plan.assignments],
                    dtype=np.int64).reshape(plan.num_nodes, ds.num_classes)


def profile_of(ds: Dataset) -> np.ndarray:
    """[C] class counts of a whole dataset (a node's actual training set)."""
    return _class_counts(ds, slice(None))
