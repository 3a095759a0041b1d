"""Privacy-preserving logit aggregation: per-class importance weights, uniform
quantization against a global scale, Laplace perturbation, and the weighted
noisy ensemble of per-node logit blocks.

The quantizer follows the closed form Q(z) = ceil(S*z / (2*z_max)) * 2*z_max/S,
with the level clamped to ceil(S/2) against rounding at z = z_max, so the
emitted grid has at most S+1 distinct levels on [-z_max, z_max] and the
per-value error is bounded by 2*z_max/S. Where S*z_max overflows, the level
is ceil(z/z_max * S/2), clamped to floor(S/2), and its value level/(S/2) *
z_max, so no step of the arithmetic can overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, RangeError, ValidationError
from .numkit import RandomStream, _clamp, _rowwise, check_matrix

PER_CLASS = "per_class"
UNIFORM = "uniform"

_TINY = np.finfo(np.float64).tiny
_DBL_MAX = np.finfo(np.float64).max


@dataclass
class LogitBlock:
    """One node's logits over the public set plus its max-absolute scalar.

    Only ``local_max_abs`` (8 bytes) and the logit payload ever leave a node;
    the scalar is what the server gathers to fix the global quantization range.
    """

    node_id: int
    logits: np.ndarray  # |D0| x C
    local_max_abs: float = field(init=False)  # the actual max of |logits|

    def __post_init__(self):
        # one max and one min give both the finiteness check (NaN propagates
        # through either) and max |logits|, with no temporary array
        logits = check_matrix(self.logits, "logits", finite=False)
        hi, lo = (logits.max(), logits.min()) if logits.size else (0.0, 0.0)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValidationError("logits: non-finite entries")
        self.logits = logits
        self.local_max_abs = float(max(abs(hi), abs(lo)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.logits.shape


@dataclass
class EnsembleConfig:
    """Aggregation knobs. ``quant_scale=None`` disables quantization,
    ``gamma=None`` disables noise; ``gamma`` is the inverse Laplace scale, so
    smaller gamma means more noise."""

    quant_scale: int | None = 200
    gamma: float | None = 1.0
    weight_mode: str = PER_CLASS

    def __post_init__(self):
        if self.quant_scale is not None and self.quant_scale < 2:
            raise ConfigurationError("quant_scale must be >= 2 (or None to disable)")
        if self.gamma is not None and not self.gamma > 0:
            raise ConfigurationError("gamma must be > 0 (or None to disable)")
        if self.weight_mode not in (PER_CLASS, UNIFORM):
            raise ConfigurationError(f"unknown weight_mode {self.weight_mode!r}")


@dataclass
class WeightTable:
    """K x C aggregation weights; every class column is a probability vector."""

    omega: np.ndarray

    def __post_init__(self):
        self.omega = check_matrix(self.omega, "omega")
        if (self.omega < 0).any():
            raise ValidationError("weights must be non-negative")
        col = self.omega.sum(axis=0)
        if self.omega.shape[0] and (np.abs(col - 1.0) > 1e-12).any():
            raise ValidationError("each class column must sum to 1")


def importance_weights(counts) -> WeightTable:
    """Node k's share of class c: counts[k, c] / column total, from a [K, C]
    count matrix read as int64.

    Classes no node has ever seen get uniform 1/K so the ensemble stays
    defined and symmetric.
    """
    try:
        counts = np.asarray(counts, dtype=np.int64)
    except ValueError:  # a ragged nesting
        raise DimensionError("counts must be a [K, C] matrix") from None
    if counts.ndim != 2 or not counts.shape[0]:
        raise DimensionError(f"counts must be a [K, C] matrix with K >= 1, got {counts.shape}")
    if (counts < 0).any():
        raise ValidationError("counts must be non-negative")
    col = counts.sum(axis=0)
    omega = np.where(col > 0, counts / np.where(col > 0, col, 1.0), 1.0 / counts.shape[0])
    return WeightTable(omega)


def global_max_abs(blocks: list[LogitBlock]) -> float:
    """Server-side max of the per-node max-abs scalars."""
    if not blocks or all(b.logits.size == 0 for b in blocks):
        raise ConfigurationError("no logits to take a maximum over")
    return max(b.local_max_abs for b in blocks)


def _quantize(z: np.ndarray, z_max: float, scale: int, out: np.ndarray | None = None) -> np.ndarray:
    """Unchecked grid values of ``z``, written into ``out`` (a new array if
    None): the level ceil(S*z / (2*z_max)), clamped to ceil(S/2) since at
    z = z_max the quotient can round to just above S/2, times the step
    2*z_max/S. Where S*z_max overflows, the level is ceil(z/z_max * S/2),
    clamped to floor(S/2), over S/2 and then times z_max."""
    out = np.empty(np.shape(z)) if out is None else out
    wide = not math.isfinite(scale * float(z_max))  # S*z for some |z| <= z_max overflows
    if wide:
        np.divide(z, z_max, out=out)
        out *= scale / 2
    else:
        np.multiply(scale, z, out=out)
        out /= 2.0 * z_max
    np.ceil(out, out=out)
    _clamp(np.minimum, out, float(scale // 2 if wide else -(-scale // 2)))
    if wide:
        out /= scale / 2
        out *= z_max
    else:
        out *= 2.0 * z_max / scale
    return out


def quantize_array(z: np.ndarray, z_max: float, scale: int) -> np.ndarray:
    """Snap every logit to the uniform grid defined by z_max and scale."""
    if not z_max > 0:
        raise RangeError("z_max must be > 0")
    if scale < 2:
        raise RangeError("quantization scale must be >= 2")
    z = np.asarray(z, dtype=np.float64)
    if z.size and not np.max(np.abs(z)) <= z_max:  # NaN fails the test too
        raise RangeError(f"|z| exceeds z_max={z_max} (stale z_max?)")
    return _quantize(z, z_max, scale)


def laplace_sample(gamma: float, rs: RandomStream, size) -> np.ndarray:
    """Inverse-CDF samples from Laplace(0, 1/gamma), as an array of shape
    ``size``.

    With u uniform in (-0.5, 0.5): -(1/gamma) * sign(u) * ln(1 - 2|u|).
    The u = +-0.5 endpoint (probability ~2^-53) is clamped so outputs stay
    finite.
    """
    if not gamma > 0:
        raise RangeError("gamma must be > 0")
    u = rs.uniform(size) - 0.5
    mag = _clamp(np.maximum, 1.0 - 2.0 * np.abs(u), _TINY)
    return -(1.0 / gamma) * np.sign(u) * np.log(mag)


def ensemble(
    blocks: list[LogitBlock],
    weights: WeightTable | None,
    cfg: EnsembleConfig,
    rs: RandomStream,
) -> np.ndarray:
    """Aggregate per Eq-style weighted sum of quantized blocks plus one fresh
    Laplace draw per (sample, class) cell. The blocks are weighted if and only
    if ``weights`` is given; without it they are averaged.

    Blocks fold into one accumulator in list (node) order through one reused
    buffer, so memory does not grow with the block count; no block is written.
    The noise is drawn row-major from the given stream after the fold.
    """
    if not blocks:
        raise ConfigurationError("need at least one logit block")
    shape = blocks[0].shape
    for b in blocks:
        if b.shape != shape:
            raise DimensionError(f"block {b.node_id} has shape {b.shape}, expected {shape}")
    # Each local_max_abs is its block's own max, so no block exceeds z_max: levels
    # are taken unchecked. z_max = 0: quantization off, or all-zero blocks.
    z_max = global_max_abs(blocks) if cfg.quant_scale is not None else 0.0
    weighted = weights is not None
    if weighted and weights.omega.shape[1] != shape[1]:
        raise DimensionError("weight table class count does not match blocks")

    # The uniform mean sums the blocks, then divides, so the no-op
    # configuration is exactly the mean. Where 2K times the largest value
    # summed (a logit, or a grid value of at most z_max*(1 + 1/S)) overflows,
    # each block is divided by K first; only the last rounding of that sum can
    # then pass the float range, and the mean is clamped back into it.
    k = len(blocks)
    top = max(b.local_max_abs for b in blocks) * (1 + 1 / cfg.quant_scale if z_max else 1)
    divide_first = not weighted and not math.isfinite(2 * k * top)
    acc = np.zeros(shape)
    buf = np.empty(shape)
    with np.errstate(over="ignore"):  # only a divided-first sum can, and it is clamped below
        for b in blocks:
            q = b.logits
            if z_max > 0:
                q = _quantize(q, z_max, cfg.quant_scale, out=buf)
            if weighted:
                q = _rowwise(np.multiply, q, weights.omega[b.node_id][None, :], buf)
            elif divide_first:
                q = np.divide(q, k, out=buf)
            acc += q
    if divide_first:
        np.clip(acc, -_DBL_MAX, _DBL_MAX, out=acc)
    elif not weighted:
        acc /= k

    if cfg.gamma is not None:
        acc += laplace_sample(cfg.gamma, rs, size=shape)
    return acc


# ---------------------------------------------------------------------------
# the size of a bit-packed upload at ceil(log2(S+1)) bits per logit
# (``packed_logits_bytes``), a computed size: no encoder builds that upload,
# and the ledger bills the float64 logits sent at their ``nbytes``


def quant_level_bits(scale: int) -> int:
    """Bits per quantized logit: enough for the S+1 grid levels."""
    return max(1, math.ceil(math.log2(scale + 1)))


def packed_payload_bytes(rows: int, cols: int, scale: int) -> int:
    return (rows * cols * quant_level_bits(scale) + 7) // 8
