"""Privacy-preserving logit aggregation: per-class importance weights, uniform
quantization against a global scale, Laplace perturbation, and the weighted
noisy ensemble of per-node logit blocks.

The quantizer follows the closed form Q(z) = ceil(S*z / (2*z_max)) * 2*z_max/S,
so the emitted grid has at most S+1 distinct levels on [-z_max, z_max] and the
per-value error is bounded by 2*z_max/S.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, RangeError, ValidationError
from .numkit import RandomStream, check_matrix

PER_CLASS = "per_class"
UNIFORM = "uniform"

_TINY = np.finfo(np.float64).tiny

__all__ = [
    "PER_CLASS",
    "UNIFORM",
    "LogitBlock",
    "EnsembleConfig",
    "WeightTable",
    "importance_weights",
    "global_max_abs",
    "quantize_array",
    "laplace_sample",
    "ensemble",
    "encode_block",
    "encode_block_packed",
    "decode_block",
    "float_payload_bytes",
    "packed_payload_bytes",
    "quant_level_bits",
]


@dataclass
class LogitBlock:
    """One node's logits over the public set plus its max-absolute scalar.

    Only ``local_max_abs`` (8 bytes) and the logit payload ever leave a node;
    the scalar is what the server gathers to fix the global quantization range.
    """

    node_id: int
    logits: np.ndarray  # |D0| x C
    local_max_abs: float | None = None  # None: take the actual max

    def __post_init__(self):
        self.logits = check_matrix(self.logits, "logits")
        actual = float(np.max(np.abs(self.logits))) if self.logits.size else 0.0
        if self.local_max_abs is None:
            self.local_max_abs = actual
        elif self.local_max_abs != actual:
            raise ValidationError(f"local_max_abs {self.local_max_abs} != actual max {actual}")

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
        if self.gamma is not None and self.gamma <= 0:
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
        if self.omega.shape[0] and np.abs(col - 1.0).max() > 1e-12:
            raise ValidationError("each class column must sum to 1")


def importance_weights(profiles: list) -> WeightTable:
    """Node k's share of class c: counts[k, c] / column total.

    Classes no node has ever seen get uniform 1/K so the ensemble stays
    defined and symmetric.
    """
    if not profiles:
        raise ConfigurationError("need at least one profile")
    counts = np.stack([np.asarray(p.counts, dtype=np.float64) for p in profiles])
    if counts.ndim != 2:
        raise DimensionError("profiles must share a class count")
    k = counts.shape[0]
    col = counts.sum(axis=0)
    omega = np.where(col > 0, counts / np.where(col > 0, col, 1.0), 1.0 / k)
    return WeightTable(omega)


def global_max_abs(blocks: list[LogitBlock]) -> float:
    """Server-side max of the per-node max-abs scalars."""
    if not blocks or all(b.logits.size == 0 for b in blocks):
        raise ConfigurationError("no logits to take a maximum over")
    return max(b.local_max_abs for b in blocks)


def _check_quant_args(z_max: float, scale: int) -> None:
    if not z_max > 0:
        raise RangeError("z_max must be > 0")
    if scale < 2:
        raise RangeError("quantization scale must be >= 2")


def _levels(z: np.ndarray, z_max: float, scale: int, out: np.ndarray | None = None) -> np.ndarray:
    """Unchecked grid levels ceil(S*z / (2*z_max)), written into ``out`` (a new array if None)."""
    out = np.multiply(scale, z, out=np.empty(np.shape(z)) if out is None else out)
    out /= 2.0 * z_max
    return np.ceil(out, out=out)


def quantize_array(z: np.ndarray, z_max: float, scale: int) -> np.ndarray:
    """Snap every logit to the uniform grid defined by z_max and scale."""
    _check_quant_args(z_max, scale)
    z = np.asarray(z, dtype=np.float64)
    if z.size and np.max(np.abs(z)) > z_max:
        raise RangeError(f"|z| exceeds z_max={z_max} (stale z_max?)")
    return _levels(z, z_max, scale) * (2.0 * z_max / scale)


def laplace_sample(gamma: float, rs: RandomStream, size=None):
    """Inverse-CDF sample(s) from Laplace(0, 1/gamma).

    With u uniform in (-0.5, 0.5): -(1/gamma) * sign(u) * ln(1 - 2|u|).
    The u = +-0.5 endpoint (probability ~2^-53) is clamped so outputs stay
    finite.
    """
    if gamma <= 0:
        raise RangeError("gamma must be > 0")
    u = rs.uniform(size) - 0.5
    mag = np.maximum(1.0 - 2.0 * np.abs(u), _TINY)
    x = -(1.0 / gamma) * np.sign(u) * np.log(mag)
    return float(x) if size is None else x


def ensemble(
    blocks: list[LogitBlock],
    weights: WeightTable | None,
    cfg: EnsembleConfig,
    rs: RandomStream,
) -> np.ndarray:
    """Aggregate per Eq-style weighted sum of quantized blocks plus one fresh
    Laplace draw per (sample, class) cell.

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
    # Each local_max_abs was checked when its block was built, so no block exceeds
    # z_max: levels are taken unchecked. z_max = 0: quantization off, or all-zero blocks.
    z_max = global_max_abs(blocks) if cfg.quant_scale is not None else 0.0
    weighted = cfg.weight_mode != UNIFORM and weights is not None
    if weighted and weights.omega.shape[1] != shape[1]:
        raise DimensionError("weight table class count does not match blocks")

    acc = np.zeros(shape)
    buf = np.empty(shape)
    for b in blocks:
        q = b.logits
        if z_max > 0:
            q = _levels(q, z_max, cfg.quant_scale, out=buf)
            q *= 2.0 * z_max / cfg.quant_scale
        if weighted:
            q = np.multiply(q, weights.omega[b.node_id][None, :], out=buf)
        acc += q
    if not weighted:
        acc /= len(blocks)  # sum-then-divide so the no-op configuration is exactly the mean

    if cfg.gamma is not None:
        acc += laplace_sample(cfg.gamma, rs, size=shape)
    return acc


# ---------------------------------------------------------------------------
# wire frames
#
# Frame layout (little-endian):
#   mode:        uint8   (0 = float64 payload, 1 = packed quantization levels)
#   node_id:     uint32
#   rows, cols:  uint32 each
#   scale_value: float64 (mode 0: the block's local max-abs;
#                         mode 1: the global z_max the levels refer to)
#   [mode 1 only] quant_scale: uint32
#   payload:     row-major float64s, or level indices of
#                ceil(log2(S+1)) bits each, bit-packed big-endian
#
# Bandwidth accounting counts the payload plus the separately-gathered
# max-abs scalar; the addressing fields (mode, node_id, dims) are known to
# both ends and are excluded, which keeps ledger totals equal to the plain
# bytes-per-logit arithmetic.

_MODE_FLOAT = 0
_MODE_PACKED = 1
_HEADER = struct.Struct("<BIIId")
_SCALE_FIELD = struct.Struct("<I")


def quant_level_bits(scale: int) -> int:
    """Bits per quantized logit: enough for the S+1 grid levels."""
    return max(1, math.ceil(math.log2(scale + 1)))


def float_payload_bytes(rows: int, cols: int) -> int:
    return rows * cols * 8


def packed_payload_bytes(rows: int, cols: int, scale: int) -> int:
    return (rows * cols * quant_level_bits(scale) + 7) // 8


def encode_block(block: LogitBlock) -> bytes:
    """Raw float64 frame for one block."""
    head = _HEADER.pack(_MODE_FLOAT, block.node_id, *block.shape, block.local_max_abs)
    return head + block.logits.astype("<f8").tobytes()


def encode_block_packed(block: LogitBlock, z_max: float, scale: int) -> bytes:
    """Compressed frame: quantization level indices at quant_level_bits each."""
    _check_quant_args(z_max, scale)
    levels = _levels(block.logits, z_max, scale).astype(np.int64)
    min_level = -(scale // 2)  # ceil(-S/2)
    idx = (levels - min_level).ravel()
    if idx.size and (idx.min() < 0 or idx.max() > scale):
        raise RangeError("logits outside the quantization grid (stale z_max?)")
    bits = quant_level_bits(scale)
    bitmat = ((idx[:, None] >> np.arange(bits - 1, -1, -1)) & 1).astype(np.uint8)
    payload = np.packbits(bitmat.ravel()).tobytes()
    head = _HEADER.pack(_MODE_PACKED, block.node_id, *block.shape, float(z_max))
    return head + _SCALE_FIELD.pack(scale) + payload


def decode_block(frame: bytes) -> tuple[LogitBlock, dict]:
    """Inverse of the encoders; packed frames reconstruct the grid values."""
    mode, node_id, rows, cols, scale_value = _HEADER.unpack_from(frame, 0)
    off = _HEADER.size
    if mode == _MODE_FLOAT:
        logits = np.frombuffer(frame, dtype="<f8", count=rows * cols, offset=off).reshape(rows, cols)
        return LogitBlock(node_id, logits.copy()), {"mode": "float64"}
    if mode == _MODE_PACKED:
        (scale,) = _SCALE_FIELD.unpack_from(frame, off)
        off += _SCALE_FIELD.size
        bits = quant_level_bits(scale)
        n = rows * cols
        raw = np.frombuffer(frame, dtype=np.uint8, offset=off)
        bitstream = np.unpackbits(raw)[: n * bits].reshape(n, bits)
        idx = (bitstream.astype(np.int64) << np.arange(bits - 1, -1, -1)).sum(axis=1)
        levels = idx - (scale // 2)
        logits = (levels * (2.0 * scale_value / scale)).reshape(rows, cols)
        return LogitBlock(node_id, logits), {"mode": "packed", "quant_scale": scale, "z_max": scale_value}
    raise RangeError(f"unknown frame mode {mode}")
