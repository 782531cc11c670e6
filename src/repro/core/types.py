"""Shared units and dtypes.

All simulation times are expressed in **seconds** (floats) and all sizes in
**bytes** (floats, so that fractional per-element costs compose cleanly).
The constants below exist so that call sites read naturally, e.g.
``latency = 120 * US`` or ``capacity = 194 * GIB``.
"""

from __future__ import annotations

import enum
import numbers

# --- size units -------------------------------------------------------------
KIB = 1024.0
MIB = 1024.0 * KIB
GIB = 1024.0 * MIB

# --- time units -------------------------------------------------------------
NS = 1e-9
US = 1e-6
MS = 1e-3


def require_count(name: str, value: int) -> int:
    """A count: an integer >= 1 (numpy integers pass; ``1.5``, ``2.0``,
    ``NaN`` and ``True`` are rejected rather than truncated)."""
    if (
        not isinstance(value, numbers.Integral)
        or isinstance(value, bool)
        or value < 1
    ):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


class DType(enum.Enum):
    """Element types used by embedding tables and dense parameters.

    ``row_overhead_bytes`` models the per-row scale/bias metadata stored by
    row-wise linear quantization (two fp16 values for the quantized types),
    mirroring the production format referenced in Section VII-D.
    """

    FP32 = ("fp32", 4.0, 0.0)
    FP16 = ("fp16", 2.0, 0.0)
    INT8 = ("int8", 1.0, 4.0)
    INT4 = ("int4", 0.5, 4.0)

    def __init__(self, label: str, bytes_per_element: float, row_overhead_bytes: float):
        self.label = label
        self.bytes_per_element = bytes_per_element
        self.row_overhead_bytes = row_overhead_bytes

    def row_bytes(self, dim: int) -> float:
        """Storage footprint of one embedding row of width ``dim``."""
        return dim * self.bytes_per_element + self.row_overhead_bytes


class OpCategory(enum.Enum):
    """Operator groups used for compute attribution (paper Figure 4)."""

    HASH = "Hash"
    FILL = "Fill"
    SCALE_CLIP = "Scale/Clip"
    ACTIVATIONS = "Activations"
    SPARSE = "Sparse"
    FEATURE_TRANSFORMS = "Feature Transforms"
    MEMORY_TRANSFORMS = "Memory Transformations"
    DENSE = "Dense"
    RPC = "RPC"


#: Categories executed by dense (non-embedding) portions of the model.
DENSE_CATEGORIES = (
    OpCategory.HASH,
    OpCategory.FILL,
    OpCategory.SCALE_CLIP,
    OpCategory.ACTIVATIONS,
    OpCategory.FEATURE_TRANSFORMS,
    OpCategory.MEMORY_TRANSFORMS,
    OpCategory.DENSE,
)
