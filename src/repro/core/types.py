"""Shared units, dtypes, and the field contracts of every config.

All simulation times are expressed in **seconds** (floats) and all sizes in
**bytes** (floats, so that fractional per-element costs compose cleanly).
The constants below exist so that call sites read naturally, e.g.
``latency = 120 * US`` or ``capacity = 194 * GIB``.

Field contracts: a :class:`Contract` names the values one config field
accepts.  A frozen config declares each field's contract where it
declares the field (:func:`checked`) and calls :func:`check_fields`
first in ``__post_init__``; rules relating two fields stay hand-written
after that call.  Every contract rejects ``bool``, ``str`` and NaN (the
integer ones any non-integral value) and lets numpy scalars through;
every violation raises ``ValueError`` with one template, an optional
owner prefix, then ``{field} must be {rule}, got {value!r}``.  Only a
field declared ``normalise=True`` stores the cast value: several others
key substreams through ``repr``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import numbers
from typing import Any, Callable

import numpy as np

# --- size units -------------------------------------------------------------
KIB = 1024.0
MIB = 1024.0 * KIB
GIB = 1024.0 * MIB

# --- time units -------------------------------------------------------------
NS = 1e-9
US = 1e-6
MS = 1e-3

#: A cost-model operand: one plain number, or a numpy column of them that
#: the cost formulas evaluate elementwise with the same IEEE operations.
Num = float | np.ndarray


@dataclasses.dataclass(frozen=True)
class Contract:
    """The values one config field accepts: ``accepts`` decides, ``rule``
    names them in errors, and ``cast`` is the normalised value."""

    rule: str
    accepts: Callable[[Any], bool]
    cast: Callable[[Any], Any]

    def check(self, name: str, value: Any, owner: str = "") -> Any:
        """``value`` cast, or ``ValueError`` in the one message template."""
        if not self.accepts(value):
            raise ValueError(f"{owner}{name} must be {self.rule}, got {value!r}")
        return self.cast(value)

    def reworded(self, rule: str) -> Contract:
        return dataclasses.replace(self, rule=rule)


def _number(kind: type, cast: Callable[[Any], Any]) -> Callable[..., Contract]:
    def contract(rule: str, test: Callable[[Any], Any]) -> Contract:
        return Contract(
            rule,
            lambda value: isinstance(value, kind)
            and not isinstance(value, bool)
            and bool(test(value)),
            cast,
        )

    return contract


#: Contract builders: an integer (numpy integers pass, ``2.0`` does not),
#: or a real number, for which ``test`` holds; write ``test`` as an
#: ordered comparison so NaN fails it.
integer = _number(numbers.Integral, int)
real = _number(numbers.Real, float)

count = integer("an integer >= 1", lambda value: value >= 1)
index = integer("an integer >= 0", lambda value: value >= 0)
seed = integer("an integer", lambda value: True)
non_negative = real("a non-negative number", lambda value: value >= 0.0)
positive = real("a positive number", lambda value: value > 0.0)
probability = real("a number in [0, 1]", lambda value: 0.0 <= value <= 1.0)
fraction = real("a number in (0, 1]", lambda value: 0.0 < value <= 1.0)
finite_non_negative = real(
    "finite and non-negative", lambda value: 0.0 <= value < math.inf
)
finite_positive = real("finite and positive", lambda value: 0.0 < value < math.inf)
at_least_one = real("a number >= 1", lambda value: value >= 1.0)


def optional(contract: Contract) -> Contract:
    """``contract``, or ``None``."""
    return Contract(
        f"{contract.rule}, or None",
        lambda value: value is None or contract.accepts(value),
        lambda value: None if value is None else contract.cast(value),
    )


def each(contract: Contract, rule: str) -> Contract:
    """A non-empty sequence (a numpy array is read flat) whose every
    element follows ``contract``; it casts to a tuple."""

    def items(value: Any) -> tuple:
        return tuple(np.ravel(value) if isinstance(value, np.ndarray) else value)

    def accepts(value: Any) -> bool:
        try:
            elements = items(value)
        except TypeError:  # not a sequence
            return False
        return bool(elements) and all(map(contract.accepts, elements))

    return Contract(
        rule, accepts, lambda value: tuple(map(contract.cast, items(value)))
    )


def checked(
    contract: Contract, default: Any = dataclasses.MISSING, *, normalise: bool = False
) -> Any:
    """A dataclass field that follows ``contract``."""
    return dataclasses.field(
        default=default, metadata={"contract": contract, "normalise": normalise}
    )


@functools.cache
def _contracts(cls: type) -> tuple[tuple[str, Contract, bool], ...]:
    return tuple(
        (spec.name, spec.metadata["contract"], spec.metadata["normalise"])
        for spec in dataclasses.fields(cls)
        if "contract" in spec.metadata
    )


def check_fields(config: Any, owner: str = "") -> None:
    """Enforce every field contract of ``config``'s class, storing the
    cast value of each ``normalise`` field."""
    for name, contract, normalise in _contracts(type(config)):
        value = contract.check(name, getattr(config, name), owner)
        if normalise:
            object.__setattr__(config, name, value)


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
