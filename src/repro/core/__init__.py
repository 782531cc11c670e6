"""Core substrate: operator graphs, numeric execution, embedding tables.

The package exports only the :mod:`repro.core.types` enums; import the
numeric modules (:mod:`repro.core.dlrm`, :mod:`repro.core.embedding`,
which depend on ``repro.models``) from their submodules.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__, {"types": ("DType", "OpCategory")}
)
__all__ = list(_EXPORTS)
