"""Model compression: row-wise quantization, pruning, size accounting."""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "pipeline": (
            "CompressionReport",
            "CompressionSpec",
            "compress_model",
            "compress_table_config",
        ),
        "pruning": ("PrunedTable", "prune_by_magnitude"),
        "quantization": (
            "QuantizedRows",
            "dequantize_rows",
            "quantization_error_bound",
            "quantize_rows",
        ),
    },
)
__all__ = list(_EXPORTS)
