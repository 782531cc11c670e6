"""Model compression: row-wise quantization, pruning, size accounting."""

from repro.compression.pipeline import (
    CompressionReport,
    CompressionSpec,
    compress_model,
    compress_table_config,
)
from repro.compression.pruning import (
    PrunedTable,
    prune_by_magnitude,
)
from repro.compression.quantization import (
    QuantizedRows,
    dequantize_rows,
    quantization_error_bound,
    quantize_rows,
)

__all__ = [
    "CompressionReport",
    "CompressionSpec",
    "PrunedTable",
    "QuantizedRows",
    "compress_model",
    "compress_table_config",
    "dequantize_rows",
    "prune_by_magnitude",
    "quantization_error_bound",
    "quantize_rows",
]
