"""Tests for the analysis helpers and the compression subsystem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    format_stack_bars,
    format_table,
    median_window_mean,
    overhead_vs_baseline,
    quantile,
)
from repro.compression import (
    CompressionSpec,
    compress_model,
    dequantize_rows,
    prune_by_magnitude,
    quantization_error_bound,
    quantize_rows,
)
from repro.core.types import GIB, DType
from repro.models import drm1, drm3


class TestQuantiles:
    def test_quantile_basic(self):
        assert quantile([1, 2, 3, 4, 5], 50) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile([], 50)

    def test_overhead_vs_baseline(self):
        base = [1.0] * 10
        values = [1.2] * 10
        assert overhead_vs_baseline(values, base, 50) == pytest.approx(0.2)

    def test_median_window_mean(self):
        stacks = [{"a": float(i)} for i in range(101)]
        keys = list(range(101))
        merged = median_window_mean(stacks, keys)
        assert merged["a"] == pytest.approx(50.0, abs=1.0)

    def test_median_window_mismatch_rejected(self):
        with pytest.raises(ValueError):
            median_window_mean([{"a": 1.0}], [1.0, 2.0])


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["x", "yy"], [[1, 2.5], ["ab", 3.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # aligned

    def test_format_stack_bars_normalizes(self):
        stacks = {
            "small": {"a": 1.0, "b": 1.0},
            "big": {"a": 2.0, "b": 2.0},
        }
        text = format_stack_bars(stacks, ["a", "b"])
        assert "(1.00)" in text  # the tallest bar
        assert "(0.50)" in text


class TestQuantization:
    def test_roundtrip_error_within_bound_8bit(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(0, 0.1, size=(64, 32)).astype(np.float32)
        q = quantize_rows(weights, 8)
        error = np.abs(dequantize_rows(q) - weights)
        bound = quantization_error_bound(weights, 8)
        assert (error.max(axis=1) <= bound).all()

    def test_roundtrip_error_within_bound_4bit(self):
        rng = np.random.default_rng(1)
        weights = rng.normal(0, 0.1, size=(64, 32)).astype(np.float32)
        q = quantize_rows(weights, 4)
        error = np.abs(dequantize_rows(q) - weights)
        bound = quantization_error_bound(weights, 4)
        assert (error.max(axis=1) <= bound).all()

    def test_8bit_more_accurate_than_4bit(self):
        rng = np.random.default_rng(2)
        weights = rng.normal(0, 0.1, size=(128, 64)).astype(np.float32)
        err8 = np.abs(dequantize_rows(quantize_rows(weights, 8)) - weights).mean()
        err4 = np.abs(dequantize_rows(quantize_rows(weights, 4)) - weights).mean()
        assert err8 < err4

    def test_nbytes_packed(self):
        weights = np.zeros((10, 64), dtype=np.float32)
        assert quantize_rows(weights, 8).nbytes == 10 * (64 + 4)
        assert quantize_rows(weights, 4).nbytes == 10 * (32 + 4)

    def test_constant_rows_survive(self):
        weights = np.full((4, 8), 3.25, dtype=np.float32)
        out = dequantize_rows(quantize_rows(weights, 8))
        np.testing.assert_allclose(out, weights, atol=1e-5)

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize_rows(np.zeros((2, 2)), 5)

    @given(seed=st.integers(0, 500), bits=st.sampled_from([4, 8]))
    @settings(max_examples=25, deadline=None)
    def test_error_bound_property(self, seed, bits):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 32))
        dim = int(rng.integers(1, 48))
        weights = rng.normal(0, 1, size=(rows, dim)).astype(np.float32)
        q = quantize_rows(weights, bits)
        error = np.abs(dequantize_rows(q) - weights)
        bound = quantization_error_bound(weights, bits)
        assert (error.max(axis=1) <= bound + 1e-5).all()


class TestPruning:
    def test_magnitude_keeps_largest(self):
        weights = np.diag([1.0, 5.0, 3.0, 0.1]).astype(np.float32)
        pruned = prune_by_magnitude(weights, 0.5)
        assert pruned.num_rows == 2
        assert set(pruned.kept_rows) == {1, 2}

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            prune_by_magnitude(np.eye(4), 0.0)


class TestCompressionPipeline:
    def test_drm1_ratio_matches_paper(self):
        """Table III: DRM1 compresses ~5.56x (194.46 GB -> 35 GB)."""
        compressed, report = compress_model(drm1())
        assert report.ratio == pytest.approx(5.56, rel=0.08)
        assert compressed.sparse_bytes < drm1().sparse_bytes

    def test_compressed_dtypes(self):
        compressed, report = compress_model(drm1())
        dtypes = {t.dtype for t in compressed.tables}
        assert dtypes <= {DType.INT8, DType.INT4}
        assert report.tables_int4 > 0 and report.tables_int8 > 0

    def test_lookup_behavior_preserved(self):
        """Pooling parameters are untouched: compressed serving is directly
        comparable to uncompressed (paper methodology)."""
        model = drm1()
        compressed, _ = compress_model(model)
        for before, after in zip(model.tables, compressed.tables):
            assert before.name == after.name
            assert before.mean_ids == after.mean_ids
            assert before.activation_prob == after.activation_prob

    def test_compression_alone_insufficient_at_datacenter_scale(self):
        """The paper's conclusion: a compressed multi-model deployment at
        data-center scale (original models are 'many times larger') still
        exceeds small-server DRAM."""
        _, report = compress_model(drm1())
        full_scale_bytes = report.compressed_bytes * 10  # "many times larger"
        assert full_scale_bytes > 4 * 50e9  # >4 commodity 50 GB servers

    def test_drm3_dominant_table_int4(self):
        compressed, _ = compress_model(drm3())
        dominant = max(compressed.tables, key=lambda t: t.nbytes)
        assert dominant.dtype is DType.INT4

    def test_spec_knobs(self):
        spec = CompressionSpec(
            int4_threshold_bytes=1e18, prune_threshold_bytes=1e18
        )
        compressed, report = compress_model(drm1(), spec)
        assert report.tables_int4 == 0
        assert report.tables_pruned == 0
        assert all(t.dtype is DType.INT8 for t in compressed.tables)
