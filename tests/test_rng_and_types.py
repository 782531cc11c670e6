"""Unit tests for seeded RNG substreams, units, and dtypes."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.rng as rng_module
from repro.core.rng import (
    _SPARSE_RATE,
    _knuth_walk,
    derive_seed,
    poisson,
    poisson_total,
    substream,
)
from repro.core.types import (
    GIB,
    KIB,
    MIB,
    MS,
    US,
    DType,
    OpCategory,
    DENSE_CATEGORIES,
)


class TestRng:
    def test_same_keys_same_stream(self):
        a = substream(7, "requests", "drm1").normal(size=8)
        b = substream(7, "requests", "drm1").normal(size=8)
        assert np.array_equal(a, b)

    def test_different_keys_different_stream(self):
        a = substream(7, "requests", "drm1").normal(size=8)
        b = substream(7, "requests", "drm2").normal(size=8)
        assert not np.array_equal(a, b)

    def test_different_root_seed_different_stream(self):
        a = substream(1, "fabric").normal(size=8)
        b = substream(2, "fabric").normal(size=8)
        assert not np.array_equal(a, b)

    def test_key_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_int_and_str_keys_distinct(self):
        assert derive_seed(0, 1) != derive_seed(0, "1")

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=16))
    def test_seed_in_64bit_range(self, root, key):
        seed = derive_seed(root, key)
        assert 0 <= seed < 2**64


def _twins(seed):
    """Two independent generators on one stream."""
    return substream(seed, "poisson"), substream(seed, "poisson")


def _assert_same_draw(ours, ours_rng, numpy_draw, numpy_rng):
    assert ours.dtype == numpy_draw.dtype
    assert np.array_equal(ours, numpy_draw)
    assert ours_rng.bit_generator.state == numpy_rng.bit_generator.state


def _assert_same_total(ours, ours_rng, numpy_draw, numpy_rng):
    assert type(ours) is int
    assert ours == int(numpy_draw.sum())
    assert ours_rng.bit_generator.state == numpy_rng.bit_generator.state


_RATES = [
    0.0, 1e-7, 1e-4, 6.1e-3,
    float(np.nextafter(_SPARSE_RATE, 0.0)), _SPARSE_RATE,
    0.5, 3.0, 9.99, 10.0, 25.0,
]
_SIZES = [0, 1, 7, 8192, 300_000]
_KNUTH_RATES = [0.5, 3.0, 9.99]
_KNUTH_SIZES = [1, 7, 50, 8197]
_INVALID_RATES = [-1.0, -1e-9, float("nan")]


def _force_walk(monkeypatch):
    """Send every Knuth rate through the walk, on a 4-uniform buffer:
    most draws read several uniforms and many straddle a refill."""
    monkeypatch.setattr(rng_module, "_SPARSE_RATE", 10.0)
    monkeypatch.setattr(rng_module, "_UNIFORM_BUFFER", 4)


class TestSparsePoisson:
    """``poisson`` is ``Generator.poisson``: same array, same dtype, and
    the stream left in the same place, at every rate and size;
    ``poisson_total`` is that array's sum, with the stream left in the
    same place."""

    @pytest.mark.parametrize("lam", _RATES)
    @pytest.mark.parametrize("size", _SIZES)
    def test_matches_numpy(self, lam, size):
        for seed in (0, 1, 2):
            ours_rng, numpy_rng = _twins(seed)
            ours = poisson(ours_rng, lam, size)
            _assert_same_draw(
                ours, ours_rng, numpy_rng.poisson(lam, size=size), numpy_rng
            )

    @pytest.mark.parametrize("lam", _RATES)
    @pytest.mark.parametrize("size", _SIZES)
    def test_total_matches_numpy(self, lam, size):
        """Rates at or above the cutoff take the chunked fallback, in
        several chunks at the largest size."""
        for seed in (0, 1, 2):
            ours_rng, numpy_rng = _twins(seed)
            ours = poisson_total(ours_rng, lam, size)
            _assert_same_total(
                ours, ours_rng, numpy_rng.poisson(lam, size=size), numpy_rng
            )

    @pytest.mark.parametrize("lam", _KNUTH_RATES)
    @pytest.mark.parametrize("size", _KNUTH_SIZES)
    def test_walk_matches_numpy_at_any_knuth_rate(self, lam, size, monkeypatch):
        _force_walk(monkeypatch)
        for seed in (0, 1, 2):
            ours_rng, numpy_rng = _twins(seed)
            ours = poisson(ours_rng, lam, size)
            _assert_same_draw(
                ours, ours_rng, numpy_rng.poisson(lam, size=size), numpy_rng
            )

    @pytest.mark.parametrize("lam", _KNUTH_RATES)
    @pytest.mark.parametrize("size", _KNUTH_SIZES)
    def test_walk_total_matches_numpy_at_any_knuth_rate(
        self, lam, size, monkeypatch
    ):
        _force_walk(monkeypatch)
        for seed in (0, 1, 2):
            ours_rng, numpy_rng = _twins(seed)
            ours = poisson_total(ours_rng, lam, size)
            _assert_same_total(
                ours, ours_rng, numpy_rng.poisson(lam, size=size), numpy_rng
            )

    @pytest.mark.parametrize("lam", [1e-4, 6.1e-3, 3.0])
    def test_back_to_back_equals_one_call(self, lam):
        ours_rng, numpy_rng = _twins(5)
        ours = np.concatenate(
            [poisson(ours_rng, lam, 8195), poisson(ours_rng, lam, 7)]
        )
        _assert_same_draw(
            ours, ours_rng, numpy_rng.poisson(lam, size=8202), numpy_rng
        )

    @pytest.mark.parametrize("lam", _INVALID_RATES)
    def test_invalid_rate_raises_numpys_error(self, lam):
        ours_rng, numpy_rng = _twins(0)
        with pytest.raises(ValueError) as numpy_error:
            numpy_rng.poisson(lam, size=3)
        with pytest.raises(ValueError, match=re.escape(str(numpy_error.value))):
            poisson(ours_rng, lam, 3)

    @pytest.mark.parametrize("lam", _INVALID_RATES)
    @pytest.mark.parametrize("size", [0, 3])
    def test_total_invalid_rate_raises_numpys_error(self, lam, size):
        ours_rng, numpy_rng = _twins(0)
        with pytest.raises(ValueError) as numpy_error:
            numpy_rng.poisson(lam, size=size)
        with pytest.raises(ValueError, match=re.escape(str(numpy_error.value))):
            poisson_total(ours_rng, lam, size)


class _RawStream:
    """A generator stand-in serving fixed raw 64-bit outputs through
    ``bit_generator.random_raw``, in bulk or one at a time."""

    def __init__(self, raw):
        self.raw = list(raw)
        self.bit_generator = self

    def random_raw(self, size=None):
        if size is None:
            return self.raw.pop(0)
        assert size <= len(self.raw), "read past where numpy would stop"
        out, self.raw = self.raw[:size], self.raw[size:]
        return np.array(out, dtype=np.uint64)


def _knuth_reference(raw, lam):
    """numpy's Knuth loop over ``next_double() = (raw >> 11) * 2**-53``:
    ``(index, count)`` of every nonzero draw, reading all of ``raw``."""
    limit = math.exp(-lam)
    uniforms = iter([(value >> 11) * 2.0**-53 for value in raw])
    draws, index = [], 0
    for first in uniforms:
        product, count = first, 0
        while product > limit:
            count += 1
            product *= next(uniforms)
        if count:
            draws.append((index, count))
        index += 1
    return draws, index


class TestRawThreshold:
    """A raw output exceeds ``exp(-lam)`` iff it is at least
    ``T = (floor(exp(-lam) * 2**53) + 1) << 11``."""

    @pytest.mark.parametrize("lam", [1e-7, 1.7e-6, 1e-4, 6.1e-3, 0.5, 3.0, 9.99])
    def test_boundary_outputs_classify_like_next_double(self, lam, monkeypatch):
        limit = math.exp(-lam)
        threshold = (math.floor(limit * 2.0**53) + 1) << 11
        below, at, top = threshold - 1, threshold, threshold + 2047
        assert (below >> 11) * 2.0**-53 <= limit
        assert (at >> 11) * 2.0**-53 > limit
        assert (top >> 11) * 2.0**-53 > limit
        # Zeros end every product; both boundary sides recur, back to
        # back and across 4-output refills.
        raw = [below, 0, at, 0, top, 0, below, below, at, top, 0, 0, top]
        raw += [at] * 5 + [0, below, 0]
        expected, size = _knuth_reference(raw, lam)
        assert expected
        monkeypatch.setattr(rng_module, "_UNIFORM_BUFFER", 4)
        stream = _RawStream(raw)
        assert list(_knuth_walk(stream, lam, size)) == expected
        assert stream.raw == []

    @pytest.mark.parametrize("lam", [1e-17, 2.0**-53])
    def test_no_output_exceeds_a_limit_at_the_top_of_the_unit(self, lam):
        """Where ``exp(-lam)`` is 1 or the largest double below it, no
        53-bit uniform exceeds it (and ``T`` would not fit 64 bits)."""
        stream = _RawStream([2**64 - 1] * 5)
        assert list(_knuth_walk(stream, lam, 5)) == []
        assert stream.raw == []


class TestDType:
    def test_fp32_row_bytes(self):
        assert DType.FP32.row_bytes(64) == 256.0

    def test_int8_row_includes_overhead(self):
        assert DType.INT8.row_bytes(64) == 64 + 4

    def test_int4_half_byte_elements(self):
        assert DType.INT4.row_bytes(64) == 32 + 4

    def test_quantized_smaller_than_fp32(self):
        for dim in (8, 32, 64, 128):
            assert DType.INT8.row_bytes(dim) < DType.FP32.row_bytes(dim)
            assert DType.INT4.row_bytes(dim) < DType.INT8.row_bytes(dim)


class TestUnitsAndFormatting:
    def test_unit_ratios(self):
        assert MIB == 1024 * KIB
        assert GIB == 1024 * MIB
        assert MS == 1000 * US

    def test_dense_categories_exclude_sparse_and_rpc(self):
        assert OpCategory.SPARSE not in DENSE_CATEGORIES
        assert OpCategory.RPC not in DENSE_CATEGORIES
        assert OpCategory.DENSE in DENSE_CATEGORIES


class TestWallStampFact:
    @given(
        st.floats(min_value=0.0, allow_infinity=False),
        st.floats(min_value=0.0, allow_infinity=False),
    )
    def test_zero_skew_wall_stamp_is_plain_subtraction(self, a, b):
        """A duration is ``(end + skew) - (start + skew)``; with zero skew
        that is bitwise ``end - start`` for the non-negative times of a
        replay, so one expression serves skewed and unskewed servers."""
        assert struct.pack("<d", (a + 0.0) - (b + 0.0)) == struct.pack("<d", a - b)
