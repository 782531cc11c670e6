"""Tests for embedding access traces and the caching analysis (Sec. IX)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.caching import (
    cache_curve,
    frequency_hit_rate,
    lru_hit_rate,
)
from repro.models import drm1
from repro.requests import RequestGenerator
from repro.requests.access_trace import AccessTrace, collect_access_trace


@pytest.fixture(scope="module")
def trace():
    model = drm1()
    requests = RequestGenerator(model, seed=3).generate_many(300)
    return collect_access_trace(model, requests, seed=7)


@pytest.fixture(scope="module")
def hot_table(trace):
    """The most-accessed table in the trace."""
    return max(trace.accesses, key=lambda name: len(trace.accesses[name]))


class TestTraceCollection:
    def test_trace_covers_observed_tables(self, trace):
        assert trace.total_accesses() > 0
        for name, accesses in trace.accesses.items():
            assert len(accesses) > 0
            assert (accesses >= 0).all()
            assert (accesses < trace.num_rows[name]).all()

    def test_trace_deterministic(self):
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(20)
        a = collect_access_trace(model, requests, seed=7)
        b = collect_access_trace(model, requests, seed=7)
        for name in a.accesses:
            np.testing.assert_array_equal(a.accesses[name], b.accesses[name])

    def test_accesses_are_zipf_skewed(self, trace, hot_table):
        """A small set of hot rows dominates traffic."""
        accesses = trace.accesses[hot_table]
        _, counts = np.unique(accesses, return_counts=True)
        counts = np.sort(counts)[::-1]
        top_decile = counts[: max(1, len(counts) // 10)].sum()
        assert top_decile / accesses.size > 0.4

    def test_hot_rows_not_physically_adjacent(self, trace, hot_table):
        accesses = trace.accesses[hot_table]
        values, counts = np.unique(accesses, return_counts=True)
        hottest = values[np.argsort(-counts)[:10]]
        # Mixed placement: hot rows spread across the row space.
        assert hottest.max() - hottest.min() > trace.num_rows[hot_table] / 10


class TestCachePolicies:
    def test_frequency_hit_rate_bounds(self, trace, hot_table):
        accesses = trace.accesses[hot_table]
        rows = trace.num_rows[hot_table]
        small = frequency_hit_rate(accesses, rows, 0.01)
        full = frequency_hit_rate(accesses, rows, 1.0)
        assert 0.0 < small < 1.0 + 1e-9
        assert full == pytest.approx(1.0)

    def test_frequency_monotone_in_cache_size(self, trace, hot_table):
        accesses = trace.accesses[hot_table]
        rows = trace.num_rows[hot_table]
        rates = [
            frequency_hit_rate(accesses, rows, f) for f in (0.01, 0.05, 0.2, 0.5)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_frequency_beats_lru(self, trace, hot_table):
        """Offline-optimal static placement upper-bounds online LRU."""
        accesses = trace.accesses[hot_table][:20000]
        rows = trace.num_rows[hot_table]
        for fraction in (0.05, 0.2):
            assert frequency_hit_rate(accesses, rows, fraction) >= lru_hit_rate(
                accesses, rows, fraction
            ) - 0.02

    def test_small_cache_large_hit_rate(self, trace, hot_table):
        """The Bandana effect: ~10% of rows capture most accesses."""
        accesses = trace.accesses[hot_table]
        rows = trace.num_rows[hot_table]
        assert frequency_hit_rate(accesses, rows, 0.10) > 0.6

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            frequency_hit_rate(np.array([1]), 10, 0.0)
        with pytest.raises(ValueError):
            lru_hit_rate(np.array([1]), 10, 1.5)

    def test_empty_trace_zero_hits(self):
        assert frequency_hit_rate(np.array([], dtype=np.int64), 10, 0.5) == 0.0
        assert lru_hit_rate(np.array([], dtype=np.int64), 10, 0.5) == 0.0

    @given(seed=st.integers(0, 200), fraction=st.sampled_from([0.1, 0.3, 0.7]))
    @settings(max_examples=20, deadline=None)
    def test_lru_never_exceeds_one(self, seed, fraction):
        rng = np.random.default_rng(seed)
        accesses = rng.integers(0, 50, size=int(rng.integers(1, 300)))
        rate = lru_hit_rate(accesses, 50, fraction)
        assert 0.0 <= rate <= 1.0


class TestCurvesAndSizing:
    def test_cache_curve_structure(self, trace, hot_table):
        points = cache_curve(trace, hot_table, fractions=(0.05, 0.25))
        assert len(points) == 4  # 2 fractions x 2 policies
        assert {p.policy for p in points} == {"frequency", "lru"}
