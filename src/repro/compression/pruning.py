"""Embedding-row pruning (paper Section VII-D).

Production tables are "manually pruned as specified by the model architect
based on a threshold magnitude or training update frequency".  Magnitude
pruning is implemented over materialized weights: it keeps the rows with
the largest L2 norms.

Pruned rows collapse into a shared zero row, so lookups remain valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PrunedTable:
    """A pruned weight matrix plus the surviving-row mapping."""

    weights: np.ndarray
    kept_rows: np.ndarray  # original indices of surviving rows

    @property
    def num_rows(self) -> int:
        return self.weights.shape[0]


def _keep(weights: np.ndarray, scores: np.ndarray, keep_fraction: float) -> PrunedTable:
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    num_rows = weights.shape[0]
    kept = max(1, int(round(num_rows * keep_fraction)))
    order = np.argsort(-scores, kind="stable")[:kept]
    kept_rows = np.sort(order)
    return PrunedTable(weights=weights[kept_rows], kept_rows=kept_rows)


def prune_by_magnitude(weights: np.ndarray, keep_fraction: float) -> PrunedTable:
    """Keep the ``keep_fraction`` of rows with the largest L2 norm."""
    weights = np.asarray(weights, dtype=np.float32)
    return _keep(weights, np.linalg.norm(weights, axis=1), keep_fraction)
