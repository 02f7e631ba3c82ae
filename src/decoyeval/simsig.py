"""Pairwise cosine similarity and percentile-threshold derivation.

Pure functions.
"""

import math
from collections.abc import Sequence

import numpy as np

from .model import CoverageError, SimilaritySource, VectorStore, lookup_sims


def cosine(a, b) -> float:
    """Cosine similarity dot(a, b) / (|a| * |b|) of two equal-length vectors,
    computed as `VectorStore.sim` computes it.

    Zero-norm inputs and dimension mismatches are errors. The result is
    clamped to [-1, 1] when floating-point noise pushes it within 1e-6 of the
    bound.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape or va.ndim != 1:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    return VectorStore({"a": va, "b": vb}).sim("a", "b")


def topic_pair_values(
    source: SimilaritySource, docs: Sequence[str], topic_id: str
) -> np.ndarray:
    """`source.topic_view(topic_id).sim(docs[i], docs[j])` for every i < j,
    in np.triu_indices order.

    A VectorStore must cover every doc; any other source must cover every
    distinct unordered pair, and all its gaps are named in one CoverageError
    (missing entries are errors, never silent defaults).
    """
    if isinstance(source, VectorStore):
        return source.pair_values(list(docs))
    rows, cols = np.triu_indices(len(docs), k=1)
    values, gaps = lookup_sims(source.topic_view(topic_id), docs, rows, cols)
    if gaps:
        missing = [key for _, exc in gaps for key in exc.missing]
        shown = ", ".join(f"({a}, {b})" for _, a, b in missing[:10])
        raise CoverageError(
            f"{len(missing)} pair(s) absent from topic {topic_id}: {shown}", missing
        )
    return values


def topic_sim_matrix(
    source: SimilaritySource, docs: Sequence[str], topic_id: str
) -> np.ndarray:
    """The symmetric matrix of `docs`' pairwise similarities under
    `topic_id`, 1 on the diagonal, filled from `topic_pair_values`, so every
    other entry is the source's own sim()."""
    m = np.ones((len(docs), len(docs)), dtype=np.float64)
    rows, cols = np.triu_indices(len(docs), k=1)
    m[rows, cols] = m[cols, rows] = topic_pair_values(source, docs, topic_id)
    return m


def percentile_threshold(values: Sequence[float], p: float) -> float:
    """The p-th percentile of `values` by linear interpolation between ranks
    (see `sorted_percentile`)."""
    return sorted_percentile(np.sort(np.asarray(values, dtype=np.float64)), p)


def sorted_percentile(vals: np.ndarray, p: float) -> float:
    """The p-th percentile of the ascending array `vals` by linear
    interpolation between ranks.

    Take h = (n - 1) * p / 100 and interpolate between the neighbouring order
    statistics: v[floor(h)] + (h - floor(h)) * (v[floor(h) + 1] - v[floor(h)]).
    """
    if not len(vals):
        raise ValueError("percentile of an empty value set is undefined")
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    h = (len(vals) - 1) * p / 100.0
    lo = math.floor(h)
    frac = h - lo
    if lo + 1 >= len(vals):
        return float(vals[lo])
    a, b = float(vals[lo]), float(vals[lo + 1])
    return a + frac * (b - a)
