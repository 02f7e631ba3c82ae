"""Pairwise cosine similarity and percentile-threshold derivation.

Pure functions.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .model import (
    SIMILARITY_EPS,
    CoverageError,
    PairStore,
    SimilaritySource,
    VectorStore,
    clamp_similarity,
    rescaled,
)


def cosine(a, b) -> float:
    """Cosine similarity dot(a, b) / (|a| * |b|) of two equal-length vectors.

    Zero-norm inputs and dimension mismatches are errors. The result is
    clamped to [-1, 1] when floating-point noise pushes it within 1e-6 of the
    bound.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape or va.ndim != 1:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    va, vb = rescaled(va), rescaled(vb)
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine of a zero-norm vector is undefined")
    return clamp_similarity(float(np.dot(va, vb)) / (na * nb), "cosine")


@dataclass(frozen=True)
class TopicSimMatrix:
    """Dense symmetric similarity matrix over one topic's documents."""

    topic_id: str
    docs: list[str]
    sims: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.docs)
        if self.sims.shape != (n, n):
            raise ValueError(f"matrix shape {self.sims.shape} does not match {n} docs")
        if len(set(self.docs)) != n:
            raise ValueError("duplicate doc ids in similarity matrix")
        if not np.array_equal(self.sims, self.sims.T):
            raise ValueError("similarity matrix is not symmetric")
        if n and not np.all(np.diag(self.sims) == 1.0):
            raise ValueError("similarity matrix diagonal is not 1")
        if n and (np.abs(self.sims) > 1.0).any():
            raise ValueError("similarity matrix has entries outside [-1, 1]")
        object.__setattr__(self, "_index", {d: i for i, d in enumerate(self.docs)})

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._index

    def sim(self, doc_a: str, doc_b: str) -> float:
        try:
            return float(self.sims[self._index[doc_a], self._index[doc_b]])
        except KeyError:
            missing = [d for d in (doc_a, doc_b) if d not in self._index]
            raise CoverageError(
                f"doc(s) absent from topic {self.topic_id} matrix: {', '.join(missing)}",
                missing,
            ) from None

    def pair_values(self) -> np.ndarray:
        """Similarities of all distinct unordered pairs (upper triangle)."""
        iu = np.triu_indices(len(self.docs), k=1)
        return self.sims[iu]


def topic_sim_matrix(
    source: SimilaritySource, docs: Sequence[str], topic_id: str
) -> TopicSimMatrix:
    """Full pairwise similarity matrix for `docs` under `topic_id`.

    A VectorStore must cover every doc; a PairStore must cover every distinct
    unordered pair (missing entries are errors, never silent defaults).
    """
    docs = list(docs)
    n = len(docs)
    if isinstance(source, VectorStore):
        unit = source.unit_matrix(docs)
        m = unit @ unit.T
        if (np.abs(m) > 1.0 + SIMILARITY_EPS).any():
            raise ValueError("cosine values outside [-1, 1] beyond tolerance")
        np.clip(m, -1.0, 1.0, out=m)
        upper = np.triu(m, k=1)
        m = upper + upper.T
        np.fill_diagonal(m, 1.0)
        return TopicSimMatrix(topic_id, docs, m)
    if isinstance(source, PairStore):
        view = source.topic_view(topic_id)
        values, missing = [], []
        # combinations() yields the i < j pairs in np.triu_indices order.
        for doc_a, doc_b in combinations(docs, 2):
            try:
                values.append(view.sim(doc_a, doc_b))
            except CoverageError as exc:
                missing.extend(exc.missing)
        if missing:
            shown = ", ".join(f"({a}, {b})" for _, a, b in missing[:10])
            raise CoverageError(
                f"{len(missing)} pair(s) absent from topic {topic_id}: {shown}", missing
            )
        m = np.ones((n, n), dtype=np.float64)
        rows, cols = np.triu_indices(n, k=1)
        m[rows, cols] = values
        m[cols, rows] = values
        return TopicSimMatrix(topic_id, docs, m)
    raise TypeError(f"unsupported similarity source {type(source).__name__}")


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
