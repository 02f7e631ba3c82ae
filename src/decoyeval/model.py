"""Core domain types shared by every other module.

Pure data: constructors validate their invariants and raise ValueError with a
message naming the violated invariant. All types are immutable after
construction (frozen dataclasses, or conventionally-immutable containers).
"""

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

# Cosine of unit-noise vectors can exceed 1.0 by a few ulps; values within
# this tolerance of +/-1 are clamped, larger excursions are rejected.
SIMILARITY_EPS = 1e-6


class CoverageError(LookupError):
    """A required document vector or pair similarity is absent from the source."""

    def __init__(self, message: str, missing: list = None):
        super().__init__(message)
        self.missing = missing or []


def clamp_similarity(value: float, context: str = "similarity") -> float:
    """Clamp a similarity to [-1, 1] if within SIMILARITY_EPS of the bound.

    Values further outside the interval are errors, not noise.
    """
    if -1.0 <= value <= 1.0:
        return value
    if 1.0 < value <= 1.0 + SIMILARITY_EPS:
        return 1.0
    if -1.0 - SIMILARITY_EPS <= value < -1.0:
        return -1.0
    raise ValueError(f"{context} {value} outside [-1, 1] by more than {SIMILARITY_EPS}")


def rescaled(vec: np.ndarray) -> np.ndarray:
    """`vec` times the power of two that brings its largest absolute component
    into [0.5, 1). The scaling is exact, so a norm taken after it cannot
    overflow or underflow, and a cosine computed from it is bit for bit the
    one computed from `vec` wherever that one did neither."""
    return np.ldexp(vec, -np.frexp(np.abs(vec).max(initial=0.0))[1])


@dataclass(frozen=True, slots=True)
class Ranking:
    """One ranked list as parallel columns: doc ids, scores and the rank
    column as it appeared on disk.

    The rank of the doc at position i is i + 1. `source_ranks` is the file's
    rank column, kept as read; in a run it breaks score ties. Doc ids are
    unique. `Ranking()` is the empty list, and a Ranking is falsy exactly
    when it is empty.
    """

    doc_ids: tuple[str, ...] = ()
    scores: tuple[float, ...] = ()
    source_ranks: tuple[int, ...] = ()

    def __post_init__(self):
        n = len(self.doc_ids)
        if len(self.scores) != n or len(self.source_ranks) != n:
            raise ValueError(
                f"ranking columns differ in length: {n} doc ids, "
                f"{len(self.scores)} scores, {len(self.source_ranks)} source ranks"
            )
        if len(set(self.doc_ids)) != n:
            seen = set()
            for doc_id in self.doc_ids:
                if doc_id in seen:
                    raise ValueError(f"duplicate doc id {doc_id} in ranking")
                seen.add(doc_id)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def head(self, k: int) -> "Ranking":
        """The top k of the ranking (all of it when k >= its length)."""
        if k < 0:
            raise ValueError(f"ranking prefix length must be >= 0, got {k}")
        if k >= len(self.doc_ids):
            return self
        return Ranking(self.doc_ids[:k], self.scores[:k], self.source_ranks[:k])


@dataclass(frozen=True)
class Qrels:
    """Per-topic graded relevance judgments on a 0..g_max scale."""

    g_max: int
    judgments: Mapping[str, Mapping[str, int]]

    def __post_init__(self):
        if self.g_max < 0:
            raise ValueError(f"g_max must be non-negative, got {self.g_max}")
        for topic_id, docs in self.judgments.items():
            for doc_id, grade in docs.items():
                if not isinstance(grade, int):
                    raise ValueError(
                        f"grade for topic {topic_id} doc {doc_id} must be an integer, "
                        f"got {grade!r}"
                    )
                if not 0 <= grade <= self.g_max:
                    raise ValueError(
                        f"grade {grade} for topic {topic_id} doc {doc_id} "
                        f"outside [0, {self.g_max}]"
                    )

    def grades_for(self, topic_id: str) -> Mapping[str, int]:
        """Judgments for one topic; empty mapping when the topic is unjudged."""
        return self.judgments.get(topic_id, {})


@dataclass(frozen=True)
class RunList:
    """A system's ranked output: one Ranking per topic."""

    run_tag: str
    rankings: Mapping[str, Ranking]


@dataclass(frozen=True)
class MinGradeGap:
    """Quality condition: grade(target) - grade(decoy) >= gamma."""

    gamma: int = 2

    def __post_init__(self):
        if self.gamma < 1:
            raise ValueError(f"grade gap must be >= 1, got {self.gamma}")

    @property
    def min_target_grade(self) -> int:
        """Lowest target grade the rule admits: decoy grades are >= 0."""
        return self.gamma

    def admits(self, target_grade, decoy_grade):
        """Whether the rule admits the pair; elementwise on grade arrays."""
        return target_grade - decoy_grade >= self.gamma


@dataclass(frozen=True)
class GradeBand:
    """Quality condition: grade(target) >= target_min and grade(decoy) <= decoy_max.

    The band must be disjoint (decoy_max < target_min), so a pair can never
    qualify in both directions.
    """

    target_min: int = 2
    decoy_max: int = 1

    def __post_init__(self):
        if self.decoy_max >= self.target_min:
            raise ValueError(
                f"decoy_max ({self.decoy_max}) must be < target_min ({self.target_min})"
            )

    @property
    def min_target_grade(self) -> int:
        """Lowest target grade the rule admits."""
        return self.target_min

    def admits(self, target_grade, decoy_grade):
        """Whether the rule admits the pair; elementwise on grade arrays."""
        return (target_grade >= self.target_min) & (decoy_grade <= self.decoy_max)


@dataclass(frozen=True)
class DecoyConfig:
    """Parameters of decoy-pair detection.

    Defaults encode the ranked-run regime: similarity in [0.6, 0.95), grade
    band target >= 2 / decoy <= 1, rank window 5, exclusive upper similarity
    bound. Log mining uses an inclusive upper bound and a minimum grade gap
    instead (see logmine / the mine command).
    """

    s_min: float = 0.6
    s_max: float = 0.95
    quality: MinGradeGap | GradeBand = field(default_factory=GradeBand)
    delta_rank: int = 5
    s_max_inclusive: bool = False

    def __post_init__(self):
        if not 0.0 <= self.s_min < self.s_max <= 1.0:
            raise ValueError(
                f"similarity band must satisfy 0 <= s_min < s_max <= 1, "
                f"got [{self.s_min}, {self.s_max}]"
            )
        if self.delta_rank < 1:
            raise ValueError(f"delta_rank must be >= 1, got {self.delta_rank}")

    def in_band(self, similarity):
        """Whether a similarity lies in the band; elementwise on arrays."""
        upper = similarity <= self.s_max if self.s_max_inclusive else similarity < self.s_max
        return (similarity >= self.s_min) & upper


@dataclass(frozen=True, slots=True)
class DecoyPair:
    """A (target, decoy) document pair admitted by some DecoyConfig.

    The band/quality/rank-window conditions are guaranteed by the detector
    that produced the pair; the constructor only checks field sanity.
    """

    topic_id: str
    target_doc: str
    decoy_doc: str
    similarity: float
    target_rank: int
    decoy_rank: int
    target_grade: int
    decoy_grade: int

    def __post_init__(self):
        if self.target_rank < 1 or self.decoy_rank < 1:
            raise ValueError(
                f"ranks must be >= 1, got ({self.target_rank}, {self.decoy_rank})"
            )
        if self.target_grade < 0 or self.decoy_grade < 0:
            raise ValueError("grades must be non-negative")
        object.__setattr__(
            self, "similarity", clamp_similarity(self.similarity, "pair similarity")
        )


class VectorStore:
    """Similarity source backed by one dense vector per document.

    All vectors share one dimension; zero-norm vectors are rejected. Cosine
    similarity is topic-independent, so every topic view answers from the same
    unit-normalized matrix.
    """

    def __init__(self, vectors: Mapping[str, np.ndarray]):
        if not vectors:
            raise ValueError("vector store requires at least one vector")
        self._index: dict[str, int] = {}
        rows = []
        dim = None
        first_doc = None
        for doc_id, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"vector for doc {doc_id} is not 1-dimensional")
            if dim is None:
                dim, first_doc = arr.shape[0], doc_id
            elif arr.shape[0] != dim:
                raise ValueError(
                    f"vector dimension mismatch: doc {first_doc} has {dim}, "
                    f"doc {doc_id} has {arr.shape[0]}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"vector for doc {doc_id} has a non-finite component")
            arr = rescaled(arr)
            norm = float(np.linalg.norm(arr))
            if norm == 0.0:
                raise ValueError(f"zero-norm vector for doc {doc_id}")
            self._index[doc_id] = len(rows)
            rows.append(arr / norm)
        self._unit = np.vstack(rows)
        self.dim = dim

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._index

    def unit_vector(self, doc_id: str) -> np.ndarray:
        try:
            return self._unit[self._index[doc_id]]
        except KeyError:
            raise CoverageError(f"no vector for doc {doc_id}", [doc_id]) from None

    def unit_matrix(self, doc_ids: list[str]) -> np.ndarray:
        """Unit-normalized vectors for `doc_ids`, stacked in order."""
        missing = [d for d in doc_ids if d not in self._index]
        if missing:
            raise CoverageError(
                f"no vector for {len(missing)} doc(s): {', '.join(sorted(missing)[:10])}",
                missing,
            )
        return self._unit[[self._index[d] for d in doc_ids]]

    def sim(self, doc_a: str, doc_b: str) -> float:
        raw = float(np.dot(self.unit_vector(doc_a), self.unit_vector(doc_b)))
        return clamp_similarity(raw, f"cosine({doc_a}, {doc_b})")

    def topic_view(self, topic_id: str) -> "VectorStore":
        return self


def pair_key(doc_a: str, doc_b: str) -> tuple[str, str]:
    """The key of the unordered pair {doc_a, doc_b}: the smaller id first."""
    return (doc_a, doc_b) if doc_a <= doc_b else (doc_b, doc_a)


class PairStore:
    """Similarity source backed by precomputed per-topic pair similarities.

    One dict per topic maps each unordered pair, keyed by `pair_key`, to its
    clamped similarity; lookups are symmetric.
    """

    def __init__(self, sims: Mapping[tuple[str, str, str], float]):
        self._topics: dict[str, dict[tuple[str, str], float]] = {}
        for (topic_id, doc_a, doc_b), value in sims.items():
            self.add(topic_id, doc_a, doc_b, value)

    def add(self, topic_id: str, doc_a: str, doc_b: str, value: float) -> tuple[str, str]:
        """Store one pair's similarity, clamped by `clamp_similarity`, and
        return its key. A pair declared again, in either orientation, must
        have the same value after the clamp; otherwise ValueError.
        """
        try:
            value = clamp_similarity(value)
        except ValueError as exc:
            raise ValueError(f"{exc} for pair ({doc_a}, {doc_b}) in topic {topic_id}") from None
        key = pair_key(doc_a, doc_b)
        known = self._topics.setdefault(topic_id, {}).setdefault(key, value)
        if known != value:
            raise ValueError(
                f"conflicting similarity for ({doc_a}, {doc_b}) in topic {topic_id}: "
                f"{known} vs {value}"
            )
        return key

    def __len__(self) -> int:
        return sum(len(pairs) for pairs in self._topics.values())

    def topic_view(self, topic_id: str) -> "PairStoreTopicView":
        return PairStoreTopicView(topic_id, self._topics.get(topic_id, {}))


@dataclass(frozen=True, slots=True)
class PairStoreTopicView:
    """One topic's pairs of a PairStore, exposing the two-document sim() shape."""

    topic_id: str
    pairs: Mapping[tuple[str, str], float]

    def sim(self, doc_a: str, doc_b: str) -> float:
        try:
            return self.pairs[pair_key(doc_a, doc_b)]
        except KeyError:
            raise CoverageError(
                f"no similarity for pair ({doc_a}, {doc_b}) in topic {self.topic_id}",
                [(self.topic_id, doc_a, doc_b)],
            ) from None


SimilaritySource = VectorStore | PairStore


@dataclass(frozen=True, slots=True)
class Click:
    """Interaction with one clicked document: dwell seconds and usefulness grade."""

    dwell_seconds: float
    usefulness: int

    def __post_init__(self):
        if self.dwell_seconds < 0:
            raise ValueError(f"dwell_seconds must be >= 0, got {self.dwell_seconds}")
        if self.usefulness < 0:
            raise ValueError(f"usefulness must be >= 0, got {self.usefulness}")


@dataclass(frozen=True)
class SerpInteraction:
    """One SERP impression: the ranked page plus the clicks it received."""

    serp_id: str
    session_id: str
    user_id: str
    task_id: str
    topic_id: str
    serp: Ranking
    clicks: Mapping[str, Click]

    def __post_init__(self):
        for doc_id in self.clicks:
            if doc_id not in self.serp.doc_ids:
                raise ValueError(f"click on doc {doc_id} absent from SERP {self.serp_id}")


@dataclass(frozen=True)
class InteractionLog:
    """A search log: the SERP interactions of one study, in file order."""

    sessions: list[SerpInteraction]


@dataclass(frozen=True, slots=True)
class InteractionRecord:
    """One (SERP, document) behavioral observation used by the group analysis.

    Unclicked documents are zero-filled: is_clicked False forces dwell and
    usefulness to 0.
    """

    serp_id: str
    doc_id: str
    group: str
    is_clicked: bool
    dwell_seconds: float
    usefulness: int
    rank: int
    task_id: str
    user_id: str

    def __post_init__(self):
        if self.group not in ("target", "control"):
            raise ValueError(f"group must be 'target' or 'control', got {self.group!r}")
        if not self.is_clicked and (self.dwell_seconds != 0 or self.usefulness != 0):
            raise ValueError(
                "unclicked record must have dwell_seconds = 0 and usefulness = 0"
            )
        if self.dwell_seconds < 0:
            raise ValueError(f"dwell_seconds must be >= 0, got {self.dwell_seconds}")
        if self.usefulness < 0:
            raise ValueError(f"usefulness must be >= 0, got {self.usefulness}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
