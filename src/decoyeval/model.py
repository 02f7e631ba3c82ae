"""Core domain types shared by every other module.

Pure data: constructors validate their invariants and raise ValueError with a
message naming the violated invariant. All types are immutable after
construction (frozen dataclasses, or conventionally-immutable containers).
"""

from collections import defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import count, filterfalse

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


class Ranking:
    """One ranked list: its doc ids, best first.

    The rank of the doc at position i is i + 1; a run's scores order its
    docs while it is read, and are not kept. Doc ids are unique strings
    without a line break, held as one "\\n"-joined string that `doc_ids`
    splits into a tuple on each read. `Ranking()` is the empty list, and a
    Ranking is falsy exactly when it is empty.
    """

    __slots__ = ("_text", "_len")

    def __init__(self, doc_ids: Sequence[str] = ()):
        text = "\n".join(doc_ids)
        if text.count("\n") != max(len(doc_ids) - 1, 0):
            bad = next(doc_id for doc_id in doc_ids if "\n" in doc_id)
            raise ValueError(f"doc id {bad!r} holds a line break")
        if len(set(doc_ids)) != len(doc_ids):
            seen = set()
            twice = next(d for d in doc_ids if d in seen or seen.add(d))
            raise ValueError(f"duplicate doc id {twice} in ranking")
        self._text, self._len = text, len(doc_ids)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(self._text.split("\n")) if self._len else ()

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other):
        return ((self._len, self._text) == (other._len, other._text)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.doc_ids,))

    def __repr__(self) -> str:
        return f"Ranking(doc_ids={self.doc_ids!r})"

    def __reduce__(self):
        return _joined_ranking, (self._text, self._len)

    def head(self, k: int) -> "Ranking":
        """The top k of the ranking (all of it when k >= its length)."""
        if k < 0:
            raise ValueError(f"ranking prefix length must be >= 0, got {k}")
        if k >= self._len:
            return self
        top = object.__new__(Ranking)  # a prefix of unique ids needs no check
        top._text, top._len = "\n".join(self._text.split("\n", k)[:k]), k
        return top


def _joined_ranking(text: str, length: int) -> Ranking:
    """The Ranking a pickle holds, rebuilt from its joined text and length
    with no split, join or duplicate check; a length that does not match
    the text's line breaks is a ValueError."""
    breaks = text.count("\n")
    # One doc id more than line breaks, except in the empty list: "" and 0.
    if length != (breaks + 1 if text or length else 0):
        raise ValueError(f"{length} doc ids do not fit a ranking text of {len(text)} "
                         f"characters and {breaks} line breaks")
    ranking = object.__new__(Ranking)
    ranking._text, ranking._len = text, length
    return ranking


def check_g_max(g_max: int) -> None:
    """ValueError unless the top relevance grade g_max is non-negative."""
    if g_max < 0:
        raise ValueError(f"g_max must be non-negative, got {g_max}")


@dataclass(frozen=True)
class Qrels:
    """Per-topic graded relevance judgments on a 0..g_max scale."""

    g_max: int
    judgments: Mapping[str, Mapping[str, int]]

    def __post_init__(self):
        check_g_max(self.g_max)
        for topic_id, docs in self.judgments.items():
            for doc_id, grade in docs.items():
                if not isinstance(grade, int) or isinstance(grade, bool):
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
        raw = float(np.vecdot(self.unit_vector(doc_a), self.unit_vector(doc_b)))
        return clamp_similarity(raw, f"cosine({doc_a}, {doc_b})")

    def pair_values(self, doc_ids: list[str]) -> np.ndarray:
        """sim(doc_ids[i], doc_ids[j]) for every i < j, in np.triu_indices
        order; the same np.vecdot of the same unit rows, so bit for bit."""
        unit = self.unit_matrix(doc_ids)
        rows = [np.vecdot(row, unit[i + 1:]) for i, row in enumerate(unit)]
        values = np.concatenate([np.empty(0), *rows])
        if (np.abs(values) > 1.0 + SIMILARITY_EPS).any():
            raise ValueError(f"cosine outside [-1, 1] by more than {SIMILARITY_EPS}")
        return np.clip(values, -1.0, 1.0, out=values)

    def topic_view(self, topic_id: str) -> "VectorStore":
        return self


def declare_pair(pairs: dict, topic_id: str, doc_a: str, doc_b: str, value: float,
                 line: int = 0) -> None:
    """Enter a pair's similarity, clamped by `clamp_similarity`, into `pairs`:
    (topic, smaller doc id, larger doc id) -> (value, first line). A pair
    declared again, in either orientation, must repeat the clamped value;
    otherwise ValueError, naming the first line if known."""
    key = (topic_id, *sorted((doc_a, doc_b)))
    seen = f", first on line {pairs[key][1]}" if pairs.get(key, (0, 0))[1] else ""
    try:
        value = clamp_similarity(value)
    except ValueError as exc:
        raise ValueError(f"{exc} for pair ({doc_a}, {doc_b}) in topic {topic_id}{seen}") from None
    known = pairs.setdefault(key, (value, line))[0]
    if known != value:
        raise ValueError(f"conflicting similarity for ({doc_a}, {doc_b}) in topic {topic_id}: "
                         f"{known} vs {value}{seen}")


class PairStore:
    """Precomputed per-topic pair similarities, as columns: a doc table of
    int codes, an int64 key (smaller code * n_docs + larger code) and a
    float64 clamped value per pair, each topic's pairs one block in key
    order. `PairStore(sims)` checks each (topic, doc_a, doc_b) -> value by
    `declare_pair`. `PairStore.of_columns(topics, codes, topic, doc_a, doc_b,
    values)` holds pair i = (topic[i], doc_a[i], doc_b[i]), codes under the
    id -> code dicts `topics` and `codes`, with values[i]; ValueError on a
    value the clamp rejects, or a pair declared again with another value
    after it. A pair declared again with the same value is kept once."""

    __slots__ = ("_codes", "_topics", "_keys", "_values")

    def __init__(self, sims: Mapping[tuple[str, str, str], float]):
        pairs: dict = {}
        for (topic_id, doc_a, doc_b), value in sims.items():
            declare_pair(pairs, topic_id, doc_a, doc_b, value)
        tables = defaultdict(count().__next__), defaultdict(count().__next__)
        columns = [np.fromiter((tables[i > 0][key[i]] for key in pairs), np.int64, len(pairs))
                   for i in range(3)]
        values = np.fromiter((value for value, _ in pairs.values()), np.float64, len(pairs))
        self._fill(*tables, *columns, values)

    @classmethod
    def of_columns(cls, topics, codes, topic, doc_a, doc_b, values) -> "PairStore":
        store = object.__new__(cls)
        store._fill(topics, codes, topic, doc_a, doc_b, values)
        return store

    def _fill(self, topics, codes, topic, doc_a, doc_b, values) -> None:
        # The argument arrays are scratch: each temporary reuses one of them.
        if not (np.abs(values) <= 1.0 + SIMILARITY_EPS).all():  # NaN included
            raise ValueError(f"similarity outside [-1, 1] by more than {SIMILARITY_EPS}")
        np.clip(values, -1.0, 1.0, out=values)
        n = len(codes)
        key = np.maximum(doc_a, doc_b)
        key += np.multiply(np.minimum(doc_a, doc_b, out=doc_a), n, out=doc_a)
        if max(len(topics), 1) * n * n <= np.iinfo(np.int64).max:
            sort_key = np.multiply(topic, n * n, out=doc_b)
            sort_key += key
            order = np.argsort(sort_key, kind="stable")
        else:  # one int64 sort key of topic and pair would overflow
            order = np.lexsort((key, topic))
        key, topic = np.take(key, order, out=doc_a), np.take(topic, order, out=doc_b)
        values = values[order]
        again = np.zeros(len(key), dtype=bool)  # the pair of the entry before, again
        again[1:] = (key[1:] == key[:-1]) & (topic[1:] == topic[:-1])
        if again.any():
            if (values[again] != values[np.flatnonzero(again) - 1]).any():
                raise ValueError("conflicting similarity for a pair declared twice")
            topic, key, values = topic[~again], key[~again], values[~again]
        bounds = np.searchsorted(topic, np.arange(len(topics) + 1)).tolist()
        self._codes, self._keys, self._values = codes, key, values
        self._topics = {t: (bounds[c], bounds[c + 1]) for t, c in topics.items()}

    def __len__(self) -> int:
        return len(self._keys)

    def topic_view(self, topic_id: str) -> "PairStoreTopicView":
        lo, hi = self._topics.get(topic_id, (0, 0))
        return PairStoreTopicView(topic_id, self._codes, self._keys[lo:hi], self._values[lo:hi])


@dataclass(frozen=True, slots=True)
class PairStoreTopicView:
    """One topic's pairs of a PairStore: the store's doc codes, and the
    topic's ascending `keys` with their `values`."""

    topic_id: str
    codes: Mapping[str, int]
    keys: np.ndarray
    values: np.ndarray

    def sim(self, doc_a: str, doc_b: str) -> float:
        a, b = self.codes.get(doc_a), self.codes.get(doc_b)
        if a is not None and b is not None:
            key = min(a, b) * len(self.codes) + max(a, b)
            i = int(self.keys.searchsorted(key))
            if i < len(self.keys) and self.keys[i] == key:
                return float(self.values[i])
        raise CoverageError(f"no similarity for pair ({doc_a}, {doc_b}) in topic "
                            f"{self.topic_id}", [(self.topic_id, doc_a, doc_b)])

    def sim_pairs(self, docs: Sequence[str], a: np.ndarray, b: np.ndarray) -> tuple:
        """`sim(docs[a[i]], docs[b[i]])` for each i, as (values, found): where
        the pair is absent, found[i] is False and values[i] is NaN. Only the
        docs that `a` and `b` index are looked up."""
        code = np.zeros(len(docs), dtype=np.int64)
        code[a] = code[b] = 1
        touched = code.nonzero()[0]
        get = self.codes.get
        code[touched] = [get(docs[i], -1) for i in touched.tolist()]
        code_a, code_b = code[a], code[b]
        # A doc the store lacks has code -1, so its pair key is negative and
        # matches no stored key.
        key = np.minimum(code_a, code_b) * len(self.codes) + np.maximum(code_a, code_b)
        pos, found = find_sorted(self.keys, key)
        values = np.full(len(a), np.nan)
        values[found] = self.values[pos[found]]
        return values, found


def lookup_sims(view, docs: Sequence[str], a: np.ndarray, b: np.ndarray) -> tuple:
    """`view.sim(docs[a[i]], docs[b[i]])` for each i, NaN where the pair is
    absent, and the (i, CoverageError) of each absent pair in order of i. A
    view with `sim_pairs` answers in one call, and is asked `sim` only for
    the pairs it lacks; any other view is asked `sim` for each pair."""
    if hasattr(view, "sim_pairs"):
        values, found = view.sim_pairs(docs, a, b)
        ask = (~found).nonzero()[0]
    else:
        values, ask = np.empty(len(a)), np.arange(len(a))
    gaps = []
    for i, x, y in zip(ask.tolist(), a[ask].tolist(), b[ask].tolist()):
        try:
            values[i] = view.sim(docs[x], docs[y])
        except CoverageError as exc:
            values[i] = np.nan
            gaps.append((i, exc))
    return values, gaps


SimilaritySource = VectorStore | PairStore


def int_column(values) -> np.ndarray:
    """Python ints as an int64 array, or as an object array when one lies
    outside int64, so that no value wraps or is rejected."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def find_sorted(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each of `values`, its position in the ascending array `keys` and
    whether it is there (where it is not, the position is meaningless)."""
    pos = np.searchsorted(keys, values)
    pos[pos == len(keys)] = 0
    found = keys[pos] == values if len(keys) else np.zeros(len(values), dtype=bool)
    return pos, found


def _repeated(sorted_keys: np.ndarray):
    """The smallest value that the ascending array `sorted_keys` holds twice,
    or None."""
    twice = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
    return int(sorted_keys[twice[0]]) if len(twice) else None


class InteractionLog:
    """A search log: the SERP impressions of one study, in file order, as
    columns.

    SERP r has the ids `serp_ids[r]`, `session_ids[r]`, `user_ids[r]`,
    `task_ids[r]` and `topic_ids[r]` (lists of strings; equal ids are
    usually one shared object). `docs` is the doc table, each displayed doc
    id once. SERP r shows, in rank order, the docs `docs[i]` for i in
    `serp_doc[offsets[r]:offsets[r + 1]]`; a doc's rank is its position
    there. Click j, in file order, is on doc `docs[click_doc[j]]` of SERP
    `click_serp[j]`, with `click_dwell[j]` seconds and usefulness
    `click_usefulness[j]`. The usefulness column is int64, or an object
    array of ints when a value lies outside int64.

    The constructor takes SERP r's ids, its doc count `sizes[r]` and click
    count `click_counts[r]`, the doc table, and the doc-index and click
    lists over all SERPs in file order; usefulness values are Python ints,
    and an int dwell beyond float range raises OverflowError. It raises
    ValueError unless the columns agree in length, no doc id is twice in
    the table or on a SERP, every click is on a doc its SERP shows, no doc
    has two clicks on a SERP, and dwell and usefulness are finite and
    non-negative. Logs are equal when they hold the same SERPs with the
    same ids, pages and clicks, whatever their doc-table order and the
    order of the clicks within a SERP.
    """

    __slots__ = ("serp_ids", "session_ids", "user_ids", "task_ids", "topic_ids", "docs",
                 "offsets", "serp_doc", "click_serp", "click_doc", "click_dwell",
                 "click_usefulness")

    def __init__(self, serp_ids, session_ids, user_ids, task_ids, topic_ids, docs, sizes,
                 serp_doc, click_counts, click_doc, click_dwell, click_usefulness):
        n, n_docs = len(serp_ids), len(docs)
        if not (len(session_ids) == len(user_ids) == len(task_ids) == len(topic_ids)
                == len(sizes) == len(click_counts) == n):
            raise ValueError("log id columns differ in length")
        if len(set(docs)) != n_docs:
            raise ValueError("log doc table holds a doc id twice")
        if min(sizes, default=0) < 0 or min(click_counts, default=0) < 0:
            raise ValueError("log SERP sizes and click counts must be >= 0")
        for name, value in (
            ("serp_ids", serp_ids), ("session_ids", session_ids), ("user_ids", user_ids),
            ("task_ids", task_ids), ("topic_ids", topic_ids), ("docs", docs),
            ("offsets", np.cumsum([0, *sizes])), ("serp_doc", np.array(serp_doc, dtype=np.intp)),
            ("click_serp", np.repeat(np.arange(n), np.array(click_counts, dtype=np.intp))),
            ("click_doc", np.array(click_doc, dtype=np.intp)),
            ("click_dwell", np.array(click_dwell, dtype=np.float64)),
            ("click_usefulness", int_column(click_usefulness)),
        ):
            object.__setattr__(self, name, value)
        if self.offsets[-1] != len(self.serp_doc):
            raise ValueError("log SERP sizes do not match its doc column")
        if not (len(self.click_serp) == len(self.click_doc) == len(self.click_dwell)
                == len(self.click_usefulness)):
            raise ValueError("log click counts do not match its click columns")
        for index in (self.serp_doc, self.click_doc):
            if len(index) and not 0 <= index.min() <= index.max() < n_docs:
                raise ValueError("log doc index outside the doc table")
        # One key per (SERP, doc): a doc twice on a SERP repeats its key.
        keys = np.sort(self.entry_rows() * n_docs + self.serp_doc)
        twice = _repeated(keys)
        if twice is not None:
            raise ValueError(f"SERP {self.serp_ids[twice // n_docs]}: duplicate doc id "
                             f"{self.docs[twice % n_docs]} in ranking")
        click_keys = self.click_serp * n_docs + self.click_doc
        _, shown = find_sorted(keys, click_keys)
        if not shown.all():
            j = int(np.argmin(shown))
            raise ValueError(f"click on doc {self.docs[self.click_doc[j]]} absent from "
                             f"SERP {self.serp_ids[self.click_serp[j]]}")
        twice = _repeated(np.sort(click_keys))
        if twice is not None:
            raise ValueError(f"SERP {self.serp_ids[twice // n_docs]}: click on doc "
                             f"{self.docs[twice % n_docs]}: duplicate click entry")
        if not (np.isfinite(self.click_dwell).all() and (self.click_dwell >= 0).all()):
            raise ValueError("dwell_seconds must be finite and >= 0")
        if (self.click_usefulness < 0).any():
            raise ValueError("usefulness must be >= 0")

    def __setattr__(self, name, value):
        raise AttributeError(f"InteractionLog is immutable; cannot set {name}")

    def __reduce__(self):
        # Pickles by value. The columns were checked when this log was built,
        # so unpickling restores them as they are, without the constructor.
        return _restored_log, tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return len(self.serp_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InteractionLog):
            return NotImplemented
        return self._content() == other._content()

    __hash__ = None

    def entry_rows(self) -> np.ndarray:
        """The SERP row of each entry of `serp_doc`."""
        return np.repeat(np.arange(len(self.serp_ids)), np.diff(self.offsets))

    def heads(self, rows: np.ndarray, top_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of `serp_doc` in the top `top_n` of the SERPs `rows`,
        SERP by SERP in that order and each in rank order, with the SERP row
        and the position (rank - 1) of each."""
        start = self.offsets[rows]
        size = np.minimum(self.offsets[rows + 1] - start, min(top_n, len(self.serp_doc)))
        row = np.repeat(rows, size)
        col = np.arange(len(row)) - np.repeat(np.cumsum(size) - size, size)
        return np.repeat(start, size) + col, row, col

    def joined(self, back: "InteractionLog") -> "InteractionLog":
        """This log's SERPs, then those of `back`, whose serp_ids must all
        differ from this log's, as one read of the two in turn builds them:
        the doc table is this log's, then `back`'s docs new to it, in order.
        One take maps `back`'s doc indexes into that table. The usefulness
        column is an object array where either log's is. Nothing is checked
        again: each invariant holds per SERP, and so holds in the join."""
        table = dict(zip(self.docs, count()))
        table.update(zip(filterfalse(table.__contains__, back.docs), count(len(table))))
        codes = np.fromiter(map(table.__getitem__, back.docs), dtype=np.intp,
                            count=len(back.docs))
        return _restored_log(
            self.serp_ids + back.serp_ids, self.session_ids + back.session_ids,
            self.user_ids + back.user_ids, self.task_ids + back.task_ids,
            self.topic_ids + back.topic_ids, tuple(table),
            np.concatenate((self.offsets, back.offsets[1:] + self.offsets[-1])),
            np.concatenate((self.serp_doc, codes.take(back.serp_doc))),
            np.concatenate((self.click_serp, back.click_serp + len(self))),
            np.concatenate((self.click_doc, codes.take(back.click_doc))),
            np.concatenate((self.click_dwell, back.click_dwell)),
            np.concatenate((self.click_usefulness, back.click_usefulness)))

    def topic_codes(self) -> tuple[list[str], np.ndarray]:
        """The distinct topic ids in order of first SERP, and each SERP's
        position in that list."""
        table = defaultdict(count().__next__)
        codes = np.fromiter(map(table.__getitem__, self.topic_ids), dtype=np.intp,
                            count=len(self.topic_ids))
        return list(table), codes

    def _content(self) -> tuple:
        """What `==` compares: each SERP's ids and doc ids in order,
        and the clicks as (SERP row, doc id, dwell, usefulness) in that order."""
        docs = self.docs
        clicks = zip(self.click_serp.tolist(), map(docs.__getitem__, self.click_doc.tolist()),
                     self.click_dwell.tolist(), self.click_usefulness.tolist())
        ids = (self.serp_ids, self.session_ids, self.user_ids, self.task_ids, self.topic_ids)
        return (*map(list, ids), self.offsets.tolist(),
                list(map(docs.__getitem__, self.serp_doc.tolist())), sorted(clicks))


def _restored_log(*columns) -> InteractionLog:
    """The InteractionLog whose slots hold `columns`, in slot order, as a
    pickled log is read back."""
    log = object.__new__(InteractionLog)
    for name, value in zip(InteractionLog.__slots__, columns, strict=True):
        object.__setattr__(log, name, value)
    return log


_GROUPS = ("control", "target")


@dataclass(frozen=True, slots=True, eq=False)
class RecordColumns:
    """The records of the group analysis as columns, one entry per (SERP,
    document) observation, in order.

    The id columns are lists of strings; `is_target` (the group, target or
    control), `is_clicked`, `dwell_seconds` (float64), `usefulness` and
    `rank` are arrays. `usefulness` and `rank` are int64, or object arrays
    of ints when a value lies outside int64. An unclicked record has dwell
    and usefulness 0. ValueError unless all nine columns have one length.
    """

    serp_id: list[str]
    doc_id: list[str]
    is_target: np.ndarray
    is_clicked: np.ndarray
    dwell_seconds: np.ndarray
    usefulness: np.ndarray
    rank: np.ndarray
    task_id: list[str]
    user_id: list[str]

    def __post_init__(self):
        if len({len(getattr(self, name)) for name in self.__slots__}) > 1:
            raise ValueError("record columns differ in length")

    def groups(self) -> list[str]:
        """The group name of each record."""
        return list(map(_GROUPS.__getitem__, self.is_target.tolist()))

    def __len__(self) -> int:
        return len(self.serp_id)
