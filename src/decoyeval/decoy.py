"""Decoy-pair detection over rankings and SERP logs.

A decoy pair (target, decoy) holds when three conditions are met at once:
the two documents are near-duplicates (similarity inside the configured
band), the target is clearly better (per the configured quality rule), and
they are displayed close together (rank distance <= delta_rank).

One array kernel, `detect_rows`, detects over all rows of one topic at
once: a run's ranking is one row, a log topic's SERP heads are its rows in
log order. Only a document graded at least the quality rule's minimum
target grade can be a target, so the kernel checks a grid of targets by
rank offsets +-delta_rank, not all O(n^2) pairs, and the quality rule gates
every pair before any similarity is fetched. Each distinct unordered doc
pair that passes is looked up once per topic, however many rows show it.
"""

import logging
from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass

import numpy as np

from .model import (
    CoverageError,
    DecoyConfig,
    DecoyPair,
    InteractionLog,
    Qrels,
    Ranking,
    SimilaritySource,
    int_column,
    lookup_sims,
)

logger = logging.getLogger(__name__)


class _RowCoverageError(CoverageError):
    """The CoverageError of `detect_rows`; `entry` is a flat position in the
    row it names."""

    def __init__(self, message: str, missing: list, entry: int):
        super().__init__(message, missing)
        self.entry = entry


def detect_rows(
    topic_id: str,
    docs: Sequence[str],
    doc: np.ndarray,
    grade: np.ndarray,
    col: np.ndarray,
    sims,
    cfg: DecoyConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every decoy pair over one topic's rows, without dedup.

    The rows lie end to end in three flat integer arrays: entry i shows doc
    `docs[doc[i]]`, of grade `grade[i]`, at column `col[i]` (its rank - 1)
    of its row, and each row's columns run 0, 1, 2, ... A doc appears at
    most once per row. Returns (target entries, decoy entries,
    similarities) of the pairs in the band, in (row, target rank, decoy
    rank) order.

    `sims` is any object with a ``sim(doc_a, doc_b) -> float`` method scoped
    to this topic (a VectorStore or a PairStore topic view), read through
    `lookup_sims`. Each distinct unordered doc pair the quality rule admits
    is fetched once, as ``sim(higher-ranked doc, lower-ranked doc)`` where
    it first shows in (row, rank) order. If any is missing, CoverageError
    lists every missing key of the first row that lacks one, in that row's
    rank order, as detection over that row alone would.
    """
    n = len(doc)
    quality = cfg.quality
    # An offset past the longest row never stays inside a row.
    window = min(cfg.delta_rank, int(col.max()) if n else 0)
    offsets = np.r_[-window:0, 1:window + 1]
    targets = np.flatnonzero(grade >= quality.min_target_grade)
    # Targets in entry order, each with ascending offsets: the pairs come
    # out in (row, target rank, decoy rank) order.
    t = np.repeat(targets, len(offsets))
    p = (targets[:, None] + offsets).ravel()
    inside = (p >= 0) & (p < n)
    t, p = t[inside], p[inside]
    # Rows are contiguous with consecutive columns, so p lies in t's row
    # exactly when their columns differ by p - t. Both quality rules admit
    # a pair in at most one direction, so no pair shows twice.
    keep = (col[p] - col[t] == p - t) & quality.admits(grade[t], grade[p])
    t, p = t[keep], p[keep]
    if not len(t):
        return t, p, np.empty(0)

    # Each distinct unordered doc pair is fetched through the pair where it
    # first shows in (row, rank) order.
    upper, lower = np.minimum(t, p), np.maximum(t, p)
    shown = np.lexsort((lower, upper))
    a, b = doc[t], doc[p]
    key = np.minimum(a, b).astype(np.int64) * len(docs) + np.maximum(a, b)
    _, first, inverse = np.unique(key[shown], return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    fetch = shown[first[by_first]]

    entries = upper[fetch]
    values, gaps = lookup_sims(sims, docs, doc[entries], doc[lower[fetch]])
    if gaps:
        # A pair missing from the first failing row shows first in that row,
        # and is fetched in the orientation that row shows it.
        failed = int(entries[gaps[0][0]])
        row = failed - col[failed]
        seen = list(dict.fromkeys(
            k for i, exc in gaps if entries[i] - col[entries[i]] == row for k in exc.missing
        ))
        named = ", ".join(f"({k[1]}, {k[2]})" if isinstance(k, tuple) else k for k in seen[:10])
        raise _RowCoverageError(f"similarity coverage incomplete for topic {topic_id}: "
                                f"{len(seen)} key(s) missing: {named}", seen, failed)
    distinct = np.empty(len(first))
    distinct[by_first] = values
    sim = np.empty(len(t))
    sim[shown] = distinct[inverse]
    band = cfg.in_band(sim)
    return t[band], p[band], sim[band]


def detect_decoy_pairs(
    topic_id: str,
    ranking: Ranking,
    grades: Mapping[str, int],
    sims,
    cfg: DecoyConfig,
    dedup: bool = True,
) -> list[DecoyPair]:
    """All decoy pairs in `ranking`, ordered by (target rank, decoy rank).

    `sims` is as for `detect_rows`, which this runs on the one row. With
    ``dedup`` each target keeps only its most similar decoy (ties broken by
    ascending decoy doc id), so the pair count is the number of distinct
    targets.
    """
    docs = ranking.doc_ids
    grade = [grades.get(d, 0) for d in docs]
    index = np.arange(len(docs))
    found = detect_rows(topic_id, docs, index, int_column(grade), index, sims, cfg)
    candidates = list(zip(*(column.tolist() for column in found)))
    if dedup:
        best: dict[int, tuple[int, float]] = {}
        for ti, di, s in candidates:
            cur = best.get(ti)
            if cur is None or s > cur[1] or (s == cur[1] and docs[di] < docs[cur[0]]):
                best[ti] = (di, s)
        candidates = [(ti, di, s) for ti, (di, s) in best.items()]
    return [
        DecoyPair(
            topic_id=topic_id,
            target_doc=docs[ti],
            decoy_doc=docs[di],
            similarity=s,
            target_rank=ti + 1,
            decoy_rank=di + 1,
            target_grade=grade[ti],
            decoy_grade=grade[di],
        )
        for ti, di, s in candidates
    ]


def check_cutoff(k: int) -> None:
    """ValueError unless the cutoff k is at least 1."""
    if k < 1:
        raise ValueError(f"cutoff must be >= 1, got {k}")


def detect_decoy_pairs_at_k(
    topic_id: str,
    ranking: Ranking,
    grades: Mapping[str, int],
    sims,
    cfg: DecoyConfig,
    k: int,
    dedup: bool = True,
) -> list[DecoyPair]:
    """Decoy pairs restricted to the top-k prefix of the ranking."""
    check_cutoff(k)
    return detect_decoy_pairs(topic_id, ranking.head(k), grades, sims, cfg, dedup=dedup)


@dataclass(frozen=True, slots=True)
class SerpPairRecord:
    """One decoy pair observed on one SERP impression."""

    serp_id: str
    pair: DecoyPair


def identify_targets(
    log: InteractionLog,
    qrels: Qrels,
    source: SimilaritySource,
    cfg: DecoyConfig,
    top_n: int = 10,
) -> tuple[list[SerpPairRecord], set[str]]:
    """Scan every SERP's top `top_n` for decoy pairs, without dedup.

    Returns the per-impression pair records in log order and the set of all
    target doc ids. Dedup is off so one target showing several decoys on one
    SERP yields several records. Each topic's SERP heads go through
    `detect_rows` in one call; a CoverageError is that of the first SERP in
    log order that lacks a pair.
    """
    if top_n < 0:
        raise ValueError(f"ranking prefix length must be >= 0, got {top_n}")
    topics, code = log.topic_codes()
    rows, cols = log.entry_rows(), log.entry_cols()
    head = np.flatnonzero(cols < top_n)
    # The head entries by topic, each topic's in log order.
    head = head[np.argsort(code[rows[head]], kind="stable")]
    bounds = np.searchsorted(code[rows[head]], np.arange(len(topics) + 1)).tolist()

    found: list[tuple[int, int, int, SerpPairRecord]] = []  # (SERP, ranks, record)
    gap: tuple[int, CoverageError] | None = None  # (SERP, error) of the first gap
    for c, topic_id in enumerate(topics):
        entries = head[bounds[c]:bounds[c + 1]]
        if not len(entries) or (gap is not None and rows[entries[0]] > gap[0]):
            continue
        serp_of, col = rows[entries], cols[entries]
        shown, doc = np.unique(log.serp_doc[entries], return_inverse=True)
        docs = list(map(log.docs.__getitem__, shown.tolist()))
        grades = qrels.grades_for(topic_id)
        doc_grade = [grades.get(doc_id, 0) for doc_id in docs]
        try:
            t, p, s = detect_rows(topic_id, docs, doc, np.array(doc_grade)[doc], col,
                                  source.topic_view(topic_id), cfg)
        except _RowCoverageError as exc:
            at = int(serp_of[exc.entry])
            if gap is None or at < gap[0]:
                gap = (at, exc)
            continue
        for at, a, b, rank_a, rank_b, sim in zip(
            serp_of[t].tolist(), doc[t].tolist(), doc[p].tolist(),
            (col[t] + 1).tolist(), (col[p] + 1).tolist(), s.tolist(),
        ):
            pair = DecoyPair(topic_id, docs[a], docs[b], sim, rank_a, rank_b,
                             doc_grade[a], doc_grade[b])
            found.append((at, rank_a, rank_b, SerpPairRecord(log.serp_ids[at], pair)))
    if gap is not None:
        raise gap[1]
    found.sort(key=lambda f: f[:3])
    records = [record for *_, record in found]
    targets = {r.pair.target_doc for r in records}
    logger.info("identified %d pair records over %d targets", len(records), len(targets))
    return records, targets


def identify_controls(
    universe: Mapping[str, Sequence[str]],
    qrels: Qrels,
    targets: Set[str],
    source: SimilaritySource,
    s_control: float,
    rel_window: int = 2,
) -> tuple[set[str], set[str]]:
    """Pick non-target docs that shadow some same-topic target.

    A control must be at least `s_control`-similar to a target of the same
    topic and within `rel_window` relevance grades of it. Returns (controls,
    matched targets); the second set keeps only targets that anchored at
    least one control.

    `universe` maps topic id to the candidate doc ids for that topic (targets
    included; they are skipped as controls but used as anchors).
    """
    if rel_window < 0:
        raise ValueError(f"relevance window must be >= 0, got {rel_window}")
    controls: set[str] = set()
    matched: set[str] = set()
    for topic_id in sorted(universe):
        docs = list(dict.fromkeys(universe[topic_id]))
        is_target = np.array([d in targets for d in docs], dtype=bool)
        if not is_target.any():
            continue
        grades = qrels.grades_for(topic_id)
        grade = int_column([grades.get(d, 0) for d in docs])
        # The (candidate, target) pairs within the window, candidates outer,
        # each in `docs` order.
        cands, tgts = np.flatnonzero(~is_target), np.flatnonzero(is_target)
        cand, tgt = np.nonzero(np.abs(grade[cands, None] - grade[tgts]) <= rel_window)
        cand, tgt = cands[cand], tgts[tgt]
        values, gaps = lookup_sims(source.topic_view(topic_id), docs, cand, tgt)
        if gaps:
            raise gaps[0][1]
        close = values >= s_control
        controls.update(map(docs.__getitem__, cand[close].tolist()))
        matched.update(map(docs.__getitem__, tgt[close].tolist()))
    logger.info("matched %d controls to %d targets", len(controls), len(matched))
    return controls, matched
