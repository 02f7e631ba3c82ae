"""Decoy-pair detection over rankings and SERP logs.

A decoy pair (target, decoy) holds when three conditions are met at once:
the two documents are near-duplicates (similarity inside the configured
band), the target is clearly better (per the configured quality rule), and
they are displayed close together (rank distance <= delta_rank).

Only a document graded at least the quality rule's minimum target grade
can be a target, so detection walks the rank window of those documents
alone instead of all O(n^2) pairs: cost is O(#targets * delta_rank) quality
checks and similarity lookups, not O(n * delta_rank), and quality gating
happens before any similarity is fetched.
"""

import logging
from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass

from .model import (
    CoverageError,
    DecoyConfig,
    DecoyPair,
    InteractionLog,
    Qrels,
    Ranking,
    SimilaritySource,
)

logger = logging.getLogger(__name__)


def detect_decoy_pairs(
    topic_id: str,
    ranking: Ranking,
    grades: Mapping[str, int],
    sims,
    cfg: DecoyConfig,
    dedup: bool = True,
) -> list[DecoyPair]:
    """All decoy pairs in `ranking`, ordered by (target rank, decoy rank).

    `sims` is any object with a ``sim(doc_a, doc_b) -> float`` method scoped
    to this topic (a TopicSimMatrix, a VectorStore, or a PairStore topic
    view). With ``dedup`` each target keeps only its most similar decoy
    (ties broken by ascending decoy doc id), so the pair count is the number
    of distinct targets.

    Similarities are fetched as ``sim(higher-ranked doc, lower-ranked doc)``
    in rank order of the pair. Every similarity the quality rule asks for
    must be resolvable; missing docs or pairs raise CoverageError listing
    everything absent.
    """
    docs = ranking.doc_ids
    n = len(docs)
    grade = [grades.get(d, 0) for d in docs]
    quality = cfg.quality
    floor = quality.min_target_grade
    window = cfg.delta_rank

    # Both quality rules admit a pair in at most one direction, so scanning
    # each possible target's window finds every admitted pair exactly once.
    admitted: list[tuple[int, int, int]] = []  # (lo idx, hi idx, target idx)
    for ti, gt in enumerate(grade):
        if gt < floor:
            continue
        for j in range(max(ti - window, 0), min(ti + window + 1, n)):
            if j != ti and quality.admits(gt, grade[j]):
                admitted.append((j, ti, ti) if j < ti else (ti, j, ti))
    admitted.sort()

    candidates: list[tuple[int, int, float]] = []  # (target idx, decoy idx, sim)
    missing: list = []
    for lo, hi, ti in admitted:
        try:
            s = sims.sim(docs[lo], docs[hi])
        except CoverageError as exc:
            missing.extend(exc.missing)
            continue
        if cfg.in_band(s):
            candidates.append((ti, hi if ti == lo else lo, s))
    if missing:
        seen = list(dict.fromkeys(missing))
        raise CoverageError(
            f"similarity coverage incomplete for topic {topic_id}: {len(seen)} key(s) missing",
            seen,
        )

    if dedup:
        best: dict[int, tuple[int, float]] = {}
        for ti, di, s in candidates:
            cur = best.get(ti)
            if cur is None or s > cur[1] or (s == cur[1] and docs[di] < docs[cur[0]]):
                best[ti] = (di, s)
        candidates = [(ti, di, s) for ti, (di, s) in best.items()]

    candidates.sort(key=lambda c: (c[0], c[1]))
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
    if k < 1:
        raise ValueError(f"cutoff must be >= 1, got {k}")
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
    SERP yields several records.
    """
    records: list[SerpPairRecord] = []
    targets: set[str] = set()
    views: dict[str, object] = {}
    for session in log.sessions:
        view = views.get(session.topic_id)
        if view is None:
            view = source.topic_view(session.topic_id)
            views[session.topic_id] = view
        grades = qrels.grades_for(session.topic_id)
        pairs = detect_decoy_pairs(
            session.topic_id, session.serp.head(top_n), grades, view, cfg, dedup=False
        )
        for pair in pairs:
            records.append(SerpPairRecord(session.serp_id, pair))
            targets.add(pair.target_doc)
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
        topic_targets = [d for d in docs if d in targets]
        if not topic_targets:
            continue
        grades = qrels.grades_for(topic_id)
        view = source.topic_view(topic_id)
        for cand in docs:
            if cand in targets:
                continue
            g_cand = grades.get(cand, 0)
            for tgt in topic_targets:
                if abs(g_cand - grades.get(tgt, 0)) > rel_window:
                    continue
                if view.sim(cand, tgt) >= s_control:
                    controls.add(cand)
                    matched.add(tgt)
    logger.info("matched %d controls to %d targets", len(controls), len(matched))
    return controls, matched
