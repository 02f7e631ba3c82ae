"""Ranking effectiveness and decoy-vulnerability metrics.

Effectiveness: nDCG, Recall, RBP, ERR, each at a cutoff k. Vulnerability:
DEJA-VU@k = 1 - exp(d - r) where d counts deduplicated decoy pairs in the
top k and r counts highly relevant documents there (so 0 <= d <= r and the
score lives in [0, 1)). A doc is relevant, for Recall and for DEJA-VU's r and
d, when its grade is at least RELEVANT_GRADE. The two sides combine linearly:
LC = alpha * DEJA-VU + (1 - alpha) * effectiveness.

Every metric is a read of one per-topic kernel, topic_prefix, which makes
one pass down to the deepest cutoff (detection included), so any cutoff up
to that depth is a lookup. Per-topic evaluation is pure; aggregation uses
math.fsum so topic order never changes a mean.
"""

import bisect
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import compress, count, repeat

import numpy as np

from .decoy import check_cutoff, detect_rows
from .model import DecoyConfig, Qrels, Ranking, RunList, SimilaritySource, int_column

EFFECTIVENESS_METRICS = ("ndcg", "recall", "rbp", "err")
KNOWN_METRICS = ("dejavu",) + EFFECTIVENESS_METRICS + tuple(
    f"lc_{m}" for m in EFFECTIVENESS_METRICS
)
RELEVANT_GRADE = 2  # TREC DL's 0-3 scale: grade 2 and up is relevant


def check_scale(g_max: int) -> None:
    """ValueError unless the grade scale 0..g_max reaches RELEVANT_GRADE."""
    if g_max < RELEVANT_GRADE:
        raise ValueError(f"g_max must be >= {RELEVANT_GRADE}, got {g_max}")


@dataclass(frozen=True)
class MetricConfig:
    """Shared knobs for all metrics: phi the RBP persistence and alpha the
    LC weight on DEJA-VU. The cutoffs are passed separately, and the grade
    scale (RBP utility and ERR normalisation) is the qrels' own g_max."""

    phi: float = 0.8
    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.phi < 1.0:
            raise ValueError(f"phi must lie in (0, 1), got {self.phi}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")


# Largest double below 1; keeps the metric inside its documented [0, 1)
# range when 1 - exp(d - r) is no longer representable below 1 (r - d >= 38).
_MAX_BELOW_ONE = math.nextafter(1.0, 0.0)


def dejavu(decoy_pairs: int, highly_relevant: int) -> float:
    """DEJA-VU score 1 - exp(d - r) for d decoy pairs among r relevant docs.

    The value always stays strictly below 1: for r - d beyond roughly 37 the
    closed form rounds to 1.0 in doubles, so the result is capped at the
    largest double below 1 (an error under one ulp).

    >>> dejavu(2, 2)
    0.0
    >>> round(dejavu(2, 3), 3)
    0.632
    >>> round(dejavu(1, 2), 3)
    0.632
    >>> dejavu(0, 0)
    0.0
    """
    if decoy_pairs < 0:
        raise ValueError(f"decoy pair count must be >= 0, got {decoy_pairs}")
    if decoy_pairs > highly_relevant:
        raise ValueError(
            f"decoy pairs ({decoy_pairs}) cannot exceed highly relevant docs "
            f"({highly_relevant}); each counted target is a highly relevant doc"
        )
    return min(-math.expm1(decoy_pairs - highly_relevant), _MAX_BELOW_ONE)


def err_grade_map(grade: int, g_max: int = 3) -> float:
    """Relevance probability (2^g - 1) / 2^g_max used by the ERR cascade.

    >>> [err_grade_map(g) for g in range(4)]
    [0.0, 0.125, 0.375, 0.875]
    """
    if g_max < 1:
        raise ValueError(f"g_max must be >= 1, got {g_max}")
    if not 0 <= grade <= g_max:
        raise ValueError(f"grade must lie in [0, {g_max}], got {grade}")
    return (2.0 ** grade - 1.0) / (2.0 ** g_max)


def linear_combination(m_dejavu: float, m_eff: float, alpha: float = 0.5) -> float:
    """LC = alpha * DEJA-VU + (1 - alpha) * effectiveness, both in [0, 1]."""
    for name, v in (("dejavu", m_dejavu), ("effectiveness", m_eff), ("alpha", alpha)):
        if not 0.0 <= v <= 1.0 or math.isnan(v):
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return alpha * m_dejavu + (1.0 - alpha) * m_eff


def _dcg_term(grade: int, rank: int) -> float:
    """DCG contribution of one doc: gain 2^g - 1, discount log2(rank + 1)."""
    return (2.0 ** grade - 1.0) / math.log2(rank + 1.0)


@dataclass(frozen=True, slots=True)
class TopicScores:
    """All requested metric values for one topic at one cutoff."""

    topic_id: str
    scores: dict[str, float]
    decoy_pairs: int = 0
    highly_relevant: int = 0

    def __post_init__(self):
        if self.decoy_pairs < 0 or self.decoy_pairs > self.highly_relevant:
            raise ValueError(
                f"topic {self.topic_id}: need 0 <= decoy pairs <= highly relevant, "
                f"got d={self.decoy_pairs} r={self.highly_relevant}"
            )
        for name, v in self.scores.items():
            if math.isnan(v) or not 0.0 <= v <= 1.0:
                raise ValueError(f"topic {self.topic_id}: {name}={v} outside [0, 1]")


def resolve_metrics(names: Sequence[str]) -> tuple[str, ...]:
    """Validate metric names and add anything an LC metric depends on.

    lc_X needs both dejavu and X; missing operands are appended in a stable
    order rather than rejected.
    """
    seen: list[str] = []
    for name in names:
        if name not in KNOWN_METRICS:
            raise ValueError(
                f"unknown metric {name!r}; known: {', '.join(KNOWN_METRICS)}"
            )
        if name not in seen:
            seen.append(name)
    for name in list(seen):
        if name.startswith("lc_"):
            for dep in ("dejavu", name[3:]):
                if dep not in seen:
                    seen.append(dep)
    if not seen:
        raise ValueError("at least one metric is required")
    return tuple(seen)


@dataclass(frozen=True, slots=True)
class TopicPrefix:
    """One topic's ranking summarised down to `depth`, readable at any
    cutoff 1 <= k <= depth.

    Rank lists hold 1-based ranks in ascending order, so a count over the
    top k is a bisection. The running DCG, RBP and ERR sums change only at
    ranks holding a doc of grade > 0 (any other doc adds exactly 0.0), so
    they are kept at those ranks: entry j sums the first j graded ranks.
    """

    topic_id: str
    depth: int
    graded: list[int]           # ranks of docs with grade > 0
    dcg: list[float]
    rbp: list[float]
    err: list[float]
    ideal_dcg: list[float]      # entry i: DCG of the i best judged grades
    relevant: list[int]         # ranks with grade >= RELEVANT_GRADE
    total_relevant: int         # judged docs with grade >= RELEVANT_GRADE
    decoy_depths: list[int]     # per distinct relevant target, the rank of its first decoy

    def values_at(self, k: int) -> tuple[dict[str, float], int, int]:
        """Every base metric at cutoff k, with DEJA-VU's d and r."""
        if not 1 <= k <= self.depth:
            raise ValueError(f"cutoff must lie in [1, {self.depth}], got {k}")
        j = bisect.bisect_right(self.graded, k)
        d = bisect.bisect_right(self.decoy_depths, k)
        r = bisect.bisect_right(self.relevant, k)  # also Recall's hits
        idcg = self.ideal_dcg[min(k, len(self.ideal_dcg) - 1)]
        ndcg = self.dcg[j] / idcg if idcg else 0.0
        # A perfect ranking can land a few ulps above 1 because DCG and IDCG
        # sum the same terms in different orders.
        if 1.0 < ndcg <= 1.0 + 1e-9:
            ndcg = 1.0
        values = {
            "dejavu": dejavu(d, r),
            "ndcg": ndcg,
            "recall": r / self.total_relevant if self.total_relevant else 0.0,
            "rbp": self.rbp[j],
            "err": self.err[j],
        }
        return values, d, r

    def scores_at(self, k: int, metrics: Sequence[str], alpha: float) -> TopicScores:
        """The dependency-closed `metrics` at cutoff k. The decoy pair and
        highly relevant counts are reported only when dejavu is among them."""
        values, d, r = self.values_at(k)
        scores = {
            name: values[name] if name in values
            else linear_combination(values["dejavu"], values[name[3:]], alpha)
            for name in metrics
        }
        if "dejavu" not in metrics:
            d = r = 0
        return TopicScores(self.topic_id, scores, decoy_pairs=d, highly_relevant=r)


def topic_prefix(
    topic_id: str,
    ranking: Ranking,
    grades: Mapping[str, int],
    g_max: int,
    sims,
    decoy_cfg: DecoyConfig | None,
    cfg: MetricConfig,
    depth: int,
) -> TopicPrefix:
    """Summarise the top `depth` of one topic's ranking in one pass.

    Every grade met in the ranking must lie in [0, g_max]. When `sims`
    is given, decoy detection runs once over the whole prefix without
    dedup, and each relevant target keeps the smallest max(target rank,
    decoy rank) of its pairs: the first cutoff at which it has a visible
    decoy. A target graded below RELEVANT_GRADE is not counted, so d <= r.
    The grade column read for the metrics is the one detection reads. With
    `sims` None no pair is counted.
    """
    check_cutoff(depth)
    docs = ranking.head(depth).doc_ids
    ranked = list(map(grades.get, docs, repeat(0)))

    graded = list(compress(count(1), ranked))
    dcg, rbp, err = [0.0], [0.0], [0.0]
    weight, weight_rank = 1.0 - cfg.phi, 1  # RBP weight (1 - phi) * phi^(rank - 1)
    p_continue = 1.0
    for i in graded:
        g = ranked[i - 1]
        while weight_rank < i:
            weight *= cfg.phi
            weight_rank += 1
        stop = err_grade_map(g, g_max)
        dcg.append(dcg[-1] + _dcg_term(g, i))
        rbp.append(rbp[-1] + weight * (g / g_max))
        err.append(err[-1] + p_continue * stop / i)
        p_continue *= 1.0 - stop

    ideal_dcg = [0.0]
    for i, g in enumerate(sorted(grades.values(), reverse=True)[:depth], start=1):
        if g <= 0:
            break
        ideal_dcg.append(ideal_dcg[-1] + _dcg_term(g, i))

    first_seen: dict[int, int] = {}  # target index -> rank of its first decoy
    if sims is not None:
        index = np.arange(len(docs))
        pairs = detect_rows(topic_id, docs, index, int_column(ranked), index, sims, decoy_cfg)
        for ti, di in zip(pairs[0].tolist(), pairs[1].tolist()):
            seen_at = max(ti, di) + 1
            if ranked[ti] >= RELEVANT_GRADE and seen_at < first_seen.get(ti, seen_at + 1):
                first_seen[ti] = seen_at

    return TopicPrefix(
        topic_id=topic_id,
        depth=depth,
        graded=graded,
        dcg=dcg,
        rbp=rbp,
        err=err,
        ideal_dcg=ideal_dcg,
        relevant=[i for i in graded if ranked[i - 1] >= RELEVANT_GRADE],
        total_relevant=sum(1 for g in grades.values() if g >= RELEVANT_GRADE),
        decoy_depths=sorted(first_seen.values()),
    )


def _read_at_k(name: str, ranking, grades, k: int, g_max: int, phi: float = 0.8) -> float:
    check_scale(g_max)
    prefix = topic_prefix("", ranking, grades, g_max, None, None, MetricConfig(phi=phi), k)
    return prefix.values_at(k)[0][name]


def _scale_of(grades: Mapping[str, int]) -> int:
    """A g_max for metrics that never read it: covers every grade."""
    return max([3, *grades.values()])


@dataclass(frozen=True, slots=True)
class DejavuOutcome:
    decoy_pairs: int
    highly_relevant: int
    score: float


def dejavu_at_k(
    topic_id: str,
    ranking: Ranking,
    grades: Mapping[str, int],
    sims,
    decoy_cfg: DecoyConfig,
    k: int,
) -> DejavuOutcome:
    """DEJA-VU@k for one topic: count dedup decoy pairs and highly relevant
    docs in the top k, then apply 1 - exp(d - r)."""
    if sims is None:
        raise ValueError("dejavu requires a similarity source")
    values, d, r = topic_prefix(topic_id, ranking, grades, _scale_of(grades), sims, decoy_cfg,
                                MetricConfig(), k).values_at(k)
    return DejavuOutcome(d, r, values["dejavu"])


def ndcg_at_k(
    ranking: Ranking,
    grades: Mapping[str, int],
    k: int,
) -> float:
    """nDCG@k with gain 2^g - 1 and discount log2(rank + 1).

    The ideal ranking is built from every judged document of the topic, not
    just retrieved ones, then truncated at k. A topic with no relevant
    judgments scores 0.
    """
    return _read_at_k("ndcg", ranking, grades, k, _scale_of(grades))


def recall_at_k(
    ranking: Ranking,
    grades: Mapping[str, int],
    k: int,
) -> float:
    """Fraction of the topic's relevant docs (grade >= RELEVANT_GRADE)
    retrieved in the top k. Topics with no relevant docs score 0."""
    return _read_at_k("recall", ranking, grades, k, _scale_of(grades))


def rbp_at_k(
    ranking: Ranking,
    grades: Mapping[str, int],
    k: int,
    phi: float = 0.8,
    g_max: int = 3,
) -> float:
    """Rank-biased precision (1 - phi) * sum_i r_i * phi^(i-1), truncated at
    k, with graded utility r_i = grade_i / g_max."""
    return _read_at_k("rbp", ranking, grades, k, g_max, phi)


def err_at_k(
    ranking: Ranking,
    grades: Mapping[str, int],
    k: int,
    g_max: int = 3,
) -> float:
    """Expected reciprocal rank: sum_i (1/i) * R_i * prod_{j<i} (1 - R_j)."""
    return _read_at_k("err", ranking, grades, k, g_max)


@dataclass(frozen=True, slots=True)
class AggregateScores:
    """Per-metric means over a topic set, plus mean pair and relevant counts."""

    n_topics: int
    scores: dict[str, float]
    decoy_pairs: float
    highly_relevant: float


def aggregate(topics: Sequence[TopicScores]) -> AggregateScores:
    """Arithmetic mean of every metric across topics.

    Sums use math.fsum, so permuting the topics cannot change the result.
    """
    if not topics:
        raise ValueError("cannot aggregate an empty topic list")
    names = list(topics[0].scores)
    for t in topics:
        if list(t.scores) != names:
            raise ValueError(
                f"inconsistent metric sets across topics: {names} vs {list(t.scores)}"
            )
    n = len(topics)
    means = {m: math.fsum(t.scores[m] for t in topics) / n for m in names}
    return AggregateScores(
        n_topics=n,
        scores=means,
        decoy_pairs=math.fsum(t.decoy_pairs for t in topics) / n,
        highly_relevant=math.fsum(t.highly_relevant for t in topics) / n,
    )


@dataclass(frozen=True, slots=True)
class RunEvaluation:
    """One run evaluated at one cutoff: per-topic rows plus their mean."""

    run_tag: str
    k: int
    metric_names: tuple[str, ...]
    topics: list[TopicScores]
    mean: AggregateScores


def _cutoff_scores(
    run: RunList,
    qrels: Qrels,
    source: SimilaritySource | None,
    decoy_cfg: DecoyConfig,
    cfg: MetricConfig,
    metrics: tuple[str, ...],
    cutoffs: Sequence[int],
) -> Iterator[tuple[int, list[TopicScores], AggregateScores]]:
    """Per ascending cutoff k: k, every judged topic's scores at k (sorted
    by topic) and their mean, one cutoff at a time. Each topic is summarised
    once, down to the last cutoff, on the qrels' grade scale; detection runs
    only for dejavu."""
    check_scale(qrels.g_max)
    if not qrels.judgments:
        raise ValueError("qrels contain no topics")
    needs_sims = "dejavu" in metrics
    if needs_sims and source is None:
        raise ValueError("dejavu requires a similarity source")
    prefixes = []
    for topic_id in sorted(qrels.judgments):
        ranking = run.rankings.get(topic_id, Ranking())
        view = source.topic_view(topic_id) if needs_sims and ranking else None
        prefixes.append(topic_prefix(
            topic_id, ranking, qrels.grades_for(topic_id), qrels.g_max, view, decoy_cfg, cfg,
            cutoffs[-1]))
    for k in cutoffs:
        rows = [prefix.scores_at(k, metrics, cfg.alpha) for prefix in prefixes]
        yield k, rows, aggregate(rows)


def evaluate_run(
    run: RunList,
    qrels: Qrels,
    source: SimilaritySource | None,
    decoy_cfg: DecoyConfig,
    cfg: MetricConfig,
    metrics: Sequence[str],
    cutoffs: Sequence[int],
) -> list[RunEvaluation]:
    """Evaluate a run at each cutoff over every judged topic.

    Topics come from the qrels (sorted); a judged topic missing from the run
    scores as an empty ranking. Each topic goes through topic_prefix once,
    down to the deepest cutoff, so decoy detection runs once per topic and
    every cutoff is a read of the same summary: the result at cutoff k
    equals that of evaluate_run at k alone. A run and qrels of one topic
    score that topic alone.
    """
    metrics = resolve_metrics(metrics)
    cutoffs = sorted(set(cutoffs))
    if not cutoffs:
        raise ValueError("at least one cutoff is required")
    check_cutoff(cutoffs[0])
    return [
        RunEvaluation(run.run_tag, k, metrics, rows, mean)
        for k, rows, mean in _cutoff_scores(run, qrels, source, decoy_cfg, cfg, metrics, cutoffs)
    ]


@dataclass(frozen=True, slots=True)
class SweepRow:
    """Means across topics at one cutoff of a sweep."""

    k: int
    decoy_pairs: float
    ndcg: float
    recall: float
    dejavu: float


def sweep_cutoffs(k_start: int, k_end: int, k_step: int) -> range:
    """The cutoffs range(k_start, k_end + 1, k_step); ValueError unless
    1 <= k_start <= k_end and k_step >= 1."""
    if k_start < 1 or k_end < k_start or k_step < 1:
        raise ValueError(
            f"need 1 <= k_start <= k_end and k_step >= 1, got "
            f"start={k_start} end={k_end} step={k_step}"
        )
    return range(k_start, k_end + 1, k_step)


def sweep(
    run: RunList,
    qrels: Qrels,
    source: SimilaritySource,
    decoy_cfg: DecoyConfig,
    cfg: MetricConfig,
    k_start: int,
    k_end: int,
    k_step: int,
) -> list[SweepRow]:
    """Mean decoy count, nDCG, Recall and DEJA-VU at each cutoff in
    range(k_start, k_end + 1, k_step).

    Each row is aggregated from the same per-topic scores as evaluate_run's
    means, so it equals evaluate_run's mean at its k exactly; only one
    cutoff's per-topic scores are held at a time.
    """
    cutoffs = sweep_cutoffs(k_start, k_end, k_step)
    return [
        SweepRow(k, mean.decoy_pairs, mean.scores["ndcg"], mean.scores["recall"],
                 mean.scores["dejavu"])
        for k, _, mean in _cutoff_scores(
            run, qrels, source, decoy_cfg, cfg, ("dejavu", "ndcg", "recall"), cutoffs
        )
    ]
