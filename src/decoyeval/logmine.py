"""Mining interaction logs for target/control behaviour comparison.

The pipeline: derive similarity thresholds from the log's own within-topic
similarity distribution, detect decoy targets on each SERP, match controls
(similar, comparably relevant, never a target), extract one interaction
record per (SERP, doc) with zero-filled signals for unclicked docs, then
compare the two groups per measure with Welch's unequal-variance t-test.

The t-test p-value comes from the regularized incomplete beta function,
implemented here with a Lentz continued fraction so the library needs no
stats dependency.
"""

import logging
import math
from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass

import numpy as np

from .decoy import SerpPairRecord
from .model import InteractionLog, RecordColumns, SimilaritySource, find_sorted
from .simsig import sorted_percentile, topic_pair_values

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class Thresholds:
    """Similarity cutoffs derived from a log, with the sample size used."""

    s_min: float
    s_control: float
    pair_count: int

    def __post_init__(self):
        if self.pair_count < 1:
            raise ValueError("thresholds need at least one similarity value")
        if self.s_min > self.s_control:
            raise ValueError(
                f"s_min ({self.s_min}) cannot exceed s_control ({self.s_control})"
            )


def log_doc_universe(log: InteractionLog) -> dict[str, list[str]]:
    """Per topic, the sorted distinct doc ids displayed anywhere in the log."""
    topics, code = log.topic_codes()
    n_docs = len(log.docs)
    # One key per (topic, doc) shown; sorted, each topic's keys are a block.
    # Built and sorted in place: one int64 column over every entry, not three.
    keys = np.repeat(code.astype(np.int64, copy=False), np.diff(log.offsets))
    keys *= n_docs
    keys += log.serp_doc
    keys.sort()
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]] if len(keys) else keys
    topic_of, doc_of = np.divmod(keys, max(n_docs, 1))
    bounds = np.searchsorted(topic_of, np.arange(len(topics) + 1)).tolist()
    docs = log.docs
    return {
        topic: sorted(map(docs.__getitem__, doc_of[bounds[c]:bounds[c + 1]].tolist()))
        for c, topic in sorted(enumerate(topics), key=lambda item: item[1])
    }


def check_percentiles(s_min_pct: float, s_control_pct: float) -> None:
    """ValueError unless s_min_pct is below s_control_pct and both lie in
    (0, 100)."""
    if s_min_pct >= s_control_pct:
        raise ValueError(
            f"s_min percentile ({s_min_pct}) must be below s_control percentile "
            f"({s_control_pct})"
        )
    for p in (s_min_pct, s_control_pct):
        if not 0.0 < p < 100.0:
            raise ValueError(f"percentile must lie in (0, 100), got {p}")


def derive_thresholds(
    universe: Mapping[str, Sequence[str]],
    source: SimilaritySource,
    s_min_pct: float = 99.0,
    s_control_pct: float = 99.5,
) -> Thresholds:
    """Pool all within-topic pair similarities over each topic's docs, then
    take percentiles: s_min at s_min_pct and s_control at s_control_pct.

    `universe` maps topic id to its doc ids, as `log_doc_universe` gives
    them for a log; a repeated id is dropped. One whose topics all have
    fewer than two distinct docs has no pairs and is an error.
    """
    check_percentiles(s_min_pct, s_control_pct)
    per_topic = []
    for topic_id, docs in universe.items():
        docs = list(dict.fromkeys(docs))
        if len(docs) >= 2:
            per_topic.append(topic_pair_values(source, docs, topic_id))
    if not per_topic:
        raise ValueError("no within-topic doc pairs in the log; cannot derive thresholds")
    values = np.sort(np.concatenate(per_topic))
    s_min = sorted_percentile(values, s_min_pct)
    s_control = sorted_percentile(values, s_control_pct)
    logger.info(
        "derived s_min=%.6g s_control=%.6g from %d pair similarities",
        s_min, s_control, len(values),
    )
    return Thresholds(s_min=s_min, s_control=s_control, pair_count=len(values))


def extract_records(
    log: InteractionLog,
    pair_records: Sequence[SerpPairRecord],
    matched_targets: Set[str],
    controls: Set[str],
    top_n: int = 10,
) -> RecordColumns:
    """Build the target-group and control-group interaction records.

    Target group: one record per distinct (SERP, target doc) among the decoy
    pair records whose target survived control matching. Control group: one
    record per (SERP, control doc) over each SERP's top `top_n`. Unclicked
    docs get dwell 0 and usefulness 0. Target records come first, both
    groups in log order then rank order.
    """
    overlap = set(matched_targets) & set(controls)
    if overlap:
        raise ValueError(
            f"target and control sets overlap: {', '.join(sorted(overlap)[:5])}"
        )
    if top_n < 0:
        raise ValueError(f"ranking prefix length must be >= 0, got {top_n}")
    # Only the SERPs and docs named, so memory grows with the records, not the log.
    named = {rec.serp_id for rec in pair_records}
    row_of = {serp_id: row for row, serp_id in enumerate(log.serp_ids) if serp_id in named}
    index = {doc_id: i for i, doc_id in enumerate(log.docs) if doc_id in matched_targets}
    n_docs = len(log.docs)
    wanted = []  # (SERP, doc) keys: row * n_docs + doc code
    for rec in pair_records:
        row = row_of.get(rec.serp_id)
        if row is None:
            raise ValueError(f"pair record references unknown SERP {rec.serp_id}")
        doc = index.get(rec.pair.target_doc)
        if doc is not None:
            wanted.append(row * n_docs + doc)

    # Targets come only from the heads of the SERPs that show one; controls
    # from every entry, then cut to the heads.
    wanted = np.unique(np.array(wanted, dtype=np.int64))
    heads, serp_of = log.heads(np.unique(wanted // n_docs), top_n)[:2]
    targets = heads[find_sorted(wanted, serp_of * n_docs + log.serp_doc[heads])[1]]
    is_control = np.fromiter(map(controls.__contains__, log.docs), dtype=bool, count=n_docs)
    entries = np.concatenate([targets, np.flatnonzero(is_control[log.serp_doc])])
    rows = np.searchsorted(log.offsets, entries, side="right") - 1
    cols = entries - log.offsets[rows]
    head = cols < top_n
    entries, rows, cols = entries[head], rows[head], cols[head]

    click_keys = log.click_serp * n_docs + log.click_doc
    click_order = np.argsort(click_keys)
    at, clicked = find_sorted(click_keys[click_order], rows * n_docs + log.serp_doc[entries])
    click = click_order[at[clicked]]
    dwell = np.zeros(len(entries))
    dwell[clicked] = log.click_dwell[click]
    usefulness = np.zeros(len(entries), dtype=log.click_usefulness.dtype)
    usefulness[clicked] = log.click_usefulness[click]
    # Freed before the record lists, which set this function's peak, are built.
    del heads, serp_of, click_keys, click_order, at, click
    record_rows = rows.tolist()
    records = RecordColumns(
        serp_id=list(map(log.serp_ids.__getitem__, record_rows)),
        doc_id=list(map(log.docs.__getitem__, log.serp_doc[entries].tolist())),
        is_target=np.arange(len(entries)) < len(targets),
        is_clicked=clicked,
        dwell_seconds=dwell,
        usefulness=usefulness,
        rank=cols + 1,
        task_id=list(map(log.task_ids.__getitem__, record_rows)),
        user_id=list(map(log.user_ids.__getitem__, record_rows)),
    )
    logger.info(
        "extracted %d target and %d control records", len(targets), len(entries) - len(targets)
    )
    return records


def _beta_continued_fraction(a: float, b: float, x: float, y: float) -> float:
    """Lentz's continued fraction for the incomplete beta integral, given
    x and y = 1 - x.

    The odd steps take 1 - p*x*d and 1 - p*x/c. For large a and x near 1,
    p, x, d and c are all near 1 and the differences cancel, so for x > 1/2
    they are formed from 1 - p*x = q + p*y, with q = 1 - p in closed form,
    and from the d - 1 and c - 1 that the even step hands over.
    """
    def nonzero(v: float) -> float:
        return v if abs(v) >= 1e-300 else 1e-300

    def odd_step(m: int, d: float, d_less_1: float, c: float, c_less_1: float):
        den = (a + 2 * m) * (a + 2 * m + 1)
        p = (a + m) * (a + b + m) / den
        if x <= 0.5:
            return 1.0 - p * x * d, 1.0 - p * x / c
        one_less_px = (a * (2 * m + 1 - b) + m * (3 * m + 2 - b)) / den + p * y
        return one_less_px * d - d_less_1, (c_less_1 + one_less_px) / c

    d = 1.0 / nonzero(odd_step(0, 1.0, 0.0, 1.0, 0.0)[0])
    c = 1.0
    h = d
    for m in range(1, 301):
        aa = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        t = aa * d
        d = 1.0 / nonzero(1.0 + t)
        c_less_1 = aa / c
        c = nonzero(1.0 + c_less_1)
        h *= d * c
        d, c = odd_step(m, d, -t * d, c, c_less_1)
        d = 1.0 / nonzero(d)
        delta = d * nonzero(c)
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _stirling_tail(z: float) -> float:
    """lgamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), from Stirling's
    series; the truncation error is below 1e-15 for z >= 10."""
    r = 1.0 / (z * z)
    return (
        1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (
            1.0 / 1680.0 - r * (1.0 / 1188.0 - r * 691.0 / 360360.0))))
    ) / z


def _lgamma_shift(z: float, s: float) -> float:
    """lgamma(z + s) - lgamma(z) for z, s > 0.

    For large z both lgamma values are large (about 6e6 at z = 5e5), so
    their difference loses absolute precision in proportion to z. Stirling's
    series gives the difference from log1p and the small tail terms instead.
    """
    if z < 10.0:
        return math.lgamma(z + s) - math.lgamma(z)
    w = z + s
    return (
        (z - 0.5) * math.log1p(s / z) + s * math.log(w) - s
        + _stirling_tail(w) - _stirling_tail(z)
    )


def regularized_incomplete_beta(a: float, b: float, x: float, *, upper: bool = False) -> float:
    """I_x(a, b), the regularized incomplete beta function, for a, b > 0;
    with `upper`, its complement 1 - I_x(a, b).

    The continued fraction yields one of the two directly, and that one
    keeps its relative precision even when it is tiny. The other is one
    minus it; that does not cancel, because the fraction is only used on
    the side of the mean where the tail it yields stays well below 1.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"beta parameters must be positive, got a={a} b={b}")
    if x <= 0.0:
        return 1.0 if upper else 0.0
    if x >= 1.0:
        return 0.0 if upper else 1.0
    big, small = max(a, b), min(a, b)
    ln_front = (
        _lgamma_shift(big, small) - math.lgamma(small)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) for the other.
    if x < (a + 1.0) / (a + b + 2.0):
        lower = front * _beta_continued_fraction(a, b, x, 1.0 - x) / a
        return 1.0 - lower if upper else lower
    tail = front * _beta_continued_fraction(b, a, 1.0 - x, x) / b
    return tail if upper else 1.0 - tail


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    Two equivalent beta forms exist: I_x(df/2, 1/2) with x = df/(df + t^2)
    and 1 - I_y(1/2, df/2) with y = t^2/(df + t^2). Each ratio is only
    accurate while it stays below 1/2, so pick the branch whose argument is
    the small one; otherwise tiny |t| rounds x to 1 and the p-value to 1.

    Both branches keep the p-value's relative precision, down to p-values
    far below 1e-12. For t^2 >= df, I_x(df/2, 1/2) with x <= 1/2 is the
    small tail and comes straight from the continued fraction. For
    t^2 < df, the complement 1 - I_y(1/2, df/2) is taken as the upper tail
    that the continued fraction yields once y is past the mean, never as
    one minus a value near 1. The beta function's prefactor takes
    lgamma(df/2 + 1/2) - lgamma(df/2) from Stirling's series, so the error
    does not grow with df.
    """
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isnan(t):
        raise ValueError("t statistic is NaN")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    t2 = t * t
    if t2 < df:
        return regularized_incomplete_beta(0.5, 0.5 * df, t2 / (df + t2), upper=True)
    return regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t2))


@dataclass(frozen=True, slots=True)
class WelchResult:
    """Welch's unequal-variance t-test for one measure, target minus control."""

    measure: str
    mean_target: float
    mean_control: float
    t: float
    df: float
    p_two_sided: float


def welch_t_test(x: Sequence[float], y: Sequence[float], measure: str = "") -> WelchResult:
    """Welch's t-test of mean(x) - mean(y) with Welch-Satterthwaite df.

    Needs at least two observations per side. Identical constant samples
    give t = 0, p = 1; zero variance with different means gives p = 0.
    """
    n1, n2 = len(x), len(y)
    if n1 < 2 or n2 < 2:
        raise ValueError(f"welch t-test needs >= 2 observations per group, got {n1} and {n2}")
    m1 = math.fsum(x) / n1
    m2 = math.fsum(y) / n2
    v1 = math.fsum((v - m1) ** 2 for v in x) / (n1 - 1)
    v2 = math.fsum((v - m2) ** 2 for v in y) / (n2 - 1)
    se2 = v1 / n1 + v2 / n2
    diff = m1 - m2
    if se2 == 0.0:
        # Both samples constant: the test degenerates.
        t = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        df = float(n1 + n2 - 2)
        p = 1.0 if diff == 0.0 else 0.0
    else:
        t = diff / math.sqrt(se2)
        df = se2 ** 2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
        p = student_t_two_sided_p(t, df)
    return WelchResult(measure, m1, m2, t, df, p)


@dataclass(frozen=True, slots=True)
class GroupStats:
    """Behaviour summary of one record group."""

    group: str
    n: int
    clickthrough: float
    mean_dwell: float
    mean_usefulness: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("record count cannot be negative")
        if self.n and not 0.0 <= self.clickthrough <= 1.0:
            raise ValueError(f"clickthrough {self.clickthrough} outside [0, 1]")


MEASURES = ("clickthrough", "dwell_seconds", "usefulness")


@dataclass(frozen=True, slots=True)
class GroupComparison:
    """Target vs control summary with one Welch test per measure.

    `tests` is empty when either group has fewer than two records; the means
    are still reported.
    """

    target: GroupStats
    control: GroupStats
    tests: tuple[WelchResult, ...]


def _stats(group: str, values: dict[str, list[float]]) -> GroupStats:
    n = len(values["clickthrough"])
    if n == 0:
        return GroupStats(group, 0, 0.0, 0.0, 0.0)
    return GroupStats(
        group=group,
        n=n,
        clickthrough=math.fsum(values["clickthrough"]) / n,
        mean_dwell=math.fsum(values["dwell_seconds"]) / n,
        mean_usefulness=math.fsum(values["usefulness"]) / n,
    )


def group_stats(columns: RecordColumns) -> GroupComparison:
    """Split records by group and compare clickthrough, dwell and usefulness.

    Clickthrough treats each record as a 0/1 observation; dwell and
    usefulness are the zero-filled per-record values.
    """
    samples = {
        group: {
            "clickthrough": columns.is_clicked[mask].astype(np.float64).tolist(),
            "dwell_seconds": columns.dwell_seconds[mask].tolist(),
            "usefulness": columns.usefulness[mask].astype(np.float64).tolist(),
        }
        for group, mask in (("target", columns.is_target), ("control", ~columns.is_target))
    }
    target = _stats("target", samples["target"])
    control = _stats("control", samples["control"])
    if target.n < 2 or control.n < 2:
        logger.warning(
            "skipping t-tests: group sizes %d and %d", target.n, control.n
        )
        return GroupComparison(target, control, ())
    tests = tuple(
        welch_t_test(samples["target"][m], samples["control"][m], measure=m)
        for m in MEASURES
    )
    return GroupComparison(target, control, tests)
