"""Acceptance gate: ten criteria, one test function per criterion, so
`pytest -v` prints exactly one pass/fail line for each.

Every criterion carries its own independently coded oracle inside this
file: published worked examples are frozen as literals, the random suites
compare against brute-force re-implementations, and the operational
guarantees (cutoffs evaluated together match cutoffs evaluated alone,
wall-clock budgets) are measured directly.
"""

import math
import random
import time
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy import stats

from decoyeval import cli
from decoyeval.decoy import (
    SerpPairRecord,
    detect_decoy_pairs,
    detect_decoy_pairs_at_k,
    identify_controls,
    identify_targets,
)
from decoyeval.ingest import (
    parse_interaction_log,
    parse_pair_sims,
    parse_qrels,
    parse_run,
)
from decoyeval.logmine import (
    derive_thresholds,
    extract_records,
    group_stats,
    log_doc_universe,
)
from decoyeval.metrics import (
    KNOWN_METRICS,
    MetricConfig,
    dejavu,
    dejavu_at_k,
    err_at_k,
    err_grade_map,
    evaluate_run,
    linear_combination,
    ndcg_at_k,
    rbp_at_k,
    recall_at_k,
)
from decoyeval.model import DecoyConfig, DecoyPair, MinGradeGap, PairStore, Ranking
from decoyeval.simsig import percentile_threshold

from conftest import LOG_CLICKS, LOG_EXPECTED, record_rows, write_corpus, write_planted_log


def ranking_of(doc_ids):
    return Ranking(tuple(doc_ids))


def matrix_for(doc_ids, table, topic="t"):
    """The topic view of a PairStore listing every pair of `doc_ids`, from a
    {frozenset(pair): sim} dict; unlisted pairs 0."""
    return PairStore({(topic, a, b): table.get(frozenset((a, b)), 0.0)
                      for i, a in enumerate(doc_ids) for b in doc_ids[i + 1:]}).topic_view(topic)


def full_random_table(rng, docs):
    return {
        frozenset((a, docs[j])): rng.random()
        for i, a in enumerate(docs)
        for j in range(i + 1, len(docs))
    }


# --- brute-force oracles, coded from the definitions ------------------------

def oracle_detect(docs, grades, table, dedup, s_min=0.6, s_max=0.95, window=5):
    """All (target, decoy, sim) triples by exhaustive scan over ordered
    pairs: target grade >= 2, decoy grade <= 1, |rank gap| <= window,
    s_min <= sim < s_max; dedup keeps the most similar decoy per target,
    ties to the lexicographically smaller decoy id."""
    rank = {doc: i + 1 for i, doc in enumerate(docs)}
    found = []
    for t in docs:
        if grades.get(t, 0) < 2:
            continue
        for d in docs:
            if d == t or grades.get(d, 0) > 1:
                continue
            if abs(rank[t] - rank[d]) > window:
                continue
            s = table[frozenset((t, d))]
            if s_min <= s < s_max:
                found.append((t, d, s))
    if not dedup:
        return found
    best = {}
    for t, d, s in found:
        cur = best.get(t)
        if cur is None or s > cur[1] or (s == cur[1] and d < cur[0]):
            best[t] = (d, s)
    return [(t, d, s) for t, (d, s) in best.items()]


def oracle_ndcg(docs, grades, k, g_max=3):
    dcg = sum(
        (2 ** grades.get(doc, 0) - 1) / math.log2(i + 2)
        for i, doc in enumerate(docs[:k])
    )
    ideal = sorted(grades.values(), reverse=True)[:k]
    idcg = sum((2 ** g - 1) / math.log2(i + 2) for i, g in enumerate(ideal))
    return dcg / idcg if idcg > 0 else 0.0


def oracle_recall(docs, grades, k):
    total = sum(1 for g in grades.values() if g >= 2)
    if total == 0:
        return 0.0
    return sum(1 for doc in docs[:k] if grades.get(doc, 0) >= 2) / total


def oracle_rbp(docs, grades, k, phi=0.8, g_max=3):
    return (1 - phi) * sum(
        (grades.get(doc, 0) / g_max) * phi ** i for i, doc in enumerate(docs[:k])
    )


def oracle_err(docs, grades, k, g_max=3):
    total, reach = 0.0, 1.0
    for i, doc in enumerate(docs[:k], start=1):
        r = (2 ** grades.get(doc, 0) - 1) / 2 ** g_max
        total += reach * r / i
        reach *= 1 - r
    return total


def random_instance(rng, max_docs=30):
    n = rng.randint(2, max_docs)
    docs = [f"d{i:03d}" for i in range(n)]
    grades = {doc: rng.randint(0, 3) for doc in docs if rng.random() < 0.7}
    for j in range(rng.randint(0, 5)):
        grades[f"x{j}"] = rng.randint(0, 3)  # judged but never retrieved
    return docs, grades, full_random_table(rng, docs)


# --- the ten criteria --------------------------------------------------------

def test_criterion_01_dejavu_worked_example():
    """Four five-doc SERPs with (d, r) = (2,2), (2,3), (1,2), (0,0) score
    0, 0.632, 0.632, 0; the 0.632 entries equal 1 - e^-1 to 1e-12; scoring
    all four takes under a millisecond."""
    base = {frozenset(p): 0.2 for p in
            [("A", "B"), ("A", "C"), ("A", "D"), ("A", "E"), ("B", "C"),
             ("B", "D"), ("B", "E"), ("C", "D"), ("C", "E"), ("D", "E")]}
    docs = ["A", "B", "C", "D", "E"]

    def serp(grades, decoy_sims):
        table = dict(base)
        table.update({frozenset(p): s for p, s in decoy_sims.items()})
        return ranking_of(docs), grades, matrix_for(docs, table)

    serps = [
        serp({"A": 3, "B": 0, "C": 2, "D": 0, "E": 1},
             {("A", "B"): 0.9, ("C", "D"): 0.8}),
        serp({"A": 3, "B": 0, "C": 2, "D": 0, "E": 2},
             {("A", "B"): 0.9, ("C", "D"): 0.8}),
        serp({"A": 3, "B": 1, "C": 2, "D": 1, "E": 0},
             {("A", "B"): 0.9}),
        serp({"A": 1, "B": 0, "C": 1, "D": 0, "E": 0}, {}),
    ]
    cfg = DecoyConfig()

    def score_all():
        return [dejavu_at_k("t", r, g, s, cfg, 5) for r, g, s in serps]

    outcomes = score_all()
    assert [(o.decoy_pairs, o.highly_relevant) for o in outcomes] == [
        (2, 2), (2, 3), (1, 2), (0, 0)
    ]
    scores = [o.score for o in outcomes]
    for got, published in zip(scores, (0.0, 0.632, 0.632, 0.0)):
        assert got == pytest.approx(published, abs=5e-4)
    assert scores[0] == 0.0 and scores[3] == 0.0
    assert scores[1] == pytest.approx(-math.expm1(-1.0), abs=1e-12)
    assert scores[2] == pytest.approx(-math.expm1(-1.0), abs=1e-12)

    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        score_all()
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"scoring the four SERPs took {best * 1e3:.3f} ms"


def test_criterion_02_lc_reproduction():
    """The published LC values 0.847 and 0.840 within 5e-4.

    0.5*0.948 + 0.5*0.731 is exactly 0.8395, so its distance to the rounded
    0.840 equals the tolerance itself; one float ulp of slack on top keeps
    the boundary case honest. The exact halves are pinned at 1e-12.
    """
    assert linear_combination(0.974, 0.720, 0.5) == pytest.approx(0.847, abs=5e-4)
    assert linear_combination(0.948, 0.731, 0.5) == pytest.approx(0.840, abs=5e-4 + 1e-12)
    assert linear_combination(0.974, 0.720, 0.5) == pytest.approx(0.847, abs=1e-12)
    assert linear_combination(0.948, 0.731, 0.5) == pytest.approx(0.8395, abs=1e-12)


def test_criterion_03_err_grade_map():
    """g_max = 3 maps grades (0, 1, 2, 3) to exactly (0, 1/8, 3/8, 7/8)."""
    got = tuple(err_grade_map(g, 3) for g in range(4))
    assert got == (0.0, 1 / 8, 3 / 8, 7 / 8)


def test_criterion_04_dedup_worked_example():
    """The four-doc reconstruction keeps exactly the two most-similar pairs
    under dedup and all four admissible pairs without it."""
    docs = ["1034183", "1220759", "1414114", "1333480"]
    grades = {"1034183": 3, "1220759": 1, "1414114": 2, "1333480": 0}
    table = {
        frozenset(("1034183", "1220759")): 0.93,
        frozenset(("1034183", "1333480")): 0.88,
        frozenset(("1414114", "1333480")): 0.92,
        frozenset(("1414114", "1220759")): 0.85,
        frozenset(("1034183", "1414114")): 0.30,
        frozenset(("1220759", "1333480")): 0.40,
    }
    ranking = ranking_of(docs)
    sims = matrix_for(docs, table)
    cfg = DecoyConfig()

    deduped = detect_decoy_pairs("t", ranking, grades, sims, cfg, dedup=True)
    assert [(p.target_doc, p.decoy_doc) for p in deduped] == [
        ("1034183", "1220759"), ("1414114", "1333480"),
    ]
    all_pairs = detect_decoy_pairs("t", ranking, grades, sims, cfg, dedup=False)
    assert len(all_pairs) == 4
    assert {(p.target_doc, p.decoy_doc) for p in all_pairs} == {
        ("1034183", "1220759"), ("1034183", "1333480"),
        ("1414114", "1333480"), ("1414114", "1220759"),
    }


def test_criterion_05_oracle_equivalence():
    """500 random instances of up to 30 docs: detection matches the
    exhaustive oracle exactly, the five scores match brute-force
    re-implementations to 1e-9, all inside 10 seconds."""
    rng = random.Random(501)
    cfg = DecoyConfig()
    t0 = time.perf_counter()
    for trial in range(500):
        docs, grades, table = random_instance(rng)
        ranking = ranking_of(docs)
        sims = matrix_for(docs, table)
        k = rng.randint(1, len(docs) + 3)

        for dedup in (True, False):
            got = detect_decoy_pairs("t", ranking, grades, sims, cfg, dedup=dedup)
            want = oracle_detect(docs, grades, table, dedup)
            assert {(p.target_doc, p.decoy_doc, p.similarity) for p in got} \
                == set(want), (trial, dedup)
            assert len(got) == len(want)

        outcome = dejavu_at_k("t", ranking, grades, sims, cfg, k)
        d = len(oracle_detect(docs[:k], grades, table, dedup=True))
        r = sum(1 for doc in docs[:k] if grades.get(doc, 0) >= 2)
        assert (outcome.decoy_pairs, outcome.highly_relevant) == (d, r), trial
        assert outcome.score == pytest.approx(1.0 - math.exp(d - r), abs=1e-9)

        assert ndcg_at_k(ranking, grades, k) == pytest.approx(
            oracle_ndcg(docs, grades, k), abs=1e-9), trial
        assert recall_at_k(ranking, grades, k) == pytest.approx(
            oracle_recall(docs, grades, k), abs=1e-9), trial
        assert rbp_at_k(ranking, grades, k) == pytest.approx(
            oracle_rbp(docs, grades, k), abs=1e-9), trial
        assert err_at_k(ranking, grades, k) == pytest.approx(
            oracle_err(docs, grades, k), abs=1e-9), trial
    assert time.perf_counter() - t0 < 10.0


def test_criterion_06_monotonicity():
    """Cutoff growth never loses decoy pairs or recall on 200 random
    instances; dejavu is monotone over the whole 0 <= d <= r <= 50 grid,
    strictly so in exact arithmetic, and always inside [0, 1)."""
    rng = random.Random(601)
    cfg = DecoyConfig()
    ks = list(range(5, 51, 5))
    for _ in range(200):
        docs, grades, table = random_instance(rng, max_docs=60)
        ranking = ranking_of(docs)
        sims = matrix_for(docs, table)
        counts = [
            len(detect_decoy_pairs_at_k("t", ranking, grades, sims, cfg, k))
            for k in ks
        ]
        recalls = [recall_at_k(ranking, grades, k) for k in ks]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))

    # The closed form 1 - exp(d - r) saturates in float64 once r - d
    # reaches ~37, so strictness is witnessed in 50-digit arithmetic. The
    # float implementation is held to the best double inside [0, 1): the
    # correctly rounded value, pulled below 1 when rounding reaches it.
    getcontext().prec = 50
    max_below_one = math.nextafter(1.0, 0.0)
    exact = {}
    rounded = {}
    for r in range(51):
        for d in range(r + 1):
            v = dejavu(d, r)
            true = 1 - Decimal(d - r).exp()
            exact[(d, r)] = true
            rounded[(d, r)] = min(float(true), max_below_one)
            assert 0.0 <= v < 1.0, (d, r)
            assert v == pytest.approx(rounded[(d, r)], abs=1.2e-16), (d, r)
    for r in range(51):
        for d in range(r):
            assert exact[(d + 1, r)] < exact[(d, r)]
            assert dejavu(d + 1, r) <= dejavu(d, r)
            if rounded[(d + 1, r)] != rounded[(d, r)]:
                assert dejavu(d + 1, r) < dejavu(d, r)
    for d in range(50):
        for r in range(d, 50):
            assert exact[(d, r + 1)] > exact[(d, r)]
            assert dejavu(d, r + 1) >= dejavu(d, r)
            if rounded[(d, r + 1)] != rounded[(d, r)]:
                assert dejavu(d, r + 1) > dejavu(d, r)


def test_criterion_07_cutoffs_are_independent(tmp_path):
    """eval on a 100-topic x 1000-doc run at cutoffs 10,20 writes exactly the
    bytes of the --cutoffs 10 run followed by the body of the --cutoffs 20
    run: evaluating several cutoffs at once changes no row."""
    paths = write_corpus(tmp_path / "corpus", n_topics=100, n_docs=1000)
    metrics = "dejavu,ndcg,recall,rbp,err,lc/ndcg,lc/rbp,lc/err"
    blobs = {}
    for cutoffs in ("10,20", "10", "20"):
        out = tmp_path / f"scores_{cutoffs.replace(',', '_')}.tsv"
        rc = cli.main([
            "eval", "--run", str(paths.run), "--qrels", str(paths.qrels),
            "--pair-sims", str(paths.pairs), "--cutoffs", cutoffs,
            "--metrics", metrics, "--out", str(out),
        ])
        assert rc == 0
        blobs[cutoffs] = out.read_bytes().splitlines(keepends=True)
    header, at_10, at_20 = blobs["10"][0], blobs["10"][1:], blobs["20"][1:]
    assert blobs["20"][0] == header
    assert blobs["10,20"] == [header] + at_10 + at_20
    assert len(blobs["10,20"]) == 1 + 2 * 101  # header + 2 cutoffs x (100 + all)


def test_criterion_08_performance(tmp_path):
    """Parsing plus evaluating a 1000-topic x 1000-line run with every
    metric at cutoffs 10, 20, 100 stays under 10 seconds."""
    paths = write_corpus(tmp_path / "corpus", n_topics=1000, n_docs=1000)
    t0 = time.perf_counter()
    run = parse_run(paths.run)
    qrels = parse_qrels(paths.qrels, g_max=3)
    source = parse_pair_sims(paths.pairs)
    evaluations = evaluate_run(
        run, qrels, source, DecoyConfig(), MetricConfig(),
        list(KNOWN_METRICS), [10, 20, 100],
    )
    elapsed = time.perf_counter() - t0
    assert [e.k for e in evaluations] == [10, 20, 100]
    assert all(len(e.topics) == 1000 for e in evaluations)
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_09_logmine(tmp_path):
    """On the planted log: exactly one record per (SERP, matched target)
    and per (SERP, displayed control), zero-fill on every unclicked
    record, and Welch t/df/p agreeing with scipy to 1e-9."""
    paths = write_planted_log(tmp_path / "planted")
    log = parse_interaction_log(paths.log)
    qrels = parse_qrels(paths.qrels, g_max=4)
    source = parse_pair_sims(paths.pairs)

    universe = log_doc_universe(log)
    thr = derive_thresholds(universe, source)
    cfg = DecoyConfig(s_min=thr.s_min, s_max=0.95, quality=MinGradeGap(2),
                      delta_rank=5, s_max_inclusive=True)
    pair_records, targets = identify_targets(log, qrels, source, cfg)
    controls, matched = identify_controls(universe, qrels, targets, source, thr.s_control)
    records = extract_records(log, pair_records, matched, controls)
    rows = record_rows(records)

    target_keys = [(r.serp_id, r.doc_id) for r in rows if r.group == "target"]
    control_keys = [(r.serp_id, r.doc_id) for r in rows if r.group == "control"]
    assert len(set(target_keys)) == len(target_keys)
    assert len(set(control_keys)) == len(control_keys)
    assert target_keys == [(s, d) for s, d, _ in LOG_EXPECTED.target_records]
    assert control_keys == [(s, d) for s, d, _ in LOG_EXPECTED.control_records]

    # A second decoy for an already-recorded (SERP, target) must not add a
    # second record.
    extra = SerpPairRecord("s1", DecoyPair(
        topic_id="t1", target_doc="A", decoy_doc="H", similarity=0.9,
        target_rank=1, decoy_rank=5, target_grade=4, decoy_grade=0,
    ))
    again = extract_records(log, list(pair_records) + [extra], matched, controls)
    assert len(again) == len(records)

    for rec in rows:
        if not rec.is_clicked:
            assert rec.dwell_seconds == 0.0
            assert rec.usefulness == 0
        clicked = rec.doc_id in LOG_CLICKS[rec.serp_id]
        assert rec.is_clicked == clicked

    comparison = group_stats(records)
    samples = {
        "clickthrough": (LOG_EXPECTED.target_samples.clicked,
                         LOG_EXPECTED.control_samples.clicked),
        "dwell_seconds": (LOG_EXPECTED.target_samples.dwell,
                          LOG_EXPECTED.control_samples.dwell),
        "usefulness": (LOG_EXPECTED.target_samples.usefulness,
                       LOG_EXPECTED.control_samples.usefulness),
    }
    assert len(comparison.tests) == 3
    for test in comparison.tests:
        x, y = samples[test.measure]
        ref = stats.ttest_ind(x, y, equal_var=False)
        assert test.t == pytest.approx(ref.statistic, abs=1e-9), test.measure
        assert test.df == pytest.approx(ref.df, abs=1e-9), test.measure
        assert test.p_two_sided == pytest.approx(ref.pvalue, abs=1e-9), test.measure


def test_criterion_10_percentile_oracle():
    """percentile_threshold matches a hand-coded linear-interpolation
    oracle (and numpy) on 100 random value sets, always including the
    99th and 99.5th percentiles."""
    rng = random.Random(1001)

    def oracle(vals, p):
        v = sorted(vals)
        h = (len(v) - 1) * p / 100.0
        lo = math.floor(h)
        if lo + 1 >= len(v):
            return v[-1]
        return v[lo] + (h - lo) * (v[lo + 1] - v[lo])

    for trial in range(100):
        n = rng.randint(1, 500)
        vals = [rng.uniform(-10, 10) for _ in range(n)]
        rng.shuffle(vals)
        for p in (99.0, 99.5, rng.uniform(0.5, 99.5)):
            got = percentile_threshold(vals, p)
            assert got == pytest.approx(oracle(vals, p), abs=1e-12, rel=1e-12), (trial, p)
            assert got == pytest.approx(float(np.percentile(vals, p)), rel=1e-9, abs=1e-9), (trial, p)
