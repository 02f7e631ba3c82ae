"""Decoy detection against an O(n^2) brute-force oracle, plus the published
two-target/two-decoy dedup example and target/control identification."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoyeval.decoy import (
    SerpPairRecord,
    detect_decoy_pairs,
    detect_decoy_pairs_at_k,
    identify_controls,
    identify_targets,
)
from decoyeval.ingest import parse_interaction_log, parse_pair_sims, parse_qrels
from decoyeval.model import (
    CoverageError,
    DecoyConfig,
    DecoyPair,
    GradeBand,
    MinGradeGap,
    PairStore,
    Qrels,
    Ranking,
    VectorStore,
)

from conftest import LOG_EXPECTED, LOG_GRADES, LOG_TOP_SIM, log_of, planted_pair_sims


def ranking_of(doc_ids):
    return Ranking(tuple(doc_ids))


def pair_table(doc_ids, sims, topic="t"):
    """Every pair of `doc_ids` in `topic`, as PairStore's (topic, doc_a,
    doc_b) -> sim mapping, with the sims of a {frozenset(pair): sim} dict;
    unlisted pairs default to 0."""
    return {(topic, a, b): sims.get(frozenset((a, b)), 0.0)
            for i, a in enumerate(doc_ids) for b in doc_ids[i + 1:]}


def matrix_for(doc_ids, sims, topic="t"):
    """The topic view of a PairStore that lists every pair of `doc_ids`, with
    the sims of a {frozenset(pair): sim} dict; unlisted pairs default to 0."""
    return PairStore(pair_table(doc_ids, sims, topic)).topic_view(topic)


def oracle_detect(doc_ids, grades, sim_of, cfg, dedup):
    """Independent detection: scan all ordered pairs, then dedup by max
    similarity with ascending-doc-id tie break."""
    found = []
    for i, t in enumerate(doc_ids):
        for j, d in enumerate(doc_ids):
            if i == j or abs(i - j) > cfg.delta_rank:
                continue
            if not cfg.quality.admits(grades.get(t, 0), grades.get(d, 0)):
                continue
            s = sim_of(t, d)
            upper_ok = s <= cfg.s_max if cfg.s_max_inclusive else s < cfg.s_max
            if cfg.s_min <= s and upper_ok:
                found.append((t, d, s))
    if dedup:
        per_target = {}
        for t, d, s in found:
            per_target.setdefault(t, []).append((d, s))
        found = []
        for t, options in per_target.items():
            best_sim = max(s for _, s in options)
            best_doc = min(d for d, s in options if s == best_sim)
            found.append((t, best_doc, best_sim))
    return sorted(found)


class TestSharedDecoyDedup:
    """Two targets sharing two candidate decoys: four potential pairs, two
    after keeping each target's most similar decoy."""

    DOCS = ["1034183", "1220759", "1414114", "1333480"]
    GRADES = {"1034183": 3, "1220759": 1, "1414114": 2, "1333480": 0}
    SIMS = {
        frozenset(("1034183", "1220759")): 0.93,
        frozenset(("1034183", "1333480")): 0.88,
        frozenset(("1414114", "1333480")): 0.92,
        frozenset(("1414114", "1220759")): 0.85,
        frozenset(("1034183", "1414114")): 0.30,
        frozenset(("1220759", "1333480")): 0.40,
    }

    def setup_method(self):
        self.ranking = ranking_of(self.DOCS)
        self.matrix = matrix_for(self.DOCS, self.SIMS)
        self.cfg = DecoyConfig(quality=GradeBand(target_min=2, decoy_max=1))

    def test_without_dedup_four_pairs(self):
        pairs = detect_decoy_pairs("t", self.ranking, self.GRADES, self.matrix,
                                   self.cfg, dedup=False)
        assert len(pairs) == 4
        assert {(p.target_doc, p.decoy_doc) for p in pairs} == {
            ("1034183", "1220759"), ("1034183", "1333480"),
            ("1414114", "1220759"), ("1414114", "1333480"),
        }

    def test_with_dedup_two_pairs(self):
        pairs = detect_decoy_pairs("t", self.ranking, self.GRADES, self.matrix,
                                   self.cfg, dedup=True)
        assert [(p.target_doc, p.decoy_doc) for p in pairs] == [
            ("1034183", "1220759"), ("1414114", "1333480"),
        ]


class TestDetectionRules:
    def test_rank_window_excludes_distant_pair(self):
        docs = [f"d{i}" for i in range(8)]
        grades = {"d0": 3, "d6": 0, "d4": 0}
        sims = {frozenset(("d0", "d6")): 0.9, frozenset(("d0", "d4")): 0.9}
        cfg = DecoyConfig(delta_rank=5)
        pairs = detect_decoy_pairs("t", ranking_of(docs), grades,
                                   matrix_for(docs, sims), cfg, dedup=False)
        # d0->d6 is 6 ranks away, d0->d4 only 4
        assert [(p.target_doc, p.decoy_doc) for p in pairs] == [("d0", "d4")]

    def test_band_boundaries_run_regime(self):
        docs = ["a", "b", "c"]
        grades = {"a": 3}
        cfg = DecoyConfig(s_min=0.6, s_max=0.95)
        at_upper = matrix_for(docs, {frozenset(("a", "b")): 0.95})
        assert detect_decoy_pairs("t", ranking_of(docs), grades, at_upper, cfg) == []
        at_lower = matrix_for(docs, {frozenset(("a", "b")): 0.6})
        found = detect_decoy_pairs("t", ranking_of(docs), grades, at_lower, cfg)
        assert [(p.target_doc, p.decoy_doc) for p in found] == [("a", "b")]

    def test_band_upper_inclusive_regime(self):
        docs = ["a", "b"]
        grades = {"a": 3}
        cfg = DecoyConfig(s_min=0.6, s_max=0.95, s_max_inclusive=True,
                          quality=MinGradeGap(2))
        m = matrix_for(docs, {frozenset(("a", "b")): 0.95})
        assert len(detect_decoy_pairs("t", ranking_of(docs), grades, m, cfg)) == 1

    def test_dedup_similarity_tie_breaks_by_doc_id(self):
        docs = ["tgt", "zz", "aa"]
        grades = {"tgt": 3}
        sims = {frozenset(("tgt", "zz")): 0.9, frozenset(("tgt", "aa")): 0.9}
        pairs = detect_decoy_pairs("t", ranking_of(docs), grades,
                                   matrix_for(docs, sims), DecoyConfig(), dedup=True)
        assert [(p.target_doc, p.decoy_doc) for p in pairs] == [("tgt", "aa")]

    def test_pair_fields_populated(self):
        docs = ["a", "b"]
        grades = {"a": 2, "b": 1}
        m = matrix_for(docs, {frozenset(("a", "b")): 0.7})
        pair = detect_decoy_pairs("topicX", ranking_of(docs), grades, m, DecoyConfig())[0]
        assert pair.topic_id == "topicX"
        assert (pair.target_rank, pair.decoy_rank) == (1, 2)
        assert (pair.target_grade, pair.decoy_grade) == (2, 1)
        assert pair.similarity == 0.7

    def test_missing_similarity_coverage_raises(self):
        docs = ["a", "b"]
        grades = {"a": 3, "b": 0}
        store = PairStore({})  # no pairs at all
        with pytest.raises(CoverageError):
            detect_decoy_pairs("t", ranking_of(docs), grades,
                               store.topic_view("t"), DecoyConfig())

    def test_missing_doc_named_once(self):
        # "m" is the decoy of all three targets; its vector is the only one absent
        docs = ["t1", "t2", "m", "t3"]
        grades = {"t1": 2, "t2": 2, "m": 0, "t3": 2}
        store = VectorStore({d: np.array([1.0, 0.0]) for d in docs if d != "m"})
        with pytest.raises(CoverageError) as exc:
            detect_decoy_pairs("t", ranking_of(docs), grades, store, DecoyConfig())
        assert exc.value.missing == ["m"]

    def test_quality_gate_skips_similarity_lookup(self):
        # both docs grade 0: the pair is never admitted, so the empty pair
        # store must not be consulted
        docs = ["a", "b"]
        store = PairStore({})
        pairs = detect_decoy_pairs("t", ranking_of(docs), {}, store.topic_view("t"),
                                   DecoyConfig())
        assert pairs == []

    def test_at_k_equals_truncated_detection(self):
        rng = random.Random(31)
        docs = [f"d{i}" for i in range(20)]
        grades = {d: rng.choice((0, 1, 2, 3)) for d in docs}
        sims = {}
        for i, a in enumerate(docs):
            for b in docs[i + 1:]:
                sims[frozenset((a, b))] = rng.random()
        m = matrix_for(docs, sims)
        cfg = DecoyConfig()
        for k in (1, 3, 7, 20, 50):
            direct = detect_decoy_pairs("t", ranking_of(docs[:k]), grades, m, cfg)
            at_k = detect_decoy_pairs_at_k("t", ranking_of(docs), grades, m, cfg, k)
            assert at_k == direct

    def test_at_k_requires_positive_k(self):
        with pytest.raises(ValueError):
            detect_decoy_pairs_at_k("t", Ranking(), {}, None, DecoyConfig(), 0)


class TestOracleEquivalence:
    def random_instance(self, rng):
        n = rng.randint(1, 30)
        docs = [f"d{i:02d}" for i in range(n)]
        grades = {d: rng.choice((0, 0, 1, 2, 3)) for d in docs}
        sims = {}
        for i, a in enumerate(docs):
            for b in docs[i + 1:]:
                sims[frozenset((a, b))] = round(rng.random(), 6)
        return docs, grades, sims

    @pytest.mark.parametrize("dedup", [False, True])
    @pytest.mark.parametrize("quality", [GradeBand(2, 1), MinGradeGap(2)])
    def test_matches_brute_force(self, dedup, quality):
        rng = random.Random(777 + dedup)
        cfg = DecoyConfig(quality=quality)
        for _ in range(100):
            docs, grades, sims = self.random_instance(rng)
            m = matrix_for(docs, sims)
            got = detect_decoy_pairs("t", ranking_of(docs), grades, m, cfg, dedup=dedup)
            expected = oracle_detect(
                docs, grades, lambda a, b: sims[frozenset((a, b))], cfg, dedup)
            assert sorted((p.target_doc, p.decoy_doc, p.similarity) for p in got) == expected

    def test_pair_count_non_decreasing_in_k(self):
        rng = random.Random(99)
        cfg = DecoyConfig()
        for _ in range(30):
            docs, grades, sims = self.random_instance(rng)
            m = matrix_for(docs, sims)
            ranking = ranking_of(docs)
            for dedup in (False, True):
                counts = [
                    len(detect_decoy_pairs_at_k("t", ranking, grades, m, cfg, k, dedup=dedup))
                    for k in range(1, len(docs) + 1)
                ]
                assert counts == sorted(counts)


def brute_force_lookups(doc_ids, grades, cfg):
    """The similarity lookups detection must make: every pair at most
    delta_rank apart that the quality rule admits in either direction, as
    (higher-ranked doc, lower-ranked doc), in rank order of the pair."""
    calls = []
    for i, a in enumerate(doc_ids):
        for j, b in enumerate(doc_ids):
            if i < j <= i + cfg.delta_rank:
                ga, gb = grades.get(a, 0), grades.get(b, 0)
                if cfg.quality.admits(ga, gb) or cfg.quality.admits(gb, ga):
                    calls.append((a, b))
    return calls


class RecordingSims:
    """A topic-scoped similarity source that records every sim() call."""

    def __init__(self, table):
        self.table = table
        self.calls = []

    def sim(self, doc_a, doc_b):
        self.calls.append((doc_a, doc_b))
        return self.table[frozenset((doc_a, doc_b))]


@st.composite
def detection_instances(draw):
    """Doc ids, a partial grading, a similarity for every pair (drawn from
    values on and around the band edges) and a detection config."""
    n = draw(st.integers(0, 30))
    docs = [f"d{i:02d}" for i in range(n)]
    graded = draw(st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=n, max_size=n))
    grades = {d: g for d, g in zip(docs, graded) if g is not None}
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = {frozenset((a, b)): rng.choice((0.0, 0.3, 0.6, 0.75, 0.9, 0.95, 1.0))
             for i, a in enumerate(docs) for b in docs[i + 1:]}
    quality = draw(st.sampled_from((GradeBand(2, 1), GradeBand(3, 0), GradeBand(1, 0),
                                    MinGradeGap(1), MinGradeGap(2), MinGradeGap(3))))
    cfg = DecoyConfig(quality=quality, delta_rank=draw(st.integers(1, 6)))
    return docs, grades, table, cfg


class TestLookupOracle:
    """Detection visits only possible targets' windows, yet must fetch
    exactly the similarities an all-pairs scan in rank order would."""

    @given(detection_instances(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_lookups_and_pairs_match_brute_force(self, instance, dedup):
        docs, grades, table, cfg = instance
        sims = RecordingSims(table)
        got = detect_decoy_pairs("t", ranking_of(docs), grades, sims, cfg, dedup=dedup)
        assert sims.calls == brute_force_lookups(docs, grades, cfg)
        expected = oracle_detect(docs, grades, lambda a, b: table[frozenset((a, b))],
                                 cfg, dedup)
        assert sorted((p.target_doc, p.decoy_doc, p.similarity) for p in got) == expected
        ranks = [(p.target_rank, p.decoy_rank) for p in got]
        assert ranks == sorted(ranks)

    @given(detection_instances(), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_partial_pair_store_lists_missing_keys_in_lookup_order(self, instance, seed):
        docs, grades, table, cfg = instance
        rng = random.Random(seed)
        absent = {key for key in table if rng.random() < 0.2}
        store = PairStore({("t", *sorted(key)): s for key, s in table.items()
                           if key not in absent})
        expected = [("t", a, b) for a, b in brute_force_lookups(docs, grades, cfg)
                    if frozenset((a, b)) in absent]
        if not expected:
            detect_decoy_pairs("t", ranking_of(docs), grades, store.topic_view("t"), cfg)
            return
        with pytest.raises(CoverageError) as exc:
            detect_decoy_pairs("t", ranking_of(docs), grades, store.topic_view("t"), cfg)
        assert exc.value.missing == expected
        # The message names the first ten, in the same order.
        assert str(exc.value) == (
            f"similarity coverage incomplete for topic t: {len(expected)} key(s) missing: "
            + ", ".join(f"({a}, {b})" for _, a, b in expected[:10]))


def scalar_detect(topic_id, ranking, grades, sims, cfg):
    """Scalar reference detector for one ranked list: a Python scan of each
    possible target's rank window, one lookup per admitted pair in rank
    order of the pair, no dedup."""
    docs = ranking.doc_ids
    grade = [grades.get(d, 0) for d in docs]
    admitted = []  # (lo idx, hi idx, target idx)
    for ti, gt in enumerate(grade):
        if gt < cfg.quality.min_target_grade:
            continue
        for j in range(max(ti - cfg.delta_rank, 0), min(ti + cfg.delta_rank + 1, len(docs))):
            if j != ti and cfg.quality.admits(gt, grade[j]):
                admitted.append((j, ti, ti) if j < ti else (ti, j, ti))
    admitted.sort()
    candidates, missing = [], []
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
        named = ", ".join(k if isinstance(k, str) else f"({k[1]}, {k[2]})" for k in seen[:10])
        raise CoverageError(
            f"similarity coverage incomplete for topic {topic_id}: {len(seen)} key(s) "
            f"missing: {named}",
            seen,
        )
    return [
        DecoyPair(topic_id, docs[ti], docs[di], s, ti + 1, di + 1, grade[ti], grade[di])
        for ti, di, s in sorted(candidates, key=lambda c: c[:2])
    ]


def serp_record(serp_id, topic_id, docs):
    """A log record showing `docs` at ranks 1, 2, ..., with no clicks."""
    return {"serp_id": serp_id, "session_id": "x", "user_id": "u", "task_id": "k",
            "topic_id": topic_id, "serp": [{"doc_id": d, "rank": r} for r, d in enumerate(docs, 1)],
            "clicks": []}


def per_serp_identify_targets(records, qrels, source, cfg, top_n):
    """identify_targets as one scalar detection per SERP of the log
    `records` (as log_of takes them), in log order."""
    pair_records = []
    for rec in records:
        topic_id = rec["topic_id"]
        serp = ranking_of([entry["doc_id"] for entry in rec["serp"]])
        for pair in scalar_detect(topic_id, serp.head(top_n), qrels.grades_for(topic_id),
                                  source.topic_view(topic_id), cfg):
            pair_records.append(SerpPairRecord(rec["serp_id"], pair))
    return pair_records, {r.pair.target_doc for r in pair_records}


class RecordingSource:
    """Hands out topic views that record every sim() call, per topic."""

    def __init__(self, source):
        self.source = source
        self.calls = {}

    def topic_view(self, topic_id):
        return RecordingView(self.source.topic_view(topic_id),
                             self.calls.setdefault(topic_id, []))


class RecordingView:
    def __init__(self, view, calls):
        self.view, self.calls = view, calls

    def sim(self, doc_a, doc_b):
        self.calls.append((doc_a, doc_b))
        return self.view.sim(doc_a, doc_b)


SIM_LEVELS = (0.0, 0.3, 0.6, 0.75, 0.9, 0.95, 1.0)


@st.composite
def mining_instances(draw):
    """A random log over interleaved topics, some unjudged, with SERPs
    shorter and longer than top_n (empty ones too), a detection config under
    either quality rule, and a similarity source: a full or partial
    PairStore, or a VectorStore that may lack some docs."""
    n_topics = draw(st.integers(1, 3))
    topics = [f"t{i}" for i in range(n_topics)]
    pool = [f"d{i}" for i in range(draw(st.integers(1, 9)))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    records = [serp_record(f"s{i}", rng.choice(topics), rng.sample(pool, rng.randint(0, len(pool))))
               for i in range(draw(st.integers(0, 14)))]
    judged = topics[:draw(st.integers(0, n_topics))]
    qrels = Qrels(4, {t: {d: rng.choice((0, 0, 1, 2, 3, 4)) for d in pool
                          if rng.random() < 0.8} for t in judged})
    quality = draw(st.sampled_from((GradeBand(2, 1), GradeBand(3, 0), MinGradeGap(1),
                                    MinGradeGap(2))))
    s_min = draw(st.sampled_from((0.0, 0.6, 0.75)))
    cfg = DecoyConfig(s_min=s_min, s_max=draw(st.sampled_from((0.95, 1.0))),
                      quality=quality, delta_rank=draw(st.integers(1, 4)),
                      s_max_inclusive=draw(st.booleans()))
    kind = draw(st.sampled_from(("pairs", "vectors")))
    absent = draw(st.sampled_from((0.0, 0.1, 0.3)))  # share of docs or pairs left out
    if kind == "vectors":
        kept = [d for d in pool if rng.random() >= absent] or pool[:1]
        source = VectorStore({d: np.array([rng.randint(1, 3), rng.randint(0, 3)], float)
                              for d in kept})
    else:
        source = PairStore({
            (t, a, b): rng.choice(SIM_LEVELS)
            for t in topics for i, a in enumerate(pool) for b in pool[i + 1:]
            if rng.random() >= absent
        })
    return records, qrels, source, cfg, draw(st.integers(1, 7))


class TestIdentifyTargetsOracle:
    """identify_targets runs one array pass per topic; it must give what one
    scalar detection per SERP gives, error included, while looking each
    distinct admitted pair of a topic up once."""

    @given(mining_instances())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_serp_detection(self, instance):
        records, qrels, source, cfg, top_n = instance
        log = log_of(records)
        try:
            expected = per_serp_identify_targets(records, qrels, source, cfg, top_n)
        except CoverageError as want:
            with pytest.raises(CoverageError) as got:
                identify_targets(log, qrels, source, cfg, top_n=top_n)
            assert str(got.value) == str(want)
            assert got.value.missing == want.missing
            return
        counted = RecordingSource(source)
        assert identify_targets(log, qrels, counted, cfg, top_n=top_n) == expected
        # One lookup per distinct unordered pair the quality rule admits.
        oracle_calls = RecordingSource(source)
        per_serp_identify_targets(records, qrels, oracle_calls, cfg, top_n)
        for topic_id in counted.calls.keys() | oracle_calls.calls.keys():
            pairs = [frozenset(c) for c in counted.calls.get(topic_id, [])]
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == {frozenset(c) for c in oracle_calls.calls.get(topic_id, [])}

    @pytest.mark.parametrize("order, first_gap", [
        # t1 shows first, but t2 lacks its pair earlier in the log
        (("t1 a b", "t2 a c", "t1 a c", "t2 a d"), ("t2", "a", "c")),
        # t2's gap comes after t1's, though t2 shows before t1's gap
        (("t1 a b", "t2 a b", "t1 a c", "t2 a c"), ("t1", "a", "c")),
    ])
    def test_gap_named_is_the_first_in_log_order(self, order, first_gap):
        records = []
        for i, line in enumerate(order):
            topic, *docs = line.split()
            records.append(serp_record(f"s{i}", topic, docs))
        qrels = Qrels(4, {"t1": {"a": 3}, "t2": {"a": 3}})
        store = PairStore({("t1", "a", "b"): 0.9, ("t2", "a", "b"): 0.9})
        with pytest.raises(CoverageError) as exc:
            identify_targets(log_of(records), qrels, store,
                             DecoyConfig(quality=MinGradeGap(2)))
        assert exc.value.missing == [first_gap]
        assert f"topic {first_gap[0]}:" in str(exc.value)


class TestLogIdentification:
    def setup_planted(self, planted):
        log = parse_interaction_log(planted.log)
        qrels = parse_qrels(planted.qrels, g_max=4)
        source = parse_pair_sims(planted.pairs)
        cfg = DecoyConfig(s_min=LOG_TOP_SIM, s_max=0.95, quality=MinGradeGap(2),
                          delta_rank=5, s_max_inclusive=True)
        return log, qrels, source, cfg

    def test_identify_targets_planted(self, planted_log):
        log, qrels, source, cfg = self.setup_planted(planted_log)
        records, targets = identify_targets(log, qrels, source, cfg)
        assert targets == LOG_EXPECTED.targets
        got = [(r.serp_id, r.pair.target_doc, r.pair.decoy_doc) for r in records]
        assert got == LOG_EXPECTED.pair_records

    def test_identify_targets_respects_top_n(self, planted_log):
        log, qrels, source, cfg = self.setup_planted(planted_log)
        # with only the first ranked doc visible no pair fits
        records, targets = identify_targets(log, qrels, source, cfg, top_n=1)
        assert records == [] and targets == set()

    def test_identify_controls_planted(self, planted_log):
        log, qrels, source, cfg = self.setup_planted(planted_log)
        universe = {"t1": sorted(LOG_GRADES)}
        controls, matched = identify_controls(
            universe, qrels, LOG_EXPECTED.targets, source, LOG_TOP_SIM, rel_window=2)
        assert controls == LOG_EXPECTED.controls
        assert matched == LOG_EXPECTED.matched

    def test_controls_shrink_with_narrow_grade_window(self, planted_log):
        _, qrels, source, _ = self.setup_planted(planted_log)
        universe = {"t1": sorted(LOG_GRADES)}
        controls, matched = identify_controls(
            universe, qrels, LOG_EXPECTED.targets, source, LOG_TOP_SIM, rel_window=1)
        # |grade(E) - grade(D)| = 2 no longer qualifies
        assert controls == {"C", "F"}
        assert matched == {"A", "D"}

    def test_controls_exclude_targets_and_dissimilar_docs(self, planted_log):
        _, qrels, source, _ = self.setup_planted(planted_log)
        universe = {"t1": sorted(LOG_GRADES)}
        controls, _ = identify_controls(
            universe, qrels, LOG_EXPECTED.targets, source, LOG_TOP_SIM)
        assert not controls & LOG_EXPECTED.targets
        assert "G" not in controls and "H" not in controls and "B" not in controls

    def test_controls_with_oracle_on_planted_sims(self, planted_log):
        _, qrels, source, _ = self.setup_planted(planted_log)
        sims = planted_pair_sims()
        grades = LOG_GRADES
        expected = set()
        for cand in grades:
            if cand in LOG_EXPECTED.targets:
                continue
            for tgt in LOG_EXPECTED.targets:
                key = tuple(sorted((cand, tgt)))
                if sims[key] >= LOG_TOP_SIM and abs(grades[cand] - grades[tgt]) <= 2:
                    expected.add(cand)
        controls, _ = identify_controls(
            {"t1": sorted(grades)}, qrels, LOG_EXPECTED.targets, source, LOG_TOP_SIM)
        assert controls == expected
