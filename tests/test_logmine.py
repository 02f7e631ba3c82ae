"""Log mining: thresholds, record extraction, and the Welch t machinery.

The pipeline tests run on the planted log from conftest, whose targets,
controls, record list and per-group samples are known by construction.
The special-function and t-test implementations are checked against scipy
as an independent oracle, except the t p-value at df = 1 and df = 2, which
is checked against its closed form (see `t_two_sided_p_oracle`). scipy is a
test dependency only.
"""

import math
import random
from itertools import combinations

import numpy as np
import pytest
from scipy import special, stats

from decoyeval import ingest
from decoyeval.decoy import SerpPairRecord, identify_controls, identify_targets
from decoyeval.logmine import (
    MEASURES,
    GroupStats,
    Thresholds,
    derive_thresholds,
    extract_records,
    group_stats,
    log_doc_universe,
    regularized_incomplete_beta,
    student_t_two_sided_p,
    welch_t_test,
)
from decoyeval.model import DecoyConfig, MinGradeGap, PairStore, VectorStore
from decoyeval.simsig import percentile_threshold

from conftest import (
    LOG_CLICKS, LOG_EXPECTED, LOG_GRADES, Record, log_of, record_columns, record_rows,
)
from test_decoy import serp_record


def load_world(planted_log):
    log = ingest.parse_interaction_log(planted_log.log)
    qrels = ingest.parse_qrels(planted_log.qrels, g_max=4)
    source = ingest.parse_pair_sims(planted_log.pairs)
    return log, qrels, source


def mine_pipeline(log, qrels, source, top_n=10, rel_window=2):
    """The mine workflow up to records, with the log-regime config."""
    universe = log_doc_universe(log)
    thr = derive_thresholds(universe, source)
    cfg = DecoyConfig(
        s_min=thr.s_min,
        s_max=0.95,
        quality=MinGradeGap(2),
        delta_rank=5,
        s_max_inclusive=True,
    )
    pair_records, targets = identify_targets(log, qrels, source, cfg, top_n=top_n)
    controls, matched = identify_controls(
        universe, qrels, targets, source, thr.s_control, rel_window
    )
    records = extract_records(log, pair_records, matched, controls, top_n=top_n)
    return thr, pair_records, matched, controls, records


class TestThresholds:
    def test_validation(self):
        with pytest.raises(ValueError):
            Thresholds(s_min=0.5, s_control=0.6, pair_count=0)
        with pytest.raises(ValueError):
            Thresholds(s_min=0.7, s_control=0.6, pair_count=3)
        thr = Thresholds(s_min=0.6, s_control=0.6, pair_count=1)
        assert thr.s_min == thr.s_control == 0.6

    def test_planted_log_universe(self, planted_log):
        log, _, _ = load_world(planted_log)
        assert log_doc_universe(log) == {"t1": sorted(LOG_GRADES)}

    def test_planted_log_thresholds(self, planted_log):
        log, _, source = load_world(planted_log)
        thr = derive_thresholds(log_doc_universe(log), source)
        # 28 pooled sims whose top four tie at 0.945 puts both the P99 and
        # the P99.5 interpolation inside the tie.
        assert thr.pair_count == LOG_EXPECTED.pair_count
        assert thr.s_min == pytest.approx(LOG_EXPECTED.s_min, abs=1e-12)
        assert thr.s_control == pytest.approx(LOG_EXPECTED.s_control, abs=1e-12)

    def test_percentile_order_rejected(self, planted_log):
        log, _, source = load_world(planted_log)
        with pytest.raises(ValueError, match="must be below"):
            derive_thresholds(log_doc_universe(log), source, s_min_pct=99.5, s_control_pct=99.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_equal_to_percentiles_of_pooled_values(self, seed):
        # The pooled values are sorted once for both thresholds; each must
        # equal percentile_threshold over the pooled list, to the last bit.
        rng = random.Random(seed)
        pool = [f"d{i}" for i in range(12)]
        records = []
        for i in range(20):
            docs = rng.sample(pool, rng.randint(1, 6))
            records.append(serp_record(f"s{i}", rng.choice(("t1", "t2", "t3")), docs))
        universe = log_doc_universe(log_of(records))
        store = PairStore({(t, a, b): rng.uniform(-1.0, 1.0) for t in ("t1", "t2", "t3")
                           for a, b in combinations(pool, 2)})
        pooled = [store.topic_view(t).sim(a, b)
                  for t, docs in universe.items() for a, b in combinations(docs, 2)]
        s_min_pct, s_control_pct = rng.uniform(1, 90), rng.uniform(90, 99.9)
        thr = derive_thresholds(universe, store, s_min_pct, s_control_pct)
        assert thr.pair_count == len(pooled)
        assert thr.s_min == percentile_threshold(pooled, s_min_pct)
        assert thr.s_control == percentile_threshold(pooled, s_control_pct)

    @pytest.mark.parametrize("seed", range(5))
    def test_vector_thresholds_from_store_sims(self, seed):
        # The pooled values are the ones detection and control matching
        # read, VectorStore.sim's, so each threshold is their percentile to
        # the last bit.
        rng = np.random.default_rng(seed)
        universe = {t: [f"{t}d{i}" for i in range(int(rng.integers(2, 30)))]
                    for t in ("t1", "t2", "t3")}
        dim = int(rng.integers(3, 400))
        store = VectorStore({d: rng.random(dim) * 10.0 ** int(rng.integers(-5, 5))
                             for docs in universe.values() for d in docs})
        pooled = [store.sim(a, b) for docs in universe.values() for a, b in combinations(docs, 2)]
        thr = derive_thresholds(universe, store, 50.0, 75.0)
        assert thr.s_min == percentile_threshold(pooled, 50.0)
        assert thr.s_control == percentile_threshold(pooled, 75.0)

    def test_no_pairs_rejected(self, tmp_path):
        # Every SERP shows a single doc: no within-topic pairs to pool.
        log_path = tmp_path / "log.jsonl"
        log_path.write_text(
            '{"serp_id": "s1", "session_id": "x", "user_id": "u", "task_id": "k",'
            ' "topic_id": "t1", "serp": [{"doc_id": "A", "rank": 1}], "clicks": []}\n'
        )
        log = ingest.parse_interaction_log(log_path)
        with pytest.raises(ValueError, match="no within-topic doc pairs"):
            derive_thresholds(log_doc_universe(log), PairStore({}))

    @pytest.mark.parametrize("kind", ["pairs", "vectors"])
    def test_repeated_universe_ids_dropped(self, kind):
        # A repeated id adds no pair, and a topic of one id repeated none.
        if kind == "pairs":
            source = PairStore({("t", "a", "b"): 0.1, ("t", "a", "c"): 0.5, ("t", "b", "c"): 0.9})
        else:
            source = VectorStore({"a": np.array([1.0, 0.0]), "b": np.array([1.0, 1.0]),
                                  "c": np.array([0.0, 1.0])})
        distinct = derive_thresholds({"t": ["a", "b", "c"]}, source)
        assert distinct.pair_count == 3
        assert derive_thresholds({"t": ["a", "a", "b", "c", "b"], "u": ["a", "a"]},
                                 source) == distinct
        with pytest.raises(ValueError, match="no within-topic doc pairs"):
            derive_thresholds({"t": ["a", "a"]}, source)


class TestExtractRecords:
    def test_planted_record_list(self, planted_log):
        log, qrels, source = load_world(planted_log)
        thr, pair_records, matched, controls, records = mine_pipeline(log, qrels, source)
        assert [(r.serp_id, r.pair.target_doc, r.pair.decoy_doc) for r in pair_records] \
            == LOG_EXPECTED.pair_records
        assert matched == LOG_EXPECTED.matched
        assert controls == LOG_EXPECTED.controls

        rows = record_rows(records)
        got = [(r.serp_id, r.doc_id, r.rank) for r in rows]
        assert got == LOG_EXPECTED.target_records + LOG_EXPECTED.control_records
        assert [r.group for r in rows] == ["target"] * 4 + ["control"] * 4

    def test_click_fields_and_zero_fill(self, planted_log):
        log, qrels, source = load_world(planted_log)
        *_, records = mine_pipeline(log, qrels, source)
        for rec in record_rows(records):
            click = LOG_CLICKS[rec.serp_id].get(rec.doc_id)
            if click is None:
                assert not rec.is_clicked
                assert rec.dwell_seconds == 0.0
                assert rec.usefulness == 0
            else:
                assert rec.is_clicked
                assert rec.dwell_seconds == click[0]
                assert rec.usefulness == click[1]
            assert rec.task_id == "task1"
            assert rec.user_id == f"user_{rec.serp_id}"

    def test_unmatched_target_dropped(self, planted_log):
        log, qrels, source = load_world(planted_log)
        thr, pair_records, _, controls, _ = mine_pipeline(log, qrels, source)
        records = extract_records(log, pair_records, {"A"}, controls)
        got = [(r.serp_id, r.doc_id) for r in record_rows(records) if r.group == "target"]
        assert got == [("s1", "A"), ("s2", "A"), ("s3", "A")]

    def test_top_n_truncates_both_groups(self, planted_log):
        log, qrels, source = load_world(planted_log)
        thr, pair_records, matched, controls, _ = mine_pipeline(log, qrels, source)
        records = extract_records(log, pair_records, matched, controls, top_n=3)
        got = [(r.serp_id, r.doc_id, r.group) for r in record_rows(records)]
        # (s2, A) sits at rank 4 and falls outside the window.
        assert got == [
            ("s1", "A", "target"), ("s2", "D", "target"), ("s3", "A", "target"),
            ("s1", "C", "control"), ("s2", "E", "control"),
            ("s2", "F", "control"), ("s3", "C", "control"),
        ]

    def test_negative_top_n_rejected(self, planted_log):
        log, qrels, source = load_world(planted_log)
        thr, pair_records, matched, controls, _ = mine_pipeline(log, qrels, source)
        with pytest.raises(ValueError, match="-1"):
            extract_records(log, pair_records, matched, controls, top_n=-1)
        cfg = DecoyConfig(s_min=thr.s_min, quality=MinGradeGap(2), s_max_inclusive=True)
        with pytest.raises(ValueError, match="-1"):
            identify_targets(log, qrels, source, cfg, top_n=-1)

    def test_overlap_rejected(self, planted_log):
        log, qrels, source = load_world(planted_log)
        thr, pair_records, matched, controls, _ = mine_pipeline(log, qrels, source)
        with pytest.raises(ValueError, match="overlap"):
            extract_records(log, pair_records, matched, controls | {"A"})

    def test_unknown_serp_rejected(self, planted_log):
        log, qrels, source = load_world(planted_log)
        thr, pair_records, matched, controls, _ = mine_pipeline(log, qrels, source)
        ghost = SerpPairRecord("s999", pair_records[0].pair)
        with pytest.raises(ValueError, match="unknown SERP"):
            extract_records(log, [ghost], matched, controls)


class TestIncompleteBeta:
    def test_against_scipy_grid(self):
        for a in (0.5, 1.0, 2.5, 7.0, 30.5, 100.0):
            for b in (0.5, 1.0, 2.5, 7.0, 30.5, 100.0):
                for x in (0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
                    expected = special.betainc(a, b, x)
                    assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                        expected, abs=1e-12, rel=1e-12
                    ), (a, b, x)

    def test_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, -2.0, 0.5)

    def test_exact_powers_near_one(self):
        # I_x(a, 1) = x^a and I_x(a, 2) = x^a (1 + a (1 - x)). At x = exp(-c/a)
        # with a huge, the continued fraction's odd steps subtract numbers
        # near 1. The oracle is x ** a at the rounded x: it differs from
        # exp(-c) itself by up to 1e-8, as x carries one rounding.
        for a in (1e6, 1e8):
            for c in (0.5, 5.0, 20.0):
                x = math.exp(-c / a)
                assert regularized_incomplete_beta(a, 1.0, x) == pytest.approx(
                    x ** a, abs=0.0, rel=1e-12), (a, c)
                assert regularized_incomplete_beta(a, 2.0, x) == pytest.approx(
                    x ** a * (1.0 + a * (1.0 - x)), abs=0.0, rel=1e-12), (a, c)

    def test_complement_symmetry(self):
        rng = random.Random(11)
        for _ in range(200):
            a = rng.uniform(0.2, 50.0)
            b = rng.uniform(0.2, 50.0)
            x = rng.uniform(0.001, 0.999)
            left = regularized_incomplete_beta(a, b, x)
            right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert left == pytest.approx(right, abs=1e-12)
            assert 0.0 <= left <= 1.0


def t_two_sided_p_oracle(t, df):
    """P(|T| >= |t|): the closed form at df = 1 and df = 2, scipy otherwise.

    scipy's df == 1 path loses digits at tiny t. On scipy 1.17.1,
    2 * stats.t.sf(1e-8, 1) is 0.9999999905136262, while the exact Cauchy
    value 1 - (2/pi) atan(1e-8) is 0.9999999936338023, which a 40-digit
    incomplete beta, stats.cauchy.sf and stats.t.sf(1e-8, 1.0000001) all
    give. The closed forms are written so that nothing cancels at any |t|.
    """
    a = abs(t)
    if df == 1.0:
        return 2.0 / math.pi * math.atan(1.0 / a)
    if df == 2.0:
        s = math.sqrt(2.0 + a * a)
        return 2.0 / (s * (s + a))
    return 2.0 * stats.t.sf(a, df)


class TestStudentT:
    def test_against_scipy(self):
        # Relative error only: p-values far below 1e-12 (1.5e-23 at t = 10,
        # df = 1e6) must keep their digits too.
        for t in (-10.0, -2.0, -0.3, -1e-8, 1e-8, 0.7, 2.0, 5.0, 50.0):
            for df in (1.0, 2.0, 2.5, 7.0, 30.0, 100.0, 1e6):
                expected = t_two_sided_p_oracle(t, df)
                assert student_t_two_sided_p(t, df) == pytest.approx(
                    expected, abs=0.0, rel=1e-9
                ), (t, df)

    def test_error_does_not_grow_with_df(self):
        # Taking lgamma(df/2 + 1/2) - lgamma(df/2) as a difference of two
        # lgamma values near 6e6 gives relative errors up to 7.7e-10 at
        # df = 1e6, and a continued fraction in x alone up to 2.9e-9 at
        # df = 1e8 (t = 3). Over this grid scipy agrees with a 40-digit
        # incomplete beta to 1.1e-14.
        for t in (-0.3, 0.7, 2.0, 3.0, 5.0, 10.0):
            for df in (1e4, 1e5, 1e6, 1e7, 1e8):
                expected = 2.0 * stats.t.sf(abs(t), df)
                assert student_t_two_sided_p(t, df) == pytest.approx(
                    expected, abs=0.0, rel=1e-12
                ), (t, df)

    def test_edges(self):
        assert student_t_two_sided_p(0.0, 5.0) == 1.0
        assert student_t_two_sided_p(math.inf, 5.0) == 0.0
        assert student_t_two_sided_p(-math.inf, 5.0) == 0.0
        with pytest.raises(ValueError):
            student_t_two_sided_p(math.nan, 5.0)
        with pytest.raises(ValueError):
            student_t_two_sided_p(1.0, 0.0)


def oracle_welch(x, y):
    """Welch statistic, df and p, computed with numpy/scipy only."""
    import numpy as np

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    v1, v2 = x.var(ddof=1), y.var(ddof=1)
    n1, n2 = len(x), len(y)
    se2 = v1 / n1 + v2 / n2
    t = (x.mean() - y.mean()) / math.sqrt(se2)
    df = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    return t, df, 2.0 * stats.t.sf(abs(t), df)


class TestWelch:
    def test_random_samples_against_scipy(self):
        rng = random.Random(23)
        for trial in range(200):
            n1 = rng.randint(2, 40)
            n2 = rng.randint(2, 40)
            loc1, loc2 = rng.uniform(-5, 5), rng.uniform(-5, 5)
            scale1, scale2 = rng.uniform(0.1, 4), rng.uniform(0.1, 4)
            x = [rng.gauss(loc1, scale1) for _ in range(n1)]
            y = [rng.gauss(loc2, scale2) for _ in range(n2)]
            res = welch_t_test(x, y, measure="m")
            ref = stats.ttest_ind(x, y, equal_var=False)
            assert res.t == pytest.approx(ref.statistic, abs=1e-9, rel=1e-9), trial
            assert res.df == pytest.approx(ref.df, abs=1e-9, rel=1e-9), trial
            assert res.p_two_sided == pytest.approx(ref.pvalue, abs=1e-9, rel=1e-9), trial
            ot, odf, op = oracle_welch(x, y)
            assert res.t == pytest.approx(ot, abs=1e-9)
            assert res.df == pytest.approx(odf, abs=1e-9)
            assert res.p_two_sided == pytest.approx(op, abs=1e-9)

    def test_swap_symmetry(self):
        rng = random.Random(5)
        x = [rng.gauss(0, 1) for _ in range(9)]
        y = [rng.gauss(1, 2) for _ in range(14)]
        fwd = welch_t_test(x, y)
        rev = welch_t_test(y, x)
        assert fwd.t == pytest.approx(-rev.t, abs=1e-15)
        assert fwd.df == pytest.approx(rev.df, abs=1e-15)
        assert fwd.p_two_sided == pytest.approx(rev.p_two_sided, abs=1e-15)

    def test_planted_samples(self):
        res = welch_t_test(
            LOG_EXPECTED.target_samples.dwell,
            LOG_EXPECTED.control_samples.dwell,
            measure="dwell_seconds",
        )
        ref = stats.ttest_ind(
            LOG_EXPECTED.target_samples.dwell,
            LOG_EXPECTED.control_samples.dwell,
            equal_var=False,
        )
        assert res.measure == "dwell_seconds"
        assert res.mean_target == pytest.approx(10.625)
        assert res.mean_control == pytest.approx(1.25)
        assert res.t == pytest.approx(ref.statistic, abs=1e-9)
        assert res.p_two_sided == pytest.approx(ref.pvalue, abs=1e-9)

    def test_degenerate_identical_constants(self):
        # scipy yields nan here; the library pins the no-evidence answer.
        res = welch_t_test([3.0, 3.0, 3.0], [3.0, 3.0], measure="x")
        assert res.t == 0.0
        assert res.p_two_sided == 1.0
        assert res.df == 3.0

    def test_degenerate_distinct_constants(self):
        res = welch_t_test([4.0, 4.0], [1.0, 1.0, 1.0])
        assert res.t == math.inf
        assert res.p_two_sided == 0.0
        res = welch_t_test([1.0, 1.0], [4.0, 4.0])
        assert res.t == -math.inf
        assert res.p_two_sided == 0.0

    def test_small_groups_rejected(self):
        with pytest.raises(ValueError, match=">= 2 observations"):
            welch_t_test([1.0], [2.0, 3.0])
        with pytest.raises(ValueError, match=">= 2 observations"):
            welch_t_test([1.0, 2.0], [])


class TestGroupStats:
    def test_planted_comparison(self, planted_log):
        log, qrels, source = load_world(planted_log)
        *_, records = mine_pipeline(log, qrels, source)
        cmp = group_stats(records)

        assert cmp.target.n == cmp.control.n == 4
        assert cmp.target.clickthrough == pytest.approx(0.5)
        assert cmp.target.mean_dwell == pytest.approx(10.625)
        assert cmp.target.mean_usefulness == pytest.approx(1.25)
        assert cmp.control.clickthrough == pytest.approx(0.25)
        assert cmp.control.mean_dwell == pytest.approx(1.25)
        assert cmp.control.mean_usefulness == pytest.approx(0.25)

        assert tuple(t.measure for t in cmp.tests) == MEASURES
        samples = {
            "clickthrough": (LOG_EXPECTED.target_samples.clicked,
                             LOG_EXPECTED.control_samples.clicked),
            "dwell_seconds": (LOG_EXPECTED.target_samples.dwell,
                              LOG_EXPECTED.control_samples.dwell),
            "usefulness": (LOG_EXPECTED.target_samples.usefulness,
                           LOG_EXPECTED.control_samples.usefulness),
        }
        for test in cmp.tests:
            ref = stats.ttest_ind(*samples[test.measure], equal_var=False)
            assert test.t == pytest.approx(ref.statistic, abs=1e-9)
            assert test.p_two_sided == pytest.approx(ref.pvalue, abs=1e-9)
            assert test.mean_target == pytest.approx(
                math.fsum(samples[test.measure][0]) / 4
            )

    def test_small_group_skips_tests(self, caplog):
        records = record_columns([
            Record(
                serp_id="s1", doc_id="A", group="target", is_clicked=True,
                dwell_seconds=3.0, usefulness=1, rank=1, task_id="k", user_id="u",
            ),
            Record(
                serp_id="s1", doc_id="B", group="control", is_clicked=False,
                dwell_seconds=0.0, usefulness=0, rank=2, task_id="k", user_id="u",
            ),
        ])
        with caplog.at_level("WARNING", logger="decoyeval.logmine"):
            cmp = group_stats(records)
        assert cmp.tests == ()
        assert cmp.target.n == cmp.control.n == 1
        assert cmp.target.clickthrough == 1.0
        assert any("skipping t-tests" in r.message for r in caplog.records)

    def test_empty_records(self):
        cmp = group_stats(record_columns([]))
        assert cmp.target == GroupStats("target", 0, 0.0, 0.0, 0.0)
        assert cmp.control == GroupStats("control", 0, 0.0, 0.0, 0.0)
        assert cmp.tests == ()

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            GroupStats("target", -1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            GroupStats("target", 2, 1.5, 0.0, 0.0)
