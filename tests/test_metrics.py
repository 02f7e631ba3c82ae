"""Metric values frozen from hand evaluation, brute-force oracle equivalence,
and the algebraic properties the metrics must satisfy."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoyeval.decoy import detect_decoy_pairs_at_k
from decoyeval.metrics import (
    KNOWN_METRICS,
    RELEVANT_GRADE,
    MetricConfig,
    TopicScores,
    aggregate,
    dejavu,
    dejavu_at_k,
    err_at_k,
    err_grade_map,
    evaluate_run,
    linear_combination,
    ndcg_at_k,
    rbp_at_k,
    recall_at_k,
    resolve_metrics,
    sweep,
    topic_prefix,
)
from decoyeval.model import (
    CoverageError, DecoyConfig, GradeBand, MinGradeGap, PairStore, Qrels, Ranking, RunList,
)

from test_decoy import matrix_for, pair_table, ranking_of


# independent formula evaluations, structured differently from the library

def oracle_ndcg(grades_in_rank_order, all_judged_grades, k):
    def dcg(gs):
        return sum((2 ** g - 1) / math.log2(i + 2) for i, g in enumerate(gs[:k]))
    ideal = sorted(all_judged_grades, reverse=True)
    denom = dcg(ideal)
    return dcg(grades_in_rank_order) / denom if denom > 0 else 0.0


def oracle_recall(grades_in_rank_order, all_judged_grades, k):
    total = len([g for g in all_judged_grades if g >= 2])
    if total == 0:
        return 0.0
    return len([g for g in grades_in_rank_order[:k] if g >= 2]) / total


def oracle_rbp(grades_in_rank_order, k, phi=0.8, g_max=3):
    return (1 - phi) * sum(
        (g / g_max) * phi ** i for i, g in enumerate(grades_in_rank_order[:k])
    )


def oracle_err(grades_in_rank_order, k, g_max=3):
    total, stop_prob = 0.0, 1.0
    for i, g in enumerate(grades_in_rank_order[:k], start=1):
        r = (2 ** g - 1) / 2 ** g_max
        total += stop_prob * r / i
        stop_prob *= 1 - r
    return total


def make_instance(rng, n=None):
    n = n or rng.randint(1, 30)
    docs = [f"d{i:02d}" for i in range(n)]
    grades = {d: rng.choice((0, 0, 1, 2, 3)) for d in docs}
    sims = {}
    for i, a in enumerate(docs):
        for b in docs[i + 1:]:
            sims[frozenset((a, b))] = round(rng.random(), 6)
    return docs, grades, sims


class TestDejavu:
    def test_worked_quadruple(self):
        assert dejavu(2, 2) == 0.0
        assert dejavu(2, 3) == pytest.approx(1 - math.exp(-1), abs=1e-12)
        assert dejavu(1, 2) == pytest.approx(1 - math.exp(-1), abs=1e-12)
        assert dejavu(0, 0) == 0.0

    def test_rejects_d_above_r(self):
        with pytest.raises(ValueError):
            dejavu(3, 2)
        with pytest.raises(ValueError):
            dejavu(-1, 2)

    def test_full_grid_monotonicity_and_range(self):
        # Strict monotonicity is checked wherever adjacent closed-form
        # values are distinguishable in doubles; past r - d of about 37 the
        # function sits on the largest double below 1, so the check there
        # degrades to non-strict while the range stays [0, 1).
        cap = math.nextafter(1.0, 0.0)
        for r in range(51):
            prev = None
            for d in range(r + 1):
                score = dejavu(d, r)
                assert 0.0 <= score < 1.0
                if prev is not None:
                    if prev < cap:
                        assert score < prev
                    else:
                        assert score <= prev
                prev = score
        for d in range(51):
            prev = None
            for r in range(d, 51):
                score = dejavu(d, r)
                if prev is not None:
                    if prev < cap:
                        assert score > prev
                    else:
                        assert score >= prev
                prev = score


class TestDejavuAtK:
    def test_all_grade_zero_scores_zero(self):
        docs = ["a", "b", "c"]
        out = dejavu_at_k("t", ranking_of(docs), {}, matrix_for(docs, {}),
                          DecoyConfig(), k=10)
        assert (out.decoy_pairs, out.highly_relevant, out.score) == (0, 0, 0.0)

    def test_matches_detection_plus_closed_form(self):
        rng = random.Random(41)
        cfg = DecoyConfig()
        for _ in range(50):
            docs, grades, sims = make_instance(rng)
            m = matrix_for(docs, sims)
            k = rng.randint(1, len(docs) + 5)
            out = dejavu_at_k("t", ranking_of(docs), grades, m, cfg, k)
            d = len(detect_decoy_pairs_at_k("t", ranking_of(docs), grades, m, cfg, k))
            r = sum(1 for doc in docs[:k] if grades[doc] >= 2)
            assert (out.decoy_pairs, out.highly_relevant) == (d, r)
            assert out.score == pytest.approx(1 - math.exp(d - r), abs=1e-12)

    @pytest.mark.parametrize("quality", [
        MinGradeGap(1), MinGradeGap(2), GradeBand(1, 0), GradeBand(3, 0)])
    def test_d_counts_the_relevant_targets_of_detected_pairs(self, quality):
        # A rule may admit targets graded below 2; d counts only those r
        # counts, so d <= r under every rule.
        rng = random.Random(43)
        cfg = DecoyConfig(quality=quality)
        for _ in range(50):
            docs, grades, sims = make_instance(rng)
            m = matrix_for(docs, sims)
            k = rng.randint(1, len(docs) + 5)
            out = dejavu_at_k("t", ranking_of(docs), grades, m, cfg, k)
            pairs = detect_decoy_pairs_at_k("t", ranking_of(docs), grades, m, cfg, k,
                                            dedup=False)
            d = len({p.target_doc for p in pairs if p.target_grade >= 2})
            r = sum(1 for doc in docs[:k] if grades[doc] >= 2)
            assert (out.decoy_pairs, out.highly_relevant) == (d, r)


class TestNdcg:
    def test_hand_worked_example(self):
        # grades (1, 3) in rank order against judged {3, 1}
        ranking = ranking_of(["a", "b"])
        grades = {"a": 1, "b": 3}
        dcg = 1.0 + 7.0 / math.log2(3)
        idcg = 7.0 + 1.0 / math.log2(3)
        assert ndcg_at_k(ranking, grades, 2) == pytest.approx(dcg / idcg, abs=1e-12)
        assert ndcg_at_k(ranking, grades, 2) == pytest.approx(0.7098, abs=5e-4)

    def test_ideal_ranking_scores_one(self):
        ranking = ranking_of(["a", "b", "c"])
        grades = {"a": 3, "b": 2, "c": 1}
        assert ndcg_at_k(ranking, grades, 3) == 1.0

    def test_no_relevant_retrieved_scores_zero(self):
        ranking = ranking_of(["x", "y"])
        grades = {"a": 3}
        assert ndcg_at_k(ranking, grades, 2) == 0.0

    def test_unjudged_topic_scores_zero(self):
        assert ndcg_at_k(ranking_of(["x"]), {}, 5) == 0.0

    def test_ideal_uses_unretrieved_judged_docs(self):
        # the ideal list must include judged docs the run missed
        ranking = ranking_of(["a"])
        grades = {"a": 1, "missing": 3}
        expected = 1.0 / (7.0 + 1.0 / math.log2(3))
        assert ndcg_at_k(ranking, grades, 10) == pytest.approx(expected, abs=1e-12)


class TestRecall:
    def test_half_retrieved(self):
        ranking = ranking_of(["a", "b", "x", "y"])
        grades = {"a": 2, "b": 3, "c": 2, "d": 3}
        assert recall_at_k(ranking, grades, 10) == 0.5

    def test_no_relevant_judged_scores_zero(self):
        assert recall_at_k(ranking_of(["a"]), {"a": 1}, 5) == 0.0

    def test_all_retrieved_scores_one(self):
        ranking = ranking_of(["a", "b"])
        assert recall_at_k(ranking, {"a": 2, "b": 3}, 2) == 1.0


class TestRbp:
    def test_single_top_grade_doc(self):
        assert rbp_at_k(ranking_of(["a"]), {"a": 3}, 1) == pytest.approx(0.2, abs=1e-12)

    def test_empty_ranking(self):
        assert rbp_at_k(Ranking(), {"a": 3}, 5) == 0.0

    def test_hand_worked_example(self):
        ranking = ranking_of(["a", "b", "c"])
        grades = {"a": 3, "b": 0, "c": 2}
        expected = 0.2 * (1.0 + 0.0 + (2.0 / 3.0) * 0.64)
        assert rbp_at_k(ranking, grades, 3) == pytest.approx(expected, abs=1e-12)
        assert rbp_at_k(ranking, grades, 3) == pytest.approx(0.28533, abs=5e-5)

    def test_upper_bound_one_minus_phi_to_k(self):
        rng = random.Random(3)
        for _ in range(50):
            docs, grades, _ = make_instance(rng)
            k = rng.randint(1, 40)
            phi = rng.uniform(0.1, 0.95)
            val = rbp_at_k(ranking_of(docs), grades, k, phi=phi)
            assert val <= (1 - phi ** k) + 1e-12


class TestErr:
    def test_grade_map_exact_values(self):
        assert [err_grade_map(g, 3) for g in range(4)] == [0.0, 1 / 8, 3 / 8, 7 / 8]
        assert err_grade_map(0, 7) == 0.0
        assert err_grade_map(2, 2) == 3 / 4

    def test_grade_map_bounds(self):
        with pytest.raises(ValueError):
            err_grade_map(4, 3)
        with pytest.raises(ValueError):
            err_grade_map(-1, 3)

    def test_single_perfect_doc(self):
        assert err_at_k(ranking_of(["a"]), {"a": 3}, 1) == 7 / 8

    def test_all_grades_zero(self):
        assert err_at_k(ranking_of(["a", "b"]), {}, 2) == 0.0

    def test_hand_worked_cascade(self):
        ranking = ranking_of(["a", "b"])
        grades = {"a": 3, "b": 3}
        assert err_at_k(ranking, grades, 2) == pytest.approx(0.9296875, abs=1e-12)

    def test_cascade_continuation_stays_in_unit_interval(self):
        rng = random.Random(8)
        for _ in range(50):
            docs, grades, _ = make_instance(rng)
            stop = 1.0
            for d in docs:
                stop *= 1 - err_grade_map(grades[d], 3)
                assert 0.0 <= stop <= 1.0


class TestLinearCombination:
    def test_published_values(self):
        assert linear_combination(0.974, 0.720, 0.5) == pytest.approx(0.847, abs=5e-4)
        # exact value 0.8395 sits on the rounding boundary of the published
        # 0.840; allow one ulp of slack on the 5e-4 tolerance
        assert linear_combination(0.948, 0.731, 0.5) == pytest.approx(0.840, abs=5e-4 + 1e-12)
        assert linear_combination(0.948, 0.731, 0.5) == pytest.approx(0.8395, abs=1e-12)

    def test_fixed_point(self):
        for alpha in (0.0, 0.3, 1.0):
            assert linear_combination(0.42, 0.42, alpha) == pytest.approx(0.42, abs=1e-15)

    def test_endpoints(self):
        assert linear_combination(0.9, 0.1, 1.0) == 0.9
        assert linear_combination(0.9, 0.1, 0.0) == 0.1

    def test_inputs_validated(self):
        with pytest.raises(ValueError):
            linear_combination(1.2, 0.5, 0.5)
        with pytest.raises(ValueError):
            linear_combination(0.5, 0.5, -0.1)


class TestOracleEquivalence:
    def test_all_metrics_match_oracles(self):
        rng = random.Random(4242)
        for _ in range(100):
            docs, grades, _ = make_instance(rng)
            ranking = ranking_of(docs)
            in_order = [grades[d] for d in docs]
            judged = list(grades.values())
            k = rng.randint(1, len(docs) + 3)
            assert ndcg_at_k(ranking, grades, k) == pytest.approx(
                oracle_ndcg(in_order, judged, k), abs=1e-9)
            assert recall_at_k(ranking, grades, k) == pytest.approx(
                oracle_recall(in_order, judged, k), abs=1e-9)
            assert rbp_at_k(ranking, grades, k) == pytest.approx(
                oracle_rbp(in_order, k), abs=1e-9)
            assert err_at_k(ranking, grades, k) == pytest.approx(
                oracle_err(in_order, k), abs=1e-9)

    @given(st.lists(st.integers(0, 3), min_size=0, max_size=40),
           st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_ranges_hold_on_arbitrary_grades(self, grade_list, k):
        docs = [f"d{i}" for i in range(len(grade_list))]
        grades = dict(zip(docs, grade_list))
        ranking = ranking_of(docs)
        for value in (
            ndcg_at_k(ranking, grades, k),
            recall_at_k(ranking, grades, k),
            rbp_at_k(ranking, grades, k),
            err_at_k(ranking, grades, k),
        ):
            assert 0.0 <= value <= 1.0

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_recall_monotone_in_k(self, grade_list):
        docs = [f"d{i}" for i in range(len(grade_list))]
        grades = dict(zip(docs, grade_list))
        ranking = ranking_of(docs)
        values = [recall_at_k(ranking, grades, k) for k in range(1, len(docs) + 2)]
        assert values == sorted(values)


class TestRelevanceFloors:
    @pytest.mark.parametrize("grade_gap, delta_rank", [(1, 1), (1, 3), (2, 1), (3, 1)])
    def test_rank_lists_match_a_brute_force_count(self, grade_gap, delta_rank):
        # Under a grade gap of 1 a target graded 1 can have a decoy; it is
        # below the relevant grade, so neither r nor d counts it.
        assert RELEVANT_GRADE == 2
        decoy_cfg = DecoyConfig(quality=MinGradeGap(grade_gap), delta_rank=delta_rank)
        rng = random.Random(909)
        for _ in range(60):
            docs, grades, sims = make_instance(rng)
            unjudged = [f"u{i}" for i in range(rng.randint(0, 5))]
            order = docs + unjudged
            rng.shuffle(order)
            in_order = [grades.get(d, 0) for d in order]
            depth = rng.randint(1, len(order))
            m = matrix_for(order, sims)
            prefix = topic_prefix("t", ranking_of(order), grades, 3, m, decoy_cfg,
                                  MetricConfig(), depth)
            assert prefix.relevant == [i + 1 for i, g in enumerate(in_order[:depth]) if g >= 2]
            for k in range(1, depth + 1):
                values, d, r = prefix.values_at(k)
                pairs = detect_decoy_pairs_at_k("t", ranking_of(order), grades, m, decoy_cfg,
                                                k, dedup=False)
                assert d == len({p.target_doc for p in pairs if p.target_grade >= 2})
                assert r == sum(1 for g in in_order[:k] if g >= 2)
                assert values["recall"] == pytest.approx(
                    oracle_recall(in_order, list(grades.values()), k), abs=1e-12)


class TestEvaluateTopic:
    """One topic scored on several metrics: a one-topic run through
    evaluate_run."""

    def test_single_metric_only(self):
        docs = ["a", "b"]
        run = RunList(run_tag="r", rankings={"t": ranking_of(docs)})
        qrels = Qrels(g_max=3, judgments={"t": {"a": 2}})
        [ev] = evaluate_run(run, qrels, None, DecoyConfig(), MetricConfig(), ["recall"], [2])
        [scores] = ev.topics
        assert list(scores.scores) == ["recall"]
        assert scores.scores["recall"] == 1.0

    def test_lc_composes_computed_operands(self):
        docs = ["a", "b", "c"]
        run = RunList(run_tag="r", rankings={"t": ranking_of(docs)})
        qrels = Qrels(g_max=3, judgments={"t": {"a": 3, "b": 0, "c": 2}})
        store = PairStore(pair_table(docs, {frozenset(("a", "b")): 0.9}))
        [ev] = evaluate_run(run, qrels, store, DecoyConfig(), MetricConfig(), ["lc_ndcg"], [3])
        [scores] = ev.topics
        assert list(scores.scores) == ["lc_ndcg", "dejavu", "ndcg"]
        expected = 0.5 * scores.scores["dejavu"] + 0.5 * scores.scores["ndcg"]
        assert scores.scores["lc_ndcg"] == pytest.approx(expected, abs=1e-12)
        assert scores.decoy_pairs == 1 and scores.highly_relevant == 2

    def test_scores_equal_the_single_metric_helpers(self):
        rng = random.Random(66)
        for _ in range(40):
            docs, grades, sims = make_instance(rng)
            k = rng.randint(1, len(docs) + 3)
            run = RunList(run_tag="r", rankings={"t": ranking_of(docs)})
            qrels = Qrels(g_max=3, judgments={"t": grades})
            store = PairStore(pair_table(docs, sims))
            [ev] = evaluate_run(run, qrels, store, DecoyConfig(), MetricConfig(),
                                ["dejavu", "ndcg", "recall", "rbp", "err"], [k])
            [scores] = ev.topics
            ranking = ranking_of(docs)
            outcome = dejavu_at_k("t", ranking, grades, store.topic_view("t"), DecoyConfig(), k)
            assert scores.scores == {
                "dejavu": outcome.score,
                "ndcg": ndcg_at_k(ranking, grades, k),
                "recall": recall_at_k(ranking, grades, k),
                "rbp": rbp_at_k(ranking, grades, k),
                "err": err_at_k(ranking, grades, k),
            }
            assert (scores.decoy_pairs, scores.highly_relevant) == (
                outcome.decoy_pairs, outcome.highly_relevant)

    def test_cutoff_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            MetricConfig(k=5)
        # Nor is the grade scale: RBP and ERR read the qrels' g_max.
        with pytest.raises(TypeError):
            MetricConfig(g_max=3)

    def test_resolve_metrics_dependency_closure(self):
        assert resolve_metrics(["lc_ndcg"]) == ("lc_ndcg", "dejavu", "ndcg")
        assert resolve_metrics(["ndcg", "lc_ndcg"]) == ("ndcg", "lc_ndcg", "dejavu")
        assert resolve_metrics(["dejavu"]) == ("dejavu",)

    def test_resolve_metrics_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown metric"):
            resolve_metrics(["map"])

    def test_topic_scores_validation(self):
        with pytest.raises(ValueError):
            TopicScores("t", {"ndcg": 0.5}, decoy_pairs=3, highly_relevant=2)
        with pytest.raises(ValueError):
            TopicScores("t", {"ndcg": 1.5})


class TestAggregate:
    def test_single_topic_identity(self):
        t = TopicScores("t", {"ndcg": 0.7}, decoy_pairs=1, highly_relevant=2)
        agg = aggregate([t])
        assert agg.scores == {"ndcg": 0.7}
        assert agg.decoy_pairs == 1.0 and agg.highly_relevant == 2.0

    def test_two_topic_mean(self):
        ts = [TopicScores("a", {"recall": 0.0}), TopicScores("b", {"recall": 1.0})]
        assert aggregate(ts).scores["recall"] == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_inconsistent_metric_sets_rejected(self):
        ts = [TopicScores("a", {"recall": 0.0}), TopicScores("b", {"ndcg": 1.0})]
        with pytest.raises(ValueError):
            aggregate(ts)

    def test_permutation_invariant(self):
        rng = random.Random(12)
        topics = [
            TopicScores(f"t{i}", {"ndcg": rng.random(), "recall": rng.random()})
            for i in range(40)
        ]
        base = aggregate(topics)
        for _ in range(5):
            rng.shuffle(topics)
            again = aggregate(topics)
            assert again.scores == base.scores

    def test_lc_linearity_mean_of_lc_is_lc_of_means(self):
        rng = random.Random(21)
        alpha = 0.5
        dvals = [rng.random() for _ in range(25)]
        evals = [rng.random() for _ in range(25)]
        per_topic = [linear_combination(d, e, alpha) for d, e in zip(dvals, evals)]
        mean_of_lc = sum(per_topic) / len(per_topic)
        lc_of_means = linear_combination(
            sum(dvals) / len(dvals), sum(evals) / len(evals), alpha)
        assert mean_of_lc == pytest.approx(lc_of_means, abs=1e-12)


def small_world(rng, n_topics=4, n_docs=25):
    rankings, judgments, pairs = {}, {}, {}
    for t in range(n_topics):
        topic = f"t{t}"
        docs, grades, sims = make_instance(rng, n=n_docs)
        docs = [f"{topic}_{d}" for d in docs]
        grades = {f"{topic}_{d}": g for d, g in grades.items()}
        sims = {frozenset(f"{topic}_{x}" for x in fs): v for fs, v in sims.items()}
        rankings[topic] = ranking_of(docs)
        judgments[topic] = grades
        pairs.update(pair_table(docs, sims, topic=topic))
    run = RunList(run_tag="synth", rankings=rankings)
    qrels = Qrels(g_max=3, judgments=judgments)
    return run, qrels, PairStore(pairs)


class TestEvaluateRun:
    def test_topics_come_from_qrels_with_empty_rankings(self):
        run = RunList(run_tag="r", rankings={"t1": ranking_of(["a"])})
        qrels = Qrels(g_max=3, judgments={"t1": {"a": 3}, "t2": {"b": 2}})
        out = evaluate_run(run, qrels, None, DecoyConfig(), MetricConfig(),
                           ["ndcg", "recall"], [10])
        assert [t.topic_id for t in out[0].topics] == ["t1", "t2"]
        missing = out[0].topics[1]
        assert missing.scores == {"ndcg": 0.0, "recall": 0.0}

    def test_judged_topic_absent_from_run_scores_as_empty_ranking(self):
        rng = random.Random(58)
        run, qrels, source = small_world(rng, n_topics=2)
        qrels = Qrels(g_max=3, judgments={**qrels.judgments, "t9": {"x": 3, "y": 2}})
        with_empty = RunList(run.run_tag, {**run.rankings, "t9": Ranking()})
        metrics = list(KNOWN_METRICS)
        absent = evaluate_run(run, qrels, source, DecoyConfig(), MetricConfig(),
                              metrics, [1, 10])
        empty = evaluate_run(with_empty, qrels, source, DecoyConfig(), MetricConfig(),
                             metrics, [1, 10])
        assert absent == empty
        row = absent[-1].topics[-1]
        assert row.topic_id == "t9"
        assert set(row.scores.values()) == {0.0}
        assert (row.decoy_pairs, row.highly_relevant) == (0, 0)

    def test_cutoff_set_equals_each_cutoff_alone(self):
        # Cutoffs 40 and 60 lie past every 25-doc ranking, and topic t9 is
        # judged but absent from the run.
        rng = random.Random(55)
        run, qrels, source = small_world(rng)
        qrels = Qrels(g_max=3, judgments={**qrels.judgments, "t9": {"x": 3, "y": 2}})
        metrics = ["dejavu", "ndcg", "recall", "rbp", "err", "lc_ndcg", "lc_err"]
        cutoffs = [1, 3, 10, 25, 40, 60]
        together = evaluate_run(run, qrels, source, DecoyConfig(), MetricConfig(),
                                metrics, cutoffs)
        alone = [evaluate_run(run, qrels, source, DecoyConfig(), MetricConfig(),
                              metrics, [k])[0] for k in cutoffs]
        assert together == alone
        assert [t.topic_id for t in together[0].topics][-1] == "t9"
        assert together[-1].topics[-1].scores["recall"] == 0.0

    def test_one_detection_per_topic_at_the_deepest_cutoff(self):
        rng = random.Random(57)
        run, qrels, source = small_world(rng, n_topics=3, n_docs=40)

        class CountingSource:
            def __init__(self):
                self.lookups = []

            def topic_view(self, topic_id):
                owner, view = self, source.topic_view(topic_id)

                class View:
                    def sim(self, a, b):
                        owner.lookups.append((topic_id, a, b))
                        return view.sim(a, b)

                return View()

        counted = CountingSource()
        evaluate_run(run, qrels, counted, DecoyConfig(), MetricConfig(),
                     ["dejavu", "ndcg"], [5, 10, 30])
        once = CountingSource()
        for topic_id in sorted(qrels.judgments):
            detect_decoy_pairs_at_k(topic_id, run.rankings[topic_id],
                                    qrels.grades_for(topic_id),
                                    once.topic_view(topic_id), DecoyConfig(), 30)
        assert once.lookups
        assert counted.lookups == once.lookups

    def test_coverage_gap_lists_the_deepest_prefix(self):
        # Targets (grade 3) at ranks 7 and 15, decoys (grade 0) right after
        # them; those two pairs have no similarity. Both gaps lie past the
        # first cutoff and inside the deepest, so both are reported at once.
        docs = [f"d{i:02d}" for i in range(1, 31)]
        grades = {"d07": 3, "d08": 0, "d15": 3, "d16": 0}
        gaps = {("d07", "d08"), ("d15", "d16")}
        store = PairStore({("t", a, b): 0.1 for i, a in enumerate(docs)
                           for b in docs[i + 1:] if (a, b) not in gaps})
        run = RunList(run_tag="r", rankings={"t": ranking_of(docs)})
        qrels = Qrels(g_max=3, judgments={"t": grades})
        with pytest.raises(CoverageError) as exc:
            evaluate_run(run, qrels, store, DecoyConfig(), MetricConfig(),
                         ["dejavu"], [5, 10, 20])
        assert exc.value.missing == [("t", "d07", "d08"), ("t", "d15", "d16")]

    def test_cutoffs_sorted_and_deduped(self):
        rng = random.Random(56)
        run, qrels, source = small_world(rng, n_topics=2)
        out = evaluate_run(run, qrels, source, DecoyConfig(), MetricConfig(),
                           ["recall"], [20, 5, 20])
        assert [ev.k for ev in out] == [5, 20]


class TestSweep:
    def test_single_k_matches_evaluate(self):
        rng = random.Random(61)
        run, qrels, source = small_world(rng)
        rows = sweep(run, qrels, source, DecoyConfig(), MetricConfig(),
                     k_start=10, k_end=10, k_step=5)
        assert len(rows) == 1
        ev = evaluate_run(run, qrels, source, DecoyConfig(), MetricConfig(),
                          ["dejavu", "ndcg", "recall"], [10])[0]
        row = rows[0]
        assert row.k == 10
        assert row.dejavu == pytest.approx(ev.mean.scores["dejavu"], abs=1e-12)
        assert row.ndcg == pytest.approx(ev.mean.scores["ndcg"], abs=1e-12)
        assert row.recall == pytest.approx(ev.mean.scores["recall"], abs=1e-12)
        assert row.decoy_pairs == pytest.approx(ev.mean.decoy_pairs, abs=1e-12)

    def test_every_row_matches_direct_evaluation(self):
        # Exact equality, under every metric and a non-default alpha, and
        # with cutoffs past the 30-doc rankings: sweep aggregates the same
        # per-topic scores as evaluate_run.
        rng = random.Random(62)
        run, qrels, source = small_world(rng, n_topics=3, n_docs=30)
        cfg = MetricConfig(alpha=0.3)
        rows = sweep(run, qrels, source, DecoyConfig(), cfg,
                     k_start=3, k_end=40, k_step=4)
        evaluations = evaluate_run(run, qrels, source, DecoyConfig(), cfg,
                                   list(KNOWN_METRICS), [row.k for row in rows])
        assert [row.k for row in rows] == [ev.k for ev in evaluations]
        for row, ev in zip(rows, evaluations):
            assert row.dejavu == ev.mean.scores["dejavu"]
            assert row.ndcg == ev.mean.scores["ndcg"]
            assert row.recall == ev.mean.scores["recall"]
            assert row.decoy_pairs == ev.mean.decoy_pairs

    def test_monotone_columns(self):
        rng = random.Random(63)
        run, qrels, source = small_world(rng, n_topics=3, n_docs=30)
        rows = sweep(run, qrels, source, DecoyConfig(), MetricConfig(),
                     k_start=1, k_end=30, k_step=1)
        counts = [r.decoy_pairs for r in rows]
        recalls = [r.recall for r in rows]
        assert counts == sorted(counts)
        assert recalls == sorted(recalls)

    def test_step_larger_than_range_single_row(self):
        rng = random.Random(64)
        run, qrels, source = small_world(rng, n_topics=2)
        rows = sweep(run, qrels, source, DecoyConfig(), MetricConfig(),
                     k_start=10, k_end=15, k_step=100)
        assert [r.k for r in rows] == [10]

    def test_invalid_range_rejected(self):
        rng = random.Random(65)
        run, qrels, source = small_world(rng, n_topics=1)
        with pytest.raises(ValueError):
            sweep(run, qrels, source, DecoyConfig(), MetricConfig(), 10, 5, 1)


class TestGradeScale:
    """RBP and ERR are scored on the qrels' own grade scale, qrels.g_max."""

    def test_grade_above_three_scored_on_the_qrels_scale(self):
        ranking = ranking_of(["a", "b", "c"])
        grades = {"a": 4, "b": 0, "c": 2}
        run = RunList(run_tag="r", rankings={"t": ranking})
        qrels = Qrels(g_max=4, judgments={"t": grades})
        [ev] = evaluate_run(run, qrels, None, DecoyConfig(), MetricConfig(), ["rbp", "err"], [3])
        assert ev.topics[0].scores == {"rbp": rbp_at_k(ranking, grades, 3, g_max=4),
                                       "err": err_at_k(ranking, grades, 3, g_max=4)}

    @pytest.mark.parametrize("g_max", [2, 3, 4, 5, 6])
    def test_rbp_and_err_equal_the_helpers_at_the_scale(self, g_max):
        rng = random.Random(700 + g_max)
        for _ in range(30):
            judgments, rankings = {}, {}
            for t in range(rng.randint(1, 3)):
                docs = [f"d{i}" for i in range(rng.randint(1, 20))]
                judgments[f"t{t}"] = {d: rng.randint(0, g_max) for d in docs}
                shown = docs + ["u1", "u2"]  # two unjudged docs
                rankings[f"t{t}"] = ranking_of(rng.sample(shown, rng.randint(1, len(shown))))
            run, qrels = RunList("r", rankings), Qrels(g_max, judgments)
            k = rng.randint(1, 10)
            [ev] = evaluate_run(run, qrels, None, DecoyConfig(), MetricConfig(),
                                ["rbp", "err"], [k])
            for row in ev.topics:
                ranking, grades = rankings[row.topic_id], judgments[row.topic_id]
                assert row.scores == {"rbp": rbp_at_k(ranking, grades, k, g_max=g_max),
                                      "err": err_at_k(ranking, grades, k, g_max=g_max)}

    def test_scale_below_the_relevant_grade_rejected(self):
        rng = random.Random(71)
        run, _, source = small_world(rng, n_topics=1)
        qrels = Qrels(g_max=1, judgments={"t0": {"t0_d00": 1}})
        with pytest.raises(ValueError, match=r"^g_max must be >= 2, got 1$"):
            evaluate_run(run, qrels, source, DecoyConfig(), MetricConfig(), ["ndcg"], [10])
        with pytest.raises(ValueError, match=r"^g_max must be >= 2, got 1$"):
            sweep(run, qrels, source, DecoyConfig(), MetricConfig(), 10, 10, 1)
