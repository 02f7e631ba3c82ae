"""Domain type invariants: construction-time validation and lookups."""

import math

import numpy as np
import pytest

from decoyeval.model import (
    Click,
    CoverageError,
    DecoyConfig,
    DecoyPair,
    GradeBand,
    InteractionLog,
    InteractionRecord,
    MinGradeGap,
    PairStore,
    Qrels,
    Ranking,
    RecordColumns,
    RunList,
    SerpInteraction,
    VectorStore,
    clamp_similarity,
)


def ranking(*doc_ids):
    n = len(doc_ids)
    return Ranking(doc_ids, (0.0,) * n, tuple(range(1, n + 1)))


class TestClampSimilarity:
    def test_within_range_passes_through(self):
        assert clamp_similarity(0.5, "x") == 0.5
        assert clamp_similarity(-1.0, "x") == -1.0

    def test_clamps_small_overshoot(self):
        assert clamp_similarity(1.0 + 5e-7, "x") == 1.0
        assert clamp_similarity(-1.0 - 5e-7, "x") == -1.0

    def test_rejects_large_overshoot(self):
        with pytest.raises(ValueError, match="x"):
            clamp_similarity(1.01, "x")
        with pytest.raises(ValueError):
            clamp_similarity(-1.01, "y")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            clamp_similarity(math.nan, "x")


class TestRanking:
    def test_columns_must_align(self):
        with pytest.raises(ValueError, match="length"):
            Ranking(("a", "b"), (1.0,), (1, 2))
        with pytest.raises(ValueError, match="length"):
            Ranking(("a",), (1.0,), ())

    def test_source_ranks_preserved(self):
        r = Ranking(("d", "e"), (2.0, 1.0), (17, 3))
        assert r.source_ranks == (17, 3)
        assert r.head(1) == Ranking(("d",), (2.0,), (17,))

    def test_empty_ranking_is_falsy(self):
        assert not Ranking()
        assert len(Ranking()) == 0
        assert ranking("a")

    def test_head_past_the_end_is_the_ranking(self):
        r = ranking("a", "b")
        assert r.head(5) == r
        assert r.head(0) == Ranking()

    def test_head_rejects_negative_length(self):
        # A negative slice would silently drop docs from the end.
        with pytest.raises(ValueError, match="-1"):
            ranking("a", "b").head(-1)

    def test_duplicate_doc_named(self):
        with pytest.raises(ValueError, match="duplicate doc id b in ranking"):
            ranking("a", "b", "c", "b")


class TestQrels:
    def test_grade_above_g_max_rejected(self):
        with pytest.raises(ValueError):
            Qrels(g_max=3, judgments={"t": {"d": 4}})

    def test_negative_grade_rejected(self):
        with pytest.raises(ValueError):
            Qrels(g_max=3, judgments={"t": {"d": -1}})

    def test_grades_for_missing_topic_is_empty(self):
        q = Qrels(g_max=3, judgments={"t": {"d": 2}})
        assert q.grades_for("other") == {}
        assert q.grades_for("t") == {"d": 2}


class TestRunList:
    def test_duplicate_doc_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RunList(run_tag="r", rankings={"t": ranking("a", "a")})

    def test_valid_run_accepted(self):
        run = RunList(run_tag="r", rankings={"t": ranking("a", "b")})
        assert len(run.rankings["t"]) == 2


class TestQualityRules:
    def test_min_grade_gap_truth_table(self):
        rule = MinGradeGap(gamma=2)
        assert rule.admits(2, 0)
        assert rule.admits(3, 1)
        assert rule.admits(4, 2)
        assert not rule.admits(2, 1)
        assert not rule.admits(1, 0)
        assert not rule.admits(0, 2)

    def test_grade_band_truth_table(self):
        rule = GradeBand(target_min=2, decoy_max=1)
        assert rule.admits(2, 0)
        assert rule.admits(3, 1)
        assert rule.admits(2, 1)
        assert not rule.admits(1, 0)
        assert not rule.admits(2, 2)
        assert not rule.admits(3, 2)

    def test_grade_band_requires_separation(self):
        with pytest.raises(ValueError):
            GradeBand(target_min=2, decoy_max=2)

    @pytest.mark.parametrize("rule", [MinGradeGap(2), GradeBand(2, 1), GradeBand(3, 0)])
    def test_arrays_admit_elementwise(self, rule):
        grid = [(t, d) for t in range(5) for d in range(5)]
        target = np.array([t for t, _ in grid])
        decoy = np.array([d for _, d in grid])
        assert rule.admits(target, decoy).tolist() == [rule.admits(t, d) for t, d in grid]


class TestDecoyConfig:
    def test_band_bounds_validated(self):
        with pytest.raises(ValueError):
            DecoyConfig(s_min=0.95, s_max=0.6)
        with pytest.raises(ValueError):
            DecoyConfig(s_min=-0.1, s_max=0.9)
        with pytest.raises(ValueError):
            DecoyConfig(delta_rank=0)

    def test_exclusive_upper_bound(self):
        cfg = DecoyConfig(s_min=0.6, s_max=0.95)
        assert cfg.in_band(0.6)
        assert cfg.in_band(0.9499999)
        assert not cfg.in_band(0.95)
        assert not cfg.in_band(0.5999999)

    def test_inclusive_upper_bound(self):
        cfg = DecoyConfig(s_min=0.6, s_max=0.95, s_max_inclusive=True)
        assert cfg.in_band(0.95)
        assert not cfg.in_band(0.9500001)

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_arrays_in_band_elementwise(self, inclusive):
        cfg = DecoyConfig(s_min=0.6, s_max=0.95, s_max_inclusive=inclusive)
        values = [0.0, 0.5999999, 0.6, 0.75, 0.9499999, 0.95, 0.9500001, 1.0, math.nan]
        assert cfg.in_band(np.array(values)).tolist() == [cfg.in_band(v) for v in values]


class TestDecoyPair:
    def kwargs(self, **over):
        base = dict(
            topic_id="t", target_doc="a", decoy_doc="b", similarity=0.9,
            target_rank=1, decoy_rank=2, target_grade=3, decoy_grade=0,
        )
        base.update(over)
        return base

    def test_similarity_clamped(self):
        pair = DecoyPair(**self.kwargs(similarity=1.0 + 5e-7))
        assert pair.similarity == 1.0

    def test_similarity_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DecoyPair(**self.kwargs(similarity=1.1))

    def test_ranks_positive(self):
        with pytest.raises(ValueError):
            DecoyPair(**self.kwargs(target_rank=0))


class TestVectorStore:
    def test_unit_vectors_normalised(self):
        store = VectorStore({"a": np.array([3.0, 4.0])})
        assert np.allclose(store.unit_vector("a"), [0.6, 0.8])

    def test_sim_is_cosine(self):
        store = VectorStore({"a": np.array([1.0, 0.0]), "b": np.array([1.0, 1.0])})
        assert store.sim("a", "b") == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_missing_doc_raises_coverage_error(self):
        store = VectorStore({"a": np.array([1.0, 0.0])})
        with pytest.raises(CoverageError) as exc:
            store.sim("a", "zz")
        assert "zz" in exc.value.missing

    def test_zero_norm_vector_rejected(self):
        with pytest.raises(ValueError, match="bad"):
            VectorStore({"bad": np.array([0.0, 0.0])})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VectorStore({"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.0, 0.0])})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(ValueError, match="doc b has a non-finite component"):
            VectorStore({"a": np.array([1.0, 0.0]), "b": np.array([bad, 1.0])})

    def test_unit_matrix_lists_all_missing(self):
        store = VectorStore({"a": np.array([1.0, 0.0])})
        with pytest.raises(CoverageError) as exc:
            store.unit_matrix(["a", "x", "y"])
        assert exc.value.missing == ["x", "y"]

    def test_topic_view_is_topic_independent(self):
        store = VectorStore({"a": np.array([1.0, 0.0])})
        assert store.topic_view("any") is store

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**-1070])
    def test_extreme_magnitudes_normalise(self, scale):
        # Squaring these components overflows or underflows; the norm must not.
        store = VectorStore({"a": np.array([scale, scale]), "b": np.array([1.0, 1.0])})
        assert np.allclose(store.unit_vector("a"), [math.sqrt(0.5)] * 2, rtol=0, atol=1e-15)
        assert store.sim("a", "b") == pytest.approx(1.0, abs=1e-15)

    def test_ordinary_magnitudes_normalise_bit_for_bit(self):
        rng = np.random.default_rng(3)
        vectors = {f"d{i}": rng.normal(size=6) * 10.0 ** rng.uniform(-8, 8) for i in range(200)}
        store = VectorStore(vectors)
        for doc_id, vec in vectors.items():
            assert np.array_equal(store.unit_vector(doc_id), vec / np.linalg.norm(vec))


class TestPairStore:
    def test_symmetric_lookup(self):
        store = PairStore({("t", "a", "b"): 0.8})
        assert store.topic_view("t").sim("a", "b") == 0.8
        assert store.topic_view("t").sim("b", "a") == 0.8

    def test_missing_pair_raises_coverage_error(self):
        store = PairStore({("t", "a", "b"): 0.8})
        with pytest.raises(CoverageError):
            store.topic_view("t").sim("a", "c")
        with pytest.raises(CoverageError):
            store.topic_view("other").sim("a", "b")

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(ValueError):
            PairStore({("t", "a", "b"): 0.8, ("t", "b", "a"): 0.7})

    def test_topic_view_scopes_lookups(self):
        store = PairStore({("t", "a", "b"): 0.8})
        view = store.topic_view("t")
        assert view.sim("b", "a") == 0.8

    def test_reversed_redeclaration_with_same_value_accepted(self):
        store = PairStore({("t", "a", "b"): 0.8, ("t", "b", "a"): 0.8})
        assert store.topic_view("t").sim("a", "b") == 0.8

    def test_redeclaration_compares_clamped_values(self):
        store = PairStore({("t", "a", "b"): 1.0000005, ("t", "b", "a"): 1.0})
        assert store.topic_view("t").sim("b", "a") == 1.0

    def test_rejected_add_stores_nothing(self):
        store = PairStore({("t", "a", "b"): 0.8})
        with pytest.raises(ValueError, match="conflicting"):
            store.add("t", "b", "a", 0.7)
        with pytest.raises(ValueError, match="outside"):
            store.add("t", "a", "c", float("nan"))
        assert store.topic_view("t").sim("a", "b") == 0.8
        with pytest.raises(CoverageError):
            store.topic_view("t").sim("a", "c")


class TestInteractionTypes:
    def test_click_rejects_negative_dwell(self):
        with pytest.raises(ValueError):
            Click(dwell_seconds=-1.0, usefulness=0)

    def test_click_not_in_serp_rejected(self):
        with pytest.raises(ValueError, match="s1"):
            SerpInteraction(
                serp_id="s1", session_id="x", user_id="u", task_id="k",
                topic_id="t", serp=ranking("a"),
                clicks={"other": Click(dwell_seconds=1.0, usefulness=1)},
            )

    def test_zero_fill_invariant_enforced(self):
        with pytest.raises(ValueError):
            InteractionRecord(
                serp_id="s", doc_id="d", group="target", is_clicked=False,
                dwell_seconds=3.0, usefulness=0, rank=1, task_id="k", user_id="u",
            )
        with pytest.raises(ValueError):
            InteractionRecord(
                serp_id="s", doc_id="d", group="target", is_clicked=False,
                dwell_seconds=0.0, usefulness=2, rank=1, task_id="k", user_id="u",
            )

    def test_group_label_validated(self):
        with pytest.raises(ValueError):
            InteractionRecord(
                serp_id="s", doc_id="d", group="other", is_clicked=True,
                dwell_seconds=1.0, usefulness=1, rank=1, task_id="k", user_id="u",
            )


def log_lists(**over):
    """The lists of a valid two-SERP log over docs a, b, c, with `over`
    replacing some; SERP s1 shows (a, b) with a click on b, s2 shows (c, a)."""
    lists = dict(
        serp_ids=["s1", "s2"], session_ids=["x", "x"], user_ids=["u", "u"],
        task_ids=["k", "k"], topic_ids=["t", "t"], docs=("a", "b", "c"), sizes=[2, 2],
        serp_doc=[0, 1, 2, 0], source_ranks=[1, 2, 1, 2], click_counts=[1, 0],
        click_doc=[1], click_dwell=[3.5], click_usefulness=[2],
    )
    lists.update(over)
    return lists


class TestInteractionLog:
    def test_lists_and_objects_agree(self):
        log = InteractionLog.from_lists(**log_lists())
        assert log.sessions == [
            SerpInteraction("s1", "x", "u", "k", "t", Ranking(("a", "b"), (0.0, 0.0), (1, 2)),
                            {"b": Click(3.5, 2)}),
            SerpInteraction("s2", "x", "u", "k", "t", Ranking(("c", "a"), (0.0, 0.0), (1, 2)),
                            {}),
        ]
        assert InteractionLog(log.sessions) == log
        assert log.offsets.tolist() == [0, 2, 4] and log.click_serp.tolist() == [0]
        assert len(log) == 2 and len(InteractionLog()) == 0

    @pytest.mark.parametrize("over, message", [
        ({"serp_doc": [0, 1, 2, 2]}, "SERP s2: duplicate doc id c in ranking"),
        ({"click_doc": [2]}, "click on doc c absent from SERP s1"),
        ({"click_counts": [2, 0], "click_doc": [1, 1], "click_dwell": [1.0, 2.0],
          "click_usefulness": [0, 0]}, "SERP s1: click on doc b: duplicate click entry"),
        ({"click_dwell": [-1.0]}, "dwell_seconds must be finite and >= 0"),
        ({"click_dwell": [math.nan]}, "dwell_seconds must be finite and >= 0"),
        ({"click_usefulness": [-1]}, "usefulness must be >= 0"),
        ({"serp_doc": [0, 1, 3, 0]}, "doc index outside the doc table"),
        ({"topic_ids": ["t"]}, "id columns differ in length"),
        ({"sizes": [3, 2]}, "sizes do not match"),
        ({"sizes": [5, -1]}, "must be >= 0"),
        ({"source_ranks": [1, 2, 3]}, "sizes do not match"),
        ({"click_counts": [1, 1]}, "click counts do not match"),
        ({"click_dwell": [1.0, 2.0]}, "click counts do not match"),
    ])
    def test_invariants(self, over, message):
        with pytest.raises(ValueError, match=message):
            InteractionLog.from_lists(**log_lists(**over))

    def test_immutable(self):
        log = InteractionLog.from_lists(**log_lists())
        with pytest.raises(AttributeError):
            log.docs = ()


class TestRecordColumns:
    def test_records_round_trip(self):
        records = [
            InteractionRecord("s1", "a", "control", False, 0.0, 0, 2, "k", "u"),
            InteractionRecord("s2", "b", "target", True, 4.5, 10**30, 1, "k", "v"),
        ]
        columns = RecordColumns.of(records)
        assert len(columns) == 2 and list(columns) == records
        assert columns.is_target.tolist() == [False, True]
        assert RecordColumns.of(columns) is columns
