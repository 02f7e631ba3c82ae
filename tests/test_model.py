"""Domain type invariants: construction-time validation and lookups."""

import json
import math
import pickle
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoyeval import ingest
from decoyeval.decoy import detect_rows, identify_controls
from decoyeval.simsig import topic_pair_values
from decoyeval.model import (
    CoverageError,
    DecoyConfig,
    DecoyPair,
    GradeBand,
    InteractionLog,
    MinGradeGap,
    PairStore,
    Qrels,
    Ranking,
    RecordColumns,
    RunList,
    VectorStore,
    clamp_similarity,
    declare_pair,
)


def ranking(*doc_ids):
    return Ranking(doc_ids)


# Unicode ids, the empty id and now and then a line break among them; a
# small alphabet repeats ids.
RANKING_IDS = st.text(st.sampled_from("abé") | st.characters(), max_size=3)


def tuple_ranking_fault(doc_ids):
    """The ValueError message Ranking(doc_ids) must raise, from plain tuple
    scans: a line break in an id first, then the first id seen twice."""
    broken = next((d for d in doc_ids if "\n" in d), None)
    if broken is not None:
        return f"doc id {broken!r} holds a line break"
    twice = next((d for i, d in enumerate(doc_ids) if d in doc_ids[:i]), None)
    return None if twice is None else f"duplicate doc id {twice} in ranking"


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
    def test_keeps_only_doc_ids(self):
        # The ids as one string and their count: no score, no per-id object.
        r = ranking("a", "b")
        assert not hasattr(r, "__dict__")
        assert sorted(map(repr, (getattr(r, name) for name in Ranking.__slots__))) == [
            "'a\\nb'", "2"]
        with pytest.raises(TypeError):
            Ranking(("a", "b"), (2.0, 1.0))

    @pytest.mark.parametrize("doc_ids", [("a\nb",), ("a", "\n"), ("\n", "\n")])
    def test_line_break_in_a_doc_id_rejected(self, doc_ids):
        with pytest.raises(ValueError, match="holds a line break"):
            Ranking(doc_ids)

    @given(st.lists(RANKING_IDS, max_size=6), st.lists(RANKING_IDS, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_a_tuple_oracle(self, first, second):
        ids, other = tuple(first), tuple(second)
        fault = tuple_ranking_fault(ids)
        if fault is not None:
            with pytest.raises(ValueError) as exc:
                Ranking(ids)
            assert str(exc.value) == fault
            return
        r = Ranking(ids)
        assert r.doc_ids == ids
        assert (len(r), bool(r)) == (len(ids), bool(ids))
        assert repr(r) == f"Ranking(doc_ids={ids!r})"
        assert hash(r) == hash((ids,))
        for k in range(len(ids) + 2):
            top = r.head(k)
            assert (top.doc_ids, len(top), bool(top)) == (ids[:k], len(ids[:k]), bool(ids[:k]))
            assert top == Ranking(ids[:k]) and hash(top) == hash((ids[:k],))
            assert (top == r) == (ids[:k] == ids)
        if tuple_ranking_fault(other) is None:
            assert (Ranking(other) == r) == (other == ids)
        assert r != ids and r.__eq__(ids) is NotImplemented
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(r, protocol))
            assert type(back) is Ranking and back == r and back.doc_ids == ids

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

    @pytest.mark.parametrize("grade", [False, True])
    def test_boolean_grade_rejected(self, grade):
        # A bool is an int to isinstance, and would print as a JSON boolean.
        with pytest.raises(ValueError, match=f"doc b must be an integer, got {grade}"):
            Qrels(3, {"t": {"b": grade}})

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
        pairs = {}
        declare_pair(pairs, "t", "a", "b", 0.8)
        with pytest.raises(ValueError, match="conflicting"):
            declare_pair(pairs, "t", "b", "a", 0.7)
        with pytest.raises(ValueError, match="outside"):
            declare_pair(pairs, "t", "a", "c", float("nan"))
        assert pairs == {("t", "a", "b"): (0.8, 0)}
        store = PairStore({key: value for key, (value, _) in pairs.items()})
        assert store.topic_view("t").sim("a", "b") == 0.8
        with pytest.raises(CoverageError):
            store.topic_view("t").sim("a", "c")


STORE_TOPICS = ["t1", "t2"]
STORE_DOCS = ["a", "b", "c", "d", "e", "f"]
STORE_VALUES = [0.1, 0.5, 0.7, 0.9, -0.0, -1.0, 1.0000005]


def clamped(value: float) -> float:
    return value if -1.0 <= value <= 1.0 else math.copysign(1.0, value)


def same_float(x: float, y: float) -> bool:
    """Equal, with the sign of a zero."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


@st.composite
def pair_mappings(draw):
    """A mapping (topic, doc_a, doc_b) -> similarity, some pairs in both
    orientations with values equal after the clamp, and the plain dict
    (topic, smaller id, larger id) -> clamped value it declares."""
    sims, oracle = {}, {}
    for _ in range(draw(st.integers(0, 20))):
        topic = draw(st.sampled_from(STORE_TOPICS))
        a, b = draw(st.sampled_from(STORE_DOCS)), draw(st.sampled_from(STORE_DOCS))
        value = oracle.setdefault((topic, *sorted((a, b))),
                                  clamped(draw(st.sampled_from(STORE_VALUES))))
        sims[topic, a, b] = draw(st.sampled_from([value, 1.0000005 if value == 1.0 else value]))
    return sims, oracle


class TestPairStoreAgainstDict:
    @given(pair_mappings())
    @settings(max_examples=200, deadline=None)
    def test_sim_answers_as_the_dict(self, case):
        sims, oracle = case
        store = PairStore(sims)
        assert len(store) == len(oracle)
        for (topic, a, b), value in oracle.items():
            view = store.topic_view(topic)
            assert same_float(view.sim(a, b), value) and same_float(view.sim(b, a), value)

    @given(pair_mappings(), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                                     max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_sim_pairs_equals_sim(self, case, index):
        store = PairStore(case[0])
        docs = [*STORE_DOCS, "absent"]
        a = np.array([i for i, _ in index], dtype=np.intp)
        b = np.array([j for _, j in index], dtype=np.intp)
        for topic in [*STORE_TOPICS, "absent"]:
            view = store.topic_view(topic)
            values, found = view.sim_pairs(docs, a, b)
            for i, j, value, hit in zip(a, b, values, found):
                try:
                    expected = view.sim(docs[i], docs[j])
                except CoverageError:
                    assert not hit and math.isnan(value)
                else:
                    assert hit and same_float(value, expected)

    @given(pair_mappings())
    @settings(max_examples=50, deadline=None)
    def test_sort_without_one_int64_key(self, case):
        # With 2**32 doc codes, topic * n_docs**2 + key overflows int64, so
        # the columns are sorted by (topic, key) in two passes.
        class Wide(dict):
            def __len__(self):
                return 2**32

        sims, oracle = case
        topics, codes = {}, Wide()
        columns = [[table.setdefault(key[i], dict.__len__(table)) for key in sims]
                   for i, table in ((0, topics), (1, codes), (2, codes))]
        store = PairStore.of_columns(topics, codes, *(np.array(c, dtype=np.int64)
                                                      for c in columns),
                                     np.array(list(sims.values()), dtype=np.float64))
        assert len(store) == len(oracle)
        for (topic, a, b), value in oracle.items():
            assert same_float(store.topic_view(topic).sim(b, a), value)

    @pytest.mark.parametrize("sims, message", [
        ({("t", "a", "b"): 0.8, ("t", "b", "a"): 0.7},
         "conflicting similarity for (b, a) in topic t: 0.8 vs 0.7"),
        ({("t", "a", "b"): float("nan")},
         "similarity nan outside [-1, 1] by more than 1e-06 for pair (a, b) in topic t"),
        ({("t", "a", "b"): -1.5},
         "similarity -1.5 outside [-1, 1] by more than 1e-06 for pair (a, b) in topic t"),
    ])
    def test_rejected_mapping_wording(self, sims, message):
        with pytest.raises(ValueError) as exc:
            PairStore(sims)
        assert str(exc.value) == message


class SimOnlySource:
    """The topic views of a PairStore reduced to `sim`, which counts its
    calls by topic and unordered pair."""

    def __init__(self, store: PairStore):
        self.store, self.calls = store, Counter()

    def topic_view(self, topic_id: str):
        view = self.store.topic_view(topic_id)

        def sim(doc_a, doc_b):
            self.calls[topic_id, frozenset((doc_a, doc_b))] += 1
            return view.sim(doc_a, doc_b)

        return SimpleNamespace(sim=sim)


def outcome(call):
    """What `call()` returns, or the text, keys and entry of its CoverageError."""
    try:
        result = call()
    except CoverageError as exc:
        return "gap", str(exc), exc.missing, getattr(exc, "entry", None)
    if isinstance(result, tuple):
        return tuple(np.asarray(x).tolist() if isinstance(x, np.ndarray) else x for x in result)
    return result.tolist()


@st.composite
def lookup_cases(draw):
    """One topic's store with some pairs missing, graded docs, SERP-like rows
    and a doc universe with targets."""
    docs = [f"d{i}" for i in range(7)]
    present = draw(st.lists(st.booleans(), min_size=21, max_size=21))
    sims = {("t", a, b): draw(st.sampled_from([0.2, 0.6, 0.8, 0.9]))
            for (a, b), keep in zip(combinations(docs, 2), present) if keep}
    grades = {d: draw(st.integers(0, 3)) for d in docs}
    rows = draw(st.lists(st.permutations(range(7)).map(lambda p: p[:5]), min_size=1,
                         max_size=4))
    universe = draw(st.lists(st.sampled_from(docs), min_size=2, max_size=7, unique=True))
    targets = set(draw(st.lists(st.sampled_from(docs), max_size=3)))
    return SimpleNamespace(store=PairStore(sims), docs=docs, grades=grades, rows=rows,
                           universe=universe, targets=targets,
                           s_control=draw(st.sampled_from([0.6, 0.85])),
                           rel_window=draw(st.integers(0, 2)))


class TestLookupThroughSimAlone:
    """A view with `sim` alone gives detection, pooled pair values and
    control matching the results, and the coverage errors, of the store's
    own batched view, asking `sim` once for each distinct pair."""

    @given(lookup_cases())
    @settings(max_examples=200, deadline=None)
    def test_same_results_one_call_per_pair(self, case):
        doc = np.array([d for row in case.rows for d in row])
        col = np.array([c for row in case.rows for c in range(len(row))])
        grade = np.array([case.grades[case.docs[d]] for d in doc])
        cfg = DecoyConfig(s_min=0.5, s_max=0.85, quality=MinGradeGap(1), delta_rank=2)
        qrels = Qrels(3, {"t": case.grades})
        calls = {
            "detect_rows": lambda source: detect_rows(
                "t", case.docs, doc, grade, col, source.topic_view("t"), cfg),
            "topic_pair_values": lambda source: topic_pair_values(
                source, case.universe, "t"),
            "identify_controls": lambda source: identify_controls(
                {"t": case.universe}, qrels, case.targets, source, case.s_control,
                case.rel_window),
        }
        for name, call in calls.items():
            sim_only = SimOnlySource(case.store)
            assert outcome(lambda: call(sim_only)) == outcome(lambda: call(case.store)), name
            assert set(sim_only.calls.values()) <= {1}, name


def log_lists(**over):
    """The lists of a valid two-SERP log over docs a, b, c, with `over`
    replacing some; SERP s1 shows (a, b) with a click on b, s2 shows (c, a)."""
    lists = dict(
        serp_ids=["s1", "s2"], session_ids=["x", "x"], user_ids=["u", "u"],
        task_ids=["k", "k"], topic_ids=["t", "t"], docs=("a", "b", "c"), sizes=[2, 2],
        serp_doc=[0, 1, 2, 0], click_counts=[1, 0],
        click_doc=[1], click_dwell=[3.5], click_usefulness=[2],
    )
    lists.update(over)
    return lists


class TestInteractionLog:
    def test_columns(self):
        log = InteractionLog(**log_lists())
        assert log.offsets.tolist() == [0, 2, 4] and log.click_serp.tolist() == [0]
        assert log.serp_doc.tolist() == [0, 1, 2, 0]
        assert log.click_dwell.tolist() == [3.5] and log.click_usefulness.tolist() == [2]
        assert len(log) == 2
        empty = InteractionLog(**{name: [] for name in log_lists()})
        assert len(empty) == 0 and empty.offsets.tolist() == [0]

    @pytest.mark.parametrize("over, equal", [
        ({}, True),
        ({"docs": ("c", "a", "b"), "serp_doc": [1, 2, 0, 1], "click_doc": [2]}, True),
        ({"serp_ids": ("s1", "s2")}, True),
        ({"click_dwell": [3.25]}, False),
        ({"click_usefulness": [1]}, False),
        ({"topic_ids": ["t", "u"]}, False),
        ({"serp_doc": [1, 0, 2, 0], "click_doc": [0]}, False),
        ({"sizes": [3, 1]}, False),
        ({"task_ids": ["k", "j"]}, False),
    ])
    def test_equality_is_content(self, over, equal):
        assert (InteractionLog(**log_lists()) == InteractionLog(**log_lists(**over))) is equal

    def test_equality_ignores_click_order(self):
        two_clicks = log_lists(click_counts=[2, 0], click_doc=[1, 0], click_dwell=[3.5, 1.0],
                               click_usefulness=[2, 0])
        reordered = dict(two_clicks, click_doc=[0, 1], click_dwell=[1.0, 3.5],
                         click_usefulness=[0, 2])
        assert InteractionLog(**two_clicks) == InteractionLog(**reordered)
        # The same click on doc a, on SERP s1 and on SERP s2.
        assert (InteractionLog(**log_lists(click_doc=[0]))
                != InteractionLog(**log_lists(click_counts=[0, 1], click_doc=[0])))
        assert InteractionLog(**log_lists()) != "log"

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
        ({"serp_doc": [0, 1, 2]}, "sizes do not match"),
        ({"click_counts": [1, 1]}, "click counts do not match"),
        ({"click_dwell": [1.0, 2.0]}, "click counts do not match"),
        ({"docs": ("a", "b", "a")}, "doc table holds a doc id twice"),
    ])
    def test_invariants(self, over, message):
        with pytest.raises(ValueError, match=message):
            InteractionLog(**log_lists(**over))

    def test_immutable(self):
        log = InteractionLog(**log_lists())
        with pytest.raises(AttributeError):
            log.docs = ()


class TestInteractionLogPickle:
    @pytest.fixture(params=["planted", "ints beyond int64"])
    def log(self, request, planted_log, tmp_path):
        """A parsed log: the planted one, or one with ints beyond int64 in its
        ranks and usefulness, whose usefulness column is an object array."""
        if request.param == "planted":
            return ingest.parse_interaction_log(planted_log.log)
        big = 10**30
        entry = {"serp_id": "s1", "session_id": "x", "user_id": "u", "task_id": "k",
                 "topic_id": "t", "serp": [{"doc_id": "a", "rank": big},
                                           {"doc_id": "b", "rank": -big},
                                           {"doc_id": "c", "rank": 2**63}],
                 "clicks": [{"doc_id": "b", "dwell_seconds": big, "usefulness": big}]}
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(entry) + "\n")
        log = ingest.parse_interaction_log(path)
        assert log.click_usefulness.dtype == object
        return log

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_round_trip_by_value(self, log, protocol):
        back = pickle.loads(pickle.dumps(log, protocol))
        assert back == log
        for name in InteractionLog.__slots__:
            got, sent = getattr(back, name), getattr(log, name)
            assert type(got) is type(sent)
            if isinstance(sent, np.ndarray):
                assert got.dtype == sent.dtype
                assert got.tolist() == sent.tolist()
            else:
                assert got == sent

    def test_unpickled_without_the_constructor(self, log, monkeypatch):
        data = pickle.dumps(log)
        calls = []
        init = InteractionLog.__init__
        monkeypatch.setattr(InteractionLog, "__init__",
                            lambda self, *args: calls.append(args) or init(self, *args))
        back = pickle.loads(data)
        assert calls == [] and back == log

    def test_unpickled_immutable(self, log):
        back = pickle.loads(pickle.dumps(log))
        with pytest.raises(AttributeError, match="immutable"):
            back.docs = ()


class TestRecordColumns:
    @staticmethod
    def columns(doc_id):
        two = np.zeros(2, dtype=np.int64)
        return RecordColumns(["s1", "s2"], doc_id, two == 0, two == 1, two.astype(np.float64),
                             two, two + 1, ["k", "k"], ["u", "u"])

    def test_columns_must_align(self):
        assert len(self.columns(["a", "b"])) == 2
        # emit_records zips the columns: one short would drop a record.
        with pytest.raises(ValueError, match="record columns differ in length"):
            self.columns(["a"])
