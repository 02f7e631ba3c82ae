"""Similarity computation against brute-force oracles, one cosine for every
vector path, and percentile interpolation against an independently coded
formula and numpy."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoyeval.model import CoverageError, PairStore, VectorStore
from decoyeval.simsig import (
    cosine,
    percentile_threshold,
    topic_pair_values,
    topic_sim_matrix,
)


def oracle_cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def oracle_percentile(values, p):
    s = sorted(values)
    h = (len(s) - 1) * p / 100.0
    lo = math.floor(h)
    if lo + 1 >= len(s):
        return s[lo]
    return s[lo] + (h - lo) * (s[lo + 1] - s[lo])


class TestCosine:
    def test_known_values(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert cosine([1.0, 0.0], [0.0, 3.0]) == 0.0
        assert cosine([2.0, 1.0], [4.0, 2.0]) == pytest.approx(1.0, abs=1e-12)
        assert cosine([1.0, 0.0], [-2.0, 0.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine([1.0], [1.0, 0.0])

    def test_matches_oracle_on_random_vectors(self):
        rng = random.Random(5)
        for _ in range(200):
            dim = rng.randint(1, 8)
            a = [rng.uniform(-3, 3) for _ in range(dim)]
            b = [rng.uniform(-3, 3) for _ in range(dim)]
            if not any(a) or not any(b):
                continue
            assert cosine(a, b) == pytest.approx(oracle_cosine(a, b), abs=1e-12)

    @pytest.mark.parametrize("scale_a, scale_b", [
        (1e200, 1.0), (1.0, 1e-200), (1e300, 1e300), (1e-300, 1e300), (2.0**-1020, 2.0**1020),
    ])
    def test_scale_invariant_at_extreme_magnitudes(self, scale_a, scale_b):
        # Cosine ignores scale, so the oracle on the unscaled vectors is the
        # truth for the scaled ones, whose squares overflow or underflow.
        rng = random.Random(11)
        for _ in range(50):
            a = [rng.uniform(-3, 3) for _ in range(4)]
            b = [rng.uniform(-3, 3) for _ in range(4)]
            got = cosine([x * scale_a for x in a], [y * scale_b for y in b])
            assert got == pytest.approx(oracle_cosine(a, b), abs=1e-12)

    def test_result_never_outside_unit_interval(self):
        rng = random.Random(9)
        for _ in range(500):
            a = [rng.uniform(-1, 1) for _ in range(4)]
            b = [x + rng.uniform(-1e-9, 1e-9) for x in a]
            if not any(a) or not any(b):
                continue
            assert -1.0 <= cosine(a, b) <= 1.0


class TestTopicSimMatrix:
    def random_store(self, rng, n_docs, dim=5):
        vecs = {}
        for i in range(n_docs):
            vecs[f"d{i}"] = np.array([rng.uniform(-2, 2) for _ in range(dim)])
            if not vecs[f"d{i}"].any():
                vecs[f"d{i}"][0] = 1.0
        return vecs, VectorStore(vecs), sorted(vecs)

    def test_vector_path_matches_pairwise_cosine_oracle(self):
        rng = random.Random(13)
        for _ in range(20):
            raw, store, docs = self.random_store(rng, rng.randint(1, 50))
            matrix = topic_sim_matrix(store, docs, "t")
            for i, a in enumerate(docs):
                for j, b in enumerate(docs[i + 1:], i + 1):
                    expected = oracle_cosine(raw[a], raw[b])
                    assert matrix[i, j] == pytest.approx(expected, abs=1e-12)
                assert matrix[i, i] == 1.0

    def test_symmetry_and_diagonal(self):
        rng = random.Random(17)
        _, store, docs = self.random_store(rng, 12)
        m = topic_sim_matrix(store, docs, "t")
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 1.0)

    def test_pair_store_path(self):
        store = PairStore({
            ("t", "a", "b"): 0.8, ("t", "a", "c"): 0.2, ("t", "b", "c"): 0.5,
        })
        m = topic_sim_matrix(store, ["a", "b", "c"], "t")
        assert m[1, 2] == 0.5
        assert m[2, 0] == 0.2

    def test_pair_store_matrix_matches_lookups(self):
        rng = random.Random(21)
        docs = [f"d{i}" for i in range(15)]
        rng.shuffle(docs)
        store = PairStore({
            ("t", a, b): rng.uniform(-1, 1)
            for i, a in enumerate(docs) for b in docs[i + 1:]
        })
        m = topic_sim_matrix(store, docs, "t")
        for i, a in enumerate(docs):
            for j, b in enumerate(docs):
                assert m[i, j] == (1.0 if a == b else store.topic_view("t").sim(a, b))

    def test_pair_store_missing_pairs_all_listed(self):
        store = PairStore({("t", "a", "b"): 0.8})
        with pytest.raises(CoverageError) as exc:
            topic_sim_matrix(store, ["a", "b", "c", "d"], "t")
        assert exc.value.missing == [
            ("t", "a", "c"), ("t", "a", "d"), ("t", "b", "c"), ("t", "b", "d"), ("t", "c", "d"),
        ]

    def test_missing_vector_doc_reported(self):
        store = VectorStore({"a": np.array([1.0, 0.0])})
        with pytest.raises(CoverageError):
            topic_sim_matrix(store, ["a", "nope"], "t")


@st.composite
def vector_sets(draw):
    """2 to 8 vectors of one small or odd dimension whose components span
    extreme magnitudes; some are copies of an earlier drawn vector scaled by
    3, by -1 or by a power of two, whose cosine with it is +-1 or within
    ulps. Copies are not scaled again: a copy of a copy scaled by 2**60
    twice could overflow."""
    dim = draw(st.sampled_from([1, 2, 3, 5, 7, 17, 33, 100]))
    vectors, drawn = [], []
    for _ in range(draw(st.integers(2, 8))):
        if drawn and draw(st.booleans()):
            base = drawn[draw(st.integers(0, len(drawn) - 1))]
            vectors.append(base * draw(st.sampled_from([3.0, -1.0, 2.0**-60, 2.0**60])))
            continue
        mantissa = draw(st.lists(st.floats(0.5, 1.0), min_size=dim, max_size=dim))
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim, max_size=dim))
        shift = draw(st.integers(-900, 900))
        spread = draw(st.lists(st.integers(-20, 20), min_size=dim, max_size=dim))
        drawn.append(np.ldexp(np.multiply(mantissa, signs), np.add(shift, spread)))
        vectors.append(drawn[-1])
    return vectors


class TestOneCosine:
    """Every vector similarity is VectorStore.sim's, to the last bit: the
    matrix and the pooled pair values that mine's thresholds are taken from,
    and cosine."""

    @given(vector_sets())
    @settings(max_examples=150, deadline=None)
    def test_matrix_and_pair_values_equal_sim(self, vectors):
        docs = [f"d{i}" for i in range(len(vectors))]
        store = VectorStore(dict(zip(docs, vectors)))
        matrix = topic_sim_matrix(store, docs, "t")
        expected = [store.sim(a, b) for i, a in enumerate(docs) for b in docs[i + 1:]]
        assert topic_pair_values(store, docs, "t").tolist() == expected
        for i, a in enumerate(docs):
            for j, b in enumerate(docs):
                if i != j:
                    assert matrix[i, j] == store.sim(a, b)

    @given(vector_sets())
    @settings(max_examples=150, deadline=None)
    def test_cosine_is_vector_store_sim(self, vectors):
        a, b = vectors[:2]
        assert cosine(a, b) == VectorStore({"a": a, "b": b}).sim("a", "b")

    def test_pair_values_of_fewer_than_two_docs(self):
        store = VectorStore({"a": np.array([1.0, 0.0])})
        assert store.pair_values([]).shape == (0,)
        assert store.pair_values(["a"]).shape == (0,)


class TestPercentileThreshold:
    def test_frozen_examples(self):
        values = list(range(1, 101))
        assert percentile_threshold(values, 99) == pytest.approx(99.01, abs=1e-12)
        assert percentile_threshold(values, 99.5) == pytest.approx(99.505, abs=1e-12)
        assert percentile_threshold([5.0], 50) == 5.0
        assert percentile_threshold([1.0, 2.0], 75) == pytest.approx(1.75, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            percentile_threshold([], 50)
        with pytest.raises(ValueError):
            percentile_threshold([1.0], 0)
        with pytest.raises(ValueError):
            percentile_threshold([1.0], 100)

    def test_matches_oracle_and_numpy(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 400)
            values = [rng.uniform(-10, 10) for _ in range(n)]
            for p in (rng.uniform(1, 99), 99.0, 99.5, 50.0):
                got = percentile_threshold(values, p)
                assert got == pytest.approx(oracle_percentile(values, p), abs=1e-9)
                assert got == pytest.approx(float(np.percentile(values, p)), abs=1e-9)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           st.floats(0.001, 99.999))
    @settings(max_examples=100, deadline=None)
    def test_order_insensitive_and_bounded(self, values, p):
        got = percentile_threshold(values, p)
        shuffled = list(values)
        random.Random(1).shuffle(shuffled)
        assert percentile_threshold(shuffled, p) == got
        assert min(values) <= got <= max(values)
