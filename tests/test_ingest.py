"""Parser behaviour: canonical ordering, round-trips, and diagnostics."""

import json
import logging
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decoyeval.ingest as ingest
from decoyeval.ingest import ParseError
from decoyeval.model import Ranking, RunList

from conftest import log_of, record_rows


def write(path, text):
    path.write_text(text)
    return path


def log_record(serp_id="S-bad", **over):
    """A valid interaction-log record, with `over` replacing fields."""
    rec = {
        "serp_id": serp_id, "session_id": "x", "user_id": "u",
        "task_id": "k", "topic_id": "t",
        "serp": [{"doc_id": "D1", "rank": 1}, {"doc_id": "D2", "rank": 2}],
        "clicks": [{"doc_id": "D1", "dwell_seconds": 30.0, "usefulness": 3}],
    }
    rec.update(over)
    return rec


def record_row(**over):
    """A valid interaction-record row, with `over` replacing fields."""
    row = {
        "serp_id": "s1", "doc_id": "d", "group": "target",
        "is_clicked": True, "dwell_seconds": 12.5, "usefulness": 2,
        "rank": 3, "task_id": "k", "user_id": "u",
    }
    row.update(over)
    return row


def one_click(doc_id="D1", **over):
    click = {"doc_id": doc_id, "dwell_seconds": 30.0, "usefulness": 3}
    click.update(over)
    return [click]


# One row per malformed kind: the record on line 2 of a log, and the words
# its one diagnostic must contain (the SERP id and doc where the record has
# them and the check is about them).
MALFORMED_LOG_RECORDS = {
    "not-object": (["S-bad"], ["object"]),
    "missing-id": (
        {k: v for k, v in log_record().items() if k != "task_id"}, ["task_id"]),
    "serp-not-array": (log_record(serp={"doc_id": "D1"}), ["serp"]),
    "entry-without-rank": (log_record(serp=[{"doc_id": "D1"}], clicks=[]), ["rank"]),
    "clicks-not-array": (log_record(clicks="D1"), ["clicks"]),
    "click-without-usefulness": (
        log_record(clicks=[{"doc_id": "D1", "dwell_seconds": 1.0}]), ["usefulness"]),
    "non-numeric-dwell": (
        log_record(clicks=one_click(dwell_seconds="long")), ["dwell_seconds"]),
    "negative-dwell": (
        log_record(clicks=one_click(dwell_seconds=-2.0)), ["S-bad", "D1", "dwell", "-2.0"]),
    "negative-usefulness": (
        log_record(clicks=one_click(usefulness=-1)), ["S-bad", "D1", "usefulness"]),
    "duplicate-doc": (
        log_record(serp=[{"doc_id": "D1", "rank": 1}, {"doc_id": "D2", "rank": 2},
                         {"doc_id": "D1", "rank": 3}], clicks=[]),
        ["S-bad", "D1", "duplicate"]),
    "click-not-shown": (log_record(clicks=one_click("ZZ")), ["S-bad", "ZZ"]),
    "duplicate-click": (
        log_record(clicks=one_click("D2") + one_click("D1") + one_click("D2", usefulness=0)),
        ["S-bad", "D2", "duplicate click"]),
    "null-serp-id": (log_record(None), ["serp_id must be a string", "None"]),
    "numeric-topic-id": (log_record(topic_id=7), ["topic_id must be a string", "7"]),
    "numeric-serp-doc-id": (
        log_record(serp=[{"doc_id": 7, "rank": 1}], clicks=[]),
        ["S-bad", "doc_id must be a string", "7"]),
    "numeric-click-doc-id": (
        log_record(clicks=one_click(7)), ["S-bad", "doc_id must be a string", "7"]),
    "boolean-dwell": (
        log_record(clicks=one_click(dwell_seconds=True)), ["S-bad", "D1", "dwell_seconds"]),
    "dwell-beyond-float": (
        log_record(clicks=one_click(dwell_seconds=10**400)), ["S-bad", "D1", "too large"]),
    # Shapes a whole-column check could wave through: an empty object or a
    # string iterates like an array, and 1.0, True and 2.0 compare equal to
    # integers.
    "serp-empty-object": (
        log_record(serp={}), ["SERP S-bad: serp must be an array of {doc_id, rank}"]),
    "serp-string": (
        log_record(serp="D1"), ["SERP S-bad: serp must be an array of {doc_id, rank}"]),
    "clicks-empty-object": (
        log_record(clicks={}),
        ["SERP S-bad: clicks must be an array of {doc_id, dwell_seconds, usefulness}"]),
    "float-rank": (
        log_record(serp=[{"doc_id": "D1", "rank": 1.0}], clicks=[]),
        ["SERP S-bad: serp rank must be an integer, got 1.0"]),
    "boolean-rank": (
        log_record(serp=[{"doc_id": "D1", "rank": True}], clicks=[]),
        ["SERP S-bad: serp rank must be an integer, got True"]),
    "float-usefulness": (
        log_record(clicks=one_click(usefulness=2.0)),
        ["SERP S-bad: click on doc D1: usefulness must be an integer, got 2.0"]),
    "click-entry-array": (
        log_record(clicks=[["D1", 3.0, 1]]),
        ["SERP S-bad: click entries must have doc_id, dwell_seconds and usefulness"]),
    "serp-entry-array": (
        log_record(serp=[["D1", 1]], clicks=[]),
        ["SERP S-bad: serp entries must have doc_id and rank"]),
}

# Records with two faults, as line 2 of a log whose line 1 is SERP S-ok: the
# full message of the fault that is named.
TWO_FAULT_LOG_RECORDS = {
    "duplicate-doc-and-float-usefulness": (
        log_record(serp=[{"doc_id": "D1", "rank": 1}, {"doc_id": "D2", "rank": 2},
                         {"doc_id": "D1", "rank": 3}], clicks=one_click(usefulness=2.0)),
        "SERP S-bad: duplicate doc id D1 in ranking"),
    "click-not-shown-then-negative-dwell": (
        log_record(clicks=one_click("ZZ") + one_click("D2", dwell_seconds=-1)),
        "SERP S-bad: click on doc D2: dwell_seconds must be >= 0, got -1.0"),
    "duplicate-serp-id-and-bad-click": (
        log_record("S-ok", clicks=one_click(usefulness=-1)),
        "SERP S-ok: click on doc D1: usefulness must be >= 0, got -1"),
    "numeric-topic-id-and-serp-not-array": (
        log_record(topic_id=7, serp="D1"), "topic_id must be a string, got 7"),
    "two-duplicate-docs": (
        log_record(serp=[{"doc_id": d, "rank": 1} for d in ("D1", "D2", "D2", "D1")],
                   clicks=[]),
        "SERP S-bad: duplicate doc id D2 in ranking"),
    "duplicate-click-with-negative-dwell": (
        log_record(clicks=one_click("D1") + one_click("D1", dwell_seconds=-1)),
        "SERP S-bad: click on doc D1: duplicate click entry"),
}


@st.composite
def valid_log_records(draw):
    """The records of a valid log: unique serp_ids, unique docs on each
    SERP, and at most one click per shown doc."""
    ids = st.text(min_size=1, max_size=6)
    records = []
    for serp_id in draw(st.lists(ids, unique=True, max_size=6)):
        docs = draw(st.lists(ids, unique=True, max_size=8))
        ranks = draw(st.lists(st.integers(-5, 10**12), min_size=len(docs), max_size=len(docs)))
        clicked = draw(st.lists(st.sampled_from(docs), unique=True)) if docs else []
        session_id, user_id, task_id, topic_id = draw(st.tuples(ids, ids, ids, ids))
        records.append({
            "serp_id": serp_id, "session_id": session_id, "user_id": user_id,
            "task_id": task_id, "topic_id": topic_id,
            "serp": [{"doc_id": d, "rank": r} for d, r in zip(docs, ranks)],
            "clicks": [{"doc_id": d,
                        "dwell_seconds": draw(st.floats(0.0, 1e9, allow_nan=False,
                                                        allow_infinity=False)),
                        "usefulness": draw(st.integers(0, 10))} for d in clicked],
        })
    return records


def write_log(path, records, ensure_ascii=True):
    path.write_text("".join(json.dumps(r, ensure_ascii=ensure_ascii) + "\n" for r in records),
                    encoding="utf-8")
    return path


class TestParseRun:
    def test_basic_file(self, tmp_path):
        p = write(tmp_path / "run.txt",
                  "t1 Q0 d1 1 9.5 tag\n"
                  "t1 Q0 d2 2 8.0 tag\n"
                  "t2 Q0 d3 1 1.0 tag\n")
        run = ingest.parse_run(p)
        assert run.run_tag == "tag"
        assert run.rankings["t1"].doc_ids == ("d1", "d2")
        assert run.rankings["t2"].doc_ids == ("d3",)

    def test_score_column_wins_over_stated_rank(self, tmp_path):
        # Ranks in the file contradict the scores; scores are authoritative.
        p = write(tmp_path / "run.txt",
                  "t1 Q0 low 1 1.0 tag\n"
                  "t1 Q0 high 2 9.0 tag\n")
        run = ingest.parse_run(p)
        docs = run.rankings["t1"]
        assert docs.doc_ids == ("high", "low")

    def test_score_ties_break_by_rank_column(self, tmp_path):
        p = write(tmp_path / "run.txt",
                  "t1 Q0 aa 2 5.0 tag\n"
                  "t1 Q0 zz 1 5.0 tag\n"
                  "t1 Q0 mm 3 6.0 tag\n")
        run = ingest.parse_run(p)
        assert run.rankings["t1"].doc_ids == ("mm", "zz", "aa")

    def test_score_and_rank_ties_break_by_doc_id(self, tmp_path):
        p = write(tmp_path / "run.txt",
                  "t1 Q0 zz 1 5.0 tag\n"
                  "t1 Q0 aa 1 5.0 tag\n"
                  "t1 Q0 bb 0 5.0 tag\n")
        run = ingest.parse_run(p)
        assert run.rankings["t1"].doc_ids == ("bb", "aa", "zz")

    def test_line_order_irrelevant(self, tmp_path):
        lines = [f"t1 Q0 d{i} {i} {100 - i}.0 tag\n" for i in range(1, 21)]
        shuffled = lines[:]
        random.Random(3).shuffle(shuffled)
        a = ingest.parse_run(write(tmp_path / "a.txt", "".join(lines)))
        b = ingest.parse_run(write(tmp_path / "b.txt", "".join(shuffled)))
        assert a.rankings == b.rankings

    def test_bad_field_count_diagnostic_names_line(self, tmp_path):
        p = write(tmp_path / "run.txt", "t1 Q0 d1 1 9.5 tag\nt1 Q0 d2 2\n")
        with pytest.raises(ParseError) as exc:
            ingest.parse_run(p)
        assert any(d.line == 2 for d in exc.value.diagnostics)
        assert "run.txt:2" in str(exc.value)

    def test_nan_score_rejected(self, tmp_path):
        p = write(tmp_path / "run.txt", "t1 Q0 d1 1 nan tag\n")
        with pytest.raises(ParseError, match="score"):
            ingest.parse_run(p)

    def test_duplicate_doc_names_both_lines(self, tmp_path):
        p = write(tmp_path / "run.txt",
                  "t1 Q0 d1 1 9.0 tag\n"
                  "t1 Q0 d2 2 8.0 tag\n"
                  "t1 Q0 d1 3 7.0 tag\n")
        with pytest.raises(ParseError) as exc:
            ingest.parse_run(p)
        message = str(exc.value)
        assert "line 1" in message and "run.txt:3" in message

    def test_same_doc_in_two_topics_is_not_a_duplicate(self, tmp_path):
        p = write(tmp_path / "run.txt",
                  "t1 Q0 d1 1 9.0 tag\n"
                  "t2 Q0 d1 1 8.0 tag\n")
        run = ingest.parse_run(p)
        assert run.rankings["t1"].doc_ids == run.rankings["t2"].doc_ids == ("d1",)

    def test_duplicate_in_interleaved_topics_names_its_first_line(self, tmp_path):
        p = write(tmp_path / "run.txt",
                  "t1 Q0 d1 1 9.0 tag\n"
                  "t2 Q0 d1 1 9.0 tag\n"
                  "t2 Q0 d2 2 8.0 tag\n"
                  "t1 Q0 d2 2 8.0 tag\n"
                  "t2 Q0 d1 3 7.0 tag\n"
                  "t1 Q0 d2 3 7.0 tag\n")
        with pytest.raises(ParseError) as exc:
            ingest.parse_run(p)
        assert [(d.line, d.message) for d in exc.value.diagnostics] == [
            (5, "duplicate (topic, doc) (t2, d1), first on line 2"),
            (6, "duplicate (topic, doc) (t1, d2), first on line 4"),
        ]

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            ingest.parse_run(write(tmp_path / "run.txt", ""))

    def test_q0_case_insensitive(self, tmp_path):
        p = write(tmp_path / "run.txt", "t1 q0 d1 1 9.0 tag\n")
        assert ingest.parse_run(p).rankings["t1"].doc_ids == ("d1",)

    def test_surprising_q0_value_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            ingest.parse_run(write(tmp_path / "run.txt", "t1 QX d1 1 9.0 tag\n"))

    @staticmethod
    def bytes_a_ranked_doc(path, n_docs):
        """Bytes a ranked doc that parse_run's RunList holds, ids included,
        and that the read held at its peak (tracemalloc)."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run = ingest.parse_run(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, run.rankings.values())) == n_docs
        return (held - before) / n_docs, (peak - before) / n_docs

    def test_parsed_run_keeps_no_scores(self, tmp_path):
        # 20 topics of 500 docs with distinct scores. With one str object a
        # doc id, a run held about 77 bytes a ranked doc and peaked near 104;
        # joined ids hold about 18, and a closed block's scores and ranks
        # wait for the end of the read at 8 bytes a line each.
        p = tmp_path / "run.txt"
        rng = random.Random(5)
        with open(p, "w") as fh:
            fh.writelines(f"q{t} Q0 q{t}-doc{j:04d} {j + 1} {rng.uniform(-50, 50)!r} sys\n"
                          for t in range(20) for j in range(500))
        held, peak = self.bytes_a_ranked_doc(p, 10_000)
        assert held <= 32, f"{held:.1f} bytes a ranked doc"
        assert peak <= 64, f"{peak:.1f} bytes a ranked doc at the peak"

    def test_interleaved_run_is_expanded_once(self, tmp_path):
        # 200 topics of 50 docs, the topic changing on every line: each
        # topic's first block closes after one line and is reopened at its
        # second, and then stays open, as every topic did before ids were
        # joined (about 93 bytes a doc at the peak). Closing every block
        # again, with one segment kept per block, peaked at 382.
        p = tmp_path / "run.txt"
        rng = random.Random(5)
        with open(p, "w") as fh:
            fh.writelines(f"q{t} Q0 q{t}-doc{j:04d} {j + 1} {rng.uniform(-50, 50)!r} sys\n"
                          for j in range(50) for t in range(200))
        held, peak = self.bytes_a_ranked_doc(p, 10_000)
        assert held <= 32, f"{held:.1f} bytes a ranked doc"
        assert peak <= 100, f"{peak:.1f} bytes a ranked doc at the peak"


class TestParseQrels:
    def test_basic(self, tmp_path):
        p = write(tmp_path / "q.txt", "t1 0 d1 3\nt1 0 d2 0\nt2 0 d1 1\n")
        q = ingest.parse_qrels(p, g_max=3)
        assert q.grades_for("t1") == {"d1": 3, "d2": 0}
        assert q.g_max == 3

    def test_grade_out_of_range(self, tmp_path):
        p = write(tmp_path / "q.txt", "t1 0 d1 4\n")
        with pytest.raises(ParseError, match="out of range"):
            ingest.parse_qrels(p, g_max=3)

    def test_conflicting_duplicate_rejected(self, tmp_path):
        p = write(tmp_path / "q.txt", "t1 0 d1 3\nt1 0 d1 2\n")
        with pytest.raises(ParseError):
            ingest.parse_qrels(p, g_max=3)

    def test_identical_duplicate_warns_only(self, tmp_path, caplog):
        p = write(tmp_path / "q.txt", "t1 0 d1 3\nt1 0 d1 3\n")
        with caplog.at_level(logging.WARNING):
            q = ingest.parse_qrels(p, g_max=3)
        assert q.grades_for("t1") == {"d1": 3}
        assert any("duplicate" in r.message for r in caplog.records)


class TestParseVectors:
    def test_basic(self, tmp_path):
        p = write(tmp_path / "v.jsonl",
                  '{"doc_id": "a", "vector": [1.0, 0.0]}\n'
                  '{"doc_id": "b", "vector": [0.0, 2.0]}\n')
        store = ingest.parse_vectors(p)
        assert store.sim("a", "b") == 0.0
        assert store.dim == 2

    def test_dim_mismatch_names_both_lines(self, tmp_path):
        p = write(tmp_path / "v.jsonl",
                  '{"doc_id": "a", "vector": [1.0, 0.0]}\n'
                  '{"doc_id": "b", "vector": [1.0]}\n')
        with pytest.raises(ParseError) as exc:
            ingest.parse_vectors(p)
        assert "line 1" in str(exc.value)

    def test_zero_vector_rejected(self, tmp_path):
        p = write(tmp_path / "v.jsonl", '{"doc_id": "a", "vector": [0.0, 0.0]}\n')
        with pytest.raises(ParseError, match="zero-norm"):
            ingest.parse_vectors(p)

    def test_duplicate_doc_rejected(self, tmp_path):
        p = write(tmp_path / "v.jsonl",
                  '{"doc_id": "a", "vector": [1.0]}\n{"doc_id": "a", "vector": [2.0]}\n')
        with pytest.raises(ParseError, match="duplicate vector"):
            ingest.parse_vectors(p)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            ingest.parse_vectors(write(tmp_path / "v.jsonl", ""))

    def test_vec_field_named_on_its_line(self, tmp_path):
        p = write(tmp_path / "v.jsonl",
                  '{"doc_id": "a", "vector": [1.0]}\n{"doc_id": "b", "vec": [2.0]}\n')
        with pytest.raises(ParseError) as exc:
            ingest.parse_vectors(p)
        assert [(d.line, "vector" in d.message) for d in exc.value.diagnostics] == [(2, True)]

    @pytest.mark.parametrize("component, shown", [
        ("NaN", "nan"), ("Infinity", "inf"), ("1e400", "inf"), ("true", "True"),
    ])
    def test_non_finite_or_boolean_component_pinned_to_its_line(
        self, tmp_path, component, shown
    ):
        p = write(tmp_path / "v.jsonl",
                  '{"doc_id": "a", "vector": [1.0, 0.0]}\n'
                  f'{{"doc_id": "b", "vector": [0.5, {component}]}}\n'
                  '{"doc_id": "c", "vector": [0.0, 1.0]}\n')
        with pytest.raises(ParseError) as exc:
            ingest.parse_vectors(p)
        assert [(d.line, d.message) for d in exc.value.diagnostics] == [
            (2, f"vector component 1 must be a finite number, got {shown}"),
        ]
        assert f"v.jsonl:2: vector component 1" in str(exc.value)


class TestParsePairSims:
    def test_basic_symmetric(self, tmp_path):
        p = write(tmp_path / "p.tsv", "t1\tb\ta\t0.8\n")
        store = ingest.parse_pair_sims(p)
        assert store.topic_view("t1").sim("a", "b") == 0.8

    def test_conflicting_duplicate_names_lines(self, tmp_path):
        p = write(tmp_path / "p.tsv", "t1\ta\tb\t0.8\nt1\tb\ta\t0.7\n")
        with pytest.raises(ParseError) as exc:
            ingest.parse_pair_sims(p)
        assert "line 1" in str(exc.value)

    def test_out_of_range_similarity_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            ingest.parse_pair_sims(write(tmp_path / "p.tsv", "t1\ta\tb\t1.5\n"))

    def test_wrong_field_count_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            ingest.parse_pair_sims(write(tmp_path / "p.tsv", "t1\ta\t0.5\n"))

    def test_reversed_redeclaration_with_same_value_accepted(self, tmp_path):
        p = write(tmp_path / "p.tsv", "t1\ta\tb\t0.8\nt1\tb\ta\t0.8\n")
        assert ingest.parse_pair_sims(p).topic_view("t1").sim("b", "a") == 0.8

    def test_reversed_conflict_names_first_line(self, tmp_path):
        p = write(tmp_path / "p.tsv", "t1\ta\tb\t0.8\nt1\tb\ta\t0.8\nt1\tb\ta\t0.7\n")
        with pytest.raises(ParseError) as exc:
            ingest.parse_pair_sims(p)
        assert [str(d) for d in exc.value.diagnostics] == [
            f"{p}:3: conflicting similarity for (b, a) in topic t1: 0.8 vs 0.7, first on line 1"
        ]

    def test_redeclaration_compares_clamped_values(self, tmp_path):
        p = write(tmp_path / "p.tsv", "t1\ta\tb\t1.0000005\nt1\tb\ta\t1.0\n")
        assert ingest.parse_pair_sims(p).topic_view("t1").sim("a", "b") == 1.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.5"])
    def test_out_of_range_similarity_located(self, tmp_path, value):
        p = write(tmp_path / "p.tsv", f"t1\ta\tb\t0.5\nt1\ta\tc\t{value}\n")
        with pytest.raises(ParseError) as exc:
            ingest.parse_pair_sims(p)
        assert [(d.line, "outside [-1, 1]" in d.message) for d in exc.value.diagnostics] == [
            (2, True)
        ]

    def test_non_numeric_similarity_wording(self, tmp_path):
        p = write(tmp_path / "p.tsv", "t1\ta\tb\tx\n")
        with pytest.raises(ParseError) as exc:
            ingest.parse_pair_sims(p)
        assert [str(d) for d in exc.value.diagnostics] == [f"{p}:1: non-numeric similarity 'x'"]


class TestParseInteractionLog:
    def test_basic(self, tmp_path):
        p = write(tmp_path / "log.jsonl", json.dumps(log_record("s1")) + "\n")
        log = ingest.parse_interaction_log(p)
        assert len(log) == 1 and log.serp_ids == ["s1"]
        assert [log.docs[i] for i in log.click_doc] == ["D1"]
        assert log.click_dwell.tolist() == [30.0] and log.click_usefulness.tolist() == [3]

    def test_ranks_renormalised_with_source_kept(self, tmp_path):
        entry = log_record("s1", serp=[{"doc_id": "a", "rank": 3}, {"doc_id": "b", "rank": 7}],
                           clicks=[])
        p = write(tmp_path / "log.jsonl", json.dumps(entry) + "\n")
        log = ingest.parse_interaction_log(p)
        assert [log.docs[i] for i in log.serp_doc] == ["a", "b"]
        assert log.entry_cols().tolist() == [0, 1]

    def test_rank_values_not_kept(self, tmp_path):
        # A doc's rank is its position on the SERP, whatever the file states.
        logs = []
        for ranks in ((1, 2), (7, -3)):
            serp = [{"doc_id": d, "rank": r} for d, r in zip(("D1", "D2"), ranks)]
            entry = log_record("s1", serp=serp)
            p = write(tmp_path / f"log{ranks[0]}.jsonl", json.dumps(entry) + "\n")
            logs.append(ingest.parse_interaction_log(p))
        assert logs[0] == logs[1]

    def test_log_arrays_hold_8_bytes_an_entry(self, planted_log):
        # An offset per SERP and one more, a doc index per displayed entry and
        # four values per click. A kept rank column took 8 more bytes an entry.
        log = ingest.parse_interaction_log(planted_log.log)
        columns = (getattr(log, name) for name in log.__slots__)
        held = sum(column.nbytes for column in columns if isinstance(column, np.ndarray))
        assert len(log.serp_doc) and len(log.click_doc)
        assert held <= 8 * (len(log.serp_doc) + len(log) + 1) + 32 * len(log.click_doc)

    def test_empty_log_is_valid(self, tmp_path):
        log = ingest.parse_interaction_log(write(tmp_path / "log.jsonl", ""))
        assert len(log) == 0 and log == log_of([])

    def rejected_line(self, tmp_path, *entries):
        """The one diagnostic of a log made of `entries`: (file, line, message)."""
        p = write(tmp_path / "log.jsonl", "".join(json.dumps(e) + "\n" for e in entries))
        with pytest.raises(ParseError) as exc:
            ingest.parse_interaction_log(p)
        [diag] = exc.value.diagnostics
        return diag.file, diag.line, diag.message

    @pytest.mark.parametrize("bad, needles", MALFORMED_LOG_RECORDS.values(),
                             ids=list(MALFORMED_LOG_RECORDS))
    def test_malformed_record_located(self, tmp_path, bad, needles):
        file, line, message = self.rejected_line(tmp_path, log_record("S-ok"), bad)
        assert (file, line) == (str(tmp_path / "log.jsonl"), 2)
        for needle in needles:
            assert needle in message

    @pytest.mark.parametrize("bad, message", TWO_FAULT_LOG_RECORDS.values(),
                             ids=list(TWO_FAULT_LOG_RECORDS))
    def test_first_of_two_faults_named(self, tmp_path, bad, message):
        assert self.rejected_line(tmp_path, log_record("S-ok"), bad) == (
            str(tmp_path / "log.jsonl"), 2, message)

    def test_faulty_record_claims_no_serp_id(self, tmp_path):
        # Only a record that passes its checks claims its serp_id.
        bad = log_record("s1", clicks=one_click(usefulness=-1))
        assert self.rejected_line(tmp_path, bad, log_record("s1")) == (
            str(tmp_path / "log.jsonl"), 1,
            "SERP s1: click on doc D1: usefulness must be >= 0, got -1")

    @given(valid_log_records(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_valid_log_round_trips(self, tmp_path_factory, records, ensure_ascii):
        p = write_log(tmp_path_factory.mktemp("log") / "log.jsonl", records, ensure_ascii)
        assert ingest.parse_interaction_log(p) == log_of(records)

    @given(valid_log_records())
    @settings(max_examples=100, deadline=None)
    def test_checked_read_equals_fast_read(self, tmp_path_factory, records):
        p = write_log(tmp_path_factory.mktemp("log") / "log.jsonl", records)
        fast = ingest._read_log(p, None)
        assert fast is not None
        assert ingest._read_log(p, {}) == fast

    def test_ints_beyond_int64_kept(self, tmp_path):
        # Rank and usefulness columns must neither wrap nor reject such ints.
        big = 10**30
        entry = log_record("s1", serp=[{"doc_id": "a", "rank": big},
                                       {"doc_id": "b", "rank": -big},
                                       {"doc_id": "c", "rank": 2**63}],
                           clicks=[{"doc_id": "b", "dwell_seconds": big, "usefulness": big}])
        p = write(tmp_path / "log.jsonl", json.dumps(entry) + "\n")
        log = ingest.parse_interaction_log(p)
        assert [log.docs[i] for i in log.serp_doc] == ["a", "b", "c"]
        assert log.click_dwell.tolist() == [float(big)] and log.click_usefulness.tolist() == [big]

    def test_valid_log_read_once_faulty_twice(self, tmp_path, monkeypatch):
        calls = count_reads(monkeypatch)
        p = write(tmp_path / "log.jsonl", json.dumps(log_record("s1")) + "\n")
        ingest.parse_interaction_log(p)
        assert len(calls) == 1
        write(p, json.dumps(log_record("s1")) + "\n" + json.dumps(log_record("s1")) + "\n")
        with pytest.raises(ParseError) as exc:
            ingest.parse_interaction_log(p)
        assert len(calls) == 3
        assert exc.value.__context__ is None

    def test_non_integer_rank_located(self, tmp_path):
        bad = log_record("s1", serp=[{"doc_id": "a", "rank": "first"}], clicks=[])
        file, line, message = self.rejected_line(tmp_path, log_record("s0"), bad)
        assert (file, line) == (str(tmp_path / "log.jsonl"), 2)
        assert "rank" in message and "'first'" in message

    @pytest.mark.parametrize("dwell", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_dwell_located(self, tmp_path, dwell):
        bad = log_record("s1", clicks=one_click(dwell_seconds=dwell, usefulness=1))
        file, line, message = self.rejected_line(tmp_path, bad)
        assert (file, line) == (str(tmp_path / "log.jsonl"), 1)
        assert "dwell_seconds must be finite" in message

    def test_boolean_usefulness_located(self, tmp_path):
        bad = log_record("s1", clicks=one_click(dwell_seconds=3.0, usefulness=True))
        file, line, message = self.rejected_line(tmp_path, bad)
        assert (file, line) == (str(tmp_path / "log.jsonl"), 1)
        assert "usefulness must be an integer" in message

    def test_duplicate_serp_id_located(self, tmp_path):
        file, line, message = self.rejected_line(
            tmp_path, log_record("s1"), log_record("s2"), log_record("s1"))
        assert (file, line) == (str(tmp_path / "log.jsonl"), 3)
        assert "duplicate serp_id s1" in message and "line 1" in message


class TestParseRecords:
    def test_round_trip_fields(self, tmp_path):
        row = {
            "serp_id": "s1", "doc_id": "d", "group": "target",
            "is_clicked": True, "dwell_seconds": 12.5, "usefulness": 2,
            "rank": 3, "task_id": "k", "user_id": "u",
        }
        p = write(tmp_path / "r.jsonl", json.dumps(row) + "\n")
        rec = record_rows(ingest.parse_records(p))[0]
        assert rec.dwell_seconds == 12.5
        assert rec.group == "target"
        assert rec.rank == 3

    def test_zero_fill_violation_rejected(self, tmp_path):
        row = {
            "serp_id": "s1", "doc_id": "d", "group": "target",
            "is_clicked": False, "dwell_seconds": 12.5, "usefulness": 0,
            "rank": 3, "task_id": "k", "user_id": "u",
        }
        p = write(tmp_path / "r.jsonl", json.dumps(row) + "\n")
        with pytest.raises(ParseError):
            ingest.parse_records(p)

    def test_mistyped_fields_located(self, tmp_path):
        bad = [
            record_row(is_clicked="no"), record_row(usefulness=2.7), record_row(rank=True),
            record_row(dwell_seconds=False), record_row(serp_id=5), record_row(group=None),
            record_row(dwell_seconds=float("nan")), record_row(dwell_seconds=10**400),
        ]
        p = write(tmp_path / "r.jsonl", "".join(json.dumps(r) + "\n" for r in [record_row(), *bad]))
        with pytest.raises(ParseError) as exc:
            ingest.parse_records(p)
        assert [(d.line, d.message) for d in exc.value.diagnostics] == [
            (2, "is_clicked must be a boolean, got 'no'"),
            (3, "usefulness must be an integer, got 2.7"),
            (4, "rank must be an integer, got True"),
            (5, "dwell_seconds must be a number, got False"),
            (6, "serp_id must be a string, got 5"),
            (7, "group must be a string, got None"),
            (8, "dwell_seconds must be finite, got nan"),
            (9, "int too large to convert to float"),
        ]

    def test_integer_dwell_read_as_float(self, tmp_path):
        p = write(tmp_path / "r.jsonl", json.dumps(record_row(dwell_seconds=12)) + "\n")
        rec = record_rows(ingest.parse_records(p))[0]
        assert rec.dwell_seconds == 12.0 and isinstance(rec.dwell_seconds, float)


VALID_LINES = {
    "run": "t1 Q0 d1 1 9.0 tag",
    "qrels": "t1 0 d1 3",
    "vectors": '{"doc_id": "a", "vector": [1.0, 0.0]}',
    "pair_sims": "t1\ta\tb\t0.8",
    "interaction_log": json.dumps(log_record("s1")),
    "records": json.dumps(record_row()),
}

PARSERS = {
    "run": ingest.parse_run,
    "qrels": lambda p: ingest.parse_qrels(p, g_max=3),
    "vectors": ingest.parse_vectors,
    "pair_sims": ingest.parse_pair_sims,
    "interaction_log": ingest.parse_interaction_log,
    # As rows, which compare by value.
    "records": lambda p: record_rows(ingest.parse_records(p)),
}

# (parser, the malformed line, the one diagnostic's message)
BAD_LINES = [
    ("run", "t1 Q0 d2 2", "expected 6 fields, got 4"),
    ("run", "t1 QX d2 2 8.0 tag", "expected literal Q0, got 'QX'"),
    ("run", "t1 Q0 d2 two 8.0 tag", "non-numeric rank 'two'"),
    ("run", "t1 Q0 d2 2 high tag", "non-numeric score 'high'"),
    ("run", "t1 Q0 d2 2 nan tag", "score is NaN"),
    ("run", "t1 Q0 d1 2 8.0 tag", "duplicate (topic, doc) (t1, d1), first on line 1"),
    ("qrels", "t1 0 d2", "expected 4 fields, got 3"),
    ("qrels", "t1 0 d2 high", "non-integer grade 'high'"),
    ("qrels", "t1 0 d2 4", "grade out of range: 4 not in [0, 3]"),
    ("qrels", "t1 0 d1 2", "conflicting grade for (t1, d1): 3 on line 1, 2 here"),
    ("vectors", '{"doc_id": "b", "vector": [1.0,]}', "invalid JSON: Expecting value"),
    ("vectors", '{"doc_id": "b"}', "record must have doc_id and vector fields"),
    ("vectors", '{"doc_id": "b", "vec": [1.0]}', 'the vector field is named "vector", not "vec"'),
    ("vectors", '{"doc_id": 7, "vector": [1.0, 0.0]}', "doc_id must be a string, got 7"),
    ("vectors", '{"doc_id": "b", "vector": []}', "vector must be a non-empty flat array"),
    ("vectors", '{"doc_id": "b", "vector": [1.0, 10' + "0" * 400 + "]}",
     "vector component 1 must be a finite number, got 10" + "0" * 400),
    ("vectors", '{"doc_id": "a", "vector": [0.0, 1.0]}',
     "duplicate vector for doc a, first on line 1"),
    ("vectors", '{"doc_id": "b", "vector": [1.0]}', "dimension mismatch: 1 here vs 2 on line 1"),
    ("vectors", '{"doc_id": "b", "vector": [0.0, 0.0]}', "zero-norm vector for doc b"),
    ("pair_sims", "t1\ta\t0.5", "expected 4 tab-separated fields, got 3"),
    ("pair_sims", "t1\ta\tc\thigh", "non-numeric similarity 'high'"),
    ("pair_sims", "t1\tb\ta\t0.7",
     "conflicting similarity for (b, a) in topic t1: 0.8 vs 0.7, first on line 1"),
    ("interaction_log", '{"serp_id": "s2",', "invalid JSON: Expecting property name enclosed in "
     "double quotes"),
    ("interaction_log", "[1]", "record must be an object"),
    ("interaction_log", json.dumps(log_record("s1")), "duplicate serp_id s1, first on line 1"),
    ("records", "{'serp_id': 's1'}", "invalid JSON: Expecting property name enclosed in "
     "double quotes"),
    ("records", json.dumps({"serp_id": "s1"}), "record fields do not match InteractionRecord"),
    ("records", json.dumps(record_row(dwell_seconds=10**400)), "int too large to convert to float"),
    ("records", json.dumps(record_row(group="both")),
     "group must be 'target' or 'control', got 'both'"),
    ("records", json.dumps(record_row(is_clicked=False)),
     "unclicked record must have dwell_seconds = 0 and usefulness = 0"),
    ("records", json.dumps(record_row(dwell_seconds=-1)), "dwell_seconds must be >= 0, got -1.0"),
    ("records", json.dumps(record_row(usefulness=-1)), "usefulness must be >= 0, got -1"),
    ("records", json.dumps(record_row(rank=0)), "rank must be >= 1, got 0"),
]


class TestEveryParser:
    """Each parser reads its file through the one line reader: blank and
    whitespace-only lines are skipped, LF and CRLF both work, and a bad line
    is one diagnostic at its own line number."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "kind, bad, message", BAD_LINES,
        ids=[f"{kind}-{i}" for i, (kind, _, _) in enumerate(BAD_LINES)],
    )
    def test_one_bad_line_one_diagnostic(self, tmp_path, kind, bad, message, newline):
        lines = [VALID_LINES[kind], "", " \t ", bad]
        p = tmp_path / f"{kind}.txt"
        p.write_bytes("".join(line + newline for line in lines).encode("utf-8"))
        with pytest.raises(ParseError) as exc:
            PARSERS[kind](p)
        assert [(d.file, d.line, d.message) for d in exc.value.diagnostics] == [
            (str(p), 4, message)
        ]

    @pytest.mark.parametrize("kind", list(PARSERS))
    def test_valid_line_between_blank_lines_parses(self, tmp_path, kind):
        p = write(tmp_path / f"{kind}.txt", f"\n  \n{VALID_LINES[kind]}\n\t\n")
        assert PARSERS[kind](p)

    @pytest.mark.parametrize("kind", list(PARSERS))
    def test_bad_lines_reported_in_file_order(self, tmp_path, kind):
        bad = [line for k, line, _ in BAD_LINES if k == kind][:2]
        p = write(tmp_path / f"{kind}.txt", "\n".join([VALID_LINES[kind], *bad, *bad]) + "\n")
        with pytest.raises(ParseError) as exc:
            PARSERS[kind](p)
        assert [d.line for d in exc.value.diagnostics] == [2, 3, 4, 5]


class TestNonUtf8:
    @pytest.mark.parametrize("kind", list(PARSERS))
    def test_bad_byte_pinned_to_its_line(self, tmp_path, kind):
        p = tmp_path / f"{kind}.txt"
        p.write_bytes(VALID_LINES[kind].encode() + b"\n\n\xff" + VALID_LINES[kind].encode() + b"\n")
        with pytest.raises(ParseError) as exc:
            PARSERS[kind](p)
        assert [str(d) for d in exc.value.diagnostics] == [
            f"{p}:3: invalid UTF-8: byte 0xff (invalid start byte)"
        ]

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_line_counted_past_the_first_decoded_block(self, tmp_path, newline):
        # Text mode decodes in blocks of several KB: the bad byte sits well
        # past the first, after an earlier bad line whose diagnostic is kept.
        lines = [b"t1 0 d%d 1" % i for i in range(3000)]
        lines[5] = b"t1 0 dx"
        lines[2500] = b"t1 0 d\xc3( 1"
        p = tmp_path / "q.txt"
        p.write_bytes(newline.join(lines) + newline)
        with pytest.raises(ParseError) as exc:
            ingest.parse_qrels(p, g_max=3)
        assert [(d.line, d.message) for d in exc.value.diagnostics] == [
            (6, "expected 4 fields, got 3"),
            (2501, "invalid UTF-8: byte 0xc3 (invalid continuation byte)"),
        ]


def tuple_sort_parse_run(path):
    """Reference run parser: one (-score, rank column, doc id) row per line,
    a doc -> first line map per topic that names each duplicate, and a plain
    tuple sort of each topic."""
    topics = {}
    run_tag = None

    def parse_line(lineno, line):
        nonlocal run_tag
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"expected 6 fields, got {len(parts)}")
        topic_id, q0, doc_id, rank_s, score_s, tag = parts
        if q0.lower() != "q0":
            raise ValueError(f"expected literal Q0, got {q0!r}")
        try:
            file_rank = int(rank_s)
        except ValueError:
            raise ValueError(f"non-numeric rank {rank_s!r}") from None
        try:
            score = float(score_s)
        except ValueError:
            raise ValueError(f"non-numeric score {score_s!r}") from None
        if math.isnan(score):
            raise ValueError("score is NaN")
        first_line, rows = topics.setdefault(topic_id, ({}, []))
        seen = first_line.setdefault(doc_id, lineno)
        if seen != lineno:
            raise ValueError(f"duplicate (topic, doc) ({topic_id}, {doc_id}), first on line {seen}")
        run_tag = run_tag or tag
        rows.append((-score, file_rank, doc_id))

    ingest._read_lines(path, parse_line)
    if not topics:
        raise ParseError(path, [ingest.ParseDiagnostic(str(path), 1, "run file has no ranked lines")])
    rankings = {}
    for topic_id, (_, rows) in topics.items():
        rows.sort()
        rankings[topic_id] = Ranking(tuple(row[2] for row in rows))
    return RunList(run_tag or "", rankings)


def parse_both(path):
    """parse_run and the reference on one file: each one's RunList, or the
    (file, line, message) of each of its diagnostics."""
    outcomes = []
    for parse in (ingest.parse_run, tuple_sort_parse_run):
        try:
            outcomes.append(parse(path))
        except ParseError as exc:
            outcomes.append([(d.file, d.line, d.message) for d in exc.diagnostics])
    return outcomes


# Score spellings with ties, signed zeros and infinities among them.
SCORE_TEXTS = ["3", "3.0", "2.5", "1e0", "1", "0", "0.0", "-0.0", "-0", "-1.5",
               "inf", "-inf", "Infinity", "+2.5"]
RUN_TOPICS = ["t1", "t2", "t3"]


@st.composite
def run_rows(draw, doc_pool, unique):
    """(topic, doc, rank text, score text) rows, doc ids drawn from
    `doc_pool`; unless `unique`, a small pool repeats (topic, doc) pairs."""
    return draw(st.lists(st.tuples(
        st.sampled_from(RUN_TOPICS),
        st.sampled_from(doc_pool),
        st.integers(-2, 4).map(str),
        st.one_of(st.sampled_from(SCORE_TEXTS),
                  st.floats(allow_nan=False, width=32).map(repr)),
    ), max_size=40, unique_by=(lambda r: r[:2]) if unique else None))


def run_text(draw, lines):
    """`lines` with blank and whitespace-only lines drawn in between, joined
    by LF or CRLF."""
    out = []
    for line in lines:
        out.extend(draw(st.lists(st.sampled_from(["", " ", "\t "]), max_size=1)))
        out.append(line)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + newline for line in out)


class TestParseRunAgainstTupleSort:
    """parse_run keeps a doc id, a score and a rank column per topic and
    builds the sort rows of one topic at a time; the reference keeps one row
    tuple per line."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_valid_files_parse_equal(self, tmp_path_factory, data):
        rows = data.draw(run_rows([f"d{i}" for i in range(30)], unique=True))
        layout = data.draw(st.sampled_from(["interleaved", "contiguous", "score order"]))
        if layout != "interleaved":
            rows.sort(key=lambda r: RUN_TOPICS.index(r[0]))
        if layout == "score order":
            rows.sort(key=lambda r: (RUN_TOPICS.index(r[0]), -float(r[3]), int(r[2]), r[1]))
        tags = data.draw(st.lists(st.sampled_from(["sysA", "sysB"]), min_size=len(rows),
                                  max_size=len(rows)))
        q0 = data.draw(st.sampled_from(["Q0", "q0"]))
        lines = [f"{t} {q0} {d} {rank} {score} {tag}"
                 for (t, d, rank, score), tag in zip(rows, tags)]
        p = tmp_path_factory.mktemp("run") / "run.txt"
        p.write_bytes(run_text(data.draw, lines).encode("utf-8"))
        got, want = parse_both(p)
        assert got == want
        if rows:
            # Each topic in (-score, file rank, doc id) order, -0.0 tied with 0.0.
            for topic_id, ranking in got.rankings.items():
                ordered = sorted((r for r in rows if r[0] == topic_id),
                                 key=lambda r: (-float(r[3]), int(r[2]), r[1]))
                assert ranking.doc_ids == tuple(r[1] for r in ordered)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_faulty_files_give_the_same_diagnostics(self, tmp_path_factory, data):
        rows = data.draw(run_rows(["d1", "d2", "d3", "d4"], unique=False))
        lines = [f"{t} Q0 {d} {rank} {score} tag" for t, d, rank, score in rows]
        bad = [line for kind, line, _ in BAD_LINES if kind == "run"]
        for line in data.draw(st.lists(st.sampled_from(bad), max_size=4)):
            lines.insert(data.draw(st.integers(0, len(lines))), line)
        p = tmp_path_factory.mktemp("run") / "run.txt"
        p.write_bytes(run_text(data.draw, lines).encode("utf-8"))
        got, want = parse_both(p)
        assert got == want

    def test_duplicates_among_other_bad_lines(self, tmp_path):
        p = write(tmp_path / "run.txt",
                  "t1 Q0 d1 1 9.0 tag\n"
                  "t1 Q0 d1 2 nan tag\n"
                  "t1 Q0 d2 2 8.0 tag\n"
                  "t1 Q0 d1 3 7.0 tag\n"
                  "t1 Q0 d2 4\n"
                  "t1 Q0 d2 4 6.0 tag\n")
        with pytest.raises(ParseError) as exc:
            ingest.parse_run(p)
        assert [(d.line, d.message) for d in exc.value.diagnostics] == [
            (2, "score is NaN"),
            (4, "duplicate (topic, doc) (t1, d1), first on line 1"),
            (5, "expected 6 fields, got 4"),
            (6, "duplicate (topic, doc) (t1, d2), first on line 3"),
        ]

    def test_negative_zero_score_kept(self, tmp_path):
        # 0.0 and -0.0 tie whichever comes first, and the file rank decides,
        # against the line order and the doc id order.
        for first, second in (("0.0", "-0.0"), ("-0.0", "0.0")):
            run = ingest.parse_run(write(tmp_path / "run.txt",
                                         f"t1 Q0 a 2 {second} tag\nt1 Q0 z 1 {first} tag\n"))
            assert run.rankings["t1"].doc_ids == ("z", "a")

    @pytest.mark.parametrize("text, reads", [
        ("t1 Q0 d1 1 9.0 tag\nt1 Q0 d2 2 8.0 tag\nt2 Q0 d1 1 1.0 tag\n", 1),
        ("t1 Q0 d2 2 8.0 tag\nt1 Q0 d1 1 8.0 tag\n", 1),
        ("t1 Q0 d1 1 9.0 tag\nt1 Q0 d1 2 8.0 tag\n", 2),
        ("t1 Q0 d1 1 9.0 tag\nt1 Q0 d2 2\n", 2),
    ], ids=["in-order", "sorted", "duplicate", "bad-line"])
    def test_file_read_again_only_when_faulty(self, tmp_path, monkeypatch, text, reads):
        calls = []
        read_lines = ingest._read_lines

        def counting(path, parse_line, *part):
            calls.append(path)
            return read_lines(path, parse_line, *part)

        monkeypatch.setattr(ingest, "_read_lines", counting)
        p = write(tmp_path / "run.txt", text)
        try:
            ingest.parse_run(p)
        except ParseError:
            pass
        assert len(calls) == reads

    @pytest.mark.parametrize("text", [
        "t1 Q0 d1 1 9.0 tag\nt1 Q0 d1 2 8.0 tag\n",
        "t1 Q0 d1 1 9.0 tag\nt1 Q0 d2 2\n",
        "",
    ], ids=["duplicate", "bad-line", "empty"])
    def test_error_of_the_second_read_stands_alone(self, tmp_path, text):
        # No chained context: the first read's error and columns are gone.
        with pytest.raises(ParseError) as exc:
            ingest.parse_run(write(tmp_path / "run.txt", text))
        assert exc.value.__context__ is None
        assert exc.value.__cause__ is None


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd to name a pipe by")
@pytest.mark.parametrize("parse, text", [
    (ingest.parse_run, "\ufefft1 Q0 a 1 2.0 x\nt1 Q0 b 2 1.0 x\n"),
    (lambda path: ingest.parse_qrels(path, g_max=3), "t1 0 a 2\nt1 0 b 0\n"),
], ids=["run", "qrels"])
def test_read_from_a_pipe(tmp_path, parse, text):
    # As a shell's <(...) names one; a pipe cannot seek.
    want = parse(write(tmp_path / "in.txt", text))
    read_fd, write_fd = os.pipe()
    os.write(write_fd, text.encode())
    os.close(write_fd)
    try:
        assert parse(f"/dev/fd/{read_fd}") == want
    finally:
        os.close(read_fd)


def count_reads(monkeypatch):
    """The paths `ingest._read_lines` is called on from now on."""
    calls = []
    read_lines = ingest._read_lines

    def counting(path, parse_line, *part):
        calls.append(path)
        return read_lines(path, parse_line, *part)

    monkeypatch.setattr(ingest, "_read_lines", counting)
    return calls


class TestRunParts:
    """A run cut at a topic change past its middle (`run_cut`) and read as
    two parts (`read_run_part`): where they join (`joined_run`), they make
    the run that `parse_run` reads, in its topic order; where `parse_run`
    fails, they do not join."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_parts_make_the_run(self, tmp_path_factory, data):
        rows = data.draw(run_rows([f"d{i}" for i in range(6)], unique=False))
        if data.draw(st.booleans()):
            rows.sort(key=lambda r: RUN_TOPICS.index(r[0]))
        lines = [f"{t} Q0 {d} {rank} {score} tag{i % 2}" for i, (t, d, rank, score)
                 in enumerate(rows)]
        # Bad lines, and a valid one whose topic id starts with a U+FEFF.
        extra = [line for kind, line, _ in BAD_LINES if kind == "run"] + ["\ufefft1 Q0 d9 1 1 x"]
        for line in data.draw(st.lists(st.sampled_from(extra), max_size=2)):
            lines.insert(data.draw(st.integers(0, len(lines))), line)
        text = run_text(data.draw, lines)
        if text and data.draw(st.booleans()):  # a lone carriage return somewhere
            i = data.draw(st.integers(0, len(text) - 1))
            text = text[:i] + "\r " + text[i:]
        prefix = data.draw(st.sampled_from(["", "\ufeff"]))
        p = tmp_path_factory.mktemp("run") / "run.txt"
        data_bytes = (prefix + text).encode("utf-8")
        p.write_bytes(data_bytes)
        cut = ingest.run_cut(p)
        if cut is None:
            return
        assert len(data_bytes) // 2 < cut < len(data_bytes) and data_bytes[cut - 1] == ord("\n")
        joined = ingest.joined_run(ingest.read_run_part(p, 0, cut), ingest.read_run_part(p, cut))
        try:
            whole = ingest.parse_run(p)
        except ParseError:
            assert joined is None
            return
        if joined is not None:
            assert joined == whole and list(joined.rankings) == list(whole.rankings)

    @pytest.mark.parametrize("topics, cut_line", [
        (["t1"] * 6, None),
        (["t1"] * 5 + ["t2"], 5),
        (["t1", "t2", "t2", "t2", "t2", "t3"], 5),
        (["t1"] * 5 + ["", "  "] + ["t2"], 7),
        (["t1"] * 5 + ["\ufefft1"], 5),
    ], ids=["one topic", "change", "first change past the middle", "blank lines",
            "marked topic"])
    def test_cut(self, tmp_path, topics, cut_line):
        # Lines of 15 bytes or so: the middle byte lies in line 3, and line 4
        # is the first whole line past it.
        lines = [f"{t} Q0 d{i} {i} 1 x\n".encode() if t.strip() else f"{t}\n".encode()
                 for i, t in enumerate(topics)]
        p = tmp_path / "run.txt"
        p.write_bytes(b"".join(lines))
        assert ingest.run_cut(p) == (None if cut_line is None
                                     else sum(map(len, lines[:cut_line])))

    @pytest.mark.parametrize("topics", [["t1", "t2", "t1"], ["t3", "t2"]],
                             ids=["reopened", "the topic at the cut"])
    def test_part_out_of_topic_blocks_stops_at_once(self, tmp_path, monkeypatch, topics):
        # Blocks of 3 lines, then 2,000 lines of t9 and a non-UTF-8 byte, all
        # before the cut; past it, t3. The read of the part before the cut
        # ends at the first topic out of its block, and decodes no byte more
        # than its next 8 KiB block.
        front = [f"{t} Q0 d{i} {i} 1 x\n".encode() for t in topics for i in range(3)]
        front += [f"t9 Q0 d{i} {i} 1 x\n".encode() for i in range(2000)] + [b"t9 Q0 \xff 1 1 x\n"]
        p = tmp_path / "run.txt"
        p.write_bytes(b"".join(front) + b"t3 Q0 d0 0 1 x\n")

        def decoded(path, text_error):
            raise AssertionError("read past the topic out of its block")

        monkeypatch.setattr(ingest, "_undecodable_line", decoded)
        assert ingest.read_run_part(p, 0, sum(map(len, front))) is None
        assert ingest.read_run_part(p, 0, sum(map(len, front[:3]))) is not None

    @pytest.mark.parametrize("tail, count", [
        (b"\r\n", 2), (b"\r\r\n", None), (b"\rx\n", None), (b"\n\r", None),
    ], ids=["crlf", "lone cr, then crlf", "lone cr", "lone cr at the end"])
    def test_line_count_across_a_read_block(self, tmp_path, tail, count):
        # The tail starts on the last byte of the first 1 MiB block.
        p = tmp_path / "run.txt"
        p.write_bytes(b"x" * ((1 << 20) - 2) + b"\n" + tail)
        assert ingest._line_count(p, 0, p.stat().st_size) == count
        assert ingest._line_count(p, 1, (1 << 20) - 1) == 1


class TestRankTable:
    """_read_run maps each rank text to one int, for at most RANK_TABLE_SIZE
    distinct texts; past that bound each text is converted as it comes."""

    def test_more_rank_texts_than_the_bound(self, tmp_path):
        n = ingest.RANK_TABLE_SIZE + 300
        rng = random.Random(7)
        lines = []
        for topic_id in ("t1", "t2"):
            ranks = [str(r) for r in range(1, n + 1)]
            # The same rank in other spellings, and ties broken by them.
            ranks[10], ranks[-1], ranks[-2] = "0011", "+5", "-3"
            rng.shuffle(ranks)
            lines += [f"{topic_id} Q0 d{i} {rank} {rng.choice(['1.0', '2.0'])} tag"
                      for i, rank in enumerate(ranks)]
        p = write(tmp_path / "run.txt", "\n".join(lines) + "\n")
        got, want = parse_both(p)
        assert got == want

    def test_bad_rank_past_the_bound(self, tmp_path):
        n = ingest.RANK_TABLE_SIZE + 10
        lines = [f"t1 Q0 d{i} {i} 1.0 tag" for i in range(1, n + 1)]
        lines[-1] = f"t1 Q0 d{n} x{n} 1.0 tag"
        lines.append("t2 Q0 d1 12 1.0 tag")
        p = write(tmp_path / "run.txt", "\n".join(lines) + "\n")
        got, want = parse_both(p)
        assert got == want == [(str(p), n, f"non-numeric rank 'x{n}'")]


class TestSharedIds:
    """Within one read, equal ids are one object; separate reads share none."""

    LOG = [
        log_record("S-1", session_id="sess-1", user_id="user-1", task_id="task-1",
                   topic_id="topic-1",
                   serp=[{"doc_id": "doc-1", "rank": 1}, {"doc_id": "doc-2", "rank": 2}],
                   clicks=[{"doc_id": "doc-2", "dwell_seconds": 3.0, "usefulness": 1}]),
        log_record("S-2", session_id="sess-1", user_id="user-1", task_id="task-1",
                   topic_id="topic-1",
                   serp=[{"doc_id": "doc-2", "rank": 1}, {"doc_id": "doc-1", "rank": 2}],
                   clicks=[{"doc_id": "doc-1", "dwell_seconds": 4.0, "usefulness": 2}]),
    ]

    def test_log_ids_and_columns_shared(self, tmp_path):
        p = write(tmp_path / "log.jsonl", "".join(json.dumps(r) + "\n" for r in self.LOG))
        log = ingest.parse_interaction_log(p)
        for column in (log.session_ids, log.user_ids, log.task_ids, log.topic_ids):
            assert column[0] is column[1]
        assert log.docs == ("doc-1", "doc-2")
        assert log.serp_doc.tolist() == [0, 1, 1, 0] and log.click_doc.tolist() == [1, 0]
        other = ingest.parse_interaction_log(p)
        assert other == log
        assert other.user_ids[0] is not log.user_ids[0]
        assert not any(a is b for a, b in zip(other.docs, log.docs))

    def test_pair_doc_ids_shared(self, tmp_path):
        p = write(tmp_path / "p.tsv",
                  "t-1\tdoc-1\tdoc-2\t0.5\nt-1\tdoc-3\tdoc-1\t0.25\n"
                  "t-2\tdoc-2\tdoc-1\t0.75\n")
        store = ingest.parse_pair_sims(p)
        one, two = store.topic_view("t-1"), store.topic_view("t-2")
        # One doc table for every topic, each doc id in it once.
        assert one.codes is two.codes
        assert sorted(one.codes) == ["doc-1", "doc-2", "doc-3"]
        assert (one.sim("doc-1", "doc-3"), two.sim("doc-1", "doc-2")) == (0.25, 0.75)
        again = ingest.parse_pair_sims(p).topic_view("t-1").codes
        assert again == one.codes
        assert not any(a is b for a, b in zip(sorted(again), sorted(one.codes)))


class TestPairSimsReads:
    @pytest.mark.parametrize("text, reads", [
        ("t1\ta\tb\t0.8\nt1\tb\ta\t0.8\nt2\ta\tb\t0.1\n", 1),
        ("t1\ta\tb\t0.8\nt1\tb\ta\t0.7\n", 2),
        ("t1\ta\tb\t0.8\nt1\ta\tc\n", 2),
        ("t1\ta\tb\t1.5\n", 2),
    ], ids=["valid", "conflict", "bad-line", "out-of-range"])
    def test_file_read_again_only_when_faulty(self, tmp_path, monkeypatch, text, reads):
        calls = count_reads(monkeypatch)
        try:
            ingest.parse_pair_sims(write(tmp_path / "p.tsv", text))
        except ParseError:
            pass
        assert len(calls) == reads

    def test_error_of_the_second_read_stands_alone(self, tmp_path):
        p = write(tmp_path / "p.tsv", "t1\ta\tb\t0.8\nt1\tb\ta\t0.7\n")
        with pytest.raises(ParseError) as exc:
            ingest.parse_pair_sims(p)
        assert [str(d) for d in exc.value.diagnostics] == [
            f"{p}:2: conflicting similarity for (b, a) in topic t1: 0.8 vs 0.7, first on line 1"
        ]
        assert exc.value.__context__ is None


PAIR_TOPICS = ["t1", "t2", "t3"]
PAIR_DOCS = ["a", "b", "c", "d", "\u00e9"]
# Values as written: plain ones, a signed zero, the bounds, and excursions
# within SIMILARITY_EPS of them, which clamp to the bound.
PAIR_VALUES = ["0.5", "0.25", "-0.75", "0.0", "-0.0", "1", "-1.0", "1.0000005", "-1.000001",
               "5e-1", " 0.9"]
# Lines that are faults wherever they stand.
BAD_PAIR_LINES = ["t1\ta\t0.5", "t1\ta\tb\thigh", "t1\ta\tb\tc\t0.5", "t2\tb\tc\tnan",
                  "t2\tc\td\tinf", "t3\ta\tb\t1.5", "t3\tb\ta\t-1.0000011"]


def clamped(value: float) -> float:
    return value if -1.0 <= value <= 1.0 else math.copysign(1.0, value)


def pair_file_oracle(text: str):
    """The pairs (topic, smaller id, larger id) -> clamped value of a pair
    file, and its diagnostics as (line, message), each line read on its own
    against a plain dict."""
    pairs, first, diags = {}, {}, []
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), 1):
        if not line or line.isspace():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            diags.append((lineno, f"expected 4 tab-separated fields, got {len(parts)}"))
            continue
        topic, a, b, text_value = parts
        try:
            value = float(text_value)
        except ValueError:
            diags.append((lineno, f"non-numeric similarity {text_value!r}"))
            continue
        key = (topic, min(a, b), max(a, b))
        seen = f", first on line {first[key]}" if key in first else ""
        if not abs(value) <= 1.000001:
            diags.append((lineno, f"similarity {value} outside [-1, 1] by more than 1e-06 "
                                  f"for pair ({a}, {b}) in topic {topic}{seen}"))
        elif pairs.setdefault(key, clamped(value)) != clamped(value):
            diags.append((lineno, f"conflicting similarity for ({a}, {b}) in topic {topic}: "
                                  f"{pairs[key]} vs {clamped(value)}{seen}"))
        else:
            first.setdefault(key, lineno)
    return pairs, diags


@st.composite
def pair_lines(draw, faulty):
    """Lines of a pair file: pairs in either orientation, some declared
    again with a value equal to the first after the clamp; with `faulty`,
    conflicting values and bad lines as well."""
    lines, values = [], {}
    for _ in range(draw(st.integers(0, 25))):
        topic = draw(st.sampled_from(PAIR_TOPICS))
        a, b = draw(st.sampled_from(PAIR_DOCS)), draw(st.sampled_from(PAIR_DOCS))
        value = values.setdefault((topic, *sorted((a, b))), draw(st.sampled_from(PAIR_VALUES)))
        lines.append(f"{topic}\t{a}\t{b}\t{value}")
        for _ in range(draw(st.integers(0, 2))):
            # A signed zero is equal to the other zero; the first is kept.
            again = draw(st.sampled_from([value, repr(clamped(float(value))),
                                          *(["0.0", "-0.0"] if float(value) == 0 else [])]))
            if faulty and draw(st.booleans()):
                again = draw(st.sampled_from(PAIR_VALUES))
            lines.append(f"{topic}\t{b}\t{a}\t{again}")
    rng = random.Random(draw(st.integers(0, 2**32)))
    rng.shuffle(lines)
    if faulty:
        for line in draw(st.lists(st.sampled_from(BAD_PAIR_LINES), max_size=3)):
            lines.insert(rng.randint(0, len(lines)), line)
    return lines


def same_float(x: float, y: float) -> bool:
    """Equal, with the sign of a zero."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


class TestPairSimsAgainstDict:
    """parse_pair_sims reads a valid file into columns; every declared pair
    answers as a plain dict of the file's lines does, and a faulty file gives
    the diagnostics of reading each line against such a dict."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_valid_files_answer_as_the_dict(self, tmp_path_factory, data):
        text = run_text(data.draw, data.draw(pair_lines(faulty=False)))
        oracle, diags = pair_file_oracle(text)
        assert diags == []
        p = tmp_path_factory.mktemp("pairs") / "p.tsv"
        p.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            reads = count_reads(mp)
            store = ingest.parse_pair_sims(p)
        assert len(reads) == 1  # a valid file is read once, into columns
        assert len(store) == len(oracle)
        for (topic, a, b), value in oracle.items():
            view = store.topic_view(topic)
            assert same_float(view.sim(a, b), value) and same_float(view.sim(b, a), value)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_faulty_files_give_the_dict_diagnostics(self, tmp_path_factory, data):
        text = run_text(data.draw, data.draw(pair_lines(faulty=True)))
        _, diags = pair_file_oracle(text)
        p = tmp_path_factory.mktemp("pairs") / "p.tsv"
        p.write_bytes(text.encode("utf-8"))
        if not diags:
            ingest.parse_pair_sims(p)
            return
        with pytest.raises(ParseError) as exc:
            ingest.parse_pair_sims(p)
        assert [(d.file, d.line, d.message) for d in exc.value.diagnostics] == [
            (str(p), line, message) for line, message in diags]

    def test_store_holds_at_most_40_bytes_a_pair(self, tmp_path):
        # Every pair of 40 docs in each of 50 topics: 39,000 pairs. A dict
        # per topic keyed by doc-id tuples held about 130 bytes a pair.
        p = tmp_path / "p.tsv"
        with open(p, "w") as fh:
            for t in range(50):
                docs = [f"topic{t:02d}-doc{j:02d}" for j in range(40)]
                fh.writelines(f"q{t}\t{a}\t{b}\t{(i * 7 + j) % 101 / 100}\n"
                              for i, a in enumerate(docs) for j, b in enumerate(docs[i + 1:]))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = ingest.parse_pair_sims(p)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(store) == 39_000
        assert held <= 40 * 39_000, f"{held / 39_000:.1f} bytes a pair"


DEEPLY_NESTED = "[" * 100_000 + "]" * 100_000


class TestDeeplyNestedJson:
    @pytest.mark.parametrize("kind", ["vectors", "interaction_log", "records"])
    def test_nesting_beyond_the_decoder_stack_is_a_line_diagnostic(self, tmp_path, kind):
        p = write(tmp_path / f"{kind}.txt", f"{VALID_LINES[kind]}\n{DEEPLY_NESTED}\n")
        with pytest.raises(ParseError) as exc:
            PARSERS[kind](p)
        assert [(d.line, d.message) for d in exc.value.diagnostics] == [
            (2, "invalid JSON: nested too deeply")
        ]

    @pytest.mark.parametrize("depth", [500, 501])
    def test_fixed_depth_limit(self, depth):
        text = "[" * depth + "]" * depth
        if depth <= ingest._DEEP_LINE_BRACKETS:
            assert ingest._json(text) is not None
        else:
            with pytest.raises(ValueError, match="^invalid JSON: nested too deeply$"):
                ingest._json(text)

    def test_validity_does_not_depend_on_the_stack(self, tmp_path, decoder):
        # json.loads alone decodes this line near the top of the stack, and
        # runs out of stack 300 frames further down.
        line = unknown_field(log_record("s1"), "[" * 700 + "]" * 700)
        p = write(tmp_path / "log.jsonl", line + "\n")
        messages = []
        for frames in (0, 300):
            with pytest.raises(ParseError) as exc:
                called_deeper(frames, lambda: ingest.parse_interaction_log(p))
            messages.append(str(exc.value))
        assert messages == [f"1 parse error(s) in {p}:\n{p}:1: invalid JSON: nested too deeply"] * 2

    @pytest.mark.parametrize("text", ['"' + "[" * 700 + '"', '"\\"' + "[" * 700 + '"',
                                      '"' + "[" * 700], ids=["plain", "escaped-quote", "open"])
    def test_brackets_in_strings_do_not_nest(self, text):
        assert ingest._nesting_depth(f'{{"a": [{text}') == 2

    @pytest.mark.parametrize("text", ["[" * 700, '\\"' + "[" * 700],
                             ids=["plain", "escaped-quote"])
    def test_record_with_brackets_in_a_string_parses(self, tmp_path, text):
        p = write(tmp_path / "r.jsonl", json.dumps(record_row(serp_id=text)) + "\n")
        assert [r.serp_id for r in record_rows(ingest.parse_records(p))] == [text]

    def test_log_with_brackets_in_a_string_parses(self, tmp_path, decoder):
        line = unknown_field(log_record("s1"), json.dumps("[" * 700))
        p = write(tmp_path / "log.jsonl", line + "\n")
        assert ingest.parse_interaction_log(p) == log_of([log_record("s1")])


def called_deeper(frames, call):
    """`call()`, made `frames` Python frames further down the stack."""
    return call() if frames == 0 else called_deeper(frames - 1, call)


class TestByteOrderMark:
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("kind, text", [
        ("run", "t1 Q0 d2 2 8.0 tag\nt1 Q0 d1 1 9.0 tag\nt2 Q0 d1 1 1.0 tag\n"),
        ("qrels", "t1 0 d1 3\nt1 0 d2 0\nt2 0 d1 1\n"),
        ("interaction_log",
         json.dumps(log_record("s1")) + "\n" + json.dumps(log_record("s2", topic_id="t2")) + "\n"),
        ("records", json.dumps(record_row()) + "\n"),
    ], ids=["run", "qrels", "interaction_log", "records"])
    def test_leading_mark_parses_as_without(self, tmp_path, kind, text, newline):
        text = text.replace("\n", newline)
        plain = tmp_path / "plain.txt"
        plain.write_bytes(text.encode("utf-8"))
        marked = tmp_path / "marked.txt"
        marked.write_bytes(text.encode("utf-8-sig"))
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert PARSERS[kind](marked) == PARSERS[kind](plain)

    def test_mark_past_the_start_is_kept(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_bytes("t1 0 d1 3\n\ufefft1 0 d1 2\n".encode("utf-8"))
        assert ingest.parse_qrels(p, g_max=3).judgments == {
            "t1": {"d1": 3}, "\ufefft1": {"d1": 2}}

    def test_bad_byte_after_mark_pinned_to_its_line(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_bytes(b"\xef\xbb\xbft1 0 d1 3\nt1 0 d\xff 1\n")
        with pytest.raises(ParseError) as exc:
            ingest.parse_qrels(p, g_max=3)
        assert [str(d) for d in exc.value.diagnostics] == [
            f"{p}:2: invalid UTF-8: byte 0xff (invalid start byte)"
        ]


# --- the first read's two decoders -------------------------------------------
#
# Where orjson is installed a log's first read decodes with it, and with
# `json` where it is not; either way `json` decides validity and words every
# diagnostic.


@pytest.fixture(scope="class")
def orjson_blocked():
    """`import orjson` fails for the class's tests, as where it is not
    installed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "orjson", None)
        yield


@pytest.mark.usefixtures("orjson_blocked")
class TestParseInteractionLogWithoutOrjson(TestParseInteractionLog):
    """Every log-parsing test again, with `json` alone decoding."""

    # Hypothesis runs a property test from one class only, so the inherited
    # two are wrapped anew from their bodies.
    test_valid_log_round_trips = given(valid_log_records(), st.booleans())(
        TestParseInteractionLog.test_valid_log_round_trips.hypothesis.inner_test)
    test_checked_read_equals_fast_read = given(valid_log_records())(
        TestParseInteractionLog.test_checked_read_equals_fast_read.hypothesis.inner_test)

    def test_json_decodes(self):
        assert ingest._first_read_decoder() is ingest._json


@pytest.fixture(params=["orjson", "json"])
def decoder(request, monkeypatch):
    """The decoder of a log's first read: orjson, or `json` with orjson
    blocked."""
    if request.param == "orjson":
        pytest.importorskip("orjson")
    else:
        monkeypatch.setitem(sys.modules, "orjson", None)
    return request.param


def unknown_field(record, value_text):
    """A record's JSON text with one more field, whose value is `value_text`."""
    return json.dumps(record)[:-1] + f', "extra": {value_text}}}'


BIG = 10**30

# Lines the two decoders read differently, each as line 2 of a log whose
# line 1 is SERP s0: the record the line parses to, or the message of its
# one diagnostic, the same under both; and how many times each decoder's
# parse reads the file.
DECODER_CASES = {
    # orjson reads an int beyond 64 bits as a float, which fails the first
    # read's int columns: under orjson this valid log is read twice.
    "ints-beyond-64-bits": (
        json.dumps(log_record("s1", serp=[{"doc_id": "a", "rank": BIG},
                                          {"doc_id": "b", "rank": -BIG},
                                          {"doc_id": "c", "rank": 2**64}],
                              clicks=[{"doc_id": "b", "dwell_seconds": BIG,
                                       "usefulness": BIG}])),
        log_record("s1", serp=[{"doc_id": "a", "rank": BIG}, {"doc_id": "b", "rank": -BIG},
                               {"doc_id": "c", "rank": 2**64}],
                   clicks=[{"doc_id": "b", "dwell_seconds": BIG, "usefulness": BIG}]),
        {"orjson": 2, "json": 1}),
    # As a dwell the float is what the int becomes in the dwell column.
    "dwell-int-beyond-64-bits": (
        json.dumps(log_record("s1", clicks=one_click(dwell_seconds=BIG))),
        log_record("s1", clicks=one_click(dwell_seconds=BIG)),
        {"orjson": 1, "json": 1}),
    "nan-dwell": (
        json.dumps(log_record("s1", clicks=one_click(dwell_seconds=math.nan))),
        "SERP s1: click on doc D1: dwell_seconds must be finite, got nan",
        {"orjson": 2, "json": 2}),
    "infinity-dwell": (
        json.dumps(log_record("s1", clicks=one_click(dwell_seconds=math.inf))),
        "SERP s1: click on doc D1: dwell_seconds must be finite, got inf",
        {"orjson": 2, "json": 2}),
    "dwell-past-float-range": (
        json.dumps(log_record("s1", clicks=one_click(dwell_seconds=12.5))).replace(
            "12.5", "1e400"),
        "SERP s1: click on doc D1: dwell_seconds must be finite, got inf",
        {"orjson": 2, "json": 2}),
    "nan-in-unknown-field": (
        unknown_field(log_record("s1"), "NaN"), log_record("s1"), {"orjson": 1, "json": 1}),
    "lone-surrogate-escape-in-id": (
        json.dumps(log_record("\ud800")), log_record("\ud800"), {"orjson": 1, "json": 1}),
    "nested-100000-deep": (
        DEEPLY_NESTED, "invalid JSON: nested too deeply", {"orjson": 2, "json": 2}),
    # orjson would decode this line, which json cannot.
    "unknown-field-nested-100000-deep": (
        unknown_field(log_record("s1"), DEEPLY_NESTED), "invalid JSON: nested too deeply",
        {"orjson": 2, "json": 2}),
    # The record's object is one level more: 500 levels is the most a line
    # may have, whatever the decoder.
    "unknown-field-nested-499-deep": (
        unknown_field(log_record("s1"), "[" * 499 + "]" * 499), log_record("s1"),
        {"orjson": 1, "json": 1}),
    "unknown-field-nested-500-deep": (
        unknown_field(log_record("s1"), "[" * 500 + "]" * 500), "invalid JSON: nested too deeply",
        {"orjson": 2, "json": 2}),
    "unknown-field-nested-600-deep": (
        unknown_field(log_record("s1"), "[" * 600 + "]" * 600), "invalid JSON: nested too deeply",
        {"orjson": 2, "json": 2}),
}


class TestFirstReadDecoders:
    @pytest.mark.parametrize("line, expected, reads", DECODER_CASES.values(),
                             ids=list(DECODER_CASES))
    def test_same_result_under_both(self, tmp_path, monkeypatch, decoder, line, expected,
                                    reads):
        calls = count_reads(monkeypatch)
        p = write(tmp_path / "log.jsonl", json.dumps(log_record("s0")) + "\n" + line + "\n")
        if isinstance(expected, str):
            with pytest.raises(ParseError) as exc:
                ingest.parse_interaction_log(p)
            assert str(exc.value) == f"1 parse error(s) in {p}:\n{p}:2: {expected}"
        else:
            assert ingest.parse_interaction_log(p) == log_of([log_record("s0"), expected])
        assert len(calls) == reads[decoder]

    @pytest.fixture
    def orjson_decoded(self, monkeypatch):
        """The lines orjson.loads is called on from now on."""
        orjson = pytest.importorskip("orjson")
        decoded = []
        loads = orjson.loads
        monkeypatch.setattr(orjson, "loads", lambda line: decoded.append(line) or loads(line))
        return decoded

    def test_orjson_decodes_the_first_read_only(self, tmp_path, orjson_decoded):
        decoded = orjson_decoded
        lines = [json.dumps(log_record("s1")), json.dumps(log_record("s2"))]
        p = write(tmp_path / "log.jsonl", "".join(line + "\n" for line in lines))
        ingest.parse_interaction_log(p)
        assert decoded == [line + "\n" for line in lines]
        # A faulty log's second read decodes with json.
        write(p, "".join(line + "\n" for line in lines + lines[:1]))
        decoded.clear()
        with pytest.raises(ParseError):
            ingest.parse_interaction_log(p)
        assert len(decoded) == 3

    @pytest.mark.parametrize("brackets", [ingest._DEEP_LINE_BRACKETS - 1,
                                          ingest._DEEP_LINE_BRACKETS])
    def test_line_with_many_brackets_left_to_json(self, tmp_path, orjson_decoded, brackets):
        # json may find such a line nested too deeply, where orjson would not.
        shallow = json.dumps(log_record("s1"))
        depth = brackets - shallow.count("[") - shallow.count("{")
        line = unknown_field(log_record("s1"), "[" * depth + "]" * depth)
        assert line.count("[") + line.count("{") == brackets
        p = write(tmp_path / "log.jsonl", line + "\n")
        assert ingest.parse_interaction_log(p) == log_of([log_record("s1")])
        assert len(orjson_decoded) == (brackets < ingest._DEEP_LINE_BRACKETS)

    def test_json_decodes_without_orjson(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "orjson", None)
        assert ingest._first_read_decoder() is ingest._json

    def test_orjson_imported_by_the_log_read_alone(self, tmp_path):
        # In a fresh interpreter: importing the CLI and reading every other
        # format leaves orjson unimported; reading a log imports it.
        pytest.importorskip("orjson")
        paths = {kind: write(tmp_path / kind, VALID_LINES[kind] + "\n") for kind in PARSERS}
        script = textwrap.dedent("""\
            import json, sys
            import decoyeval.cli
            from decoyeval import ingest
            paths = json.loads(sys.argv[1])
            loaded = ["orjson" in sys.modules]
            for read in (ingest.parse_run, lambda p: ingest.parse_qrels(p, g_max=3),
                         ingest.parse_pair_sims, ingest.parse_vectors, ingest.parse_records,
                         ingest.parse_interaction_log):
                read(paths.pop(0))
                loaded.append("orjson" in sys.modules)
            print(json.dumps(loaded))
        """)
        order = ["run", "qrels", "pair_sims", "vectors", "records", "interaction_log"]
        src = os.path.dirname(os.path.dirname(ingest.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps([str(paths[k]) for k in order])],
            env=env, capture_output=True, text=True, check=True).stdout
        assert json.loads(out) == [False] * 6 + [True]
