"""Parser behaviour: canonical ordering, round-trips, and diagnostics."""

import json
import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decoyeval.ingest as ingest
from decoyeval.ingest import ParseError
from decoyeval.model import Click, Ranking, SerpInteraction


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
}


class TestParseRun:
    def test_basic_file(self, tmp_path):
        p = write(tmp_path / "run.txt",
                  "t1 Q0 d1 1 9.5 tag\n"
                  "t1 Q0 d2 2 8.0 tag\n"
                  "t2 Q0 d3 1 1.0 tag\n")
        run = ingest.parse_run(p)
        assert run.run_tag == "tag"
        assert run.rankings["t1"].doc_ids == ("d1", "d2")
        assert run.rankings["t1"].scores == (9.5, 8.0)

    def test_score_column_wins_over_stated_rank(self, tmp_path):
        # Ranks in the file contradict the scores; scores are authoritative.
        p = write(tmp_path / "run.txt",
                  "t1 Q0 low 1 1.0 tag\n"
                  "t1 Q0 high 2 9.0 tag\n")
        run = ingest.parse_run(p)
        docs = run.rankings["t1"]
        assert docs.doc_ids == ("high", "low")
        assert docs.source_ranks == (2, 1)

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


class TestRunRoundTrip:
    def test_write_then_parse_is_identity(self, tmp_path):
        rng = random.Random(11)
        lines = []
        for t in range(3):
            docs = rng.sample(range(1000), 20)
            for i, d in enumerate(docs):
                score = rng.uniform(-100, 100)
                lines.append(f"topic{t} Q0 doc{d} {i + 1} {score!r} sys\n")
        original = ingest.parse_run(write(tmp_path / "a.txt", "".join(lines)))
        out = tmp_path / "b.txt"
        ingest.write_run(original, out)
        reparsed = ingest.parse_run(out)
        # source_ranks record the rank column of the file actually parsed,
        # so identity is on the canonical content.
        def canonical(run):
            return {
                t: (ranking.doc_ids, ranking.scores)
                for t, ranking in run.rankings.items()
            }
        assert canonical(reparsed) == canonical(original)
        assert reparsed.run_tag == original.run_tag

    def test_written_file_is_canonically_ordered(self, tmp_path):
        p = write(tmp_path / "run.txt",
                  "t1 Q0 low 1 1.0 tag\nt1 Q0 high 2 9.0 tag\n")
        out = tmp_path / "out.txt"
        ingest.write_run(ingest.parse_run(p), out)
        first = out.read_text().splitlines()[0].split()
        assert first[2] == "high" and first[3] == "1"


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
        assert len(log.sessions) == 1
        session = log.sessions[0]
        assert session.clicks["D1"].dwell_seconds == 30.0
        assert session.clicks["D1"].usefulness == 3

    def test_ranks_renormalised_with_source_kept(self, tmp_path):
        entry = log_record("s1", serp=[{"doc_id": "a", "rank": 3}, {"doc_id": "b", "rank": 7}],
                           clicks=[])
        p = write(tmp_path / "log.jsonl", json.dumps(entry) + "\n")
        serp = ingest.parse_interaction_log(p).sessions[0].serp
        assert serp.doc_ids == ("a", "b")
        assert serp.source_ranks == (3, 7)

    def test_empty_log_is_valid(self, tmp_path):
        log = ingest.parse_interaction_log(write(tmp_path / "log.jsonl", ""))
        assert log.sessions == []

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

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_valid_log_round_trips(self, tmp_path_factory, data):
        ids = st.text(min_size=1, max_size=6)
        serp_ids = data.draw(st.lists(ids, unique=True, max_size=6))
        sessions = []
        for serp_id in serp_ids:
            docs = data.draw(st.lists(ids, unique=True, max_size=8))
            ranks = data.draw(st.lists(st.integers(-5, 10**12), min_size=len(docs),
                                       max_size=len(docs)))
            clicked = data.draw(st.lists(st.sampled_from(docs), unique=True)) if docs else []
            clicks = {
                doc_id: Click(
                    data.draw(st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False)),
                    data.draw(st.integers(0, 10)),
                )
                for doc_id in clicked
            }
            sessions.append(SerpInteraction(
                serp_id, *data.draw(st.tuples(ids, ids, ids, ids)),
                Ranking(tuple(docs), (0.0,) * len(docs), tuple(ranks)), clicks,
            ))
        lines = [
            json.dumps({
                "serp_id": s.serp_id, "session_id": s.session_id, "user_id": s.user_id,
                "task_id": s.task_id, "topic_id": s.topic_id,
                "serp": [{"doc_id": d, "rank": r}
                         for d, r in zip(s.serp.doc_ids, s.serp.source_ranks)],
                "clicks": [{"doc_id": d, "dwell_seconds": c.dwell_seconds,
                            "usefulness": c.usefulness} for d, c in s.clicks.items()],
            }, ensure_ascii=data.draw(st.booleans()))
            for s in sessions
        ]
        p = tmp_path_factory.mktemp("log") / "log.jsonl"
        p.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert ingest.parse_interaction_log(p).sessions == sessions

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
        rec = ingest.parse_records(p)[0]
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
        rec = ingest.parse_records(p)[0]
        assert rec.dwell_seconds == 12.0 and isinstance(rec.dwell_seconds, float)
