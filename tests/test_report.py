"""Emission layer: canonical number rendering, the three table formats,
round-trips, and the JSON summaries."""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoyeval.decoy import SerpPairRecord
from decoyeval.ingest import parse_records
from decoyeval.logmine import GroupComparison, GroupStats, Thresholds, WelchResult
from decoyeval.metrics import AggregateScores, RunEvaluation, SweepRow, TopicScores
from decoyeval.model import DecoyPair
from decoyeval.report import (
    FORMATS,
    _json_value,
    emit_comparison,
    emit_pairs,
    emit_records,
    emit_scores,
    emit_serp_pairs,
    emit_sweep,
    emit_thresholds,
    format_real,
    render_table,
)

from conftest import Record, record_columns, record_rows


class TestFormatReal:
    @pytest.mark.parametrize(
        "value,text",
        [
            (0.0, "0"),
            (1.0, "1"),
            (0.632121, "0.632121"),
            (0.6321205588285577, "0.632121"),
            (0.28533333333, "0.285333"),
            (1 / 3, "0.333333"),
            (1234567.0, "1.23457e+06"),
            (0.000012345678, "1.23457e-05"),
            (-2.5, "-2.5"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
        ],
    )
    def test_examples(self, value, text):
        assert format_real(value) == text

    def test_jsonl_digits_match_text_formats(self):
        # jsonl renormalises floats through format_real so the digits cannot
        # drift between formats.
        row = [["x", 0.6321205588285577]]
        tsv = render_table(("name", "v"), row, "tsv")
        line = render_table(("name", "v"), row, "jsonl").strip()
        assert tsv.splitlines()[1] == "x\t0.632121"
        assert json.loads(line)["v"] == 0.632121


def small_evaluation():
    names = ("dejavu", "ndcg", "lc_ndcg")
    topics = [
        TopicScores("t1", {"dejavu": 0.6321205588285577, "ndcg": 0.9558305, "lc_ndcg": 0.79398},
                    decoy_pairs=1, highly_relevant=2),
        TopicScores("t2", {"dejavu": 0.0, "ndcg": 1.0, "lc_ndcg": 0.5},
                    decoy_pairs=0, highly_relevant=3),
    ]
    mean = AggregateScores(
        n_topics=2,
        scores={"dejavu": 0.31606027941, "ndcg": 0.97791525, "lc_ndcg": 0.64699},
        decoy_pairs=0.5,
        highly_relevant=2.5,
    )
    return RunEvaluation("myrun", 10, names, topics, mean)


def sample_pair():
    return DecoyPair(
        topic_id="t1", target_doc="d9", decoy_doc="d4", similarity=0.875,
        target_rank=3, decoy_rank=5, target_grade=3, decoy_grade=1,
    )


class TestEmitScores:
    def test_tsv_golden(self):
        buf = io.StringIO()
        emit_scores([small_evaluation()], "tsv", buf)
        assert buf.getvalue() == (
            "run\tk\ttopic\tdejavu\tndcg\tlc_ndcg\tdecoy_pairs\thighly_relevant\n"
            "myrun\t10\tt1\t0.632121\t0.955831\t0.79398\t1\t2\n"
            "myrun\t10\tt2\t0\t1\t0.5\t0\t3\n"
            "myrun\t10\tall\t0.31606\t0.977915\t0.64699\t0.5\t2.5\n"
        )

    def test_count_columns_only_with_dejavu(self):
        ev = small_evaluation()
        names = ("ndcg",)
        topics = [TopicScores(t.topic_id, {"ndcg": t.scores["ndcg"]}) for t in ev.topics]
        mean = AggregateScores(2, {"ndcg": ev.mean.scores["ndcg"]}, 0.0, 0.0)
        buf = io.StringIO()
        emit_scores([RunEvaluation("myrun", 10, names, topics, mean)], "tsv", buf)
        header = buf.getvalue().splitlines()[0]
        assert header == "run\tk\ttopic\tndcg"

    def test_csv_matches_tsv_content(self):
        tsv_buf, csv_buf = io.StringIO(), io.StringIO()
        emit_scores([small_evaluation()], "tsv", tsv_buf)
        emit_scores([small_evaluation()], "csv", csv_buf)
        tsv_rows = [line.split("\t") for line in tsv_buf.getvalue().splitlines()]
        csv_rows = [line.split(",") for line in csv_buf.getvalue().splitlines()]
        assert tsv_rows == csv_rows

    def test_jsonl(self):
        buf = io.StringIO()
        emit_scores([small_evaluation()], "jsonl", buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(lines) == 3
        assert lines[0] == {
            "run": "myrun", "k": 10, "topic": "t1", "dejavu": 0.632121,
            "ndcg": 0.955831, "lc_ndcg": 0.79398, "decoy_pairs": 1,
            "highly_relevant": 2,
        }
        assert lines[2]["topic"] == "all"
        assert lines[2]["decoy_pairs"] == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no evaluations"):
            emit_scores([], "tsv", io.StringIO())

    def test_mismatched_columns_rejected(self):
        ev = small_evaluation()
        other = RunEvaluation("r2", 10, ("ndcg",), [], AggregateScores(0, {"ndcg": 0.0}, 0.0, 0.0))
        with pytest.raises(ValueError, match="disagree"):
            emit_scores([ev, other], "tsv", io.StringIO())

    def test_deterministic_double_emission(self):
        a, b = io.StringIO(), io.StringIO()
        emit_scores([small_evaluation()], "csv", a)
        emit_scores([small_evaluation()], "csv", b)
        assert a.getvalue() == b.getvalue()


class TestTableFormats:
    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            render_table(("a",), [[1]], "xml")

    def test_csv_quotes_embedded_delimiters(self):
        out = render_table(("id", "note"), [["a,b", 'say "hi"']], "csv")
        assert out == 'id,note\n"a,b","say ""hi"""\n'

    def test_tsv_rejects_embedded_tab(self):
        with pytest.raises(ValueError, match="TSV delimiter"):
            render_table(("a",), [["x\ty"]], "tsv")

    def test_tsv_rejects_embedded_newline(self):
        with pytest.raises(ValueError, match="TSV delimiter"):
            render_table(("a",), [["x\ny"]], "tsv")

    def test_bool_cells(self):
        assert render_table(("b",), [[True], [False]], "tsv") == "b\ntrue\nfalse\n"

    def test_jsonl_non_finite_as_string(self):
        line = render_table(("t",), [[math.inf]], "jsonl").strip()
        assert json.loads(line) == {"t": "inf"}

    def test_jsonl_bytes_equal_json_dumps(self):
        # Each row is written as text; json.dumps of the row's object is the
        # reference for every cell type.
        texts = ['say "hi"', "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f",
                 "caf\u00e9 \u2028", "\U0001f600 \ud83d", "", "plain"]
        reals = [-0.0, 0.0, 1e-07, 1234567.0, 0.6321205588285577, math.inf, -math.inf,
                 math.nan, 5e-324, 1e308]
        ints = [0, -1, 255, 257, 2**63, -(10**40)]
        cells = texts + reals + ints + [True, False, None]
        columns = [f"c{i}" for i in range(len(cells))] + ['q"k\\ey\u00e9']
        rows = [cells + [cells[0]], cells[::-1] + [True], cells[1:] + cells[:2]]
        want = "".join(
            json.dumps({c: _json_value(v) for c, v in zip(columns, row)}, ensure_ascii=False)
            + "\n" for row in rows)
        assert render_table(columns, rows, "jsonl") == want

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("row", [[1], [1, 2, 3]], ids=["short", "long"])
    def test_row_length_must_match_header(self, fmt, row):
        with pytest.raises(ValueError) as exc:
            render_table(("a", "b"), [[0, 0], row], fmt)
        assert str(exc.value) == f"row 2 has {len(row)} cells for 2 columns"

    def test_jsonl_rejects_duplicate_columns(self):
        with pytest.raises(ValueError, match="duplicate column names"):
            render_table(("a", "b", "a"), [[1, 2, 3]], "jsonl")

    def test_file_destination(self, tmp_path):
        path = tmp_path / "out.tsv"
        emit_pairs([sample_pair()], "tsv", path)
        assert path.read_text().splitlines()[1] == "t1\td9\td4\t0.875\t3\t5\t3\t1"

    def test_stdout_destination(self, capsys):
        emit_pairs([sample_pair()], "tsv", None)
        out = capsys.readouterr().out
        assert out.startswith("topic\ttarget_doc")


class TestPairAndSweepTables:
    def test_pairs_header_only_when_empty(self):
        out = io.StringIO()
        emit_pairs([], "tsv", out)
        assert out.getvalue() == (
            "topic\ttarget_doc\tdecoy_doc\tsimilarity\ttarget_rank\t"
            "decoy_rank\ttarget_grade\tdecoy_grade\n"
        )

    def test_serp_pairs(self):
        buf = io.StringIO()
        emit_serp_pairs([SerpPairRecord("s7", sample_pair())], "csv", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("serp_id,topic,")
        assert lines[1] == "s7,t1,d9,d4,0.875,3,5,3,1"

    def test_sweep(self):
        rows = [SweepRow(10, 0.5, 0.9, 0.8, 0.25), SweepRow(20, 1.0, 0.92, 0.95, 0.4)]
        buf = io.StringIO()
        emit_sweep(rows, "tsv", buf)
        assert buf.getvalue() == (
            "k\tdecoy_pairs\tndcg\trecall\tdejavu\n"
            "10\t0.5\t0.9\t0.8\t0.25\n"
            "20\t1\t0.92\t0.95\t0.4\n"
        )


@st.composite
def drawn_records(draw):
    """One valid record: unicode ids, dwell from -0.0 to the float maximum,
    usefulness and rank beyond int64, and zero signals when unclicked."""
    clicked = draw(st.booleans())
    zero = st.sampled_from([0.0, -0.0])
    dwell, usefulness = draw(zero), 0
    if clicked:
        dwell = draw(st.one_of(zero, st.floats(0.0, allow_infinity=False),
                               st.integers(0, 10**30).map(float)))
        usefulness = draw(st.integers(0, 2**80))
    ids = st.text(max_size=4)
    return Record(draw(ids), draw(ids), draw(st.sampled_from(["target", "control"])), clicked,
                  dwell, usefulness, draw(st.integers(1, 2**80)), draw(ids), draw(ids))


class TestRecords:
    def records(self):
        return [
            Record(
                serp_id="s1", doc_id="A", group="target", is_clicked=True,
                dwell_seconds=30.5, usefulness=3, rank=1, task_id="task1",
                user_id="user_s1",
            ),
            Record(
                serp_id="s1", doc_id="C", group="control", is_clicked=False,
                dwell_seconds=0.0, usefulness=0, rank=3, task_id="task1",
                user_id="user_s1",
            ),
        ]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        emit_records(record_columns(self.records()), path)
        assert record_rows(parse_records(path)) == self.records()

    @given(st.lists(drawn_records(), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_parsed_records_emit_as_drawn(self, tmp_path_factory, rows):
        drawn = record_columns(rows)
        path = tmp_path_factory.mktemp("records") / "records.jsonl"
        emit_records(drawn, path)
        buf = io.StringIO()
        emit_records(parse_records(path), buf)
        assert buf.getvalue().encode("utf-8") == path.read_bytes()


class TestJsonSummaries:
    def test_thresholds(self):
        buf = io.StringIO()
        emit_thresholds(Thresholds(0.94512345678, 0.9523456789, 28), buf)
        assert json.loads(buf.getvalue()) == {
            "s_min": 0.945123, "s_control": 0.952346, "pair_count": 28,
        }

    def test_thresholds_none(self):
        buf = io.StringIO()
        emit_thresholds(None, buf)
        assert json.loads(buf.getvalue()) == {
            "s_min": None, "s_control": None, "pair_count": 0,
        }

    def test_comparison(self):
        cmp = GroupComparison(
            target=GroupStats("target", 4, 0.5, 10.625, 1.25),
            control=GroupStats("control", 4, 0.25, 1.25, 0.25),
            tests=(
                WelchResult("dwell_seconds", 10.625, 1.25, 1.2345678, 3.456789, 0.30456789),
            ),
        )
        buf = io.StringIO()
        emit_comparison(cmp, buf)
        payload = json.loads(buf.getvalue())
        assert payload["target"] == {
            "group": "target", "n": 4, "clickthrough": 0.5,
            "mean_dwell": 10.625, "mean_usefulness": 1.25,
        }
        assert payload["tests"] == [{
            "measure": "dwell_seconds", "mean_target": 10.625, "mean_control": 1.25,
            "t": 1.23457, "df": 3.45679, "p_two_sided": 0.304568,
        }]
        assert payload["tests_run"] is True

    def test_comparison_no_tests(self):
        cmp = GroupComparison(
            target=GroupStats("target", 1, 1.0, 3.0, 1.0),
            control=GroupStats("control", 0, 0.0, 0.0, 0.0),
            tests=(),
        )
        buf = io.StringIO()
        emit_comparison(cmp, buf)
        payload = json.loads(buf.getvalue())
        assert payload["tests"] == []
        assert payload["tests_run"] is False

    def test_comparison_infinite_t_is_string(self):
        cmp = GroupComparison(
            target=GroupStats("target", 2, 1.0, 4.0, 2.0),
            control=GroupStats("control", 2, 0.0, 1.0, 0.0),
            tests=(WelchResult("dwell_seconds", 4.0, 1.0, math.inf, 2.0, 0.0),),
        )
        buf = io.StringIO()
        emit_comparison(cmp, buf)
        payload = json.loads(buf.getvalue())
        assert payload["tests"][0]["t"] == "inf"
        assert payload["tests"][0]["p_two_sided"] == 0.0
