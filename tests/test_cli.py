"""Command-line behaviour: golden outputs, exit codes, flag spellings, the
help screens, and the mine pipeline end to end.

The small demo fixture is three docs on one topic with one in-band decoy
pair; every expected number below was computed by hand from the metric
definitions and frozen as the %.6g strings the CLI must print.
"""

import gc
import json
import os
import pickle
import signal
import sys
import time
import warnings
from pathlib import Path

import pytest

from decoyeval import cli, ingest
from decoyeval.ingest import parse_records

from conftest import LOG_EXPECTED, write_corpus, write_planted_log

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def no_child_left():
    """No test leaves a child process behind, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_demo(dest: Path):
    """One topic: d1 grade 3, d2 grade 0, d3 grade 2, ranked d1 d2 d3.
    (d1, d2) is a decoy pair at similarity 0.9; (d2, d3) sits out of band."""
    dest.mkdir(parents=True, exist_ok=True)
    run = dest / "run.txt"
    qrels = dest / "qrels.txt"
    pairs = dest / "pairs.tsv"
    run.write_text(
        "t1 Q0 d1 1 3.0 demo\n"
        "t1 Q0 d2 2 2.0 demo\n"
        "t1 Q0 d3 3 1.0 demo\n"
    )
    qrels.write_text("t1 0 d1 3\nt1 0 d2 0\nt1 0 d3 2\n")
    pairs.write_text("t1\td1\td2\t0.9\nt1\td2\td3\t0.3\n")
    return run, qrels, pairs


ALL_METRICS = "dejavu,ndcg,recall,rbp,err,lc/ndcg,lc/rbp,lc/err"

# Hand-computed for the demo fixture at k = 10:
#   d=1, r=2 -> dejavu = 1 - e^-1 = 0.632121
#   DCG = 7 + 3/log2(4) = 8.5, IDCG = 7 + 3/log2(3) -> ndcg = 0.955831
#   recall = 2/2; rbp = 0.2*(1 + (2/3)*0.64) = 0.285333
#   ERR = 7/8 + (1/3)(1/8)(3/8) = 0.890625; lc = (dejavu + eff)/2
DEMO_ROW = (
    "demo\t10\tt1\t0.632121\t0.955831\t1\t0.285333\t0.890625"
    "\t0.793976\t0.458727\t0.761373\t1\t2"
)


class TestEval:
    def test_golden_tsv(self, tmp_path, capsys):
        run, qrels, pairs = write_demo(tmp_path)
        out = tmp_path / "scores.tsv"
        rc = cli.main([
            "eval", "--run", str(run), "--qrels", str(qrels),
            "--pair-sims", str(pairs), "--cutoffs", "10",
            "--metrics", ALL_METRICS, "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text() == (
            "run\tk\ttopic\tdejavu\tndcg\trecall\trbp\terr"
            "\tlc_ndcg\tlc_rbp\tlc_err\tdecoy_pairs\thighly_relevant\n"
            + DEMO_ROW + "\n"
            + DEMO_ROW.replace("\tt1\t", "\tall\t") + "\n"
        )

    def test_default_flags_to_stdout(self, tmp_path, capsys):
        run, qrels, pairs = write_demo(tmp_path)
        rc = cli.main([
            "eval", "--run", str(run), "--qrels", str(qrels),
            "--pair-sims", str(pairs),
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        # default cutoffs 10,20 and metrics dejavu,ndcg,recall
        assert lines[0] == (
            "run\tk\ttopic\tdejavu\tndcg\trecall\tdecoy_pairs\thighly_relevant"
        )
        assert lines[1] == "demo\t10\tt1\t0.632121\t0.955831\t1\t1\t2"
        assert lines[3] == "demo\t20\tt1\t0.632121\t0.955831\t1\t1\t2"
        assert len(lines) == 5

    def test_lc_spelling_pulls_operands(self, tmp_path, capsys):
        run, qrels, pairs = write_demo(tmp_path)
        rc = cli.main([
            "eval", "--run", str(run), "--qrels", str(qrels),
            "--pair-sims", str(pairs), "--cutoffs", "10",
            "--metrics", "lc/ndcg",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "run\tk\ttopic\tlc_ndcg\tdejavu\tndcg\tdecoy_pairs\thighly_relevant"
        )
        assert lines[1] == "demo\t10\tt1\t0.793976\t0.632121\t0.955831\t1\t2"

    def test_cutoff_set_does_not_change_bytes(self, tmp_path):
        # jsonl rows carry full precision and the format has no header, so
        # a run at several cutoffs is the runs at each cutoff, concatenated
        # in ascending cutoff order.
        paths = write_corpus(tmp_path / "corpus", n_topics=20, n_docs=120)
        outputs = {}
        for cutoffs in ("20,5,10", "5", "10", "20"):
            out = tmp_path / f"scores_{cutoffs.replace(',', '_')}.jsonl"
            rc = cli.main([
                "eval", "--run", str(paths.run), "--qrels", str(paths.qrels),
                "--pair-sims", str(paths.pairs), "--cutoffs", cutoffs,
                "--metrics", ALL_METRICS, "--format", "jsonl",
                "--out", str(out),
            ])
            assert rc == 0
            outputs[cutoffs] = out.read_bytes()
        assert outputs["20,5,10"] == outputs["5"] + outputs["10"] + outputs["20"]
        assert len(outputs["20,5,10"].splitlines()) == 3 * 21


class TestDecoys:
    def test_golden(self, tmp_path, capsys):
        run, qrels, pairs = write_demo(tmp_path)
        rc = cli.main([
            "decoys", "--run", str(run), "--qrels", str(qrels),
            "--pair-sims", str(pairs),
        ])
        assert rc == 0
        assert capsys.readouterr().out == (
            "topic\ttarget_doc\tdecoy_doc\tsimilarity\ttarget_rank"
            "\tdecoy_rank\ttarget_grade\tdecoy_grade\n"
            "t1\td1\td2\t0.9\t1\t2\t3\t0\n"
        )

    def test_no_pairs_header_only(self, tmp_path, capsys):
        run, qrels, pairs = write_demo(tmp_path)
        rc = cli.main([
            "decoys", "--run", str(run), "--qrels", str(qrels),
            "--pair-sims", str(pairs), "--s-min", "0.91",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        assert out.startswith("topic\t")

    def test_rel_gap_rule(self, tmp_path, capsys):
        # Gap rule with G=4 excludes the (3, 0) pair.
        run, qrels, pairs = write_demo(tmp_path)
        rc = cli.main([
            "decoys", "--run", str(run), "--qrels", str(qrels),
            "--pair-sims", str(pairs), "--rel-gap", "4",
        ])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 1


class TestSweep:
    def test_golden(self, tmp_path, capsys):
        run, qrels, pairs = write_demo(tmp_path)
        rc = cli.main([
            "sweep", "--run", str(run), "--qrels", str(qrels),
            "--pair-sims", str(pairs),
            "--k-start", "1", "--k-end", "3", "--k-step", "1",
        ])
        assert rc == 0
        # k=1 holds d=0 r=1 (gap 1, same dejavu as k=3); k=2 holds d=1 r=1,
        # where the gap closes and dejavu collapses to 0 even though the
        # pair count is already 1. ndcg@2 = 7/(7 + 3/log2(3)).
        assert capsys.readouterr().out == (
            "k\tdecoy_pairs\tndcg\trecall\tdejavu\n"
            "1\t0\t1\t0.5\t0.632121\n"
            "2\t1\t0.787155\t0.5\t0\n"
            "3\t1\t0.955831\t1\t0.632121\n"
        )

    def test_single_row(self, tmp_path, capsys):
        run, qrels, pairs = write_demo(tmp_path)
        rc = cli.main([
            "sweep", "--run", str(run), "--qrels", str(qrels),
            "--pair-sims", str(pairs),
            "--k-start", "10", "--k-end", "10", "--k-step", "10",
        ])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "10\t1\t0.955831\t1\t0.632121"
        ]


class TestExitCodes:
    def test_parse_error_is_1(self, tmp_path, capsys):
        run, qrels, pairs = write_demo(tmp_path)
        run.write_text("t1 Q0 d1 one 3.0 demo\n")
        rc = cli.main([
            "eval", "--run", str(run), "--qrels", str(qrels),
            "--pair-sims", str(pairs),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "run.txt" in err and ":1:" in err

    def test_non_utf8_qrels_is_1_at_its_line(self, tmp_path, capsys):
        run, qrels, pairs = write_demo(tmp_path)
        qrels.write_bytes(b"t1 0 d1 3\nt1 0 d2\xff 0\n")
        rc = cli.main([
            "eval", "--run", str(run), "--qrels", str(qrels),
            "--pair-sims", str(pairs),
        ])
        assert rc == 1
        assert f"{qrels}:2: invalid UTF-8: byte 0xff" in capsys.readouterr().err

    def test_non_utf8_log_is_1_at_its_line(self, tmp_path, capsys):
        paths = write_planted_log(tmp_path / "planted")
        lines = paths.log.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"s3"', b'"s\xe93"')
        paths.log.write_bytes(b"".join(lines))
        rc = cli.main([
            "mine", "--logs", str(paths.log), "--qrels", str(paths.qrels),
            "--pair-sims", str(paths.pairs), "--out", str(tmp_path / "mined"),
        ])
        assert rc == 1
        assert f"{paths.log}:3: invalid UTF-8: byte 0xe9" in capsys.readouterr().err

    def test_deeply_nested_log_line_is_1_at_its_line(self, tmp_path, capsys):
        paths = write_planted_log(tmp_path / "planted")
        lines = paths.log.read_bytes().splitlines(keepends=True)
        lines[1] = b"[" * 100_000 + b"]" * 100_000 + b"\n"
        paths.log.write_bytes(b"".join(lines))
        rc = cli.main([
            "mine", "--logs", str(paths.log), "--qrels", str(paths.qrels),
            "--pair-sims", str(paths.pairs), "--out", str(tmp_path / "mined"),
        ])
        assert rc == 1
        assert f"{paths.log}:2: invalid JSON: nested too deeply" in capsys.readouterr().err

    def test_missing_file_is_1(self, tmp_path, capsys):
        run, qrels, pairs = write_demo(tmp_path)
        rc = cli.main([
            "eval", "--run", str(tmp_path / "absent.txt"), "--qrels", str(qrels),
            "--pair-sims", str(pairs),
        ])
        assert rc == 1
        assert capsys.readouterr().err

    def test_usage_error_is_1(self, capsys):
        rc = cli.main(["eval"])
        assert rc == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_command_is_1(self, capsys):
        rc = cli.main(["frobnicate"])
        assert rc == 1

    def test_help_is_0(self, capsys):
        rc = cli.main(["--help"])
        assert rc == 0
        assert "usage: decoyeval" in capsys.readouterr().out

    def test_coverage_error_is_2(self, tmp_path, capsys):
        run, qrels, pairs = write_demo(tmp_path)
        pairs.write_text("t1\td2\td3\t0.3\n")  # (d1, d2) now unknown
        rc = cli.main([
            "eval", "--run", str(run), "--qrels", str(qrels),
            "--pair-sims", str(pairs),
        ])
        assert rc == 2
        assert "similarity coverage error" in capsys.readouterr().err

    def test_bad_cutoffs_is_1(self, tmp_path, capsys):
        run, qrels, pairs = write_demo(tmp_path)
        rc = cli.main([
            "eval", "--run", str(run), "--qrels", str(qrels),
            "--pair-sims", str(pairs), "--cutoffs", "abc",
        ])
        assert rc == 1
        assert "--cutoffs" in capsys.readouterr().err

    def test_bad_band_is_1(self, tmp_path, capsys):
        run, qrels, pairs = write_demo(tmp_path)
        rc = cli.main([
            "decoys", "--run", str(run), "--qrels", str(qrels),
            "--pair-sims", str(pairs), "--s-min", "0.99",
        ])
        assert rc == 1


class TestCyclicGc:
    """main pauses the cyclic collector while a command runs and hands the
    caller's setting back on every way out."""

    @pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
    def caller_gc(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("case, code", [("ok", 0), ("parse error", 1), ("coverage gap", 2)])
    def test_paused_during_command_and_restored(
        self, tmp_path, capsys, monkeypatch, caller_gc, case, code
    ):
        run, qrels, pairs = write_demo(tmp_path)
        if case == "parse error":
            run.write_text("t1 Q0 d1 one 3.0 demo\n")
        if case == "coverage gap":
            pairs.write_text("t1\td2\td3\t0.3\n")
        during = []
        parse_run = ingest.parse_run

        def recording_parse_run(path):
            during.append(gc.isenabled())
            return parse_run(path)

        monkeypatch.setattr(ingest, "parse_run", recording_parse_run)
        rc = cli.main(["eval", "--run", str(run), "--qrels", str(qrels),
                       "--pair-sims", str(pairs)])
        assert rc == code
        assert during == [False]
        assert gc.isenabled() is caller_gc

    def test_restored_when_a_command_raises(self, monkeypatch, caller_gc):
        def interrupted(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(ingest, "parse_run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["eval", "--run", "r", "--qrels", "q", "--pair-sims", "p"])
        assert gc.isenabled() is caller_gc


class TestHelpGolden:
    @pytest.mark.parametrize("name", ["main", "eval", "decoys", "sweep", "mine"])
    def test_help_text_is_stable(self, name, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        parser = cli.build_parser()
        if name == "main":
            text = parser.format_help()
        else:
            sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
            text = sub.choices[name].format_help()
        golden = (GOLDEN_DIR / f"help_{name}.txt").read_text()
        assert text == golden


class TestMine:
    def run_mine(self, paths, out_dir, *extra):
        return cli.main([
            "mine", "--logs", str(paths.log), "--qrels", str(paths.qrels),
            "--pair-sims", str(paths.pairs), "--out", str(out_dir), *extra,
        ])

    def test_planted_end_to_end(self, tmp_path):
        paths = write_planted_log(tmp_path / "planted")
        out_dir = tmp_path / "mined"
        assert self.run_mine(paths, out_dir) == 0

        thresholds = json.loads((out_dir / "thresholds.json").read_text())
        assert thresholds == {"s_min": 0.945, "s_control": 0.945, "pair_count": 28}

        assert (out_dir / "decoy_pairs.tsv").read_text() == (
            "serp_id\ttopic\ttarget_doc\tdecoy_doc\tsimilarity\ttarget_rank"
            "\tdecoy_rank\ttarget_grade\tdecoy_grade\n"
            "s1\tt1\tA\tB\t0.945\t1\t2\t4\t0\n"
            "s2\tt1\tD\tE\t0.945\t1\t2\t3\t1\n"
            "s2\tt1\tA\tB\t0.945\t4\t5\t4\t0\n"
            "s3\tt1\tA\tB\t0.945\t2\t3\t4\t0\n"
        )
        assert (out_dir / "targets.txt").read_text() == "A\nD\n"
        assert (out_dir / "controls.txt").read_text() == "C\nE\nF\n"
        assert (out_dir / "targets_matched.txt").read_text() == "A\nD\n"

        records = parse_records(out_dir / "records.jsonl")
        got = [(r.serp_id, r.doc_id, r.rank) for r in records]
        assert got == LOG_EXPECTED.target_records + LOG_EXPECTED.control_records
        assert [r.group for r in records] == ["target"] * 4 + ["control"] * 4
        by_key = {(r.serp_id, r.doc_id): r for r in records}
        assert by_key[("s1", "A")].dwell_seconds == 30.5
        assert by_key[("s3", "A")].dwell_seconds == 0.0
        assert not by_key[("s3", "A")].is_clicked

        stats = json.loads((out_dir / "group_stats.json").read_text())
        assert stats["target"] == {
            "group": "target", "n": 4, "clickthrough": 0.5,
            "mean_dwell": 10.625, "mean_usefulness": 1.25,
        }
        assert stats["control"] == {
            "group": "control", "n": 4, "clickthrough": 0.25,
            "mean_dwell": 1.25, "mean_usefulness": 0.25,
        }
        assert stats["tests_run"] is True
        assert [t["measure"] for t in stats["tests"]] == [
            "clickthrough", "dwell_seconds", "usefulness",
        ]
        for t in stats["tests"]:
            assert 0.0 < t["p_two_sided"] <= 1.0

    def test_csv_pair_table(self, tmp_path):
        paths = write_planted_log(tmp_path / "planted")
        out_dir = tmp_path / "mined"
        assert self.run_mine(paths, out_dir, "--format", "csv") == 0
        assert (out_dir / "decoy_pairs.csv").exists()
        assert not (out_dir / "decoy_pairs.tsv").exists()
        # Records keep their fixed format regardless of --format.
        assert (out_dir / "records.jsonl").exists()

    def test_single_doc_serps_skip_pipeline(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text(
            '{"serp_id": "s1", "session_id": "x", "user_id": "u", "task_id": "k",'
            ' "topic_id": "t1", "serp": [{"doc_id": "A", "rank": 1}], "clicks": []}\n'
        )
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("t1 0 A 2\n")
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("t1\tA\tB\t0.5\n")
        out_dir = tmp_path / "mined"
        rc = cli.main([
            "mine", "--logs", str(log), "--qrels", str(qrels),
            "--pair-sims", str(pairs), "--out", str(out_dir),
        ])
        assert rc == 0
        assert json.loads((out_dir / "thresholds.json").read_text()) == {
            "s_min": None, "s_control": None, "pair_count": 0,
        }
        assert (out_dir / "targets.txt").read_text() == ""
        assert (out_dir / "records.jsonl").read_text() == ""
        stats = json.loads((out_dir / "group_stats.json").read_text())
        assert stats["tests_run"] is False
        assert stats["target"]["n"] == 0

    def test_top_n_limits_scan(self, tmp_path):
        paths = write_planted_log(tmp_path / "planted")
        out_dir = tmp_path / "mined"
        assert self.run_mine(paths, out_dir, "--top-n", "3") == 0
        records = parse_records(out_dir / "records.jsonl")
        got = [(r.serp_id, r.doc_id, r.group) for r in records]
        # (s2, A) sits at rank 4 and drops out of the scanned prefix.
        assert got == [
            ("s1", "A", "target"), ("s2", "D", "target"), ("s3", "A", "target"),
            ("s1", "C", "control"), ("s2", "E", "control"),
            ("s2", "F", "control"), ("s3", "C", "control"),
        ]

    @pytest.mark.parametrize("top_n", ["0", "-1"])
    def test_top_n_below_one_is_1(self, tmp_path, capsys, top_n):
        paths = write_planted_log(tmp_path / "planted")
        out_dir = tmp_path / "mined"
        assert self.run_mine(paths, out_dir, "--top-n", top_n) == 1
        assert "--top-n" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bad_percentile_order_is_1(self, tmp_path, capsys):
        paths = write_planted_log(tmp_path / "planted")
        rc = self.run_mine(paths, tmp_path / "mined", "--s-min-pct", "99.9")
        assert rc == 1
        assert "must be below" in capsys.readouterr().err


class TestMineFlags:
    """Bad `mine` flags are usage errors, found before any input is read."""

    @pytest.mark.parametrize("flags, message", [
        (["--rel-window", "-1"], "relevance window must be >= 0, got -1"),
        (["--delta-rank", "0"], "delta_rank must be >= 1, got 0"),
        (["--s-min-pct", "99.5", "--s-control-pct", "99"],
         "s_min percentile (99.5) must be below s_control percentile (99.0)"),
        (["--rel-gap", "0"], "grade gap must be >= 1, got 0"),
        (["--s-min-pct", "0"], "percentile must lie in (0, 100), got 0.0"),
        (["--s-min-pct", "-5"], "percentile must lie in (0, 100), got -5.0"),
        (["--s-control-pct", "100"], "percentile must lie in (0, 100), got 100.0"),
        (["--s-max", "0"], "--s-max must lie in (0, 1], got 0.0"),
        (["--s-max", "1.5"], "--s-max must lie in (0, 1], got 1.5"),
        (["--s-max", "nan"], "--s-max must lie in (0, 1], got nan"),
    ])
    @pytest.mark.parametrize("logs", ["planted", "absent"])
    def test_rejected_before_reading(self, tmp_path, capsys, flags, message, logs):
        paths = write_planted_log(tmp_path / "planted")
        log = paths.log if logs == "planted" else tmp_path / "absent.jsonl"
        out_dir = tmp_path / "mined"
        rc = cli.main(["mine", "--logs", str(log), "--qrels", str(paths.qrels),
                       "--pair-sims", str(paths.pairs), "--out", str(out_dir), *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_rejected_for_a_log_without_pairs(self, tmp_path, capsys):
        # Such a log skips detection, so these flags were never checked.
        log = tmp_path / "log.jsonl"
        log.write_text(
            '{"serp_id": "s1", "session_id": "x", "user_id": "u", "task_id": "k",'
            ' "topic_id": "t1", "serp": [{"doc_id": "A", "rank": 1}], "clicks": []}\n'
        )
        (tmp_path / "qrels.txt").write_text("t1 0 A 2\n")
        (tmp_path / "pairs.tsv").write_text("t1\tA\tB\t0.5\n")
        rc = cli.main(["mine", "--logs", str(log), "--qrels", str(tmp_path / "qrels.txt"),
                       "--pair-sims", str(tmp_path / "pairs.tsv"),
                       "--out", str(tmp_path / "mined"), "--delta-rank", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: delta_rank must be >= 1, got 0\n"
        assert not (tmp_path / "mined").exists()


@pytest.fixture(scope="class")
def log_child_off():
    """`mine` reads its log in this process for the class's tests, as where
    no child is wanted."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_log_child_wanted", lambda: False)
        yield


@pytest.mark.usefixtures("log_child_off")
class TestMineInProcess(TestMine):
    """Every `mine` test again, with the log read in this process."""


@pytest.mark.usefixtures("log_child_off")
class TestMineFlagsInProcess(TestMineFlags):
    """Every `mine` flag test again, with the log read in this process."""


@pytest.mark.usefixtures("log_child_off")
class TestLogExitCodesInProcess:
    """The log rows of TestExitCodes again, with the log read in this process."""

    test_non_utf8_log_is_1_at_its_line = TestExitCodes.test_non_utf8_log_is_1_at_its_line
    test_deeply_nested_log_line_is_1_at_its_line = (
        TestExitCodes.test_deeply_nested_log_line_is_1_at_its_line)


@pytest.fixture(params=["child", "in-process"])
def log_read(request, monkeypatch):
    """Where `mine` reads its log: in a forked child, or in this process."""
    if request.param == "child" and not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    monkeypatch.setattr(cli, "_log_child_wanted", lambda: request.param == "child")
    return request.param


def parent_reads(monkeypatch):
    """The paths `ingest.parse_interaction_log` reads in this process from
    now on; a forked child's reads are not seen."""
    reads = []
    parse = ingest.parse_interaction_log
    monkeypatch.setattr(ingest, "parse_interaction_log",
                        lambda path: reads.append(path) or parse(path))
    return reads


def in_child(action):
    """A stand-in for `ingest.parse_interaction_log` that runs `action` in a
    forked child and reads the log as usual in this process."""
    parent, parse = os.getpid(), ingest.parse_interaction_log

    def parse_interaction_log(path):
        if os.getpid() != parent:
            action()
        return parse(path)

    return parse_interaction_log


def mine(paths, out_dir, log=None, pairs=None):
    return cli.main(["mine", "--logs", str(log or paths.log), "--qrels", str(paths.qrels),
                     "--pair-sims", str(pairs or paths.pairs), "--out", str(out_dir)])


def outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestMineLogChild:
    """`mine` reads its log in a forked child while it reads the qrels and
    the source, with the outputs, diagnostics and exit codes of reading the
    inputs one after another in this process."""

    def test_valid_log_read_once(self, planted_log, tmp_path, monkeypatch, log_read):
        reads = parent_reads(monkeypatch)
        assert mine(planted_log, tmp_path / "mined") == 0
        assert reads == ([] if log_read == "child" else [planted_log.log])
        assert (tmp_path / "mined" / "targets.txt").read_text() == "A\nD\n"

    def test_faulty_log_read_again_here(self, planted_log, tmp_path, monkeypatch, log_read):
        planted_log.log.write_text(planted_log.log.read_text() + "{}\n")
        reads = parent_reads(monkeypatch)
        assert mine(planted_log, tmp_path / "mined") == 1
        assert reads == [planted_log.log]

    @pytest.mark.parametrize("case", ["log and qrels faulty", "qrels faulty",
                                      "log and pairs absent", "pairs faulty"])
    def test_fault_named(self, planted_log, tmp_path, capsys, log_read, case):
        log, pairs = planted_log.log, planted_log.pairs
        if case in ("log and qrels faulty", "qrels faulty"):
            planted_log.qrels.write_text("t1 0 A four\n")
        if case == "log and qrels faulty":
            log.write_bytes(log.read_bytes().replace(b'"s3"', b'"s\xe93"'))
        if case == "log and pairs absent":
            log, pairs = tmp_path / "absent.jsonl", tmp_path / "absent.tsv"
        if case == "pairs faulty":
            pairs.write_text("t1\tA\tB\tnear\n")
        # The first fault found reading the log, the qrels and the pairs in turn.
        try:
            ingest.parse_interaction_log(log)
            ingest.parse_qrels(planted_log.qrels, g_max=4)
            ingest.parse_pair_sims(pairs)
        except ingest.ParseError as exc:
            expected = f"{exc}\n"
        except OSError as exc:
            expected = f"error: {exc}\n"
        assert expected.startswith({
            "log and qrels faulty": f"1 parse error(s) in {log}:\n{log}:3: invalid UTF-8",
            "qrels faulty": f"1 parse error(s) in {planted_log.qrels}:",
            "log and pairs absent": f"error: [Errno 2] No such file or directory: '{log}'",
            "pairs faulty": f"1 parse error(s) in {pairs}:",
        }[case])
        assert mine(planted_log, tmp_path / "mined", log, pairs) == 1
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "mined").exists()

    @pytest.mark.parametrize("fault", ["exits", "killed", "cut off while sending"])
    def test_child_without_a_log(self, planted_log, tmp_path, monkeypatch, fault):
        monkeypatch.setattr(cli, "_log_child_wanted", lambda: False)
        assert mine(planted_log, tmp_path / "in-process") == 0
        monkeypatch.setattr(cli, "_log_child_wanted", lambda: True)
        if fault == "cut off while sending":
            # Only the child pickles: half the log, then a broken pipe.
            def half_dump(obj, file, protocol):
                data = pickle.dumps(obj, protocol)
                file.write(data[:len(data) // 2])
                file.flush()
                raise BrokenPipeError

            monkeypatch.setattr(pickle, "dump", half_dump)
        else:
            action = {"exits": lambda: os._exit(1),
                      "killed": lambda: os.kill(os.getpid(), signal.SIGKILL)}[fault]
            monkeypatch.setattr(ingest, "parse_interaction_log", in_child(action))
        reads = parent_reads(monkeypatch)
        assert mine(planted_log, tmp_path / "child") == 0
        assert reads == [planted_log.log]
        assert outputs(tmp_path / "child") == outputs(tmp_path / "in-process")

    def test_interrupt_stops_the_child(self, planted_log, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_log_child_wanted", lambda: True)
        monkeypatch.setattr(ingest, "parse_interaction_log", in_child(lambda: time.sleep(60)))

        def interrupted(path, g_max):
            raise KeyboardInterrupt

        monkeypatch.setattr(ingest, "parse_qrels", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            mine(planted_log, tmp_path / "mined")
        assert time.monotonic() - started < 30

    def test_fork_warning_of_a_threaded_process_ignored(self, planted_log, tmp_path,
                                                        monkeypatch):
        # Python 3.12+ warns so on fork() where numpy's BLAS threads run.
        fork = os.fork

        def warning_fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                          "fork() may lead to deadlocks in the child.",
                          DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(cli, "_log_child_wanted", lambda: True)
        monkeypatch.setattr(os, "fork", warning_fork)
        reads = parent_reads(monkeypatch)
        assert mine(planted_log, tmp_path / "mined") == 0
        assert reads == []

    @pytest.mark.parametrize("platform, cpus, wanted", [
        ("linux", {0, 1}, True), ("linux", {0}, False), ("darwin", {0, 1}, False),
    ])
    def test_child_wanted(self, monkeypatch, platform, cpus, wanted):
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert cli._log_child_wanted() is (wanted and hasattr(os, "fork"))
