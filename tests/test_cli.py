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
import random
import sys
import time
import warnings
from itertools import accumulate, combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from decoyeval import cli, forking, ingest
from decoyeval.ingest import parse_records
from decoyeval.metrics import KNOWN_METRICS
from decoyeval.model import VectorStore

from conftest import (
    CHILD_FAULTS, LOG_EXPECTED, LOG_SERPS, half_dump, record_rows, wait_for, write_corpus,
    write_planted_log,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


pytestmark = pytest.mark.usefixtures("no_child_left")


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

    @pytest.mark.parametrize("grades, sims, score, r", [
        # (a, b) is a pair under a one-grade gap, but its target a is graded
        # 1: it is not among r's relevant docs, so it is not among d's.
        ({"a": 1, "b": 0, "c": 3}, {("a", "b"): 0.7, ("a", "c"): 0.1, ("b", "c"): 0.1},
         "0.632121", "1"),
        ({"a": 1, "b": 0}, {("a", "b"): 0.7}, "0", "0"),
    ])
    def test_dejavu_counts_only_relevant_targets(self, tmp_path, capsys, grades, sims, score, r):
        run, qrels, pairs = (tmp_path / name for name in ("run.txt", "qrels.txt", "pairs.tsv"))
        run.write_text("".join(f"t1 Q0 {d} {i} {-i} demo\n" for i, d in enumerate(grades, 1)))
        qrels.write_text("".join(f"t1 0 {d} {g}\n" for d, g in grades.items()))
        pairs.write_text("".join(f"t1\t{a}\t{b}\t{s}\n" for (a, b), s in sims.items()))
        rc = cli.main([
            "eval", "--run", str(run), "--qrels", str(qrels), "--pair-sims", str(pairs),
            "--rel-gap", "1", "--metrics", "dejavu", "--cutoffs", "3",
        ])
        assert rc == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        # dejavu(0, 0) prints as -0 (the open -0 fault), so it is read as a number.
        assert [(row[2], float(row[3]), row[4:]) for row in rows] == [
            (topic, float(score), ["0", r]) for topic in ("t1", "all")]


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

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_qrels_without_topics_is_1(self, tmp_path, capsys, command):
        run, qrels, pairs = write_demo(tmp_path)
        qrels.write_text("")
        rc = cli.main([
            command, "--run", str(run), "--qrels", str(qrels), "--pair-sims", str(pairs),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: qrels contain no topics\n"

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
        assert capsys.readouterr().err == (
            "similarity coverage error: similarity coverage incomplete for topic t1: "
            "1 key(s) missing: (d1, d2)\n")

    @pytest.mark.parametrize("command, flag", [
        ("decoys", "--pair-sims"), ("sweep", "--pair-sims"),
        ("eval", "--vectors"), ("decoys", "--vectors"), ("sweep", "--vectors"),
    ])
    def test_coverage_error_names_the_key(self, tmp_path, capsys, command, flag):
        # A missing pair is named as (a, b), a doc without a vector as itself.
        run, qrels, source = write_demo(tmp_path)
        if flag == "--pair-sims":
            source.write_text("t1\td2\td3\t0.3\n")
            named = "(d1, d2)"
        else:
            source.write_text('{"doc_id": "d1", "vector": [1.0, 0.0]}\n'
                              '{"doc_id": "d3", "vector": [0.0, 1.0]}\n')
            named = "d2"
        rc = cli.main([command, "--run", str(run), "--qrels", str(qrels), flag, str(source)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "similarity coverage error: similarity coverage incomplete for topic t1: "
            f"1 key(s) missing: {named}\n")

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


class TestRunFlags:
    """Bad `eval`, `decoys` and `sweep` flags are usage errors, found before
    any input is read, as they are for `mine`."""

    @pytest.mark.parametrize("command, flags, message", [
        ("eval", ["--g-max", "0"], "g_max must be >= 2, got 0"),
        ("eval", ["--metrics", "bogus"],
         f"unknown metric 'bogus'; known: {', '.join(KNOWN_METRICS)}"),
        ("eval", ["--metrics", ","], "at least one metric is required"),
        ("eval", ["--cutoffs", "abc"], "--cutoffs expects comma-separated integers, got 'abc'"),
        ("eval", ["--cutoffs", "10,-1,0"], "cutoff must be >= 1, got -1"),
        ("eval", ["--phi", "1"], "phi must lie in (0, 1), got 1.0"),
        ("eval", ["--alpha", "2"], "alpha must lie in [0, 1], got 2.0"),
        ("eval", ["--s-min", "0.99"],
         "similarity band must satisfy 0 <= s_min < s_max <= 1, got [0.99, 0.95]"),
        ("decoys", ["--k", "0"], "cutoff must be >= 1, got 0"),
        ("decoys", ["--delta-rank", "0"], "delta_rank must be >= 1, got 0"),
        ("decoys", ["--rel-band", "2"], "--rel-band expects two integers T,D, got '2'"),
        ("sweep", ["--k-step", "0"],
         "need 1 <= k_start <= k_end and k_step >= 1, got start=10 end=1000 step=0"),
        ("sweep", ["--k-start", "20", "--k-end", "10"],
         "need 1 <= k_start <= k_end and k_step >= 1, got start=20 end=10 step=10"),
        ("sweep", ["--g-max", "0"], "g_max must be >= 2, got 0"),
        ("sweep", ["--rel-gap", "0"], "grade gap must be >= 1, got 0"),
        ("decoys", ["--g-max", "-1"], "g_max must be non-negative, got -1"),
        # No doc is relevant on a scale below grade 2.
        ("eval", ["--g-max", "1"], "g_max must be >= 2, got 1"),
        ("sweep", ["--g-max", "1"], "g_max must be >= 2, got 1"),
    ])
    @pytest.mark.parametrize("inputs", ["demo", "malformed", "absent"])
    def test_rejected_before_reading(self, tmp_path, capsys, command, flags, message, inputs):
        run, qrels, pairs = write_demo(tmp_path)
        if inputs == "malformed":
            run.write_text("t1 Q0 d1 one 3.0 demo\n")
        elif inputs == "absent":
            run, qrels, pairs = (tmp_path / "absent" / p.name for p in (run, qrels, pairs))
        rc = cli.main([command, "--run", str(run), "--qrels", str(qrels),
                       "--pair-sims", str(pairs), *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def write_vectors(path: Path, rng: random.Random, docs, dim: int) -> VectorStore:
    """One positive `dim`-dimensional vector per doc, as JSONL; returns
    the store the CLI reads from it."""
    vectors = {d: [rng.uniform(0.0, 1.0) for _ in range(dim)] for d in docs}
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, vec in vectors.items():
            fh.write(json.dumps({"doc_id": doc_id, "vector": vec}) + "\n")
    return VectorStore({d: np.array(v) for d, v in vectors.items()})


def write_store_pairs(path: Path, store: VectorStore, topic_docs) -> None:
    """Every within-topic pair's `VectorStore.sim`, written exactly (repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id, docs in topic_docs.items():
            for a, b in combinations(docs, 2):
                fh.write(f"{topic_id}\t{a}\t{b}\t{store.sim(a, b)!r}\n")


def write_vector_mine_world(dest: Path, seed: int) -> SimpleNamespace:
    """One topic whose docs a, b, c are graded 2, 0, 0, four SERPs showing
    them in random orders, positive 16-dim vectors, and the pair file of
    their exact similarities."""
    rng = random.Random(seed)
    dest.mkdir(parents=True, exist_ok=True)
    world = SimpleNamespace(log=dest / "log.jsonl", qrels=dest / "qrels.txt",
                            vectors=dest / "vectors.jsonl", pairs=dest / "pairs.tsv")
    world.qrels.write_text("t1 0 a 2\nt1 0 b 0\nt1 0 c 0\n")
    store = write_vectors(world.vectors, rng, "abc", 16)
    write_store_pairs(world.pairs, store, {"t1": "abc"})
    with open(world.log, "w", encoding="utf-8") as fh:
        for i in range(4):
            order = rng.sample("abc", 3)
            fh.write(json.dumps({
                "serp_id": f"s{i}", "session_id": "x", "user_id": "u", "task_id": "k",
                "topic_id": "t1", "clicks": [],
                "serp": [{"doc_id": d, "rank": r + 1} for r, d in enumerate(order)],
            }) + "\n")
    return world


class TestVectorsParity:
    """A command reads the same similarity for a pair from --vectors as from
    a --pair-sims file of VectorStore.sim's exact values, so its output is
    the same bytes; for mine that includes the pooled values its thresholds
    come from."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--cutoffs", "5,10,40", "--metrics", ALL_METRICS],
        ["decoys", "--k", "40", "--no-dedup"],
        ["sweep", "--k-start", "1", "--k-end", "40", "--k-step", "3"],
    ])
    def test_run_commands(self, tmp_path, capsys, argv):
        corpus = write_corpus(tmp_path, n_topics=3, n_docs=40, seed=5)
        topic_docs = {}
        for line in corpus.run.read_text().splitlines():
            topic_id, _, doc_id, *_ = line.split()
            topic_docs.setdefault(topic_id, []).append(doc_id)
        store = write_vectors(tmp_path / "vectors.jsonl", random.Random(5),
                              [d for docs in topic_docs.values() for d in docs], 16)
        write_store_pairs(tmp_path / "exact.tsv", store, topic_docs)
        printed = []
        for source in (["--vectors", str(tmp_path / "vectors.jsonl")],
                       ["--pair-sims", str(tmp_path / "exact.tsv")]):
            assert cli.main([*argv, "--run", str(corpus.run), "--qrels", str(corpus.qrels),
                             *source]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert printed[0].count("\n") > 10

    @pytest.mark.parametrize("flags", [
        ["--s-min-pct", "50", "--s-control-pct", "75", "--s-max", "1"],
        ["--s-min-pct", "25", "--s-control-pct", "50", "--s-max", "1"],
    ])
    @pytest.mark.parametrize("seed", range(30))
    def test_mine(self, tmp_path, flags, seed):
        # With three pairs a percentile of integral rank is one pair's value
        # itself, so thresholds pooled from any other cosine than the one
        # detection reads, off in the last bits, change what is found: at
        # seeds 0, 15, 26 and 28 for the values of a BLAS matrix product.
        world = write_vector_mine_world(tmp_path / "world", seed)
        mined = []
        for source in (["--vectors", str(world.vectors)], ["--pair-sims", str(world.pairs)]):
            out_dir = tmp_path / source[0].lstrip("-")
            assert cli.main(["mine", "--logs", str(world.log), "--qrels", str(world.qrels),
                             *source, "--out", str(out_dir), *flags]) == 0
            mined.append(outputs(out_dir))
        assert mined[0] == mined[1]


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

        records = record_rows(parse_records(out_dir / "records.jsonl"))
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
        records = record_rows(parse_records(out_dir / "records.jsonl"))
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

    @pytest.mark.parametrize("sims, s_max, message", [
        ((-0.5, -0.2, 0.3), "0.95", "derived s_min -0.2 (--s-min-pct 50.0 of 3 pooled "
                                    "pair similarities) must lie in [0, --s-max 0.95)"),
        ((0.6, 0.7, 0.8), "0.7", "derived s_min 0.7 (--s-min-pct 50.0 of 3 pooled "
                                 "pair similarities) must lie in [0, --s-max 0.7)"),
    ])
    def test_derived_s_min_outside_band_is_1(self, tmp_path, capsys, sims, s_max, message):
        # The band's lower bound comes from the log's pooled similarities,
        # not from a flag: the error names it as derived.
        log = tmp_path / "log.jsonl"
        log.write_text(
            '{"serp_id": "s1", "session_id": "x", "user_id": "u", "task_id": "k",'
            ' "topic_id": "t1", "serp": [{"doc_id": "A", "rank": 1},'
            ' {"doc_id": "B", "rank": 2}, {"doc_id": "C", "rank": 3}], "clicks": []}\n'
        )
        paths = SimpleNamespace(log=log, qrels=tmp_path / "qrels.txt", pairs=tmp_path / "p.tsv")
        paths.qrels.write_text("t1 0 A 2\nt1 0 B 0\nt1 0 C 0\n")
        paths.pairs.write_text("".join(
            f"t1\t{a}\t{b}\t{sim}\n" for (a, b), sim in zip(combinations("ABC", 2), sims)))
        rc = self.run_mine(paths, tmp_path / "mined", "--s-min-pct", "50",
                           "--s-control-pct", "75", "--s-max", s_max)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_percentile_order_is_1(self, tmp_path, capsys):
        paths = write_planted_log(tmp_path / "planted")
        rc = self.run_mine(paths, tmp_path / "mined", "--s-min-pct", "99.9")
        assert rc == 1
        assert "must be below" in capsys.readouterr().err

    @staticmethod
    def one_serp(tmp_path, pairs, serp_id="s1"):
        """A log of one SERP showing A, B and C, judged 3, 0 and 0, with the
        pair similarities `pairs`."""
        log = tmp_path / "log.jsonl"
        log.write_text(
            f'{{"serp_id": {json.dumps(serp_id)}, "session_id": "x", "user_id": "u",'
            ' "task_id": "k", "topic_id": "t1", "serp": [{"doc_id": "A", "rank": 1},'
            ' {"doc_id": "B", "rank": 2}, {"doc_id": "C", "rank": 3}], "clicks": []}\n'
        )
        paths = SimpleNamespace(log=log, qrels=tmp_path / "qrels.txt", pairs=tmp_path / "p.tsv")
        paths.qrels.write_text("t1 0 A 3\nt1 0 B 0\nt1 0 C 0\n")
        paths.pairs.write_text(pairs)
        return paths

    @pytest.mark.parametrize("serp_id, pairs, flags, code, message", [
        ("s1", "t1\tA\tB\t0.9\nt1\tA\tC\t0.9\nt1\tB\tC\t0.9\n", ["--s-max", "0.5"], 1,
         "error: derived s_min 0.9 (--s-min-pct 99.0 of 3 pooled pair similarities) "
         "must lie in [0, --s-max 0.5)\n"),
        ("s1", "t1\tA\tB\t0.9\nt1\tA\tC\t0.9\n", [], 2,
         "similarity coverage error: 1 pair(s) absent from topic t1: (B, C)\n"),
        ("s\t1", "t1\tA\tB\t0.9\nt1\tA\tC\t0.1\nt1\tB\tC\t0.1\n", [], 1,
         "error: field 's\\t1' contains a TSV delimiter; use csv or jsonl\n"),
    ], ids=["empty band", "coverage gap", "tsv delimiter in a cell"])
    def test_failed_run_makes_no_out_dir(self, tmp_path, capsys, serp_id, pairs, flags, code,
                                         message):
        paths = self.one_serp(tmp_path, pairs, serp_id)
        assert self.run_mine(paths, tmp_path / "out" / "mined", *flags) == code
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    def test_tsv_delimiter_in_a_cell_written_as_csv(self, tmp_path):
        paths = self.one_serp(tmp_path, "t1\tA\tB\t0.9\nt1\tA\tC\t0.1\nt1\tB\tC\t0.1\n",
                              "s\t1")
        assert self.run_mine(paths, tmp_path / "mined", "--format", "csv") == 0
        assert (tmp_path / "mined" / "decoy_pairs.csv").read_text().splitlines() == [
            "serp_id,topic,target_doc,decoy_doc,similarity,target_rank,decoy_rank,"
            "target_grade,decoy_grade",
            "s\t1,t1,A,B,0.9,1,2,3,0",
        ]

    def test_existing_out_dir_is_written(self, tmp_path):
        paths = write_planted_log(tmp_path / "planted")
        fresh, existing = tmp_path / "fresh", tmp_path / "existing"
        existing.mkdir()
        (existing / "targets.txt").write_text("stale\n")
        assert self.run_mine(paths, fresh) == 0
        assert self.run_mine(paths, existing) == 0
        assert outputs(existing) == outputs(fresh)


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
        (["--g-max", "-1"], "g_max must be non-negative, got -1"),
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
        mp.setattr(forking, "child_wanted", lambda: False)
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
    monkeypatch.setattr(forking, "child_wanted", lambda: request.param == "child")
    return request.param


def parent_reads(monkeypatch):
    """The paths `ingest.parse_interaction_log` reads in this process from
    now on; a forked child's reads are not seen."""
    reads = []
    parse = ingest.parse_interaction_log
    monkeypatch.setattr(ingest, "parse_interaction_log",
                        lambda path: reads.append(path) or parse(path))
    return reads


def qrels_reads(monkeypatch):
    """The paths `ingest.parse_qrels` reads in this process from now on."""
    reads = []
    parse = ingest.parse_qrels
    monkeypatch.setattr(ingest, "parse_qrels",
                        lambda path, g_max: reads.append(path) or parse(path, g_max))
    return reads


def in_child(action, marker: Path, name="read_interaction_log"):
    """A stand-in for the `ingest` read `name`. In a forked child it makes
    `marker`, then runs `action`, then reads as usual. In this process it
    first waits for the marker, so that the child has reached the read."""
    parent, read = os.getpid(), getattr(ingest, name)

    def stand_in(*args):
        if os.getpid() != parent:
            marker.touch()
            action()
        else:
            wait_for(marker)
        return read(*args)

    return stand_in


def warning_fork(fork=os.fork):
    """`os.fork` after the warning Python 3.12+ gives on fork() where
    numpy's BLAS threads run."""
    warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                  "fork() may lead to deadlocks in the child.",
                  DeprecationWarning, stacklevel=2)
    return fork()


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

    def test_faulty_log_read_before_the_qrels_without_a_child(self, planted_log, tmp_path,
                                                              monkeypatch):
        monkeypatch.setattr(forking, "child_wanted", lambda: False)
        planted_log.log.write_text(planted_log.log.read_text() + "{}\n")
        reads = qrels_reads(monkeypatch)
        assert mine(planted_log, tmp_path / "mined") == 1
        assert reads == []

    @pytest.mark.parametrize("case", ["log and qrels faulty", "qrels faulty",
                                      "log faulty, qrels warns",
                                      "log and pairs absent", "pairs faulty"])
    def test_fault_named(self, planted_log, tmp_path, capsys, caplog, log_read, case):
        log, pairs = planted_log.log, planted_log.pairs
        if case in ("log and qrels faulty", "qrels faulty"):
            planted_log.qrels.write_text("t1 0 A four\n")
        if case == "log faulty, qrels warns":  # each judgment twice, with its grade
            planted_log.qrels.write_text(planted_log.qrels.read_text() * 2)
        if case in ("log and qrels faulty", "log faulty, qrels warns"):
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
            "log faulty, qrels warns": f"1 parse error(s) in {log}:\n{log}:3: invalid UTF-8",
            "log and pairs absent": f"error: [Errno 2] No such file or directory: '{log}'",
            "pairs faulty": f"1 parse error(s) in {pairs}:",
        }[case])
        caplog.clear()
        assert mine(planted_log, tmp_path / "mined", log, pairs) == 1
        assert capsys.readouterr().err == expected
        # A faulty log is named alone, with no warning from the qrels.
        assert caplog.records == []
        assert not (tmp_path / "mined").exists()

    @pytest.mark.parametrize("fault", ["exits", "killed", "cut off while sending"])
    def test_child_without_a_log(self, planted_log, tmp_path, monkeypatch, fault):
        monkeypatch.setattr(forking, "child_wanted", lambda: False)
        assert mine(planted_log, tmp_path / "in-process") == 0
        monkeypatch.setattr(forking, "child_wanted", lambda: True)
        marker = tmp_path / "child-read"
        if fault == "cut off while sending":
            monkeypatch.setattr(pickle, "dump", half_dump)
        else:
            monkeypatch.setattr(ingest, "read_interaction_log",
                                in_child(CHILD_FAULTS[fault], marker))
        reads = parent_reads(monkeypatch)
        assert mine(planted_log, tmp_path / "child") == 0
        assert reads == [planted_log.log]
        assert outputs(tmp_path / "child") == outputs(tmp_path / "in-process")
        assert marker.exists() is (fault != "cut off while sending")

    def test_faulty_log_read_exactly_only_here(self, planted_log, tmp_path, monkeypatch):
        # The child's one read fails; the read that names each fault runs
        # once, in this process.
        monkeypatch.setattr(forking, "child_wanted", lambda: True)
        planted_log.log.write_text(planted_log.log.read_text() + "{}\n")
        parent, read_log = os.getpid(), ingest._read_log
        exact = []

        def logged(path, serp_line, *file):
            if os.getpid() != parent:
                (tmp_path / ("child-once" if serp_line is None else "child-exact")).touch()
            elif serp_line is not None:
                exact.append(path)
            return read_log(path, serp_line, *file)

        monkeypatch.setattr(ingest, "_read_log", logged)
        assert mine(planted_log, tmp_path / "mined") == 1
        assert exact == [planted_log.log]
        assert (tmp_path / "child-once").exists()
        assert not (tmp_path / "child-exact").exists()

    def test_interrupt_stops_the_child(self, planted_log, tmp_path, monkeypatch):
        monkeypatch.setattr(forking, "child_wanted", lambda: True)
        marker = tmp_path / "child-read"
        monkeypatch.setattr(ingest, "read_interaction_log",
                            in_child(lambda: time.sleep(60), marker))

        def interrupted(path, g_max):
            wait_for(marker)
            raise KeyboardInterrupt

        monkeypatch.setattr(ingest, "parse_qrels", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            mine(planted_log, tmp_path / "mined")
        assert time.monotonic() - started < 30
        assert marker.exists()

    def test_fork_warning_of_a_threaded_process_ignored(self, planted_log, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(forking, "child_wanted", lambda: True)
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
        assert forking.child_wanted() is (wanted and hasattr(os, "fork"))


# --- the run read in two parts -------------------------------------------------


@pytest.fixture
def split_forced(monkeypatch):
    """A run is read in two parts where a topic changes past its middle,
    whatever the platform and CPU count."""
    monkeypatch.setattr(forking, "child_wanted", lambda: True)


@pytest.mark.usefixtures("split_forced")
class TestEvalSplit(TestEval):
    """Every `eval` golden test again, with the run read in two parts."""


@pytest.mark.usefixtures("split_forced")
class TestDecoysSplit(TestDecoys):
    """Every `decoys` golden test again, with the run read in two parts."""


@pytest.mark.usefixtures("split_forced")
class TestSweepSplit(TestSweep):
    """Every `sweep` golden test again, with the run read in two parts."""


def run_reads(monkeypatch):
    """The paths `ingest.parse_run` reads whole in this process from now on."""
    reads = []
    parse = ingest.parse_run
    monkeypatch.setattr(ingest, "parse_run", lambda path: reads.append(path) or parse(path))
    return reads


def cut_world(dest: Path) -> SimpleNamespace:
    """Six topics of 30 docs, in topic blocks: the run's byte lines, and the
    index of the line the run is cut at."""
    world = write_corpus(dest, n_topics=6, n_docs=30, seed=11)
    world.lines = world.run.read_bytes().splitlines(keepends=True)
    world.cut = list(accumulate(map(len, world.lines))).index(ingest.run_cut(world.run)) + 1
    assert 60 <= world.cut <= 120
    return world


def replaced(line: bytes, field: int, value: bytes) -> bytes:
    """`line` with its field at index `field` replaced."""
    fields = line.split()
    fields[field] = value
    return b" ".join(fields) + b"\n"


def tied(lines):
    """`lines` in reverse order, each scored 1.0, with each file rank shared
    by three docs: a topic's ties, broken by file rank, then by doc id, put
    its docs back in the order of `lines`."""
    return [replaced(replaced(line, 4, b"1.0"), 3, b"%d" % ((int(line.split()[3]) + 2) // 3))
            for line in reversed(lines)]


# Each case: the run's lines, from the world's lines and the index of the cut
# line, and whether this process then reads the run whole: where the parts
# fail to make the run, or where the run is not cut.
RUN_CASES = {
    "in blocks": (lambda ls, c: ls, False),
    "interleaved": (lambda ls, c: random.Random(3).sample(ls, len(ls)), True),
    "reopened across the cut": (lambda ls, c: ls[1:] + ls[:1], True),
    "reopened past the cut": (lambda ls, c: ls[:c] + ls[c + 1:] + ls[c:c + 1], False),
    "one block from before the middle": (
        lambda ls, c: ls[:30] + [replaced(line, 0, b"t0001") for line in ls[30:]], True),
    "tied scores": (lambda ls, c: tied(ls[:c]) + tied(ls[c:]), False),
    "another tag past the cut": (lambda ls, c: ls[:c] + [replaced(line, 5, b"other")
                                                        for line in ls[c:]], False),
    "crlf": (lambda ls, c: [line.replace(b"\n", b"\r\n") for line in ls], False),
    "lone cr before the cut": (
        lambda ls, c: ls[:5] + [ls[5].replace(b"\n", b"\r \n")] + ls[6:], False),
    "lone cr past the cut": (
        lambda ls, c: ls[:-5] + [ls[-5].replace(b"\n", b"\r \n")] + ls[-4:], False),
    "leading bom": (lambda ls, c: [b"\xef\xbb\xbf" + ls[0]] + ls[1:], False),
    "bom at the cut": (lambda ls, c: ls[:c] + [b"\xef\xbb\xbf" + ls[c]] + ls[c + 1:], False),
    "blank lines at the cut": (
        lambda ls, c: ls[:c] + [b"\n", b" \t\n"] + ls[c:c + 1] + [b"\r\n"] + ls[c + 1:], False),
    "non-utf-8 before the cut": (
        lambda ls, c: ls[:3] + [replaced(ls[3], 1, b"Q\xff")] + ls[4:], True),
    "non-utf-8 past the cut": (
        lambda ls, c: ls[:-3] + [replaced(ls[-3], 1, b"Q\xff")] + ls[-2:], True),
    "duplicate doc before the cut": (lambda ls, c: ls[:4] + ls[3:], True),
    "duplicate doc past the cut": (lambda ls, c: ls[:-3] + ls[-4:], True),
    "wrong field count before the cut": (
        lambda ls, c: ls[:2] + [b"t0000 Q0 x 1\n"] + ls[2:], True),
    "wrong field count past the cut": (
        lambda ls, c: ls[:-2] + [b"t0005 Q0 x 1 2.0 a b\n"] + ls[-2:], True),
}
FAULTY_RUN_CASES = ("non-utf-8", "duplicate doc", "wrong field count")


def split_and_whole(world, capsys, monkeypatch, caplog, argv):
    """What `argv`, with the world's inputs and an --out file, returns,
    prints, logs and writes with the run read in two parts where it can be,
    then with no child; and whether the first read the run whole here."""
    seen = []
    for split in (True, False):
        with monkeypatch.context() as mp:
            mp.setattr(forking, "child_wanted", lambda: split)
            reads = run_reads(mp)
            caplog.clear()
            out = world.run.with_name(f"out-{split}")
            rc = cli.main([*argv, "--run", str(world.run), "--qrels", str(world.qrels),
                           "--pair-sims", str(world.pairs), "--out", str(out)])
        printed = capsys.readouterr()
        seen.append((rc, printed.out, printed.err, [r.getMessage() for r in caplog.records],
                     out.read_bytes() if out.exists() else None))
        if split:
            assert reads in ([], [world.run])
            read_whole = reads == [world.run]
    return *seen, read_whole


class TestRunSplitParity:
    """A run read in two parts, a forked child reading the part past the
    cut, gives the exit code, stdout, stderr, warnings and output bytes of
    the run read whole in this process; where a part is faulty or empty, or
    a topic is in both parts, this process reads the run whole."""

    @pytest.mark.parametrize("case", RUN_CASES)
    def test_run_case(self, tmp_path, capsys, monkeypatch, caplog, case):
        world = cut_world(tmp_path)
        lines, read_whole = RUN_CASES[case]
        world.run.write_bytes(b"".join(lines(world.lines, world.cut)))
        split, whole, was_read_whole = split_and_whole(
            world, capsys, monkeypatch, caplog,
            ["eval", "--metrics", ALL_METRICS, "--cutoffs", "5,10,30"])
        assert split == whole
        assert was_read_whole is read_whole
        assert whole[0] == (1 if case.startswith(FAULTY_RUN_CASES) else 0)

    @pytest.mark.parametrize("run_case", ["in blocks", "wrong field count before the cut",
                                          "wrong field count past the cut"])
    @pytest.mark.parametrize("fault", ["qrels faulty", "qrels warns", "pairs faulty"])
    def test_fault_order(self, tmp_path, capsys, monkeypatch, caplog, run_case, fault):
        world = cut_world(tmp_path)
        world.run.write_bytes(b"".join(RUN_CASES[run_case][0](world.lines, world.cut)))
        judged = world.qrels.read_text()
        if fault == "qrels faulty":
            world.qrels.write_text(judged + "t0000 0 x four\n")
        elif fault == "qrels warns":  # each judgment twice, with its grade
            world.qrels.write_text(judged * 2)
        else:
            world.pairs.write_text(world.pairs.read_text() + "t0000\ta\tb\tnear\n")
        split, whole, _ = split_and_whole(world, capsys, monkeypatch, caplog, ["decoys"])
        assert split == whole
        rc, _, err, warned, _ = whole
        first_fault = (world.run if run_case != "in blocks"
                       else None if fault == "qrels warns"
                       else world.qrels if fault == "qrels faulty" else world.pairs)
        if first_fault is None:
            assert rc == 0 and len(warned) == judged.count("\n")
        else:
            assert rc == 1 and err.startswith(f"1 parse error(s) in {first_fault}:")
            # A faulty run is named alone: the qrels are not read before it.
            assert warned == []


def eval_world(world, out: Path) -> int:
    return cli.main(["eval", "--run", str(world.run), "--qrels", str(world.qrels),
                     "--pair-sims", str(world.pairs), "--out", str(out)])


class TestRunChild:
    """Where the child reading the part past the cut sends nothing, this
    process reads the run whole, with the same outputs; where the part
    before the cut fails, or an interrupt comes, the child is stopped with
    no wait; and no child is made where the run is read whole anyway."""

    @pytest.mark.parametrize("fault", ["exits", "killed", "cut off while sending"])
    def test_child_without_a_part(self, tmp_path, monkeypatch, fault):
        world = cut_world(tmp_path)
        monkeypatch.setattr(forking, "child_wanted", lambda: False)
        assert eval_world(world, tmp_path / "in-process.tsv") == 0
        monkeypatch.setattr(forking, "child_wanted", lambda: True)
        marker = tmp_path / "child-read"
        if fault == "cut off while sending":
            monkeypatch.setattr(pickle, "dump", half_dump)
        else:
            monkeypatch.setattr(ingest, "read_run_part",
                                in_child(CHILD_FAULTS[fault], marker, "read_run_part"))
        reads = run_reads(monkeypatch)
        assert eval_world(world, tmp_path / "child.tsv") == 0
        assert reads == [world.run]
        assert (tmp_path / "child.tsv").read_bytes() == (tmp_path / "in-process.tsv").read_bytes()
        assert marker.exists() is (fault != "cut off while sending")

    def test_faulty_run_read_before_the_qrels_without_a_child(self, tmp_path, monkeypatch):
        monkeypatch.setattr(forking, "child_wanted", lambda: False)
        world = cut_world(tmp_path)
        world.run.write_bytes(world.run.read_bytes() + b"t0005 Q0 x 1\n")
        reads = qrels_reads(monkeypatch)
        assert eval_world(world, tmp_path / "scores.tsv") == 1
        assert reads == []

    @pytest.mark.usefixtures("split_forced")
    def test_interrupt_stops_the_child(self, tmp_path, monkeypatch):
        world = cut_world(tmp_path)
        marker = tmp_path / "child-read"
        monkeypatch.setattr(ingest, "read_run_part",
                            in_child(lambda: time.sleep(60), marker, "read_run_part"))

        def interrupted(path, g_max):
            raise KeyboardInterrupt

        monkeypatch.setattr(ingest, "parse_qrels", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            eval_world(world, tmp_path / "scores.tsv")
        assert time.monotonic() - started < 30
        assert marker.exists()

    @pytest.mark.usefixtures("split_forced")
    @pytest.mark.parametrize("case", ["wrong field count before the cut", "interleaved"])
    def test_part_before_the_cut_failing_stops_the_child(self, tmp_path, monkeypatch, case):
        world = cut_world(tmp_path)
        lines, _ = RUN_CASES[case]
        world.run.write_bytes(b"".join(lines(world.lines, world.cut)))
        marker = tmp_path / "child-read"
        monkeypatch.setattr(ingest, "read_run_part",
                            in_child(lambda: time.sleep(60), marker, "read_run_part"))
        reads = run_reads(monkeypatch)
        started = time.monotonic()
        assert eval_world(world, tmp_path / "scores.tsv") == (1 if case.startswith("wrong") else 0)
        assert time.monotonic() - started < 30
        assert reads == [world.run]
        assert marker.exists()

    @pytest.mark.usefixtures("split_forced")
    def test_fork_warning_of_a_threaded_process_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", warning_fork)
        world = cut_world(tmp_path)
        reads = run_reads(monkeypatch)
        assert eval_world(world, tmp_path / "scores.tsv") == 0
        assert reads == []

    @pytest.mark.parametrize("case", ["one CPU", "off Linux", "a pipe",
                                      "no topic change past the middle"])
    def test_no_fork(self, tmp_path, monkeypatch, case):
        world = cut_world(tmp_path)
        if case == "a pipe":
            if not Path("/dev/fd").is_dir():
                pytest.skip("no /dev/fd to name a pipe by")
            want = tmp_path / "from-the-file.tsv"
            assert eval_world(world, want) == 0
            read_fd, write_fd = os.pipe()
            os.write(write_fd, world.run.read_bytes())  # within the pipe's buffer
            os.close(write_fd)
            world.run = Path(f"/dev/fd/{read_fd}")
        monkeypatch.setattr(sys, "platform", "darwin" if case == "off Linux" else "linux")
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0} if case == "one CPU" else {0, 1}, raising=False)
        if case == "no topic change past the middle":
            world.run.write_bytes(b"".join(RUN_CASES["one block from before the middle"][0](
                world.lines, world.cut)))
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(None))
        reads = run_reads(monkeypatch)
        try:
            assert eval_world(world, tmp_path / "scores.tsv") == 0
        finally:
            if case == "a pipe":
                os.close(read_fd)
        assert forks == [] and reads == [world.run]
        if case == "a pipe":
            assert (tmp_path / "scores.tsv").read_bytes() == want.read_bytes()


# --- inputs read from a pipe ---------------------------------------------------


@pytest.fixture
def piped():
    """Makes a pipe that holds the bytes given (within the pipe's buffer),
    named as a shell's <(...) names one; each is closed after the test."""
    if not Path("/dev/fd").is_dir():
        pytest.skip("no /dev/fd to name a pipe by")
    fds = []

    def make(data: bytes) -> Path:
        read_fd, write_fd = os.pipe()
        os.write(write_fd, data)
        os.close(write_fd)
        fds.append(read_fd)
        return Path(f"/dev/fd/{read_fd}")

    yield make
    for fd in fds:
        os.close(fd)


class TestPipedInputs:
    """A faulty input read from a pipe, which can be read only once, is
    named as the same bytes in a regular file are: exit 1, the same lines
    and messages, and no --out. Each input is copied once to a temporary file."""

    @pytest.mark.parametrize("faulty", ["run", "pair sims"])
    @pytest.mark.parametrize("child", [True, False], ids=["child wanted", "no child"])
    def test_eval(self, tmp_path, capsys, monkeypatch, piped, faulty, child):
        monkeypatch.setattr(forking, "child_wanted", lambda: child)
        inputs = dict(zip(("run", "qrels", "pair sims"), write_demo(tmp_path)))
        bad = inputs[faulty]
        line, fault = {"run": (4, "t1 Q0 d4 4 zz demo\n"), "pair sims": (3, "t1\td1\td3\tzz\n")}[faulty]
        bad.write_text(bad.read_text() + fault)

        def run_eval(out: Path) -> int:
            return cli.main(["eval", "--run", str(inputs["run"]), "--qrels", str(inputs["qrels"]),
                             "--pair-sims", str(inputs["pair sims"]), "--out", str(out)])

        assert run_eval(tmp_path / "from-the-file.tsv") == 1
        want = capsys.readouterr().err
        assert f"{bad}:{line}: non-numeric " in want
        inputs[faulty] = piped(bad.read_bytes())
        assert run_eval(tmp_path / "from-the-pipe.tsv") == 1
        assert capsys.readouterr().err == want.replace(str(bad), str(inputs[faulty]))
        assert not (tmp_path / "from-the-pipe.tsv").exists()

    def test_valid_run(self, tmp_path, piped):
        run, qrels, pairs = write_demo(tmp_path)
        for path, out in ((run, "from-the-file.tsv"),
                          (piped(run.read_bytes()), "from-the-pipe.tsv")):
            assert cli.main(["eval", "--run", str(path), "--qrels", str(qrels),
                             "--pair-sims", str(pairs), "--out", str(tmp_path / out)]) == 0
        assert ((tmp_path / "from-the-pipe.tsv").read_bytes()
                == (tmp_path / "from-the-file.tsv").read_bytes())

    @pytest.mark.parametrize("fault", [b"{}\n", b'{"serp_id": "\xff"}\n'],
                             ids=["malformed", "non-utf-8"])
    def test_mine(self, planted_log, tmp_path, capsys, monkeypatch, piped, log_read, fault):
        log = planted_log.log
        log.write_bytes(log.read_bytes() + fault)
        assert mine(planted_log, tmp_path / "from-the-file") == 1
        want = capsys.readouterr().err
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        pipe = piped(log.read_bytes())
        assert mine(planted_log, tmp_path / "from-the-pipe", log=pipe) == 1
        assert capsys.readouterr().err == want.replace(str(log), str(pipe))
        assert f"{pipe}:{len(LOG_SERPS) + 1}: " in want.replace(str(log), str(pipe))
        assert not (tmp_path / "from-the-pipe").exists()
        assert forks == []  # no child for a log that only one process can read
