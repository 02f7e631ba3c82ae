"""The columnar mining path against an object path built here.

`InteractionLog` holds a log as columns, and `identify_targets`,
`log_doc_universe`, `extract_records`, `group_stats` and `emit_records` work
on them. The oracle shares no code with the log reader: each generated
record becomes one SERP object, detection runs once per SERP (test_decoy's
oracle), records are built per SERP, the groups are compared over lists,
and each records.jsonl row is written by json.dumps.
"""

import io
import json
import math
import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from decoyeval import ingest
from decoyeval.decoy import identify_controls, identify_targets
from decoyeval.logmine import (
    MEASURES,
    GroupComparison,
    GroupStats,
    extract_records,
    group_stats,
    log_doc_universe,
    welch_t_test,
)
from decoyeval.model import DecoyConfig, InteractionRecord, MinGradeGap, PairStore, Qrels
from decoyeval.report import _RECORD_COLUMNS, _json_value, emit_records

from conftest import log_of
from test_decoy import SIM_LEVELS, per_serp_identify_targets


def object_log(lines):
    """The SERPs of the generated log records, one object each, with a
    {doc_id: (dwell, usefulness)} click map."""
    return [SimpleNamespace(
        serp_id=rec["serp_id"], task_id=rec["task_id"], user_id=rec["user_id"],
        topic_id=rec["topic_id"], doc_ids=[entry["doc_id"] for entry in rec["serp"]],
        clicks={c["doc_id"]: (float(c["dwell_seconds"]), c["usefulness"])
                for c in rec["clicks"]})
        for rec in lines]


def object_universe(sessions):
    universe = {}
    for session in sessions:
        universe.setdefault(session.topic_id, set()).update(session.doc_ids)
    return {topic: sorted(docs) for topic, docs in sorted(universe.items())}


def object_records(sessions, pair_records, matched_targets, controls, top_n):
    """Target records, then control records, each in log and rank order."""
    wanted = {(r.serp_id, r.pair.target_doc) for r in pair_records
              if r.pair.target_doc in matched_targets}

    def build(session, rank, doc_id, group):
        dwell, usefulness = session.clicks.get(doc_id, (0.0, 0))
        return InteractionRecord(
            session.serp_id, doc_id, group, doc_id in session.clicks, dwell, usefulness,
            rank, session.task_id, session.user_id)

    targets, control_records = [], []
    for session in sessions:
        for rank, doc_id in enumerate(session.doc_ids[:top_n], 1):
            if (session.serp_id, doc_id) in wanted:
                targets.append(build(session, rank, doc_id, "target"))
            if doc_id in controls:
                control_records.append(build(session, rank, doc_id, "control"))
    return targets + control_records


def object_group_stats(records):
    samples = {g: {m: [] for m in MEASURES} for g in ("target", "control")}
    for rec in records:
        bucket = samples[rec.group]
        bucket["clickthrough"].append(1.0 if rec.is_clicked else 0.0)
        bucket["dwell_seconds"].append(float(rec.dwell_seconds))
        bucket["usefulness"].append(float(rec.usefulness))

    def stats(group):
        values = samples[group]
        n = len(values["clickthrough"])
        if not n:
            return GroupStats(group, 0, 0.0, 0.0, 0.0)
        return GroupStats(group, n, *(math.fsum(values[m]) / n for m in MEASURES))

    target, control = stats("target"), stats("control")
    if target.n < 2 or control.n < 2:
        return GroupComparison(target, control, ())
    return GroupComparison(target, control, tuple(
        welch_t_test(samples["target"][m], samples["control"][m], measure=m)
        for m in MEASURES))


def object_jsonl(records):
    return "".join(
        json.dumps({c: _json_value(getattr(r, c)) for c in _RECORD_COLUMNS},
                   ensure_ascii=False) + "\n"
        for r in records)


# Dwell values include -0.0, which must not be written as 0.0, and ints;
# ranks and usefulness include ints beyond int64.
DWELLS = (0.0, -0.0, 0.5, 3, 30.25, 1e-07, 10**30)
USEFULNESS = (0, 0, 1, 2, 3, 10**30)
RANKS = (1, 2, 7, -3, 10**30)


@st.composite
def mined_logs(draw):
    """A log over interleaved topics whose docs come from one pool, so one
    doc shows under several topics; SERPs empty, shorter and longer than
    top_n, clicked inside and outside the head; full pair coverage."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    topics = [f"t{i}" for i in range(draw(st.integers(1, 3)))]
    pool = [f"d{i}" for i in range(draw(st.integers(1, 9)))]
    lines = []
    for i in range(draw(st.integers(0, 24))):
        docs = rng.sample(pool, rng.randint(0, len(pool)))
        clicked = [d for d in docs if rng.random() < 0.4]
        rng.shuffle(clicked)
        lines.append({
            "serp_id": f"s{i}", "session_id": f"x{i % 3}", "user_id": f"u{i % 2}",
            "task_id": rng.choice(("k1", "k2")), "topic_id": rng.choice(topics),
            "serp": [{"doc_id": d, "rank": rng.choice(RANKS)} for d in docs],
            "clicks": [{"doc_id": d, "dwell_seconds": rng.choice(DWELLS),
                        "usefulness": rng.choice(USEFULNESS)} for d in clicked],
        })
    qrels = Qrels(4, {t: {d: rng.choice((0, 1, 2, 3, 4)) for d in pool if rng.random() < 0.8}
                      for t in topics})
    store = PairStore({(t, a, b): rng.choice(SIM_LEVELS)
                       for t in topics for i, a in enumerate(pool) for b in pool[i + 1:]})
    cfg = DecoyConfig(s_min=draw(st.sampled_from((0.0, 0.3, 0.6))),
                      s_max=draw(st.sampled_from((0.95, 1.0))),
                      quality=MinGradeGap(draw(st.integers(1, 2))),
                      delta_rank=draw(st.integers(1, 4)), s_max_inclusive=True)
    return SimpleNamespace(
        lines=lines, qrels=qrels, store=store, cfg=cfg, top_n=draw(st.integers(1, 7)),
        s_control=draw(st.sampled_from((0.0, 0.6, 0.9))), rel_window=draw(st.integers(0, 3)))


class TestColumnsAgainstObjects:
    @given(mined_logs())
    @settings(max_examples=150, deadline=None)
    def test_same_results_and_bytes(self, tmp_path_factory, world):
        path = tmp_path_factory.mktemp("log") / "log.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in world.lines))
        log = ingest.parse_interaction_log(path)
        assert log == log_of(world.lines)
        sessions = object_log(world.lines)

        qrels, store, cfg, top_n = world.qrels, world.store, world.cfg, world.top_n
        pair_records, targets = identify_targets(log, qrels, store, cfg, top_n=top_n)
        assert (pair_records, targets) == per_serp_identify_targets(
            world.lines, qrels, store, cfg, top_n)
        universe = log_doc_universe(log)
        assert list(universe.items()) == list(object_universe(sessions).items())
        controls, matched = identify_controls(universe, qrels, targets, store,
                                              world.s_control, world.rel_window)

        records = extract_records(log, pair_records, matched, controls, top_n=top_n)
        expected = object_records(sessions, pair_records, matched, controls, top_n)
        assert len(records) == len(expected)
        assert list(records) == expected
        assert group_stats(records) == object_group_stats(expected)
        buf = io.StringIO()
        emit_records(records, "jsonl", buf)
        assert buf.getvalue() == object_jsonl(expected)
