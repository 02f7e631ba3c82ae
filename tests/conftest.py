"""Shared fixture builders for the test suite.

Two synthetic worlds are built here: a parameterised run/qrels/pair-sims
corpus for scale and determinism tests, and a small hand-planted
interaction log whose decoy/control structure is known exactly. The
helpers at the end serve the tests of work done in a forked child.
"""

import json
import os
import pickle
import random
import signal
import sys
import time
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from decoyeval.model import InteractionLog, RecordColumns, int_column


def write_corpus(
    dest: Path,
    n_topics: int,
    n_docs: int,
    seed: int = 7,
    judged: int = 12,
) -> SimpleNamespace:
    """Write a run, qrels, and pair-similarity file for a synthetic corpus.

    Each topic gets `judged` judged docs placed in the top 120 positions with
    grades 0..3. Every within-window doc pair that the grade-band quality
    rule could admit (one side >= 2, other <= 1 or unjudged) gets a
    similarity, roughly half of them inside the [0.6, 0.95) band, so decoy
    pairs exist but coverage is complete by construction.
    """
    rng = random.Random(seed)
    dest.mkdir(parents=True, exist_ok=True)
    run_path = dest / "run.txt"
    qrels_path = dest / "qrels.txt"
    pairs_path = dest / "pairs.tsv"
    window = 5

    with open(run_path, "w") as run_fh, open(qrels_path, "w") as q_fh, \
         open(pairs_path, "w") as p_fh:
        for ti in range(n_topics):
            topic = f"t{ti:04d}"
            docs = [f"{topic}_d{j:04d}" for j in range(n_docs)]
            for j, doc in enumerate(docs):
                run_fh.write(f"{topic} Q0 {doc} {j + 1} {float(n_docs - j)!r} synth\n")
            positions = rng.sample(range(min(n_docs, 120)), min(judged, n_docs))
            grade_at = {}
            for pos in positions:
                grade_at[pos] = rng.choice((0, 1, 1, 2, 2, 3))
                q_fh.write(f"{topic} 0 {docs[pos]} {grade_at[pos]}\n")
            # Similarities for every pair detection might ask about.
            for pos, g in grade_at.items():
                if g < 2:
                    continue
                lo = max(0, pos - window)
                hi = min(n_docs - 1, pos + window)
                for other in range(lo, hi + 1):
                    if other == pos or grade_at.get(other, 0) >= 2:
                        continue
                    a, b = docs[pos], docs[other]
                    if a > b:
                        a, b = b, a
                    sim = rng.uniform(0.6, 0.949) if rng.random() < 0.5 else rng.uniform(0.0, 0.59)
                    p_fh.write(f"{topic}\t{a}\t{b}\t{sim:.6f}\n")
    return SimpleNamespace(run=run_path, qrels=qrels_path, pairs=pairs_path)


def log_of(records) -> InteractionLog:
    """The InteractionLog of records shaped as the JSON lines of a log file
    (serp_id, session_id, user_id, task_id, topic_id, serp, clicks), built
    through its constructor: no file and no parser."""
    table = {}
    serp_doc = [table.setdefault(e["doc_id"], len(table)) for r in records for e in r["serp"]]
    click_doc = [table.setdefault(c["doc_id"], len(table)) for r in records for c in r["clicks"]]
    return InteractionLog(
        *([r[name] for r in records]
          for name in ("serp_id", "session_id", "user_id", "task_id", "topic_id")),
        tuple(table), [len(r["serp"]) for r in records], serp_doc,
        [len(r["clicks"]) for r in records], click_doc,
        [c["dwell_seconds"] for r in records for c in r["clicks"]],
        [c["usefulness"] for r in records for c in r["clicks"]])


# One interaction record, its fields in the order of the record file.
Record = namedtuple("Record", "serp_id doc_id group is_clicked dwell_seconds usefulness "
                              "rank task_id user_id")


def record_rows(columns: RecordColumns) -> list[Record]:
    """The records of `columns`, one Record each, in order."""
    return list(map(Record, columns.serp_id, columns.doc_id, columns.groups(),
                    columns.is_clicked.tolist(), columns.dwell_seconds.tolist(),
                    columns.usefulness.tolist(), columns.rank.tolist(), columns.task_id,
                    columns.user_id))


def record_columns(rows) -> RecordColumns:
    """RecordColumns holding `rows` (Records, or tuples of the same fields)
    in order, typed as `extract_records` types them."""
    serp_id, doc_id, group, clicked, dwell, usefulness, rank, task_id, user_id = (
        map(list, zip(*rows, strict=True)) if rows else ([] for _ in Record._fields))
    return RecordColumns(serp_id, doc_id, np.array([g == "target" for g in group], dtype=bool),
                         np.array(clicked, dtype=bool), np.array(dwell, dtype=np.float64),
                         int_column(usefulness), int_column(rank), task_id, user_id)


# --- planted interaction-log world -----------------------------------------
#
# One topic, eight docs. Grades: A=4 D=3 C=3 F=2 G=2 E=1 B=0 H=0.
# Exactly four pairs sit at similarity 0.945 (the shared P99/P99.5 of the 28
# pooled pair sims): (A,B) and (D,E) are decoy pairs (grade gap >= 2), while
# (A,C) and (D,F) only anchor controls (gap 1). All other sims are <= 0.33.
#
# SERPs: s1 [A B C G H], s2 [D E F A B], s3 [C A B H G].
# Hence targets {A, D}; controls {C, E, F} (E sits exactly on the grade
# window edge |1-3| = 2); matched targets {A, D}.

LOG_GRADES = {"A": 4, "D": 3, "C": 3, "F": 2, "G": 2, "E": 1, "B": 0, "H": 0}
LOG_TOP_SIM = 0.945
LOG_SERPS = {
    "s1": ["A", "B", "C", "G", "H"],
    "s2": ["D", "E", "F", "A", "B"],
    "s3": ["C", "A", "B", "H", "G"],
}
LOG_CLICKS = {
    "s1": {"A": (30.5, 3), "G": (8.0, 1)},
    "s2": {"D": (12.0, 2), "E": (5.0, 1)},
    "s3": {},
}
LOG_EXPECTED = SimpleNamespace(
    s_min=LOG_TOP_SIM,
    s_control=LOG_TOP_SIM,
    pair_count=28,
    targets={"A", "D"},
    controls={"C", "E", "F"},
    matched={"A", "D"},
    pair_records=[("s1", "A", "B"), ("s2", "D", "E"), ("s2", "A", "B"), ("s3", "A", "B")],
    target_records=[("s1", "A", 1), ("s2", "D", 1), ("s2", "A", 4), ("s3", "A", 2)],
    control_records=[("s1", "C", 3), ("s2", "E", 2), ("s2", "F", 3), ("s3", "C", 1)],
    target_samples=SimpleNamespace(
        clicked=[1.0, 1.0, 0.0, 0.0],
        dwell=[30.5, 12.0, 0.0, 0.0],
        usefulness=[3.0, 2.0, 0.0, 0.0],
    ),
    control_samples=SimpleNamespace(
        clicked=[0.0, 1.0, 0.0, 0.0],
        dwell=[0.0, 5.0, 0.0, 0.0],
        usefulness=[0.0, 1.0, 0.0, 0.0],
    ),
)


def planted_pair_sims() -> dict[tuple[str, str], float]:
    docs = sorted(LOG_GRADES)
    top = {("A", "B"), ("A", "C"), ("D", "E"), ("D", "F")}
    sims = {}
    low = 0.10
    for i, a in enumerate(docs):
        for b in docs[i + 1:]:
            key = (a, b) if a < b else (b, a)
            if key in top:
                sims[key] = LOG_TOP_SIM
            else:
                sims[key] = round(low, 2)
                low += 0.01
    return sims


def write_planted_log(dest: Path) -> SimpleNamespace:
    """Write the planted log world to disk: log, qrels, pair sims."""
    dest.mkdir(parents=True, exist_ok=True)
    log_path = dest / "log.jsonl"
    qrels_path = dest / "qrels.txt"
    pairs_path = dest / "pairs.tsv"

    with open(log_path, "w") as fh:
        for serp_id, docs in LOG_SERPS.items():
            entry = {
                "serp_id": serp_id,
                "session_id": f"sess_{serp_id}",
                "user_id": f"user_{serp_id}",
                "task_id": "task1",
                "topic_id": "t1",
                "serp": [{"doc_id": d, "rank": i + 1} for i, d in enumerate(docs)],
                "clicks": [
                    {"doc_id": d, "dwell_seconds": dwell, "usefulness": use}
                    for d, (dwell, use) in LOG_CLICKS[serp_id].items()
                ],
            }
            fh.write(json.dumps(entry) + "\n")
    with open(qrels_path, "w") as fh:
        for doc, grade in sorted(LOG_GRADES.items()):
            fh.write(f"t1 0 {doc} {grade}\n")
    with open(pairs_path, "w") as fh:
        for (a, b), sim in sorted(planted_pair_sims().items()):
            fh.write(f"t1\t{a}\t{b}\t{sim!r}\n")
    return SimpleNamespace(log=log_path, qrels=qrels_path, pairs=pairs_path)


@pytest.fixture
def planted_log(tmp_path):
    return write_planted_log(tmp_path / "planted")


def _adopt_orphans() -> None:
    """On Linux, make this process the child subreaper of its descendants
    (prctl PR_SET_CHILD_SUBREAPER), so that a child of a forked child that
    outlives its parent becomes this process's child, where `no_child_left`
    sees it. It acts on this process alone."""
    if sys.platform == "linux":
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = (ctypes.c_int, *[ctypes.c_ulong] * 4)
        prctl.restype = ctypes.c_int
        if prctl(36, 1, 0, 0, 0) != 0:  # 36: PR_SET_CHILD_SUBREAPER
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


@pytest.fixture
def no_child_left():
    """The test leaves no process behind, running or unreaped: no child, and
    on Linux no child of a child either."""
    _adopt_orphans()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_for(marker: Path, seconds: float = 10.0) -> None:
    """Return once `marker` exists, or after `seconds`."""
    deadline = time.monotonic() + seconds
    while not marker.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


# How a child fails to send its value, other than cut off while sending.
CHILD_FAULTS = {"exits": lambda: os._exit(1),
                "killed": lambda: os.kill(os.getpid(), signal.SIGKILL)}


def half_dump(obj, file, protocol):
    """A `pickle.dump` that writes half the pickle, then meets a broken
    pipe; only a child pickles."""
    data = pickle.dumps(obj, protocol)
    file.write(data[:len(data) // 2])
    file.flush()
    raise BrokenPipeError
