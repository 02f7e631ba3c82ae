"""Seeded input generators, CLI commands and output checks for the workloads.

Each workload's inputs are a function of the seed: the same seed always
writes the same files. The program only ever sees the generated files; the checks here
read its outputs back and return a list of problems (empty when correct).
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1

# sha256 of the outputs at DEFAULT_SEED, from the seed code.
# Outputs must stay byte-identical, so any change here is a behaviour change.
PINNED_DIGESTS = {
    "deep-eval": "7b357c44a0a398034757fdfe6afc2ede11bf915f9253da7636442779a5ef9a33",
    "mine-log": "92f3a158a4445108e50ab650641c24c60ebcaa2fe1e22027892b48cee0b38770",
}

EVAL_CUTOFFS = (10, 20, 100, 1000)
EVAL_METRICS = ("dejavu", "ndcg", "recall", "rbp", "err",
                "lc_ndcg", "lc_recall", "lc_rbp", "lc_err")
GRADE_DRAW = (0, 1, 1, 2, 2, 3)
WINDOW = 5  # the CLI's default --delta-rank


@dataclass(frozen=True)
class Workload:
    generate: Callable[[Path, int], dict]         # (dest, seed) -> meta
    argv: Callable[[Path, Path], list[str]]       # (inputs, out) -> CLI args
    outputs: Callable[[Path], list[Path]]         # out -> files to digest
    reports: Callable[[Path], list[Path]]         # out -> files the report module writes
    check: Callable[[Path, dict], list[str]]      # (out, meta) -> problems


def digest(files: list[Path]) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _read_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return [], []
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


# --- deep-eval --------------------------------------------------------------
#
# The write_corpus shape of the test suite: long rankings, 12 judged docs per
# topic, all in the top 120, and a similarity for every pair detection can
# ask about, about half of them inside the default [0.6, 0.95) band.

def _gen_deep_eval(dest: Path, seed: int) -> dict:
    rng = random.Random(seed)
    n_topics, n_docs, judged = 1000, 1000, 12
    with open(dest / "run.txt", "w") as run_fh, \
         open(dest / "qrels.txt", "w") as q_fh, \
         open(dest / "pairs.tsv", "w") as p_fh:
        for ti in range(n_topics):
            topic = f"t{ti:04d}"
            docs = [f"{topic}_d{j:04d}" for j in range(n_docs)]
            run_fh.write("".join(
                f"{topic} Q0 {doc} {j + 1} {float(n_docs - j)!r} synth\n"
                for j, doc in enumerate(docs)
            ))
            grade_at = {}
            for pos in rng.sample(range(120), judged):
                grade_at[pos] = rng.choice(GRADE_DRAW)
                q_fh.write(f"{topic} 0 {docs[pos]} {grade_at[pos]}\n")
            for pos, g in grade_at.items():
                if g < 2:
                    continue
                for other in range(max(0, pos - WINDOW), min(n_docs, pos + WINDOW + 1)):
                    if other == pos or grade_at.get(other, 0) >= 2:
                        continue
                    a, b = sorted((docs[pos], docs[other]))
                    in_band = rng.random() < 0.5
                    sim = rng.uniform(0.6, 0.949) if in_band else rng.uniform(0.0, 0.59)
                    p_fh.write(f"{topic}\t{a}\t{b}\t{sim:.6f}\n")
    return {"topics": n_topics, "inputs": ["run.txt", "qrels.txt", "pairs.tsv"]}


def _argv_deep_eval(inputs: Path, out: Path) -> list[str]:
    return ["eval", "--run", str(inputs / "run.txt"), "--qrels", str(inputs / "qrels.txt"),
            "--pair-sims", str(inputs / "pairs.tsv"),
            "--cutoffs", ",".join(map(str, EVAL_CUTOFFS)),
            "--metrics", ",".join(m.replace("lc_", "lc/") for m in EVAL_METRICS)]


def _check_deep_eval(out: Path, meta: dict) -> list[str]:
    header, rows = _read_tsv(out / "stdout.txt")
    want = ["run", "k", "topic", *EVAL_METRICS, "decoy_pairs", "highly_relevant"]
    if header != want:
        return [f"eval header {header} != {want}"]
    problems = []
    n_rows = len(EVAL_CUTOFFS) * (meta["topics"] + 1)
    if len(rows) != n_rows:
        problems.append(f"eval has {len(rows)} rows, expected {n_rows}")
    for row in rows:
        values = [float(v) for v in row[3:]]
        if not all(0.0 <= v <= 1.0 for v in values[:len(EVAL_METRICS)]):
            problems.append(f"eval metric outside [0, 1]: {row}")
        if values[-2] > values[-1]:
            problems.append(f"eval decoy_pairs > highly_relevant: {row}")
        if len(problems) > 5:
            break
    if [row[2] for row in rows].count("all") != len(EVAL_CUTOFFS):
        problems.append("eval lacks one `all` row per cutoff")
    return problems


# --- mine-log ---------------------------------------------------------------
#
# Every topic replicates the planted world of the test suite: eight docs
# A..H with grades A=4 D=3 C=3 F=2 G=2 E=1 B=0 H=0, where (A,B), (A,C),
# (D,E) and (D,F) sit at TOP_SIM. (A,B) and (D,E) are decoy pairs (grade gap
# >= 2); C, E and F shadow a target within two grades, so they are the
# controls. 32 unjudged filler docs pad each topic to 40; eight filler pairs
# also sit at TOP_SIM, which holds the pooled P99 and P99.5 at TOP_SIM
# without adding a target (equal grades) or a control (no target involved).
# All other similarities are below 0.5.

PLANTED_GRADES = {"A": 4, "D": 3, "C": 3, "F": 2, "G": 2, "E": 1, "B": 0, "H": 0}
PLANTED_TOP = (("A", "B"), ("A", "C"), ("D", "E"), ("D", "F"))
TOP_SIM = 0.945
N_FILLER = 32
FILLER_TOP = 16  # filler docs 0..15 form eight TOP_SIM pairs (0,1), (2,3), ...


def _mine_docs(topic: str) -> tuple[list[str], list[str]]:
    planted = [f"{topic}_{name}" for name in PLANTED_GRADES]
    filler = [f"{topic}_f{j:02d}" for j in range(N_FILLER)]
    return planted, filler


def _gen_mine_log(dest: Path, seed: int) -> dict:
    rng = random.Random(seed)
    n_topics, n_serps, serp_len = 300, 50000, 10
    topics = [f"m{ti:03d}" for ti in range(n_topics)]
    with open(dest / "qrels.txt", "w") as q_fh, open(dest / "pairs.tsv", "w") as p_fh:
        for topic in topics:
            planted, filler = _mine_docs(topic)
            for doc, grade in zip(planted, PLANTED_GRADES.values()):
                q_fh.write(f"{topic} 0 {doc} {grade}\n")
            top = {tuple(sorted((f"{topic}_{a}", f"{topic}_{b}"))) for a, b in PLANTED_TOP}
            top |= {(filler[j], filler[j + 1]) for j in range(0, FILLER_TOP, 2)}
            docs = sorted(planted + filler)
            for i, a in enumerate(docs):
                for b in docs[i + 1:]:
                    sim = TOP_SIM if (a, b) in top else rng.uniform(0.0, 0.5)
                    p_fh.write(f"{topic}\t{a}\t{b}\t{sim:.6f}\n")

    def serp_orders(topic: str, count: int):
        planted, filler = _mine_docs(topic)
        doc = dict(zip(PLANTED_GRADES, planted))
        # The first four SERPs show all 40 docs, with (D,E) and (A,B) adjacent,
        # so every planted target is detected whatever the random SERPs show.
        rest = [doc[name] for name in "CFGH"] + filler
        rng.shuffle(rest)
        yield [doc["D"], doc["E"]] + rest[:6] + [doc["A"], doc["B"]]
        for k in range(6, len(rest), 10):
            yield rest[k:k + 10]
        pool = planted + filler
        for _ in range(count - 4):
            yield rng.sample(pool, serp_len)

    per_topic = [n_serps // n_topics + (ti < n_serps % n_topics) for ti in range(n_topics)]
    streams = [serp_orders(t, count) for t, count in zip(topics, per_topic)]
    with open(dest / "log.jsonl", "w") as fh:
        serp_no = 0
        # Interleave topics the way a log interleaves users.
        for round_no in range(max(per_topic)):
            for ti, topic in enumerate(topics):
                if round_no >= per_topic[ti]:
                    continue
                docs = next(streams[ti])
                clicks = []
                for rank, doc in enumerate(docs, start=1):
                    if rng.random() < 0.6 / rank + 0.05:
                        clicks.append({"doc_id": doc,
                                       "dwell_seconds": round(rng.uniform(1.0, 90.0), 1),
                                       "usefulness": rng.randint(0, 3)})
                user = rng.randrange(2000)
                fh.write(json.dumps({
                    "serp_id": f"s{serp_no:06d}",
                    "session_id": f"sess{serp_no // 3:06d}",
                    "user_id": f"u{user:04d}",
                    "task_id": f"task_{topic}",
                    "topic_id": topic,
                    "serp": [{"doc_id": doc, "rank": r} for r, doc in enumerate(docs, start=1)],
                    "clicks": clicks,
                }) + "\n")
                serp_no += 1
    return {"topics": n_topics, "inputs": ["log.jsonl", "qrels.txt", "pairs.tsv"]}


MINE_FILES = ("controls.txt", "decoy_pairs.tsv", "group_stats.json", "records.jsonl",
              "targets.txt", "targets_matched.txt", "thresholds.json")
# The files the report module writes; the CLI writes the doc lists itself.
MINE_REPORT_FILES = ("decoy_pairs.tsv", "group_stats.json", "records.jsonl", "thresholds.json")


def _argv_mine_log(inputs: Path, out: Path) -> list[str]:
    return ["mine", "--logs", str(inputs / "log.jsonl"), "--qrels", str(inputs / "qrels.txt"),
            "--pair-sims", str(inputs / "pairs.tsv"), "--out", str(out / "mined")]


def planted_sets(n_topics: int) -> dict[str, set[str]]:
    topics = [f"m{ti:03d}" for ti in range(n_topics)]
    return {
        "targets.txt": {f"{t}_{x}" for t in topics for x in "AD"},
        "controls.txt": {f"{t}_{x}" for t in topics for x in "CEF"},
        "targets_matched.txt": {f"{t}_{x}" for t in topics for x in "AD"},
    }


def _check_mine_log(out: Path, meta: dict) -> list[str]:
    mined = out / "mined"
    problems = []
    for name, want in planted_sets(meta["topics"]).items():
        got = set((mined / name).read_text(encoding="utf-8").split())
        if got != want:
            problems.append(f"{name}: {len(got ^ want)} doc(s) differ from the planted set")
    thresholds = json.loads((mined / "thresholds.json").read_text(encoding="utf-8"))
    for key in ("s_min", "s_control"):
        if thresholds.get(key) != TOP_SIM:
            problems.append(f"thresholds {key}={thresholds.get(key)} != {TOP_SIM}")
    return problems


WORKLOADS = {
    "deep-eval": Workload(
        _gen_deep_eval, _argv_deep_eval,
        lambda out: [out / "stdout.txt"], lambda out: [out / "stdout.txt"], _check_deep_eval),
    "mine-log": Workload(
        _gen_mine_log, _argv_mine_log,
        lambda out: [out / "mined" / name for name in MINE_FILES],
        lambda out: [out / "mined" / name for name in MINE_REPORT_FILES], _check_mine_log),
}
