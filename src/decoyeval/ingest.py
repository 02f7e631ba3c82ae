"""Parsers and writers for every on-disk format the toolkit consumes.

All parsers are single-pass and total: they either return a fully valid model
value or raise ParseError carrying line-precise diagnostics, never a partially
populated value. Input is UTF-8; LF and CRLF line endings are both accepted.
"""

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    Click,
    InteractionLog,
    InteractionRecord,
    PairStore,
    Qrels,
    Ranking,
    RunList,
    SerpInteraction,
    VectorStore,
    pair_key,
)

logger = logging.getLogger(__name__)

PathLike = str | Path


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    """One parse problem, pinned to a 1-based line of a file."""

    file: str
    line: int
    message: str

    def __post_init__(self):
        if self.line < 1:
            raise ValueError(f"diagnostic line must be >= 1, got {self.line}")

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: {self.message}"


class ParseError(Exception):
    """Raised when a file cannot be parsed; carries every diagnostic found."""

    def __init__(self, path: PathLike, diagnostics: list[ParseDiagnostic]):
        self.path = str(path)
        self.diagnostics = list(diagnostics)
        shown = "\n".join(str(d) for d in self.diagnostics[:10])
        if len(self.diagnostics) > 10:
            shown += f"\n... and {len(self.diagnostics) - 10} more"
        super().__init__(f"{len(self.diagnostics)} parse error(s) in {self.path}:\n{shown}")


def _json_lines(path: PathLike, diags: list[ParseDiagnostic]):
    """Yield (lineno, record) for each non-blank line of a JSON-lines file;
    a line that is not valid JSON gets a diagnostic in `diags` instead."""
    name = str(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                diags.append(ParseDiagnostic(name, lineno, f"invalid JSON: {exc.msg}"))
                continue
            yield lineno, rec


def parse_run(path: PathLike) -> RunList:
    """Parse a TREC-layout run file: `topic_id Q0 doc_id rank score run_tag`.

    Docs are ordered by score descending, then by the file's rank column
    ascending, then by doc id ascending; the rank of a doc is its position.
    The rank column is kept as Ranking.source_ranks for diagnostics.
    """
    diags: list[ParseDiagnostic] = []
    name = str(path)
    # per topic: doc_id -> first line, and (negated score, source rank,
    # doc_id) rows, whose plain tuple sort is the ranking order
    topics: dict[str, tuple[dict[str, int], list[tuple[float, int, str]]]] = {}
    run_tag = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                diags.append(ParseDiagnostic(name, lineno, f"expected 6 fields, got {len(parts)}"))
                continue
            topic_id, q0, doc_id, rank_s, score_s, tag = parts
            if q0.lower() != "q0":
                diags.append(ParseDiagnostic(name, lineno, f"expected literal Q0, got {q0!r}"))
                continue
            try:
                source_rank = int(rank_s)
            except ValueError:
                diags.append(ParseDiagnostic(name, lineno, f"non-numeric rank {rank_s!r}"))
                continue
            try:
                score = float(score_s)
            except ValueError:
                diags.append(ParseDiagnostic(name, lineno, f"non-numeric score {score_s!r}"))
                continue
            if math.isnan(score):
                diags.append(ParseDiagnostic(name, lineno, "score is NaN"))
                continue
            topic = topics.get(topic_id)
            if topic is None:
                topic = topics[topic_id] = ({}, [])
            seen = topic[0].setdefault(doc_id, lineno)
            if seen != lineno:
                diags.append(ParseDiagnostic(
                    name, lineno,
                    f"duplicate (topic, doc) ({topic_id}, {doc_id}), first on line {seen}",
                ))
                continue
            if run_tag is None:
                run_tag = tag
            topic[1].append((-score, source_rank, doc_id))
    if diags:
        raise ParseError(path, diags)
    if not topics:
        raise ParseError(path, [ParseDiagnostic(name, 1, "run file has no ranked lines")])
    rankings: dict[str, Ranking] = {}
    for topic_id in list(topics):
        # Popping frees each topic's rows and first-line map once converted.
        rows = topics.pop(topic_id)[1]
        rows.sort()
        rankings[topic_id] = Ranking(
            tuple([row[2] for row in rows]),
            tuple([-row[0] for row in rows]),
            tuple([row[1] for row in rows]),
        )
    return RunList(run_tag or "", rankings)


def write_run(run: RunList, path: PathLike) -> None:
    """Write a RunList back to the TREC run layout, one doc per line.

    Scores are printed with repr so that write -> parse round-trips exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id, ranking in run.rankings.items():
            for rank, (doc_id, score) in enumerate(zip(ranking.doc_ids, ranking.scores), 1):
                fh.write(f"{topic_id} Q0 {doc_id} {rank} {score!r} {run.run_tag}\n")


def parse_qrels(path: PathLike, g_max: int) -> Qrels:
    """Parse a qrels file: `topic_id iteration doc_id grade`.

    Grades outside [0, g_max] are rejected. A duplicate (topic, doc) judgment
    with a conflicting grade is an error; an identical duplicate is accepted
    with a warning.
    """
    diags: list[ParseDiagnostic] = []
    name = str(path)
    judgments: dict[str, dict[str, int]] = {}
    first_line: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                diags.append(ParseDiagnostic(name, lineno, f"expected 4 fields, got {len(parts)}"))
                continue
            topic_id, _iteration, doc_id, grade_s = parts
            try:
                grade = int(grade_s)
            except ValueError:
                diags.append(ParseDiagnostic(name, lineno, f"non-integer grade {grade_s!r}"))
                continue
            if not 0 <= grade <= g_max:
                diags.append(ParseDiagnostic(
                    name, lineno, f"grade out of range: {grade} not in [0, {g_max}]"
                ))
                continue
            key = (topic_id, doc_id)
            seen = first_line.get(key)
            if seen is not None:
                if judgments[topic_id][doc_id] != grade:
                    diags.append(ParseDiagnostic(
                        name, lineno,
                        f"conflicting grade for ({topic_id}, {doc_id}): "
                        f"{judgments[topic_id][doc_id]} on line {seen}, {grade} here",
                    ))
                else:
                    logger.warning(
                        "%s:%d: duplicate judgment for (%s, %s) with equal grade %d",
                        name, lineno, topic_id, doc_id, grade,
                    )
                continue
            first_line[key] = lineno
            judgments.setdefault(topic_id, {})[doc_id] = grade
    if diags:
        raise ParseError(path, diags)
    return Qrels(g_max, judgments)


def parse_vectors(path: PathLike) -> VectorStore:
    """Parse line-delimited `{"doc_id": ..., "vector": [...]}` records.

    Vectors are read as 64-bit floats regardless of on-disk precision; all
    records must share one dimension and have nonzero norm.
    """
    diags: list[ParseDiagnostic] = []
    name = str(path)
    vectors: dict[str, np.ndarray] = {}
    dim = None
    dim_line = None
    doc_line: dict[str, int] = {}
    for lineno, rec in _json_lines(path, diags):
        try:
            if isinstance(rec, dict) and "vec" in rec and "vector" not in rec:
                raise ValueError('the vector field is named "vector", not "vec"')
            if not isinstance(rec, dict) or "doc_id" not in rec or "vector" not in rec:
                raise ValueError("record must have doc_id and vector fields")
            doc_id = rec["doc_id"]
            if not isinstance(doc_id, str):
                raise ValueError(f"doc_id must be a string, got {doc_id!r}")
            vec = _finite_vector(rec["vector"])
            if doc_id in doc_line:
                raise ValueError(
                    f"duplicate vector for doc {doc_id}, first on line {doc_line[doc_id]}"
                )
            if dim is None:
                dim, dim_line = vec.shape[0], lineno
            elif vec.shape[0] != dim:
                raise ValueError(
                    f"dimension mismatch: {vec.shape[0]} here vs {dim} on line {dim_line}"
                )
            if not np.any(vec):
                raise ValueError(f"zero-norm vector for doc {doc_id}")
        except ValueError as exc:
            diags.append(ParseDiagnostic(name, lineno, str(exc)))
            continue
        doc_line[doc_id] = lineno
        vectors[doc_id] = vec
    if not diags and not vectors:
        diags.append(ParseDiagnostic(name, 1, "no vector records in file"))
    if diags:
        raise ParseError(path, diags)
    return VectorStore(vectors)


def _finite_vector(raw) -> np.ndarray:
    """A JSON array as a float64 vector. Every component must be a finite
    number; a boolean is not a number here."""
    if not isinstance(raw, list) or not raw:
        raise ValueError("vector must be a non-empty flat array")
    vec = None
    if set(map(type, raw)) <= {int, float}:
        try:
            vec = np.array(raw, dtype=np.float64)
        except OverflowError:  # an int beyond float range
            pass
    if vec is None or not np.isfinite(vec).all():
        i, x = next((i, x) for i, x in enumerate(raw) if not _finite_number(x))
        raise ValueError(f"vector component {i} must be a finite number, got {x!r}")
    return vec


def _finite_number(x) -> bool:
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an int beyond float range
        return False


def parse_pair_sims(path: PathLike) -> PairStore:
    """Parse a TSV of precomputed similarities: topic, doc_a, doc_b, similarity.

    Each line goes through `PairStore.add`: pairs are unordered within a
    topic, and a re-declaration must repeat the first value after the clamp.
    """
    diags: list[ParseDiagnostic] = []
    name = str(path)
    store = PairStore({})
    first_line: dict[str, dict[tuple[str, str], int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            row = line.rstrip("\n")
            if not row.strip():
                continue
            parts = row.split("\t")
            if len(parts) != 4:
                diags.append(ParseDiagnostic(
                    name, lineno, f"expected 4 tab-separated fields, got {len(parts)}"
                ))
                continue
            topic_id, doc_a, doc_b, sim_s = parts
            try:
                sim = float(sim_s)
            except ValueError:
                diags.append(ParseDiagnostic(name, lineno, f"non-numeric similarity {sim_s!r}"))
                continue
            lines = first_line.setdefault(topic_id, {})
            try:
                key = store.add(topic_id, doc_a, doc_b, sim)
            except ValueError as exc:
                seen = lines.get(pair_key(doc_a, doc_b))
                diags.append(ParseDiagnostic(
                    name, lineno, f"{exc}, first on line {seen}" if seen else str(exc)
                ))
                continue
            lines.setdefault(key, lineno)
    if diags:
        raise ParseError(path, diags)
    return store


def parse_interaction_log(path: PathLike) -> InteractionLog:
    """Parse a line-delimited SERP interaction log.

    Each record is an object with serp_id, session_id, user_id, task_id,
    topic_id, serp (ordered array of {doc_id, rank}) and clicks (array of
    {doc_id, dwell_seconds, usefulness}). SERP ranks are re-normalized to the
    array order; clicked docs must appear on the SERP, with at most one click
    entry per doc; serp_ids are unique.
    """
    diags: list[ParseDiagnostic] = []
    name = str(path)
    sessions: list[SerpInteraction] = []
    serp_line: dict[str, int] = {}
    for lineno, rec in _json_lines(path, diags):
        try:
            session = _serp_interaction(rec)
            seen = serp_line.setdefault(session.serp_id, lineno)
            if seen != lineno:
                raise ValueError(f"duplicate serp_id {session.serp_id}, first on line {seen}")
            sessions.append(session)
        except ValueError as exc:
            diags.append(ParseDiagnostic(name, lineno, str(exc)))
    if diags:
        raise ParseError(path, diags)
    return InteractionLog(sessions)


_ID_FIELDS = ("serp_id", "session_id", "user_id", "task_id", "topic_id")


def _serp_interaction(rec) -> SerpInteraction:
    """One log record, each SERP entry and click read once. Shape and type
    are checked here, value invariants by the model constructors; past the
    id fields every message names the SERP, and the doc for a click."""
    if not isinstance(rec, dict):
        raise ValueError("record must be an object")
    for field_name in _ID_FIELDS:
        if field_name not in rec:
            raise ValueError(f"missing field {field_name}")
        if not isinstance(rec[field_name], str):
            raise ValueError(f"{field_name} must be a string, got {rec[field_name]!r}")
    try:
        if not isinstance(rec.get("serp"), list):
            raise ValueError("serp must be an array of {doc_id, rank}")
        doc_ids, source_ranks = [], []
        for entry in rec["serp"]:
            if not isinstance(entry, dict) or "doc_id" not in entry or "rank" not in entry:
                raise ValueError("serp entries must have doc_id and rank")
            doc_id, rank = entry["doc_id"], entry["rank"]
            if not isinstance(doc_id, str):
                raise ValueError(f"serp doc_id must be a string, got {doc_id!r}")
            if not isinstance(rank, int) or isinstance(rank, bool):
                raise ValueError(f"serp rank must be an integer, got {rank!r}")
            doc_ids.append(doc_id)
            source_ranks.append(rank)
        serp = Ranking(tuple(doc_ids), (0.0,) * len(doc_ids), tuple(source_ranks))
        if not isinstance(rec.get("clicks"), list):
            raise ValueError("clicks must be an array of {doc_id, dwell_seconds, usefulness}")
        clicks: dict[str, Click] = {}
        for c in rec["clicks"]:
            if not isinstance(c, dict) or not {"doc_id", "dwell_seconds", "usefulness"} <= c.keys():
                raise ValueError("click entries must have doc_id, dwell_seconds and usefulness")
            doc_id, dwell, usefulness = c["doc_id"], c["dwell_seconds"], c["usefulness"]
            if not isinstance(doc_id, str):
                raise ValueError(f"click doc_id must be a string, got {doc_id!r}")
            try:
                if not isinstance(dwell, (int, float)) or isinstance(dwell, bool):
                    raise ValueError("dwell_seconds must be a number")
                if not math.isfinite(dwell):
                    raise ValueError(f"dwell_seconds must be finite, got {dwell!r}")
                if not isinstance(usefulness, int) or isinstance(usefulness, bool):
                    raise ValueError(f"usefulness must be an integer, got {usefulness!r}")
                if doc_id in clicks:
                    raise ValueError("duplicate click entry")
                clicks[doc_id] = Click(float(dwell), usefulness)
            # math.isfinite raises OverflowError for an int beyond float range.
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"click on doc {doc_id}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"SERP {rec['serp_id']}: {exc}") from None
    # SerpInteraction's own message names the SERP and the doc.
    return SerpInteraction(*(rec[f] for f in _ID_FIELDS), serp, clicks)


# InteractionRecord's fields, each with the JSON type it must have; a bool
# is never taken for a number.
_RECORD_TYPES = {
    "serp_id": (str, "a string"), "doc_id": (str, "a string"), "group": (str, "a string"),
    "is_clicked": (bool, "a boolean"), "dwell_seconds": ((int, float), "a number"),
    "usefulness": (int, "an integer"), "rank": (int, "an integer"),
    "task_id": (str, "a string"), "user_id": (str, "a string"),
}


def parse_records(path: PathLike) -> list[InteractionRecord]:
    """Parse line-delimited InteractionRecord objects, as written by the
    report module. Field names match InteractionRecord exactly, and each
    field must have its JSON type: nothing is coerced."""
    diags: list[ParseDiagnostic] = []
    name = str(path)
    records: list[InteractionRecord] = []
    for lineno, rec in _json_lines(path, diags):
        try:
            if not isinstance(rec, dict) or rec.keys() != _RECORD_TYPES.keys():
                raise ValueError("record fields do not match InteractionRecord")
            for field_name, (kind, label) in _RECORD_TYPES.items():
                value = rec[field_name]
                if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                    raise ValueError(f"{field_name} must be {label}, got {value!r}")
            dwell = float(rec["dwell_seconds"])
            if not math.isfinite(dwell):
                raise ValueError(f"dwell_seconds must be finite, got {dwell!r}")
            records.append(InteractionRecord(**{**rec, "dwell_seconds": dwell}))
        # float() raises OverflowError for an int beyond float range.
        except (ValueError, OverflowError) as exc:
            diags.append(ParseDiagnostic(name, lineno, str(exc)))
    if diags:
        raise ParseError(path, diags)
    return records
