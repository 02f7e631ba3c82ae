"""Parsers and writers for every on-disk format the toolkit consumes.

Every parser is a per-line function run by one reader, `_read_lines`. It is
total: it returns a fully valid model value or raises ParseError listing each
bad line as `file:line: message`. Input is UTF-8 with LF or CRLF line ends;
a leading byte-order mark is dropped, blank lines are skipped, and a byte
that is not UTF-8 is reported at its line.

Within one read, each repeated id (and each run rank) is kept as one shared
object, not one per occurrence. The interaction log is read into columns
(see `InteractionLog`): each SERP's ids, one doc table, a flat doc-index
column with per-SERP offsets, the rank column and flat click columns.

A valid run, pair-similarity file or log is read once. A faulty one is read
a second time, by the same line loop with per-record checks that name each
fault at its line (`_read_or_reread`); a log's second read checks each
record before it joins the same columns, and builds no other object.
"""

import json
import logging
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path

import numpy as np

from .model import (
    InteractionLog,
    InteractionRecord,
    PairStore,
    Qrels,
    Ranking,
    RunList,
    VectorStore,
    pair_key,
)

logger = logging.getLogger(__name__)

PathLike = str | Path

# Most distinct rank texts a run read maps to one shared int each; past it,
# each further distinct text is converted on every line, as with no table.
RANK_TABLE_SIZE = 4096


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


def _read_lines(path: PathLike, parse_line) -> None:
    """Call `parse_line(lineno, line)` on each non-blank line of a UTF-8 file,
    after a leading byte-order mark. The ValueError or OverflowError (an int
    beyond float range) it raises is that line's diagnostic; all are raised as
    one ParseError after the last line. A non-UTF-8 byte ends the reading;
    lines in its block go unchecked."""
    diags: list[ParseDiagnostic] = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                if line.isspace():
                    continue
                try:
                    parse_line(lineno, line)
                except (ValueError, OverflowError) as exc:
                    diags.append(ParseDiagnostic(str(path), lineno, str(exc)))
    except UnicodeDecodeError as exc:
        message = f"invalid UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
        diags.append(ParseDiagnostic(str(path), _undecodable_line(path, exc), message))
    if diags:
        raise ParseError(path, diags)


def _undecodable_line(path: PathLike, text_error: UnicodeDecodeError) -> int:
    """The line of the first byte of `path` that is not UTF-8. Text mode decodes
    in blocks, so its error has no line; bytes.splitlines breaks lines as it does."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return len((data[:exc.start] + b"x").splitlines())
    raise text_error  # the file changed between the two reads


def _json(line: str):
    """One JSON value, or a ValueError with the decoder's own message (or
    "nested too deeply" where the decoder runs out of stack)."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None


def _read_or_reread(fast, exact):
    """The value of `fast()`, a read that only tells a valid file from a
    faulty one, by returning None or raising ParseError on a fault; on a
    fault, that of `exact()`, a read that names each fault at its line.

    The second read runs outside the handler: the first read's data are
    freed before it, and its ParseError carries no context."""
    try:
        value = fast()
    except ParseError:
        value = None
    return value if value is not None else exact()


def parse_run(path: PathLike) -> RunList:
    """Parse a TREC-layout run file: `topic_id Q0 doc_id rank score run_tag`.

    Docs are ordered by score descending, then by the file's rank column
    ascending, then by doc id ascending; the rank of a doc is its position.
    Scores are kept as parsed. Ranking.source_ranks is the file's rank
    column, kept as read; it breaks score ties. A valid file is read once; a
    file with a bad line or a doc twice in one topic is read again, to name
    each duplicate's first line.
    """
    return _read_or_reread(lambda: _read_run(path, None), lambda: _read_run(path, {}))


def _read_run(path: PathLike, first_line: dict[str, dict[str, int]] | None) -> RunList | None:
    """One read of a run file into a doc id, a score and a rank column per
    topic, or None if a topic has a doc twice.

    With a `first_line` map (topic -> doc id -> first line) the read keeps
    no columns and only names the faults, each duplicate at its line with
    the line of its first occurrence. On a file whose first read failed,
    and that has not changed since, it raises the ParseError naming them all.
    """
    topics: dict[str, tuple[list[str], list[float], list[int]]] = {}
    run_tag = None
    # Rank text -> int: a run repeats its ranks in every topic. Doc ids and
    # scores are not shared; they rarely repeat across a real run's lines.
    ranks: dict[str, int] = {}

    def parse_line(lineno, line):
        nonlocal run_tag
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"expected 6 fields, got {len(parts)}")
        topic_id, q0, doc_id, rank_s, score_s, tag = parts
        if q0.lower() != "q0":
            raise ValueError(f"expected literal Q0, got {q0!r}")
        source_rank = ranks.get(rank_s)
        if source_rank is None:
            try:
                source_rank = int(rank_s)
            except ValueError:
                raise ValueError(f"non-numeric rank {rank_s!r}") from None
            if len(ranks) < RANK_TABLE_SIZE:
                ranks[rank_s] = source_rank
        try:
            score = float(score_s)
        except ValueError:
            raise ValueError(f"non-numeric score {score_s!r}") from None
        if math.isnan(score):
            raise ValueError("score is NaN")
        if first_line is not None:
            seen = first_line.setdefault(topic_id, {}).setdefault(doc_id, lineno)
            if seen != lineno:
                raise ValueError(
                    f"duplicate (topic, doc) ({topic_id}, {doc_id}), first on line {seen}"
                )
            return
        columns = topics.get(topic_id)
        if columns is None:
            columns = topics[topic_id] = ([], [], [])
            run_tag = run_tag or tag
        columns[0].append(doc_id)
        columns[1].append(score)
        columns[2].append(source_rank)

    _read_lines(path, parse_line)
    if not topics:
        raise ParseError(path, [ParseDiagnostic(str(path), 1, "run file has no ranked lines")])
    rankings: dict[str, Ranking] = {}
    for topic_id in list(topics):
        # Popping frees each topic's lists once converted.
        doc_ids, scores, source_ranks = topics.pop(topic_id)
        rows = sorted(zip(map(operator.neg, scores), source_ranks, doc_ids, scores))
        _, source_ranks, doc_ids, scores = zip(*rows)
        try:
            rankings[topic_id] = Ranking(doc_ids, scores, source_ranks)
        except ValueError:  # a doc twice in the topic, found with no line map
            return None
    return RunList(run_tag, rankings)


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
    judgments: dict[str, dict[str, int]] = {}
    first_line: dict[tuple[str, str], int] = {}

    def parse_line(lineno, line):
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"expected 4 fields, got {len(parts)}")
        topic_id, _iteration, doc_id, grade_s = parts
        try:
            grade = int(grade_s)
        except ValueError:
            raise ValueError(f"non-integer grade {grade_s!r}") from None
        if not 0 <= grade <= g_max:
            raise ValueError(f"grade out of range: {grade} not in [0, {g_max}]")
        seen = first_line.setdefault((topic_id, doc_id), lineno)
        if seen == lineno:
            judgments.setdefault(topic_id, {})[doc_id] = grade
        elif judgments[topic_id][doc_id] != grade:
            raise ValueError(
                f"conflicting grade for ({topic_id}, {doc_id}): "
                f"{judgments[topic_id][doc_id]} on line {seen}, {grade} here"
            )
        else:
            logger.warning(
                "%s:%d: duplicate judgment for (%s, %s) with equal grade %d",
                path, lineno, topic_id, doc_id, grade,
            )

    _read_lines(path, parse_line)
    return Qrels(g_max, judgments)


def parse_vectors(path: PathLike) -> VectorStore:
    """Parse line-delimited `{"doc_id": ..., "vector": [...]}` records.

    Vectors are read as 64-bit floats regardless of on-disk precision; all
    records must share one dimension and have nonzero norm.
    """
    vectors: dict[str, np.ndarray] = {}
    dim = dim_line = None
    doc_line: dict[str, int] = {}

    def parse_line(lineno, line):
        nonlocal dim, dim_line
        rec = _json(line)
        if isinstance(rec, dict) and "vec" in rec and "vector" not in rec:
            raise ValueError('the vector field is named "vector", not "vec"')
        if not isinstance(rec, dict) or "doc_id" not in rec or "vector" not in rec:
            raise ValueError("record must have doc_id and vector fields")
        doc_id = rec["doc_id"]
        if not isinstance(doc_id, str):
            raise ValueError(f"doc_id must be a string, got {doc_id!r}")
        vec = _finite_vector(rec["vector"])
        if doc_id in doc_line:
            raise ValueError(f"duplicate vector for doc {doc_id}, first on line {doc_line[doc_id]}")
        if dim is None:
            dim, dim_line = vec.shape[0], lineno
        elif vec.shape[0] != dim:
            raise ValueError(f"dimension mismatch: {vec.shape[0]} here vs {dim} on line {dim_line}")
        if not np.any(vec):
            raise ValueError(f"zero-norm vector for doc {doc_id}")
        doc_line[doc_id] = lineno
        vectors[doc_id] = vec

    _read_lines(path, parse_line)
    if not vectors:
        raise ParseError(path, [ParseDiagnostic(str(path), 1, "no vector records in file")])
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
    A valid file is read once; a faulty one is read again, to name the first
    line of each pair a fault re-declares.
    """
    return _read_or_reread(lambda: _read_pair_sims(path, None),
                           lambda: _read_pair_sims(path, {}))


def _read_pair_sims(
    path: PathLike, first_line: dict[str, dict[tuple[str, str], int]] | None
) -> PairStore:
    """One read of a pair-similarity file. With a `first_line` map (topic ->
    pair key -> first line) a fault on a pair declared before names that line."""
    store = PairStore({})
    same = {}.setdefault

    def parse_line(lineno, line):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 4:
            raise ValueError(f"expected 4 tab-separated fields, got {len(parts)}")
        topic_id, doc_a, doc_b, sim_s = parts
        try:
            sim = float(sim_s)
        except ValueError:
            raise ValueError(f"non-numeric similarity {sim_s!r}") from None
        if first_line is None:
            store.add(topic_id, same(doc_a, doc_a), same(doc_b, doc_b), sim)
            return
        lines = first_line.setdefault(topic_id, {})
        try:
            key = store.add(topic_id, doc_a, doc_b, sim)
        except ValueError as exc:
            seen = lines.get(pair_key(doc_a, doc_b))
            raise ValueError(f"{exc}, first on line {seen}" if seen else str(exc)) from None
        lines.setdefault(key, lineno)

    _read_lines(path, parse_line)
    return store


def parse_interaction_log(path: PathLike) -> InteractionLog:
    """Parse a line-delimited SERP interaction log.

    Each record is an object with serp_id, session_id, user_id, task_id,
    topic_id, serp (ordered array of {doc_id, rank}) and clicks (array of
    {doc_id, dwell_seconds, usefulness}). SERP ranks are re-normalized to the
    array order; clicked docs must appear on the SERP, with at most one click
    entry per doc; serp_ids are unique.

    A valid log is read once, each line straight into the log's columns,
    which are checked as a whole at the end; a faulty log is read again,
    each record checked before it joins the columns, to name each fault at
    its line.
    """
    return _read_or_reread(lambda: _read_log(path, None), lambda: _read_log(path, {}))


_LOG_FIELDS = operator.itemgetter(
    "serp_id", "session_id", "user_id", "task_id", "topic_id", "serp", "clicks")
_doc_id = operator.itemgetter("doc_id")
_rank = operator.itemgetter("rank")
_dwell = operator.itemgetter("dwell_seconds")
_usefulness = operator.itemgetter("usefulness")


def _read_log(path: PathLike, serp_line: dict[str, int] | None) -> InteractionLog | None:
    """One read of a log into columns, or None on a fault it does not name.

    Each line extends flat lists. Without a `serp_line` map, a record of the
    wrong shape fails its line at once, and the JSON types and the value
    invariants are checked over whole columns after the last line. With a
    map (serp_id -> first line), each record first passes `_check_record`,
    and a serp_id seen before names its first line; on a faulty log that
    has not changed since its first read, this raises the ParseError naming
    every fault. Of a line, only its serp_id and the first object of each
    distinct other id outlive it."""
    loads = json.loads
    shared: dict[str, str] = {}
    same = shared.setdefault
    doc_table: defaultdict[str, int] = defaultdict(count().__next__)
    doc_index = doc_table.__getitem__
    serp_ids, session_ids, user_ids, task_ids, topic_ids = ids = [], [], [], [], []
    sizes, serp_doc, ranks = [], [], []
    click_counts, click_doc, dwell, usefulness = [], [], [], []

    def parse_line(lineno, line):
        try:
            if serp_line is None:
                rec = loads(line)
            else:
                rec = _json(line)
                _check_record(rec)
                seen = serp_line.setdefault(rec["serp_id"], lineno)
                if seen != lineno:
                    raise ValueError(f"duplicate serp_id {rec['serp_id']}, first on line {seen}")
            serp_id, session_id, user_id, task_id, topic_id, serp, clicks = _LOG_FIELDS(rec)
            if type(serp) is not list or type(clicks) is not list:
                raise ValueError("malformed record")
            serp_ids.append(serp_id)
            session_ids.append(same(session_id, session_id))
            user_ids.append(same(user_id, user_id))
            task_ids.append(same(task_id, task_id))
            topic_ids.append(same(topic_id, topic_id))
            sizes.append(len(serp))
            serp_doc.extend(map(doc_index, map(_doc_id, serp)))
            ranks.extend(map(_rank, serp))
            click_counts.append(len(clicks))
            if clicks:
                click_doc.extend(map(doc_index, map(_doc_id, clicks)))
                dwell.extend(map(_dwell, clicks))
                usefulness.extend(map(_usefulness, clicks))
        except (KeyError, TypeError, RecursionError):
            raise ValueError("malformed record") from None

    _read_lines(path, parse_line)
    # Ids are strings, and a bool is no number here.
    if (any(type(k) is not str for k in chain(doc_table, shared))
            or not set(map(type, serp_ids)) <= {str}
            or not set(map(type, ranks)) | set(map(type, usefulness)) <= {int}
            or not set(map(type, dwell)) <= {int, float}
            or len(set(serp_ids)) != len(serp_ids)):
        return None
    try:
        return InteractionLog(*ids, tuple(doc_table), sizes, serp_doc, ranks, click_counts,
                              click_doc, dwell, usefulness)
    except (ValueError, OverflowError):  # a broken invariant, or a dwell past float range
        return None


_ID_FIELDS = ("serp_id", "session_id", "user_id", "task_id", "topic_id")
_CLICK_FIELDS = frozenset(("doc_id", "dwell_seconds", "usefulness"))


def _check_record(rec) -> None:
    """A ValueError naming the first fault of one decoded log record: its
    shape and JSON types, then the log's invariants for one SERP. Past the
    id fields every message names the SERP, and the doc for a click; a
    click on a doc the SERP does not show is named only once every click
    has passed its own checks."""
    if not isinstance(rec, dict):
        raise ValueError("record must be an object")
    for field_name in _ID_FIELDS:
        if field_name not in rec:
            raise ValueError(f"missing field {field_name}")
        if not isinstance(rec[field_name], str):
            raise ValueError(f"{field_name} must be a string, got {rec[field_name]!r}")
    shown: set[str] = set()
    clicked: dict[str, None] = {}
    try:
        if not isinstance(rec.get("serp"), list):
            raise ValueError("serp must be an array of {doc_id, rank}")
        twice = None
        for entry in rec["serp"]:
            if not isinstance(entry, dict) or "doc_id" not in entry or "rank" not in entry:
                raise ValueError("serp entries must have doc_id and rank")
            doc_id, rank = entry["doc_id"], entry["rank"]
            if not isinstance(doc_id, str):
                raise ValueError(f"serp doc_id must be a string, got {doc_id!r}")
            if not isinstance(rank, int) or isinstance(rank, bool):
                raise ValueError(f"serp rank must be an integer, got {rank!r}")
            if twice is None and doc_id in shown:
                twice = doc_id
            shown.add(doc_id)
        if twice is not None:
            raise ValueError(f"duplicate doc id {twice} in ranking")
        if not isinstance(rec.get("clicks"), list):
            raise ValueError("clicks must be an array of {doc_id, dwell_seconds, usefulness}")
        for c in rec["clicks"]:
            if not isinstance(c, dict) or not _CLICK_FIELDS <= c.keys():
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
                if doc_id in clicked:
                    raise ValueError("duplicate click entry")
                if dwell < 0:
                    raise ValueError(f"dwell_seconds must be >= 0, got {float(dwell)}")
                if usefulness < 0:
                    raise ValueError(f"usefulness must be >= 0, got {usefulness}")
            # math.isfinite raises OverflowError for an int beyond float range.
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"click on doc {doc_id}: {exc}") from None
            clicked[doc_id] = None
    except ValueError as exc:
        raise ValueError(f"SERP {rec['serp_id']}: {exc}") from None
    for doc_id in clicked:
        if doc_id not in shown:
            raise ValueError(f"click on doc {doc_id} absent from SERP {rec['serp_id']}")


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
    records: list[InteractionRecord] = []

    def parse_line(lineno, line):
        rec = _json(line)
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

    _read_lines(path, parse_line)
    return records
