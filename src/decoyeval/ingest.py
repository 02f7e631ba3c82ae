"""Parsers for every on-disk format the toolkit consumes.

Every parser is a per-line function run by one reader, `_read_lines`. It is
total: it returns a fully valid model value or raises ParseError listing each
bad line as `file:line: message`. Input is UTF-8 with LF or CRLF line ends;
a leading byte-order mark is dropped, blank lines are skipped, and a byte
that is not UTF-8 is reported at its line.

Within one read, each repeated id (and each run rank) is kept as one shared
object, not one per occurrence. A run's doc ids become one string per topic
(see `Ranking`) as the read leaves the topic's block. The interaction log is
read into columns (see `InteractionLog`): each SERP's ids, one doc table, a
flat doc-index column with per-SERP offsets, and flat click columns. A rank
is a position: the rank fields of a run or a log are checked, and a run's
scores and ranks order its docs while each topic is sorted, but no model
value keeps them.

A valid run, pair-similarity file or log is read once. A faulty one is read
a second time, by the same line loop with per-record checks that name each
fault at its line (`_read_or_reread`); a log's second read checks each
record before it joins the same columns, and builds no other object.

A run can also be read as two byte ranges, cut at a line start where the
topic changes (`run_cut`), so that two processes can read one part each
(`read_run_part`); `joined_run` joins the parts. The part from the cut is
decoded as `utf-8`, so a U+FEFF there stays part of its topic id, as on
any line past the first. The part before the cut is read up to as many
lines as its bytes hold line feeds; a lone carriage return there, which
text mode also reads as a line end, fails the part, as does a topic out
of its block there, which ends that read at once. A part only tells a
valid range from a faulty one: a caller reads the file whole, with
`parse_run`, for the diagnostics.

JSON is decoded by `json`, except in a log's first read, which uses orjson
where it is installed (`_first_read_decoder`). That read only tells a valid
log from a faulty one, and `json` decodes every line that orjson declines,
so `json` alone decides what is valid and words every diagnostic. A line
nested more than `_DEEP_LINE_BRACKETS` levels deep is invalid in every read,
whatever the depth of the caller's stack. The one valid log read twice is
one whose ints orjson reads differently: an int beyond 64 bits in a rank or
usefulness, which orjson reads as a float.
"""

import io
import json
import logging
import math
import operator
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, chain, count, islice
from pathlib import Path

import numpy as np

from .model import (
    InteractionLog,
    PairStore,
    Qrels,
    Ranking,
    RecordColumns,
    RunList,
    VectorStore,
    declare_pair,
    int_column,
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


def _read_lines(path: PathLike, parse_line, start: int = 0, lines: int | None = None) -> None:
    """Call `parse_line(lineno, line)` on each non-blank line of a UTF-8 file,
    after a leading byte-order mark. The ValueError or OverflowError (an int
    beyond float range) it raises is that line's diagnostic; all are raised as
    one ParseError after the last line. A non-UTF-8 byte ends the reading;
    lines in its block go unchecked.

    From a `start` byte offset past 0, which must begin a line, the file is
    read as `utf-8`, so a U+FEFF there is text, as on any line past the
    first. With a `lines` count, the reading stops after that many lines,
    blank ones included."""
    diags: list[ParseDiagnostic] = []
    try:
        with open(path, "rb") as raw:
            if start:  # a pipe cannot seek, even to 0
                raw.seek(start)
            with io.TextIOWrapper(raw, encoding="utf-8" if start else "utf-8-sig") as fh:
                for lineno, line in enumerate(fh if lines is None else islice(fh, lines), 1):
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


# The deepest nesting of arrays and objects a JSON line may have. json.loads
# runs out of stack at a depth set by the recursion limit and by how deep its
# caller is (about 990 levels at the top of the default stack), so a fixed
# limit, checked first, makes a line's validity a property of the file.
_DEEP_LINE_BRACKETS = 500
# Compiled on first use, by `re`'s cache, not at import.
_JSON_STRING = r'(?s)"[^"\\]*(?:\\.[^"\\]*)*"?'
_BRACKETS = r"[][{}]"


def _nesting_depth(line: str) -> int:
    """The deepest nesting of arrays and objects in a JSON text, brackets
    inside strings left out (an unterminated string runs to the end)."""
    brackets = re.findall(_BRACKETS, re.sub(_JSON_STRING, "", line))
    return max(accumulate(1 if b in "[{" else -1 for b in brackets), default=0)


def _json(line: str):
    """One JSON value, or a ValueError with the decoder's own message, or
    "nested too deeply" past `_DEEP_LINE_BRACKETS` levels."""
    if (len(line) > _DEEP_LINE_BRACKETS
            and line.count("[") + line.count("{") > _DEEP_LINE_BRACKETS
            and _nesting_depth(line) > _DEEP_LINE_BRACKETS):
        raise ValueError("invalid JSON: nested too deeply")
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
    The score and rank columns are checked and order the docs, and neither
    is kept. A valid file is read once; a file with a bad line or a doc
    twice in one topic is read again, to name each duplicate's first line.
    """
    return _read_or_reread(lambda: _read_run(path, None), lambda: _read_run(path, {}))


def run_cut(path: PathLike) -> int | None:
    """Where to cut a run file in two: the byte offset of the first line
    whose topic differs from that of the non-blank line before it, among
    the lines after the first whole line past the middle byte; None where
    there is none. Lines are split at line feeds only, so a cut is a line
    start whatever else the file holds."""
    with open(path, "rb") as fh:
        middle = fh.seek(0, io.SEEK_END) // 2
        fh.seek(middle)
        offset = middle + len(fh.readline())  # the end of the line holding the middle byte
        topic = None
        for line in fh:
            fields = line.split(None, 1)
            if fields:
                if topic is not None and fields[0] != topic:
                    return offset
                topic = fields[0]
            offset += len(line)
    return None


def read_run_part(path: PathLike, start: int, stop: int | None = None) -> RunList | None:
    """The run in bytes [start, stop) of a run file, to its end where `stop`
    is None, read as `parse_run` first reads a whole file; None where the
    part has a bad line, a doc twice in a topic or no ranked line. With a
    `stop`, also None where the part holds a lone carriage return (see the
    module docstring), or where a topic's lines are not in one block or the
    topic of the line at `stop` shows up: the file is then not in topic
    blocks, so the parts would likely share a topic, and the read stops at
    once. `start` and `stop` must be line starts, as a `run_cut` is."""
    closed = lines = None
    if stop is not None:
        lines = _line_count(path, start, stop)
        if lines is None:
            return None
        with open(path, "rb") as fh:
            fh.seek(stop)
            closed = set(fh.readline().decode("utf-8", "replace").split()[:1])
    try:
        return _read_run(path, None, start, lines, closed)
    except ParseError:
        return None


def joined_run(front: RunList | None, back: RunList | None) -> RunList | None:
    """The run whose parts before and after a cut are `front` and `back`:
    the rankings of the front, then those of the back, with the front's run
    tag. None where either part is None or a topic is in both, as the whole
    file may then hold a fault that neither part shows."""
    if front is None or back is None or not front.rankings.keys().isdisjoint(back.rankings):
        return None
    return RunList(front.run_tag, {**front.rankings, **back.rankings})


def _line_count(path: PathLike, start: int, stop: int) -> int | None:
    """The line feeds in bytes [start, stop) of a file, or None where a
    carriage return there is not followed by a line feed."""
    feeds = returns = pairs = 0
    last = b""
    with open(path, "rb") as fh:
        fh.seek(start)
        for chunk in iter(lambda: fh.read(min(1 << 20, stop - fh.tell())), b""):
            feeds += chunk.count(b"\n")
            if last == b"\r" or b"\r" in chunk:  # counting them costs as much as the feeds
                returns += chunk.count(b"\r")
                pairs += chunk.count(b"\r\n") + (last == b"\r" and chunk[:1] == b"\n")
            last = chunk[-1:]
    return feeds if returns == pairs else None


def _read_run(path: PathLike, first_line: dict[str, dict[str, int]] | None,
              start: int = 0, lines: int | None = None,
              closed: set[str] | None = None) -> RunList | None:
    """One read of a run file into a Ranking per topic, or None if a topic
    has a doc twice. A topic's lines go into a doc id, a score and a rank
    column. As the read leaves a topic's block, the block is sorted into a
    Ranking, and its scores and ranks (8 bytes a line each) wait in case the
    topic shows up again; then it is expanded back once and stays open.

    With a `first_line` map (topic -> doc id -> first line) the read keeps
    no columns and only names the faults, each duplicate at its line with
    the line of its first occurrence. On a file whose first read failed,
    and that has not changed since, it raises the ParseError naming them all.

    With a `start` byte offset the read begins there, decoding as `utf-8`;
    with a `lines` count it stops after that many lines; with a `closed`
    set it raises a ParseError at the first line of a topic in the set or
    in a second block. So it reads one part of a run cut at a line start,
    as `read_run_part` asks.
    """
    # Topic -> (doc ids, or its closed block's Ranking; negated scores; file ranks)
    topics: dict[str, tuple] = {}
    block = block_id = run_tag = None
    block_is_first = duplicate = False
    # Rank text -> int: a run repeats its ranks in every topic, and the read
    # holds every topic's ranks until its last line. Doc ids are not shared;
    # they rarely repeat across a real run's lines.
    ranks: dict[str, int] = {}

    def close(columns):
        nonlocal duplicate
        rows = sorted(zip(columns[1], columns[2], columns[0]))
        try:
            return Ranking(list(map(operator.itemgetter(2), rows))), *columns[1:]
        except ValueError:  # a doc twice in the topic, found with no line map
            duplicate = True
            return columns

    def parse_line(lineno, line):
        nonlocal block, block_id, block_is_first, run_tag
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"expected 6 fields, got {len(parts)}")
        topic_id, q0, doc_id, rank_s, score_s, tag = parts
        if q0.lower() != "q0":
            raise ValueError(f"expected literal Q0, got {q0!r}")
        file_rank = ranks.get(rank_s)
        if file_rank is None:
            try:
                file_rank = int(rank_s)
            except ValueError:
                raise ValueError(f"non-numeric rank {rank_s!r}") from None
            if len(ranks) < RANK_TABLE_SIZE:
                ranks[rank_s] = file_rank
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
        if columns is None or columns is not block:
            if closed is not None and (columns is not None or topic_id in closed):
                raise ParseError(path, [ParseDiagnostic(str(path), lineno,
                                                        f"topic {topic_id} out of its block")])
            if block_is_first:
                topics[block_id] = close(block)
            if block_is_first := columns is None:
                columns = topics[topic_id] = ([], array("d"), [])
                run_tag = run_tag or tag
            elif isinstance(columns[0], Ranking):  # reopened: its keys, sorted, align with its ids
                scores, file_ranks = zip(*sorted(zip(columns[1], columns[2])))
                columns = topics[topic_id] = (list(columns[0].doc_ids), array("d", scores),
                                              list(file_ranks))
            block, block_id = columns, topic_id
        columns[0].append(doc_id)
        columns[1].append(-score)
        columns[2].append(file_rank)

    _read_lines(path, parse_line, start, lines)
    if not topics:
        raise ParseError(path, [ParseDiagnostic(str(path), 1, "run file has no ranked lines")])
    rankings: dict[str, Ranking] = {}
    for topic_id in list(topics):
        columns = topics.pop(topic_id)  # so each topic's scores are freed in turn
        rankings[topic_id] = (columns if isinstance(columns[0], Ranking) else close(columns))[0]
    return None if duplicate else RunList(run_tag, rankings)


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

    Pairs are unordered within a topic, each value is clamped as
    `clamp_similarity` clamps it, and a re-declaration must repeat the first
    value after the clamp. A valid file is read once, into columns; a faulty
    one is read again, each line checked by `declare_pair`, to name each
    fault at its line and the first line of each pair a fault re-declares.
    """
    return _read_or_reread(lambda: _read_pair_sims(path, None),
                           lambda: _read_pair_sims(path, {}))


def _read_pair_sims(path: PathLike, pairs: dict | None) -> PairStore | None:
    """One read of a pair-similarity file.

    Without a `pairs` map, each line adds a topic code, two doc codes and a
    value to flat 8-byte columns, which `PairStore.of_columns` checks as a
    whole; a fault it finds gives None. With a map, each line goes through
    `declare_pair`, which names each fault at its line."""
    topics: defaultdict[str, int] = defaultdict(count().__next__)
    codes: defaultdict[str, int] = defaultdict(count().__next__)
    topic_col, a_col, b_col, values = array("q"), array("q"), array("q"), array("d")
    add_topic, add_a, add_b = topic_col.append, a_col.append, b_col.append
    add_value = values.append

    def parse_line(lineno, line):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 4:
            raise ValueError(f"expected 4 tab-separated fields, got {len(parts)}")
        topic_id, doc_a, doc_b, sim_s = parts
        try:
            sim = float(sim_s)
        except ValueError:
            raise ValueError(f"non-numeric similarity {sim_s!r}") from None
        if pairs is not None:
            declare_pair(pairs, topic_id, doc_a, doc_b, sim, lineno)
            return
        add_value(sim)
        add_topic(topics[topic_id])
        add_a(codes[doc_a])
        add_b(codes[doc_b])

    _read_lines(path, parse_line)
    if pairs is not None:
        return PairStore({key: value for key, (value, _) in pairs.items()})
    topics.default_factory = codes.default_factory = None
    try:
        return PairStore.of_columns(topics, codes, *(np.frombuffer(column, dtype=np.int64)
                                                     for column in (topic_col, a_col, b_col)),
                                    np.frombuffer(values))
    except ValueError:
        return None


def parse_interaction_log(path: PathLike) -> InteractionLog:
    """Parse a line-delimited SERP interaction log.

    Each record is an object with serp_id, session_id, user_id, task_id,
    topic_id, serp (ordered array of {doc_id, rank}) and clicks (array of
    {doc_id, dwell_seconds, usefulness}). A SERP's ranks must be ints, and
    are not kept: a doc's rank is its position in the array. Clicked docs
    must appear on the SERP, with at most one click entry per doc; serp_ids
    are unique.

    A valid log is read once, each line straight into the log's columns,
    which are checked as a whole at the end; a faulty log is read again,
    each record checked before it joins the columns, to name each fault at
    its line. The first read decodes with orjson where it is installed, the
    second with `json`, so a valid log with an int beyond 64 bits in a rank
    or usefulness, which orjson reads as a float, is read twice.
    """
    return _read_or_reread(lambda: _read_log(path, None), lambda: _read_log(path, {}))


_LOG_FIELDS = operator.itemgetter(
    "serp_id", "session_id", "user_id", "task_id", "topic_id", "serp", "clicks")
_doc_id = operator.itemgetter("doc_id")
_rank = operator.itemgetter("rank")
_dwell = operator.itemgetter("dwell_seconds")
_usefulness = operator.itemgetter("usefulness")


def _first_read_decoder():
    """The JSON decoder of a log's first read: `_json`, or where orjson is
    installed, `orjson.loads` with `json.loads` for each line it declines
    (NaN, Infinity, a number past float range, a lone surrogate escape) and
    `_json` for each line long enough, and with enough brackets, to be a
    valid line nested past `_DEEP_LINE_BRACKETS` levels.

    orjson reads an int beyond 64 bits as a float. In a rank or a
    usefulness that float fails the read's int column checks, so the log is
    read again by `json`; in an id it fails as the int would, and in a dwell
    it is the float the int becomes."""
    try:
        import orjson
    except ImportError:
        return _json
    fast, exact = orjson.loads, json.loads

    def loads(line):
        if (len(line) >= 2 * _DEEP_LINE_BRACKETS
                and line.count("[") + line.count("{") >= _DEEP_LINE_BRACKETS):
            return _json(line)
        try:
            return fast(line)
        except ValueError:  # orjson.JSONDecodeError
            return exact(line)

    return loads


def _read_log(path: PathLike, serp_line: dict[str, int] | None) -> InteractionLog | None:
    """One read of a log into columns, or None on a fault it does not name.

    Each line extends flat lists. Without a `serp_line` map, a record of the
    wrong shape fails its line at once, and the JSON types and the value
    invariants are checked over whole columns after the last line; lines
    are decoded by `_first_read_decoder`, and an int column that orjson
    read differently from `json` fails these checks. With a map (serp_id ->
    first line), each line is decoded by `json`, each record first passes
    `_check_record`, and a serp_id seen before names its first line; on a
    faulty log that has not changed since its first read, this raises the
    ParseError naming every fault. Of a line, only its serp_id and the first
    object of each distinct other id outlive it."""
    loads = _first_read_decoder() if serp_line is None else None
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
        return InteractionLog(*ids, tuple(doc_table), sizes, serp_doc, click_counts, click_doc,
                              dwell, usefulness)
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


# A record's fields, each with the JSON type it must have; a bool is never
# taken for a number.
_RECORD_TYPES = {
    "serp_id": (str, "a string"), "doc_id": (str, "a string"), "group": (str, "a string"),
    "is_clicked": (bool, "a boolean"), "dwell_seconds": ((int, float), "a number"),
    "usefulness": (int, "an integer"), "rank": (int, "an integer"),
    "task_id": (str, "a string"), "user_id": (str, "a string"),
}


def parse_records(path: PathLike) -> RecordColumns:
    """Parse line-delimited interaction records, as `emit_records` writes
    them, into columns. Each record has exactly the fields of
    `_RECORD_TYPES`, each of its JSON type: nothing is coerced. Its group is
    target or control, an unclicked record has dwell and usefulness 0, dwell
    and usefulness are >= 0 and rank >= 1."""
    columns = {name: [] for name in _RECORD_TYPES}

    def parse_line(lineno, line):
        rec = _json(line)
        if not isinstance(rec, dict) or rec.keys() != _RECORD_TYPES.keys():
            raise ValueError("record fields do not match InteractionRecord")
        for field_name, (kind, label) in _RECORD_TYPES.items():
            value = rec[field_name]
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise ValueError(f"{field_name} must be {label}, got {value!r}")
        dwell = rec["dwell_seconds"] = float(rec["dwell_seconds"])
        if not math.isfinite(dwell):
            raise ValueError(f"dwell_seconds must be finite, got {dwell!r}")
        group, usefulness, rank = rec["group"], rec["usefulness"], rec["rank"]
        if group not in ("target", "control"):
            raise ValueError(f"group must be 'target' or 'control', got {group!r}")
        if not rec["is_clicked"] and (dwell != 0 or usefulness != 0):
            raise ValueError("unclicked record must have dwell_seconds = 0 and usefulness = 0")
        if dwell < 0:
            raise ValueError(f"dwell_seconds must be >= 0, got {dwell}")
        if usefulness < 0:
            raise ValueError(f"usefulness must be >= 0, got {usefulness}")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        for name, column in columns.items():
            column.append(rec[name])

    _read_lines(path, parse_line)
    serp_id, doc_id, group, clicked, dwell, usefulness, rank, task_id, user_id = columns.values()
    return RecordColumns(serp_id, doc_id, np.array([g == "target" for g in group], dtype=bool),
                         np.array(clicked, dtype=bool), np.array(dwell, dtype=np.float64),
                         int_column(usefulness), int_column(rank), task_id, user_id)
