"""Parsers for every on-disk format the toolkit consumes.

Every parser reads a file's text lines through one reader, `_text_lines`,
and names faults through `_read_lines`. It is total: it returns a fully
valid model value or raises ParseError listing each bad line as
`file:line: message`. Input is UTF-8 with LF or CRLF line ends;
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

A valid run, pair-similarity file or log is read once, by a first read that
ends at its first fault and names none. A faulty one is read a second time,
with per-record checks that name each fault at its line (`_read_or_reread`);
a log's second read checks each record before it joins the same columns. An
input that cannot seek, such as a pipe, is copied once to a temporary file.

A run can also be read as two byte ranges, cut at a line start where the
topic changes (`run_cut`), so that two processes can read one part each
(`read_run_part`, the loop of `parse_run`'s first read); `joined_run` joins
the parts. A log is cut likewise, at the first line start past its middle
byte (`log_cut`; a SERP is one line, so no topic rule is needed), each part
is read by `read_interaction_log`, and `joined_log` joins them. The part
from a cut is decoded as `utf-8`, so a U+FEFF there stays part of its
line, as on any line past the first.

JSON is decoded by `json`, except in a log's first read
(`read_interaction_log`), which uses orjson where it is installed
(`_first_read_decoder`). That read only tells a valid log from a faulty
one, and `json` decodes every line that orjson declines, so `json` alone
decides what is valid and words every diagnostic. A line nested more than
`_DEEP_LINE_BRACKETS` levels deep is invalid in every read, whatever the
depth of the caller's stack. The one valid log read twice is one whose
ints orjson reads differently: an int beyond 64 bits in a rank or
usefulness, which orjson reads as a float.
"""

import io
import json
import logging
import math
import operator
import re
import shutil
import tempfile
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from itertools import accumulate, chain, count, filterfalse
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


def _read_lines(path: PathLike, parse_line, file=None) -> None:
    """Call `parse_line(lineno, line)` on each non-blank line of the UTF-8 file
    `path`, read from `file` where given, after a leading byte-order mark.
    The ValueError or OverflowError (an int beyond float range) it raises is
    that line's diagnostic; all are raised as one ParseError after the last
    line. A non-UTF-8 byte ends the reading; lines in its block go unchecked."""
    diags: list[ParseDiagnostic] = []
    with _opened(path) if file is None else nullcontext(file) as file, _text_lines(file) as lines:
        try:
            for lineno, line in enumerate(lines, 1):
                if line.isspace():
                    continue
                try:
                    parse_line(lineno, line)
                except (ValueError, OverflowError) as exc:
                    diags.append(ParseDiagnostic(str(path), lineno, str(exc)))
        except UnicodeDecodeError as exc:
            message = f"invalid UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
            diags.append(ParseDiagnostic(str(path), _undecodable_line(file, exc), message))
    if diags:
        raise ParseError(path, diags)


def _first_read(file, parse_line, start: int = 0, stop: int | None = None) -> bool:
    """Whether `parse_line(None, line)` passes each non-blank line of bytes
    [start, stop) of the binary `file` (`_text_lines`); the read ends, naming
    nothing, at its first ValueError or OverflowError."""
    with _text_lines(file, start, stop) as lines:
        try:
            for line in filterfalse(str.isspace, lines):
                parse_line(None, line)
        except (ValueError, OverflowError):
            return False
    return True


@contextmanager
def _opened(path: PathLike):
    """`path` opened for binary reading, or where it cannot seek (a pipe), a
    copy of its bytes in an unnamed temporary file, not held in memory."""
    with open(path, "rb") as file, \
            nullcontext(file) if file.seekable() else tempfile.TemporaryFile() as copy:
        if copy is not file:
            shutil.copyfileobj(file, copy)
            copy.seek(0)
        yield copy


@contextmanager
def _text_lines(file, start: int = 0, stop: int | None = None):
    """The UTF-8 text lines of bytes [start, stop) of the binary `file` (to its
    end where `stop` is None), past a byte-order mark at byte 0. `file` is
    left open, and sought to `start` unless read from byte 0 to its end."""
    if start or stop is not None:
        file.seek(start)
    lines = io.TextIOWrapper(file if stop is None else _ByteRange(file, stop - start),
                             encoding="utf-8" if start else "utf-8-sig")
    try:
        yield lines
    finally:
        lines.detach()


def _undecodable_line(file, text_error: UnicodeDecodeError) -> int:
    """The line of the first byte of `file` that is not UTF-8. Text mode decodes
    in blocks, so its error has no line; bytes.splitlines breaks lines as it does."""
    file.seek(0)
    data = file.read()
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


def _read_or_reread(path: PathLike, fast, exact):
    """The value of `fast(file)`, a read that only tells a valid file from a
    faulty one, by returning None on a fault; on a fault, that of
    `exact(file)`, a read that names each fault at its line. `file` is
    `path` as `_opened` gives it, rewound for the second read."""
    with _opened(path) as file:
        if (value := fast(file)) is None:
            file.seek(0)
            value = exact(file)
    return value


def parse_run(path: PathLike) -> RunList:
    """Parse a TREC-layout run file: `topic_id Q0 doc_id rank score run_tag`.

    Docs are ordered by score descending, then by the file's rank column
    ascending, then by doc id ascending; the rank of a doc is its position.
    The score and rank columns are checked and order the docs, and neither
    is kept. A valid file is read once, as `read_run_part(path, 0)`; a file
    with a bad line or a doc twice in one topic is read again, to name them.
    """
    return _read_or_reread(path, lambda f: _run_part(f, 0, None), lambda f: _read_run(path, f))


def _middle_cut(path: PathLike, rule):
    """`rule(file, offset)`, with `offset` the first line start past the
    middle byte of the file `path` (its size where there is none) and `file`
    the file opened for binary reading and read to there; None where `path`
    is no regular file (a pipe can be read only once, in order) or cannot be
    read. Lines are split at line feeds only, so that a cut is a line start
    whatever else the file holds."""
    with suppress(OSError):
        if Path(path).is_file():
            with open(path, "rb") as fh:
                middle = fh.seek(0, io.SEEK_END) // 2
                fh.seek(middle)
                return rule(fh, middle + len(fh.readline()))
    return None


def run_cut(path: PathLike) -> int | None:
    """Where to cut a run file in two: the byte offset of the first line
    whose topic differs from that of the non-blank line before it, among
    the lines after the first whole line past the middle byte (`_middle_cut`);
    None where there is none, or where `path` is no regular file or cannot
    be read."""

    def topic_change(fh, offset: int) -> int | None:
        topic = None
        for line in fh:
            fields = line.split(None, 1)
            if fields:
                if topic is not None and fields[0] != topic:
                    return offset
                topic = fields[0]
            offset += len(line)
        return None

    return _middle_cut(path, topic_change)


def log_cut(path: PathLike) -> int | None:
    """Where to cut a log in two: the first line start past its middle byte
    (`_middle_cut`); 0, so that the part from the cut is the whole log, where
    no non-blank line follows it (an empty log, blank lines only, one line);
    None where `path` is no regular file or cannot be read. A SERP is one
    line, so no further rule is needed."""
    return _middle_cut(path, lambda fh, offset: offset if any(map(bytes.strip, fh)) else 0)


def read_run_part(path: PathLike, start: int, stop: int | None = None) -> RunList | None:
    """The run in bytes [start, stop) of a run file, to its end where `stop`
    is None, as `parse_run` first reads a whole file; None where the part
    has a doc twice in a topic or no ranked line, or cannot be read, and at
    once, naming no fault, at its first bad line or byte that is not UTF-8,
    or with a `stop`, at the first line of a topic out of its block or of
    the topic of the line at `stop` (the parts would then likely share a
    topic). `start` and `stop` must be line starts, as a `run_cut` is."""
    with suppress(OSError), open(path, "rb") as file:
        return _run_part(file, start, stop)
    return None


class _ByteRange(io.RawIOBase):
    """The next `size` bytes of a binary file, as a raw stream."""

    def __init__(self, raw, size: int):
        self._raw, self._left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        read = self._raw.readinto(memoryview(buffer)[:self._left])
        self._left -= read
        return read


def joined_run(front: RunList | None, back: RunList | None) -> RunList | None:
    """The run whose parts before and after a cut are `front` and `back`:
    the rankings of the front, then those of the back, with the front's run
    tag. None where either part is None or a topic is in both, as the whole
    file may then hold a fault that neither part shows."""
    if front is None or back is None or not front.rankings.keys().isdisjoint(back.rankings):
        return None
    return RunList(front.run_tag, {**front.rankings, **back.rankings})


def _run_part(file, start: int, stop: int | None) -> RunList | None:
    """`read_run_part` of the binary `file`. A topic's lines go into a doc id, a
    score and a rank column, looked up only where the topic changes. As the
    read leaves a topic's first block, the block is sorted into a Ranking,
    and its scores and ranks (8 bytes a line each) wait in case the topic
    shows up again; then it is expanded back once and stays open."""
    closed = None
    if stop is not None:
        file.seek(stop)
        closed = set(file.readline().decode("utf-8", "replace").split()[:1])
    # Topic -> (doc ids, or its first block's Ranking; negated scores; file ranks)
    topics: dict[str, tuple] = {}
    topic = run_tag = None
    first_block = False
    # Rank text -> int: a run repeats its ranks in every topic, and the read
    # holds every topic's ranks until its last line. Doc ids are not shared;
    # they rarely repeat across a real run's lines.
    ranks: dict[str, int] = {}
    try:  # a ValueError is a fault: a field count, a rank or score, a byte, a doc twice
        with _text_lines(file, start, stop) as lines:
            for parts in filter(None, map(str.split, lines)):  # the non-blank lines
                topic_id, q0, doc_id, rank_s, score_s, tag = parts  # unless 6 fields
                rank = ranks.get(rank_s)
                if rank is None:
                    rank = int(rank_s)
                    if len(ranks) < RANK_TABLE_SIZE:
                        ranks[rank_s] = rank
                score = float(score_s)
                if score != score or q0 != "Q0" and q0.lower() != "q0":  # NaN, or no Q0
                    return None
                if topic_id != topic:
                    if first_block:
                        topics[topic] = _ranked(topics[topic])
                    columns = topics.get(topic_id)
                    first_block = columns is None
                    if closed is not None and (not first_block or topic_id in closed):
                        return None
                    if first_block:
                        columns = topics[topic_id] = ([], array("d"), [])
                        run_tag = run_tag or tag
                    elif isinstance(columns[0], Ranking):  # reopened: sorted keys align with ids
                        scores, file_ranks = zip(*sorted(zip(columns[1], columns[2])))
                        columns = topics[topic_id] = (list(columns[0].doc_ids),
                                                      array("d", scores), list(file_ranks))
                    add_doc, add_score, add_rank = (column.append for column in columns)
                    topic = topic_id
                add_doc(doc_id)
                add_score(-score)
                add_rank(rank)
        rankings: dict[str, Ranking] = {}
        for topic_id in list(topics):
            columns = topics.pop(topic_id)  # so each topic's scores are freed in turn
            rankings[topic_id] = (columns if isinstance(columns[0], Ranking)
                                  else _ranked(columns))[0]
    except ValueError:
        return None
    return RunList(run_tag, rankings) if rankings else None


def _ranked(columns: tuple) -> tuple:
    """A topic's (doc ids, negated scores, file ranks) with its docs, sorted by
    score, rank and doc id, as a Ranking; a ValueError where a doc is twice."""
    rows = sorted(zip(columns[1], columns[2], columns[0]))
    return Ranking(list(map(operator.itemgetter(2), rows))), *columns[1:]


def _read_run(path: PathLike, file) -> None:
    """Raise the ParseError that names each fault of a run file, each doc twice
    in a topic with its first line; where it finds none, as where the first
    read failed on an unchanged file, the file has no ranked line."""
    first_line: dict[str, dict[str, int]] = {}  # topic -> doc id -> first line

    def parse_line(lineno, line):
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"expected 6 fields, got {len(parts)}")
        topic_id, q0, doc_id, rank_s, score_s, _tag = parts
        if q0.lower() != "q0":
            raise ValueError(f"expected literal Q0, got {q0!r}")
        try:
            int(rank_s)
        except ValueError:
            raise ValueError(f"non-numeric rank {rank_s!r}") from None
        try:
            score = float(score_s)
        except ValueError:
            raise ValueError(f"non-numeric score {score_s!r}") from None
        if math.isnan(score):
            raise ValueError("score is NaN")
        seen = first_line.setdefault(topic_id, {}).setdefault(doc_id, lineno)
        if seen != lineno:
            raise ValueError(f"duplicate (topic, doc) ({topic_id}, {doc_id}), first on line {seen}")

    _read_lines(path, parse_line, file)
    raise ParseError(path, [ParseDiagnostic(str(path), 1, "run file has no ranked lines")])


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
    value after the clamp. A valid file is read once, into columns, by a read
    that stops at its first bad line; a faulty one is read again, each line
    checked by `declare_pair`, to name each fault and a re-declared pair's first line.
    """
    return _read_or_reread(path, lambda file: _read_pair_sims(path, None, file),
                           lambda file: _read_pair_sims(path, {}, file))


def _read_pair_sims(path: PathLike, pairs: dict | None, file) -> PairStore | None:
    """One read of a pair-similarity file from the binary `file`.

    Without a `pairs` map (`_first_read`), each line adds a topic code, two
    doc codes and a value to flat 8-byte columns, which `PairStore.of_columns`
    checks as a whole; a fault gives None. With a map, each line goes
    through `declare_pair`, which names each fault at its line."""
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

    if pairs is not None:
        _read_lines(path, parse_line, file)
        return PairStore({key: value for key, (value, _) in pairs.items()})
    if not _first_read(file, parse_line):
        return None
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
    which are checked as a whole at the end (a line of the wrong shape ends
    that read); a faulty log is read again, each record checked before it
    joins the columns, to name each fault at its line. The first read
    decodes with orjson where it is installed, the second with `json`, so a
    valid log with an int beyond 64 bits in a rank or usefulness, which
    orjson reads as a float, is read twice.
    """
    return _read_or_reread(path, lambda file: _read_log(path, None, file),
                           lambda file: _read_log(path, {}, file))


def read_interaction_log(path: PathLike, start: int = 0,
                         stop: int | None = None) -> InteractionLog | None:
    """`parse_interaction_log`'s first read of bytes [start, stop) of a log,
    to its end where `stop` is None: the log of those lines, or on a fault
    None. `start` and `stop` must be line starts, as a `log_cut` is."""
    with _opened(path) as file:
        return _read_log(path, None, file, start, stop)


def joined_log(front: InteractionLog | None,
               back: InteractionLog | None) -> InteractionLog | None:
    """The log whose parts before and after a cut are `front` and `back`
    (`InteractionLog.joined`). None where either part is None or a serp_id
    is in both: only the whole read names that duplicate."""
    if front is None or back is None or not set(front.serp_ids).isdisjoint(back.serp_ids):
        return None
    return front.joined(back)


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


def _read_log(path: PathLike, serp_line: dict[str, int] | None, file, start: int = 0,
              stop: int | None = None) -> InteractionLog | None:
    """One read of a log from `file` into columns, or None on a fault it does
    not name; a first read may read only bytes [start, stop) of it.

    Each line extends flat lists. Without a `serp_line` map, a record of the
    wrong shape ends the read (`_first_read`), and the JSON types and the value
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

    if serp_line is not None:
        _read_lines(path, parse_line, file)
    elif not _first_read(file, parse_line, start, stop):
        return None
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
