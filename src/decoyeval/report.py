"""Result emission in TSV, CSV, or JSON lines.

All real numbers are emitted with six significant digits (printf %.6g), in
every format, so outputs are byte-stable across platforms and runs. Rows
arrive already ordered from the evaluation layer; nothing here reorders
them.
"""

import csv
import io
import json
import math
import sys
from collections.abc import Iterable, Sequence
from contextlib import contextmanager

import numpy as np

from .decoy import SerpPairRecord
from .logmine import GroupComparison, Thresholds
from .metrics import RunEvaluation, SweepRow
from .model import DecoyPair, RecordColumns

FORMATS = ("tsv", "csv", "jsonl")

_PAIR_COLUMNS = (
    "topic", "target_doc", "decoy_doc", "similarity",
    "target_rank", "decoy_rank", "target_grade", "decoy_grade",
)
_RECORD_COLUMNS = (
    "serp_id", "doc_id", "group", "is_clicked", "dwell_seconds",
    "usefulness", "rank", "task_id", "user_id",
)


def format_real(value: float) -> str:
    """Canonical six-significant-digit rendering of a real number."""
    return f"{value:.6g}"


@contextmanager
def _open_dest(destination):
    if destination is None:
        yield sys.stdout
    elif hasattr(destination, "write"):
        yield destination
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_real(value)
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        # Renormalise through the canonical rendering so JSON and the text
        # formats show identical digits; non-finite values are not valid
        # JSON numbers, so they become strings.
        return float(format_real(value)) if math.isfinite(value) else format_real(value)
    return value


_encode_str = json.encoder.encode_basestring
_encode_other = json.JSONEncoder(ensure_ascii=False).encode


def _json_text(value) -> str:
    """`_json_value(value)` as JSON text, as JSONEncoder(ensure_ascii=False)
    writes it: bools before ints, since a bool is an int."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        value = _json_value(value)
        return float.__repr__(value) if isinstance(value, float) else _encode_str(value)
    return _encode_other(value)


def _jsonl_keys(columns: Sequence[str]) -> list[str]:
    """Each column's `"name": ` prefix in a JSON lines object."""
    if len(set(columns)) != len(columns):
        raise ValueError(f"duplicate column names in {list(columns)}; a JSON object "
                         "keeps one value per name")
    return [_encode_str(c) + ": " for c in columns]


def _write_table(columns: Sequence[str], rows: Sequence[Sequence], fmt: str, destination):
    _check_table(len(columns), rows, fmt)
    with _open_dest(destination) as out:
        if fmt == "jsonl":
            # Each row is the text json.dumps(..., ensure_ascii=False) gives
            # for the {column: _json_value(cell)} object, without building it.
            keys = _jsonl_keys(columns)
            for row in rows:
                out.write("{" + ", ".join(map(str.__add__, keys, map(_json_text, row))) + "}\n")
            return
        if fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
            return
        out.write("\t".join(columns) + "\n")
        for row in rows:
            out.write("\t".join(map(_cell, row)) + "\n")


def _check_table(width: int, rows: Iterable[Sequence], fmt: str) -> None:
    """The ValueError for a table that `fmt` cannot hold: an unknown format,
    a row of other than `width` cells, or a TSV cell with a tab or a line
    end (only a string cell can hold one)."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; known: {', '.join(FORMATS)}")
    for number, row in enumerate(rows, 1):
        if len(row) != width:
            raise ValueError(f"row {number} has {len(row)} cells for {width} columns")
        for cell in row if fmt == "tsv" else ():
            if isinstance(cell, str) and ("\t" in cell or "\n" in cell or "\r" in cell):
                raise ValueError(f"field {cell!r} contains a TSV delimiter; use csv or jsonl")


def emit_scores(evaluations: Sequence[RunEvaluation], fmt: str = "tsv", destination=None):
    """Per-topic metric rows plus an `all` mean row for each cutoff.

    Decoy pair and highly relevant counts are included whenever dejavu was
    computed (integers per topic, means on the `all` row).
    """
    if not evaluations:
        raise ValueError("nothing to emit: no evaluations")
    metric_names = evaluations[0].metric_names
    for ev in evaluations:
        if ev.metric_names != metric_names:
            raise ValueError("evaluations disagree on metric columns")
    with_counts = "dejavu" in metric_names
    columns = ["run", "k", "topic", *metric_names]
    if with_counts:
        columns += ["decoy_pairs", "highly_relevant"]
    rows = []
    for ev in evaluations:
        for t in ev.topics:
            row = [ev.run_tag, ev.k, t.topic_id] + [t.scores[m] for m in metric_names]
            if with_counts:
                row += [t.decoy_pairs, t.highly_relevant]
            rows.append(row)
        mean_row = [ev.run_tag, ev.k, "all"] + [ev.mean.scores[m] for m in metric_names]
        if with_counts:
            mean_row += [ev.mean.decoy_pairs, ev.mean.highly_relevant]
        rows.append(mean_row)
    _write_table(columns, rows, fmt, destination)


def emit_sweep(rows: Sequence[SweepRow], fmt: str = "tsv", destination=None):
    """Cutoff sweep: one row of cross-topic means per k."""
    table = [[r.k, r.decoy_pairs, r.ndcg, r.recall, r.dejavu] for r in rows]
    _write_table(("k", "decoy_pairs", "ndcg", "recall", "dejavu"), table, fmt, destination)


def _pair_row(pair: DecoyPair) -> list:
    return [
        pair.topic_id, pair.target_doc, pair.decoy_doc, pair.similarity,
        pair.target_rank, pair.decoy_rank, pair.target_grade, pair.decoy_grade,
    ]


def emit_pairs(pairs: Sequence[DecoyPair], fmt: str = "tsv", destination=None):
    """Detected decoy pairs, one row each, in the order given."""
    _write_table(_PAIR_COLUMNS, [_pair_row(p) for p in pairs], fmt, destination)


def emit_serp_pairs(records: Sequence[SerpPairRecord], fmt: str = "tsv", destination=None):
    """Per-SERP decoy pair records from log mining."""
    rows = [[r.serp_id, *_pair_row(r.pair)] for r in records]
    _write_table(("serp_id", *_PAIR_COLUMNS), rows, fmt, destination)


def check_serp_pairs(records: Sequence[SerpPairRecord], fmt: str) -> None:
    """The ValueError `emit_serp_pairs(records, fmt)` raises, if any."""
    _check_table(1 + len(_PAIR_COLUMNS), ([r.serp_id, *_pair_row(r.pair)] for r in records), fmt)


def _memo_texts(column: Sequence) -> list[str]:
    """`_json_text` of each cell, computed once per distinct cell. Numeric
    arrays are told apart by their bits, so -0.0 is not taken for 0.0."""
    if isinstance(column, np.ndarray):
        keys = column.view(np.int64) if column.dtype == np.float64 else column
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        texts = list(map(_json_text, column[first].tolist()))
        return list(map(texts.__getitem__, inverse.tolist()))
    texts = {}
    return [texts[v] if v in texts else texts.setdefault(v, _json_text(v)) for v in column]


def emit_records(records: RecordColumns, destination=None):
    """Interaction records as JSONL, which round-trips through the record
    parser."""
    columns = [records.serp_id, records.doc_id, records.groups(), records.is_clicked,
               records.dwell_seconds, records.usefulness, records.rank, records.task_id,
               records.user_id]
    # One str.format per row, of cell texts made column by column: the bytes
    # of _write_table's jsonl rows.
    template = "{{" + ", ".join(k + "{}" for k in _jsonl_keys(_RECORD_COLUMNS)) + "}}\n"
    with _open_dest(destination) as out:
        if len(records):
            out.writelines(map(template.format, *map(_memo_texts, columns)))


def emit_thresholds(thresholds: Thresholds | None, destination=None):
    """Derived similarity thresholds as a small JSON object (nulls when the
    log yielded no pairs)."""
    if thresholds is None:
        payload = {"s_min": None, "s_control": None, "pair_count": 0}
    else:
        payload = {
            "s_min": _json_value(thresholds.s_min),
            "s_control": _json_value(thresholds.s_control),
            "pair_count": thresholds.pair_count,
        }
    with _open_dest(destination) as out:
        out.write(json.dumps(payload, indent=2) + "\n")


def emit_comparison(comparison: GroupComparison, destination=None):
    """Target/control group summary and Welch tests as pretty JSON."""
    def stats(gs):
        return {
            "group": gs.group,
            "n": gs.n,
            "clickthrough": _json_value(gs.clickthrough),
            "mean_dwell": _json_value(gs.mean_dwell),
            "mean_usefulness": _json_value(gs.mean_usefulness),
        }

    payload = {
        "target": stats(comparison.target),
        "control": stats(comparison.control),
        "tests": [
            {
                "measure": t.measure,
                "mean_target": _json_value(t.mean_target),
                "mean_control": _json_value(t.mean_control),
                "t": _json_value(t.t),
                "df": _json_value(t.df),
                "p_two_sided": _json_value(t.p_two_sided),
            }
            for t in comparison.tests
        ],
        "tests_run": bool(comparison.tests),
    }
    with _open_dest(destination) as out:
        out.write(json.dumps(payload, indent=2) + "\n")


def render_table(columns: Sequence[str], rows: Sequence[Sequence], fmt: str = "tsv") -> str:
    """Render any table to a string; used by tests and ad hoc callers."""
    buf = io.StringIO()
    _write_table(columns, rows, fmt, buf)
    return buf.getvalue()
