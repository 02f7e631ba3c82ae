"""Command-line interface.

Four subcommands: `eval` scores a run (effectiveness + decoy vulnerability),
`decoys` lists detected pairs, `sweep` tables metrics across cutoffs, and
`mine` runs the log-mining pipeline end to end into an output directory.

Each command reads its run or its log one way (`_read_inputs`): where a
child is wanted, a forked child reads the part before the cut while a child
of its own reads the part after it, and sends back the joined whole
(`_halves`); meanwhile this process reads the qrels and the similarity
source.

Exit codes: 0 success, 1 input/validation error (diagnostics on stderr),
2 similarity coverage error (a needed doc or pair is absent).
"""

import argparse
import gc
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import forking, ingest
from .decoy import check_cutoff, detect_decoy_pairs_at_k, identify_controls, identify_targets
from .logmine import (
    check_percentiles,
    derive_thresholds,
    extract_records,
    group_stats,
    log_doc_universe,
)
from .metrics import (
    KNOWN_METRICS,
    MetricConfig,
    check_scale,
    evaluate_run,
    resolve_metrics,
    sweep,
    sweep_cutoffs,
)
from .model import CoverageError, DecoyConfig, GradeBand, MinGradeGap, check_g_max
from .report import (
    FORMATS,
    check_serp_pairs,
    emit_comparison,
    emit_pairs,
    emit_records,
    emit_scores,
    emit_serp_pairs,
    emit_sweep,
    emit_thresholds,
)


class _Parser(argparse.ArgumentParser):
    # Every parser, subcommands included, shows its defaults in --help.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    # Usage errors are input errors: exit 1, reserving 2 for coverage gaps.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--qrels", required=True, metavar="PATH",
                   help="graded relevance judgments (topic iter doc grade)")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--vectors", metavar="PATH",
                     help="JSONL doc embeddings; similarity is cosine")
    src.add_argument("--pair-sims", metavar="PATH",
                     help="TSV precomputed similarities (topic doc_a doc_b sim)")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--run", required=True, metavar="PATH",
                   help="ranked run in TREC format")
    _add_source_flags(p)


def _add_band_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s-min", type=float, default=0.6, metavar="R",
                   help="similarity band lower bound (inclusive)")
    p.add_argument("--s-max", type=float, default=0.95, metavar="R",
                   help="similarity band upper bound (exclusive)")
    p.add_argument("--delta-rank", type=int, default=5, metavar="N",
                   help="max rank distance between target and decoy")
    quality = p.add_mutually_exclusive_group()
    quality.add_argument("--rel-band", default="2,1", metavar="T,D",
                         help="quality rule: target grade >= T and decoy grade <= D")
    quality.add_argument("--rel-gap", type=int, default=None, metavar="G",
                         help="quality rule: target grade - decoy grade >= G "
                              "(replaces --rel-band)")


def _add_metric_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--phi", type=float, default=0.8, metavar="R",
                   help="RBP persistence")
    p.add_argument("--alpha", type=float, default=0.5, metavar="R",
                   help="LC weight on the vulnerability side")
    _add_g_max_flag(p)


def _add_g_max_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g-max", type=int, default=3, metavar="N",
                   help="top relevance grade")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS, default="tsv",
                   help="table output format")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output file (standard output when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="decoyeval",
        description="Evaluate ranked retrieval for effectiveness and "
                    "decoy-effect vulnerability, and mine SERP logs for "
                    "decoy/control interactions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_eval = sub.add_parser(
        "eval", help="score a run per topic and on average")
    _add_run_flags(p_eval)
    p_eval.add_argument("--cutoffs", default="10,20", metavar="LIST",
                        help="comma-separated cutoffs")
    p_eval.add_argument("--metrics", default="dejavu,ndcg,recall", metavar="LIST",
                        help="comma-separated metrics from: " + ", ".join(KNOWN_METRICS)
                             + " (lc metrics may be spelled lc/ndcg)")
    _add_band_flags(p_eval)
    _add_metric_flags(p_eval)
    _add_output_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_decoys = sub.add_parser(
        "decoys", help="list detected decoy pairs")
    _add_run_flags(p_decoys)
    p_decoys.add_argument("--k", type=int, default=10, metavar="N",
                          help="ranking prefix to scan")
    p_decoys.add_argument("--no-dedup", action="store_true", default=False,
                          help="keep every decoy per target instead of the "
                               "single most similar one")
    _add_band_flags(p_decoys)
    _add_g_max_flag(p_decoys)
    _add_output_flags(p_decoys)
    p_decoys.set_defaults(func=cmd_decoys)

    p_sweep = sub.add_parser(
        "sweep", help="mean metrics across a range of cutoffs")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--k-start", type=int, default=10, metavar="N",
                         help="first cutoff")
    p_sweep.add_argument("--k-end", type=int, default=1000, metavar="N",
                         help="last cutoff (inclusive)")
    p_sweep.add_argument("--k-step", type=int, default=10, metavar="N",
                         help="cutoff increment")
    _add_band_flags(p_sweep)
    _add_g_max_flag(p_sweep)
    _add_output_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_mine = sub.add_parser(
        "mine", help="mine an interaction log for decoy/control records")
    p_mine.add_argument("--logs", required=True, metavar="PATH",
                        help="JSONL interaction log")
    _add_source_flags(p_mine)
    p_mine.add_argument("--s-max", type=float, default=0.95, metavar="R",
                        help="similarity band upper bound (inclusive here)")
    p_mine.add_argument("--rel-gap", type=int, default=2, metavar="G",
                        help="min target-minus-decoy grade gap")
    p_mine.add_argument("--delta-rank", type=int, default=5, metavar="N",
                        help="max rank distance between target and decoy")
    p_mine.add_argument("--s-min-pct", type=float, default=99.0, metavar="P",
                        help="percentile for the band lower bound")
    p_mine.add_argument("--s-control-pct", type=float, default=99.5, metavar="P",
                        help="percentile for the control-matching threshold")
    p_mine.add_argument("--rel-window", type=int, default=2, metavar="W",
                        help="max |grade(control) - grade(target)|")
    p_mine.add_argument("--top-n", type=int, default=10, metavar="N",
                        help="SERP prefix scanned for pairs and controls")
    p_mine.add_argument("--g-max", type=int, default=4, metavar="N",
                        help="top relevance grade in the qrels")
    p_mine.add_argument("--format", choices=FORMATS, default="tsv",
                        help="format for the pair table")
    p_mine.add_argument("--out", required=True, metavar="DIR",
                        help="output directory")
    p_mine.set_defaults(func=cmd_mine)

    return parser


def _parse_cutoffs(text: str) -> list[int]:
    try:
        cutoffs = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--cutoffs expects comma-separated integers, got {text!r}") from None
    if not cutoffs:
        raise ValueError("--cutoffs is empty")
    check_cutoff(min(cutoffs))
    return cutoffs


def _parse_metrics(text: str) -> tuple[str, ...]:
    return resolve_metrics(
        [part.strip().replace("/", "_") for part in text.split(",") if part.strip()])


def _quality_rule(args):
    if args.rel_gap is not None:
        return MinGradeGap(args.rel_gap)
    try:
        t, d = (int(part) for part in args.rel_band.split(","))
    except ValueError:
        raise ValueError(
            f"--rel-band expects two integers T,D, got {args.rel_band!r}"
        ) from None
    return GradeBand(target_min=t, decoy_max=d)


def _decoy_config(args) -> DecoyConfig:
    return DecoyConfig(s_min=args.s_min, s_max=args.s_max, quality=_quality_rule(args),
                       delta_rank=args.delta_rank, s_max_inclusive=False)


def _load_source(args):
    if args.vectors is not None:
        return ingest.parse_vectors(Path(args.vectors))
    return ingest.parse_pair_sims(Path(args.pair_sims))


def _read_inputs(args, whole, split=None):
    """A command's first input (its log or its run), qrels and similarity
    source, with the outputs, diagnostics and exit codes of reading them one
    after another here: a fault in the first input is named alone, and one
    in the qrels before one in the source.

    `whole()` reads the first input and alone names its faults; `split()`
    returns None on one. Where `split` is None, or no child can be made, the
    three are read in turn. Otherwise a forked child runs `split()` while
    this process reads the qrels and the source, holding back the warnings
    and fault of that read. The first input is then the child's value, or
    where that is None, `whole()`'s. Then the held warnings are shown and
    the held fault raised.
    """
    child = None if split is None else forking.Child.start(split)
    if child is None:
        return whole(), ingest.parse_qrels(Path(args.qrels), g_max=args.g_max), _load_source(args)
    held = []  # the qrels read's warnings, shown once the first input is valid
    ingest.logger.addFilter(held.append)
    try:
        qrels = ingest.parse_qrels(Path(args.qrels), g_max=args.g_max)
        source = _load_source(args)
    except Exception as exc:
        fault = exc
    except BaseException:
        child.kill()
        raise
    else:
        fault = None
    finally:
        ingest.logger.removeFilter(held.append)
    first = child.value()
    if first is None:
        first = whole()
    for record in held:
        ingest.logger.handle(record)
    if fault is not None:
        raise fault
    return first, qrels, source


def _halves(read, join, path: Path, cut: int):
    """The input at `path` as its child reads it: bytes [cut, end) by
    `read(path, cut)` in a child of its own while this process reads
    [0, cut) by `read(path, 0, cut)`, then the two parts joined by
    `join(front, back)`. None where the front part is None (the back part's
    child is then stopped, unread) or the join is None. Read whole by
    `read(path)` where `cut` is 0 or no child can be made."""
    back = forking.Child.start(lambda: read(path, cut)) if cut else None
    if back is None:
        return read(path)
    front = None
    try:
        front = read(path, 0, cut)
    finally:
        if front is None:  # the back part is of no use
            back.kill()
    return None if front is None else join(front, back.value())


def _load_run_inputs(args):
    """The run, qrels and similarity source of `eval`, `decoys` and `sweep`,
    read by `_read_inputs`. Where a child is wanted (`forking.child_wanted`)
    and the run has a cut (`ingest.run_cut`, so not for a pipe), a forked
    child reads the run in two parts at once (`_halves`)."""
    run_path = Path(args.run)
    cut = ingest.run_cut(run_path) if forking.child_wanted() else None
    return _read_inputs(
        args, lambda: ingest.parse_run(run_path),
        None if cut is None else lambda: _halves(ingest.read_run_part, ingest.joined_run,
                                                 run_path, cut))


def cmd_eval(args) -> int:
    cutoffs = _parse_cutoffs(args.cutoffs)
    metrics = _parse_metrics(args.metrics)
    check_scale(args.g_max)
    cfg = MetricConfig(phi=args.phi, alpha=args.alpha)
    decoy_cfg = _decoy_config(args)
    run, qrels, source = _load_run_inputs(args)
    evaluations = evaluate_run(run, qrels, source, decoy_cfg, cfg, metrics, cutoffs)
    emit_scores(evaluations, args.format, args.out)
    return 0


def cmd_decoys(args) -> int:
    cfg = _decoy_config(args)
    check_cutoff(args.k)
    check_g_max(args.g_max)
    run, qrels, source = _load_run_inputs(args)
    pairs = [
        pair
        for topic_id, ranking in sorted(run.rankings.items())
        for pair in detect_decoy_pairs_at_k(
            topic_id, ranking, qrels.grades_for(topic_id), source.topic_view(topic_id),
            cfg, args.k, dedup=not args.no_dedup,
        )
    ]
    emit_pairs(pairs, args.format, args.out)
    return 0


def cmd_sweep(args) -> int:
    check_scale(args.g_max)
    decoy_cfg = _decoy_config(args)
    sweep_cutoffs(args.k_start, args.k_end, args.k_step)
    run, qrels, source = _load_run_inputs(args)
    rows = sweep(run, qrels, source, decoy_cfg, MetricConfig(), args.k_start, args.k_end,
                 args.k_step)
    emit_sweep(rows, args.format, args.out)
    return 0


def _check_mine_flags(args) -> DecoyConfig:
    """Reject bad `mine` flags before any input is read. Returns the
    detection config, whose s_min the derived thresholds replace."""
    if args.top_n < 1:
        raise ValueError(f"--top-n must be at least 1, got {args.top_n}")
    if not 0.0 < args.s_max <= 1.0:
        raise ValueError(f"--s-max must lie in (0, 1], got {args.s_max}")
    check_percentiles(args.s_min_pct, args.s_control_pct)
    if args.rel_window < 0:
        raise ValueError(f"relevance window must be >= 0, got {args.rel_window}")
    check_g_max(args.g_max)
    return DecoyConfig(s_min=0.0, s_max=args.s_max, quality=MinGradeGap(args.rel_gap),
                       delta_rank=args.delta_rank, s_max_inclusive=True)


def cmd_mine(args) -> int:
    """Mine an interaction log for decoy/control records into `args.out`.

    The log, qrels and similarity source are read by `_read_inputs`, as a
    run is (`_load_run_inputs`), with the log's cut (`ingest.log_cut`)."""
    cfg = _check_mine_flags(args)
    log_path = Path(args.logs)
    cut = ingest.log_cut(log_path) if forking.child_wanted() else None
    log, qrels, source = _read_inputs(
        args, lambda: ingest.parse_interaction_log(log_path),
        None if cut is None else lambda: _halves(ingest.read_interaction_log, ingest.joined_log,
                                                 log_path, cut))

    universe = log_doc_universe(log)
    thresholds = None
    pair_records: list = []
    targets: set[str] = set()
    controls: set[str] = set()
    matched: set[str] = set()
    if any(len(docs) >= 2 for docs in universe.values()):
        thresholds = derive_thresholds(universe, source, args.s_min_pct, args.s_control_pct)
        if not 0.0 <= thresholds.s_min < args.s_max:
            raise ValueError(f"derived s_min {thresholds.s_min} (--s-min-pct {args.s_min_pct} "
                             f"of {thresholds.pair_count} pooled pair similarities) "
                             f"must lie in [0, --s-max {args.s_max})")
        cfg = replace(cfg, s_min=thresholds.s_min)
        pair_records, targets = identify_targets(log, qrels, source, cfg, top_n=args.top_n)
        controls, matched = identify_controls(
            universe, qrels, targets, source, thresholds.s_control,
            rel_window=args.rel_window,
        )
    records = extract_records(log, pair_records, matched, controls, top_n=args.top_n)

    check_serp_pairs(pair_records, args.format)
    # Made only once every check has passed, so a failed run leaves none.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_thresholds(thresholds, out_dir / "thresholds.json")
    emit_serp_pairs(pair_records, args.format, out_dir / f"decoy_pairs.{args.format}")
    for name, docs in (("targets", targets),
                       ("controls", controls),
                       ("targets_matched", matched)):
        with open(out_dir / f"{name}.txt", "w", encoding="utf-8") as fh:
            for doc_id in sorted(docs):
                fh.write(doc_id + "\n")
    # Records stay jsonl regardless of --format so they re-parse losslessly.
    emit_records(records, out_dir / "records.jsonl")
    emit_comparison(group_stats(records), out_dir / "group_stats.json")
    return 0


@contextmanager
def _cyclic_gc_paused():
    """Pause CPython's cyclic collector, then restore the caller's setting.

    The commands build large object graphs (parsed runs and logs, pair
    stores) without reference cycles, so reference counting alone frees
    them, and each full collection would rescan them all for nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def main(argv=None) -> int:
    with _cyclic_gc_paused():
        return _run(argv)


def _run(argv) -> int:
    parser = build_parser()
    try:
        # argparse exits itself on usage errors and --help; fold that into
        # the return-code contract so embedders never see SystemExit.
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)
    except ingest.ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except CoverageError as exc:
        print(f"similarity coverage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
