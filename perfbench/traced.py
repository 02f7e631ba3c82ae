"""Traced child: the decoyeval CLI with a span around each library call.

Usage: python3 perfbench/traced.py TRACE_JSON RUN_ID CLI_ARG...

Imports `decoyeval.cli`, replaces the `ingest.parse_*` functions and every
library function `decoyeval.cli` imports by name with wrappers that record a
span around each call, then runs `decoyeval.cli.main(CLI_ARG...)`. So the CLI's
own code path runs, with its own defaults, and writes its usual outputs.
Those spans sit under a root span named `cli`.

Passes the CLI does not make run afterwards under a root span named `probe`,
on the objects the CLI's calls built: for `eval`, a deduplicated detection
pass at the deepest cutoff and the `sweep` kernel; for `mine`, one
`topic_sim_matrix` per topic of the log. Similarity lookups are counted in a
separate pass under `trace.count`, through a wrapper of the similarity
source, so no timed layer span pays for the counting.

A span name is `layer.function` (every `report.emit_*` is `report.emit`);
the layer is the library module the call enters. TRACE_JSON gets the spans,
the counts and any failed check. The exit code is the CLI's.
"""

# Only modules the interpreter has loaded at start-up are imported before
# `decoyeval.cli`, so the cli.import span sees the same import work as the CLI.
import sys
import time

SWEEP_STEP = 10  # the sweep grid k_min, k_min + 10, ... holds every eval cutoff


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, run id]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.problems: list[str] = []
        self.calls: dict[str, tuple[dict, object]] = {}  # last call: (arguments, result)
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, fn):
        """`fn` with a span around each call; the call's bound arguments and
        result are kept for the probe passes."""
        import inspect

        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{'emit' if fn.__name__.startswith('emit_') else fn.__name__}"
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if layer == "ingest":
                self.counts["ingest.peak_rss_mb"] = peak_rss_mb()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.calls[fn.__name__] = (bound.arguments, result)
            return result

        return traced


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.run_id])
        tr._open.append(self.index)

    def __exit__(self, *exc):
        tr = self.tracer
        tr._open.pop()
        tr.spans[self.index][2] = time.perf_counter()


class CountingSource:
    """Hands out topic views of a similarity source that count sim() calls."""

    def __init__(self, source):
        self._source = source
        self.lookups = 0

    def topic_view(self, topic_id: str) -> "_CountingView":
        return _CountingView(self, self._source.topic_view(topic_id))


class _CountingView:
    def __init__(self, owner: CountingSource, view):
        self._owner, self._view = owner, view

    def sim(self, doc_a: str, doc_b: str) -> float:
        self._owner.lookups += 1
        return self._view.sim(doc_a, doc_b)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def instrument(tr: Tracer) -> None:
    import inspect

    from decoyeval import cli, ingest

    for module, names in (
        (ingest, [n for n in vars(ingest) if n.startswith("parse_")]),
        (cli, [n for n, f in vars(cli).items() if inspect.isfunction(f)
               and f.__module__.startswith("decoyeval.") and f.__module__ != cli.__name__]),
    ):
        for name in names:
            setattr(module, name, tr.wrap(getattr(module, name)))


def probe_eval(tr: Tracer) -> None:
    from decoyeval.decoy import detect_decoy_pairs_at_k
    from decoyeval.metrics import sweep

    args, evaluations = tr.calls["evaluate_run"]
    run, qrels, source, decoy_cfg = args["run"], args["qrels"], args["source"], args["decoy_cfg"]
    k_min, k_max = min(args["cutoffs"]), max(args["cutoffs"])
    topics = [t for t in sorted(qrels.judgments) if run.rankings.get(t)]

    def detect(src) -> int:
        return sum(len(detect_decoy_pairs_at_k(t, run.rankings[t], qrels.grades_for(t),
                                               src.topic_view(t), decoy_cfg, k_max))
                   for t in topics)

    with tr.span("decoy.detect"):
        detect(source)
    counted = CountingSource(source)
    with tr.span("trace.count"):
        tr.counts["decoy.pairs"] = detect(counted)
    tr.counts["decoy.sim_lookups"] = counted.lookups
    with tr.span("metrics.sweep"):
        rows = sweep(run, qrels, source, decoy_cfg, args["cfg"], k_min, k_max, SWEEP_STEP)

    for lo, hi in zip(rows, rows[1:]):
        if hi.recall < lo.recall:
            tr.problems.append(f"sweep recall falls from {lo.recall!r} at k={lo.k} "
                               f"to {hi.recall!r} at k={hi.k}")
    # The sweep promises the same means as evaluate_run at each cutoff.
    by_k = {row.k: row for row in rows}
    for ev in evaluations:
        if ev.k not in (10, 100):
            continue
        for name in ("dejavu", "ndcg", "recall"):
            swept, evaluated = getattr(by_k[ev.k], name), ev.mean.scores[name]
            if swept != evaluated:
                tr.problems.append(f"sweep {name}@{ev.k}={swept!r} != evaluate_run {evaluated!r}")


def probe_mine(tr: Tracer) -> None:
    from decoyeval.decoy import identify_targets
    from decoyeval.simsig import topic_sim_matrix

    args, (pair_records, _) = tr.calls["identify_targets"]
    tr.counts["decoy.pairs"] = len(pair_records)
    tr.counts["logmine.records"] = len(tr.calls["extract_records"][1])
    counted = CountingSource(args["source"])
    with tr.span("trace.count"):
        identify_targets(args["log"], args["qrels"], counted, args["cfg"], top_n=args["top_n"])
    tr.counts["decoy.sim_lookups"] = counted.lookups
    with tr.span("simsig.topic_sim_matrix"):
        for topic_id, docs in tr.calls["log_doc_universe"][1].items():
            topic_sim_matrix(args["source"], docs, topic_id)


PROBES = {"eval": probe_eval, "mine": probe_mine}


def main(argv: list[str]) -> int:
    trace_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tr = Tracer(run_id)
    with tr.span("cli"):
        with tr.span("cli.import"):
            import decoyeval.cli
        instrument(tr)
        code = decoyeval.cli.main(cli_args)
    sys.stdout.flush()
    if code != 0:
        return code
    with tr.span("probe"):
        PROBES[cli_args[0]](tr)
    # The wrappers outlive main(); drop the CLI's objects now, as the CLI does
    # on return, rather than in the interpreter's much slower teardown.
    tr.calls.clear()
    import json

    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tr.spans, "counts": tr.counts, "problems": tr.problems}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
