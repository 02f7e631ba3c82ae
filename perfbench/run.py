"""Benchmark of the decoyeval CLI on seeded, generated workloads.

Run from the repository root:

    python3 perfbench/run.py --workload deep-eval --seed 1 --seconds 54 --trace 0

Workloads (see workloads.py): deep-eval, mine-log. Inputs are
generated from --seed and cached under .bench_cache/ by (workload, seed);
generation time is in no metric.

--trace 0 runs the CLI (`python3 -m decoyeval.cli`, default flags) as a child
process in a closed loop with one client for --seconds, checks every output
and reports the end-to-end metrics, each the median over the invocations:
wall_s (spawn to exit), cpu_s (user + system of that child), peak_rss_mb
(ru_maxrss of that child) and setup_s (a child that only imports
decoyeval.cli, median of several). The times are in reference seconds, one
being the time of a fixed task (reference.py, about 1 s on an idle core). It
runs before and after every CLI child, and each time is divided by the
reference's own time around it, so the host's slow and fast phases cancel.
The text summary also prints the raw seconds.

--trace 1 runs one untraced CLI child, then traced children (traced.py) for
--seconds, and reports the per-layer metrics. The spans, per-layer self
times and a machine record go to .bench_cache/trace/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when the benchmark ran,
whatever the checks found.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, PINNED_DIGESTS, WORKLOADS, count_lines, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
KEEP_INPUTS = 3        # cached input sets kept per workload
SETUP_SAMPLES = 5      # import-only children per run for setup_s
CHILD_TIMEOUT_S = 75   # a child still running after this is killed and failed

LAYERS = ("ingest", "decoy", "metrics", "simsig", "logmine", "report", "cli")
SPAN_METRICS = (
    "ingest.parse_run", "ingest.parse_qrels", "ingest.parse_pair_sims",
    "ingest.parse_interaction_log", "decoy.detect", "decoy.identify_targets",
    "decoy.identify_controls", "metrics.evaluate_run", "metrics.sweep",
    "simsig.topic_sim_matrix", "logmine.derive_thresholds", "logmine.extract_records",
    "logmine.group_stats", "report.emit", "cli.import",
)
EXACT_UNITS = ("count", "bytes")  # such metrics repeat exactly for one seed


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for `kind`."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], out_dir: Path) -> Child:
    """Run one child to completion; its rusage comes from os.wait4 on its pid,
    so each child is measured alone."""
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def prepare_inputs(name: str, seed: int) -> tuple[Path, dict]:
    """Generate the inputs once per (workload, seed) and reuse them."""
    inputs = CACHE / "inputs" / f"{name}-s{seed}"
    meta_path = inputs / "meta.json"
    if not meta_path.exists():
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        meta = WORKLOADS[name].generate(inputs, seed)
        meta["lines"] = sum(count_lines(inputs / f) for f in meta["inputs"])
        meta_path.write_text(json.dumps(meta))  # written last: marks the set complete
        others = sorted((p for p in inputs.parent.glob(f"{name}-s*") if p != inputs),
                        key=lambda p: p.stat().st_mtime)
        for stale in others[:max(0, len(others) - (KEEP_INPUTS - 1))]:
            shutil.rmtree(stale, ignore_errors=True)
    return inputs, json.loads(meta_path.read_text())


def output_digest(name: str, out: Path) -> str | None:
    """sha256 of a child's outputs, or None when one is missing."""
    try:
        return digest(WORKLOADS[name].outputs(out))
    except OSError:
        return None


def check_outputs(name: str, child_code: int, out: Path, meta: dict, pinned: str | None) -> list[str]:
    if child_code != 0:
        err = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()
        return [f"exit code {child_code}: {err[-1] if err else ''}"]
    try:
        problems = WORKLOADS[name].check(out, meta)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
    found = output_digest(name, out)
    if found is None:
        problems.append("an output file is missing")
    elif pinned is not None and found != pinned:
        problems.append("output digest differs from the pinned digest")
    return problems


class Run:
    """One benchmark invocation: inputs, a scratch directory and a tally."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.inputs, self.meta = prepare_inputs(name, seed)
        self.pinned = PINNED_DIGESTS[name] if seed == DEFAULT_SEED else None
        self.work = CACHE / "work" / f"{name}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.problems: list[str] = []

    def out_dir(self, tag: str) -> Path:
        out = self.work / tag
        out.mkdir()
        return out

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append("; ".join(problems))

    def cli(self, tag: str) -> tuple[Child, Path]:
        out = self.out_dir(tag)
        argv = [sys.executable, "-m", "decoyeval.cli", *WORKLOADS[self.name].argv(self.inputs, out)]
        child = spawn(argv, out)
        self.record(check_outputs(self.name, child.code, out, self.meta, self.pinned))
        return child, out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def measure_setup(run: Run) -> list[float]:
    argv = [sys.executable, "-c", "import decoyeval.cli"]
    walls = []
    for i in range(SETUP_SAMPLES + 1):  # the first one warms the bytecode cache
        child = spawn(argv, run.out_dir(f"setup{i}"))
        if child.code != 0:
            run.record([f"import-only child exited {child.code}"])
        if i:
            walls.append(child.wall_s)
    return walls


def reference(run: Run, tag: str) -> Child:
    child = spawn([sys.executable, str(Path(__file__).parent / "reference.py")], run.out_dir(tag))
    if child.code != 0:
        raise RuntimeError(f"the reference task exited {child.code}")
    return child


def closed_loop(run: Run, seconds: float) -> tuple[list[Child], list[Child]]:
    """CLI children one after another, with the reference task before the
    first and after each; the next CLI child starts only if it is expected to
    finish within the time left, and at least one always runs. Returns the
    CLI children and the len + 1 reference runs around them."""
    done, refs = [], [reference(run, "ref0")]
    start = time.perf_counter()
    while True:
        done.append(run.cli(f"cli{len(done)}")[0])
        refs.append(reference(run, f"ref{len(refs)}"))
        elapsed = time.perf_counter() - start
        step = statistics.median(c.wall_s for c in done) + statistics.median(r.wall_s for r in refs)
        if elapsed + step > seconds:
            return done, refs


def end_to_end(run: Run, seconds: float) -> dict:
    setup_refs = [reference(run, "setup-ref0")]
    setup = measure_setup(run)
    setup_refs.append(reference(run, "setup-ref1"))
    children, refs = closed_loop(run, seconds)
    # Each CLI child against the mean of the reference runs just around it.
    ref_wall = [(a.wall_s + b.wall_s) / 2 for a, b in zip(refs, refs[1:])]
    ref_cpu = [(a.cpu_s + b.cpu_s) / 2 for a, b in zip(refs, refs[1:])]
    setup_ref_wall = statistics.mean(r.wall_s for r in setup_refs)
    raw = {
        "wall_s": [c.wall_s for c in children],
        "cpu_s": [c.cpu_s for c in children],
        "peak_rss_mb": [c.peak_rss_mb for c in children],
        "setup_s": setup,
    }
    samples = {
        "wall_s": [c.wall_s / r for c, r in zip(children, ref_wall)],
        "cpu_s": [c.cpu_s / r for c, r in zip(children, ref_cpu)],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": [s / setup_ref_wall for s in setup],
    }
    print(f"{run.name:10s} reference    {statistics.median(r.wall_s for r in refs):10.4f} s     "
          f"raw median of {len(refs)}: {' '.join(f'{r.wall_s:.4f}' for r in refs)}")
    metrics = {}
    for key, unit in declared_metrics("end_to_end").items():
        metrics[key] = {"value": statistics.median(samples[key]), "unit": unit}
        print(f"{run.name:10s} {key:12s} {metrics[key]['value']:10.4f} {unit:5s} "
              f"median of {len(samples[key])}: {' '.join(f'{v:.4f}' for v in samples[key])}"
              f"; raw median {statistics.median(raw[key]):.4f}")
    return metrics


def self_times(spans: list[list]) -> dict[str, float]:
    """Per layer, span time not covered by its child spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _, _), inner in zip(spans, covered):
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + (end - start) - inner
    return totals


def layer_metrics(trace: dict, child: Child, untraced_wall: float, meta: dict,
                  reports: list[Path]) -> dict[str, float]:
    spans = trace["spans"]

    def total(name: str) -> float:
        return sum(end - start for n, start, end, _, _ in spans if n == name)

    values = {f"{name}_s": total(name) for name in SPAN_METRICS}
    counts = trace["counts"]
    values["ingest.peak_rss_mb"] = counts["ingest.peak_rss_mb"]
    values["ingest.lines"] = meta["lines"]
    ingest_s = sum(values[f"{n}_s"] for n in SPAN_METRICS if n.startswith("ingest."))
    values["ingest.lines_per_s"] = meta["lines"] / ingest_s
    lookups, pairs = counts["decoy.sim_lookups"], counts["decoy.pairs"]
    values["decoy.sim_lookups"] = lookups
    values["decoy.pairs"] = pairs
    values["decoy.pairs_per_lookup"] = pairs / lookups if lookups else 0.0
    evaluate_s = values["metrics.evaluate_run_s"]
    values["metrics.topics_per_s"] = meta["topics"] / evaluate_s if evaluate_s else 0.0
    values["logmine.records"] = counts.get("logmine.records", 0)
    values["report.bytes"] = sum(path.stat().st_size for path in reports)
    layer_self = self_times(spans)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    roots = sum(end - start for _, start, end, parent, _ in spans if parent is None)
    values["cli.uncovered_s"] = child.wall_s - roots
    values["trace.overhead_s"] = child.wall_s - total("probe") - untraced_wall
    return values


def traced(run: Run, seconds: float) -> dict:
    start = time.perf_counter()
    untraced, untraced_out = run.cli("untraced")
    reference = output_digest(run.name, untraced_out)
    wl = WORKLOADS[run.name]
    per_run: list[dict[str, float]] = []
    traces = []
    while True:
        run_id = f"{run.name}-s{run.seed}-r{len(per_run)}"
        out = run.out_dir(f"traced{len(per_run)}")
        argv = [sys.executable, str(Path(__file__).parent / "traced.py"),
                str(out / "trace.json"), run_id, *wl.argv(run.inputs, out)]
        child = spawn(argv, out)
        problems = check_outputs(run.name, child.code, out, run.meta, run.pinned)
        if child.code == 0:
            if reference is not None and output_digest(run.name, out) != reference:
                problems.append("traced outputs differ from the CLI's")
            try:
                trace = json.loads((out / "trace.json").read_text())
                values = layer_metrics(trace, child, untraced.wall_s, run.meta, wl.reports(out))
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable trace: {exc!r}")
            else:
                problems += trace["problems"]
                traces.append(trace)
                per_run.append(values)
        run.record(problems)
        elapsed = time.perf_counter() - start
        if not per_run or elapsed + child.wall_s > seconds:
            break
    if not per_run:
        return {}
    metrics = {}
    for key, unit in declared_metrics("per_layer").items():
        values = [v[key] for v in per_run]
        if unit in EXACT_UNITS and len(set(values)) > 1:
            run.record([f"{key} differs across traced runs: {values}"])
        metrics[key] = {"value": statistics.median(values), "unit": unit}
        print(f"{run.name:10s} {key:32s} {metrics[key]['value']:14.6g} {unit:5s} "
              f"median of {len(per_run)}")
    trace_dir = CACHE / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    with open(trace_dir / f"{run.name}-s{run.seed}.json", "w") as fh:
        json.dump({"machine": machine(), "untraced_wall_s": untraced.wall_s,
                   "metrics": metrics, "runs": traces}, fh)
    return metrics


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=54.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # runs the cleanup below
    if not (SRC / "decoyeval" / "cli.py").is_file():
        print(f"error: no decoyeval sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    try:
        print(f"machine {json.dumps(machine())}")
        metrics = traced(run, args.seconds) if args.trace else end_to_end(run, args.seconds)
    finally:
        run.close()
    for problem in run.problems:
        print(f"FAILED: {problem}")
    failed = len(run.problems)
    print(f"{run.name:10s} failed_frac  {failed / max(1, run.attempted):10.4f} 1     "
          f"{failed} of {run.attempted} invocations")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
