"""galois-kit benchmark runner (standard library only).

Run from the repository root:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seeds 1,2,3 --out runs.jsonl
    python3 perfbench/run.py --compare base.jsonl new.jsonl

A single run imports ``galois_kit`` from ``./src``, builds the
workload's inputs from the seed, answers batches of queries until
``--seconds`` have passed, checks every answer outside the timed
intervals and prints each metric with its unit.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` answers each batch untraced and again with the
per-module tracer installed (the two taking turns to go first), and
reports the per-layer metrics and the tracing overhead.  The exit code
is 0 when every answer is right, 1 when some answer is wrong, and 2 when
the sources are missing.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed once before the first batch and again after each of
# the first batches, so that its median spans the run rather than one
# moment of the machine's load; at least SETUP_MIN samples are taken.
SETUP_MIN, SETUP_MAX = 5, 9

# Machine-wide slowdowns on a shared host (up to 1.5x, lasting tens of
# seconds to minutes) move every wall and CPU time of a run together.
# Times are therefore also reported in units of a fixed reference
# routine timed next to the queries, which cancels most of that drift.
REFERENCE_EVERY_S = 0.2


def _import_library(src):
    """Import galois_kit afresh from src (dropping any earlier import)."""
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "galois_kit" or n.startswith("galois_kit.")]:
        del sys.modules[name]
    gk = importlib.import_module("galois_kit")
    importlib.import_module("galois_kit.cli")
    if not os.path.abspath(gk.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"galois_kit was imported from {gk.__file__}, not {src}")
    return gk


def _setup(name, seed, src, workdir):
    """Import plus input generation up to the first batch, timed."""
    gc.collect()
    start = time.perf_counter()
    gk = _import_library(src)
    next_batch = workloads.make_workload(name, gk, seed, workdir)
    first = next_batch(0)
    return gk, next_batch, first, time.perf_counter() - start


def reference():
    """Fixed pure-Python work that does not use the library."""
    counts = {}
    for i in range(30000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def _time_reference():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Timing:
    """One answered batch: per-query latencies in seconds and in
    reference units, CPU time, reference times and results."""

    def __init__(self):
        self.latencies, self.relative, self.refs, self.results = [], [], [], []
        self.cpu = 0.0

    @property
    def wall(self):
        return sum(self.latencies)

    @property
    def wall_ref(self):
        return sum(self.relative)


def _time_batch(batch, tracer=None):
    """Answer every query of the batch.

    The reference routine is timed before the batch, after it, and
    between queries once REFERENCE_EVERY_S has passed.  A query's latency
    in reference units divides it by the mean of the reference times
    taken just before and just after it.
    """
    timing, ref_before = Timing(), []
    gc.collect()
    timing.refs.append(_time_reference())
    last_ref = time.perf_counter()
    for query in batch:
        if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
            timing.refs.append(_time_reference())
            last_ref = time.perf_counter()
        ref_before.append(len(timing.refs) - 1)
        if tracer is not None:
            tracer.tag = query.kind
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            result = query.run()
        except Exception as exc:  # a refusal or crash is a failed query
            result = exc
        timing.latencies.append(time.perf_counter() - start)
        timing.cpu += time.process_time() - cpu_start
        timing.results.append(result)
        if query.then is not None and not isinstance(result, Exception):
            query.then(result)
    timing.refs.append(_time_reference())
    refs = timing.refs
    timing.relative = [lat * 2 / (refs[k] + refs[k + 1])
                       for lat, k in zip(timing.latencies, ref_before)]
    return timing


def _check_batch(batch, results):
    """Messages for the wrong answers of one batch."""
    errors = []
    for query, result in zip(batch, results):
        if isinstance(result, Exception):
            errors.append(f"{query.kind}: raised {type(result).__name__}: {result}")
            continue
        try:
            message = query.check(result)
        except Exception as exc:  # the checker itself could not confirm the answer
            message = f"checker raised {type(exc).__name__}: {exc}"
        if message:
            errors.append(f"{query.kind}: {message}")
    return errors


def _traced_batch(batch, tracer, errors):
    """Answer the batch with the tracer installed; returns its time in
    reference units."""
    tracer.install()
    try:
        timing = _time_batch(batch, tracer)
    finally:
        tracer.uninstall()
    errors += _check_batch(batch, timing.results)
    return timing.wall_ref


def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def run_workload(name, seed, seconds, trace, root):
    src = os.path.join(root, "src")
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        _, next_batch, batch, setup_time = _setup(name, seed, src, workdir)
        setup_times = [setup_time]
        tracer = tracing.Tracer() if trace else None
        timings, overheads = [], []
        attempted, errors = 0, []
        by_kind = {}  # query kind -> latencies in seconds
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            if index:
                batch = next_batch(index)
            # Trace mode answers each batch untraced and traced, in turns
            # first, so the cost of first touching fresh entities does not
            # always fall on the same side of the overhead.
            traced_first = tracer is not None and index % 2 == 1
            if traced_first:
                traced = _traced_batch(batch, tracer, errors)
            timing = _time_batch(batch)
            errors += _check_batch(batch, timing.results)
            attempted += len(batch)
            timings.append(timing)
            for query, seconds_taken in zip(batch, timing.latencies):
                by_kind.setdefault(query.kind, []).append(seconds_taken)
            if tracer is not None:
                if not traced_first:
                    traced = _traced_batch(batch, tracer, errors)
                attempted += len(batch)
                overheads.append(traced - timing.wall_ref)
            index += 1
            if tracer is None and len(setup_times) < SETUP_MAX:
                # a repeat whose inputs are discarded; the run keeps its first ones
                setup_times.append(_setup(name, seed, src, workdir)[3])
            if time.perf_counter() >= deadline:
                break
        while tracer is None and len(setup_times) < SETUP_MIN:
            setup_times.append(_setup(name, seed, src, workdir)[3])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [x for t in timings for x in t.latencies]
    relative = [x for t in timings for x in t.relative]
    for message in errors[:20]:
        print(f"WRONG {message}")
    report = {"correct": not errors, "attempted": attempted, "failed": len(errors)}
    print(f"workload: {name}  seed: {seed}  batches: {index}  queries: {len(latencies)}"
          f"  failed_ratio: {len(errors) / attempted:.6g} ({len(errors)}/{attempted})")
    for kind, lat in sorted(by_kind.items()):
        print(f"  {kind:<34} {len(lat):5d} queries  p50 {statistics.median(lat) * 1000:9.3f} ms"
              f"  max {max(lat) * 1000:9.3f} ms  sum {sum(lat):8.3f} s")
    refs = [r for t in timings for r in t.refs]
    print(f"in seconds (median of {index} batches, {len(latencies)} queries):"
          f" wall_s {statistics.median(t.wall for t in timings):.6g}"
          f"  cpu_s {statistics.median(t.cpu for t in timings):.6g}"
          f"  query_p50_ms {statistics.median(latencies) * 1000:.6g}"
          f"  query_p90_ms {_p90(latencies) * 1000:.6g}"
          f"  reference_ms {statistics.median(refs) * 1000:.6g} ({len(refs)} timings)")
    if tracer is None:
        metrics = {
            "wall_ref": (statistics.median(t.wall_ref for t in timings), "ref"),
            "query_p50_ref": (statistics.median(relative), "ref"),
            "query_p90_ref": (_p90(relative), "ref"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {
            "wall_ref": f"median of {index} batches",
            "query_p50_ref": f"{len(relative)} queries",
            "query_p90_ref": f"{len(relative)} queries",
            "setup_s": f"median of {len(setup_times)} set-ups across the run",
            "peak_rss_mb": "whole process",
        }
    else:
        metrics, notes = {}, {}
        for metric, (unit, compute) in tracing.PER_LAYER.items():
            value = compute(tracer)
            metrics[metric] = (value if unit == "ratio" else value / index, unit)
            notes[metric] = "over all traced batches" if unit == "ratio" else "per batch"
        metrics["trace_overhead_ref"] = (statistics.median(overheads), "ref")
        notes["trace_overhead_ref"] = f"traced minus untraced wall_ref, median of {index} batches"
        print("spans (name <- parent): calls, total s, self s, work count; all batches")
        for row in tracer.table():
            print("  %-44s %8d %10.4f %10.4f %10d" % (
                f"{row[0]} <- {row[1] or '-'}", row[2], row[3], row[4], row[5]))
    for metric, (value, unit) in metrics.items():
        print(f"{metric}: {value:.6g} {unit}  ({notes[metric]})")
    report["metrics"] = {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}
    return report


def run_all(args):
    """Each workload and seed in its own process, one after another."""
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    code = 0
    for name in names:
        for seed in seeds:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                code = 1
                continue
            record = json.loads(lines[-1])
            if not record["correct"]:
                code = 1
            if args.out:
                record.update(workload=name, seed=seed, trace=args.trace)
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", help="comma list of seeds, with --out or 'all'")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append one JSON line per run to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two result files written with --out")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("give --workload or --compare")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "galois_kit", "__init__.py")):
        print("perfbench: ./src/galois_kit not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all" or args.seeds or args.out:
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, args.trace, root)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
