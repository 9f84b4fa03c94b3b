"""The repository's benchmark: served, streaming and durable paths.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload served-sql --seed 1 --seconds 10 --trace 0

Workloads (the names and one-line reasons live in ``BENCHMARK.json``):

* ``served-sql``    -- two sessions send SQL over the server's loopback
  transport (:mod:`perfbench.served_sql`);
* ``stream-ingest`` -- expiring-stream ingest with standing queries
  (:mod:`perfbench.stream_ingest`);
* ``authz-durable`` -- expiring authorization on a write-ahead-logged
  database, ending in compaction and crash recovery
  (:mod:`perfbench.authz_durable`).

A *round* is one workload's fixed amount of work, generated from the seed:
set-up, timed operations, untimed correctness checkpoints and a
durability epilogue.  A faster build does the same work in less time; it
never does more.  ``--seconds`` bounds how long rounds are repeated (at
least ``MIN_ROUNDS``); end-to-end figures are medians over rounds, or
percentiles over the pooled samples, and every round must reproduce the
first round's program counters exactly.

Every time is scaled to a reference host speed: rounds time a fixed
calibration kernel at their untimed points, and each timing is divided by
the host slowdown measured around it (:func:`perfbench.common.calibration_s`;
the report lists the slowdowns applied).  On the host the benchmark was
built on, speed shifts by up to 1.7x for seconds at a time, and unscaled
figures spread across runs by more than any useful bound.

``--trace 0`` prints the end-to-end metrics and installs no wrapper.
``--trace 1`` runs every workload once untraced and once traced, wrapping
each layer's entry points (:mod:`perfbench.tracing`), and prints the
per-layer metrics, named ``<workload>.<layer metric>``, together with the
traced and untraced operations per second (the tracing overhead).

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Lines before it give the fingerprint (commit or source digest, Python,
numpy, ``nproc``, WAL fsync policy, seed), every figure with its unit and
sample count, and the error rate.  Any wrong answer fails the run: the
object says ``"correct": false`` and the exit code is 1.  Run from a
directory without the program's source, it exits 2 and prints no result.

The interpreter re-executes itself once with ``PYTHONHASHSEED=0``: the
partitioned tables shard on ``hash()`` of string keys, and the shard
layout must not vary between processes for counters to repeat.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src", "repro")

#: Rounds per untraced run, at least (``setup_s`` is a median over them).
MIN_ROUNDS = 3
#: Safety stop for very fast machines; rounds repeat identical work.
MAX_ROUNDS = 40


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workloads():
    from perfbench import authz_durable, served_sql, stream_ingest

    return {
        module.NAME: module
        for module in (served_sql, stream_ingest, authz_durable)
    }


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- fingerprint ----------------------------------------------------------


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        toplevel, commit = out.stdout.split()
        if os.path.realpath(toplevel) == os.path.realpath(ROOT):
            return commit
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    # Checkouts without git history: a digest of the program source.
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SOURCE):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def _fingerprint(seed: int) -> dict:
    from repro.core.columnar import resolve_backend
    from repro.engine.config import DatabaseConfig

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_NUMPY": os.environ.get("REPRO_NUMPY", ""),
        "columnar_backend": resolve_backend(None),
        "nproc": os.cpu_count(),
        "wal_fsync": DatabaseConfig().wal_fsync,
        "seed": seed,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


# -- running ----------------------------------------------------------------


def _run_round(module, seed, recorder=None):
    """One round; an exception inside it is a failed round, not a crash.

    The round's latency samples are kept packed, so that the memory the
    benchmark holds for earlier rounds barely moves a later round's peak.
    """
    from perfbench.common import Round, reset_rss_peak, rss_peak_mb

    try:
        reset_rss_peak()
        if recorder is None:
            rnd = module.run(seed)
        else:
            recorder.install()
            try:
                rnd = module.run(seed, recorder)
            finally:
                recorder.uninstall()
        rnd.rss_peak_mb = rss_peak_mb()
        rnd.reads = array("d", rnd.reads)
        rnd.writes = array("d", rnd.writes)
        return rnd
    except Exception as error:  # reported as a failure of this round
        import traceback

        traceback.print_exc(file=sys.stderr)
        failed = Round()
        failed.fail(f"round raised {type(error).__name__}: {error}")
        return failed


def _check_rounds(rounds, failures):
    """Every round must repeat the first round's program counters."""
    first = rounds[0].counters
    for index, rnd in enumerate(rounds[1:], start=2):
        if rnd.counters != first:
            failures.append(
                f"round {index} counters {rnd.counters} differ from round 1 "
                f"{first}: the work is not fixed by the seed"
            )


def run_untraced(module, seed, seconds):
    from perfbench.tracing import installed_wrappers

    rounds, failures = [], []
    deadline = perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or (
        perf_counter() < deadline and len(rounds) < MAX_ROUNDS
    ):
        rnd = _run_round(module, seed)
        leftovers = installed_wrappers()
        if leftovers:
            rnd.fail(f"untraced round ran with wrappers: {leftovers}")
        rounds.append(rnd)
    _check_rounds(rounds, failures)
    return rounds, failures


def end_to_end(rounds) -> dict:
    """End-to-end figures, times scaled by each round's host slowdown."""
    from perfbench.common import percentile

    reads = sorted(x for r in rounds for x in r.scaled_reads())
    writes = sorted(x for r in rounds for x in r.scaled_writes())
    return {
        "setup_s": (
            statistics.median(r.setup_s / r.setup_slowdown for r in rounds),
            None),
        "ops_per_s": (
            statistics.median(
                r.ops / r.timed_s * r.ops_slowdown for r in rounds),
            sum(r.ops for r in rounds)),
        "read_p50_us": (percentile(reads, 0.50) * 1e6, len(reads)),
        "read_p99_us": (percentile(reads, 0.99) * 1e6, len(reads)),
        "write_p50_us": (percentile(writes, 0.50) * 1e6, len(writes)),
        "write_p99_us": (percentile(writes, 0.99) * 1e6, len(writes)),
        "rss_peak_mb": (
            statistics.median(r.rss_peak_mb for r in rounds), None),
        "resident_per_live_peak": (
            max(r.resident_per_live_peak for r in rounds), None),
        "recovery_s": (
            statistics.median(
                r.recovery_s / r.recovery_slowdown for r in rounds),
            None),
        "disk_bytes_per_live_row": (
            statistics.median(r.disk_bytes_per_live_row for r in rounds),
            None),
    }


def run_traced(modules, seed, seconds, units):
    """Untraced/traced round pairs of every workload; per-layer figures.

    Layer times are scaled by the traced round's host slowdown like the
    end-to-end times; each figure is the median over the traced rounds.
    """
    from perfbench.common import OUT
    from perfbench.tracing import Recorder

    values, rounds, failures = {}, [], []
    pairs = {name: [] for name in modules}
    deadline = perf_counter() + seconds
    while not all(pairs.values()) or perf_counter() < deadline:
        for name, module in modules.items():
            if pairs[name] and perf_counter() >= deadline:
                continue
            plain = _run_round(module, seed)
            recorder = Recorder()
            traced = _run_round(module, seed, recorder)
            rounds += [plain, traced]
            pairs[name].append((plain, traced))
            for rid, spent, root in recorder.request_budget_violations():
                traced.fail(
                    f"{name} request {rid}: layer self times {spent:.6f} s "
                    f"exceed the root span {root:.6f} s")
            recorder.write(os.path.join(OUT, "spans", f"{name}.tsv"))
        if len(pairs[next(iter(modules))]) >= MAX_ROUNDS:
            break
    for name, runs in pairs.items():
        _check_rounds([r for pair in runs for r in pair], failures)
        for key in runs[0][1].layers:
            metric = f"{name}.{key}"
            scaled = units.get(metric) in ("us", "s")
            values[metric] = statistics.median(
                t.layers[key] / (t.ops_slowdown if scaled else 1.0)
                for _, t in runs)
        values[f"{name}.tracing.ops_per_s_untraced"] = statistics.median(
            p.ops / p.timed_s * p.ops_slowdown for p, _ in runs if p.timed_s)
        values[f"{name}.tracing.ops_per_s_traced"] = statistics.median(
            t.ops / t.timed_s * t.ops_slowdown for _, t in runs if t.timed_s)
    return values, rounds, failures


def main(argv=None) -> int:
    args = _parse(argv if argv is not None else sys.argv[1:])
    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"perfbench: no program source at {SOURCE}; run it from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    modules = _workloads()
    if args.workload not in modules:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(modules)}", file=sys.stderr)
        return 2
    spec = _spec()
    fingerprint = _fingerprint(args.seed)
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))

    if args.trace:
        wanted = spec["per_layer"]
        values, rounds, failures = run_traced(
            modules, args.seed, args.seconds,
            {entry["name"]: entry["unit"] for entry in wanted})
        counts, counters = {}, {}
    else:
        wanted = spec["end_to_end"]
        rounds, failures = run_untraced(
            modules[args.workload], args.seed, args.seconds)
        figures = end_to_end(rounds)
        values = {k: v for k, (v, _) in figures.items()}
        counts = {k: n for k, (_, n) in figures.items() if n is not None}
        counters = rounds[0].counters

    attempted = sum(r.ops for r in rounds)
    failures += [f for r in rounds for f in r.failures]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            failures.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}"
          f"  rounds: {len(rounds)}")
    for name, metric in metrics.items():
        samples = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:58s} {metric['value']:>16.6g} {metric['unit']}"
              f"{samples}")
    print(f"  {'error_rate':58s} {len(failures) / max(1, attempted):>16.6g} "
          f"ratio  (failed {len(failures)} / attempted {attempted})")
    for failure in failures[:20]:
        print(f"FAILED: {failure}")

    report = {
        "fingerprint": fingerprint,
        "workload": args.workload,
        "trace": args.trace,
        "rounds": len(rounds),
        "samples": counts,
        "counters": counters,
        "slowdown": [[m[2] for m in r.marks] for r in rounds],
        "failures": failures,
    }
    from perfbench.common import OUT

    os.makedirs(OUT, exist_ok=True)
    report_path = os.path.join(
        OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w") as fh:
        json.dump({**report, "metrics": metrics}, fh, indent=1, sort_keys=True)
    shutil.rmtree(os.path.join(OUT, "work"), ignore_errors=True)

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.path.isfile(os.path.join(SOURCE, "__init__.py")) and (
        os.environ.get("PYTHONHASHSEED") != "0"
    ):
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  env)
    sys.exit(main())
