"""CI's benchmark smoke gates, run again in the tier-1 suite.

``testpaths`` collects only ``tests/``, so a gate that CI runs as
``python benchmarks/bench_<name>.py --smoke`` would otherwise go red
there without any tier-1 failure.  Each test here calls the bench's own
gate on the same reduced-size run as its ``--smoke`` step.

Not mirrored: X9 (partitioned sweep) and X11 (columnar kernels), whose
smoke gates do not hold on 2-core hosts yet, and X8 (instrumentation
overhead), whose 5% bound sits inside the run-to-run spread of one smoke
run on a shared 2-core host (see EXPERIMENTS.md, X8).
"""

from benchmarks import bench_server_load, bench_streaming, bench_wal_recovery
from benchmarks.bench_compiled_evaluator import check, run_comparison


def test_x7_compiled_evaluator_smoke_gate():
    """X7: compiled beats the interpreter on the macro query; cache hits."""
    check(run_comparison(size=1_000, repeat=3))


def test_x10_wal_recovery_smoke_gate():
    """X10: compaction drops expired records and keeps recovered state."""
    report = bench_wal_recovery.gate(sizes=(500, 2_000), churn_n=2_000, reps=2)
    assert report["passed"], report["churn"]


def test_x12_server_load_smoke_gate():
    """X12-load: 1k loopback clients, no failures, p99 in budget."""
    report, passed = bench_server_load.gate()
    assert passed, {k: report[k] for k in (
        "failures", "requests", "p99", "patches_sent", "differential_ok")}


def test_x14_streaming_smoke_gate():
    """X14: bounded residency, cached serves, idle-timeout differential."""
    report = bench_streaming.gate(events=30_000)
    assert report["passed"], report
