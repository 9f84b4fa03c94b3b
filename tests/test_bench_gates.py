"""CI's benchmark smoke gates, run again in the tier-1 suite.

``testpaths`` collects only ``tests/``, so a gate that CI runs as
``python benchmarks/bench_<name>.py --smoke`` would otherwise go red
there without any tier-1 failure.  Each test here calls the bench's own
``check`` on the same reduced-size run as its ``--smoke`` step.
"""

from benchmarks.bench_compiled_evaluator import check, run_comparison


def test_x7_compiled_evaluator_smoke_gate():
    """X7: compiled beats the interpreter on the macro query; cache hits."""
    check(run_comparison(size=1_000, repeat=3))
