"""Self-tests of the benchmark itself (not of the program it measures).

Run from the root of a checkout::

    python3 perfbench/selftest.py

or collect the same functions with ``python3 -m pytest perfbench/selftest.py``.
They check that

* two processes given the same seed do identical work: the same operation
  counts and the same program counters (plan-cache hits, refreshes, WAL
  records, ...), with hash randomisation left to each process;
* an untraced run never installs a layer wrapper;
* in a traced round, wrappers reach names bound by import (the server's
  ``parse_statements``), and each request's per-layer self times sum to
  no more than its root span.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import authz_durable, served_sql, stream_ingest  # noqa: E402
from perfbench.common import OUT  # noqa: E402
from perfbench.tracing import Recorder, installed_wrappers  # noqa: E402

WORKLOADS = (served_sql, stream_ingest, authz_durable)
SEED = 7


def _counters_of_a_run(name: str) -> dict:
    """Counters of round 1 of a fresh ``run.py`` process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    path = os.path.join(OUT, f"report-{name}-seed{SEED}-trace0.json")
    with open(path) as fh:
        report = json.load(fh)
    return {"attempted": result["attempted"], **report["counters"]}


def test_same_seed_same_work_across_processes():
    for module in WORKLOADS:
        first = _counters_of_a_run(module.NAME)
        second = _counters_of_a_run(module.NAME)
        assert first == second, (module.NAME, first, second)


def test_untraced_run_installs_no_wrapper():
    from perfbench import run

    def refuse(self):
        raise AssertionError("an untraced run installed wrappers")

    original = Recorder.install
    Recorder.install = refuse
    try:
        rounds, failures = run.run_untraced(stream_ingest, SEED, 0)
    finally:
        Recorder.install = original
    assert not failures
    assert all(not r.failures for r in rounds), [r.failures for r in rounds]
    assert installed_wrappers() == []


def test_traced_rounds_attribute_within_each_request():
    for module in WORKLOADS:
        recorder = Recorder()
        recorder.install()
        try:
            rnd = module.run(SEED, recorder)
        finally:
            recorder.uninstall()
        assert installed_wrappers() == []
        assert not rnd.failures, rnd.failures
        assert recorder.request_budget_violations() == [], module.NAME
        requests = sum(1 for s in recorder.spans if s[1] == "request")
        assert requests == rnd.ops, (module.NAME, requests, rnd.ops)
        if module is served_sql:
            # The server binds parse_statements by name: only a wrapper
            # patched where it is imported sees served statements.
            parsed = [s for s in recorder.spans
                      if s[1] == "sql.parse" and s[5] is not None]
            assert len(parsed) >= rnd.ops


def main() -> int:
    tests = [
        test_untraced_run_installs_no_wrapper,
        test_traced_rounds_attribute_within_each_request,
        test_same_seed_same_work_across_processes,
    ]
    for test in tests:
        test()
        print(f"ok  {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
