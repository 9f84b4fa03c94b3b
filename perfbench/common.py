"""Shared pieces of the benchmark: round results, percentiles, scratch space."""

from __future__ import annotations

import math
import os
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: Root of the checkout the benchmark runs in (the parent of ``perfbench``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where rounds keep their on-disk state and the traced run its spans.
OUT = os.path.join(ROOT, ".perfbench")


@dataclass
class Round:
    """What one round of a workload measured and checked.

    A round is the workload's whole fixed amount of work, built from the
    seed: set-up, the timed operations, untimed checkpoints, and the
    durability epilogue.  ``counters`` are program counters that must
    repeat exactly for the same seed.
    """

    setup_s: float = 0.0
    #: Wall time of the timed phases, checkpoints excluded.
    timed_s: float = 0.0
    #: Checkpoint time inside the timed phases, subtracted from ``timed_s``.
    untimed_s: float = 0.0
    reads: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    resident_per_live_peak: float = 0.0
    rss_peak_mb: float = 0.0
    recovery_s: float = 0.0
    disk_bytes_per_live_row: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: ``(reads so far, writes so far, host slowdown)`` at each untimed
    #: calibration point; see :func:`calibration_s`.
    marks: List[Tuple[int, int, float]] = field(default_factory=list)
    #: Host slowdown around set-up and around the recovery measurement.
    setup_slowdown: float = 1.0
    recovery_slowdown: float = 1.0

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.writes)

    def calibrate(self) -> float:
        """Time the calibration kernel now; returns the host slowdown."""
        slowdown = calibration_s() / REFERENCE_S
        self.marks.append((len(self.reads), len(self.writes), slowdown))
        return slowdown

    def _sample_slowdowns(self, which: int, count: int) -> List[float]:
        """Per-sample slowdown: the mean of the two marks around it."""
        out: List[float] = []
        marks = self.marks
        if not marks:
            return [1.0] * count
        for k in range(len(marks)):
            end = marks[k + 1][which] if k + 1 < len(marks) else count
            after = marks[k + 1][2] if k + 1 < len(marks) else marks[k][2]
            factor = (marks[k][2] + after) / 2
            out.extend([factor] * (end - len(out)))
        return out + [marks[-1][2]] * (count - len(out))

    def scaled_reads(self) -> List[float]:
        return [x / f for x, f in zip(
            self.reads, self._sample_slowdowns(0, len(self.reads)))]

    def scaled_writes(self) -> List[float]:
        return [x / f for x, f in zip(
            self.writes, self._sample_slowdowns(1, len(self.writes)))]

    @property
    def ops_slowdown(self) -> float:
        """Slowdown over the timed window, weighted by where time went."""
        spent = sum(self.reads) + sum(self.writes)
        scaled = sum(self.scaled_reads()) + sum(self.scaled_writes())
        return spent / scaled if scaled else 1.0

    def fail(self, message: str) -> None:
        if len(self.failures) < 1000:
            self.failures.append(message)
        else:
            self.failures[-1] = f"... and more; last: {message}"

    def note_residency(self, resident: int, live: int) -> None:
        if live:
            self.resident_per_live_peak = max(
                self.resident_per_live_peak, resident / live)


#: Seconds the calibration kernel takes on the reference host.
REFERENCE_S = 0.003


class _Row:
    __slots__ = ("key", "group", "label")

    def __init__(self, key: int, group: int, label: int) -> None:
        self.key = key
        self.group = group
        self.label = label

    def visible(self, limit: int) -> bool:
        return self.group < limit


def calibration_s() -> float:
    """Best of three timings of a fixed interpreter-bound kernel.

    The host this benchmark was built on changes speed by up to 1.7x in
    regimes lasting seconds.  The kernel -- object construction, method
    calls, a generator filter and bulk dict inserts, the staples of every
    workload here -- slows down with them.  Rounds time it at their
    untimed points, and each timing between two such points is scaled by
    their mean slowdown against ``REFERENCE_S``, so that two runs compare
    the program, not the host's regime.  The report keeps the slowdowns
    it applied.
    """
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        rows = [_Row(i, i % 13, i % 50) for i in range(3_000)]
        table = {}
        for row in (r for r in rows if r.visible(9)):
            table[row.key, row.label] = row.group
        for i in range(10_000):
            table[(i * 7919) % 1_000_003, i] = i
        best = min(best, perf_counter() - started)
    return best


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return float("nan")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Untimed:
    """Excludes a checkpoint's work from the round's timed window."""

    __slots__ = ("round", "started")

    def __init__(self, rnd: Round) -> None:
        self.round = rnd

    def __enter__(self) -> "Untimed":
        self.started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.round.untimed_s += perf_counter() - self.started


def workdir(name: str) -> str:
    """A fresh scratch directory for one round's on-disk state."""
    path = os.path.join(OUT, "work", f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def tree_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def reset_rss_peak() -> None:
    """Restart the kernel's peak-RSS count, so each round reads its own."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # no reset: the figure is the process's peak so far


def rss_peak_mb() -> Optional[float]:
    """This process's peak resident set size in MB (Linux ``VmHWM``)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Reloads of a round's final snapshot; ``recovery_s`` is their median.
RELOADS = 15


def snapshot_epilogue(rnd: Round, db, name: str):
    """Deep audit, then snapshot the final state and time its reload.

    For the workloads without a write-ahead log, recovery is a snapshot
    reload.  The reloaded tables must equal the live ones.  Returns the
    last reloaded database, which the caller checks further and closes.
    """
    from repro.engine.persistence import load_database, save_database

    try:
        db.verify(strict=True, deep=True)
    except Exception as error:  # InvariantViolation, or a crash inside it
        rnd.fail(f"verify(strict, deep): {error}")
    directory = workdir(name)
    path = os.path.join(directory, "snapshot.json")
    save_database(db, path)
    rnd.disk_bytes_per_live_row = ratio(tree_bytes(directory),
                                        db.total_live_tuples())
    times = []
    for attempt in range(RELOADS):
        if attempt:
            loaded.close()
        started = perf_counter()
        loaded = load_database(path)
        times.append(perf_counter() - started)
    rnd.recovery_s = statistics.median(times)
    for table in db.table_names():
        if set(loaded.table(table).read().items()) != set(
                db.table(table).read().items()):
            rnd.fail(f"reloaded snapshot differs from the live {table}")
    return loaded
