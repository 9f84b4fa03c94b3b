"""The cross-structure consistency invariant catalogue.

Every check audits one agreement that the engine's layered structures must
maintain among themselves as time passes:

Structural (cheap, pure bookkeeping walks):

* ``index-schedules-stored`` -- every stored row with a finite, unexpired
  expiration is scheduled in its table's expiration index at exactly that
  time (otherwise it will never be swept or fire its trigger);
* ``index-entries-stored`` -- every live index entry refers to a
  physically present row whose stored expiration matches (otherwise a
  phantom entry later fires ON-EXPIRE for a row that no longer exists);
* ``due-buffer-consistent`` -- lazily buffered due entries are actually
  due, and any still-present row carries an expiration no earlier than the
  buffered one (max-merge renewals only ever move expirations later);
* ``shard-routing`` -- every row, index entry, and due-buffer entry of a
  partitioned table lives in the shard ``hash(row[key]) % N`` says it
  should (a misrouted row is invisible to point reads and sweeps);
* ``physical-covers-live`` -- a table never reports more live tuples than
  it physically stores;
* ``equality-index-stored`` -- every equality bucket a probed row
  relation has built holds exactly the stored rows with that value, in
  storage order (a stale bucket makes compiled point reads and
  ``DELETE``/``RENEW``/``UPDATE ... WHERE k = c`` miss or resurrect rows).

Deep (re-evaluation; quadratic-ish, for tests and fuzzing):

* ``view-freshness`` -- whatever a materialised view would serve from
  storage right now equals a from-scratch evaluation of its expression
  (Theorems 1-3 made executable);
* ``plan-cache-consistent`` -- every cached result the plan cache would
  still serve at the current time equals an uncached evaluation at that
  time (the Section 3.4 validity machinery made executable).

The audits are *sweep-order independent*: the debug mode runs them from
mid-clock-advance hooks, where some tables have already swept a tick and
others have not, so no check may assume global expiration processing has
finished.  That is why ``index-schedules-stored`` covers only unexpired
rows and why a due-buffer entry whose row is gone is legal (an explicit
delete may race a lazy vacuum).

All checks are read-only; :func:`run_invariants` returns the violations
found rather than raising, so callers choose strictness
(:meth:`Database.verify` raises on non-empty by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.core.algebra.evaluator import Evaluator
from repro.core.relation import Relation, bucket_rows
from repro.core.timestamps import ts
from repro.engine.partitioning import PartitionedTable

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.engine.database import Database

__all__ = ["Violation", "run_invariants", "invariant_names"]


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which check, on what, and how it failed."""

    invariant: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.subject}: {self.message}"


Check = Callable[["Database"], Iterator[Violation]]

_STRUCTURAL: List[Tuple[str, Check]] = []
_DEEP: List[Tuple[str, Check]] = []


def _structural(name: str):
    def register(fn: Check) -> Check:
        _STRUCTURAL.append((name, fn))
        return fn

    return register


def _deep(name: str):
    def register(fn: Check) -> Check:
        _DEEP.append((name, fn))
        return fn

    return register


def invariant_names(deep: bool = True) -> List[str]:
    """The catalogue's check names, in execution order."""
    names = [name for name, _ in _STRUCTURAL]
    if deep:
        names.extend(name for name, _ in _DEEP)
    return names


def run_invariants(
    database: "Database",
    deep: bool = True,
    names: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Run the catalogue against ``database``; returns all violations.

    ``deep=False`` audits bookkeeping only; ``names`` restricts the run to
    a subset of :func:`invariant_names`.
    """
    wanted = None if names is None else set(names)
    checks = list(_STRUCTURAL) + (list(_DEEP) if deep else [])
    violations: List[Violation] = []
    for name, check in checks:
        if wanted is not None and name not in wanted:
            continue
        violations.extend(check(database))
    return violations


# -- structural checks -------------------------------------------------------


@_structural("index-schedules-stored")
def _index_schedules_stored(db: "Database") -> Iterator[Violation]:
    now = db.clock.now
    for name in db.table_names():
        table = db.table(name)
        scheduled = {row: stamp for row, stamp in table._index.pending()}
        for row, texp in table.relation.items():
            if not texp.is_finite or texp <= now:
                continue  # immortal rows are never indexed; expired rows
                # may already sit in a due buffer awaiting vacuum
            entry = scheduled.get(row)
            if entry is None:
                yield Violation(
                    "index-schedules-stored",
                    f"{name}{row}",
                    f"stored row expires at {texp} but has no index entry",
                )
            elif entry != texp:
                yield Violation(
                    "index-schedules-stored",
                    f"{name}{row}",
                    f"index schedules {entry}, stored expiration is {texp}",
                )


@_structural("index-entries-stored")
def _index_entries_stored(db: "Database") -> Iterator[Violation]:
    for name in db.table_names():
        table = db.table(name)
        for row, stamp in table._index.pending():
            current = table.relation.expiration_or_none(row)
            if current is None:
                yield Violation(
                    "index-entries-stored",
                    f"{name}{row}",
                    f"index entry at {stamp} refers to a row that is not "
                    f"physically present (phantom ON-EXPIRE)",
                )
            elif current != stamp:
                yield Violation(
                    "index-entries-stored",
                    f"{name}{row}",
                    f"index entry at {stamp}, stored expiration is {current}",
                )


@_structural("due-buffer-consistent")
def _due_buffer_consistent(db: "Database") -> Iterator[Violation]:
    now = db.clock.now

    def audit(name: str, shard: str, entries) -> Iterator[Violation]:
        table = db.table(name)
        for row, texp in entries:
            if texp > now:
                yield Violation(
                    "due-buffer-consistent",
                    f"{name}{shard}{row}",
                    f"buffered entry at {texp} is not due yet (now {now})",
                )
            current = table.relation.expiration_or_none(row)
            # An absent row is legal: an explicit delete can reclaim an
            # expired-but-unvacuumed row before its buffered entry drains.
            if current is not None and current < texp:
                yield Violation(
                    "due-buffer-consistent",
                    f"{name}{shard}{row}",
                    f"stored expiration {current} precedes the buffered "
                    f"entry {texp} (max-merge only moves later)",
                )

    for name in db.table_names():
        table = db.table(name)
        if isinstance(table, PartitionedTable):
            for i, buffer in enumerate(table._due_buffers):
                entries = [(row, ts(value)) for row, value in buffer]
                yield from audit(name, f"[shard {i}]", entries)
        else:
            yield from audit(name, "", list(table._due_buffer))


@_structural("shard-routing")
def _shard_routing(db: "Database") -> Iterator[Violation]:
    for name in db.table_names():
        table = db.table(name)
        if not isinstance(table, PartitionedTable):
            continue
        key, count = table.key_index, table.partitions
        for shard_id, shard in enumerate(table.relation.shards):
            for row in shard._tuples:
                owner = hash(row[key]) % count
                if owner != shard_id:
                    yield Violation(
                        "shard-routing",
                        f"{name}{row}",
                        f"stored in relation shard {shard_id}, key hashes "
                        f"to shard {owner}",
                    )
        for shard_id, shard_index in enumerate(table._index.shards):
            for row, _ in shard_index.pending():
                owner = hash(row[key]) % count
                if owner != shard_id:
                    yield Violation(
                        "shard-routing",
                        f"{name}{row}",
                        f"indexed in shard {shard_id}, key hashes to shard "
                        f"{owner}",
                    )
        for shard_id, buffer in enumerate(table._due_buffers):
            for row, _ in buffer:
                owner = hash(row[key]) % count
                if owner != shard_id:
                    yield Violation(
                        "shard-routing",
                        f"{name}{row}",
                        f"buffered in shard {shard_id}, key hashes to shard "
                        f"{owner}",
                    )


@_structural("physical-covers-live")
def _physical_covers_live(db: "Database") -> Iterator[Violation]:
    for name in db.table_names():
        table = db.table(name)
        live, physical = len(table), table.physical_size
        if physical < live:
            yield Violation(
                "physical-covers-live",
                name,
                f"{live} live tuples but only {physical} stored",
            )


@_structural("equality-index-stored")
def _equality_index_stored(db: "Database") -> Iterator[Violation]:
    for name in db.table_names():
        relation = db.table(name).relation
        if type(relation) is not Relation or not relation._buckets:
            continue  # only flat row relations build an index, on a probe
        for index, buckets in relation._buckets.items():
            kept = {value: list(rows) for value, rows in buckets.items()}
            fresh = {
                value: list(rows)
                for value, rows in bucket_rows(relation._tuples, index).items()
            }
            if kept != fresh:
                stale = sorted(
                    repr(value) for value in set(kept) | set(fresh)
                    if kept.get(value) != fresh.get(value)
                )
                yield Violation(
                    "equality-index-stored",
                    f"{name}[attribute {index + 1}]",
                    f"buckets for {', '.join(stale)} differ from the stored "
                    f"rows",
                )


# -- deep checks -------------------------------------------------------------


@_deep("view-freshness")
def _view_freshness(db: "Database") -> Iterator[Violation]:
    now = db.clock.now
    for name in db.view_names():
        view = db.view(name)
        served = view._audit_serveable(now)
        if served is None:
            continue  # a real read would refresh (or refuse); nothing to audit
        fresh = Evaluator(db.catalog, now).evaluate(view.expression).relation
        if not served.same_content(fresh):
            yield Violation(
                "view-freshness",
                name,
                f"materialised read at {now} diverges from a from-scratch "
                f"evaluation ({len(served)} vs {len(fresh)} rows)",
            )


@_deep("plan-cache-consistent")
def _plan_cache_consistent(db: "Database") -> Iterator[Violation]:
    now = db.clock.now
    for expression, entry in db.plan_cache.entries():
        # Mirror the cache's own serve conditions: entries it would refuse
        # to serve at `now` cannot produce a wrong answer, so skip them.
        if entry.schema_version != db.schema_version:
            continue
        if entry.partitioning != db._partition_scheme:
            continue
        cached = entry.result
        if cached is None or entry.result_version != db.catalog_version:
            continue
        if not (cached.tau <= now and cached.validity.contains(now)):
            continue
        served = cached.relation.exp_at(now)
        fresh = Evaluator(db.catalog, now).evaluate(expression).relation
        if not served.same_content(fresh):
            yield Violation(
                "plan-cache-consistent",
                repr(expression),
                f"cached result (τ={cached.tau}) served at {now} diverges "
                f"from an uncached evaluation ({len(served)} vs "
                f"{len(fresh)} rows)",
            )
