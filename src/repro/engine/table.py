"""Expiration-enabled base tables.

A :class:`Table` combines a :class:`~repro.core.relation.Relation` (logical
content), an :class:`~repro.engine.expiration_index.ExpirationIndex`
(efficient discovery of due tuples), a :class:`TriggerManager`, and a set
of integrity constraints.  It implements the Section 3.2 removal policies:

* **eager** -- on every clock advance the table drains its index, fires
  ON-EXPIRE triggers immediately, and physically removes the tuples;
* **lazy**  -- expired tuples stay physically present (but invisible to
  reads, which always go through ``exp_τ``); a batched
  :meth:`Table.vacuum` reclaims them and fires the pending triggers, with
  trigger latency as the trade-off.

Insertion is the one place (besides triggers) where users see expiration
times: ``insert(values, expires_at=...)`` or the TTL convenience form
``insert(values, ttl=30)``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from repro.core.columnar import ColumnarRelation, resolve_backend
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.timestamps import INFINITY, TimeLike, Timestamp, encode_exp, ts
from repro.core.tuples import ExpiringTuple, Row, make_row
from repro.engine.clock import LogicalClock
from repro.engine.expiration_index import ExpirationIndex, RemovalPolicy
from repro.engine.statistics import EngineStatistics
from repro.engine.triggers import TriggerManager
from repro.errors import EngineError, RelationError

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.engine.constraints import Constraint
    from repro.engine.database import Database

__all__ = [
    "Table",
    "declare_expiration_families",
    "EXPIRY_ABSOLUTE",
    "EXPIRY_SINCE_LAST_MODIFICATION",
    "EXPIRY_POLICIES",
]

#: Expiration is stamped at insert and only the explicit verbs
#: (renew/override) move it afterwards.
EXPIRY_ABSOLUTE = "absolute"
#: Idle-timeout expiry ("Efficient Management of Short-Lived Data"):
#: every write restarts the clock, and reads that count as activity go
#: through :meth:`Table.touch`, which renews the row's default TTL.
EXPIRY_SINCE_LAST_MODIFICATION = "since_last_modification"
EXPIRY_POLICIES = (EXPIRY_ABSOLUTE, EXPIRY_SINCE_LAST_MODIFICATION)


def declare_expiration_families(registry):
    """Idempotently register the per-policy expiration families.

    Returns ``(sweep_seconds, tuples_expired)``; called by every
    :class:`Table` and once by ``Database`` so the families show up in
    ``db.metrics.to_prom_text()`` before the first sweep.
    """
    sweep = registry.histogram(
        "repro_expiration_sweep_seconds",
        "Wall time of expiration sweeps that processed at least one "
        "due tuple, by removal policy.",
        labels=("policy",),
    )
    expired = registry.counter(
        "repro_expiration_tuples_expired_total",
        "Tuples physically expired, by removal policy (eager drains "
        "versus lazy vacuums).",
        labels=("policy",),
    )
    return sweep, expired


class Table:
    """A named base relation managed by the engine."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        clock: LogicalClock,
        statistics: Optional[EngineStatistics] = None,
        removal_policy: RemovalPolicy = RemovalPolicy.EAGER,
        lazy_batch_size: int = 64,
        database: Optional["Database"] = None,
        index_factory: Optional[Callable[[], ExpirationIndex]] = None,
        layout: str = "row",
        columnar_backend: Optional[str] = None,
        expiry: str = EXPIRY_ABSOLUTE,
        default_ttl: Optional[int] = None,
    ) -> None:
        if layout not in ("row", "columnar"):
            raise EngineError(
                f"unknown table layout {layout!r} (expected 'row' or 'columnar')"
            )
        if expiry not in EXPIRY_POLICIES:
            raise EngineError(
                f"unknown expiry policy {expiry!r} (expected one of "
                f"{EXPIRY_POLICIES})"
            )
        if default_ttl is not None and default_ttl <= 0:
            raise EngineError(
                f"default_ttl must be positive, got {default_ttl}"
            )
        if expiry == EXPIRY_SINCE_LAST_MODIFICATION and default_ttl is None:
            raise EngineError(
                "since_last_modification expiry needs a default_ttl "
                "(the idle timeout every touch restarts)"
            )
        self.name = name
        self.schema = schema
        self.clock = clock
        self.statistics = statistics if statistics is not None else EngineStatistics()
        self.removal_policy = removal_policy
        #: Under lazy removal, vacuum once this many expirations are pending.
        self.lazy_batch_size = lazy_batch_size
        self.database = database
        #: Physical storage layout ("row" dict vs "columnar" arrays); the
        #: backend is resolved once at creation so later environment flips
        #: cannot leave a table's shards disagreeing.
        self.layout = layout
        #: Table-level expiry policy: "absolute" (texp stamped at insert)
        #: or "since_last_modification" (renewal-on-touch, Zeek-broker
        #: style -- see :meth:`touch`).
        self.expiry = expiry
        #: TTL applied when an insert names neither expires_at nor ttl,
        #: and the idle timeout :meth:`touch` restarts.
        self.default_ttl = default_ttl
        self.columnar_backend = (
            resolve_backend(columnar_backend) if layout == "columnar" else None
        )
        if layout == "columnar":
            self.relation: Relation = ColumnarRelation(
                schema, backend=self.columnar_backend
            )
        else:
            self.relation = Relation(schema)
        self.triggers = TriggerManager(name)
        self.constraints: List["Constraint"] = []
        #: Called with the stored ExpiringTuple after every successful
        #: insert (used by incremental view maintenance).
        self.insert_listeners: List = []
        #: Called with the deleted row after every explicit delete.
        self.delete_listeners: List = []
        #: Zero-argument constructor for the expiration-index substrate;
        #: anything interface-compatible with :class:`ExpirationIndex`
        #: works (e.g. :class:`~repro.engine.timer_wheel.TimerWheelIndex`).
        self.index_factory = index_factory
        self._index = index_factory() if index_factory is not None else ExpirationIndex()
        # Lazy removal: due entries accumulate here (already popped from
        # the index, O(k log n) per advance) until a vacuum processes them.
        self._due_buffer: List[tuple] = []
        self._sweep_seconds, self._tuples_expired = declare_expiration_families(
            self.statistics.registry
        )

    # -- modification ---------------------------------------------------------

    def insert(
        self,
        values: Iterable[Any],
        expires_at: TimeLike = None,
        ttl: Optional[int] = None,
    ) -> ExpiringTuple:
        """Insert a row, expiring at ``expires_at`` or after ``ttl`` ticks.

        Omitting both means no expiration (``∞``) -- unless the table has
        a :attr:`default_ttl`, which then applies (on a
        since-last-modification table nothing is immortal: every write
        restarts the idle timer).  Duplicate rows keep the later
        expiration (the model's max-merge rule), so re-insertion is the
        idiom for *renewing* a session, credential, or cached copy.
        """
        if expires_at is None and ttl is None:
            ttl = self.default_ttl
        if ttl is not None:
            if expires_at is not None:
                raise EngineError("pass expires_at or ttl, not both")
            if ttl <= 0:
                raise EngineError(f"ttl must be positive, got {ttl}")
            stamp = self.clock.now + ttl
        else:
            stamp = ts(expires_at)
        if stamp <= self.clock.now:
            raise RelationError(
                f"cannot insert an already-expired tuple: {stamp} <= now {self.clock.now}"
            )
        row = make_row(values)
        for constraint in self.constraints:
            self.statistics.constraint_checks += 1
            try:
                constraint.check(self, row, stamp)
            except Exception:
                self.statistics.constraint_violations += 1
                raise
        logging = self.database is not None and self.database.wal is not None
        previous = self.relation.expiration_or_none(row) if logging else None
        stored = self.relation.insert(row, expires_at=stamp)
        self._index.schedule(stored.row, stored.expires_at)
        if logging:
            # The *resulting* (post-max-merge) expiration is logged, so a
            # replayed record restores the exact stored state; ``prev`` is
            # what transaction rollback at recovery restores.
            self._wal_physical("upsert", row, stored.expires_at, previous)
        self.statistics.inserts += 1
        if self.database is not None:
            # Unpredictable mutation: cached evaluation results are stale.
            self.database.note_data_change()
        for listener in self.insert_listeners:
            listener(self, stored)
        self._maybe_verify()
        return stored

    def delete(self, values: Iterable[Any]) -> bool:
        """Explicit delete (the traditional path expiration times replace)."""
        row = make_row(values)
        logging = self.database is not None and self.database.wal is not None
        previous = self.relation.expiration_or_none(row) if logging else None
        removed = self.relation.delete(row)
        if removed:
            self._index.remove(row)
            if logging:
                self._wal_physical("remove", row, None, previous)
            self.statistics.explicit_deletes += 1
            if self.database is not None:
                self.database.note_data_change()
            for listener in self.delete_listeners:
                listener(self, row)
            self._maybe_verify()
        return removed

    def renew(self, values: Iterable[Any], ttl: int) -> ExpiringTuple:
        """Extend a row's lifetime by ``ttl`` ticks from now (re-insertion).

        Renewal is max-merge (the model's duplicate rule): a ``ttl`` that
        lands *before* the stored expiration silently keeps the longer
        lifetime.  That is the paper's semantics -- renewing can only ever
        lengthen -- and it is what makes monotonic views maintenance-free.
        To *shorten* a lifetime (revoke a grant, log a session out, clear
        a lockout early), use :meth:`override`, which is last-write.
        """
        return self.insert(values, ttl=ttl)

    def touch(
        self, values: Iterable[Any], ttl: Optional[int] = None
    ) -> Optional[ExpiringTuple]:
        """Renewal-on-touch: restart a live row's idle timer.

        On a ``since_last_modification`` table, activity on a row routes
        through here and renews it for ``ttl`` (default: the table's
        :attr:`default_ttl`) ticks from now -- the Zeek-broker idiom where
        any access counts as a modification.  The renewal is max-merge
        like every touch-path write, which with a fixed idle timeout is
        exactly "now + timeout" (the clock never runs backwards).

        Touching is deliberately weaker than :meth:`renew`:

        * on an ``absolute``-expiry table it is a no-op returning ``None``
          (activity does not extend absolutely-stamped lifetimes);
        * a row that is absent -- or already expired, even if a lazy sweep
          has not reclaimed it yet -- is *not* revived (``None`` again);
          resurrection would un-fire an expiration the model already
          considers to have happened.  Re-admit it with :meth:`insert`.
        """
        if self.expiry != EXPIRY_SINCE_LAST_MODIFICATION:
            return None
        effective = ttl if ttl is not None else self.default_ttl
        if effective is None or effective <= 0:
            raise EngineError(f"touch ttl must be positive, got {effective}")
        row = make_row(values)
        current = self.relation.expiration_or_none(row)
        if current is None or current <= self.clock.now:
            return None
        stored = self.insert(row, ttl=effective)
        self.statistics.touches += 1
        return stored

    def override(
        self,
        values: Iterable[Any],
        expires_at: TimeLike = None,
        ttl: Optional[int] = None,
    ) -> ExpiringTuple:
        """Set a row's expiration *unconditionally* (the revocation path).

        Unlike :meth:`insert`/:meth:`renew`, no max-merge happens: the
        stored expiration becomes exactly ``expires_at`` (or ``now + ttl``;
        omitting both means ``∞``), whether that shortens or lengthens the
        lifetime, and the row is created if absent.  ``expires_at == now``
        is immediate revocation -- the row is invisible to every read at
        once (``exp_τ`` needs ``texp > τ``) and is reclaimed by the next
        sweep, where its ON-EXPIRE triggers fire normally.

        Overriding into the past is rejected: it would express nothing
        more than ``now`` does, and it would break the due-buffer
        invariant (buffered due entries may precede a stored expiration,
        never follow it).

        The mutation takes the same full path as the forward operations
        (mirroring :meth:`undo_insert`): expiration index rescheduled, WAL
        ``upsert`` with the pre-image, data version bumped, delete
        listeners fired.  Delete listeners -- not insert listeners --
        because a shortened lifetime can *remove* tuples from downstream
        results, which only the conservative mark-stale path models;
        views therefore observe a revocation without any manual refresh.
        """
        if ttl is not None:
            if expires_at is not None:
                raise EngineError("pass expires_at or ttl, not both")
            if ttl < 0:
                raise EngineError(f"ttl must be non-negative, got {ttl}")
            stamp = self.clock.now + ttl
        else:
            stamp = ts(expires_at)
        if stamp < self.clock.now:
            raise RelationError(
                f"cannot override into the past: {stamp} < now "
                f"{self.clock.now} (use expires_at=now to revoke immediately)"
            )
        row = make_row(values)
        for constraint in self.constraints:
            self.statistics.constraint_checks += 1
            try:
                constraint.check(self, row, stamp)
            except Exception:
                self.statistics.constraint_violations += 1
                raise
        logging = self.database is not None and self.database.wal is not None
        previous = self.relation.expiration_or_none(row) if logging else None
        stored = self.relation.override(row, stamp)
        self._index.schedule(row, stamp)
        if logging:
            # Logged as a plain upsert: replay applies records last-write
            # (bulk_restore), so the shortened expiration survives recovery
            # with no special record kind.
            self._wal_physical("upsert", row, stamp, previous)
        self.statistics.overrides += 1
        if self.database is not None:
            self.database.note_data_change()
        for listener in self.delete_listeners:
            listener(self, row)
        self._maybe_verify()
        return stored

    # -- transaction rollback ---------------------------------------------------

    def undo_insert(self, values: Iterable[Any], previous: Optional[Timestamp]) -> None:
        """Roll back an insert, restoring the pre-insert expiration.

        ``previous`` is the expiration the row had before the insert
        (``None`` if it did not exist).  Rollback must go through the same
        index/listener/data-version paths as the forward operations:
        mutating ``self.relation`` directly would leave a phantom entry in
        the expiration index, a plan cache that keeps serving pre-rollback
        results, and materialised views that never learn the row changed.
        """
        row = make_row(values)
        logging = self.database is not None and self.database.wal is not None
        current = self.relation.expiration_or_none(row) if logging else None
        if previous is None:
            self.relation.delete(row)
            self._index.remove(row)
            if logging and current is not None:
                self._wal_physical("remove", row, None, current)
        else:
            self.relation.override(row, previous)
            self._index.schedule(row, previous)
            if logging:
                self._wal_physical("upsert", row, previous, current)
        if self.database is not None:
            self.database.note_data_change()
        for listener in self.delete_listeners:
            listener(self, row)
        self._maybe_verify()

    def undo_delete(self, values: Iterable[Any], previous: Timestamp) -> None:
        """Roll back an explicit delete: restore the row and its index entry."""
        row = make_row(values)
        logging = self.database is not None and self.database.wal is not None
        current = self.relation.expiration_or_none(row) if logging else None
        restored = self.relation.override(row, previous)
        self._index.schedule(row, previous)
        if logging:
            self._wal_physical("upsert", row, previous, current)
        if self.database is not None:
            self.database.note_data_change()
        for listener in self.insert_listeners:
            listener(self, restored)
        self._maybe_verify()

    # -- reading -----------------------------------------------------------------

    def read(self, at: TimeLike = None) -> Relation:
        """The unexpired content ``exp_τ(R)`` (never shows expired tuples)."""
        stamp = self.clock.now if at is None else ts(at)
        return self.relation.exp_at(stamp)

    def __len__(self) -> int:
        """Number of *unexpired* tuples at the current time."""
        return len(self.read())

    @property
    def physical_size(self) -> int:
        """Stored tuples including not-yet-vacuumed expired ones."""
        return len(self.relation)

    def next_expiration(self) -> Optional[Timestamp]:
        """When the next tuple expires (the trigger scheduler's deadline)."""
        return self._index.next_expiration()

    # -- expiration processing -------------------------------------------------------

    def on_clock_advance(self, old: Timestamp, new: Timestamp) -> None:
        """Clock listener: process expirations according to the policy."""
        if self.removal_policy is RemovalPolicy.EAGER:
            self.process_expirations(new)
        else:
            # O(k log n): only the k tuples that actually came due are
            # touched; they stay physically present (and invisible to
            # reads) until the batch threshold triggers a vacuum.
            self._due_buffer.extend(self._index.pop_due(new))
            if len(self._due_buffer) >= self.lazy_batch_size:
                self.vacuum(new)

    def process_expirations(self, now: Optional[TimeLike] = None) -> int:
        """Remove every due tuple, firing ON-EXPIRE triggers; returns count."""
        stamp = self.clock.now if now is None else ts(now)
        started = time.perf_counter()
        due = self._due_buffer + self._index.pop_due(stamp)
        self._due_buffer = []
        # The relation's bulk sweep skips entries renewed (re-inserted with
        # a later expiration) between coming due and being processed -- a
        # renewed tuple never expired.  Columnar relations compare ticks
        # straight off the texp array.
        logging = self.database is not None and self.database.wal is not None
        collect = logging or len(self.triggers) > 0
        processed, expired = self.relation._sweep_due(due, stamp, collect)
        if processed:
            self.statistics.expirations_processed += processed
            self.statistics.tuples_purged += processed
        for row, texp in expired:
            fired = self.triggers.fire(ExpiringTuple(row, texp), stamp)
            self.statistics.triggers_fired += fired
        if logging:
            # Sweep removals must be durable: replay re-derives expiration
            # *state* from clock records, but a lazy-policy snapshot can
            # retain a row whose vacuum (and ON-EXPIRE firing) happened
            # before the crash -- without these records recovery would
            # re-arm it and the trigger would fire a second time.
            for row, texp in expired:
                self._wal_physical("remove", row, None, texp)
        if due:
            self.statistics.purge_passes += 1
            policy = self.removal_policy.value
            self._sweep_seconds.labels(policy).observe(
                time.perf_counter() - started)
            if processed:
                self._tuples_expired.labels(policy).inc(processed)
        self._maybe_verify()
        return processed

    def vacuum(self, now: Optional[TimeLike] = None) -> int:
        """Batch reclamation under lazy removal (alias of the eager path)."""
        return self.process_expirations(now)

    # -- durability hooks --------------------------------------------------------------

    def _wal_physical(
        self,
        kind: str,
        row: Row,
        texp: Optional[Timestamp],
        previous: Optional[Timestamp],
    ) -> None:
        """Append one physical WAL record for a mutation on this table.

        ``texp`` is the resulting stored expiration (``None`` only for
        ``remove`` records); ``previous`` is the row's pre-mutation state,
        which is what lets recovery roll an in-flight transaction back
        through :meth:`undo_insert` / :meth:`undo_delete`.  Partitioned
        tables inherit this unchanged: records are routed into the
        database's single log and re-sharded by the relation at replay.
        """
        fields = {
            "table": self.name,
            "row": list(row),
            "prev": "absent" if previous is None else encode_exp(previous),
        }
        if kind == "upsert":
            fields["texp"] = encode_exp(texp)
        self.database._wal_append(kind, **fields)

    # -- invariant hooks ---------------------------------------------------------------

    def _maybe_verify(self) -> None:
        """Audit the owning database after a mutation (debug mode only)."""
        if self.database is not None:
            self.database._maybe_verify()

    # -- metadata ---------------------------------------------------------------------

    def add_constraint(self, constraint: "Constraint") -> None:
        """Attach an integrity constraint (checked on future inserts)."""
        if any(c.name == constraint.name for c in self.constraints):
            raise EngineError(
                f"duplicate constraint name {constraint.name!r} on {self.name!r}"
            )
        self.constraints.append(constraint)

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, arity={self.schema.arity}, "
            f"live={len(self)}, physical={self.physical_size}, "
            f"policy={self.removal_policy.value})"
        )
