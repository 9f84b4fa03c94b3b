"""Continuous queries over expiring streams (ROADMAP item 4, DESIGN §5j).

The paper's expiration model *is* the "sliding window as TTL" view of
stream processing: a window is nothing but a tuple whose ``texp`` is
arrival + width, and the General Expiration Streaming Model (PAPERS.md,
arXiv:2509.07587) formalises counting, sampling, and diameter/k-center
over exactly such heterogeneous-expiration streams.  This module is that
story made runnable on the engine:

* **Streams are tables.**  :meth:`StreamStore.create_stream` makes an
  ordinary engine table under one of two table-level expiry policies --
  ``absolute`` (texp stamped at insert; the tumbling/sliding-window
  style) or ``since_last_modification`` (renewal-on-touch, Zeek-broker
  style: every touch routes through the engine's max-merge ``renew``, so
  activity keeps a row alive and idleness is what expires it).  Memory
  stays flat because retention *is* expiration -- no operator state, no
  window buffers, no eviction logic.

* **Standing queries are served from validity intervals.**  Each
  standing query caches its answer together with the Schrödinger
  validity interval ``I(e)`` of that answer, tolerance-widened as in
  :mod:`repro.core.approximate`, and re-evaluates only when the clock
  leaves ``I(e)``.  Arrivals fold in incrementally (an O(log n) heap
  push); a count's refresh drains the expirations since the last one
  and walks its next ``k`` deadlines instead of rescanning the stream.
  Revocations (``override``/delete) mark a query dirty through the
  table's delete listeners -- so a shortened lifetime is never served
  stale -- and only then, or on its first read, does a count rescan.

Queries shipped: windowed :class:`WindowedCount` and
:class:`DistinctCount` (exact on the arrival side, within the declared
tolerance on the expiration side), :class:`ReservoirSample` (bounded
reservoir over the unexpired set, refilled from live storage when
expiration drains it), :class:`ExtentAggregate` (diameter and greedy
k-center over a numeric attribute, validity-guarded via min/max
acceptance bands), and :class:`ThresholdWatch` (per-group distinct
counts against a threshold -- the scan-detection query the
network-monitoring example builds on).
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.approximate import EXACT_TOLERANCE, Tolerance
from repro.core.intervals import IntervalSet
from repro.core.schema import Schema
from repro.core.timestamps import INFINITY, Timestamp, ts
from repro.core.tuples import ExpiringTuple
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.table import Table
from repro.errors import EngineError

__all__ = [
    "CONNECTION_SCHEMA",
    "EVENT_SCHEMA",
    "StreamStore",
    "StandingQuery",
    "WindowedCount",
    "DistinctCount",
    "ReservoirSample",
    "ExtentAggregate",
    "ThresholdWatch",
    "declare_streaming_families",
]

#: Network-monitoring flavoured defaults (the example and bench use both).
CONNECTION_SCHEMA = Schema(["src", "dst", "dport"])
EVENT_SCHEMA = Schema(["key", "value"])


def declare_streaming_families(registry):
    """Idempotently register the ``repro_streaming_*`` metric families.

    Returns ``(events, touches, serves, refreshes, refresh_seconds,
    resident)``.  The serve counter's ``source`` label is the module's
    core claim made observable: ``cached`` serves re-evaluated nothing,
    ``refresh`` serves did -- and only because the clock left the
    answer's validity interval (or a revocation dirtied it).
    """
    events = registry.counter(
        "repro_streaming_events_total",
        "Stream events ingested, by stream.",
        labels=("stream",),
    )
    touches = registry.counter(
        "repro_streaming_touches_total",
        "Renewal-on-touch hits on since-last-modification streams.",
        labels=("stream",),
    )
    serves = registry.counter(
        "repro_streaming_query_serves_total",
        "Standing-query reads, by query and by whether the answer came "
        "from the cached validity interval or forced a refresh.",
        labels=("query", "source"),
    )
    refreshes = registry.counter(
        "repro_streaming_query_refreshes_total",
        "Standing-query re-evaluations, by query and cause (validity -- "
        "I(e) ran out -- versus revoked -- a delete/override dirtied it).",
        labels=("query", "cause"),
    )
    refresh_seconds = registry.histogram(
        "repro_streaming_refresh_seconds",
        "Wall time of standing-query refreshes (re-evaluations on read).",
    )
    resident = registry.gauge(
        "repro_streaming_resident_tuples",
        "Physically resident tuples per stream (the bounded-memory gate).",
        labels=("stream",),
    )
    return events, touches, serves, refreshes, refresh_seconds, resident


class _BoundSeries(dict):
    """``label value -> series`` of ``family`` under the leading labels
    ``prefix``: each bound once (no ``Family.labels`` per operation), and
    on first use (a series nothing updated is never exported)."""

    def __init__(self, family, *prefix: str) -> None:
        self.family = family
        self.prefix = prefix

    def __missing__(self, value: str):
        series = self[value] = self.family.labels(*self.prefix, value)
        return series


# -- standing queries --------------------------------------------------------


class StandingQuery:
    """A continuous query over one stream table, cached with its ``I(e)``.

    Subclasses implement :meth:`_refresh` (full re-evaluation at a given
    time, returning the new validity interval set) and
    :meth:`_serve` (produce the answer from incremental state).  The base
    class owns the serve/refresh protocol: a read refreshes only when the
    clock has left the cached validity interval or a revocation marked
    the query dirty; otherwise the cached state -- folded forward with
    the arrivals the listener observed -- is served as-is.
    """

    def __init__(self, store: "StreamStore", name: str, table: Table) -> None:
        self.store = store
        self.name = name
        self.table = table
        self._validity: Optional[IntervalSet] = None
        self._dirty = False
        self._dirty_cause = "revoked"
        self._served = _BoundSeries(store._serves, name)  # by source
        self._refreshed = _BoundSeries(store._refreshes, name)  # by cause
        table.insert_listeners.append(self._on_insert)
        table.delete_listeners.append(self._on_delete)

    # -- listener side (arrivals fold in, revocations dirty) ----------------

    def _on_insert(self, table: Table, stored) -> None:  # pragma: no cover -
        raise NotImplementedError  # overridden by every subclass

    def _on_delete(self, table: Table, row) -> None:
        # Conservative, like the materialised-view path: an override or
        # delete can remove tuples from the answer before their old texp,
        # which no validity interval computed earlier can know about.
        self._dirty = True
        self._dirty_cause = "revoked"

    # -- the serve/refresh protocol -----------------------------------------

    def read(self, at=None):
        """The standing answer at ``at`` (default: now).

        ``at`` may not precede the cached evaluation time -- standing
        queries only move forward with the stream.
        """
        tau = self.table.clock.now if at is None else ts(at)
        self._before_serve(tau)
        if self._dirty or self._validity is None or not self._validity.contains(tau):
            cause = self._dirty_cause if self._dirty else "validity"
            self._dirty_cause = "revoked"
            started = time.perf_counter()
            self._validity = self._refresh(tau)
            self.store._refresh_seconds.observe(time.perf_counter() - started)
            self._dirty = False
            self._refreshed[cause].inc()
            self._served["refresh"].inc()
        else:
            self._served["cached"].inc()
        return self._serve(tau)

    @property
    def validity(self) -> Optional[IntervalSet]:
        """The cached answer's ``I(e)`` (None before the first read)."""
        return self._validity

    def _before_serve(self, tau: Timestamp) -> None:
        """Pre-serve hook: fold expirations forward, possibly going dirty.

        Runs *before* the validity check, so a subclass that discovers
        mid-drain that its cached answer can no longer be bounded (an
        extent endpoint died, a reservoir drained) refreshes on this very
        read instead of serving one stale answer first.
        """

    def _refresh(self, tau: Timestamp) -> IntervalSet:
        raise NotImplementedError

    def _serve(self, tau: Timestamp):
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def _live_items(self, tau: Timestamp) -> List[Tuple[tuple, Timestamp]]:
        return [
            (row, texp)
            for row, texp in self.table.relation.items()
            if tau < texp
        ]

    def _replay_live(self, tau: Timestamp) -> None:
        """Feed every row live at ``tau`` through the insert listener."""
        for row, texp in self._live_items(tau):
            self._on_insert(self.table, ExpiringTuple(row, texp))


class WindowedCount(StandingQuery):
    """``COUNT(*)`` over the unexpired stream, within ``tolerance``.

    The count keeps its own expiration heap across refreshes.  Arrivals
    are exact: a new unit (here the row itself) bumps the served count
    until it expires, which serving drains off the heap; expirations of
    the units counted at the last refresh ride the tolerance, so the total
    error is bounded by it.  A refresh drains what expired since the last
    one, then walks the next deadlines until the drop leaves the band:
    ``O((expired + k) log n)``, ``k = 1`` when exact.  Only the first read
    and a revocation rescan the stream.
    """

    #: Schema index of the counted attribute; ``None`` counts whole rows.
    attribute: Optional[int] = None

    def __init__(
        self,
        store: "StreamStore",
        name: str,
        table: Table,
        tolerance: Tolerance = EXACT_TOLERANCE,
    ) -> None:
        self.tolerance = tolerance
        #: units counted at the last refresh
        self._base = 0
        #: unit -> texp of every counted unit (max-merged: renewals don't
        #: double-count)
        self._texps: Dict[Any, Timestamp] = {}
        #: min-heap of finite deadlines, and the units filed under each; a
        #: filed unit is live iff _texps still maps it to that deadline
        self._deadlines: List[Timestamp] = []
        self._due: Dict[Timestamp, List[Any]] = {}
        #: units that arrived since the last refresh and are still live
        self._arrived: set = set()
        #: units counted in _base found expired while serving; their dict
        #: entries stay (a re-insert is a renewal) until the next refresh
        self._lapsed: List[Any] = []
        super().__init__(store, name, table)

    def _on_insert(self, table: Table, stored) -> None:
        unit = stored.row if self.attribute is None else stored.row[self.attribute]
        texp = stored.expires_at
        current = self._texps.get(unit)
        if current is None:
            self._arrived.add(unit)
        elif texp <= current:
            return  # a renewal the max-merge swallowed: nothing moved
        self._texps[unit] = texp
        if texp != INFINITY:
            due = self._due.get(texp)
            if due is None:
                self._due[texp] = [unit]
                heapq.heappush(self._deadlines, texp)
            else:
                due.append(unit)

    def _refresh(self, tau: Timestamp) -> IntervalSet:
        if self._dirty or self._validity is None:
            # First read or revocation: rebuild from the live stream.
            self._texps, self._deadlines, self._due = {}, [], {}
            self._replay_live(tau)
        else:
            self._drain(tau)
            texps = self._texps
            for unit in self._lapsed:  # unless renewed (or dropped) since
                if texps.get(unit, INFINITY) <= tau:
                    del texps[unit]
        self._arrived, self._lapsed = set(), []
        self._base = count = len(self._texps)
        if not count:
            # An empty stream stays empty until an arrival -- which the
            # insert listener folds in without invalidating anything.
            return IntervalSet.from_onwards(tau)
        return IntervalSet.single(tau, self._horizon(count))

    def _horizon(self, count: int) -> Timestamp:
        """The end of ``I(e)``: the first deadline at which the drop
        leaves the tolerance band, found by a best-first walk over heap
        indices (nothing is popped).  Failing that, the partition's
        death: ``∞`` if some unit is immortal, else the largest texp."""
        heap, due, texps = self._deadlines, self._due, self._texps
        accepts = self.tolerance.accepts
        size = len(heap)
        frontier = [(heap[0], 0)] if heap else []
        dropped = 0
        while frontier:
            deadline, index = heapq.heappop(frontier)
            for child in (2 * index + 1, 2 * index + 2):
                if child < size:
                    heapq.heappush(frontier, (heap[child], child))
            for unit in due[deadline]:
                if texps.get(unit) == deadline:
                    dropped += 1
            if not accepts(count, count - dropped):
                return deadline
        return max(texps.values())  # the walk saw every finite one anyway

    def _drain(self, tau: Timestamp) -> None:
        deadlines = self._deadlines
        while deadlines and deadlines[0] <= tau:
            texp = heapq.heappop(deadlines)
            texps, arrived = self._texps, self._arrived
            for unit in self._due.pop(texp):
                if texps.get(unit) != texp:
                    continue  # tombstone: renewed since, or already dropped
                if unit in arrived:
                    arrived.discard(unit)
                    del texps[unit]
                else:
                    self._lapsed.append(unit)

    def _serve(self, tau: Timestamp) -> int:
        self._drain(tau)
        return self._base + len(self._arrived)


class DistinctCount(WindowedCount):
    """``COUNT(DISTINCT attribute)`` over the unexpired stream.

    :class:`WindowedCount` counting values of one attribute, each alive
    while any row carrying it is: the per-value max expiration is the
    model's max-merge projection (Theorem 1: arrivals are pure deltas).
    """

    def __init__(
        self,
        store: "StreamStore",
        name: str,
        table: Table,
        attribute: Any,
        tolerance: Tolerance = EXACT_TOLERANCE,
    ) -> None:
        self.attribute = table.schema.index(attribute)
        super().__init__(store, name, table, tolerance)

    # Bound in this class too, so per-class instrumentation can wrap it.
    _refresh = WindowedCount._refresh


class ReservoirSample(StandingQuery):
    """A bounded uniform-ish sample of the unexpired stream (GESM §sampling).

    Arrivals run classic Algorithm R against the arrivals-since-refill
    stream; expired members are evicted on read (an O(1) stored-
    expiration probe each) and, when eviction drains the reservoir below
    half capacity, it is refilled by a uniform draw from live storage --
    the expiring-stream analogue of a restart, counted in
    ``repro_streaming_query_refreshes_total`` like any other rescan.
    Membership is always a subset of the live stream; uniformity is
    approximate between refills (heterogeneous TTLs skew long-lived
    tuples upward, exactly the effect the GESM paper studies).
    """

    def __init__(
        self,
        store: "StreamStore",
        name: str,
        table: Table,
        capacity: int,
        rng: Optional[random.Random] = None,
    ) -> None:
        if capacity <= 0:
            raise EngineError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.rng = rng if rng is not None else random.Random(0x5EED)
        self._members: List[tuple] = []
        self._arrivals = 0
        super().__init__(store, name, table)

    def _on_insert(self, table: Table, stored) -> None:
        self._arrivals += 1
        if len(self._members) < self.capacity:
            if stored.row not in self._members:
                self._members.append(stored.row)
            return
        slot = self.rng.randrange(self._arrivals)
        if slot < self.capacity:
            self._members[slot] = stored.row

    def _alive(self, row: tuple, tau: Timestamp) -> bool:
        texp = self.table.relation.expiration_or_none(row)
        return texp is not None and tau < texp

    def _refresh(self, tau: Timestamp) -> IntervalSet:
        live = [row for row, _ in self._live_items(tau)]
        fits = len(live) <= self.capacity
        self._members = live if fits else self.rng.sample(live, self.capacity)
        self._arrivals = len(live)
        # The reservoir's own validity: it degrades gracefully (members
        # just vanish as they expire), so only *depletion* forces the next
        # refill -- modelled as dirtiness in _serve, not as an interval.
        return IntervalSet.from_onwards(tau)

    def _before_serve(self, tau: Timestamp) -> None:
        self._members = [r for r in self._members if self._alive(r, tau)]
        if (
            len(self._members) < max(1, self.capacity // 2)
            and len(self.table) > len(self._members)
        ):
            self._dirty = True  # depleted: refill (a fresh uniform draw)
            self._dirty_cause = "depleted"

    def _serve(self, tau: Timestamp) -> List[tuple]:
        return list(self._members)


class ExtentAggregate(StandingQuery):
    """Diameter (max - min) of a numeric attribute, within ``tolerance``.

    A refresh computes the true min and max over the live stream and, in
    one pass, the intersection of their tolerance-widened validities (as
    :func:`~repro.core.approximate.approximate_validity` gives them): the
    cached extent is served until *either* endpoint drifts out of band.
    Arrivals fold in exactly -- a value outside ``[lo, hi]`` widens it
    at once -- and park their expiration on a heap; an expiring arrival
    that carried an endpoint dirties the query (the extent may shrink,
    which only a rescan can bound).
    """

    def __init__(
        self,
        store: "StreamStore",
        name: str,
        table: Table,
        attribute: Any,
        tolerance: Tolerance = EXACT_TOLERANCE,
    ) -> None:
        self.attribute = table.schema.index(attribute)
        self.tolerance = tolerance
        self._lo: Optional[Any] = None
        self._hi: Optional[Any] = None
        self._pending: List[Tuple[Timestamp, Any]] = []
        super().__init__(store, name, table)

    def _on_insert(self, table: Table, stored) -> None:
        value = stored.row[self.attribute]
        if self._lo is None or value < self._lo:
            self._lo = value
        if self._hi is None or value > self._hi:
            self._hi = value
        if stored.expires_at != INFINITY:
            heapq.heappush(self._pending, (stored.expires_at, value))

    def _refresh(self, tau: Timestamp) -> IntervalSet:
        index = self.attribute
        items = [(row[index], texp) for row, texp in self._live_items(tau)]
        self._pending = []
        if not items:
            self._lo = self._hi = None
            return IntervalSet.from_onwards(tau)
        self._lo, self._hi = lo, hi = min(items)[0], max(items)[0]
        # Expiration only raises the minimum and lowers the maximum, so an
        # endpoint stays in band while a member whose value the tolerance
        # accepts against it lives: until the largest such member's texp.
        accepts = self.tolerance.accepts
        lo_end = hi_end = tau
        for value, texp in items:
            if texp > lo_end and accepts(lo, value):
                lo_end = texp
            if texp > hi_end and accepts(hi, value):
                hi_end = texp
        return IntervalSet.single(tau, min(lo_end, hi_end))

    def _before_serve(self, tau: Timestamp) -> None:
        while self._pending and self._pending[0][0] <= tau:
            _, value = heapq.heappop(self._pending)
            if self._lo is not None and (value == self._lo or value == self._hi):
                # An endpoint-carrying arrival died: the extent may have
                # shrunk in a way no precomputed band bounds -- rescan.
                self._dirty = True
                self._dirty_cause = "drift"

    def _serve(self, tau: Timestamp) -> Optional[Any]:
        if self._lo is None:
            return None
        return self._hi - self._lo

    def k_center(self, k: int, at=None) -> Tuple[List[Any], Any]:
        """Greedy farthest-point ``k``-centers over the live values.

        The 2-approximation (Gonzalez) the GESM paper adapts to expiring
        streams, run here over the unexpired set: returns ``(centers,
        radius)`` where every live value is within ``radius`` of some
        center.  ``(([], 0))`` on an empty stream.
        """
        if k <= 0:
            raise EngineError(f"k must be positive, got {k}")
        tau = self.table.clock.now if at is None else ts(at)
        values = sorted(
            {row[self.attribute] for row, _ in self._live_items(tau)}
        )
        if not values:
            return [], 0
        centers = [values[0]]
        while len(centers) < k and len(centers) < len(values):
            farthest = max(
                values, key=lambda v: min(abs(v - c) for c in centers)
            )
            if any(farthest == c for c in centers):
                break
            centers.append(farthest)
        radius = max(min(abs(v - c) for c in centers) for v in values)
        return centers, radius


class ThresholdWatch(StandingQuery):
    """Per-group distinct counts against a threshold (scan detection).

    For each value of ``group_by``, how many distinct values of
    ``distinct`` are live -- e.g. per source address, the number of
    distinct ``(dst, dport)`` targets probed inside the window.  Groups
    at or above ``threshold`` are the alerts.  Maintenance is pure
    max-merge per ``(group, value)`` (a monotonic projection, so arrivals
    are deltas); expired entries are pruned lazily as groups are read.
    """

    def __init__(
        self,
        store: "StreamStore",
        name: str,
        table: Table,
        group_by: Any,
        distinct: Sequence[Any],
        threshold: int,
    ) -> None:
        if threshold <= 0:
            raise EngineError(f"threshold must be positive, got {threshold}")
        self.group_index = table.schema.index(group_by)
        self.distinct_indexes = tuple(table.schema.index(a) for a in distinct)
        self.threshold = threshold
        self._groups: Dict[Any, Dict[tuple, Timestamp]] = {}
        super().__init__(store, name, table)

    def _key(self, row: tuple) -> Tuple[Any, tuple]:
        return (
            row[self.group_index],
            tuple(row[i] for i in self.distinct_indexes),
        )

    def _on_insert(self, table: Table, stored) -> None:
        group, value = self._key(stored.row)
        bucket = self._groups.setdefault(group, {})
        current = bucket.get(value)
        if current is None or current < stored.expires_at:
            bucket[value] = stored.expires_at

    def _refresh(self, tau: Timestamp) -> IntervalSet:
        self._groups = {}
        self._replay_live(tau)
        # Counts are pruned per serve; only revocations need a rescan.
        return IntervalSet.from_onwards(tau)

    def _serve(self, tau: Timestamp) -> Dict[Any, int]:
        counts: Dict[Any, int] = {}
        for group in list(self._groups):
            bucket = self._groups[group]
            for value in [v for v, texp in bucket.items() if texp <= tau]:
                del bucket[value]
            if bucket:
                counts[group] = len(bucket)
            else:
                del self._groups[group]
        return counts

    def alerts(self, at=None) -> Dict[Any, int]:
        """Groups whose live distinct count meets the threshold."""
        counts = self.read(at)
        return {
            group: count
            for group, count in counts.items()
            if count >= self.threshold
        }


# -- the store ---------------------------------------------------------------


class StreamStore:
    """Expiring streams plus standing queries on the engine.

    >>> store = StreamStore()
    >>> _ = store.create_stream("events", EVENT_SCHEMA, ttl=10)
    >>> hits = store.count("events")
    >>> store.ingest("events", (1, 7))
    >>> store.ingest("events", (2, 9), ttl=3)
    >>> hits.read()
    2
    >>> _ = store.database.tick(5)      # the short-lived event expired
    >>> hits.read()
    1
    >>> _ = store.create_stream(
    ...     "conns", CONNECTION_SCHEMA, ttl=4,
    ...     expiry="since_last_modification")
    >>> store.ingest("conns", ("10.0.0.1", "10.0.0.9", 443))
    >>> _ = store.database.tick(3)
    >>> _ = store.touch("conns", ("10.0.0.1", "10.0.0.9", 443))
    >>> _ = store.database.tick(3)      # idle timeout restarted: still live
    >>> len(store.stream("conns"))
    1
    """

    def __init__(self, database: Optional[Database] = None) -> None:
        self.database = database if database is not None else Database()
        self._queries: Dict[str, StandingQuery] = {}
        (
            events,
            touches,
            self._serves,
            self._refreshes,
            self._refresh_seconds,
            resident,
        ) = declare_streaming_families(self.database.metrics)
        #: per-stream series, keyed by stream name
        self._events = _BoundSeries(events)
        self._touches = _BoundSeries(touches)
        self._resident = _BoundSeries(resident)

    # -- streams -------------------------------------------------------------

    def create_stream(
        self,
        name: str,
        schema: Schema,
        ttl: int,
        expiry: str = "absolute",
        partitions: Optional[int] = None,
        partition_key: Optional[Any] = None,
        layout: str = "row",
        removal_policy: Optional[RemovalPolicy] = None,
        lazy_batch_size: int = 256,
    ) -> Table:
        """Register a stream: a table whose rows default to ``ttl`` ticks.

        Attaches to an existing table of the same name (a store over a
        recovered database is the same store).  ``expiry`` picks the
        policy: ``absolute`` windows, or ``since_last_modification`` for
        idle-timeout streams whose :meth:`touch` restarts the timer.
        """
        db = self.database
        if name in db.table_names():
            return db.table(name)
        return db.create_table(
            name,
            schema,
            removal_policy=removal_policy,
            lazy_batch_size=lazy_batch_size,
            partitions=partitions,
            partition_key=partition_key,
            layout=layout,
            expiry=expiry,
            default_ttl=ttl,
        )

    def stream(self, name: str) -> Table:
        return self.database.table(name)

    def ingest(self, name: str, row: tuple, ttl: Optional[int] = None) -> None:
        """One arrival: an insert whose texp is arrival + window/TTL."""
        table = self.stream(name)
        table.insert(row, ttl=ttl)
        self._events[name].inc()
        self._resident[name].set(table.physical_size)

    def touch(self, name: str, row: tuple, ttl: Optional[int] = None) -> bool:
        """Activity on a since-last-modification stream: restart the timer.

        Returns whether the row was live (a dead or absent row is not
        revived; on absolute streams this is always a no-op).
        """
        touched = self.stream(name).touch(row, ttl=ttl)
        if touched is not None:
            self._touches[name].inc()
        return touched is not None

    def resident_tuples(self, name: str) -> int:
        """Physically resident rows (expired-but-unswept included)."""
        table = self.stream(name)
        size = table.physical_size
        self._resident[name].set(size)
        return size

    # -- standing queries ----------------------------------------------------

    def _register(self, query: StandingQuery) -> StandingQuery:
        if query.name in self._queries:
            raise EngineError(f"standing query {query.name!r} already exists")
        self._queries[query.name] = query
        return query

    def query(self, name: str) -> StandingQuery:
        return self._queries[name]

    def count(
        self,
        stream: str,
        tolerance: Tolerance = EXACT_TOLERANCE,
        name: Optional[str] = None,
    ) -> WindowedCount:
        """A standing windowed count over the stream."""
        name = name if name is not None else f"{stream}:count"
        return self._register(
            WindowedCount(self, name, self.stream(stream), tolerance)
        )

    def distinct(
        self,
        stream: str,
        attribute: Any,
        tolerance: Tolerance = EXACT_TOLERANCE,
        name: Optional[str] = None,
    ) -> DistinctCount:
        """A standing distinct-count of one attribute over the stream."""
        name = name if name is not None else f"{stream}:distinct:{attribute}"
        return self._register(
            DistinctCount(self, name, self.stream(stream), attribute, tolerance)
        )

    def sample(
        self,
        stream: str,
        capacity: int,
        rng: Optional[random.Random] = None,
        name: Optional[str] = None,
    ) -> ReservoirSample:
        """A bounded reservoir sample of the unexpired stream."""
        name = name if name is not None else f"{stream}:sample"
        return self._register(
            ReservoirSample(self, name, self.stream(stream), capacity, rng)
        )

    def extent(
        self,
        stream: str,
        attribute: Any,
        tolerance: Tolerance = EXACT_TOLERANCE,
        name: Optional[str] = None,
    ) -> ExtentAggregate:
        """A standing diameter/k-center extent over a numeric attribute."""
        name = name if name is not None else f"{stream}:extent:{attribute}"
        return self._register(
            ExtentAggregate(self, name, self.stream(stream), attribute, tolerance)
        )

    def watch(
        self,
        stream: str,
        group_by: Any,
        distinct: Sequence[Any],
        threshold: int,
        name: Optional[str] = None,
    ) -> ThresholdWatch:
        """A per-group distinct-count threshold query (scan detection)."""
        name = name if name is not None else f"{stream}:watch:{group_by}"
        return self._register(
            ThresholdWatch(
                self, name, self.stream(stream), group_by, distinct, threshold
            )
        )
