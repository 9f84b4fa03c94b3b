"""Relations with per-tuple expiration times.

A relation ``R`` in the paper's model is a finite *set* of tuples together
with a function ``texp_R`` assigning each tuple an expiration time; the
restriction operator

    ``exp_τ(R) = { r | r ∈ R ∧ texp_R(r) > τ }``

yields the tuples unexpired at time ``τ``.  :class:`Relation` realises this
as a mapping from rows to timestamps.

Set semantics and duplicate policy
----------------------------------

The model is set-based (the SPCU algebra of Abiteboul/Hull/Vianu).  When the
same row is inserted twice with different expiration times, the relation
keeps the **maximum** -- this is forced by the paper's duplicate-elimination
rules: projection assigns a merged tuple "the maximum expiration time of all
its duplicates", and union assigns ``max{texp_R(t), texp_S(t)}`` to a tuple
present in both arguments.  Re-inserting a row therefore *extends* its
lifetime, never shortens it; an explicit :meth:`Relation.override` exists
for administrative corrections.

Equality probes
---------------

:meth:`Relation.rows_where` answers "which rows have value ``c`` in
attribute ``i``" from a per-attribute hash index built on the first probe
of that attribute.  Every mutator keeps the built buckets current, so an
unprobed relation pays one falsy check per mutation and nothing else.
Copies and ``exp_τ`` results start without an index.
"""

from __future__ import annotations

from typing import (
    Any, Collection, Dict, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Tuple,
)

from repro.core.schema import Schema, anonymous_schema
from repro.core.timestamps import INFINITY, TimeLike, Timestamp, ts, ts_max, ts_min
from repro.core.tuples import ExpiringTuple, Row, make_row
from repro.errors import RelationError, SchemaError

__all__ = ["Relation", "bucket_rows", "relation_from_rows"]

#: One attribute's equality index: value -> the rows holding it, as an
#: insertion-ordered dict used as a set (keys only).
Buckets = Dict[Any, Dict[Row, None]]


def bucket_rows(rows: Iterable[Row], index: int) -> Buckets:
    """Group ``rows`` by attribute ``index`` (0-based), keeping their order.

    The from-scratch form of the index :meth:`Relation.rows_where` keeps
    incrementally; a bucket's rows come out in storage order, so a probe
    visits matches in exactly the order a scan would.
    """
    grouped: Buckets = {}
    for row in rows:
        value = row[index]
        bucket = grouped.get(value)
        if bucket is None:
            grouped[value] = {row: None}
        else:
            bucket[row] = None
    return grouped


class Relation:
    """A set of rows, each with an expiration time.

    >>> pol = Relation(Schema(["uid", "deg"]))
    >>> _ = pol.insert((1, 25), expires_at=10)
    >>> _ = pol.insert((2, 25), expires_at=15)
    >>> sorted(pol.rows())
    [(1, 25), (2, 25)]
    >>> pol.expiration_of((1, 25))
    Timestamp(10)
    >>> sorted(pol.exp_at(12).rows())
    [(2, 25)]
    """

    __slots__ = ("schema", "_tuples", "_buckets")

    def __init__(
        self,
        schema: Schema | Sequence[str] | int,
        tuples: Optional[Mapping[Row, Timestamp]] = None,
    ) -> None:
        if isinstance(schema, Schema):
            self.schema = schema
        elif isinstance(schema, int):
            self.schema = anonymous_schema(schema)
        else:
            self.schema = Schema(schema)
        self._tuples: Dict[Row, Timestamp] = {}
        #: attribute index -> its equality buckets, for probed attributes
        #: only; ``None`` until the first :meth:`rows_where`.
        self._buckets: Optional[Dict[int, Buckets]] = None
        if tuples:
            for row, stamp in tuples.items():
                self.insert(row, expires_at=stamp)

    # -- construction --------------------------------------------------------

    @classmethod
    def _from_trusted(
        cls, schema: Schema, tuples: Dict[Row, Timestamp]
    ) -> "Relation":
        """Adopt an already-validated ``row -> expiration`` mapping.

        The trusted fast path behind :meth:`exp_at`, :meth:`copy`, and the
        compiled evaluator's bulk kernels: rows must already be hashable
        tuples of the schema's arity with :class:`Timestamp` expirations,
        and duplicate merging must already have happened (a dict cannot
        hold duplicates).  The mapping is adopted, not copied.
        """
        relation = cls.__new__(cls)
        relation.schema = schema
        relation._tuples = tuples
        relation._buckets = None
        return relation

    def bulk_load(self, pairs: Iterable[Tuple[Row, Timestamp]]) -> int:
        """Max-merge many already-trusted ``(row, expiration)`` pairs.

        Rows must be hashable tuples of the right arity and expirations
        :class:`Timestamp` instances (e.g. pairs drained from another
        relation's :meth:`items`); the per-row ``make_row`` + arity check of
        :meth:`insert` is skipped.  Duplicates keep the later expiration,
        exactly like :meth:`insert`.  Returns the number of pairs loaded.
        """
        tuples = self._tuples
        get = tuples.get
        indexed = bool(self._buckets)
        count = 0
        for row, stamp in pairs:
            existing = get(row)
            if existing is None:
                tuples[row] = stamp
                if indexed:
                    self._index_add(row)
            elif existing < stamp:
                tuples[row] = stamp
            count += 1
        return count

    def bulk_restore(
        self, ops: Iterable[Tuple[Row, Optional[Timestamp]]]
    ) -> None:
        """Apply trusted ``(row, texp-or-None)`` ops with override semantics.

        ``None`` deletes the row; anything else sets its expiration
        unconditionally (no max-merge).  This is the WAL-replay fast path:
        rows are already-validated hashable tuples, so the per-record
        ``make_row`` + arity check of :meth:`override`/:meth:`delete` is
        skipped.
        """
        tuples = self._tuples
        indexed = bool(self._buckets)
        for row, stamp in ops:
            if stamp is None:
                if tuples.pop(row, None) is not None and indexed:
                    self._index_discard(row)
            else:
                if indexed and row not in tuples:
                    self._index_add(row)
                tuples[row] = stamp

    def _sweep_due(
        self,
        due: Iterable[Tuple[Row, Any]],
        now: Timestamp,
        collect: bool = False,
    ) -> Tuple[int, List[Tuple[Row, Any]]]:
        """Bulk arm of the engine's expiration sweep.

        ``due`` holds index-reported ``(row, scheduled)`` entries; a row is
        removed when its *stored* expiration is ``<= now``.  Entries whose
        lifetime was max-merge-renewed after they were scheduled never
        expired and are skipped.  Returns ``(processed, expired)`` where
        ``expired`` echoes the due entries actually removed (the ON-EXPIRE
        trigger payload) when ``collect`` is set.
        """
        tuples = self._tuples
        get = tuples.get
        indexed = bool(self._buckets)
        expired: List[Tuple[Row, Any]] = []
        processed = 0
        for row, scheduled in due:
            current = get(row)
            if current is None or now < current:
                continue
            del tuples[row]
            if indexed:
                self._index_discard(row)
            processed += 1
            if collect:
                expired.append((row, scheduled))
        return processed, expired

    def insert(self, values: Iterable[Any], expires_at: TimeLike = None) -> ExpiringTuple:
        """Insert a row; a duplicate keeps the later expiration time.

        ``expires_at=None`` means no expiration (``∞``), retaining textbook
        semantics.  Returns the stored :class:`ExpiringTuple` so callers can
        see the effective (possibly merged) expiration.
        """
        row = make_row(values)
        self._check_arity(row)
        stamp = ts(expires_at)
        existing = self._tuples.get(row)
        if existing is None:
            if self._buckets:
                self._index_add(row)
        elif stamp < existing:
            stamp = existing
        self._tuples[row] = stamp
        return ExpiringTuple(row, stamp)

    def override(self, values: Iterable[Any], expires_at: TimeLike) -> ExpiringTuple:
        """Set a row's expiration unconditionally (admin correction path)."""
        row = make_row(values)
        self._check_arity(row)
        stamp = ts(expires_at)
        if self._buckets and row not in self._tuples:
            self._index_add(row)
        self._tuples[row] = stamp
        return ExpiringTuple(row, stamp)

    def delete(self, values: Iterable[Any]) -> bool:
        """Explicitly remove a row; returns whether it was present."""
        row = make_row(values)
        if self._tuples.pop(row, None) is None:
            return False
        if self._buckets:
            self._index_discard(row)
        return True

    def _check_arity(self, row: Row) -> None:
        if len(row) != self.schema.arity:
            raise RelationError(
                f"arity mismatch: row {row!r} has {len(row)} values, "
                f"schema expects {self.schema.arity}"
            )

    # -- the model's primitives ------------------------------------------------

    def exp_at(self, tau: TimeLike) -> "Relation":
        """The paper's ``exp_τ(R)``: tuples with ``texp_R(r) > τ``.

        Returns a new relation; the receiver is unchanged (lazy physical
        removal is the engine's concern, see ``repro.engine``).
        """
        stamp = ts(tau)
        survivors = {
            row: texp for row, texp in self._tuples.items() if stamp < texp
        }
        return Relation._from_trusted(self.schema, survivors)

    def expiration_of(self, values: Iterable[Any]) -> Timestamp:
        """The function ``texp_R(r)``; raises if the row is absent."""
        row = make_row(values)
        try:
            return self._tuples[row]
        except KeyError:
            raise RelationError(f"row {row!r} not in relation") from None

    def expiration_or_none(self, values: Iterable[Any]) -> Optional[Timestamp]:
        """Like :meth:`expiration_of` but ``None`` for absent rows."""
        return self._tuples.get(make_row(values))

    def purge_expired(self, tau: TimeLike) -> int:
        """Physically remove tuples expired at ``τ``; returns the count.

        This is the *eager/lazy removal* hook of Section 3.2: ``exp_at``
        keeps expired tuples invisible; ``purge_expired`` reclaims them.
        """
        stamp = ts(tau)
        doomed = [row for row, texp in self._tuples.items() if texp <= stamp]
        indexed = bool(self._buckets)
        for row in doomed:
            del self._tuples[row]
            if indexed:
                self._index_discard(row)
        return len(doomed)

    # -- equality probes -----------------------------------------------------

    def rows_where(self, index: int, value: Any) -> Collection[Row]:
        """The stored rows whose attribute ``index`` (0-based) equals ``value``.

        Expired-but-unswept rows are included (filter on ``texp`` as a
        scan would).  The first call for an attribute builds its buckets
        (one dict entry per stored row); from then on every mutator keeps
        them current.  Equality is Python's, so ``1``, ``1.0`` and
        ``True`` share a bucket.  The result is the live bucket, in
        storage order: read it, and copy it before mutating the relation.
        Flat row relations only -- the columnar and sharded subclasses
        store their rows elsewhere and never build an index.
        """
        indexes = self._buckets
        if indexes is None:
            indexes = self._buckets = {}
        buckets = indexes.get(index)
        if buckets is None:
            buckets = indexes[index] = bucket_rows(self._tuples, index)
        return buckets.get(value, ())

    def _index_add(self, row: Row) -> None:
        for index, buckets in self._buckets.items():
            value = row[index]
            bucket = buckets.get(value)
            if bucket is None:
                buckets[value] = {row: None}
            else:
                bucket[row] = None

    def _index_discard(self, row: Row) -> None:
        for index, buckets in self._buckets.items():
            value = row[index]
            bucket = buckets[value]
            del bucket[row]
            if not bucket:
                del buckets[value]

    # -- whole-relation statistics -------------------------------------------

    def earliest_expiration(self) -> Timestamp:
        """``min`` of all tuple expirations; ``∞`` when empty."""
        return ts_min(self._tuples.values())

    def latest_expiration(self) -> Timestamp:
        """``max`` of all tuple expirations; ``Timestamp(0)`` when empty.

        This is the paper's "when has the whole partition expired" bound:
        ``min{τ' | exp_τ'(P) = ∅} = max{texp_P(t) | t ∈ P}``.
        """
        return ts_max(self._tuples.values())

    # -- iteration & access ------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """Iterate over the rows (no expiration times -- the query view)."""
        return iter(self._tuples)

    def items(self) -> Iterator[Tuple[Row, Timestamp]]:
        """Iterate over ``(row, expiration)`` pairs."""
        return iter(self._tuples.items())

    def expiring_tuples(self) -> Iterator[ExpiringTuple]:
        """Iterate over :class:`ExpiringTuple` views of the content."""
        for row, stamp in self._tuples.items():
            yield ExpiringTuple(row, stamp)

    def contains(self, values: Iterable[Any]) -> bool:
        """Whether the row is present (regardless of expiration)."""
        return make_row(values) in self._tuples

    def __contains__(self, values: Iterable[Any]) -> bool:
        return self.contains(values)

    @property
    def arity(self) -> int:
        """Number of attributes, the paper's ``α(R)``."""
        return self.schema.arity

    def __len__(self) -> int:
        return len(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    # -- copies & equality ----------------------------------------------------

    def copy(self) -> "Relation":
        """A deep-enough copy (rows are immutable, so a dict copy suffices)."""
        return Relation._from_trusted(self.schema, dict(self._tuples))

    def same_content(self, other: "Relation") -> bool:
        """Equality of rows *and* expiration times (schema names ignored).

        The theorems of the paper quantify over relation contents, not
        attribute naming, so content equality is the right notion for
        checking ``exp_τ'(e) == exp_τ'(exp_τ(e))``.
        """
        if self.schema.arity != other.schema.arity:
            return False
        return self._tuples == other._tuples

    def same_rows(self, other: "Relation") -> bool:
        """Equality of the row sets, ignoring expiration times."""
        if self.schema.arity != other.schema.arity:
            return False
        return set(self._tuples) == set(other._tuples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and self._tuples == other._tuples

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("relations are mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"Relation(schema={list(self.schema.names)!r}, "
            f"tuples={len(self._tuples)})"
        )

    def pretty(self, title: str = "") -> str:
        """A small fixed-width rendering in the style of the paper's figures.

        The expiration-time column is set apart (``texp(.)``) to mirror the
        paper's convention that it is not a user-accessible attribute.
        """
        header = ["texp(.)"] + list(self.schema.names)
        body_rows = sorted(
            ([str(stamp)] + [repr(v) for v in row] for row, stamp in self._tuples.items()),
            key=lambda cells: cells[1:],
        )
        widths = [len(h) for h in header]
        for cells in body_rows:
            for i, cell in enumerate(cells):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if title:
            lines.append(title)
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for cells in body_rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        if not body_rows:
            lines.append("(empty)")
        return "\n".join(lines)


def relation_from_rows(
    schema: Schema | Sequence[str] | int,
    rows: Iterable[Tuple[Sequence[Any], TimeLike]],
) -> Relation:
    """Convenience constructor from ``(values, expires_at)`` pairs.

    >>> rel = relation_from_rows(["uid", "deg"], [((1, 25), 10), ((2, 25), 15)])
    >>> len(rel)
    2
    """
    relation = Relation(schema)
    for values, expires_at in rows:
        relation.insert(values, expires_at=expires_at)
    return relation
