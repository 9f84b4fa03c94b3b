"""Incremental maintenance of materialised views under base *updates*.

The paper assumes "that there are no updates to the source data" and names
lifting that restriction as future work, pointing at the classical
incremental view-maintenance literature (its references [5], [23]).  This
module implements insert-propagation on top of the expiration machinery:

* **Monotonic, base-linear expressions** (each base relation referenced at
  most once): an insert of tuple ``t`` into base ``B`` contributes exactly
  ``e(catalog[B := {t}])`` -- the algebra's operators all distribute over
  union on insertion deltas, and the expiration rules (min for ×/⋈/∩, max
  merging for π/∪) are preserved because the delta is evaluated by the
  ordinary evaluator and merged with the state's max rule.
* **Difference** ``L −exp R`` over monotonic, base-disjoint sides: a
  left-side delta row enters the view unless currently matched in R (in
  which case it becomes a *patch*, due when the match expires); a
  right-side delta row can knock a visible tuple out of the view --
  re-scheduling it as a patch if it outlives the new match.  These rules
  live in :class:`~repro.core.patching.PatchedDifference`, which a PATCH
  :class:`~repro.engine.views.MaterialisedView` shares.
* **Aggregation** over a monotonic, base-linear child: the child state is
  maintained incrementally and only the *affected partitions* are
  re-aggregated.

Explicit deletes (as opposed to expirations, which need no action at all)
mark the view stale; the next read falls back to a full refresh.  An
:class:`IncrementalView` therefore answers every read as if freshly
recomputed, while touching only deltas on the hot path -- the bench
``bench_incremental_updates.py`` counts the work saved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Set, Tuple

from repro.core.aggregates import get_aggregate, strategy_expiration
from repro.core.algebra.evaluator import Evaluator
from repro.core.algebra.expressions import (
    Aggregate,
    BaseRef,
    Difference,
    Expression,
    Literal,
)
from repro.core.patching import PatchedDifference
from repro.core.relation import Relation
from repro.core.timestamps import TimeLike, Timestamp, ts
from repro.core.tuples import ExpiringTuple, Row, make_row
from repro.errors import ViewError

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.engine.database import Database

__all__ = ["IncrementalView", "absorb_insert", "insert_delta", "supports_incremental"]


def _is_base_linear(expression: Expression) -> bool:
    """Each base relation referenced at most once in the whole tree."""
    names = [
        node.name for node in expression.walk() if isinstance(node, BaseRef)
    ]
    return len(names) == len(set(names))


def supports_incremental(expression: Expression) -> bool:
    """Whether :class:`IncrementalView` can maintain this expression."""
    if expression.is_monotonic():
        return _is_base_linear(expression)
    if isinstance(expression, Difference):
        left, right = expression.left, expression.right
        return (
            left.is_monotonic()
            and right.is_monotonic()
            and _is_base_linear(left)
            and _is_base_linear(right)
            and not (left.base_names() & right.base_names())
        )
    if isinstance(expression, Aggregate):
        return expression.child.is_monotonic() and _is_base_linear(expression.child)
    return False


def insert_delta(
    database: "Database",
    expression: Expression,
    base_name: str,
    stored: ExpiringTuple,
    now: Timestamp,
) -> Relation:
    """``expression`` with base ``base_name`` replaced by the one inserted tuple.

    For a monotonic expression that references ``base_name`` once, this is
    exactly what the insert adds to the expression's result.
    """
    singleton = Relation(database.table(base_name).schema)
    singleton.insert(stored.row, expires_at=stored.expires_at)

    def catalog(name: str) -> Relation:
        if name == base_name:
            return singleton
        return database.table(name).relation

    return Evaluator(catalog, now).evaluate(expression).relation


def absorb_insert(
    database: "Database",
    difference: Difference,
    patched: PatchedDifference,
    base_name: str,
    stored: ExpiringTuple,
    now: Timestamp,
) -> bool:
    """Apply one base insert to the patched state of ``difference``.

    Returns ``False`` when a bounded patch queue has no room for it (see
    :meth:`PatchedDifference.absorb_left`); nothing changed then.
    """
    if base_name in difference.left.base_names():
        delta = insert_delta(database, difference.left, base_name, stored, now)
        return patched.absorb_left(delta, now)
    delta = insert_delta(database, difference.right, base_name, stored, now)
    return patched.absorb_right(delta, now)


class IncrementalView:
    """A self-maintaining materialisation that also absorbs base inserts.

    Reads (:meth:`read`) always equal a fresh recomputation; the counters
    :attr:`delta_applications` vs :attr:`refreshes` expose how much of the
    maintenance happened incrementally.
    """

    def __init__(self, database: "Database", name: str, expression: Expression) -> None:
        if not supports_incremental(expression):
            raise ViewError(
                f"incremental view {name!r}: unsupported expression shape "
                f"(needs monotonic base-linear, a difference of such with "
                f"disjoint bases, or an aggregate over such)"
            )
        self.database = database
        self.name = name
        self.expression = expression
        self.delta_applications = 0
        self.refreshes = 0
        self._stale = False

        self._kind = (
            "difference"
            if isinstance(expression, Difference)
            else "aggregate" if isinstance(expression, Aggregate) else "monotonic"
        )
        self._state: Relation
        self._difference: Optional[PatchedDifference] = None
        self._child_state: Optional[Relation] = None
        self._last_read = database.clock.now

        self._rebuild()
        for base in expression.base_names():
            database.table(base).insert_listeners.append(self._on_insert)
            database.table(base).delete_listeners.append(self._on_delete)

    # -- full (re)materialisation -------------------------------------------

    def _rebuild(self) -> None:
        now = self.database.clock.now
        evaluator = Evaluator(self.database.catalog, now)
        if self._kind == "difference":
            assert isinstance(self.expression, Difference)
            self._difference = PatchedDifference(
                evaluator.evaluate(self.expression.left).relation,
                evaluator.evaluate(self.expression.right).relation,
                tau=now,
            )
        elif self._kind == "aggregate":
            assert isinstance(self.expression, Aggregate)
            self._child_state = evaluator.evaluate(self.expression.child).relation
            self._state = self._aggregate_from_child(self._child_state, now)
        else:
            self._state = evaluator.evaluate(self.expression).relation
        self._stale = False
        self.refreshes += 1

    # -- aggregation helpers -----------------------------------------------------

    def _aggregate_from_child(self, child: Relation, now: Timestamp) -> Relation:
        node = self.expression
        assert isinstance(node, Aggregate)
        evaluator = Evaluator({"__child__": child}, now)
        return evaluator.evaluate(
            Aggregate(BaseRef("__child__"), node.group_by, node.spec, node.strategy)
        ).relation

    def _partition_key(self, row: Row) -> Tuple:
        node = self.expression
        assert isinstance(node, Aggregate)
        assert self._child_state is not None
        schema = self._child_state.schema
        return tuple(row[schema.index(ref)] for ref in node.group_by)

    def _reaggregate_partition(self, key: Tuple, now: Timestamp) -> None:
        """Replace the state rows of one partition from the child state."""
        node = self.expression
        assert isinstance(node, Aggregate) and self._child_state is not None
        # Drop existing result rows of this partition (they embed the full
        # child row, so the grouping attributes are at the same positions).
        doomed = [
            row for row in self._state.rows() if self._partition_key(row) == key
        ]
        for row in doomed:
            self._state.delete(row)
        members = [
            (row, texp)
            for row, texp in self._child_state.exp_at(now).items()
            if self._partition_key(row) == key
        ]
        if not members:
            return
        function = get_aggregate(node.spec.function_name)
        schema = self._child_state.schema
        value_index = (
            schema.index(node.spec.attribute) if node.spec.attribute is not None else None
        )
        items = [
            (row[value_index] if value_index is not None else None, texp)
            for row, texp in members
        ]
        value = function.apply([v for v, _ in items])
        partition_expiration = strategy_expiration(items, function, now, node.strategy)
        for row, texp in members:
            tuple_expiration = texp if texp < partition_expiration else partition_expiration
            # override (not max-merge): the partition's aggregate value and
            # expirations may legitimately shrink when a new member changes
            # the aggregate.
            self._state.override(row + (value,), tuple_expiration)

    # -- delta propagation ---------------------------------------------------------

    def _on_insert(self, table, stored: ExpiringTuple) -> None:
        if self._stale:
            return  # a refresh is pending anyway
        now = self.database.clock.now
        if self._kind == "monotonic":
            delta = insert_delta(self.database, self.expression, table.name, stored, now)
            for row, texp in delta.items():
                self._state.insert(row, expires_at=texp)
            self.delta_applications += 1
            return

        if self._kind == "difference":
            assert isinstance(self.expression, Difference) and self._difference is not None
            absorb_insert(
                self.database, self.expression, self._difference, table.name, stored, now
            )
            self.delta_applications += 1
            return

        # aggregate
        assert isinstance(self.expression, Aggregate)
        assert self._child_state is not None
        delta = insert_delta(self.database, self.expression.child, table.name, stored, now)
        touched: Set[Tuple] = set()
        for row, texp in delta.items():
            self._child_state.insert(row, expires_at=texp)
            touched.add(self._partition_key(row))
        for key in touched:
            self._reaggregate_partition(key, now)
        self.delta_applications += 1

    def _on_delete(self, table, row: Row) -> None:
        # Explicit deletes are rare in this model; fall back to refresh.
        self._stale = True

    # -- reading --------------------------------------------------------------------

    def read(self, at: TimeLike = None) -> Relation:
        """The view content at ``at``; always equals a fresh recomputation."""
        stamp = self.database.clock.now if at is None else ts(at)
        if stamp < self._last_read:
            raise ViewError(f"incremental reads cannot go back in time ({stamp})")
        self._last_read = stamp
        if self._stale:
            self._rebuild()
        if self._difference is not None:
            return self._difference.view_at(stamp)
        if self._kind == "aggregate":
            return self._read_aggregate(stamp)
        return self._state.exp_at(stamp)

    def contains(self, values, at: TimeLike = None) -> bool:
        """Point-membership probe: is ``values`` in the view at ``at``?

        Semantically ``values in read(at).rows()`` but without cloning the
        state relation: after the same staleness handling as :meth:`read`,
        membership is one stored-expiration lookup.  The hot path of a
        served ``check()``.
        """
        stamp = self.database.clock.now if at is None else ts(at)
        if stamp < self._last_read:
            raise ViewError(f"incremental reads cannot go back in time ({stamp})")
        self._last_read = stamp
        row = make_row(values)
        if self._stale:
            self._rebuild()
        if self._difference is not None:
            return self._difference.contains(row, stamp)
        if self._kind == "aggregate":
            return self._read_aggregate(stamp).contains(row)
        texp = self._state.expiration_or_none(row)
        return texp is not None and stamp < texp

    def _read_aggregate(self, stamp: Timestamp) -> Relation:
        # Partitions whose membership shrank since materialisation need
        # re-aggregation; detect them via expired child rows.
        assert self._child_state is not None
        stale_keys = {
            self._partition_key(row)
            for row, texp in self._child_state.items()
            if texp <= stamp
        }
        if stale_keys:
            visible_child = self._child_state.exp_at(stamp)
            for key in stale_keys:
                self._reaggregate_partition(key, stamp)
            self._child_state = visible_child
        return self._state.exp_at(stamp)

    def __repr__(self) -> str:
        return (
            f"IncrementalView({self.name!r}, kind={self._kind}, "
            f"deltas={self.delta_applications}, refreshes={self.refreshes})"
        )
