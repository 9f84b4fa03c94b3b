"""Materialised views with expiration-aware maintenance policies.

The paper's central systems idea: materialise query results once, then
maintain them *as independently of the base relations as possible*, in
synchrony purely through expiration times.

* A **monotonic** view (Theorem 1) is maintenance-free forever: reads just
  apply ``exp_τ`` to the stored result.  No policy needed, no base access.
* A **non-monotonic** view is exact until ``texp(e)`` (Theorem 2) and has
  the larger Schrödinger validity set ``I(e)`` beyond it.  Three policies:

  - :attr:`MaintenancePolicy.RECOMPUTE` -- serve from the materialisation
    while ``now < texp(e)``; recompute (and re-materialise) otherwise;
  - :attr:`MaintenancePolicy.SCHRODINGER` -- serve whenever ``now ∈ I(e)``;
    recompute only in the genuinely invalid gaps (Section 3.4);
  - :attr:`MaintenancePolicy.PATCH` -- Theorem 3, for difference-rooted
    expressions over monotonic children: keep the helper priority queue
    and patch re-appearing tuples in; *never* recompute.  Base inserts are
    absorbed by the same rules (:class:`~repro.core.patching.PatchedDifference`)
    when both sides are monotonic, base-linear and base-disjoint, so a
    PATCH view recomputes only on an explicit delete, an override, a
    rolled-back insert, or an insert a bounded queue has no room for.

Any other base insert or explicit delete marks a view stale; its next read
refreshes.  Reads are counted so benches can report recomputations avoided.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.core.algebra.evaluator import EvalResult
from repro.core.algebra.expressions import Difference, Expression
from repro.core.intervals import IntervalSet
from repro.core.patching import PatchedDifference
from repro.core.relation import Relation
from repro.core.timestamps import INFINITY, TimeLike, Timestamp, ts
from repro.core.tuples import ExpiringTuple, make_row
from repro.engine.maintenance import absorb_insert, supports_incremental
from repro.errors import StaleViewError, ViewError

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.engine.database import Database

__all__ = ["MaintenancePolicy", "MaterialisedView"]


class MaintenancePolicy(enum.Enum):
    """How a non-monotonic materialised view is kept correct."""

    RECOMPUTE = "recompute"
    SCHRODINGER = "schrodinger"
    PATCH = "patch"


class MaterialisedView:
    """One materialised expression registered with a database.

    Created via :meth:`repro.engine.database.Database.materialise`; read
    with :meth:`read`, which transparently hides all expiration handling,
    exactly as the paper prescribes for the querying user.
    """

    def __init__(
        self,
        name: str,
        expression: Expression,
        database: "Database",
        policy: MaintenancePolicy = MaintenancePolicy.SCHRODINGER,
        patch_limit: Optional[int] = None,
    ) -> None:
        self.name = name
        self.expression = expression
        self.database = database
        self.policy = policy
        self.is_monotonic = expression.is_monotonic()
        self.recomputations = 0
        self.reads = 0
        self.reads_from_materialisation = 0
        self.patches_applied = 0
        self._patch_limit = patch_limit
        self._result: Optional[EvalResult] = None
        self._patched: Optional[PatchedDifference] = None
        #: Set by base-table listeners on explicit deletes and on inserts
        #: the view does not absorb; the next read refreshes instead of
        #: serving the stale materialisation.
        self._stale = False
        #: A PATCH view whose sides take insert deltas by the Theorem-3
        #: rules instead of going stale.
        self._absorbs = policy is MaintenancePolicy.PATCH and supports_incremental(
            expression
        )
        #: Callables ``(view)`` notified after every (re-)materialisation;
        #: the server's subscription layer hangs off this to learn that
        #: shipped state may have drifted without polling every view.
        self.refresh_listeners: list = []
        self._subscribed_tables: list = []
        if policy is MaintenancePolicy.PATCH and not self._patchable():
            raise ViewError(
                f"view {name!r}: the PATCH policy needs a difference of "
                f"monotonic sub-expressions at the root (Theorem 3)"
            )
        for base in sorted(expression.base_names()):
            table = database.table(base)
            table.insert_listeners.append(self._on_base_mutation)
            table.delete_listeners.append(self._on_base_mutation)
            self._subscribed_tables.append(table)
        # The initial materialisation is not a *re*-computation; benches
        # count only the maintenance work after this point, so it goes
        # uncounted rather than being counted and rolled back (counters
        # are monotone).
        self._materialise(database.clock.now)

    @property
    def patch_limit(self) -> Optional[int]:
        """The configured patch-queue bound (PATCH policy), or ``None``."""
        return self._patch_limit

    def _on_base_mutation(self, table, payload) -> None:
        # Insert listeners pass the stored ExpiringTuple, delete listeners
        # (explicit deletes, overrides, rollbacks) the bare row.
        if self._stale or not (self._absorbs and isinstance(payload, ExpiringTuple)):
            self._stale = True
            return
        assert isinstance(self.expression, Difference) and self._patched is not None
        if not absorb_insert(
            self.database, self.expression, self._patched, table.name, payload,
            self.database.clock.now,
        ):
            self._stale = True  # a bounded queue had no room: recompute

    def _unsubscribe(self) -> None:
        """Detach the base-table listeners (called on ``drop_view``)."""
        for table in self._subscribed_tables:
            if self._on_base_mutation in table.insert_listeners:
                table.insert_listeners.remove(self._on_base_mutation)
            if self._on_base_mutation in table.delete_listeners:
                table.delete_listeners.remove(self._on_base_mutation)
        self._subscribed_tables = []

    def _patchable(self) -> bool:
        return (
            isinstance(self.expression, Difference)
            and self.expression.left.is_monotonic()
            and self.expression.right.is_monotonic()
        )

    # -- materialisation ------------------------------------------------------

    def refresh(self, at: TimeLike = None) -> None:
        """(Re-)materialise from the base relations at ``at`` (default now).

        Evaluation goes through :meth:`Database.evaluate`, so refreshes use
        the database's configured engine -- under the default compiled
        engine, a refresh cycle compiles each view expression once and can
        serve repeat refreshes straight from the validity-aware plan cache.
        """
        stamp = self.database.clock.now if at is None else ts(at)
        self._materialise(stamp)
        self.database.statistics.view_recomputations += 1
        self.recomputations += 1
        self.database._maybe_verify()

    def _materialise(self, stamp: Timestamp) -> None:
        with self.database.tracer.span(
            "view_refresh", view=self.name, policy=self.policy.value
        ) as span:
            if self.policy is MaintenancePolicy.PATCH:
                assert isinstance(self.expression, Difference)
                # Theorem 3 in one pass: the anti-semijoin that computes the
                # difference gathers the helper queue for free, and its
                # output *is* exp_τ(L) −exp exp_τ(R) -- no second evaluation
                # of the whole Difference.
                left = self.database.evaluate(self.expression.left, at=stamp).relation
                right = self.database.evaluate(self.expression.right, at=stamp).relation
                self._patched = PatchedDifference(
                    left, right, tau=stamp, limit=self._patch_limit
                )
                validity = IntervalSet.from_onwards(stamp)
                horizon = self._patched.expiration
                if horizon.is_finite:
                    validity = validity - IntervalSet.from_onwards(horizon)
                self._result = EvalResult(
                    relation=self._patched.materialised,
                    expiration=horizon,
                    validity=validity,
                    tau=stamp,
                )
            else:
                self._result = self.database.evaluate(self.expression, at=stamp)
            span.note(rows=len(self._result.relation))
        self._stale = False
        for listener in self.refresh_listeners:
            listener(self)

    @property
    def expiration(self) -> Timestamp:
        """``texp(e)`` of the current materialisation (``∞`` for PATCH)."""
        if self._patched is not None:
            return self._patched.expiration
        assert self._result is not None
        return self._result.expiration

    @property
    def validity(self):
        """The Schrödinger validity set ``I(e)`` of the materialisation."""
        assert self._result is not None
        return self._result.validity

    @property
    def storage_size(self) -> int:
        """Materialised tuples (plus pending patches under PATCH)."""
        assert self._result is not None
        if self._patched is not None:
            return self._patched.storage_size
        return len(self._result.relation)

    # -- reading ------------------------------------------------------------------

    def read(self, at: TimeLike = None) -> Relation:
        """The view's content at ``at`` (default: the database's now).

        Expiration times never surface here; tuples silently drop out as
        they expire, and the policy decides when base access is needed.
        """
        stamp = self.database.clock.now if at is None else ts(at)
        self.reads += 1
        self.database.statistics.view_reads += 1
        assert self._result is not None
        with self.database.tracer.span(
            "view_read", view=self.name, policy=self.policy.value
        ) as span:
            if self._stale:
                # A base table saw an insert or explicit delete since the
                # materialisation: expiration alone no longer models the
                # drift (this holds for monotonic views too -- Theorem 1
                # assumes the bases change through expiration only).
                span.note(decision="refresh_stale")
                self.refresh(stamp)
                return self._serve(self._result.relation, stamp, fresh=True)

            if self.is_monotonic:
                # Theorem 1: the materialisation is valid forever.
                span.note(decision="materialised")
                return self._serve(self._result.relation, stamp)

            if self.policy is MaintenancePolicy.PATCH:
                span.note(decision="patch")
                return self._read_patched(stamp)

            if self.policy is MaintenancePolicy.RECOMPUTE:
                if stamp < self._result.expiration:
                    span.note(decision="materialised")
                    return self._serve(self._result.relation, stamp)
                span.note(decision="recompute")
                self.refresh(stamp)
                return self._serve(self._result.relation, stamp, fresh=True)

            # SCHRODINGER: exact validity intervals.
            if self._result.validity.contains(stamp):
                span.note(decision="materialised")
                return self._serve(self._result.relation, stamp)
            span.note(decision="recompute")
            self.refresh(stamp)
            return self._serve(self._result.relation, stamp, fresh=True)

    def contains(self, values, at: TimeLike = None) -> bool:
        """Point-membership probe: is ``values`` in the view at ``at``?

        Semantically ``values in read(at).rows()``, but without cloning
        the whole materialisation: after the same staleness/validity
        decisions as :meth:`read`, membership is one stored-expiration
        lookup (``texp > τ``).  This is what lets a served ``check()``
        fast path answer point queries in O(1) against views that stay
        correct purely by expiration.
        """
        stamp = self.database.clock.now if at is None else ts(at)
        row = make_row(values)
        self.reads += 1
        self.database.statistics.view_reads += 1
        assert self._result is not None
        fresh = False
        if self._stale:
            self.refresh(stamp)
            fresh = True
        elif self._patched is not None:
            # Patches can re-introduce rows; apply the due ones first.
            return self._read_patched(stamp, row)
        elif not self.is_monotonic:
            if self.policy is MaintenancePolicy.RECOMPUTE:
                if not stamp < self._result.expiration:
                    self.refresh(stamp)
                    fresh = True
            elif not self._result.validity.contains(stamp):
                self.refresh(stamp)
                fresh = True
        if not fresh:
            self.reads_from_materialisation += 1
            self.database.statistics.view_reads_from_materialisation += 1
        texp = self._result.relation.expiration_or_none(row)
        return texp is not None and stamp < texp

    def _serve(self, relation: Relation, stamp: Timestamp, fresh: bool = False) -> Relation:
        if not fresh:
            self.reads_from_materialisation += 1
            self.database.statistics.view_reads_from_materialisation += 1
        return relation.exp_at(stamp)

    def _audit_serveable(self, stamp: Timestamp) -> Optional[Relation]:
        """What a :meth:`read` at ``stamp`` would serve *from storage*.

        Side-effect-free twin of :meth:`read` for the invariant checker:
        returns the relation the materialisation (plus pending patches,
        under PATCH) would yield, or ``None`` whenever a real read would
        refresh or raise instead of serving -- those cases audit nothing.
        """
        if self._result is None or self._stale:
            return None
        if self.is_monotonic:
            return self._result.relation.exp_at(stamp)
        if self._patched is not None:
            if stamp < self._patched.floor or not self._patched.expiration > stamp:
                return None
            return self._patched.peek_at(stamp)
        if self.policy is MaintenancePolicy.RECOMPUTE:
            if stamp < self._result.expiration:
                return self._result.relation.exp_at(stamp)
            return None
        # SCHRODINGER
        if self._result.validity.contains(stamp):
            return self._result.relation.exp_at(stamp)
        return None

    def _read_patched(self, stamp: Timestamp, row=None):
        """The patched content at ``stamp`` -- or, given ``row``, whether
        the row is in it (one lookup instead of a copy)."""
        patched = self._patched
        assert patched is not None
        if stamp < patched.floor:
            raise ViewError(
                f"view {self.name!r}: patched reads cannot go back in time "
                f"({stamp} < {patched.floor})"
            )
        if not patched.expiration > stamp:
            raise StaleViewError(
                f"view {self.name!r}: patch queue was truncated; the "
                f"materialisation is only guaranteed before "
                f"{patched.expiration}"
            )
        before = patched.patcher.applied
        answer = patched.view_at(stamp) if row is None else patched.contains(row, stamp)
        applied = patched.patcher.applied - before
        self.patches_applied += applied
        self.database.statistics.view_patches_applied += applied
        self.reads_from_materialisation += 1
        self.database.statistics.view_reads_from_materialisation += 1
        return answer

    def __repr__(self) -> str:
        return (
            f"MaterialisedView({self.name!r}, policy={self.policy.value}, "
            f"monotonic={self.is_monotonic}, expiration={self.expiration})"
        )
