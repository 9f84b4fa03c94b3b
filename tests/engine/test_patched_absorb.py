"""PATCH views and difference incremental views absorb base inserts.

Both keep one :class:`~repro.core.patching.PatchedDifference` and apply
insert deltas by the Theorem-3 rules; only explicit deletes, overrides and
rolled-back inserts (the delete listeners) force a full refresh.  Every
test compares against a from-scratch interpreter evaluation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra.evaluator import Evaluator
from repro.core.relation import Relation
from repro.engine.database import Database
from repro.engine.maintenance import IncrementalView
from repro.engine.views import MaintenancePolicy
from repro.errors import RelationError, StaleViewError


def make_db():
    db = Database()
    db.create_table("R", ["k"])
    db.create_table("S", ["k"])
    return db


def difference(db):
    return db.table_expr("R").difference(db.table_expr("S"))


def fresh(db):
    return Evaluator(db.catalog, db.now).evaluate(difference(db)).relation


def patch_view(db, limit=None):
    return db.materialise(
        "v", difference(db), policy=MaintenancePolicy.PATCH, patch_limit=limit
    )


def incremental_view(db):
    return IncrementalView(db, "iv", difference(db))


class TestPendingPatchHiddenByLaterMatch:
    @pytest.mark.parametrize("make_view", [patch_view, incremental_view])
    def test_extended_match_keeps_the_row_hidden(self, make_view):
        db = make_db()
        db.table("R").insert((1,), expires_at=30)
        db.table("S").insert((1,), expires_at=5)
        view = make_view(db)
        assert set(view.read().rows()) == set()  # hidden, patch due at 5
        db.advance_to(3)
        db.table("S").insert((1,), expires_at=12)  # the match now runs to 12
        db.advance_to(6)
        assert set(view.read().rows()) == set()
        db.advance_to(12)
        assert set(view.read().rows()) == {(1,)}


class TestInsertsAreAbsorbed:
    def test_patch_view_recomputes_only_on_delete(self):
        db = make_db()
        view = patch_view(db)
        db.table("R").insert((1,), expires_at=20)
        db.table("S").insert((1,), expires_at=8)
        db.table("R").insert((2,), expires_at=9)
        db.table("R").renew((2,), 15)
        assert dict(view.read().items()) == {(2,): 15}
        assert view.recomputations == 0
        db.table("R").delete((2,))
        assert set(view.read().rows()) == set()
        assert view.recomputations == 1

    @pytest.mark.parametrize("make_view", [patch_view, incremental_view])
    def test_inserts_copy_no_kept_relation(self, make_view, monkeypatch):
        db = make_db()
        for k in range(30):
            db.table("R").insert((k,), expires_at=40 + k)
            db.table("S").insert((k + 15,), expires_at=20 + k)
        view = make_view(db)
        view.read()
        sizes = []
        original = Relation.exp_at
        monkeypatch.setattr(
            Relation, "exp_at",
            lambda self, tau: sizes.append(len(self)) or original(self, tau),
        )
        for k in range(30, 60):
            db.table("R").insert((k,), expires_at=50)
            db.table("S").insert((k - 25,), expires_at=45)
        # Only the one-row insert deltas are evaluated; no side relation
        # or materialisation is copied per inserted row.
        assert sizes and max(sizes) == 1
        monkeypatch.undo()
        assert set(view.read().rows()) == set(fresh(db).rows())

    def test_churn_keeps_the_view_bounded(self):
        db = make_db()
        view = patch_view(db)
        patched = view._patched
        for now in range(1, 1500):
            db.advance_to(now)
            db.table("R").insert((now,), expires_at=now + 10)
            db.table("S").insert((now - 3,), expires_at=now + 4)
            view.read()
            kept = len(patched.left) + len(patched.right) + len(patched.materialised)
            # ~10 live rows per side: the kept rows stay O(live), not O(now).
            assert kept <= 2 * 40 + 64, now
        assert view.recomputations == 0
        assert set(view.read().rows()) == set(fresh(db).rows())


# -- differential -------------------------------------------------------------

keys = st.integers(min_value=0, max_value=5)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from("RS"), keys, st.integers(1, 12)),
        st.tuples(st.just("renew"), st.sampled_from("RS"), keys, st.integers(1, 12)),
        st.tuples(st.just("override"), st.sampled_from("RS"), keys, st.integers(0, 12)),
        st.tuples(st.just("delete"), st.sampled_from("RS"), keys, st.just(0)),
        st.tuples(st.just("rollback"), st.sampled_from("RS"), keys, st.integers(1, 12)),
        st.tuples(st.just("advance"), st.just(""), st.just(0), st.integers(1, 4)),
        st.tuples(st.just("read"), st.just(""), st.just(0), st.just(0)),
    ),
    max_size=30,
)
#: Steps that reach the delete listeners; only these may recompute.
REFRESHING = {"override", "delete", "rollback"}


def apply_step(db, kind, side, key, amount):
    now = db.now
    if kind == "advance":
        db.advance_to(now + amount)
        return
    if kind == "read":
        return
    table = db.table(side)
    if kind == "insert":
        table.insert((key,), expires_at=now + amount)
    elif kind == "renew":
        table.renew((key,), amount)
    elif kind == "override":
        table.override((key,), expires_at=now + amount)
    elif kind == "delete":
        table.delete((key,))
    elif kind == "rollback":
        txn = db.transaction()
        txn.insert(side, (key,), expires_at=now + amount)
        txn.insert(side, (key + 1,), expires_at=now)  # already expired: fails
        with pytest.raises(RelationError):
            txn.commit()


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.lists(st.tuples(st.sampled_from("RS"), keys, st.integers(1, 12)),
                         max_size=8),
           steps=steps)
    def test_unbounded_views_equal_a_fresh_evaluation(self, seed, steps):
        db = make_db()
        for side, key, life in seed:
            db.table(side).insert((key,), expires_at=life)
        view, incremental = patch_view(db), incremental_view(db)
        for kind, side, key, amount in steps:
            recomputations, refreshes = view.recomputations, incremental.refreshes
            apply_step(db, kind, side, key, amount)
            truth = fresh(db)
            assert view.read().same_content(truth), (kind, side, key, amount)
            assert incremental.read().same_content(truth)
            assert view.contains((key,)) == truth.contains((key,))
            assert db.verify(deep=True) == []
            if kind not in REFRESHING:
                assert view.recomputations == recomputations, kind
                assert incremental.refreshes == refreshes, kind
        assert view.expiration.is_infinite

    @settings(max_examples=80, deadline=None)
    @given(seed=st.lists(st.tuples(st.sampled_from("RS"), keys, st.integers(1, 12)),
                         max_size=8),
           limit=st.integers(min_value=1, max_value=2),
           steps=steps)
    def test_bounded_view_is_exact_or_stale(self, seed, limit, steps):
        db = make_db()
        for side, key, life in seed:
            db.table(side).insert((key,), expires_at=life)
        view = patch_view(db, limit=limit)
        for kind, side, key, amount in steps:
            apply_step(db, kind, side, key, amount)
            if view._stale or db.now < view.expiration:
                assert view.read().same_content(fresh(db)), (kind, side, key)
                assert db.verify(deep=True) == []
                continue
            # Past the horizon a truncated queue refuses, as it always has.
            with pytest.raises(StaleViewError):
                view.read()
            view.refresh()
            assert view.read().same_content(fresh(db))
