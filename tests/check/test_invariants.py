"""Tests for the invariant catalogue and ``Database.verify``.

Each corruption test desyncs exactly one structure *behind the engine's
back* (the way a bug would) and asserts the matching invariant names it.
"""

import pytest

from repro.check.invariants import Violation, invariant_names, run_invariants
from repro.core.timestamps import INFINITY, ts
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.views import MaintenancePolicy
from repro.errors import InvariantViolation


def build_db(policy=RemovalPolicy.EAGER, **kwargs):
    """A database exercising every audited structure."""
    db = Database(default_removal_policy=policy, **kwargs)
    flat = db.create_table("flat", ["k", "v"])
    part = db.create_table("part", ["k", "v"], partitions=3)
    for key in range(6):
        flat.insert((key, 0), expires_at=10 + key)
        part.insert((key, 0), expires_at=20 + key)
    flat.insert((99, 1))  # immortal
    db.materialise("v_mono", db.table_expr("flat").project(1))
    db.materialise(
        "v_diff",
        db.table_expr("flat").difference(db.table_expr("part")),
        policy=MaintenancePolicy.SCHRODINGER,
    )
    db.evaluate(db.table_expr("flat"))  # populate the plan cache
    return db


def names_of(violations):
    return {violation.invariant for violation in violations}


class TestCleanDatabases:
    @pytest.mark.parametrize(
        "policy", [RemovalPolicy.EAGER, RemovalPolicy.LAZY]
    )
    def test_verify_passes(self, policy):
        db = build_db(policy)
        assert db.verify() == []
        db.advance_to(12)  # partial expiry; lazy tables now buffer entries
        assert db.verify() == []
        db.vacuum_all()
        assert db.verify() == []
        db.close()

    def test_structural_only(self):
        db = build_db()
        assert db.verify(deep=False) == []

    def test_catalogue_names(self):
        assert invariant_names(deep=False) == [
            "index-schedules-stored",
            "index-entries-stored",
            "due-buffer-consistent",
            "shard-routing",
            "physical-covers-live",
            "equality-index-stored",
        ]
        assert invariant_names()[-2:] == [
            "view-freshness",
            "plan-cache-consistent",
        ]


class TestCorruptionsAreCaught:
    def test_missing_index_entry(self):
        db = build_db()
        db.table("flat")._index.remove((0, 0))
        violations = db.verify(strict=False)
        assert "index-schedules-stored" in names_of(violations)

    def test_phantom_index_entry(self):
        db = build_db()
        db.table("flat")._index.schedule((77, 7), 30)
        violations = db.verify(strict=False)
        assert "index-entries-stored" in names_of(violations)

    def test_index_disagrees_on_time(self):
        db = build_db()
        db.table("flat")._index.schedule((0, 0), 55)  # stored says 10
        violations = db.verify(strict=False)
        assert names_of(violations) >= {
            "index-schedules-stored", "index-entries-stored"
        }

    def test_premature_due_buffer_entry(self):
        db = build_db(RemovalPolicy.LAZY)
        db.table("flat")._due_buffer.append(((0, 0), ts(500)))
        violations = db.verify(strict=False)
        assert "due-buffer-consistent" in names_of(violations)

    def test_misrouted_shard_row(self):
        db = build_db()
        table = db.table("part")
        row = (0, 0)
        owner = hash(row[0]) % table.partitions
        wrong = (owner + 1) % table.partitions
        table.relation.shards[wrong]._tuples[row] = ts(25)
        violations = db.verify(strict=False, deep=False)
        assert "shard-routing" in names_of(violations)

    def test_corrupted_view_materialisation(self):
        db = build_db()
        view = db.view("v_mono")
        view._result.relation.override((1234,), INFINITY)
        violations = db.verify(strict=False)
        assert "view-freshness" in names_of(violations)

    def test_unversioned_mutation_breaks_the_cache(self):
        # The bug class this PR fixes: mutate the relation directly,
        # without note_data_change -- the cached result silently drifts.
        db = build_db()
        db.table("flat").relation.override((50, 5), ts(90))
        violations = db.verify(strict=False)
        assert "plan-cache-consistent" in names_of(violations)

    def test_stale_equality_bucket(self):
        db = build_db()
        relation = db.table("flat").relation
        assert list(relation.rows_where(0, 2)) == [(2, 0)]
        assert db.verify(strict=False) == []
        del relation._buckets[0][2][(2, 0)]  # a row the probe would miss
        violations = db.verify(strict=False, deep=False)
        assert names_of(violations) == {"equality-index-stored"}

    def test_unindexed_row_behind_the_mutators_back(self):
        db = build_db()
        relation = db.table("flat").relation
        relation.rows_where(0, 3)
        relation._tuples[(3, 7)] = ts(40)  # stored, but in no bucket
        violations = run_invariants(db, names=["equality-index-stored"])
        assert [v.subject for v in violations] == ["flat[attribute 1]"]

    def test_names_filter(self):
        db = build_db()
        db.table("flat")._index.remove((0, 0))
        only = run_invariants(db, names=["index-entries-stored"])
        assert only == []  # the corruption is invisible to that check
        found = run_invariants(db, names=["index-schedules-stored"])
        assert found and all(
            v.invariant == "index-schedules-stored" for v in found
        )


class TestStrictMode:
    def test_strict_raises_with_detail(self):
        db = build_db()
        db.table("flat")._index.remove((0, 0))
        with pytest.raises(InvariantViolation) as excinfo:
            db.verify()
        assert "index-schedules-stored" in str(excinfo.value)

    def test_violation_str(self):
        violation = Violation("some-check", "T(1,)", "broke")
        assert str(violation) == "[some-check] T(1,): broke"


class TestDebugMode:
    def test_check_invariants_audits_every_mutation(self):
        db = build_db(check_invariants=True)
        db.table("flat")._index.remove((3, 0))  # corrupt behind the API
        with pytest.raises(InvariantViolation):
            db.table("flat").insert((8, 0), expires_at=40)

    def test_check_invariants_audits_sweeps(self):
        db = build_db(check_invariants=True)
        table = db.table("flat")
        # Desync that only bites during a sweep-adjacent audit.
        table.relation.override((0, 0), ts(400))
        with pytest.raises(InvariantViolation):
            db.advance_to(11)

    def test_clean_database_is_unbothered(self):
        db = build_db(check_invariants=True)
        db.table("flat").insert((8, 0), expires_at=40)
        db.advance_to(15)
        db.vacuum_all()
        db.view("v_diff").read()
        assert db.verify() == []
        db.close()
