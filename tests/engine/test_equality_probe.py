"""Equality probes: ``Relation.rows_where`` and the two places that read it.

A flat row relation builds a per-attribute equality index on its first
probe and every mutator keeps it current.  A compiled ``σ attr = c``
straight over a base table and the ``DELETE``/``RENEW``/``UPDATE ...
WHERE`` victim search read one bucket instead of scanning.  The
interpreter (which always scans) and plain scans are the oracles here.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.algebra.compiler import equality_probe, select_rows
from repro.core.algebra.expressions import BaseRef
from repro.core.algebra.predicates import (
    Attribute,
    Comparison,
    Constant,
    TruePredicate,
    col,
    val,
)
from repro.core.relation import Relation, bucket_rows
from repro.core.schema import Schema
from repro.core.timestamps import ts
from repro.engine.config import DatabaseConfig
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.recovery import recover_database
from repro.errors import RelationError
from repro.sql.executor import execute_sql

#: Mixed constants: 1, 1.0 and True are equal (one bucket); '1' is not.
CONSTANTS = [1, 1.0, True, "1", 0, 2]
#: The constants SQL can spell, with their literals.
SQL_CONSTANTS = {1: "1", 1.0: "1.0", "1": "'1'", 0: "0", 2: "2"}

SHAPES = {
    "k = c": lambda c: col("k") == c,
    "c = k": lambda c: val(c) == col("k"),
    "k = c AND v > d": lambda c: (col("k") == c) & (col("v") > 1),
    "k = c OR v = d": lambda c: (col("k") == c) | (col("v") == 1),
}
PROBED = {"k = c", "c = k", "k = c AND v > d"}


def kept(relation):
    """The built index as plain lists (order included)."""
    return {
        index: {value: list(rows) for value, rows in buckets.items()}
        for index, buckets in relation._buckets.items()
    }


def fresh(relation):
    """The same index recomputed from the stored rows."""
    return {
        index: {
            value: list(rows)
            for value, rows in bucket_rows(relation._tuples, index).items()
        }
        for index in relation._buckets
    }


def sample_relation():
    relation = Relation(Schema(["k", "v"]))
    for k, v, texp in [(1, 0, 5), (2, 0, 6), (1, 1, 7), ("1", 0, 8), (3, 2, 9)]:
        relation.insert((k, v), expires_at=texp)
    return relation


class TestRowsWhere:
    def test_never_probed_relation_holds_no_index(self):
        relation = sample_relation()
        relation.insert((4, 4), expires_at=3)
        relation.override((1, 0), 2)
        relation.delete((2, 0))
        relation.bulk_load([((5, 5), ts(9))])
        relation.bulk_restore([((5, 5), None), ((6, 6), ts(4))])
        relation._sweep_due([((4, 4), ts(3))], ts(3))
        relation.purge_expired(4)
        assert relation._buckets is None

    def test_first_probe_builds_only_that_attribute(self):
        relation = sample_relation()
        assert list(relation.rows_where(0, 1)) == [(1, 0), (1, 1)]
        assert list(relation._buckets) == [0]
        assert list(relation.rows_where(1, 0)) == [(1, 0), (2, 0), ("1", 0)]
        assert sorted(relation._buckets) == [0, 1]
        assert relation.rows_where(0, 99) == ()

    def test_python_equality_decides_the_bucket(self):
        relation = Relation(Schema(["k", "v"]))
        relation.insert((1, "a"), expires_at=5)
        relation.insert((1.0, "b"), expires_at=5)
        relation.insert((True, "c"), expires_at=5)
        relation.insert(("1", "d"), expires_at=5)
        expected = [(1, "a"), (1.0, "b"), (True, "c")]
        for constant in (1, 1.0, True):
            assert list(relation.rows_where(0, constant)) == expected
        assert list(relation.rows_where(0, "1")) == [("1", "d")]

    def test_every_mutator_keeps_the_buckets_current(self):
        relation = sample_relation()
        relation.rows_where(0, 1)
        relation.rows_where(1, 0)
        steps = [
            lambda r: r.insert((7, 0), expires_at=4),        # new row
            lambda r: r.insert((1, 0), expires_at=50),       # max-merge
            lambda r: r.insert((True, 0), expires_at=60),    # equal row
            lambda r: r.override((8, 1), 5),                 # new row
            lambda r: r.override((1, 1), 3),                 # existing
            lambda r: r.delete((2, 0)),                      # present
            lambda r: r.delete((2, 0)),                      # absent
            lambda r: r.delete((1.0, 1)),                    # equal row
            lambda r: r.bulk_load([((9, 0), ts(9)), ((7, 0), ts(8))]),
            lambda r: r.bulk_restore(
                [((9, 0), None), ((10, 1), ts(9)), ((3, 2), ts(20)),
                 ((11, 0), None)]
            ),
            lambda r: r._sweep_due([((7, 0), ts(4)), ((3, 2), ts(9))], ts(8)),
            lambda r: r.purge_expired(8),
        ]
        for step in steps:
            step(relation)
            assert kept(relation) == fresh(relation)
        # Emptied buckets are dropped, not kept as empty dicts.
        assert all(rows for buckets in relation._buckets.values()
                   for rows in buckets.values())

    def test_bucket_order_follows_storage_order(self):
        relation = sample_relation()
        relation.rows_where(1, 0)
        relation.delete((1, 0))
        relation.insert((1, 0), expires_at=9)
        relation.insert((2, 0), expires_at=99)  # renewal keeps its place
        assert list(relation.rows_where(1, 0)) == [
            row for row in relation.rows() if row[1] == 0
        ]

    def test_copies_and_restrictions_carry_no_index(self):
        relation = sample_relation()
        relation.rows_where(0, 1)
        assert relation.copy()._buckets is None
        assert relation.exp_at(6)._buckets is None
        assert Relation._from_trusted(relation.schema, {})._buckets is None


class TestEqualityProbe:
    @pytest.mark.parametrize(
        "predicate, expected",
        [
            (col(1) == 5, (0, 5)),
            (val(5) == col(2), (1, 5)),
            ((col(2) > 3) & (col(1) == "x"), (0, "x")),
            ((col(1) == 5) | (col(2) == 3), None),
            (~(col(1) == 5), None),
            (col(1) == col(2), None),
            (col(1) != 5, None),
            (Comparison(Attribute(1), "=", Constant([5])), None),
            (TruePredicate(), None),
        ],
    )
    def test_finds_the_first_hashable_equality_conjunct(self, predicate, expected):
        assert equality_probe(predicate) == expected

    def test_select_rows_matches_a_scan_for_every_constant(self):
        relation = Relation(Schema(["k", "v"]))
        for i, k in enumerate([1, 1.0, True, "1", 0, 2, 1, "1"]):
            relation.insert((k, i), expires_at=3 + i % 4)
        for tau in (0, 4, 5):
            for constant in CONSTANTS:
                for shape in SHAPES.values():
                    predicate = shape(constant).resolve(relation.schema)
                    scanned = [
                        row for row, texp in relation.items()
                        if tau < texp and predicate.matches(row)
                    ]
                    assert select_rows(relation, predicate, tau) == scanned

    def test_columnar_and_sharded_relations_are_scanned(self):
        db = Database()
        db.create_table("c", ["k", "v"], layout="columnar")
        db.create_table("p", ["k", "v"], partitions=2)
        for name in ("c", "p"):
            for k in range(4):
                db.table(name).insert((k, 0), expires_at=10)
            db.evaluate(BaseRef(name).select(col("k") == 1), cached=False)
            assert db.last_eval_stats.tuples_scanned == 4
            execute_sql(db, f"DELETE FROM {name} WHERE k = 2")
            assert len(db.table(name)) == 3
        assert getattr(db.table("p").relation, "_buckets", None) is None
        for shard in db.table("p").relation.shards:
            assert shard._buckets is None


# -- the differential --------------------------------------------------------

KEYS = st.sampled_from(CONSTANTS)
VALUES = st.integers(0, 3)
SQL_KEYS = st.sampled_from(sorted(SQL_CONSTANTS, key=repr))
OPS = st.one_of(
    st.tuples(st.just("insert"), KEYS, VALUES, st.integers(1, 8)),
    st.tuples(st.just("renew"), KEYS, VALUES, st.integers(1, 8)),
    st.tuples(st.just("override"), KEYS, VALUES, st.integers(0, 8)),
    st.tuples(st.just("delete"), KEYS, VALUES),
    st.tuples(st.just("rollback"), KEYS, VALUES, st.integers(1, 8)),
    st.tuples(st.just("advance"), st.integers(1, 3)),
    st.tuples(st.just("vacuum")),
    st.tuples(st.just("crash")),
    st.tuples(st.just("sql_delete"), SQL_KEYS),
    st.tuples(st.just("sql_renew"), SQL_KEYS, st.integers(1, 8)),
    st.tuples(st.just("sql_update"), SQL_KEYS, st.integers(0, 8)),
)


class _Run:
    """One WAL-backed database with a probed table ``T`` and a twin ``U``.

    ``U`` receives every mutation ``T`` does but is never probed.
    """

    def __init__(self, wal_dir: str, policy: RemovalPolicy) -> None:
        self.wal_dir = wal_dir
        self.policy = policy
        self.db = Database(config=DatabaseConfig(
            default_removal_policy=policy, check_invariants=True,
            wal_dir=wal_dir, wal_fsync="never",
        ))
        for name in ("T", "U"):
            self.db.create_table(name, ["k", "v"], lazy_batch_size=4)

    def tables(self):
        return [self.db.table("T"), self.db.table("U")]

    def apply(self, op) -> None:
        kind, args = op[0], op[1:]
        db = self.db
        if kind == "insert":
            for table in self.tables():
                table.insert(args[:2], ttl=args[2])
        elif kind == "renew":
            for table in self.tables():
                table.renew(args[:2], args[2])
        elif kind == "override":
            for table in self.tables():
                table.override(args[:2], ttl=args[2])
        elif kind == "delete":
            for table in self.tables():
                table.delete(args[:2])
        elif kind == "rollback":
            before = [dict(t.relation.items()) for t in self.tables()]
            txn = db.transaction()
            for name in ("T", "U"):
                txn.insert(name, args[:2], ttl=args[2])
                txn.delete(name, (0, 0))
            txn.insert("T", (9, 9), expires_at=db.now)  # aborts the commit
            with pytest.raises(RelationError):
                txn.commit()
            assert [dict(t.relation.items()) for t in self.tables()] == before
        elif kind == "advance":
            db.tick(args[0])
        elif kind == "vacuum":
            for table in self.tables():
                table.vacuum()
        elif kind == "crash":
            live = [t.read() for t in self.tables()]
            db.close()
            self.db = recover_database(
                self.wal_dir, fsync="never",
                config=DatabaseConfig(
                    default_removal_policy=self.policy, check_invariants=True,
                ),
            )
            assert [t.read() for t in self.tables()] == live
        else:
            self.apply_dml(kind, *args)

    def apply_dml(self, kind: str, key, *rest) -> None:
        """A ``WHERE k = c`` statement on ``T`` against a scan-based oracle.

        ``U`` gets the same mutations through the table API, from a scan.
        """
        now = self.db.now
        literal = SQL_CONSTANTS[key]
        probed, twin = self.tables()
        before = dict(probed.relation.items())
        victims = [
            row for row, texp in before.items() if now < texp and row[0] == key
        ]
        expected = dict(before)
        if kind == "sql_delete":
            text = f"DELETE FROM T WHERE k = {literal}"
            for row in victims:
                del expected[row]
        elif kind == "sql_renew":
            text = f"RENEW T EXPIRES IN {rest[0]} WHERE k = {literal}"
            for row in victims:
                expected[row] = max(expected[row], now + rest[0])
        else:
            text = f"UPDATE T EXPIRES IN {rest[0]} WHERE {literal} = k"
            for row in victims:
                expected[row] = now + rest[0]
        result = execute_sql(self.db, text)
        assert result.rowcount == len(victims), text
        assert dict(probed.relation.items()) == expected, text
        for row, texp in list(twin.relation.items()):
            if now < texp and row[0] == key:
                if kind == "sql_delete":
                    twin.delete(row)
                elif kind == "sql_renew":
                    twin.insert(row, ttl=rest[0])
                else:
                    twin.override(row, ttl=rest[0])

    def check_reads(self) -> None:
        db = self.db
        for shape, build in SHAPES.items():
            for constant in CONSTANTS:
                for expression in (
                    BaseRef("T").select(build(constant)),
                    BaseRef("T").select(build(constant)).project("v"),
                ):
                    compiled = db.evaluate(expression, cached=False)
                    scanned = db.last_eval_stats.tuples_scanned
                    oracle = db.evaluate(expression, engine="interpreted")
                    assert compiled.relation.same_content(oracle.relation)
                    assert compiled.expiration == oracle.expiration
                    assert compiled.validity == oracle.validity
                    relation = db.table("T").relation
                    if shape in PROBED:
                        bucket = relation.rows_where(0, constant)
                        assert scanned == len(bucket), (shape, constant)
                    else:
                        assert scanned == len(relation), (shape, constant)
        assert db.verify() == []


@pytest.mark.parametrize("policy", [RemovalPolicy.EAGER, RemovalPolicy.LAZY])
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(OPS, min_size=1, max_size=20))
def test_probes_agree_with_the_scanning_oracles(policy, ops):
    with tempfile.TemporaryDirectory() as wal_dir:
        run = _Run(wal_dir, policy)
        try:
            run.check_reads()
            for op in ops:
                run.apply(op)
                run.check_reads()
            probed, twin = (t.relation for t in run.tables())
            assert probed._buckets is not None
            assert twin._buckets is None
            assert probed.copy()._buckets is None
            assert probed.exp_at(run.db.now)._buckets is None
        finally:
            run.db.close()


class TestExplainAnalyze:
    def make_db(self):
        db = Database(config=DatabaseConfig(
            default_removal_policy=RemovalPolicy.LAZY))
        db.create_table("R", ["k", "v"], lazy_batch_size=100)
        for k in range(4):
            for v in range(3):
                db.table("R").insert((k, v), expires_at=5 + v)
        db.tick(5)  # each (k, 0) expired, unswept: candidates the probe skips
        return db

    def test_probe_has_its_own_stage(self):
        db = self.make_db()
        message = execute_sql(
            db, "EXPLAIN ANALYZE SELECT v FROM R WHERE k = 2"
        ).message
        assert "BaseRef(R) [stage=index_probe attribute=1 candidates=3 rows=2]" in message
        tree = db.trace_last_query()
        assert tree.attrs["tuples_scanned"] == 3
        assert tree.find("Select").attrs["rows"] == 2

    def test_traced_and_untraced_runs_agree(self):
        db = self.make_db()
        expression = BaseRef("R").select((col("k") == 1) & (col("v") > 1))
        plain = db.evaluate(expression, cached=False)
        plain_stats = db.last_eval_stats
        traced = db.evaluate(expression, trace=True)
        assert traced.relation.same_content(plain.relation)
        assert db.last_eval_stats.tuples_scanned == plain_stats.tuples_scanned == 3
        assert db.trace_last_query().find("BaseRef(R)").attrs["stage"] == "index_probe"

    def test_disjunction_still_scans(self):
        db = self.make_db()
        execute_sql(db, "EXPLAIN ANALYZE SELECT v FROM R WHERE k = 2 OR v = 1")
        base = db.trace_last_query().find("BaseRef(R)")
        assert base.attrs["stage"] == "fused"
        assert "candidates" not in base.attrs
        assert db.table("R").relation._buckets is None
