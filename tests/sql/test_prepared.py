"""The per-database statement cache and its memoised query plans.

A repeated SQL text must skip lexing, parsing and planning, yet never
serve a plan that DDL has made stale: a view or table dropped and
re-created under the same name with another definition must be re-planned
on the next identical query text, through ``execute_sql``, the local
session and the served engine alike.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra.expressions import BaseRef
from repro.core.algebra.predicates import col
from repro.engine.database import Database
from repro.errors import ReproError, SessionError, SqlPlanError
from repro.obs.registry import MetricsRegistry
from repro.server.client import AsyncSession
from repro.server.server import ReproServer
from repro.sql import (
    execute_script,
    execute_sql,
    parse_sql,
    parse_statements,
    plan_query,
)
from repro.sql.prepared import (
    STATEMENT_CACHE_CAPACITY,
    StatementCache,
    single_query,
    source_resolver,
    statement_cache,
)


def _counter(db, outcome):
    return db.metrics.get(f"repro_sql_statement_cache_{outcome}_total").value


def _parse(db, text):
    return parse_statements(text, statement_cache(db))


def _rows(result):
    return sorted(result.relation.rows())


class TestStatementCache:
    def test_repeated_text_is_a_hit(self):
        db = Database()
        execute_sql(db, "CREATE TABLE T (k)")
        execute_sql(db, "SELECT k FROM T")
        assert (_counter(db, "hits"), _counter(db, "misses")) == (0, 2)
        execute_sql(db, "SELECT k FROM T")
        assert (_counter(db, "hits"), _counter(db, "misses")) == (1, 2)
        assert _parse(db, "SELECT k FROM T") is _parse(db, "SELECT k FROM T")

    def test_second_database_sees_no_entries_from_the_first(self):
        first, second = Database(), Database()
        execute_sql(first, "CREATE TABLE T (k)")
        execute_sql(first, "SELECT k FROM T")
        assert "SELECT k FROM T" in statement_cache(first)
        assert len(statement_cache(second)) == 0
        assert "SELECT k FROM T" not in statement_cache(second)
        assert _counter(second, "misses") == 0

    def test_lru_evicts_the_least_recently_used_text(self):
        registry = MetricsRegistry()
        cache = StatementCache(registry)
        parse_statements("SHOW TABLES", cache)
        parse_statements("SHOW VIEWS", cache)
        parse_statements("SHOW TABLES", cache)  # SHOW VIEWS is now oldest
        for by in range(1, STATEMENT_CACHE_CAPACITY):
            parse_statements(f"ADVANCE BY {by}", cache)
        assert len(cache) == STATEMENT_CACHE_CAPACITY
        assert "SHOW TABLES" in cache and "SHOW VIEWS" not in cache
        assert registry.get(
            "repro_sql_statement_cache_evictions_total").value == 1

    def test_an_evicted_query_loses_its_plan_memo(self):
        db = Database()
        execute_sql(db, "CREATE TABLE T (k)")
        cache = statement_cache(db)
        (query,) = _parse(db, "SELECT k FROM T")
        assert cache.plan(db, query) is cache.plan(db, query)
        for by in range(STATEMENT_CACHE_CAPACITY):
            _parse(db, f"ADVANCE BY {by}")
        assert "SELECT k FROM T" not in cache
        assert cache.plan(db, query) is not cache.plan(db, query)
        assert cache.plan(db, query) == cache.plan(db, query)

    def test_parse_errors_are_not_cached(self):
        db = Database()
        for _ in range(2):
            with pytest.raises(ReproError):
                _parse(db, "SELEC oops")
        assert len(statement_cache(db)) == 0
        assert _counter(db, "misses") == 0

    def test_script_statements_are_planned_when_they_run(self):
        db = Database()
        results = execute_script(
            db,
            "CREATE TABLE T (k); INSERT INTO T VALUES (1); "
            "CREATE MATERIALIZED VIEW v AS SELECT k FROM T; SELECT k FROM v",
        )
        assert results[-1].rows == [(1,)]

    def test_multi_statement_text_still_refused_by_execute_sql(self):
        db = Database()
        with pytest.raises(SqlPlanError, match="one statement"):
            execute_sql(db, "SHOW TABLES; SHOW VIEWS")

    def test_single_query_refuses_ddl_and_scripts(self):
        db = Database()
        execute_sql(db, "CREATE TABLE T (k)")
        (query,) = _parse(db, "SELECT k FROM T")
        assert single_query(_parse(db, "SELECT k FROM T")) is query
        for text in ("INSERT INTO T VALUES (1)", "SELECT k FROM T; SELECT k FROM T"):
            with pytest.raises(SessionError, match="row-producing"):
                single_query(_parse(db, text))


class TestPlanMemo:
    def test_a_repeated_query_reuses_one_expression(self):
        db = Database()
        execute_sql(db, "CREATE TABLE T (k)")
        cache = statement_cache(db)
        (query,) = _parse(db, "SELECT k FROM T WHERE k = 1")
        first = cache.plan(db, query)
        assert cache.plan(db, query) is first
        execute_sql(db, "CREATE TABLE U (k)")  # any DDL re-plans
        assert cache.plan(db, query) is not first
        assert cache.plan(db, query) == first
        uncached = parse_sql("SELECT k FROM T WHERE k = 1")
        assert cache.plan(db, uncached) is not cache.plan(db, uncached)

    def test_redefined_view_is_replanned(self):
        db = Database()
        execute_script(db, """
            CREATE TABLE T (k, v);
            INSERT INTO T VALUES (1, 10), (2, 20);
            CREATE MATERIALIZED VIEW w AS SELECT k FROM T WHERE k = 1;
        """)
        assert _rows(execute_sql(db, "SELECT * FROM w")) == [(1,)]
        execute_sql(db, "DROP VIEW w")
        with pytest.raises(SqlPlanError, match="unknown table or view"):
            execute_sql(db, "SELECT * FROM w")
        execute_sql(db, "CREATE MATERIALIZED VIEW w AS SELECT v FROM T")
        assert _rows(execute_sql(db, "SELECT * FROM w")) == [(10,), (20,)]

    def test_recreated_table_with_other_columns_is_replanned(self):
        db = Database()
        execute_script(db, "CREATE TABLE T (k, v); INSERT INTO T VALUES (1, 10)")
        assert _rows(execute_sql(db, "SELECT k FROM T")) == [(1,)]
        execute_script(
            db, "DROP TABLE T; CREATE TABLE T (v, k); INSERT INTO T VALUES (20, 2)"
        )
        assert _rows(execute_sql(db, "SELECT k FROM T")) == [(2,)]
        execute_script(db, "DROP TABLE T; CREATE TABLE T (a, b)")
        result = execute_sql(db, "SELECT * FROM T")
        assert result.relation.schema.names == ("a", "b")

    def test_local_session_query_looks_its_text_up_once(self):
        db = Database()
        session = db.session()
        session.execute("CREATE TABLE T (k)")
        session.execute("INSERT INTO T VALUES (3)")
        for _ in range(3):
            assert session.query("SELECT k FROM T").rows == [(3,)]
        # One parse of the query text, then one hit per later query.
        assert (_counter(db, "misses"), _counter(db, "hits")) == (3, 2)
        with pytest.raises(SessionError, match="row-producing"):
            session.query("INSERT INTO T VALUES (4)")
        assert session.query("SELECT k FROM T").rows == [(3,)]

    def test_served_engine_replans_after_view_and_table_ddl(self):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            try:
                for text in (
                    "CREATE TABLE T (k, v)",
                    "INSERT INTO T VALUES (1, 10), (2, 20)",
                    "CREATE MATERIALIZED VIEW w AS SELECT k FROM T",
                ):
                    await session.execute(text)
                assert sorted((await session.query("SELECT * FROM w")).rows) == [
                    (1,), (2,)]
                await session.execute("DROP VIEW w")
                await session.execute(
                    "CREATE MATERIALIZED VIEW w AS SELECT v FROM T WHERE k = 2")
                assert (await session.query("SELECT * FROM w")).rows == [(20,)]

                await session.execute("DROP VIEW w")
                assert sorted((await session.query("SELECT v FROM T")).rows) == [
                    (10,), (20,)]
                await session.execute("DROP TABLE T")
                await session.execute("CREATE TABLE T (k, w, v)")
                await session.execute("INSERT INTO T VALUES (6, 7, 5)")
                result = await session.query("SELECT v FROM T")
                assert result.rows == [(5,)] and result.columns == ("v",)
                assert _counter(server.db, "hits") >= 3
            finally:
                await session.close()
                await server.stop()

        asyncio.run(scenario())


def test_expression_hash_is_cached_and_consistent():
    expression = BaseRef("R").select(col(1) == 3).project(1)
    twin = BaseRef("R").select(col(1) == 3).project(1)
    assert hash(expression) == hash(expression) == hash(twin)
    assert expression == twin
    with pytest.raises(AttributeError):
        expression.child = BaseRef("S")


# -- differential: the cached path against a fresh parse + plan + interpreter --

_TABLES = {
    "kv": "CREATE TABLE T (k, v)",
    "vk": "CREATE TABLE T (v, k)",
    "k": "CREATE TABLE T (k)",
}
_VIEWS = (
    "CREATE MATERIALIZED VIEW V AS SELECT k FROM T",
    "CREATE MATERIALIZED VIEW V AS SELECT k FROM T WHERE k >= 2",
    "CREATE MATERIALIZED VIEW V AS SELECT v FROM T "
    "EXCEPT SELECT v FROM T WHERE k = 0 WITH POLICY PATCH",
    "CREATE MATERIALIZED VIEW V AS SELECT COUNT(*) FROM T",
)
_QUERIES = (
    "SELECT * FROM T",
    "SELECT k FROM T WHERE k = 1",
    "SELECT k FROM T WHERE k >= 1 AND k < 3",
    "SELECT COUNT(*) FROM T",
    "SELECT * FROM V",
    "SELECT k FROM T EXCEPT SELECT k FROM V",
    "SELECT v, k FROM T",
)

_operations = st.one_of(
    st.tuples(st.just("table"), st.sampled_from(sorted(_TABLES))),
    st.tuples(st.just("view"), st.integers(0, len(_VIEWS) - 1)),
    st.tuples(st.just("insert"), st.integers(0, 3), st.integers(0, 3),
              st.integers(1, 6)),
    st.tuples(st.just("advance"), st.integers(1, 3)),
    st.tuples(st.just("query"), st.integers(0, len(_QUERIES) - 1)),
    st.tuples(st.just("query"), st.sampled_from((1, 4, 5, 6))),
)


def _fresh(db, text):
    """An uncached evaluation: new parse, new plan, the interpreter."""
    expression = plan_query(parse_sql(text), source_resolver(db))
    return db.evaluate(expression, engine="interpreted").relation


@settings(max_examples=150, deadline=None)
@given(st.lists(_operations, min_size=1, max_size=40))
def test_cached_path_matches_fresh_parse_plan_and_interpreter(operations):
    db = Database()
    execute_script(db, f"""
        {_TABLES["kv"]};
        INSERT INTO T VALUES (0, 1), (1, 2), (2, 3), (3, 0) EXPIRES IN 8;
        {_VIEWS[0]};
    """)
    arity = 2
    for op in operations:
        kind = op[0]
        if kind == "table":
            if db.has_view("V"):
                execute_sql(db, "DROP VIEW V")
            execute_sql(db, "DROP TABLE T")
            execute_sql(db, _TABLES[op[1]])
            arity = len(db.table("T").schema.names)
        elif kind == "view":
            if db.has_view("V"):
                execute_sql(db, "DROP VIEW V")
            try:
                execute_sql(db, _VIEWS[op[1]])
            except SqlPlanError:
                pass  # the definition names a column T lacks right now
        elif kind == "insert":
            values = ", ".join(str(v) for v in op[1:1 + arity])
            execute_sql(db, f"INSERT INTO T VALUES ({values}) EXPIRES IN {op[3]}")
        elif kind == "advance":
            execute_sql(db, f"ADVANCE BY {op[1]}")
        else:
            text = _QUERIES[op[1]]
            try:
                expected = _fresh(db, text)
            except ReproError as error:
                with pytest.raises(type(error)):
                    execute_sql(db, text)
                continue
            got = execute_sql(db, text).relation
            assert set(got.items()) == set(expected.items()), text
            assert got.schema.names == expected.schema.names, text
