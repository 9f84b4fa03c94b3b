"""The SQL front end's per-database statement cache.

Parsing is a pure function of the text and the AST is frozen, so a text
sent again can reuse its parsed statements:
:func:`~repro.sql.parser.parse_statements`, given a database's
:func:`statement_cache`, looks the text up in one bounded LRU and lexes
and parses only on a miss.  For each row-producing statement of a cached
text the cache also memoises its planned algebra
:class:`~repro.core.algebra.expressions.Expression`, tagged with the
database's :attr:`~repro.engine.database.Database.schema_version` (moved
by table *and* view DDL, since ``FROM v`` inlines ``v``'s definition), so
a repeated query skips lexing, parsing and planning and reaches the plan
cache with the same expression object -- whose hash is cached -- every
time.

The cache is per database, never process-global: two databases never see
each other's entries, plans or counters.

>>> from repro.engine.database import Database
>>> from repro.sql.parser import parse_statements
>>> db = Database()
>>> first = parse_statements("SHOW TABLES", statement_cache(db))
>>> parse_statements("SHOW TABLES", statement_cache(db)) is first
True
>>> other = parse_statements("SHOW TABLES", statement_cache(Database()))
>>> len(statement_cache(db)), other is first
(1, False)
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.core.algebra.expressions import Expression
from repro.core.schema import Schema
from repro.errors import SessionError, SqlPlanError
from repro.sql.ast import QueryNode, SelectQuery, SetOperation, Statement
from repro.sql.planner import plan_query

__all__ = [
    "STATEMENT_CACHE_CAPACITY",
    "StatementCache",
    "single_query",
    "source_resolver",
    "statement_cache",
]

#: Distinct SQL texts kept per database.
STATEMENT_CACHE_CAPACITY = 512

_ATTRIBUTE = "_sql_statement_cache"


def source_resolver(db):
    """FROM-clause resolution: tables by reference, views by inlining."""

    def resolve(name: str) -> Tuple[Expression, Schema]:
        if db.has_table(name):
            return db.table_expr(name), db.table(name).schema
        if db.has_view(name):
            expression = db.view(name).expression
            return expression, expression.infer_schema(db.schema_resolver)
        raise SqlPlanError(f"unknown table or view {name!r}")

    return resolve


class _PlanMemo:
    """The planned expression of one cached query and its schema version."""

    __slots__ = ("query", "version", "expression")

    def __init__(self, query: QueryNode) -> None:
        self.query = query
        self.version = -1
        self.expression: Optional[Expression] = None


class StatementCache:
    """LRU map: SQL text → its parsed statements, plus their query plans."""

    def __init__(self, registry) -> None:
        self._entries: "OrderedDict[str, Tuple[Statement, ...]]" = OrderedDict()
        # Keyed by the identity of a cached query statement (the AST hashes
        # by value, recursively); dropped with its text on eviction.
        self._plans: Dict[int, _PlanMemo] = {}
        self._hits = registry.counter(
            "repro_sql_statement_cache_hits_total",
            "SQL texts served from the statement cache (no lex/parse).")
        self._misses = registry.counter(
            "repro_sql_statement_cache_misses_total",
            "SQL texts lexed and parsed on a statement-cache miss.")
        self._evictions = registry.counter(
            "repro_sql_statement_cache_evictions_total",
            "Statement-cache LRU evictions.")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, text: str) -> bool:
        return text in self._entries

    def get(self, text: str) -> Optional[Tuple[Statement, ...]]:
        """The cached statements of ``text``, or None on a miss."""
        statements = self._entries.get(text)
        if statements is not None:
            self._hits.inc()
            self._entries.move_to_end(text)
        return statements

    def put(self, text: str, statements: Sequence[Statement]) -> Tuple[Statement, ...]:
        """Cache the freshly parsed ``statements`` of ``text``."""
        statements = tuple(statements)
        self._misses.inc()
        entries = self._entries
        entries[text] = statements
        for statement in statements:
            if isinstance(statement, (SelectQuery, SetOperation)):
                self._plans[id(statement)] = _PlanMemo(statement)
        if len(entries) > STATEMENT_CACHE_CAPACITY:
            _, evicted = entries.popitem(last=False)
            for statement in evicted:
                self._plans.pop(id(statement), None)
            self._evictions.inc()
        return statements

    def plan(self, db, query: QueryNode) -> Expression:
        """``query``'s algebra expression, memoised while its text is cached.

        A memoised plan is re-planned after any DDL; a query that is not
        from this cache is planned afresh every time.
        """
        memo = self._plans.get(id(query))
        if memo is None or memo.query is not query:
            return plan_query(query, source_resolver(db))
        version = db.schema_version
        if memo.version != version:
            memo.expression = plan_query(query, source_resolver(db))
            memo.version = version
        return memo.expression


def statement_cache(db) -> StatementCache:
    """The statement cache of ``db``, created on first use."""
    cache = getattr(db, _ATTRIBUTE, None)
    if cache is None:
        cache = StatementCache(db.metrics)
        setattr(db, _ATTRIBUTE, cache)
    return cache


def single_query(statements: Sequence[Statement]) -> Statement:
    """The one row-producing statement of a query request.

    Sessions refuse anything else *before* executing it (catching it
    afterwards would leave the side effects applied).
    """
    if len(statements) != 1 or not isinstance(
        statements[0], (SelectQuery, SetOperation)
    ):
        raise SessionError(
            "query expects exactly one row-producing statement; "
            "use execute for DDL and DML"
        )
    return statements[0]
