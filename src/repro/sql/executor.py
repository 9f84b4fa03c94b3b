"""Execution of parsed SQL statements against a Database.

The executor is the thin glue between the SQL front end and the engine:
DDL manipulates the catalog, DML goes through the tables (so constraints,
triggers, and statistics all apply), and queries are planned to the
algebra and evaluated at the database's current logical time.

``EXPIRES AT`` / ``EXPIRES IN`` on INSERT is the dialect's only
expiration-time surface, mirroring the paper's "exposed to users only on
insertion and update" principle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.algebra.compiler import select_rows
from repro.core.algebra.expressions import Expression, Literal
from repro.core.algebra.predicates import TruePredicate
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.engine.database import Database
from repro.engine.views import MaintenancePolicy
from repro.errors import SqlPlanError
from repro.sql.ast import (
    AdvanceTime,
    CreateTable,
    CreateView,
    DeleteStatement,
    DescribeStatement,
    DropTable,
    DropView,
    ExplainStatement,
    InsertStatement,
    OverrideStatement,
    QueryNode,
    RenewStatement,
    SelectQuery,
    SetOperation,
    ShowTables,
    ShowViews,
    Statement,
    TableSource,
    VacuumStatement,
)
from repro.sql.parser import parse_statements
from repro.sql.planner import _Environment, _plan_condition, plan_query

__all__ = ["SqlResult", "execute_sql", "execute_script"]

_POLICIES = {
    "recompute": MaintenancePolicy.RECOMPUTE,
    "patch": MaintenancePolicy.PATCH,
    "schrodinger": MaintenancePolicy.SCHRODINGER,
}


@dataclass
class SqlResult:
    """The outcome of one statement.

    ``relation`` is set for queries (the full, set-semantics result);
    ``rows`` is its *presentation* -- ordered per ORDER BY and truncated
    per LIMIT (equal to the unordered rows otherwise).  ``rowcount`` is
    set for DML, ``names`` for SHOW statements, and ``message`` always
    carries a human-readable summary.
    """

    kind: str
    message: str = ""
    relation: Optional[Relation] = None
    rows: Optional[list] = None
    rowcount: int = 0
    names: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        return f"SqlResult({self.kind!r}, {self.message!r})"


def _source_resolver(db: Database):
    """FROM-clause resolution: tables by reference, views by inlining."""

    def resolve(name: str) -> Tuple[Expression, Schema]:
        if db.has_table(name):
            return db.table_expr(name), db.table(name).schema
        if db.has_view(name):
            view = db.view(name)
            expression = view.expression
            return expression, expression.infer_schema(db.schema_resolver)
        raise SqlPlanError(f"unknown table or view {name!r}")

    return resolve


def _execute_query(db: Database, query: QueryNode) -> SqlResult:
    expression = plan_query(query, _source_resolver(db))
    result = db.evaluate(expression)
    rows = _present_rows(result.relation, query)
    return SqlResult(
        kind="select",
        message=f"{len(rows)} row(s)",
        relation=result.relation,
        rows=rows,
        rowcount=len(rows),
    )


def _present_rows(relation: Relation, query: QueryNode) -> list:
    """Apply ORDER BY / LIMIT presentation to a query result."""
    rows = list(relation.rows())
    if not isinstance(query, SelectQuery):
        return sorted(rows, key=repr)
    if query.order_by:
        schema = relation.schema
        keys = []
        for item in query.order_by:
            if not schema.has(item.column.name):
                raise SqlPlanError(
                    f"ORDER BY column {item.column} is not in the select list"
                )
            keys.append((schema.index(item.column.name), item.descending))
        for index, descending in reversed(keys):
            rows.sort(key=lambda row: row[index], reverse=descending)
    else:
        rows.sort(key=repr)  # deterministic presentation for set results
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


def _execute_statement(db: Database, statement: Statement) -> SqlResult:
    result = _dispatch_statement(db, statement)
    db.metrics.counter(
        "repro_sql_statements_total",
        "SQL statements executed, by result kind.",
        labels=("kind",),
    ).labels(result.kind).inc()
    return result


def _dispatch_statement(db: Database, statement: Statement) -> SqlResult:
    if isinstance(statement, CreateTable):
        if statement.query is not None:
            expression = plan_query(statement.query, _source_resolver(db))
            evaluated = db.evaluate(expression)
            table = db.create_table(statement.name, evaluated.relation.schema)
            for row, texp in evaluated.relation.items():
                table.insert(row, expires_at=texp)
            return SqlResult(
                kind="create_table",
                message=(
                    f"table {statement.name} created from query "
                    f"({len(evaluated.relation)} row(s))"
                ),
                rowcount=len(evaluated.relation),
            )
        db.create_table(
            statement.name,
            list(statement.columns),
            partitions=statement.partitions,
            partition_key=statement.partition_key,
            layout=statement.layout,
        )
        layout_note = " columnar" if statement.layout == "columnar" else ""
        if statement.partitions is not None:
            return SqlResult(
                kind="create_table",
                message=(
                    f"table {statement.name} created{layout_note} "
                    f"({statement.partitions} hash partition(s) on "
                    f"{statement.partition_key or statement.columns[0]})"
                ),
            )
        return SqlResult(
            kind="create_table",
            message=f"table {statement.name} created{layout_note}",
        )

    if isinstance(statement, InsertStatement):
        table = db.table(statement.table)
        if statement.query is not None:
            expression = plan_query(statement.query, _source_resolver(db))
            evaluated = db.evaluate(expression)
            if evaluated.relation.arity != table.schema.arity:
                raise SqlPlanError(
                    f"INSERT ... SELECT arity mismatch: query yields "
                    f"{evaluated.relation.arity} column(s), table "
                    f"{statement.table!r} has {table.schema.arity}"
                )
            inserted = 0
            for row, texp in evaluated.relation.items():
                if statement.expires_at is not None or statement.ttl is not None:
                    table.insert(row, expires_at=statement.expires_at,
                                 ttl=statement.ttl)
                else:
                    # Carry the query's derived expiration times along.
                    table.insert(row, expires_at=texp)
                inserted += 1
            return SqlResult(
                kind="insert",
                message=f"{inserted} row(s) inserted into {statement.table}",
                rowcount=inserted,
            )
        for row in statement.rows:
            table.insert(row, expires_at=statement.expires_at, ttl=statement.ttl)
        return SqlResult(
            kind="insert",
            message=f"{len(statement.rows)} row(s) inserted into {statement.table}",
            rowcount=len(statement.rows),
        )

    if isinstance(statement, DeleteStatement):
        table = db.table(statement.table)
        victims = _victims(db, statement.table, statement.where)
        for row in victims:
            table.delete(row)
        return SqlResult(
            kind="delete",
            message=f"{len(victims)} row(s) deleted from {statement.table}",
            rowcount=len(victims),
        )

    if isinstance(statement, (SelectQuery, SetOperation)):
        return _execute_query(db, statement)

    if isinstance(statement, CreateView):
        expression = plan_query(statement.query, _source_resolver(db))
        policy = _POLICIES[statement.policy] if statement.policy else MaintenancePolicy.SCHRODINGER
        db.materialise(statement.name, expression, policy=policy)
        return SqlResult(
            kind="create_view",
            message=f"materialized view {statement.name} created ({policy.value})",
        )

    if isinstance(statement, DropTable):
        db.drop_table(statement.name)
        return SqlResult(kind="drop_table", message=f"table {statement.name} dropped")

    if isinstance(statement, DropView):
        db.drop_view(statement.name)
        return SqlResult(kind="drop_view", message=f"view {statement.name} dropped")

    if isinstance(statement, ShowTables):
        names = tuple(db.table_names())
        return SqlResult(kind="show_tables", message=", ".join(names) or "(none)", names=names)

    if isinstance(statement, ShowViews):
        names = tuple(db.view_names())
        return SqlResult(kind="show_views", message=", ".join(names) or "(none)", names=names)

    if isinstance(statement, AdvanceTime):
        if statement.to is not None:
            now = db.advance_to(statement.to)
        else:
            now = db.tick(statement.by or 1)
        return SqlResult(kind="advance", message=f"now = {now}")

    if isinstance(statement, VacuumStatement):
        if statement.table is not None:
            reclaimed = db.table(statement.table).vacuum()
        else:
            reclaimed = db.vacuum_all()
        return SqlResult(
            kind="vacuum", message=f"{reclaimed} tuple(s) reclaimed", rowcount=reclaimed
        )

    if isinstance(statement, RenewStatement):
        table = db.table(statement.table)
        victims = _victims(db, statement.table, statement.where)
        for row in victims:
            table.insert(row, expires_at=statement.expires_at, ttl=statement.ttl)
        return SqlResult(
            kind="renew",
            message=f"{len(victims)} row(s) renewed in {statement.table}",
            rowcount=len(victims),
        )

    if isinstance(statement, OverrideStatement):
        table = db.table(statement.table)
        victims = _victims(db, statement.table, statement.where)
        for row in victims:
            table.override(row, expires_at=statement.expires_at, ttl=statement.ttl)
        return SqlResult(
            kind="override",
            message=f"{len(victims)} row(s) overridden in {statement.table}",
            rowcount=len(victims),
        )

    if isinstance(statement, DescribeStatement):
        return _describe(db, statement.name)

    if isinstance(statement, ExplainStatement):
        return _explain(db, statement)

    raise SqlPlanError(f"unsupported statement {type(statement).__name__}")


def _explain(db: Database, statement: ExplainStatement) -> SqlResult:
    from repro.core.monotonicity import classify, nonmonotonic_count
    from repro.core.rewriter import optimise

    expression = plan_query(statement.query, _source_resolver(db))
    rewritten = optimise(expression, db.schema_resolver)
    result = db.evaluate(rewritten, trace=statement.analyze)
    lines = [
        f"plan:       {expression!r}",
        f"rewritten:  {rewritten!r}",
        f"class:      {classify(expression).value} "
        f"({nonmonotonic_count(expression)} non-monotonic operator(s))",
        f"rows now:   {len(result.relation)}",
        f"texp(e):    {result.expiration}",
        f"valid in:   {result.validity!r}",
        f"engine:     {db.engine}",
    ]
    if db.engine == "compiled":
        cache = db.plan_cache.stats
        lines.append(
            f"cache:      {cache.hits} hit(s) / {cache.misses} miss(es) "
            f"overall (hit rate {cache.hit_rate:.0%}), "
            f"{cache.validity_served} served by validity alone"
        )
    if statement.analyze:
        trace = db.trace_last_query()
        if trace is not None:
            lines.append("analyze:")
            lines.append(trace.render(indent=1))
    return SqlResult(kind="explain", message="\n".join(lines))


def _describe(db: Database, name: str) -> SqlResult:
    if db.has_table(name):
        table = db.table(name)
        upcoming = table.next_expiration()
        partitioned = ""
        if getattr(table, "partitions", None) is not None:
            partitioned = (
                f"; partitions={table.partitions} "
                f"by hash({table.partition_key})"
            )
        layout_note = ""
        if table.layout != "row":
            layout_note = (
                f"; layout={table.layout}({table.columnar_backend})"
            )
        message = (
            f"table {name}({', '.join(table.schema.names)}); "
            f"{len(table)} live tuple(s), {table.physical_size} stored; "
            f"removal={table.removal_policy.value}; "
            f"next expiration={upcoming if upcoming is not None else 'none'}"
            f"{partitioned}{layout_note}"
        )
        return SqlResult(kind="describe", message=message, names=table.schema.names)
    if db.has_view(name):
        view = db.view(name)
        schema = view.expression.infer_schema(db.schema_resolver)
        message = (
            f"materialized view {name}({', '.join(schema.names)}); "
            f"policy={view.policy.value}; monotonic={view.is_monotonic}; "
            f"texp(e)={view.expiration}; recomputations={view.recomputations}"
        )
        return SqlResult(kind="describe", message=message, names=schema.names)
    raise SqlPlanError(f"unknown table or view {name!r}")


def _victims(db: Database, table_name: str, where) -> list:
    """The live rows of a table that a DELETE/RENEW/UPDATE ``WHERE`` names.

    The condition is planned against the table alone, compiled once, and
    evaluated like a compiled ``σ`` over the base relation: an
    ``attr = constant`` conjunct probes the equality index instead of
    scanning.  No ``WHERE`` names every live row.
    """
    table = db.table(table_name)
    predicate = TruePredicate()
    if where is not None:
        env = _Environment()
        env.add(TableSource(name=table_name).binding, table.schema)
        predicate = _plan_condition(where, env).resolve(table.schema)
    return select_rows(table.relation, predicate, table.clock.now)


def execute_sql(db: Database, text: str) -> SqlResult:
    """Parse and execute exactly one statement."""
    statements = parse_statements(text)
    if len(statements) != 1:
        raise SqlPlanError(
            f"execute_sql expects one statement, got {len(statements)}; "
            f"use execute_script"
        )
    return _execute_statement(db, statements[0])


def execute_statement(db: Database, statement: Statement) -> SqlResult:
    """Execute one already-parsed statement.

    The server's dispatch path parses once to classify the request and
    then executes the same AST here, instead of paying a second parse
    inside :func:`execute_sql`.
    """
    return _execute_statement(db, statement)


def execute_script(db: Database, text: str) -> List[SqlResult]:
    """Parse and execute a ``;``-separated script, returning all results."""
    return [_execute_statement(db, s) for s in parse_statements(text)]
