"""Experiment X15: where a served SQL read spends its time, layer by layer.

For the three read shapes of perfbench's ``served-sql`` workload -- a
point read ``WHERE sensor = k``, a 20-key range read and a range
``COUNT(*)`` -- over a 2 000-row ``Readings`` table, this times each
front-end and engine layer on its own (median of ``repeat`` batches):

* ``lex``      -- :func:`repro.sql.lexer.tokenize`;
* ``parse``    -- :func:`repro.sql.parser.parse_statements` (lex included);
* ``plan``     -- :func:`repro.sql.planner.plan_query`;
* ``compile``  -- :func:`repro.core.algebra.compiler.compile_expression`;
* ``execute``  -- :meth:`CompiledPlan.execute` at the current time;

and two whole-statement figures through ``execute_sql``: ``repeat hit``
(the text is in the statement cache and its result in the plan cache)
and ``repeat miss`` (same text, but a data change forces execution).

Run directly:  PYTHONPATH=src python benchmarks/bench_sql_front_end.py
"""

import statistics
import time

from repro.core.algebra.compiler import compile_expression
from repro.engine.database import Database
from repro.sql.executor import execute_sql
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_sql, parse_statements
from repro.sql.planner import plan_query
from repro.sql.prepared import source_resolver

try:
    from benchmarks._tables import emit
except ImportError:  # direct script execution
    from _tables import emit

SHAPES = {
    "point": "SELECT value FROM Readings WHERE sensor = 17",
    "range": "SELECT sensor, value FROM Readings "
             "WHERE sensor >= 100 AND sensor < 120",
    "count": "SELECT COUNT(*) FROM Readings "
             "WHERE sensor >= 100 AND sensor < 120",
}


def build_database(sensors=1_000, values=2):
    db = Database()
    execute_sql(db, "CREATE TABLE Readings (sensor, value)")
    table = db.table("Readings")
    for sensor in range(sensors):
        for value in range(values):
            table.insert((sensor, value), expires_at=40 + (sensor * 7 + value) % 960)
    return db


def _us(fn, number, repeat):
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - started) / number)
    return statistics.median(samples) * 1e6


def measure(number=200, repeat=5):
    """Per-shape layer costs in µs per statement."""
    db = build_database()
    resolve = source_resolver(db)
    rows = []
    for shape, text in SHAPES.items():
        query = parse_sql(text)
        expression = plan_query(query, resolve)
        plan = compile_expression(expression, db.schema_resolver)
        execute_sql(db, text)

        def miss():
            db.note_data_change()
            execute_sql(db, text)

        rows.append({
            "shape": shape,
            "lex": _us(lambda: tokenize(text), number, repeat),
            "parse": _us(lambda: parse_statements(text), number, repeat),
            "plan": _us(lambda: plan_query(query, resolve), number, repeat),
            "compile": _us(lambda: compile_expression(
                expression, db.schema_resolver), number, repeat),
            "execute": _us(lambda: plan.execute(db.catalog, db.now),
                           number, repeat),
            "repeat hit": _us(lambda: execute_sql(db, text), number, repeat),
            "repeat miss": _us(miss, number, repeat),
        })
    return rows


def show(rows):
    columns = ["lex", "parse", "plan", "compile", "execute",
               "repeat hit", "repeat miss"]
    emit(
        "X15: SQL read cost by layer (µs per statement, median)",
        ["shape"] + columns,
        [[row["shape"]] + [f"{row[c]:.1f}" for c in columns] for row in rows],
    )


def test_repeated_texts_match_a_fresh_evaluation():
    db = build_database(sensors=50)
    for text in SHAPES.values():
        fresh = db.evaluate(plan_query(parse_sql(text), source_resolver(db)),
                            engine="interpreted")
        for _ in range(2):
            got = execute_sql(db, text).relation
            assert set(got.items()) == set(fresh.relation.items())


if __name__ == "__main__":
    show(measure())
