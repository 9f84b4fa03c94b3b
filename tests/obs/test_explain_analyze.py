"""EXPLAIN ANALYZE: span trees with per-operator rows, in both engines."""

import re

import pytest

from repro.engine.database import Database


@pytest.fixture(params=["compiled", "interpreted"])
def db(request):
    database = Database(engine=request.param)
    database.sql("CREATE TABLE Pol (uid, deg)")
    database.sql("CREATE TABLE El (uid)")
    for uid, deg, texp in [(1, 25, 10), (2, 25, 15), (3, 35, 10), (4, 25, 20)]:
        database.sql(f"INSERT INTO Pol VALUES ({uid}, {deg}) EXPIRES AT {texp}")
    database.sql("INSERT INTO El VALUES (1) EXPIRES AT 8")
    return database


QUERY = "SELECT uid FROM Pol WHERE deg = 25 EXCEPT SELECT uid FROM El"


class TestExplainAnalyze:
    def test_message_contains_span_tree(self, db):
        message = db.sql(f"EXPLAIN ANALYZE {QUERY}").message
        assert "analyze:" in message
        for operator in ("evaluate", "Difference", "Select", "BaseRef(Pol)"):
            assert operator in message, operator
        # Every span line carries a wall time.
        assert re.search(r"evaluate .*\(\d+\.\d{3} ms\)", message)

    def test_golden_tree_shape(self, db):
        """The structural rendering (timings masked) is stable per engine."""
        db.sql(f"EXPLAIN ANALYZE {QUERY}")
        tree = db.trace_last_query()
        lines = tree.render(timings=False).splitlines()
        # Drop per-run attributes, keep names + nesting.
        shape = [re.sub(r" \[.*\]$", "", line) for line in lines]
        expected = {
            "compiled": [
                "evaluate",
                "  compile",
                "  Difference",
                "    Project",
                "      Select",
                "        BaseRef(Pol)",
                "    Project",
                "      BaseRef(El)",
            ],
            "interpreted": [
                "evaluate",
                "  Difference",
                "    Project",
                "      Select",
                "        BaseRef(Pol)",
                "    Project",
                "      BaseRef(El)",
            ],
        }
        assert shape == expected[db.engine]

    def test_per_operator_rows_and_tuple_counts(self, db):
        db.sql(f"EXPLAIN ANALYZE {QUERY}")
        tree = db.trace_last_query()
        base = tree.find("BaseRef(Pol)")
        if db.engine == "compiled":
            # deg = 25 probes Pol's equality index: the three matching
            # rows are read, the fourth is never touched.
            assert base.attrs["stage"] == "index_probe"
            assert base.attrs["candidates"] == 3
            assert base.attrs["rows"] == 3
        else:
            assert base.attrs["rows"] == 4
        select = tree.find("Select")
        assert select.attrs["rows"] == 3
        assert tree.find("Difference").attrs["rows"] == 2
        assert tree.attrs["rows"] == 2
        assert tree.attrs["tuples_scanned"] > 0

    def test_plain_explain_has_no_tree(self, db):
        message = db.sql(f"EXPLAIN {QUERY}").message
        assert "analyze:" not in message
        assert "plan:" in message

    def test_analyze_does_not_pollute_cache_counters(self, db):
        if db.engine != "compiled":
            pytest.skip("cache counters are a compiled-engine concern")
        before = db.plan_cache.stats
        db.sql(f"EXPLAIN ANALYZE {QUERY}")
        after = db.plan_cache.stats
        assert after.hits == before.hits
        assert after.misses == before.misses

    def test_analyze_repeats_execute_for_real(self, db):
        """A second ANALYZE still shows real per-operator execution."""
        db.sql(f"EXPLAIN ANALYZE {QUERY}")
        first = db.trace_last_query()
        db.sql(f"EXPLAIN ANALYZE {QUERY}")
        second = db.trace_last_query()
        assert second is not first
        read = 3 if db.engine == "compiled" else 4  # probe vs scan
        assert second.find("BaseRef(Pol)").attrs["rows"] == read


class TestTraceApi:
    def test_evaluate_trace_flag(self, db):
        expr = db.table_expr("Pol").project(2)
        result = db.evaluate(expr, trace=True)
        tree = db.trace_last_query()
        assert tree.name == "evaluate"
        assert tree.attrs["engine"] == db.engine
        assert tree.attrs["rows"] == len(result.relation)
        assert tree.find("BaseRef(Pol)") is not None

    def test_untraced_evaluate_keeps_last(self, db):
        expr = db.table_expr("Pol").project(2)
        db.evaluate(expr, trace=True)
        tree = db.trace_last_query()
        db.evaluate(expr)
        assert db.trace_last_query() is tree

    def test_global_tracer_enable(self, db):
        db.tracer.enable()
        db.evaluate(db.table_expr("Pol").project(1))
        assert db.trace_last_query() is not None
        db.tracer.disable()

    def test_error_during_traced_evaluation_closes_span(self, db):
        from repro.core.algebra.expressions import BaseRef
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            db.evaluate(BaseRef("Missing"), trace=True)
        # The root span was finished despite the error.
        tree = db.trace_last_query()
        assert tree is not None
        assert tree._started is None
