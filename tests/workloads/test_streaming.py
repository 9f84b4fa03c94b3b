"""Continuous queries over expiring streams.

The serve/refresh protocol (answers cached with their Schrödinger
validity interval, arrivals folded in incrementally, refreshes only when
``I(e)`` runs out or a revocation dirties the cache), the two table-level
expiry policies, and a brute-force differential for every standing-query
kind over randomised schedules of inserts, overrides, and clock
advances.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import MaxAggregate, MinAggregate
from repro.core.approximate import (
    AbsoluteTolerance,
    RelativeTolerance,
    approximate_count_validity,
    approximate_validity,
)
from repro.core.intervals import IntervalSet
from repro.core.timestamps import INFINITY
from repro.engine.database import Database
from repro.errors import EngineError
from repro.workloads import (
    CONNECTION_SCHEMA,
    EVENT_SCHEMA,
    StreamStore,
)

STREAM_SHAPES = [
    pytest.param({}, id="flat-row"),
    pytest.param({"layout": "columnar"}, id="flat-columnar"),
    pytest.param({"partitions": 3, "partition_key": "key"}, id="partitioned"),
]


def make_store(shape=None, ttl=10, expiry="absolute"):
    store = StreamStore()
    store.create_stream("s", EVENT_SCHEMA, ttl=ttl, expiry=expiry, **(shape or {}))
    return store


class TestStreamStore:
    @pytest.mark.parametrize("shape", STREAM_SHAPES)
    def test_ingest_defaults_to_stream_ttl(self, shape):
        store = make_store(shape, ttl=7)
        store.ingest("s", (1, 1))
        texp = store.stream("s").relation.expiration_or_none((1, 1))
        assert texp.value == 7

    def test_per_event_ttl_overrides_default(self):
        store = make_store(ttl=7)
        store.ingest("s", (1, 1), ttl=3)
        assert store.stream("s").relation.expiration_or_none((1, 1)).value == 3

    def test_attach_to_existing_table(self):
        db = Database()
        db.create_table("s", EVENT_SCHEMA, default_ttl=5)
        store = StreamStore(db)
        assert store.create_stream("s", EVENT_SCHEMA, ttl=99) is db.table("s")
        assert store.stream("s").default_ttl == 5  # attach, not re-create

    def test_touch_on_absolute_stream_is_noop(self):
        store = make_store(ttl=10)
        store.ingest("s", (1, 1))
        assert not store.touch("s", (1, 1))

    def test_duplicate_query_name_rejected(self):
        store = make_store()
        store.count("s")
        with pytest.raises(EngineError):
            store.count("s")

    def test_metrics_families_update(self):
        store = make_store()
        hits = store.count("s")
        store.ingest("s", (1, 1))
        hits.read()
        hits.read()
        metrics = store.database.metrics
        assert metrics.get("repro_streaming_events_total").labels("s").value == 1
        serves = metrics.get("repro_streaming_query_serves_total")
        assert serves.labels("s:count", "refresh").value == 1
        assert serves.labels("s:count", "cached").value == 1


class TestIdleTimeoutPolicy:
    """The since-last-modification stream: activity renews, idleness kills."""

    def test_touched_rows_outlive_untouched(self):
        store = StreamStore()
        store.create_stream(
            "conns", CONNECTION_SCHEMA, ttl=5,
            expiry="since_last_modification",
        )
        active = ("a", "b", 80)
        idle = ("c", "d", 443)
        store.ingest("conns", active)
        store.ingest("conns", idle)
        for _ in range(4):
            store.database.tick(3)
            assert store.touch("conns", active)
        table = store.stream("conns")
        assert table.relation.expiration_or_none(active) is not None
        assert len(table) == 1  # the idle one is gone

    def test_touch_does_not_revive_dead_row(self):
        store = StreamStore()
        store.create_stream(
            "conns", CONNECTION_SCHEMA, ttl=5,
            expiry="since_last_modification",
        )
        store.ingest("conns", ("a", "b", 80))
        store.database.tick(5)
        assert not store.touch("conns", ("a", "b", 80))
        assert len(store.stream("conns")) == 0

    def test_touch_counter(self):
        store = StreamStore()
        store.create_stream(
            "conns", CONNECTION_SCHEMA, ttl=5,
            expiry="since_last_modification",
        )
        store.ingest("conns", ("a", "b", 80))
        store.touch("conns", ("a", "b", 80))
        store.touch("conns", ("x", "y", 1))  # absent: not counted
        metrics = store.database.metrics
        assert (
            metrics.get("repro_streaming_touches_total").labels("conns").value
            == 1
        )


class TestServeRefreshProtocol:
    """Re-evaluation happens only when I(e) runs out, not per event."""

    def test_cached_within_validity(self):
        store = make_store(ttl=10)
        hits = store.count("s")
        store.ingest("s", (1, 1))
        store.ingest("s", (2, 2))
        assert hits.read() == 2
        first_validity = hits.validity
        store.database.tick(3)  # still inside [0, 10)
        assert hits.read() == 2
        assert hits.validity is first_validity  # no refresh happened

    def test_refresh_when_validity_expires(self):
        store = make_store(ttl=10)
        hits = store.count("s")
        store.ingest("s", (1, 1), ttl=4)
        store.ingest("s", (2, 2), ttl=10)
        assert hits.read() == 2
        causes = store.database.metrics.get(
            "repro_streaming_query_refreshes_total"
        )
        before = causes.labels("s:count", "validity").value
        store.database.tick(4)
        assert hits.read() == 1
        assert causes.labels("s:count", "validity").value == before + 1

    def test_arrivals_fold_in_without_refresh(self):
        store = make_store(ttl=10)
        hits = store.count("s")
        assert hits.read() == 0
        for i in range(20):
            store.ingest("s", (i, i))
        assert hits.read() == 20
        serves = store.database.metrics.get("repro_streaming_query_serves_total")
        assert serves.labels("s:count", "refresh").value == 1  # only the first

    def test_override_dirties_the_cache(self):
        store = make_store(ttl=10)
        hits = store.count("s")
        store.ingest("s", (1, 1))
        store.ingest("s", (2, 2))
        assert hits.read() == 2
        # Revoke one row mid-validity: the next read must not serve 2.
        store.stream("s").override((2, 2), expires_at=store.database.now)
        assert hits.read() == 1
        causes = store.database.metrics.get(
            "repro_streaming_query_refreshes_total"
        )
        assert causes.labels("s:count", "revoked").value == 1

    def test_tolerant_count_stretches_validity(self):
        store = make_store(ttl=100)
        exact = store.count("s", name="exact")
        loose = store.count("s", tolerance=AbsoluteTolerance(5), name="loose")
        for i in range(10):
            store.ingest("s", (i, i), ttl=10 + i)
        assert exact.read() == 10
        assert loose.read() == 10
        # Exact validity dies at the first expiration; tolerant one rides
        # out five deaths.
        assert exact.validity.intervals[-1].end.value == 10
        assert loose.validity.intervals[-1].end.value == 15


def brute_count(table, tau):
    return sum(1 for _, texp in table.relation.items() if tau < texp)


def brute_distinct(table, tau, index):
    return len(
        {row[index] for row, texp in table.relation.items() if tau < texp}
    )


def brute_extent(table, tau, index):
    values = [row[index] for row, texp in table.relation.items() if tau < texp]
    return (max(values) - min(values)) if values else None


class TestDifferential:
    """Random schedules vs brute force, across stream shapes."""

    @pytest.mark.parametrize("shape", STREAM_SHAPES)
    def test_exact_queries_match_brute_force(self, shape):
        store = make_store(shape)
        count = store.count("s")
        distinct = store.distinct("s", "key")
        extent = store.extent("s", "value")
        table = store.stream("s")
        rng = random.Random(20060408)
        for step in range(600):
            roll = rng.random()
            if roll < 0.55:
                store.ingest(
                    "s",
                    (rng.randrange(40), rng.randrange(100)),
                    ttl=rng.randint(1, 20),
                )
            elif roll < 0.65:
                rows = list(table.read().rows())
                if rows:
                    # Last-write shortening: revocation mid-validity.
                    table.override(
                        rng.choice(rows),
                        expires_at=store.database.now.value + rng.randint(0, 3),
                    )
            else:
                store.database.tick(rng.randint(1, 4))
            if step % 7 == 0:
                tau = store.database.now
                assert count.read() == brute_count(table, tau)
                assert distinct.read() == brute_distinct(table, tau, 0)
                assert extent.read() == brute_extent(table, tau, 1)

    def test_tolerant_count_stays_in_band(self):
        store = make_store(ttl=30)
        epsilon = 4
        loose = store.count("s", tolerance=AbsoluteTolerance(epsilon))
        table = store.stream("s")
        rng = random.Random(20060409)
        refreshes = store.database.metrics.get(
            "repro_streaming_query_refreshes_total"
        )
        for step in range(800):
            if rng.random() < 0.6:
                store.ingest(
                    "s",
                    (rng.randrange(500), rng.randrange(100)),
                    ttl=rng.randint(1, 25),
                )
            else:
                store.database.tick(1)
            got = loose.read()
            truth = brute_count(table, store.database.now)
            assert abs(got - truth) <= epsilon
        # The tolerance bought real savings: far fewer refreshes than reads.
        total = sum(c.value for _, c in refreshes.series())
        assert total < 800 / 4


class TestReservoirSample:
    def test_members_are_live_subset_and_bounded(self):
        store = make_store(ttl=15)
        sample = store.sample("s", capacity=8, rng=random.Random(1))
        table = store.stream("s")
        rng = random.Random(20060410)
        for _ in range(400):
            if rng.random() < 0.7:
                store.ingest(
                    "s",
                    (rng.randrange(1000), rng.randrange(50)),
                    ttl=rng.randint(1, 12),
                )
            else:
                store.database.tick(1)
            members = sample.read()
            assert len(members) <= 8
            live = set(table.read().rows())
            assert set(members) <= live
            # Depletion refills: with plenty live, never near-empty.
            if len(live) >= 8:
                assert len(members) >= 4

    def test_empty_stream_serves_empty(self):
        store = make_store(ttl=5)
        sample = store.sample("s", capacity=4)
        assert sample.read() == []
        store.ingest("s", (1, 1))
        store.database.tick(5)
        assert sample.read() == []


class TestExtentAndKCenter:
    def test_endpoint_death_shrinks_extent_same_read(self):
        store = make_store(ttl=50)
        extent = store.extent("s", "value")
        store.ingest("s", (1, 0), ttl=50)
        store.ingest("s", (2, 100), ttl=5)  # the max dies early
        assert extent.read() == 100
        store.database.tick(5)
        assert extent.read() == 0  # no stale serve after the endpoint died

    def test_k_center_radius_bounded_by_diameter(self):
        store = make_store(ttl=40)
        extent = store.extent("s", "value")
        rng = random.Random(20060411)
        for i in range(60):
            store.ingest("s", (i, rng.randrange(1000)), ttl=rng.randint(5, 40))
        diameter = extent.read()
        centers, radius = extent.k_center(3)
        assert len(centers) <= 3
        assert radius <= diameter
        # More centers never hurt.
        _, radius5 = extent.k_center(5)
        assert radius5 <= radius

    def test_k_center_empty_stream(self):
        store = make_store(ttl=5)
        extent = store.extent("s", "value")
        assert extent.k_center(2) == ([], 0)


class TestThresholdWatch:
    def test_scan_detection(self):
        store = StreamStore()
        store.create_stream("conns", CONNECTION_SCHEMA, ttl=10)
        watch = store.watch(
            "conns", group_by="src", distinct=("dst", "dport"), threshold=3
        )
        # An honest host touches one target repeatedly; a scanner fans out.
        for _ in range(5):
            store.ingest("conns", ("honest", "web", 443))
        for port in range(4):
            store.ingest("conns", ("scanner", "victim", port))
        alerts = watch.alerts()
        assert alerts == {"scanner": 4}

    def test_alerts_expire_with_entries(self):
        store = StreamStore()
        store.create_stream("conns", CONNECTION_SCHEMA, ttl=5)
        watch = store.watch(
            "conns", group_by="src", distinct=("dst", "dport"), threshold=2
        )
        store.ingest("conns", ("s", "a", 1))
        store.ingest("conns", ("s", "b", 2))
        assert watch.alerts() == {"s": 2}
        store.database.tick(5)
        assert watch.alerts() == {}


class TestPersistence:
    def test_expiry_policy_survives_recovery(self, tmp_path):
        from repro.engine.recovery import recover_database

        db = Database(wal_dir=tmp_path)
        db.create_table(
            "conns", CONNECTION_SCHEMA,
            expiry="since_last_modification", default_ttl=6,
        )
        db.table("conns").insert(("a", "b", 80))
        db.close()

        recovered = recover_database(tmp_path)
        table = recovered.table("conns")
        assert table.expiry == "since_last_modification"
        assert table.default_ttl == 6
        # The policy is live, not just recorded: touch still renews.
        recovered.tick(3)
        assert table.touch(("a", "b", 80)) is not None
        recovered.tick(4)
        assert len(table) == 1


COUNT_TOLERANCES = [
    pytest.param(AbsoluteTolerance(0), id="exact"),
    pytest.param(AbsoluteTolerance(3), id="abs3"),
    pytest.param(RelativeTolerance(0.1), id="rel0.1"),
]


def live_unit_texps(table, tau, index=None):
    """Brute force: each live unit's expiration (max over its rows)."""
    texps = {}
    for row, texp in table.relation.items():
        if tau < texp:
            unit = row if index is None else row[index]
            texps[unit] = max(texp, texps.get(unit, texp))
    return list(texps.values())


def count_oracle(texps, tau, tolerance):
    if not texps:
        return 0, IntervalSet.from_onwards(tau)
    return approximate_count_validity(texps, tau, tolerance)


class TestCountRefreshDifferential:
    """Every count refresh derives the very ``(count, I(e))`` that
    :func:`approximate_count_validity` gives over the brute-force live
    stream, whatever mix of renewals, touches, revocations and immortal
    rows came before it; cached serves stay inside the tolerance."""

    @pytest.mark.parametrize("distinct", [False, True], ids=["count", "distinct"])
    @pytest.mark.parametrize("tolerance", COUNT_TOLERANCES)
    @pytest.mark.parametrize("shape", STREAM_SHAPES)
    def test_every_read_matches_the_oracle(self, shape, tolerance, distinct):
        store = make_store(shape, ttl=12, expiry="since_last_modification")
        table = store.stream("s")
        if distinct:
            query = store.distinct("s", "key", tolerance=tolerance)
        else:
            query = store.count("s", tolerance=tolerance)
        index = 0 if distinct else None
        rng = random.Random(20061013)
        for step in range(500):
            now = store.database.now
            rows = list(table.read().rows())
            roll = rng.random()
            if roll < 0.45:
                row = (rng.randrange(30), rng.randrange(6))
                store.ingest("s", row, ttl=rng.randint(1, 20))
            elif roll < 0.55 and rows:
                # A renewal: re-insert a live row with a fresh lifetime.
                store.ingest("s", rng.choice(rows), ttl=rng.randint(1, 20))
            elif roll < 0.65 and rows:
                assert store.touch("s", rng.choice(rows))
            elif roll < 0.68:
                table.insert((rng.randrange(30), 99), expires_at=INFINITY)
            elif roll < 0.71 and rows:
                table.override(
                    rng.choice(rows), expires_at=now.value + rng.randint(0, 4)
                )
            elif roll < 0.73 and rows:
                table.delete(rng.choice(rows))
            else:
                store.database.tick(rng.randint(1, 3))
            cached = query.validity
            served = query.read()
            tau = store.database.now
            texps = live_unit_texps(table, tau, index)
            if query.validity is not cached:  # this read refreshed
                assert (query._base, query.validity) == count_oracle(
                    texps, tau, tolerance
                )
                assert served == len(texps)
            else:
                # Only expirations of units counted at the refresh drift.
                drift = served - len(texps)
                assert drift >= 0
                assert tolerance.accepts(query._base, query._base - drift)

    @pytest.mark.parametrize("distinct", [False, True], ids=["count", "distinct"])
    def test_rescans_only_on_first_read_and_revocation(self, distinct):
        store = make_store(ttl=10)
        table = store.stream("s")
        if distinct:
            query = store.distinct("s", "key", tolerance=AbsoluteTolerance(2))
        else:
            query = store.count("s", tolerance=AbsoluteTolerance(2))
        scans = []
        live_items = query._live_items
        query._live_items = lambda tau: scans.append(tau) or live_items(tau)
        rng = random.Random(20061014)
        for _ in range(40):
            store.ingest("s", (rng.randrange(20), rng.randrange(5)))
        query.read()
        assert len(scans) == 1  # the first read
        expected = 1
        for step in range(400):
            roll = rng.random()
            if roll < 0.6:
                store.ingest(
                    "s",
                    (rng.randrange(20), rng.randrange(5)),
                    ttl=rng.randint(1, 15),
                )
            elif roll < 0.64:
                rows = list(table.read().rows())
                if rows:
                    table.override(rng.choice(rows), ttl=rng.randint(0, 3))
                    expected += 1  # the next read rescans, once
            else:
                store.database.tick(1)
            query.read()
            assert len(scans) == expected
        refreshes = store.database.metrics.get(
            "repro_streaming_query_refreshes_total"
        )
        # Plenty of refreshes ran off the heap alone.
        assert refreshes.labels(query.name, "validity").value > 20


@st.composite
def extent_partitions(draw):
    tau = draw(st.integers(0, 20))
    members = draw(
        st.lists(
            st.tuples(
                st.integers(-50, 50),
                st.one_of(st.integers(tau + 1, tau + 40), st.just(INFINITY)),
            ),
            min_size=1,
            max_size=25,
        )
    )
    tolerance = draw(
        st.one_of(
            st.integers(0, 20).map(AbsoluteTolerance),
            st.sampled_from([0.0, 0.05, 0.25, 1.0]).map(RelativeTolerance),
        )
    )
    return tau, members, tolerance


class TestExtentBand:
    @settings(max_examples=300, deadline=None)
    @given(extent_partitions())
    def test_band_matches_min_and_max_validity(self, case):
        """The one-pass band is ``approximate_validity`` of min and max."""
        tau, members, tolerance = case
        store = StreamStore()
        store.create_stream("s", EVENT_SCHEMA, ttl=1)
        store.database.tick(tau)
        extent = store.extent("s", "value", tolerance=tolerance)
        table = store.stream("s")
        for key, (value, texp) in enumerate(members):
            table.insert((key, value), expires_at=texp)
        extent.read()
        items = list(members)
        expected = approximate_validity(
            items, MinAggregate(), store.database.now, tolerance
        ) & approximate_validity(
            items, MaxAggregate(), store.database.now, tolerance
        )
        assert extent.validity == expected
