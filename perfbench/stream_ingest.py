"""Workload ``stream-ingest``: expiring-stream ingest with standing queries.

Heterogeneous-TTL events go into a 4-partition absolute stream; a
``since_last_modification`` connection stream is kept alive by touches on
half of its flows.  Standing queries (exact count, tolerant count,
distinct, extent, reservoir sample) are read every ``READ_EVERY`` events
and the clock ticks every ``EVENTS_PER_TICK`` events.  Every amount is a
constant and every clock advance is keyed to the event index, so a seed
fixes the work exactly.

Why: the write-and-sweep path (``Table.insert``, index scheduling,
partitioned sweeps) and validity-served standing queries, whose refresh
runs ``approximate_count_validity``.  SQL, the server and the evaluator
are never touched.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Optional

from perfbench.common import Round, Untimed, ratio, snapshot_epilogue
from perfbench.ops import Ops
from perfbench.tracing import Recorder, calls, self_us

NAME = "stream-ingest"

EVENTS = 15_000          # timed arrivals per round
PREFILL = 8_000          # arrivals during set-up, to reach steady state
EVENTS_PER_TICK = 200
TTL_RANGE = (2, 40)
KEYS = 400
VALUES = 10_000
PARTITIONS = 4
READ_EVERY = 25          # events between standing-query reads
CHECK_EVERY = 1_000      # events between untimed brute-force checkpoints
COUNT_TOLERANCE = 32
SAMPLE_SIZE = 64
FLOWS = 400
IDLE_TIMEOUT = 25
TOUCH_EVERY_TICKS = 5


def _setup(seed: int):
    from repro.core.approximate import AbsoluteTolerance
    from repro.workloads.streaming import (
        CONNECTION_SCHEMA,
        EVENT_SCHEMA,
        StreamStore,
    )

    rng = random.Random(seed)
    store = StreamStore()
    store.create_stream(
        "Events", EVENT_SCHEMA, ttl=TTL_RANGE[1],
        partitions=PARTITIONS, partition_key="key",
    )
    store.create_stream(
        "Conns", CONNECTION_SCHEMA, ttl=IDLE_TIMEOUT,
        expiry="since_last_modification",
    )
    queries = {
        "exact": store.count("Events", name="Events:exact"),
        "approx": store.count(
            "Events", tolerance=AbsoluteTolerance(COUNT_TOLERANCE),
            name="Events:approx"),
        "distinct": store.distinct("Events", "key"),
        "extent": store.extent("Events", "value"),
        "sample": store.sample(
            "Events", SAMPLE_SIZE, rng=random.Random(seed + 1)),
    }
    db = store.database
    for i in range(PREFILL):
        store.ingest("Events", _event(rng), ttl=rng.randint(*TTL_RANGE))
        if i % EVENTS_PER_TICK == EVENTS_PER_TICK - 1:
            db.tick(1)
    flows = [
        (i, rng.randrange(64), rng.randrange(1024)) for i in range(FLOWS)
    ]
    for flow in flows:
        store.ingest("Conns", flow)
    return store, queries, flows, db.now.value, rng


def _event(rng: random.Random) -> tuple:
    return (rng.randrange(KEYS), rng.randrange(VALUES))


def run(seed: int, recorder: Optional[Recorder] = None) -> Round:
    rnd = Round()
    before = rnd.calibrate()
    started = perf_counter()
    store, queries, flows, flows_born, rng = _setup(seed)
    rnd.setup_s = perf_counter() - started
    rnd.setup_slowdown = (before + rnd.calibrate()) / 2
    db = store.database
    events = store.stream("Events")
    conns = store.stream("Conns")
    touched = flows[::2]
    untouched = flows[1::2]
    ops = Ops(recorder)
    reads, writes = rnd.reads, rnd.writes
    order = ("exact", "approx", "distinct", "extent", "sample")
    answers = {}
    skews = []

    phase_started = perf_counter()
    for i in range(EVENTS):
        ops.run(writes, store.ingest, "Events", _event(rng),
                rng.randint(*TTL_RANGE))
        if i % EVENTS_PER_TICK == EVENTS_PER_TICK - 1:
            ops.run(writes, db.tick, 1)
            with Untimed(rnd):
                rnd.note_residency(db.total_physical_tuples(),
                                   db.total_live_tuples())
                sizes = [len(shard) for shard in events.relation.shards]
                skews.append(ratio(max(sizes), sum(sizes) / len(sizes)))
            if db.now.value % TOUCH_EVERY_TICKS == 0:
                for flow in touched:
                    ops.run(writes, store.touch, "Conns", flow)
        if i % READ_EVERY == READ_EVERY - 1:
            for key in order:
                answers[key] = ops.run(reads, queries[key].read)
        if i % CHECK_EVERY == CHECK_EVERY - 1:
            with Untimed(rnd):
                _check(rnd, db, events, conns, answers, touched, untouched,
                       flows_born)
                rnd.calibrate()
    rnd.timed_s = perf_counter() - phase_started - rnd.untimed_s

    before = rnd.marks[-1][2]
    snapshot_epilogue(rnd, db, NAME).close()
    rnd.recovery_slowdown = (before + rnd.calibrate()) / 2
    rnd.counters = _counters(db, rnd)
    if recorder is not None:
        rnd.layers = _layers(recorder, rnd, skews)
    db.close()
    return rnd


def _check(rnd, db, events, conns, answers, touched, untouched, born) -> None:
    """Brute force against the answers served at this same instant."""
    now = db.now
    live = events.read()
    rows = set(live.rows())
    truth = len(rows)
    if answers["exact"] != truth:
        rnd.fail(f"exact count {answers['exact']} != brute force {truth}")
    if abs(answers["approx"] - truth) > COUNT_TOLERANCE:
        rnd.fail(f"tolerant count {answers['approx']} outside "
                 f"{truth}±{COUNT_TOLERANCE}")
    distinct = len({row[0] for row in rows})
    if answers["distinct"] != distinct:
        rnd.fail(f"distinct {answers['distinct']} != brute force {distinct}")
    values = [row[1] for row in rows]
    extent = max(values) - min(values) if values else None
    if answers["extent"] != extent:
        rnd.fail(f"extent {answers['extent']} != brute force {extent}")
    sample = answers["sample"]
    if len(sample) > SAMPLE_SIZE or not set(sample) <= rows:
        rnd.fail("reservoir sample is not a bounded subset of the live set")
    for flow in touched:
        if not _alive(conns, flow, now):
            rnd.fail(f"touched flow {flow} expired at {now}")
    if now.value >= born + IDLE_TIMEOUT:
        for flow in untouched:
            if _alive(conns, flow, now):
                rnd.fail(f"untouched flow {flow} alive at {now}")


def _alive(table, row, now) -> bool:
    texp = table.relation.expiration_or_none(row)
    return texp is not None and now < texp


def _counters(db, rnd: Round) -> dict:
    metrics = db.metrics
    serves = metrics.get("repro_streaming_query_serves_total")
    refreshes = metrics.get("repro_streaming_query_refreshes_total")
    stats = db.statistics
    return {
        "reads": len(rnd.reads),
        "writes": len(rnd.writes),
        "serves_cached": sum(c.value for labels, c in serves.series()
                             if labels[1] == "cached"),
        "serves_refresh": sum(c.value for labels, c in serves.series()
                              if labels[1] == "refresh"),
        "refreshes": sum(c.value for _, c in refreshes.series()),
        "inserts": stats.inserts,
        "touches": stats.touches,
        "expired": stats.expirations_processed,
        "resident": db.total_physical_tuples(),
    }


def _layers(recorder: Recorder, rnd: Round, skews) -> dict:
    """Per-layer figures of a traced round.

    ``tuples_per_sweep`` counts flat and partitioned sweeps together;
    ``shard_skew`` is the largest over the mean shard size, averaged over
    the ticks; the serve and refresh counts come from the program's
    ``repro_streaming_*`` counters.
    """
    spans = recorder.summary()
    work = recorder.work
    counters = rnd.counters
    sweeps = (calls(spans, "expiration.sweep")
              + calls(spans, "partitioning.sweep"))
    serves = counters["serves_cached"] + counters["serves_refresh"]
    return {
        "table.insert_self_us": self_us(spans, "table.insert"),
        "table.touch_self_us": self_us(spans, "table.touch"),
        "expiration.sweep_self_us": self_us(spans, "expiration.sweep"),
        "expiration.tuples_per_sweep": ratio(
            work["expiration.sweep"] + work["partitioning.sweep"], sweeps),
        "partitioning.sweep_self_us": self_us(spans, "partitioning.sweep"),
        "partitioning.shard_skew": ratio(sum(skews), len(skews)),
        "streaming.cached_serve_ratio": ratio(counters["serves_cached"],
                                              serves),
        "streaming.refreshes": counters["refreshes"],
        "streaming.refresh_self_us": self_us(spans, "streaming.refresh"),
        "approximate.count_validity_self_us": self_us(
            spans, "approximate.count_validity"),
        "approximate.rows_per_call": ratio(
            work["approximate.count_validity"],
            calls(spans, "approximate.count_validity")),
    }
