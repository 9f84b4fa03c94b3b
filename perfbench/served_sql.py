"""Workload ``served-sql``: two sessions sending SQL to the served engine.

A reader and a writer :class:`~repro.server.client.AsyncSession` talk to
one :class:`~repro.server.server.ReproServer` over its in-process
loopback transport, each in a closed loop: a session sends its next
statement only after the reply to the previous one arrived, like a
``repro.connect`` user.  Both run concurrently on one event loop.

* The reader sends point ``SELECT ... WHERE sensor = k`` with a few range
  and ``COUNT`` queries, and holds a subscription to a materialised
  ``EXCEPT`` view maintained by Theorem-3 patches.  Point keys are
  skewed: a hot set of 124 distinct statements fits the default
  plan-cache capacity of 128, and a long tail does not.
* The writer sends ``INSERT ... EXPIRES IN``, ``RENEW``,
  ``UPDATE ... EXPIRES IN 0`` (revocation), inserts into the muting
  table, and ``ADVANCE BY 1`` every ``ADVANCE_EVERY`` writes.

All statements are generated from the seed before the round starts, and
the work is cut into ``PHASES`` phases.  Between phases both sessions are
parked and an untimed checkpoint re-issues sampled reads over the wire
and compares each with an uncached evaluation by the reference
interpreter at the same data version, and compares the subscriber's
patched copy of the view with the server-side read.

Why: the only workload through framing, SQL, the plan cache, compiled
kernels, view refresh and the subscription pump.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from time import perf_counter
from typing import List, Optional

from perfbench.common import Round, ratio, snapshot_epilogue
from perfbench.ops import Ops
from perfbench.tracing import Recorder, calls, self_us

NAME = "served-sql"

SENSORS = 1_000
VALUES_PER_SENSOR = 2     # seeded rows: SENSORS x VALUES_PER_SENSOR
SEED_TTL = (40, 1_000)
SEED_BATCH = 250          # rows per multi-row INSERT during set-up
READS = 1_500             # reader statements per round
WRITES = 400              # writer statements per round (ADVANCEs included)
PHASES = 10
ADVANCE_EVERY = 10
# The hot set -- HOT_KEYS point reads plus a range read and a range COUNT
# per start, 124 statements -- fits the default plan-cache capacity (128).
HOT_KEYS = 100
RANGES = 12
TAIL_SHARE = 0.15         # point reads drawn from every sensor (plan-cache misses)
SAMPLED_READS = 4         # per checkpoint


def _reader_statements(rng: random.Random) -> List[str]:
    hot = rng.sample(range(SENSORS), HOT_KEYS)
    weights = [1.0 / (rank + 1) for rank in range(HOT_KEYS)]
    starts = [rng.randrange(SENSORS - 20) for _ in range(RANGES)]
    texts = []
    for _ in range(READS):
        roll = rng.random()
        if roll < 0.90:
            if rng.random() < TAIL_SHARE:
                key = rng.randrange(SENSORS)
            else:
                key = rng.choices(hot, weights)[0]
            texts.append(f"SELECT value FROM Readings WHERE sensor = {key}")
        elif roll < 0.97:
            low = rng.choice(starts)
            texts.append(
                f"SELECT sensor, value FROM Readings "
                f"WHERE sensor >= {low} AND sensor < {low + 20}")
        else:
            # COUNT's validity interval costs far more than its scan, so
            # counts stay over ranges: a whole-table COUNT(*) would take
            # most of the round on its own.
            low = rng.choice(starts)
            texts.append(
                f"SELECT COUNT(*) FROM Readings "
                f"WHERE sensor >= {low} AND sensor < {low + 20}")
    return texts


def _writer_statements(rng: random.Random) -> List[str]:
    texts = []
    fresh = itertools.count(VALUES_PER_SENSOR)
    for i in range(WRITES):
        if i % ADVANCE_EVERY == ADVANCE_EVERY - 1:
            texts.append("ADVANCE BY 1")
            continue
        key = rng.randrange(SENSORS)
        roll = rng.random()
        if roll < 0.55:
            texts.append(
                f"INSERT INTO Readings VALUES ({key}, {next(fresh)}) "
                f"EXPIRES IN {rng.randint(5, 60)}")
        elif roll < 0.75:
            texts.append(
                f"RENEW Readings EXPIRES IN {rng.randint(20, 200)} "
                f"WHERE sensor = {key}")
        elif roll < 0.85:
            texts.append(
                f"UPDATE Readings EXPIRES IN 0 WHERE sensor = {key}")
        else:
            texts.append(
                f"INSERT INTO Muted VALUES ({key}) "
                f"EXPIRES IN {rng.randint(2, 20)}")
    return texts


def _seed_statements(rng: random.Random) -> List[str]:
    texts = [
        "CREATE TABLE Readings (sensor, value)",
        "CREATE TABLE Muted (sensor)",
    ]
    rows = [
        (sensor, value, rng.randint(*SEED_TTL))
        for sensor in range(SENSORS)
        for value in range(VALUES_PER_SENSOR)
    ]
    # One statement carries one lifetime; group rows by it.
    by_ttl = {}
    for sensor, value, ttl in rows:
        by_ttl.setdefault(ttl, []).append(f"({sensor}, {value})")
    for ttl in sorted(by_ttl):
        values = by_ttl[ttl]
        for start in range(0, len(values), SEED_BATCH):
            texts.append(
                f"INSERT INTO Readings VALUES "
                f"{', '.join(values[start:start + SEED_BATCH])} "
                f"EXPIRES IN {ttl}")
    for sensor in rng.sample(range(SENSORS), SENSORS // 20):
        texts.append(
            f"INSERT INTO Muted VALUES ({sensor}) "
            f"EXPIRES IN {rng.randint(2, 30)}")
    texts.append(
        "CREATE MATERIALIZED VIEW live AS SELECT sensor FROM Readings "
        "EXCEPT SELECT sensor FROM Muted WITH POLICY PATCH")
    return texts


def run(seed: int, recorder: Optional[Recorder] = None) -> Round:
    return asyncio.run(_round(seed, recorder))


async def _round(seed: int, recorder: Optional[Recorder]) -> Round:
    from repro.server.client import AsyncSession
    from repro.server.server import ReproServer

    rng = random.Random(seed)
    seeding = _seed_statements(rng)
    reads = _reader_statements(rng)
    writes = _writer_statements(rng)
    check_rng = random.Random(seed + 1)

    rnd = Round()
    rids = itertools.count(1)
    reader_ops = Ops(recorder, rids)
    writer_ops = Ops(recorder, rids)

    async def connect(ops: Ops):
        ops.bind()  # the server's connection tasks inherit this slot
        return await AsyncSession.over_loopback(server)

    before = rnd.calibrate()
    started = perf_counter()
    server = ReproServer()
    db = server.db
    writer = await asyncio.ensure_future(connect(writer_ops))
    reader = await asyncio.ensure_future(connect(reader_ops))
    for text in seeding:
        await writer.execute(text)
    subscription = await reader.subscribe("live")
    rnd.setup_s = perf_counter() - started
    rnd.setup_slowdown = (before + rnd.calibrate()) / 2

    async def reader_phase(texts):
        reader_ops.bind()
        for text in texts:
            await reader_ops.run_async(rnd.reads, reader.query, text)

    async def writer_phase(texts):
        writer_ops.bind()
        for text in texts:
            await writer_ops.run_async(rnd.writes, writer.execute, text)

    try:
        for phase in range(PHASES):
            r0, r1 = _slice(READS, phase), _slice(READS, phase + 1)
            w0, w1 = _slice(WRITES, phase), _slice(WRITES, phase + 1)
            before = _counters(db, server, subscription)
            phase_started = perf_counter()
            await asyncio.gather(
                reader_phase(reads[r0:r1]), writer_phase(writes[w0:w1]))
            rnd.timed_s += perf_counter() - phase_started
            # Counters cover the timed phases only, not the checkpoints.
            for key, value in _counters(db, server, subscription).items():
                rnd.counters[key] = (
                    rnd.counters.get(key, 0) + value - before[key])
            if recorder is None:
                await _checkpoint(rnd, db, reader, subscription, check_rng,
                                  reads)
            else:
                with recorder.paused():
                    await _checkpoint(rnd, db, reader, subscription,
                                      check_rng, reads)
        rnd.counters.update(
            reads=len(rnd.reads), writes=len(rnd.writes),
            now=db.now.value, live=db.total_live_tuples())
        before = rnd.marks[-1][2]
        _epilogue(rnd, db)
        rnd.recovery_slowdown = (before + rnd.calibrate()) / 2
        if recorder is not None:
            rnd.layers = _layers(recorder, rnd)
    finally:
        await reader.close()
        await writer.close()
        await server.stop()
    return rnd


def _slice(total: int, phase: int) -> int:
    return total * phase // PHASES


async def _checkpoint(rnd, db, reader, subscription, rng, reads) -> None:
    """Sampled reads against the interpreter, and the subscriber's copy."""
    from repro.sql.parser import parse_sql
    from repro.sql.planner import plan_query

    def resolve(name):
        return db.table_expr(name), db.table(name).schema

    for text in rng.sample(reads, SAMPLED_READS):
        served = await reader.query(text)
        if served.data_version != db.catalog_version or served.now != db.now:
            rnd.fail(f"checkpoint read {text!r} was not served at the "
                     f"quiescent data version")
            continue
        oracle = db.evaluate(plan_query(parse_sql(text), resolve),
                             engine="interpreted")
        if set(served.items or ()) != set(oracle.relation.items()):
            rnd.fail(f"served {text!r} differs from the uncached "
                     f"interpreter at data version {served.data_version}")
    await reader.ping()  # every push queued before the pong is absorbed
    if subscription.degraded:
        await reader.refetch(subscription)
    client_rows = sorted(subscription.read())
    server_rows = sorted(db.view("live").read().rows())
    if client_rows != server_rows:
        rnd.fail(f"subscriber view ({len(client_rows)} rows) differs from "
                 f"the server-side read ({len(server_rows)} rows)")
    rnd.note_residency(db.total_physical_tuples(), db.total_live_tuples())
    rnd.calibrate()


def _epilogue(rnd: Round, db) -> None:
    """The shared snapshot epilogue, plus the reloaded view."""
    loaded = snapshot_epilogue(rnd, db, NAME)
    if sorted(loaded.view("live").read().rows()) != sorted(
            db.view("live").read().rows()):
        rnd.fail("reloaded view differs from the live view")
    loaded.close()


def _counter(db, name, label=None) -> float:
    family = db.metrics.get(name)
    if family is None:
        return 0
    return sum(c.value for labels, c in family.series()
               if label is None or label in labels)


def _counters(db, server, subscription) -> dict:
    """Cumulative program counters (the round keeps per-phase deltas)."""
    fam = server.families
    view = db.view("live")
    return {
        "plan_cache_hits": _counter(db, "repro_plan_cache_hits_total"),
        "plan_cache_misses": _counter(db, "repro_plan_cache_misses_total"),
        "compilations": _counter(db, "repro_plan_cache_compilations_total"),
        "evictions": _counter(db, "repro_plan_cache_evictions_total"),
        "view_recomputations": view.recomputations,
        "view_patches_applied": view.patches_applied,
        "patches": fam["patches"].value,
        "patch_rows": sum(c.value for _, c in fam["patch_rows"].series()),
        "scanned": _counter(db, "repro_eval_tuples_scanned_total", "compiled"),
        "emitted": _counter(db, "repro_eval_tuples_emitted_total", "compiled"),
        "client_patches": subscription.patches_applied,
    }


def _layers(recorder: Recorder, rnd: Round) -> dict:
    """Per-layer figures of a traced round.

    Protocol figures add both ends of the wire (frame encode and decode
    in client and server) per request.  ``diff_self_us`` is the
    subscription diff per ``diff_payload`` call; the patch rows and the
    plan-cache and scan counters cover the timed phases only.
    """
    spans = recorder.summary()
    work = recorder.work
    c = rnd.counters
    requests = len(rnd.reads) + len(rnd.writes)
    statements = work["sql.parse"]
    protocol_s = sum(
        spans.get(name, {}).get("self_s", 0.0)
        for name in ("protocol.encode", "protocol.decode"))
    diff_s = sum(
        spans.get(name, {}).get("self_s", 0.0)
        for name in ("session.diff", "session.diff_payload"))
    evaluations = calls(spans, "plan_cache.evaluate")
    return {
        "server.protocol.self_us_per_req": ratio(protocol_s, requests) * 1e6,
        "server.protocol.bytes_per_req": ratio(work["protocol.encode"],
                                               requests),
        "server.pump.self_us_per_call": self_us(spans, "server.pump"),
        "server.pump.useful_ratio": ratio(work["server.pump"],
                                          calls(spans, "server.pump")),
        "server.session.diff_self_us": ratio(
            diff_s, calls(spans, "session.diff_payload")) * 1e6,
        "server.session.patch_rows_per_write": ratio(c["patch_rows"],
                                                     len(rnd.writes)),
        "sql.parse.self_us_per_stmt": ratio(
            spans.get("sql.parse", {}).get("self_s", 0.0), statements) * 1e6,
        "sql.executor.self_us_per_stmt": self_us(spans, "sql.execute"),
        "plan_cache.hit_ratio": ratio(
            c["plan_cache_hits"],
            c["plan_cache_hits"] + c["plan_cache_misses"]),
        "plan_cache.compilations": c["compilations"],
        "plan_cache.evictions": c["evictions"],
        "plan_cache.self_us_per_eval": ratio(
            spans.get("plan_cache.evaluate", {}).get("self_s", 0.0),
            evaluations) * 1e6,
        "compiler.execute_self_us": self_us(spans, "compiler.execute"),
        "compiler.scanned_per_emitted": ratio(c["scanned"], c["emitted"]),
        "views.recomputations": c["view_recomputations"],
        "views.refresh_self_us": self_us(spans, "views.refresh"),
        "views.patches_applied": c["view_patches_applied"],
    }
