"""Workload ``authz-durable``: expiring authorization on a logged database.

An :class:`~repro.workloads.authz.AuthzStore` runs on a write-ahead-logged
:class:`~repro.engine.database.Database` with fsync policy ``"commit"``.
Its writes are autocommit, never transactions, so no write waits for an
fsync: fsyncs happen only at the set-up checkpoint, at compaction and at
close.

* Set-up bulk-loads the direct grants, adds the role/group hierarchy and
  refresh tokens, builds the hierarchy views and checkpoints.
* Timed: a 95/5 check/write mix, then renew/revoke/lockout churn whose
  short-lived tokens and lockouts expire.  Each revocation is followed at
  once by the ``check`` it must flip.
* Then ``compact_wal()``, ``close()``, ``recover_database`` and a reopened
  store; every revoked grant must stay denied and a fixed probe set must
  answer as it did before the close.

Compaction is measured as it stands: swept ``remove`` records survive it,
so ``wal.compact.expired_dropped`` reads 0 at the time of writing.

Why: point reads through the same partitioned storage ``stream-ingest``
writes through (columnar grants, ``IncrementalView.contains``), and the
only workload that runs the write-ahead log and recovery.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Optional

from perfbench.common import Round, Untimed, ratio, tree_bytes, workdir
from perfbench.ops import Ops
from perfbench.tracing import Recorder, self_us

NAME = "authz-durable"

GRANTS = 20_000
SUBJECTS = GRANTS // 10
RELATIONS = ("read", "write", "own", "share")
GRANT_TTL = (500, 5_000)
ROLES = 32
ROLE_GRANTS_PER_ROLE = 20
GROUPS = 16
MEMBERS = 1_000
TOKENS = 2_000
PARTITIONS = 8
MIX_OPS = 60_000
CHECK_SHARE = 0.95
TICK_EVERY = 3_000        # mix operations per clock tick
CHURN_ROUNDS = 400
CHURN_TICK_EVERY = 16     # churn rounds per 3-tick advance
PROBES = 300


def _setup(seed: int, directory: str):
    from repro.engine.database import Database
    from repro.workloads.authz import AuthzStore

    rng = random.Random(seed)
    db = Database(wal_dir=directory, wal_fsync="commit")
    store = AuthzStore(db, partitions=PARTITIONS)

    store.load_grants(
        (_grant(i), rng.randint(*GRANT_TTL)) for i in range(GRANTS))
    for r in range(ROLES):
        for g in range(ROLE_GRANTS_PER_ROLE):
            store.grant_role(f"role{r}", "read", f"shared{r}_{g}",
                             ttl=GRANT_TTL[1])
    for g in range(GROUPS):
        store.map_group_role(f"grp{g}", f"role{g % ROLES}", ttl=GRANT_TTL[1])
    for m in range(MEMBERS):
        if m % 2:
            store.assign_role(f"m{m}", f"role{m % ROLES}", ttl=GRANT_TTL[1])
        else:
            store.join_group(f"m{m}", f"grp{m % GROUPS}", ttl=GRANT_TTL[1])
    for s in range(TOKENS):
        store.issue_token(f"tok{s}", f"u{s % SUBJECTS}")
    store.warm_views()
    db.checkpoint()
    return store, rng


def _grant(i: int) -> tuple:
    """The ``i``-th bulk-loaded direct grant."""
    return (f"u{i % SUBJECTS}", RELATIONS[i % len(RELATIONS)],
            f"doc{i // len(RELATIONS)}")


def _probe(rng: random.Random) -> tuple:
    """Half loaded grants, a quarter hierarchy paths, a quarter misses."""
    roll = rng.random()
    if roll < 0.5:
        return _grant(rng.randrange(GRANTS))
    if roll < 0.75:
        r = rng.randrange(ROLES)
        return (f"m{rng.randrange(MEMBERS)}", "read",
                f"shared{r}_{rng.randrange(ROLE_GRANTS_PER_ROLE)}")
    return (f"ghost{rng.randrange(1_000_000)}", "read", "doc0")


def run(seed: int, recorder: Optional[Recorder] = None) -> Round:
    rnd = Round()
    directory = workdir(NAME)
    before = rnd.calibrate()
    started = perf_counter()
    store, rng = _setup(seed, directory)
    rnd.setup_s = perf_counter() - started
    rnd.setup_slowdown = (before + rnd.calibrate()) / 2
    db = store.database
    ops = Ops(recorder)
    reads, writes = rnd.reads, rnd.writes
    before = _wal_counters(db)
    revoked = []

    phase_started = perf_counter()
    for i in range(MIX_OPS):
        if rng.random() < CHECK_SHARE:
            ops.run(reads, store.check, *_probe(rng))
        else:
            roll = rng.random()
            subject = f"u{rng.randrange(SUBJECTS)}"
            if roll < 0.4:
                ops.run(writes, store.grant, subject, "read", f"fresh{i}",
                        rng.randint(*GRANT_TTL))
            elif roll < 0.7:
                tok = rng.randrange(TOKENS)
                ops.run(writes, store.refresh_token, f"tok{tok}",
                        f"u{tok % SUBJECTS}")
            else:
                ops.run(writes, store.audit, subject, "access")
        if i % TICK_EVERY == TICK_EVERY - 1:
            ops.run(writes, db.tick, 1)
            with Untimed(rnd):
                rnd.calibrate()
    with Untimed(rnd):
        rnd.note_residency(db.total_physical_tuples(), db.total_live_tuples())

    for i in range(CHURN_ROUNDS):
        for _ in range(8):
            tok = rng.randrange(TOKENS)
            ops.run(writes, store.refresh_token, f"tok{tok}",
                    f"u{tok % SUBJECTS}")
        grant = _grant(rng.randrange(GRANTS))
        if ops.run(reads, store.check, *grant):
            ops.run(writes, store.revoke, *grant)
            revoked.append(grant)
            if ops.run(reads, store.check, *grant):
                rnd.fail(f"revoked grant {grant} still allowed")
        tok = rng.randrange(TOKENS)
        token = (f"tok{tok}", f"u{tok % SUBJECTS}")
        if ops.run(reads, store.token_valid, *token):
            ops.run(writes, store.revoke_token, *token)
            if ops.run(reads, store.token_valid, *token):
                rnd.fail(f"revoked token {token} still valid")
        locked = f"u{rng.randrange(SUBJECTS)}"
        ops.run(writes, store.lock_out, locked, 2)
        obj = f"doc{rng.randrange(GRANTS // len(RELATIONS))}"
        if ops.run(reads, store.check, locked, "read", obj):
            rnd.fail(f"locked-out subject {locked} was allowed")
        if i % CHURN_TICK_EVERY == CHURN_TICK_EVERY - 1:
            ops.run(writes, db.tick, 3)
            with Untimed(rnd):
                rnd.calibrate()
    with Untimed(rnd):
        rnd.note_residency(db.total_physical_tuples(), db.total_live_tuples())
    rnd.timed_s = perf_counter() - phase_started - rnd.untimed_s
    after = _wal_counters(db)
    rnd.counters = {key: after[key] - before[key] for key in after}
    rnd.counters.update(reads=len(reads), writes=len(writes),
                        revoked=len(revoked))
    before = rnd.calibrate()
    _durability(rnd, store, directory, revoked, seed)
    rnd.recovery_slowdown = (before + rnd.calibrate()) / 2
    if recorder is not None:
        rnd.layers = _layers(recorder, rnd)
    return rnd


def _wal_counters(db) -> dict:
    metrics = db.metrics
    records = metrics.get("repro_wal_records_total")
    return {
        "wal_records": sum(c.value for _, c in records.series()),
        "wal_bytes": metrics.get("repro_wal_bytes_appended_total").value,
        "wal_fsyncs": metrics.get("repro_wal_fsyncs_total").value,
    }


def _durability(rnd: Round, store, directory: str, revoked, seed) -> None:
    """Compact, close, recover, reopen; the recovered store must agree."""
    from repro.engine.recovery import recover_database
    from repro.workloads.authz import AuthzStore

    db = store.database
    probe_rng = random.Random(seed + 2)
    probes = [_probe(probe_rng) for _ in range(PROBES)] + revoked
    expected = [store.check(*probe) for probe in probes]
    try:
        db.verify(strict=True, deep=True)
    except Exception as error:  # InvariantViolation, or a crash inside it
        rnd.fail(f"verify(strict, deep) before close: {error}")
    stats = db.compact_wal()
    live = db.total_live_tuples()
    rnd.disk_bytes_per_live_row = ratio(tree_bytes(directory), live)
    db.close()

    started = perf_counter()
    recovered = recover_database(directory, fsync="commit")
    reopened = AuthzStore(recovered, partitions=PARTITIONS)
    reopened.warm_views()
    rnd.recovery_s = perf_counter() - started

    for probe, answer in zip(probes, expected):
        if reopened.check(*probe) != answer:
            rnd.fail(f"probe {probe} answered {not answer} after recovery, "
                     f"{answer} before close")
    for grant in revoked:
        if reopened.check(*grant):
            rnd.fail(f"revoked grant {grant} allowed after recovery")
    try:
        recovered.verify(strict=True, deep=True)
    except Exception as error:  # InvariantViolation, or a crash inside it
        rnd.fail(f"verify(strict, deep) after recovery: {error}")
    rnd.counters.update(
        compact_kept=stats["kept"],
        compact_expired=stats["expired"],
        compact_superseded=stats["superseded"],
        records_replayed=recovered.last_recovery.records_replayed,
        live=live,
    )
    recovered.close()


def _layers(recorder: Recorder, rnd: Round) -> dict:
    """Per-layer figures of a traced round.

    ``wal.fsyncs`` counts every ``os.fsync`` of the round: set-up
    checkpoint, compaction, close and recovery (the timed writes issue
    none).  The recovery split covers ``recover_database`` alone: snapshot
    load, deep verify, and the rest, which is mostly log replay.
    """
    spans = recorder.summary()
    c = rnd.counters
    recover_ids = set()
    recover_s = 0.0
    for sid, name, start, end, _parent, _rid in recorder.spans:
        if name == "recovery.recover":
            recover_ids.add(sid)
            recover_s += end - start
    load_s = verify_s = 0.0
    for _sid, name, start, end, parent, _rid in recorder.spans:
        if parent in recover_ids:
            if name == "recovery.snapshot_load":
                load_s += end - start
            elif name == "database.verify":
                verify_s += end - start
    return {
        "table.insert_self_us": self_us(spans, "table.insert"),
        "table.override_self_us": self_us(spans, "table.override"),
        "authz.check_self_us": self_us(spans, "authz.check"),
        "views.contains_self_us": self_us(spans, "views.contains"),
        "wal.append_self_us": self_us(spans, "wal.append"),
        "wal.bytes_per_write": ratio(c["wal_bytes"], c["writes"]),
        "wal.fsyncs": spans.get("os.fsync", {}).get("calls", 0),
        "wal.compact.kept": c["compact_kept"],
        "wal.compact.expired_dropped": c["compact_expired"],
        "wal.compact.superseded": c["compact_superseded"],
        "wal.compact_self_s": spans.get("wal.compact", {}).get("self_s", 0.0),
        "recovery.snapshot_load_s": load_s,
        "recovery.replay_s": recover_s - load_s - verify_s,
        "recovery.verify_s": verify_s,
        "recovery.records_replayed": c["records_replayed"],
    }
