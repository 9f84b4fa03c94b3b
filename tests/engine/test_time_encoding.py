"""One JSON form of time in the WAL, snapshots, expressions and the wire.

In memory :data:`INFINITY` is the int64 sentinel ``2^63 - 1``; wherever
time is written down it is ``null``.  These tests pin that contract from
both sides: files written by hand in the on-disk format recover to the
expected state, and a row stamped ``INFINITY`` never leaves the process as
the sentinel integer -- now that ``json.dumps(INFINITY)`` no longer
raises, a stray encode path would otherwise write it silently.
"""

import json
import struct
import zlib

import pytest

from repro.core.algebra.expressions import Literal
from repro.core.algebra.serde import expression_from_dict, expression_to_dict
from repro.core.relation import Relation
from repro.core.timestamps import INFINITY, RAW_INFINITY, ts
from repro.engine.database import Database
from repro.engine.recovery import recover_database
from repro.engine.wal import WriteAheadLog, scan_log
from repro.server.protocol import (
    FrameDecoder,
    decode_items,
    encode_frame,
    encode_items,
)

SENTINEL = str(RAW_INFINITY).encode()

TABLE_SPEC = {
    "columns": ["k", "v"],
    "lazy_batch_size": 64,
    "name": "T",
    "removal_policy": "eager",
}


def frame(payload):
    """One WAL/wire frame, spelled out: length, CRC32, compact sorted JSON."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    return struct.pack(">II", len(body), zlib.crc32(body)) + body


def state(db):
    return {
        name: dict(db.table(name).relation.items()) for name in db.table_names()
    }


class TestHandWrittenFiles:
    def test_wal_segment_recovers(self, tmp_path):
        records = [
            {"kind": "create_table", "spec": TABLE_SPEC},
            {"kind": "upsert", "table": "T", "row": [1, "a"], "texp": None,
             "prev": "absent"},
            {"kind": "upsert", "table": "T", "row": [2, "b"], "texp": 7,
             "prev": "absent"},
            {"kind": "upsert", "table": "T", "row": [2, "b"], "texp": 12,
             "prev": 7},
            {"kind": "upsert", "table": "T", "row": [1, "a"], "texp": 20,
             "prev": None},
            {"kind": "upsert", "table": "T", "row": [3, "c"], "texp": None,
             "prev": "absent"},
            {"kind": "upsert", "table": "T", "row": [4, "d"], "texp": 3,
             "prev": "absent"},
            {"kind": "clock", "now": 5},
        ]
        (tmp_path / WriteAheadLog.LOG_NAME).write_bytes(
            b"".join(frame(r) for r in records)
        )
        db = recover_database(tmp_path)
        assert db.now == ts(5)
        assert state(db) == {
            "T": {(1, "a"): ts(20), (2, "b"): ts(12), (3, "c"): INFINITY}
        }
        assert db.table("T").relation.expiration_of((3, "c")) is INFINITY
        db.close()

    def test_open_transaction_rolls_back_to_absent_and_null(self, tmp_path):
        records = [
            {"kind": "create_table", "spec": TABLE_SPEC},
            {"kind": "upsert", "table": "T", "row": [1, "a"], "texp": None,
             "prev": "absent"},
            {"kind": "begin", "txn": 1},
            {"kind": "upsert", "table": "T", "row": [1, "a"], "texp": 9,
             "prev": None, "txn": 1},
            {"kind": "upsert", "table": "T", "row": [2, "b"], "texp": 9,
             "prev": "absent", "txn": 1},
        ]
        (tmp_path / WriteAheadLog.LOG_NAME).write_bytes(
            b"".join(frame(r) for r in records)
        )
        db = recover_database(tmp_path)
        assert state(db) == {"T": {(1, "a"): INFINITY}}
        db.close()

    def test_snapshot_recovers(self, tmp_path):
        snapshot = {
            "format": 1,
            "now": 4,
            "tables": [
                dict(TABLE_SPEC, rows=[[[1, "a"], None], [[2, "b"], 9]]),
                {"columns": ["k"], "lazy_batch_size": 64, "name": "P",
                 "partition_key": "k", "partitions": 2,
                 "removal_policy": "eager", "layout": "columnar",
                 "rows": [[[5], None], [[6], 11]]},
            ],
            "views": [],
        }
        (tmp_path / WriteAheadLog.SNAPSHOT_NAME).write_text(
            json.dumps(snapshot, indent=1, sort_keys=True)
        )
        db = recover_database(tmp_path)
        assert db.now == ts(4)
        assert state(db) == {
            "P": {(5,): INFINITY, (6,): ts(11)},
            "T": {(1, "a"): INFINITY, (2, "b"): ts(9)},
        }
        db.close()


class TestInfinityIsNeverTheSentinel:
    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_wal_and_snapshot(self, tmp_path, layout):
        db = Database(wal_dir=tmp_path)
        table = db.create_table("T", ["k"], layout=layout)
        table.insert((1,))
        table.insert((2,), expires_at=INFINITY)
        table.insert((3,), expires_at=9)
        table.override((3,), expires_at=INFINITY)  # prev 9, texp null
        table.override((3,), expires_at=10)  # prev null
        log = (tmp_path / WriteAheadLog.LOG_NAME).read_bytes()
        assert SENTINEL not in log
        upserts = [r for r in scan_log(tmp_path / WriteAheadLog.LOG_NAME)[0]
                   if r.kind == "upsert"]
        assert [(r["prev"], r["texp"]) for r in upserts] == [
            ("absent", None), ("absent", None), ("absent", 9), (9, None),
            (None, 10),
        ]
        db.checkpoint()
        snapshot = (tmp_path / WriteAheadLog.SNAPSHOT_NAME).read_bytes()
        assert SENTINEL not in snapshot
        rows = json.loads(snapshot)["tables"][0]["rows"]
        assert sorted(rows) == [[[1], None], [[2], None], [[3], 10]]
        db.close()

    def test_serialised_expression(self):
        relation = Relation(["k"])
        relation.insert((1,))
        relation.insert((2,), expires_at=5)
        encoded = json.dumps(expression_to_dict(Literal(relation)))
        assert SENTINEL.decode() not in encoded
        assert json.loads(encoded)["rows"] == [[[1], None], [[2], 5]]
        decoded = expression_from_dict(json.loads(encoded))
        assert dict(decoded.relation.items()) == {(1,): INFINITY, (2,): ts(5)}

    def test_wire_frame(self):
        items = [((1, "a"), INFINITY), ((2, "b"), ts(5))]
        blob = encode_frame({"kind": "rows", "rows": encode_items(items)})
        assert SENTINEL not in blob
        (payload,) = FrameDecoder().feed(blob)
        assert payload["rows"] == [[[1, "a"], None], [[2, "b"], 5]]
        assert decode_items(payload["rows"]) == items
