"""Tests for the write-ahead log: frames, torn tails, compaction."""

import struct
import zlib

import pytest

from repro.core.timestamps import INFINITY, decode_exp, encode_exp, ts
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.recovery import recover_database
from repro.engine.wal import WriteAheadLog, scan_log
from repro.errors import WalError


class TestEncodings:
    def test_expiration_roundtrip(self):
        assert encode_exp(INFINITY) is None
        assert encode_exp(ts(5)) == 5
        assert decode_exp(None) == INFINITY
        assert decode_exp(5) == ts(5)

    def test_previous_state_roundtrip(self, tmp_path):
        """``prev`` is ``"absent"`` for no row, else the encoded texp."""
        db = Database(wal_dir=tmp_path)
        table = db.create_table("T", ["k"])
        table.insert((1,))  # absent -> forever
        table.insert((2,), expires_at=7)  # absent -> 7
        table.override((1,), expires_at=9)  # forever -> 9
        table.insert((2,), expires_at=8)  # 7 -> 8
        db.close()
        upserts = [r for r in scan_log(tmp_path / WriteAheadLog.LOG_NAME)[0]
                   if r.kind == "upsert"]
        assert [(r["row"], r["prev"], r["texp"]) for r in upserts] == [
            ([1], "absent", None),
            ([2], "absent", 7),
            ([1], None, 9),
            ([2], 7, 8),
        ]


class TestFrames:
    def test_append_and_read_back_in_order(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("clock", now=3)
        wal.append("upsert", table="T", row=[1, 2], texp=9, prev="absent")
        wal.append("remove", table="T", row=[1, 2], prev=9)
        records = wal.records()
        assert [r.kind for r in records] == ["clock", "upsert", "remove"]
        assert records[1]["row"] == [1, 2]
        assert records[1]["texp"] == 9
        wal.close()

    def test_scan_missing_file(self, tmp_path):
        assert scan_log(tmp_path / "nope.log") == ([], 0, False)

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(WalError):
            wal.append("clock", now=1)

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_txn_counter_seeds_past_logged_ids(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("begin", txn=5)
        wal.append("commit", txn=5)
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        assert reopened.next_txn_id() == 6
        reopened.close()

    def test_reset_empties_the_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("clock", now=1)
        wal.reset()
        assert wal.records() == []
        wal.append("clock", now=2)  # still appendable after reset
        assert [r["now"] for r in wal.records()] == [2]
        wal.close()


class TestTornTails:
    def _intact(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("clock", now=1)
        wal.append("upsert", table="T", row=[1], texp=None, prev="absent")
        wal.close()
        return wal.log_path, len(wal.log_path.read_bytes())

    @pytest.mark.parametrize(
        "tail",
        [
            b"\x00\x00",                               # short header
            struct.pack(">II", 40, 0) + b"abc",        # short payload
            struct.pack(">II", 2**31, 0) + b"x" * 32,  # absurd length
            struct.pack(">II", 3, 12345) + b"abc",     # CRC mismatch
            struct.pack(">II", 2, zlib.crc32(b"[]")) + b"[]",  # not a record
        ],
    )
    def test_tail_is_detected_and_truncated(self, tmp_path, tail):
        path, valid = self._intact(tmp_path)
        with open(path, "ab") as fh:
            fh.write(tail)
        records, length, torn = scan_log(path)
        assert torn
        assert length == valid
        assert [r.kind for r in records] == ["clock", "upsert"]
        wal = WriteAheadLog(tmp_path)
        with pytest.warns(UserWarning, match="torn tail"):
            assert wal.truncate_torn_tail()
        assert len(path.read_bytes()) == valid
        assert not wal.truncate_torn_tail()  # nothing left to drop
        wal.close()

    def test_clean_log_is_not_torn(self, tmp_path):
        path, valid = self._intact(tmp_path)
        records, length, torn = scan_log(path)
        assert not torn
        assert length == valid
        wal = WriteAheadLog(tmp_path)
        assert not wal.truncate_torn_tail()
        wal.close()


class TestCompaction:
    def test_superseded_and_expired_are_dropped(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("create_table", spec={"name": "T", "columns": ["k"]})
        wal.append("upsert", table="T", row=[1], texp=5, prev="absent")
        wal.append("upsert", table="T", row=[1], texp=20, prev=5)  # renewal
        wal.append("upsert", table="T", row=[2], texp=8, prev="absent")
        wal.append("clock", now=10)
        stats = wal.compact(now=10)
        # row 1: first upsert superseded; row 2: expired at now=10 and not
        # in any base snapshot, so it vanishes outright.
        assert stats["superseded"] == 1
        assert stats["expired"] == 1
        assert stats["demoted"] == 0
        records = wal.records()
        assert [r.kind for r in records] == ["create_table", "upsert", "clock"]
        assert records[1]["texp"] == 20
        assert records[-1]["now"] == 10
        wal.close()

    def test_expired_base_row_demotes_to_remove(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("upsert", table="T", row=[1], texp=5, prev=None)
        stats = wal.compact(now=10, base_rows={("T", (1,))})
        assert stats["demoted"] == 1
        records = wal.records()
        assert [r.kind for r in records] == ["remove", "clock"]
        assert records[0]["row"] == [1]
        wal.close()

    def test_brackets_and_clocks_collapse_and_txn_tags_strip(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("clock", now=1)
        wal.append("begin", txn=1)
        wal.append("upsert", table="T", row=[1], texp=None, prev="absent",
                   txn=1)
        wal.append("commit", txn=1)
        wal.append("clock", now=2)
        stats = wal.compact(now=2)
        assert stats["collapsed"] == 4  # two clocks + begin + commit
        records = wal.records()
        assert [r.kind for r in records] == ["upsert", "clock"]
        assert "txn" not in records[0]  # resolved bracket must not revive
        wal.close()

    def test_refuses_open_transaction(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("begin", txn=1)
        wal.append("upsert", table="T", row=[1], texp=None, prev="absent",
                   txn=1)
        stats = wal.compact(now=0)
        assert stats == {"kept": 0, "expired": 0, "superseded": 0,
                         "collapsed": 0, "demoted": 0}
        assert len(wal.records()) == 2  # untouched
        wal.close()

    def test_refuses_torn_tail(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("clock", now=1)
        wal.close()
        with open(wal.log_path, "ab") as fh:
            fh.write(b"\xff\xff")
        wal = WriteAheadLog(tmp_path)
        with pytest.raises(WalError, match="torn tail"):
            wal.compact(now=1)
        wal.close()

    def test_compaction_is_replay_equivalent(self, tmp_path):
        """Compacting must not change what scan_log-driven replay sees."""
        wal = WriteAheadLog(tmp_path)
        wal.append("upsert", table="T", row=[1], texp=5, prev="absent")
        wal.append("upsert", table="T", row=[1], texp=30, prev=5)
        wal.append("remove", table="T", row=[2], prev=9)
        wal.append("upsert", table="T", row=[3], texp=4, prev="absent")
        wal.append("clock", now=10)

        def final_visible(records, now):
            state = {}
            for r in records:
                key = tuple(r["row"]) if "row" in r else None
                if r.kind == "upsert":
                    state[key] = r["texp"]
                elif r.kind == "remove":
                    state.pop(key, None)
            return {
                k: t for k, t in state.items() if t is None or t > now
            }

        before = final_visible(wal.records(), 10)
        wal.compact(now=10)
        assert final_visible(wal.records(), 10) == before
        wal.close()


class TestSweepRemovalCompaction:
    """Compaction drops the ``remove`` records expiration sweeps leave.

    Every sweep path logs a ``remove`` per reclaimed row.  For a row the
    base snapshot does not hold, that final ``remove`` erases nothing at
    replay, so compaction must drop it with the rest of the row's history
    (all counted as expired) -- otherwise each short-lived row leaves one
    record behind forever.
    """

    LAYOUTS = [
        {},
        {"layout": "columnar"},
        {"partitions": 3, "partition_key": "k"},
        {"partitions": 3, "partition_key": "k", "layout": "columnar"},
    ]

    @staticmethod
    def _swept_database(tmp_path, kwargs, policy, checkpoint):
        db = Database(wal_dir=tmp_path)
        table = db.create_table(
            "T", ["k", "v"], removal_policy=RemovalPolicy[policy],
            lazy_batch_size=1_000, **kwargs,
        )
        for key in range(6):
            table.insert((key, key), expires_at=4)
        table.insert((99, 99), expires_at=50)
        if checkpoint:
            db.checkpoint()  # the short-lived rows are now in the base
        db.advance_to(5)
        if policy == "LAZY":
            assert table.vacuum() == 6
        assert table.physical_size == 1
        return db

    @pytest.mark.parametrize("kwargs", LAYOUTS)
    @pytest.mark.parametrize("policy", ["EAGER", "LAZY"])
    def test_swept_rows_absent_from_base_leave_no_record(
        self, tmp_path, kwargs, policy
    ):
        db = self._swept_database(tmp_path, kwargs, policy, checkpoint=False)
        stats = db.compact_wal()
        # Each swept row's upsert and remove both go, as expired.
        assert stats["expired"] == 12
        assert stats["superseded"] == 0
        assert stats["demoted"] == 0
        rows = {tuple(r["row"]) for r in db.wal.records() if "row" in r}
        assert rows == {(99, 99)}
        db.close()
        recovered = recover_database(tmp_path)
        assert set(recovered.table("T").read().rows()) == {(99, 99)}
        assert recovered.table("T").physical_size == 1
        assert recovered.verify(strict=True, deep=True) == []
        recovered.close()

    @pytest.mark.parametrize("kwargs", LAYOUTS)
    @pytest.mark.parametrize("policy", ["EAGER", "LAZY"])
    def test_swept_rows_in_base_keep_their_remove(
        self, tmp_path, kwargs, policy
    ):
        db = self._swept_database(tmp_path, kwargs, policy, checkpoint=True)
        stats = db.compact_wal()
        assert stats["expired"] == 0
        removes = {
            tuple(r["row"]) for r in db.wal.records() if r.kind == "remove"
        }
        assert removes == {(key, key) for key in range(6)}
        db.close()
        recovered = recover_database(tmp_path)
        assert recovered.table("T").physical_size == 1
        assert recovered.verify(strict=True, deep=True) == []
        recovered.close()
