"""Wire framing and message vocabulary for the served engine.

The physical format reuses the write-ahead log's framing discipline
(:mod:`repro.engine.wal`) byte for byte::

    +----------------+----------------+------------------+
    | length (u32 BE)| crc32 (u32 BE) | payload (length) |
    +----------------+----------------+------------------+

with one JSON object per frame (compact separators, sorted keys).  The
difference is the failure contract: a WAL reader truncates a torn tail and
carries on, because everything before it is still trustworthy; a *stream*
reader that sees a bad CRC or an absurd length has lost framing sync with
its peer, and the only safe reaction is to drop the connection.
:class:`FrameDecoder` therefore raises :class:`~repro.errors.WireProtocolError`
(connection-fatal) on corruption, while an *incomplete* frame -- bytes
still in flight -- simply waits for more input.

Timestamps travel as the WAL encodes them: an integer tick, with ``None``
for ``∞`` (:func:`~repro.core.timestamps.encode_exp`).  Rows travel as JSON
arrays and come back as tuples.

Message kinds (the ``kind`` field; requests carry ``id``, responses echo
it as ``re``; subscription traffic carries ``sub``/``epoch``/``seq``):

=============== ==================================================
client → server
--------------------------------------------------------------------
``hello``       open or resume a session (``resume``: token,
                ``acks``: per-subscription delivery state)
``sql``         execute any statement
``query``       execute a statement that must produce rows
``subscribe``   subscribe to a materialised view's patch stream
``unsubscribe`` drop a subscription
``refetch``     request a full snapshot (after an ``invalidate``)
``ack``         acknowledge subscription envelopes (no reply)
``ping``        liveness probe
``bye``         orderly close
--------------------------------------------------------------------
server → client
--------------------------------------------------------------------
``hello-ok``    session token, logical now, data version, floor
``result``      one statement's outcome (rows carry expirations)
``error``       server-side failure (class name + message)
``sub-ok``      subscription opened: epoch 0, seq 0 snapshot
``patch``       incremental upserts/removes (one seq/ack envelope)
``snapshot``    full state reset (post-degrade refetch; new epoch)
``invalidate``  the backpressure ladder's downgrade notice
``pong`` / ``bye-ok``
=============== ==================================================
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.timestamps import Timestamp, decode_exp, encode_exp
from repro.errors import WireProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "FrameDecoder",
    "encode_frame",
    "encode_items",
    "decode_items",
    "read_frame",
    "write_frame",
]

#: Bumped on incompatible wire changes; ``hello`` negotiates equality.
PROTOCOL_VERSION = 1

_HEADER = struct.Struct(">II")  # (payload length, crc32) -- same as the WAL

#: Connection-fatal bound on a single frame; a length beyond this is
#: framing-desync garbage, not an allocation request.
MAX_FRAME = 16 * 1024 * 1024


def encode_items(items: Iterable[Tuple[tuple, Timestamp]]) -> List[list]:
    """``(row, texp)`` pairs as JSON: ``[[...values], texp_or_null]``."""
    return [[list(row), encode_exp(texp)] for row, texp in items]


def decode_items(payload: Iterable[list]) -> List[Tuple[tuple, Timestamp]]:
    """Inverse of :func:`encode_items` (rows back to tuples)."""
    return [(tuple(row), decode_exp(texp)) for row, texp in payload]


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One wire frame: header (length, CRC32) plus compact JSON payload."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(body) > MAX_FRAME:
        raise WireProtocolError(
            f"frame payload of {len(body)} bytes exceeds MAX_FRAME "
            f"({MAX_FRAME})"
        )
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


class FrameDecoder:
    """Incremental frame decoder for one connection's byte stream.

    Feed arbitrary chunks; complete frames come out as dicts.  Incomplete
    input (a torn frame still in flight) is buffered until more bytes
    arrive; corruption -- CRC mismatch, oversized length, non-JSON or
    non-object payload -- raises :class:`~repro.errors.WireProtocolError`,
    after which the connection must be dropped (framing sync is gone).

    >>> decoder = FrameDecoder()
    >>> frame = encode_frame({"kind": "ping", "id": 1})
    >>> decoder.feed(frame[:5])      # torn: nothing decodable yet
    []
    >>> decoder.feed(frame[5:])
    [{'id': 1, 'kind': 'ping'}]
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return every frame completed by it."""
        self._buffer.extend(data)
        frames: List[Dict[str, Any]] = []
        while len(self._buffer) >= _HEADER.size:
            length, crc = _HEADER.unpack_from(self._buffer, 0)
            if length > MAX_FRAME:
                raise WireProtocolError(
                    f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME}); "
                    f"framing sync lost"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                break  # torn frame: wait for the remaining bytes
            body = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            if zlib.crc32(body) != crc:
                raise WireProtocolError(
                    "frame CRC mismatch; framing sync lost"
                )
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise WireProtocolError(
                    f"frame payload is not valid JSON: {error}"
                ) from None
            if not isinstance(payload, dict) or "kind" not in payload:
                raise WireProtocolError(
                    f"frame payload is not a message object: {payload!r}"
                )
            frames.append(payload)
        return frames


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read exactly one frame; ``None`` on clean EOF at a frame boundary.

    EOF in the middle of a frame (the peer died mid-send) raises
    :class:`~repro.errors.WireProtocolError` -- on a live connection a
    half-frame is indistinguishable from corruption.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF between frames
        raise WireProtocolError(
            f"connection closed mid-header ({len(error.partial)} bytes)"
        ) from None
    length, crc = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise WireProtocolError(
            f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME}); "
            f"framing sync lost"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise WireProtocolError("connection closed mid-frame") from None
    if zlib.crc32(body) != crc:
        raise WireProtocolError("frame CRC mismatch; framing sync lost")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireProtocolError(
            f"frame payload is not valid JSON: {error}"
        ) from None
    if not isinstance(payload, dict) or "kind" not in payload:
        raise WireProtocolError(
            f"frame payload is not a message object: {payload!r}"
        )
    return payload


def write_frame(writer, payload: Dict[str, Any]) -> int:
    """Encode and queue one frame on ``writer``; returns the frame size.

    ``writer`` is an :class:`asyncio.StreamWriter` or anything
    duck-compatible (the in-process loopback transport); the caller is
    responsible for ``await writer.drain()`` at its own cadence.
    """
    frame = encode_frame(payload)
    writer.write(frame)
    return len(frame)
