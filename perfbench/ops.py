"""Timing of single operations, with an optional root span per operation."""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import List, Optional

from perfbench.tracing import CURRENT, Recorder, RequestSlot


class Ops:
    """Runs one client's operations, timing each into a sample list.

    With a recorder, each operation is also a request: its root span
    parents the layer spans the operation causes.  The request slot is
    bound in the caller's context, so tasks created from it (server
    connections) inherit it.
    """

    def __init__(self, recorder: Optional[Recorder], rids=None) -> None:
        self.recorder = recorder
        self.slot = RequestSlot()
        self.rids = rids if rids is not None else itertools.count(1)
        self.bind()

    def bind(self) -> None:
        """Make this client's slot current in the running context."""
        CURRENT.set(self.slot)

    def run(self, samples: List[float], fn, *args):
        recorder = self.recorder
        if recorder is None:
            started = perf_counter()
            result = fn(*args)
            samples.append(perf_counter() - started)
            return result
        started = recorder.begin_request(self.slot, next(self.rids))
        try:
            return fn(*args)
        finally:
            samples.append(perf_counter() - started)
            recorder.end_request(self.slot, started)

    async def run_async(self, samples: List[float], fn, *args):
        recorder = self.recorder
        if recorder is None:
            started = perf_counter()
            result = await fn(*args)
            samples.append(perf_counter() - started)
            return result
        started = recorder.begin_request(self.slot, next(self.rids))
        try:
            return await fn(*args)
        finally:
            samples.append(perf_counter() - started)
            recorder.end_request(self.slot, started)
