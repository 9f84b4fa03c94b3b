"""Span recording for the traced run: wrappers around each layer's entry points.

A traced round installs a wrapper on every layer entry point listed in
:data:`TARGETS` (public ones where the layer has them; the server's
dispatch and the standing queries' refreshes have only private ones).
Each call records one span -- name, start, end, parent span, request id
-- into an in-memory list; nothing is written until the round ends.  A
layer's self time is its span's duration minus the time its direct child
spans cover.

Wrappers are patched *where the name is bound*: ``repro.server.server``
imports ``parse_statements`` and ``execute_statement`` by name, so
patching only ``repro.sql.parser`` would miss every served request.  For
a module-level function, every loaded ``repro.*`` module whose namespace
holds the original function object gets the wrapper; for a method, the
defining class attribute is replaced.  :func:`installed_wrappers` scans
for leftovers, so an untraced round can prove it ran unwrapped.

Parenting: synchronous spans nest on one stack (only the main thread is
traced; partition-pool workers run unwrapped).  A span opened with an
empty stack is parented to the current request's root span, which the
workload opens around each operation.  In the served workload the
request is carried by a :mod:`contextvars` slot that the server's
connection tasks inherit from the session that opened them, so spans of
one session's request never borrow another session's request id even
though both run interleaved on one event loop.  An ``async`` entry point
(``read_frame``) is driven step by step and records one span per step,
so time spent suspended is never counted as work.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import os
import pkgutil
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

MARK = "__perfbench_span__"


class RequestSlot:
    """The in-flight request of one client (mutable, shared by its tasks)."""

    __slots__ = ("rid", "root")

    def __init__(self) -> None:
        self.rid: Optional[int] = None
        self.root: Optional[int] = None


#: The slot of the client whose code is running.  Tasks copy the context
#: at creation, so server tasks opened by a session share its slot object.
CURRENT = contextvars.ContextVar("perfbench_request")


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _len_first_arg(args, kwargs, result) -> int:
    return len(args[0])


def _returned(args, kwargs, result) -> int:
    return result


def _queued(args, kwargs, result) -> int:
    return 1 if result else 0


#: (module, attribute path, span name, work measure or None).  The work
#: measure turns a call's arguments/result into a count summed per name.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.server.protocol", "encode_frame", "protocol.encode", _len_result),
    ("repro.server.protocol", "read_frame", "protocol.decode", None),
    ("repro.server.server", "ReproServer._dispatch", "server.dispatch", None),
    ("repro.server.server", "ReproServer.pump", "server.pump", _queued),
    ("repro.server.session", "diff_states", "session.diff", None),
    ("repro.server.session", "ServerSubscription.diff_payload",
     "session.diff_payload", None),
    ("repro.sql.parser", "parse_statements", "sql.parse", _len_result),
    ("repro.sql.executor", "execute_statement", "sql.execute", None),
    ("repro.core.algebra.plan_cache", "PlanCache.evaluate",
     "plan_cache.evaluate", None),
    ("repro.core.algebra.compiler", "compile_expression", "compiler.compile",
     None),
    ("repro.core.algebra.compiler", "CompiledPlan.execute", "compiler.execute",
     None),
    ("repro.engine.views", "MaterialisedView.refresh", "views.refresh", None),
    ("repro.engine.views", "MaterialisedView.read", "views.read", None),
    ("repro.engine.views", "MaterialisedView.contains", "views.contains",
     None),
    ("repro.engine.maintenance", "IncrementalView.contains", "views.contains",
     None),
    ("repro.engine.table", "Table.insert", "table.insert", None),
    ("repro.engine.table", "Table.touch", "table.touch", None),
    ("repro.engine.table", "Table.override", "table.override", None),
    ("repro.engine.table", "Table.process_expirations", "expiration.sweep",
     _returned),
    ("repro.engine.partitioning", "PartitionedTable.process_expirations",
     "partitioning.sweep", _returned),
    ("repro.workloads.streaming", "StandingQuery.read", "streaming.read",
     None),
    ("repro.workloads.streaming", "WindowedCount._refresh",
     "streaming.refresh", None),
    ("repro.workloads.streaming", "DistinctCount._refresh",
     "streaming.refresh", None),
    ("repro.workloads.streaming", "ReservoirSample._refresh",
     "streaming.refresh", None),
    ("repro.workloads.streaming", "ExtentAggregate._refresh",
     "streaming.refresh", None),
    ("repro.core.approximate", "approximate_count_validity",
     "approximate.count_validity", _len_first_arg),
    ("repro.workloads.authz", "AuthzStore.check", "authz.check", None),
    ("repro.engine.wal", "WriteAheadLog.append", "wal.append", None),
    ("repro.engine.wal", "WriteAheadLog.compact", "wal.compact", None),
    ("repro.engine.recovery", "recover_database", "recovery.recover", None),
    ("repro.engine.persistence", "database_from_dict", "recovery.snapshot_load",
     None),
    ("repro.engine.persistence", "save_database", "persistence.save", None),
    ("repro.engine.database", "Database.verify", "database.verify", None),
    ("os", "fsync", "os.fsync", None),
)


class Recorder:
    """In-memory span store for one traced round."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent id, request id)
        self.spans: List[Tuple[int, str, float, float, Optional[int], Optional[int]]] = []
        #: name -> summed work measure (bytes encoded, rows counted, ...)
        self.work: Dict[str, float] = defaultdict(float)
        self._stack: List[Tuple[int, Optional[int]]] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._patches: List[Tuple[object, str, object]] = []
        #: One-element cell read by every wrapper; see :meth:`paused`.
        self._on = [True]

    # -- context ------------------------------------------------------------

    def _context(self) -> Tuple[Optional[int], Optional[int]]:
        """(parent span id, request id) for a span opening now."""
        if self._stack:
            return self._stack[-1]
        slot = CURRENT.get(None)
        if slot is None:
            return None, None
        return slot.root, slot.rid

    def begin_request(self, slot: RequestSlot, rid: int) -> float:
        """Open the root span of request ``rid`` on ``slot``."""
        slot.rid = rid
        slot.root = next(self._ids)
        return perf_counter()

    def end_request(self, slot: RequestSlot, started: float) -> None:
        self.spans.append(
            (slot.root, "request", started, perf_counter(), None, slot.rid)
        )
        slot.rid = None
        slot.root = None

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (untimed correctness checks)."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    # -- wrappers -----------------------------------------------------------

    def _wrap_sync(self, name: str, fn: Callable, measure) -> Callable:
        spans, stack, ids, main, work, on = (
            self.spans, self._stack, self._ids, self._main, self.work,
            self._on)
        context = self._context

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0] or threading.get_ident() != main:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent, rid = context()
            stack.append((sid, rid))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, rid))
            if measure is not None:
                work[name] += measure(args, kwargs, result)
            return result

        setattr(traced, MARK, name)
        return traced

    def _wrap_async(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            return await _Stepped(recorder, name, fn(*args, **kwargs))

        setattr(traced, MARK, name)
        return traced

    def _step(self, name: str, advance):
        """Run one step of a driven coroutine as a span."""
        if not self._on[0]:
            return advance()
        sid = next(self._ids)
        parent, rid = self._context()
        self._stack.append((sid, rid))
        start = perf_counter()
        try:
            return advance()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, rid))

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Patch every target where it is bound (idempotent per recorder)."""
        if self._patches:
            return
        # A module first imported while patched would bind a wrapper for
        # good, so every module binds its names before anything is patched.
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for module_name, path, name, measure in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = module
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(name, original, measure))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original, measure)
            for mod_name, mod in list(sys.modules.items()):
                if mod is not module and not mod_name.startswith("repro"):
                    continue
                namespace = getattr(mod, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def _wrapper(self, name, original, measure):
        if inspect.iscoroutinefunction(original):
            return self._wrap_async(name, original)
        return self._wrap_sync(name, original, measure)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- analysis -----------------------------------------------------------

    def _child_time(self) -> Dict[int, float]:
        """Span id -> seconds covered by its direct children."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _rid in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return child_time

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        child_time = self._child_time()
        out: Dict[str, Dict[str, float]] = {}
        for sid, name, start, end, _parent, _rid in self.spans:
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time.get(sid, 0.0)
        return out

    def request_budget_violations(self) -> List[Tuple[int, float, float]]:
        """Requests whose layer self times sum past their root span.

        Returns ``(request id, summed self seconds, root seconds)`` for
        each offender; an empty list means the attribution is sound.
        """
        child_time = self._child_time()
        roots: Dict[int, float] = {}
        layer_self: Dict[int, float] = defaultdict(float)
        for sid, name, start, end, _parent, rid in self.spans:
            if rid is None:
                continue
            if name == "request":
                roots[rid] = end - start
            else:
                layer_self[rid] += (end - start) - child_time.get(sid, 0.0)
        return [
            (rid, spent, roots.get(rid, 0.0))
            for rid, spent in layer_self.items()
            if spent > roots.get(rid, 0.0) + 1e-9
        ]

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines (one per span)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\trequest\n")
            for sid, name, start, end, parent, rid in self.spans:
                fh.write(
                    f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t"
                    f"{'' if parent is None else parent}\t"
                    f"{'' if rid is None else rid}\n"
                )


class _Stepped:
    """Drive a coroutine one step at a time, recording each step as a span."""

    def __init__(self, recorder: Recorder, name: str, coro) -> None:
        self._recorder = recorder
        self._name = name
        self._coro = coro

    def __await__(self):
        coro = self._coro
        step = self._recorder._step
        name = self._name
        value, error = None, None
        while True:
            try:
                if error is None:
                    yielded = step(name, lambda: coro.send(value))
                else:
                    yielded = step(name, lambda: coro.throw(error))
            except StopIteration as stop:
                return stop.value
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


def installed_wrappers() -> List[str]:
    """Every ``module.attr`` / ``Class.attr`` currently holding a wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if not (mod_name.startswith("repro") or mod_name == "os"):
            continue
        for key, value in list(getattr(mod, "__dict__", {}).items()):
            if getattr(value, MARK, None) is not None:
                found.append(f"{mod_name}.{key}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in value.__dict__.items():
                    if getattr(member, MARK, None) is not None:
                        found.append(f"{mod_name}.{key}.{attr}")
    return found


def calls(summary: Dict[str, Dict[str, float]], name: str) -> int:
    """Number of spans named ``name`` in a summary."""
    return summary.get(name, {}).get("calls", 0)


def self_us(summary: Dict[str, Dict[str, float]], name: str) -> float:
    """Mean self time of ``name`` per call, in microseconds."""
    entry = summary.get(name)
    if not entry or not entry["calls"]:
        return 0.0
    return entry["self_s"] / entry["calls"] * 1e6
