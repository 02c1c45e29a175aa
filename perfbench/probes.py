"""Instrumentation for the traced run: spans around calls into each layer.

Nothing under ``src/`` changes.  :func:`install` replaces chosen module
functions and class methods with wrappers that time each call on the
``perf_counter_ns`` clock and record a span: name, thread, nesting depth,
start, end, and self time (duration minus the wrapped calls nested
inside it on the same thread).  Module functions are replaced in every
loaded module that imported them by name, so ``from repro.tdp.api
import tdp_attach`` call sites are covered too.  Wrappers bound at
construction time (a server's ``on_message=self._dispatch``) see the
wrapper only if the object is built after :func:`install`, so a traced
run installs first and builds its world afterwards.

Spans stay in memory; per-layer figures are computed from them when the
run ends, and a bounded prefix is written out as a Chrome ``trace_event``
file through :mod:`repro.obs.export`.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
import sys
import threading
import time
from typing import Any, Callable, Iterator, Sequence

_now = time.perf_counter_ns

#: Spans kept for the timeline analysis; beyond this only totals grow.
SPAN_CAP = 400_000


class Span:
    __slots__ = ("name", "tid", "depth", "start", "end", "self_ns", "tag", "op")

    def __init__(self, name, tid, depth, start, end, self_ns, tag, op):
        self.name = name
        self.tid = tid
        self.depth = depth
        self.start = start
        self.end = end
        self.self_ns = self_ns
        self.tag = tag
        self.op = op


class Totals:
    """Per-name aggregates: calls, outermost calls, time, self time, units."""

    __slots__ = ("calls", "outer", "total_ns", "self_ns", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.outer = 0
        self.total_ns = 0
        self.self_ns = 0
        self.units = 0


class Recorder:
    def __init__(self) -> None:
        self.active = False
        self.op = 0
        self.totals: dict[str, Totals] = {}
        self.spans: list[Span] = []
        self.marks: list[tuple[str, int, int, Any]] = []
        self._local = threading.local()

    def total(self, name: str) -> Totals:
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = Totals()
        return entry

    def reset(self) -> None:
        self.totals = {}
        self.spans = []
        self.marks = []

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


RECORDER = Recorder()


def _span(name: str, fn: Callable, tag: Callable | None, units: Callable | None):
    rec = RECORDER
    get_ident = threading.get_ident

    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        stack = rec._stack()
        outer = not stack or stack[-1][1] != name
        frame = [0, name]
        stack.append(frame)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            entry = rec.total(name)
            entry.calls += 1
            entry.total_ns += duration
            entry.self_ns += duration - frame[0]
            if outer:
                entry.outer += 1
            if len(rec.spans) < SPAN_CAP:
                rec.spans.append(Span(
                    name, get_ident(), len(stack), start, end, duration - frame[0],
                    tag(args, kwargs) if tag is not None else None, rec.op,
                ))
        if units is not None:
            entry.units += units(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _mark(name: str, fn: Callable, tag: Callable | None):
    """Record only the moment of entry (for calls that last a lifetime)."""
    rec = RECORDER
    get_ident = threading.get_ident

    def wrapper(*args, **kwargs):
        if rec.active:
            rec.total(name).calls += 1
            rec.marks.append((
                name, get_ident(), _now(),
                tag(args, kwargs) if tag is not None else None,
            ))
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _count(name: str, fn: Callable, units: Callable | None):
    rec = RECORDER

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if rec.active:
            entry = rec.total(name)
            entry.calls += 1
            if units is not None:
                entry.units += units(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _replace_function(module, attr: str, wrapper: Callable) -> None:
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper


def _arg(position: int, keyword: str):
    def pick(args, kwargs):
        if keyword in kwargs:
            return kwargs[keyword]
        return args[position] if len(args) > position else None
    return pick


def _length(_args, result) -> int:
    return len(result)


def _empty(_args, result) -> int:
    return 1 if result == 0 else 0


def _returned(_args, result) -> int:
    return int(result)


STORE_METHODS = (
    "attach", "detach", "put", "fill", "apply_batch", "try_get", "get_entry",
    "add_waiter", "cancel_waiter", "get", "purge_ephemeral", "remove",
    "list_attributes", "snapshot",
)


def install() -> None:
    """Wrap every layer boundary the per-layer metrics read (idempotent)."""
    if getattr(install, "done", False):
        return
    install.done = True

    from repro.attrspace import client, notify, protocol, server, store
    from repro.condor import mpi_universe, pool, starter
    from repro.paradyn import daemon
    from repro.tdp import api, handle
    from repro.transport import eventloop, framing, inmem, tcp
    from repro.util import log

    # attribute space client, codec, framing, transport, server, store
    cls = client.AttributeSpaceClient
    for attr in ("put", "get", "try_get"):
        setattr(cls, attr, _span("client.call", getattr(cls, attr), None, None))
    _replace_function(protocol, "encode_body",
                      _span("codec.encode", protocol.encode_body, None, _length))
    _replace_function(protocol, "decode_body",
                      _span("codec.decode", protocol.decode_body, None, None))
    cls = framing.FrameReader
    cls.feed = _span("framing.feed", cls.feed, None, _length)
    _replace_function(framing, "roundtrip",
                      _span("framing.roundtrip", framing.roundtrip, None, None))
    for cls, attr in ((tcp._TcpChannel, "send"), (tcp._TcpChannel, "send_many"),
                      (eventloop.ServerSocketLoop, "_flush")):
        setattr(cls, attr, _count("transport.send", getattr(cls, attr), None))
    cls = inmem._InMemChannel
    cls.send = _count("transport.inmem_send", cls.send, None)
    cls = server.AttributeSpaceServer
    cls._dispatch = _span("server.dispatch", cls._dispatch, None, None)
    cls = store.AttributeStore
    for attr in STORE_METHODS:
        setattr(cls, attr, _span("store.op", getattr(cls, attr), None, None))
    cls = notify.SubscriptionRegistry
    cls.publish = _span("notify.publish", cls.publish, None, _returned)
    cls = log.TraceRecorder
    cls.record = _count("log.record", cls.record, None)

    # resource manager, TDP calls, tool daemon
    cls = pool.CondorPool
    cls.submit_file = _span("condor.submit", cls.submit_file, None, None)
    cls = starter.Starter
    cls.start = _mark("condor.starter_start", cls.start, None)
    for fn_name, span_name, tag in (
        ("tdp_create_process", "tdp.create_process", None),
        ("tdp_attach", "tdp.attach", None),
        ("tdp_continue_process", "tdp.continue_process", None),
        ("tdp_get", "tdp.get", _arg(1, "attribute")),
    ):
        _replace_function(api, fn_name, _span(span_name, getattr(api, fn_name), tag, None))
    _replace_function(api, "tdp_put_many", _count("tdp.put_many", api.tdp_put_many, None))
    cls = daemon.ParadynDaemon
    cls.run = _mark("paradyn.run", cls.run, None)
    cls = mpi_universe.MpiUniverseCoordinator
    cls._start_one_worker = _mark(
        "mpi.worker_launch", cls._start_one_worker, lambda args, kwargs: id(args[0]))
    cls = handle.TdpHandle
    cls.service_events = _count("handle.service_events", cls.service_events, _empty)


# -- analysis --------------------------------------------------------------------

def _us(ns: float) -> float:
    return ns / 1e3


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


#: The top-level spans of one RPC, in order, as (name, on the caller's
#: thread): the client's encode, the server's feed and dispatch, the
#: client's receive-thread feed.
RPC_SEQUENCE = (
    ("codec.encode", True), ("framing.feed", False),
    ("server.dispatch", False), ("framing.feed", False),
)


def rpc_seams(load_tid: int) -> dict[str, float]:
    """Split each client call on ``load_tid`` into its seams (µs per call).

    Valid when exactly one call is in flight: every span that starts and
    ends inside a call's window then belongs to that call, whatever
    thread recorded it.  The window's top-level spans (the client's
    encode, then the server's feed and dispatch, then the client's feed)
    order the call into: frame build (call entry to the client's
    encode), transport hops (an encode or a dispatch ending, to the
    other side's feed starting), reply wake-up (the client's feed ending
    to the call returning) and everything else, reported as unattributed.
    The layers' self times come from every span in the window.

    ``misordered`` counts the calls whose top-level spans are not
    :data:`RPC_SEQUENCE` with the server's feed and dispatch on one
    thread and the reply's feed on another: their seams are attributed
    by position all the same, so a share of them well above zero means
    the breakdown no longer describes the calls.
    """
    spans = sorted(RECORDER.spans, key=lambda s: s.start)
    starts = [s.start for s in spans]
    calls = [s for s in spans if s.name == "client.call" and s.tid == load_tid and s.depth == 0]
    if not calls:
        return {}
    sums = {k: 0.0 for k in (
        "call", "frame_build", "hop", "wakeup", "unattributed", "covered")}
    misordered = 0
    for call in calls:
        lo = bisect.bisect_left(starts, call.start)
        hi = bisect.bisect_right(starts, call.end)
        inside = [s for s in spans[lo:hi] if s is not call and s.end <= call.end]
        top = [s for s in inside
               if (s.tid == load_tid and s.depth == 1) or (s.tid != load_tid and s.depth == 0)]
        if (tuple((s.name, s.tid == load_tid) for s in top) != RPC_SEQUENCE
                or top[1].tid != top[2].tid or top[2].tid == top[3].tid):
            misordered += 1
        sums["call"] += call.end - call.start
        sums["covered"] += sum(s.self_ns for s in inside)
        if not top:
            sums["unattributed"] += call.end - call.start
            continue
        sums["frame_build"] += max(0, top[0].start - call.start)
        sums["wakeup"] += max(0, call.end - top[-1].end)
        for prev, nxt in zip(top, top[1:]):
            gap = max(0, nxt.start - prev.end)
            if nxt.name == "framing.feed" and prev.name in ("codec.encode", "server.dispatch"):
                sums["hop"] += gap
            else:
                sums["unattributed"] += gap
    n = len(calls)
    return {k: _us(v / n) for k, v in sums.items()} | {"calls": n, "misordered": misordered}


def launch_breakdown() -> dict[str, float]:
    """Per-occurrence launch timings from spans and entry marks (ms)."""
    marks = sorted(RECORDER.marks, key=lambda m: m[2])
    spans = RECORDER.spans
    out: dict[str, float] = {}

    starter_starts = [t for name, _tid, t, _tag in marks if name == "condor.starter_start"]
    gaps = []
    for s in spans:
        if s.name == "condor.submit":
            i = bisect.bisect_left(starter_starts, s.start)
            if i < len(starter_starts):
                gaps.append(starter_starts[i] - s.start)
    out["condor.submit_to_start_ms"] = _mean(gaps) / 1e6

    out["tdp.get_wait_ms"] = _mean(
        [s.end - s.start for s in spans if s.name == "tdp.get" and s.tag == "pid"]
    ) / 1e6

    attaches: dict[int, list[int]] = {}
    for s in spans:
        if s.name == "tdp.attach":
            attaches.setdefault(s.tid, []).append(s.end)
    for ends in attaches.values():
        ends.sort()
    waits = []
    for name, tid, t, _tag in marks:
        if name != "paradyn.run":
            continue
        ends = attaches.get(tid, [])
        i = bisect.bisect_left(ends, t)
        if i < len(ends):
            waits.append(ends[i] - t)
    out["paradyn.launch_to_attach_ms"] = _mean(waits) / 1e6

    by_job: dict[Any, list[int]] = {}
    for name, _tid, t, tag in marks:
        if name == "mpi.worker_launch":
            by_job.setdefault(tag, []).append(t)
    spacing = []
    for times in by_job.values():
        times.sort()
        spacing.extend(b - a for a, b in zip(times, times[1:]))
    out["mpi.rank_launch_ms"] = _mean(spacing) / 1e6
    return out


class _ChromeSpan:
    """The span shape :func:`repro.obs.export.write_chrome_trace` reads."""

    __slots__ = ("name", "actor", "thread_id", "start", "duration",
                 "trace_id", "span_id", "parent_id", "tags")

    def __init__(self, span: Span, span_id: int):
        self.name = span.name
        self.actor = span.name.split(".", 1)[0]
        self.thread_id = span.tid
        self.start = span.start / 1e9
        self.duration = (span.end - span.start) / 1e9
        self.trace_id = f"op{span.op}"
        self.span_id = span_id
        self.parent_id = None
        self.tags = {"depth": span.depth, "self_us": round(span.self_ns / 1e3, 3)}
        if span.tag is not None:
            self.tags["tag"] = str(span.tag)


def write_chrome(path: str, limit: int = 5000) -> int:
    """Write the first ``limit`` spans of the traced phase; returns the count."""
    from repro.obs.export import write_chrome_trace

    chosen = RECORDER.spans[:limit]
    return write_chrome_trace(path, [_ChromeSpan(s, i) for i, s in enumerate(chosen, 1)])
