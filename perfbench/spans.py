"""In-memory span recorder for the traced benchmark run.

The program has no stage timers of its own, so the traced run measures
its layers from outside: :func:`install_server` and
:func:`install_client` replace public callables with wrappers that time
each call with ``perf_counter_ns``.  Each name is patched where its
caller looks it up (``service.py`` imports ``encode_envelope_fragments``
by name, so the service module's binding is the one replaced).

Spans nest through a context variable that holds the open span's child
accumulator, so a span's *self* time is its duration minus the time its
child spans cover.  asyncio gives every task its own context, so spans
of concurrent connections never nest into each other.  Totals stay in
memory (``name -> [calls, total_ns, self_ns, root_ns]`` plus counters) and
are written out as JSON by :meth:`Recorder.dump`.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional

from repro.cluster import network
from repro.cluster.messages import LookupRequest
from repro.core import storage
from repro.net import cache, codec, service, workers
from repro.net.client import AsyncLookupClient
from repro.protocol.lookup import LookupSession
from repro.storage import appendlog

_now = time.perf_counter_ns
#: The open span's ``[child_ns]`` accumulator in this task, if any.
_OPEN: contextvars.ContextVar = contextvars.ContextVar("perfbench_open", default=None)
#: True inside a client connection handler of the service.
_IN_CONN: contextvars.ContextVar = contextvars.ContextVar("perfbench_conn", default=False)


class Recorder:
    """Span totals and counters of one process."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[int]] = {}
        self.counts: Dict[str, int] = {}
        self.services: List[Any] = []

    def slot(self, name: str) -> List[int]:
        """``[calls, total_ns, self_ns, root_ns]`` of one span name;
        ``root_ns`` is the time it ran with no enclosing span."""
        return self.spans.setdefault(name, [0, 0, 0, 0])

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def snapshot(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "spans": {name: list(slot) for name, slot in self.spans.items()},
            "counts": dict(self.counts),
            "lookup_messages": sum(s.cluster.network.stats.lookup_messages for s in self.services),
        }

    def dump(self, directory: str) -> None:
        """Write the snapshot to ``<directory>/spans.<pid>.json``."""
        path = os.path.join(directory, f"spans.{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(path + ".tmp", path)


def _close(slot: List[int], frame: List[int], parent: Optional[List[int]], t0: int) -> None:
    elapsed = _now() - t0
    slot[0] += 1
    slot[1] += elapsed
    slot[2] += elapsed - frame[0]
    if parent is None:
        slot[3] += elapsed
    else:
        parent[0] += elapsed


def span(fn: Callable, slot: List[int]) -> Callable:
    """``fn`` timed into ``slot`` as a (possibly nested) span."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        parent = _OPEN.get()
        frame = [0]
        token = _OPEN.set(frame)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            _OPEN.reset(token)
            _close(slot, frame, parent, t0)

    return wrapper


def async_span(fn: Callable, slot: List[int]) -> Callable:
    """The coroutine-function form of :func:`span` (wall time)."""

    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        parent = _OPEN.get()
        frame = [0]
        token = _OPEN.set(frame)
        t0 = _now()
        try:
            return await fn(*args, **kwargs)
        finally:
            _OPEN.reset(token)
            _close(slot, frame, parent, t0)

    return wrapper


def _patch(owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
    setattr(owner, name, make(getattr(owner, name)))


def install_server(recorder: Recorder) -> None:
    """Wrap the service-side layers: codec, service, cache, network,
    storage, append-log journal and the worker bus."""
    rec = recorder
    slot = rec.slot

    # -- net.service: one span per client envelope, errors by code.  The
    # batch slot holds [sub-requests, total_ns] of batch envelopes.
    dispatch = slot("service.dispatch")
    batch = slot("service.batch")

    def wrap_dispatch(fn: Callable) -> Callable:
        timed = async_span(fn, dispatch)

        @functools.wraps(fn)
        async def wrapper(self: Any, envelope: Any, **kwargs: Any) -> Any:
            before = list(dispatch)
            reply = await timed(self, envelope, **kwargs)
            if envelope.get("op") == "batch":
                requests = envelope.get("requests") or ()
                batch[0] += len(requests)
                batch[1] += dispatch[1] - before[1]
                for sub in reply.get("value") or ():
                    if isinstance(sub, dict) and not sub.get("ok", True):
                        rec.count(f"service.errors.{sub.get('error')}")
            if not reply.get("ok"):
                rec.count(f"service.errors.{reply.get('error')}")
            return reply

        return wrapper

    _patch(service.LookupService, "handle_envelope_async", wrap_dispatch)

    def wrap_connection(fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            _IN_CONN.set(True)
            return await fn(*args, **kwargs)

        return wrapper

    _patch(service.LookupService, "handle_connection", wrap_connection)

    def wrap_init(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
            fn(self, *args, **kwargs)
            rec.services.append(self)

        return wrapper

    _patch(service.LookupService, "__init__", wrap_init)

    # -- net.codec: request decode and reply encode on client
    # connections only (the writer bus shares the codec functions).
    decode_slots = {True: slot("codec.decode.binary"), False: slot("codec.decode.json")}
    magic = bytes((codec.BINARY_MAGIC,))

    def wrap_decode(fn: Callable) -> Callable:
        timed = {binary: span(fn, s) for binary, s in decode_slots.items()}

        @functools.wraps(fn)
        def wrapper(body: bytes) -> Any:
            if _IN_CONN.get() and _OPEN.get() is None:
                return timed[body[:1] == magic](body)
            return fn(body)

        return wrapper

    _patch(codec, "decode_frame_body", wrap_decode)
    encode = slot("codec.encode")
    _patch(service, "encode_envelope_fragments", lambda fn: span(fn, encode))

    def wrap_json_encode(fn: Callable) -> Callable:
        timed = span(fn, encode)

        @functools.wraps(fn)
        def wrapper(obj: Any) -> bytes:
            if _IN_CONN.get() and _OPEN.get() is None:
                return timed(obj)
            return fn(obj)

        return wrapper

    _patch(codec, "encode_envelope", wrap_json_encode)
    pack = slot("codec.pack")
    _patch(service, "pack_value_bytes", lambda fn: span(fn, pack))
    _patch(service, "pack_send_reply", lambda fn: span(fn, pack))

    # -- net.cache
    _patch(cache.ReplyCache, "get", lambda fn: span(fn, slot("cache.get.local")))
    _patch(cache.SharedReplyCache, "get", lambda fn: span(fn, slot("cache.get.shared")))

    # -- cluster.network / core.storage: lookup messages only; the
    # server-to-server choreography a mutation triggers stays in the
    # dispatch's self time.
    def wrap_send(fn: Callable) -> Callable:
        timed = span(fn, slot("network.send.lookup"))

        @functools.wraps(fn)
        def wrapper(self: Any, dest_id: int, key: str, message: Any) -> Any:
            if type(message) is LookupRequest:
                return timed(self, dest_id, key, message)
            return fn(self, dest_id, key, message)

        return wrapper

    _patch(network.Network, "send", wrap_send)
    _patch(storage.MemoryBackend, "sample", lambda fn: span(fn, slot("storage.sample")))

    # -- storage.appendlog
    append = slot("journal.append")

    def wrap_append(fn: Callable) -> Callable:
        timed = span(fn, append)

        @functools.wraps(fn)
        def wrapper(self: Any, record: Any) -> bool:
            if self.read_only or self.replaying:
                return fn(self, record)
            size = self.log_bytes  # the journal's own byte count, outside the span
            written = timed(self, record)
            if written:
                rec.count("journal.records")
                rec.count("journal.bytes", self.log_bytes - size)
            return written

        return wrapper

    _patch(appendlog.AppendLogJournal, "append", wrap_append)
    _patch(appendlog.AppendLogJournal, "load", lambda fn: span(fn, slot("journal.load")))
    _patch(appendlog.AppendLogJournal, "compact", lambda fn: span(fn, slot("journal.compact")))

    # -- net.workers
    _patch(workers.WriteForwarder, "forward", lambda fn: async_span(fn, slot("bus.forward")))
    _patch(workers, "apply_delta", lambda fn: span(fn, slot("bus.apply_delta")))
    _patch(workers.DeltaApplier, "resync", lambda fn: span(fn, slot("bus.resync")))


def install_client(recorder: Recorder) -> Callable[[], None]:
    """Wrap the client layers in this process; returns an undo."""
    saved = [
        (LookupSession, "start", LookupSession.start),
        (LookupSession, "on_event", LookupSession.on_event),
        (AsyncLookupClient, "contact_server", AsyncLookupClient.contact_server),
    ]
    session = recorder.slot("client.session")
    _patch(LookupSession, "start", lambda fn: span(fn, session))
    _patch(LookupSession, "on_event", lambda fn: span(fn, session))

    def wrap_contact(fn: Callable) -> Callable:
        timed = async_span(fn, recorder.slot("client.contact"))

        @functools.wraps(fn)
        async def wrapper(self: Any, server: int, key: str, request: Any, **kwargs: Any) -> Any:
            if type(request) is LookupRequest:
                return await timed(self, server, key, request, **kwargs)
            return await fn(self, server, key, request, **kwargs)

        return wrapper

    _patch(AsyncLookupClient, "contact_server", wrap_contact)

    def undo() -> None:
        for owner, name, original in saved:
            setattr(owner, name, original)

    return undo
