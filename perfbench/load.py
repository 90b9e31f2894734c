"""The load generator: raw pipelined connections, the open loop, checks.

Two kinds of connection reach the service:

- :class:`RawConn` speaks the framing directly.  It carries control
  requests (``info``, the whole-store fetches, the probe set) and the
  closed-loop capacity phase, which keeps a fixed window of
  pre-encoded frames outstanding and stores every reply body
  undecoded; :func:`check_capacity` decodes and checks them after the
  clock stops, so the generator spends almost nothing per frame.
- :class:`repro.net.client.AsyncLookupClient` carries the open loop:
  each lookup is a :class:`repro.protocol.lookup.LookupSession` pumped
  through ``contact_server``, each mutation one ``send`` of an
  ``AddRequest``/``DeleteRequest``.  Operations start at their
  scheduled (intended) times and are timed from them.
"""

from __future__ import annotations

import asyncio
import math
import struct
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from fleet import BenchError

from repro.cluster.messages import AddRequest, DeleteRequest, LookupRequest
from repro.core.entry import Entry
from repro.net.client import AsyncLookupClient, ServiceError
from repro.net.codec import (
    decode_frame_body,
    decode_value,
    encode_envelope,
    encode_frame_fragments,
    encode_message,
    pack_send_envelope,
)
from repro.protocol.effects import Complete, SendRequest
from repro.protocol.events import ReplyReceived
from repro.protocol.lookup import LookupSession

_LENGTH = struct.Struct(">I")


def send_frame(codec: str, server: int, scheme: str, message: Any) -> bytes:
    """One framed single ``send`` request in ``codec``."""
    envelope = {"op": "send", "server": server, "key": scheme, "message": encode_message(message)}
    if codec == "json":
        return encode_envelope(envelope)
    envelope["message"] = message
    return b"".join(encode_frame_fragments(envelope, "binary"))


def batch_frame(subs: Sequence[Tuple[str, int, int]]) -> bytes:
    """One framed binary ``batch`` of lookup sends ``(scheme, server, target)``."""
    requests = [
        pack_send_envelope(i, server, scheme, LookupRequest(target))
        for i, (scheme, server, target) in enumerate(subs)
    ]
    return b"".join(encode_frame_fragments({"op": "batch", "requests": requests}, "binary"))


def reply_entries(reply: Dict[str, Any]) -> List[Entry]:
    value = reply["value"]
    if value and not isinstance(value[0], Entry):
        value = decode_value(value)
    return list(value)


# --------------------------------------------------------------------------
# Raw connections
# --------------------------------------------------------------------------


class RawConn(asyncio.Protocol):
    """A framed connection with one control request or a pipeline in flight."""

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self.buf = bytearray()
        self.bodies: List[bytes] = []
        self.waiting: Optional[asyncio.Future] = None
        self.frames: Sequence[bytes] = ()
        self.window = 0
        self.refill_after = 1
        self.sent = 0
        self.running = False
        self.lost: Optional[BaseException] = None
        self.codec = "json"
        self.worker = 0
        self.role = "single"

    @classmethod
    async def open(cls, address: Tuple[str, int], codec: str) -> "RawConn":
        loop = asyncio.get_running_loop()
        _, conn = await loop.create_connection(cls, *address)
        if codec == "binary":
            reply = await conn.request_json({"op": "hello", "codecs": ["binary", "json"], "batch": True})
            if reply.get("value", {}).get("codec") != "binary":
                raise BenchError(f"service refused the binary codec: {reply}")
            conn.codec = "binary"
        info = await conn.info()
        workers = info["capabilities"]["workers"]
        conn.worker, conn.role = workers["index"], workers["role"]
        return conn

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.lost = exc or ConnectionError("service closed the connection")
        if self.waiting is not None and not self.waiting.done():
            self.waiting.set_exception(self.lost)

    def data_received(self, data: bytes) -> None:
        buf = self.buf
        buf += data
        pos = 0
        got = 0
        size = len(buf)
        while size - pos >= 4:
            (length,) = _LENGTH.unpack_from(buf, pos)
            end = pos + 4 + length
            if end > size:
                break
            self.bodies.append(bytes(buf[pos + 4 : end]))
            pos = end
            got += 1
        if pos:
            del buf[:pos]
        if not got:
            return
        if self.running:
            # On one process, refill only once half the window has
            # drained, in one write: the service then always holds a
            # backlog of frames, and the pipeline cannot settle into a
            # one-reply-one-frame lockstep that leaves the service idle
            # between wakeups.  A fleet worker's socket has no
            # TCP_NODELAY, so its replies wait (Nagle) for an ACK that
            # the generator would delay by ~40 ms; there every reply is
            # answered at once, and the refill carries the ACK.
            outstanding = self.sent - len(self.bodies)
            if self.window - outstanding < self.refill_after:
                return
            frames = self.frames
            count = len(frames)
            start = self.sent
            self.sent = start + self.window - outstanding
            self.transport.write(b"".join([frames[i % count] for i in range(start, self.sent)]))
        elif self.waiting is not None and len(self.bodies) >= self.sent and not self.waiting.done():
            self.waiting.set_result(None)

    async def request(self, frame: bytes) -> bytes:
        """One control round trip; returns the raw reply body."""
        return (await self.requests([frame]))[0]

    async def requests(self, frames: Sequence[bytes]) -> List[bytes]:
        """Pipelined control requests; returns the raw reply bodies."""
        if self.lost is not None:
            raise self.lost
        self.bodies = []
        self.sent = len(frames)
        self.waiting = asyncio.get_running_loop().create_future()
        self.transport.write(b"".join(frames))
        await asyncio.wait_for(self.waiting, 30)
        return self.bodies

    async def request_json(self, envelope: Dict[str, Any]) -> Dict[str, Any]:
        return decode_frame_body(await self.request(encode_envelope(envelope)))

    async def info(self) -> Dict[str, Any]:
        reply = await self.request_json({"op": "info"})
        if not reply.get("ok"):
            raise BenchError(f"info failed: {reply}")
        return reply["value"]

    def start_pipeline(self, frames: Sequence[bytes], window: int) -> None:
        """Closed loop: keep ``window`` frames outstanding, cycling
        through ``frames``, until :meth:`stop_pipeline`.  ``bodies``
        counts the replies so far."""
        self.frames = frames
        self.window = window
        self.refill_after = window // 2 if self.role == "single" else 1
        self.bodies = []
        self.sent = window
        self.running = True
        self.transport.write(b"".join(frames[i % len(frames)] for i in range(window)))

    async def stop_pipeline(self) -> List[bytes]:
        """Stop refilling; returns every reply body, outstanding ones drained."""
        self.running = False
        self.waiting = asyncio.get_running_loop().create_future()
        if len(self.bodies) < self.sent:
            await asyncio.wait_for(self.waiting, 30)
        if self.lost is not None:
            raise BenchError(f"capacity connection lost: {self.lost}")
        bodies, self.bodies = self.bodies, []
        return bodies

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()


async def _cover(open_one: Callable[[str], Awaitable[Tuple[Any, int]]], close_one: Callable[[Any], Awaitable[None]], codecs: Sequence[str], workers: int) -> List[Any]:
    """One connection per codec.  On a fleet (every codec alike),
    reconnect until connection i reaches worker i: SO_REUSEPORT picks
    the worker at random."""
    if workers <= 1:
        return [(await open_one(codec))[0] for codec in codecs]
    if len(codecs) != workers or len(set(codecs)) != 1:
        raise BenchError(f"a {workers}-worker fleet wants {workers} connections of one codec")
    found: Dict[int, Any] = {}
    for _ in range(64):
        conn, index = await open_one(codecs[0])
        if index in found or index >= workers:
            await close_one(conn)
            continue
        found[index] = conn
        if len(found) == workers:
            return [found[i] for i in range(workers)]
    for conn in found.values():
        await close_one(conn)
    raise BenchError(f"connections never covered workers 0..{workers - 1} in 64 attempts")


async def pinned(address: Tuple[str, int], codecs: Sequence[str], workers: int) -> List[RawConn]:
    """Raw connections, one per codec (per worker on a fleet)."""

    async def open_one(codec: str) -> Tuple[RawConn, int]:
        conn = await RawConn.open(address, codec)
        return conn, conn.worker

    async def close_one(conn: RawConn) -> None:
        conn.close()

    return await _cover(open_one, close_one, codecs, workers)


async def pinned_clients(address: Tuple[str, int], codecs: Sequence[str], workers: int) -> List[AsyncLookupClient]:
    """Client-library connections, one per codec (per worker on a fleet)."""

    async def open_one(codec: str) -> Tuple[AsyncLookupClient, int]:
        client = AsyncLookupClient(*address, codec=codec, timeout=10.0)
        await client.connect()
        await client.info()
        return client, (await client.capabilities())["workers"]["index"]

    async def close_one(client: AsyncLookupClient) -> None:
        await client.close()

    return await _cover(open_one, close_one, codecs, workers)


# --------------------------------------------------------------------------
# The store oracle and answer checks
# --------------------------------------------------------------------------


async def fetch_stores(conn: RawConn, schemes: Sequence[str], servers: int) -> Dict[str, List[List[str]]]:
    """Every (scheme, server) store, by whole-store lookups (target 0)."""
    pairs = [(scheme, server) for scheme in schemes for server in range(servers)]
    bodies = await conn.requests([send_frame(conn.codec, s, k, LookupRequest(0)) for k, s in pairs])
    stores: Dict[str, List[List[str]]] = {scheme: [] for scheme in schemes}
    for (scheme, _server), body in zip(pairs, bodies):
        reply = decode_frame_body(body)
        if not reply.get("ok"):
            raise BenchError(f"store fetch failed for {scheme}: {reply}")
        stores[scheme].append([e.entry_id for e in reply_entries(reply)])
    return stores


def check_entries(ids: Sequence[str], allowed: Any, what: str) -> None:
    """Distinct entries from the allowed set, or the run fails loudly."""
    if len(set(ids)) != len(ids):
        raise BenchError(f"{what}: duplicate entries in {sorted(ids)}")
    foreign = set(ids).difference(allowed)
    if foreign:
        raise BenchError(f"{what}: entries outside the placed set: {sorted(foreign)}")


def check_send_reply(reply: Dict[str, Any], scheme: str, server: int, target: int, store: Sequence[str], what: str) -> bool:
    """One lookup contact's reply against the server's known store.

    Returns False for an error reply (a failed op); a wrong answer
    raises.  ``0 < target < |store|`` must give ``target`` distinct
    entries of that store, anything else exactly the whole store.
    """
    if not reply.get("ok"):
        return False
    ids = [e.entry_id for e in reply_entries(reply)]
    label = f"{what} {scheme}@{server} target {target}"
    check_entries(ids, set(store), label)
    if 0 < target < len(store):
        if len(ids) != target:
            raise BenchError(f"{label}: {len(ids)} entries, wanted {target}")
    elif set(ids) != set(store):
        raise BenchError(f"{label}: whole-store reply differs from the store")
    return True


@dataclass
class CapacityFrames:
    """Pre-encoded frames of one connection and the sends inside each."""

    frames: List[bytes]
    sends: List[List[Tuple[str, int, int]]]
    batch: bool


def check_capacity(bodies: Sequence[bytes], plan: CapacityFrames, stores: Dict[str, List[List[str]]]) -> Tuple[int, int, int]:
    """Decode and check every reply body a pipeline kept.

    Returns (sends checked, failed sends, reply bytes).  Identical
    bodies for one frame are decoded once.
    """
    count = len(plan.frames)
    seen = set()
    sends = failed = size = 0
    for index, body in enumerate(bodies):
        size += len(body)
        frame = index % count
        subs = plan.sends[frame]
        sends += len(subs)
        key = (frame, body)
        if key in seen:
            continue
        seen.add(key)
        reply = decode_frame_body(body)
        if plan.batch:
            if not reply.get("ok"):
                raise BenchError(f"capacity batch refused: {reply}")
            subs_replies = reply["value"]
            if [sub.get("id") for sub in subs_replies] != list(range(len(subs))):
                raise BenchError("capacity batch replies out of order")
        else:
            subs_replies = [reply]
        for (scheme, server, target), sub in zip(subs, subs_replies):
            if not check_send_reply(sub, scheme, server, target, stores[scheme][server], "capacity"):
                failed += 1
    return sends, failed, size


# --------------------------------------------------------------------------
# The open loop
# --------------------------------------------------------------------------


@dataclass
class Op:
    """One scheduled operation."""

    at: float  # seconds after the phase starts
    conn: int
    kind: str  # "lookup" | "add" | "delete"
    scheme: str
    target: int = 0
    order: Tuple[int, ...] = ()
    max_servers: Optional[int] = None
    server: int = 0
    entry: Optional[Entry] = None


@dataclass
class OpenLoopResult:
    lookup_ms: List[float] = field(default_factory=list)
    mutate_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    contacts: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)


async def _lookup(client: AsyncLookupClient, op: Op, rng: Any) -> Tuple[List[str], int, bool]:
    session = LookupSession(op.scheme, op.target, op.order, max_servers=op.max_servers, rng=rng)
    effects = session.start()
    while True:
        event = None
        for effect in effects:
            if isinstance(effect, SendRequest):
                event = await client.contact_server(effect.server_id, effect.key, effect.request)
            elif isinstance(effect, Complete):
                result = effect.result
                ids = [e.entry_id for e in result.entries]
                clean = not result.failed_contacts
                return ids, len(result.servers_contacted), clean
        if event is None:
            raise BenchError(f"lookup session stalled on effects {effects}")
        effects = session.on_event(event)


async def run_open_loop(
    clients: Sequence[AsyncLookupClient],
    ops: Sequence[Op],
    allowed: set,
    rng: Any,
) -> OpenLoopResult:
    """Start each op at its scheduled time; time it from that time.

    A failed op (error reply, dropped contact, short answer) counts as
    an infinitely slow one; a wrong answer fails the run.
    """
    loop = asyncio.get_running_loop()
    out = OpenLoopResult()
    tasks = []
    base = loop.time() + 0.05

    async def run(op: Op, due: float) -> None:
        client = clients[op.conn]
        try:
            if op.kind == "lookup":
                ids, contacts, clean = await _lookup(client, op, rng)
                check_entries(ids, allowed, f"lookup {op.scheme} target {op.target}")
                ok = clean and len(ids) >= op.target
                if ok:
                    out.contacts.append(contacts)
            else:
                message = AddRequest(op.entry) if op.kind == "add" else DeleteRequest(op.entry)
                event = await client.contact_server(op.server, op.scheme, message)
                ok = isinstance(event, ReplyReceived)
        except ServiceError as exc:
            out.errors.append(f"{op.kind} {op.scheme}: {exc}")
            ok = None
        elapsed = (loop.time() - due) * 1e3 if ok else math.inf
        if ok is False:
            out.errors.append(f"{op.kind} {op.scheme} target {op.target}: dropped contact or short answer")
        if not ok:
            out.failed += 1
        (out.lookup_ms if op.kind == "lookup" else out.mutate_ms).append(elapsed)

    for op in ops:
        due = base + op.at
        now = loop.time()
        if due > now:
            await asyncio.sleep(due - now)
            now = loop.time()
        out.late_ms.append(max(0.0, now - due) * 1e3)
        tasks.append(asyncio.ensure_future(run(op, due)))
    out.attempted = len(tasks)
    results = await asyncio.gather(*tasks, return_exceptions=True)
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (failed ops sort last as infinity)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
