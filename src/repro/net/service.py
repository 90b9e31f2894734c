"""The asyncio lookup service: a cluster behind a listening socket.

One :class:`LookupService` hosts one in-process
:class:`~repro.cluster.cluster.Cluster` with all five paper schemes
installed side by side — each scheme under its own key (the scheme
name), which is exactly how the multi-key directory composes
strategies.  Client requests arrive as framed envelopes (see
:mod:`repro.net.codec`), are routed through
:meth:`Network.send <repro.cluster.network.Network.send>` to the
addressed server's :class:`~repro.protocol.server.ServerProtocol`, and
the reply is framed back.  Routing through the simulated network —
rather than calling the protocol directly — keeps the Section 6.4
message accounting and failed-server suppression identical to the
simulated driver, so a socket client observes the same error surface
(``"unavailable"`` for a failed server) a simulated client does.

Server-to-server choreography (Round-Robin's delete migration,
RandomServer's broadcasts) stays in-process on the hosted cluster; the
wire carries only client↔service traffic.  This mirrors the paper's
deployment picture, where the lookup servers are one administrative
system and clients reach it over the network.

Concurrency: handlers run on the event loop and the cluster is touched
only between awaits, so envelope processing is effectively serialized
per event-loop step; no locks are needed.  All state mutation happens
synchronously inside :meth:`LookupService.handle_envelope`.

Sharding: with ``shard_count > 1`` the process is one shard of a
fleet.  Key→shard placement comes from :mod:`repro.net.sharding`
(the primary holds a key's full placement, backups a partial
replica), and two extra envelope ops carry the membership plane:
``heartbeat`` (answered with this shard's own heartbeat, so one
round-trip refreshes both failure detectors) and ``membership`` (the
current peer view, consumed by :class:`~repro.net.router.ShardRouter`).
Both delegate to the attached :class:`~repro.net.membership
.MembershipPump`, keeping :meth:`LookupService.handle_envelope` pure
dispatch over injected state.
"""

from __future__ import annotations

import asyncio
import base64
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.messages import LookupRequest, Message, MessageCategory
from repro.cluster.network import DROPPED, is_undelivered
from repro.core.entry import make_entries
from repro.core.exceptions import InvalidParameterError
from repro.net.cache import DEFAULT_CAPACITY, ReplyCache, SharedReplyCache
from repro.net.codec import (
    CODEC_BINARY,
    CODEC_JSON,
    SUPPORTED_CODECS,
    FrameError,
    Prepacked,
    WireError,
    decode_heartbeat,
    decode_message,
    encode_envelope_as,
    encode_envelope_fragments,
    encode_message,
    encode_value,
    iter_frame_bodies,
    negotiate_codec,
    pack_send_reply,
    pack_value_bytes,
    write_frames,
)
# The connection loop calls decode_frame_body through the module, so a
# wrapper installed there (the benchmark's span recorders) sees it.
from repro.net import codec as net_codec
from repro.net.sharding import ShardMap, partial_replica
from repro.obs.metrics import MetricsRegistry
from repro.strategies.base import LookupProfile, PlacementStrategy
from repro.strategies.registry import create_strategy

#: The five paper schemes the service hosts, with the parameters the
#: chaos soak gate exercises (one key per scheme on the shared cluster).
DEFAULT_SCHEMES: dict[str, dict[str, int]] = {
    "full_replication": {},
    "fixed": {"x": 10},
    "random_server": {"x": 10},
    "round_robin": {"y": 2},
    "hash": {"y": 2},
}

#: Upper bound on sub-requests per ``batch`` envelope.  Large enough
#: that a client never needs more than one frame per scheduling round,
#: small enough that one malicious frame cannot monopolize the loop.
MAX_BATCH = 1024

#: Bytes one connection read may take: the request bytes served, and
#: their replies buffered, per write.
READ_CHUNK = 64 * 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Construction parameters for one :class:`LookupService`.

    The shard fields describe this process's place in a sharded
    fleet (``repro serve --shard i/N``).  The default
    ``shard_count=1`` is the unsharded deployment: one process,
    every key, full placement — byte-identical behaviour to before
    sharding existed.  In a fleet, every shard must be started with
    the same ``shard_count``/``replicas``/``backup_fraction``/
    ``probes`` (and the same topology fields), because routers
    recompute the placement from these values alone.
    """

    server_count: int = 16
    entry_count: int = 40
    seed: int = 0
    schemes: dict[str, dict[str, int]] = field(
        default_factory=lambda: dict(DEFAULT_SCHEMES)
    )
    shard_index: int = 0
    shard_count: int = 1
    replicas: int = 2
    backup_fraction: float = 0.25
    probes: int = 21
    #: Hot-key reply cache capacity (entries); 0 disables the cache.
    cache_size: int = DEFAULT_CAPACITY
    #: Whether a worker fleet backs its reply caches with one
    #: cross-process shared-memory segment (``serve --shared-cache``).
    #: Single-process deployments ignore it (there is nobody to share
    #: with); the fleet supervisor reads it before forking.
    shared_cache: bool = True
    #: Storage backend: ``"memory"`` (the historical default) or
    #: ``"log"`` (append-log durability; requires ``data_dir``).
    store: str = "memory"
    #: Directory for the append-log journal and snapshots.
    data_dir: Optional[str] = None
    #: Open the journal read-only: recover from it, never write to it.
    #: The worker fleet sets this on reader workers — the writer owns
    #: the journal, readers only replay it on (re)start.
    store_read_only: bool = False
    #: Auto-compact the journal after this many records since the last
    #: compaction; 0 disables auto-compaction.
    log_compact_records: int = 4096

    def __post_init__(self) -> None:
        if self.cache_size < 0:
            raise InvalidParameterError(
                f"cache_size must be >= 0, got {self.cache_size}"
            )
        if self.store not in ("memory", "log"):
            raise InvalidParameterError(
                f"store must be 'memory' or 'log', got {self.store!r}"
            )
        if self.store == "log" and not self.data_dir:
            raise InvalidParameterError("store 'log' requires a data_dir")
        if self.log_compact_records < 0:
            raise InvalidParameterError(
                f"log_compact_records must be >= 0, got {self.log_compact_records}"
            )
        if self.shard_count < 1:
            raise InvalidParameterError(
                f"shard_count must be >= 1, got {self.shard_count}"
            )
        if not 0 <= self.shard_index < self.shard_count:
            raise InvalidParameterError(
                f"shard_index must be in [0, {self.shard_count}), "
                f"got {self.shard_index}"
            )
        if self.shard_count > 1 and not 1 <= self.replicas <= self.shard_count:
            raise InvalidParameterError(
                f"replicas must be in [1, {self.shard_count}], got {self.replicas}"
            )


def shard_names(count: int) -> list[str]:
    """The canonical shard names for an ``N``-shard fleet: s0..s{N-1}."""
    return [f"s{i}" for i in range(count)]


def envelope_mutates(envelope: dict[str, Any]) -> bool:
    """Whether this request envelope can change cluster state.

    Only ``send`` envelopes carrying a non-lookup message mutate (all
    other ops are reads or control plane).  Works on both wire forms
    of the message — the JSON tagged dict and the live
    :class:`~repro.cluster.messages.Message` a binary frame decodes
    to — without paying for a full decode.  Malformed envelopes are
    classified as non-mutating so local dispatch produces the error.
    """
    if envelope.get("op") != "send":
        return False
    message = envelope.get("message")
    if isinstance(message, Message):
        return message.category is not MessageCategory.LOOKUP
    if isinstance(message, dict):
        return message.get("type") != "LookupRequest"
    return False


def _profile_wire(profile: Optional[LookupProfile]) -> dict[str, Any]:
    """A strategy's lookup profile in wire form (see ``docs/protocols.md``)."""
    if profile is None:
        return {"order": "random", "max_servers": None}
    order: Any = profile.order
    if not isinstance(order, str):
        order = {"stride": order.y}
    return {"order": order, "max_servers": profile.max_servers}


class LookupService:
    """The hosted cluster plus the envelope dispatch loop.

    Parameters
    ----------
    config:
        Topology and scheme selection; see :class:`ServiceConfig`.

    Each configured scheme is created under ``key == scheme name`` and
    immediately placed with the same ``entry_count`` entries, so the
    service is query-ready as soon as the socket is listening.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        #: Append-log journal when ``store == "log"``; None on memory.
        self.journal: Optional[Any] = None
        #: True when this process rebuilt its stores from the journal
        #: instead of placing entries fresh.
        self.recovered = False
        #: Highest writer-bus epoch the journal knew at recovery; a
        #: reader's :class:`~repro.net.workers.DeltaApplier` starts
        #: here instead of zero, so it resyncs only the gap.
        self.recovered_epoch = 0
        store_factory = None
        if self.config.store == "log":
            from repro.storage.appendlog import AppendLogJournal, LogBackend

            journal = AppendLogJournal(
                self.config.data_dir,
                read_only=self.config.store_read_only,
                compact_every=self.config.log_compact_records,
            )
            self.journal = journal

            def store_factory(key, server_id, interner):
                return LogBackend(journal, key, server_id, interner)

        self.cluster = Cluster(
            self.config.server_count,
            seed=self.config.seed,
            store_factory=store_factory,
        )
        self.strategies: dict[str, PlacementStrategy] = {}
        self.shard_name = f"s{self.config.shard_index}"
        self.roles: dict[str, Optional[int]] = {}
        #: Attached by :class:`~repro.net.membership.MembershipPump`
        #: (or a sans-IO stand-in in tests); None in single-shard runs.
        self.membership: Optional[Any] = None
        self.metrics = MetricsRegistry()
        #: Hot-key reply cache (see :mod:`repro.net.cache`); None when
        #: disabled.  Per-scheme mutation epochs stamp its entries.
        self.reply_cache: Optional[ReplyCache] = (
            ReplyCache(self.config.cache_size) if self.config.cache_size else None
        )
        self._epochs: dict[str, int] = {}
        #: Cross-process shared reply cache (attached by the worker
        #: fleet; see :mod:`repro.net.workers`).  None everywhere else.
        self.shared_cache: Optional[SharedReplyCache] = None
        #: Per-scheme *bus-derived* epochs stamping shared-cache
        #: entries: the writer-bus epoch of the scheme's last applied
        #: delta.  Unlike ``_epochs`` (a process-local mutation count),
        #: these mean the same thing in every worker, which is what
        #: makes a cross-process stamp match a proof of identical
        #: store state.  Maintained by the bus/delta plumbing via
        #: :meth:`set_shared_epoch`.
        self._shared_epochs: dict[str, int] = {}
        #: Worker-fleet placement (set by :mod:`repro.net.workers`);
        #: the defaults describe a plain single-process serve.
        self.worker_index = 0
        self.worker_count = 1
        self.worker_role = "single"
        #: Reader workers forward mutating envelopes through this
        #: (a :class:`~repro.net.workers.WriteForwarder`); None means
        #: mutations are applied locally.
        self.forwarder: Optional[Any] = None
        entries = make_entries(self.config.entry_count)
        shard_map = (
            ShardMap(shard_names(self.config.shard_count), probes=self.config.probes)
            if self.config.shard_count > 1
            else None
        )
        # Crash recovery: replay the journal before any strategy is
        # constructed, so dense interner indices, store order, strategy
        # scratch state and the cluster RNG are all back to the crashed
        # process's values first.
        image = None
        if self.journal is not None and self.journal.has_data():
            from repro.storage.appendlog import apply_image

            loaded = self.journal.load()
            if not loaded.is_empty():
                apply_image(loaded, self.cluster, journal=self.journal)
                image = loaded
                self.recovered = True
                self.recovered_epoch = max(loaded.epochs.values(), default=0)
                self._shared_epochs.update(loaded.epochs)
        for name, params in self.config.schemes.items():
            # Every shard creates every strategy (so ``info`` reports a
            # homogeneous scheme catalogue fleet-wide) but places
            # entries only per its role: the primary holds the full
            # set, backups a deterministic partial replica, non-home
            # shards nothing (their servers truthfully answer empty).
            effective = dict(params)
            recovered_key = image is not None and (
                name in image.stores or name in image.params
            )
            if image is not None and name in image.params:
                # The journaled *effective* params (e.g. Hash-y's drawn
                # hash_seed) reconstruct the strategy without consuming
                # RNG, so recovery cannot perturb the random stream.
                effective = dict(image.params[name])
            strategy = create_strategy(name, self.cluster, key=name, **effective)
            role = (
                0
                if shard_map is None
                else shard_map.role(name, self.shard_name, self.config.replicas)
            )
            self.roles[name] = role
            if not recovered_key:
                if role == 0:
                    strategy.place(entries)
                elif role is not None:
                    strategy.place(
                        partial_replica(
                            name, entries, role, self.config.backup_fraction
                        )
                    )
            self.strategies[name] = strategy
        if self.journal is not None and not self.config.store_read_only:
            self._journal_boot_records()
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[asyncio.Task] = set()

    # -- envelope dispatch ---------------------------------------------------

    def handle_envelope(
        self, envelope: dict[str, Any], *, raw: bool = False
    ) -> dict[str, Any]:
        """Process one request envelope; returns the reply envelope.

        Pure dispatch — no I/O — so tests can drive the service
        without sockets exactly as the connection loop does.  A
        request ``id`` (int or str) is echoed verbatim on the reply —
        pipelining clients correlate out-of-order responses by it.

        ``raw=True`` leaves ``send`` reply values as live
        :class:`~repro.cluster.messages.Message` objects instead of
        JSON-tagged dicts — valid only when the reply goes out on a
        binary connection (whose packer encodes them natively) or
        stays in-process; the JSON encoder cannot carry them.
        """
        reply = self._dispatch(envelope, raw)
        return self._echo_id(envelope, reply)

    @staticmethod
    def _echo_id(envelope: dict[str, Any], reply: dict[str, Any]) -> dict[str, Any]:
        request_id = envelope.get("id")
        if isinstance(request_id, (int, str)) and not isinstance(request_id, bool):
            reply["id"] = request_id
        return reply

    async def handle_envelope_async(
        self, envelope: dict[str, Any], *, raw: bool = False
    ) -> dict[str, Any]:
        """:meth:`handle_envelope`, plus writer forwarding when attached.

        In a worker fleet, reader workers answer every read locally
        but must ship mutating ops to the single writer (worker 0);
        this is the dispatch point that splits the two.  With no
        forwarder attached (the single-process case, and the writer
        itself) it is exactly the synchronous path.
        """
        if self.forwarder is not None:
            if envelope_mutates(envelope):
                return self._echo_id(envelope, await self._forward(envelope))
            if envelope.get("op") == "batch":
                requests = envelope.get("requests")
                if isinstance(requests, list) and any(
                    isinstance(sub, dict) and envelope_mutates(sub)
                    for sub in requests
                ):
                    reply = await self._handle_batch_async(envelope, raw)
                    return self._echo_id(envelope, reply)
        return self.handle_envelope(envelope, raw=raw)

    async def _forward(self, envelope: dict[str, Any]) -> dict[str, Any]:
        """Ship one mutating envelope to the writer; returns its reply.

        The reply (and its value) is JSON-shaped regardless of the
        connection codec — the writer pipe speaks JSON — which is fine
        for mutation acks (they carry scalars, not entry lists).
        """
        try:
            return await self.forwarder.forward(envelope)
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            return {
                "ok": False,
                "error": "unavailable",
                "detail": f"writer worker unreachable: {exc}",
            }

    def _dispatch(self, envelope: dict[str, Any], raw: bool = False) -> dict[str, Any]:
        op = envelope.get("op")
        try:
            if op == "ping":
                return {"ok": True, "value": "pong"}
            if op == "info":
                return {"ok": True, "value": self.info()}
            if op == "send":
                return self._handle_send(envelope, raw)
            if op == "verify":
                return self._handle_verify(envelope)
            if op == "heartbeat":
                return self._handle_heartbeat(envelope)
            if op == "membership":
                return {"ok": True, "value": self.membership_view()}
            if op == "hello":
                return self._handle_hello(envelope)
            if op == "batch":
                return self._handle_batch(envelope, raw)
            return {
                "ok": False,
                "error": "bad-request",
                "detail": f"unknown op: {op!r}",
            }
        except (WireError, KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": "bad-request", "detail": str(exc)}
        except Exception as exc:  # noqa: BLE001 - protocol error boundary
            return {"ok": False, "error": "internal", "detail": str(exc)}

    def capabilities(self) -> dict[str, Any]:
        """What this service speaks, as advertised by ``hello``/``info``.

        The ``cache`` block carries the live reply-cache counters (so
        one ``info`` call doubles as a cache-stats probe) and the
        ``workers`` block this process's place in the worker fleet —
        per-process values: each worker owns its own cache.
        """
        cache = self.reply_cache
        cache_caps: dict[str, Any] = {"enabled": cache is not None}
        if cache is not None:
            cache_caps.update(cache.snapshot())
            cache.publish(self.metrics)
        shared = self.shared_cache
        shared_caps: dict[str, Any] = {"enabled": shared is not None}
        if shared is not None:
            shared_caps.update(shared.snapshot())
            shared.publish(self.metrics)
        cache_caps["shared"] = shared_caps
        storage_caps: dict[str, Any] = {
            "kind": self.config.store,
            "recovered": self.recovered,
        }
        if self.journal is not None:
            storage_caps.update(self.journal.stats())
            self._publish_storage_metrics()
        return {
            "codecs": list(SUPPORTED_CODECS),
            "batch": True,
            "max_batch": MAX_BATCH,
            "cache": cache_caps,
            "storage": storage_caps,
            "workers": {
                "count": self.worker_count,
                "index": self.worker_index,
                "role": self.worker_role,
            },
        }

    def _publish_storage_metrics(self) -> None:
        """Mirror the journal's bookkeeping into the metrics registry."""
        stats = self.journal.stats()
        self.metrics.gauge("storage_log_records").set(stats["log_records"])
        self.metrics.gauge("storage_log_bytes").set(stats["log_bytes"])
        self.metrics.gauge("storage_compactions").set(stats["compactions"])
        self.metrics.gauge("storage_last_compaction_epoch").set(
            stats["last_compaction_epoch"]
        )
        self.metrics.gauge("storage_recovered").set(1 if self.recovered else 0)

    def _handle_hello(self, envelope: dict[str, Any]) -> dict[str, Any]:
        offered = envelope.get("codecs")
        if offered is not None and (
            not isinstance(offered, list)
            or not all(isinstance(c, str) for c in offered)
        ):
            return {
                "ok": False,
                "error": "bad-request",
                "detail": "codecs must be a list of codec names",
            }
        value = self.capabilities()
        value["codec"] = negotiate_codec(offered)
        return {"ok": True, "value": value}

    def _check_batch(self, envelope: dict[str, Any]) -> Optional[dict[str, Any]]:
        requests = envelope.get("requests")
        if not isinstance(requests, list):
            return {
                "ok": False,
                "error": "bad-request",
                "detail": "batch requests must be a list of envelopes",
            }
        if len(requests) > MAX_BATCH:
            return {
                "ok": False,
                "error": "bad-request",
                "detail": f"batch of {len(requests)} exceeds max_batch {MAX_BATCH}",
            }
        return None

    def _batch_sub(self, sub: Any, raw: bool) -> Any:
        """One batch item's reply (or prepacked bytes on the raw path)."""
        if not isinstance(sub, dict):
            return {
                "ok": False,
                "error": "bad-request",
                "detail": "batch item must be an envelope dict",
            }
        if sub.get("op") == "batch":
            return {
                "ok": False,
                "error": "bad-request",
                "detail": "batch envelopes do not nest",
            }
        if raw and sub.get("op") == "send":
            # The binary-connection hot path: an ok send reply is
            # packed to its final wire bytes right here, so the
            # frame encoder later splices it instead of walking
            # the reply dict again.
            reply = self._dispatch(sub, True)
            request_id = sub.get("id")
            has_id = isinstance(request_id, (int, str)) and not isinstance(
                request_id, bool
            )
            if (
                has_id
                and type(request_id) is int
                and request_id >= 0
                and reply.get("ok")
            ):
                return pack_send_reply(request_id, reply["value"])
            if has_id:
                reply["id"] = request_id
            return reply
        # handle_envelope (not _dispatch) so each sub-reply
        # echoes its own request id for correlation.
        return self.handle_envelope(sub, raw=raw)

    def _handle_batch(
        self, envelope: dict[str, Any], raw: bool = False
    ) -> dict[str, Any]:
        bad = self._check_batch(envelope)
        if bad is not None:
            return bad
        replies = [self._batch_sub(sub, raw) for sub in envelope["requests"]]
        return {"ok": True, "value": replies}

    async def _handle_batch_async(
        self, envelope: dict[str, Any], raw: bool
    ) -> dict[str, Any]:
        """The batch op with mutating items routed through the writer.

        Reads are answered locally (same prepacked fast path as the
        sync loop); mutating sends await the writer round-trip, which
        also applies the resulting delta here before the sub-reply is
        emitted — a client that mutates and reads in one batch sees
        its own write.
        """
        bad = self._check_batch(envelope)
        if bad is not None:
            return bad
        replies: list[Any] = []
        for sub in envelope["requests"]:
            if isinstance(sub, dict) and envelope_mutates(sub):
                replies.append(self._echo_id(sub, await self._forward(sub)))
            else:
                replies.append(self._batch_sub(sub, raw))
        return {"ok": True, "value": replies}

    def info(self) -> dict[str, Any]:
        """The ``info`` op: topology plus per-scheme lookup profiles."""
        schemes = {}
        for name, strategy in self.strategies.items():
            schemes[name] = {
                "params": dict(self.config.schemes[name]),
                "profile": _profile_wire(strategy.lookup_profile()),
            }
        return {
            "servers": self.cluster.size,
            "entries": self.config.entry_count,
            "seed": self.config.seed,
            "schemes": schemes,
            "capabilities": self.capabilities(),
            "shard": {
                "name": self.shard_name,
                "index": self.config.shard_index,
                "count": self.config.shard_count,
                "replicas": self.config.replicas,
                "backup_fraction": self.config.backup_fraction,
                "probes": self.config.probes,
                "roles": dict(self.roles),
            },
        }

    def membership_view(self) -> dict[str, Any]:
        """The ``membership`` op: this shard's current peer view.

        An unsharded service reports the one-row view of itself, so
        a :class:`~repro.net.router.ShardRouter` pointed at a single
        process still gets a well-formed answer.
        """
        if self.membership is None:
            return {
                "name": self.shard_name,
                "incarnation": 0,
                "view": [[self.shard_name, "alive", 0]],
            }
        return self.membership.view_wire()

    def _handle_heartbeat(self, envelope: dict[str, Any]) -> dict[str, Any]:
        if self.membership is None:
            return {
                "ok": False,
                "error": "bad-request",
                "detail": "service has no membership plane (not sharded)",
            }
        heartbeat = decode_heartbeat(envelope["message"])
        reply = self.membership.on_wire_heartbeat(heartbeat)
        return {"ok": True, "value": encode_message(reply)}

    # -- mutation epochs and the reply cache ---------------------------------

    def mutation_epoch(self, key: str) -> int:
        """The per-scheme mutation epoch cache entries are stamped with."""
        return self._epochs.get(key, 0)

    def note_mutation(self, key: str) -> None:
        """Record that ``key``'s stores are (about to be) changed.

        Bumps the scheme's epoch and eagerly drops its cached replies.
        Called *before* a mutating message is applied, so even a
        mutation that dies half-way can never leave a pre-mutation
        reply reachable; and called by the worker delta/resync path
        when an external mutation lands.
        """
        self._epochs[key] = self._epochs.get(key, 0) + 1
        if self.reply_cache is not None:
            self.reply_cache.invalidate(key)

    def flush_cache(self) -> None:
        """Drop every cached reply (e.g. after out-of-band store edits).

        Local only: shared-cache entries are epoch-stamped with
        bus-assigned values, so a resync makes this process's stamps
        move instead of clearing the segment other workers still use.
        """
        if self.reply_cache is not None:
            self.reply_cache.clear()

    # -- durable storage -----------------------------------------------------

    def _journal_boot_records(self) -> None:
        """Journal the non-store boot state: params, scratch, RNG.

        Store contents were already journaled record-by-record by the
        :class:`~repro.storage.appendlog.LogBackend` mutators as
        placement ran (or were replayed, on a recovery boot, in which
        case every record here dedupes to nothing).
        """
        journal = self.journal
        journal.record_params(
            {name: strategy.params() for name, strategy in self.strategies.items()}
        )
        for server in self.cluster.servers:
            for key in server.keys():
                journal.record_state(key, server.server_id, server.state(key))
        journal.record_rng(self.cluster.rng)

    def _journal_sync_point(self, key: str) -> None:
        """Re-journal ``key``'s volatile state after a mutation landed.

        The store delta itself was already appended synchronously by
        the backend; this adds what replay cannot re-derive — strategy
        scratch state (Round-Robin counters, reservoir estimates) and
        the cluster RNG position — then compacts if the log is due.
        Both record kinds dedupe, so an unchanged state costs nothing.
        """
        journal = self.journal
        if journal is None or journal.read_only:
            return
        for server in self.cluster.servers:
            if key in server.keys():
                journal.record_state(key, server.server_id, server.state(key))
        journal.record_rng(self.cluster.rng)
        if journal.should_compact():
            self.compact_journal()

    def compact_journal(self) -> None:
        """Fold the journal's live logs into one snapshot, now."""
        if self.journal is None or self.journal.read_only:
            return
        from repro.storage.appendlog import build_image

        image = build_image(
            self.cluster,
            epochs=dict(self._shared_epochs),
            params={
                name: strategy.params()
                for name, strategy in self.strategies.items()
            },
        )
        self.journal.compact(
            image, epoch=max(self._shared_epochs.values(), default=0)
        )

    def set_shared_epoch(self, key: str, epoch: int) -> None:
        """Adopt the writer-bus epoch of ``key``'s last applied delta.

        Called by the fleet plumbing (bus apply, delta apply, resync)
        — never by local mutation bookkeeping.  A shared-cache entry
        is served only when its stamp equals this value, so two
        workers agree on an entry exactly when they have applied the
        same delta prefix for the scheme.
        """
        self._shared_epochs[key] = epoch

    def shared_epoch(self, key: str) -> int:
        """The bus-derived epoch shared-cache entries stamp for ``key``."""
        return self._shared_epochs.get(key, 0)

    # -- warm handoff (worker fleet) -----------------------------------------

    def export_hot_set(self, limit: int = 256) -> list[dict[str, Any]]:
        """The local cache's live hot rows, wire-shaped for the writer bus.

        MRU-first, only rows still stamped with their scheme's current
        epoch (a stale row would be dropped on import anyway).  Binary
        bodies travel base64-wrapped — the bus speaks JSON.
        """
        if self.reply_cache is None:
            return []
        rows: list[dict[str, Any]] = []
        for key, stamp, payload in self.reply_cache.export_hot(limit):
            if not (isinstance(key, tuple) and len(key) == 5):
                continue
            scheme = key[2]
            if stamp != self._epochs.get(scheme, 0):
                continue
            body: Any
            if key[0] == CODEC_BINARY:
                raw_body = (
                    payload.data
                    if isinstance(payload, Prepacked)
                    else bytes(payload)
                )
                body = base64.b64encode(raw_body).decode("ascii")
            else:
                body = payload  # already JSON-shaped
            rows.append({"slot": list(key), "body": body})
        return rows

    def import_hot_set(self, rows: Any) -> int:
        """Adopt a warm-handoff hot set into the local cache; row count.

        The caller guarantees the rows describe this process's
        *current* store state (the fleet ships them in the same
        ``sync_reply`` as the snapshot and applies both without
        yielding), so entries are stamped with the current epochs.
        Malformed rows are skipped — the handoff is best-effort.
        """
        cache = self.reply_cache
        if cache is None or not isinstance(rows, list):
            return 0
        imported = 0
        for row in reversed(rows):  # hottest rows land most-recent
            if not isinstance(row, dict):
                continue
            slot = row.get("slot")
            if not (isinstance(slot, list) and len(slot) == 5):
                continue
            codec, op, scheme, server, target = slot
            if scheme not in self.strategies:
                continue
            body = row.get("body")
            payload: Any
            if codec == CODEC_BINARY:
                if not isinstance(body, str):
                    continue
                try:
                    payload = Prepacked(base64.b64decode(body.encode("ascii")))
                except ValueError:
                    continue
            else:
                payload = body
            cache.put(
                (codec, op, scheme, server, target),
                self._epochs.get(scheme, 0),
                payload,
            )
            imported += 1
        return imported

    def _cache_slot(
        self, server_id: int, key: str, message: Message, raw: bool
    ) -> Optional[tuple]:
        """The cache key for this lookup, or None when not cacheable.

        Only the RNG-free lookup shape is cacheable (see
        :mod:`repro.net.cache`): a plain :class:`LookupRequest` whose
        target is zero/negative or covers the server's whole store, on
        a live server, with no fault plan installed (fault injection
        consumes RNG and may drop/duplicate — never short-circuit it).
        """
        if type(message) is not LookupRequest:
            return None
        if self.cluster.network.fault_injector is not None:
            return None
        server = self.cluster.servers[server_id]
        if not server.alive:
            return None
        if 0 < message.target < server.stored_entry_count(key):
            return None  # RNG-sampled answer: not deterministic
        codec = CODEC_BINARY if raw else CODEC_JSON
        return (codec, "send", key, server_id, message.target)

    def _handle_send(
        self, envelope: dict[str, Any], raw: bool = False
    ) -> dict[str, Any]:
        server_id = envelope["server"]
        key = envelope["key"]
        if not isinstance(server_id, int) or not 0 <= server_id < self.cluster.size:
            return {
                "ok": False,
                "error": "bad-request",
                "detail": f"server id out of range: {server_id!r}",
            }
        if key not in self.strategies:
            return {
                "ok": False,
                "error": "bad-request",
                "detail": f"unknown scheme key: {key!r}",
            }
        message = decode_message(envelope["message"])
        network = self.cluster.network
        cache = self.reply_cache
        # The shared segment holds packed binary bodies only; a JSON
        # connection keeps the per-process cache to itself.
        shared = self.shared_cache if raw else None
        slot = None
        if message.category is not MessageCategory.LOOKUP:
            # Invalidate-before-apply: no post-mutation request may
            # ever see a pre-mutation cached reply, even if the
            # handler raises half-way through.
            self.note_mutation(key)
        elif cache is not None or shared is not None:
            slot = self._cache_slot(server_id, key, message, raw)
            if slot is not None:
                if cache is not None:
                    epoch = self._epochs.get(key, 0)
                    payload = cache.get(slot, epoch)
                    if payload is not None:
                        self._book_cached_send(network, server_id, message)
                        return {"ok": True, "value": payload}
                if shared is not None:
                    body = shared.get(slot, self._shared_epochs.get(key, 0))
                    if body is not None:
                        payload = Prepacked(body)
                        if cache is not None:
                            # Promote: later hits on this worker skip
                            # the segment probe and body copy.
                            cache.put(slot, self._epochs.get(key, 0), payload)
                        self._book_cached_send(network, server_id, message)
                        return {"ok": True, "value": payload}
        reply = network.send(server_id, key, message)
        if message.category is not MessageCategory.LOOKUP:
            # The store mutations are already on disk (the backend
            # journals inline); persist the strategy counters and the
            # RNG position they advanced to.
            self._journal_sync_point(key)
        if is_undelivered(reply):
            code = "dropped" if reply is DROPPED else "unavailable"
            return {
                "ok": False,
                "error": code,
                "detail": f"server {server_id} did not process the message",
            }
        if slot is not None:
            # Pack once, serve many: the cached payload is already in
            # its wire form, so later hits are splice/memcpy-only.
            payload = Prepacked(pack_value_bytes(reply)) if raw else encode_value(reply)
            if cache is not None:
                cache.put(slot, self._epochs.get(key, 0), payload)
            if shared is not None:
                # No awaits separate the send above from this fill, so
                # the stamp still matches the state the reply saw.
                shared.put(slot, self._shared_epochs.get(key, 0), payload.data)
            return {"ok": True, "value": payload}
        return {"ok": True, "value": reply if raw else encode_value(reply)}

    @staticmethod
    def _book_cached_send(
        network: Any, server_id: int, message: Message
    ) -> None:
        # A cache hit must keep the Section 6.4 books identical to the
        # uncached path: the message *was* served.
        network.stats.record(server_id, message)
        if network._message_log is not None:
            network._message_log.append((server_id, type(message).__name__))

    def _handle_verify(self, envelope: dict[str, Any]) -> dict[str, Any]:
        key = envelope["key"]
        strategy = self.strategies.get(key)
        if strategy is None:
            return {
                "ok": False,
                "error": "bad-request",
                "detail": f"unknown scheme key: {key!r}",
            }
        return {
            "ok": True,
            "value": {
                "coverage": strategy.coverage(),
                "storage_cost": strategy.storage_cost(),
                "entry_count": self.config.entry_count,
                "operational": sum(1 for s in self.cluster.servers if s.alive),
            },
        }

    # -- the socket face -----------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection: one read in, every frame it
        completes dispatched in order, their replies out in one write.

        A pipelining client's burst therefore costs one socket read and
        one ``writelines`` + ``drain`` however many frames it carried;
        at most :data:`READ_CHUNK` request bytes are served per flush.
        Replies start out JSON-framed; after a successful ``hello``
        negotiation this connection's replies switch to the agreed
        codec (the hello reply itself is still sent in the codec the
        connection was using, so the client knows the switch point).
        """
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        codec = CODEC_JSON
        buffer = bytearray()
        try:
            while True:
                chunk = await reader.read(READ_CHUNK)
                if not chunk:
                    # A hangup between frames is normal; one mid-frame
                    # leaves nothing to answer either.
                    break
                buffer += chunk
                replies: list = []
                broken = False
                try:
                    for body in iter_frame_bodies(buffer):
                        try:
                            envelope = net_codec.decode_frame_body(body)
                        except WireError:
                            # The frame was well-formed but its content
                            # was not decodable (unknown message type,
                            # bad tag payload): the stream is still in
                            # sync, so answer and keep serving.
                            envelope = None
                            reply = {
                                "ok": False,
                                "error": "bad-request",
                                "detail": "undecodable frame body",
                            }
                        else:
                            reply = await self.handle_envelope_async(
                                envelope, raw=codec == CODEC_BINARY
                            )
                        if codec == CODEC_BINARY:
                            # Zero-copy path: cached/prepacked bodies
                            # are spliced into the reply's buffer list.
                            replies.append(encode_envelope_fragments(reply))
                        else:
                            replies.append(encode_envelope_as(reply, codec))
                        if (
                            envelope is not None
                            and envelope.get("op") == "hello"
                            and reply.get("ok")
                        ):
                            codec = reply["value"]["codec"]
                except FrameError:
                    # The stream is out of sync: answer what came
                    # before the bad frame, then hang up.
                    broken = True
                if replies:
                    await write_frames(writer, replies)
                if broken:
                    break
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Absorb the stop()-issued cancel and finish normally:
            # 3.11's stream done-callback calls task.exception() on a
            # cancelled handler and logs spurious noise otherwise.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def start(
        self, host: str = "127.0.0.1", port: int = 0, *, sock: Any = None
    ) -> tuple[str, int]:
        """Bind and begin serving; returns the bound (host, port).

        ``port=0`` binds an ephemeral port — the CI smoke job and the
        benchmarks use this to avoid port collisions, reading the real
        port from the return value (or the ``--ready-file`` at the CLI).
        ``sock`` serves an already-bound listening socket instead —
        the worker fleet uses this to put every worker's acceptor on
        one ``SO_REUSEPORT`` port (see :mod:`repro.net.workers`).
        """
        if self._server is not None:
            raise RuntimeError("service already started")
        if sock is not None:
            self._server = await asyncio.start_server(
                self.handle_connection, sock=sock
            )
        else:
            self._server = await asyncio.start_server(
                self.handle_connection, host=host, port=port
            )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("service not started")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop listening and tear down any live connections."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        # start_server's handler tasks are not awaited by wait_closed
        # (until 3.12's close_clients); cancel and reap them here so a
        # stopped service leaves no dangling tasks behind.
        connections = list(self._connections)
        self._connections.clear()
        for task in connections:
            task.cancel()
        await asyncio.gather(*connections, return_exceptions=True)


__all__ = [
    "DEFAULT_SCHEMES",
    "MAX_BATCH",
    "LookupService",
    "ServiceConfig",
    "envelope_mutates",
    "shard_names",
]
