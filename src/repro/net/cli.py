"""CLI faces for the network service: ``repro serve`` and ``repro call``.

``serve`` runs a :class:`~repro.net.service.LookupService` in the
foreground until interrupted; ``call`` connects an
:class:`~repro.net.client.AsyncLookupClient` and issues partial
lookups.  Both are registered as subcommands of the main ``repro``
parser (see :mod:`repro.experiments.cli`); the handlers here follow
the same convention — take the parsed namespace, return an exit code.

The ``--ready-file`` flag makes ``serve`` write ``host port\\n`` once
the socket is bound.  With ``--port 0`` (an ephemeral port) this is
the only way a supervisor can learn the address; the CI smoke job and
``scripts/net_smoke.py`` rely on it.

Sharded deployments add ``serve --shard i/N --peers s0=host:port,...``
(one process per shard, heartbeating its peers) and ``call
--shards s0=host:port,...`` (route through the
:class:`~repro.net.router.ShardRouter` with membership-aware
failover).

Exit codes — ``call`` distinguishes outcomes so CI scripts can assert
on them without parsing stdout:

- 0: every lookup returned its full target.
- :data:`EXIT_DEGRADED` (3): at least one lookup came back short but
  non-empty (the partial-failure regime the paper is about).
- :data:`EXIT_FAILED` (4): at least one lookup returned nothing at
  all despite a positive target.
- 1: the service could not be reached; 2 is reserved for usage /
  :class:`~repro.core.exceptions.ReproError` failures in ``main``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import random
import signal
import sys
import time
from typing import Dict, Optional, Tuple

from repro.cluster.client import RetryPolicy
from repro.core.exceptions import InvalidParameterError
from repro.net.cache import DEFAULT_CAPACITY as DEFAULT_CACHE_CAPACITY
from repro.net.client import AsyncLookupClient, ServiceError
from repro.net.membership import MembershipPump
from repro.net.router import ShardRouter
from repro.net.service import DEFAULT_SCHEMES, LookupService, ServiceConfig
from repro.net.workers import run_worker_fleet
from repro.protocol.membership import MembershipConfig

#: ``call`` exit code: some lookup was short but non-empty.
EXIT_DEGRADED = 3
#: ``call`` exit code: some lookup returned nothing (target > 0).
EXIT_FAILED = 4


def _parse_shard(spec: str) -> Tuple[int, int]:
    """Parse ``--shard i/N`` into ``(index, count)``."""
    try:
        index_text, count_text = spec.split("/", 1)
        return int(index_text), int(count_text)
    except ValueError:
        raise InvalidParameterError(
            f"--shard wants i/N (e.g. 0/3), got {spec!r}"
        ) from None


def _parse_endpoints(spec: str) -> Dict[str, Tuple[str, int]]:
    """Parse ``name=host:port,name=host:port,...``."""
    endpoints: Dict[str, Tuple[str, int]] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            name, address = item.split("=", 1)
            host, port_text = address.rsplit(":", 1)
            endpoints[name.strip()] = (host.strip(), int(port_text))
        except ValueError:
            raise InvalidParameterError(
                f"endpoint wants name=host:port, got {item!r}"
            ) from None
    if not endpoints:
        raise InvalidParameterError(f"no endpoints in {spec!r}")
    return endpoints


def add_serve_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the asyncio lookup service on a socket",
        description=(
            "Host all five paper schemes behind one listening socket. "
            "Runs until interrupted (SIGINT/SIGTERM)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7421, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--servers", type=int, default=16, help="cluster size n"
    )
    parser.add_argument(
        "--entries", type=int, default=40, help="entries placed per scheme"
    )
    parser.add_argument("--seed", type=int, default=0, help="cluster RNG seed")
    parser.add_argument(
        "--ready-file",
        default=None,
        help="write 'host port' here once the socket is bound",
    )
    parser.add_argument(
        "--uvloop",
        action="store_true",
        help="run on uvloop when installed (falls back to asyncio)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fork N worker processes accepting on one port "
            "(SO_REUSEPORT; worker 0 applies all mutations)"
        ),
    )
    cache = parser.add_argument_group("reply cache")
    cache.add_argument(
        "--cache-size",
        type=int,
        default=DEFAULT_CACHE_CAPACITY,
        metavar="N",
        help="hot-key reply cache capacity per process (0 disables)",
    )
    cache.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the hot-key reply cache (same as --cache-size 0)",
    )
    cache.add_argument(
        "--shared-cache",
        dest="shared_cache",
        action="store_true",
        default=True,
        help=(
            "back the worker fleet's reply cache with one shared-memory "
            "segment so every worker sees every hit (default; binary "
            "codec only, --workers >= 2)"
        ),
    )
    cache.add_argument(
        "--no-shared-cache",
        dest="shared_cache",
        action="store_false",
        help="keep reply caches strictly per-process",
    )
    storage = parser.add_argument_group("storage")
    storage.add_argument(
        "--store",
        choices=("memory", "log"),
        default="memory",
        help=(
            "storage backend: 'memory' (default) or 'log' (append-log "
            "journal; crash recovery from --data-dir)"
        ),
    )
    storage.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="journal/snapshot directory (required with --store log)",
    )
    storage.add_argument(
        "--log-compact-records",
        type=int,
        default=4096,
        metavar="N",
        help="auto-compact the journal every N records (0 = never)",
    )
    shard = parser.add_argument_group("sharding")
    shard.add_argument(
        "--shard",
        default="0/1",
        metavar="I/N",
        help="this process's shard index out of N (default 0/1: unsharded)",
    )
    shard.add_argument(
        "--peers",
        default=None,
        metavar="NAME=HOST:PORT,...",
        help="the other shards' addresses (enables the membership plane)",
    )
    shard.add_argument(
        "--replicas", type=int, default=2, help="home-group size per key"
    )
    shard.add_argument(
        "--backup-fraction",
        type=float,
        default=0.25,
        help="fraction of a key's entries each backup shard holds",
    )
    shard.add_argument(
        "--probes", type=int, default=21, help="multi-probe hash probe count"
    )
    shard.add_argument(
        "--incarnation",
        type=int,
        default=None,
        help="boot incarnation (default: wall-clock seconds)",
    )
    timing = parser.add_argument_group("failure detection")
    timing.add_argument(
        "--heartbeat-interval", type=float, default=0.5, help="seconds between beats"
    )
    timing.add_argument(
        "--suspect-after", type=float, default=2.0, help="silence before suspect"
    )
    timing.add_argument(
        "--dead-after", type=float, default=5.0, help="silence before dead"
    )
    timing.add_argument(
        "--quarantine", type=float, default=3.0, help="rejoin probation seconds"
    )
    parser.set_defaults(handler=cmd_serve)


def add_call_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "call",
        help="issue partial lookups against a running service",
        description=(
            "Connect to a repro serve instance and run partial lookups "
            "under one scheme, printing a JSON summary."
        ),
    )
    parser.add_argument(
        "scheme",
        choices=sorted(DEFAULT_SCHEMES),
        help="which hosted scheme to look up under",
    )
    parser.add_argument("--host", default="127.0.0.1", help="service address")
    parser.add_argument("--port", type=int, default=7421, help="service port")
    parser.add_argument(
        "--target", type=int, default=10, help="entries to retrieve per lookup"
    )
    parser.add_argument(
        "--count", type=int, default=1, help="number of lookups to run"
    )
    parser.add_argument(
        "--codec",
        choices=("json", "binary", "auto"),
        default="json",
        help=(
            "wire codec: json (legacy, default), binary, or auto "
            "(negotiate, JSON fallback)"
        ),
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=1,
        metavar="N",
        help="pipeline lookups in batched windows of N (1 = sequential)",
    )
    parser.add_argument("--seed", type=int, default=None, help="client RNG seed")
    parser.add_argument(
        "--timeout", type=float, default=5.0, help="per-request reply timeout (s)"
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="max lookup attempts (1 = the paper's single pass)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="also fetch the service's coverage/storage invariants",
    )
    parser.add_argument(
        "--shards",
        default=None,
        metavar="NAME=HOST:PORT,...",
        help="route through the shard fleet instead of one service",
    )
    parser.add_argument(
        "--replicas", type=int, default=2, help="home-group size per key (fleet mode)"
    )
    parser.add_argument(
        "--probes", type=int, default=21, help="multi-probe count (fleet mode)"
    )
    parser.set_defaults(handler=cmd_call)


def _config_from_args(args: argparse.Namespace) -> ServiceConfig:
    shard_index, shard_count = _parse_shard(args.shard)
    cache_size = 0 if getattr(args, "no_cache", False) else args.cache_size
    return ServiceConfig(
        server_count=args.servers,
        entry_count=args.entries,
        seed=args.seed,
        shard_index=shard_index,
        shard_count=shard_count,
        replicas=args.replicas,
        backup_fraction=args.backup_fraction,
        probes=args.probes,
        cache_size=cache_size,
        shared_cache=getattr(args, "shared_cache", True),
        store=getattr(args, "store", "memory"),
        data_dir=getattr(args, "data_dir", None),
        log_compact_records=getattr(args, "log_compact_records", 4096),
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the service until SIGINT/SIGTERM."""
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise InvalidParameterError(f"--workers must be >= 1, got {workers}")
    if workers > 1:
        if args.peers is not None:
            # Readers would heartbeat through stale per-process views;
            # the membership plane stays a one-process-per-shard affair.
            raise InvalidParameterError(
                "--workers does not combine with --peers; run one worker "
                "fleet per shard without the membership plane"
            )
        return run_worker_fleet(
            _config_from_args(args),
            host=args.host,
            port=args.port,
            workers=workers,
            ready_file=args.ready_file,
        )
    if getattr(args, "uvloop", False):
        try:
            import uvloop  # noqa: PLC0415 - optional accelerator
        except ImportError:
            print(
                "[serve] uvloop not installed; continuing on asyncio",
                file=sys.stderr,
                flush=True,
            )
        else:
            with asyncio.Runner(loop_factory=uvloop.new_event_loop) as runner:
                return runner.run(_serve_async(args))
    return asyncio.run(_serve_async(args))


async def _serve_async(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    shard_count = config.shard_count
    service = LookupService(config)
    pump: Optional[MembershipPump] = None
    if args.peers is not None:
        if shard_count < 2:
            raise InvalidParameterError("--peers requires --shard i/N with N > 1")
        peers = _parse_endpoints(args.peers)
        peers.pop(service.shard_name, None)
        incarnation = (
            args.incarnation if args.incarnation is not None else int(time.time())
        )
        pump = MembershipPump(
            service.shard_name,
            peers,
            config=MembershipConfig(
                heartbeat_interval=args.heartbeat_interval,
                suspect_after=args.suspect_after,
                dead_after=args.dead_after,
                quarantine=args.quarantine,
            ),
            incarnation=incarnation,
            rng=random.Random(args.seed),
        )
        service.membership = pump
    host, port = await service.start(host=args.host, port=args.port)
    if pump is not None:
        pump.start()
    # Handlers go in before the ready file announces the service, so a
    # SIGTERM sent the moment it appears still stops cleanly.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signame in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signame, stop.set)
    if args.ready_file:
        with open(args.ready_file, "w", encoding="utf-8") as handle:
            handle.write(f"{host} {port}\n")
    shard_note = (
        f" as shard {service.shard_name}/{shard_count}" if shard_count > 1 else ""
    )
    print(
        f"[serve] {len(service.strategies)} schemes on {config.server_count} "
        f"servers, listening on {host}:{port}{shard_note}",
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        if pump is not None:
            await pump.stop()
        await service.stop()
        print("[serve] stopped", flush=True)
    return 0


def cmd_call(args: argparse.Namespace) -> int:
    try:
        return asyncio.run(_call_async(args))
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach service: {exc}", file=sys.stderr)
        return 1


def _lookup_row(result) -> dict:
    # The typed result owns its row shape now (including the shard
    # attribution in fleet mode); see repro.net.results.
    return result.as_row()


def exit_code_for(lookups: list) -> int:
    """Map a batch of lookup rows onto the ``call`` exit code scheme.

    Worst outcome wins: any empty answer (target > 0) is a *failure*
    (4), any short-but-non-empty answer is *degraded* (3), a clean
    sweep is 0.
    """
    if any(l["found"] == 0 and l["target"] > 0 for l in lookups):
        return EXIT_FAILED
    if not all(l["success"] for l in lookups):
        return EXIT_DEGRADED
    return 0


async def _call_async(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    policy: Optional[RetryPolicy] = None
    if args.retries > 1:
        policy = RetryPolicy(max_attempts=args.retries)
    if args.shards is not None:
        return await _call_fleet(args, rng, policy)
    batch = max(1, getattr(args, "batch", 1))
    client = AsyncLookupClient(
        args.host,
        args.port,
        rng=rng,
        timeout=args.timeout,
        retry_policy=policy,
        codec=getattr(args, "codec", "json"),
    )
    async with client:
        try:
            info = await client.info()
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        lookups = []
        remaining = args.count
        while remaining > 0:
            window = min(batch, remaining)
            remaining -= window
            if window == 1:
                result = await client.lookup(args.scheme, args.target)
                lookups.append(_lookup_row(result))
            else:
                report = await client.lookup_many(
                    args.scheme, [args.target] * window
                )
                lookups.extend(report.rows())
        code = exit_code_for(lookups)
        summary = {
            "scheme": args.scheme,
            "service": {"servers": info.servers, "entries": info.entries},
            "lookups": lookups,
            "all_success": all(l["success"] for l in lookups),
            "exit_code": code,
        }
        if args.verify:
            summary["verify"] = await client.verify(args.scheme)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return code


async def _call_fleet(
    args: argparse.Namespace,
    rng: Optional[random.Random],
    policy: Optional[RetryPolicy],
) -> int:
    batch = max(1, getattr(args, "batch", 1))
    router = ShardRouter(
        _parse_endpoints(args.shards),
        replicas=args.replicas,
        probes=args.probes,
        rng=rng if rng is not None else random.Random(),
        timeout=args.timeout,
        retry_policy=policy,
        codec=getattr(args, "codec", "json"),
    )
    try:
        lookups = []
        remaining = args.count
        while remaining > 0:
            window = min(batch, remaining)
            remaining -= window
            if window == 1:
                routed = await router.lookup(args.scheme, args.target)
                lookups.append(_lookup_row(routed))
            else:
                report = await router.lookup_many(
                    [(args.scheme, args.target)] * window
                )
                lookups.extend(report.rows())
        code = exit_code_for(lookups)
        summary = {
            "scheme": args.scheme,
            "shards": router.map.shards,
            "membership": await router.membership_view(refresh=True),
            "lookups": lookups,
            "all_success": all(l["success"] for l in lookups),
            "exit_code": code,
        }
        if args.verify:
            summary["verify"] = await router.verify(args.scheme)
    finally:
        await router.close()
    print(json.dumps(summary, indent=2, sort_keys=True))
    return code


__all__ = [
    "EXIT_DEGRADED",
    "EXIT_FAILED",
    "add_call_parser",
    "add_serve_parser",
    "cmd_call",
    "cmd_serve",
    "exit_code_for",
]
